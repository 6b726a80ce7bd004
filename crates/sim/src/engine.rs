//! The discrete-event engine: `m` identical processors sharing one ready
//! queue and one mode.

use crate::policy::Policy;
use crate::report::{MissRecord, SimReport, TraceEvent};
use crate::scenario::Scenario;
use mcsched_model::{Criticality, TaskSet, Time};

/// Execution mode (system-wide: one mode for all `m` processors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Lo,
    Hi,
}

/// A released, not-yet-finished job.
#[derive(Debug, Clone, Copy)]
struct ActiveJob {
    task_idx: usize,
    release: Time,
    abs_deadline: Time,
    /// Priority key in low and high mode (indexed by [`Mode`]): lower
    /// runs first.
    rank: [(u64, u64); 2],
    demand: Time,
    executed: Time,
}

impl ActiveJob {
    fn remaining(&self) -> Time {
        self.demand - self.executed
    }
}

/// A preemptive simulator for one task set under one [`Policy`] on `m`
/// identical processors sharing one ready queue.
///
/// With `m = 1` ([`Simulator::new`]) it is one processor of a partitioned
/// system: the mode switch it models is that processor's own. With
/// `m > 1` ([`Simulator::global`]) it is global (work-conserving, fully
/// migrating) scheduling, and the mode switch is system-wide — §II of the
/// paper's argument against global MC scheduling: one HC overrun anywhere
/// discards every LC task.
///
/// Semantics:
///
/// * Jobs are released periodically (plus scenario-controlled sporadic
///   delay) starting at time 0.
/// * At every event the `m` highest-priority ready jobs run, ranked by the
///   policy's priority under the current mode (virtual deadlines in low
///   mode for EDF-VD), ties broken by job index.
/// * When a running HC job executes `C^L` without signalling completion,
///   the system switches to high mode *at that instant*: all pending LC
///   jobs are discarded, LC releases are suppressed, and EDF-VD reverts to
///   real deadlines.
/// * When no job is ready in high mode, the system resets to low mode
///   (the standard idle-instant protocol), and LC releases resume.
/// * A *required* deadline miss (any job in low mode; HC jobs in high
///   mode) is recorded and the job is abandoned.
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_sim::{Simulator, Policy, Scenario};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::try_from_tasks(vec![Task::lo(0, 10, 5)?])?;
/// let report = Simulator::new(&ts, Policy::Edf).run(&Scenario::lo_only(), 100);
/// assert!(report.is_success());
/// assert_eq!(report.completed(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    ts: &'a TaskSet,
    policy: Policy,
    processors: usize,
    record_trace: bool,
}

impl<'a> Simulator<'a> {
    /// Creates a uniprocessor simulator for a task set under a policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy's per-task tables do not match the task count.
    pub fn new(ts: &'a TaskSet, policy: Policy) -> Self {
        Self::global(ts, policy, 1)
    }

    /// Creates a global simulator over `m` processors.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or the policy's per-task tables do not match the
    /// task count.
    ///
    /// # Example
    ///
    /// ```
    /// use mcsched_model::{Task, TaskSet};
    /// use mcsched_sim::{Simulator, Policy, Scenario};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let ts = TaskSet::try_from_tasks(vec![
    ///     Task::hi(0, 10, 2, 4)?,
    ///     Task::lo(1, 10, 4)?,
    ///     Task::lo(2, 20, 6)?,
    /// ])?;
    /// let sim = Simulator::global(&ts, Policy::edf_vd_scaled(&ts, 0.6), 2);
    /// let report = sim.run(&Scenario::lo_only(), 200);
    /// assert!(report.is_success());
    /// # Ok(())
    /// # }
    /// ```
    pub fn global(ts: &'a TaskSet, policy: Policy, m: usize) -> Self {
        assert!(m > 0, "at least one processor required");
        match &policy {
            Policy::EdfVd { virtual_deadlines } => {
                assert_eq!(
                    virtual_deadlines.len(),
                    ts.len(),
                    "one virtual deadline per task required"
                );
            }
            Policy::FixedPriority { priority_order } => {
                assert_eq!(
                    priority_order.len(),
                    ts.len(),
                    "priority order must cover every task"
                );
            }
            Policy::Edf => {}
        }
        Simulator {
            ts,
            policy,
            processors: m,
            record_trace: false,
        }
    }

    /// Enables event-trace recording (off by default; traces grow linearly
    /// with simulated time).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Priority keys of a job of task `idx` released at `release`, in low
    /// and high mode.
    fn rank(&self, idx: usize, release: Time) -> [(u64, u64); 2] {
        let deadline = (release + self.ts.as_slice()[idx].deadline()).as_ticks();
        match &self.policy {
            Policy::EdfVd { virtual_deadlines } => [
                ((release + virtual_deadlines[idx]).as_ticks(), idx as u64),
                (deadline, idx as u64),
            ],
            Policy::Edf => [(deadline, idx as u64); 2],
            Policy::FixedPriority { priority_order } => {
                let pos = priority_order
                    .iter()
                    .position(|&i| i == idx)
                    .expect("job's task present in priority order")
                    as u64;
                [(pos, 0); 2]
            }
        }
    }

    /// Runs the simulation for `horizon` ticks.
    pub fn run(&self, scenario: &Scenario, horizon: u64) -> SimReport {
        let horizon = Time::new(horizon);
        let mut report = SimReport::new(horizon);
        if self.ts.is_empty() {
            return report;
        }
        let mut sampler = scenario.sampler();
        let tasks = self.ts.as_slice();
        let n = tasks.len();

        // Next earliest release instant per task (with sporadic delay).
        let mut next_release: Vec<Time> = (0..n)
            .map(|i| Time::ZERO + sampler.release_delay(&tasks[i]))
            .collect();
        let mut jobs: Vec<ActiveJob> = Vec::with_capacity(2 * n);
        // `(rank, job index)` of every ready job, rebuilt at each step.
        let mut keys: Vec<((u64, u64), usize)> = Vec::with_capacity(2 * n);
        let mut mode = Mode::Lo;
        let mut t = Time::ZERO;

        while t < horizon {
            // 1. Releases due at or before t.
            for (i, task) in tasks.iter().enumerate() {
                while next_release[i] <= t {
                    let release = next_release[i];
                    next_release[i] = release + task.period() + sampler.release_delay(task);
                    if mode == Mode::Hi && task.criticality() == Criticality::Low {
                        report.push_event(
                            self.record_trace,
                            TraceEvent::Drop {
                                at: release,
                                task: task.id(),
                            },
                        );
                        continue;
                    }
                    let demand = sampler.demand(task);
                    jobs.push(ActiveJob {
                        task_idx: i,
                        release,
                        abs_deadline: release + task.deadline(),
                        rank: self.rank(i, release),
                        demand,
                        executed: Time::ZERO,
                    });
                    report.push_event(
                        self.record_trace,
                        TraceEvent::Release {
                            at: release,
                            task: task.id(),
                        },
                    );
                }
            }

            // 2. Deadline misses at or before t.
            jobs.retain(|job| {
                if job.abs_deadline <= t && !job.remaining().is_zero() {
                    report.push_event(
                        self.record_trace,
                        TraceEvent::Miss(MissRecord {
                            task: tasks[job.task_idx].id(),
                            release: job.release,
                            deadline: job.abs_deadline,
                            criticality: tasks[job.task_idx].criticality(),
                        }),
                    );
                    false
                } else {
                    true
                }
            });

            // 3. Select the m highest-priority ready jobs, in key order.
            keys.clear();
            keys.extend(
                jobs.iter()
                    .enumerate()
                    .map(|(idx, job)| (job.rank[mode as usize], idx)),
            );
            if keys.is_empty() {
                // Idle: reset to low mode, then jump to the next release
                // (or finish).
                if mode == Mode::Hi {
                    mode = Mode::Lo;
                    report.push_event(self.record_trace, TraceEvent::ModeReset { at: t });
                }
                match next_release.iter().copied().min() {
                    Some(next) if next < horizon => t = next,
                    _ => break,
                }
                continue;
            }
            let busy = keys.len().min(self.processors);
            if busy < keys.len() {
                keys.select_nth_unstable(busy - 1);
            }
            let running = &mut keys[..busy];
            running.sort_unstable();

            // 4. Advance to the earliest event boundary of any running job.
            let mut delta = horizon - t;
            for &(_, idx) in running.iter() {
                let job = &jobs[idx];
                let task = &tasks[job.task_idx];
                delta = delta.min(job.remaining());
                if mode == Mode::Lo
                    && task.criticality() == Criticality::High
                    && job.demand > task.wcet_lo()
                    && job.executed < task.wcet_lo()
                {
                    delta = delta.min(task.wcet_lo() - job.executed);
                }
            }
            // Every pending release lies after t (step 1 consumed the rest).
            if let Some(next) = next_release.iter().copied().min() {
                delta = delta.min(next - t);
            }
            if let Some(dl) = jobs.iter().map(|j| j.abs_deadline).filter(|&d| d > t).min() {
                delta = delta.min(dl - t);
            }
            if delta.is_zero() {
                break;
            }
            for &(_, idx) in running.iter() {
                jobs[idx].executed += delta;
            }
            t += delta;

            // 5. Handle the boundary: the first overrunner in key order
            // names the switch; completions are logged in descending job
            // index so that `swap_remove` leaves the others in place.
            let switched_by = running.iter().find_map(|&(_, idx)| {
                let job = &jobs[idx];
                let task = &tasks[job.task_idx];
                (mode == Mode::Lo
                    && !job.remaining().is_zero()
                    && task.criticality() == Criticality::High
                    && job.executed == task.wcet_lo())
                .then_some(job.task_idx)
            });
            running.sort_unstable_by_key(|&(_, idx)| std::cmp::Reverse(idx));
            for &(_, idx) in running.iter() {
                if jobs[idx].remaining().is_zero() {
                    report.push_event(
                        self.record_trace,
                        TraceEvent::Complete {
                            at: t,
                            task: tasks[jobs[idx].task_idx].id(),
                        },
                    );
                    jobs.swap_remove(idx);
                }
            }
            if let Some(overrunner) = switched_by {
                // Budget overrun without completion: mode switch.
                mode = Mode::Hi;
                report.push_event(
                    self.record_trace,
                    TraceEvent::ModeSwitch {
                        at: t,
                        task: tasks[overrunner].id(),
                    },
                );
                let record = self.record_trace;
                jobs.retain(|j| {
                    if tasks[j.task_idx].criticality() == Criticality::Low {
                        report.push_event(
                            record,
                            TraceEvent::Drop {
                                at: t,
                                task: tasks[j.task_idx].id(),
                            },
                        );
                        false
                    } else {
                        true
                    }
                });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_model::Task;

    fn set(tasks: Vec<Task>) -> TaskSet {
        TaskSet::try_from_tasks(tasks).unwrap()
    }

    #[test]
    fn single_task_periodic_completion() {
        let ts = set(vec![Task::lo(0, 10, 4).unwrap()]);
        let r = Simulator::new(&ts, Policy::Edf).run(&Scenario::lo_only(), 100);
        assert!(r.is_success());
        assert_eq!(r.released(), 10);
        assert_eq!(r.completed(), 10);
        assert_eq!(r.mode_switches(), 0);
    }

    #[test]
    fn overloaded_edf_misses() {
        let ts = set(vec![
            Task::lo(0, 10, 6).unwrap(),
            Task::lo(1, 10, 6).unwrap(),
        ]);
        let r = Simulator::new(&ts, Policy::Edf).run(&Scenario::lo_only(), 100);
        assert!(!r.is_success());
    }

    #[test]
    fn mode_switch_drops_lc() {
        let ts = set(vec![
            Task::hi(0, 10, 2, 6).unwrap(),
            Task::lo(1, 10, 3).unwrap(),
        ]);
        let r = Simulator::new(&ts, Policy::edf_vd_scaled(&ts, 0.5))
            .with_trace()
            .run(&Scenario::all_hi(), 50);
        assert!(r.mode_switches() > 0, "HC overruns must trigger switches");
        assert!(r.dropped() > 0, "LC work must be shed in high mode");
        assert!(r.is_success(), "misses: {:?}", r.misses());
        // The trace contains a switch before any drop.
        let first_switch = r
            .trace()
            .iter()
            .position(|e| matches!(e, TraceEvent::ModeSwitch { .. }))
            .unwrap();
        let first_drop = r
            .trace()
            .iter()
            .position(|e| matches!(e, TraceEvent::Drop { .. }))
            .unwrap();
        assert!(first_switch < first_drop);
    }

    #[test]
    fn idle_reset_restores_lc_service() {
        let ts = set(vec![
            Task::hi(0, 20, 2, 4).unwrap(),
            Task::lo(1, 20, 3).unwrap(),
        ]);
        // One overrun then LO forever: first busy interval switches, later
        // intervals run normally after the reset.
        let r = Simulator::new(&ts, Policy::edf_vd_scaled(&ts, 0.5))
            .run(&Scenario::random_overrun(0.2, 3), 400);
        assert!(r.is_success());
        if r.mode_switches() > 0 {
            assert!(r.mode_resets() > 0, "switches must be followed by resets");
        }
        // LC jobs complete in the low-mode intervals.
        assert!(r.completed() > 10);
    }

    #[test]
    fn fixed_priority_respects_order() {
        // τ1 has higher DM priority (D=5); τ0's first job must wait.
        let ts = set(vec![
            Task::lo(0, 20, 6).unwrap(),
            Task::lo_constrained(1, 20, 5, 5).unwrap(),
        ]);
        let r = Simulator::new(&ts, Policy::deadline_monotonic(&ts))
            .with_trace()
            .run(&Scenario::lo_only(), 20);
        assert!(r.is_success());
        // τ1 completes at 5, τ0 at 11.
        let completions: Vec<(Time, u32)> = r
            .trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Complete { at, task } => Some((*at, task.0)),
                _ => None,
            })
            .collect();
        assert_eq!(completions, vec![(Time::new(5), 1), (Time::new(11), 0)]);
    }

    #[test]
    fn edf_vd_prevents_miss_that_plain_edf_allows() {
        // Classic EDF-VD motivation: with virtual deadlines the HC task is
        // prioritised early enough in low mode to absorb an overrun.
        // U_LL = 0.5 (T=10,C=5), HC: u^L = 0.2, u^H = 0.45 (T=20).
        let ts = set(vec![
            Task::hi(0, 20, 4, 9).unwrap(),
            Task::lo(1, 10, 5).unwrap(),
        ]);
        // EDF-VD test accepts: x = 0.2/0.5 = 0.4, 0.4·0.5 + 0.45 = 0.65.
        let x = mcsched_analysis::EdfVd::new()
            .scaling_factor(&ts)
            .expect("accepted");
        let vd = Simulator::new(&ts, Policy::edf_vd_scaled(&ts, x)).run(&Scenario::all_hi(), 400);
        assert!(vd.is_success(), "EDF-VD must hold: {:?}", vd.misses());
    }

    #[test]
    fn empty_set_is_trivial() {
        let ts = TaskSet::new();
        let r = Simulator::new(&ts, Policy::Edf).run(&Scenario::all_hi(), 100);
        assert!(r.is_success());
        assert_eq!(r.released(), 0);
    }

    #[test]
    fn sporadic_arrivals_shift_releases() {
        let ts = set(vec![Task::lo(0, 10, 2).unwrap()]);
        let periodic = Simulator::new(&ts, Policy::Edf).run(&Scenario::lo_only(), 100);
        let sporadic = Simulator::new(&ts, Policy::Edf).run(&Scenario::sporadic(0.5, 0.0, 11), 100);
        assert!(sporadic.released() <= periodic.released());
        assert!(sporadic.is_success());
    }

    #[test]
    #[should_panic(expected = "one virtual deadline per task")]
    fn mismatched_policy_table_panics() {
        let ts = set(vec![Task::lo(0, 10, 2).unwrap()]);
        let _ = Simulator::new(
            &ts,
            Policy::EdfVd {
                virtual_deadlines: vec![],
            },
        );
    }

    #[test]
    fn lo_mode_misses_attributed_to_lc() {
        // LC-heavy overload in low mode: misses recorded with criticality.
        let ts = set(vec![
            Task::lo(0, 10, 9).unwrap(),
            Task::lo(1, 10, 9).unwrap(),
        ]);
        let r = Simulator::new(&ts, Policy::Edf).run(&Scenario::lo_only(), 60);
        assert!(!r.is_success());
        assert!(r.misses().iter().all(|m| m.criticality == Criticality::Low));
    }

    #[test]
    fn parallel_execution_uses_all_processors() {
        // Two tasks each of utilization 1.0 fit on two processors.
        let ts = set(vec![
            Task::lo(0, 10, 10).unwrap(),
            Task::lo(1, 10, 10).unwrap(),
        ]);
        let r = Simulator::global(&ts, Policy::Edf, 2).run(&Scenario::lo_only(), 100);
        assert!(r.is_success());
        assert_eq!(r.completed(), 20);
    }

    #[test]
    fn single_processor_matches_uniprocessor_load() {
        let ts = set(vec![
            Task::lo(0, 10, 6).unwrap(),
            Task::lo(1, 10, 6).unwrap(),
        ]);
        let r = Simulator::global(&ts, Policy::Edf, 1).run(&Scenario::lo_only(), 100);
        assert!(!r.is_success(), "1.2 utilization on one processor");
        let r2 = Simulator::global(&ts, Policy::Edf, 2).run(&Scenario::lo_only(), 100);
        assert!(r2.is_success());
    }

    #[test]
    fn global_switch_drops_lc_everywhere() {
        // One overrunning HC task plus LC work that would be isolated under
        // partitioning: under global scheduling every LC job is dropped.
        let ts = set(vec![
            Task::hi(0, 10, 2, 6).unwrap(),
            Task::lo(1, 10, 3).unwrap(),
            Task::lo(2, 20, 4).unwrap(),
        ]);
        let r = Simulator::global(&ts, Policy::edf_vd_scaled(&ts, 0.5), 2)
            .with_trace()
            .run(&Scenario::all_hi(), 40);
        assert!(r.mode_switches() > 0);
        // Both LC tasks experience drops.
        let dropped: std::collections::HashSet<u32> = r
            .trace()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Drop { task, .. } => Some(task.0),
                _ => None,
            })
            .collect();
        assert!(dropped.contains(&1) && dropped.contains(&2), "{dropped:?}");
    }

    #[test]
    fn empty_set() {
        let ts = TaskSet::new();
        let r = Simulator::global(&ts, Policy::Edf, 2).run(&Scenario::all_hi(), 10);
        assert!(r.is_success());
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        let ts = set(vec![Task::lo(0, 10, 1).unwrap()]);
        let _ = Simulator::global(&ts, Policy::Edf, 0);
    }

    #[test]
    fn dhall_effect_visible() {
        // The classic global-EDF pathology: m light tasks + one heavy task.
        // Global EDF on 2 processors misses; the workload is partitionable.
        let ts = set(vec![
            Task::lo_constrained(0, 10, 1, 2).unwrap(),
            Task::lo_constrained(1, 10, 1, 2).unwrap(),
            Task::lo(2, 10, 10).unwrap(),
        ]);
        let r = Simulator::global(&ts, Policy::Edf, 2).run(&Scenario::lo_only(), 50);
        // The two short jobs (earlier deadlines) occupy both processors in
        // [0, 1]; the full-utilization τ2 then has only 9 of the 10 ticks
        // it needs — a miss, although the set is trivially partitionable
        // (τ2 alone on one processor, the short tasks on the other).
        assert!(!r.is_success(), "Dhall effect should bite");
    }
}
