//! The seed EY / ECDF virtual-deadline tuners: fresh start vectors per
//! attempt, an allocated move list per round stable-sorted on the
//! original two-key comparator, and the flat per-call demand checks of
//! [`crate::dbf`] — the full seed stack, end to end.
//!
//! `mcsched_analysis::vdtune`'s kernel-backed search must reproduce
//! every verdict and every chosen assignment here bit-identically.

use crate::dbf;
use mcsched_analysis::dbf::dbf_hi;
use mcsched_analysis::{DemandCheck, VdTask};
use mcsched_model::{Task, TaskSet, Time};

/// How much search effort a tuner invests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Effort {
    /// Maximum greedy rounds per start.
    max_rounds: usize,
    /// Use the bisection and minimal-slack candidate moves.
    rich_moves: bool,
}

const EY_EFFORT: Effort = Effort {
    max_rounds: 64,
    rich_moves: false,
};

const ECDF_EFFORT: Effort = Effort {
    max_rounds: 128,
    rich_moves: true,
};

/// Initial assignment: every task at its real deadline.
fn untightened(ts: &TaskSet) -> Vec<VdTask> {
    ts.iter().map(|&t| VdTask::untightened(t)).collect()
}

/// Seeded assignment: every HC task pre-tightened so its carry-over job has
/// at least `C^H − C^L` slack after the switch — ordered by how early its
/// carry-over deadline would otherwise fall (tightest first), hence
/// "earliest carry-over deadline first" seeding.
fn slack_seeded(ts: &TaskSet) -> Vec<VdTask> {
    ts.iter().map(slack_seeded_task).collect()
}

/// The per-task slack-seeded entry (the kernel tuner's reseed target).
fn slack_seeded_task(t: &Task) -> VdTask {
    if t.criticality().is_high() {
        let slack = t.wcet_hi() - t.wcet_lo();
        let vd = (t.deadline() - slack).max(t.wcet_lo());
        VdTask { task: *t, vd }
    } else {
        VdTask::untightened(*t)
    }
}

/// One candidate tightening move for a HC task.
#[derive(Debug, Clone, Copy)]
struct Move {
    idx: usize,
    new_vd: Time,
    gain: Time,
}

/// Enumerates tightening moves for the task at `idx` that reduce its
/// high-mode demand at the violation witness `t_star`.
fn moves_for(tasks: &[VdTask], idx: usize, t_star: Time, rich: bool, out: &mut Vec<Move>) {
    let vt = tasks[idx];
    let task = vt.task;
    if task.criticality().is_low() {
        return;
    }
    let floor_vd = task.wcet_lo();
    if vt.vd <= floor_vd {
        return; // cannot tighten further
    }
    let current = dbf_hi(&vt, t_star);
    if current.is_zero() {
        return; // no contribution at the witness; tightening here is noise
    }
    let d = vt.dist();
    let period = task.period();
    let rel = t_star - d; // t* ≥ d because current > 0
    let k = rel.div_floor(period) + 1;
    let m = rel % period;

    let mut push = |new_vd: Time| {
        let new_vd = new_vd.max(floor_vd);
        if new_vd >= vt.vd {
            return;
        }
        let cand = VdTask { task, vd: new_vd };
        let after = dbf_hi(&cand, t_star);
        if after < current {
            out.push(Move {
                idx,
                new_vd,
                gain: current - after,
            });
        }
    };

    // Move A — push the earliest counted deadline out of the window
    // (reduces the job count k at t*): need d' > t* − (k−1)·T.
    let d_drop = t_star.saturating_sub((k - 1) * period) + Time::ONE;
    if d_drop <= task.deadline() {
        push(task.deadline() - d_drop);
    }
    // Move B — align the carry-over job so its guaranteed progress is
    // maximal (mod → 0): d' = d + m.
    if !m.is_zero() {
        push(vt.vd - m.min(vt.vd));
    }
    if rich {
        // Move C — ensure minimal overrun slack d ≥ C^H − C^L in one jump.
        let slack = task.wcet_hi() - task.wcet_lo();
        if d < slack {
            push(task.deadline() - slack.min(task.deadline()));
        }
        // Move D — bisect towards the floor to escape plateaus.
        let mid = Time::new((vt.vd.as_ticks() + floor_vd.as_ticks()) / 2);
        push(mid);
    }
}

/// The seed greedy descent: owns its working vector, allocates a move
/// list per call, stable-sorts moves on the original two-key
/// comparator (the order the hot path's totalised unstable sort
/// reproduces exactly), and runs the flat per-call demand checks of
/// [`crate::dbf`] — the full seed stack, end to end.
fn greedy(mut tasks: Vec<VdTask>, effort: Effort) -> Option<Vec<VdTask>> {
    if !dbf::check_lo_mode(&tasks).is_ok() {
        return None;
    }
    let mut moves: Vec<Move> = Vec::new();
    for _ in 0..effort.max_rounds {
        let t_star = match dbf::check_hi_mode(&tasks) {
            DemandCheck::Ok => return Some(tasks),
            DemandCheck::Violation(t) => t,
            DemandCheck::Unbounded => return None,
        };
        moves.clear();
        for idx in 0..tasks.len() {
            moves_for(&tasks, idx, t_star, effort.rich_moves, &mut moves);
        }
        moves.sort_by(|a, b| {
            b.gain
                .cmp(&a.gain)
                .then_with(|| (tasks[a.idx].vd - a.new_vd).cmp(&(tasks[b.idx].vd - b.new_vd)))
        });
        let mut applied = false;
        for mv in &moves {
            let prev = tasks[mv.idx].vd;
            tasks[mv.idx].vd = mv.new_vd;
            if dbf::check_lo_mode(&tasks).is_ok() {
                applied = true;
                break;
            }
            tasks[mv.idx].vd = prev;
        }
        if !applied {
            return None;
        }
    }
    None
}

/// Total low-mode utilization of **all** tasks (`Σ u^L_i`).
fn utilization_lo_total(ts: &TaskSet) -> f64 {
    // Insertion-order sum: the overload rule compares it against 1, so
    // the accumulation order must never reassociate.
    let mut u = 0.0;
    for t in ts {
        u += t.utilization_lo();
    }
    u
}

/// Total high-mode utilization of the HC tasks (`Σ_{HC} u^H_i`).
fn utilization_hi_total(ts: &TaskSet) -> f64 {
    // Insertion-order sum (see `utilization_lo_total`).
    let mut u = 0.0;
    for t in ts.hi_tasks() {
        u += t.utilization_hi();
    }
    u
}

/// The seed `tune`: fresh start vectors per attempt; the ECDF effort
/// adds the slack-seeded start.
fn tune(ts: &TaskSet, ecdf: bool) -> Option<Vec<VdTask>> {
    let effort = if ecdf { ECDF_EFFORT } else { EY_EFFORT };
    let hi_util = utilization_hi_total(ts);
    let lo_util = utilization_lo_total(ts);
    if hi_util > 1.0 || lo_util > 1.0 {
        return None;
    }
    if let Some(found) = greedy(untightened(ts), effort) {
        return Some(found);
    }
    if ecdf {
        if let Some(found) = greedy(slack_seeded(ts), effort) {
            return Some(found);
        }
    }
    None
}

/// The seed EY verdict.
pub fn ey_is_schedulable(ts: &TaskSet) -> bool {
    tune(ts, false).is_some()
}

/// The seed ECDF verdict (ECDF starts, then the EY fallback).
pub fn ecdf_is_schedulable(ts: &TaskSet) -> bool {
    tune(ts, true).is_some() || tune(ts, false).is_some()
}

/// The seed EY assignment — the tuner-chosen `{Vi}` the kernel-backed
/// [`Ey::tune`](mcsched_analysis::Ey::tune) must reproduce bit-identically.
pub fn ey_tune(ts: &TaskSet) -> Option<Vec<VdTask>> {
    tune(ts, false)
}

/// The seed ECDF assignment (ECDF starts, then the EY fallback).
pub fn ecdf_tune(ts: &TaskSet) -> Option<Vec<VdTask>> {
    tune(ts, true).or_else(|| tune(ts, false))
}

#[cfg(test)]
mod tests {
    use super as reference;
    use mcsched_analysis::{Ecdf, Ey, SchedulabilityTest};
    use mcsched_model::{Task, TaskSet};

    fn set(tasks: Vec<Task>) -> TaskSet {
        TaskSet::try_from_tasks(tasks).unwrap()
    }

    #[test]
    fn workspace_tuner_matches_seed_reference_on_grid() {
        for t1 in [8u64, 10, 14, 20] {
            for c1 in [1u64, 2, 3, 5] {
                for h1 in [c1 + 1, c1 + 3] {
                    for c2 in [2u64, 4, 6] {
                        if h1 > t1 {
                            continue;
                        }
                        let ts = set(vec![
                            Task::hi(0, t1, c1, h1).unwrap(),
                            Task::lo(1, 12, c2).unwrap(),
                            Task::hi(2, 30, 2, 6).unwrap(),
                        ]);
                        assert_eq!(
                            Ey::new().is_schedulable(&ts),
                            reference::ey_is_schedulable(&ts),
                            "EY diverged from seed on {ts}"
                        );
                        assert_eq!(
                            Ecdf::new().is_schedulable(&ts),
                            reference::ecdf_is_schedulable(&ts),
                            "ECDF diverged from seed on {ts}"
                        );
                    }
                }
            }
        }
    }
}
