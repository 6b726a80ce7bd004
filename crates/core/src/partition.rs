//! The partitioning engine (the paper's Algorithm 1, generalised) and the
//! resulting [`Partition`].

use crate::strategy::PartitionStrategy;
use mcsched_analysis::{AdmissionState, AdmissionStats, SchedulabilityTest, WorkspaceRef};
use mcsched_model::{SystemUtilization, Task, TaskId, TaskSet};
use std::error::Error;
use std::fmt;

/// A failed partitioning attempt: some task could not be placed on any
/// processor without failing the schedulability test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionError {
    /// The task that could not be allocated.
    pub task: TaskId,
    /// How many tasks had already been placed when the failure occurred.
    pub placed: usize,
    /// The processor count.
    pub processors: usize,
    /// How many tasks each processor held when the task was rejected
    /// (`processor_loads[k]` is φk+1's task count), straight from the
    /// per-processor admission states.
    pub processor_loads: Vec<usize>,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} could not be allocated on any of {} processors ({} tasks placed",
            self.task, self.processors, self.placed
        )?;
        if !self.processor_loads.is_empty() {
            write!(f, "; per-processor loads: ")?;
            for (k, load) in self.processor_loads.iter().enumerate() {
                if k > 0 {
                    write!(f, "/")?;
                }
                write!(f, "{load}")?;
            }
        }
        write!(f, ")")
    }
}

impl Error for PartitionError {}

/// A successful assignment of every task to one of `m` processors.
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_analysis::EdfVd;
/// use mcsched_core::{presets, Partition};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 2, 5)?,
///     Task::lo(1, 10, 4)?,
/// ])?;
/// let partition = Partition::build(&presets::ca_udp(), &EdfVd::new(), &ts, 2)?;
/// assert_eq!(partition.processor_count(), 2);
/// assert!(partition.processor_of(mcsched_model::TaskId(0)).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    processors: Vec<TaskSet>,
}

impl Partition {
    /// Runs the partitioning strategy against a schedulability test
    /// (Algorithm 1 of the paper, generalised to arbitrary orders/fits).
    ///
    /// For each task in the strategy's allocation order, processors are
    /// tried in the order given by the task's fit rule; the first
    /// processor where the test accepts `τ(φk) ∪ {τi}` receives the task.
    ///
    /// Admission runs through the test's stateful per-processor
    /// [`AdmissionState`]s (`test.admission_state_in`): rejected attempts
    /// cost no `TaskSet` clone, fit rules read the cached utilization
    /// summaries, and the tests reuse incremental analysis state. The
    /// resulting partition is identical to the historical
    /// clone-and-retest construction.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] naming the first task that fails on all
    /// processors.
    pub fn build(
        strategy: &PartitionStrategy,
        test: &dyn SchedulabilityTest,
        ts: &TaskSet,
        m: usize,
    ) -> Result<Self, PartitionError> {
        Self::build_reporting_in(strategy, test, ts, m, &WorkspaceRef::pooled()).0
    }

    /// As [`Partition::build`], also returning the aggregated
    /// [`AdmissionStats`] of the run (attempts, admits, incremental vs
    /// full re-analyses) — surfaced by `mcsched-exp ablation`.
    ///
    /// Every per-processor admission state shares the caller's analysis
    /// workspace: the `m` states of the build borrow `ws`'s scratch
    /// buffers one admission query at a time, so the whole inner loop runs
    /// allocation-free once the buffers are warm. The resulting partition
    /// is identical — the workspace holds scratch only.
    pub fn build_reporting_in(
        strategy: &PartitionStrategy,
        test: &dyn SchedulabilityTest,
        ts: &TaskSet,
        m: usize,
        ws: &WorkspaceRef,
    ) -> (Result<Self, PartitionError>, AdmissionStats) {
        let mut states: Vec<Box<dyn AdmissionState + '_>> =
            (0..m).map(|_| test.admission_state_in(ws)).collect();
        let sequence = strategy.order().sequence(ts);
        let mut summaries: Vec<SystemUtilization> = vec![SystemUtilization::default(); m];
        let mut order: Vec<usize> = Vec::with_capacity(m);
        for (placed, task) in sequence.iter().enumerate() {
            if let Some(k) = place(strategy, task, &mut states, &summaries, &mut order) {
                states[k].commit(*task);
                summaries[k] = states[k].summary();
            } else {
                let error = PartitionError {
                    task: task.id(),
                    placed,
                    processors: m,
                    processor_loads: states.iter().map(|s| s.tasks().len()).collect(),
                };
                return (Err(error), total_stats(&states));
            }
        }
        let stats = total_stats(&states);
        let processors = states.iter_mut().map(|s| s.take_tasks()).collect();
        (Ok(Partition { processors }), stats)
    }

    /// Number of processors.
    pub fn processor_count(&self) -> usize {
        self.processors.len()
    }

    /// The task set assigned to processor `k`.
    pub fn processor(&self, k: usize) -> Option<&TaskSet> {
        self.processors.get(k)
    }

    /// Iterates over the per-processor task sets.
    pub fn iter(&self) -> std::slice::Iter<'_, TaskSet> {
        self.processors.iter()
    }

    /// The per-processor task sets as a slice.
    pub fn as_slice(&self) -> &[TaskSet] {
        &self.processors
    }

    /// Finds the processor a task landed on.
    pub fn processor_of(&self, id: TaskId) -> Option<usize> {
        self.processors.iter().position(|p| p.get(id).is_some())
    }

    /// Per-processor utilization summaries.
    pub fn utilizations(&self) -> Vec<SystemUtilization> {
        self.processors
            .iter()
            .map(TaskSet::system_utilization)
            .collect()
    }

    /// The largest per-processor utilization difference
    /// `max_k {U_H^H(φk) − U_H^L(φk)}` — the quantity UDP minimises.
    pub fn max_utilization_difference(&self) -> f64 {
        self.processors
            .iter()
            .map(TaskSet::utilization_difference)
            .fold(0.0, f64::max)
    }

    /// The spread (max − min) of the per-processor utilization
    /// differences; smaller means better balanced.
    pub fn utilization_difference_spread(&self) -> f64 {
        let diffs: Vec<f64> = self
            .processors
            .iter()
            .map(TaskSet::utilization_difference)
            .collect();
        let max = diffs.iter().copied().fold(f64::MIN, f64::max);
        let min = diffs.iter().copied().fold(f64::MAX, f64::min);
        if diffs.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// Total number of tasks across all processors.
    pub fn task_count(&self) -> usize {
        self.processors.iter().map(TaskSet::len).sum()
    }
}

/// The placement step shared by [`Partition::build_reporting_in`] and
/// [`ClusterSession`](crate::ClusterSession): the first processor, in the
/// task's fit order over the cached `summaries`, whose state admits
/// `task`. `order` is reused scratch; nothing is committed.
pub(crate) fn place<'a>(
    strategy: &PartitionStrategy,
    task: &Task,
    states: &mut [Box<dyn AdmissionState + 'a>],
    summaries: &[SystemUtilization],
    order: &mut Vec<usize>,
) -> Option<usize> {
    strategy
        .fit_for(task)
        .processor_order_by_summary_into(summaries, order);
    order.iter().copied().find(|&k| states[k].try_admit(task))
}

/// Admission counters summed over per-processor states.
pub(crate) fn total_stats<'a>(states: &[Box<dyn AdmissionState + 'a>]) -> AdmissionStats {
    let mut total = AdmissionStats::default();
    for s in states {
        total.merge(&s.stats());
    }
    total
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, p) in self.processors.iter().enumerate() {
            let u = p.system_utilization();
            writeln!(
                f,
                "φ{}: {} tasks  U_LL={:.3} U_HL={:.3} U_HH={:.3} diff={:.3}",
                k + 1,
                p.len(),
                u.u_ll,
                u.u_hl,
                u.u_hh,
                u.difference()
            )?;
            for t in p {
                writeln!(f, "    {t}")?;
            }
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Partition {
    type Item = &'a TaskSet;
    type IntoIter = std::slice::Iter<'a, TaskSet>;
    fn into_iter(self) -> Self::IntoIter {
        self.processors.iter()
    }
}

/// Convenience: checks whether every processor of a partition passes a
/// (possibly different) schedulability test — used by tests to
/// cross-validate a partition built under one test against another.
pub fn verify_partition(partition: &Partition, test: &dyn SchedulabilityTest) -> bool {
    partition.iter().all(|p| test.is_schedulable(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use mcsched_analysis::EdfVd;

    fn small_set() -> TaskSet {
        TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 5).unwrap(),
            Task::hi(1, 20, 4, 9).unwrap(),
            Task::lo(2, 10, 4).unwrap(),
            Task::lo(3, 25, 5).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn builds_and_accounts_for_all_tasks() {
        let p = Partition::build(&presets::ca_udp(), &EdfVd::new(), &small_set(), 2).unwrap();
        assert_eq!(p.processor_count(), 2);
        assert_eq!(p.task_count(), 4);
        for id in 0..4 {
            assert!(p.processor_of(TaskId(id)).is_some(), "τ{id} missing");
        }
    }

    #[test]
    fn every_processor_passes_the_test() {
        let test = EdfVd::new();
        let p = Partition::build(&presets::cu_udp(), &test, &small_set(), 2).unwrap();
        assert!(verify_partition(&p, &test));
    }

    #[test]
    fn impossible_set_fails_with_named_task() {
        // Three tasks of u^H = 0.9 cannot fit on 2 processors.
        let ts = TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 5, 9).unwrap(),
            Task::hi(1, 10, 5, 9).unwrap(),
            Task::hi(2, 10, 5, 9).unwrap(),
        ])
        .unwrap();
        let err = Partition::build(&presets::ca_udp(), &EdfVd::new(), &ts, 2).unwrap_err();
        assert_eq!(err.processors, 2);
        assert_eq!(err.placed, 2);
        // Each processor held exactly one of the two placed tasks when the
        // third was rejected.
        assert_eq!(err.processor_loads, vec![1, 1]);
        let msg = err.to_string();
        assert!(msg.contains("could not be allocated"));
        assert!(msg.contains("per-processor loads: 1/1"));
    }

    #[test]
    fn build_reporting_counts_admissions() {
        let ws = WorkspaceRef::new();
        let (p, stats) =
            Partition::build_reporting_in(&presets::ca_udp(), &EdfVd::new(), &small_set(), 2, &ws);
        let p = p.unwrap();
        assert_eq!(p.task_count(), 4);
        assert_eq!(stats.admits, 4);
        assert!(stats.attempts >= stats.admits);
        // EDF-VD admissions are all O(1) incremental.
        assert_eq!(stats.incremental, stats.attempts);
        assert_eq!(stats.full, 0);
    }

    #[test]
    fn incremental_build_matches_one_shot_bridge() {
        use mcsched_oracle::OneShot;
        let ts = small_set();
        for strategy in presets::all() {
            for m in 1..=3 {
                let fast = Partition::build(&strategy, &EdfVd::new(), &ts, m);
                let slow = Partition::build(&strategy, &OneShot(EdfVd::new()), &ts, m);
                assert_eq!(fast, slow, "{} m={m}", strategy.name());
            }
        }
    }

    #[test]
    fn single_processor_degenerates_to_uniprocessor_test() {
        let ts = small_set();
        let test = EdfVd::new();
        let ok = Partition::build(&presets::ca_udp(), &test, &ts, 1);
        assert_eq!(ok.is_ok(), test.is_schedulable(&ts));
    }

    #[test]
    fn empty_set_on_any_processors() {
        let p = Partition::build(&presets::cu_udp(), &EdfVd::new(), &TaskSet::new(), 3).unwrap();
        assert_eq!(p.task_count(), 0);
        assert_eq!(p.processor_count(), 3);
        assert_eq!(p.max_utilization_difference(), 0.0);
    }

    #[test]
    fn udp_balances_difference_better_than_hi_worst_fit() {
        // Five HC tasks chosen so that after the first three placements
        // the min-difference processor and the min-U_H^H processor differ:
        // UDP ends with per-processor differences (0.40, 0.39), CA-Wu-F
        // with (0.39, 0.35) — a larger spread.
        let ts = TaskSet::try_from_tasks(vec![
            Task::hi(0, 100, 30, 60).unwrap(), // diff .30
            Task::hi(1, 100, 10, 35).unwrap(), // diff .25
            Task::hi(2, 100, 15, 20).unwrap(), // diff .05
            Task::hi(3, 100, 5, 15).unwrap(),  // diff .10
            Task::hi(4, 100, 2, 11).unwrap(),  // diff .09
        ])
        .unwrap();
        let test = EdfVd::new();
        let udp = Partition::build(&presets::ca_udp(), &test, &ts, 2).unwrap();
        let wu = Partition::build(&presets::ca_wu_f(), &test, &ts, 2).unwrap();
        // UDP never balances the difference worse than the U_H^H rule on
        // this instance (the statistically strict version of this claim is
        // exercised over thousands of sets by the ablation harness).
        assert!(
            udp.utilization_difference_spread() <= wu.utilization_difference_spread() + 1e-9,
            "UDP spread {} vs CA-Wu-F spread {}",
            udp.utilization_difference_spread(),
            wu.utilization_difference_spread()
        );
        // The allocations genuinely differ: τ3 lands with τ0 under UDP and
        // with τ1, τ2 under CA-Wu-F.
        assert_eq!(udp.processor_of(TaskId(3)), udp.processor_of(TaskId(0)));
        assert_eq!(wu.processor_of(TaskId(3)), wu.processor_of(TaskId(1)));
    }

    #[test]
    fn display_shows_processors() {
        let p = Partition::build(&presets::ca_udp(), &EdfVd::new(), &small_set(), 2).unwrap();
        let s = p.to_string();
        assert!(s.contains("φ1:"));
        assert!(s.contains("φ2:"));
        assert!(s.contains("diff="));
    }

    #[test]
    fn accessors() {
        let p = Partition::build(&presets::ca_udp(), &EdfVd::new(), &small_set(), 2).unwrap();
        assert!(p.processor(0).is_some());
        assert!(p.processor(5).is_none());
        assert_eq!(p.utilizations().len(), 2);
        assert_eq!(p.as_slice().len(), 2);
        assert_eq!((&p).into_iter().count(), 2);
        assert!(p.processor_of(TaskId(99)).is_none());
    }
}
