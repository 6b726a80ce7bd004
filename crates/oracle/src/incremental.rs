//! The clone-and-retest reference for the incremental admission layer of
//! `mcsched_analysis::incremental`.
//!
//! A [`CloneRetestState`] answers every admission query the way the
//! paper's Algorithm 1 states it: clone the committed set, append the
//! candidate, re-run the one-shot test. It shares nothing with the native
//! states but the public [`AdmissionState`] trait and the model types, so
//! the equivalence suites, the session oracles and the service's chaos
//! soak hold the native states against it. [`OneShot`] wraps any test
//! so that a partitioner builds its states this way.

use mcsched_analysis::{AdmissionState, AdmissionStats, SchedulabilityTest, WorkspaceRef};
use mcsched_model::{SystemUtilization, Task, TaskId, TaskSet};

/// The clone-and-retest [`AdmissionState`]: one full one-shot analysis
/// of `committed ∪ {candidate}` per query.
///
/// Over a `'static` test (such as `mcsched_core`'s `TestName::test`) the
/// state is `'static` too, so a session can hold clone-and-retest
/// mirrors of its native states.
pub struct CloneRetestState<'a, T: SchedulabilityTest + ?Sized> {
    test: &'a T,
    tasks: TaskSet,
    summary: SystemUtilization,
    stats: AdmissionStats,
}

impl<'a, T: SchedulabilityTest + ?Sized> CloneRetestState<'a, T> {
    /// Creates an empty state that re-tests through `test`.
    pub fn new(test: &'a T) -> Self {
        CloneRetestState {
            test,
            tasks: TaskSet::new(),
            summary: SystemUtilization::default(),
            stats: AdmissionStats::default(),
        }
    }
}

impl<T: SchedulabilityTest + ?Sized> AdmissionState for CloneRetestState<'_, T> {
    fn try_admit(&mut self, task: &Task) -> bool {
        let mut candidate = self.tasks.clone();
        candidate.push_unchecked(*task);
        let ok = self.test.is_schedulable(&candidate);
        self.stats.attempts += 1;
        self.stats.full += 1;
        self.stats.admits += u64::from(ok);
        ok
    }

    fn commit(&mut self, task: Task) {
        // Accumulated in insertion order, hence bit-identical to a
        // recomputation.
        self.summary.accumulate(&task);
        self.tasks.push_unchecked(task);
    }

    fn remove(&mut self, id: TaskId) -> bool {
        let removed = self.tasks.remove(id).is_some();
        if removed {
            self.summary = self.tasks.system_utilization();
        }
        removed
    }

    fn summary(&self) -> SystemUtilization {
        self.summary
    }

    fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    fn take_tasks(&mut self) -> TaskSet {
        self.summary = SystemUtilization::default();
        std::mem::take(&mut self.tasks)
    }

    fn stats(&self) -> AdmissionStats {
        self.stats
    }
}

/// Wraps any one-shot test so that its admission states are
/// [`CloneRetestState`]s, even when the inner test has a native state.
///
/// `OneShot(test)` forwards [`name`](SchedulabilityTest::name) and
/// [`is_schedulable`](SchedulabilityTest::is_schedulable); the
/// equivalence suites build partitions through it and compare them with
/// the native ones.
///
/// # Example
///
/// ```
/// use mcsched_analysis::{EdfVd, SchedulabilityTest, WorkspaceRef};
/// use mcsched_model::Task;
/// use mcsched_oracle::OneShot;
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let (native, reference) = (EdfVd::new(), OneShot(EdfVd::new()));
/// assert_eq!(reference.name(), "EDF-VD");
/// let ws = WorkspaceRef::new();
/// let mut fast = native.admission_state_in(&ws);
/// let mut slow = reference.admission_state_in(&ws);
/// let t = Task::hi(0, 10, 2, 5)?;
/// assert_eq!(fast.try_admit(&t), slow.try_admit(&t));
/// assert_eq!(slow.stats().full, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OneShot<T>(pub T);

impl<T: SchedulabilityTest> SchedulabilityTest for OneShot<T> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn is_schedulable(&self, ts: &TaskSet) -> bool {
        self.0.is_schedulable(ts)
    }

    fn admission_state_in(&self, _ws: &WorkspaceRef) -> Box<dyn AdmissionState + '_> {
        Box::new(CloneRetestState::new(&self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_analysis::EdfVd;

    fn lo(id: u32, t: u64, c: u64) -> Task {
        Task::lo(id, t, c).unwrap()
    }

    #[test]
    fn bridge_state_counts_full_analyses() {
        let test = OneShot(EdfVd::new());
        let mut state = test.admission_state_in(&WorkspaceRef::new());
        assert!(state.try_admit(&lo(0, 10, 1)));
        state.commit(lo(0, 10, 1));
        assert!(!state.try_admit(&lo(1, 10, 10)));
        let stats = state.stats();
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.admits, 1);
        assert_eq!(stats.full, 2);
        assert_eq!(stats.incremental, 0);
    }
}
