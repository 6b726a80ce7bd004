//! A **live cluster**: the partitioning inner loop kept warm across
//! requests, for admission control as a service.
//!
//! [`Partition::build`](crate::Partition::build) packs one frozen task
//! set and throws its per-processor admission states away. A
//! [`ClusterSession`] keeps those states alive so a stream of
//! `admit` / `remove` / `query` operations against a persistent
//! `m`-processor cluster is answered incrementally — O(1) closed forms,
//! warm QPA resumes and cached response-time fixpoints instead of a cold
//! re-analysis per request.
//!
//! Placement is *exactly* the build loop's: the task's fit rule orders
//! processors by their cached utilization summaries, and the first
//! processor whose admission state accepts the union receives the task.
//! Every verdict is therefore bit-identical to what the one-shot test
//! would say on that processor's committed set plus the candidate (the
//! admission layer's equivalence guarantee), which the session-lifecycle
//! oracle tests pin against a clone-and-retest mirror.
//!
//! # Example
//!
//! ```
//! use mcsched_core::AlgorithmRegistry;
//! use mcsched_model::{Task, TaskId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = AlgorithmRegistry::standard();
//! let mut cluster = registry.open_session("CU-UDP-EDF-VD", 2)?;
//!
//! let placed = cluster.admit(Task::hi(0, 10, 2, 4)?);
//! assert!(placed.is_ok());
//! cluster.admit(Task::lo(1, 20, 6)?).unwrap();
//! assert_eq!(cluster.task_count(), 2);
//!
//! // A probe answers "would this fit?" without committing anything.
//! assert!(cluster.probe(&Task::lo(2, 20, 1)?).is_some());
//! assert_eq!(cluster.task_count(), 2);
//!
//! // Departures free capacity on the exact processor the task held.
//! assert!(cluster.remove(TaskId(0)).is_some());
//! assert_eq!(cluster.task_count(), 1);
//! # Ok(())
//! # }
//! ```

use crate::strategy::PartitionStrategy;
use mcsched_analysis::{AdmissionState, AdmissionStats};
use mcsched_model::{SystemUtilization, Task, TaskId, TaskSet};
use std::error::Error;
use std::fmt;

/// Why a [`ClusterSession::admit`] did not place the task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// A committed task already uses this id; admit it under a fresh id
    /// or remove the old task first.
    DuplicateId(TaskId),
    /// No processor's schedulability test accepted the union; the cluster
    /// is unchanged. Carries each processor's task count at rejection
    /// time, mirroring [`PartitionError`](crate::PartitionError).
    Unschedulable {
        /// The rejected task's id.
        task: TaskId,
        /// Tasks held per processor when the admission failed.
        processor_loads: Vec<usize>,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::DuplicateId(id) => {
                write!(f, "task {id} is already committed to this cluster")
            }
            AdmitError::Unschedulable {
                task,
                processor_loads,
            } => {
                write!(
                    f,
                    "task {task} not schedulable on any of {} processors (loads: ",
                    processor_loads.len()
                )?;
                for (k, load) in processor_loads.iter().enumerate() {
                    if k > 0 {
                        write!(f, "/")?;
                    }
                    write!(f, "{load}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl Error for AdmitError {}

/// A persistent `m`-processor cluster with live per-processor admission
/// states (see the [module docs](self)).
///
/// Created by [`AlgorithmSpec::open_cluster`](crate::AlgorithmSpec::open_cluster),
/// [`AlgorithmRegistry::open_session`](crate::AlgorithmRegistry::open_session)
/// or [`ClusterSession::from_states`].
/// The states share one analysis workspace, so steady-state admissions
/// allocate nothing; the session is single-threaded by construction
/// (states hold `Rc` scratch handles) — a service runs one session per
/// connection worker.
pub struct ClusterSession {
    name: String,
    strategy: PartitionStrategy,
    states: Vec<Box<dyn AdmissionState>>,
    summaries: Vec<SystemUtilization>,
    /// Scratch for fit-rule processor ordering (reused across requests).
    order: Vec<usize>,
    /// Where each committed task lives: `(id, processor)` in admission
    /// order. Authoritative for `remove` without scanning every state.
    placements: Vec<(TaskId, usize)>,
}

impl ClusterSession {
    /// Assembles a session over `states`, one fresh admission state per
    /// processor, placed by `strategy`'s fit rules.
    ///
    /// [`AlgorithmSpec::open_cluster`](crate::AlgorithmSpec::open_cluster)
    /// passes the test's native states. Passing the clone-and-retest
    /// states of the test-support crate `mcsched-oracle`
    /// (`CloneRetestState` over [`TestName::test`](crate::TestName::test))
    /// instead builds a clone-and-retest mirror of that session, the
    /// oracle for bit-identical equivalence checks.
    pub fn from_states(
        name: impl Into<String>,
        strategy: PartitionStrategy,
        states: Vec<Box<dyn AdmissionState>>,
    ) -> Self {
        let m = states.len();
        ClusterSession {
            name: name.into(),
            strategy,
            states,
            summaries: vec![SystemUtilization::default(); m],
            order: Vec::with_capacity(m),
            placements: Vec::new(),
        }
    }

    /// The algorithm display name (e.g. `"CU-UDP-EDF-VD"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The processor count `m`.
    pub fn processor_count(&self) -> usize {
        self.states.len()
    }

    /// Committed tasks across all processors.
    pub fn task_count(&self) -> usize {
        self.placements.len()
    }

    /// The processor currently holding `id`.
    pub fn processor_of(&self, id: TaskId) -> Option<usize> {
        self.placements
            .iter()
            .find_map(|&(tid, k)| (tid == id).then_some(k))
    }

    /// The committed task set of processor `k`.
    pub fn processor(&self, k: usize) -> Option<&TaskSet> {
        self.states.get(k).map(|s| s.tasks())
    }

    /// The cached per-processor utilization summaries (bit-identical to
    /// recomputing from the committed sets).
    pub fn summaries(&self) -> &[SystemUtilization] {
        &self.summaries
    }

    /// Aggregated admission counters across all processors.
    pub fn stats(&self) -> AdmissionStats {
        let mut total = AdmissionStats::default();
        for s in &self.states {
            total.merge(&s.stats());
        }
        total
    }

    /// Task ids per processor — the session's partition witness.
    pub fn snapshot(&self) -> Vec<Vec<TaskId>> {
        self.states
            .iter()
            .map(|s| s.tasks().iter().map(Task::id).collect())
            .collect()
    }

    /// All committed tasks as one set (admission order within each
    /// processor, processors in index order) — the "surviving task set"
    /// the lifecycle oracle replays.
    pub fn committed_tasks(&self) -> TaskSet {
        let mut ts = TaskSet::with_capacity(self.task_count());
        for s in &self.states {
            for t in s.tasks() {
                ts.push_unchecked(*t);
            }
        }
        ts
    }

    /// The processor order the task's fit rule would try right now.
    fn fit_order(&mut self, task: &Task) -> &[usize] {
        self.strategy
            .fit_for(task)
            .processor_order_by_summary_into(&self.summaries, &mut self.order);
        &self.order
    }

    /// Admits `task` onto the first processor (in the task's fit order)
    /// whose test accepts the union, committing it there and returning
    /// the processor index.
    ///
    /// # Errors
    ///
    /// [`AdmitError::DuplicateId`] if the id is already committed (the
    /// cluster is unchanged), [`AdmitError::Unschedulable`] if every
    /// processor rejects the union (likewise unchanged).
    pub fn admit(&mut self, task: Task) -> Result<usize, AdmitError> {
        if self.processor_of(task.id()).is_some() {
            return Err(AdmitError::DuplicateId(task.id()));
        }
        self.fit_order(&task);
        for idx in 0..self.order.len() {
            let k = self.order[idx];
            if self.states[k].try_admit(&task) {
                let id = task.id();
                self.states[k].commit(task);
                self.summaries[k] = self.states[k].summary();
                self.placements.push((id, k));
                return Ok(k);
            }
        }
        Err(AdmitError::Unschedulable {
            task: task.id(),
            processor_loads: self.states.iter().map(|s| s.tasks().len()).collect(),
        })
    }

    /// Force-places `task` on `processor` **without consulting the
    /// admission test** — the journal-replay path. Recovery replays
    /// placements a live session already proved admissible, in commit
    /// order, so the rebuilt states and summaries are bit-identical to
    /// the pre-crash session (summaries accumulate in the same insertion
    /// order). Returns `false` (cluster unchanged) on a duplicate id or
    /// an out-of-range processor — a corrupt journal row, which the
    /// caller reports rather than replays.
    pub fn restore(&mut self, task: Task, processor: usize) -> bool {
        if self.processor_of(task.id()).is_some() {
            return false;
        }
        let Some(state) = self.states.get_mut(processor) else {
            return false;
        };
        let id = task.id();
        state.commit(task);
        let summary = state.summary();
        if let Some(slot) = self.summaries.get_mut(processor) {
            *slot = summary;
        }
        self.placements.push((id, processor));
        true
    }

    /// Answers where [`admit`](ClusterSession::admit) *would* place the
    /// task, without committing anything: `Some(processor)` or `None`
    /// (unschedulable everywhere, or the id is already committed).
    pub fn probe(&mut self, task: &Task) -> Option<usize> {
        if self.processor_of(task.id()).is_some() {
            return None;
        }
        self.fit_order(task);
        for idx in 0..self.order.len() {
            let k = self.order[idx];
            if self.states[k].try_admit(task) {
                return Some(k);
            }
        }
        None
    }

    /// Removes the committed task `id`, returning the processor it held.
    /// The processor's cached analysis state is invalidated exactly as
    /// the admission layer specifies; subsequent admissions warm back up.
    pub fn remove(&mut self, id: TaskId) -> Option<usize> {
        let pos = self.placements.iter().position(|&(tid, _)| tid == id)?;
        let (_, k) = self.placements.swap_remove(pos);
        let removed = self.states[k].remove(id);
        debug_assert!(removed, "placement table out of sync with state {k}");
        self.summaries[k] = self.states[k].summary();
        Some(k)
    }
}

impl fmt::Debug for ClusterSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterSession")
            .field("name", &self.name)
            .field("processors", &self.states.len())
            .field("tasks", &self.placements.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{AlgorithmRegistry, TestName};
    use crate::{presets, AlgorithmSpec};
    use mcsched_oracle::CloneRetestState;

    fn hi(id: u32, t: u64, cl: u64, ch: u64) -> Task {
        Task::hi(id, t, cl, ch).unwrap()
    }
    fn lo(id: u32, t: u64, c: u64) -> Task {
        Task::lo(id, t, c).unwrap()
    }

    fn session(name: &str, m: usize) -> ClusterSession {
        AlgorithmRegistry::standard().open_session(name, m).unwrap()
    }

    #[test]
    fn admit_places_and_accounts() {
        let mut c = session("CA-UDP-EDF-VD", 2);
        assert_eq!(c.name(), "CA-UDP-EDF-VD");
        assert_eq!(c.processor_count(), 2);
        let k0 = c.admit(hi(0, 10, 2, 5)).unwrap();
        let k1 = c.admit(hi(1, 10, 2, 5)).unwrap();
        // UDP worst-fit spreads the two HC tasks across processors.
        assert_ne!(k0, k1);
        assert_eq!(c.task_count(), 2);
        assert_eq!(c.processor_of(TaskId(0)), Some(k0));
        assert_eq!(c.processor(k0).unwrap().len(), 1);
        // Summaries track the states bit-for-bit.
        for (k, s) in c.summaries().iter().enumerate() {
            let fresh = c.processor(k).unwrap().system_utilization();
            assert_eq!(s.u_hh.to_bits(), fresh.u_hh.to_bits());
        }
        let stats = c.stats();
        assert_eq!(stats.admits, 2);
    }

    #[test]
    fn duplicate_ids_are_rejected_without_mutation() {
        let mut c = session("CU-UDP-EDF-VD", 2);
        c.admit(lo(3, 10, 1)).unwrap();
        let err = c.admit(lo(3, 20, 1)).unwrap_err();
        assert_eq!(err, AdmitError::DuplicateId(TaskId(3)));
        assert!(err.to_string().contains("already committed"));
        assert_eq!(c.task_count(), 1);
        // Probe of a committed id answers None rather than double-placing.
        assert_eq!(c.probe(&lo(3, 20, 1)), None);
    }

    #[test]
    fn unschedulable_admit_leaves_cluster_unchanged() {
        let mut c = session("CA-UDP-EDF-VD", 2);
        c.admit(hi(0, 10, 5, 9)).unwrap();
        c.admit(hi(1, 10, 5, 9)).unwrap();
        let err = c.admit(hi(2, 10, 5, 9)).unwrap_err();
        match &err {
            AdmitError::Unschedulable {
                task,
                processor_loads,
            } => {
                assert_eq!(*task, TaskId(2));
                assert_eq!(processor_loads, &vec![1, 1]);
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(err.to_string().contains("loads: 1/1"));
        assert_eq!(c.task_count(), 2);
        // The rejected task is also not probeable.
        assert_eq!(c.probe(&hi(2, 10, 5, 9)), None);
    }

    #[test]
    fn probe_matches_admit_without_committing() {
        let mut c = session("CA-UDP-ECDF", 3);
        for t in [hi(0, 10, 2, 4), lo(1, 20, 6), hi(2, 25, 3, 8)] {
            let probed = c.probe(&t);
            let admitted = c.admit(t).ok();
            assert_eq!(probed, admitted, "probe and admit diverged on {t:?}");
        }
        assert_eq!(c.task_count(), 3);
    }

    #[test]
    fn remove_frees_the_right_processor() {
        let mut c = session("CA-UDP-EDF-VD", 2);
        let k0 = c.admit(hi(0, 10, 5, 9)).unwrap();
        let k1 = c.admit(hi(1, 10, 5, 9)).unwrap();
        assert_eq!(c.probe(&hi(2, 10, 5, 9)), None);
        assert_eq!(c.remove(TaskId(0)), Some(k0));
        assert_eq!(c.remove(TaskId(0)), None, "double remove");
        // Capacity is back: the replacement lands on the freed processor.
        let k2 = c.admit(hi(2, 10, 5, 9)).unwrap();
        assert_eq!(k2, k0);
        assert_ne!(k2, k1);
        let snapshot = c.snapshot();
        assert_eq!(snapshot[k1], vec![TaskId(1)]);
        assert_eq!(snapshot[k2], vec![TaskId(2)]);
        let union = c.committed_tasks();
        assert_eq!(union.len(), 2);
        assert!(union.get(TaskId(0)).is_none());
    }

    #[test]
    fn every_processor_always_passes_its_test() {
        // Invariant across a mixed admit/remove sequence, for each test.
        for test in TestName::ALL {
            let spec = AlgorithmSpec::new(presets::ca_udp(), test);
            let mut c = spec.open_cluster(2);
            let one_shot = test.test();
            let tasks = [
                hi(0, 10, 2, 4),
                lo(1, 20, 6),
                hi(2, 25, 3, 8),
                lo(3, 10, 3),
                hi(4, 40, 4, 12),
            ];
            for t in tasks {
                let _ = c.admit(t);
            }
            c.remove(TaskId(1));
            c.remove(TaskId(4));
            let _ = c.admit(lo(5, 15, 2));
            for k in 0..c.processor_count() {
                let set = c.processor(k).unwrap();
                assert!(
                    one_shot.is_schedulable(set),
                    "{}: processor {k} fails its own test after the session",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn open_session_validates_name_and_m() {
        let registry = AlgorithmRegistry::standard();
        assert!(registry.open_session("CU-UDP-RTA", 2).is_err());
        let c = registry.open_session("CU-UDP-AMC", 4).unwrap();
        assert_eq!(c.name(), "CU-UDP-AMC");
        assert_eq!(c.processor_count(), 4);
        assert!(format!("{c:?}").contains("ClusterSession"));
    }

    #[test]
    fn session_matches_clone_retest_mirror() {
        // The service-level guarantee in miniature: a session over native
        // incremental states answers exactly like one over clone-and-retest
        // states, step for step (the full randomized version lives in
        // tests/service_session.rs).
        let registry = AlgorithmRegistry::standard();
        for name in ["CA-UDP-EY", "CU-UDP-AMC-max", "CA-F-F-ECDF"] {
            let spec = registry.spec(name).unwrap();
            let mut fast = spec.open_cluster(2);
            let mut slow = ClusterSession::from_states(
                spec.name(),
                spec.strategy.clone(),
                (0..2)
                    .map(|_| {
                        Box::new(CloneRetestState::new(spec.test.test())) as Box<dyn AdmissionState>
                    })
                    .collect(),
            );
            let tasks = [
                hi(0, 10, 2, 4),
                lo(1, 20, 6),
                hi(2, 25, 3, 8),
                lo(3, 10, 3),
                hi(4, 12, 2, 6),
            ];
            for t in tasks {
                assert_eq!(fast.admit(t), slow.admit(t), "{name}: admit {t:?}");
            }
            fast.remove(TaskId(2));
            slow.remove(TaskId(2));
            let extra = hi(5, 18, 2, 7);
            assert_eq!(fast.probe(&extra), slow.probe(&extra), "{name}: probe");
            assert_eq!(fast.snapshot(), slow.snapshot(), "{name}: snapshot");
        }
    }
}
