// mclint: hot-path
//! The **incremental admission layer**: stateful per-processor
//! schedulability instead of clone-and-retest.
//!
//! The paper's Algorithm 1 asks, for every `(task, processor)` pair, "does
//! `τ(φk) ∪ {τi}` pass the uniprocessor test?". The one-shot
//! [`is_schedulable`](crate::SchedulabilityTest::is_schedulable) answers
//! that by analysing the whole candidate set from scratch — O(n·m) full
//! analyses per partitioning run. An [`AdmissionState`] instead *remembers* the
//! processor's committed contents and the reusable intermediate results of
//! the last analysis, so each admission query costs only the work the new
//! task actually adds.
//!
//! Two traits make up the layer:
//! [`SchedulabilityTest`](crate::SchedulabilityTest) creates states
//! through its one (required) constructor,
//! [`admission_state_in`](crate::SchedulabilityTest::admission_state_in),
//! and [`AdmissionState`] answers the queries. Each of the five tests returns
//! its own state type:
//!
//! * [`EdfVd`](crate::EdfVd) keeps the running `(U_LL, U_HL, U_HH)` density
//!   sums and evaluates the closed-form condition in **O(1)**;
//! * [`Ey`](crate::Ey) / [`Ecdf`](crate::Ecdf) keep a warm
//!   [`DemandKernel`](crate::DemandKernel) of the committed tasks: its
//!   running utilization sums reject overloaded candidates in O(1); an
//!   LC candidate that fits the committed set's own tuning is admitted
//!   by one low-mode check; any other candidate is pushed, judged by
//!   the same virtual-deadline search the one-shot tests run, and
//!   popped, so the kernel's demand memos carry from probe to probe;
//! * [`AmcRtb`](crate::AmcRtb) / [`AmcMax`](crate::AmcMax) keep the
//!   deadline-monotonic order and every response-time fixed point: tasks
//!   with priority above the inserted task are reused verbatim, the rest
//!   warm-start their fixed-point iteration from the previous response.
//!
//! **Equivalence guarantee.** Every state is *exactly* equivalent to the
//! one-shot test on the union of committed tasks plus the candidate — same
//! verdict, bit-identical floating-point sums (running sums accumulate in
//! the same insertion order a fresh recomputation would use, via
//! [`SystemUtilization::accumulate`]), identical integer fixed points
//! (warm starts below the least fixed point converge to the same least
//! fixed point). Incremental partitioning therefore reproduces the
//! clone-and-retest partitions **bit-identically**; the property tests in
//! `tests/incremental_equivalence.rs` enforce this for all five tests
//! against the clone-and-retest reference of the test-support crate
//! `mcsched-oracle` (`OneShot`, whose states re-run the one-shot test on
//! every query).
//!
//! ## Example
//!
//! ```
//! use mcsched_model::{Task, TaskSet};
//! use mcsched_analysis::{EdfVd, SchedulabilityTest, WorkspaceRef};
//!
//! # fn main() -> Result<(), mcsched_model::ModelError> {
//! let test = EdfVd::new();
//! let mut state = test.admission_state_in(&WorkspaceRef::new());
//!
//! let heavy = Task::hi(0, 10, 3, 9)?;
//! let light = Task::lo(1, 10, 1)?;
//!
//! assert!(state.try_admit(&heavy)); // O(1): running sums + closed form
//! state.commit(heavy);
//! assert!(state.try_admit(&light));
//! state.commit(light);
//!
//! // The cached summary matches a fresh recomputation bit-for-bit.
//! let u = state.summary();
//! assert_eq!(u.u_hh, state.tasks().system_utilization().u_hh);
//!
//! // Admission is exactly the one-shot test on the union.
//! let too_much = Task::lo(2, 10, 4)?;
//! let mut union = state.tasks().clone();
//! union.push_unchecked(too_much);
//! assert_eq!(state.try_admit(&too_much), test.is_schedulable(&union));
//! # Ok(())
//! # }
//! ```

use mcsched_model::{SystemUtilization, Task, TaskId, TaskSet};
use std::fmt;

/// Counters describing how a partitioning run exercised the admission
/// layer. Aggregated per build by `mcsched-core` and surfaced by
/// `mcsched-exp ablation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Admission queries ([`AdmissionState::try_admit`] calls).
    pub attempts: u64,
    /// Queries that answered "admit".
    pub admits: u64,
    /// Queries answered from cached incremental state (O(1) closed forms,
    /// warm-started fixed points, cached prefixes, the EY / ECDF
    /// committed tuning).
    pub incremental: u64,
    /// Queries that fell back to a full from-scratch re-analysis (a
    /// state whose cache was invalidated, or a clone-and-retest
    /// reference state).
    pub full: u64,
    /// QPA descents the demand kernel started cold from the busy-window
    /// bound (EY / ECDF states; zero for the other tests).
    pub qpa_cold: u64,
    /// QPA fixpoints the demand kernel answered warm: resumed from the
    /// previous violation point, or an `Ok` re-confirmed because demand
    /// only tightened since the last check.
    pub qpa_resumed: u64,
    /// Low-mode feasibility checks the demand kernel rejected from a
    /// memoised violation anchor, with no descent at all.
    pub qpa_anchor_hits: u64,
    /// Response-time fixpoints the AMC admission layer seeded from a
    /// cached sound lower bound instead of iterating from the task's own
    /// budget (warm-started suffix fixpoints of incremental probes; zero
    /// for the non-AMC tests).
    pub rta_seeded: u64,
}

impl AdmissionStats {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &AdmissionStats) {
        self.attempts += other.attempts;
        self.admits += other.admits;
        self.incremental += other.incremental;
        self.full += other.full;
        self.qpa_cold += other.qpa_cold;
        self.qpa_resumed += other.qpa_resumed;
        self.qpa_anchor_hits += other.qpa_anchor_hits;
        self.rta_seeded += other.rta_seeded;
    }
}

impl fmt::Display for AdmissionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} attempts, {} admits, {} incremental / {} full analyses",
            self.attempts, self.admits, self.incremental, self.full
        )?;
        if self.qpa_cold + self.qpa_resumed + self.qpa_anchor_hits > 0 {
            write!(
                f,
                ", QPA {} cold / {} resumed / {} anchor-rejected",
                self.qpa_cold, self.qpa_resumed, self.qpa_anchor_hits
            )?;
        }
        if self.rta_seeded > 0 {
            write!(f, ", {} RTA fixpoints warm-seeded", self.rta_seeded)?;
        }
        Ok(())
    }
}

/// Stateful per-processor admission: the committed contents of one
/// processor plus whatever cached analysis state the test maintains.
///
/// The contract mirrors the partitioning inner loop:
///
/// 1. [`try_admit`](AdmissionState::try_admit) answers whether the
///    committed tasks plus the candidate pass the test — **exactly** the
///    verdict the one-shot test would give on that union — without
///    mutating the committed contents;
/// 2. [`commit`](AdmissionState::commit) appends a task (reusing the
///    analysis computed by an immediately preceding successful
///    `try_admit` of the same task, and re-analysing otherwise);
/// 3. [`remove`](AdmissionState::remove) takes a task back out,
///    invalidating whatever cached state depended on it.
///
/// Each test creates its own state type through
/// [`SchedulabilityTest::admission_state_in`](crate::SchedulabilityTest::admission_state_in).
///
/// # Example
///
/// ```
/// use mcsched_model::Task;
/// use mcsched_analysis::{AmcMax, SchedulabilityTest, WorkspaceRef};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let test = AmcMax::new();
/// let mut state = test.admission_state_in(&WorkspaceRef::new());
/// let t = Task::hi(0, 10, 2, 4)?;
/// assert!(state.try_admit(&t));
/// state.commit(t);
/// assert_eq!(state.tasks().len(), 1);
/// assert!(state.remove(t.id()));
/// assert!(state.tasks().is_empty());
/// # Ok(())
/// # }
/// ```
pub trait AdmissionState {
    /// Would the committed tasks plus `task` pass the test?
    ///
    /// Exactly equivalent to running the one-shot test on the union; does
    /// not change the committed contents.
    fn try_admit(&mut self, task: &Task) -> bool;

    /// Commits `task` to the processor.
    ///
    /// Cheap when it follows a successful [`try_admit`](Self::try_admit)
    /// of the same task (the analysis is reused); otherwise the cached
    /// state is rebuilt from scratch.
    fn commit(&mut self, task: Task);

    /// Removes the committed task with `id`; returns `false` if absent.
    fn remove(&mut self, id: TaskId) -> bool;

    /// The cached utilization triple of the committed tasks —
    /// bit-identical to `self.tasks().system_utilization()`.
    fn summary(&self) -> SystemUtilization;

    /// The committed tasks.
    fn tasks(&self) -> &TaskSet;

    /// Takes the committed tasks out, leaving the state empty.
    fn take_tasks(&mut self) -> TaskSet;

    /// Counters accumulated since the state was created.
    fn stats(&self) -> AdmissionStats;
}

/// The committed contents shared by every admission state: the task set,
/// its running utilization summary and the admission counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct Committed {
    pub(crate) tasks: TaskSet,
    pub(crate) summary: SystemUtilization,
    pub(crate) stats: AdmissionStats,
}

impl Committed {
    /// Appends a task, keeping the summary in sync (accumulated in
    /// insertion order, hence bit-identical to a recomputation).
    pub(crate) fn push(&mut self, task: Task) {
        self.summary.accumulate(&task);
        self.tasks.push_unchecked(task);
    }

    /// Removes a task and recomputes the summary from scratch (exact
    /// floating-point subtraction is not available).
    pub(crate) fn remove(&mut self, id: TaskId) -> Option<Task> {
        let task = self.tasks.remove(id)?;
        self.summary = self.tasks.system_utilization();
        Some(task)
    }

    /// Records one admission query in the counters.
    pub(crate) fn record(&mut self, incremental: bool, admitted: bool) {
        self.stats.attempts += 1;
        if incremental {
            self.stats.incremental += 1;
        } else {
            self.stats.full += 1;
        }
        if admitted {
            self.stats.admits += 1;
        }
    }

    /// Takes the tasks out, resetting the summary.
    pub(crate) fn take(&mut self) -> TaskSet {
        self.summary = SystemUtilization::default();
        std::mem::take(&mut self.tasks)
    }
}

/// Runs the one-shot test on `committed ∪ {task}` — the seed
/// clone-and-retest admission every incremental state must agree with.
#[cfg(test)]
pub(crate) fn clone_and_retest<T: crate::SchedulabilityTest + ?Sized>(
    test: &T,
    committed: &TaskSet,
    task: &Task,
) -> bool {
    let mut candidate = committed.clone();
    candidate.push_unchecked(*task);
    test.is_schedulable(&candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AmcMax, AmcRtb, Ecdf, EdfVd, Ey, SchedulabilityTest, WorkspaceRef};

    fn hi(id: u32, t: u64, cl: u64, ch: u64) -> Task {
        Task::hi(id, t, cl, ch).unwrap()
    }
    fn lo(id: u32, t: u64, c: u64) -> Task {
        Task::lo(id, t, c).unwrap()
    }

    /// Drives a state through admit/commit/reject/remove/take and checks
    /// it agrees with the one-shot test at every step, then reuses the
    /// emptied state and checks it answers exactly like a fresh one.
    fn exercise_state(test: &dyn SchedulabilityTest) {
        let ws = WorkspaceRef::new();
        let mut state = test.admission_state_in(&ws);
        let tasks = vec![hi(0, 10, 2, 4), lo(1, 20, 6), hi(2, 25, 3, 8), lo(3, 10, 3)];
        for t in &tasks {
            let expected = clone_and_retest(test, state.tasks(), t);
            assert_eq!(state.try_admit(t), expected, "{} on {t}", test.name());
            if expected {
                state.commit(*t);
            }
        }
        // Summary stays bit-identical to a recomputation.
        let fresh = state.tasks().system_utilization();
        let cached = state.summary();
        assert_eq!(cached.u_ll.to_bits(), fresh.u_ll.to_bits());
        assert_eq!(cached.u_hl.to_bits(), fresh.u_hl.to_bits());
        assert_eq!(cached.u_hh.to_bits(), fresh.u_hh.to_bits());
        // Remove one and keep agreeing.
        if let Some(first) = state.tasks().iter().next().copied() {
            assert!(state.remove(first.id()));
            assert!(!state.remove(first.id()));
            let again = clone_and_retest(test, state.tasks(), &first);
            assert_eq!(state.try_admit(&first), again);
        }
        let stats = state.stats();
        assert!(stats.attempts >= tasks.len() as u64);
        assert!(stats.admits <= stats.attempts);
        let n = state.tasks().len();
        assert_eq!(state.take_tasks().len(), n);
        assert!(state.tasks().is_empty());
        assert_eq!(state.summary(), SystemUtilization::default());
        // An emptied state is as good as a fresh one.
        let mut fresh = test.admission_state_in(&ws);
        for t in tasks.iter().chain(&[hi(7, 40, 5, 9)]) {
            let expected = fresh.try_admit(t);
            assert_eq!(
                state.try_admit(t),
                expected,
                "{} after take_tasks on {t}",
                test.name()
            );
            assert_eq!(expected, clone_and_retest(test, fresh.tasks(), t));
            if expected {
                state.commit(*t);
                fresh.commit(*t);
            }
        }
        assert_eq!(state.tasks(), fresh.tasks());
    }

    #[test]
    fn every_test_agrees_with_its_one_shot() {
        let tests: Vec<Box<dyn SchedulabilityTest>> = vec![
            Box::new(EdfVd::new()),
            Box::new(Ey::new()),
            Box::new(Ecdf::new()),
            Box::new(AmcRtb::new()),
            Box::new(AmcMax::new()),
        ];
        for t in &tests {
            exercise_state(t.as_ref());
        }
    }

    #[test]
    fn stats_merge_and_display() {
        let mut a = AdmissionStats {
            attempts: 3,
            admits: 2,
            incremental: 1,
            full: 2,
            ..AdmissionStats::default()
        };
        let b = AdmissionStats {
            attempts: 1,
            admits: 0,
            incremental: 1,
            full: 0,
            qpa_cold: 5,
            qpa_resumed: 3,
            qpa_anchor_hits: 2,
            rta_seeded: 7,
        };
        a.merge(&b);
        assert_eq!(a.attempts, 4);
        assert_eq!(a.admits, 2);
        assert_eq!(a.incremental, 2);
        assert_eq!(a.full, 2);
        assert_eq!(a.qpa_cold, 5);
        assert_eq!(a.qpa_resumed, 3);
        assert_eq!(a.qpa_anchor_hits, 2);
        assert_eq!(a.rta_seeded, 7);
        let s = a.to_string();
        assert!(s.contains("4 attempts"));
        assert!(s.contains("2 incremental"));
        assert!(s.contains("3 resumed"));
        assert!(s.contains("7 RTA fixpoints warm-seeded"));
        // Zero QPA / RTA counters stay out of the short display.
        let plain = AdmissionStats {
            attempts: 1,
            ..AdmissionStats::default()
        };
        assert!(!plain.to_string().contains("QPA"));
        assert!(!plain.to_string().contains("RTA"));
    }
}
