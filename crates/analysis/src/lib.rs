//! # mcsched-analysis
//!
//! Uniprocessor mixed-criticality schedulability tests for dual-criticality
//! sporadic task systems, as used by Ramanathan & Easwaran (DATE 2017):
//!
//! * [`EdfVd`] — the utilization-based EDF-VD test of Baruah et al.
//!   (ECRTS 2012), optimal speed-up 4/3 for implicit deadlines.
//! * [`Ey`] — the demand-bound-function test with per-task virtual-deadline
//!   tuning in the style of Ekberg & Yi (ECRTS 2012).
//! * [`Ecdf`] — Easwaran's ECDF test (RTSS 2013), reconstructed on the
//!   same Ekberg–Yi demand bound with a stronger virtual-deadline search
//!   that ends in [`Ey`]'s own search, so it dominates [`Ey`] (see
//!   [`vdtune`] for why the bound itself is not tightened).
//! * [`AmcRtb`] / [`AmcMax`] — fixed-priority Adaptive Mixed-Criticality
//!   response-time analyses of Baruah, Burns & Davis (RTSS 2011).
//!
//! Beside the five tests the crate holds only their shared kernels.
//! Every test implements the object-safe [`SchedulabilityTest`] trait,
//! so partitioning strategies in `mcsched-core` can treat them
//! uniformly.
//!
//! ## One-shot vs incremental
//!
//! The tests are usable through two layers:
//!
//! * **one-shot** — [`SchedulabilityTest::is_schedulable`] analyses a
//!   whole task set from scratch; use it when a set is judged once.
//! * **incremental** — [`SchedulabilityTest::admission_state_in`] creates
//!   an [`AdmissionState`] (see [`incremental`]): a stateful
//!   per-processor object that remembers the committed tasks and the
//!   reusable parts of the last analysis, so partitioning inner loops pay
//!   only for what a candidate task adds (O(1) closed forms for EDF-VD, a
//!   warm [`demand::DemandKernel`] with O(1) overload rejection for
//!   EY/ECDF, warm-started response-time fixed points for AMC). Admission
//!   verdicts are *exactly* the one-shot verdicts on the union —
//!   incremental partitions are bit-identical to clone-and-retest ones
//!   (the clone-and-retest reference lives in the test-support crate
//!   `mcsched-oracle`).
//!
//! Demand and response-time arithmetic is exact over integer ticks
//! ([`mcsched_model::Time`]). Some verdict-bearing utilization
//! comparisons are still f64 sums: the closed-form EDF-VD test, the
//! demand prelude's `U ≤ 1 ± UTIL_EPS` thresholds and busy-window bound
//! ([`dbf`], [`demand`]) and the EY / ECDF overload rule `U > 1`, with
//! its high-mode `U ≥ 1 − UTIL_EPS` band ([`DemandKernel::overloaded`]).
//! Making them exact is ROADMAP item 1.
//!
//! ## Example
//!
//! ```
//! use mcsched_model::{Task, TaskSet};
//! use mcsched_analysis::{EdfVd, Ecdf, AmcMax, SchedulabilityTest};
//!
//! # fn main() -> Result<(), mcsched_model::ModelError> {
//! let ts = TaskSet::try_from_tasks(vec![
//!     Task::hi(0, 10, 2, 4)?,
//!     Task::lo(1, 20, 6)?,
//! ])?;
//!
//! assert!(EdfVd::new().is_schedulable(&ts));
//! assert!(Ecdf::new().is_schedulable(&ts));
//! assert!(AmcMax::new().is_schedulable(&ts));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amc;
pub mod dbf;
pub mod demand;
pub mod edfvd;
pub mod incremental;
pub mod vdtune;
pub mod workspace;

pub use amc::{AmcMax, AmcRtb, AmcState, LoRta};
pub use dbf::{DemandCheck, VdTask};
pub use demand::{DemandKernel, QpaCounters};
pub use edfvd::{EdfVd, EdfVdState};
pub use incremental::{AdmissionState, AdmissionStats};
pub use vdtune::{Ecdf, Ey, VdAssignment, VdTuneState};
pub use workspace::{AnalysisWorkspace, PartitionScratch, PooledWorkspace, WorkspaceRef};

use mcsched_model::TaskSet;

/// A uniprocessor schedulability test for dual-criticality task sets.
///
/// Implementations answer "can this task set be scheduled on one unit-speed
/// processor by the associated algorithm?". Partitioning strategies call
/// [`is_schedulable`](SchedulabilityTest::is_schedulable) on the candidate
/// contents of each processor before committing an allocation (the paper's
/// Algorithm 1, line 5).
///
/// The trait is object-safe; partitioners hold `&dyn SchedulabilityTest`.
pub trait SchedulabilityTest {
    /// A short human-readable name, e.g. `"EDF-VD"`.
    fn name(&self) -> &'static str;

    /// Returns `true` if the task set is deemed schedulable on one
    /// processor by this test.
    ///
    /// Tests are *sufficient*: `true` means guaranteed schedulable under the
    /// test's assumptions, `false` means "not proven schedulable".
    fn is_schedulable(&self, ts: &TaskSet) -> bool;

    /// As [`is_schedulable`](SchedulabilityTest::is_schedulable), over
    /// caller-supplied scratch buffers.
    ///
    /// The native tests route their whole analysis through the workspace,
    /// so a caller that reuses one across many calls (the experiment
    /// engine's per-worker evaluators, the partitioning inner loop) pays
    /// **zero steady-state allocations**; the verdict is always identical
    /// to `is_schedulable`. The default ignores the workspace and runs the
    /// plain one-shot test, so foreign tests are unaffected.
    fn is_schedulable_in(&self, ts: &TaskSet, ws: &mut AnalysisWorkspace) -> bool {
        let _ = ws;
        self.is_schedulable(ts)
    }

    /// Creates an empty per-processor admission state (the stateful layer
    /// of [`incremental`]), its scratch buffers shared through `ws`.
    ///
    /// Required: each of the five tests returns a native state whose
    /// admissions are exactly the one-shot verdicts on the union but
    /// reuse cached per-processor work. The states own everything but
    /// the workspace handle, so a `'static` test yields a `'static`
    /// state a service session can keep.
    ///
    /// `Partition::build_reporting_in` passes one [`WorkspaceRef`] to all `m`
    /// per-processor states of a run, so the whole build shares a single
    /// set of scratch buffers and the admission path allocates nothing in
    /// steady state. The state also takes its own buffers (committed
    /// set, kernels, caches) from the idle ones `ws` keeps, and hands them
    /// back cleared when it is dropped, so the next run's states start
    /// warm. Verdicts and counters never depend on `ws` — it holds
    /// scratch only.
    fn admission_state_in(&self, ws: &WorkspaceRef) -> Box<dyn AdmissionState + '_>;
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use mcsched_model::Task;

    #[test]
    fn trait_objects_work() {
        let ts = TaskSet::try_from_tasks(vec![Task::lo(0, 10, 1).unwrap()]).unwrap();
        let tests: Vec<Box<dyn SchedulabilityTest>> = vec![
            Box::new(EdfVd::new()),
            Box::new(Ey::new()),
            Box::new(Ecdf::new()),
            Box::new(AmcRtb::new()),
            Box::new(AmcMax::new()),
        ];
        for t in &tests {
            assert!(t.is_schedulable(&ts), "{} rejected a trivial set", t.name());
        }
    }
}
