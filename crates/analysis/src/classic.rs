//! Classic (single-criticality) baselines: plain EDF and fixed-priority RTA.
//!
//! These treat a dual-criticality set as an ordinary sporadic set with one
//! budget per task. Two projections are useful:
//!
//! * **own-level** — each task at the budget of its own criticality
//!   (`C^L` for LC, `C^H` for HC). This is the conventional "reserve the
//!   worst case everywhere" design the mixed-criticality literature
//!   improves upon; the gap between this and the MC tests quantifies the
//!   benefit of mode-switched scheduling.
//! * **low-mode** — every task at `C^L`. Any sound MC test must imply
//!   schedulability of this projection (used by property tests).

use crate::dbf::VdTask;
use crate::workspace::AnalysisWorkspace;
use crate::{amc, SchedulabilityTest};
use mcsched_model::{Task, TaskSet};

/// Which per-task budget a classic baseline charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BudgetProjection {
    /// `C^L` for LC tasks, `C^H` for HC tasks.
    #[default]
    OwnLevel,
    /// `C^L` for every task.
    LoMode,
}

/// Flattens one task to a single-budget sporadic task under `projection`.
fn project_task(t: &Task, projection: BudgetProjection) -> Option<VdTask> {
    let budget = match projection {
        BudgetProjection::OwnLevel => t.wcet_own(),
        BudgetProjection::LoMode => t.wcet_lo(),
    };
    let flat = Task::builder(t.id().0)
        .period(t.period().as_ticks())
        .criticality(t.criticality())
        .wcet_lo(budget.as_ticks())
        .wcet_hi(budget.as_ticks())
        .deadline(t.deadline().as_ticks())
        .try_build()
        .ok()?;
    Some(VdTask::untightened(flat))
}

fn project(ts: &TaskSet, projection: BudgetProjection) -> Option<Vec<VdTask>> {
    ts.iter().map(|t| project_task(t, projection)).collect()
}

/// Plain EDF with an exact processor-demand test (QPA-accelerated).
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_analysis::{ClassicEdf, SchedulabilityTest};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 2, 5)?,   // charged at C^H = 5
///     Task::lo(1, 10, 4)?,      // charged at C^L = 4
/// ])?;
/// // 0.5 + 0.4 ≤ 1: schedulable when everything reserves its own level.
/// assert!(ClassicEdf::own_level().is_schedulable(&ts));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassicEdf {
    projection: BudgetProjection,
}

impl ClassicEdf {
    /// EDF with each task charged at its own criticality level.
    pub fn own_level() -> Self {
        ClassicEdf {
            projection: BudgetProjection::OwnLevel,
        }
    }

    /// EDF with every task charged at `C^L` (the low-mode projection).
    pub fn lo_mode() -> Self {
        ClassicEdf {
            projection: BudgetProjection::LoMode,
        }
    }
}

impl SchedulabilityTest for ClassicEdf {
    fn name(&self) -> &'static str {
        match self.projection {
            BudgetProjection::OwnLevel => "EDF(own)",
            BudgetProjection::LoMode => "EDF(lo)",
        }
    }

    fn is_schedulable(&self, ts: &TaskSet) -> bool {
        AnalysisWorkspace::with(|ws| self.is_schedulable_in(ts, ws))
    }

    fn is_schedulable_in(&self, ts: &TaskSet, ws: &mut AnalysisWorkspace) -> bool {
        // Project straight into the demand kernel (no intermediate
        // vector): the exact QPA check over the flat projection is
        // bit-identical to the seed `mcsched_oracle::dbf::check_lo_mode`.
        let kernel = &mut ws.demand;
        kernel.clear();
        for t in ts.iter() {
            let Some(vt) = project_task(t, self.projection) else {
                return false; // a budget exceeded a deadline in projection
            };
            kernel.push_task(vt);
        }
        kernel.check_lo().is_ok()
    }
}

/// Fixed-priority (deadline-monotonic) response-time analysis on a budget
/// projection.
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_analysis::{ClassicFp, SchedulabilityTest};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 2, 4)?,
///     Task::lo(1, 20, 5)?,
/// ])?;
/// assert!(ClassicFp::own_level().is_schedulable(&ts));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassicFp {
    projection: BudgetProjection,
}

impl ClassicFp {
    /// DM RTA with each task charged at its own criticality level.
    pub fn own_level() -> Self {
        ClassicFp {
            projection: BudgetProjection::OwnLevel,
        }
    }

    /// DM RTA with every task charged at `C^L`.
    pub fn lo_mode() -> Self {
        ClassicFp {
            projection: BudgetProjection::LoMode,
        }
    }
}

impl SchedulabilityTest for ClassicFp {
    fn name(&self) -> &'static str {
        match self.projection {
            BudgetProjection::OwnLevel => "FP(own)",
            BudgetProjection::LoMode => "FP(lo)",
        }
    }

    fn is_schedulable(&self, ts: &TaskSet) -> bool {
        let Some(projected) = project(ts, self.projection) else {
            return false;
        };
        let flat: TaskSet = projected.into_iter().map(|vt| vt.task).collect();
        let order = amc::dm_order(&flat);
        amc::LoRta::compute_with_order(&flat, &order).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(tasks: Vec<Task>) -> TaskSet {
        TaskSet::try_from_tasks(tasks).unwrap()
    }

    #[test]
    fn edf_own_level_uses_hi_budget() {
        // HC at C^H = 6 (u = 0.6) + LC at 0.5 overloads.
        let ts = set(vec![
            Task::hi(0, 10, 2, 6).unwrap(),
            Task::lo(1, 10, 5).unwrap(),
        ]);
        assert!(!ClassicEdf::own_level().is_schedulable(&ts));
        // The low-mode projection (0.2 + 0.5) fits comfortably.
        assert!(ClassicEdf::lo_mode().is_schedulable(&ts));
    }

    #[test]
    fn edf_exact_at_full_utilization() {
        let ts = set(vec![
            Task::lo(0, 10, 5).unwrap(),
            Task::lo(1, 10, 5).unwrap(),
        ]);
        assert!(ClassicEdf::own_level().is_schedulable(&ts));
    }

    #[test]
    fn edf_constrained_deadlines() {
        let ts = set(vec![
            Task::lo_constrained(0, 10, 3, 5).unwrap(),
            Task::lo_constrained(1, 10, 3, 6).unwrap(),
        ]);
        // Demand at t=6: 6 ≤ 6 — feasible.
        assert!(ClassicEdf::own_level().is_schedulable(&ts));
        let tight = set(vec![
            Task::lo_constrained(0, 10, 3, 5).unwrap(),
            Task::lo_constrained(1, 10, 4, 6).unwrap(),
        ]);
        // Demand at t=6: 7 > 6 — infeasible.
        assert!(!ClassicEdf::own_level().is_schedulable(&tight));
    }

    #[test]
    fn fp_own_level() {
        let ts = set(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::lo(1, 20, 5).unwrap(),
        ]);
        assert!(ClassicFp::own_level().is_schedulable(&ts));
        let over = set(vec![
            Task::hi(0, 10, 2, 8).unwrap(),
            Task::lo(1, 20, 8).unwrap(),
        ]);
        assert!(!ClassicFp::own_level().is_schedulable(&over));
    }

    #[test]
    fn fp_dominated_by_edf() {
        // Any FP-schedulable projection is EDF-schedulable (EDF optimal).
        for (c0, c1) in [(2u64, 5u64), (3, 6), (4, 7), (5, 9)] {
            let ts = set(vec![
                Task::lo(0, 10, c0).unwrap(),
                Task::lo(1, 20, c1).unwrap(),
            ]);
            if ClassicFp::own_level().is_schedulable(&ts) {
                assert!(ClassicEdf::own_level().is_schedulable(&ts), "{ts}");
            }
        }
    }

    #[test]
    fn names_and_empty() {
        assert_eq!(ClassicEdf::own_level().name(), "EDF(own)");
        assert_eq!(ClassicEdf::lo_mode().name(), "EDF(lo)");
        assert_eq!(ClassicFp::own_level().name(), "FP(own)");
        assert_eq!(ClassicFp::lo_mode().name(), "FP(lo)");
        assert!(ClassicEdf::own_level().is_schedulable(&TaskSet::new()));
        assert!(ClassicFp::own_level().is_schedulable(&TaskSet::new()));
    }
}
