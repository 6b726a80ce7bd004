//! Plain (single-criticality) EDF over a budget projection of a
//! dual-criticality set: the baselines the dominance suite holds the MC
//! tests against.
//!
//! Each task is flattened to one budget and judged by the exact QPA
//! demand test [`check_lo_mode`]:
//!
//! * [`edf_own_level`] — each task at the budget of its own criticality
//!   (`C^L` for LC, `C^H` for HC), the conventional "reserve the worst
//!   case everywhere" design the mixed-criticality literature improves
//!   upon;
//! * [`edf_lo_mode`] — every task at `C^L`. Any sound MC test must imply
//!   that this projection is feasible.

use crate::dbf::check_lo_mode;
use mcsched_analysis::VdTask;
use mcsched_model::{Task, TaskSet, Time};

/// Plain EDF with each task charged at its own criticality level.
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 2, 5)?,   // charged at C^H = 5
///     Task::lo(1, 10, 4)?,      // charged at C^L = 4
/// ])?;
/// // 0.5 + 0.4 ≤ 1: schedulable when everything reserves its own level.
/// assert!(mcsched_oracle::classic::edf_own_level(&ts));
/// # Ok(())
/// # }
/// ```
pub fn edf_own_level(ts: &TaskSet) -> bool {
    edf_projected(ts, Task::wcet_own)
}

/// Plain EDF with every task charged at `C^L` (the low-mode projection).
pub fn edf_lo_mode(ts: &TaskSet) -> bool {
    edf_projected(ts, Task::wcet_lo)
}

/// Flattens every task to the single budget `budget(task)` and runs the
/// exact demand test; `false` when a budget exceeds its deadline.
fn edf_projected(ts: &TaskSet, budget: impl Fn(&Task) -> Time) -> bool {
    let flat: Option<Vec<VdTask>> = ts
        .iter()
        .map(|t| {
            let c = budget(t).as_ticks();
            Task::builder(t.id().0)
                .period(t.period().as_ticks())
                .criticality(t.criticality())
                .wcet_lo(c)
                .wcet_hi(c)
                .deadline(t.deadline().as_ticks())
                .try_build()
                .ok()
                .map(VdTask::untightened)
        })
        .collect();
    flat.is_some_and(|tasks| check_lo_mode(&tasks).is_ok())
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
        assert!(!edf_own_level(&ts));
        // The low-mode projection (0.2 + 0.5) fits comfortably.
        assert!(edf_lo_mode(&ts));
    }

    #[test]
    fn edf_exact_at_full_utilization() {
        let ts = set(vec![
            Task::lo(0, 10, 5).unwrap(),
            Task::lo(1, 10, 5).unwrap(),
        ]);
        assert!(edf_own_level(&ts));
        assert!(edf_own_level(&TaskSet::new()));
    }

    #[test]
    fn edf_constrained_deadlines() {
        let ts = set(vec![
            Task::lo_constrained(0, 10, 3, 5).unwrap(),
            Task::lo_constrained(1, 10, 3, 6).unwrap(),
        ]);
        // Demand at t=6: 6 ≤ 6 — feasible.
        assert!(edf_own_level(&ts));
        let tight = set(vec![
            Task::lo_constrained(0, 10, 3, 5).unwrap(),
            Task::lo_constrained(1, 10, 4, 6).unwrap(),
        ]);
        // Demand at t=6: 7 > 6 — infeasible.
        assert!(!edf_own_level(&tight));
    }
}
