//! Runtime scheduling policies.

use mcsched_analysis::{amc, EdfVd, VdAssignment};
use mcsched_model::{TaskSet, Time};

/// The scheduling policy a simulated processor runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// EDF with virtual deadlines: in low mode, jobs are ordered by
    /// absolute *virtual* deadline (`release + vd[i]`); after the mode
    /// switch HC jobs revert to their real deadlines and LC jobs are
    /// dropped. `virtual_deadlines` holds one relative deadline per task,
    /// in task-set order.
    EdfVd {
        /// Relative virtual deadline per task (LC entries equal the real
        /// deadline).
        virtual_deadlines: Vec<Time>,
    },
    /// Fixed-priority scheduling (the AMC runtime): `priority_order[0]` is
    /// the index of the highest-priority task. LC tasks are dropped at the
    /// mode switch.
    FixedPriority {
        /// Task indices from highest to lowest priority.
        priority_order: Vec<usize>,
    },
    /// Plain EDF on real deadlines (single-criticality baseline; mode
    /// switches still drop LC tasks).
    Edf,
}

impl Policy {
    /// EDF-VD with a uniform scaling factor `x` (the EDF-VD analysis'
    /// deadline assignment): HC tasks get `⌊x·Di⌋` clamped below by
    /// `C^L_i`; LC tasks keep `Di`.
    pub fn edf_vd_scaled(ts: &TaskSet, x: f64) -> Policy {
        Policy::EdfVd {
            virtual_deadlines: EdfVd::new().virtual_deadlines(ts, x),
        }
    }

    /// EDF-VD with the per-task assignment produced by an EY/ECDF tuner.
    pub fn edf_vd_from_assignment(assignment: &VdAssignment) -> Policy {
        Policy::EdfVd {
            virtual_deadlines: assignment.as_slice().iter().map(|vt| vt.vd).collect(),
        }
    }

    /// Deadline-monotonic fixed priorities: exactly the order the AMC
    /// analyses judge ([`mcsched_analysis::amc::dm_order`]; smaller
    /// relative deadline first, ties broken by task id).
    pub fn deadline_monotonic(ts: &TaskSet) -> Policy {
        Policy::FixedPriority {
            priority_order: amc::dm_order(ts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_model::Task;

    fn set() -> TaskSet {
        TaskSet::try_from_tasks(vec![
            Task::hi(0, 20, 2, 6).unwrap(),
            Task::lo(1, 10, 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn scaled_virtual_deadlines() {
        let p = Policy::edf_vd_scaled(&set(), 0.5);
        match p {
            Policy::EdfVd { virtual_deadlines } => {
                assert_eq!(virtual_deadlines[0], Time::new(10)); // HC scaled
                assert_eq!(virtual_deadlines[1], Time::new(10)); // LC real
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn dm_priorities() {
        let p = Policy::deadline_monotonic(&set());
        match p {
            Policy::FixedPriority { priority_order } => {
                // τ1 (D=10) above τ0 (D=20).
                assert_eq!(priority_order, vec![1, 0]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn assignment_roundtrip() {
        use mcsched_analysis::Ey;
        let ts = TaskSet::try_from_tasks(vec![Task::hi(0, 10, 2, 5).unwrap()]).unwrap();
        let a = Ey::new().tune(&ts).unwrap();
        let p = Policy::edf_vd_from_assignment(&a);
        match p {
            Policy::EdfVd { virtual_deadlines } => {
                assert_eq!(virtual_deadlines[0], a.virtual_deadline(0).unwrap());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
