//! Demand-bound functions for dual-criticality sporadic tasks under
//! virtual-deadline EDF scheduling (the EY / ECDF family of analyses).
//!
//! ## Model
//!
//! In **low mode** every task must meet its *virtual* deadline `Vi ≤ Di`
//! (LC tasks have `Vi = Di`). The classic demand bound applies:
//!
//! ```text
//! dbf_LO(τi, t) = max(0, ⌊(t − Vi)/Ti⌋ + 1) · C^L_i
//! ```
//!
//! In **high mode** (a window of length `t` starting at the mode switch) LC
//! tasks are dropped and each HC task must meet its *real* deadline. With
//! `di = Di − Vi`, the jobs of `τi` whose real deadlines fall in the window
//! number `k(t) = max(0, ⌊(t − di)/Ti⌋ + 1)` in the densest alignment, and
//! the earliest of them (the *carry-over* job) was released before the
//! switch. Because EDF met its virtual deadline `Vi` in low mode, a
//! carry-over job whose real deadline lies `y` after the switch (any
//! carry-over job has `y ≥ di`; jobs with virtual deadlines before the
//! switch must have signalled completion, or the switch would have happened
//! earlier) had at most `y − di` time left to its virtual deadline, hence
//! had already completed at least `C^L_i − (y − di)` units. The densest
//! alignment has `y − di = (t − di) mod Ti`, giving the Ekberg–Yi bound
//!
//! ```text
//! dbf_HI(τi, t) = k(t)·C^H_i − done(t),
//! done(t)       = max(0, C^L_i − ((t − di) mod Ti))          (k ≥ 1)
//! ```
//!
//! A short argument shows this dominates every other alignment, including
//! the no-carry-over one: a first-deadline offset `y` with `done > 0`
//! requires `y − di < C^L_i ≤ Vi`, which forces the no-carry-over job count
//! `⌊(t − Di)/Ti⌋ + 1` strictly below `k(t)`, and `done ≤ C^L ≤ C^H` keeps
//! the formula above `(k−1)·C^H`.
//!
//! Note the untightened assignment (`Vi = Di`, `di = 0`) yields demand
//! `C^H_i − C^L_i` in a zero-length window — an overrunning job whose
//! deadline coincides with the switch cannot finish. This is why EY-style
//! analyses *must* tighten virtual deadlines (see
//! [`vdtune`](crate::vdtune)): slack `di ≥ C^H_i − C^L_i` is needed before
//! any HC task can survive a switch.
//!
//! ## Checking
//!
//! Both demand bounds are nondecreasing, integer-valued functions of `t`,
//! so `Σ dbf(t) ≤ t` is verified with a QPA-style descending fixpoint
//! (Zhang & Burns 2009, which generalises unchanged to any nondecreasing
//! demand function): starting from the busy-window bound
//! `L = Σ(...)/(1 − U)`, repeatedly jump to `t ← h(t)` while `h(t) < t` —
//! nothing in `(h(t), t]` can violate — and step down by one when
//! `h(t) = t`. This is orders of magnitude cheaper than enumerating demand
//! breakpoints and makes dbf tests usable inside partitioning inner loops.
//!
//! ## Layers
//!
//! This module holds the per-task demand functions; the checks run in
//! the **incremental demand kernel** ([`crate::demand::DemandKernel`]:
//! load an assignment, then [`check_lo`](crate::demand::DemandKernel::check_lo)
//! / [`check_hi`](crate::demand::DemandKernel::check_hi)), which owns the
//! per-task demand-step state, memoises violated `(t, h(t))` samples, and
//! warm-resumes QPA fixpoints across the tuner and admission loops. The
//! seed (flat, per-call) checks, the brute-force total-demand sums and
//! the sampled demand curve live in the `mcsched-oracle` test crate;
//! the kernel's verdicts — including violation witnesses — are pinned
//! bit-identical to them by `tests/demand_kernel.rs`.

use mcsched_model::{Task, Time};

/// A task paired with its assigned virtual deadline `Vi`.
///
/// For LC tasks `Vi = Di` always; for HC tasks `C^L_i ≤ Vi ≤ Di`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VdTask {
    /// The underlying task.
    pub task: Task,
    /// Its virtual (low-mode) deadline.
    pub vd: Time,
}

impl VdTask {
    /// Pairs a task with its real deadline (the untightened assignment).
    pub fn untightened(task: Task) -> Self {
        VdTask {
            task,
            vd: task.deadline(),
        }
    }

    /// `di = Di − Vi`, the distance from virtual to real deadline.
    #[inline]
    pub fn dist(&self) -> Time {
        self.task.deadline() - self.vd
    }
}

/// Low-mode demand of one task in an interval of length `t`
/// (deadlines at the *virtual* deadline).
#[inline]
pub fn dbf_lo(vt: &VdTask, t: Time) -> Time {
    if t < vt.vd {
        return Time::ZERO;
    }
    let jobs = (t - vt.vd).div_floor(vt.task.period()).saturating_add(1);
    vt.task.wcet_lo().saturating_mul(jobs)
}

/// High-mode demand of one HC task in a window of length `t` after the
/// mode switch (Ekberg–Yi carry-over bound; see the module docs).
///
/// Returns zero for LC tasks (they are dropped at the switch).
#[inline]
pub fn dbf_hi(vt: &VdTask, t: Time) -> Time {
    if vt.task.criticality().is_low() {
        return Time::ZERO;
    }
    let d = vt.dist();
    if t < d {
        return Time::ZERO;
    }
    let period = vt.task.period();
    let rel = t - d;
    let k = rel.div_floor(period).saturating_add(1);
    let m = rel % period; // (t − di) mod Ti
    let done = vt.task.wcet_lo().saturating_sub(m);
    vt.task.wcet_hi().saturating_mul(k).saturating_sub(done)
}

/// Outcome of a demand check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandCheck {
    /// `Σ dbf(t) ≤ t` for all `t` up to the busy-window bound.
    Ok,
    /// Demand exceeds supply at the reported time.
    Violation(Time),
    /// The check could not be bounded (utilization at or above one with
    /// tightened deadlines, or the QPA iteration budget was exhausted);
    /// treat as *not schedulable*.
    Unbounded,
}

impl DemandCheck {
    /// `true` for [`DemandCheck::Ok`].
    #[inline]
    pub fn is_ok(self) -> bool {
        matches!(self, DemandCheck::Ok)
    }

    /// The violation instant, if any (QPA reports one witness).
    pub fn violation(self) -> Option<Time> {
        match self {
            DemandCheck::Violation(t) => Some(t),
            _ => None,
        }
    }
}

/// Iteration budget for the QPA descent. Generously above what any
/// generated task set needs (typical descents take < 100 steps).
pub(crate) const QPA_BUDGET: usize = 100_000;

/// Epsilon below which a utilization sum is treated as saturating the
/// processor (guards the `1/(1 − U)` busy-window bound).
pub(crate) const UTIL_EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandKernel;
    use mcsched_model::Task;

    fn check_lo_mode(tasks: &[VdTask]) -> DemandCheck {
        let mut kernel = DemandKernel::new();
        kernel.load(tasks);
        kernel.check_lo()
    }

    fn check_hi_mode(tasks: &[VdTask]) -> DemandCheck {
        let mut kernel = DemandKernel::new();
        kernel.load(tasks);
        kernel.check_hi()
    }

    fn vd(task: Task, v: u64) -> VdTask {
        VdTask {
            task,
            vd: Time::new(v),
        }
    }

    #[test]
    fn dbf_lo_step_function() {
        let t = VdTask::untightened(Task::lo(0, 10, 3).unwrap());
        assert_eq!(dbf_lo(&t, Time::new(9)), Time::ZERO);
        assert_eq!(dbf_lo(&t, Time::new(10)), Time::new(3));
        assert_eq!(dbf_lo(&t, Time::new(19)), Time::new(3));
        assert_eq!(dbf_lo(&t, Time::new(20)), Time::new(6));
    }

    #[test]
    fn dbf_lo_uses_virtual_deadline() {
        let t = vd(Task::hi(0, 10, 3, 6).unwrap(), 5);
        assert_eq!(dbf_lo(&t, Time::new(4)), Time::ZERO);
        assert_eq!(dbf_lo(&t, Time::new(5)), Time::new(3));
        assert_eq!(dbf_lo(&t, Time::new(15)), Time::new(6));
    }

    #[test]
    fn dbf_hi_untightened_has_zero_window_demand() {
        // With Vi = Di (di = 0) the carry-over job still owes C^H − C^L at
        // the switch instant itself.
        let t = VdTask::untightened(Task::hi(0, 10, 3, 6).unwrap());
        assert_eq!(dbf_hi(&t, Time::ZERO), Time::new(3));
        // t=10: k=2, mod=0, done=3 → 12−3 = 9.
        assert_eq!(dbf_hi(&t, Time::new(10)), Time::new(9));
        // t=3 (mod=3 ≥ C^L): done=0 → k·C^H = 6.
        assert_eq!(dbf_hi(&t, Time::new(3)), Time::new(6));
    }

    #[test]
    fn dbf_hi_with_tightening() {
        // V = 4 → d = 6 for T = D = 10.
        let t = vd(Task::hi(0, 10, 3, 6).unwrap(), 4);
        // Window shorter than d: no HC deadline inside → zero.
        assert_eq!(dbf_hi(&t, Time::new(5)), Time::ZERO);
        // t = 6: k=1, mod=0, done=3 → 3.
        assert_eq!(dbf_hi(&t, Time::new(6)), Time::new(3));
        // t = 8: mod=2, done=1 → 5.
        assert_eq!(dbf_hi(&t, Time::new(8)), Time::new(5));
        // t = 9: mod=3, done=0 → 6; t = 15: still one job → 6.
        assert_eq!(dbf_hi(&t, Time::new(9)), Time::new(6));
        assert_eq!(dbf_hi(&t, Time::new(15)), Time::new(6));
        // t = 16: second job's real deadline enters → 12−3 = 9.
        assert_eq!(dbf_hi(&t, Time::new(16)), Time::new(9));
    }

    #[test]
    fn dbf_hi_nondecreasing() {
        let task = Task::hi(0, 12, 3, 8).unwrap();
        for v in 3..=12 {
            let vt = vd(task, v);
            let mut prev = Time::ZERO;
            for t in 0..80 {
                let d = dbf_hi(&vt, Time::new(t));
                assert!(d >= prev, "decreasing at t={t}, v={v}");
                prev = d;
            }
        }
    }

    #[test]
    fn dbf_hi_zero_for_lc() {
        let t = VdTask::untightened(Task::lo(0, 10, 3).unwrap());
        assert_eq!(dbf_hi(&t, Time::new(50)), Time::ZERO);
    }

    #[test]
    fn tightening_lowers_hi_demand_at_small_t() {
        let task = Task::hi(0, 20, 4, 10).unwrap();
        let loose = VdTask::untightened(task);
        let tight = vd(task, 10);
        for t in 0..10 {
            assert!(
                dbf_hi(&tight, Time::new(t)) <= dbf_hi(&loose, Time::new(t)),
                "t={t}"
            );
        }
    }

    #[test]
    fn check_lo_accepts_simple_set() {
        let tasks = vec![
            VdTask::untightened(Task::lo(0, 10, 3).unwrap()),
            VdTask::untightened(Task::lo(1, 20, 4).unwrap()),
        ];
        assert!(check_lo_mode(&tasks).is_ok());
    }

    #[test]
    fn check_lo_rejects_overload() {
        let tasks = vec![
            VdTask::untightened(Task::lo(0, 10, 6).unwrap()),
            VdTask::untightened(Task::lo(1, 10, 6).unwrap()),
        ];
        assert!(!check_lo_mode(&tasks).is_ok());
    }

    #[test]
    fn check_lo_exact_utilization_one_implicit() {
        let tasks = vec![
            VdTask::untightened(Task::lo(0, 10, 5).unwrap()),
            VdTask::untightened(Task::lo(1, 10, 5).unwrap()),
        ];
        assert_eq!(check_lo_mode(&tasks), DemandCheck::Ok);
    }

    #[test]
    fn check_lo_exact_utilization_one_tightened_is_unbounded() {
        let tasks = vec![
            vd(Task::hi(0, 10, 5, 5).unwrap(), 7),
            VdTask::untightened(Task::lo(1, 10, 5).unwrap()),
        ];
        assert_eq!(check_lo_mode(&tasks), DemandCheck::Unbounded);
    }

    #[test]
    fn check_lo_tightened_deadline_violation() {
        // Two tasks each demanding 5 by t = 5: demand(5) = 10 > 5.
        let tasks = vec![
            vd(Task::hi(0, 20, 5, 10).unwrap(), 5),
            vd(Task::hi(1, 20, 5, 10).unwrap(), 5),
        ];
        let r = check_lo_mode(&tasks);
        assert!(matches!(r, DemandCheck::Violation(_)), "{r:?}");
    }

    #[test]
    fn check_hi_rejects_untightened_overrunner() {
        // di = 0 and C^H > C^L: zero-window demand → violation at 0.
        let tasks = vec![VdTask::untightened(Task::hi(0, 10, 2, 5).unwrap())];
        assert_eq!(check_hi_mode(&tasks), DemandCheck::Violation(Time::ZERO));
    }

    #[test]
    fn check_hi_accepts_tightened_single_task() {
        // V = 5 → d = 5 ≥ C^H − C^L = 3: demand 2 at t=5, 5 at t=8, ...
        let tasks = vec![vd(Task::hi(0, 10, 2, 5).unwrap(), 5)];
        assert!(check_hi_mode(&tasks).is_ok());
    }

    #[test]
    fn check_hi_rejects_overload() {
        let tasks = vec![
            vd(Task::hi(0, 10, 2, 6).unwrap(), 5),
            vd(Task::hi(1, 10, 2, 6).unwrap(), 5),
        ];
        assert!(!check_hi_mode(&tasks).is_ok());
    }

    #[test]
    fn check_hi_empty_and_lc_only() {
        assert!(check_hi_mode(&[]).is_ok());
        let tasks = vec![VdTask::untightened(Task::lo(0, 10, 9).unwrap())];
        assert!(check_hi_mode(&tasks).is_ok());
    }

    #[test]
    fn demand_check_accessors() {
        assert!(DemandCheck::Ok.is_ok());
        assert!(!DemandCheck::Unbounded.is_ok());
        assert_eq!(
            DemandCheck::Violation(Time::new(5)).violation(),
            Some(Time::new(5))
        );
        assert_eq!(DemandCheck::Ok.violation(), None);
    }

    #[test]
    fn near_unit_utilization_is_typed_early_reject() {
        // U = 1 − 1e-12 with a tightened deadline: the busy-window bound
        // would be astronomically large; the check must answer Unbounded
        // instead of descending from a saturated horizon.
        let period = 1_000_000_000_000u64; // 1e12
        let t = Task::hi(0, period, period - 1, period - 1).unwrap();
        let tasks = vec![vd(t, period - 10)];
        assert_eq!(check_lo_mode(&tasks), DemandCheck::Unbounded);
        // U just above 1 (but within UTIL_EPS): same typed early-reject.
        let a = Task::lo(0, 10, 10).unwrap();
        let b = Task::lo(1, 1_000_000_000_000, 2).unwrap(); // u = 2e-12
        let tasks = vec![
            vd(a, 9), // tightened so the all-implicit fast accept is off
            VdTask::untightened(b),
        ];
        assert_eq!(check_lo_mode(&tasks), DemandCheck::Unbounded);
    }

    #[test]
    fn vdtask_helpers() {
        let t = Task::hi(0, 10, 2, 5).unwrap();
        let u = VdTask::untightened(t);
        assert_eq!(u.vd, Time::new(10));
        assert_eq!(u.dist(), Time::ZERO);
        let v = vd(t, 4);
        assert_eq!(v.dist(), Time::new(6));
    }
}
