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
//! seed (flat, per-call) implementations are retained **verbatim** in
//! [`mod@reference`]; the kernel's verdicts — including violation
//! witnesses — are pinned bit-identical to them by
//! `tests/demand_kernel.rs`.

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

/// Total low-mode demand `Σ dbf_LO(τi, t)`, clamped at `Time::MAX`
/// (a saturated total already exceeds any supply bound).
pub fn total_dbf_lo(tasks: &[VdTask], t: Time) -> Time {
    tasks
        .iter()
        .map(|vt| dbf_lo(vt, t))
        .fold(Time::ZERO, Time::saturating_add)
}

/// Total high-mode demand `Σ_HC dbf_HI(τi, t)`, clamped at `Time::MAX`.
pub fn total_dbf_hi(tasks: &[VdTask], t: Time) -> Time {
    tasks
        .iter()
        .map(|vt| dbf_hi(vt, t))
        .fold(Time::ZERO, Time::saturating_add)
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

/// Seed (flat, per-call) demand checks retained **verbatim** as the
/// equivalence reference for the incremental demand kernel — the
/// counterpart of [`crate::amc::reference`] / [`crate::vdtune::reference`].
///
/// The `BENCH_analysis.json` artifact (`mcexp analysis --json`) and the
/// equivalence suites (`tests/demand_kernel.rs`) compare against these;
/// nothing on the hot path calls them. Note the seed horizons are *not*
/// clamped: the satellite overflow fix applies to the kernel path only.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// QPA-style verification that `h(t) ≤ t` for all integer
    /// `t ∈ [0, bound]`, for a nondecreasing integer demand function `h`.
    pub(crate) fn qpa_check(bound: u64, h: impl Fn(Time) -> Time) -> DemandCheck {
        // Zero-length windows carry demand when a deadline can coincide with
        // the window start (e.g. an untightened HC task at the mode switch).
        if h(Time::ZERO) > Time::ZERO {
            return DemandCheck::Violation(Time::ZERO);
        }
        if bound == 0 {
            return DemandCheck::Ok;
        }
        let mut t = Time::new(bound);
        for _ in 0..QPA_BUDGET {
            let d = h(t);
            if d > t {
                return DemandCheck::Violation(t);
            }
            if d.is_zero() {
                return DemandCheck::Ok;
            }
            if d < t {
                // No violation possible in (d, t]: for t' there,
                // h(t') ≤ h(t) = d < t'.
                t = d;
            } else {
                // h(t) == t: the point itself is fine; continue below it.
                if t == Time::ONE {
                    return DemandCheck::Ok;
                }
                t -= Time::ONE;
            }
        }
        DemandCheck::Unbounded
    }

    /// The seed low-mode check.
    pub fn check_lo_mode(tasks: &[VdTask]) -> DemandCheck {
        if tasks.is_empty() {
            return DemandCheck::Ok;
        }
        // Insertion-order sum: the ≥/> threshold comparisons below make
        // this verdict-bearing.
        let mut util: f64 = 0.0;
        for vt in tasks {
            util += vt.task.wcet_lo().as_f64() / vt.task.period().as_f64();
        }
        let all_implicit_untightened = tasks.iter().all(|vt| vt.vd == vt.task.period());
        if util > 1.0 + UTIL_EPS {
            // Overload: a violation certainly exists; report the busy-window
            // horizon as witness without searching for the exact point.
            return DemandCheck::Violation(violation_horizon_lo(tasks, util));
        }
        if util >= 1.0 - UTIL_EPS {
            return if all_implicit_untightened {
                DemandCheck::Ok
            } else {
                DemandCheck::Unbounded
            };
        }
        if all_implicit_untightened {
            // Implicit deadlines, no tightening: EDF utilization bound is exact.
            return DemandCheck::Ok;
        }
        // K = Σ u_i (Ti − Vi); horizon = K / (1 − U). Insertion-order sum.
        let mut k: f64 = 0.0;
        for vt in tasks {
            let u = vt.task.wcet_lo().as_f64() / vt.task.period().as_f64();
            k += u * (vt.task.period() - vt.vd.min(vt.task.period())).as_f64();
        }
        let bound = (k / (1.0 - util)).ceil() as u64;
        qpa_check(bound, |t| total_dbf_lo(tasks, t))
    }

    fn violation_horizon_lo(tasks: &[VdTask], util: f64) -> Time {
        // Σ dbf_LO(t) ≥ U·t − Σ u_i·Vi for t ≥ max Vi, so demand exceeds t by
        // t > Σ u_i·Vi / (U − 1).
        // Insertion-order sum.
        let mut k: f64 = 0.0;
        for vt in tasks {
            k += vt.task.wcet_lo().as_f64() / vt.task.period().as_f64() * vt.vd.as_f64();
        }
        let max_v = tasks.iter().map(|vt| vt.vd).fold(Time::ZERO, Time::max);
        Time::new((k / (util - 1.0)).ceil() as u64).max(max_v) + Time::ONE
    }

    /// The seed high-mode check (per-call HC filter + flat QPA).
    pub fn check_hi_mode(tasks: &[VdTask]) -> DemandCheck {
        let hc: Vec<VdTask> = tasks
            .iter()
            .filter(|vt| vt.task.criticality().is_high())
            .copied()
            .collect();
        check_hi_mode_hc(&hc)
    }

    /// The high-mode check over an HC-only slice.
    fn check_hi_mode_hc(hc: &[VdTask]) -> DemandCheck {
        if hc.is_empty() {
            return DemandCheck::Ok;
        }
        // Insertion-order sum (verdict-bearing thresholds below).
        let mut util: f64 = 0.0;
        for vt in hc {
            util += vt.task.wcet_hi().as_f64() / vt.task.period().as_f64();
        }
        if util > 1.0 + UTIL_EPS {
            return DemandCheck::Violation(violation_horizon_hi(hc, util));
        }
        if util >= 1.0 - UTIL_EPS {
            // The busy-window bound degenerates; conservatively refuse.
            return DemandCheck::Unbounded;
        }
        // dbf_HI(τi, t) ≤ k(t)·C^H ≤ u^H_i·t + C^H_i + u^H_i·(Ti − di).
        // Insertion-order sum.
        let mut k: f64 = 0.0;
        for vt in hc {
            let u = vt.task.wcet_hi().as_f64() / vt.task.period().as_f64();
            k += vt.task.wcet_hi().as_f64()
                + u * (vt.task.period().saturating_sub(vt.dist())).as_f64();
        }
        let bound = (k / (1.0 - util)).ceil() as u64;
        qpa_check(bound, |t| {
            hc.iter()
                .map(|vt| dbf_hi(vt, t))
                .fold(Time::ZERO, Time::saturating_add)
        })
    }

    fn violation_horizon_hi(hc: &[VdTask], util: f64) -> Time {
        // Insertion-order sum.
        let mut k: f64 = 0.0;
        for vt in hc {
            let u = vt.task.wcet_hi().as_f64() / vt.task.period().as_f64();
            k += u * vt.dist().as_f64() + vt.task.wcet_lo().as_f64();
        }
        let max_d = hc.iter().map(|vt| vt.dist()).fold(Time::ZERO, Time::max);
        Time::new((k / (util - 1.0)).ceil() as u64).max(max_d) + Time::ONE
    }
}

/// A sampled demand curve, convenient for inspection, plotting and tests.
///
/// # Example
///
/// ```
/// use mcsched_model::Task;
/// use mcsched_analysis::dbf::{DemandCurve, VdTask};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let t = Task::hi(0, 10, 2, 5)?;
/// let vt = VdTask { task: t, vd: mcsched_model::Time::new(5) };
/// let curve = DemandCurve::hi_mode(&[vt], 30);
/// assert_eq!(curve.points().len(), 31);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandCurve {
    points: Vec<(Time, Time)>,
}

impl DemandCurve {
    /// Samples the total low-mode demand at every integer `t ∈ [0, horizon]`.
    pub fn lo_mode(tasks: &[VdTask], horizon: u64) -> Self {
        let points = (0..=horizon)
            .map(|t| (Time::new(t), total_dbf_lo(tasks, Time::new(t))))
            .collect();
        DemandCurve { points }
    }

    /// Samples the total high-mode demand at every integer `t ∈ [0, horizon]`.
    pub fn hi_mode(tasks: &[VdTask], horizon: u64) -> Self {
        let points = (0..=horizon)
            .map(|t| (Time::new(t), total_dbf_hi(tasks, Time::new(t))))
            .collect();
        DemandCurve { points }
    }

    /// The sampled `(t, demand)` pairs.
    pub fn points(&self) -> &[(Time, Time)] {
        &self.points
    }

    /// The first sampled instant where demand exceeds supply, if any.
    pub fn first_violation(&self) -> Option<Time> {
        self.points.iter().find(|&&(t, d)| d > t).map(|&(t, _)| t)
    }
}

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
    fn qpa_agrees_with_exhaustive_scan_lo() {
        // Cross-validate QPA against brute-force sampling.
        let cases = vec![
            vec![
                vd(Task::hi(0, 10, 2, 4).unwrap(), 6),
                vd(Task::hi(1, 15, 3, 7).unwrap(), 9),
            ],
            vec![
                vd(Task::hi(0, 8, 2, 4).unwrap(), 3),
                VdTask::untightened(Task::lo(1, 12, 5).unwrap()),
            ],
            vec![
                vd(Task::hi(0, 20, 5, 10).unwrap(), 5),
                vd(Task::hi(1, 20, 5, 10).unwrap(), 5),
            ],
            vec![
                VdTask::untightened(Task::lo(0, 6, 2).unwrap()),
                vd(Task::hi(1, 9, 2, 3).unwrap(), 4),
            ],
        ];
        for tasks in cases {
            let qpa = check_lo_mode(&tasks);
            let brute = DemandCurve::lo_mode(&tasks, 600).first_violation();
            match (qpa, brute) {
                (DemandCheck::Ok, None) => {}
                (DemandCheck::Violation(_), Some(_)) => {}
                other => panic!("QPA/brute mismatch: {other:?} for {tasks:?}"),
            }
        }
    }

    #[test]
    fn qpa_agrees_with_exhaustive_scan_hi() {
        let cases = vec![
            vec![
                vd(Task::hi(0, 10, 2, 4).unwrap(), 6),
                vd(Task::hi(1, 15, 3, 7).unwrap(), 9),
            ],
            vec![
                vd(Task::hi(0, 8, 2, 7).unwrap(), 3),
                vd(Task::hi(1, 12, 4, 5).unwrap(), 11),
            ],
            vec![
                vd(Task::hi(0, 10, 3, 9).unwrap(), 4),
                vd(Task::hi(1, 25, 2, 8).unwrap(), 19),
            ],
            vec![vd(Task::hi(0, 10, 2, 5).unwrap(), 5)],
        ];
        for tasks in cases {
            let qpa = check_hi_mode(&tasks);
            let brute = DemandCurve::hi_mode(&tasks, 600).first_violation();
            match (qpa, brute) {
                (DemandCheck::Ok, None) => {}
                (DemandCheck::Violation(_), Some(_)) => {}
                other => panic!("QPA/brute mismatch: {other:?} for {tasks:?}"),
            }
        }
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
    fn demand_curve_sampling() {
        let tasks = vec![VdTask::untightened(Task::lo(0, 5, 2).unwrap())];
        let c = DemandCurve::lo_mode(&tasks, 12);
        assert_eq!(c.points().len(), 13);
        assert_eq!(c.points()[5], (Time::new(5), Time::new(2)));
        assert_eq!(c.points()[10], (Time::new(10), Time::new(4)));
        assert_eq!(c.first_violation(), None);
    }

    #[test]
    fn public_checks_match_reference_exactly() {
        let cases = vec![
            vec![
                vd(Task::hi(0, 10, 2, 4).unwrap(), 6),
                vd(Task::hi(1, 15, 3, 7).unwrap(), 9),
            ],
            vec![
                vd(Task::hi(0, 20, 5, 10).unwrap(), 5),
                vd(Task::hi(1, 20, 5, 10).unwrap(), 5),
            ],
            vec![VdTask::untightened(Task::hi(0, 10, 2, 5).unwrap())],
            vec![
                vd(Task::hi(0, 10, 2, 6).unwrap(), 5),
                vd(Task::hi(1, 10, 2, 6).unwrap(), 5),
            ],
            vec![VdTask::untightened(Task::lo(0, 10, 9).unwrap())],
            vec![],
        ];
        for tasks in cases {
            assert_eq!(
                check_lo_mode(&tasks),
                reference::check_lo_mode(&tasks),
                "lo diverged on {tasks:?}"
            );
            assert_eq!(
                check_hi_mode(&tasks),
                reference::check_hi_mode(&tasks),
                "hi diverged on {tasks:?}"
            );
        }
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
    fn certain_overload_horizon_is_clamped() {
        // U > 1 + ε with extreme parameters: the seed horizon arithmetic
        // saturated `as u64` and then overflowed on `+ 1`; the kernel path
        // must clamp (saturating) and still report a violation.
        let big = 1_000_000_000_000_000_000u64; // 1e18
        let full = Task::lo(0, big, big).unwrap(); // u = 1.0
        let eps = Task::lo(1, 1_000_000_000, 2).unwrap(); // u = 2e-9 > UTIL_EPS
        let tasks = vec![VdTask::untightened(full), VdTask::untightened(eps)];
        let r = check_lo_mode(&tasks);
        assert!(matches!(r, DemandCheck::Violation(_)), "{r:?}");
        // Ordinary overload keeps its finite busy-window witness,
        // identical to the seed path.
        let tasks = vec![
            VdTask::untightened(Task::lo(0, 10, 6).unwrap()),
            VdTask::untightened(Task::lo(1, 10, 6).unwrap()),
        ];
        assert_eq!(check_lo_mode(&tasks), reference::check_lo_mode(&tasks));
        // High-mode overload: clamped horizon, no panic.
        let h1 = Task::hi(0, big, 1, big).unwrap();
        let h2 = Task::hi(1, 1_000_000_000, 1, 2).unwrap();
        let tasks = vec![vd(h1, 1), vd(h2, 1)];
        let r = check_hi_mode(&tasks);
        assert!(matches!(r, DemandCheck::Violation(_)), "{r:?}");
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
