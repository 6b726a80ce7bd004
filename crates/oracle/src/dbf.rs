//! The seed demand checks: flat, per-call QPA over the Ekberg–Yi demand
//! bounds of `mcsched_analysis::dbf`, plus the brute-force demand sums
//! and [`DemandCurve`].
//!
//! `mcsched_analysis::demand::DemandKernel` must reproduce every verdict
//! here — violation witnesses included — bit-identically. Note the seed
//! horizons are *not* clamped: the overflow fix applies to the kernel
//! path only.

use mcsched_analysis::dbf::{dbf_hi, dbf_lo};
use mcsched_analysis::{DemandCheck, VdTask};
use mcsched_model::Time;

/// Iteration budget for the QPA descent (the kernel's value).
const QPA_BUDGET: usize = 100_000;

/// Epsilon below which a utilization sum is treated as saturating the
/// processor (the kernel's value).
const UTIL_EPS: f64 = 1e-9;

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

/// QPA-style verification that `h(t) ≤ t` for all integer
/// `t ∈ [0, bound]`, for a nondecreasing integer demand function `h`.
fn qpa_check(bound: u64, h: impl Fn(Time) -> Time) -> DemandCheck {
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
        k += vt.task.wcet_hi().as_f64() + u * (vt.task.period().saturating_sub(vt.dist())).as_f64();
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

/// A sampled demand curve, convenient for inspection, plotting and tests.
///
/// # Example
///
/// ```
/// use mcsched_model::Task;
/// use mcsched_analysis::VdTask;
/// use mcsched_oracle::dbf::DemandCurve;
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
    use super as reference;
    use super::DemandCurve;
    use mcsched_analysis::DemandKernel;
    use mcsched_analysis::{DemandCheck, VdTask};
    use mcsched_model::{Task, Time};

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
}
