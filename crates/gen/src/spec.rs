//! Task-set specification and generation.

use crate::grid::GridPoint;
use crate::periods::log_uniform_period;
use crate::uunifast::{paired_utilizations, uunifast_bounded};
use mcsched_model::{Task, TaskSet};
use rand::{Rng, RngExt};
use std::error::Error;
use std::fmt;

/// Whether generated tasks have implicit (`D = T`) or constrained
/// (`D ~ U[C^H, T]`) deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadlineModel {
    /// `Di = Ti` for every task.
    Implicit,
    /// `Di` drawn uniformly from `[C^H_i, Ti]`.
    Constrained,
}

impl fmt::Display for DeadlineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlineModel::Implicit => write!(f, "implicit"),
            DeadlineModel::Constrained => write!(f, "constrained"),
        }
    }
}

/// A generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GenError {
    /// No task count in `[n_min, n_max]` can satisfy the utilization
    /// targets under the `umin`/`umax` bounds.
    InfeasibleTaskCount,
    /// Utilization sampling failed to satisfy the per-task bounds within
    /// the retry budget.
    SamplingExhausted,
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::InfeasibleTaskCount => {
                write!(f, "no feasible task count for the utilization targets")
            }
            GenError::SamplingExhausted => {
                write!(f, "utilization sampling exhausted its retry budget")
            }
        }
    }
}

impl Error for GenError {}

/// A complete specification for random dual-criticality task sets,
/// mirroring §IV of the DATE 2017 paper.
///
/// # Example
///
/// ```
/// use mcsched_gen::{TaskSetSpec, DeadlineModel, GridPoint};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let point = GridPoint { u_hh: 0.6, u_hl: 0.3, u_ll: 0.3 };
/// let spec = TaskSetSpec::paper_defaults(4, point, DeadlineModel::Constrained);
/// let mut rng = StdRng::seed_from_u64(1);
/// let ts = spec.generate(&mut rng).expect("feasible");
/// let u = ts.system_utilization();
/// // The integer quantization C = ⌈u·T⌉ only ever rounds up, slightly.
/// assert!(u.u_hh >= 0.6 * 4.0 - 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSetSpec {
    /// Number of processors `m` (used to scale the normalized targets and
    /// to bound the task count).
    pub processors: usize,
    /// Normalized utilization targets.
    pub point: GridPoint,
    /// Fraction of HC tasks, `P_H`.
    pub p_h: f64,
    /// Deadline model.
    pub deadlines: DeadlineModel,
    /// Minimum individual task utilization.
    pub umin: f64,
    /// Maximum individual task utilization.
    pub umax: f64,
    /// Inclusive task-count bounds (the paper uses `[m+1, 5m]`).
    pub n_min: usize,
    /// See [`TaskSetSpec::n_min`].
    pub n_max: usize,
    /// Inclusive period bounds (the paper uses `[10, 500]`).
    pub period_min: u64,
    /// See [`TaskSetSpec::period_min`].
    pub period_max: u64,
}

impl TaskSetSpec {
    /// The paper's default parameters for `m` processors at one grid point:
    /// `P_H = 0.5`, `umin = 0.001`, `umax = 0.99`, `n ∈ [m+1, 5m]`,
    /// `T ∈ [10, 500]` log-uniform.
    pub fn paper_defaults(m: usize, point: GridPoint, deadlines: DeadlineModel) -> Self {
        TaskSetSpec {
            processors: m,
            point,
            p_h: 0.5,
            deadlines,
            umin: 0.001,
            umax: 0.99,
            n_min: m + 1,
            n_max: 5 * m,
            period_min: 10,
            period_max: 500,
        }
    }

    /// Overrides the HC-task fraction `P_H` (Fig. 6 sweeps it over
    /// `{0.1, 0.3, 0.5, 0.7, 0.9}`).
    pub fn with_p_h(mut self, p_h: f64) -> Self {
        self.p_h = p_h;
        self
    }

    /// The unnormalized utilization targets `(Σ u^L_HC, Σ u^H_HC, Σ u^L_LC)`.
    fn totals(&self) -> (f64, f64, f64) {
        let m = self.processors as f64;
        (
            self.point.u_hl * m,
            self.point.u_hh * m,
            self.point.u_ll * m,
        )
    }

    /// Splits a candidate task count into `(n_hc, n_lc)` and checks both
    /// sides can hit their targets under the bounds.
    fn feasible_split(&self, n: usize) -> Option<(usize, usize)> {
        let (t_hl, t_hh, t_ll) = self.totals();
        let mut n_hc = (self.p_h * n as f64).round() as usize;
        // At least one task on each side that has utilization to place.
        if t_hh > 0.0 {
            n_hc = n_hc.max(1);
        }
        if t_ll > 0.0 && n_hc >= n {
            n_hc = n - 1;
        }
        let n_lc = n - n_hc;
        let ok_side = |count: usize, total: f64| -> bool {
            if total <= 1e-12 {
                return count == 0 || total <= 1e-12;
            }
            count > 0
                && total >= count as f64 * self.umin - 1e-9
                && total <= count as f64 * self.umax + 1e-9
        };
        // The low side of HC pairs must fit the same caps (t_hl ≤ t_hh
        // suffices given the pairing construction, plus the umin floor).
        if ok_side(n_hc, t_hh) && ok_side(n_lc, t_ll) && t_hl <= t_hh + 1e-9 {
            Some((n_hc, n_lc))
        } else {
            None
        }
    }

    /// Generates one task set.
    ///
    /// # Errors
    ///
    /// * [`GenError::InfeasibleTaskCount`] — no `n ∈ [n_min, n_max]` admits
    ///   the utilization targets (e.g. `U_H^H·m = 7.92` needs at least
    ///   eight HC tasks at `umax = 0.99`).
    /// * [`GenError::SamplingExhausted`] — bounded simplex sampling failed
    ///   repeatedly; practically impossible for the paper's grid.
    pub fn generate(&self, rng: &mut impl Rng) -> Result<TaskSet, GenError> {
        let feasible: Vec<(usize, usize, usize)> = (self.n_min..=self.n_max)
            .filter_map(|n| self.feasible_split(n).map(|(h, l)| (n, h, l)))
            .collect();
        if feasible.is_empty() {
            return Err(GenError::InfeasibleTaskCount);
        }
        let &(_, n_hc, n_lc) = &feasible[rng.random_range(0..feasible.len())];
        let (t_hl, t_hh, t_ll) = self.totals();

        let pairs = paired_utilizations(rng, n_hc, t_hl, t_hh, self.umin, self.umax)
            .ok_or(GenError::SamplingExhausted)?;
        let lc_utils = if n_lc == 0 {
            Vec::new()
        } else {
            uunifast_bounded(rng, n_lc, t_ll, self.umin, self.umax)
                .ok_or(GenError::SamplingExhausted)?
        };

        let mut ts = TaskSet::with_capacity(n_hc + n_lc);
        let mut id = 0u32;
        for (u_lo, u_hi) in pairs {
            let t = log_uniform_period(rng, self.period_min, self.period_max);
            let c_lo = ((u_lo * t as f64).ceil() as u64).clamp(1, t);
            let c_hi = ((u_hi * t as f64).ceil() as u64).clamp(c_lo, t);
            let task = match self.deadlines {
                DeadlineModel::Implicit => Task::hi(id, t, c_lo, c_hi),
                DeadlineModel::Constrained => {
                    let d = rng.random_range(c_hi..=t);
                    Task::hi_constrained(id, t, c_lo, c_hi, d)
                }
            }
            .expect("generator-produced parameters satisfy the model");
            ts.push_unchecked(task);
            id += 1;
        }
        for u in lc_utils {
            let t = log_uniform_period(rng, self.period_min, self.period_max);
            let c = ((u * t as f64).ceil() as u64).clamp(1, t);
            let task = match self.deadlines {
                DeadlineModel::Implicit => Task::lo(id, t, c),
                DeadlineModel::Constrained => {
                    let d = rng.random_range(c..=t);
                    Task::lo_constrained(id, t, c, d)
                }
            }
            .expect("generator-produced parameters satisfy the model");
            ts.push_unchecked(task);
            id += 1;
        }
        Ok(ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn spec(m: usize, u_hh: f64, u_hl: f64, u_ll: f64) -> TaskSetSpec {
        TaskSetSpec::paper_defaults(m, GridPoint { u_hh, u_hl, u_ll }, DeadlineModel::Implicit)
    }

    #[test]
    fn generates_within_structure() {
        let mut rng = StdRng::seed_from_u64(100);
        let s = spec(2, 0.5, 0.25, 0.3);
        for _ in 0..50 {
            let ts = s.generate(&mut rng).unwrap();
            assert!(ts.len() >= 3 && ts.len() <= 10, "n = {}", ts.len());
            assert!(ts.validate().is_ok());
            for t in &ts {
                assert!((10..=500).contains(&t.period().as_ticks()));
                assert!(t.is_implicit_deadline());
                assert!(t.wcet_lo().as_ticks() >= 1);
            }
            assert!(ts.hi_tasks().count() >= 1);
            assert!(ts.lo_tasks().count() >= 1);
        }
    }

    #[test]
    fn utilization_targets_hit_modulo_quantization() {
        let mut rng = StdRng::seed_from_u64(101);
        let s = spec(4, 0.6, 0.3, 0.35);
        for _ in 0..20 {
            let ts = s.generate(&mut rng).unwrap();
            let u = ts.system_utilization();
            // ⌈u·T⌉ rounds up by at most 1/T ≤ 0.1 per task.
            let slop = 0.1 * ts.len() as f64;
            assert!(u.u_hh >= 0.6 * 4.0 - 1e-9 && u.u_hh <= 0.6 * 4.0 + slop);
            assert!(u.u_hl >= 0.3 * 4.0 - 1e-9 && u.u_hl <= 0.3 * 4.0 + slop);
            assert!(u.u_ll >= 0.35 * 4.0 - 1e-9 && u.u_ll <= 0.35 * 4.0 + slop);
        }
    }

    #[test]
    fn constrained_deadlines_in_range() {
        let mut rng = StdRng::seed_from_u64(102);
        let s = TaskSetSpec::paper_defaults(
            2,
            GridPoint {
                u_hh: 0.4,
                u_hl: 0.2,
                u_ll: 0.3,
            },
            DeadlineModel::Constrained,
        );
        for _ in 0..50 {
            let ts = s.generate(&mut rng).unwrap();
            for t in &ts {
                assert!(t.deadline() <= t.period());
                assert!(t.deadline() >= t.wcet_hi());
            }
        }
    }

    #[test]
    fn high_utilization_needs_more_tasks() {
        // U_H^H = 0.99 on m = 8 → 7.92 total → at least 8 HC tasks; with
        // P_H = 0.5 that means n ≥ 16, still within [9, 40].
        let mut rng = StdRng::seed_from_u64(103);
        let s = spec(8, 0.99, 0.45, 0.35);
        let ts = s.generate(&mut rng).unwrap();
        assert!(ts.hi_tasks().count() >= 8);
    }

    #[test]
    fn infeasible_targets_rejected() {
        // m = 2, U_H^H = 0.99 → 1.98 total. With P_H pushing HC count to 1
        // it's infeasible, but the generator may rebalance n; make it truly
        // impossible: n_max HC tasks cannot absorb 1.98 at umax=0.99 only if
        // fewer than 2 HC tasks — force with tiny n_max.
        let mut s = spec(2, 0.99, 0.5, 0.3);
        s.n_max = 2;
        s.n_min = 2;
        let mut rng = StdRng::seed_from_u64(104);
        assert_eq!(s.generate(&mut rng), Err(GenError::InfeasibleTaskCount));
    }

    #[test]
    fn p_h_sweep_changes_composition() {
        let mut rng = StdRng::seed_from_u64(105);
        let lo_ph = spec(4, 0.3, 0.15, 0.3).with_p_h(0.1);
        let hi_ph = spec(4, 0.3, 0.15, 0.3).with_p_h(0.9);
        let mut lo_frac = 0.0;
        let mut hi_frac = 0.0;
        for _ in 0..30 {
            let a = lo_ph.generate(&mut rng).unwrap();
            let b = hi_ph.generate(&mut rng).unwrap();
            lo_frac += a.hi_tasks().count() as f64 / a.len() as f64;
            hi_frac += b.hi_tasks().count() as f64 / b.len() as f64;
        }
        assert!(
            lo_frac / 30.0 < 0.35,
            "P_H=0.1 should yield few HC tasks ({})",
            lo_frac / 30.0
        );
        assert!(
            hi_frac / 30.0 > 0.65,
            "P_H=0.9 should yield many HC tasks ({})",
            hi_frac / 30.0
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let s = spec(2, 0.5, 0.25, 0.3);
        let a = s.generate(&mut StdRng::seed_from_u64(7)).unwrap();
        let b = s.generate(&mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
        let c = s.generate(&mut StdRng::seed_from_u64(8)).unwrap();
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn display_and_errors() {
        assert_eq!(DeadlineModel::Implicit.to_string(), "implicit");
        assert_eq!(DeadlineModel::Constrained.to_string(), "constrained");
        assert!(GenError::InfeasibleTaskCount
            .to_string()
            .contains("task count"));
        assert!(GenError::SamplingExhausted.to_string().contains("retry"));
    }
}
