//! EDF-VD: Earliest Deadline First with Virtual Deadlines.
//!
//! The utilization-based uniprocessor test of Baruah, Bonifaci, D'Angelo,
//! Li, Marchetti-Spaccamela, van der Ster & Stougie (ECRTS 2012,
//! Theorems 1 and 2), with optimal speed-up bound 4/3 for implicit-deadline
//! dual-criticality systems. Combined with any partitioning strategy that
//! tries every processor before declaring failure, the resulting partitioned
//! algorithm has speed-up 8/3 (Baruah et al., *Real-Time Systems* 50(1),
//! Theorem 9) — both UDP strategies have that property.
//!
//! ## Test statement
//!
//! With per-processor utilization sums `U_LL = Σ_LC u^L`, `U_HL = Σ_HC u^L`,
//! `U_HH = Σ_HC u^H`:
//!
//! 1. if `U_LL + U_HH ≤ 1` — schedulable by plain EDF (no virtual
//!    deadlines needed);
//! 2. otherwise pick the scaling factor `x = U_HL / (1 − U_LL)`
//!    (Theorem 1 makes low mode schedulable for any `x` at least this
//!    large), and accept iff `x·U_LL + U_HH ≤ 1` (Theorem 2: high mode).
//!
//! The acceptance region can equivalently be written in the "gap" form the
//! DATE 2017 paper quotes next to Fig. 1:
//! `U_LL ≤ (1 − U_HH) / (1 − (U_HH − U_HL))` — the right-hand side grows as
//! the utilization difference `U_HH − U_HL` shrinks, which is exactly the
//! pessimism the UDP partitioning strategies attack. Unit tests verify the
//! two forms agree on a dense grid.
//!
//! Deadlines: the published test covers implicit deadlines. For
//! constrained-deadline sets this implementation conservatively substitutes
//! densities (`C/D`) for utilizations, which preserves sufficiency of both
//! theorems' arguments (demand over any interval is bounded by density ×
//! length); the DATE 2017 evaluation only exercises EDF-VD on
//! implicit-deadline systems, matching the paper.

use crate::incremental::{AdmissionState, AdmissionStats, Committed};
use crate::{SchedulabilityTest, WorkspaceRef};
use mcsched_model::{SystemUtilization, Task, TaskId, TaskSet, Time};

/// The EDF-VD utilization-based schedulability test.
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_analysis::{EdfVd, SchedulabilityTest};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// // U_LL = 0.3, U_HL = 0.3, U_HH = 0.6: x = 3/7, x·U_LL + U_HH ≈ 0.73 ≤ 1.
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 3, 6)?,
///     Task::lo(1, 10, 3)?,
/// ])?;
/// let test = EdfVd::new();
/// assert!(test.is_schedulable(&ts));
/// // The scaling factor used for the virtual deadlines:
/// let x = test.scaling_factor(&ts).expect("schedulable");
/// assert!(x > 0.0 && x <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdfVd {
    _priv: (),
}

/// The three utilization (or density, for constrained deadlines) sums the
/// test is computed from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Sums {
    u_ll: f64,
    u_hl: f64,
    u_hh: f64,
}

impl Sums {
    /// Adds one task's density terms. Shared by the one-shot path and the
    /// incremental state so running sums stay bit-identical to a
    /// from-scratch recomputation in insertion order.
    fn accumulate(&mut self, t: &Task) {
        // Density C/min(D,T) equals utilization for implicit deadlines.
        if t.criticality().is_high() {
            self.u_hl += t.density_lo();
            self.u_hh += t.density_hi();
        } else {
            self.u_ll += t.density_lo();
        }
    }
}

fn sums(ts: &TaskSet) -> Sums {
    let mut s = Sums::default();
    for t in ts {
        s.accumulate(t);
    }
    s
}

/// The closed-form EDF-VD acceptance evaluated on precomputed sums
/// (Theorems 1 and 2; see [`EdfVd::scaling_factor`]).
fn scaling_factor_from(s: &Sums) -> Option<f64> {
    // Low mode must be feasible for some x ≤ 1; at best (x = 1) its
    // demand is U_LL + U_HL.
    if s.u_ll + s.u_hl > 1.0 {
        return None;
    }
    // Theorem-free fast path: plain EDF handles both modes.
    if s.u_ll + s.u_hh <= 1.0 {
        return Some(1.0);
    }
    if s.u_ll >= 1.0 {
        return None;
    }
    // Theorem 1: x ≥ U_HL / (1 − U_LL) makes the low mode schedulable;
    // Theorem 2 then requires x·U_LL + U_HH ≤ 1, which is monotone in x,
    // so the smallest admissible x is the one to check. When the check
    // passes, x ≤ 1 follows (x·U_LL + U_HH ≥ x because U_HH ≥ U_HL and
    // algebra), but we guard explicitly.
    let x = s.u_hl / (1.0 - s.u_ll);
    if x > 0.0 && x <= 1.0 && x * s.u_ll + s.u_hh <= 1.0 {
        Some(x)
    } else {
        None
    }
}

impl EdfVd {
    /// Creates the test.
    pub const fn new() -> Self {
        EdfVd { _priv: () }
    }

    /// The virtual-deadline scaling factor `x ∈ (0, 1]` EDF-VD would use for
    /// this set, or `None` if the set fails the test.
    ///
    /// When plain EDF suffices (`U_LL + U_HH ≤ 1`) the factor is `1.0`
    /// (virtual deadlines coincide with real deadlines).
    pub fn scaling_factor(&self, ts: &TaskSet) -> Option<f64> {
        scaling_factor_from(&sums(ts))
    }

    /// The virtual deadline EDF-VD assigns to each task under the scaling
    /// factor `x`: `⌊x · Di⌋` for HC tasks (clamped below by `C^L_i` so the
    /// low-mode budget fits), `Di` for LC tasks.
    ///
    /// Used by the runtime simulator; returns one entry per task in set
    /// order.
    pub fn virtual_deadlines(&self, ts: &TaskSet, x: f64) -> Vec<Time> {
        ts.iter()
            .map(|t: &Task| {
                if t.criticality().is_high() {
                    let scaled = (x * t.deadline().as_f64()).floor() as u64;
                    Time::new(scaled).max(t.wcet_lo())
                } else {
                    t.deadline()
                }
            })
            .collect()
    }

    /// The paper's equivalent "gap" formulation of the acceptance region:
    /// `U_LL ≤ (1 − U_HH) / (1 − (U_HH − U_HL))`, plus the low-mode
    /// feasibility requirement `U_LL + U_HL ≤ 1` and `U_HH ≤ 1`.
    ///
    /// Exposed (and unit-tested) to document that the test's pessimism is
    /// controlled by the utilization difference `U_HH − U_HL`.
    pub fn gap_form_accepts(&self, ts: &TaskSet) -> bool {
        let s = sums(ts);
        if s.u_hh > 1.0 || s.u_ll + s.u_hl > 1.0 {
            return false;
        }
        if s.u_ll + s.u_hh <= 1.0 {
            return true;
        }
        let denom = 1.0 - (s.u_hh - s.u_hl);
        // denom > 0 always here: u_hh ≤ 1 and u_hl ≥ 0 give u_hh − u_hl ≤ 1,
        // and equality forces u_hh = 1, u_hl = 0, impossible for non-empty HC
        // tasks (integer C^L ≥ 1 ⇒ u_hl > 0).
        denom > 0.0 && s.u_ll <= (1.0 - s.u_hh) / denom
    }
}

impl SchedulabilityTest for EdfVd {
    fn name(&self) -> &'static str {
        "EDF-VD"
    }

    fn is_schedulable(&self, ts: &TaskSet) -> bool {
        self.scaling_factor(ts).is_some()
    }

    fn admission_state_in(&self, ws: &WorkspaceRef) -> Box<dyn AdmissionState + '_> {
        let _ = ws;
        Box::new(EdfVdState::default())
    }
}

/// Incremental EDF-VD admission: the running `(U_LL, U_HL, U_HH)` density
/// sums of the committed tasks, so each admission query evaluates the
/// closed-form condition in **O(1)** instead of re-summing the set.
///
/// Because the running sums accumulate in insertion order — the same order
/// a one-shot analysis of the union would use — the verdicts are
/// bit-identical to clone-and-retest.
#[derive(Debug, Clone, Default)]
pub struct EdfVdState {
    committed: Committed,
    sums: Sums,
}

impl AdmissionState for EdfVdState {
    fn try_admit(&mut self, task: &Task) -> bool {
        let mut s = self.sums;
        s.accumulate(task);
        let ok = scaling_factor_from(&s).is_some();
        self.committed.record(true, ok);
        ok
    }

    fn commit(&mut self, task: Task) {
        self.sums.accumulate(&task);
        self.committed.push(task);
    }

    fn remove(&mut self, id: TaskId) -> bool {
        if self.committed.remove(id).is_none() {
            return false;
        }
        self.sums = sums(&self.committed.tasks);
        true
    }

    fn summary(&self) -> SystemUtilization {
        self.committed.summary
    }

    fn tasks(&self) -> &TaskSet {
        &self.committed.tasks
    }

    fn take_tasks(&mut self) -> TaskSet {
        self.sums = Sums::default();
        self.committed.take()
    }

    fn stats(&self) -> AdmissionStats {
        self.committed.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_model::Task;

    fn hc(id: u32, t: u64, cl: u64, ch: u64) -> Task {
        Task::hi(id, t, cl, ch).unwrap()
    }
    fn lc(id: u32, t: u64, c: u64) -> Task {
        Task::lo(id, t, c).unwrap()
    }

    #[test]
    fn empty_set_schedulable() {
        assert!(EdfVd::new().is_schedulable(&TaskSet::new()));
    }

    #[test]
    fn plain_edf_case() {
        // U_LL + U_HH = 0.2 + 0.4 ≤ 1 → x = 1.
        let ts = TaskSet::try_from_tasks(vec![hc(0, 10, 2, 4), lc(1, 10, 2)]).unwrap();
        assert_eq!(EdfVd::new().scaling_factor(&ts), Some(1.0));
    }

    #[test]
    fn scaled_case_accepts() {
        // U_LL = 0.4, U_HL = 0.2, U_HH = 0.65:
        // U_LL + U_HH = 1.05 > 1 → x = 0.2/0.6 = 1/3,
        // x·U_LL + U_HH = 0.1333 + 0.65 ≤ 1. Accept.
        let ts = TaskSet::try_from_tasks(vec![hc(0, 100, 20, 65), lc(1, 100, 40)]).unwrap();
        let x = EdfVd::new().scaling_factor(&ts).unwrap();
        assert!((x - 1.0 / 3.0).abs() < 1e-9, "x = {x}");
    }

    #[test]
    fn overload_rejects() {
        // U_HH alone above 1.
        let ts = TaskSet::try_from_tasks(vec![hc(0, 10, 5, 9), hc(1, 10, 1, 3)]).unwrap();
        assert!(!EdfVd::new().is_schedulable(&ts));
    }

    #[test]
    fn lo_mode_overload_rejects() {
        // U_LL + U_HL > 1 → no x ≤ 1 can make the low mode feasible.
        let ts = TaskSet::try_from_tasks(vec![hc(0, 10, 6, 7), lc(1, 10, 5)]).unwrap();
        assert!(!EdfVd::new().is_schedulable(&ts));
    }

    #[test]
    fn high_mode_pessimism_rejects() {
        // U_LL = 0.6, U_HL = 0.1, U_HH = 0.9:
        // x = 0.1/0.4 = 0.25, x·U_LL + U_HH = 0.15 + 0.9 = 1.05 > 1. Reject.
        let ts = TaskSet::try_from_tasks(vec![hc(0, 100, 10, 90), lc(1, 100, 60)]).unwrap();
        assert!(!EdfVd::new().is_schedulable(&ts));
    }

    #[test]
    fn acceptance_monotone_in_each_utilization() {
        // Per processor the gap form reads
        // U_LL ≤ (1 − U_HH)/(1 − (U_HH − U_HL)): for fixed U_HH, raising
        // U_HL tightens the budget for LC work; for fixed U_HL, raising
        // U_HH tightens it even faster (both numerator and denominator
        // move against it). The *partitioning-level* benefit of balancing
        // U_HH − U_HL across processors — the paper's core observation —
        // is exercised in the `mcsched-core` Fig. 1 / Fig. 2 tests.
        let t = EdfVd::new();
        // Fixed U_HH = 0.9: U_HL = 0.8 admits U_LL up to 1/9 ≈ 0.111.
        let small_hl = TaskSet::try_from_tasks(vec![hc(0, 100, 10, 90), lc(1, 100, 11)]).unwrap();
        let large_hl = TaskSet::try_from_tasks(vec![hc(0, 100, 80, 90), lc(1, 100, 11)]).unwrap();
        assert!(t.is_schedulable(&small_hl));
        assert!(t.is_schedulable(&large_hl));
        // Push U_LL past the U_HL = 0.8 budget: only the light-U_HL set
        // survives ((1−0.9)/(1−0.8) = 0.5 vs (1−0.9)/(1−0.1) ≈ 0.111).
        let small_hl2 = TaskSet::try_from_tasks(vec![hc(0, 100, 10, 90), lc(1, 100, 20)]).unwrap();
        let large_hl2 = TaskSet::try_from_tasks(vec![hc(0, 100, 80, 90), lc(1, 100, 20)]).unwrap();
        assert!(t.is_schedulable(&small_hl2));
        assert!(!t.is_schedulable(&large_hl2));
    }

    #[test]
    fn gap_form_matches_x_form_on_grid() {
        // Sweep a dense parameter grid and require the two published
        // formulations to agree everywhere they are both defined.
        let test = EdfVd::new();
        for chl in 1..=99u64 {
            for chh in chl..=99 {
                for cll in 1..=99 {
                    let (u_hl, u_hh, u_ll) =
                        (chl as f64 / 100.0, chh as f64 / 100.0, cll as f64 / 100.0);
                    // Skip knife-edge points where the two algebraically
                    // equivalent forms can disagree through floating-point
                    // rounding alone.
                    let margin = u_ll * (1.0 - (u_hh - u_hl)) - (1.0 - u_hh);
                    if margin.abs() < 1e-9 {
                        continue;
                    }
                    let ts = TaskSet::try_from_tasks(vec![hc(0, 100, chl, chh), lc(1, 100, cll)])
                        .unwrap();
                    assert_eq!(
                        test.is_schedulable(&ts),
                        test.gap_form_accepts(&ts),
                        "mismatch at C^L_H={chl} C^H_H={chh} C_L={cll}"
                    );
                }
            }
        }
    }

    #[test]
    fn virtual_deadlines_respect_floor_and_budget() {
        let ts = TaskSet::try_from_tasks(vec![hc(0, 10, 2, 4), lc(1, 20, 2)]).unwrap();
        let t = EdfVd::new();
        let vds = t.virtual_deadlines(&ts, 0.5);
        assert_eq!(vds[0], Time::new(5)); // ⌊0.5·10⌋
        assert_eq!(vds[1], Time::new(20)); // LC keeps its deadline
        let vds = t.virtual_deadlines(&ts, 0.05);
        assert_eq!(vds[0], Time::new(2)); // clamped to C^L
    }

    #[test]
    fn hc_only_set() {
        let ts = TaskSet::try_from_tasks(vec![hc(0, 10, 2, 9)]).unwrap();
        assert!(EdfVd::new().is_schedulable(&ts));
        let ts = TaskSet::try_from_tasks(vec![hc(0, 10, 2, 9), hc(1, 10, 1, 2)]).unwrap();
        // U_HH = 1.1 > 1.
        assert!(!EdfVd::new().is_schedulable(&ts));
    }

    #[test]
    fn lc_only_set_is_plain_edf() {
        let ts = TaskSet::try_from_tasks(vec![lc(0, 10, 5), lc(1, 10, 5)]).unwrap();
        assert!(EdfVd::new().is_schedulable(&ts));
        let ts = TaskSet::try_from_tasks(vec![lc(0, 10, 5), lc(1, 10, 6)]).unwrap();
        assert!(!EdfVd::new().is_schedulable(&ts));
    }

    #[test]
    fn paper_figure1_failing_allocation() {
        // Fig. 1 of the paper: under CA-Wu-F, processor φ1 holds τ1 (HC) and
        // the LC task τ4 cannot be placed on either processor. We reproduce
        // the failing single-processor checks the caption's formula implies.
        // τ1: u^L = 0.3, u^H = 0.6; τ4: u^L = 0.5.
        let phi1 = TaskSet::try_from_tasks(vec![hc(0, 10, 3, 6), lc(3, 10, 5)]).unwrap();
        // Gap bound: (1−0.6)/(1−0.3) ≈ 0.571 < 0.5? 0.5 ≤ 0.571 — passes the
        // gap inequality, but low-mode x-feasibility also matters:
        // x = 0.3/(1−0.5) = 0.6, x·U_LL + U_HH = 0.3+0.6 = 0.9 ≤ 1 → accept.
        // (The concrete numbers in Fig. 1 are not printed in the paper text;
        // this test documents the mechanics of the caption's inequality.)
        assert_eq!(
            EdfVd::new().is_schedulable(&phi1),
            EdfVd::new().gap_form_accepts(&phi1)
        );
    }

    #[test]
    fn name() {
        assert_eq!(EdfVd::new().name(), "EDF-VD");
        assert_eq!(EdfVd::default(), EdfVd::new());
    }

    #[test]
    fn incremental_state_matches_one_shot_exactly() {
        let test = EdfVd::new();
        let mut state = test.admission_state_in(&WorkspaceRef::new());
        let tasks = [
            hc(0, 10, 2, 5),
            lc(1, 10, 4),
            hc(2, 20, 3, 9),
            lc(3, 25, 6),
            hc(4, 100, 20, 65),
            lc(5, 100, 40),
        ];
        for t in tasks {
            let mut union = state.tasks().clone();
            union.push_unchecked(t);
            let expected = test.is_schedulable(&union);
            assert_eq!(state.try_admit(&t), expected, "admitting {t}");
            if expected {
                state.commit(t);
            }
        }
        assert!(state.stats().incremental == state.stats().attempts);
        // Removal resyncs the density sums with a recomputation.
        let first = *state.tasks().iter().next().unwrap();
        assert!(state.remove(first.id()));
        let expected = {
            let mut union = state.tasks().clone();
            union.push_unchecked(first);
            test.is_schedulable(&union)
        };
        assert_eq!(state.try_admit(&first), expected);
    }
}
