// mclint: hot-path
//! The **sufficient ("fast") admission tier**: allocation-free O(1)
//! pre-checks the service plane answers with when the exact worker pool
//! saturates.
//!
//! Every rule is *sound in the accept direction*: a fast **accept**
//! guarantees the session's exact test would also accept, so a degraded
//! worker may commit the task and the session stays valid when an exact
//! worker later picks it up. A fast **reject** is advisory only ("could
//! not prove it cheaply") — the client may retry for an exact verdict.
//!
//! The rules, per exact test (see [`FastRule`]):
//!
//! | exact test | fast rule | soundness |
//! |---|---|---|
//! | EDF-VD | the closed form itself | exact: the fast tier *is* the test |
//! | EY / ECDF | LC-only density ≤ 1 | provable against the implementations: with zero HC tasks the high-mode demand is identically zero (the tuner's round-0 check passes untightened) and LO density ≤ 1 implies the exact QPA demand check passes — so both searches accept immediately. Own-level density bounds are **not** sound here: the tuners are greedy heuristics, and `tests/sufficient.rs` pins under-the-bound HC sets that EY (implicit) and ECDF (constrained) reject |
//! | AMC-rtb / AMC-max | own-level density ≤ Liu–Layland bound | LL ⇒ RM-feasible on the deadline-shrunk system ⇒ own-level DM RTA fits ⇒ AMC-rtb's lo/hi recurrences are dominated term-by-term ⇒ AMC-max by dominance |
//!
//! A rule charging HC tasks their own budget (`Σ C^own/min(D,T) ≤ 1`)
//! was tried and *rejected*: it is a true feasibility bound, but the
//! demand tests are heuristic searches, not feasibility oracles, and
//! the property suite found sets under the bound that they reject. The
//! degraded tier therefore proves nothing about HC admissions — they
//! always answer "unproven, retry exact", which is also the sensible
//! service story: criticality decisions deserve the exact tier.
//!
//! *Own-level density* charges every task its own-criticality budget
//! `C^own` (`C^L` for LC, `C^H` for HC — [`Task::wcet_own`]) against
//! `min(D, T)`: the cost of reserving the task's worst budget in every
//! mode. Whatever passes that reservation passes every mode-aware test
//! the workspace ships (the utilization-difference tests exist because
//! the reservation is *pessimistic* — which is exactly what makes it a
//! sound one-sided filter).
//!
//! Floating-point: the density comparisons subtract [`FP_GUARD`] so a
//! rounded-*down* sum can never smuggle a mathematically-over-bound set
//! past the rule; the EDF-VD closed form needs no guard because it
//! evaluates bit-identically to the exact state's own arithmetic.
//! `tests/sufficient.rs` property-checks accept-soundness for all five
//! tests over both deadline models.

use crate::edfvd;
use crate::incremental::{AdmissionState, AdmissionStats, Committed};
use mcsched_model::{SystemUtilization, Task, TaskId, TaskSet};

/// Absolute slack subtracted from density bounds to absorb float
/// rounding: summing n ≤ 10⁵ terms each ≤ 2¹⁰ loses at most ~n·2⁻⁴³,
/// orders of magnitude below this guard.
pub const FP_GUARD: f64 = 1e-9;

/// Which sufficient condition a [`FastState`] evaluates (see the
/// [module docs](self) for the soundness argument of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastRule {
    /// The EDF-VD closed form on running `(U_LL, U_HL, U_HH)` density
    /// sums — the exact EDF-VD verdict, bit-identical to
    /// [`EdfVdState`](crate::EdfVdState).
    EdfVdClosedForm,
    /// Accept only LC tasks, under `Σ C^L / min(D, T) ≤ 1 − FP_GUARD`,
    /// and only while no HC task is committed (a recovered session may
    /// hold exact-tier HC commits; after that everything is "unproven").
    /// Provably sound for both demand-test implementations: no HC tasks
    /// ⇒ zero high-mode demand ⇒ the round-0 check passes, and density
    /// ≤ 1 ⇒ the exact LO-mode QPA check passes. Fronts EY and ECDF,
    /// whose greedy searches honour no cheap bound on HC-bearing sets.
    LcOnlyDensity,
    /// `Σ C^own / min(D, T) ≤ n(2^(1/n) − 1) − FP_GUARD` (Liu–Layland
    /// with `n` the post-admit task count): the own-level reservation is
    /// fixed-priority-feasible. Sound for the AMC RTA tests.
    LiuLaylandOwnDensity,
}

/// One task's own-level density: `C^own / min(D, T)`.
fn own_density(t: &Task) -> f64 {
    t.wcet_own().as_f64() / t.deadline().min(t.period()).as_f64()
}

/// The Liu–Layland utilization bound `n(2^(1/n) − 1)`.
fn ll_bound(n: usize) -> f64 {
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// An allocation-free sufficient admission state: running density sums
/// plus the [`FastRule`] decision, implementing [`AdmissionState`] so it
/// drops into the same cluster-session machinery as the exact states.
///
/// Accept is sound (the exact test would accept too); reject means
/// "unproven", not "infeasible".
#[derive(Debug, Clone)]
pub struct FastState {
    rule: FastRule,
    committed: Committed,
    sums: edfvd::Sums,
    own_density: f64,
    /// Committed HC tasks (only reachable through `commit` without a
    /// fast accept, i.e. a cross-tier session restore) — the LC-only
    /// rule refuses to extend such a set.
    hc_committed: usize,
}

impl FastState {
    /// An empty state deciding by `rule`.
    pub fn new(rule: FastRule) -> Self {
        FastState {
            rule,
            committed: Committed::default(),
            sums: edfvd::Sums::default(),
            own_density: 0.0,
            hc_committed: 0,
        }
    }

    /// The rule this state decides by.
    pub fn rule(&self) -> FastRule {
        self.rule
    }

    /// Would the committed tasks plus `task` pass the rule? Pure O(1)
    /// check; no state change.
    fn would_accept(&self, task: &Task) -> bool {
        match self.rule {
            FastRule::EdfVdClosedForm => {
                let mut sums = self.sums;
                sums.accumulate(task);
                edfvd::scaling_factor_from(&sums).is_some()
            }
            FastRule::LcOnlyDensity => {
                task.criticality().is_low()
                    && self.hc_committed == 0
                    && self.own_density + own_density(task) <= 1.0 - FP_GUARD
            }
            FastRule::LiuLaylandOwnDensity => {
                let n = self.committed.tasks.len() + 1;
                self.own_density + own_density(task) <= ll_bound(n) - FP_GUARD
            }
        }
    }

    /// Recomputes both running sums from the committed tasks, in
    /// insertion order (bit-identical to the accumulate path — the same
    /// discipline [`Committed`] uses for its summary).
    fn recompute(&mut self) {
        self.sums = edfvd::Sums::default();
        self.own_density = 0.0;
        self.hc_committed = 0;
        for t in self.committed.tasks.iter() {
            self.sums.accumulate(t);
            self.own_density += own_density(t);
            if t.criticality().is_high() {
                self.hc_committed += 1;
            }
        }
    }
}

impl AdmissionState for FastState {
    fn try_admit(&mut self, task: &Task) -> bool {
        let ok = self.would_accept(task);
        self.committed.record(true, ok);
        ok
    }

    fn commit(&mut self, task: Task) {
        self.sums.accumulate(&task);
        self.own_density += own_density(&task);
        if task.criticality().is_high() {
            self.hc_committed += 1;
        }
        self.committed.push(task);
    }

    fn remove(&mut self, id: TaskId) -> bool {
        let removed = self.committed.remove(id).is_some();
        if removed {
            self.recompute();
        }
        removed
    }

    fn summary(&self) -> SystemUtilization {
        self.committed.summary
    }

    fn tasks(&self) -> &TaskSet {
        &self.committed.tasks
    }

    fn take_tasks(&mut self) -> TaskSet {
        let tasks = self.committed.take();
        self.sums = edfvd::Sums::default();
        self.own_density = 0.0;
        self.hc_committed = 0;
        tasks
    }

    fn stats(&self) -> AdmissionStats {
        self.committed.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdfVd, SchedulabilityTest, WorkspaceRef};

    fn lo(id: u32, period: u64, wcet: u64) -> Task {
        Task::lo(id, period, wcet).expect("valid LC task")
    }

    fn hi(id: u32, period: u64, wcet_lo: u64, wcet_hi: u64) -> Task {
        Task::hi(id, period, wcet_lo, wcet_hi).expect("valid HC task")
    }

    #[test]
    fn edfvd_rule_matches_the_exact_state_verdicts() {
        let mut fast = FastState::new(FastRule::EdfVdClosedForm);
        let test = EdfVd::new();
        let mut exact = test.admission_state_in(&WorkspaceRef::new());
        let tasks = [
            lo(1, 10, 3),
            hi(2, 20, 4, 9),
            lo(3, 5, 2),
            hi(4, 40, 8, 20),
            lo(5, 8, 5),
        ];
        for t in tasks {
            assert_eq!(fast.try_admit(&t), exact.try_admit(&t), "task {t:?}");
            if exact.try_admit(&t) {
                fast.commit(t);
                exact.commit(t);
            }
        }
        assert_eq!(fast.summary(), exact.summary());
    }

    #[test]
    fn density_rules_accept_light_and_reject_heavy() {
        for rule in [FastRule::LcOnlyDensity, FastRule::LiuLaylandOwnDensity] {
            let mut fast = FastState::new(rule);
            assert!(fast.try_admit(&lo(1, 100, 10)), "{rule:?} light task");
            fast.commit(lo(1, 100, 10));
            // Own-level density 1.0 on top of 0.1 busts every bound (and
            // the LC-only rule rejects the HC task outright).
            assert!(!fast.try_admit(&hi(2, 10, 5, 10)), "{rule:?} heavy task");
        }
    }

    #[test]
    fn lc_only_rule_rejects_hc_and_restored_hc_poisons_the_state() {
        let mut fast = FastState::new(FastRule::LcOnlyDensity);
        // A feather-weight HC task is still refused: the rule proves
        // nothing about high-mode demand.
        assert!(!fast.try_admit(&hi(1, 1000, 1, 2)));
        assert!(fast.try_admit(&lo(2, 10, 3)));
        fast.commit(lo(2, 10, 3));
        // A cross-tier restore may force-commit an HC task; afterwards
        // even trivial LC admissions are "unproven".
        fast.commit(hi(3, 1000, 1, 2));
        assert!(!fast.try_admit(&lo(4, 1000, 1)));
        // Removing the HC task restores the provable region.
        assert!(fast.remove(TaskId(3)));
        assert!(fast.try_admit(&lo(4, 1000, 1)));
    }

    #[test]
    fn fast_accepts_imply_exact_accepts_on_a_quick_sweep() {
        // The full property test lives in tests/sufficient.rs; this is
        // the smoke version over a few handmade sets.
        let sets = [
            vec![lo(1, 10, 2), hi(2, 20, 2, 5), lo(3, 40, 4)],
            vec![hi(1, 5, 1, 2), hi(2, 50, 5, 20), lo(3, 25, 3)],
        ];
        for tasks in &sets {
            let mut fast = FastState::new(FastRule::LcOnlyDensity);
            let mut committed = TaskSet::new();
            for t in tasks {
                if fast.try_admit(t) {
                    fast.commit(*t);
                    committed.push_unchecked(*t);
                    let ecdf = crate::Ecdf::new();
                    assert!(
                        ecdf.is_schedulable(&committed),
                        "fast accept not honored by ECDF on {committed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn remove_restores_capacity_and_sums() {
        let mut fast = FastState::new(FastRule::LcOnlyDensity);
        let a = lo(1, 10, 4);
        let b = lo(2, 10, 4);
        let c = lo(3, 10, 4);
        for t in [a, b] {
            assert!(fast.try_admit(&t));
            fast.commit(t);
        }
        assert!(!fast.try_admit(&c), "0.8 + 0.4 over the density bound");
        assert!(fast.remove(TaskId(1)));
        assert!(fast.try_admit(&c), "capacity restored after remove");
        assert!(!fast.remove(TaskId(99)));
        assert_eq!(fast.tasks().len(), 1);
        let taken = fast.take_tasks();
        assert_eq!(taken.len(), 1);
        assert!(fast.try_admit(&c), "reset state accepts again");
        assert!(fast.stats().attempts >= 4);
    }

    #[test]
    fn ll_bound_is_monotone_decreasing_toward_ln2() {
        assert!((ll_bound(1) - 1.0).abs() < 1e-12);
        assert!(ll_bound(2) < ll_bound(1));
        assert!(ll_bound(100) > 0.69 && ll_bound(100) < ll_bound(10));
    }
}
