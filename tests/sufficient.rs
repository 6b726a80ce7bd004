//! Accept-soundness of the degraded (sufficient) admission tier: a
//! fast-accept must imply the exact test accepts the same committed
//! union — the property that makes it safe for a degraded worker to
//! *commit* fast-accepted tasks into a session an exact worker may
//! later continue.
//!
//! Checked per rule against every exact test it fronts, over both
//! deadline models, at the state level (one processor, admit/remove
//! streams) and at the cluster level (`open_degraded_session`). EDF-VD
//! has no fast rule: its degraded sessions run the exact state.

use mcsched::analysis::{
    AdmissionState, AmcMax, AmcRtb, Ecdf, EdfVd, Ey, FastRule, FastState, SchedulabilityTest,
};
use mcsched::core::AlgorithmRegistry;
use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::{TaskId, TaskSet};
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn sets(deadlines: DeadlineModel, count: usize, seed: u64) -> Vec<TaskSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = [
        GridPoint {
            u_hh: 0.3,
            u_hl: 0.15,
            u_ll: 0.25,
        },
        GridPoint {
            u_hh: 0.4,
            u_hl: 0.2,
            u_ll: 0.35,
        },
        GridPoint {
            u_hh: 0.6,
            u_hl: 0.3,
            u_ll: 0.45,
        },
        GridPoint {
            u_hh: 0.7,
            u_hl: 0.45,
            u_ll: 0.35,
        },
        GridPoint {
            u_hh: 0.85,
            u_hl: 0.35,
            u_ll: 0.25,
        },
    ];
    let mut out = Vec::new();
    let mut i = 0;
    while out.len() < count && i < count * 20 {
        let spec = TaskSetSpec::paper_defaults(1, points[i % points.len()], deadlines);
        i += 1;
        if let Ok(ts) = spec.generate(&mut rng) {
            out.push(ts);
        }
    }
    out
}

/// The exact tests each rule must be sound for (the mapping
/// `AlgorithmSpec::open_degraded_cluster` commits to).
fn exact_tests(rule: FastRule) -> Vec<(&'static str, Box<dyn SchedulabilityTest>)> {
    match rule {
        // Both demand tests are fronted by the LC-only rule: their
        // greedy searches reject HC-bearing sets well under any density
        // bound (see the pinned counterexamples below).
        FastRule::LcOnlyDensity => {
            vec![("EY", Box::new(Ey::new())), ("ECDF", Box::new(Ecdf::new()))]
        }
        FastRule::LiuLaylandOwnDensity => vec![
            ("AMC-rtb", Box::new(AmcRtb::new())),
            ("AMC-max", Box::new(AmcMax::new())),
        ],
    }
}

/// Streams every generated set through a fresh `FastState`, committing
/// fast-accepts and asserting each paired exact test accepts the
/// committed union after every commit. Interleaves removals so the
/// recomputed running sums are exercised too.
fn assert_rule_sound(rule: FastRule, seed: u64) {
    let tests = exact_tests(rule);
    let mut accepts = 0usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    for deadlines in [DeadlineModel::Implicit, DeadlineModel::Constrained] {
        for ts in sets(deadlines, 120, seed) {
            let mut fast = FastState::new(rule);
            let mut committed = TaskSet::new();
            for task in ts.iter() {
                if fast.try_admit(task) {
                    fast.commit(*task);
                    committed.push_unchecked(*task);
                    accepts += 1;
                    for (name, exact) in &tests {
                        assert!(
                            exact.is_schedulable(&committed),
                            "{rule:?} fast-accept not honored by {name} \
                             ({deadlines:?}) on {committed}"
                        );
                    }
                }
                // Occasionally evict the oldest committed task: the
                // post-remove recomputed sums must stay sound too.
                if committed.len() > 2 && rng.random_range(0..4) == 0 {
                    let victim = committed
                        .iter()
                        .next()
                        .map(mcsched::model::Task::id)
                        .unwrap_or(TaskId(0));
                    assert!(fast.remove(victim));
                    assert!(committed.remove(victim).is_some());
                }
            }
        }
    }
    assert!(
        accepts >= 50,
        "{rule:?}: only {accepts} fast-accepts — no coverage"
    );
}

/// A degraded EDF-VD session runs the exact state, so it admits, places
/// and removes exactly like an exact one over the same task stream.
#[test]
fn degraded_edfvd_cluster_admits_like_the_exact_one() {
    let registry = AlgorithmRegistry::standard();
    let mut rng = StdRng::seed_from_u64(0xFA57);
    let mut admitted = 0usize;
    for deadlines in [DeadlineModel::Implicit, DeadlineModel::Constrained] {
        for ts in sets(deadlines, 60, 0xFA57) {
            let name = "CU-UDP-EDF-VD";
            let mut degraded = registry.open_degraded_session(name, 2).expect("known");
            let mut exact = registry.open_session(name, 2).expect("known");
            for task in ts.iter() {
                let verdict = exact.admit(*task);
                assert_eq!(degraded.admit(*task), verdict, "{task}");
                admitted += usize::from(verdict.is_ok());
                // Occasionally evict the oldest committed task.
                if exact.task_count() > 2 && rng.random_range(0..3) == 0 {
                    let oldest = exact.committed_tasks().iter().next().map(|t| t.id());
                    let victim = oldest.unwrap_or(TaskId(0));
                    assert_eq!(degraded.remove(victim), exact.remove(victim));
                }
            }
            assert_eq!(degraded.snapshot(), exact.snapshot(), "{ts}");
        }
    }
    assert!(admitted >= 50, "only {admitted} admits — no coverage");
}

#[test]
fn lc_only_density_rule_is_sound_for_both_demand_tests() {
    assert_rule_sound(FastRule::LcOnlyDensity, 0xFA5A);
}

/// The counterexample that forced EY off the own-density rule: three HC
/// tasks with own-level density ≈ 0.87, rejected by EY's single-start
/// greedy yet accepted by ECDF's multi-start. Pins both directions —
/// own-density must never front EY, and ECDF's pin still holds here.
#[test]
fn ey_rejects_an_own_density_set_that_ecdf_accepts() {
    use mcsched::model::Task;
    let ts = TaskSet::try_from_tasks(vec![
        Task::hi(0, 84, 14, 45).expect("valid HC task"),
        Task::hi(1, 72, 8, 15).expect("valid HC task"),
        Task::hi(2, 173, 14, 22).expect("valid HC task"),
    ])
    .expect("valid set");
    let density: f64 = ts
        .iter()
        .map(|t| t.wcet_own().as_f64() / t.deadline().min(t.period()).as_f64())
        .sum();
    assert!(density < 1.0, "the set sits under the own-density bound");
    assert!(!Ey::new().is_schedulable(&ts), "EY's greedy rejects it");
    assert!(Ecdf::new().is_schedulable(&ts), "ECDF's search accepts it");
}

#[test]
fn liu_layland_rule_is_sound_for_amc_tests() {
    assert_rule_sound(FastRule::LiuLaylandOwnDensity, 0xFA59);
}

/// Cluster-level soundness: everything a degraded session commits on
/// any processor passes the exact one-shot test for that algorithm.
#[test]
fn degraded_sessions_commit_only_exactly_valid_sets() {
    let registry = AlgorithmRegistry::standard();
    for (name, exact) in [
        ("CU-UDP-EDF-VD", &EdfVd::new() as &dyn SchedulabilityTest),
        ("CU-UDP-EY", &Ey::new()),
        ("CU-UDP-ECDF", &Ecdf::new()),
        ("CA-UDP-AMC-rtb", &AmcRtb::new()),
        ("CA-UDP-AMC-max", &AmcMax::new()),
    ] {
        let mut admitted = 0usize;
        for (i, ts) in sets(DeadlineModel::Constrained, 25, 0xC1A0)
            .iter()
            .enumerate()
        {
            let m = 2 + i % 2;
            let mut session = registry
                .open_degraded_session(name, m)
                .expect("known algorithm");
            for task in ts.iter() {
                if session.admit(*task).is_ok() {
                    admitted += 1;
                }
            }
            for k in 0..m {
                let committed = session.processor(k).expect("processor in range");
                if !committed.is_empty() {
                    assert!(
                        exact.is_schedulable(committed),
                        "{name}: degraded commit on processor {k} fails the \
                         exact test: {committed}"
                    );
                }
            }
        }
        assert!(
            admitted >= 25,
            "{name}: only {admitted} admits — no coverage"
        );
    }
}
