//! The soundness loop: every "accept" from a schedulability test must
//! survive adversarial execution in the discrete-event simulator.
//!
//! This is the empirical justification for the reconstructed analyses:
//! the EDF-VD utilization test, the EY/ECDF dbf tests and
//! the AMC response-time analyses are exercised on generator-random
//! uniprocessor task sets; whenever one accepts, the corresponding runtime
//! policy is executed under the full scenario battery (nominal, sustained
//! overrun, randomized overruns, sporadic arrivals) and must not miss a
//! required deadline.

use mcsched::analysis::{AmcMax, AmcRtb, Ecdf, EdfVd, Ey, SchedulabilityTest};
use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::TaskSet;
use mcsched::sim::validate;
use rand::{rngs::StdRng, SeedableRng};

/// Random uniprocessor-sized task sets spanning the interesting
/// utilization range.
fn random_sets(deadlines: DeadlineModel, count: usize, seed: u64) -> Vec<TaskSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sets = Vec::new();
    let points = [
        GridPoint {
            u_hh: 0.3,
            u_hl: 0.15,
            u_ll: 0.3,
        },
        GridPoint {
            u_hh: 0.5,
            u_hl: 0.25,
            u_ll: 0.4,
        },
        GridPoint {
            u_hh: 0.7,
            u_hl: 0.35,
            u_ll: 0.25,
        },
        GridPoint {
            u_hh: 0.8,
            u_hl: 0.45,
            u_ll: 0.35,
        },
        GridPoint {
            u_hh: 0.6,
            u_hl: 0.55,
            u_ll: 0.35,
        },
        GridPoint {
            u_hh: 0.9,
            u_hl: 0.25,
            u_ll: 0.15,
        },
    ];
    let mut i = 0;
    while sets.len() < count {
        let point = points[i % points.len()];
        i += 1;
        // m = 1: single-processor sets, 2..5 tasks.
        let spec = TaskSetSpec::paper_defaults(1, point, deadlines);
        if let Ok(ts) = spec.generate(&mut rng) {
            sets.push(ts);
        }
        if i > count * 20 {
            break; // never loop forever on infeasible corners
        }
    }
    sets
}

#[test]
fn edfvd_acceptances_hold_at_runtime() {
    let mut accepted = 0;
    for (k, ts) in random_sets(DeadlineModel::Implicit, 120, 0xED0)
        .iter()
        .enumerate()
    {
        if EdfVd::new().is_schedulable(ts) {
            accepted += 1;
            validate::validate_edfvd_acceptance(ts, k as u64)
                .unwrap_or_else(|ce| panic!("EDF-VD unsound on {ts}: {ce}"));
        }
    }
    assert!(accepted >= 20, "want meaningful coverage, got {accepted}");
}

#[test]
fn ey_acceptances_hold_at_runtime() {
    let mut accepted = 0;
    for (k, ts) in random_sets(DeadlineModel::Implicit, 60, 0xE1)
        .iter()
        .enumerate()
    {
        if let Some(assignment) = Ey::new().tune(ts) {
            accepted += 1;
            validate::validate_vd_assignment(ts, &assignment, k as u64)
                .unwrap_or_else(|ce| panic!("EY unsound on {ts}: {ce}"));
        }
    }
    assert!(accepted >= 10, "want meaningful coverage, got {accepted}");
}

#[test]
fn ecdf_acceptances_hold_at_runtime_constrained() {
    let mut accepted = 0;
    for (k, ts) in random_sets(DeadlineModel::Constrained, 60, 0xEC)
        .iter()
        .enumerate()
    {
        if let Some(assignment) = Ecdf::new().tune(ts) {
            accepted += 1;
            validate::validate_vd_assignment(ts, &assignment, k as u64)
                .unwrap_or_else(|ce| panic!("ECDF unsound on {ts}: {ce}"));
        }
    }
    assert!(accepted >= 10, "want meaningful coverage, got {accepted}");
}

#[test]
fn amc_acceptances_hold_at_runtime() {
    for deadlines in [DeadlineModel::Implicit, DeadlineModel::Constrained] {
        let mut accepted = 0;
        for (k, ts) in random_sets(deadlines, 60, 0xA3C).iter().enumerate() {
            if AmcMax::new().is_schedulable(ts) {
                accepted += 1;
                validate::validate_amc_acceptance(ts, k as u64)
                    .unwrap_or_else(|ce| panic!("AMC-max unsound on {ts}: {ce}"));
            }
        }
        assert!(accepted >= 8, "{deadlines:?}: got {accepted}");
    }
}

#[test]
fn amc_rtb_acceptances_hold_at_runtime() {
    let mut accepted = 0;
    for (k, ts) in random_sets(DeadlineModel::Constrained, 40, 0xB)
        .iter()
        .enumerate()
    {
        if AmcRtb::new().is_schedulable(ts) {
            accepted += 1;
            validate::validate_amc_acceptance(ts, k as u64)
                .unwrap_or_else(|ce| panic!("AMC-rtb unsound on {ts}: {ce}"));
        }
    }
    assert!(accepted >= 5, "got {accepted}");
}

#[test]
fn partitioned_acceptances_hold_at_runtime() {
    use mcsched::core::{presets, AlgorithmSpec, TestName};
    use mcsched::sim::Policy;
    let mut rng = StdRng::seed_from_u64(0xFACE);
    let mut validated = 0;
    for _ in 0..40 {
        let spec = TaskSetSpec::paper_defaults(
            2,
            GridPoint {
                u_hh: 0.6,
                u_hl: 0.3,
                u_ll: 0.35,
            },
            DeadlineModel::Implicit,
        );
        let Ok(ts) = spec.generate(&mut rng) else {
            continue;
        };
        let algo = AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd);
        let Ok(partition) = algo.try_partition(&ts, 2) else {
            continue;
        };
        validated += 1;
        let procs: Vec<TaskSet> = partition.iter().cloned().collect();
        validate::validate_partition(
            &procs,
            |p| {
                let x = EdfVd::new().scaling_factor(p).expect("admitted per-proc");
                Policy::edf_vd_scaled(p, x)
            },
            7,
        )
        .unwrap_or_else(|(k, ce)| panic!("partition unsound on φ{k}: {ce}"));
    }
    assert!(validated >= 15, "got {validated}");
}
