//! Cross-test dominance and consistency relations on generator-random
//! sets — the orderings the paper's evaluation quietly relies on.

use mcsched::analysis::{AmcMax, AmcRtb, Ecdf, EdfVd, Ey, SchedulabilityTest};
use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::TaskSet;
use mcsched_oracle::classic::{edf_lo_mode, edf_own_level};
use rand::{rngs::StdRng, SeedableRng};

fn sets(deadlines: DeadlineModel, count: usize, seed: u64) -> Vec<TaskSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = [
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
        GridPoint {
            u_hh: 0.9,
            u_hl: 0.55,
            u_ll: 0.35,
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

#[test]
fn ecdf_dominates_ey() {
    for deadlines in [DeadlineModel::Implicit, DeadlineModel::Constrained] {
        let mut ey_accepts = 0;
        let mut ecdf_extra = 0;
        for ts in sets(deadlines, 150, 0xD0) {
            let ey = Ey::new().is_schedulable(&ts);
            let ecdf = Ecdf::new().is_schedulable(&ts);
            if ey {
                ey_accepts += 1;
                assert!(ecdf, "ECDF must accept whatever EY accepts: {ts}");
            }
            if ecdf && !ey {
                ecdf_extra += 1;
            }
        }
        assert!(ey_accepts > 10, "{deadlines:?}: coverage {ey_accepts}");
        // Not required pointwise, but over 150 sets the stronger search
        // should win somewhere at least once across both deadline models.
        let _ = ecdf_extra;
    }
}

#[test]
fn ecdf_strictly_beats_ey_somewhere() {
    let mut extra = 0;
    for deadlines in [DeadlineModel::Implicit, DeadlineModel::Constrained] {
        for ts in sets(deadlines, 200, 0xD1) {
            if Ecdf::new().is_schedulable(&ts) && !Ey::new().is_schedulable(&ts) {
                extra += 1;
            }
        }
    }
    assert!(extra > 0, "expected ECDF to accept some EY-rejected set");
}

#[test]
fn amc_max_dominates_rtb() {
    for deadlines in [DeadlineModel::Implicit, DeadlineModel::Constrained] {
        let mut rtb_accepts = 0;
        for ts in sets(deadlines, 150, 0xA0) {
            let rtb = AmcRtb::new().is_schedulable(&ts);
            let max = AmcMax::new().is_schedulable(&ts);
            if rtb {
                rtb_accepts += 1;
                assert!(max, "AMC-max must accept whatever AMC-rtb accepts: {ts}");
            }
        }
        assert!(rtb_accepts > 10, "{deadlines:?}: coverage {rtb_accepts}");
    }
}

#[test]
fn mc_accept_implies_lo_projection_feasible() {
    // Necessary condition: if any MC test accepts, the low-mode projection
    // (every task at C^L, real deadlines) must be plain-EDF feasible.
    for ts in sets(DeadlineModel::Implicit, 100, 0x10) {
        for test in [
            &EdfVd::new() as &dyn SchedulabilityTest,
            &Ey::new(),
            &Ecdf::new(),
        ] {
            if test.is_schedulable(&ts) {
                assert!(
                    edf_lo_mode(&ts),
                    "{} accepted a set whose LO projection is EDF-infeasible: {ts}",
                    test.name()
                );
            }
        }
    }
}

#[test]
fn own_level_reservation_implies_every_mc_test() {
    // Sufficient condition the other way: if reserving C^H everywhere fits
    // under EDF (utilization ≤ 1 implicit), EDF-VD accepts (x = 1 path),
    // and the dbf tests accept too.
    for ts in sets(DeadlineModel::Implicit, 100, 0x20) {
        if edf_own_level(&ts) {
            assert!(
                EdfVd::new().is_schedulable(&ts),
                "EDF-VD rejected a fully-reservable set: {ts}"
            );
            assert!(
                Ecdf::new().is_schedulable(&ts),
                "ECDF rejected a fully-reservable set: {ts}"
            );
        }
    }
}

#[test]
fn partitioned_udp_monotone_in_processors() {
    use mcsched::core::{presets, AlgorithmSpec, TestName};
    let algo = AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd);
    let mut rng = StdRng::seed_from_u64(0x30);
    let mut checked = 0;
    for _ in 0..60 {
        let spec = TaskSetSpec::paper_defaults(
            2,
            GridPoint {
                u_hh: 0.7,
                u_hl: 0.35,
                u_ll: 0.4,
            },
            DeadlineModel::Implicit,
        );
        let Ok(ts) = spec.generate(&mut rng) else {
            continue;
        };
        for m in 1..4 {
            if algo.accepts(&ts, m) {
                checked += 1;
                assert!(
                    algo.accepts(&ts, m + 1),
                    "accepted on {m} but rejected on {} processors: {ts}",
                    m + 1
                );
            }
        }
    }
    assert!(checked > 10);
}

#[test]
fn udp_never_loses_to_nosort_baseline_in_aggregate() {
    // Pointwise UDP can lose on adversarial sets; in aggregate over random
    // sets it must not (this is the paper's Fig. 3 in miniature).
    use mcsched::core::{presets, AlgorithmSpec, TestName};
    let udp = AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd);
    let base = AlgorithmSpec::new(presets::ca_nosort_f_f(), TestName::EdfVd);
    let mut rng = StdRng::seed_from_u64(0x40);
    let (mut udp_wins, mut base_wins) = (0u32, 0u32);
    for _ in 0..200 {
        let spec = TaskSetSpec::paper_defaults(
            2,
            GridPoint {
                u_hh: 0.8,
                u_hl: 0.4,
                u_ll: 0.4,
            },
            DeadlineModel::Implicit,
        );
        let Ok(ts) = spec.generate(&mut rng) else {
            continue;
        };
        match (udp.accepts(&ts, 2), base.accepts(&ts, 2)) {
            (true, false) => udp_wins += 1,
            (false, true) => base_wins += 1,
            _ => {}
        }
    }
    assert!(
        udp_wins >= base_wins,
        "UDP won {udp_wins} vs baseline {base_wins}"
    );
    assert!(udp_wins > 0, "expected UDP to win somewhere in this regime");
}
