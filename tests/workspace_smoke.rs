//! Workspace smoke test: one small task set driven through the whole
//! facade path — generator → CU-UDP / CA-UDP partitioning with EDF-VD
//! admission → partitioned simulation — exactly as the crate-level
//! quickstart advertises. If this fails, the workspace wiring (not a
//! single algorithm) is broken.

use mcsched::analysis::EdfVd;
use mcsched::core::{presets, verify_partition, AlgorithmSpec, TestName};
use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::TaskSet;
use mcsched::sim::{PartitionedSimulator, Policy, Scenario};
use rand::{rngs::StdRng, SeedableRng};

const M: usize = 2;

/// A light-load grid point every strategy should handle.
fn small_generated_set() -> TaskSet {
    let point = GridPoint {
        u_hh: 0.3,
        u_hl: 0.15,
        u_ll: 0.2,
    };
    let spec = TaskSetSpec::paper_defaults(M, point, DeadlineModel::Implicit);
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..64 {
        if let Ok(ts) = spec.generate(&mut rng) {
            return ts;
        }
    }
    panic!("generator produced no feasible task set at a light-load point");
}

#[test]
fn generator_to_partition_to_simulation() {
    let ts = small_generated_set();
    assert!(ts.validate().is_ok());

    let mut accepted = 0usize;
    for strategy in [presets::cu_udp(), presets::ca_udp()] {
        let name = strategy.name().to_owned();
        let algo = AlgorithmSpec::new(strategy, TestName::EdfVd);
        let partition = match algo.try_partition(&ts, M) {
            Ok(p) => p,
            // A light-load set can still be rejected by a sufficient
            // test; that is a valid analysis outcome, not a smoke
            // failure — but both UDP strategies rejecting the same
            // light-load set would be (checked after the loop).
            Err(_) => continue,
        };
        accepted += 1;
        assert_eq!(partition.processor_count(), M);
        assert_eq!(partition.task_count(), ts.len());
        assert!(
            verify_partition(&partition, &EdfVd::new()),
            "{name}: a processor in the committed partition fails its own admission test"
        );

        // Every processor accepted by EDF-VD must survive simulation in
        // both modes: no overruns, and every HC job overrunning at once.
        let sim = PartitionedSimulator::from_partition(&partition, |proc_ts| {
            let x = EdfVd::new()
                .scaling_factor(proc_ts)
                .expect("admitted processor must have a scaling factor");
            Policy::edf_vd_scaled(proc_ts, x)
        });
        for scenario in [Scenario::lo_only(), Scenario::all_hi()] {
            for report in sim.run(&scenario, 2_000) {
                assert!(
                    report.is_success(),
                    "{name}: deadline misses under {scenario:?}: {:?}",
                    report.misses()
                );
            }
        }
    }
    assert!(
        accepted > 0,
        "both CU-UDP and CA-UDP rejected a light-load set — the wiring, not the analysis, is broken"
    );
}
