//! Cross-validation between the analytical response-time bounds and the
//! simulator's observed behaviour, plus serde round-trips for the data
//! types that travel between the crates.

use mcsched::analysis::LoRta;
use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::{Task, TaskSet, Time};
use mcsched::sim::{Policy, Scenario, Simulator, TraceEvent};
use rand::{rngs::StdRng, SeedableRng};

/// Observed completion time of each task's *first* job under a traced run
/// (the synchronous release at t = 0 is the critical instant for
/// fixed-priority scheduling, so the observed first-job response must be
/// bounded by the RTA result).
fn first_job_completions(ts: &TaskSet, trace: &[TraceEvent]) -> Vec<Option<Time>> {
    let mut out = vec![None; ts.len()];
    for ev in trace {
        if let TraceEvent::Complete { at, task } = ev {
            if let Some(idx) = ts.iter().position(|t| t.id() == *task) {
                if out[idx].is_none() {
                    out[idx] = Some(*at);
                }
            }
        }
    }
    out
}

#[test]
fn lo_rta_upper_bounds_simulated_response_times() {
    let mut rng = StdRng::seed_from_u64(0x51);
    let mut validated = 0;
    for _ in 0..60 {
        let spec = TaskSetSpec::paper_defaults(
            1,
            GridPoint {
                u_hh: 0.4,
                u_hl: 0.2,
                u_ll: 0.35,
            },
            DeadlineModel::Constrained,
        );
        let Ok(ts) = spec.generate(&mut rng) else {
            continue;
        };
        let Some(bounds) = LoRta::compute(&ts) else {
            continue;
        };
        validated += 1;
        // Synchronous release, everyone at C^L: the first job of every
        // task must finish no later than its RTA bound.
        let report = Simulator::new(&ts, Policy::deadline_monotonic(&ts))
            .with_trace()
            .run(&Scenario::lo_only(), ts.max_period().as_ticks() * 2);
        assert!(report.is_success());
        let observed = first_job_completions(&ts, report.trace());
        for (i, t) in ts.iter().enumerate() {
            let Some(done) = observed[i] else {
                continue; // horizon cut the job short
            };
            assert!(
                done <= bounds[i],
                "{}: observed response {} exceeds RTA bound {} in {ts}",
                t.id(),
                done,
                bounds[i]
            );
        }
    }
    assert!(validated >= 20, "coverage too thin: {validated}");
}

#[test]
fn rta_bound_is_tight_for_synchronous_release() {
    // For the highest-priority task the bound is exactly C^L; for a
    // two-task set with harmonic periods the fixpoint is met exactly.
    let ts = TaskSet::try_from_tasks(vec![
        Task::lo(0, 10, 3).unwrap(),
        Task::lo(1, 20, 5).unwrap(),
    ])
    .unwrap();
    let bounds = LoRta::compute(&ts).unwrap();
    let report = Simulator::new(&ts, Policy::deadline_monotonic(&ts))
        .with_trace()
        .run(&Scenario::lo_only(), 40);
    let observed = first_job_completions(&ts, report.trace());
    assert_eq!(observed[0], Some(bounds[0]));
    assert_eq!(observed[1], Some(bounds[1]));
}

#[test]
fn serde_traits_are_derived_everywhere_they_matter() {
    // The data types that cross process boundaries (task sets, partitions,
    // sweep results) must serialize; this is a compile-time proof.
    fn assert_serde<T: serde::Serialize>() {}
    assert_serde::<mcsched::model::Task>();
    assert_serde::<mcsched::model::TaskSet>();
    assert_serde::<mcsched::model::Time>();
    assert_serde::<mcsched::model::Criticality>();
    assert_serde::<mcsched::core::Partition>();
    assert_serde::<mcsched::core::PartitionError>();
    assert_serde::<mcsched::sim::SimReport>();
    assert_serde::<mcsched::sim::MissRecord>();
    assert_serde::<mcsched::gen::GridPoint>();
    assert_serde::<mcsched::gen::TaskSetSpec>();
    assert_serde::<mcsched::exp::SweepConfig>();
    assert_serde::<mcsched::exp::AcceptanceCurve>();
}

#[test]
fn simulator_work_conservation() {
    // Under LoOnly with total utilization ≤ 1, the number of completed
    // jobs over k hyperperiods equals releases minus the trailing window.
    let ts = TaskSet::try_from_tasks(vec![
        Task::lo(0, 10, 4).unwrap(),
        Task::lo(1, 20, 6).unwrap(),
    ])
    .unwrap();
    let report = Simulator::new(&ts, Policy::Edf).run(&Scenario::lo_only(), 200);
    assert!(report.is_success());
    // 20 jobs of τ0, 10 of τ1 released in [0, 200); all but possibly the
    // very last of each complete within the horizon.
    assert_eq!(report.released(), 30);
    assert!(report.completed() >= 28);
}

#[test]
fn busy_processor_never_idles_below_full_load() {
    // Utilization exactly 1 under EDF: the processor must complete
    // everything with zero slack — total executed time equals horizon.
    let ts = TaskSet::try_from_tasks(vec![Task::lo(0, 4, 2).unwrap(), Task::lo(1, 8, 4).unwrap()])
        .unwrap();
    let report = Simulator::new(&ts, Policy::Edf).run(&Scenario::lo_only(), 80);
    assert!(report.is_success());
    assert_eq!(report.completed(), 20 + 10);
}
