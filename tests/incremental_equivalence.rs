//! The incremental admission layer must be **bit-identically** equivalent
//! to the seed clone-and-retest path: for every task set, strategy,
//! processor count and uniprocessor test, `Partition::build` with the
//! test's native `AdmissionState` produces the exact same task→processor
//! map (or the exact same `PartitionError`) as building through the
//! `OneShot` bridge of `mcsched-oracle`, which re-runs the one-shot test
//! per attempt.
//!
//! Building through a caller-owned `WorkspaceRef` (`build_reporting_in`,
//! the experiment engine's path) must give the same result as the pooled
//! `build`.
//!
//! Two layers of evidence:
//!
//! * proptests over unconstrained random task sets (implicit and
//!   constrained deadlines), all five tests;
//! * a deterministic generator-shaped corpus (≥ 500 sets across
//!   implicit/constrained workloads × all five tests, plus a mid-load
//!   m = 8 batch), matching the acceptance criterion of the
//!   incremental-admission milestone.

use mcsched::analysis::{AmcMax, AmcRtb, Ecdf, EdfVd, Ey, SchedulabilityTest, WorkspaceRef};
use mcsched::core::{presets, Partition};
use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::{Task, TaskSet};
use mcsched_oracle::OneShot;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An arbitrary valid task: period 2..=60, budgets inside it, optional
/// criticality/constrained deadline.
fn arb_task(id: u32) -> impl Strategy<Value = Task> {
    (2u64..=60, any::<bool>()).prop_flat_map(move |(period, is_hi)| {
        (1u64..=period, Just(period), Just(is_hi)).prop_flat_map(move |(c_lo, period, is_hi)| {
            if is_hi {
                (c_lo..=period, Just(period), Just(c_lo))
                    .prop_flat_map(move |(c_hi, period, c_lo)| {
                        (c_hi..=period).prop_map(move |d| {
                            Task::hi_constrained(id, period, c_lo, c_hi, d).expect("valid")
                        })
                    })
                    .boxed()
            } else {
                // LC tasks may carry any `C^H ≥ C^L`: the model accepts it,
                // and no test may let it add high-mode demand.
                (c_lo..=period, c_lo..=period)
                    .prop_map(move |(c_hi, d)| {
                        Task::builder(id)
                            .period(period)
                            .wcet_lo(c_lo)
                            .wcet_hi(c_hi)
                            .deadline(d)
                            .try_build()
                            .expect("valid")
                    })
                    .boxed()
            }
        })
    })
}

/// An arbitrary task set of 1..=8 tasks with distinct ids.
fn arb_taskset() -> impl Strategy<Value = TaskSet> {
    (1usize..=8).prop_flat_map(|n| {
        let tasks: Vec<_> = (0..n as u32).map(arb_task).collect();
        tasks.prop_map(|ts| TaskSet::try_from_tasks(ts).expect("distinct ids"))
    })
}

/// A test, its clone-and-retest reference, and a display name.
type TestPair = (
    Box<dyn SchedulabilityTest>,
    Box<dyn SchedulabilityTest>,
    &'static str,
);

/// The five uniprocessor tests paired with their clone-and-retest
/// reference.
fn test_pairs() -> Vec<TestPair> {
    vec![
        (
            Box::new(EdfVd::new()),
            Box::new(OneShot(EdfVd::new())),
            "EDF-VD",
        ),
        (Box::new(Ey::new()), Box::new(OneShot(Ey::new())), "EY"),
        (
            Box::new(Ecdf::new()),
            Box::new(OneShot(Ecdf::new())),
            "ECDF",
        ),
        (
            Box::new(AmcRtb::new()),
            Box::new(OneShot(AmcRtb::new())),
            "AMC-rtb",
        ),
        (
            Box::new(AmcMax::new()),
            Box::new(OneShot(AmcMax::new())),
            "AMC-max",
        ),
    ]
}

/// Asserts bit-identical builds for one set across strategies, tests and
/// processor counts, pooled and through `ws`; returns how many
/// comparisons were made.
fn assert_equivalent(ts: &TaskSet, m_values: &[usize], ws: &WorkspaceRef) -> usize {
    let mut compared = 0;
    for (incremental, one_shot, name) in test_pairs() {
        for strategy in [presets::ca_udp(), presets::cu_udp(), presets::ca_f_f()] {
            for &m in m_values {
                let fast = Partition::build(&strategy, &incremental, ts, m);
                let slow = Partition::build(&strategy, &one_shot, ts, m);
                assert_eq!(
                    fast,
                    slow,
                    "{name}/{} diverged at m={m} on {ts}",
                    strategy.name()
                );
                let (in_ws, _) = Partition::build_reporting_in(&strategy, &incremental, ts, m, ws);
                assert_eq!(
                    in_ws,
                    fast,
                    "{name}/{} workspace build diverged from the pooled build at m={m} on {ts}",
                    strategy.name()
                );
                compared += 1;
            }
        }
    }
    compared
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_build_is_bit_identical(ts in arb_taskset(), m in 1usize..=4) {
        assert_equivalent(&ts, &[m], &WorkspaceRef::new());
    }

    #[test]
    fn incremental_states_agree_step_by_step(ts in arb_taskset()) {
        // Below the partitioner: drive each native state task by task and
        // compare every single admission verdict with the one-shot test.
        for (incremental, _, name) in test_pairs() {
            let mut state = incremental.admission_state_in(&WorkspaceRef::new());
            for task in &ts {
                let mut union = state.tasks().clone();
                union.push_unchecked(*task);
                let expected = incremental.is_schedulable(&union);
                prop_assert_eq!(state.try_admit(task), expected, "{} on {}", name, task);
                if expected {
                    state.commit(*task);
                }
            }
            // The cached summary is bit-identical to a recomputation.
            let cached = state.summary();
            let fresh = state.tasks().system_utilization();
            prop_assert_eq!(cached.u_ll.to_bits(), fresh.u_ll.to_bits());
            prop_assert_eq!(cached.u_hl.to_bits(), fresh.u_hl.to_bits());
            prop_assert_eq!(cached.u_hh.to_bits(), fresh.u_hh.to_bits());
        }
    }
}

/// The seeded corpus acceptance criterion: ≥ 500 generator-shaped task
/// sets across implicit and constrained deadlines, every build compared
/// bit-for-bit across all five tests, all through one long-lived
/// workspace. The last workload is the 12-set mid-load batch at m = 8
/// (seed 2017).
#[test]
fn seeded_corpus_equivalence() {
    let workloads = [
        (
            2usize,
            DeadlineModel::Implicit,
            0.55,
            0.30,
            0.35,
            1u64,
            130usize,
        ),
        (2, DeadlineModel::Constrained, 0.70, 0.35, 0.40, 2, 130),
        (4, DeadlineModel::Implicit, 0.80, 0.40, 0.45, 3, 130),
        (4, DeadlineModel::Constrained, 0.60, 0.25, 0.50, 4, 130),
        (8, DeadlineModel::Implicit, 0.70, 0.35, 0.40, 2017, 12),
    ];
    let ws = WorkspaceRef::new();
    let mut generated = 0usize;
    let mut compared = 0usize;
    for (m, deadlines, u_hh, u_hl, u_ll, seed, count) in workloads {
        let spec = TaskSetSpec::paper_defaults(m, GridPoint { u_hh, u_hl, u_ll }, deadlines);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut made = 0usize;
        let mut guard = 0usize;
        while made < count && guard < 2000 {
            guard += 1;
            let Ok(ts) = spec.generate(&mut rng) else {
                continue;
            };
            made += 1;
            compared += assert_equivalent(&ts, &[m], &ws);
        }
        assert_eq!(made, count, "generator starved at m={m} {deadlines}");
        generated += made;
    }
    assert!(generated >= 500, "corpus too small: {generated}");
    assert!(compared >= 500 * 5, "comparisons too few: {compared}");
}

/// EDF-VD states answer every query in O(1); a full sweep-sized build
/// must therefore never fall back to a full re-analysis.
#[test]
fn edfvd_states_never_run_full_analyses() {
    let spec = TaskSetSpec::paper_defaults(
        4,
        GridPoint {
            u_hh: 0.7,
            u_hl: 0.35,
            u_ll: 0.4,
        },
        DeadlineModel::Implicit,
    );
    let mut rng = StdRng::seed_from_u64(9);
    let ts = loop {
        if let Ok(ts) = spec.generate(&mut rng) {
            break ts;
        }
    };
    let (_, stats) = Partition::build_reporting(&presets::ca_udp(), &EdfVd::new(), &ts, 4);
    assert!(stats.attempts > 0);
    assert_eq!(stats.full, 0);
    assert_eq!(stats.incremental, stats.attempts);
}
