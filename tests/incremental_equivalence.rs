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
//!
//! States recycled through a long-lived workspace must answer and count
//! exactly like fresh ones.
//!
//! The EY / ECDF states also reuse the tuning of the committed set
//! across probes, so their lifecycles (probes without commits,
//! commits, removes, LC and HC candidates, and a commit of a different
//! task under an accepted probe's id) are checked probe by probe
//! against the seed tuners of `mcsched_oracle::vdtune`, as are the
//! tuned assignments of sets with many HC tasks at the zero witness.

use mcsched::analysis::{
    AdmissionState, AmcMax, AmcRtb, Ecdf, EdfVd, Ey, SchedulabilityTest, WorkspaceRef,
};
use mcsched::core::{presets, AlgorithmSpec, Partition, TestName};
use mcsched::gen::{seeded_corpus, DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::{Criticality, Task, TaskSet};
use mcsched_oracle::vdtune as seed;
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
                let fast = Partition::build(&strategy, &*incremental, ts, m);
                let slow = Partition::build(&strategy, &*one_shot, ts, m);
                assert_eq!(
                    fast,
                    slow,
                    "{name}/{} diverged at m={m} on {ts}",
                    strategy.name()
                );
                let (in_ws, _) = Partition::build_reporting_in(&strategy, &*incremental, ts, m, ws);
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

/// Admission states recycle their buffers through the workspace: a
/// state created from a long-lived workspace takes the cleared kernels,
/// caches and task sets earlier states returned on drop. Recycled states
/// must answer and count exactly like fresh ones — same partition or
/// error, same `AdmissionStats` (QPA counters and anchor-rejected checks
/// included) — for every test, every preset strategy and m ∈ {2, 4, 8},
/// with one workspace carrying buffers across tests, strategies and
/// processor counts.
#[test]
fn recycled_states_match_fresh_ones() {
    let warm = WorkspaceRef::new();
    let mut judged = 0usize;
    for m in [2usize, 4, 8] {
        let corpus = seeded_corpus(12, 0x2ec1 ^ m as u64, |p| {
            TaskSetSpec::paper_defaults(m, p, DeadlineModel::Implicit)
        });
        assert!(corpus.len() >= 10, "corpus came out short at m={m}");
        for ts in &corpus {
            for test in TestName::ALL {
                for strategy in presets::all() {
                    let algo = AlgorithmSpec::new(strategy, test);
                    let (fresh, fresh_stats) =
                        algo.try_partition_reporting_in(ts, m, &WorkspaceRef::new());
                    let (recycled, recycled_stats) = algo.try_partition_reporting_in(ts, m, &warm);
                    assert_eq!(fresh, recycled, "{} m={m}", algo.name());
                    assert_eq!(fresh_stats, recycled_stats, "{} m={m}", algo.name());
                    assert_eq!(algo.accepts_in(ts, m, &warm), fresh.is_ok());
                    judged += 1;
                }
            }
        }
    }
    assert!(judged >= 3 * 10 * 30, "too few judgements: {judged}");
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
    let ws = WorkspaceRef::new();
    let (_, stats) = Partition::build_reporting_in(&presets::ca_udp(), &EdfVd::new(), &ts, 4, &ws);
    assert!(stats.attempts > 0);
    assert_eq!(stats.full, 0);
    assert_eq!(stats.incremental, stats.attempts);
}

/// An AMC state whose committed set fails (built with unchecked
/// commits) must reject every candidate, LC or HC, above or below the
/// failing task in DM order, exactly as the one-shot test rejects the
/// union, and without a full re-analysis. Once a `remove` makes the set
/// pass again, probes must track the one-shot verdict again.
#[test]
fn amc_states_with_a_failing_committed_set_reject_every_candidate() {
    // Each committed set fails at its D = 20 task: in low mode (17 + 2·3
    // > 20), or in high mode only (12 + 6·2 > 20 under both AMC-rtb and
    // AMC-max).
    let failing_sets = [
        [Task::hi(0, 10, 2, 5).unwrap(), Task::lo(1, 20, 17).unwrap()],
        [
            Task::hi(0, 10, 2, 6).unwrap(),
            Task::hi(1, 20, 4, 12).unwrap(),
        ],
    ];
    let candidates = [
        Task::lo_constrained(10, 50, 1, 5).unwrap(),
        Task::lo(11, 100, 1).unwrap(),
        Task::hi_constrained(12, 50, 1, 2, 8).unwrap(),
        Task::hi(13, 100, 1, 2).unwrap(),
    ];
    let tests: [Box<dyn SchedulabilityTest>; 2] =
        [Box::new(AmcRtb::new()), Box::new(AmcMax::new())];
    for test in &tests {
        for committed in &failing_sets {
            let ws = WorkspaceRef::new();
            let mut state = test.admission_state_in(&ws);
            for &t in committed {
                state.commit(t);
            }
            assert!(!test.is_schedulable(state.tasks()), "{}", test.name());
            let probe_all = |state: &mut dyn AdmissionState| {
                for cand in &candidates {
                    let mut union = state.tasks().clone();
                    union.push_unchecked(*cand);
                    let expected = test.is_schedulable(&union);
                    assert_eq!(state.try_admit(cand), expected, "{}: {cand:?}", test.name());
                }
            };
            probe_all(&mut *state);
            assert_eq!(state.stats().attempts, candidates.len() as u64);
            assert_eq!(state.stats().admits, 0, "{}", test.name());
            assert_eq!(state.stats().full, 0, "{}", test.name());

            assert!(state.remove(committed[1].id()));
            assert!(test.is_schedulable(state.tasks()));
            probe_all(&mut *state);
            assert!(state.stats().admits > 0, "{}", test.name());
            assert_eq!(state.stats().full, 0, "{}", test.name());
        }
    }
}

/// One step of an EY / ECDF admission-state lifecycle.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Probe the task without committing it.
    Probe(Task),
    /// Probe the task and commit it when admitted.
    Admit(Task),
    /// Probe the task and, when admitted, commit the second task: same
    /// id, other parameters.
    AdmitVariant(Task, Task),
    /// Commit the task without a probe.
    Commit(Task),
    /// Remove the committed task at this index (modulo the count).
    Remove(usize),
}

/// A seed verdict of `mcsched_oracle::vdtune`.
type SeedVerdict = fn(&TaskSet) -> bool;

/// The two tuned tests and their seed verdicts.
fn tuned_tests() -> [(Box<dyn SchedulabilityTest>, SeedVerdict); 2] {
    [
        (Box::new(Ey::new()), seed::ey_is_schedulable),
        (Box::new(Ecdf::new()), seed::ecdf_is_schedulable),
    ]
}

/// Probes `task` and asserts the seed verdict on the union; returns
/// the verdict and whether the state answered it incrementally.
fn probe_against_seed(
    state: &mut dyn AdmissionState,
    name: &str,
    seed_verdict: SeedVerdict,
    task: &Task,
) -> (bool, bool) {
    let mut union = state.tasks().clone();
    union.push_unchecked(*task);
    let before = state.stats().incremental;
    let admitted = state.try_admit(task);
    assert_eq!(
        admitted,
        seed_verdict(&union),
        "{name}: probe of {task} on {}",
        state.tasks()
    );
    (admitted, state.stats().incremental > before)
}

/// Drives a fresh state of `test` through `steps`, checking every probe
/// against the seed; returns how many probes were admitted
/// incrementally (the committed-tuning shortcut: an O(1) overload
/// reject never admits).
fn drive_lifecycle(
    test: &dyn SchedulabilityTest,
    seed_verdict: SeedVerdict,
    steps: &[Step],
) -> usize {
    let name = test.name();
    let ws = WorkspaceRef::new();
    let mut state = test.admission_state_in(&ws);
    let mut shortcuts = 0;
    for step in steps {
        let (task, commit) = match *step {
            Step::Probe(t) => (t, None),
            Step::Admit(t) => (t, Some(t)),
            Step::AdmitVariant(t, v) => (t, Some(v)),
            Step::Commit(t) => {
                state.commit(t);
                continue;
            }
            Step::Remove(i) => {
                let n = state.tasks().len();
                if n > 0 {
                    let id = state.tasks().iter().nth(i % n).expect("in range").id();
                    assert!(state.remove(id), "{name}: remove {id}");
                }
                continue;
            }
        };
        let (admitted, incremental) = probe_against_seed(state.as_mut(), name, seed_verdict, &task);
        shortcuts += usize::from(admitted && incremental);
        if let (true, Some(c)) = (admitted, commit) {
            state.commit(c);
        }
    }
    shortcuts
}

/// `task` with another period (same id, criticality and budgets; the
/// deadline is clamped into the new period).
fn with_period(task: &Task, period: u64) -> Task {
    Task::builder(task.id())
        .period(period)
        .criticality(task.criticality())
        .wcet_lo(task.wcet_lo().as_ticks())
        .wcet_hi(task.wcet_hi().as_ticks())
        .deadline(task.deadline().as_ticks().min(period))
        .try_build()
        .expect("valid variant")
}

/// A different task under `task`'s id that a stale tuning would misjudge
/// if it were kept: an HC task's budget grows to its deadline (more
/// high-mode demand than the tuning was found for), an LC task's period
/// grows by one.
fn variant(task: &Task) -> Task {
    if task.criticality().is_high() && task.wcet_hi() < task.deadline() {
        Task::builder(task.id())
            .period(task.period().as_ticks())
            .criticality(Criticality::High)
            .wcet_lo(task.wcet_lo().as_ticks())
            .wcet_hi(task.deadline().as_ticks())
            .deadline(task.deadline().as_ticks())
            .try_build()
            .expect("valid variant")
    } else {
        with_period(task, task.period().as_ticks() + 1)
    }
}

/// A light task (`C^L ≤ T/8`, `C^H ≤ 3·C^L`, half the deadlines
/// implicit), so that lifecycles commit several tasks per state.
fn arb_light_task(id: u32) -> impl Strategy<Value = Task> {
    (
        8u64..=120,
        any::<bool>(),
        0u64..1000,
        0u64..1000,
        0u64..1000,
    )
        .prop_map(move |(period, is_hi, a, b, c)| {
            let c_lo = 1 + a % (period / 8);
            let c_hi = if is_hi {
                c_lo + b % (2 * c_lo + 1)
            } else {
                c_lo
            };
            let own = if is_hi { c_hi } else { c_lo };
            let deadline = if c % 2 == 0 {
                period
            } else {
                own + (c / 2) % (period - own + 1)
            };
            let criticality = if is_hi {
                Criticality::High
            } else {
                Criticality::Low
            };
            Task::builder(id)
                .period(period)
                .criticality(criticality)
                .wcet_lo(c_lo)
                .wcet_hi(c_hi)
                .deadline(deadline)
                .try_build()
                .expect("valid")
        })
}

/// One lifecycle step for a task with id `id`, mostly admissions.
fn arb_step(id: u32) -> impl Strategy<Value = Step> {
    (0u8..10, arb_light_task(id), 0usize..16).prop_map(|(kind, task, idx)| match kind {
        0 | 1 => Step::Probe(task),
        2 => Step::AdmitVariant(task, variant(&task)),
        3 => Step::Commit(task),
        4 => Step::Remove(idx),
        _ => Step::Admit(task),
    })
}

/// A lifecycle of 4..=24 steps; step `i` carries task id `i`, so the
/// committed ids stay distinct.
fn arb_lifecycle() -> impl Strategy<Value = Vec<Step>> {
    (4usize..=24).prop_flat_map(|n| (0..n as u32).map(arb_step).collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tuned_state_lifecycles_match_the_seed(steps in arb_lifecycle()) {
        for (test, seed_verdict) in tuned_tests() {
            drive_lifecycle(test.as_ref(), seed_verdict, &steps);
        }
    }
}

/// A seeded lifecycle over one generated set: admit the tasks in order,
/// probe every later LC task after each commit, and every fifth
/// admission commit a variant instead; remove one task halfway and
/// probe it again.
fn seeded_lifecycle(ts: &TaskSet) -> Vec<Step> {
    let tasks: Vec<Task> = ts.iter().copied().collect();
    let mut steps = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        if i % 5 == 4 {
            steps.push(Step::AdmitVariant(*t, variant(t)));
        } else {
            steps.push(Step::Admit(*t));
        }
        for later in tasks[i + 1..].iter().filter(|l| l.criticality().is_low()) {
            steps.push(Step::Probe(*later));
        }
        if i == tasks.len() / 2 {
            steps.push(Step::Remove(i));
        }
    }
    steps.extend(tasks.iter().take(3).map(|t| Step::Probe(*t)));
    steps
}

/// The lifecycle corpus: generator-shaped sets across both deadline
/// models and three processor counts (the per-processor load of a
/// partition at those counts), each driven through EY and ECDF states.
/// The corpus must exercise the committed-tuning shortcut.
#[test]
fn seeded_tuned_state_lifecycles_match_the_seed() {
    let workloads = [
        (2usize, DeadlineModel::Implicit, 0.30, 0.15, 0.20, 11u64),
        (2, DeadlineModel::Constrained, 0.35, 0.15, 0.25, 12),
        (4, DeadlineModel::Implicit, 0.20, 0.10, 0.20, 13),
        (4, DeadlineModel::Constrained, 0.25, 0.10, 0.15, 14),
    ];
    let mut shortcuts = 0;
    let mut sets = 0;
    for (m, deadlines, u_hh, u_hl, u_ll, seed) in workloads {
        let spec = TaskSetSpec::paper_defaults(m, GridPoint { u_hh, u_hl, u_ll }, deadlines);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut made = 0;
        let mut guard = 0;
        while made < 15 && guard < 2000 {
            guard += 1;
            let Ok(ts) = spec.generate(&mut rng) else {
                continue;
            };
            made += 1;
            let steps = seeded_lifecycle(&ts);
            for (test, seed_verdict) in tuned_tests() {
                shortcuts += drive_lifecycle(test.as_ref(), seed_verdict, &steps);
            }
        }
        sets += made;
    }
    assert_eq!(sets, 60, "generator starved");
    assert!(shortcuts > 0, "no probe took the committed-tuning shortcut");
}

/// `hot` HC tasks at their real deadlines with `C^H > C^L` (each one a
/// move at the zero witness), light enough to pass the utilization
/// checks, followed by `lc` LC tasks.
fn hot_set(hot: u32, lc: u32) -> TaskSet {
    let mut tasks = Vec::new();
    for i in 0..hot {
        let period = 40 * u64::from(hot) + 61 * u64::from(i);
        let c_lo = 1 + u64::from(i % 3);
        let c_hi = c_lo + 1 + u64::from(i % 2);
        let deadline = if i % 4 == 3 { period - 7 } else { period };
        tasks.push(Task::hi_constrained(i, period, c_lo, c_hi, deadline).expect("valid"));
    }
    for j in 0..lc {
        let period = 50 + 23 * u64::from(j);
        tasks.push(Task::lo(hot + j, period, 1 + u64::from(j % 4)).expect("valid"));
    }
    TaskSet::try_from_tasks(tasks).expect("distinct ids")
}

/// The zero-witness macro-move reproduces the seed's one-move-per-round
/// descent: same verdicts, same tuned assignments, including the round
/// budgets (63 / 64 hot tasks for EY's 64 rounds and ECDF's EY-effort
/// start, 127 / 128 for ECDF's 128-round first start).
#[test]
fn tune_with_many_zero_witness_moves_matches_the_seed() {
    let mut accepted = 0;
    for hot in [1u32, 2, 3, 4, 6, 9, 13, 20, 63, 64, 127, 128] {
        for lc in [0u32, 3] {
            let ts = hot_set(hot, lc);
            let ey = Ey::new().tune(&ts).map(|a| a.into_vec());
            assert_eq!(ey, seed::ey_tune(&ts), "EY tune, {hot} hot + {lc} LC");
            assert_eq!(Ey::new().is_schedulable(&ts), ey.is_some());
            let ecdf = Ecdf::new().tune(&ts).map(|a| a.into_vec());
            assert_eq!(ecdf, seed::ecdf_tune(&ts), "ECDF tune, {hot} hot + {lc} LC");
            assert_eq!(Ecdf::new().is_schedulable(&ts), ecdf.is_some());
            accepted += usize::from(ey.is_some()) + usize::from(ecdf.is_some());
        }
    }
    assert!(accepted > 0, "no set was tuned");
}
