//! The incremental demand kernel must be **exactly** equivalent to the
//! retained seed demand stack:
//!
//! * a freshly loaded kernel's `check_lo` / `check_hi` return the same
//!   [`DemandCheck`] — verdict *and* violation witness — as the verbatim
//!   seed implementations in `mcsched_oracle::dbf`;
//! * a kernel driven through arbitrary mutation sessions (`replace_vd`
//!   tighten/loosen cycles, `push_task`/`pop_task`) answers every check
//!   identically to a from-scratch seed analysis of its current
//!   assignment (pinning the delta-update contract and the warm-resume /
//!   anchor shortcuts);
//! * the kernel-backed EY / ECDF tuners return bit-identical verdicts
//!   *and* bit-identical chosen virtual-deadline assignments to the seed
//!   tuners in `mcsched_oracle::vdtune`;
//! * all of the above hold across unconstrained proptest sets *and* a
//!   deterministic generator-shaped corpus of ≥ 200 sets judged through
//!   one long-lived workspace, plus uniprocessor-load sets sized for
//!   admission, for the greedy descent, and with n ≥ 20 tasks.

use mcsched::analysis::dbf::VdTask;
use mcsched::analysis::{AnalysisWorkspace, DemandKernel, Ecdf, Ey, SchedulabilityTest};
use mcsched::gen::seeded_corpus;
use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::{Task, TaskSet, Time};
use mcsched_oracle::dbf as reference;
use mcsched_oracle::vdtune as vd_reference;
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

/// An arbitrary task set of 1..=10 tasks with distinct ids.
fn arb_taskset() -> impl Strategy<Value = TaskSet> {
    (1usize..=10).prop_flat_map(|n| {
        let tasks: Vec<_> = (0..n as u32).map(arb_task).collect();
        tasks.prop_map(|ts| TaskSet::try_from_tasks(ts).expect("distinct ids"))
    })
}

/// An arbitrary virtual-deadline assignment for a set: HC tasks get a
/// `vd ∈ [C^L, D]` derived from a per-task fraction, LC tasks keep `D`.
fn arb_assignment() -> impl Strategy<Value = Vec<VdTask>> {
    (arb_taskset(), proptest::collection::vec(0u8..=255, 1..=10)).prop_map(|(ts, fracs)| {
        ts.iter()
            .enumerate()
            .map(|(i, &t)| {
                if t.criticality().is_high() {
                    let frac = u64::from(fracs[i % fracs.len()]);
                    let floor = t.wcet_lo().as_ticks();
                    let ceil = t.deadline().as_ticks();
                    let vd = floor + (ceil - floor) * frac / 255;
                    VdTask {
                        task: t,
                        vd: Time::new(vd),
                    }
                } else {
                    VdTask::untightened(t)
                }
            })
            .collect()
    })
}

/// Asserts the checks of a freshly loaded kernel equal the seed
/// reference — verdicts and violation witnesses bit-identical.
fn assert_checks_equivalent(tasks: &[VdTask]) {
    let mut kernel = DemandKernel::new();
    kernel.load(tasks);
    assert_eq!(
        kernel.check_lo(),
        reference::check_lo_mode(tasks),
        "lo-mode check diverged on {tasks:?}"
    );
    assert_eq!(
        kernel.check_hi(),
        reference::check_hi_mode(tasks),
        "hi-mode check diverged on {tasks:?}"
    );
}

/// Asserts kernel-backed EY/ECDF verdicts and tuned assignments equal the
/// seed tuners on `ts`, through `ws`.
fn assert_tuners_equivalent(ts: &TaskSet, ws: &mut AnalysisWorkspace) {
    let ey = Ey::new();
    let ecdf = Ecdf::new();
    assert_eq!(
        ey.is_schedulable_in(ts, ws),
        vd_reference::ey_is_schedulable(ts),
        "EY verdict diverged on {ts}"
    );
    assert_eq!(
        ecdf.is_schedulable_in(ts, ws),
        vd_reference::ecdf_is_schedulable(ts),
        "ECDF verdict diverged on {ts}"
    );
    // The chosen assignments must be bit-identical, not just the verdicts:
    // the simulator schedules with these exact virtual deadlines.
    let ey_hot = ey.tune(ts).map(|a| a.into_vec());
    assert_eq!(
        ey_hot,
        vd_reference::ey_tune(ts),
        "EY tuned assignment diverged on {ts}"
    );
    let ecdf_hot = ecdf.tune(ts).map(|a| a.into_vec());
    assert_eq!(
        ecdf_hot,
        vd_reference::ecdf_tune(ts),
        "ECDF tuned assignment diverged on {ts}"
    );
}

/// Drives one kernel through a mutation session shaped by `steps`,
/// asserting reference-identical answers after every mutation.
fn exercise_kernel(tasks: &[VdTask], steps: &[(usize, u8)]) {
    let mut kernel = DemandKernel::new();
    kernel.load(tasks);
    let recheck = |k: &mut DemandKernel| {
        let current = k.assignment().to_vec();
        assert_eq!(
            k.check_lo(),
            reference::check_lo_mode(&current),
            "kernel lo diverged on {current:?}"
        );
        assert_eq!(
            k.check_hi(),
            reference::check_hi_mode(&current),
            "kernel hi diverged on {current:?}"
        );
        assert_eq!(
            k.lo_feasible(),
            reference::check_lo_mode(&current).is_ok(),
            "kernel lo fast path diverged on {current:?}"
        );
    };
    recheck(&mut kernel);
    for &(idx, frac) in steps {
        let idx = idx % tasks.len();
        let t = kernel.assignment()[idx].task;
        if t.criticality().is_high() {
            let floor = t.wcet_lo().as_ticks();
            let ceil = t.deadline().as_ticks();
            let vd = floor + (ceil - floor) * u64::from(frac) / 255;
            kernel.replace_vd(idx, Time::new(vd));
            recheck(&mut kernel);
        }
    }
    // A LIFO probe ladder (pushes + checks + pops, several deep) must
    // delta-maintain the lane view exactly and leave the answers intact.
    let lo_before = kernel.check_lo();
    let hi_before = kernel.check_hi();
    let extras = [
        Task::hi(900, 14, 2, 5).unwrap(),
        Task::lo(901, 9, 1).unwrap(),
        Task::hi_constrained(902, 30, 3, 8, 22).unwrap(),
    ];
    for (depth, extra) in extras.iter().enumerate() {
        kernel.push_task(VdTask::untightened(*extra));
        recheck(&mut kernel);
        // Retarget the probe itself: lane writes at the freshly pushed
        // position, while the committed prefix stays untouched.
        if extra.criticality().is_high() {
            kernel.replace_vd(tasks.len() + depth, extra.wcet_lo().max(Time::new(3)));
            recheck(&mut kernel);
        }
    }
    for expected in extras.iter().rev() {
        let popped = kernel.pop_task();
        assert_eq!(popped.task.id(), expected.id());
        recheck(&mut kernel);
    }
    assert_eq!(kernel.check_lo(), lo_before);
    assert_eq!(kernel.check_hi(), hi_before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn public_checks_are_reference_identical(tasks in arb_assignment()) {
        assert_checks_equivalent(&tasks);
    }

    #[test]
    fn tuners_are_reference_identical(ts in arb_taskset()) {
        let mut ws = AnalysisWorkspace::new();
        assert_tuners_equivalent(&ts, &mut ws);
    }

    #[test]
    fn mutation_sessions_are_reference_identical(
        tasks in arb_assignment(),
        steps in proptest::collection::vec((0usize..10, 0u8..=255), 0..12),
    ) {
        exercise_kernel(&tasks, &steps);
    }
}

/// The first `count` sets `spec` generates from an RNG seeded with
/// `seed`, in at most `draws` attempts.
fn draw_sets(spec: &TaskSetSpec, seed: u64, count: usize, draws: usize) -> Vec<TaskSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..draws)
        .filter_map(|_| spec.generate(&mut rng).ok())
        .take(count)
        .collect()
}

/// Uniprocessor-load implicit-deadline sets of `n_min..=n_max` tasks at
/// `point`.
fn uniprocessor_spec(point: GridPoint, n_min: usize, n_max: usize) -> TaskSetSpec {
    TaskSetSpec {
        n_min,
        n_max,
        ..TaskSetSpec::paper_defaults(1, point, DeadlineModel::Implicit)
    }
}

/// Asserts both tuners and both mode checks of `ts` equal the seed stack,
/// and that the set carries the demand certificate.
fn assert_corpus_set_equivalent(ts: &TaskSet, ws: &mut AnalysisWorkspace) {
    assert_tuners_equivalent(ts, ws);
    let untightened: Vec<VdTask> = ts.iter().map(|&t| VdTask::untightened(t)).collect();
    assert_checks_equivalent(&untightened);
    // Generator-shaped parameters must license the fast lanes: the
    // corpus equivalences above genuinely pin the certified lane route,
    // not the guarded fallback.
    let mut kernel = DemandKernel::new();
    kernel.load(&untightened);
    assert!(
        kernel.certified(),
        "corpus set must carry the demand certificate: {ts}"
    );
}

/// The seeded corpus acceptance criterion: ≥ 200 generator-shaped task
/// sets, every check and both tuners bit-identical to the seed stack,
/// all through one long-lived workspace (warm-state leakage across sets
/// must never surface in any verdict).
///
/// Besides the `m`-processor workloads it holds 256 admission-sized sets
/// (the uniprocessor loads of an m = 2 partition), and sets at a load
/// with enough HC overrun that the greedy virtual-deadline descent
/// iterates: 6–24 tasks, and 20–40 tasks for long demand lanes.
#[test]
fn seeded_corpus_kernel_equivalence() {
    let workloads = [
        (2usize, DeadlineModel::Implicit, 0.55, 0.30, 0.35, 31u64),
        (2, DeadlineModel::Constrained, 0.70, 0.35, 0.40, 32),
        (4, DeadlineModel::Implicit, 0.80, 0.40, 0.45, 33),
        (4, DeadlineModel::Constrained, 0.65, 0.30, 0.45, 34),
        (8, DeadlineModel::Implicit, 0.60, 0.25, 0.50, 35),
    ];
    let mut ws = AnalysisWorkspace::new();
    let mut generated = 0usize;
    for (m, deadlines, u_hh, u_hl, u_ll, seed) in workloads {
        let spec = TaskSetSpec::paper_defaults(m, GridPoint { u_hh, u_hl, u_ll }, deadlines);
        let sets = draw_sets(&spec, seed, 42, 1200);
        assert_eq!(sets.len(), 42, "generator starved at m={m} {deadlines}");
        for ts in &sets {
            assert_corpus_set_equivalent(ts, &mut ws);
        }
        generated += sets.len();
    }
    assert!(generated >= 200, "corpus too small: {generated}");

    let admission_sized = seeded_corpus(256, 2017 ^ 0xd50a, |p| {
        mcsched::gen::uniprocessor_spec(2, p)
    });
    assert_eq!(admission_sized.len(), 256);
    let point = GridPoint {
        u_hh: 0.45,
        u_hl: 0.2,
        u_ll: 0.25,
    };
    let tuner = draw_sets(&uniprocessor_spec(point, 6, 24), 2017 ^ 0x5eed, 32, 800);
    assert!(tuner.len() >= 24, "only {} tuner sets", tuner.len());
    let wide = draw_sets(&uniprocessor_spec(point, 20, 40), 2017 ^ 0x1a7e5, 24, 800);
    assert!(wide.len() >= 16, "only {} wide tuner sets", wide.len());
    assert!(wide.iter().all(|ts| ts.len() >= 20));
    for ts in admission_sized.iter().chain(&tuner).chain(&wide) {
        assert_corpus_set_equivalent(ts, &mut ws);
    }
}

/// The admission layer's warm kernel must report fixpoint reuse through
/// its stats — the observability the `mcexp ablation` table builds on — while
/// agreeing with the one-shot tuner on every probe.
#[test]
fn admission_probes_reuse_fixpoints() {
    use mcsched::analysis::WorkspaceRef;
    let tasks = vec![
        Task::hi(0, 10, 1, 3).unwrap(),
        Task::lo(1, 20, 4).unwrap(),
        Task::hi(2, 25, 3, 8).unwrap(),
        Task::hi(3, 12, 2, 6).unwrap(),
        Task::lo(4, 15, 3).unwrap(),
        Task::hi(5, 40, 3, 9).unwrap(),
    ];
    for test in [&Ey::new() as &dyn SchedulabilityTest, &Ecdf::new()] {
        let mut state = test.admission_state_in(&WorkspaceRef::new());
        for t in &tasks {
            let mut union = state.tasks().clone();
            union.push_unchecked(*t);
            let expected = test.is_schedulable(&union);
            assert_eq!(state.try_admit(t), expected, "{} on {t}", test.name());
            if expected {
                state.commit(*t);
            }
        }
        let stats = state.stats();
        assert!(
            stats.qpa_cold > 0,
            "no cold descents recorded ({}): {stats:?}",
            test.name()
        );
        assert!(
            stats.qpa_resumed > 0,
            "no warm fixpoint reuse recorded ({}): {stats:?}",
            test.name()
        );
    }
}

/// A set whose high-mode utilization `Σ_HC C^H/T` is exactly 1 sits in
/// the band where every high-mode check is unbounded, so EY / ECDF must
/// reject it. The kernel's overload rule says so before any search: the
/// one-shot tests, the seed tuners and an admission state all reject,
/// the kernel's own high-mode check agrees that the band is unbounded,
/// and the rejecting probe starts no QPA descent.
#[test]
fn hi_utilization_band_rejects_without_a_search() {
    use mcsched::analysis::dbf::DemandCheck;
    use mcsched::analysis::WorkspaceRef;
    // One HC task with C^H = T, and two HC tasks with C^H/T = 1/2 each.
    let band_sets = [
        vec![Task::hi(0, 10, 5, 10).unwrap()],
        vec![
            Task::hi(0, 10, 2, 5).unwrap(),
            Task::hi(1, 10, 2, 5).unwrap(),
        ],
    ];
    for tasks in band_sets {
        let ts = TaskSet::try_from_tasks(tasks.clone()).unwrap();
        let mut kernel = DemandKernel::new();
        kernel.load_untightened(&ts);
        assert!(kernel.overloaded(), "{ts}");
        assert_eq!(kernel.check_hi(), DemandCheck::Unbounded, "{ts}");
        assert!(!vd_reference::ey_is_schedulable(&ts), "seed EY on {ts}");
        assert!(!vd_reference::ecdf_is_schedulable(&ts), "seed ECDF on {ts}");
        let (last, committed) = tasks.split_last().unwrap();
        for test in [&Ey::new() as &dyn SchedulabilityTest, &Ecdf::new()] {
            assert!(!test.is_schedulable(&ts), "{} on {ts}", test.name());
            let mut state = test.admission_state_in(&WorkspaceRef::new());
            for t in committed {
                assert!(state.try_admit(t), "{} on {t}", test.name());
                state.commit(*t);
            }
            let before = state.stats();
            assert!(!state.try_admit(last), "{} on {last}", test.name());
            let after = state.stats();
            assert_eq!(
                after.qpa_cold,
                before.qpa_cold,
                "{}: {after:?}",
                test.name()
            );
            assert_eq!(
                after.incremental,
                before.incremental + 1,
                "{}: the band reject is O(1): {after:?}",
                test.name()
            );
        }
    }
}
