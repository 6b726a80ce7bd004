//! The workspace-backed analysis hot path must be **exactly** equivalent
//! to the retained seed (allocating) implementations:
//!
//! * the streaming AMC-max candidate walk visits exactly the
//!   sorted-deduplicated candidate set the seed path materialised, and
//!   returns identical response bounds, never above the AMC-rtb bound;
//! * every test's `is_schedulable_in` (one reused workspace) agrees with
//!   `is_schedulable` on every set;
//! * both hold across unconstrained proptest sets *and* a deterministic
//!   generator-shaped corpus, which includes admission-sized sets of an
//!   m = 2 partition and n ≥ 20 sets at uniprocessor load.

use mcsched::analysis::amc::{amc_max_bound_streamed, amc_max_candidates_streamed, amc_rtb_bounds};
use mcsched::analysis::{
    AmcMax, AmcRtb, AnalysisWorkspace, Ecdf, EdfVd, Ey, LoRta, SchedulabilityTest, WorkspaceRef,
};
use mcsched::gen::seeded_corpus;
use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::{Criticality, Task, TaskSet};
use mcsched_oracle::amc as reference;
use mcsched_oracle::vdtune as vd_reference;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An arbitrary valid task for a set of `n` tasks: period in
/// `2n..=2n + 58`, `C^L` at most `max(1, T/n)` and an HC `C^H` at most
/// twice that (an LC `C^H` anywhere in `[C^L, T]`), optional
/// criticality/constrained deadline. Single-task sets keep
/// the full `2..=60` range with budgets up to the period; wider sets stay
/// near the schedulability boundary instead of overloading at once.
fn arb_task(id: u32, n: usize) -> impl Strategy<Value = Task> {
    let n = n as u64;
    (2 * n..=2 * n + 58, any::<bool>()).prop_flat_map(move |(period, is_hi)| {
        let cap = (period / n).max(1);
        (1u64..=cap, Just(period), Just(is_hi)).prop_flat_map(move |(c_lo, period, is_hi)| {
            if is_hi {
                (c_lo..=(2 * cap).min(period), Just(period), Just(c_lo))
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

/// An arbitrary task set of 1..=24 tasks with distinct ids.
fn arb_taskset() -> impl Strategy<Value = TaskSet> {
    (1usize..=24).prop_flat_map(|n| {
        let tasks: Vec<_> = (0..n as u32).map(|id| arb_task(id, n)).collect();
        tasks.prop_map(|ts| TaskSet::try_from_tasks(ts).expect("distinct ids"))
    })
}

/// Asserts the SoA lane kernels reproduce the seed responses **bit
/// for bit**: the low-mode vector, the AMC-rtb verdict, and (on an
/// accepting verdict) every HC task's high-mode bound.
fn assert_lane_bounds_equivalent(ts: &TaskSet) {
    let lo = LoRta::compute(ts);
    assert_eq!(
        lo,
        reference::lo_responses(ts),
        "lane low-mode responses diverged on {ts}"
    );
    let rtb = amc_rtb_bounds(ts);
    assert_eq!(
        rtb.is_some(),
        lo.is_some(),
        "lane rtb ran without a low-mode pass on {ts}"
    );
    let Some((verdict, bounds)) = rtb else {
        return;
    };
    assert_eq!(
        verdict,
        reference::amc_rtb_is_schedulable(ts),
        "lane AMC-rtb verdict diverged on {ts}"
    );
    if !verdict {
        // On a reject the kernel stops at the first infeasible task;
        // bounds past it are undefined by contract.
        return;
    }
    for (i, t) in ts.as_slice().iter().enumerate() {
        let want = match t.criticality() {
            Criticality::High => reference::amc_rtb_response(ts, i).expect("low mode passed"),
            Criticality::Low => None,
        };
        assert_eq!(bounds[i], want, "rtb bound diverged for τ{i} of {ts}");
    }
}

/// Asserts the streaming walk ≡ the seed candidate enumeration for every
/// task of the set, and the workspace verdicts ≡ the plain verdicts for
/// all five tests. Returns the number of per-task comparisons.
fn assert_workspace_equivalent(ts: &TaskSet, ws: &mut AnalysisWorkspace) -> usize {
    let mut compared = 0;
    for i in 0..ts.len() {
        assert_eq!(
            amc_max_candidates_streamed(ts, i),
            reference::amc_max_candidates(ts, i),
            "candidate sets diverged for τ{i} of {ts}"
        );
        assert_eq!(
            amc_max_bound_streamed(ts, i),
            reference::amc_max_bound(ts, i),
            "response bounds diverged for τ{i} of {ts}"
        );
        compared += 1;
    }
    let tests: Vec<Box<dyn SchedulabilityTest>> = vec![
        Box::new(EdfVd::new()),
        Box::new(Ey::new()),
        Box::new(Ecdf::new()),
        Box::new(AmcRtb::new()),
        Box::new(AmcMax::new()),
    ];
    for test in &tests {
        assert_eq!(
            test.is_schedulable_in(ts, ws),
            test.is_schedulable(ts),
            "{} workspace verdict diverged on {ts}",
            test.name()
        );
    }
    assert_eq!(
        AmcMax::new().is_schedulable(ts),
        reference::amc_max_is_schedulable(ts),
        "AMC-max verdict diverged from the seed implementation on {ts}"
    );
    assert_eq!(
        AmcRtb::new().is_schedulable(ts),
        reference::amc_rtb_is_schedulable(ts),
        "AMC-rtb verdict diverged from the seed implementation on {ts}"
    );
    assert_eq!(
        Ey::new().is_schedulable(ts),
        vd_reference::ey_is_schedulable(ts),
        "EY verdict diverged from the seed tuner on {ts}"
    );
    assert_eq!(
        Ecdf::new().is_schedulable(ts),
        vd_reference::ecdf_is_schedulable(ts),
        "ECDF verdict diverged from the seed tuner on {ts}"
    );
    assert_lane_bounds_equivalent(ts);
    compared
}

/// Asserts the AMC-max walk bound of every HC task is at most its AMC-rtb
/// bound wherever the latter exists: at every switch instant `s < R^LO`
/// the walk charges no more than AMC-rtb does, which is why the walk
/// needs no rtb cap.
fn assert_max_within_rtb(ts: &TaskSet) {
    let Some((_, rtb)) = amc_rtb_bounds(ts) else {
        return;
    };
    for (i, rtb) in rtb.iter().enumerate() {
        let Some(rtb) = rtb else { continue };
        let max = amc_max_bound_streamed(ts, i).expect("low mode passed");
        assert!(
            max.is_some_and(|max| max <= *rtb),
            "AMC-max bound {max:?} of τ{i} exceeds its AMC-rtb bound {rtb} on {ts}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_walk_is_bit_identical(ts in arb_taskset()) {
        let mut ws = AnalysisWorkspace::new();
        assert_workspace_equivalent(&ts, &mut ws);
    }

    #[test]
    fn amc_max_walk_stays_within_the_rtb_bound(ts in arb_taskset()) {
        assert_max_within_rtb(&ts);
    }

    /// Mutation sessions over the delta-maintained SoA view: interleaved
    /// admits (committing on success) and removals, with every single
    /// admission verdict compared against the one-shot test on the
    /// materialised union. Removals force the lane view through its
    /// `insert`/`remove` shifts and the fast-kernel certificate through
    /// its add/subtract reversal, so any drift between the mirror and the
    /// committed set shows up as a verdict divergence.
    #[test]
    fn admission_mutation_sessions_stay_equivalent(
        ts in arb_taskset(),
        ops in proptest::collection::vec(any::<u32>(), 1..=24),
    ) {
        let tests: Vec<Box<dyn SchedulabilityTest>> =
            vec![Box::new(AmcRtb::new()), Box::new(AmcMax::new())];
        for test in &tests {
            let mut state = test.admission_state_in(&WorkspaceRef::new());
            let mut pending: Vec<Task> = ts.iter().copied().collect();
            for &op in &ops {
                let admit = op & 1 == 0 || state.tasks().is_empty();
                if admit {
                    let Some(task) = pending.pop() else { break };
                    let mut union = state.tasks().clone();
                    union.push_unchecked(task);
                    let expected = test.is_schedulable(&union);
                    prop_assert_eq!(
                        state.try_admit(&task),
                        expected,
                        "{} probe diverged on {}",
                        test.name(),
                        &union
                    );
                    if expected {
                        state.commit(task);
                    } else {
                        pending.insert(0, task);
                    }
                } else {
                    let committed = state.tasks().clone();
                    let k = (op >> 1) as usize % committed.len();
                    let victim = committed.as_slice()[k];
                    prop_assert!(state.remove(victim.id()));
                    pending.push(victim);
                }
            }
            // The surviving committed set still judges like a fresh set.
            prop_assert_eq!(
                state.tasks().is_empty() || test.is_schedulable(state.tasks()),
                true,
                "{} left an unschedulable committed set",
                test.name()
            );
        }
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

/// The deterministic generator-shaped corpus: every set of every workload
/// compared through one long-lived workspace (buffer reuse across wildly
/// different sets must never leak into a verdict).
///
/// Besides the `m`-processor workloads it holds 256 admission-sized sets
/// (the uniprocessor loads of an m = 2 partition) and sets of 20–40 tasks
/// at a load where about half survive the low-mode RTA, so the AMC-max
/// candidate walk over every HC task runs on most of them.
#[test]
fn seeded_corpus_streaming_equivalence() {
    let workloads = [
        (2usize, DeadlineModel::Implicit, 0.55, 0.30, 0.35, 21u64),
        (2, DeadlineModel::Constrained, 0.70, 0.35, 0.40, 22),
        (4, DeadlineModel::Implicit, 0.80, 0.40, 0.45, 23),
        (8, DeadlineModel::Constrained, 0.60, 0.25, 0.50, 24),
    ];
    let mut ws = AnalysisWorkspace::new();
    let mut generated = 0usize;
    let mut compared = 0usize;
    for (m, deadlines, u_hh, u_hl, u_ll, seed) in workloads {
        let spec = TaskSetSpec::paper_defaults(m, GridPoint { u_hh, u_hl, u_ll }, deadlines);
        let sets = draw_sets(&spec, seed, 40, 1000);
        assert_eq!(sets.len(), 40, "generator starved at m={m} {deadlines}");
        for ts in &sets {
            compared += assert_workspace_equivalent(ts, &mut ws);
        }
        generated += sets.len();
    }
    let admission_sized = seeded_corpus(256, 2017, |p| mcsched::gen::uniprocessor_spec(2, p));
    assert_eq!(admission_sized.len(), 256);
    let point = GridPoint {
        u_hh: 0.3,
        u_hl: 0.15,
        u_ll: 0.2,
    };
    let wide = draw_sets(&uniprocessor_spec(point, 20, 40), 2017, 24, 600);
    assert!(wide.len() >= 16, "only {} sets with n >= 20", wide.len());
    assert!(wide.iter().all(|ts| ts.len() >= 20));
    for ts in admission_sized.iter().chain(&wide) {
        compared += assert_workspace_equivalent(ts, &mut ws);
    }
    assert!(generated >= 160, "corpus too small: {generated}");
    assert!(compared >= 160, "comparisons too few: {compared}");
}

/// Values past the fast-kernel certificate (wcets and periods at the
/// 2^62–2^63 scale) must take the guarded lane kernels and still
/// reproduce the seed bounds bit-identically — saturation in the guarded
/// path and the seed's overflow-checked fixpoint reject identically.
#[test]
fn guarded_kernel_bounds_match_reference() {
    let big = 1u64 << 62;
    let sets = [
        // Feasible at the huge scale: one heavy HC task under a light one.
        TaskSet::try_from_tasks(vec![
            Task::hi_constrained(0, big, 1, big / 4, big / 2).unwrap(),
            Task::hi_constrained(1, big + 7, big / 8, big / 2, big).unwrap(),
            Task::lo_constrained(2, big, big / 16, big / 2).unwrap(),
        ])
        .unwrap(),
        // Interference sums that saturate: both paths must reject.
        TaskSet::try_from_tasks(vec![
            Task::hi_constrained(0, 3, 1, 1, 2).unwrap(),
            Task::hi_constrained(1, big + 1, big - 1, big - 1, big).unwrap(),
            Task::hi_constrained(2, big + 2, big - 2, big - 1, big).unwrap(),
        ])
        .unwrap(),
        // A single huge-period task alongside small certified ones: the
        // mixed set leaves the certificate, not just its big member.
        TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::lo(1, 20, 5).unwrap(),
            Task::hi_constrained(2, big, 100, 200, big / 2).unwrap(),
        ])
        .unwrap(),
        // More than ten tasks, alternating criticality: low mode passes
        // and every HC bound converges below its deadline.
        wide_huge_set(big / 32),
        // The same shape with heavy `C^H`: the HC bounds outgrow the
        // deadlines, so the high-mode phase rejects.
        wide_huge_set(big / 5),
    ];
    let mut ws = AnalysisWorkspace::new();
    for ts in &sets {
        assert_lane_bounds_equivalent(ts);
        assert_eq!(
            AmcRtb::new().is_schedulable_in(ts, &mut ws),
            AmcRtb::new().is_schedulable(ts),
            "AMC-rtb workspace verdict diverged on {ts}"
        );
        assert_eq!(
            AmcMax::new().is_schedulable_in(ts, &mut ws),
            reference::amc_max_is_schedulable(ts),
            "AMC-max verdict diverged from the seed implementation on {ts}"
        );
    }
    // The two wide sets reach the high-mode phase and split there.
    assert!(LoRta::compute(&sets[3]).is_some() && LoRta::compute(&sets[4]).is_some());
    assert!(AmcRtb::new().is_schedulable(&sets[3]));
    assert!(!AmcRtb::new().is_schedulable(&sets[4]));
}

/// Twelve tasks at the 2^62 period scale (past the fast-kernel
/// certificate), HC and LC alternating, every `C^L = 2^62/64` and every
/// HC `C^H = c_hi`.
fn wide_huge_set(c_hi: u64) -> TaskSet {
    let big = 1u64 << 62;
    let tasks: Vec<Task> = (0..12u32)
        .map(|k| {
            let period = big + 1013 * u64::from(k);
            if k % 2 == 0 {
                Task::hi(k, period, big / 64, c_hi).unwrap()
            } else {
                Task::lo(k, period, big / 64).unwrap()
            }
        })
        .collect();
    TaskSet::try_from_tasks(tasks).unwrap()
}

/// The overflow regression at workspace-integration level: a candidate
/// step sequence that would overflow `u64` (the seed loop's `t += period`)
/// must end the stream exactly, end to end through the public test.
#[test]
fn near_max_periods_run_end_to_end() {
    let big = 1u64 << 63;
    let ts = TaskSet::try_from_tasks(vec![
        Task::hi_constrained(0, big + 2, 1, 1, big).unwrap(),
        Task::hi_constrained(1, big + 100, big + 10, big + 10, big + 50).unwrap(),
    ])
    .unwrap();
    let mut ws = AnalysisWorkspace::new();
    assert!(AmcMax::new().is_schedulable_in(&ts, &mut ws));
    assert!(AmcMax::new().is_schedulable(&ts));
    // The admission layer sees the same instants.
    let test = AmcMax::new();
    let mut state = test.admission_state_in(&WorkspaceRef::new());
    for t in &ts {
        assert!(state.try_admit(t));
        state.commit(*t);
    }
}
