//! Micro-benchmarks of the uniprocessor schedulability tests on
//! generator-shaped task sets (the inner loop of every sweep).
//!
//! Two layers:
//!
//! * `uniprocessor_tests` — every test through its public
//!   `is_schedulable` entry point (which now draws scratch from the
//!   thread-local workspace pool);
//! * `amcmax_streaming` — AMC-max on large sets (n ≥ 20 tasks, the
//!   acceptance criterion of the zero-allocation milestone): the retained
//!   seed implementation (materialise + sort + dedup candidates, per-call
//!   vectors) vs the streaming workspace path, verdicts asserted
//!   bit-identical before any measurement;
//! * `amc_rtb_lanes` — AMC-rtb through the SoA lane kernels: the
//!   retained scalar seed (per-task `div_ceil` recurrences over `&[Task]`)
//!   vs the workspace path (one task-at-a-time kernel per fixpoint over
//!   the lanes, fast-kernel certificate, reciprocal division) on
//!   admission-sized and n ≥ 20 sets, verdicts asserted bit-identical
//!   before any measurement;
//! * `vdtune_kernel` — the EY / ECDF tuners: the retained seed stack
//!   (flat per-call QPA from the busy-window bound) vs the incremental
//!   demand kernel (warm-resumed fixpoints + memoised violation
//!   anchors), verdicts asserted bit-identical before any measurement;
//! * `demand_soa` — the same tuners through the SoA demand lanes
//!   (certificate-gated `const FAST` blocks, reciprocal floor division,
//!   branch-free per-point lane sweeps) on admission-sized and n ≥ 20
//!   shapes, verdicts asserted bit-identical before any measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcsched_analysis::{AmcMax, AmcRtb, AnalysisWorkspace, Ecdf, EdfVd, Ey, SchedulabilityTest};
use mcsched_bench::{fixture_sets, midload_point, BENCH_SEED};
use mcsched_exp::analysis_perf::uniprocessor_corpus;
use mcsched_gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched_model::TaskSet;
use mcsched_oracle::amc as reference;
use mcsched_oracle::vdtune as vd_reference;
use rand::{rngs::StdRng, SeedableRng};

fn bench_tests(c: &mut Criterion) {
    let sets = fixture_sets(1, midload_point(), DeadlineModel::Implicit, 32);
    let constrained = fixture_sets(1, midload_point(), DeadlineModel::Constrained, 32);
    let mut group = c.benchmark_group("uniprocessor_tests");
    let tests: Vec<(&str, Box<dyn SchedulabilityTest>)> = vec![
        ("EDF-VD", Box::new(EdfVd::new())),
        ("EY", Box::new(Ey::new())),
        ("ECDF", Box::new(Ecdf::new())),
        ("AMC-rtb", Box::new(AmcRtb::new())),
        ("AMC-max", Box::new(AmcMax::new())),
    ];
    for (name, test) in &tests {
        group.bench_with_input(BenchmarkId::new("implicit", name), test, |b, test| {
            b.iter(|| {
                sets.iter()
                    .filter(|ts| test.is_schedulable(std::hint::black_box(ts)))
                    .count()
            });
        });
        group.bench_with_input(BenchmarkId::new("constrained", name), test, |b, test| {
            b.iter(|| {
                constrained
                    .iter()
                    .filter(|ts| test.is_schedulable(std::hint::black_box(ts)))
                    .count()
            });
        });
    }
    group.finish();
}

/// Generator-shaped sets with at least 20 tasks at **uniprocessor** load
/// (the shape AMC-max sees inside the partitioning inner loop — an
/// `m`-processor fixture would trip the structural overload rejection and
/// measure only the fast-reject path).
///
/// The load point is well below `midload_point()`: with 20–40 tasks on
/// one processor, DM + AMC-max saturates early, and at mid load nearly
/// every set dies in the (shared) low-mode RTA before any candidate walk
/// runs. At this point roughly half the sets are schedulable, so the
/// enumeration over every HC task — the cost the streaming walk attacks —
/// dominates the measurement.
fn large_sets() -> Vec<TaskSet> {
    let point = GridPoint {
        u_hh: 0.3,
        u_hl: 0.15,
        u_ll: 0.2,
    };
    let mut spec = TaskSetSpec::paper_defaults(1, point, DeadlineModel::Implicit);
    spec.n_min = 20;
    spec.n_max = 40;
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let mut sets = Vec::new();
    let mut guard = 0;
    while sets.len() < 24 && guard < 600 {
        guard += 1;
        if let Ok(ts) = spec.generate(&mut rng) {
            sets.push(ts);
        }
    }
    assert!(sets.len() >= 16, "only {} sets with n >= 20", sets.len());
    assert!(sets.iter().all(|ts| ts.len() >= 20));
    sets
}

fn bench_amcmax_streaming(c: &mut Criterion) {
    let sets = large_sets();
    // The two paths must agree set-by-set before anything is timed.
    let mut ws = AnalysisWorkspace::new();
    let test = AmcMax::new();
    for ts in &sets {
        assert_eq!(
            test.is_schedulable_in(ts, &mut ws),
            reference::amc_max_is_schedulable(ts),
            "streaming/seed divergence on an n={} set",
            ts.len()
        );
    }
    let mut group = c.benchmark_group("amcmax_streaming");
    group.bench_with_input(BenchmarkId::new("n20", "reference"), &sets, |b, sets| {
        b.iter(|| {
            sets.iter()
                .filter(|ts| reference::amc_max_is_schedulable(std::hint::black_box(ts)))
                .count()
        });
    });
    group.bench_with_input(BenchmarkId::new("n20", "workspace"), &sets, |b, sets| {
        let mut ws = AnalysisWorkspace::new();
        b.iter(|| {
            sets.iter()
                .filter(|ts| test.is_schedulable_in(std::hint::black_box(ts), &mut ws))
                .count()
        });
    });
    group.finish();
}

fn bench_amc_rtb_lanes(c: &mut Criterion) {
    // Two corpus shapes: admission-sized sets (uniprocessor loads of an
    // m = 2 partition) and wide sets (n ≥ 20).
    let small = uniprocessor_corpus(2, 256, BENCH_SEED);
    let wide = large_sets();
    let test = AmcRtb::new();
    let mut ws = AnalysisWorkspace::new();
    for ts in small.iter().chain(&wide) {
        assert_eq!(
            test.is_schedulable_in(ts, &mut ws),
            reference::amc_rtb_is_schedulable(ts),
            "lane/seed divergence on an n={} set",
            ts.len()
        );
    }
    let mut group = c.benchmark_group("amc_rtb_lanes");
    for (shape, sets) in [("admission-sized", &small), ("n20", &wide)] {
        group.bench_with_input(BenchmarkId::new(shape, "reference"), sets, |b, sets| {
            b.iter(|| {
                sets.iter()
                    .filter(|ts| reference::amc_rtb_is_schedulable(std::hint::black_box(ts)))
                    .count()
            });
        });
        group.bench_with_input(BenchmarkId::new(shape, "workspace"), sets, |b, sets| {
            let mut ws = AnalysisWorkspace::new();
            b.iter(|| {
                sets.iter()
                    .filter(|ts| test.is_schedulable_in(std::hint::black_box(ts), &mut ws))
                    .count()
            });
        });
    }
    group.finish();
}

/// Generator-shaped uniprocessor-load sets for the tuner bench: the same
/// shape the EY/ECDF tests see inside the partitioning inner loop, with
/// enough HC overrun that the greedy descent iterates (one-round accepts
/// would measure only the prelude).
fn tuner_sets() -> Vec<TaskSet> {
    let point = GridPoint {
        u_hh: 0.45,
        u_hl: 0.2,
        u_ll: 0.25,
    };
    let mut spec = TaskSetSpec::paper_defaults(1, point, DeadlineModel::Implicit);
    spec.n_min = 6;
    spec.n_max = 24;
    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5eed);
    let mut sets = Vec::new();
    let mut guard = 0;
    while sets.len() < 32 && guard < 800 {
        guard += 1;
        if let Ok(ts) = spec.generate(&mut rng) {
            sets.push(ts);
        }
    }
    assert!(sets.len() >= 24, "only {} tuner sets", sets.len());
    sets
}

fn bench_vdtune_kernel(c: &mut Criterion) {
    let sets = tuner_sets();
    // Kernel and seed stack must agree set-by-set before anything is
    // timed (this is what `cargo bench -- --test` checks in CI).
    let mut ws = AnalysisWorkspace::new();
    for ts in &sets {
        assert_eq!(
            Ey::new().is_schedulable_in(ts, &mut ws),
            vd_reference::ey_is_schedulable(ts),
            "EY kernel/seed divergence on an n={} set",
            ts.len()
        );
        assert_eq!(
            Ecdf::new().is_schedulable_in(ts, &mut ws),
            vd_reference::ecdf_is_schedulable(ts),
            "ECDF kernel/seed divergence on an n={} set",
            ts.len()
        );
    }
    let mut group = c.benchmark_group("vdtune_kernel");
    group.bench_with_input(BenchmarkId::new("EY", "reference"), &sets, |b, sets| {
        b.iter(|| {
            sets.iter()
                .filter(|ts| vd_reference::ey_is_schedulable(std::hint::black_box(ts)))
                .count()
        });
    });
    group.bench_with_input(BenchmarkId::new("EY", "kernel"), &sets, |b, sets| {
        let test = Ey::new();
        let mut ws = AnalysisWorkspace::new();
        b.iter(|| {
            sets.iter()
                .filter(|ts| test.is_schedulable_in(std::hint::black_box(ts), &mut ws))
                .count()
        });
    });
    group.bench_with_input(BenchmarkId::new("ECDF", "reference"), &sets, |b, sets| {
        b.iter(|| {
            sets.iter()
                .filter(|ts| vd_reference::ecdf_is_schedulable(std::hint::black_box(ts)))
                .count()
        });
    });
    group.bench_with_input(BenchmarkId::new("ECDF", "kernel"), &sets, |b, sets| {
        let test = Ecdf::new();
        let mut ws = AnalysisWorkspace::new();
        b.iter(|| {
            sets.iter()
                .filter(|ts| test.is_schedulable_in(std::hint::black_box(ts), &mut ws))
                .count()
        });
    });
    group.finish();
}

/// Wide (n ≥ 20) sets at the tuner load point: long lanes, so the
/// branch-free sweep (not fixed per-call overhead) dominates a check.
fn wide_tuner_sets() -> Vec<TaskSet> {
    let point = GridPoint {
        u_hh: 0.45,
        u_hl: 0.2,
        u_ll: 0.25,
    };
    let mut spec = TaskSetSpec::paper_defaults(1, point, DeadlineModel::Implicit);
    spec.n_min = 20;
    spec.n_max = 40;
    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x1a7e5);
    let mut sets = Vec::new();
    let mut guard = 0;
    while sets.len() < 24 && guard < 800 {
        guard += 1;
        if let Ok(ts) = spec.generate(&mut rng) {
            sets.push(ts);
        }
    }
    assert!(sets.len() >= 16, "only {} wide tuner sets", sets.len());
    assert!(sets.iter().all(|ts| ts.len() >= 20));
    sets
}

fn bench_demand_soa(c: &mut Criterion) {
    // Two corpus shapes, matching the demand kernel's routing: admission-
    // sized sets (n ≤ 10, where fixed per-check overhead and the warm
    // memos dominate) and wide sets (n ≥ 20, where the certificate-gated
    // `dbf` lane sweep carries the win). Both tuners run so the bench
    // covers the LO-only (EY) and warm-resumed hi-mode (ECDF) QPA paths.
    let small = uniprocessor_corpus(2, 256, BENCH_SEED ^ 0xd50a);
    let wide = wide_tuner_sets();
    let mut ws = AnalysisWorkspace::new();
    for ts in small.iter().chain(&wide) {
        assert_eq!(
            Ey::new().is_schedulable_in(ts, &mut ws),
            vd_reference::ey_is_schedulable(ts),
            "EY lane/seed divergence on an n={} set",
            ts.len()
        );
        assert_eq!(
            Ecdf::new().is_schedulable_in(ts, &mut ws),
            vd_reference::ecdf_is_schedulable(ts),
            "ECDF lane/seed divergence on an n={} set",
            ts.len()
        );
    }
    let mut group = c.benchmark_group("demand_soa");
    for (shape, sets) in [("admission-sized", &small), ("n20-lanes", &wide)] {
        group.bench_with_input(BenchmarkId::new(shape, "EY-reference"), sets, |b, sets| {
            b.iter(|| {
                sets.iter()
                    .filter(|ts| vd_reference::ey_is_schedulable(std::hint::black_box(ts)))
                    .count()
            });
        });
        group.bench_with_input(BenchmarkId::new(shape, "EY-lanes"), sets, |b, sets| {
            let test = Ey::new();
            let mut ws = AnalysisWorkspace::new();
            b.iter(|| {
                sets.iter()
                    .filter(|ts| test.is_schedulable_in(std::hint::black_box(ts), &mut ws))
                    .count()
            });
        });
        group.bench_with_input(
            BenchmarkId::new(shape, "ECDF-reference"),
            sets,
            |b, sets| {
                b.iter(|| {
                    sets.iter()
                        .filter(|ts| vd_reference::ecdf_is_schedulable(std::hint::black_box(ts)))
                        .count()
                });
            },
        );
        group.bench_with_input(BenchmarkId::new(shape, "ECDF-lanes"), sets, |b, sets| {
            let test = Ecdf::new();
            let mut ws = AnalysisWorkspace::new();
            b.iter(|| {
                sets.iter()
                    .filter(|ts| test.is_schedulable_in(std::hint::black_box(ts), &mut ws))
                    .count()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tests,
    bench_amcmax_streaming,
    bench_amc_rtb_lanes,
    bench_vdtune_kernel,
    bench_demand_soa
);
criterion_main!(benches);
