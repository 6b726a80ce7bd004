//! Property-based tests on the task-set generator: structural guarantees
//! over the whole parameter space, not just the paper's grid.

use mcsched::gen::{
    bucket_of, paired_utilizations, utilization_grid, uunifast, uunifast_bounded, DeadlineModel,
    GridPoint, TaskSetSpec,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn uunifast_always_sums(n in 1usize..24, total in 0.01f64..8.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = uunifast(&mut rng, n, total);
        prop_assert_eq!(u.len(), n);
        let sum: f64 = u.iter().sum();
        prop_assert!((sum - total).abs() < 1e-9);
        prop_assert!(u.iter().all(|&x| x >= -1e-12));
    }

    #[test]
    fn uunifast_bounded_respects_everything(
        n in 1usize..24,
        frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        // total interpolates between the feasibility extremes.
        let (umin, umax) = (0.001f64, 0.99f64);
        let total = n as f64 * (umin + frac * (umax - umin));
        let mut rng = StdRng::seed_from_u64(seed);
        let u = uunifast_bounded(&mut rng, n, total, umin, umax)
            .expect("feasible by construction");
        prop_assert_eq!(u.len(), n);
        let sum: f64 = u.iter().sum();
        prop_assert!((sum - total).abs() < 1e-6, "sum {sum} != {total}");
        for &x in &u {
            prop_assert!(x >= umin - 1e-9, "{x} below umin");
            prop_assert!(x <= umax + 1e-9, "{x} above umax");
        }
    }

    #[test]
    fn uunifast_bounded_rejects_infeasible(
        n in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert!(uunifast_bounded(&mut rng, n, n as f64 * 0.99 + 0.5, 0.001, 0.99).is_none());
        prop_assert!(uunifast_bounded(&mut rng, n, -0.5, 0.001, 0.99).is_none());
    }

    #[test]
    fn paired_utilizations_invariants(
        n in 1usize..16,
        hi_frac in 0.05f64..1.0,
        lo_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let total_hi = n as f64 * 0.01 + hi_frac * (n as f64 * 0.98 - n as f64 * 0.01);
        let total_lo = total_hi * lo_frac;
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(pairs) =
            paired_utilizations(&mut rng, n, total_lo, total_hi, 0.001, 0.99)
        {
            let sl: f64 = pairs.iter().map(|p| p.0).sum();
            let sh: f64 = pairs.iter().map(|p| p.1).sum();
            prop_assert!((sh - total_hi).abs() < 1e-6);
            prop_assert!((sl - total_lo).abs() < 1e-5, "lo sum {sl} != {total_lo}");
            for &(l, h) in &pairs {
                prop_assert!(l <= h + 1e-9);
                prop_assert!(h <= 0.99 + 1e-9);
            }
        }
    }

    #[test]
    fn generated_sets_always_satisfy_the_model(
        m in 1usize..=8,
        u_hh_pct in 10u32..=90,
        seed in any::<u64>(),
    ) {
        let u_hh = f64::from(u_hh_pct) / 100.0;
        let point = GridPoint { u_hh, u_hl: u_hh / 2.0, u_ll: (0.95 - u_hh / 2.0).clamp(0.05, 0.5) };
        for deadlines in [DeadlineModel::Implicit, DeadlineModel::Constrained] {
            let spec = TaskSetSpec::paper_defaults(m, point, deadlines);
            let mut rng = StdRng::seed_from_u64(seed);
            if let Ok(ts) = spec.generate(&mut rng) {
                prop_assert!(ts.validate().is_ok());
                // The paper draws n from [m+1, 5m].
                prop_assert!(ts.len() > m && ts.len() <= 5 * m);
                for t in &ts {
                    prop_assert!(t.wcet_lo() <= t.wcet_hi());
                    prop_assert!(t.wcet_hi() <= t.deadline());
                    prop_assert!(t.deadline() <= t.period());
                    prop_assert!((10..=500).contains(&t.period().as_ticks()));
                }
                let u = ts.system_utilization();
                // ⌈u·T⌉ only rounds up: the targets are lower bounds.
                prop_assert!(u.u_hh >= u_hh * m as f64 - 1e-6);
            }
        }
    }
}

#[test]
fn grid_buckets_cover_the_paper_range() {
    let grid = utilization_grid();
    let buckets: std::collections::BTreeSet<u32> = grid.iter().map(|p| bucket_of(p).0).collect();
    // The paper's plots span UB from light load to 0.99.
    assert!(buckets.contains(&10) || buckets.contains(&15));
    assert!(buckets.contains(&99));
    // Every decade bucket between 0.3 and 0.9 exists.
    for b in [30u32, 40, 50, 60, 70, 80, 90] {
        assert!(buckets.contains(&b), "missing UB bucket {b}");
    }
}

#[test]
fn grid_points_are_generatable_at_paper_scale() {
    // Every grid point must produce at least one feasible task set at
    // m = 2 (the paper generates 1000 per bucket across such points).
    let mut failures = Vec::new();
    for (i, point) in utilization_grid().into_iter().enumerate() {
        let spec = TaskSetSpec::paper_defaults(2, point, DeadlineModel::Implicit);
        let mut rng = StdRng::seed_from_u64(i as u64);
        let ok = (0..8).any(|_| spec.generate(&mut rng).is_ok());
        if !ok {
            failures.push(point);
        }
    }
    assert!(
        failures.is_empty(),
        "ungeneratable grid points: {failures:?}"
    );
}
