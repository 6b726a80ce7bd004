//! Acceptance-ratio sweeps over the paper's utilization grid.
//!
//! Each `UB` bucket is one [`engine`](crate::engine) batch: items are
//! generated task sets (stream = the bucket percentage, so every bucket
//! has its own deterministic RNG streams) and the accumulator counts
//! per-algorithm accepts.

use crate::engine::{run_batch, Accumulator, Batch, Evaluator};
use mcsched_core::{AlgorithmSpec, WorkspaceRef};
use mcsched_gen::{bucketed_grid, DeadlineModel, GridPoint, TaskSetSpec, UbBucket};
use rand::rngs::StdRng;
use rand::RngExt;

/// Configuration of one acceptance-ratio sweep (one panel of Figs. 3–5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Processor count `m`.
    pub m: usize,
    /// Implicit or constrained deadlines.
    pub deadlines: DeadlineModel,
    /// HC-task fraction `P_H`.
    pub p_h: f64,
    /// Task sets generated per `UB` bucket (the paper uses 1000).
    pub sets_per_bucket: usize,
    /// Base RNG seed; the whole sweep is deterministic given it.
    pub seed: u64,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Smallest `UB` bucket (in percent) to sweep; buckets below are
    /// trivially all-accepted and cost time.
    pub min_bucket_percent: u32,
}

impl SweepConfig {
    /// The paper's setup for one panel: `P_H = 0.5`, buckets from
    /// `UB = 0.30`.
    pub fn paper(m: usize, deadlines: DeadlineModel, sets_per_bucket: usize, seed: u64) -> Self {
        SweepConfig {
            m,
            deadlines,
            p_h: 0.5,
            sets_per_bucket,
            seed,
            threads: default_threads(),
            min_bucket_percent: 30,
        }
    }

    /// Overrides the HC fraction (Fig. 6).
    pub fn with_p_h(mut self, p_h: f64) -> Self {
        self.p_h = p_h;
        self
    }

    /// Overrides the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// A sensible default worker count.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16)
}

/// One algorithm's acceptance-ratio curve over `UB`.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceptanceCurve {
    /// Algorithm display name.
    pub algorithm: String,
    /// `(UB, acceptance ratio)` points in increasing `UB` order.
    pub points: Vec<(f64, f64)>,
}

impl AcceptanceCurve {
    /// The acceptance ratio at the bucket nearest to `ub`.
    pub fn ratio_at(&self, ub: f64) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| (a.0 - ub).abs().total_cmp(&(b.0 - ub).abs()))
            .map(|&(_, r)| r)
    }

    /// The weighted acceptance ratio of the paper's Fig. 6:
    /// `WAR = Σ AR(UB)·UB / Σ UB`.
    pub fn weighted_acceptance_ratio(&self) -> f64 {
        let num: f64 = self.points.iter().map(|&(ub, ar)| ub * ar).sum();
        let den: f64 = self.points.iter().map(|&(ub, _)| ub).sum();
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// The largest pointwise advantage of `self` over `other`
    /// (in acceptance-ratio percentage points), with the `UB` where it
    /// occurs.
    pub fn max_improvement_over(&self, other: &AcceptanceCurve) -> (f64, f64) {
        let mut best = (0.0, 0.0);
        for &(ub, ar) in &self.points {
            if let Some(ar_other) = other.ratio_at(ub) {
                let gain = (ar - ar_other) * 100.0;
                if gain > best.1 {
                    best = (ub, gain);
                }
            }
        }
        (best.0, best.1)
    }
}

/// The outcome of a sweep: one curve per algorithm over the same paired
/// task sets.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The configuration that produced this result.
    pub config: SweepConfig,
    /// One curve per algorithm, in line-up order.
    pub curves: Vec<AcceptanceCurve>,
}

impl SweepResult {
    /// Finds a curve by algorithm name.
    pub fn curve(&self, name: &str) -> Option<&AcceptanceCurve> {
        self.curves.iter().find(|c| c.algorithm == name)
    }
}

/// Runs a paired acceptance-ratio sweep: for every `UB` bucket, generate
/// `sets_per_bucket` task sets (sampling the paper's grid points within
/// the bucket uniformly) and let every algorithm judge each set.
///
/// Buckets whose grid points cannot produce feasible task sets under the
/// configuration are skipped (this happens only at extreme `P_H`).
pub fn acceptance_sweep(config: &SweepConfig, algorithms: &[AlgorithmSpec]) -> SweepResult {
    let buckets: Vec<(UbBucket, Vec<GridPoint>)> = bucketed_grid()
        .into_iter()
        .filter(|(b, _)| b.0 >= config.min_bucket_percent)
        .collect();

    let mut curves: Vec<AcceptanceCurve> = algorithms
        .iter()
        .map(|a| AcceptanceCurve {
            algorithm: a.name(),
            points: Vec::with_capacity(buckets.len()),
        })
        .collect();

    for (bucket, points) in &buckets {
        let accepts = bucket_accepts(config, algorithms, *bucket, points);
        if let Some(accepts) = accepts {
            for (curve, count) in curves.iter_mut().zip(accepts.counts) {
                curve
                    .points
                    .push((bucket.as_f64(), count as f64 / accepts.total as f64));
            }
        }
    }
    SweepResult {
        config: *config,
        curves,
    }
}

struct BucketAccepts {
    counts: Vec<usize>,
    total: usize,
}

impl Accumulator for BucketAccepts {
    type Output = Vec<bool>;

    fn absorb(&mut self, accepts: Vec<bool>) {
        self.total += 1;
        for (slot, accepted) in self.counts.iter_mut().zip(accepts) {
            *slot += usize::from(accepted);
        }
    }

    fn merge(&mut self, other: Self) {
        self.total += other.total;
        for (slot, count) in self.counts.iter_mut().zip(other.counts) {
            *slot += count;
        }
    }
}

/// One bucket of a sweep: items are generated task sets, outputs the
/// per-algorithm accept verdicts.
struct BucketEvaluator<'a> {
    config: &'a SweepConfig,
    algorithms: &'a [AlgorithmSpec],
    points: &'a [GridPoint],
}

impl Evaluator for BucketEvaluator<'_> {
    type Output = Vec<bool>;
    type Acc = BucketAccepts;
    /// One analysis workspace per worker: every schedulability judgement
    /// of that worker's items reuses the same scratch buffers.
    type Ctx = WorkspaceRef;

    fn context(&self) -> WorkspaceRef {
        WorkspaceRef::new()
    }

    fn evaluate(
        &self,
        _index: usize,
        rng: &mut StdRng,
        ws: &mut WorkspaceRef,
    ) -> Option<Vec<bool>> {
        let ts = generate_in_bucket(self.config, self.points, rng)?;
        Some(
            self.algorithms
                .iter()
                .map(|a| a.accepts_in(&ts, self.config.m, ws))
                .collect(),
        )
    }

    fn accumulator(&self) -> BucketAccepts {
        BucketAccepts {
            counts: vec![0; self.algorithms.len()],
            total: 0,
        }
    }
}

/// Evaluates all algorithms over one bucket's generated sets, in parallel.
fn bucket_accepts(
    config: &SweepConfig,
    algorithms: &[AlgorithmSpec],
    bucket: UbBucket,
    points: &[GridPoint],
) -> Option<BucketAccepts> {
    let batch = Batch::new(config.sets_per_bucket, config.seed)
        .with_stream(u64::from(bucket.0))
        .with_threads(config.threads);
    let acc = run_batch(
        &batch,
        &BucketEvaluator {
            config,
            algorithms,
            points,
        },
    );
    (acc.total > 0).then_some(acc)
}

/// Generates one task set from a uniformly chosen grid point of the
/// bucket; retries a few times on infeasible corners.
fn generate_in_bucket(
    config: &SweepConfig,
    points: &[GridPoint],
    rng: &mut StdRng,
) -> Option<mcsched_model::TaskSet> {
    for _ in 0..8 {
        let point = points[rng.random_range(0..points.len())];
        let spec =
            TaskSetSpec::paper_defaults(config.m, point, config.deadlines).with_p_h(config.p_h);
        if let Ok(ts) = spec.generate(rng) {
            return Some(ts);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::fig3_lineup;

    fn tiny_config() -> SweepConfig {
        let mut c = SweepConfig::paper(2, DeadlineModel::Implicit, 8, 7);
        c.threads = 2;
        c.min_bucket_percent = 40;
        c
    }

    #[test]
    fn sweep_produces_one_curve_per_algorithm() {
        let result = acceptance_sweep(&tiny_config(), &fig3_lineup());
        assert_eq!(result.curves.len(), 3);
        for c in &result.curves {
            assert!(!c.points.is_empty());
            // Ratios are probabilities.
            assert!(c.points.iter().all(|&(_, r)| (0.0..=1.0).contains(&r)));
            // UB values increase.
            for w in c.points.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = tiny_config();
        let a = acceptance_sweep(&cfg, &fig3_lineup());
        let b = acceptance_sweep(&cfg, &fig3_lineup());
        assert_eq!(a, b);
    }

    #[test]
    fn acceptance_decreases_with_ub_roughly() {
        // Low-UB buckets accept (almost) everything; the top bucket does
        // not. Use a moderate sample for stability.
        let mut cfg = tiny_config();
        cfg.sets_per_bucket = 16;
        cfg.min_bucket_percent = 30;
        let result = acceptance_sweep(&cfg, &fig3_lineup());
        let c = result.curve("CU-UDP-EDF-VD").unwrap();
        let first = c.points.first().unwrap().1;
        let last = c.points.last().unwrap().1;
        assert!(
            first >= last,
            "acceptance should not rise with UB: {first} .. {last}"
        );
        assert!(first > 0.9, "UB=0.3 should accept nearly all ({first})");
    }

    #[test]
    fn curve_statistics() {
        let c = AcceptanceCurve {
            algorithm: "A".into(),
            points: vec![(0.5, 1.0), (0.7, 0.6), (0.9, 0.2)],
        };
        let d = AcceptanceCurve {
            algorithm: "B".into(),
            points: vec![(0.5, 1.0), (0.7, 0.4), (0.9, 0.1)],
        };
        assert_eq!(c.ratio_at(0.71), Some(0.6));
        let war = c.weighted_acceptance_ratio();
        assert!((war - (0.5 + 0.42 + 0.18) / 2.1).abs() < 1e-12);
        let (ub, gain) = c.max_improvement_over(&d);
        assert!((ub - 0.7).abs() < 1e-12);
        assert!((gain - 20.0).abs() < 1e-9);
        // Improvement of the weaker curve over the stronger is zero.
        assert_eq!(d.max_improvement_over(&c).1, 0.0);
    }

    #[test]
    fn config_builders() {
        let c = SweepConfig::paper(4, DeadlineModel::Constrained, 10, 1)
            .with_p_h(0.7)
            .with_threads(3);
        assert_eq!(c.m, 4);
        assert_eq!(c.p_h, 0.7);
        assert_eq!(c.threads, 3);
        assert!(default_threads() >= 1);
    }
}
