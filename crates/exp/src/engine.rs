//! The shared batch-evaluation engine.
//!
//! Every experiment in this crate has the same shape: a batch of
//! independent items (generated task sets, corpus entries, simulation
//! workloads) is evaluated under a deterministic per-item RNG stream and
//! folded into a summary. Before this module existed, that
//! generate→evaluate→aggregate loop was re-implemented in each experiment
//! file; now [`run_batch`] is the **only** place in the workspace that
//! spawns worker threads (`std::thread::scope` lives here and nowhere
//! else).
//!
//! The three pieces:
//!
//! * [`Batch`] — how many items, under which seed/stream, on how many
//!   worker threads;
//! * [`Evaluator`] — maps one item index (plus its private RNG) to an
//!   output, or `None` when the item is infeasible and must be skipped;
//! * [`Accumulator`] — a streaming, mergeable fold of outputs. Workers
//!   fold locally and the engine merges the worker-local accumulators in
//!   worker order, so a batch's summary is **deterministic** in
//!   `(seed, threads)` regardless of scheduling. When the fold is
//!   commutative and associative (integer counters — every accumulator in
//!   this crate), the summary is furthermore independent of the thread
//!   count; a non-commutative fold (e.g. floating-point summation) sees a
//!   different, but still deterministic, fold order per thread count.
//!
//! # Determinism
//!
//! Item `i` of stream `s` under seed `q` always sees the RNG
//! [`item_rng`]`(q, s, i)` — the same golden-ratio mixing the acceptance
//! sweeps have used since the seed PR, which is what keeps sweep results
//! bit-identical to the historical per-figure loops (asserted by
//! `tests/engine_equivalence.rs`).
//!
//! # Example
//!
//! ```
//! use mcsched_exp::engine::{run_batch, Accumulator, Batch, Evaluator};
//! use rand::{rngs::StdRng, RngExt};
//!
//! /// Counts heads in a seeded coin-flip batch.
//! struct CoinFlip;
//!
//! #[derive(Default)]
//! struct Heads(usize);
//!
//! impl Accumulator for Heads {
//!     type Output = bool;
//!     fn absorb(&mut self, heads: bool) {
//!         self.0 += usize::from(heads);
//!     }
//!     fn merge(&mut self, other: Self) {
//!         self.0 += other.0;
//!     }
//! }
//!
//! impl Evaluator for CoinFlip {
//!     type Output = bool;
//!     type Acc = Heads;
//!     type Ctx = ();
//!     fn context(&self) {}
//!     fn evaluate(&self, _index: usize, rng: &mut StdRng, _ctx: &mut ()) -> Option<bool> {
//!         Some(rng.random_range(0..2) == 1)
//!     }
//!     fn accumulator(&self) -> Heads {
//!         Heads::default()
//!     }
//! }
//!
//! let batch = Batch::new(100, 42).with_threads(4);
//! let a = run_batch(&batch, &CoinFlip);
//! let b = run_batch(&batch.with_threads(1), &CoinFlip);
//! assert_eq!(a.0, b.0, "thread count never changes the outcome");
//! ```

use rand::{rngs::StdRng, SeedableRng};

/// Golden-ratio multiplier decorrelating consecutive seeds
/// (the 64-bit `2^64 / φ` constant).
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One batch of independently evaluated items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// Number of item indices (`0..items`) to evaluate.
    pub items: usize,
    /// Base seed; together with `stream` it determines every item RNG.
    pub seed: u64,
    /// Sub-stream identifier, decorrelating batches that share a seed
    /// (the acceptance sweeps use the `UB` bucket percentage).
    pub stream: u64,
    /// Worker threads (clamped to `[1, items]` at run time).
    pub threads: usize,
}

impl Batch {
    /// A sequential batch of `items` items under `seed` (stream 0).
    pub fn new(items: usize, seed: u64) -> Self {
        Batch {
            items,
            seed,
            stream: 0,
            threads: 1,
        }
    }

    /// Sets the sub-stream identifier.
    #[must_use]
    pub fn with_stream(mut self, stream: u64) -> Self {
        self.stream = stream;
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The deterministic RNG of item `index` in stream `stream` under `seed`.
///
/// This is the exact per-item seeding the acceptance sweeps have always
/// used; it is public so tests can reproduce any single item of any batch
/// in isolation.
pub fn item_rng(seed: u64, stream: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(SEED_MIX)
            .wrapping_add(stream << 32)
            .wrapping_add(index as u64),
    )
}

/// A streaming, mergeable fold of per-item outputs.
pub trait Accumulator: Sized {
    /// The per-item output being folded.
    type Output;

    /// Folds one item's output into the accumulator.
    fn absorb(&mut self, output: Self::Output);

    /// Merges another worker's accumulator into this one. Workers are
    /// merged in worker-index order, so even a non-commutative fold
    /// produces a summary that is deterministic for a fixed thread count
    /// (thread-count *invariance* additionally requires the fold to be
    /// commutative and associative — see the module docs).
    fn merge(&mut self, other: Self);
}

/// Maps item indices to outputs under deterministic per-item RNG streams.
pub trait Evaluator: Sync {
    /// The per-item output.
    type Output: Send;
    /// The accumulator folding outputs into a summary.
    type Acc: Accumulator<Output = Self::Output> + Send;
    /// Per-worker scratch carried across that worker's items — analysis
    /// workspaces, reusable buffers. Created once per worker thread by
    /// [`context`](Evaluator::context), never shared between workers, and
    /// handed mutably to every [`evaluate`](Evaluator::evaluate) call, so
    /// the steady-state batch loop allocates nothing per item. Use `()`
    /// when the evaluator needs no scratch. Contexts must not influence
    /// outputs (they are scratch): determinism in `(seed, threads)`
    /// continues to hold regardless of how items map to workers.
    type Ctx;

    /// A fresh per-worker context.
    fn context(&self) -> Self::Ctx;

    /// Evaluates one item. `rng` is private to the item ([`item_rng`]);
    /// `ctx` is the calling worker's scratch; return `None` to skip an
    /// infeasible item (skipped items are simply never absorbed).
    fn evaluate(&self, index: usize, rng: &mut StdRng, ctx: &mut Self::Ctx)
        -> Option<Self::Output>;

    /// A fresh, empty accumulator.
    fn accumulator(&self) -> Self::Acc;
}

/// Runs a batch: evaluates every item index under its own RNG stream and
/// folds the outputs. With `threads > 1`, worker `w` takes indices
/// `w, w + threads, w + 2·threads, …` and worker-local accumulators are
/// merged in worker order, so the result never depends on scheduling.
pub fn run_batch<E: Evaluator>(batch: &Batch, evaluator: &E) -> E::Acc {
    let threads = batch.threads.max(1).min(batch.items.max(1));
    if threads == 1 {
        let mut acc = evaluator.accumulator();
        let mut ctx = evaluator.context();
        for index in 0..batch.items {
            let mut rng = item_rng(batch.seed, batch.stream, index);
            if let Some(out) = evaluator.evaluate(index, &mut rng, &mut ctx) {
                acc.absorb(out);
            }
        }
        return acc;
    }

    let mut worker_accs: Vec<Option<E::Acc>> = (0..threads).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (worker, slot) in worker_accs.iter_mut().enumerate() {
            scope.spawn(move || {
                let mut acc = evaluator.accumulator();
                // The worker's private scratch, reused across its items.
                let mut ctx = evaluator.context();
                for index in (worker..batch.items).step_by(threads) {
                    let mut rng = item_rng(batch.seed, batch.stream, index);
                    if let Some(out) = evaluator.evaluate(index, &mut rng, &mut ctx) {
                        acc.absorb(out);
                    }
                }
                *slot = Some(acc);
            });
        }
    });

    let mut merged = evaluator.accumulator();
    for acc in worker_accs.into_iter().flatten() {
        merged.merge(acc);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Sums the first draw of every item; skips every third item.
    struct DrawSum;

    #[derive(Default)]
    struct Sum {
        total: u64,
        absorbed: usize,
    }

    impl Accumulator for Sum {
        type Output = u64;
        fn absorb(&mut self, out: u64) {
            self.total += out;
            self.absorbed += 1;
        }
        fn merge(&mut self, other: Self) {
            self.total += other.total;
            self.absorbed += other.absorbed;
        }
    }

    impl Evaluator for DrawSum {
        type Output = u64;
        type Acc = Sum;
        type Ctx = ();
        fn context(&self) {}
        fn evaluate(&self, index: usize, rng: &mut StdRng, _ctx: &mut ()) -> Option<u64> {
            let draw = rng.random_range(0..1000u64);
            (index % 3 != 2).then_some(draw)
        }
        fn accumulator(&self) -> Sum {
            Sum::default()
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let base = Batch::new(97, 12345).with_stream(7);
        let seq = run_batch(&base, &DrawSum);
        for threads in [2, 3, 8, 97, 200] {
            let par = run_batch(&base.with_threads(threads), &DrawSum);
            assert_eq!(par.total, seq.total, "threads={threads}");
            assert_eq!(par.absorbed, seq.absorbed, "threads={threads}");
        }
        // Two of every three items absorbed.
        assert_eq!(seq.absorbed, 65);
    }

    #[test]
    fn item_rng_is_stable_per_index() {
        let mut a = item_rng(42, 60, 5);
        let mut b = item_rng(42, 60, 5);
        assert_eq!(a.random_range(0..u64::MAX), b.random_range(0..u64::MAX));
        // Different indices, streams and seeds decorrelate.
        let mut c = item_rng(42, 60, 6);
        let mut d = item_rng(42, 61, 5);
        let mut e = item_rng(43, 60, 5);
        let first: Vec<u64> = [&mut c, &mut d, &mut e]
            .into_iter()
            .map(|r| r.random_range(0..u64::MAX))
            .collect();
        assert_eq!(first.len(), 3);
    }

    #[test]
    fn empty_batch_yields_empty_accumulator() {
        let acc = run_batch(&Batch::new(0, 1).with_threads(4), &DrawSum);
        assert_eq!(acc.absorbed, 0);
        assert_eq!(acc.total, 0);
    }
}
