//! Seeded corpora of task sets at mid-to-high load, where admission
//! decisions are non-trivial: the input of the admission profile, the
//! analysis-throughput and service benchmarks, and the equivalence
//! suites.

use crate::grid::{utilization_grid, GridPoint};
use crate::spec::{DeadlineModel, TaskSetSpec};
use mcsched_model::TaskSet;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Generates a deterministic corpus of `count` task sets at mid-to-high
/// load (`UB ∈ [0.5, 0.9]`).
///
/// Each draw picks a grid point with one seeded RNG and generates from
/// `spec(point)`, so the caller fixes the shape: the whole
/// `m`-processor system (the admission profile) or one processor's
/// share of it ([`uniprocessor_spec`]).
/// Gives up after `40 · count` draws, so a corpus can come out short.
pub fn seeded_corpus(
    count: usize,
    seed: u64,
    spec: impl Fn(GridPoint) -> TaskSetSpec,
) -> Vec<TaskSet> {
    let points: Vec<_> = utilization_grid()
        .into_iter()
        .filter(|p| (0.5..=0.9).contains(&p.ub()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut guard = 0usize;
    while out.len() < count && guard < count * 40 {
        guard += 1;
        let point = points[rng.random_range(0..points.len())];
        if let Ok(ts) = spec(point).generate(&mut rng) {
            out.push(ts);
        }
    }
    out
}

/// The generator shape of a **uniprocessor-load** corpus: one processor's
/// utilization at `point`, with the task-count range of an `m`-processor
/// workload (`n ∈ [m+1, 5m]`). Draw a corpus with
/// `seeded_corpus(count, seed, |p| uniprocessor_spec(m, p))`.
///
/// This is the shape the uniprocessor tests actually see inside the
/// partitioning inner loop: one processor's share of the load, but drawn
/// from systems whose task counts grow with `m`. (The partition-level
/// shape of the admission profile keeps the full `m`-processor
/// utilization and would trip every test's O(1) structural overload
/// rejection, measuring nothing but the fast path.)
/// The corpus's `UB ∈ [0.5, 0.9]` keeps verdicts mixed and fixpoints
/// non-trivial.
pub fn uniprocessor_spec(m: usize, point: GridPoint) -> TaskSetSpec {
    let mut spec = TaskSetSpec::paper_defaults(1, point, DeadlineModel::Implicit);
    spec.n_min = m + 1;
    spec.n_max = 5 * m;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_model::Criticality;

    #[test]
    fn corpus_shapes_keep_their_sets() {
        // (sets, tasks, FNV-1a over every task's parameters) of both
        // corpus shapes at seed 2017, as the two separate generator
        // loops this function replaced produced them.
        let fingerprint = |corpus: &[TaskSet]| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for t in corpus.iter().flat_map(TaskSet::iter) {
                for v in [
                    u64::from(t.id().0),
                    t.period().as_ticks(),
                    t.wcet_lo().as_ticks(),
                    t.wcet_hi().as_ticks(),
                    t.deadline().as_ticks(),
                    u64::from(t.criticality() == Criticality::High),
                ] {
                    h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
                }
            }
            (
                corpus.len(),
                corpus.iter().map(TaskSet::len).sum::<usize>(),
                h,
            )
        };
        let partition = |m| {
            seeded_corpus(16, 2017, |p| {
                TaskSetSpec::paper_defaults(m, p, DeadlineModel::Implicit)
            })
        };
        let uniprocessor = |m, n| seeded_corpus(n, 2017, |p| uniprocessor_spec(m, p));
        assert_eq!(fingerprint(&partition(2)), (16, 101, 8880023700383817821));
        assert_eq!(fingerprint(&partition(4)), (16, 227, 13011548914705025270));
        assert_eq!(
            fingerprint(&uniprocessor(4, 16)),
            (16, 214, 3921181817606960141)
        );
        assert_eq!(
            fingerprint(&uniprocessor(2, 256)),
            (256, 1656, 683615834020349178)
        );
    }
}
