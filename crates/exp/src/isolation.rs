//! Quantifying §II's partitioned-vs-global argument: how much LC service
//! survives HC overruns under each regime?
//!
//! Under partitioned scheduling a mode switch is confined to one
//! processor; under global scheduling it discards every LC task in the
//! system. This experiment generates EDF-VD-partitionable workloads, runs
//! both regimes under identical random-overrun scenarios, and reports the
//! **LC service ratio** — completed LC jobs over attempted LC jobs
//! (completed + dropped) — for each. Both regimes run on the one
//! simulation engine: the partitioned one as a single-processor
//! `Simulator` per processor (`PartitionedSimulator`), the global one as
//! `Simulator::global` over all `m` processors.

use crate::engine::{run_batch, Accumulator, Batch, Evaluator};
use mcsched_analysis::EdfVd;
use mcsched_core::{presets, AlgorithmSpec, TestName, WorkspaceRef};
use mcsched_gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched_model::{Criticality, TaskSet};
use mcsched_sim::{PartitionedSimulator, Policy, Scenario, Simulator, TraceEvent};
use rand::rngs::StdRng;

/// Aggregate outcome of the isolation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolationResult {
    /// Number of workloads measured.
    pub sets: usize,
    /// Mean LC service ratio under partitioned scheduling.
    pub partitioned_lc_service: f64,
    /// Mean LC service ratio under global scheduling.
    pub global_lc_service: f64,
    /// Mean mode switches per run, partitioned (summed over processors).
    pub partitioned_switches: f64,
    /// Mean mode switches per run, global.
    pub global_switches: f64,
}

/// LC completions / (LC completions + drops) from a traced report.
fn lc_service(ts: &TaskSet, trace: &[TraceEvent]) -> (u64, u64) {
    let mut completed = 0u64;
    let mut dropped = 0u64;
    for ev in trace {
        match ev {
            TraceEvent::Complete { task, .. }
                if ts
                    .get(*task)
                    .is_some_and(|t| t.criticality() == Criticality::Low) =>
            {
                completed += 1;
            }
            TraceEvent::Drop { .. } => dropped += 1,
            _ => {}
        }
    }
    (completed, dropped)
}

/// One workload's counters under both regimes.
struct IsolationSample {
    p_comp: u64,
    p_drop: u64,
    p_sw: u64,
    g_comp: u64,
    g_drop: u64,
    g_sw: u64,
}

#[derive(Default)]
struct IsolationTotals {
    measured: usize,
    p_comp: u64,
    p_drop: u64,
    p_sw: u64,
    g_comp: u64,
    g_drop: u64,
    g_sw: u64,
}

impl Accumulator for IsolationTotals {
    type Output = IsolationSample;

    fn absorb(&mut self, s: IsolationSample) {
        self.measured += 1;
        self.p_comp += s.p_comp;
        self.p_drop += s.p_drop;
        self.p_sw += s.p_sw;
        self.g_comp += s.g_comp;
        self.g_drop += s.g_drop;
        self.g_sw += s.g_sw;
    }

    fn merge(&mut self, other: Self) {
        self.measured += other.measured;
        self.p_comp += other.p_comp;
        self.p_drop += other.p_drop;
        self.p_sw += other.p_sw;
        self.g_comp += other.g_comp;
        self.g_drop += other.g_drop;
        self.g_sw += other.g_sw;
    }
}

/// One item = one partitionable workload simulated under both regimes.
struct IsolationEvaluator {
    m: usize,
    seed: u64,
    overrun_prob: f64,
    horizon: u64,
    point: GridPoint,
    algo: AlgorithmSpec,
}

impl Evaluator for IsolationEvaluator {
    type Output = IsolationSample;
    type Acc = IsolationTotals;
    /// Analysis scratch for the partitioning retries of this worker.
    type Ctx = WorkspaceRef;

    fn context(&self) -> WorkspaceRef {
        WorkspaceRef::new()
    }

    fn evaluate(
        &self,
        index: usize,
        rng: &mut StdRng,
        ws: &mut WorkspaceRef,
    ) -> Option<IsolationSample> {
        // Retry generation/partitioning inside the item's own RNG stream;
        // infeasible draws at this mid-load grid point are rare.
        let (ts, partition) = (0..30).find_map(|_| {
            let spec = TaskSetSpec::paper_defaults(self.m, self.point, DeadlineModel::Implicit);
            let ts = spec.generate(rng).ok()?;
            let partition = self
                .algo
                .try_partition_reporting_in(&ts, self.m, ws)
                .0
                .ok()?;
            Some((ts, partition))
        })?;
        let scenario =
            Scenario::random_overrun(self.overrun_prob, self.seed.wrapping_add(index as u64 + 1));

        let mut sample = IsolationSample {
            p_comp: 0,
            p_drop: 0,
            p_sw: 0,
            g_comp: 0,
            g_drop: 0,
            g_sw: 0,
        };
        let sim = PartitionedSimulator::from_partition(&partition, |proc| {
            let x = EdfVd::new().scaling_factor(proc).unwrap_or(1.0);
            Policy::edf_vd_scaled(proc, x)
        })
        .with_trace();
        for (k, report) in sim.run(&scenario, self.horizon).iter().enumerate() {
            let proc = partition.processor(k).expect("processor exists");
            let (c, d) = lc_service(proc, report.trace());
            sample.p_comp += c;
            sample.p_drop += d;
            sample.p_sw += u64::from(report.mode_switches());
        }

        // Global EDF with the same broadcast mode machinery (virtual
        // deadlines are a uniprocessor construct; plain EDF is the natural
        // global dynamic-priority counterpart).
        let global = Simulator::global(&ts, Policy::Edf, self.m).with_trace();
        let report = global.run(&scenario, self.horizon);
        let (c, d) = lc_service(&ts, report.trace());
        sample.g_comp += c;
        sample.g_drop += d;
        sample.g_sw += u64::from(report.mode_switches());
        Some(sample)
    }

    fn accumulator(&self) -> IsolationTotals {
        IsolationTotals::default()
    }
}

/// Runs the experiment: `sets` partitionable workloads on `m` processors,
/// each executed for `horizon` ticks with `overrun_prob` HC overruns,
/// sharded over `threads` engine workers.
///
/// Each workload is one item of a shared-engine batch with its own
/// deterministic RNG stream, so the result depends only on the arguments
/// (never on the thread count).
pub fn isolation_experiment(
    m: usize,
    sets: usize,
    seed: u64,
    overrun_prob: f64,
    horizon: u64,
    threads: usize,
) -> IsolationResult {
    let evaluator = IsolationEvaluator {
        m,
        seed,
        overrun_prob,
        horizon,
        point: GridPoint {
            u_hh: 0.5,
            u_hl: 0.25,
            u_ll: 0.35,
        },
        algo: AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd),
    };
    let totals = run_batch(&Batch::new(sets, seed).with_threads(threads), &evaluator);

    let ratio = |c: u64, d: u64| {
        if c + d == 0 {
            1.0
        } else {
            c as f64 / (c + d) as f64
        }
    };
    IsolationResult {
        sets: totals.measured,
        partitioned_lc_service: ratio(totals.p_comp, totals.p_drop),
        global_lc_service: ratio(totals.g_comp, totals.g_drop),
        partitioned_switches: totals.p_sw as f64 / totals.measured.max(1) as f64,
        global_switches: totals.g_sw as f64 / totals.measured.max(1) as f64,
    }
}

/// Renders the result as a short markdown table.
pub fn render_isolation(r: &IsolationResult) -> String {
    format!(
        "| regime | LC service ratio | mode switches/run |\n\
         |--------|------------------|-------------------|\n\
         | partitioned (CU-UDP-EDF-VD) | {:.3} | {:.1} |\n\
         | global (EDF) | {:.3} | {:.1} |\n\
         \n({} workloads)\n",
        r.partitioned_lc_service,
        r.partitioned_switches,
        r.global_lc_service,
        r.global_switches,
        r.sets
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_preserves_more_lc_service() {
        let r = isolation_experiment(2, 6, 99, 0.25, 5_000, 2);
        assert!(r.sets >= 4, "need enough measured workloads ({})", r.sets);
        assert!(
            r.partitioned_lc_service >= r.global_lc_service - 1e-9,
            "partitioned {} vs global {}",
            r.partitioned_lc_service,
            r.global_lc_service
        );
        assert!((0.0..=1.0).contains(&r.partitioned_lc_service));
        assert!((0.0..=1.0).contains(&r.global_lc_service));
    }

    #[test]
    fn render_contains_both_regimes() {
        let r = IsolationResult {
            sets: 3,
            partitioned_lc_service: 0.9,
            global_lc_service: 0.5,
            partitioned_switches: 4.0,
            global_switches: 6.0,
        };
        let s = render_isolation(&r);
        assert!(s.contains("partitioned"));
        assert!(s.contains("global"));
        assert!(s.contains("0.900"));
        assert!(s.contains("(3 workloads)"));
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let a = isolation_experiment(2, 3, 7, 0.3, 2_000, 1);
        let b = isolation_experiment(2, 3, 7, 0.3, 2_000, 1);
        assert_eq!(a, b);
        // Thread count never changes the outcome (per-item RNG streams,
        // ordered merge of integer counters).
        let c = isolation_experiment(2, 3, 7, 0.3, 2_000, 3);
        assert_eq!(a, c);
    }
}
