//! Registry & batch evaluation: address algorithms by name, describe a
//! custom one as a serde-able spec, answer a JSONL service request, and
//! run a custom experiment on the shared batch engine.
//!
//! Run with: `cargo run --example registry_eval`

use mcsched::exp::engine::{run_batch, Accumulator, Batch, Evaluator};
use mcsched::exp::protocol::{parse_envelope, Request};
use mcsched::exp::service::evaluate_request;
use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::prelude::*;
use rand::rngs::StdRng;

/// Counts how many generated task sets each named algorithm accepts —
/// a miniature acceptance sweep written directly against the engine.
struct AcceptCount<'a> {
    m: usize,
    spec: TaskSetSpec,
    algorithms: &'a [AlgoBox],
}

#[derive(Default)]
struct Counts {
    generated: usize,
    accepted: Vec<usize>,
}

impl Accumulator for Counts {
    type Output = Vec<bool>;
    fn absorb(&mut self, verdicts: Vec<bool>) {
        if self.accepted.is_empty() {
            self.accepted = vec![0; verdicts.len()];
        }
        self.generated += 1;
        for (slot, ok) in self.accepted.iter_mut().zip(verdicts) {
            *slot += usize::from(ok);
        }
    }
    fn merge(&mut self, other: Self) {
        self.generated += other.generated;
        if self.accepted.is_empty() {
            self.accepted = other.accepted;
        } else {
            for (slot, n) in self.accepted.iter_mut().zip(other.accepted) {
                *slot += n;
            }
        }
    }
}

impl Evaluator for AcceptCount<'_> {
    type Output = Vec<bool>;
    type Acc = Counts;
    // One analysis workspace per engine worker: the schedulability tests
    // reuse its scratch buffers across every item the worker judges.
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
        let ts = self.spec.generate(rng).ok()?;
        Some(
            self.algorithms
                .iter()
                .map(|a| a.accepts_in(&ts, self.m, ws))
                .collect(),
        )
    }
    fn accumulator(&self) -> Counts {
        Counts::default()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Every algorithm of the paper's evaluation is addressable by name.
    let registry = AlgorithmRegistry::standard();
    println!(
        "Registry: {} strategies x {} test names = {} algorithms\n",
        registry.strategy_names().len(),
        registry.test_names().len(),
        registry.algorithm_names().len()
    );

    // 2. Custom combinations are specs — plain data that serializes.
    let custom = AlgorithmSpec::new(
        PartitionStrategy::builder("CU-BF")
            .order(AllocationOrder::CriticalityUnaware)
            .hc_fit(FitRule::BestFit(BalanceMetric::UtilizationDifference))
            .lc_fit(FitRule::FirstFit)
            .build(),
        TestName::Ecdf,
    );
    println!(
        "Custom spec {} as JSON:\n  {}\n",
        custom.name(),
        serde_json::to_string(&custom)?
    );

    // 3. The same names answer JSONL service requests (what `mcexp eval`
    //    reads from stdin).
    let line = r#"{"algorithm": "CA-UDP-EDF-VD", "m": 2, "tasks": [
        {"id": 0, "period": 10, "criticality": "HI", "wcet_lo": 2, "wcet_hi": 5},
        {"id": 1, "period": 20, "wcet_lo": 6}]}"#;
    let Request::Eval(request) = parse_envelope(line).map_err(|e| e.message)?.request else {
        return Err("expected an eval request".into());
    };
    let verdict = evaluate_request(&registry, &request).map_err(std::io::Error::other)?;
    println!(
        "Service verdict for {}: schedulable = {}, witness = {:?}\n",
        verdict.algorithm, verdict.schedulable, verdict.partition
    );

    // 4. Custom experiments ride the shared batch engine: deterministic
    //    per-item RNG streams, thread-count-independent results.
    let m = 2;
    let algorithms = registry.resolve(&["CU-UDP-EDF-VD", "CA(nosort)-F-F-EDF-VD"])?;
    let evaluator = AcceptCount {
        m,
        spec: TaskSetSpec::paper_defaults(
            m,
            GridPoint {
                u_hh: 0.55,
                u_hl: 0.25,
                u_ll: 0.4,
            },
            DeadlineModel::Implicit,
        ),
        algorithms: &algorithms,
    };
    let counts = run_batch(&Batch::new(64, 42).with_threads(4), &evaluator);
    println!(
        "Engine batch over {} generated sets (m = {m}):",
        counts.generated
    );
    for (algo, accepted) in algorithms.iter().zip(&counts.accepted) {
        println!("  {:<24} accepted {accepted:>3}", algo.name());
    }
    Ok(())
}
