//! # mcsched-exp
//!
//! The experiment harness that regenerates every figure of the DATE 2017
//! evaluation (§IV):
//!
//! * **Fig. 3** — acceptance ratio vs total normalized utilization `UB`,
//!   implicit deadlines, EDF-VD test: CA-UDP / CU-UDP vs CA(nosort)-F-F,
//!   for `m ∈ {2, 4, 8}`.
//! * **Fig. 4** — implicit deadlines, no speed-up bound: CU-UDP-ECDF and
//!   CU-UDP-AMC vs ECA-Wu-F-EY and CA-F-F-EY.
//! * **Fig. 5** — the same comparison for constrained deadlines.
//! * **Fig. 6** — weighted acceptance ratio vs the HC-task fraction `P_H`.
//! * **Headline** — the "improvement by as much as X%" numbers quoted in
//!   the paper's abstract and §IV, derived from the Fig. 3–5 sweeps.
//! * **Ablations** — the UDP design choices [`ablation`] isolates
//!   (worst-fit metric, sorting, CA vs CU, AMC-max vs AMC-rtb), and the
//!   admission-layer profile of one line-up over a seeded corpus.
//!
//! Every sweep is deterministic under a seed and paired: all algorithms
//! judge the *same* generated task sets. Results are printed as
//! markdown-ish tables and optionally written as CSV.
//!
//! Algorithm line-ups are registry **data** ([`algorithms`] holds name
//! lists resolved through `mcsched_core::AlgorithmRegistry`), and every
//! experiment loop runs on the shared batch [`engine`] (deterministic
//! per-item RNG streams, sharded workers, streaming aggregators — the
//! shared worker-pool substrate; the `mcsched-service` server's accept
//! pool is the only other thread spawner in the workspace).
//!
//! The binary `mcexp` drives everything, including the admission-control
//! server of `mcsched-service` (benchmarked by [`bench_service`]), which
//! `mcexp eval` runs over stdin/stdout:
//!
//! ```text
//! mcexp sweep --fig 3 --sets 200 --seed 42 --out results/
//! mcexp headline --sets 500
//! mcexp ablation
//! mcexp eval --input requests.jsonl   # JSON verdicts on stdout
//! mcexp serve --addr 127.0.0.1:7070   # protocol-v1 session server
//! mcexp bench-service --out BENCH_service.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod algorithms;
pub mod analysis_perf;
pub mod bench_service;
pub mod engine;
pub mod figures;
pub mod headline;
pub mod isolation;
pub mod report;
pub mod sweep;

/// The service plane's modules under their old paths, which the
/// benchmark package (`perfbench/`) and the wire golden tests still
/// name.
pub use mcsched_service::{journal, protocol, server, service};

pub use algorithms::{fig3_lineup, fig4_lineup, perf_lineup};
pub use analysis_perf::{analysis_throughput, AnalysisPerfReport, AnalysisPerfRow};
pub use engine::{run_batch, Accumulator, Batch, Evaluator};
pub use sweep::{AcceptanceCurve, SweepConfig, SweepResult};
