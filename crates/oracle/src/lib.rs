//! # mcsched-oracle
//!
//! The seed (allocating, per-call) implementations of the
//! `mcsched-analysis` schedulability tests, kept **verbatim** as test
//! oracles for the production kernels, plus the references that only
//! tests use:
//!
//! * [`amc`] — scalar low-mode RTA, the AMC-rtb fixpoint that re-derives
//!   every interference term per iteration, and the AMC-max bound that
//!   materialises, sorts and deduplicates its candidate switch instants;
//! * [`dbf`] — the flat per-call QPA demand checks, the brute-force
//!   [`dbf::DemandCurve`] and the total demand sums;
//! * [`vdtune`] — the allocating EY / ECDF virtual-deadline tuners over
//!   [`dbf`];
//! * [`classic`] — plain EDF over the own-level and low-mode budget
//!   projections, the baselines of the dominance suite;
//! * [`incremental`] — the clone-and-retest admission state
//!   [`CloneRetestState`] and the [`OneShot`] wrapper that forces it.
//!
//! The equivalence suites (`tests/analysis_workspace.rs`,
//! `tests/demand_kernel.rs`, `tests/incremental_equivalence.rs`,
//! `tests/service_session.rs`, `crates/analysis/tests/saturation.rs`, the
//! unit tests here), the chaos soak of `mcsched-service` and the
//! reference-vs-workspace ratios of `mcexp analysis` compare the
//! production code against these.
//!
//! This crate shares no code with the kernels it checks: it uses only
//! the model types, the public admission-layer traits
//! ([`SchedulabilityTest`](mcsched_analysis::SchedulabilityTest),
//! [`AdmissionState`](mcsched_analysis::AdmissionState) and its
//! counters) and four public items of `mcsched-analysis`
//! ([`VdTask`](mcsched_analysis::VdTask),
//! [`DemandCheck`](mcsched_analysis::DemandCheck), and the per-task
//! demand functions [`dbf_lo`](mcsched_analysis::dbf::dbf_lo) /
//! [`dbf_hi`](mcsched_analysis::dbf::dbf_hi)). Where the seed read a
//! private kernel constant (the QPA budget, the utilization epsilon, the
//! tuner efforts) it keeps its own copy of the value. No production
//! crate depends on it (CI checks the normal dependency trees of
//! `mcsched-model`, `-analysis`, `-core`, `-gen` and `-sim`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amc;
pub mod classic;
pub mod dbf;
#[cfg(test)]
mod demand;
pub mod incremental;
pub mod vdtune;

pub use incremental::{CloneRetestState, OneShot};
