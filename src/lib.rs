//! # mcsched — Mixed-Criticality Partitioned Scheduling
//!
//! A comprehensive Rust reproduction of Ramanathan & Easwaran,
//! *"Utilization Difference Based Partitioned Scheduling of
//! Mixed-Criticality Systems"* (DATE 2017).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — the dual-criticality sporadic task model,
//! * [`analysis`] — uniprocessor MC schedulability tests
//!   (EDF-VD, EY, ECDF, AMC-rtb, AMC-max),
//! * [`core`] — the partitioning framework, the paper's **CA-UDP** /
//!   **CU-UDP** strategies and every baseline it compares against,
//! * [`gen`] — the fair task-set generator of the paper's §IV,
//! * [`sim`] — a discrete-event mixed-criticality scheduler simulator,
//! * [`exp`] — the experiment harness that regenerates the paper's figures,
//! * [`service`] — the admission-control service plane (wire protocol,
//!   session server, journal) that `mcexp eval` and `mcexp serve` run.
//!
//! ## Quickstart
//!
//! ```
//! use mcsched::model::{Task, TaskSet};
//! use mcsched::core::{presets, AlgorithmSpec, TestName};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ts = TaskSet::try_from_tasks(vec![
//!     Task::hi(0, 10, 2, 5)?,
//!     Task::hi(1, 20, 4, 9)?,
//!     Task::lo(2, 10, 4)?,
//!     Task::lo(3, 25, 5)?,
//! ])?;
//!
//! // Partition onto 2 processors with the paper's CU-UDP strategy,
//! // admitting tasks with the EDF-VD schedulability test.
//! let algo = AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd);
//! let partition = algo.try_partition(&ts, 2)?;
//! assert_eq!(partition.processor_count(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! ## Registry & batch evaluation
//!
//! Algorithms are also addressable as **data**: the
//! [`AlgorithmRegistry`](core::AlgorithmRegistry) parses display names
//! like `"CU-UDP-EDF-VD"` (any `"<strategy>-<test>"` combination of the
//! six preset strategies and five uniprocessor tests) into
//! [`AlgorithmSpec`](core::AlgorithmSpec)s: serde-able data that also
//! partitions task sets and opens live sessions, so custom combinations
//! run the same way. The experiment harness's line-ups are
//! lists of these names, every experiment loop runs on the shared
//! [`engine`](exp::engine) (deterministic per-item RNG streams, sharded
//! workers, streaming aggregators), and `mcexp eval` serves JSONL
//! schedulability requests over the same names:
//!
//! ```
//! use mcsched::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = AlgorithmRegistry::standard();
//! let algo = registry.spec("CU-UDP-EDF-VD")?;
//!
//! let ts = TaskSet::try_from_tasks(vec![
//!     Task::hi(0, 10, 2, 5)?,
//!     Task::lo(1, 10, 4)?,
//! ])?;
//! assert!(algo.accepts(&ts, 2));
//!
//! // Unknown names report every registered algorithm.
//! let err = registry.spec("CU-UDP-RTA").unwrap_err();
//! assert!(err.to_string().contains("CU-UDP-EDF-VD"));
//! # Ok(())
//! # }
//! ```

pub use mcsched_analysis as analysis;
pub use mcsched_core as core;
pub use mcsched_exp as exp;
pub use mcsched_gen as gen;
pub use mcsched_model as model;
pub use mcsched_service as service;
pub use mcsched_sim as sim;

/// The most commonly used names in one import: the task model, the five
/// uniprocessor tests, the partitioning framework, and the registry /
/// batch-evaluation surface.
///
/// ```
/// use mcsched::prelude::*;
///
/// let algo = AlgorithmRegistry::standard()
///     .spec("CA-UDP-ECDF")
///     .expect("registered name");
/// assert_eq!(algo.name(), "CA-UDP-ECDF");
/// ```
pub mod prelude {
    pub use mcsched_analysis::{
        AmcMax, AmcRtb, AnalysisWorkspace, Ecdf, EdfVd, Ey, SchedulabilityTest, WorkspaceRef,
    };
    pub use mcsched_core::{
        presets, AlgorithmRegistry, AlgorithmSpec, AllocationOrder, BalanceMetric, FitRule,
        Partition, PartitionError, PartitionStrategy, RegistryError, TestName,
    };
    pub use mcsched_exp::engine::{run_batch, Accumulator, Batch, Evaluator};
    pub use mcsched_exp::{SweepConfig, SweepResult};
    pub use mcsched_model::{Criticality, Task, TaskId, TaskSet, Time};
}

/// The README's Rust examples, compiled as doctests so an API change
/// cannot leave them stale.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
