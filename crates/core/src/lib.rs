//! # mcsched-core
//!
//! Partitioned multiprocessor scheduling of dual-criticality task systems:
//! the **Utilization Difference based Partitioning (UDP)** strategies of
//! Ramanathan & Easwaran (DATE 2017) — **CA-UDP** (criticality-aware,
//! Algorithm 1) and **CU-UDP** (criticality-unaware) — together with every
//! baseline strategy their evaluation compares against, on top of a
//! composable partitioning framework:
//!
//! * an [`AllocationOrder`] decides the sequence tasks are offered in,
//! * a [`FitRule`] decides the order processors are tried in for each task
//!   (first-fit, or worst-/best-fit on a [`BalanceMetric`]),
//! * a [`SchedulabilityTest`](mcsched_analysis::SchedulabilityTest)
//!   admits or rejects each tentative allocation (Algorithm 1, line 5).
//!
//! The named strategies of the paper are exposed in [`presets`]; pair one
//! with a uniprocessor test via [`PartitionedAlgorithm`] to obtain e.g.
//! `CU-UDP-EDF-VD` or `CA-UDP-AMC`.
//!
//! ## Example
//!
//! ```
//! use mcsched_model::{Task, TaskSet};
//! use mcsched_analysis::EdfVd;
//! use mcsched_core::{presets, PartitionedAlgorithm};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ts = TaskSet::try_from_tasks(vec![
//!     Task::hi(0, 10, 2, 5)?,
//!     Task::hi(1, 20, 4, 9)?,
//!     Task::lo(2, 10, 4)?,
//!     Task::lo(3, 25, 5)?,
//! ])?;
//! let algo = PartitionedAlgorithm::new(presets::cu_udp(), EdfVd::new());
//! let partition = algo.partition(&ts, 2)?;
//! assert_eq!(partition.processor_count(), 2);
//! assert_eq!(partition.iter().map(|p| p.len()).sum::<usize>(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
pub mod cluster;
mod partition;
pub mod presets;
pub mod registry;
mod strategy;

pub use algorithm::{MultiprocessorTest, PartitionedAlgorithm};
pub use cluster::{AdmitError, ClusterSession};
pub use partition::{verify_partition, Partition, PartitionError};
pub use registry::{AlgoBox, AlgorithmRegistry, AlgorithmSpec, RegistryError, TestName};
pub use strategy::{AllocationOrder, BalanceMetric, FitRule, PartitionStrategy, StrategyBuilder};

// The admission layer the partitioner is built on (see
// `mcsched_analysis::incremental`), re-exported for downstream reporting,
// together with the analysis workspace the partitioner threads through
// the per-processor states (see `mcsched_analysis::workspace`).
pub use mcsched_analysis::{
    AdmissionState, AdmissionStats, AnalysisWorkspace, OneShot, WorkspaceRef,
};
