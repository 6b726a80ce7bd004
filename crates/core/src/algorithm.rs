//! Pairing a partitioning strategy with a uniprocessor test:
//! the partitioned MC scheduling algorithms of the paper's evaluation
//! (`CU-UDP-EDF-VD`, `CA-UDP-AMC`, `ECA-Wu-F-EY`, …).

use crate::partition::{Partition, PartitionError};
use crate::strategy::PartitionStrategy;
use mcsched_analysis::{AdmissionStats, SchedulabilityTest, WorkspaceRef};
use mcsched_model::TaskSet;
use std::fmt;

/// Object-safe interface for a complete multiprocessor MC scheduling
/// algorithm: given a task set and a processor count, decide
/// schedulability (and produce the witness partition).
///
/// Implemented by [`PartitionedAlgorithm`]; the experiment harness holds
/// `Box<dyn MultiprocessorTest + Sync>` so strategies with different test
/// types mix freely in one comparison.
pub trait MultiprocessorTest {
    /// Display name, e.g. `"CU-UDP-EDF-VD"`.
    fn name(&self) -> &str;

    /// Attempts to partition; `Ok` is the schedulability witness.
    fn try_partition(&self, ts: &TaskSet, m: usize) -> Result<Partition, PartitionError>;

    /// As [`try_partition`](MultiprocessorTest::try_partition), also
    /// reporting the admission-layer statistics of the run, and running
    /// the build's analysis in the caller's workspace — the experiment
    /// engine hands every worker thread one [`WorkspaceRef`] so batch
    /// evaluation reuses scratch buffers across items. Results are
    /// identical (the workspace is scratch only). The default ignores `ws`
    /// and reports empty stats; [`PartitionedAlgorithm`] overrides it with
    /// the real counters.
    fn try_partition_reporting_in(
        &self,
        ts: &TaskSet,
        m: usize,
        ws: &WorkspaceRef,
    ) -> (Result<Partition, PartitionError>, AdmissionStats) {
        let _ = ws;
        (self.try_partition(ts, m), AdmissionStats::default())
    }

    /// `true` if the algorithm schedules the set on `m` processors.
    fn accepts(&self, ts: &TaskSet, m: usize) -> bool {
        self.try_partition(ts, m).is_ok()
    }

    /// As [`accepts`](MultiprocessorTest::accepts), in the caller's
    /// workspace.
    fn accepts_in(&self, ts: &TaskSet, m: usize, ws: &WorkspaceRef) -> bool {
        self.try_partition_reporting_in(ts, m, ws).0.is_ok()
    }
}

/// A partitioned scheduling algorithm: a [`PartitionStrategy`] combined
/// with a uniprocessor [`SchedulabilityTest`].
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_analysis::AmcMax;
/// use mcsched_core::{presets, PartitionedAlgorithm, MultiprocessorTest};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let algo = PartitionedAlgorithm::new(presets::ca_udp(), AmcMax::new());
/// assert_eq!(algo.name(), "CA-UDP-AMC-max");
///
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 2, 4)?,
///     Task::lo(1, 20, 6)?,
/// ])?;
/// assert!(algo.accepts(&ts, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedAlgorithm<T> {
    strategy: PartitionStrategy,
    test: T,
    name: String,
}

impl<T: SchedulabilityTest> PartitionedAlgorithm<T> {
    /// Combines a strategy with a uniprocessor test. The display name is
    /// `"<strategy>-<test>"`.
    pub fn new(strategy: PartitionStrategy, test: T) -> Self {
        let name = format!("{}-{}", strategy.name(), test.name());
        PartitionedAlgorithm {
            strategy,
            test,
            name,
        }
    }

    /// Overrides the display name (the paper writes `CU-UDP-AMC` for what
    /// is technically `CU-UDP-AMC-max`).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The partitioning strategy.
    pub fn strategy(&self) -> &PartitionStrategy {
        &self.strategy
    }

    /// The uniprocessor schedulability test.
    pub fn test(&self) -> &T {
        &self.test
    }

    /// Attempts to partition `ts` onto `m` processors.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] naming the first unallocatable task.
    pub fn partition(&self, ts: &TaskSet, m: usize) -> Result<Partition, PartitionError> {
        Partition::build(&self.strategy, &self.test, ts, m)
    }

    /// As [`partition`](PartitionedAlgorithm::partition), also returning
    /// the aggregated admission statistics of the build, and sharing the
    /// caller's analysis workspace across the build's admission states
    /// (see [`Partition::build_reporting_in`]).
    pub fn partition_reporting_in(
        &self,
        ts: &TaskSet,
        m: usize,
        ws: &WorkspaceRef,
    ) -> (Result<Partition, PartitionError>, AdmissionStats) {
        Partition::build_reporting_in(&self.strategy, &self.test, ts, m, ws)
    }
}

impl<T: SchedulabilityTest> MultiprocessorTest for PartitionedAlgorithm<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_partition(&self, ts: &TaskSet, m: usize) -> Result<Partition, PartitionError> {
        self.partition(ts, m)
    }

    fn try_partition_reporting_in(
        &self,
        ts: &TaskSet,
        m: usize,
        ws: &WorkspaceRef,
    ) -> (Result<Partition, PartitionError>, AdmissionStats) {
        self.partition_reporting_in(ts, m, ws)
    }
}

impl<T: SchedulabilityTest> fmt::Display for PartitionedAlgorithm<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use mcsched_analysis::{AmcMax, Ecdf, EdfVd, Ey};
    use mcsched_model::Task;

    fn small_set() -> TaskSet {
        TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::lo(1, 20, 6).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn names_compose() {
        assert_eq!(
            PartitionedAlgorithm::new(presets::cu_udp(), EdfVd::new()).name(),
            "CU-UDP-EDF-VD"
        );
        assert_eq!(
            PartitionedAlgorithm::new(presets::eca_wu_f(), Ey::new()).name(),
            "ECA-Wu-F-EY"
        );
        assert_eq!(
            PartitionedAlgorithm::new(presets::cu_udp(), Ecdf::new()).name(),
            "CU-UDP-ECDF"
        );
        let renamed =
            PartitionedAlgorithm::new(presets::cu_udp(), AmcMax::new()).with_name("CU-UDP-AMC");
        assert_eq!(renamed.name(), "CU-UDP-AMC");
        assert_eq!(renamed.to_string(), "CU-UDP-AMC");
    }

    #[test]
    fn accepts_and_partition_agree() {
        let algo = PartitionedAlgorithm::new(presets::ca_udp(), EdfVd::new());
        let ts = small_set();
        assert_eq!(algo.accepts(&ts, 2), algo.partition(&ts, 2).is_ok());
    }

    #[test]
    fn trait_objects_mix_tests() {
        let algos: Vec<Box<dyn MultiprocessorTest>> = vec![
            Box::new(PartitionedAlgorithm::new(presets::ca_udp(), EdfVd::new())),
            Box::new(PartitionedAlgorithm::new(presets::cu_udp(), Ecdf::new())),
            Box::new(PartitionedAlgorithm::new(presets::ca_f_f(), AmcMax::new())),
        ];
        let ts = small_set();
        for a in &algos {
            assert!(a.accepts(&ts, 2), "{} rejected a trivial set", a.name());
        }
    }

    #[test]
    fn accessors() {
        let algo = PartitionedAlgorithm::new(presets::ca_udp(), EdfVd::new());
        assert_eq!(algo.strategy().name(), "CA-UDP");
        assert_eq!(algo.test().name(), "EDF-VD");
    }

    #[test]
    fn more_processors_never_hurt_udp() {
        // Monotonicity sanity: anything accepted on m is accepted on m+1
        // (worst-fit spreads; first processor ordering unchanged).
        let ts = TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 6).unwrap(),
            Task::hi(1, 12, 3, 7).unwrap(),
            Task::lo(2, 10, 5).unwrap(),
            Task::lo(3, 20, 9).unwrap(),
        ])
        .unwrap();
        let algo = PartitionedAlgorithm::new(presets::cu_udp(), EdfVd::new());
        for m in 1..4 {
            if algo.accepts(&ts, m) {
                assert!(algo.accepts(&ts, m + 1), "m={m} accepted but m+1 rejected");
            }
        }
    }
}
