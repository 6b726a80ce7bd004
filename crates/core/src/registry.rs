//! The algorithm registry: naming, describing and running complete
//! partitioned MC scheduling algorithms as **data**.
//!
//! The paper's evaluation is a cross-product of partitioning strategies
//! and uniprocessor tests (`CU-UDP-EDF-VD`, `CA-UDP-AMC`, `ECA-Wu-F-EY`,
//! …). This module turns that cross-product into an enumerable,
//! serializable API:
//!
//! * [`TestName`] — the closed set of uniprocessor schedulability tests,
//! * [`AlgorithmSpec`] — a strategy (name, order, fit rules) paired with a
//!   test name; it partitions task sets, opens live sessions, and
//!   serializes, so a line-up can be logged or reported as data,
//! * [`AlgorithmRegistry`] — parses display names like `"CU-UDP-EDF-VD"`
//!   into specs and enumerates every available algorithm name.
//!
//! # Example
//!
//! ```
//! use mcsched_core::AlgorithmRegistry;
//! use mcsched_model::{Task, TaskSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = AlgorithmRegistry::standard();
//! let algo = registry.spec("CU-UDP-EDF-VD")?;
//! assert_eq!(algo.name(), "CU-UDP-EDF-VD");
//!
//! let ts = TaskSet::try_from_tasks(vec![
//!     Task::hi(0, 10, 2, 4)?,
//!     Task::lo(1, 20, 6)?,
//! ])?;
//! assert!(algo.accepts(&ts, 2));
//!
//! // Unknown names fail with the full list of registered algorithms.
//! let err = registry.spec("CU-UDP-RTA").unwrap_err();
//! assert!(err.to_string().contains("CU-UDP-EDF-VD"));
//! # Ok(())
//! # }
//! ```

use crate::partition::{Partition, PartitionError};
use crate::presets;
use crate::strategy::PartitionStrategy;
use mcsched_analysis::{
    AdmissionStats, AmcMax, AmcRtb, Ecdf, EdfVd, Ey, SchedulabilityTest, WorkspaceRef,
};
use mcsched_model::TaskSet;
use serde::Serialize;
use std::error::Error;
use std::fmt;

/// Kept for the benchmark package (`perfbench/`), which names it: a spec
/// is the runnable algorithm.
pub type AlgoBox = AlgorithmSpec;

/// The uniprocessor schedulability tests the registry can instantiate.
///
/// This is the closed set of tests shipped by `mcsched-analysis`; each
/// variant knows its canonical display suffix (the part after the strategy
/// name in `"CU-UDP-EDF-VD"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TestName {
    /// The utilization-based EDF-VD test (`"EDF-VD"`).
    EdfVd,
    /// The Ekberg–Yi demand-bound test (`"EY"`).
    Ey,
    /// Easwaran's ECDF demand-bound test (`"ECDF"`).
    Ecdf,
    /// AMC response-time analysis, `rtb` bound (`"AMC-rtb"`).
    AmcRtb,
    /// AMC response-time analysis, `max` bound (`"AMC-max"`).
    AmcMax,
}

impl TestName {
    /// Every test, in registry order.
    pub const ALL: [TestName; 5] = [
        TestName::EdfVd,
        TestName::Ey,
        TestName::Ecdf,
        TestName::AmcRtb,
        TestName::AmcMax,
    ];

    /// The canonical display suffix, e.g. `"EDF-VD"`.
    pub const fn canonical(self) -> &'static str {
        match self {
            TestName::EdfVd => "EDF-VD",
            TestName::Ey => "EY",
            TestName::Ecdf => "ECDF",
            TestName::AmcRtb => "AMC-rtb",
            TestName::AmcMax => "AMC-max",
        }
    }

    /// The test this name denotes, as a `'static` instance: its
    /// [`admission_state_in`](SchedulabilityTest::admission_state_in)
    /// states borrow nothing, so a long-lived session can own them.
    ///
    /// # Example
    ///
    /// ```
    /// use mcsched_analysis::{AdmissionState, SchedulabilityTest, WorkspaceRef};
    /// use mcsched_core::TestName;
    /// use mcsched_model::Task;
    ///
    /// # fn main() -> Result<(), mcsched_model::ModelError> {
    /// let test = TestName::Ecdf.test();
    /// assert_eq!(test.name(), "ECDF");
    /// // An owning state: no borrow of a local test survives this call.
    /// let mut state: Box<dyn AdmissionState> = test.admission_state_in(&WorkspaceRef::new());
    /// let t = Task::hi(0, 10, 2, 4)?;
    /// assert!(state.try_admit(&t));
    /// state.commit(t);
    /// assert_eq!(state.tasks().len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn test(self) -> &'static (dyn SchedulabilityTest + Send + Sync) {
        static EDF_VD: EdfVd = EdfVd::new();
        static EY: Ey = Ey::new();
        static ECDF: Ecdf = Ecdf::new();
        static AMC_RTB: AmcRtb = AmcRtb::new();
        static AMC_MAX: AmcMax = AmcMax::new();
        match self {
            TestName::EdfVd => &EDF_VD,
            TestName::Ey => &EY,
            TestName::Ecdf => &ECDF,
            TestName::AmcRtb => &AMC_RTB,
            TestName::AmcMax => &AMC_MAX,
        }
    }
}

impl fmt::Display for TestName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.canonical())
    }
}

/// A complete partitioned algorithm: a partitioning strategy plus the
/// name of a uniprocessor test, with an optional display-name override
/// (the paper writes `CU-UDP-AMC` for `CU-UDP-AMC-max`).
///
/// A spec is both the data form (it serializes, `serde_json::to_string`)
/// and the runnable algorithm: it partitions frozen task sets
/// ([`try_partition`](Self::try_partition)) and opens live sessions
/// ([`open_cluster`](Self::open_cluster)).
///
/// # Example
///
/// ```
/// use mcsched_core::{presets, AlgorithmSpec, TestName};
///
/// let algo = AlgorithmSpec::new(presets::ca_udp(), TestName::AmcMax);
/// assert_eq!(algo.name(), "CA-UDP-AMC-max");
/// let short = algo.with_display_name("CA-UDP-AMC");
/// assert_eq!(short.to_string(), "CA-UDP-AMC");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AlgorithmSpec {
    /// The partitioning strategy (order + fit rules).
    pub strategy: PartitionStrategy,
    /// The uniprocessor admission test.
    pub test: TestName,
    /// Overrides the default `"<strategy>-<test>"` display name.
    pub display_name: Option<String>,
}

impl AlgorithmSpec {
    /// Pairs a strategy with a test.
    pub fn new(strategy: PartitionStrategy, test: TestName) -> Self {
        AlgorithmSpec {
            strategy,
            test,
            display_name: None,
        }
    }

    /// Overrides the display name.
    #[must_use]
    pub fn with_display_name(mut self, name: impl Into<String>) -> Self {
        self.display_name = Some(name.into());
        self
    }

    /// The effective display name: the override if set, otherwise
    /// `"<strategy>-<test>"`.
    pub fn name(&self) -> String {
        self.display_name
            .clone()
            .unwrap_or_else(|| format!("{}-{}", self.strategy.name(), self.test.canonical()))
    }

    /// Kept for the benchmark package (`perfbench/`), which calls it: a
    /// spec is already runnable.
    pub fn build(&self) -> AlgoBox {
        self.clone()
    }

    /// Attempts to partition `ts` onto `m` processors; `Ok` is the
    /// schedulability witness.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] naming the first unallocatable task.
    ///
    /// # Example
    ///
    /// ```
    /// use mcsched_core::{presets, AlgorithmSpec, TestName};
    /// use mcsched_model::{Task, TaskSet};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let algo = AlgorithmSpec::new(presets::ca_udp(), TestName::AmcMax);
    /// let ts = TaskSet::try_from_tasks(vec![
    ///     Task::hi(0, 10, 2, 4)?,
    ///     Task::lo(1, 20, 6)?,
    /// ])?;
    /// assert_eq!(algo.try_partition(&ts, 2)?.processor_count(), 2);
    /// assert!(algo.accepts(&ts, 2));
    /// # Ok(())
    /// # }
    /// ```
    pub fn try_partition(&self, ts: &TaskSet, m: usize) -> Result<Partition, PartitionError> {
        Partition::build(&self.strategy, self.test.test(), ts, m)
    }

    /// As [`try_partition`](Self::try_partition), also reporting the
    /// admission statistics of the run, with the analysis in the caller's
    /// workspace: batch harnesses hand each worker one [`WorkspaceRef`]
    /// and judge every item through it. Results never depend on `ws`.
    pub fn try_partition_reporting_in(
        &self,
        ts: &TaskSet,
        m: usize,
        ws: &WorkspaceRef,
    ) -> (Result<Partition, PartitionError>, AdmissionStats) {
        Partition::build_reporting_in(&self.strategy, self.test.test(), ts, m, ws)
    }

    /// `true` if the algorithm schedules `ts` on `m` processors.
    pub fn accepts(&self, ts: &TaskSet, m: usize) -> bool {
        self.accepts_in(ts, m, &WorkspaceRef::pooled())
    }

    /// As [`accepts`](Self::accepts), in the caller's workspace: the
    /// placement loop of
    /// [`try_partition_reporting_in`](Self::try_partition_reporting_in)
    /// without building the partition, so a warm call allocates only
    /// its `m` admission states and their `Vec`.
    pub fn accepts_in(&self, ts: &TaskSet, m: usize, ws: &WorkspaceRef) -> bool {
        crate::partition::partitions_in(&self.strategy, self.test.test(), ts, m, ws)
    }

    /// Opens a live [`ClusterSession`](crate::ClusterSession) over `m`
    /// processors: one persistent admission state per processor for this
    /// spec's test, placed by this spec's fit rules. Where
    /// [`try_partition`](Self::try_partition) judges frozen task sets,
    /// `open_cluster` serves a *stream* of admit/remove/query requests
    /// against the same cluster — the admission-control-service entry
    /// point.
    ///
    /// All `m` states share one analysis workspace; the session is
    /// single-threaded (see [`ClusterSession`](crate::ClusterSession)).
    pub fn open_cluster(&self, m: usize) -> crate::ClusterSession {
        let test = self.test.test();
        let ws = WorkspaceRef::new();
        let states = (0..m).map(|_| test.admission_state_in(&ws)).collect();
        crate::ClusterSession::from_states(self.name(), self.strategy.clone(), states)
    }
}

impl fmt::Display for AlgorithmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Why a registry lookup failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No registered `<strategy>-<test>` combination matches the name.
    UnknownAlgorithm {
        /// The name that failed to parse.
        name: String,
        /// Every name the registry can parse.
        available: Vec<String>,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownAlgorithm { name, available } => {
                write!(
                    f,
                    "unknown algorithm `{name}`; available: {}",
                    available.join(", ")
                )
            }
        }
    }
}

impl Error for RegistryError {}

/// The registry of named partitioning strategies and uniprocessor tests.
///
/// Parsing is compositional: an algorithm name is
/// `"<strategy name>-<test name>"`, where both halves may themselves
/// contain dashes (`"CA(nosort)-F-F-EDF-VD"` splits into the strategy
/// `CA(nosort)-F-F` and the test `EDF-VD`). The registry tries registered
/// strategy names longest-first, so the split is unambiguous.
///
/// [`AlgorithmRegistry::standard`] registers the six preset strategies of
/// the paper, all five tests, and the paper's `AMC` shorthand for
/// `AMC-max`.
#[derive(Debug, Clone)]
pub struct AlgorithmRegistry {
    /// Registered strategies, kept sorted by descending name length so
    /// prefix matching is longest-first.
    strategies: Vec<PartitionStrategy>,
    /// Registered `(suffix, test)` pairs, canonical names first.
    tests: Vec<(String, TestName)>,
}

impl AlgorithmRegistry {
    /// The standard registry: every preset strategy
    /// ([`presets::all`]), every test ([`TestName::ALL`]), and the
    /// paper's `"AMC"` shorthand for [`TestName::AmcMax`].
    pub fn standard() -> Self {
        let mut strategies = presets::all();
        strategies.sort_by(|a, b| {
            b.name()
                .len()
                .cmp(&a.name().len())
                .then_with(|| a.name().cmp(b.name()))
        });
        let mut tests: Vec<_> = TestName::ALL.map(|t| (t.canonical().to_owned(), t)).into();
        tests.push(("AMC".to_owned(), TestName::AmcMax));
        AlgorithmRegistry { strategies, tests }
    }

    /// Looks up a registered strategy by name.
    pub fn strategy(&self, name: &str) -> Option<&PartitionStrategy> {
        self.strategies.iter().find(|s| s.name() == name)
    }

    /// The registered strategy names (longest first — parse order).
    pub fn strategy_names(&self) -> Vec<String> {
        self.strategies
            .iter()
            .map(|s| s.name().to_owned())
            .collect()
    }

    /// The registered test suffixes (canonical names and aliases).
    pub fn test_names(&self) -> Vec<String> {
        self.tests.iter().map(|(s, _)| s.clone()).collect()
    }

    /// Every algorithm name this registry can parse (the full
    /// strategy × test cross-product), sorted.
    pub fn algorithm_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .strategies
            .iter()
            .flat_map(|s| {
                self.tests
                    .iter()
                    .map(move |(suffix, _)| format!("{}-{}", s.name(), suffix))
            })
            .collect();
        names.sort();
        names
    }

    /// Parses a display name into a spec, preserving the exact input as
    /// the display name (so `"CU-UDP-AMC"` keeps its short form).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownAlgorithm`] listing every
    /// registered name when no `<strategy>-<test>` split matches.
    pub fn spec(&self, name: &str) -> Result<AlgorithmSpec, RegistryError> {
        for strategy in &self.strategies {
            let Some(rest) = name
                .strip_prefix(strategy.name())
                .and_then(|r| r.strip_prefix('-'))
            else {
                continue;
            };
            if let Some((_, test)) = self.tests.iter().find(|(suffix, _)| suffix == rest) {
                return Ok(AlgorithmSpec::new(strategy.clone(), *test).with_display_name(name));
            }
        }
        Err(RegistryError::UnknownAlgorithm {
            name: name.to_owned(),
            available: self.algorithm_names(),
        })
    }

    /// Kept for the benchmark package (`perfbench/`), which calls it: the
    /// same as [`AlgorithmRegistry::spec`].
    ///
    /// # Errors
    ///
    /// As [`AlgorithmRegistry::spec`].
    pub fn parse(&self, name: &str) -> Result<AlgoBox, RegistryError> {
        self.spec(name)
    }

    /// Parses a whole line-up of display names.
    ///
    /// # Errors
    ///
    /// Fails on the first unknown name (see [`AlgorithmRegistry::spec`]).
    pub fn resolve(&self, names: &[&str]) -> Result<Vec<AlgorithmSpec>, RegistryError> {
        names.iter().map(|n| self.spec(n)).collect()
    }

    /// Parses a display name and opens a live
    /// [`ClusterSession`](crate::ClusterSession) over `m` processors
    /// (see [`AlgorithmSpec::open_cluster`]).
    ///
    /// # Errors
    ///
    /// As [`AlgorithmRegistry::spec`].
    pub fn open_session(
        &self,
        name: &str,
        m: usize,
    ) -> Result<crate::ClusterSession, RegistryError> {
        self.spec(name).map(|spec| spec.open_cluster(m))
    }
}

impl Default for AlgorithmRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{AllocationOrder, BalanceMetric, FitRule};
    use mcsched_model::Task;

    #[test]
    fn registry_boxes_are_workspace_aware() {
        // Every registered algorithm must answer identically through a
        // fresh workspace and one shared across the whole lineup, as a
        // batch worker would use, and agree with the pooled entry points.
        let registry = AlgorithmRegistry::standard();
        let ts = small_set();
        let ws = WorkspaceRef::new();
        for name in registry.algorithm_names() {
            let algo = registry.spec(&name).unwrap();
            let (plain, plain_stats) =
                algo.try_partition_reporting_in(&ts, 2, &WorkspaceRef::new());
            assert_eq!(algo.try_partition(&ts, 2), plain, "{name}");
            let (in_ws, ws_stats) = algo.try_partition_reporting_in(&ts, 2, &ws);
            assert_eq!(plain, in_ws, "{name} diverged under a shared workspace");
            assert_eq!(plain_stats, ws_stats, "{name} stats diverged");
            assert_eq!(algo.accepts(&ts, 2), algo.accepts_in(&ts, 2, &ws), "{name}");
        }
    }

    fn small_set() -> TaskSet {
        TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::lo(1, 20, 6).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn test_name_parsing() {
        let registry = AlgorithmRegistry::standard();
        for t in TestName::ALL {
            assert_eq!(t.to_string(), t.canonical());
            let spec = registry.spec(&format!("CU-UDP-{t}")).unwrap();
            assert_eq!(spec.test, t, "{t}");
        }
        assert_eq!(TestName::EdfVd.to_string(), "EDF-VD");
    }

    #[test]
    fn standard_registry_parses_every_combination() {
        let registry = AlgorithmRegistry::standard();
        let names = registry.algorithm_names();
        // 6 strategies × (5 tests + AMC alias).
        assert_eq!(names.len(), 36);
        assert_eq!(AlgorithmRegistry::default().algorithm_names(), names);
        assert_eq!(registry.strategy_names().len(), 6);
        assert_eq!(registry.test_names().len(), 6);
        assert!(registry.strategy("CU-UDP").is_some());
        assert!(registry.strategy("CU-BF").is_none());
        for name in &names {
            let algo = registry.spec(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(&algo.name(), name, "display name must round-trip");
        }
    }

    #[test]
    fn parse_splits_dashed_strategy_names() {
        let registry = AlgorithmRegistry::standard();
        let spec = registry.spec("CA(nosort)-F-F-EDF-VD").unwrap();
        assert_eq!(spec.strategy.name(), "CA(nosort)-F-F");
        assert_eq!(spec.test, TestName::EdfVd);
        let spec = registry.spec("CA-F-F-EY").unwrap();
        assert_eq!(spec.strategy.name(), "CA-F-F");
        assert_eq!(spec.test, TestName::Ey);
    }

    #[test]
    fn amc_alias_keeps_short_display_name() {
        let registry = AlgorithmRegistry::standard();
        let algo = registry.spec("CU-UDP-AMC").unwrap();
        assert_eq!(algo.name(), "CU-UDP-AMC");
        // The alias builds the same verdict function as the long name.
        let long = registry.spec("CU-UDP-AMC-max").unwrap();
        let ts = small_set();
        assert_eq!(algo.accepts(&ts, 2), long.accepts(&ts, 2));
    }

    #[test]
    fn unknown_names_list_available() {
        let registry = AlgorithmRegistry::standard();
        let err = registry.spec("CU-UDP-RTA").unwrap_err();
        let RegistryError::UnknownAlgorithm { name, available } = &err;
        assert_eq!(name, "CU-UDP-RTA");
        assert!(available.iter().any(|n| n == "CU-UDP-EDF-VD"));
        let msg = err.to_string();
        assert!(msg.contains("unknown algorithm `CU-UDP-RTA`"));
        assert!(msg.contains("CA-UDP-ECDF"));
    }

    #[test]
    fn registry_built_matches_direct_construction() {
        let registry = AlgorithmRegistry::standard();
        let built = registry.spec("CA-UDP-EDF-VD").unwrap();
        let ts = small_set();
        for m in 1..=3 {
            assert_eq!(
                built.try_partition(&ts, m),
                Partition::build(&presets::ca_udp(), &EdfVd::new(), &ts, m),
                "m={m}"
            );
        }
    }

    #[test]
    fn spec_builds_custom_strategies() {
        let custom = PartitionStrategy::builder("CA-WF(Ulo)")
            .order(AllocationOrder::CriticalityAware { sorted: true })
            .hc_fit(FitRule::WorstFit(BalanceMetric::LoModeLoad))
            .lc_fit(FitRule::FirstFit)
            .build();
        let spec = AlgorithmSpec::new(custom, TestName::EdfVd);
        assert_eq!(spec.name(), "CA-WF(Ulo)-EDF-VD");
        assert!(spec.accepts(&small_set(), 2));
    }

    #[test]
    fn names_compose() {
        let name = |strategy, test| AlgorithmSpec::new(strategy, test).name();
        assert_eq!(name(presets::cu_udp(), TestName::EdfVd), "CU-UDP-EDF-VD");
        assert_eq!(name(presets::eca_wu_f(), TestName::Ey), "ECA-Wu-F-EY");
        assert_eq!(name(presets::cu_udp(), TestName::Ecdf), "CU-UDP-ECDF");
        let renamed =
            AlgorithmSpec::new(presets::cu_udp(), TestName::AmcMax).with_display_name("CU-UDP-AMC");
        assert_eq!(renamed.name(), "CU-UDP-AMC");
        assert_eq!(renamed.to_string(), "CU-UDP-AMC");
    }

    #[test]
    fn accepts_and_partition_agree() {
        let algo = AlgorithmSpec::new(presets::ca_udp(), TestName::EdfVd);
        let ts = small_set();
        assert_eq!(algo.accepts(&ts, 2), algo.try_partition(&ts, 2).is_ok());
    }

    #[test]
    fn specs_mix_tests() {
        let algos = [
            AlgorithmSpec::new(presets::ca_udp(), TestName::EdfVd),
            AlgorithmSpec::new(presets::cu_udp(), TestName::Ecdf),
            AlgorithmSpec::new(presets::ca_f_f(), TestName::AmcMax),
        ];
        let ts = small_set();
        for a in &algos {
            assert!(a.accepts(&ts, 2), "{a} rejected a trivial set");
        }
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
        let algo = AlgorithmSpec::new(presets::cu_udp(), TestName::EdfVd);
        for m in 1..4 {
            if algo.accepts(&ts, m) {
                assert!(algo.accepts(&ts, m + 1), "m={m} accepted but m+1 rejected");
            }
        }
    }
}
