//! The algorithm registry: naming, describing and constructing complete
//! partitioned MC scheduling algorithms as **data**.
//!
//! The paper's evaluation is a cross-product of partitioning strategies
//! and uniprocessor tests (`CU-UDP-EDF-VD`, `CA-UDP-AMC`, `ECA-Wu-F-EY`,
//! …). This module turns that cross-product into an enumerable,
//! serializable API:
//!
//! * [`TestName`] — the closed set of uniprocessor schedulability tests,
//! * [`AlgorithmSpec`] — a strategy (name, order, fit rules) paired with a
//!   test name; serde-able, so algorithm line-ups can live in config files
//!   or service requests instead of Rust constructors,
//! * [`AlgorithmRegistry`] — parses display names like `"CU-UDP-EDF-VD"`
//!   (or whole [`AlgorithmSpec`]s) into ready-to-run [`AlgoBox`]es and
//!   enumerates every available algorithm name.
//!
//! # Example
//!
//! ```
//! use mcsched_core::{AlgorithmRegistry, MultiprocessorTest};
//! use mcsched_model::{Task, TaskSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry = AlgorithmRegistry::standard();
//! let algo = registry.parse("CU-UDP-EDF-VD")?;
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

use crate::algorithm::{MultiprocessorTest, PartitionedAlgorithm};
use crate::presets;
use crate::strategy::{AllocationOrder, BalanceMetric, FitRule, PartitionStrategy};
use mcsched_analysis::{
    AdmissionState, AmcMax, AmcRtb, Ecdf, EdfVd, Ey, FastRule, FastState, SchedulabilityTest,
    WorkspaceRef,
};
use serde::{Deserialize, Serialize, Value};
use std::error::Error;
use std::fmt;

/// A boxed, thread-shareable partitioned algorithm — the unit the
/// experiment harness and the evaluation service work with.
pub type AlgoBox = Box<dyn MultiprocessorTest + Send + Sync>;

/// The uniprocessor schedulability tests the registry can instantiate.
///
/// This is the closed set of tests shipped by `mcsched-analysis`; each
/// variant knows its canonical display suffix (the part after the strategy
/// name in `"CU-UDP-EDF-VD"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

    /// Parses a canonical display suffix (`"EDF-VD"`) or a serialized
    /// variant identifier (`"EdfVd"`).
    pub fn parse(s: &str) -> Option<TestName> {
        Self::ALL
            .iter()
            .copied()
            .find(|t| t.canonical() == s || variant_ident(*t) == s)
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

fn variant_ident(t: TestName) -> &'static str {
    match t {
        TestName::EdfVd => "EdfVd",
        TestName::Ey => "Ey",
        TestName::Ecdf => "Ecdf",
        TestName::AmcRtb => "AmcRtb",
        TestName::AmcMax => "AmcMax",
    }
}

impl fmt::Display for TestName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.canonical())
    }
}

/// A complete partitioned algorithm as **data**: a partitioning strategy
/// plus the name of a uniprocessor test, with an optional display-name
/// override (the paper writes `CU-UDP-AMC` for `CU-UDP-AMC-max`).
///
/// Specs serialize (`serde_json::to_string`) and parse back
/// ([`AlgorithmSpec::from_value`]); [`AlgorithmSpec::build`] instantiates
/// the runnable algorithm.
///
/// # Example
///
/// ```
/// use mcsched_core::{presets, AlgorithmSpec, TestName, MultiprocessorTest};
///
/// let spec = AlgorithmSpec::new(presets::cu_udp(), TestName::AmcMax)
///     .with_display_name("CU-UDP-AMC");
/// assert_eq!(spec.name(), "CU-UDP-AMC");
/// assert_eq!(spec.build().name(), "CU-UDP-AMC");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Instantiates the runnable algorithm described by this spec.
    ///
    /// The box is a [`PartitionedAlgorithm`], so it answers through the
    /// workspace-aware entry points
    /// ([`MultiprocessorTest::try_partition_reporting_in`] /
    /// [`MultiprocessorTest::accepts_in`]) with real scratch reuse —
    /// batch harnesses hand each worker one [`WorkspaceRef`] and judge
    /// every item through it.
    pub fn build(&self) -> AlgoBox {
        Box::new(
            PartitionedAlgorithm::new(self.strategy.clone(), self.test.test())
                .with_name(self.name()),
        )
    }

    /// Opens a live [`ClusterSession`](crate::ClusterSession) over `m`
    /// processors: one persistent admission state per processor for this
    /// spec's test, placed by this spec's fit rules. Where
    /// [`AlgorithmSpec::build`] judges frozen task sets,
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

    /// The sufficient-tier rule that is provably sound for this spec's
    /// exact test (fast-accept ⇒ the exact test accepts; see
    /// [`mcsched_analysis::sufficient`]).
    pub fn fast_rule(&self) -> FastRule {
        match self.test {
            // The closed form *is* the EDF-VD test.
            TestName::EdfVd => FastRule::EdfVdClosedForm,
            // The demand tests are greedy heuristic searches that
            // honour no density bound on HC-bearing sets; only the
            // LC-only region is provable against them.
            TestName::Ey | TestName::Ecdf => FastRule::LcOnlyDensity,
            // Liu–Layland on own-level density ⇒ the AMC RTAs accept.
            TestName::AmcRtb | TestName::AmcMax => FastRule::LiuLaylandOwnDensity,
        }
    }

    /// Opens a **degraded-tier** cluster session: the same placement
    /// strategy and display name as [`open_cluster`](Self::open_cluster),
    /// but every processor runs the allocation-free sufficient pre-check
    /// ([`fast_rule`](Self::fast_rule)) instead of the exact test.
    ///
    /// Accepts are sound — anything a degraded session commits, the
    /// exact test also accepts, so the session can later be rehydrated
    /// (or continued) under exact analysis. Rejects are advisory:
    /// clients retry on an exact worker for a definitive verdict.
    pub fn open_degraded_cluster(&self, m: usize) -> crate::ClusterSession {
        let rule = self.fast_rule();
        let states = (0..m)
            .map(|_| Box::new(FastState::new(rule)) as Box<dyn AdmissionState>)
            .collect();
        crate::ClusterSession::from_states(self.name(), self.strategy.clone(), states)
    }

    /// Reconstructs a spec from a parsed JSON tree (the inverse of the
    /// derived `Serialize`; the offline serde stub provides no typed
    /// deserialization, so the mapping is explicit here).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::InvalidSpec`] describing the first
    /// malformed field.
    pub fn from_value(v: &Value) -> Result<Self, RegistryError> {
        let strategy = strategy_from_value(
            v.get("strategy")
                .ok_or_else(|| invalid("spec is missing `strategy`"))?,
        )?;
        let test_value = v
            .get("test")
            .ok_or_else(|| invalid("spec is missing `test`"))?;
        let test_str = test_value
            .as_str()
            .ok_or_else(|| invalid("`test` must be a string"))?;
        let test = TestName::parse(test_str).ok_or_else(|| RegistryError::UnknownTest {
            name: test_str.to_owned(),
            available: TestName::ALL
                .iter()
                .map(|t| t.canonical().to_owned())
                .collect(),
        })?;
        let display_name = match v.get("display_name") {
            None => None,
            Some(dn) if dn.is_null() => None,
            Some(dn) => Some(
                dn.as_str()
                    .ok_or_else(|| invalid("`display_name` must be a string or null"))?
                    .to_owned(),
            ),
        };
        Ok(AlgorithmSpec {
            strategy,
            test,
            display_name,
        })
    }
}

impl fmt::Display for AlgorithmSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Why a registry lookup or spec reconstruction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No registered `<strategy>-<test>` combination matches the name.
    UnknownAlgorithm {
        /// The name that failed to parse.
        name: String,
        /// Every name the registry can parse.
        available: Vec<String>,
    },
    /// No registered test matches the name.
    UnknownTest {
        /// The test name that failed to parse.
        name: String,
        /// Every registered test name.
        available: Vec<String>,
    },
    /// A serialized [`AlgorithmSpec`] was structurally malformed.
    InvalidSpec {
        /// What was wrong.
        reason: String,
    },
}

fn invalid(reason: impl Into<String>) -> RegistryError {
    RegistryError::InvalidSpec {
        reason: reason.into(),
    }
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
            RegistryError::UnknownTest { name, available } => {
                write!(
                    f,
                    "unknown test `{name}`; available: {}",
                    available.join(", ")
                )
            }
            RegistryError::InvalidSpec { reason } => write!(f, "invalid algorithm spec: {reason}"),
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
    /// An empty registry (register strategies and tests manually).
    pub fn empty() -> Self {
        AlgorithmRegistry {
            strategies: Vec::new(),
            tests: Vec::new(),
        }
    }

    /// The standard registry: every preset strategy
    /// ([`presets::all`]), every test ([`TestName::ALL`]), and the
    /// paper's `"AMC"` shorthand for [`TestName::AmcMax`].
    pub fn standard() -> Self {
        let mut registry = Self::empty();
        for strategy in presets::all() {
            registry.register_strategy(strategy);
        }
        for test in TestName::ALL {
            registry.register_test(test.canonical(), test);
        }
        registry.register_test("AMC", TestName::AmcMax);
        registry
    }

    /// Registers (or replaces, by name) a strategy.
    pub fn register_strategy(&mut self, strategy: PartitionStrategy) {
        self.strategies.retain(|s| s.name() != strategy.name());
        self.strategies.push(strategy);
        self.strategies.sort_by(|a, b| {
            b.name()
                .len()
                .cmp(&a.name().len())
                .then_with(|| a.name().cmp(b.name()))
        });
    }

    /// Registers (or replaces) a test under a display suffix. Aliases are
    /// just additional registrations (`"AMC"` → [`TestName::AmcMax`]).
    pub fn register_test(&mut self, suffix: impl Into<String>, test: TestName) {
        let suffix = suffix.into();
        self.tests.retain(|(s, _)| *s != suffix);
        self.tests.push((suffix, test));
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

    /// Parses a display name straight into a runnable algorithm.
    ///
    /// # Errors
    ///
    /// As [`AlgorithmRegistry::spec`].
    pub fn parse(&self, name: &str) -> Result<AlgoBox, RegistryError> {
        self.spec(name).map(|spec| spec.build())
    }

    /// Parses a whole line-up of display names.
    ///
    /// # Errors
    ///
    /// Fails on the first unknown name (see [`AlgorithmRegistry::parse`]).
    pub fn resolve(&self, names: &[&str]) -> Result<Vec<AlgoBox>, RegistryError> {
        names.iter().map(|n| self.parse(n)).collect()
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

    /// Parses a display name and opens a **degraded-tier** session (the
    /// sufficient pre-check instead of the exact test; see
    /// [`AlgorithmSpec::open_degraded_cluster`]).
    ///
    /// # Errors
    ///
    /// As [`AlgorithmRegistry::spec`].
    pub fn open_degraded_session(
        &self,
        name: &str,
        m: usize,
    ) -> Result<crate::ClusterSession, RegistryError> {
        self.spec(name).map(|spec| spec.open_degraded_cluster(m))
    }
}

impl Default for AlgorithmRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

// ------------------------------------------------- manual deserialization

fn strategy_from_value(v: &Value) -> Result<PartitionStrategy, RegistryError> {
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| invalid("strategy is missing string `name`"))?;
    let order = order_from_value(
        v.get("order")
            .ok_or_else(|| invalid("strategy is missing `order`"))?,
    )?;
    let hc_fit = fit_from_value(
        v.get("hc_fit")
            .ok_or_else(|| invalid("strategy is missing `hc_fit`"))?,
    )?;
    let lc_fit = fit_from_value(
        v.get("lc_fit")
            .ok_or_else(|| invalid("strategy is missing `lc_fit`"))?,
    )?;
    Ok(PartitionStrategy::builder(name)
        .order(order)
        .hc_fit(hc_fit)
        .lc_fit(lc_fit)
        .build())
}

fn order_from_value(v: &Value) -> Result<AllocationOrder, RegistryError> {
    if let Some(s) = v.as_str() {
        return match s {
            "CriticalityUnaware" => Ok(AllocationOrder::CriticalityUnaware),
            other => Err(invalid(format!("unknown allocation order `{other}`"))),
        };
    }
    if let Some(inner) = v.get("CriticalityAware") {
        let sorted = inner
            .get("sorted")
            .and_then(Value::as_bool)
            .ok_or_else(|| invalid("CriticalityAware needs boolean `sorted`"))?;
        return Ok(AllocationOrder::CriticalityAware { sorted });
    }
    if let Some(inner) = v.get("HeavyLcFirst") {
        let threshold = inner
            .get("threshold_millis")
            .and_then(Value::as_u64)
            .ok_or_else(|| invalid("HeavyLcFirst needs integer `threshold_millis`"))?;
        let threshold =
            u32::try_from(threshold).map_err(|_| invalid("`threshold_millis` out of range"))?;
        return Ok(AllocationOrder::HeavyLcFirst {
            threshold_millis: threshold,
        });
    }
    Err(invalid("unrecognized allocation order"))
}

fn metric_from_value(v: &Value) -> Result<BalanceMetric, RegistryError> {
    match v.as_str() {
        Some("UtilizationDifference") => Ok(BalanceMetric::UtilizationDifference),
        Some("HiUtilization") => Ok(BalanceMetric::HiUtilization),
        Some("LoModeLoad") => Ok(BalanceMetric::LoModeLoad),
        Some("OwnLevelLoad") => Ok(BalanceMetric::OwnLevelLoad),
        Some(other) => Err(invalid(format!("unknown balance metric `{other}`"))),
        None => Err(invalid("balance metric must be a string")),
    }
}

fn fit_from_value(v: &Value) -> Result<FitRule, RegistryError> {
    if let Some(s) = v.as_str() {
        return match s {
            "FirstFit" => Ok(FitRule::FirstFit),
            other => Err(invalid(format!("unknown fit rule `{other}`"))),
        };
    }
    if let Some(metric) = v.get("WorstFit") {
        return Ok(FitRule::WorstFit(metric_from_value(metric)?));
    }
    if let Some(metric) = v.get("BestFit") {
        return Ok(FitRule::BestFit(metric_from_value(metric)?));
    }
    Err(invalid("unrecognized fit rule"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_analysis::WorkspaceRef;
    use mcsched_model::{Task, TaskSet};

    #[test]
    fn registry_boxes_are_workspace_aware() {
        // Every registered algorithm must answer identically through a
        // fresh workspace and one shared across the whole lineup, as a
        // batch worker would use, and agree with the pooled entry points.
        let registry = AlgorithmRegistry::standard();
        let ts = small_set();
        let ws = WorkspaceRef::new();
        for name in registry.algorithm_names() {
            let algo = registry.parse(&name).unwrap();
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
        for t in TestName::ALL {
            assert_eq!(TestName::parse(t.canonical()), Some(t), "{t}");
            assert_eq!(TestName::parse(variant_ident(t)), Some(t), "{t}");
        }
        assert_eq!(TestName::parse("RTA"), None);
        assert_eq!(TestName::EdfVd.to_string(), "EDF-VD");
    }

    #[test]
    fn standard_registry_parses_every_combination() {
        let registry = AlgorithmRegistry::standard();
        let names = registry.algorithm_names();
        // 6 strategies × (5 tests + AMC alias).
        assert_eq!(names.len(), 36);
        for name in &names {
            let algo = registry.parse(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(algo.name(), name, "display name must round-trip");
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
        let algo = registry.parse("CU-UDP-AMC").unwrap();
        assert_eq!(algo.name(), "CU-UDP-AMC");
        // The alias builds the same verdict function as the long name.
        let long = registry.parse("CU-UDP-AMC-max").unwrap();
        let ts = small_set();
        assert_eq!(algo.accepts(&ts, 2), long.accepts(&ts, 2));
    }

    #[test]
    fn unknown_names_list_available() {
        let registry = AlgorithmRegistry::standard();
        let err = registry.spec("CU-UDP-RTA").unwrap_err();
        match &err {
            RegistryError::UnknownAlgorithm { name, available } => {
                assert_eq!(name, "CU-UDP-RTA");
                assert!(available.iter().any(|n| n == "CU-UDP-EDF-VD"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("unknown algorithm `CU-UDP-RTA`"));
        assert!(msg.contains("CA-UDP-ECDF"));
    }

    #[test]
    fn registry_built_matches_direct_construction() {
        let registry = AlgorithmRegistry::standard();
        let built = registry.parse("CA-UDP-EDF-VD").unwrap();
        let direct = PartitionedAlgorithm::new(presets::ca_udp(), EdfVd::new());
        let ts = small_set();
        for m in 1..=3 {
            assert_eq!(
                built.try_partition(&ts, m),
                direct.try_partition(&ts, m),
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
        let algo = spec.build();
        assert_eq!(algo.name(), "CA-WF(Ulo)-EDF-VD");
        assert!(algo.accepts(&small_set(), 2));
    }

    #[test]
    fn spec_serde_round_trips() {
        let registry = AlgorithmRegistry::standard();
        for name in registry.algorithm_names() {
            let spec = registry.spec(&name).unwrap();
            let json = serde_json::to_string(&spec).unwrap();
            let parsed = serde_json::parse_value(&json).unwrap();
            let back = AlgorithmSpec::from_value(&parsed).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, spec, "{name}");
        }
    }

    #[test]
    fn from_value_reports_malformed_specs() {
        let cases = [
            ("{}", "missing `strategy`"),
            (r#"{"strategy": {"name": "X"}, "test": "EDF-VD"}"#, "order"),
            (
                r#"{"strategy": {"name": "X", "order": "CriticalityUnaware",
                    "hc_fit": "FirstFit", "lc_fit": "FirstFit"}, "test": "RTA"}"#,
                "unknown test",
            ),
            (
                r#"{"strategy": {"name": "X", "order": "Bogus",
                    "hc_fit": "FirstFit", "lc_fit": "FirstFit"}, "test": "EY"}"#,
                "allocation order",
            ),
        ];
        for (json, needle) in cases {
            let v = serde_json::parse_value(json).unwrap();
            let err = AlgorithmSpec::from_value(&v).unwrap_err().to_string();
            assert!(err.contains(needle), "{json}: {err}");
        }
    }

    #[test]
    fn empty_registry_and_replacement() {
        let mut registry = AlgorithmRegistry::empty();
        assert!(registry.algorithm_names().is_empty());
        registry.register_strategy(presets::cu_udp());
        registry.register_test("EDF-VD", TestName::EdfVd);
        assert!(registry.parse("CU-UDP-EDF-VD").is_ok());
        assert!(registry.parse("CA-UDP-EDF-VD").is_err());
        // Re-registering a name replaces it rather than duplicating.
        registry.register_strategy(presets::cu_udp());
        registry.register_test("EDF-VD", TestName::EdfVd);
        assert_eq!(registry.strategy_names().len(), 1);
        assert_eq!(registry.test_names().len(), 1);
        assert!(registry.strategy("CU-UDP").is_some());
        assert!(registry.strategy("CA-UDP").is_none());
        assert_eq!(AlgorithmRegistry::default().algorithm_names().len(), 36);
    }
}
