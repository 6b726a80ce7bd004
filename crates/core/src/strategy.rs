//! Strategy vocabulary: allocation orders, balance metrics and fit rules.

use mcsched_model::{SystemUtilization, Task, TaskSet};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The order in which a strategy offers tasks to the partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllocationOrder {
    /// Criticality-aware: all HC tasks before any LC task. With
    /// `sorted = true`, each class is sorted by decreasing utilization at
    /// its own criticality level (`u^H` for HC, `u^L` for LC) — the
    /// ordering of the paper's Algorithm 1. With `sorted = false`, tasks
    /// keep their input order inside each class (the CA(nosort) baseline
    /// of Baruah et al.).
    CriticalityAware {
        /// Sort each class by decreasing own-level utilization.
        sorted: bool,
    },
    /// Criticality-unaware: all tasks in one sequence, sorted by
    /// decreasing utilization at their own criticality level (CU-UDP's
    /// ordering: heavy LC tasks are offered early).
    CriticalityUnaware,
    /// Criticality-aware with *heavy-LC preference* (the "ECA"
    /// enhancement of Gu et al., DATE 2014): LC tasks with `u^L` at or
    /// above the threshold are offered first (by decreasing `u^L`), then
    /// all HC tasks (by decreasing `u^H`), then the remaining LC tasks
    /// (by decreasing `u^L`).
    HeavyLcFirst {
        /// `u^L` threshold (scaled by 1000, so `500` means `0.5`) above
        /// which an LC task counts as heavy. Stored as integer so the
        /// order is `Eq + Hash`.
        threshold_millis: u32,
    },
}

impl AllocationOrder {
    /// Builds the allocation sequence for a task set.
    pub fn sequence(&self, ts: &TaskSet) -> Vec<Task> {
        let mut tasks: Vec<Task> = ts.iter().copied().collect();
        let by_own_desc = |a: &Task, b: &Task| {
            b.utilization_own()
                .total_cmp(&a.utilization_own())
                .then_with(|| a.id().cmp(&b.id()))
        };
        match *self {
            AllocationOrder::CriticalityAware { sorted } => {
                let (mut hi, mut lo): (Vec<Task>, Vec<Task>) =
                    tasks.into_iter().partition(|t| t.criticality().is_high());
                if sorted {
                    hi.sort_by(by_own_desc);
                    lo.sort_by(by_own_desc);
                }
                hi.extend(lo);
                hi
            }
            AllocationOrder::CriticalityUnaware => {
                tasks.sort_by(by_own_desc);
                tasks
            }
            AllocationOrder::HeavyLcFirst { threshold_millis } => {
                let threshold = f64::from(threshold_millis) / 1000.0;
                let (mut heavy, rest): (Vec<Task>, Vec<Task>) = tasks
                    .drain(..)
                    .partition(|t| t.criticality().is_low() && t.utilization_lo() >= threshold);
                let (mut hi, mut lo): (Vec<Task>, Vec<Task>) =
                    rest.into_iter().partition(|t| t.criticality().is_high());
                heavy.sort_by(by_own_desc);
                hi.sort_by(by_own_desc);
                lo.sort_by(by_own_desc);
                heavy.extend(hi);
                heavy.extend(lo);
                heavy
            }
        }
    }
}

/// A per-processor load statistic that worst-/best-fit rules order
/// processors by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BalanceMetric {
    /// `U_H^H(φk) − U_H^L(φk)` — the utilization difference, UDP's metric.
    UtilizationDifference,
    /// `U_H^H(φk)` — total high-mode utilization of HC tasks (the CA-Wu-F
    /// baseline metric of Fig. 1 and of Gu et al.).
    HiUtilization,
    /// `U_L^L(φk) + U_H^L(φk)` — total low-mode load.
    LoModeLoad,
    /// Sum of own-level utilizations (a conventional non-MC load metric).
    OwnLevelLoad,
}

impl BalanceMetric {
    /// Evaluates the metric on a precomputed utilization triple — the
    /// cached `summary()` of an incremental admission state, so fit rules
    /// cost O(1) per processor instead of re-summing its tasks.
    pub fn evaluate_summary(&self, u: &SystemUtilization) -> f64 {
        match self {
            BalanceMetric::UtilizationDifference => u.u_hh - u.u_hl,
            BalanceMetric::HiUtilization => u.u_hh,
            BalanceMetric::LoModeLoad => u.u_ll + u.u_hl,
            BalanceMetric::OwnLevelLoad => u.u_ll + u.u_hh,
        }
    }
}

impl fmt::Display for BalanceMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BalanceMetric::UtilizationDifference => write!(f, "Udiff"),
            BalanceMetric::HiUtilization => write!(f, "Uhh"),
            BalanceMetric::LoModeLoad => write!(f, "Ulo"),
            BalanceMetric::OwnLevelLoad => write!(f, "Uown"),
        }
    }
}

/// The order processors are tried in when placing one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FitRule {
    /// Processors in index order (`φ1, φ2, …`).
    FirstFit,
    /// Processors by *increasing* metric — the emptiest (by that metric)
    /// first. This is the "worst-fit" of the partitioning literature and
    /// the rule UDP applies to HC tasks with
    /// [`BalanceMetric::UtilizationDifference`].
    WorstFit(BalanceMetric),
    /// Processors by *decreasing* metric — the fullest first.
    BestFit(BalanceMetric),
}

impl FitRule {
    /// Writes into `out` (cleared first) the processor indices in the order
    /// this rule tries them, given each processor's utilization triple (the
    /// cached summaries of the incremental admission states). The
    /// partitioning inner loop reuses one buffer across tasks, so fit
    /// ordering allocates nothing. The metric is a
    /// pure function of the summary, so evaluating it inside the
    /// comparator yields exactly the order of the precomputed-keys path.
    pub fn processor_order_by_summary_into(
        &self,
        summaries: &[SystemUtilization],
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend(0..summaries.len());
        // The index tiebreak makes both comparators total orders, so the
        // unstable sort (no temp-buffer allocation) orders identically to
        // the seed's stable sort.
        match self {
            FitRule::FirstFit => {}
            FitRule::WorstFit(metric) => {
                out.sort_unstable_by(|&a, &b| {
                    metric
                        .evaluate_summary(&summaries[a])
                        .total_cmp(&metric.evaluate_summary(&summaries[b]))
                        .then_with(|| a.cmp(&b))
                });
            }
            FitRule::BestFit(metric) => {
                out.sort_unstable_by(|&a, &b| {
                    metric
                        .evaluate_summary(&summaries[b])
                        .total_cmp(&metric.evaluate_summary(&summaries[a]))
                        .then_with(|| a.cmp(&b))
                });
            }
        }
    }
}

impl fmt::Display for FitRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitRule::FirstFit => write!(f, "FF"),
            FitRule::WorstFit(m) => write!(f, "WF({m})"),
            FitRule::BestFit(m) => write!(f, "BF({m})"),
        }
    }
}

/// A complete partitioning strategy: allocation order plus per-criticality
/// fit rules.
///
/// Use [`presets`](crate::presets) for the named strategies of the paper,
/// or [`PartitionStrategy::builder`] for custom combinations (ablations).
///
/// # Example
///
/// ```
/// use mcsched_core::{PartitionStrategy, AllocationOrder, FitRule, BalanceMetric};
///
/// let custom = PartitionStrategy::builder("CA-BF")
///     .order(AllocationOrder::CriticalityAware { sorted: true })
///     .hc_fit(FitRule::BestFit(BalanceMetric::HiUtilization))
///     .lc_fit(FitRule::FirstFit)
///     .build();
/// assert_eq!(custom.name(), "CA-BF");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionStrategy {
    name: String,
    order: AllocationOrder,
    hc_fit: FitRule,
    lc_fit: FitRule,
}

impl PartitionStrategy {
    /// Starts a builder with a display name.
    pub fn builder(name: impl Into<String>) -> StrategyBuilder {
        StrategyBuilder {
            name: name.into(),
            order: AllocationOrder::CriticalityAware { sorted: true },
            hc_fit: FitRule::FirstFit,
            lc_fit: FitRule::FirstFit,
        }
    }

    /// The strategy's display name (e.g. `"CU-UDP"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The allocation order.
    pub fn order(&self) -> AllocationOrder {
        self.order
    }

    /// The fit rule applied to HC tasks.
    pub fn hc_fit(&self) -> FitRule {
        self.hc_fit
    }

    /// The fit rule applied to LC tasks.
    pub fn lc_fit(&self) -> FitRule {
        self.lc_fit
    }

    /// The fit rule for a specific task (HC vs LC).
    pub fn fit_for(&self, task: &Task) -> FitRule {
        if task.criticality().is_high() {
            self.hc_fit
        } else {
            self.lc_fit
        }
    }
}

impl fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Builder for [`PartitionStrategy`].
#[derive(Debug, Clone)]
pub struct StrategyBuilder {
    name: String,
    order: AllocationOrder,
    hc_fit: FitRule,
    lc_fit: FitRule,
}

impl StrategyBuilder {
    /// Sets the allocation order.
    pub fn order(mut self, order: AllocationOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the HC fit rule.
    pub fn hc_fit(mut self, fit: FitRule) -> Self {
        self.hc_fit = fit;
        self
    }

    /// Sets the LC fit rule.
    pub fn lc_fit(mut self, fit: FitRule) -> Self {
        self.lc_fit = fit;
        self
    }

    /// Finalizes the strategy.
    pub fn build(self) -> PartitionStrategy {
        PartitionStrategy {
            name: self.name,
            order: self.order,
            hc_fit: self.hc_fit,
            lc_fit: self.lc_fit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_model::TaskSet;

    fn sample() -> TaskSet {
        TaskSet::try_from_tasks(vec![
            Task::lo(0, 10, 6).unwrap(),    // u^L = 0.6 (heavy LC)
            Task::hi(1, 10, 2, 5).unwrap(), // u^H = 0.5
            Task::lo(2, 10, 1).unwrap(),    // u^L = 0.1
            Task::hi(3, 10, 3, 8).unwrap(), // u^H = 0.8
        ])
        .unwrap()
    }

    #[test]
    fn ca_sorted_order() {
        let seq = AllocationOrder::CriticalityAware { sorted: true }.sequence(&sample());
        let ids: Vec<u32> = seq.iter().map(|t| t.id().0).collect();
        // HC by decreasing u^H (τ3, τ1), then LC by decreasing u^L (τ0, τ2).
        assert_eq!(ids, vec![3, 1, 0, 2]);
    }

    #[test]
    fn ca_nosort_keeps_input_order() {
        let seq = AllocationOrder::CriticalityAware { sorted: false }.sequence(&sample());
        let ids: Vec<u32> = seq.iter().map(|t| t.id().0).collect();
        // HC in input order (τ1, τ3), then LC in input order (τ0, τ2).
        assert_eq!(ids, vec![1, 3, 0, 2]);
    }

    #[test]
    fn cu_order_interleaves_by_utilization() {
        let seq = AllocationOrder::CriticalityUnaware.sequence(&sample());
        let ids: Vec<u32> = seq.iter().map(|t| t.id().0).collect();
        // 0.8 (τ3), 0.6 (τ0 LC!), 0.5 (τ1), 0.1 (τ2).
        assert_eq!(ids, vec![3, 0, 1, 2]);
    }

    #[test]
    fn heavy_lc_first_order() {
        let seq = AllocationOrder::HeavyLcFirst {
            threshold_millis: 500,
        }
        .sequence(&sample());
        let ids: Vec<u32> = seq.iter().map(|t| t.id().0).collect();
        // Heavy LC τ0 (0.6 ≥ 0.5) first, then HC τ3, τ1, then light LC τ2.
        assert_eq!(ids, vec![0, 3, 1, 2]);
    }

    #[test]
    fn metric_evaluation() {
        let ts = sample();
        let u = ts.system_utilization();
        assert!(
            (BalanceMetric::UtilizationDifference.evaluate_summary(&u) - (u.u_hh - u.u_hl)).abs()
                < 1e-12
        );
        assert!((BalanceMetric::HiUtilization.evaluate_summary(&u) - u.u_hh).abs() < 1e-12);
        assert!((BalanceMetric::LoModeLoad.evaluate_summary(&u) - (u.u_ll + u.u_hl)).abs() < 1e-12);
        assert!(
            (BalanceMetric::OwnLevelLoad.evaluate_summary(&u) - (u.u_ll + u.u_hh)).abs() < 1e-12
        );
    }

    /// `fit`'s processor order over these utilization triples.
    fn order_by(fit: FitRule, summaries: &[SystemUtilization]) -> Vec<usize> {
        let mut out = vec![usize::MAX; 7];
        fit.processor_order_by_summary_into(summaries, &mut out);
        out
    }

    /// `fit`'s processor order over processors holding `procs`.
    fn order(fit: FitRule, procs: &[TaskSet]) -> Vec<usize> {
        let summaries: Vec<SystemUtilization> =
            procs.iter().map(TaskSet::system_utilization).collect();
        order_by(fit, &summaries)
    }

    #[test]
    fn first_fit_is_index_order() {
        let procs = vec![sample(), TaskSet::new(), sample()];
        assert_eq!(order(FitRule::FirstFit, &procs), vec![0, 1, 2]);
    }

    #[test]
    fn worst_fit_prefers_emptiest() {
        let mut heavy = TaskSet::new();
        heavy.push_unchecked(Task::hi(9, 10, 1, 9).unwrap()); // diff 0.8
        let mut light = TaskSet::new();
        light.push_unchecked(Task::hi(8, 10, 4, 5).unwrap()); // diff 0.1
        let procs = vec![heavy, TaskSet::new(), light];
        let order = order(
            FitRule::WorstFit(BalanceMetric::UtilizationDifference),
            &procs,
        );
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn best_fit_prefers_fullest() {
        let mut heavy = TaskSet::new();
        heavy.push_unchecked(Task::hi(9, 10, 1, 9).unwrap());
        let procs = vec![TaskSet::new(), heavy, TaskSet::new()];
        let order = order(
            FitRule::BestFit(BalanceMetric::UtilizationDifference),
            &procs,
        );
        assert_eq!(order[0], 1);
    }

    #[test]
    fn nan_keys_do_not_panic() {
        // total_cmp gives NaN a defined order instead of panicking.
        let summaries = vec![
            SystemUtilization {
                u_ll: 0.0,
                u_hl: 0.0,
                u_hh: f64::NAN,
            },
            SystemUtilization::default(),
        ];
        let order = order_by(FitRule::WorstFit(BalanceMetric::HiUtilization), &summaries);
        assert_eq!(order.len(), 2);
        assert_eq!(order[0], 1, "NaN sorts after every finite key");
    }

    #[test]
    fn ties_break_by_index() {
        let procs = vec![TaskSet::new(), TaskSet::new(), TaskSet::new()];
        let order = order(
            FitRule::WorstFit(BalanceMetric::UtilizationDifference),
            &procs,
        );
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn builder_and_accessors() {
        let s = PartitionStrategy::builder("X")
            .order(AllocationOrder::CriticalityUnaware)
            .hc_fit(FitRule::WorstFit(BalanceMetric::UtilizationDifference))
            .lc_fit(FitRule::FirstFit)
            .build();
        assert_eq!(s.name(), "X");
        assert_eq!(s.order(), AllocationOrder::CriticalityUnaware);
        assert_eq!(
            s.hc_fit(),
            FitRule::WorstFit(BalanceMetric::UtilizationDifference)
        );
        assert_eq!(s.lc_fit(), FitRule::FirstFit);
        let hc = Task::hi(0, 10, 1, 2).unwrap();
        let lc = Task::lo(1, 10, 1).unwrap();
        assert_eq!(s.fit_for(&hc), s.hc_fit());
        assert_eq!(s.fit_for(&lc), s.lc_fit());
        assert_eq!(s.to_string(), "X");
    }

    #[test]
    fn displays() {
        assert_eq!(FitRule::FirstFit.to_string(), "FF");
        assert_eq!(
            FitRule::WorstFit(BalanceMetric::UtilizationDifference).to_string(),
            "WF(Udiff)"
        );
        assert_eq!(
            FitRule::BestFit(BalanceMetric::HiUtilization).to_string(),
            "BF(Uhh)"
        );
        assert_eq!(BalanceMetric::LoModeLoad.to_string(), "Ulo");
        assert_eq!(BalanceMetric::OwnLevelLoad.to_string(), "Uown");
    }
}
