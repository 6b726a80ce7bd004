//! Strategy vocabulary: allocation orders, balance metrics and fit rules.

use mcsched_model::{SystemUtilization, Task, TaskSet};
use serde::Serialize;
use std::fmt;

/// The order in which a strategy offers tasks to the partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
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
    /// Builds the allocation sequence for a task set. Allocates the
    /// returned `Vec` and, for a sorted order, a key buffer on every
    /// call; the partitioning engine calls
    /// [`sequence_into`](Self::sequence_into) instead.
    pub fn sequence(&self, ts: &TaskSet) -> Vec<Task> {
        let mut out = Vec::with_capacity(ts.len());
        self.sequence_into(ts, &mut Vec::new(), &mut out);
        out
    }

    /// As [`sequence`](Self::sequence), into `out` (cleared first), with
    /// `keys` as sort scratch: the partitioning engine passes buffers it
    /// reuses across runs, so ordering a set allocates nothing once they
    /// have grown.
    ///
    /// The keys are bucketed into one block per class, in class order,
    /// and each block is sorted as plain integers. A task's key is the
    /// `u128` `!util << 64 | id << 32 | position`: `util` is its
    /// own-level utilization mapped to a `u64` by the bit transform of
    /// `f64::total_cmp` (inverted, so larger utilizations sort first),
    /// `id` its task id and `position` its index in `ts`. The order is
    /// therefore class, then decreasing utilization (in `total_cmp`'s
    /// order), then increasing id, then input position: exactly the
    /// order a stable sort of each class by `(utilization desc, id)`
    /// gives, duplicate ids included.
    ///
    /// # Panics
    ///
    /// If `ts` holds more than 2^32 tasks, the most a 32-bit position
    /// field can tell apart.
    pub fn sequence_into(&self, ts: &TaskSet, keys: &mut Vec<u128>, out: &mut Vec<Task>) {
        let tasks = ts.as_slice();
        out.clear();
        keys.clear();
        let class = |t: &Task| -> usize {
            match *self {
                AllocationOrder::CriticalityAware { .. } => usize::from(t.criticality().is_low()),
                AllocationOrder::CriticalityUnaware => 0,
                AllocationOrder::HeavyLcFirst { threshold_millis } => {
                    let threshold = f64::from(threshold_millis) / 1000.0;
                    if t.criticality().is_high() {
                        1
                    } else if t.utilization_lo() >= threshold {
                        0
                    } else {
                        2
                    }
                }
            }
        };
        if *self == (AllocationOrder::CriticalityAware { sorted: false }) {
            // Input order inside each class.
            out.extend(tasks.iter().filter(|t| class(t) == 0));
            out.extend(tasks.iter().filter(|t| class(t) == 1));
            return;
        }
        assert!(
            tasks.len() as u128 <= 1 << 32,
            "allocation order of {} tasks: positions need more than 32 bits",
            tasks.len()
        );
        // `block[c]..block[c + 1]` is class `c`'s block of keys.
        let mut block = [0usize; 4];
        for t in tasks {
            block[class(t) + 1] += 1;
        }
        for c in 1..block.len() {
            block[c] += block[c - 1];
        }
        let mut next = block;
        keys.resize(tasks.len(), 0);
        for (i, t) in tasks.iter().enumerate() {
            let slot = &mut next[class(t)];
            keys[*slot] = u128::from(!total_key(t.utilization_own())) << 64
                | u128::from(t.id().0) << 32
                | i as u128;
            *slot += 1;
        }
        for w in block.windows(2) {
            keys[w[0]..w[1]].sort_unstable();
        }
        out.extend(keys.iter().map(|&k| tasks[k as u32 as usize]));
    }
}

/// `x`'s bits mapped to a `u64` whose unsigned order is exactly
/// `f64::total_cmp`'s order on the `f64`s: negative values (sign bit set)
/// have every bit flipped, the others only their sign bit. It is the
/// transform `total_cmp` itself applies, shifted into unsigned range, so
/// integer keys built on it sort as the comparator sorts.
fn total_key(x: f64) -> u64 {
    let bits = x.to_bits();
    let negative = (bits as i64 >> 63) as u64;
    bits ^ (negative | 1 << 63)
}

/// A per-processor load statistic that worst-/best-fit rules order
/// processors by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
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
            BalanceMetric::UtilizationDifference => u.difference(),
            BalanceMetric::HiUtilization => u.u_hh,
            BalanceMetric::LoModeLoad => u.lo_mode_total(),
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
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
    /// cached summaries of the incremental admission states), with `keys`
    /// as sort scratch. The partitioning inner loop reuses both buffers
    /// across tasks, so fit ordering allocates nothing once they have
    /// grown.
    ///
    /// The metric is evaluated once per processor into the `u128` key
    /// `metric << 64 | index`, where `metric` is the metric mapped to a
    /// `u64` by the bit transform of `f64::total_cmp` (inverted for
    /// best-fit), and the keys sort as plain integers: worst-fit orders
    /// by increasing metric and best-fit by decreasing metric (both in
    /// `total_cmp`'s order, NaN included), each with ties broken by
    /// increasing index. First-fit is index order and leaves `keys`
    /// untouched.
    pub fn order_into(
        &self,
        summaries: &[SystemUtilization],
        keys: &mut Vec<u128>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let (metric, invert) = match *self {
            FitRule::FirstFit => {
                out.extend(0..summaries.len());
                return;
            }
            FitRule::WorstFit(metric) => (metric, 0),
            FitRule::BestFit(metric) => (metric, u64::MAX),
        };
        keys.clear();
        keys.extend(summaries.iter().enumerate().map(|(k, u)| {
            u128::from(total_key(metric.evaluate_summary(u)) ^ invert) << 64 | k as u128
        }));
        keys.sort_unstable();
        out.extend(keys.iter().map(|&key| key as u64 as usize));
    }

    /// [`order_into`](Self::order_into) with a fresh key buffer, so it
    /// allocates one on every worst- or best-fit call; the partitioning
    /// engine and [`ClusterSession`](crate::ClusterSession) keep theirs
    /// and call `order_into`.
    pub fn processor_order_by_summary_into(
        &self,
        summaries: &[SystemUtilization],
        out: &mut Vec<usize>,
    ) {
        self.order_into(summaries, &mut Vec::new(), out);
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
#[derive(Debug, Clone, PartialEq, Serialize)]
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

    /// The allocation order as a stable sort of each class by
    /// `(own-level utilization desc, id)` builds it — what
    /// [`AllocationOrder::sequence_into`]'s keyed unstable sort must
    /// reproduce exactly.
    fn stable_sequence(order: AllocationOrder, ts: &TaskSet) -> Vec<Task> {
        let by_own_desc = |a: &Task, b: &Task| {
            b.utilization_own()
                .total_cmp(&a.utilization_own())
                .then_with(|| a.id().cmp(&b.id()))
        };
        let (heavy, rest): (Vec<Task>, Vec<Task>) = ts.iter().partition(|t| match order {
            AllocationOrder::HeavyLcFirst { threshold_millis } => {
                t.criticality().is_low()
                    && t.utilization_lo() >= f64::from(threshold_millis) / 1000.0
            }
            _ => false,
        });
        let (mut hi, mut lo): (Vec<Task>, Vec<Task>) = match order {
            AllocationOrder::CriticalityUnaware => (rest, Vec::new()),
            _ => rest.into_iter().partition(|t| t.criticality().is_high()),
        };
        let mut heavy = heavy;
        if order != (AllocationOrder::CriticalityAware { sorted: false }) {
            heavy.sort_by(by_own_desc);
            hi.sort_by(by_own_desc);
            lo.sort_by(by_own_desc);
        }
        heavy.into_iter().chain(hi).chain(lo).collect()
    }

    /// 48 tasks (past `sort_unstable`'s insertion-sort cutoff of 20):
    /// seven utilizations `k/10` over three periods, so many tie; ids
    /// repeat every 5 tasks, so tasks 35 apart tie on both utilization
    /// and id and only their input position orders them; both
    /// criticalities, and LC tasks on both sides of a 0.5 threshold.
    fn wide_set() -> TaskSet {
        let mut ts = TaskSet::new();
        for i in 0..48u32 {
            let period = [10, 20, 40][(i % 3) as usize];
            let c = period / 10 * u64::from(1 + i % 7);
            let id = i % 5;
            ts.push_unchecked(if i % 4 == 1 {
                Task::hi(id, period, c.div_ceil(2), c).unwrap()
            } else {
                Task::lo(id, period, c).unwrap()
            });
        }
        ts
    }

    #[test]
    fn keyed_sequence_matches_the_stable_sort() {
        let orders = [
            AllocationOrder::CriticalityAware { sorted: true },
            AllocationOrder::CriticalityAware { sorted: false },
            AllocationOrder::CriticalityUnaware,
            AllocationOrder::HeavyLcFirst {
                threshold_millis: 500,
            },
        ];
        // Equal utilizations at distinct ids, a duplicate id at an equal
        // utilization (unchecked sets allow one), and LC tasks on both
        // sides of the threshold.
        let mut ts = TaskSet::new();
        for (i, (t, c, h)) in [
            (10, 6, 0),
            (20, 4, 8),
            (10, 2, 4),
            (20, 12, 0),
            (5, 1, 2),
            (10, 5, 0),
            (40, 8, 16),
            (50, 30, 0),
        ]
        .into_iter()
        .enumerate()
        {
            let id = u32::try_from(i).unwrap() % 7;
            ts.push_unchecked(if h == 0 {
                Task::lo(id, t, c).unwrap()
            } else {
                Task::hi(id, t, c, h).unwrap()
            });
        }
        let (mut keys, mut out) = (vec![7u128; 3], vec![Task::lo(99, 10, 1).unwrap()]);
        for set in [sample(), ts, wide_set()] {
            for order in orders {
                order.sequence_into(&set, &mut keys, &mut out);
                assert_eq!(out, stable_sequence(order, &set), "{order:?}");
                assert_eq!(order.sequence(&set), out, "{order:?}");
            }
        }
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
        let (mut keys, mut out) = (vec![7u128; 5], vec![usize::MAX; 7]);
        fit.order_into(summaries, &mut keys, &mut out);
        let mut wrapped = vec![usize::MAX; 3];
        fit.processor_order_by_summary_into(summaries, &mut wrapped);
        assert_eq!(wrapped, out, "{fit}");
        out
    }

    /// The fit order as a comparator sort builds it, evaluating the
    /// metric inside the comparator with an index tiebreak — what
    /// [`FitRule::order_into`]'s keyed sort must reproduce exactly.
    fn comparator_order(fit: FitRule, summaries: &[SystemUtilization]) -> Vec<usize> {
        let mut out: Vec<usize> = (0..summaries.len()).collect();
        match fit {
            FitRule::FirstFit => {}
            FitRule::WorstFit(metric) => out.sort_unstable_by(|&a, &b| {
                metric
                    .evaluate_summary(&summaries[a])
                    .total_cmp(&metric.evaluate_summary(&summaries[b]))
                    .then_with(|| a.cmp(&b))
            }),
            FitRule::BestFit(metric) => out.sort_unstable_by(|&a, &b| {
                metric
                    .evaluate_summary(&summaries[b])
                    .total_cmp(&metric.evaluate_summary(&summaries[a]))
                    .then_with(|| a.cmp(&b))
            }),
        }
        out
    }

    #[test]
    fn total_key_orders_as_total_cmp() {
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e-300,
            -1e-300,
            0.5,
            -0.5,
            1.0,
            f64::MAX,
            f64::MIN,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_key(a).cmp(&total_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn keyed_fit_order_matches_the_comparator_sort() {
        // Few distinct values, so metrics tie often; NaN of both signs,
        // both zeros and negatives (a difference goes negative when
        // `u_hl > u_hh`).
        let palette = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            -0.25,
            0.25,
            0.5,
            0.75,
            1.0,
            f64::INFINITY,
        ];
        let mut state = 0x5eed_u64;
        let mut pick = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            palette[(state >> 33) as usize % palette.len()]
        };
        let metrics = [
            BalanceMetric::UtilizationDifference,
            BalanceMetric::HiUtilization,
            BalanceMetric::LoModeLoad,
            BalanceMetric::OwnLevelLoad,
        ];
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        for m in 1..=64 {
            for _ in 0..4 {
                let summaries: Vec<SystemUtilization> = (0..m)
                    .map(|_| SystemUtilization {
                        u_ll: pick(),
                        u_hl: pick(),
                        u_hh: pick(),
                    })
                    .collect();
                for metric in metrics {
                    for fit in [FitRule::WorstFit(metric), FitRule::BestFit(metric)] {
                        fit.order_into(&summaries, &mut keys, &mut out);
                        assert_eq!(out, comparator_order(fit, &summaries), "{fit} m={m}");
                    }
                }
                FitRule::FirstFit.order_into(&summaries, &mut keys, &mut out);
                assert_eq!(out, comparator_order(FitRule::FirstFit, &summaries));
            }
        }
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
