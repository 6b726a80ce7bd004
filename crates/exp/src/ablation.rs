//! Ablation studies for the UDP design choices.
//!
//! Questions answered:
//!
//! 1. **Metric** — does worst-fit on `U_H^H − U_H^L` beat worst-fit on
//!    `U_H^H` alone (CA-Wu-F) or on the low-mode load?
//! 2. **Sorting** — how much of UDP's gain comes from decreasing-utilization
//!    ordering (CA-UDP vs CA-UDP(nosort))?
//! 3. **Fit direction** — worst-fit vs best-fit on the same metric.
//! 4. **CA vs CU** — criticality-aware vs -unaware ordering.
//! 5. **AMC variant** — AMC-max vs AMC-rtb under CU-UDP.
//!
//! Each ablation reports the weighted acceptance ratio (WAR) of every
//! variant over the Fig. 3 workload, so a single number summarises each
//! design decision.

use crate::algorithms::{ablation_specs, amc_ablation_lineup};
use crate::sweep::{acceptance_sweep, SweepConfig};
use mcsched_core::{AdmissionStats, AlgorithmSpec, WorkspaceRef};
use mcsched_gen::{seeded_corpus, DeadlineModel, TaskSetSpec};

/// The WAR of one algorithm variant in an ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant name.
    pub algorithm: String,
    /// Weighted acceptance ratio on the ablation workload.
    pub war: f64,
}

/// Runs the strategy ablation (metric / sorting / fit direction / CA-CU)
/// on the Fig. 3 workload for the given `m`.
pub fn strategy_ablation(
    m: usize,
    sets_per_bucket: usize,
    seed: u64,
    threads: usize,
) -> Vec<AblationRow> {
    let cfg =
        SweepConfig::paper(m, DeadlineModel::Implicit, sets_per_bucket, seed).with_threads(threads);
    let result = acceptance_sweep(&cfg, &ablation_specs());
    result
        .curves
        .iter()
        .map(|c| AblationRow {
            algorithm: c.algorithm.clone(),
            war: c.weighted_acceptance_ratio(),
        })
        .collect()
}

/// Runs the AMC-max vs AMC-rtb ablation on the constrained-deadline
/// workload.
pub fn amc_ablation(
    m: usize,
    sets_per_bucket: usize,
    seed: u64,
    threads: usize,
) -> Vec<AblationRow> {
    let cfg = SweepConfig::paper(m, DeadlineModel::Constrained, sets_per_bucket, seed)
        .with_threads(threads);
    let result = acceptance_sweep(&cfg, &amc_ablation_lineup());
    result
        .curves
        .iter()
        .map(|c| AblationRow {
            algorithm: c.algorithm.clone(),
            war: c.weighted_acceptance_ratio(),
        })
        .collect()
}

/// Per-algorithm admission-layer counters over a seeded corpus: how many
/// `(task, processor)` admission queries each strategy issued and how many
/// were answered incrementally vs by a full re-analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionRow {
    /// Algorithm display name.
    pub algorithm: String,
    /// Task sets judged.
    pub sets: usize,
    /// Sets accepted.
    pub accepted: usize,
    /// Aggregated admission counters.
    pub stats: AdmissionStats,
}

/// Profiles the admission layer: partitions the same [`seeded_corpus`]
/// with every algorithm of the line-up, through one reused workspace,
/// and aggregates each algorithm's per-build [`AdmissionStats`].
pub fn admission_profile(
    m: usize,
    sets: usize,
    seed: u64,
    algorithms: &[AlgorithmSpec],
) -> Vec<AdmissionRow> {
    let corpus = seeded_corpus(sets, seed, |p| {
        TaskSetSpec::paper_defaults(m, p, DeadlineModel::Implicit)
    });
    let ws = WorkspaceRef::new();
    algorithms
        .iter()
        .map(|algo| {
            let mut row = AdmissionRow {
                algorithm: algo.name(),
                sets: corpus.len(),
                accepted: 0,
                stats: AdmissionStats::default(),
            };
            for ts in &corpus {
                let (result, stats) = algo.try_partition_reporting_in(ts, m, &ws);
                row.accepted += usize::from(result.is_ok());
                row.stats.merge(&stats);
            }
            row
        })
        .collect()
}

/// Renders admission-profile rows as a markdown table.
///
/// The three `qpa *` columns surface the demand kernel's fixpoint reuse
/// (EY / ECDF states): descents started cold from the busy-window bound,
/// checks answered warm from the previous fixpoint, and low-mode probes
/// rejected by a memoised violation anchor with no descent at all. The
/// `rta seeded` column is the AMC analogue: response-time fixpoints an
/// incremental probe warm-started from cached sound lower bounds.
pub fn render_admission(rows: &[AdmissionRow]) -> String {
    let mut out = String::from(
        "| algorithm | sets | accepted | attempts | admits | incremental | full \
         | qpa cold | qpa resumed | qpa anchor | rta seeded |\n\
         |----|----|----|----|----|----|----|----|----|----|----|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.algorithm,
            r.sets,
            r.accepted,
            r.stats.attempts,
            r.stats.admits,
            r.stats.incremental,
            r.stats.full,
            r.stats.qpa_cold,
            r.stats.qpa_resumed,
            r.stats.qpa_anchor_hits,
            r.stats.rta_seeded
        ));
    }
    out
}

/// Renders ablation rows as a markdown table, best first.
pub fn render_ablation(title: &str, mut rows: Vec<AblationRow>) -> String {
    rows.sort_by(|a, b| b.war.total_cmp(&a.war));
    let mut out = format!("| {title} | WAR |\n|----|-----|\n");
    for r in rows {
        out.push_str(&format!("| {} | {:.4} |\n", r.algorithm, r.war));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_ablation_smoke() {
        let rows = strategy_ablation(2, 4, 5, 2);
        assert!(rows.len() >= 6);
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.war)));
        assert!(rows.iter().any(|r| r.algorithm == "CA-UDP-EDF-VD"));
    }

    #[test]
    fn amc_ablation_dominance() {
        let rows = amc_ablation(2, 6, 9, 2);
        let war = |name: &str| {
            rows.iter()
                .find(|r| r.algorithm.contains(name))
                .map(|r| r.war)
                .unwrap()
        };
        // AMC-max dominates AMC-rtb, so its WAR can never be lower.
        assert!(war("max") >= war("rtb") - 1e-9);
    }

    #[test]
    fn corpus_is_deterministic_and_sized() {
        let shape = |p| TaskSetSpec::paper_defaults(2, p, DeadlineModel::Implicit);
        let a = seeded_corpus(6, 11, shape);
        let b = seeded_corpus(6, 11, shape);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn admission_profile_counts_queries() {
        use crate::algorithms::perf_lineup;
        let rows = admission_profile(2, 4, 7, &perf_lineup());
        assert_eq!(rows.len(), perf_lineup().len());
        for r in &rows {
            assert_eq!(r.sets, 4);
            assert!(r.accepted <= r.sets);
            assert!(r.stats.attempts >= r.stats.admits);
            assert_eq!(r.stats.attempts, r.stats.incremental + r.stats.full);
            // The native states answer every query without a full
            // clone-and-retest re-analysis on the reject fast path;
            // EDF-VD answers all of them incrementally.
            if r.algorithm.contains("EDF-VD") {
                assert_eq!(r.stats.full, 0, "{}", r.algorithm);
            }
            // The EY/ECDF demand kernel reports its fixpoint reuse;
            // any tuner activity at all implies cold descents ran.
            if r.algorithm.ends_with("-EY") || r.algorithm.ends_with("-ECDF") {
                assert!(
                    r.stats.qpa_cold > 0,
                    "{}: no QPA activity recorded",
                    r.algorithm
                );
            }
            // The AMC states report warm-seeded suffix fixpoints whenever
            // any probe ran incrementally.
            if r.algorithm.contains("AMC-rtb") || r.algorithm.contains("AMC-max") {
                assert!(
                    r.stats.incremental == 0 || r.stats.rta_seeded > 0,
                    "{}: incremental AMC probes but no seeded fixpoints",
                    r.algorithm
                );
            }
        }
        let table = render_admission(&rows);
        assert!(table.contains("incremental"));
        assert!(table.contains("qpa resumed"));
        assert!(table.contains("rta seeded"));
    }

    #[test]
    fn render_sorts_best_first() {
        let rows = vec![
            AblationRow {
                algorithm: "weak".into(),
                war: 0.3,
            },
            AblationRow {
                algorithm: "strong".into(),
                war: 0.9,
            },
        ];
        let t = render_ablation("variant", rows);
        let strong_pos = t.find("strong").unwrap();
        let weak_pos = t.find("weak").unwrap();
        assert!(strong_pos < weak_pos);
    }
}
