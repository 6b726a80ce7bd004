//! Per-figure runners: the exact panels of the paper's evaluation.

use crate::algorithms::{fig3_lineup, fig4_lineup, fig6a_lineup, fig6b_lineup};
use crate::sweep::{acceptance_sweep, AcceptanceCurve, SweepConfig, SweepResult};
use mcsched_gen::DeadlineModel;

/// The processor counts of Figs. 3–5.
pub const FIGURE_M: [usize; 3] = [2, 4, 8];

/// The `P_H` values of Fig. 6.
pub const FIGURE6_PH: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// The processor counts of Fig. 6.
pub const FIGURE6_M: [usize; 2] = [2, 4];

/// Runs one panel of Fig. 3 (implicit deadlines, EDF-VD, speed-up bound).
pub fn fig3_panel(m: usize, sets_per_bucket: usize, seed: u64, threads: usize) -> SweepResult {
    let cfg =
        SweepConfig::paper(m, DeadlineModel::Implicit, sets_per_bucket, seed).with_threads(threads);
    acceptance_sweep(&cfg, &fig3_lineup())
}

/// Runs one panel of Fig. 4 (implicit deadlines, ECDF/AMC vs EY).
pub fn fig4_panel(m: usize, sets_per_bucket: usize, seed: u64, threads: usize) -> SweepResult {
    let cfg =
        SweepConfig::paper(m, DeadlineModel::Implicit, sets_per_bucket, seed).with_threads(threads);
    acceptance_sweep(&cfg, &fig4_lineup())
}

/// Runs one panel of Fig. 5 (constrained deadlines, ECDF/AMC vs EY).
pub fn fig5_panel(m: usize, sets_per_bucket: usize, seed: u64, threads: usize) -> SweepResult {
    let cfg = SweepConfig::paper(m, DeadlineModel::Constrained, sets_per_bucket, seed)
        .with_threads(threads);
    acceptance_sweep(&cfg, &fig4_lineup())
}

/// One data point of Fig. 6: the weighted acceptance ratio of every
/// algorithm at a given `(m, P_H)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WarPoint {
    /// Processor count.
    pub m: usize,
    /// HC-task fraction.
    pub p_h: f64,
    /// `(algorithm, WAR)` pairs.
    pub wars: Vec<(String, f64)>,
}

/// Runs Fig. 6(a): WAR vs `P_H` for the implicit-deadline EDF-VD
/// algorithms, `m ∈ {2, 4}`.
pub fn fig6a(sets_per_bucket: usize, seed: u64, threads: usize) -> Vec<WarPoint> {
    fig6_generic(
        DeadlineModel::Implicit,
        sets_per_bucket,
        seed,
        threads,
        fig6a_lineup,
    )
}

/// Runs Fig. 6(b): WAR vs `P_H` for the constrained-deadline AMC/ECDF
/// algorithms, `m ∈ {2, 4}`.
pub fn fig6b(sets_per_bucket: usize, seed: u64, threads: usize) -> Vec<WarPoint> {
    fig6_generic(
        DeadlineModel::Constrained,
        sets_per_bucket,
        seed,
        threads,
        fig6b_lineup,
    )
}

fn fig6_generic(
    deadlines: DeadlineModel,
    sets_per_bucket: usize,
    seed: u64,
    threads: usize,
    lineup: fn() -> Vec<mcsched_core::AlgorithmSpec>,
) -> Vec<WarPoint> {
    let mut points = Vec::new();
    for &m in &FIGURE6_M {
        for &p_h in &FIGURE6_PH {
            let cfg = SweepConfig::paper(m, deadlines, sets_per_bucket, seed)
                .with_p_h(p_h)
                .with_threads(threads);
            let result = acceptance_sweep(&cfg, &lineup());
            let wars = result
                .curves
                .iter()
                .map(|c: &AcceptanceCurve| (c.algorithm.clone(), c.weighted_acceptance_ratio()))
                .collect();
            points.push(WarPoint { m, p_h, wars });
        }
    }
    points
}

/// Renders Fig. 6 points as a markdown table (rows: `(m, P_H)`).
pub fn render_war_table(points: &[WarPoint]) -> String {
    let Some(first) = points.first() else {
        return String::new();
    };
    let mut out = String::from("| m | P_H |");
    for (name, _) in &first.wars {
        out.push_str(&format!(" {name} |"));
    }
    out.push_str("\n|---|-----|");
    for _ in &first.wars {
        out.push_str("----|");
    }
    out.push('\n');
    for p in points {
        out.push_str(&format!("| {} | {:.1} |", p.m, p.p_h));
        for (_, war) in &p.wars {
            out.push_str(&format!(" {war:.3} |"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_panel_smoke() {
        let r = fig3_panel(2, 4, 3, 2);
        assert_eq!(r.curves.len(), 3);
        assert!(r.curve("CA-UDP-EDF-VD").is_some());
    }

    #[test]
    fn war_table_renders() {
        let points = vec![WarPoint {
            m: 2,
            p_h: 0.5,
            wars: vec![("X".into(), 0.8), ("Y".into(), 0.6)],
        }];
        let t = render_war_table(&points);
        assert!(t.contains("| 2 | 0.5 |"));
        assert!(t.contains("0.800"));
        assert!(render_war_table(&[]).is_empty());
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(FIGURE_M, [2, 4, 8]);
        assert_eq!(FIGURE6_PH.len(), 5);
        assert_eq!(FIGURE6_M, [2, 4]);
    }
}
