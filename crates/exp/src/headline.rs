//! The paper's headline improvement numbers, recomputed from our sweeps.
//!
//! §IV quotes, for `m = 2/4/8`:
//!
//! * EDF-VD (Fig. 3, UDP vs CA(nosort)-F-F): **13.3 / 22.8 / 28.1 %**,
//! * implicit deadlines (Fig. 4): AMC **3.2 / 3.8 / 9.5 %**,
//!   ECDF **9.8 / 15.2 / 15.7 %**,
//! * constrained deadlines (Fig. 5): AMC **3.5 / 13.1 / 29.7 %**,
//!   ECDF **12.6 / 20.8 / 36.2 %**,
//!
//! where "improvement" is the largest pointwise acceptance-ratio gain (in
//! percentage points) of the best UDP algorithm over the named baseline.

use crate::figures::{fig3_panel, fig4_panel, fig5_panel, FIGURE_M};
use crate::sweep::SweepResult;
use serde::Serialize;

/// One headline comparison: best-UDP-vs-baseline maximum gain.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Headline {
    /// Which figure the number belongs to.
    pub figure: String,
    /// Processor count.
    pub m: usize,
    /// The UDP algorithm achieving the gain.
    pub udp_algorithm: String,
    /// The baseline being beaten.
    pub baseline: String,
    /// The `UB` where the maximum gain occurs.
    pub at_ub: f64,
    /// The gain in acceptance-ratio percentage points.
    pub gain_points: f64,
    /// The corresponding number the paper reports.
    pub paper_reports: f64,
}

fn best_gain(
    result: &SweepResult,
    udp_names: &[&str],
    baseline: &str,
) -> Option<(String, f64, f64)> {
    let base = result.curve(baseline)?;
    let mut best: Option<(String, f64, f64)> = None;
    for name in udp_names {
        let Some(curve) = result.curve(name) else {
            continue;
        };
        let (ub, gain) = curve.max_improvement_over(base);
        if best.as_ref().is_none_or(|(_, _, g)| gain > *g) {
            best = Some(((*name).to_owned(), ub, gain));
        }
    }
    best
}

/// Computes every headline number from fresh sweeps.
pub fn headlines(sets_per_bucket: usize, seed: u64, threads: usize) -> Vec<Headline> {
    let paper_fig3 = [13.3, 22.8, 28.1];
    let paper_fig4_amc = [3.2, 3.8, 9.5];
    let paper_fig4_ecdf = [9.8, 15.2, 15.7];
    let paper_fig5_amc = [3.5, 13.1, 29.7];
    let paper_fig5_ecdf = [12.6, 20.8, 36.2];

    let mut out = Vec::new();
    for (mi, &m) in FIGURE_M.iter().enumerate() {
        let r3 = fig3_panel(m, sets_per_bucket, seed, threads);
        if let Some((algo, ub, gain)) = best_gain(
            &r3,
            &["CA-UDP-EDF-VD", "CU-UDP-EDF-VD"],
            "CA(nosort)-F-F-EDF-VD",
        ) {
            out.push(Headline {
                figure: "Fig3".into(),
                m,
                udp_algorithm: algo,
                baseline: "CA(nosort)-F-F-EDF-VD".into(),
                at_ub: ub,
                gain_points: gain,
                paper_reports: paper_fig3[mi],
            });
        }

        let r4 = fig4_panel(m, sets_per_bucket, seed.wrapping_add(1), threads);
        push_no_bound_headlines(
            &mut out,
            &r4,
            "Fig4",
            m,
            paper_fig4_amc[mi],
            paper_fig4_ecdf[mi],
        );

        let r5 = fig5_panel(m, sets_per_bucket, seed.wrapping_add(2), threads);
        push_no_bound_headlines(
            &mut out,
            &r5,
            "Fig5",
            m,
            paper_fig5_amc[mi],
            paper_fig5_ecdf[mi],
        );
    }
    out
}

fn push_no_bound_headlines(
    out: &mut Vec<Headline>,
    result: &SweepResult,
    figure: &str,
    m: usize,
    paper_amc: f64,
    paper_ecdf: f64,
) {
    // The paper compares each UDP algorithm against the best existing
    // baseline (ECA-Wu-F-EY dominates CA-F-F-EY in their plots; we take
    // the stronger of the two at each point by comparing against both and
    // reporting the smaller gain).
    for (udp_names, paper, tag) in [
        (&["CU-UDP-AMC", "CA-UDP-AMC"][..], paper_amc, "AMC"),
        (&["CU-UDP-ECDF", "CA-UDP-ECDF"][..], paper_ecdf, "ECDF"),
    ] {
        let gains: Vec<(String, f64, f64)> = ["ECA-Wu-F-EY", "CA-F-F-EY"]
            .iter()
            .filter_map(|b| best_gain(result, udp_names, b))
            .collect();
        // Gain over the *stronger* baseline = min over baselines.
        if let Some((algo, ub, gain)) = gains.into_iter().min_by(|a, b| a.2.total_cmp(&b.2)) {
            out.push(Headline {
                figure: format!("{figure}/{tag}"),
                m,
                udp_algorithm: algo,
                baseline: "best(ECA-Wu-F-EY, CA-F-F-EY)".into(),
                at_ub: ub,
                gain_points: gain,
                paper_reports: paper,
            });
        }
    }
}

/// Renders headlines as a markdown table.
pub fn render_headlines(headlines: &[Headline]) -> String {
    let mut out = String::from(
        "| figure | m | UDP algorithm | baseline | at UB | measured gain (pp) | paper (pp) |\n\
         |--------|---|---------------|----------|-------|--------------------|------------|\n",
    );
    for h in headlines {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} | {:.1} | {:.1} |\n",
            h.figure, h.m, h.udp_algorithm, h.baseline, h.at_ub, h.gain_points, h.paper_reports
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{AcceptanceCurve, SweepConfig};
    use mcsched_gen::DeadlineModel;

    #[test]
    fn best_gain_picks_strongest_udp() {
        let result = SweepResult {
            config: SweepConfig::paper(2, DeadlineModel::Implicit, 1, 1),
            curves: vec![
                AcceptanceCurve {
                    algorithm: "U1".into(),
                    points: vec![(0.5, 0.9)],
                },
                AcceptanceCurve {
                    algorithm: "U2".into(),
                    points: vec![(0.5, 0.8)],
                },
                AcceptanceCurve {
                    algorithm: "B".into(),
                    points: vec![(0.5, 0.6)],
                },
            ],
        };
        let (algo, ub, gain) = best_gain(&result, &["U1", "U2"], "B").unwrap();
        assert_eq!(algo, "U1");
        assert!((ub - 0.5).abs() < 1e-12);
        assert!((gain - 30.0).abs() < 1e-9);
        assert!(best_gain(&result, &["U1"], "missing").is_none());
    }

    #[test]
    fn render_contains_columns() {
        let h = Headline {
            figure: "Fig3".into(),
            m: 4,
            udp_algorithm: "CU-UDP-EDF-VD".into(),
            baseline: "CA(nosort)-F-F-EDF-VD".into(),
            at_ub: 0.75,
            gain_points: 21.0,
            paper_reports: 22.8,
        };
        let t = render_headlines(&[h]);
        assert!(t.contains("| Fig3 | 4 |"));
        assert!(t.contains("21.0"));
        assert!(t.contains("22.8"));
    }
}
