//! Table printing and CSV output for sweep results.

use crate::sweep::SweepResult;
use std::io::Write;
use std::path::Path;

/// Renders a sweep as a markdown table: one row per `UB` bucket, one
/// column per algorithm — the same rows the paper's figures plot.
pub fn render_table(result: &SweepResult) -> String {
    let mut out = String::new();
    out.push_str("| UB |");
    for c in &result.curves {
        out.push_str(&format!(" {} |", c.algorithm));
    }
    out.push('\n');
    out.push_str("|----|");
    for _ in &result.curves {
        out.push_str("----|");
    }
    out.push('\n');
    let buckets: Vec<f64> = result
        .curves
        .first()
        .map(|c| c.points.iter().map(|&(ub, _)| ub).collect())
        .unwrap_or_default();
    for (i, ub) in buckets.iter().enumerate() {
        out.push_str(&format!("| {ub:.2} |"));
        for c in &result.curves {
            let r = c.points.get(i).map(|&(_, r)| r).unwrap_or(f64::NAN);
            out.push_str(&format!(" {r:.3} |"));
        }
        out.push('\n');
    }
    out
}

/// Writes a sweep as CSV (`ub,<algo1>,<algo2>,...`).
///
/// # Errors
///
/// Propagates I/O errors from file creation and writing.
pub fn write_csv(result: &SweepResult, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::File::create(path)?;
    write!(f, "ub")?;
    for c in &result.curves {
        write!(f, ",{}", c.algorithm.replace(',', ";"))?;
    }
    writeln!(f)?;
    let buckets: Vec<f64> = result
        .curves
        .first()
        .map(|c| c.points.iter().map(|&(ub, _)| ub).collect())
        .unwrap_or_default();
    for (i, ub) in buckets.iter().enumerate() {
        write!(f, "{ub:.2}")?;
        for c in &result.curves {
            let r = c.points.get(i).map(|&(_, r)| r).unwrap_or(f64::NAN);
            write!(f, ",{r:.4}")?;
        }
        writeln!(f)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{AcceptanceCurve, SweepConfig};
    use mcsched_gen::DeadlineModel;

    fn sample_result() -> SweepResult {
        SweepResult {
            config: SweepConfig::paper(2, DeadlineModel::Implicit, 10, 1),
            curves: vec![
                AcceptanceCurve {
                    algorithm: "A".into(),
                    points: vec![(0.5, 1.0), (0.7, 0.5)],
                },
                AcceptanceCurve {
                    algorithm: "B".into(),
                    points: vec![(0.5, 0.9), (0.7, 0.4)],
                },
            ],
        }
    }

    #[test]
    fn table_contains_all_cells() {
        let t = render_table(&sample_result());
        assert!(t.contains("| UB |"));
        assert!(t.contains(" A |"));
        assert!(t.contains(" B |"));
        assert!(t.contains("| 0.50 |"));
        assert!(t.contains("1.000"));
        assert!(t.contains("0.400"));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("mcsched_exp_test");
        let path = dir.join("out.csv");
        write_csv(&sample_result(), &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("ub,A,B"));
        assert!(content.contains("0.50,1.0000,0.9000"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
