//! Workspace walker.
//!
//! [`run`] walks every `.rs` file under the workspace root (skipping
//! `target/`, `vendor/` stubs, `.git/` and lint fixtures) and lints each
//! with [`lint_file`]. Every finding that no inline allow suppresses
//! counts: a new finding is fixed or suppressed with a reasoned
//! `// mclint: allow(rule)`, never tolerated by a list of known ones.
//! A path a path-scoped rule names ([`scoped_paths`]) that the walk did
//! not find is a finding too, so a moved file cannot leave its rule's
//! scope unnoticed.

use crate::rules::{lint_file, scoped_paths, Finding};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "node_modules"];

/// Path fragments excluded from linting: the fixture corpus contains
/// deliberate violations.
const SKIP_FRAGMENTS: &[&str] = &["crates/lint/tests/fixtures"];

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Workspace root to walk.
    pub root: PathBuf,
}

/// The outcome of a workspace run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings that survived suppressions, sorted by (path, line, col).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files linted.
    pub files: usize,
    /// Findings suppressed by valid inline allows.
    pub suppressed: usize,
    /// Wall-clock scan time.
    pub elapsed: Duration,
}

impl LintReport {
    /// Whether the run should gate (non-zero exit).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Collects workspace-relative (slash-separated) paths of every `.rs`
/// file under `root`, sorted for deterministic reports.
fn collect_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                if !SKIP_FRAGMENTS.iter().any(|f| rel.starts_with(f)) {
                    out.push((rel, path));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the workspace under `opts.root`.
pub fn run(opts: &Options) -> Result<LintReport, String> {
    let started = Instant::now();
    let files = collect_files(&opts.root)
        .map_err(|e| format!("cannot walk {}: {e}", opts.root.display()))?;
    let mut report = LintReport::default();
    for (rel, abs) in &files {
        let src =
            fs::read_to_string(abs).map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        let (findings, suppressed) = lint_file(rel, &src);
        report.suppressed += suppressed;
        report.findings.extend(findings);
        report.files += 1;
    }
    for (rule_id, path) in scoped_paths() {
        if !files.iter().any(|(rel, _)| rel == path) {
            report.findings.push(Finding {
                rule: rule_id,
                path: path.to_owned(),
                line: 1,
                col: 1,
                len: 0,
                snippet: String::new(),
                message: format!(
                    "`{rule_id}` is scoped to this path, but no such file exists; \
                     update the rule's file list to where the file moved"
                ),
            });
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    report.elapsed = started.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_paths_missing_from_the_walk_are_findings() {
        let root = std::env::temp_dir().join(format!("mclint-stale-{}", std::process::id()));
        fs::create_dir_all(root.join("crates/analysis/src")).unwrap();
        fs::write(root.join("crates/analysis/src/dbf.rs"), "fn main() {}\n").unwrap();
        let report = run(&Options { root: root.clone() });
        let _ = fs::remove_dir_all(&root);
        let missing: Vec<_> = report
            .unwrap()
            .findings
            .iter()
            .map(|f| (f.rule, f.path.clone()))
            .collect();
        let mut expected: Vec<_> = scoped_paths()
            .filter(|(_, path)| *path != "crates/analysis/src/dbf.rs")
            .map(|(rule, path)| (rule, path.to_owned()))
            .collect();
        expected.sort_by(|a, b| (&a.1, a.0).cmp(&(&b.1, b.0)));
        assert_eq!(missing, expected);
    }

    #[test]
    fn fixture_paths_are_excluded() {
        assert!(SKIP_FRAGMENTS
            .iter()
            .any(|f| "crates/lint/tests/fixtures/reply_id.rs".starts_with(f)));
    }
}
