//! Reporters: human and JSON.
//!
//! JSON is emitted by hand (this crate has zero dependencies, vendored
//! stubs included — it must be able to lint the workspace even when the
//! workspace is broken). The schema is stable:
//!
//! ```json
//! {
//!   "tool": "mclint",
//!   "files": 61,
//!   "suppressed": 9,
//!   "findings": [ {"rule": …, "severity": …, "path": …, "line": …,
//!                  "col": …, "len": …, "snippet": …, "message": …} ]
//! }
//! ```

use crate::engine::LintReport;
use crate::rules::Finding;
use std::fmt::Write as _;

/// Human rendering: one grep-able line per finding plus a summary.
pub fn render_human(report: &LintReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: error[{}]: {}",
            f.path, f.line, f.col, f.rule, f.message
        );
    }
    let _ = writeln!(
        out,
        "mclint: {} finding{} in {} file{} ({} suppressed)",
        report.findings.len(),
        if report.findings.len() == 1 { "" } else { "s" },
        report.files,
        if report.files == 1 { "" } else { "s" },
        report.suppressed,
    );
    out
}

/// JSON rendering of the full report.
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"tool\": \"mclint\",\n  \"files\": {},\n  \"suppressed\": {},\n",
        report.files, report.suppressed
    );
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&finding_json(f));
    }
    out.push_str(if report.findings.is_empty() {
        "]\n"
    } else {
        "\n  ]\n"
    });
    out.push_str("}\n");
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "    {{\"rule\": {}, \"severity\": \"error\", \"path\": {}, \"line\": {}, \"col\": {}, \
         \"len\": {}, \"snippet\": {}, \"message\": {}}}",
        json_str(f.rule),
        json_str(&f.path),
        f.line,
        f.col,
        f.len,
        json_str(&f.snippet),
        json_str(&f.message)
    )
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A one-screen rule table for `--list-rules`.
pub fn render_rules() -> String {
    let mut out = String::new();
    for r in crate::rules::RULES {
        let _ = writeln!(out, "{:<15} error   {}", r.id, r.summary);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("tab\there"), "\"tab\\there\"");
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let report = LintReport::default();
        let json = render_json(&report);
        assert!(json.contains("\"findings\": []"));
        // Every finding counts, so the report carries no baseline keys.
        assert!(!json.contains("\"baselined\""));
        assert!(!json.contains("\"stale_baseline\""));
    }
}
