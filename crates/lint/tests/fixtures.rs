//! Fixture corpus: one file per rule with seeded violations (and
//! deliberate suppressions), asserting the exact diagnostic spans.
//!
//! Fixtures are linted under *fake* workspace paths so the path-scoped
//! rules apply; the files themselves live under `tests/fixtures/` which
//! the workspace walker skips.

use mcsched_lint::lint_file;

/// `(rule, line, col, len, snippet)` — the span fields under test.
type Row = (String, usize, usize, usize, String);

/// Lints a fixture as if it sat at `path`, returning comparable
/// `(rule, line, col, len, snippet)` tuples.
fn lint_as(path: &str, fixture: &str) -> (Vec<Row>, usize) {
    let src = std::fs::read_to_string(format!(
        "{}/tests/fixtures/{fixture}",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture exists");
    let (findings, suppressed) = lint_file(path, &src);
    let rows = findings
        .into_iter()
        .map(|f| (f.rule.to_owned(), f.line, f.col, f.len, f.snippet))
        .collect();
    (rows, suppressed)
}

fn row(rule: &str, line: usize, col: usize, len: usize, snippet: &str) -> Row {
    (rule.to_owned(), line, col, len, snippet.to_owned())
}

#[test]
fn no_panic_fixture() {
    let (rows, suppressed) = lint_as("crates/service/src/server.rs", "no_panic.rs");
    assert_eq!(
        rows,
        vec![
            row("no-panic", 5, 17, 6, "unwrap"),
            row("no-panic", 6, 17, 6, "expect"),
            row("no-panic", 8, 9, 5, "panic"),
            row("no-panic", 10, 16, 1, "0"),
        ]
    );
    assert_eq!(suppressed, 1, "the allow() covers xs[1] only");
}

#[test]
fn no_partial_cmp_fixture() {
    let (rows, suppressed) = lint_as("crates/gen/src/sort.rs", "no_partial_cmp.rs");
    assert_eq!(rows, vec![row("no-partial-cmp", 4, 25, 11, "partial_cmp")]);
    assert_eq!(suppressed, 0);
}

#[test]
fn hot_path_alloc_fixture() {
    let (rows, suppressed) = lint_as("crates/analysis/src/scratch.rs", "hot_path_alloc.rs");
    assert_eq!(
        rows,
        vec![
            row("hot-path-alloc", 5, 19, 3, "Vec"),
            row("hot-path-alloc", 7, 19, 6, "to_vec"),
            row("hot-path-alloc", 8, 13, 6, "format"),
        ]
    );
    assert_eq!(
        suppressed, 0,
        "cold items and tests are exempt, not suppressed"
    );
}

#[test]
fn time_arith_fixture() {
    let (rows, suppressed) = lint_as("crates/analysis/src/dbf.rs", "time_arith.rs");
    assert_eq!(
        rows,
        vec![
            row("time-arith", 5, 10, 1, "*"),
            row("time-arith", 10, 9, 2, "+="),
        ]
    );
    assert_eq!(suppressed, 0, "u128 widening and fast blocks are exempt");
}

#[test]
fn fast_regions_fixture() {
    // The region map under the microscope: the `[u64; 8]` signature must
    // not truncate the `_fast` body's exemption, and only the then-arm
    // of `if FAST {` is fast — the else-arm's raw `+` is the single
    // finding.
    let (rows, suppressed) = lint_as("crates/analysis/src/workspace.rs", "fast_regions.rs");
    assert_eq!(rows, vec![row("time-arith", 23, 13, 1, "+")]);
    assert_eq!(suppressed, 0);
}

#[test]
fn float_sum_fixture() {
    let (rows, suppressed) = lint_as("crates/analysis/src/vdtune.rs", "float_sum.rs");
    assert_eq!(rows, vec![row("float-sum", 11, 59, 3, "sum")]);
    assert_eq!(suppressed, 0, "the documented loop and integer sums pass");
}

#[test]
fn reply_id_fixture() {
    let (rows, suppressed) = lint_as("crates/service/src/service.rs", "reply_id.rs");
    assert_eq!(
        rows,
        vec![
            row("reply-id", 13, 25, 6, "render"),
            row("reply-id", 19, 11, 11, "render_into"),
        ]
    );
    assert_eq!(suppressed, 0);
}

#[test]
fn unstable_sort_fixture() {
    let (rows, suppressed) = lint_as("crates/lint/tests/x.rs", "unstable_sort.rs");
    assert_eq!(rows, vec![row("unstable-sort", 5, 8, 7, "sort_by")]);
    assert_eq!(suppressed, 0);
}

#[test]
fn scoped_threads_fixture() {
    let (rows, suppressed) = lint_as("crates/sim/src/run.rs", "scoped_threads.rs");
    assert_eq!(rows, vec![row("scoped-threads", 7, 13, 5, "scope")]);
    assert_eq!(suppressed, 0);
}

#[test]
fn scoped_threads_fixture_is_clean_in_engine() {
    let (rows, suppressed) = lint_as("crates/exp/src/engine.rs", "scoped_threads.rs");
    assert_eq!(rows, vec![]);
    assert_eq!(suppressed, 0);
}

#[test]
fn allow_meta_fixture() {
    let (rows, suppressed) = lint_as("crates/gen/src/meta.rs", "allow_meta.rs");
    assert_eq!(
        rows,
        vec![
            row("bad-allow", 4, 5, 0, "no-partial-cmp"),
            row("no-partial-cmp", 5, 7, 11, "partial_cmp"),
            row("bad-allow", 8, 1, 0, "not-a-rule"),
            row("unused-allow", 11, 1, 0, "no-partial-cmp"),
        ]
    );
    assert_eq!(suppressed, 0, "a reasonless allow suppresses nothing");
}

#[test]
fn every_fixture_violation_fails_the_run() {
    // The acceptance criterion: the linter exits non-zero on every
    // fixture that seeds a violation (all except the engine re-lint).
    for (path, fixture) in [
        ("crates/service/src/server.rs", "no_panic.rs"),
        ("crates/gen/src/sort.rs", "no_partial_cmp.rs"),
        ("crates/analysis/src/scratch.rs", "hot_path_alloc.rs"),
        ("crates/analysis/src/dbf.rs", "time_arith.rs"),
        ("crates/analysis/src/workspace.rs", "fast_regions.rs"),
        ("crates/analysis/src/vdtune.rs", "float_sum.rs"),
        ("crates/service/src/service.rs", "reply_id.rs"),
        ("crates/lint/tests/x.rs", "unstable_sort.rs"),
        ("crates/sim/src/run.rs", "scoped_threads.rs"),
        ("crates/gen/src/meta.rs", "allow_meta.rs"),
    ] {
        let (rows, _) = lint_as(path, fixture);
        assert!(
            !rows.is_empty(),
            "{fixture} must report at least one finding"
        );
    }
}
