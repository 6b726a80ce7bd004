//! Self-run: the committed workspace must lint clean. This is the test
//! that keeps the hot-path invariants machine-checked on every
//! `cargo test`.

use std::path::PathBuf;

use mcsched_lint::{run, Options};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crate lives two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_lints_clean() {
    let report = run(&Options {
        root: workspace_root(),
    })
    .expect("lint run succeeds");

    assert!(
        report.findings.is_empty(),
        "workspace must lint clean; findings:\n{}",
        mcsched_lint::render_human(&report)
    );
    assert!(report.is_clean());
    // Sanity: the walker actually visited the workspace, not an empty dir.
    assert!(
        report.files > 50,
        "expected a full workspace scan, saw {} files",
        report.files
    );
}
