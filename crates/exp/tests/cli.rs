//! The `mcexp` command line on the real binary: a flag the subcommand
//! does not take is a usage error (exit 2, usage on stderr), and a figure
//! CSV that cannot be written fails the run after the remaining panels.

use std::process::{Command, Output};

fn mcexp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcsched-exp"))
        .args(args)
        .output()
        .expect("mcexp runs")
}

#[test]
fn misplaced_flags_exit_two_with_usage() {
    for args in [
        &["headline", "--gate", "EY:2"][..],
        &["sweep", "--sets", "1"],
    ] {
        let output = mcexp(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: mcexp <subcommand>"), "{stderr}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn an_unwritable_csv_fails_the_sweep_after_the_other_panels() {
    let out = std::env::temp_dir().join(format!("mcexp-cli-{}", std::process::id()));
    // A directory where the m = 2 CSV belongs makes that one write fail,
    // whoever runs the test.
    std::fs::create_dir_all(out.join("fig3_m2.csv")).unwrap();
    let dir = out.to_str().unwrap();
    let output = mcexp(&[
        "sweep", "--fig", "3", "--m", "2,4", "--sets", "1", "--out", dir,
    ]);
    let m4_written = out.join("fig3_m4.csv").is_file();
    std::fs::remove_dir_all(&out).unwrap();

    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("failed to write"), "{stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("## Fig3 (m = 2)"), "{stdout}");
    assert!(stdout.contains("## Fig3 (m = 4)"), "{stdout}");
    assert!(
        m4_written,
        "the panel after the failed one still writes its CSV"
    );
}

#[test]
fn an_unwritable_csv_fails_all_after_every_table() {
    let out = std::env::temp_dir().join(format!("mcexp-cli-all-{}", std::process::id()));
    std::fs::create_dir_all(out.join("fig3_m2.csv")).unwrap();
    let dir = out.to_str().unwrap();
    let output = mcexp(&["all", "--m", "2", "--sets", "1", "--out", dir]);
    let fig5_written = out.join("fig5_m2.csv").is_file();
    std::fs::remove_dir_all(&out).unwrap();

    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("## Mode-switch isolation"), "{stdout}");
    assert!(fig5_written);
}
