//! Analysis-level throughput measurement: the `BENCH_analysis.json`
//! artifact CI uploads to track the *uniprocessor test* hot path (the
//! layer below whole-system partitioning).
//!
//! For each of the five tests and each processor count, a seeded corpus
//! is judged twice per round, for [`ROUNDS`] rounds:
//!
//! * **reference** — the seed implementations kept as test oracles in
//!   the `mcsched-oracle` crate: per-call allocating vectors, for AMC-max
//!   the materialise + sort + dedup candidate enumeration
//!   ([`mcsched_oracle::amc`]), and for EY / ECDF the flat per-call QPA
//!   stack ([`mcsched_oracle::vdtune`] over [`mcsched_oracle::dbf`]);
//! * **workspace** — the hot path:
//!   [`SchedulabilityTest::is_schedulable_in`] over one reused
//!   [`AnalysisWorkspace`]: streaming AMC-max candidates over the SoA
//!   lanes, and the incremental demand kernel (warm-resumed QPA
//!   fixpoints, memoised violation anchors) behind the EY / ECDF tuners.
//!
//! The rounds alternate which pass runs first, and a cell's speedup is
//! the **median per-round ratio**, so one slow pass (a descheduled
//! thread, a cold cache) cannot decide a gate. Every verdict pair of
//! every round is **asserted equal** — a divergence panics, which is
//! exactly what the `perf-analysis` CI job promotes into a failure.

use mcsched_analysis::{AmcMax, AmcRtb, AnalysisWorkspace, Ecdf, EdfVd, Ey, SchedulabilityTest};
use mcsched_gen::{seeded_corpus, uniprocessor_spec};
use mcsched_model::TaskSet;
use mcsched_oracle::{amc as reference, vdtune as vd_reference};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// One `(test, m)` cell of the throughput report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalysisPerfRow {
    /// Uniprocessor test name.
    pub test: String,
    /// Processor count the corpus was generated for (larger `m` ⇒ more
    /// tasks per set: the paper draws `n ∈ [m+1, 5m]`).
    pub m: usize,
    /// Task sets judged.
    pub sets: usize,
    /// Total tasks across the corpus.
    pub tasks: usize,
    /// Sets the test accepted (identical on both paths — asserted).
    pub accepted: usize,
    /// Median wall-clock of the reference (seed) pass over the rounds,
    /// in milliseconds.
    pub reference_ms: f64,
    /// Median wall-clock of the workspace (hot) pass over the rounds, in
    /// milliseconds.
    pub workspace_ms: f64,
    /// The median per-round `reference / workspace` time ratio (not the
    /// ratio of the two medians).
    pub speedup: f64,
}

/// The full analysis-throughput report (serialized to
/// `BENCH_analysis.json`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnalysisPerfReport {
    /// Corpus seed.
    pub seed: u64,
    /// Sets per `(test, m)` cell.
    pub sets_per_cell: usize,
    /// One row per `(test, m)`.
    pub rows: Vec<AnalysisPerfRow>,
}

/// The reference (seed) verdict for one test — the allocating
/// implementations the workspace layer replaced, kept verbatim in
/// `mcsched-oracle` for exactly this comparison.
/// (EDF-VD's closed form never allocated; its row doubles as a noise
/// baseline.)
fn reference_verdict(test: &TestCase, ts: &TaskSet) -> bool {
    match test {
        TestCase::EdfVd(t) => t.is_schedulable(ts),
        TestCase::Ey(_) => vd_reference::ey_is_schedulable(ts),
        TestCase::Ecdf(_) => vd_reference::ecdf_is_schedulable(ts),
        TestCase::AmcRtb(_) => reference::amc_rtb_is_schedulable(ts),
        TestCase::AmcMax(_) => reference::amc_max_is_schedulable(ts),
    }
}

/// The five measured tests (EDF-VD has no allocating/seed split — its
/// closed form never allocated — so its row doubles as a baseline).
enum TestCase {
    /// Closed-form utilization test.
    EdfVd(EdfVd),
    /// Greedy virtual-deadline tuner.
    Ey(Ey),
    /// Multi-start virtual-deadline tuner.
    Ecdf(Ecdf),
    /// Response-time bound RTA.
    AmcRtb(AmcRtb),
    /// Switch-instant enumerating RTA.
    AmcMax(AmcMax),
}

impl TestCase {
    fn all() -> Vec<TestCase> {
        vec![
            TestCase::EdfVd(EdfVd::new()),
            TestCase::Ey(Ey::new()),
            TestCase::Ecdf(Ecdf::new()),
            TestCase::AmcRtb(AmcRtb::new()),
            TestCase::AmcMax(AmcMax::new()),
        ]
    }

    fn as_test(&self) -> &dyn SchedulabilityTest {
        match self {
            TestCase::EdfVd(t) => t,
            TestCase::Ey(t) => t,
            TestCase::Ecdf(t) => t,
            TestCase::AmcRtb(t) => t,
            TestCase::AmcMax(t) => t,
        }
    }
}

/// Timed rounds per `(test, m)` cell. Odd, so the median is one round.
pub const ROUNDS: usize = 7;

/// Measures every test over seeded corpora for each `m` in [`ROUNDS`]
/// rounds, asserting the workspace verdicts bit-identical to the
/// reference pass in every round.
///
/// # Panics
///
/// Panics if any workspace verdict diverges from its reference verdict —
/// the equivalence assertion the `perf-analysis` CI job relies on.
pub fn analysis_throughput(m_values: &[usize], sets: usize, seed: u64) -> AnalysisPerfReport {
    let mut rows = Vec::new();
    for &m in m_values {
        let corpus = seeded_corpus(sets, seed, |p| uniprocessor_spec(m, p));
        let tasks: usize = corpus.iter().map(TaskSet::len).sum();
        for case in TestCase::all() {
            let test = case.as_test();
            // One reused workspace, as a sweep worker runs.
            let mut ws = AnalysisWorkspace::new();
            let reference_pass = || timed(&corpus, |ts| reference_verdict(&case, ts));
            let mut workspace_pass = || timed(&corpus, |ts| test.is_schedulable_in(ts, &mut ws));
            let (mut ref_ms, mut ws_ms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
            let mut accepted = 0;
            for round in 0..ROUNDS {
                let ((ref_verdicts, r), (ws_verdicts, w)) = if round % 2 == 0 {
                    let first = reference_pass();
                    (first, workspace_pass())
                } else {
                    let first = workspace_pass();
                    (reference_pass(), first)
                };
                assert_eq!(
                    ref_verdicts,
                    ws_verdicts,
                    "{} workspace verdicts diverged from the seed reference (m={m}, round {round})",
                    test.name()
                );
                accepted = ws_verdicts.iter().filter(|&&ok| ok).count();
                ratios.push(if w > 0.0 { r / w } else { f64::INFINITY });
                ref_ms.push(r);
                ws_ms.push(w);
            }
            rows.push(AnalysisPerfRow {
                test: test.name().to_owned(),
                m,
                sets: corpus.len(),
                tasks,
                accepted,
                reference_ms: median(ref_ms),
                workspace_ms: median(ws_ms),
                speedup: median(ratios),
            });
        }
    }
    AnalysisPerfReport {
        seed,
        sets_per_cell: sets,
        rows,
    }
}

/// One timed pass: judges `sets` with `verdict`, returning the verdicts
/// and the wall-clock in milliseconds.
fn timed(sets: &[TaskSet], verdict: impl FnMut(&TaskSet) -> bool) -> (Vec<bool>, f64) {
    let start = Instant::now();
    let verdicts = sets.iter().map(verdict).collect();
    (verdicts, start.elapsed().as_secs_f64() * 1e3)
}

/// The median of a non-empty sample (the upper middle for even sizes).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Parses a `TEST:MIN` speedup gate (e.g. `AMC-rtb:1.5`).
pub fn parse_gate(spec: &str) -> Result<(String, f64), String> {
    let (test, min) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad --gate `{spec}` (expected TEST:MIN, e.g. AMC-rtb:1.5)"))?;
    let min: f64 = min
        .parse()
        .map_err(|e| format!("bad --gate `{spec}`: {e}"))?;
    if test.is_empty() || !min.is_finite() || min <= 0.0 {
        return Err(format!(
            "bad --gate `{spec}` (expected TEST:MIN with MIN > 0)"
        ));
    }
    Ok((test.to_string(), min))
}

/// Checks speedup gates against every matching `(test, m)` row. Returns
/// one message per violation (or unknown test name); empty means pass.
pub fn check_gates(report: &AnalysisPerfReport, gates: &[(String, f64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (test, min) in gates {
        let mut seen = false;
        for r in report.rows.iter().filter(|r| &r.test == test) {
            seen = true;
            if r.speedup < *min {
                failures.push(format!(
                    "{} at m={}: speedup {:.2}x below the {min:.2}x gate \
                     (reference {:.1} ms vs workspace {:.1} ms)",
                    r.test, r.m, r.speedup, r.reference_ms, r.workspace_ms
                ));
            }
        }
        if !seen {
            failures.push(format!("gate names unknown test `{test}`"));
        }
    }
    failures
}

/// Writes the report as pretty-printed JSON.
pub fn write_analysis_json(report: &AnalysisPerfReport, path: &Path) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

/// Renders the report as a markdown table.
pub fn render_analysis_perf(report: &AnalysisPerfReport) -> String {
    let mut out = String::from(
        "| test | m | sets | tasks | accepted | reference ms | workspace ms | speedup |\n\
         |----|----|----|----|----|----|----|----|\n",
    );
    for r in &report.rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.1} | {:.1} | {:.2}x |\n",
            r.test, r.m, r.sets, r.tasks, r.accepted, r.reference_ms, r.workspace_ms, r.speedup
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_shape_and_equivalence() {
        // Small corpus; the equivalence assertions inside must hold.
        let report = analysis_throughput(&[2], 6, 11);
        assert_eq!(report.rows.len(), 5);
        for r in &report.rows {
            assert_eq!(r.sets, 6);
            assert!(r.accepted <= r.sets);
            assert!(r.tasks >= r.sets);
            assert!(r.speedup > 0.0);
        }
        let table = render_analysis_perf(&report);
        assert!(table.contains("speedup"));
        assert!(table.contains("AMC-max"));
    }

    #[test]
    fn gates_parse_and_check() {
        assert_eq!(
            parse_gate("AMC-rtb:1.5").unwrap(),
            ("AMC-rtb".to_string(), 1.5)
        );
        assert!(parse_gate("AMC-rtb").is_err());
        assert!(parse_gate("AMC-rtb:zero").is_err());
        assert!(parse_gate(":1.5").is_err());
        assert!(parse_gate("AMC-rtb:-1").is_err());

        let row = |test: &str, m: usize, speedup: f64| AnalysisPerfRow {
            test: test.to_string(),
            m,
            sets: 10,
            tasks: 40,
            accepted: 5,
            reference_ms: speedup,
            workspace_ms: 1.0,
            speedup,
        };
        let report = AnalysisPerfReport {
            seed: 1,
            sets_per_cell: 10,
            rows: vec![
                row("AMC-rtb", 2, 1.7),
                row("AMC-rtb", 4, 1.2),
                row("AMC-max", 2, 2.0),
            ],
        };
        // A gate applies to every m-row of its test.
        let failures = check_gates(&report, &[("AMC-rtb".to_string(), 1.5)]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("m=4"), "{failures:?}");
        assert!(check_gates(&report, &[("AMC-rtb".to_string(), 1.1)]).is_empty());
        // Unknown test names fail loudly instead of silently passing.
        let failures = check_gates(&report, &[("EY".to_string(), 1.0)]);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("unknown test"), "{failures:?}");
    }

    #[test]
    fn json_written_to_disk() {
        let report = analysis_throughput(&[2], 2, 5);
        let dir = std::env::temp_dir().join("mcsched_analysis_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_analysis.json");
        write_analysis_json(&report, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("workspace_ms"));
        assert!(text.contains("\"rows\""));
        std::fs::remove_file(&path).ok();
    }
}
