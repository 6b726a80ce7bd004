//! `perfbench`: the end-to-end and per-layer benchmark of the paper's
//! acceptance-ratio sweeps and of the admission-control service.
//!
//! ```text
//! perfbench --workload <sweep-mc|sweep-edfvd|service-churn> --seed N \
//!           --seconds S --trace <0|1> [--work-dir DIR]
//! ```
//!
//! The untraced run (`--trace 0`) measures the end-to-end metrics,
//! scaled to nominal host speed by a reference kernel timed beside them
//! (see [`stats`]), and runs every correctness gate; the traced run
//! (`--trace 1`) replays the same inputs through the layers' public
//! functions with spans around each call and reports the per-layer
//! split. Human-readable lines come first; the last line of standard
//! output is one JSON object. Any failed check is named and makes the
//! exit code 1.

mod service;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// Capacity of one latency sample buffer (a reservoir beyond it).
pub const SAMPLE_CAPACITY: usize = 1 << 19;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sweep-mc", "sweep-edfvd", "service-churn"];

/// Every per-layer metric and its unit. A traced run reports all of them
/// on every workload; a layer a workload does not run reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("gen.ns_per_set".into(), "ns"),
        ("gen.yield".into(), "ratio"),
        ("strategy.order_ns_per_set".into(), "ns"),
        ("strategy.fit_ns_per_call".into(), "ns"),
        ("strategy.fit_calls_per_set".into(), "1/set"),
    ];
    for algo in sweep::SWEEP_MC
        .algorithms
        .iter()
        .chain(sweep::SWEEP_EDFVD.algorithms.iter())
    {
        let key = metric_key(algo);
        v.push((format!("partition.{key}.us_per_set"), "us"));
        v.push((format!("partition.{key}.accept_ratio"), "ratio"));
    }
    for t in sweep::KINDS {
        v.push((format!("incremental.{t}.probe_ns"), "ns"));
        v.push((format!("incremental.{t}.probe_p99_ns"), "ns"));
        v.push((format!("incremental.{t}.probes_per_set"), "1/set"));
        v.push((format!("incremental.{t}.admit_ratio"), "ratio"));
        v.push((format!("incremental.{t}.full_ratio"), "ratio"));
        v.push((format!("incremental.{t}.commit_ns"), "ns"));
    }
    for t in ["ecdf", "ey"] {
        v.push((format!("demand.{t}.qpa_cold"), "1/set"));
        v.push((format!("demand.{t}.anchor_hits"), "1/set"));
        v.push((format!("demand.{t}.warm_ratio"), "ratio"));
    }
    let rest: [(&str, &'static str); 19] = [
        ("amc.seeded_ratio", "ratio"),
        ("netframe.read_ns", "ns"),
        ("netframe.write_ns", "ns"),
        ("protocol.parse_ns", "ns"),
        ("protocol.render_ns", "ns"),
        ("cluster.admit_ns", "ns"),
        ("cluster.admit_p99_ns", "ns"),
        ("cluster.remove_ns", "ns"),
        ("cluster.probe_ns", "ns"),
        ("cluster.query_ns", "ns"),
        ("cluster.admit_ratio", "ratio"),
        ("journal.append_ns", "ns"),
        ("journal.compactions", "1/krecord"),
        ("journal.bytes_per_record", "B"),
        ("service.eval_us", "us"),
        ("server.residual_us", "us"),
        ("server.request_p50_us", "us"),
        ("trace.overhead", "ratio"),
        ("trace.unattributed_share", "ratio"),
    ];
    v.extend(rest.iter().map(|&(n, u)| (n.to_owned(), u)));
    v
}

/// A metric-name key for a registry algorithm name: lower-cased, with
/// characters outside the name alphabet mapped to `-`.
pub fn metric_key(algorithm: &str) -> String {
    algorithm
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-' {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    lines: Vec<String>,
    metrics: Vec<(String, f64, String)>,
    failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// A metric of the JSON result (also printed as a line).
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: &str) {
        self.line(format!("metric {name} = {value} {unit} ({samples})"));
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    /// A named figure printed for the reader but not in the JSON result.
    pub fn figure(&mut self, name: &str, value: f64, unit: &str, samples: &str) {
        self.line(format!("  {name} = {value} {unit} ({samples})"));
    }

    /// Records a correctness gate; a failed gate is named in the output.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        self.line(format!(
            "check {name}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            self.failures.push(format!("{name}: {detail}"));
        }
    }

    /// Reports `throughput_per_s`: per chunk, the measured rate times the
    /// chunk's host slowdown; the median over chunks.
    pub fn throughput(&mut self, rates: &[f64], slowdowns: &[f64], what: &str) {
        self.line(format!(
            "chunk throughputs, wall clock (1/s): {}",
            joined(rates, 1.0, 0)
        ));
        self.line(format!(
            "chunk host slowdowns (reference kernel time / {} ns): {}",
            stats::REF_NS,
            joined(slowdowns, 1.0, 3)
        ));
        let scaled: Vec<f64> = rates.iter().zip(slowdowns).map(|(r, s)| r * s).collect();
        self.figure(
            "throughput_per_s, wall clock",
            stats::median_f64(rates),
            "1/s",
            "median over chunks, not scaled",
        );
        self.metric("throughput_per_s", stats::median_f64(&scaled), "1/s", what);
    }

    /// Reports `<prefix>_p50_us` and `<prefix>_p99_us` at nominal host
    /// speed, the p99 gated on leaving at least ten samples beyond it in
    /// every chunk.
    pub fn latency(
        &mut self,
        prefix: &str,
        samples: &mut stats::Samples,
        slowdowns: &[f64],
        what: &str,
    ) {
        let Some(l) = stats::latency(samples, slowdowns) else {
            self.check(
                &format!("{prefix} latency samples"),
                false,
                "nothing was timed",
            );
            return;
        };
        if let Some(wall) = stats::latency(samples, &vec![1.0; slowdowns.len()]) {
            for (q, us) in [("p50", wall.p50_us), ("p99", wall.p99_us)] {
                let name = format!("{prefix}_{q}_us, wall clock");
                self.figure(&name, us, "us", "median over chunks, not scaled");
            }
        }
        let n = l.describe(what);
        self.metric(&format!("{prefix}_p50_us"), l.p50_us, "us", &n);
        self.metric(&format!("{prefix}_p99_us"), l.p99_us, "us", &n);
        self.check(
            &format!("{prefix} latency has ten samples beyond p99 in every chunk"),
            l.min_beyond_p99 >= 10,
            format!(
                "n={}, fewest beyond p99 in a chunk={}",
                l.n, l.min_beyond_p99
            ),
        );
    }

    /// Reports `setup_s`, the median of the set-up repetitions, each
    /// given as `(wall seconds, seconds at nominal host speed)`.
    pub fn setup(&mut self, setups: &[(f64, f64)], what: &str) {
        let wall: Vec<f64> = setups.iter().map(|s| s.0).collect();
        let scaled: Vec<f64> = setups.iter().map(|s| s.1).collect();
        self.line(format!(
            "set-up repetitions, wall clock (ms): {}",
            joined(&wall, 1e3, 3)
        ));
        self.line(format!(
            "set-up repetitions at nominal host speed (ms): {}",
            joined(&scaled, 1e3, 3)
        ));
        self.metric(
            "setup_s",
            stats::median_f64(&scaled),
            "s",
            &format!(
                "median of {} set-ups at nominal host speed: {what}",
                setups.len()
            ),
        );
    }
}

/// `values` scaled by `scale`, with `decimals` digits, space-separated.
fn joined(values: &[f64], scale: f64, decimals: usize) -> String {
    values
        .iter()
        .map(|v| format!("{:.*}", decimals, v * scale))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "context: workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        cpu_model()
    );
    let mut report = Report::default();
    let run = match args.workload.as_str() {
        "sweep-mc" => sweep::run(&sweep::SWEEP_MC, &args, &mut report),
        "sweep-edfvd" => sweep::run(&sweep::SWEEP_EDFVD, &args, &mut report),
        _ => service::run(&args, &mut report),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if !args.trace {
        let rss = peak_rss_mib();
        report.metric("peak_rss_mib", rss, "MiB", "VmHWM at exit");
        report.figure(
            "error_rate",
            stats::ratio(report.failed as f64, report.attempted as f64),
            "ratio",
            &format!("{} failed of {}", report.failed, report.attempted),
        );
    } else {
        // Every listed per-layer metric, in list order; layers this
        // workload does not run read 0.
        report.metrics = per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let value = report
                    .metrics
                    .iter()
                    .find(|m| m.0 == name)
                    .map_or(0.0, |m| m.1);
                (name, value, unit.to_owned())
            })
            .collect();
    }
    report.line(format!(
        "run: wall {:.3} s, attempted {}, failed {}",
        started.elapsed().as_secs_f64(),
        report.attempted,
        report.failed
    ));
    for l in &report.lines {
        println!("{l}");
    }
    let correct = report.failures.is_empty();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        // Names and units come from this program's own lists and need
        // no escaping.
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
        );
    }
    json.push_str("}}");
    if !correct {
        for f in &report.failures {
            eprintln!("perfbench: check failed: {f}");
        }
    }
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_keys_use_the_name_alphabet() {
        assert_eq!(metric_key("CA(nosort)-F-F-EDF-VD"), "ca-nosort--f-f-edf-vd");
        assert_eq!(metric_key("CU-UDP-ECDF"), "cu-udp-ecdf");
    }

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let names = per_layer_names();
        assert!(names.len() <= 128);
        for (i, (n, _)) in names.iter().enumerate() {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(names[..i].iter().all(|(m, _)| m != n), "duplicate {n}");
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics this program reports.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_owned()
                })
                .collect()
        };
        let layers: Vec<String> = per_layer_names().into_iter().map(|p| p.0).collect();
        assert_eq!(listed("per_layer"), layers);
        assert_eq!(listed("workloads"), WORKLOADS.to_vec());
        assert_eq!(
            listed("end_to_end"),
            [
                "throughput_per_s",
                "op_p50_us",
                "op_p99_us",
                "admit_p50_us",
                "admit_p99_us",
                "setup_s",
                "peak_rss_mib"
            ]
        );
    }
}
