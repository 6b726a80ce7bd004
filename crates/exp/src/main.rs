//! `mcexp` — regenerate the figures of the DATE 2017 UDP partitioning
//! paper and serve admission control: `eval` over stdin/stdout or files,
//! `serve` over TCP.
//!
//! ```text
//! mcexp sweep --fig 3 [--m 2,4,8] [--sets N] [--seed S] [--threads T] [--out DIR]
//! mcexp headline | ablation | isolation | all
//! mcexp analysis [--json FILE] [--gate TEST:MIN]  # per-test throughput
//!                                 # (BENCH_analysis.json, gated speedups)
//! mcexp eval [--input FILE] [--output FILE]   # one connection over stdio
//! mcexp serve [--addr H:P] [--workers N] [--queue N] [--idle-secs S]
//!             [--max-requests N] [--allow-shutdown]
//!             [--journal FILE] [--recover]
//! mcexp bench-service [--addr H:P] [--algorithm NAME] [--m M] [--sets N]
//!                     [--pipeline K] [--burst N] [--out FILE] [--shutdown]
//!                     [--retries N] [--backoff-ms MS] [--journal FILE]
//!                     [--gate-speedup X]
//! mcexp chaos [--seeds N] [--steps N] [--out FILE]
//! ```
//!
//! The first word names the subcommand; an invocation that starts with a
//! flag (other than `--help`) is a usage error.
//!
//! Defaults: `--sets 200` (the paper uses 1000; raise it for final runs),
//! `--seed 42`, `--threads` = available parallelism.

use mcsched_core::AlgorithmRegistry;
use mcsched_exp::ablation::{
    admission_profile, amc_ablation, render_ablation, render_admission, strategy_ablation,
};
use mcsched_exp::algorithms::perf_lineup;
use mcsched_exp::analysis_perf::{
    analysis_throughput, check_gates, parse_gate, render_analysis_perf, write_analysis_json,
};
use mcsched_exp::bench_service::{
    render_service_bench, run_service_bench, write_service_json, ServiceBenchConfig,
};
use mcsched_exp::chaos::{render_chaos, run_chaos, write_chaos_json, ChaosConfig};
use mcsched_exp::figures::{
    fig3_panel, fig4_panel, fig5_panel, fig6a, fig6b, render_war_table, FIGURE_M,
};
use mcsched_exp::headline::{headlines, render_headlines};
use mcsched_exp::isolation::{isolation_experiment, render_isolation};
use mcsched_exp::report::{render_table, write_csv};
use mcsched_exp::server::{serve_connection, Server, ServerConfig};
use mcsched_exp::sweep::default_threads;
use std::io::{self, BufWriter, Read, Write};
use std::path::PathBuf;
use std::time::Duration;

/// Ceiling on the isolation experiment's workload count: each workload
/// runs two full discrete-event simulations over a 20k-tick horizon, so
/// the experiment costs orders of magnitude more per set than a
/// schedulability sweep. `--sets` above this is clamped (with a warning
/// on stderr — never silently).
const MAX_ISOLATION_SETS: usize = 100;

#[derive(Debug, Clone)]
struct Args {
    eval: bool,
    serve: bool,
    bench: bool,
    input: Option<PathBuf>,
    output: Option<PathBuf>,
    fig: Option<String>,
    m_values: Vec<usize>,
    m_explicit: bool,
    sets: usize,
    sets_explicit: bool,
    seed: u64,
    threads: usize,
    out: Option<PathBuf>,
    headline: bool,
    ablation: bool,
    isolation: bool,
    all: bool,
    analysis: bool,
    json: Option<PathBuf>,
    gates: Vec<(String, f64)>,
    // serve / bench-service options
    addr: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    idle_secs: Option<u64>,
    max_requests: Option<u64>,
    allow_shutdown: bool,
    algorithm: Option<String>,
    pipeline: Option<usize>,
    burst: Option<usize>,
    shutdown: bool,
    journal: Option<PathBuf>,
    recover: bool,
    retries: Option<usize>,
    backoff_ms: Option<u64>,
    gate_speedup: Option<f64>,
    // chaos options
    chaos: bool,
    seeds: Option<u64>,
    steps: Option<usize>,
    help: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        eval: false,
        serve: false,
        bench: false,
        input: None,
        output: None,
        fig: None,
        m_values: FIGURE_M.to_vec(),
        m_explicit: false,
        sets: 200,
        sets_explicit: false,
        seed: 42,
        threads: default_threads(),
        out: None,
        headline: false,
        ablation: false,
        isolation: false,
        all: false,
        analysis: false,
        json: None,
        gates: Vec::new(),
        addr: None,
        workers: None,
        queue: None,
        idle_secs: None,
        max_requests: None,
        allow_shutdown: false,
        algorithm: None,
        pipeline: None,
        burst: None,
        shutdown: false,
        journal: None,
        recover: false,
        retries: None,
        backoff_ms: None,
        gate_speedup: None,
        chaos: false,
        seeds: None,
        steps: None,
        help: false,
    };
    // Leading bare word = subcommand.
    let mut sweep = false;
    if let Some(first) = argv.first() {
        match first.as_str() {
            "sweep" => sweep = true,
            "headline" => args.headline = true,
            "ablation" => args.ablation = true,
            "isolation" => args.isolation = true,
            "all" => args.all = true,
            "analysis" => args.analysis = true,
            "eval" => args.eval = true,
            "serve" => args.serve = true,
            "bench-service" => args.bench = true,
            "chaos" => args.chaos = true,
            "help" | "--help" | "-h" => {
                args.help = true;
                return Ok(args);
            }
            flag if flag.starts_with('-') => {
                return Err(format!(
                    "`{flag}` before a subcommand (expected {SUBCOMMANDS})"
                ));
            }
            other => {
                return Err(format!(
                    "unknown subcommand `{other}` (expected {SUBCOMMANDS})"
                ));
            }
        }
    }
    let mut i = 1;

    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", argv[*i - 1]))
    };

    while i < argv.len() {
        match argv[i].as_str() {
            "--input" => args.input = Some(PathBuf::from(value(&mut i)?)),
            "--output" => args.output = Some(PathBuf::from(value(&mut i)?)),
            "--fig" if sweep => args.fig = Some(value(&mut i)?),
            "--m" => {
                args.m_values = value(&mut i)?
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad --m list: {e}"))?;
                args.m_explicit = true;
            }
            "--sets" => {
                args.sets = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --sets: {e}"))?;
                args.sets_explicit = true;
            }
            "--seed" => {
                args.seed = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--threads" => {
                args.threads = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut i)?)),
            "--json" => args.json = Some(PathBuf::from(value(&mut i)?)),
            "--gate" => args.gates.push(parse_gate(&value(&mut i)?)?),
            "--addr" => args.addr = Some(value(&mut i)?),
            "--workers" => {
                args.workers = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --workers: {e}"))?,
                );
            }
            "--queue" => {
                args.queue = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --queue: {e}"))?,
                );
            }
            "--idle-secs" => {
                args.idle_secs = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --idle-secs: {e}"))?,
                );
            }
            "--max-requests" => {
                args.max_requests = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --max-requests: {e}"))?,
                );
            }
            "--allow-shutdown" => args.allow_shutdown = true,
            "--algorithm" => args.algorithm = Some(value(&mut i)?),
            "--pipeline" => {
                args.pipeline = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --pipeline: {e}"))?,
                );
            }
            "--burst" => {
                args.burst = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --burst: {e}"))?,
                );
            }
            "--shutdown" => args.shutdown = true,
            "--journal" => args.journal = Some(PathBuf::from(value(&mut i)?)),
            "--recover" => args.recover = true,
            "--retries" => {
                args.retries = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --retries: {e}"))?,
                );
            }
            "--backoff-ms" => {
                args.backoff_ms = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --backoff-ms: {e}"))?,
                );
            }
            "--gate-speedup" => {
                args.gate_speedup = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --gate-speedup: {e}"))?,
                );
            }
            "--seeds" => {
                args.seeds = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --seeds: {e}"))?,
                );
            }
            "--steps" => {
                args.steps = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --steps: {e}"))?,
                );
            }
            "--help" | "-h" => {
                args.help = true;
                return Ok(args);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    validate(&args)?;
    Ok(args)
}

/// Parse-time validation: reject nonsense values with a usage error
/// (exit 2) instead of letting them surface later as a runtime failure
/// (exit 1) — or worse, as a silent empty sweep.
fn validate(args: &Args) -> Result<(), String> {
    if args.threads == 0 {
        return Err("--threads must be at least 1".to_owned());
    }
    if args.sets == 0 {
        return Err("--sets must be at least 1".to_owned());
    }
    if args.m_values.is_empty() {
        return Err("--m needs a non-empty list of processor counts".to_owned());
    }
    if args.m_values.contains(&0) {
        return Err("--m values must be at least 1".to_owned());
    }
    for (flag, v) in [
        ("--workers", args.workers),
        ("--queue", args.queue),
        ("--pipeline", args.pipeline),
        ("--burst", args.burst),
        ("--steps", args.steps),
    ] {
        if v == Some(0) {
            return Err(format!("{flag} must be at least 1"));
        }
    }
    if args.seeds == Some(0) {
        return Err("--seeds must be at least 1".to_owned());
    }
    if args.recover && args.journal.is_none() {
        return Err("--recover needs --journal FILE to recover from".to_owned());
    }
    if args.bench && args.journal.is_some() && args.addr.is_some() {
        return Err(
            "bench-service --journal only applies to the in-process server; \
             an external server (--addr) owns its own journal"
                .to_owned(),
        );
    }
    if let Some(gate) = args.gate_speedup {
        if !gate.is_finite() || gate <= 0.0 {
            return Err("--gate-speedup must be a positive number".to_owned());
        }
    }
    if let Some(addr) = &args.addr {
        // Resolve now so `serve --addr garbage` is a usage error, not a
        // bind failure after the registry has been built.
        use std::net::ToSocketAddrs;
        addr.to_socket_addrs()
            .map_err(|e| format!("bad --addr `{addr}`: {e}"))?
            .next()
            .ok_or_else(|| format!("bad --addr `{addr}`: resolves to no address"))?;
    }
    Ok(())
}

/// The subcommand names, for usage errors.
const SUBCOMMANDS: &str = "sweep, headline, ablation, isolation, all, analysis, eval, serve, \
                           bench-service, or chaos";

const HELP: &str = r#"mcexp — the DATE 2017 UDP partitioning experiment driver
usage: mcexp <subcommand> [options]

subcommands:
  sweep --fig 3|4|5|6a|6b   acceptance-ratio sweeps (figures of §IV)
  headline                  the paper's headline improvement numbers
  ablation                  strategy/AMC ablations + admission profile
  isolation                 mode-switch isolation simulation
  all                       every figure, headline, ablation, isolation
  analysis [--json FILE] [--gate TEST:MIN ...]
                            per-test throughput artifact (BENCH_analysis.json);
                            each --gate fails the run (exit 1) if TEST's
                            speedup over the reference pass drops below MIN
                            at any measured m (e.g. --gate AMC-rtb:1.5)
  eval [--input F] [--output F]   one server connection over stdin/stdout
  serve [--addr H:P] [--workers N] [--queue N] [--idle-secs S]
        [--max-requests N] [--allow-shutdown] [--journal FILE] [--recover]
                            persistent admission-control server (JSONL/TCP);
                            --journal makes named sessions durable,
                            --recover replays the journal on startup
  bench-service [--addr H:P] [--algorithm NAME] [--m M] [--sets N] [--seed S]
                [--pipeline K] [--burst N] [--out FILE] [--shutdown]
                [--retries N] [--backoff-ms MS] [--journal FILE]
                [--gate-speedup X]
                            cold vs warm service benchmark (BENCH_service.json);
                            --retries bounds connect/shed retry-with-backoff,
                            --gate-speedup fails the run (exit 1) if the
                            warm/cold speedup drops below X
  chaos [--seeds N] [--steps N] [--out FILE]
                            deterministic fault-injection soak: N seeded
                            schedules driven through the full protocol state
                            machine behind a faulty transport; exit 1 on any
                            panic or divergence from the replay/oracle state
                            (CHAOS.json)

shared options: --m 2,4,8  --sets N  --seed S  --threads T  --out DIR

eval mode: serve one protocol-v1 connection (see serve mode) over --input
or stdin and --output or stdout, with no frame size cap and no timeout;
exit 1 on a read or write failure. An eval request names any registered
algorithm ("<strategy>-<test>", e.g. CU-UDP-EDF-VD, CA-UDP-AMC, ECA-Wu-F-EY);
unknown names are answered with an error listing every registered name.
Example request line:

  {"algorithm":"CU-UDP-EDF-VD","m":2,"tasks":[{"id":0,"period":10,"criticality":"HI","wcet_lo":2,"wcet_hi":4},{"id":1,"period":20,"wcet_lo":6}]}

The verdict carries the partition witness (task ids per processor):

  {"type":"eval","v":1,"algorithm":"CU-UDP-EDF-VD","m":2,"schedulable":true,"partition":[[0],[1]],"rejected_task":null,"detail":null}

serve mode speaks protocol v1: the same eval lines plus session verbs
(open_session, admit, remove, query, close) with per-connection state;
see README.md § Service."#;

fn run_panel_figure(
    fig: &str,
    args: &Args,
    panel: fn(usize, usize, u64, usize) -> mcsched_exp::SweepResult,
) {
    for &m in &args.m_values {
        eprintln!("[mcexp] {fig} m={m} sets/bucket={} ...", args.sets);
        let result = panel(m, args.sets, args.seed, args.threads);
        println!("\n## {fig} (m = {m})\n");
        println!("{}", render_table(&result));
        if let Some(dir) = &args.out {
            let path = dir.join(format!("{}_m{}.csv", fig.to_lowercase(), m));
            if let Err(e) = write_csv(&result, &path) {
                eprintln!("[mcexp] failed to write {}: {e}", path.display());
            } else {
                eprintln!("[mcexp] wrote {}", path.display());
            }
        }
    }
}

/// Runs `mcexp eval`: one server connection over the input and output
/// streams, with no frame cap, request cap or timeout (a batch file is
/// neither a slow nor a hostile peer).
fn run_eval_mode(args: &Args) -> io::Result<()> {
    let input: Box<dyn Read> = match &args.input {
        Some(path) => Box::new(std::fs::File::open(path)?),
        None => Box::new(io::stdin().lock()),
    };
    let output: Box<dyn Write> = match &args.output {
        Some(path) => Box::new(BufWriter::new(std::fs::File::create(path)?)),
        None => Box::new(io::stdout().lock()),
    };
    let config = ServerConfig {
        max_frame_len: usize::MAX,
        max_requests: u64::MAX,
        idle_timeout: None,
        frame_deadline: None,
        ..ServerConfig::default()
    };
    let (mut input, mut output) = (KeepErr(input, None), KeepErr(output, None));
    let registry = AlgorithmRegistry::standard();
    let stats = serve_connection(&registry, &config, &mut input, &mut output);
    let _ = output.flush();
    if let Some(e) = input.1.or(output.1) {
        return Err(e);
    }
    let (requests, errors) = (stats.requests, stats.errors);
    eprintln!("[mcexp] eval: {requests} request(s), {errors} error verdict(s)");
    Ok(())
}

/// A stream that keeps its first I/O error: the connection loop ends on
/// a failed read or write without saying why, and `mcexp eval` exits 1.
/// (No signal handler is installed, so no call fails as `Interrupted`.)
struct KeepErr<T>(T, Option<io::Error>);

fn keep<V>(first: &mut Option<io::Error>, result: io::Result<V>) -> io::Result<V> {
    if let Err(e) = &result {
        first.get_or_insert_with(|| io::Error::new(e.kind(), e.to_string()));
    }
    result
}

impl<R: Read> Read for KeepErr<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        keep(&mut self.1, self.0.read(buf))
    }
}

impl<W: Write> Write for KeepErr<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        keep(&mut self.1, self.0.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        keep(&mut self.1, self.0.flush())
    }
}

/// Runs `mcexp serve`: the persistent admission-control server. Blocks
/// until shutdown (in-band when `--allow-shutdown`, else SIGKILL).
fn run_serve_mode(args: &Args) -> std::io::Result<()> {
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: args.addr.clone().unwrap_or(defaults.addr),
        workers: args.workers.unwrap_or(defaults.workers),
        queue_depth: args.queue.unwrap_or(defaults.queue_depth),
        max_requests: args.max_requests.unwrap_or(defaults.max_requests),
        idle_timeout: match args.idle_secs {
            Some(0) => None,
            Some(secs) => Some(Duration::from_secs(secs)),
            None => defaults.idle_timeout,
        },
        allow_shutdown: args.allow_shutdown,
        journal: args.journal.clone(),
        recover: args.recover,
        ..defaults
    };
    let server = Server::bind(AlgorithmRegistry::standard(), config.clone())?;
    if let Some(journal) = server.journal() {
        let stats = journal.stats();
        eprintln!(
            "[mcexp] journal: {} ({} session op(s) recovered, {} torn record(s) skipped)",
            config
                .journal
                .as_deref()
                .unwrap_or_else(|| std::path::Path::new("?"))
                .display(),
            stats.recovered,
            stats.skipped
        );
    }
    eprintln!(
        "[mcexp] serving protocol v1 on {} ({} worker(s), queue {}, shutdown {})",
        server.local_addr(),
        config.workers,
        config.queue_depth,
        if config.allow_shutdown {
            "in-band"
        } else {
            "signal-only"
        }
    );
    let stats = server.run()?;
    eprintln!(
        "[mcexp] server stopped: {} connection(s), {} request(s), {} error(s), {} shed",
        stats.connections, stats.requests, stats.errors, stats.overloads
    );
    Ok(())
}

/// Runs `mcexp bench-service`: cold vs warm throughput/latency.
fn run_bench_service_mode(args: &Args) -> std::io::Result<()> {
    let defaults = ServiceBenchConfig::default();
    let config = ServiceBenchConfig {
        addr: args.addr.clone(),
        algorithm: args.algorithm.clone().unwrap_or(defaults.algorithm),
        m: if args.m_explicit {
            args.m_values.first().copied().unwrap_or(defaults.m)
        } else {
            defaults.m
        },
        sets: if args.sets_explicit {
            args.sets
        } else {
            defaults.sets
        },
        seed: args.seed,
        pipeline: args.pipeline.unwrap_or(defaults.pipeline),
        burst: args.burst.unwrap_or(defaults.burst),
        shutdown_after: args.shutdown,
        retries: args.retries.unwrap_or(defaults.retries),
        backoff_ms: args.backoff_ms.unwrap_or(defaults.backoff_ms),
        journal: args.journal.clone(),
    };
    eprintln!(
        "[mcexp] service bench: {} m={} sets={} pipeline={} burst={} ({})",
        config.algorithm,
        config.m,
        config.sets,
        config.pipeline,
        config.burst,
        match &config.addr {
            Some(addr) => format!("against {addr}"),
            None => "in-process server".to_owned(),
        }
    );
    let report = run_service_bench(&config)?;
    println!("{}", render_service_bench(&report));
    if let Some(path) = &args.out {
        write_service_json(&report, path)?;
        eprintln!("[mcexp] wrote {}", path.display());
    }
    // Gate after the artifact is written, so a failing run still ships
    // the report that explains it.
    if let Some(gate) = args.gate_speedup {
        if report.speedup < gate {
            eprintln!(
                "[mcexp] GATE FAILED: warm/cold speedup {:.2}x < {gate}x",
                report.speedup
            );
            std::process::exit(1);
        }
        eprintln!(
            "[mcexp] speedup gate passed: {:.2}x >= {gate}x",
            report.speedup
        );
    }
    Ok(())
}

/// Runs `mcexp chaos`: the deterministic fault-injection soak. Returns
/// the process exit code (0 every seed consistent, 1 divergence).
fn run_chaos_mode(args: &Args) -> i32 {
    let defaults = ChaosConfig::default();
    let config = ChaosConfig {
        seeds: args.seeds.unwrap_or(defaults.seeds),
        steps: args.steps.unwrap_or(defaults.steps),
        ..defaults
    };
    eprintln!(
        "[mcexp] chaos soak: {} seed(s), {} step(s) each",
        config.seeds, config.steps
    );
    let report = run_chaos(&config);
    println!("{}", render_chaos(&report));
    if let Some(path) = &args.out {
        match write_chaos_json(&report, path) {
            Ok(()) => eprintln!("[mcexp] wrote {}", path.display()),
            Err(e) => {
                eprintln!("[mcexp] failed to write {}: {e}", path.display());
                return 1;
            }
        }
    }
    i32::from(!report.passed())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{HELP}");
            std::process::exit(2);
        }
    };

    if args.help {
        println!("{HELP}");
        return;
    }

    if args.eval {
        if let Err(e) = run_eval_mode(&args) {
            eprintln!("[mcexp] eval failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    if args.serve {
        if let Err(e) = run_serve_mode(&args) {
            eprintln!("[mcexp] serve failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    if args.bench {
        if let Err(e) = run_bench_service_mode(&args) {
            eprintln!("[mcexp] bench-service failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    if args.chaos {
        std::process::exit(run_chaos_mode(&args));
    }

    // Create the CSV output directory once up front so per-figure writes
    // cannot fail one by one later.
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create --out {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    let mut did_something = false;
    let figs: Vec<String> = if args.all {
        vec!["3", "4", "5", "6a", "6b"]
            .into_iter()
            .map(String::from)
            .collect()
    } else {
        args.fig.clone().into_iter().collect()
    };

    for fig in &figs {
        did_something = true;
        match fig.as_str() {
            "3" => run_panel_figure("Fig3", &args, fig3_panel),
            "4" => run_panel_figure("Fig4", &args, fig4_panel),
            "5" => run_panel_figure("Fig5", &args, fig5_panel),
            "6a" => {
                eprintln!("[mcexp] Fig6a sets/bucket={} ...", args.sets);
                let points = fig6a(args.sets, args.seed, args.threads);
                println!("\n## Fig6a (WAR vs P_H, implicit, EDF-VD)\n");
                println!("{}", render_war_table(&points));
            }
            "6b" => {
                eprintln!("[mcexp] Fig6b sets/bucket={} ...", args.sets);
                let points = fig6b(args.sets, args.seed, args.threads);
                println!("\n## Fig6b (WAR vs P_H, constrained, AMC/ECDF)\n");
                println!("{}", render_war_table(&points));
            }
            other => {
                eprintln!("error: unknown figure {other}\n{HELP}");
                std::process::exit(2);
            }
        }
    }

    if args.headline || args.all {
        did_something = true;
        eprintln!("[mcexp] headline numbers (sets/bucket={}) ...", args.sets);
        let hs = headlines(args.sets, args.seed, args.threads);
        println!("\n## Headline improvements (paper §IV)\n");
        println!("{}", render_headlines(&hs));
    }

    if args.ablation || args.all {
        did_something = true;
        for &m in &args.m_values {
            eprintln!("[mcexp] strategy ablation m={m} ...");
            let rows = strategy_ablation(m, args.sets, args.seed, args.threads);
            println!("\n## Strategy ablation (m = {m}, implicit, EDF-VD)\n");
            println!("{}", render_ablation("strategy", rows));
        }
        let m = args.m_values.first().copied().unwrap_or(2);
        eprintln!("[mcexp] AMC ablation m={m} ...");
        let rows = amc_ablation(m, args.sets, args.seed, args.threads);
        println!("\n## AMC variant ablation (m = {m}, constrained)\n");
        println!("{}", render_ablation("AMC variant", rows));

        eprintln!(
            "[mcexp] admission-layer profile m={m} sets={} ...",
            args.sets
        );
        let rows = admission_profile(m, args.sets, args.seed, &perf_lineup());
        println!("\n## Admission-layer profile (m = {m}, seeded corpus)\n");
        println!("{}", render_admission(&rows));
    }

    if args.isolation || args.all {
        did_something = true;
        let sets = args.sets.min(MAX_ISOLATION_SETS);
        if sets < args.sets {
            eprintln!(
                "[mcexp] isolation: clamping --sets {} to {MAX_ISOLATION_SETS} \
                 (simulation cost; see MAX_ISOLATION_SETS)",
                args.sets
            );
        }
        for &m in &args.m_values {
            eprintln!("[mcexp] isolation experiment m={m} sets={sets} ...");
            let r = isolation_experiment(m, sets, args.seed, 0.25, 20_000, args.threads);
            println!("\n## Mode-switch isolation (m = {m}, 25% overruns)\n");
            println!("{}", render_isolation(&r));
        }
    }

    if args.analysis {
        did_something = true;
        eprintln!(
            "[mcexp] analysis throughput m={:?} sets={} ...",
            args.m_values, args.sets
        );
        let report = analysis_throughput(&args.m_values, args.sets, args.seed);
        println!("\n## Analysis throughput (reference vs workspace)\n");
        println!("{}", render_analysis_perf(&report));
        if let Some(path) = &args.json {
            match write_analysis_json(&report, path) {
                Ok(()) => eprintln!("[mcexp] wrote {}", path.display()),
                Err(e) => {
                    eprintln!("[mcexp] failed to write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        // Gates are checked after the artifact is written, so a failing
        // run still uploads the report that explains the failure.
        if !args.gates.is_empty() {
            let failures = check_gates(&report, &args.gates);
            for f in &failures {
                eprintln!("[mcexp] GATE FAILED: {f}");
            }
            if !failures.is_empty() {
                std::process::exit(1);
            }
            eprintln!("[mcexp] all {} speedup gate(s) passed", args.gates.len());
        }
    }

    if !did_something {
        println!("{HELP}");
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn argv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn subcommands_parse() {
        assert!(parse_args(&argv(&["sweep", "--fig", "3"]))
            .unwrap()
            .fig
            .is_some());
        assert!(parse_args(&argv(&["serve"])).unwrap().serve);
        assert!(parse_args(&argv(&["eval"])).unwrap().eval);
        assert!(parse_args(&argv(&["help"])).unwrap().help);
        assert!(parse_args(&argv(&["analysis", "--help"])).unwrap().help);
    }

    #[test]
    fn unknown_subcommand_and_flag_are_usage_errors() {
        for unknown in ["frobnicate", "perf", "lint"] {
            assert!(parse_args(&argv(&[unknown])).is_err(), "{unknown}");
        }
        assert!(parse_args(&argv(&["sweep", "--frob"])).is_err());
        assert!(parse_args(&argv(&["--sets"])).is_err(), "missing value");
        assert!(
            parse_args(&argv(&["--sets", "abc"])).is_err(),
            "non-numeric"
        );
    }

    #[test]
    fn old_flag_spellings_are_usage_errors() {
        for old in [
            &["--fig", "3"][..],
            &["--headline"],
            &["--ablation"],
            &["--isolation"],
            &["--all"],
            &["--perf-json", "p.json"],
            &["--analysis-json", "a.json"],
        ] {
            let err = parse_args(&argv(old)).expect_err("leading flag");
            assert!(err.contains("sweep") && err.contains("analysis"), "{err}");
            // Behind a subcommand the old spellings are unknown flags.
            let mut behind = vec!["analysis"];
            behind.extend_from_slice(old);
            assert!(parse_args(&argv(&behind)).is_err(), "{behind:?}");
        }
        assert!(parse_args(&argv(&["all", "--fig", "3"])).is_err());
        assert!(parse_args(&argv(&["--help"])).unwrap().help);
    }

    #[test]
    fn nonsense_values_are_rejected_at_parse_time() {
        assert!(parse_args(&argv(&["sweep", "--fig", "3", "--threads", "0"])).is_err());
        assert!(parse_args(&argv(&["sweep", "--fig", "3", "--sets", "0"])).is_err());
        assert!(parse_args(&argv(&["sweep", "--fig", "3", "--m", "2,0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--workers", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--queue", "0"])).is_err());
        assert!(parse_args(&argv(&["bench-service", "--pipeline", "0"])).is_err());
        assert!(parse_args(&argv(&["bench-service", "--burst", "0"])).is_err());
    }

    #[test]
    fn chaos_and_durability_flags_parse() {
        let a = parse_args(&argv(&[
            "chaos", "--seeds", "8", "--steps", "40", "--out", "c.json",
        ]))
        .unwrap();
        assert!(a.chaos);
        assert_eq!(a.seeds, Some(8));
        assert_eq!(a.steps, Some(40));
        assert!(a.out.is_some());
        assert!(parse_args(&argv(&["chaos", "--seeds", "0"])).is_err());
        assert!(parse_args(&argv(&["chaos", "--steps", "0"])).is_err());

        let a = parse_args(&argv(&["serve", "--journal", "j.jsonl", "--recover"])).unwrap();
        assert_eq!(a.journal.as_deref(), Some(std::path::Path::new("j.jsonl")));
        assert!(a.recover);
        assert!(
            parse_args(&argv(&["serve", "--recover"])).is_err(),
            "--recover without --journal is a usage error"
        );

        let a = parse_args(&argv(&[
            "bench-service",
            "--retries",
            "3",
            "--backoff-ms",
            "10",
            "--gate-speedup",
            "2.0",
        ]))
        .unwrap();
        assert_eq!(a.retries, Some(3));
        assert_eq!(a.backoff_ms, Some(10));
        assert_eq!(a.gate_speedup, Some(2.0));
        assert!(parse_args(&argv(&["bench-service", "--gate-speedup", "0"])).is_err());
        assert!(
            parse_args(&argv(&[
                "bench-service",
                "--addr",
                "127.0.0.1:7070",
                "--journal",
                "j.jsonl"
            ]))
            .is_err(),
            "an external server owns its own journal"
        );
    }

    #[test]
    fn serve_addr_is_validated_at_parse_time() {
        assert!(parse_args(&argv(&["serve", "--addr", "garbage"])).is_err());
        assert!(parse_args(&argv(&["serve", "--addr", "127.0.0.1"])).is_err());
        let ok = parse_args(&argv(&["serve", "--addr", "127.0.0.1:0"])).unwrap();
        assert_eq!(ok.addr.as_deref(), Some("127.0.0.1:0"));
    }
}
