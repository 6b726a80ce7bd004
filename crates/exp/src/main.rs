//! `mcexp` — regenerate the figures of the DATE 2017 UDP partitioning
//! paper and serve admission control (`eval` over stdin/stdout or files,
//! `serve` over TCP). Each subcommand takes only its own flags; a flag
//! before the subcommand (other than `--help`) or one the subcommand does
//! not read is a usage error (exit 2).
//!
//! ```text
//! mcexp sweep --fig 3|4|5 [--m 2,4,8] [--sets N] [--seed S] [--threads T] [--out DIR]
//! mcexp sweep --fig 6a|6b [--sets N] [--seed S] [--threads T]
//! mcexp headline [--sets N] [--seed S] [--threads T]
//! mcexp ablation|isolation [--m 2,4,8] [--sets N] [--seed S] [--threads T]
//! mcexp all [--m 2,4,8] [--sets N] [--seed S] [--threads T] [--out DIR]
//! mcexp analysis [--m 2,4,8] [--sets N] [--seed S] [--json FILE] [--gate TEST:MIN]...
//! mcexp eval [--input FILE] [--output FILE]
//! mcexp serve [--addr H:P] [--workers N] [--queue N] [--idle-secs S]
//!             [--max-requests N] [--allow-shutdown] [--journal FILE] [--recover]
//! mcexp bench-service [--addr H:P] [--algorithm NAME] [--m M] [--sets N] [--seed S]
//!                     [--pipeline K] [--burst N] [--out FILE] [--shutdown]
//!                     [--retries N] [--backoff-ms MS] [--journal FILE]
//!                     [--gate-speedup X]
//! ```
//!
//! Experiment defaults: `--m 2,4,8`, `--sets 200` per utilization bucket
//! (the paper uses 1000), `--seed 42`, `--threads` = available parallelism.

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
use mcsched_exp::figures::{self, render_war_table, FIGURE_M};
use mcsched_exp::headline::{headlines, render_headlines};
use mcsched_exp::isolation::{isolation_experiment, render_isolation};
use mcsched_exp::report::{render_table, write_csv};
use mcsched_exp::sweep::default_threads;
use mcsched_exp::SweepResult;
use mcsched_service::server::{serve_connection, Server, ServerConfig};
use std::fmt::Display;
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

/// Ceiling on the isolation experiment's workload count: each workload
/// runs two discrete-event simulations over a 20k-tick horizon, orders of
/// magnitude more per set than a sweep. A larger `--sets` is clamped, with
/// a warning on stderr.
const MAX_ISOLATION_SETS: usize = 100;

/// One parsed invocation: the subcommand and the value its mode runs with.
#[derive(Debug)]
enum Command {
    Help,
    /// The `--fig` value (`3`, `4`, `5`, `6a` or `6b`) and the options.
    Sweep(&'static str, ExpOptions),
    Headline(ExpOptions),
    Ablation(ExpOptions),
    Isolation(ExpOptions),
    All(ExpOptions),
    /// With the `--json` artifact path and the `--gate`s.
    Analysis(ExpOptions, Option<PathBuf>, Vec<(String, f64)>),
    /// `--input` and `--output`.
    Eval(Option<PathBuf>, Option<PathBuf>),
    Serve(ServerConfig),
    /// With the `--out` artifact path and the `--gate-speedup`.
    BenchService(ServiceBenchConfig, Option<PathBuf>, Option<f64>),
}

/// What the experiment subcommands (`sweep` … `analysis`) run with.
#[derive(Debug, PartialEq)]
struct ExpOptions {
    /// Processor counts, one run each.
    m: Vec<usize>,
    /// Task sets per utilization bucket.
    sets: usize,
    seed: u64,
    threads: usize,
    /// Directory for the per-panel CSVs of Figs 3–5.
    out: Option<PathBuf>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            m: FIGURE_M.to_vec(),
            sets: 200,
            seed: 42,
            threads: default_threads(),
            out: None,
        }
    }
}

/// The `--fig` values: Figs 3–5 run one acceptance sweep per `--m`, Fig 6
/// a WAR plot over its own m ∈ {2, 4}.
const FIGURES: [&str; 5] = ["3", "4", "5", "6a", "6b"];

/// The flags after the subcommand, read one at a time.
struct Flags<'a> {
    cmd: &'a str,
    rest: std::slice::Iter<'a, String>,
    /// The flag being read.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Moves to the next flag; `None` after the last.
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value.
    fn value(&mut self) -> Result<&'a str, String> {
        match self.rest.next() {
            Some(value) => Ok(value),
            None => Err(format!("missing value after {}", self.flag)),
        }
    }

    /// The current flag's value as a path, for an optional path field.
    fn path(&mut self) -> Result<Option<PathBuf>, String> {
        self.value().map(|v| Some(v.into()))
    }

    /// The current flag's value as a number.
    fn num<T: FromStr<Err: Display>>(&mut self) -> Result<T, String> {
        let (flag, value) = (self.flag, self.value()?);
        value.parse().map_err(|e| format!("bad {flag}: {e}"))
    }

    /// As [`Flags::num`], for a count that must be at least 1.
    fn count<T: FromStr<Err: Display> + Default + PartialEq>(&mut self) -> Result<T, String> {
        let n = self.num()?;
        if n == T::default() {
            return Err(format!("{} must be at least 1", self.flag));
        }
        Ok(n)
    }

    /// A comma-separated `--m` list of processor counts.
    fn m_list(&mut self) -> Result<Vec<usize>, String> {
        let m: Vec<usize> = self
            .value()?
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad --m list: {e}"))?;
        if m.contains(&0) {
            return Err("--m values must be at least 1".to_owned());
        }
        Ok(m)
    }

    /// A `--addr`, resolved now so a bad address is a usage error rather
    /// than a bind or connect failure later.
    fn addr(&mut self) -> Result<String, String> {
        use std::net::ToSocketAddrs;
        let addr = self.value()?;
        match addr.to_socket_addrs().map(|mut resolved| resolved.next()) {
            Ok(Some(_)) => Ok(addr.to_owned()),
            Ok(None) => Err(format!("bad --addr `{addr}`: resolves to no address")),
            Err(e) => Err(format!("bad --addr `{addr}`: {e}")),
        }
    }

    /// The usage error for a flag this subcommand does not take.
    fn unknown(&self) -> String {
        format!("unknown argument `{}` for `mcexp {}`", self.flag, self.cmd)
    }
}

/// Parses `mcexp <subcommand> [flags]`. Bare `mcexp`, `mcexp help`, and
/// `--help`/`-h` anywhere after the subcommand are help.
fn parse_command(argv: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(Command::Help);
    };
    if cmd == "help" || argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    let flags = &mut Flags {
        cmd,
        rest: rest.iter(),
        flag: "",
    };
    match flags.cmd {
        "sweep" | "headline" | "ablation" | "isolation" | "all" | "analysis" => {
            parse_experiment(flags)
        }
        "eval" => parse_eval(flags),
        "serve" => parse_serve(flags),
        "bench-service" => parse_bench_service(flags),
        flag if flag.starts_with('-') => Err(format!(
            "`{flag}` before a subcommand (expected {SUBCOMMANDS})"
        )),
        other => Err(format!(
            "unknown subcommand `{other}` (expected {SUBCOMMANDS})"
        )),
    }
}

/// Parses an experiment subcommand. Each takes `--sets` and `--seed`;
/// all but `headline` take `--m`, all but `analysis` take `--threads`,
/// `sweep` and `all` take `--out`, `sweep` takes `--fig`, and `analysis`
/// takes `--json` and `--gate`.
fn parse_experiment(flags: &mut Flags) -> Result<Command, String> {
    let (mut opts, mut fig, mut json, mut gates) = (ExpOptions::default(), None, None, vec![]);
    let mut panel_flag = None;
    while let Some(flag) = flags.next() {
        match (flags.cmd, flag) {
            (_, "--sets") => opts.sets = flags.count()?,
            (_, "--seed") => opts.seed = flags.num()?,
            (cmd, "--m") if cmd != "headline" => {
                opts.m = flags.m_list()?;
                panel_flag = Some(flag);
            }
            (cmd, "--threads") if cmd != "analysis" => opts.threads = flags.count()?,
            ("sweep" | "all", "--out") => {
                opts.out = flags.path()?;
                panel_flag = Some(flag);
            }
            ("sweep", "--fig") => fig = Some(flags.value()?),
            ("analysis", "--json") => json = flags.path()?,
            ("analysis", "--gate") => gates.push(parse_gate(flags.value()?)?),
            _ => return Err(flags.unknown()),
        }
    }
    Ok(match flags.cmd {
        "sweep" => {
            let fig = fig.ok_or("`mcexp sweep` needs --fig 3|4|5|6a|6b")?;
            let Some(fig) = FIGURES.into_iter().find(|f| *f == fig) else {
                return Err(format!("unknown figure `{fig}` (expected 3, 4, 5, 6a, 6b)"));
            };
            if let (Some(flag), "6a" | "6b") = (panel_flag, fig) {
                let why = "Fig 6 runs m = 2 and 4 and writes no CSV";
                return Err(format!("`mcexp sweep --fig {fig}` takes no {flag}: {why}"));
            }
            Command::Sweep(fig, opts)
        }
        "headline" => Command::Headline(opts),
        "ablation" => Command::Ablation(opts),
        "isolation" => Command::Isolation(opts),
        "all" => Command::All(opts),
        _ => Command::Analysis(opts, json, gates),
    })
}

fn parse_eval(flags: &mut Flags) -> Result<Command, String> {
    let (mut input, mut output) = (None, None);
    while let Some(flag) = flags.next() {
        match flag {
            "--input" => input = flags.path()?,
            "--output" => output = flags.path()?,
            _ => return Err(flags.unknown()),
        }
    }
    Ok(Command::Eval(input, output))
}

fn parse_serve(flags: &mut Flags) -> Result<Command, String> {
    let mut config = ServerConfig::default();
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => config.addr = flags.addr()?,
            "--workers" => config.workers = flags.count()?,
            "--queue" => config.queue_depth = flags.count()?,
            "--idle-secs" => {
                let secs = flags.num()?;
                config.idle_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--max-requests" => config.max_requests = flags.num()?,
            "--allow-shutdown" => config.allow_shutdown = true,
            "--journal" => config.journal = flags.path()?,
            "--recover" => config.recover = true,
            _ => return Err(flags.unknown()),
        }
    }
    if config.recover && config.journal.is_none() {
        return Err("--recover needs --journal FILE to recover from".to_owned());
    }
    Ok(Command::Serve(config))
}

fn parse_bench_service(flags: &mut Flags) -> Result<Command, String> {
    let (mut config, mut out, mut gate_speedup) = (ServiceBenchConfig::default(), None, None);
    while let Some(flag) = flags.next() {
        match flag {
            "--addr" => config.addr = Some(flags.addr()?),
            "--algorithm" => config.algorithm = flags.value()?.to_owned(),
            "--m" => config.m = flags.count()?,
            "--sets" => config.sets = flags.count()?,
            "--seed" => config.seed = flags.num()?,
            "--pipeline" => config.pipeline = flags.count()?,
            "--burst" => config.burst = flags.num()?,
            "--out" => out = flags.path()?,
            "--shutdown" => config.shutdown_after = true,
            "--retries" => config.retries = flags.num()?,
            "--backoff-ms" => config.backoff_ms = flags.num()?,
            "--journal" => config.journal = flags.path()?,
            "--gate-speedup" => {
                let gate: f64 = flags.num()?;
                if !gate.is_finite() || gate <= 0.0 {
                    return Err("--gate-speedup must be a positive number".to_owned());
                }
                gate_speedup = Some(gate);
            }
            _ => return Err(flags.unknown()),
        }
    }
    if config.journal.is_some() && config.addr.is_some() {
        let why = "an external server (--addr) owns its own journal";
        return Err(format!("--journal needs the in-process server: {why}"));
    }
    Ok(Command::BenchService(config, out, gate_speedup))
}

/// The subcommand names, for usage errors.
const SUBCOMMANDS: &str = "sweep, headline, ablation, isolation, all, analysis, eval, serve, \
                           or bench-service";

const HELP: &str = r#"mcexp — the DATE 2017 UDP partitioning experiment driver
usage: mcexp <subcommand> [options]; each subcommand takes only its own options

  sweep --fig 3|4|5 [--m 2,4,8] [--sets N] [--seed S] [--threads T] [--out DIR]
  sweep --fig 6a|6b [--sets N] [--seed S] [--threads T]
        acceptance-ratio sweeps (figures of §IV); --out writes one CSV per
        panel; Fig 6 runs its own m = 2 and 4
  headline [--sets N] [--seed S] [--threads T]
        the paper's headline improvement numbers
  ablation [--m 2,4,8] [--sets N] [--seed S] [--threads T]
        strategy/AMC ablations + admission profile
  isolation [--m 2,4,8] [--sets N] [--seed S] [--threads T]
        mode-switch isolation simulation (at most 100 sets)
  all [--m 2,4,8] [--sets N] [--seed S] [--threads T] [--out DIR]
        every figure, headline, ablation, isolation
  analysis [--m 2,4,8] [--sets N] [--seed S] [--json FILE] [--gate TEST:MIN ...]
        per-test throughput artifact (BENCH_analysis.json); each --gate fails
        the run (exit 1) if TEST's speedup over the reference pass drops
        below MIN at any measured m (e.g. --gate AMC-rtb:1.5)
  (experiment defaults: --m 2,4,8, --sets 200 per utilization bucket — the
  paper uses 1000 —, --seed 42, --threads = available parallelism)

  eval [--input FILE] [--output FILE]
        one server connection over stdin/stdout (see below)
  serve [--addr H:P] [--workers N] [--queue N] [--idle-secs S]
        [--max-requests N] [--allow-shutdown] [--journal FILE] [--recover]
        persistent admission-control server (JSONL/TCP); --journal makes
        named sessions durable, --recover replays the journal on startup
  bench-service [--addr H:P] [--algorithm NAME] [--m M] [--sets N] [--seed S]
        [--pipeline K] [--burst N] [--out FILE] [--shutdown] [--retries N]
        [--backoff-ms MS] [--journal FILE] [--gate-speedup X]
        cold vs warm service benchmark (BENCH_service.json; m = 4, 40 sets
        by default); --retries bounds connect/shed retry-with-backoff, and
        the run fails (exit 1) if the warm/cold speedup is below X

eval serves one protocol-v1 connection with no frame size cap and no
timeout, and exits 1 on a read or write failure; serve speaks the same
lines plus session verbs (open_session, admit, remove, query, close; see
README.md § Service). A request names any registered "<strategy>-<test>"
algorithm (an unknown name is answered with every registered name), and
the verdict carries the partition witness (task ids per processor):

  {"algorithm":"CU-UDP-EDF-VD","m":2,"tasks":[{"id":0,"period":10,"criticality":"HI","wcet_lo":2,"wcet_hi":4},{"id":1,"period":20,"wcet_lo":6}]}
  {"type":"eval","v":1,"algorithm":"CU-UDP-EDF-VD","m":2,"schedulable":true,"partition":[[0],[1]],"rejected_task":null,"detail":null}"#;

/// Runs one figure; `false` when a panel CSV could not be written.
fn run_figure(fig: &str, opts: &ExpOptions) -> bool {
    let (label, sets, seed, threads) = (format!("Fig{fig}"), opts.sets, opts.seed, opts.threads);
    let panel: fn(usize, usize, u64, usize) -> SweepResult = match fig {
        "3" => figures::fig3_panel,
        "4" => figures::fig4_panel,
        "5" => figures::fig5_panel,
        _ => {
            eprintln!("[mcexp] {label} sets/bucket={sets} ...");
            let (points, title) = if fig == "6a" {
                (figures::fig6a(sets, seed, threads), "implicit, EDF-VD")
            } else {
                (figures::fig6b(sets, seed, threads), "constrained, AMC/ECDF")
            };
            println!("\n## {label} (WAR vs P_H, {title})\n");
            println!("{}", render_war_table(&points));
            return true;
        }
    };
    let mut written = true;
    for &m in &opts.m {
        eprintln!("[mcexp] {label} m={m} sets/bucket={sets} ...");
        let result = panel(m, sets, seed, threads);
        println!("\n## {label} (m = {m})\n");
        println!("{}", render_table(&result));
        if let Some(dir) = &opts.out {
            let path = dir.join(format!("fig{fig}_m{m}.csv"));
            written &= wrote(&path, write_csv(&result, &path));
        }
    }
    written
}

/// Reports an artifact write on stderr; `false` when it failed.
fn wrote(path: &Path, result: io::Result<()>) -> bool {
    match &result {
        Ok(()) => eprintln!("[mcexp] wrote {}", path.display()),
        Err(e) => eprintln!("[mcexp] failed to write {}: {e}", path.display()),
    }
    result.is_ok()
}

/// Creates the CSV directory once up front (exit 1 if it cannot be).
fn create_out_dir(opts: &ExpOptions) {
    if let Some(dir) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create --out {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

fn run_headline(opts: &ExpOptions) {
    eprintln!("[mcexp] headline numbers (sets/bucket={}) ...", opts.sets);
    let hs = headlines(opts.sets, opts.seed, opts.threads);
    println!("\n## Headline improvements (paper §IV)\n");
    println!("{}", render_headlines(&hs));
}

fn run_ablation(opts: &ExpOptions) {
    let (sets, seed, threads) = (opts.sets, opts.seed, opts.threads);
    for &m in &opts.m {
        eprintln!("[mcexp] strategy ablation m={m} ...");
        let rows = strategy_ablation(m, sets, seed, threads);
        println!("\n## Strategy ablation (m = {m}, implicit, EDF-VD)\n");
        println!("{}", render_ablation("strategy", rows));
    }
    let m = opts.m[0];
    eprintln!("[mcexp] AMC ablation m={m} ...");
    let rows = amc_ablation(m, sets, seed, threads);
    println!("\n## AMC variant ablation (m = {m}, constrained)\n");
    println!("{}", render_ablation("AMC variant", rows));

    eprintln!("[mcexp] admission-layer profile m={m} sets={sets} ...");
    let rows = admission_profile(m, sets, seed, &perf_lineup());
    println!("\n## Admission-layer profile (m = {m}, seeded corpus)\n");
    println!("{}", render_admission(&rows));
}

fn run_isolation(opts: &ExpOptions) {
    let sets = opts.sets.min(MAX_ISOLATION_SETS);
    if sets < opts.sets {
        let why = "simulation cost; see MAX_ISOLATION_SETS";
        eprintln!(
            "[mcexp] isolation: clamping --sets {} to {sets} ({why})",
            opts.sets
        );
    }
    for &m in &opts.m {
        eprintln!("[mcexp] isolation experiment m={m} sets={sets} ...");
        let r = isolation_experiment(m, sets, opts.seed, 0.25, 20_000, opts.threads);
        println!("\n## Mode-switch isolation (m = {m}, 25% overruns)\n");
        println!("{}", render_isolation(&r));
    }
}

/// Runs `mcexp analysis`; returns the exit code (1 when the artifact
/// cannot be written or a gate fails).
fn run_analysis(opts: &ExpOptions, json: &Option<PathBuf>, gates: &[(String, f64)]) -> i32 {
    let (m, sets) = (&opts.m, opts.sets);
    eprintln!("[mcexp] analysis throughput m={m:?} sets={sets} ...");
    let report = analysis_throughput(m, sets, opts.seed);
    println!("\n## Analysis throughput (reference vs workspace)\n");
    println!("{}", render_analysis_perf(&report));
    if let Some(path) = json {
        if !wrote(path, write_analysis_json(&report, path)) {
            return 1;
        }
    }
    // Gates are checked after the artifact is written, so a failing
    // run still uploads the report that explains the failure.
    let failures = check_gates(&report, gates);
    for f in &failures {
        eprintln!("[mcexp] GATE FAILED: {f}");
    }
    if failures.is_empty() && !gates.is_empty() {
        eprintln!("[mcexp] all {} speedup gate(s) passed", gates.len());
    }
    i32::from(!failures.is_empty())
}

/// Runs `mcexp eval`: one server connection over the input and output
/// streams, with no frame cap, request cap or timeout (a batch file is
/// neither a slow nor a hostile peer).
fn run_eval(input: &Option<PathBuf>, output: &Option<PathBuf>) -> io::Result<i32> {
    let input: Box<dyn Read> = match input {
        Some(path) => Box::new(std::fs::File::open(path)?),
        None => Box::new(io::stdin().lock()),
    };
    let output: Box<dyn Write> = match output {
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
    let stats = serve_connection(
        &AlgorithmRegistry::standard(),
        &config,
        &mut input,
        &mut output,
    );
    let _ = output.flush();
    if let Some(e) = input.1.or(output.1) {
        return Err(e);
    }
    let (requests, errors) = (stats.requests, stats.errors);
    eprintln!("[mcexp] eval: {requests} request(s), {errors} error verdict(s)");
    Ok(0)
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
fn run_serve(config: ServerConfig) -> io::Result<i32> {
    let server = Server::bind(AlgorithmRegistry::standard(), config.clone())?;
    if let (Some(journal), Some(path)) = (server.journal(), &config.journal) {
        let (path, stats) = (path.display(), journal.stats());
        eprintln!(
            "[mcexp] journal: {path} ({} session op(s) recovered, {} torn record(s) skipped)",
            stats.recovered, stats.skipped
        );
    }
    let shutdown = if config.allow_shutdown {
        "in-band"
    } else {
        "signal-only"
    };
    eprintln!(
        "[mcexp] serving protocol v1 on {} ({} worker(s) + {} overflow, queue {}, shutdown {shutdown})",
        server.local_addr(),
        config.workers,
        config.degraded_workers,
        config.queue_depth
    );
    let stats = server.run()?;
    eprintln!(
        "[mcexp] server stopped: {} connection(s), {} request(s), {} error(s), {} spilled, {} shed",
        stats.connections,
        stats.requests,
        stats.errors,
        stats.degraded_connections,
        stats.overloads
    );
    Ok(0)
}

/// Runs `mcexp bench-service`: cold vs warm throughput/latency. Returns
/// the exit code (1 when the speedup gate fails).
fn run_bench_service(
    config: &ServiceBenchConfig,
    out: &Option<PathBuf>,
    gate_speedup: Option<f64>,
) -> io::Result<i32> {
    let target = match &config.addr {
        Some(addr) => format!("against {addr}"),
        None => "in-process server".to_owned(),
    };
    eprintln!(
        "[mcexp] service bench: {} m={} sets={} pipeline={} burst={} ({target})",
        config.algorithm, config.m, config.sets, config.pipeline, config.burst
    );
    let report = run_service_bench(config)?;
    println!("{}", render_service_bench(&report));
    if let Some(path) = out {
        write_service_json(&report, path)?;
        eprintln!("[mcexp] wrote {}", path.display());
    }
    // Gate after the artifact is written, so a failing run still ships
    // the report that explains it.
    let speedup = report.speedup;
    match gate_speedup {
        Some(gate) if speedup < gate => {
            eprintln!("[mcexp] GATE FAILED: warm/cold speedup {speedup:.2}x < {gate}x");
            return Ok(1);
        }
        Some(gate) => eprintln!("[mcexp] speedup gate passed: {speedup:.2}x >= {gate}x"),
        None => {}
    }
    Ok(0)
}

/// Runs one subcommand; returns the exit code, or the I/O error that
/// ended a service mode.
fn run(command: Command) -> io::Result<i32> {
    match command {
        Command::Help => println!("{HELP}"),
        Command::Sweep(fig, opts) => {
            create_out_dir(&opts);
            return Ok(i32::from(!run_figure(fig, &opts)));
        }
        Command::Headline(opts) => run_headline(&opts),
        Command::Ablation(opts) => run_ablation(&opts),
        Command::Isolation(opts) => run_isolation(&opts),
        Command::All(opts) => {
            create_out_dir(&opts);
            // A CSV that cannot be written fails the run only after every
            // panel and table has been produced.
            let written = FIGURES.map(|fig| run_figure(fig, &opts));
            run_headline(&opts);
            run_ablation(&opts);
            run_isolation(&opts);
            return Ok(i32::from(written.contains(&false)));
        }
        Command::Analysis(opts, json, gates) => return Ok(run_analysis(&opts, &json, &gates)),
        Command::Eval(input, output) => return run_eval(&input, &output),
        Command::Serve(config) => return run_serve(config),
        Command::BenchService(config, out, gate) => return run_bench_service(&config, &out, gate),
    }
    Ok(0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = parse_command(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{HELP}");
        std::process::exit(2);
    });
    std::process::exit(run(command).unwrap_or_else(|e| {
        eprintln!("[mcexp] {} failed: {e}", argv[0]);
        1
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Command, String> {
        let argv: Vec<String> = args.split_whitespace().map(str::to_owned).collect();
        parse_command(&argv)
    }

    /// The configs have no `PartialEq`; their `Debug` shows every field.
    fn debug(value: impl std::fmt::Debug) -> String {
        format!("{value:?}")
    }

    /// Every experiment subcommand (`sweep` with the one flag it needs).
    const EXPERIMENTS: [&str; 6] = [
        "sweep --fig 4",
        "headline",
        "ablation",
        "isolation",
        "all",
        "analysis",
    ];

    /// The options of an experiment subcommand.
    fn exp(command: Command) -> ExpOptions {
        match command {
            Command::Sweep(_, opts)
            | Command::Headline(opts)
            | Command::Ablation(opts)
            | Command::Isolation(opts)
            | Command::All(opts)
            | Command::Analysis(opts, ..) => opts,
            other => panic!("not an experiment: {other:?}"),
        }
    }

    /// The flags each subcommand takes, as the usage text lists them.
    const TAKES: [(&str, &str); 9] = [
        ("sweep", "--fig --m --sets --seed --threads --out"),
        ("headline", "--sets --seed --threads"),
        ("ablation", "--m --sets --seed --threads"),
        ("isolation", "--m --sets --seed --threads"),
        ("all", "--m --sets --seed --threads --out"),
        ("analysis", "--m --sets --seed --json --gate"),
        ("eval", "--input --output"),
        (
            "serve",
            "--addr --workers --queue --idle-secs --max-requests --allow-shutdown --journal \
             --recover",
        ),
        (
            "bench-service",
            "--addr --algorithm --m --sets --seed --pipeline --burst --out --shutdown --retries \
             --backoff-ms --journal --gate-speedup",
        ),
    ];

    /// `flag` with a value it accepts (switches take none; `--recover`
    /// brings the journal it needs).
    fn with_value(flag: &str) -> String {
        let value = match flag {
            "--allow-shutdown" | "--shutdown" => "",
            "--recover" => "--journal j.jsonl",
            "--fig" => "5",
            "--addr" => "127.0.0.1:0",
            "--gate" => "EY:2",
            "--algorithm" => "CU-UDP-AMC",
            "--json" | "--out" | "--input" | "--output" | "--journal" => "f",
            _ => "3",
        };
        format!("{flag} {value}")
    }

    #[test]
    fn each_subcommand_takes_exactly_its_own_flags() {
        let every_flag: std::collections::BTreeSet<&str> = TAKES
            .iter()
            .flat_map(|(_, flags)| flags.split_whitespace())
            .collect();
        for (cmd, takes) in TAKES {
            let cmd_line = if cmd == "sweep" { "sweep --fig 3" } else { cmd };
            for flag in &every_flag {
                let args = format!("{cmd_line} {}", with_value(flag));
                if takes.split_whitespace().any(|f| f == *flag) {
                    parse(&args).unwrap_or_else(|e| panic!("{args}: {e}"));
                } else {
                    let err = parse(&args).expect_err(&args);
                    assert!(err.contains(&format!("`mcexp {cmd}`")), "{args}: {err}");
                }
            }
        }
    }

    /// A flag with its value, and what it must set.
    type Row<T> = (&'static str, fn(&T) -> bool);

    /// Parses `cmd flag` for each row and checks the value it runs with.
    fn fills<T: std::fmt::Debug>(cmd: &str, value: fn(Command) -> T, rows: &[Row<T>]) {
        for (flag, check) in rows {
            let args = format!("{cmd} {flag}");
            let got = value(parse(&args).unwrap_or_else(|e| panic!("{args}: {e}")));
            assert!(check(&got), "{args}: {got:?}");
        }
    }

    #[test]
    fn each_flag_fills_its_field() {
        let opts = |args: String| exp(parse(&args).unwrap_or_else(|e| panic!("{args}: {e}")));
        for cmd in EXPERIMENTS {
            let set = opts(format!("{cmd} --sets 7 --seed 9"));
            assert_eq!((set.sets, set.seed), (7, 9), "{cmd}");
            if cmd != "headline" {
                assert_eq!(opts(format!("{cmd} --m 3,5")).m, [3, 5], "{cmd}");
            }
            if cmd != "analysis" {
                assert_eq!(opts(format!("{cmd} --threads 5")).threads, 5, "{cmd}");
            }
        }
        for cmd in ["sweep --fig 4", "all"] {
            assert_eq!(opts(format!("{cmd} --out d")).out, Some("d".into()));
        }
        assert!(matches!(
            parse("sweep --fig 6b"),
            Ok(Command::Sweep("6b", _))
        ));
        let Ok(Command::Analysis(_, json, gates)) =
            parse("analysis --json a --gate EY:2 --gate EY:3")
        else {
            panic!("analysis")
        };
        assert_eq!(json, Some("a".into()));
        assert_eq!(gates, [("EY".into(), 2.0), ("EY".into(), 3.0)]);
        let Ok(Command::Eval(input, output)) = parse("eval --input i --output o") else {
            panic!("eval")
        };
        assert_eq!((input, output), (Some("i".into()), Some("o".into())));
        let serve = |c| match c {
            Command::Serve(config) => config,
            other => panic!("{other:?}"),
        };
        fills(
            "serve",
            serve,
            &[
                ("--addr 127.0.0.1:7", |s| s.addr == "127.0.0.1:7"),
                ("--workers 3", |s| s.workers == 3),
                ("--queue 5", |s| s.queue_depth == 5),
                ("--idle-secs 9", |s| {
                    s.idle_timeout == Some(Duration::from_secs(9))
                }),
                ("--idle-secs 0", |s| s.idle_timeout.is_none()),
                ("--max-requests 11", |s| s.max_requests == 11),
                ("--allow-shutdown", |s| s.allow_shutdown),
                ("--journal j --recover", |s| {
                    s.recover && s.journal == Some("j".into())
                }),
            ],
        );
        let bench = |c| match c {
            Command::BenchService(config, out, gate) => (config, out, gate),
            other => panic!("{other:?}"),
        };
        fills(
            "bench-service",
            bench,
            &[
                ("--addr 127.0.0.1:7", |(b, ..)| {
                    b.addr.as_deref() == Some("127.0.0.1:7")
                }),
                ("--algorithm CA-UDP-AMC", |(b, ..)| {
                    b.algorithm == "CA-UDP-AMC"
                }),
                ("--m 2", |(b, ..)| b.m == 2),
                ("--sets 6", |(b, ..)| b.sets == 6),
                ("--seed 8", |(b, ..)| b.seed == 8),
                ("--pipeline 4", |(b, ..)| b.pipeline == 4),
                ("--burst 3", |(b, ..)| b.burst == 3),
                ("--out b.json", |(_, out, _)| *out == Some("b.json".into())),
                ("--shutdown", |(b, ..)| b.shutdown_after),
                ("--retries 2", |(b, ..)| b.retries == 2),
                ("--backoff-ms 10", |(b, ..)| b.backoff_ms == 10),
                ("--journal j", |(b, ..)| b.journal == Some("j".into())),
                ("--gate-speedup 2.5", |(.., gate)| *gate == Some(2.5)),
            ],
        );
    }

    #[test]
    fn absent_flags_keep_the_defaults() {
        for cmd in EXPERIMENTS {
            let opts = exp(parse(cmd).unwrap());
            assert_eq!(opts, ExpOptions::default(), "{cmd}");
            assert_eq!((opts.m, opts.sets, opts.seed), (vec![2, 4, 8], 200, 42));
            assert_eq!((opts.threads, opts.out), (default_threads(), None));
        }
        assert!(matches!(parse("analysis"), Ok(Command::Analysis(_, None, g)) if g.is_empty()));
        assert!(matches!(parse("eval"), Ok(Command::Eval(None, None))));
        let Ok(Command::Serve(serve)) = parse("serve") else {
            panic!("serve")
        };
        assert_eq!(debug(serve), debug(ServerConfig::default()));
        let Ok(Command::BenchService(bench, None, None)) = parse("bench-service") else {
            panic!("bench-service")
        };
        assert_eq!((bench.m, bench.sets), (4, 40));
        assert_eq!(debug(bench), debug(ServiceBenchConfig::default()));
    }

    #[test]
    fn misplaced_flags_are_usage_errors() {
        // Each names the subcommand and what it lacks or does not take.
        for (args, needle) in [
            (
                "headline --gate EY:2 --workers 4",
                "`--gate` for `mcexp headline`",
            ),
            ("eval --seed 5 --m 3", "`--seed` for `mcexp eval`"),
            ("serve --sets 0", "`--sets` for `mcexp serve`"),
            ("sweep", "`mcexp sweep` needs --fig"),
            ("sweep --sets 1", "`mcexp sweep` needs --fig"),
            ("sweep --fig 6a --m 2", "--fig 6a` takes no --m"),
            ("sweep --m 2 --fig 6b", "--fig 6b` takes no --m"),
            ("sweep --fig 6b --out d", "--fig 6b` takes no --out"),
        ] {
            let err = parse(args).expect_err(args);
            assert!(err.contains(needle), "{args}: {err}");
        }
        // bench-service runs one cluster size: a list is a bad value.
        let err = parse("bench-service --m 2,4").expect_err("an --m list");
        assert!(err.starts_with("bad --m"), "{err}");
    }

    #[test]
    fn subcommands_parse() {
        assert!(matches!(parse("sweep --fig 3"), Ok(Command::Sweep("3", _))));
        assert!(matches!(parse("serve"), Ok(Command::Serve(_))));
        assert!(matches!(parse("eval"), Ok(Command::Eval(..))));
        assert!(matches!(parse("help"), Ok(Command::Help)));
        assert!(matches!(parse("analysis --help"), Ok(Command::Help)));
        assert!(matches!(parse(""), Ok(Command::Help)));
    }

    #[test]
    fn unknown_subcommand_and_flag_are_usage_errors() {
        for unknown in ["frobnicate", "perf", "lint", "chaos"] {
            assert!(parse(unknown).is_err(), "{unknown}");
        }
        assert!(parse("sweep --fig 3 --frob").is_err());
        assert!(parse("sweep --frob").is_err());
        assert!(parse("--sets").is_err(), "missing value");
        assert!(parse("--sets abc").is_err(), "non-numeric");
        assert!(parse("sweep --fig").is_err(), "missing value");
        assert!(parse("sweep --fig 3 --sets abc").is_err(), "non-numeric");
        assert!(parse("sweep --fig 99").is_err(), "unknown figure");
    }

    #[test]
    fn old_flag_spellings_are_usage_errors() {
        for old in [
            "--fig 3",
            "--headline",
            "--ablation",
            "--isolation",
            "--all",
            "--perf-json p.json",
            "--analysis-json a.json",
        ] {
            let err = parse(old).expect_err("leading flag");
            assert!(err.contains("sweep") && err.contains("analysis"), "{err}");
            // Behind a subcommand the old spellings are unknown flags.
            let behind = format!("analysis {old}");
            assert!(parse(&behind).is_err(), "{behind}");
        }
        assert!(parse("all --fig 3").is_err());
        assert!(matches!(parse("--help"), Ok(Command::Help)));
    }

    #[test]
    fn nonsense_values_are_rejected_at_parse_time() {
        for args in [
            "sweep --fig 3 --threads 0",
            "sweep --fig 3 --sets 0",
            "sweep --fig 3 --m 2,0",
            "serve --workers 0",
            "serve --queue 0",
            "bench-service --pipeline 0",
            "bench-service --burst many",
            "bench-service --m 0",
            "bench-service --sets 0",
        ] {
            assert!(parse(args).is_err(), "{args}");
        }
        // A zero burst skips the overload phase; it is not a usage error.
        let Ok(Command::BenchService(config, ..)) = parse("bench-service --burst 0") else {
            panic!("bench-service --burst 0")
        };
        assert_eq!(config.burst, 0);
    }

    #[test]
    fn chaos_and_durability_flags_parse() {
        // The chaos soak runs as the `mcsched-service` test `chaos`, not a subcommand.
        assert!(parse("chaos --seeds 8 --steps 40 --out c.json").is_err());

        let Ok(Command::Serve(config)) = parse("serve --journal j.jsonl --recover") else {
            panic!("serve")
        };
        assert_eq!(config.journal.as_deref(), Some(Path::new("j.jsonl")));
        assert!(config.recover);
        assert!(
            parse("serve --recover").is_err(),
            "--recover without --journal is a usage error"
        );

        let args = "bench-service --retries 3 --backoff-ms 10 --gate-speedup 2.0";
        let Ok(Command::BenchService(config, _, gate)) = parse(args) else {
            panic!("bench-service")
        };
        assert_eq!(
            (config.retries, config.backoff_ms, gate),
            (3, 10, Some(2.0))
        );
        assert!(parse("bench-service --gate-speedup 0").is_err());
        assert!(
            parse("bench-service --addr 127.0.0.1:7070 --journal j.jsonl").is_err(),
            "an external server owns its own journal"
        );
    }

    #[test]
    fn serve_addr_is_validated_at_parse_time() {
        assert!(parse("serve --addr garbage").is_err());
        assert!(parse("serve --addr 127.0.0.1").is_err());
        let Ok(Command::Serve(config)) = parse("serve --addr 127.0.0.1:0") else {
            panic!("serve")
        };
        assert_eq!(config.addr, "127.0.0.1:0");
    }
}
