//! Service-level throughput/latency benchmark: the `BENCH_service.json`
//! artifact CI uploads to track the admission-control server.
//!
//! The workload replays online task arrivals against a live server, two
//! ways, over one pipelined connection:
//!
//! * **cold** — the stateless path: every arrival re-evaluates the whole
//!   prefix with an `eval` request (a from-scratch partition of all
//!   tasks seen so far — what a client must do without sessions);
//! * **warm** — the session path: `open_session` once per task set, then
//!   one `admit` per arrival against the persistent cluster (incremental
//!   verdicts on warm per-processor analysis state).
//!
//! Both phases pipeline the same number of in-flight requests, so the
//! comparison isolates the analysis cost, not protocol round-trips.
//! The headline number is `speedup` — warm decisions/sec over cold
//! decisions/sec; the service exists because this is large.
//!
//! An optional **overload burst** opens more simultaneous connections
//! than the server's pool + queue can hold and counts the typed
//! `{"type": "overload"}` sheds — exercising backpressure end to end.
//!
//! With [`ServiceBenchConfig::retries`] set, the benchmark client
//! retries refused connects and shed (overload-replied) phase
//! connections with linear backoff, and the warm phase switches to
//! *named* sessions with `op_id`-tagged admits — so a retried phase
//! replays committed operations idempotently instead of double-applying
//! them on a journaled server. [`ServiceBenchConfig::journal`] turns the
//! same durable workload on for the in-process server.

use mcsched_core::AlgorithmRegistry;
use mcsched_gen::{seeded_corpus, uniprocessor_spec};
use mcsched_service::protocol::{parse_reply, Envelope, EvalRequest, Reply, Request, RequestId};
use mcsched_service::server::{Server, ServerConfig};
use netframe::{write_frame, FrameReader};
use serde::Serialize;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// What to run and where (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ServiceBenchConfig {
    /// Server to benchmark; `None` starts an in-process server on a
    /// loopback port (workers 2, queue depth 2 — small enough that the
    /// burst phase sheds deterministically).
    pub addr: Option<String>,
    /// Algorithm for both phases.
    pub algorithm: String,
    /// Cluster size for sessions and `eval` requests.
    pub m: usize,
    /// Task sets replayed (each contributes `n ∈ [m+1, 5m]` arrivals).
    pub sets: usize,
    /// Corpus seed.
    pub seed: u64,
    /// Requests kept in flight on the benchmark connection.
    pub pipeline: usize,
    /// Connections to open in the overload burst (0 skips the phase).
    pub burst: usize,
    /// Finish by asking the server to shut down (in-band `shutdown` for
    /// an external server, the handle for an in-process one).
    pub shutdown_after: bool,
    /// Bounded retries on refused connects and shed phase connections
    /// (`0` fails fast). Any positive value also switches the warm
    /// phase to named sessions with idempotent `op_id` admits.
    pub retries: usize,
    /// Linear backoff between retries: attempt `k` sleeps `k *
    /// backoff_ms` milliseconds first.
    pub backoff_ms: u64,
    /// Journal path for the in-process server (ignored with an external
    /// [`ServiceBenchConfig::addr`] — the external server owns its
    /// journal). Implies named sessions + `op_id` admits, like
    /// [`ServiceBenchConfig::retries`].
    pub journal: Option<std::path::PathBuf>,
}

impl Default for ServiceBenchConfig {
    fn default() -> Self {
        ServiceBenchConfig {
            addr: None,
            algorithm: "CU-UDP-ECDF".to_owned(),
            m: 4,
            sets: 40,
            seed: 42,
            pipeline: 32,
            burst: 8,
            shutdown_after: false,
            retries: 0,
            backoff_ms: 50,
            journal: None,
        }
    }
}

/// Latency/throughput totals for one phase.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseStats {
    /// Requests sent (warm includes one `open_session` per set).
    pub requests: usize,
    /// Positive verdicts (schedulable evals / admitted tasks).
    pub accepted: usize,
    /// Wall-clock for the whole phase, in milliseconds.
    pub elapsed_ms: f64,
    /// Requests per second over the phase.
    pub throughput_rps: f64,
    /// Median request latency (send to reply, pipelined), microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
}

/// Outcome of the overload burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct OverloadStats {
    /// Connections opened in the burst.
    pub connections: usize,
    /// Connections shed with a typed overload reply.
    pub overloads: usize,
}

/// The full service benchmark (serialized to `BENCH_service.json`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceBenchReport {
    /// Algorithm benchmarked.
    pub algorithm: String,
    /// Cluster size.
    pub m: usize,
    /// Task sets replayed.
    pub sets: usize,
    /// Corpus seed.
    pub seed: u64,
    /// Total arrivals (admission decisions) per phase.
    pub arrivals: usize,
    /// In-flight request window.
    pub pipeline: usize,
    /// The stateless per-arrival re-evaluation phase.
    pub cold: PhaseStats,
    /// The session phase.
    pub warm: PhaseStats,
    /// Warm decisions/sec over cold decisions/sec
    /// (= cold elapsed / warm elapsed; both phases decide `arrivals`
    /// admissions).
    pub speedup: f64,
    /// The backpressure burst, when run.
    pub overload: Option<OverloadStats>,
    /// Connect/shed retries the client spent across both phases.
    pub retries_used: usize,
}

/// A pipelining JSONL client over one TCP connection.
struct Client {
    writer: TcpStream,
    frames: FrameReader<BufReader<TcpStream>>,
    next_id: u64,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            frames: FrameReader::new(reader, 1 << 20),
            next_id: 0,
        })
    }

    /// Sends one request with a fresh numeric id; returns the id.
    fn send(&mut self, request: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let line = Envelope::with_id(RequestId::Num(id), request.clone()).render();
        write_frame(&mut self.writer, &line)?;
        Ok(id)
    }

    /// Receives the next reply.
    fn recv(&mut self) -> io::Result<(Option<RequestId>, Reply)> {
        let line = self
            .frames
            .next_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            })?;
        parse_reply(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {line}")))
    }
}

/// Streams `requests` through the client with up to `window` in flight,
/// checking id echoes and counting positive verdicts.
fn run_phase(client: &mut Client, requests: &[Request], window: usize) -> io::Result<PhaseStats> {
    let window = window.max(1);
    let mut latencies_us: Vec<f64> = Vec::with_capacity(requests.len());
    let mut accepted = 0usize;
    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(window);
    let mut pending = requests.iter();
    let start = Instant::now();
    loop {
        while inflight.len() < window {
            match pending.next() {
                Some(req) => {
                    let id = client.send(req)?;
                    inflight.push_back((id, Instant::now()));
                }
                None => break,
            }
        }
        let Some((id, sent)) = inflight.pop_front() else {
            break;
        };
        let (reply_id, reply) = client.recv()?;
        latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        if reply_id != Some(RequestId::Num(id)) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply out of order: expected id {id}, got {reply_id:?}"),
            ));
        }
        match reply {
            Reply::Eval(r) => accepted += usize::from(r.schedulable),
            Reply::Admit(a) => accepted += usize::from(a.admitted),
            Reply::Session(_) | Reply::Remove(_) | Reply::Query(_) => {}
            // A shed connection gets one overload reply before any
            // request is processed — retryable (ConnectionRefused, so
            // `run_phase_with_retry` can tell it from a protocol bug).
            Reply::Overload { error } => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("connection shed: {error}"),
                ));
            }
            Reply::Error { error } => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("server answered request {id} with an error: {error}"),
                ));
            }
            Reply::Closed { reason } => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("server closed the connection mid-phase: {reason}"),
                ));
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if latencies_us.is_empty() {
            return 0.0;
        }
        let idx = ((p / 100.0) * (latencies_us.len() - 1) as f64).round() as usize;
        latencies_us[idx]
    };
    Ok(PhaseStats {
        requests: latencies_us.len(),
        accepted,
        elapsed_ms: elapsed * 1e3,
        throughput_rps: if elapsed > 0.0 {
            latencies_us.len() as f64 / elapsed
        } else {
            f64::INFINITY
        },
        p50_us: pct(50.0),
        p95_us: pct(95.0),
        p99_us: pct(99.0),
    })
}

/// Connects with up to `retries` extra attempts on a refused connect,
/// sleeping `attempt * backoff_ms` before each retry.
fn connect_with_retry(
    addr: &str,
    retries: usize,
    backoff_ms: u64,
    retries_used: &mut usize,
) -> io::Result<Client> {
    let mut attempt = 0usize;
    loop {
        match Client::connect(addr) {
            Ok(client) => return Ok(client),
            Err(e) if attempt < retries => {
                attempt += 1;
                *retries_used += 1;
                eprintln!("[bench-service] connect failed ({e}); retry {attempt}/{retries}");
                std::thread::sleep(Duration::from_millis(backoff_ms * attempt as u64));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Runs one phase, reconnecting and restarting on a shed connection
/// (bounded by `retries`). Restart-from-scratch is safe: a shed happens
/// before the server reads any request, and the `op_id`s on retried
/// workloads make replays of committed admits idempotent on a journaled
/// server besides.
fn run_phase_with_retry(
    client: &mut Client,
    addr: &str,
    requests: &[Request],
    window: usize,
    retries: usize,
    backoff_ms: u64,
    retries_used: &mut usize,
) -> io::Result<PhaseStats> {
    let mut attempt = 0usize;
    loop {
        match run_phase(client, requests, window) {
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused && attempt < retries => {
                attempt += 1;
                *retries_used += 1;
                eprintln!("[bench-service] phase shed ({e}); retry {attempt}/{retries}");
                std::thread::sleep(Duration::from_millis(backoff_ms * attempt as u64));
                *client = connect_with_retry(addr, retries, backoff_ms, retries_used)?;
            }
            other => return other,
        }
    }
}

/// Opens `count` extra connections as fast as possible and counts the
/// typed overload sheds. Connections the server *does* take are held
/// open until the burst ends, so they keep occupying pool capacity.
fn overload_burst(addr: &str, count: usize) -> OverloadStats {
    let mut held = Vec::new();
    let mut overloads = 0usize;
    for _ in 0..count {
        let Ok(stream) = TcpStream::connect(addr) else {
            continue;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(300)));
        let mut line = String::new();
        let mut reader = match stream.try_clone() {
            Ok(clone) => BufReader::new(clone),
            Err(_) => continue,
        };
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 && line.contains("\"type\":\"overload\"") => overloads += 1,
            // No reply within the timeout: the connection was accepted
            // (queued or being served) — keep it open to hold the slot.
            _ => held.push(stream),
        }
    }
    drop(held);
    OverloadStats {
        connections: count,
        overloads,
    }
}

/// Runs the benchmark against `config.addr`, or an in-process server
/// when none is given. See the [module docs](self) for the phases.
///
/// # Errors
///
/// Propagates connection failures and protocol violations (an error
/// reply mid-phase is a violation: the workload is well-formed).
pub fn run_service_bench(config: &ServiceBenchConfig) -> io::Result<ServiceBenchReport> {
    let corpus = seeded_corpus(config.sets, config.seed, |p| uniprocessor_spec(config.m, p));
    let arrivals: usize = corpus.iter().map(|ts| ts.len()).sum();

    // Cold: every arrival re-evaluates the whole prefix, from scratch.
    let mut cold_requests = Vec::with_capacity(arrivals);
    for ts in &corpus {
        for i in 1..=ts.len() {
            let mut prefix = mcsched_model::TaskSet::with_capacity(i);
            for task in ts.iter().take(i) {
                prefix.push_unchecked(*task);
            }
            cold_requests.push(Request::Eval(EvalRequest {
                algorithm: config.algorithm.clone(),
                m: config.m,
                tasks: prefix,
            }));
        }
    }

    // Warm: one session per set (reopening replaces it), one admit per
    // arrival. The durable variant (retries or a journal) names each
    // session and tags every admit with an op_id, so replays after a
    // retry hit the journal's idempotency window instead of
    // double-committing.
    let durable = config.retries > 0 || config.journal.is_some();
    let mut warm_requests = Vec::with_capacity(arrivals + corpus.len());
    for (set, ts) in corpus.iter().enumerate() {
        warm_requests.push(Request::OpenSession {
            algorithm: config.algorithm.clone(),
            m: config.m,
            session: durable.then(|| format!("bench-{}-{set}", config.seed)),
        });
        for (i, task) in ts.iter().enumerate() {
            warm_requests.push(Request::Admit {
                task: *task,
                op_id: durable.then(|| format!("b{set}-{i}")),
            });
        }
    }

    let in_process = match &config.addr {
        Some(_) => None,
        None => {
            let server = Server::bind(
                AlgorithmRegistry::standard(),
                ServerConfig {
                    workers: 2,
                    queue_depth: 2,
                    allow_shutdown: true,
                    journal: config.journal.clone(),
                    ..ServerConfig::default()
                },
            )?;
            let handle = server.handle();
            let thread = std::thread::spawn(move || server.run());
            Some((handle, thread))
        }
    };
    let addr = match (&config.addr, &in_process) {
        (Some(addr), _) => addr.clone(),
        (None, Some((handle, _))) => handle.addr().to_string(),
        (None, None) => unreachable!("in-process server exists when no addr is given"),
    };

    let mut retries_used = 0usize;
    let result = (|| {
        let mut client =
            connect_with_retry(&addr, config.retries, config.backoff_ms, &mut retries_used)?;
        let cold = run_phase_with_retry(
            &mut client,
            &addr,
            &cold_requests,
            config.pipeline,
            config.retries,
            config.backoff_ms,
            &mut retries_used,
        )?;
        let warm = run_phase_with_retry(
            &mut client,
            &addr,
            &warm_requests,
            config.pipeline,
            config.retries,
            config.backoff_ms,
            &mut retries_used,
        )?;
        let overload = if config.burst > 0 {
            Some(overload_burst(&addr, config.burst))
        } else {
            None
        };
        if config.shutdown_after && config.addr.is_some() {
            // External server: stop it in-band (it must have been
            // started with shutdown enabled).
            client.send(&Request::Shutdown)?;
            let (_, reply) = client.recv()?;
            if !matches!(reply, Reply::Closed { .. }) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("shutdown request was refused: {reply:?}"),
                ));
            }
        }
        let speedup = if warm.elapsed_ms > 0.0 {
            cold.elapsed_ms / warm.elapsed_ms
        } else {
            f64::INFINITY
        };
        Ok(ServiceBenchReport {
            algorithm: config.algorithm.clone(),
            m: config.m,
            sets: corpus.len(),
            seed: config.seed,
            arrivals,
            pipeline: config.pipeline,
            cold,
            warm,
            speedup,
            overload,
            retries_used,
        })
    })();

    if let Some((handle, thread)) = in_process {
        handle.shutdown();
        let _ = thread.join().expect("server thread panicked");
    }
    result
}

/// Writes the report as pretty-printed JSON.
pub fn write_service_json(report: &ServiceBenchReport, path: &Path) -> io::Result<()> {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, json + "\n")
}

/// Renders the report as a compact human-readable summary.
pub fn render_service_bench(report: &ServiceBenchReport) -> String {
    let mut out = format!(
        "service bench: {} on m={} — {} arrivals over {} sets (pipeline {})\n\
         | phase | requests | accepted | elapsed ms | req/s | p50 µs | p95 µs | p99 µs |\n\
         |----|----|----|----|----|----|----|----|\n",
        report.algorithm, report.m, report.arrivals, report.sets, report.pipeline
    );
    for (name, phase) in [("cold", &report.cold), ("warm", &report.warm)] {
        out.push_str(&format!(
            "| {} | {} | {} | {:.1} | {:.0} | {:.0} | {:.0} | {:.0} |\n",
            name,
            phase.requests,
            phase.accepted,
            phase.elapsed_ms,
            phase.throughput_rps,
            phase.p50_us,
            phase.p95_us,
            phase.p99_us
        ));
    }
    out.push_str(&format!("warm/cold speedup: {:.2}x\n", report.speedup));
    if let Some(o) = &report.overload {
        out.push_str(&format!(
            "overload burst: {}/{} connections shed\n",
            o.overloads, o.connections
        ));
    }
    if report.retries_used > 0 {
        out.push_str(&format!("client retries spent: {}\n", report.retries_used));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_end_to_end_in_process() {
        let config = ServiceBenchConfig {
            sets: 3,
            m: 2,
            pipeline: 4,
            burst: 0,
            ..ServiceBenchConfig::default()
        };
        let report = run_service_bench(&config).unwrap();
        assert_eq!(report.sets, 3);
        assert!(report.arrivals >= 3 * 3, "n >= m+1 per set");
        assert_eq!(report.cold.requests, report.arrivals);
        assert_eq!(report.warm.requests, report.arrivals + report.sets);
        assert!(report.cold.p50_us <= report.cold.p99_us);
        assert!(report.speedup > 0.0);
        let text = render_service_bench(&report);
        assert!(text.contains("speedup"), "{text}");
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"warm\""));
    }

    #[test]
    fn durable_bench_journals_named_sessions() {
        let path =
            std::env::temp_dir().join(format!("mcexp-bench-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = ServiceBenchConfig {
            sets: 2,
            m: 2,
            pipeline: 4,
            burst: 0,
            retries: 2,
            backoff_ms: 1,
            journal: Some(path.clone()),
            ..ServiceBenchConfig::default()
        };
        let report = run_service_bench(&config).unwrap();
        assert_eq!(report.retries_used, 0, "no faults, no retries");
        let journal = std::fs::read_to_string(&path).unwrap();
        assert!(
            journal.contains("\"s\":\"bench-42-0\""),
            "warm sessions are named and journaled: {journal}"
        );
        assert!(
            journal.contains("\"op\":\"b0-0\""),
            "admits carry idempotent op ids: {journal}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overload_burst_sheds_when_saturated() {
        // Tiny pool: 1 worker, queue of 1, overflow pool disabled so
        // extra connections are shed instead of spilling. With 6
        // connections at least a few must be shed with a typed overload
        // reply.
        let server = Server::bind(
            AlgorithmRegistry::standard(),
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                degraded_workers: 0,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let stats = overload_burst(&handle.addr().to_string(), 6);
        assert_eq!(stats.connections, 6);
        assert!(stats.overloads >= 3, "expected sheds, got {stats:?}");
        handle.shutdown();
        let server_stats = thread.join().unwrap().unwrap();
        assert_eq!(server_stats.overloads as usize, stats.overloads);
    }
}
