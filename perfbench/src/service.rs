//! The `service-churn` workload: an in-process admission server on
//! loopback, driven by closed-loop clients.
//!
//! Each connection runs one named, journaled `m = 4` session and sends
//! its next request only after the previous reply (admission clients wait
//! for a verdict before deploying). Requests are drawn from a seeded
//! stream: about 50% `admit` of a paper-generator arrival at UB 0.7–0.9
//! of the cluster, 25% `remove` of a committed task, 20% `query` with a
//! probe, 5% `eval` of a fresh set. The next request depends only on the
//! seed and the verdicts so far, so an in-process oracle that regenerates
//! the stream from its own verdicts must see exactly the same requests;
//! both sides hash every `(request, outcome)` pair per chunk and the
//! chunks must agree.

use crate::stats::{
    chunk_of, chunks_for, latency, ratio, reference_ns, time_setup, Gauge, Samples, CHUNK_S,
    GAUGE_EVERY_NS,
};
use crate::trace::Tracer;
use crate::{nproc, Args, Report, SAMPLE_CAPACITY, SETUP_REPEATS};
use mcsched_core::{AlgorithmRegistry, ClusterSession, WorkspaceRef};
use mcsched_exp::engine::item_rng;
use mcsched_exp::journal::{Journal, JournalStats};
use mcsched_exp::protocol::{
    parse_envelope, parse_reply, AdmitReply, Envelope, EvalRequest, ProbeReply, QueryReply,
    RemoveReply, Reply, Request, RequestId,
};
use mcsched_exp::server::{Server, ServerConfig, ServerHandle, ServerStats};
use mcsched_exp::service::evaluate_request;
use mcsched_gen::{bucketed_grid, DeadlineModel, GridPoint, TaskSetSpec};
use mcsched_model::{Task, TaskId, TaskSet};
use netframe::{write_frame, FrameReader};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Processor count of every session.
pub const M: usize = 4;

/// `(session name, algorithm)` of each client connection.
pub const CONNECTIONS: [(&str, &str); 2] = [("ecdf", "CU-UDP-ECDF"), ("amc", "CU-UDP-AMC")];

/// Arrival UB range, in percent of the cluster.
const UB_PERCENT: (u32, u32) = (70, 90);

/// Generated sets per connection: arrivals are their tasks in turn
/// (re-numbered, cycling), evals are whole sets.
const ARRIVAL_SETS: usize = 256;
const EVAL_SETS: usize = 256;

/// Closed-loop traffic before the first measured chunk, while the
/// sessions fill up to their steady load and the journal to its first
/// compaction. It is checked like the rest but not timed.
const WARMUP: Duration = Duration::from_secs(1);

/// Requests per hash chunk of the oracle and fidelity comparisons.
const CHUNK: u64 = 1024;

/// Request id of `open_session`; request `i` (from 0) carries `i + 2`.
const OPEN_ID: u64 = 1;

/// The seeded inputs of one connection.
pub struct Pools {
    arrivals: Vec<Task>,
    evals: Vec<TaskSet>,
}

fn arrival_points() -> Vec<GridPoint> {
    bucketed_grid()
        .into_iter()
        .filter(|(b, _)| (UB_PERCENT.0..=UB_PERCENT.1).contains(&b.0))
        .flat_map(|(_, points)| points)
        .collect()
}

fn generate(points: &[GridPoint], mut rng: StdRng) -> Option<TaskSet> {
    for _ in 0..8 {
        let point = points[rng.random_range(0..points.len())];
        let spec = TaskSetSpec::paper_defaults(M, point, DeadlineModel::Implicit);
        if let Ok(ts) = spec.generate(&mut rng) {
            return Some(ts);
        }
    }
    None
}

pub fn pools(seed: u64, conn: usize) -> Pools {
    let points = arrival_points();
    let c = conn as u64;
    let arrivals = (0..ARRIVAL_SETS)
        .filter_map(|i| generate(&points, item_rng(seed, 2000 + c, i)))
        .flat_map(TaskSet::into_tasks)
        .collect();
    let evals = (0..EVAL_SETS)
        .filter_map(|i| generate(&points, item_rng(seed, 3000 + c, i)))
        .collect();
    Pools { arrivals, evals }
}

fn with_id(t: &Task, id: u32) -> Task {
    Task::builder(id)
        .period(t.period().into())
        .criticality(t.criticality())
        .wcet_lo(t.wcet_lo().into())
        .wcet_hi(t.wcet_hi().into())
        .deadline(t.deadline().into())
        .try_build()
        .expect("re-numbering keeps a valid task valid")
}

#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Op {
    Admit(Task),
    Remove(TaskId),
    Query(Task),
    Eval(usize),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Outcome {
    Admit {
        admitted: bool,
        processor: Option<usize>,
        tasks: usize,
    },
    Remove {
        removed: bool,
        processor: Option<usize>,
        tasks: usize,
    },
    Query {
        fits: bool,
        processor: Option<usize>,
        tasks: usize,
    },
    Eval {
        schedulable: bool,
    },
    Failed,
}

fn outcome_of(reply: &Reply) -> Outcome {
    match reply {
        Reply::Admit(a) => Outcome::Admit {
            admitted: a.admitted,
            processor: a.processor,
            tasks: a.tasks,
        },
        Reply::Remove(r) => Outcome::Remove {
            removed: r.removed,
            processor: r.processor,
            tasks: r.tasks,
        },
        Reply::Query(q) => Outcome::Query {
            fits: q.probe.as_ref().is_some_and(|p| p.fits),
            processor: q.probe.as_ref().and_then(|p| p.processor),
            tasks: q.tasks,
        },
        Reply::Eval(e) => Outcome::Eval {
            schedulable: e.schedulable,
        },
        _ => Outcome::Failed,
    }
}

/// The request stream of one connection: a function of the seed and of
/// the verdicts observed so far.
pub struct OpStream<'a> {
    pools: &'a Pools,
    rng: StdRng,
    next_task: usize,
    next_id: u32,
    next_eval: usize,
    committed: Vec<TaskId>,
}

impl<'a> OpStream<'a> {
    pub fn new(pools: &'a Pools, seed: u64, conn: usize) -> Self {
        OpStream {
            pools,
            rng: item_rng(seed, 4000 + conn as u64, 0),
            next_task: 0,
            next_id: 0,
            next_eval: 0,
            committed: Vec::new(),
        }
    }

    fn fresh_task(&mut self) -> Task {
        let t = self.pools.arrivals[self.next_task % self.pools.arrivals.len()];
        self.next_task += 1;
        self.next_id += 1;
        with_id(&t, self.next_id)
    }

    pub fn next_op(&mut self) -> Op {
        let r = self.rng.random_range(0..100u32);
        if r < 50 || (r < 75 && self.committed.is_empty()) {
            Op::Admit(self.fresh_task())
        } else if r < 75 {
            let i = self.rng.random_range(0..self.committed.len());
            Op::Remove(self.committed[i])
        } else if r < 95 {
            Op::Query(self.fresh_task())
        } else {
            self.next_eval += 1;
            Op::Eval((self.next_eval - 1) % self.pools.evals.len())
        }
    }

    pub fn observe(&mut self, op: &Op, outcome: &Outcome) {
        match (op, outcome) {
            (Op::Admit(t), Outcome::Admit { admitted: true, .. }) => self.committed.push(t.id()),
            (Op::Remove(id), Outcome::Remove { removed: true, .. }) => {
                if let Some(i) = self.committed.iter().position(|c| c == id) {
                    self.committed.swap_remove(i);
                }
            }
            _ => {}
        }
    }

    fn request(&self, op: &Op, algorithm: &str) -> Request {
        match op {
            Op::Admit(task) => Request::Admit {
                task: *task,
                op_id: None,
            },
            Op::Remove(task_id) => Request::Remove {
                task_id: *task_id,
                op_id: None,
            },
            Op::Query(task) => Request::Query { probe: Some(*task) },
            Op::Eval(i) => Request::Eval(EvalRequest {
                algorithm: algorithm.to_owned(),
                m: M,
                tasks: self.pools.evals[*i].clone(),
            }),
        }
    }
}

/// Per-chunk hashes of a sequence of values.
#[derive(Default)]
pub struct Chunks {
    hasher: Option<DefaultHasher>,
    count: u64,
    pub hashes: Vec<u64>,
}

impl Chunks {
    pub fn add(&mut self, value: &impl Hash) {
        value.hash(self.hasher.get_or_insert_with(DefaultHasher::new));
        self.count += 1;
        if self.count.is_multiple_of(CHUNK) {
            self.seal();
        }
    }

    fn seal(&mut self) {
        if let Some(h) = self.hasher.take() {
            self.hashes.push(h.finish());
        }
    }

    pub fn finish(mut self) -> Vec<u64> {
        self.seal();
        self.hashes
    }
}

/// The first chunk where two hash sequences differ, as a request range.
fn first_difference(a: &[u64], b: &[u64]) -> Option<String> {
    let i = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))?;
    let lo = i as u64 * CHUNK;
    Some(format!("requests {lo}..{}", lo + CHUNK))
}

struct Conn {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: BufWriter<TcpStream>,
}

/// Latencies, completed requests and host-speed readings per chunk,
/// shared by the clients.
struct Meter {
    op: Samples,
    admit: Samples,
    ops: Vec<u64>,
    gauge: Gauge,
}

impl Meter {
    fn new(seed: u64, chunks: usize) -> Arc<Mutex<Meter>> {
        Arc::new(Mutex::new(Meter {
            op: Samples::with_capacity(SAMPLE_CAPACITY, seed),
            admit: Samples::with_capacity(SAMPLE_CAPACITY, seed ^ 1),
            ops: vec![0; chunks],
            gauge: Gauge::new(chunks),
        }))
    }

    /// The meter back from the ended clients.
    fn collect(meter: Arc<Mutex<Meter>>) -> Result<Meter, String> {
        Arc::try_unwrap(meter)
            .map_err(|_| "a client still holds the meter".to_owned())?
            .into_inner()
            .map_err(|_| "a client thread panicked while recording".to_owned())
    }

    fn record(&mut self, chunk: usize, ns: u64, admit: bool) {
        self.op.push(chunk, ns);
        if admit {
            self.admit.push(chunk, ns);
        }
        if let Some(n) = self.ops.get_mut(chunk) {
            *n += 1;
        }
    }
}

struct Live {
    handle: ServerHandle,
    server: JoinHandle<std::io::Result<ServerStats>>,
    journal: Arc<Journal>,
    journal_path: PathBuf,
    conns: Vec<Conn>,
    pools: Vec<Arc<Pools>>,
}

fn max_frame_len() -> usize {
    ServerConfig::default().max_frame_len
}

fn roundtrip(conn: &mut Conn, line: &str) -> Result<String, String> {
    write_frame(&mut conn.writer, line).map_err(|e| format!("send: {e}"))?;
    match conn.reader.next_frame() {
        Ok(Some(reply)) => Ok(reply),
        Ok(None) => Err("server closed the connection".into()),
        Err(e) => Err(format!("receive: {e:?}")),
    }
}

fn setup(args: &Args, rep: usize) -> Result<Live, String> {
    let pools: Vec<Arc<Pools>> = (0..CONNECTIONS.len())
        .map(|c| Arc::new(pools(args.seed, c)))
        .collect();
    std::fs::create_dir_all(&args.work_dir).map_err(|e| e.to_string())?;
    let journal_path = args
        .work_dir
        .join(format!("journal-{}-{rep}.jsonl", std::process::id()));
    let config = ServerConfig {
        workers: nproc(),
        degraded_workers: 0,
        journal: Some(journal_path.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind(AlgorithmRegistry::standard(), config).map_err(|e| e.to_string())?;
    let journal = server.journal().cloned().ok_or("server has no journal")?;
    let addr = server.local_addr();
    let handle = server.handle();
    let server = std::thread::spawn(move || server.run());
    let mut conns = Vec::new();
    for (name, algorithm) in CONNECTIONS {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        let mut conn = Conn {
            reader: FrameReader::new(BufReader::new(reader), max_frame_len()),
            writer: BufWriter::new(stream),
        };
        let open = Envelope::with_id(
            RequestId::Num(OPEN_ID),
            Request::OpenSession {
                algorithm: algorithm.to_owned(),
                m: M,
                session: Some(name.to_owned()),
            },
        );
        let reply = roundtrip(&mut conn, &open.render())?;
        match parse_reply(&reply) {
            Ok((_, Reply::Session(_))) => {}
            other => return Err(format!("open_session {name} failed: {other:?}")),
        }
        conns.push(conn);
    }
    Ok(Live {
        handle,
        server,
        journal,
        journal_path,
        conns,
        pools,
    })
}

/// Closes the sessions, stops the server and removes its journal.
fn teardown(mut live: Live) -> Result<(ServerStats, JournalStats), String> {
    for conn in &mut live.conns {
        let _ = roundtrip(conn, &Envelope::new(Request::Close).render());
    }
    live.conns.clear();
    live.handle.shutdown();
    let stats = live
        .server
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| e.to_string())?;
    let journal = live.journal.stats();
    let _ = std::fs::remove_file(&live.journal_path);
    Ok((stats, journal))
}

/// What one closed-loop client saw.
struct ClientRun {
    pinned: bool,
    ops: u64,
    errors: u64,
    id_mismatches: u64,
    lost: Option<String>,
    outcomes: Vec<u64>,
    lines: Vec<u64>,
}

fn client(
    conn: &mut Conn,
    c: usize,
    pools: &Pools,
    seed: u64,
    meter: &Mutex<Meter>,
    (start, until): (Instant, Instant),
) -> ClientRun {
    let algorithm = CONNECTIONS[c].1;
    // One client per CPU: without it the scheduler at times stacks both
    // closed loops on one CPU, and the latency tail follows its whims.
    let pinned = pin_to_cpu(c % nproc());
    let mut stream = OpStream::new(pools, seed, c);
    let (mut outcomes, mut lines) = (Chunks::default(), Chunks::default());
    let mut run = ClientRun {
        pinned,
        ops: 0,
        errors: 0,
        id_mismatches: 0,
        lost: None,
        outcomes: Vec::new(),
        lines: Vec::new(),
    };
    let mut next_reading = Instant::now();
    while Instant::now() < until {
        // Host speed, read between requests about once per
        // GAUGE_EVERY_NS; readings in the warm-up are not kept.
        let now = Instant::now();
        if now >= next_reading {
            next_reading = now + Duration::from_nanos(GAUGE_EVERY_NS);
            let ns = reference_ns();
            if let Some(since) = now.checked_duration_since(start) {
                meter
                    .lock()
                    .expect("a client thread panicked while recording")
                    .gauge
                    .book(chunk_of(since.as_nanos() as u64), ns);
            }
        }
        let op = stream.next_op();
        let id = run.ops + 2;
        let line = Envelope::with_id(RequestId::Num(id), stream.request(&op, algorithm)).render();
        let t0 = Instant::now();
        let reply = roundtrip(conn, &line);
        let ns = t0.elapsed().as_nanos() as u64;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                run.lost = Some(e);
                break;
            }
        };
        run.ops += 1;
        if let Some(since) = t0.checked_duration_since(start) {
            meter
                .lock()
                .expect("a client thread panicked while recording")
                .record(
                    chunk_of(since.as_nanos() as u64),
                    ns,
                    matches!(op, Op::Admit(_)),
                );
        }
        let outcome = match parse_reply(&reply) {
            Ok((rid, reply)) => {
                if rid != Some(RequestId::Num(id)) {
                    run.id_mismatches += 1;
                }
                outcome_of(&reply)
            }
            Err(_) => Outcome::Failed,
        };
        if outcome == Outcome::Failed {
            run.errors += 1;
        }
        outcomes.add(&(&op, &outcome));
        lines.add(&reply);
        stream.observe(&op, &outcome);
    }
    run.outcomes = outcomes.finish();
    run.lines = lines.finish();
    run
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// Pins the calling thread to `cpu` (Linux); `false` if refused.
fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u8; 128];
    let Some(byte) = mask.get_mut(cpu / 8) else {
        return false;
    };
    *byte |= 1 << (cpu % 8);
    // SAFETY: `mask` is a live 128-byte `cpu_set_t` for the duration of
    // the call, and its length is passed alongside; pid 0 is the calling
    // thread.
    unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) == 0 }
}

/// Runs both clients concurrently for [`WARMUP`] and then `meter`'s
/// chunks; each client thread owns its connection and hands it back when
/// it ends. Returns the measured window's length.
fn drive(
    live: &mut Live,
    seed: u64,
    meter: &Arc<Mutex<Meter>>,
) -> Result<(Vec<ClientRun>, Duration), String> {
    let chunks = meter.lock().expect("no client is running yet").ops.len();
    let start = Instant::now() + WARMUP;
    let until = start + Duration::from_secs_f64(CHUNK_S * chunks as f64);
    let handles: Vec<_> = std::mem::take(&mut live.conns)
        .into_iter()
        .enumerate()
        .map(|(c, mut conn)| {
            let (pools, meter) = (Arc::clone(&live.pools[c]), Arc::clone(meter));
            std::thread::spawn(move || {
                let run = client(&mut conn, c, &pools, seed, &meter, (start, until));
                (conn, run)
            })
        })
        .collect();
    let mut runs = Vec::new();
    for h in handles {
        let (conn, run) = h.join().map_err(|_| "client thread panicked".to_owned())?;
        live.conns.push(conn);
        runs.push(run);
    }
    Ok((runs, Instant::now().saturating_duration_since(start)))
}

/// Regenerates connection `c`'s stream against an in-process
/// `ClusterSession`, with `eval` judged by `accepts_in`; returns the
/// outcome chunk hashes.
fn oracle(c: usize, pools: &Pools, seed: u64, ops: u64) -> Result<Vec<u64>, String> {
    let (_, algorithm) = CONNECTIONS[c];
    let registry = AlgorithmRegistry::standard();
    let mut session = registry
        .open_session(algorithm, M)
        .map_err(|e| e.to_string())?;
    let algo = registry.parse(algorithm).map_err(|e| e.to_string())?;
    let ws = WorkspaceRef::new();
    let mut stream = OpStream::new(pools, seed, c);
    let mut chunks = Chunks::default();
    for _ in 0..ops {
        let op = stream.next_op();
        let outcome = match &op {
            Op::Admit(t) => {
                let k = session.admit(*t).ok();
                Outcome::Admit {
                    admitted: k.is_some(),
                    processor: k,
                    tasks: session.task_count(),
                }
            }
            Op::Remove(id) => {
                let k = session.remove(*id);
                Outcome::Remove {
                    removed: k.is_some(),
                    processor: k,
                    tasks: session.task_count(),
                }
            }
            Op::Query(t) => {
                let k = session.probe(t);
                Outcome::Query {
                    fits: k.is_some(),
                    processor: k,
                    tasks: session.task_count(),
                }
            }
            Op::Eval(i) => Outcome::Eval {
                schedulable: algo.accepts_in(&pools.evals[*i], M, &ws),
            },
        };
        chunks.add(&(&op, &outcome));
        stream.observe(&op, &outcome);
    }
    Ok(chunks.finish())
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    report.line(format!(
        "params: m={M} sessions={CONNECTIONS:?} clients={} closed-loop workers={} \
         arrivals UB {:.2}-{:.2} mix admit 50% remove 25% query 20% eval 5% \
         setup_repeats={SETUP_REPEATS}",
        CONNECTIONS.len(),
        nproc(),
        f64::from(UB_PERCENT.0) / 100.0,
        f64::from(UB_PERCENT.1) / 100.0,
    ));
    if args.trace {
        return traced(args, report);
    }
    // Allocated before the set-ups so `setup_s` times only program work.
    let chunks = chunks_for(args.seconds);
    let meter = Meter::new(args.seed, chunks);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut live = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(l) = live.take() {
            teardown(l)?;
        }
        let (built, wall, scaled) = time_setup(|| setup(args, rep));
        live = Some(built?);
        setups.push((wall, scaled));
    }
    let mut live = live.ok_or("no set-up ran")?;
    let (runs, window) = drive(&mut live, args.seed, &meter)?;
    let pools = live.pools.clone();
    let (server, journal) = teardown(live)?;
    let mut meter = Meter::collect(meter)?;

    let ops: u64 = runs.iter().map(|r| r.ops).sum();
    let (errors, id_mismatches, lost) = reply_failures(&runs);
    let mut oracle_failures = Vec::new();
    for (c, r) in runs.iter().enumerate() {
        let expected = oracle(c, &pools[c], args.seed, r.ops)?;
        if let Some(at) = first_difference(&r.outcomes, &expected) {
            oracle_failures.push(format!("{} {at}", CONNECTIONS[c].0));
        }
    }
    report.attempted = ops + lost;
    report.failed = errors + id_mismatches + lost + oracle_failures.len() as u64;
    let secs = window.as_secs_f64();
    let measured: u64 = meter.ops.iter().sum();
    report.line(format!(
        "service: {ops} requests, {measured} of them in the measured {secs:.3} s after a \
         {:.1} s warm-up, over {} connections (clients pinned to a \
         CPU each: {}); server saw {} requests, {} errors, {} overloads; journal appended {} \
         records, {} compactions",
        WARMUP.as_secs_f64(),
        runs.len(),
        runs.iter().all(|r| r.pinned),
        server.requests,
        server.errors,
        server.overloads,
        journal.appended,
        journal.compactions
    ));
    let rates: Vec<f64> = meter.ops.iter().map(|&n| n as f64 / CHUNK_S).collect();
    let slowdowns = meter.gauge.slowdowns();
    report.throughput(
        &rates,
        &slowdowns,
        &format!(
            "ops_per_s: completed requests per second, all verbs; n={measured}, \
             median over {chunks} chunks at nominal host speed"
        ),
    );
    report.latency("op", &mut meter.op, &slowdowns, "send -> reply, all verbs");
    report.latency(
        "admit",
        &mut meter.admit,
        &slowdowns,
        "send -> reply, admit only",
    );
    report.setup(&setups, "corpus, registry, server bind, session open");
    check_replies(report, &runs);
    report.check(
        "admit, remove and probe verdicts and eval = accepts_in match the in-process oracle",
        oracle_failures.is_empty(),
        if oracle_failures.is_empty() {
            format!("{ops} requests replayed")
        } else {
            format!("first differing chunk: {}", oracle_failures.join("; "))
        },
    );
    report.check(
        "JournalStats.io_errors is 0",
        journal.io_errors == 0,
        format!("{} io errors", journal.io_errors),
    );
    Ok(())
}

/// Error replies, id mismatches and lost connections of the clients.
fn reply_failures(runs: &[ClientRun]) -> (u64, u64, u64) {
    (
        runs.iter().map(|r| r.errors).sum(),
        runs.iter().map(|r| r.id_mismatches).sum(),
        runs.iter().filter(|r| r.lost.is_some()).count() as u64,
    )
}

fn check_replies(report: &mut Report, runs: &[ClientRun]) {
    let (errors, id_mismatches, lost) = reply_failures(runs);
    let ops: u64 = runs.iter().map(|r| r.ops).sum();
    report.check(
        "every reply echoes its id",
        id_mismatches == 0,
        format!("{id_mismatches} mismatches in {ops} replies"),
    );
    report.check(
        "no error, overload or lost reply",
        errors == 0 && lost == 0,
        format!(
            "{errors} error replies, {lost} lost connections{}",
            runs.iter()
                .filter_map(|r| r.lost.as_deref())
                .map(|e| format!(": {e}"))
                .collect::<String>()
        ),
    );
}

/// Span handles of the traced replay.
struct Layers {
    request: usize,
    client: usize,
    read: usize,
    parse: usize,
    admit: usize,
    remove: usize,
    probe: usize,
    query: usize,
    journal: usize,
    eval: usize,
    render: usize,
    write: usize,
}

fn layers(t: &mut Tracer) -> Layers {
    Layers {
        request: t.wrapper("server.request", true),
        client: t.layer("client.prepare", false),
        read: t.layer("netframe.read", false),
        parse: t.layer("protocol.parse", false),
        admit: t.layer("cluster.admit", true),
        remove: t.layer("cluster.remove", false),
        probe: t.layer("cluster.probe", false),
        query: t.layer("cluster.query", false),
        journal: t.layer("journal.append", false),
        eval: t.layer("service.eval", false),
        render: t.layer("protocol.render", false),
        write: t.layer("netframe.write", false),
    }
}

struct Replay {
    lines: Vec<u64>,
    admits: u64,
    admitted: u64,
    journal: JournalStats,
    journal_bytes: u64,
    journal_records: u64,
}

/// Replays connection `c`'s first `ops` requests in-process through
/// frame → parse → `ClusterSession` → journal → render → frame, building
/// each reply as the server does.
fn replay(
    c: usize,
    pools: &Pools,
    seed: u64,
    ops: u64,
    journal_path: &Path,
    tr: &mut Tracer,
    l: &Layers,
) -> Result<Replay, String> {
    let (name, algorithm) = CONNECTIONS[c];
    let registry = AlgorithmRegistry::standard();
    let journal = Journal::create(journal_path).map_err(|e| e.to_string())?;
    journal
        .attach(name, algorithm, M)
        .map_err(|e| e.to_string())?;
    let mut cluster: ClusterSession = registry
        .open_session(algorithm, M)
        .map_err(|e| e.to_string())?;
    let mut stream = OpStream::new(pools, seed, c);
    let mut lines = Chunks::default();
    let (mut req_buf, mut reply_buf) = (Vec::new(), Vec::new());
    let max = max_frame_len();
    let (mut admits, mut admitted) = (0, 0);
    for i in 0..ops {
        tr.begin(l.client);
        let op = stream.next_op();
        let line =
            Envelope::with_id(RequestId::Num(i + 2), stream.request(&op, algorithm)).render();
        req_buf.clear();
        write_frame(&mut req_buf, &line).map_err(|e| e.to_string())?;
        tr.end();

        tr.begin(l.request);
        let frame = tr.time(l.read, || FrameReader::new(&req_buf[..], max).next_frame());
        let frame = match frame {
            Ok(Some(f)) => f,
            other => return Err(format!("request frame {i} did not read back: {other:?}")),
        };
        let env = tr
            .time(l.parse, || parse_envelope(&frame))
            .map_err(|e| e.message)?;
        let reply = match env.request {
            Request::Admit { task, op_id } => {
                admits += 1;
                match tr.time(l.admit, || cluster.admit(task)) {
                    Ok(k) => {
                        admitted += 1;
                        let tasks = cluster.task_count();
                        tr.time(l.journal, || {
                            journal.committed_admit(name, op_id.as_deref(), &task, k, tasks)
                        });
                        Reply::Admit(AdmitReply {
                            admitted: true,
                            processor: Some(k),
                            task: task.id().0,
                            tasks,
                            detail: None,
                            degraded: false,
                        })
                    }
                    Err(e) => Reply::Admit(AdmitReply {
                        admitted: false,
                        processor: None,
                        task: task.id().0,
                        tasks: cluster.task_count(),
                        detail: Some(e.to_string()),
                        degraded: false,
                    }),
                }
            }
            Request::Remove { task_id, op_id } => {
                let k = tr.time(l.remove, || cluster.remove(task_id));
                let tasks = cluster.task_count();
                if let Some(k) = k {
                    tr.time(l.journal, || {
                        journal.committed_remove(name, op_id.as_deref(), task_id, k, tasks)
                    });
                }
                Reply::Remove(RemoveReply {
                    removed: k.is_some(),
                    processor: k,
                    task: task_id.0,
                    tasks,
                })
            }
            Request::Query { probe } => {
                let probe = probe.map(|task| {
                    let k = tr.time(l.probe, || cluster.probe(&task));
                    ProbeReply {
                        fits: k.is_some(),
                        processor: k,
                    }
                });
                tr.time(l.query, || {
                    Reply::Query(QueryReply {
                        algorithm: cluster.name().to_owned(),
                        m: cluster.processor_count(),
                        tasks: cluster.task_count(),
                        partition: cluster
                            .snapshot()
                            .into_iter()
                            .map(|p| p.into_iter().map(|t| t.0).collect())
                            .collect(),
                        probe,
                        degraded: false,
                    })
                })
            }
            Request::Eval(req) => match tr.time(l.eval, || evaluate_request(&registry, &req)) {
                Ok(resp) => Reply::Eval(resp),
                Err(e) => Reply::error(e),
            },
            other => Reply::error(format!("unexpected {} in the replay", other.kind())),
        };
        let out = tr.time(l.render, || reply.render(env.id.as_ref()));
        reply_buf.clear();
        tr.time(l.write, || write_frame(&mut reply_buf, &out))
            .map_err(|e| e.to_string())?;
        tr.end();
        tr.flush();

        lines.add(&out);
        stream.observe(&op, &outcome_of(&reply));
    }
    let stats = journal.stats();
    drop(journal);
    let text = std::fs::read_to_string(journal_path).unwrap_or_default();
    let _ = std::fs::remove_file(journal_path);
    Ok(Replay {
        lines: lines.finish(),
        admits,
        admitted,
        journal: stats,
        journal_bytes: text.len() as u64,
        journal_records: text.lines().count() as u64,
    })
}

fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let chunks = chunks_for(args.seconds / 2.0);
    let meter = Meter::new(args.seed, chunks);
    let mut live = setup(args, 0)?;
    let (runs, window) = drive(&mut live, args.seed, &meter)?;
    let pools = live.pools.clone();
    let (_, journal) = teardown(live)?;
    let mut meter = Meter::collect(meter)?;
    // Wall-clock figures, like the in-process spans they are set against.
    let op = latency(&mut meter.op, &vec![1.0; chunks]);
    let ops: u64 = runs.iter().map(|r| r.ops).sum();

    // A warm-up over a prefix, then the same replay with spans off and
    // on: the time ratio of the last two is the tracing overhead.
    let mut passes = Vec::new();
    for (enabled, share) in [(false, 5), (false, 1), (true, 1)] {
        let mut tr = Tracer::new(enabled);
        let l = layers(&mut tr);
        let start = Instant::now();
        let mut replays = Vec::new();
        for (c, r) in runs.iter().enumerate() {
            let path = args
                .work_dir
                .join(format!("replay-{}-{c}.jsonl", std::process::id()));
            let ops = r.ops / share;
            replays.push(replay(c, &pools[c], args.seed, ops, &path, &mut tr, &l)?);
        }
        passes.push((start.elapsed(), tr, l, replays));
    }
    let (plain_s, _, _, plain) = &passes[1];
    let (traced_s, tr, l, replays) = &passes[2];
    let mut mismatches = Vec::new();
    for (c, r) in runs.iter().enumerate() {
        for (pass, rep) in [("untraced", &plain[c]), ("traced", &replays[c])] {
            if let Some(at) = first_difference(&r.lines, &rep.lines) {
                mismatches.push(format!("{} {pass} {at}", CONNECTIONS[c].0));
            }
        }
    }
    let (errors, id_mismatches, lost) = reply_failures(&runs);
    report.attempted = ops + lost;
    report.failed = mismatches.len() as u64 + errors + id_mismatches + lost;
    check_replies(report, &runs);
    report.line(format!(
        "trace: {ops} requests over TCP in {:.3} s; replayed in {:.3} s untraced, {:.3} s traced",
        window.as_secs_f64(),
        plain_s.as_secs_f64(),
        traced_s.as_secs_f64()
    ));
    let mean = |layer: usize, what: &str, report: &mut Report, name: &str| {
        let t = tr.total(layer);
        report.metric(name, t.mean_ns(), "ns", &format!("{what}, n={}", t.calls));
    };
    mean(
        l.read,
        "FrameReader::next_frame per request",
        report,
        "netframe.read_ns",
    );
    mean(
        l.write,
        "write_frame per reply",
        report,
        "netframe.write_ns",
    );
    mean(l.parse, "parse_envelope", report, "protocol.parse_ns");
    mean(l.render, "Reply::render", report, "protocol.render_ns");
    mean(l.admit, "ClusterSession::admit", report, "cluster.admit_ns");
    let admit = tr.total(l.admit);
    report.metric(
        "cluster.admit_p99_ns",
        admit.quantile_ns(0.99),
        "ns",
        &format!("ClusterSession::admit, n={}", admit.calls),
    );
    mean(
        l.remove,
        "ClusterSession::remove",
        report,
        "cluster.remove_ns",
    );
    mean(l.probe, "ClusterSession::probe", report, "cluster.probe_ns");
    mean(
        l.query,
        "query reply: partition snapshot",
        report,
        "cluster.query_ns",
    );
    let (admits, admitted) = replays
        .iter()
        .fold((0, 0), |(a, b), r| (a + r.admits, b + r.admitted));
    report.metric(
        "cluster.admit_ratio",
        ratio(admitted as f64, admits as f64),
        "ratio",
        &format!("admit requests, n={admits}"),
    );
    mean(
        l.journal,
        "committed_admit / committed_remove",
        report,
        "journal.append_ns",
    );
    let appended: u64 = replays.iter().map(|r| r.journal.appended).sum();
    let compactions: u64 = replays.iter().map(|r| r.journal.compactions).sum();
    report.metric(
        "journal.compactions",
        ratio(compactions as f64 * 1000.0, appended as f64),
        "1/krecord",
        &format!("{compactions} compactions in {appended} records"),
    );
    let bytes: u64 = replays.iter().map(|r| r.journal_bytes).sum();
    let records: u64 = replays.iter().map(|r| r.journal_records).sum();
    report.metric(
        "journal.bytes_per_record",
        ratio(bytes as f64, records as f64),
        "B",
        &format!("final journal files, n={records} records"),
    );
    let eval = tr.total(l.eval);
    report.metric(
        "service.eval_us",
        eval.mean_ns() / 1e3,
        "us",
        &format!("evaluate_request, n={}", eval.calls),
    );
    let request = tr.total(l.request);
    let request_p50_us = request.quantile_ns(0.5) / 1e3;
    report.metric(
        "server.request_p50_us",
        request_p50_us,
        "us",
        &format!(
            "in-process read -> write of one request, n={}",
            request.calls
        ),
    );
    let tcp_p50 = op.as_ref().map_or(0.0, |p| p.p50_us);
    report.metric(
        "server.residual_us",
        tcp_p50 - request_p50_us,
        "us",
        &format!("TCP op_p50_us {tcp_p50} minus in-process request p50"),
    );
    for line in tr.profile() {
        report.line(line);
    }
    let traced_secs = traced_s.as_secs_f64();
    report.metric(
        "trace.overhead",
        ratio(plain_s.as_secs_f64(), traced_secs),
        "ratio",
        "traced over untraced replay throughput, same requests",
    );
    report.metric(
        "trace.unattributed_share",
        1.0 - ratio(tr.attributed_ns() as f64 / 1e9, traced_secs),
        "ratio",
        "share of traced wall time outside every layer span",
    );
    report.check(
        "service replay reproduces every reply of the TCP run",
        mismatches.is_empty(),
        if mismatches.is_empty() {
            format!("{ops} replies compared twice")
        } else {
            format!("first differing chunk: {}", mismatches.join("; "))
        },
    );
    report.check(
        "JournalStats.io_errors is 0",
        journal.io_errors == 0,
        format!("{} io errors", journal.io_errors),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` requests and outcomes of connection `c`, driven by
    /// the oracle.
    fn stream(seed: u64, c: usize, n: u64) -> Vec<u64> {
        oracle(c, &pools(seed, c), seed, n).unwrap()
    }

    #[test]
    fn same_seed_same_corpus_and_op_stream() {
        let a = pools(11, 0);
        let b = pools(11, 0);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.evals, b.evals);
        assert_eq!(stream(11, 0, 3000), stream(11, 0, 3000));
        assert_eq!(stream(11, 1, 3000), stream(11, 1, 3000));
    }

    #[test]
    fn another_seed_gives_another_stream() {
        assert_ne!(pools(11, 0).arrivals, pools(12, 0).arrivals);
        assert_ne!(stream(11, 0, 2000), stream(12, 0, 2000));
    }

    #[test]
    fn op_mix_and_verdicts_cover_both_outcomes() {
        let p = pools(5, 0);
        let registry = AlgorithmRegistry::standard();
        let mut session = registry.open_session(CONNECTIONS[0].1, M).unwrap();
        let mut s = OpStream::new(&p, 5, 0);
        let (mut counts, mut accepted, mut rejected) = ([0u32; 4], 0, 0);
        for _ in 0..4000 {
            let op = s.next_op();
            let outcome = match &op {
                Op::Admit(t) => {
                    counts[0] += 1;
                    let k = session.admit(*t).ok();
                    if k.is_some() {
                        accepted += 1;
                    } else {
                        rejected += 1;
                    }
                    Outcome::Admit {
                        admitted: k.is_some(),
                        processor: k,
                        tasks: 0,
                    }
                }
                Op::Remove(id) => {
                    counts[1] += 1;
                    let k = session.remove(*id);
                    assert!(k.is_some(), "removes target committed tasks");
                    Outcome::Remove {
                        removed: true,
                        processor: k,
                        tasks: 0,
                    }
                }
                Op::Query(_) => {
                    counts[2] += 1;
                    Outcome::Failed
                }
                Op::Eval(_) => {
                    counts[3] += 1;
                    Outcome::Failed
                }
            };
            s.observe(&op, &outcome);
        }
        assert!((1800..2200).contains(&counts[0]), "{counts:?}");
        assert!((800..1200).contains(&counts[1]), "{counts:?}");
        assert!((600..1000).contains(&counts[2]), "{counts:?}");
        assert!((100..300).contains(&counts[3]), "{counts:?}");
        assert!(accepted > 200 && rejected > 200, "{accepted}/{rejected}");
    }

    #[test]
    fn chunk_differences_name_the_range() {
        assert_eq!(first_difference(&[1, 2, 3], &[1, 2, 3]), None);
        assert_eq!(
            first_difference(&[1, 2, 3], &[1, 9, 3]).as_deref(),
            Some("requests 1024..2048")
        );
        assert!(first_difference(&[1, 2], &[1, 2, 3]).is_some());
    }
}
