//! The admission-control server behind `mcexp serve` and `mcexp eval`.
//!
//! Besides judging frozen task sets (`eval`), the server keeps
//! **sessions**: each connection may open a live
//! [`ClusterSession`] (an `m`-processor cluster with warm per-processor
//! admission states) and stream `admit` / `remove` / `query` requests
//! against it. Verdicts are incremental — and bit-identical to what the
//! one-shot analysis would say about the same committed set, which is
//! the admission layer's equivalence guarantee.
//!
//! The wire format is the newline-delimited JSON of
//! [`protocol`](crate::protocol) (versioned, id-echoing). The transport
//! is plain TCP via the vendored [`netframe`] layer.
//!
//! ## Concurrency, backpressure, and the overflow pool
//!
//! One acceptor thread hands connections to a fixed pool of worker
//! threads over a bounded queue. The pool never grows and the queue
//! never blocks the acceptor. When that pool saturates, new connections
//! spill to a small **overflow** pool
//! ([`ServerConfig::degraded_workers`]) with its own queue. Both pools
//! open the same exact sessions, so an overflow verdict is the verdict
//! the main pool would give; its replies carry `"degraded": true`,
//! which names the pool the connection landed on, not a weaker verdict.
//! Only when *both* queues are full is a connection *shed* with a typed
//! `{"type": "overload"}` reply — callers always see explicit
//! backpressure, never unbounded latency. Sessions hold `Rc`-based
//! analysis scratch, so each lives entirely on the worker thread that
//! serves its connection.
//!
//! ## Durability
//!
//! With [`ServerConfig::journal`] set, named sessions (`open_session`
//! with a `"session"` field) journal every committed admit/remove
//! before the reply is sent ([`Journal`]); `--recover` on restart
//! replays the log, and reopening the same name resumes the session
//! exactly where the journal left it. `op_id`-carrying admits and
//! removes are idempotent within the journal's replay window.
//!
//! ## Lifecycle
//!
//! * per-connection request caps and task caps bound any one client's
//!   footprint ([`ServerConfig`]);
//! * connections idle past [`ServerConfig::idle_timeout`] are reaped
//!   with a `{"type": "closed", "reason": "idle timeout"}` notice;
//! * half-finished frames trickling past
//!   [`ServerConfig::frame_deadline`] are reaped mid-frame (the
//!   slowloris guard) with a `{"type": "closed"}` notice;
//! * [`ServerHandle::shutdown`] (or an in-band `shutdown` request, when
//!   enabled) stops the acceptor, drains queued connections, lets
//!   in-flight requests finish, and returns the run's totals.

// Panic-free request path: a panic here kills the serving worker
// instead of answering with a typed error reply. `clippy.toml` exempts
// `#[cfg(test)]` code; CI's clippy job enforces this, `cargo test` does not.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::journal::{Journal, OpKind};
use crate::protocol::{
    parse_envelope, AdmitReply, ProbeReply, QueryReply, RemoveReply, Reply, Request, RequestId,
    SessionReply,
};
use crate::service::evaluate_request;
use mcsched_core::{AlgorithmRegistry, ClusterSession};
use netframe::{wake, write_frame, Bounded, FrameError, FrameReader, PushError, ShutdownFlag};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Which worker pool serves a connection. Both run the same exact
/// sessions: verdicts are exactly the one-shot analysis verdicts on the
/// committed union. The tier only tags replies and counts connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionTier {
    /// The main pool ([`ServerConfig::workers`]).
    Exact,
    /// The overflow pool ([`ServerConfig::degraded_workers`]), which
    /// takes connections the main pool's queue cannot; replies carry
    /// `"degraded": true` and [`ServerStats::degraded_connections`]
    /// counts them.
    Degraded,
}

/// Tuning knobs for [`Server`]. `Default` is sized for a local service.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 picks a free one).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded handoff queue depth; connections beyond `workers +
    /// queue_depth` are shed with an overload reply.
    pub queue_depth: usize,
    /// Hard cap on one request line, in bytes (oversized frames are
    /// answered with an error and skipped).
    pub max_frame_len: usize,
    /// Requests served per connection before it is closed.
    pub max_requests: u64,
    /// Largest cluster (`m`) a session may open.
    pub max_session_m: usize,
    /// Most tasks a session may hold committed at once.
    pub max_session_tasks: usize,
    /// Reap connections idle this long (`None` disables reaping).
    pub idle_timeout: Option<Duration>,
    /// Reap a connection whose *frame* has been arriving this long
    /// without completing (`None` disables the slowloris guard). The
    /// idle timeout cannot catch this case: a byte every few seconds
    /// keeps the socket "active" while the half-frame pins a worker.
    pub frame_deadline: Option<Duration>,
    /// Worker threads of the overflow pool, which serves connections
    /// the main queue cannot take with the same exact sessions (replies
    /// tagged `"degraded": true`); `0` disables it and those
    /// connections are shed.
    pub degraded_workers: usize,
    /// Journal committed named-session operations to this file.
    pub journal: Option<PathBuf>,
    /// Recover sessions from an existing journal instead of truncating
    /// it (only meaningful with [`ServerConfig::journal`]).
    pub recover: bool,
    /// Honour the in-band `shutdown` request (for tests and CI; off by
    /// default so a client cannot stop a shared server).
    pub allow_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            max_frame_len: 64 * 1024,
            max_requests: 1_000_000,
            max_session_m: 1024,
            max_session_tasks: 100_000,
            idle_timeout: Some(Duration::from_secs(30)),
            frame_deadline: Some(Duration::from_secs(10)),
            degraded_workers: 1,
            journal: None,
            recover: false,
            allow_shutdown: false,
        }
    }
}

/// Totals for one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Non-blank request lines served (including errored ones).
    pub requests: u64,
    /// Requests answered with an error reply.
    pub errors: u64,
    /// `true` when this connection asked for (and was allowed) a server
    /// shutdown.
    pub shutdown_requested: bool,
}

/// Totals for one [`Server::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections served to completion by the worker pool.
    pub connections: u64,
    /// Requests served across all connections.
    pub requests: u64,
    /// Requests answered with an error reply.
    pub errors: u64,
    /// Connections served by the overflow pool.
    pub degraded_connections: u64,
    /// Connections shed with an overload reply.
    pub overloads: u64,
}

/// A shutdown trigger for a running [`Server`] — cloneable, shareable
/// across threads.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    flag: ShutdownFlag,
}

impl ServerHandle {
    /// The server's bound address (with the real port when `addr` used
    /// port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the server to stop: no new connections are accepted, queued
    /// and in-flight connections finish, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.flag.trip();
        wake(self.addr);
    }
}

/// The admission-control server (see the [module docs](self)).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
    registry: AlgorithmRegistry,
    journal: Option<Arc<Journal>>,
    shutdown: ShutdownFlag,
}

impl Server {
    /// Binds the listener (resolving port 0 to a real port) and opens
    /// — or, with [`ServerConfig::recover`], replays — the journal.
    ///
    /// # Errors
    ///
    /// Propagates bind and journal-open failures.
    pub fn bind(registry: AlgorithmRegistry, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let journal = match &config.journal {
            None => None,
            Some(path) if config.recover => Some(Arc::new(Journal::recover(path)?)),
            Some(path) => Some(Arc::new(Journal::create(path)?)),
        };
        Ok(Server {
            listener,
            addr,
            config,
            registry,
            journal,
            shutdown: ShutdownFlag::new(),
        })
    }

    /// The journal, when the server runs with one (tests and tooling
    /// inspect recovered session images through it).
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A shutdown trigger usable from any thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            flag: self.shutdown.clone(),
        }
    }

    /// Serves until shut down, then returns the run's totals.
    ///
    /// Blocks the calling thread (the acceptor) and spawns
    /// [`ServerConfig::workers`] worker threads for the connections.
    ///
    /// # Errors
    ///
    /// Returns early only on unrecoverable accept failures; per-request
    /// and per-connection failures are answered in-band.
    pub fn run(self) -> std::io::Result<ServerStats> {
        let Server {
            listener,
            addr: _,
            config,
            registry,
            journal,
            shutdown,
        } = self;
        let handle = ServerHandle {
            addr: listener.local_addr()?,
            flag: shutdown.clone(),
        };
        let queue: Bounded<TcpStream> = Bounded::new(config.queue_depth.max(1));
        let degraded_queue: Bounded<TcpStream> = Bounded::new(config.queue_depth.max(1));
        let mut stats = ServerStats::default();
        let serve = |queue: &Bounded<TcpStream>, tier: AdmissionTier| {
            let mut totals = ServerStats::default();
            while let Some(stream) = queue.pop() {
                totals.connections += 1;
                if tier == AdmissionTier::Degraded {
                    totals.degraded_connections += 1;
                }
                let conn = serve_tcp(&registry, &config, tier, journal.as_deref(), stream);
                totals.requests += conn.requests;
                totals.errors += conn.errors;
                if conn.shutdown_requested {
                    handle.shutdown();
                }
            }
            totals
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "the accept/worker pool is a server runtime, not an experiment batch; \
                      the batch engine only covers deterministic result merging"
        )]
        let worker_totals = std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(config.workers.max(1) + config.degraded_workers);
            let serve = &serve;
            for _ in 0..config.workers.max(1) {
                let queue = &queue;
                workers.push(scope.spawn(move || serve(queue, AdmissionTier::Exact)));
            }
            for _ in 0..config.degraded_workers {
                let queue = &degraded_queue;
                workers.push(scope.spawn(move || serve(queue, AdmissionTier::Degraded)));
            }
            let mut accept_failures = 0u32;
            loop {
                if shutdown.is_tripped() {
                    break;
                }
                let stream = match listener.accept() {
                    Ok((stream, _peer)) => {
                        accept_failures = 0;
                        stream
                    }
                    Err(_) if shutdown.is_tripped() => break,
                    Err(_) => {
                        // Transient (EMFILE, aborted handshake): keep
                        // serving, but never spin forever on a dead socket.
                        accept_failures += 1;
                        if accept_failures > 100 {
                            break;
                        }
                        continue;
                    }
                };
                if shutdown.is_tripped() {
                    // The wake-up nudge itself; drop it and stop.
                    break;
                }
                // Main pool first; spill to the overflow pool when it
                // is saturated; shed only when both queues are full.
                match queue.try_push(stream) {
                    Ok(()) => {}
                    Err(PushError::Full(stream)) => {
                        if config.degraded_workers == 0 {
                            stats.overloads += 1;
                            shed_overloaded(stream);
                            continue;
                        }
                        match degraded_queue.try_push(stream) {
                            Ok(()) => {}
                            Err(PushError::Full(stream)) => {
                                stats.overloads += 1;
                                shed_overloaded(stream);
                            }
                            Err(PushError::Closed(_)) => break,
                        }
                    }
                    Err(PushError::Closed(_)) => break,
                }
            }
            // Drain: workers finish queued + in-flight connections.
            queue.close();
            degraded_queue.close();
            workers.into_iter().map(join_worker).collect::<Vec<_>>()
        });
        for totals in worker_totals {
            stats.connections += totals.connections;
            stats.requests += totals.requests;
            stats.errors += totals.errors;
            stats.degraded_connections += totals.degraded_connections;
        }
        Ok(stats)
    }
}

/// Joins a pool worker, propagating its panic.
#[expect(
    clippy::expect_used,
    reason = "join() only errs if the worker panicked; serve_connection is panic-free, \
              so this propagates a bug rather than masking it"
)]
fn join_worker<T>(worker: std::thread::ScopedJoinHandle<'_, T>) -> T {
    worker.join().expect("worker thread panicked")
}

/// Sheds a connection the queue cannot take: one typed overload reply,
/// then close. Best-effort — a slow or gone peer cannot stall the
/// acceptor past the write timeout.
fn shed_overloaded(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let reply = Reply::Overload {
        error: "server overloaded; retry later".to_owned(),
    };
    // mclint: allow(reply-id) reason="shed happens before any frame is read; there is no request id to echo yet"
    let _ = write_frame(&mut stream, &reply.render(None));
}

/// Serves one TCP connection (transport setup + the generic loop).
fn serve_tcp(
    registry: &AlgorithmRegistry,
    config: &ServerConfig,
    tier: AdmissionTier,
    journal: Option<&Journal>,
    stream: TcpStream,
) -> ConnStats {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(config.idle_timeout);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let reader = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return ConnStats::default(),
    };
    serve_connection_outcome(registry, config, tier, journal, reader, stream).stats
}

/// What a handled request tells the connection loop to do next.
enum Control {
    Continue,
    Close,
    Shutdown,
}

/// One connection's session state: the live cluster plus the durable
/// name it is attached under (when journaled) and whether the overflow
/// pool serves it.
struct ConnSession {
    cluster: ClusterSession,
    /// The journal attachment to release when this session ends.
    name: Option<String>,
    degraded: bool,
}

/// Everything a finished connection leaves behind. The chaos harness
/// compares [`ConnOutcome::session`] against what journal recovery
/// rebuilds; the server itself only uses [`ConnOutcome::stats`].
pub struct ConnOutcome {
    /// The connection's request totals.
    pub stats: ConnStats,
    /// The session as it stood when the connection ended.
    pub session: Option<ClusterSession>,
    /// The durable name of that session, when it was journaled.
    pub session_name: Option<String>,
}

/// Serves one connection over any byte stream, as
/// [`serve_connection`], with the serving pool and journal explicit
/// and the final session state returned for inspection.
pub fn serve_connection_outcome<R: Read, W: Write>(
    registry: &AlgorithmRegistry,
    config: &ServerConfig,
    tier: AdmissionTier,
    journal: Option<&Journal>,
    reader: R,
    mut writer: W,
) -> ConnOutcome {
    let mut totals = ConnStats::default();
    let mut session: Option<ConnSession> = None;
    let mut frames = FrameReader::new(BufReader::new(reader), config.max_frame_len)
        .with_frame_deadline(config.frame_deadline);
    // Every reply line is written into this one buffer.
    let mut out = String::new();
    loop {
        let line = match frames.read_frame() {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e @ (FrameError::Oversized { .. } | FrameError::InvalidUtf8 { .. })) => {
                // The reader consumed the bad frame whole: answer it in
                // band and read on from the next frame boundary.
                totals.requests += 1;
                totals.errors += 1;
                let reply = Reply::error(match e {
                    FrameError::Oversized { max } => format!("frame exceeds the {max}-byte limit"),
                    _ => format!("malformed JSON: {e}"),
                });
                // mclint: allow(reply-id) reason="the rejected frame was never parsed, so its id is unknown by construction"
                reply.render_into(None, &mut out);
                if write_frame(&mut writer, &out).is_err() {
                    break;
                }
                continue;
            }
            Err(FrameError::TimedOut) => {
                let reply = Reply::Closed {
                    reason: "idle timeout".to_owned(),
                };
                // mclint: allow(reply-id) reason="timeout fires between requests; no request is in flight to correlate"
                reply.render_into(None, &mut out);
                let _ = write_frame(&mut writer, &out);
                break;
            }
            Err(FrameError::DeadlineExceeded) => {
                // The slowloris guard: a frame trickled in for longer
                // than the deadline. The stream is mid-frame (desynced),
                // so the connection cannot continue.
                let reply = Reply::Closed {
                    reason: "frame deadline exceeded".to_owned(),
                };
                // mclint: allow(reply-id) reason="the frame never completed, so no request id exists to echo"
                reply.render_into(None, &mut out);
                let _ = write_frame(&mut writer, &out);
                break;
            }
            Err(FrameError::Io(_)) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        totals.requests += 1;
        if totals.requests > config.max_requests {
            let reply = Reply::Closed {
                reason: format!("request cap ({}) reached", config.max_requests),
            };
            // mclint: allow(reply-id) reason="the cap notice is unsolicited (no request being answered), so no id exists"
            reply.render_into(None, &mut out);
            let _ = write_frame(&mut writer, &out);
            break;
        }
        let (id, reply, control) =
            handle_request(registry, config, tier, journal, &mut session, line);
        if matches!(reply, Reply::Error { .. }) {
            totals.errors += 1;
        }
        reply.render_into(id.as_ref(), &mut out);
        if write_frame(&mut writer, &out).is_err() {
            break;
        }
        match control {
            Control::Continue => {}
            Control::Close => break,
            Control::Shutdown => {
                totals.shutdown_requested = true;
                break;
            }
        }
    }
    // Release the durable name so a reconnecting client can resume it.
    let (cluster, name) = match session {
        None => (None, None),
        Some(s) => (Some(s.cluster), s.name),
    };
    if let (Some(journal), Some(name)) = (journal, name.as_deref()) {
        journal.detach(name);
    }
    ConnOutcome {
        stats: totals,
        session: cluster,
        session_name: name,
    }
}

/// Serves one connection over any byte stream — the whole session state
/// machine, independent of TCP (tests drive it with in-memory buffers).
///
/// Reads newline-delimited requests from `reader` until EOF, a fatal
/// I/O error, `close`, an honoured `shutdown`, the idle timeout
/// (surfaced by the transport as [`FrameError::TimedOut`]), a frame
/// outliving [`ServerConfig::frame_deadline`], or the per-connection
/// request cap. Runs on the main pool with no journal; the full-fidelity
/// entry point is [`serve_connection_outcome`].
pub fn serve_connection<R: Read, W: Write>(
    registry: &AlgorithmRegistry,
    config: &ServerConfig,
    reader: R,
    writer: W,
) -> ConnStats {
    serve_connection_outcome(registry, config, AdmissionTier::Exact, None, reader, writer).stats
}

/// Handles one request line against the connection's session.
fn handle_request(
    registry: &AlgorithmRegistry,
    config: &ServerConfig,
    tier: AdmissionTier,
    journal: Option<&Journal>,
    session: &mut Option<ConnSession>,
    line: &str,
) -> (Option<RequestId>, Reply, Control) {
    let env = match parse_envelope(line) {
        Ok(env) => env,
        Err(e) => return (e.id, Reply::error(e.message), Control::Continue),
    };
    let id = env.id;
    let no_session =
        || Reply::error("no open session on this connection; send `open_session` first".to_owned());
    let degraded = tier == AdmissionTier::Degraded;
    match env.request {
        Request::Eval(req) => match evaluate_request(registry, &req) {
            Ok(resp) => (id, Reply::Eval(resp), Control::Continue),
            Err(error) => (id, Reply::error(error), Control::Continue),
        },
        Request::OpenSession {
            algorithm,
            m,
            session: name,
        } => {
            if m > config.max_session_m {
                let reply = Reply::error(format!(
                    "`m` must be at most {} on this server",
                    config.max_session_m
                ));
                return (id, reply, Control::Continue);
            }
            // Reopening replaces the previous session wholesale (and a
            // failed reopen leaves no session, so its durable name is
            // immediately free for other connections).
            if let Some(old) = session.take() {
                if let (Some(j), Some(old_name)) = (journal, old.name.as_deref()) {
                    j.detach(old_name);
                }
            }
            let mut cluster = match registry.open_session(&algorithm, m) {
                Ok(cluster) => cluster,
                Err(e) => return (id, Reply::error(e.to_string()), Control::Continue),
            };
            let mut attached = None;
            if let (Some(j), Some(name)) = (journal, name) {
                match j.attach(&name, &algorithm, m) {
                    Err(e) => return (id, Reply::error(e.to_string()), Control::Continue),
                    Ok(None) => {}
                    Ok(Some(image)) => {
                        // Resume: force-place the journaled rows. The
                        // replay is bit-identical to having served the
                        // original commits (restore follows the same
                        // insertion-order summary discipline).
                        for (task, k) in image.rows {
                            if !cluster.restore(task, k) {
                                j.detach(&name);
                                let reply = Reply::error(format!(
                                    "recovered image for session `{name}` is inconsistent; \
                                     reopen under a fresh name"
                                ));
                                return (id, reply, Control::Continue);
                            }
                        }
                    }
                }
                attached = Some(name);
            }
            let reply = Reply::Session(SessionReply {
                algorithm: cluster.name().to_owned(),
                m,
                degraded,
            });
            *session = Some(ConnSession {
                cluster,
                name: attached,
                degraded,
            });
            (id, reply, Control::Continue)
        }
        Request::Admit { task, op_id } => match session.as_mut() {
            None => (id, no_session(), Control::Continue),
            Some(conn) => {
                if let (Some(j), Some(name), Some(op)) =
                    (journal, conn.name.as_deref(), op_id.as_deref())
                {
                    if let Some(done) = j.lookup_applied(name, op) {
                        // Already applied: replay the recorded verdict
                        // instead of re-executing (the reply a retry
                        // after a lost response expects).
                        let reply = match done.kind {
                            OpKind::Admit => Reply::Admit(AdmitReply {
                                admitted: true,
                                processor: Some(done.processor),
                                task: done.task,
                                tasks: done.tasks,
                                detail: None,
                                degraded: conn.degraded,
                            }),
                            OpKind::Remove => Reply::error(format!(
                                "op_id `{op}` was already applied to a remove"
                            )),
                        };
                        return (id, reply, Control::Continue);
                    }
                }
                if conn.cluster.task_count() >= config.max_session_tasks {
                    let reply = Reply::error(format!(
                        "session task cap ({}) reached; remove tasks first",
                        config.max_session_tasks
                    ));
                    return (id, reply, Control::Continue);
                }
                let task_id = task.id().0;
                let reply = match conn.cluster.admit(task) {
                    Ok(processor) => {
                        let tasks = conn.cluster.task_count();
                        // Journal (and flush) before replying: a reply
                        // the client saw is a commit recovery replays.
                        if let (Some(j), Some(name)) = (journal, conn.name.as_deref()) {
                            j.committed_admit(name, op_id.as_deref(), &task, processor, tasks);
                        }
                        Reply::Admit(AdmitReply {
                            admitted: true,
                            processor: Some(processor),
                            task: task_id,
                            tasks,
                            detail: None,
                            degraded: conn.degraded,
                        })
                    }
                    Err(e) => Reply::Admit(AdmitReply {
                        admitted: false,
                        processor: None,
                        task: task_id,
                        tasks: conn.cluster.task_count(),
                        detail: Some(e.to_string()),
                        degraded: conn.degraded,
                    }),
                };
                (id, reply, Control::Continue)
            }
        },
        Request::Remove { task_id, op_id } => match session.as_mut() {
            None => (id, no_session(), Control::Continue),
            Some(conn) => {
                if let (Some(j), Some(name), Some(op)) =
                    (journal, conn.name.as_deref(), op_id.as_deref())
                {
                    if let Some(done) = j.lookup_applied(name, op) {
                        let reply = match done.kind {
                            OpKind::Remove => Reply::Remove(RemoveReply {
                                removed: true,
                                processor: Some(done.processor),
                                task: done.task,
                                tasks: done.tasks,
                            }),
                            OpKind::Admit => Reply::error(format!(
                                "op_id `{op}` was already applied to an admit"
                            )),
                        };
                        return (id, reply, Control::Continue);
                    }
                }
                let processor = conn.cluster.remove(task_id);
                let tasks = conn.cluster.task_count();
                if let Some(k) = processor {
                    if let (Some(j), Some(name)) = (journal, conn.name.as_deref()) {
                        j.committed_remove(name, op_id.as_deref(), task_id, k, tasks);
                    }
                }
                let reply = Reply::Remove(RemoveReply {
                    removed: processor.is_some(),
                    processor,
                    task: task_id.0,
                    tasks,
                });
                (id, reply, Control::Continue)
            }
        },
        Request::Query { probe } => match session.as_mut() {
            None => (id, no_session(), Control::Continue),
            Some(conn) => {
                let cluster = &mut conn.cluster;
                let probe = probe.map(|task| {
                    let processor = cluster.probe(&task);
                    ProbeReply {
                        fits: processor.is_some(),
                        processor,
                    }
                });
                let reply = Reply::Query(QueryReply {
                    algorithm: cluster.name().to_owned(),
                    m: cluster.processor_count(),
                    tasks: cluster.task_count(),
                    partition: cluster
                        .snapshot()
                        .into_iter()
                        .map(|proc| proc.into_iter().map(|t| t.0).collect())
                        .collect(),
                    probe,
                    degraded: conn.degraded,
                });
                (id, reply, Control::Continue)
            }
        },
        Request::Close => {
            let reply = Reply::Closed {
                reason: "client close".to_owned(),
            };
            (id, reply, Control::Close)
        }
        Request::Shutdown => {
            if config.allow_shutdown {
                let reply = Reply::Closed {
                    reason: "server shutdown".to_owned(),
                };
                (id, reply, Control::Shutdown)
            } else {
                let reply = Reply::error("in-band shutdown is disabled on this server");
                (id, reply, Control::Continue)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_reply, Envelope};
    use mcsched_gen::{seeded_corpus, DeadlineModel, TaskSetSpec};
    use mcsched_model::TaskSet;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn config() -> ServerConfig {
        ServerConfig::default()
    }

    fn drive(config: &ServerConfig, input: &str) -> (Vec<(Option<RequestId>, Reply)>, ConnStats) {
        let registry = AlgorithmRegistry::standard();
        let mut out = Vec::new();
        let stats = serve_connection(&registry, config, input.as_bytes(), &mut out);
        let text = String::from_utf8(out).unwrap();
        let replies = text
            .lines()
            .map(|l| parse_reply(l).unwrap_or_else(|e| panic!("{l}: {e}")))
            .collect();
        (replies, stats)
    }

    #[test]
    fn session_lifecycle_over_a_connection() {
        let input = concat!(
            r#"{"id": 1, "type": "open_session", "algorithm": "CA-UDP-EDF-VD", "m": 2}"#,
            "\n",
            r#"{"id": 2, "type": "admit", "task": {"id": 0, "period": 10, "criticality": "HI", "wcet_lo": 2, "wcet_hi": 4}}"#,
            "\n",
            r#"{"id": 3, "type": "admit", "task": {"id": 1, "period": 20, "wcet_lo": 6}}"#,
            "\n",
            r#"{"id": 4, "type": "query", "task": {"id": 2, "period": 20, "wcet_lo": 1}}"#,
            "\n",
            r#"{"id": 5, "type": "remove", "task_id": 0}"#,
            "\n",
            r#"{"id": 6, "type": "close"}"#,
            "\n",
        );
        let (replies, stats) = drive(&config(), input);
        assert_eq!(replies.len(), 6);
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.errors, 0);
        for (i, (id, _)) in replies.iter().enumerate() {
            assert_eq!(id, &Some(RequestId::Num(i as u64 + 1)), "reply {i}");
        }
        match &replies[0].1 {
            Reply::Session(s) => {
                assert_eq!(s.algorithm, "CA-UDP-EDF-VD");
                assert_eq!(s.m, 2);
            }
            other => panic!("expected session, got {other:?}"),
        }
        match &replies[1].1 {
            Reply::Admit(a) => {
                assert!(a.admitted);
                assert_eq!(a.task, 0);
                assert_eq!(a.tasks, 1);
            }
            other => panic!("expected admit, got {other:?}"),
        }
        match &replies[3].1 {
            Reply::Query(q) => {
                assert_eq!(q.tasks, 2);
                assert_eq!(q.m, 2);
                assert!(q.probe.as_ref().unwrap().fits);
            }
            other => panic!("expected query, got {other:?}"),
        }
        match &replies[4].1 {
            Reply::Remove(r) => {
                assert!(r.removed);
                assert_eq!(r.tasks, 1);
            }
            other => panic!("expected remove, got {other:?}"),
        }
        assert!(matches!(&replies[5].1, Reply::Closed { reason } if reason == "client close"));
    }

    #[test]
    fn session_verbs_without_session_are_errors() {
        let input = concat!(
            r#"{"type": "admit", "task": {"id": 0, "period": 10, "wcet_lo": 1}}"#,
            "\n",
            r#"{"type": "remove", "task_id": 0}"#,
            "\n",
            r#"{"type": "query"}"#,
            "\n",
        );
        let (replies, stats) = drive(&config(), input);
        assert_eq!(stats.errors, 3);
        for (_, reply) in &replies {
            assert!(
                matches!(reply, Reply::Error { error } if error.contains("open_session")),
                "{reply:?}"
            );
        }
    }

    #[test]
    fn eval_works_inline_with_sessions() {
        let input = concat!(
            r#"{"algorithm": "CU-UDP-EDF-VD", "m": 2, "tasks": [{"id": 0, "period": 10, "wcet_lo": 1}]}"#,
            "\n",
        );
        let (replies, _) = drive(&config(), input);
        assert!(matches!(&replies[0].1, Reply::Eval(r) if r.schedulable));
    }

    #[test]
    fn caps_are_enforced() {
        // Request cap: the third request is answered with a typed close.
        let mut cfg = config();
        cfg.max_requests = 2;
        let input = concat!(
            r#"{"type": "query"}"#,
            "\n",
            r#"{"type": "query"}"#,
            "\n",
            r#"{"type": "query"}"#,
            "\n",
            r#"{"type": "query"}"#,
            "\n",
        );
        let (replies, stats) = drive(&cfg, input);
        assert_eq!(replies.len(), 3);
        assert_eq!(stats.requests, 3);
        assert!(
            matches!(&replies[2].1, Reply::Closed { reason } if reason.contains("request cap"))
        );

        // Session-m cap.
        let mut cfg = config();
        cfg.max_session_m = 8;
        let input = concat!(
            r#"{"type": "open_session", "algorithm": "CU-UDP-AMC", "m": 9}"#,
            "\n"
        );
        let (replies, _) = drive(&cfg, input);
        assert!(matches!(&replies[0].1, Reply::Error { error } if error.contains("at most 8")));

        // Session task cap.
        let mut cfg = config();
        cfg.max_session_tasks = 1;
        let input = concat!(
            r#"{"type": "open_session", "algorithm": "CU-UDP-EDF-VD", "m": 2}"#,
            "\n",
            r#"{"type": "admit", "task": {"id": 0, "period": 100, "wcet_lo": 1}}"#,
            "\n",
            r#"{"type": "admit", "task": {"id": 1, "period": 100, "wcet_lo": 1}}"#,
            "\n",
        );
        let (replies, _) = drive(&cfg, input);
        assert!(matches!(&replies[1].1, Reply::Admit(a) if a.admitted));
        assert!(matches!(&replies[2].1, Reply::Error { error } if error.contains("task cap")));
    }

    #[test]
    fn oversized_frames_error_and_resync() {
        let mut cfg = config();
        cfg.max_frame_len = 64;
        let long = format!("{{\"pad\": \"{}\"}}\n", "x".repeat(200));
        let input = format!(
            "{long}{}\n",
            r#"{"algorithm": "CU-UDP-EDF-VD", "m": 1, "tasks": []}"#
        );
        let (replies, stats) = drive(&cfg, &input);
        assert_eq!(replies.len(), 2);
        assert_eq!(stats.errors, 1);
        assert!(matches!(&replies[0].1, Reply::Error { error } if error.contains("64-byte limit")));
        assert!(matches!(&replies[1].1, Reply::Eval(_)));
    }

    #[test]
    fn malformed_lines_echo_ids_and_keep_the_session() {
        let input = concat!(
            r#"{"id": 1, "type": "open_session", "algorithm": "CA-UDP-EY", "m": 2}"#,
            "\n",
            r#"{"id": 2, "type": "admit"}"#,
            "\n",
            r#"{"id": 3, "type": "query"}"#,
            "\n",
        );
        let (replies, stats) = drive(&config(), input);
        assert_eq!(stats.errors, 1);
        assert_eq!(replies[1].0, Some(RequestId::Num(2)));
        assert!(matches!(&replies[1].1, Reply::Error { .. }));
        // The parse error did not tear down the session.
        assert!(matches!(&replies[2].1, Reply::Query(q) if q.algorithm == "CA-UDP-EY"));
    }

    #[test]
    fn shutdown_request_is_gated() {
        let input = concat!(
            r#"{"type": "shutdown"}"#,
            "\n",
            r#"{"type": "close"}"#,
            "\n"
        );
        let (replies, stats) = drive(&config(), input);
        assert!(!stats.shutdown_requested);
        assert!(matches!(&replies[0].1, Reply::Error { error } if error.contains("disabled")));

        let mut cfg = config();
        cfg.allow_shutdown = true;
        let (replies, stats) = drive(&cfg, input);
        assert!(stats.shutdown_requested);
        assert_eq!(replies.len(), 1, "connection ends at shutdown");
        assert!(matches!(&replies[0].1, Reply::Closed { reason } if reason == "server shutdown"));
    }

    /// Serves `input` on `tier` and returns the reply lines and the
    /// connection's outcome.
    fn serve_on(tier: AdmissionTier, input: &str) -> (Vec<String>, ConnOutcome) {
        let registry = AlgorithmRegistry::standard();
        let mut out = Vec::new();
        let outcome =
            serve_connection_outcome(&registry, &config(), tier, None, input.as_bytes(), &mut out);
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_owned).collect(), outcome)
    }

    /// The five uniprocessor tests a session can run on.
    const SESSION_TESTS: [&str; 5] = [
        "CU-UDP-EDF-VD",
        "CU-UDP-EY",
        "CU-UDP-ECDF",
        "CA-UDP-AMC-rtb",
        "CA-UDP-AMC-max",
    ];

    /// Serves `input` on the main pool and on the overflow pool and
    /// asserts the overflow pool's replies are the main pool's with
    /// `"degraded":true` added to every session, admit and query reply.
    /// Returns the main pool's replies and both final sessions.
    fn serve_on_both_pools(
        name: &str,
        input: &str,
    ) -> (Vec<String>, ClusterSession, ClusterSession) {
        const TAG: &str = r#","degraded":true"#;
        let (exact, exact_outcome) = serve_on(AdmissionTier::Exact, input);
        let (spilled, spilled_outcome) = serve_on(AdmissionTier::Degraded, input);
        let untagged: Vec<String> = spilled.iter().map(|l| l.replace(TAG, "")).collect();
        assert_eq!(untagged, exact, "{name}");
        for line in &spilled {
            let (_, reply) = parse_reply(line).unwrap();
            let tagged = matches!(reply, Reply::Session(_) | Reply::Admit(_) | Reply::Query(_));
            assert_eq!(line.contains(TAG), tagged, "{name}: {line}");
        }
        (
            exact,
            exact_outcome.session.expect("main-pool session"),
            spilled_outcome.session.expect("overflow session"),
        )
    }

    /// The `(task, admitted)` pairs of the admit replies among `replies`.
    fn admit_verdicts(replies: &[String]) -> Vec<(u32, bool)> {
        replies
            .iter()
            .filter_map(|l| match parse_reply(l).unwrap().1 {
                Reply::Admit(a) => Some((a.task, a.admitted)),
                _ => None,
            })
            .collect()
    }

    /// Both pools open the same exact sessions: one script with passing
    /// and failing LC and HC admits, removes, probes and a malformed
    /// request gets the same replies under every test, apart from the
    /// overflow tag.
    #[test]
    fn overflow_pool_tags_replies_and_serves_the_exact_verdicts() {
        for name in SESSION_TESTS {
            let open =
                format!(r#"{{"id": 1, "type": "open_session", "algorithm": "{name}", "m": 2}}"#);
            let input = [
                open.as_str(),
                r#"{"id": 2, "type": "admit", "task": {"id": 0, "period": 100, "wcet_lo": 1}}"#,
                r#"{"id": 3, "type": "admit", "task": {"id": 1, "period": 10, "criticality": "HI", "wcet_lo": 2, "wcet_hi": 4}}"#,
                r#"{"id": 4, "type": "admit", "task": {"id": 2, "period": 20, "criticality": "HI", "wcet_lo": 6, "wcet_hi": 14}}"#,
                r#"{"id": 5, "type": "admit", "task": {"id": 3, "period": 10, "wcet_lo": 7}}"#,
                r#"{"id": 6, "type": "admit", "task": {"id": 4, "period": 10, "criticality": "HI", "wcet_lo": 5, "wcet_hi": 9}}"#,
                r#"{"id": 7, "type": "query", "task": {"id": 5, "period": 10, "wcet_lo": 9}}"#,
                r#"{"id": 8, "type": "remove", "task_id": 2}"#,
                r#"{"id": 9, "type": "remove", "task_id": 99}"#,
                r#"{"id": 10, "type": "admit", "task": {"id": 4, "period": 10, "criticality": "HI", "wcet_lo": 5, "wcet_hi": 9}}"#,
                r#"{"id": 11, "type": "admit"}"#,
                r#"{"id": 12, "type": "query", "task": {"id": 6, "period": 40, "wcet_lo": 2}}"#,
                r#"{"id": 13, "type": "close"}"#,
            ]
            .join("\n");
            let (exact, exact_session, spilled_session) = serve_on_both_pools(name, &input);
            assert_eq!(exact.len(), 13, "{name}: {exact:#?}");
            // The script must exercise both verdicts, on HC tasks too.
            let verdicts = admit_verdicts(&exact);
            let hc_admitted = verdicts.iter().any(|&(t, ok)| ok && [1, 2, 4].contains(&t));
            assert!(hc_admitted, "{name}: no HC admit passed: {exact:#?}");
            let rejected = verdicts.iter().any(|&(_, ok)| !ok);
            assert!(rejected, "{name}: no admit failed: {exact:#?}");
            assert_eq!(
                spilled_session.snapshot(),
                exact_session.snapshot(),
                "{name}"
            );
        }
    }

    /// A script that opens a session of `name` on `m` processors, admits
    /// every task of `ts`, removes a random earlier task after about one
    /// admit in three, and ends with a placement query.
    fn admit_script(name: &str, m: usize, ts: &TaskSet, rng: &mut StdRng) -> String {
        let mut lines = Vec::new();
        let mut push = |request: Request| {
            let id = RequestId::Num(lines.len() as u64);
            lines.push(Envelope::with_id(id, request).render());
        };
        push(Request::OpenSession {
            algorithm: name.to_owned(),
            m,
            session: None,
        });
        let mut seen = Vec::new();
        for &task in ts.iter() {
            seen.push(task.id());
            push(Request::Admit { task, op_id: None });
            if seen.len() > 2 && rng.random_range(0..3u32) == 0 {
                let victim = seen.swap_remove(rng.random_range(0..seen.len()));
                push(Request::Remove {
                    task_id: victim,
                    op_id: None,
                });
            }
        }
        push(Request::Query { probe: None });
        lines.join("\n")
    }

    /// Generated task sets, admitted task by task with removals in
    /// between, get the same verdicts and leave the same placement on
    /// both pools, under both deadline models and every test.
    #[test]
    fn overflow_sessions_admit_like_the_exact_ones() {
        let mut rng = StdRng::seed_from_u64(0xFA57);
        for deadlines in [DeadlineModel::Implicit, DeadlineModel::Constrained] {
            let sets = seeded_corpus(6, 0xFA57, |p| TaskSetSpec::paper_defaults(2, p, deadlines));
            for name in SESSION_TESTS {
                let (mut admitted, mut rejected) = (0usize, 0usize);
                for ts in &sets {
                    let input = admit_script(name, 2, ts, &mut rng);
                    let (exact, exact_session, spilled_session) = serve_on_both_pools(name, &input);
                    for (_, ok) in admit_verdicts(&exact) {
                        if ok {
                            admitted += 1;
                        } else {
                            rejected += 1;
                        }
                    }
                    assert_eq!(spilled_session.snapshot(), exact_session.snapshot(), "{ts}");
                }
                assert!(admitted >= 20, "{name}: only {admitted} admits");
                assert!(rejected >= 1, "{name}: no admit failed");
            }
        }
    }

    /// Every processor an overflow session commits to passes its test's
    /// one-shot check, on two and three processors.
    #[test]
    fn overflow_sessions_commit_only_exactly_valid_sets() {
        let registry = AlgorithmRegistry::standard();
        let mut rng = StdRng::seed_from_u64(0xC1A0);
        for name in SESSION_TESTS {
            let test = registry.spec(name).unwrap().test.test();
            let mut admitted = 0usize;
            for m in [2, 3] {
                let sets = seeded_corpus(5, 0xC1A0, |p| {
                    TaskSetSpec::paper_defaults(m, p, DeadlineModel::Constrained)
                });
                for ts in &sets {
                    let input = admit_script(name, m, ts, &mut rng);
                    let (replies, outcome) = serve_on(AdmissionTier::Degraded, &input);
                    admitted += admit_verdicts(&replies).iter().filter(|v| v.1).count();
                    let session = outcome.session.expect("overflow session");
                    for k in 0..m {
                        let committed = session.processor(k).unwrap();
                        assert!(
                            committed.is_empty() || test.is_schedulable(committed),
                            "{name}: processor {k} fails the exact test: {committed}"
                        );
                    }
                }
            }
            assert!(admitted >= 25, "{name}: only {admitted} admits");
        }
    }

    /// A connection that finds the main pool busy and its queue full
    /// lands on the overflow pool: its replies are tagged, and it admits
    /// the HC task the main pool would admit.
    #[test]
    fn overflow_connections_spill_to_the_degraded_queue_over_tcp() {
        use std::io::BufRead;
        let server = Server::bind(
            AlgorithmRegistry::standard(),
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                degraded_workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            (stream, reader)
        };
        let request = |(stream, reader): &mut (TcpStream, BufReader<TcpStream>), line: &str| {
            writeln!(stream, "{line}").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply
        };
        let open = r#"{"type": "open_session", "algorithm": "CU-UDP-ECDF", "m": 2}"#;

        // Connection 1 occupies the only worker; connection 2 fills its
        // queue.
        let mut first = connect();
        assert!(!request(&mut first, open).contains("degraded"));
        let second = connect();

        let mut third = connect();
        let session = request(&mut third, open);
        assert!(session.contains(r#""degraded":true"#), "{session}");
        let hc = r#"{"type": "admit", "task": {"id": 1, "period": 10, "criticality": "HI", "wcet_lo": 2, "wcet_hi": 4}}"#;
        let admit = request(&mut third, hc);
        assert!(
            admit.contains(r#""admitted":true"#) && admit.contains(r#""degraded":true"#),
            "{admit}"
        );

        drop((third, second, first));
        handle.shutdown();
        let stats = thread.join().unwrap().unwrap();
        assert_eq!(stats.degraded_connections, 1, "{stats:?}");
        assert_eq!(stats.overloads, 0, "{stats:?}");
    }

    #[test]
    fn named_sessions_are_exclusive_while_attached() {
        let path = std::env::temp_dir().join(format!("mcexp-busy-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path).unwrap();
        let registry = AlgorithmRegistry::standard();
        let open = concat!(
            r#"{"type": "open_session", "algorithm": "CU-UDP-EY", "m": 2, "session": "dup"}"#,
            "\n",
        );

        // First claimant holds the name for the whole connection…
        assert_eq!(journal.attach("dup", "CU-UDP-EY", 2), Ok(None));
        let mut out = Vec::new();
        serve_connection_outcome(
            &registry,
            &config(),
            AdmissionTier::Exact,
            Some(&journal),
            open.as_bytes(),
            &mut out,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("\"type\":\"error\""),
            "second claimant is refused while the name is live: {text}"
        );

        // …and once released, the name is reusable.
        journal.detach("dup");
        let mut out = Vec::new();
        let outcome = serve_connection_outcome(
            &registry,
            &config(),
            AdmissionTier::Exact,
            Some(&journal),
            open.as_bytes(),
            &mut out,
        );
        assert!(outcome.session.is_some(), "attach succeeds after detach");
        assert_eq!(outcome.session_name.as_deref(), Some("dup"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn op_id_replay_on_a_live_session_is_idempotent() {
        let path = std::env::temp_dir().join(format!("mcexp-opid-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path).unwrap();
        let registry = AlgorithmRegistry::standard();
        let admit =
            r#"{"type": "admit", "op_id": "a1", "task": {"id": 7, "period": 10, "wcet_lo": 1}}"#;
        let input = format!(
            "{}\n{admit}\n{admit}\n{}\n",
            r#"{"type": "open_session", "algorithm": "CU-UDP-EDF-VD", "m": 2, "session": "ses"}"#,
            r#"{"type": "query"}"#,
        );
        let mut out = Vec::new();
        serve_connection_outcome(
            &registry,
            &config(),
            AdmissionTier::Exact,
            Some(&journal),
            input.as_bytes(),
            &mut out,
        );
        let text = String::from_utf8(out).unwrap();
        let replies: Vec<_> = text
            .lines()
            .map(|l| parse_reply(l).unwrap_or_else(|e| panic!("{l}: {e}")).1)
            .collect();
        let (Reply::Admit(first), Reply::Admit(second)) = (&replies[1], &replies[2]) else {
            panic!("expected two admit replies: {text}");
        };
        assert!(first.admitted && second.admitted);
        assert_eq!(first.tasks, 1);
        assert_eq!(
            second.tasks, 1,
            "the duplicate op_id replays the recorded verdict, not a second commit"
        );
        match &replies[3] {
            Reply::Query(q) => assert_eq!(q.tasks, 1, "exactly one commit happened"),
            other => panic!("expected query, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn op_ids_differing_in_invalid_bytes_are_rejected_not_replayed() {
        let path = std::env::temp_dir().join(format!("mcexp-utf8-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::create(&path).unwrap();
        let registry = AlgorithmRegistry::standard();
        let admit = |op: &[u8]| {
            let mut line = br#"{"type": "admit", "id": 1, "op_id": "A"#.to_vec();
            line.extend_from_slice(op);
            line.extend_from_slice(br#"B", "task": {"id": 7, "period": 10, "wcet_lo": 1}}"#);
            line.push(b'\n');
            line
        };
        let mut input = concat!(
            r#"{"type": "open_session", "algorithm": "CU-UDP-EDF-VD", "m": 2, "session": "ses"}"#,
            "\n",
        )
        .as_bytes()
        .to_vec();
        input.extend_from_slice(&admit(b"\xff"));
        input.extend_from_slice(&admit(b"\xfe"));
        input.extend_from_slice(b"{\"type\": \"query\"}\n");
        let mut out = Vec::new();
        let outcome = serve_connection_outcome(
            &registry,
            &config(),
            AdmissionTier::Exact,
            Some(&journal),
            &input[..],
            &mut out,
        );
        let text = String::from_utf8(out).unwrap();
        let replies: Vec<_> = text
            .lines()
            .map(|l| parse_reply(l).unwrap_or_else(|e| panic!("{l}: {e}")))
            .collect();
        assert_eq!(replies.len(), 4, "{text}");
        for (id, reply) in &replies[1..3] {
            assert_eq!(*id, None, "the undecoded frame has no id to echo");
            assert!(
                matches!(reply, Reply::Error { error } if error.starts_with("malformed JSON: invalid UTF-8")),
                "{reply:?}"
            );
        }
        match &replies[3].1 {
            Reply::Query(q) => assert_eq!(q.tasks, 0, "neither admit committed"),
            other => panic!("expected query, got {other:?}"),
        }
        assert_eq!(outcome.stats.errors, 2);
        assert_eq!(
            journal.stats().appended,
            1,
            "the open record is the journal's only record"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_replaces_the_session() {
        let input = concat!(
            r#"{"type": "open_session", "algorithm": "CU-UDP-EDF-VD", "m": 2}"#,
            "\n",
            r#"{"type": "admit", "task": {"id": 0, "period": 10, "wcet_lo": 1}}"#,
            "\n",
            r#"{"type": "open_session", "algorithm": "CA-UDP-ECDF", "m": 3}"#,
            "\n",
            r#"{"type": "query"}"#,
            "\n",
        );
        let (replies, _) = drive(&config(), input);
        match &replies[3].1 {
            Reply::Query(q) => {
                assert_eq!(q.algorithm, "CA-UDP-ECDF");
                assert_eq!(q.m, 3);
                assert_eq!(q.tasks, 0, "fresh session starts empty");
            }
            other => panic!("expected query, got {other:?}"),
        }
    }

    /// Keeps every byte it is given and counts the calls that gave them:
    /// a socket would `send` once per call.
    #[derive(Default)]
    struct CountingWriter {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            Ok(bufs
                .iter()
                .map(|buf| {
                    self.out.extend_from_slice(buf);
                    buf.len()
                })
                .sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serves `input` from `reader` into a [`CountingWriter`] and returns
    /// the reply lines and the write calls they took.
    fn count_writes(config: &ServerConfig, reader: impl Read) -> (Vec<String>, usize) {
        let registry = AlgorithmRegistry::standard();
        let mut writer = CountingWriter::default();
        serve_connection(&registry, config, reader, &mut writer);
        let text = String::from_utf8(writer.out).unwrap();
        (text.lines().map(str::to_owned).collect(), writer.calls)
    }

    #[test]
    fn every_reply_is_one_write() {
        let mut cfg = config();
        cfg.max_frame_len = 512;
        let oversized = format!("{{\"pad\": \"{}\"}}", "x".repeat(600));
        let input = [
            r#"{"id": 1, "type": "open_session", "algorithm": "CU-UDP-ECDF", "m": 2}"#,
            r#"{"id": 2, "type": "admit", "task": {"id": 0, "period": 10, "criticality": "HI", "wcet_lo": 2, "wcet_hi": 4}}"#,
            r#"{"id": 3, "type": "admit", "task": {"id": 1, "period": 10, "wcet_lo": 9}}"#,
            r#"{"id": 4, "type": "query", "task": {"id": 2, "period": 20, "wcet_lo": 1}}"#,
            r#"{"id": 5, "type": "query"}"#,
            r#"{"id": 6, "type": "remove", "task_id": 0}"#,
            r#"{"id": 7, "algorithm": "CU-UDP-EDF-VD", "m": 1, "tasks": [{"id": 0, "period": 10, "wcet_lo": 1}]}"#,
            r#"{"id": 8, "type": "admit", "task": {"id": 3, "period": 10, "wcet_lo": 1, "wcet_hi": "4"}}"#,
            r#"{"id": 9, "type": "warp"}"#,
            "{not json",
            &oversized,
            r#"{"id": 10, "type": "shutdown"}"#,
            r#"{"id": 11, "type": "close"}"#,
        ]
        .join("\n");
        let (replies, calls) = count_writes(&cfg, input.as_bytes());
        let kinds: Vec<String> = replies
            .iter()
            .map(|l| parse_reply(l).unwrap().1.kind().to_owned())
            .collect();
        assert_eq!(
            kinds,
            [
                "session", "admit", "admit", "query", "query", "remove", "eval", "error", "error",
                "error", "error", "error", "closed"
            ]
        );
        assert_eq!(calls, replies.len(), "{replies:#?}");
    }

    /// Yields its bytes, then reports the read timeout.
    struct ThenTimeout<'a>(&'a [u8]);

    impl Read for ThenTimeout<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.0.read(buf)
        }
    }

    #[test]
    fn closed_notices_are_one_write() {
        // Request cap.
        let mut cfg = config();
        cfg.max_requests = 1;
        let input = "{\"type\": \"query\"}\n{\"type\": \"query\"}\n";
        let (replies, calls) = count_writes(&cfg, input.as_bytes());
        assert_eq!(replies.len(), 2);
        assert!(
            replies[1].contains("request cap (1) reached"),
            "{}",
            replies[1]
        );
        assert_eq!(calls, 2);

        // Idle timeout.
        let input = ThenTimeout(b"{\"type\": \"query\"}\n");
        let (replies, calls) = count_writes(&config(), input);
        assert_eq!(replies.len(), 2);
        assert!(replies[1].contains("idle timeout"), "{}", replies[1]);
        assert_eq!(calls, 2);
    }
}
