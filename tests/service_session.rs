//! End-to-end checks of the persistent admission-control service:
//!
//! * a randomized admit/remove/query lifecycle served over the
//!   connection state machine is **bit-identical** to a clone-and-retest
//!   oracle — a [`ClusterSession`] running the same placement policy on
//!   [`CloneRetestState`]s (cold full re-analysis per verdict);
//! * protocol v1 envelopes round-trip through render/parse, and legacy
//!   `eval` lines still parse;
//! * malformed and oversized frames are answered in-band (echoing the
//!   request id when one was recovered) without killing the session;
//! * a real TCP server sheds connections beyond its pool + queue with a
//!   typed overload reply and shuts down cleanly.

use mcsched::analysis::AdmissionState;
use mcsched::core::ClusterSession;
use mcsched::prelude::*;
use mcsched::service::protocol::{
    parse_envelope, parse_reply, Envelope, EvalRequest, Reply, Request, RequestId,
};
use mcsched::service::server::{serve_connection, Server, ServerConfig};
use mcsched_oracle::CloneRetestState;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The oracle: the same cluster placement policy, but every processor
/// verdict is a from-scratch one-shot analysis (clone-and-retest).
fn oracle_cluster(spec: &AlgorithmSpec, m: usize) -> ClusterSession {
    let states = (0..m)
        .map(|_| Box::new(CloneRetestState::new(spec.test.test())) as Box<dyn AdmissionState>)
        .collect();
    ClusterSession::from_states(spec.name(), spec.strategy.clone(), states)
}

/// One scripted session operation (mirrors the protocol verbs).
#[derive(Debug, Clone)]
enum Op {
    Admit(Task),
    Remove(TaskId),
    Query(Option<Task>),
}

/// A deterministic random task: periods from a harmonic-ish palette,
/// ~40% HC, demand heavy enough that some admissions are rejected.
fn random_task(rng: &mut StdRng, id: u32) -> Task {
    let period = *[5u64, 10, 20, 40, 100]
        .get(rng.random_range(0..5))
        .expect("palette index in range");
    let wcet_lo = rng.random_range(1..=period.div_ceil(2));
    if rng.random_range(0..10) < 4 {
        let wcet_hi = rng.random_range(wcet_lo..=period);
        Task::hi(id, period, wcet_lo, wcet_hi).expect("valid HC task")
    } else {
        Task::lo(id, period, wcet_lo).expect("valid LC task")
    }
}

/// Scripts a randomized lifecycle: mostly admits, some removals of
/// previously-seen ids (committed or not), some probing queries.
fn random_ops(rng: &mut StdRng, steps: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(steps);
    let mut next_id = 0u32;
    let mut seen: Vec<u32> = Vec::new();
    for _ in 0..steps {
        match rng.random_range(0..10) {
            0..=6 => {
                let task = random_task(rng, next_id);
                seen.push(next_id);
                next_id += 1;
                ops.push(Op::Admit(task));
            }
            7..=8 if !seen.is_empty() => {
                let id = seen[rng.random_range(0..seen.len())];
                ops.push(Op::Remove(TaskId(id)));
            }
            _ => {
                let task = random_task(rng, next_id);
                next_id += 1;
                ops.push(Op::Query(Some(task)));
            }
        }
    }
    ops.push(Op::Query(None));
    ops
}

fn snapshot_u32(cluster: &ClusterSession) -> Vec<Vec<u32>> {
    cluster
        .snapshot()
        .into_iter()
        .map(|p| p.into_iter().map(|id| id.0).collect())
        .collect()
}

#[test]
fn randomized_sessions_match_the_clone_and_retest_oracle() {
    let registry = AlgorithmRegistry::standard();
    let config = ServerConfig::default();
    for (algorithm, m, seed) in [
        ("CU-UDP-ECDF", 3, 7u64),
        ("CA-UDP-EY", 2, 11),
        ("CU-UDP-AMC", 3, 13),
        ("CA-F-F-EDF-VD", 2, 17),
    ] {
        let spec = registry.spec(algorithm).expect("registered algorithm");
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = random_ops(&mut rng, 80);

        // Script the whole session as one connection's input.
        let mut input = Vec::new();
        let mut send = |id: u64, request: Request| {
            let line = Envelope::with_id(RequestId::Num(id), request).render();
            writeln!(input, "{line}").expect("in-memory write");
        };
        send(
            0,
            Request::OpenSession {
                algorithm: algorithm.to_owned(),
                m,
                session: None,
            },
        );
        for (i, op) in ops.iter().enumerate() {
            let request = match op {
                Op::Admit(task) => Request::Admit {
                    task: *task,
                    op_id: None,
                },
                Op::Remove(id) => Request::Remove {
                    task_id: *id,
                    op_id: None,
                },
                Op::Query(probe) => Request::Query { probe: *probe },
            };
            send(1 + i as u64, request);
        }

        let mut output = Vec::new();
        let stats = serve_connection(&registry, &config, input.as_slice(), &mut output);
        assert_eq!(stats.requests, 1 + ops.len() as u64, "{algorithm}");
        assert_eq!(stats.errors, 0, "{algorithm}");

        let text = String::from_utf8(output).expect("utf-8 replies");
        let mut replies = text.lines().map(|line| {
            parse_reply(line).unwrap_or_else(|e| panic!("bad reply line: {e}\n{line}"))
        });

        // Step the oracle in lockstep and demand identical verdicts.
        let mut oracle = oracle_cluster(&spec, m);
        let (id, reply) = replies.next().expect("open_session reply");
        assert_eq!(id, Some(RequestId::Num(0)));
        match reply {
            Reply::Session(s) => {
                assert_eq!(s.algorithm, spec.name());
                assert_eq!(s.m, m);
            }
            other => panic!("expected session reply, got {other:?}"),
        }
        for (i, op) in ops.iter().enumerate() {
            let (id, reply) = replies.next().expect("one reply per request");
            assert_eq!(
                id,
                Some(RequestId::Num(1 + i as u64)),
                "{algorithm} op {op:?}"
            );
            match (op, reply) {
                (Op::Admit(task), Reply::Admit(a)) => {
                    let want = oracle.admit(*task);
                    assert_eq!(a.admitted, want.is_ok(), "{algorithm} admit {task:?}");
                    assert_eq!(a.processor, want.ok(), "{algorithm} admit {task:?}");
                    assert_eq!(a.task, task.id().0);
                    assert_eq!(a.tasks, oracle.task_count());
                    assert_eq!(a.detail.is_some(), !a.admitted);
                }
                (Op::Remove(task_id), Reply::Remove(r)) => {
                    let want = oracle.remove(*task_id);
                    assert_eq!(r.removed, want.is_some(), "{algorithm} remove {task_id:?}");
                    assert_eq!(r.processor, want, "{algorithm} remove {task_id:?}");
                    assert_eq!(r.task, task_id.0);
                    assert_eq!(r.tasks, oracle.task_count());
                }
                (Op::Query(probe), Reply::Query(q)) => {
                    assert_eq!(q.algorithm, spec.name());
                    assert_eq!(q.m, m);
                    assert_eq!(q.tasks, oracle.task_count());
                    assert_eq!(q.partition, snapshot_u32(&oracle), "{algorithm}");
                    match probe {
                        Some(task) => {
                            let want = oracle.probe(task);
                            let got = q.probe.expect("probe verdict");
                            assert_eq!(got.fits, want.is_some(), "{algorithm} probe {task:?}");
                            assert_eq!(got.processor, want, "{algorithm} probe {task:?}");
                        }
                        None => assert!(q.probe.is_none()),
                    }
                }
                (op, reply) => panic!("{algorithm}: op {op:?} answered with {reply:?}"),
            }
        }
        assert!(replies.next().is_none(), "{algorithm}: extra replies");
    }
}

#[test]
fn protocol_envelopes_round_trip_and_legacy_eval_parses() {
    let task = Task::hi(3, 20, 2, 5).expect("valid task");
    let mut tasks = TaskSet::new();
    tasks.try_push(task).expect("fresh id");
    let requests = [
        Request::Eval(EvalRequest {
            algorithm: "CU-UDP-EDF-VD".to_owned(),
            m: 2,
            tasks,
        }),
        Request::OpenSession {
            algorithm: "CA-UDP-EY".to_owned(),
            m: 4,
            session: None,
        },
        Request::OpenSession {
            algorithm: "CA-UDP-EY".to_owned(),
            m: 4,
            session: Some("durable-1".to_owned()),
        },
        Request::Admit { task, op_id: None },
        Request::Admit {
            task,
            op_id: Some("op-1".to_owned()),
        },
        Request::Remove {
            task_id: TaskId(3),
            op_id: None,
        },
        Request::Query { probe: Some(task) },
        Request::Query { probe: None },
        Request::Close,
        Request::Shutdown,
    ];
    for request in requests {
        for envelope in [
            Envelope::new(request.clone()),
            Envelope::with_id(RequestId::Num(9), request.clone()),
            Envelope::with_id(RequestId::Str("req-a".to_owned()), request.clone()),
        ] {
            let line = envelope.render();
            let parsed = parse_envelope(&line)
                .unwrap_or_else(|e| panic!("round trip failed for {line}: {}", e.message));
            assert_eq!(parsed, envelope, "{line}");
        }
    }

    // The pre-v1 line shape (no `type`, no `v`) is still an eval.
    let legacy =
        r#"{"algorithm":"CU-UDP-EDF-VD","m":2,"tasks":[{"id":0,"period":10,"wcet_lo":2}]}"#;
    let parsed = parse_envelope(legacy).expect("legacy lines parse");
    assert!(parsed.id.is_none());
    match parsed.request {
        Request::Eval(req) => {
            assert_eq!(req.algorithm, "CU-UDP-EDF-VD");
            assert_eq!(req.m, 2);
            assert_eq!(req.tasks.len(), 1);
        }
        other => panic!("legacy line parsed as {other:?}"),
    }
}

#[test]
fn malformed_and_oversized_frames_do_not_kill_the_session() {
    let registry = AlgorithmRegistry::standard();
    let config = ServerConfig {
        max_frame_len: 512,
        ..ServerConfig::default()
    };
    let mut input = Vec::new();
    writeln!(
        input,
        r#"{{"type":"open_session","v":1,"id":1,"algorithm":"CU-UDP-EDF-VD","m":2}}"#
    )
    .unwrap();
    // Malformed: the verb needs a task; the recovered id must be echoed.
    writeln!(input, r#"{{"type":"admit","v":1,"id":2}}"#).unwrap();
    // Oversized: blows the 512-byte frame cap mid-line.
    writeln!(
        input,
        "{{\"type\":\"admit\",\"garbage\":\"{}\"}}",
        "x".repeat(700)
    )
    .unwrap();
    // The session must still be live afterwards.
    writeln!(
        input,
        r#"{{"type":"admit","v":1,"id":3,"task":{{"id":0,"period":10,"criticality":"HI","wcet_lo":2,"wcet_hi":4}}}}"#
    )
    .unwrap();

    let mut output = Vec::new();
    let stats = serve_connection(&registry, &config, input.as_slice(), &mut output);
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.errors, 2);

    let text = String::from_utf8(output).unwrap();
    let replies: Vec<(Option<RequestId>, Reply)> = text
        .lines()
        .map(|line| parse_reply(line).unwrap_or_else(|e| panic!("{e}\n{line}")))
        .collect();
    assert_eq!(replies.len(), 4);
    assert!(matches!(
        &replies[0],
        (Some(RequestId::Num(1)), Reply::Session(_))
    ));
    match &replies[1] {
        (Some(RequestId::Num(2)), Reply::Error { error }) => {
            assert!(error.contains("task"), "{error}");
        }
        other => panic!("expected id-echoing error, got {other:?}"),
    }
    match &replies[2] {
        (None, Reply::Error { error }) => assert!(error.contains("512"), "{error}"),
        other => panic!("expected oversized-frame error, got {other:?}"),
    }
    match &replies[3] {
        (Some(RequestId::Num(3)), Reply::Admit(a)) => assert!(a.admitted),
        other => panic!("expected a live session after the bad frames, got {other:?}"),
    }
}

#[test]
fn tcp_server_sheds_overload_and_shuts_down_cleanly() {
    let server = Server::bind(
        AlgorithmRegistry::standard(),
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    // One live session over real TCP occupies the only worker.
    let mut busy = TcpStream::connect(addr).expect("connect");
    busy.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut busy_reader = BufReader::new(busy.try_clone().unwrap());
    let mut line = String::new();
    for request in [
        r#"{"type":"open_session","v":1,"id":1,"algorithm":"CU-UDP-ECDF","m":2}"#.to_owned(),
        r#"{"type":"admit","v":1,"id":2,"task":{"id":0,"period":10,"criticality":"HI","wcet_lo":2,"wcet_hi":4}}"#.to_owned(),
    ] {
        writeln!(busy, "{request}").unwrap();
        busy.flush().unwrap();
        line.clear();
        busy_reader.read_line(&mut line).expect("reply");
        let (_, reply) = parse_reply(line.trim_end()).expect("typed reply");
        assert!(
            matches!(reply, Reply::Session(_) | Reply::Admit(_)),
            "{reply:?}"
        );
    }

    // Flood: the worker is busy, the queue holds one; the rest must be
    // shed with a typed overload reply, not a silent hangup.
    let mut held = Vec::new();
    let mut overloads = 0;
    for _ in 0..6 {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(400)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply_line = String::new();
        match reader.read_line(&mut reply_line) {
            Ok(n) if n > 0 => {
                let (_, reply) = parse_reply(reply_line.trim_end()).expect("typed reply");
                assert!(matches!(reply, Reply::Overload { .. }), "{reply:?}");
                overloads += 1;
            }
            _ => held.push(stream), // accepted (queued) — hold it open
        }
    }
    assert!(overloads >= 3, "expected sheds, saw {overloads}");

    // Release every connection, then stop the server via its handle.
    drop(held);
    drop(busy_reader);
    drop(busy);
    handle.shutdown();
    let stats = thread
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    assert_eq!(stats.overloads, overloads);
    assert!(stats.requests >= 2);
    assert_eq!(stats.errors, 0);
}
