//! Property tests for protocol v1 under transport damage: truncating
//! or corrupting a valid frame must yield a typed in-band error (or a
//! changed-but-valid request), never a panic or a desynced session.
//!
//! The harness mangles the middle frame of a five-request session and
//! drives the damaged byte stream through the real connection loop
//! ([`serve_connection`]): every reply line must still parse as a typed
//! reply, and the *undamaged* requests after the mangled one must be
//! answered on their own ids — the state machine resynchronizes at the
//! next newline no matter what the damage did.

use mcsched::model::{Task, TaskSet};
use mcsched::service::protocol::{
    parse_envelope, parse_reply, Envelope, EvalRequest, Reply, Request, RequestId,
};
use mcsched::service::server::{serve_connection, ServerConfig};
use mcsched_core::AlgorithmRegistry;
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// A deterministic valid session script: open, admit, admit, query,
/// close — all id-tagged. Returns the rendered lines.
fn script(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let algorithm = ["CU-UDP-EDF-VD", "CU-UDP-ECDF", "CA-UDP-AMC-rtb"][(seed % 3) as usize];
    let mut task = |id: u32| -> Task {
        let period = rng.random_range(10..100u64);
        let lo = rng.random_range(1..=period / 4).max(1);
        if rng.random_bool(0.5) {
            let hi = rng.random_range(lo..=period / 2).max(lo);
            Task::hi(id, period, lo, hi).expect("valid HC task")
        } else {
            Task::lo(id, period, lo).expect("valid LC task")
        }
    };
    let requests = vec![
        Request::OpenSession {
            algorithm: algorithm.to_owned(),
            m: 2,
            session: None,
        },
        Request::Admit {
            task: task(1),
            op_id: None,
        },
        Request::Admit {
            task: task(2),
            op_id: None,
        },
        Request::Query { probe: None },
        Request::Close,
    ];
    requests
        .into_iter()
        .enumerate()
        .map(|(i, r)| Envelope::with_id(RequestId::Num(i as u64), r).render() + "\n")
        .collect()
}

/// Damages `line` (newline-terminated) in place: either truncates the
/// frame body at `pos` or overwrites one body byte with `byte`. The
/// trailing newline is preserved — this models frame *content* damage,
/// not lost framing (torn tails are the chaos harness's job).
fn mangle(line: &str, truncate: bool, pos: usize, byte: u8) -> String {
    let body = line.trim_end_matches('\n');
    let cut = pos % body.len().max(1);
    let mut damaged: Vec<u8> = if truncate {
        body.as_bytes()[..cut].to_vec()
    } else {
        let mut bytes = body.as_bytes().to_vec();
        // Never inject a newline: that would *split* the frame, which
        // is a different (also handled) failure mode than corruption.
        bytes[cut] = if byte == b'\n' { 0 } else { byte };
        bytes
    };
    damaged.push(b'\n');
    String::from_utf8_lossy(&damaged).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn parser_survives_any_frame_damage(
        seed in any::<u64>(),
        truncate in any::<bool>(),
        pos in 0..4096usize,
        byte in any::<u32>(),
    ) {
        for line in script(seed) {
            let damaged = mangle(&line, truncate, pos, byte as u8);
            // Ok (damage produced another valid request) and Err (typed
            // parse failure) are both acceptable; only a panic is not.
            let _ = parse_envelope(damaged.trim_end());
        }
    }

    #[test]
    fn session_resynchronizes_after_a_damaged_frame(
        seed in any::<u64>(),
        truncate in any::<bool>(),
        pos in 0..4096usize,
        byte in any::<u32>(),
    ) {
        let registry = AlgorithmRegistry::standard();
        let config = ServerConfig::default();
        let lines = script(seed);
        let mut input = String::new();
        for (i, line) in lines.iter().enumerate() {
            if i == 1 {
                input.push_str(&mangle(line, truncate, pos, byte as u8));
            } else {
                input.push_str(line);
            }
        }

        let mut output = Vec::new();
        serve_connection(&registry, &config, input.as_bytes(), &mut output);
        let text = String::from_utf8(output).expect("replies are UTF-8");

        // Every reply line is a typed protocol reply — the server never
        // emits garbage in response to garbage.
        let replies: Vec<(Option<RequestId>, Reply)> = text
            .lines()
            .map(|line| {
                parse_reply(line)
                    .unwrap_or_else(|e| panic!("untyped reply line: {e}\n{line}"))
            })
            .collect();

        // The damaged frame cannot desync the stream: the untouched
        // requests after it are answered on their own ids with their
        // own reply types.
        let find = |id: u64| {
            replies
                .iter()
                .find(|(rid, _)| *rid == Some(RequestId::Num(id)))
                .map(|(_, reply)| reply)
        };
        prop_assert!(
            matches!(find(0), Some(Reply::Session(_))),
            "open answered: {text}"
        );
        prop_assert!(
            matches!(find(2), Some(Reply::Admit(_))),
            "post-damage admit answered: {text}"
        );
        prop_assert!(
            matches!(find(3), Some(Reply::Query(_))),
            "post-damage query answered: {text}"
        );
        prop_assert!(
            matches!(find(4), Some(Reply::Closed { .. })),
            "close answered: {text}"
        );
    }
}

/// One admit line of exactly `len` bytes whose `op_id` is one long
/// string of one-, two- and three-byte characters with escapes between
/// the runs. Returns the line and the `op_id`.
fn long_admit_line(len: usize) -> (String, String) {
    let task = Task::hi(7, 100, 10, 20).expect("valid HC task");
    let render = |op_id: &str| {
        Envelope::with_id(
            RequestId::Num(1),
            Request::Admit {
                task,
                op_id: Some(op_id.to_owned()),
            },
        )
        .render()
    };
    let mut op_id = "aé☃\"\\\t".repeat(len / 16);
    let short = len - render(&op_id).len();
    op_id.push_str(&"x".repeat(short));
    (render(&op_id), op_id)
}

/// The largest inputs a worker can be handed parse to their typed
/// requests: a full frame (the server's `max_frame_len`) holding one
/// long string, and an `eval` line of 700 tasks.
#[test]
fn largest_frames_parse_to_typed_requests() {
    let max = ServerConfig::default().max_frame_len;
    let (line, op_id) = long_admit_line(max);
    assert_eq!(line.len(), max, "the frame fills the limit exactly");
    let env = parse_envelope(&line).unwrap_or_else(|e| panic!("{}", e.message));
    assert_eq!(env.id, Some(RequestId::Num(1)));
    assert_eq!(
        env.request,
        Request::Admit {
            task: Task::hi(7, 100, 10, 20).expect("valid HC task"),
            op_id: Some(op_id)
        }
    );

    let tasks: Vec<Task> = (0..700u32)
        .map(|i| {
            let period = 1_000 + u64::from(i);
            if i % 2 == 0 {
                Task::hi(i, period, 1, 2).expect("valid HC task")
            } else {
                Task::lo(i, period, 1).expect("valid LC task")
            }
        })
        .collect();
    let request = Request::Eval(EvalRequest {
        algorithm: "CU-UDP-ECDF".to_owned(),
        m: 4,
        tasks: TaskSet::try_from_tasks(tasks).expect("distinct ids"),
    });
    let line = Envelope::with_id(RequestId::Str("big-eval".to_owned()), request.clone()).render();
    assert!(line.len() > 50_000, "{} bytes", line.len());
    let env = parse_envelope(&line).unwrap_or_else(|e| panic!("{}", e.message));
    assert_eq!(env.id, Some(RequestId::Str("big-eval".to_owned())));
    assert_eq!(env.request, request);
}

/// A `wcet_hi` or `deadline` that is present but not an integer is an
/// error on every verb that carries a task; it does not fall back to the
/// default (`C^H = C^L`, `D = T`). `null` still means absent.
#[test]
fn mistyped_budgets_are_errors() {
    let wrap = |verb: &str, task: &str| match verb {
        "eval" => format!(
            r#"{{"type":"eval","id":1,"algorithm":"CU-UDP-EDF-VD","m":1,"tasks":[{task}]}}"#
        ),
        _ => format!(r#"{{"type":"{verb}","id":1,"task":{task}}}"#),
    };
    for verb in ["admit", "query", "eval"] {
        let prefix = if verb == "eval" { "tasks[0]" } else { "task" };
        for field in ["wcet_hi", "deadline"] {
            for value in [r#""9""#, "9.5", "-1", "true", "[9]", r#"{"v":9}"#] {
                let task = format!(
                    r#"{{"id":0,"period":10,"criticality":"HI","wcet_lo":2,"{field}":{value}}}"#
                );
                let line = wrap(verb, &task);
                let err = parse_envelope(&line).expect_err(&line);
                assert_eq!(err.id, Some(RequestId::Num(1)), "{line}");
                assert_eq!(
                    err.message,
                    format!("{prefix}: `{field}` must be an integer"),
                    "{line}"
                );
            }
            // Absent and null take the default; an integral number is
            // read as the integer it is.
            for value in [None, Some("null"), Some("9"), Some("9.0")] {
                let extra = value.map_or(String::new(), |v| format!(r#","{field}":{v}"#));
                let task =
                    format!(r#"{{"id":0,"period":10,"criticality":"HI","wcet_lo":2{extra}}}"#);
                let line = wrap(verb, &task);
                let env = parse_envelope(&line).unwrap_or_else(|e| panic!("{line}: {}", e.message));
                let task = match env.request {
                    Request::Admit { task, .. } => task,
                    Request::Query { probe } => probe.expect("probe"),
                    Request::Eval(req) => req.tasks.as_slice()[0],
                    other => panic!("{line} parsed as {}", other.kind()),
                };
                let (wcet_hi, deadline) = match (field, value) {
                    ("wcet_hi", Some("9" | "9.0")) => (9, 10),
                    ("deadline", Some("9" | "9.0")) => (2, 9),
                    _ => (2, 10),
                };
                assert_eq!(task.wcet_hi().as_ticks(), wcet_hi, "{line}");
                assert_eq!(task.deadline().as_ticks(), deadline, "{line}");
            }
        }
    }
}
