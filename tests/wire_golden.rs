//! Golden wire and journal lines: the exact bytes the service writes.
//!
//! Replies, request envelopes and journal records are written by a
//! direct JSON-line writer. Clients, recovery and the CI byte-diff of a
//! recovered `query` depend on those bytes, so every line below is
//! pinned verbatim: field order, `null` for absent optional fields, the
//! `degraded` flag dropped when false, and the string escape rules
//! (`\"`, `\\`, `\n`, `\r`, `\t`, `\u00XX` for the other control
//! characters; everything else, `/` and non-ASCII included, literal).
//!
//! A property test then checks that random replies, with arbitrary text
//! in every string field, survive `parse_reply(render(r))`.

use mcsched::exp::journal::Journal;
use mcsched::exp::protocol::{
    parse_envelope, parse_reply, AdmitReply, Envelope, EvalRequest, EvalResponse, ProbeReply,
    QueryReply, RemoveReply, Reply, Request, RequestId, SessionReply,
};
use mcsched::exp::server::{serve_connection, ServerConfig};
use mcsched::model::{Task, TaskId, TaskSet};
use mcsched_core::AlgorithmRegistry;
use proptest::prelude::*;

/// Text that needs every kind of escape, plus literal `/` and
/// multi-byte characters.
const AWKWARD: &str = "q\"b\\s/\n\r\t\u{1}\u{1f}\u{7f} é☃𝄞";

fn hi(id: u32, t: u64, cl: u64, ch: u64) -> Task {
    Task::hi(id, t, cl, ch).unwrap()
}

fn replies() -> Vec<Reply> {
    vec![
        Reply::Eval(EvalResponse {
            algorithm: "CU-UDP-EDF-VD".to_owned(),
            m: 2,
            schedulable: true,
            partition: Some(vec![vec![0, 3], vec![], vec![1]]),
            rejected_task: None,
            detail: None,
        }),
        Reply::Eval(EvalResponse {
            algorithm: AWKWARD.to_owned(),
            m: 1,
            schedulable: false,
            partition: None,
            rejected_task: Some(u32::MAX),
            detail: Some(AWKWARD.to_owned()),
        }),
        Reply::Session(SessionReply {
            algorithm: "CA-UDP-EY".to_owned(),
            m: 4,
            degraded: false,
        }),
        Reply::Session(SessionReply {
            algorithm: "CA-UDP-EY".to_owned(),
            m: 4,
            degraded: true,
        }),
        Reply::Admit(AdmitReply {
            admitted: true,
            processor: Some(1),
            task: 9,
            tasks: 3,
            detail: None,
            degraded: false,
        }),
        Reply::Admit(AdmitReply {
            admitted: false,
            processor: None,
            task: 9,
            tasks: 2,
            detail: Some(AWKWARD.to_owned()),
            degraded: true,
        }),
        Reply::Remove(RemoveReply {
            removed: true,
            processor: Some(0),
            task: 9,
            tasks: 1,
        }),
        Reply::Remove(RemoveReply {
            removed: false,
            processor: None,
            task: 4,
            tasks: 0,
        }),
        Reply::Query(QueryReply {
            algorithm: "CA-UDP-EY".to_owned(),
            m: 2,
            tasks: 2,
            partition: vec![vec![1], vec![2]],
            probe: Some(ProbeReply {
                fits: true,
                processor: Some(1),
            }),
            degraded: true,
        }),
        Reply::Query(QueryReply {
            algorithm: "CU-UDP-ECDF".to_owned(),
            m: 3,
            tasks: 0,
            partition: vec![vec![], vec![], vec![]],
            probe: Some(ProbeReply {
                fits: false,
                processor: None,
            }),
            degraded: false,
        }),
        Reply::Query(QueryReply {
            algorithm: "CU-UDP-ECDF".to_owned(),
            m: 1,
            tasks: 1,
            partition: vec![vec![7]],
            probe: None,
            degraded: false,
        }),
        Reply::Closed {
            reason: "client close".to_owned(),
        },
        Reply::Overload {
            error: "server overloaded; retry later".to_owned(),
        },
        Reply::error(AWKWARD),
    ]
}

fn ids() -> [Option<RequestId>; 3] {
    [
        None,
        Some(RequestId::Num(u64::MAX)),
        Some(RequestId::Str(AWKWARD.to_owned())),
    ]
}

/// Reply lines as the Value-tree serializer wrote them: each reply of
/// [`replies`] once per id of [`ids`], in that nesting order.
const GOLDEN_REPLIES: &[&str] = &[
    "{\"type\":\"eval\",\"v\":1,\"algorithm\":\"CU-UDP-EDF-VD\",\"m\":2,\"schedulable\":true,\"partition\":[[0,3],[],[1]],\"rejected_task\":null,\"detail\":null}",
    "{\"type\":\"eval\",\"v\":1,\"id\":18446744073709551615,\"algorithm\":\"CU-UDP-EDF-VD\",\"m\":2,\"schedulable\":true,\"partition\":[[0,3],[],[1]],\"rejected_task\":null,\"detail\":null}",
    "{\"type\":\"eval\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"algorithm\":\"CU-UDP-EDF-VD\",\"m\":2,\"schedulable\":true,\"partition\":[[0,3],[],[1]],\"rejected_task\":null,\"detail\":null}",
    "{\"type\":\"eval\",\"v\":1,\"algorithm\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"m\":1,\"schedulable\":false,\"partition\":null,\"rejected_task\":4294967295,\"detail\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\"}",
    "{\"type\":\"eval\",\"v\":1,\"id\":18446744073709551615,\"algorithm\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"m\":1,\"schedulable\":false,\"partition\":null,\"rejected_task\":4294967295,\"detail\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\"}",
    "{\"type\":\"eval\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"algorithm\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"m\":1,\"schedulable\":false,\"partition\":null,\"rejected_task\":4294967295,\"detail\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\"}",
    "{\"type\":\"session\",\"v\":1,\"algorithm\":\"CA-UDP-EY\",\"m\":4}",
    "{\"type\":\"session\",\"v\":1,\"id\":18446744073709551615,\"algorithm\":\"CA-UDP-EY\",\"m\":4}",
    "{\"type\":\"session\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"algorithm\":\"CA-UDP-EY\",\"m\":4}",
    "{\"type\":\"session\",\"v\":1,\"algorithm\":\"CA-UDP-EY\",\"m\":4,\"degraded\":true}",
    "{\"type\":\"session\",\"v\":1,\"id\":18446744073709551615,\"algorithm\":\"CA-UDP-EY\",\"m\":4,\"degraded\":true}",
    "{\"type\":\"session\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"algorithm\":\"CA-UDP-EY\",\"m\":4,\"degraded\":true}",
    "{\"type\":\"admit\",\"v\":1,\"admitted\":true,\"processor\":1,\"task\":9,\"tasks\":3,\"detail\":null}",
    "{\"type\":\"admit\",\"v\":1,\"id\":18446744073709551615,\"admitted\":true,\"processor\":1,\"task\":9,\"tasks\":3,\"detail\":null}",
    "{\"type\":\"admit\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"admitted\":true,\"processor\":1,\"task\":9,\"tasks\":3,\"detail\":null}",
    "{\"type\":\"admit\",\"v\":1,\"admitted\":false,\"processor\":null,\"task\":9,\"tasks\":2,\"detail\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"degraded\":true}",
    "{\"type\":\"admit\",\"v\":1,\"id\":18446744073709551615,\"admitted\":false,\"processor\":null,\"task\":9,\"tasks\":2,\"detail\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"degraded\":true}",
    "{\"type\":\"admit\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"admitted\":false,\"processor\":null,\"task\":9,\"tasks\":2,\"detail\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"degraded\":true}",
    "{\"type\":\"remove\",\"v\":1,\"removed\":true,\"processor\":0,\"task\":9,\"tasks\":1}",
    "{\"type\":\"remove\",\"v\":1,\"id\":18446744073709551615,\"removed\":true,\"processor\":0,\"task\":9,\"tasks\":1}",
    "{\"type\":\"remove\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"removed\":true,\"processor\":0,\"task\":9,\"tasks\":1}",
    "{\"type\":\"remove\",\"v\":1,\"removed\":false,\"processor\":null,\"task\":4,\"tasks\":0}",
    "{\"type\":\"remove\",\"v\":1,\"id\":18446744073709551615,\"removed\":false,\"processor\":null,\"task\":4,\"tasks\":0}",
    "{\"type\":\"remove\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"removed\":false,\"processor\":null,\"task\":4,\"tasks\":0}",
    "{\"type\":\"query\",\"v\":1,\"algorithm\":\"CA-UDP-EY\",\"m\":2,\"tasks\":2,\"partition\":[[1],[2]],\"probe\":{\"fits\":true,\"processor\":1},\"degraded\":true}",
    "{\"type\":\"query\",\"v\":1,\"id\":18446744073709551615,\"algorithm\":\"CA-UDP-EY\",\"m\":2,\"tasks\":2,\"partition\":[[1],[2]],\"probe\":{\"fits\":true,\"processor\":1},\"degraded\":true}",
    "{\"type\":\"query\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"algorithm\":\"CA-UDP-EY\",\"m\":2,\"tasks\":2,\"partition\":[[1],[2]],\"probe\":{\"fits\":true,\"processor\":1},\"degraded\":true}",
    "{\"type\":\"query\",\"v\":1,\"algorithm\":\"CU-UDP-ECDF\",\"m\":3,\"tasks\":0,\"partition\":[[],[],[]],\"probe\":{\"fits\":false,\"processor\":null}}",
    "{\"type\":\"query\",\"v\":1,\"id\":18446744073709551615,\"algorithm\":\"CU-UDP-ECDF\",\"m\":3,\"tasks\":0,\"partition\":[[],[],[]],\"probe\":{\"fits\":false,\"processor\":null}}",
    "{\"type\":\"query\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"algorithm\":\"CU-UDP-ECDF\",\"m\":3,\"tasks\":0,\"partition\":[[],[],[]],\"probe\":{\"fits\":false,\"processor\":null}}",
    "{\"type\":\"query\",\"v\":1,\"algorithm\":\"CU-UDP-ECDF\",\"m\":1,\"tasks\":1,\"partition\":[[7]],\"probe\":null}",
    "{\"type\":\"query\",\"v\":1,\"id\":18446744073709551615,\"algorithm\":\"CU-UDP-ECDF\",\"m\":1,\"tasks\":1,\"partition\":[[7]],\"probe\":null}",
    "{\"type\":\"query\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"algorithm\":\"CU-UDP-ECDF\",\"m\":1,\"tasks\":1,\"partition\":[[7]],\"probe\":null}",
    "{\"type\":\"closed\",\"v\":1,\"reason\":\"client close\"}",
    "{\"type\":\"closed\",\"v\":1,\"id\":18446744073709551615,\"reason\":\"client close\"}",
    "{\"type\":\"closed\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"reason\":\"client close\"}",
    "{\"type\":\"overload\",\"v\":1,\"error\":\"server overloaded; retry later\"}",
    "{\"type\":\"overload\",\"v\":1,\"id\":18446744073709551615,\"error\":\"server overloaded; retry later\"}",
    "{\"type\":\"overload\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"error\":\"server overloaded; retry later\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":18446744073709551615,\"error\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"error\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\"}",

];

fn envelopes() -> Vec<Envelope> {
    let tasks = TaskSet::try_from_tasks(vec![
        hi(0, 10, 2, 4),
        Task::lo(1, 20, 6).unwrap(),
        Task::builder(2)
            .period(50)
            .deadline(40)
            .wcet_lo(3)
            .try_build()
            .unwrap(),
    ])
    .unwrap();
    vec![
        Envelope::new(Request::Eval(EvalRequest {
            algorithm: "CU-UDP-EDF-VD".to_owned(),
            m: 2,
            tasks,
        })),
        Envelope::with_id(
            RequestId::Num(7),
            Request::Eval(EvalRequest {
                algorithm: AWKWARD.to_owned(),
                m: 1,
                tasks: TaskSet::try_from_tasks(vec![]).unwrap(),
            }),
        ),
        Envelope::with_id(
            RequestId::Num(7),
            Request::OpenSession {
                algorithm: "CA-UDP-ECDF".to_owned(),
                m: 4,
                session: None,
            },
        ),
        Envelope::new(Request::OpenSession {
            algorithm: "CU-UDP-EY".to_owned(),
            m: 2,
            session: Some(AWKWARD.to_owned()),
        }),
        Envelope::with_id(
            RequestId::Str(AWKWARD.to_owned()),
            Request::Admit {
                task: hi(3, 30, 5, 9),
                op_id: None,
            },
        ),
        Envelope::new(Request::Admit {
            task: Task::lo(5, u64::MAX, 5).unwrap(),
            op_id: Some(AWKWARD.to_owned()),
        }),
        Envelope::new(Request::Remove {
            task_id: TaskId(3),
            op_id: None,
        }),
        Envelope::with_id(
            RequestId::Num(0),
            Request::Remove {
                task_id: TaskId(u32::MAX),
                op_id: Some("op-42".to_owned()),
            },
        ),
        Envelope::new(Request::Query { probe: None }),
        Envelope::new(Request::Query {
            probe: Some(hi(4, 40, 1, 2)),
        }),
        Envelope::with_id(RequestId::Num(1), Request::Close),
        Envelope::new(Request::Shutdown),
    ]
}

/// Request lines as the Value-tree serializer wrote them, one per
/// envelope of [`envelopes`].
const GOLDEN_ENVELOPES: &[&str] = &[
    "{\"type\":\"eval\",\"v\":1,\"algorithm\":\"CU-UDP-EDF-VD\",\"m\":2,\"tasks\":[{\"id\":0,\"period\":10,\"criticality\":\"HI\",\"wcet_lo\":2,\"wcet_hi\":4,\"deadline\":10},{\"id\":1,\"period\":20,\"criticality\":\"LO\",\"wcet_lo\":6,\"wcet_hi\":6,\"deadline\":20},{\"id\":2,\"period\":50,\"criticality\":\"LO\",\"wcet_lo\":3,\"wcet_hi\":3,\"deadline\":40}]}",
    "{\"type\":\"eval\",\"v\":1,\"id\":7,\"algorithm\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"m\":1,\"tasks\":[]}",
    "{\"type\":\"open_session\",\"v\":1,\"id\":7,\"algorithm\":\"CA-UDP-ECDF\",\"m\":4}",
    "{\"type\":\"open_session\",\"v\":1,\"algorithm\":\"CU-UDP-EY\",\"m\":2,\"session\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\"}",
    "{\"type\":\"admit\",\"v\":1,\"id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"task\":{\"id\":3,\"period\":30,\"criticality\":\"HI\",\"wcet_lo\":5,\"wcet_hi\":9,\"deadline\":30}}",
    "{\"type\":\"admit\",\"v\":1,\"task\":{\"id\":5,\"period\":18446744073709551615,\"criticality\":\"LO\",\"wcet_lo\":5,\"wcet_hi\":5,\"deadline\":18446744073709551615},\"op_id\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\"}",
    "{\"type\":\"remove\",\"v\":1,\"task_id\":3}",
    "{\"type\":\"remove\",\"v\":1,\"id\":0,\"task_id\":4294967295,\"op_id\":\"op-42\"}",
    "{\"type\":\"query\",\"v\":1}",
    "{\"type\":\"query\",\"v\":1,\"task\":{\"id\":4,\"period\":40,\"criticality\":\"HI\",\"wcet_lo\":1,\"wcet_hi\":2,\"deadline\":40}}",
    "{\"type\":\"close\",\"v\":1,\"id\":1}",
    "{\"type\":\"shutdown\",\"v\":1}",

];

/// Drives one journal through `open`, `admit` and `remove` records for
/// two sessions and returns the file's lines. With `compact_after`, the
/// last append triggers a compaction, so the file holds the snapshot
/// (`open`, one `admit` per surviving row, and the `applied` window).
fn journal_lines(tag: &str, compact_after: Option<usize>) -> Vec<String> {
    let path = std::env::temp_dir().join(format!(
        "mcsched-wire-golden-{tag}-{}.jsonl",
        std::process::id()
    ));
    let mut journal = Journal::create(&path).unwrap();
    if let Some(records) = compact_after {
        journal = journal.with_compact_threshold(records);
    }
    let b = "b-session";
    journal.attach(b, "CA-UDP-AMC-max", 3).unwrap();
    journal.attach(AWKWARD, "CU-UDP-ECDF", 2).unwrap();
    journal.committed_admit(AWKWARD, Some(AWKWARD), &hi(1, 10, 2, 4), 0, 1);
    journal.committed_admit(AWKWARD, None, &Task::lo(2, 20, 6).unwrap(), 1, 2);
    journal.committed_admit(b, Some("b-op"), &hi(u32::MAX, u64::MAX, 1, 2), 2, 1);
    journal.committed_remove(AWKWARD, Some("rm\"1"), TaskId(1), 0, 1);
    journal.committed_remove(b, None, TaskId(u32::MAX), 2, 0);
    drop(journal);
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    text.lines().map(str::to_owned).collect()
}

/// The journal's append-only records, in the order [`journal_lines`]
/// writes them.
const GOLDEN_JOURNAL: &[&str] = &[
    "{\"j\":\"open\",\"s\":\"b-session\",\"algorithm\":\"CA-UDP-AMC-max\",\"m\":3}",
    "{\"j\":\"open\",\"s\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"algorithm\":\"CU-UDP-ECDF\",\"m\":2}",
    "{\"j\":\"admit\",\"s\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"task\":{\"id\":1,\"period\":10,\"criticality\":\"HI\",\"wcet_lo\":2,\"wcet_hi\":4,\"deadline\":10},\"k\":0,\"tasks\":1,\"op\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\"}",
    "{\"j\":\"admit\",\"s\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"task\":{\"id\":2,\"period\":20,\"criticality\":\"LO\",\"wcet_lo\":6,\"wcet_hi\":6,\"deadline\":20},\"k\":1,\"tasks\":2}",
    "{\"j\":\"admit\",\"s\":\"b-session\",\"task\":{\"id\":4294967295,\"period\":18446744073709551615,\"criticality\":\"HI\",\"wcet_lo\":1,\"wcet_hi\":2,\"deadline\":18446744073709551615},\"k\":2,\"tasks\":1,\"op\":\"b-op\"}",
    "{\"j\":\"remove\",\"s\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"task_id\":1,\"k\":0,\"tasks\":1,\"op\":\"rm\\\"1\"}",
    "{\"j\":\"remove\",\"s\":\"b-session\",\"task_id\":4294967295,\"k\":2,\"tasks\":0}",

];

/// The snapshot a compaction writes for the same history.
const GOLDEN_SNAPSHOT: &[&str] = &[
    "{\"j\":\"open\",\"s\":\"b-session\",\"algorithm\":\"CA-UDP-AMC-max\",\"m\":3}",
    "{\"j\":\"applied\",\"s\":\"b-session\",\"op\":\"b-op\",\"kind\":\"admit\",\"task\":4294967295,\"k\":2,\"tasks\":1}",
    "{\"j\":\"open\",\"s\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"algorithm\":\"CU-UDP-ECDF\",\"m\":2}",
    "{\"j\":\"admit\",\"s\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"task\":{\"id\":2,\"period\":20,\"criticality\":\"LO\",\"wcet_lo\":6,\"wcet_hi\":6,\"deadline\":20},\"k\":1,\"tasks\":1}",
    "{\"j\":\"applied\",\"s\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"op\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"kind\":\"admit\",\"task\":1,\"k\":0,\"tasks\":1}",
    "{\"j\":\"applied\",\"s\":\"q\\\"b\\\\s/\\n\\r\\t\\u0001\\u001f\u{7f} é☃𝄞\",\"op\":\"rm\\\"1\",\"kind\":\"remove\",\"task\":1,\"k\":0,\"tasks\":1}",

];

fn assert_lines(what: &str, got: &[String], want: &[&str]) {
    let dump: String = got.iter().map(|l| format!("    {l:?},\n")).collect();
    assert_eq!(got.len(), want.len(), "{what}: line count; got:\n{dump}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{what}: line {i} differs; got:\n{dump}");
    }
}

#[test]
fn replies_match_golden_lines() {
    let mut got = Vec::new();
    for reply in replies() {
        for id in ids() {
            got.push(reply.render(id.as_ref()));
        }
    }
    assert_lines("replies", &got, GOLDEN_REPLIES);
}

#[test]
fn envelopes_match_golden_lines() {
    let got: Vec<String> = envelopes().iter().map(Envelope::render).collect();
    assert_lines("envelopes", &got, GOLDEN_ENVELOPES);
    for (env, line) in envelopes().into_iter().zip(&got) {
        let back = parse_envelope(line).unwrap_or_else(|e| panic!("{line}: {}", e.message));
        assert_eq!(back, env, "{line}");
    }
}

#[test]
fn journal_records_match_golden_lines() {
    assert_lines("journal", &journal_lines("log", None), GOLDEN_JOURNAL);
    assert_lines(
        "snapshot",
        &journal_lines("snapshot", Some(GOLDEN_JOURNAL.len())),
        GOLDEN_SNAPSHOT,
    );
}

/// A task object with the given extra fields after the required ones.
fn task_json(id: u32, rest: &str) -> String {
    format!(r#"{{"id":{id},"period":10,"criticality":"HI","wcet_lo":2{rest}}}"#)
}

/// Request lines the decoder must refuse, one per error message of the
/// envelope, eval, `m`, `op_id` and task checks, plus the JSON syntax
/// errors, the placement and shape of `id`, and duplicate keys (the
/// first occurrence of a key wins). The `wcet_hi` and `deadline` lines
/// give those fields a present value that is not an integer.
fn malformed_requests() -> Vec<String> {
    let mut lines: Vec<String> = [
        // JSON syntax errors: the reply carries no id.
        r#"{"type":"admit","id":1,"task":{"id":0,"period":10"#,
        r#"{"type":"admit","id":1,"op_id":"ab"#,
        r#"{"id":1,"type":"admit","task":{"#,
        r#"{"type":"close","id":1} x"#,
        r#"{"type":"close","id":1}}"#,
        r#"{"type":"close","id":"a\qb"}"#,
        "{\"type\":\"close\",\"id\":\"a\tb\"}",
        r#"{"type":"close","id":"\ud800"}"#,
        r#"{"type":"close","id":"\u12"}"#,
        r#"{"type":"remove","task_id":1.2.3}"#,
        r#"{"type":"remove","task_id":-}"#,
        r#"{"type":"close","id":tru}"#,
        r#"{"type":"close",'id':1}"#,
        r#"{"type" "close"}"#,
        r#"[1,2"#,
        r#"@"#,
        // `id`: malformed (the reply has none), absent, or after the
        // faulty field (the reply still carries it).
        r#"{"type":"close","id":1.5}"#,
        r#"{"type":"close","id":-3}"#,
        r#"{"type":"close","id":[1]}"#,
        r#"{"type":"close","id":null}"#,
        r#"{"type":"remove"}"#,
        r#"{"type":"admit","task":{"id":0},"id":2}"#,
        r#"{"id":3,"type":"remove"}"#,
        // Envelope checks.
        r#"{"v":2,"id":4,"type":"close"}"#,
        r#"{"v":"1","id":5,"type":"close"}"#,
        r#"{"v":null,"id":6,"type":"close"}"#,
        r#"{"v":1.0,"id":7,"type":"query"}"#,
        r#"{"type":7,"id":8}"#,
        r#"{"type":"warp","id":9}"#,
        r#"{"type":"open_session","id":10,"m":2}"#,
        r#"{"type":"open_session","id":11,"algorithm":"CU-UDP-ECDF","m":2,"session":3}"#,
        r#"{"type":"admit","id":12}"#,
        r#"{"type":"admit","id":13,"task":null}"#,
        r#"{"type":"admit","id":14,"task":[1]}"#,
        r#"{"type":"remove","id":15}"#,
        r#"{"type":"remove","id":16,"task_id":4294967296}"#,
        r#"{"type":"remove","id":17,"task_id":1,"op_id":7}"#,
        r#"{"type":"admit","id":18,"op_id":["x"],"task":{"id":0,"period":10,"wcet_lo":1}}"#,
        // `m`.
        r#"{"type":"open_session","id":19,"algorithm":"CU-UDP-ECDF"}"#,
        r#"{"type":"open_session","id":20,"algorithm":"CU-UDP-ECDF","m":"2"}"#,
        r#"{"type":"open_session","id":21,"algorithm":"CU-UDP-ECDF","m":0}"#,
        r#"{"type":"open_session","id":22,"algorithm":"CU-UDP-ECDF","m":4097}"#,
        // Eval checks.
        r#"{"id":23,"m":2,"tasks":[]}"#,
        r#"{"type":"eval","id":24,"algorithm":"CU-UDP-ECDF","m":2}"#,
        r#"{"type":"eval","id":25,"algorithm":"CU-UDP-ECDF","m":2,"tasks":{}}"#,
        r#"{"type":"eval","id":26,"algorithm":"CU-UDP-ECDF","m":-1,"tasks":[]}"#,
        r#"{"type":"eval","id":27,"algorithm":"CU-UDP-ECDF","m":2,"tasks":[{"id":0,"period":10,"wcet_lo":1},7]}"#,
        r#"{"type":"eval","id":28,"algorithm":"CU-UDP-ECDF","m":2,"tasks":[{"id":0,"period":10,"wcet_lo":1},{"id":0,"period":20,"wcet_lo":1}]}"#,
        r#"[1,2]"#,
        r#""close""#,
        // Task checks.
        r#"{"type":"admit","id":29,"task":{"period":10,"wcet_lo":1}}"#,
        r#"{"type":"admit","id":30,"task":{"id":4294967296,"period":10,"wcet_lo":1}}"#,
        r#"{"type":"admit","id":31,"task":{"id":0,"wcet_lo":1}}"#,
        r#"{"type":"admit","id":32,"task":{"id":0,"period":10}}"#,
        r#"{"type":"admit","id":33,"task":{"id":0,"period":10,"wcet_lo":1,"criticality":1}}"#,
        r#"{"type":"admit","id":34,"task":{"id":0,"period":10,"wcet_lo":1,"criticality":"mid"}}"#,
        r#"{"type":"admit","id":35,"task":{"id":0,"period":10,"wcet_lo":1,"criticality":"hIgH"}}"#,
        r#"{"type":"admit","id":36,"task":{"id":0,"period":10,"wcet_lo":11}}"#,
        r#"{"type":"admit","id":37,"task":{"id":0,"period":0,"wcet_lo":1}}"#,
        r#"{"type":"admit","id":38,"task":{"id":0,"period":10,"criticality":"HI","wcet_lo":5,"wcet_hi":3}}"#,
        r#"{"type":"admit","id":39,"task":{"id":0,"period":10,"wcet_lo":5,"deadline":20}}"#,
        r#"{"type":"query","id":40,"task":{"id":0,"period":"10","wcet_lo":1}}"#,
        // Duplicate keys, and unknown keys holding nested values.
        r#"{"id":41,"id":"second","type":"remove"}"#,
        r#"{"id":42,"type":"remove","type":"close"}"#,
        r#"{"id":43,"type":"remove","task_id":"x","task_id":1}"#,
        r#"{"id":44,"type":"admit","task":{"id":0},"task":{"id":0,"period":10,"wcet_lo":1}}"#,
        r#"{"id":45,"type":"admit","task":{"id":0,"period":10,"wcet_lo":1,"period":"x"}}"#,
        r#"{"id":46,"type":"remove","extra":{"a":[1,{"b":null}],"c":"A"},"task_id":"x"}"#,
    ]
    .into_iter()
    .map(str::to_owned)
    .collect();
    lines.push(format!(
        r#"{{"type":"query","x":{}}}"#,
        "[".repeat(200) + &"]".repeat(200)
    ));
    // `wcet_hi` and `deadline` present but not integers; `null` is absent.
    let budgets = [
        r#","wcet_hi":"9""#,
        r#","wcet_hi":9.5"#,
        r#","wcet_hi":-1"#,
        r#","deadline":"3""#,
        r#","deadline":9.5"#,
        r#","deadline":-1"#,
        r#","wcet_hi":null,"deadline":null"#,
        r#","wcet_hi":9.0"#,
    ];
    for (i, rest) in budgets.iter().enumerate() {
        let id = 50 + 3 * i;
        let task = task_json(0, rest);
        lines.push(format!(r#"{{"type":"admit","id":{id},"task":{task}}}"#));
        lines.push(format!(
            r#"{{"type":"query","id":{},"task":{task}}}"#,
            id + 1
        ));
        lines.push(format!(
            r#"{{"type":"eval","id":{},"algorithm":"CU-UDP-EDF-VD","m":1,"tasks":[{task},{{"id":1,"period":10,"wcet_lo":7}}]}}"#,
            id + 2
        ));
    }
    lines
}

/// The replies [`malformed_requests`] get on one connection with no
/// open session, in order.
const GOLDEN_MALFORMED: &[&str] = &[
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: expected `,` or `}` at byte 49\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: unterminated string\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: expected string at byte 31\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: trailing characters at byte 24\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: trailing characters at byte 23\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: invalid escape at byte 24\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: control character U+0009 in string at byte 23\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: invalid \\\\u escape at byte 27\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: invalid \\\\u escape: invalid digit found in string\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: invalid number `1.2.3` at byte 27\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: invalid number `-` at byte 27\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: expected `true` at byte 21\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: expected string at byte 16\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: expected `:` at byte 8\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: expected `,` or `]` at byte 4\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: unexpected byte `@` at byte 0\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"`id` must be an integer or a string\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"`id` must be an integer or a string\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"`id` must be an integer or a string\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"`id` must be an integer or a string\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"remove needs an integer `task_id`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":2,\"error\":\"task: needs an integer `period`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":3,\"error\":\"remove needs an integer `task_id`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":4,\"error\":\"unsupported protocol version 2 (this server speaks v1)\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":5,\"error\":\"`v` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":6,\"error\":\"`v` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":7,\"error\":\"no open session on this connection; send `open_session` first\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":8,\"error\":\"`type` must be a string\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":9,\"error\":\"unknown request type `warp` (expected eval, open_session, admit, remove, query, close or shutdown)\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":10,\"error\":\"open_session needs a string `algorithm`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":11,\"error\":\"`session` must be a string\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":12,\"error\":\"admit needs a `task` object\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":13,\"error\":\"task: needs an integer `id`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":14,\"error\":\"task: needs an integer `id`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":15,\"error\":\"remove needs an integer `task_id`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":16,\"error\":\"`task_id` out of range\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":17,\"error\":\"`op_id` must be a string\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":18,\"error\":\"`op_id` must be a string\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":19,\"error\":\"request needs an integer `m`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":20,\"error\":\"request needs an integer `m`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":21,\"error\":\"`m` must be at least 1\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":22,\"error\":\"`m` must be at most 4096\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":23,\"error\":\"request needs a string `algorithm`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":24,\"error\":\"request needs an array `tasks`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":25,\"error\":\"request needs an array `tasks`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":26,\"error\":\"request needs an integer `m`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":27,\"error\":\"tasks[1]: needs an integer `id`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":28,\"error\":\"tasks[1]: duplicate task id τ0 in task set\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"request needs a string `algorithm`\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"request needs a string `algorithm`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":29,\"error\":\"task: needs an integer `id`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":30,\"error\":\"task: `id` out of range\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":31,\"error\":\"task: needs an integer `period`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":32,\"error\":\"task: needs an integer `wcet_lo`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":33,\"error\":\"task: `criticality` must be a string\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":34,\"error\":\"task: unknown criticality `MID` (use HI or LO)\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":35,\"error\":\"no open session on this connection; send `open_session` first\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":36,\"error\":\"task: task τ0 deadline 10 outside [C, T] with T = 10\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":37,\"error\":\"task: task τ0 has a zero period\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":38,\"error\":\"task: task τ0 has C^H = 3 smaller than C^L = 5\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":39,\"error\":\"task: task τ0 deadline 20 outside [C, T] with T = 10\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":40,\"error\":\"task: needs an integer `period`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":41,\"error\":\"remove needs an integer `task_id`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":42,\"error\":\"remove needs an integer `task_id`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":43,\"error\":\"remove needs an integer `task_id`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":44,\"error\":\"task: needs an integer `period`\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":45,\"error\":\"no open session on this connection; send `open_session` first\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":46,\"error\":\"remove needs an integer `task_id`\"}",
    "{\"type\":\"error\",\"v\":1,\"error\":\"malformed JSON: serde_json stub error: recursion limit exceeded at byte 148\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":50,\"error\":\"task: `wcet_hi` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":51,\"error\":\"task: `wcet_hi` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":52,\"error\":\"tasks[0]: `wcet_hi` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":53,\"error\":\"task: `wcet_hi` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":54,\"error\":\"task: `wcet_hi` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":55,\"error\":\"tasks[0]: `wcet_hi` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":56,\"error\":\"task: `wcet_hi` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":57,\"error\":\"task: `wcet_hi` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":58,\"error\":\"tasks[0]: `wcet_hi` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":59,\"error\":\"task: `deadline` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":60,\"error\":\"task: `deadline` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":61,\"error\":\"tasks[0]: `deadline` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":62,\"error\":\"task: `deadline` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":63,\"error\":\"task: `deadline` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":64,\"error\":\"tasks[0]: `deadline` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":65,\"error\":\"task: `deadline` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":66,\"error\":\"task: `deadline` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":67,\"error\":\"tasks[0]: `deadline` must be an integer\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":68,\"error\":\"no open session on this connection; send `open_session` first\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":69,\"error\":\"no open session on this connection; send `open_session` first\"}",
    "{\"type\":\"eval\",\"v\":1,\"id\":70,\"algorithm\":\"CU-UDP-EDF-VD\",\"m\":1,\"schedulable\":true,\"partition\":[[1,0]],\"rejected_task\":null,\"detail\":null}",
    "{\"type\":\"error\",\"v\":1,\"id\":71,\"error\":\"no open session on this connection; send `open_session` first\"}",
    "{\"type\":\"error\",\"v\":1,\"id\":72,\"error\":\"no open session on this connection; send `open_session` first\"}",
    "{\"type\":\"eval\",\"v\":1,\"id\":73,\"algorithm\":\"CU-UDP-EDF-VD\",\"m\":1,\"schedulable\":false,\"partition\":null,\"rejected_task\":1,\"detail\":\"task τ1 could not be allocated on any of 1 processors (1 tasks placed; per-processor loads: 1)\"}",
];

#[test]
fn malformed_requests_match_golden_replies() {
    let registry = AlgorithmRegistry::standard();
    let input: String = malformed_requests()
        .iter()
        .map(|line| format!("{line}\n"))
        .collect();
    let mut out = Vec::new();
    let stats = serve_connection(
        &registry,
        &ServerConfig::default(),
        input.as_bytes(),
        &mut out,
    );
    let got: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(stats.requests, malformed_requests().len() as u64);
    assert_lines("malformed", &got, GOLDEN_MALFORMED);
}

/// Characters that stress the escaper: every named escape, the other
/// control characters, DEL, `/`, and one- to four-byte UTF-8.
const NASTY: &[char] = &[
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1b}',
    '\u{1f}', '\u{7f}', 'é', '☃', '\u{2028}', '𝄞',
];

/// Short strings drawn mostly from [`NASTY`], sometimes any scalar value.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..NASTY.len() + 8, 0u32..0x11_0000), 0..24).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(i, code)| match NASTY.get(i) {
                Some(&c) => c,
                None => char::from_u32(code).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

fn id() -> impl Strategy<Value = Option<RequestId>> {
    (0..3usize, any::<u64>(), text()).prop_map(|(kind, n, s)| match kind {
        0 => None,
        1 => Some(RequestId::Num(n)),
        _ => Some(RequestId::Str(s)),
    })
}

/// Any reply variant, with optional fields present or absent and the
/// `degraded` flag either way.
fn reply() -> impl Strategy<Value = Reply> {
    (
        (0..8usize, text(), text()),
        (any::<u64>(), any::<u32>(), any::<bool>(), any::<bool>()),
        (
            proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..4), 0..4),
            0..4usize,
        ),
    )
        .prop_map(
            |((kind, a, b), (n, t, flag, degraded), (partition, count))| {
                let n = n as usize;
                match kind {
                    0 => Reply::Eval(EvalResponse {
                        algorithm: a,
                        m: n,
                        schedulable: flag,
                        partition: (count > 0).then_some(partition),
                        rejected_task: (!flag).then_some(t),
                        detail: (count != 1).then_some(b),
                    }),
                    1 => Reply::Session(SessionReply {
                        algorithm: a,
                        m: n,
                        degraded,
                    }),
                    2 => Reply::Admit(AdmitReply {
                        admitted: flag,
                        processor: flag.then_some(n),
                        task: t,
                        tasks: count,
                        detail: (!flag).then_some(a),
                        degraded,
                    }),
                    3 => Reply::Remove(RemoveReply {
                        removed: flag,
                        processor: (count > 1).then_some(n),
                        task: t,
                        tasks: count,
                    }),
                    4 => Reply::Query(QueryReply {
                        algorithm: a,
                        m: n,
                        tasks: count,
                        partition,
                        probe: (count > 0).then_some(ProbeReply {
                            fits: flag,
                            processor: flag.then_some(n),
                        }),
                        degraded,
                    }),
                    5 => Reply::Closed { reason: a },
                    6 => Reply::Overload { error: a },
                    _ => Reply::Error { error: a },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_replies_round_trip(reply in reply(), id in id()) {
        let line = reply.render(id.as_ref());
        let (back_id, back) = parse_reply(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        prop_assert_eq!(&back_id, &id, "{}", line);
        prop_assert_eq!(&back, &reply, "{}", line);
        // Writing into a reused buffer replaces what it held.
        let mut buf = String::from("stale bytes");
        reply.render_into(id.as_ref(), &mut buf);
        prop_assert_eq!(buf, line);
    }
}
