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
use mcsched::model::{Task, TaskId, TaskSet};
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
