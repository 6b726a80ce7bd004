//! End-to-end checks of the `eval` verb on the server's connection loop
//! (what `mcexp eval` runs over stdin/stdout): a three-line request
//! stream produces one valid JSON verdict per line (validated with
//! `serde_json`'s parser), verdicts carry the partition witness, and
//! unknown algorithm names are answered with the registry's available
//! names.

use mcsched::prelude::*;
use mcsched::service::server::{serve_connection, ServerConfig};
use serde_json::Value;

const REQUESTS: [&str; 3] = [
    r#"{"algorithm":"CU-UDP-EDF-VD","m":2,"tasks":[{"id":0,"period":10,"criticality":"HI","wcet_lo":2,"wcet_hi":4},{"id":1,"period":20,"wcet_lo":6}]}"#,
    r#"{"algorithm":"CA-UDP-AMC","m":1,"tasks":[{"id":0,"period":10,"criticality":"HI","wcet_lo":5,"wcet_hi":9},{"id":1,"period":10,"criticality":"HI","wcet_lo":5,"wcet_hi":9}]}"#,
    r#"{"algorithm":"ECA-Wu-F-EY","m":2,"tasks":[{"id":0,"period":10,"criticality":"HI","wcet_lo":2,"wcet_hi":4},{"id":1,"period":10,"wcet_lo":6}]}"#,
];

/// Serves `line` as the only request of a connection: the reply line,
/// and whether it was an error reply.
fn serve_line(registry: &AlgorithmRegistry, line: &str) -> (String, bool) {
    let mut out = Vec::new();
    let stats = serve_connection(
        registry,
        &ServerConfig::default(),
        line.as_bytes(),
        &mut out,
    );
    let reply = String::from_utf8(out).unwrap();
    (reply.trim_end().to_owned(), stats.errors > 0)
}

#[test]
fn three_line_stream_yields_three_json_verdicts() {
    let registry = AlgorithmRegistry::standard();
    let input = REQUESTS.join("\n");
    let mut output = Vec::new();
    let stats = serve_connection(
        &registry,
        &ServerConfig::default(),
        input.as_bytes(),
        &mut output,
    );
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.errors, 0);

    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    for (request, line) in REQUESTS.iter().zip(&lines) {
        // Each verdict must itself be valid JSON — checked with the
        // serde_json parser, not string matching.
        let verdict = serde_json::parse_value(line)
            .unwrap_or_else(|e| panic!("invalid verdict JSON: {e}\n{line}"));
        let requested = serde_json::parse_value(request).unwrap();
        assert_eq!(
            verdict.get("algorithm").and_then(Value::as_str),
            requested.get("algorithm").and_then(Value::as_str)
        );
        assert_eq!(
            verdict.get("m").and_then(Value::as_u64),
            requested.get("m").and_then(Value::as_u64)
        );
        assert!(verdict
            .get("schedulable")
            .and_then(Value::as_bool)
            .is_some());
    }

    // First request is schedulable on 2 processors: the witness accounts
    // for every task exactly once.
    let first = serde_json::parse_value(lines[0]).unwrap();
    assert_eq!(
        first.get("schedulable").and_then(Value::as_bool),
        Some(true)
    );
    let witness = first.get("partition").and_then(Value::as_seq).unwrap();
    assert_eq!(witness.len(), 2);
    let mut ids: Vec<u64> = witness
        .iter()
        .flat_map(|p| p.as_seq().unwrap().iter().map(|v| v.as_u64().unwrap()))
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1]);

    // Second request (two heavy HC tasks on one processor) is rejected
    // with the failing task named.
    let second = serde_json::parse_value(lines[1]).unwrap();
    assert_eq!(
        second.get("schedulable").and_then(Value::as_bool),
        Some(false)
    );
    assert!(second.get("partition").is_some_and(Value::is_null));
    assert!(second
        .get("rejected_task")
        .and_then(Value::as_u64)
        .is_some());
}

#[test]
fn unknown_algorithm_error_lists_registry_names() {
    let registry = AlgorithmRegistry::standard();
    let (verdict, errored) =
        serve_line(&registry, r#"{"algorithm":"NOT-A-THING","m":2,"tasks":[]}"#);
    assert!(errored);
    let parsed = serde_json::parse_value(&verdict).unwrap();
    let message = parsed.get("error").and_then(Value::as_str).unwrap();
    for expected in registry.algorithm_names() {
        assert!(
            message.contains(&expected),
            "error must list {expected}: {message}"
        );
    }
}

#[test]
fn request_ids_echo_on_verdicts_and_errors() {
    let registry = AlgorithmRegistry::standard();

    let (verdict, errored) = serve_line(
        &registry,
        r#"{"v":1,"id":7,"algorithm":"CU-UDP-EDF-VD","m":1,"tasks":[{"id":0,"period":10,"wcet_lo":2}]}"#,
    );
    assert!(!errored);
    let parsed = serde_json::parse_value(&verdict).unwrap();
    assert_eq!(parsed.get("type").and_then(Value::as_str), Some("eval"));
    assert_eq!(parsed.get("v").and_then(Value::as_u64), Some(1));
    assert_eq!(parsed.get("id").and_then(Value::as_u64), Some(7));

    // Errors carry the id too — even when the request itself is broken.
    let (verdict, errored) = serve_line(
        &registry,
        r#"{"id":"req-3","algorithm":"NOPE","m":1,"tasks":[]}"#,
    );
    assert!(errored);
    let parsed = serde_json::parse_value(&verdict).unwrap();
    assert_eq!(parsed.get("type").and_then(Value::as_str), Some("error"));
    assert_eq!(parsed.get("id").and_then(Value::as_str), Some("req-3"));

    let (verdict, errored) = serve_line(&registry, r#"{"id":9,"m":0}"#);
    assert!(errored);
    let parsed = serde_json::parse_value(&verdict).unwrap();
    assert_eq!(parsed.get("id").and_then(Value::as_u64), Some(9));
}

#[test]
fn verdicts_agree_with_direct_registry_calls() {
    let registry = AlgorithmRegistry::standard();
    for request in REQUESTS {
        let parsed = serde_json::parse_value(request).unwrap();
        let name = parsed.get("algorithm").and_then(Value::as_str).unwrap();
        let m = parsed.get("m").and_then(Value::as_u64).unwrap() as usize;
        let algo = registry.spec(name).unwrap();
        // Rebuild the task set through the facade API.
        let mut ts = TaskSet::new();
        for tv in parsed.get("tasks").and_then(Value::as_seq).unwrap() {
            let id = tv.get("id").and_then(Value::as_u64).unwrap() as u32;
            let period = tv.get("period").and_then(Value::as_u64).unwrap();
            let wcet_lo = tv.get("wcet_lo").and_then(Value::as_u64).unwrap();
            let task = match tv.get("criticality").and_then(Value::as_str) {
                Some("HI") => Task::hi(
                    id,
                    period,
                    wcet_lo,
                    tv.get("wcet_hi").and_then(Value::as_u64).unwrap(),
                ),
                _ => Task::lo(id, period, wcet_lo),
            }
            .unwrap();
            ts.try_push(task).unwrap();
        }
        let (verdict, errored) = serve_line(&registry, request);
        assert!(!errored);
        let verdict = serde_json::parse_value(&verdict).unwrap();
        assert_eq!(
            verdict.get("schedulable").and_then(Value::as_bool),
            Some(algo.accepts(&ts, m)),
            "{name}"
        );
    }
}

#[test]
fn lc_high_budget_does_not_flip_demand_verdicts() {
    // An LC task's `wcet_hi` is accepted on the wire but adds no
    // high-mode demand (LC tasks are dropped at the switch), so the
    // EY/ECDF verdicts must match the same set without it.
    let registry = AlgorithmRegistry::standard();
    let hc = r#"{"id":0,"period":10,"criticality":"HI","wcet_lo":2,"wcet_hi":4}"#;
    for lc in [
        r#"{"id":1,"period":20,"criticality":"LO","wcet_lo":2,"wcet_hi":5}"#,
        r#"{"id":1,"period":20,"criticality":"LO","wcet_lo":2}"#,
    ] {
        for algorithm in ["CU-UDP-ECDF", "CU-UDP-EY"] {
            let request = format!(r#"{{"algorithm":"{algorithm}","m":1,"tasks":[{hc},{lc}]}}"#);
            let (verdict, errored) = serve_line(&registry, &request);
            assert!(!errored, "{verdict}");
            let verdict = serde_json::parse_value(&verdict).unwrap();
            assert_eq!(
                verdict.get("schedulable").and_then(Value::as_bool),
                Some(true),
                "{request}"
            );
        }
    }
}

#[test]
fn amc_max_keeps_its_walk_bound_when_the_rtb_cap_misses_the_deadline() {
    // τ2's AMC-rtb fixpoint reaches 52, past its deadline of 48, while
    // every switch instant the AMC-max walk visits settles by 37 (the
    // walk never charges more than AMC-rtb does): AMC-max accepts on one
    // processor, AMC-rtb rejects τ2.
    let registry = AlgorithmRegistry::standard();
    let tasks = r#"[{"id":0,"period":15,"wcet_lo":5},{"id":1,"period":20,"criticality":"HI","wcet_lo":2,"wcet_hi":10,"deadline":14},{"id":2,"period":60,"criticality":"HI","wcet_lo":9,"wcet_hi":12,"deadline":48}]"#;
    for (algorithm, schedulable, rejected) in [
        ("CU-UDP-AMC-max", true, None),
        ("CU-UDP-AMC-rtb", false, Some(2)),
    ] {
        let request = format!(r#"{{"algorithm":"{algorithm}","m":1,"tasks":{tasks}}}"#);
        let (verdict, errored) = serve_line(&registry, &request);
        assert!(!errored, "{verdict}");
        let verdict = serde_json::parse_value(&verdict).unwrap();
        assert_eq!(
            verdict.get("schedulable").and_then(Value::as_bool),
            Some(schedulable),
            "{algorithm}"
        );
        assert_eq!(
            verdict.get("rejected_task").and_then(Value::as_u64),
            rejected,
            "{algorithm}"
        );
    }
}
