//! The one-shot JSONL schedulability-evaluation service behind
//! `mcexp eval`.
//!
//! Requests arrive one JSON object per line (from a file or stdin); each
//! line is answered with one JSON verdict on the next output line. The
//! line shapes are the [`protocol`](crate::protocol) module's `eval`
//! verb — including the legacy pre-versioning shape, which keeps parsing
//! unchanged:
//!
//! ```json
//! {"algorithm": "CU-UDP-EDF-VD", "m": 2, "tasks": [
//!   {"id": 0, "period": 10, "criticality": "HI", "wcet_lo": 2, "wcet_hi": 4},
//!   {"id": 1, "period": 20, "wcet_lo": 6}
//! ]}
//! ```
//!
//! * `algorithm` — any name the [`AlgorithmRegistry`] parses
//!   (`"<strategy>-<test>"`; unknown names are answered with an error
//!   listing every registered name),
//! * `m` — the processor count,
//! * `tasks` — the task set; `criticality` defaults to `"LO"`, `wcet_hi`
//!   to `wcet_lo`, and `deadline` to `period`,
//! * optionally `"v"` (protocol version) and `"id"` (correlation token,
//!   echoed on the verdict — errors included).
//!
//! The verdict carries the partition witness (task ids per processor)
//! when the set is schedulable, or the first unallocatable task when it
//! is not:
//!
//! ```json
//! {"type": "eval", "v": 1, "algorithm": "CU-UDP-EDF-VD", "m": 2,
//!  "schedulable": true, "partition": [[0], [1]],
//!  "rejected_task": null, "detail": null}
//! ```
//!
//! Malformed lines and unknown algorithms produce
//! `{"type": "error", "error": "..."}` verdicts in-band; the stream
//! keeps flowing (service semantics — one bad request must not poison
//! the batch). Session verbs (`open_session`, `admit`, …) need a
//! persistent connection and are redirected to `mcexp serve` (see
//! [`server`](crate::server)).

use crate::protocol::{parse_envelope, Reply, Request};
use mcsched_core::AlgorithmRegistry;
use std::io::{BufRead, Write};

pub use crate::protocol::{EvalRequest, EvalResponse, MAX_PROCESSORS};

/// Totals of one [`run_eval`] stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalSummary {
    /// Non-blank request lines seen.
    pub requests: usize,
    /// Requests answered with an error verdict.
    pub errors: usize,
}

/// Parses one JSONL `eval` request line (legacy or v1 shape).
///
/// # Errors
///
/// Returns a human-readable message naming the first malformed field;
/// session verbs are rejected here (they need `mcexp serve`).
pub fn parse_request(line: &str) -> Result<EvalRequest, String> {
    match parse_envelope(line).map_err(|e| e.message)?.request {
        Request::Eval(req) => Ok(req),
        other => Err(format!(
            "`{}` requests need a persistent session; run `mcexp serve` and connect to it",
            other.kind()
        )),
    }
}

/// Evaluates one parsed request against the registry.
///
/// # Errors
///
/// Returns the in-band error message (unknown algorithm names include
/// every registered name, via [`RegistryError`]'s display).
///
/// [`RegistryError`]: mcsched_core::RegistryError
pub fn evaluate_request(
    registry: &AlgorithmRegistry,
    request: &EvalRequest,
) -> Result<EvalResponse, String> {
    let algo = registry
        .parse(&request.algorithm)
        .map_err(|e| e.to_string())?;
    match algo.try_partition(&request.tasks, request.m) {
        Ok(partition) => Ok(EvalResponse {
            algorithm: request.algorithm.clone(),
            m: request.m,
            schedulable: true,
            partition: Some(
                partition
                    .iter()
                    .map(|proc| proc.iter().map(|t| t.id().0).collect())
                    .collect(),
            ),
            rejected_task: None,
            detail: None,
        }),
        Err(e) => Ok(EvalResponse {
            algorithm: request.algorithm.clone(),
            m: request.m,
            schedulable: false,
            partition: None,
            rejected_task: Some(e.task.0),
            detail: Some(e.to_string()),
        }),
    }
}

/// Answers one request line with one JSON verdict line (never panics on
/// bad input — errors become typed error verdicts that echo the
/// request's `id` when one was given). The boolean is `true` when the
/// line was answered with an error.
pub fn handle_request_line(registry: &AlgorithmRegistry, line: &str) -> (String, bool) {
    match parse_envelope(line) {
        Ok(env) => {
            let id = env.id;
            match env.request {
                Request::Eval(req) => match evaluate_request(registry, &req) {
                    Ok(resp) => (Reply::Eval(resp).render(id.as_ref()), false),
                    Err(error) => (Reply::error(error).render(id.as_ref()), true),
                },
                other => (
                    Reply::error(format!(
                        "`{}` requests need a persistent session; run `mcexp serve` and \
                         connect to it",
                        other.kind()
                    ))
                    .render(id.as_ref()),
                    true,
                ),
            }
        }
        Err(e) => (Reply::error(e.message).render(e.id.as_ref()), true),
    }
}

/// Streams JSONL requests from `input` to JSON verdicts on `output`
/// (blank lines are skipped). Returns the stream totals.
///
/// # Errors
///
/// Propagates I/O errors from reading `input` or writing `output`;
/// per-request failures are answered in-band instead.
pub fn run_eval<R: BufRead, W: Write>(
    registry: &AlgorithmRegistry,
    input: R,
    mut output: W,
) -> std::io::Result<EvalSummary> {
    let mut summary = EvalSummary::default();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        summary.requests += 1;
        let (verdict, errored) = handle_request_line(registry, &line);
        summary.errors += usize::from(errored);
        writeln!(output, "{verdict}")?;
    }
    output.flush()?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"algorithm": "CU-UDP-EDF-VD", "m": 2, "tasks": [
        {"id": 0, "period": 10, "criticality": "HI", "wcet_lo": 2, "wcet_hi": 4},
        {"id": 1, "period": 20, "wcet_lo": 6}]}"#;

    #[test]
    fn parses_and_applies_defaults() {
        let req = parse_request(GOOD).unwrap();
        assert_eq!(req.algorithm, "CU-UDP-EDF-VD");
        assert_eq!(req.m, 2);
        assert_eq!(req.tasks.len(), 2);
        let lo = req.tasks.get(mcsched_model::TaskId(1)).unwrap();
        assert!(lo.criticality().is_low());
        assert_eq!(lo.wcet_hi(), lo.wcet_lo());
        assert!(lo.is_implicit_deadline());
    }

    #[test]
    fn schedulable_verdict_carries_witness() {
        let registry = AlgorithmRegistry::standard();
        let req = parse_request(GOOD).unwrap();
        let resp = evaluate_request(&registry, &req).unwrap();
        assert!(resp.schedulable);
        let witness = resp.partition.as_ref().unwrap();
        assert_eq!(witness.len(), 2);
        let mut ids: Vec<u32> = witness.iter().flatten().copied().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(resp.rejected_task, None);
    }

    #[test]
    fn unschedulable_verdict_names_the_task() {
        let registry = AlgorithmRegistry::standard();
        let line = r#"{"algorithm": "CU-UDP-EDF-VD", "m": 1, "tasks": [
            {"id": 0, "period": 10, "criticality": "HI", "wcet_lo": 5, "wcet_hi": 9},
            {"id": 1, "period": 10, "criticality": "HI", "wcet_lo": 5, "wcet_hi": 9}]}"#;
        let req = parse_request(line).unwrap();
        let resp = evaluate_request(&registry, &req).unwrap();
        assert!(!resp.schedulable);
        assert_eq!(resp.partition, None);
        assert!(resp.rejected_task.is_some());
        assert!(resp
            .detail
            .as_ref()
            .unwrap()
            .contains("could not be allocated"));
    }

    #[test]
    fn unknown_algorithm_lists_registry() {
        let registry = AlgorithmRegistry::standard();
        let (verdict, errored) = handle_request_line(
            &registry,
            r#"{"algorithm": "CU-UDP-RTA", "m": 2, "tasks": []}"#,
        );
        assert!(errored);
        assert!(verdict.contains("unknown algorithm `CU-UDP-RTA`"));
        assert!(verdict.contains("CU-UDP-EDF-VD"), "{verdict}");
    }

    #[test]
    fn malformed_requests_are_in_band_errors() {
        let registry = AlgorithmRegistry::standard();
        for (line, needle) in [
            ("{oops", "malformed JSON"),
            ("{}", "`algorithm`"),
            (r#"{"algorithm": "CU-UDP-EDF-VD"}"#, "`m`"),
            (
                r#"{"algorithm": "CU-UDP-EDF-VD", "m": 0, "tasks": []}"#,
                "at least 1",
            ),
            (
                r#"{"algorithm": "CU-UDP-EDF-VD", "m": 1000000000000, "tasks": []}"#,
                "at most",
            ),
            (r#"{"algorithm": "CU-UDP-EDF-VD", "m": 2}"#, "`tasks`"),
            (
                r#"{"algorithm": "CU-UDP-EDF-VD", "m": 2, "tasks": [{"id": 0}]}"#,
                "tasks[0]",
            ),
            (
                r#"{"algorithm": "CU-UDP-EDF-VD", "m": 2, "tasks":
                   [{"id": 0, "period": 10, "wcet_lo": 2, "criticality": "MID"}]}"#,
                "unknown criticality",
            ),
        ] {
            let (verdict, errored) = handle_request_line(&registry, line);
            assert!(errored, "{line}");
            assert!(verdict.contains(needle), "{line}: {verdict}");
        }
    }

    #[test]
    fn errors_echo_the_request_id() {
        let registry = AlgorithmRegistry::standard();
        let (verdict, errored) =
            handle_request_line(&registry, r#"{"id": 41, "algorithm": "CU-UDP-EDF-VD"}"#);
        assert!(errored);
        assert!(verdict.contains("\"id\":41"), "{verdict}");
        let (verdict, errored) = handle_request_line(
            &registry,
            r#"{"id": "r2", "type": "admit", "task": {"id": 0, "period": 5, "wcet_lo": 1}}"#,
        );
        assert!(errored);
        assert!(verdict.contains("\"id\":\"r2\""), "{verdict}");
        assert!(verdict.contains("mcexp serve"), "{verdict}");
    }

    #[test]
    fn session_verbs_point_at_the_server() {
        let registry = AlgorithmRegistry::standard();
        for line in [
            r#"{"type": "open_session", "algorithm": "CU-UDP-EDF-VD", "m": 2}"#,
            r#"{"type": "query"}"#,
            r#"{"type": "close"}"#,
        ] {
            let (verdict, errored) = handle_request_line(&registry, line);
            assert!(errored, "{line}");
            assert!(verdict.contains("mcexp serve"), "{line}: {verdict}");
        }
        assert!(parse_request(r#"{"type": "close"}"#)
            .unwrap_err()
            .contains("mcexp serve"));
    }

    #[test]
    fn run_eval_streams_line_per_request() {
        let registry = AlgorithmRegistry::standard();
        let input = format!("{}\n\n{}\n", GOOD.replace('\n', " "), "{bad");
        let mut out = Vec::new();
        let summary = run_eval(&registry, input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.errors, 1);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"schedulable\":true"));
        assert!(lines[0].contains("\"type\":\"eval\""));
        assert!(lines[0].contains("\"v\":1"));
        assert!(lines[1].contains("\"error\""));
        // Every verdict is itself valid JSON.
        for line in lines {
            serde_json::parse_value(line).unwrap();
        }
    }
}
