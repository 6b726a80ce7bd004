//! The `eval` verb's verdict: one task set judged by one named
//! algorithm, as the server's connection loop ([`server`](crate::server))
//! answers it over TCP (`mcexp serve`) and over stdin/stdout
//! (`mcexp eval`). The line shapes are the [`protocol`](crate::protocol)
//! module's.

use crate::protocol::{EvalRequest, EvalResponse};
use mcsched_core::AlgorithmRegistry;

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
        .spec(&request.algorithm)
        .map_err(|e| e.to_string())?;
    let verdict = algo.try_partition(&request.tasks, request.m);
    Ok(EvalResponse {
        algorithm: request.algorithm.clone(),
        m: request.m,
        schedulable: verdict.is_ok(),
        partition: verdict.as_ref().ok().map(|partition| {
            partition
                .iter()
                .map(|proc| proc.iter().map(|t| t.id().0).collect())
                .collect()
        }),
        rejected_task: verdict.as_ref().err().map(|e| e.task.0),
        detail: verdict.err().map(|e| e.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_envelope, Request};
    use crate::server::{serve_connection, ServerConfig};

    const GOOD: &str = r#"{"algorithm": "CU-UDP-EDF-VD", "m": 2, "tasks": [
        {"id": 0, "period": 10, "criticality": "HI", "wcet_lo": 2, "wcet_hi": 4},
        {"id": 1, "period": 20, "wcet_lo": 6}]}"#;

    fn eval_request(line: &str) -> EvalRequest {
        match parse_envelope(line).unwrap().request {
            Request::Eval(req) => req,
            other => panic!("expected eval, got {}", other.kind()),
        }
    }

    /// Serves `line` as the only request of a connection (its newlines
    /// folded to spaces, so it stays one frame): the reply line, and
    /// whether it was an error reply.
    fn serve_line(registry: &AlgorithmRegistry, line: &str) -> (String, bool) {
        let frame = line.replace('\n', " ");
        let mut out = Vec::new();
        let stats = serve_connection(
            registry,
            &ServerConfig::default(),
            frame.as_bytes(),
            &mut out,
        );
        let reply = String::from_utf8(out).unwrap();
        (reply.trim_end().to_owned(), stats.errors > 0)
    }

    #[test]
    fn parses_and_applies_defaults() {
        let req = eval_request(GOOD);
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
        let req = eval_request(GOOD);
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
        let req = eval_request(line);
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
        let (verdict, errored) = serve_line(
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
            let (verdict, errored) = serve_line(&registry, line);
            assert!(errored, "{line}");
            assert!(verdict.contains(needle), "{line}: {verdict}");
        }
    }

    #[test]
    fn errors_echo_the_request_id() {
        let registry = AlgorithmRegistry::standard();
        let (verdict, errored) =
            serve_line(&registry, r#"{"id": 41, "algorithm": "CU-UDP-EDF-VD"}"#);
        assert!(errored);
        assert!(verdict.contains("\"id\":41"), "{verdict}");
        let (verdict, errored) = serve_line(
            &registry,
            r#"{"id": "r2", "type": "admit", "task": {"id": 0, "period": 5, "wcet_lo": 1}}"#,
        );
        assert!(errored);
        assert!(verdict.contains("\"id\":\"r2\""), "{verdict}");
        assert!(verdict.contains("no open session"), "{verdict}");
    }

    #[test]
    fn session_verbs_point_at_the_server() {
        // Session verbs are served on the connection: a lone `query` has
        // no session to answer from, the other two succeed.
        let registry = AlgorithmRegistry::standard();
        for (line, reply, error) in [
            (
                r#"{"type": "open_session", "algorithm": "CU-UDP-EDF-VD", "m": 2}"#,
                "\"type\":\"session\"",
                false,
            ),
            (r#"{"type": "query"}"#, "send `open_session` first", true),
            (r#"{"type": "close"}"#, "\"type\":\"closed\"", false),
        ] {
            let (verdict, errored) = serve_line(&registry, line);
            assert_eq!(errored, error, "{line}");
            assert!(verdict.contains(reply), "{line}: {verdict}");
        }
        assert_eq!(
            parse_envelope(r#"{"type": "close"}"#).unwrap().request,
            Request::Close
        );
    }

    #[test]
    fn run_eval_streams_line_per_request() {
        let registry = AlgorithmRegistry::standard();
        let input = format!("{}\n\n{}\n", GOOD.replace('\n', " "), "{bad");
        let mut out = Vec::new();
        let stats = serve_connection(
            &registry,
            &ServerConfig::default(),
            input.as_bytes(),
            &mut out,
        );
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 1);
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
