//! `mcexp eval` end to end on the real binary: one server connection
//! over stdin/stdout. Write failures still exit 1, a line far past the
//! server's default frame cap is answered, invalid UTF-8 is answered in
//! band, session verbs are served, and `close` ends the stream.

use serde_json::Value;
use std::io::Write;
use std::process::{Command, Output, Stdio};

const EVAL: &str = r#"{"algorithm":"CU-UDP-EDF-VD","m":2,"tasks":[{"id":0,"period":10,"criticality":"HI","wcet_lo":2,"wcet_hi":4},{"id":1,"period":20,"wcet_lo":6}]}"#;

fn mcexp() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mcsched-exp"));
    cmd.arg("eval");
    cmd
}

/// Runs `mcexp eval` with `input` on stdin and returns its output.
fn eval(input: &[u8]) -> Output {
    let mut child = mcexp()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mcexp eval");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(input).expect("write requests");
    drop(stdin);
    child.wait_with_output().expect("mcexp eval runs")
}

/// The reply lines of a successful run, each parsed as JSON.
fn replies(output: &Output) -> Vec<Value> {
    assert!(output.status.success(), "{output:?}");
    String::from_utf8(output.stdout.clone())
        .expect("UTF-8 replies")
        .lines()
        .map(|line| serde_json::parse_value(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect()
}

fn kind(reply: &Value) -> &str {
    reply.get("type").and_then(Value::as_str).unwrap_or("")
}

#[cfg(target_os = "linux")]
#[test]
fn a_write_failure_exits_one() {
    let input = std::env::temp_dir().join(format!("mcexp-eval-{}.jsonl", std::process::id()));
    std::fs::write(&input, format!("{EVAL}\n")).unwrap();
    let to_file = mcexp()
        .arg("--input")
        .arg(&input)
        .args(["--output", "/dev/full"])
        .output()
        .unwrap();
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .unwrap();
    let to_stdout = mcexp()
        .arg("--input")
        .arg(&input)
        .stdout(full)
        .output()
        .unwrap();
    std::fs::remove_file(&input).unwrap();
    for output in [to_file, to_stdout] {
        assert_eq!(output.status.code(), Some(1), "{output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("eval failed"), "{stderr}");
    }
}

#[test]
fn a_line_past_the_default_frame_cap_is_answered() {
    let tasks: Vec<String> = (0..2000)
        .map(|i| format!(r#"{{"id":{i},"period":{},"wcet_lo":1}}"#, 1000 + i))
        .collect();
    let line = format!(
        r#"{{"algorithm":"CU-UDP-EDF-VD","m":64,"tasks":[{}]}}"#,
        tasks.join(",")
    );
    assert!(line.len() > 64 * 1024, "{}", line.len());
    let replies = replies(&eval(format!("{line}\n").as_bytes()));
    assert_eq!(replies.len(), 1);
    assert_eq!(kind(&replies[0]), "eval");
    assert_eq!(
        replies[0].get("schedulable").and_then(Value::as_bool),
        Some(true)
    );
}

#[test]
fn invalid_utf8_is_answered_in_band() {
    let mut input = b"\xff\xfe\n".to_vec();
    input.extend_from_slice(format!("{EVAL}\n").as_bytes());
    let output = eval(&input);
    let replies = replies(&output);
    assert_eq!(replies.len(), 2);
    assert_eq!(kind(&replies[0]), "error");
    let error = replies[0].get("error").and_then(Value::as_str).unwrap();
    assert!(error.contains("malformed JSON"), "{error}");
    assert_eq!(kind(&replies[1]), "eval");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("2 request(s), 1 error verdict(s)"),
        "{stderr}"
    );
}

#[test]
fn session_verbs_are_served_and_close_ends_the_stream() {
    let script = [
        r#"{"type":"open_session","algorithm":"CU-UDP-EDF-VD","m":2}"#,
        r#"{"type":"admit","task":{"id":0,"period":10,"wcet_lo":2}}"#,
        r#"{"type":"query"}"#,
        r#"{"id":4,"type":"close"}"#,
        EVAL,
    ];
    let replies = replies(&eval(format!("{}\n", script.join("\n")).as_bytes()));
    let kinds: Vec<&str> = replies.iter().map(kind).collect();
    assert_eq!(kinds, ["session", "admit", "query", "closed"]);
    assert_eq!(
        replies[1].get("admitted").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(replies[3].get("id").and_then(Value::as_u64), Some(4));
}
