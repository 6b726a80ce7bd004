//! A request decoder that parses each line into a `serde_json::Value`
//! tree and then looks the fields up in the tree. It is the oracle of a
//! differential test: on any line, valid or not,
//! [`super::parse_envelope`] must return what this returns.

use super::{
    Envelope, EnvelopeError, EvalRequest, Request, RequestId, MAX_PROCESSORS, PROTOCOL_VERSION,
};
use mcsched_model::{Criticality, Task, TaskId, TaskSet};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use serde::Value;

/// Decodes one request line through a `Value` tree.
///
/// # Errors
///
/// Returns the in-band error message, with the request's `id` attached
/// when one was present and well-formed.
pub(super) fn parse_envelope(line: &str) -> Result<Envelope, EnvelopeError> {
    let v = serde_json::parse_value(line)
        .map_err(|e| EnvelopeError::bare(format!("malformed JSON: {e}")))?;
    let id = match v.get("id") {
        None => None,
        Some(raw) => Some(RequestId::from_value(raw).ok_or_else(|| {
            EnvelopeError::bare("`id` must be an integer or a string".to_owned())
        })?),
    };
    let fail = |message: String| EnvelopeError {
        id: id.clone(),
        message,
    };
    match v.get("v") {
        None => {}
        Some(ver) => match ver.as_u64() {
            Some(PROTOCOL_VERSION) => {}
            Some(other) => {
                return Err(fail(format!(
                    "unsupported protocol version {other} (this server speaks v{PROTOCOL_VERSION})"
                )))
            }
            None => return Err(fail("`v` must be an integer".to_owned())),
        },
    }
    let kind = match v.get("type") {
        None => "eval",
        Some(t) => t
            .as_str()
            .ok_or_else(|| fail("`type` must be a string".to_owned()))?,
    };
    let request = match kind {
        "eval" => Request::Eval(eval_from_value(&v).map_err(&fail)?),
        "open_session" => {
            let algorithm = v
                .get("algorithm")
                .and_then(Value::as_str)
                .ok_or_else(|| fail("open_session needs a string `algorithm`".to_owned()))?
                .to_owned();
            let m = parse_m(&v).map_err(&fail)?;
            let session = match v.get("session") {
                None => None,
                Some(s) if s.is_null() => None,
                Some(s) => Some(
                    s.as_str()
                        .ok_or_else(|| fail("`session` must be a string".to_owned()))?
                        .to_owned(),
                ),
            };
            Request::OpenSession {
                algorithm,
                m,
                session,
            }
        }
        "admit" => {
            let task = v
                .get("task")
                .ok_or_else(|| fail("admit needs a `task` object".to_owned()))?;
            let task = task_from_value(task).map_err(|e| fail(format!("task: {e}")))?;
            let op_id = parse_op_id(&v).map_err(&fail)?;
            Request::Admit { task, op_id }
        }
        "remove" => {
            let raw = v
                .get("task_id")
                .and_then(Value::as_u64)
                .ok_or_else(|| fail("remove needs an integer `task_id`".to_owned()))?;
            let task_id = u32::try_from(raw)
                .map(TaskId)
                .map_err(|_| fail("`task_id` out of range".to_owned()))?;
            let op_id = parse_op_id(&v).map_err(&fail)?;
            Request::Remove { task_id, op_id }
        }
        "query" => {
            let probe = match v.get("task") {
                None => None,
                Some(t) if t.is_null() => None,
                Some(t) => Some(task_from_value(t).map_err(|e| fail(format!("task: {e}")))?),
            };
            Request::Query { probe }
        }
        "close" => Request::Close,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(fail(format!(
                "unknown request type `{other}` (expected eval, open_session, admit, remove, \
                 query, close or shutdown)"
            )))
        }
    };
    Ok(Envelope { id, request })
}

/// Parses the legacy/`eval` body fields out of a request object.
fn eval_from_value(v: &Value) -> Result<EvalRequest, String> {
    let algorithm = v
        .get("algorithm")
        .and_then(Value::as_str)
        .ok_or("request needs a string `algorithm`")?
        .to_owned();
    let m = parse_m(v)?;
    let tasks_value = v
        .get("tasks")
        .and_then(Value::as_seq)
        .ok_or("request needs an array `tasks`")?;
    let mut tasks = TaskSet::with_capacity(tasks_value.len());
    for (i, tv) in tasks_value.iter().enumerate() {
        let task = task_from_value(tv).map_err(|e| format!("tasks[{i}]: {e}"))?;
        tasks
            .try_push(task)
            .map_err(|e| format!("tasks[{i}]: {e}"))?;
    }
    Ok(EvalRequest {
        algorithm,
        m,
        tasks,
    })
}

/// Parses the optional `op_id` idempotency token (string-only on the
/// wire, so render/parse stay exact inverses).
fn parse_op_id(v: &Value) -> Result<Option<String>, String> {
    match v.get("op_id") {
        None => Ok(None),
        Some(s) if s.is_null() => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| "`op_id` must be a string".to_owned()),
    }
}

fn parse_m(v: &Value) -> Result<usize, String> {
    let m = v
        .get("m")
        .and_then(Value::as_u64)
        .ok_or("request needs an integer `m`")?;
    if m == 0 {
        return Err("`m` must be at least 1".to_owned());
    }
    // Partitioning allocates per-processor admission state, so an absurd
    // `m` in one request must not be able to abort the whole stream.
    if m > MAX_PROCESSORS {
        return Err(format!("`m` must be at most {MAX_PROCESSORS}"));
    }
    usize::try_from(m).map_err(|_| "`m` out of range".to_owned())
}

/// Parses one task object (`criticality` defaults to `"LO"`, `wcet_hi`
/// to `wcet_lo`, `deadline` to `period`).
fn task_from_value(v: &Value) -> Result<Task, String> {
    let field = |name: &str| v.get(name).and_then(Value::as_u64);
    let id = field("id").ok_or("needs an integer `id`")?;
    let id = u32::try_from(id).map_err(|_| "`id` out of range".to_owned())?;
    let period = field("period").ok_or("needs an integer `period`")?;
    let wcet_lo = field("wcet_lo").ok_or("needs an integer `wcet_lo`")?;
    let criticality = match v.get("criticality") {
        None => Criticality::Low,
        Some(c) => {
            let s = c.as_str().ok_or("`criticality` must be a string")?;
            match s.to_ascii_uppercase().as_str() {
                "HI" | "HIGH" | "HC" => Criticality::High,
                "LO" | "LOW" | "LC" => Criticality::Low,
                other => return Err(format!("unknown criticality `{other}` (use HI or LO)")),
            }
        }
    };
    let mut builder = Task::builder(id)
        .period(period)
        .criticality(criticality)
        .wcet_lo(wcet_lo);
    // Optional budgets: absent or `null` takes the default, any other
    // non-integer is an error rather than a silent fallback.
    let optional = |name: &str| match v.get(name) {
        None => Ok(None),
        Some(x) if x.is_null() => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{name}` must be an integer")),
    };
    if let Some(wcet_hi) = optional("wcet_hi")? {
        builder = builder.wcet_hi(wcet_hi);
    }
    if let Some(deadline) = optional("deadline")? {
        builder = builder.deadline(deadline);
    }
    builder.try_build().map_err(|e| e.to_string())
}

// ------------------------------------------------- differential test

const ALGORITHMS: &[&str] = &["CU-UDP-ECDF", "CA-UDP-AMC-rtb", "CU-UDP-EDF-VD", "NOPE"];

/// Keys the decoders know, plus a few they do not.
const KEYS: &[&str] = &[
    "id",
    "v",
    "type",
    "algorithm",
    "m",
    "session",
    "op_id",
    "task_id",
    "task",
    "tasks",
    "period",
    "criticality",
    "wcet_lo",
    "wcet_hi",
    "deadline",
    "extra",
    "",
];

/// Short text with escapes, control characters and multi-byte chars.
fn text(rng: &mut StdRng) -> String {
    const CHARS: &[char] = &['a', 'Z', '"', '\\', '/', '\n', '\u{1}', 'é', '☃', '𝄞', ' '];
    (0..rng.random_range(0..6usize))
        .map(|_| CHARS[rng.random_range(0..CHARS.len())])
        .collect()
}

fn task(rng: &mut StdRng) -> Task {
    let id = rng.random_range(0..4u32);
    let period = rng.random_range(1..60u64);
    let lo = rng.random_range(1..=period);
    let (criticality, hi) = if rng.random_bool(0.5) {
        (Criticality::High, rng.random_range(lo..=period))
    } else {
        (Criticality::Low, lo)
    };
    Task::builder(id)
        .period(period)
        .criticality(criticality)
        .wcet_lo(lo)
        .wcet_hi(hi)
        .deadline(rng.random_range(hi..=period))
        .try_build()
        .unwrap()
}

fn op_id(rng: &mut StdRng) -> Option<String> {
    rng.random_bool(0.5).then(|| text(rng))
}

/// A valid envelope of any verb.
fn envelope(rng: &mut StdRng) -> Envelope {
    let algorithm = ALGORITHMS[rng.random_range(0..ALGORITHMS.len())].to_owned();
    let m = rng.random_range(1..9usize);
    let request = match rng.random_range(0..7u32) {
        0 => {
            let mut tasks = TaskSet::with_capacity(4);
            for _ in 0..rng.random_range(0..5usize) {
                let _ = tasks.try_push(task(rng));
            }
            Request::Eval(EvalRequest {
                algorithm,
                m,
                tasks,
            })
        }
        1 => Request::OpenSession {
            algorithm,
            m,
            session: op_id(rng),
        },
        2 => Request::Admit {
            task: task(rng),
            op_id: op_id(rng),
        },
        3 => Request::Remove {
            task_id: TaskId(rng.random_range(0..9u32)),
            op_id: op_id(rng),
        },
        4 => Request::Query {
            probe: rng.random_bool(0.6).then(|| task(rng)),
        },
        5 => Request::Close,
        _ => Request::Shutdown,
    };
    match rng.random_range(0..3u32) {
        0 => Envelope::new(request),
        1 => Envelope::with_id(RequestId::Num(rng.random_range(0..1000u64)), request),
        _ => Envelope::with_id(RequestId::Str(text(rng)), request),
    }
}

/// Any JSON value, mostly of a type some field does not expect.
fn any_value(rng: &mut StdRng, depth: usize) -> Value {
    let kinds = if depth < 3 { 12 } else { 10 };
    match rng.random_range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.random_bool(0.5)),
        2 => Value::UInt([0, 1, 9, 4096, 4097, 1 << 32, u64::MAX][rng.random_range(0..7usize)]),
        3 => Value::Int(-rng.random_range(1..10i64)),
        4 => Value::Float([9.5, 9.0, 1.0, -0.0, 1e300][rng.random_range(0..5usize)]),
        5 => Value::Str(text(rng)),
        6 => Value::Str(
            [
                "admit",
                "eval",
                "query",
                "remove",
                "HI",
                "lo",
                "hc",
                "9",
                "CU-UDP-ECDF",
            ][rng.random_range(0..9usize)]
            .to_owned(),
        ),
        7 => Value::Str(ALGORITHMS[rng.random_range(0..ALGORITHMS.len())].to_owned()),
        8 | 9 => Value::UInt(rng.random_range(0..12u64)),
        10 => Value::Seq(
            (0..rng.random_range(0..3usize))
                .map(|_| any_value(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.random_range(0..4usize))
                .map(|_| {
                    let key = KEYS[rng.random_range(0..KEYS.len())].to_owned();
                    (key, any_value(rng, depth + 1))
                })
                .collect(),
        ),
    }
}

/// Damages an object the way a confused client would: reordered keys,
/// a dropped key, a value of the wrong type, an unknown key with a
/// nested value, a duplicate key, or a criticality in another spelling,
/// in nested task objects as well.
fn mutate(rng: &mut StdRng, v: &mut Value, depth: usize) {
    const SPELLINGS: &[&str] = &[
        "hi", "Hi", "HIGH", "high", "hC", "LO", "lo", "Low", "lc", "mid", "",
    ];
    let Value::Map(entries) = v else { return };
    for (key, value) in entries.iter_mut() {
        if key == "criticality" && rng.random_bool(0.3) {
            *value = Value::Str(SPELLINGS[rng.random_range(0..SPELLINGS.len())].to_owned());
        }
    }
    for i in (1..entries.len()).rev() {
        if rng.random_bool(0.3) {
            entries.swap(i, rng.random_range(0..=i));
        }
    }
    if !entries.is_empty() && rng.random_bool(0.15) {
        entries.remove(rng.random_range(0..entries.len()));
    }
    if !entries.is_empty() && rng.random_bool(0.25) {
        let i = rng.random_range(0..entries.len());
        entries[i].1 = any_value(rng, depth + 1);
    }
    if rng.random_bool(0.25) {
        let key = KEYS[rng.random_range(0..KEYS.len())].to_owned();
        let at = rng.random_range(0..=entries.len());
        entries.insert(at, (key, any_value(rng, depth + 1)));
    }
    if !entries.is_empty() && rng.random_bool(0.2) {
        let key = entries[rng.random_range(0..entries.len())].0.clone();
        let at = rng.random_range(0..=entries.len());
        entries.insert(at, (key, any_value(rng, depth + 1)));
    }
    for (key, value) in entries.iter_mut() {
        match (key.as_str(), value) {
            ("task", task) => mutate(rng, task, depth + 1),
            ("tasks", Value::Seq(tasks)) => {
                for task in tasks {
                    if rng.random_bool(0.3) {
                        mutate(rng, task, depth + 2);
                    }
                }
            }
            _ => {}
        }
    }
}

fn whitespace(rng: &mut StdRng, out: &mut String) {
    out.push_str([" ", "\t", "\r\n", "  ", "", "", "", ""][rng.random_range(0..8usize)]);
}

/// Writes `s` as a JSON string, with some characters as `\u` escapes.
fn emit_str(rng: &mut StdRng, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        if rng.random_bool(0.15) {
            for unit in c.encode_utf16(&mut [0; 2]) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        } else {
            let mut quoted = String::new();
            serde_json::write_escaped(c.encode_utf8(&mut [0; 4]), &mut quoted);
            out.push_str(&quoted[1..quoted.len() - 1]);
        }
    }
    out.push('"');
}

/// Writes `v` as JSON text with whitespace between the tokens.
fn emit(rng: &mut StdRng, v: &Value, out: &mut String) {
    match v {
        Value::Str(s) => emit_str(rng, s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                whitespace(rng, out);
                emit(rng, item, out);
                whitespace(rng, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                whitespace(rng, out);
                emit_str(rng, key, out);
                whitespace(rng, out);
                out.push(':');
                whitespace(rng, out);
                emit(rng, value, out);
                whitespace(rng, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&serde_json::to_string(scalar).unwrap()),
    }
}

/// Asserts that the one-pass decoder and the oracle agree on `line`;
/// returns whether the line decoded.
fn agree(line: &str) -> bool {
    let got = super::parse_envelope(line);
    assert_eq!(got, parse_envelope(line), "{line:?}");
    got.is_ok()
}

#[test]
fn one_pass_decoder_matches_the_value_tree_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0e1f);
    let (mut cases, mut decoded) = (0usize, 0usize);
    for round in 0..2048 {
        let line = envelope(&mut rng).render();
        let mut tree = serde_json::parse_value(&line).unwrap();
        if round % 4 != 0 {
            mutate(&mut rng, &mut tree, 0);
        }
        // The task decoder journal recovery uses, on the same objects.
        if let Some(task) = tree.get("task") {
            assert_eq!(super::task_from_value(task), task_from_value(task));
        }
        let mut text = String::new();
        if rng.random_bool(0.5) {
            text = serde_json::to_string(&tree).unwrap();
        } else {
            whitespace(&mut rng, &mut text);
            emit(&mut rng, &tree, &mut text);
            whitespace(&mut rng, &mut text);
        }
        cases += 1;
        decoded += usize::from(agree(&text));
        // Transport damage: one byte overwritten.
        let mut bytes = text.clone().into_bytes();
        let at = rng.random_range(0..bytes.len());
        const DAMAGE: &[u8] = b" \"\\{}[],:0-9.etnul";
        bytes[at] = DAMAGE[rng.random_range(0..DAMAGE.len())];
        cases += 1;
        decoded += usize::from(agree(&String::from_utf8_lossy(&bytes)));
        // Every truncation of a few lines.
        if round % 128 == 0 {
            for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
                cases += 1;
                decoded += usize::from(agree(&text[..cut]));
            }
        }
    }
    // Non-objects and deep nesting.
    let deep = format!("{}{}", "[".repeat(130), "]".repeat(130));
    let deep_field = format!(r#"{{"type":"close","x":{deep}}}"#);
    for line in [
        "[1,2]",
        "\"close\"",
        "5",
        "null",
        "",
        " ",
        &deep,
        &deep_field,
    ] {
        cases += 1;
        decoded += usize::from(agree(line));
    }
    assert!(cases >= 4096, "{cases} cases");
    // Both outcomes are well represented.
    assert!(decoded * 5 > cases, "{decoded} of {cases} decoded");
    assert!(
        (cases - decoded) * 5 > cases,
        "{decoded} of {cases} decoded"
    );
}
