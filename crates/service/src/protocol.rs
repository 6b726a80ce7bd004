//! The versioned JSONL wire protocol of the server's connections: over
//! TCP (`mcexp serve`) and over stdin/stdout (`mcexp eval`).
//!
//! One JSON object per line in both directions. Every request may carry
//! two optional envelope fields:
//!
//! * `"v"` — the protocol version; absent means "current". The only
//!   version is [`PROTOCOL_VERSION`]`= 1`; anything else is answered
//!   with a typed error so old clients fail loudly, not subtly.
//! * `"id"` — an opaque correlation token (integer or string), echoed
//!   verbatim on the reply — including error replies, so a pipelining
//!   client can match failures to requests.
//!
//! The request kind is the `"type"` field. A line with **no** `"type"`
//! is the legacy batch-eval shape that predates this module
//! (`{"algorithm", "m", "tasks"}` — see [`EvalRequest`]); it keeps
//! parsing unchanged, forever. The session verbs (`open_session`,
//! `admit`, `remove`, `query`, `close`, `shutdown`) act on the
//! connection's session, on either transport.
//!
//! Replies always carry `"type"` (`eval`, `session`, `admit`, `remove`,
//! `query`, `closed`, `overload`, `error`), `"v"`, and the echoed
//! `"id"` when one was given. [`Reply::render`] and [`parse_reply`] are
//! exact inverses, as are [`Envelope::render`] and [`parse_envelope`] —
//! the round-trip property the protocol tests pin.
//!
//! ## Encoding
//!
//! Replies, request lines and journal records are written directly as
//! text by one small JSON-line writer, with no intermediate tree. Fields
//! are written in a fixed order, and strings go through the vendored
//! `serde_json::write_escaped`, the escaper `serde_json::to_string` uses.
//! The server's connection loop renders every reply into one reused buffer
//! ([`Reply::render_into`]), and the journal does the same for every
//! record.
//!
//! ## Decoding
//!
//! [`parse_envelope`] reads a request line in one pass of the vendored
//! `serde_json::Scanner`, with no `Value` tree. The pass keeps the first
//! value of each key the protocol knows (as a tree lookup would find the
//! first), borrows strings that hold no escape from the line, decodes
//! the tasks of `task` and `tasks` as it meets them, and skips every
//! other value while still checking it. Only then are the fields judged,
//! in a fixed order, so a syntax error anywhere in the line takes
//! precedence over a bad field, and the `id` is attached to every error
//! after the syntax check. `serde_json::parse_value` walks the same
//! scanner, so the `malformed JSON` messages are the ones a tree parse
//! gives. A request allocates only what it owns: an `admit`, `remove`
//! or `query` with a numeric id allocates nothing, an `op_id` or a
//! string id one `String` each, and an `eval` its algorithm name and
//! task set. The `Value` tree remains for replies parsed by clients
//! ([`parse_reply`]) and for cold paths: reports, the algorithm
//! registry and journal recovery.

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

use mcsched_model::{Criticality, Task, TaskId, TaskSet};
use serde::Value;
use serde_json::{Scanner, Token};
use std::fmt::Write as _;

/// The wire protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Ceiling on the requested processor count: far above any platform the
/// analysis targets, low enough that per-processor admission-state
/// allocation stays trivial.
pub const MAX_PROCESSORS: u64 = 4096;

/// A client-chosen correlation token, echoed on the reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestId {
    /// An integer id (e.g. a sequence number).
    Num(u64),
    /// A string id (e.g. a UUID).
    Str(String),
}

impl RequestId {
    fn from_token(t: &Token<'_>) -> Option<RequestId> {
        match t {
            Token::Str(s) => Some(RequestId::Str(s.as_ref().to_owned())),
            other => other.as_u64().map(RequestId::Num),
        }
    }

    fn from_value(v: &Value) -> Option<RequestId> {
        RequestId::from_token(&Token::from(v))
    }
}

/// A parsed batch schedulability request (the legacy line shape, and the
/// `eval` verb of the v1 protocol).
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Registry name of the algorithm to apply.
    pub algorithm: String,
    /// Processor count.
    pub m: usize,
    /// The task set to judge.
    pub tasks: TaskSet,
}

/// One request line: the optional correlation id plus the verb.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Echoed on the reply when present.
    pub id: Option<RequestId>,
    /// What the client asked for.
    pub request: Request,
}

impl Envelope {
    /// Wraps a request with no correlation id.
    pub fn new(request: Request) -> Self {
        Envelope { id: None, request }
    }

    /// Wraps a request with a correlation id.
    pub fn with_id(id: RequestId, request: Request) -> Self {
        Envelope {
            id: Some(id),
            request,
        }
    }

    /// Renders the request as one JSON line (no trailing newline) —
    /// the client side of [`parse_envelope`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut o = JsonObject::open(&mut out);
        o.str("type", self.request.kind())
            .uint("v", PROTOCOL_VERSION)
            .id(self.id.as_ref());
        match &self.request {
            Request::Eval(req) => {
                o.str("algorithm", &req.algorithm)
                    .uint("m", req.m as u64)
                    .tasks("tasks", &req.tasks);
            }
            Request::OpenSession {
                algorithm,
                m,
                session,
            } => {
                o.str("algorithm", algorithm).uint("m", *m as u64);
                if let Some(name) = session {
                    o.str("session", name);
                }
            }
            Request::Admit { task, op_id } => {
                o.task("task", task);
                if let Some(op) = op_id {
                    o.str("op_id", op);
                }
            }
            Request::Remove { task_id, op_id } => {
                o.uint("task_id", u64::from(task_id.0));
                if let Some(op) = op_id {
                    o.str("op_id", op);
                }
            }
            Request::Query { probe } => {
                if let Some(task) = probe {
                    o.task("task", task);
                }
            }
            Request::Close | Request::Shutdown => {}
        }
        o.close();
        out
    }
}

/// The request verbs of protocol v1.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Judge one frozen task set (the stateless verb; also the shape of
    /// every pre-v1 request line).
    Eval(EvalRequest),
    /// Open this connection's session: a persistent
    /// [`ClusterSession`](mcsched_core::ClusterSession) over `m`
    /// processors. One session per connection; reopening replaces it.
    OpenSession {
        /// Registry name of the algorithm.
        algorithm: String,
        /// Processor count.
        m: usize,
        /// Durable session name. When the server runs with a journal,
        /// a named session's committed operations are journaled and the
        /// session survives a crash (`mcexp serve --recover`); reopening
        /// the same name with the same algorithm and `m` resumes it.
        /// Anonymous sessions (the pre-journal behaviour) are ephemeral.
        session: Option<String>,
    },
    /// Admit one task into the session's cluster (commits on success).
    Admit {
        /// The arriving task.
        task: Task,
        /// Client-chosen idempotency token. On a named (journaled)
        /// session, retrying an `admit` with an `op_id` the session has
        /// already applied replays the recorded verdict instead of
        /// re-executing — safe to resend after a lost reply.
        op_id: Option<String>,
    },
    /// Remove a committed task from the session's cluster.
    Remove {
        /// Id of the task to remove.
        task_id: TaskId,
        /// Idempotency token, as on [`Request::Admit`].
        op_id: Option<String>,
    },
    /// Inspect the session: current partition, plus a non-committing
    /// placement probe when a task is supplied.
    Query {
        /// When present, answer where this task *would* go.
        probe: Option<Task>,
    },
    /// Close the session and the connection.
    Close,
    /// Ask the server to shut down gracefully (only honoured when the
    /// server was started with in-band shutdown enabled).
    Shutdown,
}

impl Request {
    /// The wire name of this verb.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Eval(_) => "eval",
            Request::OpenSession { .. } => "open_session",
            Request::Admit { .. } => "admit",
            Request::Remove { .. } => "remove",
            Request::Query { .. } => "query",
            Request::Close => "close",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request line that could not be parsed: the message to send back,
/// plus the correlation id when the line was well-formed enough to
/// carry one (so even malformed requests are answered addressably).
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeError {
    /// The id to echo, when one was recovered.
    pub id: Option<RequestId>,
    /// What was wrong, for the in-band error reply.
    pub message: String,
}

impl EnvelopeError {
    fn bare(message: impl Into<String>) -> Self {
        EnvelopeError {
            id: None,
            message: message.into(),
        }
    }
}

/// Parses one request line (the inverse of [`Envelope::render`]).
///
/// # Errors
///
/// Returns the in-band error message, with the request's `id` attached
/// when one was present and well-formed.
pub fn parse_envelope(line: &str) -> Result<Envelope, EnvelopeError> {
    let f = RequestFields::scan(line)
        .map_err(|e| EnvelopeError::bare(format!("malformed JSON: {e}")))?;
    let id = match &f.id {
        None => None,
        Some(raw) => Some(RequestId::from_token(raw).ok_or_else(|| {
            EnvelopeError::bare("`id` must be an integer or a string".to_owned())
        })?),
    };
    let fail = |message: String| EnvelopeError {
        id: id.clone(),
        message,
    };
    match &f.version {
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
    let kind = match &f.kind {
        None => "eval",
        Some(t) => t
            .as_str()
            .ok_or_else(|| fail("`type` must be a string".to_owned()))?,
    };
    let request = match kind {
        "eval" => Request::Eval(f.eval().map_err(&fail)?),
        "open_session" => {
            let algorithm = f
                .algorithm
                .as_ref()
                .and_then(Token::as_str)
                .ok_or_else(|| fail("open_session needs a string `algorithm`".to_owned()))?
                .to_owned();
            let m = parse_m(f.m.as_ref()).map_err(&fail)?;
            let session = optional_str(f.session.as_ref(), "session").map_err(&fail)?;
            Request::OpenSession {
                algorithm,
                m,
                session,
            }
        }
        "admit" => {
            if f.task.is_none() {
                return Err(fail("admit needs a `task` object".to_owned()));
            }
            let task = task_from_fields(&f.task_fields).map_err(|e| fail(format!("task: {e}")))?;
            let op_id = optional_str(f.op_id.as_ref(), "op_id").map_err(&fail)?;
            Request::Admit { task, op_id }
        }
        "remove" => {
            let raw = f
                .task_id
                .as_ref()
                .and_then(Token::as_u64)
                .ok_or_else(|| fail("remove needs an integer `task_id`".to_owned()))?;
            let task_id = u32::try_from(raw)
                .map(TaskId)
                .map_err(|_| fail("`task_id` out of range".to_owned()))?;
            let op_id = optional_str(f.op_id.as_ref(), "op_id").map_err(&fail)?;
            Request::Remove { task_id, op_id }
        }
        "query" => {
            let probe = match &f.task {
                None => None,
                Some(t) if t.is_null() => None,
                Some(_) => {
                    Some(task_from_fields(&f.task_fields).map_err(|e| fail(format!("task: {e}")))?)
                }
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

/// The top-level fields of one request line, after one pass over it:
/// for each key the decoder knows, the first value it held (as
/// [`Value::get`] finds the first). Scalars are kept whole, strings
/// borrowed from the line when they hold no escape; a container is
/// kept as its opening token, except that `task` also keeps its known
/// fields and `tasks` is decoded into a task set as it is read. Other
/// keys are skipped, but the whole line is checked to be JSON before
/// any field is judged, and a bad task is reported only once the
/// checks that come before it have passed.
#[derive(Default)]
struct RequestFields<'a> {
    id: Option<Token<'a>>,
    version: Option<Token<'a>>,
    kind: Option<Token<'a>>,
    algorithm: Option<Token<'a>>,
    m: Option<Token<'a>>,
    session: Option<Token<'a>>,
    op_id: Option<Token<'a>>,
    task_id: Option<Token<'a>>,
    task: Option<Token<'a>>,
    task_fields: TaskFields<'a>,
    tasks: Option<Token<'a>>,
    /// The tasks of the `tasks` array up to the first bad one.
    task_set: TaskSet,
    /// Why the first bad task of `tasks` was refused.
    tasks_error: Option<String>,
}

impl<'a> RequestFields<'a> {
    fn scan(line: &'a str) -> serde_json::Result<Self> {
        let mut f = RequestFields::default();
        let mut sc = Scanner::new(line);
        let top = sc.value(0)?;
        if !matches!(top, Token::Object) {
            // Valid JSON that holds none of the fields.
            sc.skip_rest(&top, 0)?;
            sc.finish()?;
            return Ok(f);
        }
        while let Some(key) = sc.next_key()? {
            let slot = match &*key {
                "id" => &mut f.id,
                "v" => &mut f.version,
                "type" => &mut f.kind,
                "algorithm" => &mut f.algorithm,
                "m" => &mut f.m,
                "session" => &mut f.session,
                "op_id" => &mut f.op_id,
                "task_id" => &mut f.task_id,
                "task" if f.task.is_none() => {
                    let (token, fields) = TaskFields::scan(&mut sc, 1)?;
                    f.task = Some(token);
                    f.task_fields = fields;
                    continue;
                }
                "tasks" if f.tasks.is_none() => {
                    let token = sc.value(1)?;
                    if matches!(token, Token::Array) {
                        f.scan_tasks(&mut sc)?;
                    } else {
                        sc.skip_rest(&token, 1)?;
                    }
                    f.tasks = Some(token);
                    continue;
                }
                _ => {
                    sc.skip_value(1)?;
                    continue;
                }
            };
            scan_into(&mut sc, 1, slot)?;
        }
        sc.finish()?;
        Ok(f)
    }

    /// Reads the items of the `tasks` array into `task_set`, up to the
    /// first bad task; the items after it are only checked.
    fn scan_tasks(&mut self, sc: &mut Scanner<'a>) -> serde_json::Result<()> {
        let mut i = 0;
        while sc.next_item()? {
            let (_, fields) = TaskFields::scan(sc, 2)?;
            if self.tasks_error.is_none() {
                let pushed = task_from_fields(&fields)
                    .and_then(|task| self.task_set.try_push(task).map_err(|e| e.to_string()));
                self.tasks_error = pushed.err().map(|e| format!("tasks[{i}]: {e}"));
            }
            i += 1;
        }
        Ok(())
    }

    /// The `eval` body (also the legacy line shape): `algorithm`, `m`,
    /// then the tasks of `tasks`.
    fn eval(self) -> Result<EvalRequest, String> {
        let algorithm = self
            .algorithm
            .as_ref()
            .and_then(Token::as_str)
            .ok_or("request needs a string `algorithm`")?
            .to_owned();
        let m = parse_m(self.m.as_ref())?;
        if !matches!(self.tasks, Some(Token::Array)) {
            return Err("request needs an array `tasks`".to_owned());
        }
        if let Some(e) = self.tasks_error {
            return Err(e);
        }
        Ok(EvalRequest {
            algorithm,
            m,
            tasks: self.task_set,
        })
    }
}

/// The fields of one task object, first occurrence of each, as
/// [`RequestFields`] keeps them. All are absent when the value is not
/// an object.
#[derive(Default)]
struct TaskFields<'a> {
    id: Option<Token<'a>>,
    period: Option<Token<'a>>,
    criticality: Option<Token<'a>>,
    wcet_lo: Option<Token<'a>>,
    wcet_hi: Option<Token<'a>>,
    deadline: Option<Token<'a>>,
}

impl<'a> TaskFields<'a> {
    /// Reads the next value, at nesting `depth`, as a task: its token
    /// and, when it is an object, its fields.
    fn scan(sc: &mut Scanner<'a>, depth: usize) -> serde_json::Result<(Token<'a>, Self)> {
        let token = sc.value(depth)?;
        let mut t = TaskFields::default();
        if !matches!(token, Token::Object) {
            sc.skip_rest(&token, depth)?;
            return Ok((token, t));
        }
        while let Some(key) = sc.next_key()? {
            let slot = match &*key {
                "id" => &mut t.id,
                "period" => &mut t.period,
                "criticality" => &mut t.criticality,
                "wcet_lo" => &mut t.wcet_lo,
                "wcet_hi" => &mut t.wcet_hi,
                "deadline" => &mut t.deadline,
                _ => {
                    sc.skip_value(depth + 1)?;
                    continue;
                }
            };
            scan_into(sc, depth + 1, slot)?;
        }
        Ok((token, t))
    }

    /// The fields of a parsed task object (all absent for a non-object).
    fn from_value(v: &'a Value) -> Self {
        let field = |name: &str| v.get(name).map(Token::from);
        TaskFields {
            id: field("id"),
            period: field("period"),
            criticality: field("criticality"),
            wcet_lo: field("wcet_lo"),
            wcet_hi: field("wcet_hi"),
            deadline: field("deadline"),
        }
    }
}

/// Reads the next value, at nesting `depth`, into `slot` unless an
/// earlier occurrence of its key filled it; a container is kept as its
/// opening token.
fn scan_into<'a>(
    sc: &mut Scanner<'a>,
    depth: usize,
    slot: &mut Option<Token<'a>>,
) -> serde_json::Result<()> {
    let token = sc.value(depth)?;
    sc.skip_rest(&token, depth)?;
    slot.get_or_insert(token);
    Ok(())
}

/// An optional string field such as `session` or the `op_id`
/// idempotency token (string-only on the wire, so render/parse stay
/// exact inverses): absent or `null` is `None`.
fn optional_str(token: Option<&Token<'_>>, name: &str) -> Result<Option<String>, String> {
    match token {
        None => Ok(None),
        Some(t) if t.is_null() => Ok(None),
        Some(t) => t
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| format!("`{name}` must be a string")),
    }
}

fn parse_m(token: Option<&Token<'_>>) -> Result<usize, String> {
    let m = token
        .and_then(Token::as_u64)
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
/// to `wcet_lo`, `deadline` to `period`). Journal recovery reads its
/// task records through this.
pub(crate) fn task_from_value(v: &Value) -> Result<Task, String> {
    task_from_fields(&TaskFields::from_value(v))
}

/// Builds a task from its wire fields, with the defaults of
/// [`task_from_value`].
fn task_from_fields(t: &TaskFields<'_>) -> Result<Task, String> {
    let uint = |field: &Option<Token<'_>>| field.as_ref().and_then(Token::as_u64);
    let id = uint(&t.id).ok_or("needs an integer `id`")?;
    let id = u32::try_from(id).map_err(|_| "`id` out of range".to_owned())?;
    let period = uint(&t.period).ok_or("needs an integer `period`")?;
    let wcet_lo = uint(&t.wcet_lo).ok_or("needs an integer `wcet_lo`")?;
    let criticality = match &t.criticality {
        None => Criticality::Low,
        Some(c) => {
            let s = c.as_str().ok_or("`criticality` must be a string")?;
            let is = |names: [&str; 3]| names.iter().any(|n| s.eq_ignore_ascii_case(n));
            if is(["HI", "HIGH", "HC"]) {
                Criticality::High
            } else if is(["LO", "LOW", "LC"]) {
                Criticality::Low
            } else {
                return Err(format!(
                    "unknown criticality `{}` (use HI or LO)",
                    s.to_ascii_uppercase()
                ));
            }
        }
    };
    // Optional budgets: absent or `null` takes the default, any other
    // non-integer is an error rather than a silent fallback.
    let optional = |field: &Option<Token<'_>>, name: &str| match field {
        None => Ok(None),
        Some(x) if x.is_null() => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{name}` must be an integer")),
    };
    let mut builder = Task::builder(id)
        .period(period)
        .criticality(criticality)
        .wcet_lo(wcet_lo);
    if let Some(wcet_hi) = optional(&t.wcet_hi, "wcet_hi")? {
        builder = builder.wcet_hi(wcet_hi);
    }
    if let Some(deadline) = optional(&t.deadline, "deadline")? {
        builder = builder.deadline(deadline);
    }
    builder.try_build().map_err(|e| e.to_string())
}

// ------------------------------------------------------------- replies

/// The verdict for one `eval` request.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResponse {
    /// Echo of the requested algorithm name.
    pub algorithm: String,
    /// Echo of the processor count.
    pub m: usize,
    /// Whether the algorithm schedules the set on `m` processors.
    pub schedulable: bool,
    /// The witness: task ids per processor (present iff schedulable).
    pub partition: Option<Vec<Vec<u32>>>,
    /// The first unallocatable task (present iff not schedulable).
    pub rejected_task: Option<u32>,
    /// Human-readable rejection detail (present iff not schedulable).
    pub detail: Option<String>,
}

/// The reply to `open_session`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReply {
    /// The resolved algorithm display name.
    pub algorithm: String,
    /// The session's processor count.
    pub m: usize,
    /// `true` when the session was opened on the server's overflow
    /// pool. Its verdicts are the same exact verdicts; the flag names
    /// the pool. Rendered on the wire only when `true`, so v1 clients
    /// are unaffected.
    pub degraded: bool,
}

/// The reply to `admit`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitReply {
    /// Whether the task was admitted (and committed).
    pub admitted: bool,
    /// The processor it was placed on (present iff admitted).
    pub processor: Option<usize>,
    /// Echo of the task id.
    pub task: u32,
    /// Committed tasks in the session after this request.
    pub tasks: usize,
    /// Why the task was rejected (present iff not admitted).
    pub detail: Option<String>,
    /// `true` when the session runs on the server's overflow pool (the
    /// verdict is exact either way). Rendered only when `true`.
    pub degraded: bool,
}

/// The reply to `remove`.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoveReply {
    /// Whether the task was found and removed.
    pub removed: bool,
    /// The processor it was removed from (present iff removed).
    pub processor: Option<usize>,
    /// Echo of the task id.
    pub task: u32,
    /// Committed tasks in the session after this request.
    pub tasks: usize,
}

/// The probe half of a `query` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReply {
    /// Whether the probed task would be admitted right now.
    pub fits: bool,
    /// The processor it would land on (present iff it fits).
    pub processor: Option<usize>,
}

/// The reply to `query`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// The session's algorithm display name.
    pub algorithm: String,
    /// The session's processor count.
    pub m: usize,
    /// Committed tasks in the session.
    pub tasks: usize,
    /// Task ids per processor.
    pub partition: Vec<Vec<u32>>,
    /// The placement probe, when the query carried a task.
    pub probe: Option<ProbeReply>,
    /// `true` when this session runs on the server's overflow pool (the
    /// probe verdict is exact either way). Rendered only when `true`.
    pub degraded: bool,
}

/// One reply line — always typed, versioned, and id-echoing.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `{"type": "eval", ...}` — a batch verdict.
    Eval(EvalResponse),
    /// `{"type": "session", ...}` — the session is open.
    Session(SessionReply),
    /// `{"type": "admit", ...}` — an admission verdict.
    Admit(AdmitReply),
    /// `{"type": "remove", ...}` — a removal verdict.
    Remove(RemoveReply),
    /// `{"type": "query", ...}` — session state (and optional probe).
    Query(QueryReply),
    /// `{"type": "closed", "reason": ...}` — the connection is done
    /// (client `close`, idle reap, or server shutdown).
    Closed {
        /// Why the connection is closing.
        reason: String,
    },
    /// `{"type": "overload", ...}` — the server's queue is full; retry
    /// later. This is backpressure, not failure: the request was *not*
    /// processed.
    Overload {
        /// Human-readable overload notice.
        error: String,
    },
    /// `{"type": "error", "error": ...}` — the request was malformed or
    /// unserviceable; the stream keeps flowing.
    Error {
        /// What went wrong.
        error: String,
    },
}

impl Reply {
    /// The wire name of this reply.
    pub fn kind(&self) -> &'static str {
        match self {
            Reply::Eval(_) => "eval",
            Reply::Session(_) => "session",
            Reply::Admit(_) => "admit",
            Reply::Remove(_) => "remove",
            Reply::Query(_) => "query",
            Reply::Closed { .. } => "closed",
            Reply::Overload { .. } => "overload",
            Reply::Error { .. } => "error",
        }
    }

    /// A convenience error reply.
    pub fn error(message: impl Into<String>) -> Reply {
        Reply::Error {
            error: message.into(),
        }
    }

    /// Renders the reply as one JSON line (no trailing newline),
    /// echoing `id` when present — the inverse of [`parse_reply`].
    pub fn render(&self, id: Option<&RequestId>) -> String {
        let mut out = String::new();
        self.render_into(id, &mut out);
        out
    }

    /// Writes the reply line of [`Reply::render`] into `out`, replacing
    /// its contents, so a connection can reuse one buffer for every
    /// reply it sends.
    pub fn render_into(&self, id: Option<&RequestId>, out: &mut String) {
        out.clear();
        let mut o = JsonObject::open(out);
        o.str("type", self.kind())
            .uint("v", PROTOCOL_VERSION)
            .id(id);
        match self {
            Reply::Eval(r) => {
                o.str("algorithm", &r.algorithm)
                    .uint("m", r.m as u64)
                    .bool("schedulable", r.schedulable);
                match &r.partition {
                    Some(p) => o.partition("partition", p),
                    None => o.null("partition"),
                };
                o.opt_uint("rejected_task", r.rejected_task.map(u64::from))
                    .opt_str("detail", r.detail.as_deref());
            }
            Reply::Session(r) => {
                o.str("algorithm", &r.algorithm)
                    .uint("m", r.m as u64)
                    .degraded(r.degraded);
            }
            Reply::Admit(r) => {
                o.bool("admitted", r.admitted)
                    .opt_uint("processor", r.processor.map(|k| k as u64))
                    .uint("task", u64::from(r.task))
                    .uint("tasks", r.tasks as u64)
                    .opt_str("detail", r.detail.as_deref())
                    .degraded(r.degraded);
            }
            Reply::Remove(r) => {
                o.bool("removed", r.removed)
                    .opt_uint("processor", r.processor.map(|k| k as u64))
                    .uint("task", u64::from(r.task))
                    .uint("tasks", r.tasks as u64);
            }
            Reply::Query(r) => {
                o.str("algorithm", &r.algorithm)
                    .uint("m", r.m as u64)
                    .uint("tasks", r.tasks as u64)
                    .partition("partition", &r.partition);
                match &r.probe {
                    Some(probe) => {
                        let mut p = JsonObject::open(o.key("probe"));
                        p.bool("fits", probe.fits)
                            .opt_uint("processor", probe.processor.map(|k| k as u64));
                        p.close();
                    }
                    None => {
                        o.null("probe");
                    }
                }
                o.degraded(r.degraded);
            }
            Reply::Closed { reason } => {
                o.str("reason", reason);
            }
            Reply::Overload { error } | Reply::Error { error } => {
                o.str("error", error);
            }
        }
        o.close();
    }
}

/// Parses one reply line into its id echo and typed body (the client
/// side of [`Reply::render`]).
///
/// # Errors
///
/// Returns a human-readable message naming the first malformed field.
pub fn parse_reply(line: &str) -> Result<(Option<RequestId>, Reply), String> {
    let v = serde_json::parse_value(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let id = v.get("id").and_then(RequestId::from_value);
    let kind = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or("reply needs a string `type`")?;
    let str_field = |name: &str| -> Result<String, String> {
        v.get(name)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or(format!("{kind} reply needs a string `{name}`"))
    };
    let usize_field = |name: &str| -> Result<usize, String> {
        v.get(name)
            .and_then(Value::as_u64)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or(format!("{kind} reply needs an integer `{name}`"))
    };
    let bool_field = |name: &str| -> Result<bool, String> {
        v.get(name)
            .and_then(Value::as_bool)
            .ok_or(format!("{kind} reply needs a boolean `{name}`"))
    };
    let opt_usize = |name: &str| match v.get(name) {
        None => None,
        Some(x) => x.as_u64().and_then(|n| usize::try_from(n).ok()),
    };
    let opt_str = |name: &str| v.get(name).and_then(Value::as_str).map(str::to_owned);
    // The v1 `degraded` extension: absent (or null) means false.
    let degraded = v.get("degraded").and_then(Value::as_bool).unwrap_or(false);
    let reply = match kind {
        "eval" => Reply::Eval(EvalResponse {
            algorithm: str_field("algorithm")?,
            m: usize_field("m")?,
            schedulable: bool_field("schedulable")?,
            partition: match v.get("partition") {
                None => None,
                Some(p) if p.is_null() => None,
                Some(p) => Some(partition_from_value(p)?),
            },
            rejected_task: v
                .get("rejected_task")
                .and_then(Value::as_u64)
                .and_then(|n| u32::try_from(n).ok()),
            detail: opt_str("detail"),
        }),
        "session" => Reply::Session(SessionReply {
            algorithm: str_field("algorithm")?,
            m: usize_field("m")?,
            degraded,
        }),
        "admit" => Reply::Admit(AdmitReply {
            admitted: bool_field("admitted")?,
            processor: opt_usize("processor"),
            task: u32::try_from(
                v.get("task")
                    .and_then(Value::as_u64)
                    .ok_or("admit reply needs an integer `task`")?,
            )
            .map_err(|_| "`task` out of range".to_owned())?,
            tasks: usize_field("tasks")?,
            detail: opt_str("detail"),
            degraded,
        }),
        "remove" => Reply::Remove(RemoveReply {
            removed: bool_field("removed")?,
            processor: opt_usize("processor"),
            task: u32::try_from(
                v.get("task")
                    .and_then(Value::as_u64)
                    .ok_or("remove reply needs an integer `task`")?,
            )
            .map_err(|_| "`task` out of range".to_owned())?,
            tasks: usize_field("tasks")?,
        }),
        "query" => Reply::Query(QueryReply {
            algorithm: str_field("algorithm")?,
            m: usize_field("m")?,
            tasks: usize_field("tasks")?,
            partition: partition_from_value(
                v.get("partition").ok_or("query reply needs `partition`")?,
            )?,
            probe: match v.get("probe") {
                None => None,
                Some(p) if p.is_null() => None,
                Some(p) => Some(ProbeReply {
                    fits: p
                        .get("fits")
                        .and_then(Value::as_bool)
                        .ok_or("probe needs a boolean `fits`")?,
                    processor: p
                        .get("processor")
                        .and_then(Value::as_u64)
                        .and_then(|n| usize::try_from(n).ok()),
                }),
            },
            degraded,
        }),
        "closed" => Reply::Closed {
            reason: str_field("reason")?,
        },
        "overload" => Reply::Overload {
            error: str_field("error")?,
        },
        "error" => Reply::Error {
            error: str_field("error")?,
        },
        other => return Err(format!("unknown reply type `{other}`")),
    };
    Ok((id, reply))
}

fn partition_from_value(v: &Value) -> Result<Vec<Vec<u32>>, String> {
    v.as_seq()
        .ok_or("`partition` must be an array")?
        .iter()
        .map(|proc| {
            proc.as_seq()
                .ok_or_else(|| "`partition` entries must be arrays".to_owned())?
                .iter()
                .map(|t| {
                    t.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| "`partition` task ids must be integers".to_owned())
                })
                .collect()
        })
        .collect()
}

// -------------------------------------------------------------- writer

/// Writes one JSON object into a caller-owned line buffer, field by
/// field, with no intermediate [`Value`] tree. Replies, request
/// envelopes and journal records all go through it.
///
/// Keys are `&'static str` identifiers and are written without
/// escaping. Fields appear in call order, so the call sequence is the
/// wire shape. Writing to a `String` cannot fail, so nothing here has an
/// error path.
pub(crate) struct JsonObject<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> JsonObject<'a> {
    /// Opens an object at the end of `out`.
    pub(crate) fn open(out: &'a mut String) -> Self {
        out.push('{');
        JsonObject { out, empty: true }
    }

    /// Closes the object.
    pub(crate) fn close(self) {
        self.out.push('}');
    }

    /// Writes `"key":` and returns the buffer for the value.
    fn key(&mut self, key: &'static str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    pub(crate) fn str(&mut self, key: &'static str, value: &str) -> &mut Self {
        serde_json::write_escaped(value, self.key(key));
        self
    }

    pub(crate) fn uint(&mut self, key: &'static str, value: u64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    fn bool(&mut self, key: &'static str, value: bool) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    fn null(&mut self, key: &'static str) -> &mut Self {
        self.key(key).push_str("null");
        self
    }

    /// `null` when absent: optional reply fields are always present.
    fn opt_str(&mut self, key: &'static str, value: Option<&str>) -> &mut Self {
        match value {
            Some(v) => self.str(key, v),
            None => self.null(key),
        }
    }

    /// `null` when absent, as [`JsonObject::opt_str`].
    fn opt_uint(&mut self, key: &'static str, value: Option<u64>) -> &mut Self {
        match value {
            Some(v) => self.uint(key, v),
            None => self.null(key),
        }
    }

    /// The echoed correlation id: omitted, not `null`, when absent.
    fn id(&mut self, id: Option<&RequestId>) -> &mut Self {
        match id {
            Some(RequestId::Num(n)) => self.uint("id", *n),
            Some(RequestId::Str(s)) => self.str("id", s),
            None => self,
        }
    }

    /// `degraded` is a v1 extension: absent means `false`, so a false
    /// flag stays off the wire and pre-extension clients never see an
    /// unfamiliar field on normal replies.
    fn degraded(&mut self, degraded: bool) -> &mut Self {
        if degraded {
            self.bool("degraded", true);
        }
        self
    }

    /// One task as its wire object, every field explicit (the inverse of
    /// the parser's defaulting in [`task_from_value`]).
    pub(crate) fn task(&mut self, key: &'static str, task: &Task) -> &mut Self {
        write_task(self.key(key), task);
        self
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "write_array passes each i < tasks.len()"
    )]
    fn tasks(&mut self, key: &'static str, tasks: &TaskSet) -> &mut Self {
        let tasks = tasks.as_slice();
        serde_json::write_array(self.key(key), tasks.len(), |out, i| {
            write_task(out, &tasks[i]);
        });
        self
    }

    /// Task ids per processor, as an array of arrays.
    #[expect(
        clippy::indexing_slicing,
        reason = "write_array passes each index below the length it was given"
    )]
    fn partition(&mut self, key: &'static str, partition: &[Vec<u32>]) -> &mut Self {
        serde_json::write_array(self.key(key), partition.len(), |out, k| {
            let ids = &partition[k];
            serde_json::write_array(out, ids.len(), |out, i| {
                let _ = write!(out, "{}", ids[i]);
            });
        });
        self
    }
}

fn write_task(out: &mut String, task: &Task) {
    let mut o = JsonObject::open(out);
    o.uint("id", u64::from(task.id().0))
        .uint("period", task.period().as_ticks())
        .str(
            "criticality",
            if task.criticality().is_high() {
                "HI"
            } else {
                "LO"
            },
        )
        .uint("wcet_lo", task.wcet_lo().as_ticks())
        .uint("wcet_hi", task.wcet_hi().as_ticks())
        .uint("deadline", task.deadline().as_ticks());
    o.close();
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn hi(id: u32, t: u64, cl: u64, ch: u64) -> Task {
        Task::hi(id, t, cl, ch).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let tasks =
            TaskSet::try_from_tasks(vec![hi(0, 10, 2, 4), Task::lo(1, 20, 6).unwrap()]).unwrap();
        let envelopes = [
            Envelope::new(Request::Eval(EvalRequest {
                algorithm: "CU-UDP-EDF-VD".to_owned(),
                m: 2,
                tasks,
            })),
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
                session: Some("payload-7".to_owned()),
            }),
            Envelope::with_id(
                RequestId::Str("a-1".to_owned()),
                Request::Admit {
                    task: hi(3, 30, 5, 9),
                    op_id: None,
                },
            ),
            Envelope::new(Request::Admit {
                task: hi(5, 60, 5, 9),
                op_id: Some("op-41".to_owned()),
            }),
            Envelope::new(Request::Remove {
                task_id: TaskId(3),
                op_id: None,
            }),
            Envelope::new(Request::Remove {
                task_id: TaskId(5),
                op_id: Some("op-42".to_owned()),
            }),
            Envelope::new(Request::Query { probe: None }),
            Envelope::new(Request::Query {
                probe: Some(hi(4, 40, 1, 2)),
            }),
            Envelope::new(Request::Close),
            Envelope::new(Request::Shutdown),
        ];
        for env in envelopes {
            let line = env.render();
            let back = parse_envelope(&line).unwrap_or_else(|e| panic!("{line}: {}", e.message));
            assert_eq!(back, env, "{line}");
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply::Eval(EvalResponse {
                algorithm: "CU-UDP-EDF-VD".to_owned(),
                m: 2,
                schedulable: true,
                partition: Some(vec![vec![0], vec![1]]),
                rejected_task: None,
                detail: None,
            }),
            Reply::Eval(EvalResponse {
                algorithm: "CU-UDP-EDF-VD".to_owned(),
                m: 1,
                schedulable: false,
                partition: None,
                rejected_task: Some(4),
                detail: Some("task 4 could not be allocated".to_owned()),
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
                detail: Some("not schedulable anywhere".to_owned()),
                degraded: true,
            }),
            Reply::Remove(RemoveReply {
                removed: true,
                processor: Some(0),
                task: 9,
                tasks: 1,
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
            Reply::Closed {
                reason: "client close".to_owned(),
            },
            Reply::Overload {
                error: "server overloaded; retry later".to_owned(),
            },
            Reply::error("bad request"),
        ];
        let ids = [
            None,
            Some(RequestId::Num(0)),
            Some(RequestId::Str("x".to_owned())),
        ];
        for reply in &replies {
            for id in &ids {
                let line = reply.render(id.as_ref());
                let (back_id, back) = parse_reply(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(&back_id, id, "{line}");
                assert_eq!(&back, reply, "{line}");
            }
        }
    }

    #[test]
    fn legacy_lines_parse_as_eval() {
        let line = r#"{"algorithm": "CU-UDP-EDF-VD", "m": 2, "tasks": [
            {"id": 0, "period": 10, "criticality": "HI", "wcet_lo": 2, "wcet_hi": 4}]}"#;
        let env = parse_envelope(line).unwrap();
        assert_eq!(env.id, None);
        match env.request {
            Request::Eval(req) => {
                assert_eq!(req.algorithm, "CU-UDP-EDF-VD");
                assert_eq!(req.m, 2);
                assert_eq!(req.tasks.len(), 1);
            }
            other => panic!("legacy line parsed as {}", other.kind()),
        }
    }

    #[test]
    fn version_and_id_are_enforced() {
        let err = parse_envelope(r#"{"v": 2, "id": 5, "type": "close"}"#).unwrap_err();
        assert_eq!(err.id, Some(RequestId::Num(5)));
        assert!(err.message.contains("unsupported protocol version 2"));
        let err = parse_envelope(r#"{"v": "x", "type": "close"}"#).unwrap_err();
        assert!(err.message.contains("`v` must be an integer"));
        let err = parse_envelope(r#"{"id": 1.5, "type": "close"}"#).unwrap_err();
        assert!(err.message.contains("`id` must be an integer or a string"));
        // v: 1 and both id flavours are accepted.
        assert!(parse_envelope(r#"{"v": 1, "id": "abc", "type": "close"}"#).is_ok());
        assert!(parse_envelope(r#"{"v": 1, "id": 3, "type": "close"}"#).is_ok());
    }

    #[test]
    fn malformed_session_requests_keep_their_id() {
        let cases = [
            (
                r#"{"id": 1, "type": "open_session", "m": 2}"#,
                "`algorithm`",
            ),
            (
                r#"{"id": 2, "type": "open_session", "algorithm": "X", "m": 0}"#,
                "at least 1",
            ),
            (r#"{"id": 3, "type": "admit"}"#, "`task`"),
            (
                r#"{"id": 4, "type": "admit", "task": {"id": 0}}"#,
                "`period`",
            ),
            (r#"{"id": 5, "type": "remove"}"#, "`task_id`"),
            (r#"{"id": 6, "type": "warp"}"#, "unknown request type"),
        ];
        for (i, (line, needle)) in cases.iter().enumerate() {
            let err = parse_envelope(line).unwrap_err();
            assert_eq!(err.id, Some(RequestId::Num(i as u64 + 1)), "{line}");
            assert!(err.message.contains(needle), "{line}: {}", err.message);
        }
    }

    #[test]
    fn error_reply_echoes_id() {
        let id = RequestId::Str("req-9".to_owned());
        let line = Reply::error("nope").render(Some(&id));
        assert!(
            line.starts_with(r#"{"type":"error","v":1,"id":"req-9""#),
            "{line}"
        );
        let (back_id, reply) = parse_reply(&line).unwrap();
        assert_eq!(back_id, Some(id));
        assert_eq!(reply, Reply::error("nope"));
    }

    #[test]
    fn degraded_flag_is_absent_unless_true() {
        // A non-degraded reply must be byte-identical to what a
        // pre-extension server rendered: no `degraded` key at all.
        let exact = Reply::Session(SessionReply {
            algorithm: "CU-UDP-EDF-VD".to_owned(),
            m: 2,
            degraded: false,
        });
        let line = exact.render(None);
        assert!(!line.contains("degraded"), "{line}");
        let (_, back) = parse_reply(&line).unwrap();
        assert_eq!(back, exact);
        // And a degraded reply carries the flag explicitly.
        let degraded = Reply::Session(SessionReply {
            algorithm: "CU-UDP-EDF-VD".to_owned(),
            m: 2,
            degraded: true,
        });
        let line = degraded.render(None);
        assert!(line.contains(r#""degraded":true"#), "{line}");
        let (_, back) = parse_reply(&line).unwrap();
        assert_eq!(back, degraded);
    }

    #[test]
    fn op_id_and_session_must_be_strings() {
        let err =
            parse_envelope(r#"{"type": "open_session", "algorithm": "X", "m": 1, "session": 3}"#)
                .unwrap_err();
        assert!(err.message.contains("`session` must be a string"));
        let err = parse_envelope(r#"{"type": "remove", "task_id": 1, "op_id": 7}"#).unwrap_err();
        assert!(err.message.contains("`op_id` must be a string"));
        // null is treated as absent for both.
        let env = parse_envelope(
            r#"{"type": "admit", "op_id": null, "task": {"id": 1, "period": 10, "wcet_lo": 1}}"#,
        )
        .unwrap();
        assert!(matches!(env.request, Request::Admit { op_id: None, .. }));
    }

    #[test]
    fn task_wire_defaults_round_trip() {
        // Defaults applied on parse are made explicit on render.
        let sparse = r#"{"id": 7, "period": 20, "wcet_lo": 3}"#;
        let task = task_from_value(&serde_json::parse_value(sparse).unwrap()).unwrap();
        assert!(task.criticality().is_low());
        assert_eq!(task.wcet_hi().as_ticks(), 3);
        assert_eq!(task.deadline().as_ticks(), 20);
        let mut rendered = String::new();
        write_task(&mut rendered, &task);
        assert_eq!(
            rendered,
            r#"{"id":7,"period":20,"criticality":"LO","wcet_lo":3,"wcet_hi":3,"deadline":20}"#
        );
        let back = task_from_value(&serde_json::parse_value(&rendered).unwrap()).unwrap();
        assert_eq!(back, task);
    }
}
