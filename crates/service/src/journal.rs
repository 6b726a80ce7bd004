//! The **session journal**: an append-only record of every committed
//! session operation, giving `mcexp serve` crash durability.
//!
//! ## What is journaled
//!
//! Only *named* sessions (`open_session` with a `"session"` field) and
//! only *committed* state changes: a successful `admit` (task + the
//! processor it landed on) and a successful `remove`. Rejected admits
//! and failed removes change nothing and are never written. Each
//! record also carries the request's optional `op_id`, so a client
//! that lost a reply can resend the operation and have the original
//! verdict replayed instead of re-executed ([`Journal::lookup_applied`]).
//!
//! ## Format
//!
//! One JSON object per line, written by the wire protocol's JSON-line
//! writer into one reused buffer and parsed back into a [`Value`] tree
//! only on recovery. Records are distinguished by the `"j"` field:
//!
//! ```text
//! {"j":"open","s":NAME,"algorithm":ALGO,"m":M}
//! {"j":"admit","s":NAME,"task":{...},"k":PROC,"tasks":N,"op":OP?}
//! {"j":"remove","s":NAME,"task_id":ID,"k":PROC,"tasks":N,"op":OP?}
//! {"j":"applied","s":NAME,"op":OP,"kind":"admit"|"remove","task":ID,"k":PROC,"tasks":N}
//! ```
//!
//! (`applied` appears only in compaction snapshots: it preserves the
//! idempotency window without replaying the operations it describes.)
//!
//! ## Guarantees
//!
//! Every committed operation is written and flushed to the OS *before*
//! the reply is sent, so the journal survives a killed process
//! (SIGKILL): recovery reproduces exactly the sessions whose replies
//! the clients saw. It does **not** `fsync`, so it is not proof
//! against power failure or kernel crash — a deliberate trade: the
//! admission fast path stays syscall-bounded, not disk-bounded.
//!
//! Recovery ([`Journal::recover`]) tolerates a torn final line (the
//! record being appended when the process died) by discarding it;
//! replay stops at the first malformed record, keeping every operation
//! before the tear.
//!
//! Once a threshold of appended records accumulates, the journal
//! compacts: the live session images are rewritten as a fresh
//! snapshot (an `open` plus one `admit` per surviving row, plus the
//! `applied` window) and atomically renamed over the log. Because
//! task removal is order-preserving everywhere (see
//! `TaskSet::remove`), replaying a snapshot is bit-identical to
//! replaying the full history it collapsed.

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

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::protocol::{task_from_value, JsonObject};
use mcsched_model::{Task, TaskId};
use serde::Value;

/// Compact once this many records have been appended since the last
/// snapshot (or since recovery).
pub const DEFAULT_COMPACT_THRESHOLD: usize = 4096;

/// How many applied `op_id`s each session remembers for idempotent
/// replay (FIFO: the oldest is forgotten first).
pub const APPLIED_WINDOW: usize = 256;

/// Why [`Journal::attach`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttachError {
    /// The session name is already attached to a live connection.
    Busy,
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::Busy => write!(f, "session is attached to another connection"),
        }
    }
}

impl std::error::Error for AttachError {}

/// Which verb a recorded operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A committed `admit`.
    Admit,
    /// A committed `remove`.
    Remove,
}

/// The recorded outcome of an applied operation, replayed verbatim
/// when a client retries the same `op_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Which verb was applied.
    pub kind: OpKind,
    /// The task id the operation acted on.
    pub task: u32,
    /// The processor the task landed on (admit) or left (remove).
    pub processor: usize,
    /// The session's committed task count right after the operation.
    pub tasks: usize,
}

/// The durable image of one named session: everything needed to
/// rebuild its cluster exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionImage {
    /// Registry name of the session's algorithm.
    pub algorithm: String,
    /// Processor count.
    pub m: usize,
    /// Committed `(task, processor)` placements, in commit order with
    /// removals collapsed order-preservingly — replaying these through
    /// `ClusterSession::restore` reproduces the live session's state
    /// bit-for-bit.
    pub rows: Vec<(Task, usize)>,
    /// The idempotency window: recently applied `op_id`s, oldest first.
    applied: Vec<(String, OpOutcome)>,
}

impl SessionImage {
    fn new(algorithm: &str, m: usize) -> Self {
        SessionImage {
            algorithm: algorithm.to_owned(),
            m,
            rows: Vec::new(),
            applied: Vec::new(),
        }
    }

    /// The recorded outcome for `op_id`, when still in the window.
    pub fn applied(&self, op_id: &str) -> Option<OpOutcome> {
        self.applied
            .iter()
            .find_map(|(op, out)| (op == op_id).then_some(*out))
    }

    fn record_applied(&mut self, op_id: &str, outcome: OpOutcome) {
        if self.applied.len() >= APPLIED_WINDOW {
            self.applied.remove(0);
        }
        self.applied.push((op_id.to_owned(), outcome));
    }

    fn apply_admit(&mut self, task: Task, k: usize, tasks: usize, op_id: Option<&str>) {
        self.rows.push((task, k));
        if let Some(op) = op_id {
            self.record_applied(
                op,
                OpOutcome {
                    kind: OpKind::Admit,
                    task: task.id().0,
                    processor: k,
                    tasks,
                },
            );
        }
    }

    fn apply_remove(&mut self, task_id: TaskId, k: usize, tasks: usize, op_id: Option<&str>) {
        if let Some(pos) = self.rows.iter().position(|(t, _)| t.id() == task_id) {
            self.rows.remove(pos);
        }
        if let Some(op) = op_id {
            self.record_applied(
                op,
                OpOutcome {
                    kind: OpKind::Remove,
                    task: task_id.0,
                    processor: k,
                    tasks,
                },
            );
        }
    }
}

/// Counters describing a journal's life so far (monotone, best-effort).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since open/recovery.
    pub appended: u64,
    /// Records replayed by [`Journal::recover`].
    pub recovered: u64,
    /// Malformed or torn lines skipped during recovery.
    pub skipped: u64,
    /// Append or compaction I/O failures (the server keeps serving;
    /// durability is only claimed for records that were written).
    pub io_errors: u64,
    /// Compactions performed.
    pub compactions: u64,
}

struct JournalInner {
    file: File,
    /// The line buffer every appended record is written into, reused
    /// across appends.
    line: String,
    images: HashMap<String, SessionImage>,
    attached: std::collections::HashSet<String>,
    appended_since_compaction: usize,
    stats: JournalStats,
}

/// The shared append-only session journal (see the [module docs](self)).
///
/// One `Journal` is shared by every worker of a server via `Arc`; all
/// methods take `&self` and serialize internally.
pub struct Journal {
    path: PathBuf,
    compact_threshold: usize,
    inner: Mutex<JournalInner>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    /// Creates (truncating) a fresh journal at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation failure.
    pub fn create(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Journal {
            path: path.to_owned(),
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            inner: Mutex::new(JournalInner {
                file,
                line: String::new(),
                images: HashMap::new(),
                attached: std::collections::HashSet::new(),
                appended_since_compaction: 0,
                stats: JournalStats::default(),
            }),
        })
    }

    /// Opens an existing journal, replaying its records into session
    /// images ready for [`Journal::attach`] to resume. A missing file
    /// is treated as an empty journal (first boot with `--recover`).
    ///
    /// # Errors
    ///
    /// Propagates file-open failures other than "not found". Torn or
    /// malformed trailing records are skipped, not errors.
    pub fn recover(path: &Path) -> std::io::Result<Journal> {
        let mut images: HashMap<String, SessionImage> = HashMap::new();
        let mut stats = JournalStats::default();
        // Byte offset just past the last cleanly replayed record. The
        // file is cut back to this point before appends resume: leaving
        // a torn half-line at the tail would glue the next committed
        // record onto it, and replay of the *next* recovery would stop
        // at that merged garbage line and silently drop the commit.
        let mut good = 0u64;
        let mut torn = false;
        let mut terminated = true;
        match File::open(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
            Ok(file) => {
                let mut reader = BufReader::new(file);
                let mut line = String::new();
                let mut pos = 0u64;
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) => break,
                        Err(_) => {
                            // Unreadable bytes (e.g. invalid UTF-8):
                            // same treatment as a torn record.
                            torn = true;
                            break;
                        }
                        Ok(n) => pos += n as u64,
                    }
                    let trimmed = line.trim();
                    if trimmed.is_empty() || replay_record(&mut images, trimmed) {
                        if !trimmed.is_empty() {
                            stats.recovered += 1;
                        }
                        good = pos;
                        terminated = line.ends_with('\n');
                    } else {
                        // A torn tail (or corruption): everything
                        // after the first unreadable record is
                        // suspect, so replay stops here.
                        stats.skipped += 1;
                        torn = true;
                        break;
                    }
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        if torn {
            file.set_len(good)?;
        } else if !terminated {
            // A clean final record missing its newline (crash between
            // the payload write and nothing else): keep it, but start
            // the next append on a fresh line.
            (&file).write_all(b"\n")?;
        }
        Ok(Journal {
            path: path.to_owned(),
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            inner: Mutex::new(JournalInner {
                file,
                line: String::new(),
                images,
                attached: std::collections::HashSet::new(),
                appended_since_compaction: 0,
                stats,
            }),
        })
    }

    /// Overrides the compaction threshold (mainly for tests).
    #[must_use]
    pub fn with_compact_threshold(mut self, records: usize) -> Journal {
        self.compact_threshold = records.max(1);
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalInner> {
        // A worker that panicked mid-append poisons the lock; the
        // journal itself is still consistent (appends are single
        // write_all calls), so recover the guard and keep serving.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims `name` for a connection.
    ///
    /// Returns the recovered [`SessionImage`] when one exists with the
    /// same algorithm and `m` (the caller rehydrates from it); `None`
    /// when the session is new or the parameters changed (the old
    /// image is replaced by a fresh `open` record).
    ///
    /// # Errors
    ///
    /// [`AttachError::Busy`] when another live connection holds `name`.
    pub fn attach(
        &self,
        name: &str,
        algorithm: &str,
        m: usize,
    ) -> Result<Option<SessionImage>, AttachError> {
        let mut inner = self.lock();
        if inner.attached.contains(name) {
            return Err(AttachError::Busy);
        }
        inner.attached.insert(name.to_owned());
        let resumable = inner
            .images
            .get(name)
            .is_some_and(|img| img.algorithm == algorithm && img.m == m);
        if resumable {
            return Ok(inner.images.get(name).cloned());
        }
        inner
            .images
            .insert(name.to_owned(), SessionImage::new(algorithm, m));
        append(&mut inner, |out| open_record(out, name, algorithm, m));
        self.maybe_compact(&mut inner);
        Ok(None)
    }

    /// Releases a name claimed by [`Journal::attach`]. The image stays
    /// durable; only the liveness claim is dropped.
    pub fn detach(&self, name: &str) {
        self.lock().attached.remove(name);
    }

    /// Journals a committed admit: `task` landed on processor `k`,
    /// leaving the session with `tasks` committed tasks.
    pub fn committed_admit(
        &self,
        name: &str,
        op_id: Option<&str>,
        task: &Task,
        k: usize,
        tasks: usize,
    ) {
        let mut inner = self.lock();
        if let Some(img) = inner.images.get_mut(name) {
            img.apply_admit(*task, k, tasks, op_id);
        }
        append(&mut inner, |out| {
            admit_record(out, name, task, k, tasks, op_id);
        });
        self.maybe_compact(&mut inner);
    }

    /// Journals a committed remove: `task_id` left processor `k`,
    /// leaving the session with `tasks` committed tasks.
    pub fn committed_remove(
        &self,
        name: &str,
        op_id: Option<&str>,
        task_id: TaskId,
        k: usize,
        tasks: usize,
    ) {
        let mut inner = self.lock();
        if let Some(img) = inner.images.get_mut(name) {
            img.apply_remove(task_id, k, tasks, op_id);
        }
        append(&mut inner, |out| {
            let mut o = JsonObject::open(out);
            o.str("j", "remove")
                .str("s", name)
                .uint("task_id", u64::from(task_id.0))
                .uint("k", k as u64)
                .uint("tasks", tasks as u64);
            if let Some(op) = op_id {
                o.str("op", op);
            }
            o.close();
        });
        self.maybe_compact(&mut inner);
    }

    /// The recorded outcome of an already-applied `op_id` on `name`,
    /// when still inside the idempotency window.
    pub fn lookup_applied(&self, name: &str, op_id: &str) -> Option<OpOutcome> {
        self.lock()
            .images
            .get(name)
            .and_then(|img| img.applied(op_id))
    }

    /// A point-in-time copy of every durable session image.
    pub fn images(&self) -> Vec<(String, SessionImage)> {
        self.lock()
            .images
            .iter()
            .map(|(name, img)| (name.clone(), img.clone()))
            .collect()
    }

    /// A point-in-time copy of the journal's counters.
    pub fn stats(&self) -> JournalStats {
        self.lock().stats
    }

    /// Compacts when enough records accumulated since the last pass.
    fn maybe_compact(&self, inner: &mut JournalInner) {
        if inner.appended_since_compaction < self.compact_threshold {
            return;
        }
        inner.appended_since_compaction = 0;
        let mut tmp_path = self.path.clone().into_os_string();
        tmp_path.push(".compact");
        let tmp_path = PathBuf::from(tmp_path);
        let result = write_snapshot(&tmp_path, &inner.images)
            .and_then(|file| std::fs::rename(&tmp_path, &self.path).map(|()| file));
        match result {
            Ok(file) => {
                inner.file = file;
                inner.stats.compactions += 1;
            }
            Err(_) => {
                // Best effort: the old (longer) log is still intact
                // and still correct, so keep appending to it.
                let _ = std::fs::remove_file(&tmp_path);
                inner.stats.io_errors += 1;
            }
        }
    }
}

/// Writes one record into the journal's reused line buffer and appends
/// it (newline-terminated), flushing to the OS so a SIGKILL after the
/// reply cannot lose it.
fn append(inner: &mut JournalInner, record: impl FnOnce(&mut String)) {
    inner.appended_since_compaction += 1;
    inner.stats.appended += 1;
    inner.line.clear();
    record(&mut inner.line);
    inner.line.push('\n');
    if inner.file.write_all(inner.line.as_bytes()).is_err() || inner.file.flush().is_err() {
        inner.stats.io_errors += 1;
    }
}

/// `{"j":"open","s":NAME,"algorithm":ALGO,"m":M}`
fn open_record(out: &mut String, name: &str, algorithm: &str, m: usize) {
    let mut o = JsonObject::open(out);
    o.str("j", "open")
        .str("s", name)
        .str("algorithm", algorithm)
        .uint("m", m as u64);
    o.close();
}

/// `{"j":"admit","s":NAME,"task":{...},"k":PROC,"tasks":N,"op":OP?}`
fn admit_record(
    out: &mut String,
    name: &str,
    task: &Task,
    k: usize,
    tasks: usize,
    op_id: Option<&str>,
) {
    let mut o = JsonObject::open(out);
    o.str("j", "admit")
        .str("s", name)
        .task("task", task)
        .uint("k", k as u64)
        .uint("tasks", tasks as u64);
    if let Some(op) = op_id {
        o.str("op", op);
    }
    o.close();
}

/// Writes a full snapshot of `images` to `path` and returns the handle
/// (left open for further appends after the rename).
fn write_snapshot(path: &Path, images: &HashMap<String, SessionImage>) -> std::io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    // Deterministic order so identical states write identical bytes.
    let mut names: Vec<&String> = images.keys().collect();
    names.sort();
    let mut out = String::new();
    for name in names {
        let Some(img) = images.get(name) else {
            continue;
        };
        open_record(&mut out, name, &img.algorithm, img.m);
        out.push('\n');
        for (i, (task, k)) in img.rows.iter().enumerate() {
            admit_record(&mut out, name, task, *k, i + 1, None);
            out.push('\n');
        }
        for (op, outcome) in &img.applied {
            let mut o = JsonObject::open(&mut out);
            o.str("j", "applied")
                .str("s", name)
                .str("op", op)
                .str(
                    "kind",
                    match outcome.kind {
                        OpKind::Admit => "admit",
                        OpKind::Remove => "remove",
                    },
                )
                .uint("task", u64::from(outcome.task))
                .uint("k", outcome.processor as u64)
                .uint("tasks", outcome.tasks as u64);
            o.close();
            out.push('\n');
        }
    }
    file.write_all(out.as_bytes())?;
    file.flush()?;
    Ok(file)
}

/// Replays one journal line into the image map. Returns `false` when
/// the line is malformed (recovery stops there).
fn replay_record(images: &mut HashMap<String, SessionImage>, line: &str) -> bool {
    let Ok(v) = serde_json::parse_value(line) else {
        return false;
    };
    let Some(kind) = v.get("j").and_then(Value::as_str) else {
        return false;
    };
    let Some(name) = v.get("s").and_then(Value::as_str) else {
        return false;
    };
    let op = v.get("op").and_then(Value::as_str);
    let uint = |key: &str| v.get(key).and_then(Value::as_u64);
    match kind {
        "open" => {
            let Some(algorithm) = v.get("algorithm").and_then(Value::as_str) else {
                return false;
            };
            let Some(m) = uint("m").and_then(|m| usize::try_from(m).ok()) else {
                return false;
            };
            images.insert(name.to_owned(), SessionImage::new(algorithm, m));
            true
        }
        "admit" => {
            let Some(task) = v.get("task").and_then(|t| task_from_value(t).ok()) else {
                return false;
            };
            let (Some(k), Some(tasks)) = (uint("k"), uint("tasks")) else {
                return false;
            };
            let (Ok(k), Ok(tasks)) = (usize::try_from(k), usize::try_from(tasks)) else {
                return false;
            };
            let Some(img) = images.get_mut(name) else {
                // An admit for a session with no open record: corrupt.
                return false;
            };
            img.apply_admit(task, k, tasks, op);
            true
        }
        "remove" => {
            let Some(task_id) = uint("task_id").and_then(|id| u32::try_from(id).ok()) else {
                return false;
            };
            let (Some(k), Some(tasks)) = (uint("k"), uint("tasks")) else {
                return false;
            };
            let (Ok(k), Ok(tasks)) = (usize::try_from(k), usize::try_from(tasks)) else {
                return false;
            };
            let Some(img) = images.get_mut(name) else {
                return false;
            };
            img.apply_remove(TaskId(task_id), k, tasks, op);
            true
        }
        "applied" => {
            let Some(op) = op else { return false };
            let kind = match v.get("kind").and_then(Value::as_str) {
                Some("admit") => OpKind::Admit,
                Some("remove") => OpKind::Remove,
                _ => return false,
            };
            let (Some(task), Some(k), Some(tasks)) = (uint("task"), uint("k"), uint("tasks"))
            else {
                return false;
            };
            let (Ok(task), Ok(k), Ok(tasks)) = (
                u32::try_from(task),
                usize::try_from(k),
                usize::try_from(tasks),
            ) else {
                return false;
            };
            let Some(img) = images.get_mut(name) else {
                return false;
            };
            img.record_applied(
                op,
                OpOutcome {
                    kind,
                    task,
                    processor: k,
                    tasks,
                },
            );
            true
        }
        // Unknown record kinds from a future build: skip, keep going.
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_journal(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "mcexp-journal-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn lo(id: u32, period: u64, wcet: u64) -> Task {
        Task::lo(id, period, wcet).expect("valid LC task")
    }

    fn hi(id: u32, period: u64, wcet_lo: u64, wcet_hi: u64) -> Task {
        Task::hi(id, period, wcet_lo, wcet_hi).expect("valid HC task")
    }

    #[test]
    fn committed_ops_survive_recovery() {
        let path = temp_journal("roundtrip");
        {
            let j = Journal::create(&path).unwrap();
            assert_eq!(j.attach("s1", "CU-UDP-ECDF", 2), Ok(None));
            j.committed_admit("s1", Some("op-1"), &lo(1, 10, 2), 0, 1);
            j.committed_admit("s1", None, &hi(2, 20, 3, 6), 1, 2);
            j.committed_admit("s1", None, &lo(3, 40, 4), 0, 3);
            j.committed_remove("s1", Some("op-2"), TaskId(1), 0, 2);
        }
        let j = Journal::recover(&path).unwrap();
        let img = j
            .attach("s1", "CU-UDP-ECDF", 2)
            .unwrap()
            .expect("image recovered");
        let ids: Vec<u32> = img.rows.iter().map(|(t, _)| t.id().0).collect();
        assert_eq!(ids, vec![2, 3], "remove collapsed order-preservingly");
        assert_eq!(img.rows[0].1, 1);
        assert_eq!(img.rows[1].1, 0);
        assert_eq!(
            img.applied("op-1"),
            Some(OpOutcome {
                kind: OpKind::Admit,
                task: 1,
                processor: 0,
                tasks: 1,
            })
        );
        assert_eq!(
            j.lookup_applied("s1", "op-2"),
            Some(OpOutcome {
                kind: OpKind::Remove,
                task: 1,
                processor: 0,
                tasks: 2,
            })
        );
        assert_eq!(j.lookup_applied("s1", "op-9"), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attach_is_exclusive_until_detach() {
        let path = temp_journal("busy");
        let j = Journal::create(&path).unwrap();
        assert_eq!(j.attach("s", "CU-UDP-EDF-VD", 1), Ok(None));
        assert_eq!(
            j.attach("s", "CU-UDP-EDF-VD", 1),
            Err(AttachError::Busy),
            "second attach while live"
        );
        j.detach("s");
        // Re-attach with the same shape resumes the (empty) image.
        assert!(j.attach("s", "CU-UDP-EDF-VD", 1).unwrap().is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopening_with_different_shape_resets_the_session() {
        let path = temp_journal("reshape");
        let j = Journal::create(&path).unwrap();
        assert_eq!(j.attach("s", "CU-UDP-ECDF", 2), Ok(None));
        j.committed_admit("s", None, &lo(1, 10, 1), 0, 1);
        j.detach("s");
        // Same name, different m: the old rows must not leak in.
        assert_eq!(j.attach("s", "CU-UDP-ECDF", 4), Ok(None));
        j.detach("s");
        let j2 = Journal::recover(&path).unwrap();
        let img = j2.attach("s", "CU-UDP-ECDF", 4).unwrap().expect("image");
        assert!(img.rows.is_empty(), "reset image is empty");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_but_prefix_survives() {
        let path = temp_journal("torn");
        {
            let j = Journal::create(&path).unwrap();
            assert_eq!(j.attach("s", "CA-UDP-AMC-rtb", 1), Ok(None));
            j.committed_admit("s", None, &lo(1, 10, 1), 0, 1);
            j.committed_admit("s", None, &lo(2, 20, 1), 0, 2);
        }
        // Simulate a SIGKILL mid-append: a torn half-record at the end.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"j\":\"admit\",\"s\":\"s\",\"ta").unwrap();
        }
        let j = Journal::recover(&path).unwrap();
        assert_eq!(j.stats().skipped, 1);
        let img = j.attach("s", "CA-UDP-AMC-rtb", 1).unwrap().expect("image");
        assert_eq!(img.rows.len(), 2, "complete records all survive");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_after_torn_tail_recovery_survive_second_recovery() {
        let path = temp_journal("torn-twice");

        // Life 1: two committed admits, then a SIGKILL mid-append
        // leaves a torn half-record at the tail.
        {
            let j = Journal::create(&path).unwrap();
            assert_eq!(j.attach("s", "CU-UDP-ECDF", 2), Ok(None));
            j.committed_admit("s", None, &lo(1, 10, 1), 0, 1);
            j.committed_admit("s", None, &lo(2, 20, 1), 0, 2);
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"j\":\"admit\",\"s\":\"s\",\"ta").unwrap();
        }

        // Life 2: recover (sees 2 rows), then commit one more admit.
        // The torn tail must have been cut, or this commit would be
        // glued onto the half-record and lost to the next replay.
        {
            let j = Journal::recover(&path).unwrap();
            let img = j.attach("s", "CU-UDP-ECDF", 2).unwrap().expect("image");
            assert_eq!(img.rows.len(), 2);
            j.committed_admit("s", None, &lo(3, 40, 1), 1, 3);
        }

        // Life 3: the admit committed in life 2 must be recovered.
        let j = Journal::recover(&path).unwrap();
        let img = j.attach("s", "CU-UDP-ECDF", 2).unwrap().expect("image");
        let ids: Vec<u32> = img.rows.iter().map(|(t, _)| t.id().0).collect();
        let _ = std::fs::remove_file(&path);
        assert_eq!(ids, vec![1, 2, 3], "life-2 commit lost after second crash");
    }

    #[test]
    fn unterminated_final_record_keeps_its_line_to_itself() {
        let path = temp_journal("chopped-newline");
        {
            let j = Journal::create(&path).unwrap();
            assert_eq!(j.attach("s", "CU-UDP-ECDF", 2), Ok(None));
            j.committed_admit("s", None, &lo(1, 10, 1), 0, 1);
        }
        // Strip the trailing newline: a crash after the payload bytes
        // but before anything else. The record itself is complete.
        {
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        }
        {
            let j = Journal::recover(&path).unwrap();
            let img = j.attach("s", "CU-UDP-ECDF", 2).unwrap().expect("image");
            assert_eq!(img.rows.len(), 1, "complete unterminated record kept");
            j.committed_admit("s", None, &lo(2, 20, 1), 0, 2);
        }
        let j = Journal::recover(&path).unwrap();
        assert_eq!(j.stats().skipped, 0, "no merged garbage line");
        let img = j.attach("s", "CU-UDP-ECDF", 2).unwrap().expect("image");
        let ids: Vec<u32> = img.rows.iter().map(|(t, _)| t.id().0).collect();
        let _ = std::fs::remove_file(&path);
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn compaction_shrinks_the_log_and_preserves_state() {
        let path = temp_journal("compact");
        let j = Journal::create(&path).unwrap().with_compact_threshold(8);
        assert_eq!(j.attach("s", "CU-UDP-EY", 2), Ok(None));
        // Churn: admit and remove the same ids repeatedly, ending with
        // two live rows. Far more records than the threshold.
        for round in 0u32..7 {
            j.committed_admit("s", None, &lo(100 + round, 50, 1), 0, 1);
            j.committed_remove("s", None, TaskId(100 + round), 0, 0);
        }
        j.committed_admit("s", Some("keep-1"), &lo(1, 10, 1), 0, 1);
        j.committed_admit("s", None, &hi(2, 20, 2, 4), 1, 2);
        assert!(j.stats().compactions >= 1, "threshold crossed");
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert!(
            lines <= 8,
            "snapshot is bounded by live state, got {lines} lines"
        );
        let j2 = Journal::recover(&path).unwrap();
        let img = j2.attach("s", "CU-UDP-EY", 2).unwrap().expect("image");
        let ids: Vec<u32> = img.rows.iter().map(|(t, _)| t.id().0).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(
            img.applied("keep-1").is_some(),
            "idempotency window survives compaction"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn applied_window_is_bounded_fifo() {
        let mut img = SessionImage::new("X", 1);
        for i in 0..(APPLIED_WINDOW + 10) {
            img.record_applied(
                &format!("op-{i}"),
                OpOutcome {
                    kind: OpKind::Admit,
                    task: i as u32,
                    processor: 0,
                    tasks: i,
                },
            );
        }
        assert!(img.applied("op-0").is_none(), "oldest evicted");
        assert!(img.applied(&format!("op-{}", APPLIED_WINDOW + 9)).is_some());
        assert_eq!(img.applied.len(), APPLIED_WINDOW);
    }

    #[test]
    fn recovering_a_missing_file_is_an_empty_journal() {
        let path = temp_journal("fresh");
        let j = Journal::recover(&path).unwrap();
        assert!(j.images().is_empty());
        assert_eq!(j.stats().recovered, 0);
        let _ = std::fs::remove_file(&path);
    }
}
