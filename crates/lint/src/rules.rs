//! The data-driven rule set: the project invariants that neither rustc
//! nor clippy can state, machine-checked.
//!
//! Each rule exists because a previous PR made correctness depend on a
//! convention no compiler checks (see the README's rule table and each
//! rule's `rationale`); what clippy can say lives in `clippy.toml` and
//! per-file `#![deny(…)]` attributes instead. Rules are entries in
//! [`RULES`]; checks run over the token stream with the structural
//! scopes of [`FileCtx`]. Everything is heuristic by
//! design — a hand-rolled lexer cannot do type inference — so each rule
//! documents its approximation and the `// mclint: allow(rule)
//! reason="…"` escape hatch covers the (audited) exceptions.

use crate::source::{Allow, FileCtx};
use crate::TokenKind;

/// One rule's identity and documentation.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable kebab-case id — what `allow(…)` names.
    pub id: &'static str,
    /// One-line summary (what is flagged).
    pub summary: &'static str,
    /// Why the invariant exists, naming the PR that introduced it.
    pub rationale: &'static str,
}

/// The launch rule set.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-partial-cmp",
        summary: "partial_cmp is forbidden; use total_cmp",
        rationale: "PR 2 totalised every float comparator so verdicts are bit-identical and \
                    NaN can never panic an admission; partial_cmp().unwrap() reintroduces both \
                    hazards.",
    },
    RuleInfo {
        id: "hot-path-alloc",
        summary: "no allocation constructors or stable sorts in `// mclint: hot-path` \
                  files outside `// mclint: cold` items",
        rationale: "The analysis steady state is allocation-free (pinned by \
                    tests/zero_alloc.rs); an innocent clone()/collect() or a stable \
                    sort_by (its merge buffer) in amc/demand/workspace/incremental \
                    silently re-adds per-probe mallocs.",
    },
    RuleInfo {
        id: "time-arith",
        summary: "unchecked +/*/<< on time-lane values in kernel files outside certified \
                  fast blocks",
        rationale: "PR 7's fast-kernel certificate is the only licence for plain u64 \
                    arithmetic on WCET/period/deadline quantities; everywhere else the \
                    2^63-scale regression tests require saturating_/checked_ forms.",
    },
    RuleInfo {
        id: "float-sum",
        summary: "f64 iterator reductions in analysis/model crates; use a documented \
                  insertion-order loop",
        rationale: "PR 2/PR 5 pinned verdicts bit-identical by summing utilizations in \
                    insertion order; an iterator sum() hides the order and invites \
                    reassociating refactors (rayon, chunking) that change verdicts.",
    },
    RuleInfo {
        id: "reply-id",
        summary: "every Reply render site must bind the request id",
        rationale: "PR 6's protocol echoes `id` on every reply including error paths; a \
                    render(None) on a path that has an id silently breaks client \
                    correlation.",
    },
    RuleInfo {
        id: "bad-allow",
        summary: "mclint: allow(…) must name a known rule and carry reason=\"…\"",
        rationale: "Suppressions are part of the audited surface: a reasonless or dangling \
                    allow is how invariants rot.",
    },
    RuleInfo {
        id: "unused-allow",
        summary: "mclint: allow(…) that suppressed nothing",
        rationale: "A stale allow hides the next real finding at that site; delete it when \
                    the code it excused is gone.",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// One diagnostic: rule, exact span, flagged token text, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule id.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Span length in bytes.
    pub len: usize,
    /// The flagged token text.
    pub snippet: String,
    /// Human explanation with the required fix.
    pub message: String,
}

/// Kernel files where raw time arithmetic needs the fast-kernel
/// certificate (rule `time-arith`).
pub const KERNEL_FILES: &[&str] = &[
    "crates/analysis/src/amc.rs",
    "crates/analysis/src/demand.rs",
    "crates/analysis/src/dbf.rs",
    "crates/analysis/src/workspace.rs",
];

/// Files that must carry the `// mclint: hot-path` header (rule
/// `hot-path-alloc`) — the zero-allocation steady state of PRs 4–7.
pub const HOT_REQUIRED_FILES: &[&str] = &[
    "crates/analysis/src/amc.rs",
    "crates/analysis/src/demand.rs",
    "crates/analysis/src/workspace.rs",
    "crates/analysis/src/incremental.rs",
];

/// Files whose `Reply` render sites must bind the request id (rule
/// `reply-id`).
pub const REPLY_FILES: &[&str] = &[
    "crates/service/src/server.rs",
    "crates/service/src/service.rs",
    "crates/service/src/protocol.rs",
];

/// Every `(rule, path)` a path-scoped rule names. A rule picks its files
/// by exact path, so a moved file would silently drop out of its scope;
/// [`run`](crate::run) reports each path here that the walk did not find.
pub fn scoped_paths() -> impl Iterator<Item = (&'static str, &'static str)> {
    let scopes: [(&'static str, &[&'static str]); 3] = [
        ("time-arith", KERNEL_FILES),
        ("hot-path-alloc", HOT_REQUIRED_FILES),
        ("reply-id", REPLY_FILES),
    ];
    scopes
        .into_iter()
        .flat_map(|(rule, paths)| paths.iter().map(move |path| (rule, *path)))
}

/// Crate prefixes where f64 reductions are verdict-bearing (rule
/// `float-sum`).
const FLOAT_SUM_PREFIXES: &[&str] = &["crates/analysis/", "crates/model/", "crates/core/"];

/// Identifiers that name time-lane (u64 `Time`) quantities in the
/// kernel files — the operand vocabulary of rule `time-arith`. The
/// convention (PR 7): lanes and locals holding WCETs, periods,
/// deadlines, responses and interference accumulators use these names.
const TIME_IDENTS: &[&str] = &[
    "wcet",
    "wcet_lo",
    "wcet_hi",
    "wl",
    "wh",
    "c",
    "cl",
    "ch",
    "t",
    "r",
    "period",
    "per",
    "deadline",
    "dl",
    "interference",
    "budget",
    "response",
    "resp",
    "bound",
    "horizon",
    "demand",
    "charge",
    "acc",
    "vd",
];

/// Statement-level markers that tag a reduction as f64-valued.
const FLOAT_MARKERS: &[&str] = &[
    "f64",
    "f32",
    "as_f64",
    "utilization",
    "utilization_lo",
    "utilization_hi",
    "density",
    "util",
    "hi_util",
    "lo_util",
];

/// Allocation method names (called as `.name(…)`). The stable sorts
/// allocate their merge buffer; `sort_unstable*` does not.
const ALLOC_METHODS: &[&str] = &[
    "clone",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "sort",
    "sort_by",
    "sort_by_key",
];

/// Allocating `Type::ctor` pairs.
const ALLOC_TYPES: &[&str] = &[
    "Vec", "Box", "String", "Rc", "Arc", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// Allocating macros (`name!`).
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Lints one file: lexes, scopes, runs every applicable rule, applies
/// suppressions, and reports suppression hygiene. Returns the surviving
/// findings plus how many were suppressed by a valid allow.
pub fn lint_file(path: &str, src: &str) -> (Vec<Finding>, usize) {
    let ctx = FileCtx::parse(path, src);
    let mut findings = Vec::new();
    check_no_partial_cmp(&ctx, &mut findings);
    check_hot_path_alloc(&ctx, &mut findings);
    check_time_arith(&ctx, &mut findings);
    check_float_sum(&ctx, &mut findings);
    check_reply_id(&ctx, &mut findings);
    let suppressed = apply_allows(&ctx, &mut findings);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    (findings, suppressed)
}

fn emit(
    ctx: &FileCtx<'_>,
    out: &mut Vec<Finding>,
    rule_id: &'static str,
    ci: usize,
    message: String,
) {
    let tok = ctx.ctok(ci);
    let (line, col) = ctx.line_col(tok.start);
    out.push(Finding {
        rule: rule_id,
        path: ctx.path.clone(),
        line,
        col,
        len: tok.end - tok.start,
        snippet: ctx.ctext(ci).to_owned(),
        message,
    });
}

/// Rule `no-partial-cmp`: the identifier anywhere in code (tests
/// included — verdict determinism has no test exemption).
fn check_no_partial_cmp(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for ci in 0..ctx.code.len() {
        if ctx.ckind(ci) == TokenKind::Ident && ctx.ctext(ci) == "partial_cmp" {
            emit(
                ctx,
                out,
                "no-partial-cmp",
                ci,
                "partial_cmp reintroduces NaN panics and unordered verdicts; use total_cmp"
                    .to_owned(),
            );
        }
    }
}

/// Rule `hot-path-alloc`: allocation constructors in hot-path files
/// outside `// mclint: cold` items and tests. Also enforces that the
/// known hot modules carry the header at all.
fn check_hot_path_alloc(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let required = HOT_REQUIRED_FILES.contains(&ctx.path.as_str());
    if required && !ctx.hot_path {
        out.push(Finding {
            rule: "hot-path-alloc",
            path: ctx.path.clone(),
            line: 1,
            col: 1,
            len: 0,
            snippet: String::new(),
            message: "this module is on the zero-allocation steady state; declare it with a \
                      `// mclint: hot-path` header"
                .to_owned(),
        });
    }
    if !ctx.hot_path {
        return;
    }
    for ci in 0..ctx.code.len() {
        let pos = ctx.ctok(ci).start;
        if ctx.in_test(pos) || ctx.in_cold(pos) {
            continue;
        }
        if ctx.ckind(ci) != TokenKind::Ident {
            continue;
        }
        let t = ctx.ctext(ci);
        let next = ctx.code.get(ci + 1).map(|_| ctx.ctext(ci + 1));
        let prev = ci.checked_sub(1).map(|j| ctx.ctext(j));
        if ALLOC_METHODS.contains(&t) && prev == Some(".") && matches!(next, Some("(") | Some("::"))
        {
            emit(
                ctx,
                out,
                "hot-path-alloc",
                ci,
                format!(
                    "`.{t}(…)` allocates on the hot path; {} or mark the item \
                     `// mclint: cold`",
                    if t.starts_with("sort") {
                        "use the `sort_unstable` form with a total comparator"
                    } else {
                        "reuse a workspace buffer"
                    }
                ),
            );
        } else if ALLOC_TYPES.contains(&t)
            && next == Some("::")
            && ctx
                .code
                .get(ci + 2)
                .is_some_and(|_| ALLOC_CTORS.contains(&ctx.ctext(ci + 2)))
        {
            emit(
                ctx,
                out,
                "hot-path-alloc",
                ci,
                format!(
                    "`{t}::{}` allocates on the hot path; hoist it into the workspace or mark \
                     the item `// mclint: cold`",
                    ctx.ctext(ci + 2)
                ),
            );
        } else if ALLOC_MACROS.contains(&t) && next == Some("!") {
            emit(
                ctx,
                out,
                "hot-path-alloc",
                ci,
                format!("`{t}!` allocates on the hot path"),
            );
        }
    }
}

/// Backward bracket matching: `close` is the code index of a `)`/`]`;
/// returns the index of its opener.
fn match_back(ctx: &FileCtx<'_>, close: usize, open_t: &str, close_t: &str) -> Option<usize> {
    let mut depth = 0usize;
    for ci in (0..=close).rev() {
        let t = ctx.ctext(ci);
        if t == close_t {
            depth += 1;
        } else if t == open_t {
            depth -= 1;
            if depth == 0 {
                return Some(ci);
            }
        }
    }
    None
}

/// The identifier naming the left operand of the operator at `ci`:
/// jumps over `(…)` / `[…]` groups so `wl[j] + x` and `t.period() + x`
/// resolve to `wl` / `period`.
fn left_operand_name<'s>(ctx: &'s FileCtx<'_>, ci: usize) -> Option<&'s str> {
    let mut j = ci.checked_sub(1)?;
    loop {
        match ctx.ctext(j) {
            ")" => j = match_back(ctx, j, "(", ")")?.checked_sub(1)?,
            "]" => j = match_back(ctx, j, "[", "]")?.checked_sub(1)?,
            _ => break,
        }
    }
    (ctx.ckind(j) == TokenKind::Ident).then(|| ctx.ctext(j))
}

/// The identifier naming the right operand: follows `self.x.y` chains
/// to their final segment so `t += self.period` resolves to `period`.
fn right_operand_name<'s>(ctx: &'s FileCtx<'_>, ci: usize) -> Option<&'s str> {
    let mut j = ci + 1;
    while j < ctx.code.len() && matches!(ctx.ctext(j), "(" | "&") {
        j += 1;
    }
    if j >= ctx.code.len() || ctx.ckind(j) != TokenKind::Ident {
        return None;
    }
    let mut name = ctx.ctext(j);
    while j + 2 < ctx.code.len() && ctx.ctext(j + 1) == "." && ctx.ckind(j + 2) == TokenKind::Ident
    {
        j += 2;
        name = ctx.ctext(j);
    }
    Some(name)
}

/// The code-token span of the statement containing `ci`: back to the
/// previous `;`/`{`/`}` (exclusive), forward to the next (inclusive).
fn statement_span(ctx: &FileCtx<'_>, ci: usize) -> (usize, usize) {
    let mut a = ci;
    while a > 0 && !matches!(ctx.ctext(a - 1), ";" | "{" | "}") {
        a -= 1;
    }
    let mut b = ci;
    while b + 1 < ctx.code.len() && !matches!(ctx.ctext(b), ";" | "{" | "}") {
        b += 1;
    }
    (a, b)
}

fn statement_contains(ctx: &FileCtx<'_>, ci: usize, words: &[&str]) -> bool {
    let (a, b) = statement_span(ctx, ci);
    (a..=b).any(|j| ctx.ckind(j) == TokenKind::Ident && words.contains(&ctx.ctext(j)))
}

/// Rule `time-arith`: raw `+`/`*`/`<<` (and compound forms) on
/// time-lane operands in kernel files, outside `_fast` bodies, `if FAST`
/// arms, cold items and tests. Statements that widen through
/// `u128`/`i128` are exempt — 64-bit inputs cannot overflow them.
fn check_time_arith(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !KERNEL_FILES.contains(&ctx.path.as_str()) {
        return;
    }
    for ci in 0..ctx.code.len() {
        if ctx.ckind(ci) != TokenKind::Punct {
            continue;
        }
        let op = ctx.ctext(ci);
        if !matches!(op, "+" | "*" | "<<" | "+=" | "*=" | "<<=") {
            continue;
        }
        let pos = ctx.ctok(ci).start;
        if ctx.in_test(pos) || ctx.in_fast(pos) || ctx.in_cold(pos) {
            continue;
        }
        // Binary use only: `*x` deref and `&*`-style unary forms have no
        // value-typed token directly before the operator.
        if matches!(op, "+" | "*" | "<<") {
            let binary = ci > 0
                && (matches!(
                    ctx.ckind(ci - 1),
                    TokenKind::Ident | TokenKind::Int | TokenKind::Float
                ) || matches!(ctx.ctext(ci - 1), ")" | "]"));
            if !binary {
                continue;
            }
        }
        let left = left_operand_name(ctx, ci);
        let right = right_operand_name(ctx, ci);
        let time_operand = |n: Option<&str>| n.is_some_and(|n| TIME_IDENTS.contains(&n));
        if !(time_operand(left) || time_operand(right)) {
            continue;
        }
        // Widening through u128/i128 cannot overflow on 64-bit inputs,
        // and statements converting through as_f64 are float arithmetic
        // (no wrap to guard against).
        if statement_contains(ctx, ci, &["u128", "i128", "as_f64"]) {
            continue;
        }
        let sat = match op {
            "+" | "+=" => "saturating_add",
            "*" | "*=" => "saturating_mul",
            _ => "checked_shl",
        };
        emit(
            ctx,
            out,
            "time-arith",
            ci,
            format!(
                "unchecked `{op}` on a time-lane value outside a certified fast block; use \
                 `{sat}` (or widen through u128)"
            ),
        );
    }
}

/// Rule `float-sum`: `.sum()`/`.product()` whose statement mentions an
/// f64-valued quantity, in the analysis/model/core crates.
fn check_float_sum(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !FLOAT_SUM_PREFIXES.iter().any(|p| ctx.path.starts_with(p)) {
        return;
    }
    for ci in 0..ctx.code.len() {
        if ctx.ckind(ci) != TokenKind::Ident || !matches!(ctx.ctext(ci), "sum" | "product") {
            continue;
        }
        let pos = ctx.ctok(ci).start;
        if ctx.in_test(pos) {
            continue;
        }
        let prev_dot = ci > 0 && ctx.ctext(ci - 1) == ".";
        let next = ctx.code.get(ci + 1).map(|_| ctx.ctext(ci + 1));
        if !prev_dot || !matches!(next, Some("(") | Some("::")) {
            continue;
        }
        if statement_contains(ctx, ci, FLOAT_MARKERS) {
            emit(
                ctx,
                out,
                "float-sum",
                ci,
                "f64 iterator reduction hides the summation order verdicts depend on; write \
                 an insertion-order loop with a comment saying so"
                    .to_owned(),
            );
        }
    }
}

/// Rule `reply-id`: `.render(…)` and the buffer-writing
/// `.render_into(…)` in the protocol-speaking files must pass the
/// request id through.
fn check_reply_id(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !REPLY_FILES.contains(&ctx.path.as_str()) {
        return;
    }
    for ci in 0..ctx.code.len() {
        if ctx.ckind(ci) != TokenKind::Ident || !matches!(ctx.ctext(ci), "render" | "render_into") {
            continue;
        }
        if ctx.in_test(ctx.ctok(ci).start) {
            continue;
        }
        if ci == 0 || ctx.ctext(ci - 1) != "." {
            continue; // the definition site, not a call
        }
        if ci + 1 == ctx.code.len() || ctx.ctext(ci + 1) != "(" {
            continue;
        }
        let Some(close) = ctx.match_paren(ci + 1) else {
            continue;
        };
        let has_id = (ci + 2..close).any(|j| {
            ctx.ckind(j) == TokenKind::Ident && matches!(ctx.ctext(j), "id" | "request_id")
        });
        if !has_id {
            emit(
                ctx,
                out,
                "reply-id",
                ci,
                "reply rendered without binding the request id; every reply must echo it \
                 (pass `id.as_ref()`)"
                    .to_owned(),
            );
        }
    }
}

/// Applies suppressions and reports suppression hygiene. A valid allow
/// (known rule + non-empty reason) removes the matching findings on its
/// target line; invalid allows suppress nothing and are themselves
/// findings; allows that matched nothing are `unused-allow` findings.
fn apply_allows(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) -> usize {
    let mut suppressed = 0usize;
    let mut meta = Vec::new();
    for allow in &ctx.allows {
        let bad = |message: String, allow: &Allow| Finding {
            rule: "bad-allow",
            path: ctx.path.clone(),
            line: allow.line,
            col: allow.col,
            len: 0,
            snippet: allow.rule.clone(),
            message,
        };
        if rule(&allow.rule).is_none() {
            meta.push(bad(
                format!(
                    "allow names unknown rule `{}`; known rules: {}",
                    allow.rule,
                    RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
                ),
                allow,
            ));
            continue;
        }
        if allow.reason.is_none() {
            meta.push(bad(
                format!(
                    "allow({}) without reason=\"…\"; suppressions must say why the invariant \
                     holds here",
                    allow.rule
                ),
                allow,
            ));
            continue;
        }
        let before = findings.len();
        findings.retain(|f| !(f.rule == allow.rule && f.line == allow.target_line));
        let matched = before - findings.len();
        suppressed += matched;
        if matched == 0 {
            meta.push(Finding {
                rule: "unused-allow",
                path: ctx.path.clone(),
                line: allow.line,
                col: allow.col,
                len: 0,
                snippet: allow.rule.clone(),
                message: format!(
                    "allow({}) suppressed nothing on line {}; delete it",
                    allow.rule, allow.target_line
                ),
            });
        }
    }
    findings.extend(meta);
    suppressed
}

impl FileCtx<'_> {
    /// Code index of the `)` matching the `(` at code index `open`.
    pub(crate) fn match_paren(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for ci in open..self.code.len() {
            match self.ctext(ci) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(ci);
                    }
                }
                _ => {}
            }
        }
        None
    }
}
