//! mclint — a project-native static-analysis pass for the mcsched
//! workspace.
//!
//! PRs 4–7 made the repro's correctness depend on conventions that no
//! compiler checks. This crate machine-checks them: a hand-rolled
//! token-level lexer ([`lexer`], zero dependencies — it must work even
//! when the workspace doesn't compile), structural scoping per file
//! ([`source`]), a data-driven rule set ([`rules`]), a workspace walker
//! ([`engine`]), and human/JSON reporters ([`report`]).
//!
//! # The rules, and where each invariant came from
//!
//! | rule | invariant | origin |
//! |------|-----------|--------|
//! | `no-panic` | server-path files answer every request with a typed reply — no `unwrap`/`expect`/`panic!`/literal indexing | PR 6 (admission server) |
//! | `no-partial-cmp` | float comparators are total (`total_cmp`) so verdicts are bit-identical and NaN-safe | PR 2 (verdict determinism) |
//! | `hot-path-alloc` | `// mclint: hot-path` modules stay allocation-free outside `// mclint: cold` items | PR 4 (zero-alloc steady state, pinned by `tests/zero_alloc.rs`) |
//! | `time-arith` | kernel-file time arithmetic is `saturating_`/`checked_` unless inside a `_fast` body or `if FAST` arm | PR 7 (fast-kernel certificate) |
//! | `float-sum` | f64 reductions in analysis/model crates are written as documented insertion-order loops, not `.sum()` | PR 2 / PR 5 (order-pinned utilization sums) |
//! | `reply-id` | every reply render site binds the request `id` | PR 6 (id-echoing protocol) |
//! | `unstable-sort` | hot-file sorts are `sort_unstable_by` (no merge buffer) | PR 4 |
//! | `scoped-threads` | `thread::scope` lives only in `exp/src/engine.rs` | PR 3 (deterministic batch engine; generalizes `tests/engine_equivalence.rs`) |
//! | `bad-allow` / `unused-allow` | suppressions carry reasons and never rot | this PR |
//!
//! # Suppressions
//!
//! ```text
//! x.unwrap(); // mclint: allow(no-panic) reason="guarded by is_some above"
//! // mclint: allow(time-arith) reason="bounded by cert check on entry"
//! acc += c;
//! ```
//!
//! A trailing comment covers its own line; a standalone comment covers
//! the next code line. `reason="…"` is mandatory; an allow that
//! suppresses nothing is itself a finding.
//!
//! Every other finding fails the run: there is no list of tolerated
//! findings, and `tests/workspace_clean.rs` keeps the workspace clean.

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

pub use engine::{run, LintReport, Options};
pub use lexer::{lex, Token, TokenKind};
pub use report::{render_human, render_json, render_rules};
pub use rules::{lint_file, rule, Finding, RuleInfo, Severity, RULES};
pub use source::{Allow, FileCtx};
