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
//! # The rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-partial-cmp` | float comparators are total (`total_cmp`), tests included, so verdicts are bit-identical and NaN-safe |
//! | `hot-path-alloc` | `// mclint: hot-path` modules stay allocation-free outside `// mclint: cold` items (pinned at run time by `tests/zero_alloc.rs`); a stable sort counts, since it allocates its merge buffer |
//! | `time-arith` | kernel-file time arithmetic is `saturating_`/`checked_` unless inside a `_fast` body or `if FAST` arm (the fast-kernel certificate) |
//! | `float-sum` | f64 reductions in analysis/model crates are documented insertion-order loops, not `.sum()` (order-pinned utilization sums) |
//! | `reply-id` | every reply render site binds the request `id` (the id-echoing protocol) |
//! | `bad-allow` / `unused-allow` | an `mclint: allow` names a known rule, carries a reason and suppresses something |
//!
//! Invariants clippy can state are clippy's, and fail CI's clippy job
//! rather than this pass: the panic-free service plane (a
//! `#![deny(clippy::unwrap_used, …, clippy::indexing_slicing)]` atop
//! each of its files) and scoped threads only in the batch engine
//! (`std::thread::scope` in `clippy.toml`'s `disallowed-methods`).
//! `no-partial-cmp` stays here: `disallowed-methods` cannot single out
//! the float impl of `PartialOrd::partial_cmp`.
//!
//! # Suppressions
//!
//! ```text
//! let v = xs.to_vec(); // mclint: allow(hot-path-alloc) reason="once per judgement"
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
pub use rules::{lint_file, rule, Finding, RuleInfo, RULES};
pub use source::{Allow, FileCtx};
