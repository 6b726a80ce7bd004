//! Per-file structural context on top of the token stream.
//!
//! Rules are token-level, but several project invariants are *scoped*:
//! test modules may panic, `_fast`-certified kernels may use plain
//! arithmetic, declared-cold items may allocate. [`FileCtx`] computes
//! those scopes once per file with cheap structural passes (attribute
//! scanning + brace matching — no parsing):
//!
//! * **Test regions** — the byte span of every `#[cfg(test)]` item.
//!   Most rules guard the *production* path only; unit tests in the same
//!   file assert and unwrap freely.
//! * **Fast regions** — bodies of functions whose name ends in `_fast`,
//!   and the then-arms of `if FAST { … }` (the monomorphisation constant
//!   of the certified kernels, PR 7). Inside them the fast-kernel
//!   certificate licenses plain `+`/`*`/`<<`; see the `time-arith` rule.
//! * **Cold regions** — items preceded by a `// mclint: cold` marker:
//!   constructors and entry-point APIs inside hot-path files that may
//!   allocate because they run once per judgement, not once per probe.
//! * **The hot-path header** — `// mclint: hot-path` anywhere in the
//!   file opts the whole file into the allocation rule (stable sorts
//!   included).
//! * **Suppressions** — `// mclint: allow(rule) reason="…"` comments.
//!   A trailing comment covers its own line; a standalone comment covers
//!   the next code line. The engine reports allows that lack a reason
//!   (`bad-allow`) and allows that suppressed nothing (`unused-allow`),
//!   so suppressions cannot rot silently.

use crate::lexer::{lex, Token, TokenKind};

/// One parsed `// mclint: allow(rule) reason="…"` suppression.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule id inside `allow(…)`.
    pub rule: String,
    /// The quoted reason, when present and non-empty.
    pub reason: Option<String>,
    /// 1-based line of the comment itself.
    pub line: usize,
    /// 1-based column of the comment.
    pub col: usize,
    /// The line findings must be on for this allow to apply.
    pub target_line: usize,
}

/// A lexed file plus the structural scopes rules need.
pub struct FileCtx<'a> {
    /// Workspace-relative path (unix separators) — rule applicability
    /// is keyed on it.
    pub path: String,
    /// The raw source.
    pub src: &'a str,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Whether the file carries a `// mclint: hot-path` header.
    pub hot_path: bool,
    /// Parsed `allow(…)` suppressions.
    pub allows: Vec<Allow>,
    line_starts: Vec<usize>,
    test_regions: Vec<(usize, usize)>,
    fast_regions: Vec<(usize, usize)>,
    cold_regions: Vec<(usize, usize)>,
}

impl<'a> FileCtx<'a> {
    /// Lexes and scopes one file.
    pub fn parse(path: &str, src: &'a str) -> FileCtx<'a> {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let mut ctx = FileCtx {
            path: path.to_owned(),
            src,
            tokens,
            code,
            hot_path: false,
            allows: Vec::new(),
            line_starts,
            test_regions: Vec::new(),
            fast_regions: Vec::new(),
            cold_regions: Vec::new(),
        };
        ctx.scan_comments();
        ctx.scan_test_regions();
        ctx.scan_fast_regions();
        ctx
    }

    /// The text of token `tokens[idx]`.
    pub fn text(&self, idx: usize) -> &'a str {
        let t = &self.tokens[idx];
        &self.src[t.start..t.end]
    }

    /// The text of the `ci`-th *code* token.
    pub fn ctext(&self, ci: usize) -> &'a str {
        self.text(self.code[ci])
    }

    /// The kind of the `ci`-th code token.
    pub fn ckind(&self, ci: usize) -> TokenKind {
        self.tokens[self.code[ci]].kind
    }

    /// The `ci`-th code token.
    pub fn ctok(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    /// 1-based `(line, col)` of a byte offset (col counts bytes).
    pub fn line_col(&self, pos: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, pos - self.line_starts[line] + 1)
    }

    /// Whether a byte offset falls inside a `#[cfg(test)]` item.
    pub fn in_test(&self, pos: usize) -> bool {
        in_any(&self.test_regions, pos)
    }

    /// Whether a byte offset falls inside a certified fast block.
    pub fn in_fast(&self, pos: usize) -> bool {
        in_any(&self.fast_regions, pos)
    }

    /// Whether a byte offset falls inside a `// mclint: cold` item.
    pub fn in_cold(&self, pos: usize) -> bool {
        in_any(&self.cold_regions, pos)
    }

    /// Code-token index of the `}` matching the `{` at code index `ci`.
    pub fn match_brace(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for ci in open..self.code.len() {
            match self.ctext(ci) {
                "{" => depth += 1,
                "}" => {
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

    /// From code index `from`, the byte range of the item that follows:
    /// to the matching `}` of its first block, or to the first
    /// *top-level* `;` if no block opens before one. Semicolons nested
    /// in `(…)` / `[…]` groups — array types like `[u64; 8]` in a
    /// signature — do not terminate the item.
    fn item_region(&self, from: usize) -> Option<(usize, usize)> {
        let mut nest = 0usize;
        for ci in from..self.code.len() {
            match self.ctext(ci) {
                "{" => {
                    let close = self.match_brace(ci)?;
                    return Some((self.ctok(from).start, self.ctok(close).end));
                }
                "(" | "[" => nest += 1,
                ")" | "]" => nest = nest.saturating_sub(1),
                ";" if nest == 0 => return Some((self.ctok(from).start, self.ctok(ci).end)),
                _ => {}
            }
        }
        None
    }

    /// Comment pass: hot-path header, cold markers, allow suppressions.
    fn scan_comments(&mut self) {
        let mut cold = Vec::new();
        let mut allows = Vec::new();
        for (i, tok) in self.tokens.iter().enumerate() {
            if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = &self.src[tok.start..tok.end];
            // Directives live in plain comments whose content *starts*
            // with `mclint:`. Doc comments (`///`, `//!`, `/**`, `/*!`)
            // are prose — they may *mention* directives without
            // enacting them.
            let body = match tok.kind {
                TokenKind::LineComment => {
                    if text.starts_with("///") || text.starts_with("//!") {
                        continue;
                    }
                    text.trim_start_matches('/')
                }
                _ => {
                    if text.starts_with("/**") || text.starts_with("/*!") {
                        continue;
                    }
                    text.trim_start_matches("/*")
                }
            };
            let Some(directive) = body.trim_start().strip_prefix("mclint:") else {
                continue;
            };
            let directive = directive.trim_start();
            if directive.starts_with("hot-path") {
                self.hot_path = true;
            } else if directive.starts_with("cold") {
                // The marked item: from the next code token onward.
                if let Some(&first) = self.code.iter().find(|&&c| self.tokens[c].start > tok.end) {
                    let from = self.code.iter().position(|&c| c == first);
                    if let Some(region) = from.and_then(|f| self.item_region(f)) {
                        cold.push(region);
                    }
                }
            } else if let Some(rest) = directive.strip_prefix("allow(") {
                let rule: String = rest.chars().take_while(|&c| c != ')').collect();
                let reason = rest
                    .split_once("reason=\"")
                    .map(|(_, r)| r.split('"').next().unwrap_or("").to_owned())
                    .filter(|r| !r.trim().is_empty());
                let (line, col) = self.line_col(tok.start);
                // Trailing (code before it on the same line) covers its
                // own line; standalone covers the next code line.
                let line_start = self.line_starts[line - 1];
                let trailing = self.tokens[..i].iter().any(|t| {
                    t.start >= line_start
                        && t.start < tok.start
                        && !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                });
                let target_line = if trailing {
                    line
                } else {
                    self.tokens[i + 1..]
                        .iter()
                        .find(|t| {
                            !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                        })
                        .map(|t| self.line_col(t.start).0)
                        .unwrap_or(line)
                };
                allows.push(Allow {
                    rule: rule.trim().to_owned(),
                    reason,
                    line,
                    col,
                    target_line,
                });
            }
        }
        self.cold_regions = cold;
        self.allows = allows;
    }

    /// Marks every `#[cfg(test)]` item's span.
    fn scan_test_regions(&mut self) {
        let mut regions = Vec::new();
        let mut ci = 0;
        while ci + 1 < self.code.len() {
            if self.ctext(ci) == "#" && self.ctext(ci + 1) == "[" {
                // Collect the attribute tokens to the matching `]`.
                let mut depth = 0usize;
                let mut end = ci + 1;
                let mut inner: Vec<&str> = Vec::new();
                for cj in ci + 1..self.code.len() {
                    match self.ctext(cj) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                end = cj;
                                break;
                            }
                        }
                        t => inner.push(t),
                    }
                    end = cj;
                }
                let is_cfg_test = inner.len() >= 4
                    && inner[0] == "cfg"
                    && inner[1] == "("
                    && inner.contains(&"test");
                if is_cfg_test || inner.first() == Some(&"test") {
                    // Skip any further attributes between this one and
                    // the item itself.
                    let mut from = end + 1;
                    while from + 1 < self.code.len()
                        && self.ctext(from) == "#"
                        && self.ctext(from + 1) == "["
                    {
                        let mut d = 0usize;
                        for cj in from + 1..self.code.len() {
                            match self.ctext(cj) {
                                "[" => d += 1,
                                "]" => {
                                    d -= 1;
                                    if d == 0 {
                                        from = cj + 1;
                                        break;
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                    if let Some(region) = self.item_region(from) {
                        regions.push((self.ctok(ci).start, region.1));
                        // Resume after the region (nested attrs inside
                        // are already covered).
                        while ci < self.code.len() && self.ctok(ci).start < region.1 {
                            ci += 1;
                        }
                        continue;
                    }
                }
                ci = end + 1;
            } else {
                ci += 1;
            }
        }
        self.test_regions = regions;
    }

    /// Marks `fn …_fast` bodies and `if FAST { … }` then-arms.
    fn scan_fast_regions(&mut self) {
        let mut regions = Vec::new();
        for ci in 0..self.code.len() {
            let t = self.ctext(ci);
            if t == "fn"
                && ci + 1 < self.code.len()
                && self.ckind(ci + 1) == TokenKind::Ident
                && self.ctext(ci + 1).ends_with("_fast")
            {
                if let Some(region) = self.item_region(ci) {
                    regions.push(region);
                }
            }
            if t == "if"
                && ci + 2 < self.code.len()
                && self.ctext(ci + 1) == "FAST"
                && self.ctext(ci + 2) == "{"
            {
                if let Some(close) = self.match_brace(ci + 2) {
                    regions.push((self.ctok(ci + 2).start, self.ctok(close).end));
                }
            }
        }
        self.fast_regions = regions;
    }
}

fn in_any(regions: &[(usize, usize)], pos: usize) -> bool {
    regions.iter().any(|&(a, b)| pos >= a && pos < b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_region_covers_module() {
        let src = "fn a() { x(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y(); }\n}\n";
        let ctx = FileCtx::parse("x.rs", src);
        let a = src.find("x()").unwrap();
        let b = src.find("y()").unwrap();
        assert!(!ctx.in_test(a));
        assert!(ctx.in_test(b));
    }

    #[test]
    fn fast_regions() {
        let src =
            "fn go_fast(x: u64) -> u64 { x + 1 }\nfn slow() { if FAST { a + b } else { c } }\n";
        let ctx = FileCtx::parse("x.rs", src);
        assert!(ctx.in_fast(src.find("x + 1").unwrap()));
        assert!(ctx.in_fast(src.find("a + b").unwrap()));
        assert!(!ctx.in_fast(src.find("{ c }").unwrap() + 2));
    }

    #[test]
    fn cold_marker_covers_item() {
        let src = "// mclint: cold — constructor\nfn new() -> V { Vec::new() }\nfn hot() { v.clone(); }\n";
        let ctx = FileCtx::parse("x.rs", src);
        assert!(ctx.in_cold(src.find("Vec").unwrap()));
        assert!(!ctx.in_cold(src.find("clone").unwrap()));
    }

    #[test]
    fn allow_parsing_trailing_and_standalone() {
        let src = "x.clone(); // mclint: allow(hot-path-alloc) reason=\"test only\"\n// mclint: allow(time-arith)\ny();\n";
        let ctx = FileCtx::parse("x.rs", src);
        assert_eq!(ctx.allows.len(), 2);
        assert_eq!(ctx.allows[0].rule, "hot-path-alloc");
        assert_eq!(ctx.allows[0].target_line, 1);
        assert_eq!(ctx.allows[0].reason.as_deref(), Some("test only"));
        assert_eq!(ctx.allows[1].rule, "time-arith");
        assert_eq!(ctx.allows[1].target_line, 3);
        assert!(ctx.allows[1].reason.is_none());
    }

    #[test]
    fn hot_path_header() {
        let ctx = FileCtx::parse("x.rs", "//! Docs.\n// mclint: hot-path\nfn f() {}\n");
        assert!(ctx.hot_path);
    }
}
