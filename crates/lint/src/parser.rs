//! A hand-rolled recursive-descent *item* parser over the total lexer:
//! just enough structure — `fn`/`impl`/`mod`/`trait`/`use` items with
//! spans, per-function call references, and per-function "facts"
//! (wall-clock reads, panics, float reductions, lock acquisitions,
//! heap allocations) — for the cross-crate reachability rules in
//! [`crate::graph`] and [`crate::reach`].
//!
//! Like the lexer it is total: any byte soup parses to *some*
//! [`FileModel`] without panicking, and every span stays in bounds
//! (property-tested in `tests/parser_props.rs`). And like the rules it
//! is heuristic by design: no macro expansion, no type inference, no
//! borrow structure — a faithful token-level view of who defines what
//! and who calls whom, nothing more. The documented limits:
//!
//! * method calls are recorded by name only; resolution (in
//!   [`crate::graph`]) over-approximates across every impl of the name;
//! * lock receivers are field/variable *names*, so two locks sharing a
//!   field name alias;
//! * nested `fn` items are parsed as their own functions and excluded
//!   from the enclosing body's facts.

use crate::lexer::{Token, TokenKind};

/// Everything the workspace analyzer needs to know about one file.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    /// Repo-relative path the file was parsed under.
    pub path: String,
    /// Every function item (free fns, methods, trait default methods,
    /// nested fns), in source order.
    pub fns: Vec<FnInfo>,
    /// Flattened `use` declarations: one entry per imported leaf.
    pub uses: Vec<UseDecl>,
    /// Call sites that schedule a closure on a `mnemo-par` pool.
    pub pool_sites: Vec<PoolSite>,
}

/// One `use` leaf: `use a::b::{c, d as e};` yields two decls,
/// `c -> [a,b,c]` and `e -> [a,b,d]`. Globs are recorded with leaf
/// `"*"` and ignored by resolution.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// The name this import binds locally.
    pub leaf: String,
    /// The full path segments, crate first.
    pub segments: Vec<String>,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's name.
    pub name: String,
    /// The `impl`/`trait` type it is defined on, if any.
    pub impl_ty: Option<String>,
    /// Does its parameter list open with a `self` receiver? Only such
    /// fns are reachable by an unqualified `.name(` method call.
    pub takes_self: bool,
    /// Enclosing `mod` names, outermost first (file-local only).
    pub module: Vec<String>,
    /// 1-based line of the `fn` name token.
    pub line: u32,
    /// 1-based column of the `fn` name token.
    pub col: u32,
    /// Inside a `#[cfg(test)]`/`#[test]` region?
    pub in_test: bool,
    /// Direct facts observed lexically in the body.
    pub facts: Vec<FactHit>,
    /// Call references observed in the body, in order.
    pub calls: Vec<CallRef>,
    /// Lock acquisitions observed in the body, in order.
    pub locks: Vec<LockAcq>,
}

/// What a body-level fact is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FactKind {
    /// `Instant::now()` / `SystemTime` / `Utc::now()` / `Local::now()`.
    WallClock,
    /// Entropy-seeded randomness: `thread_rng`, `from_entropy`,
    /// `RandomState`.
    Entropy,
    /// Default-hasher `HashMap`/`HashSet`.
    DefaultHasher,
    /// `.sum::<f32|f64>()`, `.product::<f32|f64>()`, float-seeded
    /// `.fold(`.
    FloatReduction,
    /// `.unwrap()`, `.expect(`, `panic!(`.
    Panics,
    /// Heap allocation: `vec!`, `format!`, `Box::new`,
    /// `::with_capacity`, `.to_vec`/`.to_string`/`.to_owned`,
    /// `String::from`, `.collect(`.
    Alloc,
}

/// One observed fact with its location and matched text.
#[derive(Debug, Clone)]
pub struct FactHit {
    /// The fact class.
    pub kind: FactKind,
    /// 1-based line.
    pub line: u32,
    /// What matched (e.g. `.unwrap()`).
    pub what: String,
}

/// One call reference inside a function body.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// Path segments; a method call has exactly one (the method name).
    pub segments: Vec<String>,
    /// `.name(` method call (vs. a path/bare call).
    pub method: bool,
    /// 1-based line of the name token.
    pub line: u32,
    /// Body-order index, shared with [`LockAcq::order`] so the C001
    /// rule can interleave calls and acquisitions.
    pub order: u32,
}

/// One lexical lock acquisition.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// The receiver name (`self.state.lock()` → `state`).
    pub receiver: String,
    /// 1-based line.
    pub line: u32,
    /// Body-order index (see [`CallRef::order`]).
    pub order: u32,
    /// Last body-order index at which the guard is (lexically) still
    /// held: the close of the block the lock was acquired in, on the
    /// guard-lives-to-end-of-scope approximation. `u32::MAX` = held to
    /// the end of the function.
    pub held_until: u32,
}

/// One pool-scheduling call site: the closure handed to
/// `pool.map/map_slice/map_chunked/run_jobs/join` plus what it does.
#[derive(Debug, Clone)]
pub struct PoolSite {
    /// The entry-point method name (`map`, `run_jobs`, …).
    pub method: String,
    /// 1-based line of the call.
    pub line: u32,
    /// 1-based column of the call.
    pub col: u32,
    /// Inside a test region?
    pub in_test: bool,
    /// Facts lexically inside the call's argument span.
    pub facts: Vec<FactHit>,
    /// Call references lexically inside the argument span.
    pub calls: Vec<CallRef>,
}

/// Pool methods that take a closure and fan it out across workers
/// (shared with the D004 token rule).
pub const PAR_ENTRY_POINTS: [&str; 5] = ["map", "map_slice", "map_chunked", "run_jobs", "join"];

/// Parse one file. `tokens` are *code* tokens (comments stripped) and
/// `in_test` is the parallel test-region mask — the same views the
/// token rules consume.
pub fn parse_file(path: &str, src: &str, tokens: &[Token], in_test: &[bool]) -> FileModel {
    let mut p = Parser {
        src,
        tokens,
        in_test,
        model: FileModel {
            path: path.to_string(),
            ..FileModel::default()
        },
        order: 0,
    };
    let end = tokens.len();
    let mut module = Vec::new();
    p.parse_items(0, end, &mut module, None, 0);
    p.model
}

struct Parser<'a> {
    src: &'a str,
    tokens: &'a [Token],
    in_test: &'a [bool],
    model: FileModel,
    /// Monotone body-event counter (calls + locks), file-wide.
    order: u32,
}

/// Module/impl recursion ceiling: beyond this the parser flattens
/// instead of recursing, keeping totality on adversarial nesting.
const MAX_NEST: u32 = 64;

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.tokens.get(i).map_or("", |t| t.text(self.src))
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.tokens.get(i).map(|t| t.kind)
    }

    fn is_ident_at(&self, i: usize) -> bool {
        self.kind(i) == Some(TokenKind::Ident)
    }

    fn is_punct(&self, i: usize, s: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text(self.src) == s)
    }

    fn is_path_sep(&self, i: usize) -> bool {
        self.is_punct(i, ":") && self.is_punct(i + 1, ":")
    }

    fn masked(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    fn line(&self, i: usize) -> u32 {
        self.tokens.get(i).map_or(1, |t| t.line)
    }

    /// Index one past the matching close for the opener at `i`
    /// (clamped to `end`). Openers/closers are single-byte puncts.
    fn skip_balanced(&self, i: usize, open: &str, close: &str, end: usize) -> usize {
        let mut depth = 1u32;
        let mut j = i + 1;
        while j < end && depth > 0 {
            if self.is_punct(j, open) {
                depth += 1;
            } else if self.is_punct(j, close) {
                depth -= 1;
            }
            j += 1;
        }
        j
    }

    /// Item-level scan of `[i, end)`. `module` is the enclosing mod
    /// path, `impl_ty` the enclosing impl/trait type.
    fn parse_items(
        &mut self,
        mut i: usize,
        end: usize,
        module: &mut Vec<String>,
        impl_ty: Option<&str>,
        depth: u32,
    ) {
        while i < end {
            if self.is_punct(i, "#") && self.is_punct(i + 1, "[") {
                i = self.skip_balanced(i + 1, "[", "]", end);
                continue;
            }
            if !self.is_ident_at(i) {
                // Stray braces at item level (e.g. inside a macro
                // invocation body): step over whole groups so `fn`
                // tokens inside `macro_rules!` arms are still seen.
                i += 1;
                continue;
            }
            match self.text(i) {
                "fn" if self.is_ident_at(i + 1) => {
                    i = self.parse_fn(i, end, module, impl_ty, depth);
                }
                "mod" if self.is_ident_at(i + 1) && depth < MAX_NEST => {
                    let name = self.text(i + 1).to_string();
                    // `mod name;` (no body) or `mod name { … }`.
                    let mut j = i + 2;
                    while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                        j += 1;
                    }
                    if self.is_punct(j, "{") {
                        let close = self.skip_balanced(j, "{", "}", end);
                        module.push(name);
                        self.parse_items(j + 1, close.saturating_sub(1), module, None, depth + 1);
                        module.pop();
                        i = close;
                    } else {
                        i = j + 1;
                    }
                }
                "impl" if depth < MAX_NEST => {
                    i = self.parse_impl(i, end, module, depth);
                }
                "trait" if self.is_ident_at(i + 1) && depth < MAX_NEST => {
                    let name = self.text(i + 1).to_string();
                    let mut j = i + 2;
                    while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
                        j += 1;
                    }
                    if self.is_punct(j, "{") {
                        let close = self.skip_balanced(j, "{", "}", end);
                        self.parse_items(
                            j + 1,
                            close.saturating_sub(1),
                            module,
                            Some(&name),
                            depth + 1,
                        );
                        i = close;
                    } else {
                        i = j + 1;
                    }
                }
                "use" => {
                    i = self.parse_use(i + 1, end);
                }
                _ => i += 1,
            }
        }
    }

    /// Parse `impl … { items }`, extracting the self type: the type
    /// after `for` when present (`impl Trait for Type`), else the
    /// first type after the optional generic parameters.
    fn parse_impl(&mut self, i: usize, end: usize, module: &mut Vec<String>, depth: u32) -> usize {
        let mut j = i + 1;
        // Skip `<…>` generic parameters (a `<` directly after `impl`).
        if self.is_punct(j, "<") {
            j = self.skip_angle(j, end);
        }
        // Scan the header up to `{` or `;`, remembering the last ident
        // before a `<`/`{` both before and after a potential `for`.
        let mut ty_before_for: Option<String> = None;
        let mut ty_after_for: Option<String> = None;
        let mut after_for = false;
        while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
            if self.is_ident_at(j) {
                let t = self.text(j);
                if t == "for" {
                    after_for = true;
                } else if t == "where" {
                    break;
                } else {
                    let slot = if after_for {
                        &mut ty_after_for
                    } else {
                        &mut ty_before_for
                    };
                    *slot = Some(t.to_string());
                }
                j += 1;
            } else if self.is_punct(j, "<") {
                j = self.skip_angle(j, end);
            } else {
                j += 1;
            }
        }
        // Advance to the body brace (skipping a `where` clause).
        while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
            j += 1;
        }
        let ty = ty_after_for.or(ty_before_for);
        if self.is_punct(j, "{") {
            let close = self.skip_balanced(j, "{", "}", end);
            self.parse_items(
                j + 1,
                close.saturating_sub(1),
                module,
                ty.as_deref(),
                depth + 1,
            );
            close
        } else {
            j + 1
        }
    }

    /// Skip `<…>` starting at the `<` token. `->` never confuses the
    /// count because its `>` is preceded by `-` and we only ever enter
    /// from a real `<`; shift operators lex as two single `>`/`<`
    /// puncts and are balanced in type position.
    fn skip_angle(&self, i: usize, end: usize) -> usize {
        let mut depth = 1i64;
        let mut j = i + 1;
        while j < end && depth > 0 {
            if self.is_punct(j, "<") {
                depth += 1;
            } else if self.is_punct(j, ">") && !self.is_punct(j.wrapping_sub(1), "-") {
                depth -= 1;
            } else if self.is_punct(j, "(") {
                // Parenthesized types/exprs inside generics.
                j = self.skip_balanced(j, "(", ")", end);
                continue;
            }
            j += 1;
        }
        j
    }

    /// Parse a `use` tree starting after the `use` keyword. Returns the
    /// index one past the terminating `;`.
    fn parse_use(&mut self, i: usize, end: usize) -> usize {
        let mut prefix: Vec<String> = Vec::new();
        let j = self.parse_use_tree(i, end, &mut prefix);
        // Consume through `;` if present.
        let mut k = j;
        while k < end && !self.is_punct(k, ";") {
            k += 1;
        }
        k + 1
    }

    /// One use-tree level: `a::b::leaf`, `a::{x, y}`, `a as b`, `*`.
    /// Appends resolved decls to the model; returns index after tree.
    fn parse_use_tree(&mut self, mut i: usize, end: usize, prefix: &mut Vec<String>) -> usize {
        let depth0 = prefix.len();
        loop {
            if i >= end || self.is_punct(i, ";") {
                break;
            }
            if self.is_ident_at(i) {
                let seg = self.text(i).to_string();
                if seg == "as" && self.is_ident_at(i + 1) {
                    // Alias: leaf name is the alias, path is the prefix.
                    let alias = self.text(i + 1).to_string();
                    self.push_use(alias, prefix.clone());
                    prefix.truncate(depth0);
                    i += 2;
                    // Whatever follows (`,`/`}`/`;`) is the caller's.
                    break;
                }
                prefix.push(seg);
                i += 1;
                if self.is_path_sep(i) {
                    i += 2;
                    continue;
                }
                // Leaf reached (unless an `as` follows, handled above).
                if self.is_ident_at(i) && self.text(i) == "as" {
                    continue;
                }
                let leaf = prefix.last().cloned().unwrap_or_default();
                self.push_use(leaf, prefix.clone());
                prefix.truncate(depth0);
                break;
            }
            if self.is_punct(i, "{") {
                // Group: parse comma-separated subtrees, each seeing
                // the path built *up to the group* as its prefix.
                let close = self.skip_balanced(i, "{", "}", end);
                let keep = prefix.len();
                let mut k = i + 1;
                while k < close.saturating_sub(1) {
                    if self.is_punct(k, ",") {
                        k += 1;
                        continue;
                    }
                    let before = k;
                    k = self.parse_use_tree(k, close.saturating_sub(1), prefix);
                    prefix.truncate(keep);
                    if k <= before {
                        k = before + 1;
                    }
                }
                i = close;
                break;
            }
            if self.is_punct(i, "*") {
                self.push_use("*".to_string(), prefix.clone());
                i += 1;
                break;
            }
            i += 1;
        }
        prefix.truncate(depth0);
        i
    }

    fn push_use(&mut self, leaf: String, segments: Vec<String>) {
        if segments.is_empty() || leaf.is_empty() {
            return;
        }
        self.model.uses.push(UseDecl { leaf, segments });
    }

    /// Parse `fn name …` at `i` (the `fn` token). Records the item and
    /// scans the body. Returns the index after the item.
    fn parse_fn(
        &mut self,
        i: usize,
        end: usize,
        module: &mut Vec<String>,
        impl_ty: Option<&str>,
        depth: u32,
    ) -> usize {
        let name_idx = i + 1;
        let name_tok = &self.tokens[name_idx];
        // Find the body `{` (or `;` for a bodyless trait fn).
        let mut j = name_idx + 1;
        while j < end && !self.is_punct(j, "{") && !self.is_punct(j, ";") {
            j += 1;
        }
        let info = FnInfo {
            name: name_tok.text(self.src).to_string(),
            impl_ty: impl_ty.map(str::to_string),
            takes_self: self.opens_with_self(name_idx + 1, j),
            module: module.clone(),
            line: name_tok.line,
            col: name_tok.col,
            in_test: self.masked(name_idx),
            facts: Vec::new(),
            calls: Vec::new(),
            locks: Vec::new(),
        };
        if !self.is_punct(j, "{") {
            self.model.fns.push(info);
            return j + 1;
        }
        let close = self.skip_balanced(j, "{", "}", end);
        let fn_slot = self.model.fns.len();
        self.model.fns.push(info);
        self.scan_body(
            j + 1,
            close.saturating_sub(1),
            fn_slot,
            module,
            impl_ty,
            depth,
        );
        close
    }

    /// Does a `(` in the signature `[i, end)` open with a `self`
    /// receiver: `self`, `mut self`, `&self`, `&'a mut self` or
    /// `self: Box<Self>`? A `self::` path is not a receiver.
    fn opens_with_self(&self, i: usize, end: usize) -> bool {
        (i..end).any(|open| {
            if !self.is_punct(open, "(") {
                return false;
            }
            let mut k = open + 1;
            if self.is_punct(k, "&") {
                k += 1;
            }
            if self.kind(k) == Some(TokenKind::Lifetime) {
                k += 1;
            }
            if self.text(k) == "mut" {
                k += 1;
            }
            self.is_ident_at(k) && self.text(k) == "self" && !self.is_path_sep(k + 1)
        })
    }

    /// Scan a function body `[i, end)` for facts, calls, locks, pool
    /// sites, and nested items.
    fn scan_body(
        &mut self,
        mut i: usize,
        end: usize,
        fn_slot: usize,
        module: &mut Vec<String>,
        impl_ty: Option<&str>,
        depth: u32,
    ) {
        // Pool-site argument spans currently open: (end_index, site_slot).
        let mut open_sites: Vec<(usize, usize)> = Vec::new();
        // Open `{}` blocks: the lock indexes acquired in each, so a
        // closing brace can stamp their guards' lexical lifetime.
        let mut blocks: Vec<Vec<usize>> = Vec::new();
        while i < end {
            open_sites.retain(|&(site_end, _)| i < site_end);
            if self.is_punct(i, "#") && self.is_punct(i + 1, "[") {
                i = self.skip_balanced(i + 1, "[", "]", end);
                continue;
            }
            if self.is_punct(i, "{") {
                blocks.push(Vec::new());
                i += 1;
                continue;
            }
            if self.is_punct(i, "}") {
                if let Some(closed) = blocks.pop() {
                    for li in closed {
                        self.model.fns[fn_slot].locks[li].held_until = self.order;
                    }
                }
                i += 1;
                continue;
            }
            if !self.is_ident_at(i) {
                i += 1;
                continue;
            }
            let t = self.text(i);
            // Nested items: parse as their own functions, skip range.
            if t == "fn" && self.is_ident_at(i + 1) && depth < MAX_NEST {
                i = self.parse_fn(i, end, module, impl_ty, depth + 1);
                continue;
            }
            if self.masked(i) {
                i += 1;
                continue;
            }
            // Pool-scheduling call site?
            if PAR_ENTRY_POINTS.contains(&t)
                && self.is_punct(i.wrapping_sub(1), ".")
                && self.is_punct(i + 1, "(")
                && self.receiver_is_pool(i)
            {
                let arg_end = self.skip_balanced(i + 1, "(", ")", end);
                let site_slot = self.model.pool_sites.len();
                self.model.pool_sites.push(PoolSite {
                    method: t.to_string(),
                    line: self.tokens[i].line,
                    col: self.tokens[i].col,
                    in_test: self.masked(i),
                    facts: Vec::new(),
                    calls: Vec::new(),
                });
                open_sites.push((arg_end, site_slot));
                i += 2; // step into the argument span
                continue;
            }
            let site_slots: Vec<usize> = open_sites.iter().map(|&(_, s)| s).collect();
            // Facts.
            for hit in self.facts_at(i) {
                for &s in &site_slots {
                    self.model.pool_sites[s].facts.push(hit.clone());
                }
                self.model.fns[fn_slot].facts.push(hit);
            }
            // Locks (also consume the serve-style free `lock(&x)` form
            // so it does not double as a call).
            if let Some((acq, next)) = self.lock_at(i, end) {
                let li = self.model.fns[fn_slot].locks.len();
                self.model.fns[fn_slot].locks.push(acq);
                if let Some(block) = blocks.last_mut() {
                    block.push(li);
                }
                i = next;
                continue;
            }
            // Calls.
            if let Some(call) = self.call_at(i) {
                for &s in &site_slots {
                    self.model.pool_sites[s].calls.push(call.clone());
                }
                self.model.fns[fn_slot].calls.push(call);
            }
            i += 1;
        }
    }

    /// Shared with the D004 token rule: is the receiver of the call at
    /// `i` pool-ish (the `Pool` type or an ident containing "pool"
    /// within the previous few tokens)?
    fn receiver_is_pool(&self, i: usize) -> bool {
        (i.saturating_sub(8)..i).any(|j| {
            let t = self.text(j);
            self.kind(j) == Some(TokenKind::Ident)
                && (t == "Pool" || t.to_lowercase().contains("pool"))
        })
    }

    /// All facts whose *first* token is at `i`.
    fn facts_at(&self, i: usize) -> Vec<FactHit> {
        let mut out = Vec::new();
        let t = self.text(i);
        let line = self.line(i);
        let hit = |kind: FactKind, what: &str| FactHit {
            kind,
            line,
            what: what.to_string(),
        };
        match t {
            "Instant" | "Utc" | "Local" if self.is_path_sep(i + 1) && self.text(i + 3) == "now" => {
                out.push(hit(FactKind::WallClock, &format!("{t}::now()")));
            }
            "SystemTime" => out.push(hit(FactKind::WallClock, "SystemTime")),
            "thread_rng" | "from_entropy" => {
                out.push(hit(FactKind::Entropy, t));
            }
            "RandomState" => out.push(hit(FactKind::Entropy, "RandomState")),
            "HashMap" | "HashSet" => out.push(hit(FactKind::DefaultHasher, t)),
            "unwrap" | "expect"
                if (self.is_punct(i.wrapping_sub(1), ".")
                    || (i >= 2 && self.is_path_sep(i - 2)))
                    && self.is_punct(i + 1, "(") =>
            {
                out.push(hit(FactKind::Panics, &format!(".{t}()")));
            }
            "panic" if self.is_punct(i + 1, "!") => {
                out.push(hit(FactKind::Panics, "panic!"));
            }
            "sum" | "product"
                if self.is_punct(i.wrapping_sub(1), ".")
                    && self.is_path_sep(i + 1)
                    && self.is_punct(i + 3, "<")
                    && matches!(self.text(i + 4), "f32" | "f64") =>
            {
                out.push(hit(
                    FactKind::FloatReduction,
                    &format!(".{t}::<{}>()", self.text(i + 4)),
                ));
            }
            "fold"
                if self.is_punct(i.wrapping_sub(1), ".")
                    && self.is_punct(i + 1, "(")
                    && self.is_float_literal(i + 2) =>
            {
                out.push(hit(FactKind::FloatReduction, ".fold(<float>, …)"));
            }
            "vec" if self.is_punct(i + 1, "!") => out.push(hit(FactKind::Alloc, "vec!")),
            "format" if self.is_punct(i + 1, "!") => out.push(hit(FactKind::Alloc, "format!")),
            "with_capacity" if i >= 2 && self.is_path_sep(i - 2) => {
                out.push(hit(FactKind::Alloc, "::with_capacity"));
            }
            "new" | "from"
                if i >= 3
                    && self.is_path_sep(i - 2)
                    && matches!(self.text(i - 3), "Box" | "String")
                    && !(t == "new" && self.text(i - 3) == "String") =>
            {
                // `String::new` does not allocate; `Box::new` and
                // `String::from` do.
                out.push(hit(FactKind::Alloc, &format!("{}::{t}", self.text(i - 3))));
            }
            "to_vec" | "to_string" | "to_owned" | "collect"
                if self.is_punct(i.wrapping_sub(1), ".") =>
            {
                out.push(hit(FactKind::Alloc, &format!(".{t}()")));
            }
            _ => {}
        }
        out
    }

    fn is_float_literal(&self, i: usize) -> bool {
        let t = self.text(i);
        self.kind(i) == Some(TokenKind::Number)
            && (t.contains('.') || t.ends_with("f32") || t.ends_with("f64"))
    }

    /// A lock acquisition starting at `i`: `.lock()`, empty-arg
    /// `.read()`/`.write()`, or the free-helper form `lock(&recv)`.
    /// Returns the acquisition and the index to resume scanning at.
    fn lock_at(&mut self, i: usize, end: usize) -> Option<(LockAcq, usize)> {
        let t = self.text(i);
        let line = self.line(i);
        if matches!(t, "lock" | "read" | "write")
            && self.is_punct(i.wrapping_sub(1), ".")
            && self.is_punct(i + 1, "(")
            && self.is_punct(i + 2, ")")
        {
            let receiver = self.receiver_before(i.wrapping_sub(1))?;
            self.order += 1;
            return Some((
                LockAcq {
                    receiver,
                    line,
                    order: self.order,
                    held_until: u32::MAX,
                },
                i + 3,
            ));
        }
        if t == "lock"
            && !self.is_punct(i.wrapping_sub(1), ".")
            && !(i >= 2 && self.is_path_sep(i - 2))
            && self.is_punct(i + 1, "(")
            && !self.is_punct(i + 2, ")")
        {
            // serve-style `lock(&self.inner)`: receiver is the last
            // ident in the argument span outside index brackets
            // (`lock(&tenants[i])` → `tenants`, not `i`).
            let close = self.skip_balanced(i + 1, "(", ")", end);
            let mut receiver = None;
            let mut j = close.saturating_sub(1);
            while j > i + 1 {
                j -= 1;
                if self.is_punct(j, "]") {
                    let mut depth = 1u32;
                    while j > i + 1 && depth > 0 {
                        j -= 1;
                        if self.is_punct(j, "]") {
                            depth += 1;
                        } else if self.is_punct(j, "[") {
                            depth -= 1;
                        }
                    }
                    continue;
                }
                if self.is_ident_at(j) && self.text(j) != "self" {
                    receiver = Some(self.text(j).to_string());
                    break;
                }
            }
            self.order += 1;
            return Some((
                LockAcq {
                    receiver: receiver?,
                    line,
                    order: self.order,
                    held_until: u32::MAX,
                },
                close,
            ));
        }
        None
    }

    /// The receiver name of a method call whose `.` is at `dot`:
    /// the nearest preceding non-`self` ident, skipping index
    /// expressions (`self.shards[s].lock()` → `shards`). Stdio locks
    /// (`stdin`/`stdout`/`stderr`) are not locks of interest.
    fn receiver_before(&self, dot: usize) -> Option<String> {
        let mut j = dot;
        let mut steps = 0;
        while j > 0 && steps < 16 {
            j -= 1;
            steps += 1;
            if self.is_punct(j, "]") {
                // Walk back over the index expression.
                let mut depth = 1u32;
                while j > 0 && depth > 0 {
                    j -= 1;
                    if self.is_punct(j, "]") {
                        depth += 1;
                    } else if self.is_punct(j, "[") {
                        depth -= 1;
                    }
                }
                continue;
            }
            if self.is_ident_at(j) {
                let t = self.text(j);
                if t == "self" {
                    continue;
                }
                if matches!(t, "stdin" | "stdout" | "stderr") {
                    return None;
                }
                return Some(t.to_string());
            }
            if !self.is_punct(j, ".") && !self.is_punct(j, ")") && !self.is_punct(j, "(") {
                return None;
            }
        }
        None
    }

    /// A call reference at `i`: `name(`, `a::b::name(`, or `.name(`.
    fn call_at(&mut self, i: usize) -> Option<CallRef> {
        if !self.is_punct(i + 1, "(") {
            return None;
        }
        let name = self.text(i);
        if is_keyword(name) {
            return None;
        }
        let line = self.line(i);
        if self.is_punct(i.wrapping_sub(1), ".") {
            self.order += 1;
            return Some(CallRef {
                segments: vec![name.to_string()],
                method: true,
                line,
                order: self.order,
            });
        }
        // Macro invocation (`name!(`) — handled as facts, not calls.
        if self.is_punct(i.wrapping_sub(1), "!") {
            return None;
        }
        // Walk back over a `::`-path.
        let mut segments = vec![name.to_string()];
        let mut j = i;
        while j >= 2 && self.is_path_sep(j - 2) && j >= 3 && self.is_ident_at(j - 3) {
            segments.insert(0, self.text(j - 3).to_string());
            j -= 3;
        }
        self.order += 1;
        Some(CallRef {
            segments,
            method: false,
            line,
            order: self.order,
        })
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "match"
            | "for"
            | "loop"
            | "return"
            | "fn"
            | "let"
            | "mut"
            | "as"
            | "in"
            | "move"
            | "ref"
            | "else"
            | "break"
            | "continue"
            | "where"
            | "impl"
            | "dyn"
            | "use"
            | "pub"
            | "crate"
            | "super"
            | "mod"
            | "unsafe"
            | "await"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_region_mask;
    use crate::lexer::lex;

    fn parse(path: &str, src: &str) -> FileModel {
        let all = lex(src);
        let mask = test_region_mask(src, &all);
        let mut tokens = Vec::new();
        let mut in_test = Vec::new();
        for (t, m) in all.into_iter().zip(mask) {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                tokens.push(t);
                in_test.push(m);
            }
        }
        parse_file(path, src, &tokens, &in_test)
    }

    #[test]
    fn free_fns_and_methods_with_modules() {
        let src =
            "fn top() {}\nmod inner {\n    impl Widget {\n        fn method(&self) {}\n    }\n}\n";
        let m = parse("crates/core/src/x.rs", src);
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].name, "top");
        assert!(m.fns[0].impl_ty.is_none());
        assert_eq!(m.fns[1].name, "method");
        assert_eq!(m.fns[1].impl_ty.as_deref(), Some("Widget"));
        assert_eq!(m.fns[1].module, vec!["inner".to_string()]);
        assert_eq!(m.fns[1].line, 4);
    }

    #[test]
    fn impl_trait_for_type_takes_the_type() {
        let src = "impl<T> Display for Wrapper<T> {\n    fn fmt(&self) {}\n}\n";
        let m = parse("crates/core/src/x.rs", src);
        assert_eq!(m.fns[0].impl_ty.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn use_groups_aliases_and_globs() {
        let src = "use a::b::{c, d as e, f::g};\nuse h::*;\nuse std::fmt;\n";
        let m = parse("crates/core/src/x.rs", src);
        let decls: Vec<(String, Vec<String>)> = m
            .uses
            .iter()
            .map(|u| (u.leaf.clone(), u.segments.clone()))
            .collect();
        assert!(decls.contains(&("c".into(), vec!["a".into(), "b".into(), "c".into()])));
        assert!(decls.contains(&("e".into(), vec!["a".into(), "b".into(), "d".into()])));
        assert!(decls.contains(&(
            "g".into(),
            vec!["a".into(), "b".into(), "f".into(), "g".into()]
        )));
        assert!(decls.contains(&("*".into(), vec!["h".into()])));
        assert!(decls.contains(&("fmt".into(), vec!["std".into(), "fmt".into()])));
    }

    #[test]
    fn calls_and_facts_in_bodies() {
        let src = "fn f() {\n    helper();\n    a::b::g(1);\n    x.method_call(2);\n    let t = Instant::now();\n    y.unwrap();\n}\n";
        let m = parse("crates/core/src/x.rs", src);
        let f = &m.fns[0];
        let names: Vec<String> = f.calls.iter().map(|c| c.segments.join("::")).collect();
        assert!(names.contains(&"helper".to_string()));
        assert!(names.contains(&"a::b::g".to_string()));
        assert!(names.contains(&"method_call".to_string()));
        assert!(f
            .calls
            .iter()
            .any(|c| c.method && c.segments == ["method_call"]));
        let kinds: Vec<FactKind> = f.facts.iter().map(|h| h.kind).collect();
        assert!(kinds.contains(&FactKind::WallClock));
        assert!(kinds.contains(&FactKind::Panics));
    }

    #[test]
    fn pool_sites_capture_their_argument_span_only() {
        let src = "fn f(pool: &Pool) {\n    before();\n    pool.run_jobs(8, |i| inner(i));\n    after();\n}\n";
        let m = parse("crates/core/src/x.rs", src);
        assert_eq!(m.pool_sites.len(), 1);
        let site = &m.pool_sites[0];
        assert_eq!(site.method, "run_jobs");
        let names: Vec<String> = site.calls.iter().map(|c| c.segments.join("::")).collect();
        assert_eq!(names, vec!["inner".to_string()]);
        // The enclosing fn still sees all three calls.
        assert_eq!(m.fns[0].calls.len(), 3);
    }

    #[test]
    fn locks_record_receivers_in_order() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n    lock(&self.gamma);\n    stdout().lock();\n    file.read(&mut buf);\n}\n";
        let m = parse("crates/core/src/x.rs", src);
        let receivers: Vec<&str> = m.fns[0].locks.iter().map(|l| l.receiver.as_str()).collect();
        assert_eq!(receivers, vec!["alpha", "beta", "gamma"]);
        assert!(m.fns[0].locks[0].order < m.fns[0].locks[1].order);
    }

    #[test]
    fn indexed_receiver_resolves_to_the_container() {
        let src = "fn f(&self) { self.shards[s].lock(); }\n";
        let m = parse("crates/core/src/x.rs", src);
        assert_eq!(m.fns[0].locks[0].receiver, "shards");
    }

    #[test]
    fn nested_fns_split_out_of_the_outer_body() {
        let src = "fn outer() {\n    fn inner() { x.unwrap(); }\n    clean();\n}\n";
        let m = parse("crates/core/src/x.rs", src);
        assert_eq!(m.fns.len(), 2);
        let outer = m.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = m.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.facts.is_empty(), "{:?}", outer.facts);
        assert_eq!(inner.facts.len(), 1);
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn prod() {}\n";
        let m = parse("crates/core/src/x.rs", src);
        assert!(m.fns.iter().find(|f| f.name == "t").unwrap().in_test);
        assert!(!m.fns.iter().find(|f| f.name == "prod").unwrap().in_test);
    }

    #[test]
    fn alloc_facts_match_the_documented_set() {
        let src = "fn f() {\n    let v = vec![1];\n    let s = format!(\"x\");\n    let b = Box::new(1);\n    let w = Vec::with_capacity(4);\n    let t = x.to_string();\n    let n = String::new();\n    let c = xs.iter().collect();\n}\n";
        let m = parse("crates/core/src/x.rs", src);
        let whats: Vec<&str> = m.fns[0].facts.iter().map(|h| h.what.as_str()).collect();
        assert!(whats.contains(&"vec!"));
        assert!(whats.contains(&"format!"));
        assert!(whats.contains(&"Box::new"));
        assert!(whats.contains(&"::with_capacity"));
        assert!(whats.contains(&".to_string()"));
        assert!(whats.contains(&".collect()"));
        assert!(!whats.contains(&"String::new"), "{whats:?}");
    }

    #[test]
    fn bodyless_trait_fns_parse_without_bodies() {
        let src = "trait T {\n    fn required(&self);\n    fn provided(&self) { helper(); }\n}\n";
        let m = parse("crates/core/src/x.rs", src);
        assert_eq!(m.fns.len(), 2);
        assert_eq!(m.fns[0].calls.len(), 0);
        assert_eq!(m.fns[1].calls.len(), 1);
        assert_eq!(m.fns[1].impl_ty.as_deref(), Some("T"));
    }
}
