//! L8 — interprocedural wire-taint dataflow.
//!
//! **L8 (wire-taint)** answers one question statically: can a length that an
//! attacker controls — a value read straight off the wire by one of the
//! binary parsers — reach an allocation sink (`with_capacity`, `reserve`,
//! `vec![x; n]`, a slice-range bound) without first being compared against a
//! named `MAX_*` guard constant? The runtime defense (the guard-then-allocate
//! pattern in `mdf.rs`/`dxt.rs`/`view.rs`) only works if *every* path from a
//! `get_u32_le`-style read to an allocation goes through a guard; this pass
//! proves that over the same workspace call graph L5 uses, and prints the
//! full taint path in every diagnostic so the finding is self-explaining.
//!
//! The analysis is a flow-sensitive abstract interpretation over the token
//! stream of each function body, plus an interprocedural fixpoint of small
//! per-function summaries:
//!
//! * **Sources** — calls to wire-read helpers (`get_u32`, `get_u32_le`,
//!   `le_u32`, cursor methods `u16`/`u32`/`u64`/…) inside the parser files.
//!   Sources are seeded by *name*, scoped to the parser files, so helpers
//!   the item parser cannot see (macro-generated getters) still count.
//! * **Propagation** — through `let` bindings, assignments, arithmetic,
//!   field/`?`/method chains, and across calls via summaries: a callee can
//!   *return* wire taint, *pass through* a parameter, or *sink* a parameter.
//! * **Sanitizers** — a comparison against a `MAX_*` constant. An
//!   exceed-direction guard with a diverging body (`if n > MAX_X { return
//!   Err(..) }`) cleanses the variable from the guard to the end of the
//!   enclosing scope; a within-direction guard (`if n <= MAX_X { .. }`)
//!   cleanses only inside its body. `.min(MAX_X)`/`.clamp(..)` against a
//!   constant also launders, because the result is bounded by construction.
//! * **Sinks** — `with_capacity`/`reserve`/`reserve_exact` arguments,
//!   `vec![elem; n]` lengths, and slice-range bounds.
//!
//! Known approximations (all of which err toward *under*-reporting noise,
//! not false alarms, and are covered by fixtures): match-arm pattern
//! bindings and closure parameters are not tracked, and a guard inside an
//! expression-position `if` only sanitizes to the end of that expression.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::CallGraph;
use crate::lex::{Lexed, Tok};
use crate::parse::CallSite;

/// Free functions (or method names) that read a scalar off the wire.
const WIRE_FREE_FNS: &[&str] = &[
    "get_u8",
    "get_u16",
    "get_u32",
    "get_i32",
    "get_u64",
    "get_i64",
    "get_f64",
    "get_u16_le",
    "get_u32_le",
    "get_i32_le",
    "get_u64_le",
    "get_i64_le",
    "get_f64_le",
    "le_u8",
    "le_u16",
    "le_u32",
    "le_i32",
    "le_u64",
    "le_i64",
    "le_f64",
];

/// Method-position-only sources: the borrowed-view cursor reads
/// (`cur.u32("context")?`). Bare names are too common to seed in free-fn
/// position.
const WIRE_METHODS: &[&str] = &["u8", "u16", "u32", "i32", "u64", "i64", "f64"];

/// Allocation sinks: any tainted argument is a finding.
const SINK_FNS: &[&str] = &["with_capacity", "reserve", "reserve_exact"];

/// Methods whose result is never attacker-sized regardless of the receiver.
const CLEAN_METHODS: &[&str] = &["len", "is_empty", "remaining", "capacity", "count"];

/// Methods that bound their receiver by their argument: the result is only
/// as tainted as the *arguments* (`n.min(MAX_ACCESSES)` is clean).
const CLAMP_METHODS: &[&str] = &["min", "clamp"];

/// `true` for files whose wire-read names are taint sources. Matching is by
/// basename so the fixtures can exercise the pass without living in
/// `crates/darshan`.
fn is_wire_file(rel: &str) -> bool {
    matches!(rel.rsplit('/').next(), Some("mdf.rs" | "dxt.rs" | "view.rs"))
}

/// `true` for a named bomb-guard constant (`MAX_RECORDS`, `limits::MAX_…`).
fn is_guard_const(name: &str) -> bool {
    name.len() > 4
        && name.starts_with("MAX_")
        && name.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// `true` for an identifier that can be a local variable.
fn is_var(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        && !matches!(
            name,
            "if" | "let"
                | "else"
                | "while"
                | "for"
                | "match"
                | "return"
                | "in"
                | "as"
                | "mut"
                | "ref"
                | "fn"
                | "self"
        )
}

/// One L8 diagnostic, pre-`Finding` (the rule is attached in `rules.rs`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct TaintFinding {
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line.
    pub line: u32,
    /// Full message including the taint path.
    pub message: String,
}

/// The abstract value of one expression: clean, wire-derived (with the
/// provenance chain from the read to here), and/or derived from the enclosing
/// function's parameters (chain per parameter index).
#[derive(Debug, Clone, Default)]
struct Taint {
    wire: Option<Vec<String>>,
    params: BTreeMap<usize, Vec<String>>,
}

impl Taint {
    fn union(mut self, other: Taint) -> Taint {
        if self.wire.is_none() {
            self.wire = other.wire;
        }
        for (k, v) in other.params {
            self.params.entry(k).or_insert(v);
        }
        self
    }
}

/// Interprocedural summary of one function, grown monotonically to fixpoint.
#[derive(Debug, Clone, Default)]
struct Summary {
    /// The function can return a wire-derived value (chain: source → return).
    returns_wire: Option<Vec<String>>,
    /// Parameters the return value can be derived from.
    returns_params: BTreeSet<usize>,
    /// Parameters that can reach an allocation sink inside the callee
    /// (chain: parameter → sink), with no dominating guard on that path.
    sink_params: BTreeMap<usize, Vec<String>>,
}

/// Merge `from` into `into`; `true` if anything grew.
fn merge_summary(into: &mut Summary, from: &Summary) -> bool {
    let mut changed = false;
    if into.returns_wire.is_none() && from.returns_wire.is_some() {
        into.returns_wire = from.returns_wire.clone();
        changed = true;
    }
    for p in &from.returns_params {
        changed |= into.returns_params.insert(*p);
    }
    for (p, chain) in &from.sink_params {
        if !into.sink_params.contains_key(p) {
            into.sink_params.insert(*p, chain.clone());
            changed = true;
        }
    }
    changed
}

/// Run the L8 pass over a call graph. `lexed` maps each node's `rel` to its
/// token stream (nodes without an entry are skipped).
pub(crate) fn check_wire_taint(
    graph: &CallGraph<'_>,
    lexed: &BTreeMap<&str, &Lexed>,
) -> Vec<TaintFinding> {
    let n = graph.nodes.len();
    let mut summaries = vec![Summary::default(); n];
    // Summaries grow monotonically, so the fixpoint terminates; the bound is
    // a backstop for pathological call chains, far above the real depth.
    for _round in 0..16 {
        let mut changed = false;
        let mut next = summaries.clone();
        for (idx, slot) in next.iter_mut().enumerate() {
            let node = &graph.nodes[idx];
            if node.f.is_test || node.f.body.is_none() {
                continue;
            }
            let Some(lx) = lexed.get(node.rel) else { continue };
            let (s, _) = analyze_fn(graph, idx, lx, &summaries, false);
            changed |= merge_summary(slot, &s);
        }
        summaries = next;
        if !changed {
            break;
        }
    }
    // Reporting pass: same walk, with local wire-to-sink flows emitted.
    let mut out = Vec::new();
    for idx in 0..n {
        let node = &graph.nodes[idx];
        if node.f.is_test || node.f.body.is_none() {
            continue;
        }
        let Some(lx) = lexed.get(node.rel) else { continue };
        let (_, findings) = analyze_fn(graph, idx, lx, &summaries, true);
        out.extend(findings);
    }
    out.sort();
    out.dedup();
    out
}

/// Analyze one function body; returns its summary and (in emit mode) the
/// findings anchored inside it.
fn analyze_fn(
    graph: &CallGraph<'_>,
    node: usize,
    lexed: &Lexed,
    summaries: &[Summary],
    emit: bool,
) -> (Summary, Vec<TaintFinding>) {
    let nref = &graph.nodes[node];
    let f = nref.f;
    let Some((bstart, bend)) = f.body else {
        return (Summary::default(), Vec::new());
    };
    let mut w = Walker {
        lexed,
        rel: nref.rel,
        node,
        graph,
        summaries,
        my: Summary::default(),
        vars: BTreeMap::new(),
        sanitized: Vec::new(),
        findings: Vec::new(),
        emit: false,
        wire_file: is_wire_file(nref.rel),
    };
    let label = nref.label();
    for (i, p) in param_names(lexed, &f.name, bstart).into_iter().enumerate() {
        let chain = vec![format!("{}:{} parameter `{p}` of `{label}`", nref.rel, f.line)];
        w.vars.insert(p, Taint { wire: None, params: std::iter::once((i, chain)).collect() });
    }
    // Two passes so taint carried across a loop back-edge (assigned late in
    // the body, used early in the next iteration) is observed; findings are
    // emitted only on the final pass.
    for pass in 0..2 {
        w.emit = emit && pass == 1;
        let trailing = w.scan_stmts(bstart, bend);
        w.record_return(&trailing);
    }
    (w.my, w.findings)
}

/// Extract parameter names from the signature preceding `body_start`,
/// skipping `self` and `_`-prefixed bindings. Indices line up with
/// positional (non-receiver) arguments at call sites.
fn param_names(lexed: &Lexed, fn_name: &str, body_start: usize) -> Vec<String> {
    let toks = &lexed.tokens;
    let mut fi = None;
    let mut i = body_start.min(toks.len());
    while i > 0 {
        i -= 1;
        if lexed.ident(i) == Some("fn") && lexed.ident(i + 1) == Some(fn_name) {
            fi = Some(i);
            break;
        }
    }
    let Some(fi) = fi else { return Vec::new() };
    // Skip generics between the name and the parameter list.
    let mut j = fi + 2;
    let mut angle = 0i32;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct('(') if angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    let mut out = Vec::new();
    let mut depth = 0i32;
    while j < toks.len() && j < body_start {
        if lexed.is_punct(j, '(') {
            depth += 1;
        } else if lexed.is_punct(j, ')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if let Some(name) = lexed.ident(j) {
            // A parameter name is an ident directly followed by a single `:`
            // (not `::`), not itself part of a path.
            if depth >= 1
                && !matches!(name, "self" | "mut" | "ref")
                && !name.starts_with('_')
                && lexed.is_punct(j + 1, ':')
                && !lexed.is_punct(j + 2, ':')
                && !lexed.is_punct(j.wrapping_sub(1), ':')
            {
                out.push(name.to_owned());
            }
        }
        j += 1;
    }
    out
}

/// The per-function abstract interpreter.
struct Walker<'a, 'g> {
    lexed: &'a Lexed,
    rel: &'a str,
    node: usize,
    graph: &'g CallGraph<'a>,
    summaries: &'g [Summary],
    my: Summary,
    vars: BTreeMap<String, Taint>,
    /// `(name, from_token, to_token)` ranges where a variable is guard-clean.
    sanitized: Vec<(String, usize, usize)>,
    findings: Vec<TaintFinding>,
    emit: bool,
    wire_file: bool,
}

impl Walker<'_, '_> {
    fn id(&self, i: usize) -> Option<&str> {
        self.lexed.ident(i)
    }

    fn p(&self, i: usize, c: char) -> bool {
        self.lexed.is_punct(i, c)
    }

    fn line(&self, i: usize) -> u32 {
        self.lexed.tokens.get(i).map_or(0, |t| t.line)
    }

    /// Index of the token matching the opener at `open` (`{}`/`()`/`[]`).
    fn matching(&self, open: usize, end: usize, oc: char, cc: char) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            if self.p(i, oc) {
                depth += 1;
            } else if self.p(i, cc) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        end.saturating_sub(1)
    }

    fn match_brace(&self, open: usize, end: usize) -> usize {
        self.matching(open, end, '{', '}')
    }

    /// Current abstract value of `name` at token position `at`.
    fn lookup(&self, name: &str, at: usize) -> Taint {
        if self.sanitized.iter().any(|(n, a, b)| n == name && at >= *a && at <= *b) {
            return Taint::default();
        }
        self.vars.get(name).cloned().unwrap_or_default()
    }

    /// Bind `name` at token `at`. A rebind invalidates any sanitize range
    /// still covering the binding point — the old proof no longer applies to
    /// the new value.
    fn bind(&mut self, name: &str, at: usize, mut t: Taint, line: u32) {
        self.sanitized.retain(|(n, a, b)| !(n == name && *a <= at && at <= *b));
        if let Some(chain) = &mut t.wire {
            chain.push(format!("{}:{line} `let {name}`", self.rel));
        }
        self.vars.insert(name.to_owned(), t);
    }

    /// Record a tainted value reaching an allocation sink.
    fn sink(&mut self, line: u32, sink_label: &str, t: &Taint) {
        if self.emit {
            if let Some(chain) = &t.wire {
                let mut full = chain.clone();
                full.push(format!("{}:{line} sizes `{sink_label}`", self.rel));
                self.findings.push(TaintFinding {
                    rel: self.rel.to_owned(),
                    line,
                    message: format!(
                        "`{sink_label}` is sized by a wire-read value with no dominating \
                         `MAX_*` guard on this path; taint path: {}; compare the length \
                         against a named `limits::MAX_*` bound before allocating, or justify \
                         with `lint: allow(taint, \"...\")`",
                        full.join(" -> ")
                    ),
                });
            }
        }
        for (p, chain) in &t.params {
            let mut c = chain.clone();
            c.push(format!("{}:{line} sizes `{sink_label}`", self.rel));
            self.my.sink_params.entry(*p).or_insert(c);
        }
    }

    /// Fold a returned (or trailing-expression) value into the summary.
    fn record_return(&mut self, t: &Taint) {
        if self.my.returns_wire.is_none() {
            if let Some(chain) = &t.wire {
                self.my.returns_wire = Some(chain.clone());
            }
        }
        for p in t.params.keys() {
            self.my.returns_params.insert(*p);
        }
    }

    /// Scan a statement region; returns the trailing-expression taint (the
    /// last expression not terminated by `;`).
    fn scan_stmts(&mut self, start: usize, end: usize) -> Taint {
        let mut i = start;
        let mut trailing = Taint::default();
        while i < end {
            if let Some(name) = self.id(i).map(str::to_owned) {
                match name.as_str() {
                    "fn" => {
                        // Nested fn: its tokens belong to its own node.
                        i = self.skip_fn(i, end);
                        trailing = Taint::default();
                        continue;
                    }
                    "let" => {
                        i = self.handle_let(i, end);
                        trailing = Taint::default();
                        continue;
                    }
                    "if" => {
                        let (t, ni) = self.handle_if(i, end, false);
                        trailing = t;
                        i = ni;
                        continue;
                    }
                    "while" => {
                        let (_, ni) = self.handle_if(i, end, true);
                        trailing = Taint::default();
                        i = ni;
                        continue;
                    }
                    "loop" => {
                        let ob = self.find_body_brace(i + 1, end);
                        let cb = self.match_brace(ob, end);
                        self.scan_loop_body(ob + 1, cb);
                        trailing = Taint::default();
                        i = cb + 1;
                        continue;
                    }
                    "for" => {
                        i = self.handle_for(i, end);
                        trailing = Taint::default();
                        continue;
                    }
                    "match" => {
                        let (t, ni) = self.handle_match(i, end);
                        trailing = t;
                        i = ni;
                        continue;
                    }
                    "return" => {
                        let (t, ni) = self.eval(i + 1, end, &[';']);
                        self.record_return(&t);
                        trailing = Taint::default();
                        i = ni;
                        continue;
                    }
                    "else" | "unsafe" | "async" | "move" => {
                        i += 1;
                        continue;
                    }
                    _ => {
                        // Plain assignment `x = …;` (not `==`, not `=>`).
                        if self.p(i + 1, '=') && !self.p(i + 2, '=') && !self.p(i + 2, '>') {
                            let line = self.line(i);
                            let (t, ni) = self.eval(i + 2, end, &[';']);
                            self.bind(&name, i, t, line);
                            trailing = Taint::default();
                            i = ni;
                            continue;
                        }
                        let (t, ni) = self.eval(i, end, &[';']);
                        trailing = t;
                        i = ni.max(i + 1);
                        continue;
                    }
                }
            }
            if self.p(i, ';') {
                trailing = Taint::default();
                i += 1;
                continue;
            }
            if self.p(i, '{') {
                let cb = self.match_brace(i, end);
                trailing = self.scan_stmts(i + 1, cb);
                i = cb + 1;
                continue;
            }
            if self.p(i, '#') && self.p(i + 1, '[') {
                i = self.matching(i + 1, end, '[', ']') + 1;
                continue;
            }
            i += 1;
        }
        trailing
    }

    /// Scan a loop body twice, so taint assigned late in one iteration is
    /// visible early in the next (the back-edge). Duplicate findings from
    /// the second scan collapse in the final sort+dedup.
    fn scan_loop_body(&mut self, start: usize, end: usize) {
        self.scan_stmts(start, end);
        self.scan_stmts(start, end);
    }

    /// Skip a nested `fn` item starting at the `fn` keyword.
    fn skip_fn(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        let mut paren = 0i32;
        while j < end {
            match self.lexed.tokens.get(j).map(|t| &t.tok) {
                Some(Tok::Punct('(')) => paren += 1,
                Some(Tok::Punct(')')) => paren -= 1,
                Some(Tok::Punct(';')) if paren == 0 => return j + 1,
                Some(Tok::Punct('{')) if paren == 0 => {
                    return self.match_brace(j, end) + 1;
                }
                _ => {}
            }
            j += 1;
        }
        end
    }

    /// First `{` at paren/bracket depth 0 from `start`.
    fn find_body_brace(&self, start: usize, end: usize) -> usize {
        let mut j = start;
        let mut depth = 0i32;
        while j < end {
            if self.p(j, '(') || self.p(j, '[') {
                depth += 1;
            } else if self.p(j, ')') || self.p(j, ']') {
                depth -= 1;
            } else if self.p(j, '{') && depth <= 0 {
                return j;
            }
            j += 1;
        }
        end.saturating_sub(1)
    }

    /// `let PAT (: TYPE)? (= EXPR)? ;` — returns the index past the `;`.
    fn handle_let(&mut self, i: usize, end: usize) -> usize {
        let line = self.line(i);
        let mut j = i + 1;
        let mut binds: Vec<(String, usize)> = Vec::new();
        let mut depth = 0i32;
        let mut in_type = false;
        while j < end {
            if depth == 0 && self.p(j, '=') && !self.p(j + 1, '=') {
                break;
            }
            if depth == 0 && self.p(j, ';') {
                // `let x;` — bindings start clean.
                for (b, pos) in &binds.clone() {
                    self.bind(b, *pos, Taint::default(), line);
                }
                return j + 1;
            }
            if self.p(j, '(') || self.p(j, '[') || self.p(j, '{') {
                depth += 1;
            } else if self.p(j, ')') || self.p(j, ']') || self.p(j, '}') {
                depth -= 1;
            } else if depth == 0
                && self.p(j, ':')
                && !self.p(j + 1, ':')
                && !self.p(j.wrapping_sub(1), ':')
            {
                in_type = true;
            } else if !in_type {
                if let Some(n) = self.id(j) {
                    // `field: pat` in a struct pattern binds `pat`, not the
                    // field label to its left.
                    let field_label = self.p(j + 1, ':') && !self.p(j + 2, ':');
                    if is_var(n) && !matches!(n, "mut" | "ref" | "box") && !field_label {
                        binds.push((n.to_owned(), j));
                    }
                }
            }
            j += 1;
        }
        if j >= end {
            return end;
        }
        let (t, ni) = self.eval(j + 1, end, &[';']);
        for (b, pos) in binds {
            self.bind(&b, pos, t.clone(), line);
        }
        if self.p(ni, ';') {
            ni + 1
        } else {
            ni
        }
    }

    /// `if`/`while` (including `if let`): guard extraction, divergence-aware
    /// sanitization, body + else-chain. Returns (merged branch taint, next).
    /// `is_loop` double-scans the body for back-edge taint.
    fn handle_if(&mut self, i: usize, end: usize, is_loop: bool) -> (Taint, usize) {
        let ob = self.find_body_brace(i + 1, end);
        if !self.p(ob, '{') {
            return (Taint::default(), end);
        }
        let cb = self.match_brace(ob, end);
        if self.id(i + 1) == Some("let") {
            // `if let PAT = EXPR { .. }` — bind pattern vars to the
            // scrutinee's taint; no guard semantics.
            let mut eq = i + 2;
            let mut depth = 0i32;
            while eq < ob {
                if self.p(eq, '(') || self.p(eq, '[') || self.p(eq, '{') {
                    depth += 1;
                } else if self.p(eq, ')') || self.p(eq, ']') || self.p(eq, '}') {
                    depth -= 1;
                } else if depth == 0 && self.p(eq, '=') && !self.p(eq + 1, '=') {
                    break;
                }
                eq += 1;
            }
            let mut binds = Vec::new();
            for k in i + 2..eq {
                if let Some(n) = self.id(k) {
                    if is_var(n) && !matches!(n, "mut" | "ref") {
                        binds.push((n.to_owned(), k));
                    }
                }
            }
            let (t, _) = self.eval(eq + 1, ob, &['{']);
            let line = self.line(i);
            for (b, pos) in binds {
                self.bind(&b, pos, t.clone(), line);
            }
        } else {
            let guards = self.extract_guards(i + 1, ob);
            let diverges = self.region_diverges(ob + 1, cb);
            for (var, exceed) in guards {
                if exceed && diverges {
                    // `if n > MAX { return Err(..) }` — every token after the
                    // guard in the enclosing scope sees a bounded `n`.
                    self.sanitized.push((var, cb, end));
                } else if !exceed {
                    // `if n <= MAX { .. }` — bounded inside the body only.
                    self.sanitized.push((var, ob + 1, cb.saturating_sub(1)));
                }
            }
        }
        if is_loop {
            self.scan_stmts(ob + 1, cb);
        }
        let mut t = self.scan_stmts(ob + 1, cb);
        let mut j = cb + 1;
        if self.id(j) == Some("else") {
            if self.id(j + 1) == Some("if") {
                let (et, nj) = self.handle_if(j + 1, end, false);
                t = t.union(et);
                j = nj;
            } else if self.p(j + 1, '{') {
                let ecb = self.match_brace(j + 1, end);
                let et = self.scan_stmts(j + 2, ecb);
                t = t.union(et);
                j = ecb + 1;
            } else {
                j += 1;
            }
        }
        (t, j)
    }

    /// `var OP MAX_*` / `MAX_* OP var` comparisons in a condition region.
    /// Returns `(variable, exceed_direction)` pairs; exceed means the body
    /// runs when the variable is *too big* (`n > MAX`, `MAX < n`).
    fn extract_guards(&self, start: usize, end: usize) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        for j in start..end {
            let gt = self.p(j, '>');
            let lt = self.p(j, '<');
            if !gt && !lt {
                continue;
            }
            let left = self.id(j.wrapping_sub(1)).map(str::to_owned);
            let r0 = if self.p(j + 1, '=') { j + 2 } else { j + 1 };
            // Walk a `limits::MAX_X` path down to its final segment.
            let mut rk = r0;
            while self.id(rk).is_some()
                && self.p(rk + 1, ':')
                && self.p(rk + 2, ':')
                && self.id(rk + 3).is_some()
            {
                rk += 3;
            }
            let right = self.id(rk).map(str::to_owned);
            match (left, right) {
                (Some(a), Some(b)) if is_var(&a) && is_guard_const(&b) => {
                    out.push((a, gt));
                }
                (Some(a), Some(b)) if is_guard_const(&a) && is_var(&b) => {
                    out.push((b, lt));
                }
                _ => {}
            }
        }
        out
    }

    /// `true` when the region contains a `return`/`break`/`continue` at any
    /// depth — a guard body that never falls through.
    fn region_diverges(&self, start: usize, end: usize) -> bool {
        (start..end).any(|k| matches!(self.id(k), Some("return" | "break" | "continue" | "panic")))
    }

    /// `for PAT in EXPR { .. }` — pattern vars inherit the iterable's taint.
    fn handle_for(&mut self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        let mut binds = Vec::new();
        while j < end && self.id(j) != Some("in") {
            if let Some(n) = self.id(j) {
                if is_var(n) && !matches!(n, "mut" | "ref") {
                    binds.push((n.to_owned(), j));
                }
            }
            j += 1;
        }
        let (t, ob) = self.eval(j + 1, end, &['{']);
        let line = self.line(i);
        for (b, pos) in binds {
            self.bind(&b, pos, t.clone(), line);
        }
        if !self.p(ob, '{') {
            return end;
        }
        let cb = self.match_brace(ob, end);
        self.scan_loop_body(ob + 1, cb);
        cb + 1
    }

    /// `match EXPR { arms }` — the scrutinee is evaluated, arms are scanned
    /// linearly (arm pattern bindings are not tracked; see module docs).
    fn handle_match(&mut self, i: usize, end: usize) -> (Taint, usize) {
        let (_, ob) = self.eval(i + 1, end, &['{']);
        if !self.p(ob, '{') {
            return (Taint::default(), end);
        }
        let cb = self.match_brace(ob, end);
        let t = self.scan_stmts(ob + 1, cb);
        (t, cb + 1)
    }

    /// Evaluate an expression region until a stop punct at depth 0 (or the
    /// region end); returns the union of all value-position taints and the
    /// index of the stopping token.
    fn eval(&mut self, start: usize, end: usize, stops: &[char]) -> (Taint, usize) {
        let header = stops.contains(&'{');
        let mut t = Taint::default();
        let mut i = start;
        let mut depth = 0i32;
        while i < end {
            match self.lexed.tokens.get(i).map(|s| &s.tok) {
                Some(Tok::Punct(c)) => {
                    let c = *c;
                    if depth == 0 && stops.contains(&c) {
                        break;
                    }
                    match c {
                        '(' | '[' => {
                            depth += 1;
                            i += 1;
                        }
                        ')' | ']' => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                            i += 1;
                        }
                        '{' => {
                            let cb = self.match_brace(i, end);
                            let bt = self.scan_stmts(i + 1, cb);
                            t = t.union(bt);
                            i = cb + 1;
                        }
                        _ => i += 1,
                    }
                }
                Some(Tok::Ident(name)) => match name.as_str() {
                    "if" | "while" => {
                        let (bt, ni) = self.handle_if(i, end, name == "while");
                        t = t.union(bt);
                        i = ni.max(i + 1);
                    }
                    "match" => {
                        let (bt, ni) = self.handle_match(i, end);
                        t = t.union(bt);
                        i = ni.max(i + 1);
                    }
                    "for" => {
                        i = self.handle_for(i, end).max(i + 1);
                    }
                    "loop" => {
                        let ob = self.find_body_brace(i + 1, end);
                        let cb = self.match_brace(ob, end);
                        self.scan_loop_body(ob + 1, cb);
                        i = cb + 1;
                    }
                    "else" => {
                        if self.p(i + 1, '{') {
                            let cb = self.match_brace(i + 1, end);
                            let bt = self.scan_stmts(i + 2, cb);
                            t = t.union(bt);
                            i = cb + 1;
                        } else {
                            i += 1;
                        }
                    }
                    "return" | "break" | "continue" | "as" | "mut" | "ref" | "move" | "in"
                    | "dyn" | "let" | "unsafe" | "async" | "await" | "box" => i += 1,
                    _ => {
                        let (ct, ni) = self.eval_chain(i, end, header);
                        t = t.union(ct);
                        i = ni.max(i + 1);
                    }
                },
                Some(_) => i += 1, // literal / lifetime
                None => break,
            }
        }
        (t, i)
    }

    /// Evaluate one path/call/method/index chain starting at an identifier.
    fn eval_chain(&mut self, start: usize, end: usize, header: bool) -> (Taint, usize) {
        let mut i = start;
        let mut qual: Option<String> = None;
        let mut segs = 0usize;
        loop {
            let Some(name) = self.id(i) else {
                return (Taint::default(), i + 1);
            };
            if self.p(i + 1, '!') {
                return self.eval_macro(i, end);
            }
            if self.p(i + 1, ':') && self.p(i + 2, ':') {
                if self.id(i + 3).is_some() {
                    qual = Some(name.to_owned());
                    segs += 1;
                    i += 3;
                    continue;
                }
                if self.p(i + 3, '<') {
                    // Turbofish `name::<T>(…)`.
                    let close = self.matching(i + 3, end, '<', '>');
                    if self.p(close + 1, '(') {
                        let name = name.to_owned();
                        let line = self.line(i);
                        let (args, ni) = self.parse_args(close + 1, end);
                        let ct = self.call_taint(
                            &name,
                            qual.as_deref(),
                            false,
                            None,
                            false,
                            &args,
                            line,
                        );
                        return self.postfix(ct, ni, end, header, false);
                    }
                    return (Taint::default(), close + 1);
                }
            }
            break;
        }
        let name = self.id(i).unwrap_or_default().to_owned();
        let line = self.line(i);
        let recv_self = segs == 0 && name == "self";
        let (t, j) = if self.p(i + 1, '(') {
            let (args, ni) = self.parse_args(i + 1, end);
            (self.call_taint(&name, qual.as_deref(), false, None, false, &args, line), ni)
        } else if segs > 0 {
            // Qualified path value (`limits::MAX_RECORDS`, `OpKind::Read`).
            (Taint::default(), i + 1)
        } else if !header
            && self.p(i + 1, '{')
            && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            && name.chars().any(|c| c.is_ascii_lowercase())
        {
            // Struct literal `TraceView { field: expr, .. }`.
            let cb = self.match_brace(i + 1, end);
            let (bt, _) = self.eval(i + 2, cb, &[]);
            (bt, cb + 1)
        } else {
            (self.lookup(&name, i), i + 1)
        };
        self.postfix(t, j, end, header, recv_self)
    }

    /// Postfix operators on an already-evaluated base: `?`, `.method(..)`,
    /// `.field`, calls, indexing, struct literals.
    fn postfix(
        &mut self,
        mut t: Taint,
        mut j: usize,
        end: usize,
        header: bool,
        mut recv_self: bool,
    ) -> (Taint, usize) {
        let _ = header;
        while j < end {
            if self.p(j, '?') {
                j += 1;
                continue;
            }
            if self.p(j, '.') {
                if self.p(j + 1, '.') {
                    // A range `a..b` — not part of the chain.
                    break;
                }
                if let Some(m) = self.id(j + 1).map(str::to_owned) {
                    if self.p(j + 2, '(') {
                        let mline = self.line(j + 1);
                        let (args, ni) = self.parse_args(j + 2, end);
                        t = self.call_taint(&m, None, true, Some(t), recv_self, &args, mline);
                        recv_self = false;
                        j = ni;
                        continue;
                    }
                    // Field access / `.await` — taint unchanged.
                    j += 2;
                    continue;
                }
                if matches!(self.lexed.tokens.get(j + 1).map(|s| &s.tok), Some(Tok::Literal)) {
                    j += 2; // tuple index
                    continue;
                }
                j += 1;
                continue;
            }
            if self.p(j, '(') {
                let (args, ni) = self.parse_args(j, end);
                for a in args {
                    t = t.union(a);
                }
                j = ni;
                continue;
            }
            if self.p(j, '[') {
                let close = self.matching(j, end, '[', ']');
                self.check_index(j, close);
                j = close + 1;
                continue;
            }
            break;
        }
        (t, j)
    }

    /// Evaluate a macro invocation. `vec![elem; n]` is an allocation sink on
    /// `n`; every other macro is a pass-through union of its arguments.
    fn eval_macro(&mut self, i: usize, end: usize) -> (Taint, usize) {
        let name = self.id(i).unwrap_or_default().to_owned();
        let line = self.line(i);
        let d = i + 2;
        if self.p(d, '[') {
            let close = self.matching(d, end, '[', ']');
            if name == "vec" {
                // Find the top-level `;` of `vec![elem; n]`.
                let mut k = d + 1;
                let mut depth = 0i32;
                while k < close {
                    if self.p(k, '(') || self.p(k, '[') || self.p(k, '{') {
                        depth += 1;
                    } else if self.p(k, ')') || self.p(k, ']') || self.p(k, '}') {
                        depth -= 1;
                    } else if depth == 0 && self.p(k, ';') {
                        let (lt, _) = self.eval(k + 1, close, &[]);
                        self.sink(line, "vec![..; n]", &lt);
                        let (_, _) = self.eval(d + 1, k, &[]);
                        return (Taint::default(), close + 1);
                    }
                    k += 1;
                }
            }
            let (t, _) = self.eval(d + 1, close, &[]);
            return (t, close + 1);
        }
        if self.p(d, '(') {
            let (args, ni) = self.parse_args(d, end);
            return (args.into_iter().fold(Taint::default(), Taint::union), ni);
        }
        if self.p(d, '{') {
            let close = self.match_brace(d, end);
            let (t, _) = self.eval(d + 1, close, &[]);
            return (t, close + 1);
        }
        (Taint::default(), d)
    }

    /// Slice-range bounds are sinks: `&data[..n]` materializes `n` bytes.
    fn check_index(&mut self, open: usize, close: usize) {
        let mut k = open + 1;
        let mut depth = 0i32;
        while k < close {
            if self.p(k, '(') || self.p(k, '[') || self.p(k, '{') {
                depth += 1;
            } else if self.p(k, ')') || self.p(k, ']') || self.p(k, '}') {
                depth -= 1;
            } else if depth == 0 && self.p(k, '.') && self.p(k + 1, '.') {
                let (lt, _) = self.eval(open + 1, k, &[]);
                let rstart = if self.p(k + 2, '=') { k + 3 } else { k + 2 };
                let (rt, _) = self.eval(rstart.min(close), close, &[]);
                self.sink(self.line(open), "slice-range bound", &lt.union(rt));
                return;
            }
            k += 1;
        }
        let (_, _) = self.eval(open + 1, close, &[]);
    }

    /// Evaluate a comma-separated argument list; `open` is at `(`.
    fn parse_args(&mut self, open: usize, end: usize) -> (Vec<Taint>, usize) {
        let close = self.matching(open, end, '(', ')');
        let mut args = Vec::new();
        let mut i = open + 1;
        while i < close {
            let (t, ni) = self.eval(i, close, &[',']);
            args.push(t);
            if ni >= close {
                break;
            }
            i = ni + 1;
        }
        (args, close + 1)
    }

    /// The abstract result of one call, applying (in order) sink detection,
    /// known-clean/clamping methods, wire-source seeding, and summary-based
    /// interprocedural propagation.
    #[allow(clippy::too_many_arguments)]
    fn call_taint(
        &mut self,
        name: &str,
        qual: Option<&str>,
        is_method: bool,
        recv: Option<Taint>,
        recv_self: bool,
        args: &[Taint],
        line: u32,
    ) -> Taint {
        if SINK_FNS.contains(&name) {
            for a in args {
                self.sink(line, name, a);
            }
            // A sized container is a collection, not a length.
            return Taint::default();
        }
        if is_method && CLEAN_METHODS.contains(&name) {
            return Taint::default();
        }
        if is_method && CLAMP_METHODS.contains(&name) {
            return args.iter().cloned().fold(Taint::default(), Taint::union);
        }
        if self.wire_file
            && (WIRE_FREE_FNS.contains(&name) || (is_method && WIRE_METHODS.contains(&name)))
        {
            return Taint {
                wire: Some(vec![format!("{}:{line} wire read `{name}`", self.rel)]),
                params: BTreeMap::new(),
            };
        }
        let site = CallSite {
            name: name.to_owned(),
            qual: qual.map(str::to_owned),
            is_method,
            recv_self,
            line,
        };
        let callees = self.graph.resolve_site(self.node, &site);
        if callees.is_empty() {
            // Unresolved (std, shims): conservatively a pass-through, so
            // `usize::try_from(n).unwrap_or(0)`-style conversions stay hot.
            let mut t = args.iter().cloned().fold(Taint::default(), Taint::union);
            if let Some(r) = recv {
                t = t.union(r);
            }
            return t;
        }
        let mut out = Taint::default();
        for c in callees {
            let label = self.graph.nodes[c].label();
            let s = self.summaries[c].clone();
            if out.wire.is_none() {
                if let Some(chain) = &s.returns_wire {
                    let mut ch = chain.clone();
                    ch.push(format!("{}:{line} returned by `{label}`", self.rel));
                    out.wire = Some(ch);
                }
            }
            for p in &s.returns_params {
                if let Some(at) = args.get(*p) {
                    let mut at = at.clone();
                    if let Some(ch) = &mut at.wire {
                        ch.push(format!("{}:{line} passes through `{label}`", self.rel));
                    }
                    out = out.union(at);
                }
            }
            for (p, sink_chain) in &s.sink_params {
                let Some(at) = args.get(*p) else { continue };
                if let Some(argch) = &at.wire {
                    if self.emit {
                        let mut full = argch.clone();
                        full.push(format!("{}:{line} passed to `{label}`", self.rel));
                        full.extend(sink_chain.iter().cloned());
                        self.findings.push(TaintFinding {
                            rel: self.rel.to_owned(),
                            line,
                            message: format!(
                                "a wire-read value reaches an allocation inside `{label}` \
                                 with no dominating `MAX_*` guard; taint path: {}; compare \
                                 the length against a named `limits::MAX_*` bound before \
                                 allocating, or justify with `lint: allow(taint, \"...\")`",
                                full.join(" -> ")
                            ),
                        });
                    }
                }
                for (pp, pchain) in &at.params {
                    let mut full = pchain.clone();
                    full.push(format!("{}:{line} passed to `{label}`", self.rel));
                    full.extend(sink_chain.iter().cloned());
                    self.my.sink_params.entry(*pp).or_insert(full);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex, test_line_ranges};
    use crate::parse::{parse_file, ParsedFile};

    /// Lex+parse a set of files, build the call graph, run L8.
    fn run_l8(files: &[(&str, &str)]) -> Vec<TaintFinding> {
        let lexed: Vec<Lexed> = files.iter().map(|(_, s)| lex(s)).collect();
        let parsed: Vec<ParsedFile> =
            lexed.iter().map(|l| parse_file(l, &test_line_ranges(l))).collect();
        let graph_input: Vec<(&str, &ParsedFile)> =
            files.iter().zip(&parsed).map(|((r, _), p)| (*r, p)).collect();
        let graph = CallGraph::build(&graph_input);
        let map: BTreeMap<&str, &Lexed> =
            files.iter().zip(&lexed).map(|((r, _), l)| (*r, l)).collect();
        check_wire_taint(&graph, &map)
    }

    const MDF: &str = "crates/x/src/mdf.rs";

    #[test]
    fn unguarded_with_capacity_is_flagged_with_full_path() {
        let src = "\
pub fn from_bytes(buf: &[u8]) {
    let n = get_u32(buf, \"count\");
    let v: Vec<u8> = Vec::with_capacity(n);
    drop(v);
}
";
        let f = run_l8(&[(MDF, src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("wire read `get_u32`"), "{}", f[0].message);
        assert!(f[0].message.contains("`let n`"), "{}", f[0].message);
        assert!(f[0].message.contains("sizes `with_capacity`"), "{}", f[0].message);
    }

    #[test]
    fn exceed_guard_with_divergence_dominates_the_sink() {
        let src = "\
pub fn from_bytes(buf: &[u8]) {
    let n = get_u32(buf, \"count\");
    if n > MAX_RECORDS {
        return;
    }
    let v: Vec<u8> = Vec::with_capacity(n);
    drop(v);
}
";
        assert!(run_l8(&[(MDF, src)]).is_empty());
    }

    #[test]
    fn rebind_after_guard_stays_clean() {
        // The canonical parser shape: guard the u32, then shadow it with the
        // usize conversion and allocate.
        let src = "\
pub fn from_bytes(buf: &[u8]) {
    let n = get_u32(buf, \"count\");
    if n > limits::MAX_RECORDS {
        return;
    }
    let n = u32_to_usize(n);
    let v: Vec<u8> = Vec::with_capacity(n);
    drop(v);
}
";
        assert!(run_l8(&[(MDF, src)]).is_empty());
    }

    #[test]
    fn within_guard_only_covers_its_body() {
        let src = "\
pub fn from_bytes(buf: &[u8]) {
    let n = get_u32(buf, \"count\");
    if n <= MAX_RECORDS {
        let ok: Vec<u8> = Vec::with_capacity(n);
        drop(ok);
    }
    let bad: Vec<u8> = Vec::with_capacity(n);
    drop(bad);
}
";
        let f = run_l8(&[(MDF, src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 7, "{f:?}");
    }

    #[test]
    fn guard_on_wrong_branch_does_not_dominate() {
        // The guard body does not diverge, so control falls through to the
        // allocation with n unchecked on the not-taken path.
        let src = "\
pub fn from_bytes(buf: &[u8]) {
    let n = get_u32(buf, \"count\");
    if n > MAX_RECORDS {
        log_oversize(n);
    }
    let v: Vec<u8> = Vec::with_capacity(n);
    drop(v);
}
";
        let f = run_l8(&[(MDF, src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn two_hop_taint_through_a_returning_helper() {
        let src = "\
fn read_len(buf: &[u8]) -> u32 {
    get_u32(buf, \"len\")
}
pub fn from_bytes(buf: &[u8]) {
    let n = read_len(buf);
    let v: Vec<u8> = Vec::with_capacity(n);
    drop(v);
}
";
        let f = run_l8(&[(MDF, src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
        assert!(f[0].message.contains("returned by `mdf::read_len`"), "{}", f[0].message);
    }

    #[test]
    fn taint_flows_into_a_sinking_helper() {
        let src = "\
fn alloc_for(n: u32) -> Vec<u8> {
    Vec::with_capacity(n)
}
pub fn from_bytes(buf: &[u8]) {
    let n = get_u32(buf, \"len\");
    let v = alloc_for(n);
    drop(v);
}
";
        let f = run_l8(&[(MDF, src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6, "{f:?}");
        assert!(f[0].message.contains("passed to `mdf::alloc_for`"), "{}", f[0].message);
        assert!(f[0].message.contains("parameter `n`"), "{}", f[0].message);
    }

    #[test]
    fn guarded_argument_to_a_sinking_helper_is_clean() {
        let src = "\
fn alloc_for(n: u32) -> Vec<u8> {
    Vec::with_capacity(n)
}
pub fn from_bytes(buf: &[u8]) {
    let n = get_u32(buf, \"len\");
    if n > MAX_RECORDS {
        return;
    }
    let v = alloc_for(n);
    drop(v);
}
";
        assert!(run_l8(&[(MDF, src)]).is_empty());
    }

    #[test]
    fn vec_macro_length_is_a_sink() {
        let src = "\
pub fn from_bytes(buf: &[u8]) {
    let n = get_u32(buf, \"len\");
    let v = vec![0u8; n];
    drop(v);
}
";
        let f = run_l8(&[(MDF, src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("vec![..; n]"), "{}", f[0].message);
    }

    #[test]
    fn slice_range_bound_is_a_sink() {
        let src = "\
pub fn from_bytes(buf: &[u8]) {
    let n = get_u32(buf, \"len\");
    let s = &buf[..n];
    drop(s);
}
";
        let f = run_l8(&[(MDF, src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("slice-range bound"), "{}", f[0].message);
    }

    #[test]
    fn min_clamp_against_a_guard_const_launders() {
        let src = "\
pub fn from_bytes(buf: &[u8]) {
    let n = get_u32(buf, \"len\");
    let v: Vec<u8> = Vec::with_capacity(n.min(MAX_RECORDS));
    drop(v);
}
";
        assert!(run_l8(&[(MDF, src)]).is_empty());
    }

    #[test]
    fn cursor_method_reads_seed_taint() {
        let src = "\
pub fn parse(cur: &mut Cursor) {
    let n = cur.u32(\"count\");
    let v: Vec<u8> = Vec::with_capacity(n);
    drop(v);
}
";
        let f = run_l8(&[("crates/x/src/view.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("wire read `u32`"), "{}", f[0].message);
    }

    #[test]
    fn non_parser_files_do_not_seed_taint() {
        let src = "\
pub fn not_a_parser(buf: &[u8]) {
    let n = get_u32(buf, \"len\");
    let v: Vec<u8> = Vec::with_capacity(n);
    drop(v);
}
";
        assert!(run_l8(&[("crates/x/src/other.rs", src)]).is_empty());
    }

    #[test]
    fn test_functions_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let n = get_u32(b\"\", \"len\");
        let v: Vec<u8> = Vec::with_capacity(n);
        drop(v);
    }
}
";
        assert!(run_l8(&[(MDF, src)]).is_empty());
    }

    #[test]
    fn loop_carried_taint_is_observed() {
        // `n` is only tainted on the second iteration; the two-pass body
        // walk must still see it reach the sink.
        let src = "\
pub fn from_bytes(buf: &[u8]) {
    let mut n = 0;
    loop {
        let v: Vec<u8> = Vec::with_capacity(n);
        drop(v);
        n = get_u32(buf, \"len\");
    }
}
";
        let f = run_l8(&[(MDF, src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }
}
