//! A lightweight item/function parser on top of [`crate::lex`].
//!
//! This is not a full Rust parser: it recovers exactly the structure the
//! semantic rules need — every `fn` item with its body token span, owner
//! `impl` type, the calls it makes, and complexity-ish shape metrics —
//! while staying dependency-free. Constructs it does not model (macro
//! definitions, const generic default expressions) degrade gracefully:
//! a `fn $name` inside `macro_rules!` is simply not an item, and a call
//! that never resolves to a workspace function grows no call-graph edge.

use crate::lex::{in_ranges, Lexed, Tok};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee identifier (`from_bytes`, `categorize_log`, …).
    pub name: String,
    /// The path segment immediately before `::name`, when the call is
    /// qualified (`mdf` in `mdf::from_bytes`, `Module` in
    /// `Module::from_tag`).
    pub qual: Option<String>,
    /// `true` for `receiver.name(...)` method-call syntax.
    pub is_method: bool,
    /// `true` when the receiver is literally `self`.
    pub recv_self: bool,
    /// 1-based source line.
    pub line: u32,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, when the fn is a method/associated fn.
    pub owner: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, exclusive of the braces. `None` for
    /// bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Line of the last body token (used to anchor whole-fn findings).
    pub end_line: u32,
    /// `true` when the fn sits inside a `#[cfg(test)]` range.
    pub is_test: bool,
    /// Call sites inside the body, in source order.
    pub calls: Vec<CallSite>,
    /// Cyclomatic-ish complexity: 1 + branch points (`if`, `while`,
    /// `for`, `loop`, `match` arms, `&&`, `||`, `?`).
    pub complexity: u32,
    /// Maximum brace-nesting depth inside the body.
    pub nesting: u32,
    /// Non-structured exits: `return`, `break`, `continue`, `?`.
    pub exits: u32,
}

impl FnInfo {
    /// `Owner::name` for methods, bare `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The parsed structure of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnInfo>,
    /// `use`-import leaves: `(imported name, preceding path segment)`.
    /// `use crate::mdf::from_bytes` yields `("from_bytes", "mdf")`;
    /// renames record the local name (`use x::y as z` → `("z", "x")`).
    pub imports: Vec<(String, String)>,
}

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "in", "let", "mut", "ref", "move",
    "break", "continue", "else", "as", "where", "impl", "dyn", "use", "pub", "crate", "super",
];

/// State for one function whose body is currently open.
struct OpenFn {
    /// Index into `ParsedFile::fns`.
    idx: usize,
    /// Brace depth just before the body `{` was consumed.
    open_depth: i32,
}

/// Parse one lexed file into its `fn` items.
pub fn parse_file(lexed: &Lexed, tests: &[(u32, u32)]) -> ParsedFile {
    let toks = &lexed.tokens;
    let mut out = ParsedFile::default();
    let mut depth = 0i32;
    // (impl type name, brace depth at which the impl block opened)
    let mut impl_stack: Vec<(String, i32)> = Vec::new();
    let mut fn_stack: Vec<OpenFn> = Vec::new();
    // Pending fn whose signature is being scanned: (fn index, paren depth).
    let mut pending: Option<(usize, i32)> = None;

    let mut i = 0usize;
    while i < toks.len() {
        // --- signature scanning mode -----------------------------------
        if let Some((fidx, ref mut paren)) = pending {
            match &toks[i].tok {
                Tok::Punct('(') => *paren += 1,
                Tok::Punct(')') => *paren -= 1,
                Tok::Punct(';') if *paren == 0 => {
                    // Bodyless trait-method declaration.
                    pending = None;
                }
                Tok::Punct('{') if *paren == 0 => {
                    out.fns[fidx].body = Some((i + 1, i + 1));
                    fn_stack.push(OpenFn { idx: fidx, open_depth: depth });
                    depth += 1;
                    pending = None;
                }
                _ => {}
            }
            i += 1;
            continue;
        }

        match &toks[i].tok {
            Tok::Ident(kw) if kw == "impl" && fn_stack.is_empty() => {
                // Extract the impl target: the last path-segment ident at
                // angle-depth 0 before the opening `{` (after `for` in
                // trait impls), stopping at a `where` clause.
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut target: Option<String> = None;
                let mut in_where = false;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Punct('{') if angle <= 0 => break,
                        Tok::Punct(';') if angle <= 0 => break, // `impl Foo;` — malformed, bail
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Ident(w) if w == "where" && angle <= 0 => in_where = true,
                        Tok::Ident(seg) if angle <= 0 && !in_where && seg != "for" => {
                            target = Some(seg.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j < toks.len() && lexed.is_punct(j, '{') {
                    if let Some(name) = target {
                        impl_stack.push((name, depth));
                    }
                    depth += 1;
                    i = j + 1;
                    continue;
                }
                i = j;
                continue;
            }
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(name) = lexed.ident(i + 1) {
                    let line = toks[i].line;
                    // Owner: a method is a fn declared directly inside an
                    // impl block (not nested in another fn body).
                    let owner = match (fn_stack.is_empty(), impl_stack.last()) {
                        (true, Some((ty, d))) if depth == d + 1 => Some(ty.clone()),
                        _ => None,
                    };
                    out.fns.push(FnInfo {
                        name: name.to_owned(),
                        owner,
                        line,
                        body: None,
                        end_line: line,
                        is_test: in_ranges(tests, line),
                        calls: Vec::new(),
                        complexity: 1,
                        nesting: 0,
                        exits: 0,
                    });
                    pending = Some((out.fns.len() - 1, 0));
                    i += 2;
                    continue;
                }
            }
            Tok::Ident(kw) if kw == "use" && fn_stack.is_empty() => {
                i = parse_use(lexed, i + 1, &mut out.imports);
                continue;
            }
            _ => {}
        }

        // --- body token processing -------------------------------------
        if let Some(open) = fn_stack.last() {
            let fidx = open.idx;
            let body_depth = open.open_depth + 1;
            match &toks[i].tok {
                Tok::Ident(name) => {
                    record_body_ident(lexed, i, name, &mut out.fns[fidx]);
                }
                Tok::Punct('{') => {
                    let nest = (depth + 1 - body_depth).max(0) as u32;
                    if nest > out.fns[fidx].nesting {
                        out.fns[fidx].nesting = nest;
                    }
                }
                Tok::Punct('?') => {
                    out.fns[fidx].complexity += 1;
                    out.fns[fidx].exits += 1;
                }
                Tok::Punct('=') if lexed.is_punct(i + 1, '>') => {
                    out.fns[fidx].complexity += 1; // match arm
                }
                Tok::Punct('&') if lexed.is_punct(i + 1, '&') => {
                    out.fns[fidx].complexity += 1;
                }
                Tok::Punct('|') if lexed.is_punct(i + 1, '|') => {
                    out.fns[fidx].complexity += 1;
                }
                _ => {}
            }
            // Skip the second half of two-token operators so `&&&` or
            // `a == b` never double-count.
            if matches!(&toks[i].tok, Tok::Punct('&') | Tok::Punct('|') | Tok::Punct('='))
                && (lexed.is_punct(i + 1, '&') || lexed.is_punct(i + 1, '|'))
                && matches!((&toks[i].tok, &toks[i + 1].tok),
                    (Tok::Punct(a), Tok::Punct(b)) if a == b || (*a == '=' && *b == '>'))
            {
                i += 1;
            }
        }

        match &toks[i].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if let Some(open) = fn_stack.last() {
                    if depth == open.open_depth {
                        let f = &mut out.fns[open.idx];
                        if let Some((start, _)) = f.body {
                            f.body = Some((start, i));
                        }
                        f.end_line = toks[i].line;
                        fn_stack.pop();
                    }
                }
                if let Some((_, d)) = impl_stack.last() {
                    if depth == *d {
                        impl_stack.pop();
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Record calls and branch keywords for one identifier token in a body.
fn record_body_ident(lexed: &Lexed, i: usize, name: &str, f: &mut FnInfo) {
    let line = lexed.tokens[i].line;
    match name {
        // `match` itself is not counted — its arms are (via `=>`), and
        // counting both would double-charge every match expression.
        "if" | "while" | "for" | "loop" => {
            f.complexity += 1;
            return;
        }
        "return" | "break" | "continue" => {
            f.exits += 1;
            return;
        }
        _ => {}
    }
    // A call is `name (` — but not `name!(` (macro) and not a keyword.
    if !lexed.is_punct(i + 1, '(') || NON_CALL_KEYWORDS.contains(&name) {
        return;
    }
    let is_method = i > 0 && lexed.is_punct(i - 1, '.');
    let recv_self = is_method && i >= 2 && lexed.ident(i - 2) == Some("self");
    let qual = if i >= 3 && lexed.is_punct(i - 1, ':') && lexed.is_punct(i - 2, ':') {
        lexed.ident(i - 3).map(str::to_owned)
    } else {
        None
    };
    f.calls.push(CallSite { name: name.to_owned(), qual, is_method, recv_self, line });
}

/// Parse one `use` statement starting just after the `use` keyword; returns
/// the index just past its `;`. Records every imported leaf with the path
/// segment preceding it (brace groups and `as` renames included).
fn parse_use(lexed: &Lexed, mut i: usize, imports: &mut Vec<(String, String)>) -> usize {
    let toks = &lexed.tokens;
    // Segment stack across brace groups: the last ident seen at each level.
    let mut stack: Vec<String> = Vec::new();
    let mut last: Option<String> = None;
    let mut renamed: Option<String> = None;
    let mut flush = |last: &mut Option<String>, renamed: &mut Option<String>, stack: &[String]| {
        if let Some(leaf) = renamed.take().or_else(|| last.take()) {
            if leaf != "*" {
                let parent = stack.last().cloned().unwrap_or_default();
                if !parent.is_empty() {
                    imports.push((leaf, parent));
                }
            }
        }
        *last = None;
    };
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct(';') => {
                flush(&mut last, &mut renamed, &stack);
                return i + 1;
            }
            Tok::Punct('{') => {
                if let Some(seg) = last.take() {
                    stack.push(seg);
                }
            }
            Tok::Punct('}') => {
                flush(&mut last, &mut renamed, &stack);
                stack.pop();
            }
            Tok::Punct(',') => flush(&mut last, &mut renamed, &stack),
            Tok::Ident(seg) if seg == "as" => {
                // The next ident is the local (renamed) binding.
                if let Some(alias) = lexed.ident(i + 1) {
                    renamed = Some(alias.to_owned());
                    i += 2;
                    continue;
                }
            }
            Tok::Ident(seg) => {
                if last.is_some() && lexed.is_punct(i.wrapping_sub(1), ':') {
                    // `a::b` — shift the previous segment onto the path.
                    if let Some(prev) = last.take() {
                        stack.push(prev);
                        last = Some(seg.clone());
                        // Collapse: we only need the immediate parent, so
                        // drop grandparents beyond one brace level… keep
                        // full stack; parent lookup uses `.last()`.
                        i += 1;
                        continue;
                    }
                }
                last = Some(seg.clone());
            }
            _ => {}
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex, test_line_ranges};

    fn parse(src: &str) -> ParsedFile {
        let lexed = lex(src);
        let tests = test_line_ranges(&lexed);
        parse_file(&lexed, &tests)
    }

    #[test]
    fn free_fns_and_methods_are_distinguished() {
        let src = "\
fn free() {}
struct S;
impl S {
    fn method(&self) {}
    pub fn assoc() -> S { S }
}
impl std::fmt::Display for S {
    fn fmt(&self) {}
}
";
        let p = parse(src);
        let names: Vec<(String, Option<String>)> =
            p.fns.iter().map(|f| (f.name.clone(), f.owner.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None),
                ("method".into(), Some("S".into())),
                ("assoc".into(), Some("S".into())),
                ("fmt".into(), Some("S".into())),
            ]
        );
    }

    #[test]
    fn generic_impls_resolve_their_target() {
        let src = "impl<'a, T: Clone> Wrapper<T> where T: Copy { fn get(&self) {} }";
        let p = parse(src);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn calls_capture_qualifier_method_and_self() {
        let src = "\
fn driver(x: &X) {
    helper();
    mdf::from_bytes(b);
    x.render();
    self.step();
    format!(\"{}\", also_called(1));
}
";
        let p = parse(src);
        let calls = &p.fns[0].calls;
        let by_name: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(by_name, vec!["helper", "from_bytes", "render", "step", "also_called"]);
        assert_eq!(calls[1].qual.as_deref(), Some("mdf"));
        assert!(calls[2].is_method && !calls[2].recv_self);
        assert!(calls[3].is_method && calls[3].recv_self);
        assert!(!calls[0].is_method && calls[0].qual.is_none());
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let src = "fn f() { if (a) {} panic!(\"x\"); matches!(y, Z); while (b) {} }";
        let p = parse(src);
        assert!(p.fns[0].calls.is_empty(), "{:?}", p.fns[0].calls);
    }

    #[test]
    fn macro_rules_bodies_do_not_create_fn_items() {
        let src = "\
macro_rules! getter {
    ($name:ident) => {
        fn $name() {}
    };
}
fn real() {}
";
        let p = parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn complexity_counts_branches_arms_and_try() {
        // 1 base + if + for + 2 match arms + && + ? = 7
        let src = "\
fn f(x: u8) -> Option<u8> {
    if x > 1 && x < 9 {
        for _ in 0..x {}
    }
    match x { 0 => {}, _ => {} }
    let y = g(x)?;
    Some(y)
}
";
        let p = parse(src);
        assert_eq!(p.fns[0].complexity, 7, "{:?}", p.fns[0]);
        assert_eq!(p.fns[0].exits, 1);
    }

    #[test]
    fn nesting_is_relative_to_the_body() {
        let src = "fn flat() { a(); }\nfn deep() { if x { if y { if z { a(); } } } }";
        let p = parse(src);
        assert_eq!(p.fns[0].nesting, 0);
        assert_eq!(p.fns[1].nesting, 3);
    }

    #[test]
    fn bodyless_trait_decls_have_no_body() {
        let src = "trait T { fn required(&self) -> u8; fn provided(&self) {} }";
        let p = parse(src);
        assert_eq!(p.fns[0].body, None);
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn nested_fns_attribute_tokens_to_the_inner_fn() {
        let src = "\
fn outer() {
    fn inner() { deep_call(); }
    outer_call();
}
";
        let p = parse(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].name, "outer_call");
        assert_eq!(inner.calls[0].name, "deep_call");
        assert!(inner.owner.is_none());
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    fn helper() {}
}
";
        let p = parse(src);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }

    #[test]
    fn use_imports_record_leaf_and_parent() {
        let src = "\
use crate::mdf::from_bytes;
use mosaic_darshan::{validate, ops::extract_view};
use std::io::Read as IoRead;
";
        let p = parse(src);
        assert!(p.imports.contains(&("from_bytes".into(), "mdf".into())));
        assert!(p.imports.contains(&("extract_view".into(), "ops".into())));
        assert!(p.imports.contains(&("IoRead".into(), "io".into())));
    }

    #[test]
    fn end_line_tracks_the_closing_brace() {
        let src = "fn f() {\n  a();\n  b();\n}\n";
        let p = parse(src);
        assert_eq!(p.fns[0].line, 1);
        assert_eq!(p.fns[0].end_line, 4);
    }
}
