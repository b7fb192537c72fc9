//! The Mosaic-specific invariant rules (L5, L7, L8, L10, L11) and the
//! escape hatch.
//!
//! Scopes are explicit and named next to the rules they parameterize: the
//! untrusted-input *entry points* the call graph is walked from (L5) and
//! the crates holding the (duration, volume) feature math (L7). L5 is
//! semantic: instead of a per-file allowlist it walks the workspace call
//! graph from the entry points, so a panic two call hops below
//! `from_bytes` is found — and reported with its call path.

use crate::findings::{Finding, Report, Rule, ALL_RULES};
use crate::graph::CallGraph;
use crate::lex::{in_ranges, lex, test_line_ranges, Lexed, Tok};
use crate::parse::{parse_file, ParsedFile};
use std::collections::BTreeMap;

/// One input file: workspace-relative path (forward slashes) plus contents.
#[derive(Debug, Clone)]
pub struct FileInput {
    /// Workspace-relative path, e.g. `crates/darshan/src/mdf.rs`.
    pub rel: String,
    /// Full source text.
    pub text: String,
}

/// L5 entry points — the functions through which untrusted or
/// externally-sourced bytes enter the system: the darshan parsers and
/// validator surface, and the pipeline drivers every hostile trace flows
/// through. Everything *reachable* from these over the workspace call
/// graph must be panic-free; a crafted MDF file must surface as a typed
/// `Err`, never as a crash at 462k-trace scale. If one of these is
/// renamed, the missing root is itself a finding.
const L5_ROOTS: &[(&str, &str)] = &[
    ("crates/darshan/src/mdf.rs", "from_bytes"),
    ("crates/darshan/src/dxt.rs", "from_bytes"),
    ("crates/darshan/src/text.rs", "parse"),
    ("crates/darshan/src/validate.rs", "validate"),
    ("crates/darshan/src/validate.rs", "sanitize"),
    ("crates/darshan/src/validate.rs", "check_record"),
    ("crates/darshan/src/validate.rs", "check_header"),
    ("crates/darshan/src/validate.rs", "delete_invalid"),
    ("crates/darshan/src/view.rs", "parse"),
    ("crates/darshan/src/view.rs", "validate_view"),
    ("crates/pipeline/src/source.rs", "fetch"),
    ("crates/pipeline/src/executor.rs", "process"),
    ("crates/pipeline/src/executor.rs", "ingest_one"),
    ("crates/pipeline/src/incremental.rs", "ingest"),
    ("crates/pipeline/src/incremental.rs", "ingest_fetched"),
];

/// L7 scope — everywhere the (duration, volume) feature axes live.
const L7_SCOPE: &[&str] =
    &["crates/darshan/src/", "crates/pipeline/src/", "crates/core/src/", "crates/clustering/src/"];

/// Identifier words that mark a seconds/duration quantity (L7).
const TIME_WORDS: &[&str] = &[
    "secs",
    "sec",
    "seconds",
    "second",
    "duration",
    "durations",
    "elapsed",
    "runtime",
    "time",
    "times",
    "timestamp",
    "timestamps",
    "start",
    "end",
    "gap",
    "gaps",
    "period",
    "periods",
];

/// Identifier words that mark a byte-volume quantity (L7).
const VOL_WORDS: &[&str] =
    &["bytes", "byte", "volume", "volumes", "vol", "size", "sizes", "offset", "offsets", "nbytes"];

/// Method calls that panic on the error/none case.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers that legitimately precede a `[` without it being an index
/// expression (`for x in [..]`, `match [..]`, array-type positions, …).
const NON_INDEX_PREV: &[&str] = &[
    "in", "return", "if", "else", "match", "break", "continue", "loop", "while", "for", "let",
    "mut", "ref", "as", "move", "await", "async", "dyn", "box", "yield", "where", "impl", "use",
    "pub", "mod", "fn", "struct", "enum", "trait", "type", "const", "static", "unsafe", "crate",
    "super", "self", "Self",
];

/// A well-formed `lint: allow(<key>, "<justification>")` escape hatch.
#[derive(Debug)]
struct Allow {
    line: u32,
    key: String,
}

/// One lexed input plus the per-file facts the rules share: its test-code
/// line ranges, its well-formed escape hatches, and its parsed items.
struct Prepared {
    lexed: Lexed,
    tests: Vec<(u32, u32)>,
    allows: Vec<Allow>,
    parsed: ParsedFile,
}

/// Lex, test-range and parse every file once, collecting its escape
/// hatches (malformed ones land in `findings`).
fn prepare(files: &[FileInput], findings: &mut Vec<Finding>) -> Vec<Prepared> {
    files
        .iter()
        .map(|file| {
            let lexed = lex(&file.text);
            let tests = test_line_ranges(&lexed);
            let allows = parse_allows(&file.rel, &lexed, findings);
            let parsed = parse_file(&lexed, &tests);
            Prepared { lexed, tests, allows, parsed }
        })
        .collect()
}

/// Lint a set of in-memory files as one workspace. This is the whole
/// linter; `scan_workspace` merely reads files off disk and calls it.
pub fn lint_files(files: &[FileInput]) -> Report {
    let mut report = Report { findings: Vec::new(), files_scanned: files.len() };
    let prepared = prepare(files, &mut report.findings);
    // L5 and L8 share one call graph over the production sources of the
    // roots' dependency closure, in input order.
    let in_graph: Vec<(&str, &Prepared)> = files
        .iter()
        .zip(&prepared)
        .filter(|(f, _)| graph_scope(&f.rel))
        .map(|(f, p)| (f.rel.as_str(), p))
        .collect();
    let graph_files: Vec<(&str, &ParsedFile)> =
        in_graph.iter().map(|&(rel, p)| (rel, &p.parsed)).collect();
    let graph = CallGraph::build(&graph_files);

    // Suppressible findings from every rule; the escape hatch is applied
    // below, once per file, with usage tracking (for `unused-allow`).
    let mut found = Vec::new();
    for (file, p) in files.iter().zip(&prepared) {
        if in_prefixes(&file.rel, L7_SCOPE) {
            check_unit_mixing(&file.rel, &p.lexed, &p.tests, &mut found);
        }
    }
    check_panic_reachability(files, &graph, &in_graph, &mut found, &mut report.findings);
    // L8 walks the same graph; findings take `lint: allow(taint, "<proof>")`.
    let lexed_by_rel: BTreeMap<&str, &Lexed> =
        in_graph.iter().map(|&(rel, p)| (rel, &p.lexed)).collect();
    found.extend(
        crate::dataflow::check_wire_taint(&graph, &lexed_by_rel).into_iter().map(|t| Finding {
            rule: Rule::WireTaint,
            file: t.rel,
            line: t.line,
            message: t.message,
        }),
    );
    // L10/L11 scan *every* input file — the `shims/rayon` pool and the
    // test-support crates hold locks and atomics too, and a deadlock in a
    // test target wedges CI just as hard; L10 then leaves test targets to
    // their own handshakes. Findings take `lint: allow(sync, "<proof>")`.
    let sync_inputs: Vec<crate::sync::SyncInput> = files
        .iter()
        .zip(&prepared)
        .map(|(f, p)| crate::sync::SyncInput {
            rel: f.rel.as_str(),
            lexed: &p.lexed,
            tests: &p.tests,
            parsed: &p.parsed,
        })
        .collect();
    found.extend(crate::sync::check_sync(&sync_inputs).into_iter().map(|t| {
        let rule = match t.rule {
            crate::sync::SyncRule::Atomics => Rule::AtomicsDiscipline,
            crate::sync::SyncRule::Locks => Rule::LockDiscipline,
        };
        Finding { rule, file: t.rel, line: t.line, message: t.message }
    }));

    let mut by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for f in found {
        by_file.entry(f.file.clone()).or_default().push(f);
    }
    for (file, p) in files.iter().zip(&prepared) {
        let mut used = vec![false; p.allows.len()];
        let raw = by_file.remove(&file.rel).unwrap_or_default();
        report.findings.extend(raw.into_iter().filter(|f| match allow_index(f, &p.allows) {
            Some(a) => {
                used[a] = true;
                false
            }
            None => true,
        }));
        for (allow, _) in p.allows.iter().zip(&used).filter(|(_, &u)| !u) {
            report.findings.push(Finding {
                rule: Rule::UnusedAllow,
                file: file.rel.clone(),
                line: allow.line,
                message: format!(
                    "`lint: allow({}, ...)` no longer suppresses any finding here; \
                     delete the stale escape hatch so the audit trail stays honest",
                    allow.key
                ),
            });
        }
    }

    report.normalize();
    report
}

/// `true` when `rel` starts with any of the given path prefixes.
fn in_prefixes(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// Crates that participate in the L5 call graph: the crates holding the
/// [`L5_ROOTS`] (`darshan`, `pipeline`) plus their transitive workspace
/// dependencies per `Cargo.toml` (`pipeline` → `core` + `obs`, `core` →
/// `clustering` + `signal`). Crates outside this closure — `bench`,
/// `synth`, `verify`, `lint`, `cli`, … — can never be linked into a
/// parse/ingest code path, so including them would only let the graph's
/// over-approximate method resolution invent false edges.
const L5_CRATES: &[&str] = &["clustering", "core", "darshan", "obs", "pipeline", "signal"];

/// Files that participate in the L5 call graph: production sources of the
/// crates in the roots' dependency closure.
fn graph_scope(rel: &str) -> bool {
    rel.contains("/src/") && matches!(crate_of(rel), Some(k) if L5_CRATES.contains(&k))
}

/// The crate a path belongs to: `crates/<name>/…` or the `examples` package.
fn crate_of(rel: &str) -> Option<&str> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        return rest.split('/').next();
    }
    if rel.starts_with("examples/") {
        return Some("examples");
    }
    None
}

/// Index of the first allow that suppresses `f`, if any: same key, same or
/// immediately preceding line.
fn allow_index(f: &Finding, allows: &[Allow]) -> Option<usize> {
    let key = f.rule.allow_key()?;
    allows.iter().position(|a| a.key == key && (a.line == f.line || a.line + 1 == f.line))
}

/// Parse every `lint: allow` directive; malformed ones (bad key, missing
/// or empty justification) become findings so the escape hatch stays
/// honest. Only comments that *begin* with `lint:` are directives — prose
/// that merely mentions the syntax (like this doc comment) is not.
fn parse_allows(rel: &str, lexed: &Lexed, findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (line, text) in &lexed.comments {
        // Comment text starts after `//`; shave doc-comment markers.
        let body = text.trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = body.strip_prefix("lint:") else { continue };
        let rest = rest.trim_start();
        let mut fail = |why: &str| {
            findings.push(Finding {
                rule: Rule::MalformedAllow,
                file: rel.to_owned(),
                line: *line,
                message: format!("malformed `lint: allow` escape hatch: {why}"),
            });
        };
        let Some(args) = rest.strip_prefix("allow") else {
            fail("expected `allow(<rule>, \"<justification>\")` after `lint:`");
            continue;
        };
        let args = args.trim_start();
        let Some(inner) = args.strip_prefix('(').and_then(|a| a.rfind(')').map(|e| &a[..e])) else {
            fail("missing parenthesized arguments");
            continue;
        };
        let Some((key, just)) = inner.split_once(',') else {
            fail("missing justification — write `allow(<rule>, \"why this is safe\")`");
            continue;
        };
        let key = key.trim();
        if !ALL_RULES.iter().any(|r| r.allow_key() == Some(key)) {
            fail(&format!(
                "unknown rule {key:?}; expected `panic`, `unit`, `taint` or `sync` \
                 (clippy's lints take `#[expect(clippy::…, reason = \"…\")]`)"
            ));
            continue;
        }
        let just = just.trim();
        let justification = just.strip_prefix('"').and_then(|j| j.strip_suffix('"')).map(str::trim);
        match justification {
            Some(j) if !j.is_empty() => {
                allows.push(Allow { line: *line, key: key.to_owned() });
            }
            Some(_) => fail("empty justification string"),
            None => fail("justification must be a double-quoted string"),
        }
    }
    allows
}

/// L5: walk the workspace call graph from the untrusted-input entry points
/// and flag every panic site (`unwrap`/`expect`, panicking macros, slice
/// indexing) in any reached function, reporting the call path. A root
/// listed in [`L5_ROOTS`] whose file is present but whose fn is missing is
/// itself a finding, so the roots list cannot silently rot.
fn check_panic_reachability(
    files: &[FileInput],
    graph: &CallGraph<'_>,
    in_graph: &[(&str, &Prepared)],
    out: &mut Vec<Finding>,
    structural: &mut Vec<Finding>,
) {
    let mut roots = Vec::new();
    for (file, name) in L5_ROOTS {
        let mut found = false;
        for (i, n) in graph.nodes.iter().enumerate() {
            if n.rel == *file && n.f.name == *name {
                roots.push(i);
                found = true;
            }
        }
        if !found && files.iter().any(|f| f.rel == *file) {
            structural.push(Finding {
                rule: Rule::PanicReachability,
                file: (*file).to_owned(),
                line: 1,
                message: format!(
                    "L5 entry point `{name}` not found in this file — if it was renamed, \
                     update the roots list in crates/lint/src/rules.rs"
                ),
            });
        }
    }

    let reach = graph.reachable(&roots);
    for &n in &reach.order {
        let node = &graph.nodes[n];
        let Some(&(_, p)) = in_graph.iter().find(|(rel, _)| *rel == node.rel) else { continue };
        let Some((start, end)) = node.f.body else { continue };
        // A nested fn's tokens sit inside the outer body span but belong to
        // their own node; skip them here so unreachable inner fns are not
        // charged to the outer function.
        let nested: Vec<(usize, usize)> = p
            .parsed
            .fns
            .iter()
            .filter_map(|f| f.body)
            .filter(|&(s, e)| s > start && e <= end && (s, e) != (start, end))
            .collect();
        let path = reach.path_to(n);
        let root_label = graph.nodes[path[0]].label();
        let path_str =
            path.iter().map(|&i| graph.nodes[i].label()).collect::<Vec<_>>().join(" -> ");
        scan_panic_sites(node.rel, &p.lexed, start, end, &nested, &root_label, &path_str, out);
    }
}

/// Flag the panic sites in one function body token range.
#[allow(clippy::too_many_arguments, reason = "one call site; the arguments are the walk's state")]
fn scan_panic_sites(
    rel: &str,
    lexed: &Lexed,
    start: usize,
    end: usize,
    nested: &[(usize, usize)],
    root_label: &str,
    path_str: &str,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    for i in start..end.min(toks.len()) {
        if nested.iter().any(|&(s, e)| i >= s && i < e) {
            continue;
        }
        let line = toks[i].line;
        let mut push = |what: &str| {
            out.push(Finding {
                rule: Rule::PanicReachability,
                file: rel.to_owned(),
                line,
                message: format!(
                    "{what}, and this function is reachable from L5 entry point \
                     `{root_label}` (call path: {path_str}); propagate a typed error \
                     or justify with `lint: allow(panic, \"...\")`"
                ),
            });
        };
        match &toks[i].tok {
            Tok::Ident(name) if PANIC_METHODS.contains(&name.as_str()) => {
                let is_method_call =
                    i > 0 && lexed.is_punct(i - 1, '.') && lexed.is_punct(i + 1, '(');
                if is_method_call {
                    push(&format!("`.{name}()` can panic on hostile input"));
                }
            }
            Tok::Ident(name)
                if PANIC_MACROS.contains(&name.as_str()) && lexed.is_punct(i + 1, '!') =>
            {
                push(&format!("`{name}!` aborts the whole run"));
            }
            Tok::Punct('[') if i > 0 => {
                let indexes = match &toks[i - 1].tok {
                    Tok::Ident(prev) => !NON_INDEX_PREV.contains(&prev.as_str()),
                    Tok::Punct(')') | Tok::Punct(']') => true,
                    _ => false,
                };
                if indexes {
                    push("slice/array indexing can panic on attacker-controlled lengths");
                }
            }
            _ => {}
        }
    }
}

/// The unit class of an identifier under L7, by its `_`-separated words.
/// Identifiers hitting both classes (`bytes_per_sec`) are rates and stay
/// unclassified.
fn unit_class(name: &str) -> Option<&'static str> {
    let mut time = false;
    let mut vol = false;
    for part in name.split('_') {
        time |= TIME_WORDS.contains(&part);
        vol |= VOL_WORDS.contains(&part);
    }
    match (time, vol) {
        (true, false) => Some("seconds/duration"),
        (false, true) => Some("byte-volume"),
        _ => None,
    }
}

/// L7: flag `+`/`-` arithmetic whose operands classify into *different*
/// unit classes (seconds vs bytes). Operands are identifier chains
/// (`a.b.c` classifies by `c`); calls, literals and unclassifiable names
/// are skipped, so the rule only fires on nameably-wrong math.
fn check_unit_mixing(rel: &str, lexed: &Lexed, tests: &[(u32, u32)], out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let op = match &t.tok {
            Tok::Punct(c @ ('+' | '-')) => *c,
            _ => continue,
        };
        let line = t.line;
        if in_ranges(tests, line) {
            continue;
        }
        // `+=`, `-=`, `->` are not binary add/sub.
        if lexed.is_punct(i + 1, '=') || (op == '-' && lexed.is_punct(i + 1, '>')) {
            continue;
        }
        // Left operand: the identifier directly before the operator — the
        // last segment of any `a.b.c` chain. Unary minus has punct there.
        let Some(left) = (i > 0).then(|| lexed.ident(i - 1)).flatten() else { continue };
        // Right operand: walk the identifier chain forward; a trailing `(`
        // makes it a call whose unit we cannot name.
        let mut j = i + 1;
        let Some(mut right) = lexed.ident(j) else { continue };
        while lexed.is_punct(j + 1, '.') {
            match lexed.ident(j + 2) {
                Some(seg) => {
                    right = seg;
                    j += 2;
                }
                None => break,
            }
        }
        if lexed.is_punct(j + 1, '(') {
            continue;
        }
        let (Some(lc), Some(rc)) = (unit_class(left), unit_class(right)) else { continue };
        if lc != rc {
            out.push(Finding {
                rule: Rule::UnitMix,
                file: rel.to_owned(),
                line,
                message: format!(
                    "`{left} {op} {right}` mixes a {lc} identifier with a {rc} \
                     identifier; a bytes-plus-seconds sum is meaningless in the \
                     (duration, volume) feature space — divide to form a rate, or \
                     justify with `lint: allow(unit, \"...\")`"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(rel: &str, text: &str) -> Vec<Finding> {
        lint_files(&[FileInput { rel: rel.to_owned(), text: text.to_owned() }]).findings
    }

    /// Findings of one rule only — the single-file tests below exercise one
    /// rule at a time.
    fn lint_rule(rel: &str, text: &str, rule: Rule) -> Vec<Finding> {
        let mut f = lint_one(rel, text);
        f.retain(|f| f.rule == rule);
        f
    }

    const L5_FILE: &str = "crates/darshan/src/mdf.rs";
    const L7_FILE: &str = "crates/core/src/merge.rs";

    #[test]
    fn l5_flags_panics_inside_an_entry_point() {
        let src = "pub fn from_bytes(x: Option<u8>) -> u8 {\n    let a = x.unwrap();\n    let b = x.expect(\"y\");\n    panic!(\"no\");\n}\n";
        let f = lint_rule(L5_FILE, src, Rule::PanicReachability);
        assert_eq!(f.len(), 3, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("mdf::from_bytes"), "{}", f[0].message);
    }

    #[test]
    fn l5_follows_calls_two_hops_down_and_names_the_path() {
        let src = "\
pub fn from_bytes(d: &[u8]) -> u8 {
    helper(d)
}
fn helper(d: &[u8]) -> u8 {
    deep(d)
}
fn deep(d: &[u8]) -> u8 {
    d[0]
}
";
        let f = lint_rule(L5_FILE, src, Rule::PanicReachability);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 8);
        assert!(
            f[0].message.contains("mdf::from_bytes -> mdf::helper -> mdf::deep"),
            "path missing: {}",
            f[0].message
        );
    }

    #[test]
    fn l5_unreachable_fns_may_panic() {
        let src = "\
pub fn from_bytes(d: &[u8]) -> u8 {
    d.first().copied().unwrap_or(0)
}
pub fn writer_only(x: Option<u8>) -> u8 {
    x.unwrap()
}
";
        assert!(lint_rule(L5_FILE, src, Rule::PanicReachability).is_empty());
    }

    #[test]
    fn l5_flags_slice_indexing_but_not_array_literals() {
        let src =
            "pub fn from_bytes(d: &[u8]) -> u8 {\n    let t = [1u8, 2];\n    for x in [1, 2] {}\n    d[0]\n}\n";
        let f = lint_rule(L5_FILE, src, Rule::PanicReachability);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn l5_test_modules_are_exempt() {
        let src = "pub fn from_bytes(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u8>.unwrap(); }\n}\n";
        assert!(lint_rule(L5_FILE, src, Rule::PanicReachability).is_empty());
    }

    #[test]
    fn l5_out_of_scope_files_are_quiet() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint_one("crates/viz/src/bars.rs", src).is_empty());
    }

    #[test]
    fn l5_missing_entry_point_is_a_finding() {
        let src = "pub fn renamed_parse(d: &[u8]) -> u8 { 0 }\n";
        let f = lint_rule(L5_FILE, src, Rule::PanicReachability);
        assert!(
            f.iter().any(|f| f.message.contains("entry point `from_bytes` not found")),
            "{f:?}"
        );
    }

    #[test]
    fn justified_allow_suppresses_same_or_next_line() {
        let trailing =
            "pub fn from_bytes(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(panic, \"len checked above\")\n";
        assert!(lint_rule(L5_FILE, trailing, Rule::PanicReachability).is_empty());
        assert!(lint_rule(L5_FILE, trailing, Rule::MalformedAllow).is_empty());
        assert!(lint_rule(L5_FILE, trailing, Rule::UnusedAllow).is_empty());
        let preceding =
            "// lint: allow(panic, \"len checked above\")\npub fn from_bytes(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint_rule(L5_FILE, preceding, Rule::PanicReachability).is_empty());
    }

    #[test]
    fn unused_allow_is_itself_a_finding() {
        let src =
            "pub fn from_bytes(x: Option<u8>) -> u8 { x.unwrap_or(0) } // lint: allow(panic, \"stale claim\")\n";
        let f = lint_rule(L5_FILE, src, Rule::UnusedAllow);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("allow(panic"), "{}", f[0].message);
    }

    #[test]
    fn allow_missing_justification_is_itself_a_finding() {
        let src = "pub fn from_bytes(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(panic)\n";
        let f = lint_one(L5_FILE, src);
        assert!(f.iter().any(|f| f.rule == Rule::MalformedAllow), "{f:?}");
        // …and it does NOT suppress the unwrap.
        assert!(f.iter().any(|f| f.rule == Rule::PanicReachability), "{f:?}");
    }

    #[test]
    fn allow_with_empty_or_unquoted_justification_is_malformed() {
        for bad in [
            "// lint: allow(panic, \"\")",
            "// lint: allow(panic, because reasons)",
            "// lint: allow(frobnication, \"x\")",
            "// lint: allowance",
        ] {
            let src = format!("pub fn from_bytes() {{}}\n{bad}\n");
            let f = lint_one(L5_FILE, &src);
            assert!(
                f.iter().any(|f| f.rule == Rule::MalformedAllow),
                "{bad} should be malformed: {f:?}"
            );
        }
    }

    /// The keys of the rules handed to clippy (L2 `nondeterminism`, L3
    /// `unsafe`, L6 `cast`) are gone: such a comment is malformed and
    /// points at the `#[expect]` that replaced it.
    #[test]
    fn retired_allow_keys_are_malformed() {
        for key in ["nondeterminism", "unsafe", "cast"] {
            let src = format!("pub fn from_bytes() {{}}\n// lint: allow({key}, \"proof\")\n");
            let f = lint_rule(L5_FILE, &src, Rule::MalformedAllow);
            assert_eq!(f.len(), 1, "{key}: {f:?}");
            assert!(f[0].message.contains("#[expect(clippy::"), "{}", f[0].message);
        }
    }

    /// The escape-hatch keys are the kept rules' own, and the parser's
    /// error names each of them.
    #[test]
    fn kept_allow_keys_are_exactly_panic_unit_taint_sync() {
        let keys: Vec<&str> = ALL_RULES.iter().filter_map(|r| r.allow_key()).collect();
        assert_eq!(keys, ["panic", "unit", "taint", "sync", "sync"]);
        for key in ["panic", "unit", "taint", "sync"] {
            let src = format!("pub fn from_bytes() {{}}\n// lint: allow({key}, \"proof\")\n");
            assert!(lint_rule(L5_FILE, &src, Rule::MalformedAllow).is_empty(), "{key}");
        }
        let f = lint_rule(L5_FILE, "// lint: allow(bogus, \"x\")\n", Rule::MalformedAllow);
        assert_eq!(f.len(), 1, "{f:?}");
        for key in ["panic", "unit", "taint", "sync"] {
            assert!(f[0].message.contains(&format!("`{key}`")), "{}", f[0].message);
        }
    }

    #[test]
    fn allow_key_must_match_the_rule() {
        let src =
            "pub fn from_bytes(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(unit, \"wrong key\")\n";
        let f = lint_one(L5_FILE, src);
        assert!(f.iter().any(|f| f.rule == Rule::PanicReachability), "{f:?}");
        // The wrong-keyed allow suppressed nothing, so it is also stale.
        assert!(f.iter().any(|f| f.rule == Rule::UnusedAllow), "{f:?}");
    }

    /// The same text under `src/` and under a test target: L10 leaves the
    /// test target's handshake alone, L11 still guards it against deadlock.
    #[test]
    fn l10_skips_test_targets_but_l11_does_not() {
        let text = "\
fn handshake(flag: &AtomicBool, reg: &Mutex<Vec<u64>>, data: &[u64]) {
    flag.store(true, Ordering::Release);
    let guard = reg.lock().unwrap_or_else(PoisonError::into_inner);
    data.par_iter().for_each(|_| {});
}
";
        let rules = |rel: &str| -> Vec<(Rule, u32)> {
            lint_one(rel, text).into_iter().map(|f| (f.rule, f.line)).collect()
        };
        assert_eq!(
            rules("crates/obs/src/x.rs"),
            [(Rule::AtomicsDiscipline, 2), (Rule::LockDiscipline, 4)]
        );
        assert_eq!(rules("crates/obs/tests/x.rs"), [(Rule::LockDiscipline, 4)]);
        assert_eq!(rules("crates/bench/benches/x.rs"), [(Rule::LockDiscipline, 4)]);
        // A `tests` directory inside `src/` is a module, not a test target.
        assert_eq!(rules("crates/obs/src/tests/x.rs").len(), 2);
    }

    /// An audit above a read-modify-write whose result is discarded proves
    /// nothing L10 asks for, so it is stale.
    #[test]
    fn sync_allow_above_a_discarded_rmw_is_unused() {
        let text = "\
fn bump(hits: &AtomicU64) {
    // lint: allow(sync, \"pure counter\")
    hits.fetch_add(1, Ordering::Relaxed);
}
";
        let f = lint_one("crates/obs/src/x.rs", text);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), (Rule::UnusedAllow, 2));
        assert!(f[0].message.contains("allow(sync"), "{}", f[0].message);
    }

    /// L7's hint names the escape hatch; there are no unit newtypes to
    /// point at.
    #[test]
    fn l7_hint_names_the_unit_escape_hatch() {
        let src = "pub fn f(duration: f64, bytes: f64) -> f64 { duration - bytes }\n";
        let f = lint_rule(L7_FILE, src, Rule::UnitMix);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("lint: allow(unit, "), "{}", f[0].message);
        assert!(f[0].message.contains("`duration - bytes`"), "{}", f[0].message);
    }

    #[test]
    fn l7_flags_mixed_unit_arithmetic() {
        let src = "pub fn f(duration: f64, bytes: f64) -> f64 { duration + bytes }\n";
        let f = lint_rule(L7_FILE, src, Rule::UnitMix);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("seconds/duration"), "{}", f[0].message);
        assert!(f[0].message.contains("byte-volume"), "{}", f[0].message);
    }

    #[test]
    fn l7_classifies_field_chains_by_their_last_segment() {
        let src = "pub fn f(s: &Seg) -> f64 { s.window.end_time - s.total_bytes }\n";
        let f = lint_rule(L7_FILE, src, Rule::UnitMix);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn l7_same_class_and_unclassified_arithmetic_is_quiet() {
        let src = "\
pub fn f(s: &Seg) -> f64 {
    let span = s.end_time - s.start_time;
    let total = s.read_bytes + s.write_bytes;
    let rate = s.bytes_per_sec + s.overhead;
    let idx = s.cursor + s.stride;
    span + total + rate + idx
}
";
        assert!(lint_rule(L7_FILE, src, Rule::UnitMix).is_empty());
    }

    #[test]
    fn l7_skips_calls_literals_and_compound_assignment() {
        let src = "\
pub fn f(s: &mut Seg) -> f64 {
    s.bytes += 1.0;
    let x = s.duration + helper(s);
    let y = s.duration - 2.0;
    x + y
}
fn helper(_s: &Seg) -> f64 { 0.0 }
";
        assert!(lint_rule(L7_FILE, src, Rule::UnitMix).is_empty());
    }

    #[test]
    fn l7_allow_suppresses_audited_mixing() {
        let src = "pub fn f(duration: f64, bytes: f64) -> f64 { duration + bytes } // lint: allow(unit, \"log-scaled composite score, dimensionless\")\n";
        assert!(lint_rule(L7_FILE, src, Rule::UnitMix).is_empty());
    }
}
