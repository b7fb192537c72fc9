//! The Mosaic-specific invariant rules (L2–L11) and the escape hatch.
//!
//! Scopes are explicit and named next to the rules they parameterize: the
//! untrusted-input *entry points* the call graph is walked from (L5), the
//! crates whose state feeds `ResultSnapshot` digests (L2), the
//! parse/merge/categorize paths where a lossy cast corrupts category
//! counts (L6), and the crates holding the (duration, volume) feature
//! math (L7). L5 is semantic: instead of a per-file allowlist it walks
//! the workspace call graph from the entry points, so a panic two call
//! hops below `from_bytes` is found — and reported with its call path.

use crate::findings::{Finding, Report, Rule};
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

/// Crates exempt from L2 — their output never feeds a `ResultSnapshot`
/// digest (CLI presentation, benchmarks, the linter itself, test glue).
const L2_EXEMPT_CRATES: &[&str] = &["cli", "bench", "lint", "integration", "examples"];

/// L6 scope — the parse/merge/categorize paths where a silently wrapping
/// cast corrupts offsets, record counts, or interval math.
const L6_SCOPE: &[&str] = &["crates/darshan/src/", "crates/pipeline/src/", "crates/core/src/"];

/// Cast targets L6 flags: every `as` to one of these can truncate, wrap,
/// change sign, or (for `f32`) round. `as f64` is exempt — it is exact for
/// every integer the formats can carry below 2^53, and the feature space
/// log-scales immediately afterwards anyway.
const LOSSY_CAST_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
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

/// The error taxonomy under rule L4.
const TAXONOMY_FILE: &str = "crates/darshan/src/error.rs";
const TAXONOMY_ENUM: &str = "EvictReason";
/// The accounting functions every variant must appear in: `class` decides
/// which coarse funnel counter an eviction rolls into (and therefore where
/// `by_reason` entries land), `slug` names its stable JSON key.
const TAXONOMY_FNS: &[&str] = &["class", "slug"];

/// A well-formed `lint: allow(<key>, "<justification>")` escape hatch.
#[derive(Debug)]
struct Allow {
    line: u32,
    key: String,
}

/// One lexed input plus the per-file facts the rules share: its test-code
/// line ranges, its well-formed escape hatches, and its parsed items.
struct Prepared {
    idx: usize,
    lexed: Lexed,
    tests: Vec<(u32, u32)>,
    allows: Vec<Allow>,
    parsed: ParsedFile,
}

/// Lint a set of in-memory files as one workspace. This is the whole
/// linter; `scan_workspace` merely reads files off disk and calls it.
pub fn lint_files(files: &[FileInput]) -> Report {
    let mut report = Report { findings: Vec::new(), files_scanned: files.len() };
    let mut prepared: Vec<Prepared> = Vec::new();

    for (idx, file) in files.iter().enumerate() {
        let lexed = lex(&file.text);
        let tests = test_line_ranges(&lexed);
        let allows = parse_allows(&file.rel, &lexed, &mut report.findings);
        let parsed = parse_file(&lexed, &tests);
        prepared.push(Prepared { idx, lexed, tests, allows, parsed });
    }

    // Suppressible findings accumulate per source file, then the escape
    // hatch is applied once with usage tracking (for `unused-allow`).
    let mut raw: Vec<Vec<Finding>> = (0..files.len()).map(|_| Vec::new()).collect();
    for p in &prepared {
        let rel = &files[p.idx].rel;
        if l2_in_scope(rel) {
            check_determinism(rel, &p.lexed, &p.tests, &mut raw[p.idx]);
        }
        check_unsafe_tokens(rel, &p.lexed, &p.tests, &mut raw[p.idx]);
        if in_prefixes(rel, L6_SCOPE) {
            check_lossy_casts(rel, &p.lexed, &p.tests, &mut raw[p.idx]);
        }
        if in_prefixes(rel, L7_SCOPE) {
            check_unit_mixing(rel, &p.lexed, &p.tests, &mut raw[p.idx]);
        }
    }

    check_panic_reachability(files, &prepared, &mut raw, &mut report.findings);
    check_wire_taint_rule(files, &prepared, &mut raw);
    check_sync_rules(files, &prepared, &mut raw);

    for p in &prepared {
        let rel = &files[p.idx].rel;
        let mut used = vec![false; p.allows.len()];
        raw[p.idx].retain(|f| match allow_index(f, &p.allows) {
            Some(a) => {
                used[a] = true;
                false
            }
            None => true,
        });
        report.findings.append(&mut raw[p.idx]);
        for (a, allow) in p.allows.iter().enumerate() {
            if !used[a] {
                report.findings.push(Finding {
                    rule: Rule::UnusedAllow,
                    file: rel.clone(),
                    line: allow.line,
                    message: format!(
                        "`lint: allow({}, ...)` no longer suppresses any finding here; \
                         delete the stale escape hatch so the audit trail stays honest",
                        allow.key
                    ),
                });
            }
        }
    }

    check_crate_roots(files, &prepared, &mut report.findings);
    check_taxonomy(files, &prepared, &mut report.findings);

    report.normalize();
    report
}

/// L8: run the interprocedural wire-taint pass over the same production
/// call graph L5 uses. Findings are suppressible per-site via
/// `lint: allow(taint, "<proof>")`, so they land in the per-file `raw`
/// buckets rather than going straight to the report.
fn check_wire_taint_rule(files: &[FileInput], prepared: &[Prepared], raw: &mut [Vec<Finding>]) {
    let graph_files: Vec<(&str, &ParsedFile)> = prepared
        .iter()
        .filter(|p| graph_scope(&files[p.idx].rel))
        .map(|p| (files[p.idx].rel.as_str(), &p.parsed))
        .collect();
    let graph = CallGraph::build(&graph_files);
    let lexed_by_rel: BTreeMap<&str, &Lexed> = prepared
        .iter()
        .filter(|p| graph_scope(&files[p.idx].rel))
        .map(|p| (files[p.idx].rel.as_str(), &p.lexed))
        .collect();
    let by_rel: BTreeMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.rel.as_str(), i)).collect();
    for t in crate::dataflow::check_wire_taint(&graph, &lexed_by_rel) {
        let Some(&pidx) = by_rel.get(t.rel.as_str()) else { continue };
        raw[pidx].push(Finding {
            rule: Rule::WireTaint,
            file: t.rel,
            line: t.line,
            message: t.message,
        });
    }
}

/// L10/L11: the concurrency-protocol pass. Unlike the L5/L8 call-graph
/// rules this scans *every* input file — the `shims/rayon` pool and the
/// test-support crates hold locks and atomics too, and a deadlock there
/// wedges CI just as hard. Findings are suppressible per-site via
/// `lint: allow(sync, "<proof>")`.
fn check_sync_rules(files: &[FileInput], prepared: &[Prepared], raw: &mut [Vec<Finding>]) {
    let inputs: Vec<crate::sync::SyncInput<'_>> = prepared
        .iter()
        .map(|p| crate::sync::SyncInput {
            rel: files[p.idx].rel.as_str(),
            lexed: &p.lexed,
            tests: &p.tests,
            parsed: &p.parsed,
        })
        .collect();
    let by_rel: BTreeMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.rel.as_str(), i)).collect();
    for t in crate::sync::check_sync(&inputs) {
        let Some(&pidx) = by_rel.get(t.rel.as_str()) else { continue };
        let rule = match t.rule {
            crate::sync::SyncRule::Atomics => Rule::AtomicsDiscipline,
            crate::sync::SyncRule::Locks => Rule::LockDiscipline,
        };
        raw[pidx].push(Finding { rule, file: t.rel, line: t.line, message: t.message });
    }
}

/// The `--sync-report` artifact over the same inputs `lint_files` sees:
/// the atomic/lock inventory and the lock-acquisition-order graph.
pub fn sync_report_json(files: &[FileInput]) -> String {
    let prepared: Vec<(String, Lexed)> =
        files.iter().map(|f| (f.rel.clone(), lex(&f.text))).collect();
    let staged: Vec<(Vec<(u32, u32)>, ParsedFile)> = prepared
        .iter()
        .map(|(_, lexed)| {
            let tests = test_line_ranges(lexed);
            let parsed = parse_file(lexed, &tests);
            (tests, parsed)
        })
        .collect();
    let inputs: Vec<crate::sync::SyncInput<'_>> = prepared
        .iter()
        .zip(&staged)
        .map(|((rel, lexed), (tests, parsed))| crate::sync::SyncInput { rel, lexed, tests, parsed })
        .collect();
    crate::sync::report_json(&inputs)
}

/// `true` when `rel` starts with any of the given path prefixes.
fn in_prefixes(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

/// `true` when `rel` belongs to a crate whose state feeds snapshot digests.
fn l2_in_scope(rel: &str) -> bool {
    match crate_of(rel) {
        Some(name) => !L2_EXEMPT_CRATES.contains(&name),
        None => false,
    }
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
        if !matches!(
            key,
            "panic" | "nondeterminism" | "unsafe" | "cast" | "unit" | "taint" | "sync"
        ) {
            fail(&format!(
                "unknown rule {key:?}; expected `panic`, `nondeterminism`, `unsafe`, \
                 `cast`, `unit`, `taint` or `sync`"
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
    prepared: &[Prepared],
    raw: &mut [Vec<Finding>],
    structural: &mut Vec<Finding>,
) {
    let graph_files: Vec<(&str, &ParsedFile)> = prepared
        .iter()
        .filter(|p| graph_scope(&files[p.idx].rel))
        .map(|p| (files[p.idx].rel.as_str(), &p.parsed))
        .collect();
    let graph = CallGraph::build(&graph_files);

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

    let by_rel: BTreeMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.rel.as_str(), i)).collect();
    let reach = graph.reachable(&roots);
    for &n in &reach.order {
        let node = &graph.nodes[n];
        let Some(&pidx) = by_rel.get(node.rel) else { continue };
        let Some((start, end)) = node.f.body else { continue };
        // A nested fn's tokens sit inside the outer body span but belong to
        // their own node; skip them here so unreachable inner fns are not
        // charged to the outer function.
        let nested: Vec<(usize, usize)> = prepared[pidx]
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
        scan_panic_sites(
            node.rel,
            &prepared[pidx].lexed,
            start,
            end,
            &nested,
            &root_label,
            &path_str,
            &mut raw[pidx],
        );
    }
}

/// Flag the panic sites in one function body token range.
#[allow(clippy::too_many_arguments)]
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

/// L2: no unordered collections, no wall-clock or ambient RNG reads, in
/// crates whose state can reach a snapshot digest.
fn check_determinism(rel: &str, lexed: &Lexed, tests: &[(u32, u32)], out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let line = t.line;
        if in_ranges(tests, line) {
            continue;
        }
        let Tok::Ident(name) = &t.tok else { continue };
        let message = match name.as_str() {
            "HashMap" | "HashSet" => Some(format!(
                "`{name}` iteration order is hash-seed dependent and can leak into \
                 snapshot digests; use `BTreeMap`/`BTreeSet` or sorted iteration"
            )),
            "Instant" | "SystemTime"
                if lexed.is_punct(i + 1, ':')
                    && lexed.is_punct(i + 2, ':')
                    && lexed.ident(i + 3) == Some("now") =>
            {
                Some(format!(
                    "`{name}::now()` makes output depend on wall-clock time; keep timing \
                     in `bench`/`cli` or justify with `lint: allow(nondeterminism, \"...\")`"
                ))
            }
            "thread_rng" => Some(
                "`thread_rng()` is ambiently seeded; thread a seeded RNG through \
                 instead so runs are reproducible"
                    .to_owned(),
            ),
            // Inside the observability crate every monotonic read — not just
            // `::now()` — needs an audited proof that the value stays in
            // telemetry and never reaches snapshot-bearing output, because
            // obs is exactly where clock reads concentrate.
            "elapsed" | "duration_since"
                if rel.starts_with("crates/obs/")
                    && i > 0
                    && lexed.is_punct(i - 1, '.')
                    && lexed.is_punct(i + 1, '(') =>
            {
                Some(format!(
                    "`.{name}()` reads the monotonic clock inside `crates/obs`; prove the \
                     value never feeds snapshot-bearing output with \
                     `lint: allow(nondeterminism, \"...\")`"
                ))
            }
            _ => None,
        };
        if let Some(message) = message {
            out.push(Finding { rule: Rule::Determinism, file: rel.to_owned(), line, message });
        }
    }
}

/// L6: flag `as` casts to narrowing/sign-changing/precision-losing targets.
/// Literal-source casts (`1 as u64`) are compile-time-checkable noise and
/// are skipped; `as f64` is exempt (see [`LOSSY_CAST_TARGETS`]).
fn check_lossy_casts(rel: &str, lexed: &Lexed, tests: &[(u32, u32)], out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if lexed.ident(i) != Some("as") {
            continue;
        }
        let Some(ty) = lexed.ident(i + 1) else { continue };
        if !LOSSY_CAST_TARGETS.contains(&ty) {
            continue;
        }
        let line = toks[i].line;
        if in_ranges(tests, line) {
            continue;
        }
        if i > 0 && matches!(toks[i - 1].tok, Tok::Literal) {
            continue;
        }
        out.push(Finding {
            rule: Rule::LossyCast,
            file: rel.to_owned(),
            line,
            message: format!(
                "`as {ty}` silently truncates, wraps, or drops sign/precision on \
                 out-of-range values; use `{ty}::try_from` with a typed error (or a \
                 lossless `From`), or justify with `lint: allow(cast, \"...\")`"
            ),
        });
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
                     identifier; keep the (duration, volume) feature axes apart via \
                     `mosaic_core::units` newtypes or justify with \
                     `lint: allow(unit, \"...\")`"
                ),
            });
        }
    }
}

/// L3 (token half): any `unsafe` keyword outside test code.
fn check_unsafe_tokens(rel: &str, lexed: &Lexed, tests: &[(u32, u32)], out: &mut Vec<Finding>) {
    for t in &lexed.tokens {
        if matches!(&t.tok, Tok::Ident(name) if name == "unsafe") && !in_ranges(tests, t.line) {
            out.push(Finding {
                rule: Rule::UnsafeHygiene,
                file: rel.to_owned(),
                line: t.line,
                message: "`unsafe` is not used anywhere in this workspace; every crate \
                          forbids it at the root"
                    .to_owned(),
            });
        }
    }
}

/// L3 (structural half): every crate root must declare
/// `#![forbid(unsafe_code)]`.
fn check_crate_roots(files: &[FileInput], prepared: &[Prepared], out: &mut Vec<Finding>) {
    for p in prepared {
        let rel = &files[p.idx].rel;
        if !is_crate_root(rel) {
            continue;
        }
        if !has_forbid_unsafe(&p.lexed) {
            out.push(Finding {
                rule: Rule::UnsafeHygiene,
                file: rel.clone(),
                line: 1,
                message: "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
            });
        }
    }
}

/// A crate root: `crates/<name>/src/lib.rs`, `crates/<name>/src/main.rs`,
/// a shim's `shims/<name>/src/lib.rs`, or the examples package's
/// `examples/lib.rs`.
fn is_crate_root(rel: &str) -> bool {
    if rel == "examples/lib.rs" {
        return true;
    }
    let Some(rest) = rel.strip_prefix("crates/").or_else(|| rel.strip_prefix("shims/")) else {
        return false;
    };
    let mut parts = rest.split('/');
    let (_name, src, file, end) = (parts.next(), parts.next(), parts.next(), parts.next());
    src == Some("src") && matches!(file, Some("lib.rs") | Some("main.rs")) && end.is_none()
}

/// Match the token sequence `# ! [ forbid ( unsafe_code ) ]`.
fn has_forbid_unsafe(lexed: &Lexed) -> bool {
    (0..lexed.tokens.len()).any(|i| {
        lexed.is_punct(i, '#')
            && lexed.is_punct(i + 1, '!')
            && lexed.is_punct(i + 2, '[')
            && lexed.ident(i + 3) == Some("forbid")
            && lexed.is_punct(i + 4, '(')
            && lexed.ident(i + 5) == Some("unsafe_code")
            && lexed.is_punct(i + 6, ')')
            && lexed.is_punct(i + 7, ']')
    })
}

/// L4: every `EvictReason` variant constructed anywhere must be accounted
/// for, by name, in the taxonomy's `class` and `slug` matches — and those
/// matches may not hide behind a `_` wildcard. This is what keeps
/// `by_reason` counters from ever silently dropping a reason.
fn check_taxonomy(files: &[FileInput], prepared: &[Prepared], out: &mut Vec<Finding>) {
    let taxonomy = prepared.iter().find(|p| files[p.idx].rel == TAXONOMY_FILE);
    let Some(tax_lexed) = taxonomy.map(|p| &p.lexed) else {
        // Only demand the taxonomy file when its crate is in the input set
        // (so in-memory fixture runs against other crates stay quiet).
        if files.iter().any(|f| f.rel.starts_with("crates/darshan/src/")) {
            out.push(Finding {
                rule: Rule::Taxonomy,
                file: TAXONOMY_FILE.to_owned(),
                line: 1,
                message: format!("taxonomy file with `enum {TAXONOMY_ENUM}` not found"),
            });
        }
        return;
    };

    let Some(declared) = enum_variants(tax_lexed, TAXONOMY_ENUM) else {
        out.push(Finding {
            rule: Rule::Taxonomy,
            file: TAXONOMY_FILE.to_owned(),
            line: 1,
            message: format!("`enum {TAXONOMY_ENUM}` not found in {TAXONOMY_FILE}"),
        });
        return;
    };

    let Some(impl_range) = inherent_impl_range(tax_lexed, TAXONOMY_ENUM) else {
        out.push(Finding {
            rule: Rule::Taxonomy,
            file: TAXONOMY_FILE.to_owned(),
            line: 1,
            message: format!("`impl {TAXONOMY_ENUM}` block not found in {TAXONOMY_FILE}"),
        });
        return;
    };

    let mut accounted: Vec<(String, Vec<String>)> = Vec::new();
    for fn_name in TAXONOMY_FNS {
        match fn_body_range(tax_lexed, fn_name, impl_range) {
            Some((start, end)) => {
                let covered = variant_refs_in(tax_lexed, start, end, TAXONOMY_ENUM);
                if wildcard_arm_in(tax_lexed, start, end) {
                    out.push(Finding {
                        rule: Rule::Taxonomy,
                        file: TAXONOMY_FILE.to_owned(),
                        line: tax_lexed.tokens[start].line,
                        message: format!(
                            "`{TAXONOMY_ENUM}::{fn_name}` uses a `_` wildcard arm — a new \
                             variant could silently fall through the accounting; name \
                             every variant"
                        ),
                    });
                }
                for (variant, line) in &declared {
                    if !covered.iter().any(|c| c == variant) {
                        out.push(Finding {
                            rule: Rule::Taxonomy,
                            file: TAXONOMY_FILE.to_owned(),
                            line: *line,
                            message: format!(
                                "variant `{TAXONOMY_ENUM}::{variant}` is missing from the \
                                 `{fn_name}` accounting match"
                            ),
                        });
                    }
                }
                accounted.push(((*fn_name).to_owned(), covered));
            }
            None => out.push(Finding {
                rule: Rule::Taxonomy,
                file: TAXONOMY_FILE.to_owned(),
                line: 1,
                message: format!("accounting fn `{fn_name}` not found in {TAXONOMY_FILE}"),
            }),
        }
    }

    // Every construction site across the workspace must name a declared,
    // accounted variant.
    for p in prepared {
        let rel = &files[p.idx].rel;
        let lexed = &p.lexed;
        for i in 0..lexed.tokens.len() {
            let Some(variant) = variant_ref_at(lexed, i, TAXONOMY_ENUM) else { continue };
            let line = lexed.tokens[i].line;
            if !declared.iter().any(|(v, _)| *v == variant) {
                out.push(Finding {
                    rule: Rule::Taxonomy,
                    file: rel.clone(),
                    line,
                    message: format!(
                        "`{TAXONOMY_ENUM}::{variant}` is not a declared variant of the \
                         taxonomy"
                    ),
                });
                continue;
            }
            for (fn_name, covered) in &accounted {
                if !covered.contains(&variant) {
                    out.push(Finding {
                        rule: Rule::Taxonomy,
                        file: rel.clone(),
                        line,
                        message: format!(
                            "`{TAXONOMY_ENUM}::{variant}` is constructed here but missing \
                             from the `{fn_name}` accounting match in {TAXONOMY_FILE}"
                        ),
                    });
                }
            }
        }
    }
}

/// The variants of `enum <name> { … }` as `(variant, line)`, or `None` when
/// the enum is absent.
fn enum_variants(lexed: &Lexed, name: &str) -> Option<Vec<(String, u32)>> {
    let toks = &lexed.tokens;
    let start = (0..toks.len())
        .find(|&i| lexed.ident(i) == Some("enum") && lexed.ident(i + 1) == Some(name))?;
    let open = (start..toks.len()).find(|&i| lexed.is_punct(i, '{'))?;
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('{') | Tok::Punct('(') => depth += 1,
            Tok::Punct('}') | Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Ident(v) if depth == 1 => {
                // A variant name directly follows `{` or `,` at depth 1
                // (attributes on variants would need more care; the
                // taxonomy has none).
                let after_sep = lexed.is_punct(i - 1, '{') || lexed.is_punct(i - 1, ',');
                if after_sep {
                    variants.push((v.clone(), toks[i].line));
                }
            }
            _ => {}
        }
        i += 1;
    }
    Some(variants)
}

/// Token range of the body of the inherent `impl <name> { … }` block
/// (other `fn slug`s exist in the file — `ValidityError` has one too — so
/// accounting fns are only looked up inside the taxonomy's own impl).
fn inherent_impl_range(lexed: &Lexed, name: &str) -> Option<(usize, usize)> {
    let toks = &lexed.tokens;
    let open = (0..toks.len()).find(|&i| {
        lexed.ident(i) == Some("impl")
            && lexed.ident(i + 1) == Some(name)
            && lexed.is_punct(i + 2, '{')
    })? + 2;
    let mut depth = 0i32;
    for i in open..toks.len() {
        if lexed.is_punct(i, '{') {
            depth += 1;
        } else if lexed.is_punct(i, '}') {
            depth -= 1;
            if depth == 0 {
                return Some((open + 1, i));
            }
        }
    }
    None
}

/// Token range (exclusive of the braces) of the body of `fn <name>`,
/// searched within `(start, end)`.
fn fn_body_range(
    lexed: &Lexed,
    name: &str,
    (start, end): (usize, usize),
) -> Option<(usize, usize)> {
    let toks = &lexed.tokens;
    let fn_idx =
        (start..end).find(|&i| lexed.ident(i) == Some("fn") && lexed.ident(i + 1) == Some(name))?;
    let open = (fn_idx..toks.len()).find(|&i| lexed.is_punct(i, '{'))?;
    let mut depth = 0i32;
    for i in open..toks.len() {
        if lexed.is_punct(i, '{') {
            depth += 1;
        } else if lexed.is_punct(i, '}') {
            depth -= 1;
            if depth == 0 {
                return Some((open + 1, i));
            }
        }
    }
    None
}

/// `Enum::Variant` references (capitalized) inside a token range.
fn variant_refs_in(lexed: &Lexed, start: usize, end: usize, enum_name: &str) -> Vec<String> {
    let mut refs = Vec::new();
    for i in start..end {
        if let Some(v) = variant_ref_at(lexed, i, enum_name) {
            if !refs.contains(&v) {
                refs.push(v);
            }
        }
    }
    refs
}

/// The variant named by the `Enum :: Variant` sequence starting at `i`.
fn variant_ref_at(lexed: &Lexed, i: usize, enum_name: &str) -> Option<String> {
    if lexed.ident(i) != Some(enum_name)
        || !lexed.is_punct(i + 1, ':')
        || !lexed.is_punct(i + 2, ':')
    {
        return None;
    }
    let next = lexed.ident(i + 3)?;
    // Associated functions (`EvictReason::from_str`) start lowercase.
    next.chars().next().filter(char::is_ascii_uppercase)?;
    Some(next.to_owned())
}

/// A `_ =>` match arm inside a token range.
fn wildcard_arm_in(lexed: &Lexed, start: usize, end: usize) -> bool {
    (start..end).any(|i| {
        lexed.ident(i) == Some("_") && lexed.is_punct(i + 1, '=') && lexed.is_punct(i + 2, '>')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(rel: &str, text: &str) -> Vec<Finding> {
        lint_files(&[FileInput { rel: rel.to_owned(), text: text.to_owned() }]).findings
    }

    /// Findings of one rule only — the single-file tests below exercise one
    /// rule at a time, and a lone darshan file also (correctly) trips the
    /// L4 "taxonomy file required" check.
    fn lint_rule(rel: &str, text: &str, rule: Rule) -> Vec<Finding> {
        let mut f = lint_one(rel, text);
        f.retain(|f| f.rule == rule);
        f
    }

    const L5_FILE: &str = "crates/darshan/src/mdf.rs";
    const L2_FILE: &str = "crates/core/src/merge.rs";

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

    #[test]
    fn allow_key_must_match_the_rule() {
        let src =
            "pub fn from_bytes(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(nondeterminism, \"wrong key\")\n";
        let f = lint_one(L5_FILE, src);
        assert!(f.iter().any(|f| f.rule == Rule::PanicReachability), "{f:?}");
        // The wrong-keyed allow suppressed nothing, so it is also stale.
        assert!(f.iter().any(|f| f.rule == Rule::UnusedAllow), "{f:?}");
    }

    #[test]
    fn l6_flags_narrowing_casts_but_not_f64_or_literals() {
        let src = "\
pub fn from_bytes(n: u64, f: f64) -> u32 {
    let a = n as u32;
    let b = n as f64;
    let c = 7 as u64;
    let d = f as f32;
    let _ = (b, c, d);
    a
}
";
        let f = lint_rule(L5_FILE, src, Rule::LossyCast);
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 5);
        assert!(f[0].message.contains("u32::try_from"), "{}", f[0].message);
    }

    #[test]
    fn l6_allow_suppresses_an_audited_cast() {
        let src = "pub fn from_bytes(n: u64) -> u32 { n as u32 } // lint: allow(cast, \"n <= u32::MAX by header clamp\")\n";
        assert!(lint_rule(L5_FILE, src, Rule::LossyCast).is_empty());
        assert!(lint_rule(L5_FILE, src, Rule::UnusedAllow).is_empty());
    }

    #[test]
    fn l6_is_scoped_to_parse_merge_categorize_paths() {
        let src = "pub fn render(n: u64) -> u32 { n as u32 }\n";
        assert!(lint_one("crates/viz/src/bars.rs", src).is_empty());
        assert!(lint_one("crates/cli/src/table.rs", src).is_empty());
    }

    #[test]
    fn l6_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = 300u64 as u8; }\n}\n";
        assert!(lint_rule(L2_FILE, src, Rule::LossyCast).is_empty());
    }

    #[test]
    fn l7_flags_mixed_unit_arithmetic() {
        let src = "pub fn f(duration: f64, bytes: f64) -> f64 { duration + bytes }\n";
        let f = lint_rule(L2_FILE, src, Rule::UnitMix);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("seconds/duration"), "{}", f[0].message);
        assert!(f[0].message.contains("byte-volume"), "{}", f[0].message);
    }

    #[test]
    fn l7_classifies_field_chains_by_their_last_segment() {
        let src = "pub fn f(s: &Seg) -> f64 { s.window.end_time - s.total_bytes }\n";
        let f = lint_rule(L2_FILE, src, Rule::UnitMix);
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
        assert!(lint_rule(L2_FILE, src, Rule::UnitMix).is_empty());
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
        assert!(lint_rule(L2_FILE, src, Rule::UnitMix).is_empty());
    }

    #[test]
    fn l7_allow_suppresses_audited_mixing() {
        let src = "pub fn f(duration: f64, bytes: f64) -> f64 { duration + bytes } // lint: allow(unit, \"log-scaled composite score, dimensionless\")\n";
        assert!(lint_rule(L2_FILE, src, Rule::UnitMix).is_empty());
    }

    #[test]
    fn l2_flags_hash_collections_and_wall_clock() {
        let src = "use std::collections::HashMap;\nfn f() {\n    let m: HashMap<u8, u8> = HashMap::new();\n    let t = std::time::Instant::now();\n    let _ = (m, t);\n}\n";
        let f = lint_one(L2_FILE, src);
        assert!(f.iter().filter(|f| f.rule == Rule::Determinism).count() >= 3, "{f:?}");
    }

    #[test]
    fn l2_exempt_crates_may_use_hashmaps_and_clocks() {
        let src = "use std::collections::HashMap;\nfn f() { let _ = std::time::Instant::now(); }\n";
        assert!(lint_one("crates/cli/src/args.rs", src).is_empty());
        assert!(lint_one("crates/bench/src/run.rs", src).is_empty());
    }

    #[test]
    fn l2_monotonic_reads_are_flagged_only_inside_obs() {
        let src = "fn f(t: std::time::Instant, u: std::time::Instant) -> u128 {\n    t.elapsed().as_nanos() + u.duration_since(t).as_nanos()\n}\n";
        // Outside crates/obs, `.elapsed()`/`.duration_since()` stay quiet.
        assert!(lint_one(L2_FILE, src).is_empty());
        // Inside (a non-root file: a crate root would also trip L3), both
        // are L2 findings...
        let f = lint_one("crates/obs/src/trace.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == Rule::Determinism).count(), 2, "{f:?}");
        // ...and an audited allow on the preceding line discharges them.
        let audited = "fn f(t: std::time::Instant) -> u128 {\n    // lint: allow(nondeterminism, \"telemetry only\")\n    t.elapsed().as_nanos()\n}\n";
        assert!(lint_one("crates/obs/src/trace.rs", audited).is_empty());
        // A field access named `elapsed` (no call parens) is not a read.
        let field = "struct S { elapsed: u64 }\nfn f(s: &S) -> u64 { s.elapsed }\n";
        assert!(lint_one("crates/obs/src/trace.rs", field).is_empty());
    }

    #[test]
    fn l2_flags_thread_rng_but_not_seeded_rngs() {
        let src = "fn f() { let r = thread_rng(); }\n";
        assert_eq!(lint_one(L2_FILE, src).len(), 1);
        let seeded = "fn f() { let r = StdRng::seed_from_u64(42); }\n";
        assert!(lint_one(L2_FILE, seeded).is_empty());
    }

    #[test]
    fn l3_missing_forbid_on_crate_root() {
        let src = "//! A crate.\npub fn f() {}\n";
        let f = lint_one("crates/demo/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnsafeHygiene);
        let fixed = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(lint_one("crates/demo/src/lib.rs", fixed).is_empty());
    }

    #[test]
    fn l3_flags_unsafe_blocks_anywhere() {
        let src = "#![forbid(unsafe_code)]\npub fn f() { let _ = 1; }\nfn g() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let f = lint_one("crates/demo/src/lib.rs", src);
        assert!(f.iter().any(|f| f.rule == Rule::UnsafeHygiene && f.line == 3), "{f:?}");
    }

    #[test]
    fn l3_non_root_files_do_not_need_the_attribute() {
        let src = "pub fn helper() {}\n";
        assert!(lint_one("crates/demo/src/helper.rs", src).is_empty());
    }

    const TAXONOMY_OK: &str = "\
pub enum EvictReason {
    IoError,
    BadMagic,
    ValidationFatal(ValidityError),
}
impl EvictReason {
    pub fn class(self) -> EvictClass {
        match self {
            EvictReason::IoError => EvictClass::Io,
            EvictReason::BadMagic => EvictClass::Format,
            EvictReason::ValidationFatal(_) => EvictClass::Validation,
        }
    }
    pub fn slug(self) -> String {
        match self {
            EvictReason::IoError => \"io_error\".to_owned(),
            EvictReason::BadMagic => \"bad_magic\".to_owned(),
            EvictReason::ValidationFatal(r) => r.slug(),
        }
    }
}
";

    /// Satisfies the L5 roots whose files are named in multi-file L4 tests.
    const DARSHAN_ROOTS_OK: &str = "pub fn from_bytes(d: &[u8]) -> u8 { 0 }\n";

    #[test]
    fn l4_clean_taxonomy_passes() {
        let files = [
            FileInput { rel: TAXONOMY_FILE.to_owned(), text: TAXONOMY_OK.to_owned() },
            FileInput {
                rel: "crates/pipeline/src/x.rs".to_owned(),
                text: "fn f() -> EvictReason { EvictReason::BadMagic }\n".to_owned(),
            },
        ];
        let r = lint_files(&files);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn l4_variant_missing_from_accounting_match() {
        let broken = TAXONOMY_OK.replace("EvictReason::BadMagic => EvictClass::Format,\n", "");
        let files = [FileInput { rel: TAXONOMY_FILE.to_owned(), text: broken }];
        let f = lint_files(&files).findings;
        assert!(
            f.iter().any(|f| f.rule == Rule::Taxonomy && f.message.contains("`class`")),
            "{f:?}"
        );
    }

    #[test]
    fn l4_wildcard_arm_is_a_finding() {
        let broken = TAXONOMY_OK.replace(
            "EvictReason::ValidationFatal(_) => EvictClass::Validation,",
            "_ => EvictClass::Validation,",
        );
        let files = [FileInput { rel: TAXONOMY_FILE.to_owned(), text: broken }];
        let f = lint_files(&files).findings;
        assert!(f.iter().any(|f| f.message.contains("wildcard")), "{f:?}");
    }

    #[test]
    fn l4_constructing_an_undeclared_variant_is_flagged_at_the_site() {
        let files = [
            FileInput { rel: TAXONOMY_FILE.to_owned(), text: TAXONOMY_OK.to_owned() },
            FileInput {
                rel: "crates/pipeline/src/x.rs".to_owned(),
                text: "fn f() -> EvictReason { EvictReason::CosmicRays }\n".to_owned(),
            },
        ];
        let f = lint_files(&files).findings;
        assert!(
            f.iter().any(|f| f.rule == Rule::Taxonomy
                && f.file == "crates/pipeline/src/x.rs"
                && f.message.contains("CosmicRays")),
            "{f:?}"
        );
    }

    #[test]
    fn l4_taxonomy_file_required_when_darshan_present() {
        let files = [FileInput { rel: L5_FILE.to_owned(), text: DARSHAN_ROOTS_OK.to_owned() }];
        let f = lint_files(&files).findings;
        assert!(f.iter().any(|f| f.rule == Rule::Taxonomy), "{f:?}");
    }
}
