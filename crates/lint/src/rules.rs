//! The Mosaic-specific invariant rules (L7, L10, L11) and the escape
//! hatch.
//!
//! The scope of L7 — the crates holding the (duration, volume) feature
//! math — is named next to the rule; L10 and L11 live in [`crate::sync`].

use crate::findings::{Finding, Report, Rule, ALL_RULES};
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
    // Suppressible findings from every rule; the escape hatch is applied
    // below, once per file, with usage tracking (for `unused-allow`).
    let mut found = Vec::new();
    for (file, p) in files.iter().zip(&prepared) {
        if in_prefixes(&file.rel, L7_SCOPE) {
            check_unit_mixing(&file.rel, &p.lexed, &p.tests, &mut found);
        }
    }
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
                "unknown rule {key:?}; expected `unit` or `sync` \
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

    const L7_FILE: &str = "crates/core/src/merge.rs";

    /// A line of L7-flagged arithmetic, the vehicle for the escape-hatch
    /// tests below.
    const MIX: &str = "pub fn f(duration: f64, bytes: f64) -> f64 { duration + bytes }";

    #[test]
    fn justified_allow_suppresses_same_or_next_line() {
        let trailing = format!("{MIX} // lint: allow(unit, \"dimensionless score\")\n");
        assert!(lint_rule(L7_FILE, &trailing, Rule::UnitMix).is_empty());
        assert!(lint_rule(L7_FILE, &trailing, Rule::MalformedAllow).is_empty());
        assert!(lint_rule(L7_FILE, &trailing, Rule::UnusedAllow).is_empty());
        let preceding = format!("// lint: allow(unit, \"dimensionless score\")\n{MIX}\n");
        assert!(lint_rule(L7_FILE, &preceding, Rule::UnitMix).is_empty());
    }

    #[test]
    fn unused_allow_is_itself_a_finding() {
        let src = "pub fn f(a: f64) -> f64 { a + 1.0 } // lint: allow(unit, \"stale claim\")\n";
        let f = lint_rule(L7_FILE, src, Rule::UnusedAllow);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("allow(unit"), "{}", f[0].message);
    }

    #[test]
    fn allow_missing_justification_is_itself_a_finding() {
        let src = format!("{MIX} // lint: allow(unit)\n");
        let f = lint_one(L7_FILE, &src);
        assert!(f.iter().any(|f| f.rule == Rule::MalformedAllow), "{f:?}");
        // …and it does NOT suppress the mix.
        assert!(f.iter().any(|f| f.rule == Rule::UnitMix), "{f:?}");
    }

    #[test]
    fn allow_with_empty_or_unquoted_justification_is_malformed() {
        for bad in [
            "// lint: allow(unit, \"\")",
            "// lint: allow(unit, because reasons)",
            "// lint: allow(frobnication, \"x\")",
            "// lint: allowance",
        ] {
            let src = format!("pub fn f() {{}}\n{bad}\n");
            let f = lint_one(L7_FILE, &src);
            assert!(
                f.iter().any(|f| f.rule == Rule::MalformedAllow),
                "{bad} should be malformed: {f:?}"
            );
        }
    }

    /// The keys of the rules handed to clippy (L2 `nondeterminism`, L3
    /// `unsafe`, L5 `panic`, L6 `cast`) and of L8 (`taint`, now bounded in
    /// the parsers) are gone: such a comment is malformed and points at the
    /// `#[expect]` that replaced it.
    #[test]
    fn retired_allow_keys_are_malformed() {
        for key in ["nondeterminism", "unsafe", "cast", "panic", "taint"] {
            let src = format!("pub fn f() {{}}\n// lint: allow({key}, \"proof\")\n");
            let f = lint_rule(L7_FILE, &src, Rule::MalformedAllow);
            assert_eq!(f.len(), 1, "{key}: {f:?}");
            assert!(f[0].message.contains("#[expect(clippy::"), "{}", f[0].message);
        }
    }

    /// The escape-hatch keys are the kept rules' own, and the parser's
    /// error names each of them.
    #[test]
    fn kept_allow_keys_are_exactly_unit_and_sync() {
        let keys: Vec<&str> = ALL_RULES.iter().filter_map(|r| r.allow_key()).collect();
        assert_eq!(keys, ["unit", "sync", "sync"]);
        for key in ["unit", "sync"] {
            let src = format!("pub fn f() {{}}\n// lint: allow({key}, \"proof\")\n");
            assert!(lint_rule(L7_FILE, &src, Rule::MalformedAllow).is_empty(), "{key}");
        }
        let f = lint_rule(L7_FILE, "// lint: allow(bogus, \"x\")\n", Rule::MalformedAllow);
        assert_eq!(f.len(), 1, "{f:?}");
        for key in ["unit", "sync"] {
            assert!(f[0].message.contains(&format!("`{key}`")), "{}", f[0].message);
        }
    }

    #[test]
    fn allow_key_must_match_the_rule() {
        let src = format!("{MIX} // lint: allow(sync, \"wrong key\")\n");
        let f = lint_one(L7_FILE, &src);
        assert!(f.iter().any(|f| f.rule == Rule::UnitMix), "{f:?}");
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
