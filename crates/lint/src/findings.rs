//! Finding types and the two output formats (human text, stable JSON).

use std::fmt;

/// Which invariant a finding violates. The numbers missing here (L2
/// determinism, L3 unsafe, L4 `EvictReason` exhaustiveness, L6 lossy casts)
/// are rustc's and clippy's; see CONTRIBUTING.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L5 — transitive panic-reachability: no panic site in any function
    /// reachable (over the workspace call graph) from an untrusted-input
    /// entry point. Supersedes the old per-file L1 allowlist.
    PanicReachability,
    /// L7 — unit consistency: no `+`/`-` arithmetic mixing byte-volume and
    /// seconds-duration identifiers.
    UnitMix,
    /// L8 — wire-taint dataflow: a length read off the wire must be
    /// compared against a named `limits::MAX_*` guard constant before it
    /// sizes an allocation (`with_capacity`, `reserve`, `vec![x; n]`,
    /// slice-range bounds), on every interprocedural path.
    WireTaint,
    /// L10 — atomics discipline: every `store(Release)` pairs with a
    /// `load(Acquire)` on the same atomic (and vice versa); `Relaxed` is
    /// reserved for counters whose loaded value never guards a read of
    /// non-atomic shared data; the seqlock write bracket (odd before the
    /// payload, even-with-Release after it, Acquire + fence on the reader
    /// re-check) is verified structurally.
    AtomicsDiscipline,
    /// L11 — lock discipline: no `MutexGuard` live across a
    /// `par_*`/`pool.install`/blocking-IO call, the workspace
    /// lock-acquisition-order graph is acyclic, and `lock()` results use
    /// the `PoisonError::into_inner` idiom instead of `unwrap`.
    LockDiscipline,
    /// A `lint: allow(...)` escape hatch that does not parse or lacks a
    /// justification — the hatch itself must be auditable.
    MalformedAllow,
    /// A well-formed `lint: allow(...)` that no longer suppresses any
    /// finding — stale escape hatches must be deleted, not accumulated.
    UnusedAllow,
}

impl Rule {
    /// Stable machine-readable identifier.
    pub fn id(self) -> &'static str {
        match self {
            Rule::PanicReachability => "L5/panic-reachability",
            Rule::UnitMix => "L7/unit-consistency",
            Rule::WireTaint => "L8/wire-taint",
            Rule::AtomicsDiscipline => "L10/atomics-discipline",
            Rule::LockDiscipline => "L11/lock-discipline",
            Rule::MalformedAllow => "allow-syntax",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    /// The `lint: allow(<key>, "...")` key that can suppress this rule, if
    /// any. The allow machinery itself has no per-line escape hatch.
    pub fn allow_key(self) -> Option<&'static str> {
        match self {
            Rule::PanicReachability => Some("panic"),
            Rule::UnitMix => Some("unit"),
            Rule::WireTaint => Some("taint"),
            Rule::AtomicsDiscipline | Rule::LockDiscipline => Some("sync"),
            Rule::MalformedAllow | Rule::UnusedAllow => None,
        }
    }

    /// One-line rule description for report metadata (SARIF `rules` table).
    pub fn short_description(self) -> &'static str {
        match self {
            Rule::PanicReachability => {
                "No panic site reachable from an untrusted-input entry point"
            }
            Rule::UnitMix => "No arithmetic mixing byte-volume and seconds identifiers",
            Rule::WireTaint => {
                "Wire-read lengths must be MAX_*-guard-dominated before sizing allocations"
            }
            Rule::AtomicsDiscipline => {
                "Release/Acquire pairing, seqlock brackets and Relaxed hygiene on atomics"
            }
            Rule::LockDiscipline => {
                "No guard live across fan-out, acyclic lock order, PoisonError::into_inner"
            }
            Rule::MalformedAllow => "lint: allow(...) must parse and carry a justification",
            Rule::UnusedAllow => "lint: allow(...) that suppresses nothing must be deleted",
        }
    }
}

/// Every rule, in report order — keep in sync with the `Rule` enum.
pub const ALL_RULES: &[Rule] = &[
    Rule::PanicReachability,
    Rule::UnitMix,
    Rule::WireTaint,
    Rule::AtomicsDiscipline,
    Rule::LockDiscipline,
    Rule::MalformedAllow,
    Rule::UnusedAllow,
];

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation, anchored to a `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// What was found and why it matters.
    pub message: String,
}

/// The result of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sort findings into the stable output order.
    pub fn normalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
        self.findings.dedup();
    }

    /// `true` when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human diagnostics: one `file:line: [rule] message` per finding plus a
    /// summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{}:{}: [{}] {}\n", f.file, f.line, f.rule.id(), f.message));
        }
        out.push_str(&format!(
            "{} finding(s) in {} file(s) scanned\n",
            self.findings.len(),
            self.files_scanned
        ));
        out
    }

    /// Stable machine-readable JSON. Hand-rolled (this crate is
    /// dependency-free); keys are emitted in a fixed order and findings are
    /// pre-sorted, so equal reports are byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(f.rule.id()),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"summary\": {{\"files_scanned\": {}, \"findings\": {}}}\n}}\n",
            self.files_scanned,
            self.findings.len()
        ));
        out
    }

    /// Stable SARIF 2.1.0 document. Hand-rolled like [`Report::to_json`]:
    /// fixed key order, pre-sorted findings, the full rule table always
    /// present — equal reports are byte-identical, so the CI artifact diffs
    /// cleanly between runs.
    pub fn to_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
             \"driver\": {\n          \"name\": \"mosaic-lint\",\n          \
             \"informationUri\": \"https://github.com/mosaic/mosaic\",\n          \"rules\": [",
        );
        for (i, r) in ALL_RULES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
                json_str(r.id()),
                json_str(r.short_description())
            ));
        }
        out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": \
                 {}}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                 {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
                json_str(f.rule.id()),
                json_str(&f.message),
                json_str(&f.file),
                f.line
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }
}

/// Escape a string as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            findings: vec![
                Finding {
                    rule: Rule::UnitMix,
                    file: "b.rs".into(),
                    line: 2,
                    message: "duration + bytes".into(),
                },
                Finding {
                    rule: Rule::PanicReachability,
                    file: "a.rs".into(),
                    line: 9,
                    message: "`.unwrap()`".into(),
                },
            ],
            files_scanned: 2,
        };
        r.normalize();
        r
    }

    #[test]
    fn findings_are_sorted_by_file_then_line() {
        let r = sample();
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.findings[1].file, "b.rs");
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut r = sample();
        r.findings.push(Finding {
            rule: Rule::WireTaint,
            file: "c.rs".into(),
            line: 1,
            message: "quote \" backslash \\ newline \n".into(),
        });
        r.normalize();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\\\" backslash \\\\ newline \\n"));
        assert!(a.contains("\"files_scanned\": 2"));
        assert!(a.contains("\"L8/wire-taint\""));
    }

    #[test]
    fn empty_report_renders_cleanly() {
        let r = Report::default();
        assert!(r.is_clean());
        assert!(r.to_json().contains("\"findings\": []"));
        assert!(r.render_text().contains("0 finding(s)"));
    }

    #[test]
    fn text_has_clickable_anchors() {
        let text = sample().render_text();
        assert!(text.contains("a.rs:9: [L5/panic-reachability]"));
    }

    #[test]
    fn every_rule_id_is_unique() {
        for (i, a) in ALL_RULES.iter().enumerate() {
            for b in &ALL_RULES[i + 1..] {
                assert_ne!(a.id(), b.id());
            }
        }
    }

    /// SARIF's rule table lists exactly the rules this linter still owns.
    #[test]
    fn sarif_lists_exactly_the_kept_rules() {
        let sarif = Report::default().to_sarif();
        let ids: Vec<&str> = sarif
            .match_indices("{\"id\": \"")
            .map(|(at, m)| {
                let rest = &sarif[at + m.len()..];
                &rest[..rest.find('"').unwrap_or(0)]
            })
            .collect();
        assert_eq!(
            ids,
            [
                "L5/panic-reachability",
                "L7/unit-consistency",
                "L8/wire-taint",
                "L10/atomics-discipline",
                "L11/lock-discipline",
                "allow-syntax",
                "unused-allow",
            ]
        );
    }
}
