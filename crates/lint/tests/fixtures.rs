//! Fixture-based self-tests: each known-bad snippet in `tests/fixtures/`
//! must produce findings of its rule, and the real workspace must be
//! clean end-to-end through the CLI driver. (`tests/fixtures/clippy/` is a
//! crate of snippets for the rules clippy enforces; CI checks it.)

use mosaic_lint::{cli_main, find_workspace_root, lint_files, FileInput, Rule, EXIT_FINDINGS};
use std::path::PathBuf;

/// The `tests/fixtures/` directory, whether the test runs under cargo or
/// a bare `rustc`-built binary.
fn fixture_dir() -> PathBuf {
    if let Some(manifest) = option_env!("CARGO_MANIFEST_DIR") {
        return PathBuf::from(manifest).join("tests/fixtures");
    }
    let cwd = std::env::current_dir().expect("no working directory");
    let root = find_workspace_root(&cwd).expect("workspace root not found");
    root.join("crates/lint/tests/fixtures")
}

/// Lint one fixture file under a pretend workspace-relative path.
fn lint_fixture(fixture: &str, pretend_rel: &str) -> Vec<(Rule, u32, String)> {
    lint_fixture_set(&[(fixture, pretend_rel)]).into_iter().map(|(r, _, l, m)| (r, l, m)).collect()
}

/// Lint several fixture files together (for the cross-file rules),
/// each under its pretend workspace-relative path.
fn lint_fixture_set(pairs: &[(&str, &str)]) -> Vec<(Rule, String, u32, String)> {
    let dir = fixture_dir();
    let inputs: Vec<FileInput> = pairs
        .iter()
        .map(|(fixture, pretend_rel)| {
            let path = dir.join(fixture);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            FileInput { rel: (*pretend_rel).to_owned(), text }
        })
        .collect();
    let report = lint_files(&inputs);
    report.findings.into_iter().map(|f| (f.rule, f.file, f.line, f.message)).collect()
}

#[test]
fn l5_fixture_reports_the_two_hop_call_path() {
    let findings = lint_fixture("l5_panic.rs", "crates/darshan/src/mdf.rs");
    let l5: Vec<_> = findings.iter().filter(|(r, ..)| *r == Rule::PanicReachability).collect();
    // Indexing and `.unwrap()` in the root, plus the `panic!` two hops down.
    assert!(l5.len() >= 3, "{findings:?}");
    let deep = l5
        .iter()
        .find(|(_, _, m)| m.contains("panic!"))
        .unwrap_or_else(|| panic!("no panic! finding in {findings:?}"));
    assert!(
        deep.2.contains("mdf::from_bytes -> mdf::helper -> mdf::deep"),
        "call path missing from: {}",
        deep.2
    );
}

#[test]
fn renaming_an_entry_point_is_itself_a_finding() {
    // `unused_allow.rs` has no `from_bytes`, so pretending it is mdf.rs
    // must flag the missing L5 root (the roots list cannot silently rot).
    let findings = lint_fixture("unused_allow.rs", "crates/darshan/src/mdf.rs");
    assert!(
        findings.iter().any(|(r, _, m)| *r == Rule::PanicReachability && m.contains("entry point")),
        "{findings:?}"
    );
}

#[test]
fn l7_fixture_trips_unit_mixing_and_honours_the_audit() {
    let findings = lint_fixture("l7_units.rs", "crates/core/src/merge.rs");
    let l7: Vec<_> = findings.iter().filter(|(r, ..)| *r == Rule::UnitMix).collect();
    // volume+time and time-volume flagged; the audited mix suppressed;
    // volume+volume quiet.
    assert_eq!(l7.len(), 2, "{findings:?}");
    assert!(
        !findings.iter().any(|(r, ..)| *r == Rule::UnusedAllow),
        "the audited mix must consume its allow: {findings:?}"
    );
}

#[test]
fn l8_fixture_flags_each_unguarded_sink_with_its_taint_path() {
    let findings = lint_fixture("l8_taint.rs", "crates/darshan/src/mdf.rs");
    let l8: Vec<_> = findings.iter().filter(|(r, ..)| *r == Rule::WireTaint).collect();
    // Unguarded root, wrong-branch guard, two-hop return, hidden-sink
    // helper, `vec![x; n]`, and the slice-range bound — nothing else.
    assert_eq!(l8.len(), 6, "{findings:?}");
    // Every finding walks all the way back to the wire read.
    assert!(
        l8.iter()
            .all(|(_, _, m)| m.contains("taint path:") && m.contains("wire read `get_u32_le`")),
        "{l8:?}"
    );
    // The two-hop case names the returning helper, the hidden-sink case
    // the allocating one.
    assert!(l8.iter().any(|(_, _, m)| m.contains("returned by")), "{l8:?}");
    assert!(l8.iter().any(|(_, _, m)| m.contains("alloc_records")), "{l8:?}");
    // `guarded` and `audited` are quiet; the stale audit is itself flagged.
    let stale: Vec<_> = findings.iter().filter(|(r, ..)| *r == Rule::UnusedAllow).collect();
    assert_eq!(stale.len(), 1, "{findings:?}");
}

/// L8 covers the one MDF parser: the real `view.rs` is quiet, and the same
/// file with its `n_names > MAX_NAMES` guard deleted yields exactly one
/// finding, at the name-id allocation the guard protects.
#[test]
fn l8_flags_the_parser_when_its_name_count_guard_is_deleted() {
    let path = fixture_dir().join("../../../darshan/src/view.rs");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let guard = "if n_names > MAX_NAMES {";
    let start = text.find(guard).expect("view.rs has a name-count guard");
    let end = start + text[start..].find("\n        }\n").expect("guard block closes") + 10;
    let mutant = format!("{}{}", &text[..start], &text[end..]);
    let l8 = |text: String| {
        let inputs = [FileInput { rel: "crates/darshan/src/view.rs".to_owned(), text }];
        lint_files(&inputs)
            .findings
            .into_iter()
            .filter(|f| f.rule == Rule::WireTaint)
            .map(|f| f.message)
            .collect::<Vec<_>>()
    };
    assert_eq!(l8(text), Vec::<String>::new());
    let findings = l8(mutant);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].contains("with_capacity"), "{findings:?}");
}

#[test]
fn l10_atomics_fixture_flags_each_strong_ordering_and_honours_the_audit() {
    let findings = lint_fixture("l10_atomics.rs", "crates/obs/src/l10_atomics.rs");
    let l10: Vec<_> = findings.iter().filter(|(r, ..)| *r == Rule::AtomicsDiscipline).collect();
    // The Release store, the Acquire load, the SeqCst swap, the
    // compare-exchange's Acquire failure ordering, the fence, and the
    // unaudited consumed Relaxed RMW — nothing else.
    let lines: Vec<u32> = l10.iter().map(|(_, line, _)| *line).collect();
    assert_eq!(lines, [20, 24, 28, 32, 36, 41], "{findings:?}");
    assert!(l10[0].2.contains("`self.ready.store(…)` names `Release`"), "{findings:?}");
    assert!(l10[1].2.contains("`self.ready.load(…)` names `Acquire`"), "{findings:?}");
    assert!(l10[2].2.contains("`self.state.swap(…)` names `SeqCst`"), "{findings:?}");
    assert!(l10[3].2.contains("`self.state.compare_exchange(…)` names `Acquire`"), "{findings:?}");
    assert!(l10[4].2.contains("`fence(…)`"), "{findings:?}");
    assert!(l10[5].2.contains("result of `self.ticket.fetch_add"), "{findings:?}");
    // The audited ticket is suppressed and its allow consumed.
    assert!(
        !findings.iter().any(|(r, ..)| *r == Rule::UnusedAllow),
        "the audited ticket must consume its allow: {findings:?}"
    );
}

#[test]
fn l11_guard_fixture_flags_liveness_and_poison_but_not_the_dropped_twin() {
    let findings = lint_fixture("l11_guard.rs", "crates/obs/src/l11_guard.rs");
    let l11: Vec<_> = findings.iter().filter(|(r, ..)| *r == Rule::LockDiscipline).collect();
    // The guard live across `run_claimed`, `lock().unwrap()`, and
    // `try_lock().expect(…)`; the drop-first twin is quiet.
    assert_eq!(l11.len(), 3, "{findings:?}");
    let text = format!("{l11:?}");
    assert!(text.contains("still live across `run_claimed"), "{findings:?}");
    assert!(text.contains("drop(reg)"), "{findings:?}");
    assert!(text.contains("PoisonError::into_inner"), "{findings:?}");
    assert!(text.contains("WouldBlock"), "{findings:?}");
}

#[test]
fn l11_order_fixture_reports_the_cycle_once_with_every_hop() {
    let findings = lint_fixture("l11_order.rs", "crates/obs/src/l11_order.rs");
    let l11: Vec<_> = findings.iter().filter(|(r, ..)| *r == Rule::LockDiscipline).collect();
    // One canonical cycle diagnostic, not one per participating edge; the
    // `audit` path drops its first guard and contributes no edge.
    assert_eq!(l11.len(), 1, "{findings:?}");
    let (_, line, message) = l11[0];
    assert!(message.contains("lock-order cycle `journal` -> `ledger` -> `journal`"), "{message}");
    assert!(message.contains("while holding `ledger`"), "{message}");
    assert!(message.contains("while holding `journal`"), "{message}");
    // Both hops are annotated with their acquisition site.
    assert_eq!(message.matches("l11_order.rs:").count(), 2, "{message}");
    assert!(*line > 0);
}

#[test]
fn stale_allow_is_reported_as_unused() {
    let findings = lint_fixture("unused_allow.rs", "crates/core/src/merge.rs");
    let stale: Vec<_> = findings.iter().filter(|(r, ..)| *r == Rule::UnusedAllow).collect();
    assert_eq!(stale.len(), 1, "{findings:?}");
}

#[test]
fn malformed_allows_are_findings_and_do_not_suppress() {
    let findings = lint_fixture("bad_allow.rs", "crates/darshan/src/text.rs");
    let malformed = findings.iter().filter(|(r, ..)| *r == Rule::MalformedAllow).count();
    assert_eq!(malformed, 4, "{findings:?}");
    // The unwraps they failed to cover still count: `parse` is the L5
    // entry point for text.rs, so all three are reachable.
    let l5 = findings.iter().filter(|(r, ..)| *r == Rule::PanicReachability).count();
    assert_eq!(l5, 3, "{findings:?}");
}

#[test]
fn fixture_reports_are_byte_stable() {
    let path = fixture_dir().join("l5_panic.rs");
    let text = std::fs::read_to_string(path).expect("fixture readable");
    let input = [FileInput { rel: "crates/darshan/src/mdf.rs".to_owned(), text }];
    let a = lint_files(&input).to_json();
    let b = lint_files(&input).to_json();
    assert_eq!(a, b);
    assert!(a.contains("\"L5/panic-reachability\""));
}

/// End-to-end through the CLI driver: a bad mini-workspace exits non-zero.
#[test]
fn cli_exits_nonzero_on_a_dirty_tree() {
    let dir = std::env::temp_dir().join(format!("mosaic-lint-e2e-{}", std::process::id()));
    let src = dir.join("crates/darshan/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    std::fs::write(src.join("mdf.rs"), "pub fn from_bytes(d: &[u8]) -> u8 { d[0] }\n")
        .expect("fixture");
    let code = cli_main(&["--root".to_owned(), dir.display().to_string()]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(code, EXIT_FINDINGS);
}

/// The real workspace must lint clean through the same driver the CI job
/// and `mosaic lint` use.
#[test]
fn cli_is_clean_on_this_workspace() {
    let cwd = std::env::current_dir().expect("no working directory");
    let start = option_env!("CARGO_MANIFEST_DIR").map(PathBuf::from).unwrap_or(cwd);
    let root = find_workspace_root(&start).expect("workspace root not found");
    let code = cli_main(&[
        "--root".to_owned(),
        root.display().to_string(),
        "--format".to_owned(),
        "json".to_owned(),
    ]);
    assert_eq!(code, mosaic_lint::EXIT_CLEAN);
}

/// `--debt --format json` is byte-stable and ranks the whole workspace —
/// the report is meant to be diffable across CI runs.
#[test]
fn debt_report_is_byte_stable_and_ranks_the_workspace() {
    let cwd = std::env::current_dir().expect("no working directory");
    let start = option_env!("CARGO_MANIFEST_DIR").map(PathBuf::from).unwrap_or(cwd);
    let root = find_workspace_root(&start).expect("workspace root not found");
    let a = mosaic_lint::debt::debt_report(&root).expect("scan").to_json();
    let b = mosaic_lint::debt::debt_report(&root).expect("scan").to_json();
    assert_eq!(a, b);
    let ranked = a.matches("\"rank\":").count();
    assert!(ranked >= 100, "only {ranked} functions ranked");
}
