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
    // The unit mixes they failed to cover still count.
    let l7 = findings.iter().filter(|(r, ..)| *r == Rule::UnitMix).count();
    assert_eq!(l7, 3, "{findings:?}");
}

#[test]
fn fixture_reports_are_byte_stable() {
    let path = fixture_dir().join("l7_units.rs");
    let text = std::fs::read_to_string(path).expect("fixture readable");
    let input = [FileInput { rel: "crates/core/src/merge.rs".to_owned(), text }];
    let a = lint_files(&input).to_json();
    let b = lint_files(&input).to_json();
    assert_eq!(a, b);
    assert!(a.contains("\"L7/unit-consistency\""));
}

/// End-to-end through the CLI driver: a bad mini-workspace exits non-zero.
#[test]
fn cli_exits_nonzero_on_a_dirty_tree() {
    let dir = std::env::temp_dir().join(format!("mosaic-lint-e2e-{}", std::process::id()));
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    std::fs::write(
        src.join("merge.rs"),
        "pub fn f(secs: f64, bytes: f64) -> f64 { secs + bytes }\n",
    )
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
