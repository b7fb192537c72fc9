//! Conformance harness integration: the full `mosaic verify --all` run must
//! be green on a fresh checkout, and each suite must actually be able to
//! fail (a harness that cannot fail verifies nothing).

use mosaic_verify::{golden, run, VerifyOptions, VerifyReport};

/// Assert that every standard snapshot is committed in `tests/golden/`.
///
/// The snapshots are part of the repository; a missing file means the
/// checkout is broken or a new corpus was added without blessing it. This
/// must *fail loudly*, never silently regenerate: an auto-bless would pin
/// whatever the current (possibly buggy) code produces and the golden
/// suite would verify nothing. To add or update snapshots intentionally,
/// run `mosaic verify --golden --bless` and commit the diff.
fn ensure_golden() {
    let dir = golden::default_dir();
    for corpus in mosaic_synth::MiniCorpus::standard() {
        let path = dir.join(format!("{}.json", corpus.name()));
        assert!(
            path.exists(),
            "missing golden snapshot {} — run `mosaic verify --golden --bless` and commit it",
            path.display()
        );
    }
}

#[test]
fn full_harness_is_green_on_fresh_checkout() {
    ensure_golden();
    // Exactly what CI runs: every differential oracle, every metamorphic
    // invariant, and the committed golden snapshots.
    let report = run(&VerifyOptions::default());
    assert!(report.passed(), "{}", report.render());
    // 7 differential + 5 metamorphic + 1 golden check per corpus × 3, plus
    // the 2k-sweep columnar-, meanshift- and metadata-vs-reference
    // differential checks and the dense-periodic meanshift- and
    // metadata-vs-reference ones.
    assert_eq!(report.checks.len(), 44, "{}", report.render());
}

#[test]
fn suite_selection_is_respected() {
    let only_differential =
        VerifyOptions { metamorphic: false, golden: false, ..VerifyOptions::default() };
    let report = run(&only_differential);
    assert!(report.passed(), "{}", report.render());
    assert!(report.checks.iter().all(|c| c.name.starts_with("differential/")));
}

#[test]
fn golden_suite_fails_against_a_stale_snapshot() {
    // Bless into a scratch directory, tamper with one pinned funnel count,
    // and demand the checker notices: this is the drift signal a category
    // flip in `core::categorize` would produce.
    let dir = std::env::temp_dir().join(format!("mosaic_verify_it_{}", std::process::id()));
    let blessing = run(&VerifyOptions {
        differential: false,
        metamorphic: false,
        bless: true,
        golden_dir: dir.clone(),
        ..VerifyOptions::default()
    });
    assert!(blessing.passed(), "{}", blessing.render());

    let victim = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    let mut pinned =
        mosaic_pipeline::ResultSnapshot::from_json(&std::fs::read_to_string(&victim).unwrap())
            .unwrap();
    pinned.funnel.valid += 1;
    std::fs::write(&victim, pinned.to_canonical_json()).unwrap();

    let checked = run(&VerifyOptions {
        differential: false,
        metamorphic: false,
        golden_dir: dir.clone(),
        ..VerifyOptions::default()
    });
    assert!(!checked.passed());
    assert_eq!(checked.failures().len(), 1);
    assert!(checked.render().contains("drifted"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_golden_files_are_canonical() {
    // The committed files must be byte-for-byte what bless would write
    // today — i.e. nobody hand-edited them or let them drift formatting.
    ensure_golden();
    for corpus in mosaic_synth::MiniCorpus::standard() {
        let path = golden::default_dir().join(format!("{}.json", corpus.name()));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        let fresh = golden::snapshot_of(&corpus).to_canonical_json();
        assert_eq!(committed, fresh, "{} is stale or hand-edited", path.display());
    }
}

#[test]
fn report_json_is_machine_consumable() {
    let report =
        run(&VerifyOptions { metamorphic: false, golden: false, ..VerifyOptions::default() });
    let parsed: VerifyReport = serde_json::from_str(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
}
