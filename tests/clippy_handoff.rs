//! The workspace invariants that once had an in-house linter (L2
//! determinism, L3 unsafe, L4 `EvictReason` exhaustiveness, L5 panic
//! sites, L6 lossy casts, L10 atomics, L11 locks) are enforced by
//! configuration: the root `clippy.toml`, attributes on a few crate roots
//! and on `impl EvictReason`, and the flags of CI's clippy step.
//! `cargo test` does not run clippy, so these tests pin that wiring: a
//! deleted `clippy.toml` entry, a dropped `#[deny]`, a clippy flag lost
//! from CI or a known-bad fixture that no longer mirrors production fails
//! here before it silently turns a rule off.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The lint lists CI's fixture step requires in clippy's JSON output.
const REPLACEMENT_LINTS: &[&str] = &[
    "disallowed_types",
    "disallowed_methods",
    "cast_possible_truncation",
    "cast_sign_loss",
    "cast_possible_wrap",
    "match_wildcard_for_single_variants",
    "wildcard_enum_match_arm",
    "unsafe_code",
    "unfulfilled_lint_expectations",
    "allow_attributes_without_reason",
    "indexing_slicing",
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// The restriction lints that replaced L5's panic reachability.
const PANIC_LINTS: &[&str] = &[
    "clippy::indexing_slicing",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// The crate roots whose production code is under the panic lints: every
/// crate a hostile trace flows through, from parse to report.
const PANIC_ROOTS: &[&str] = &[
    "crates/clustering/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/darshan/src/lib.rs",
    "crates/obs/src/lib.rs",
    "crates/pipeline/src/lib.rs",
    "crates/signal/src/lib.rs",
];

/// The crate roots that opt out of the determinism lints: their output
/// never feeds a `ResultSnapshot` digest.
const DETERMINISM_OPT_OUTS: &[&str] =
    &["crates/bench/src/lib.rs", "crates/cli/src/main.rs", "shims/criterion/src/lib.rs"];

/// The crate roots whose production code is under the cast lints (the
/// parse → merge → categorize path).
const CAST_ROOTS: &[&str] =
    &["crates/darshan/src/lib.rs", "crates/core/src/lib.rs", "crates/pipeline/src/lib.rs"];

/// The known-bad crate CI runs clippy on; the walker below skips it.
const FIXTURE_DIR: &str = "tests/clippy_fixture";

/// The workspace root: this test belongs to `crates/integration`.
fn root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).expect("crates/integration has a grandparent").to_path_buf()
}

/// A workspace source file: its forward-slash path from the root, and text.
struct FileInput {
    rel: String,
    text: String,
}

/// Every `.rs` file under `crates/`, `examples/`, `shims/` and `tests/`,
/// sorted by path, without build output or the known-bad fixture.
fn workspace_files() -> Vec<FileInput> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                if !path.ends_with("target") && !path.ends_with(FIXTURE_DIR) {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }
    let root = root();
    let mut paths = Vec::new();
    for top in ["crates", "examples", "shims", "tests"] {
        walk(&root.join(top), &mut paths);
    }
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("walked under the root");
            let rel: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            FileInput {
                rel: rel.join("/"),
                text: std::fs::read_to_string(&path).expect("readable"),
            }
        })
        .collect()
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Join shell line continuations and collapse every whitespace run to one
/// space, so a command reads the same in YAML, shell and Markdown.
fn squash(text: &str) -> String {
    text.replace("\\\n", " ").split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Every attribute in `text` that starts with `open` (e.g. `#![allow(`),
/// up to its balanced closing `)]`, with all whitespace removed so rustfmt
/// layout does not matter.
fn attributes(text: &str, open: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (start, _) in text.match_indices(open) {
        let mut depth = 0i32;
        for (i, c) in text[start..].char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        let attr = &text[start..=start + i + 1];
                        out.push(attr.chars().filter(|c| !c.is_whitespace()).collect());
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// The `path = "…"` entries of one `key = [ … ]` list in `clippy.toml`.
fn clippy_toml_paths(key: &str) -> BTreeSet<String> {
    let toml = read("clippy.toml");
    let start =
        toml.find(&format!("{key} = [")).unwrap_or_else(|| panic!("clippy.toml has no {key}"));
    let list = &toml[start..start + toml[start..].find("\n]").expect("unterminated list")];
    list.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split("path = \"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_owned)
        .collect()
}

/// The `run:` text of the CI step named `name`, squashed.
fn ci_step(name: &str) -> String {
    let ci = read(".github/workflows/ci.yml");
    let marker = format!("- name: {name}\n");
    let start =
        ci.find(&marker).unwrap_or_else(|| panic!("CI has no step {name:?}")) + marker.len();
    let end = ci[start..].find("- name:").map_or(ci.len(), |e| start + e);
    let step = &ci[start..end];
    let run = step.find("run:").unwrap_or_else(|| panic!("CI step {name:?} runs nothing"));
    squash(step[run + "run:".len()..].trim_start().trim_start_matches(&['|', '>'][..]))
}

/// The `cargo clippy …` invocation of a squashed CI step, without a
/// trailing redirection.
fn clippy_command(step: &str) -> &str {
    let start = step.find("cargo clippy").expect("step does not run cargo clippy");
    let cmd = &step[start..];
    cmd.find(" >").map_or(cmd, |e| &cmd[..e]).trim()
}

/// The lint flags after `--` in a `cargo clippy` invocation.
fn lint_flags(cmd: &str) -> &str {
    cmd.split_once(" -- ").expect("no `--` before the lint flags").1.trim()
}

/// The lints CI's fixture step loops over.
fn ci_fixture_lints() -> Vec<String> {
    let step = ci_step("Known-bad fixture fails clippy");
    let list = step.split("for lint in ").nth(1).expect("no lint loop");
    let list = &list[..list.find(';').expect("unterminated lint loop")];
    list.split_whitespace().map(str::to_owned).collect()
}

/// The atomic types `clippy.toml` bans outside the audited sites (L10).
const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicI8",
    "AtomicIsize",
    "AtomicPtr",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicU8",
    "AtomicUsize",
];

#[test]
fn clippy_toml_disallows_the_hash_collections_and_every_atomic() {
    let mut expected: BTreeSet<String> =
        ["std::collections::HashMap", "std::collections::HashSet", "std::sync::atomic::Ordering"]
            .map(str::to_owned)
            .into();
    expected.extend(ATOMIC_TYPES.iter().map(|t| format!("std::sync::atomic::{t}")));
    assert_eq!(clippy_toml_paths("disallowed-types"), expected);
}

#[test]
fn clippy_toml_disallows_clock_reads_fences_and_raw_locks() {
    let expected: BTreeSet<String> = [
        "std::sync::Mutex::lock",
        "std::sync::Mutex::try_lock",
        "std::sync::atomic::compiler_fence",
        "std::sync::atomic::fence",
        "std::time::Instant::duration_since",
        "std::time::Instant::elapsed",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
    ]
    .map(str::to_owned)
    .into();
    assert_eq!(clippy_toml_paths("disallowed-methods"), expected);
}

/// The audited places that may name a raw atomic or take a raw lock. Clippy
/// rejects any other; this pins that no new exception slips in beside them.
#[test]
fn raw_atomics_and_locks_live_only_in_the_audited_places() {
    let mut atomics = BTreeSet::new();
    let mut locks = BTreeSet::new();
    for FileInput { rel, text } in workspace_files() {
        if rel == "tests/clippy_handoff.rs" {
            continue;
        }
        for line in text.lines().map(str::trim).filter(|l| !l.starts_with("//")) {
            if line.contains("atomic::") {
                atomics.insert(rel.clone());
            }
            if line.contains(".lock()") || line.contains(".try_lock()") {
                locks.insert(rel.clone());
            }
        }
    }
    // `mosaic_obs`'s counter cells, the executor's consumed progress count
    // and the rayon shim's claim cursor.
    let expected_atomics: BTreeSet<String> =
        ["crates/obs/src/counter.rs", "crates/pipeline/src/executor.rs", "shims/rayon/src/lib.rs"]
            .map(str::to_owned)
            .into();
    assert_eq!(atomics, expected_atomics);
    // The lock helpers, and the shim's tests (it cannot depend on them).
    let expected_locks: BTreeSet<String> =
        ["crates/obs/src/lock.rs", "shims/rayon/src/lib.rs"].map(str::to_owned).into();
    assert_eq!(locks, expected_locks);
}

/// Clippy prints an entry's `reason` with every finding; an entry
/// without one leaves the developer guessing at the rule.
#[test]
fn every_disallowed_entry_states_its_reason() {
    let toml = read("clippy.toml");
    let entries: Vec<&str> = toml
        .lines()
        .filter(|l| !l.trim_start().starts_with('#') && l.contains("path = \""))
        .collect();
    assert_eq!(entries.len(), 23, "{entries:?}");
    for entry in entries {
        let reason = entry.split("reason = \"").nth(1).and_then(|r| r.split('"').next());
        assert!(reason.is_some_and(|r| !r.trim().is_empty()), "no reason: {entry}");
    }
}

#[test]
fn determinism_opt_outs_are_exactly_the_documented_crate_roots() {
    let opted_out: Vec<String> = workspace_files()
        .into_iter()
        .filter(|f| {
            attributes(&f.text, "#![allow(").iter().any(|a| a.contains("clippy::disallowed_"))
        })
        .map(|f| f.rel)
        .collect();
    assert_eq!(opted_out, DETERMINISM_OPT_OUTS);
    let contributing = squash(&read("CONTRIBUTING.md"));
    for crate_ in ["`bench`", "`cli`", "`shims/criterion`"] {
        assert!(contributing.contains(crate_), "CONTRIBUTING does not name the opt-out {crate_}");
    }
}

/// Audited determinism and cast exceptions are `#[expect]`s, so rustc's
/// `unfulfilled_lint_expectations` reports them once they go stale; an
/// `#[allow]` would outlive the code it excused.
#[test]
fn audited_determinism_and_cast_exceptions_use_expect_not_allow() {
    let mut expects = 0;
    for FileInput { rel, text } in workspace_files() {
        // Only the documented crate roots may opt out of determinism
        // wholesale; nothing opts out of the cast lints.
        for attr in attributes(&text, "#[allow(") {
            let audited = attr.contains("clippy::cast_") || attr.contains("clippy::disallowed_");
            assert!(!audited, "{rel}: {attr} must be an #[expect]");
        }
        for attr in attributes(&text, "#![allow(") {
            assert!(!attr.contains("clippy::cast_"), "{rel}: {attr} must be an #[expect]");
        }
        expects += attributes(&text, "#[expect(")
            .iter()
            .filter(|a| a.contains("clippy::cast_") || a.contains("clippy::disallowed_"))
            .count();
    }
    assert!(expects >= 20, "only {expects} audited #[expect]s found");
}

#[test]
fn cast_lints_are_on_at_the_darshan_core_and_pipeline_roots() {
    for rel in CAST_ROOTS {
        let attrs = attributes(&read(rel), "#![cfg_attr(");
        let cast = attrs.iter().find(|a| a.contains("cast_possible_truncation"));
        let cast = cast.unwrap_or_else(|| panic!("{rel} does not opt into the cast lints"));
        // Test code stays exempt, as it was under L6.
        assert!(cast.starts_with("#![cfg_attr(not(test),warn("), "{rel}: {cast}");
        for lint in [
            "clippy::cast_possible_truncation",
            "clippy::cast_sign_loss",
            "clippy::cast_possible_wrap",
        ] {
            assert!(cast.contains(lint), "{rel} lacks {lint}: {cast}");
        }
    }
}

/// The fixture proves the lints fire only if it switches them on the way
/// the production roots do.
#[test]
fn fixture_opts_into_the_cast_lints_like_the_production_roots() {
    let production = attributes(&read(CAST_ROOTS[0]), "#![cfg_attr(");
    let fixture = attributes(&read(&format!("{FIXTURE_DIR}/src/lib.rs")), "#![cfg_attr(");
    let cast = |attrs: &[String]| attrs.iter().find(|a| a.contains("cast_")).cloned();
    assert!(cast(&production).is_some());
    assert_eq!(cast(&fixture), cast(&production));
}

/// The `#![cfg_attr(not(test), warn(…))]` of `rel` that names the panic
/// lints, whitespace removed.
fn panic_lint_attribute(rel: &str) -> Option<String> {
    attributes(&read(rel), "#![cfg_attr(").into_iter().find(|a| a.contains("indexing_slicing"))
}

#[test]
fn panic_lints_are_on_at_the_six_roots() {
    for rel in PANIC_ROOTS {
        let attr = panic_lint_attribute(rel)
            .unwrap_or_else(|| panic!("{rel} does not opt into the panic lints"));
        // Test code stays exempt, as it was under L5.
        assert!(attr.starts_with("#![cfg_attr(not(test),warn("), "{rel}: {attr}");
        for lint in PANIC_LINTS {
            assert!(attr.contains(lint), "{rel} lacks {lint}: {attr}");
        }
    }
    // No other crate root opts in: the set is the parse-to-report path.
    let opted_in: Vec<String> = workspace_files()
        .into_iter()
        .filter(|f| f.rel.ends_with("/src/lib.rs") && panic_lint_attribute(&f.rel).is_some())
        .map(|f| f.rel)
        .collect();
    assert_eq!(opted_in, PANIC_ROOTS);
}

/// As with the cast lints, the fixture proves the panic lints fire only
/// if it switches them on the way the production roots do.
#[test]
fn fixture_opts_into_the_panic_lints_like_the_production_roots() {
    let production = panic_lint_attribute(PANIC_ROOTS[0]);
    assert!(production.is_some());
    for rel in PANIC_ROOTS {
        assert_eq!(panic_lint_attribute(rel), production, "{rel}");
    }
    assert_eq!(panic_lint_attribute(&format!("{FIXTURE_DIR}/src/lib.rs")), production);
}

/// The attribute written directly above `impl EvictReason {`.
fn evict_reason_impl_attribute(rel: &str) -> String {
    let text = read(rel);
    let lines: Vec<&str> = text.lines().collect();
    let at = lines.iter().position(|l| l.trim() == "impl EvictReason {");
    let at = at.unwrap_or_else(|| panic!("{rel} has no `impl EvictReason`"));
    assert!(at > 0, "{rel}: `impl EvictReason` is the first line");
    lines[at - 1].split_whitespace().collect()
}

#[test]
fn evict_reason_impl_denies_both_wildcard_lints() {
    let attr = evict_reason_impl_attribute("crates/darshan/src/error.rs");
    assert!(attr.starts_with("#[deny("), "{attr}");
    // A `_` arm covering one remaining variant trips only the second lint.
    assert!(attr.contains("clippy::wildcard_enum_match_arm"), "{attr}");
    assert!(attr.contains("clippy::match_wildcard_for_single_variants"), "{attr}");
}

#[test]
fn fixture_denies_wildcards_like_the_real_taxonomy() {
    assert_eq!(
        evict_reason_impl_attribute(&format!("{FIXTURE_DIR}/src/lib.rs")),
        evict_reason_impl_attribute("crates/darshan/src/error.rs")
    );
}

#[test]
fn ci_clippy_step_forbids_unsafe_and_demands_reasons() {
    let step = ci_step("Clippy");
    let cmd = clippy_command(&step);
    assert!(cmd.contains("--workspace --all-targets"), "{cmd}");
    assert_eq!(
        lint_flags(cmd),
        "-D warnings -F unsafe_code -D clippy::allow_attributes_without_reason"
    );
}

#[test]
fn ci_fixture_step_runs_clippy_with_the_workspace_flags() {
    let workspace = ci_step("Clippy");
    let fixture = ci_step("Known-bad fixture fails clippy");
    let cmd = clippy_command(&fixture);
    assert!(cmd.contains(&format!("--manifest-path {FIXTURE_DIR}/Cargo.toml")), "{cmd}");
    assert!(cmd.contains("--target-dir target/clippy-fixture"), "{cmd}");
    assert!(cmd.contains("--message-format=json"), "{cmd}");
    assert_eq!(lint_flags(cmd), lint_flags(clippy_command(&workspace)));
    // A fixture that passes clippy is the failure.
    assert!(fixture.starts_with("if cargo clippy"), "{fixture}");
}

#[test]
fn ci_fixture_step_demands_every_replacement_lint() {
    assert_eq!(ci_fixture_lints(), REPLACEMENT_LINTS);
}

/// The paths CI's fixture step loops over.
fn ci_fixture_paths() -> BTreeSet<String> {
    let step = ci_step("Known-bad fixture fails clippy");
    let list = step.split("for path in ").nth(1).expect("no path loop");
    let list = &list[..list.find(';').expect("unterminated path loop")];
    list.split_whitespace().map(str::to_owned).collect()
}

/// Inside the audited places clippy is silenced, so the old L10 rule is
/// checked here: every ordering they name is `Relaxed`.
#[test]
fn the_audited_atomics_name_no_ordering_but_relaxed() {
    for rel in
        ["crates/obs/src/counter.rs", "crates/pipeline/src/executor.rs", "shims/rayon/src/lib.rs"]
    {
        let text = read(rel);
        let orderings: Vec<&str> = text
            .split("Ordering::")
            .skip(1)
            .map(|rest| rest.split(|c: char| !c.is_alphanumeric()).next().unwrap_or(""))
            .collect();
        assert!(!orderings.is_empty(), "{rel} names no ordering");
        assert!(orderings.iter().all(|o| *o == "Relaxed"), "{rel}: {orderings:?}");
    }
}

/// The old `l10_atomics.rs` and `l11_guard.rs` fixtures live on as code
/// clippy must reject.
#[test]
fn fixture_keeps_the_old_atomics_and_lock_snippets() {
    let src = read(&format!("{FIXTURE_DIR}/src/lib.rs"));
    for snippet in [
        "Ordering::SeqCst)",
        "fetch_add(1, Ordering::AcqRel)",
        "fence(Ordering::Release)",
        "compiler_fence(Ordering::Acquire)",
        ".lock()",
        ".try_lock()",
    ] {
        assert!(src.contains(snippet), "the clippy fixture lost `{snippet}`");
    }
}

/// Each atomics and lock entry says where to go instead, and clippy
/// prints that with every finding.
#[test]
fn atomic_and_lock_entries_point_at_the_replacement() {
    let toml = read("clippy.toml");
    let entries = toml.lines().filter(|l| !l.trim_start().starts_with('#'));
    for entry in entries.filter(|l| l.contains("path = \"std::sync::")) {
        let replacement = if entry.contains("Mutex::") {
            "mosaic_obs::lock::"
        } else if entry.contains("fence") {
            "joins and locks"
        } else {
            "mosaic_obs"
        };
        assert!(entry.contains(replacement), "{entry}");
    }
}

/// The nested-lock and fan-out panics exist only with `debug_assertions`,
/// so the release `Test` step cannot see them: the debug step runs them.
#[test]
fn ci_debug_step_runs_the_lock_helper_tests() {
    let step = ci_step("Hostile-input suites with overflow checks (debug)");
    for cmd in [
        "cargo test --offline --locked -q -p mosaic-obs --lib",
        "cargo test --offline --locked -q -p mosaic-pipeline --lib",
    ] {
        assert!(step.contains(cmd), "the debug step does not run `{cmd}`");
    }
    assert!(!step.contains("--release"), "{step}");
}

/// Nothing builds, runs or uploads the retired linter any more.
#[test]
fn no_build_or_ci_file_names_the_retired_linter() {
    assert!(!root().join("crates/lint").exists());
    for rel in ["Cargo.toml", "Cargo.lock", "crates/cli/Cargo.toml", ".github/workflows/ci.yml"] {
        let text = read(rel);
        for name in ["mosaic-lint", "mosaic_lint", "sarif"] {
            assert!(!text.contains(name), "{rel} still names {name}");
        }
    }
}

/// README's rule table names every retired rule and what now checks it.
#[test]
fn readme_rule_table_lists_every_retired_rule() {
    let readme = read("README.md");
    let rows: Vec<&str> = readme.lines().filter(|l| l.contains("(was L")).collect();
    let retired: Vec<&str> =
        rows.iter().filter_map(|r| r.split("(was ").nth(1)?.split(')').next()).collect();
    assert_eq!(retired, ["L2", "L3", "L4", "L5", "L6", "L7", "L10", "L11"]);
}

/// Clippy reads the nearest `clippy.toml` above the crate it checks: one
/// inside the fixture would test the fixture against its own rules, not
/// the workspace's.
#[test]
fn the_fixture_reads_the_workspace_clippy_toml() {
    assert!(root().join("clippy.toml").is_file());
    for dir in [FIXTURE_DIR, "tests"] {
        for name in ["clippy.toml", ".clippy.toml"] {
            assert!(!root().join(dir).join(name).exists(), "{dir}/{name} shadows the root config");
        }
    }
}

/// DESIGN's concurrency protocol names the mechanisms that enforce it.
#[test]
fn design_names_the_lock_helper_and_the_counter_module() {
    let design = squash(&read("DESIGN.md"));
    let start = design.find("## Concurrency protocol").expect("no concurrency section");
    let section = &design[start..];
    let section = &section[..section[2..].find("## ").map_or(section.len(), |e| e + 2)];
    for name in ["mosaic_obs::lock", "crates/obs/src/counter.rs", "clippy.toml"] {
        assert!(section.contains(name), "DESIGN §Concurrency protocol does not name {name}");
    }
    assert!(!section.contains("crates/lint"), "{section}");
}

/// `disallowed_types` fires for `HashMap` alone, so the lint code cannot
/// show that the atomic entries work: CI also demands each entry's path
/// in clippy's diagnostics.
#[test]
fn ci_fixture_step_demands_every_clippy_toml_path() {
    let mut paths = clippy_toml_paths("disallowed-types");
    paths.extend(clippy_toml_paths("disallowed-methods"));
    assert_eq!(ci_fixture_paths(), paths);
}

/// Each `clippy.toml` path is named by the fixture: a type by its name, a
/// method or function by a call.
#[test]
fn fixture_uses_every_clippy_toml_path() {
    let src = read(&format!("{FIXTURE_DIR}/src/lib.rs"));
    for path in clippy_toml_paths("disallowed-types") {
        let name = path.rsplit("::").next().expect("a path");
        assert!(src.contains(&format!("{name}::")) || src.contains(&format!(": {name}")), "{path}");
    }
    for path in clippy_toml_paths("disallowed-methods") {
        let name = path.rsplit("::").next().expect("a path");
        assert!(src.contains(&format!("{name}(")), "{path}");
    }
}

#[test]
fn contributing_shows_the_ci_clippy_command() {
    let step = ci_step("Clippy");
    let cmd = clippy_command(&step);
    let contributing = squash(&read("CONTRIBUTING.md"));
    assert!(contributing.contains(cmd), "CONTRIBUTING.md does not show `{cmd}`");
}

/// Each lint CI demands from the fixture has code in it that draws it.
#[test]
fn fixture_has_a_bad_snippet_for_each_demanded_lint() {
    let src = read(&format!("{FIXTURE_DIR}/src/lib.rs"));
    let reasonless_allows =
        attributes(&src, "#[allow(").iter().filter(|a| !a.contains("reason=")).count();
    for lint in ci_fixture_lints() {
        let drawn = match lint.as_str() {
            "disallowed_types" => src.contains("HashMap<") && src.contains("HashSet<"),
            "disallowed_methods" => {
                ["Instant::now()", "SystemTime::now()", ".elapsed()", ".duration_since("]
                    .iter()
                    .all(|m| src.contains(m))
            }
            "cast_possible_truncation" => src.contains("len as u32"),
            "cast_sign_loss" => src.contains("count as u64"),
            "cast_possible_wrap" => src.contains("len as i64"),
            "match_wildcard_for_single_variants" | "wildcard_enum_match_arm" => {
                src.matches("_ =>").count() >= 2
            }
            "unsafe_code" => src.contains("unsafe {"),
            // One audited expectation that holds, one stale one.
            "unfulfilled_lint_expectations" => src.matches("#[expect(").count() >= 2,
            "allow_attributes_without_reason" => reasonless_allows >= 1,
            "indexing_slicing" => src.contains("data[0]") && src.contains("&data[1..8]"),
            "unwrap_used" => src.contains(".unwrap()"),
            "expect_used" => src.contains(".expect(\""),
            "panic" => src.contains("panic!("),
            "unreachable" => src.contains("unreachable!("),
            "todo" => src.contains("todo!()"),
            "unimplemented" => src.contains("unimplemented!()"),
            other => panic!("CI demands {other} but this test knows no snippet for it"),
        };
        assert!(drawn, "the clippy fixture has no snippet for {lint}");
    }
}

#[test]
fn fixture_crate_is_detached_and_its_lockfile_names_it() {
    let manifest = read(&format!("{FIXTURE_DIR}/Cargo.toml"));
    let lock = read(&format!("{FIXTURE_DIR}/Cargo.lock"));
    // Its own `[workspace]` keeps it out of the Mosaic workspace, and
    // CI's `--locked` needs a lockfile that names the package.
    assert!(manifest.lines().any(|l| l.trim() == "[workspace]"), "{manifest}");
    assert!(manifest.contains("name = \"mosaic-clippy-fixture\""), "{manifest}");
    assert!(lock.contains("name = \"mosaic-clippy-fixture\"\nversion = \"0.0.0\""), "{lock}");
    assert!(
        !manifest.contains("[dependencies]"),
        "the fixture must build offline without a registry"
    );
}

/// Local builds do not pass CI's `-F unsafe_code`; the crate-root
/// attribute keeps `unsafe` out of them too.
#[test]
fn every_library_and_main_root_forbids_unsafe_code() {
    let root = root();
    let mut roots = vec!["examples/lib.rs".to_owned()];
    for top in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(top)).expect("read_dir") {
            let name = entry.expect("entry").file_name().to_string_lossy().into_owned();
            for file in ["src/lib.rs", "src/main.rs"] {
                let rel = format!("{top}/{name}/{file}");
                if root.join(&rel).is_file() {
                    roots.push(rel);
                }
            }
        }
    }
    assert!(roots.len() >= 23, "{roots:?}");
    for rel in roots {
        assert!(
            read(&rel).lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
            "{rel} does not forbid unsafe_code"
        );
    }
}

/// CONTRIBUTING names the crates with `#![warn(missing_docs)]`; the list
/// must match the crate roots.
#[test]
fn contributing_lists_exactly_the_crates_that_warn_on_missing_docs() {
    let root = root();
    let mut documented = BTreeSet::new();
    let mut undocumented = BTreeSet::new();
    for top in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(top)).expect("read_dir") {
            let entry = entry.expect("entry");
            if !entry.path().is_dir() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            let lib = root.join(top).join(&name).join("src/lib.rs");
            let main = root.join(top).join(&name).join("src/main.rs");
            let crate_root = if lib.is_file() { lib } else { main };
            let text = std::fs::read_to_string(&crate_root).expect("crate root");
            let label = if top == "shims" { format!("shims/{name}") } else { name };
            if text.contains("#![warn(missing_docs)]") {
                documented.insert(label);
            } else {
                undocumented.insert(label);
            }
        }
    }
    assert!(!read("examples/lib.rs").contains("#![warn(missing_docs)]"));
    undocumented.insert("examples".to_owned());

    let contributing = squash(&read("CONTRIBUTING.md"));
    let on = contributing
        .split("`#![warn(missing_docs)]` is on in ")
        .nth(1)
        .expect("no missing_docs list");
    let (on, off) = on.split_once(". It is off in ").expect("no off list");
    let off = &off[..off.find('.').expect("unterminated off list")];
    let names = |s: &str| -> BTreeSet<String> {
        s.split('`').skip(1).step_by(2).map(str::to_owned).collect()
    };
    assert_eq!(names(on), documented);
    let shims = undocumented.iter().filter(|c| c.starts_with("shims/")).count();
    assert_eq!(shims, 9, "CONTRIBUTING counts nine shims without missing_docs");
    let off_crates: BTreeSet<String> =
        undocumented.into_iter().filter(|c| !c.starts_with("shims/")).collect();
    let mut off_named = names(off);
    assert!(off_named.remove("shims/"), "{off}");
    assert_eq!(off_named, off_crates);
}

/// The old comment escape hatch (`lint:` then `allow(rule, "proof")`) went
/// with the linter that read it: an audited exception is an
/// `#[expect(…, reason = …)]`, which rustc reports once it goes stale. A
/// leftover comment would suppress nothing.
#[test]
fn no_lint_allow_comment_remains() {
    let hatch = ["lint:", " allow("].concat();
    let stale: Vec<String> =
        workspace_files().into_iter().filter(|f| f.text.contains(&hatch)).map(|f| f.rel).collect();
    assert!(stale.is_empty(), "`{hatch}` comments remain in {stale:?}");
}
