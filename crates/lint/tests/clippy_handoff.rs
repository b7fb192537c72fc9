//! The rules `mosaic lint` handed to rustc and clippy (L2 determinism, L3
//! unsafe, L4 `EvictReason` exhaustiveness, L5 panic sites, L6 lossy
//! casts) are enforced
//! by configuration: the root `clippy.toml`, attributes on a few crate
//! roots and on `impl EvictReason`, and the flags of CI's clippy step.
//! `cargo test` does not run clippy, so these tests pin that wiring: a
//! deleted `clippy.toml` entry, a dropped `#[deny]`, a clippy flag lost
//! from CI or a known-bad fixture that no longer mirrors production fails
//! here before it silently turns a rule off.

use mosaic_lint::findings::ALL_RULES;
use mosaic_lint::{collect_inputs, find_workspace_root, FileInput};
use std::collections::BTreeSet;
use std::path::PathBuf;

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
const DETERMINISM_OPT_OUTS: &[&str] = &[
    "crates/bench/src/bin/ablation_periodicity_method.rs",
    "crates/bench/src/bin/sec4e_performance.rs",
    "crates/bench/src/lib.rs",
    "crates/cli/src/main.rs",
    "shims/criterion/src/lib.rs",
];

/// The crate roots whose production code is under the cast lints (the
/// parse → merge → categorize path).
const CAST_ROOTS: &[&str] =
    &["crates/darshan/src/lib.rs", "crates/core/src/lib.rs", "crates/pipeline/src/lib.rs"];

const FIXTURE_DIR: &str = "crates/lint/tests/fixtures/clippy";

fn root() -> PathBuf {
    let cwd = std::env::current_dir().expect("no working directory");
    let start = option_env!("CARGO_MANIFEST_DIR").map(PathBuf::from).unwrap_or(cwd);
    find_workspace_root(&start).expect("workspace root not found")
}

/// Every file `mosaic lint` walks, with its workspace-relative path.
fn workspace_files() -> Vec<FileInput> {
    collect_inputs(&root()).expect("walk the workspace")
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

#[test]
fn clippy_toml_disallows_the_hash_collections() {
    let expected: BTreeSet<String> =
        ["std::collections::HashMap", "std::collections::HashSet"].map(str::to_owned).into();
    assert_eq!(clippy_toml_paths("disallowed-types"), expected);
}

#[test]
fn clippy_toml_disallows_every_clock_read() {
    let expected: BTreeSet<String> = [
        "std::time::Instant::duration_since",
        "std::time::Instant::elapsed",
        "std::time::Instant::now",
        "std::time::SystemTime::now",
    ]
    .map(str::to_owned)
    .into();
    assert_eq!(clippy_toml_paths("disallowed-methods"), expected);
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
    assert_eq!(entries.len(), 6, "{entries:?}");
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
    for crate_ in [
        "`bench`",
        "`ablation_periodicity_method`",
        "`sec4e_performance`",
        "`cli`",
        "`shims/criterion`",
    ] {
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
    assert!(cmd.contains("--target-dir target/lint-fixture"), "{cmd}");
    assert!(cmd.contains("--message-format=json"), "{cmd}");
    assert_eq!(lint_flags(cmd), lint_flags(clippy_command(&workspace)));
    // A fixture that passes clippy is the failure.
    assert!(fixture.starts_with("if cargo clippy"), "{fixture}");
}

#[test]
fn ci_fixture_step_demands_every_replacement_lint() {
    assert_eq!(ci_fixture_lints(), REPLACEMENT_LINTS);
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
    assert!(manifest.contains("name = \"mosaic-lint-clippy-fixture\""), "{manifest}");
    assert!(lock.contains("name = \"mosaic-lint-clippy-fixture\"\nversion = \"0.0.0\""), "{lock}");
    assert!(
        !manifest.contains("[dependencies]"),
        "the fixture must build offline without a registry"
    );
}

/// The fixture is full of deliberate violations; `mosaic lint` must never
/// read it as workspace code.
#[test]
fn linter_walker_never_reaches_the_clippy_fixture() {
    let rels: Vec<String> = workspace_files().into_iter().map(|f| f.rel).collect();
    assert!(rels.iter().any(|r| r.starts_with("crates/lint/src/")), "{rels:?}");
    assert!(!rels.iter().any(|r| r.starts_with("crates/lint/tests/fixtures/")), "{rels:?}");
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
    assert!(roots.len() >= 25, "{roots:?}");
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

/// README's rule table names every rule `mosaic lint` reports, each with
/// the escape hatch the parser accepts for it.
#[test]
fn readme_rule_table_matches_the_linters_rules() {
    let readme = read("README.md");
    let rows: Vec<Vec<&str>> = readme
        .lines()
        .filter(|l| l.starts_with("| L"))
        .map(|l| l.split('|').map(str::trim).collect())
        .collect();
    let mut listed = BTreeSet::new();
    for row in &rows {
        let id = row[2].trim_matches('`');
        let rule = ALL_RULES
            .iter()
            .find(|r| r.id() == id)
            .unwrap_or_else(|| panic!("README lists unknown rule {id}"));
        let key = rule.allow_key().expect("L-rules have an escape hatch");
        assert!(row[4].contains(&format!("lint: allow({key},")), "{id}: {}", row[4]);
        listed.insert(id);
    }
    let l_rules: BTreeSet<&str> =
        ALL_RULES.iter().map(|r| r.id()).filter(|id| id.starts_with('L')).collect();
    assert_eq!(listed, l_rules);
}

/// The `cast`, `nondeterminism`, `unsafe`, `panic` and `taint` keys are
/// gone; no source or contributor doc may still show one.
#[test]
fn no_lint_allow_comment_uses_a_retired_key() {
    let mut files = workspace_files();
    for rel in ["README.md", "CONTRIBUTING.md", "crates/lint/tests/fixtures/bad_allow.rs"] {
        files.push(FileInput { rel: rel.to_owned(), text: read(rel) });
    }
    for FileInput { rel, text } in files {
        for key in ["cast", "nondeterminism", "unsafe", "panic", "taint"] {
            assert!(
                !text.contains(&format!("lint: allow({key}")),
                "{rel} still uses `lint: allow({key}`"
            );
        }
    }
}
