#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `mosaic-lint` — the Mosaic workspace invariant linter.
//!
//! A self-hosted static-analysis pass over every `.rs` file in the
//! workspace, for the invariants no stock lint can express. On top of a
//! hand-rolled tokenizer ([`lex`]) sits a lightweight `fn`-item parser
//! ([`parse`]) that hands the lock rule its function bodies:
//!
//! - **L7 unit consistency**: no `+`/`-` arithmetic mixing byte-volume
//!   and seconds-duration identifiers; keep the axes apart or audit with
//!   `allow(unit, …)`.
//! - **L10 atomics discipline** ([`sync`]): the concurrency rule
//!   DESIGN.md writes down — production atomics are `Relaxed` counters.
//!   An atomic call naming `Acquire`, `Release`, `AcqRel` or `SeqCst` in
//!   any ordering argument is a finding, so is any `fence`/
//!   `compiler_fence` call, and a `fetch_*` result that is consumed must
//!   prove it is a pure counter. Escape hatch:
//!   `// lint: allow(sync, "<proof>")`.
//! - **L11 lock discipline** ([`sync`]): no `lock()`/`try_lock()` guard
//!   live across a `par_*`/`pool.install`/blocking-IO call, an acyclic
//!   workspace lock-acquisition-order graph (each cycle reported once
//!   with every hop's site), and poison-handling parity — `lock()`
//!   recovers via `PoisonError::into_inner`, `try_lock()` treats
//!   contention as a skip, never `unwrap`. Same `sync` escape hatch.
//! - **unused-allow**: a `lint: allow` that suppresses nothing is
//!   itself reported, so audited escape hatches cannot go stale.
//!
//! Test code (`#[cfg(test)]` items) is exempt from L7. L10 also leaves
//! the files of `tests/` and `benches/` targets alone; L11 does not,
//! since a deadlock there wedges CI.
//!
//! Determinism (no `HashMap`/`HashSet` or clock reads), unsafe hygiene,
//! `EvictReason` match exhaustiveness, lossy casts and panic sites
//! (indexing, slicing, `unwrap`/`expect`, panicking macros) are rustc's
//! and clippy's job: the root `clippy.toml`, the `EvictReason` impl's
//! `#[deny]`, the crate-root `cfg_attr`s and CI's `-F unsafe_code` (see
//! CONTRIBUTING.md). Their audited exceptions are
//! `#[expect(clippy::…, reason = "…")]`, kept fresh by rustc's
//! `unfulfilled_lint_expectations`. Allocations sized from a wire count
//! are bounded by construction in the parsers: the capacity is capped at
//! the remaining input bytes over the minimum encoded size.
//!
//! The crate is deliberately dependency-free so it builds with a bare
//! `rustc` on machines with no crates registry access; JSON output is
//! hand-rolled with a fixed key order so reports are byte-stable.

pub mod findings;
pub mod lex;
pub mod parse;
pub mod rules;
pub mod sync;

pub use findings::{Finding, Report, Rule};
pub use rules::{lint_files, FileInput};

use std::path::{Path, PathBuf};

/// Directory-name components that are never linted: build output, VCS
/// metadata, and the linter's own deliberately-bad test fixtures.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Walk up from `start` to the nearest directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collect every `.rs` file under `crates/`, `examples/` and `shims/`, as
/// workspace-relative forward-slash paths, sorted. The shims are in-repo
/// stand-ins for external dependencies, so they carry the same obligations
/// as first-party code.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["crates", "examples", "shims"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Read every lintable file under `root` into in-memory inputs with
/// workspace-relative forward-slash paths.
pub fn collect_inputs(root: &Path) -> std::io::Result<Vec<FileInput>> {
    let mut inputs = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = std::fs::read_to_string(&path)?;
        inputs.push(FileInput { rel, text });
    }
    Ok(inputs)
}

/// Read and lint the whole workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    Ok(lint_files(&collect_inputs(root)?))
}

/// Exit status for a lint run: 0 clean, 1 findings, 2 usage/IO error.
pub const EXIT_CLEAN: i32 = 0;
/// Findings were reported.
pub const EXIT_FINDINGS: i32 = 1;
/// The invocation itself failed (bad flag, unreadable workspace).
pub const EXIT_ERROR: i32 = 2;

/// Shared CLI driver used by both the standalone `mosaic-lint` binary and
/// the `mosaic lint` subcommand. Accepts `--format text|json`,
/// `--root <dir>`, `--sarif <path>` (additionally write a stable SARIF
/// 2.1.0 document); returns the process exit code.
pub fn cli_main(args: &[String]) -> i32 {
    let mut format = "text".to_owned();
    let mut root_arg: Option<PathBuf> = None;
    let mut sarif_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next() {
                Some(v) if v == "text" || v == "json" => format = v.clone(),
                Some(v) => {
                    eprintln!("mosaic-lint: unknown format {v:?} (expected text|json)");
                    return EXIT_ERROR;
                }
                None => {
                    eprintln!("mosaic-lint: --format requires a value");
                    return EXIT_ERROR;
                }
            },
            "--root" => match it.next() {
                Some(v) => root_arg = Some(PathBuf::from(v)),
                None => {
                    eprintln!("mosaic-lint: --root requires a value");
                    return EXIT_ERROR;
                }
            },
            "--sarif" => match it.next() {
                Some(v) => sarif_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("mosaic-lint: --sarif requires a path");
                    return EXIT_ERROR;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: mosaic-lint [--format text|json] [--root <dir>] [--sarif <path>]\n\n\
                     Enforces the Mosaic workspace invariants no stock lint\n\
                     covers: L7 unit consistency,\n\
                     L10 atomics discipline (Relaxed-only orderings, no fences,\n\
                     audited consumed RMWs), L11 lock discipline (no guard\n\
                     across fan-out, acyclic lock order, poison parity), and\n\
                     unused-allow staleness. Exits 0 when clean, 1 on findings.\n\
                     Determinism, unsafe code, EvictReason exhaustiveness,\n\
                     lossy casts and panic sites are checked by `cargo clippy`\n\
                     (CONTRIBUTING.md).\n\n\
                     --sarif <path> additionally writes the findings as a\n\
                     stable SARIF 2.1.0 document (for CI artifact upload)."
                );
                return EXIT_CLEAN;
            }
            other => {
                eprintln!("mosaic-lint: unknown argument {other:?}");
                return EXIT_ERROR;
            }
        }
    }

    let root = match root_arg {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("mosaic-lint: cannot determine working directory: {e}");
                    return EXIT_ERROR;
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("mosaic-lint: no workspace Cargo.toml found above {}", cwd.display());
                    return EXIT_ERROR;
                }
            }
        }
    };

    let report = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mosaic-lint: failed to scan {}: {e}", root.display());
            return EXIT_ERROR;
        }
    };

    if let Some(path) = sarif_path {
        if let Err(e) = std::fs::write(&path, report.to_sarif()) {
            eprintln!("mosaic-lint: failed to write SARIF to {}: {e}", path.display());
            return EXIT_ERROR;
        }
    }
    match format.as_str() {
        "json" => print!("{}", report.to_json()),
        _ => print!("{}", report.render_text()),
    }
    if report.is_clean() {
        EXIT_CLEAN
    } else {
        EXIT_FINDINGS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linter must pass on its own workspace: zero findings, with every
    /// surviving unit/sync site carrying a justified allow. Run
    /// from the source tree (the test binary's cwd or CARGO_MANIFEST_DIR).
    #[test]
    fn workspace_is_clean() {
        let start = std::env::var_os("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .or_else(|| std::env::current_dir().ok())
            .expect("no starting directory");
        let root = find_workspace_root(&start).expect("workspace root not found");
        let report = scan_workspace(&root).expect("scan failed");
        assert!(report.is_clean(), "workspace has lint findings:\n{}", report.render_text());
        assert!(report.files_scanned > 20, "suspiciously few files scanned");
    }

    #[test]
    fn walker_skips_fixture_directories() {
        let start = std::env::var_os("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .or_else(|| std::env::current_dir().ok())
            .expect("no starting directory");
        let root = find_workspace_root(&start).expect("workspace root not found");
        let files = collect_rs_files(&root).expect("walk failed");
        // The fixtures *directory* is skipped (its contents are deliberately
        // bad); the `tests/fixtures.rs` harness file itself is still linted.
        assert!(files.iter().all(|p| p.components().all(|c| c.as_os_str() != "fixtures")));
    }
}
