//! Regenerate the paper's scorecard: every table, figure and ablation as
//! rows of paper-vs-measured values. At the canonical scale (no flags) the
//! rows are written to `results/scorecard.json` and rendered to
//! `results/scorecard.txt`; at any other `--n`, `--seed` or `--full` the
//! text rendering goes to stdout and the committed files are left alone.
//! Exits 1 if any row fails its check.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin reproduce [-- --n 50000 | --full] [--seed 7]
//! ```

#![forbid(unsafe_code)]

use mosaic_bench::scorecard::{render_text, to_json};
use mosaic_bench::{scorecard, Inputs, Scale};
use std::path::Path;

/// Whether a run at `scale` writes the committed `results/` files: only the
/// canonical run does, so a sweep at another seed or size cannot overwrite
/// them.
fn writes_results(scale: Scale) -> bool {
    scale == Scale::default()
}

fn main() {
    let scale = Scale::parse(std::env::args().skip(1));
    let rows = scorecard(&Inputs::new(scale));
    let text = render_text(&rows);
    let written = if writes_results(scale) {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        std::fs::create_dir_all(&results).expect("results directory");
        for (file, text) in [("scorecard.json", to_json(&rows)), ("scorecard.txt", text)] {
            let path = results.join(file);
            std::fs::write(&path, text)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        "results/scorecard.{json,txt}"
    } else {
        print!("{text}");
        "scorecard (not written: not the canonical scale)"
    };
    let failing: Vec<_> = rows.iter().filter(|r| !r.passes()).collect();
    let checked = rows.iter().filter(|r| r.check.is_some()).count();
    println!("{written}: {} rows, {checked} checks, {} failing", rows.len(), failing.len());
    for row in &failing {
        println!(
            "FAIL {} / {}: {} is not {}",
            row.figure,
            row.quantity,
            row.measured,
            row.rule().unwrap_or_default()
        );
    }
    if !failing.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_canonical_scale_writes_results() {
        assert!(writes_results(Scale::default()));
        assert!(writes_results(Scale { n: 20_000, seed: 42 }));
        for scale in [
            Scale { n: 20_000, seed: 7 },
            Scale { n: 500, seed: 42 },
            Scale { n: 462_502, seed: 42 },
            Scale { n: 0, seed: 0 },
        ] {
            assert!(!writes_results(scale), "{scale:?} would overwrite results/");
        }
    }
}
