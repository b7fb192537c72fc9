//! Regenerate the paper's scorecard: every table, figure and ablation as
//! rows of paper-vs-measured values, written to `results/scorecard.json` and
//! rendered to `results/scorecard.txt`. Exits 1 if any row fails its check.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin reproduce [-- --n 50000 | --full] [--seed 7]
//! ```

#![forbid(unsafe_code)]

use mosaic_bench::scorecard::{render_text, to_json};
use mosaic_bench::{scorecard, Inputs, Scale};
use std::path::Path;

fn main() {
    let scale = Scale::parse(std::env::args().skip(1));
    let rows = scorecard(&Inputs::new(scale));
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("results directory");
    for (file, text) in [("scorecard.json", to_json(&rows)), ("scorecard.txt", render_text(&rows))]
    {
        let path = results.join(file);
        std::fs::write(&path, text)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    let failing: Vec<_> = rows.iter().filter(|r| !r.passes()).collect();
    let checked = rows.iter().filter(|r| r.check.is_some()).count();
    println!(
        "results/scorecard.{{json,txt}}: {} rows, {checked} checks, {} failing",
        rows.len(),
        failing.len()
    );
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
