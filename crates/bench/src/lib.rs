//! Shared support for the experiment-regeneration binaries.
//!
//! Every table and figure of the paper has a `src/bin/` target that prints
//! "paper says / we measure" side by side; this module holds the plumbing
//! they share: flag parsing, dataset → pipeline wiring, and table
//! formatting.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "benchmark plumbing: timings and lookup tables are reported, never digested"
)]

use mosaic_core::CategorizerConfig;
use mosaic_pipeline::executor::{process, PipelineConfig, PipelineResult};
use mosaic_pipeline::source::{ClosureSource, TraceInput, VecSource};
use mosaic_synth::{Dataset, DatasetConfig, Payload};
use std::collections::HashMap;

pub mod perf;

/// Parsed `--key value` flags.
pub struct Flags(HashMap<String, String>);

impl Flags {
    /// Parse the process arguments (panics on malformed flags: these are
    /// experiment binaries, failing fast is the right behaviour).
    pub fn from_args() -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg.strip_prefix("--").unwrap_or_else(|| panic!("unexpected arg {arg:?}"));
            if key == "full" {
                map.insert(key.to_owned(), "true".to_owned());
                continue;
            }
            let value = it.next().unwrap_or_else(|| panic!("--{key} needs a value"));
            map.insert(key.to_owned(), value.clone());
        }
        Flags(map)
    }

    /// Typed flag with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.0.get(key) {
            Some(v) => v.parse().unwrap_or_else(|_| panic!("bad value for --{key}: {v:?}")),
            None => default,
        }
    }

    /// Boolean presence flag.
    pub fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

/// Standard experiment scale: `--n` traces (default 20,000; `--full` uses
/// the paper's 462,502) with `--seed`.
pub fn dataset(flags: &Flags) -> Dataset {
    let n = if flags.has("full") { 462_502 } else { flags.get("n", 20_000usize) };
    Dataset::new(DatasetConfig {
        n_traces: n,
        corruption_rate: flags.get("corruption", 0.32f64),
        seed: flags.get("seed", 42u64),
    })
}

/// Run the full pipeline over a dataset.
pub fn run_pipeline(ds: &Dataset, threads: Option<usize>) -> PipelineResult {
    run_pipeline_traced(ds, threads, None)
}

/// Run the full pipeline over a dataset, optionally recording a span
/// timeline of `capacity` entries (attached to the result's `timeline`).
pub fn run_pipeline_traced(
    ds: &Dataset,
    threads: Option<usize>,
    trace_capacity: Option<usize>,
) -> PipelineResult {
    let source = ClosureSource::new(ds.len(), |i| match ds.generate(i).payload {
        Payload::Log(log) => TraceInput::log(log),
        Payload::Bytes(bytes) => TraceInput::bytes(bytes),
    });
    let config = PipelineConfig {
        threads,
        categorizer: CategorizerConfig::default(),
        progress: None,
        trace_capacity,
        metrics: false,
    };
    process(&source, &config)
}

/// Pre-serialize every dataset payload to MDF wire bytes. Deliberately a
/// separate step so wire-fed benchmarks can serialize OUTSIDE the timed
/// region and measure parse→validate→merge→categorize, not generation.
pub fn wire_inputs(ds: &Dataset) -> Vec<TraceInput> {
    (0..ds.len())
        .map(|i| match ds.generate(i).payload {
            Payload::Log(log) => TraceInput::bytes(mosaic_darshan::mdf::to_bytes(&log)),
            Payload::Bytes(bytes) => TraceInput::bytes(bytes),
        })
        .collect()
}

/// Run the pipeline over pre-built inputs — the wire-fed harness of
/// `sec4e_performance`.
pub fn run_pipeline_inputs(inputs: Vec<TraceInput>, threads: Option<usize>) -> PipelineResult {
    let config = PipelineConfig { threads, ..Default::default() };
    process(&VecSource::new(inputs), &config)
}

/// Print a two-column "paper vs measured" row.
pub fn row(label: &str, paper: &str, measured: &str) {
    println!("  {label:<44} {paper:>14} {measured:>14}");
}

/// Print the header for [`row`] tables.
pub fn header(title: &str) {
    println!("\n== {title} ==");
    println!("  {:<44} {:>14} {:>14}", "", "paper", "measured");
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.325), "32.5%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn dataset_default_scale() {
        let flags = Flags(HashMap::new());
        assert_eq!(flags.get("n", 7usize), 7);
        assert!(!flags.has("full"));
    }
}
