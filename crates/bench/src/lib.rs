//! The paper's scorecard.
//!
//! Every table, figure and ablation the paper reports (plus this repo's
//! extensions) is one entry of [`FIGURES`]. Each entry turns its inputs into
//! rows `{figure, quantity, paper, measured, check}` and says, from those
//! rows alone, what they show. The `reproduce` binary builds every input
//! once; at the canonical scale it writes all rows to
//! `results/scorecard.json` and renders `results/scorecard.txt`, at any
//! other it prints the rendering. `tests/scorecard.rs` evaluates each
//! figure's row checks.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin reproduce [-- --n 50000 | --full] [--seed 7]
//! ```

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "benchmark plumbing: timings and lookup tables are reported, never digested"
)]

mod ablations;
mod extensions;
mod paper;
pub mod scorecard;

use ablations::{chunks, clustering, merging, periodicity_method, thresholds};
use extensions::{baseline_fft as fft, discovery, dxt_gap, interference, online};
use mosaic_core::CategorizerConfig;
use mosaic_pipeline::executor::{process, PipelineConfig, PipelineResult};
use mosaic_pipeline::source::{ClosureSource, TraceInput};
use mosaic_synth::{Dataset, DatasetConfig, Payload};
use paper::{fig3, fig4, fig5, sec3b1, sec4d, sec4e, table2, table3};
pub use scorecard::{Check, Measured, Row, Rows};
use std::sync::OnceLock;

/// The canonical dataset's scale: `--n` traces (default 20,000; `--full`
/// uses the paper's 462,502) drawn with `--seed` (default 42).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Number of traces.
    pub n: usize,
    /// Dataset seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale { n: 20_000, seed: 42 }
    }
}

impl Scale {
    /// Parse `--n N`, `--seed S` and `--full` (panics on anything else:
    /// failing fast is the right behaviour for an experiment binary).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Scale {
        let mut scale = Scale::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => scale.n = 462_502,
                "--n" => scale.n = flag_value(&arg, args.next()),
                "--seed" => scale.seed = flag_value(&arg, args.next()),
                _ => panic!("unexpected argument {arg:?} (known: --n N, --seed S, --full)"),
            }
        }
        scale
    }
}

fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let v = value.unwrap_or_else(|| panic!("{flag} needs a value"));
    v.parse().unwrap_or_else(|_| panic!("bad value for {flag}: {v:?}"))
}

/// The canonical dataset and its one pipeline run, shared by every figure
/// that reads the synthetic year.
pub(crate) struct Canonical {
    /// The dataset (32 % corruption, as in Fig 3).
    pub(crate) ds: Dataset,
    /// `process` over every trace of `ds` with the default configuration.
    pub(crate) result: PipelineResult,
}

/// The inputs the figures draw on; the canonical run is built on first use.
pub struct Inputs {
    scale: Scale,
    canonical: OnceLock<Canonical>,
}

impl Inputs {
    /// Inputs at `scale`; nothing is built yet.
    pub fn new(scale: Scale) -> Inputs {
        Inputs { scale, canonical: OnceLock::new() }
    }

    /// The canonical run, built once.
    pub(crate) fn canonical(&self) -> &Canonical {
        self.canonical.get_or_init(|| {
            let ds = dataset(self.scale.n, 0.32, self.scale.seed);
            let result = run(&ds, CategorizerConfig::default());
            Canonical { ds, result }
        })
    }
}

/// A synthetic year of `n` traces.
fn dataset(n: usize, corruption_rate: f64, seed: u64) -> Dataset {
    Dataset::new(DatasetConfig { n_traces: n, corruption_rate, seed })
}

/// Run the full pipeline over a dataset with one categorizer configuration.
fn run(ds: &Dataset, categorizer: CategorizerConfig) -> PipelineResult {
    let source = ClosureSource::new(ds.len(), |i| match ds.generate(i).payload {
        Payload::Log(log) => TraceInput::log(log),
        Payload::Bytes(bytes) => TraceInput::bytes(bytes),
    });
    process(&source, &PipelineConfig { categorizer, ..Default::default() })
}

/// One scorecard entry.
pub struct Figure {
    /// Short key, the `figure` field of its rows.
    pub key: &'static str,
    /// What the entry shows.
    pub title: &'static str,
    /// Measure the entry.
    pub rows: fn(&Inputs) -> Rows,
}

/// Every scorecard entry, in the order the scorecard shows them.
pub const FIGURES: &[Figure] = &[
    Figure { key: "Fig 3", title: "pre-processing funnel", rows: fig3 },
    Figure { key: "Fig 4", title: "metadata category distribution", rows: fig4 },
    Figure { key: "Fig 5", title: "Jaccard indices, single-run set (pairs ≥ 1%)", rows: fig5 },
    Figure { key: "§III-B1", title: "per-application categorization stability", rows: sec3b1 },
    Figure { key: "Table II", title: "detection of periodic operations", rows: table2 },
    Figure { key: "Table III", title: "detection of temporality", rows: table3 },
    Figure { key: "§IV-D", title: "noteworthy correlations", rows: sec4d },
    Figure { key: "§IV-E", title: "accuracy of 512-trace samples vs ground truth", rows: sec4e },
    Figure { key: "§II-B", title: "MOSAIC vs an FFT detector on two writers", rows: fft },
    Figure { key: "§IV-A", title: "the aggregation gap, via simulated DXT", rows: dxt_gap },
    Figure {
        key: "§V discovery", title: "k-means clusters, profiles at ≥ 60%", rows: discovery
    },
    Figure { key: "§V interference", title: "contention and staggering", rows: interference },
    Figure { key: "online", title: "when the online verdict settles", rows: online },
    Figure { key: "ablation: chunks", title: "temporality chunk count", rows: chunks },
    Figure { key: "ablation: clustering", title: "segment grouping", rows: clustering },
    Figure {
        key: "ablation: merging",
        title: "300 s checkpoints from 32 desynced ranks",
        rows: merging,
    },
    Figure {
        key: "ablation: periodicity method",
        title: "which detector",
        rows: periodicity_method,
    },
    Figure { key: "ablation: thresholds", title: "the §III-A thresholds", rows: thresholds },
];

/// Sentences built from an entry's rows, and from nothing else.
pub(crate) type Reading = fn(&[Row]) -> Vec<String>;

/// The entries whose rows support a reading.
pub(crate) const READINGS: &[(&str, Reading)] = &[
    ("§IV-A", extensions::dxt_gap_reading),
    ("§V discovery", extensions::discovery_reading),
    ("§V interference", extensions::interference_reading),
    ("online", extensions::online_reading),
    ("ablation: chunks", ablations::chunks_reading),
    ("ablation: merging", ablations::merging_reading),
];

/// The rows of the entry `key`.
pub fn figure(key: &str, inputs: &Inputs) -> Vec<Row> {
    let figure = FIGURES.iter().find(|f| f.key == key).unwrap_or_else(|| panic!("no figure {key}"));
    (figure.rows)(inputs).rows
}

/// The rows of every entry, in [`FIGURES`] order.
pub fn scorecard(inputs: &Inputs) -> Vec<Row> {
    FIGURES.iter().flat_map(|f| (f.rows)(inputs).rows).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scale_defaults_to_the_canonical_run_and_reads_its_three_flags() {
        assert_eq!(Scale::parse(args(&[])), Scale { n: 20_000, seed: 42 });
        assert_eq!(Scale::parse(args(&["--n", "500", "--seed", "7"])), Scale { n: 500, seed: 7 });
        assert_eq!(Scale::parse(args(&["--full"])).n, 462_502);
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn scale_rejects_a_flag_it_does_not_know() {
        Scale::parse(args(&["--sample", "512"]));
    }

    #[test]
    fn figure_keys_are_unique_and_every_reading_has_a_figure() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|g| g.key != f.key), "duplicate key {}", f.key);
        }
        for (key, _) in READINGS {
            assert!(FIGURES.iter().any(|f| f.key == *key), "reading for no figure: {key}");
        }
    }
}
