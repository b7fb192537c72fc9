//! # mosaic-pipeline
//!
//! The parallel trace-processing pipeline around [`mosaic_core`] — the role
//! Dispy played for the paper's Python implementation, rebuilt on Rayon's
//! data-parallel iterators.
//!
//! The pipeline implements the full workflow of Fig 1 at dataset scale:
//!
//! 1. **ingest** — each trace is fetched from a [`source::TraceSource`]
//!    (raw MDF bytes or an already-decoded log), parsed, and validated;
//!    corrupted traces are evicted and counted (Fig 3's funnel);
//! 2. **categorize** — every valid trace runs through the
//!    [`mosaic_core::Categorizer`] in parallel;
//! 3. **deduplicate** — traces group by `(uid, application)`; the heaviest
//!    (most I/O-intensive) trace of each group forms the *single-run* set
//!    (§III-B1), while the full set forms the *all-runs* view;
//! 4. **aggregate** — category distributions for both views, the Jaccard
//!    co-occurrence matrix, and per-application stability statistics.
//!
//! Every eviction carries a typed [`mosaic_darshan::EvictReason`] in
//! [`FunnelStats::by_reason`], and every run produces a
//! [`mosaic_obs::MetricsReport`] with per-stage timings and throughput.
//!
//! ```
//! use mosaic_core::CategorizerConfig;
//! use mosaic_pipeline::executor::{process, PipelineConfig};
//! use mosaic_pipeline::source::{ClosureSource, TraceInput};
//! use mosaic_synth::{Dataset, DatasetConfig, Payload};
//!
//! let ds = Dataset::new(DatasetConfig { n_traces: 200, seed: 1, ..Default::default() });
//! let source = ClosureSource::new(ds.len(), |i| match ds.generate(i).payload {
//!     Payload::Log(log) => TraceInput::log(log),
//!     Payload::Bytes(bytes) => TraceInput::bytes(bytes),
//! });
//! let result = process(&source, &PipelineConfig::default());
//! assert_eq!(result.funnel.total, 200);
//! assert!(result.funnel.evicted() > 0);
//! assert_eq!(result.funnel.by_reason.values().sum::<usize>(), result.funnel.evicted());
//! assert!(result.representatives.len() < result.outcomes.len());
//! assert!(result.metrics.traces_per_second > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Lossy-cast safety on the parse/merge/categorize paths: a silently
// truncating, wrapping or sign-dropping `as` corrupts offsets, record
// counts or interval math. Test code is exempt.
#![cfg_attr(
    not(test),
    warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]
// Panic safety: a hostile trace must become a typed funnel error, never a
// crash. Production code neither indexes, slices nor unwraps without an
// audited `#[expect]` naming its proof. Test code is exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod dedup;
pub mod executor;
pub mod funnel;
pub mod incremental;
pub mod interference;
pub mod report_md;
pub mod snapshot;
pub mod source;
pub mod stability;

pub use executor::{process, PipelineConfig, PipelineResult, RunOutcome};
pub use funnel::FunnelStats;
pub use incremental::IncrementalAnalyzer;
pub use snapshot::{RepSnapshot, ResultSnapshot};
pub use source::{ClosureSource, DirSource, TraceInput, TraceSource, VecSource};
