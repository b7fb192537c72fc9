//! # mosaic-core
//!
//! MOSAIC — *Merging Operations and SegmentAtion for I/o Categorization* —
//! as described in Jolivel, Tessier, Monniot & Pallez, PDSW/SC 2024.
//!
//! Given the operation view of a Darshan-like trace
//! ([`mosaic_darshan::OperationView`]), MOSAIC assigns the trace a set of
//! non-exclusive categories along three axes (Table I of the paper):
//!
//! * **Temporality** — *when* reads and writes happen: `on_start`, `on_end`,
//!   `after_start`, `before_end`, `after_start_before_end`, `steady`, or
//!   `insignificant` (per direction, below a 100 MB threshold);
//! * **Periodicity** — checkpoint-style repetition, detected by segmenting
//!   the trace at operation starts and Mean Shift-clustering the
//!   `(segment duration, volume)` pairs; clusters of size > 1 are periodic
//!   operations, labeled with a period magnitude
//!   (`second`/`minute`/`hour`/`day_or_more`) and a busy-time class;
//! * **Metadata impact** — load on the metadata server: `high_spike`
//!   (> 250 req/s once), `multiple_spikes` (≥ 5 spikes of ≥ 50 req/s),
//!   `high_density` (≥ 5 spikes *and* ≥ 50 req/s on average), or
//!   `insignificant_load` (fewer requests than ranks).
//!
//! Before categorization, two merging passes clean the trace (§III-B2):
//! **concurrent merging** fuses overlapping operations (process
//! desynchronization), and **neighbor merging** fuses operations separated
//! by a negligible gap (< 0.1 % of the runtime or < 1 % of the neighbor's
//! duration).
//!
//! ## Quick example
//!
//! ```
//! use mosaic_core::{Categorizer, CategorizerConfig};
//! use mosaic_darshan::ops::{OpKind, Operation, OperationView};
//!
//! // A synthetic view: 6 checkpoint writes, one per ~100 s.
//! let writes: Vec<Operation> = (0..6)
//!     .map(|i| Operation {
//!         kind: OpKind::Write,
//!         start: 50.0 + 100.0 * i as f64,
//!         end: 60.0 + 100.0 * i as f64,
//!         bytes: 200 << 20,
//!         ranks: 64,
//!     })
//!     .collect();
//! let view = OperationView { runtime: 650.0, nprocs: 64, reads: vec![], writes, meta: vec![] };
//!
//! let report = Categorizer::new(CategorizerConfig::default()).categorize(&view);
//! assert!(report.names().iter().any(|n| n == "write_periodic_minute"));
//! assert!(report.names().iter().any(|n| n == "read_insignificant"));
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

pub mod categorize;
pub mod category;
pub mod columnar;
pub mod config;
pub mod discovery;
pub mod jaccard;
pub mod merge;
pub mod metadata;
pub mod online;
pub mod periodicity;
pub mod report;
pub mod segment;
pub mod spectral;
pub mod temporality;

pub use categorize::{CategorizeTimings, Categorizer, TraceReport};
pub use category::{Category, CategoryAxis, MetadataLabel, PeriodMagnitude, TemporalityLabel};
pub use config::{CategorizerConfig, PeriodicityMethod};
pub use jaccard::JaccardMatrix;
