//! # mosaic-darshan
//!
//! A from-scratch, Darshan-like I/O trace substrate for the MOSAIC
//! reproduction.
//!
//! [Darshan](https://www.mcs.anl.gov/research/projects/darshan/) is the I/O
//! characterization tool that produced the Blue Waters traces analyzed by the
//! MOSAIC paper (Jolivel et al., PDSW/SC 2024). Darshan records, for every
//! `(rank, file)` pair an application touches, a fixed vector of integer
//! counters (operation counts, byte totals, access-size histograms) and
//! floating-point counters (timestamps, cumulative times). Crucially, all
//! accesses between the opening and closing of a file are **aggregated**: the
//! trace tells you that *some* reads happened between
//! `F_READ_START_TIMESTAMP` and `F_READ_END_TIMESTAMP` and how many bytes
//! they moved, but not their temporal distribution. MOSAIC's algorithms are
//! designed around exactly this shape of input, so this crate reproduces it
//! faithfully:
//!
//! * [`counter`] — the counter vocabulary (a curated subset of Darshan's
//!   POSIX module counters, plus the module tag).
//! * [`record`] — per-`(rank, file)` records and their accessors.
//! * [`job`] — the job-level header (job id, user, `nprocs`, wallclock).
//! * [`log`] — [`log::TraceLog`], a complete trace: header + records + file
//!   name table.
//! * [`ops`] — extraction of the *operation view* (timed read/write intervals
//!   and metadata events) that MOSAIC's merging/segmentation consumes.
//! * [`mdf`] — the MOSAIC Darshan Format: a compact, CRC-protected binary
//!   serialization with a writer and a strict parser.
//! * [`limits`] — the shared decompression-bomb guard constants every binary
//!   parser compares untrusted lengths against.
//! * [`text`] — a `darshan-parser`-style line-oriented text format.
//! * [`validate`] — the validity rules of MOSAIC's pre-processing step ①
//!   (corrupted-entry detection and eviction).
//! * [`synthutil`] — small helpers shared by trace-producing crates.
//!
//! ## Quick example
//!
//! ```
//! use mosaic_darshan::job::JobHeader;
//! use mosaic_darshan::log::TraceLogBuilder;
//! use mosaic_darshan::counter::PosixCounter as C;
//! use mosaic_darshan::counter::PosixFCounter as F;
//!
//! let mut b = TraceLogBuilder::new(JobHeader::new(42, 1001, 64, 1_600_000_000, 1_600_003_600)
//!     .with_exe("/apps/sim/checkpointer --steps 100"));
//! let r = b.begin_record("/scratch/ckpt/dump.0001", -1);
//! b.record_mut(r).set(C::Opens, 64)
//!     .set(C::Writes, 640)
//!     .set(C::BytesWritten, 64 << 20)
//!     .setf(F::OpenStartTimestamp, 10.0)
//!     .setf(F::WriteStartTimestamp, 10.5)
//!     .setf(F::WriteEndTimestamp, 12.0)
//!     .setf(F::CloseEndTimestamp, 12.5);
//! let log = b.finish();
//! assert_eq!(log.records().len(), 1);
//! let bytes = mosaic_darshan::mdf::to_bytes(&log);
//! let parsed = mosaic_darshan::mdf::from_bytes(&bytes).unwrap();
//! assert_eq!(parsed, log);
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

pub mod convert;
pub mod counter;
pub mod dxt;
pub mod error;
pub mod job;
pub mod limits;
pub mod log;
pub mod mdf;
pub mod ops;
pub mod record;
pub mod synthutil;
pub mod text;
pub mod transform;
pub mod validate;
pub mod view;
mod wire;

pub use error::{EvictClass, EvictReason, FormatError, ValidityError};
pub use job::JobHeader;
pub use log::{TraceLog, TraceLogBuilder};
pub use ops::{MetaEvent, MetaKind, OpKind, Operation, OperationView};
pub use record::{PosixRecord, RecordFields};
pub use validate::TraceFields;
pub use view::{RecordView, TraceView};
