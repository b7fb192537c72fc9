//! # mosaic-clustering
//!
//! Clustering substrate for the MOSAIC reproduction.
//!
//! MOSAIC's periodicity detection (§III-B3a of the paper) clusters trace
//! *segments* — `(segment duration, operation volume)` pairs — with
//! **Mean Shift** (Fukunaga & Hostetler 1975): every cluster of size > 1 is a
//! periodic operation, and several periodic operations can coexist in one
//! trace. This crate implements Mean Shift from scratch, plus **k-means**
//! (which category discovery and the clustering ablation use), and the
//! feature-scaling and cluster-quality utilities both need.
//!
//! All algorithms operate on fixed-dimension points `[f64; D]` so the hot
//! loops stay allocation-free and auto-vectorizable.
//!
//! ```
//! use mosaic_clustering::meanshift::MeanShift;
//!
//! // Two tight groups and one straggler.
//! let pts: Vec<[f64; 2]> = vec![
//!     [1.0, 1.0], [1.1, 0.9], [0.9, 1.05],
//!     [9.0, 9.0], [9.1, 9.1],
//!     [50.0, -3.0],
//! ];
//! let result = MeanShift::new(1.0).fit(&pts);
//! assert_eq!(result.n_clusters(), 3);
//! assert_eq!(result.cluster_sizes().iter().filter(|&&s| s > 1).count(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
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

pub mod kmeans;
pub mod meanshift;
pub mod metrics;
pub mod point;
pub mod scale;

pub use meanshift::MeanShift;
pub use point::Clustering;
