//! # mosaic-signal
//!
//! Signal-processing substrate for baseline periodicity detection.
//!
//! The MOSAIC paper's related work (Tarraf et al., IPDPS 2024) detects
//! periodic I/O with frequency techniques — discrete Fourier transforms over
//! an activity signal — and the paper claims that approach "fails to
//! distinguish between two intricate periodic behaviors". To reproduce that
//! comparison, `mosaic-baselines` needs an FFT stack; this crate provides it
//! from scratch:
//!
//! * [`fft`] — complex numbers and an iterative radix-2 Cooley–Tukey FFT;
//! * [`periodogram`] — power spectra of real signals and dominant-frequency
//!   peak picking;
//! * [`autocorr`] — FFT-based autocorrelation and lag-domain period
//!   estimation;
//! * [`window`] — Hann windowing and binning helpers for turning operation
//!   intervals into activity signals.

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

pub mod autocorr;
pub mod fft;
pub mod periodogram;
pub mod window;

pub use fft::Complex;
