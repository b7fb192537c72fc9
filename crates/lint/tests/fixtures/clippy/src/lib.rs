//! Known-bad snippets, one per retired mosaic-lint rule, plus one audited
//! and one stale `#[expect]`. Every item here must draw the lint its
//! comment names when clippy runs with the workspace's CI flags.

// L6: the same crate-root opt-in as `darshan`, `core` and `pipeline`.
#![cfg_attr(
    not(test),
    warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

/// L2 → `disallowed_types`: hash-seeded iteration order.
pub fn tally(keys: &[u32]) -> usize {
    let mut seen: HashSet<u32> = HashSet::new();
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for &k in keys {
        seen.insert(k);
        *counts.entry(k).or_insert(0) += 1;
    }
    seen.len() + counts.len()
}

/// L2 → `disallowed_methods`: wall-clock and monotonic clock reads.
pub fn clocks(epoch: Instant) -> u128 {
    let started = Instant::now();
    let _stamp = SystemTime::now();
    epoch.elapsed().as_nanos() + started.duration_since(epoch).as_nanos()
}

/// L3 → `unsafe_code` (CI passes `-F unsafe_code`).
pub fn read_first(data: &[u8]) -> u8 {
    unsafe { *data.as_ptr() }
}

/// L4: the funnel taxonomy and its accounting, denied wildcards as in
/// `crates/darshan/src/error.rs`.
#[derive(Clone, Copy)]
pub enum EvictReason {
    IoError,
    BadMagic,
    UnknownModule,
    InvalidUtf8,
}

#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
impl EvictReason {
    /// L4 → `match_wildcard_for_single_variants`: `_` hides the one
    /// remaining variant.
    pub fn slug(self) -> &'static str {
        match self {
            EvictReason::IoError => "io_error",
            EvictReason::BadMagic => "bad_magic",
            EvictReason::UnknownModule => "unknown_module",
            _ => "other",
        }
    }

    /// L4 → `wildcard_enum_match_arm`: `_` hides several variants.
    pub fn class(self) -> &'static str {
        match self {
            EvictReason::IoError => "io",
            _ => "format",
        }
    }
}

/// L6 → `cast_possible_truncation`, `cast_sign_loss`,
/// `cast_possible_wrap`; then one audited and one stale expectation.
pub fn casts(len: u64, count: i64) -> f64 {
    let narrowed = len as u32;
    let unsigned = count as u64;
    let wrapped = len as i64;
    #[expect(clippy::cast_possible_truncation, reason = "demo: len < 2^16 by the caller's guard")]
    let audited = len as u16;
    // `unfulfilled_lint_expectations`: an `as f64` is never flagged.
    #[expect(clippy::cast_possible_truncation, reason = "stale: nothing here truncates")]
    let widened = len as f64;
    f64::from(narrowed) + unsigned as f64 + wrapped as f64 + f64::from(audited) + widened
}

/// `allow_attributes_without_reason`: every allow must state its proof.
#[allow(clippy::needless_range_loop)]
pub fn sum(xs: &[u8]) -> u32 {
    let mut total = 0;
    for i in 0..xs.len() {
        total += u32::from(xs[i]);
    }
    total
}
