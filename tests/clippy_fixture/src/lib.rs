//! Known-bad snippets, one per lint and `clippy.toml` path that replaced a
//! rule of the retired in-house linter, plus one audited and one stale
//! `#[expect]`. Every item here must draw the lint its comment names when
//! clippy runs with the workspace's CI flags.

// L6: the same crate-root opt-in as `darshan`, `core` and `pipeline`.
#![cfg_attr(
    not(test),
    warn(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)
)]
// L5: the same crate-root opt-in as the six parse-to-report crates.
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

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{
    compiler_fence, fence, AtomicBool, AtomicI16, AtomicI32, AtomicI64, AtomicI8, AtomicIsize,
    AtomicPtr, AtomicU16, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};
use std::sync::{Mutex, PoisonError};
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

/// L5 → `indexing_slicing`: an index and a slice a hostile length can
/// push out of bounds.
pub fn header(data: &[u8]) -> (u8, &[u8]) {
    (data[0], &data[1..8])
}

/// L5 → `unwrap_used` and `expect_used`.
pub fn counts(a: Option<u32>, b: Result<u32, String>) -> u32 {
    a.unwrap() + b.expect("a count")
}

/// L5 → `panic` and `unreachable`: aborting on a bad tag instead of
/// returning a typed error.
pub fn module(tag: u8) -> &'static str {
    match tag {
        0 => "posix",
        1 => panic!("retired module tag"),
        _ => unreachable!("unknown module tag"),
    }
}

/// L5 → `todo`.
pub fn dxt_stride() -> usize {
    todo!()
}

/// L5 → `unimplemented`.
pub fn mpiio_stride() -> usize {
    unimplemented!()
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

/// L10 → `disallowed_types`: every std atomic outside `mosaic_obs`'s
/// counter module, and `Ordering` with it.
pub struct Flags {
    ready: AtomicU64,
    state: AtomicUsize,
    pub b: AtomicBool,
    pub u8: AtomicU8,
    pub u16: AtomicU16,
    pub u32: AtomicU32,
    pub i8: AtomicI8,
    pub i16: AtomicI16,
    pub i32: AtomicI32,
    pub i64: AtomicI64,
    pub isize: AtomicIsize,
    pub ptr: AtomicPtr<u8>,
}

impl Flags {
    /// A `SeqCst` store publishing through the flag.
    pub fn publish(&self) {
        self.ready.store(1, Ordering::SeqCst);
    }

    /// An `AcqRel` read-modify-write whose result is consumed.
    pub fn claim(&self) -> usize {
        self.state.fetch_add(1, Ordering::AcqRel)
    }
}

/// L10 → `disallowed_methods`: `fence` and `compiler_fence`.
pub fn publish_by_fence() {
    fence(Ordering::Release);
    compiler_fence(Ordering::Acquire);
}

/// L11 → `disallowed_methods`: a raw `lock()` and a raw `try_lock()`, whose
/// guards can outlive the statement, unlike `mosaic_obs::lock`'s closures.
pub fn totals(m: &Mutex<u64>) -> u64 {
    let held = *m.lock().unwrap_or_else(PoisonError::into_inner);
    let tried = m.try_lock().map_or(0, |guard| *guard);
    held + tried
}
