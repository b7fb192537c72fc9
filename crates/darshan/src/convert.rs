//! Explicit, panic-free integer conversions.
//!
//! The wire formats and counter plumbing constantly move values between
//! `usize`, the fixed-width wire types, and the `i64` Darshan counters.
//! Bare `as` casts silently truncate or wrap on out-of-range values, so
//! clippy's cast lints reject them in this crate; these helpers make
//! every conversion's behaviour explicit instead. Each one is total: the
//! out-of-range branch is either impossible on supported targets or a
//! documented clamp, never a panic.

/// `u32` → `usize`. Lossless on every supported target (pointer width is
/// at least 32 bits); clamps on a hypothetical 16-bit target.
#[inline]
pub fn u32_to_usize(n: u32) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// `usize` → `u64`. Lossless on every supported target (pointer width is
/// at most 64 bits); clamps on a hypothetical 128-bit target.
#[inline]
pub fn usize_to_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// `usize` → `i64`, saturating at `i64::MAX` for lengths above 2^63.
#[inline]
pub fn usize_to_i64(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// `u64` → `i64`, saturating at `i64::MAX` for values above 2^63.
#[inline]
pub fn saturating_i64(n: u64) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// `i64` → `u64`, clamping negatives to zero. Darshan counters use
/// negative values to mean "not recorded", so zero is the right reading
/// when a non-negative quantity is required.
#[inline]
pub fn nonneg_u64(n: i64) -> u64 {
    u64::try_from(n).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_to_usize_is_identity_in_range() {
        assert_eq!(u32_to_usize(0), 0);
        assert_eq!(u32_to_usize(u32::MAX), u32::MAX as usize);
    }

    #[test]
    fn usize_to_u64_is_identity_in_range() {
        assert_eq!(usize_to_u64(0), 0);
        assert_eq!(usize_to_u64(4096), 4096);
    }

    #[test]
    fn signed_conversions_saturate() {
        assert_eq!(usize_to_i64(usize::MAX), i64::MAX);
        assert_eq!(saturating_i64(u64::MAX), i64::MAX);
        assert_eq!(saturating_i64(7), 7);
    }

    #[test]
    fn nonneg_clamps_negative_counters_to_zero() {
        assert_eq!(nonneg_u64(-1), 0);
        assert_eq!(nonneg_u64(i64::MIN), 0);
        assert_eq!(nonneg_u64(42), 42);
    }
}
