//! Decompression-bomb guard constants shared by every binary parser.
//!
//! Each wire format in this crate length-prefixes its variable-size fields,
//! and a hostile log can claim any length it likes — the classic prealloc
//! bomb is a 12-byte file whose header promises four billion records and
//! makes `Vec::with_capacity` do the damage. Every parser therefore compares
//! each untrusted length against a named `MAX_*` plausibility bound from this
//! module, and caps any capacity a length sizes at the remaining input bytes
//! over the entry's minimum encoded size, so no allocation is sized from a
//! wire count alone.
//!
//! The bounds are plausibility limits, not correctness limits: a legitimate
//! Blue Waters-scale log (the MOSAIC paper's corpus is 462k logs) sits orders
//! of magnitude below them, while anything above is rejected as
//! [`FormatError::ImplausibleLength`](crate::error::FormatError) long before
//! memory is committed.

/// Longest accepted `exe` string (command line) in an MDF header.
pub const MAX_EXE_LEN: u32 = 64 * 1024;
/// Highest accepted record count in an MDF or MDX trace.
pub const MAX_RECORDS: u32 = 64 * 1024 * 1024;
/// Highest accepted name-table size in an MDF trace.
pub const MAX_NAMES: u32 = 64 * 1024 * 1024;
/// Highest accepted per-trace access-segment count in an MDX (DXT) trace.
pub const MAX_ACCESSES: u32 = 256 * 1024 * 1024;

// The exe string is a single field while collections get the big caps, and
// DXT segments are finer-grained than records, so the caps must be ordered.
// Compile-time: a misordered edit fails `cargo build`, not a test run.
const _: () = assert!(MAX_EXE_LEN < MAX_RECORDS);
const _: () = assert!(MAX_ACCESSES > MAX_RECORDS);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_name_caps_match() {
        // The name table is keyed by record id, so the caps move together.
        assert_eq!(MAX_RECORDS, MAX_NAMES);
    }

    #[test]
    fn bounds_fit_in_memory_arithmetic() {
        // Guard arithmetic multiplies counts by per-entry wire sizes in u64;
        // the products must not overflow u64 even at the caps.
        let worst = u64::from(MAX_ACCESSES) * 1024;
        assert!(worst < u64::MAX / 1024);
    }
}
