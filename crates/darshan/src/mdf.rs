//! MDF — the MOSAIC Darshan Format.
//!
//! A compact little-endian binary serialization of [`TraceLog`] with a
//! CRC-32 footer, playing the role of Darshan's `.darshan` log files.
//!
//! ```text
//! +----------------------------+
//! | magic  "MOSAICDF"  (8 B)   |
//! | version u16 | flags u16    |
//! | job header                 |
//! |   job_id u64, uid u32,     |
//! |   nprocs u32,              |
//! |   start i64, end i64,      |
//! |   exe (u32 len + bytes)    |
//! | n_records u32              |
//! | records ×n                 |
//! |   record_id u64, rank i32, |
//! |   module u8,               |
//! |   counters  ×25 i64,       |
//! |   fcounters ×11 f64        |
//! | name table                 |
//! |   count u32, entries:      |
//! |   id u64, len u16, bytes   |
//! | crc32 u32 over all above   |
//! +----------------------------+
//! ```
//!
//! The parser is strict: bad magic, unknown versions, truncation, implausible
//! lengths and checksum mismatches are all reported as distinct
//! [`FormatError`]s, which the MOSAIC pre-processing step ① counts as
//! *corrupted traces* and evicts.

use crate::convert::usize_to_u64;
use crate::counter::{N_POSIX_COUNTERS, N_POSIX_FCOUNTERS};
use crate::error::FormatError;
use crate::log::TraceLog;
use crate::synthutil::Crc32;
use crate::view::TraceView;
use bytes::{BufMut, BytesMut};

/// File magic.
pub const MAGIC: &[u8; 8] = b"MOSAICDF";
/// Current format version.
pub const VERSION: u16 = 1;

// Decompression-bomb guards live in [`crate::limits`]; re-exported here so
// existing `mdf::MAX_*` call sites keep one canonical definition.
pub use crate::limits::{MAX_EXE_LEN, MAX_NAMES, MAX_RECORDS};

/// Exact wire size of one record (fixed-width fields only).
pub const RECORD_WIRE_BYTES: usize = 8 + 4 + 1 + N_POSIX_COUNTERS * 8 + N_POSIX_FCOUNTERS * 8;
/// Minimum wire size of one name-table entry (id + length prefix).
pub const NAME_WIRE_MIN_BYTES: usize = 8 + 2;

/// Serialize a trace to MDF bytes.
///
/// Convenience wrapper over [`try_to_bytes`] for traces whose fields are
/// known to fit their length prefixes (anything a parser or builder in this
/// workspace produced). Panics only on fields past `u32::MAX`/`u16::MAX`
/// bytes, which no representable encoding could carry.
#[expect(clippy::expect_used, reason = "the documented panic of this convenience wrapper")]
pub fn to_bytes(log: &TraceLog) -> Vec<u8> {
    try_to_bytes(log).expect("trace exceeds MDF wire limits")
}

/// Serialize a trace to MDF bytes, reporting oversized fields as typed
/// errors instead of silently truncating their length prefixes.
///
/// The writer only guards *representability* (a field must fit its length
/// prefix); the plausibility bomb-guards (`MAX_EXE_LEN` and friends) belong
/// to [`from_bytes`], which cannot trust its input. An in-memory trace past
/// those limits still encodes self-consistently — and is then rejected on
/// parse.
pub fn try_to_bytes(log: &TraceLog) -> Result<Vec<u8>, FormatError> {
    let mut buf = BytesMut::with_capacity(estimated_size(log));
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(0); // flags, reserved
    let h = log.header();
    buf.put_u64_le(h.job_id);
    buf.put_u32_le(h.uid);
    buf.put_u32_le(h.nprocs);
    buf.put_i64_le(h.start_time);
    buf.put_i64_le(h.end_time);
    buf.put_u32_le(wire_len(h.exe.len(), "exe")?);
    buf.put_slice(h.exe.as_bytes());
    buf.put_u32_le(wire_len(log.records().len(), "record count")?);
    for r in log.records() {
        buf.put_u64_le(r.record_id);
        buf.put_i32_le(r.rank);
        buf.put_u8(r.module.tag());
        for &c in &r.counters {
            buf.put_i64_le(c);
        }
        for &c in &r.fcounters {
            buf.put_f64_le(c);
        }
    }
    buf.put_u32_le(wire_len(log.names().len(), "name count")?);
    for (id, name) in log.names() {
        buf.put_u64_le(*id);
        let name_len = u16::try_from(name.len()).map_err(|_| FormatError::ImplausibleLength {
            context: "name",
            len: usize_to_u64(name.len()),
        })?;
        buf.put_u16_le(name_len);
        buf.put_slice(name.as_bytes());
    }
    let crc = Crc32::checksum(&buf);
    buf.put_u32_le(crc);
    Ok(buf.to_vec())
}

/// Encode an in-memory length as a `u32` wire field.
fn wire_len(len: usize, context: &'static str) -> Result<u32, FormatError> {
    u32::try_from(len)
        .map_err(|_| FormatError::ImplausibleLength { context, len: usize_to_u64(len) })
}

/// Conservative size estimate used to pre-allocate the encode buffer.
pub fn estimated_size(log: &TraceLog) -> usize {
    let names: usize = log.names().values().map(|n| NAME_WIRE_MIN_BYTES + n.len()).sum();
    64 + log.header().exe.len() + log.records().len() * RECORD_WIRE_BYTES + names
}

/// Parse MDF bytes into a [`TraceLog`].
///
/// The one MDF parser is [`TraceView::parse`]; this materializes its
/// borrowed view for callers that want an owned log.
pub fn from_bytes(data: &[u8]) -> Result<TraceLog, FormatError> {
    TraceView::parse(data).map(|view| view.to_log())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::PosixCounter as C;
    use crate::counter::PosixFCounter as F;
    use crate::job::JobHeader;
    use crate::log::TraceLogBuilder;

    fn sample() -> TraceLog {
        let mut b = TraceLogBuilder::new(
            JobHeader::new(99, 1234, 256, 1_500_000_000, 1_500_007_200)
                .with_exe("/apps/milc/su3_rmd in.milc"),
        );
        for i in 0..5 {
            let r = b.begin_record(&format!("/scratch/file.{i}"), if i == 0 { -1 } else { i });
            b.record_mut(r)
                .set(C::Reads, i as i64 * 10)
                .set(C::BytesRead, i as i64 * 1024)
                .set(C::Opens, 2)
                .setf(F::ReadStartTimestamp, i as f64)
                .setf(F::ReadEndTimestamp, i as f64 + 0.5);
        }
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let log = sample();
        let bytes = to_bytes(&log);
        let parsed = from_bytes(&bytes).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn roundtrip_empty_log() {
        let log = TraceLogBuilder::new(JobHeader::new(0, 0, 0, 0, 0)).finish();
        let parsed = from_bytes(&to_bytes(&log)).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        assert_eq!(from_bytes(&bytes), Err(FormatError::BadMagic));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = to_bytes(&sample());
        for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
            let err = from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, FormatError::ChecksumMismatch { .. } | FormatError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bitflip_anywhere_fails_checksum() {
        let bytes = to_bytes(&sample());
        // Flip a bit in the middle of the record section.
        let mut corrupted = bytes.clone();
        let mid = bytes.len() / 2;
        corrupted[mid] ^= 0x40;
        assert!(matches!(from_bytes(&corrupted), Err(FormatError::ChecksumMismatch { .. })));
    }

    #[test]
    fn future_version_is_rejected() {
        let log = TraceLogBuilder::new(JobHeader::new(0, 0, 0, 0, 0)).finish();
        let mut bytes = to_bytes(&log);
        bytes[8] = 0xff; // version LSB
        bytes[9] = 0x00;
        // Re-checksum so the version check is what fires.
        let n = bytes.len();
        let crc = Crc32::checksum(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(from_bytes(&bytes), Err(FormatError::UnsupportedVersion(255)));
    }

    /// Patch a little-endian u32 at `offset` and fix up the trailing CRC so
    /// only the patched field (not the checksum) is what the parser rejects.
    fn patch_u32_and_recrc(bytes: &mut [u8], offset: usize, value: u32) {
        bytes[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
        let n = bytes.len();
        let crc = Crc32::checksum(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Byte offset of the `n_records` field (after header + exe string).
    fn n_records_offset(bytes: &[u8]) -> usize {
        let exe_len_off = 8 + 2 + 2 + 8 + 4 + 4 + 8 + 8;
        let exe_len =
            u32::from_le_bytes(bytes[exe_len_off..exe_len_off + 4].try_into().unwrap()) as usize;
        exe_len_off + 4 + exe_len
    }

    #[test]
    fn hostile_record_count_is_rejected_without_allocating() {
        // A tiny file with a valid CRC claiming 60M records must fail fast
        // as truncated — not attempt a multi-GB `Vec::with_capacity`.
        let log = TraceLogBuilder::new(JobHeader::new(1, 1, 1, 0, 10)).finish();
        let mut bytes = to_bytes(&log);
        let off = n_records_offset(&bytes);
        patch_u32_and_recrc(&mut bytes, off, 60_000_000);
        assert_eq!(from_bytes(&bytes), Err(FormatError::Truncated { context: "record array" }));
        // Beyond the absolute cap it is implausible, not merely truncated.
        patch_u32_and_recrc(&mut bytes, off, MAX_RECORDS + 1);
        assert!(matches!(
            from_bytes(&bytes),
            Err(FormatError::ImplausibleLength { context: "record count", .. })
        ));
    }

    #[test]
    fn hostile_name_count_is_rejected_without_allocating() {
        let log = TraceLogBuilder::new(JobHeader::new(1, 1, 1, 0, 10)).finish();
        let mut bytes = to_bytes(&log);
        // With zero records the name count sits right after n_records.
        assert!(log.records().is_empty());
        let off = n_records_offset(&bytes) + 4;
        patch_u32_and_recrc(&mut bytes, off, 50_000_000);
        assert_eq!(from_bytes(&bytes), Err(FormatError::Truncated { context: "name table" }));
    }

    #[test]
    fn record_wire_size_matches_serialization() {
        // The bomb guard's arithmetic must track the real wire format.
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 1, 0, 10));
        b.begin_record("/f", 0);
        let one = to_bytes(&b.finish());
        let zero = to_bytes(&TraceLogBuilder::new(JobHeader::new(1, 1, 1, 0, 10)).finish());
        // One extra record adds exactly RECORD_WIRE_BYTES plus its name entry.
        let name_entry = 8 + 2 + "/f".len();
        assert_eq!(one.len() - zero.len(), RECORD_WIRE_BYTES + name_entry);
    }

    #[test]
    fn estimated_size_is_an_upper_bound_ballpark() {
        let log = sample();
        let est = estimated_size(&log);
        let actual = to_bytes(&log).len();
        assert!(est >= actual, "estimate {est} < actual {actual}");
        assert!(est <= actual * 2, "estimate {est} way above actual {actual}");
    }
}
