//! The MDF parser: borrowed, zero-copy views over MDF wire bytes.
//!
//! [`TraceView::parse`] is the only MDF decoder in the workspace. It runs
//! the full structural verification (magic, checksum, header, bomb guards,
//! module tags, name-table shape, trailing bytes) but keeps everything
//! borrowed, so a trace that validation evicts a microsecond later never
//! costs an owned `String`, `Vec<PosixRecord>` or `BTreeMap`:
//!
//! * header fields are decoded to scalars, the exe stays a `&str` into the
//!   input buffer;
//! * the record array stays on the wire as `&[[u8; RECORD_WIRE_BYTES]]`,
//!   and each [`RecordView`] reads its fields at fixed offsets into one
//!   fixed-size array, so once the `#[inline]` readers are inlined the
//!   compiler sees every read in bounds and drops the check. A record is
//!   never decoded on the way to the categorizer: the validity rules
//!   ([`crate::validate::check_record`]) and the columnar extraction read
//!   the view through [`RecordFields`], the same accessor an owned
//!   [`PosixRecord`] implements;
//! * the name table is reduced to a sorted id list (validation only needs
//!   membership) plus the raw region for the rare full materialization
//!   ([`TraceView::to_log`], which is all [`crate::mdf::from_bytes`] adds).
//!
//! [`validate_view`] applies the validation loop of
//! [`crate::validate::validate`] ([`crate::validate::check_trace`]) to the
//! wire records, so both produce the same report by construction.
//!
//! The ownership rule for everything downstream: a `TraceView` borrows the
//! wire buffer and must not outlive it; anything that survives the trace
//! (reports, app keys) is copied out at the last moment.

use crate::convert::{u32_to_usize, usize_to_u64};
use crate::counter::{Module, PosixCounter, PosixFCounter, N_POSIX_COUNTERS};
use crate::error::FormatError;
use crate::job::JobHeader;
use crate::limits::{MAX_EXE_LEN, MAX_NAMES, MAX_RECORDS};
use crate::log::TraceLog;
use crate::mdf::{MAGIC, NAME_WIRE_MIN_BYTES, RECORD_WIRE_BYTES, VERSION};
use crate::record::{PosixRecord, RecordFields};
use crate::synthutil::Crc32;
use crate::validate::{check_trace, ValidityReport};
use std::collections::BTreeMap;

/// Byte offset of the counter array inside one wire record.
const COUNTERS_OFF: usize = 8 + 4 + 1;
/// Byte offset of the fcounter array inside one wire record.
const FCOUNTERS_OFF: usize = COUNTERS_OFF + N_POSIX_COUNTERS * 8;

/// A borrowing cursor over the payload: every read names the field it was
/// after, so truncation errors say which field ran out.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], FormatError> {
        if self.buf.len() < n {
            return Err(FormatError::Truncated { context });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, FormatError> {
        Ok(le_u16(self.take(2, context)?, 0))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, FormatError> {
        Ok(le_u32(self.take(4, context)?, 0))
    }

    fn i64(&mut self, context: &'static str) -> Result<i64, FormatError> {
        Ok(le_i64(self.take(8, context)?, 0))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, FormatError> {
        Ok(le_u64(self.take(8, context)?, 0))
    }

    fn str(&mut self, len: usize, context: &'static str) -> Result<&'a str, FormatError> {
        let raw = self.take(len, context)?;
        std::str::from_utf8(raw).map_err(|_| FormatError::InvalidUtf8 { context })
    }
}

// Fixed-width little-endian readers. Callers guarantee `off + size` is in
// bounds (cursor takes and record strides are length-checked structurally),
// so the one slice below cannot fire on any input that reached them.

#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass offsets inside a length-checked take/stride"
)]
fn le_bytes<const N: usize>(b: &[u8], off: usize) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(&b[off..off + N]);
    a
}

#[inline]
fn le_u8(b: &[u8], off: usize) -> u8 {
    u8::from_le_bytes(le_bytes(b, off))
}

#[inline]
fn le_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(le_bytes(b, off))
}

#[inline]
fn le_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(le_bytes(b, off))
}

#[inline]
fn le_i32(b: &[u8], off: usize) -> i32 {
    i32::from_le_bytes(le_bytes(b, off))
}

#[inline]
fn le_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(le_bytes(b, off))
}

#[inline]
fn le_i64(b: &[u8], off: usize) -> i64 {
    i64::from_le_bytes(le_bytes(b, off))
}

#[inline]
fn le_f64(b: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(le_bytes(b, off))
}

/// One wire record, viewed in place.
///
/// Wraps exactly [`RECORD_WIRE_BYTES`] bytes of a structurally verified
/// record array; all accessors are fixed-offset little-endian reads.
#[derive(Clone, Copy)]
pub struct RecordView<'a> {
    data: &'a [u8; RECORD_WIRE_BYTES],
}

impl<'a> RecordView<'a> {
    /// Stable hash of the file path.
    #[inline]
    pub fn record_id(&self) -> u64 {
        le_u64(self.data, 0)
    }

    /// The raw module tag byte (verified known at parse time).
    #[inline]
    pub fn module_tag(&self) -> u8 {
        le_u8(self.data, 12)
    }

    /// The module, decoded from the (parse-verified) tag.
    #[inline]
    pub fn module(&self) -> Module {
        // The tag was checked by `TraceView::parse`; an unknown tag cannot
        // reach here, so the fallback is unreachable rather than lossy.
        Module::from_tag(self.module_tag()).unwrap_or(Module::Posix)
    }

    /// Decode to an owned record — stack-only, no heap allocation; the
    /// arrays are copied straight out of the wire bytes.
    pub fn decode(&self) -> PosixRecord {
        let mut rec = PosixRecord::new(self.record_id(), self.rank());
        rec.module = self.module();
        for (i, c) in rec.counters.iter_mut().enumerate() {
            *c = le_i64(self.data, COUNTERS_OFF + i * 8);
        }
        for (i, c) in rec.fcounters.iter_mut().enumerate() {
            *c = le_f64(self.data, FCOUNTERS_OFF + i * 8);
        }
        rec
    }
}

impl RecordFields for RecordView<'_> {
    #[inline]
    fn rank(&self) -> i32 {
        le_i32(self.data, 8)
    }

    #[inline]
    fn get(&self, c: PosixCounter) -> i64 {
        le_i64(self.data, COUNTERS_OFF + c.index() * 8)
    }

    #[inline]
    fn getf(&self, c: PosixFCounter) -> f64 {
        le_f64(self.data, FCOUNTERS_OFF + c.index() * 8)
    }
}

/// A structurally verified MDF trace, borrowed from its wire buffer.
///
/// Produced by [`TraceView::parse`] without materializing records or the
/// name table.
pub struct TraceView<'a> {
    /// Scheduler job identifier.
    pub job_id: u64,
    /// Numeric user id that ran the job.
    pub uid: u32,
    /// Number of MPI processes (ranks).
    pub nprocs: u32,
    /// Job start, Unix seconds.
    pub start_time: i64,
    /// Job end, Unix seconds.
    pub end_time: i64,
    /// Executable command line, borrowed from the wire buffer.
    pub exe: &'a str,
    records: &'a [[u8; RECORD_WIRE_BYTES]],
    /// Sorted record ids present in the name table (membership only — the
    /// path strings stay on the wire).
    name_ids: Vec<u64>,
    names_raw: &'a [u8],
    n_names: usize,
}

impl<'a> TraceView<'a> {
    /// Parse MDF bytes into a borrowed view.
    ///
    /// The whole payload is checksummed before structural decoding, so a
    /// flipped bit anywhere is reported as
    /// [`FormatError::ChecksumMismatch`] rather than as garbage data. The
    /// structural pass then covers header decoding, bomb guards, per-record
    /// module tags, name-table shape and the trailing-byte check.
    pub fn parse(data: &'a [u8]) -> Result<TraceView<'a>, FormatError> {
        if data.len() < MAGIC.len() + 4 + 4 {
            return Err(FormatError::Truncated { context: "file header" });
        }
        let (payload, footer) = data.split_at(data.len() - 4);
        let Some(body) = payload.strip_prefix(MAGIC) else {
            return Err(FormatError::BadMagic);
        };
        let expected = le_u32(footer, 0);
        let actual = Crc32::checksum(payload);
        if expected != actual {
            return Err(FormatError::ChecksumMismatch { expected, actual });
        }

        let mut cur = Cursor { buf: body };
        let version = cur.u16("version")?;
        if version > VERSION {
            return Err(FormatError::UnsupportedVersion(version));
        }
        let _flags = cur.u16("flags")?;

        let job_id = cur.u64("job_id")?;
        let uid = cur.u32("uid")?;
        let nprocs = cur.u32("nprocs")?;
        let start_time = cur.i64("start_time")?;
        let end_time = cur.i64("end_time")?;
        let exe_len = cur.u32("exe length")?;
        if exe_len > MAX_EXE_LEN {
            return Err(FormatError::ImplausibleLength { context: "exe", len: u64::from(exe_len) });
        }
        let exe = cur.str(u32_to_usize(exe_len), "exe")?;

        let n_records = cur.u32("record count")?;
        if n_records > MAX_RECORDS {
            return Err(FormatError::ImplausibleLength {
                context: "record count",
                len: u64::from(n_records),
            });
        }
        // Pre-allocation bomb guard: a crafted header claiming millions of
        // records is rejected before any allocation when the remaining
        // payload cannot possibly hold them.
        if u64::from(n_records) * usize_to_u64(RECORD_WIRE_BYTES) > usize_to_u64(cur.remaining()) {
            return Err(FormatError::Truncated { context: "record array" });
        }
        // Cannot overflow: the product fit inside `remaining` above. The
        // take is a whole number of records, so no remainder is left over.
        let (records, _) = cur
            .take(u32_to_usize(n_records) * RECORD_WIRE_BYTES, "record array")?
            .as_chunks::<RECORD_WIRE_BYTES>();
        // Unknown module tags are rejected here, so record views can decode
        // the tag without a fallible path.
        for data in records {
            let tag = RecordView { data }.module_tag();
            if Module::from_tag(tag).is_none() {
                return Err(FormatError::UnknownModule(tag));
            }
        }

        let n_names = cur.u32("name count")?;
        if n_names > MAX_NAMES {
            return Err(FormatError::ImplausibleLength {
                context: "name count",
                len: u64::from(n_names),
            });
        }
        // Same guard for the name table: each entry needs at least its id
        // and length prefix on the wire.
        if u64::from(n_names) * usize_to_u64(NAME_WIRE_MIN_BYTES) > usize_to_u64(cur.remaining()) {
            return Err(FormatError::Truncated { context: "name table" });
        }
        let n_names = u32_to_usize(n_names);
        let names_region = cur.buf;
        // Bounded by construction, not only by the guard above: no entry is
        // shorter than its id and length prefix.
        let mut name_ids = Vec::with_capacity(n_names.min(cur.remaining() / NAME_WIRE_MIN_BYTES));
        for _ in 0..n_names {
            let id = cur.u64("name id")?;
            let len = usize::from(cur.u16("name length")?);
            let _name = cur.str(len, "name")?;
            name_ids.push(id);
        }
        // The cursor only shrinks, so the consumed prefix is in bounds.
        let names_raw = names_region
            .get(..names_region.len() - cur.remaining())
            .ok_or(FormatError::Truncated { context: "name table" })?;
        if cur.remaining() > 0 {
            return Err(FormatError::ImplausibleLength {
                context: "trailing bytes",
                len: usize_to_u64(cur.remaining()),
            });
        }
        name_ids.sort_unstable();
        Ok(TraceView {
            job_id,
            uid,
            nprocs,
            start_time,
            end_time,
            exe,
            records,
            name_ids,
            names_raw,
            n_names,
        })
    }

    /// Number of records on the wire.
    #[inline]
    pub fn n_records(&self) -> usize {
        self.records.len()
    }

    /// View of record `i`. Returns `None` past the end.
    #[inline]
    pub fn record(&self, i: usize) -> Option<RecordView<'a>> {
        self.records.get(i).map(|data| RecordView { data })
    }

    /// Iterate over all record views.
    pub fn records(&self) -> impl ExactSizeIterator<Item = RecordView<'a>> + '_ {
        self.records.iter().map(|data| RecordView { data })
    }

    /// Every record view with whether the name table has an entry for it:
    /// the `(record, named)` pairs [`check_trace`] walks.
    pub fn named_records(&self) -> impl ExactSizeIterator<Item = (RecordView<'a>, bool)> + '_ {
        self.records().map(|rec| (rec, self.has_name(rec.record_id())))
    }

    /// `true` when the name table has an entry for `record_id`.
    #[inline]
    pub fn has_name(&self, record_id: u64) -> bool {
        self.name_ids.binary_search(&record_id).is_ok()
    }

    /// Number of name-table entries on the wire (duplicates included).
    #[inline]
    pub fn n_names(&self) -> usize {
        self.n_names
    }

    /// Wallclock runtime in seconds (mirrors [`JobHeader::runtime`]).
    #[inline]
    pub fn runtime(&self) -> f64 {
        crate::job::runtime_of(self.start_time, self.end_time)
    }

    /// Application name (mirrors [`JobHeader::app_name`]), borrowed.
    pub fn app_name(&self) -> &'a str {
        crate::job::app_name_of(self.exe)
    }

    /// The `(uid, app_name)` dedup key (mirrors [`JobHeader::app_key`]).
    pub fn app_key(&self) -> (u32, String) {
        (self.uid, self.app_name().to_owned())
    }

    /// Materialize the owned [`TraceLog`] this view verifies — what
    /// [`crate::mdf::from_bytes`] returns, for callers that need the name
    /// strings after all.
    pub fn to_log(&self) -> TraceLog {
        let header =
            JobHeader::new(self.job_id, self.uid, self.nprocs, self.start_time, self.end_time)
                .with_exe(self.exe);
        let records: Vec<PosixRecord> = self.records().map(|r| r.decode()).collect();
        let mut names = BTreeMap::new();
        let mut cur = Cursor { buf: self.names_raw };
        for _ in 0..self.n_names {
            // The region was fully verified by `parse`; re-walking it cannot
            // fail, and the `if let` keeps the panic path out anyway.
            if let (Ok(id), Ok(len)) = (cur.u64("name id"), cur.u16("name length")) {
                if let Ok(name) = cur.str(usize::from(len), "name") {
                    names.insert(id, name.to_owned());
                }
            }
        }
        TraceLog::from_parts(header, records, names)
    }
}

/// Validate a borrowed trace: the validation loop of
/// [`crate::validate::validate`] over the wire records, so the report is
/// the one the materialized log gets — header rules, per-record rules in
/// record order, the name-table check last.
pub fn validate_view(view: &TraceView<'_>) -> ValidityReport {
    check_trace(view.runtime(), view.nprocs, view.named_records(), |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::PosixCounter as C;
    use crate::counter::PosixFCounter as F;
    use crate::log::TraceLogBuilder;
    use crate::mdf;
    use crate::validate;
    use crate::ValidityError;

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
    fn fixed_width_readers_decode_little_endian_at_any_offset() {
        let bytes: Vec<u8> = (0..32u8).map(|b| b.wrapping_mul(37) ^ 0xa5).collect();
        for off in 0..=bytes.len() - 8 {
            let at = |n: usize| &bytes[off..off + n];
            assert_eq!(le_u8(&bytes, off), bytes[off]);
            assert_eq!(le_u16(&bytes, off), u16::from_le_bytes(at(2).try_into().unwrap()));
            assert_eq!(le_u32(&bytes, off), u32::from_le_bytes(at(4).try_into().unwrap()));
            assert_eq!(le_i32(&bytes, off), i32::from_le_bytes(at(4).try_into().unwrap()));
            assert_eq!(le_u64(&bytes, off), u64::from_le_bytes(at(8).try_into().unwrap()));
            assert_eq!(le_i64(&bytes, off), i64::from_le_bytes(at(8).try_into().unwrap()));
            let f = f64::from_le_bytes(at(8).try_into().unwrap());
            assert_eq!(le_f64(&bytes, off).to_bits(), f.to_bits());
        }
    }

    #[test]
    fn an_unknown_module_tag_in_any_record_is_rejected() {
        let bytes = mdf::to_bytes(&sample());
        let view = TraceView::parse(&bytes).unwrap();
        // The record array is a sub-slice of the input; find where.
        let base = view.records.as_ptr() as usize - bytes.as_ptr() as usize;
        for i in 0..view.n_records() {
            let mut bad = bytes.clone();
            bad[base + i * RECORD_WIRE_BYTES + 12] = 0xee;
            let payload_len = bad.len() - 4;
            let crc = Crc32::checksum(&bad[..payload_len]);
            bad[payload_len..].copy_from_slice(&crc.to_le_bytes());
            let err = TraceView::parse(&bad).err();
            assert_eq!(err, Some(FormatError::UnknownModule(0xee)), "record {i}");
        }
    }

    #[test]
    fn view_roundtrip_preserves_the_written_log() {
        let log = sample();
        let bytes = mdf::to_bytes(&log);
        let view = TraceView::parse(&bytes).unwrap();
        assert_eq!(view.to_log(), log);
        assert_eq!(view.exe, log.header().exe);
        assert_eq!(view.n_names(), log.names().len());
        assert!(log.records().iter().all(|r| view.has_name(r.record_id)));
        assert!(view.record(view.n_records()).is_none());
    }

    #[test]
    fn record_views_decode_identically() {
        let log = sample();
        let bytes = mdf::to_bytes(&log);
        let view = TraceView::parse(&bytes).unwrap();
        assert_eq!(view.n_records(), log.records().len());
        assert_eq!(view.app_key(), log.header().app_key());
        assert_eq!(view.runtime(), log.header().runtime());
        for (owned, borrowed) in log.records().iter().zip(view.records()) {
            assert_eq!(&borrowed.decode(), owned);
            assert_eq!(borrowed.record_id(), owned.record_id);
            assert_eq!(borrowed.rank(), owned.rank);
            assert_eq!(borrowed.read_interval(), owned.read_interval());
            assert_eq!(borrowed.write_interval(), owned.write_interval());
            assert_eq!(borrowed.rank_count(256), owned.rank_count(256));
        }
    }

    #[test]
    fn runtime_of_wire_extremes_does_not_overflow() {
        // `end - start` overflows `i64`: a debug build used to panic and a
        // release build evicted the trace as `non_positive_runtime`.
        let log = TraceLogBuilder::new(JobHeader::new(1, 1, 4, -1, i64::MAX)).finish();
        let bytes = mdf::to_bytes(&log);
        let view = TraceView::parse(&bytes).unwrap();
        assert_eq!(view.runtime(), 9_223_372_036_854_775_808.0);
        assert_eq!(view.runtime(), log.header().runtime());
        assert!(validate_view(&view).header_errors.is_empty());
    }

    #[test]
    fn nan_timestamps_are_beyond_runtime_on_both_paths() {
        // NaN compares false both ways, so `v > runtime + slack` let it
        // through to merge and metadata.
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100).with_exe("/bin/a"));
        let good = b.begin_record("/good", 0);
        b.record_mut(good).set(C::Opens, 8).setf(F::OpenStartTimestamp, 1.0);
        let nan = b.begin_record("/nan", 1);
        b.record_mut(nan).set(C::Opens, 8).setf(F::OpenStartTimestamp, f64::NAN);
        let log = b.finish();
        let bytes = mdf::to_bytes(&log);
        let view = TraceView::parse(&bytes).unwrap();
        let owned = validate::validate(&log);
        assert_eq!(owned.record_errors, vec![(1, vec![ValidityError::TimestampBeyondRuntime])]);
        assert_eq!(validate_view(&view), owned);
    }

    #[test]
    fn validate_view_matches_owned_validate() {
        // A log exercising several validity rules at once.
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100).with_exe("/bin/a"));
        let good = b.begin_record("/good", 0);
        b.record_mut(good)
            .set(C::Reads, 1)
            .set(C::BytesRead, 10)
            .setf(F::ReadStartTimestamp, 1.0)
            .setf(F::ReadEndTimestamp, 2.0);
        let bad = b.begin_record("/bad", 9); // rank out of range
        b.record_mut(bad).set(C::BytesRead, -5); // negative bytes too
        let late = b.begin_record("/late", 1);
        b.record_mut(late).setf(F::CloseEndTimestamp, 500.0); // beyond runtime
        let log = b.finish();
        let bytes = mdf::to_bytes(&log);

        let view = TraceView::parse(&bytes).unwrap();
        assert_eq!(validate_view(&view), validate::validate(&log));
    }

    #[test]
    fn missing_name_is_flagged_in_record_order() {
        // Hand-assemble a log whose record has no name-table entry.
        let header = JobHeader::new(1, 1, 4, 0, 100);
        let mut rec = PosixRecord::new(42, 0);
        rec.set(C::Opens, 1);
        let log = TraceLog::from_parts(header, vec![rec], BTreeMap::new());
        let bytes = mdf::to_bytes(&log);
        let view = TraceView::parse(&bytes).unwrap();
        let report = validate_view(&view);
        assert_eq!(report, validate::validate(&log));
        assert!(report.record_errors[0].1.contains(&ValidityError::MissingName));
        assert!(!view.has_name(42));
    }

    #[test]
    fn empty_log_view() {
        let log = TraceLogBuilder::new(JobHeader::new(0, 0, 0, 0, 0)).finish();
        let bytes = mdf::to_bytes(&log);
        let view = TraceView::parse(&bytes).unwrap();
        assert_eq!(view.n_records(), 0);
        assert_eq!(view.n_names(), 0);
        assert_eq!(view.exe, "");
        assert!(view.record(0).is_none());
        assert_eq!(view.to_log(), log);
        // Header errors (zero runtime, zero procs) agree with the log validator.
        assert_eq!(validate_view(&view), validate::validate(&log));
    }

    #[test]
    fn borrowed_exe_points_into_the_input() {
        let log = sample();
        let bytes = mdf::to_bytes(&log);
        let view = TraceView::parse(&bytes).unwrap();
        let buf_range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(buf_range.contains(&(view.exe.as_ptr() as usize)), "exe must be zero-copy");
    }
}
