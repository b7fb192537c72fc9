//! DXT — Darshan eXtended Traces.
//!
//! Real Darshan's DXT module records every individual read/write access
//! with its rank, offset, length and start/end timestamps, instead of
//! aggregating between open and close. The paper could not use DXT ("no
//! large DXT-enabled I/O trace datasets are publicly available") and §IV-A
//! flags the cost of that: a file held open all run collapses to a single
//! `steady` interval even when the accesses inside are perfectly periodic —
//! "it is likely that the majority of these behaviors are, in fact,
//! periodic".
//!
//! This module provides the DXT-level trace type, its binary format (MDX),
//! the **lossy downgrade** to the aggregated [`TraceLog`] view (exactly
//! what default Darshan would have reported), and the **exact**
//! [`OperationView`] that categorization can consume when DXT is available.
//! The `dxt_aggregation_gap` bench quantifies the paper's conjecture by
//! categorizing the same runs both ways.

use crate::convert::{saturating_i64, u32_to_usize, usize_to_i64, usize_to_u64};
use crate::counter::PosixCounter as C;
use crate::counter::PosixFCounter as F;
use crate::error::FormatError;
use crate::job::JobHeader;
use crate::log::{TraceLog, TraceLogBuilder};
use crate::ops::{MetaEvent, MetaKind, OpKind, Operation, OperationView};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One individual access, as DXT records it.
///
/// Its length is an integer and its times `f64` seconds, so a bandwidth
/// needs an explicit conversion,
///
/// ```
/// # use mosaic_darshan::dxt::DxtAccess;
/// # use mosaic_darshan::OpKind;
/// let a = DxtAccess { kind: OpKind::Read, offset: 0, length: 4096, start: 1.0, end: 3.0 };
/// assert_eq!(a.length as f64 / (a.end - a.start), 2048.0);
/// ```
///
/// and a sum of length and time does not compile:
///
/// ```compile_fail,E0277
/// # use mosaic_darshan::dxt::DxtAccess;
/// # use mosaic_darshan::OpKind;
/// let a = DxtAccess { kind: OpKind::Read, offset: 0, length: 4096, start: 1.0, end: 3.0 };
/// let _meaningless = a.length + a.start;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DxtAccess {
    /// Read or write.
    pub kind: OpKind,
    /// File offset of the access.
    pub offset: u64,
    /// Bytes moved.
    pub length: u64,
    /// Start, seconds relative to job start.
    pub start: f64,
    /// End, seconds relative to job start.
    pub end: f64,
}

/// All of one rank's accesses to one file, plus its metadata touchpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DxtRecord {
    /// Stable file-path hash (shared with the aggregated view).
    pub record_id: u64,
    /// Rank that performed the accesses.
    pub rank: i32,
    /// Individual accesses, in issue order.
    pub accesses: Vec<DxtAccess>,
    /// `open()` timestamps.
    pub opens: Vec<f64>,
    /// `close()` timestamps.
    pub closes: Vec<f64>,
}

/// A DXT-enabled trace: the full-resolution sibling of [`TraceLog`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DxtTrace {
    header: JobHeader,
    records: Vec<DxtRecord>,
    names: BTreeMap<u64, String>,
}

impl DxtTrace {
    /// Assemble from parts (format decoders, instrumentation shims).
    pub fn from_parts(
        header: JobHeader,
        records: Vec<DxtRecord>,
        names: BTreeMap<u64, String>,
    ) -> Self {
        DxtTrace { header, records, names }
    }

    /// Job header.
    pub fn header(&self) -> &JobHeader {
        &self.header
    }

    /// Per-`(rank, file)` records.
    pub fn records(&self) -> &[DxtRecord] {
        &self.records
    }

    /// Record-id → path table.
    pub fn names(&self) -> &BTreeMap<u64, String> {
        &self.names
    }

    /// Total individual accesses.
    pub fn total_accesses(&self) -> usize {
        self.records.iter().map(|r| r.accesses.len()).sum()
    }

    /// The **exact** operation view: one [`Operation`] per access, one
    /// [`MetaEvent`] per open/close. This is what MOSAIC would see with
    /// DXT enabled — no open/close smearing at all.
    pub fn operation_view(&self) -> OperationView {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut meta = Vec::new();
        for rec in &self.records {
            for a in &rec.accesses {
                let op = Operation {
                    kind: a.kind,
                    start: a.start,
                    end: a.end,
                    bytes: a.length,
                    ranks: 1,
                };
                match a.kind {
                    OpKind::Read => reads.push(op),
                    OpKind::Write => writes.push(op),
                }
            }
            for &t in &rec.opens {
                meta.push(MetaEvent { time: t, kind: MetaKind::Open, count: 1 });
            }
            for &t in &rec.closes {
                meta.push(MetaEvent { time: t, kind: MetaKind::Close, count: 1 });
            }
        }
        reads.sort_by(|a, b| a.start.total_cmp(&b.start));
        writes.sort_by(|a, b| a.start.total_cmp(&b.start));
        meta.sort_by(|a, b| a.time.total_cmp(&b.time));
        OperationView {
            runtime: self.header.runtime(),
            nprocs: self.header.nprocs,
            reads,
            writes,
            meta,
        }
    }

    /// The **lossy downgrade**: aggregate each record between its first
    /// open and last close, exactly like default (non-DXT) Darshan. This is
    /// the paper's input shape; diffing categorizations of
    /// [`DxtTrace::operation_view`] against this quantifies what the
    /// aggregation hides.
    pub fn to_aggregated(&self) -> TraceLog {
        let mut builder = TraceLogBuilder::new(self.header.clone());
        for rec in &self.records {
            let path = self
                .names
                .get(&rec.record_id)
                .cloned()
                .unwrap_or_else(|| format!("<record {}>", rec.record_id));
            let h = builder.begin_record(&path, rec.rank);
            let out = builder.record_mut(h);

            let mut reads = 0i64;
            let mut writes = 0i64;
            let mut bytes_read = 0i64;
            let mut bytes_written = 0i64;
            let (mut rs, mut re, mut ws, mut we) = (f64::MAX, 0.0f64, f64::MAX, 0.0f64);
            let mut read_time = 0.0;
            let mut write_time = 0.0;
            for a in &rec.accesses {
                match a.kind {
                    OpKind::Read => {
                        reads += 1;
                        bytes_read = bytes_read.saturating_add(saturating_i64(a.length));
                        rs = rs.min(a.start);
                        re = re.max(a.end);
                        read_time += a.end - a.start;
                    }
                    OpKind::Write => {
                        writes += 1;
                        bytes_written = bytes_written.saturating_add(saturating_i64(a.length));
                        ws = ws.min(a.start);
                        we = we.max(a.end);
                        write_time += a.end - a.start;
                    }
                }
            }
            out.set(C::Opens, usize_to_i64(rec.opens.len()))
                .set(C::Closes, usize_to_i64(rec.closes.len()))
                .set(C::Reads, reads)
                .set(C::Writes, writes)
                .set(C::BytesRead, bytes_read)
                .set(C::BytesWritten, bytes_written)
                .set(C::SeqReads, reads)
                .set(C::SeqWrites, writes);
            if reads > 0 {
                out.setf(F::ReadStartTimestamp, rs).setf(F::ReadEndTimestamp, re);
                out.setf(F::ReadTime, read_time);
            }
            if writes > 0 {
                out.setf(F::WriteStartTimestamp, ws).setf(F::WriteEndTimestamp, we);
                out.setf(F::WriteTime, write_time);
            }
            if let Some(&first) = rec.opens.first() {
                out.setf(F::OpenStartTimestamp, first);
                out.setf(F::OpenEndTimestamp, rec.opens.iter().cloned().fold(first, f64::max));
            }
            if let Some(&first) = rec.closes.first() {
                out.setf(F::CloseStartTimestamp, first);
                out.setf(F::CloseEndTimestamp, rec.closes.iter().cloned().fold(first, f64::max));
            }
        }
        builder.finish()
    }
}

// ---- MDX binary format ------------------------------------------------

/// MDX file magic.
pub const DXT_MAGIC: &[u8; 8] = b"MOSAICDX";
/// Current MDX version.
pub const DXT_VERSION: u16 = 1;

use crate::limits::{MAX_ACCESSES, MAX_RECORDS};

/// Serialize a DXT trace to MDX bytes (same envelope discipline as MDF:
/// little-endian, CRC-32 footer).
///
/// Convenience wrapper over [`try_to_bytes`]; panics only on a trace that
/// [`from_bytes`] would reject as implausible anyway.
#[expect(clippy::expect_used, reason = "the documented panic of this convenience wrapper")]
pub fn to_bytes(trace: &DxtTrace) -> Vec<u8> {
    try_to_bytes(trace).expect("trace exceeds MDX wire limits")
}

/// Encode an in-memory length as a `u32` wire field, enforcing `max`.
fn wire_len(len: usize, max: u32, context: &'static str) -> Result<u32, FormatError> {
    u32::try_from(len)
        .ok()
        .filter(|&l| l <= max)
        .ok_or(FormatError::ImplausibleLength { context, len: usize_to_u64(len) })
}

/// Serialize a DXT trace to MDX bytes, reporting oversized fields as typed
/// errors instead of silently truncating their length prefixes.
pub fn try_to_bytes(trace: &DxtTrace) -> Result<Vec<u8>, FormatError> {
    let mut buf = BytesMut::new();
    buf.put_slice(DXT_MAGIC);
    buf.put_u16_le(DXT_VERSION);
    buf.put_u16_le(0);
    let h = trace.header();
    buf.put_u64_le(h.job_id);
    buf.put_u32_le(h.uid);
    buf.put_u32_le(h.nprocs);
    buf.put_i64_le(h.start_time);
    buf.put_i64_le(h.end_time);
    buf.put_u32_le(wire_len(h.exe.len(), u32::MAX, "exe")?);
    buf.put_slice(h.exe.as_bytes());

    buf.put_u32_le(wire_len(trace.records().len(), MAX_RECORDS, "record count")?);
    for rec in trace.records() {
        buf.put_u64_le(rec.record_id);
        buf.put_i32_le(rec.rank);
        buf.put_u32_le(wire_len(rec.accesses.len(), MAX_ACCESSES, "access count")?);
        for a in &rec.accesses {
            buf.put_u8(match a.kind {
                OpKind::Read => 0,
                OpKind::Write => 1,
            });
            buf.put_u64_le(a.offset);
            buf.put_u64_le(a.length);
            buf.put_f64_le(a.start);
            buf.put_f64_le(a.end);
        }
        buf.put_u32_le(wire_len(rec.opens.len(), MAX_ACCESSES, "open count")?);
        for &t in &rec.opens {
            buf.put_f64_le(t);
        }
        buf.put_u32_le(wire_len(rec.closes.len(), MAX_ACCESSES, "close count")?);
        for &t in &rec.closes {
            buf.put_f64_le(t);
        }
    }
    buf.put_u32_le(wire_len(trace.names().len(), MAX_RECORDS, "name count")?);
    for (id, name) in trace.names() {
        buf.put_u64_le(*id);
        let name_len = u16::try_from(name.len()).map_err(|_| FormatError::ImplausibleLength {
            context: "name",
            len: usize_to_u64(name.len()),
        })?;
        buf.put_u16_le(name_len);
        buf.put_slice(name.as_bytes());
    }
    let crc = crate::synthutil::Crc32::checksum(&buf);
    buf.put_u32_le(crc);
    Ok(buf.to_vec())
}

/// Smallest wire encoding of a record: id, rank and the access, open and
/// close counts, with every list empty.
const RECORD_WIRE_MIN_BYTES: usize = 8 + 4 + 4 + 4 + 4;
/// Wire encoding of one access: kind, offset, length, start and end.
const ACCESS_WIRE_BYTES: usize = 1 + 8 + 8 + 8 + 8;

/// Parse MDX bytes.
pub fn from_bytes(data: &[u8]) -> Result<DxtTrace, FormatError> {
    if data.len() < DXT_MAGIC.len() + 8 {
        return Err(FormatError::Truncated { context: "dxt header" });
    }
    let Some((payload, footer)) = data.split_last_chunk::<4>() else {
        return Err(FormatError::Truncated { context: "dxt header" });
    };
    let Some(body) = payload.strip_prefix(DXT_MAGIC) else {
        return Err(FormatError::BadMagic);
    };
    let expected = u32::from_le_bytes(*footer);
    let actual = crate::synthutil::Crc32::checksum(payload);
    if expected != actual {
        return Err(FormatError::ChecksumMismatch { expected, actual });
    }
    let mut buf = Bytes::copy_from_slice(body);

    let version = need(&mut buf, 2, "version")?.get_u16_le();
    if version > DXT_VERSION {
        return Err(FormatError::UnsupportedVersion(version));
    }
    let _flags = need(&mut buf, 2, "flags")?.get_u16_le();
    let job_id = need(&mut buf, 8, "job_id")?.get_u64_le();
    let uid = need(&mut buf, 4, "uid")?.get_u32_le();
    let nprocs = need(&mut buf, 4, "nprocs")?.get_u32_le();
    let start = need(&mut buf, 8, "start")?.get_i64_le();
    let end = need(&mut buf, 8, "end")?.get_i64_le();
    let exe_len = u32_to_usize(need(&mut buf, 4, "exe len")?.get_u32_le());
    if buf.remaining() < exe_len {
        return Err(FormatError::Truncated { context: "exe" });
    }
    let exe = String::from_utf8(buf.copy_to_bytes(exe_len).to_vec())
        .map_err(|_| FormatError::InvalidUtf8 { context: "exe" })?;
    let header = JobHeader::new(job_id, uid, nprocs, start, end).with_exe(exe);

    let n_records = count(&mut buf, MAX_RECORDS, "record count")?;
    // A count only bounded by `MAX_*` can still ask for gigabytes from a
    // tiny file, so each capacity is also capped at what the remaining
    // bytes could hold at the entry's minimum wire size.
    let mut records =
        Vec::with_capacity(u32_to_usize(n_records).min(buf.remaining() / RECORD_WIRE_MIN_BYTES));
    for _ in 0..n_records {
        let record_id = need(&mut buf, 8, "record id")?.get_u64_le();
        let rank = need(&mut buf, 4, "rank")?.get_i32_le();
        let n_acc = count(&mut buf, MAX_ACCESSES, "access count")?;
        let mut accesses =
            Vec::with_capacity(u32_to_usize(n_acc).min(buf.remaining() / ACCESS_WIRE_BYTES));
        for _ in 0..n_acc {
            let kind = match need(&mut buf, 1, "access kind")?.get_u8() {
                0 => OpKind::Read,
                1 => OpKind::Write,
                other => return Err(FormatError::UnknownModule(other)),
            };
            let offset = need(&mut buf, 8, "offset")?.get_u64_le();
            let length = need(&mut buf, 8, "length")?.get_u64_le();
            let start = need(&mut buf, 8, "access start")?.get_f64_le();
            let end = need(&mut buf, 8, "access end")?.get_f64_le();
            accesses.push(DxtAccess { kind, offset, length, start, end });
        }
        let mut opens = Vec::new();
        for _ in 0..count(&mut buf, MAX_ACCESSES, "open count")? {
            opens.push(need(&mut buf, 8, "open ts")?.get_f64_le());
        }
        let mut closes = Vec::new();
        for _ in 0..count(&mut buf, MAX_ACCESSES, "close count")? {
            closes.push(need(&mut buf, 8, "close ts")?.get_f64_le());
        }
        records.push(DxtRecord { record_id, rank, accesses, opens, closes });
    }
    let mut names = BTreeMap::new();
    for _ in 0..count(&mut buf, MAX_RECORDS, "name count")? {
        let id = need(&mut buf, 8, "name id")?.get_u64_le();
        let len = usize::from(need(&mut buf, 2, "name len")?.get_u16_le());
        if buf.remaining() < len {
            return Err(FormatError::Truncated { context: "name" });
        }
        let name = String::from_utf8(buf.copy_to_bytes(len).to_vec())
            .map_err(|_| FormatError::InvalidUtf8 { context: "name" })?;
        names.insert(id, name);
    }
    Ok(DxtTrace::from_parts(header, records, names))
}

/// Read a `u32` entry count, rejecting one above `max` as implausible.
fn count(buf: &mut Bytes, max: u32, context: &'static str) -> Result<u32, FormatError> {
    let n = need(buf, 4, context)?.get_u32_le();
    if n > max {
        return Err(FormatError::ImplausibleLength { context, len: u64::from(n) });
    }
    Ok(n)
}

fn need<'b>(
    buf: &'b mut Bytes,
    n: usize,
    context: &'static str,
) -> Result<&'b mut Bytes, FormatError> {
    if buf.remaining() < n {
        return Err(FormatError::Truncated { context });
    }
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordFields;

    /// A file held open the whole run with 5 evenly spaced slab writes —
    /// the §IV-A scenario: aggregation hides the periodicity.
    fn slab_trace() -> DxtTrace {
        let header = JobHeader::new(9, 100, 4, 0, 1000).with_exe("/apps/stream");
        let accesses: Vec<DxtAccess> = (0..5)
            .map(|i| DxtAccess {
                kind: OpKind::Write,
                offset: i * 1000,
                length: 1000,
                start: 100.0 + 200.0 * i as f64,
                end: 105.0 + 200.0 * i as f64,
            })
            .collect();
        let rec = DxtRecord {
            record_id: crate::synthutil::record_id("/out"),
            rank: 0,
            accesses,
            opens: vec![1.0],
            closes: vec![999.0],
        };
        let names = [(rec.record_id, "/out".to_owned())].into_iter().collect();
        DxtTrace::from_parts(header, vec![rec], names)
    }

    #[test]
    fn exact_view_exposes_each_access() {
        let view = slab_trace().operation_view();
        assert_eq!(view.writes.len(), 5);
        assert_eq!(view.writes[0].start, 100.0);
        assert_eq!(view.writes[4].end, 905.0);
        assert_eq!(view.total_bytes(OpKind::Write), 5000);
        assert_eq!(view.meta.len(), 2);
    }

    #[test]
    fn aggregation_smears_to_one_interval() {
        let log = slab_trace().to_aggregated();
        assert_eq!(log.records().len(), 1);
        let r = &log.records()[0];
        assert_eq!(r.get(C::Writes), 5);
        assert_eq!(r.get(C::BytesWritten), 5000);
        // One smeared interval — the information DXT preserves is gone.
        assert_eq!(r.write_interval(), Some((100.0, 905.0)));
        assert!(crate::validate::validate(&log).is_clean());
    }

    #[test]
    fn count_accepts_its_max_and_rejects_one_more() {
        let read = |n: u32| count(&mut Bytes::copy_from_slice(&n.to_le_bytes()), 7, "widgets");
        assert_eq!(read(0), Ok(0));
        assert_eq!(read(7), Ok(7));
        assert_eq!(read(8), Err(FormatError::ImplausibleLength { context: "widgets", len: 8 }));
        assert_eq!(
            read(u32::MAX),
            Err(FormatError::ImplausibleLength { context: "widgets", len: u64::from(u32::MAX) })
        );
        let short = count(&mut Bytes::copy_from_slice(&[1, 0, 0]), 7, "widgets");
        assert_eq!(short, Err(FormatError::Truncated { context: "widgets" }));
    }

    #[test]
    fn inputs_too_short_for_magic_and_footer_are_truncated_headers() {
        let bytes = to_bytes(&slab_trace());
        for len in 0..DXT_MAGIC.len() + 8 {
            assert_eq!(
                from_bytes(&bytes[..len]),
                Err(FormatError::Truncated { context: "dxt header" }),
                "{len} bytes"
            );
        }
        let mut foreign = vec![0u8; DXT_MAGIC.len() + 8];
        foreign[..4].copy_from_slice(b"MDF\0");
        assert_eq!(from_bytes(&foreign), Err(FormatError::BadMagic));
    }

    #[test]
    fn mdx_roundtrip() {
        let trace = slab_trace();
        let bytes = to_bytes(&trace);
        let parsed = from_bytes(&bytes).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn mdx_rejects_corruption() {
        let bytes = to_bytes(&slab_trace());
        // Truncation (the exact error variant depends on where the cut
        // lands; the essential property is rejection).
        assert!(from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(from_bytes(&flipped).is_err());
        let mut bad_magic = bytes;
        bad_magic[0] = b'X';
        assert_eq!(from_bytes(&bad_magic).unwrap_err(), FormatError::BadMagic);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace =
            DxtTrace::from_parts(JobHeader::new(1, 1, 1, 0, 10), Vec::new(), BTreeMap::new());
        assert_eq!(from_bytes(&to_bytes(&trace)).unwrap(), trace);
        assert_eq!(trace.total_accesses(), 0);
        assert!(trace.operation_view().writes.is_empty());
    }

    #[test]
    fn mixed_read_write_record_aggregates_both_directions() {
        let header = JobHeader::new(2, 1, 2, 0, 100);
        let id = crate::synthutil::record_id("/rw");
        let rec = DxtRecord {
            record_id: id,
            rank: 1,
            accesses: vec![
                DxtAccess { kind: OpKind::Read, offset: 0, length: 10, start: 1.0, end: 2.0 },
                DxtAccess { kind: OpKind::Write, offset: 0, length: 20, start: 3.0, end: 4.0 },
                DxtAccess { kind: OpKind::Read, offset: 10, length: 30, start: 5.0, end: 6.0 },
            ],
            opens: vec![0.5],
            closes: vec![7.0],
        };
        let names = [(id, "/rw".to_owned())].into_iter().collect();
        let trace = DxtTrace::from_parts(header, vec![rec], names);
        let log = trace.to_aggregated();
        let r = &log.records()[0];
        assert_eq!(r.get(C::Reads), 2);
        assert_eq!(r.get(C::BytesRead), 40);
        assert_eq!(r.read_interval(), Some((1.0, 6.0)));
        assert_eq!(r.write_interval(), Some((3.0, 4.0)));
    }
}
