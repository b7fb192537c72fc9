//! The *operation view*: timed read/write intervals and metadata events
//! extracted from a trace.
//!
//! MOSAIC's algorithms (merging, segmentation, temporality, metadata
//! analysis) do not consume raw counters; they consume, per trace,
//!
//! * a list of **read operations** and a list of **write operations** — each
//!   an aggregated `[start, end]` interval with a byte volume and the number
//!   of ranks involved (this is all Darshan preserves between a file's open
//!   and close), and
//! * a list of **metadata events** — `OPEN`/`CLOSE`/`SEEK`/`STAT` requests
//!   with timestamps. Darshan does not timestamp seeks, so, following the
//!   paper (§III-B3c), seeks are co-located with the record's opens.
//!
//! [`OperationView::from_log`] performs that extraction.

use crate::convert::nonneg_u64;
use crate::counter::{PosixCounter as C, PosixFCounter as F};
use crate::log::TraceLog;
use crate::record::{PosixRecord, RecordFields};
use serde::{Deserialize, Serialize};

/// Direction of a data operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Data flowing from storage to the application.
    Read,
    /// Data flowing from the application to storage.
    Write,
}

impl OpKind {
    /// Lowercase label used in categories and reports.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
        }
    }
}

/// One aggregated data operation: everything a trace knows about the
/// activity of one direction of one record, or (after merging) of several
/// records fused together.
///
/// Bytes are an integer and times `f64` seconds, so a rate needs an
/// explicit conversion,
///
/// ```
/// # use mosaic_darshan::{OpKind, Operation};
/// let op = Operation { kind: OpKind::Write, start: 1.0, end: 3.0, bytes: 4096, ranks: 1 };
/// assert_eq!(op.bytes as f64 / op.duration(), 2048.0);
/// ```
///
/// and a sum of bytes and seconds does not compile:
///
/// ```compile_fail,E0277
/// # use mosaic_darshan::{OpKind, Operation};
/// let op = Operation { kind: OpKind::Write, start: 1.0, end: 3.0, bytes: 4096, ranks: 1 };
/// let _meaningless = op.bytes + op.start;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Operation {
    /// Read or write.
    pub kind: OpKind,
    /// Start, seconds relative to job start.
    pub start: f64,
    /// End, seconds relative to job start. Always `>= start` in valid data.
    pub end: f64,
    /// Bytes moved.
    pub bytes: u64,
    /// Number of ranks participating.
    pub ranks: u32,
}

impl Operation {
    /// Duration in seconds.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// `true` if the two operations overlap in time (closed intervals).
    #[inline]
    pub fn overlaps(&self, other: &Operation) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Gap between the end of `self` and the start of a later operation
    /// (negative if they overlap).
    #[inline]
    pub fn gap_to(&self, later: &Operation) -> f64 {
        later.start - self.end
    }
}

/// Kind of metadata request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetaKind {
    /// `open()` requests.
    Open,
    /// `close()` requests.
    Close,
    /// `lseek()` requests (co-located with opens, per the paper).
    Seek,
    /// `stat()` requests.
    Stat,
}

/// A burst of metadata requests hitting the metadata server at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetaEvent {
    /// Seconds relative to job start.
    pub time: f64,
    /// Request kind.
    pub kind: MetaKind,
    /// Number of requests in the burst.
    pub count: u64,
}

/// The operation view of one trace: what MOSAIC's categorizer consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperationView {
    /// Job wallclock runtime in seconds.
    pub runtime: f64,
    /// Number of processes in the job.
    pub nprocs: u32,
    /// Read operations, sorted by start time.
    pub reads: Vec<Operation>,
    /// Write operations, sorted by start time.
    pub writes: Vec<Operation>,
    /// Metadata events, sorted by time.
    pub meta: Vec<MetaEvent>,
}

impl OperationView {
    /// Extract the operation view from a trace.
    ///
    /// * Each record with read activity contributes one read [`Operation`]
    ///   over `[READ_START_TIMESTAMP, READ_END_TIMESTAMP]`; writes likewise.
    /// * Opens (plus co-located seeks and stats) become a [`MetaEvent`] at
    ///   the record's `OPEN_START_TIMESTAMP`; closes one at
    ///   `CLOSE_END_TIMESTAMP`.
    pub fn from_log(log: &TraceLog) -> OperationView {
        let nprocs = log.header().nprocs;
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut meta = Vec::new();
        for rec in log.records() {
            Self::push_record(rec, nprocs, &mut reads, &mut writes, &mut meta);
        }
        reads.sort_by(|a, b| a.start.total_cmp(&b.start));
        writes.sort_by(|a, b| a.start.total_cmp(&b.start));
        meta.sort_by(|a, b| a.time.total_cmp(&b.time));
        OperationView { runtime: log.header().runtime(), nprocs, reads, writes, meta }
    }

    fn push_record(
        rec: &PosixRecord,
        nprocs: u32,
        reads: &mut Vec<Operation>,
        writes: &mut Vec<Operation>,
        meta: &mut Vec<MetaEvent>,
    ) {
        let ranks = rec.rank_count(nprocs);
        if let Some((start, end)) = rec.read_interval() {
            reads.push(Operation {
                kind: OpKind::Read,
                start,
                end,
                bytes: nonneg_u64(rec.bytes_read()),
                ranks,
            });
        }
        if let Some((start, end)) = rec.write_interval() {
            writes.push(Operation {
                kind: OpKind::Write,
                start,
                end,
                bytes: nonneg_u64(rec.bytes_written()),
                ranks,
            });
        }
        let opens = nonneg_u64(rec.get(C::Opens));
        if opens > 0 {
            meta.push(MetaEvent {
                time: rec.getf(F::OpenStartTimestamp),
                kind: MetaKind::Open,
                count: opens,
            });
        }
        // Darshan does not timestamp seeks: co-locate them (and stats) with
        // the record's opens, as the paper does.
        let seeks = nonneg_u64(rec.get(C::Seeks));
        if seeks > 0 {
            meta.push(MetaEvent {
                time: rec.getf(F::OpenStartTimestamp),
                kind: MetaKind::Seek,
                count: seeks,
            });
        }
        let stats = nonneg_u64(rec.get(C::Stats));
        if stats > 0 {
            meta.push(MetaEvent {
                time: rec.getf(F::OpenStartTimestamp),
                kind: MetaKind::Stat,
                count: stats,
            });
        }
        let closes = nonneg_u64(rec.get(C::Closes));
        if closes > 0 {
            meta.push(MetaEvent {
                time: rec.getf(F::CloseEndTimestamp),
                kind: MetaKind::Close,
                count: closes,
            });
        }
    }

    /// Operations of one direction.
    #[inline]
    pub fn ops(&self, kind: OpKind) -> &[Operation] {
        match kind {
            OpKind::Read => &self.reads,
            OpKind::Write => &self.writes,
        }
    }

    /// Total bytes moved in one direction.
    pub fn total_bytes(&self, kind: OpKind) -> u64 {
        self.ops(kind).iter().map(|o| o.bytes).sum()
    }

    /// Total metadata requests.
    pub fn total_meta_requests(&self) -> u64 {
        self.meta.iter().map(|e| e.count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobHeader;
    use crate::log::TraceLogBuilder;

    fn log() -> TraceLog {
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 8, 0, 1000));
        let r = b.begin_record("/in", -1);
        b.record_mut(r)
            .set(C::Reads, 8)
            .set(C::BytesRead, 800)
            .set(C::Opens, 8)
            .set(C::Seeks, 16)
            .set(C::Closes, 8)
            .setf(F::OpenStartTimestamp, 1.0)
            .setf(F::ReadStartTimestamp, 2.0)
            .setf(F::ReadEndTimestamp, 4.0)
            .setf(F::CloseEndTimestamp, 5.0);
        let w = b.begin_record("/out", 3);
        b.record_mut(w)
            .set(C::Writes, 1)
            .set(C::BytesWritten, 300)
            .set(C::Opens, 1)
            .setf(F::OpenStartTimestamp, 900.0)
            .setf(F::WriteStartTimestamp, 901.0)
            .setf(F::WriteEndTimestamp, 950.0);
        b.finish()
    }

    #[test]
    fn extraction_splits_reads_and_writes() {
        let v = OperationView::from_log(&log());
        assert_eq!(v.reads.len(), 1);
        assert_eq!(v.writes.len(), 1);
        assert_eq!(v.reads[0].bytes, 800);
        assert_eq!(v.reads[0].ranks, 8); // shared record expands to nprocs
        assert_eq!(v.writes[0].ranks, 1);
        assert_eq!(v.runtime, 1000.0);
    }

    #[test]
    fn meta_events_colocate_seeks_with_opens() {
        let v = OperationView::from_log(&log());
        let opens: Vec<_> = v.meta.iter().filter(|e| e.kind == MetaKind::Open).collect();
        let seeks: Vec<_> = v.meta.iter().filter(|e| e.kind == MetaKind::Seek).collect();
        assert_eq!(opens.len(), 2);
        assert_eq!(seeks.len(), 1);
        assert_eq!(seeks[0].time, 1.0); // same instant as the open burst
        assert_eq!(v.total_meta_requests(), 8 + 16 + 8 + 1);
    }

    #[test]
    fn views_are_sorted_by_time() {
        let v = OperationView::from_log(&log());
        assert!(v.meta.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn operation_geometry_helpers() {
        let a = Operation { kind: OpKind::Read, start: 0.0, end: 2.0, bytes: 1, ranks: 1 };
        let b = Operation { kind: OpKind::Read, start: 1.0, end: 3.0, bytes: 1, ranks: 1 };
        let c = Operation { kind: OpKind::Read, start: 5.0, end: 6.0, bytes: 1, ranks: 1 };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert_eq!(a.gap_to(&c), 3.0);
        assert!(a.gap_to(&b) < 0.0);
        assert_eq!(c.duration(), 1.0);
    }

    #[test]
    fn total_bytes_by_direction() {
        let v = OperationView::from_log(&log());
        assert_eq!(v.total_bytes(OpKind::Read), 800);
        assert_eq!(v.total_bytes(OpKind::Write), 300);
    }
}
