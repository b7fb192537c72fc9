//! The complete trace container.

use crate::counter::PosixCounter;
use crate::job::JobHeader;
use crate::record::PosixRecord;
use crate::synthutil::record_id;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A complete I/O trace: a job header, the per-`(rank, file)` records, and
/// the record-id → file-path name table.
///
/// This is the in-memory equivalent of one Darshan log file. Construct it
/// with [`TraceLogBuilder`], decode it with [`crate::mdf::from_bytes`], or
/// parse the text form with [`crate::text::parse`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLog {
    header: JobHeader,
    records: Vec<PosixRecord>,
    /// BTreeMap keeps serialization deterministic.
    names: BTreeMap<u64, String>,
}

impl TraceLog {
    /// Assemble a log from parts. Intended for format decoders; prefer
    /// [`TraceLogBuilder`] in application code.
    pub fn from_parts(
        header: JobHeader,
        records: Vec<PosixRecord>,
        names: BTreeMap<u64, String>,
    ) -> Self {
        TraceLog { header, records, names }
    }

    /// Job-level header.
    #[inline]
    pub fn header(&self) -> &JobHeader {
        &self.header
    }

    /// All records, in insertion order.
    #[inline]
    pub fn records(&self) -> &[PosixRecord] {
        &self.records
    }

    /// Mutable record access (used by corruption injectors and sanitizers).
    #[inline]
    pub fn records_mut(&mut self) -> &mut Vec<PosixRecord> {
        &mut self.records
    }

    /// The record-id → path table.
    #[inline]
    pub fn names(&self) -> &BTreeMap<u64, String> {
        &self.names
    }

    /// Path for a record id, if known.
    pub fn path_of(&self, record_id: u64) -> Option<&str> {
        self.names.get(&record_id).map(String::as_str)
    }

    /// Total bytes read across all records, saturating at the `i64` range
    /// (valid traces may carry counters near `i64::MAX`).
    pub fn total_bytes_read(&self) -> i64 {
        self.records.iter().map(|r| r.get(PosixCounter::BytesRead)).fold(0, i64::saturating_add)
    }

    /// Total bytes written across all records, saturating like
    /// [`TraceLog::total_bytes_read`].
    pub fn total_bytes_written(&self) -> i64 {
        self.records.iter().map(|r| r.get(PosixCounter::BytesWritten)).fold(0, i64::saturating_add)
    }

    /// Total metadata operations across all records.
    pub fn total_meta_ops(&self) -> i64 {
        self.records.iter().map(PosixRecord::meta_ops).sum()
    }

    /// I/O "heaviness" of the trace: total bytes moved. MOSAIC keeps the
    /// heaviest trace of each application's execution set (step ①).
    pub fn io_weight(&self) -> i64 {
        self.total_bytes_read().saturating_add(self.total_bytes_written())
    }

    /// Drop records for which `keep` returns `false`, along with their name
    /// table entries if no surviving record references them.
    pub fn retain_records<F: FnMut(&PosixRecord) -> bool>(&mut self, keep: F) {
        self.records.retain(keep);
        let live: std::collections::BTreeSet<u64> =
            self.records.iter().map(|r| r.record_id).collect();
        self.names.retain(|id, _| live.contains(id));
    }
}

/// Incremental builder for [`TraceLog`], playing the role of the Darshan
/// runtime shim: register files, fill counters, finish.
#[derive(Debug, Clone)]
pub struct TraceLogBuilder {
    header: JobHeader,
    records: Vec<PosixRecord>,
    names: BTreeMap<u64, String>,
}

/// Opaque handle to a record under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHandle(usize);

impl TraceLogBuilder {
    /// Start a trace for the given job.
    pub fn new(header: JobHeader) -> Self {
        TraceLogBuilder { header, records: Vec::new(), names: BTreeMap::new() }
    }

    /// Register a new record for `path` as seen by `rank`
    /// ([`crate::record::SHARED_RANK`] for collectively accessed files) and
    /// return a handle for filling in counters.
    pub fn begin_record(&mut self, path: &str, rank: i32) -> RecordHandle {
        let id = record_id(path);
        self.names.entry(id).or_insert_with(|| path.to_owned());
        self.records.push(PosixRecord::new(id, rank));
        RecordHandle(self.records.len() - 1)
    }

    /// Mutable access to a record under construction.
    #[expect(
        clippy::indexing_slicing,
        reason = "a handle is only minted by begin_record, after its push, and records are never removed"
    )]
    pub fn record_mut(&mut self, h: RecordHandle) -> &mut PosixRecord {
        &mut self.records[h.0]
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records have been added.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finalize into an immutable [`TraceLog`].
    pub fn finish(self) -> TraceLog {
        TraceLog { header: self.header, records: self.records, names: self.names }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::PosixCounter as C;

    fn sample() -> TraceLog {
        let mut b = TraceLogBuilder::new(JobHeader::new(7, 500, 16, 0, 100).with_exe("/bin/app"));
        let a = b.begin_record("/scratch/in.dat", -1);
        b.record_mut(a).set(C::Reads, 4).set(C::BytesRead, 1000).set(C::Opens, 16);
        let w = b.begin_record("/scratch/out.dat", 0);
        b.record_mut(w).set(C::Writes, 2).set(C::BytesWritten, 500).set(C::Closes, 1);
        b.finish()
    }

    #[test]
    fn builder_registers_names_once() {
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 1, 0, 1));
        b.begin_record("/f", 0);
        b.begin_record("/f", 1);
        let log = b.finish();
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.names().len(), 1);
        assert_eq!(log.path_of(log.records()[0].record_id), Some("/f"));
    }

    #[test]
    fn totals_aggregate_across_records() {
        let log = sample();
        assert_eq!(log.total_bytes_read(), 1000);
        assert_eq!(log.total_bytes_written(), 500);
        assert_eq!(log.io_weight(), 1500);
        assert_eq!(log.total_meta_ops(), 17);
    }

    #[test]
    fn totals_saturate_instead_of_overflowing() {
        // Each counter is a valid `i64`, but the sums are not: reads alone
        // overflow, and reads plus writes would overflow again.
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100));
        for rank in 0..2 {
            let r = b.begin_record(&format!("/huge.{rank}"), rank);
            b.record_mut(r).set(C::BytesRead, 1 << 62).set(C::BytesWritten, 1 << 61);
        }
        let log = b.finish();
        assert_eq!(log.total_bytes_read(), i64::MAX);
        assert_eq!(log.total_bytes_written(), 1 << 62);
        assert_eq!(log.io_weight(), i64::MAX);
    }

    #[test]
    fn retain_records_prunes_names() {
        let mut log = sample();
        log.retain_records(|r| r.get(C::BytesWritten) > 0);
        assert_eq!(log.records().len(), 1);
        assert_eq!(log.names().len(), 1);
        assert!(log.path_of(record_id("/scratch/in.dat")).is_none());
        assert!(log.path_of(record_id("/scratch/out.dat")).is_some());
    }

    #[test]
    fn empty_builder_produces_empty_log() {
        let b = TraceLogBuilder::new(JobHeader::new(1, 1, 1, 0, 1));
        assert!(b.is_empty());
        let log = b.finish();
        assert!(log.records().is_empty());
        assert_eq!(log.io_weight(), 0);
    }
}
