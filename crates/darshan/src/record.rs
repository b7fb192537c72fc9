//! Per-`(rank, file)` trace records.

use crate::counter::{Module, PosixCounter, PosixFCounter, N_POSIX_COUNTERS, N_POSIX_FCOUNTERS};
use serde::{Deserialize, Serialize};

/// Rank value meaning "shared across all ranks".
///
/// Darshan collapses files accessed collectively by every process into a
/// single record with rank `-1`; per-process files keep their rank.
pub const SHARED_RANK: i32 = -1;

/// One instrumented file, as seen by one rank (or by all ranks collectively
/// when [`PosixRecord::rank`] is [`SHARED_RANK`]).
///
/// Counters are dense arrays indexed by [`PosixCounter`] / [`PosixFCounter`],
/// exactly like Darshan's in-memory layout. All timestamps are seconds
/// relative to the job start.
///
/// Byte counters are `i64` and timestamps `f64`, so a read rate needs an
/// explicit conversion,
///
/// ```
/// # use mosaic_darshan::counter::{PosixCounter as C, PosixFCounter as F};
/// # use mosaic_darshan::PosixRecord;
/// let mut rec = PosixRecord::new(7, 0);
/// rec.set(C::BytesRead, 4096).setf(F::ReadStartTimestamp, 1.0).setf(F::ReadEndTimestamp, 3.0);
/// let secs = rec.getf(F::ReadEndTimestamp) - rec.getf(F::ReadStartTimestamp);
/// assert_eq!(rec.get(C::BytesRead) as f64 / secs, 2048.0);
/// ```
///
/// and a sum of a byte counter and a timestamp does not compile:
///
/// ```compile_fail,E0277
/// # use mosaic_darshan::counter::{PosixCounter as C, PosixFCounter as F};
/// # use mosaic_darshan::PosixRecord;
/// let rec = PosixRecord::new(7, 0);
/// let _meaningless = rec.get(C::BytesRead) + rec.getf(F::ReadStartTimestamp);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PosixRecord {
    /// Stable hash of the file path (see [`crate::synthutil::record_id`]).
    pub record_id: u64,
    /// Rank that produced the record, or [`SHARED_RANK`].
    pub rank: i32,
    /// Which API layer captured the record.
    pub module: Module,
    /// Integer counters, indexed by [`PosixCounter`].
    pub counters: [i64; N_POSIX_COUNTERS],
    /// Float counters, indexed by [`PosixFCounter`].
    pub fcounters: [f64; N_POSIX_FCOUNTERS],
}

impl PosixRecord {
    /// A zeroed record for the given file and rank.
    pub fn new(record_id: u64, rank: i32) -> Self {
        PosixRecord {
            record_id,
            rank,
            module: Module::Posix,
            counters: [0; N_POSIX_COUNTERS],
            fcounters: [0.0; N_POSIX_FCOUNTERS],
        }
    }

    /// Read an integer counter.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "enum-derived index: PosixCounter::index() < N_POSIX_COUNTERS by construction"
    )]
    pub fn get(&self, c: PosixCounter) -> i64 {
        self.counters[c.index()]
    }

    /// Read a float counter.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "enum-derived index: PosixFCounter::index() < N_POSIX_FCOUNTERS by construction"
    )]
    pub fn getf(&self, c: PosixFCounter) -> f64 {
        self.fcounters[c.index()]
    }

    /// Set an integer counter (chainable).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "enum-derived index: PosixCounter::index() < N_POSIX_COUNTERS by construction"
    )]
    pub fn set(&mut self, c: PosixCounter, v: i64) -> &mut Self {
        self.counters[c.index()] = v;
        self
    }

    /// Set a float counter (chainable).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "enum-derived index: PosixFCounter::index() < N_POSIX_FCOUNTERS by construction"
    )]
    pub fn setf(&mut self, c: PosixFCounter, v: f64) -> &mut Self {
        self.fcounters[c.index()] = v;
        self
    }

    /// Add to an integer counter (chainable).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "enum-derived index: PosixCounter::index() < N_POSIX_COUNTERS by construction"
    )]
    pub fn add(&mut self, c: PosixCounter, v: i64) -> &mut Self {
        self.counters[c.index()] += v;
        self
    }

    /// Total metadata operations (opens + closes + seeks + stats).
    #[inline]
    pub fn meta_ops(&self) -> i64 {
        self.get(PosixCounter::Opens)
            + self.get(PosixCounter::Closes)
            + self.get(PosixCounter::Seeks)
            + self.get(PosixCounter::Stats)
    }
}

/// Read access to one record's fields: what the validity rules
/// ([`crate::validate::check_record`]) and operation extraction need.
///
/// An owned [`PosixRecord`] and a [`crate::view::RecordView`] over the wire
/// bytes both implement it, so the log path and the byte path run the same
/// rule and extraction code, and the byte path never decodes a record.
pub trait RecordFields {
    /// Rank that produced the record, or [`SHARED_RANK`].
    fn rank(&self) -> i32;

    /// Read an integer counter.
    fn get(&self, c: PosixCounter) -> i64;

    /// Read a float counter.
    fn getf(&self, c: PosixFCounter) -> f64;

    /// Number of ranks this record stands for, given the job's `nprocs`.
    #[inline]
    fn rank_count(&self, nprocs: u32) -> u32 {
        if self.rank() == SHARED_RANK {
            nprocs
        } else {
            1
        }
    }

    /// Bytes read by this record.
    #[inline]
    fn bytes_read(&self) -> i64 {
        self.get(PosixCounter::BytesRead)
    }

    /// Bytes written by this record.
    #[inline]
    fn bytes_written(&self) -> i64 {
        self.get(PosixCounter::BytesWritten)
    }

    /// `true` if the record observed any read activity: both an op count
    /// and a byte volume.
    #[inline]
    fn has_reads(&self) -> bool {
        self.get(PosixCounter::Reads) > 0 && self.bytes_read() > 0
    }

    /// `true` if the record observed any write activity.
    #[inline]
    fn has_writes(&self) -> bool {
        self.get(PosixCounter::Writes) > 0 && self.bytes_written() > 0
    }

    /// The `[start, end]` interval (relative seconds) covering this record's
    /// read activity, if any. Darshan aggregates between open and close, so
    /// this is all the temporal information a record carries.
    #[inline]
    fn read_interval(&self) -> Option<(f64, f64)> {
        if self.has_reads() {
            Some((
                self.getf(PosixFCounter::ReadStartTimestamp),
                self.getf(PosixFCounter::ReadEndTimestamp),
            ))
        } else {
            None
        }
    }

    /// The `[start, end]` interval covering this record's write activity.
    #[inline]
    fn write_interval(&self) -> Option<(f64, f64)> {
        if self.has_writes() {
            Some((
                self.getf(PosixFCounter::WriteStartTimestamp),
                self.getf(PosixFCounter::WriteEndTimestamp),
            ))
        } else {
            None
        }
    }
}

impl RecordFields for PosixRecord {
    #[inline]
    fn rank(&self) -> i32 {
        self.rank
    }

    #[inline]
    fn get(&self, c: PosixCounter) -> i64 {
        PosixRecord::get(self, c)
    }

    #[inline]
    fn getf(&self, c: PosixFCounter) -> f64 {
        PosixRecord::getf(self, c)
    }
}

impl<R: RecordFields> RecordFields for &R {
    #[inline]
    fn rank(&self) -> i32 {
        R::rank(self)
    }

    #[inline]
    fn get(&self, c: PosixCounter) -> i64 {
        R::get(self, c)
    }

    #[inline]
    fn getf(&self, c: PosixFCounter) -> f64 {
        R::getf(self, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::PosixCounter as C;
    use crate::counter::PosixFCounter as F;

    fn rec() -> PosixRecord {
        PosixRecord::new(0xdead_beef, 3)
    }

    #[test]
    fn counters_start_zeroed() {
        let r = rec();
        for c in C::ALL {
            assert_eq!(r.get(c), 0);
        }
        for c in F::ALL {
            assert_eq!(r.getf(c), 0.0);
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut r = rec();
        r.set(C::BytesRead, 4096).setf(F::ReadStartTimestamp, 1.5);
        assert_eq!(r.get(C::BytesRead), 4096);
        assert_eq!(r.getf(F::ReadStartTimestamp), 1.5);
    }

    #[test]
    fn every_counter_reads_back_from_its_own_slot() {
        let mut r = rec();
        for (i, c) in C::ALL.into_iter().enumerate() {
            r.set(c, 1_000 + i as i64);
        }
        for (i, c) in F::ALL.into_iter().enumerate() {
            r.setf(c, 0.5 + i as f64);
        }
        for (i, c) in C::ALL.into_iter().enumerate() {
            assert_eq!(r.get(c), 1_000 + i as i64, "{c:?}");
        }
        for (i, c) in F::ALL.into_iter().enumerate() {
            assert_eq!(r.getf(c), 0.5 + i as f64, "{c:?}");
        }
        r.add(C::ALL[N_POSIX_COUNTERS - 1], 5);
        assert_eq!(r.get(C::ALL[N_POSIX_COUNTERS - 1]), 1_000 + N_POSIX_COUNTERS as i64 - 1 + 5);
        assert_eq!(r.get(C::ALL[0]), 1_000, "add touches only its own slot");
    }

    #[test]
    fn add_accumulates() {
        let mut r = rec();
        r.add(C::Opens, 2).add(C::Opens, 3);
        assert_eq!(r.get(C::Opens), 5);
    }

    #[test]
    fn rank_count_expands_shared() {
        let mut r = rec();
        assert_eq!(r.rank_count(128), 1);
        r.rank = SHARED_RANK;
        assert_eq!(r.rank_count(128), 128);
    }

    #[test]
    fn meta_ops_sums_all_kinds() {
        let mut r = rec();
        r.set(C::Opens, 1).set(C::Closes, 2).set(C::Seeks, 3).set(C::Stats, 4);
        assert_eq!(r.meta_ops(), 10);
    }

    #[test]
    fn intervals_require_both_count_and_bytes() {
        let mut r = rec();
        assert_eq!(r.read_interval(), None);
        r.set(C::Reads, 10); // ops but no bytes: still no interval
        assert_eq!(r.read_interval(), None);
        r.set(C::BytesRead, 100).setf(F::ReadStartTimestamp, 2.0).setf(F::ReadEndTimestamp, 5.0);
        assert_eq!(r.read_interval(), Some((2.0, 5.0)));
        assert_eq!(r.write_interval(), None);
        r.set(C::Writes, 1)
            .set(C::BytesWritten, 7)
            .setf(F::WriteStartTimestamp, 6.0)
            .setf(F::WriteEndTimestamp, 6.5);
        assert_eq!(r.write_interval(), Some((6.0, 6.5)));
    }
}
