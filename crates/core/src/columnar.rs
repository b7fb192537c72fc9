//! Columnar (struct-of-arrays) interval storage and merging — the
//! categorizer's production merge and temporality path.
//!
//! Cloning `Vec<Operation>`s at every stage costs allocator traffic and
//! pointer-chasing at corpus scale. This module keeps one direction's
//! intervals as four parallel vectors ([`OpColumns`]) inside a reusable
//! per-thread [`TraceArena`], so that
//!
//! * concurrent-overlap merging walks contiguous `starts`/`ends` arrays,
//! * the quartile-chunk temporality scan streams the same arrays, and
//! * per-trace allocations collapse to arena `clear()`s that keep capacity.
//!
//! **Reference contract:** [`crate::merge`] and
//! [`crate::temporality::chunk_volumes`] are the obviously-correct row
//! implementations. Every function here performs bit-identical arithmetic,
//! in the same order — the `columnar-vs-reference` differential oracle and
//! the unit tests below pin this. The one structural difference is sorting:
//! the reference stable-sorts extraction order by `start`
//! ([`OperationView::from_log`]) and then stable-sorts that by
//! `(start, end)` ([`crate::merge::merge_concurrent`]). Because both sorts
//! are stable and the second key refines the first, the composition equals
//! a single stable sort of extraction order by `(start, end)` — which is
//! what [`merge_concurrent_columnar`] does with one index sort.
//!
//! Arena ownership rule: an arena borrows nothing and owns all its buffers;
//! a loaded [`ColumnarTrace`] is valid until the next `load`, and anything
//! that must outlive the trace (the report) is built from copies.

use crate::config::CategorizerConfig;
use mosaic_darshan::convert::{nonneg_u64, usize_to_u64};
use mosaic_darshan::counter::{PosixCounter as C, PosixFCounter as F};
use mosaic_darshan::ops::{MetaEvent, MetaKind, OpKind, Operation, OperationView};
use mosaic_darshan::validate::ValidityReport;
use mosaic_darshan::view::TraceView;

/// One direction's intervals in struct-of-arrays layout. The four vectors
/// always have equal length; element `i` of each describes one operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpColumns {
    /// Operation start times (seconds relative to job start).
    pub starts: Vec<f64>,
    /// Operation end times.
    pub ends: Vec<f64>,
    /// Bytes moved per operation.
    pub bytes: Vec<u64>,
    /// Participating ranks per operation.
    pub ranks: Vec<u32>,
}

impl OpColumns {
    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` when no operations are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Drop all operations, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.starts.clear();
        self.ends.clear();
        self.bytes.clear();
        self.ranks.clear();
    }

    /// Heap bytes held by the four column buffers (capacity, not length —
    /// arenas keep capacity across `clear()`, and resident memory is what
    /// the `mosaic.arena.resident_bytes` gauge reports).
    pub fn resident_bytes(&self) -> u64 {
        usize_to_u64(self.starts.capacity().saturating_mul(std::mem::size_of::<f64>()))
            .saturating_add(usize_to_u64(
                self.ends.capacity().saturating_mul(std::mem::size_of::<f64>()),
            ))
            .saturating_add(usize_to_u64(
                self.bytes.capacity().saturating_mul(std::mem::size_of::<u64>()),
            ))
            .saturating_add(usize_to_u64(
                self.ranks.capacity().saturating_mul(std::mem::size_of::<u32>()),
            ))
    }

    /// Append one operation.
    #[inline]
    pub fn push(&mut self, start: f64, end: f64, bytes: u64, ranks: u32) {
        self.starts.push(start);
        self.ends.push(end);
        self.bytes.push(bytes);
        self.ranks.push(ranks);
    }

    fn truncate(&mut self, len: usize) {
        self.starts.truncate(len);
        self.ends.truncate(len);
        self.bytes.truncate(len);
        self.ranks.truncate(len);
    }

    /// Copy operation `src` over operation `dst` (compaction helper).
    fn copy_within(&mut self, src: usize, dst: usize) {
        if src == dst {
            return;
        }
        // lint: allow(panic, "callers pass src/dst < len; compaction never reads past the write head")
        self.starts[dst] = self.starts[src];
        // lint: allow(panic, "callers pass src/dst < len; compaction never reads past the write head")
        self.ends[dst] = self.ends[src];
        // lint: allow(panic, "callers pass src/dst < len; compaction never reads past the write head")
        self.bytes[dst] = self.bytes[src];
        // lint: allow(panic, "callers pass src/dst < len; compaction never reads past the write head")
        self.ranks[dst] = self.ranks[src];
    }

    /// Fuse operation `i` of `other` into operation `dst` of `self` —
    /// interval hull, byte sum, rank sum, the exact arithmetic (and
    /// argument order, for NaN behaviour) of the reference [`crate::merge`].
    fn fuse_from(&mut self, dst: usize, other: &OpColumns, i: usize) {
        // lint: allow(panic, "dst < self.len() and i < other.len() by the merge walk's construction")
        self.starts[dst] = self.starts[dst].min(other.starts[i]);
        // lint: allow(panic, "dst < self.len() and i < other.len() by the merge walk's construction")
        self.ends[dst] = self.ends[dst].max(other.ends[i]);
        // lint: allow(panic, "dst < self.len() and i < other.len() by the merge walk's construction")
        self.bytes[dst] = self.bytes[dst].saturating_add(other.bytes[i]);
        // lint: allow(panic, "dst < self.len() and i < other.len() by the merge walk's construction")
        self.ranks[dst] = self.ranks[dst].saturating_add(other.ranks[i]);
    }

    /// Materialize row-oriented operations (for segmentation/periodicity,
    /// which run on the short post-merge list).
    pub fn materialize(&self, kind: OpKind, out: &mut Vec<Operation>) {
        out.clear();
        out.reserve(self.len());
        let columns = self.starts.iter().zip(&self.ends).zip(&self.bytes).zip(&self.ranks);
        for (((&start, &end), &bytes), &ranks) in columns {
            out.push(Operation { kind, start, end, bytes, ranks });
        }
    }

    /// Load from row-oriented operations.
    pub fn load_ops(&mut self, ops: &[Operation]) {
        self.clear();
        for op in ops {
            self.push(op.start, op.end, op.bytes, op.ranks);
        }
    }
}

/// One trace's extracted operation view in columnar form — what the
/// categorizer runs on.
#[derive(Debug, Clone, Default)]
pub struct ColumnarTrace {
    /// Job wallclock runtime in seconds.
    pub runtime: f64,
    /// Number of processes in the job.
    pub nprocs: u32,
    /// Read operations, in record-extraction order (merging sorts).
    pub reads: OpColumns,
    /// Write operations, in record-extraction order.
    pub writes: OpColumns,
    /// Metadata events, sorted by time.
    pub meta: Vec<MetaEvent>,
    /// Total bytes moved by the surviving records (the dedup weight),
    /// accumulated during extraction so the wire bytes are walked once.
    /// Saturates at `i64::MAX`, like [`mosaic_darshan::TraceLog::io_weight`].
    pub weight: i64,
}

impl ColumnarTrace {
    /// Extract a borrowed trace into the columns, skipping the records the
    /// validity `report` flagged (the byte-input equivalent of
    /// `delete_invalid` + [`mosaic_darshan::OperationView::from_log`]).
    ///
    /// Extraction order, the per-record op/meta conditions, and the final
    /// stable meta sort mirror `from_log`'s `push_record` exactly.
    pub fn load(&mut self, view: &TraceView<'_>, report: &ValidityReport) {
        self.runtime = view.runtime();
        self.nprocs = view.nprocs;
        self.reads.clear();
        self.writes.clear();
        self.meta.clear();
        let mut bytes_read: i64 = 0;
        let mut bytes_written: i64 = 0;
        let mut bad = report.record_errors.iter().map(|(i, _)| *i).peekable();
        for (i, rec) in view.records().enumerate() {
            if bad.peek() == Some(&i) {
                bad.next();
                continue;
            }
            let ranks = rec.rank_count(self.nprocs);
            if let Some((start, end)) = rec.read_interval() {
                self.reads.push(start, end, nonneg_u64(rec.bytes_read()), ranks);
            }
            if let Some((start, end)) = rec.write_interval() {
                self.writes.push(start, end, nonneg_u64(rec.bytes_written()), ranks);
            }
            let opens = nonneg_u64(rec.get(C::Opens));
            if opens > 0 {
                self.meta.push(MetaEvent {
                    time: rec.getf(F::OpenStartTimestamp),
                    kind: MetaKind::Open,
                    count: opens,
                });
            }
            let seeks = nonneg_u64(rec.get(C::Seeks));
            if seeks > 0 {
                self.meta.push(MetaEvent {
                    time: rec.getf(F::OpenStartTimestamp),
                    kind: MetaKind::Seek,
                    count: seeks,
                });
            }
            let stats = nonneg_u64(rec.get(C::Stats));
            if stats > 0 {
                self.meta.push(MetaEvent {
                    time: rec.getf(F::OpenStartTimestamp),
                    kind: MetaKind::Stat,
                    count: stats,
                });
            }
            let closes = nonneg_u64(rec.get(C::Closes));
            if closes > 0 {
                self.meta.push(MetaEvent {
                    time: rec.getf(F::CloseEndTimestamp),
                    kind: MetaKind::Close,
                    count: closes,
                });
            }
            bytes_read = bytes_read.saturating_add(rec.bytes_read());
            bytes_written = bytes_written.saturating_add(rec.bytes_written());
        }
        self.meta.sort_by(|a, b| a.time.total_cmp(&b.time));
        self.weight = bytes_read.saturating_add(bytes_written);
    }

    /// Load an already-extracted [`OperationView`] — how log inputs join
    /// the byte path. A view carries no record counters, so `weight` is
    /// reset to 0; log callers set it from
    /// [`mosaic_darshan::TraceLog::io_weight`].
    pub fn load_view(&mut self, view: &OperationView) {
        self.runtime = view.runtime;
        self.nprocs = view.nprocs;
        self.reads.load_ops(&view.reads);
        self.writes.load_ops(&view.writes);
        self.meta.clear();
        self.meta.extend_from_slice(&view.meta);
        self.weight = 0;
    }
}

/// Reusable merge scratch space: the sort-index buffer, the merged columns,
/// and a row-op buffer for the (short) post-merge segmentation input.
#[derive(Debug, Clone, Default)]
pub struct MergeScratch {
    idx: Vec<usize>,
    /// Output of the merge passes for the direction most recently processed.
    pub merged: OpColumns,
    /// Row-op materialization of `merged` (filled on demand).
    pub ops: Vec<Operation>,
}

/// A per-thread trace arena: the extracted columnar trace plus the merge
/// scratch. All buffers are owned; `load` + the merge passes only `clear()`
/// them, so steady-state processing allocates nothing per trace.
#[derive(Debug, Clone, Default)]
pub struct TraceArena {
    /// The extracted trace (input side).
    pub trace: ColumnarTrace,
    /// Merge/materialization scratch (working side).
    pub scratch: MergeScratch,
}

impl ColumnarTrace {
    /// Heap bytes held by the trace's column and meta buffers (capacity,
    /// not length).
    pub fn resident_bytes(&self) -> u64 {
        self.reads.resident_bytes().saturating_add(self.writes.resident_bytes()).saturating_add(
            usize_to_u64(self.meta.capacity().saturating_mul(std::mem::size_of::<MetaEvent>())),
        )
    }
}

impl MergeScratch {
    /// Heap bytes held by the scratch buffers (capacity, not length).
    pub fn resident_bytes(&self) -> u64 {
        usize_to_u64(self.idx.capacity().saturating_mul(std::mem::size_of::<usize>()))
            .saturating_add(self.merged.resident_bytes())
            .saturating_add(usize_to_u64(
                self.ops.capacity().saturating_mul(std::mem::size_of::<Operation>()),
            ))
    }
}

impl TraceArena {
    /// Total heap bytes resident in this arena — what one worker's
    /// steady-state trace processing keeps allocated.
    pub fn resident_bytes(&self) -> u64 {
        self.trace.resident_bytes().saturating_add(self.scratch.resident_bytes())
    }
}

/// Concurrent merging on columns: one stable index sort by `(start, end)`,
/// then the same fuse-or-push walk as [`crate::merge::merge_concurrent`].
/// The result lands in `scratch.merged`.
pub fn merge_concurrent_columnar(input: &OpColumns, scratch: &mut MergeScratch) {
    scratch.idx.clear();
    scratch.idx.extend(0..input.len());
    scratch.idx.sort_by(|&a, &b| {
        // lint: allow(panic, "sort indices range over 0..input.len()")
        (input.starts[a].total_cmp(&input.starts[b])).then(input.ends[a].total_cmp(&input.ends[b]))
    });
    scratch.merged.clear();
    for &i in &scratch.idx {
        let n = scratch.merged.len();
        // lint: allow(panic, "i < input.len(); n - 1 < merged.len() when n > 0")
        if n > 0 && input.starts[i] <= scratch.merged.ends[n - 1] {
            scratch.merged.fuse_from(n - 1, input, i);
        } else {
            // lint: allow(panic, "i < input.len() by construction of idx")
            scratch.merged.push(input.starts[i], input.ends[i], input.bytes[i], input.ranks[i]);
        }
    }
}

/// Neighbor merging on columns, in place: the same gap arithmetic as
/// [`crate::merge::merge_neighbors`], as a two-pointer compaction.
pub fn merge_neighbors_columnar(cols: &mut OpColumns, runtime: f64, config: &CategorizerConfig) {
    let runtime_gap = config.neighbor_gap_runtime_frac * runtime.max(0.0);
    let mut w = 0usize; // cols[..w] is the merged prefix
    for i in 0..cols.len() {
        if w == 0 {
            cols.copy_within(i, 0);
            w = 1;
            continue;
        }
        // lint: allow(panic, "w >= 1 here and w <= i + 1 <= len; i < len")
        let gap = cols.starts[i] - cols.ends[w - 1];
        // lint: allow(panic, "w >= 1 here and w <= i + 1 <= len")
        let op_gap = config.neighbor_gap_op_frac * (cols.ends[w - 1] - cols.starts[w - 1]);
        if gap <= runtime_gap.max(op_gap) {
            // Fuse in place: hull + saturating sums, same order as `fuse`.
            // lint: allow(panic, "w - 1 < w <= len and i < len")
            cols.starts[w - 1] = cols.starts[w - 1].min(cols.starts[i]);
            // lint: allow(panic, "w - 1 < w <= len and i < len")
            cols.ends[w - 1] = cols.ends[w - 1].max(cols.ends[i]);
            // lint: allow(panic, "w - 1 < w <= len and i < len")
            cols.bytes[w - 1] = cols.bytes[w - 1].saturating_add(cols.bytes[i]);
            // lint: allow(panic, "w - 1 < w <= len and i < len")
            cols.ranks[w - 1] = cols.ranks[w - 1].saturating_add(cols.ranks[i]);
        } else {
            cols.copy_within(i, w);
            w += 1;
        }
    }
    cols.truncate(w);
}

/// Both merge passes for one direction — the columnar
/// [`crate::merge::merge_all`]. The result is `scratch.merged`.
pub fn merge_all_columnar(
    input: &OpColumns,
    runtime: f64,
    config: &CategorizerConfig,
    scratch: &mut MergeScratch,
) {
    merge_concurrent_columnar(input, scratch);
    merge_neighbors_columnar(&mut scratch.merged, runtime, config);
}

/// Columnar [`crate::temporality::chunk_volumes`]: apportion bytes over
/// `chunks` equal time chunks, streaming the three column arrays. Float
/// arithmetic and clamping are identical to the row reference.
pub fn chunk_volumes_columnar(cols: &OpColumns, runtime: f64, chunks: usize) -> Vec<f64> {
    let mut sums = vec![0.0; chunks];
    if runtime <= 0.0 || chunks == 0 {
        return sums;
    }
    let width = runtime / chunks as f64;
    for i in 0..cols.len() {
        // lint: allow(panic, "i < len and all four columns share that length")
        let (op_start, op_end, op_bytes) = (cols.starts[i], cols.ends[i], cols.bytes[i]);
        if op_bytes == 0 {
            continue;
        }
        if op_start > runtime || op_end < 0.0 {
            continue;
        }
        let s = op_start.max(0.0);
        let e = op_end.min(runtime).max(s);
        if e <= s {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "f64-to-usize `as` saturates; s >= 0 and min(chunks - 1) clamps above"
            )]
            let c = ((s / width) as usize).min(chunks - 1);
            // lint: allow(panic, "c is clamped to chunks - 1 == sums.len() - 1")
            sums[c] += op_bytes as f64;
            continue;
        }
        let density = op_bytes as f64 / (e - s);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "f64-to-usize `as` saturates; s >= 0 and min(chunks - 1) clamps above"
        )]
        let first = ((s / width) as usize).min(chunks - 1);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "f64-to-usize `as` saturates; e >= s >= 0 and min(chunks - 1) clamps above"
        )]
        let last = ((e / width) as usize).min(chunks - 1);
        #[allow(clippy::needless_range_loop, reason = "index math over a time window")]
        for c in first..=last {
            let lo = s.max(c as f64 * width);
            let hi = e.min((c + 1) as f64 * width);
            if hi > lo {
                // lint: allow(panic, "c <= last, which is clamped to chunks - 1 == sums.len() - 1")
                sums[c] += density * (hi - lo);
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{merge_all, merge_concurrent, merge_neighbors};
    use crate::temporality::chunk_volumes;
    use mosaic_darshan::job::JobHeader;
    use mosaic_darshan::log::TraceLogBuilder;
    use mosaic_darshan::mdf;
    use mosaic_darshan::ops::OperationView;
    use mosaic_darshan::validate;
    use mosaic_darshan::view::{validate_view, TraceView};

    fn op(start: f64, end: f64, bytes: u64) -> Operation {
        Operation { kind: OpKind::Write, start, end, bytes, ranks: 1 }
    }

    fn cfg() -> CategorizerConfig {
        CategorizerConfig::default()
    }

    fn merged_rows(ops: &[Operation], runtime: f64) -> Vec<Operation> {
        let mut cols = OpColumns::default();
        cols.load_ops(ops);
        let mut scratch = MergeScratch::default();
        merge_all_columnar(&cols, runtime, &cfg(), &mut scratch);
        let mut out = Vec::new();
        scratch.merged.materialize(OpKind::Write, &mut out);
        out
    }

    // ---- boundary tests for the columnar interval layout ----

    #[test]
    fn empty_trace_columns() {
        let cols = OpColumns::default();
        let mut scratch = MergeScratch::default();
        merge_all_columnar(&cols, 100.0, &cfg(), &mut scratch);
        assert!(scratch.merged.is_empty());
        assert_eq!(chunk_volumes_columnar(&cols, 100.0, 4), vec![0.0; 4]);
        assert_eq!(merged_rows(&[], 100.0), merge_all(&[], 100.0, &cfg()));
    }

    #[test]
    fn single_interval_column() {
        let ops = [op(10.0, 20.0, 64)];
        assert_eq!(merged_rows(&ops, 100.0), merge_all(&ops, 100.0, &cfg()));
        let mut cols = OpColumns::default();
        cols.load_ops(&ops);
        assert_eq!(chunk_volumes_columnar(&cols, 100.0, 4), chunk_volumes(&ops, 100.0, 4));
        assert_eq!(cols.len(), 1);
    }

    #[test]
    fn interval_straddling_chunk_edges() {
        // Ops crossing every quartile edge, plus one instantaneous op
        // exactly on an edge and one clamped at the runtime boundary.
        let ops = [
            op(20.0, 30.0, 100), // straddles the 25 s edge
            op(45.0, 55.0, 100), // straddles the 50 s edge
            op(70.0, 80.0, 100), // straddles the 75 s edge
            op(25.0, 25.0, 7),   // instantaneous exactly on an edge
            op(95.0, 120.0, 40), // clipped at runtime
            op(-5.0, 5.0, 40),   // clipped at zero
        ];
        let mut cols = OpColumns::default();
        cols.load_ops(&ops);
        let columnar = chunk_volumes_columnar(&cols, 100.0, 4);
        let rows = chunk_volumes(&ops, 100.0, 4);
        assert_eq!(columnar, rows, "chunk apportioning must be bit-identical");
    }

    #[test]
    fn merge_agrees_on_overlapping_and_touching_ops() {
        let ops = [
            op(5.0, 6.0, 2),
            op(0.0, 1.0, 1),
            op(0.5, 2.0, 4),
            op(2.0, 3.0, 8),    // touching endpoint: closed-interval fuse
            op(6.004, 7.0, 16), // within the neighbor gap for runtime 10_000
        ];
        assert_eq!(merged_rows(&ops, 10_000.0), merge_all(&ops, 10_000.0, &cfg()));
        // And pass-by-pass agreement, not just end-to-end.
        let mut cols = OpColumns::default();
        cols.load_ops(&ops);
        let mut scratch = MergeScratch::default();
        merge_concurrent_columnar(&cols, &mut scratch);
        let mut conc = Vec::new();
        scratch.merged.materialize(OpKind::Write, &mut conc);
        assert_eq!(conc, merge_concurrent(&ops));
        merge_neighbors_columnar(&mut scratch.merged, 10_000.0, &cfg());
        let mut neigh = Vec::new();
        scratch.merged.materialize(OpKind::Write, &mut neigh);
        assert_eq!(neigh, merge_neighbors(&conc, 10_000.0, &cfg()));
    }

    #[test]
    fn equal_start_ties_preserve_extraction_order() {
        // Stable-sort equivalence: equal (start, end) pairs with different
        // payloads must fuse in extraction order on both paths.
        let ops = [op(1.0, 2.0, 10), op(1.0, 2.0, 20), op(1.0, 1.5, 5), op(1.0, 2.0, 40)];
        assert_eq!(merged_rows(&ops, 100.0), merge_all(&ops, 100.0, &cfg()));
    }

    #[test]
    fn max_clamp_values_are_rejected_at_their_boundaries() {
        // The bomb-guard clamps, exercised at their exact boundary values:
        // at the cap the payload cannot hold the claim (truncated), one past
        // it the claim is implausible on its face.
        use mosaic_darshan::FormatError;
        let log = TraceLogBuilder::new(JobHeader::new(1, 1, 1, 0, 10)).finish();
        let bytes = mdf::to_bytes(&log);
        let exe_len_off = 8 + 2 + 2 + 8 + 4 + 4 + 8 + 8;
        let exe_len =
            u32::from_le_bytes(bytes[exe_len_off..exe_len_off + 4].try_into().unwrap()) as usize;
        let n_records_off = exe_len_off + 4 + exe_len;

        let patch = |off: usize, value: u32| {
            let mut b = bytes.clone();
            b[off..off + 4].copy_from_slice(&value.to_le_bytes());
            let n = b.len();
            let crc = mosaic_darshan::synthutil::Crc32::checksum(&b[..n - 4]);
            b[n - 4..].copy_from_slice(&crc.to_le_bytes());
            b
        };
        let implausible =
            |context, value: u32| FormatError::ImplausibleLength { context, len: u64::from(value) };
        for (off, value, expected) in [
            (n_records_off, mdf::MAX_RECORDS, FormatError::Truncated { context: "record array" }),
            (
                n_records_off,
                mdf::MAX_RECORDS + 1,
                implausible("record count", mdf::MAX_RECORDS + 1),
            ),
            (n_records_off + 4, mdf::MAX_NAMES, FormatError::Truncated { context: "name table" }),
            (n_records_off + 4, mdf::MAX_NAMES + 1, implausible("name count", mdf::MAX_NAMES + 1)),
            (exe_len_off, mdf::MAX_EXE_LEN, FormatError::Truncated { context: "exe" }),
            (exe_len_off, mdf::MAX_EXE_LEN + 1, implausible("exe", mdf::MAX_EXE_LEN + 1)),
        ] {
            let b = patch(off, value);
            let parsed = TraceView::parse(&b).map(|_| ());
            assert_eq!(parsed, Err(expected), "clamp at offset {off} value {value}");
        }
    }

    // ---- extraction agreement ----

    #[test]
    fn load_matches_from_log_extraction_and_weight() {
        let mut b = TraceLogBuilder::new(JobHeader::new(7, 3, 8, 0, 1000).with_exe("/bin/sim"));
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
            .set(C::Stats, 2)
            .setf(F::OpenStartTimestamp, 900.0)
            .setf(F::WriteStartTimestamp, 901.0)
            .setf(F::WriteEndTimestamp, 950.0);
        let bad = b.begin_record("/bad", 0);
        b.record_mut(bad).set(C::BytesRead, -5); // sanitized away
        let log = b.finish();
        let bytes = mdf::to_bytes(&log);

        // Reference path: validate the log, delete, extract.
        let report = validate::validate(&log);
        let mut sanitized = log.clone();
        validate::delete_invalid(&mut sanitized, &report);
        let view_owned = OperationView::from_log(&sanitized);

        // Columnar path: borrowed view, same report, extract.
        let tv = TraceView::parse(&bytes).unwrap();
        let vreport = validate_view(&tv);
        assert_eq!(vreport, report);
        let mut trace = ColumnarTrace::default();
        trace.load(&tv, &vreport);

        assert_eq!(trace.runtime, view_owned.runtime);
        assert_eq!(trace.nprocs, view_owned.nprocs);
        assert_eq!(trace.meta, view_owned.meta);
        assert_eq!(trace.weight, sanitized.io_weight());
        // Columns are pre-sort; the reference view is start-sorted. Compare
        // through the merge (where the reference sorts anyway).
        let mut scratch = MergeScratch::default();
        merge_all_columnar(&trace.reads, trace.runtime, &cfg(), &mut scratch);
        let mut merged_cols = Vec::new();
        scratch.merged.materialize(OpKind::Read, &mut merged_cols);
        assert_eq!(merged_cols, merge_all(&view_owned.reads, view_owned.runtime, &cfg()));
        merge_all_columnar(&trace.writes, trace.runtime, &cfg(), &mut scratch);
        let mut merged_w = Vec::new();
        scratch.merged.materialize(OpKind::Write, &mut merged_w);
        assert_eq!(merged_w, merge_all(&view_owned.writes, view_owned.runtime, &cfg()));
    }

    #[test]
    fn load_saturates_hostile_byte_volumes() {
        // Valid counters whose sum overflows `i64`: the weight saturates
        // instead of panicking (debug) or wrapping negative (release), and
        // agrees with the log's own total.
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 1000));
        for rank in 0..2 {
            let r = b.begin_record(&format!("/huge.{rank}"), rank);
            b.record_mut(r)
                .set(C::Reads, 1)
                .set(C::BytesRead, 1 << 62)
                .set(C::Writes, 1)
                .set(C::BytesWritten, 1 << 62)
                .setf(F::ReadStartTimestamp, 10.0)
                .setf(F::ReadEndTimestamp, 20.0)
                .setf(F::WriteStartTimestamp, 30.0)
                .setf(F::WriteEndTimestamp, 40.0);
        }
        let log = b.finish();
        let bytes = mdf::to_bytes(&log);
        let tv = TraceView::parse(&bytes).unwrap();
        let report = validate_view(&tv);
        assert!(report.is_clean(), "{report:?}");
        let mut trace = ColumnarTrace::default();
        trace.load(&tv, &report);
        assert_eq!(trace.weight, i64::MAX);
        assert_eq!(trace.weight, log.io_weight());
        assert_eq!(trace.reads.len(), 2);
        assert_eq!(trace.writes.len(), 2);
    }

    #[test]
    fn arena_reuse_is_clean_across_traces() {
        // Load a big trace, then a small one: no state may leak through.
        let mut arena = TraceArena::default();
        let mk = |n: usize| {
            let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100).with_exe("/bin/x"));
            for i in 0..n {
                let r = b.begin_record(&format!("/f{i}"), 0);
                b.record_mut(r)
                    .set(C::Reads, 1)
                    .set(C::BytesRead, 10)
                    .setf(F::ReadStartTimestamp, 1.0 + i as f64)
                    .setf(F::ReadEndTimestamp, 1.5 + i as f64);
            }
            mdf::to_bytes(&b.finish())
        };
        let big = mk(40);
        let small = mk(2);

        let tv = TraceView::parse(&big).unwrap();
        arena.trace.load(&tv, &validate_view(&tv));
        assert_eq!(arena.trace.reads.len(), 40);

        let tv = TraceView::parse(&small).unwrap();
        arena.trace.load(&tv, &validate_view(&tv));
        assert_eq!(arena.trace.reads.len(), 2);
        assert!(arena.trace.writes.is_empty());
        assert!(arena.trace.meta.is_empty());

        // Fresh-load equals arena-reuse load.
        let mut fresh = ColumnarTrace::default();
        let tv = TraceView::parse(&small).unwrap();
        fresh.load(&tv, &validate_view(&tv));
        assert_eq!(arena.trace.reads, fresh.reads);
        assert_eq!(arena.trace.weight, fresh.weight);
    }
}
