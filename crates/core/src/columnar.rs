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
//! **Extraction contract:** [`ColumnarTrace::load_checked`] is the byte
//! path's whole pre-processing step ① in one walk over the wire records. It
//! returns the report [`mosaic_darshan::validate::validate`] gives the
//! materialized log, and its columns, metadata events and weight are what
//! `delete_invalid` + [`OperationView::from_log`] extract from that log
//! (reads and writes in extraction order rather than start-sorted, see
//! above). [`ColumnarTrace::load`] is the same extraction behind a report
//! computed apart. `tests/zerocopy_agreement.rs` and the
//! `columnar-vs-reference` oracle pin both.
//!
//! Arena ownership rule: an arena borrows nothing and owns all its buffers;
//! a loaded [`ColumnarTrace`] is valid until the next `load`, and anything
//! that must outlive the trace (the report) is built from copies.

use crate::config::CategorizerConfig;
use mosaic_darshan::convert::{nonneg_u64, usize_to_u64};
use mosaic_darshan::counter::{PosixCounter as C, PosixFCounter as F};
use mosaic_darshan::ops::{MetaEvent, MetaKind, OpKind, Operation, OperationView};
use mosaic_darshan::validate::{check_trace, ValidityReport};
use mosaic_darshan::view::{RecordView, TraceView};
use mosaic_darshan::RecordFields;

/// One direction's intervals in struct-of-arrays layout. The four vectors
/// always have equal length; element `i` of each describes one operation.
///
/// As in [`Operation`](mosaic_darshan::Operation), bytes are integers and
/// times `f64`, so an element's bytes and start cannot be summed:
///
/// ```compile_fail,E0277
/// # use mosaic_core::columnar::OpColumns;
/// let cols = OpColumns { starts: vec![1.0], ends: vec![3.0], bytes: vec![4096], ranks: vec![1] };
/// let _meaningless: Vec<_> = cols.bytes.iter().zip(&cols.starts).map(|(b, s)| b + s).collect();
/// ```
///
/// while a per-operation rate converts explicitly:
///
/// ```
/// # use mosaic_core::columnar::OpColumns;
/// let cols = OpColumns { starts: vec![1.0], ends: vec![3.0], bytes: vec![4096], ranks: vec![1] };
/// let rate = cols.bytes[0] as f64 / (cols.ends[0] - cols.starts[0]);
/// assert_eq!(rate, 2048.0);
/// ```
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

    // The index helpers below are the merge walks' only column accesses.
    // Their callers pass indices below `len()`, which all four columns
    // share.

    /// Operation `i`'s interval `(start, end)`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "callers pass i < len")]
    fn span(&self, i: usize) -> (f64, f64) {
        (self.starts[i], self.ends[i])
    }

    /// Operation `i` as `(start, end, bytes, ranks)`.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "callers pass i < len")]
    fn row(&self, i: usize) -> (f64, f64, u64, u32) {
        (self.starts[i], self.ends[i], self.bytes[i], self.ranks[i])
    }

    /// Copy operation `src` over operation `dst` (compaction helper).
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass src/dst < len; compaction never reads past the write head"
    )]
    fn copy_within(&mut self, src: usize, dst: usize) {
        if src == dst {
            return;
        }
        self.starts[dst] = self.starts[src];
        self.ends[dst] = self.ends[src];
        self.bytes[dst] = self.bytes[src];
        self.ranks[dst] = self.ranks[src];
    }

    /// Fuse operation `(start, end, bytes, ranks)` into operation `dst` —
    /// interval hull, byte sum, rank sum, the exact arithmetic (and
    /// argument order, for NaN behaviour) of the reference [`crate::merge`].
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "callers pass dst < len")]
    fn fuse(&mut self, dst: usize, (start, end, bytes, ranks): (f64, f64, u64, u32)) {
        self.starts[dst] = self.starts[dst].min(start);
        self.ends[dst] = self.ends[dst].max(end);
        self.bytes[dst] = self.bytes[dst].saturating_add(bytes);
        self.ranks[dst] = self.ranks[dst].saturating_add(ranks);
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

/// Saturating byte totals of the records extracted so far: the dedup
/// weight's two halves, summed apart like
/// [`mosaic_darshan::TraceLog::io_weight`] sums them.
#[derive(Default)]
struct ByteSums {
    read: i64,
    written: i64,
}

impl ColumnarTrace {
    /// Check and extract a borrowed trace in one walk over its records.
    ///
    /// Each record is read straight from the wire and checked against every
    /// validity rule and the name table
    /// ([`mosaic_darshan::validate::check_trace`]). A broken record lands in
    /// the returned report as `(index, errors)` and is skipped; a valid one
    /// is extracted into the columns. The report equals
    /// [`mosaic_darshan::view::validate_view`]'s, and the columns equal what
    /// [`ColumnarTrace::load`] extracts with that report.
    pub fn load_checked(&mut self, view: &TraceView<'_>) -> ValidityReport {
        let mut sums = self.begin(view);
        let report = check_trace(view.runtime(), view.nprocs, view.named_records(), |rec| {
            self.push_record(rec, &mut sums);
        });
        self.finish(sums);
        report
    }

    /// Extract a borrowed trace into the columns, skipping the records the
    /// validity `report` flagged (the byte-input equivalent of
    /// `delete_invalid` + [`mosaic_darshan::OperationView::from_log`]).
    ///
    /// The staged form of [`ColumnarTrace::load_checked`], for callers that
    /// time validation and extraction apart; both extract each record with
    /// the same step.
    pub fn load(&mut self, view: &TraceView<'_>, report: &ValidityReport) {
        let mut sums = self.begin(view);
        let mut bad = report.record_errors.iter().map(|(i, _)| *i).peekable();
        for (i, rec) in view.records().enumerate() {
            if bad.next_if_eq(&i).is_none() {
                self.push_record(rec, &mut sums);
            }
        }
        self.finish(sums);
    }

    /// Reset the columns for a new trace.
    fn begin(&mut self, view: &TraceView<'_>) -> ByteSums {
        self.runtime = view.runtime();
        self.nprocs = view.nprocs;
        self.reads.clear();
        self.writes.clear();
        self.meta.clear();
        ByteSums::default()
    }

    /// Extract one valid record: its read and write intervals, its metadata
    /// events and its byte volumes. The op/meta conditions and their order
    /// mirror `from_log`'s `push_record` exactly.
    #[inline]
    fn push_record(&mut self, rec: RecordView<'_>, sums: &mut ByteSums) {
        let ranks = rec.rank_count(self.nprocs);
        if let Some((start, end)) = rec.read_interval() {
            self.reads.push(start, end, nonneg_u64(rec.bytes_read()), ranks);
        }
        if let Some((start, end)) = rec.write_interval() {
            self.writes.push(start, end, nonneg_u64(rec.bytes_written()), ranks);
        }
        let open_time = rec.getf(F::OpenStartTimestamp);
        for (counter, kind, time) in [
            (C::Opens, MetaKind::Open, open_time),
            (C::Seeks, MetaKind::Seek, open_time),
            (C::Stats, MetaKind::Stat, open_time),
            (C::Closes, MetaKind::Close, rec.getf(F::CloseEndTimestamp)),
        ] {
            let count = nonneg_u64(rec.get(counter));
            if count > 0 {
                self.meta.push(MetaEvent { time, kind, count });
            }
        }
        sums.read = sums.read.saturating_add(rec.bytes_read());
        sums.written = sums.written.saturating_add(rec.bytes_written());
    }

    /// Sort the metadata events by time (stable, as `from_log` sorts them)
    /// and set the dedup weight.
    fn finish(&mut self, sums: ByteSums) {
        self.meta.sort_by(|a, b| a.time.total_cmp(&b.time));
        self.weight = sums.read.saturating_add(sums.written);
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
        let ((start_a, end_a), (start_b, end_b)) = (input.span(a), input.span(b));
        start_a.total_cmp(&start_b).then(end_a.total_cmp(&end_b))
    });
    scratch.merged.clear();
    for &i in &scratch.idx {
        let op = input.row(i);
        let n = scratch.merged.len();
        if scratch.merged.ends.last().is_some_and(|&end| op.0 <= end) {
            scratch.merged.fuse(n - 1, op);
        } else {
            scratch.merged.push(op.0, op.1, op.2, op.3);
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
        // 1 <= w <= i < len.
        let (prev_start, prev_end) = cols.span(w - 1);
        let gap = cols.span(i).0 - prev_end;
        let op_gap = config.neighbor_gap_op_frac * (prev_end - prev_start);
        if gap <= runtime_gap.max(op_gap) {
            cols.fuse(w - 1, cols.row(i));
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
    for ((&op_start, &op_end), &op_bytes) in cols.starts.iter().zip(&cols.ends).zip(&cols.bytes) {
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
            // `c` is clamped to `chunks - 1`, so the chunk is always present.
            if let Some(sum) = sums.get_mut(c) {
                *sum += op_bytes as f64;
            }
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
        // `last` is clamped to `chunks - 1`, so the window is always present.
        let window = sums.get_mut(first..=last).unwrap_or_default();
        for (c, sum) in (first..).zip(window) {
            let lo = s.max(c as f64 * width);
            let hi = e.min((c + 1) as f64 * width);
            if hi > lo {
                *sum += density * (hi - lo);
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
    use mosaic_darshan::log::{TraceLog, TraceLogBuilder};
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

    /// Random operations with overlaps, touching ends, instantaneous ops,
    /// ops outside `[0, 100]` and saturating byte and rank counts.
    fn random_ops(seed: u64) -> Vec<Operation> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..rng.gen_range(0..80))
            .map(|_| {
                let start: f64 = rng.gen_range(-10.0..110.0);
                let end = match rng.gen_range(0..4) {
                    0 => start,
                    _ => start + rng.gen_range(0.0_f64..8.0),
                };
                let bytes =
                    if rng.gen_bool(0.05) { u64::MAX - 1 } else { rng.gen_range(0..1 << 30) };
                let ranks = if rng.gen_bool(0.05) { u32::MAX } else { rng.gen_range(1..64) };
                Operation { kind: OpKind::Write, start, end, bytes, ranks }
            })
            .collect()
    }

    fn row_bits(ops: &[Operation]) -> Vec<(u64, u64, u64, u32)> {
        ops.iter().map(|o| (o.start.to_bits(), o.end.to_bits(), o.bytes, o.ranks)).collect()
    }

    #[test]
    fn random_merges_equal_the_row_reference_bit_for_bit() {
        for seed in 0..300 {
            let ops = random_ops(seed);
            let runtime = [100.0, 1.0, 10_000.0][(seed % 3) as usize];
            assert_eq!(
                row_bits(&merged_rows(&ops, runtime)),
                row_bits(&merge_all(&ops, runtime, &cfg())),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn random_chunk_volumes_equal_the_row_reference_bit_for_bit() {
        for seed in 0..300 {
            let ops = random_ops(1_000 + seed);
            let mut cols = OpColumns::default();
            cols.load_ops(&ops);
            for chunks in [0, 1, 2, 4, 7, 16] {
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(chunk_volumes_columnar(&cols, 100.0, chunks)),
                    bits(chunk_volumes(&ops, 100.0, chunks)),
                    "seed {seed}, {chunks} chunks"
                );
            }
        }
    }

    #[test]
    fn fuse_takes_the_hull_and_saturating_sums() {
        let mut cols = OpColumns::default();
        cols.push(10.0, 20.0, u64::MAX - 5, u32::MAX - 1);
        cols.push(0.0, 1.0, 3, 2);
        cols.fuse(0, (12.0, 25.0, 10, 5));
        assert_eq!(cols.row(0), (10.0, 25.0, u64::MAX, u32::MAX));
        cols.fuse(0, (5.0, 15.0, 0, 0));
        assert_eq!(cols.row(0), (5.0, 25.0, u64::MAX, u32::MAX));
        assert_eq!(cols.row(1), (0.0, 1.0, 3, 2), "fusing into 0 leaves 1 alone");
        assert_eq!(cols.span(1), (0.0, 1.0));
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

    // ---- the one record walk: `load_checked` against the staged pair ----

    /// Runtime, nprocs, reads and writes, metadata events and weight.
    type TraceBits = (u64, u32, [Vec<(u64, u64, u64, u32)>; 2], Vec<(u64, MetaKind, u64)>, i64);

    /// Every bit of a loaded trace, NaN payloads and zero signs included.
    fn trace_bits(t: &ColumnarTrace) -> TraceBits {
        let cols = |c: &OpColumns| {
            (0..c.len())
                .map(|i| {
                    let (start, end, bytes, ranks) = c.row(i);
                    (start.to_bits(), end.to_bits(), bytes, ranks)
                })
                .collect()
        };
        let meta = t.meta.iter().map(|e| (e.time.to_bits(), e.kind, e.count)).collect();
        (t.runtime.to_bits(), t.nprocs, [cols(&t.reads), cols(&t.writes)], meta, t.weight)
    }

    /// The one walk over `bytes` must return `validate_view`'s report, which
    /// is also the log validator's, and extract exactly what `load` does
    /// with it. Returns the report and the loaded trace.
    fn walk_equals_staged(bytes: &[u8]) -> (ValidityReport, ColumnarTrace) {
        let view = TraceView::parse(bytes).unwrap();
        let mut fused = ColumnarTrace::default();
        let report = fused.load_checked(&view);
        assert_eq!(report, validate_view(&view));
        assert_eq!(report, validate::validate(&view.to_log()));
        let mut staged = ColumnarTrace::default();
        staged.load(&view, &report);
        assert_eq!(trace_bits(&fused), trace_bits(&staged));
        (report, fused)
    }

    /// A clean record reading 10 bytes over [1, 2] s, opened at 0.5 s and
    /// closed at 3 s.
    fn clean(rec: &mut mosaic_darshan::PosixRecord) -> &mut mosaic_darshan::PosixRecord {
        rec.set(C::Reads, 1)
            .set(C::BytesRead, 10)
            .set(C::Opens, 1)
            .set(C::Closes, 1)
            .setf(F::OpenStartTimestamp, 0.5)
            .setf(F::ReadStartTimestamp, 1.0)
            .setf(F::ReadEndTimestamp, 2.0)
            .setf(F::CloseEndTimestamp, 3.0)
    }

    #[test]
    fn load_checked_flags_each_record_rule_and_extracts_the_rest() {
        use mosaic_darshan::record::PosixRecord;
        use mosaic_darshan::ValidityError as V;
        // One record breaking exactly one rule, between two clean ones. The
        // broken record reads over [2, 2.5] s.
        type Break = fn(&mut PosixRecord);
        let breaks: [(V, Break); 8] = [
            (V::RankOutOfRange, |r| r.rank = 4),
            (V::NegativeBytes, |r| {
                r.set(C::BytesWritten, -5);
            }),
            (V::BytesWithoutOps, |r| {
                r.set(C::Reads, 0);
            }),
            (V::NegativeTimestamp, |r| {
                r.setf(F::ReadTime, -0.25);
            }),
            (V::InvertedInterval, |r| {
                r.setf(F::ReadEndTimestamp, 0.75);
            }),
            (V::TimestampBeyondRuntime, |r| {
                r.setf(F::CloseEndTimestamp, 101.5);
            }),
            (V::DeallocatedBeforeEnd, |r| {
                r.setf(F::CloseEndTimestamp, 0.0);
            }),
            (V::MissingName, |_| {}),
        ];
        let mut seen = vec![V::NonPositiveRuntime, V::ZeroProcs];
        for (rule, break_it) in breaks {
            let mut records = Vec::new();
            let mut names = std::collections::BTreeMap::new();
            for (i, id) in [11u64, 22, 33].into_iter().enumerate() {
                let mut rec = PosixRecord::new(id, i as i32);
                clean(&mut rec)
                    .setf(F::ReadStartTimestamp, 1.0 + i as f64)
                    .setf(F::ReadEndTimestamp, 1.5 + i as f64);
                if id == 22 {
                    break_it(&mut rec);
                }
                if id != 22 || rule != V::MissingName {
                    names.insert(id, format!("/f{id}"));
                }
                records.push(rec);
            }
            let log = TraceLog::from_parts(JobHeader::new(1, 1, 4, 0, 100), records, names);
            let (report, trace) = walk_equals_staged(&mdf::to_bytes(&log));
            assert_eq!(report.record_errors, vec![(1, vec![rule])], "{rule:?}");
            assert!(!report.is_fatal());
            let starts: Vec<f64> = trace.reads.starts.clone();
            assert_eq!(starts, vec![1.0, 3.0], "{rule:?}: only the clean records are extracted");
            assert_eq!(trace.weight, 20, "{rule:?}");
            seen.push(rule);
        }
        seen.sort_by_key(|r| r.slug());
        let mut all = V::ALL.to_vec();
        all.sort_by_key(|r| r.slug());
        assert_eq!(seen, all, "every rule is exercised");
    }

    #[test]
    fn load_checked_on_header_fatal_and_all_invalid_traces() {
        use mosaic_darshan::{EvictReason, ValidityError as V};
        // Zero runtime and zero processes: fatal whatever the records say.
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 0, 50, 50));
        for i in 0..3 {
            let r = b.begin_record(&format!("/h{i}"), 0);
            clean(b.record_mut(r));
        }
        let (report, _) = walk_equals_staged(&mdf::to_bytes(&b.finish()));
        assert_eq!(report.header_errors, vec![V::NonPositiveRuntime, V::ZeroProcs]);
        assert!(report.is_fatal());
        assert_eq!(report.evict_reason(), EvictReason::ValidationFatal(V::NonPositiveRuntime));

        // A sound header whose every record is out of rank range.
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 2, 0, 100));
        for i in 0..3 {
            let r = b.begin_record(&format!("/a{i}"), 5 + i);
            clean(b.record_mut(r));
        }
        let (report, trace) = walk_equals_staged(&mdf::to_bytes(&b.finish()));
        assert!(report.header_errors.is_empty());
        assert_eq!(report.record_errors.len(), 3);
        assert!(report.is_fatal());
        assert_eq!(report.evict_reason(), EvictReason::AllRecordsInvalid);
        assert!(trace.reads.is_empty() && trace.meta.is_empty());
        assert_eq!(trace.weight, 0);
    }

    #[test]
    fn load_checked_rejects_nan_and_negative_timestamps_but_keeps_negative_zero() {
        use mosaic_darshan::ValidityError as V;
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 100));
        let nan = b.begin_record("/nan", 0);
        clean(b.record_mut(nan)).setf(F::ReadEndTimestamp, f64::NAN);
        let neg = b.begin_record("/neg", 1);
        clean(b.record_mut(neg)).setf(F::OpenStartTimestamp, -1.0);
        let zero = b.begin_record("/zero", 2);
        clean(b.record_mut(zero)).setf(F::ReadStartTimestamp, -0.0);
        let (report, trace) = walk_equals_staged(&mdf::to_bytes(&b.finish()));
        assert_eq!(
            report.record_errors,
            vec![(0, vec![V::TimestampBeyondRuntime]), (1, vec![V::NegativeTimestamp])]
        );
        assert_eq!(trace.reads.len(), 1);
        assert_eq!(trace.reads.starts[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn load_checked_saturates_the_weight() {
        // Each direction's sum saturates on its own, then their sum does.
        let mut b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 0, 1000));
        for rank in 0..3 {
            let r = b.begin_record(&format!("/huge.{rank}"), rank);
            b.record_mut(r)
                .set(C::Reads, 1)
                .set(C::BytesRead, i64::MAX - 1)
                .set(C::Writes, 1)
                .set(C::BytesWritten, 1 << 40)
                .setf(F::ReadStartTimestamp, 10.0)
                .setf(F::ReadEndTimestamp, 20.0)
                .setf(F::WriteStartTimestamp, 30.0)
                .setf(F::WriteEndTimestamp, 40.0);
        }
        let log = b.finish();
        let (report, trace) = walk_equals_staged(&mdf::to_bytes(&log));
        assert!(report.is_clean());
        assert_eq!(trace.weight, i64::MAX);
        assert_eq!(trace.weight, log.io_weight());
        assert_eq!(trace.reads.bytes, vec![nonneg_u64(i64::MAX - 1); 3]);
        assert_eq!(trace.writes.bytes, vec![1 << 40; 3]);
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
