//! Operation merging — MOSAIC pre-processing step ② (§III-B2).
//!
//! Read and write operations are handled independently; both passes take a
//! start-time-sorted operation list and return a (shorter) merged one.
//!
//! * **Concurrent merging** (②a): overlapping operations fuse into one.
//!   This absorbs process desynchronization (several ranks writing the same
//!   checkpoint slightly out of phase appear as one operation) and
//!   de-clutters the trace for periodicity detection.
//! * **Neighbor merging** (②b): two consecutive operations whose gap is
//!   negligible — less than 0.1 % of the total execution time *or* less
//!   than 1 % of the duration of the nearby merged operation — also fuse.
//!   This catches slow drift that has already slid operations past the
//!   overlap point.
//!
//! This module is the obviously-correct **reference** implementation over
//! row `Operation`s. The categorizer runs the columnar merge in
//! [`crate::columnar`]; the `columnar-vs-reference` differential oracle and
//! the columnar unit tests check that the two agree bit for bit.

use crate::config::CategorizerConfig;
use mosaic_darshan::ops::Operation;

/// Fuse `b` into `a` (interval hull, byte sum, rank sum).
fn fuse(a: &mut Operation, b: &Operation) {
    a.start = a.start.min(b.start);
    a.end = a.end.max(b.end);
    a.bytes = a.bytes.saturating_add(b.bytes);
    a.ranks = a.ranks.saturating_add(b.ranks);
}

/// Concurrent merging: fuse every group of transitively overlapping
/// operations into a single operation.
///
/// Input need not be sorted; output is sorted by start time.
pub fn merge_concurrent(ops: &[Operation]) -> Vec<Operation> {
    let mut sorted: Vec<Operation> = ops.to_vec();
    sorted.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.end.total_cmp(&b.end)));
    let mut out: Vec<Operation> = Vec::with_capacity(sorted.len());
    for op in sorted {
        match out.last_mut() {
            Some(last) if op.start <= last.end => fuse(last, &op),
            _ => out.push(op),
        }
    }
    out
}

/// Neighbor merging: fuse consecutive operations whose gap is below
/// `max(neighbor_gap_runtime_frac · runtime, neighbor_gap_op_frac ·
/// duration(previous merged op))`.
///
/// Expects concurrent-merged (sorted, non-overlapping) input.
pub fn merge_neighbors(
    ops: &[Operation],
    runtime: f64,
    config: &CategorizerConfig,
) -> Vec<Operation> {
    let runtime_gap = config.neighbor_gap_runtime_frac * runtime.max(0.0);
    let mut out: Vec<Operation> = Vec::with_capacity(ops.len());
    for op in ops {
        match out.last_mut() {
            Some(last) => {
                let gap = op.start - last.end;
                let op_gap = config.neighbor_gap_op_frac * last.duration();
                if gap <= runtime_gap.max(op_gap) {
                    fuse(last, op);
                } else {
                    out.push(*op);
                }
            }
            None => out.push(*op),
        }
    }
    out
}

/// Both passes in order: the full §III-B2 pre-processing for one direction.
pub fn merge_all(ops: &[Operation], runtime: f64, config: &CategorizerConfig) -> Vec<Operation> {
    merge_neighbors(&merge_concurrent(ops), runtime, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_darshan::ops::OpKind;

    fn op(start: f64, end: f64, bytes: u64) -> Operation {
        Operation { kind: OpKind::Write, start, end, bytes, ranks: 1 }
    }

    fn cfg() -> CategorizerConfig {
        CategorizerConfig::default()
    }

    #[test]
    fn overlapping_ops_fuse() {
        let merged = merge_concurrent(&[op(0.0, 2.0, 10), op(1.0, 3.0, 20), op(2.5, 4.0, 5)]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].start, 0.0);
        assert_eq!(merged[0].end, 4.0);
        assert_eq!(merged[0].bytes, 35);
        assert_eq!(merged[0].ranks, 3);
    }

    #[test]
    fn disjoint_ops_stay_separate() {
        let merged = merge_concurrent(&[op(0.0, 1.0, 1), op(5.0, 6.0, 2), op(10.0, 11.0, 3)]);
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn touching_endpoints_fuse() {
        // Closed intervals: start == previous end counts as overlap.
        let merged = merge_concurrent(&[op(0.0, 1.0, 1), op(1.0, 2.0, 1)]);
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let merged = merge_concurrent(&[op(5.0, 6.0, 2), op(0.0, 1.0, 1), op(0.5, 2.0, 4)]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].bytes, 5);
        assert!(merged.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn desynchronized_ranks_collapse_to_one_operation() {
        // 64 ranks each writing [t, t+1.0] with 10 ms stagger: one op.
        let ops: Vec<Operation> =
            (0..64).map(|r| op(10.0 + r as f64 * 0.01, 11.0 + r as f64 * 0.01, 1 << 20)).collect();
        let merged = merge_concurrent(&ops);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].ranks, 64);
        assert_eq!(merged[0].bytes, 64 << 20);
    }

    #[test]
    fn neighbor_merge_uses_runtime_fraction() {
        // runtime 10_000 → gap threshold 10. Ops 3 apart fuse.
        let ops = vec![op(0.0, 1.0, 1), op(4.0, 5.0, 1)];
        let merged = merge_neighbors(&ops, 10_000.0, &cfg());
        assert_eq!(merged.len(), 1);
        // runtime 100 → threshold 0.1: stays split (op threshold 0.01 too).
        let merged = merge_neighbors(&ops, 100.0, &cfg());
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn neighbor_merge_uses_op_duration_fraction() {
        // Long 1000 s op followed by a gap of 8 s: 8 < 1 % of 1000 → fuse,
        // even though the runtime fraction (0.1 % of 2000 = 2) would not.
        let ops = vec![op(0.0, 1000.0, 10), op(1008.0, 1009.0, 1)];
        let merged = merge_neighbors(&ops, 2000.0, &cfg());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].end, 1009.0);
    }

    #[test]
    fn neighbor_merge_cascades_through_drift() {
        // Each op 10 s, gaps 0.05 s — drift chain all fuses (gap < 1 % of
        // growing merged duration).
        let mut ops = Vec::new();
        let mut t = 0.0;
        for _ in 0..10 {
            ops.push(op(t, t + 10.0, 1));
            t += 10.05;
        }
        let merged = merge_neighbors(&ops, 1000.0, &cfg());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].bytes, 10);
    }

    #[test]
    fn periodic_pattern_survives_both_merges() {
        // Checkpoints 100 s apart must NOT merge.
        let ops: Vec<Operation> =
            (0..6).map(|i| op(i as f64 * 100.0, i as f64 * 100.0 + 5.0, 7)).collect();
        let merged = merge_all(&ops, 600.0, &cfg());
        assert_eq!(merged.len(), 6);
    }

    #[test]
    fn empty_input() {
        assert!(merge_concurrent(&[]).is_empty());
        assert!(merge_neighbors(&[], 100.0, &cfg()).is_empty());
        assert!(merge_all(&[], 100.0, &cfg()).is_empty());
    }

    #[test]
    fn byte_and_rank_conservation() {
        let ops: Vec<Operation> =
            (0..50).map(|i| op(i as f64 * 0.8, i as f64 * 0.8 + 1.0, i as u64)).collect();
        let total_bytes: u64 = ops.iter().map(|o| o.bytes).sum();
        let total_ranks: u32 = ops.iter().map(|o| o.ranks).sum();
        let merged = merge_all(&ops, 100.0, &cfg());
        assert_eq!(merged.iter().map(|o| o.bytes).sum::<u64>(), total_bytes);
        assert_eq!(merged.iter().map(|o| o.ranks).sum::<u32>(), total_ranks);
    }
}
