//! Trace segmentation (§III-B3a, first half).
//!
//! After merging, the trace of one direction is divided into segments: "a
//! segment starts at the beginning of an I/O operation and ends at the
//! beginning of the next one". The last operation's segment extends to the
//! end of the execution. Each segment carries the duration and the volume
//! of data moved by the operation that opens it; the `(duration, volume)`
//! pairs are the features Mean Shift clusters.

use mosaic_darshan::ops::Operation;
use serde::{Deserialize, Serialize};

/// One segment of the per-direction timeline.
///
/// Bytes are integers and times are `f64` seconds, so the type system keeps
/// the two axes apart: a rate needs an explicit conversion,
///
/// ```
/// # use mosaic_core::segment::Segment;
/// let seg = Segment { start: 0.0, duration: 2.0, bytes: 4096, op_duration: 0.5 };
/// assert_eq!(seg.bytes as f64 / seg.duration, 2048.0);
/// ```
///
/// and a sum of bytes and seconds does not compile:
///
/// ```compile_fail,E0277
/// # use mosaic_core::segment::Segment;
/// let seg = Segment { start: 0.0, duration: 2.0, bytes: 4096, op_duration: 0.5 };
/// let _meaningless = seg.bytes + seg.duration;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Start of the opening operation (seconds, relative).
    pub start: f64,
    /// Segment length: distance to the next operation's start (or to the end
    /// of the execution for the last operation).
    pub duration: f64,
    /// Bytes moved by the opening operation.
    pub bytes: u64,
    /// Duration of the opening operation itself (for busy-time analysis).
    pub op_duration: f64,
}

impl Segment {
    /// Fraction of the segment spent doing I/O (clamped to `[0, 1]`).
    pub fn busy_fraction(&self) -> f64 {
        if self.duration <= 0.0 {
            return 1.0;
        }
        (self.op_duration / self.duration).clamp(0.0, 1.0)
    }

    /// Clustering feature: `(log10(1+duration), log10(1+bytes))`. Log space
    /// makes "comparable duration and data size" a multiplicative window,
    /// which is the natural notion across the many orders of magnitude HPC
    /// I/O spans.
    pub fn feature(&self) -> [f64; 2] {
        [(1.0 + self.duration.max(0.0)).log10(), (1.0 + self.bytes as f64).log10()]
    }
}

/// Segment a merged, start-sorted operation list over `[0, runtime]`.
pub fn segment(ops: &[Operation], runtime: f64) -> Vec<Segment> {
    let mut out = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let next_start = ops.get(i + 1).map(|n| n.start).unwrap_or_else(|| runtime.max(op.end));
        out.push(Segment {
            start: op.start,
            duration: (next_start - op.start).max(0.0),
            bytes: op.bytes,
            op_duration: op.duration(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_darshan::ops::OpKind;

    fn op(start: f64, end: f64, bytes: u64) -> Operation {
        Operation { kind: OpKind::Read, start, end, bytes, ranks: 1 }
    }

    #[test]
    fn segments_span_start_to_next_start() {
        let segs = segment(&[op(10.0, 12.0, 5), op(110.0, 113.0, 6), op(210.0, 211.0, 7)], 300.0);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].duration, 100.0);
        assert_eq!(segs[1].duration, 100.0);
        assert_eq!(segs[2].duration, 90.0); // to end of execution
        assert_eq!(segs[0].bytes, 5);
        assert_eq!(segs[2].op_duration, 1.0);
    }

    #[test]
    fn last_segment_never_negative() {
        // Operation ending past the nominal runtime (slack case).
        let segs = segment(&[op(95.0, 105.0, 1)], 100.0);
        assert_eq!(segs[0].duration, 10.0); // extends to op end
    }

    #[test]
    fn busy_fraction() {
        let s = Segment { start: 0.0, duration: 100.0, bytes: 1, op_duration: 10.0 };
        assert!((s.busy_fraction() - 0.1).abs() < 1e-12);
        let s = Segment { start: 0.0, duration: 0.0, bytes: 1, op_duration: 1.0 };
        assert_eq!(s.busy_fraction(), 1.0);
        let s = Segment { start: 0.0, duration: 5.0, bytes: 1, op_duration: 50.0 };
        assert_eq!(s.busy_fraction(), 1.0); // clamped
    }

    #[test]
    fn features_are_log_scaled() {
        let s = Segment { start: 0.0, duration: 99.0, bytes: 999_999, op_duration: 1.0 };
        let f = s.feature();
        assert!((f[0] - 2.0).abs() < 1e-12);
        assert!((f[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn empty_ops_yield_no_segments() {
        assert!(segment(&[], 100.0).is_empty());
    }

    #[test]
    fn equal_periods_give_equal_features() {
        let ops: Vec<Operation> =
            (0..5).map(|i| op(i as f64 * 60.0, i as f64 * 60.0 + 2.0, 1 << 20)).collect();
        let segs = segment(&ops, 300.0);
        let f0 = segs[0].feature();
        for s in &segs {
            let f = s.feature();
            assert!((f[0] - f0[0]).abs() < 1e-9);
            assert!((f[1] - f0[1]).abs() < 1e-9);
        }
    }
}
