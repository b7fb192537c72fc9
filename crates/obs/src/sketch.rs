//! Log-linear quantile sketch with a fixed relative-error guarantee.
//!
//! The PR-1 histograms bucketed durations by `floor(log2(ns))` alone, so a
//! reported p99 was the midpoint of a power-of-two octave — up to ~50% away
//! from the true quantile, and the old wire-fed benchmark's stage
//! percentiles were literally 96/3072/49152 ns. [`QuantileSketch`] splits
//! every octave into [`SUB_BUCKETS`] linear sub-buckets (the top
//! [`SUB_BITS`] mantissa bits after the leading one), which caps the
//! midpoint estimate's relative error at `1/(2·SUB_BUCKETS)` = 3.125% —
//! advertised conservatively as [`RELATIVE_ERROR`] to absorb `u64→f64`
//! rounding at the extremes.
//!
//! Layout (`SUB_BUCKETS = 16`):
//!
//! * values `0..16` get one exact bucket each (sub-bucket width would be
//!   below 1, so the sketch is *exact* there);
//! * a value `v ≥ 16` with exponent `e = floor(log2 v)` lands in sub-bucket
//!   `(v >> (e-4)) & 15` of octave `e`: bucket `[L, L + 2^(e-4))` with
//!   `L = (16 + sub) · 2^(e-4)`. Since `L ≥ 16·2^(e-4)`, the half-width
//!   midpoint error is at most `L/32`.
//!
//! Total buckets: `16 + 60·16 = 976`, one relaxed [`Counter`] each — 7.6 KiB
//! per sketch, wait-free concurrent recording like every registry handle, and
//! mergeable across workers by bucket-wise addition (merging two sketches is
//! byte-equivalent to feeding both sample streams into one).

use crate::Counter;

/// Linear sub-buckets per power-of-two octave (`2^SUB_BITS`).
pub const SUB_BUCKETS: usize = 16;

/// Mantissa bits kept after the leading one.
pub const SUB_BITS: u32 = 4;

/// Total bucket count: 16 exact small-value buckets plus 16 sub-buckets for
/// each of the 60 octaves `[2^4, 2^64)`.
pub const N_SKETCH_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// The advertised worst-case relative error of any quantile estimate.
/// Structurally the midpoint bound is `1/(2·SUB_BUCKETS)` = 3.125%; the
/// extra margin covers `u64 → f64` conversion at the top octaves. The
/// sketch proptests pin estimates inside this band.
pub const RELATIVE_ERROR: f64 = 0.045;

/// Bucket index of a sample. Exact for `v < 16`; log-linear above.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // e >= SUB_BITS
        let sub = ((v >> (e - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        SUB_BUCKETS + (e - SUB_BITS) as usize * SUB_BUCKETS + sub
    }
}

/// Midpoint estimate of bucket `i` — the value every sample in the bucket
/// is reported as. Computed in `f64` because the top bucket's upper edge
/// (`2^64`) does not fit a `u64`.
fn bucket_midpoint(i: usize) -> f64 {
    if i < SUB_BUCKETS {
        i as f64
    } else {
        let e = SUB_BITS + ((i - SUB_BUCKETS) / SUB_BUCKETS) as u32;
        let sub = ((i - SUB_BUCKETS) % SUB_BUCKETS) as f64;
        let width = (e - SUB_BITS) as i32; // log2 of the sub-bucket width
        let scale = f64::powi(2.0, width);
        (SUB_BUCKETS as f64 + sub + 0.5) * scale
    }
}

/// A lock-free, mergeable log-linear histogram with ≤ [`RELATIVE_ERROR`]
/// relative error on every quantile. Recording is one relaxed `fetch_add`;
/// reading takes a bucket-wise snapshot first so multiple quantiles come
/// from one consistent view.
///
/// ```
/// use mosaic_obs::{QuantileSketch, RELATIVE_ERROR};
///
/// let sketch = QuantileSketch::new();
/// for v in 1..=1_000u64 {
///     sketch.record(v);
/// }
/// let p50 = sketch.quantile(0.5);
/// assert!((p50 - 500.0).abs() <= 500.0 * RELATIVE_ERROR, "{p50}");
/// ```
#[derive(Debug)]
pub struct QuantileSketch {
    counts: Box<[Counter]>,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// A fresh, empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch { counts: (0..N_SKETCH_BUCKETS).map(|_| Counter::new()).collect() }
    }

    /// Record one sample. Wait-free: a single relaxed `fetch_add`.
    /// `bucket_index` maps every `u64` below [`N_SKETCH_BUCKETS`], so the
    /// checked lookup always hits; it keeps the record path panic-free.
    pub fn record(&self, v: u64) {
        if let Some(bucket) = self.counts.get(bucket_index(v)) {
            bucket.inc();
        }
    }

    /// Fold another sketch's counts into this one (bucket-wise addition).
    /// `a.merge_from(&b)` leaves `a` indistinguishable from a sketch fed
    /// both sample streams — the property the merge proptest pins.
    pub fn merge_from(&self, other: &QuantileSketch) {
        for (mine, theirs) in self.counts.iter().zip(other.counts.iter()) {
            let n = theirs.get();
            if n > 0 {
                mine.add(n);
            }
        }
    }

    /// Samples recorded so far (sums all buckets — prefer keeping a
    /// dedicated counter on hot read paths).
    pub fn count(&self) -> u64 {
        self.counts.iter().map(Counter::get).sum()
    }

    /// Consistent bucket-wise snapshot for quantile queries.
    pub fn snapshot(&self) -> SketchSnapshot {
        SketchSnapshot { counts: self.counts.iter().map(Counter::get).collect() }
    }

    /// One-off quantile query (snapshots internally).
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }
}

/// An immutable bucket-count view of a [`QuantileSketch`], from which any
/// number of quantiles can be read consistently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchSnapshot {
    counts: Vec<u64>,
}

impl SketchSnapshot {
    /// Total samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile estimate (`0.0 ..= 1.0`): the midpoint of the
    /// bucket holding the sample of rank `ceil(q·n)` (clamped to `1..=n`),
    /// which is within [`RELATIVE_ERROR`] of the true order statistic.
    /// Returns `0.0` for an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_midpoint(i);
            }
        }
        bucket_midpoint(N_SKETCH_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let s = QuantileSketch::new();
        for v in 0..16u64 {
            s.record(v);
        }
        let snap = s.snapshot();
        // Rank i+1 is exactly the value i.
        for v in 0..16u64 {
            let q = (v + 1) as f64 / 16.0;
            assert_eq!(snap.quantile(q), v as f64, "q={q}");
        }
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        // 16 = 2^4, first log-linear bucket.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(17), 17);
        assert_eq!(bucket_index(31), 31);
        // 32 = 2^5: second octave starts, sub-bucket width 2.
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32);
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_index(u64::MAX), N_SKETCH_BUCKETS - 1);
    }

    #[test]
    fn midpoints_sit_inside_their_buckets() {
        for i in 0..N_SKETCH_BUCKETS {
            let m = bucket_midpoint(i);
            assert!(m.is_finite());
            if i > 0 {
                assert!(m > bucket_midpoint(i - 1), "midpoints must be strictly increasing");
            }
        }
        // Spot-check: 2^10 lands in sub-bucket 0 of octave 10, bucket
        // [1024, 1088), midpoint 1056.
        assert_eq!(bucket_midpoint(bucket_index(1024)), 1056.0);
    }

    #[test]
    fn relative_error_bound_holds_at_octave_edges() {
        // Exact powers of two are the worst case of the old log2 scheme
        // (50% midpoint error); the sketch must stay within the band.
        for e in [4u32, 10, 17, 25, 40, 63] {
            let v = 1u64 << e;
            let s = QuantileSketch::new();
            for _ in 0..10 {
                s.record(v);
            }
            let est = s.quantile(0.99);
            let err = (est - v as f64).abs() / v as f64;
            assert!(err <= RELATIVE_ERROR, "2^{e}: est {est}, err {err}");
        }
    }

    #[test]
    fn extreme_values_stay_in_band() {
        for v in [0u64, 1, 2, 15, 16, 17, u64::MAX - 1, u64::MAX] {
            let s = QuantileSketch::new();
            s.record(v);
            let est = s.quantile(0.5);
            if v < 16 {
                assert_eq!(est, v as f64, "small values are exact");
            } else {
                let err = (est - v as f64).abs() / v as f64;
                assert!(err <= RELATIVE_ERROR, "v={v}: est {est}, err {err}");
            }
        }
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let s = QuantileSketch::new();
        for i in 0..1000u64 {
            s.record(i * 37 + 5);
        }
        let snap = s.snapshot();
        let mut prev = 0.0;
        for step in 1..=20 {
            let q = step as f64 / 20.0;
            let est = snap.quantile(q);
            assert!(est >= prev, "quantiles must be monotone: q={q}, {est} < {prev}");
            prev = est;
        }
    }

    #[test]
    fn merge_equals_feeding_both_streams() {
        let a = QuantileSketch::new();
        let b = QuantileSketch::new();
        let both = QuantileSketch::new();
        for v in [0u64, 3, 16, 999, 1 << 30, u64::MAX] {
            a.record(v);
            both.record(v);
        }
        for v in [7u64, 16, 4096, u64::MAX] {
            b.record(v);
            both.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), both.snapshot());
        assert_eq!(a.count(), 10);
    }

    #[test]
    fn empty_sketch_quantile_is_zero() {
        assert_eq!(QuantileSketch::new().quantile(0.5), 0.0);
        assert_eq!(QuantileSketch::new().count(), 0);
    }

    #[test]
    fn merging_while_another_thread_records_loses_nothing() {
        let (into, from) = (QuantileSketch::new(), QuantileSketch::new());
        for v in 0..1000u64 {
            from.record(v * 7);
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for v in 0..1000u64 {
                    into.record(v * 7);
                }
            });
            scope.spawn(|| into.merge_from(&from));
        });
        assert_eq!(into.count(), 2000);
        // Both streams were identical, so every bucket holds twice `from`'s.
        let (merged, single) = (into.snapshot(), from.snapshot());
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(merged.quantile(q), single.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let s = QuantileSketch::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        s.record(t * 1_000_000 + i);
                    }
                });
            }
        });
        assert_eq!(s.count(), 4000);
    }
}
