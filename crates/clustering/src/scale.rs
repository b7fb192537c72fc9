//! Feature scaling for clustering inputs.
//!
//! MOSAIC clusters `(segment duration, operation volume)` pairs. The two
//! axes live on wildly different scales (seconds vs bytes) and both span
//! orders of magnitude, so the categorizer log-transforms and normalizes
//! before hand-tuning a bandwidth. The ablation benches compare these
//! policies.

use serde::{Deserialize, Serialize};

/// Per-axis scaling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ScaleKind {
    /// `log10(1 + x)` — compresses orders of magnitude; MOSAIC's default for
    /// durations and volumes.
    #[default]
    Log,
    /// Min-max to `[0, 1]`.
    MinMax,
    /// Z-score (zero mean, unit variance; degenerate axes map to 0).
    ZScore,
    /// Leave the axis untouched.
    Identity,
}

/// Fitted scaling parameters for `D`-dimensional points.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler<const D: usize> {
    kinds: [ScaleKind; D],
    // For MinMax: (min, max); for ZScore: (mean, std). Unused otherwise.
    fitted: [(f64, f64); D],
}

impl<const D: usize> Scaler<D> {
    /// Fit a scaler applying `kinds[d]` to axis `d`.
    #[expect(clippy::indexing_slicing, reason = "d < D indexes [_; D] arrays")]
    pub fn fit(points: &[[f64; D]], kinds: [ScaleKind; D]) -> Self {
        let mut fitted = [(0.0, 0.0); D];
        for d in 0..D {
            match kinds[d] {
                ScaleKind::MinMax => {
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for p in points {
                        lo = lo.min(p[d]);
                        hi = hi.max(p[d]);
                    }
                    if points.is_empty() {
                        lo = 0.0;
                        hi = 1.0;
                    }
                    fitted[d] = (lo, hi);
                }
                ScaleKind::ZScore => {
                    let n = points.len().max(1) as f64;
                    let mean = points.iter().map(|p| p[d]).sum::<f64>() / n;
                    let var = points.iter().map(|p| (p[d] - mean).powi(2)).sum::<f64>() / n;
                    fitted[d] = (mean, var.sqrt());
                }
                ScaleKind::Log | ScaleKind::Identity => {}
            }
        }
        Scaler { kinds, fitted }
    }

    /// Transform one point.
    pub fn transform(&self, p: &[f64; D]) -> [f64; D] {
        let mut out = [0.0; D];
        let axes = self.kinds.iter().zip(&self.fitted).zip(p);
        for (o, ((kind, &fitted), &x)) in out.iter_mut().zip(axes) {
            *o = match kind {
                ScaleKind::Log => (1.0 + x.max(0.0)).log10(),
                ScaleKind::MinMax => {
                    let (lo, hi) = fitted;
                    if hi > lo {
                        (x - lo) / (hi - lo)
                    } else {
                        0.0
                    }
                }
                ScaleKind::ZScore => {
                    let (mean, std) = fitted;
                    if std > 0.0 {
                        (x - mean) / std
                    } else {
                        0.0
                    }
                }
                ScaleKind::Identity => x,
            };
        }
        out
    }

    /// Transform a whole slice.
    pub fn transform_all(&self, points: &[[f64; D]]) -> Vec<[f64; D]> {
        points.iter().map(|p| self.transform(p)).collect()
    }
}

/// Convenience: fit-and-transform with the same policy on every axis.
pub fn scale_uniform<const D: usize>(points: &[[f64; D]], kind: ScaleKind) -> Vec<[f64; D]> {
    Scaler::fit(points, [kind; D]).transform_all(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `transform` as it was written before the zipped rewrite.
    fn indexed_transform<const D: usize>(s: &Scaler<D>, p: &[f64; D]) -> [f64; D] {
        let mut out = [0.0; D];
        for d in 0..D {
            out[d] = match s.kinds[d] {
                ScaleKind::Log => (1.0 + p[d].max(0.0)).log10(),
                ScaleKind::MinMax => {
                    let (lo, hi) = s.fitted[d];
                    if hi > lo {
                        (p[d] - lo) / (hi - lo)
                    } else {
                        0.0
                    }
                }
                ScaleKind::ZScore => {
                    let (mean, std) = s.fitted[d];
                    if std > 0.0 {
                        (p[d] - mean) / std
                    } else {
                        0.0
                    }
                }
                ScaleKind::Identity => p[d],
            };
        }
        out
    }

    const KINDS: [ScaleKind; 4] =
        [ScaleKind::Log, ScaleKind::MinMax, ScaleKind::ZScore, ScaleKind::Identity];

    #[test]
    fn transform_equals_the_indexed_reference_for_every_kind_mix() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for case in 0..256 {
            let kinds: [ScaleKind; 4] = std::array::from_fn(|d| KINDS[(case >> (2 * d)) % 4]);
            let n = rng.gen_range(0..20usize);
            let points: Vec<[f64; 4]> =
                (0..n).map(|_| std::array::from_fn(|_| rng.gen_range(-1e3..1e3))).collect();
            let s = Scaler::fit(&points, kinds);
            for p in points.iter().chain([&[5.0, -5.0, 0.0, 1e9]]) {
                let got = s.transform(p).map(f64::to_bits);
                assert_eq!(got, indexed_transform(&s, p).map(f64::to_bits), "{kinds:?} {p:?}");
            }
        }
    }

    #[test]
    fn each_axis_is_fitted_and_transformed_on_its_own() {
        let a = [[1.0, 100.0], [3.0, 300.0], [2.0, 200.0]];
        let b = [[1.0, -7.0], [3.0, 0.5], [2.0, 40.0]];
        let kinds = [ScaleKind::ZScore, ScaleKind::MinMax];
        let (sa, sb) = (Scaler::fit(&a, kinds), Scaler::fit(&b, kinds));
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(sa.transform(p)[0], sb.transform(q)[0]);
        }
        assert_eq!(sa.transform(&[2.0, 250.0]), [0.0, 0.75]);
    }

    #[test]
    fn log_compresses_magnitudes() {
        let pts = vec![[0.0], [9.0], [999.0], [999_999.0]];
        let out = scale_uniform(&pts, ScaleKind::Log);
        assert_eq!(out[0][0], 0.0);
        assert!((out[1][0] - 1.0).abs() < 1e-12);
        assert!((out[2][0] - 3.0).abs() < 1e-12);
        assert!((out[3][0] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn log_clamps_negatives() {
        let out = scale_uniform(&[[-5.0]], ScaleKind::Log);
        assert_eq!(out[0][0], 0.0);
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let pts = vec![[10.0, -1.0], [20.0, 1.0], [15.0, 0.0]];
        let s = Scaler::fit(&pts, [ScaleKind::MinMax; 2]);
        let out = s.transform_all(&pts);
        assert_eq!(out[0], [0.0, 0.0]);
        assert_eq!(out[1], [1.0, 1.0]);
        assert_eq!(out[2], [0.5, 0.5]);
    }

    #[test]
    fn minmax_degenerate_axis_maps_to_zero() {
        let pts = vec![[5.0], [5.0]];
        let out = scale_uniform(&pts, ScaleKind::MinMax);
        assert!(out.iter().all(|p| p[0] == 0.0));
    }

    #[test]
    fn zscore_standardizes() {
        let pts = vec![[2.0], [4.0], [4.0], [4.0], [5.0], [5.0], [7.0], [9.0]];
        let out = scale_uniform(&pts, ScaleKind::ZScore);
        let mean: f64 = out.iter().map(|p| p[0]).sum::<f64>() / out.len() as f64;
        let var: f64 = out.iter().map(|p| (p[0] - mean).powi(2)).sum::<f64>() / out.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_axes() {
        let pts = vec![[1.0, 100.0], [10.0, 200.0]];
        let s = Scaler::fit(&pts, [ScaleKind::Identity, ScaleKind::MinMax]);
        let out = s.transform_all(&pts);
        assert_eq!(out[0], [1.0, 0.0]);
        assert_eq!(out[1], [10.0, 1.0]);
    }

    #[test]
    fn empty_input_is_fine() {
        let pts: Vec<[f64; 2]> = Vec::new();
        for kind in [ScaleKind::Log, ScaleKind::MinMax, ScaleKind::ZScore, ScaleKind::Identity] {
            assert!(scale_uniform(&pts, kind).is_empty());
        }
    }
}
