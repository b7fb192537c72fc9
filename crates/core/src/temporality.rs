//! Temporality characterization (§III-B3b).
//!
//! The trace is split into four equal execution-time chunks; each chunk's
//! byte volume is the sum of the bytes of the operations overlapping it
//! (apportioned uniformly over each operation's interval — the trace does
//! not know the distribution inside an operation, which is precisely the
//! failure mode behind the paper's 8 % misclassifications). The chunk sums
//! then decide the label:
//!
//! * total volume below the significance threshold → `insignificant`;
//! * coefficient of variation across chunks < 25 % → `steady`;
//! * one chunk more than twice every other → `on_start` / `after_start` /
//!   `before_end` / `on_end` by position;
//! * the two middle chunks jointly dominant → `after_start_before_end`;
//! * otherwise, the largest chunk's positional label (the "sub-optimal"
//!   fallback the paper's accuracy section describes).

use crate::category::TemporalityLabel;
use crate::config::CategorizerConfig;
use mosaic_darshan::ops::Operation;
use serde::{Deserialize, Serialize};

/// The temporality verdict for one direction, with the evidence kept for
/// reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemporalityResult {
    /// Assigned label.
    pub label: TemporalityLabel,
    /// Byte volume attributed to each chunk.
    pub chunk_bytes: Vec<f64>,
    /// Total bytes of the direction.
    pub total_bytes: u64,
    /// `true` when the label came from the dominance/steady rules, `false`
    /// when it came from the argmax fallback (lower confidence).
    pub confident: bool,
}

/// Apportion operation bytes over `chunks` equal time chunks of
/// `[0, runtime]`.
///
/// The row reference implementation: production runs
/// [`crate::columnar::chunk_volumes_columnar`], and the
/// `columnar-vs-reference` differential oracle checks the two agree.
pub fn chunk_volumes(ops: &[Operation], runtime: f64, chunks: usize) -> Vec<f64> {
    let mut sums = vec![0.0; chunks];
    if runtime <= 0.0 || chunks == 0 {
        return sums;
    }
    let width = runtime / chunks as f64;
    for op in ops {
        if op.bytes == 0 {
            continue;
        }
        // Ops entirely outside the job window carry no in-window bytes;
        // apportioning them would dump phantom volume into an edge chunk.
        if op.start > runtime || op.end < 0.0 {
            continue;
        }
        let s = op.start.max(0.0);
        let e = op.end.min(runtime).max(s);
        if e <= s {
            // Instantaneous operation: all bytes in its containing chunk.
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "f64-to-usize `as` saturates; s >= 0 and min(chunks - 1) clamps above"
            )]
            let c = ((s / width) as usize).min(chunks - 1);
            // `c` is clamped to `chunks - 1`, so the chunk is always present.
            if let Some(sum) = sums.get_mut(c) {
                *sum += op.bytes as f64;
            }
            continue;
        }
        let density = op.bytes as f64 / (e - s);
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

/// Positional label of chunk `i` among `n` chunks (generalizes the paper's
/// four-chunk mapping to other chunk counts for the ablation bench).
fn positional_label(i: usize, n: usize) -> TemporalityLabel {
    if i == 0 {
        TemporalityLabel::OnStart
    } else if i == n - 1 {
        TemporalityLabel::OnEnd
    } else if i <= (n - 1) / 2 {
        TemporalityLabel::AfterStart
    } else {
        TemporalityLabel::BeforeEnd
    }
}

/// Characterize the temporality of one direction from its merged
/// operations, held in columnar (struct-of-arrays) form.
pub fn characterize_columnar(
    cols: &crate::columnar::OpColumns,
    runtime: f64,
    config: &CategorizerConfig,
) -> TemporalityResult {
    let total_bytes: u64 = cols.bytes.iter().sum();
    let chunk_bytes = crate::columnar::chunk_volumes_columnar(cols, runtime, config.chunks);
    characterize_from_chunks(chunk_bytes, total_bytes, config)
}

/// The label decision over the apportioned chunk volumes.
fn characterize_from_chunks(
    chunk_bytes: Vec<f64>,
    total_bytes: u64,
    config: &CategorizerConfig,
) -> TemporalityResult {
    if total_bytes < config.insignificant_bytes {
        return TemporalityResult {
            label: TemporalityLabel::Insignificant,
            chunk_bytes,
            total_bytes,
            confident: true,
        };
    }

    let n = chunk_bytes.len();
    let mean = chunk_bytes.iter().sum::<f64>() / n as f64;
    let var = chunk_bytes.iter().map(|&c| (c - mean).powi(2)).sum::<f64>() / n as f64;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    if cv < config.steady_cv {
        return TemporalityResult {
            label: TemporalityLabel::Steady,
            chunk_bytes,
            total_bytes,
            confident: true,
        };
    }

    // Single dominant chunk: more than `dominance_factor` times every other.
    let dominant = chunk_bytes.iter().enumerate().position(|(i, &bytes)| {
        chunk_bytes
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .all(|(_, &other)| bytes > config.dominance_factor * other)
    });
    if let Some(i) = dominant {
        return TemporalityResult {
            label: positional_label(i, n),
            chunk_bytes,
            total_bytes,
            confident: true,
        };
    }

    // Middle chunks jointly dominant over the edges.
    if let [first, inner @ .., last] = chunk_bytes.as_slice() {
        let middle: f64 = inner.iter().sum();
        if n >= 4 && middle > config.dominance_factor * (first + last) {
            return TemporalityResult {
                label: TemporalityLabel::AfterStartBeforeEnd,
                chunk_bytes,
                total_bytes,
                confident: true,
            };
        }
    }

    // Fallback: positional label of the largest chunk, flagged unconfident.
    let argmax = chunk_bytes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    TemporalityResult {
        label: positional_label(argmax, n),
        chunk_bytes,
        total_bytes,
        confident: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::OpColumns;
    use mosaic_darshan::ops::OpKind;

    const MB: u64 = 1 << 20;

    fn characterize(
        ops: &[Operation],
        runtime: f64,
        config: &CategorizerConfig,
    ) -> TemporalityResult {
        let mut cols = OpColumns::default();
        cols.load_ops(ops);
        characterize_columnar(&cols, runtime, config)
    }

    fn op(start: f64, end: f64, bytes: u64) -> Operation {
        Operation { kind: OpKind::Read, start, end, bytes, ranks: 1 }
    }

    fn cfg() -> CategorizerConfig {
        CategorizerConfig::default()
    }

    /// The dominance and middle-heavy rules as they were written before
    /// the iterator and slice-pattern rewrites; `None` defers to the
    /// argmax fallback, which did not change.
    fn indexed_rule_label(chunk_bytes: &[f64], config: &CategorizerConfig) -> Option<usize> {
        let n = chunk_bytes.len();
        for i in 0..n {
            let dominant = (0..n)
                .filter(|&j| j != i)
                .all(|j| chunk_bytes[i] > config.dominance_factor * chunk_bytes[j]);
            if dominant {
                return Some(i);
            }
        }
        if n >= 4 {
            let middle: f64 = chunk_bytes[1..n - 1].iter().sum();
            let edges = chunk_bytes[0] + chunk_bytes[n - 1];
            if middle > config.dominance_factor * edges {
                return Some(usize::MAX);
            }
        }
        None
    }

    #[test]
    fn dominance_rules_equal_the_indexed_decision() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let config = CategorizerConfig { steady_cv: 0.0, ..cfg() };
        for case in 0..2_000 {
            let n = rng.gen_range(1..9usize);
            let chunk_bytes: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => rng.gen_range(0.0..1.0) * MB as f64,
                    _ => rng.gen_range(0.0..1e3) * MB as f64,
                })
                .collect();
            let got = characterize_from_chunks(chunk_bytes.clone(), u64::MAX, &config);
            let want = match indexed_rule_label(&chunk_bytes, &config) {
                Some(usize::MAX) => Some(TemporalityLabel::AfterStartBeforeEnd),
                Some(i) => Some(positional_label(i, n)),
                None => None,
            };
            match want {
                Some(label) => {
                    assert!(got.confident, "case {case}: {chunk_bytes:?}");
                    assert_eq!(got.label, label, "case {case}: {chunk_bytes:?}");
                }
                None => assert!(!got.confident, "case {case}: {chunk_bytes:?} -> {got:?}"),
            }
        }
    }

    #[test]
    fn chunk_volumes_conserve_in_window_bytes_at_every_chunk_count() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for chunks in 1..=12 {
            let ops: Vec<Operation> = (0..50)
                .map(|_| {
                    let start = rng.gen_range(0.0..100.0);
                    op(
                        start,
                        (start + rng.gen_range(0.0_f64..30.0)).min(100.0),
                        rng.gen_range(0..MB),
                    )
                })
                .collect();
            let want: u64 = ops.iter().map(|o| o.bytes).sum();
            let sums = chunk_volumes(&ops, 100.0, chunks);
            assert_eq!(sums.len(), chunks);
            let got: f64 = sums.iter().sum();
            assert!((got - want as f64).abs() <= 1e-6 * want as f64, "{chunks}: {got} vs {want}");
        }
    }

    #[test]
    fn chunk_apportioning_is_uniform() {
        // One op spanning the whole runtime: equal quarters.
        let sums = chunk_volumes(&[op(0.0, 100.0, 400)], 100.0, 4);
        for s in sums {
            assert!((s - 100.0).abs() < 1e-9);
        }
        // Op covering exactly the second chunk.
        let sums = chunk_volumes(&[op(25.0, 50.0, 100)], 100.0, 4);
        assert!((sums[1] - 100.0).abs() < 1e-9);
        assert!(sums[0].abs() < 1e-9 && sums[2].abs() < 1e-9);
    }

    #[test]
    fn instantaneous_op_lands_in_one_chunk() {
        let sums = chunk_volumes(&[op(99.9, 99.9, 64)], 100.0, 4);
        assert_eq!(sums[3], 64.0);
    }

    #[test]
    fn ops_outside_runtime_are_skipped() {
        // Entirely after job end: previously dumped every byte into the
        // last chunk as a bogus "instantaneous" operation.
        let sums = chunk_volumes(&[op(120.0, 130.0, 100)], 100.0, 4);
        assert!(sums.iter().all(|&s| s == 0.0), "{sums:?}");
        // Entirely before job start.
        let sums = chunk_volumes(&[op(-10.0, -1.0, 100)], 100.0, 4);
        assert!(sums.iter().all(|&s| s == 0.0), "{sums:?}");
        // Straddling the start: clamped into chunk 0, bytes conserved.
        let sums = chunk_volumes(&[op(-5.0, 5.0, 100)], 100.0, 4);
        assert!((sums[0] - 100.0).abs() < 1e-9, "{sums:?}");
    }

    #[test]
    fn insignificant_below_100mb() {
        let r = characterize(&[op(0.0, 1.0, 99 * MB)], 100.0, &cfg());
        assert_eq!(r.label, TemporalityLabel::Insignificant);
        assert!(r.confident);
        let r = characterize(&[op(0.0, 1.0, 101 * MB)], 100.0, &cfg());
        assert_ne!(r.label, TemporalityLabel::Insignificant);
    }

    #[test]
    fn on_start_and_on_end() {
        let r = characterize(&[op(1.0, 10.0, 500 * MB)], 100.0, &cfg());
        assert_eq!(r.label, TemporalityLabel::OnStart);
        let r = characterize(&[op(90.0, 99.0, 500 * MB)], 100.0, &cfg());
        assert_eq!(r.label, TemporalityLabel::OnEnd);
    }

    #[test]
    fn after_start_and_before_end() {
        let r = characterize(&[op(30.0, 45.0, 500 * MB)], 100.0, &cfg());
        assert_eq!(r.label, TemporalityLabel::AfterStart);
        let r = characterize(&[op(55.0, 70.0, 500 * MB)], 100.0, &cfg());
        assert_eq!(r.label, TemporalityLabel::BeforeEnd);
    }

    #[test]
    fn steady_when_even() {
        let ops: Vec<Operation> =
            (0..20).map(|i| op(i as f64 * 5.0, i as f64 * 5.0 + 2.0, 50 * MB)).collect();
        let r = characterize(&ops, 100.0, &cfg());
        assert_eq!(r.label, TemporalityLabel::Steady);
    }

    #[test]
    fn middle_heavy_is_after_start_before_end() {
        let r = characterize(&[op(30.0, 70.0, 900 * MB)], 100.0, &cfg());
        // Spread over chunks 1 and 2 (25–75): middle dominant.
        assert_eq!(r.label, TemporalityLabel::AfterStartBeforeEnd);
    }

    #[test]
    fn fallback_is_flagged_unconfident() {
        // Two equal bursts in first and last chunk: no single dominance, not
        // steady, middle not dominant → argmax fallback.
        let r = characterize(&[op(0.0, 10.0, 300 * MB), op(90.0, 100.0, 299 * MB)], 100.0, &cfg());
        assert!(!r.confident);
        assert_eq!(r.label, TemporalityLabel::OnStart);
    }

    #[test]
    fn dominance_respects_paper_example() {
        // Paper: "if the first chunk contains more than twice the amount of
        // bytes operated in the other segments" → read_on_start.
        let ops = vec![op(0.0, 20.0, 500 * MB), op(30.0, 100.0, 200 * MB)];
        let r = characterize(&ops, 100.0, &cfg());
        assert_eq!(r.label, TemporalityLabel::OnStart);
    }

    #[test]
    fn zero_runtime_and_empty_ops() {
        let r = characterize(&[], 100.0, &cfg());
        assert_eq!(r.label, TemporalityLabel::Insignificant);
        let sums = chunk_volumes(&[op(0.0, 1.0, 10)], 0.0, 4);
        assert!(sums.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn dominance_boundary_is_strict() {
        // Exactly 2x the other chunks is NOT dominant (paper: "more than
        // twice"); just above is.
        let ops = vec![
            op(0.0, 25.0, 400 * MB),
            op(25.0, 50.0, 200 * MB),
            op(50.0, 75.0, 200 * MB),
            op(75.0, 100.0, 200 * MB),
        ];
        let r = characterize(&ops, 100.0, &cfg());
        // Exactly 2x reaches OnStart only through the argmax fallback, so
        // the verdict is flagged low-confidence.
        assert!(!r.confident, "exactly 2x must not satisfy the dominance rule");
        let ops = vec![
            op(0.0, 25.0, 401 * MB),
            op(25.0, 50.0, 200 * MB),
            op(50.0, 75.0, 200 * MB),
            op(75.0, 100.0, 200 * MB),
        ];
        let r = characterize(&ops, 100.0, &cfg());
        assert_eq!(r.label, TemporalityLabel::OnStart);
        assert!(r.confident, "just above 2x satisfies the dominance rule");
    }

    #[test]
    fn steady_cv_boundary() {
        // Four chunks with CV just under/over 25%.
        // values (1, 1, 1, 1+d): mean = 1+d/4, cv grows with d.
        let mk = |d: u64| {
            vec![
                op(0.0, 25.0, 200 * MB),
                op(25.0, 50.0, 200 * MB),
                op(50.0, 75.0, 200 * MB),
                op(75.0, 100.0, (200 + d) * MB),
            ]
        };
        // Small imbalance: steady.
        assert_eq!(characterize(&mk(50), 100.0, &cfg()).label, TemporalityLabel::Steady);
        // Large imbalance: no longer steady.
        assert_ne!(characterize(&mk(400), 100.0, &cfg()).label, TemporalityLabel::Steady);
    }

    #[test]
    fn ops_straddling_chunk_boundaries_apportion_exactly() {
        // One op covering [20, 30): 5/10 of bytes in chunk 0, 5/10 in chunk 1.
        let sums = chunk_volumes(&[op(20.0, 30.0, 100)], 100.0, 4);
        assert!((sums[0] - 50.0).abs() < 1e-9);
        assert!((sums[1] - 50.0).abs() < 1e-9);
        let total: f64 = sums.iter().sum();
        assert!((total - 100.0).abs() < 1e-9, "bytes must be conserved");
    }

    #[test]
    fn generalized_chunk_counts() {
        let config = CategorizerConfig { chunks: 8, ..cfg() };
        let r = characterize(&[op(1.0, 10.0, 500 * MB)], 100.0, &config);
        assert_eq!(r.label, TemporalityLabel::OnStart);
        assert_eq!(r.chunk_bytes.len(), 8);
    }
}
