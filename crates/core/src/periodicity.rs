//! Periodic-operation detection (§III-B3a, second half).
//!
//! Mean Shift groups segments whose opening operations "share comparable
//! duration and data size"; every group with more than one member is a
//! periodic operation candidate. Several groups — hence several interleaved
//! periodic operations — can be detected in one trace, which is exactly
//! where plain DFT peak-picking struggles.
//!
//! Two refinements over the paper's one-paragraph description, both needed
//! to make the multi-behaviour claim actually hold:
//!
//! * the clustering features are the **operation** duration and volume
//!   (log-scaled). When two periodic behaviours interleave, the *segment*
//!   length (start → next start of *any* operation) of the sparser
//!   behaviour is clipped by the denser one and no longer reflects its
//!   period — but its operations themselves stay self-similar;
//! * the **period** of a group is a robust estimate of the inter-arrival
//!   time of its member operations: gaps near a small integer multiple of
//!   the median gap are folded back onto the base (Mean Shift sometimes
//!   scatters a behaviour across clusters, leaving missed-occurrence
//!   holes), then the mean of the folded gaps is taken. A group is only
//!   accepted as periodic when the folded inter-arrivals are *regular*
//!   (coefficient of variation below a threshold) — merely looking alike
//!   is not periodicity.

use crate::category::PeriodMagnitude;
use crate::config::CategorizerConfig;
use crate::segment::Segment;
use mosaic_clustering::meanshift::MeanShift;
use serde::{Deserialize, Serialize};

/// One detected periodic operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodicPattern {
    /// Number of occurrences (cluster size).
    pub occurrences: usize,
    /// Period in seconds: mean inter-arrival of member operations after
    /// folding missed-occurrence gaps back onto the base cadence.
    pub period: f64,
    /// Order of magnitude of the period.
    pub magnitude: PeriodMagnitude,
    /// Mean bytes moved per occurrence.
    pub mean_bytes: f64,
    /// Mean fraction of the period spent doing I/O.
    pub busy_fraction: f64,
    /// Regularity of the inter-arrivals (coefficient of variation; 0 =
    /// perfectly regular).
    pub regularity_cv: f64,
    /// Indices (into the segment list) of the member segments.
    pub members: Vec<usize>,
}

impl PeriodicPattern {
    /// `true` when the pattern spends less than `split` of each period doing
    /// I/O (the paper observes 96 % of periodic writes below 25 %).
    pub fn is_low_busy(&self, split: f64) -> bool {
        self.busy_fraction < split
    }
}

/// Clustering feature of one segment's opening operation:
/// `(log10(1 + op duration), log10(1 + volume))`. Public so conformance
/// checks can fit exactly the points [`detect_periodic`] fits.
pub fn op_feature(s: &Segment) -> [f64; 2] {
    [(1.0 + s.op_duration.max(0.0)).log10(), (1.0 + s.bytes as f64).log10()]
}

/// Largest integer multiple of the base period a gap may be folded down
/// from (i.e. up to two consecutive missed occurrences are tolerated).
const MAX_FOLD_FACTOR: f64 = 3.0;

/// Relative tolerance for treating a gap as an integer multiple of the
/// base period.
const FOLD_TOL: f64 = 0.2;

/// The segments at `members`, indices a detector built from
/// `0..segments.len()`.
#[expect(clippy::indexing_slicing, reason = "members are indices into segments")]
pub(crate) fn member_segments<'a>(
    segments: &'a [Segment],
    members: &'a [usize],
) -> impl Iterator<Item = &'a Segment> + Clone + 'a {
    members.iter().map(move |&i| &segments[i])
}

/// Median of `gaps`, reordering them: the middle element by
/// [`f64::total_cmp`], or the mean of the middle two. A selection puts the
/// order statistics in place without sorting the rest, and `total_cmp` is a
/// total order in which equal values have equal bits, so they are the bits
/// a full sort would put there. `None` for an empty list.
fn median(gaps: &mut [f64]) -> Option<f64> {
    if gaps.is_empty() {
        return None;
    }
    let mid = gaps.len() / 2;
    let odd = gaps.len() % 2 == 1;
    let (lower, &mut upper, _) = gaps.select_nth_unstable_by(mid, f64::total_cmp);
    if odd {
        return Some(upper);
    }
    // The lower partition holds the `mid` smallest gaps, so its maximum is
    // the element a sort would put just below the middle.
    lower.iter().copied().max_by(f64::total_cmp).map(|below| 0.5 * (below + upper))
}

/// Detect periodic operations among `segments` (which must be sorted by
/// start time, as [`crate::segment::segment`] produces them).
///
/// Returns patterns sorted by descending occurrence count.
pub fn detect_periodic(segments: &[Segment], config: &CategorizerConfig) -> Vec<PeriodicPattern> {
    if segments.len() < config.min_periodic_occurrences {
        return Vec::new();
    }
    let features: Vec<[f64; 2]> = segments.iter().map(op_feature).collect();
    let clustering = MeanShift::new(config.meanshift_bandwidth).fit(&features);

    let mut patterns = Vec::new();
    for (_, mut members) in clustering.clusters() {
        if members.len() < config.min_periodic_occurrences {
            continue;
        }
        members.sort_unstable();
        let starts = member_segments(segments, &members).map(|s| s.start);
        let gaps: Vec<f64> = starts.clone().zip(starts.skip(1)).map(|(a, b)| b - a).collect();
        debug_assert!(!gaps.is_empty());
        // Base-period estimate: the median gap. Mean Shift occasionally
        // scatters a behaviour's occurrences across clusters (jitter pushes
        // an op's duration over the bandwidth), which leaves double- or
        // triple-period holes in each cluster's arrival stream; a plain
        // mean inter-arrival then overshoots the true cadence.
        let Some(base) = median(&mut gaps.clone()) else { continue };
        if base <= 0.0 {
            continue;
        }
        // Harmonic folding: a gap sitting near a small integer multiple of
        // the base is a missed occurrence, not a different cadence — fold
        // it back onto the base. The fold factor is capped so genuinely
        // irregular streams cannot be folded into false regularity.
        let folded: Vec<f64> = gaps
            .iter()
            .map(|&g| {
                let k = (g / base).round();
                if (2.0..=MAX_FOLD_FACTOR).contains(&k) && (g / k - base).abs() <= FOLD_TOL * base {
                    g / k
                } else {
                    g
                }
            })
            .collect();
        let period = folded.iter().sum::<f64>() / folded.len() as f64;
        if period <= 0.0 {
            continue;
        }
        // Regularity gate: similar-looking operations at irregular times
        // are repetition, not periodicity.
        let var = folded.iter().map(|g| (g - period).powi(2)).sum::<f64>() / folded.len() as f64;
        let regularity_cv = var.sqrt() / period;
        if regularity_cv > config.periodic_regularity_cv {
            continue;
        }
        let n = members.len() as f64;
        let members_of = || member_segments(segments, &members);
        let mean_bytes = members_of().map(|s| s.bytes as f64).sum::<f64>() / n;
        let busy_fraction =
            (members_of().map(|s| s.op_duration).sum::<f64>() / n / period).clamp(0.0, 1.0);
        patterns.push(PeriodicPattern {
            occurrences: members.len(),
            period,
            magnitude: PeriodMagnitude::of(period),
            mean_bytes,
            busy_fraction,
            regularity_cv,
            members,
        });
    }
    patterns.sort_by(|a, b| b.occurrences.cmp(&a.occurrences).then(a.period.total_cmp(&b.period)));
    patterns
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Build a regular train of operations: `count` segments starting at
    /// multiples of `period`, each `op_duration` long with `bytes` volume.
    fn train(period: f64, count: usize, bytes: u64, op_duration: f64) -> Vec<Segment> {
        (0..count)
            .map(|i| Segment {
                start: period * (i as f64 + 0.3),
                duration: period,
                bytes,
                op_duration,
            })
            .collect()
    }

    fn by_start(mut segs: Vec<Segment>) -> Vec<Segment> {
        segs.sort_by(|a, b| a.start.total_cmp(&b.start));
        segs
    }

    fn cfg() -> CategorizerConfig {
        CategorizerConfig::default()
    }

    /// Two or three jittered trains with random cadences, volumes and
    /// durations, interleaved and sorted by start.
    pub(crate) fn jittered_trains(seed: u64) -> Vec<Segment> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut segments = Vec::new();
        for _ in 0..rng.gen_range(2..=3) {
            let period: f64 = rng.gen_range(10.0..600.0);
            let bytes = rng.gen_range(1u64 << 20..4 << 30);
            let op_duration = rng.gen_range(0.1..0.3 * period);
            for i in 0..rng.gen_range(3..40) {
                let jitter: f64 = rng.gen_range(-0.05..0.05) * period;
                segments.push(Segment {
                    start: (period * (i as f64 + 0.5) + jitter).max(0.0),
                    duration: period,
                    bytes: bytes + rng.gen_range(0u64..1 << 20),
                    op_duration: op_duration * rng.gen_range(0.9..1.1),
                });
            }
        }
        by_start(segments)
    }

    /// Each pattern's mean volume and busy fraction, recomputed by
    /// indexing `segments` with the pattern's members, as the detectors
    /// did before `member_segments`.
    pub(crate) fn assert_member_statistics(segments: &[Segment], patterns: &[PeriodicPattern]) {
        for p in patterns {
            let n = p.members.len() as f64;
            let mean_bytes = p.members.iter().map(|&i| segments[i].bytes as f64).sum::<f64>() / n;
            let busy =
                (p.members.iter().map(|&i| segments[i].op_duration).sum::<f64>() / n / p.period)
                    .clamp(0.0, 1.0);
            assert_eq!(p.occurrences, p.members.len());
            assert_eq!(p.mean_bytes.to_bits(), mean_bytes.to_bits(), "{p:?}");
            assert_eq!(p.busy_fraction.to_bits(), busy.to_bits(), "{p:?}");
        }
    }

    #[test]
    fn member_segments_follow_the_member_order() {
        let segments = train(10.0, 6, 100, 1.0);
        let picked: Vec<f64> = member_segments(&segments, &[4, 0, 4, 2]).map(|s| s.start).collect();
        assert_eq!(
            picked,
            [segments[4].start, segments[0].start, segments[4].start, segments[2].start]
        );
        assert_eq!(member_segments(&segments, &[]).count(), 0);
    }

    /// The median by a full sort: the reference [`median`] must match.
    fn median_of_sorted(sorted: &[f64]) -> f64 {
        let mid = sorted.len() / 2;
        if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            0.5 * (sorted[mid - 1] + sorted[mid])
        }
    }

    #[test]
    fn median_by_selection_equals_the_sorted_median_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(26);
        // Repeats, both zeros and a wide spread of magnitudes, at odd and
        // even lengths.
        let pool = [0.0, -0.0, 1.0, 1.0 + f64::EPSILON, 2.5, 10.0, 1e-300, 7e12, -3.0];
        for len in 1..=40 {
            for _ in 0..50 {
                let gaps: Vec<f64> = (0..len)
                    .map(|_| match rng.gen_range(0..3) {
                        0 => pool[rng.gen_range(0..pool.len())],
                        1 => rng.gen_range(-1.0..100.0),
                        _ => rng.gen_range(0..4) as f64 * 0.5,
                    })
                    .collect();
                let mut sorted = gaps.clone();
                sorted.sort_by(f64::total_cmp);
                let expected = median_of_sorted(&sorted).to_bits();
                let got = median(&mut gaps.clone()).map(f64::to_bits);
                assert_eq!(got, Some(expected), "{gaps:?}");
            }
        }
        assert_eq!(median(&mut []), None);
        // Both middle elements are zeros of opposite sign: the sum's sign
        // depends on which is taken, so the selection must take the sorted
        // pair.
        for gaps in [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]] {
            let mut sorted = gaps;
            sorted.sort_by(f64::total_cmp);
            assert_eq!(
                median(&mut gaps.clone()).map(f64::to_bits),
                Some(median_of_sorted(&sorted).to_bits())
            );
        }
    }

    #[test]
    fn median_of_sorted_takes_the_middle_or_the_mean_of_the_middle_two() {
        assert_eq!(median_of_sorted(&[7.0]), 7.0);
        assert_eq!(median_of_sorted(&[1.0, 4.0]), 2.5);
        assert_eq!(median_of_sorted(&[1.0, 2.0, 90.0]), 2.0);
        assert_eq!(median_of_sorted(&[1.0, 2.0, 6.0, 90.0]), 4.0);
    }

    #[test]
    fn pattern_statistics_equal_the_indexed_members() {
        let mut found = 0;
        for seed in 0..60 {
            let segments = jittered_trains(seed);
            let patterns = detect_periodic(&segments, &cfg());
            found += patterns.len();
            assert_member_statistics(&segments, &patterns);
        }
        assert!(found >= 60, "only {found} patterns over 60 inputs");
    }

    #[test]
    fn a_clean_train_period_is_the_mean_of_its_consecutive_gaps() {
        let segments = by_start(
            [0.0, 50.0, 100.5, 149.5, 200.0, 250.25]
                .iter()
                .map(|&start| Segment { start, duration: 50.0, bytes: 1 << 30, op_duration: 2.0 })
                .collect(),
        );
        let patterns = detect_periodic(&segments, &cfg());
        assert_eq!(patterns.len(), 1, "{patterns:?}");
        let gaps: Vec<f64> = segments.windows(2).map(|w| w[1].start - w[0].start).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert_eq!(patterns[0].period.to_bits(), mean.to_bits());
    }

    #[test]
    fn uniform_checkpoints_form_one_pattern() {
        let segments = train(120.0, 8, 256 << 20, 10.0);
        let patterns = detect_periodic(&segments, &cfg());
        assert_eq!(patterns.len(), 1);
        let p = &patterns[0];
        assert_eq!(p.occurrences, 8);
        assert!((p.period - 120.0).abs() < 1.0);
        assert_eq!(p.magnitude, PeriodMagnitude::Minute);
        assert!(p.is_low_busy(0.25));
        assert!(p.regularity_cv < 0.01);
    }

    #[test]
    fn two_interleaved_periodic_behaviors_are_separated() {
        // The paper's key scenario: checkpoint writes (10-min period,
        // 2 GiB, 24 s ops) interleaved with frequent small writes (20-s
        // period, 150 MiB, 2 s ops).
        let mut segments = train(600.0, 12, 2 << 30, 24.0);
        segments.extend(train(20.0, 340, 150 << 20, 2.0));
        let segments = by_start(segments);
        let patterns = detect_periodic(&segments, &cfg());
        assert_eq!(patterns.len(), 2, "{patterns:?}");
        assert!((patterns[0].period - 20.0).abs() < 2.0, "{patterns:?}");
        assert_eq!(patterns[0].magnitude, PeriodMagnitude::Second);
        assert!((patterns[1].period - 600.0).abs() < 20.0, "{patterns:?}");
        assert_eq!(patterns[1].magnitude, PeriodMagnitude::Minute);
    }

    #[test]
    fn jittered_periods_still_cluster() {
        // ±10 % jitter on op duration and volume stays within the log-space
        // bandwidth; inter-arrival jitter stays under the regularity gate.
        let segments: Vec<Segment> = (0..10)
            .map(|i| {
                let j = 1.0 + 0.1 * ((i % 3) as f64 - 1.0);
                Segment {
                    start: 300.0 * i as f64 + 10.0 * ((i % 3) as f64 - 1.0),
                    duration: 300.0,
                    bytes: ((64u64 << 20) as f64 * j) as u64,
                    op_duration: 5.0 * j,
                }
            })
            .collect();
        let patterns = detect_periodic(&segments, &cfg());
        assert_eq!(patterns.len(), 1);
        assert_eq!(patterns[0].occurrences, 10);
        assert!((patterns[0].period - 300.0).abs() < 10.0);
    }

    #[test]
    fn similar_but_irregular_ops_are_not_periodic() {
        // Identical ops at wildly irregular times: repetition without
        // periodicity — the regularity gate must reject them.
        let starts = [0.0, 11.0, 300.0, 304.0, 2100.0, 2111.0];
        let segments: Vec<Segment> = starts
            .iter()
            .map(|&s| Segment { start: s, duration: 10.0, bytes: 1 << 30, op_duration: 3.0 })
            .collect();
        assert!(detect_periodic(&segments, &cfg()).is_empty());
    }

    #[test]
    fn one_off_operations_are_not_periodic() {
        let segments = vec![
            Segment { start: 10.0, duration: 10.0, bytes: 1 << 30, op_duration: 5.0 },
            Segment { start: 4000.0, duration: 5000.0, bytes: 100, op_duration: 1.0 },
            Segment { start: 9000.0, duration: 0.5, bytes: 5 << 20, op_duration: 0.5 },
        ];
        assert!(detect_periodic(&segments, &cfg()).is_empty());
    }

    #[test]
    fn too_few_segments_short_circuit() {
        assert!(detect_periodic(&[], &cfg()).is_empty());
        let one = train(60.0, 1, 100, 1.0);
        assert!(detect_periodic(&one, &cfg()).is_empty());
    }

    #[test]
    fn magnitude_labels_span_buckets() {
        for (period, magnitude) in [
            (30.0, PeriodMagnitude::Second),
            (600.0, PeriodMagnitude::Minute),
            (7200.0, PeriodMagnitude::Hour),
            (172_800.0, PeriodMagnitude::DayOrMore),
        ] {
            let segments = train(period, 4, 1 << 20, 1.0);
            let patterns = detect_periodic(&segments, &cfg());
            assert_eq!(patterns[0].magnitude, magnitude, "period {period}");
        }
    }

    #[test]
    fn high_busy_pattern_detected() {
        let segments = train(100.0, 5, 1 << 20, 60.0);
        let patterns = detect_periodic(&segments, &cfg());
        assert!(!patterns[0].is_low_busy(0.25));
        assert!((patterns[0].busy_fraction - 0.6).abs() < 1e-9);
    }

    #[test]
    fn min_occurrence_threshold_respected() {
        let config = CategorizerConfig { min_periodic_occurrences: 4, ..cfg() };
        assert!(detect_periodic(&train(60.0, 3, 1 << 20, 1.0), &config).is_empty());
        assert_eq!(detect_periodic(&train(60.0, 4, 1 << 20, 1.0), &config).len(), 1);
    }

    #[test]
    fn missed_occurrences_fold_back_to_the_base_period() {
        // Regression: when Mean Shift scatters a 120 s behaviour across
        // clusters, a cluster that keeps 12 of 16 rounds sees a handful of
        // 240 s gaps; a plain mean inter-arrival overshoots (the dxt_views
        // integration test observed 152 s for a true 120 s cadence). The
        // double-period gaps must fold back so the reported period stays
        // at the base cadence.
        let segments: Vec<Segment> = (0..16)
            .filter(|i| ![3, 7, 11, 14].contains(i))
            .map(|i| Segment {
                start: 120.0 * i as f64,
                duration: 120.0,
                bytes: 128 << 20,
                op_duration: 6.0,
            })
            .collect();
        let patterns = detect_periodic(&segments, &cfg());
        assert_eq!(patterns.len(), 1, "{patterns:?}");
        assert!((patterns[0].period - 120.0).abs() < 1.0, "{patterns:?}");
        assert!(patterns[0].regularity_cv < 0.05, "{patterns:?}");
    }

    #[test]
    fn folding_does_not_rescue_irregular_streams() {
        // Gaps far from any small multiple of the median must stay
        // unfolded, so the regularity gate still rejects the stream.
        let starts = [0.0, 130.0, 260.0, 980.0, 1110.0];
        let segments: Vec<Segment> = starts
            .iter()
            .map(|&s| Segment { start: s, duration: 100.0, bytes: 1 << 30, op_duration: 3.0 })
            .collect();
        assert!(detect_periodic(&segments, &cfg()).is_empty());
    }

    #[test]
    fn regularity_gate_is_configurable() {
        // Mild irregularity passes a loose gate, fails a strict one.
        let starts = [0.0, 95.0, 210.0, 290.0, 405.0];
        let segments: Vec<Segment> = starts
            .iter()
            .map(|&s| Segment { start: s, duration: 100.0, bytes: 1 << 30, op_duration: 3.0 })
            .collect();
        let loose = CategorizerConfig { periodic_regularity_cv: 0.5, ..cfg() };
        assert_eq!(detect_periodic(&segments, &loose).len(), 1);
        let strict = CategorizerConfig { periodic_regularity_cv: 0.05, ..cfg() };
        assert!(detect_periodic(&segments, &strict).is_empty());
    }
}
