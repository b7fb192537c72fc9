//! Spectral periodicity detection — the paper's short-term future work.
//!
//! §V: *"some signal-processing-based techniques for periodic I/O detection
//! have been shown to be effective [Tarraf et al.]. In the short term, we
//! plan to implement these techniques to improve the detection of this type
//! of pattern."* This module does so: the per-direction operations are
//! rasterized into an activity signal, periodogram peaks propose candidate
//! periods, and each candidate is then *verified in the time domain* — a
//! phase is fitted and the operations that sit on the resulting lattice
//! become the pattern's members. The time-domain step is what turns a bare
//! spectral peak into the same rich [`PeriodicPattern`] (occurrences,
//! volume, busy time) the clustering path produces, and it filters out
//! harmonics, which match fewer operations than their fundamental.
//!
//! Select it with [`crate::config::PeriodicityMethod::Spectral`].

use crate::category::PeriodMagnitude;
use crate::config::CategorizerConfig;
use crate::periodicity::{member_segments, PeriodicPattern};
use crate::segment::Segment;
use mosaic_signal::periodogram::{find_peaks, periodogram};
use mosaic_signal::window::{rasterize, remove_mean};

/// Raster resolution for the activity signal.
const BINS: usize = 4096;
/// Max spectral peaks examined per direction.
const MAX_PEAKS: usize = 10;
/// Peaks below this fraction of the strongest are ignored.
const PEAK_THRESHOLD: f64 = 0.15;
/// An operation belongs to a candidate lattice when its start is within
/// this fraction of the period from the nearest lattice point.
const PHASE_TOLERANCE: f64 = 0.2;

/// Detect periodic operations via periodogram peaks + time-domain
/// verification. Consumes the same segment list as the clustering detector
/// so the two methods are drop-in interchangeable.
pub fn detect_periodic_spectral(
    segments: &[Segment],
    runtime: f64,
    config: &CategorizerConfig,
) -> Vec<PeriodicPattern> {
    if segments.len() < config.min_periodic_occurrences || runtime <= 0.0 {
        return Vec::new();
    }
    let intervals: Vec<(f64, f64, f64)> =
        segments.iter().map(|s| (s.start, s.start + s.op_duration, s.bytes as f64)).collect();
    let mut signal = rasterize(&intervals, runtime, BINS);
    remove_mean(&mut signal);
    let sample_rate = BINS as f64 / runtime;
    let (freqs, powers) = periodogram(&signal, sample_rate);
    let peaks = find_peaks(&freqs, &powers, MAX_PEAKS, PEAK_THRESHOLD);

    let mut patterns: Vec<PeriodicPattern> = Vec::new();
    let mut claimed = vec![false; segments.len()];
    for peak in peaks {
        let period = peak.period;
        if !period.is_finite() || period <= 0.0 || period > runtime {
            continue;
        }
        let Some((mut members, mut phase_spread)) = lattice_members(segments, &claimed, period)
        else {
            continue;
        };
        // Sub-harmonic refinement: if the lattice at period/k captures
        // substantially more operations, the spectral peak was a multiple of
        // the true cadence (e.g. a 120 s peak over a 60 s train catches only
        // every other operation). Descend while that keeps paying off.
        let mut period = period;
        let mut refined = true;
        while refined {
            refined = false;
            for k in 2..=4u32 {
                let finer = period / k as f64;
                if finer <= 0.0 {
                    continue;
                }
                if let Some((m2, s2)) = lattice_members(segments, &claimed, finer) {
                    if m2.len() as f64 >= 1.5 * members.len() as f64 {
                        period = finer;
                        members = m2;
                        phase_spread = s2;
                        refined = true;
                        break;
                    }
                }
            }
        }
        if members.len() < config.min_periodic_occurrences {
            continue;
        }
        // Occupancy gate: a true period of T over a runtime R produces about
        // R/T occurrences. The k-th harmonic occupies only 1/k of its
        // lattice slots and chance alignments of sparse operations far
        // fewer, so requiring 60 % occupancy filters both.
        let expected_slots = runtime / period;
        if (members.len() as f64) < 0.6 * expected_slots {
            continue;
        }
        // Equivalent of the clustering path's regularity gate: the phase
        // spread plays the role of the inter-arrival CV.
        if phase_spread > config.periodic_regularity_cv {
            continue;
        }
        // Inter-arrival consistency: the members' actual cadence must match
        // the candidate period. Sub-/super-harmonics that capture a denser
        // or sparser train fail this even when the lattice looks occupied
        // (several operations can share one slot).
        let mut starts: Vec<f64> = member_segments(segments, &members).map(|s| s.start).collect();
        starts.sort_by(f64::total_cmp);
        let gaps: Vec<f64> = starts.iter().zip(starts.iter().skip(1)).map(|(a, b)| b - a).collect();
        if gaps.is_empty() {
            continue;
        }
        let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
        if (mean_gap - period).abs() > 0.25 * period {
            continue;
        }
        let gap_var = gaps.iter().map(|g| (g - mean_gap).powi(2)).sum::<f64>() / gaps.len() as f64;
        if gap_var.sqrt() / mean_gap > config.periodic_regularity_cv {
            continue;
        }
        // claimed.len() == segments.len(): allocated together above.
        for &m in &members {
            if let Some(c) = claimed.get_mut(m) {
                *c = true;
            }
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
            regularity_cv: phase_spread,
            members,
        });
    }
    patterns.sort_by(|a, b| b.occurrences.cmp(&a.occurrences).then(a.period.total_cmp(&b.period)));
    patterns
}

/// Fit a phase for `period` and return the unclaimed segments sitting on
/// the lattice, plus the normalized spread of their phase residuals.
///
/// The phase is chosen by *mode seeking*: every unclaimed segment proposes
/// its own start phase, and the proposal capturing the most segments wins.
/// A circular mean would be pulled off target by unrelated operations (the
/// other interleaved behaviour), which is exactly the situation this
/// detector is evaluated in.
fn lattice_members(
    segments: &[Segment],
    claimed: &[bool],
    period: f64,
) -> Option<(Vec<usize>, f64)> {
    // (index, start) of every unclaimed segment.
    let unclaimed: Vec<(usize, f64)> = segments
        .iter()
        .zip(claimed)
        .enumerate()
        .filter(|&(_, (_, &c))| !c)
        .map(|(i, (s, _))| (i, s.start))
        .collect();
    if unclaimed.is_empty() {
        return None;
    }

    let residual = |start: f64, phase: f64| -> f64 {
        let mut r = (start - phase) % period;
        if r > period / 2.0 {
            r -= period;
        }
        if r < -period / 2.0 {
            r += period;
        }
        r
    };

    // Mode-seek the phase over the candidates' own proposals.
    let tol = PHASE_TOLERANCE * period;
    let mut best_phase = 0.0;
    let mut best_count = 0usize;
    for &(_, start) in &unclaimed {
        let phase = start % period;
        let count =
            unclaimed.iter().filter(|&&(_, other)| residual(other, phase).abs() <= tol).count();
        if count > best_count {
            best_count = count;
            best_phase = phase;
        }
    }
    if best_count == 0 {
        return None;
    }

    let mut members = Vec::new();
    let mut residuals = Vec::new();
    for &(i, start) in &unclaimed {
        let r = residual(start, best_phase);
        if r.abs() <= tol {
            members.push(i);
            residuals.push(r / period);
        }
    }
    let mean = residuals.iter().sum::<f64>() / residuals.len() as f64;
    let var = residuals.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / residuals.len() as f64;
    Some((members, var.sqrt() * 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn cfg() -> CategorizerConfig {
        CategorizerConfig::default()
    }

    /// `lattice_members` as it was written before the zipped rewrite:
    /// unclaimed indices, and every start read back through them.
    fn indexed_lattice_members(
        segments: &[Segment],
        claimed: &[bool],
        period: f64,
    ) -> Option<(Vec<usize>, f64)> {
        let unclaimed: Vec<usize> = (0..segments.len()).filter(|&i| !claimed[i]).collect();
        if unclaimed.is_empty() {
            return None;
        }
        let residual = |start: f64, phase: f64| -> f64 {
            let mut r = (start - phase) % period;
            if r > period / 2.0 {
                r -= period;
            }
            if r < -period / 2.0 {
                r += period;
            }
            r
        };
        let tol = PHASE_TOLERANCE * period;
        let (mut best_phase, mut best_count) = (0.0, 0usize);
        for &i in &unclaimed {
            let phase = segments[i].start % period;
            let count = unclaimed
                .iter()
                .filter(|&&j| residual(segments[j].start, phase).abs() <= tol)
                .count();
            if count > best_count {
                best_count = count;
                best_phase = phase;
            }
        }
        if best_count == 0 {
            return None;
        }
        let (mut members, mut residuals) = (Vec::new(), Vec::new());
        for &i in &unclaimed {
            let r = residual(segments[i].start, best_phase);
            if r.abs() <= tol {
                members.push(i);
                residuals.push(r / period);
            }
        }
        let mean = residuals.iter().sum::<f64>() / residuals.len() as f64;
        let var =
            residuals.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / residuals.len() as f64;
        Some((members, var.sqrt() * 2.0))
    }

    #[test]
    fn lattice_members_equal_the_indexed_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for seed in 0..200 {
            let segments = crate::periodicity::tests::jittered_trains(seed);
            let claimed: Vec<bool> = segments.iter().map(|_| rng.gen_bool(0.3)).collect();
            let period = rng.gen_range(5.0..700.0);
            let got = lattice_members(&segments, &claimed, period);
            let want = indexed_lattice_members(&segments, &claimed, period);
            assert_eq!(
                got.map(|(m, spread)| (m, spread.to_bits())),
                want.map(|(m, spread)| (m, spread.to_bits())),
                "seed {seed}, period {period}"
            );
        }
    }

    #[test]
    fn lattice_members_skip_claimed_segments() {
        let segments = train(30.0, 20, 1 << 20, 1.0);
        let claimed: Vec<bool> = (0..segments.len()).map(|i| i % 3 == 0).collect();
        let (members, _) = lattice_members(&segments, &claimed, 30.0).unwrap();
        assert_eq!(members, (0..20).filter(|i| i % 3 != 0).collect::<Vec<_>>());
        assert_eq!(lattice_members(&segments, &[true; 20], 30.0), None);
        assert_eq!(lattice_members(&[], &[], 30.0), None);
    }

    #[test]
    fn pattern_statistics_equal_the_indexed_members() {
        for seed in 0..40 {
            let segments = crate::periodicity::tests::jittered_trains(seed);
            let runtime = segments.iter().map(|s| s.start + s.duration).fold(1.0, f64::max);
            let patterns = detect_periodic_spectral(&segments, runtime, &cfg());
            crate::periodicity::tests::assert_member_statistics(&segments, &patterns);
        }
    }

    #[test]
    fn clean_train_is_detected_with_correct_period() {
        let segments = train(120.0, 30, 256 << 20, 8.0);
        let runtime = 120.0 * 30.0;
        let patterns = detect_periodic_spectral(&segments, runtime, &cfg());
        assert!(!patterns.is_empty());
        let p = &patterns[0];
        assert!((p.period - 120.0).abs() < 12.0, "period {}", p.period);
        assert!(p.occurrences >= 25, "occurrences {}", p.occurrences);
        assert_eq!(p.magnitude, PeriodMagnitude::Minute);
        assert!(p.is_low_busy(0.25));
    }

    #[test]
    fn aperiodic_ops_are_rejected() {
        let starts = [3.0, 250.0, 260.0, 900.0, 1700.0, 3100.0];
        let segments: Vec<Segment> = starts
            .iter()
            .map(|&s| Segment { start: s, duration: 10.0, bytes: 1 << 30, op_duration: 4.0 })
            .collect();
        let patterns = detect_periodic_spectral(&segments, 3600.0, &cfg());
        // A spurious weak peak may appear, but no confident pattern should
        // cover most operations.
        assert!(
            patterns.iter().all(|p| p.occurrences < 5),
            "unexpected confident pattern: {patterns:?}"
        );
    }

    #[test]
    fn two_interleaved_trains_both_recovered() {
        let mut segments = train(60.0, 120, 100 << 20, 2.0);
        // Offset the slow train so the lattices do not coincide.
        let slow: Vec<Segment> = (0..12)
            .map(|i| Segment {
                start: 600.0 * i as f64 + 40.0,
                duration: 600.0,
                bytes: 2 << 30,
                op_duration: 5.0,
            })
            .collect();
        segments.extend(slow);
        segments.sort_by(|a, b| a.start.total_cmp(&b.start));
        let patterns = detect_periodic_spectral(&segments, 7200.0, &cfg());
        let periods: Vec<f64> = patterns.iter().map(|p| p.period).collect();
        assert!(periods.iter().any(|&p| (p - 60.0).abs() < 6.0), "fast train missing: {periods:?}");
        // The slow train is 10 % of the energy; the spectral method may or
        // may not surface it — that asymmetry vs Mean Shift is exactly what
        // the ablation bench quantifies. Only the fast train is required.
    }

    #[test]
    fn short_inputs_short_circuit() {
        assert!(detect_periodic_spectral(&[], 100.0, &cfg()).is_empty());
        let one = train(10.0, 1, 100, 1.0);
        assert!(detect_periodic_spectral(&one, 100.0, &cfg()).is_empty());
        let segments = train(10.0, 5, 100, 1.0);
        assert!(detect_periodic_spectral(&segments, 0.0, &cfg()).is_empty());
    }

    #[test]
    fn members_are_claimed_once() {
        let segments = train(90.0, 40, 1 << 30, 3.0);
        let patterns = detect_periodic_spectral(&segments, 3600.0, &cfg());
        let mut seen = std::collections::BTreeSet::new();
        for p in &patterns {
            for &m in &p.members {
                assert!(seen.insert(m), "segment {m} claimed twice");
            }
        }
    }
}
