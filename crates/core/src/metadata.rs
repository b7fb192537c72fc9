//! Metadata-impact characterization (§III-B3c).
//!
//! MOSAIC bins the trace's metadata requests (opens, closes, and the seeks
//! assumed co-located with opens) into one-second buckets and inspects the
//! per-second request-rate profile:
//!
//! * `high_spike` — more than 250 requests in a single second, at least
//!   once (the thresholds derive from mdworkbench measurements of a Lustre
//!   MDS comparable to Blue Waters', which saturates near 3000 req/s);
//! * `multiple_spikes` — at least 5 seconds with 50+ requests;
//! * `high_density` — at least 5 spikes *and* an average of 50+ requests
//!   per second across the execution;
//! * `insignificant_load` — fewer total metadata operations than ranks.
//!
//! Only the seconds that hold an event are materialized
//! ([`occupied_seconds`]), so the stage's time and memory follow the number
//! of metadata events, never the runtime the header claims.

use crate::category::MetadataLabel;
use crate::config::CategorizerConfig;
use mosaic_darshan::ops::MetaEvent;
use serde::{Deserialize, Serialize};

/// Metadata verdict with the evidence kept for reporting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetadataResult {
    /// Assigned labels (non-exclusive; empty only when there were requests
    /// but none of the high-load patterns matched).
    pub labels: Vec<MetadataLabel>,
    /// Total metadata requests.
    pub total_requests: u64,
    /// Peak requests observed in one second.
    pub peak_rps: u64,
    /// Number of seconds with at least `spike_requests` requests.
    pub spike_count: usize,
    /// Mean requests per second over the execution.
    pub mean_rps: f64,
}

impl MetadataResult {
    /// `true` if a given label was assigned.
    pub fn has(&self, label: MetadataLabel) -> bool {
        self.labels.contains(&label)
    }
}

/// Number of one-second buckets over `[0, runtime]`: `ceil(runtime)`, at
/// least one. A count only; nothing is allocated per bucket.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "f64-to-usize `as` saturates; NaN and negatives go to 0 and .max(1) floors"
)]
fn bins(runtime: f64) -> usize {
    (runtime.ceil() as usize).max(1)
}

/// Total metadata requests, saturating at `u64::MAX`.
fn total_requests(meta: &[MetaEvent]) -> u64 {
    meta.iter().fold(0, |sum, e| sum.saturating_add(e.count))
}

/// Metadata requests per occupied one-second bucket over `[0, runtime]`:
/// `(second, requests)` pairs sorted by second, one for every second that
/// holds at least one event (its sum may be 0). An event lands in second
/// `floor(time)` clamped to `[0, ceil(runtime) - 1]`, a NaN time in second
/// 0; sums saturate. Time and memory are O(m log m) and O(m) in the m
/// events, whatever the runtime.
pub fn occupied_seconds(meta: &[MetaEvent], runtime: f64) -> Vec<(usize, u64)> {
    let last = bins(runtime) - 1;
    let mut seconds: Vec<(usize, u64)> = meta
        .iter()
        .map(|e| {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "f64-to-usize `as` saturates; clamped below by max(0.0), above by min(last)"
            )]
            let second = (e.time.max(0.0) as usize).min(last);
            (second, e.count)
        })
        .collect();
    // Every pipeline path hands over time-sorted events, already in second
    // order, so the sort is a near-linear pass.
    seconds.sort_unstable_by_key(|&(second, _)| second);
    seconds.dedup_by(|next, run| {
        let same = next.0 == run.0;
        if same {
            run.1 = run.1.saturating_add(next.1);
        }
        same
    });
    seconds
}

/// Characterize the metadata impact of one trace.
pub fn characterize(
    meta: &[MetaEvent],
    runtime: f64,
    nprocs: u32,
    config: &CategorizerConfig,
) -> MetadataResult {
    let seconds = occupied_seconds(meta, runtime);
    let peak_rps = seconds.iter().map(|&(_, n)| n).max().unwrap_or(0);
    let mut spike_count = seconds.iter().filter(|&&(_, n)| n >= config.spike_requests).count();
    if config.spike_requests == 0 {
        // An empty second holds 0 >= 0 requests: a spike too.
        spike_count += bins(runtime) - seconds.len();
    }
    verdict(total_requests(meta), peak_rps, spike_count, runtime, nprocs, config)
}

/// Label a trace from its per-second evidence.
fn verdict(
    total_requests: u64,
    peak_rps: u64,
    spike_count: usize,
    runtime: f64,
    nprocs: u32,
    config: &CategorizerConfig,
) -> MetadataResult {
    let mean_rps = total_requests as f64 / runtime.max(1.0);
    let mut labels = Vec::new();
    if total_requests < u64::from(nprocs) {
        labels.push(MetadataLabel::InsignificantLoad);
        return MetadataResult { labels, total_requests, peak_rps, spike_count, mean_rps };
    }
    if peak_rps > config.high_spike_requests {
        labels.push(MetadataLabel::HighSpike);
    }
    if spike_count >= config.min_spikes {
        labels.push(MetadataLabel::MultipleSpikes);
        if mean_rps >= config.density_mean_rps {
            labels.push(MetadataLabel::HighDensity);
        }
    }
    MetadataResult { labels, total_requests, peak_rps, spike_count, mean_rps }
}

/// The dense per-second histogram the stage once scanned, kept as the
/// independent reference that `differential/metadata-vs-reference` and the
/// unit tests compare [`characterize`] against. Its memory grows with the
/// runtime (8 bytes per second), so it is for trusted inputs only.
pub mod reference {
    use super::{bins, total_requests, verdict, MetadataResult};
    use crate::config::CategorizerConfig;
    use mosaic_darshan::ops::MetaEvent;

    /// Bin metadata events into one-second buckets over `[0, runtime]`.
    pub fn requests_per_second(meta: &[MetaEvent], runtime: f64) -> Vec<u64> {
        let bins = bins(runtime);
        let mut hist = vec![0u64; bins];
        for e in meta {
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "f64-to-usize `as` saturates; clamped below by max(0.0), above by min(bins - 1)"
            )]
            let b = (e.time.max(0.0) as usize).min(bins - 1);
            // `b` is clamped to `bins - 1`, so the bin is always present.
            if let Some(h) = hist.get_mut(b) {
                *h = h.saturating_add(e.count);
            }
        }
        hist
    }

    /// [`super::characterize`] by a full scan of the dense histogram.
    pub fn characterize(
        meta: &[MetaEvent],
        runtime: f64,
        nprocs: u32,
        config: &CategorizerConfig,
    ) -> MetadataResult {
        let hist = requests_per_second(meta, runtime);
        let peak_rps = hist.iter().copied().max().unwrap_or(0);
        let spike_count = hist.iter().filter(|&&c| c >= config.spike_requests).count();
        verdict(total_requests(meta), peak_rps, spike_count, runtime, nprocs, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_darshan::ops::MetaKind;

    fn ev(time: f64, count: u64) -> MetaEvent {
        MetaEvent { time, kind: MetaKind::Open, count }
    }

    fn cfg() -> CategorizerConfig {
        CategorizerConfig::default()
    }

    #[test]
    fn insignificant_when_fewer_requests_than_ranks() {
        let r = characterize(&[ev(1.0, 63)], 100.0, 64, &cfg());
        assert_eq!(r.labels, vec![MetadataLabel::InsignificantLoad]);
        // Exactly nprocs requests: no longer insignificant.
        let r = characterize(&[ev(1.0, 64)], 100.0, 64, &cfg());
        assert!(!r.has(MetadataLabel::InsignificantLoad));
    }

    #[test]
    fn high_spike_above_250_in_one_second() {
        let r = characterize(&[ev(5.2, 251)], 100.0, 4, &cfg());
        assert!(r.has(MetadataLabel::HighSpike));
        assert_eq!(r.peak_rps, 251);
        let r = characterize(&[ev(5.2, 250)], 100.0, 4, &cfg());
        assert!(!r.has(MetadataLabel::HighSpike));
    }

    #[test]
    fn spikes_in_same_second_accumulate() {
        // Two bursts of 130 in the same second cross the 250 threshold.
        let r = characterize(&[ev(5.1, 130), ev(5.9, 130)], 100.0, 4, &cfg());
        assert!(r.has(MetadataLabel::HighSpike));
    }

    #[test]
    fn multiple_spikes_needs_five() {
        let four: Vec<MetaEvent> = (0..4).map(|i| ev(i as f64 * 10.0, 60)).collect();
        let r = characterize(&four, 100.0, 4, &cfg());
        assert!(!r.has(MetadataLabel::MultipleSpikes));
        let five: Vec<MetaEvent> = (0..5).map(|i| ev(i as f64 * 10.0, 60)).collect();
        let r = characterize(&five, 100.0, 4, &cfg());
        assert!(r.has(MetadataLabel::MultipleSpikes));
        assert_eq!(r.spike_count, 5);
    }

    #[test]
    fn high_density_needs_spikes_and_mean() {
        // 5 spikes but low mean over a long run: multiple_spikes only.
        let sparse: Vec<MetaEvent> = (0..5).map(|i| ev(i as f64 * 100.0, 60)).collect();
        let r = characterize(&sparse, 1000.0, 4, &cfg());
        assert!(r.has(MetadataLabel::MultipleSpikes));
        assert!(!r.has(MetadataLabel::HighDensity));
        // Dense: 60 req/s average over a 10 s run with 6 spikes.
        let dense: Vec<MetaEvent> = (0..10).map(|i| ev(i as f64, 60)).collect();
        let r = characterize(&dense, 10.0, 4, &cfg());
        assert!(r.has(MetadataLabel::HighDensity));
        assert!(r.mean_rps >= 50.0);
    }

    #[test]
    fn reference_histogram_clamps_events_outside_the_runtime_into_the_edge_bins() {
        let meta = [ev(-3.5, 2), ev(0.5, 1), ev(9.99, 4), ev(1e9, u64::MAX)];
        let hist = reference::requests_per_second(&meta, 10.0);
        assert_eq!(hist.first(), Some(&3));
        assert_eq!(hist.last(), Some(&u64::MAX), "the late event saturates the last bin");
        assert!(hist[1..hist.len() - 1].iter().all(|&c| c == 0), "{hist:?}");
    }

    #[test]
    fn histogram_binning() {
        let hist = reference::requests_per_second(&[ev(0.2, 3), ev(0.8, 2), ev(7.5, 1)], 10.0);
        assert_eq!(hist.len(), 10);
        assert_eq!(hist[0], 5);
        assert_eq!(hist[7], 1);
        // Events past runtime clamp into the last bin.
        let hist = reference::requests_per_second(&[ev(99.0, 4)], 10.0);
        assert_eq!(hist[9], 4);
    }

    #[test]
    fn occupied_seconds_are_the_nonempty_bins() {
        // Unsorted, clamped at both ends, NaN in second 0, a zero-count
        // event still occupying its second.
        let meta = [ev(7.5, 1), ev(0.2, 3), ev(99.0, 4), ev(-3.0, 1), ev(f64::NAN, 1), ev(4.0, 0)];
        assert_eq!(occupied_seconds(&meta, 10.0), vec![(0, 5), (4, 0), (7, 1), (9, 4)]);
        assert!(occupied_seconds(&[], 10.0).is_empty());
    }

    #[test]
    fn sparse_scan_equals_the_dense_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let specials =
            [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, -2.5, 1e300, -1e300];
        let mut rng = StdRng::seed_from_u64(0x3E7A);
        for case in 0..4000 {
            let runtime = [0.0, 0.5, 1.0, 7.3, 60.0, 600.0][case % 6];
            let mut config = cfg();
            config.spike_requests = [0, 1, 50, 119][case / 6 % 4];
            let meta: Vec<MetaEvent> = (0..rng.gen_range(0..40))
                .map(|_| {
                    let time = if rng.gen_range(0..8) == 0 {
                        specials[rng.gen_range(0..specials.len())]
                    } else {
                        rng.gen_range(-5.0..runtime + 5.0)
                    };
                    ev(time, rng.gen_range(0..300))
                })
                .collect();
            let nprocs = rng.gen_range(1..64);
            let sparse = characterize(&meta, runtime, nprocs, &config);
            let dense = reference::characterize(&meta, runtime, nprocs, &config);
            assert_eq!(sparse, dense, "case {case}: runtime {runtime}, {meta:?}");
        }
    }

    #[test]
    fn request_sums_saturate() {
        let meta = [ev(1.0, u64::MAX / 2), ev(1.5, u64::MAX / 2), ev(1.9, u64::MAX / 2)];
        let r = characterize(&meta, 10.0, 4, &cfg());
        assert_eq!(r.total_requests, u64::MAX);
        assert_eq!(r.peak_rps, u64::MAX);
        assert_eq!(r, reference::characterize(&meta, 10.0, 4, &cfg()));
    }

    #[test]
    fn cost_is_independent_of_runtime() {
        // A dense histogram over these runtimes needs 800 GB and more; the
        // sparse scan touches one second per event.
        for runtime in [1e11, 9.2e18, f64::INFINITY] {
            let r = characterize(&[ev(3.0, 300), ev(runtime, 60)], runtime, 4, &cfg());
            assert_eq!((r.peak_rps, r.spike_count), (300, 2), "runtime {runtime}");
            assert!(r.has(MetadataLabel::HighSpike));
            let mut every_second = cfg();
            every_second.spike_requests = 0;
            let r = characterize(&[ev(3.0, 300)], runtime, 4, &every_second);
            assert_eq!(r.spike_count, bins(runtime), "runtime {runtime}");
        }
    }

    #[test]
    fn empty_meta_is_insignificant() {
        let r = characterize(&[], 100.0, 4, &cfg());
        assert_eq!(r.labels, vec![MetadataLabel::InsignificantLoad]);
        assert_eq!(r.total_requests, 0);
    }

    #[test]
    fn spike_threshold_boundary_is_inclusive() {
        // A "spike" is >= 50 requests (inclusive); 49 is not.
        let at_49: Vec<MetaEvent> = (0..5).map(|i| ev(i as f64 * 10.0, 49)).collect();
        assert!(!characterize(&at_49, 100.0, 4, &cfg()).has(MetadataLabel::MultipleSpikes));
        let at_50: Vec<MetaEvent> = (0..5).map(|i| ev(i as f64 * 10.0, 50)).collect();
        assert!(characterize(&at_50, 100.0, 4, &cfg()).has(MetadataLabel::MultipleSpikes));
    }

    #[test]
    fn density_mean_uses_full_runtime() {
        // 6 spikes of 100 over 600 s: mean 1 req/s — spiky but not dense.
        let sparse: Vec<MetaEvent> = (0..6).map(|i| ev(i as f64 * 100.0, 100)).collect();
        let r = characterize(&sparse, 600.0, 4, &cfg());
        assert!(r.has(MetadataLabel::MultipleSpikes));
        assert!(!r.has(MetadataLabel::HighDensity));
        assert!((r.mean_rps - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quiet_but_significant_load_gets_no_labels() {
        // More requests than ranks, but no spikes: empty label set.
        let r = characterize(&[ev(1.0, 10), ev(50.0, 10)], 100.0, 4, &cfg());
        assert!(r.labels.is_empty());
    }
}
