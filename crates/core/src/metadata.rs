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

/// Bin metadata events into one-second buckets over `[0, runtime]`.
pub fn requests_per_second(meta: &[MetaEvent], runtime: f64) -> Vec<u64> {
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "f64-to-usize `as` saturates; NaN and negatives go to 0 and .max(1) floors"
    )]
    let bins = (runtime.ceil() as usize).max(1);
    let mut hist = vec![0u64; bins];
    for e in meta {
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "f64-to-usize `as` saturates; clamped below by max(0.0), above by min(bins - 1)"
        )]
        let b = (e.time.max(0.0) as usize).min(bins - 1);
        // lint: allow(panic, "b is clamped to bins - 1 and hist.len() == bins >= 1")
        hist[b] += e.count;
    }
    hist
}

/// Characterize the metadata impact of one trace.
pub fn characterize(
    meta: &[MetaEvent],
    runtime: f64,
    nprocs: u32,
    config: &CategorizerConfig,
) -> MetadataResult {
    let total_requests: u64 = meta.iter().map(|e| e.count).sum();
    let hist = requests_per_second(meta, runtime);
    let peak_rps = hist.iter().copied().max().unwrap_or(0);
    let spike_count = hist.iter().filter(|&&c| c >= config.spike_requests).count();
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
    fn histogram_binning() {
        let hist = requests_per_second(&[ev(0.2, 3), ev(0.8, 2), ev(7.5, 1)], 10.0);
        assert_eq!(hist.len(), 10);
        assert_eq!(hist[0], 5);
        assert_eq!(hist[7], 1);
        // Events past runtime clamp into the last bin.
        let hist = requests_per_second(&[ev(99.0, 4)], 10.0);
        assert_eq!(hist[9], 4);
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
