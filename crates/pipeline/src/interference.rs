//! I/O interference analysis — the paper's long-term future work.
//!
//! §V: *"we plan to analyze the dataset in greater depth to detect I/O
//! performance losses that could be attributed to concurrency. This way, we
//! would like to be able to identify whether some categories are more
//! conflicting than others, [...] to improve concurrency-aware job
//! scheduling."*
//!
//! The analysis here: every categorized job contributes *demand windows* —
//! wallclock intervals with an estimated storage-bandwidth demand, derived
//! from its temporal chunk volumes. The machine's year is binned; in every
//! bin where the aggregate demand exceeds the file system's bandwidth, the
//! excess is *contention*, attributed to the categories present in
//! proportion to their demand. The output ranks categories and category
//! pairs by the contention they participate in, and a category-aware
//! staggering what-if quantifies how much contention a scheduler could
//! remove — the decision signal MOSAIC was built to feed.

use crate::executor::RunOutcome;
use mosaic_core::category::{Category, OpKindTag, TemporalityLabel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One job's bandwidth demand over a wallclock interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandWindow {
    /// Absolute start, Unix seconds.
    pub start: f64,
    /// Absolute end, Unix seconds.
    pub end: f64,
    /// Estimated demand, bytes per second.
    pub demand: f64,
    /// The temporality category the window belongs to.
    pub category: Category,
}

/// Extract demand windows from one outcome: each temporal chunk with
/// significant volume becomes a window with `chunk bytes / chunk seconds`
/// demand, labeled by the direction's temporality category.
pub fn demand_windows(outcome: &RunOutcome) -> Vec<DemandWindow> {
    let mut out = Vec::new();
    let runtime = (outcome.end_time - outcome.start_time) as f64;
    if runtime <= 0.0 {
        return out;
    }
    for (kind, direction) in
        [(OpKindTag::Read, &outcome.report.read), (OpKindTag::Write, &outcome.report.write)]
    {
        let temporality = &direction.temporality;
        if temporality.label == TemporalityLabel::Insignificant {
            continue;
        }
        let category = Category::Temporality { kind, label: temporality.label };
        let n = temporality.chunk_bytes.len().max(1);
        let chunk_seconds = runtime / n as f64;
        for (i, &bytes) in temporality.chunk_bytes.iter().enumerate() {
            if bytes <= 0.0 {
                continue;
            }
            let start = outcome.start_time as f64 + chunk_seconds * i as f64;
            out.push(DemandWindow {
                start,
                end: start + chunk_seconds,
                demand: bytes / chunk_seconds,
                category,
            });
        }
    }
    out
}

/// Interference analysis result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterferenceReport {
    /// Analysis bin width, seconds.
    pub bin_seconds: f64,
    /// Bins where aggregate demand exceeded the PFS bandwidth.
    pub contended_bins: usize,
    /// Total bins with any demand.
    pub active_bins: usize,
    /// Total contended byte-seconds (demand above capacity, integrated).
    pub contended_byte_seconds: f64,
    /// Peak aggregate demand observed in any bin, bytes/s.
    pub peak_demand: f64,
    /// Mean aggregate demand over active bins, bytes/s.
    pub mean_demand: f64,
    /// Contention participation per category (byte-seconds of its demand
    /// inside contended bins), descending.
    pub category_scores: Vec<(Category, f64)>,
    /// Contention co-participation per category pair, descending.
    pub pair_scores: Vec<(Category, Category, f64)>,
}

/// Analyze contention over a set of outcomes, against a PFS of
/// `pfs_bandwidth` bytes/s, using `bin_seconds` wallclock bins.
pub fn analyze(
    outcomes: &[RunOutcome],
    pfs_bandwidth: f64,
    bin_seconds: f64,
) -> InterferenceReport {
    assert!(pfs_bandwidth > 0.0 && bin_seconds > 0.0);
    let windows: Vec<DemandWindow> = outcomes.iter().flat_map(demand_windows).collect();
    analyze_windows(&windows, pfs_bandwidth, bin_seconds)
}

/// Analyze pre-extracted windows (lets what-if schedulers mutate them).
pub fn analyze_windows(
    windows: &[DemandWindow],
    pfs_bandwidth: f64,
    bin_seconds: f64,
) -> InterferenceReport {
    // Bin the demand: bin index → per-category demand.
    let mut bins: BTreeMap<i64, BTreeMap<Category, f64>> = BTreeMap::new();
    for w in windows {
        if w.end <= w.start || w.demand <= 0.0 {
            continue;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "f64-to-i64 `as` saturates; absurd window bounds clamp to the extremes"
        )]
        let first = (w.start / bin_seconds).floor() as i64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "f64-to-i64 `as` saturates; absurd window bounds clamp to the extremes"
        )]
        let last = ((w.end - 1e-9) / bin_seconds).floor() as i64;
        for b in first..=last {
            let lo = w.start.max(b as f64 * bin_seconds);
            let hi = w.end.min((b + 1) as f64 * bin_seconds);
            if hi <= lo {
                continue;
            }
            // Demand contribution averaged over the bin.
            let contribution = w.demand * (hi - lo) / bin_seconds;
            *bins.entry(b).or_default().entry(w.category).or_insert(0.0) += contribution;
        }
    }

    let mut contended_bins = 0usize;
    let mut contended_byte_seconds = 0.0;
    let mut peak_demand = 0.0f64;
    let mut demand_sum = 0.0f64;
    let mut category_scores: BTreeMap<Category, f64> = BTreeMap::new();
    let mut pair_scores: BTreeMap<(Category, Category), f64> = BTreeMap::new();
    for demands in bins.values() {
        let total: f64 = demands.values().sum();
        peak_demand = peak_demand.max(total);
        demand_sum += total;
        if total <= pfs_bandwidth {
            continue;
        }
        contended_bins += 1;
        let excess = (total - pfs_bandwidth) * bin_seconds;
        contended_byte_seconds += excess;
        // Attribute the excess proportionally to each category's demand.
        for (&cat, &d) in demands {
            *category_scores.entry(cat).or_insert(0.0) += excess * d / total;
        }
        // Pairs: co-participation weighted by the smaller share (both must
        // be present for the pair to conflict).
        let cats: Vec<(&Category, &f64)> = demands.iter().collect();
        for i in 0..cats.len() {
            for j in (i + 1)..cats.len() {
                let share = cats[i].1.min(*cats[j].1) / total;
                *pair_scores.entry((*cats[i].0, *cats[j].0)).or_insert(0.0) += excess * share;
            }
        }
    }

    let mut category_scores: Vec<(Category, f64)> = category_scores.into_iter().collect();
    category_scores.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut pair_scores: Vec<(Category, Category, f64)> =
        pair_scores.into_iter().map(|((a, b), v)| (a, b, v)).collect();
    pair_scores.sort_by(|a, b| b.2.total_cmp(&a.2));

    InterferenceReport {
        bin_seconds,
        contended_bins,
        active_bins: bins.len(),
        contended_byte_seconds,
        peak_demand,
        mean_demand: demand_sum / bins.len().max(1) as f64,
        category_scores,
        pair_scores,
    }
}

/// Category-aware admission-control what-if: at most `max_concurrent`
/// windows of the `target` category run at once; later arrivals are delayed
/// until a slot frees (bounded by `max_delay` — windows that cannot fit the
/// budget run as originally scheduled). This is the scheduler policy the
/// paper's introduction sketches ("two jobs categorized as reading large
/// volumes of data at the start of execution could be scheduled so as not
/// to overlap", generalized from 1-at-a-time to K-at-a-time). Returns
/// `(new report, fraction of contention removed)`.
pub fn stagger_what_if(
    outcomes: &[RunOutcome],
    pfs_bandwidth: f64,
    bin_seconds: f64,
    target: Category,
    max_concurrent: usize,
    max_delay: f64,
) -> (InterferenceReport, f64) {
    assert!(max_concurrent >= 1);
    let baseline = analyze(outcomes, pfs_bandwidth, bin_seconds);
    let mut windows: Vec<DemandWindow> = outcomes.iter().flat_map(demand_windows).collect();

    let mut idx: Vec<usize> =
        (0..windows.len()).filter(|&i| windows[i].category == target).collect();
    idx.sort_by(|&a, &b| windows[a].start.total_cmp(&windows[b].start));

    // K admission slots, each holding the end time of its current window.
    let mut slots = vec![f64::NEG_INFINITY; max_concurrent];
    for &i in &idx {
        let w = &mut windows[i];
        // Earliest-freeing slot.
        let (slot, free_at) = slots
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("max_concurrent >= 1");
        let delay = (free_at - w.start).max(0.0);
        if delay <= max_delay {
            w.start += delay;
            w.end += delay;
            slots[slot] = w.end;
        }
        // Over-budget windows run as scheduled and do not occupy a slot:
        // the scheduler would have admitted them rather than starve them.
    }

    let staggered = analyze_windows(&windows, pfs_bandwidth, bin_seconds);
    let removed = if baseline.contended_byte_seconds > 0.0 {
        1.0 - staggered.contended_byte_seconds / baseline.contended_byte_seconds
    } else {
        0.0
    };
    (staggered, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_core::{Categorizer, CategorizerConfig};
    use mosaic_darshan::ops::{OpKind, Operation, OperationView};

    const GB: f64 = (1u64 << 30) as f64;

    fn outcome(index: usize, start_time: i64, read_gb: u64, early: bool) -> RunOutcome {
        let (s, e) = if early { (1.0, 200.0) } else { (10.0, 990.0) };
        let view = OperationView {
            runtime: 1000.0,
            nprocs: 8,
            reads: vec![Operation {
                kind: OpKind::Read,
                start: s,
                end: e,
                bytes: read_gb << 30,
                ranks: 8,
            }],
            writes: vec![],
            meta: vec![],
        };
        let report = Categorizer::new(CategorizerConfig::default()).categorize(&view);
        RunOutcome {
            index,
            app_key: (1, format!("app{index}")),
            weight: (read_gb << 30) as i64,
            sanitized_records: 0,
            start_time,
            end_time: start_time + 1000,
            report,
        }
    }

    #[test]
    fn windows_follow_chunk_shape() {
        let o = outcome(0, 5000, 100, true); // read on start
        let windows = demand_windows(&o);
        assert!(!windows.is_empty());
        // All demand in the first quarter.
        assert!(windows[0].start >= 5000.0 && windows[0].end <= 5000.0 + 250.0 + 1.0);
        let total: f64 = windows.iter().map(|w| w.demand * (w.end - w.start)).sum();
        assert!((total - 100.0 * GB).abs() < GB * 0.01, "total {total}");
    }

    #[test]
    fn insignificant_jobs_contribute_nothing() {
        let o = outcome(0, 0, 0, true);
        // 0 GB → insignificant → no windows.
        assert!(demand_windows(&o).is_empty());
    }

    #[test]
    fn colocated_jobs_contend_and_staggering_helps() {
        // Ten 100 GB read-on-start jobs all starting at the same instant on
        // a 0.5 GB/s PFS: heavy contention at the shared start.
        let outcomes: Vec<RunOutcome> = (0..10).map(|i| outcome(i, 10_000, 100, true)).collect();
        let report = analyze(&outcomes, 0.5 * GB, 60.0);
        assert!(report.contended_bins > 0);
        assert!(report.contended_byte_seconds > 0.0);
        let read_start =
            Category::Temporality { kind: OpKindTag::Read, label: TemporalityLabel::OnStart };
        assert_eq!(report.category_scores[0].0, read_start);

        let (staggered, removed) =
            stagger_what_if(&outcomes, 0.5 * GB, 60.0, read_start, 1, 7200.0);
        assert!(removed > 0.5, "removed only {removed}");
        assert!(staggered.contended_byte_seconds < report.contended_byte_seconds);
    }

    #[test]
    fn disjoint_jobs_do_not_contend() {
        // Jobs a day apart never overlap.
        let outcomes: Vec<RunOutcome> =
            (0..5).map(|i| outcome(i, i as i64 * 86_400, 100, true)).collect();
        let report = analyze(&outcomes, 0.5 * GB, 60.0);
        // A single 100 GB job in 250 s is 0.4 GB/s < 0.5 GB/s capacity.
        assert_eq!(report.contended_bins, 0);
        assert_eq!(report.contended_byte_seconds, 0.0);
    }

    #[test]
    fn pair_scores_capture_mixed_conflicts() {
        // Read-on-start jobs sharing the machine with steady readers.
        let mut outcomes: Vec<RunOutcome> = (0..5).map(|i| outcome(i, 0, 100, true)).collect();
        outcomes.extend((5..10).map(|i| outcome(i, 0, 400, false)));
        let report = analyze(&outcomes, 0.5 * GB, 60.0);
        assert!(!report.pair_scores.is_empty());
        let names: Vec<(String, String)> =
            report.pair_scores.iter().map(|(a, b, _)| (a.name(), b.name())).collect();
        assert!(
            names.iter().any(|(a, b)| (a.contains("read") && b.contains("read")) && a != b),
            "{names:?}"
        );
    }

    #[test]
    fn empty_outcomes() {
        let report = analyze(&[], 1.0, 60.0);
        assert_eq!(report.active_bins, 0);
        assert_eq!(report.contended_byte_seconds, 0.0);
        assert!(report.category_scores.is_empty());
    }
}
