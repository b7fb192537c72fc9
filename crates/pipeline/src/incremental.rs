//! Incremental (watch-folder) analysis.
//!
//! On a production machine Darshan logs appear one at a time as jobs
//! finish; a monitoring deployment wants the MOSAIC statistics updated
//! continuously, not recomputed from scratch each night. The
//! [`IncrementalAnalyzer`] folds traces in as they arrive and maintains:
//!
//! * the funnel counters,
//! * the all-runs category distribution (exact),
//! * the single-run (heaviest per application) distribution, updated by
//!   swapping a group's representative when a heavier run arrives,
//! * per-application run counts and modal categories for stability.
//!
//! Ingestion cost per trace is the categorization itself plus `O(log apps)`
//! bookkeeping; memory is `O(applications)`, not `O(traces)`.

use crate::dedup::AppKey;
use crate::executor::{ingest_one, Ingested};
use crate::funnel::FunnelStats;
use crate::source::TraceInput;
use mosaic_core::category::Category;
use mosaic_core::report::CategoryCounts;
use mosaic_core::{Categorizer, CategorizerConfig, TraceReport};
use mosaic_obs::{MetricsReport, MetricsSnapshot, Recorder, TraceTimeline};
use std::collections::{BTreeMap, BTreeSet};

/// Per-application incremental state.
#[derive(Debug, Clone)]
pub struct AppState {
    /// Valid runs seen.
    pub runs: usize,
    /// I/O weight of the heaviest run so far.
    pub best_weight: i64,
    /// Category set of the heaviest run (the group's representative).
    pub representative: BTreeSet<Category>,
    /// Frequency of each distinct category set (for modal stability).
    pub set_counts: BTreeMap<BTreeSet<Category>, usize>,
}

impl AppState {
    /// Fraction of runs sharing the modal category set.
    pub fn stability(&self) -> f64 {
        let modal = self.set_counts.values().copied().max().unwrap_or(0);
        if self.runs == 0 {
            1.0
        } else {
            modal as f64 / self.runs as f64
        }
    }
}

/// Streaming MOSAIC analyzer.
pub struct IncrementalAnalyzer {
    categorizer: Categorizer,
    funnel: FunnelStats,
    all_runs: CategoryCounts,
    apps: BTreeMap<AppKey, AppState>,
    recorder: Recorder,
}

impl IncrementalAnalyzer {
    /// New analyzer with the given thresholds.
    pub fn new(config: CategorizerConfig) -> Self {
        IncrementalAnalyzer {
            categorizer: Categorizer::new(config),
            funnel: FunnelStats::default(),
            all_runs: CategoryCounts::default(),
            apps: BTreeMap::new(),
            recorder: Recorder::new(),
        }
    }

    /// New analyzer with structured span tracing enabled: per-trace spans
    /// land in a ring of `capacity` entries, snapshotted by
    /// [`IncrementalAnalyzer::timeline`]. The analytical results are
    /// identical to an untraced analyzer's.
    pub fn with_tracing(config: CategorizerConfig, capacity: usize) -> Self {
        IncrementalAnalyzer { recorder: Recorder::with_tracer(capacity), ..Self::new(config) }
    }

    /// A current registry export: stage latency, gauges and evictions by
    /// reason, as `mosaic run --metrics-out` writes them.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.recorder.export_metrics()
    }

    /// Snapshot the span timeline accumulated so far; `None` unless the
    /// analyzer was built by [`IncrementalAnalyzer::with_tracing`].
    pub fn timeline(&self) -> Option<TraceTimeline> {
        self.recorder.timeline()
    }

    /// Ingest one trace. Returns the report for valid traces, `None` for
    /// evicted ones.
    pub fn ingest(&mut self, input: TraceInput) -> Option<TraceReport> {
        self.ingest_fetched(Ok(input))
    }

    /// Ingest one fetch result, accounting `Err` as an I/O eviction — the
    /// streaming twin of the batch executor's per-trace path (both run the
    /// same ingest code, so the funnels agree exactly).
    pub fn ingest_fetched(&mut self, fetched: std::io::Result<TraceInput>) -> Option<TraceReport> {
        let index = self.funnel.total;
        self.funnel.total += 1;
        let outcome = match ingest_one(fetched, index, &self.categorizer, &self.recorder) {
            Ingested::Evicted(reason) => {
                self.funnel.record_eviction(reason);
                return None;
            }
            Ingested::Valid(outcome) => outcome,
        };
        self.funnel.valid += 1;

        let report = outcome.report;
        self.all_runs.add(&report.categories);

        let state = self.apps.entry(outcome.app_key).or_insert_with(|| AppState {
            runs: 0,
            best_weight: i64::MIN,
            representative: BTreeSet::new(),
            set_counts: BTreeMap::new(),
        });
        state.runs += 1;
        *state.set_counts.entry(report.categories.clone()).or_insert(0) += 1;
        if outcome.weight > state.best_weight {
            state.best_weight = outcome.weight;
            state.representative = report.categories.clone();
        }
        self.funnel.unique_apps = self.apps.len();
        let apps = mosaic_darshan::convert::usize_to_u64(self.apps.len());
        self.recorder.pipeline_metrics().dedup_apps().set(apps);
        Some(report)
    }

    /// Current funnel counters.
    pub fn funnel(&self) -> &FunnelStats {
        &self.funnel
    }

    /// Per-stage timings and throughput since construction. Streaming is
    /// single-threaded, so `workers` is 1.
    pub fn metrics(&self) -> MetricsReport {
        self.recorder.finish(mosaic_darshan::convert::usize_to_u64(self.funnel.total), 1)
    }

    /// Current all-runs distribution (exact, streaming).
    pub fn all_runs_counts(&self) -> &CategoryCounts {
        &self.all_runs
    }

    /// Current single-run distribution (recomputed from the per-app
    /// representatives — `O(apps)`).
    pub fn single_run_counts(&self) -> CategoryCounts {
        CategoryCounts::from_sets(self.apps.values().map(|s| &s.representative))
    }

    /// Per-application state, keyed by `(uid, app)`.
    pub fn apps(&self) -> &BTreeMap<AppKey, AppState> {
        &self.apps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{process, PipelineConfig};
    use crate::source::{TraceSource, VecSource};
    use mosaic_darshan::counter::PosixCounter as C;
    use mosaic_darshan::counter::PosixFCounter as F;
    use mosaic_darshan::job::JobHeader;
    use mosaic_darshan::log::TraceLogBuilder;
    use mosaic_darshan::{mdf, TraceLog};

    fn log_for(uid: u32, exe: &str, bytes: i64) -> TraceLog {
        let mut b = TraceLogBuilder::new(JobHeader::new(1, uid, 4, 0, 1000).with_exe(exe));
        let r = b.begin_record("/in", -1);
        b.record_mut(r)
            .set(C::Reads, 4)
            .set(C::BytesRead, bytes)
            .set(C::Opens, 4)
            .setf(F::OpenStartTimestamp, 1.0)
            .setf(F::ReadStartTimestamp, 1.0)
            .setf(F::ReadEndTimestamp, 50.0);
        b.finish()
    }

    #[test]
    fn streaming_matches_batch_processing() {
        // The incremental analyzer must agree with the batch pipeline on
        // every aggregate, for the same inputs in any order.
        let inputs: Vec<TraceInput> = (0..40)
            .map(|i| {
                if i % 7 == 0 {
                    TraceInput::bytes(vec![9u8; 16]) // corrupt
                } else {
                    TraceInput::log(log_for(
                        i % 4,
                        &format!("/bin/app{}", i % 4),
                        (i as i64 + 1) << 20,
                    ))
                }
            })
            .collect();

        let batch = process(&VecSource::new(inputs.clone()), &PipelineConfig::default());

        let mut inc = IncrementalAnalyzer::new(CategorizerConfig::default());
        for input in inputs {
            inc.ingest(input);
        }

        assert_eq!(inc.funnel(), &batch.funnel);
        assert_eq!(inc.all_runs_counts(), &batch.all_runs_counts());
        assert_eq!(inc.single_run_counts(), batch.single_run_counts());
        // The streaming recorder saw the same per-trace stages.
        let metrics = inc.metrics();
        assert_eq!(metrics.traces, 40);
        assert!(metrics.stages.iter().any(|s| s.stage == "parse" && s.calls > 0));
    }

    #[test]
    fn streaming_log_and_byte_inputs_agree() {
        // The same traces streamed as decoded logs and as wire bytes must
        // land in the same funnel and category counts: the two input kinds
        // differ only in how they are extracted into the arena.
        let logs: Vec<TraceLog> = (0..12)
            .map(|i| log_for(i % 3, &format!("/bin/app{}", i % 3), (i as i64 + 1) << 20))
            .collect();
        let mut from_logs = IncrementalAnalyzer::new(CategorizerConfig::default());
        let mut from_bytes = IncrementalAnalyzer::new(CategorizerConfig::default());
        for log in &logs {
            from_bytes.ingest(TraceInput::bytes(mdf::to_bytes(log)));
            from_logs.ingest(TraceInput::log(log.clone()));
        }
        assert_eq!(from_logs.funnel(), from_bytes.funnel());
        assert_eq!(from_logs.funnel().valid, 12);
        assert_eq!(from_logs.all_runs_counts(), from_bytes.all_runs_counts());
        assert_eq!(from_logs.single_run_counts(), from_bytes.single_run_counts());
    }

    #[test]
    fn traced_streaming_matches_untraced_and_keeps_spans() {
        let inputs: Vec<TraceInput> = (0..10)
            .map(|i| {
                if i == 3 {
                    TraceInput::bytes(vec![0u8; 8]) // corrupt
                } else {
                    TraceInput::bytes(mdf::to_bytes(&log_for(i, "/bin/app", (i as i64 + 1) << 20)))
                }
            })
            .collect();

        let mut plain = IncrementalAnalyzer::new(CategorizerConfig::default());
        let mut traced = IncrementalAnalyzer::with_tracing(CategorizerConfig::default(), 256);
        assert!(plain.timeline().is_none());
        for input in inputs {
            plain.ingest(input.clone());
            traced.ingest(input);
        }

        assert_eq!(plain.funnel(), traced.funnel());
        assert_eq!(plain.all_runs_counts(), traced.all_runs_counts());
        assert_eq!(plain.single_run_counts(), traced.single_run_counts());

        let timeline = traced.timeline().expect("tracing enabled");
        assert_eq!(timeline.dropped, 0);
        // 9 valid traces × 4 spans (parse/validate/merge/categorize; the
        // streaming path does not fetch) + 1 parse span for the corrupt one.
        assert_eq!(timeline.recorded, 9 * 4 + 1);
        assert!(timeline
            .events
            .iter()
            .any(|e| e.trace == 3 && e.outcome == mosaic_obs::SpanOutcome::FormatCorrupt));
    }

    #[test]
    fn metrics_snapshot_counts_evictions_like_the_funnel() {
        let mut inc = IncrementalAnalyzer::new(CategorizerConfig::default());
        for i in 0..25u32 {
            let input = match i % 6 {
                0 => TraceInput::bytes(vec![0u8; 8]),   // truncated
                1 => TraceInput::bytes(vec![b'X'; 64]), // bad magic
                _ => TraceInput::log(log_for(i % 3, "/bin/app", (i64::from(i) + 1) << 20)),
            };
            inc.ingest(input);
        }
        inc.ingest_fetched(Err(std::io::Error::other("vanished")));
        let snapshot = inc.metrics_snapshot();
        let evictions = snapshot
            .families
            .iter()
            .find(|f| f.name == "mosaic.pipeline.evictions")
            .expect("eviction counters");
        let exported: BTreeMap<String, f64> =
            evictions.samples.iter().map(|s| (s.labels[0].1.clone(), s.value)).collect();
        let funnel: BTreeMap<String, f64> =
            inc.funnel().by_reason.iter().map(|(r, &n)| (r.slug(), n as f64)).collect();
        assert_eq!(exported, funnel);
        assert_eq!(funnel.len(), 3, "truncated, bad magic and io error");
    }

    #[test]
    fn representative_swaps_when_heavier_run_arrives() {
        let mut inc = IncrementalAnalyzer::new(CategorizerConfig::default());
        inc.ingest(TraceInput::log(log_for(1, "/bin/a", 1 << 20))); // light, quiet
        let single_before = inc.single_run_counts();
        // A heavy run of the same app: representative becomes significant.
        inc.ingest(TraceInput::log(log_for(1, "/bin/a", 900 << 20)));
        let single_after = inc.single_run_counts();
        assert_eq!(inc.funnel().unique_apps, 1);
        assert_ne!(single_before, single_after);
        use mosaic_core::category::{OpKindTag, TemporalityLabel};
        let on_start =
            Category::Temporality { kind: OpKindTag::Read, label: TemporalityLabel::OnStart };
        assert_eq!(single_after.count(on_start), 1);
    }

    #[test]
    fn stability_tracks_modal_set() {
        let mut inc = IncrementalAnalyzer::new(CategorizerConfig::default());
        for _ in 0..7 {
            inc.ingest(TraceInput::log(log_for(1, "/bin/a", 900 << 20)));
        }
        for _ in 0..3 {
            inc.ingest(TraceInput::log(log_for(1, "/bin/a", 1 << 20)));
        }
        let state = inc.apps().values().next().unwrap();
        assert_eq!(state.runs, 10);
        assert!((state.stability() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn watch_folder_flow() {
        // Simulate a directory growing over time via DirSource re-scans.
        let dir = std::env::temp_dir().join(format!("mosaic_inc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut inc = IncrementalAnalyzer::new(CategorizerConfig::default());
        let mut seen = std::collections::BTreeSet::new();

        for wave in 0..3 {
            for j in 0..4 {
                let log =
                    log_for(wave, &format!("/bin/w{wave}"), ((wave * 4 + j + 1) as i64) << 20);
                let path = dir.join(format!("t{wave}_{j}.mdf"));
                std::fs::write(&path, mdf::to_bytes(&log)).unwrap();
            }
            // Poll: ingest only unseen files.
            let source = crate::source::DirSource::scan(&dir).unwrap();
            for (i, path) in source.paths().iter().enumerate() {
                if seen.insert(path.clone()) {
                    inc.ingest_fetched(source.fetch(i));
                }
            }
        }
        assert_eq!(inc.funnel().total, 12);
        assert_eq!(inc.funnel().valid, 12);
        assert_eq!(inc.funnel().unique_apps, 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
