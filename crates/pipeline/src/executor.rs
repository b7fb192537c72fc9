//! The parallel executor: fetch → parse → validate → categorize → aggregate.

use crate::dedup::{heaviest_per_app, AppKey};
use crate::funnel::FunnelStats;
use crate::source::{TraceInput, TraceSource};
use mosaic_core::category::Category;
use mosaic_core::columnar::TraceArena;
use mosaic_core::report::CategoryCounts;
use mosaic_core::{Categorizer, CategorizerConfig, JaccardMatrix, TraceReport};
use mosaic_darshan::convert::usize_to_u64;
use mosaic_darshan::{validate, EvictClass, EvictReason, OperationView, TraceLog, TraceView};
use mosaic_obs::lock::{self, with_lock};
use mosaic_obs::{
    MetricsReport, MetricsSnapshot, Recorder, Span, SpanOutcome, Stage, TraceTimeline,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

/// Progress callback: `(traces done, traces total, live recorder)`. Called
/// from worker threads; must be cheap and thread-safe. The recorder gives
/// renderers (e.g. [`mosaic_obs::ProgressLine`]) the live per-stage atomics
/// without any extra bookkeeping on the hot path.
pub type ProgressFn = Arc<dyn Fn(usize, usize, &Recorder) + Send + Sync>;

/// Executor configuration.
#[derive(Clone, Default)]
pub struct PipelineConfig {
    /// Worker threads; `None` uses Rayon's global default (one per core).
    pub threads: Option<usize>,
    /// Categorizer thresholds.
    pub categorizer: CategorizerConfig,
    /// Optional progress callback, invoked after every ingested trace with
    /// a relaxed atomic counter — contention-free even at full parallelism.
    pub progress: Option<ProgressFn>,
    /// Structured span tracing: `Some(capacity)` records per-trace spans
    /// into a bounded ring of that many entries and attaches the resulting
    /// [`TraceTimeline`] to the [`PipelineResult`]. `None` (the default)
    /// keeps the aggregate metrics only — zero extra allocation per trace.
    pub trace_capacity: Option<usize>,
}

impl std::fmt::Debug for PipelineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineConfig")
            .field("threads", &self.threads)
            .field("categorizer", &self.categorizer)
            .field("progress", &self.progress.is_some())
            .field("trace_capacity", &self.trace_capacity)
            .finish()
    }
}

/// One valid trace's pipeline outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Index in the source.
    pub index: usize,
    /// Application grouping key.
    pub app_key: AppKey,
    /// I/O weight (total bytes moved) used by dedup.
    pub weight: i64,
    /// Number of records deleted by per-record sanitization.
    pub sanitized_records: usize,
    /// Job start (Unix seconds) — wallclock placement for interference
    /// analysis.
    pub start_time: i64,
    /// Job end (Unix seconds).
    pub end_time: i64,
    /// The full MOSAIC report.
    pub report: TraceReport,
}

/// Aggregated pipeline result.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Funnel accounting (Fig 3), with the typed eviction breakdown.
    pub funnel: FunnelStats,
    /// Valid traces, sorted by source index.
    pub outcomes: Vec<RunOutcome>,
    /// Positions (into `outcomes`) of the single-run representatives: the
    /// heaviest trace of each application.
    pub representatives: Vec<usize>,
    /// Per-stage timings and throughput for this run.
    pub metrics: MetricsReport,
    /// Structured span timeline, present when the run was configured with
    /// [`PipelineConfig::trace_capacity`]. Deliberately *not* part of any
    /// `ResultSnapshot`: timelines carry wall-clock values and must never
    /// feed the determinism oracles.
    pub timeline: Option<TraceTimeline>,
    /// The run's registry export: stage latency and bytes, gauges,
    /// eviction-by-reason counters and per-worker utilization. [`process`]
    /// always fills it; results assembled elsewhere may have none. Like the
    /// timeline, it carries timing telemetry and is excluded from every
    /// `ResultSnapshot`.
    pub registry: Option<MetricsSnapshot>,
}

impl PipelineResult {
    /// Category sets of every valid run (the all-runs view).
    pub fn all_runs_sets(&self) -> Vec<BTreeSet<Category>> {
        self.outcomes.iter().map(|o| o.report.categories.clone()).collect()
    }

    /// Category sets of the single-run representatives.
    pub fn single_run_sets(&self) -> Vec<BTreeSet<Category>> {
        self.representatives().map(|o| o.report.categories.clone()).collect()
    }

    /// Category distribution over all valid runs (PFS-load view).
    pub fn all_runs_counts(&self) -> CategoryCounts {
        CategoryCounts::from_sets(self.outcomes.iter().map(|o| &o.report.categories))
    }

    /// Category distribution over the single-run set (application view).
    pub fn single_run_counts(&self) -> CategoryCounts {
        CategoryCounts::from_sets(self.representatives().map(|o| &o.report.categories))
    }

    /// Jaccard matrix over the single-run set (Fig 5 is computed on the
    /// categorized, deduplicated traces).
    pub fn jaccard_single_run(&self) -> JaccardMatrix {
        JaccardMatrix::compute(self.representatives().map(|o| &o.report.categories))
    }

    /// The representative outcomes themselves. Positions are produced by
    /// dedup over `outcomes`, so every one resolves; `filter_map` keeps the
    /// lookup off the panic path anyway.
    pub fn representatives(&self) -> impl Iterator<Item = &RunOutcome> + '_ {
        self.representatives.iter().filter_map(move |&p| self.outcomes.get(p))
    }
}

/// The fate of one ingested trace. Shared by the batch executor and the
/// incremental analyzer so both account evictions identically.
pub(crate) enum Ingested {
    /// The trace was evicted, with the typed reason.
    Evicted(EvictReason),
    /// The trace survived the funnel.
    Valid(Box<RunOutcome>),
}

/// The span class recorded on an eviction's terminal stage.
fn outcome_of(reason: EvictReason) -> SpanOutcome {
    match reason.class() {
        EvictClass::Io => SpanOutcome::IoError,
        EvictClass::Format => SpanOutcome::FormatCorrupt,
        EvictClass::Validation => SpanOutcome::Invalid,
    }
}

/// One trace's span identity — recorder, trace id, worker lane — threaded
/// through the stage call sites so each emits a full [`Span`] without
/// re-deriving the lane. `Copy`, stack-only: when tracing is off the spans
/// degenerate to the aggregate counters with zero extra allocation.
#[derive(Clone, Copy)]
pub(crate) struct SpanScope<'a> {
    recorder: &'a Recorder,
    trace: u64,
    worker: u64,
}

impl<'a> SpanScope<'a> {
    /// A scope for trace `index` on the current Rayon worker (lane
    /// `1 + pool index`; lane 0 is a caller outside any pool).
    pub(crate) fn current(recorder: &'a Recorder, index: usize) -> SpanScope<'a> {
        SpanScope {
            recorder,
            trace: usize_to_u64(index),
            worker: rayon::current_thread_index().map_or(0, |i| usize_to_u64(i) + 1),
        }
    }

    /// Record one completed stage span.
    pub(crate) fn emit(
        &self,
        stage: Stage,
        start_ns: u64,
        duration_ns: u64,
        bytes: u64,
        outcome: SpanOutcome,
        detail: Option<&str>,
    ) {
        self.recorder.span(Span {
            trace: self.trace,
            stage,
            start_ns,
            duration_ns,
            bytes,
            worker: self.worker,
            outcome,
            detail,
        });
    }

    /// Record a stage span that ends in eviction, count the eviction under
    /// its typed slug, and produce the funnel fate. Only evictions pay for
    /// the slug and the registry lookup; valid traces record through
    /// pre-registered handles alone.
    fn evict(
        &self,
        stage: Stage,
        start_ns: u64,
        duration_ns: u64,
        bytes: u64,
        reason: EvictReason,
    ) -> Ingested {
        let slug = reason.slug();
        self.recorder.count_eviction(&slug);
        self.emit(stage, start_ns, duration_ns, bytes, outcome_of(reason), Some(&slug));
        Ingested::Evicted(reason)
    }
}

thread_local! {
    /// The per-worker trace arena. Thread-local (not per-call) so
    /// steady-state ingestion reuses grown buffers instead of reallocating
    /// per trace; loading and the merge scratch only ever `clear()` it.
    static ARENA: std::cell::RefCell<TraceArena> = std::cell::RefCell::new(TraceArena::default());
}

/// What the extraction step hands the shared categorize tail besides the
/// loaded arena: the per-trace fields of the eventual [`RunOutcome`].
struct Extracted {
    app_key: AppKey,
    sanitized_records: usize,
    start_time: i64,
    end_time: i64,
}

/// Byte input: borrowed parse, then one walk over the wire records that
/// validates each one and extracts the valid ones into the arena. Skipping
/// the flagged records is what `delete_invalid` does for log inputs.
fn extract_bytes(
    bytes: &[u8],
    arena: &mut TraceArena,
    recorder: &Recorder,
    scope: SpanScope<'_>,
) -> Result<Extracted, Ingested> {
    let wire = usize_to_u64(bytes.len());
    let t0 = recorder.now_ns();
    let parsed = TraceView::parse(bytes);
    let dur = recorder.now_ns().saturating_sub(t0);
    let view = match parsed {
        Ok(view) => {
            scope.emit(Stage::Parse, t0, dur, wire, SpanOutcome::Ok, None);
            view
        }
        Err(err) => return Err(scope.evict(Stage::Parse, t0, dur, wire, EvictReason::from(&err))),
    };

    // One walk checks and extracts every record, so the validate span
    // covers the extraction too.
    let t0 = recorder.now_ns();
    let report = arena.trace.load_checked(&view);
    let dur = recorder.now_ns().saturating_sub(t0);
    if report.is_fatal() {
        return Err(scope.evict(Stage::Validate, t0, dur, 0, report.evict_reason()));
    }
    scope.emit(Stage::Validate, t0, dur, 0, SpanOutcome::Ok, None);

    Ok(Extracted {
        app_key: view.app_key(),
        sanitized_records: report.record_errors.len(),
        start_time: view.start_time,
        end_time: view.end_time,
    })
}

/// Log input: validate copy-on-write — the read-only pass decides the fate,
/// and the log is cloned out of its `Arc` only when records actually need
/// deleting — then extract its operation view into the arena.
fn extract_log(
    log: Arc<TraceLog>,
    arena: &mut TraceArena,
    recorder: &Recorder,
    scope: SpanScope<'_>,
) -> Result<Extracted, Ingested> {
    let t0 = recorder.now_ns();
    let report = validate::validate(&log);
    let fate = if report.is_fatal() {
        Err(report.evict_reason())
    } else if report.record_errors.is_empty() {
        Ok((log, 0))
    } else {
        let mut owned = Arc::unwrap_or_clone(log);
        let deleted = validate::delete_invalid(&mut owned, &report);
        Ok((Arc::new(owned), deleted))
    };
    let dur = recorder.now_ns().saturating_sub(t0);
    let (log, sanitized_records) = match fate {
        Ok(pair) => pair,
        Err(reason) => return Err(scope.evict(Stage::Validate, t0, dur, 0, reason)),
    };
    scope.emit(Stage::Validate, t0, dur, 0, SpanOutcome::Ok, None);

    arena.trace.load_view(&OperationView::from_log(&log));
    arena.trace.weight = log.io_weight();
    let header = log.header();
    Ok(Extracted {
        app_key: header.app_key(),
        sanitized_records,
        start_time: header.start_time,
        end_time: header.end_time,
    })
}

/// Parse → validate → categorize one fetched input, recording per-stage
/// timings and spans. The fetch itself (and its span) is the caller's
/// business; the `Err` fate of a fetch is still accounted here so batch and
/// streaming funnels agree.
///
/// Byte and log inputs differ only in how they are extracted into the
/// worker's arena; from there they share one categorize tail.
pub(crate) fn ingest_one(
    fetched: std::io::Result<TraceInput>,
    index: usize,
    categorizer: &Categorizer,
    recorder: &Recorder,
) -> Ingested {
    let scope = SpanScope::current(recorder, index);
    let input = match fetched {
        Ok(input) => input,
        Err(_) => {
            recorder.count_eviction(&EvictReason::IoError.slug());
            return Ingested::Evicted(EvictReason::IoError);
        }
    };
    ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        let extracted = match input {
            TraceInput::Bytes(bytes) => extract_bytes(&bytes, &mut arena, recorder, scope),
            TraceInput::Log(log) => extract_log(log, &mut arena, recorder, scope),
        };
        let extracted = match extracted {
            Ok(extracted) => extracted,
            Err(evicted) => return evicted,
        };
        let store = recorder.pipeline_metrics();
        let resident = arena.resident_bytes();
        store.arena_resident().set(resident);
        store.arena_peak().set_max(resident);
        // Categorization times itself; merge starts at `t0` and the three
        // characterizations follow it, so the two spans tile the measured
        // total.
        let t0 = recorder.now_ns();
        let (report, timings) = categorizer.categorize_arena_timed(&mut arena);
        scope.emit(Stage::Merge, t0, timings.merge_nanos, 0, SpanOutcome::Ok, None);
        scope.emit(
            Stage::Categorize,
            t0.saturating_add(timings.merge_nanos),
            timings.total_nanos.saturating_sub(timings.merge_nanos),
            0,
            SpanOutcome::Ok,
            None,
        );
        Ingested::Valid(Box::new(RunOutcome {
            index,
            app_key: extracted.app_key,
            weight: arena.trace.weight,
            sanitized_records: extracted.sanitized_records,
            start_time: extracted.start_time,
            end_time: extracted.end_time,
            report,
        }))
    })
}

/// A memoized Rayon pool per explicit thread count. Building a pool spawns
/// OS threads; repeated [`process`] calls with the same `threads: Some(n)`
/// must not pay that cost (or leak threads) every time.
#[expect(
    clippy::expect_used,
    reason = "pool construction fails only on OS thread-spawn exhaustion at startup, not on trace input"
)]
fn pool_for(n: usize) -> Arc<rayon::ThreadPool> {
    static POOLS: OnceLock<Mutex<BTreeMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();
    let registry = POOLS.get_or_init(|| Mutex::new(BTreeMap::new()));
    // The registry holds only built pools; a panic elsewhere cannot leave it
    // half-written, so recovering from poisoning is sound.
    with_lock(registry, |pools| {
        pools
            .entry(n)
            .or_insert_with(|| {
                Arc::new(
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(n)
                        .build()
                        .expect("thread pool construction"),
                )
            })
            .clone()
    })
}

/// Run the full pipeline over a source.
pub fn process<S: TraceSource>(source: &S, config: &PipelineConfig) -> PipelineResult {
    // Checked before the recorder registers its metrics: a worker that
    // needs a lock the caller holds would deadlock the fan-out below.
    debug_assert_eq!(lock::held(), 0, "process() fans out with a lock held on the calling thread");
    let categorizer = Categorizer::new(config.categorizer.clone());
    // Worker lanes are 1-based (lane 0 is a caller outside any pool), so
    // size for the pool width plus the coordinator lane.
    let lanes = config.threads.map_or_else(rayon::current_num_threads, |n| n.max(1));
    let recorder = match config.trace_capacity {
        Some(capacity) => Recorder::with_tracer(capacity),
        None => Recorder::new(),
    }
    .with_worker_lanes(lanes + 1);
    let store = recorder.pipeline_metrics();
    #[expect(
        clippy::disallowed_types,
        reason = "pure progress counter: the value only feeds the monotonic done/total display and guards no shared state; ingest results flow through the scoped join, not this count"
    )]
    let done = std::sync::atomic::AtomicUsize::new(0);
    let total = source.len();
    let run = || {
        (0..total)
            .into_par_iter()
            .map(|i| {
                let scope = SpanScope::current(&recorder, i);
                store.inflight().add(1);
                let t0 = recorder.now_ns();
                let fetched = source.fetch(i);
                let dur = recorder.now_ns().saturating_sub(t0);
                let wire = fetched.as_ref().map(|f| usize_to_u64(f.wire_len())).unwrap_or(0);
                let outcome = if fetched.is_ok() { SpanOutcome::Ok } else { SpanOutcome::IoError };
                scope.emit(Stage::Fetch, t0, dur, wire, outcome, None);
                let out = ingest_one(fetched, i, &categorizer, &recorder);
                store.inflight().sub(1);
                if let Some(progress) = &config.progress {
                    let n = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                    progress(n, total, &recorder);
                }
                out
            })
            .collect::<Vec<Ingested>>()
    };
    let (ingested, workers) = match config.threads {
        Some(n) => (pool_for(n.max(1)).install(run), n.max(1)),
        None => (run(), rayon::current_num_threads()),
    };

    let mut funnel = FunnelStats { total, ..Default::default() };
    let mut outcomes: Vec<RunOutcome> = Vec::new();
    for item in ingested {
        match item {
            Ingested::Evicted(reason) => funnel.record_eviction(reason),
            Ingested::Valid(outcome) => outcomes.push(*outcome),
        }
    }
    funnel.valid = outcomes.len();

    let representatives = heaviest_per_app(outcomes.iter().map(|o| (&o.app_key, o.weight)));
    funnel.unique_apps = representatives.len();

    store.dedup_apps().set(usize_to_u64(representatives.len()));
    let registry = Some(recorder.export_metrics());
    let metrics = recorder.finish(usize_to_u64(total), workers);
    let timeline = recorder.timeline();
    PipelineResult { funnel, outcomes, representatives, metrics, timeline, registry }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{DirSource, VecSource};
    use mosaic_darshan::counter::PosixCounter as C;
    use mosaic_darshan::counter::PosixFCounter as F;
    use mosaic_darshan::job::JobHeader;
    use mosaic_darshan::log::TraceLogBuilder;
    use mosaic_darshan::{mdf, ValidityError};

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
    fn funnel_counts_each_fate() {
        let inputs = vec![
            TraceInput::log(log_for(1, "/bin/a", 1000)),
            TraceInput::bytes(vec![0u8, 1, 2, 3]), // format corrupt
            TraceInput::log({
                // fatally invalid: zero-runtime header
                let b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 5, 5));
                b.finish()
            }),
            TraceInput::log(log_for(1, "/bin/a", 2000)),
        ];
        let result = process(&VecSource::new(inputs), &PipelineConfig::default());
        assert_eq!(result.funnel.total, 4);
        assert_eq!(result.funnel.format_corrupt, 1);
        assert_eq!(result.funnel.invalid, 1);
        assert_eq!(result.funnel.valid, 2);
        assert_eq!(result.funnel.unique_apps, 1);
        assert_eq!(
            result.funnel.by_reason
                [&EvictReason::ValidationFatal(ValidityError::NonPositiveRuntime)],
            1
        );
    }

    #[test]
    fn taxonomy_sums_to_total_under_parallel_execution() {
        // A deliberately mixed bag, processed on an explicit 4-thread pool:
        // the typed reasons plus the valid count must account for every
        // single input — nothing double-counted, nothing lost.
        let valid_bytes = mdf::to_bytes(&log_for(1, "/bin/a", 1000));
        let mut bad_crc = valid_bytes.clone();
        let end = bad_crc.len() - 1;
        bad_crc[end] ^= 0xFF;
        let mut inputs = Vec::new();
        for i in 0..10u32 {
            inputs.push(TraceInput::log(log_for(i, "/bin/a", 1000)));
            // Too short to even hold the file header → truncated.
            inputs.push(TraceInput::bytes(b"garbage".to_vec()));
            // Long enough, but the magic is wrong.
            inputs.push(TraceInput::bytes(vec![b'X'; 64]));
            inputs.push(TraceInput::bytes(bad_crc.clone()));
            inputs.push(TraceInput::log(
                TraceLogBuilder::new(JobHeader::new(1, i, 4, 5, 5)).finish(),
            ));
        }
        let config = PipelineConfig { threads: Some(4), ..Default::default() };
        let result = process(&VecSource::new(inputs), &config);
        let f = &result.funnel;
        assert_eq!(f.total, 50);
        assert_eq!(f.valid, 10);
        assert_eq!(f.by_reason.values().sum::<usize>(), f.evicted());
        assert_eq!(f.evicted() + f.valid, f.total);
        assert_eq!(f.by_reason[&EvictReason::Truncated], 10);
        assert_eq!(f.by_reason[&EvictReason::BadMagic], 10);
        assert_eq!(f.by_reason[&EvictReason::ChecksumMismatch], 10);
        assert_eq!(
            f.by_reason[&EvictReason::ValidationFatal(ValidityError::NonPositiveRuntime)],
            10
        );
        assert_eq!(f.format_corrupt, 30);
    }

    #[test]
    fn unreadable_file_is_io_error_not_format_corruption() {
        let dir = std::env::temp_dir().join(format!("mosaic_exec_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bytes = mdf::to_bytes(&log_for(1, "/bin/a", 1000));
        std::fs::write(dir.join("ok.mdf"), &bytes).unwrap();
        std::fs::write(dir.join("vanishes.mdf"), &bytes).unwrap();
        let source = DirSource::scan(&dir).unwrap();
        std::fs::remove_file(dir.join("vanishes.mdf")).unwrap();

        let result = process(&source, &PipelineConfig::default());
        assert_eq!(result.funnel.total, 2);
        assert_eq!(result.funnel.io_error, 1);
        assert_eq!(result.funnel.format_corrupt, 0);
        assert_eq!(result.funnel.valid, 1);
        assert_eq!(result.funnel.by_reason[&EvictReason::IoError], 1);
        let registry = result.registry.expect("process always exports a registry");
        let evictions = registry.families.iter().find(|f| f.name == "mosaic.pipeline.evictions");
        let counted: Vec<(String, f64)> = evictions
            .map(|f| f.samples.iter().map(|s| (s.labels[0].1.clone(), s.value)).collect())
            .unwrap_or_default();
        assert_eq!(counted, [("io_error".to_owned(), 1.0)], "one count under the io reason");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_cover_every_stage() {
        let inputs: Vec<TraceInput> =
            (0..8).map(|i| TraceInput::bytes(mdf::to_bytes(&log_for(i, "/bin/a", 1000)))).collect();
        let result = process(&VecSource::new(inputs), &PipelineConfig::default());
        let m = &result.metrics;
        assert_eq!(m.traces, 8);
        assert!(m.bytes > 0, "parse stage must account wire bytes");
        assert_eq!(m.stages.len(), 5);
        for snap in &m.stages {
            assert_eq!(snap.calls, 8, "stage {} must run once per trace", snap.stage);
        }
        assert!(m.wall_seconds > 0.0);
        assert!(m.traces_per_second > 0.0);
    }

    #[test]
    fn explicit_pools_are_reused_across_process_calls() {
        let a = pool_for(3);
        let b = pool_for(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.current_num_threads(), 3);
        // And repeated runs through the public API keep working.
        let inputs: Vec<TraceInput> =
            (0..6).map(|i| TraceInput::log(log_for(i, "/bin/a", 100))).collect();
        let config = PipelineConfig { threads: Some(3), ..Default::default() };
        let one = process(&VecSource::new(inputs.clone()), &config);
        let two = process(&VecSource::new(inputs), &config);
        assert_eq!(one.outcomes, two.outcomes);
    }

    #[test]
    fn dedup_keeps_heaviest() {
        let inputs = vec![
            TraceInput::log(log_for(1, "/bin/a x", 1000)),
            TraceInput::log(log_for(1, "/bin/a y", 9000)),
            TraceInput::log(log_for(2, "/bin/b", 500)),
        ];
        let result = process(&VecSource::new(inputs), &PipelineConfig::default());
        assert_eq!(result.representatives.len(), 2);
        let reps: Vec<i64> = result.representatives().map(|o| o.weight).collect();
        assert!(reps.contains(&9000));
        assert!(!reps.contains(&1000));
    }

    #[test]
    fn outcomes_are_index_sorted_regardless_of_parallel_order() {
        let inputs: Vec<TraceInput> =
            (0..50).map(|i| TraceInput::log(log_for(i, &format!("/bin/app{i}"), 100))).collect();
        let result = process(&VecSource::new(inputs), &PipelineConfig::default());
        assert!(result.outcomes.windows(2).all(|w| w[0].index < w[1].index));
        assert_eq!(result.funnel.unique_apps, 50);
    }

    #[test]
    fn explicit_thread_count_gives_same_answer() {
        let inputs: Vec<TraceInput> =
            (0..40).map(|i| TraceInput::log(log_for(i % 5, "/bin/a", i as i64 * 10))).collect();
        let a = process(&VecSource::new(inputs.clone()), &PipelineConfig::default());
        let two = PipelineConfig { threads: Some(2), ..Default::default() };
        let b = process(&VecSource::new(inputs.clone()), &two);
        let one = PipelineConfig { threads: Some(1), ..Default::default() };
        let c = process(&VecSource::new(inputs), &one);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(b.outcomes, c.outcomes);
        assert_eq!(a.representatives, c.representatives);
    }

    #[test]
    fn aggregates_are_consistent() {
        let inputs = vec![
            TraceInput::log(log_for(1, "/bin/a", 500 << 20)),
            TraceInput::log(log_for(1, "/bin/a", 600 << 20)),
            TraceInput::log(log_for(2, "/bin/b", 700 << 20)),
        ];
        let result = process(&VecSource::new(inputs), &PipelineConfig::default());
        assert_eq!(result.all_runs_counts().total, 3);
        assert_eq!(result.single_run_counts().total, 2);
        let jaccard = result.jaccard_single_run();
        assert!(!jaccard.categories.is_empty());
    }

    #[test]
    fn empty_source() {
        let result = process(&VecSource::new(vec![]), &PipelineConfig::default());
        assert_eq!(result.funnel.total, 0);
        assert!(result.outcomes.is_empty());
        assert!(result.representatives.is_empty());
        assert_eq!(result.metrics.traces, 0);
    }

    // Release builds do not check: there the run below completes.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "process() fans out with a lock held"))]
    fn process_inside_a_lock_panics_before_it_fans_out() {
        let inputs = vec![TraceInput::log(log_for(0, "/bin/a", 100))];
        let registry = Mutex::new(());
        with_lock(&registry, |_| process(&VecSource::new(inputs), &PipelineConfig::default()));
    }

    #[test]
    fn pool_for_builds_one_pool_per_width_and_reuses_it() {
        let three = pool_for(3);
        assert!(Arc::ptr_eq(&three, &pool_for(3)), "a width's pool is memoized");
        assert_eq!(three.current_num_threads(), 3);
        assert!(!Arc::ptr_eq(&three, &pool_for(2)));
        assert_eq!(lock::held(), 0);
    }

    #[test]
    fn two_threads_asking_for_one_width_share_one_pool() {
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| pool_for(5));
            let b = scope.spawn(|| pool_for(5));
            (a.join().expect("first"), b.join().expect("second"))
        });
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn parallel_progress_counts_each_trace_once() {
        // The `done` counter's value is consumed: under two workers each
        // trace must still get its own count, 1..=total.
        let inputs: Vec<TraceInput> =
            (0..40).map(|i| TraceInput::log(log_for(i, "/bin/a", 100))).collect();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let config = PipelineConfig {
            threads: Some(2),
            progress: Some(Arc::new(move |done, _total, _recorder: &Recorder| {
                with_lock(&sink, |s| s.push(done));
            })),
            ..Default::default()
        };
        let _ = process(&VecSource::new(inputs), &config);
        let mut seen = with_lock(&seen, std::mem::take);
        seen.sort_unstable();
        assert_eq!(seen, (1..=40).collect::<Vec<usize>>());
    }

    /// One debug run through every production lock: the pool registry,
    /// the metrics registry (registration, an eviction's lazy counter, the
    /// export), the span ring and the progress line's state. A nested
    /// acquisition anywhere panics here.
    #[test]
    fn a_traced_parallel_run_with_progress_takes_no_lock_inside_another() {
        let mut inputs: Vec<TraceInput> = (0..16)
            .map(|i| TraceInput::bytes(mdf::to_bytes(&log_for(i, &format!("/bin/app{i}"), 500))))
            .collect();
        inputs.push(TraceInput::bytes(b"not an MDF file".to_vec()));
        let line = Arc::new(mosaic_obs::ProgressLine::new(std::time::Duration::ZERO));
        let ticker = Arc::clone(&line);
        let config = PipelineConfig {
            threads: Some(2),
            trace_capacity: Some(64),
            progress: Some(Arc::new(move |done, total, recorder: &Recorder| {
                let _ = ticker.tick(done, total, recorder);
            })),
            ..Default::default()
        };
        let result = process(&VecSource::new(inputs), &config);
        assert_eq!(result.funnel.total, 17);
        assert_eq!(result.funnel.evicted(), 1);
        assert!(result.timeline.is_some_and(|t| t.recorded > 0));
        assert_eq!(lock::held(), 0);
    }

    #[test]
    fn progress_callback_fires_once_per_trace() {
        use mosaic_obs::{Counter, Gauge};
        let inputs: Vec<TraceInput> =
            (0..25).map(|i| TraceInput::log(log_for(i, "/bin/a", 100))).collect();
        let calls = Arc::new(Counter::new());
        let max_seen = Arc::new(Gauge::new());
        let c2 = calls.clone();
        let m2 = max_seen.clone();
        let config = PipelineConfig {
            progress: Some(Arc::new(move |done, total, recorder: &Recorder| {
                assert_eq!(total, 25);
                assert!(recorder.stage(Stage::Validate).count() > 0);
                c2.inc();
                m2.set_max(usize_to_u64(done));
            })),
            ..Default::default()
        };
        let _ = process(&VecSource::new(inputs), &config);
        assert_eq!(calls.get(), 25);
        assert_eq!(max_seen.get(), 25);
    }

    #[test]
    fn tracing_yields_identical_results_plus_a_timeline() {
        let inputs: Vec<TraceInput> = (0..12)
            .map(|i| TraceInput::bytes(mdf::to_bytes(&log_for(i, &format!("/bin/app{i}"), 1000))))
            .collect();
        let plain = process(&VecSource::new(inputs.clone()), &PipelineConfig::default());
        assert!(plain.timeline.is_none(), "tracing off must attach no timeline");

        let traced_cfg = PipelineConfig { trace_capacity: Some(1024), ..Default::default() };
        let traced = process(&VecSource::new(inputs), &traced_cfg);

        // The analytical result is byte-for-byte unaffected by tracing.
        assert_eq!(plain.funnel, traced.funnel);
        assert_eq!(plain.outcomes, traced.outcomes);
        assert_eq!(plain.representatives, traced.representatives);

        let timeline = traced.timeline.expect("tracing on must attach a timeline");
        assert_eq!(timeline.capacity, 1024);
        assert_eq!(timeline.recorded, 12 * 5, "five spans per fully-processed trace");
        assert_eq!(timeline.dropped, 0);
        for stage in Stage::ALL {
            let of_stage = timeline.events.iter().filter(|e| e.stage == stage).count();
            assert_eq!(of_stage, 12, "every trace must have a {stage} span");
        }
        let traces: BTreeSet<u64> = timeline.events.iter().map(|e| e.trace).collect();
        assert_eq!(traces, (0..12).collect::<BTreeSet<u64>>());
    }

    #[test]
    fn evicted_traces_carry_typed_outcomes_in_the_timeline() {
        let inputs = vec![
            TraceInput::bytes(mdf::to_bytes(&log_for(1, "/bin/a", 1000))),
            TraceInput::bytes(b"garbage".to_vec()), // truncated → format corrupt
            TraceInput::log({
                let b = TraceLogBuilder::new(JobHeader::new(1, 1, 4, 5, 5));
                b.finish() // zero runtime → validation fatal
            }),
        ];
        let config = PipelineConfig { trace_capacity: Some(64), ..Default::default() };
        let result = process(&VecSource::new(inputs), &config);
        let timeline = result.timeline.expect("tracing on");

        let parse_of = |trace: u64| {
            timeline.events.iter().find(|e| e.trace == trace && e.stage == Stage::Parse)
        };
        assert_eq!(parse_of(0).map(|e| e.outcome), Some(SpanOutcome::Ok));
        assert_eq!(parse_of(1).map(|e| e.outcome), Some(SpanOutcome::FormatCorrupt));
        let validate_2 = timeline
            .events
            .iter()
            .find(|e| e.trace == 2 && e.stage == Stage::Validate)
            .expect("validate span");
        assert_eq!(validate_2.outcome, SpanOutcome::Invalid);
        // The exemplar reservoir kept the typed slugs, not just the class.
        let parse_exemplars = &timeline.exemplars[Stage::Parse.index()];
        assert!(
            parse_exemplars.slowest.iter().any(|e| e.trace == 1 && e.outcome == "truncated"),
            "{parse_exemplars:?}"
        );
        assert!(timeline.exemplars[Stage::Validate.index()]
            .slowest
            .iter()
            .any(|e| e.trace == 2 && e.outcome == "validation:non_positive_runtime"));
    }

    #[test]
    fn report_and_registry_export_come_from_one_store() {
        let inputs: Vec<TraceInput> = (0..10)
            .map(|i| TraceInput::bytes(mdf::to_bytes(&log_for(i, &format!("/bin/app{i}"), 1000))))
            .chain(std::iter::once(TraceInput::bytes(b"garbage".to_vec())))
            .collect();
        let mut runs = Vec::new();
        for threads in [1, 2] {
            let cfg = PipelineConfig { threads: Some(threads), ..Default::default() };
            let result = process(&VecSource::new(inputs.clone()), &cfg);
            let registry = result.registry.as_ref().expect("process always exports a registry");
            let family = |name: &str| {
                registry.families.iter().find(|f| f.name == name).unwrap_or_else(|| {
                    panic!("missing family {name}");
                })
            };
            assert_eq!(family("mosaic.dedup.apps").samples[0].value, 10.0);
            assert_eq!(family("mosaic.pipeline.traces.inflight").samples[0].value, 0.0);
            let evictions = family("mosaic.pipeline.evictions");
            assert_eq!(evictions.samples.len(), 1);
            assert_eq!(
                evictions.samples[0].labels[0],
                ("reason".to_owned(), "truncated".to_owned())
            );
            let evicted: f64 = evictions.samples.iter().map(|s| s.value).sum();
            assert_eq!(evicted, result.funnel.evicted() as f64, "one eviction count per trace");
            assert!(
                family("mosaic.arena.peak_bytes").samples[0].value > 0.0,
                "every valid trace loads the arena, so residency must be reported"
            );
            // The report's stage lines are read off the exported handles.
            let latency = family("mosaic.stage.latency_ns");
            for stage in Stage::ALL {
                let line = &result.metrics.stages[stage.index()];
                let sample = latency
                    .samples
                    .iter()
                    .find(|s| s.labels[0].1 == stage.name())
                    .unwrap_or_else(|| panic!("missing {stage} latency sample"));
                assert_eq!(line.calls, sample.count, "{stage} calls on {threads} threads");
                assert_eq!(line.total_seconds, sample.value / 1e9, "{stage} busy time");
            }
            assert_eq!(result.metrics.stages[Stage::Parse.index()].calls, 11, "all reach parse");
            let busy: f64 = family("mosaic.worker.busy_ns").samples.iter().map(|s| s.value).sum();
            assert!(busy > 0.0, "span durations must feed worker lanes");
            // Exposition of the export is valid OpenMetrics.
            let text = registry.to_openmetrics();
            assert!(text.contains("# TYPE mosaic_stage_latency_ns summary"));
            assert!(text.ends_with("# EOF\n"));
            runs.push(result);
        }
        assert_eq!(runs[0].funnel, runs[1].funnel);
        assert_eq!(runs[0].outcomes, runs[1].outcomes);
        assert_eq!(runs[0].representatives, runs[1].representatives);
    }

    #[test]
    fn log_and_byte_inputs_agree_on_mixed_inputs() {
        // Valid, corrupt, fatally-invalid, and partially-corrupt traces, fed
        // once as wire bytes and once as decoded logs (corrupt bytes have no
        // log form and stay bytes): the two extraction paths must produce
        // identical funnels, outcomes, and representatives — and the same
        // span structure when traced, minus the parse spans log inputs skip.
        let mut partially_bad =
            TraceLogBuilder::new(JobHeader::new(3, 7, 4, 0, 1000).with_exe("/bin/m"));
        let g = partially_bad.begin_record("/good", 0);
        partially_bad
            .record_mut(g)
            .set(C::Writes, 2)
            .set(C::BytesWritten, 600 << 20)
            .setf(F::WriteStartTimestamp, 900.0)
            .setf(F::WriteEndTimestamp, 960.0);
        let bad = partially_bad.begin_record("/bad", 0);
        partially_bad.record_mut(bad).set(C::BytesRead, -5);
        let byte_inputs: Vec<TraceInput> = vec![
            TraceInput::bytes(mdf::to_bytes(&log_for(1, "/bin/a", 900 << 20))),
            TraceInput::bytes(b"garbage".to_vec()),
            TraceInput::bytes(mdf::to_bytes(
                &TraceLogBuilder::new(JobHeader::new(1, 1, 4, 5, 5)).finish(),
            )),
            TraceInput::bytes(mdf::to_bytes(&partially_bad.finish())),
            TraceInput::bytes(mdf::to_bytes(&log_for(2, "/bin/b", 700 << 20))),
        ];
        let log_inputs: Vec<TraceInput> = byte_inputs
            .iter()
            .map(|input| match input {
                TraceInput::Bytes(bytes) => match mdf::from_bytes(bytes) {
                    Ok(log) => TraceInput::log(log),
                    Err(_) => input.clone(),
                },
                TraceInput::Log(_) => input.clone(),
            })
            .collect();
        let config = PipelineConfig { trace_capacity: Some(256), ..Default::default() };
        let from_bytes = process(&VecSource::new(byte_inputs), &config);
        let from_logs = process(&VecSource::new(log_inputs), &config);
        assert_eq!(from_bytes.funnel, from_logs.funnel);
        assert_eq!(from_bytes.outcomes, from_logs.outcomes);
        assert_eq!(from_bytes.representatives, from_logs.representatives);
        assert_eq!(from_bytes.outcomes[1].sanitized_records, 1, "partial corruption sanitized");
        let spans = |r: &PipelineResult, skip_parse_of_valid: bool| {
            let t = r.timeline.as_ref().expect("traced");
            t.events
                .iter()
                .filter(|e| {
                    !(skip_parse_of_valid
                        && e.stage == Stage::Parse
                        && e.outcome == SpanOutcome::Ok)
                })
                .map(|e| (e.trace, format!("{:?}", e.stage), format!("{:?}", e.outcome)))
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(
            spans(&from_bytes, true),
            spans(&from_logs, false),
            "span structure must match stage-for-stage"
        );
        assert_eq!(
            spans(&from_logs, false).iter().filter(|(_, stage, _)| stage == "Parse").count(),
            1,
            "only the corrupt input reaches parse when fed as logs"
        );
    }

    #[test]
    fn partially_corrupt_log_is_sanitized_not_evicted() {
        let mut log = log_for(1, "/bin/a", 1000);
        // Add one bad record: negative bytes.
        let mut b = TraceLogBuilder::new(log.header().clone());
        let h = b.begin_record("/bad", 0);
        b.record_mut(h).set(C::BytesRead, -5);
        let extra = b.finish();
        let mut records = log.records().to_vec();
        records.extend(extra.records().iter().cloned());
        let mut names = log.names().clone();
        names.extend(extra.names().clone());
        log = TraceLog::from_parts(log.header().clone(), records, names);

        let result =
            process(&VecSource::new(vec![TraceInput::log(log)]), &PipelineConfig::default());
        assert_eq!(result.funnel.valid, 1);
        assert_eq!(result.outcomes[0].sanitized_records, 1);
    }
}
