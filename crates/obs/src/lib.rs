//! # mosaic-obs
//!
//! Per-stage observability for the MOSAIC pipeline: lock-free counters,
//! log-linear [`QuantileSketch`] timing histograms and throughput
//! accounting, recorded from worker threads with relaxed atomics and
//! snapshotted into a serializable [`MetricsReport`] when a run finishes.
//! On top of the per-stage substrate sit a unified [`MetricsRegistry`]
//! (counters, gauges, and summaries under stable dotted names — see
//! [`metrics`]), OpenMetrics/JSON exposition (see [`expo`]), and a bounded
//! ring of windowed health snapshots (see [`window`]).
//!
//! The paper's §IV-E performance claims (and every later optimisation PR)
//! need per-stage evidence, not a single wall-clock number: this crate is
//! the substrate. A [`Recorder`] is shared by all workers; each records
//! `(stage, duration, bytes)` triples as it processes traces. Recording is
//! wait-free — one `fetch_add` per field — so the instrumentation does not
//! perturb the throughput it measures.
//!
//! ```
//! use mosaic_obs::{Recorder, Stage};
//! use std::time::Duration;
//!
//! let rec = Recorder::new();
//! rec.record(Stage::Parse, Duration::from_micros(250), 4096);
//! rec.record(Stage::Categorize, Duration::from_micros(900), 0);
//! let report = rec.finish(1, 1);
//! assert_eq!(report.traces, 1);
//! assert_eq!(report.stages[Stage::Parse.index()].calls, 1);
//! assert!(report.render_table().contains("parse"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod expo;
pub mod metrics;
pub mod progress;
pub mod sketch;
pub mod trace;
pub mod window;

pub use expo::{MetricFamily, MetricKind, MetricsSnapshot, Sample};
pub use metrics::{Counter, Gauge, MetricsRegistry, PipelineMetrics, Summary, SUMMARY_QUANTILES};
pub use progress::ProgressLine;
pub use sketch::{QuantileSketch, SketchSnapshot, N_SKETCH_BUCKETS, RELATIVE_ERROR};
pub use trace::{
    Exemplar, Span, SpanEvent, SpanOutcome, StageExemplars, TraceTimeline, Tracer,
    EXEMPLARS_PER_STAGE,
};
pub use window::{MetricsWindow, WindowEntry};

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`Duration`] as saturating nanoseconds — the span/histogram currency.
pub fn nanos_of(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// The pipeline stages instrumented by the executor, in processing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Stage {
    /// Reading raw input from the source (disk, memory, generator).
    Fetch,
    /// Decoding MDF bytes into a trace log.
    Parse,
    /// Validity checking and per-record sanitization.
    Validate,
    /// Merging raw operations (rank + gap passes) inside categorization.
    Merge,
    /// The three characterizations proper (merging excluded).
    Categorize,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] =
        [Stage::Fetch, Stage::Parse, Stage::Validate, Stage::Merge, Stage::Categorize];

    /// Stable lowercase name (also the JSON spelling).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Fetch => "fetch",
            Stage::Parse => "parse",
            Stage::Validate => "validate",
            Stage::Merge => "merge",
            Stage::Categorize => "categorize",
        }
    }

    /// Position in [`Stage::ALL`] (and in [`MetricsReport::stages`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Lock-free accumulator for one stage: call count, total/max nanoseconds,
/// bytes moved and a log-linear [`QuantileSketch`] latency histogram. All
/// fields use relaxed atomics — the counts are telemetry, not
/// synchronization points. Calls and nanos are kept as dedicated counters
/// (not derived from the sketch) so hot readers like the progress line
/// never scan the sketch's buckets.
#[derive(Debug, Default)]
pub struct StageStats {
    calls: AtomicU64,
    nanos: AtomicU64,
    max_nanos: AtomicU64,
    bytes: AtomicU64,
    sketch: QuantileSketch,
}

impl StageStats {
    /// Fresh, zeroed stats.
    pub fn new() -> StageStats {
        StageStats::default()
    }

    /// Record one timed call. Wait-free.
    pub fn record(&self, nanos: u64, bytes: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        if bytes > 0 {
            self.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        self.sketch.record(nanos);
    }

    /// Bytes recorded so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total nanoseconds recorded so far.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// The latency sketch (nanosecond samples), for merging or direct
    /// quantile queries beyond the snapshot's p50/p99.
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Consistent-enough snapshot for reporting (individual fields are read
    /// relaxed; exactness across fields is not required of telemetry).
    /// Quantiles come from the sketch and are within [`RELATIVE_ERROR`] of
    /// the true order statistics.
    pub fn snapshot(&self, stage: Stage) -> StageSnapshot {
        let calls = self.calls.load(Ordering::Relaxed);
        let nanos = self.nanos.load(Ordering::Relaxed);
        let sketch = self.sketch.snapshot();
        StageSnapshot {
            stage: stage.name().to_owned(),
            calls,
            total_seconds: nanos as f64 / 1e9,
            mean_micros: if calls == 0 { 0.0 } else { nanos as f64 / calls as f64 / 1_000.0 },
            p50_micros: sketch.quantile(0.50) / 1_000.0,
            p99_micros: sketch.quantile(0.99) / 1_000.0,
            max_micros: self.max_nanos.load(Ordering::Relaxed) as f64 / 1_000.0,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// Immutable, serializable view of one stage's accumulated statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Stage name (see [`Stage::name`]).
    pub stage: String,
    /// Number of recorded calls.
    pub calls: u64,
    /// Total time spent in the stage, summed over all workers.
    pub total_seconds: f64,
    /// Mean call duration in microseconds.
    pub mean_micros: f64,
    /// Median call duration in microseconds (sketch estimate, within
    /// [`RELATIVE_ERROR`]).
    pub p50_micros: f64,
    /// 99th-percentile call duration in microseconds (sketch estimate,
    /// within [`RELATIVE_ERROR`]).
    pub p99_micros: f64,
    /// Slowest observed call in microseconds.
    pub max_micros: f64,
    /// Bytes processed by the stage (0 when not byte-oriented).
    pub bytes: u64,
}

/// The merged end-of-run metrics: wall-clock, throughput and one
/// [`StageSnapshot`] per stage, in pipeline order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Wall-clock seconds from recorder construction to [`Recorder::finish`].
    pub wall_seconds: f64,
    /// Worker threads the run was configured with.
    pub workers: usize,
    /// Traces presented to the pipeline.
    pub traces: u64,
    /// End-to-end throughput: `traces / wall_seconds`.
    pub traces_per_second: f64,
    /// Raw trace bytes decoded (the parse stage's byte count).
    pub bytes: u64,
    /// Byte throughput: `bytes / wall_seconds`.
    pub bytes_per_second: f64,
    /// Per-stage statistics, ordered as [`Stage::ALL`].
    pub stages: Vec<StageSnapshot>,
}

impl MetricsReport {
    /// Render as an aligned text table (CLI / bench output).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "stage", "calls", "total s", "mean µs", "p50 µs", "p99 µs", "max µs", "MiB"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>10.3} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                s.stage,
                s.calls,
                s.total_seconds,
                s.mean_micros,
                s.p50_micros,
                s.p99_micros,
                s.max_micros,
                s.bytes as f64 / (1u64 << 20) as f64,
            );
        }
        let _ = writeln!(
            out,
            "wall {:.3} s · {} workers · {:.0} traces/s · {:.1} MiB/s",
            self.wall_seconds,
            self.workers,
            self.traces_per_second,
            self.bytes_per_second / (1u64 << 20) as f64,
        );
        out
    }

    /// Render as Markdown table rows (for `report_md`).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| stage | calls | total s | mean µs | p50 µs | p99 µs |");
        let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|");
        for s in &self.stages {
            let _ = writeln!(
                out,
                "| `{}` | {} | {:.3} | {:.1} | {:.1} | {:.1} |",
                s.stage, s.calls, s.total_seconds, s.mean_micros, s.p50_micros, s.p99_micros
            );
        }
        let _ = writeln!(
            out,
            "\nWall-clock **{:.3} s** on {} workers — **{:.0} traces/s**, {:.1} MiB/s of raw trace bytes.",
            self.wall_seconds,
            self.workers,
            self.traces_per_second,
            self.bytes_per_second / (1u64 << 20) as f64,
        );
        out
    }
}

/// The shared, thread-safe metrics sink: one [`StageStats`] per stage, a
/// live eviction counter, the run's start instant, and (optionally) a
/// structured [`Tracer`] and a [`PipelineMetrics`] registry. Workers record
/// through `&Recorder`; the executor snapshots with [`Recorder::finish`]
/// once all workers are done.
#[derive(Debug)]
pub struct Recorder {
    stages: [StageStats; Stage::ALL.len()],
    evictions: AtomicU64,
    tracer: Option<Tracer>,
    metrics: Option<Arc<PipelineMetrics>>,
    started: Instant,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Start a recorder; wall-clock measurement begins now. Tracing is off:
    /// span recording degenerates to the aggregate counters, with zero
    /// extra allocation on the hot path.
    pub fn new() -> Recorder {
        Recorder {
            stages: std::array::from_fn(|_| StageStats::new()),
            evictions: AtomicU64::new(0),
            #[expect(
                clippy::disallowed_methods,
                reason = "the Recorder exists to measure wall-clock; its metrics are excluded from ResultSnapshot digests"
            )]
            started: Instant::now(),
            tracer: None,
            metrics: None,
        }
    }

    /// Start a recorder with structured span tracing enabled: a [`Tracer`]
    /// ring holding up to `capacity` spans, snapshotted by
    /// [`Recorder::timeline`].
    pub fn with_tracer(capacity: usize) -> Recorder {
        Recorder { tracer: Some(Tracer::new(capacity)), ..Recorder::new() }
    }

    /// Attach a [`PipelineMetrics`] registry: spans start feeding per-worker
    /// busy counters and [`Recorder::export_metrics`] includes the
    /// registry's families. Builder-style, composes with
    /// [`Recorder::with_tracer`].
    pub fn with_pipeline_metrics(self, metrics: Arc<PipelineMetrics>) -> Recorder {
        Recorder { metrics: Some(metrics), ..self }
    }

    /// The attached pipeline metrics registry, when metrics are enabled.
    pub fn pipeline_metrics(&self) -> Option<&PipelineMetrics> {
        self.metrics.as_deref()
    }

    /// `true` when structured span tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The structured tracer, when tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Nanoseconds since the recorder's epoch — the span time base.
    #[expect(
        clippy::disallowed_methods,
        reason = "span start offsets are telemetry; timelines are excluded from ResultSnapshot digests"
    )]
    pub fn now_ns(&self) -> u64 {
        nanos_of(self.started.elapsed())
    }

    /// Record one span: the aggregate counters always, the structured
    /// tracer when enabled. This is the executor's per-stage call site —
    /// one method, so tracing on/off cannot diverge in what is counted.
    pub fn span(&self, span: Span<'_>) {
        self.record_nanos(span.stage, span.duration_ns, span.bytes);
        if let Some(metrics) = &self.metrics {
            if let Some(busy) =
                usize::try_from(span.worker).ok().and_then(|lane| metrics.worker_busy(lane))
            {
                busy.add(span.duration_ns);
            }
        }
        if let Some(tracer) = &self.tracer {
            tracer.record(span);
        }
    }

    /// Count one funnel eviction (live telemetry for progress lines; the
    /// authoritative typed accounting lives in the pipeline's funnel).
    pub fn count_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Evictions counted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Snapshot the structured timeline, when tracing is enabled.
    pub fn timeline(&self) -> Option<TraceTimeline> {
        self.tracer.as_ref().map(Tracer::snapshot)
    }

    /// Record one timed call of `stage`.
    pub fn record(&self, stage: Stage, elapsed: Duration, bytes: u64) {
        self.record_nanos(stage, nanos_of(elapsed), bytes);
    }

    /// Record with a raw nanosecond count (for durations measured elsewhere).
    pub fn record_nanos(&self, stage: Stage, nanos: u64, bytes: u64) {
        // lint: allow(panic, "enum-derived index: Stage::index() < Stage::ALL.len() by construction")
        self.stages[stage.index()].record(nanos, bytes);
    }

    /// Time a closure and record it.
    pub fn time<T>(&self, stage: Stage, bytes: u64, f: impl FnOnce() -> T) -> T {
        #[expect(
            clippy::disallowed_methods,
            reason = "the Recorder exists to measure wall-clock; its metrics are excluded from ResultSnapshot digests"
        )]
        let t = Instant::now();
        let out = f();
        #[expect(
            clippy::disallowed_methods,
            reason = "stage timing telemetry; metrics are excluded from ResultSnapshot digests"
        )]
        self.record(stage, t.elapsed(), bytes);
        out
    }

    /// Access one stage's live stats.
    pub fn stage(&self, stage: Stage) -> &StageStats {
        // lint: allow(panic, "enum-derived index: Stage::index() < Stage::ALL.len() by construction")
        &self.stages[stage.index()]
    }

    /// Snapshot everything into a [`MetricsReport`]. `traces` is the number
    /// of inputs presented; `workers` the configured thread count.
    pub fn finish(&self, traces: u64, workers: usize) -> MetricsReport {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock summary telemetry; metrics are excluded from ResultSnapshot digests"
        )]
        let wall = self.started.elapsed().as_secs_f64().max(1e-9);
        let stages: Vec<StageSnapshot> =
            Stage::ALL.iter().map(|&s| self.stage(s).snapshot(s)).collect();
        let bytes = self.stage(Stage::Parse).bytes();
        MetricsReport {
            wall_seconds: wall,
            workers: workers.max(1),
            traces,
            traces_per_second: traces as f64 / wall,
            bytes,
            bytes_per_second: bytes as f64 / wall,
            stages,
        }
    }

    /// Freeze everything this recorder measures into one ordering-stable
    /// [`MetricsSnapshot`]: the per-stage families (calls, busy time, bytes,
    /// and the latency summary backed by the sketch) merged with the
    /// attached registry's families, sorted by name. Deliberately excludes
    /// wall-clock so identical recorded workloads export identical bytes.
    pub fn export_metrics(&self) -> MetricsSnapshot {
        let mut calls = Vec::with_capacity(Stage::ALL.len());
        let mut busy = Vec::with_capacity(Stage::ALL.len());
        let mut bytes = Vec::with_capacity(Stage::ALL.len());
        let mut latency = Vec::with_capacity(Stage::ALL.len());
        for &stage in Stage::ALL.iter() {
            let stats = self.stage(stage);
            let labels = vec![("stage".to_owned(), stage.name().to_owned())];
            let plain = |value: u64| Sample {
                labels: labels.clone(),
                value: value as f64,
                quantiles: Vec::new(),
                count: 0,
            };
            calls.push(plain(stats.calls()));
            busy.push(plain(stats.nanos()));
            bytes.push(plain(stats.bytes()));
            let sketch = stats.sketch().snapshot();
            latency.push(Sample {
                labels,
                value: stats.nanos() as f64,
                quantiles: SUMMARY_QUANTILES.iter().map(|&q| (q, sketch.quantile(q))).collect(),
                count: stats.calls(),
            });
        }
        let mut families = vec![
            MetricFamily {
                name: "mosaic.stage.calls".to_owned(),
                kind: MetricKind::Counter,
                help: "Instrumented calls per pipeline stage".to_owned(),
                samples: calls,
            },
            MetricFamily {
                name: "mosaic.stage.busy_ns".to_owned(),
                kind: MetricKind::Counter,
                help: "Nanoseconds spent per pipeline stage, summed over workers".to_owned(),
                samples: busy,
            },
            MetricFamily {
                name: "mosaic.stage.bytes".to_owned(),
                kind: MetricKind::Counter,
                help: "Bytes processed per pipeline stage".to_owned(),
                samples: bytes,
            },
            MetricFamily {
                name: "mosaic.stage.latency_ns".to_owned(),
                kind: MetricKind::Summary,
                help: "Per-call stage latency (sketch quantiles)".to_owned(),
                samples: latency,
            },
        ];
        for family in &mut families {
            family.samples.sort_by(|a, b| a.labels.cmp(&b.labels));
        }
        if let Some(metrics) = &self.metrics {
            families.extend(metrics.snapshot().families);
        }
        families.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { families }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_order_and_names() {
        assert_eq!(Stage::ALL.len(), 5);
        assert_eq!(Stage::Fetch.index(), 0);
        assert_eq!(Stage::Categorize.index(), 4);
        assert_eq!(Stage::Merge.name(), "merge");
        assert_eq!(Stage::Parse.to_string(), "parse");
    }

    #[test]
    fn record_and_snapshot_aggregate() {
        let s = StageStats::new();
        s.record(1_000, 10);
        s.record(3_000, 20);
        s.record(2_000, 0);
        let snap = s.snapshot(Stage::Parse);
        assert_eq!(snap.calls, 3);
        assert_eq!(snap.bytes, 30);
        assert!((snap.total_seconds - 6e-6).abs() < 1e-12);
        assert!((snap.mean_micros - 2.0).abs() < 1e-9);
        assert!((snap.max_micros - 3.0).abs() < 1e-9);
        // p50 falls in the bucket holding 1000–2047 ns.
        assert!(snap.p50_micros > 0.5 && snap.p50_micros < 4.0, "{}", snap.p50_micros);
    }

    #[test]
    fn empty_stats_quantiles_are_zero() {
        let snap = StageStats::new().snapshot(Stage::Fetch);
        assert_eq!(snap.calls, 0);
        assert_eq!(snap.p50_micros, 0.0);
        assert_eq!(snap.p99_micros, 0.0);
        assert_eq!(snap.mean_micros, 0.0);
    }

    #[test]
    fn recorder_merges_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        rec.record(Stage::Parse, Duration::from_micros(5), 100);
                        rec.record(Stage::Validate, Duration::from_micros(2), 0);
                    }
                });
            }
        });
        let report = rec.finish(400, 4);
        assert_eq!(report.stages[Stage::Parse.index()].calls, 400);
        assert_eq!(report.stages[Stage::Validate.index()].calls, 400);
        assert_eq!(report.bytes, 40_000);
        assert_eq!(report.traces, 400);
        assert!(report.traces_per_second > 0.0);
    }

    #[test]
    fn report_serializes_and_renders() {
        let rec = Recorder::new();
        rec.record(Stage::Fetch, Duration::from_micros(1), 64);
        let report = rec.finish(1, 2);
        let json = serde_json::to_string(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        let table = report.render_table();
        for name in ["fetch", "parse", "validate", "merge", "categorize", "workers"] {
            assert!(table.contains(name), "missing {name} in\n{table}");
        }
        let md = report.render_markdown();
        assert!(md.contains("| `fetch` |"));
        assert!(md.contains("traces/s"));
    }

    #[test]
    fn quantiles_stay_within_the_sketch_error_band_at_octave_edges() {
        // A duration of exactly 2^i ns was the old log₂ scheme's worst
        // case: the octave midpoint over-reported it by 50%. The sketch's
        // linear sub-buckets pin the estimate within RELATIVE_ERROR, and
        // midpoint reporting still never under-reports the true value.
        for i in [4u32, 10, 17, 25] {
            let s = StageStats::new();
            for _ in 0..100 {
                s.record(1u64 << i, 0);
            }
            let snap = s.snapshot(Stage::Parse);
            let true_us = (1u64 << i) as f64 / 1_000.0;
            let expect_us = true_us * 33.0 / 32.0; // sub-bucket [2^i, 2^i + 2^(i-4)) midpoint
            assert_eq!(snap.p50_micros, expect_us, "p50 at 2^{i} ns");
            assert_eq!(snap.p99_micros, expect_us, "p99 at 2^{i} ns");
            assert!(snap.p50_micros >= true_us, "midpoint never under-reports");
            assert!(snap.p50_micros <= true_us * (1.0 + RELATIVE_ERROR));
        }
    }

    #[test]
    fn top_bucket_quantile_reports_its_midpoint() {
        let s = StageStats::new();
        s.record(u64::MAX, 0); // clamped into the last sketch bucket
        let snap = s.snapshot(Stage::Fetch);
        // Top bucket is [31·2^59, 2^64): midpoint 31.5·2^59 ns.
        assert_eq!(snap.p99_micros, 31.5 * (1u64 << 59) as f64 / 1_000.0);
        let err = (snap.p99_micros - u64::MAX as f64 / 1_000.0).abs() / (u64::MAX as f64 / 1_000.0);
        assert!(err <= RELATIVE_ERROR);
    }

    #[test]
    fn recorder_with_tracer_feeds_both_aggregate_and_timeline() {
        let rec = Recorder::with_tracer(16);
        assert!(rec.tracing());
        rec.span(Span {
            trace: 3,
            stage: Stage::Parse,
            start_ns: 10,
            duration_ns: 5_000,
            bytes: 256,
            worker: 1,
            outcome: SpanOutcome::Ok,
            detail: None,
        });
        rec.count_eviction();
        assert_eq!(rec.evictions(), 1);
        let report = rec.finish(1, 1);
        assert_eq!(report.stages[Stage::Parse.index()].calls, 1);
        assert_eq!(report.bytes, 256);
        let timeline = rec.timeline().expect("tracing enabled");
        assert_eq!(timeline.events.len(), 1);
        assert_eq!(timeline.events[0].trace, 3);
        // The untraced recorder spends nothing and yields no timeline.
        let plain = Recorder::new();
        assert!(!plain.tracing());
        assert!(plain.timeline().is_none());
    }

    #[test]
    fn recorder_exports_stage_families_and_registry_sorted_by_name() {
        let rec = Recorder::new().with_pipeline_metrics(Arc::new(PipelineMetrics::new(2)));
        rec.record_nanos(Stage::Parse, 1_000, 64);
        rec.span(Span {
            trace: 1,
            stage: Stage::Categorize,
            start_ns: 0,
            duration_ns: 2_000,
            bytes: 0,
            worker: 1,
            outcome: SpanOutcome::Ok,
            detail: None,
        });
        let metrics = rec.pipeline_metrics().expect("metrics attached");
        metrics.count_eviction("io-error");
        assert_eq!(metrics.worker_busy(1).map(Counter::get), Some(2_000), "span fed lane 1");
        let snap = rec.export_metrics();
        let names: Vec<&str> = snap.families.iter().map(|f| f.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "families are sorted by name");
        assert!(names.contains(&"mosaic.stage.latency_ns"));
        assert!(names.contains(&"mosaic.pipeline.evictions"));
        let latency = snap
            .families
            .iter()
            .find(|f| f.name == "mosaic.stage.latency_ns")
            .expect("stage latency family");
        assert_eq!(latency.kind, MetricKind::Summary);
        let parse = latency
            .samples
            .iter()
            .find(|s| s.labels.iter().any(|(_, v)| v == "parse"))
            .expect("parse sample");
        assert_eq!(parse.count, 1);
        assert_eq!(parse.value, 1_000.0);
        // Without metrics attached, export still carries the stage families.
        let plain = Recorder::new();
        assert!(plain.pipeline_metrics().is_none());
        assert_eq!(plain.export_metrics().families.len(), 4);
        // Identical recorded workloads export identical bytes.
        assert_eq!(rec.export_metrics().to_openmetrics(), rec.export_metrics().to_openmetrics());
    }

    #[test]
    fn quantiles_rank_correctly() {
        let s = StageStats::new();
        // 9 fast calls (~1 µs) and 1 slow (~1 ms): p50 fast, p99 slow.
        for _ in 0..9 {
            s.record(1_000, 0);
        }
        s.record(1_000_000, 0);
        let snap = s.snapshot(Stage::Merge);
        assert!(snap.p50_micros < 10.0, "p50 {}", snap.p50_micros);
        assert!(snap.p99_micros > 100.0, "p99 {}", snap.p99_micros);
    }
}
