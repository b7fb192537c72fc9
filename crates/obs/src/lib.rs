//! # mosaic-obs
//!
//! Per-stage observability for the MOSAIC pipeline: lock-free counters,
//! log-linear [`QuantileSketch`] latency summaries and throughput
//! accounting, recorded from worker threads with relaxed atomics. There is
//! one metric store: a [`MetricsRegistry`] (counters, gauges and summaries
//! under stable dotted names — see [`metrics`]) that every [`Recorder`]
//! owns, pre-populated with the pipeline's standard set
//! ([`PipelineMetrics`]). The end-of-run [`MetricsReport`] and the
//! OpenMetrics/JSON export (see [`expo`]) are both read from it.
//!
//! The paper's §IV-E performance claims (and every later optimisation PR)
//! need per-stage evidence, not a single wall-clock number: this crate is
//! the substrate. A [`Recorder`] is shared by all workers; each records
//! `(stage, duration, bytes)` triples as it processes traces. Recording is
//! wait-free — a handful of relaxed `fetch_add`s through pre-registered
//! handles — so the instrumentation does not perturb the throughput it
//! measures.
//!
//! ```
//! use mosaic_obs::{Recorder, Stage};
//!
//! let rec = Recorder::new();
//! rec.record_nanos(Stage::Parse, 250_000, 4096);
//! rec.record_nanos(Stage::Categorize, 900_000, 0);
//! let report = rec.finish(1, 1);
//! assert_eq!(report.traces, 1);
//! assert_eq!(report.stages[Stage::Parse.index()].calls, 1);
//! assert!(report.render_table().contains("parse"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Panic safety: a hostile trace must become a typed funnel error, never a
// crash. Production code neither indexes, slices nor unwraps without an
// audited `#[expect]` naming its proof. Test code is exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod counter;
pub mod expo;
pub mod lock;
pub mod metrics;
pub mod progress;
pub mod sketch;
pub mod trace;

pub use expo::{MetricFamily, MetricKind, MetricsSnapshot, Sample};
pub use metrics::{Counter, Gauge, MetricsRegistry, PipelineMetrics, Summary, SUMMARY_QUANTILES};
pub use progress::ProgressLine;
pub use sketch::{QuantileSketch, SketchSnapshot, N_SKETCH_BUCKETS, RELATIVE_ERROR};
pub use trace::{
    Exemplar, Span, SpanEvent, SpanOutcome, StageExemplars, TraceTimeline, Tracer,
    EXEMPLARS_PER_STAGE,
};

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
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

impl StageSnapshot {
    /// Read one stage's report line off its registry handles. Fields are
    /// read relaxed, one by one; exactness across fields is not required of
    /// telemetry. Quantiles come from the sketch and are within
    /// [`RELATIVE_ERROR`] of the true order statistics.
    fn of(stage: Stage, latency: &Summary, bytes: &Counter) -> StageSnapshot {
        let calls = latency.count();
        let nanos = latency.sum();
        let sketch = latency.sketch().snapshot();
        StageSnapshot {
            stage: stage.name().to_owned(),
            calls,
            total_seconds: nanos as f64 / 1e9,
            mean_micros: if calls == 0 { 0.0 } else { nanos as f64 / calls as f64 / 1_000.0 },
            p50_micros: sketch.quantile(0.50) / 1_000.0,
            p99_micros: sketch.quantile(0.99) / 1_000.0,
            max_micros: latency.max() as f64 / 1_000.0,
            bytes: bytes.get(),
        }
    }
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

/// The shared, thread-safe metrics sink: the run's [`PipelineMetrics`]
/// (the registry every report and export is read from), the run's start
/// instant, and optionally a structured [`Tracer`]. Workers record through
/// `&Recorder`; the executor snapshots with [`Recorder::finish`] once all
/// workers are done.
#[derive(Debug)]
pub struct Recorder {
    metrics: PipelineMetrics,
    tracer: Option<Tracer>,
    started: Instant,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Start a recorder with the standard metric set and one worker lane
    /// (lane 0); wall-clock measurement begins now. Tracing is off: span
    /// recording touches only the pre-registered handles, with zero
    /// allocation on the hot path.
    pub fn new() -> Recorder {
        Recorder {
            metrics: PipelineMetrics::new(1),
            #[expect(
                clippy::disallowed_methods,
                reason = "the Recorder exists to measure wall-clock; its metrics are excluded from ResultSnapshot digests"
            )]
            started: Instant::now(),
            tracer: None,
        }
    }

    /// Start a recorder with structured span tracing enabled: a [`Tracer`]
    /// ring holding up to `capacity` spans, snapshotted by
    /// [`Recorder::timeline`].
    pub fn with_tracer(capacity: usize) -> Recorder {
        Recorder { tracer: Some(Tracer::new(capacity)), ..Recorder::new() }
    }

    /// Register busy counters for `lanes` worker lanes, so spans from
    /// every lane feed `mosaic.worker.busy_ns`. Builder-style, composes
    /// with [`Recorder::with_tracer`].
    pub fn with_worker_lanes(self, lanes: usize) -> Recorder {
        Recorder { metrics: self.metrics.with_lanes(lanes), ..self }
    }

    /// The run's metric store.
    pub fn pipeline_metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// `true` when structured span tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Nanoseconds since the recorder's epoch — the span time base.
    #[expect(
        clippy::disallowed_methods,
        reason = "span start offsets are telemetry; timelines are excluded from ResultSnapshot digests"
    )]
    pub fn now_ns(&self) -> u64 {
        nanos_of(self.started.elapsed())
    }

    /// Record one span: the stage handles and the worker lane's busy
    /// counter always, the structured tracer when enabled. This is the
    /// executor's per-stage call site — one method, so tracing on/off
    /// cannot diverge in what is counted.
    pub fn span(&self, span: Span<'_>) {
        self.record_nanos(span.stage, span.duration_ns, span.bytes);
        if let Some(busy) =
            usize::try_from(span.worker).ok().and_then(|lane| self.metrics.worker_busy(lane))
        {
            busy.add(span.duration_ns);
        }
        if let Some(tracer) = &self.tracer {
            tracer.record(span);
        }
    }

    /// Count one funnel eviction under its typed reason slug (live
    /// telemetry; the authoritative typed accounting lives in the
    /// pipeline's funnel).
    pub fn count_eviction(&self, reason: &str) {
        self.metrics.count_eviction(reason);
    }

    /// Evictions counted so far, over every reason. Takes the registry
    /// lock: meant for occasional readers such as a progress redraw.
    pub fn evictions(&self) -> u64 {
        self.metrics.evictions()
    }

    /// Snapshot the structured timeline, when tracing is enabled.
    pub fn timeline(&self) -> Option<TraceTimeline> {
        self.tracer.as_ref().map(Tracer::snapshot)
    }

    /// Record one timed call of `stage` from a raw nanosecond count.
    pub fn record_nanos(&self, stage: Stage, nanos: u64, bytes: u64) {
        self.metrics.record_stage(stage, nanos, bytes);
    }

    /// One stage's live latency summary: calls are its `count`, busy
    /// nanoseconds its `sum`.
    pub fn stage(&self, stage: Stage) -> &Summary {
        self.metrics.stage_latency(stage)
    }

    /// Snapshot everything into a [`MetricsReport`]. `traces` is the number
    /// of inputs presented; `workers` the configured thread count.
    pub fn finish(&self, traces: u64, workers: usize) -> MetricsReport {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock summary telemetry; metrics are excluded from ResultSnapshot digests"
        )]
        let wall = self.started.elapsed().as_secs_f64().max(1e-9);
        let stages: Vec<StageSnapshot> = Stage::ALL
            .iter()
            .map(|&s| {
                StageSnapshot::of(s, self.metrics.stage_latency(s), self.metrics.stage_bytes(s))
            })
            .collect();
        let bytes = self.metrics.stage_bytes(Stage::Parse).get();
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

    /// Freeze the registry into one ordering-stable [`MetricsSnapshot`],
    /// families sorted by name. Deliberately excludes wall-clock so
    /// identical recorded workloads export identical bytes.
    pub fn export_metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
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

    /// The report line of `stage` as [`Recorder::finish`] computes it.
    fn snapshot_of(rec: &Recorder, stage: Stage) -> StageSnapshot {
        rec.finish(0, 1).stages[stage.index()].clone()
    }

    #[test]
    fn record_and_snapshot_aggregate() {
        let s = Recorder::new();
        s.record_nanos(Stage::Parse, 1_000, 10);
        s.record_nanos(Stage::Parse, 3_000, 20);
        s.record_nanos(Stage::Parse, 2_000, 0);
        let snap = snapshot_of(&s, Stage::Parse);
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
        let snap = snapshot_of(&Recorder::new(), Stage::Fetch);
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
                        rec.record_nanos(Stage::Parse, 5_000, 100);
                        rec.record_nanos(Stage::Validate, 2_000, 0);
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
        rec.record_nanos(Stage::Fetch, 1_000, 64);
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
            let s = Recorder::new();
            for _ in 0..100 {
                s.record_nanos(Stage::Parse, 1u64 << i, 0);
            }
            let snap = snapshot_of(&s, Stage::Parse);
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
        let s = Recorder::new();
        s.record_nanos(Stage::Fetch, u64::MAX, 0); // clamped into the last sketch bucket
        let snap = snapshot_of(&s, Stage::Fetch);
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
        rec.count_eviction("truncated");
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
    fn tracer_and_worker_lanes_compose() {
        let rec = Recorder::with_tracer(8).with_worker_lanes(3);
        assert!(rec.tracing());
        rec.span(Span {
            trace: 0,
            stage: Stage::Fetch,
            start_ns: 0,
            duration_ns: 700,
            bytes: 32,
            worker: 2,
            outcome: SpanOutcome::Ok,
            detail: None,
        });
        assert_eq!(rec.pipeline_metrics().worker_busy(2).map(Counter::get), Some(700));
        assert_eq!(rec.timeline().map(|t| t.events.len()), Some(1));
        assert_eq!(rec.finish(1, 2).stages[Stage::Fetch.index()].bytes, 32);
    }

    #[test]
    fn recorder_exports_stage_families_and_registry_sorted_by_name() {
        let rec = Recorder::new().with_worker_lanes(2);
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
        rec.count_eviction("io-error");
        let metrics = rec.pipeline_metrics();
        assert_eq!(metrics.worker_busy(1).map(Counter::get), Some(2_000), "span fed lane 1");
        let snap = rec.export_metrics();
        let names: Vec<&str> = snap.families.iter().map(|f| f.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "families are sorted by name");
        assert_eq!(names.len(), 8, "the standard set plus the eviction family");
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
        // A fresh recorder exports the standard set; evictions register on
        // first use, so it has no eviction family yet.
        assert_eq!(Recorder::new().export_metrics().families.len(), 7);
        // Identical recorded workloads export identical bytes.
        assert_eq!(rec.export_metrics().to_openmetrics(), rec.export_metrics().to_openmetrics());
    }

    #[test]
    fn report_and_export_read_the_same_handles() {
        let rec = Recorder::new();
        for (nanos, bytes) in [(1_000, 10), (7_000, 0), (2_500, 30)] {
            rec.record_nanos(Stage::Validate, nanos, bytes);
        }
        let report = rec.finish(3, 1);
        let stage = &report.stages[Stage::Validate.index()];
        let snap = rec.export_metrics();
        let sample = |family: &str| {
            snap.families
                .iter()
                .find(|f| f.name == family)
                .and_then(|f| f.samples.iter().find(|s| s.labels[0].1 == "validate"))
                .cloned()
                .expect("validate sample")
        };
        let latency = sample("mosaic.stage.latency_ns");
        assert_eq!(stage.calls, latency.count);
        assert_eq!(stage.total_seconds, latency.value / 1e9);
        assert_eq!(stage.bytes as f64, sample("mosaic.stage.bytes").value);
        assert_eq!(stage.max_micros, 7.0);
        assert_eq!(rec.stage(Stage::Validate).count(), 3);
    }

    #[test]
    fn quantiles_rank_correctly() {
        let s = Recorder::new();
        // 9 fast calls (~1 µs) and 1 slow (~1 ms): p50 fast, p99 slow.
        for _ in 0..9 {
            s.record_nanos(Stage::Merge, 1_000, 0);
        }
        s.record_nanos(Stage::Merge, 1_000_000, 0);
        let snap = snapshot_of(&s, Stage::Merge);
        assert!(snap.p50_micros < 10.0, "p50 {}", snap.p50_micros);
        assert!(snap.p99_micros > 100.0, "p99 {}", snap.p99_micros);
    }
}
