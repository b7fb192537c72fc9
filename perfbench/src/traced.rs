//! The traced run behind the per-layer metrics.
//!
//! A serial replay of the pipeline calls each layer's public function in
//! turn and times it: `DirSource::fetch` → `TraceView::parse` →
//! `validate_view` → `ColumnarTrace::load` → per direction
//! `merge_all_columnar` → `characterize_columnar` → `segment` →
//! `MeanShift::fit` → `detect_periodic`, then `metadata::characterize`,
//! dedup (`heaviest_per_app`) and the markdown report. Every replayed
//! `TraceReport` must equal `Categorizer::categorize_arena_timed` on the
//! same arena (checked outside the timed intervals).
//!
//! `detect_periodic` runs Mean Shift internally, so the replay fits once
//! more on the same features to time it: `clustering.meanshift` is that
//! separate fit, `core.periodicity.fold` is `detect_periodic` minus it, and
//! the extra fit is reported as `obs.replay_refit_s`. Layer self times,
//! the refit and `obs.unaccounted_s` sum to the traced wall time.
//!
//! Untraced passes interleave with the traced ones: a serial
//! scan + `process` + report pass (the base of `obs.trace_overhead_frac`),
//! `process` at 2 and at all workers (executor utilization and scaling),
//! and an `IncrementalAnalyzer` pass (streaming ingest and snapshot cost).

use crate::corpus::{outcome_digest, Corpus};
use crate::gate::Gate;
use crate::stats::{p50, sample_ns, Latency};
use crate::workloads::{io, reference, REPORT_TITLE, SNAPSHOT_EVERY};
use crate::Metric;
use mosaic_clustering::meanshift::MeanShift;
use mosaic_core::categorize::DirectionReport;
use mosaic_core::category::{Category, OpKindTag, TemporalityLabel};
use mosaic_core::columnar::{merge_all_columnar, MergeScratch, OpColumns, TraceArena};
use mosaic_core::periodicity::detect_periodic;
use mosaic_core::segment::{segment, Segment};
use mosaic_core::{metadata, temporality};
use mosaic_core::{Categorizer, CategorizerConfig, PeriodicityMethod, TraceReport};
use mosaic_darshan::view::validate_view;
use mosaic_darshan::{EvictReason, OpKind, TraceView};
use mosaic_obs::Recorder;
use mosaic_pipeline::dedup::heaviest_per_app;
use mosaic_pipeline::{
    process, report_md, DirSource, FunnelStats, IncrementalAnalyzer, PipelineConfig,
    PipelineResult, RunOutcome, TraceInput, TraceSource,
};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Busy time and call latencies of one layer.
#[derive(Default)]
struct Layer {
    busy: Duration,
    samples: Vec<u32>,
}

impl Layer {
    fn add(&mut self, d: Duration) {
        self.busy += d;
        self.samples.push(sample_ns(d));
    }

    fn calls(&self) -> usize {
        self.samples.len()
    }
}

/// Everything the traced passes accumulate.
#[derive(Default)]
struct Layers {
    scan: Layer,
    fetch: Layer,
    parse: Layer,
    validate: Layer,
    load: Layer,
    merge: Layer,
    temporality: Layer,
    segment: Layer,
    meanshift: Layer,
    /// Total time in `detect_periodic`, the fit inside it included.
    detect: Duration,
    metadata: Layer,
    categorize: Layer,
    dedup: Layer,
    report: Layer,
    refit: Duration,
    wall: Duration,
    fetched_bytes: u64,
    parse_rejects: usize,
    validate_evicts: usize,
    raw_ops: usize,
    merged_ops: usize,
    arena_peak_bytes: u64,
    segments: usize,
    points: usize,
    pairs: f64,
    multi_clusters: usize,
    patterns: usize,
}

impl Layers {
    /// Layer self times that, with the refit and the unaccounted rest, sum
    /// to the traced wall time. `categorize` is not among them: it is the
    /// sum of its sub-stages plus their glue.
    fn self_times(&self) -> [(&'static str, f64); 13] {
        let s = |d: Duration| d.as_secs_f64();
        [
            ("source.scan", s(self.scan.busy)),
            ("source.fetch", s(self.fetch.busy)),
            ("darshan.parse", s(self.parse.busy)),
            ("darshan.validate", s(self.validate.busy)),
            ("core.columnar.load", s(self.load.busy)),
            ("core.columnar.merge", s(self.merge.busy)),
            ("core.temporality", s(self.temporality.busy)),
            ("core.segment", s(self.segment.busy)),
            ("clustering.meanshift", s(self.meanshift.busy)),
            ("core.periodicity.fold", self.fold_s()),
            ("core.metadata", s(self.metadata.busy)),
            ("pipeline.dedup", s(self.dedup.busy)),
            ("core.report", s(self.report.busy)),
        ]
    }

    /// `detect_periodic` minus the Mean Shift fit inside it, estimated by
    /// the separate fit. Taken over totals, not per call, so timer noise on
    /// the (small) difference averages out instead of being clipped.
    fn fold_s(&self) -> f64 {
        self.detect.as_secs_f64() - self.meanshift.busy.as_secs_f64()
    }
}

/// `log10(1 + x)` features of a segment's opening operation, as
/// `detect_periodic` clusters them.
fn op_feature(s: &Segment) -> [f64; 2] {
    [(1.0 + s.op_duration.max(0.0)).log10(), (1.0 + s.bytes as f64).log10()]
}

/// One direction of the categorizer, layer by layer (mirrors the arena
/// path of `Categorizer::categorize_arena_timed`).
#[allow(clippy::too_many_arguments)]
fn replay_direction(
    raw: &OpColumns,
    runtime: f64,
    kind: OpKind,
    config: &CategorizerConfig,
    scratch: &mut MergeScratch,
    categories: &mut BTreeSet<Category>,
    layers: &mut Layers,
    refit: &mut Duration,
) -> DirectionReport {
    let tag = OpKindTag::from(kind);
    let t = Instant::now();
    merge_all_columnar(raw, runtime, config, scratch);
    layers.merge.add(t.elapsed());
    layers.raw_ops += raw.len();
    layers.merged_ops += scratch.merged.len();

    let t = Instant::now();
    let temporality = temporality::characterize_columnar(&scratch.merged, runtime, config);
    layers.temporality.add(t.elapsed());
    categories.insert(Category::Temporality { kind: tag, label: temporality.label });

    let mut periodic = Vec::new();
    if temporality.label != TemporalityLabel::Insignificant {
        let t = Instant::now();
        scratch.merged.materialize(kind, &mut scratch.ops);
        let segments = segment(&scratch.ops, runtime);
        layers.segment.add(t.elapsed());
        layers.segments += segments.len();

        if segments.len() >= config.min_periodic_occurrences {
            let t = Instant::now();
            let features: Vec<[f64; 2]> = segments.iter().map(op_feature).collect();
            let clustering = MeanShift::new(config.meanshift_bandwidth).fit(&features);
            let fit = t.elapsed();
            layers.meanshift.add(fit);
            *refit += fit;
            layers.points += features.len();
            layers.pairs += (features.len() as f64).powi(2);
            layers.multi_clusters += clustering.clusters().filter(|(_, m)| m.len() >= 2).count();
        }
        let t = Instant::now();
        periodic = detect_periodic(&segments, config);
        layers.detect += t.elapsed();
        layers.patterns += periodic.len();
    }

    if !periodic.is_empty() {
        categories.insert(Category::Periodic { kind: tag });
        for p in &periodic {
            categories.insert(Category::PeriodicMagnitude { kind: tag, magnitude: p.magnitude });
            categories.insert(if p.is_low_busy(config.busy_time_split) {
                Category::PeriodicLowBusyTime { kind: tag }
            } else {
                Category::PeriodicHighBusyTime { kind: tag }
            });
        }
    }
    DirectionReport { merged_ops: scratch.merged.len(), raw_ops: raw.len(), temporality, periodic }
}

/// The categorizer on a loaded arena, layer by layer. Returns the report
/// and the time spent refitting Mean Shift for the measurement.
fn replay_categorize(
    arena: &mut TraceArena,
    config: &CategorizerConfig,
    layers: &mut Layers,
) -> (TraceReport, Duration) {
    let start = Instant::now();
    let mut refit = Duration::ZERO;
    let TraceArena { trace, scratch } = arena;
    let mut categories = BTreeSet::new();
    let read = replay_direction(
        &trace.reads,
        trace.runtime,
        OpKind::Read,
        config,
        scratch,
        &mut categories,
        layers,
        &mut refit,
    );
    let write = replay_direction(
        &trace.writes,
        trace.runtime,
        OpKind::Write,
        config,
        scratch,
        &mut categories,
        layers,
        &mut refit,
    );
    let t = Instant::now();
    let metadata = metadata::characterize(&trace.meta, trace.runtime, trace.nprocs, config);
    layers.metadata.add(t.elapsed());
    categories.extend(metadata.labels.iter().map(|&l| Category::Metadata(l)));
    let report = TraceReport {
        categories,
        read,
        write,
        metadata,
        runtime: trace.runtime,
        nprocs: trace.nprocs,
    };
    layers.categorize.add(start.elapsed().saturating_sub(refit));
    (report, refit)
}

/// One traced pass over the corpus directory. Returns the pass result and
/// the number of replayed reports that differ from the categorizer's.
fn traced_pass(
    dir: &Path,
    categorizer: &Categorizer,
    layers: &mut Layers,
    report_path: &Path,
) -> Result<(PipelineResult, usize), String> {
    let config = categorizer.config();
    let pass_start = Instant::now();
    let mut excluded = Duration::ZERO;

    let t = Instant::now();
    let source = DirSource::scan(dir).map_err(io("scan"))?;
    layers.scan.add(t.elapsed());

    let mut arena = TraceArena::default();
    let mut funnel = FunnelStats { total: source.len(), ..Default::default() };
    let mut outcomes = Vec::new();
    let mut mismatches = 0;
    for i in 0..source.len() {
        let t = Instant::now();
        let fetched = source.fetch(i);
        layers.fetch.add(t.elapsed());
        let bytes = match fetched {
            Ok(TraceInput::Bytes(bytes)) => bytes,
            Ok(TraceInput::Log(_)) | Err(_) => {
                funnel.record_eviction(EvictReason::IoError);
                continue;
            }
        };
        layers.fetched_bytes += bytes.len() as u64;

        let t = Instant::now();
        let parsed = TraceView::parse(&bytes);
        layers.parse.add(t.elapsed());
        let view = match parsed {
            Ok(view) => view,
            Err(err) => {
                layers.parse_rejects += 1;
                funnel.record_eviction(EvictReason::from(&err));
                continue;
            }
        };

        let t = Instant::now();
        let validity = validate_view(&view);
        layers.validate.add(t.elapsed());
        if validity.is_fatal() {
            layers.validate_evicts += 1;
            funnel.record_eviction(validity.evict_reason());
            continue;
        }

        let t = Instant::now();
        arena.trace.load(&view, &validity);
        layers.load.add(t.elapsed());
        layers.arena_peak_bytes = layers.arena_peak_bytes.max(arena.resident_bytes());

        let (report, refit) = replay_categorize(&mut arena, config, layers);
        layers.refit += refit;

        // Fidelity check, outside the traced time.
        let t = Instant::now();
        let (expected, _) = categorizer.categorize_arena_timed(&mut arena);
        if expected != report {
            mismatches += 1;
        }
        excluded += t.elapsed();

        outcomes.push(RunOutcome {
            index: i,
            app_key: view.app_key(),
            weight: arena.trace.weight,
            sanitized_records: validity.record_errors.len(),
            start_time: view.start_time,
            end_time: view.end_time,
            report,
        });
    }
    funnel.valid = outcomes.len();

    let t = Instant::now();
    let representatives = heaviest_per_app(outcomes.iter().map(|o| (o.app_key.clone(), o.weight)));
    layers.dedup.add(t.elapsed());
    funnel.unique_apps = representatives.len();

    let metrics = Recorder::new().finish(funnel.total as u64, 1);
    let result = PipelineResult {
        funnel,
        outcomes,
        representatives,
        metrics,
        timeline: None,
        registry: None,
    };
    let t = Instant::now();
    std::fs::write(report_path, report_md::render(&result, REPORT_TITLE)).map_err(io("report"))?;
    layers.report.add(t.elapsed());

    layers.wall += pass_start.elapsed().saturating_sub(excluded);
    Ok((result, mismatches))
}

/// The same work untraced: scan, serial `process` (which dedups), report.
/// Returns the whole pass's wall time and the `process` part of it.
fn untraced_pass(dir: &Path, report_path: &Path) -> Result<(Duration, Duration), String> {
    let t = Instant::now();
    let source = DirSource::scan(dir).map_err(io("scan"))?;
    let p = Instant::now();
    let result = process(&source, &PipelineConfig { threads: Some(1), ..Default::default() });
    let process_wall = p.elapsed();
    std::fs::write(report_path, report_md::render(&result, REPORT_TITLE)).map_err(io("report"))?;
    Ok((t.elapsed(), process_wall))
}

/// Per-layer metrics of one workload's corpus.
pub fn run(
    corpus: &Corpus,
    seconds: f64,
    workers: usize,
    work: &Path,
    gate: &mut Gate,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let categorizer = Categorizer::new(CategorizerConfig::default());
    if categorizer.config().periodicity_method != PeriodicityMethod::MeanShift {
        return Err("the replay assumes Mean Shift periodicity detection".into());
    }
    let report_path = work.join("report.md");
    let source = DirSource::scan(&corpus.dir).map_err(io("scan"))?;
    let inputs = (0..source.len())
        .map(|i| source.fetch(i))
        .collect::<std::io::Result<Vec<TraceInput>>>()
        .map_err(io("read"))?;
    let reference = reference(&source);
    let reference_digest = outcome_digest(&reference.outcomes);

    let mut layers = Layers::default();
    let mut untraced_wall = Duration::ZERO;
    let (mut serial, mut two, mut all) = (Vec::new(), Vec::new(), Vec::new());
    let mut busy_fracs = Vec::new();
    let (mut ingest, mut snapshot, mut apps) = (Layer::default(), Layer::default(), 0);
    let mut passes = 0u32;
    let started = Instant::now();
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        passes += 1;
        let (result, mismatches) =
            traced_pass(&corpus.dir, &categorizer, &mut layers, &report_path)?;
        gate.check(mismatches == 0, || {
            format!("{mismatches} replayed reports differ from categorize_arena_timed")
        });
        gate.batch_pass(&corpus.fates, &result.funnel, &result.outcomes);
        let digest = outcome_digest(&result.outcomes);
        gate.check(digest == reference_digest, || {
            format!("traced digest {digest:#x} differs from the reference {reference_digest:#x}")
        });
        gate.check(result.funnel == reference.funnel, || "traced funnel differs".into());
        drop(result);

        let (wall, process_wall) = untraced_pass(&corpus.dir, &report_path)?;
        untraced_wall += wall;
        serial.push(process_wall.as_secs_f64());
        for (threads, walls) in [(2, &mut two), (workers, &mut all)] {
            let config = PipelineConfig { threads: Some(threads), ..Default::default() };
            let t = Instant::now();
            let result = process(&source, &config);
            walls.push(t.elapsed().as_secs_f64());
            if threads == workers {
                let m = &result.metrics;
                let stage_s: f64 = m.stages.iter().map(|s| s.total_seconds).sum();
                busy_fracs.push(stage_s / (m.workers as f64 * m.wall_seconds));
            }
        }

        let mut analyzer = IncrementalAnalyzer::new(CategorizerConfig::default());
        let mut valid = vec![false; inputs.len()];
        for (i, input) in inputs.iter().enumerate() {
            let t = Instant::now();
            let report = analyzer.ingest(input.clone());
            ingest.add(t.elapsed());
            valid[i] = report.is_some();
            black_box(report);
            if (i + 1) % SNAPSHOT_EVERY == 0 {
                let t = Instant::now();
                black_box(analyzer.single_run_counts());
                black_box(analyzer.all_runs_counts().clone());
                snapshot.add(t.elapsed());
            }
        }
        apps = analyzer.apps().len();
        gate.pass(&corpus.fates, &valid, analyzer.funnel().io_error);
        gate.check(analyzer.single_run_counts() == reference.single_run_counts(), || {
            "streaming single-run counts differ from process".into()
        });
    }

    let per_pass = |d: Duration| d.as_secs_f64() / f64::from(passes);
    let n = f64::from(passes);
    let l = &layers;
    let accounted: f64 = l.self_times().iter().map(|(_, s)| s).sum::<f64>() + l.refit.as_secs_f64();
    let unaccounted = l.wall.as_secs_f64() - accounted;
    let overhead = l.wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0;
    let lat = |layer: &Layer| Latency::from_nanos(&layer.samples);
    let (fetch, parse, meanshift, categorize) =
        (lat(&l.fetch), lat(&l.parse), lat(&l.meanshift), lat(&l.categorize));
    let busy_frac = p50(&busy_fracs);
    let (serial_s, two_s, all_s) = (p50(&serial), p50(&two), p50(&all));
    let ratio = |num: usize, den: usize| num as f64 / den.max(1) as f64;

    let metrics = vec![
        Metric::new("source.scan_s", "s", p50(&secs(&l.scan.samples))),
        Metric::new("source.fetch.calls", "count", l.fetch.calls() as f64 / n),
        Metric::new("source.fetch.busy_s", "s", per_pass(l.fetch.busy)),
        Metric::new("source.fetch.p99_us", "us", fetch.p99),
        Metric::new(
            "source.fetch.mb_per_s",
            "MB/s",
            l.fetched_bytes as f64 / 1e6 / l.fetch.busy.as_secs_f64(),
        ),
        Metric::new("darshan.parse.calls", "count", l.parse.calls() as f64 / n),
        Metric::new("darshan.parse.busy_s", "s", per_pass(l.parse.busy)),
        Metric::new("darshan.parse.p99_us", "us", parse.p99),
        Metric::new("darshan.parse.reject_frac", "ratio", ratio(l.parse_rejects, l.parse.calls())),
        Metric::new("darshan.validate.calls", "count", l.validate.calls() as f64 / n),
        Metric::new("darshan.validate.busy_s", "s", per_pass(l.validate.busy)),
        Metric::new(
            "darshan.validate.evict_frac",
            "ratio",
            ratio(l.validate_evicts, l.validate.calls()),
        ),
        Metric::new("core.columnar.load_busy_s", "s", per_pass(l.load.busy)),
        Metric::new("core.columnar.merge_busy_s", "s", per_pass(l.merge.busy)),
        Metric::new("core.columnar.merge_keep_frac", "ratio", ratio(l.merged_ops, l.raw_ops)),
        Metric::new("core.columnar.arena_peak_bytes", "bytes", l.arena_peak_bytes as f64),
        Metric::new("core.temporality.busy_s", "s", per_pass(l.temporality.busy)),
        Metric::new("core.segment.busy_s", "s", per_pass(l.segment.busy)),
        Metric::new("core.segment.segments", "count", l.segments as f64 / n),
        Metric::new("core.metadata.busy_s", "s", per_pass(l.metadata.busy)),
        Metric::new("clustering.meanshift.calls", "count", l.meanshift.calls() as f64 / n),
        Metric::new("clustering.meanshift.busy_s", "s", per_pass(l.meanshift.busy)),
        Metric::new("clustering.meanshift.p99_us", "us", meanshift.p99),
        Metric::new("clustering.meanshift.points", "count", l.points as f64 / n),
        Metric::new("clustering.meanshift.pairs_computed", "count", l.pairs / n),
        Metric::new("core.periodicity.fold_busy_s", "s", l.fold_s().max(0.0) / n),
        Metric::new("core.periodicity.accept_frac", "ratio", ratio(l.patterns, l.multi_clusters)),
        Metric::new("core.categorize.busy_s", "s", per_pass(l.categorize.busy)),
        Metric::new("core.categorize.p50_us", "us", categorize.p50),
        Metric::new("core.categorize.p99_us", "us", categorize.p99),
        Metric::new("pipeline.dedup.busy_s", "s", per_pass(l.dedup.busy)),
        Metric::new("core.report.busy_s", "s", per_pass(l.report.busy)),
        Metric::new("pipeline.executor.worker_busy_frac", "ratio", busy_frac),
        Metric::new("pipeline.executor.unaccounted_frac", "ratio", 1.0 - busy_frac),
        Metric::new("pipeline.executor.scaling_1_to_2", "x", serial_s / two_s),
        Metric::new("pipeline.executor.scaling_1_to_n", "x", serial_s / all_s),
        Metric::new("pipeline.incremental.ingest_busy_s", "s", per_pass(ingest.busy)),
        Metric::new("pipeline.incremental.ingest_p99_us", "us", lat(&ingest).p99),
        Metric::new("pipeline.incremental.snapshot_busy_s", "s", per_pass(snapshot.busy)),
        Metric::new("pipeline.incremental.snapshot_p50_us", "us", lat(&snapshot).p50),
        Metric::new("pipeline.incremental.snapshot_p99_us", "us", lat(&snapshot).p99),
        Metric::new("pipeline.incremental.apps", "count", apps as f64),
        Metric::new("obs.traced_wall_s", "s", per_pass(l.wall)),
        Metric::new("obs.replay_refit_s", "s", per_pass(l.refit)),
        Metric::new("obs.unaccounted_s", "s", unaccounted / n),
        Metric::new("obs.trace_overhead_frac", "ratio", overhead),
    ];

    let mut notes = vec![
        format!("traced passes: {passes}; every per-layer time is per pass over the corpus"),
        "source.fetch reads from the page cache (the corpus was just written)".into(),
        format!("source.fetch latency: {}", fetch.describe()),
        format!("darshan.parse latency: {}", parse.describe()),
        format!("clustering.meanshift latency: {}", meanshift.describe()),
        format!("core.categorize latency: {}", categorize.describe()),
        format!("pipeline.incremental ingest latency: {}", lat(&ingest).describe()),
        format!(
            "pipeline.incremental dashboard read every {SNAPSHOT_EVERY} ingests: {}",
            lat(&snapshot).describe()
        ),
        "clustering.meanshift.pairs_computed is sum(n^2) over fits, computed, not counted".into(),
        format!(
            "process wall: 1 worker {serial_s:.4} s, 2 workers {two_s:.4} s, {workers} workers \
             {all_s:.4} s (available_parallelism = {workers})"
        ),
        "traced wall = sum of layer self times + obs.replay_refit_s + obs.unaccounted_s:".into(),
    ];
    for (name, s) in l.self_times() {
        notes.push(format!("  {name:<24} {:>10.6} s", s / n));
    }
    notes.push(format!("  {:<24} {:>10.6} s", "obs.replay_refit", per_pass(l.refit)));
    notes.push(format!("  {:<24} {:>10.6} s", "unaccounted", unaccounted / n));
    notes.push(format!("  {:<24} {:>10.6} s", "traced wall", per_pass(l.wall)));

    // The largest categorize sub-stage, for the Mean Shift prediction.
    let sub_stages = [
        ("core.columnar.merge", l.merge.busy.as_secs_f64()),
        ("core.temporality", l.temporality.busy.as_secs_f64()),
        ("core.segment", l.segment.busy.as_secs_f64()),
        ("clustering.meanshift", l.meanshift.busy.as_secs_f64()),
        ("core.periodicity.fold", l.fold_s()),
        ("core.metadata", l.metadata.busy.as_secs_f64()),
    ];
    let (largest, largest_busy) =
        sub_stages.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap_or(("none", 0.0));
    let share = l.meanshift.busy.as_secs_f64() / l.categorize.busy.as_secs_f64().max(1e-12);
    notes.push(format!(
        "largest categorize sub-stage: {largest} ({:.6} s per pass); clustering.meanshift is \
         {:.1}% of core.categorize",
        largest_busy / n,
        100.0 * share
    ));
    Ok((metrics, notes))
}

fn secs(samples: &[u32]) -> Vec<f64> {
    samples.iter().map(|&ns| f64::from(ns) / 1e9).collect()
}
