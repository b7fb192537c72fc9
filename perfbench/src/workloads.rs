//! The untraced, timed runs behind the end-to-end metrics.
//!
//! Each run repeats set-up several times, then repeats the workload's pass
//! over the corpus until the run's time is up, and reports medians over the
//! fastest tenth of the repetitions and of the passes (see [`calm_tenth`]).
//! Every pass is gated (funnel fates, category-set digest) outside its
//! timed interval; after the timed region
//! an untimed serial [`process`] pass is the reference the digests and the
//! streaming counts must equal.

use crate::corpus::{outcome_digest, Corpus, Fnv};
use crate::gate::Gate;
use crate::procfs::{cpu_seconds, PeakRss};
use crate::stats::{p50, quantile_sorted, sample_ns, Latency, P50};
use crate::Metric;
use mosaic_core::{Categorizer, CategorizerConfig};
use mosaic_obs::Recorder;
use mosaic_pipeline::{
    process, report_md, DirSource, IncrementalAnalyzer, PipelineConfig, PipelineResult, TraceInput,
    TraceSource,
};
use std::cell::Cell;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traces in the `bluewaters_dir` corpus.
pub const BLUE_WATERS_DIR_TRACES: usize = 6_000;
/// Traces in the `dense_periodic` corpus.
pub const DENSE_TRACES: usize = 96;
/// Traces in the `online_ingest` corpus.
pub const ONLINE_TRACES: usize = 4_000;
/// `online_ingest` reads the dashboard after every this many ingests.
pub const SNAPSHOT_EVERY: usize = 16;
/// Fewest set-up repetitions per run.
const SETUP_MIN_REPS: usize = 21;
/// Most set-up repetitions per run.
const SETUP_MAX_REPS: usize = 2_001;
/// Set-up repeats for at least this long, so a cheap set-up is sampled
/// across the host's short speed swings rather than in one burst.
const SETUP_SECONDS: f64 = 1.0;
/// Per-trace latency samples one run can hold. The buffer is filled before
/// the timed region so recording a sample never grows the resident set.
const MAX_SAMPLES: usize = 2_000_000;

/// Title of the markdown report the batch workloads write.
pub const REPORT_TITLE: &str = "Mosaic analysis";

/// What an end-to-end run measured.
pub struct Measured {
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The serial reference pass: [`process`] on one worker, untimed.
pub fn reference(source: &DirSource) -> PipelineResult {
    process(source, &PipelineConfig { threads: Some(1), ..Default::default() })
}

/// Repeat set-up for at least [`SETUP_SECONDS`] and [`SETUP_MIN_REPS`]
/// times (at most [`SETUP_MAX_REPS`]); return the median of the fastest
/// tenth of the repetitions (the same rule as for passes, see
/// [`calm_tenth`]) and the last value.
fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUP_MAX_REPS);
    let mut last = None;
    let started = Instant::now();
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(black_box(value));
    }
    let last = last.ok_or("no set-up ran")?;
    times.sort_by(f64::total_cmp);
    times.truncate(times.len().div_ceil(10));
    Ok((p50(&times), last))
}

/// Map an I/O error to a message naming what failed.
pub fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

thread_local! {
    /// When the current worker started fetching its current trace.
    static FETCH_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// A [`DirSource`] that stamps when each fetch starts. The pipeline runs
/// fetch → parse → validate → categorize → progress callback on one worker
/// thread, so the callback reads the stamp back and times the trace's
/// whole way through the funnel.
struct StampedSource<'a>(&'a DirSource);

impl TraceSource for StampedSource<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn fetch(&self, i: usize) -> std::io::Result<TraceInput> {
        FETCH_START.with(|s| s.set(Some(Instant::now())));
        self.0.fetch(i)
    }
}

/// Per-trace latencies of one batch pass, written by the progress callback.
struct PassLatencies {
    ns: Vec<AtomicU32>,
    next: AtomicUsize,
}

impl PassLatencies {
    fn record(&self) {
        if let Some(start) = FETCH_START.with(Cell::take) {
            // lint: allow(sync, "slot ticket only: each claimed index is written once, and the samples are read after process() has joined its workers")
            let slot = self.next.fetch_add(1, Ordering::Relaxed);
            if let Some(cell) = self.ns.get(slot) {
                cell.store(sample_ns(start.elapsed()), Ordering::Relaxed);
            }
        }
    }

    /// Move this pass's samples to `out` and reset for the next pass.
    fn drain_into(&self, out: &mut Vec<u32>) {
        let n = self.next.swap(0, Ordering::Relaxed).min(self.ns.len());
        out.extend(self.ns[..n].iter().map(|c| c.load(Ordering::Relaxed)));
    }
}

/// `bluewaters_dir` and `dense_periodic`: scan, then `process` at
/// `workers` threads, dedup, counts and Jaccard, and a markdown report
/// written to a file, as `mosaic run --dir` does.
pub fn batch(
    corpus: &Corpus,
    seconds: f64,
    workers: usize,
    work: &Path,
    gate: &mut Gate,
) -> Result<Measured, String> {
    // Set-up: the directory scan and the categorizer `process` builds. The
    // thread pool holds no threads until a pass fans out, so its cost falls
    // in the passes.
    let (setup_s, source) = repeat_setup(|| {
        let source = DirSource::scan(&corpus.dir).map_err(io("scan"))?;
        black_box(Categorizer::new(CategorizerConfig::default()));
        Ok(source)
    })?;
    if source.len() != corpus.len() {
        return Err(format!("scan found {} traces, expected {}", source.len(), corpus.len()));
    }
    let stamped = StampedSource(&source);
    let pass_latencies = Arc::new(PassLatencies {
        ns: (0..corpus.len()).map(|_| AtomicU32::new(u32::MAX)).collect(),
        next: AtomicUsize::new(0),
    });
    let recorder = Arc::clone(&pass_latencies);
    let config = PipelineConfig {
        threads: Some(workers),
        progress: Some(Arc::new(move |_, _, _: &Recorder| recorder.record())),
        ..Default::default()
    };
    let report_path = work.join("report.md");
    let mut latencies = Vec::with_capacity(MAX_SAMPLES);
    latencies.resize(MAX_SAMPLES, u32::MAX);
    latencies.clear();
    let mut passes = Vec::new();
    let mut digest = None;
    let mut last: Option<PipelineResult> = None;

    let peak = PeakRss::start().map_err(io("peak RSS reset"))?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while latencies.len() + corpus.len() <= MAX_SAMPLES {
        drop(last.take());
        let cpu0 = cpu_seconds().map_err(io("cpu time"))?;
        let t0 = Instant::now();
        let result = process(&stamped, &config);
        std::fs::write(&report_path, report_md::render(&result, REPORT_TITLE))
            .map_err(io("report"))?;
        let wall = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds().map_err(io("cpu time"))? - cpu0;
        let from = latencies.len();
        pass_latencies.drain_into(&mut latencies);
        passes.push(Pass {
            rate: corpus.len() as f64 / wall,
            cpu_s,
            traces: corpus.len(),
            samples: from..latencies.len(),
        });

        gate.batch_pass(&corpus.fates, &result.funnel, &result.outcomes);
        let d = outcome_digest(&result.outcomes);
        let first = *digest.get_or_insert(d);
        gate.check(d == first, || format!("category digest {d:#x} drifted from {first:#x}"));
        last = Some(result);
        if Instant::now() >= deadline {
            break;
        }
    }
    let peak = peak.finish().map_err(io("peak RSS"))?;

    drop(last);

    let reference = reference(&source);
    let reference_digest = outcome_digest(&reference.outcomes);
    gate.check(digest == Some(reference_digest), || {
        format!("timed digest {digest:x?} differs from the reference {reference_digest:#x}")
    });
    let accuracy = corpus.accuracy_pct(&reference.outcomes);
    let (metrics, latency) = end_to_end(&passes, &latencies, setup_s, peak.peak_mb, accuracy);
    Ok(Measured {
        metrics,
        notes: vec![
            format!("passes: {} of {} traces on {workers} workers", passes.len(), corpus.len()),
            describe_rates(&passes),
            peak.describe(),
            format!("per-trace latency, fetch to categorized, calm tenth: {}", latency.describe()),
            format!(
                "per-trace latency, fetch to categorized, all passes: {}",
                Latency::from_nanos(&latencies).describe()
            ),
            format!("category digest {reference_digest:#018x} (reference pass equal)"),
        ],
    })
}

/// One timed pass over the corpus.
struct Pass {
    /// Traces per second of wall time.
    rate: f64,
    /// CPU seconds the process spent in the pass, all threads.
    cpu_s: f64,
    traces: usize,
    /// The pass's per-trace latency samples, as a range of the run's buffer.
    samples: Range<usize>,
}

/// The fastest tenth of the passes (at least one).
///
/// The host is shared: other tenants slow passes down (never speed one
/// up), by an amount that drifts over minutes. The end-to-end figures come
/// from the least disturbed passes, so they repeat across runs instead of
/// following the neighbours' load.
fn calm_tenth(passes: &[Pass]) -> Vec<&Pass> {
    let mut sorted: Vec<&Pass> = passes.iter().collect();
    sorted.sort_by(|a, b| b.rate.total_cmp(&a.rate));
    sorted.truncate(passes.len().div_ceil(10));
    sorted
}

/// Quartiles of the per-pass throughputs, for judging a run's steadiness.
fn describe_rates(passes: &[Pass]) -> String {
    let mut sorted: Vec<f64> = passes.iter().map(|p| p.rate).collect();
    sorted.sort_by(f64::total_cmp);
    let q = |bp| quantile_sorted(&sorted, bp).unwrap_or(f64::NAN);
    format!(
        "pass throughput (1/s): min {:.1}, p25 {:.1}, p50 {:.1}, p75 {:.1}, max {:.1}",
        q(0),
        q(2_500),
        q(P50),
        q(7_500),
        q(10_000)
    )
}

/// The metrics every workload reports, in `BENCHMARK.json` order, from
/// the calm tenth of the passes; also returns its latency summary.
fn end_to_end(
    passes: &[Pass],
    samples: &[u32],
    setup_s: f64,
    peak_rss_mb: f64,
    accuracy_pct: f64,
) -> (Vec<Metric>, Latency) {
    let calm = calm_tenth(passes);
    let rates: Vec<f64> = calm.iter().map(|p| p.rate).collect();
    let cpu_s: f64 = calm.iter().map(|p| p.cpu_s).sum();
    let traces: usize = calm.iter().map(|p| p.traces).sum();
    let calm_samples: Vec<u32> =
        calm.iter().flat_map(|p| samples.get(p.samples.clone()).unwrap_or(&[])).copied().collect();
    let latency = Latency::from_nanos(&calm_samples);
    let metrics = vec![
        Metric::new("traces_per_s", "1/s", p50(&rates)),
        Metric::new("core_us_per_trace", "us", 1e6 * cpu_s / traces.max(1) as f64),
        Metric::new("setup_s", "s", setup_s),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb),
        Metric::new("accuracy_pct", "%", accuracy_pct),
        Metric::new("trace_latency_p50_us", "us", latency.p50),
    ];
    (metrics, latency)
}

/// `online_ingest`: one client feeding `IncrementalAnalyzer::ingest` with
/// in-memory bytes in a closed loop, reading the dashboard
/// (`single_run_counts` + `all_runs_counts`) every [`SNAPSHOT_EVERY`]
/// ingests, as `mosaic watch` does.
pub fn online(corpus: &Corpus, seconds: f64, gate: &mut Gate) -> Result<Measured, String> {
    // Set-up: scan the watched directory, load its traces into memory, and
    // build the analyzer.
    let (setup_s, (source, inputs)) = repeat_setup(|| {
        let source = DirSource::scan(&corpus.dir).map_err(io("scan"))?;
        let inputs = (0..source.len())
            .map(|i| source.fetch(i))
            .collect::<std::io::Result<Vec<TraceInput>>>()
            .map_err(io("read"))?;
        black_box(IncrementalAnalyzer::new(CategorizerConfig::default()));
        Ok((source, inputs))
    })?;
    if inputs.len() != corpus.len() {
        return Err(format!("scan found {} traces, expected {}", inputs.len(), corpus.len()));
    }
    let n = inputs.len();
    let mut ingest_ns = vec![u32::MAX; MAX_SAMPLES];
    let mut snapshot_ns = vec![u32::MAX; MAX_SAMPLES / SNAPSHOT_EVERY + 1];
    let (mut ingests, mut snapshots) = (0usize, 0usize);
    let mut valid = vec![false; n];
    let mut passes = Vec::new();
    let mut first = None;

    let peak = PeakRss::start().map_err(io("peak RSS reset"))?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while ingests + n <= ingest_ns.len() {
        let mut analyzer = IncrementalAnalyzer::new(CategorizerConfig::default());
        let mut digest = Fnv::default();
        valid.fill(false);
        let from = ingests;
        let cpu0 = cpu_seconds().map_err(io("cpu time"))?;
        let t0 = Instant::now();
        for (i, input) in inputs.iter().enumerate() {
            let t = Instant::now();
            let report = analyzer.ingest(input.clone());
            ingest_ns[ingests] = sample_ns(t.elapsed());
            ingests += 1;
            if let Some(report) = report {
                valid[i] = true;
                digest.categories(i, &report.categories);
            }
            if (i + 1) % SNAPSHOT_EVERY == 0 {
                let t = Instant::now();
                black_box(analyzer.single_run_counts());
                black_box(analyzer.all_runs_counts().clone());
                snapshot_ns[snapshots] = sample_ns(t.elapsed());
                snapshots += 1;
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds().map_err(io("cpu time"))? - cpu0;
        passes.push(Pass { rate: n as f64 / wall, cpu_s, traces: n, samples: from..ingests });

        gate.pass(&corpus.fates, &valid, analyzer.funnel().io_error);
        gate.funnel_classes(&corpus.fates, analyzer.funnel());
        let state = (
            digest.finish(),
            analyzer.funnel().clone(),
            analyzer.all_runs_counts().clone(),
            analyzer.single_run_counts(),
        );
        match &first {
            None => first = Some(state),
            Some(f) => gate.check(*f == state, || "streaming state drifted between passes".into()),
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let peak = peak.finish().map_err(io("peak RSS"))?;
    let (digest, funnel, all_runs, single_run) = first.ok_or("no pass completed")?;

    // The streaming results must equal the batch pipeline's on the same
    // inputs.
    let reference = reference(&source);
    let reference_digest = outcome_digest(&reference.outcomes);
    gate.check(digest == reference_digest, || {
        format!("streaming digest {digest:#x} differs from process {reference_digest:#x}")
    });
    gate.check(funnel == reference.funnel, || "streaming funnel differs from process".into());
    gate.check(all_runs == reference.all_runs_counts(), || {
        "all-runs counts differ from process".into()
    });
    gate.check(single_run == reference.single_run_counts(), || {
        "single-run counts differ from process".into()
    });
    let accuracy = corpus.accuracy_pct(&reference.outcomes);

    let all = Latency::from_nanos(&ingest_ns[..ingests]);
    let snapshot = Latency::from_nanos(&snapshot_ns[..snapshots]);
    let (metrics, latency) = end_to_end(&passes, &ingest_ns, setup_s, peak.peak_mb, accuracy);
    Ok(Measured {
        metrics,
        notes: vec![
            format!("passes: {} of {n} ingests, closed loop, 1 client", passes.len()),
            describe_rates(&passes),
            peak.describe(),
            format!("ingest latency, calm tenth: {}", latency.describe()),
            format!("ingest latency, all passes: {}", all.describe()),
            format!("dashboard read every {SNAPSHOT_EVERY} ingests: {}", snapshot.describe()),
            format!("category digest {reference_digest:#018x} (process on the same inputs equal)"),
        ],
    })
}
