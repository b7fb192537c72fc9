//! The unified metrics registry: counters, gauges, and quantile sketches
//! under stable dotted names with sorted static labels.
//!
//! The registry is the naming layer over the lock-free primitives. Handles
//! ([`Counter`], [`Gauge`], [`Summary`]) are `Arc`s of pure atomics —
//! recording through one never takes the registry lock, so the hot path
//! stays wait-free. The lock (a plain `Mutex` around a `BTreeMap`) is
//! touched only at registration and snapshot time, and when an eviction
//! registers its reason's counter on first use.
//!
//! [`PipelineMetrics`] is the pipeline's standard set, and the only metric
//! store the [`Recorder`](crate::Recorder) has: the per-stage latency
//! summaries and byte counters behind every `MetricsReport` live here too.
//!
//! Naming rules (enforced by sanitization, not panics — registration is
//! reachable from ingest):
//!
//! * names are lowercase dotted paths over `[a-z0-9_.]`: `mosaic.<area>.<measure>`;
//!   any other character is replaced with `_`;
//! * label keys follow the same alphabet (dots excluded); label sets are
//!   sorted by key at registration so exposition order is byte-stable;
//! * registering the same name with a different kind yields a *detached*
//!   handle: it records into thin air rather than corrupting the family or
//!   panicking on a worker thread.

use crate::expo::{MetricFamily, MetricKind, MetricsSnapshot, Sample};
use crate::lock::with_lock;
use crate::sketch::QuantileSketch;
use crate::Stage;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

pub use crate::counter::{Counter, Gauge};

/// A registered quantile sketch plus the running sum and count that
/// OpenMetrics summaries expose, and the largest observation — kept as
/// dedicated atomics so reading them (the progress line does, at every
/// redraw) does not scan the sketch's 976 buckets.
#[derive(Debug, Default)]
pub struct Summary {
    sketch: QuantileSketch,
    sum: Counter,
    n: Counter,
    max: Gauge,
}

/// Quantiles every registered summary exposes, ascending.
pub const SUMMARY_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

impl Summary {
    /// Fresh empty summary.
    pub fn new() -> Summary {
        Summary::default()
    }

    /// Record one observation. Wait-free.
    pub fn observe(&self, v: u64) {
        self.sketch.record(v);
        self.sum.add(v);
        self.n.inc();
        self.max.set_max(v);
    }

    /// The underlying sketch (for merging or direct quantile queries).
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.n.get()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// Largest observed value (0 before the first observation).
    pub fn max(&self) -> u64 {
        self.max.get()
    }
}

/// A single family's registered handles, keyed by sorted label set.
#[derive(Debug)]
enum Slots {
    Counter(BTreeMap<Vec<(String, String)>, Arc<Counter>>),
    Gauge(BTreeMap<Vec<(String, String)>, Arc<Gauge>>),
    Summary(BTreeMap<Vec<(String, String)>, Arc<Summary>>),
}

impl Slots {
    fn kind(&self) -> MetricKind {
        match self {
            Slots::Counter(_) => MetricKind::Counter,
            Slots::Gauge(_) => MetricKind::Gauge,
            Slots::Summary(_) => MetricKind::Summary,
        }
    }
}

#[derive(Debug)]
struct Family {
    help: String,
    slots: Slots,
}

/// Sanitize a dotted metric name: lowercase, `[a-z0-9_.]` only.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' | '.' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '_',
        })
        .collect()
}

/// Sanitize one label key (like names, but dots are invalid too).
fn sanitize_label_key(key: &str) -> String {
    sanitize_name(key).replace('.', "_")
}

/// Normalize a label set: sanitized keys, sorted by key.
fn normalize_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (sanitize_label_key(k), (*v).to_owned())).collect();
    out.sort();
    out
}

/// The unified registry: dotted names → kinds → labelled handles. Cheap to
/// share (`Arc` it), cheap to record through (handles are lock-free);
/// the internal lock guards only registration and snapshotting.
///
/// ```
/// use mosaic_obs::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// registry.counter("mosaic.demo.evictions", "Evictions", &[("reason", "truncated")]).add(2);
/// registry.counter("mosaic.demo.evictions", "Evictions", &[("reason", "bad_magic")]).inc();
/// assert_eq!(registry.counter_total("mosaic.demo.evictions"), 3);
/// let snapshot = registry.snapshot();
/// assert_eq!(snapshot.families[0].samples.len(), 2, "one series per label set");
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// Fresh empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or register the counter `name{labels}`. On a kind conflict the
    /// returned handle is detached (records, but is never exported).
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = sanitize_name(name);
        let labels = normalize_labels(labels);
        with_lock(&self.families, |families| {
            let family = families.entry(key).or_insert_with(|| Family {
                help: help.to_owned(),
                slots: Slots::Counter(BTreeMap::new()),
            });
            match &mut family.slots {
                Slots::Counter(slots) => Arc::clone(slots.entry(labels).or_default()),
                _ => Arc::new(Counter::new()),
            }
        })
    }

    /// Get or register the gauge `name{labels}`; detached on kind conflict.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = sanitize_name(name);
        let labels = normalize_labels(labels);
        with_lock(&self.families, |families| {
            let family = families.entry(key).or_insert_with(|| Family {
                help: help.to_owned(),
                slots: Slots::Gauge(BTreeMap::new()),
            });
            match &mut family.slots {
                Slots::Gauge(slots) => Arc::clone(slots.entry(labels).or_default()),
                _ => Arc::new(Gauge::new()),
            }
        })
    }

    /// Get or register the summary `name{labels}`; detached on kind conflict.
    pub fn summary(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Summary> {
        let key = sanitize_name(name);
        let labels = normalize_labels(labels);
        with_lock(&self.families, |families| {
            let family = families.entry(key).or_insert_with(|| Family {
                help: help.to_owned(),
                slots: Slots::Summary(BTreeMap::new()),
            });
            match &mut family.slots {
                Slots::Summary(slots) => Arc::clone(slots.entry(labels).or_default()),
                _ => Arc::new(Summary::new()),
            }
        })
    }

    /// Sum over every series of the counter family `name`; 0 when the
    /// family is absent or not a counter.
    pub fn counter_total(&self, name: &str) -> u64 {
        let name = sanitize_name(name);
        with_lock(&self.families, |families| match families.get(&name).map(|f| &f.slots) {
            Some(Slots::Counter(slots)) => slots.values().map(|c| c.get()).sum(),
            _ => 0,
        })
    }

    /// Freeze every family into an ordering-stable [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        with_lock(&self.families, |families| MetricsSnapshot {
            families: families.iter().map(|(name, family)| family.export(name)).collect(),
        })
    }
}

impl Family {
    /// This family's handles, read into one exported [`MetricFamily`].
    fn export(&self, name: &str) -> MetricFamily {
        let plain = |labels: &Vec<(String, String)>, value: u64| Sample {
            labels: labels.clone(),
            value: value as f64,
            quantiles: Vec::new(),
            count: 0,
        };
        let samples = match &self.slots {
            Slots::Counter(slots) => {
                slots.iter().map(|(labels, c)| plain(labels, c.get())).collect()
            }
            Slots::Gauge(slots) => slots.iter().map(|(labels, g)| plain(labels, g.get())).collect(),
            Slots::Summary(slots) => slots
                .iter()
                .map(|(labels, s)| {
                    let sketch = s.sketch().snapshot();
                    Sample {
                        labels: labels.clone(),
                        value: s.sum() as f64,
                        quantiles: SUMMARY_QUANTILES
                            .iter()
                            .map(|&q| (q, sketch.quantile(q)))
                            .collect(),
                        count: s.count(),
                    }
                })
                .collect(),
        };
        MetricFamily {
            name: name.to_owned(),
            kind: self.slots.kind(),
            help: self.help.clone(),
            samples,
        }
    }
}

/// Name of the eviction family: one counter per typed reason slug.
const EVICTIONS: &str = "mosaic.pipeline.evictions";

/// The pipeline's standard metric set, pre-registered so worker threads
/// record through cached `Arc` handles and never take the registry lock:
/// one latency [`Summary`] and one byte [`Counter`] per [`Stage`], the
/// in-flight, arena and dedup gauges, and per-lane busy counters. Every
/// `Recorder` owns one. Only evictions register lazily (under their
/// reason), so an export lists just the reasons that occurred.
#[derive(Debug)]
pub struct PipelineMetrics {
    registry: MetricsRegistry,
    stage_latency: [Arc<Summary>; Stage::ALL.len()],
    stage_bytes: [Arc<Counter>; Stage::ALL.len()],
    inflight: Arc<Gauge>,
    arena_resident: Arc<Gauge>,
    arena_peak: Arc<Gauge>,
    dedup_apps: Arc<Gauge>,
    worker_busy: Vec<Arc<Counter>>,
}

impl PipelineMetrics {
    /// Build the standard set for `lanes` worker lanes (lane 0 is the
    /// coordinating thread; rayon workers are 1-based).
    pub fn new(lanes: usize) -> PipelineMetrics {
        let registry = MetricsRegistry::new();
        let stage_latency = Stage::ALL.map(|stage| {
            registry.summary(
                "mosaic.stage.latency_ns",
                "Per-call stage latency (sketch quantiles)",
                &[("stage", stage.name())],
            )
        });
        let stage_bytes = Stage::ALL.map(|stage| {
            registry.counter(
                "mosaic.stage.bytes",
                "Bytes processed per pipeline stage",
                &[("stage", stage.name())],
            )
        });
        let inflight = registry.gauge(
            "mosaic.pipeline.traces.inflight",
            "Traces currently being parsed or categorized",
            &[],
        );
        let arena_resident = registry.gauge(
            "mosaic.arena.resident_bytes",
            "Bytes resident in the reporting worker's trace arena",
            &[],
        );
        let arena_peak = registry.gauge(
            "mosaic.arena.peak_bytes",
            "High-water mark of any single trace arena",
            &[],
        );
        let dedup_apps = registry.gauge(
            "mosaic.dedup.apps",
            "Distinct application keys currently held by deduplication",
            &[],
        );
        PipelineMetrics {
            registry,
            stage_latency,
            stage_bytes,
            inflight,
            arena_resident,
            arena_peak,
            dedup_apps,
            worker_busy: Vec::new(),
        }
        .with_lanes(lanes)
    }

    /// Grow the busy counters to at least `lanes` lanes (never fewer than
    /// one; lanes already registered are kept).
    pub(crate) fn with_lanes(mut self, lanes: usize) -> PipelineMetrics {
        for lane in self.worker_busy.len()..lanes.max(1) {
            let lane = lane.to_string();
            self.worker_busy.push(self.registry.counter(
                "mosaic.worker.busy_ns",
                "Nanoseconds each worker lane spent inside instrumented stages",
                &[("worker", lane.as_str())],
            ));
        }
        self
    }

    /// Record one timed call of `stage`: its latency, and its bytes when
    /// nonzero. Wait-free.
    pub(crate) fn record_stage(&self, stage: Stage, nanos: u64, bytes: u64) {
        self.stage_latency(stage).observe(nanos);
        if bytes > 0 {
            self.stage_bytes(stage).add(bytes);
        }
    }

    /// The latency summary (nanoseconds per call) of `stage`.
    #[expect(
        clippy::indexing_slicing,
        reason = "enum-derived index: Stage::index() < Stage::ALL.len() by construction"
    )]
    pub(crate) fn stage_latency(&self, stage: Stage) -> &Summary {
        &self.stage_latency[stage.index()]
    }

    /// The byte counter of `stage`.
    #[expect(
        clippy::indexing_slicing,
        reason = "enum-derived index: Stage::index() < Stage::ALL.len() by construction"
    )]
    pub(crate) fn stage_bytes(&self, stage: Stage) -> &Counter {
        &self.stage_bytes[stage.index()]
    }

    /// The in-flight traces gauge.
    pub fn inflight(&self) -> &Gauge {
        &self.inflight
    }

    /// The arena resident-bytes gauge (instantaneous).
    pub fn arena_resident(&self) -> &Gauge {
        &self.arena_resident
    }

    /// The arena peak-bytes watermark (update with [`Gauge::set_max`]).
    pub fn arena_peak(&self) -> &Gauge {
        &self.arena_peak
    }

    /// The dedup set-size gauge.
    pub fn dedup_apps(&self) -> &Gauge {
        &self.dedup_apps
    }

    /// Busy-time counter for `lane`, if it exists (out-of-range lanes —
    /// possible if rayon grows its pool mid-run — are dropped, not panicked
    /// on).
    pub fn worker_busy(&self, lane: usize) -> Option<&Counter> {
        self.worker_busy.get(lane).map(Arc::as_ref)
    }

    /// Count one eviction under its typed reason slug.
    pub fn count_eviction(&self, reason: &str) {
        self.registry.counter(EVICTIONS, "Funnel evictions by reason", &[("reason", reason)]).inc();
    }

    /// Evictions counted so far, over every reason.
    pub fn evictions(&self) -> u64 {
        self.registry.counter_total(EVICTIONS)
    }

    /// The underlying registry, for callers registering their own series.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Snapshot every family, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.set_max(7);
        assert_eq!(g.get(), 12, "set_max never lowers");
        g.set_max(99);
        assert_eq!(g.get(), 99);
    }

    #[test]
    fn a_poisoned_registry_still_registers_and_snapshots() {
        let r = MetricsRegistry::new();
        r.counter("mosaic.test.before", "h", &[]).add(2);
        let poisoner = std::thread::scope(|scope| {
            scope.spawn(|| with_lock(&r.families, |_| panic!("poison the registry"))).join()
        });
        assert!(poisoner.is_err());
        r.counter("mosaic.test.after", "h", &[]).inc();
        let names: Vec<String> = r.snapshot().families.into_iter().map(|f| f.name).collect();
        assert_eq!(names, ["mosaic.test.after", "mosaic.test.before"]);
        assert_eq!(r.counter_total("mosaic.test.before"), 2);
    }

    #[test]
    fn counter_total_sums_every_series_under_the_sanitized_name() {
        let r = MetricsRegistry::new();
        r.counter("mosaic.test.evictions", "h", &[("reason", "a")]).add(2);
        r.counter("mosaic.test.evictions", "h", &[("reason", "b")]).add(3);
        r.gauge("mosaic.test.level", "h", &[]).set(9);
        assert_eq!(r.counter_total("Mosaic.Test.Evictions"), 5);
        assert_eq!(r.counter_total("mosaic.test.level"), 0, "a gauge is not a counter");
        assert_eq!(r.counter_total("mosaic.test.absent"), 0);
    }

    #[test]
    fn concurrent_registration_and_snapshots_lose_no_series() {
        let r = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let r = &r;
                scope.spawn(move || {
                    for i in 0..50 {
                        let label = format!("{t}-{i}");
                        r.counter("mosaic.test.series", "h", &[("id", &label)]).inc();
                        if i % 10 == 0 {
                            let _ = r.snapshot();
                        }
                    }
                });
            }
        });
        assert_eq!(r.snapshot().families[0].samples.len(), 200);
        assert_eq!(r.counter_total("mosaic.test.series"), 200);
    }

    #[test]
    fn registry_returns_the_same_handle_for_the_same_series() {
        let r = MetricsRegistry::new();
        let a = r.counter("mosaic.test.hits", "h", &[("k", "v")]);
        let b = r.counter("mosaic.test.hits", "h", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "both handles alias one counter");
        let other = r.counter("mosaic.test.hits", "h", &[("k", "w")]);
        other.inc();
        assert_eq!(other.get(), 1, "different labels, different series");
    }

    #[test]
    fn kind_conflict_detaches_instead_of_corrupting() {
        let r = MetricsRegistry::new();
        let c = r.counter("mosaic.test.metric", "h", &[]);
        c.add(7);
        let g = r.gauge("mosaic.test.metric", "h", &[]);
        g.set(100);
        let snap = r.snapshot();
        assert_eq!(snap.families.len(), 1);
        assert_eq!(snap.families[0].kind, MetricKind::Counter);
        assert_eq!(snap.families[0].samples[0].value, 7.0, "gauge write went to a detached handle");
    }

    #[test]
    fn a_summary_or_counter_on_another_kinds_name_is_detached() {
        let r = MetricsRegistry::new();
        r.gauge("mosaic.test.level", "h", &[]).set(4);
        r.summary("mosaic.test.level", "h", &[]).observe(9);
        r.counter("mosaic.test.level", "h", &[]).add(5);
        let snap = r.snapshot();
        assert_eq!(snap.families.len(), 1);
        assert_eq!(snap.families[0].kind, MetricKind::Gauge);
        assert_eq!(snap.families[0].samples.len(), 1);
        assert_eq!(snap.families[0].samples[0].value, 4.0);
    }

    #[test]
    fn names_and_label_keys_are_sanitized_and_sorted() {
        let r = MetricsRegistry::new();
        r.counter("Mosaic.Weird Name!", "h", &[("z.key", "1"), ("a key", "2")]).inc();
        let snap = r.snapshot();
        assert_eq!(snap.families[0].name, "mosaic.weird_name_");
        assert_eq!(
            snap.families[0].samples[0].labels,
            vec![("a_key".to_owned(), "2".to_owned()), ("z_key".to_owned(), "1".to_owned())]
        );
    }

    #[test]
    fn snapshot_orders_families_by_name() {
        let r = MetricsRegistry::new();
        r.gauge("mosaic.b", "h", &[]).set(1);
        r.counter("mosaic.a", "h", &[]).inc();
        let snap = r.snapshot();
        let names: Vec<&str> = snap.families.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["mosaic.a", "mosaic.b"]);
    }

    #[test]
    fn summary_exposes_quantiles_sum_and_count() {
        let r = MetricsRegistry::new();
        let s = r.summary("mosaic.test.latency_ns", "h", &[]);
        for v in [100u64, 200, 300, 400] {
            s.observe(v);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 1000);
        assert_eq!(s.max(), 400);
        let snap = r.snapshot();
        let sample = &snap.families[0].samples[0];
        assert_eq!(sample.count, 4);
        assert_eq!(sample.value, 1000.0);
        assert_eq!(sample.quantiles.len(), SUMMARY_QUANTILES.len());
        assert!(sample.quantiles[0].1 <= sample.quantiles[2].1, "quantiles are monotone");
    }

    #[test]
    fn counter_total_sums_one_counter_family() {
        let r = MetricsRegistry::new();
        assert_eq!(r.counter_total("mosaic.test.hits"), 0, "absent family");
        r.counter("mosaic.test.hits", "h", &[("k", "a")]).add(2);
        r.counter("mosaic.test.hits", "h", &[("k", "b")]).add(5);
        r.counter("mosaic.test.other", "h", &[]).add(100);
        r.gauge("mosaic.test.level", "h", &[]).set(9);
        assert_eq!(r.counter_total("mosaic.test.hits"), 7, "every series of the family");
        assert_eq!(r.counter_total("mosaic.test.level"), 0, "a gauge is not summed");
    }

    #[test]
    fn worker_lanes_grow_but_never_shrink() {
        let m = PipelineMetrics::new(0);
        assert!(m.worker_busy(0).is_some(), "lane 0 always exists");
        assert!(m.worker_busy(1).is_none());
        let m = m.with_lanes(3);
        assert!(m.worker_busy(2).is_some());
        assert!(m.worker_busy(3).is_none());
        if let Some(w) = m.worker_busy(2) {
            w.add(40);
        }
        let m = m.with_lanes(1);
        assert_eq!(m.worker_busy(2).map(Counter::get), Some(40), "registered lanes are kept");
        let busy = m.snapshot().families.into_iter().find(|f| f.name == "mosaic.worker.busy_ns");
        assert_eq!(busy.map(|f| f.samples.len()), Some(3));
    }

    #[test]
    fn pipeline_metrics_standard_set() {
        let m = PipelineMetrics::new(2);
        m.inflight().add(3);
        m.inflight().sub(1);
        m.arena_resident().set(4096);
        m.arena_peak().set_max(4096);
        m.dedup_apps().set(5);
        m.count_eviction("io-error");
        m.count_eviction("io-error");
        m.count_eviction("truncated");
        assert_eq!(m.evictions(), 3, "the progress total sums every reason");
        m.record_stage(Stage::Parse, 1_500, 64);
        m.record_stage(Stage::Parse, 500, 0);
        assert_eq!(m.stage_latency(Stage::Parse).count(), 2);
        assert_eq!(m.stage_latency(Stage::Parse).max(), 1_500);
        assert_eq!(m.stage_bytes(Stage::Parse).get(), 64);
        assert!(m.worker_busy(1).is_some());
        assert!(m.worker_busy(99).is_none());
        if let Some(w) = m.worker_busy(0) {
            w.add(500);
        }
        let snap = m.snapshot();
        let names: Vec<&str> = snap.families.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "mosaic.arena.peak_bytes",
                "mosaic.arena.resident_bytes",
                "mosaic.dedup.apps",
                "mosaic.pipeline.evictions",
                "mosaic.pipeline.traces.inflight",
                "mosaic.stage.bytes",
                "mosaic.stage.latency_ns",
                "mosaic.worker.busy_ns",
            ]
        );
        let evictions = &snap.families[3];
        assert_eq!(evictions.samples[0].labels[0].1, "io-error");
        assert_eq!(evictions.samples[0].value, 2.0);
        let inflight = &snap.families[4];
        assert_eq!(inflight.samples[0].value, 2.0);
    }
}
