//! Structured per-trace span tracing.
//!
//! The aggregate [`Recorder`](crate::Recorder) answers "how slow is the
//! parse stage on average?"; this module answers "*which* trace was slow,
//! in *which* stage, and what did its journey through
//! fetch→parse→validate→merge→categorize look like?". A [`Tracer`] collects
//! `(trace, stage, start_ns, duration_ns, bytes, outcome)` span events into
//! a bounded ring buffer behind one mutex — wrapping overwrites the oldest
//! spans, and the exact overwrite count is surfaced as
//! [`TraceTimeline::dropped`] so truncation is never silent.
//!
//! Under the same lock, a small per-stage list keeps the
//! [`EXEMPLARS_PER_STAGE`] slowest spans (trace name, duration, eviction
//! reason if any). The list is separate from the ring, so it survives ring
//! wrap: even when millions of spans have been overwritten, the slowest
//! ones remain inspectable.
//!
//! A [`TraceTimeline`] snapshot serializes two ways:
//!
//! * [`TraceTimeline::to_chrome_json`] — Chrome trace-event JSON, loadable
//!   in Perfetto or `chrome://tracing`: one track per worker thread holding
//!   the stage spans, plus one async span per trace stretching from its
//!   first to its last stage;
//! * [`TraceTimeline::render_slow_md`] — a compact markdown "slowest
//!   traces per stage" table for reports and CI artifacts.
//!
//! The time base is the owning recorder's epoch (nanoseconds since the run
//! started); the tracer itself never reads a clock, so determinism
//! arguments stay confined to the recorder.

use crate::lock::with_lock;
use crate::Stage;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Mutex;

/// How many slow-trace exemplars each stage retains.
pub const EXEMPLARS_PER_STAGE: usize = 10;

/// How a span ended: the trace advanced, or this stage evicted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SpanOutcome {
    /// The stage completed and the trace moved on.
    Ok,
    /// The stage evicted the trace: the input could not be read.
    IoError,
    /// The stage evicted the trace: the bytes did not parse.
    FormatCorrupt,
    /// The stage evicted the trace: validation failed fatally.
    Invalid,
}

impl SpanOutcome {
    /// Stable lowercase name (also the JSON spelling).
    pub fn name(self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::IoError => "io_error",
            SpanOutcome::FormatCorrupt => "format_corrupt",
            SpanOutcome::Invalid => "invalid",
        }
    }

    /// `true` when the stage evicted the trace.
    pub fn is_evicted(self) -> bool {
        self != SpanOutcome::Ok
    }
}

/// One timed stage execution, as recorded from a worker thread. `detail`
/// carries the typed eviction slug for exemplars; it is only read (and only
/// allocated into a `String`) when the span actually enters an exemplar
/// list.
#[derive(Debug, Clone, Copy)]
pub struct Span<'a> {
    /// Trace identity — the source index of the trace.
    pub trace: u64,
    /// The pipeline stage this span timed.
    pub stage: Stage,
    /// Start offset in nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// Bytes moved by the stage (0 when not byte-oriented).
    pub bytes: u64,
    /// Worker lane: 0 for the caller thread, `1 + pool index` for Rayon
    /// workers. Becomes the track (`tid`) in the Chrome trace.
    pub worker: u64,
    /// How the span ended.
    pub outcome: SpanOutcome,
    /// Typed eviction slug (e.g. `validation:non_positive_runtime`) for the
    /// exemplar table; `None` falls back to [`SpanOutcome::name`].
    pub detail: Option<&'a str>,
}

/// Everything the tracer's lock guards: span `n` lives in slot
/// `n % capacity` of `events` (pushed while the ring fills), `head` counts
/// every span ever offered, and `slowest` holds each stage's exemplars,
/// duration-descending.
#[derive(Debug)]
struct Ring {
    events: Vec<SpanEvent>,
    head: u64,
    slowest: [Vec<Exemplar>; Stage::ALL.len()],
}

/// The span sink: a bounded ring of [`Span`] events plus one slow-span
/// list per stage, all behind one mutex. Shared by reference across worker
/// threads; each [`Tracer::record`] takes the lock once.
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans (clamped to at least 1).
    /// The ring's storage is reserved once here, so recording a span that
    /// does not enter an exemplar list allocates nothing.
    pub fn new(capacity: usize) -> Tracer {
        let capacity = capacity.max(1);
        Tracer {
            capacity,
            ring: Mutex::new(Ring {
                events: Vec::with_capacity(capacity),
                head: 0,
                slowest: std::array::from_fn(|_| Vec::new()),
            }),
        }
    }

    /// Record one span: write it to its ring slot and offer it to its
    /// stage's exemplar list, under one acquisition of the lock.
    pub fn record(&self, span: Span<'_>) {
        let event = SpanEvent {
            trace: span.trace,
            stage: span.stage,
            start_ns: span.start_ns,
            duration_ns: span.duration_ns,
            bytes: span.bytes,
            worker: span.worker,
            outcome: span.outcome,
        };
        // Every write below completes before the closure returns, so a
        // panic elsewhere cannot leave the ring half-written and poison
        // recovery is sound (same argument as the executor's pool registry).
        with_lock(&self.ring, |ring| {
            let slot = (ring.head % self.capacity as u64) as usize;
            match ring.events.get_mut(slot) {
                Some(old) => *old = event,
                None => ring.events.push(event),
            }
            ring.head += 1;
            let Some(top) = ring.slowest.get_mut(span.stage.index()) else { return };
            let pos = top.partition_point(|e| e.duration_ns >= span.duration_ns);
            if pos < EXEMPLARS_PER_STAGE {
                top.truncate(EXEMPLARS_PER_STAGE - 1);
                top.insert(
                    pos,
                    Exemplar {
                        trace: span.trace,
                        duration_ns: span.duration_ns,
                        outcome: span.detail.unwrap_or(span.outcome.name()).to_owned(),
                    },
                );
            }
        });
    }

    /// Snapshot the ring and exemplar lists into an immutable, serializable
    /// [`TraceTimeline`]. Copies under the lock; sorts after releasing it.
    pub fn snapshot(&self) -> TraceTimeline {
        let (recorded, mut events, slowest) =
            with_lock(&self.ring, |ring| (ring.head, ring.events.clone(), ring.slowest.clone()));
        events.sort_by_key(|e| (e.start_ns, e.trace, e.stage.index()));
        let exemplars = Stage::ALL
            .into_iter()
            .zip(slowest)
            .map(|(stage, slowest)| StageExemplars { stage, slowest })
            .collect();
        TraceTimeline {
            capacity: self.capacity,
            recorded,
            dropped: recorded.saturating_sub(self.capacity as u64),
            events,
            exemplars,
        }
    }
}

/// One span, snapshotted out of the ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Trace identity (source index).
    pub trace: u64,
    /// The stage timed by this span.
    pub stage: Stage,
    /// Start offset in nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
    /// Bytes moved (0 when not byte-oriented).
    pub bytes: u64,
    /// Worker lane the span ran on.
    pub worker: u64,
    /// How the span ended.
    pub outcome: SpanOutcome,
}

/// One slow-trace exemplar, preserved across ring wrap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Exemplar {
    /// Trace identity (source index).
    pub trace: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
    /// Outcome label: `ok` or the typed eviction slug.
    pub outcome: String,
}

impl Exemplar {
    /// Display name of the trace, matching `generate`'s file naming.
    pub fn name(&self) -> String {
        format!("trace_{:07}", self.trace)
    }
}

/// The slow-span exemplars of one stage, slowest first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageExemplars {
    /// The stage the exemplars belong to.
    pub stage: Stage,
    /// Up to [`EXEMPLARS_PER_STAGE`] slowest spans, duration-descending.
    pub slowest: Vec<Exemplar>,
}

/// Immutable snapshot of a [`Tracer`]: the surviving span events, exact
/// accounting of what the ring dropped, and the per-stage slow-trace
/// exemplars. Deliberately *not* part of
/// `mosaic_pipeline::ResultSnapshot` — timelines are environmental, and the
/// determinism oracles must stay blind to them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceTimeline {
    /// Ring capacity the tracer ran with.
    pub capacity: usize,
    /// Total spans offered over the run.
    pub recorded: u64,
    /// Spans lost to ring wrap — `recorded - capacity`, never hidden.
    pub dropped: u64,
    /// Surviving spans, ordered by start offset.
    pub events: Vec<SpanEvent>,
    /// Per-stage slowest spans, one entry per [`Stage::ALL`] member.
    pub exemplars: Vec<StageExemplars>,
}

impl TraceTimeline {
    /// Serialize as Chrome trace-event JSON (the "JSON Array Format" with
    /// an object envelope), loadable in Perfetto or `chrome://tracing`.
    ///
    /// Layout: process 1 holds one track (`tid`) per worker thread with the
    /// stage spans as complete (`ph: "X"`) events, plus one nestable async
    /// span (`ph: "b"`/`"e"`, one per trace id) stretching from the trace's
    /// first stage to its last, so per-trace journeys read as single rows.
    pub fn to_chrome_json(&self) -> String {
        let us = |ns: u64| ns as f64 / 1_000.0;
        let mut events = Vec::new();
        let workers: BTreeSet<u64> = self.events.iter().map(|e| e.worker).collect();
        for w in workers {
            let name = if w == 0 { "main".to_owned() } else { format!("worker-{w}") };
            events.push(serde_json::json!({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": w,
                "args": {"name": name},
            }));
        }
        let mut extents: BTreeMap<u64, (u64, u64, SpanOutcome)> = BTreeMap::new();
        for e in &self.events {
            events.push(serde_json::json!({
                "name": e.stage.name(), "cat": "stage", "ph": "X",
                "pid": 1, "tid": e.worker,
                "ts": us(e.start_ns), "dur": us(e.duration_ns.max(1)),
                "args": {
                    "trace": e.trace,
                    "bytes": e.bytes,
                    "outcome": e.outcome.name(),
                },
            }));
            let end = e.start_ns.saturating_add(e.duration_ns);
            let entry = extents.entry(e.trace).or_insert((e.start_ns, end, e.outcome));
            entry.0 = entry.0.min(e.start_ns);
            entry.1 = entry.1.max(end);
            if e.outcome.is_evicted() {
                entry.2 = e.outcome;
            }
        }
        for (trace, (start, end, outcome)) in extents {
            let name = format!("trace_{trace:07}");
            events.push(serde_json::json!({
                "name": name, "cat": "trace", "ph": "b", "id": trace,
                "pid": 1, "ts": us(start),
                "args": {"outcome": outcome.name()},
            }));
            events.push(serde_json::json!({
                "name": name, "cat": "trace", "ph": "e", "id": trace,
                "pid": 1, "ts": us(end),
            }));
        }
        let doc = serde_json::json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "capacity": self.capacity,
                "recorded": self.recorded,
                "dropped": self.dropped,
            },
        });
        serde_json::to_string(&doc).unwrap_or_else(|_| "{\"traceEvents\":[]}".to_owned())
    }

    /// Render the per-stage slow-trace exemplars as one compact markdown
    /// table, with an explicit truncation note when the ring wrapped.
    pub fn render_slow_md(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### Slowest traces per stage\n");
        let _ = writeln!(
            out,
            "{} spans recorded, {} kept (ring capacity {}), {} dropped by wrap.\n",
            self.recorded,
            self.events.len(),
            self.capacity,
            self.dropped,
        );
        let _ = writeln!(out, "| stage | rank | trace | duration µs | outcome |");
        let _ = writeln!(out, "|---|---:|---|---:|---|");
        for group in &self.exemplars {
            for (rank, e) in group.slowest.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "| `{}` | {} | `{}` | {:.1} | `{}` |",
                    group.stage,
                    rank + 1,
                    e.name(),
                    e.duration_ns as f64 / 1_000.0,
                    e.outcome,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, stage: Stage, start_ns: u64, duration_ns: u64) -> Span<'static> {
        Span {
            trace,
            stage,
            start_ns,
            duration_ns,
            bytes: 0,
            worker: 0,
            outcome: SpanOutcome::Ok,
            detail: None,
        }
    }

    #[test]
    fn ring_keeps_the_newest_and_counts_drops_exactly() {
        let tracer = Tracer::new(8);
        for i in 0..100u64 {
            tracer.record(span(i, Stage::Parse, i * 10, 5));
        }
        let timeline = tracer.snapshot();
        assert_eq!(timeline.capacity, 8);
        assert_eq!(timeline.recorded, 100);
        assert_eq!(timeline.dropped, 92);
        assert_eq!(timeline.events.len(), 8);
        // Only the last 8 spans survive the wrap.
        let survivors: BTreeSet<u64> = timeline.events.iter().map(|e| e.trace).collect();
        assert_eq!(survivors, (92..100).collect());
    }

    #[test]
    fn every_snapshot_holds_exactly_the_newest_window() {
        let tracer = Tracer::new(5);
        for n in 1..=23u64 {
            tracer.record(span(n - 1, Stage::Fetch, n, 1));
            let timeline = tracer.snapshot();
            assert_eq!(timeline.recorded, n);
            assert_eq!(timeline.dropped, n.saturating_sub(5));
            let kept: Vec<u64> = timeline.events.iter().map(|e| e.trace).collect();
            assert_eq!(kept, (n.saturating_sub(5)..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_capacity_is_clamped_to_one_slot() {
        let tracer = Tracer::new(0);
        tracer.record(span(1, Stage::Merge, 0, 1));
        tracer.record(span(2, Stage::Merge, 1, 1));
        let timeline = tracer.snapshot();
        assert_eq!(timeline.capacity, 1);
        assert_eq!(timeline.dropped, 1);
        assert_eq!(timeline.events.iter().map(|e| e.trace).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn snapshot_orders_events_by_start_then_trace_then_stage() {
        let tracer = Tracer::new(8);
        tracer.record(span(3, Stage::Parse, 20, 1));
        tracer.record(span(2, Stage::Validate, 10, 1));
        tracer.record(span(2, Stage::Fetch, 10, 1));
        tracer.record(span(1, Stage::Categorize, 10, 1));
        let order: Vec<(u64, Stage)> =
            tracer.snapshot().events.iter().map(|e| (e.trace, e.stage)).collect();
        assert_eq!(
            order,
            [(1, Stage::Categorize), (2, Stage::Fetch), (2, Stage::Validate), (3, Stage::Parse)]
        );
    }

    #[test]
    fn equal_durations_keep_the_first_offered_exemplars() {
        let tracer = Tracer::new(4);
        for i in 0..(EXEMPLARS_PER_STAGE as u64 + 5) {
            tracer.record(span(i, Stage::Parse, i, 7_000));
        }
        let timeline = tracer.snapshot();
        let traces: Vec<u64> =
            timeline.exemplars[Stage::Parse.index()].slowest.iter().map(|e| e.trace).collect();
        assert_eq!(traces, (0..EXEMPLARS_PER_STAGE as u64).collect::<Vec<_>>());
    }

    #[test]
    fn stages_keep_separate_exemplar_lists() {
        let tracer = Tracer::new(4);
        for i in 0..30u64 {
            tracer.record(span(i, Stage::Fetch, i, 1_000 + i));
        }
        tracer.record(span(99, Stage::Merge, 0, 1));
        let timeline = tracer.snapshot();
        let merge = &timeline.exemplars[Stage::Merge.index()].slowest;
        assert_eq!(merge.iter().map(|e| e.trace).collect::<Vec<_>>(), [99]);
        assert_eq!(timeline.exemplars[Stage::Fetch.index()].slowest.len(), EXEMPLARS_PER_STAGE);
        assert!(timeline.exemplars[Stage::Parse.index()].slowest.is_empty());
    }

    #[test]
    fn a_poisoned_lock_still_records_and_snapshots() {
        let tracer = Tracer::new(4);
        tracer.record(span(1, Stage::Fetch, 0, 1));
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    with_lock(&tracer.ring, |_| panic!("poison the ring"));
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(tracer.ring.is_poisoned());
        tracer.record(span(2, Stage::Fetch, 1, 1));
        let timeline = tracer.snapshot();
        assert_eq!(timeline.recorded, 2);
        assert_eq!(timeline.events.iter().map(|e| e.trace).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn exemplars_survive_ring_wrap() {
        // A tiny ring, fed 200 spans whose slowest arrive early: the ring
        // forgets them, the exemplar list must not.
        let tracer = Tracer::new(4);
        for i in 0..200u64 {
            // Trace i runs for (200 - i) µs: trace 0 is slowest.
            tracer.record(span(i, Stage::Categorize, i, (200 - i) * 1_000));
        }
        let timeline = tracer.snapshot();
        assert_eq!(timeline.dropped, 196);
        let slow = &timeline.exemplars[Stage::Categorize.index()];
        assert_eq!(slow.stage, Stage::Categorize);
        assert_eq!(slow.slowest.len(), EXEMPLARS_PER_STAGE);
        let traces: Vec<u64> = slow.slowest.iter().map(|e| e.trace).collect();
        assert_eq!(traces, (0..EXEMPLARS_PER_STAGE as u64).collect::<Vec<_>>());
        assert!(slow.slowest.windows(2).all(|w| w[0].duration_ns >= w[1].duration_ns));
        assert_eq!(slow.slowest[0].name(), "trace_0000000");
    }

    #[test]
    fn exemplar_keeps_eviction_slug() {
        let tracer = Tracer::new(16);
        tracer.record(Span {
            trace: 7,
            stage: Stage::Validate,
            start_ns: 0,
            duration_ns: 9_000,
            bytes: 0,
            worker: 0,
            outcome: SpanOutcome::Invalid,
            detail: Some("validation:non_positive_runtime"),
        });
        tracer.record(span(8, Stage::Validate, 10, 1_000));
        let timeline = tracer.snapshot();
        let slow = &timeline.exemplars[Stage::Validate.index()].slowest;
        assert_eq!(slow[0].outcome, "validation:non_positive_runtime");
        assert_eq!(slow[1].outcome, "ok");
    }

    #[test]
    fn concurrent_recording_accounts_every_span() {
        let tracer = Tracer::new(64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let tracer = &tracer;
                scope.spawn(move || {
                    for i in 0..250u64 {
                        tracer.record(span(t * 1_000 + i, Stage::Merge, i, i + 1));
                    }
                });
            }
        });
        let timeline = tracer.snapshot();
        assert_eq!(timeline.recorded, 1_000);
        assert_eq!(timeline.dropped, 936);
        assert_eq!(timeline.events.len(), 64);
        let traces: BTreeSet<u64> = timeline.events.iter().map(|e| e.trace).collect();
        assert_eq!(traces.len(), 64, "every surviving slot holds a distinct span");
    }

    #[test]
    fn chrome_json_is_valid_and_complete() {
        let tracer = Tracer::new(32);
        tracer.record(span(1, Stage::Fetch, 0, 2_000));
        tracer.record(span(1, Stage::Parse, 2_000, 3_000));
        tracer.record(Span {
            trace: 2,
            stage: Stage::Parse,
            start_ns: 1_000,
            duration_ns: 500,
            bytes: 64,
            worker: 3,
            outcome: SpanOutcome::FormatCorrupt,
            detail: Some("truncated"),
        });
        let json = tracer.snapshot().to_chrome_json();
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        let phases: Vec<&str> = events.iter().filter_map(|e| e["ph"].as_str()).collect();
        assert!(phases.contains(&"M"), "thread metadata missing: {phases:?}");
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 3);
        // One async b/e pair per trace.
        assert_eq!(phases.iter().filter(|p| **p == "b").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "e").count(), 2);
        let x_parse = events
            .iter()
            .find(|e| e["ph"] == "X" && e["args"]["trace"] == 2)
            .expect("trace 2 span");
        assert_eq!(x_parse["tid"], 3);
        assert_eq!(x_parse["args"]["outcome"], "format_corrupt");
        assert_eq!(doc["otherData"]["dropped"], 0);
        let keys: Vec<&str> = doc["otherData"]
            .as_object()
            .expect("otherData object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["capacity", "dropped", "recorded"]);
        // The evicted trace's async span reports the eviction.
        let b2 = events
            .iter()
            .find(|e| e["ph"] == "b" && e["id"] == 2)
            .expect("async begin for trace 2");
        assert_eq!(b2["args"]["outcome"], "format_corrupt");
    }

    #[test]
    fn slow_table_renders_all_stages_and_truncation() {
        let tracer = Tracer::new(2);
        for stage in Stage::ALL {
            tracer.record(span(9, stage, 0, 4_000));
        }
        let md = tracer.snapshot().render_slow_md();
        for stage in Stage::ALL {
            assert!(md.contains(&format!("| `{}` |", stage.name())), "missing {stage} in\n{md}");
        }
        assert!(md.contains("trace_0000009"), "{md}");
        assert!(md.contains("3 dropped by wrap"), "{md}");
    }

    #[test]
    fn timeline_serde_round_trips() {
        let tracer = Tracer::new(8);
        tracer.record(span(1, Stage::Fetch, 0, 100));
        let timeline = tracer.snapshot();
        let json = serde_json::to_string(&timeline).expect("serializes");
        let back: TraceTimeline = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, timeline);
    }

    #[test]
    fn outcome_names_and_codes_are_stable() {
        for (outcome, name) in [
            (SpanOutcome::Ok, "ok"),
            (SpanOutcome::IoError, "io_error"),
            (SpanOutcome::FormatCorrupt, "format_corrupt"),
            (SpanOutcome::Invalid, "invalid"),
        ] {
            assert_eq!(outcome.name(), name);
            assert_eq!(outcome.is_evicted(), outcome != SpanOutcome::Ok);
        }
    }
}
