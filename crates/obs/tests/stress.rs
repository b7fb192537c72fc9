//! Multi-threaded stress test for the span ring: N real writer threads
//! hammering one [`Tracer`] while a concurrent reader snapshots it, plus an
//! exactness check on the per-stage slow-span exemplars under the same
//! contention.
//!
//! Every span carries a self-describing payload (`duration = trace + 1`,
//! `bytes = trace + 2`, `start = trace + 3`, `worker = trace / TRACE_BASE`)
//! so a mix of two writers' fields in one slot is detectable as an
//! internal inconsistency, not just a statistical anomaly.

use mosaic_obs::trace::{Span, SpanOutcome, TraceTimeline, Tracer, EXEMPLARS_PER_STAGE};
use mosaic_obs::{Counter, Stage};
use std::collections::BTreeSet;

/// Writer threads, spans per writer, and the (deliberately small, so the
/// ring wraps dozens of times) slot capacity.
const WRITERS: u64 = 4;
const SPANS_PER_WRITER: u64 = 3_000;
const CAPACITY: usize = 256;

/// Trace-id stride per writer; must exceed [`SPANS_PER_WRITER`] so ids
/// never collide across writers.
const TRACE_BASE: u64 = 10_000;

fn span_for(trace: u64, worker: u64) -> Span<'static> {
    Span {
        trace,
        stage: Stage::Parse,
        start_ns: trace + 3,
        duration_ns: trace + 1,
        bytes: trace + 2,
        worker,
        outcome: SpanOutcome::Ok,
        detail: None,
    }
}

/// Invariants that must hold for *every* snapshot, including ones taken
/// mid-write: every filled slot surfaces as a whole event, no ghost or
/// duplicated spans, and internally consistent payloads.
fn check_snapshot(snap: &TraceTimeline) {
    let filled = snap.recorded.min(CAPACITY as u64);
    assert_eq!(snap.events.len() as u64, filled, "every filled slot surfaces as one event");
    assert_eq!(snap.dropped, snap.recorded.saturating_sub(CAPACITY as u64));
    let mut traces = BTreeSet::new();
    for e in &snap.events {
        assert!(traces.insert(e.trace), "trace {} surfaced twice in one snapshot", e.trace);
        assert_eq!(e.duration_ns, e.trace + 1, "mixed payload: duration does not match trace");
        assert_eq!(e.bytes, e.trace + 2, "mixed payload: bytes does not match trace");
        assert_eq!(e.start_ns, e.trace + 3, "mixed payload: start does not match trace");
        assert_eq!(e.worker, e.trace / TRACE_BASE, "mixed payload: worker does not match trace");
        assert_eq!(e.stage, Stage::Parse);
        let writer = e.trace / TRACE_BASE;
        let seq = e.trace % TRACE_BASE;
        assert!(writer < WRITERS && seq < SPANS_PER_WRITER, "ghost trace id {}", e.trace);
    }
    for per_stage in &snap.exemplars {
        let slowest = &per_stage.slowest;
        assert!(slowest.len() <= EXEMPLARS_PER_STAGE);
        for pair in slowest.windows(2) {
            assert!(
                pair[0].duration_ns >= pair[1].duration_ns,
                "exemplars must stay duration-descending"
            );
        }
        if per_stage.stage != Stage::Parse {
            assert!(slowest.is_empty(), "no spans were offered to {}", per_stage.stage.name());
        }
    }
}

#[test]
fn concurrent_writers_and_reader_never_corrupt_the_ring() {
    let tracer = Tracer::new(CAPACITY);
    // Both flags only pace the threads; every span travels through the
    // tracer's lock, so relaxed counters are enough.
    let writers_done = Counter::new();
    // Writers hold off until the reader is running, so a loaded machine
    // cannot schedule every write before the first snapshot.
    let reader_started = Counter::new();
    let snapshots_taken = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let tracer = &tracer;
                let reader_started = &reader_started;
                scope.spawn(move || {
                    while reader_started.get() == 0 {
                        std::thread::yield_now();
                    }
                    for i in 0..SPANS_PER_WRITER {
                        tracer.record(span_for(w * TRACE_BASE + i, w));
                    }
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            let mut taken = 0u64;
            reader_started.inc();
            while writers_done.get() == 0 {
                check_snapshot(&tracer.snapshot());
                taken += 1;
            }
            taken
        });
        for h in handles {
            h.join().expect("writer thread panicked");
        }
        writers_done.inc();
        reader.join().expect("reader thread panicked")
    });
    assert!(snapshots_taken > 0, "the reader must have observed the ring under contention");

    // Quiescent accounting: exact recorded/dropped totals, a full ring,
    // and every surviving span whole.
    let total = WRITERS * SPANS_PER_WRITER;
    let finals = tracer.snapshot();
    check_snapshot(&finals);
    assert_eq!(finals.recorded, total);
    assert_eq!(finals.dropped, total - CAPACITY as u64);
    assert_eq!(finals.events.len(), CAPACITY);
}

#[test]
fn reservoir_top_k_is_exact_under_contention() {
    // The final top-K must be *exactly* the K slowest spans ever offered,
    // even with every writer contending.
    let tracer = Tracer::new(CAPACITY);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let tracer = &tracer;
            scope.spawn(move || {
                for i in 0..SPANS_PER_WRITER {
                    tracer.record(span_for(w * TRACE_BASE + i, w));
                }
            });
        }
    });
    let snap = tracer.snapshot();
    let parse = snap
        .exemplars
        .iter()
        .find(|s| s.stage == Stage::Parse)
        .expect("parse stage exemplars present");
    // `duration = trace + 1`, so the true top-K are the K largest trace
    // ids: the tail of the highest-stride writer.
    let top_writer = WRITERS - 1;
    let expected: Vec<u64> = (0..EXEMPLARS_PER_STAGE as u64)
        .map(|k| top_writer * TRACE_BASE + (SPANS_PER_WRITER - 1 - k) + 1)
        .collect();
    let got: Vec<u64> = parse.slowest.iter().map(|e| e.duration_ns).collect();
    assert_eq!(got, expected, "the reservoir lost or invented a slow span");
    for e in &parse.slowest {
        assert_eq!(e.duration_ns, e.trace + 1);
        assert_eq!(e.outcome, "ok");
    }
}
