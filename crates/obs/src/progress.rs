//! Live run progress: a single, throttled stderr line.
//!
//! [`ProgressLine`] turns the [`Recorder`](crate::Recorder)'s live atomics
//! into a human-readable status line — overall completion, instantaneous
//! throughput, an exponentially-weighted moving average of each stage's
//! mean call duration, and the running eviction count. The caller decides
//! where the line goes (the CLI redraws it with `\r` on stderr); this type
//! only formats and throttles.
//!
//! Ticks are cheap by construction: callers invoke [`ProgressLine::tick`]
//! once per ingested trace, but the line is recomputed at most once per
//! redraw interval and concurrent tickers skip rather than queue behind the
//! state lock, so full-parallelism pipelines see one relaxed `try_lock`
//! per trace in the common case.

use crate::{Recorder, Stage};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// EWMA smoothing factor for the per-stage mean durations: each redraw
/// interval contributes 30% of the displayed value.
const EWMA_ALPHA: f64 = 0.3;

#[derive(Debug)]
struct ProgressState {
    last_redraw: Instant,
    last_done: usize,
    last_calls: [u64; Stage::ALL.len()],
    last_nanos: [u64; Stage::ALL.len()],
    ewma_micros: [f64; Stage::ALL.len()],
}

/// Throttled formatter of the live progress line.
#[derive(Debug)]
pub struct ProgressLine {
    every: Duration,
    state: Mutex<ProgressState>,
    skipped: AtomicU64,
}

impl ProgressLine {
    /// A progress line redrawn at most once per `every`.
    pub fn new(every: Duration) -> ProgressLine {
        #[expect(
            clippy::disallowed_methods,
            reason = "redraw throttling only; the rendered line goes to stderr, never into snapshot-bearing output"
        )]
        let now = Instant::now();
        ProgressLine {
            every,
            state: Mutex::new(ProgressState {
                last_redraw: now,
                last_done: 0,
                last_calls: [0; Stage::ALL.len()],
                last_nanos: [0; Stage::ALL.len()],
                ewma_micros: [0.0; Stage::ALL.len()],
            }),
            skipped: AtomicU64::new(0),
        }
    }

    /// Ticks skipped because another thread held the state lock. Purely
    /// observational: a high count on a healthy run just means workers
    /// tick faster than frames render, but a count that equals the tick
    /// count would mean the line never updates.
    pub fn skipped(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }

    /// Offer a progress tick. Returns the freshly-rendered line when the
    /// redraw interval elapsed, `None` when throttled (or when another
    /// thread holds the state — skipping a frame beats blocking a worker).
    pub fn tick(&self, done: usize, total: usize, recorder: &Recorder) -> Option<String> {
        let Ok(mut state) = self.state.try_lock() else {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "redraw throttling only; the rendered line goes to stderr, never into snapshot-bearing output"
        )]
        let now = Instant::now();
        #[expect(
            clippy::disallowed_methods,
            reason = "redraw throttling only; the rendered line goes to stderr, never into snapshot-bearing output"
        )]
        let since = now.duration_since(state.last_redraw);
        if since < self.every && done < total {
            return None;
        }
        let dt = since.as_secs_f64().max(1e-9);
        let rate = (done.saturating_sub(state.last_done)) as f64 / dt;
        let fields = &mut *state;
        let slots = fields
            .last_calls
            .iter_mut()
            .zip(fields.last_nanos.iter_mut())
            .zip(fields.ewma_micros.iter_mut());
        for (&stage, ((last_calls, last_nanos), ewma)) in Stage::ALL.iter().zip(slots) {
            let latency = recorder.stage(stage);
            let calls = latency.count();
            let nanos = latency.sum();
            let d_calls = calls.saturating_sub(*last_calls);
            let d_nanos = nanos.saturating_sub(*last_nanos);
            if d_calls > 0 {
                let mean_us = d_nanos as f64 / d_calls as f64 / 1_000.0;
                *ewma = if *ewma == 0.0 {
                    mean_us
                } else {
                    EWMA_ALPHA * mean_us + (1.0 - EWMA_ALPHA) * *ewma
                };
            }
            *last_calls = calls;
            *last_nanos = nanos;
        }
        state.last_redraw = now;
        state.last_done = done;

        let mut line = String::new();
        let _ = write!(line, "{done}/{total} · {rate:.0} traces/s ·");
        for (stage, ewma) in Stage::ALL.iter().zip(&state.ewma_micros) {
            let _ = write!(line, " {} {ewma:.1}µs", stage.name());
        }
        let _ = write!(line, " · {} evicted", recorder.evictions());
        // The completion tick is the line that stays on screen: surface the
        // contention-skip count there so a starved redraw loop is visible
        // without cluttering every intermediate frame.
        if done >= total {
            let _ = write!(line, " · {} frames skipped", self.skipped());
        }
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_tick_before_interval_is_throttled() {
        let rec = Recorder::new();
        let line = ProgressLine::new(Duration::from_secs(3600));
        assert_eq!(line.tick(1, 100, &rec), None);
    }

    #[test]
    fn completion_tick_always_renders() {
        let rec = Recorder::new();
        rec.record_nanos(Stage::Parse, 10_000, 128);
        rec.count_eviction("truncated");
        let line = ProgressLine::new(Duration::from_secs(3600));
        let rendered = line.tick(100, 100, &rec).expect("final tick renders");
        assert!(rendered.starts_with("100/100"), "{rendered}");
        for stage in Stage::ALL {
            assert!(rendered.contains(stage.name()), "{rendered}");
        }
        assert!(rendered.contains("1 evicted"), "{rendered}");
        assert!(rendered.contains("0 frames skipped"), "{rendered}");
    }

    #[test]
    fn eviction_count_sums_every_reason() {
        let rec = Recorder::new();
        for reason in ["truncated", "bad_magic", "truncated", "io_error"] {
            rec.count_eviction(reason);
        }
        let line = ProgressLine::new(Duration::ZERO);
        let rendered = line.tick(4, 10, &rec).expect("zero interval renders");
        assert!(rendered.ends_with(" · 4 evicted"), "{rendered}");
    }

    #[test]
    fn intermediate_ticks_omit_the_skip_count() {
        let rec = Recorder::new();
        let line = ProgressLine::new(Duration::ZERO);
        let rendered = line.tick(1, 10, &rec).expect("zero interval renders");
        assert!(!rendered.contains("skipped"), "{rendered}");
    }

    #[test]
    fn contended_tick_never_blocks_and_is_counted() {
        let rec = Recorder::new();
        let line = ProgressLine::new(Duration::ZERO);
        assert_eq!(line.skipped(), 0);
        {
            // Hold the state lock on this very thread: if tick() ever
            // blocked on a contended lock this test would deadlock
            // instead of fail.
            let _held = line.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            assert_eq!(line.tick(1, 10, &rec), None);
            assert_eq!(line.skipped(), 1, "the skipped frame must be observable");
        }
        // Once the lock is free the same tick renders, and the skip count
        // stays at the one contended frame — and the completion tick
        // surfaces it to the user.
        assert!(line.tick(2, 10, &rec).is_some());
        assert_eq!(line.skipped(), 1);
        let last = line.tick(10, 10, &rec).expect("final tick renders");
        assert!(last.contains("1 frames skipped"), "{last}");
    }

    /// The rendered EWMA of `stage`, in microseconds.
    fn ewma_of(rendered: &str, stage: Stage) -> f64 {
        rendered
            .split(&format!(" {} ", stage.name()))
            .nth(1)
            .and_then(|s| s.split("µs").next())
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("no {} field in {rendered}", stage.name()))
    }

    #[test]
    fn each_stage_smooths_its_own_mean() {
        let rec = Recorder::new();
        let line = ProgressLine::new(Duration::ZERO);
        rec.record_nanos(Stage::Parse, 50_000, 0);
        rec.record_nanos(Stage::Categorize, 200_000, 0);
        rec.record_nanos(Stage::Categorize, 400_000, 0);
        let first = line.tick(1, 10, &rec).expect("renders");
        assert_eq!(ewma_of(&first, Stage::Parse), 50.0, "{first}");
        assert_eq!(ewma_of(&first, Stage::Categorize), 300.0, "{first}");
        rec.record_nanos(Stage::Parse, 10_000, 0);
        rec.record_nanos(Stage::Categorize, 100_000, 0);
        let second = line.tick(2, 10, &rec).expect("renders");
        // α·new + (1 − α)·old per stage, from that stage's own deltas.
        assert_eq!(ewma_of(&second, Stage::Parse), 38.0, "{second}");
        assert_eq!(ewma_of(&second, Stage::Categorize), 240.0, "{second}");
    }

    #[test]
    fn a_stage_without_new_calls_keeps_its_ewma() {
        let rec = Recorder::new();
        let line = ProgressLine::new(Duration::ZERO);
        rec.record_nanos(Stage::Validate, 70_000, 0);
        let first = line.tick(1, 10, &rec).expect("renders");
        assert_eq!(ewma_of(&first, Stage::Validate), 70.0, "{first}");
        for stage in [Stage::Fetch, Stage::Parse, Stage::Merge, Stage::Categorize] {
            assert_eq!(ewma_of(&first, stage), 0.0, "{first}");
        }
        rec.record_nanos(Stage::Fetch, 5_000, 0);
        let second = line.tick(2, 10, &rec).expect("renders");
        assert_eq!(ewma_of(&second, Stage::Validate), 70.0, "{second}");
        assert_eq!(ewma_of(&second, Stage::Fetch), 5.0, "{second}");
    }

    #[test]
    fn zero_interval_renders_and_tracks_ewma() {
        let rec = Recorder::new();
        let line = ProgressLine::new(Duration::ZERO);
        rec.record_nanos(Stage::Merge, 100_000, 0);
        let first = line.tick(1, 10, &rec).expect("renders");
        assert!(first.contains("merge 100.0µs"), "{first}");
        // A much faster batch pulls the EWMA down, but only partially.
        for _ in 0..9 {
            rec.record_nanos(Stage::Merge, 10_000, 0);
        }
        let second = line.tick(10, 10, &rec).expect("renders");
        let merge_field = second
            .split(" merge ")
            .nth(1)
            .and_then(|s| s.split("µs").next())
            .and_then(|s| s.parse::<f64>().ok())
            .expect("merge EWMA parses");
        assert!(merge_field < 100.0 && merge_field > 10.0, "{second}");
    }
}
