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
//! state lock, so full-parallelism pipelines see one `try_with_lock`
//! per trace in the common case.

use crate::lock::try_with_lock;
use crate::{Counter, Recorder, Stage};
use std::fmt::Write as _;
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
///
/// ```
/// use mosaic_obs::{ProgressLine, Recorder};
/// use std::time::Duration;
///
/// let recorder = Recorder::new();
/// let line = ProgressLine::new(Duration::from_secs(3600));
/// assert_eq!(line.tick(1, 10, &recorder), None, "throttled");
/// let last = line.tick(10, 10, &recorder).expect("the completion tick always renders");
/// assert!(last.starts_with("10/10 · "), "{last}");
/// assert!(last.ends_with(" · 0 evicted · 0 frames skipped"), "{last}");
/// ```
#[derive(Debug)]
pub struct ProgressLine {
    every: Duration,
    state: Mutex<ProgressState>,
    skipped: Counter,
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
            skipped: Counter::new(),
        }
    }

    /// Ticks skipped because another thread held the state lock. Purely
    /// observational: a high count on a healthy run just means workers
    /// tick faster than frames render, but a count that equals the tick
    /// count would mean the line never updates.
    pub fn skipped(&self) -> u64 {
        self.skipped.get()
    }

    /// Offer a progress tick. Returns the freshly-rendered line when the
    /// redraw interval elapsed, `None` when throttled (or when another
    /// thread holds the state — skipping a frame beats blocking a worker).
    pub fn tick(&self, done: usize, total: usize, recorder: &Recorder) -> Option<String> {
        let Some(frame) =
            try_with_lock(&self.state, |state| self.frame(state, done, total, recorder))
        else {
            self.skipped.inc();
            return None;
        };
        let mut line = frame?;
        // Read after the state lock is released: the eviction total takes
        // the registry lock, and no lock nests inside another.
        let _ = write!(line, " · {} evicted", recorder.evictions());
        // The completion tick is the line that stays on screen: surface the
        // contention-skip count there so a starved redraw loop is visible
        // without cluttering every intermediate frame.
        if done >= total {
            let _ = write!(line, " · {} frames skipped", self.skipped());
        }
        Some(line)
    }

    /// Under the state lock: the line up to its per-stage means, or `None`
    /// while the redraw interval has not elapsed.
    fn frame(
        &self,
        state: &mut ProgressState,
        done: usize,
        total: usize,
        recorder: &Recorder,
    ) -> Option<String> {
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
        let slots = state
            .last_calls
            .iter_mut()
            .zip(state.last_nanos.iter_mut())
            .zip(state.ewma_micros.iter_mut());
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
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::with_lock;
    use std::sync::Barrier;

    #[test]
    fn first_tick_before_interval_is_throttled() {
        let rec = Recorder::new();
        let line = ProgressLine::new(Duration::from_secs(3600));
        assert_eq!(line.tick(1, 100, &rec), None);
    }

    #[test]
    fn a_throttled_tick_is_not_counted_as_a_skip() {
        // `tick` returns `None` both when throttled and when contended;
        // only contention counts.
        let rec = Recorder::new();
        let line = ProgressLine::new(Duration::from_secs(3600));
        for done in 1..=5 {
            assert_eq!(line.tick(done, 10, &rec), None);
        }
        assert_eq!(line.skipped(), 0);
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
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            // Another thread holds the state lock until told to let go: if
            // tick() ever blocked on a contended lock this test would
            // deadlock instead of fail.
            scope.spawn(|| {
                with_lock(&line.state, |_| {
                    gate.wait();
                    gate.wait();
                });
            });
            gate.wait();
            assert_eq!(line.tick(1, 10, &rec), None);
            assert_eq!(line.skipped(), 1, "the skipped frame must be observable");
            gate.wait();
        });
        // Once the lock is free the same tick renders, and the skip count
        // stays at the one contended frame — and the completion tick
        // surfaces it to the user.
        assert!(line.tick(2, 10, &rec).is_some());
        assert_eq!(line.skipped(), 1);
        let last = line.tick(10, 10, &rec).expect("final tick renders");
        assert!(last.contains("1 frames skipped"), "{last}");
    }

    #[test]
    fn every_contended_tick_is_counted() {
        let rec = Recorder::new();
        let line = ProgressLine::new(Duration::ZERO);
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                with_lock(&line.state, |_| {
                    gate.wait();
                    gate.wait();
                });
            });
            gate.wait();
            for done in 1..=3 {
                assert_eq!(line.tick(done, 10, &rec), None);
            }
            gate.wait();
        });
        assert_eq!(line.skipped(), 3);
    }

    #[test]
    fn a_poisoned_state_lock_still_renders() {
        let rec = Recorder::new();
        rec.count_eviction("truncated");
        let line = ProgressLine::new(Duration::ZERO);
        let poisoner = std::thread::scope(|scope| {
            scope.spawn(|| with_lock(&line.state, |_| panic!("poison the state"))).join()
        });
        assert!(poisoner.is_err());
        let last = line.tick(10, 10, &rec).expect("a poisoned lock is recovered");
        assert!(last.ends_with(" · 1 evicted · 0 frames skipped"), "{last}");
    }

    #[test]
    fn concurrent_tickers_render_or_skip_every_tick() {
        // With a zero interval a tick that gets the lock always renders, so
        // every tick is either a rendered frame or a counted skip.
        let rec = Recorder::new();
        let line = ProgressLine::new(Duration::ZERO);
        let rendered = std::thread::scope(|scope| {
            let tickers: Vec<_> = (0..4)
                .map(|_| {
                    scope
                        .spawn(|| (0..500).filter(|&i| line.tick(i, 1_000, &rec).is_some()).count())
                })
                .collect();
            tickers.into_iter().map(|t| t.join().expect("ticker")).sum::<usize>()
        });
        assert_eq!(rendered as u64 + line.skipped(), 2_000);
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
