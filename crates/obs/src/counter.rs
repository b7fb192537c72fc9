//! The two atomic cells every metric is built from. This module is the
//! only production code that names a `std::sync::atomic` type: every
//! access is `Relaxed`, and no value read here guards or publishes other
//! memory (results travel through joins and locks). The root `clippy.toml`
//! bans the atomic types and `Ordering` everywhere else.
#![expect(
    clippy::disallowed_types,
    reason = "the one audited home of the workspace's atomics: pure telemetry cells, every access Relaxed, no value read here orders other memory"
)]

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonically increasing counter. Pure telemetry: all operations are
/// relaxed and results are never consumed for control flow.
///
/// ```
/// use mosaic_obs::Counter;
///
/// let hits = Counter::new();
/// hits.inc();
/// hits.add(4);
/// assert_eq!(hits.get(), 5);
/// ```
#[derive(Debug, Default)]
pub struct Counter {
    hits: AtomicU64,
}

impl Counter {
    /// Fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n` to the total. Wait-free.
    pub fn add(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (resident bytes, in-flight traces, set sizes).
/// Supports two-way movement plus a monotonic watermark mode via
/// [`Gauge::set_max`]. Pure telemetry — relaxed, results discarded.
///
/// ```
/// use mosaic_obs::Gauge;
///
/// let peak = Gauge::new();
/// peak.set_max(7);
/// peak.set_max(3);
/// assert_eq!(peak.get(), 7, "a watermark never falls");
/// ```
#[derive(Debug, Default)]
pub struct Gauge {
    level: AtomicU64,
}

impl Gauge {
    /// Fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the level.
    pub fn set(&self, v: u64) {
        self.level.store(v, Ordering::Relaxed);
    }

    /// Raise the level by `n`.
    pub fn add(&self, n: u64) {
        self.level.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the level by `n` (saturating is the caller's concern; in-flight
    /// style gauges pair every `sub` with a prior `add`).
    pub fn sub(&self, n: u64) {
        self.level.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raise the level to at least `v` — the monotonic-watermark mode used
    /// for peak trackers.
    pub fn set_max(&self, v: u64) {
        self.level.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.level.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_wrap_rather_than_saturate() {
        // Saturation is the caller's concern (see `Gauge::sub`): the cells
        // are plain modular atomics.
        let c = Counter::new();
        c.add(u64::MAX);
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::new();
        g.sub(1);
        assert_eq!(g.get(), u64::MAX);
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                    c.add(5);
                });
            }
        });
        assert_eq!(c.get(), 4 * 10_005);
    }

    #[test]
    fn balanced_gauge_moves_return_to_the_start_under_contention() {
        let g = Gauge::new();
        g.set(100);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..5_000 {
                        g.add(3);
                        g.sub(3);
                    }
                });
            }
        });
        assert_eq!(g.get(), 100);
    }

    #[test]
    fn concurrent_watermarks_keep_the_largest() {
        let g = Gauge::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let g = &g;
                scope.spawn(move || {
                    for v in (0..1_000).rev() {
                        g.set_max(v * 4 + t);
                    }
                });
            }
        });
        assert_eq!(g.get(), 999 * 4 + 3);
    }
}
