//! Offline shim for the `rayon` crate.
//!
//! Implements the slice of rayon this workspace uses: a parallel map over
//! `Range<usize>` collected into a `Vec`, explicit thread pools with
//! `install`, and the `current_num_threads` / `current_thread_index`
//! introspection the executor uses for worker lanes.
//!
//! Execution model: `install` only sets a thread-local *ambient* thread
//! count on the calling thread; the fan-out happens inside `collect`, which
//! spawns that many scoped workers claiming one index at a time off a
//! shared atomic cursor, so a slow item holds back only the worker running
//! it. Each worker keeps `(index, result)` pairs; after the join every
//! result is placed at its index, so the collected order is always the
//! source order no matter how the claims interleaved. A worker panic is
//! re-raised on the caller after the scope joins.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;

pub mod prelude {
    pub use crate::IntoParallelIterator;
}

thread_local! {
    /// Thread count requested by an enclosing [`ThreadPool::install`].
    static AMBIENT_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    /// This thread's worker slot, when it is a parallel-map worker.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The thread count parallel operations on this thread will use: the
/// enclosing pool's if inside [`ThreadPool::install`], one per core
/// otherwise.
pub fn current_num_threads() -> usize {
    AMBIENT_THREADS.with(|a| a.get()).unwrap_or_else(default_threads)
}

/// The calling thread's worker slot within a parallel operation, or `None`
/// on threads that are not pool workers (matching rayon's contract).
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

/// Pool construction error. The shim's pools hold no OS resources until a
/// parallel operation runs, so building never actually fails; the type
/// exists so call sites written against real rayon compile unchanged.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Thread count for the pool; `0` (the default) means one per core.
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.num_threads == 0 { default_threads() } else { self.num_threads };
        Ok(ThreadPool { threads })
    }
}

/// An explicit-width pool. Holds no threads of its own: it scopes the
/// ambient thread count that `collect` fans out to.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

/// Restores the previous ambient thread count even if `op` panics.
struct AmbientGuard(Option<usize>);

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        let prev = self.0;
        AMBIENT_THREADS.with(|a| a.set(prev));
    }
}

impl ThreadPool {
    /// Run `op` with this pool's thread count as the ambient parallelism.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = AMBIENT_THREADS.with(|a| a.replace(Some(self.threads)));
        let _guard = AmbientGuard(prev);
        op()
    }

    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Conversion into a parallel iterator, for the types the workspace maps
/// over (currently `Range<usize>`).
pub trait IntoParallelIterator {
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { start: self.start, end: self.end }
    }
}

/// A parallel iterator over an index range.
#[derive(Debug)]
pub struct ParRange {
    start: usize,
    end: usize,
}

impl ParRange {
    pub fn map<R, F>(self, f: F) -> ParRangeMap<R, F>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        ParRangeMap { start: self.start, end: self.end, f, _out: PhantomData }
    }
}

/// A mapped parallel range, ready to collect.
pub struct ParRangeMap<R, F> {
    start: usize,
    end: usize,
    f: F,
    _out: PhantomData<fn() -> R>,
}

impl<R, F> ParRangeMap<R, F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    /// Run the map with the ambient thread count and collect the results in
    /// source order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        C::from(run_claimed(self.start, self.end, &self.f))
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "work-sharing cursor: each fetch_add claims one index no other worker can claim, and the results are published by the scoped-thread join, not by this counter"
)]
mod claim {
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The claim cursor, alone on its own cache lines. Both workers bump it
    /// once per item; the closure captures they read on every item sit next
    /// to it on the caller's stack, so without the padding every claim would
    /// invalidate the line those reads hit. 128 bytes covers the
    /// adjacent-line prefetch pair on x86-64 and the 128-byte lines of some
    /// aarch64 cores.
    #[repr(align(128))]
    pub(crate) struct ClaimCursor(AtomicUsize);

    impl ClaimCursor {
        pub(crate) fn new() -> ClaimCursor {
            ClaimCursor(AtomicUsize::new(0))
        }

        /// The next unclaimed offset (past the end once every index is taken).
        pub(crate) fn claim(&self) -> usize {
            self.0.fetch_add(1, Ordering::Relaxed)
        }
    }
}
use claim::ClaimCursor;

/// Work-sharing executor: `workers` scoped threads claim one index at a time
/// off an atomic cursor; results come back keyed by index and are placed in
/// source order after the join.
fn run_claimed<R, F>(start: usize, end: usize, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let total = end.saturating_sub(start);
    if total == 0 {
        return Vec::new();
    }
    let workers = current_num_threads().max(1).min(total);
    if workers == 1 {
        // Serial fast path, on the calling thread as worker 0.
        let prev = WORKER_INDEX.with(|w| w.replace(Some(0)));
        let out = (start..end).map(f).collect();
        WORKER_INDEX.with(|w| w.set(prev));
        return out;
    }

    let cursor = ClaimCursor::new();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(total).collect();
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|slot| {
                let cursor = &cursor;
                scope.spawn(move || {
                    WORKER_INDEX.with(|w| w.set(Some(slot)));
                    AMBIENT_THREADS.with(|a| a.set(Some(workers)));
                    let mut local: Vec<(usize, R)> = Vec::with_capacity(total / workers + 1);
                    loop {
                        let i = cursor.claim();
                        if i >= total {
                            break;
                        }
                        local.push((i, f(start + i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => {
                    for (i, r) in local {
                        if let Some(place) = slots.get_mut(i) {
                            *place = Some(r);
                        }
                    }
                }
                Err(payload) => panic = Some(payload),
            }
        }
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    // Every index below `total` was claimed exactly once and every worker
    // joined, so every slot is filled.
    let out: Vec<R> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), total);
    out
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "test code: the shim cannot depend on mosaic_obs's lock helpers, and a panic here fails the test"
)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    #[test]
    fn collect_preserves_source_order() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let out: Vec<usize> = pool.install(|| (0..1000).into_par_iter().map(|i| i * 2).collect());
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<usize>>());
    }

    #[test]
    fn collect_preserves_source_order_at_every_width() {
        // Lengths that are not multiples of the widths, and ranges that do
        // not start at zero, so no claim lines up with a worker boundary.
        for width in [2, 3, 7] {
            let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            for range in [0..1, 5..6, 3..16, 11..112, 0..1001] {
                let expect: Vec<usize> = range.clone().map(|i| i * 3 + 1).collect();
                let out: Vec<usize> =
                    pool.install(|| range.clone().into_par_iter().map(|i| i * 3 + 1).collect());
                assert_eq!(out, expect, "width {width}, range {range:?}");
            }
        }
    }

    #[test]
    fn a_slow_item_does_not_hold_back_the_rest() {
        // Item 0 waits (at most 10 s) until every other item has run.
        // Claimed one index at a time, the second worker drains items 1..64
        // meanwhile; a chunked claim strands the rest of item 0's chunk
        // behind it.
        use std::sync::{Condvar, PoisonError};
        use std::time::Duration;
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let finished = (Mutex::new(0usize), Condvar::new());
        let out: Vec<usize> = pool.install(|| {
            (0..64)
                .into_par_iter()
                .map(|i| {
                    let (count, changed) = &finished;
                    let mut n = count.lock().unwrap_or_else(PoisonError::into_inner);
                    if i == 0 {
                        let wait =
                            changed.wait_timeout_while(n, Duration::from_secs(10), |n| *n < 63);
                        *wait.unwrap_or_else(PoisonError::into_inner).0
                    } else {
                        *n += 1;
                        changed.notify_all();
                        i
                    }
                })
                .collect()
        });
        assert_eq!(out[0], 63, "item 0 saw only {} of the other 63 items run", out[0]);
        assert_eq!(&out[1..], &(1..64).collect::<Vec<usize>>()[..]);
    }

    #[test]
    fn concurrent_claims_hand_out_each_index_once() {
        let cursor = ClaimCursor::new();
        let claimed = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mine: Vec<usize> = (0..1_000).map(|_| cursor.claim()).collect();
                    claimed.lock().unwrap().extend(mine);
                });
            }
        });
        let mut claimed = claimed.into_inner().unwrap();
        claimed.sort_unstable();
        assert_eq!(claimed, (0..4_000).collect::<Vec<usize>>());
    }

    #[test]
    fn the_claim_cursor_sits_alone_on_its_cache_lines() {
        assert_eq!(std::mem::align_of::<ClaimCursor>(), 128);
        assert_eq!(std::mem::size_of::<ClaimCursor>(), 128);
    }

    #[test]
    fn empty_range_collects_empty() {
        let out: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn install_scopes_the_ambient_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let before = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn worker_indices_are_dense_and_in_range() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let seen = Mutex::new(BTreeSet::new());
        let out: Vec<usize> = pool.install(|| {
            (0..256)
                .into_par_iter()
                .map(|i| {
                    let slot = current_thread_index().expect("inside a parallel map");
                    seen.lock().unwrap().insert(slot);
                    i
                })
                .collect()
        });
        assert_eq!(out.len(), 256);
        let seen = seen.into_inner().unwrap();
        assert!(seen.iter().all(|&s| s < 4), "{seen:?}");
        assert!(!seen.is_empty());
    }

    #[test]
    fn outside_a_parallel_map_there_is_no_worker_index() {
        assert_eq!(current_thread_index(), None);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let result = std::panic::catch_unwind(|| {
            let _: Vec<usize> = pool.install(|| {
                (0..64).into_par_iter().map(|i| if i == 33 { panic!("boom") } else { i }).collect()
            });
        });
        assert!(result.is_err());
    }
}
