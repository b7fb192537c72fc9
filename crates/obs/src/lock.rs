//! The one place production code takes a [`Mutex`].
//!
//! [`with_lock`] and [`try_with_lock`] hand the locked state to a closure,
//! so no guard can outlive it: a guard cannot be carried across a fan-out
//! or into a second acquisition by accident. Both recover from poisoning
//! with [`PoisonError::into_inner`]. Every lock in this workspace guards
//! state that each holder leaves whole before anything that can panic (a
//! ring slot, a registry map, a redraw clock), so the state a panicking
//! holder left behind is still consistent.
//!
//! Debug builds also keep a per-thread count of held locks and panic on a
//! nested acquisition, of the same lock or another: with no nesting there
//! is no lock order to get wrong. `mosaic_pipeline::process` asserts the
//! count is zero before it fans out, because a worker blocking on a lock
//! its caller holds deadlocks the run. The root `clippy.toml` bans
//! `Mutex::lock` and `Mutex::try_lock` outside this module.
#![expect(
    clippy::disallowed_methods,
    reason = "the lock helpers themselves: every production Mutex acquisition in the workspace goes through this module"
)]

use std::sync::{Mutex, PoisonError, TryLockError};

thread_local! {
    /// Locks this thread holds through the helpers below (0 or 1).
    #[cfg(debug_assertions)]
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One held lock on this thread, counted from before the acquisition until
/// the guard is gone (also when the closure unwinds). Counts only in debug
/// builds.
struct Held;

impl Held {
    fn enter() -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            assert!(
                held.get() == 0,
                "nested lock acquisition: this thread already holds a lock taken through mosaic_obs::lock"
            );
            held.set(1);
        });
        Held
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        HELD.with(|held| held.set(0));
    }
}

/// Locks this thread holds through [`with_lock`] or [`try_with_lock`]:
/// 0 or 1 in debug builds, always 0 in release builds (which do not count).
///
/// ```
/// use mosaic_obs::lock::{held, with_lock};
/// use std::sync::Mutex;
///
/// let m = Mutex::new(());
/// with_lock(&m, |_| ());
/// assert_eq!(held(), 0, "the count is released with the closure");
/// ```
pub fn held() -> usize {
    #[cfg(debug_assertions)]
    return HELD.with(std::cell::Cell::get);
    #[cfg(not(debug_assertions))]
    0
}

/// Run `f` on the state behind `mutex`, blocking until it is free. A
/// poisoned mutex is recovered, not reported.
///
/// ```
/// use mosaic_obs::lock::with_lock;
/// use std::sync::Mutex;
///
/// let totals = Mutex::new(vec![1, 2]);
/// with_lock(&totals, |v| v.push(3));
/// assert_eq!(with_lock(&totals, |v| v.iter().sum::<i32>()), 6);
/// ```
///
/// # Panics
///
/// In debug builds, when this thread already holds a lock taken through
/// this module.
pub fn with_lock<T, R>(mutex: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> R {
    let _held = Held::enter();
    let mut guard = mutex.lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut guard)
}

/// Run `f` on the state behind `mutex` if it is free right now; `None`
/// when another thread holds it. A poisoned mutex is recovered.
///
/// ```
/// use mosaic_obs::lock::try_with_lock;
/// use std::sync::Mutex;
///
/// let frame = Mutex::new(String::from("0/10"));
/// assert_eq!(try_with_lock(&frame, |f| f.len()), Some(4));
/// ```
///
/// # Panics
///
/// In debug builds, when this thread already holds a lock taken through
/// this module.
pub fn try_with_lock<T, R>(mutex: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> Option<R> {
    let _held = Held::enter();
    let mut guard = match mutex.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => return None,
    };
    Some(f(&mut guard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn the_closure_sees_and_updates_the_state() {
        let m = Mutex::new(vec![1]);
        with_lock(&m, |v| v.push(2));
        assert_eq!(with_lock(&m, |v| v.clone()), [1, 2]);
        assert_eq!(try_with_lock(&m, |v| v.len()), Some(2));
        assert_eq!(held(), 0, "every helper releases its count");
    }

    // Debug builds panic on any nesting; release builds do not count, so
    // there the nested calls below simply run (two different locks).
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "nested lock acquisition"))]
    fn nested_with_lock_panics_a_then_b() {
        let (a, b) = (Mutex::new(0u8), Mutex::new(0u8));
        with_lock(&a, |_| with_lock(&b, |_| ()));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "nested lock acquisition"))]
    fn nested_with_lock_panics_b_then_a() {
        let (a, b) = (Mutex::new(0u8), Mutex::new(0u8));
        with_lock(&b, |_| with_lock(&a, |_| ()));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "nested lock acquisition")]
    fn the_same_lock_taken_twice_panics_instead_of_deadlocking() {
        let a = Mutex::new(0u8);
        with_lock(&a, |_| with_lock(&a, |_| ()));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "nested lock acquisition"))]
    fn a_try_inside_a_lock_panics_too() {
        let (a, b) = (Mutex::new(0u8), Mutex::new(0u8));
        with_lock(&a, |_| try_with_lock(&b, |_| ()));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "nested lock acquisition"))]
    fn a_try_inside_a_try_panics() {
        let (a, b) = (Mutex::new(0u8), Mutex::new(0u8));
        try_with_lock(&a, |_| try_with_lock(&b, |_| ()));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "nested lock acquisition"))]
    fn a_lock_inside_a_try_panics() {
        let (a, b) = (Mutex::new(0u8), Mutex::new(0u8));
        try_with_lock(&a, |_| with_lock(&b, |_| ()));
    }

    #[test]
    fn the_count_is_one_inside_either_closure_and_zero_after() {
        // Release builds do not count.
        let inside = usize::from(cfg!(debug_assertions));
        let m = Mutex::new(0u8);
        assert_eq!(held(), 0);
        assert_eq!(with_lock(&m, |_| held()), inside);
        assert_eq!(try_with_lock(&m, |_| held()), Some(inside));
        assert_eq!(held(), 0);
    }

    #[test]
    fn locks_taken_one_after_another_do_not_nest() {
        let (a, b) = (Mutex::new(1u8), Mutex::new(2u8));
        let first = with_lock(&a, |v| *v);
        let second = with_lock(&b, |v| *v);
        let third = try_with_lock(&a, |v| *v);
        assert_eq!((first, second, third), (1, 2, Some(1)));
    }

    #[test]
    fn each_thread_counts_only_its_own_locks() {
        // While one thread holds `a`, another may take `b`: the count is
        // per thread, so only true nesting panics.
        let (a, b) = (Mutex::new(0u8), Mutex::new(0u8));
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                with_lock(&a, |_| {
                    gate.wait();
                    gate.wait();
                });
            });
            gate.wait();
            assert_eq!(held(), 0);
            with_lock(&b, |v| *v += 1);
            gate.wait();
        });
        assert_eq!(with_lock(&b, |v| *v), 1);
    }

    #[test]
    fn try_with_lock_recovers_a_poisoned_lock() {
        let m = Mutex::new(3u8);
        let poisoner = std::thread::scope(|scope| {
            scope.spawn(|| try_with_lock(&m, |_| panic!("poison the lock"))).join()
        });
        assert!(poisoner.is_err());
        assert!(m.is_poisoned());
        assert_eq!(try_with_lock(&m, |v| *v), Some(3));
    }

    #[test]
    fn concurrent_updates_through_with_lock_are_never_lost() {
        let m = Mutex::new(0u64);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..2_000 {
                        with_lock(&m, |v| *v += 1);
                    }
                });
            }
        });
        assert_eq!(with_lock(&m, |v| *v), 8_000);
    }

    #[test]
    fn every_try_either_runs_or_reports_contention() {
        let m = Mutex::new(0u64);
        let misses = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (0..2_000).filter(|_| try_with_lock(&m, |v| *v += 1).is_none()).count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).sum::<usize>()
        });
        assert_eq!(with_lock(&m, |v| *v) + misses as u64, 8_000);
    }

    #[test]
    fn a_panicking_holder_poisons_the_lock_and_the_next_holder_sees_the_state() {
        let m = Mutex::new(vec![7u64]);
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    with_lock(&m, |v| {
                        v.push(8);
                        panic!("poison the lock");
                    })
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(m.is_poisoned());
        assert_eq!(with_lock(&m, |v| v.clone()), [7, 8]);
        assert_eq!(try_with_lock(&m, |v| v.len()), Some(2));
    }

    #[test]
    fn a_caught_panic_inside_the_closure_releases_the_count() {
        let m = Mutex::new(0u8);
        let caught = std::panic::catch_unwind(|| with_lock(&m, |_| panic!("inside")));
        assert!(caught.is_err());
        assert_eq!(held(), 0);
        assert_eq!(with_lock(&m, |v| *v), 0);
    }

    #[test]
    fn try_with_lock_returns_none_while_another_thread_holds_the_lock() {
        let m = Mutex::new(1u8);
        let gate = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                with_lock(&m, |_| {
                    gate.wait();
                    gate.wait();
                });
            });
            gate.wait();
            let mut ran = false;
            assert_eq!(try_with_lock(&m, |_| ran = true), None);
            assert!(!ran, "the closure must not run without the lock");
            assert_eq!(held(), 0, "a failed try releases its count");
            gate.wait();
        });
        assert_eq!(try_with_lock(&m, |v| *v), Some(1));
    }
}
