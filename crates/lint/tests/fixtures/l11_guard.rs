//! Deliberately bad: L11 guard-liveness and poison-parity violations —
//! a `MutexGuard` held across a fan-out call, `lock().unwrap()`, and
//! `try_lock().expect(…)`. The dropped-guard twin shows the clean shape.

use std::sync::Mutex;

struct Shared {
    registry: Mutex<Vec<u64>>,
    totals: Mutex<u64>,
    frame: Mutex<String>,
}

fn guard_across_fan_out(s: &Shared, data: &[u64]) -> usize {
    let reg = s.registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // The guard is still live here: a pool worker taking `registry`
    // deadlocks the fan-out.
    let n = run_claimed(data, 4, |chunk| chunk.len());
    reg.len() + n
}

fn guard_dropped_before_fan_out(s: &Shared, data: &[u64]) -> usize {
    let reg = s.registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let held = reg.len();
    drop(reg);
    held + run_claimed(data, 4, |chunk| chunk.len())
}

fn poisoned_unwrap(s: &Shared) -> u64 {
    // Panics if a previous holder panicked; the state under the lock is
    // still consistent, so recovery is the established idiom.
    let g = s.totals.lock().unwrap();
    *g
}

fn contention_as_error(s: &Shared) -> usize {
    // `try_lock` fails on plain contention; panicking turns a benign
    // skip into a crash.
    let g = s.frame.try_lock().expect("frame lock");
    g.len()
}

fn run_claimed<R>(data: &[u64], _chunk: usize, f: impl Fn(&[u64]) -> R) -> usize {
    let _ = f(data);
    data.len()
}
