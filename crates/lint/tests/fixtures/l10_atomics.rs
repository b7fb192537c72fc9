//! Deliberately bad: L10 atomics-discipline violations — each strong
//! ordering (a Release store, an Acquire load, a SeqCst read-modify-write,
//! a compare-exchange whose only strong ordering is the failure one), a
//! fence, and a consumed Relaxed read-modify-write with no proof. One
//! audited ticket shows the `allow(sync, …)` hatch working, and a pure
//! Relaxed counter stays quiet.

use std::sync::atomic::{fence, AtomicU64, Ordering};

struct Publisher {
    ready: AtomicU64,
    state: AtomicU64,
    ticket: AtomicU64,
    audited_ticket: AtomicU64,
    hits: AtomicU64,
}

impl Publisher {
    fn publish(&self) {
        self.ready.store(1, Ordering::Release);
    }

    fn consume(&self) -> u64 {
        self.ready.load(Ordering::Acquire)
    }

    fn swap_state(&self) {
        self.state.swap(2, Ordering::SeqCst);
    }

    fn try_claim(&self) -> bool {
        self.state.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Acquire).is_ok()
    }

    fn publish_by_fence(&self) {
        fence(Ordering::Release);
    }

    fn claim(&self) -> u64 {
        // The claimed value is consumed under Relaxed with no proof.
        let n = self.ticket.fetch_add(1, Ordering::Relaxed);
        n
    }

    fn claim_audited(&self) -> u64 {
        // lint: allow(sync, "pure ticket counter: the value only names this call's slot and orders nothing")
        let n = self.audited_ticket.fetch_add(1, Ordering::Relaxed);
        n
    }

    fn count(&self) -> u64 {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.hits.load(Ordering::Relaxed)
    }
}
