//! Fluid-flow model of the parallel file system's bandwidth.
//!
//! Concurrent transfers share the aggregate bandwidth max–min fairly,
//! subject to a per-client ceiling: with `n` active flows each receives
//! `min(per_rank_bandwidth, pfs_bandwidth / n)`. Rates are piecewise
//! constant between flow arrivals/departures; the engine advances all flows
//! by the elapsed time at each state change and asks for the next completion
//! time. This is the standard "progressive filling" fluid approximation used
//! by I/O and network simulators when per-packet detail is irrelevant — and
//! for MOSAIC only interval shapes matter.

use std::collections::BTreeMap;

/// Identifier of an active flow.
pub type FlowId = u64;

/// The shared-bandwidth state.
///
/// Flows live in a `BTreeMap` so that iteration — and therefore the
/// floating-point accumulation order of `bytes_moved` — is deterministic
/// across runs and hash seeds.
#[derive(Debug, Clone)]
pub struct Pfs {
    aggregate_bw: f64,
    per_client_bw: f64,
    flows: BTreeMap<FlowId, Flow>,
    last_update: f64,
    next_id: FlowId,
    bytes_moved: f64,
}

#[derive(Debug, Clone)]
struct Flow {
    remaining: f64,
}

impl Pfs {
    /// New model with the given aggregate and per-client bandwidths
    /// (bytes/s).
    pub fn new(aggregate_bw: f64, per_client_bw: f64) -> Self {
        assert!(aggregate_bw > 0.0 && per_client_bw > 0.0);
        Pfs {
            aggregate_bw,
            per_client_bw,
            flows: BTreeMap::new(),
            last_update: 0.0,
            next_id: 0,
            bytes_moved: 0.0,
        }
    }

    /// Current per-flow rate under fair sharing.
    pub fn current_rate(&self) -> f64 {
        let n = self.flows.len();
        if n == 0 {
            return 0.0;
        }
        (self.aggregate_bw / n as f64).min(self.per_client_bw)
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes transferred so far (reads + writes).
    pub fn bytes_moved(&self) -> f64 {
        self.bytes_moved
    }

    /// Advance all flows to absolute time `now` at the current rate.
    /// Must be called (by the engine) before any state change.
    pub fn advance_to(&mut self, now: f64) {
        debug_assert!(now + 1e-9 >= self.last_update, "time went backwards");
        let dt = (now - self.last_update).max(0.0);
        if dt > 0.0 && !self.flows.is_empty() {
            let rate = self.current_rate();
            let moved = rate * dt;
            for f in self.flows.values_mut() {
                let step = moved.min(f.remaining);
                f.remaining -= step;
                self.bytes_moved += step;
            }
        }
        self.last_update = now;
    }

    /// Start a transfer of `bytes` at time `now`. Returns the flow id.
    pub fn start_flow(&mut self, now: f64, bytes: u64) -> FlowId {
        self.advance_to(now);
        let id = self.next_id;
        self.next_id += 1;
        self.flows.insert(id, Flow { remaining: bytes as f64 });
        id
    }

    /// Remove a flow (on completion). Returns any residual bytes (should be
    /// ~0 when removed at its completion time).
    pub fn finish_flow(&mut self, now: f64, id: FlowId) -> f64 {
        self.advance_to(now);
        self.flows.remove(&id).map(|f| f.remaining).unwrap_or(0.0)
    }

    /// Absolute time at which the earliest active flow completes, given the
    /// current rate, or `None` when idle. Valid until the next state change.
    pub fn next_completion(&self) -> Option<(FlowId, f64)> {
        let rate = self.current_rate();
        if rate <= 0.0 {
            return None;
        }
        self.flows
            .iter()
            .map(|(&id, f)| (id, self.last_update + f.remaining / rate))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// `true` when flow `id` has no bytes left.
    pub fn is_done(&self, id: FlowId) -> bool {
        self.flows.get(&id).map(|f| f.remaining <= 1e-6).unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_runs_at_client_ceiling() {
        let mut pfs = Pfs::new(100.0, 10.0);
        let id = pfs.start_flow(0.0, 50);
        assert_eq!(pfs.current_rate(), 10.0);
        let (cid, t) = pfs.next_completion().unwrap();
        assert_eq!(cid, id);
        assert!((t - 5.0).abs() < 1e-9);
        pfs.finish_flow(t, id);
        assert!(pfs.is_done(id));
        assert_eq!(pfs.active(), 0);
        assert!((pfs.bytes_moved() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn many_flows_split_aggregate() {
        let mut pfs = Pfs::new(100.0, 60.0);
        for _ in 0..4 {
            pfs.start_flow(0.0, 100);
        }
        // 100/4 = 25 < 60: aggregate-bound.
        assert!((pfs.current_rate() - 25.0).abs() < 1e-9);
        let (_, t) = pfs.next_completion().unwrap();
        assert!((t - 4.0).abs() < 1e-9);
    }

    #[test]
    fn departures_speed_up_remaining_flows() {
        let mut pfs = Pfs::new(100.0, 100.0);
        let a = pfs.start_flow(0.0, 100); // alone: 100 B/s
        let b = pfs.start_flow(0.5, 100); // both: 50 B/s each
                                          // a has 50 left at t=0.5; completes at 0.5 + 50/50 = 1.5
        let (first, t1) = pfs.next_completion().unwrap();
        assert_eq!(first, a);
        assert!((t1 - 1.5).abs() < 1e-9);
        let residual = pfs.finish_flow(t1, a);
        assert!(residual.abs() < 1e-6);
        // b moved 50 by t=1.5, runs alone at 100 B/s: completes at 2.0.
        let (second, t2) = pfs.next_completion().unwrap();
        assert_eq!(second, b);
        assert!((t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn idle_pfs_has_no_completion() {
        let pfs = Pfs::new(10.0, 10.0);
        assert!(pfs.next_completion().is_none());
        assert_eq!(pfs.current_rate(), 0.0);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut pfs = Pfs::new(10.0, 10.0);
        let id = pfs.start_flow(1.0, 0);
        let (cid, t) = pfs.next_completion().unwrap();
        assert_eq!(cid, id);
        assert!((t - 1.0).abs() < 1e-12);
        assert!(pfs.is_done(id));
    }

    #[test]
    fn conservation_of_bytes() {
        let mut pfs = Pfs::new(7.0, 3.0);
        let ids: Vec<_> = (0..3).map(|i| pfs.start_flow(i as f64 * 0.3, 10 + i)).collect();
        let mut finished = 0;
        let mut guard = 0;
        while finished < ids.len() {
            let (id, t) = pfs.next_completion().unwrap();
            pfs.finish_flow(t, id);
            finished += 1;
            guard += 1;
            assert!(guard < 100, "did not converge");
        }
        assert!((pfs.bytes_moved() - (10.0 + 11.0 + 12.0)).abs() < 1e-6);
    }

    #[test]
    fn equal_flows_started_together_finish_together() {
        // Two flows halve the aggregate: each runs at 5 B/s, both end at 20.
        let mut pfs = Pfs::new(10.0, 1000.0);
        pfs.start_flow(0.0, 100);
        pfs.start_flow(0.0, 100);
        let (first, t1) = pfs.next_completion().unwrap();
        assert!((t1 - 20.0).abs() < 1e-9, "t1 = {t1}");
        pfs.finish_flow(t1, first);
        let (_, t2) = pfs.next_completion().unwrap();
        assert!((t2 - 20.0).abs() < 1e-6, "t2 = {t2}");
    }

    #[test]
    fn rate_is_client_bound_until_the_aggregate_is_shared() {
        // Ceiling 30, aggregate 100: up to 3 flows each get the ceiling, a
        // fourth makes the aggregate bind (100 / 4 = 25).
        let mut pfs = Pfs::new(100.0, 30.0);
        for (n, expect) in [(1, 30.0), (2, 30.0), (3, 30.0), (4, 25.0), (5, 20.0)] {
            pfs.start_flow(0.0, 1000);
            assert_eq!(pfs.active(), n);
            assert!((pfs.current_rate() - expect).abs() < 1e-9, "{n} flows");
        }
    }

    #[test]
    fn solo_flow_time_is_bytes_over_the_smaller_bandwidth() {
        for (aggregate, ceiling) in [(100.0, 10.0), (10.0, 100.0), (40.0, 40.0)] {
            let mut pfs = Pfs::new(aggregate, ceiling);
            pfs.start_flow(2.0, 400);
            let (_, t) = pfs.next_completion().unwrap();
            let expect = 2.0 + 400.0 / f64::min(aggregate, ceiling);
            assert!((t - expect).abs() < 1e-9, "aggregate {aggregate}, ceiling {ceiling}: {t}");
        }
    }

    #[test]
    fn finishing_an_unknown_flow_changes_nothing() {
        let mut pfs = Pfs::new(10.0, 10.0);
        let id = pfs.start_flow(0.0, 100);
        assert_eq!(pfs.finish_flow(1.0, id + 1), 0.0);
        assert_eq!(pfs.active(), 1);
        assert!(!pfs.is_done(id));
        assert!(pfs.is_done(id + 1), "an unknown flow has nothing left");
        let (cid, t) = pfs.next_completion().unwrap();
        assert_eq!(cid, id);
        assert!((t - 10.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn flow_ids_are_never_reused() {
        let mut pfs = Pfs::new(10.0, 10.0);
        let a = pfs.start_flow(0.0, 10);
        pfs.finish_flow(1.0, a);
        let b = pfs.start_flow(1.0, 10);
        let c = pfs.start_flow(1.0, 10);
        assert!(a < b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn a_drained_pfs_is_idle_and_moved_every_byte() {
        let mut pfs = Pfs::new(8.0, 5.0);
        for i in 0..6u32 {
            pfs.start_flow(f64::from(i) * 0.1, 100 + u64::from(i));
        }
        let mut guard = 0;
        while let Some((id, t)) = pfs.next_completion() {
            assert!(pfs.finish_flow(t, id).abs() < 1e-6, "flow {id} left bytes behind");
            guard += 1;
            assert!(guard <= 6, "did not drain");
        }
        assert_eq!(pfs.active(), 0);
        assert_eq!(pfs.current_rate(), 0.0);
        assert!((pfs.bytes_moved() - 615.0).abs() < 1e-6, "{}", pfs.bytes_moved());
    }

    #[test]
    fn advancing_past_a_completion_moves_no_extra_bytes() {
        let mut pfs = Pfs::new(10.0, 10.0);
        let id = pfs.start_flow(0.0, 30);
        pfs.advance_to(100.0);
        assert!(pfs.is_done(id));
        assert!((pfs.bytes_moved() - 30.0).abs() < 1e-9, "{}", pfs.bytes_moved());
        assert_eq!(pfs.finish_flow(100.0, id), 0.0);
    }
}
