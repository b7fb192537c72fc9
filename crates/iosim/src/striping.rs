//! OST-level striping model of the parallel file system.
//!
//! Blue Waters' scratch file system spread 26 PB over 360 OSSs and 1440
//! OSTs (object storage targets); a file's throughput depends on how many
//! OSTs it stripes across and how many other flows share them. The flat
//! [`crate::pfs::Pfs`] model treats the machine as one bandwidth pool; this
//! model gives each OST its own capacity:
//!
//! * a file's stripes are a deterministic function of its path (Lustre's
//!   default layout: `stripe_count` consecutive OSTs starting at a
//!   path-hash offset);
//! * each OST splits its bandwidth evenly among the flows touching it;
//! * a flow's rate is the sum of its per-stripe shares, capped by the
//!   client's link.
//!
//! Rates are piecewise constant between flow arrivals/departures, like the
//! flat model, so the engine integration is identical. The
//! `ost_striping` bench shows the phenomena this captures and the flat
//! model cannot: stripe-width scaling for single files and OST hotspots
//! when many files hash onto the same targets.

use crate::pfs::FlowId;
use mosaic_darshan::synthutil::fnv1a64;
use std::collections::BTreeMap;

/// Striped parallel file system state.
///
/// Flows live in a `BTreeMap` so that iteration — and therefore the
/// floating-point accumulation order of `bytes_moved` — is deterministic
/// across runs and hash seeds.
#[derive(Debug, Clone)]
pub struct StripedPfs {
    n_osts: usize,
    ost_bw: f64,
    per_client_bw: f64,
    stripe_count: usize,
    flows: BTreeMap<FlowId, Flow>,
    last_update: f64,
    next_id: FlowId,
    bytes_moved: f64,
}

#[derive(Debug, Clone)]
struct Flow {
    remaining: f64,
    osts: Vec<u32>,
}

impl StripedPfs {
    /// New model: `n_osts` targets of `ost_bw` bytes/s each, files striped
    /// over `stripe_count` OSTs, clients capped at `per_client_bw`.
    pub fn new(n_osts: usize, ost_bw: f64, per_client_bw: f64, stripe_count: usize) -> Self {
        assert!(n_osts >= 1 && ost_bw > 0.0 && per_client_bw > 0.0);
        assert!(stripe_count >= 1);
        StripedPfs {
            n_osts,
            ost_bw,
            per_client_bw,
            stripe_count: stripe_count.min(n_osts),
            flows: BTreeMap::new(),
            last_update: 0.0,
            next_id: 0,
            bytes_moved: 0.0,
        }
    }

    /// The OSTs a path stripes over (Lustre default layout: consecutive
    /// targets from a hash-derived starting index).
    pub fn stripes_for(&self, path: &str) -> Vec<u32> {
        let start = (fnv1a64(path.as_bytes()) % self.n_osts as u64) as usize;
        (0..self.stripe_count).map(|i| ((start + i) % self.n_osts) as u32).collect()
    }

    /// Per-OST sharer counts for the active flows.
    fn sharers(&self) -> BTreeMap<u32, usize> {
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for f in self.flows.values() {
            for &ost in &f.osts {
                *counts.entry(ost).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Current rate of one flow under per-OST fair sharing.
    fn rate_of(&self, flow: &Flow, sharers: &BTreeMap<u32, usize>) -> f64 {
        let total: f64 = flow
            .osts
            .iter()
            .map(|ost| self.ost_bw / sharers.get(ost).copied().unwrap_or(1) as f64)
            .sum();
        total.min(self.per_client_bw)
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes transferred.
    pub fn bytes_moved(&self) -> f64 {
        self.bytes_moved
    }

    /// Advance all flows to `now` at current rates.
    pub fn advance_to(&mut self, now: f64) {
        let dt = (now - self.last_update).max(0.0);
        if dt > 0.0 && !self.flows.is_empty() {
            let sharers = self.sharers();
            let rates: Vec<(FlowId, f64)> =
                self.flows.iter().map(|(&id, f)| (id, self.rate_of(f, &sharers))).collect();
            for (id, rate) in rates {
                let f = self.flows.get_mut(&id).expect("flow exists");
                let step = (rate * dt).min(f.remaining);
                f.remaining -= step;
                self.bytes_moved += step;
            }
        }
        self.last_update = now;
    }

    /// Start a transfer of `bytes` on `path`'s stripes at time `now`.
    pub fn start_flow(&mut self, now: f64, bytes: u64, path: &str) -> FlowId {
        self.advance_to(now);
        let id = self.next_id;
        self.next_id += 1;
        let osts = self.stripes_for(path);
        self.flows.insert(id, Flow { remaining: bytes as f64, osts });
        id
    }

    /// Remove a completed flow; returns residual bytes.
    pub fn finish_flow(&mut self, now: f64, id: FlowId) -> f64 {
        self.advance_to(now);
        self.flows.remove(&id).map(|f| f.remaining).unwrap_or(0.0)
    }

    /// Earliest completion under current rates.
    pub fn next_completion(&self) -> Option<(FlowId, f64)> {
        if self.flows.is_empty() {
            return None;
        }
        let sharers = self.sharers();
        self.flows
            .iter()
            .filter_map(|(&id, f)| {
                let rate = self.rate_of(f, &sharers);
                (rate > 0.0).then(|| (id, self.last_update + f.remaining / rate))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// Wallclock to move `bytes` on `path` with no competing flows.
    pub fn solo_transfer_seconds(&self, bytes: u64, path: &str) -> f64 {
        let osts = self.stripes_for(path).len() as f64;
        let rate = (osts * self.ost_bw).min(self.per_client_bw);
        bytes as f64 / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_are_deterministic_and_distinct() {
        let pfs = StripedPfs::new(16, 10.0, 1000.0, 4);
        let a = pfs.stripes_for("/f/a");
        assert_eq!(a, pfs.stripes_for("/f/a"));
        assert_eq!(a.len(), 4);
        let unique: std::collections::BTreeSet<u32> = a.iter().copied().collect();
        assert_eq!(unique.len(), 4, "consecutive stripes must be distinct");
    }

    #[test]
    fn stripe_count_scales_single_file_bandwidth() {
        // One flow: rate = stripes × ost_bw (below client cap).
        for (stripes, expect) in [(1usize, 10.0), (2, 20.0), (4, 40.0)] {
            let mut pfs = StripedPfs::new(16, 10.0, 1000.0, stripes);
            pfs.start_flow(0.0, 400, "/data");
            let (_, t) = pfs.next_completion().unwrap();
            assert!((t - 400.0 / expect).abs() < 1e-9, "stripes {stripes}: t = {t}");
        }
    }

    #[test]
    fn client_cap_limits_wide_stripes() {
        let mut pfs = StripedPfs::new(64, 10.0, 25.0, 32);
        pfs.start_flow(0.0, 250, "/data");
        let (_, t) = pfs.next_completion().unwrap();
        // 32 stripes × 10 = 320, capped at 25.
        assert!((t - 10.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn ost_contention_halves_colliding_flows() {
        // Two files forced onto the same single OST (n_osts = 1).
        let mut pfs = StripedPfs::new(1, 10.0, 1000.0, 1);
        let a = pfs.start_flow(0.0, 100, "/a");
        let _b = pfs.start_flow(0.0, 100, "/b");
        // Each gets 5 B/s → both complete at t = 20.
        let (first, t) = pfs.next_completion().unwrap();
        assert!((t - 20.0).abs() < 1e-9);
        pfs.finish_flow(t, first);
        let (_, t2) = pfs.next_completion().unwrap();
        assert!((t2 - 20.0).abs() < 1e-6, "t2 = {t2}");
        let _ = a;
    }

    #[test]
    fn disjoint_osts_do_not_interfere() {
        let pfs_probe = StripedPfs::new(64, 10.0, 1000.0, 1);
        // Find two paths on different OSTs.
        let mut paths = ("/x0".to_owned(), None::<String>);
        let first_ost = pfs_probe.stripes_for(&paths.0)[0];
        for i in 1..200 {
            let p = format!("/x{i}");
            if pfs_probe.stripes_for(&p)[0] != first_ost {
                paths.1 = Some(p);
                break;
            }
        }
        let other = paths.1.expect("found disjoint path");

        let mut pfs = StripedPfs::new(64, 10.0, 1000.0, 1);
        pfs.start_flow(0.0, 100, &paths.0);
        pfs.start_flow(0.0, 100, &other);
        // Both run at a full OST each: complete at t = 10.
        let (_, t) = pfs.next_completion().unwrap();
        assert!((t - 10.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn conservation_and_drain() {
        let mut pfs = StripedPfs::new(8, 10.0, 50.0, 2);
        for i in 0..6 {
            pfs.start_flow(i as f64 * 0.1, 100 + i, &format!("/f{i}"));
        }
        let mut guard = 0;
        while let Some((id, t)) = pfs.next_completion() {
            pfs.finish_flow(t, id);
            guard += 1;
            assert!(guard < 50, "did not drain");
        }
        let expected: f64 = (0..6).map(|i| 100.0 + i as f64).sum();
        assert!((pfs.bytes_moved() - expected).abs() < 1e-6);
        assert_eq!(pfs.active(), 0);
    }

    #[test]
    fn solo_transfer_estimate_matches_simulation() {
        let mut pfs = StripedPfs::new(16, 10.0, 1000.0, 4);
        let est = pfs.solo_transfer_seconds(400, "/data");
        pfs.start_flow(0.0, 400, "/data");
        let (_, t) = pfs.next_completion().unwrap();
        assert!((t - est).abs() < 1e-9);
    }
}
