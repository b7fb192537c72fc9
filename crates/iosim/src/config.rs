//! Machine parameters for the simulator.

use serde::{Deserialize, Serialize};

/// Parameters of the simulated machine's I/O path.
///
/// Defaults are scaled-down Blue Waters-flavoured numbers: what matters for
/// MOSAIC is not absolute speed but the *relationships* — metadata latency
/// that degrades near saturation, bandwidth that is shared fairly across
/// concurrent flows, and ranks that drift slightly apart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Aggregate parallel-file-system bandwidth, bytes per second.
    pub pfs_bandwidth: f64,
    /// Metadata server capacity, requests per second (Mistral-like ≈ 3000;
    /// the paper's thresholds derive from this figure).
    pub mds_capacity: f64,
    /// Metadata request service time at zero load, seconds.
    pub mds_base_latency: f64,
    /// Standard deviation of per-rank start/compute jitter, as a fraction of
    /// the phase duration (process desynchronization).
    pub rank_jitter: f64,
    /// Per-rank bandwidth ceiling, bytes per second (a single client cannot
    /// use the whole machine).
    pub per_rank_bandwidth: f64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            // 100 GB/s aggregate, 1 GB/s per client — Blue Waters-ish ratios.
            pfs_bandwidth: 100.0e9,
            per_rank_bandwidth: 1.0e9,
            mds_capacity: 3000.0,
            mds_base_latency: 0.001,
            rank_jitter: 0.02,
        }
    }
}

impl MachineConfig {
    /// Validate parameter sanity; panics on nonsensical configurations so
    /// misuse fails fast in tests rather than producing silent nonsense.
    pub fn validated(self) -> Self {
        assert!(self.pfs_bandwidth > 0.0, "pfs_bandwidth must be positive");
        assert!(self.per_rank_bandwidth > 0.0, "per_rank_bandwidth must be positive");
        assert!(self.mds_capacity > 0.0, "mds_capacity must be positive");
        assert!(self.mds_base_latency >= 0.0, "mds_base_latency must be non-negative");
        assert!((0.0..1.0).contains(&self.rank_jitter), "rank_jitter must be in [0, 1)");
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = MachineConfig::default().validated();
        assert!(c.pfs_bandwidth > c.per_rank_bandwidth);
    }

    #[test]
    #[should_panic(expected = "pfs_bandwidth")]
    fn bad_bandwidth_panics() {
        let _ = MachineConfig { pfs_bandwidth: 0.0, ..Default::default() }.validated();
    }

    #[test]
    #[should_panic(expected = "rank_jitter")]
    fn bad_jitter_panics() {
        let _ = MachineConfig { rank_jitter: 1.5, ..Default::default() }.validated();
    }

    #[test]
    #[should_panic(expected = "per_rank_bandwidth")]
    fn zero_client_bandwidth_panics() {
        let _ = MachineConfig { per_rank_bandwidth: 0.0, ..Default::default() }.validated();
    }

    #[test]
    #[should_panic(expected = "mds_capacity")]
    fn zero_mds_capacity_panics() {
        let _ = MachineConfig { mds_capacity: 0.0, ..Default::default() }.validated();
    }

    #[test]
    #[should_panic(expected = "mds_base_latency")]
    fn negative_mds_latency_panics() {
        let _ = MachineConfig { mds_base_latency: -1e-3, ..Default::default() }.validated();
    }

    #[test]
    fn jitter_range_is_half_open() {
        let at = |rank_jitter| {
            std::panic::catch_unwind(|| {
                MachineConfig { rank_jitter, ..Default::default() }.validated()
            })
        };
        assert!(at(0.0).is_ok(), "no jitter is a valid machine");
        assert!(at(0.999).is_ok());
        assert!(at(1.0).is_err(), "jitter of a whole phase is rejected");
        assert!(at(-0.01).is_err());
    }
}
