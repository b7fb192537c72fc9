//! Categorizer thresholds — every number the paper specifies, in one place.

use serde::{Deserialize, Serialize};

/// Which periodicity detector the categorizer runs (§III-B3a vs the §V
/// future-work spectral method).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PeriodicityMethod {
    /// Segmentation + Mean Shift clustering — the paper's method.
    #[default]
    MeanShift,
    /// Periodogram peaks + time-domain lattice verification — the paper's
    /// planned signal-processing upgrade.
    Spectral,
}

/// All thresholds of the MOSAIC categorization pipeline. Defaults are the
/// values fixed in the paper; §III-A notes they "can be modified in MOSAIC
/// to extend or narrow the amount of I/O activities to categorize".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategorizerConfig {
    // ---- significance (§III-A) ----
    /// Per-direction byte volume below which a trace is `insignificant`
    /// (default 100 MB).
    pub insignificant_bytes: u64,

    // ---- neighbor merging (§III-B2b) ----
    /// Merge when the gap is under this fraction of total runtime
    /// (default 0.1 %).
    pub neighbor_gap_runtime_frac: f64,
    /// ... or under this fraction of the nearby merged operation's duration
    /// (default 1 %).
    pub neighbor_gap_op_frac: f64,

    // ---- periodicity (§III-B3a) ----
    /// Mean Shift bandwidth in log₁₀ feature space (duration, volume). The
    /// paper set its thresholds empirically on a month of traces; 0.15
    /// groups segments within ×1.4 of each other on both axes.
    pub meanshift_bandwidth: f64,
    /// Minimum cluster size to call a group periodic (paper: strictly
    /// greater than 1, i.e. 2).
    pub min_periodic_occurrences: usize,
    /// Busy-time split: below this fraction of the period spent doing I/O
    /// is `low_busy_time` (§IV-D observes 96 % of periodic writes < 25 %).
    pub busy_time_split: f64,
    /// Maximum coefficient of variation of a group's inter-arrival times
    /// for it to count as periodic (regular repetition, not just
    /// similar-looking operations).
    pub periodic_regularity_cv: f64,
    /// Which periodicity detector to run.
    pub periodicity_method: PeriodicityMethod,

    // ---- temporality (§III-B3b) ----
    /// Number of equal execution-time chunks (paper: 4).
    pub chunks: usize,
    /// A chunk is dominant if it exceeds every other chunk by this factor
    /// (paper: "more than twice the amount").
    pub dominance_factor: f64,
    /// Steady when the coefficient of variation across chunks is below this
    /// (paper: 25 %).
    pub steady_cv: f64,

    // ---- metadata (§III-B3c, thresholds from Kunkel & Markomanolis) ----
    /// `high_spike`: more than this many requests in one second.
    pub high_spike_requests: u64,
    /// A "spike" is a second with at least this many requests.
    pub spike_requests: u64,
    /// `multiple_spikes` / `high_density`: at least this many spikes.
    pub min_spikes: usize,
    /// `high_density`: mean requests per second over the execution.
    pub density_mean_rps: f64,
}

impl Default for CategorizerConfig {
    fn default() -> Self {
        CategorizerConfig {
            insignificant_bytes: 100 * 1024 * 1024,
            neighbor_gap_runtime_frac: 0.001,
            neighbor_gap_op_frac: 0.01,
            meanshift_bandwidth: 0.15,
            min_periodic_occurrences: 2,
            busy_time_split: 0.25,
            periodic_regularity_cv: 0.5,
            periodicity_method: PeriodicityMethod::MeanShift,
            chunks: 4,
            dominance_factor: 2.0,
            steady_cv: 0.25,
            high_spike_requests: 250,
            spike_requests: 50,
            min_spikes: 5,
            density_mean_rps: 50.0,
        }
    }
}

impl CategorizerConfig {
    /// Panic on nonsensical settings, returning `self` otherwise.
    pub fn validated(self) -> Self {
        assert!(self.chunks >= 2, "need at least 2 temporal chunks");
        assert!(self.dominance_factor > 1.0, "dominance factor must exceed 1");
        assert!(self.steady_cv > 0.0, "steady CV threshold must be positive");
        assert!(self.meanshift_bandwidth > 0.0, "bandwidth must be positive");
        assert!(self.min_periodic_occurrences >= 2, "periodic groups need >= 2 members");
        assert!((0.0..=1.0).contains(&self.busy_time_split), "busy split in [0,1]");
        assert!(self.periodic_regularity_cv > 0.0, "regularity CV must be positive");
        assert!(self.neighbor_gap_runtime_frac >= 0.0 && self.neighbor_gap_op_frac >= 0.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CategorizerConfig::default().validated();
        assert_eq!(c.insignificant_bytes, 100 * 1024 * 1024);
        assert_eq!(c.chunks, 4);
        assert_eq!(c.high_spike_requests, 250);
        assert_eq!(c.spike_requests, 50);
        assert_eq!(c.min_spikes, 5);
        assert_eq!(c.density_mean_rps, 50.0);
        assert_eq!(c.steady_cv, 0.25);
        assert_eq!(c.dominance_factor, 2.0);
        assert_eq!(c.neighbor_gap_runtime_frac, 0.001);
        assert_eq!(c.neighbor_gap_op_frac, 0.01);
        assert_eq!(c.busy_time_split, 0.25);
        assert_eq!(c.periodic_regularity_cv, 0.5);
    }

    #[test]
    #[should_panic(expected = "temporal chunks")]
    fn bad_chunks_panic() {
        let _ = CategorizerConfig { chunks: 1, ..Default::default() }.validated();
    }

    #[test]
    fn config_serializes() {
        let c = CategorizerConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: CategorizerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
