//! Order statistics for the reported timings.
//!
//! Percentiles use the nearest-rank definition: the `q`-quantile of `n`
//! sorted samples is the sample of rank `ceil(q * n)` (1-based). A
//! percentile is only worth reporting when at least [`MIN_BEYOND`] samples
//! lie beyond it; [`tail_percentile`] picks the highest percentile on
//! [`LADDER`] that meets that rule for a given sample count.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, in basis points (1/10,000).
pub const LADDER: [u32; 4] = [9_000, 9_900, 9_990, 9_999];

/// Basis points of the median.
pub const P50: u32 = 5_000;

/// Basis points of the named p99 metrics.
pub const P99: u32 = 9_900;

/// 1-based nearest rank of the `bp`-basis-point quantile among `n > 0`
/// samples.
fn rank(n: usize, bp: u32) -> usize {
    let scaled = n as u128 * u128::from(bp);
    (scaled.div_ceil(10_000) as usize).clamp(1, n)
}

/// Samples lying strictly beyond the `bp` quantile of `n` samples.
pub fn beyond(n: usize, bp: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, bp)
    }
}

/// The highest percentile on [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p90 has too few.
pub fn tail_percentile(n: usize) -> Option<u32> {
    LADDER.iter().copied().rev().find(|&bp| beyond(n, bp) >= MIN_BEYOND)
}

/// Nearest-rank quantile of an ascending slice; `None` when empty.
pub fn quantile_sorted(sorted: &[f64], bp: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    sorted.get(rank(sorted.len(), bp) - 1).copied()
}

/// Nearest-rank median of an unsorted sample; NaN when empty. The same
/// definition as [`Latency::p50`], so every reported median agrees.
pub fn p50(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, P50).unwrap_or(f64::NAN)
}

/// Summary of one latency distribution, in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// The highest percentile with at least [`MIN_BEYOND`] samples beyond
    /// it, in basis points, with its value.
    pub tail: Option<(u32, f64)>,
}

impl Latency {
    /// Summarise samples given in nanoseconds.
    pub fn from_nanos(samples: &[u32]) -> Latency {
        let mut us: Vec<f64> = samples.iter().map(|&ns| f64::from(ns) / 1_000.0).collect();
        us.sort_by(f64::total_cmp);
        let at = |bp| quantile_sorted(&us, bp).unwrap_or(f64::NAN);
        Latency {
            n: us.len(),
            p50: at(P50),
            p99: at(P99),
            tail: tail_percentile(us.len()).map(|bp| (bp, at(bp))),
        }
    }

    /// `true` when the p99 has at least [`MIN_BEYOND`] samples beyond it.
    pub fn p99_supported(&self) -> bool {
        beyond(self.n, P99) >= MIN_BEYOND
    }

    /// Median, p99 and the highest supported tail, with the sample count.
    pub fn describe(&self) -> String {
        let tail = match self.tail {
            Some((bp, v)) => format!("p{} {v:.2} us", bp_label(bp)),
            None => "none".to_owned(),
        };
        let note = if self.p99_supported() { "" } else { " (p99 has <10 samples beyond)" };
        format!(
            "n={} p50 {:.2} us, p99 {:.2} us{note}, highest supported tail {tail}",
            self.n, self.p50, self.p99
        )
    }
}

/// `9900` -> `"99"`, `9990` -> `"99.9"`, `9999` -> `"99.99"`.
pub fn bp_label(bp: u32) -> String {
    let (whole, frac) = (bp / 100, bp % 100);
    if frac == 0 {
        format!("{whole}")
    } else if frac % 10 == 0 {
        format!("{whole}.{}", frac / 10)
    } else {
        format!("{whole}.{frac:02}")
    }
}

/// Nanoseconds of a duration as a latency sample, saturating at `u32::MAX`
/// (4.29 s, far beyond any single call the benchmark times).
pub fn sample_ns(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1_000, P99), 10);
        assert_eq!(beyond(999, P99), 9);
        assert_eq!(tail_percentile(999), Some(9_000));
        assert_eq!(tail_percentile(1_000), Some(9_900));
        assert_eq!(tail_percentile(9_999), Some(9_900));
        assert_eq!(tail_percentile(10_000), Some(9_990));
        assert_eq!(tail_percentile(100_000), Some(9_999));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(9_000));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&xs, P50), Some(50.0));
        assert_eq!(quantile_sorted(&xs, P99), Some(99.0));
        assert_eq!(quantile_sorted(&xs, 10_000), Some(100.0));
        assert_eq!(quantile_sorted(&[], P50), None);
        assert_eq!(quantile_sorted(&[7.0], P99), Some(7.0));
    }

    #[test]
    fn p50_is_the_nearest_rank_median() {
        assert_eq!(p50(&[3.0, 1.0, 2.0]), 2.0);
        // Even counts take the lower middle value, like `Latency::p50`.
        assert_eq!(p50(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(p50(&[]).is_nan());
    }

    #[test]
    fn latency_summary_states_its_count() {
        let ns: Vec<u32> = (1..=2_000).map(|i| i * 1_000).collect();
        let lat = Latency::from_nanos(&ns);
        assert_eq!(lat.n, 2_000);
        assert_eq!(lat.p50, 1_000.0);
        assert_eq!(lat.p99, 1_980.0);
        assert_eq!(lat.tail, Some((9_900, 1_980.0)));
        assert!(lat.p99_supported());
        assert!(lat.describe().starts_with("n=2000 "));
        let short = Latency::from_nanos(&ns[..500]);
        assert!(!short.p99_supported());
        assert!(short.describe().contains("<10 samples beyond"));
    }

    #[test]
    fn basis_point_labels() {
        assert_eq!(bp_label(9_000), "90");
        assert_eq!(bp_label(9_900), "99");
        assert_eq!(bp_label(9_990), "99.9");
        assert_eq!(bp_label(9_999), "99.99");
    }

    #[test]
    fn samples_saturate_instead_of_wrapping() {
        assert_eq!(sample_ns(std::time::Duration::from_micros(3)), 3_000);
        assert_eq!(sample_ns(std::time::Duration::from_secs(10)), u32::MAX);
    }
}
