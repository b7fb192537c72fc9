//! Windowing and signal construction helpers.

/// Hann window of length `n` (avoids spectral leakage when a period does not
/// divide the signal length).
pub fn hann(n: usize) -> Vec<f64> {
    if n <= 1 {
        return vec![1.0; n];
    }
    (0..n)
        .map(|i| {
            let x = std::f64::consts::PI * i as f64 / (n - 1) as f64;
            x.sin().powi(2)
        })
        .collect()
}

/// Apply a window in place (`signal` and `window` must have equal length).
pub fn apply_window(signal: &mut [f64], window: &[f64]) {
    assert_eq!(signal.len(), window.len(), "window length mismatch");
    for (s, w) in signal.iter_mut().zip(window) {
        *s *= w;
    }
}

/// Rasterize `[start, end, weight]` intervals into a fixed-rate activity
/// signal over `[0, runtime]` with `bins` samples.
///
/// Each interval deposits its weight spread uniformly over the bins it
/// covers — the standard way to turn Darshan-style aggregated operations
/// into the activity signal frequency methods consume.
pub fn rasterize(intervals: &[(f64, f64, f64)], runtime: f64, bins: usize) -> Vec<f64> {
    let mut signal = vec![0.0; bins];
    if bins == 0 || runtime <= 0.0 {
        return signal;
    }
    let dt = runtime / bins as f64;
    for &(start, end, weight) in intervals {
        let (start, end) = (start.max(0.0), end.min(runtime));
        if end < start {
            continue;
        }
        let first = ((start / dt) as usize).min(bins - 1);
        let last = ((end / dt) as usize).min(bins - 1);
        let span = (last - first + 1) as f64;
        #[allow(clippy::needless_range_loop, reason = "index math over a time window")]
        for b in first..=last {
            // lint: allow(panic, "b <= last, which is clamped to bins - 1 == signal.len() - 1")
            signal[b] += weight / span;
        }
    }
    signal
}

/// Mean of a signal.
pub fn mean(signal: &[f64]) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    signal.iter().sum::<f64>() / signal.len() as f64
}

/// Remove the mean (detrend level 0) so the DC bin does not dominate the
/// spectrum.
pub fn remove_mean(signal: &mut [f64]) {
    let m = mean(signal);
    for v in signal.iter_mut() {
        *v -= m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hann_shape() {
        let w = hann(5);
        assert_eq!(w.len(), 5);
        assert!(w[0].abs() < 1e-12);
        assert!(w[4].abs() < 1e-12);
        assert!((w[2] - 1.0).abs() < 1e-12);
        assert_eq!(hann(1), vec![1.0]);
        assert!(hann(0).is_empty());
    }

    #[test]
    fn rasterize_deposits_weight() {
        // One interval covering the first half of a 10-bin signal.
        let s = rasterize(&[(0.0, 4.9, 10.0)], 10.0, 10);
        let total: f64 = s.iter().sum();
        assert!((total - 10.0).abs() < 1e-9);
        assert!(s[..5].iter().all(|&v| v > 0.0));
        assert!(s[5..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rasterize_clamps_out_of_range() {
        let s = rasterize(&[(-5.0, 100.0, 4.0)], 10.0, 4);
        let total: f64 = s.iter().sum();
        assert!((total - 4.0).abs() < 1e-9);
        // Interval entirely outside → nothing deposited.
        let s = rasterize(&[(20.0, 30.0, 4.0)], 10.0, 4);
        assert!(s.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rasterize_degenerate_inputs() {
        assert!(rasterize(&[(0.0, 1.0, 1.0)], 0.0, 8).iter().all(|&v| v == 0.0));
        assert!(rasterize(&[(0.0, 1.0, 1.0)], 10.0, 0).is_empty());
        // Instantaneous events land in one bin.
        let s = rasterize(&[(5.0, 5.0, 3.0)], 10.0, 10);
        assert_eq!(s[5], 3.0);
    }

    #[test]
    fn mean_removal_centers_signal() {
        let mut s = vec![1.0, 2.0, 3.0, 4.0];
        remove_mean(&mut s);
        assert!(mean(&s).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "window length mismatch")]
    fn window_mismatch_panics() {
        let mut s = vec![1.0; 4];
        apply_window(&mut s, &hann(5));
    }
}
