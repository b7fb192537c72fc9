//! FFT-based autocorrelation and lag-domain period estimation.

use crate::fft::{fft_in_place, ifft_in_place, next_pow2, Complex};

/// Normalized autocorrelation of `signal` for lags `0..signal.len()`,
/// computed via the Wiener–Khinchin theorem (FFT → |·|² → IFFT) in
/// `O(n log n)`. `r[0]` is 1 for non-degenerate signals.
pub fn autocorrelation(signal: &[f64]) -> Vec<f64> {
    let n = signal.len();
    if n == 0 {
        return Vec::new();
    }
    let mean = signal.iter().sum::<f64>() / n as f64;
    // Zero-pad to 2n to make the circular correlation linear.
    let m = next_pow2(2 * n);
    let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::new(x - mean, 0.0)).collect();
    data.resize(m, Complex::zero());
    fft_in_place(&mut data);
    for v in data.iter_mut() {
        let p = v.norm2();
        *v = Complex::new(p, 0.0);
    }
    ifft_in_place(&mut data);
    let r0 = data.first().map_or(0.0, |c| c.re);
    if r0 <= 0.0 {
        return vec![0.0; n];
    }
    data.iter().take(n).map(|c| c.re / r0).collect()
}

/// Estimate the dominant period of a signal (in samples) from the first
/// autocorrelation peak after the zero lag: the smallest lag `k > 0` that is
/// a local maximum with `r[k] >= min_corr`. Returns `None` when no such lag
/// exists (aperiodic signal).
pub fn dominant_period(signal: &[f64], min_corr: f64) -> Option<usize> {
    let r = autocorrelation(signal);
    if r.len() < 3 {
        return None;
    }
    // Skip the main lobe around lag 0.
    let k =
        1 + r.iter().zip(r.iter().skip(1)).take_while(|&(prev, cur)| *cur > prev.min(1.0)).count();
    // The FIRST strong local maximum is the fundamental; later lags at
    // multiples of it (2T, 3T, …) are equally high for clean signals, so
    // taking the global maximum would report a harmonic. Window `j` is
    // lags `j..j + 3`, centred on lag `j + 1`.
    r.windows(3).enumerate().skip(k - 1).find_map(|(j, w)| match *w {
        [before, at, after] if at >= before && at > after && at >= min_corr => Some(j + 1),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autocorr_of_periodic_signal_peaks_at_period() {
        let period = 20usize;
        let signal: Vec<f64> = (0..400).map(|t| if t % period < 3 { 1.0 } else { 0.0 }).collect();
        let r = autocorrelation(&signal);
        assert!((r[0] - 1.0).abs() < 1e-9);
        assert!(r[period] > 0.8, "r[{period}] = {}", r[period]);
        assert_eq!(dominant_period(&signal, 0.5), Some(period));
    }

    #[test]
    fn aperiodic_signal_has_no_dominant_period() {
        // A single burst: autocorrelation decays monotonically.
        let mut signal = vec![0.0; 128];
        for v in signal.iter_mut().take(10) {
            *v = 1.0;
        }
        assert_eq!(dominant_period(&signal, 0.5), None);
    }

    #[test]
    fn constant_signal_degenerates_gracefully() {
        let signal = vec![3.0; 64];
        let r = autocorrelation(&signal);
        assert!(r.iter().all(|&v| v.abs() < 1e-9 || v == 0.0));
        assert_eq!(dominant_period(&signal, 0.5), None);
    }

    #[test]
    fn empty_and_tiny_signals() {
        assert!(autocorrelation(&[]).is_empty());
        assert_eq!(dominant_period(&[], 0.5), None);
        assert_eq!(dominant_period(&[1.0, 0.0], 0.5), None);
    }

    /// The lag scan as it was written before the window iterators.
    fn indexed_dominant_period(signal: &[f64], min_corr: f64) -> Option<usize> {
        let r = autocorrelation(signal);
        if r.len() < 3 {
            return None;
        }
        let mut k = 1;
        while k < r.len() && r[k] > r[k - 1].min(1.0) {
            k += 1;
        }
        (k.max(1)..r.len() - 1).find(|&i| r[i] >= r[i - 1] && r[i] > r[i + 1] && r[i] >= min_corr)
    }

    #[test]
    fn dominant_period_equals_the_indexed_scan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for case in 0..400 {
            let n = rng.gen_range(0..200usize);
            let period = rng.gen_range(2..40usize);
            let duty = rng.gen_range(1..=period);
            let noise = rng.gen_range(0.0..2.0);
            let signal: Vec<f64> = (0..n)
                .map(|t| f64::from(u8::from(t % period < duty)) + noise * rng.gen_range(-1.0..1.0))
                .collect();
            for min_corr in [-1.0, 0.0, 0.3, 0.5, 0.9, 1.0] {
                assert_eq!(
                    dominant_period(&signal, min_corr),
                    indexed_dominant_period(&signal, min_corr),
                    "case {case}: n {n}, period {period}, duty {duty}, min_corr {min_corr}"
                );
            }
        }
    }

    #[test]
    fn a_threshold_above_every_peak_finds_no_period() {
        let signal: Vec<f64> = (0..300).map(|t| if t % 15 < 2 { 1.0 } else { 0.0 }).collect();
        assert_eq!(dominant_period(&signal, 0.5), Some(15));
        assert_eq!(dominant_period(&signal, 1.01), None);
    }

    #[test]
    fn three_samples_can_peak_only_at_lag_one() {
        // Lag 2 is the last lag and has no right neighbour to exceed.
        for signal in [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 2.0, 3.0]] {
            let found = dominant_period(&signal, -1.0);
            assert!(found.is_none() || found == Some(1), "{signal:?}: {found:?}");
        }
    }

    #[test]
    fn autocorr_matches_direct_computation() {
        let signal = [1.0, -0.5, 2.0, 0.0, 1.5, -1.0, 0.5, 2.5];
        let n = signal.len();
        let mean = signal.iter().sum::<f64>() / n as f64;
        let centered: Vec<f64> = signal.iter().map(|&x| x - mean).collect();
        let r = autocorrelation(&signal);
        let r0: f64 = centered.iter().map(|&x| x * x).sum();
        for k in 0..n {
            let direct: f64 = (0..n - k).map(|t| centered[t] * centered[t + k]).sum();
            assert!((r[k] - direct / r0).abs() < 1e-9, "lag {k}: {} vs {}", r[k], direct / r0);
        }
    }
}
