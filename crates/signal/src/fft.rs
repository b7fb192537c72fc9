//! Complex arithmetic and an iterative radix-2 Cooley–Tukey FFT.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number with `f64` parts.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct from parts.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Zero.
    #[inline]
    pub fn zero() -> Self {
        Complex { re: 0.0, im: 0.0 }
    }

    /// `e^(iθ)`.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex { re: self.re, im: -self.im }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Next power of two ≥ `n` (and ≥ 1).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place forward FFT. `data.len()` must be a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT (including the `1/N` normalization).
pub fn ifft_in_place(data: &mut [Complex]) {
    transform(data, true);
    let n = data.len() as f64;
    for v in data.iter_mut() {
        *v = *v * (1.0 / n);
    }
}

fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterfly passes.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_angle(ang);
        // `len` divides the power-of-two `n`, so the blocks tile `data`.
        for block in data.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(len / 2);
            let mut w = Complex::new(1.0, 0.0);
            for (a, b) in lo.iter_mut().zip(hi) {
                let u = *a;
                let v = *b * w;
                *a = u + v;
                *b = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// FFT of a real signal, zero-padded to the next power of two.
/// Returns the full complex spectrum (length = padded size).
pub fn rfft(signal: &[f64]) -> Vec<Complex> {
    let n = next_pow2(signal.len());
    let mut data: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    data.resize(n, Complex::zero());
    fft_in_place(&mut data);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    fn assert_close(a: Complex, b: Complex) {
        assert!((a.re - b.re).abs() < EPS && (a.im - b.im).abs() < EPS, "{a:?} vs {b:?}");
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_close(a + b, Complex::new(4.0, 1.0));
        assert_close(a - b, Complex::new(-2.0, 3.0));
        assert_close(a * b, Complex::new(5.0, 5.0));
        assert_close(a * 2.0, Complex::new(2.0, 4.0));
        assert_close(-a, Complex::new(-1.0, -2.0));
        assert_close(a.conj(), Complex::new(1.0, -2.0));
        assert!((a.abs() - 5.0_f64.sqrt()).abs() < EPS);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::zero(); 8];
        data[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut data);
        for v in data {
            assert_close(v, Complex::new(1.0, 0.0));
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let mut data = vec![Complex::new(1.0, 0.0); 8];
        fft_in_place(&mut data);
        assert_close(data[0], Complex::new(8.0, 0.0));
        for v in &data[1..] {
            assert_close(*v, Complex::zero());
        }
    }

    #[test]
    fn fft_matches_dft_definition() {
        // Compare against the O(n²) DFT on a small arbitrary signal.
        let signal = [1.0, 2.0, -1.5, 0.25, 3.0, -2.0, 0.0, 1.0];
        let spec = rfft(&signal);
        let n = signal.len();
        for (k, got) in spec.iter().enumerate() {
            let mut want = Complex::zero();
            for (t, &x) in signal.iter().enumerate() {
                want += Complex::from_angle(
                    -2.0 * std::f64::consts::PI * k as f64 * t as f64 / n as f64,
                ) * x;
            }
            assert_close(*got, want);
        }
    }

    #[test]
    fn roundtrip_fft_ifft() {
        let original: Vec<Complex> =
            (0..16).map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos())).collect();
        let mut data = original.clone();
        fft_in_place(&mut data);
        ifft_in_place(&mut data);
        for (a, b) in data.iter().zip(&original) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * k as f64 * t as f64 / n as f64).cos())
            .collect();
        let spec = rfft(&signal);
        let mags: Vec<f64> = spec.iter().map(|c| c.abs()).collect();
        let peak = mags.iter().take(n / 2).enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(peak, k);
    }

    #[test]
    fn rfft_pads_to_pow2() {
        assert_eq!(rfft(&[1.0; 5]).len(), 8);
        assert_eq!(rfft(&[]).len(), 1);
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(17), 32);
        assert_eq!(next_pow2(32), 32);
    }

    /// The butterfly passes as they were written before the block
    /// iterators: explicit `i + j` and `i + j + len / 2` indexing.
    fn indexed_transform(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
            if j > i {
                data.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let wlen = Complex::from_angle(sign * 2.0 * std::f64::consts::PI / len as f64);
            let mut i = 0;
            while i < n {
                let mut w = Complex::new(1.0, 0.0);
                for j in 0..len / 2 {
                    let u = data[i + j];
                    let v = data[i + j + len / 2] * w;
                    data[i + j] = u + v;
                    data[i + j + len / 2] = u - v;
                    w = w * wlen;
                }
                i += len;
            }
            len <<= 1;
        }
    }

    fn noisy(n: usize, seed: u64) -> Vec<Complex> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3))).collect()
    }

    fn bits(data: &[Complex]) -> Vec<(u64, u64)> {
        data.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn forward_butterflies_equal_the_indexed_reference_bit_for_bit() {
        for log_n in 0..=11 {
            let n = 1usize << log_n;
            let mut got = noisy(n, log_n);
            let mut want = got.clone();
            fft_in_place(&mut got);
            indexed_transform(&mut want, false);
            assert_eq!(bits(&got), bits(&want), "n = {n}");
        }
    }

    #[test]
    fn inverse_butterflies_equal_the_indexed_reference_bit_for_bit() {
        for log_n in 0..=11 {
            let n = 1usize << log_n;
            let mut got = noisy(n, 100 + log_n);
            let mut want = got.clone();
            transform(&mut got, true);
            indexed_transform(&mut want, true);
            assert_eq!(bits(&got), bits(&want), "n = {n}");
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        // Σ|x|² = Σ|X|² / N for the unnormalized forward transform.
        for log_n in 1..=10 {
            let n = 1usize << log_n;
            let signal = noisy(n, 200 + log_n);
            let mut spec = signal.clone();
            fft_in_place(&mut spec);
            let time: f64 = signal.iter().map(|c| c.norm2()).sum();
            let freq: f64 = spec.iter().map(|c| c.norm2()).sum::<f64>() / n as f64;
            assert!((time - freq).abs() <= 1e-9 * time, "n = {n}: {time} vs {freq}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_panics() {
        let mut d = vec![Complex::zero(); 6];
        fft_in_place(&mut d);
    }
}
