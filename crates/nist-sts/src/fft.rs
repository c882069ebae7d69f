//! Iterative radix-2 complex FFT (for the spectral test).

use std::f64::consts::PI;

/// A complex number (minimal, local to the FFT).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructs a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    fn mul(self, other: Complex) -> Complex {
        Complex {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    fn add(self, other: Complex) -> Complex {
        Complex {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    fn sub(self, other: Complex) -> Complex {
        Complex {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }
}

/// In-place iterative Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterfly stages.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * PI / len as f64;
        let wlen = Complex::new(ang.cos(), ang.sin());
        for start in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = data[start + k + len / 2].mul(w);
                data[start + k] = u.add(v);
                data[start + k + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
        }
        len <<= 1;
    }
}

/// Magnitudes of the first `n/2` DFT coefficients of a real signal,
/// computed by zero-padding to the next power of two as the NIST
/// reference implementation does not: NIST requires truncation to the
/// largest usable length instead, so we evaluate the DFT of exactly the
/// signal given, padding only when the length is already a power of two.
///
/// For test purposes we expose the plain power-of-two FFT; callers are
/// responsible for choosing a power-of-two length (the spectral test
/// truncates its input).
pub fn real_fft_magnitudes(signal: &[f64]) -> Vec<f64> {
    let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
    fft_in_place(&mut buf);
    buf.iter().take(signal.len() / 2).map(|c| c.abs()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 8];
        data[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut data);
        for c in &data {
            assert!((c.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let mut data = vec![Complex::new(1.0, 0.0); 16];
        fft_in_place(&mut data);
        assert!((data[0].re - 16.0).abs() < 1e-12);
        for c in &data[1..] {
            assert!(c.abs() < 1e-10);
        }
    }

    #[test]
    fn fft_matches_naive_dft() {
        let signal: Vec<f64> = (0..32).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let mags = real_fft_magnitudes(&signal);
        for (k, &m) in mags.iter().enumerate() {
            let mut re = 0.0;
            let mut im = 0.0;
            for (t, &x) in signal.iter().enumerate() {
                let ang = -2.0 * PI * (k * t) as f64 / signal.len() as f64;
                re += x * ang.cos();
                im += x * ang.sin();
            }
            assert!((m - re.hypot(im)).abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let signal: Vec<f64> = (0..64)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::new(x, 0.0)).collect();
        fft_in_place(&mut buf);
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 =
            buf.iter().map(|c| c.abs() * c.abs()).sum::<f64>() / signal.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut data = vec![Complex::default(); 12];
        fft_in_place(&mut data);
    }

    #[test]
    fn single_cosine_concentrates_energy() {
        let n = 256;
        let f = 16;
        let signal: Vec<f64> = (0..n)
            .map(|t| (2.0 * PI * (f * t) as f64 / n as f64).cos())
            .collect();
        let mags = real_fft_magnitudes(&signal);
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, f);
    }
}
