//! Test 12 — Approximate entropy test (SP 800-22 §2.12).
//!
//! Compares the frequencies of overlapping m-bit and (m+1)-bit patterns:
//! for random data the incremental entropy per extra bit is ln 2.

use crate::bits::Bits;
use crate::error::{require_len, StsError};
use crate::result::TestResult;
use crate::special::igamc;

/// Minimum recommended sequence length.
pub const MIN_BITS: usize = 1000;

/// φ_m statistic: Σ π_i ln π_i over overlapping m-bit pattern
/// frequencies (with wraparound).
fn phi(bits: &Bits, m: usize) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let n = bits.len();
    let mut counts = vec![0u64; 1usize << m];
    let mask = (1usize << m) - 1;
    let mut window = 0usize;
    for i in 0..m {
        window = (window << 1) | bits.bit(i % n) as usize;
    }
    counts[window] += 1;
    for i in 1..n {
        window = ((window << 1) | bits.bit((i + m - 1) % n) as usize) & mask;
        counts[window] += 1;
    }
    let nf = n as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / nf;
            p * p.ln()
        })
        .sum()
}

/// Runs the approximate-entropy test with pattern length `m`.
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] for short sequences and
/// [`StsError::NotApplicable`] if `m` exceeds `log2(n) - 5`.
pub fn test_with_m(bits: &Bits, m: usize) -> Result<TestResult, StsError> {
    require_len("approximate_entropy", MIN_BITS, bits.len())?;
    let max_m = ((bits.len() as f64).log2() - 5.0).floor() as usize;
    if m < 1 || m > max_m {
        return Err(StsError::NotApplicable {
            test: "approximate_entropy",
            reason: format!("m = {m} outside 1..={max_m} for n = {}", bits.len()),
        });
    }
    let n = bits.len() as f64;
    let ap_en = phi(bits, m) - phi(bits, m + 1);
    let chi2 = 2.0 * n * (std::f64::consts::LN_2 - ap_en);
    let p = igamc((1usize << (m - 1)) as f64, chi2 / 2.0);
    Ok(TestResult::single("approximate_entropy", p))
}

/// Runs the approximate-entropy test with the NIST-recommended pattern
/// length for the sequence size (capped at `m = 10`).
///
/// # Errors
///
/// See [`test_with_m`].
pub fn test(bits: &Bits) -> Result<TestResult, StsError> {
    let max_m = ((bits.len() as f64).log2() - 5.0).floor() as usize;
    test_with_m(bits, max_m.clamp(1, 10))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_worked_example_statistic() {
        // SP 800-22 §2.12 worked example: ε = 0100110101 (n = 10),
        // m = 3: φ3 = −1.643418, φ4 = −1.834372, ApEn = 0.190954,
        // chi2 = 2·10·(ln 2 − ApEn) = 10.043859,
        // P-value = igamc(4, chi2/2) = 0.261961.
        let bits = Bits::from_bools([
            false, true, false, false, true, true, false, true, false, true,
        ]);
        let ap_en = phi(&bits, 3) - phi(&bits, 4);
        let chi2 = 2.0 * 10.0 * (std::f64::consts::LN_2 - ap_en);
        let p = igamc(4.0, chi2 / 2.0);
        assert!((ap_en - 0.19095425).abs() < 1e-7, "ApEn = {ap_en}");
        assert!((p - 0.2619611).abs() < 1e-6, "p = {p}");
    }

    #[test]
    fn random_bits_pass() {
        let mut x = 0xFEED_BEEFu64;
        let bits = Bits::from_fn(50_000, |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        });
        assert!(test(&bits).unwrap().passed(0.01));
    }

    #[test]
    fn periodic_bits_fail() {
        let bits = Bits::from_fn(50_000, |i| i % 4 < 2);
        assert!(!test(&bits).unwrap().passed(0.01));
    }

    #[test]
    fn rejects_oversized_m() {
        let bits = Bits::from_fn(2000, |i| i % 2 == 0);
        assert!(test_with_m(&bits, 15).is_err());
    }

    #[test]
    fn phi_zero_for_m_zero() {
        let bits = Bits::from_fn(100, |i| i % 2 == 0);
        assert_eq!(phi(&bits, 0), 0.0);
    }
}
