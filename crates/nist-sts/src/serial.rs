//! Test 11 — Serial test (SP 800-22 §2.11).
//!
//! Tests the uniformity of overlapping m-bit patterns (with wraparound):
//! every m-bit pattern should appear about equally often.

use crate::bits::Bits;
use crate::error::{require_len, StsError};
use crate::result::TestResult;
use crate::special::igamc;

/// Minimum recommended sequence length for the default block length.
pub const MIN_BITS: usize = 1000;

/// ψ²_m statistic: the generalized chi-square over overlapping m-bit
/// pattern frequencies (with wraparound). ψ²_0 is defined as 0.
fn psi_squared(bits: &Bits, m: usize) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let n = bits.len();
    let mut counts = vec![0u64; 1usize << m];
    let mask = (1usize << m) - 1;
    // Build the first m-bit window.
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
    let sum_sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    (1usize << m) as f64 / nf * sum_sq - nf
}

/// Runs the serial test with pattern length `m` (two p-values).
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] if the sequence is shorter
/// than [`MIN_BITS`] or `m` is too large for the sequence
/// (NIST requires `m < log2(n) - 2`).
pub fn test_with_m(bits: &Bits, m: usize) -> Result<TestResult, StsError> {
    require_len("serial", MIN_BITS, bits.len())?;
    let max_m = ((bits.len() as f64).log2() - 2.0).floor() as usize;
    if m < 2 || m > max_m {
        return Err(StsError::NotApplicable {
            test: "serial",
            reason: format!("m = {m} outside 2..={max_m} for n = {}", bits.len()),
        });
    }
    let psi_m = psi_squared(bits, m);
    let psi_m1 = psi_squared(bits, m - 1);
    let psi_m2 = psi_squared(bits, m.saturating_sub(2));
    let d1 = psi_m - psi_m1;
    let d2 = psi_m - 2.0 * psi_m1 + psi_m2;
    let p1 = igamc((1usize << (m - 1)) as f64 / 2.0, d1 / 2.0);
    let p2 = igamc((1usize << (m - 2)) as f64 / 2.0, d2 / 2.0);
    Ok(TestResult::multi("serial", vec![p1, p2]))
}

/// Runs the serial test with the NIST-recommended block length for the
/// sequence size (`m = 16` for megabit sequences, smaller otherwise).
///
/// # Errors
///
/// See [`test_with_m`].
pub fn test(bits: &Bits) -> Result<TestResult, StsError> {
    let max_m = ((bits.len() as f64).log2() - 2.0).floor() as usize;
    test_with_m(bits, max_m.clamp(2, 16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_worked_example() {
        // SP 800-22 §2.11.4: ε = 0011011101 (n = 10), m = 3:
        // ψ²_3 = 2.8, ψ²_2 = 1.2, ψ²_1 = 0.4,
        // ∇ψ² = 1.6, ∇²ψ² = 0.8,
        // P1 = igamc(2, 0.8) = 0.808792, P2 = igamc(1, 0.4) = 0.670320.
        let bits = Bits::from_bools([
            false, false, true, true, false, true, true, true, false, true,
        ]);
        let psi3 = psi_squared(&bits, 3);
        let psi2 = psi_squared(&bits, 2);
        let psi1 = psi_squared(&bits, 1);
        assert!((psi3 - 2.8).abs() < 1e-9, "psi3 = {psi3}");
        assert!((psi2 - 1.2).abs() < 1e-9, "psi2 = {psi2}");
        assert!((psi1 - 0.4).abs() < 1e-9, "psi1 = {psi1}");
        let p1 = igamc(4.0 / 2.0, (psi3 - psi2) / 2.0);
        let p2 = igamc(2.0 / 2.0, (psi3 - 2.0 * psi2 + psi1) / 2.0);
        assert!((p1 - 0.808792).abs() < 1e-5, "p1 = {p1}");
        assert!((p2 - 0.670320).abs() < 1e-5, "p2 = {p2}");
    }

    #[test]
    fn random_bits_pass() {
        let mut x = 0x7777_1234u64;
        let bits = Bits::from_fn(100_000, |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        });
        assert!(test(&bits).unwrap().passed(0.01));
    }

    #[test]
    fn periodic_bits_fail() {
        let bits = Bits::from_fn(100_000, |i| i % 3 == 0);
        assert!(!test(&bits).unwrap().passed(0.01));
    }

    #[test]
    fn rejects_out_of_range_m() {
        let bits = Bits::from_fn(2000, |i| i % 2 == 0);
        assert!(test_with_m(&bits, 1).is_err());
        assert!(test_with_m(&bits, 20).is_err());
    }

    #[test]
    fn psi_of_zero_m_is_zero() {
        let bits = Bits::from_fn(100, |i| i % 2 == 0);
        assert_eq!(psi_squared(&bits, 0), 0.0);
    }
}
