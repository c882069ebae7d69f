//! Test 10 — Linear complexity test (SP 800-22 §2.10).
//!
//! Computes the Berlekamp–Massey linear complexity of M-bit blocks;
//! random data has complexity tightly concentrated near M/2.

use crate::berlekamp::linear_complexity;
use crate::bits::Bits;
use crate::error::{require_len, StsError};
use crate::result::TestResult;
use crate::special::igamc;

/// Block length (NIST recommends 500 <= M <= 5000).
pub const BLOCK_LEN: usize = 500;
/// Number of chi-square categories - 1 (K = 6).
pub const K: usize = 6;
/// Minimum recommended sequence length (N >= 200 blocks at M = 500
/// would be 10^5; NIST's formal requirement is n >= 10^6, but the test
/// is well-defined from ~200 blocks).
pub const MIN_BITS: usize = 100_000;

/// Category probabilities π₀..π₆ (SP 800-22 §3.10).
pub const PI: [f64; 7] = [0.010417, 0.03125, 0.125, 0.5, 0.25, 0.0625, 0.020833];

/// Runs the linear-complexity test with block length `m`.
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] for short sequences and
/// [`StsError::NotApplicable`] for out-of-range `m`.
pub fn test_with_block(bits: &Bits, m: usize) -> Result<TestResult, StsError> {
    require_len("linear_complexity", MIN_BITS, bits.len())?;
    if !(500..=5000).contains(&m) {
        return Err(StsError::NotApplicable {
            test: "linear_complexity",
            reason: format!("block length {m} outside 500..=5000"),
        });
    }
    let n_blocks = bits.len() / m;
    let mf = m as f64;
    // Theoretical mean complexity of a random M-bit block.
    let sign = if m.is_multiple_of(2) { 1.0 } else { -1.0 };
    let mu = mf / 2.0 + (9.0 - sign) / 36.0 - (mf / 3.0 + 2.0 / 9.0) / 2f64.powf(mf);
    let mut nu = [0u64; K + 1];
    for b in 0..n_blocks {
        let block: Vec<u8> = (b * m..(b + 1) * m).map(|i| bits.bit(i)).collect();
        let l = linear_complexity(&block) as f64;
        let t = sign * (l - mu) + 2.0 / 9.0;
        let cat = if t <= -2.5 {
            0
        } else if t <= -1.5 {
            1
        } else if t <= -0.5 {
            2
        } else if t <= 0.5 {
            3
        } else if t <= 1.5 {
            4
        } else if t <= 2.5 {
            5
        } else {
            6
        };
        nu[cat] += 1;
    }
    let mut chi2 = 0.0;
    for (i, &count) in nu.iter().enumerate() {
        let expect = n_blocks as f64 * PI[i];
        chi2 += (count as f64 - expect) * (count as f64 - expect) / expect;
    }
    let p = igamc(K as f64 / 2.0, chi2 / 2.0);
    Ok(TestResult::single("linear_complexity", p))
}

/// Runs the linear-complexity test with the default block length.
///
/// # Errors
///
/// See [`test_with_block`].
pub fn test(bits: &Bits) -> Result<TestResult, StsError> {
    test_with_block(bits, BLOCK_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::testutil::rng_bits as xorshift_bits;

    #[test]
    fn pi_sums_to_one() {
        let sum: f64 = PI.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn random_bits_pass() {
        let bits = xorshift_bits(200_000, 0xD15EA5E);
        assert!(test(&bits).unwrap().passed(0.01));
    }

    #[test]
    fn lfsr_output_fails() {
        // A short LFSR (x^16 + x^14 + x^13 + x^11 + 1): complexity 16
        // everywhere instead of ~250.
        let mut reg = 0xACE1u16;
        let bits = Bits::from_fn(200_000, |_| {
            let bit = (reg ^ (reg >> 2) ^ (reg >> 3) ^ (reg >> 5)) & 1;
            reg = (reg >> 1) | (bit << 15);
            bit == 1
        });
        let r = test(&bits).unwrap();
        assert!(r.p_values()[0] < 1e-10);
    }

    #[test]
    fn rejects_bad_block() {
        let bits = xorshift_bits(200_000, 1);
        assert!(test_with_block(&bits, 100).is_err());
        assert!(test_with_block(&bits, 10_000).is_err());
    }

    #[test]
    fn too_short_is_error() {
        assert!(test(&Bits::from_fn(1000, |_| true)).is_err());
    }
}
