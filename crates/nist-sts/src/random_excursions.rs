//! Test 14 — Random excursions test (SP 800-22 §2.14).
//!
//! Views the sequence as a random walk and checks, for each state
//! x ∈ {±1..±4}, the distribution of the number of visits to x per
//! zero-to-zero cycle. Produces 8 p-values.

use crate::bits::Bits;
use crate::error::{require_len, StsError};
use crate::result::TestResult;
use crate::special::igamc;

/// Minimum recommended sequence length.
pub const MIN_BITS: usize = 100_000;
/// Minimum number of cycles for the chi-square approximation.
pub const MIN_CYCLES: usize = 500;

/// The states examined.
pub const STATES: [i32; 8] = [-4, -3, -2, -1, 1, 2, 3, 4];

/// Theoretical probability that a cycle visits state `x` exactly `k`
/// times (k = 5 means "5 or more"), SP 800-22 §3.14.
pub fn pi_k(x: i32, k: usize) -> f64 {
    let ax = x.abs() as f64;
    match k {
        0 => 1.0 - 1.0 / (2.0 * ax),
        1..=4 => (1.0 / (4.0 * ax * ax)) * (1.0 - 1.0 / (2.0 * ax)).powi(k as i32 - 1),
        _ => (1.0 / (2.0 * ax)) * (1.0 - 1.0 / (2.0 * ax)).powi(4),
    }
}

/// Splits the walk into zero-to-zero cycles and counts per-cycle visits.
/// Returns `(J, visits[state][k])` where k = 0..=5.
fn cycle_visit_counts(bits: &Bits) -> (usize, [[u64; 6]; 8]) {
    let mut counts = [[0u64; 6]; 8];
    let mut j = 0usize;
    let mut sum: i64 = 0;
    // Per-cycle visit counters for each of the 8 states.
    let mut visits = [0u64; 8];
    let close_cycle = |visits: &mut [u64; 8], counts: &mut [[u64; 6]; 8]| {
        for (s, v) in visits.iter_mut().enumerate() {
            counts[s][(*v).min(5) as usize] += 1;
            *v = 0;
        }
    };
    for i in 0..bits.len() {
        sum += bits.pm1(i);
        if sum == 0 {
            j += 1;
            close_cycle(&mut visits, &mut counts);
        } else if let Some(idx) = state_index(sum) {
            visits[idx] += 1;
        }
    }
    if sum != 0 {
        // The walk is closed with a final virtual return to zero.
        j += 1;
        close_cycle(&mut visits, &mut counts);
    }
    (j, counts)
}

fn state_index(s: i64) -> Option<usize> {
    match s {
        -4 => Some(0),
        -3 => Some(1),
        -2 => Some(2),
        -1 => Some(3),
        1 => Some(4),
        2 => Some(5),
        3 => Some(6),
        4 => Some(7),
        _ => None,
    }
}

/// Runs the random excursions test (8 p-values, one per state).
///
/// # Errors
///
/// Returns [`StsError::InsufficientData`] for short sequences and
/// [`StsError::NotApplicable`] when the walk has fewer than
/// [`MIN_CYCLES`] cycles.
pub fn test(bits: &Bits) -> Result<TestResult, StsError> {
    require_len("random_excursion", MIN_BITS, bits.len())?;
    let (j, counts) = cycle_visit_counts(bits);
    if j < MIN_CYCLES {
        return Err(StsError::NotApplicable {
            test: "random_excursion",
            reason: format!("only {j} cycles, need {MIN_CYCLES}"),
        });
    }
    let jf = j as f64;
    let mut p_values = Vec::with_capacity(8);
    for (&x, visits) in STATES.iter().zip(&counts) {
        let mut chi2 = 0.0;
        for (k, &v) in visits.iter().enumerate() {
            let expect = jf * pi_k(x, k);
            chi2 += (v as f64 - expect) * (v as f64 - expect) / expect;
        }
        p_values.push(igamc(5.0 / 2.0, chi2 / 2.0));
    }
    Ok(TestResult::multi("random_excursion", p_values))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::testutil::rng_bits as xorshift_bits;

    #[test]
    fn pi_rows_sum_to_one() {
        for x in STATES {
            let sum: f64 = (0..6).map(|k| pi_k(x, k)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "x = {x}, sum = {sum}");
        }
    }

    #[test]
    fn nist_example_cycle_structure() {
        // SP 800-22 §2.14.4: ε = 0110110101 gives the walk
        // -1,0,1,0,1,2,1,2,1,0 (then close): J = 3 cycles.
        let bits = Bits::from_bools([
            false, true, true, false, true, true, false, true, false, true,
        ]);
        let (j, counts) = cycle_visit_counts(&bits);
        assert_eq!(j, 3);
        // State +1 is visited 4 times total: cycle1 {-1}: 0 visits of +1;
        // cycle2 {1}: 1 visit; cycle3 {1,2,1,2,1}: 3 visits.
        let idx_plus1 = 4;
        assert_eq!(counts[idx_plus1][0], 1); // one cycle with zero visits
        assert_eq!(counts[idx_plus1][1], 1); // one cycle with one visit
        assert_eq!(counts[idx_plus1][3], 1); // one cycle with three visits
    }

    #[test]
    fn random_bits_pass() {
        let bits = xorshift_bits(1_000_000, 0xBEEF);
        let r = test(&bits).unwrap();
        assert_eq!(r.p_values().len(), 8);
        assert!(r.passed(1e-4), "min p = {}", r.min_p());
    }

    #[test]
    fn drifting_walk_is_not_applicable() {
        // A biased sequence rarely returns to zero -> too few cycles.
        let bits = Bits::from_fn(200_000, |i| i % 3 != 0);
        assert!(matches!(test(&bits), Err(StsError::NotApplicable { .. })));
    }

    #[test]
    fn too_short_is_error() {
        assert!(test(&Bits::from_fn(1000, |_| true)).is_err());
    }
}
