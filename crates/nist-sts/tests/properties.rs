//! Property-based tests of the statistical suite: p-values are always
//! probabilities, preconditions hold, and the math substrate behaves
//! monotonically.

use nist_sts::special::{erfc, igamc, ln_gamma, normal_cdf};
use nist_sts::{Bits, NistSuite};
use proptest::prelude::*;

fn splitmix_bits(n: usize, seed: u64) -> Bits {
    let mut state = seed;
    Bits::from_fn(n, |_| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & 1 == 1
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every applicable test returns p-values in [0,1] on arbitrary
    /// random-looking streams of arbitrary (sufficient) length.
    #[test]
    fn p_values_are_probabilities(seed in any::<u64>(), extra in 0usize..5000) {
        let bits = splitmix_bits(120_000 + extra, seed);
        let report = NistSuite::default().run(&bits);
        for outcome in &report.outcomes {
            if let Ok(r) = &outcome.result {
                for &p in r.p_values() {
                    prop_assert!((0.0..=1.0).contains(&p), "{}: p = {p}", outcome.name);
                }
            }
        }
    }

    /// Splitmix streams pass the quick tests at alpha = 1e-6 for any
    /// seed (an ideal source essentially never produces p < 1e-6 on a
    /// handful of tests).
    #[test]
    fn ideal_streams_pass_quick_tests(seed in any::<u64>()) {
        let bits = splitmix_bits(20_000, seed);
        prop_assert!(nist_sts::monobit::test(&bits).unwrap().passed(1e-6));
        prop_assert!(nist_sts::runs::test(&bits).unwrap().passed(1e-6));
        prop_assert!(nist_sts::serial::test(&bits).unwrap().passed(1e-6));
    }

    /// erfc is monotone decreasing and bounded in (0, 2]. The exact
    /// value never reaches 2, but below x ≈ −5.86 it lies within half
    /// an ulp of 2, so the correctly rounded `f64` is 2.0.
    #[test]
    fn erfc_monotone(x in -6.0f64..6.0, dx in 0.001f64..2.0) {
        let a = erfc(x);
        let b = erfc(x + dx);
        prop_assert!(b <= a + 1e-12);
        prop_assert!(a > 0.0 && a <= 2.0);
    }

    /// The normal CDF is a CDF: monotone, symmetric, bounded.
    #[test]
    fn normal_cdf_properties(x in -8.0f64..8.0) {
        let p = normal_cdf(x);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-10);
        prop_assert!(normal_cdf(x + 0.1) >= p);
    }

    /// igamc is a survival function in x and ln_gamma satisfies the
    /// recurrence ln Γ(x+1) = ln Γ(x) + ln x.
    #[test]
    fn gamma_identities(a in 0.5f64..30.0, x in 0.0f64..60.0) {
        let q = igamc(a, x);
        prop_assert!((0.0..=1.0).contains(&q));
        prop_assert!(igamc(a, x + 0.5) <= q + 1e-12);
        let lhs = ln_gamma(a + 1.0);
        let rhs = ln_gamma(a) + a.ln();
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    /// Bits byte round trips for all inputs (whole bytes).
    #[test]
    fn bits_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(Bits::from_bytes_msb(&bytes).to_bytes_msb(), bytes);
    }

    /// Linear complexity never exceeds the sequence length and is
    /// invariant under appending a generated continuation... at minimum
    /// it is monotone in prefix length.
    #[test]
    fn linear_complexity_bounds(seed in any::<u64>(), n in 1usize..128) {
        let bits = splitmix_bits(n, seed);
        let seq: Vec<u8> = bits.iter().collect();
        let l = nist_sts::berlekamp::linear_complexity(&seq);
        prop_assert!(l <= n);
        if n > 4 {
            let l_prefix = nist_sts::berlekamp::linear_complexity(&seq[..n - 1]);
            prop_assert!(l >= l_prefix);
        }
    }

    /// GF(2) rank is bounded by both dimensions and XOR-ing one row
    /// into another never changes it.
    #[test]
    fn rank_invariants(rows in proptest::collection::vec(any::<u64>(), 1..24), i in 0usize..24, j in 0usize..24) {
        use nist_sts::rank_gf2::rank_gf2;
        let r = rank_gf2(&rows, 64);
        prop_assert!(r <= rows.len().min(64));
        let (i, j) = (i % rows.len(), j % rows.len());
        if i != j {
            let mut modified = rows.clone();
            modified[i] ^= rows[j];
            prop_assert_eq!(rank_gf2(&modified, 64), r, "row operation preserves rank");
        }
    }
}
