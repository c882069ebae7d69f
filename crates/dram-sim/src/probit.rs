//! Fast bounded-error complementary-error-function / probit kernel for
//! the sensing fast path.
//!
//! [`crate::math::erfc`] is built for *accuracy anywhere* (Taylor series
//! plus a Lentz continued fraction) and costs hundreds of flops per
//! call; the sense hot path needs one Φ evaluation per stochastic cell
//! per resolve. This module supplies W. J. Cody's rational-minimax
//! `erfc` (the classic CALERF/W. Fullerton coefficient set, relative
//! error below 1.2·10⁻¹⁶ over the whole range), which costs a fixed
//! ~20 flops.
//!
//! Contract, enforced by the unit tests against `math::erfc`:
//!
//! * relative error < 1e-12 wherever `erfc(x) > 1e-300` (far tighter
//!   than the 1e-9 the cache design budgets for);
//! * the *saturation structure* matches the exact path: negative
//!   arguments are computed as `2 - fast_erfc(-x)`, exactly like
//!   `math::erfc`, so `p == 1.0` (the no-draw branch of a Bernoulli
//!   sampler) happens at the same argument magnitudes up to sub-ulp
//!   coefficient differences, and the deep positive tail underflows to
//!   `0.0` through the same `exp(-x²)` factor.

/// 1/√π, to full f64 precision (CALERF's `SQRPI`).
const SQRPI: f64 = 5.641_895_835_477_563e-1;

/// Switch point between the erf series region and the mid rational.
const THRESH: f64 = 0.46875;

/// Cody coefficients for erf on |x| ≤ 0.46875 (`A`/`B` arrays).
const A: [f64; 5] = [
    3.161_123_743_870_565_6e0,
    1.138_641_541_510_501_6e2,
    3.774_852_376_853_02e2,
    3.209_377_589_138_469_4e3,
    1.857_777_061_846_031_5e-1,
];
const B: [f64; 4] = [
    2.360_129_095_234_412_2e1,
    2.440_246_379_344_441_7e2,
    1.282_616_526_077_372_3e3,
    2.844_236_833_439_171e3,
];

/// Cody coefficients for erfc on 0.46875 ≤ x ≤ 4 (`C`/`D` arrays).
const C: [f64; 9] = [
    5.641_884_969_886_701e-1,
    8.883_149_794_388_377,
    6.611_919_063_714_163e1,
    2.986_351_381_974_001e2,
    8.819_522_212_417_69e2,
    1.712_047_612_634_070_7e3,
    2.051_078_377_826_071_6e3,
    1.230_339_354_797_997_2e3,
    2.153_115_354_744_038_3e-8,
];
const D: [f64; 8] = [
    1.574_492_611_070_983_5e1,
    1.176_939_508_913_125e2,
    5.371_811_018_620_099e2,
    1.621_389_574_566_690_3e3,
    3.290_799_235_733_459_7e3,
    4.362_619_090_143_247e3,
    3.439_367_674_143_721_6e3,
    1.230_339_354_803_749_5e3,
];

/// Cody coefficients for the erfc asymptotic region x > 4 (`P`/`Q`).
const P: [f64; 6] = [
    3.053_266_349_612_323_6e-1,
    3.603_448_999_498_044_5e-1,
    1.257_817_261_112_292_6e-1,
    1.608_378_514_874_227_5e-2,
    6.587_491_615_298_378e-4,
    1.631_538_713_730_209_7e-2,
];
const Q: [f64; 5] = [
    2.568_520_192_289_822,
    1.872_952_849_923_460_4,
    5.279_051_029_514_285e-1,
    6.051_834_131_244_132e-2,
    2.335_204_976_268_691_8e-3,
];

/// erf(x) for |x| ≤ [`THRESH`] (Cody region 1).
fn erf_small(x: f64) -> f64 {
    let z = x * x;
    let mut xnum = A[4] * z;
    let mut xden = z;
    for i in 0..3 {
        xnum = (xnum + A[i]) * z;
        xden = (xden + B[i]) * z;
    }
    x * (xnum + A[3]) / (xden + B[3])
}

/// erfc(y) for [`THRESH`] ≤ y ≤ 4 (Cody region 2).
fn erfc_mid(y: f64) -> f64 {
    let mut xnum = C[8] * y;
    let mut xden = y;
    for i in 0..7 {
        xnum = (xnum + C[i]) * y;
        xden = (xden + D[i]) * y;
    }
    ((xnum + C[7]) / (xden + D[7])) * (-y * y).exp()
}

/// erfc(y) for y > 4 (Cody region 3, asymptotic in 1/y²).
fn erfc_tail(y: f64) -> f64 {
    let z = 1.0 / (y * y);
    let mut xnum = P[5] * z;
    let mut xden = z;
    for i in 0..4 {
        xnum = (xnum + P[i]) * z;
        xden = (xden + Q[i]) * z;
    }
    let r = z * (xnum + P[4]) / (xden + Q[4]);
    ((SQRPI - r) / y) * (-y * y).exp()
}

/// erfc(y) for y ≥ 0: the region dispatch both the scalar and the
/// lane kernels share, so every lane evaluates the exact expression
/// tree the scalar path would.
#[inline]
fn erfc_nonneg(y: f64) -> f64 {
    if y <= THRESH {
        1.0 - erf_small(y)
    } else if y <= 4.0 {
        erfc_mid(y)
    } else {
        erfc_tail(y)
    }
}

/// The complementary error function, rational-minimax approximation.
///
/// Drop-in accelerated companion of [`crate::math::erfc`]; see the
/// module docs for the accuracy and saturation contract.
pub fn fast_erfc(x: f64) -> f64 {
    if x < 0.0 {
        // Mirror math::erfc's reflection so both implementations
        // saturate to exactly 2.0 at the same argument magnitudes.
        return 2.0 - erfc_nonneg(-x);
    }
    erfc_nonneg(x)
}

/// Standard normal CDF via [`fast_erfc`] — the fast companion of
/// [`crate::math::phi`], sharing its `0.5 * erfc(-x/√2)` structure.
pub fn fast_phi(x: f64) -> f64 {
    0.5 * fast_erfc(-x / std::f64::consts::SQRT_2)
}

// ----------------------------------------------------------------------
// Explicit-width lane kernels.
//
// The bulk resolve path (SenseCache::resolve_words) evaluates Φ over a
// structure-of-arrays margin buffer four lanes at a time. Each lane
// performs *exactly* the floating-point operation sequence of the
// scalar functions above — same coefficients, same association order,
// same region dispatch — so the results are bit-identical to the
// scalar path by construction (no cross-lane arithmetic exists that
// could reassociate anything). When the four lanes fall into one Cody
// region the polynomial loops run over `[f64; LANES]` operands, which
// the compiler keeps in vector registers; mixed-region groups fall
// back to four scalar evaluations.
// ----------------------------------------------------------------------

/// Lane width of [`fast_erfc4`] / [`fast_phi4`].
pub const LANES: usize = 4;

/// Cody region of a non-negative argument: 0 = erf series,
/// 1 = mid rational, 2 = asymptotic tail.
#[inline]
fn region(y: f64) -> u8 {
    if y <= THRESH {
        0
    } else if y <= 4.0 {
        1
    } else {
        2
    }
}

/// Four-lane [`erf_small`].
#[inline]
fn erf_small4(y: [f64; LANES]) -> [f64; LANES] {
    let mut z = [0.0; LANES];
    for l in 0..LANES {
        z[l] = y[l] * y[l];
    }
    let mut xnum = [0.0; LANES];
    let mut xden = z;
    for l in 0..LANES {
        xnum[l] = A[4] * z[l];
    }
    for i in 0..3 {
        for l in 0..LANES {
            xnum[l] = (xnum[l] + A[i]) * z[l];
        }
        for l in 0..LANES {
            xden[l] = (xden[l] + B[i]) * z[l];
        }
    }
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        out[l] = y[l] * (xnum[l] + A[3]) / (xden[l] + B[3]);
    }
    out
}

/// Four-lane [`erfc_mid`].
#[inline]
fn erfc_mid4(y: [f64; LANES]) -> [f64; LANES] {
    let mut xnum = [0.0; LANES];
    let mut xden = y;
    for l in 0..LANES {
        xnum[l] = C[8] * y[l];
    }
    for i in 0..7 {
        for l in 0..LANES {
            xnum[l] = (xnum[l] + C[i]) * y[l];
        }
        for l in 0..LANES {
            xden[l] = (xden[l] + D[i]) * y[l];
        }
    }
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        out[l] = ((xnum[l] + C[7]) / (xden[l] + D[7])) * (-y[l] * y[l]).exp();
    }
    out
}

/// Four-lane [`erfc_tail`].
#[inline]
fn erfc_tail4(y: [f64; LANES]) -> [f64; LANES] {
    let mut z = [0.0; LANES];
    for l in 0..LANES {
        z[l] = 1.0 / (y[l] * y[l]);
    }
    let mut xnum = [0.0; LANES];
    let mut xden = z;
    for l in 0..LANES {
        xnum[l] = P[5] * z[l];
    }
    for i in 0..4 {
        for l in 0..LANES {
            xnum[l] = (xnum[l] + P[i]) * z[l];
        }
        for l in 0..LANES {
            xden[l] = (xden[l] + Q[i]) * z[l];
        }
    }
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        let r = z[l] * (xnum[l] + P[4]) / (xden[l] + Q[4]);
        out[l] = ((SQRPI - r) / y[l]) * (-y[l] * y[l]).exp();
    }
    out
}

/// Four-lane [`fast_erfc`]: bit-identical to four scalar calls.
pub fn fast_erfc4(x: [f64; LANES]) -> [f64; LANES] {
    let mut y = [0.0; LANES];
    for l in 0..LANES {
        y[l] = x[l].abs();
    }
    let r0 = region(y[0]);
    let uniform = region(y[1]) == r0 && region(y[2]) == r0 && region(y[3]) == r0;
    let mut out = if uniform {
        match r0 {
            0 => {
                let e = erf_small4(y);
                let mut o = [0.0; LANES];
                for l in 0..LANES {
                    o[l] = 1.0 - e[l];
                }
                o
            }
            1 => erfc_mid4(y),
            _ => erfc_tail4(y),
        }
    } else {
        let mut o = [0.0; LANES];
        for l in 0..LANES {
            o[l] = erfc_nonneg(y[l]);
        }
        o
    };
    for l in 0..LANES {
        if x[l] < 0.0 {
            // Same reflection as the scalar path (NaN and -0.0 lanes
            // fall through unreflected there too, since `x < 0.0` is
            // false for both).
            out[l] = 2.0 - out[l];
        }
    }
    out
}

/// Four-lane [`fast_phi`]: bit-identical to four scalar calls.
pub fn fast_phi4(x: [f64; LANES]) -> [f64; LANES] {
    let mut a = [0.0; LANES];
    for l in 0..LANES {
        a[l] = -x[l] / std::f64::consts::SQRT_2;
    }
    let e = fast_erfc4(a);
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        out[l] = 0.5 * e[l];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{erfc, phi};

    /// Dense sweep of the arguments the failure model can produce:
    /// margin·inv_sigma/√2 with margins in ±0.2 V and inv_sigma = 50
    /// lands |x| ≲ 8; probe far beyond to cover custom profiles.
    fn sweep() -> impl Iterator<Item = f64> {
        (-2600..=2600).map(|i| i as f64 * 0.01)
    }

    #[test]
    fn matches_reference_erfc_to_1e12_where_p_matters() {
        for x in sweep() {
            let exact = erfc(x);
            if exact < 1e-300 {
                continue;
            }
            let fast = fast_erfc(x);
            let rel = ((fast - exact) / exact).abs();
            assert!(
                rel < 1e-12,
                "erfc({x}): fast {fast:e} vs exact {exact:e}, rel {rel:e}"
            );
        }
    }

    #[test]
    fn phi_matches_reference() {
        for x in sweep() {
            let exact = phi(x);
            let fast = fast_phi(x);
            if exact > 1e-300 {
                let rel = ((fast - exact) / exact).abs();
                assert!(rel < 1e-12, "phi({x}): {fast:e} vs {exact:e}");
            } else {
                assert!(fast <= 1e-300, "phi({x}) deep tail: {fast:e}");
            }
        }
    }

    #[test]
    fn saturation_boundaries_agree_with_reference() {
        // A Bernoulli sampler draws no uniform when p <= 0 or p >= 1,
        // so the *saturation points* of the two implementations must
        // coincide or the fast path would desynchronize the noise
        // stream. Check p == 1.0 and p == 0.0 classification across
        // the sweep.
        for x in sweep() {
            assert_eq!(
                fast_phi(x) >= 1.0,
                phi(x) >= 1.0,
                "p==1 saturation split at {x}"
            );
            assert_eq!(
                fast_phi(x) <= 0.0,
                phi(x) <= 0.0,
                "p==0 saturation split at {x}"
            );
        }
    }

    #[test]
    fn known_values() {
        assert!((fast_erfc(0.0) - 1.0).abs() < 1e-15);
        assert!((fast_erfc(5.0) - 1.537_459_794_428_034_8e-12).abs() < 1e-24);
        let e10 = fast_erfc(10.0);
        assert!(((e10 - 2.088_487_583_762_544_7e-45) / 2.088_487_583_762_544_7e-45).abs() < 1e-12);
    }

    #[test]
    fn reflection_is_exact() {
        // The identity holds bitwise in the direction the code applies
        // it: a negative argument is answered as `2 − erfc(|x|)`. (The
        // converse direction is not bitwise: once `2 − tiny` rounds to
        // exactly 2.0, the tiny tail value cannot be recovered from it.)
        for x in sweep().filter(|x| *x >= 0.0) {
            let lhs = fast_erfc(-x);
            let rhs = 2.0 - fast_erfc(x);
            assert_eq!(lhs.to_bits(), rhs.to_bits(), "reflection at {x}");
        }
    }

    #[test]
    fn monotone_decreasing_on_grid() {
        let mut prev = f64::INFINITY;
        for x in sweep() {
            let v = fast_erfc(x);
            assert!(v <= prev, "erfc must not increase at {x}");
            prev = v;
        }
    }

    #[test]
    fn lane_erfc_is_bitwise_scalar_on_sweep() {
        // Consecutive sweep points land in the same region most of the
        // time (the vector path) but every region boundary produces a
        // mixed group (the scalar fallback) — both paths must be
        // bit-identical to four scalar calls.
        let xs: Vec<f64> = sweep().collect();
        for g in xs.chunks_exact(LANES) {
            let group = [g[0], g[1], g[2], g[3]];
            let got = fast_erfc4(group);
            for l in 0..LANES {
                assert_eq!(
                    got[l].to_bits(),
                    fast_erfc(group[l]).to_bits(),
                    "erfc lane {l} of {group:?}"
                );
            }
        }
    }

    #[test]
    fn lane_phi_is_bitwise_scalar_on_mixed_region_groups() {
        // Hand-picked groups spanning every region combination the
        // resolve path can gather: series/mid/tail, both signs, the
        // exact region switch points, zero, and saturated lanes.
        let groups = [
            [0.0, 0.1, -0.2, 0.3],
            [THRESH, -THRESH, 4.0, -4.0],
            [0.2, 2.0, 8.0, -0.2],
            [-9.0, 9.0, 0.46876, -0.46874],
            [26.0, -26.0, 3.9999, 0.00001],
            [5.0, 6.0, 7.0, 8.0],
            [1.0, 1.5, 2.5, 3.5],
        ];
        for group in groups {
            let phi4 = fast_phi4(group);
            let erfc4 = fast_erfc4(group);
            for l in 0..LANES {
                assert_eq!(
                    phi4[l].to_bits(),
                    fast_phi(group[l]).to_bits(),
                    "phi lane {l} of {group:?}"
                );
                assert_eq!(
                    erfc4[l].to_bits(),
                    fast_erfc(group[l]).to_bits(),
                    "erfc lane {l} of {group:?}"
                );
            }
        }
    }

    #[test]
    fn lane_phi_saturates_with_scalar() {
        // The Bernoulli no-draw classification (p <= 0, p >= 1) must
        // agree lane-for-lane, or a bulk-resolved word would consume a
        // different number of uniforms than a scalar-resolved one.
        let xs: Vec<f64> = sweep().collect();
        for g in xs.chunks_exact(LANES) {
            let group = [g[0], g[1], g[2], g[3]];
            let got = fast_phi4(group);
            for l in 0..LANES {
                let s = fast_phi(group[l]);
                assert_eq!(got[l] >= 1.0, s >= 1.0, "p==1 split at {}", group[l]);
                assert_eq!(got[l] <= 0.0, s <= 0.0, "p==0 split at {}", group[l]);
            }
        }
    }
}
