//! Special functions used by the test statistics: `erfc`, `ln Γ`, and
//! the regularized incomplete gamma functions.

use std::f64::consts::PI;

/// The complementary error function.
///
/// Series for small arguments, Lentz continued fraction for large ones;
/// relative error below 1e-12.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 2.0 {
        let mut term = x;
        let mut sum = x;
        let x2 = x * x;
        let mut n = 0u32;
        loop {
            n += 1;
            term *= -x2 / n as f64;
            let add = term / (2 * n + 1) as f64;
            sum += add;
            if add.abs() < 1e-17 * sum.abs().max(1e-300) || n > 200 {
                break;
            }
        }
        1.0 - sum * 2.0 / PI.sqrt()
    } else {
        let x2 = x * x;
        let tiny = 1e-300;
        let f = x.max(tiny);
        let mut c = f;
        let mut d = 0.0;
        let mut result = f;
        for n in 1..300 {
            let a = n as f64 / 2.0;
            let b = x;
            d = b + a * d;
            if d.abs() < tiny {
                d = tiny;
            }
            c = b + a / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let delta = c * d;
            result *= delta;
            if (delta - 1.0).abs() < 1e-16 {
                break;
            }
        }
        (-x2).exp() / PI.sqrt() / result
    }
}

/// The error function `erf(x) = 1 - erfc(x)`.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// The standard normal cumulative distribution function.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn igam(a: f64, x: f64) -> f64 {
    1.0 - igamc(a, x)
}

/// Regularized upper incomplete gamma function `Q(a, x)` — the function
/// NIST's chi-square-based p-values are expressed in (`igamc`).
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn igamc(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "igamc requires a > 0, got {a}");
    assert!(x >= 0.0, "igamc requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        // Q = 1 - P with P from the series expansion.
        1.0 - lower_series(a, x)
    } else {
        // Continued fraction for Q (modified Lentz).
        upper_cf(a, x)
    }
}

/// Series for P(a, x), valid for x < a + 1.
fn lower_series(a: f64, x: f64) -> f64 {
    let mut sum = 1.0 / a;
    let mut term = sum;
    let mut n = a;
    for _ in 0..10_000 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued fraction for Q(a, x), valid for x >= a + 1.
fn upper_cf(a: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..10_000 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-14);
        assert!((erfc(1.0) - 0.15729920705028513).abs() < 1e-12);
        assert!((erfc(-1.0) - 1.8427007929497148).abs() < 1e-12);
        assert!((erfc(3.0) - 2.2090496998585445e-5).abs() < 1e-15);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..15u64 {
            let fact: f64 = (1..n).map(|k| k as f64).product();
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-10,
                "ln_gamma({n})"
            );
        }
        // Gamma(0.5) = sqrt(pi)
        assert!((ln_gamma(0.5) - PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn igamc_reference_values() {
        // Q(1, x) = exp(-x)
        for x in [0.1, 1.0, 3.0, 10.0] {
            assert!((igamc(1.0, x) - (-x).exp()).abs() < 1e-12, "Q(1,{x})");
        }
        // Chi-square survival with k=4 dof at x: Q(2, x/2).
        // chi2_sf(4 dof, 9.488) ~ 0.05 (95th percentile).
        assert!((igamc(2.0, 9.488 / 2.0) - 0.05).abs() < 5e-4);
        // Q(0.5, x) = erfc(sqrt(x))
        for x in [0.2, 1.0, 4.0] {
            assert!((igamc(0.5, x) - erfc(x.sqrt())).abs() < 1e-12);
        }
    }

    #[test]
    fn igam_complements_igamc() {
        for a in [0.5, 1.5, 4.0, 20.0] {
            for x in [0.1, 1.0, 5.0, 30.0] {
                assert!((igam(a, x) + igamc(a, x) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn igamc_monotone_decreasing_in_x() {
        let mut prev = 1.0;
        for i in 0..100 {
            let q = igamc(3.0, i as f64 * 0.3);
            assert!(q <= prev + 1e-15);
            prev = q;
        }
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((normal_cdf(1.96) - 0.9750021048517795).abs() < 1e-10);
        assert!((normal_cdf(-1.96) + normal_cdf(1.96) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "a > 0")]
    fn igamc_rejects_bad_a() {
        let _ = igamc(0.0, 1.0);
    }
}
