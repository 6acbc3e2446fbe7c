//! Log-gamma, log-factorial, log binomial coefficients and the regularized
//! incomplete gamma functions.
//!
//! `ln_gamma` uses the Lanczos approximation with `g = 7` and a 9-term
//! coefficient set, accurate to ~15 significant digits over the positive real
//! axis (reflection formula below `z = 0.5`). The incomplete gamma pair
//! `P(a, x)` / `Q(a, x)` uses the classical series / continued-fraction split
//! at `x = a + 1` (Numerical Recipes §6.2 structure, re-implemented).

/// Lanczos coefficients for `g = 7`, 9 terms (published to more digits than
/// f64 resolves; keep them verbatim for traceability).
const LANCZOS_G: f64 = 7.0;
#[expect(
    clippy::excessive_precision,
    reason = "published Lanczos coefficients, kept verbatim for traceability"
)]
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_59,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_571_6e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function `ln Γ(z)` for `z > 0`.
///
/// # Panics
/// Panics if `z` is not finite or `z <= 0` (the accounting code never needs
/// the analytic continuation, so requesting it is a logic error).
pub fn ln_gamma(z: f64) -> f64 {
    assert!(z.is_finite() && z > 0.0, "ln_gamma requires z > 0, got {z}");
    if z < 0.5 {
        // Reflection: Γ(z) Γ(1−z) = π / sin(πz).
        let pi = std::f64::consts::PI;
        return (pi / (pi * z).sin()).ln() - ln_gamma(1.0 - z);
    }
    let z = z - 1.0;
    // LANCZOS_COEF is a non-empty const table; `first` keeps that fact a
    // value-level default instead of a panic path.
    let mut x = LANCZOS_COEF.first().copied().unwrap_or(0.0);
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        x += c / (z + i as f64);
    }
    let t = z + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (z + 0.5) * t.ln() - t + x.ln()
}

/// `ln(n!)` for non-negative `n`, exact summation for small `n` and
/// `ln_gamma` beyond (cached cross-over keeps the hot path branch-cheap).
pub fn ln_factorial(n: u64) -> f64 {
    // Exact for n <= 20 since 20! < 2^63 fits in u64 and converts exactly? It
    // does not convert exactly to f64 above 2^53, so use a small table-free
    // running sum for n <= 32 which is exact to f64 rounding.
    if n < 2 {
        return 0.0;
    }
    if n <= 32 {
        let mut acc = 0.0_f64;
        for k in 2..=n {
            acc += (k as f64).ln();
        }
        return acc;
    }
    ln_gamma(n as f64 + 1.0)
}

/// `ln C(n, k)` — natural log of the binomial coefficient.
///
/// Returns `f64::NEG_INFINITY` when `k > n` (the coefficient is zero).
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Stirling-series error term
/// `stirlerr(z) = ln Γ(z+1) − (z·ln z − z + ½·ln(2πz))`,
/// i.e. the correction that upgrades Stirling's formula to full precision.
///
/// This is the backbone of Catherine Loader's cancellation-free binomial pmf
/// and of the large-parameter incomplete-beta prefactor: expressions like
/// `ln Γ(a+b) − ln Γ(a) − ln Γ(b)` lose ~7 digits at `a, b ~ 1e8` when formed
/// directly, but rewritten through `stirlerr` every term is `O(log)`-sized.
///
/// Exact (via `ln_factorial`) for small integers, `ln_gamma`-based for small
/// real arguments, asymptotic series elsewhere.
pub fn stirlerr(z: f64) -> f64 {
    assert!(z > 0.0, "stirlerr requires z > 0");
    const S0: f64 = 1.0 / 12.0;
    const S1: f64 = 1.0 / 360.0;
    const S2: f64 = 1.0 / 1260.0;
    const S3: f64 = 1.0 / 1680.0;
    const S4: f64 = 1.0 / 1188.0;
    if z < 16.0 {
        #[expect(
            clippy::float_cmp,
            reason = "exact integer test: whole z takes the exact ln_factorial route"
        )]
        let direct = if z == z.floor() {
            ln_factorial(z as u64)
        } else {
            ln_gamma(z + 1.0)
        };
        return direct - 0.5 * (2.0 * std::f64::consts::PI * z).ln() - z * z.ln() + z;
    }
    let zz = z * z;
    if z > 500.0 {
        (S0 - S1 / zz) / z
    } else if z > 80.0 {
        (S0 - (S1 - S2 / zz) / zz) / z
    } else if z > 35.0 {
        (S0 - (S1 - (S2 - S3 / zz) / zz) / zz) / z
    } else {
        (S0 - (S1 - (S2 - (S3 - S4 / zz) / zz) / zz) / zz) / z
    }
}

/// `bd0(x, np) = x·ln(x/np) + np − x`, the deviance term of Loader's binomial
/// pmf, evaluated by a cancellation-free series when `x ≈ np`.
pub fn bd0(x: f64, np: f64) -> f64 {
    assert!(x > 0.0 && np > 0.0, "bd0 requires positive arguments");
    if (x - np).abs() < 0.1 * (x + np) {
        let v = (x - np) / (x + np);
        let mut s = (x - np) * v;
        let mut ej = 2.0 * x * v;
        let v2 = v * v;
        let mut j = 1.0;
        loop {
            ej *= v2;
            let s1 = s + ej / (2.0 * j + 1.0);
            #[expect(
                clippy::float_cmp,
                reason = "series converged: the next term no longer changes the f64 sum"
            )]
            if s1 == s {
                return s1;
            }
            s = s1;
            j += 1.0;
        }
    }
    x * (x / np).ln() + np - x
}

const GAMMA_EPS: f64 = 1e-16;
const GAMMA_MAX_ITER: usize = 100_000;

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`.
///
/// `P(a, 0) = 0`, `P(a, ∞) = 1`; monotonically increasing in `x`.
pub fn reg_inc_gamma_p(a: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && x >= 0.0,
        "reg_inc_gamma_p requires a > 0, x >= 0"
    );
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_series(a, x)
    } else {
        1.0 - gamma_cont_frac(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
pub fn reg_inc_gamma_q(a: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && x >= 0.0,
        "reg_inc_gamma_q requires a > 0, x >= 0"
    );
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_series(a, x)
    } else {
        gamma_cont_frac(a, x)
    }
}

/// Series representation of `P(a, x)`, converges fast for `x < a + 1`.
fn gamma_series(a: f64, x: f64) -> f64 {
    let ln_pre = a * x.ln() - x - ln_gamma(a);
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..GAMMA_MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * GAMMA_EPS {
            return (sum.ln() + ln_pre).exp().clamp(0.0, 1.0);
        }
    }
    // Extremely slow convergence only happens for pathological inputs; the
    // partial sum is still a usable approximation.
    (sum.ln() + ln_pre).exp().clamp(0.0, 1.0)
}

/// Continued-fraction representation of `Q(a, x)` (modified Lentz),
/// converges fast for `x > a + 1`.
fn gamma_cont_frac(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let ln_pre = a * x.ln() - x - ln_gamma(a);
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..GAMMA_MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < GAMMA_EPS {
            break;
        }
    }
    (h.ln() + ln_pre).exp().clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::is_close;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)! for integer n.
        let mut fact = 1.0_f64;
        for n in 1..=30u64 {
            assert!(
                is_close(ln_gamma(n as f64), fact.ln(), 1e-12),
                "ln_gamma({n}) mismatch"
            );
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half_integer_values() {
        // Γ(1/2) = √π, Γ(3/2) = √π/2, Γ(5/2) = 3√π/4.
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!(is_close(ln_gamma(0.5), sqrt_pi.ln(), 1e-13));
        assert!(is_close(ln_gamma(1.5), (sqrt_pi / 2.0).ln(), 1e-13));
        assert!(is_close(ln_gamma(2.5), (3.0 * sqrt_pi / 4.0).ln(), 1e-13));
    }

    #[test]
    fn ln_gamma_large_argument_vs_stirling() {
        // High-precision reference values (computed with mpmath to 30 digits).
        // ln Γ(1e6) and ln Γ(1e8).
        assert!(is_close(ln_gamma(1.0e6), 12_815_504.569_147_77, 1e-9));
        assert!(is_close(ln_gamma(1.0e8), 1_742_068_066.103_837, 1e-9));
    }

    #[test]
    fn ln_gamma_recurrence_property() {
        // Γ(z+1) = z Γ(z) across a broad range.
        for i in 1..400 {
            let z = 0.05 * i as f64;
            let lhs = ln_gamma(z + 1.0);
            let rhs = z.ln() + ln_gamma(z);
            assert!(is_close(lhs, rhs, 1e-11), "recurrence failed at z={z}");
        }
    }

    #[test]
    fn ln_factorial_consistency() {
        for n in 0..200u64 {
            assert!(
                is_close(ln_factorial(n), ln_gamma(n as f64 + 1.0), 1e-12),
                "ln_factorial({n})"
            );
        }
    }

    #[test]
    fn ln_binomial_pascal_identity() {
        // C(n, k) = C(n−1, k−1) + C(n−1, k), checked in linear space for
        // moderate n.
        for n in 2..60u64 {
            for k in 1..n {
                let lhs = ln_binomial(n, k).exp();
                let rhs = ln_binomial(n - 1, k - 1).exp() + ln_binomial(n - 1, k).exp();
                assert!(is_close(lhs, rhs, 1e-10), "pascal failed n={n} k={k}");
            }
        }
    }

    #[test]
    fn ln_binomial_edge_cases() {
        assert_eq!(ln_binomial(5, 6), f64::NEG_INFINITY);
        assert_eq!(ln_binomial(5, 0), 0.0);
        assert_eq!(ln_binomial(5, 5), 0.0);
        assert!(is_close(ln_binomial(10, 5), 252.0_f64.ln(), 1e-12));
    }

    #[test]
    fn incomplete_gamma_complementarity() {
        for &a in &[0.3, 0.5, 1.0, 2.5, 10.0, 100.0, 1000.0] {
            for &x in &[0.01, 0.5, 1.0, 3.0, 10.0, 50.0, 2000.0] {
                let p = reg_inc_gamma_p(a, x);
                let q = reg_inc_gamma_q(a, x);
                assert!(is_close(p + q, 1.0, 1e-12), "P+Q != 1 at a={a} x={x}");
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn incomplete_gamma_known_values() {
        // P(1, x) = 1 − e^{−x}.
        for &x in &[0.1, 1.0, 2.0, 5.0] {
            assert!(is_close(reg_inc_gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-13));
        }
        // P(1/2, x) = erf(√x); spot value from mpmath: P(0.5, 2.0).
        assert!(is_close(
            reg_inc_gamma_p(0.5, 2.0),
            0.954_499_736_103_642,
            1e-12
        ));
    }

    #[test]
    fn incomplete_gamma_monotone_in_x() {
        let a = 7.3;
        let mut prev = 0.0;
        for i in 0..200 {
            let x = 0.2 * i as f64;
            let p = reg_inc_gamma_p(a, x);
            assert!(p + 1e-15 >= prev, "P(a,·) not monotone at x={x}");
            prev = p;
        }
    }
}
