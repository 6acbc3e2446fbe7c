//! Concentration inequalities used by the closed-form amplification theorems
//! (Thm 4.2 / 4.3 of the paper) and the privacy-blanket baseline.
//!
//! All bounds are the textbook forms; each function documents the exact
//! inequality it returns so the call sites in `vr-core` read like the proofs.

/// Bennett's `h(u) = (1+u)·ln(1+u) − u` for `u ≥ 0`.
pub fn bennett_h(u: f64) -> f64 {
    assert!(u >= 0.0, "bennett_h requires u >= 0, got {u}");
    if u == 0.0 {
        return 0.0;
    }
    (1.0 + u) * u.ln_1p() - u
}

/// Multiplicative Chernoff lower tail for `X ~ Binom(n, p)`, `μ = np`:
/// `P[X ≤ (1−η)μ] ≤ exp(−η²μ/2)` for `η ∈ [0, 1]`.
pub fn chernoff_lower_tail(mu: f64, eta: f64) -> f64 {
    assert!((0.0..=1.0).contains(&eta), "eta must be in [0,1]");
    (-eta * eta * mu / 2.0).exp()
}

/// Multiplicative Chernoff upper tail:
/// `P[X ≥ (1+η)μ] ≤ exp(−η²μ/(2+η))` for `η ≥ 0`.
pub fn chernoff_upper_tail(mu: f64, eta: f64) -> f64 {
    assert!(eta >= 0.0, "eta must be non-negative");
    (-eta * eta * mu / (2.0 + eta)).exp()
}

/// Hoeffding tail for a sum `S` of `n` independent variables each confined to
/// an interval of width `w`: `P[S − E S ≥ t] ≤ exp(−2t²/(n·w²))`.
pub fn hoeffding_tail(n: f64, width: f64, t: f64) -> f64 {
    assert!(n > 0.0 && width > 0.0 && t >= 0.0);
    (-2.0 * t * t / (n * width * width)).exp()
}

/// Bennett tail for a zero-mean sum of `n` i.i.d. variables with per-variable
/// variance `var` and upper bound `m` on each variable:
/// `P[S ≥ t] ≤ exp(−(n·var/m²)·h(m·t/(n·var)))`.
pub fn bennett_tail(n: f64, var: f64, m: f64, t: f64) -> f64 {
    assert!(n > 0.0 && m > 0.0 && t >= 0.0);
    if var <= 0.0 {
        // Degenerate variables cannot exceed their mean.
        return if t > 0.0 { 0.0 } else { 1.0 };
    }
    let nv = n * var;
    (-(nv / (m * m)) * bennett_h(m * t / nv)).exp()
}

/// Closed-form integral of the Hoeffding tail used to bound `E[(S/n)_+]` for a
/// sum with negative drift: with `S = Σ Zᵢ`, `E Zᵢ = −g < 0`, each `Zᵢ` in an
/// interval of width `w`,
///
/// `E[S₊] = ∫₀^∞ P[S ≥ t] dt ≤ ∫₀^∞ exp(−2(n·g + t)²/(n·w²)) dt
///        = w·√(nπ/8) · erfc(g·√(2n)/w)`.
///
/// Returns that integral (an upper bound on `E[S₊]`, *not* divided by `n`).
pub fn hoeffding_positive_part_integral(n: f64, width: f64, drift: f64) -> f64 {
    assert!(n > 0.0 && width > 0.0 && drift >= 0.0);
    let scale = width * (n * std::f64::consts::PI / 8.0).sqrt();
    scale * crate::erf::erfc(drift * (2.0 * n).sqrt() / width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::is_close;

    #[test]
    fn bennett_h_values() {
        assert_eq!(bennett_h(0.0), 0.0);
        // h(1) = 2 ln 2 − 1.
        assert!(is_close(bennett_h(1.0), 2.0 * 2.0_f64.ln() - 1.0, 1e-14));
        // Small-u expansion h(u) ≈ u²/2.
        let u = 1e-4;
        assert!(is_close(bennett_h(u), u * u / 2.0, 1e-4));
    }

    #[test]
    fn chernoff_tails_decrease_with_eta() {
        let mu = 50.0;
        let mut prev = 1.0;
        for i in 1..=10 {
            let eta = i as f64 / 10.0;
            let v = chernoff_lower_tail(mu, eta);
            assert!(v < prev);
            prev = v;
        }
        assert!(chernoff_upper_tail(mu, 0.0) == 1.0);
        assert!(chernoff_upper_tail(mu, 1.0) < chernoff_upper_tail(mu, 0.5));
    }

    #[test]
    fn chernoff_bounds_dominate_exact_binomial_tail() {
        // The bound must sit above the exact binomial tail.
        let n = 400u64;
        let p = 0.2;
        let b = crate::binomial::Binomial::new(n, p);
        let mu = b.mean();
        for i in 1..10 {
            let eta = i as f64 / 10.0;
            let exact_lower = b.cdf(((1.0 - eta) * mu).floor() as i64);
            assert!(
                chernoff_lower_tail(mu, eta) >= exact_lower - 1e-12,
                "lower tail violated at eta={eta}"
            );
            let exact_upper = b.sf(((1.0 + eta) * mu).ceil() as i64 - 1);
            assert!(
                chernoff_upper_tail(mu, eta) >= exact_upper - 1e-12,
                "upper tail violated at eta={eta}"
            );
        }
    }

    #[test]
    fn hoeffding_tail_monotone_and_bounded() {
        let v0 = hoeffding_tail(100.0, 1.0, 0.0);
        assert_eq!(v0, 1.0);
        assert!(hoeffding_tail(100.0, 1.0, 10.0) < hoeffding_tail(100.0, 1.0, 5.0));
    }

    #[test]
    fn bennett_dominated_by_hoeffding_for_small_variance() {
        // With var much smaller than (w/2)², Bennett is tighter.
        let n = 1000.0;
        let w = 1.0;
        let var = 0.001; // tiny variance, bounded by w
        let t = 20.0;
        assert!(bennett_tail(n, var, w, t) < hoeffding_tail(n, w, t));
    }

    #[test]
    fn positive_part_integral_sane() {
        // Zero drift: integral reduces to w√(nπ/8).
        let v = hoeffding_positive_part_integral(100.0, 2.0, 0.0);
        assert!(is_close(
            v,
            2.0 * (100.0 * std::f64::consts::PI / 8.0).sqrt(),
            1e-12
        ));
        // Larger drift shrinks the bound.
        assert!(
            hoeffding_positive_part_integral(100.0, 2.0, 1.0)
                < hoeffding_positive_part_integral(100.0, 2.0, 0.1)
        );
    }
}
