//! Metric (local `d_X`-privacy) amplification parameters — Table 3 of the
//! paper and the comparison with the prior bound of Wang et al. \[79\].
//!
//! For a local `d_X`-private randomizer, the indistinguishability of the
//! shuffled outputs on inputs `x⁰, x¹` is governed by
//! `d₀₁ = d_X(x⁰, x¹)` and `d_max = max_x max(d_X(x, x⁰), d_X(x, x¹))`:
//! Theorem 4.7 applies with `p ≤ e^{d₀₁}`, `q ≤ e^{d_max}` and the
//! mechanism's total variation bound `β(d₀₁)`.

use crate::error::Result;
use crate::params::VariationRatio;

/// Variation-ratio parameters for a **general** metric-DP randomizer
/// (Table 3 row 1): `p = e^{d01}`, `β = (e^{d01}−1)/(e^{d01}+1)`,
/// `q = e^{dmax}`.
pub fn general_metric_params(d01: f64, dmax: f64) -> Result<VariationRatio> {
    let p = d01.exp();
    VariationRatio::new(p, (p - 1.0) / (p + 1.0), dmax.max(d01).exp())
}

/// Parameters for the one-dimensional **Laplace** mechanism under the ℓ1
/// metric (Table 3 row 2): `β = 1 − e^{−d01/2}` — the exact total variation
/// `D_1(Laplace(0,1) ‖ Laplace(d01,1))`.
pub fn laplace_metric_params(d01: f64, dmax: f64) -> Result<VariationRatio> {
    VariationRatio::new(d01.exp(), laplace_beta(d01), dmax.max(d01).exp())
}

/// `β = 1 − e^{−d01/2}` for the unit-scale Laplace pair at distance `d01`.
pub fn laplace_beta(d01: f64) -> f64 {
    assert!(d01 >= 0.0);
    -(-d01 / 2.0).exp_m1()
}

/// Parameters for the **planar Laplace** mechanism under the ℓ2 metric on R²
/// (Table 3 row 3): the total variation is the non-elementary integral
/// `2·∫₀^{d01/2} ∫ℝ e^{−√((x−d01/2)²+y²)}/(2π) dy dx`, evaluated by nested
/// adaptive quadrature (inner integral truncated where the integrand decays
/// below any representable mass).
pub fn planar_laplace_metric_params(d01: f64, dmax: f64) -> Result<VariationRatio> {
    VariationRatio::new(d01.exp(), planar_laplace_beta(d01), dmax.max(d01).exp())
}

/// The planar-Laplace total variation bound `β(d01)` of Table 3.
pub fn planar_laplace_beta(d01: f64) -> f64 {
    assert!(d01 >= 0.0);
    if d01 == 0.0 {
        return 0.0;
    }
    let half = d01 / 2.0;
    // Inner integral over y decays like e^{−|y|}; 60 + half covers all f64
    // mass. Integrand in x is smooth on [0, half].
    let y_max = 60.0 + half;
    let integral = vr_numerics::quadrature::integrate(
        &|x: f64| {
            let u = x - half;
            2.0 * vr_numerics::quadrature::integrate(
                &|y: f64| (-(u * u + y * y).sqrt()).exp(),
                0.0,
                y_max,
                1e-12,
            )
        },
        0.0,
        half,
        1e-11,
    );
    (2.0 * integral / (2.0 * std::f64::consts::PI)).clamp(0.0, 1.0)
}

/// Clone probability `2r` of this work for metric randomizers,
/// `2/(e^{dmax} + e^{dmax−d01})` at the general β — compared against the
/// prior bound of \[79\] whose clone probability is
/// `2/(max_x (e^{d_X(x,x⁰)} + e^{d_X(x,x¹)}))`. By the triangle inequality
/// ours is never smaller (stronger amplification).
pub fn metric_clone_probability(d01: f64, dmax: f64) -> f64 {
    2.0 / (dmax.exp() + (dmax - d01).exp())
}

/// Prior work's (\[79\]) clone probability for the worst-case configuration in
/// which some `x` attains `d_X(x, x⁰) = d_X(x, x¹) = dmax`.
pub fn prior_metric_clone_probability(dmax: f64) -> f64 {
    2.0 / (dmax.exp() + dmax.exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_numerics::is_close;

    #[test]
    fn general_params_reduce_to_ldp_when_dmax_is_d01() {
        let vr = general_metric_params(1.0, 1.0).unwrap();
        let ldp = VariationRatio::ldp_worst_case(1.0).unwrap();
        assert!(is_close(vr.p(), ldp.p(), 1e-15));
        assert!(is_close(vr.beta(), ldp.beta(), 1e-15));
        assert!(is_close(vr.q(), ldp.q(), 1e-15));
    }

    #[test]
    fn laplace_beta_closed_form() {
        assert!(is_close(laplace_beta(2.0), 1.0 - (-1.0f64).exp(), 1e-14));
        assert_eq!(laplace_beta(0.0), 0.0);
        // Laplace beta is below the general worst case (amplifies better).
        for &d in &[0.5f64, 1.0, 2.0, 4.0] {
            let general = (d.exp() - 1.0) / (d.exp() + 1.0);
            assert!(laplace_beta(d) < general, "d01={d}");
        }
    }

    #[test]
    fn laplace_beta_matches_direct_density_integral() {
        // TV(Laplace(0,1), Laplace(d,1)) computed by quadrature of
        // max(0, f0 − f1).
        for &d in &[0.5f64, 1.0, 3.0] {
            let tv = vr_numerics::quadrature::integrate(
                &|x: f64| {
                    let f0 = 0.5 * (-(x).abs()).exp();
                    let f1 = 0.5 * (-(x - d).abs()).exp();
                    (f0 - f1).max(0.0)
                },
                -40.0,
                40.0 + d,
                1e-12,
            );
            assert!(
                is_close(tv, laplace_beta(d), 1e-8),
                "d={d}: {tv} vs {}",
                laplace_beta(d)
            );
        }
    }

    #[test]
    fn planar_laplace_beta_properties() {
        assert_eq!(planar_laplace_beta(0.0), 0.0);
        // Monotone in d01 and bounded by both 1 and the general worst case.
        let mut prev = 0.0;
        for i in 1..=10 {
            let d = 0.5 * i as f64;
            let b = planar_laplace_beta(d);
            assert!(b > prev, "not monotone at d01={d}");
            assert!(b < 1.0);
            let general = (d.exp() - 1.0) / (d.exp() + 1.0);
            assert!(
                b < general,
                "planar Laplace must beat worst case at d01={d}"
            );
            prev = b;
        }
    }

    #[test]
    fn planar_laplace_beta_sanity_value() {
        // TV ≈ d·f_x(0) for small d, where the x-marginal density of the
        // planar Laplace at 0 is ∫ e^{−|y|}/(2π) dy = 1/π ⇒ β(d) ≈ d/π.
        let d = 0.02;
        let b = planar_laplace_beta(d);
        let first_order = d / std::f64::consts::PI;
        assert!(
            (b - first_order).abs() / first_order < 0.05,
            "small-d expansion: {b} vs {first_order}"
        );
    }

    #[test]
    fn our_clone_probability_dominates_prior() {
        for &(d01, dmax) in &[(0.5, 1.0), (1.0, 2.0), (2.0, 2.0), (1.0, 5.0)] {
            assert!(
                metric_clone_probability(d01, dmax) >= prior_metric_clone_probability(dmax) - 1e-15,
                "d01={d01} dmax={dmax}"
            );
        }
        // Strictly better whenever d01 > 0.
        assert!(metric_clone_probability(1.0, 2.0) > prior_metric_clone_probability(2.0));
    }

    #[test]
    fn clone_probability_matches_params() {
        let d01 = 1.0;
        let dmax = 3.0;
        let vr = general_metric_params(d01, dmax).unwrap();
        assert!(is_close(
            vr.clone_probability(),
            metric_clone_probability(d01, dmax),
            1e-12
        ));
    }
}
