//! Error function, complementary error function and the standard normal CDF.
//!
//! Built on the regularized incomplete gamma functions:
//! `erf(x) = P(1/2, x²)` for `x ≥ 0` (odd extension below zero) and
//! `erfc(x) = Q(1/2, x²)`. These are used by the privacy-blanket baseline's
//! Gaussian tail integrals and by normal-approximation sanity tests.

use crate::gamma::{reg_inc_gamma_p, reg_inc_gamma_q};

/// Error function `erf(x) = (2/√π) ∫₀ˣ e^{−t²} dt`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let v = reg_inc_gamma_p(0.5, x * x);
    if x > 0.0 {
        v
    } else {
        -v
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)`, accurate in the far
/// right tail where `1 − erf(x)` would underflow to cancellation noise.
pub fn erfc(x: f64) -> f64 {
    if x == 0.0 {
        return 1.0;
    }
    if x > 0.0 {
        reg_inc_gamma_q(0.5, x * x)
    } else {
        1.0 + reg_inc_gamma_p(0.5, x * x)
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Upper tail of the standard normal, `1 − Φ(x)`, stable for large `x`.
pub fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::{is_close, is_close_abs};

    #[test]
    fn erf_reference_values() {
        // mpmath references.
        assert!(is_close(erf(0.5), 0.520_499_877_813_046_5, 1e-12));
        assert!(is_close(erf(1.0), 0.842_700_792_949_714_9, 1e-12));
        assert!(is_close(erf(2.0), 0.995_322_265_018_952_7, 1e-12));
        assert!(is_close(erf(-1.0), -0.842_700_792_949_714_9, 1e-12));
    }

    #[test]
    fn erfc_far_tail_no_underflow_to_zero() {
        // erfc(10) ≈ 2.088e-45, way below what 1 − erf(10) could resolve.
        let v = erfc(10.0);
        assert!(v > 0.0 && v < 1e-44);
        assert!(is_close(v, 2.088_487_583_762_545e-45, 1e-9));
    }

    #[test]
    fn erf_plus_erfc_is_one() {
        for i in -40..=40 {
            let x = i as f64 / 8.0;
            assert!(is_close_abs(erf(x) + erfc(x), 1.0, 1e-13), "x={x}");
        }
    }

    #[test]
    fn normal_cdf_symmetry_and_known_values() {
        assert!(is_close(normal_cdf(0.0), 0.5, 1e-15));
        assert!(is_close(normal_cdf(1.959_963_984_540_054), 0.975, 1e-10));
        for i in 0..20 {
            let x = 0.3 * i as f64;
            assert!(is_close_abs(normal_cdf(x) + normal_cdf(-x), 1.0, 1e-13));
            assert!(is_close(normal_sf(x), 1.0 - normal_cdf(x), 1e-10));
        }
    }
}
