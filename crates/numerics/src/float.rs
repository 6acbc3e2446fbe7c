//! Small floating-point helpers shared by the workspace.

/// Relative closeness test with absolute fallback near zero:
/// `|a − b| ≤ tol · max(1, |a|, |b|)`.
pub fn is_close(a: f64, b: f64, tol: f64) -> bool {
    #[expect(
        clippy::float_cmp,
        reason = "exact fast path: equal operands, equal infinities included, are close"
    )]
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol * scale
}

/// Absolute closeness test `|a − b| ≤ tol`.
pub fn is_close_abs(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// `log(exp(a) + exp(b))` without overflow.
pub fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// `log(exp(a) − exp(b))` for `a ≥ b`, `NEG_INFINITY` when equal.
///
/// # Panics
/// Panics if `a < b` (the difference would be negative).
pub fn log_sub_exp(a: f64, b: f64) -> f64 {
    assert!(a >= b, "log_sub_exp requires a >= b (a={a}, b={b})");
    #[expect(
        clippy::float_cmp,
        reason = "exact equality: exp(a) − exp(b) is then 0, whose log is the NEG_INFINITY sentinel"
    )]
    if a == b {
        return f64::NEG_INFINITY;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    a + (-(b - a).exp()).ln_1p()
}

/// Numerically stable `log(Σ exp(xs))`.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let sum: f64 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

/// Clamp a probability-like quantity into `[0, 1]`, mapping NaN to 0
/// (NaN only arises from `0/0`-style indeterminate corner parameters that all
/// correspond to zero probability mass in the accounting formulas).
pub fn clamp_prob(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_add_exp_basic() {
        let v = log_add_exp(0.0, 0.0);
        assert!(is_close(v, 2.0_f64.ln(), 1e-14));
        assert_eq!(log_add_exp(f64::NEG_INFINITY, 3.0), 3.0);
        // Huge magnitudes must not overflow.
        let v = log_add_exp(1000.0, 1000.0);
        assert!(is_close(v, 1000.0 + 2.0_f64.ln(), 1e-13));
    }

    #[test]
    fn log_sub_exp_basic() {
        // log(e^2 − e^1).
        let expected = (2.0_f64.exp() - 1.0_f64.exp()).ln();
        assert!(is_close(log_sub_exp(2.0, 1.0), expected, 1e-13));
        assert_eq!(log_sub_exp(5.0, 5.0), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_matches_direct() {
        let xs = [0.1_f64, -3.0, 2.5, 1.0];
        let direct: f64 = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        assert!(is_close(log_sum_exp(&xs), direct, 1e-13));
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn clamp_prob_behaviour() {
        assert_eq!(clamp_prob(-0.5), 0.0);
        assert_eq!(clamp_prob(1.5), 1.0);
        assert_eq!(clamp_prob(f64::NAN), 0.0);
        assert_eq!(clamp_prob(0.25), 0.25);
    }
}
