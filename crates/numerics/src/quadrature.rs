//! Adaptive Simpson quadrature (1-D and nested 2-D).
//!
//! Used by the metric-DP parameter table: the planar-Laplace total-variation
//! bound of Table 3 is a two-dimensional integral of
//! `exp(−√((x−d/2)² + y²))/(2π)` that has no elementary antiderivative.

/// Adaptive Simpson integration of `f` over `[a, b]` with absolute tolerance
/// `tol`. Recursion depth is capped at 60, which in practice means the
/// returned value is within `O(tol)` of the true integral for any integrand
/// that is piecewise smooth on the interval.
pub fn integrate<F: Fn(f64) -> f64>(f: &F, a: f64, b: f64, tol: f64) -> f64 {
    assert!(a.is_finite() && b.is_finite() && tol > 0.0);
    #[expect(
        clippy::float_cmp,
        reason = "exact empty interval: the integral over [a, a] is 0"
    )]
    if a == b {
        return 0.0;
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = simpson(a, b, fa, fm, fb);
    adaptive(f, a, b, fa, fm, fb, whole, tol, 60)
}

fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[expect(
    clippy::too_many_arguments,
    reason = "the Simpson recursion threads its interval and three cached samples"
)]
fn adaptive<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        // Richardson extrapolation term delta/15 upgrades Simpson to
        // 6th-order accuracy at no extra evaluations.
        return left + right + delta / 15.0;
    }
    adaptive(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
        + adaptive(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)
}

/// Gauss–Legendre nodes and weights on `[a, b]`, generated by Newton
/// iteration on the degree-`n` Legendre polynomial (the classical `gauleg`
/// construction). The returned rule integrates polynomials of degree
/// `≤ 2n − 1` exactly.
#[expect(
    clippy::indexing_slicing,
    reason = "i < m = ceil(n/2) ≤ n and the mirror index n − 1 − i stays in [0, n)"
)]
pub fn gauss_legendre(n: usize, a: f64, b: f64) -> Vec<(f64, f64)> {
    assert!(n >= 1, "need at least one node");
    let mut nodes = vec![(0.0, 0.0); n];
    let m = n.div_ceil(2);
    let xm = 0.5 * (b + a);
    let xl = 0.5 * (b - a);
    let nf = n as f64;
    for i in 0..m {
        // Chebyshev initial guess for the i-th root of P_n.
        let mut z = (std::f64::consts::PI * (i as f64 + 0.75) / (nf + 0.5)).cos();
        let mut pp = 0.0;
        for _ in 0..100 {
            // Legendre recurrence for P_n(z) and its derivative.
            let mut p1 = 1.0;
            let mut p2 = 0.0;
            for j in 0..n {
                let p3 = p2;
                p2 = p1;
                let jf = j as f64;
                p1 = ((2.0 * jf + 1.0) * z * p2 - jf * p3) / (jf + 1.0);
            }
            pp = nf * (z * p1 - p2) / (z * z - 1.0);
            let z1 = z;
            z = z1 - p1 / pp;
            if (z - z1).abs() < 1e-15 {
                break;
            }
        }
        let w = 2.0 * xl / ((1.0 - z * z) * pp * pp);
        nodes[i] = (xm - xl * z, w);
        nodes[n - 1 - i] = (xm + xl * z, w);
    }
    nodes
}

/// Nested 2-D integration of `f(x, y)` over the rectangle
/// `[x0, x1] × [y0, y1]` with per-axis tolerance `tol`.
pub fn integrate_2d<F: Fn(f64, f64) -> f64>(
    f: &F,
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
    tol: f64,
) -> f64 {
    integrate(&|x| integrate(&|y| f(x, y), y0, y1, tol), x0, x1, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::is_close;

    #[test]
    fn polynomial_exact() {
        // Simpson is exact on cubics.
        let f = |x: f64| 3.0 * x * x * x - x + 2.0;
        let v = integrate(&f, -1.0, 2.0, 1e-12);
        // ∫ = (3/4)x⁴ − x²/2 + 2x over [−1, 2] = (12 − 2 + 4) − (3/4 − 1/2 − 2).
        let exact = (0.75 * 16.0 - 2.0 + 4.0) - (0.75 - 0.5 - 2.0);
        assert!(is_close(v, exact, 1e-12));
    }

    #[test]
    fn transcendental_reference() {
        let v = integrate(&|x: f64| x.sin(), 0.0, std::f64::consts::PI, 1e-12);
        assert!(is_close(v, 2.0, 1e-10));
        let v = integrate(&|x: f64| (-x).exp(), 0.0, 40.0, 1e-13);
        assert!(is_close(v, 1.0, 1e-9));
    }

    #[test]
    fn handles_peaked_integrand() {
        // A narrow Gaussian: ∫ exp(−(x−5)²/(2σ²)) = σ√(2π), σ = 0.01.
        let sigma = 0.01;
        let f = |x: f64| (-(x - 5.0) * (x - 5.0) / (2.0 * sigma * sigma)).exp();
        let v = integrate(&f, 0.0, 10.0, 1e-13);
        let exact = sigma * (2.0 * std::f64::consts::PI).sqrt();
        assert!(is_close(v, exact, 1e-7), "{v} vs {exact}");
    }

    #[test]
    fn two_dimensional_separable() {
        // ∫∫ e^{−x−y} over [0,5]² = (1 − e^{−5})².
        let v = integrate_2d(&|x, y| (-x - y).exp(), 0.0, 5.0, 0.0, 5.0, 1e-11);
        let e = 1.0 - (-5.0_f64).exp();
        assert!(is_close(v, e * e, 1e-8));
    }

    #[test]
    fn empty_interval_is_zero() {
        assert_eq!(integrate(&|x: f64| x, 3.0, 3.0, 1e-9), 0.0);
    }

    #[test]
    fn reversed_interval_is_negated() {
        let fwd = integrate(&|x: f64| x * x, 0.0, 1.0, 1e-12);
        let rev = integrate(&|x: f64| x * x, 1.0, 0.0, 1e-12);
        assert!(is_close(fwd, -rev, 1e-12));
    }
}
