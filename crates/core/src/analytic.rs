//! Theorem 4.2 — the closed-form "analytic" amplification bound.
//!
//! The bound conditions on a typical number of clones
//! `Ω = 2r(n−1) − √(min(6r, 1/2)(n−1)·ln(4/δ))` (multiplicative Chernoff for
//! small `2r`, Hoeffding for large `2r`) and a typical split `A ≈ C/2`
//! (Hoeffding), each holding with probability `1 − δ/2`; the worst conditioned
//! likelihood ratio then yields ε. Implemented from the Appendix F derivation,
//! which is the algebraically consistent statement of the theorem:
//!
//! ```text
//! ε = ln(1 + F(Ω)),
//! F(C) = β(2√(C/2·L) + 1)
//!        / (αC + β(C/2 − √(C/2·L)) + (1−α−pα)(n−1−C)·r/(1−2r)),
//! L = ln(4/δ).
//! ```
//!
//! Side conditions (returned as [`Error::NotApplicable`] when violated):
//! `(p+1)α/2 − (1−α−pα)·r/(1−2r) ≥ 0` ensures `F` is decreasing past the
//! threshold `C*`, and `Ω ≥ C*` places the conditioned count past it.

use crate::bound::{delta_from_epsilon, names, AmplificationBound, Validity};
use crate::error::{Error, Result};
use crate::params::VariationRatio;

/// Theorem 4.2 as an [`AmplificationBound`]: the closed form bound to one
/// workload `(p, β, q, n)`, queryable on both axes (`delta` inverts the
/// native `epsilon(δ)` conservatively via [`delta_from_epsilon`]).
#[derive(Debug, Clone, Copy)]
pub struct AnalyticBound {
    vr: VariationRatio,
    n: u64,
}

impl AnalyticBound {
    /// Bind the closed form to a workload.
    pub fn new(vr: VariationRatio, n: u64) -> Self {
        Self { vr, n }
    }
}

impl AmplificationBound for AnalyticBound {
    fn name(&self) -> &str {
        names::ANALYTIC
    }

    fn validity(&self) -> Validity {
        Validity {
            eps_ceiling: self.vr.epsilon_limit(),
            // Side conditions (i)/(ii) and the Ω > 0 requirement may reject
            // queries well inside the nominal (ε, δ) domain.
            conditional: true,
        }
    }

    fn delta(&self, eps: f64) -> Result<f64> {
        delta_from_epsilon(eps, |delta| self.epsilon(delta))
    }

    fn epsilon(&self, delta: f64) -> Result<f64> {
        epsilon_thm42(&self.vr, self.n, delta)
    }
}

/// Theorem 4.2 kernel (Appendix F algebra): the amplified ε, or
/// [`Error::NotApplicable`] when the theorem's side conditions fail for
/// these parameters (use the numerical [`crate::Accountant`] instead — it
/// is always applicable and tighter).
fn epsilon_thm42(vr: &VariationRatio, n: u64, delta: f64) -> Result<f64> {
    if !(0.0 < delta && delta < 1.0) {
        return Err(Error::InvalidParameter(format!(
            "delta must be in (0,1), got {delta}"
        )));
    }
    if n < 2 {
        return Err(Error::NotApplicable(
            "need n >= 2 for clone concentration".into(),
        ));
    }
    if vr.is_degenerate() {
        return Ok(0.0);
    }
    let alpha = vr.alpha();
    let p_alpha = vr.p_alpha();
    let beta = vr.beta();
    let rest = vr.non_differing();
    let r = vr.r();
    if r >= 0.5 && rest > 0.0 {
        return Err(Error::NotApplicable(
            "r = 1/2 with a non-differing component is outside the closed form".into(),
        ));
    }
    let nf = n as f64;
    let l4 = (4.0 / delta).ln();

    // Ω: lower confidence bound on the clone count C ~ Binom(n−1, 2r).
    let omega = 2.0 * r * (nf - 1.0) - ((6.0 * r).min(0.5) * (nf - 1.0) * l4).sqrt();
    if omega <= 0.0 {
        return Err(Error::NotApplicable(format!(
            "conditioned clone count is non-positive (omega = {omega:.3}); n too small"
        )));
    }

    // Condition (i): coefficient of C in the denominator of F must be >= 0:
    // (p+1)α/2 − (1−α−pα)·r/(1−2r) >= 0 (p = ∞ safe via α + pα).
    // vr-lint: allow(float-eq) — exact single-message test; `non_differing()` returns a literal 0.0 in that regime
    let tail_rate = if rest == 0.0 {
        0.0
    } else {
        rest * r / (1.0 - 2.0 * r)
    };
    if (alpha + p_alpha) / 2.0 - tail_rate < 0.0 {
        return Err(Error::NotApplicable(
            "denominator coefficient condition of Theorem 4.2 fails".into(),
        ));
    }

    // Condition (ii): Ω must exceed the stationary threshold C* of F.
    let c_star = stationary_threshold(vr, n);
    if omega < c_star {
        return Err(Error::NotApplicable(format!(
            "omega = {omega:.3} below the monotonicity threshold {c_star:.3}"
        )));
    }

    let half_spread = (omega / 2.0 * l4).sqrt();
    let numerator = beta * (2.0 * half_spread + 1.0);
    let denominator =
        alpha * omega + beta * (omega / 2.0 - half_spread) + tail_rate * (nf - 1.0 - omega);
    if denominator <= 0.0 {
        return Err(Error::NotApplicable(
            "denominator of the conditioned ratio bound is non-positive".into(),
        ));
    }
    Ok((numerator / denominator).ln_1p())
}

/// The threshold `C*` past which `F` is decreasing (Appendix F):
/// `C* = (2p(β+1+(β−1)p)(n−1) + β) / (q + p(β−1+(β+1)p) − pq)`,
/// evaluated through its limit `2(β−1)(n−1)/(β+1)` when `p = ∞`.
fn stationary_threshold(vr: &VariationRatio, n: u64) -> f64 {
    let beta = vr.beta();
    let nf = n as f64;
    if !vr.p().is_finite() {
        return 2.0 * (beta - 1.0) * (nf - 1.0) / (beta + 1.0);
    }
    let p = vr.p();
    let q = vr.q();
    let num = 2.0 * p * (beta + 1.0 + (beta - 1.0) * p) * (nf - 1.0) + beta;
    let den = q + p * (beta - 1.0 + (beta + 1.0) * p) - p * q;
    // vr-lint: allow(float-eq) — exact division-by-zero guard; any nonzero denominator divides fine
    if den == 0.0 {
        return f64::INFINITY;
    }
    let v = num / den;
    // A negative threshold means F is decreasing on the whole positive axis.
    if v.is_finite() {
        v
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountant::{Accountant, ScanMode};

    #[test]
    fn analytic_dominates_numerical_bound() {
        // The closed form must be a valid (looser) upper bound: at the ε it
        // returns, the numerical Delta must be <= δ.
        for &(p, beta, q) in &[
            (
                (1.0f64).exp(),
                ((1.0f64).exp() - 1.0) / ((1.0f64).exp() + 1.0),
                (1.0f64).exp(),
            ),
            (f64::INFINITY, 0.8, 4.0),
            (f64::INFINITY, 1.0, 8.0),
        ] {
            let vr = VariationRatio::new(p, beta, q).unwrap();
            for n in [100_000u64, 1_000_000] {
                let delta = 1e-7;
                match AnalyticBound::new(vr, n).epsilon(delta) {
                    Ok(eps) => {
                        let num = Accountant::new(vr, n)
                            .unwrap()
                            .try_delta(eps, ScanMode::default())
                            .unwrap();
                        assert!(
                            num <= delta * 1.0001,
                            "analytic eps={eps} not feasible: Delta={num:e} > {delta:e} \
                             (p={p}, beta={beta}, q={q}, n={n})"
                        );
                    }
                    Err(Error::NotApplicable(_)) => {} // acceptable for edge params
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
    }

    #[test]
    fn analytic_looser_than_numerical() {
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        let n = 1_000_000;
        let delta = 1e-7;
        let analytic = AnalyticBound::new(vr, n).epsilon(delta).unwrap();
        let numerical = Accountant::new(vr, n)
            .unwrap()
            .epsilon_default(delta)
            .unwrap();
        assert!(
            analytic >= numerical,
            "closed form should not beat the exact accountant: {analytic} < {numerical}"
        );
        // ...but should be within a small constant factor for these params.
        assert!(analytic < numerical * 8.0, "{analytic} vs {numerical}");
    }

    #[test]
    fn improves_with_population() {
        let vr = VariationRatio::ldp_worst_case(2.0).unwrap();
        let e5 = AnalyticBound::new(vr, 100_000).epsilon(1e-6).unwrap();
        let e6 = AnalyticBound::new(vr, 1_000_000).epsilon(1e-6).unwrap();
        assert!(e6 < e5);
    }

    #[test]
    fn small_population_not_applicable() {
        let vr = VariationRatio::ldp_worst_case(5.0).unwrap();
        // With eps0=5 the clone probability is ~0.013; n = 50 leaves omega <= 0.
        assert!(matches!(
            AnalyticBound::new(vr, 50).epsilon(1e-6),
            Err(Error::NotApplicable(_))
        ));
    }

    #[test]
    fn bound_adapter_matches_free_function_and_inverts() {
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        let n = 1_000_000;
        let b = AnalyticBound::new(vr, n);
        for delta in [1e-5, 1e-7, 1e-9] {
            assert_eq!(
                b.epsilon(delta).unwrap().to_bits(),
                epsilon_thm42(&vr, n, delta).unwrap().to_bits()
            );
        }
        assert!(b.validity().conditional);
        // delta(ε) is a valid conservative inversion: ε(δ(ε)) ≤ ε.
        let eps = b.epsilon(1e-7).unwrap();
        let d = b.delta(eps).unwrap();
        assert!(d <= 1e-7 * 1.001, "inverted delta {d:e} too large");
        assert!(b.epsilon(d).unwrap() <= eps);
    }

    #[test]
    fn degenerate_and_invalid_inputs() {
        let vr = VariationRatio::new(2.0, 0.0, 2.0).unwrap();
        assert_eq!(AnalyticBound::new(vr, 1000).epsilon(1e-6).unwrap(), 0.0);
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        assert!(AnalyticBound::new(vr, 1000).epsilon(0.0).is_err());
        assert!(AnalyticBound::new(vr, 1000).epsilon(1.5).is_err());
        assert!(AnalyticBound::new(vr, 1).epsilon(1e-6).is_err());
    }
}
