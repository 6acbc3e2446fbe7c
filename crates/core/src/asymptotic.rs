//! Theorem 4.3 — the succinct asymptotic amplification bound, and the
//! `Õ(√(β(p−1)q/(p·n)))` order-of-magnitude formula used in Table 1.

use crate::bound::{delta_from_epsilon, names, AmplificationBound, Validity};
use crate::error::{Error, Result};
use crate::params::VariationRatio;

/// Theorem 4.3 as an [`AmplificationBound`]: the succinct closed form bound
/// to one workload, with `delta` answered by conservative inversion of the
/// native `epsilon(δ)` (see [`delta_from_epsilon`]).
#[derive(Debug, Clone, Copy)]
pub struct AsymptoticBound {
    vr: VariationRatio,
    n: u64,
}

impl AsymptoticBound {
    /// Bind the closed form to a workload.
    pub fn new(vr: VariationRatio, n: u64) -> Self {
        Self { vr, n }
    }
}

impl AmplificationBound for AsymptoticBound {
    fn name(&self) -> &str {
        names::ASYMPTOTIC
    }

    fn validity(&self) -> Validity {
        Validity {
            eps_ceiling: self.vr.epsilon_limit(),
            // Requires n ≥ 8·ln(2/δ)/r.
            conditional: true,
        }
    }

    fn delta(&self, eps: f64) -> Result<f64> {
        delta_from_epsilon(eps, |delta| self.epsilon(delta))
    }

    fn epsilon(&self, delta: f64) -> Result<f64> {
        epsilon_thm43(&self.vr, self.n, delta)
    }
}

/// Theorem 4.3 kernel:
///
/// ```text
/// ε = ln(1 + β / ((1−v)(1+p)β/(p−1) + v) · (√(32·ln(4/δ)/(r(n−1))) + 4/(r·n)))
/// v = max(0, (4/9)·(1−3r)/(1−2r)),   r = pβ/((p−1)q)
/// ```
///
/// valid when `n ≥ 8·ln(2/δ)/r` (returned as [`Error::NotApplicable`]
/// otherwise). `p = ∞` is handled through `(1+p)β/(p−1) → β` (i.e. `α + pα`).
fn epsilon_thm43(vr: &VariationRatio, n: u64, delta: f64) -> Result<f64> {
    if !(0.0 < delta && delta < 1.0) {
        return Err(Error::InvalidParameter(format!(
            "delta must be in (0,1), got {delta}"
        )));
    }
    if vr.is_degenerate() {
        return Ok(0.0);
    }
    let r = vr.r();
    let nf = n as f64;
    if nf < 8.0 * (2.0 / delta).ln() / r {
        return Err(Error::NotApplicable(format!(
            "Theorem 4.3 requires n >= 8·ln(2/δ)/r = {:.1}, got n = {n}",
            8.0 * (2.0 / delta).ln() / r
        )));
    }
    let v = if 2.0 * r < 1.0 {
        (4.0 / 9.0 * (1.0 - 3.0 * r) / (1.0 - 2.0 * r)).max(0.0)
    } else {
        0.0
    };
    let combined = vr.alpha() + vr.p_alpha(); // = (1+p)β/(p−1), finite at p = ∞
    let factor = (1.0 - v) * combined + v;
    let spread = (32.0 * (4.0 / delta).ln() / (r * (nf - 1.0))).sqrt() + 4.0 / (r * nf);
    Ok((vr.beta() / factor * spread).ln_1p())
}

/// The order-of-magnitude amplification level
/// `√(β(p−1)q·ln(1/δ)/(p·n)) = β·√(ln(1/δ)/(r·n))` quoted after Theorem 4.3
/// and in Table 1 (constants dropped). For `ε₀`-LDP randomizers
/// (`q = p = e^{ε₀}`) this is `√(β(e^{ε₀}−1)·ln(1/δ)/n)`.
pub fn asymptotic_order(vr: &VariationRatio, n: u64, delta: f64) -> f64 {
    vr.beta() * ((1.0 / delta).ln() / (vr.r() * n as f64)).sqrt()
}

/// Table 1 comparison: asymptotic amplification orders of prior analyses for
/// a generic `ε₀`-LDP randomizer (constants dropped, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// EFMRTT19: `√(e^{3ε₀}·ln(1/δ)/n)`.
    pub efmrtt19: f64,
    /// Privacy blanket: `√(e^{2ε₀}·ln(1/δ)/n)`.
    pub blanket: f64,
    /// Clone: `(e^{ε₀}−1)/(e^{ε₀}+1)·√(e^{ε₀}·ln(1/δ)/n)`.
    pub clone: f64,
    /// Stronger clone: `√((e^{ε₀}−1)²·ln(1/δ)/(n(e^{ε₀}+1)))`.
    pub stronger_clone: f64,
    /// This work: `√(β(e^{ε₀}−1)·ln(1/δ)/n)`.
    pub variation_ratio: f64,
}

/// Evaluate the Table 1 orders at a concrete `(ε₀, β, n, δ)`.
pub fn table1_orders(eps0: f64, beta: f64, n: u64, delta: f64) -> Table1Row {
    let e = eps0.exp();
    let l = (1.0 / delta).ln();
    let nf = n as f64;
    Table1Row {
        efmrtt19: ((3.0 * eps0).exp() * l / nf).sqrt(),
        blanket: ((2.0 * eps0).exp() * l / nf).sqrt(),
        clone: (e - 1.0) / (e + 1.0) * (e * l / nf).sqrt(),
        stronger_clone: ((e - 1.0) * (e - 1.0) * l / (nf * (e + 1.0))).sqrt(),
        variation_ratio: (beta * (e - 1.0) * l / nf).sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountant::{Accountant, ScanMode};
    use vr_numerics::is_close;

    #[test]
    fn asymptotic_dominates_numerical() {
        for &eps0 in &[0.5f64, 1.0, 2.0] {
            let vr = VariationRatio::ldp_worst_case(eps0).unwrap();
            let n = 2_000_000;
            let delta = 1e-7;
            let eps = AsymptoticBound::new(vr, n).epsilon(delta).unwrap();
            let d = Accountant::new(vr, n)
                .unwrap()
                .try_delta(eps, ScanMode::default())
                .unwrap();
            assert!(
                d <= delta * 1.0001,
                "eps0={eps0}: Delta({eps}) = {d:e} > {delta:e}"
            );
        }
    }

    #[test]
    fn asymptotic_looser_than_analytic_and_numeric() {
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        let n = 1_000_000;
        let delta = 1e-7;
        let asym = AsymptoticBound::new(vr, n).epsilon(delta).unwrap();
        let num = Accountant::new(vr, n)
            .unwrap()
            .epsilon_default(delta)
            .unwrap();
        assert!(asym >= num);
    }

    #[test]
    fn bound_adapter_matches_free_function_and_inverts() {
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        let n = 2_000_000;
        let b = AsymptoticBound::new(vr, n);
        for delta in [1e-5, 1e-7] {
            assert_eq!(
                b.epsilon(delta).unwrap().to_bits(),
                epsilon_thm43(&vr, n, delta).unwrap().to_bits()
            );
        }
        let eps = b.epsilon(1e-7).unwrap();
        let d = b.delta(eps).unwrap();
        assert!(b.epsilon(d).unwrap() <= eps, "inversion must be feasible");
        // Below the applicability threshold the inversion degrades to the
        // trivial δ = 1 instead of erroring out.
        let tiny = AsymptoticBound::new(vr, 10);
        assert_eq!(tiny.delta(0.5).unwrap(), 1.0);
    }

    #[test]
    fn requires_large_population() {
        let vr = VariationRatio::ldp_worst_case(5.0).unwrap();
        assert!(matches!(
            AsymptoticBound::new(vr, 1_000).epsilon(1e-6),
            Err(Error::NotApplicable(_))
        ));
    }

    #[test]
    fn order_formula_ldp_specialization() {
        // For q = p = e^{eps0}: β(p−1)q/(p n)·ln(1/δ) = β(e^{ε0}−1)ln(1/δ)/n.
        let eps0 = 1.7;
        let beta = 0.3;
        let vr = VariationRatio::ldp_with_beta(eps0, beta).unwrap();
        let n = 50_000;
        let delta = 1e-6;
        let direct = (beta * (eps0.exp() - 1.0) * (1.0f64 / delta).ln() / n as f64).sqrt();
        assert!(is_close(asymptotic_order(&vr, n, delta), direct, 1e-12));
    }

    #[test]
    fn table1_ordering_matches_paper() {
        // For any eps0 = Θ(1): EFMRTT19 > blanket > both clone variants, and
        // variation-ratio at the worst-case β coincides with the stronger
        // clone. (The two clone rows differ only by a bounded √((e+1)/e)
        // constant — Table 1 drops constants, so no ordering is asserted
        // between them.)
        for &eps0 in &[0.5f64, 1.0, 3.0, 5.0] {
            let e = eps0.exp();
            let beta_wc = (e - 1.0) / (e + 1.0);
            let t = table1_orders(eps0, beta_wc, 100_000, 1e-6);
            assert!(t.efmrtt19 > t.blanket);
            assert!(t.blanket > t.clone);
            assert!(t.blanket > t.stronger_clone);
            assert!(
                is_close(t.stronger_clone, t.variation_ratio, 1e-12),
                "worst-case beta must equal stronger clone"
            );
            let ratio = t.stronger_clone / t.clone;
            assert!(
                is_close(ratio, ((e + 1.0) / e).sqrt(), 1e-9),
                "clone variants differ by exactly sqrt((e+1)/e)"
            );
            // A tighter β strictly improves on the stronger clone.
            let t2 = table1_orders(eps0, beta_wc / 2.0, 100_000, 1e-6);
            assert!(t2.variation_ratio < t.stronger_clone);
        }
    }
}
