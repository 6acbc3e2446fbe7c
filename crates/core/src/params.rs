//! The `(p, β, q)` parameterization at the heart of the variation-ratio
//! framework (Section 4 of the paper).
//!
//! A family of local randomizers `{R_i}` satisfies
//!
//! * the **(p, β)-variation property** if `D_p(R₁(x⁰)‖R₁(x¹)) = 0` (probability
//!   ratios of the victim's randomizer are bounded by `p`) and
//!   `D_1(R₁(x⁰)‖R₁(x¹)) ≤ β` (pairwise total variation at most `β`); and
//! * the **q-ratio property** if `D_q(R₁(x₁)‖R_i(x_i)) = 0` — any other user's
//!   message can "mimic" the victim's message with probability ratio at most
//!   `q`.
//!
//! Derived quantities used throughout (Lemma 4.4): `α = β/(p−1)`,
//! `pα = βp/(p−1)` and the clone probability per other user `2r = 2pα/q`.
//!
//! `p = +∞` is a first-class citizen: multi-message protocols (Table 4) have
//! unbounded victim ratios, and all formulas below are implemented through the
//! finite limits `α → 0`, `pα → β`.

use crate::error::{Error, Result};

/// Variation-ratio parameters `(p, β, q)` of a family of local randomizers.
///
/// Invariants (checked at construction):
/// * `p > 1` (possibly `+∞`), `q ≥ 1`, `0 ≤ β ≤ (p−1)/(p+1)`;
/// * the induced clone probability satisfies `2r ≤ 1` (Lemma 4.5 requires
///   `r ∈ [0, 1/2]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationRatio {
    p: f64,
    beta: f64,
    q: f64,
}

impl VariationRatio {
    /// Build a parameter set, validating all invariants.
    pub fn new(p: f64, beta: f64, q: f64) -> Result<Self> {
        if p.is_nan() || p <= 1.0 {
            return Err(Error::InvalidParameter(format!("p must be > 1 (got {p})")));
        }
        if !(1.0..).contains(&q) || !q.is_finite() {
            return Err(Error::InvalidParameter(format!(
                "q must be finite and >= 1 (got {q})"
            )));
        }
        let beta_max = if p.is_finite() {
            (p - 1.0) / (p + 1.0)
        } else {
            1.0
        };
        if !(0.0..=1.0).contains(&beta) || beta > beta_max + 1e-12 {
            return Err(Error::InvalidParameter(format!(
                "beta must be in [0, (p-1)/(p+1)] = [0, {beta_max}] (got {beta})"
            )));
        }
        let vr = Self {
            p,
            beta: beta.min(beta_max),
            q,
        };
        if vr.r() > 0.5 + 1e-12 {
            return Err(Error::InvalidParameter(format!(
                "clone probability 2r = {} exceeds 1 (r must be <= 1/2); \
                 increase q or decrease beta",
                2.0 * vr.r()
            )));
        }
        Ok(vr)
    }

    /// The worst-case parameters of an arbitrary `ε₀`-LDP randomizer:
    /// `p = q = e^{ε₀}`, `β = (e^{ε₀}−1)/(e^{ε₀}+1)` (the randomized-response
    /// extremal bound of Kairouz–Oh–Viswanath, Table 2 row 1).
    ///
    /// Per the paper's discussion in Section 4.1, accounting with these
    /// parameters is exactly the *stronger clone* reduction of Feldman,
    /// McMillan & Talwar (SODA 2023).
    pub fn ldp_worst_case(eps0: f64) -> Result<Self> {
        if !eps0.is_finite() || eps0 <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "eps0 must be positive and finite (got {eps0})"
            )));
        }
        let e = eps0.exp();
        Self::new(e, (e - 1.0) / (e + 1.0), e)
    }

    /// Parameters of a specific `ε₀`-LDP randomizer whose pairwise total
    /// variation bound `β` is tighter than the worst case (Table 2 rows).
    pub fn ldp_with_beta(eps0: f64, beta: f64) -> Result<Self> {
        if !eps0.is_finite() || eps0 <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "eps0 must be positive and finite (got {eps0})"
            )));
        }
        let e = eps0.exp();
        Self::new(e, beta, e)
    }

    /// Maximum probability ratio `p` of the victim's randomizer
    /// (`+∞` for multi-message protocols).
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Pairwise total variation bound `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Mimic ratio `q` of other users' messages.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// `α = β/(p−1)` — the weight of each differing mixture component in the
    /// victim's decomposition (Lemma 4.4); `0` when `p = ∞`.
    pub fn alpha(&self) -> f64 {
        if self.p.is_finite() {
            self.beta / (self.p - 1.0)
        } else {
            0.0
        }
    }

    /// `pα = βp/(p−1)` — the dominant differing component weight; `β` when
    /// `p = ∞`.
    pub fn p_alpha(&self) -> f64 {
        if self.p.is_finite() {
            self.beta * self.p / (self.p - 1.0)
        } else {
            self.beta
        }
    }

    /// Weight of the non-differing component of the victim's mixture,
    /// `1 − α − pα` (zero at the worst-case `β`).
    pub fn non_differing(&self) -> f64 {
        (1.0 - self.alpha() - self.p_alpha()).max(0.0)
    }

    /// Per-user one-sided clone probability `r = pα/q` (Lemma 4.4: each other
    /// user's message is a clone of `Q₁⁰` w.p. `r` and of `Q₁¹` w.p. `r`).
    pub fn r(&self) -> f64 {
        self.p_alpha() / self.q
    }

    /// Total clone probability per other user, `2r`.
    pub fn clone_probability(&self) -> f64 {
        2.0 * self.r()
    }

    /// Upper limit of the amplified ε search range: `ln p`, since the victim
    /// is always protected at level `ln p` by the randomizer itself
    /// (`+∞` for multi-message protocols).
    pub fn epsilon_limit(&self) -> f64 {
        if self.p.is_finite() {
            self.p.ln()
        } else {
            f64::INFINITY
        }
    }

    /// Whether the parameters describe a perfectly private randomizer
    /// (`β = 0`): shuffled outputs are identically distributed and every
    /// divergence is 0.
    pub fn is_degenerate(&self) -> bool {
        self.beta == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_numerics::is_close;

    #[test]
    fn worst_case_ldp_parameters() {
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        let e = 1.0f64.exp();
        assert!(is_close(vr.p(), e, 1e-15));
        assert!(is_close(vr.q(), e, 1e-15));
        assert!(is_close(vr.beta(), (e - 1.0) / (e + 1.0), 1e-15));
        // At the worst-case beta the non-differing component vanishes and the
        // clone probability becomes 2/(e^eps+1) — the stronger-clone value.
        assert!(vr.non_differing() < 1e-12);
        assert!(is_close(vr.clone_probability(), 2.0 / (e + 1.0), 1e-12));
    }

    #[test]
    fn derived_quantities_consistency() {
        let vr = VariationRatio::new(3.0, 0.2, 5.0).unwrap();
        assert!(is_close(vr.alpha(), 0.1, 1e-15));
        assert!(is_close(vr.p_alpha(), 0.3, 1e-15));
        assert!(is_close(vr.non_differing(), 0.6, 1e-15));
        assert!(is_close(vr.r(), 0.06, 1e-15));
        assert!(is_close(vr.epsilon_limit(), 3.0f64.ln(), 1e-15));
    }

    #[test]
    fn infinite_p_limits() {
        let vr = VariationRatio::new(f64::INFINITY, 0.7, 4.0).unwrap();
        assert_eq!(vr.alpha(), 0.0);
        assert_eq!(vr.p_alpha(), 0.7);
        assert!(is_close(vr.non_differing(), 0.3, 1e-15));
        assert!(is_close(vr.r(), 0.175, 1e-15));
        assert_eq!(vr.epsilon_limit(), f64::INFINITY);
    }

    #[test]
    fn beta_one_requires_infinite_p() {
        assert!(VariationRatio::new(f64::INFINITY, 1.0, 2.0).is_ok());
        assert!(VariationRatio::new(10.0, 1.0, 2.0).is_err());
    }

    #[test]
    fn rejects_out_of_domain() {
        assert!(VariationRatio::new(1.0, 0.0, 1.0).is_err()); // p must be > 1
        assert!(VariationRatio::new(0.5, 0.0, 1.0).is_err());
        assert!(VariationRatio::new(2.0, -0.1, 1.0).is_err());
        assert!(VariationRatio::new(2.0, 0.5, 1.0).is_err()); // beta > (p-1)/(p+1) = 1/3
        assert!(VariationRatio::new(2.0, 0.2, 0.5).is_err()); // q < 1
        assert!(VariationRatio::new(2.0, 0.2, f64::INFINITY).is_err());
        // r > 1/2: p=10, beta=0.6, q=1 -> r = (10*0.6/9)/1 = 0.667.
        assert!(VariationRatio::new(10.0, 0.6, 1.0).is_err());
        assert!(VariationRatio::new(f64::NAN, 0.2, 1.0).is_err());
    }

    #[test]
    fn boundary_r_exactly_half_is_accepted() {
        // Balcer–Cheu uniform-coin protocol: p = ∞, β = 1, q = 2 ⇒ r = 1/2.
        let vr = VariationRatio::new(f64::INFINITY, 1.0, 2.0).unwrap();
        assert!(is_close(vr.r(), 0.5, 1e-15));
        assert_eq!(vr.non_differing(), 0.0);
    }

    #[test]
    fn degenerate_beta_zero() {
        let vr = VariationRatio::new(2.0, 0.0, 1.0).unwrap();
        assert!(vr.is_degenerate());
        assert_eq!(vr.r(), 0.0);
    }

    #[test]
    fn specific_beta_tightens_worst_case() {
        let wc = VariationRatio::ldp_worst_case(2.0).unwrap();
        let sp = VariationRatio::ldp_with_beta(2.0, 0.1).unwrap();
        assert!(sp.beta() < wc.beta());
        assert!(sp.clone_probability() < wc.clone_probability());
    }
}
