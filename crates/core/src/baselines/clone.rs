//! The clone reduction (Feldman–McMillan–Talwar, FOCS 2021) and stronger
//! clone reduction (SODA 2023) as exact parameter mappings into the
//! variation-ratio accountant.
//!
//! # Why a mapping is exact
//!
//! **Stronger clone.** The paper notes in Section 4.1 that the worst-case
//! total variation `β = (e^{ε₀}−1)/(e^{ε₀}+1)` makes Theorem 4.7's dominating
//! pair *identical* to the stronger-clone reduction: with that β,
//! `α = 1/(e^{ε₀}+1)`, `pα = e^{ε₀}/(e^{ε₀}+1)`, the non-differing component
//! vanishes and the clone probability is `2r = 2/(e^{ε₀}+1)` — precisely the
//! FMT'23 mixture.
//!
//! **Clone (FMT'21).** The FOCS 2021 reduction differs from the stronger
//! clone only in the clone probability: each non-victim message clones one of
//! the two victim distributions with total probability `e^{−ε₀}` instead of
//! `2/(e^{ε₀}+1)`. In variation-ratio terms this is the same `(p, β)` with an
//! effective `q` solving `2·pα/q = e^{−ε₀}`:
//!
//! `q_clone = 2·e^{2ε₀}/(e^{ε₀}+1)`.
//!
//! Both mappings therefore reuse [`crate::Accountant`] verbatim; no separate
//! numerical machinery is required, and the resulting curves are the exact
//! numerical versions of the originals' dominating pairs.

use crate::accountant::{NumericalBound, SearchOptions};
use crate::bound::names;
use crate::error::Result;
use crate::params::VariationRatio;

/// Variation-ratio parameters equivalent to the FMT'21 clone reduction.
pub fn clone_params(eps0: f64) -> Result<VariationRatio> {
    let e = eps0.exp();
    VariationRatio::new(e, (e - 1.0) / (e + 1.0), 2.0 * e * e / (e + 1.0))
}

/// Variation-ratio parameters equivalent to the FMT'23 stronger clone
/// reduction (identical to [`VariationRatio::ldp_worst_case`]).
pub fn stronger_clone_params(eps0: f64) -> Result<VariationRatio> {
    VariationRatio::ldp_worst_case(eps0)
}

/// The FMT'21 clone reduction on the unified engine: the variation-ratio
/// accountant at [`clone_params`], registered as
/// [`names::CLONE`].
pub fn clone_bound(eps0: f64, n: u64, opts: SearchOptions) -> Result<NumericalBound> {
    NumericalBound::named(names::CLONE, clone_params(eps0)?, n, opts)
}

/// The FMT'23 stronger clone on the unified engine: the variation-ratio
/// accountant at [`stronger_clone_params`], registered as
/// [`names::STRONGER_CLONE`].
pub fn stronger_clone_bound(eps0: f64, n: u64, opts: SearchOptions) -> Result<NumericalBound> {
    NumericalBound::named(names::STRONGER_CLONE, stronger_clone_params(eps0)?, n, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::AmplificationBound;
    use vr_numerics::is_close;

    #[test]
    fn clone_probability_mappings() {
        let eps0 = 1.3f64;
        let e = eps0.exp();
        let c = clone_params(eps0).unwrap();
        assert!(is_close(c.clone_probability(), (-eps0).exp(), 1e-12));
        let sc = stronger_clone_params(eps0).unwrap();
        assert!(is_close(sc.clone_probability(), 2.0 / (e + 1.0), 1e-12));
        // Stronger clone has strictly more clones (it is stronger).
        assert!(sc.clone_probability() > c.clone_probability());
    }

    #[test]
    fn stronger_clone_beats_clone() {
        let opts = SearchOptions::default();
        for &eps0 in &[0.5f64, 1.0, 2.0, 4.0] {
            let c = clone_bound(eps0, 100_000, opts)
                .and_then(|b| b.epsilon(1e-7))
                .unwrap();
            let sc = stronger_clone_bound(eps0, 100_000, opts)
                .and_then(|b| b.epsilon(1e-7))
                .unwrap();
            assert!(sc <= c + 1e-12, "eps0={eps0}: stronger {sc} vs clone {c}");
        }
    }

    #[test]
    fn variation_ratio_with_tighter_beta_beats_stronger_clone() {
        use crate::accountant::Accountant;
        let eps0 = 2.0f64;
        let n = 100_000;
        let delta = 1e-7;
        let opts = SearchOptions::default();
        let sc = stronger_clone_bound(eps0, n, opts)
            .and_then(|b| b.epsilon(delta))
            .unwrap();
        // Subset-selection-like beta, far below worst case:
        let beta = 0.1;
        let vr = VariationRatio::ldp_with_beta(eps0, beta).unwrap();
        let ours = Accountant::new(vr, n)
            .unwrap()
            .epsilon(delta, opts)
            .unwrap();
        assert!(ours < sc, "tight beta must help: {ours} vs {sc}");
    }

    #[test]
    fn amplification_improves_with_population() {
        let opts = SearchOptions::default();
        let a = clone_bound(1.0, 10_000, opts)
            .and_then(|b| b.epsilon(1e-6))
            .unwrap();
        let b = clone_bound(1.0, 1_000_000, opts)
            .and_then(|b| b.epsilon(1e-6))
            .unwrap();
        assert!(b < a);
    }
}
