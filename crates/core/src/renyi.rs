//! Rényi-divergence accounting of the shuffled dominating pair — the
//! sequential-composition extension enabled by Theorem 4.7.
//!
//! Theorem 4.7 holds for *any* divergence satisfying the data-processing
//! inequality, Rényi divergences included (the paper notes this below
//! Lemma 4.6). One shuffle round therefore satisfies
//! `RDP(λ) ≤ D_λ(P^q_{p,β} ‖ Q^q_{p,β})`, Rényi guarantees add across
//! adaptive rounds, and the total converts back to `(ε, δ)`-DP.
//!
//! # Evaluation
//!
//! Conditioned on the clone count `C = c`, the pair splits into two disjoint
//! shells: totals `a + b = c + 1` (victim flag present, conditional pmfs
//! `P(a) = pα·f(a−1) + α·f(a)`, `Q(a) = α·f(a−1) + pα·f(a)` with
//! `f = Binom(c, ½)` pmf) and `a + b = c` (no flag, `P = Q`, ratio 1). The
//! moment `E_Q[(P/Q)^λ]` is computed per shell; since `(p, q) ↦ q·(p/q)^λ`
//! is jointly convex for `λ > 1`, conditioning on `c` only *increases* the
//! moment, so the result is a valid upper bound on the unconditional
//! divergence. Truncated outer/inner mass is credited at the maximal ratio
//! `p^λ`, keeping the bound rigorous.
//!
//! Multi-message protocols (`p = ∞`) have genuinely unbounded Rényi
//! divergence at finite orders (the pair's support differs), so
//! [`renyi_divergence`] returns `+∞` for them; hockey-stick accounting via
//! [`crate::Accountant`] is the right tool there.

use crate::bound::{delta_from_epsilon, names, AmplificationBound, Validity};
use crate::error::{Error, Result};
use crate::params::VariationRatio;
use vr_numerics::Binomial;

/// The Rényi accounting route as an [`AmplificationBound`]: `rounds`
/// adaptive shuffle executions composed at a grid of Rényi orders, converted
/// back to `(ε, δ)`-DP with the best order per query. `delta` inverts the
/// native `epsilon(δ)` conservatively.
#[derive(Debug, Clone)]
pub struct RenyiBound {
    vr: VariationRatio,
    n: u64,
    rounds: u32,
    lambdas: Vec<f64>,
}

impl RenyiBound {
    /// Rényi bound over [`default_lambda_grid`].
    pub fn new(vr: VariationRatio, n: u64, rounds: u32) -> Result<Self> {
        Self::with_lambdas(vr, n, rounds, default_lambda_grid())
    }

    /// Rényi bound over an explicit order grid (each `λ > 1`).
    pub fn with_lambdas(
        vr: VariationRatio,
        n: u64,
        rounds: u32,
        lambdas: Vec<f64>,
    ) -> Result<Self> {
        if lambdas.is_empty() {
            return Err(Error::InvalidParameter(
                "need at least one Rényi order".into(),
            ));
        }
        // Reject bad orders here, where the grid enters, instead of letting
        // a NaN or λ ≤ 1 surface later as a confusing per-order error (or,
        // worse, poison a comparison) deep inside `epsilon`.
        for &lambda in &lambdas {
            if !lambda.is_finite() || lambda <= 1.0 {
                return Err(Error::InvalidParameter(format!(
                    "every Rényi order must be finite and > 1, got {lambda}"
                )));
            }
        }
        if n == 0 {
            return Err(Error::InvalidParameter("population n must be >= 1".into()));
        }
        Ok(Self {
            vr,
            n,
            rounds,
            lambdas,
        })
    }
}

impl AmplificationBound for RenyiBound {
    fn name(&self) -> &str {
        names::RENYI
    }

    fn validity(&self) -> Validity {
        Validity {
            // The Mironov conversion never certifies δ = 0 at finite ε.
            eps_ceiling: f64::INFINITY,
            // p = ∞ has unbounded Rényi divergence at every finite order.
            conditional: !self.vr.p().is_finite(),
        }
    }

    fn delta(&self, eps: f64) -> Result<f64> {
        delta_from_epsilon(eps, |delta| self.epsilon(delta))
    }

    fn epsilon(&self, delta: f64) -> Result<f64> {
        // `+∞` (p = ∞: every finite order diverges) means "no guarantee via
        // this route" — it simply never wins a [`crate::bound::BestOf`].
        let mut best = f64::INFINITY;
        for &lambda in &self.lambdas {
            let rdp = renyi_divergence(&self.vr, self.n, lambda)?;
            best = best.min(rdp_to_dp(lambda, self.rounds as f64 * rdp, delta));
        }
        Ok(best)
    }
}

/// Upper bound on the Rényi divergence of order `lambda > 1` between the
/// shuffled executions on neighboring datasets, via the dominating pair.
pub fn renyi_divergence(vr: &VariationRatio, n: u64, lambda: f64) -> Result<f64> {
    if !lambda.is_finite() || lambda <= 1.0 {
        return Err(Error::InvalidParameter(format!(
            "lambda must be in (1, ∞), got {lambda}"
        )));
    }
    if n == 0 {
        return Err(Error::InvalidParameter("population n must be >= 1".into()));
    }
    if vr.is_degenerate() {
        return Ok(0.0);
    }
    if !vr.p().is_finite() {
        return Ok(f64::INFINITY);
    }
    let alpha = vr.alpha();
    let p_alpha = vr.p_alpha();
    let rest = vr.non_differing();
    let two_r = vr.clone_probability().min(1.0);
    let tail = 1e-15;
    let max_ratio_pow = vr.p().powf(lambda);

    let outer = Binomial::new(n - 1, two_r);
    let (c_lo, c_hi) = outer.support_for_mass(tail);
    let outer_w = outer.weights_in(c_lo, c_hi);

    let mut moment = 0.0;
    let mut covered_q = 0.0;
    for (i, &wc) in outer_w.iter().enumerate() {
        if wc == 0.0 {
            continue;
        }
        let c = c_lo + i as u64;
        let inner = Binomial::new(c, 0.5);
        let (a_lo, a_hi) = inner.support_for_mass(tail);
        let lo = a_lo.saturating_sub(1);
        let hi = (a_hi + 1).min(c + 1);
        // Unflagged shell: P = Q, ratio 1, total conditional mass `rest`.
        let mut shell = rest;
        let mut q_mass = rest;
        // Flagged shell: a ∈ [0, c+1].
        for a in lo..=hi {
            let f_prev = if a == 0 { 0.0 } else { inner.pmf(a - 1) };
            let f_cur = inner.pmf(a);
            let p_point = p_alpha * f_prev + alpha * f_cur;
            let q_point = alpha * f_prev + p_alpha * f_cur;
            if q_point <= 0.0 {
                continue; // p_point is 0 too when p is finite
            }
            shell += q_point * (p_point / q_point).powf(lambda);
            q_mass += q_point;
        }
        moment += wc * shell;
        covered_q += wc * q_mass;
    }
    // Credit all unenumerated Q-mass at the maximal possible ratio p^λ.
    let dropped = (1.0 - covered_q).max(0.0);
    moment += dropped * max_ratio_pow;
    Ok(moment.ln().max(0.0) / (lambda - 1.0))
}

/// Convert a composed Rényi guarantee `(λ, rdp)` to `(ε, δ)`-DP via the
/// standard Mironov conversion `ε = rdp + ln(1/δ)/(λ − 1)`.
pub fn rdp_to_dp(lambda: f64, rdp: f64, delta: f64) -> f64 {
    rdp + (1.0 / delta).ln() / (lambda - 1.0)
}

/// Account `rounds` adaptive shuffle rounds at Rényi orders `lambdas` and
/// return the best `(ε, δ)` conversion — the thin free-function wrapper over
/// [`RenyiBound`].
pub fn composed_epsilon(
    vr: &VariationRatio,
    n: u64,
    rounds: u32,
    delta: f64,
    lambdas: &[f64],
) -> Result<f64> {
    RenyiBound::with_lambdas(*vr, n, rounds, lambdas.to_vec())?.epsilon(delta)
}

/// A sensible default grid of Rényi orders for [`composed_epsilon`].
pub fn default_lambda_grid() -> Vec<f64> {
    let mut v: Vec<f64> = (2..=16).map(f64::from).collect();
    v.extend([1.25, 1.5, 1.75, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0]);
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountant::Accountant;
    use crate::mixture::DominatingPair;

    /// Exact Rényi divergence of the pair by full enumeration (small n).
    fn exact_renyi(vr: VariationRatio, n: u64, lambda: f64) -> f64 {
        let dp = DominatingPair::new(vr, n);
        let mut moment = 0.0;
        for (_, _, p, q) in dp.enumerate(-1.0) {
            if q > 0.0 {
                moment += q * (p / q).powf(lambda);
            } else if p > 0.0 {
                return f64::INFINITY;
            }
        }
        moment.ln() / (lambda - 1.0)
    }

    #[test]
    fn dominates_exact_enumeration() {
        for &eps0 in &[0.5f64, 1.0, 2.0] {
            let vr = VariationRatio::ldp_worst_case(eps0).unwrap();
            for n in [2u64, 5, 12, 30] {
                for &l in &[1.5f64, 2.0, 4.0] {
                    let exact = exact_renyi(vr, n, l);
                    let bound = renyi_divergence(&vr, n, l).unwrap();
                    assert!(
                        bound >= exact - 1e-10,
                        "conditional bound below exact at eps0={eps0} n={n} λ={l}: \
                         {bound} vs {exact}"
                    );
                    // The conditioning slack should stay moderate.
                    assert!(
                        bound <= exact * 3.0 + 1e-6,
                        "bound too loose at eps0={eps0} n={n} λ={l}: {bound} vs {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn nan_and_out_of_domain_orders_are_rejected_not_sorted() {
        // Regression: the best-order selection sorts candidate (ε, λ) pairs
        // with `f64::total_cmp`, but a NaN λ used to reach it and panic in
        // the old `partial_cmp(..).unwrap()` comparator. Bad orders must be
        // rejected at grid entry as an error — never a panic, and never a
        // NaN silently "winning" the sort.
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0, 0.5, -2.0] {
            let r = RenyiBound::with_lambdas(vr, 1_000, 1, vec![2.0, bad, 4.0]);
            assert!(r.is_err(), "λ = {bad} must be rejected at construction");
            let r = composed_epsilon(&vr, 1_000, 1, 1e-8, &[bad]);
            assert!(
                r.is_err(),
                "λ = {bad} must be rejected via composed_epsilon"
            );
        }
        // An all-valid grid in scrambled order still works.
        let eps = composed_epsilon(&vr, 1_000, 1, 1e-8, &[16.0, 1.5, 8.0, 2.0]).unwrap();
        assert!(eps.is_finite() && eps > 0.0);
    }

    #[test]
    fn renyi_decreases_with_population() {
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        let d1 = renyi_divergence(&vr, 1_000, 2.0).unwrap();
        let d2 = renyi_divergence(&vr, 10_000, 2.0).unwrap();
        assert!(d2 < d1, "{d2} !< {d1}");
    }

    #[test]
    fn renyi_increases_with_order() {
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        let mut prev = 0.0;
        for &l in &[1.5, 2.0, 4.0, 8.0] {
            let d = renyi_divergence(&vr, 5_000, l).unwrap();
            assert!(d >= prev - 1e-12, "Rényi must be non-decreasing in order");
            prev = d;
        }
    }

    #[test]
    fn infinite_for_multi_message() {
        let vr = VariationRatio::new(f64::INFINITY, 1.0, 4.0).unwrap();
        assert_eq!(renyi_divergence(&vr, 1_000, 2.0).unwrap(), f64::INFINITY);
    }

    #[test]
    fn single_round_conversion_is_sane_vs_hockey_stick() {
        let vr = VariationRatio::ldp_worst_case(2.0).unwrap();
        let n = 10_000;
        let delta = 1e-6;
        let via_rdp = composed_epsilon(&vr, n, 1, delta, &default_lambda_grid()).unwrap();
        let direct = Accountant::new(vr, n)
            .unwrap()
            .epsilon_default(delta)
            .unwrap();
        assert!(
            via_rdp >= direct * 0.99,
            "RDP route cannot beat the exact accountant"
        );
        assert!(
            via_rdp < direct * 30.0,
            "RDP route should be loosely comparable"
        );
    }

    #[test]
    fn composition_grows_sublinearly() {
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        let n = 10_000;
        let delta = 1e-6;
        let grid = default_lambda_grid();
        let e1 = composed_epsilon(&vr, n, 1, delta, &grid).unwrap();
        let e16 = composed_epsilon(&vr, n, 16, delta, &grid).unwrap();
        assert!(e16 < 16.0 * e1, "composition must beat linear scaling");
        assert!(e16 > e1, "more rounds cannot be free");
    }

    #[test]
    fn bound_adapter_matches_free_function() {
        use crate::bound::AmplificationBound;
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        let n = 10_000;
        let grid = default_lambda_grid();
        let b = RenyiBound::new(vr, n, 4).unwrap();
        for delta in [1e-5, 1e-7] {
            assert_eq!(
                b.epsilon(delta).unwrap().to_bits(),
                composed_epsilon(&vr, n, 4, delta, &grid).unwrap().to_bits()
            );
        }
        // Multi-message: infinite ε means the route never wins, and the
        // inverted δ degrades to the trivial 1.
        let mm = VariationRatio::new(f64::INFINITY, 1.0, 4.0).unwrap();
        let b = RenyiBound::new(mm, 1_000, 1).unwrap();
        assert_eq!(b.epsilon(1e-6).unwrap(), f64::INFINITY);
        assert_eq!(b.delta(3.0).unwrap(), 1.0);
    }

    #[test]
    fn degenerate_and_invalid() {
        let vr = VariationRatio::new(2.0, 0.0, 2.0).unwrap();
        assert_eq!(renyi_divergence(&vr, 100, 2.0).unwrap(), 0.0);
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        assert!(renyi_divergence(&vr, 100, 1.0).is_err());
        assert!(renyi_divergence(&vr, 0, 2.0).is_err());
        assert!(composed_epsilon(&vr, 100, 2, 1e-6, &[]).is_err());
    }
}
