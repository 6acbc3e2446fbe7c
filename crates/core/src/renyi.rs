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
//! [`renyi_divergences`] prices a whole order grid in **one pass**: outer
//! weights, inner windows (warm-started from `c − 1`'s) and pmf values are
//! computed once, and only `q·(p/q)^λ` runs per order, into that order's
//! own shell and moment sums in the per-order operation order — so every
//! order is bit-identical to pricing it alone (pinned against a frozen
//! per-order kernel in the tests).
//!
//! [`RoundSpend`] holds that price vector for one round of a workload and
//! owns the only Rényi-to-DP fold: [`RenyiBound`] is a `RoundSpend` plus a
//! round count, and [`composed_epsilon_over`] sums several workloads'
//! spends per order before the same conversion. The engine memoizes
//! spends for `composed` queries and budget-ledger charges
//! ([`crate::engine::AnalysisEngine::round_spend`]).
//!
//! Multi-message protocols (`p = ∞`) have genuinely unbounded Rényi
//! divergence at finite orders (the pair's support differs), so
//! [`renyi_divergences`] returns `+∞` for them; hockey-stick accounting via
//! [`crate::Accountant`] is the right tool there.

use crate::bound::{delta_from_epsilon, names, AmplificationBound, Validity};
use crate::error::{Error, Result};
use crate::params::VariationRatio;
use vr_numerics::Binomial;

/// The Rényi accounting route as an [`AmplificationBound`]: `rounds`
/// adaptive shuffle executions composed at a grid of Rényi orders, converted
/// back to `(ε, δ)`-DP with the best order per query ([`RoundSpend::epsilon`]).
/// `delta` inverts the native `epsilon(δ)` conservatively.
#[derive(Debug, Clone)]
pub struct RenyiBound {
    spend: RoundSpend,
    rounds: u32,
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
        Ok(Self {
            spend: RoundSpend::with_lambdas(vr, n, lambdas)?,
            rounds,
        })
    }
}

impl AmplificationBound for RenyiBound {
    fn name(&self) -> &str {
        names::RENYI
    }

    fn validity(&self) -> Validity {
        self.spend.validity()
    }

    fn delta(&self, eps: f64) -> Result<f64> {
        delta_from_epsilon(eps, |delta| self.epsilon(delta))
    }

    fn epsilon(&self, delta: f64) -> Result<f64> {
        // `+∞` (p = ∞: every finite order diverges) means "no guarantee via
        // this route" — it simply never wins a [`crate::bound::BestOf`].
        Ok(self.spend.epsilon(self.rounds, delta))
    }
}

/// The Rényi price of **one** adaptive shuffle round of a workload: the
/// divergence upper bound at every order of its grid (by default
/// [`default_lambda_grid`]), evaluated once at construction. Prices compose
/// additively across rounds and workloads: the ledger's currency.
#[derive(Debug, Clone)]
pub struct RoundSpend {
    vr: VariationRatio,
    n: u64,
    lambdas: Vec<f64>,
    rdp: Vec<f64>,
}

impl RoundSpend {
    /// Price one round of `(vr, n)` over [`default_lambda_grid`].
    pub fn new(vr: VariationRatio, n: u64) -> Result<Self> {
        Self::with_lambdas(vr, n, default_lambda_grid())
    }

    /// Price one round of `(vr, n)` over an explicit order grid.
    ///
    /// # Errors
    ///
    /// Rejects `n = 0`, an empty grid and any order that is not finite and
    /// `> 1`.
    pub fn with_lambdas(vr: VariationRatio, n: u64, lambdas: Vec<f64>) -> Result<Self> {
        let rdp = renyi_divergences(&vr, n, &lambdas)?;
        Ok(Self {
            vr,
            n,
            lambdas,
            rdp,
        })
    }

    /// The priced workload's parameters.
    pub fn vr(&self) -> VariationRatio {
        self.vr
    }

    /// The priced workload's population.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Validity of the Rényi route: the Mironov conversion never certifies
    /// `δ = 0`, and `p = ∞` diverges at every finite order.
    pub fn validity(&self) -> Validity {
        Validity {
            eps_ceiling: f64::INFINITY,
            conditional: !self.vr.p().is_finite(),
        }
    }

    /// Whether a round of this workload is free at every order (degenerate
    /// `β = 0` workloads): composing more rounds never moves `ε`, so an
    /// affordability search against it cannot terminate by cost growth.
    pub fn is_free(&self) -> bool {
        !self.rdp.iter().any(|&r| r > 0.0)
    }

    /// `ε` after `rounds` adaptive rounds of this workload at failure
    /// probability `delta`: the per-order conversion `rounds·rdp_λ` (one
    /// multiplication, not repeated addition), folded by `min` in grid
    /// order from `+∞`. This is `RenyiBound::epsilon` itself.
    pub fn epsilon(&self, rounds: u32, delta: f64) -> f64 {
        let mut best = f64::INFINITY;
        for (&lambda, &rdp) in self.lambdas.iter().zip(&self.rdp) {
            best = best.min(rdp_to_dp(lambda, rounds as f64 * rdp, delta));
        }
        best
    }

    /// Both spends priced over the same order grid, bit for bit. All
    /// engine-built spends share [`default_lambda_grid`], so a mismatch
    /// marks a custom-grid spend ([`RoundSpend::with_lambdas`]) that must
    /// not silently compose.
    fn grid_matches(&self, other: &RoundSpend) -> bool {
        self.lambdas.len() == other.lambdas.len()
            && self
                .lambdas
                .iter()
                .zip(&other.lambdas)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// One charged term of a composed spend: `rounds` rounds priced by a
/// [`RoundSpend`].
pub type SpendTerm<'a> = (&'a RoundSpend, u32);

/// `ε` of the composition of every term at failure probability `delta`:
/// per order, the Rényi guarantees add (`Σ_w rounds_w · rdp_{w,λ}`, in term
/// order), then the best Mironov conversion over the grid is taken — the
/// multi-workload generalization of [`RoundSpend::epsilon`], to which it is
/// bit-identical for a single term.
///
/// # Errors
///
/// Rejects an empty term list (a ledger reports an uncharged user as zero
/// spend *without* consulting this function — zero rounds of composition
/// have no Rényi conversion) and terms priced over mismatched order grids.
pub fn composed_epsilon_over(terms: &[SpendTerm<'_>], delta: f64) -> Result<f64> {
    let Some(&(first, _)) = terms.first() else {
        return Err(Error::InvalidParameter(
            "composed spend needs at least one charged term".into(),
        ));
    };
    if !terms.iter().all(|&(s, _)| first.grid_matches(s)) {
        return Err(Error::Internal(
            "composed spend mixes Rényi order grids; all terms must share one grid".into(),
        ));
    }
    let mut best = f64::INFINITY;
    for (i, &lambda) in first.lambdas.iter().enumerate() {
        let mut total = 0.0;
        for &(s, rounds) in terms {
            let rdp = s.rdp.get(i).ok_or_else(|| {
                Error::Internal("spend vector shorter than its own order grid".into())
            })?;
            total += rounds as f64 * *rdp;
        }
        best = best.min(rdp_to_dp(lambda, total, delta));
    }
    Ok(best)
}

/// Upper bounds on the Rényi divergence between the shuffled executions on
/// neighboring datasets, via the dominating pair, at every order of
/// `lambdas` (each finite and `> 1`, in any order), in one pass.
pub fn renyi_divergences(vr: &VariationRatio, n: u64, lambdas: &[f64]) -> Result<Vec<f64>> {
    if lambdas.is_empty() {
        return Err(Error::InvalidParameter(
            "need at least one Rényi order".into(),
        ));
    }
    if let Some(lambda) = lambdas.iter().find(|l| !l.is_finite() || **l <= 1.0) {
        return Err(Error::InvalidParameter(format!(
            "every Rényi order must be finite and > 1, got {lambda}"
        )));
    }
    if n == 0 {
        return Err(Error::InvalidParameter("population n must be >= 1".into()));
    }
    if vr.is_degenerate() {
        return Ok(vec![0.0; lambdas.len()]);
    }
    if !vr.p().is_finite() {
        return Ok(vec![f64::INFINITY; lambdas.len()]);
    }
    let alpha = vr.alpha();
    let p_alpha = vr.p_alpha();
    let rest = vr.non_differing();
    let two_r = vr.clone_probability().min(1.0);
    let tail = 1e-15;
    let outer = Binomial::new(n - 1, two_r);
    let (c_lo, c_hi) = outer.support_for_mass(tail);
    let outer_w = outer.weights_in(c_lo, c_hi);
    let mut moment = vec![0.0; lambdas.len()];
    let mut shell = vec![0.0; lambdas.len()];
    let mut covered_q = 0.0;
    let mut window = None;
    for (c, &wc) in (c_lo..).zip(&outer_w) {
        if wc == 0.0 {
            continue;
        }
        let inner = Binomial::new(c, 0.5);
        let w = inner.support_window(tail, window);
        window = Some((w.lo, w.hi));
        let lo = w.lo.saturating_sub(1);
        let hi = (w.hi + 1).min(c + 1);
        // Unflagged shell: P = Q, ratio 1, total conditional mass `rest`.
        shell.fill(rest);
        let mut q_mass = rest;
        // Flagged shell: a ∈ [0, c+1].
        let mut f_prev = if lo == 0 { 0.0 } else { inner.pmf(lo - 1) };
        for a in lo..=hi {
            let f_cur = inner.pmf(a);
            let p_point = p_alpha * f_prev + alpha * f_cur;
            let q_point = alpha * f_prev + p_alpha * f_cur;
            f_prev = f_cur;
            if q_point <= 0.0 {
                continue; // p_point is 0 too when p is finite
            }
            let ratio = p_point / q_point;
            for (s, &lambda) in shell.iter_mut().zip(lambdas) {
                *s += q_point * ratio.powf(lambda);
            }
            q_mass += q_point;
        }
        for (m, &s) in moment.iter_mut().zip(&shell) {
            *m += wc * s;
        }
        covered_q += wc * q_mass;
    }
    // Credit all unenumerated Q-mass at the maximal possible ratio p^λ.
    let dropped = (1.0 - covered_q).max(0.0);
    Ok(moment
        .into_iter()
        .zip(lambdas)
        .map(|(m, &lambda)| {
            let m = m + dropped * vr.p().powf(lambda);
            m.ln().max(0.0) / (lambda - 1.0)
        })
        .collect())
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

/// The per-order kernel as served before [`renyi_divergences`] fused the
/// grid into one pass, frozen verbatim as the fused kernel's bit oracle:
/// it recomputes the outer weights, bisects each inner window from
/// scratch and evaluates two pmfs per point, for one order at a time.
/// Do not edit it to follow the served kernel.
#[cfg(test)]
pub(crate) mod frozen {
    use super::*;

    pub(crate) fn renyi_divergence(vr: &VariationRatio, n: u64, lambda: f64) -> Result<f64> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountant::Accountant;
    use crate::mixture::DominatingPair;
    use proptest::prelude::*;

    /// One order through the fused kernel.
    fn renyi_divergence(vr: &VariationRatio, n: u64, lambda: f64) -> Result<f64> {
        Ok(renyi_divergences(vr, n, &[lambda])?[0])
    }

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

    /// `(p, β, q)` draws covering every branch of the kernel: `p = ∞`
    /// (about a sixth of draws), `β = 0` (degenerate), the worst-case `β`
    /// (no residual) and an interior `β` (a shared residual
    /// `1 − α − pα > 0` in the unflagged shell).
    fn any_workload() -> impl Strategy<Value = VariationRatio> {
        (1.05f64..60.0, 0.0f64..1.0, 1.0f64..40.0).prop_filter_map(
            "valid variation-ratio triple",
            |(p, frac, q)| {
                let p = if p > 50.0 { f64::INFINITY } else { p };
                let beta_max = if p.is_finite() {
                    (p - 1.0) / (p + 1.0)
                } else {
                    1.0
                };
                let beta = match frac {
                    f if f < 0.1 => 0.0,
                    f if f > 0.8 => beta_max,
                    f => f * beta_max,
                };
                VariationRatio::new(p, beta, q).ok()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused pass is bit-identical, order by order, to the frozen
        /// per-order kernel: unsorted custom grids, n ∈ [1, 5000]
        /// (log-uniform, so n ∈ {1, 2, 3} is drawn), `p = ∞` and `β = 0`.
        #[test]
        fn fused_kernel_is_bit_identical_to_the_frozen_per_order_kernel(
            vr in any_workload(),
            log10_n in 0.0f64..3.7,
            grid in prop::collection::vec(1.01f64..130.0, 1..6),
        ) {
            let n = (10f64.powf(log10_n).round() as u64).clamp(1, 5_000);
            let fused = renyi_divergences(&vr, n, &grid).unwrap();
            prop_assert_eq!(fused.len(), grid.len());
            for (&lambda, &got) in grid.iter().zip(&fused) {
                let want = frozen::renyi_divergence(&vr, n, lambda).unwrap();
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "λ = {} diverged at {:?}, n = {}: {} vs {}",
                    lambda,
                    vr,
                    n,
                    got,
                    want
                );
            }
        }
    }

    #[test]
    fn dominates_exact_enumeration() {
        for &eps0 in &[0.5f64, 1.0, 2.0] {
            let vr = VariationRatio::ldp_worst_case(eps0).unwrap();
            for n in [2u64, 5, 12, 30] {
                let grid = [1.5f64, 2.0, 4.0];
                let bounds = renyi_divergences(&vr, n, &grid).unwrap();
                for (&l, &bound) in grid.iter().zip(&bounds) {
                    let exact = exact_renyi(vr, n, l);
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
        let d = renyi_divergences(&vr, 5_000, &[1.5, 2.0, 4.0, 8.0]).unwrap();
        for pair in d.windows(2) {
            assert!(
                pair[1] >= pair[0] - 1e-12,
                "Rényi must be non-decreasing in order"
            );
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
        let b = RenyiBound::new(vr, n, 1).unwrap();
        let e1 = b.epsilon(delta).unwrap();
        let e16 = RenyiBound {
            spend: b.spend.clone(),
            rounds: 16,
        }
        .epsilon(delta)
        .unwrap();
        assert!(e16 < 16.0 * e1, "composition must beat linear scaling");
        assert!(e16 > e1, "more rounds cannot be free");
    }

    #[test]
    fn bound_adapter_matches_free_function() {
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
        assert!(renyi_divergences(&vr, 100, &[]).is_err());
        assert!(composed_epsilon(&vr, 100, 2, 1e-6, &[]).is_err());
    }
}
