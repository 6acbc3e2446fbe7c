//! Amplification **lower bounds** (Section 5 of the paper): Theorem 5.1
//! parameter extraction, the asymmetric dominating pair `P^{q₀,q₁}_{p₀,β}` /
//! `Q^{q₀,q₁}_{p₀,β}`, Proposition I.1's divergence-as-expectation, and
//! Algorithm 3's bisection.
//!
//! Given a concrete randomizer with finite output domain, the construction
//! post-processes each shuffled message through the sign of
//! `P[R₁(x¹)=y] − P[R₁(x⁰)=y]` and counts the two labels; the resulting pair
//! of bivariate counts *lower*-bounds the worst-case shuffled divergence by
//! data processing. When the expected ratios `p₀, q₀, q₁` coincide with the
//! maximal ratios `p, q` (extremal-design randomizers: GRR on ≥ 3 options,
//! local hash with ≥ 3 buckets, Hadamard response, …), the lower bound meets
//! Theorem 4.7's upper bound exactly.
//!
//! The same machinery run to the *feasible* end of the bisection yields
//! `per-mechanism upper bounds` for randomizers that are not exactly tight
//! under Theorem 4.7 (Appendix I, last paragraph).

use crate::bound::{check_eps, names, AmplificationBound, BoundKind, Validity};
use crate::error::{Error, Result};
use vr_numerics::search::bisect_monotone;
use vr_numerics::Binomial;

/// Expected-ratio parameters of Theorem 5.1 extracted from concrete
/// distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowerBoundParams {
    /// Expected probability ratio over the region where `R₁(x¹) > R₁(x⁰)`
    /// (may be `+∞` when the victim's support differs across inputs).
    pub p0: f64,
    /// Exact total variation `D_1(R₁(x¹) ‖ R₁(x⁰))`.
    pub beta: f64,
    /// Expected victim-to-blanket ratio over the region where
    /// `R₁(x¹) < R₁(x⁰)`.
    pub q0: f64,
    /// Expected victim-to-blanket ratio over the region where
    /// `R₁(x¹) > R₁(x⁰)`.
    pub q1: f64,
}

impl LowerBoundParams {
    /// Extract `(p₀, β, q₀, q₁)` from the victim's two output distributions
    /// and a fixed blanket distribution (the `R₂(x*)` of Theorem 5.1).
    ///
    /// All three slices must be pmfs over the same finite output domain.
    pub fn from_distributions(r1_x0: &[f64], r1_x1: &[f64], blanket: &[f64]) -> Result<Self> {
        if r1_x0.len() != r1_x1.len() || r1_x0.len() != blanket.len() {
            return Err(Error::InvalidParameter(
                "distributions must share one output domain".into(),
            ));
        }
        let mut up1 = 0.0; // Σ over {R1(x1) > R1(x0)} of R1(x1)
        let mut up0 = 0.0; // Σ over the same region of R1(x0)
        let mut up_b = 0.0; // Σ over the same region of the blanket
        let mut down0 = 0.0; // Σ over {R1(x1) < R1(x0)} of R1(x0)
        let mut down_b = 0.0; // Σ over the same region of the blanket
        for ((&a, &b), &w) in r1_x0.iter().zip(r1_x1).zip(blanket) {
            if b > a {
                up1 += b;
                up0 += a;
                up_b += w;
            } else if b < a {
                down0 += a;
                down_b += w;
            }
        }
        let beta = up1 - up0; // = Σ max(0, R1(x1) − R1(x0)) = TV distance
        if beta <= 0.0 {
            return Err(Error::InvalidParameter(
                "distributions are identical: no lower bound to extract (beta = 0)".into(),
            ));
        }
        let p0 = if up0 > 0.0 { up1 / up0 } else { f64::INFINITY };
        if p0 <= 1.0 {
            return Err(Error::InvalidParameter(format!(
                "expected ratio p0 = {p0} must exceed 1"
            )));
        }
        if up_b <= 0.0 || down_b <= 0.0 {
            return Err(Error::InvalidParameter(
                "blanket has no mass on a differing region; pick another blanket input".into(),
            ));
        }
        let q1 = up1 / up_b;
        let q0 = down0 / down_b;
        if q0 < 1.0 - 1e-12 || q1 < 1.0 - 1e-12 {
            return Err(Error::InvalidParameter(format!(
                "expected blanket ratios must be >= 1 (q0 = {q0}, q1 = {q1})"
            )));
        }
        Ok(Self {
            p0,
            beta,
            q0: q0.max(1.0),
            q1: q1.max(1.0),
        })
    }

    /// Theorem 5.1's worst-case blanket choice: among `candidates`, pick the
    /// `x*` maximizing the smaller of the two victim-to-blanket ratios.
    /// Returns the extracted parameters and the index of the chosen blanket.
    pub fn with_worst_blanket(
        r1_x0: &[f64],
        r1_x1: &[f64],
        candidates: &[Vec<f64>],
    ) -> Result<(Self, usize)> {
        let mut best: Option<(Self, usize, f64)> = None;
        for (i, cand) in candidates.iter().enumerate() {
            if let Ok(params) = Self::from_distributions(r1_x0, r1_x1, cand) {
                let score = params.q0.min(params.q1);
                if best.as_ref().is_none_or(|(_, _, s)| score > *s) {
                    best = Some((params, i, score));
                }
            }
        }
        best.map(|(p, i, _)| (p, i)).ok_or_else(|| {
            Error::InvalidParameter("no candidate blanket admits a valid extraction".into())
        })
    }

    fn alpha(&self) -> f64 {
        if self.p0.is_finite() {
            self.beta / (self.p0 - 1.0)
        } else {
            0.0
        }
    }

    fn p_alpha(&self) -> f64 {
        if self.p0.is_finite() {
            self.beta * self.p0 / (self.p0 - 1.0)
        } else {
            self.beta
        }
    }

    fn rest(&self) -> f64 {
        (1.0 - self.alpha() - self.p_alpha()).max(0.0)
    }

    /// One-sided clone probabilities `(r₀, r₁) = (p₀α/q₀, p₀α/q₁)`.
    pub fn clone_rates(&self) -> (f64, f64) {
        (self.p_alpha() / self.q0, self.p_alpha() / self.q1)
    }
}

/// Evaluator of the asymmetric dominating pair's hockey-stick divergences
/// (Proposition I.1) and Algorithm 3's bisection.
#[derive(Debug, Clone, Copy)]
pub struct LowerBoundAccountant {
    params: LowerBoundParams,
    n: u64,
}

impl LowerBoundAccountant {
    /// Create the accountant; validates `q₀/q₁ ∈ [1/p₀, p₀]` (needed for the
    /// ratio monotonicity that Proposition I.1 exploits) and `r₀ + r₁ ≤ 1`.
    pub fn new(params: LowerBoundParams, n: u64) -> Result<Self> {
        if n == 0 {
            return Err(Error::InvalidParameter("population n must be >= 1".into()));
        }
        let ratio = params.q0 / params.q1;
        if params.p0.is_finite() && (ratio > params.p0 || ratio < 1.0 / params.p0) {
            return Err(Error::InvalidParameter(format!(
                "q0/q1 = {ratio} outside [1/p0, p0]; monotonicity of the likelihood \
                 ratio is not guaranteed"
            )));
        }
        let (r0, r1) = params.clone_rates();
        if r0 + r1 > 1.0 + 1e-12 {
            return Err(Error::InvalidParameter(format!(
                "r0 + r1 = {} exceeds 1",
                r0 + r1
            )));
        }
        Ok(Self { params, n })
    }

    /// The extracted parameters.
    pub fn params(&self) -> &LowerBoundParams {
        &self.params
    }

    /// Both hockey-stick directions
    /// `(D_{e^ε}(P‖Q), D_{e^ε}(Q‖P))` of Proposition I.1.
    ///
    /// The outer binomial scan is truncated to the mass-(1 − 1e-15) support
    /// *without* crediting the neglected mass, so both values are (slight)
    /// under-estimates — exactly the safe direction for a lower bound.
    ///
    /// (Named distinctly from the single-valued
    /// [`AmplificationBound::delta`], which returns the max of the two
    /// directions.)
    pub fn delta_directions(&self, eps: f64) -> (f64, f64) {
        assert!(eps >= 0.0 && !eps.is_nan());
        let p = &self.params;
        let alpha = p.alpha();
        let p_alpha = p.p_alpha();
        let rest = p.rest();
        let (r0, r1) = p.clone_rates();
        let rr = (r0 + r1).min(1.0);
        let rho = if rr > 0.0 { r0 / (r0 + r1) } else { 0.5 };
        let n = self.n;
        let ee = eps.exp();
        let een = (-eps).exp();

        // Coefficients shared by both directions (p = ∞ safe).
        let coef_a = p_alpha - ee * alpha; //  (p − e^ε)α
        let coef_b = alpha - ee * p_alpha; //  (1 − p·e^ε)α
        let coef_c = (1.0 - ee) * rest; //     (1 − e^ε)(1 − α − pα)
        if coef_a <= 0.0 {
            return (0.0, 0.0);
        }

        // g(t) = (1 − α − pα)(n − t)/(1 − r0 − r1).
        let g = |t: u64| -> f64 {
            let remaining = (n - t.min(n)) as f64;
            if rest == 0.0 || remaining == 0.0 {
                0.0
            } else if 1.0 - rr <= 0.0 {
                f64::INFINITY
            } else {
                rest * remaining / (1.0 - rr)
            }
        };
        // low(t): a > low(t) ⇔ ratio > e^ε. Denominator
        // α(p/r0 − 1/r1 + e^ε(p/r1 − 1/r0)) written p = ∞ safe.
        let low = |t: u64| -> f64 {
            let num = (ee * p_alpha - alpha) * t as f64 / r1 + (ee - 1.0) * g(t);
            let den = p_alpha / r0 - alpha / r1 + ee * (p_alpha / r1 - alpha / r0);
            num / den
        };
        // high(t): a < high(t) ⇔ ratio < e^{−ε}.
        let high = |t: u64| -> f64 {
            let num = (een * p_alpha - alpha) * t as f64 / r1 + (een - 1.0) * g(t);
            let den = p_alpha / r0 - alpha / r1 + een * (p_alpha / r1 - alpha / r0);
            num / den
        };

        let outer = Binomial::new(n - 1, rr);
        let (c_lo, c_hi) = outer.support_for_mass(1e-15);
        let weights = outer.weights_in(c_lo, c_hi);
        let mut d_pq = 0.0;
        let mut d_qp = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let c = c_lo + i as u64;
            let inner = Binomial::new(c, rho);
            // D(P‖Q): upper tails at the low thresholds.
            let t_next = low(c + 1).ceil() as i64;
            let t_cur = low(c).ceil() as i64;
            // Per-c terms may be negative; only the final sums are clamped
            // (clamping each term would overestimate — fatal for a *lower*
            // bound).
            d_pq += w
                * (coef_a * inner.range_prob(t_next - 1, c as i64)
                    + coef_b * inner.range_prob(t_next, c as i64)
                    + coef_c * inner.range_prob(t_cur, c as i64));
            // D(Q‖P): lower tails at the high thresholds.
            let h_next = high(c + 1).floor() as i64;
            let h_cur = high(c).floor() as i64;
            d_qp += w
                * (coef_b * inner.range_prob(0, h_next - 1)
                    + coef_a * inner.range_prob(0, h_next)
                    + coef_c * inner.range_prob(0, h_cur));
        }
        (d_pq.clamp(0.0, 1.0), d_qp.clamp(0.0, 1.0))
    }

    /// `max` of the two directions (the quantity bisected by Algorithm 3).
    pub fn delta_max(&self, eps: f64) -> f64 {
        let (a, b) = self.delta_directions(eps);
        a.max(b)
    }

    /// Algorithm 3: a **lower bound** on any ε for which the worst-case
    /// shuffled outputs can be `(ε, δ)`-indistinguishable — the infeasible
    /// end of the bisection bracket.
    pub fn epsilon_lower(&self, delta: f64, iterations: usize) -> Result<f64> {
        self.bisect(delta, iterations).map(|b| b.infeasible)
    }

    /// The same bisection returned at its feasible end: a valid
    /// per-mechanism `(ε, δ)` **upper** bound (Appendix I, last paragraph),
    /// tighter than Theorem 4.7 for randomizers whose expected ratios are
    /// strictly below their maximal ratios.
    pub fn epsilon_upper(&self, delta: f64, iterations: usize) -> Result<f64> {
        self.bisect(delta, iterations).map(|b| b.feasible)
    }

    fn bisect(&self, delta: f64, iterations: usize) -> Result<vr_numerics::search::Bracket> {
        if !(0.0..=1.0).contains(&delta) {
            return Err(Error::InvalidParameter(format!(
                "delta must be in [0,1], got {delta}"
            )));
        }
        let hi = if self.params.p0.is_finite() {
            self.params.p0.ln()
        } else {
            match vr_numerics::search::exponential_upper_bracket(
                |e| self.delta_max(e) <= delta,
                1.0,
                256.0,
            )? {
                Some(hi) => hi,
                None => {
                    return Err(Error::Unachievable(format!(
                        "delta = {delta:e} below the irreducible divergence"
                    )))
                }
            }
        };
        Ok(bisect_monotone(
            |e| self.delta_max(e) <= delta,
            0.0,
            hi,
            iterations,
        )?)
    }
}

/// Default Algorithm-3 bisection depth used by the trait surface (matches
/// [`crate::accountant::SearchOptions::default`]).
const LOWER_BOUND_ITERATIONS: usize = 40;

/// The Section 5 machinery on the unified engine: a [`BoundKind::Lower`]
/// bound whose `delta`/`epsilon` under-approximate the achievable trade-off
/// (`delta` is the max of the two divergence directions of Proposition I.1;
/// `epsilon` is Algorithm 3's infeasible bracket end at depth 40).
impl AmplificationBound for LowerBoundAccountant {
    fn name(&self) -> &str {
        names::LOWER
    }

    fn kind(&self) -> BoundKind {
        BoundKind::Lower
    }

    fn validity(&self) -> Validity {
        Validity {
            eps_ceiling: if self.params.p0.is_finite() {
                self.params.p0.ln()
            } else {
                f64::INFINITY
            },
            conditional: !self.params.p0.is_finite(),
        }
    }

    fn delta(&self, eps: f64) -> Result<f64> {
        check_eps(eps)?;
        Ok(self.delta_max(eps))
    }

    fn epsilon(&self, delta: f64) -> Result<f64> {
        self.epsilon_lower(delta, LOWER_BOUND_ITERATIONS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountant::{Accountant, ScanMode, SearchOptions};
    use crate::params::VariationRatio;
    use vr_numerics::is_close;

    /// Generalized randomized response rows over d options with budget eps0.
    fn grr_row(d: usize, eps0: f64, input: usize) -> Vec<f64> {
        let e = eps0.exp();
        let denom = e + d as f64 - 1.0;
        (0..d)
            .map(|y| if y == input { e / denom } else { 1.0 / denom })
            .collect()
    }

    #[test]
    fn grr_extraction_recovers_exact_parameters() {
        let d = 8;
        let eps0 = 1.5f64;
        let rows: Vec<Vec<f64>> = (0..d).map(|x| grr_row(d, eps0, x)).collect();
        let (params, idx) =
            LowerBoundParams::with_worst_blanket(&rows[0], &rows[1], &rows).unwrap();
        let e = eps0.exp();
        assert!(is_close(params.p0, e, 1e-12), "p0 = {}", params.p0);
        assert!(is_close(
            params.beta,
            (e - 1.0) / (e + d as f64 - 1.0),
            1e-12
        ));
        // The worst blanket is any third input: q0 = q1 = e^{eps0}.
        assert!(idx >= 2, "blanket must avoid the differing inputs");
        assert!(is_close(params.q0, e, 1e-12));
        assert!(is_close(params.q1, e, 1e-12));
    }

    #[test]
    fn tightness_for_extremal_grr() {
        // GRR on d >= 3 options is an extremal-design randomizer: the upper
        // bound of Theorem 4.7 and the lower bound of Theorem 5.1 coincide.
        let d = 16;
        let eps0 = 2.0f64;
        let n = 5_000;
        let delta = 1e-6;
        let e = eps0.exp();
        let beta = (e - 1.0) / (e + d as f64 - 1.0);
        let upper = Accountant::new(VariationRatio::ldp_with_beta(eps0, beta).unwrap(), n)
            .unwrap()
            .epsilon(
                delta,
                SearchOptions {
                    iterations: 48,
                    mode: ScanMode::Full,
                },
            )
            .unwrap();

        let rows: Vec<Vec<f64>> = (0..d).map(|x| grr_row(d, eps0, x)).collect();
        let (params, _) = LowerBoundParams::with_worst_blanket(&rows[0], &rows[1], &rows).unwrap();
        let lower = LowerBoundAccountant::new(params, n)
            .unwrap()
            .epsilon_lower(delta, 48)
            .unwrap();
        assert!(
            lower <= upper + 1e-9,
            "lower bound {lower} must not exceed upper bound {upper}"
        );
        assert!(
            (upper - lower) / upper < 1e-6,
            "extremal mechanism should be exactly tight: lower={lower} upper={upper}"
        );
    }

    #[test]
    fn lower_never_exceeds_upper_for_non_extremal() {
        // Binary randomized response (d = 2): q-extraction uses a differing
        // input as blanket; the bound remains valid (lower <= upper).
        let d = 2;
        let eps0 = 1.0f64;
        let rows: Vec<Vec<f64>> = (0..d).map(|x| grr_row(d, eps0, x)).collect();
        // With d = 2 both candidates are the differing inputs themselves.
        let (params, _) = LowerBoundParams::with_worst_blanket(&rows[0], &rows[1], &rows).unwrap();
        let n = 2_000;
        let delta = 1e-6;
        let lower = LowerBoundAccountant::new(params, n)
            .unwrap()
            .epsilon_lower(delta, 40)
            .unwrap();
        let e = eps0.exp();
        let beta = (e - 1.0) / (e + 1.0);
        let upper = Accountant::new(VariationRatio::ldp_with_beta(eps0, beta).unwrap(), n)
            .unwrap()
            .epsilon_default(delta)
            .unwrap();
        assert!(lower <= upper + 1e-9, "lower={lower} upper={upper}");
    }

    #[test]
    fn divergences_monotone_decreasing_in_eps() {
        let rows: Vec<Vec<f64>> = (0..5).map(|x| grr_row(5, 1.2, x)).collect();
        let (params, _) = LowerBoundParams::with_worst_blanket(&rows[0], &rows[1], &rows).unwrap();
        let acc = LowerBoundAccountant::new(params, 500).unwrap();
        let mut prev = f64::INFINITY;
        for i in 0..20 {
            let eps = 0.05 * i as f64;
            let d = acc.delta_max(eps);
            assert!(d <= prev + 1e-12);
            prev = d;
        }
    }

    #[test]
    fn symmetric_pair_has_equal_directions() {
        // q0 = q1 makes the pair symmetric: both directions must agree.
        let rows: Vec<Vec<f64>> = (0..6).map(|x| grr_row(6, 1.0, x)).collect();
        let (params, _) = LowerBoundParams::with_worst_blanket(&rows[0], &rows[1], &rows).unwrap();
        let acc = LowerBoundAccountant::new(params, 300).unwrap();
        for eps in [0.0, 0.1, 0.4] {
            let (a, b) = acc.delta_directions(eps);
            assert!(is_close(a, b, 1e-9), "asymmetric at eps={eps}: {a} vs {b}");
        }
    }

    #[test]
    fn trait_surface_matches_legacy_methods() {
        let rows: Vec<Vec<f64>> = (0..6).map(|x| grr_row(6, 1.0, x)).collect();
        let (params, _) = LowerBoundParams::with_worst_blanket(&rows[0], &rows[1], &rows).unwrap();
        let acc = LowerBoundAccountant::new(params, 500).unwrap();
        use crate::bound::AmplificationBound;
        assert_eq!(acc.kind(), crate::bound::BoundKind::Lower);
        assert_eq!(acc.name(), crate::bound::names::LOWER);
        assert_eq!(
            AmplificationBound::delta(&acc, 0.2).unwrap().to_bits(),
            acc.delta_max(0.2).to_bits()
        );
        assert_eq!(
            AmplificationBound::epsilon(&acc, 1e-6).unwrap().to_bits(),
            acc.epsilon_lower(1e-6, 40).unwrap().to_bits()
        );
        assert!(AmplificationBound::delta(&acc, -0.5).is_err());
    }

    #[test]
    fn identical_distributions_rejected() {
        let row = grr_row(4, 1.0, 0);
        assert!(LowerBoundParams::from_distributions(&row, &row, &row).is_err());
    }

    #[test]
    fn invalid_population_rejected() {
        let rows: Vec<Vec<f64>> = (0..4).map(|x| grr_row(4, 1.0, x)).collect();
        let (params, _) = LowerBoundParams::with_worst_blanket(&rows[0], &rows[1], &rows).unwrap();
        assert!(LowerBoundAccountant::new(params, 0).is_err());
    }
}
