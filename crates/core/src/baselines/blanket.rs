//! Privacy-blanket style amplification bounds (Balle, Bell, Gascón & Nissim,
//! *"The privacy blanket of the shuffle model"*, CRYPTO 2019), re-derived
//! from first principles.
//!
//! # Derivation (proved here so the implementation is self-contained)
//!
//! Any `ε₀`-LDP randomizer decomposes as `R(x) = (1−γ)·LO_x + γ·ω` where
//! `γ·ω(y) = min_x R(x)(y)` is the input-independent *blanket* and
//! `γ = Σ_y min_x R(x)(y) ≥ e^{−ε₀}` its total-variation similarity.
//!
//! 1. Every non-victim user contributes a blanket message independently with
//!    probability γ; non-blanket messages are independent of the victim's
//!    bit, so by a simulation/post-processing argument the shuffled
//!    divergence is bounded by that of (victim message + `m` blanket
//!    messages) where `m ~ Binom(n−1, γ)`. Conditioning on `m ≥ m₀` with
//!    `P[m < m₀] ≤ δ/2` (exact binomial quantile — no Chernoff slack) costs
//!    an additive `δ/2`.
//! 2. For fixed `m`, writing `P_b = R(x^b)` and a uniformly random victim
//!    slot, the tuple density under hypothesis `b` is
//!    `Π_i ω(y_i) · (1/(m+1))·Σ_j P_b(y_j)/ω(y_j)`, so
//!
//!    `D_{e^ε}(P‖Q) = E_{Y ~ ω^{m+1}}[ ( (1/(m+1))·Σ_j Z_j )_+ ]`,
//!    `Z_j = (P₀(Y_j) − e^ε·P₁(Y_j))/ω(Y_j)`,
//!
//!    an *exact* identity. Each `Z_j` has mean `1 − e^ε < 0`, range width
//!    `b = γ(e^{ε₀}−1)(1+e^ε)` (from `γ ≤ P_b/ω ≤ γ·e^{ε₀}`), and variance
//!    at most `σ² = γe^{ε₀}(1+e^{2ε}) − 2γe^ε − (1−e^ε)²`.
//! 3. Hoeffding (point bound and integrated-tail bound) or Bennett on
//!    `Σ Z_j` then bounds the positive part; together with step 1 this gives
//!    a valid `(ε, δ)`-DP guarantee.
//!
//! This reconstructs the structure of the original's "Hoeffding/Bennett,
//! generic/specific" numerical bounds (the specific variants plug in the
//! mechanism's true γ); it is *not* a transcription of their formulas. Every
//! bound returned here is valid in its own right (the module tests check the
//! step-2 identity by Monte Carlo, and `tests/paper_claims.rs` the Figure 1–2
//! orderings against the variation-ratio accountant).

use crate::bound::{delta_from_epsilon, names, AmplificationBound, Validity};
use crate::error::{Error, Result};
use vr_numerics::bounds::{bennett_tail, hoeffding_positive_part_integral, hoeffding_tail};
use vr_numerics::search::bisect_monotone;
use vr_numerics::Binomial;

/// The generic privacy-blanket analysis on the unified engine: the universal
/// `γ = e^{−ε₀}` envelope for an arbitrary `ε₀`-LDP randomizer, or an
/// explicit mechanism-specific `γ` via [`GenericBlanketBound::with_gamma`].
/// `delta` inverts the native `epsilon(δ)` conservatively.
#[derive(Debug, Clone, Copy)]
pub struct GenericBlanketBound {
    eps0: f64,
    gamma: f64,
    n: u64,
    opts: BlanketOptions,
}

impl GenericBlanketBound {
    /// Generic blanket with `γ = e^{−ε₀}`.
    pub fn new(eps0: f64, n: u64, opts: BlanketOptions) -> Result<Self> {
        Self::with_gamma(eps0, generic_gamma(eps0), n, opts)
    }

    /// Generic blanket with an explicit total-variation similarity `γ`.
    pub fn with_gamma(eps0: f64, gamma: f64, n: u64, opts: BlanketOptions) -> Result<Self> {
        if !eps0.is_finite() || eps0 <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "eps0 must be positive, got {eps0}"
            )));
        }
        if !(0.0 < gamma && gamma <= 1.0) {
            return Err(Error::InvalidParameter(format!(
                "gamma must be in (0,1], got {gamma}"
            )));
        }
        Ok(Self {
            eps0,
            gamma,
            n,
            opts,
        })
    }
}

impl AmplificationBound for GenericBlanketBound {
    fn name(&self) -> &str {
        names::BLANKET_GENERIC
    }

    fn validity(&self) -> Validity {
        Validity {
            // The bisection is capped at ε₀ — the local guarantee itself.
            eps_ceiling: self.eps0,
            conditional: false,
        }
    }

    fn delta(&self, eps: f64) -> Result<f64> {
        delta_from_epsilon(eps, |delta| self.epsilon(delta))
    }

    fn epsilon(&self, delta: f64) -> Result<f64> {
        epsilon_generic(self.eps0, self.gamma, self.n, delta, self.opts)
    }
}

/// The mechanism-specific privacy-blanket analysis on the unified engine:
/// exact blanket `γ` and exact loss-variable statistics from a
/// [`BlanketProfile`].
#[derive(Debug, Clone)]
pub struct SpecificBlanketBound {
    profile: BlanketProfile,
    eps0: f64,
    n: u64,
    opts: BlanketOptions,
}

impl SpecificBlanketBound {
    /// Bind the specific blanket analysis to a workload.
    pub fn new(profile: BlanketProfile, eps0: f64, n: u64, opts: BlanketOptions) -> Result<Self> {
        if !eps0.is_finite() || eps0 <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "eps0 must be positive, got {eps0}"
            )));
        }
        Ok(Self {
            profile,
            eps0,
            n,
            opts,
        })
    }
}

impl AmplificationBound for SpecificBlanketBound {
    fn name(&self) -> &str {
        names::BLANKET_SPECIFIC
    }

    fn validity(&self) -> Validity {
        Validity {
            eps_ceiling: self.eps0,
            conditional: false,
        }
    }

    fn delta(&self, eps: f64) -> Result<f64> {
        delta_from_epsilon(eps, |delta| self.epsilon(delta))
    }

    fn epsilon(&self, delta: f64) -> Result<f64> {
        epsilon_specific(&self.profile, self.eps0, self.n, delta, self.opts)
    }
}

/// Which concentration inequality bounds the privacy-loss sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlanketBound {
    /// Hoeffding on the bounded range (better for large ε₀ / small m).
    Hoeffding,
    /// Bennett using the variance bound (better for small ε₀).
    Bennett,
    /// Pointwise minimum of the two (what the original paper plots).
    Best,
}

/// Options for the blanket bisection.
#[derive(Debug, Clone, Copy)]
pub struct BlanketOptions {
    /// Concentration inequality selection.
    pub bound: BlanketBound,
    /// Bisection iterations over ε.
    pub iterations: usize,
}

impl Default for BlanketOptions {
    fn default() -> Self {
        Self {
            bound: BlanketBound::Best,
            iterations: 40,
        }
    }
}

/// The generic blanket probability `γ = e^{−ε₀}` valid for every `ε₀`-LDP
/// randomizer.
pub fn generic_gamma(eps0: f64) -> f64 {
    (-eps0).exp()
}

/// Mechanism-specific blanket profile over a finite output domain: the
/// victim pair `(P₀, P₁)`, the exact blanket `ω(y) ∝ min_x R_x(y)` and its
/// similarity `γ = Σ_y min_x R_x(y)`.
///
/// With the profile in hand, the loss variables
/// `Z_j = (P₀(Y) − e^ε·P₁(Y))/ω(Y)` have *exactly computable* range and
/// variance under `ω`, which is what makes the original paper's "specific"
/// curves much tighter than the generic `[γ, γe^{ε₀}]` ratio envelope.
#[derive(Debug, Clone)]
pub struct BlanketProfile {
    p0: Vec<f64>,
    p1: Vec<f64>,
    omega: Vec<f64>,
    gamma: f64,
}

impl BlanketProfile {
    /// Build the profile from the full mechanism matrix (`rows[x][y] =
    /// P[R(x) = y]`) and the differing input pair `(x0, x1)`. Output classes
    /// with identical behaviour may be pre-collapsed by the caller (weights
    /// folded in) — only the pmf values matter.
    pub fn from_rows(rows: &[Vec<f64>], x0: usize, x1: usize) -> Result<Self> {
        if rows.is_empty() || x0 >= rows.len() || x1 >= rows.len() || x0 == x1 {
            return Err(Error::InvalidParameter(
                "need distinct valid input indices".into(),
            ));
        }
        let m = rows[0].len();
        if rows.iter().any(|r| r.len() != m) {
            return Err(Error::InvalidParameter(
                "rows must share one output domain".into(),
            ));
        }
        let mut min_row = vec![f64::INFINITY; m];
        for row in rows {
            for (mr, &v) in min_row.iter_mut().zip(row) {
                *mr = mr.min(v);
            }
        }
        let gamma: f64 = min_row.iter().sum();
        if gamma <= 0.0 {
            return Err(Error::InvalidParameter(
                "blanket is empty: some output has probability 0 under every input".into(),
            ));
        }
        let omega: Vec<f64> = min_row.iter().map(|&v| v / gamma).collect();
        // The loss variables are only bounded when ω covers the victim pair.
        for (i, &w) in omega.iter().enumerate() {
            // vr-lint: allow(float-eq) — exact support test: only a literal-zero envelope entry fails to cover
            if w == 0.0 && (rows[x0][i] > 0.0 || rows[x1][i] > 0.0) {
                return Err(Error::NotApplicable(
                    "victim pair has mass outside the blanket support".into(),
                ));
            }
        }
        Ok(Self {
            p0: rows[x0].clone(),
            p1: rows[x1].clone(),
            omega,
            gamma,
        })
    }

    /// Build a profile from the victim pair and an **explicit pointwise
    /// minimum envelope** `env(y) = min_x R_x(y)` (a sub-distribution summing
    /// to γ). Needed when outputs are pre-collapsed into symmetry classes:
    /// the minimum of the collapsed rows can exceed the collapsed pointwise
    /// minimum (no single input minimizes across a whole class), so exact
    /// mechanisms (e.g. k-subset) supply the envelope directly.
    pub fn from_parts(p0: Vec<f64>, p1: Vec<f64>, envelope: Vec<f64>) -> Result<Self> {
        if p0.len() != p1.len() || p0.len() != envelope.len() {
            return Err(Error::InvalidParameter(
                "pair and envelope must share one output domain".into(),
            ));
        }
        let gamma: f64 = envelope.iter().sum();
        if !(0.0 < gamma && gamma <= 1.0 + 1e-9) {
            return Err(Error::InvalidParameter(format!(
                "envelope mass gamma = {gamma} must be in (0, 1]"
            )));
        }
        for ((&a, &b), &e) in p0.iter().zip(&p1).zip(&envelope) {
            if e > a + 1e-12 || e > b + 1e-12 {
                return Err(Error::InvalidParameter(
                    "envelope must lower-bound both victim distributions".into(),
                ));
            }
            // vr-lint: allow(float-eq) — exact support test mirroring the constructor's coverage check
            if e == 0.0 && (a > 0.0 || b > 0.0) {
                return Err(Error::NotApplicable(
                    "victim pair has mass outside the blanket support".into(),
                ));
            }
        }
        let omega: Vec<f64> = envelope.iter().map(|&v| v / gamma).collect();
        Ok(Self {
            p0,
            p1,
            omega,
            gamma,
        })
    }

    /// Blanket similarity γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Exact statistics of `Z = (P₀(Y) − e^ε·P₁(Y))/ω(Y)` under `Y ~ ω`:
    /// `(z_max, width, variance)`.
    fn loss_stats(&self, eps: f64) -> (f64, f64, f64) {
        let ee = eps.exp();
        let mut zmin = f64::INFINITY;
        let mut zmax = f64::NEG_INFINITY;
        let mut m2 = 0.0;
        for ((&p0, &p1), &w) in self.p0.iter().zip(&self.p1).zip(&self.omega) {
            // vr-lint: allow(float-eq) — exact zero-weight skip over the validated envelope
            if w == 0.0 {
                continue;
            }
            let z = (p0 - ee * p1) / w;
            zmin = zmin.min(z);
            zmax = zmax.max(z);
            m2 += w * z * z;
        }
        let mean = 1.0 - ee;
        (
            (zmax).max(0.0),
            (zmax - zmin).max(0.0),
            (m2 - mean * mean).max(0.0),
        )
    }
}

/// Divergence bound `δ_div(ε)` with exact per-mechanism loss statistics.
fn delta_div_specific(
    profile: &BlanketProfile,
    m_plus_one: f64,
    eps: f64,
    bound: BlanketBound,
) -> f64 {
    let (zmax, width, var) = profile.loss_stats(eps);
    if zmax <= 0.0 {
        return 0.0;
    }
    let drift = eps.exp() - 1.0;
    let hoeffding = || {
        // vr-lint: allow(float-eq) — exact degenerate-interval guard before dividing by width²
        if width == 0.0 {
            return 0.0;
        }
        let point = zmax * hoeffding_tail(m_plus_one, width, m_plus_one * drift);
        let integral = hoeffding_positive_part_integral(m_plus_one, width, drift) / m_plus_one;
        point.min(integral)
    };
    let bennett = || zmax * bennett_tail(m_plus_one, var, zmax + drift, m_plus_one * drift);
    match bound {
        BlanketBound::Hoeffding => hoeffding(),
        BlanketBound::Bennett => bennett(),
        BlanketBound::Best => hoeffding().min(bennett()),
    }
    .min(1.0)
}

/// Step 1 + 2 + 3 of the derivation with exact per-mechanism statistics.
fn epsilon_specific(
    profile: &BlanketProfile,
    eps0: f64,
    n: u64,
    delta: f64,
    opts: BlanketOptions,
) -> Result<f64> {
    if !(0.0 < delta && delta < 1.0) {
        return Err(Error::InvalidParameter(format!(
            "delta must be in (0,1), got {delta}"
        )));
    }
    if n < 2 {
        return Ok(eps0);
    }
    let m0 = Binomial::new(n - 1, profile.gamma).quantile(delta / 2.0);
    if m0 == 0 {
        return Ok(eps0);
    }
    let m_plus_one = (m0 + 1) as f64;
    let target = delta / 2.0;
    let feasible = |eps: f64| delta_div_specific(profile, m_plus_one, eps, opts.bound) <= target;
    if feasible(0.0) {
        return Ok(0.0);
    }
    Ok(bisect_monotone(feasible, 0.0, eps0, opts.iterations)?.feasible)
}

/// Divergence bound `δ_div(ε)` for `m` blanket messages (step 2+3 above)
/// with the **universal** loss envelope: for any `ε₀`-LDP mechanism and any
/// valid blanket, `P_b(y)/ω(y) = γ·P_b(y)/min_x R_x(y) ∈ [γ·1, γ·e^{ε₀}]
/// ⊆ [e^{−ε₀}, e^{ε₀}]` (using `e^{−ε₀} ≤ γ ≤ 1`), so
/// `Z ∈ [e^{−ε₀} − e^ε·e^{ε₀}, e^{ε₀} − e^ε·e^{−ε₀}]`. The mechanism's true
/// γ only enters through the blanket-count quantile, where a *smaller* γ is
/// the conservative direction.
fn delta_div(eps0: f64, m_plus_one: f64, eps: f64, bound: BlanketBound) -> f64 {
    let e0 = eps0.exp();
    let ee = eps.exp();
    let zmax = e0 - ee / e0;
    if zmax <= 0.0 {
        return 0.0;
    }
    let drift = ee - 1.0; // −E[Z_j]
    let width = (e0 - 1.0 / e0) * (1.0 + ee);
    let hoeffding = || {
        let point = zmax * hoeffding_tail(m_plus_one, width, m_plus_one * drift);
        let integral = hoeffding_positive_part_integral(m_plus_one, width, drift) / m_plus_one;
        point.min(integral)
    };
    let bennett = || {
        // E[(P_b/ω)²] ≤ e^{ε₀}·E[P_b/ω] = e^{ε₀}; E[P₀P₁/ω²] ≥ e^{−ε₀}.
        let var = (e0 * (1.0 + ee * ee) - 2.0 * ee / e0 - drift * drift).max(0.0);
        let m_upper = zmax + drift; // bound on Z_j − E[Z_j]
        zmax * bennett_tail(m_plus_one, var, m_upper, m_plus_one * drift)
    };
    match bound {
        BlanketBound::Hoeffding => hoeffding(),
        BlanketBound::Bennett => bennett(),
        BlanketBound::Best => hoeffding().min(bennett()),
    }
    .min(1.0)
}

/// Steps 1 + 2 + 3 with the universal loss envelope: the smallest ε (up to
/// bisection resolution) such that `n` shuffled `ε₀`-LDP messages with
/// blanket probability `gamma` are `(ε, δ)`-DP under this analysis.
fn epsilon_generic(eps0: f64, gamma: f64, n: u64, delta: f64, opts: BlanketOptions) -> Result<f64> {
    if !(0.0 < delta && delta < 1.0) {
        return Err(Error::InvalidParameter(format!(
            "delta must be in (0,1), got {delta}"
        )));
    }
    if n < 2 {
        return Ok(eps0); // no other users: only the local guarantee remains
    }
    // Step 1: exact binomial lower-quantile for the blanket count.
    let m0 = Binomial::new(n - 1, gamma).quantile(delta / 2.0);
    if m0 == 0 {
        return Ok(eps0);
    }
    let m_plus_one = (m0 + 1) as f64;
    let target = delta / 2.0;
    let feasible = |eps: f64| delta_div(eps0, m_plus_one, eps, opts.bound) <= target;
    if feasible(0.0) {
        return Ok(0.0);
    }
    let bracket = bisect_monotone(feasible, 0.0, eps0, opts.iterations)?;
    // The feasible end was explicitly verified by the predicate, so it is a
    // valid (ε, δ) pair even if the bound were not perfectly monotone.
    Ok(bracket.feasible)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generic bound's `ε(δ)` at blanket probability `gamma`,
    /// construction errors included.
    fn generic_eps(eps0: f64, gamma: f64, n: u64, delta: f64, opts: BlanketOptions) -> Result<f64> {
        GenericBlanketBound::with_gamma(eps0, gamma, n, opts)?.epsilon(delta)
    }

    #[test]
    fn amplifies_below_local_budget() {
        let eps0 = 1.0;
        let eps = generic_eps(
            eps0,
            generic_gamma(eps0),
            100_000,
            1e-7,
            BlanketOptions::default(),
        )
        .unwrap();
        assert!(eps < eps0, "no amplification: {eps}");
        assert!(eps > 0.0);
    }

    #[test]
    fn specific_profile_tightens_generic() {
        let eps0 = 2.0f64;
        let n = 100_000;
        let delta = 1e-7;
        let generic = generic_eps(
            eps0,
            generic_gamma(eps0),
            n,
            delta,
            BlanketOptions::default(),
        )
        .unwrap();
        // GRR over 8 options: blanket is uniform, gamma = d/(e^{eps0}+d−1).
        let d = 8usize;
        let e = eps0.exp();
        let rows: Vec<Vec<f64>> = (0..d)
            .map(|x| {
                (0..d)
                    .map(|y| if y == x { e } else { 1.0 } / (e + d as f64 - 1.0))
                    .collect()
            })
            .collect();
        let profile = BlanketProfile::from_rows(&rows, 0, 1).unwrap();
        assert!(vr_numerics::is_close(
            profile.gamma(),
            d as f64 / (e + d as f64 - 1.0),
            1e-12
        ));
        let specific =
            SpecificBlanketBound::new(profile.clone(), eps0, n, BlanketOptions::default())
                .and_then(|b| b.epsilon(delta))
                .unwrap();
        assert!(
            specific < generic,
            "specific profile should help: {specific} vs {generic}"
        );
    }

    #[test]
    fn specific_profile_rejects_uncovered_support() {
        // An output reachable only from one input breaks the blanket cover.
        let rows = vec![vec![0.5, 0.5, 0.0], vec![0.5, 0.0, 0.5]];
        assert!(BlanketProfile::from_rows(&rows, 0, 1).is_err());
    }

    #[test]
    fn best_bound_dominates_components() {
        let eps0 = 1.5;
        let n = 50_000;
        let delta = 1e-6;
        let g = generic_gamma(eps0);
        let h = generic_eps(
            eps0,
            g,
            n,
            delta,
            BlanketOptions {
                bound: BlanketBound::Hoeffding,
                iterations: 40,
            },
        )
        .unwrap();
        let b = generic_eps(
            eps0,
            g,
            n,
            delta,
            BlanketOptions {
                bound: BlanketBound::Bennett,
                iterations: 40,
            },
        )
        .unwrap();
        let best = generic_eps(eps0, g, n, delta, BlanketOptions::default()).unwrap();
        assert!(
            best <= h + 1e-9 && best <= b + 1e-9,
            "best={best} h={h} b={b}"
        );
    }

    #[test]
    fn improves_with_population() {
        let eps0 = 1.0;
        let g = generic_gamma(eps0);
        let a = generic_eps(eps0, g, 10_000, 1e-6, BlanketOptions::default()).unwrap();
        let b = generic_eps(eps0, g, 1_000_000, 1e-6, BlanketOptions::default()).unwrap();
        assert!(b < a);
    }

    #[test]
    fn degenerate_populations_fall_back_to_local() {
        let eps0 = 1.0;
        assert_eq!(
            generic_eps(eps0, 1e-6, 2, 1e-6, BlanketOptions::default()).unwrap(),
            eps0
        );
        assert_eq!(
            generic_eps(
                eps0,
                generic_gamma(eps0),
                1,
                1e-6,
                BlanketOptions::default()
            )
            .unwrap(),
            eps0
        );
    }

    #[test]
    fn bound_adapters_match_free_functions() {
        let eps0 = 1.5;
        let n = 50_000;
        let opts = BlanketOptions::default();
        let g = GenericBlanketBound::new(eps0, n, opts).unwrap();
        for delta in [1e-4, 1e-7] {
            assert_eq!(
                g.epsilon(delta).unwrap().to_bits(),
                epsilon_generic(eps0, generic_gamma(eps0), n, delta, opts)
                    .unwrap()
                    .to_bits()
            );
        }
        assert_eq!(g.name(), crate::bound::names::BLANKET_GENERIC);
        assert!((g.validity().eps_ceiling - eps0).abs() < 1e-15);
        // delta inversion yields a feasible claim.
        let eps = g.epsilon(1e-6).unwrap();
        let d = g.delta(eps).unwrap();
        assert!(g.epsilon(d).unwrap() <= eps);

        // Specific profile: GRR over 6 options.
        let dsz = 6usize;
        let e = 2.0f64.exp();
        let rows: Vec<Vec<f64>> = (0..dsz)
            .map(|x| {
                (0..dsz)
                    .map(|y| if y == x { e } else { 1.0 } / (e + dsz as f64 - 1.0))
                    .collect()
            })
            .collect();
        let profile = BlanketProfile::from_rows(&rows, 0, 1).unwrap();
        let s = SpecificBlanketBound::new(profile.clone(), 2.0, n, opts).unwrap();
        assert_eq!(
            s.epsilon(1e-7).unwrap().to_bits(),
            epsilon_specific(&profile, 2.0, n, 1e-7, opts)
                .unwrap()
                .to_bits()
        );
        assert_eq!(s.name(), crate::bound::names::BLANKET_SPECIFIC);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(generic_eps(0.0, 0.5, 100, 1e-6, BlanketOptions::default()).is_err());
        assert!(generic_eps(1.0, 0.0, 100, 1e-6, BlanketOptions::default()).is_err());
        assert!(generic_eps(1.0, 1.5, 100, 1e-6, BlanketOptions::default()).is_err());
        assert!(generic_eps(1.0, 0.5, 100, 0.0, BlanketOptions::default()).is_err());
    }

    /// Monte-Carlo sanity check of the *exact identity* in step 2 of the
    /// derivation: simulate the positive-part expectation for a tiny binary
    /// randomizer and confirm the Hoeffding/Bennett bound dominates it.
    #[test]
    fn divergence_bound_dominates_monte_carlo() {
        use rand::RngExt;
        use rand::SeedableRng;
        let eps0 = 1.0f64;
        let e0 = eps0.exp();
        // Binary RR: P0 = (e/(e+1), 1/(e+1)), P1 swapped, blanket ω = (.5,.5),
        // gamma = 2/(e+1).
        let gamma = 2.0 / (e0 + 1.0);
        let p0 = [e0 / (e0 + 1.0), 1.0 / (e0 + 1.0)];
        let p1 = [1.0 / (e0 + 1.0), e0 / (e0 + 1.0)];
        let m = 400usize;
        let eps = 0.25f64;
        let ee = eps.exp();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let trials = 30_000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let mut s = 0.0;
            for _ in 0..m + 1 {
                let y = usize::from(rng.random_bool(0.5));
                s += (p0[y] - ee * p1[y]) / 0.5;
            }
            acc += (s / (m + 1) as f64).max(0.0);
        }
        let empirical = acc / trials as f64;
        let _ = gamma; // the universal envelope no longer needs it here
        let bound = delta_div(eps0, (m + 1) as f64, eps, BlanketBound::Best);
        assert!(
            bound >= empirical * 0.95,
            "bound {bound:e} below Monte-Carlo estimate {empirical:e}"
        );
    }
}
