//! Privacy curves: the full `δ(ε)` trade-off function of a shuffled
//! mechanism, as produced by any [`AmplificationBound`].
//!
//! Accounting tools downstream (plotting, comparison against Gaussian-DP
//! fits, conversion to f-DP style reports) want the whole curve, not a
//! single `(ε, δ)` point. A [`PrivacyCurve`] samples `δ(ε)` on a grid and
//! offers interpolation-free *conservative* queries: `delta_at` returns the
//! value at the nearest grid point ≤ ε (an upper bound by monotonicity),
//! `epsilon_at` the nearest grid point with `δ(ε) ≤ δ`.
//!
//! [`PrivacyCurve::sample`] takes any `&dyn AmplificationBound` and
//! evaluates the grid points **in parallel** (`vr_numerics::par::par_map`,
//! scoped `std::thread`s): bounds bind their workload at construction, so
//! each grid point is an independent pure query and the sampled values are
//! bit-identical to [`PrivacyCurve::sample_sequential`]. For the numerical
//! accountant, sample through a [`crate::accountant::NumericalBound`] (or
//! the [`PrivacyCurve::sample_accountant`] convenience): its memoized
//! [`crate::accountant::DeltaEvaluator`] builds the outer binomial table
//! once for the whole grid instead of once per point.

use crate::accountant::{Accountant, NumericalBound, ScanMode, SearchOptions};
use crate::bound::AmplificationBound;
use crate::error::{Error, Result};

/// A sampled, monotone non-increasing privacy profile `ε ↦ δ(ε)`.
#[derive(Debug, Clone)]
pub struct PrivacyCurve {
    eps: Vec<f64>,
    delta: Vec<f64>,
}

impl PrivacyCurve {
    /// Sample the bound's `δ(ε)` on `points` equally spaced ε values in
    /// `[0, eps_max]`, evaluating grid points in parallel. Query errors
    /// (invalid parameters, unachievable targets) are propagated instead of
    /// aborting the process.
    pub fn sample(bound: &dyn AmplificationBound, eps_max: f64, points: usize) -> Result<Self> {
        let eps = Self::grid(eps_max, points)?;
        let delta = vr_numerics::par::par_map(&eps, |&e| bound.delta(e))
            .into_iter()
            .collect::<Result<Vec<f64>>>()?;
        Ok(Self { eps, delta })
    }

    /// [`PrivacyCurve::sample`] without worker threads — same grid, same
    /// queries, bit-identical values. Exists as the reference path for
    /// parallel-sampling equivalence checks (and for callers embedded in an
    /// outer parallelism layer of their own).
    pub fn sample_sequential(
        bound: &dyn AmplificationBound,
        eps_max: f64,
        points: usize,
    ) -> Result<Self> {
        let eps = Self::grid(eps_max, points)?;
        let delta = eps
            .iter()
            .map(|&e| bound.delta(e))
            .collect::<Result<Vec<f64>>>()?;
        Ok(Self { eps, delta })
    }

    /// Sample an [`Accountant`]'s curve at the given scan mode: builds one
    /// memoized [`crate::accountant::NumericalBound`] for the whole grid and
    /// delegates to [`PrivacyCurve::sample`].
    pub fn sample_accountant(
        acc: &Accountant,
        eps_max: f64,
        points: usize,
        mode: ScanMode,
    ) -> Result<Self> {
        let bound = NumericalBound::with_options(
            *acc.params(),
            acc.n(),
            SearchOptions {
                mode,
                ..SearchOptions::default()
            },
        )?;
        Self::sample(&bound, eps_max, points)
    }

    fn grid(eps_max: f64, points: usize) -> Result<Vec<f64>> {
        if points < 2 {
            return Err(Error::InvalidParameter(
                "need at least two grid points".into(),
            ));
        }
        if !(eps_max.is_finite() && eps_max > 0.0) {
            return Err(Error::InvalidParameter(format!(
                "invalid eps_max = {eps_max}"
            )));
        }
        let step = eps_max / (points - 1) as f64;
        Ok((0..points).map(|i| step * i as f64).collect())
    }

    /// The sampled grid as `(ε, δ)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.eps.iter().copied().zip(self.delta.iter().copied())
    }

    /// Conservative `δ` at `eps`: the sampled value at the largest grid
    /// point ≤ `eps` (valid upper bound since `δ(·)` is non-increasing).
    pub fn delta_at(&self, eps: f64) -> f64 {
        self.eps
            .iter()
            .zip(&self.delta)
            .rev()
            .find(|&(&e, _)| e <= eps)
            .map_or(1.0, |(_, &d)| d) // eps below the grid start: no guarantee claimed
    }

    /// Conservative `ε` at `delta`: the smallest grid point whose sampled
    /// `δ` is ≤ `delta`; `None` if the curve never gets there.
    pub fn epsilon_at(&self, delta: f64) -> Option<f64> {
        self.points().find(|&(_, d)| d <= delta).map(|(e, _)| e)
    }

    /// Hockey-stick divergence is an f-divergence: the curve must be convex
    /// non-increasing. Returns the largest convexity violation on the grid
    /// (≈ 0 up to numerical noise) — exposed for validation suites.
    pub fn max_convexity_violation(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for w in self.delta.windows(3) {
            // Midpoint above chord = concave kink.
            if let &[lo, mid, hi] = w {
                worst = worst.max(mid - 0.5 * (lo + hi));
            }
        }
        worst
    }

    /// Approximate the curve by the closest Gaussian-mechanism profile:
    /// returns the `μ` of a Gaussian-DP mechanism whose `(ε, δ(ε))` passes
    /// through the curve's point at the given ε (useful for quick f-DP
    /// style summaries of a shuffled mechanism).
    pub fn gaussian_mu_at(&self, eps: f64) -> Option<f64> {
        let delta = self.delta_at(eps);
        if !(0.0 < delta && delta < 1.0) {
            return None;
        }
        // Gaussian mechanism: δ(ε) = Φ(−ε/μ + μ/2) − e^ε·Φ(−ε/μ − μ/2);
        // bisection on μ (δ is increasing in μ for fixed ε ≥ 0).
        let delta_of = |mu: f64| {
            let phi = |x: f64| vr_numerics::erf::normal_cdf(x);
            phi(-eps / mu + mu / 2.0) - eps.exp() * phi(-eps / mu - mu / 2.0)
        };
        let bracket =
            vr_numerics::search::bisect_monotone(|mu| delta_of(mu) >= delta, 1e-6, 50.0, 60)
                .ok()?;
        Some(bracket.feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::VariationRatio;

    fn acc() -> Accountant {
        let vr = VariationRatio::ldp_worst_case(2.0).unwrap();
        Accountant::new(vr, 10_000).unwrap()
    }

    fn curve() -> PrivacyCurve {
        PrivacyCurve::sample_accountant(&acc(), 2.0, 64, ScanMode::default()).unwrap()
    }

    #[test]
    fn curve_is_monotone_and_convexish() {
        let c = curve();
        let pts: Vec<(f64, f64)> = c.points().collect();
        assert_eq!(pts.len(), 64);
        for w in pts.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "curve not monotone");
        }
        assert!(
            c.max_convexity_violation() < 1e-6,
            "convexity violated by {}",
            c.max_convexity_violation()
        );
    }

    #[test]
    fn parallel_and_sequential_sampling_agree_bitwise() {
        let bound = NumericalBound::new(*acc().params(), 10_000).unwrap();
        let par = PrivacyCurve::sample(&bound, 1.5, 48).unwrap();
        let seq = PrivacyCurve::sample_sequential(&bound, 1.5, 48).unwrap();
        for ((e1, d1), (e2, d2)) in par.points().zip(seq.points()) {
            assert_eq!(e1.to_bits(), e2.to_bits());
            assert_eq!(d1.to_bits(), d2.to_bits());
        }
    }

    #[test]
    fn curve_tracks_the_exact_accountant() {
        // The fast memoized scan behind sampling stays within its documented
        // envelope of the exact one-shot path at every grid point.
        let a = acc();
        let c = curve();
        for (eps, d) in c.points().step_by(7) {
            let exact = a.try_delta(eps, ScanMode::default()).unwrap();
            assert!(d >= exact, "sampled {d:e} below exact {exact:e} at {eps}");
            assert!(d - exact <= 2.5e-13, "sampled {d:e} far from {exact:e}");
        }
    }

    #[test]
    fn sampling_any_bound_works() {
        // A closed-form bound through the same interface.
        use crate::baselines::EfmrttBound;
        let b = EfmrttBound::new(0.5, 1_000_000).unwrap();
        let c = PrivacyCurve::sample(&b, 1.0, 32).unwrap();
        let pts: Vec<(f64, f64)> = c.points().collect();
        assert_eq!(pts[0].1, 1.0, "δ(0) = 1 for the EFMRTT form");
        for w in pts.windows(2) {
            assert!(w[1].1 <= w[0].1, "closed-form curve not monotone");
        }
    }

    #[test]
    fn conservative_queries() {
        let c = curve();
        // delta_at between grid points returns the left (larger) value.
        let d1 = c.delta_at(0.1000001);
        let d2 = c.delta_at(0.11);
        assert!(d1 >= d2);
        // epsilon_at inverts delta_at conservatively.
        let eps = c.epsilon_at(1e-6).unwrap();
        assert!(c.delta_at(eps) <= 1e-6);
        assert!(c.epsilon_at(0.0).is_none() || c.delta_at(2.0) == 0.0);
        assert_eq!(c.delta_at(-0.5), 1.0);
    }

    #[test]
    fn gaussian_summary_is_sane() {
        let c = curve();
        let mu = c.gaussian_mu_at(0.5).unwrap();
        // A strongly-amplified mechanism should look like a small-μ Gaussian.
        assert!(mu > 0.0 && mu < 2.0, "mu = {mu}");
    }

    #[test]
    fn invalid_grids_and_arguments_rejected() {
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
        let a = Accountant::new(vr, 100).unwrap();
        assert!(PrivacyCurve::sample_accountant(&a, 1.0, 1, ScanMode::default()).is_err());
        assert!(PrivacyCurve::sample_accountant(&a, 0.0, 8, ScanMode::default()).is_err());
        assert!(PrivacyCurve::sample_accountant(&a, f64::NAN, 8, ScanMode::default()).is_err());
        assert!(
            PrivacyCurve::sample_accountant(&a, f64::INFINITY, 8, ScanMode::default()).is_err()
        );
    }
}
