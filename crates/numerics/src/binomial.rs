//! Exact binomial distribution with beta-function CDFs and truncated-support
//! enumeration.
//!
//! The accountant evaluates `E_{c ~ Binom(n−1, 2r)}[ g(c) ]` where each `g(c)`
//! itself contains binomial range probabilities `CDF_{c,1/2}[c₁, c₂]`
//! (Theorem 4.8 of the paper). This module provides:
//!
//! * `cdf`/`sf` through the regularized incomplete beta — `O(1)` per call even
//!   for `n = 10^8` (the large-parameter quadrature path of [`crate::beta`]);
//! * `range_prob` with tail-aware evaluation to avoid catastrophic
//!   cancellation when both endpoints sit in the same tail;
//! * `support_for_mass`, which brackets the `1 − τ` effective support so outer
//!   expectations can be truncated with an exactly-accounted error; and
//! * `weights_in`, a stable pmf enumeration over a range using the standard
//!   multiplicative recurrence anchored at the in-range mode.

use crate::beta::reg_inc_beta;
use crate::gamma::{bd0, stirlerr};

/// A binomial distribution `Binom(n, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

/// Truncated-support bracket returned by [`Binomial::support_window`],
/// together with the number of CDF/SF probes the search spent finding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupportWindow {
    /// Smallest retained support point.
    pub lo: u64,
    /// Largest retained support point.
    pub hi: u64,
    /// Incomplete-beta evaluations (CDF/SF calls) spent by the search.
    pub probes: u32,
}

/// Largest `k ∈ [0, n]` with `pred(k)` true, for a predicate that is true on
/// a prefix of the support. Gallops outward from `hint` to bracket the
/// boundary, then bisects. Returns 0 if the predicate is false everywhere
/// (matching the full bisection's limit).
fn largest_true(
    hint: u64,
    n: u64,
    probes: &mut u32,
    mut pred: impl FnMut(u64, &mut u32) -> bool,
) -> u64 {
    let mut t; // known true
    let mut f; // known false, t < f
    if pred(hint, probes) {
        t = hint;
        let mut step = 1u64;
        loop {
            if t >= n {
                return n;
            }
            let next = t.saturating_add(step).min(n);
            if pred(next, probes) {
                t = next;
                step = step.saturating_mul(2);
            } else {
                f = next;
                break;
            }
        }
    } else {
        f = hint;
        let mut step = 1u64;
        loop {
            if f == 0 {
                return 0;
            }
            let next = f.saturating_sub(step);
            if pred(next, probes) {
                t = next;
                break;
            }
            f = next;
            if f == 0 {
                return 0;
            }
            step = step.saturating_mul(2);
        }
    }
    while f - t > 1 {
        let mid = t + (f - t) / 2;
        if pred(mid, probes) {
            t = mid;
        } else {
            f = mid;
        }
    }
    t
}

/// Smallest `k ∈ [0, n]` with `pred(k)` true, for a predicate that is true on
/// a suffix of the support. Gallops outward from `hint`, then bisects.
/// Returns `n` if the predicate is false everywhere.
fn smallest_true(
    hint: u64,
    n: u64,
    probes: &mut u32,
    mut pred: impl FnMut(u64, &mut u32) -> bool,
) -> u64 {
    let mut t; // known true
    let mut f; // known false, f < t
    if pred(hint, probes) {
        t = hint;
        let mut step = 1u64;
        loop {
            if t == 0 {
                return 0;
            }
            let next = t.saturating_sub(step);
            if pred(next, probes) {
                t = next;
                step = step.saturating_mul(2);
            } else {
                f = next;
                break;
            }
        }
    } else {
        f = hint;
        let mut step = 1u64;
        loop {
            if f >= n {
                return n;
            }
            let next = f.saturating_add(step).min(n);
            if pred(next, probes) {
                t = next;
                break;
            }
            f = next;
            step = step.saturating_mul(2);
        }
    }
    while t - f > 1 {
        let mid = f + (t - f) / 2;
        if pred(mid, probes) {
            t = mid;
        } else {
            f = mid;
        }
    }
    t
}

impl Binomial {
    /// Create `Binom(n, p)`.
    ///
    /// # Panics
    /// Panics unless `p ∈ [0, 1]` and is finite.
    pub fn new(n: u64, p: f64) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "binomial success probability must be in [0,1], got {p}"
        );
        Self { n, p }
    }

    /// The same distribution with a different number of trials, keeping `p`.
    /// Lets hot loops validate `p` once and re-trial a single struct per
    /// scanned `c` instead of re-running the [`Binomial::new`] assertion.
    pub fn with_trials(&self, n: u64) -> Self {
        Self { n, p: self.p }
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Expected value `n·p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance `n·p·(1−p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// The (lower) mode `⌊(n+1)p⌋` clamped into the support.
    pub fn mode(&self) -> u64 {
        (((self.n + 1) as f64 * self.p).floor() as u64).min(self.n)
    }

    /// Natural log of the probability mass function at `k`.
    ///
    /// Uses Catherine Loader's saddle-point expansion (`stirlerr` + `bd0`)
    /// rather than differences of `ln Γ`: at `n = 10^8` the log-gamma values
    /// are ~1.7·10^9 and their difference would only retain ~7 correct
    /// digits, while the saddle-point form stays accurate to ~1e-14 relative
    /// for any `n`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        if self.p == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        #[expect(
            clippy::float_cmp,
            reason = "exact degenerate distribution: p = 1.0 is the point mass at n"
        )]
        if self.p == 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        let n = self.n as f64;
        if k == 0 {
            return n * (-self.p).ln_1p();
        }
        if k == self.n {
            return n * self.p.ln();
        }
        let x = k as f64;
        let nx = (self.n - k) as f64;
        let lc = stirlerr(n)
            - stirlerr(x)
            - stirlerr(nx)
            - bd0(x, n * self.p)
            - bd0(nx, n * (1.0 - self.p));
        lc + 0.5 * (n / (2.0 * std::f64::consts::PI * x * nx)).ln()
    }

    /// Probability mass function at `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// Cumulative distribution `P[X ≤ k]`; `k` may be any integer (negative
    /// values yield 0, values ≥ n yield 1).
    pub fn cdf(&self, k: i64) -> f64 {
        if k < 0 {
            return 0.0;
        }
        let k = k as u64;
        if k >= self.n {
            return 1.0;
        }
        if self.p == 0.0 {
            return 1.0;
        }
        #[expect(
            clippy::float_cmp,
            reason = "exact degenerate distribution: p = 1.0 is the point mass at n"
        )]
        if self.p == 1.0 {
            return 0.0; // k < n here.
        }
        // P[Binom(n,p) <= k] = I_{1-p}(n-k, k+1).
        reg_inc_beta((self.n - k) as f64, k as f64 + 1.0, 1.0 - self.p)
    }

    /// Survival probability `P[X > k]`, computed without forming `1 − cdf`
    /// in the right tail.
    pub fn sf(&self, k: i64) -> f64 {
        if k < 0 {
            return 1.0;
        }
        let ku = k as u64;
        if ku >= self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return 0.0;
        }
        #[expect(
            clippy::float_cmp,
            reason = "exact degenerate distribution: p = 1.0 is the point mass at n"
        )]
        if self.p == 1.0 {
            return 1.0;
        }
        // P[X > k] = P[X >= k+1] = I_p(k+1, n-k).
        reg_inc_beta(ku as f64 + 1.0, (self.n - ku) as f64, self.p)
    }

    /// [`Self::sf`] through [`crate::reg_inc_beta_fast`]: within a few ulp of
    /// the exact survival function (identical routing, vectorized quadrature
    /// node loop for large parameters). Only for callers with an explicit
    /// error budget — anything needing bit-identical tails must use
    /// [`Self::sf`].
    pub fn sf_fast(&self, k: i64) -> f64 {
        if k < 0 {
            return 1.0;
        }
        let ku = k as u64;
        if ku >= self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return 0.0;
        }
        #[expect(
            clippy::float_cmp,
            reason = "exact degenerate distribution: p = 1.0 is the point mass at n"
        )]
        if self.p == 1.0 {
            return 1.0;
        }
        crate::reg_inc_beta_fast(ku as f64 + 1.0, (self.n - ku) as f64, self.p)
    }

    /// `P[lo ≤ X ≤ hi]` with tail-aware subtraction. Returns 0 when `lo > hi`.
    pub fn range_prob(&self, lo: i64, hi: i64) -> f64 {
        if lo > hi {
            return 0.0;
        }
        let lo = lo.max(0);
        let hi = hi.min(self.n as i64);
        if lo > hi {
            return 0.0;
        }
        let mean = self.mean();
        let v = if (lo as f64) > mean {
            // Both endpoints in the upper tail: difference of survival
            // functions keeps relative precision.
            self.sf(lo - 1) - self.sf(hi)
        } else {
            self.cdf(hi) - self.cdf(lo - 1)
        };
        v.clamp(0.0, 1.0)
    }

    /// Smallest `k` with `P[X ≤ k] ≥ q` (the usual lower quantile), found by
    /// bisection over the support — `O(log n)` CDF evaluations.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
        if q <= 0.0 {
            return 0;
        }
        let (mut lo, mut hi) = (0u64, self.n);
        // Invariant: cdf(hi) >= q; cdf(lo - 1) < q  (treat cdf(-1) = 0).
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cdf(mid as i64) >= q {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Bracket `[lo, hi]` of the support such that
    /// `P[X < lo] + P[X > hi] ≤ tail_mass`. Splitting the budget evenly
    /// between the tails; returns the full support when `tail_mass ≤ 0`.
    pub fn support_for_mass(&self, tail_mass: f64) -> (u64, u64) {
        let w = self.support_window(tail_mass, None);
        (w.lo, w.hi)
    }

    /// [`Binomial::support_for_mass`] with cost accounting and an optional
    /// warm-start hint.
    ///
    /// The bracket endpoints are the unique answers of two monotone
    /// predicates (largest `lo` with `P[X < lo] ≤ tail_mass/2`, smallest
    /// `hi` with `P[X > hi] ≤ tail_mass/2`), so the returned window is
    /// **identical** for every hint — a hint only changes how many CDF/SF
    /// probes ([`SupportWindow::probes`]) the search spends. Without a hint
    /// each endpoint is found by bisection over the full support
    /// (`O(log n)` probes); with a hint near the answer — e.g. the window
    /// of the same workload at a nearby population, as probed by the
    /// planner's monotone searches — a galloping search brackets the
    /// endpoint in `O(log distance)` probes instead.
    pub fn support_window(&self, tail_mass: f64, hint: Option<(u64, u64)>) -> SupportWindow {
        if tail_mass <= 0.0 {
            return SupportWindow {
                lo: 0,
                hi: self.n,
                probes: 0,
            };
        }
        let half = tail_mass / 2.0;
        let mut probes = 0u32;
        // lo: largest k in [0, n] such that P[X < k] = cdf(k-1) <= half
        // (true at k = 0 since cdf(-1) = 0, monotone false past the answer).
        let lo_pred = |k: u64, probes: &mut u32| {
            *probes += 1;
            self.cdf(k as i64 - 1) <= half
        };
        let lo = match hint {
            Some((h, _)) => largest_true(h.min(self.n), self.n, &mut probes, lo_pred),
            None => {
                let (mut a, mut b) = (0u64, self.n);
                while a < b {
                    let mid = a + (b - a).div_ceil(2);
                    if lo_pred(mid, &mut probes) {
                        a = mid;
                    } else {
                        b = mid - 1;
                    }
                }
                a
            }
        };
        // hi: smallest k in [0, n] such that P[X > k] = sf(k) <= half
        // (true at k = n since sf(n) = 0, monotone false below the answer).
        let hi_pred = |k: u64, probes: &mut u32| {
            *probes += 1;
            self.sf(k as i64) <= half
        };
        let hi = match hint {
            Some((_, h)) => smallest_true(h.min(self.n), self.n, &mut probes, hi_pred),
            None => {
                let (mut a, mut b) = (0u64, self.n);
                while a < b {
                    let mid = a + (b - a) / 2;
                    if hi_pred(mid, &mut probes) {
                        b = mid;
                    } else {
                        a = mid + 1;
                    }
                }
                a
            }
        };
        SupportWindow {
            lo: lo.min(hi),
            hi: hi.max(lo),
            probes,
        }
    }

    /// Probability masses `pmf(lo), …, pmf(hi)` computed by the
    /// multiplicative recurrence `pmf(k+1)/pmf(k) = ((n−k)/(k+1))·(p/(1−p))`
    /// anchored at the in-range mode (one `ln_pmf` evaluation), which is both
    /// fast and free of cumulative drift across the peak.
    #[expect(
        clippy::indexing_slicing,
        reason = "every index is inside `w` (len = hi − lo + 1): the anchor is clamped to [lo, hi] and both recurrence walks stay within the asserted range"
    )]
    pub fn weights_in(&self, lo: u64, hi: u64) -> Vec<f64> {
        assert!(
            lo <= hi && hi <= self.n,
            "invalid weight range [{lo}, {hi}]"
        );
        let len = (hi - lo + 1) as usize;
        let mut w = vec![0.0; len];
        if self.p == 0.0 {
            if lo == 0 {
                w[0] = 1.0;
            }
            return w;
        }
        #[expect(
            clippy::float_cmp,
            reason = "exact degenerate distribution: p = 1.0 is the point mass at n"
        )]
        if self.p == 1.0 {
            if hi == self.n {
                w[len - 1] = 1.0;
            }
            return w;
        }
        let anchor = self.mode().clamp(lo, hi);
        let ai = (anchor - lo) as usize;
        w[ai] = self.pmf(anchor);
        let odds = self.p / (1.0 - self.p);
        // Upward from the anchor.
        let mut cur = w[ai];
        for k in anchor..hi {
            cur *= (self.n - k) as f64 / (k + 1) as f64 * odds;
            w[(k + 1 - lo) as usize] = cur;
        }
        // Downward from the anchor.
        let mut cur = w[ai];
        for k in (lo + 1..=anchor).rev() {
            cur *= k as f64 / (self.n - k + 1) as f64 / odds;
            w[(k - 1 - lo) as usize] = cur;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::{is_close, is_close_abs};

    #[test]
    fn loader_pmf_matches_lngamma_form() {
        // For moderate n the naive ln-gamma expression is fully accurate;
        // Loader's saddle-point form must agree to near machine precision.
        for &(n, p) in &[(17u64, 0.3), (100, 0.017), (351, 0.66), (2048, 0.5)] {
            let b = Binomial::new(n, p);
            for k in 1..n {
                let naive = crate::gamma::ln_binomial(n, k)
                    + k as f64 * p.ln()
                    + (n - k) as f64 * (-p).ln_1p();
                assert!(
                    is_close(b.ln_pmf(k), naive, 1e-11),
                    "loader vs lgamma n={n} p={p} k={k}: {} vs {naive}",
                    b.ln_pmf(k)
                );
            }
        }
    }

    #[test]
    fn pmf_sums_to_one_small() {
        for &(n, p) in &[(0u64, 0.3), (1, 0.5), (10, 0.2), (25, 0.77), (40, 0.5)] {
            let b = Binomial::new(n, p);
            let total: f64 = (0..=n).map(|k| b.pmf(k)).sum();
            assert!(is_close(total, 1.0, 1e-12), "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn cdf_matches_pmf_partial_sums() {
        let b = Binomial::new(30, 0.37);
        let mut acc = 0.0;
        for k in 0..=30u64 {
            acc += b.pmf(k);
            assert!(
                is_close(b.cdf(k as i64), acc, 1e-11),
                "cdf mismatch at k={k}"
            );
        }
    }

    #[test]
    fn cdf_edges() {
        let b = Binomial::new(10, 0.4);
        assert_eq!(b.cdf(-1), 0.0);
        assert_eq!(b.cdf(10), 1.0);
        assert_eq!(b.cdf(999), 1.0);
        assert_eq!(b.sf(-1), 1.0);
        assert_eq!(b.sf(10), 0.0);
    }

    #[test]
    fn degenerate_probabilities() {
        let b0 = Binomial::new(12, 0.0);
        assert_eq!(b0.pmf(0), 1.0);
        assert_eq!(b0.pmf(1), 0.0);
        assert_eq!(b0.cdf(0), 1.0);
        let b1 = Binomial::new(12, 1.0);
        assert_eq!(b1.pmf(12), 1.0);
        assert_eq!(b1.cdf(11), 0.0);
        assert_eq!(b1.sf(11), 1.0);
    }

    #[test]
    fn sf_complements_cdf() {
        let b = Binomial::new(100, 0.13);
        for k in -1..=100i64 {
            assert!(
                is_close_abs(b.cdf(k) + b.sf(k), 1.0, 1e-12),
                "complement at k={k}"
            );
        }
    }

    #[test]
    fn sf_fast_tracks_sf() {
        // Small trials route through the shared continued fraction and must
        // be bit-identical; large trials may differ by a few ulp.
        let small = Binomial::new(100, 0.13);
        for k in -1..=100i64 {
            assert_eq!(small.sf_fast(k).to_bits(), small.sf(k).to_bits());
        }
        let big = Binomial::new(1_000_000, 0.5);
        for k in [499_000i64, 499_900, 500_000, 500_100, 501_000] {
            let exact = big.sf(k);
            let fast = big.sf_fast(k);
            assert!(
                (fast - exact).abs() <= 1e-13 * exact.max(1.0 - exact),
                "k={k}: fast={fast:e} exact={exact:e}"
            );
        }
    }

    #[test]
    fn range_prob_consistency() {
        let b = Binomial::new(60, 0.45);
        for lo in [-3i64, 0, 10, 27, 40] {
            for hi in [0i64, 5, 27, 59, 60, 80] {
                let direct: f64 = if lo <= hi {
                    (lo.max(0)..=hi.min(60)).map(|k| b.pmf(k as u64)).sum()
                } else {
                    0.0
                };
                assert!(
                    is_close_abs(b.range_prob(lo, hi), direct, 1e-11),
                    "range [{lo},{hi}]"
                );
            }
        }
        assert_eq!(b.range_prob(5, 4), 0.0);
    }

    #[test]
    fn range_prob_deep_upper_tail_precision() {
        // P[X in [k, k]] deep in the upper tail must match pmf to relative
        // precision — the naive cdf difference would lose all digits here.
        let b = Binomial::new(10_000, 0.01);
        for k in [300u64, 400, 500] {
            let rp = b.range_prob(k as i64, k as i64);
            let pmf = b.pmf(k);
            assert!(
                is_close(rp, pmf, 1e-6),
                "tail pmf k={k}: range={rp:e} pmf={pmf:e}"
            );
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let b = Binomial::new(200, 0.3);
        for &q in &[1e-9, 0.001, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-12] {
            let k = b.quantile(q);
            assert!(b.cdf(k as i64) >= q, "cdf(quantile) >= q failed at q={q}");
            if k > 0 {
                assert!(b.cdf(k as i64 - 1) < q, "minimality failed at q={q}");
            }
        }
    }

    #[test]
    fn support_for_mass_covers_mass() {
        for &(n, p, tau) in &[
            (1_000u64, 0.5, 1e-9),
            (1_000, 0.01, 1e-12),
            (100_000, 0.001, 1e-10),
            (50, 0.9, 1e-6),
        ] {
            let b = Binomial::new(n, p);
            let (lo, hi) = b.support_for_mass(tau);
            let out = b.cdf(lo as i64 - 1) + b.sf(hi as i64);
            assert!(out <= tau * 1.000_001, "neglected mass {out:e} > {tau:e}");
            // The bracket should be narrow compared to the full support.
            if n >= 1_000 {
                assert!(hi - lo < n, "bracket is the whole support");
            }
        }
    }

    #[test]
    fn support_window_matches_support_for_mass_for_any_hint() {
        // The bracket endpoints are unique answers of monotone predicates, so
        // every hint — including adversarially wrong ones — must return the
        // exact same window as the full bisection.
        for &(n, p, tau) in &[
            (1_000u64, 0.5, 1e-9),
            (1_000, 0.01, 1e-12),
            (100_000, 0.001, 1e-10),
            (50, 0.9, 1e-6),
            (1, 0.5, 1e-9),
            (0, 0.5, 1e-9),
        ] {
            let b = Binomial::new(n, p);
            let plain = b.support_window(tau, None);
            assert_eq!((plain.lo, plain.hi), b.support_for_mass(tau));
            let hints = [
                (0, 0),
                (n, n),
                (plain.lo, plain.hi),
                (plain.lo + 1, plain.hi.saturating_sub(1)),
                (plain.lo.saturating_sub(7), plain.hi + 7),
                (n / 2, n / 2),
                (plain.hi, plain.lo), // crossed hint
                (n + 100, n + 100),   // out-of-range hint is clamped
            ];
            for &hint in &hints {
                let hinted = b.support_window(tau, Some(hint));
                assert_eq!(
                    (hinted.lo, hinted.hi),
                    (plain.lo, plain.hi),
                    "hinted window diverged: n={n} p={p} tau={tau:e} hint={hint:?}"
                );
            }
        }
    }

    #[test]
    fn support_window_near_hint_probes_less() {
        let b = Binomial::new(1_000_000, 0.23);
        let plain = b.support_window(1e-14, None);
        let exact = b.support_window(1e-14, Some((plain.lo, plain.hi)));
        let near = b.support_window(1e-14, Some((plain.lo + 13, plain.hi - 13)));
        assert!(
            exact.probes < plain.probes && near.probes < plain.probes,
            "hinted search should probe less: plain={} exact-hint={} near-hint={}",
            plain.probes,
            exact.probes,
            near.probes
        );
        // A dead-on hint needs only boundary confirmation probes.
        assert!(exact.probes <= 6, "exact hint probes: {}", exact.probes);
    }

    #[test]
    fn support_window_zero_mass_is_full_support() {
        let b = Binomial::new(42, 0.5);
        let w = b.support_window(0.0, Some((10, 20)));
        assert_eq!((w.lo, w.hi, w.probes), (0, 42, 0));
    }

    #[test]
    fn with_trials_matches_new() {
        let base = Binomial::new(10, 0.37);
        let re = base.with_trials(1234);
        assert_eq!(re, Binomial::new(1234, 0.37));
        assert_eq!(re.n(), 1234);
        assert_eq!(re.p(), 0.37);
    }

    #[test]
    fn weights_match_pmf() {
        let b = Binomial::new(500, 0.123);
        let (lo, hi) = b.support_for_mass(1e-12);
        let w = b.weights_in(lo, hi);
        for (i, &wi) in w.iter().enumerate() {
            let k = lo + i as u64;
            assert!(
                is_close(wi, b.pmf(k), 1e-9),
                "weight mismatch at k={k}: {wi:e} vs {:e}",
                b.pmf(k)
            );
        }
        let total: f64 = w.iter().sum();
        assert!(total > 1.0 - 1e-9 && total <= 1.0 + 1e-12);
    }

    #[test]
    fn weights_degenerate() {
        let b = Binomial::new(10, 0.0);
        let w = b.weights_in(0, 10);
        assert_eq!(w[0], 1.0);
        assert!(w[1..].iter().all(|&x| x == 0.0));
        let b = Binomial::new(10, 1.0);
        let w = b.weights_in(0, 10);
        assert_eq!(w[10], 1.0);
    }

    #[test]
    fn huge_n_cdf_is_sane() {
        // n = 1e8: CDF at the mean must be ~0.5 and the quadrature path of the
        // incomplete beta must be engaged without pathological values.
        let b = Binomial::new(100_000_000, 0.25);
        let mean = b.mean() as i64;
        let v = b.cdf(mean);
        assert!((v - 0.5).abs() < 1e-3, "cdf at mean: {v}");
        let (lo, hi) = b.support_for_mass(1e-9);
        assert!(hi - lo < 2_000_000, "support too wide: {} .. {}", lo, hi);
        let w = b.weights_in(lo, hi);
        let total: f64 = w.iter().sum();
        assert!(total > 1.0 - 1e-8 && total < 1.0 + 1e-8, "total={total}");
    }
}
