//! The dominating pair of binomial counts `P^q_{p,β} / Q^q_{p,β}`
//! (Lemma 4.5 / Theorem 4.7 of the paper).
//!
//! With `C ~ Binom(n−1, 2r)`, `A ~ Binom(C, 1/2)`, `Δ₁ ~ Bern(pα)` and
//! `Δ₂ ~ Bern(1−Δ₁, α/(1−pα))`:
//!
//! ```text
//! P = (A + Δ₁, C − A + Δ₂)      Q = (A + Δ₂, C − A + Δ₁)
//! ```
//!
//! Theorem 4.7 states that for *any* divergence `D` satisfying the
//! data-processing inequality, the divergence between two shuffled runs is at
//! most `D(P ‖ Q)`. This module materializes the pair as an explicit discrete
//! distribution (pmf, enumeration, sampling) — the basis for exact small-`n`
//! cross-checks, the Rényi extension, and Monte-Carlo validation; the `O(n)`
//! accountant in [`crate::accountant`] never enumerates it.

use crate::params::VariationRatio;
use vr_numerics::Binomial;

/// Explicit representation of the dominating pair for a given population `n`.
#[derive(Debug, Clone)]
pub struct DominatingPair {
    vr: VariationRatio,
    n: u64,
}

impl DominatingPair {
    /// Create the pair for a protocol with `n ≥ 1` users (victim included).
    pub fn new(vr: VariationRatio, n: u64) -> Self {
        assert!(n >= 1, "population must contain at least the victim");
        Self { vr, n }
    }

    /// Number of users `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The underlying parameters.
    pub fn params(&self) -> &VariationRatio {
        &self.vr
    }

    /// Probability `P[P^q_{p,β} = (a, b)]`.
    ///
    /// Decomposed over the three victim components (Appendix E):
    /// `pα·P[P₀=(a,b)] + α·P[P₁=(a,b)] + (1−α−pα)·P[P̄=(a,b)]` where
    /// `P₀ = (A+1, C−A)`, `P₁ = (A, C−A+1)`, `P̄ = (A, C−A)`.
    pub fn pmf_p(&self, a: u64, b: u64) -> f64 {
        let alpha = self.vr.alpha();
        let p_alpha = self.vr.p_alpha();
        let rest = self.vr.non_differing();
        let two_r = self.vr.clone_probability().min(1.0);
        let outer = Binomial::new(self.n - 1, two_r);

        let mut total = 0.0;
        // P0 component: C = a+b−1, A = a−1 (requires a >= 1, a+b−1 <= n−1).
        if a >= 1 && a + b >= 1 && a + b <= self.n {
            let c = a + b - 1;
            total += p_alpha * outer.pmf(c) * Binomial::new(c, 0.5).pmf(a - 1);
        }
        // P1 component: C = a+b−1, A = a (requires b >= 1).
        if b >= 1 && a + b >= 1 && a + b <= self.n {
            let c = a + b - 1;
            total += alpha * outer.pmf(c) * Binomial::new(c, 0.5).pmf(a);
        }
        // P̄ component: C = a+b, A = a.
        if a + b < self.n {
            let c = a + b;
            total += rest * outer.pmf(c) * Binomial::new(c, 0.5).pmf(a);
        }
        total
    }

    /// Probability `P[Q^q_{p,β} = (a, b)]`; by the symmetry of the
    /// construction this equals `pmf_p(b, a)`.
    pub fn pmf_q(&self, a: u64, b: u64) -> f64 {
        self.pmf_p(b, a)
    }

    /// The likelihood ratio `P[P = (a,b)] / P[Q = (a,b)]` in the closed form
    /// of Appendix E (Equation 9):
    ///
    /// `1 + (p−1)α(a−b) / (αa + pαb + (1−α−pα)(n−a−b)·r/(1−2r))`.
    ///
    /// Returns `+∞` where `Q` has zero mass but `P` does not.
    pub fn likelihood_ratio(&self, a: u64, b: u64) -> f64 {
        let alpha = self.vr.alpha();
        let p_alpha = self.vr.p_alpha();
        let rest = self.vr.non_differing();
        let r = self.vr.r();
        let (af, bf) = (a as f64, b as f64);
        let rem = (self.n - a.min(self.n) - b.min(self.n - a.min(self.n))) as f64;
        let tail = if rest == 0.0 || rem == 0.0 {
            0.0
        } else if 1.0 - 2.0 * r <= 0.0 {
            f64::INFINITY
        } else {
            rest * rem * r / (1.0 - 2.0 * r)
        };
        let num = p_alpha * af + alpha * bf + tail;
        let den = alpha * af + p_alpha * bf + tail;
        if den == 0.0 {
            if num == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            num / den
        }
    }

    /// Enumerate the joint support `{(a, b) : a + b ≤ n}` with both pmfs,
    /// skipping entries whose combined mass is below `floor`. Only intended
    /// for small `n` (exact divergence tests, Rényi accounting).
    pub fn enumerate(&self, floor: f64) -> Vec<(u64, u64, f64, f64)> {
        let mut out = Vec::new();
        for total in 0..=self.n {
            for a in 0..=total {
                let b = total - a;
                let pp = self.pmf_p(a, b);
                let qq = self.pmf_q(a, b);
                if pp > floor || qq > floor {
                    out.push((a, b, pp, qq));
                }
            }
        }
        out
    }

    /// Draw one sample of `P^q_{p,β}` (pass `flip = true` for `Q^q_{p,β}`).
    pub fn sample<R: rand::Rng>(&self, rng: &mut R, flip: bool) -> (u64, u64) {
        let two_r = self.vr.clone_probability().min(1.0);
        let mut c = 0u64;
        for _ in 0..self.n - 1 {
            if rng.random_bool(two_r) {
                c += 1;
            }
        }
        let mut a = 0u64;
        for _ in 0..c {
            if rng.random_bool(0.5) {
                a += 1;
            }
        }
        let u: f64 = rng.random_range(0.0..1.0);
        let p_alpha = self.vr.p_alpha();
        let alpha = self.vr.alpha();
        let (d1, d2) = if u < p_alpha {
            (1u64, 0u64)
        } else if u < p_alpha + alpha {
            (0, 1)
        } else {
            (0, 0)
        };
        if flip {
            (a + d2, c - a + d1)
        } else {
            (a + d1, c - a + d2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_numerics::is_close;

    fn pair(p: f64, beta: f64, q: f64, n: u64) -> DominatingPair {
        DominatingPair::new(VariationRatio::new(p, beta, q).unwrap(), n)
    }

    #[test]
    fn pmf_sums_to_one() {
        for dp in [
            pair(3.0, 0.3, 3.0, 6),
            pair(2.0, 0.2, 5.0, 10),
            pair(f64::INFINITY, 0.8, 3.0, 8),
            pair(f64::INFINITY, 1.0, 2.0, 5),
        ] {
            let sum_p: f64 = dp.enumerate(-1.0).iter().map(|e| e.2).sum();
            let sum_q: f64 = dp.enumerate(-1.0).iter().map(|e| e.3).sum();
            assert!(is_close(sum_p, 1.0, 1e-10), "P mass {sum_p}");
            assert!(is_close(sum_q, 1.0, 1e-10), "Q mass {sum_q}");
        }
    }

    #[test]
    fn symmetry_p_q() {
        let dp = pair(4.0, 0.4, 6.0, 7);
        for (a, b, pp, qq) in dp.enumerate(-1.0) {
            assert!(is_close(qq, dp.pmf_p(b, a), 1e-14), "({a},{b})");
            let _ = pp;
        }
    }

    #[test]
    fn likelihood_ratio_matches_pmf_ratio() {
        let dp = pair(3.0, 0.25, 4.0, 9);
        for (a, b, pp, qq) in dp.enumerate(1e-12) {
            if qq > 1e-12 {
                let lr = dp.likelihood_ratio(a, b);
                assert!(
                    is_close(lr, pp / qq, 1e-8),
                    "ratio mismatch at ({a},{b}): {lr} vs {}",
                    pp / qq
                );
            }
        }
    }

    #[test]
    fn ratio_monotone_in_a_for_fixed_total() {
        // Appendix E's key observation: P/Q increases with a when a+b fixed.
        let dp = pair(5.0, 0.5, 5.0, 12);
        for total in 1..=12u64 {
            let mut prev = 0.0;
            for a in 0..=total {
                let lr = dp.likelihood_ratio(a, total - a);
                assert!(lr >= prev - 1e-12, "not monotone at total={total}, a={a}");
                prev = lr;
            }
        }
    }

    #[test]
    fn ratio_bounded_by_p() {
        let dp = pair(5.0, 0.5, 5.0, 10);
        for (a, b, _, qq) in dp.enumerate(1e-13) {
            if qq > 1e-13 {
                let lr = dp.likelihood_ratio(a, b);
                assert!(lr <= 5.0 + 1e-9, "ratio {lr} exceeds p at ({a},{b})");
                assert!(lr >= 1.0 / 5.0 - 1e-9);
            }
        }
    }

    #[test]
    fn sampling_matches_pmf() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let dp = pair(3.0, 0.3, 3.0, 5);
        let trials = 200_000usize;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..trials {
            *counts.entry(dp.sample(&mut rng, false)).or_insert(0usize) += 1;
        }
        for (a, b, pp, _) in dp.enumerate(1e-3) {
            let emp = *counts.get(&(a, b)).unwrap_or(&0) as f64 / trials as f64;
            assert!(
                (emp - pp).abs() < 5e-3,
                "({a},{b}): empirical {emp} vs pmf {pp}"
            );
        }
    }
}
