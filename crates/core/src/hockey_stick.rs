//! Hockey-stick divergence over explicit discrete distributions
//! (Definition 3.1 of the paper) and `(ε, δ)`-indistinguishability searches.
//!
//! These generic helpers operate on densely-indexed pmf slices. They are used
//! for: extracting lower-bound parameters from concrete randomizers
//! (Theorem 5.1), validating the accountant against exact tiny-`n` shuffled
//! distributions, and computing the per-mechanism `β` values of Table 2.

use crate::error::{Error, Result};
use vr_numerics::search::bisect_monotone;

/// `D_{e^ε}(P‖Q) = Σ_y max(0, P(y) − e^ε·Q(y))`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn hockey_stick(p: &[f64], q: &[f64], eps: f64) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions must share a support");
    let ee = eps.exp();
    p.iter()
        .zip(q)
        .map(|(&pi, &qi)| (pi - ee * qi).max(0.0))
        .sum()
}

/// `max(D_{e^ε}(P‖Q), D_{e^ε}(Q‖P))` — the symmetric divergence used in the
/// definition of `(ε, δ)`-indistinguishability.
pub fn hockey_stick_symmetric(p: &[f64], q: &[f64], eps: f64) -> f64 {
    hockey_stick(p, q, eps).max(hockey_stick(q, p, eps))
}

/// Total variation distance `D_1(P‖Q)` (the hockey-stick at `ε = 0`).
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    hockey_stick(p, q, 0.0)
}

/// Maximum probability ratio `max_y P(y)/Q(y)` over the support
/// (`+∞` if `P` has mass where `Q` does not). This is the tight `p` (and, by
/// symmetry, `q`) parameter of a concrete randomizer pair.
pub fn max_ratio(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len());
    let mut m: f64 = 1.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi > 0.0 {
            if qi == 0.0 {
                return f64::INFINITY;
            }
            m = m.max(pi / qi);
        }
    }
    m
}

/// Smallest `ε ≥ 0` with `max(D_{e^ε}(P‖Q), D_{e^ε}(Q‖P)) ≤ δ`, found by
/// bisection (the divergence is monotone non-increasing in ε). Returns an
/// upper-biased value after `iters` halvings of the bracket.
pub fn epsilon_for_delta(p: &[f64], q: &[f64], delta: f64, iters: usize) -> Result<f64> {
    if !(0.0..=1.0).contains(&delta) {
        return Err(Error::InvalidParameter(format!(
            "delta must be in [0,1], got {delta}"
        )));
    }
    if hockey_stick_symmetric(p, q, 0.0) <= delta {
        return Ok(0.0);
    }
    let hi = {
        let m = max_ratio(p, q).max(max_ratio(q, p));
        if m.is_finite() {
            m.ln()
        } else {
            // Unbounded ratio: δ is achievable only if the one-sided mass on
            // the disjoint region is small enough; bracket exponentially.
            match vr_numerics::search::exponential_upper_bracket(
                |e| hockey_stick_symmetric(p, q, e) <= delta,
                1.0,
                128.0,
            )? {
                Some(hi) => hi,
                None => {
                    return Err(Error::Unachievable(format!(
                        "delta = {delta} is below the disjoint-support mass"
                    )))
                }
            }
        }
    };
    Ok(bisect_monotone(|e| hockey_stick_symmetric(p, q, e) <= delta, 0.0, hi, iters)?.feasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_numerics::is_close;

    #[test]
    fn identical_distributions_have_zero_divergence() {
        let p = [0.25, 0.5, 0.25];
        assert_eq!(hockey_stick(&p, &p, 0.0), 0.0);
        assert_eq!(hockey_stick(&p, &p, 1.0), 0.0);
        assert_eq!(total_variation(&p, &p), 0.0);
    }

    #[test]
    fn total_variation_of_coins() {
        // TV(Bern(0.8), Bern(0.2)) = 0.6.
        let p = [0.2, 0.8];
        let q = [0.8, 0.2];
        assert!(is_close(total_variation(&p, &q), 0.6, 1e-15));
    }

    #[test]
    fn hockey_stick_monotone_in_eps() {
        let p = [0.7, 0.2, 0.1];
        let q = [0.1, 0.3, 0.6];
        let mut prev = f64::INFINITY;
        for i in 0..30 {
            let eps = 0.1 * i as f64;
            let d = hockey_stick(&p, &q, eps);
            assert!(d <= prev + 1e-15);
            prev = d;
        }
    }

    #[test]
    fn randomized_response_closed_form() {
        // Binary RR with budget eps0: P = (e/(e+1), 1/(e+1)), Q swapped.
        // D_{e^ε}(P‖Q) = (e − e^ε)/(e+1) for ε <= eps0, 0 after.
        let eps0 = 1.3f64;
        let e = eps0.exp();
        let p = [e / (e + 1.0), 1.0 / (e + 1.0)];
        let q = [1.0 / (e + 1.0), e / (e + 1.0)];
        for i in 0..14 {
            let eps = 0.1 * i as f64;
            let expected = ((e - eps.exp()) / (e + 1.0)).max(0.0);
            assert!(
                is_close(hockey_stick(&p, &q, eps), expected, 1e-12),
                "eps={eps}"
            );
        }
        assert_eq!(hockey_stick(&p, &q, eps0 + 0.01), 0.0);
    }

    #[test]
    fn max_ratio_detects_disjoint_support() {
        assert_eq!(max_ratio(&[0.5, 0.5, 0.0], &[0.5, 0.0, 0.5]), f64::INFINITY);
        assert!(is_close(max_ratio(&[0.6, 0.4], &[0.3, 0.7]), 2.0, 1e-15));
    }

    #[test]
    fn epsilon_for_delta_recovers_rr_budget() {
        let eps0 = 2.0f64;
        let e = eps0.exp();
        let p = [e / (e + 1.0), 1.0 / (e + 1.0)];
        let q = [1.0 / (e + 1.0), e / (e + 1.0)];
        // δ = 0 forces ε = eps0 exactly.
        let eps = epsilon_for_delta(&p, &q, 0.0, 60).unwrap();
        assert!(is_close(eps, eps0, 1e-10), "{eps}");
        // A positive δ allows a strictly smaller ε.
        let eps = epsilon_for_delta(&p, &q, 0.05, 60).unwrap();
        assert!(eps < eps0);
        // δ = 1 needs no privacy at all.
        assert_eq!(epsilon_for_delta(&p, &q, 1.0, 60).unwrap(), 0.0);
    }

    #[test]
    fn epsilon_for_delta_unbounded_ratio() {
        // Disjoint mass 0.1: achievable only for δ >= 0.1.
        let p = [0.9, 0.1, 0.0];
        let q = [0.9, 0.0, 0.1];
        assert!(epsilon_for_delta(&p, &q, 0.05, 60).is_err());
        let eps = epsilon_for_delta(&p, &q, 0.15, 60).unwrap();
        assert!(
            eps < 1e-6,
            "disjoint mass below delta needs no epsilon, got {eps}"
        );
    }
}
