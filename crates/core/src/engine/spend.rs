//! Continual-accounting seam: memoized per-round Rényi spend vectors and
//! the cohort-affordability search.
//!
//! A stateless [`QueryTarget::Composed`] query prices `rounds` adaptive
//! shuffle executions of **one** workload through [`crate::renyi::RenyiBound`].
//! A budget *ledger* (the `vr-ledger` crate) needs the same arithmetic as a
//! reusable primitive: each user accumulates rounds across many charges —
//! possibly of several distinct workloads — and every `remaining(ε, δ)`
//! answer must stay **bit-identical** to the equivalent forward `composed`
//! query through the engine.
//!
//! [`RoundSpend`] (defined next to the kernel in [`crate::renyi`] and
//! re-exported here) is that primitive: the per-order Rényi price of *one*
//! round of a workload, evaluated once over [`default_lambda_grid`] by the
//! one-pass kernel [`renyi_divergences`] and then reused. Bit-identity holds
//! because there is only one code path, not a mirrored one:
//!
//! * [`renyi_divergences`] is deterministic, so a memoized price vector
//!   equals a freshly recomputed one bit for bit;
//! * [`crate::renyi::RenyiBound`] *is* a `RoundSpend` plus a round count,
//!   and its `epsilon` is [`RoundSpend::epsilon`]: the fold
//!   `min(rdp_to_dp(λ, rounds·rdp_λ, δ))` over the grid in grid order from
//!   `+∞`, written once;
//! * [`composed_epsilon_over`] generalizes to several workloads by summing
//!   `rounds_w · rdp_{w,λ}` per order in term order; a single-term spend
//!   starts that sum at `0.0`, and IEEE-754 `0.0 + x` is exact for every
//!   non-negative `x`, so the single-workload ledger path reproduces the
//!   forward query bit for bit.
//!
//! [`AnalysisEngine::round_spend`](super::AnalysisEngine::round_spend)
//! memoizes these vectors engine-wide (the engine's *stateful execution
//! seam*): the engine's own `Composed` execution and every ledger charge
//! share one cache, so a daemon pricing a cohort's rounds warms the same
//! state its forward queries use.
//!
//! [`affordable_rounds`] is the planner hook — "how many more rounds can
//! this cohort afford before exhausting `(ε, δ)`?" — reusing the integer
//! monotone search the planner replays ([`doubling_bisection_u64`]) so
//! the answer carries the same witness-pair
//! [`PlanCertificate`] the inverse planner queries do.
//!
//! [`QueryTarget::Composed`]: super::QueryTarget::Composed
//! [`default_lambda_grid`]: crate::renyi::default_lambda_grid
//! [`renyi_divergences`]: crate::renyi::renyi_divergences

use super::{canonical_bits, PlanCertificate};
use crate::error::{Error, Result};
use crate::params::VariationRatio;
pub use crate::renyi::{composed_epsilon_over, RoundSpend, SpendTerm};
use vr_numerics::search::doubling_bisection_u64;

/// Cache key of a memoized [`RoundSpend`]: canonicalized bit patterns of the
/// workload parameters plus the population (same canonicalization as the
/// evaluator cache: `-0.0` folds onto `0.0`; [`VariationRatio`] is NaN-free
/// by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpendKey {
    p: u64,
    beta: u64,
    q: u64,
    n: u64,
}

impl SpendKey {
    /// Key for one round of workload `(vr, n)`.
    pub fn new(vr: &VariationRatio, n: u64) -> Self {
        Self {
            p: canonical_bits(vr.p()),
            beta: canonical_bits(vr.beta()),
            q: canonical_bits(vr.q()),
            n,
        }
    }
}

/// Outcome of the cohort-affordability search ([`affordable_rounds`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Affordability {
    /// Additional rounds affordable within the budget (0 when even one
    /// more round would exceed it, or when the budget is already spent).
    pub rounds: u32,
    /// `ε` already spent at the probed `δ` — the `k = 0` evaluation.
    pub spent: f64,
    /// The probe cap was reached while still affordable (e.g. a degenerate
    /// free workload): `rounds` is the cap, not a discovered threshold.
    pub saturated: bool,
    /// Witness-pair certificate: `passing` is the affordable count
    /// (evaluated affordable), `failing` the adjacent unaffordable count
    /// (`None` when saturated — the search never saw a failure). `None`
    /// when the budget was already exhausted at `k = 0` (no affordable
    /// candidate exists to certify).
    pub certificate: Option<PlanCertificate>,
}

/// Certified answer to "how many **more** rounds fit inside `(eps, delta)`?"
///
/// `epsilon_after(k)` must report the composed `ε` at `δ` of the state
/// *after* `k` additional rounds (`k = 0` is the current state) and must be
/// monotone non-decreasing in `k` — true of every Rényi spend, whose
/// per-order prices are non-negative. The search brackets by doubling and
/// bisects to **adjacent integers** ([`doubling_bisection_u64`], with no
/// pruning), so both certificate candidates were actually
/// evaluated — the same contract as the planner's population search.
///
/// # Errors
///
/// Rejects a non-finite or negative budget, a `δ` outside `(0, 1)`, a zero
/// probe cap, answers [`Error::Internal`] when `epsilon_after` contradicts
/// itself on re-evaluation, and propagates its errors unchanged.
pub fn affordable_rounds<F>(
    mut epsilon_after: F,
    eps: f64,
    delta: f64,
    cap: u32,
) -> Result<Affordability>
where
    F: FnMut(u32) -> Result<f64>,
{
    if !eps.is_finite() || eps < 0.0 {
        return Err(Error::InvalidParameter(format!(
            "affordability budget epsilon must be finite and non-negative (got {eps})"
        )));
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err(Error::InvalidParameter(format!(
            "affordability delta must be in (0, 1) (got {delta})"
        )));
    }
    if cap == 0 {
        return Err(Error::InvalidParameter(
            "affordability probe cap must be at least one round".into(),
        ));
    }
    let mut evaluations = 1u32;
    let spent = epsilon_after(0)?;
    if spent > eps {
        return Ok(Affordability {
            rounds: 0,
            spent,
            saturated: false,
            certificate: None,
        });
    }
    // The bisection starts from the largest count the doubling saw
    // affordable, else from `k = 0` (evaluated again: that re-check is part
    // of the pinned evaluation count).
    let unaffordable = |k: u64| -> Result<bool> {
        evaluations = evaluations.saturating_add(1);
        let k32 = u32::try_from(k).map_err(|_| {
            Error::Internal("affordability probe exceeded the u32 round domain".into())
        })?;
        Ok(epsilon_after(k32)? > eps)
    };
    let cap64 = u64::from(cap);
    let Some(bracket) = doubling_bisection_u64(unaffordable, 0, 1, cap64)? else {
        // Even `cap` additional rounds stay affordable.
        return Ok(Affordability {
            rounds: cap,
            spent,
            saturated: true,
            certificate: Some(PlanCertificate {
                failing: None,
                passing: cap64 as f64,
                evaluations,
                cache_hits: 0,
            }),
        });
    };
    // `first_feasible` is the first *unaffordable* count; the candidate just
    // below it was evaluated affordable (`k = 0` counts: its evaluation is
    // the `spent` probe above).
    let affordable64 = bracket.first_feasible.saturating_sub(1);
    let rounds = u32::try_from(affordable64).map_err(|_| {
        Error::Internal("affordable round count exceeded the u32 round domain".into())
    })?;
    Ok(Affordability {
        rounds,
        spent,
        saturated: false,
        certificate: Some(PlanCertificate {
            failing: Some(bracket.first_feasible as f64),
            passing: affordable64 as f64,
            evaluations,
            cache_hits: 0,
        }),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::super::AnalysisEngine;
    use super::*;
    use crate::renyi::{default_lambda_grid, rdp_to_dp};

    fn wc(eps0: f64) -> VariationRatio {
        VariationRatio::ldp_worst_case(eps0).unwrap()
    }

    #[test]
    fn round_spend_epsilon_is_bit_identical_to_renyi_bound() {
        for &(eps0, n) in &[(0.5, 1_000u64), (1.0, 10_000), (2.0, 250_000)] {
            let vr = wc(eps0);
            let spend = RoundSpend::new(vr, n).unwrap();
            // The reference divergences come from the frozen per-order
            // kernel (independent of the fused pass both `RoundSpend` and
            // `RenyiBound` share), computed once per n, and folded here
            // independently of `RoundSpend::epsilon`: min over λ from `+∞`,
            // in grid order.
            let reference_rdp: Vec<(f64, f64)> = default_lambda_grid()
                .into_iter()
                .map(|lambda| {
                    let rdp = crate::renyi::frozen::renyi_divergence(&vr, n, lambda).unwrap();
                    (lambda, rdp)
                })
                .collect();
            let reference = |rounds: u32, delta: f64| {
                reference_rdp
                    .iter()
                    .fold(f64::INFINITY, |best, &(lambda, rdp)| {
                        best.min(rdp_to_dp(lambda, rounds as f64 * rdp, delta))
                    })
            };
            for rounds in [1u32, 2, 3, 7, 64, 1000] {
                for delta in [1e-5, 1e-8, 1e-12] {
                    assert_eq!(
                        spend.epsilon(rounds, delta).to_bits(),
                        reference(rounds, delta).to_bits(),
                        "drift at eps0={eps0} n={n} rounds={rounds} delta={delta:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_term_composition_matches_round_spend() {
        let spend = RoundSpend::new(wc(1.0), 50_000).unwrap();
        for rounds in [1u32, 5, 41] {
            assert_eq!(
                composed_epsilon_over(&[(&spend, rounds)], 1e-9)
                    .unwrap()
                    .to_bits(),
                spend.epsilon(rounds, 1e-9).to_bits()
            );
        }
    }

    #[test]
    fn multi_workload_composition_is_order_monotone_and_finite() {
        let a = RoundSpend::new(wc(1.0), 10_000).unwrap();
        let b = RoundSpend::new(wc(0.5), 20_000).unwrap();
        let one = composed_epsilon_over(&[(&a, 2)], 1e-8).unwrap();
        let both = composed_epsilon_over(&[(&a, 2), (&b, 3)], 1e-8).unwrap();
        assert!(both.is_finite() && both >= one, "{both} < {one}");
        assert!(composed_epsilon_over(&[], 1e-8).is_err());
    }

    #[test]
    fn engine_round_spend_memoizes_and_stays_bit_identical() {
        let engine = AnalysisEngine::new();
        let vr = wc(1.0);
        let (cold, warm_flag) = engine.round_spend(vr, 10_000).unwrap();
        assert!(!warm_flag);
        let (warm, warm_flag) = engine.round_spend(vr, 10_000).unwrap();
        assert!(warm_flag);
        assert!(Arc::ptr_eq(&cold, &warm));
        assert_eq!(engine.cached_spends(), 1);
        let fresh = RoundSpend::new(vr, 10_000).unwrap();
        assert_eq!(
            warm.epsilon(9, 1e-7).to_bits(),
            fresh.epsilon(9, 1e-7).to_bits()
        );
        engine.clear_cache();
        assert_eq!(engine.cached_spends(), 0);
    }

    #[test]
    fn affordable_rounds_certificate_is_adjacent_and_forward_checkable() {
        let spend = RoundSpend::new(wc(1.0), 100_000).unwrap();
        let delta = 1e-8;
        let budget = spend.epsilon(10, delta); // exactly ten rounds affordable
        let afford = affordable_rounds(
            |k| Ok(if k == 0 { 0.0 } else { spend.epsilon(k, delta) }),
            budget,
            delta,
            1 << 20,
        )
        .unwrap();
        assert_eq!(afford.rounds, 10);
        assert!(!afford.saturated);
        let cert = afford.certificate.expect("interior threshold certifies");
        assert_eq!(cert.passing, 10.0);
        assert_eq!(cert.failing, Some(11.0));
        // k = 0, doubling 1…16, re-checks of 8 and 16, bisection 12, 10, 11.
        assert_eq!(cert.evaluations, 11);
        assert!(spend.epsilon(10, delta) <= budget);
        assert!(spend.epsilon(11, delta) > budget);
    }

    #[test]
    fn affordable_rounds_edge_cases() {
        let spend = RoundSpend::new(wc(2.0), 1_000).unwrap();
        let delta = 1e-6;
        // Budget below even one round: zero affordable, still certified.
        let one = spend.epsilon(1, delta);
        let afford =
            affordable_rounds(|k| Ok(spend.epsilon(k, delta)), one * 0.5, delta, 64).unwrap();
        assert_eq!(afford.rounds, 0);
        // Already over budget: zero affordable, no certificate.
        let over = affordable_rounds(|_| Ok(10.0), 1.0, delta, 64).unwrap();
        assert_eq!(over.rounds, 0);
        assert!(over.certificate.is_none());
        assert_eq!(over.spent, 10.0);
        // Free workload saturates at the cap.
        let free = affordable_rounds(|_| Ok(0.0), 1.0, delta, 512).unwrap();
        assert_eq!(free.rounds, 512);
        assert!(free.saturated);
        // Domain checks.
        assert!(affordable_rounds(|_| Ok(0.0), f64::NAN, delta, 1).is_err());
        assert!(affordable_rounds(|_| Ok(0.0), 1.0, 0.0, 1).is_err());
        assert!(affordable_rounds(|_| Ok(0.0), 1.0, delta, 0).is_err());
        // A spend that changes its answer is a broken invariant, not a bad
        // input: one round reads unaffordable, then affordable on re-check.
        let mut seen_one = false;
        let flaky = |k: u32| {
            let first_one = k == 1 && !seen_one;
            seen_one |= k == 1;
            Ok(if first_one { 10.0 } else { 0.0 })
        };
        assert!(matches!(
            affordable_rounds(flaky, 1.0, delta, 64),
            Err(Error::Internal(_))
        ));
    }

    #[test]
    fn degenerate_workload_is_free() {
        let vr = VariationRatio::new(2.0, 0.0, 2.0).unwrap();
        let spend = RoundSpend::new(vr, 1_000).unwrap();
        assert!(spend.is_free());
        assert!(!RoundSpend::new(wc(1.0), 1_000).unwrap().is_free());
    }
}
