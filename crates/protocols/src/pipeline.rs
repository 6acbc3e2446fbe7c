//! The single-message randomize-then-shuffle pipeline
//! `A ∘ S ∘ R_[n]` (Section 3.1): every user randomizes locally, the
//! shuffler anonymizes, and the analyzer aggregates support counts into
//! unbiased frequency estimates.

use crate::shuffler::shuffle_in_place;
use rand::rngs::StdRng;
use vr_core::bound::{BestOf, BoundRegistry};
use vr_core::engine::{AmplificationQuery, AnalysisEngine, PlanCertificate, DEFAULT_N_HI_HINT};
use vr_core::{Error, Result};
use vr_ldp::{estimate_frequencies, FrequencyMechanism, Report};

/// Outcome of one protocol execution.
#[derive(Debug, Clone)]
pub struct ProtocolRun {
    /// Shuffled messages as received by the analyzer.
    pub messages: Vec<Report>,
    /// Unbiased frequency estimates per domain value.
    pub estimates: Vec<f64>,
}

/// Execute the full pipeline for `inputs` under `mechanism`.
pub fn run_frequency_protocol<M: FrequencyMechanism>(
    mechanism: &M,
    inputs: &[usize],
    rng: &mut StdRng,
) -> ProtocolRun {
    assert!(!inputs.is_empty(), "need at least one user");
    let mut messages: Vec<Report> = inputs
        .iter()
        .map(|&x| mechanism.randomize(x, rng))
        .collect();
    shuffle_in_place(&mut messages, rng);
    let estimates = analyze(mechanism, &messages);
    ProtocolRun {
        messages,
        estimates,
    }
}

/// The analyzer `A`: support counting plus debiasing. Exposed separately so
/// examples can re-analyze stored shuffled transcripts.
pub fn analyze<M: FrequencyMechanism>(mechanism: &M, messages: &[Report]) -> Vec<f64> {
    let d = mechanism.domain_size();
    let mut counts = vec![0u64; d];
    for msg in messages {
        for (v, c) in counts.iter_mut().enumerate() {
            if mechanism.supports(msg, v) {
                *c += 1;
            }
        }
    }
    let (pt, pf) = mechanism.support_probs();
    estimate_frequencies(&counts, messages.len() as u64, pt, pf)
}

/// The unified bound registry for a pipeline's mechanism: every upper bound
/// the engine knows for the mechanism's `(p, β, q)` at population `n` (the
/// numerical accountant plus the closed forms), iterable by callers that
/// want per-bound reporting instead of a single number.
pub fn bound_registry<M: FrequencyMechanism>(mechanism: &M, n: u64) -> Result<BoundRegistry> {
    BoundRegistry::upper_bounds(mechanism.variation_ratio(), n)
}

/// The tightest applicable upper bound for a pipeline's mechanism, as a
/// [`BestOf`] over [`bound_registry`] — one object answering both
/// `delta(ε)` and `epsilon(δ)` for the serving path.
pub fn best_bound<M: FrequencyMechanism>(mechanism: &M, n: u64) -> Result<BestOf> {
    bound_registry(mechanism, n)?.into_best_of("pipeline-best")
}

/// Batch-serve the amplified `ε` of one shuffled mechanism at several `δ`
/// targets through a shared [`AnalysisEngine`]: one memoized evaluator
/// answers every query, so a sweep over `δ` (the common serving pattern)
/// costs little more than a single accountant call. Each answer is the
/// tightest applicable upper bound (never looser than the variation-ratio
/// accountant alone) and matches [`best_bound`] exactly.
pub fn serve_epsilons<M: FrequencyMechanism>(
    mechanism: &M,
    n: u64,
    deltas: &[f64],
) -> Result<Vec<f64>> {
    let engine = AnalysisEngine::new();
    let queries = deltas
        .iter()
        .map(|&delta| mechanism.amplification_query(n).epsilon_at(delta).build())
        .collect::<Result<Vec<_>>>()?;
    engine
        .run_batch(&queries)
        .into_iter()
        .map(|r| r.map(|report| report.scalar().expect("epsilon queries are scalar")))
        .collect()
}

/// Per-bound `(name, ε)` report at one `δ` — the pipeline's accounting
/// transparency surface: which analyses apply to this mechanism and what
/// each certifies. Inapplicable bounds are reported with the error message.
///
/// Served as one [`AnalysisEngine::run_batch`] of named queries (the same
/// order [`bound_registry`] registers: numerical, analytic, asymptotic).
pub fn privacy_report<M: FrequencyMechanism>(
    mechanism: &M,
    n: u64,
    delta: f64,
) -> Result<Vec<(String, std::result::Result<f64, Error>)>> {
    let engine = AnalysisEngine::new();
    // One source of truth for the portfolio: the registry's advertised
    // upper-bound membership (also what the engine's Default selection and
    // [`bound_registry`] instantiate).
    let bounds = BoundRegistry::UPPER_BOUND_NAMES;
    let queries = bounds
        .iter()
        .map(|&name| {
            mechanism
                .amplification_query(n)
                .epsilon_at(delta)
                .bound(name)
                .build()
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(bounds
        .iter()
        .zip(engine.run_batch(&queries))
        .map(|(&name, report)| {
            (
                name.to_string(),
                report.map(|r| r.scalar().expect("epsilon queries are scalar")),
            )
        })
        .collect())
}

/// A planned deployment of one shuffled mechanism: the certified minimum
/// population for an `(ε, δ)` target, the search certificate, and the
/// per-bound [`privacy_report`] at exactly that population — everything an
/// operator needs to size a rollout and audit the number.
#[derive(Debug, Clone)]
pub struct DeploymentPlan {
    /// Smallest population at which the shuffled mechanism is
    /// `(ε, δ)`-DP under the engine's default bound portfolio.
    pub min_population: u64,
    /// The planner's evaluated witness pair (fails at `n − 1`, passes at
    /// `n`) plus probe/cache tallies.
    pub certificate: PlanCertificate,
    /// Name of the bound certifying the passing endpoint.
    pub bound: String,
    /// The full per-bound `(name, ε)` report at `min_population` — the
    /// [`privacy_report`] transparency surface, consumed here so the plan
    /// ships with its audit trail.
    pub report: Vec<(String, std::result::Result<f64, Error>)>,
}

/// Answer the deployment question end to end: *how many users does
/// `mechanism` need before its shuffled reports are `(ε, δ)`-DP?* Runs the
/// engine's certified min-population search
/// ([`vr_core::engine::QueryTarget::MinPopulation`]) for the mechanism's
/// variation-ratio parameters, then attaches the [`privacy_report`] at the
/// certified population.
pub fn plan_deployment<M: FrequencyMechanism>(
    mechanism: &M,
    eps: f64,
    delta: f64,
) -> Result<DeploymentPlan> {
    let engine = AnalysisEngine::new();
    let query = AmplificationQuery::params(mechanism.variation_ratio())
        .local_budget(mechanism.eps0())
        .min_population(eps, delta, DEFAULT_N_HI_HINT)
        .build()?;
    let served = engine.run(&query)?;
    let min_population = served.scalar().expect("min-population answers are scalar") as u64;
    let certificate = served
        .certificate
        .expect("planner reports carry a certificate");
    Ok(DeploymentPlan {
        min_population,
        certificate,
        bound: served.bound,
        report: privacy_report(mechanism, min_population, delta)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vr_core::bound::AmplificationBound;
    use vr_ldp::{Grr, KSubset, Olh};

    fn synthetic_inputs(n: usize, weights: &[f64]) -> Vec<usize> {
        // Deterministic proportional assignment.
        let mut out = Vec::with_capacity(n);
        for (v, &w) in weights.iter().enumerate() {
            let reps = (w * n as f64).round() as usize;
            out.extend(std::iter::repeat_n(v, reps));
        }
        out.truncate(n);
        out
    }

    #[test]
    fn grr_pipeline_recovers_distribution() {
        let mech = Grr::new(5, 2.0);
        let weights = [0.35, 0.25, 0.2, 0.15, 0.05];
        let inputs = synthetic_inputs(40_000, &weights);
        let mut rng = StdRng::seed_from_u64(42);
        let run = run_frequency_protocol(&mech, &inputs, &mut rng);
        for (est, truth) in run.estimates.iter().zip(weights.iter()) {
            assert!((est - truth).abs() < 0.02, "{est} vs {truth}");
        }
    }

    #[test]
    fn subset_and_olh_pipelines_agree_on_truth() {
        let weights = [0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0];
        let inputs = synthetic_inputs(50_000, &weights);
        let mut rng = StdRng::seed_from_u64(9);
        let sub = KSubset::optimal(8, 1.0);
        let olh = Olh::optimal(8, 1.0);
        let run_a = run_frequency_protocol(&sub, &inputs, &mut rng);
        let run_b = run_frequency_protocol(&olh, &inputs, &mut rng);
        for (v, &w) in weights.iter().enumerate() {
            assert!((run_a.estimates[v] - w).abs() < 0.03, "subset v={v}");
            assert!((run_b.estimates[v] - w).abs() < 0.03, "olh v={v}");
        }
    }

    #[test]
    fn shuffling_preserves_analysis() {
        // The analyzer must be permutation-invariant: estimates computed from
        // shuffled and unshuffled transcripts coincide.
        let mech = Grr::new(4, 1.0);
        let inputs = synthetic_inputs(2_000, &[0.4, 0.3, 0.2, 0.1]);
        let mut rng = StdRng::seed_from_u64(5);
        let unshuffled: Vec<Report> = inputs
            .iter()
            .map(|&x| mech.randomize(x, &mut rng))
            .collect();
        let est_a = analyze(&mech, &unshuffled);
        let shuffled = crate::shuffler::shuffle(unshuffled, &mut rng);
        let est_b = analyze(&mech, &shuffled);
        assert_eq!(est_a, est_b);
    }

    #[test]
    fn amplification_statement_is_available() {
        let mech = Grr::new(16, 1.0);
        let eps = serve_epsilons(&mech, 100_000, &[1e-8]).unwrap()[0];
        assert!(
            eps < 0.06,
            "GRR-16 at n=1e5 should amplify strongly, got {eps}"
        );
    }

    #[test]
    fn served_batch_matches_best_bound() {
        let mech = Grr::new(16, 1.0);
        let n = 100_000;
        let deltas = [1e-6, 1e-8, 1e-10];
        let served = serve_epsilons(&mech, n, &deltas).unwrap();
        let best = best_bound(&mech, n).unwrap();
        for (&delta, &eps) in deltas.iter().zip(&served) {
            assert_eq!(
                eps.to_bits(),
                best.epsilon(delta).unwrap().to_bits(),
                "served batch diverged from best_bound at delta={delta:e}"
            );
        }
    }

    #[test]
    fn best_bound_never_looser_than_any_registry_member() {
        let mech = Grr::new(16, 1.0);
        let n = 100_000;
        let delta = 1e-8;
        let best = serve_epsilons(&mech, n, &[delta]).unwrap()[0];
        for (name, eps) in privacy_report(&mech, n, delta).unwrap() {
            if let Ok(e) = eps {
                assert!(best <= e + 1e-12, "best {best} looser than {name} = {e}");
            }
        }
    }

    #[test]
    fn plan_deployment_certifies_both_endpoints() {
        use vr_core::engine::QueryTarget;
        use vr_ldp::AmplifiableMechanism;
        let mech = Grr::new(16, 1.0);
        let (eps, delta) = (0.3, 1e-8);
        let plan = plan_deployment(&mech, eps, delta).unwrap();
        assert!(plan.min_population > 1, "GRR-16 needs real amplification");
        assert_eq!(plan.certificate.passing, plan.min_population as f64);
        assert_eq!(
            plan.certificate.failing,
            Some((plan.min_population - 1) as f64)
        );
        // Forward re-check of the certificate through the public engine.
        let engine = AnalysisEngine::new();
        let check = |n: u64| {
            let q = mech.amplification_query(n).delta_at(eps).build().unwrap();
            assert!(matches!(q.target(), QueryTarget::Delta { .. }));
            engine.run(&q).unwrap().scalar().unwrap()
        };
        assert!(check(plan.min_population) <= delta);
        assert!(check(plan.min_population - 1) > delta);
        // The attached transparency report is the privacy_report at min n.
        let reference = privacy_report(&mech, plan.min_population, delta).unwrap();
        assert_eq!(plan.report.len(), reference.len());
        for ((name_a, eps_a), (name_b, eps_b)) in plan.report.iter().zip(&reference) {
            assert_eq!(name_a, name_b);
            if let (Ok(a), Ok(b)) = (eps_a, eps_b) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn privacy_report_lists_all_engine_bounds() {
        use vr_core::bound::names;
        let mech = Grr::new(8, 2.0);
        let report = privacy_report(&mech, 10_000, 1e-6).unwrap();
        let listed: Vec<&str> = report.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            listed,
            vec![names::NUMERICAL, names::ANALYTIC, names::ASYMPTOTIC]
        );
        // The numerical accountant always answers.
        assert!(report[0].1.is_ok());
    }
}
