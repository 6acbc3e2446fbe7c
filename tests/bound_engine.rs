//! Property-based tests of the unified bound engine (proptest): every
//! trait-migrated bound must agree with the engine's answer to the same
//! named query, and `BestOf` must never be looser than any of its members.

use proptest::prelude::*;
use shuffle_amplification::core::accountant::{Accountant, ScanMode, SearchOptions};
use shuffle_amplification::core::analytic::AnalyticBound;
use shuffle_amplification::core::asymptotic::AsymptoticBound;
use shuffle_amplification::core::baselines::{
    clone_bound, stronger_clone_bound, BlanketOptions, EfmrttBound, GenericBlanketBound,
};
use shuffle_amplification::core::bound::{names, BoundRegistry};
use shuffle_amplification::core::engine::{AmplificationQuery, AnalysisEngine, QueryBuilder};
use shuffle_amplification::core::error::Error;
use shuffle_amplification::core::renyi::{composed_epsilon, default_lambda_grid, RenyiBound};
use shuffle_amplification::prelude::{AmplificationBound, NumericalBound, VariationRatio};

/// The engine's `ε(δ)` for the named bound over `source` at population `n`.
fn engine_epsilon(source: QueryBuilder, name: &str, n: u64, delta: f64) -> Result<f64, Error> {
    let query = source.population(n).epsilon_at(delta).bound(name).build()?;
    let report = AnalysisEngine::new().run(&query)?;
    Ok(report.scalar().expect("epsilon queries are scalar"))
}

/// Strategy: valid (p, beta, q) triples with finite p.
fn vr_strategy() -> impl Strategy<Value = VariationRatio> {
    (1.05f64..50.0, 0.01f64..0.99, 1.0f64..50.0).prop_filter_map(
        "valid variation-ratio triple",
        |(p, beta_frac, q)| {
            let beta = beta_frac * (p - 1.0) / (p + 1.0);
            VariationRatio::new(p, beta, q)
                .ok()
                .filter(|vr| vr.r() <= 0.5)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn numerical_bound_agrees_with_legacy_accountant(
        vr in vr_strategy(),
        n in 2u64..20_000,
        eps_frac in 0.0f64..1.0,
        delta_exp in 3u32..9,
    ) {
        let acc = Accountant::new(vr, n).unwrap();
        let bound = NumericalBound::new(vr, n).unwrap();
        let eps = eps_frac * vr.epsilon_limit();
        let legacy = acc.try_delta(eps, ScanMode::default()).unwrap();
        let engine = bound.delta(eps).unwrap();
        prop_assert!(
            (engine - legacy).abs() <= 1e-12,
            "delta mismatch: engine {engine:e} vs legacy {legacy:e}"
        );
        prop_assert!(engine >= legacy, "fast scan must stay an upper bound");
        let delta = 10f64.powi(-(delta_exp as i32));
        let e_legacy = acc.epsilon(delta, SearchOptions::default()).unwrap();
        let e_engine = bound.epsilon(delta).unwrap();
        // Bit equality, not a tolerance: one flipped late bisection
        // decision moves ε by only ~ln p·2⁻⁴⁰ ≈ 1e-12.
        prop_assert_eq!(
            e_engine.to_bits(),
            e_legacy.to_bits(),
            "epsilon mismatch: engine {e_engine} vs legacy {e_legacy}"
        );
    }

    #[test]
    fn closed_form_bounds_agree_with_engine_queries(
        vr in vr_strategy(),
        n in 100u64..2_000_000,
        delta_exp in 3u32..10,
    ) {
        let delta = 10f64.powi(-(delta_exp as i32));
        let pairs = [
            (names::ANALYTIC, AnalyticBound::new(vr, n).epsilon(delta)),
            (names::ASYMPTOTIC, AsymptoticBound::new(vr, n).epsilon(delta)),
        ];
        for (name, direct) in pairs {
            match (direct, engine_epsilon(AmplificationQuery::params(vr), name, n, delta)) {
                (Ok(a), Ok(b)) => prop_assert!((a - b).abs() <= 1e-12, "{name}: {a} vs {b}"),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "{name}: applicability diverged: {a:?} vs {b:?}"),
            }
        }
        // Rényi enumeration is Õ(n); keep its population draw moderate.
        let n_renyi = n.min(20_000);
        let engine = RenyiBound::new(vr, n_renyi, 1).unwrap().epsilon(delta).unwrap();
        let legacy = composed_epsilon(&vr, n_renyi, 1, delta, &default_lambda_grid()).unwrap();
        prop_assert!((engine - legacy).abs() <= 1e-12 * legacy.max(1.0));
    }

    #[test]
    fn ldp_baseline_bounds_agree_with_engine_queries(
        eps0 in 0.3f64..4.0,
        n in 1_000u64..15_000,
        delta_exp in 4u32..8,
    ) {
        let delta = 10f64.powi(-(delta_exp as i32));
        let opts = SearchOptions::default();
        let blanket = GenericBlanketBound::new(eps0, n, BlanketOptions::default()).unwrap();
        let ef = EfmrttBound::new(eps0, n).unwrap();
        let pairs = [
            (names::CLONE, clone_bound(eps0, n, opts).unwrap().epsilon(delta).unwrap()),
            (
                names::STRONGER_CLONE,
                stronger_clone_bound(eps0, n, opts).unwrap().epsilon(delta).unwrap(),
            ),
            (names::BLANKET_GENERIC, blanket.epsilon(delta).unwrap()),
            (names::EFMRTT19, ef.epsilon(delta).unwrap()),
        ];
        for (name, direct) in pairs {
            let source = AmplificationQuery::ldp_worst_case(eps0).unwrap();
            let e = engine_epsilon(source, name, n, delta).unwrap();
            prop_assert!(
                (e - direct).abs() <= 1e-12 * direct.max(1.0),
                "{name}: engine {e} vs bound {direct}"
            );
        }
        // The EFMRTT closed form itself: ε = ε₀·√(144·ln(1/δ)/n).
        let closed_form = eps0 * (144.0 * (1.0 / delta).ln() / n as f64).sqrt();
        prop_assert!((ef.epsilon(delta).unwrap() - closed_form).abs() <= 1e-12 * closed_form);
        // The trait-native delta of the EFMRTT closed form round-trips.
        let eps = ef.epsilon(delta).unwrap();
        prop_assert!((ef.delta(eps).unwrap() - delta).abs() <= 1e-9 * delta.max(1e-12));
        // The blanket's inverted delta is a feasible claim.
        let eps = blanket.epsilon(delta).unwrap();
        if eps > 0.0 {
            let d = blanket.delta(eps).unwrap();
            prop_assert!(blanket.epsilon(d).unwrap() <= eps + 1e-12);
        }
    }

    #[test]
    fn best_of_is_never_looser_than_members(
        vr in vr_strategy(),
        n in 100u64..100_000,
        delta_exp in 4u32..9,
        eps_frac in 0.05f64..0.95,
    ) {
        let delta = 10f64.powi(-(delta_exp as i32));
        let eps = eps_frac * vr.epsilon_limit();
        let registry = BoundRegistry::upper_bounds(vr, n).unwrap();
        let member_eps: Vec<(String, Result<f64, _>)> = registry.epsilons(delta);
        let member_del: Vec<(String, Result<f64, _>)> = registry.deltas(eps);
        let best = registry.into_best_of("best").unwrap();
        let be = best.epsilon(delta).unwrap();
        for (name, r) in &member_eps {
            if let Ok(e) = r {
                prop_assert!(be <= e + 1e-12, "epsilon: best {be} looser than {name} {e}");
            }
        }
        let bd = best.delta(eps).unwrap();
        for (name, r) in &member_del {
            if let Ok(d) = r {
                prop_assert!(bd <= d + 1e-12, "delta: best {bd:e} looser than {name} {d:e}");
            }
        }
    }
}
