//! Cross-crate integration tests: the lower–upper sandwich of Sections 4–5
//! for every concrete mechanism, and the ordering of all accountants.

use shuffle_amplification::core::accountant::{Accountant, ScanMode, SearchOptions};
use shuffle_amplification::core::analytic::AnalyticBound;
use shuffle_amplification::core::asymptotic::AsymptoticBound;
use shuffle_amplification::core::baselines::{
    clone_bound, stronger_clone_bound, BlanketOptions, GenericBlanketBound,
};
use shuffle_amplification::core::bound::AmplificationBound;
use shuffle_amplification::core::lower::{LowerBoundAccountant, LowerBoundParams};
use shuffle_amplification::ldp::{
    AmplifiableMechanism, FrequencyMechanism, Grr, HadamardResponse, KSubset, Olh,
};

const TIGHT_OPTS: SearchOptions = SearchOptions {
    iterations: 48,
    mode: ScanMode::Full,
};

/// Run the sandwich for a finite mechanism: Algorithm 3's lower bound must
/// not exceed Algorithm 1's upper bound; `tight` additionally asserts they
/// coincide (extremal-design mechanisms, Section 5).
fn sandwich(rows: &[Vec<f64>], eps0: f64, beta: f64, n: u64, delta: f64, tight: bool) {
    let params = shuffle_amplification::core::VariationRatio::ldp_with_beta(eps0, beta).unwrap();
    let upper = Accountant::new(params, n)
        .unwrap()
        .epsilon(delta, TIGHT_OPTS)
        .unwrap();
    let (lb_params, _) = LowerBoundParams::with_worst_blanket(&rows[0], &rows[1], rows).unwrap();
    let lower = LowerBoundAccountant::new(lb_params, n)
        .unwrap()
        .epsilon_lower(delta, 48)
        .unwrap();
    assert!(
        lower <= upper + 1e-9,
        "sandwich violated: lower {lower} > upper {upper}"
    );
    if tight {
        assert!(
            (upper - lower).abs() <= 1e-6 * upper.max(1e-12),
            "expected exact tightness: lower {lower} vs upper {upper}"
        );
    }
}

#[test]
fn grr_sandwich_is_exactly_tight() {
    for &(d, eps0) in &[(3usize, 1.0f64), (8, 2.0), (32, 0.5)] {
        let g = Grr::new(d, eps0);
        let rows = g.collapsed_distributions().unwrap();
        sandwich(&rows, eps0, g.beta(), 2_000, 1e-6, true);
    }
}

#[test]
fn olh_sandwich_is_exactly_tight() {
    // OLH with l >= 3 is extremal (the paper's example of exact tightness).
    for &(l, eps0) in &[(4usize, 1.0f64), (8, 2.0)] {
        let m = Olh::new(100, l, eps0);
        let rows = m.collapsed_distributions().unwrap();
        sandwich(&rows, eps0, m.beta(), 5_000, 1e-7, true);
    }
}

#[test]
fn hadamard_sandwich_is_exactly_tight() {
    let m = HadamardResponse::new(20, 1.5);
    let rows = m.collapsed_distributions().unwrap();
    sandwich(&rows, 1.5, m.beta(), 3_000, 1e-6, true);
}

#[test]
fn ksubset_sandwich_holds_for_large_k() {
    // k >= 3 is not extremal: the sandwich must hold but need not be tight.
    let m = KSubset::new(16, 4, 1.0);
    let rows = m.collapsed_distributions().unwrap();
    sandwich(&rows, 1.0, m.beta(), 2_000, 1e-6, false);
}

#[test]
fn variation_ratio_is_the_tightest_upper_bound() {
    // Figure 1/2 ordering at a representative configuration: the
    // variation-ratio ε is below every baseline for a structured mechanism.
    let eps0 = 2.0;
    let d = 128;
    let n = 100_000;
    let delta = 1e-7;
    let opts = SearchOptions::default();
    let m = KSubset::optimal(d, eps0);
    let ours = Accountant::new(m.variation_ratio(), n)
        .unwrap()
        .epsilon(delta, opts)
        .unwrap();
    let sc = stronger_clone_bound(eps0, n, opts)
        .unwrap()
        .epsilon(delta)
        .unwrap();
    let cl = clone_bound(eps0, n, opts).unwrap().epsilon(delta).unwrap();
    let bl = GenericBlanketBound::new(eps0, n, BlanketOptions::default())
        .unwrap()
        .epsilon(delta)
        .unwrap();
    assert!(
        ours < sc && sc < cl,
        "ordering broke: ours={ours} sc={sc} clone={cl}"
    );
    assert!(ours < bl, "ours={ours} must beat generic blanket {bl}");
    // Headline claim of Section 7.1: ~30% budget savings vs the best
    // existing bound.
    assert!(
        ours < 0.85 * sc,
        "expected >=15% savings vs stronger clone: {ours} vs {sc}"
    );
}

#[test]
fn closed_forms_are_valid_but_looser() {
    let vr = shuffle_amplification::core::VariationRatio::ldp_worst_case(1.0).unwrap();
    let n = 1_000_000;
    let delta = 1e-7;
    let numeric = Accountant::new(vr, n)
        .unwrap()
        .epsilon_default(delta)
        .unwrap();
    let analytic = AnalyticBound::new(vr, n).epsilon(delta).unwrap();
    let asymptotic = AsymptoticBound::new(vr, n).epsilon(delta).unwrap();
    assert!(
        numeric <= analytic,
        "numeric {numeric} vs analytic {analytic}"
    );
    assert!(
        numeric <= asymptotic,
        "numeric {numeric} vs asymptotic {asymptotic}"
    );
    // The analytic bound is the tighter closed form (Section 7.2).
    assert!(
        analytic <= asymptotic * 1.05,
        "analytic {analytic} vs asymptotic {asymptotic}"
    );
}

#[test]
fn upper_via_expected_ratios_tightens_non_extremal_mechanisms() {
    // Appendix I: running Algorithm 3 to the feasible end yields a valid
    // per-mechanism upper bound that can beat Theorem 4.7 for non-extremal
    // randomizers (here: binary RR, d = 2).
    let eps0 = 1.0f64;
    let g = Grr::new(2, eps0);
    let rows = g.collapsed_distributions().unwrap();
    let n = 2_000;
    let delta = 1e-6;
    let generic_upper = Accountant::new(g.variation_ratio(), n)
        .unwrap()
        .epsilon(delta, TIGHT_OPTS)
        .unwrap();
    let (lb, _) = LowerBoundParams::with_worst_blanket(&rows[0], &rows[1], &rows).unwrap();
    let refined_upper = LowerBoundAccountant::new(lb, n)
        .unwrap()
        .epsilon_upper(delta, 48)
        .unwrap();
    assert!(
        refined_upper <= generic_upper + 1e-9,
        "refined {refined_upper} vs generic {generic_upper}"
    );
}
