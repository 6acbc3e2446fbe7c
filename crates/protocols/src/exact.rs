//! Exact shuffled-output distributions for tiny populations — the ground
//! truth that validates the accountant.
//!
//! For a finite mechanism (pmf matrix over output classes), the shuffled
//! transcript is fully described by its histogram over classes. The
//! histogram's distribution is a convolution over users, computed exactly by
//! dynamic programming. The hockey-stick divergence between two neighboring
//! input vectors is then a finite sum, which by Theorem 4.7 must be bounded
//! by the dominating-pair accountant and, for worst-case inputs, must exceed
//! the Theorem 5.1 lower bound: `lower ≤ exact ≤ upper` is asserted in the
//! integration tests.

use std::collections::HashMap;

/// Exact distribution over shuffled histograms for users with the given
/// per-user output distributions (`per_user[i][class]`).
///
/// Complexity `O(n · #states)` with `#states = C(n + m − 1, m − 1)` for `m`
/// classes — only intended for tiny `n`/`m`.
pub fn histogram_distribution(per_user: &[Vec<f64>]) -> HashMap<Vec<u16>, f64> {
    assert!(!per_user.is_empty());
    let m = per_user[0].len();
    assert!(per_user.iter().all(|r| r.len() == m));
    let mut states: HashMap<Vec<u16>, f64> = HashMap::new();
    states.insert(vec![0u16; m], 1.0);
    for row in per_user {
        let mut next: HashMap<Vec<u16>, f64> = HashMap::with_capacity(states.len() * 2);
        for (hist, prob) in &states {
            for (class, &p) in row.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                let mut h = hist.clone();
                h[class] += 1;
                *next.entry(h).or_insert(0.0) += prob * p;
            }
        }
        states = next;
    }
    states
}

/// Exact symmetric hockey-stick divergence between the shuffled outputs of
/// two neighboring input vectors: `inputs` with user 0 holding `x0` vs `x1`.
///
/// `rows[x][class]` is the mechanism's pmf matrix; `others` are the inputs of
/// users `1..n`.
pub fn exact_shuffled_divergence(
    rows: &[Vec<f64>],
    x0: usize,
    x1: usize,
    others: &[usize],
    eps: f64,
) -> f64 {
    let mut world0: Vec<Vec<f64>> = Vec::with_capacity(others.len() + 1);
    let mut world1: Vec<Vec<f64>> = Vec::with_capacity(others.len() + 1);
    world0.push(rows[x0].clone());
    world1.push(rows[x1].clone());
    for &x in others {
        world0.push(rows[x].clone());
        world1.push(rows[x].clone());
    }
    let dist0 = histogram_distribution(&world0);
    let dist1 = histogram_distribution(&world1);
    let ee = eps.exp();
    let mut d01 = 0.0;
    let mut d10 = 0.0;
    let keys: std::collections::HashSet<&Vec<u16>> = dist0.keys().chain(dist1.keys()).collect();
    for key in keys {
        let p = dist0.get(key).copied().unwrap_or(0.0);
        let q = dist1.get(key).copied().unwrap_or(0.0);
        d01 += (p - ee * q).max(0.0);
        d10 += (q - ee * p).max(0.0);
    }
    d01.max(d10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_core::accountant::{Accountant, ScanMode};
    use vr_core::VariationRatio;
    use vr_ldp::{AmplifiableMechanism, FrequencyMechanism, Grr};
    use vr_numerics::{is_close, is_close_abs};

    #[test]
    fn histogram_distribution_normalizes() {
        let rows = vec![
            vec![0.5, 0.3, 0.2],
            vec![0.1, 0.6, 0.3],
            vec![0.2, 0.2, 0.6],
        ];
        let dist = histogram_distribution(&rows);
        let total: f64 = dist.values().sum();
        assert!(is_close(total, 1.0, 1e-12));
        // Histogram totals equal the number of users.
        for hist in dist.keys() {
            assert_eq!(hist.iter().map(|&c| c as usize).sum::<usize>(), 3);
        }
    }

    #[test]
    fn two_user_histogram_matches_hand_computation() {
        // Users A: (0.7, 0.3), B: (0.4, 0.6) over 2 classes.
        let dist = histogram_distribution(&[vec![0.7, 0.3], vec![0.4, 0.6]]);
        assert!(is_close(dist[&vec![2u16, 0]], 0.7 * 0.4, 1e-14));
        assert!(is_close(dist[&vec![0u16, 2]], 0.3 * 0.6, 1e-14));
        assert!(is_close(dist[&vec![1u16, 1]], 0.7 * 0.6 + 0.3 * 0.4, 1e-14));
    }

    #[test]
    fn exact_divergence_zero_for_identical_inputs() {
        let g = Grr::new(3, 1.0);
        let rows = g.collapsed_distributions().unwrap();
        let d = exact_shuffled_divergence(&rows, 1, 1, &[0, 2], 0.1);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn accountant_upper_bounds_exact_divergence_shared_residual() {
        // Soundness in the regime where the generalized clone reduction is
        // airtight: for GRR over d = 3 options with blanket-valued other
        // users, the other users' residual component coincides with the
        // victim's common component (both are the point mass on the third
        // value), which is exactly the shared-residual condition of
        // FMT'23 Lemma 3.2. Here Theorem 4.7 must dominate the exact
        // divergence — and in fact matches it exactly.
        let eps0 = 1.2f64;
        let g = Grr::new(3, eps0);
        let rows = g.collapsed_distributions().unwrap();
        let params = g.variation_ratio();
        for n in [2usize, 3, 5] {
            let others = vec![2usize; n - 1];
            let acc = Accountant::new(params, n as u64).unwrap();
            for eps_i in 0..6 {
                let eps = 0.2 * eps_i as f64;
                let exact = exact_shuffled_divergence(&rows, 0, 1, &others, eps);
                let bound = acc.try_delta(eps, ScanMode::Full).unwrap();
                assert!(
                    bound >= exact - 1e-10,
                    "n={n} eps={eps}: bound {bound:e} < exact {exact:e}"
                );
                assert!(
                    is_close_abs(bound, exact, 1e-9),
                    "n={n} eps={eps}: expected exact tightness, {bound:e} vs {exact:e}"
                );
            }
        }
    }

    /// **Reproduction finding:** the paper's generalized reduction (Lemma 4.5)
    /// allows each other user's residual mixture component to differ from
    /// the victim's common component. When they differ — e.g. GRR with
    /// `d ≥ 4`, or other users holding the victim's own differing values —
    /// the omitted label distinctions carry signal, and the exact shuffled
    /// divergence can *exceed* the dominating-pair value by a few percent at
    /// moderate ε. (The original stronger-clone lemma of FMT'23 requires a
    /// *shared* residual `U`, which restores soundness but forces the
    /// worst-case β.) This test pins the measured gap so any change in
    /// behaviour is caught.
    #[test]
    fn generalized_reduction_gap_is_small_and_pinned() {
        // Case 1: GRR d = 3 with a colluding other user (holds x0 itself).
        let g = Grr::new(3, 1.2);
        let rows = g.collapsed_distributions().unwrap();
        let acc = Accountant::new(g.variation_ratio(), 2).unwrap();
        let eps = 0.8;
        let exact = exact_shuffled_divergence(&rows, 0, 1, &[0], eps);
        let bound = acc.try_delta(eps, ScanMode::Full).unwrap();
        assert!(
            exact > bound,
            "expected the documented gap to appear: exact {exact:e} vs bound {bound:e}"
        );
        assert!(
            exact <= bound * 1.10,
            "gap grew beyond the pinned 10%: {exact:e} vs {bound:e}"
        );

        // Case 2: GRR d = 4 even with hostile (blanket-valued) other users.
        let g = Grr::new(4, 1.0);
        let rows = g.collapsed_distributions().unwrap();
        let acc = Accountant::new(g.variation_ratio(), 4).unwrap();
        let eps = 0.5;
        let exact = exact_shuffled_divergence(&rows, 0, 1, &[2, 2, 2], eps);
        let bound = acc.try_delta(eps, ScanMode::Full).unwrap();
        assert!(
            exact > bound,
            "expected the documented gap to appear: exact {exact:e} vs bound {bound:e}"
        );
        assert!(
            exact <= bound * 1.20,
            "gap grew beyond the pinned 20%: {exact:e} vs {bound:e}"
        );

        // At the worst-case β the reduction is the original stronger clone
        // (no victim-common component) and must dominate everywhere.
        let wc = vr_core::VariationRatio::ldp_worst_case(1.0).unwrap();
        let acc = Accountant::new(wc, 4).unwrap();
        for eps_i in 0..8 {
            let eps = 0.2 * eps_i as f64;
            let exact = exact_shuffled_divergence(&rows, 0, 1, &[2, 2, 2], eps);
            let bound = acc.try_delta(eps, ScanMode::Full).unwrap();
            assert!(
                bound >= exact - 1e-10,
                "worst-case beta must be sound at eps={eps}: {bound:e} vs {exact:e}"
            );
        }
    }

    #[test]
    fn friendly_inputs_leak_less_than_worst_case() {
        // Other users sharing the victim's candidate values provide *more*
        // cover than the worst case the accountant assumes.
        let g = Grr::new(3, 1.5);
        let rows = g.collapsed_distributions().unwrap();
        let eps = 0.3;
        let friendly = exact_shuffled_divergence(&rows, 0, 1, &[0, 1, 0, 1], eps);
        let hostile = exact_shuffled_divergence(&rows, 0, 1, &[2, 2, 2, 2], eps);
        assert!(friendly <= hostile + 1e-12, "{friendly} vs {hostile}");
    }

    #[test]
    fn worst_case_beta_mechanism_against_infinite_p_accountant() {
        // A deterministic-ish mechanism (p = ∞ style): victim's two rows have
        // disjoint support; blanket row covers both.
        let rows = vec![
            vec![0.9, 0.0, 0.1],
            vec![0.0, 0.9, 0.1],
            vec![0.45, 0.45, 0.1],
        ];
        // q: blanket must cover victims within ratio q = 0.9/0.45 = 2.
        let params = VariationRatio::new(f64::INFINITY, 0.9, 2.0).unwrap();
        let n = 5usize;
        let acc = Accountant::new(params, n as u64).unwrap();
        for eps_i in 0..5 {
            let eps = 0.4 * eps_i as f64;
            let exact = exact_shuffled_divergence(&rows, 0, 1, &[2, 2, 2, 2], eps);
            let bound = acc.try_delta(eps, ScanMode::Full).unwrap();
            assert!(
                bound >= exact - 1e-10,
                "eps={eps}: bound {bound:e} < exact {exact:e}"
            );
        }
    }
}
