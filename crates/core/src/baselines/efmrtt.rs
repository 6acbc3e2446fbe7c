//! The closed-form amplification bound of Erlingsson, Feldman, Mironov,
//! Raghunathan, Talwar & Thakurta, *"Amplification by shuffling: From local
//! to central differential privacy via anonymity"* (SODA 2019), as quoted in
//! Section 2 of the paper:
//!
//! `n` shuffled `ε₀`-LDP messages satisfy `(ε₀·√(144·ln(1/δ)/n), δ)`-DP.
//!
//! The original theorem assumes `ε₀ ≤ 1/2` and `n` large enough that the
//! resulting ε is below `ε₀`; the paper's figures plot the formula across the
//! whole `ε₀ ∈ [0.1, 5]` sweep, so [`EfmrttBound`] returns the raw value
//! and exposes the premise check separately.

use crate::bound::{check_eps, names, AmplificationBound, Validity};
use crate::error::{Error, Result};

/// EFMRTT19 on the unified engine. The closed form is invertible in both
/// directions, so `delta` needs no numerical inversion:
/// `δ(ε) = exp(−n·ε²/(144·ε₀²))`.
#[derive(Debug, Clone, Copy)]
pub struct EfmrttBound {
    eps0: f64,
    n: u64,
}

impl EfmrttBound {
    /// Bind the closed form to a workload (`ε₀ > 0`, `n ≥ 1`).
    pub fn new(eps0: f64, n: u64) -> Result<Self> {
        if !eps0.is_finite() || eps0 <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "eps0 must be positive and finite (got {eps0})"
            )));
        }
        if n == 0 {
            return Err(Error::InvalidParameter("population n must be >= 1".into()));
        }
        Ok(Self { eps0, n })
    }
}

impl AmplificationBound for EfmrttBound {
    fn name(&self) -> &str {
        names::EFMRTT19
    }

    fn validity(&self) -> Validity {
        // The formula never certifies δ = 0, and (as plotted in the paper's
        // figures) is evaluated even where the original premises fail.
        Validity::unconditional()
    }

    fn delta(&self, eps: f64) -> Result<f64> {
        check_eps(eps)?;
        // ε = ε₀·√(144·ln(1/δ)/n)  ⇔  δ = exp(−n·ε²/(144·ε₀²)).
        Ok((-(self.n as f64) * eps * eps / (144.0 * self.eps0 * self.eps0)).exp())
    }

    fn epsilon(&self, delta: f64) -> Result<f64> {
        if !(0.0 < delta && delta < 1.0) {
            return Err(Error::InvalidParameter(format!(
                "delta must be in (0,1), got {delta}"
            )));
        }
        Ok(self.eps0 * (144.0 * (1.0 / delta).ln() / self.n as f64).sqrt())
    }
}

/// Whether the original theorem's premises hold for these inputs
/// (`ε₀ ≤ 1/2` and the bound is actually an amplification, ε < ε₀).
/// Inputs the bound rejects do not satisfy the premises.
pub fn efmrtt_premises_hold(eps0: f64, n: u64, delta: f64) -> bool {
    eps0 <= 0.5
        && EfmrttBound::new(eps0, n)
            .and_then(|b| b.epsilon(delta))
            .is_ok_and(|eps| eps < eps0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_numerics::is_close;

    #[test]
    fn formula_value() {
        // eps0 = 0.5, n = 10^6, delta = 1e-6: 0.5 * sqrt(144 * ln(1e6)/1e6).
        let expected = 0.5 * (144.0 * (1e6f64).ln() / 1e6).sqrt();
        assert!(is_close(
            EfmrttBound::new(0.5, 1_000_000)
                .unwrap()
                .epsilon(1e-6)
                .unwrap(),
            expected,
            1e-12
        ));
    }

    #[test]
    fn scaling_in_n_and_delta() {
        let eps = |n, delta| EfmrttBound::new(0.5, n).unwrap().epsilon(delta).unwrap();
        let e1 = eps(10_000, 1e-6);
        let e2 = eps(40_000, 1e-6);
        assert!(is_close(e1 / e2, 2.0, 1e-12), "inverse-sqrt(n) scaling");
        assert!(eps(10_000, 1e-9) > e1, "smaller delta is harder");
    }

    #[test]
    fn bound_adapter_round_trips() {
        let b = EfmrttBound::new(0.5, 1_000_000).unwrap();
        for delta in [1e-4, 1e-6, 1e-9] {
            let eps = b.epsilon(delta).unwrap();
            let closed_form = 0.5 * (144.0 * (1.0 / delta).ln() / 1e6).sqrt();
            assert!(is_close(eps, closed_form, 1e-12));
            // Closed-form inversion: δ(ε(δ)) = δ.
            assert!(is_close(b.delta(eps).unwrap(), delta, 1e-10));
        }
        assert!(EfmrttBound::new(0.0, 100).is_err());
        assert!(EfmrttBound::new(1.0, 0).is_err());
        assert!(b.epsilon(0.0).is_err());
        assert!(b.delta(-1.0).is_err());
        assert_eq!(b.delta(0.0).unwrap(), 1.0);
    }

    #[test]
    fn premises() {
        assert!(efmrtt_premises_hold(0.4, 1_000_000, 1e-6));
        assert!(!efmrtt_premises_hold(1.0, 1_000_000, 1e-6)); // eps0 too large
        assert!(!efmrtt_premises_hold(0.4, 100, 1e-6)); // n too small
    }
}
