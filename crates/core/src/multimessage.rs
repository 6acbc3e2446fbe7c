//! Multi-message shuffle protocols — Table 4 parameters, effective blanket
//! populations, and the original works' designated privacy analyses used as
//! the comparison baselines of Figures 3–4.
//!
//! In these protocols each user sends one input-*dependent* message plus a
//! number of input-*independent* ("blanket"/dummy) messages; only the blanket
//! messages hide the victim, so the `n − 1` of Theorem 4.7 becomes the total
//! blanket-message count ([`effective_population`](CheuZhilyaev::effective_population)
//! returns `blanket + 1`).

use crate::error::{Error, Result};
use crate::params::VariationRatio;

/// The histogram protocol of Cheu & Zhilyaev (IEEE S&P 2022): each user
/// binary-randomized-responds their one-hot vector over `{0,1}^d` with flip
/// probability `f`, and additionally submits `messages_per_user − 1` blanket
/// messages (binary RR of the zero vector).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheuZhilyaev {
    /// Number of real users `n'`.
    pub n_users: u64,
    /// Messages per user `m` (1 input-dependent + `m − 1` blanket).
    pub messages_per_user: u64,
    /// Per-bit flip probability `f ∈ (0, 0.5)`.
    pub flip_prob: f64,
    /// Histogram domain size `d`.
    pub domain: u64,
}

impl CheuZhilyaev {
    /// Table 4 row: `p = (1−f)²/f²`, `β = 1 − 2f`, `q = (1−f)/f`.
    pub fn params(&self) -> Result<VariationRatio> {
        let f = self.flip_prob;
        if !(0.0 < f && f < 0.5) {
            return Err(Error::InvalidParameter(format!(
                "flip probability must be in (0, 0.5), got {f}"
            )));
        }
        let ratio = (1.0 - f) / f;
        VariationRatio::new(ratio * ratio, 1.0 - 2.0 * f, ratio)
    }

    /// Total blanket messages across the population.
    pub fn blanket_messages(&self) -> u64 {
        self.n_users * (self.messages_per_user - 1)
    }

    /// The `n` to hand to [`crate::Accountant`]: blanket messages + the
    /// victim's own input-dependent message.
    pub fn effective_population(&self) -> u64 {
        self.blanket_messages() + 1
    }

    /// The designated analysis of the original work, **reconstructed** (the
    /// Figure 3 comparison is pinned by
    /// `cheu_zhilyaev_variation_ratio_beats_original` below): each blanket
    /// bit `Bern(f)` is a uniform bit with
    /// probability `2f`, so each coordinate's count is protected by the
    /// binary-randomized-response shuffle bound of Cheu et al.
    /// (EUROCRYPT 2019), `ε_c = √(32·ln(4/δ_c)/λ)` for
    /// `λ = 2f·(blanket messages) ≥ 14·ln(4/δ_c)`; a single input change
    /// touches two coordinates, composed basically with `δ_c = δ/2`.
    pub fn original_epsilon(&self, delta: f64) -> Result<f64> {
        if !(0.0 < delta && delta < 1.0) {
            return Err(Error::InvalidParameter(format!(
                "delta must be in (0,1), got {delta}"
            )));
        }
        let lambda = 2.0 * self.flip_prob * self.blanket_messages() as f64;
        let delta_c = delta / 2.0;
        let l = (4.0 / delta_c).ln();
        if lambda < 14.0 * l {
            return Err(Error::NotApplicable(format!(
                "designated analysis needs lambda >= 14·ln(4/δ_c) = {:.1}, got {lambda:.1}",
                14.0 * l
            )));
        }
        Ok(2.0 * (32.0 * l / lambda).sqrt())
    }

    /// Invert the designated analysis: the number of messages per user such
    /// that the original bound certifies `eps_prime` at `delta`.
    pub fn for_target_budget(
        eps_prime: f64,
        delta: f64,
        n_users: u64,
        flip_prob: f64,
        domain: u64,
    ) -> Result<Self> {
        if eps_prime.is_nan() || eps_prime <= 0.0 {
            return Err(Error::InvalidParameter(
                "target budget must be positive".into(),
            ));
        }
        let delta_c = delta / 2.0;
        let l = (4.0 / delta_c).ln();
        // λ needed: ε' = 2·√(32·l/λ) ⇒ λ = 128·l/ε'².
        let lambda = (128.0 * l / (eps_prime * eps_prime)).max(14.0 * l);
        let blanket_per_user = (lambda / (2.0 * flip_prob * n_users as f64)).ceil() as u64;
        Ok(Self {
            n_users,
            messages_per_user: blanket_per_user.max(1) + 1,
            flip_prob,
            domain,
        })
    }
}

/// The balls-into-bins protocol of Luo, Wang & Yi (CCS 2022): frequency
/// estimation over `d` bins with `s` special bins per value; blanket
/// messages are uniform bins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BallsIntoBins {
    /// Number of users.
    pub n_users: u64,
    /// Number of bins `d`.
    pub bins: u64,
    /// Special bins per value `s`.
    pub special: u64,
}

impl BallsIntoBins {
    /// Table 4 row: `p = +∞`, `β = 1`, `q = d/s`.
    pub fn params(&self) -> Result<VariationRatio> {
        if self.special == 0 || self.bins < 2 * self.special {
            return Err(Error::InvalidParameter(format!(
                "need 1 <= s <= d/2 (got d = {}, s = {})",
                self.bins, self.special
            )));
        }
        VariationRatio::new(f64::INFINITY, 1.0, self.bins as f64 / self.special as f64)
    }

    /// Effective population for the accountant: every other user's message
    /// carries the uniform blanket component, so `n` is the user count.
    pub fn effective_population(&self) -> u64 {
        self.n_users
    }

    /// The original work's bound, pinned by the paper's Figure 4 caption
    /// `n = 32·ln(2/δ)·d/(ε'²·s)`:  `ε'(n) = √(32·ln(2/δ)·d/(n·s))`.
    pub fn original_epsilon(&self, delta: f64) -> Result<f64> {
        if !(0.0 < delta && delta < 1.0) {
            return Err(Error::InvalidParameter(format!(
                "delta must be in (0,1), got {delta}"
            )));
        }
        Ok((32.0 * (2.0 / delta).ln() * self.bins as f64
            / (self.n_users as f64 * self.special as f64))
            .sqrt())
    }

    /// The population at which the original analysis certifies `eps_prime`
    /// (the Figure 4 configuration).
    pub fn population_for_budget(eps_prime: f64, delta: f64, bins: u64, special: u64) -> u64 {
        (32.0 * (2.0 / delta).ln() * bins as f64 / (eps_prime * eps_prime * special as f64)).ceil()
            as u64
    }
}

/// Balcer–Cheu binary summation with a biased blanket coin `Bern(coin)`
/// (Table 4 row 1): `p = +∞`, `β = 1`, `q = max(1/coin, 1/(1−coin))`.
pub fn balcer_cheu_biased(coin: f64) -> Result<VariationRatio> {
    if !(0.0 < coin && coin < 1.0) {
        return Err(Error::InvalidParameter(format!(
            "coin must be in (0,1), got {coin}"
        )));
    }
    VariationRatio::new(f64::INFINITY, 1.0, (1.0 / coin).max(1.0 / (1.0 - coin)))
}

/// Balcer et al. binary summation with a uniform blanket coin (Table 4 row
/// 2): `p = +∞`, `β = 1`, `q = 2` — the extreme `r = 1/2` configuration.
pub fn balcer_cheu_uniform() -> Result<VariationRatio> {
    VariationRatio::new(f64::INFINITY, 1.0, 2.0)
}

/// pureDUMP (Li et al.): each blanket message is a uniform bin in `[d]`:
/// `p = +∞`, `β = 1`, `q = d`.
pub fn pure_dump(bins: u64) -> Result<VariationRatio> {
    if bins < 2 {
        return Err(Error::InvalidParameter("need at least 2 bins".into()));
    }
    VariationRatio::new(f64::INFINITY, 1.0, bins as f64)
}

/// mixDUMP (Li et al.): the real message is GRR-style flipped with
/// probability `f` over `d` bins and blankets are uniform (Table 4 row 5):
/// `p = (1−f)(d−1)/f`, `β = ((1−f)(d−1) − f)/(d−1)`, `q = (1−f)·d`.
pub fn mix_dump(flip_prob: f64, bins: u64) -> Result<VariationRatio> {
    let d = bins as f64;
    if bins < 2 {
        return Err(Error::InvalidParameter("need at least 2 bins".into()));
    }
    if !(0.0 < flip_prob && flip_prob < (d - 1.0) / d) {
        return Err(Error::InvalidParameter(format!(
            "flip probability must be in (0, (d-1)/d), got {flip_prob}"
        )));
    }
    let p = (1.0 - flip_prob) * (d - 1.0) / flip_prob;
    let beta = ((1.0 - flip_prob) * (d - 1.0) - flip_prob) / (d - 1.0);
    VariationRatio::new(p, beta, (1.0 - flip_prob) * d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountant::Accountant;
    use vr_numerics::is_close;

    #[test]
    fn cheu_zhilyaev_table4_row() {
        let proto = CheuZhilyaev {
            n_users: 1000,
            messages_per_user: 5,
            flip_prob: 0.25,
            domain: 16,
        };
        let vr = proto.params().unwrap();
        assert!(is_close(vr.p(), 9.0, 1e-12)); // (0.75/0.25)^2
        assert!(is_close(vr.beta(), 0.5, 1e-12));
        assert!(is_close(vr.q(), 3.0, 1e-12));
        // Clone probability r = pβ/((p−1)q) = f(1−f) each side.
        assert!(is_close(vr.r(), 0.25 * 0.75, 1e-12));
        assert_eq!(proto.blanket_messages(), 4000);
        assert_eq!(proto.effective_population(), 4001);
    }

    #[test]
    fn cheu_zhilyaev_variation_ratio_beats_original() {
        // The headline of Figure 3: variation-ratio re-analysis of the same
        // protocol instance certifies a much smaller ε than the designated
        // analysis (extra amplification ratio of roughly 2–6x).
        let delta = 1e-6;
        for &eps_prime in &[0.5f64, 1.0, 1.5] {
            let proto =
                CheuZhilyaev::for_target_budget(eps_prime, delta, 10_000, 0.25, 16).unwrap();
            let orig = proto.original_epsilon(delta).unwrap();
            assert!(
                orig <= eps_prime * 1.05,
                "inversion broke: {orig} vs {eps_prime}"
            );
            let ours = Accountant::new(proto.params().unwrap(), proto.effective_population())
                .unwrap()
                .epsilon_default(delta)
                .unwrap();
            let ratio = orig / ours;
            assert!(
                ratio > 1.8,
                "expected >=1.8x extra amplification at eps'={eps_prime}, got {ratio:.2} \
                 (orig={orig:.4}, ours={ours:.4})"
            );
        }
    }

    #[test]
    fn balls_into_bins_figure4_configuration() {
        let delta = 1e-7;
        let eps_prime = 1.0;
        let n = BallsIntoBins::population_for_budget(eps_prime, delta, 16, 1);
        let proto = BallsIntoBins {
            n_users: n,
            bins: 16,
            special: 1,
        };
        let orig = proto.original_epsilon(delta).unwrap();
        assert!(is_close(orig, eps_prime, 1e-3), "caption inversion: {orig}");
        let ours = Accountant::new(proto.params().unwrap(), proto.effective_population())
            .unwrap()
            .epsilon_default(delta)
            .unwrap();
        let ratio = orig / ours;
        assert!(ratio > 1.3, "expected extra amplification, got {ratio:.2}");
    }

    #[test]
    fn balcer_cheu_rows() {
        let u = balcer_cheu_uniform().unwrap();
        assert_eq!(u.q(), 2.0);
        assert!(is_close(u.r(), 0.5, 1e-15));
        let b = balcer_cheu_biased(0.25).unwrap();
        assert_eq!(b.q(), 4.0);
        assert!(balcer_cheu_biased(0.0).is_err());
    }

    #[test]
    fn dump_rows() {
        let p = pure_dump(32).unwrap();
        assert_eq!(p.q(), 32.0);
        assert!(is_close(p.r(), 1.0 / 32.0, 1e-15));
        let m = mix_dump(0.1, 16).unwrap();
        assert!(is_close(m.p(), 0.9 * 15.0 / 0.1, 1e-12));
        assert!(is_close(m.beta(), (0.9 * 15.0 - 0.1) / 15.0, 1e-12));
        assert!(is_close(m.q(), 0.9 * 16.0, 1e-12));
        // mixDUMP clone probability is 1/d regardless of f.
        assert!(is_close(m.clone_probability(), 2.0 / 16.0, 1e-12));
        assert!(mix_dump(0.96, 16).is_err());
    }

    #[test]
    fn invalid_configurations_rejected() {
        let proto = CheuZhilyaev {
            n_users: 10,
            messages_per_user: 2,
            flip_prob: 0.6,
            domain: 4,
        };
        assert!(proto.params().is_err());
        assert!(BallsIntoBins {
            n_users: 10,
            bins: 4,
            special: 3
        }
        .params()
        .is_err());
        assert!(BallsIntoBins {
            n_users: 10,
            bins: 4,
            special: 0
        }
        .params()
        .is_err());
    }

    #[test]
    fn original_analysis_needs_enough_blanket() {
        let proto = CheuZhilyaev {
            n_users: 10,
            messages_per_user: 2,
            flip_prob: 0.1,
            domain: 4,
        };
        assert!(matches!(
            proto.original_epsilon(1e-6),
            Err(Error::NotApplicable(_))
        ));
    }
}
