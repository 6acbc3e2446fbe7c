//! Numerical kernels for shuffle-model differential-privacy accounting.
//!
//! This crate is the "scipy substrate" of the workspace: the variation-ratio
//! accountant of Wang et al. (VLDB 2024) expresses the hockey-stick divergence
//! between shuffled message sets as an expectation of binomial cumulative
//! probabilities, each of which is "computed using two calls to the regularized
//! incomplete beta function". Rust has no scipy, so everything the accountant
//! (and its baselines) needs is implemented here from scratch:
//!
//! * [`gamma`] — log-gamma (Lanczos), log-factorials, log binomial coefficients,
//!   and the regularized incomplete gamma functions `P(a, x)` / `Q(a, x)`.
//! * [`beta`] — the regularized incomplete beta function `I_x(a, b)` via the
//!   Lentz continued fraction, with a Gauss–Legendre quadrature path for very
//!   large parameters (binomial CDFs at `n ~ 1e8`).
//! * [`erf`](mod@crate::erf) — error function, complementary error
//!   function, Gaussian CDF.
//! * [`binomial`] — an exact binomial distribution type (`pmf`, `cdf`,
//!   range probabilities, quantiles, truncated-support enumeration).
//! * [`bounds`] — Chernoff / Hoeffding / Bennett concentration bounds used by
//!   the closed-form amplification theorems and the privacy-blanket baseline.
//! * [`quadrature`] — adaptive Simpson integration (1-D and nested 2-D), used
//!   for the planar-Laplace total-variation parameter of Table 3.
//! * [`search`] — bisection and exponential bracketing over monotone functions,
//!   the backbone of Algorithm 1 / Algorithm 3 binary searches.
//! * [`par`] — a scoped-thread `par_map` for embarrassingly parallel grids
//!   (privacy curves, figure sweeps); `std::thread` only, deterministic
//!   output order.
//! * [`float`] — small floating-point helpers shared across the workspace.
//!
//! Everything is pure, deterministic `f64` math with no dependencies, so the
//! higher crates can treat these as a verified calculator.

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    expect(clippy::float_cmp, reason = "unit tests pin exact values bit for bit")
)]
#![warn(missing_docs)]

pub mod beta;
pub mod binomial;
pub mod bounds;
pub mod erf;
pub mod float;
pub mod gamma;
pub mod par;
pub mod quadrature;
pub mod search;
pub mod vecmath;

pub use beta::{reg_inc_beta, reg_inc_beta_fast};
pub use binomial::{Binomial, SupportWindow};
pub use erf::{erf, erfc, normal_cdf};
pub use float::{is_close, is_close_abs};
pub use gamma::{ln_binomial, ln_factorial, ln_gamma};
pub use par::{par_map, par_map_with};
