//! # vr-core — variation-ratio privacy amplification for the shuffle model
//!
//! A from-scratch implementation of *"Privacy Amplification via Shuffling:
//! Unified, Simplified, and Tightened"* (Wang et al., VLDB 2024). The
//! framework reduces the hockey-stick divergence between two shuffled
//! protocol executions to a pair of binomial counting distributions governed
//! by three parameters of the local randomizers:
//!
//! * `p` — the victim randomizer's maximum probability ratio
//!   (`(log p, 0)`-LDP level; `+∞` for multi-message protocols),
//! * `β` — the pairwise total variation bound (`(0, β)`-LDP level),
//! * `q` — how well other users' messages mimic the victim's
//!   (the blanket/clone ratio).
//!
//! ```
//! use vr_core::{Accountant, VariationRatio};
//!
//! // 10 000 users running any 1.0-LDP randomizer, shuffled:
//! let params = VariationRatio::ldp_worst_case(1.0).unwrap();
//! let acc = Accountant::new(params, 10_000).unwrap();
//! let eps = acc.epsilon_default(1e-6).unwrap();
//! assert!(eps < 0.12); // amplified from 1.0 to ~0.06
//! ```
//!
//! Module map (paper artifact → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §4 properties, Lemma 4.4 quantities | [`params`] |
//! | Thm 4.7 dominating pair | [`mixture`] |
//! | Thm 4.1/4.8 + Algorithm 1, memoized [`accountant::DeltaEvaluator`] | [`accountant`] |
//! | Thm 4.2 analytic bound | [`analytic`] |
//! | Thm 4.3 asymptotic bound | [`asymptotic`] |
//! | §5 lower bounds (Thm 5.1, Prop I.1, Alg. 3) | [`lower`] |
//! | §6 parallel composition (Thm 6.1) | [`parallel`] |
//! | Table 3 metric-DP parameters | [`metric`] |
//! | Table 4 multi-message parameters | [`multimessage`] |
//! | Figures 1–2 baselines | [`baselines`] |
//! | Rényi-DP extension of Thm 4.7 | [`renyi`] |
//! | δ(ε) privacy profiles (parallel sampling) | [`curve`] |
//! | unified bound engine (trait, `BestOf`, registry) | [`bound`] |
//! | query layer + serving cache + batches | [`engine`] |
//!
//! The [`bound`] engine is the crate's single seam over every analysis: each
//! upper/lower bound above implements [`bound::AmplificationBound`], so curve
//! samplers, figure drivers, pipelines and future backends query any of them
//! — or the [`bound::BestOf`] composite over a [`bound::BoundRegistry`] —
//! through one `delta(ε)`/`epsilon(δ)` interface. On top of it, the
//! [`engine`] module is the crate's **front door**: a typed
//! [`engine::AmplificationQuery`] describes what is wanted (δ at ε, ε at δ,
//! a whole curve, or a composed multi-round budget) and an
//! [`engine::AnalysisEngine`] serves single queries or batches from a
//! shared, thread-safe cache of memoized evaluators.

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    expect(clippy::float_cmp, reason = "unit tests pin exact values bit for bit")
)]
#![warn(missing_docs)]

pub mod accountant;
pub mod analytic;
pub mod asymptotic;
pub mod baselines;
pub mod bound;
pub mod curve;
pub mod engine;
pub mod error;
pub mod hockey_stick;
pub mod lower;
pub mod metric;
pub mod mixture;
pub mod multimessage;
pub mod parallel;
pub mod params;
pub mod renyi;

pub use accountant::{Accountant, DeltaEvaluator, NumericalBound, ScanMode, SearchOptions};
pub use bound::{AmplificationBound, BestOf, BoundKind, BoundRegistry, Validity};
pub use curve::PrivacyCurve;
pub use engine::{
    AmplificationQuery, AnalysisEngine, AnalysisReport, BoundSelection, QueryBuilder, QueryTarget,
    QueryValue,
};
pub use error::{Error, Result};
pub use mixture::DominatingPair;
pub use params::VariationRatio;
