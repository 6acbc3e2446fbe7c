//! # vr-protocols — shuffle-model protocol simulation
//!
//! The executable side of the paper's setting: users randomize locally, a
//! shuffler ([`shuffler`]) applies a uniform permutation, and analyzers
//! aggregate. On top of that substrate:
//!
//! * [`pipeline`] — the single-message randomize-then-shuffle-then-analyze
//!   pipeline for any [`vr_ldp::FrequencyMechanism`], with its amplified
//!   `(ε, δ)` statement.
//! * [`multimessage`] — working simulators for the Table 4 protocols
//!   (Cheu–Zhilyaev, balls-into-bins, pureDUMP, mixDUMP, Balcer–Cheu sums).
//! * [`range_query`] — the Section 7.3 hierarchical range-query protocol
//!   built on the parallel local randomizer of Algorithm 2.
//! * [`exact`] — exact shuffled-output distributions for tiny populations:
//!   the ground truth against which the accountant's upper bounds and the
//!   Theorem 5.1 lower bounds are validated (`lower ≤ exact ≤ upper`).
//! * [`accuracy`] — error metrics for utility experiments.

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    expect(clippy::float_cmp, reason = "unit tests pin exact values bit for bit")
)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod exact;
pub mod heavy_hitters;
pub mod multimessage;
pub mod pipeline;
pub mod range_query;
pub mod shuffler;

pub use heavy_hitters::HeavyHitterProtocol;
pub use pipeline::{
    analyze, plan_deployment, run_frequency_protocol, serve_epsilons, DeploymentPlan, ProtocolRun,
};
pub use range_query::{LevelReport, RangeQueryProtocol};
pub use shuffler::{shuffle, shuffle_in_place};
