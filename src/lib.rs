//! # shuffle-amplification
//!
//! Tight privacy-amplification accounting for the **shuffle model of
//! differential privacy**, implementing the *variation-ratio reduction* of
//! Wang et al., *"Privacy Amplification via Shuffling: Unified, Simplified,
//! and Tightened"* (VLDB 2024), together with the local randomizers,
//! baselines and shuffle protocols needed to reproduce the paper end to end.
//!
//! ## Quick start
//!
//! ```
//! use shuffle_amplification::prelude::*;
//!
//! // 100k users each run generalized randomized response over 64 options
//! // with a local budget of eps0 = 2.0; their messages are shuffled.
//! let mechanism = Grr::new(64, 2.0);
//! let accountant = Accountant::new(mechanism.variation_ratio(), 100_000).unwrap();
//! let eps = accountant.epsilon_default(1e-8).unwrap();
//! assert!(eps < 0.1); // central privacy amplified ~40x below eps0
//! ```
//!
//! ## Serving queries
//!
//! The production front door is the query engine: describe what you want to
//! know as [`core::engine::AmplificationQuery`]s and serve them — alone or
//! in batches — through a shared [`core::engine::AnalysisEngine`], whose
//! evaluator cache makes repeated and related queries cheap:
//!
//! ```
//! use shuffle_amplification::prelude::*;
//!
//! let engine = AnalysisEngine::new();
//! let mechanism = Grr::new(64, 2.0);
//! let queries: Vec<AmplificationQuery> = [1e-6, 1e-8, 1e-10]
//!     .iter()
//!     .map(|&delta| {
//!         mechanism
//!             .amplification_query(100_000)
//!             .epsilon_at(delta)
//!             .build()
//!             .unwrap()
//!     })
//!     .collect();
//! for report in engine.run_batch(&queries) {
//!     let report = report.unwrap();
//!     assert!(report.scalar().unwrap() < 2.0); // amplified below eps0
//! }
//! assert_eq!(engine.cached_evaluators(), 1); // one workload, three answers
//! ```
//!
//! ## Crate map
//!
//! * [`core`] (re-export of `vr-core`) — the variation-ratio framework:
//!   the `(p, β, q)` parameterization, the Õ(n) hockey-stick accountant
//!   (Theorem 4.8 / Algorithm 1), closed forms (Theorems 4.2–4.3), lower
//!   bounds (Section 5), parallel composition (Theorem 6.1), metric-DP and
//!   multi-message parameters (Tables 3–4), prior-work baselines, a
//!   Rényi-DP extension, and the query engine (`core::engine`) serving all
//!   of the above from a shared evaluator cache.
//! * [`ldp`] (re-export of `vr-ldp`) — working local randomizers for every
//!   row of Tables 2/3/6 with samplers and estimators.
//! * [`protocols`] (re-export of `vr-protocols`) — shuffler, end-to-end
//!   pipelines, multi-message protocol simulators, hierarchical range
//!   queries, and exact tiny-n ground-truth divergences.
//! * [`numerics`] (re-export of `vr-numerics`) — the special-function kernel
//!   (regularized incomplete beta/gamma, binomials, bounds, quadrature).
//! * [`server`] (re-export of `vr-server`) — the network front door: a
//!   multi-threaded TCP daemon serving `AmplificationQuery`s over a
//!   newline-delimited JSON protocol (bounded worker pool, backpressure,
//!   graceful shutdown, stats), plus the client library behind the
//!   `vr-serve` / `vr-query` binaries.
//! * [`ledger`] (re-export of `vr-ledger`) — continual accounting: the
//!   sharded in-memory per-user budget ledger the daemon serves
//!   (`charge` / `remaining` / `affordable_rounds` / CSV bulk
//!   import-export), every answer bit-identical to the equivalent forward
//!   `composed` query.
//!
//! ## Serving over the network
//!
//! ```
//! use shuffle_amplification::prelude::*;
//!
//! let daemon = Server::bind(ServerConfig::default()).unwrap(); // port 0
//! let mut client = Client::connect(daemon.local_addr()).unwrap();
//! let query = AmplificationQuery::ldp_worst_case(1.0)
//!     .unwrap()
//!     .population(10_000)
//!     .epsilon_at(1e-8)
//!     .build()
//!     .unwrap();
//! let report = client.run(&query).unwrap();
//! assert!(report.scalar().unwrap() < 1.0); // same bits as an in-process run
//! client.shutdown_server().unwrap();
//! daemon.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vr_core as core;
pub use vr_ldp as ldp;
pub use vr_ledger as ledger;
pub use vr_numerics as numerics;
pub use vr_protocols as protocols;
pub use vr_server as server;

/// The most common imports in one place.
pub mod prelude {
    pub use vr_core::accountant::{
        Accountant, DeltaEvaluator, NumericalBound, ScanMode, SearchOptions,
    };
    pub use vr_core::baselines::{
        BlanketOptions, BlanketProfile, EfmrttBound, GenericBlanketBound, SpecificBlanketBound,
    };
    pub use vr_core::bound::{AmplificationBound, BestOf, BoundKind, BoundRegistry, Validity};
    pub use vr_core::curve::PrivacyCurve;
    pub use vr_core::engine::{
        AmplificationQuery, AnalysisEngine, AnalysisReport, BoundSelection, PlanCertificate,
        QueryTarget, QueryValue, SweepAxis,
    };
    pub use vr_core::parallel::{hierarchical_range_query, ParallelWorkload};
    pub use vr_core::params::VariationRatio;
    pub use vr_core::renyi::{composed_epsilon, RenyiBound};
    pub use vr_ldp::{
        AmplifiableMechanism, BinaryRr, BoundedLaplace, FrequencyMechanism, Grr, HadamardResponse,
        KSubset, Olh, PlanarLaplace, Report,
    };
    pub use vr_ledger::{BudgetLedger, BudgetStatus, ChargeReceipt};
    pub use vr_numerics::par::{par_map, par_map_with};
    pub use vr_protocols::{
        plan_deployment, run_frequency_protocol, serve_epsilons, DeploymentPlan, RangeQueryProtocol,
    };
    pub use vr_server::{Client, ServedReport, ServedValue, Server, ServerConfig};
}
