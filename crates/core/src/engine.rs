//! The query-oriented analysis engine: one typed front door over every
//! amplification analysis, with a shared evaluator cache and batch serving.
//!
//! PR 2's [`crate::bound`] unified the *bounds* behind one trait; this
//! module unifies the *entry points*. Instead of picking a constructor per
//! analysis and hand-wiring its state, callers describe **what they want to
//! know** as an [`AmplificationQuery`] — source parameters, population,
//! target, bound selection — and hand it to an [`AnalysisEngine`], alone or
//! in batches. The engine owns a thread-safe memo cache of
//! [`DeltaEvaluator`]s keyed by `(p, β, q, n, ScanMode)`, so the expensive
//! part of the numerical accountant (the outer `Binom(n−1, 2r)` table and
//! the amortized ε-search it powers) is built once per workload and shared
//! by every subsequent query, from any thread.
//!
//! # Query targets and the paper
//!
//! | Target | Question answered | Paper machinery |
//! |---|---|---|
//! | [`QueryTarget::Delta`] | certified `δ` at privacy level `ε` | Thm 4.8 scan (or a closed form / baseline) |
//! | [`QueryTarget::Epsilon`] | certified `ε` at failure probability `δ` | Algorithm 1 bisection over the same bound |
//! | [`QueryTarget::Curve`] | the whole `δ(ε)` profile on a grid | [`PrivacyCurve`] over Thm 4.8 |
//! | [`QueryTarget::Composed`] | `ε` after `rounds` adaptive shuffles | Rényi extension of Thm 4.7 + Mironov conversion |
//! | [`QueryTarget::MinPopulation`] | smallest `n` achieving `(ε, δ)` | [`planner`] integer search over Thm 4.8 probes |
//! | [`QueryTarget::MaxLocalBudget`] | largest `ε₀` achieving `(ε, δ)` at `n` | [`planner`] float search over worst-case workloads |
//!
//! The forward targets answer "what does this deployment guarantee?"; the
//! two *inverse* targets (and [`AnalysisEngine::sweep`]) answer the planning
//! question deployments actually start from — see the [`planner`] module for
//! the search machinery, its certificates, and the wire-protocol mapping.
//!
//! # Bound selection
//!
//! * [`BoundSelection::Default`] — the registry default: the pointwise-best
//!   of the always-applicable numerical accountant (Theorem 4.8) and the
//!   Theorem 4.2 / 4.3 closed forms, exactly the portfolio of
//!   [`crate::bound::BoundRegistry::upper_bounds`].
//! * [`BoundSelection::Named`] — one specific analysis by its registry name
//!   (see [`crate::bound::names`]); prior-work baselines are instantiated
//!   from the query's local budget `ε₀` (or `ln p` when none was given).
//! * [`BoundSelection::BestOf`] — the widest sound portfolio: the default
//!   set plus every constructible LDP baseline (clone, stronger clone,
//!   generic blanket, EFMRTT19).
//!
//! # Example
//!
//! ```
//! use vr_core::engine::{AmplificationQuery, AnalysisEngine};
//!
//! let engine = AnalysisEngine::new();
//! let queries: Vec<_> = [1e-6, 1e-7, 1e-8]
//!     .iter()
//!     .map(|&delta| {
//!         AmplificationQuery::ldp_worst_case(1.0)
//!             .unwrap()
//!             .population(10_000)
//!             .epsilon_at(delta)
//!             .build()
//!             .unwrap()
//!     })
//!     .collect();
//! let reports = engine.run_batch(&queries);
//! for report in reports {
//!     let report = report.unwrap();
//!     assert!(report.value.scalar().unwrap() < 1.0); // amplified below ε₀
//! }
//! assert_eq!(engine.cached_evaluators(), 1); // one workload, served thrice
//! ```

pub mod planner;
pub mod spend;

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub use planner::{PlanCertificate, SweepAxis, DEFAULT_N_HI_HINT, MAX_PLANNER_POPULATION};
pub use spend::{
    affordable_rounds, composed_epsilon_over, Affordability, RoundSpend, SpendKey, SpendTerm,
};

use crate::accountant::{Accountant, DeltaEvaluator, NumericalBound, ScanMode, SearchOptions};
use crate::analytic::AnalyticBound;
use crate::asymptotic::AsymptoticBound;
use crate::baselines::{
    clone_params, stronger_clone_params, BlanketOptions, EfmrttBound, GenericBlanketBound,
};
use crate::bound::{names, AmplificationBound, BestOf, BoundRegistry, Validity};
use crate::curve::PrivacyCurve;
use crate::error::{Error, Result};
use crate::params::VariationRatio;
use crate::renyi::RenyiBound;
use crate::sync::{Mutex, RwLock};

/// What a query asks for (the mapping to paper theorems is in the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryTarget {
    /// The certified `δ` at privacy level `eps`.
    Delta {
        /// Privacy level `ε ≥ 0`.
        eps: f64,
    },
    /// The certified `ε` at failure probability `delta`.
    Epsilon {
        /// Failure probability `δ ∈ [0, 1]`.
        delta: f64,
    },
    /// The `δ(ε)` profile sampled on `points` equally spaced levels in
    /// `[0, eps_max]`.
    Curve {
        /// Upper end of the ε grid.
        eps_max: f64,
        /// Number of grid points (≥ 2).
        points: usize,
    },
    /// The total `ε` after `rounds` adaptive shuffle rounds at failure
    /// probability `delta`, via Rényi composition.
    Composed {
        /// Number of adaptive rounds.
        rounds: u32,
        /// Failure probability `δ` of the composed guarantee.
        delta: f64,
    },
    /// **Inverse:** the smallest population `n` whose shuffled workload
    /// achieves `(eps, delta)`-DP under the selected bound, found by the
    /// [`planner`]'s certified integer search. The report's scalar is the
    /// minimal `n` and [`AnalysisReport::certificate`] carries the evaluated
    /// `(n − 1, n)` witness pair.
    MinPopulation {
        /// Target privacy level `ε ≥ 0`.
        eps: f64,
        /// Target failure probability `δ ∈ (0, 1)`.
        delta: f64,
        /// Initial upper probe of the exponential bracketing (a *hint*, not
        /// a cap — the search grows past it up to
        /// [`MAX_PLANNER_POPULATION`]). [`DEFAULT_N_HI_HINT`] is a good
        /// general-purpose start.
        n_hi_hint: u64,
    },
    /// **Inverse:** the largest worst-case local budget `ε₀ ∈ (0, ceiling]`
    /// whose shuffled workload achieves `(eps, delta)`-DP at population `n`
    /// (the ceiling is the query's recorded local budget). The report's
    /// scalar is the certified-affordable `ε₀`;
    /// [`AnalysisReport::certificate`] carries the evaluated
    /// passing/failing pair.
    MaxLocalBudget {
        /// Target privacy level `ε ≥ 0`.
        eps: f64,
        /// Target failure probability `δ ∈ (0, 1)`.
        delta: f64,
        /// Population size `n ≥ 1` the budget must hold at.
        n: u64,
    },
}

/// Which analysis answers the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundSelection {
    /// Tightest of the always-applicable upper bounds (numerical accountant
    /// plus the Theorem 4.2/4.3 closed forms).
    Default,
    /// One specific bound by registry name (see [`crate::bound::names`]).
    Named(String),
    /// Tightest of the full portfolio: the default set plus every
    /// constructible prior-work LDP baseline.
    BestOf,
}

/// A fully-specified analysis request: workload (`(p, β, q)` + population),
/// target, bound selection and numerical options. Build one through
/// [`AmplificationQuery::params`], [`AmplificationQuery::ldp_worst_case`] or
/// a mechanism's `amplification_query` helper (`vr-ldp`), then run it on an
/// [`AnalysisEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct AmplificationQuery {
    vr: VariationRatio,
    eps0: Option<f64>,
    n: u64,
    target: QueryTarget,
    selection: BoundSelection,
    opts: SearchOptions,
}

impl AmplificationQuery {
    /// Start a query from explicit variation-ratio parameters.
    pub fn params(vr: VariationRatio) -> QueryBuilder {
        QueryBuilder {
            vr,
            eps0: None,
            n: None,
            target: None,
            selection: BoundSelection::Default,
            opts: SearchOptions::default(),
        }
    }

    /// Start a query for an arbitrary `ε₀`-LDP randomizer at the worst-case
    /// parameters `p = q = e^{ε₀}`, `β = (e^{ε₀}−1)/(e^{ε₀}+1)` (the
    /// stronger-clone regime); `ε₀` is also recorded as the local budget the
    /// baseline bounds instantiate from.
    pub fn ldp_worst_case(eps0: f64) -> Result<QueryBuilder> {
        Ok(Self::params(VariationRatio::ldp_worst_case(eps0)?).local_budget(eps0))
    }

    /// The workload's variation-ratio parameters.
    pub fn variation_ratio(&self) -> &VariationRatio {
        &self.vr
    }

    /// The local budget `ε₀` the baselines use, if one was recorded.
    pub fn local_budget(&self) -> Option<f64> {
        self.eps0
    }

    /// Population size.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// The query target.
    pub fn target(&self) -> &QueryTarget {
        &self.target
    }

    /// The bound selection.
    pub fn selection(&self) -> &BoundSelection {
        &self.selection
    }

    /// Numerical search options (scan mode + bisection iterations).
    pub fn options(&self) -> SearchOptions {
        self.opts
    }

    /// This query re-targeted at population `n` — the [`SweepAxis::Population`]
    /// fan-out step. For a [`QueryTarget::MaxLocalBudget`] query the
    /// population lives inside the target and is rewritten there; a
    /// [`QueryTarget::MinPopulation`] query has no population input to vary
    /// and is rejected.
    pub fn with_population(&self, n: u64) -> Result<AmplificationQuery> {
        if n == 0 {
            return Err(Error::InvalidParameter("population n must be >= 1".into()));
        }
        let mut q = self.clone();
        match q.target {
            QueryTarget::MinPopulation { .. } => {
                return Err(Error::InvalidParameter(
                    "min-population queries search the population; it cannot be swept".into(),
                ))
            }
            QueryTarget::MaxLocalBudget {
                n: ref mut target_n,
                ..
            } => *target_n = n,
            _ => {}
        }
        q.n = n;
        Ok(q)
    }

    /// This query re-sourced at the worst-case `ε₀`-LDP workload — the
    /// [`SweepAxis::LocalBudget`] fan-out step: the variation-ratio
    /// parameters are rebuilt as `p = q = e^{ε₀}`,
    /// `β = (e^{ε₀}−1)/(e^{ε₀}+1)` and the recorded budget is replaced. A
    /// [`QueryTarget::MaxLocalBudget`] query searches the budget itself and
    /// is rejected.
    pub fn with_local_budget(&self, eps0: f64) -> Result<AmplificationQuery> {
        if matches!(self.target, QueryTarget::MaxLocalBudget { .. }) {
            return Err(Error::InvalidParameter(
                "max-local-budget queries search the budget; it cannot be swept".into(),
            ));
        }
        let mut q = self.clone();
        q.vr = VariationRatio::ldp_worst_case(eps0)?;
        q.eps0 = Some(eps0);
        Ok(q)
    }

    /// `ε₀` for baseline instantiation: the recorded local budget, or
    /// `ln p` when none was given and `p` is finite.
    fn baseline_eps0(&self) -> Result<f64> {
        match self.eps0 {
            Some(e) => Ok(e),
            None if self.vr.p().is_finite() => Ok(self.vr.p().ln()),
            None => Err(Error::NotApplicable(
                "LDP baselines need a finite local budget (p = ∞ and no ε₀ recorded)".into(),
            )),
        }
    }
}

/// Builder for [`AmplificationQuery`] (see [`AmplificationQuery::params`]).
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    vr: VariationRatio,
    eps0: Option<f64>,
    n: Option<u64>,
    target: Option<QueryTarget>,
    selection: BoundSelection,
    opts: SearchOptions,
}

impl QueryBuilder {
    /// Set the population size `n ≥ 1` (required).
    pub fn population(mut self, n: u64) -> Self {
        self.n = Some(n);
        self
    }

    /// Record the local budget `ε₀` the baseline bounds instantiate from
    /// (defaults to `ln p` when `p` is finite).
    pub fn local_budget(mut self, eps0: f64) -> Self {
        self.eps0 = Some(eps0);
        self
    }

    /// Target: the certified `δ` at privacy level `eps`.
    pub fn delta_at(mut self, eps: f64) -> Self {
        self.target = Some(QueryTarget::Delta { eps });
        self
    }

    /// Target: the certified `ε` at failure probability `delta`.
    pub fn epsilon_at(mut self, delta: f64) -> Self {
        self.target = Some(QueryTarget::Epsilon { delta });
        self
    }

    /// Target: the `δ(ε)` profile on `points` levels in `[0, eps_max]`.
    pub fn curve(mut self, eps_max: f64, points: usize) -> Self {
        self.target = Some(QueryTarget::Curve { eps_max, points });
        self
    }

    /// Target: the composed `ε` after `rounds` adaptive shuffle rounds at
    /// failure probability `delta`.
    pub fn composed(mut self, rounds: u32, delta: f64) -> Self {
        self.target = Some(QueryTarget::Composed { rounds, delta });
        self
    }

    /// Inverse target: the smallest population achieving `(eps, delta)`-DP
    /// (see [`QueryTarget::MinPopulation`]). `n_hi_hint` seeds the
    /// exponential bracketing ([`DEFAULT_N_HI_HINT`] is a good default);
    /// do **not** also call [`QueryBuilder::population`] — the population is
    /// the search output.
    pub fn min_population(mut self, eps: f64, delta: f64, n_hi_hint: u64) -> Self {
        self.target = Some(QueryTarget::MinPopulation {
            eps,
            delta,
            n_hi_hint,
        });
        self
    }

    /// Inverse target: the largest worst-case local budget achieving
    /// `(eps, delta)`-DP at population `n` (see
    /// [`QueryTarget::MaxLocalBudget`]). The search ceiling is the query's
    /// recorded local budget, so start from
    /// [`AmplificationQuery::ldp_worst_case`] (or call
    /// [`QueryBuilder::local_budget`]) with the largest `ε₀` the deployment
    /// could tolerate; do **not** also call [`QueryBuilder::population`] —
    /// `n` travels inside the target.
    pub fn max_local_budget(mut self, eps: f64, delta: f64, n: u64) -> Self {
        self.target = Some(QueryTarget::MaxLocalBudget { eps, delta, n });
        self
    }

    /// Answer with one specific bound (a [`crate::bound::names`] entry).
    pub fn bound(mut self, name: impl Into<String>) -> Self {
        self.selection = BoundSelection::Named(name.into());
        self
    }

    /// Answer with the tightest bound of the full portfolio.
    pub fn best_of(mut self) -> Self {
        self.selection = BoundSelection::BestOf;
        self
    }

    /// Override the numerical search options (scan mode, iterations).
    pub fn search_options(mut self, opts: SearchOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Finish the query. Fails when the population or target is missing, or
    /// when any target parameter is outside its domain — the full validation
    /// gauntlet a serving boundary needs: `ε ≥ 0` and finite, `δ ∈ (0, 1)`,
    /// `points ≥ 2`, `rounds ≥ 1`, a positive finite local budget, and sane
    /// search options. A query that builds cannot panic the engine.
    pub fn build(self) -> Result<AmplificationQuery> {
        let target = self.target.ok_or_else(|| {
            Error::InvalidParameter(
                "query needs a target (`.delta_at` / `.epsilon_at` / `.curve` / `.composed` \
                 / `.min_population` / `.max_local_budget`)"
                    .into(),
            )
        })?;
        validate_target(&target)?;
        // Planner targets carry their population axis themselves: the search
        // hint for min-population, the fixed `n` for max-local-budget. An
        // additional `.population(n)` would be ignored or contradictory, so
        // it is rejected rather than silently shadowed.
        let planner_n = match target {
            QueryTarget::MinPopulation { n_hi_hint, .. } => Some(n_hi_hint),
            QueryTarget::MaxLocalBudget { n, .. } => Some(n),
            _ => None,
        };
        let n = match (self.n, planner_n) {
            (Some(_), Some(_)) => {
                return Err(Error::InvalidParameter(
                    "planner targets carry their own population; drop `.population(n)`".into(),
                ))
            }
            (Some(n), None) => {
                if n == 0 {
                    return Err(Error::InvalidParameter("population n must be >= 1".into()));
                }
                n
            }
            (None, Some(n)) => n,
            (None, None) => {
                return Err(Error::InvalidParameter(
                    "query needs a population (`.population(n)`)".into(),
                ))
            }
        };
        if matches!(target, QueryTarget::MaxLocalBudget { .. }) && self.eps0.is_none() {
            return Err(Error::InvalidParameter(
                "max_local_budget needs a search ceiling: start from \
                 AmplificationQuery::ldp_worst_case(eps0_max) or record \
                 `.local_budget(eps0_max)`"
                    .into(),
            ));
        }
        if let Some(eps0) = self.eps0 {
            if !eps0.is_finite() || eps0 <= 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "local budget eps0 must be positive and finite (got {eps0})"
                )));
            }
        }
        validate_options(&self.opts)?;
        Ok(AmplificationQuery {
            vr: self.vr,
            eps0: self.eps0,
            n,
            target,
            selection: self.selection,
            opts: self.opts,
        })
    }
}

/// Largest bisection depth a query may request: 40 iterations already pin ε
/// to ~12 significant digits, so anything past this cap is either a typo or
/// an attempt to stall a serving worker.
const MAX_SEARCH_ITERATIONS: usize = 1024;

/// Domain checks for every query target (shared by the builder and, through
/// it, every serving front end): a target that validates cannot reach an
/// `assert!` or produce nonsense deep inside the scan machinery.
fn validate_target(target: &QueryTarget) -> Result<()> {
    let check_delta = |delta: f64, what: &str| {
        if !(delta > 0.0 && delta < 1.0) {
            return Err(Error::InvalidParameter(format!(
                "{what} delta must be in (0, 1) (got {delta})"
            )));
        }
        Ok(())
    };
    let check_eps = |eps: f64, what: &str| {
        if !eps.is_finite() || eps < 0.0 {
            return Err(Error::InvalidParameter(format!(
                "{what} epsilon must be finite and non-negative (got {eps})"
            )));
        }
        Ok(())
    };
    match *target {
        QueryTarget::Delta { eps } => check_eps(eps, "query")?,
        QueryTarget::Epsilon { delta } => check_delta(delta, "query")?,
        QueryTarget::Curve { eps_max, points } => {
            if !eps_max.is_finite() || eps_max <= 0.0 {
                return Err(Error::InvalidParameter(format!(
                    "curve eps_max must be finite and positive (got {eps_max})"
                )));
            }
            if points < 2 {
                return Err(Error::InvalidParameter(format!(
                    "curve needs at least two grid points (got {points})"
                )));
            }
        }
        QueryTarget::Composed { rounds, delta } => {
            if rounds == 0 {
                return Err(Error::InvalidParameter(
                    "composed queries need at least one round".into(),
                ));
            }
            check_delta(delta, "composed")?;
        }
        QueryTarget::MinPopulation {
            eps,
            delta,
            n_hi_hint,
        } => {
            check_eps(eps, "min-population")?;
            check_delta(delta, "min-population")?;
            if !(1..=MAX_PLANNER_POPULATION).contains(&n_hi_hint) {
                return Err(Error::InvalidParameter(format!(
                    "min-population hint must be in [1, {MAX_PLANNER_POPULATION}] \
                     (got {n_hi_hint})"
                )));
            }
        }
        QueryTarget::MaxLocalBudget { eps, delta, n } => {
            check_eps(eps, "max-local-budget")?;
            check_delta(delta, "max-local-budget")?;
            if n == 0 {
                return Err(Error::InvalidParameter(
                    "max-local-budget queries need a population n >= 1".into(),
                ));
            }
        }
    }
    Ok(())
}

/// Domain checks for user-supplied [`SearchOptions`].
fn validate_options(opts: &SearchOptions) -> Result<()> {
    if opts.iterations == 0 || opts.iterations > MAX_SEARCH_ITERATIONS {
        return Err(Error::InvalidParameter(format!(
            "search iterations must be in [1, {MAX_SEARCH_ITERATIONS}] (got {})",
            opts.iterations
        )));
    }
    if let ScanMode::Truncated { tail_mass } = opts.mode {
        if !tail_mass.is_finite() || tail_mass < 0.0 {
            return Err(Error::InvalidParameter(format!(
                "scan-mode tail mass must be finite and non-negative (got {tail_mass})"
            )));
        }
    }
    Ok(())
}

/// The value a query produced: a scalar (`δ`, `ε`, composed `ε`) or a whole
/// privacy curve.
#[derive(Debug, Clone)]
pub enum QueryValue {
    /// A single certified number.
    Scalar(f64),
    /// A sampled `δ(ε)` profile.
    Curve(PrivacyCurve),
}

impl QueryValue {
    /// The scalar value, if this is a scalar result.
    pub fn scalar(&self) -> Option<f64> {
        match self {
            QueryValue::Scalar(v) => Some(*v),
            QueryValue::Curve(_) => None,
        }
    }

    /// The curve, if this is a curve result.
    pub fn curve(&self) -> Option<&PrivacyCurve> {
        match self {
            QueryValue::Scalar(_) => None,
            QueryValue::Curve(c) => Some(c),
        }
    }
}

/// A served query: the value plus the provenance a caller needs to audit or
/// monitor the serving path.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The certified value.
    pub value: QueryValue,
    /// Name of the bound that produced the value (for `BestOf`/default
    /// scalar queries: the winning member).
    pub bound: String,
    /// Validity domain advertised by the answering bound.
    pub validity: Validity,
    /// Whether this query touched the engine's memoized state **and**
    /// every lookup was warm: the evaluator cache for numerical targets,
    /// the per-round spend cache ([`spend`]) for composed targets
    /// (`false` for cold lookups and for closed forms, which use no
    /// cached state at all).
    pub cache_hit: bool,
    /// Search certificate of an inverse ([`planner`]) query: the candidate
    /// pair actually evaluated on each side of the feasibility threshold,
    /// plus the search's probe and cache-hit tallies. `None` for forward
    /// queries.
    pub certificate: Option<PlanCertificate>,
    /// Wall-clock time spent serving the query, bound construction
    /// included.
    pub wall: Duration,
}

impl AnalysisReport {
    /// Convenience accessor for scalar queries.
    pub fn scalar(&self) -> Option<f64> {
        self.value.scalar()
    }
}

/// Cache key of a memoized evaluator: the **canonicalized** bit patterns of
/// the workload parameters plus the scan mode. Raw `to_bits` would split
/// entries for numerically identical parameters (`-0.0` vs `0.0`, e.g. a
/// `β = -0.0` degenerate workload or a `tail_mass = -0.0` scan mode) and
/// alias distinct NaN payloads onto different slots, so every float is
/// normalized through [`canonical_bits`] and NaNs are rejected at
/// construction (`+∞` stays legal: multi-message workloads key on `p = ∞`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EvaluatorKey {
    p: u64,
    beta: u64,
    q: u64,
    n: u64,
    mode: (u8, u64),
}

/// The canonical bit pattern of a cache-key float: `-0.0` folds onto `0.0`
/// so the two hash and compare identically (IEEE-754 equality already treats
/// them as equal). NaN must be rejected by the caller before keying.
fn canonical_bits(x: f64) -> u64 {
    if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    }
}

/// Stored hint value: the population it was recorded at and the support
/// window `(lo, hi)` built there.
type SupportHint = (u64, (u64, u64));

/// Hint-store key: a workload with the population axis erased. A planner
/// search probes the **same** `(p, β, q, mode)` at many `n`s in sequence, so
/// the support window found at one probe predicts the next probe's window —
/// that prediction is what [`EvaluatorKey`] is too fine-grained to express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WorkloadKey {
    p: u64,
    beta: u64,
    q: u64,
    mode: (u8, u64),
}

impl From<&EvaluatorKey> for WorkloadKey {
    fn from(k: &EvaluatorKey) -> Self {
        Self {
            p: k.p,
            beta: k.beta,
            q: k.q,
            mode: k.mode,
        }
    }
}

/// Cumulative evaluator-construction counters of an [`AnalysisEngine`]
/// (see [`AnalysisEngine::build_stats`]). All counts are since engine
/// creation; monitoring deltas between two snapshots isolates one
/// workload's probe path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Cold evaluator builds (outer-table constructions) performed.
    pub tables_built: u64,
    /// Cold builds that were seeded from a prior probe's support window.
    pub hinted_builds: u64,
    /// Total incomplete-beta probes spent locating support windows.
    pub support_probes: u64,
    /// Total wall-clock nanoseconds spent inside table builds.
    pub build_nanos: u64,
}

/// Interior-mutable counters behind [`BuildStats`].
#[derive(Debug, Default)]
struct BuildStatCells {
    tables_built: std::sync::atomic::AtomicU64,
    hinted_builds: std::sync::atomic::AtomicU64,
    support_probes: std::sync::atomic::AtomicU64,
    build_nanos: std::sync::atomic::AtomicU64,
}

/// Bound on the warm-start hint store. One entry per distinct workload
/// (population-erased), so even a daemon serving thousands of parameter
/// sets stays tiny; crossing the bound clears the store — hints are pure
/// accelerators, losing them costs probes, never correctness.
const MAX_SUPPORT_HINTS: usize = 1024;

impl EvaluatorKey {
    /// Build the key, rejecting NaN components. [`VariationRatio`] already
    /// guarantees NaN-free `(p, β, q)`, but the scan mode's `tail_mass`
    /// arrives straight from user-supplied [`SearchOptions`].
    fn new(vr: &VariationRatio, n: u64, mode: ScanMode) -> Result<Self> {
        let mode = match mode {
            ScanMode::Full => (0u8, 0u64),
            ScanMode::Truncated { tail_mass } => {
                if !tail_mass.is_finite() || tail_mass < 0.0 {
                    return Err(Error::InvalidParameter(format!(
                        "scan-mode tail mass must be finite and non-negative (got {tail_mass})"
                    )));
                }
                (1u8, canonical_bits(tail_mass))
            }
        };
        Ok(Self {
            p: canonical_bits(vr.p()),
            beta: canonical_bits(vr.beta()),
            q: canonical_bits(vr.q()),
            n,
            mode,
        })
    }
}

/// The serving engine: executes [`AmplificationQuery`]s against a shared,
/// thread-safe cache of memoized [`DeltaEvaluator`]s. One engine instance
/// is meant to be long-lived and shared (`&AnalysisEngine` is `Sync`);
/// repeated and batched queries against the same workload hit warm state.
#[derive(Debug, Default)]
pub struct AnalysisEngine {
    /// One slot per workload; the slot's [`OnceLock`] makes the expensive
    /// table build happen exactly once even when a cold batch floods the
    /// same key from many worker threads (late arrivals block on the
    /// builder instead of duplicating its work). Slots are only ever
    /// inserted empty, initialized once or removed whole, so a panic under
    /// its guard leaves the map consistent ([`crate::sync`] recovers).
    cache: RwLock<HashMap<EvaluatorKey, Arc<CacheSlot>>>,
    /// Approximate total outer-table entries across the cached evaluators —
    /// the memory-pressure signal behind the eviction thresholds (an
    /// overcount under concurrent same-key builds is possible and only
    /// makes eviction earlier, never later).
    cached_entries: std::sync::atomic::AtomicUsize,
    /// Last built support window per population-erased workload, feeding
    /// [`DeltaEvaluator::with_support_hint`] on the next cold build of the
    /// same workload at a nearby `n` (the planner's probe path). Values are
    /// `(n, (lo, hi))`; the lookup mean-shifts the window to the new `n`.
    support_hints: RwLock<HashMap<WorkloadKey, SupportHint>>,
    /// Memoized per-round Rényi spend vectors, one per `(p, β, q, n)`
    /// workload — the continual-accounting seam ([`spend`]): composed
    /// queries and budget-ledger charges price rounds from this shared
    /// state instead of re-deriving the order grid per call. Like the
    /// evaluator cache, each slot admits exactly one builder: a cold grid
    /// evaluation is O(√n·√n) terms per order, so a connection-sharded
    /// daemon flooding one cold workload must wait on the first pricing,
    /// not duplicate it per connection.
    spends: RwLock<HashMap<spend::SpendKey, Arc<SpendSlot>>>,
    /// Inverted flag so `derive(Default)` yields warm-starting **on**; see
    /// [`AnalysisEngine::set_warm_start`].
    warm_start_disabled: std::sync::atomic::AtomicBool,
    /// Evaluator-construction telemetry ([`AnalysisEngine::build_stats`]).
    build_stat_cells: BuildStatCells,
}

/// Eviction thresholds of the shared evaluator cache. A long-lived daemon
/// serves arbitrary workloads — and a single planner search inserts one
/// evaluator per probed candidate — so the cache is bounded two ways: by
/// slot count and by total table entries (~8 bytes each;
/// [`MAX_CACHED_TABLE_ENTRIES`] caps the tables at ~½ GiB). Crossing
/// either threshold triggers a **second-chance sweep**
/// ([`AnalysisEngine::enforce_bounds`]): slots not hit since the previous
/// sweep are evicted first, and only if every survivor is hot does the
/// sweep cut deeper (to half the thresholds). A steady serving mix thus
/// keeps its working set warm across sweeps — the behaviour the `stats`
/// op's `cache_hits` counter measures — while one-off planner probes age
/// out. Every entry rebuilds on demand, and in-flight references keep
/// their `Arc`s alive, so eviction can never invalidate a caller.
const MAX_CACHED_EVALUATORS: usize = 4096;
/// See [`MAX_CACHED_EVALUATORS`].
const MAX_CACHED_TABLE_ENTRIES: usize = 1 << 26;
/// Bound on the per-round spend-vector cache ([`AnalysisEngine::round_spend`]):
/// entries are ~200 bytes, so this is generous; crossing it clears the map
/// (spends rebuild on demand — a lost entry costs one grid evaluation,
/// never correctness).
const MAX_CACHED_SPENDS: usize = 1 << 16;

/// One evaluator-cache slot: the build-once cell plus the slot's
/// second-chance hit counter. Warm lookups bump the counter; an eviction
/// sweep swaps it back to zero, so a survivor must be hit again before the
/// next sweep to survive that one too.
#[derive(Debug, Default)]
struct CacheSlot {
    cell: OnceLock<Arc<DeltaEvaluator>>,
    hits: std::sync::atomic::AtomicU64,
}

/// One spend-cache slot ([`AnalysisEngine::round_spend`]): the build lock
/// holds `None` until the first caller finishes pricing the workload's
/// order grid. Concurrent cold callers for the same key block on the slot
/// (not the map), so exactly one pays the grid evaluation; a failed build
/// leaves the slot empty and the next caller retries. Mirrors
/// [`CacheSlot`]'s single-builder contract with a `Mutex` instead of a
/// [`OnceLock`] because construction is fallible.
#[derive(Debug, Default)]
struct SpendSlot {
    built: Mutex<Option<Arc<spend::RoundSpend>>>,
}

/// Per-query tally of evaluator-cache lookups, aggregated into
/// [`AnalysisReport::cache_hit`]: warm only when the cache was used and
/// every lookup hit.
#[derive(Debug, Default)]
struct CacheUse {
    uses: u32,
    hits: u32,
}

impl CacheUse {
    fn record(&mut self, hit: bool) {
        self.uses += 1;
        self.hits += u32::from(hit);
    }

    fn all_warm(&self) -> bool {
        self.uses > 0 && self.hits == self.uses
    }
}

/// The pieces `execute` assembles into an [`AnalysisReport`]: value, winning
/// bound name, validity, all-warm flag, planner certificate.
type PlanValueParts = (QueryValue, String, Validity, bool, Option<PlanCertificate>);

impl AnalysisEngine {
    /// An engine with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct `(params, n, ScanMode)` workloads currently
    /// memoized (in-flight builds are not counted until they finish).
    pub fn cached_evaluators(&self) -> usize {
        self.cache
            .read()
            .values()
            .filter(|slot| slot.cell.get().is_some())
            .count()
    }

    /// Drop every memoized evaluator unconditionally (e.g. to release
    /// memory in a quiescent service). The automatic bound enforcement
    /// uses the gentler second-chance `enforce_bounds` sweep instead.
    pub fn clear_cache(&self) {
        let mut cache = self.cache.write();
        cache.clear();
        self.cached_entries
            .store(0, std::sync::atomic::Ordering::Relaxed);
        drop(cache);
        self.spends.write().clear();
    }

    /// Number of distinct `(params, n)` workloads whose per-round Rényi
    /// spend vector is currently memoized (see [`spend`]); in-flight
    /// builds are not counted until they finish.
    pub fn cached_spends(&self) -> usize {
        // Snapshot the slots, then drop the map guard: slot locks are
        // leaves too, never taken under the map's.
        let slots: Vec<Arc<SpendSlot>> = self.spends.read().values().cloned().collect();
        slots
            .iter()
            .filter(|slot| slot.built.lock().is_some())
            .count()
    }

    /// The memoized per-round Rényi spend vector for a workload — the
    /// continual-accounting seam shared by [`QueryTarget::Composed`]
    /// execution and budget-ledger charges. Returns the shared spend and
    /// whether it was already cached. Memoization cannot change answers:
    /// [`renyi_divergences`](crate::renyi::renyi_divergences) is
    /// deterministic, so a cached vector is bit-identical to a rebuilt one.
    pub fn round_spend(
        &self,
        vr: VariationRatio,
        n: u64,
    ) -> Result<(Arc<spend::RoundSpend>, bool)> {
        let key = spend::SpendKey::new(&vr, n);
        let slot = {
            let spends = self.spends.read();
            spends.get(&key).map(Arc::clone)
        };
        let slot = match slot {
            Some(slot) => slot,
            None => {
                let mut spends = self.spends.write();
                // Spend vectors are tiny (one f64 per Rényi order), but a
                // daemon fed adversarial workloads must still stay bounded:
                // past the cap, start over — spends rebuild on demand,
                // losing them costs one grid evaluation, never correctness.
                if spends.len() >= MAX_CACHED_SPENDS && !spends.contains_key(&key) {
                    spends.clear();
                }
                Arc::clone(spends.entry(key).or_default())
            }
        };
        // Exactly one caller pays the grid evaluation; concurrent cold
        // callers for the same key wait on the slot lock instead of
        // duplicating the work. A build error leaves the slot empty, so a
        // later (possibly corrected) caller retries rather than caching
        // the failure.
        let mut built = slot.built.lock();
        if let Some(s) = &*built {
            return Ok((Arc::clone(s), true));
        }
        let s = Arc::new(spend::RoundSpend::new(vr, n)?);
        *built = Some(Arc::clone(&s));
        Ok((s, false))
    }

    /// Second-chance eviction sweep, run when the cache crosses
    /// [`MAX_CACHED_EVALUATORS`] or [`MAX_CACHED_TABLE_ENTRIES`].
    ///
    /// Pass 1 evicts every built slot whose hit counter is zero — i.e.
    /// not served warm since the previous sweep — and zeroes the
    /// survivors' counters (their "second chance" is spent). If the hot
    /// survivors alone still exceed **half** of either threshold, pass 2
    /// cuts arbitrary built slots down to the half-targets so the sweep
    /// always frees real headroom. In-flight builds (empty cells) are
    /// never evicted: their builder threads hold the slot `Arc` and are
    /// about to initialize it.
    fn enforce_bounds(&self) {
        use std::sync::atomic::Ordering;
        let mut cache = self.cache.write();
        cache.retain(|_, slot| match slot.cell.get() {
            None => true,
            Some(_) => slot.hits.swap(0, Ordering::Relaxed) > 0,
        });
        let mut entries: usize = 0;
        let mut built: usize = 0;
        for ev in cache.values().filter_map(|slot| slot.cell.get()) {
            entries += ev.table_entries();
            built += 1;
        }
        if built > MAX_CACHED_EVALUATORS / 2 || entries > MAX_CACHED_TABLE_ENTRIES / 2 {
            cache.retain(|_, slot| match slot.cell.get() {
                None => true,
                Some(ev)
                    if built > MAX_CACHED_EVALUATORS / 2
                        || entries > MAX_CACHED_TABLE_ENTRIES / 2 =>
                {
                    built -= 1;
                    entries -= ev.table_entries();
                    false
                }
                Some(_) => true,
            });
        }
        self.cached_entries.store(entries, Ordering::Relaxed);
    }

    /// The memoized evaluator for a workload, building it on a miss.
    /// Returns the shared evaluator and whether it was already cached.
    pub fn evaluator(
        &self,
        vr: VariationRatio,
        n: u64,
        mode: ScanMode,
    ) -> Result<(Arc<DeltaEvaluator>, bool)> {
        use std::sync::atomic::Ordering;
        let key = EvaluatorKey::new(&vr, n, mode)?;
        let wkey = WorkloadKey::from(&key);
        let two_r = vr.clone_probability();
        let acc = Accountant::new(vr, n)?; // validate before touching the cache
        let slot = {
            let cache = self.cache.read();
            cache.get(&key).map(Arc::clone)
        };
        let slot = match slot {
            Some(slot) => slot,
            None => {
                let mut cache = self.cache.write();
                Arc::clone(cache.entry(key).or_default())
            }
        };
        // Exactly one caller pays the table build; concurrent cold callers
        // for the same key wait on it instead of duplicating the work.
        let hit = slot.cell.get().is_some();
        if hit {
            // A warm serve is this slot's second chance: the next eviction
            // sweep spares it.
            slot.hits.fetch_add(1, Ordering::Relaxed);
        }
        let ev = slot.cell.get_or_init(|| {
            // Cold build: seed the support search from the last window this
            // workload produced (mean-shifted to the new n), and account the
            // build. Only the thread that actually builds records stats.
            let hint = self.support_hint(&wkey, n, two_r);
            #[expect(
                clippy::disallowed_methods,
                reason = "build-time metering feeds the report's stats, never a bound value"
            )]
            let t0 = Instant::now();
            let (ev, stats) = DeltaEvaluator::with_support_hint(acc, mode, hint);
            let cells = &self.build_stat_cells;
            cells.tables_built.fetch_add(1, Ordering::Relaxed);
            cells
                .build_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            cells
                .support_probes
                .fetch_add(u64::from(stats.support_probes), Ordering::Relaxed);
            if stats.hinted {
                cells.hinted_builds.fetch_add(1, Ordering::Relaxed);
            }
            Arc::new(ev)
        });
        let ev = Arc::clone(ev);
        if !hit {
            if let Some(window) = ev.support_window() {
                self.store_support_hint(wkey, n, window);
            }
            let entries = self
                .cached_entries
                .fetch_add(ev.table_entries(), Ordering::Relaxed)
                + ev.table_entries();
            // Bound the cache for long-lived serving processes (see
            // [`MAX_CACHED_EVALUATORS`]); the just-built evaluator stays
            // valid through the Arc we are about to return.
            if entries > MAX_CACHED_TABLE_ENTRIES || self.cache.read().len() > MAX_CACHED_EVALUATORS
            {
                self.enforce_bounds();
            }
        }
        Ok((ev, hit))
    }

    /// The warm-start hint for a cold build of `wkey` at population `n`:
    /// the workload's last built window, transported to the new outer
    /// `Binom(n−1, 2r)`. Each stored endpoint sits a fixed number of
    /// standard deviations from the mean (the tail-mass quantile is the
    /// same at every `n`), so the endpoint's *deviation* is scaled by the
    /// √Δn growth of the spread and re-anchored on the new mean — accurate
    /// to O(1) even across the planner's doubling probes, where a mean-only
    /// shift would be off by thousands. The window search is
    /// hint-independent in its *answer* (the endpoints are unique roots of
    /// monotone predicates), so a stale or poorly transported hint costs
    /// extra probes, never correctness.
    fn support_hint(&self, wkey: &WorkloadKey, n: u64, two_r: f64) -> Option<(u64, u64)> {
        if self
            .warm_start_disabled
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            return None;
        }
        let (n_prev, (lo, hi)) = *self.support_hints.read().get(wkey)?;
        if n_prev == n {
            return Some((lo, hi));
        }
        let mean_prev = (n_prev - 1) as f64 * two_r;
        let mean_new = (n - 1) as f64 * two_r;
        let spread = (((n - 1) as f64) / ((n_prev - 1).max(1) as f64)).sqrt();
        let max = (n - 1) as f64;
        let transport = |k: u64| {
            (mean_new + (k as f64 - mean_prev) * spread)
                .round()
                .clamp(0.0, max) as u64
        };
        let (lo, hi) = (transport(lo), transport(hi));
        Some((lo, hi.max(lo)))
    }

    /// Record a cold build's support window for the workload's next build.
    fn store_support_hint(&self, wkey: WorkloadKey, n: u64, window: (u64, u64)) {
        let mut hints = self.support_hints.write();
        if hints.len() >= MAX_SUPPORT_HINTS && !hints.contains_key(&wkey) {
            hints.clear();
        }
        hints.insert(wkey, (n, window));
    }

    /// Toggle warm-started evaluator builds (on by default). With warm
    /// starting off, every cold build locates its support window from
    /// scratch — the A/B switch the benchmarks use to price the probe path.
    pub fn set_warm_start(&self, enabled: bool) {
        self.warm_start_disabled
            .store(!enabled, std::sync::atomic::Ordering::Relaxed);
    }

    /// Snapshot of the cumulative evaluator-construction counters: cold
    /// builds, how many were warm-started, support-search probes, and table
    /// build wall time. Warm cache hits touch none of these, so the deltas
    /// across a planner search expose exactly its probe path.
    pub fn build_stats(&self) -> BuildStats {
        use std::sync::atomic::Ordering;
        let cells = &self.build_stat_cells;
        BuildStats {
            tables_built: cells.tables_built.load(Ordering::Relaxed),
            hinted_builds: cells.hinted_builds.load(Ordering::Relaxed),
            support_probes: cells.support_probes.load(Ordering::Relaxed),
            build_nanos: cells.build_nanos.load(Ordering::Relaxed),
        }
    }

    /// Serve one query.
    pub fn run(&self, query: &AmplificationQuery) -> Result<AnalysisReport> {
        #[expect(
            clippy::disallowed_methods,
            reason = "this is the report's wall-clock plumbing; the value/bound fields stay deterministic"
        )]
        let t0 = Instant::now();
        let (value, bound, validity, cache_hit, certificate) = self.execute(query)?;
        Ok(AnalysisReport {
            value,
            bound,
            validity,
            cache_hit,
            certificate,
            wall: t0.elapsed(),
        })
    }

    /// Serve a batch, fanning the queries out over
    /// [`vr_numerics::par::par_map`] worker threads against the shared
    /// cache. Results are returned in query order; per-query errors do not
    /// abort the batch.
    pub fn run_batch(&self, queries: &[AmplificationQuery]) -> Vec<Result<AnalysisReport>> {
        vr_numerics::par::par_map(queries, |q| self.run(q))
    }

    /// Serve a single query on a throwaway engine — the bridge the legacy
    /// one-shot entry points delegate through.
    pub fn oneshot(query: &AmplificationQuery) -> Result<AnalysisReport> {
        Self::new().run(query)
    }

    /// Serve every grid point of a parameter sweep through one warm batch:
    /// the `template` query is fanned out along `axis` (population or
    /// worst-case local budget) via [`vr_numerics::par::par_map`] workers
    /// against the shared evaluator cache, and the reports come back in grid
    /// order (per-point errors do not abort the sweep).
    ///
    /// Curve templates are rejected (sweeps serve scalar values), as is
    /// sweeping a planner target along its own search axis; grid defects
    /// (empty, oversized, out-of-domain values) fail the whole sweep up
    /// front with [`Error::InvalidParameter`].
    pub fn sweep(
        &self,
        template: &AmplificationQuery,
        axis: &SweepAxis,
    ) -> Result<Vec<Result<AnalysisReport>>> {
        let queries = planner::sweep_queries(template, axis)?;
        Ok(self.run_batch(&queries))
    }

    fn execute(&self, query: &AmplificationQuery) -> Result<PlanValueParts> {
        match query.target {
            QueryTarget::MinPopulation {
                eps,
                delta,
                n_hi_hint,
            } => return planner::min_population(self, query, eps, delta, n_hi_hint),
            QueryTarget::MaxLocalBudget { eps, delta, n } => {
                return planner::max_local_budget(self, query, eps, delta, n)
            }
            _ => {}
        }
        if let QueryTarget::Composed { rounds, delta } = query.target {
            // Composed targets route through the Rényi machinery regardless
            // of portfolio (it is the only analysis that composes).
            match &query.selection {
                BoundSelection::Default | BoundSelection::BestOf => {}
                BoundSelection::Named(name) if name == names::RENYI => {}
                BoundSelection::Named(name) => {
                    return Err(Error::InvalidParameter(format!(
                        "composed queries are answered by the Rényi accountant; \
                         bound `{name}` does not compose"
                    )))
                }
            }
            // Served from the engine-wide spend memo ([`spend`]) that
            // ledger charges share, so their `remaining` is this bit for bit.
            let (round_spend, warm) = self.round_spend(query.vr, query.n)?;
            let v = round_spend.epsilon(rounds, delta);
            return Ok((
                QueryValue::Scalar(v),
                names::RENYI.to_string(),
                round_spend.validity(),
                warm,
                None,
            ));
        }

        let mut cache_use = CacheUse::default();
        let resolved = self.resolve(query, &mut cache_use)?;
        let (value, bound_name, validity) = match query.target {
            QueryTarget::Delta { eps } => match &resolved {
                Resolved::Single(b) => (
                    QueryValue::Scalar(b.delta(eps)?),
                    b.name().to_string(),
                    b.validity(),
                ),
                Resolved::Best(b) => {
                    let (winner, v) = b.winner_delta(eps)?;
                    (QueryValue::Scalar(v), winner.to_string(), b.validity())
                }
            },
            QueryTarget::Epsilon { delta } => match &resolved {
                Resolved::Single(b) => (
                    QueryValue::Scalar(b.epsilon(delta)?),
                    b.name().to_string(),
                    b.validity(),
                ),
                Resolved::Best(b) => {
                    let (winner, v) = b.winner_epsilon(delta)?;
                    (QueryValue::Scalar(v), winner.to_string(), b.validity())
                }
            },
            QueryTarget::Curve { eps_max, points } => {
                // Batch runs already fan out across queries; sampling
                // sequentially here avoids nested thread pools.
                let b: &dyn AmplificationBound = match &resolved {
                    Resolved::Single(b) => b.as_ref(),
                    Resolved::Best(b) => b,
                };
                (
                    QueryValue::Curve(PrivacyCurve::sample_sequential(b, eps_max, points)?),
                    b.name().to_string(),
                    b.validity(),
                )
            }
            QueryTarget::Composed { .. }
            | QueryTarget::MinPopulation { .. }
            | QueryTarget::MaxLocalBudget { .. } => {
                // Dispatched to their own handlers before this match; the
                // panic-freedom contract reports the broken invariant
                // instead of aborting.
                return Err(Error::Internal(
                    "composed/planner target reached the forward-execution match".into(),
                ));
            }
        };
        Ok((value, bound_name, validity, cache_use.all_warm(), None))
    }

    fn resolve(&self, query: &AmplificationQuery, cache_use: &mut CacheUse) -> Result<Resolved> {
        match &query.selection {
            BoundSelection::Named(name) => {
                Ok(Resolved::Single(self.named_bound(name, query, cache_use)?))
            }
            BoundSelection::Default => {
                let members = self.default_members(query, cache_use)?;
                Ok(Resolved::Best(BestOf::new("best-default", members)?))
            }
            BoundSelection::BestOf => {
                let mut members = self.default_members(query, cache_use)?;
                // Widen with every constructible LDP baseline; a baseline
                // that does not apply to this workload (e.g. p = ∞, or ε₀
                // outside a closed form's domain) is skipped, not fatal.
                if query.baseline_eps0().is_ok() {
                    for name in [
                        names::STRONGER_CLONE,
                        names::CLONE,
                        names::BLANKET_GENERIC,
                        names::EFMRTT19,
                    ] {
                        if let Ok(b) = self.named_bound(name, query, cache_use) {
                            members.push(b);
                        }
                    }
                }
                Ok(Resolved::Best(BestOf::new("best-of", members)?))
            }
        }
    }

    /// The default upper-bound portfolio: the engine-side instantiation of
    /// [`BoundRegistry::UPPER_BOUND_NAMES`] (one definition shared with the
    /// registry and the pipeline's privacy report), with the numerical
    /// member served from the shared cache.
    fn default_members(
        &self,
        query: &AmplificationQuery,
        cache_use: &mut CacheUse,
    ) -> Result<Vec<Box<dyn AmplificationBound>>> {
        BoundRegistry::UPPER_BOUND_NAMES
            .iter()
            .map(|&name| self.named_bound(name, query, cache_use))
            .collect()
    }

    fn cached_numerical(
        &self,
        name: &'static str,
        vr: VariationRatio,
        query: &AmplificationQuery,
        cache_use: &mut CacheUse,
    ) -> Result<Box<dyn AmplificationBound>> {
        let (ev, hit) = self.evaluator(vr, query.n, query.opts.mode)?;
        cache_use.record(hit);
        Ok(Box::new(NumericalBound::from_evaluator(
            name,
            ev,
            query.opts.iterations,
        )))
    }

    fn named_bound(
        &self,
        name: &str,
        query: &AmplificationQuery,
        cache_use: &mut CacheUse,
    ) -> Result<Box<dyn AmplificationBound>> {
        let n = query.n;
        match name {
            names::NUMERICAL => self.cached_numerical(names::NUMERICAL, query.vr, query, cache_use),
            names::VARIATION_RATIO => {
                self.cached_numerical(names::VARIATION_RATIO, query.vr, query, cache_use)
            }
            names::ANALYTIC => Ok(Box::new(AnalyticBound::new(query.vr, n))),
            names::ASYMPTOTIC => Ok(Box::new(AsymptoticBound::new(query.vr, n))),
            names::RENYI => Ok(Box::new(RenyiBound::new(query.vr, n, 1)?)),
            names::CLONE => {
                let params = clone_params(query.baseline_eps0()?)?;
                self.cached_numerical(names::CLONE, params, query, cache_use)
            }
            names::STRONGER_CLONE => {
                let params = stronger_clone_params(query.baseline_eps0()?)?;
                self.cached_numerical(names::STRONGER_CLONE, params, query, cache_use)
            }
            names::BLANKET_GENERIC => Ok(Box::new(GenericBlanketBound::new(
                query.baseline_eps0()?,
                n,
                BlanketOptions::default(),
            )?)),
            names::EFMRTT19 => Ok(Box::new(EfmrttBound::new(query.baseline_eps0()?, n)?)),
            names::BLANKET_SPECIFIC => Err(Error::NotApplicable(
                "the mechanism-specific blanket needs an output profile; construct \
                 SpecificBlanketBound directly"
                    .into(),
            )),
            names::LOWER => Err(Error::NotApplicable(
                "the Section 5 lower bound needs concrete output distributions; construct \
                 LowerBoundAccountant directly"
                    .into(),
            )),
            other => Err(Error::InvalidParameter(format!(
                "unknown bound name `{other}` (see vr_core::bound::names)"
            ))),
        }
    }
}

enum Resolved {
    Single(Box<dyn AmplificationBound>),
    Best(BestOf),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::BoundRegistry;
    use crate::renyi::{composed_epsilon, default_lambda_grid};

    fn wc(eps0: f64) -> VariationRatio {
        VariationRatio::ldp_worst_case(eps0).unwrap()
    }

    #[test]
    fn builder_requires_population_and_target() {
        assert!(AmplificationQuery::params(wc(1.0)).build().is_err());
        assert!(AmplificationQuery::params(wc(1.0))
            .population(0)
            .epsilon_at(1e-6)
            .build()
            .is_err());
        assert!(AmplificationQuery::params(wc(1.0))
            .epsilon_at(1e-6)
            .build()
            .is_err());
        let q = AmplificationQuery::params(wc(1.0))
            .population(100)
            .epsilon_at(1e-6)
            .build()
            .unwrap();
        assert_eq!(q.population(), 100);
        assert_eq!(q.target(), &QueryTarget::Epsilon { delta: 1e-6 });
        assert_eq!(q.selection(), &BoundSelection::Default);
    }

    #[test]
    fn named_numerical_matches_direct_bound() {
        let vr = wc(1.0);
        let n = 10_000;
        let engine = AnalysisEngine::new();
        let direct = NumericalBound::new(vr, n).unwrap();
        let q = AmplificationQuery::params(vr)
            .population(n)
            .epsilon_at(1e-6)
            .bound(names::NUMERICAL)
            .build()
            .unwrap();
        let r = engine.run(&q).unwrap();
        assert_eq!(r.bound, names::NUMERICAL);
        assert_eq!(
            r.scalar().unwrap().to_bits(),
            direct.epsilon(1e-6).unwrap().to_bits()
        );
        assert!(!r.cache_hit, "first query cannot be warm");
        let r2 = engine.run(&q).unwrap();
        assert!(r2.cache_hit, "second identical query must be warm");
        assert_eq!(
            r2.scalar().unwrap().to_bits(),
            r.scalar().unwrap().to_bits()
        );
        assert_eq!(engine.cached_evaluators(), 1);
        engine.clear_cache();
        assert_eq!(engine.cached_evaluators(), 0);
    }

    #[test]
    fn default_selection_matches_registry_best_of() {
        let vr = wc(2.0);
        let n = 50_000;
        let delta = 1e-8;
        let engine = AnalysisEngine::new();
        let q = AmplificationQuery::params(vr)
            .population(n)
            .epsilon_at(delta)
            .build()
            .unwrap();
        let served = engine.run(&q).unwrap();
        let best = BoundRegistry::upper_bounds(vr, n)
            .unwrap()
            .into_best_of("ref")
            .unwrap();
        let (winner, eps) = best.winner_epsilon(delta).unwrap();
        assert_eq!(served.bound, winner);
        assert_eq!(served.scalar().unwrap().to_bits(), eps.to_bits());
    }

    #[test]
    fn best_of_selection_never_looser_than_default() {
        let engine = AnalysisEngine::new();
        let base = AmplificationQuery::ldp_worst_case(2.0)
            .unwrap()
            .population(100_000);
        let q_default = base.clone().epsilon_at(1e-8).build().unwrap();
        let q_best = base.epsilon_at(1e-8).best_of().build().unwrap();
        let d = engine.run(&q_default).unwrap().scalar().unwrap();
        let b = engine.run(&q_best).unwrap().scalar().unwrap();
        assert!(b <= d + 1e-12, "wider portfolio got looser: {b} vs {d}");
    }

    #[test]
    fn curve_target_matches_direct_sampling() {
        let vr = wc(1.0);
        let n = 5_000;
        let engine = AnalysisEngine::new();
        let q = AmplificationQuery::params(vr)
            .population(n)
            .curve(1.0, 17)
            .bound(names::NUMERICAL)
            .build()
            .unwrap();
        let r = engine.run(&q).unwrap();
        let curve = r.value.curve().unwrap();
        let direct = NumericalBound::new(vr, n).unwrap();
        let reference = PrivacyCurve::sample_sequential(&direct, 1.0, 17).unwrap();
        for ((e1, d1), (e2, d2)) in curve.points().zip(reference.points()) {
            assert_eq!(e1.to_bits(), e2.to_bits());
            assert_eq!(d1.to_bits(), d2.to_bits());
        }
        assert!(r.scalar().is_none());
    }

    #[test]
    fn composed_target_matches_renyi_route() {
        let vr = wc(1.0);
        let n = 10_000;
        let engine = AnalysisEngine::new();
        let q = AmplificationQuery::params(vr)
            .population(n)
            .composed(8, 1e-6)
            .build()
            .unwrap();
        let r = engine.run(&q).unwrap();
        assert_eq!(r.bound, names::RENYI);
        let reference = composed_epsilon(&vr, n, 8, 1e-6, &default_lambda_grid()).unwrap();
        assert_eq!(r.scalar().unwrap().to_bits(), reference.to_bits());
        // Composition must not route through a non-composing bound.
        let bad = AmplificationQuery::params(vr)
            .population(n)
            .composed(8, 1e-6)
            .bound(names::ANALYTIC)
            .build()
            .unwrap();
        assert!(engine.run(&bad).is_err());
    }

    #[test]
    fn baselines_instantiate_from_recorded_or_derived_budget() {
        let engine = AnalysisEngine::new();
        let n = 20_000;
        // Recorded budget.
        let q = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(n)
            .epsilon_at(1e-6)
            .bound(names::EFMRTT19)
            .build()
            .unwrap();
        let recorded = engine.run(&q).unwrap().scalar().unwrap();
        let direct = EfmrttBound::new(1.0, n).unwrap().epsilon(1e-6).unwrap();
        assert_eq!(recorded.to_bits(), direct.to_bits());
        // Derived budget: ln p for explicit parameters.
        let q = AmplificationQuery::params(wc(1.0))
            .population(n)
            .epsilon_at(1e-6)
            .bound(names::EFMRTT19)
            .build()
            .unwrap();
        let derived = engine.run(&q).unwrap().scalar().unwrap();
        let reference = EfmrttBound::new(wc(1.0).p().ln(), n)
            .unwrap()
            .epsilon(1e-6)
            .unwrap();
        assert_eq!(derived.to_bits(), reference.to_bits());
        // p = ∞ with no budget: baseline not applicable.
        let mm = VariationRatio::new(f64::INFINITY, 1.0, 4.0).unwrap();
        let q = AmplificationQuery::params(mm)
            .population(n)
            .epsilon_at(1e-6)
            .bound(names::CLONE)
            .build()
            .unwrap();
        assert!(matches!(engine.run(&q), Err(Error::NotApplicable(_))));
    }

    #[test]
    fn no_evaluator_queries_report_cold() {
        // Closed forms and the Rényi route never touch the evaluator cache,
        // so they must never claim a warm hit — even on repeat queries.
        let engine = AnalysisEngine::new();
        let q = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(10_000)
            .epsilon_at(1e-6)
            .bound(names::EFMRTT19)
            .build()
            .unwrap();
        for _ in 0..2 {
            let report = engine.run(&q).unwrap();
            assert!(!report.cache_hit, "closed form cannot be a cache hit");
        }
        assert_eq!(engine.cached_evaluators(), 0);
    }

    #[test]
    fn stronger_clone_shares_the_worst_case_evaluator() {
        // For a worst-case ε₀ query the stronger-clone parameters ARE the
        // query parameters, so the cache must dedupe the two.
        let engine = AnalysisEngine::new();
        let base = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(10_000);
        let q1 = base
            .clone()
            .epsilon_at(1e-6)
            .bound(names::NUMERICAL)
            .build()
            .unwrap();
        let q2 = base
            .epsilon_at(1e-6)
            .bound(names::STRONGER_CLONE)
            .build()
            .unwrap();
        engine.run(&q1).unwrap();
        let r2 = engine.run(&q2).unwrap();
        assert!(r2.cache_hit, "stronger clone should reuse the evaluator");
        assert_eq!(engine.cached_evaluators(), 1);
    }

    #[test]
    fn unknown_and_unsupported_names_are_rejected() {
        let engine = AnalysisEngine::new();
        let base = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(100);
        for (name, invalid) in [
            ("nonsense", true),
            (names::LOWER, false),
            (names::BLANKET_SPECIFIC, false),
        ] {
            let q = base.clone().epsilon_at(1e-6).bound(name).build().unwrap();
            let err = engine.run(&q).unwrap_err();
            match err {
                Error::InvalidParameter(_) => assert!(invalid, "{name}"),
                Error::NotApplicable(_) => assert!(!invalid, "{name}"),
                other => panic!("unexpected error for {name}: {other:?}"),
            }
        }
    }

    #[test]
    fn caught_panic_does_not_brick_the_engine() {
        // A query thread that panics while holding the cache lock poisons
        // it; the leaf lock must recover (hand out the guard anyway)
        // instead of propagating the poison to every later query.
        let engine = AnalysisEngine::new();
        let q = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(1_000)
            .epsilon_at(1e-6)
            .bound(names::NUMERICAL)
            .build()
            .unwrap();
        let before = engine.run(&q).unwrap().scalar().unwrap();

        // Poison both lock paths: panic while holding the write guard, then
        // while holding a read guard.
        for write in [true, false] {
            let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if write {
                    let _guard = engine.cache.write();
                    panic!("worker dies while holding the cache write lock");
                } else {
                    let _guard = engine.cache.read();
                    panic!("worker dies while holding the cache read lock");
                }
            }));
            assert!(poison.is_err(), "the probe panic must actually fire");
        }
        assert!(engine.cache.is_poisoned(), "lock should be poisoned now");

        // Every cache-touching entry point still works and the memoized
        // state survived intact.
        assert_eq!(engine.cached_evaluators(), 1);
        let after = engine.run(&q).unwrap();
        assert!(after.cache_hit, "recovered cache must still be warm");
        assert_eq!(after.scalar().unwrap().to_bits(), before.to_bits());
        engine.clear_cache();
        assert_eq!(engine.cached_evaluators(), 0);
        assert!(engine.run(&q).is_ok(), "cold rebuild after recovery works");
    }

    #[test]
    fn evaluator_key_canonicalizes_signed_zero() {
        // β = -0.0 and β = 0.0 describe the same degenerate workload; the
        // cache must not split them into two entries. Same for the scan
        // mode's tail mass.
        let engine = AnalysisEngine::new();
        let pos = VariationRatio::new(2.0, 0.0, 2.0).unwrap();
        let neg = VariationRatio::new(2.0, -0.0, 2.0).unwrap();
        assert_eq!(neg.beta().to_bits(), (-0.0f64).to_bits(), "precondition");
        engine.evaluator(pos, 100, ScanMode::default()).unwrap();
        let (_, hit) = engine.evaluator(neg, 100, ScanMode::default()).unwrap();
        assert!(hit, "-0.0 beta must alias the 0.0 entry");
        assert_eq!(engine.cached_evaluators(), 1);

        let vr = wc(1.0);
        let m_pos = ScanMode::Truncated { tail_mass: 0.0 };
        let m_neg = ScanMode::Truncated { tail_mass: -0.0 };
        engine.evaluator(vr, 100, m_pos).unwrap();
        let (_, hit) = engine.evaluator(vr, 100, m_neg).unwrap();
        assert!(hit, "-0.0 tail mass must alias the 0.0 entry");
        assert_eq!(engine.cached_evaluators(), 2);
    }

    #[test]
    fn evaluator_key_rejects_non_finite_tail_mass() {
        let engine = AnalysisEngine::new();
        let vr = wc(1.0);
        for bad in [f64::NAN, f64::INFINITY, -1e-9] {
            let err = engine
                .evaluator(vr, 100, ScanMode::Truncated { tail_mass: bad })
                .unwrap_err();
            assert!(
                matches!(err, Error::InvalidParameter(_)),
                "tail_mass={bad}: {err:?}"
            );
        }
        assert_eq!(engine.cached_evaluators(), 0, "nothing may be cached");
    }

    #[test]
    fn cache_eviction_bounds_a_long_lived_engine() {
        // A serving process sees arbitrary workloads (and each planner
        // probe caches one evaluator per candidate n); crossing the slot
        // threshold must sweep the cache instead of growing without bound.
        // The sweep is second-chance: a steadily re-hit slot (n = 3 here,
        // touched every iteration) survives it, while one-off probes are
        // evicted.
        let engine = AnalysisEngine::new();
        let vr = wc(1.0);
        engine.evaluator(vr, 3, ScanMode::default()).unwrap();
        for n in 1..=(MAX_CACHED_EVALUATORS as u64 + 8) {
            engine.evaluator(vr, n, ScanMode::default()).unwrap();
            // Keep the working-set entry hot across the sweep.
            let (_, hit) = engine.evaluator(vr, 3, ScanMode::default()).unwrap();
            assert!(hit, "the steadily-hit entry must stay warm at n = {n}");
            assert!(
                engine.cached_evaluators() <= MAX_CACHED_EVALUATORS + 1,
                "cache exceeded its bound at n = {n}"
            );
        }
        // The sweep fired: one-off entries went cold, the hot entry and
        // the engine's serving ability survived.
        assert!(engine.cached_evaluators() < MAX_CACHED_EVALUATORS);
        let (_, hit) = engine.evaluator(vr, 5, ScanMode::default()).unwrap();
        assert!(!hit, "the one-off n = 5 entry was evicted");
        let (_, hit) = engine.evaluator(vr, 3, ScanMode::default()).unwrap();
        assert!(hit, "the hot entry survived the sweep warm");
        // The manual clear is still a full reset.
        engine.clear_cache();
        assert_eq!(engine.cached_evaluators(), 0);
        let (_, hit) = engine.evaluator(vr, 3, ScanMode::default()).unwrap();
        assert!(!hit, "clear_cache drops even hot entries");
    }

    #[test]
    fn warm_start_cuts_probes_and_preserves_results() {
        let vr = wc(1.0);
        let eps = 0.5;
        // Reference: an engine with warm starting disabled builds every
        // window from scratch.
        let cold = AnalysisEngine::new();
        cold.set_warm_start(false);
        cold.evaluator(vr, 100_000, ScanMode::default()).unwrap();
        let s0 = cold.build_stats();
        let (ev_cold, _) = cold.evaluator(vr, 101_000, ScanMode::default()).unwrap();
        let cold_probes = cold.build_stats().support_probes - s0.support_probes;
        assert_eq!(cold.build_stats().hinted_builds, 0);

        // Warm-started engine: the second build of the same workload is
        // seeded from the first build's window.
        let warm = AnalysisEngine::new();
        warm.evaluator(vr, 100_000, ScanMode::default()).unwrap();
        let s0 = warm.build_stats();
        assert_eq!(s0.hinted_builds, 0, "first build has nothing to warm from");
        let (ev_warm, _) = warm.evaluator(vr, 101_000, ScanMode::default()).unwrap();
        let s1 = warm.build_stats();
        assert_eq!(s1.tables_built, 2);
        assert_eq!(s1.hinted_builds, 1, "second build must be warm-started");
        let warm_probes = s1.support_probes - s0.support_probes;
        assert!(
            warm_probes < cold_probes,
            "hinted build should probe less: {warm_probes} vs {cold_probes}"
        );
        // The hint only changes the search path, never the window or the
        // certified value.
        assert_eq!(ev_warm.support_window(), ev_cold.support_window());
        assert_eq!(
            ev_warm.try_delta(eps).unwrap().to_bits(),
            ev_cold.try_delta(eps).unwrap().to_bits()
        );
        // Warm cache hits are not builds: stats must not move.
        warm.evaluator(vr, 101_000, ScanMode::default()).unwrap();
        assert_eq!(warm.build_stats(), s1);
    }

    #[test]
    fn planner_probe_path_is_warm_started() {
        // A min-population search probes one workload at many n; every
        // build after the first should be seeded from its predecessor.
        let engine = AnalysisEngine::new();
        let q = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .min_population(0.3, 1e-6, DEFAULT_N_HI_HINT)
            .build()
            .unwrap();
        let n_star = engine.run(&q).unwrap().scalar().unwrap();
        let stats = engine.build_stats();
        assert!(stats.tables_built >= 2, "a search must probe repeatedly");
        assert_eq!(
            stats.hinted_builds,
            stats.tables_built - 1,
            "every probe after the first must be warm-started: {stats:?}"
        );
        // The warm-started search finds the same answer as a cold one.
        let cold = AnalysisEngine::new();
        cold.set_warm_start(false);
        let n_cold = cold.run(&q).unwrap().scalar().unwrap();
        assert_eq!(n_star.to_bits(), n_cold.to_bits());
        assert_eq!(cold.build_stats().hinted_builds, 0);
        assert!(
            stats.support_probes < cold.build_stats().support_probes,
            "warm-started search must spend fewer support probes"
        );
    }

    #[test]
    fn batch_preserves_order_and_reports_timing() {
        let engine = AnalysisEngine::new();
        let deltas = [1e-4, 1e-6, 1e-8];
        let queries: Vec<_> = deltas
            .iter()
            .map(|&d| {
                AmplificationQuery::ldp_worst_case(1.0)
                    .unwrap()
                    .population(10_000)
                    .epsilon_at(d)
                    .bound(names::NUMERICAL)
                    .build()
                    .unwrap()
            })
            .collect();
        let reports = engine.run_batch(&queries);
        assert_eq!(reports.len(), 3);
        let eps: Vec<f64> = reports
            .into_iter()
            .map(|r| r.unwrap().scalar().unwrap())
            .collect();
        // Smaller δ ⇒ larger ε, so order tells us results were not permuted.
        assert!(eps[0] < eps[1] && eps[1] < eps[2], "{eps:?}");
        // One-shot convenience agrees with the served value.
        let r = AnalysisEngine::oneshot(&queries[1]).unwrap();
        assert_eq!(r.scalar().unwrap().to_bits(), eps[1].to_bits());
        assert!(r.wall > Duration::ZERO);
    }
}
