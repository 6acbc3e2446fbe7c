//! Inverse deployment planning: certified searches that answer the design
//! questions a shuffle deployment starts from, on top of the same
//! [`AnalysisEngine`] cache the forward queries use.
//!
//! The paper's figures answer the *forward* question — "given `(ε₀, n)`,
//! what `(ε, δ)` does shuffling certify?" — but a deployment is planned the
//! other way around: *how many users* are needed before a report is
//! `(ε, δ)`-DP, or *how much local budget* each user can afford at a fixed
//! population. This module turns the forward bound into those inverse maps
//! by monotone search, and every answer ships with a **certificate**: the
//! candidate pair actually evaluated on each side of the feasibility
//! threshold ([`PlanCertificate`]), so the result can be re-checked with two
//! ordinary forward queries.
//!
//! # Inverse ops → wire frames
//!
//! The three planner entry points are served end to end — builder, engine,
//! `vr-server` protocol, `vr-query` CLI:
//!
//! | Inverse op | Query form | Wire request |
//! |---|---|---|
//! | min population | `…min_population(ε, δ, hint)` | `{"op":"min_n","eps0":1.0,"eps":0.25,"delta":1e-8,"n_hi":1048576}` |
//! | max local budget | `ldp_worst_case(cap)…max_local_budget(ε, δ, n)` | `{"op":"max_eps0","eps0":8.0,"eps":0.25,"delta":1e-8,"n":100000}` |
//! | parameter sweep | `engine.sweep(&query, &axis)` | `{"op":"sweep","axis":"n","grid":[1000,10000],"target":"epsilon","eps0":1.0,"delta":1e-8}` |
//!
//! (`n_hi` is optional on the wire and defaults to [`DEFAULT_N_HI_HINT`];
//! planner replies carry a `"certificate"` object with `failing`, `passing`,
//! `evaluations` and `cache_hits`.)
//!
//! # Feasibility probes and the shared cache
//!
//! Every search step asks one question — "does the selected bound's `δ(ε)`
//! at this candidate stay ≤ δ?" — through exactly the code path a forward
//! [`QueryTarget::Delta`] query takes, so a planner answer is **bit-faithful
//! to the forward engine**: re-running `δ(ε)` at the certificate's two
//! candidates via [`AnalysisEngine::run`] reproduces the search's own
//! decisions. Probes go through the engine's evaluator cache (keyed by
//! `(p, β, q, n, ScanMode)`), so a repeated or nearby search — the serving
//! pattern — is answered from warm state; the certificate reports the
//! aggregate [`PlanCertificate::cache_hits`] so callers can watch that
//! happen. A probe costs a *single* `δ(ε)` scan where a naive inverse loop
//! would run a full Algorithm-1 `ε(δ)` bisection (~40 scans) per candidate —
//! the `planner` bench pins the resulting ≥ 3× speedup.
//!
//! # The certified replay
//!
//! Each search has a reference probe sequence: `min_n` doubles from the hint
//! to a passing population and bisects down to adjacent candidates;
//! `max_eps0` probes its ceiling and floor and bisects the `ε₀` axis in a
//! fixed number of steps. The served answer is that sequence's answer, and
//! it is replayed unchanged over a [`Certified`] bracket: a point beyond a
//! certified end is decided by monotonicity with no probe, a point already
//! probed by its memoized value, and only the rest are probed. A pre-pass
//! pins the bracket first — for `min_n` a ×4 ladder from `n = 1` to the
//! hint (then the reference's doubling past it) and false position from the
//! last failing rung, for `max_eps0` false position from its two endpoint
//! probes — so a `min_n` for a few thousand users builds evaluators near
//! the answer instead of at `n = 2²⁰, 2¹⁹, …` down from the default hint.
//! Only selections whose probe is one fast scan (`numerical`,
//! `variation-ratio`) are pruned: their value is monotone along both axes
//! up to the scan's certified envelope. Portfolio selections replay
//! unpruned (see `certification_margin`). Values, witness pairs, bound names
//! and validity are those of the reference search bit for bit (the
//! `frozen` oracle in this module's tests); only the count of probes that
//! ran, [`PlanCertificate::evaluations`], falls.

use super::{
    AmplificationQuery, AnalysisEngine, BoundSelection, CacheUse, PlanValueParts, QueryTarget,
    QueryValue, Resolved,
};
use crate::accountant::{ScanMode, DEFAULT_TAIL_MASS, FAST_CERT_GUARD, FAST_SCAN_PAD};
use crate::bound::{names, AmplificationBound, Validity};
use crate::error::{Error, Result};
use crate::params::VariationRatio;
use vr_numerics::search::{bisect_monotone, doubling_bisection_u64, Certified};

/// Hard ceiling of the min-population search: ~8.6 × 10⁹ (beyond any real
/// user population). If even this population cannot achieve the target, the
/// search reports [`Error::Unachievable`] instead of growing without bound.
pub const MAX_PLANNER_POPULATION: u64 = 1 << 33;

/// Default initial upper probe of the min-population exponential bracketing
/// (2²⁰ ≈ 10⁶ users — the scale of the paper's experiments). Searches are
/// correct with any hint in `[1, MAX_PLANNER_POPULATION]`; a hint near the
/// answer just saves probes.
pub const DEFAULT_N_HI_HINT: u64 = 1 << 20;

/// Smallest worst-case local budget the max-budget search distinguishes:
/// budgets below this are privacy-noise (`e^{ε₀} − 1 < 10⁻⁹`) and a target
/// that needs one is reported as unachievable.
pub const MIN_LOCAL_BUDGET: f64 = 1e-9;

/// Largest sweep grid accepted (matches the wire protocol's appetite: a
/// 64 KiB request line cannot carry much more anyway).
pub const MAX_SWEEP_POINTS: usize = 4096;

/// The witness pair of an inverse search: both candidates were **actually
/// evaluated** by the search, one on each side of the feasibility
/// threshold (a witness the replay settled by its certified bracket is
/// probed before the answer is served), so `(failing, passing)` can be
/// re-checked with two forward `δ(ε)` queries. For min-population searches
/// the candidates are integer populations carried exactly in `f64`; for
/// max-budget searches they are `ε₀` values bracketing the affordable
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCertificate {
    /// Last candidate evaluated on the failing side of the threshold —
    /// `None` when the search never saw a failure (the domain's easy end
    /// already passed: `n = 1` for min-population, the ceiling for
    /// max-budget).
    pub failing: Option<f64>,
    /// The certified answer: the candidate evaluated passing (smallest
    /// passing `n`, largest passing `ε₀` up to bisection resolution).
    pub passing: f64,
    /// Feasibility probes that ran (each one `δ(ε)` evaluation of the
    /// selected bound at a distinct candidate). Decisions the certified
    /// bracket or the memo of earlier probes settled are not counted, so
    /// this is not the length of the reference probe sequence.
    pub evaluations: u32,
    /// Evaluator-cache lookups served warm across the probes that ran and
    /// the certification re-check (for portfolio selections one probe
    /// performs several lookups, so this can exceed `evaluations`).
    pub cache_hits: u32,
}

/// The grid a [`AnalysisEngine::sweep`] fans a query template over.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Vary the population `n` (every value ≥ 1), keeping the workload
    /// parameters fixed. Rejected for [`QueryTarget::MinPopulation`]
    /// templates (their population is the search output).
    Population(Vec<u64>),
    /// Vary the worst-case local budget `ε₀` (every value positive and
    /// finite), rebuilding the workload as `p = q = e^{ε₀}`,
    /// `β = (e^{ε₀}−1)/(e^{ε₀}+1)` per grid point. Rejected for
    /// [`QueryTarget::MaxLocalBudget`] templates.
    LocalBudget(Vec<f64>),
}

impl SweepAxis {
    /// The wire spelling of the axis (`"n"` / `"eps0"`).
    pub fn kind(&self) -> &'static str {
        match self {
            SweepAxis::Population(_) => "n",
            SweepAxis::LocalBudget(_) => "eps0",
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::Population(grid) => grid.len(),
            SweepAxis::LocalBudget(grid) => grid.len(),
        }
    }

    /// Whether the grid is empty (an empty sweep is rejected by the engine).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The grid as `f64` values (populations are exact below 2⁵³) — the form
    /// replies and plots consume.
    pub fn grid_values(&self) -> Vec<f64> {
        match self {
            SweepAxis::Population(grid) => grid.iter().map(|&n| n as f64).collect(),
            SweepAxis::LocalBudget(grid) => grid.clone(),
        }
    }
}

/// Build the per-grid-point queries of a sweep (validation lives here so the
/// engine method and the wire protocol reject identically).
pub(super) fn sweep_queries(
    template: &AmplificationQuery,
    axis: &SweepAxis,
) -> Result<Vec<AmplificationQuery>> {
    if matches!(template.target, QueryTarget::Curve { .. }) {
        return Err(Error::InvalidParameter(
            "sweeps serve scalar targets; ask for a curve with a single curve query".into(),
        ));
    }
    if axis.is_empty() {
        return Err(Error::InvalidParameter(
            "sweep grid must be non-empty".into(),
        ));
    }
    if axis.len() > MAX_SWEEP_POINTS {
        return Err(Error::InvalidParameter(format!(
            "sweep grid is capped at {MAX_SWEEP_POINTS} points (got {})",
            axis.len()
        )));
    }
    match axis {
        SweepAxis::Population(grid) => grid.iter().map(|&n| template.with_population(n)).collect(),
        SweepAxis::LocalBudget(grid) => grid
            .iter()
            .map(|&eps0| template.with_local_budget(eps0))
            .collect(),
    }
}

/// The margin by which a planner probe must clear `δ` to certify its side
/// of the threshold for every point beyond it, or `∞` (certify nothing:
/// the search replays unpruned) when the selection's probe is not one fast
/// scan or the scan credits more than the default tail mass. A numerical
/// probe is `delta_fast` itself, within `exact ≤ fast ≤ exact + G` of the
/// exact scan. The exact scan tracks the Theorem 4.8 divergence, which is
/// monotone in `n` and in `ε₀`, to within the tail mass it credits for its
/// outer window, and that window moves with `n` and `ε₀`; a second guard
/// covers that credit (at most [`ScanMode::default`]'s 1e-14) and rounding,
/// as on the ε search's failing side. A coarser scan's credit can exceed
/// the guard, so its probe is not monotone to within the margin. A
/// portfolio's probe is the minimum over members whose side conditions
/// switch on and off along the axis (Theorem 4.2's closed form holds at
/// some populations and not at larger ones), so it is not monotone either.
fn certification_margin(query: &AmplificationQuery) -> f64 {
    let one_scan = matches!(&query.selection, BoundSelection::Named(name)
        if name == names::NUMERICAL || name == names::VARIATION_RATIO);
    let credit_within_guard = match query.opts.mode {
        ScanMode::Full => true,
        ScanMode::Truncated { tail_mass } => tail_mass <= DEFAULT_TAIL_MASS,
    };
    if one_scan && credit_within_guard {
        2.0 * FAST_CERT_GUARD
    } else {
        f64::INFINITY
    }
}

/// The feasibility probes of one planner search along its axis: each is one
/// selected-bound `δ(ε)` query at the candidate `at(x)` builds, through the
/// exact code path a forward [`QueryTarget::Delta`] query takes, and is
/// memoized so the replay never evaluates a candidate twice.
struct Probes<'a, F> {
    engine: &'a AnalysisEngine,
    eps: f64,
    at: F,
    cache_use: CacheUse,
    /// Every evaluated candidate with its `δ(ε)`, in probe order.
    seen: Vec<(f64, f64)>,
}

impl<'a, F: Fn(f64) -> Result<AmplificationQuery>> Probes<'a, F> {
    fn new(engine: &'a AnalysisEngine, eps: f64, at: F) -> Self {
        Self {
            engine,
            eps,
            at,
            cache_use: CacheUse::default(),
            seen: Vec::new(),
        }
    }

    /// `δ(ε)` at candidate `x`, evaluated on first use only.
    fn value(&mut self, x: f64) -> Result<f64> {
        if let Some(&(_, v)) = self.seen.iter().find(|(y, _)| y.to_bits() == x.to_bits()) {
            return Ok(v);
        }
        let (v, _, _) =
            certified_delta(self.engine, &(self.at)(x)?, self.eps, &mut self.cache_use)?;
        self.seen.push((x, v));
        Ok(v)
    }

    /// Evaluate a served witness (a no-op unless the replay settled it by
    /// the bracket), so both certificate candidates were actually probed,
    /// and check it lands where the replay decided.
    fn witness(&mut self, bracket: &Certified, x: f64, high: bool) -> Result<()> {
        if bracket.is_high(self.value(x)?) == high {
            Ok(())
        } else {
            Err(Error::Internal(format!(
                "a probe at the witness {x} contradicts its certified decision"
            )))
        }
    }

    fn evaluations(&self) -> u32 {
        u32::try_from(self.seen.len()).unwrap_or(u32::MAX)
    }
}

/// One feasibility probe: the selected bound's `δ(ε)` for `query`, through
/// the exact code path a forward [`QueryTarget::Delta`] query takes (same
/// resolution, same cache, same winner bookkeeping).
fn certified_delta(
    engine: &AnalysisEngine,
    query: &AmplificationQuery,
    eps: f64,
    cache_use: &mut CacheUse,
) -> Result<(f64, String, Validity)> {
    match engine.resolve(query, cache_use)? {
        Resolved::Single(b) => Ok((b.delta(eps)?, b.name().to_string(), b.validity())),
        Resolved::Best(b) => {
            let (winner, v) = b.winner_delta(eps)?;
            Ok((v, winner.to_string(), b.validity()))
        }
    }
}

/// Re-evaluate the certified passing candidate to harvest the winning bound
/// name and validity (a warm lookup — its evaluator was just built by the
/// search), and assemble the planner's slice of an analysis report.
fn finish(
    engine: &AnalysisEngine,
    query: &AmplificationQuery,
    eps: f64,
    mut cache_use: CacheUse,
    evaluations: u32,
    failing: Option<f64>,
    passing: f64,
) -> Result<PlanValueParts> {
    let (_, bound, validity) = certified_delta(engine, query, eps, &mut cache_use)?;
    let certificate = PlanCertificate {
        failing,
        passing,
        evaluations,
        cache_hits: cache_use.hits,
    };
    Ok((
        QueryValue::Scalar(passing),
        bound,
        validity,
        cache_use.all_warm(),
        Some(certificate),
    ))
}

/// Serve a [`QueryTarget::MinPopulation`] query. The reference search
/// doubles from the hint to a passing population, then bisects down to the
/// adjacent `(n − 1, n)` pair; it is replayed over a certified bracket that
/// a pre-pass pins first, near the answer and away from the costly large
/// populations a high hint would probe.
pub(super) fn min_population(
    engine: &AnalysisEngine,
    query: &AmplificationQuery,
    eps: f64,
    delta: f64,
    n_hi_hint: u64,
) -> Result<PlanValueParts> {
    let hint = n_hi_hint.clamp(1, MAX_PLANNER_POPULATION);
    let mut probes = Probes::new(engine, eps, |n: f64| {
        let mut q = query.clone();
        q.n = n as u64;
        Ok(q)
    });
    // Far past the answer the fast scan flattens at its pad, where false
    // position stalls: bisect geometrically there.
    let margin = certification_margin(query);
    let mut bracket = Certified::new(delta, margin, margin, true)
        .integer()
        .geometric_below(2.0 * FAST_SCAN_PAD);
    // Pre-pass: climb 1, 4, 16, … up to the hint, then double past it as the
    // reference does, to the first passing rung; false position then closes
    // in from the last failing one.
    let (mut n, mut last_fail) = (1u64, None);
    while margin.is_finite() {
        let v = probes.value(n as f64)?;
        bracket.record(n as f64, v);
        if bracket.is_high(v) {
            if let Some(lo) = last_fail {
                bracket.prepass(lo, n as f64, |x| probes.value(x))?;
            }
            break;
        }
        if n == MAX_PLANNER_POPULATION {
            break;
        }
        last_fail = Some(n as f64);
        n = if n < hint {
            n.saturating_mul(4).min(hint)
        } else {
            n.saturating_mul(2).min(MAX_PLANNER_POPULATION)
        };
    }
    let found = doubling_bisection_u64(
        |n| bracket.decide(n as f64, |x| probes.value(x)),
        1,
        hint,
        MAX_PLANNER_POPULATION,
    )?
    .ok_or_else(|| {
        Error::Unachievable(format!(
            "(eps = {eps}, delta = {delta:e}) is not achieved by this workload even at \
             n = {MAX_PLANNER_POPULATION}"
        ))
    })?;
    let failing = found.last_infeasible.map(|n| n as f64);
    let passing = found.first_feasible as f64;
    if let Some(n) = failing {
        probes.witness(&bracket, n, false)?;
    }
    probes.witness(&bracket, passing, true)?;
    let mut at_min = query.clone();
    at_min.n = found.first_feasible;
    let evaluations = probes.evaluations();
    finish(
        engine,
        &at_min,
        eps,
        probes.cache_use,
        evaluations,
        failing,
        passing,
    )
}

/// Serve a [`QueryTarget::MaxLocalBudget`] query. The reference search
/// probes the recorded ceiling and a guaranteed-feasible floor, then bisects
/// the worst-case `ε₀` axis between them; the bisection is replayed over a
/// certified bracket that a pre-pass pins first.
pub(super) fn max_local_budget(
    engine: &AnalysisEngine,
    query: &AmplificationQuery,
    eps: f64,
    delta: f64,
    n: u64,
) -> Result<PlanValueParts> {
    let ceiling = query.eps0.ok_or_else(|| {
        Error::Internal(
            "max_local_budget query carries no ε₀ ceiling despite build() recording one".into(),
        )
    })?;
    let mut probes = Probes::new(engine, eps, |eps0: f64| {
        let mut q = query.clone();
        q.vr = VariationRatio::ldp_worst_case(eps0)?;
        q.eps0 = Some(eps0);
        q.n = n;
        Ok(q)
    });
    let at_ceiling = probes.value(ceiling)?;
    let (failing, passing) = if at_ceiling <= delta {
        // The whole allowed range is affordable; no failing witness.
        (None, ceiling)
    } else {
        // ε₀ = ε is feasible whenever anything is (shuffling cannot make an
        // (ε, 0)-DP randomizer worse than (ε, δ)); below MIN_LOCAL_BUDGET
        // the question stops being meaningful.
        let floor = eps.min(ceiling).max(MIN_LOCAL_BUDGET);
        if floor >= ceiling || probes.value(floor)? > delta {
            return Err(Error::Unachievable(format!(
                "(eps = {eps}, delta = {delta:e}) is not achieved at n = {n} by any \
                 worst-case local budget in [{MIN_LOCAL_BUDGET:e}, {ceiling}]"
            )));
        }
        // The bisection decides "the budget fails": the axis's high side.
        let margin = certification_margin(query);
        let mut bracket = Certified::new(delta, margin, margin, false);
        if margin.is_finite() {
            bracket.record(ceiling, at_ceiling);
            bracket.record(floor, probes.value(floor)?);
            bracket.prepass(floor, ceiling, |x| probes.value(x))?;
        }
        // The float bisection is infallible: capture the first probe error.
        let mut probe_err: Option<Error> = None;
        let found = bisect_monotone(
            |eps0| {
                bracket
                    .decide(eps0, |x| probes.value(x))
                    .unwrap_or_else(|e| {
                        probe_err.get_or_insert(e);
                        true
                    })
            },
            floor,
            ceiling,
            query.opts.iterations,
        )?;
        if let Some(e) = probe_err {
            return Err(e);
        }
        // `infeasible` (of the *fails* predicate) is the largest budget
        // decided passing; `feasible` the smallest decided failing.
        probes.witness(&bracket, found.feasible, true)?;
        probes.witness(&bracket, found.infeasible, false)?;
        (Some(found.feasible), found.infeasible)
    };
    let mut at_max = query.clone();
    at_max.vr = VariationRatio::ldp_worst_case(passing)?;
    at_max.eps0 = Some(passing);
    at_max.n = n;
    let evaluations = probes.evaluations();
    finish(
        engine,
        &at_max,
        eps,
        probes.cache_use,
        evaluations,
        failing,
        passing,
    )
}

/// The planner searches as they were before the certified-bracket replay:
/// exponential bracketing from the hint and a plain bisection for `min_n`,
/// endpoint probes and a plain 40-step bisection for `max_eps0`, every
/// decision a probe. Frozen verbatim (the search helpers included, their
/// malformed-domain errors reported as the [`Error`] they convert into) as
/// the served searches' bit oracle. Do not edit it to follow them.
#[cfg(test)]
pub(crate) mod frozen {
    use super::super::{
        AmplificationQuery, AnalysisEngine, CacheUse, PlanValueParts, QueryValue, Resolved,
    };
    use super::{PlanCertificate, MAX_PLANNER_POPULATION, MIN_LOCAL_BUDGET};
    use crate::bound::{AmplificationBound, Validity};
    use crate::error::{Error, Result};
    use crate::params::VariationRatio;
    use vr_numerics::search::{Bracket, BracketU64};

    /// One feasibility probe: the selected bound's `δ(ε)` for `query`, through
    /// the exact code path a forward [`QueryTarget::Delta`] query takes (same
    /// resolution, same cache, same winner bookkeeping).
    fn certified_delta(
        engine: &AnalysisEngine,
        query: &AmplificationQuery,
        eps: f64,
        cache_use: &mut CacheUse,
    ) -> Result<(f64, String, Validity)> {
        match engine.resolve(query, cache_use)? {
            Resolved::Single(b) => Ok((b.delta(eps)?, b.name().to_string(), b.validity())),
            Resolved::Best(b) => {
                let (winner, v) = b.winner_delta(eps)?;
                Ok((v, winner.to_string(), b.validity()))
            }
        }
    }

    /// Re-evaluate the certified passing candidate to harvest the winning bound
    /// name and validity (a warm lookup — its evaluator was just built by the
    /// search), and assemble the planner's slice of an analysis report.
    fn finish(
        engine: &AnalysisEngine,
        query: &AmplificationQuery,
        eps: f64,
        mut cache_use: CacheUse,
        evaluations: u32,
        failing: Option<f64>,
        passing: f64,
    ) -> Result<PlanValueParts> {
        let (_, bound, validity) = certified_delta(engine, query, eps, &mut cache_use)?;
        let certificate = PlanCertificate {
            failing,
            passing,
            evaluations,
            cache_hits: cache_use.hits,
        };
        Ok((
            QueryValue::Scalar(passing),
            bound,
            validity,
            cache_use.all_warm(),
            Some(certificate),
        ))
    }

    /// Serve a [`QueryTarget::MinPopulation`] query: exponential bracketing from
    /// the hint, then certified integer bisection down to the adjacent
    /// `(n − 1, n)` pair.
    pub(super) fn min_population(
        engine: &AnalysisEngine,
        query: &AmplificationQuery,
        eps: f64,
        delta: f64,
        n_hi_hint: u64,
    ) -> Result<PlanValueParts> {
        let mut cache_use = CacheUse::default();
        let mut evaluations = 0u32;
        let bracket = {
            // Remember the largest candidate the bracketing step saw fail, so
            // the bisection starts from it instead of re-exploring (and
            // cold-building evaluators for) the known-infeasible region below.
            // A `Cell` lets the probe closure record it while the search loop
            // still reads it between calls.
            let largest_fail = std::cell::Cell::new(None::<u64>);
            let mut probe = |n: u64| -> Result<bool> {
                evaluations += 1;
                let mut q = query.clone();
                q.n = n;
                let (d, _, _) = certified_delta(engine, &q, eps, &mut cache_use)?;
                let pass = d <= delta;
                if !pass {
                    largest_fail.set(largest_fail.get().max(Some(n)));
                }
                Ok(pass)
            };
            let hint = n_hi_hint.clamp(1, MAX_PLANNER_POPULATION);
            let hi = exponential_upper_bracket_u64(&mut probe, hint, MAX_PLANNER_POPULATION)?
                .ok_or_else(|| {
                    Error::Unachievable(format!(
                        "(eps = {eps}, delta = {delta:e}) is not achieved by this workload even at \
                         n = {MAX_PLANNER_POPULATION}"
                    ))
                })?;
            let lo = largest_fail.get().unwrap_or(1);
            bisect_monotone_u64(&mut probe, lo, hi)?.ok_or_else(|| {
                Error::Internal(
                    "population bisection found no feasible point although the bracketing step \
                     evaluated `hi` feasible"
                        .into(),
                )
            })?
        };
        let mut at_min = query.clone();
        at_min.n = bracket.first_feasible;
        finish(
            engine,
            &at_min,
            eps,
            cache_use,
            evaluations,
            bracket.last_infeasible.map(|n| n as f64),
            bracket.first_feasible as f64,
        )
    }

    /// Serve a [`QueryTarget::MaxLocalBudget`] query: float bisection over the
    /// worst-case `ε₀` axis between a guaranteed-feasible floor and the query's
    /// recorded ceiling.
    pub(super) fn max_local_budget(
        engine: &AnalysisEngine,
        query: &AmplificationQuery,
        eps: f64,
        delta: f64,
        n: u64,
    ) -> Result<PlanValueParts> {
        let ceiling = query.eps0.ok_or_else(|| {
            Error::Internal(
                "max_local_budget query carries no ε₀ ceiling despite build() recording one".into(),
            )
        })?;
        let mut cache_use = CacheUse::default();
        let mut evaluations = 0u32;
        let (failing, passing) = {
            let mut probe = |eps0: f64| -> Result<bool> {
                evaluations += 1;
                let mut q = query.clone();
                q.vr = VariationRatio::ldp_worst_case(eps0)?;
                q.eps0 = Some(eps0);
                q.n = n;
                let (d, _, _) = certified_delta(engine, &q, eps, &mut cache_use)?;
                Ok(d <= delta)
            };
            if probe(ceiling)? {
                // The whole allowed range is affordable; no failing witness.
                (None, ceiling)
            } else {
                // ε₀ = ε is feasible whenever anything is (shuffling cannot make
                // an (ε, 0)-DP randomizer worse than (ε, δ)); below
                // MIN_LOCAL_BUDGET the question stops being meaningful.
                let floor = eps.min(ceiling).max(MIN_LOCAL_BUDGET);
                let unachievable = || {
                    Error::Unachievable(format!(
                        "(eps = {eps}, delta = {delta:e}) is not achieved at n = {n} by any \
                         worst-case local budget in [{MIN_LOCAL_BUDGET:e}, {ceiling}]"
                    ))
                };
                if floor >= ceiling || !probe(floor)? {
                    return Err(unachievable());
                }
                // Bisect the monotone false→true predicate "the budget fails",
                // capturing probe errors (the float bisection is infallible).
                let mut probe_err: Option<Error> = None;
                let bracket = bisect_monotone(
                    |eps0| match probe(eps0) {
                        Ok(pass) => !pass,
                        Err(e) => {
                            probe_err.get_or_insert(e);
                            true
                        }
                    },
                    floor,
                    ceiling,
                    query.opts.iterations,
                )?;
                if let Some(e) = probe_err {
                    return Err(e);
                }
                // `infeasible` (of the *fails* predicate) is the largest budget
                // evaluated passing; `feasible` the smallest evaluated failing.
                (Some(bracket.feasible), bracket.infeasible)
            }
        };
        let mut at_max = query.clone();
        at_max.vr = VariationRatio::ldp_worst_case(passing)?;
        at_max.eps0 = Some(passing);
        at_max.n = n;
        finish(
            engine,
            &at_max,
            eps,
            cache_use,
            evaluations,
            failing,
            passing,
        )
    }

    fn bisect_monotone<F: FnMut(f64) -> bool>(
        mut pred: F,
        lo: f64,
        hi: f64,
        iters: usize,
    ) -> Result<Bracket> {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            return Err(Error::InvalidParameter(format!(
                "bisect_monotone requires lo <= hi (got lo = {lo}, hi = {hi})"
            )));
        }
        let mut infeasible = lo;
        let mut feasible = hi;
        for _ in 0..iters {
            let mid = 0.5 * (infeasible + feasible);
            if pred(mid) {
                feasible = mid;
            } else {
                infeasible = mid;
            }
        }
        Ok(Bracket {
            infeasible,
            feasible,
        })
    }

    fn bisect_monotone_u64<F>(mut pred: F, lo: u64, hi: u64) -> Result<Option<BracketU64>>
    where
        F: FnMut(u64) -> Result<bool>,
    {
        if lo > hi {
            return Err(Error::InvalidParameter(format!(
                "bisect_monotone_u64 requires lo <= hi (got lo = {lo}, hi = {hi})"
            )));
        }
        if pred(lo)? {
            return Ok(Some(BracketU64 {
                last_infeasible: None,
                first_feasible: lo,
            }));
        }
        if lo == hi || !pred(hi)? {
            return Ok(None);
        }
        // Invariant: pred(infeasible) = false, pred(feasible) = true, both
        // evaluated. Midpoints are exact (no overflow: lo < hi ≤ u64::MAX).
        let (mut infeasible, mut feasible) = (lo, hi);
        while feasible - infeasible > 1 {
            let mid = infeasible + (feasible - infeasible) / 2;
            if pred(mid)? {
                feasible = mid;
            } else {
                infeasible = mid;
            }
        }
        Ok(Some(BracketU64 {
            last_infeasible: Some(infeasible),
            first_feasible: feasible,
        }))
    }

    fn exponential_upper_bracket_u64<F>(mut pred: F, start: u64, max: u64) -> Result<Option<u64>>
    where
        F: FnMut(u64) -> Result<bool>,
    {
        if start == 0 || max < start {
            return Err(Error::InvalidParameter(format!(
                "exponential_upper_bracket_u64 requires 1 <= start <= max \
                 (got start = {start}, max = {max})"
            )));
        }
        let mut x = start;
        loop {
            if pred(x)? {
                return Ok(Some(x));
            }
            if x >= max {
                return Ok(None);
            }
            x = x.saturating_mul(2).min(max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::QueryBuilder;
    use super::*;
    use crate::accountant::SearchOptions;
    use proptest::prelude::*;

    const EPS: f64 = 0.3;
    const DELTA: f64 = 1e-6;

    fn min_n_query(hint: u64) -> AmplificationQuery {
        AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .min_population(EPS, DELTA, hint)
            .build()
            .unwrap()
    }

    /// Forward δ(ε) at population `n` with the same source/selection as `q`.
    fn delta_check(engine: &AnalysisEngine, q: &AmplificationQuery, n: u64) -> f64 {
        let mut fwd = q.clone();
        fwd.target = QueryTarget::Delta { eps: EPS };
        fwd.n = n;
        engine.run(&fwd).unwrap().scalar().unwrap()
    }

    #[test]
    fn min_population_certificate_is_tight_and_forward_checkable() {
        let engine = AnalysisEngine::new();
        let q = min_n_query(256);
        let report = engine.run(&q).unwrap();
        let cert = report
            .certificate
            .expect("planner queries carry a certificate");
        let min_n = report.scalar().unwrap() as u64;
        assert_eq!(cert.passing, min_n as f64);
        assert_eq!(cert.failing, Some((min_n - 1) as f64), "adjacent witness");
        assert!(cert.evaluations > 0);
        // The forward engine reproduces both search decisions.
        assert!(delta_check(&engine, &q, min_n) <= DELTA);
        assert!(delta_check(&engine, &q, min_n - 1) > DELTA);
    }

    #[test]
    fn min_population_is_hint_independent_and_warms_the_cache() {
        let engine = AnalysisEngine::new();
        let reference = engine.run(&min_n_query(256)).unwrap();
        for hint in [1, 64, 1 << 14] {
            let report = engine.run(&min_n_query(hint)).unwrap();
            assert_eq!(
                report.scalar().unwrap().to_bits(),
                reference.scalar().unwrap().to_bits(),
                "hint {hint} changed the answer"
            );
        }
        // A repeated identical search runs entirely on warm evaluators.
        let warm = engine.run(&min_n_query(256)).unwrap();
        assert!(warm.cache_hit, "repeat search must be all-warm");
        let cert = warm.certificate.unwrap();
        assert!(cert.cache_hits >= cert.evaluations, "{cert:?}");
    }

    #[test]
    fn min_population_of_one_has_no_failing_witness() {
        // ε ≥ ε₀: the local guarantee alone suffices, so n = 1 passes.
        let engine = AnalysisEngine::new();
        let q = AmplificationQuery::ldp_worst_case(0.25)
            .unwrap()
            .min_population(0.3, 1e-9, 128)
            .build()
            .unwrap();
        let report = engine.run(&q).unwrap();
        assert_eq!(report.scalar().unwrap(), 1.0);
        let cert = report.certificate.unwrap();
        assert_eq!(cert.failing, None);
        assert_eq!(cert.passing, 1.0);
    }

    #[test]
    fn max_local_budget_certificate_brackets_the_threshold() {
        let engine = AnalysisEngine::new();
        let q = AmplificationQuery::ldp_worst_case(8.0)
            .unwrap()
            .max_local_budget(EPS, DELTA, 50_000)
            .build()
            .unwrap();
        let report = engine.run(&q).unwrap();
        let cert = report.certificate.unwrap();
        let eps0 = report.scalar().unwrap();
        assert_eq!(cert.passing, eps0);
        let failing = cert.failing.expect("8.0 is far above affordable");
        assert!(eps0 > EPS, "amplification must afford more than ε itself");
        assert!(failing > eps0 && failing <= 8.0);
        // Forward checks at both witnesses, through the public sweep path.
        let fwd = |budget: f64| {
            let mut q2 = q.clone();
            q2.target = QueryTarget::Delta { eps: EPS };
            let q2 = q2.with_local_budget(budget).unwrap();
            engine.run(&q2).unwrap().scalar().unwrap()
        };
        assert!(fwd(eps0) <= DELTA);
        assert!(fwd(failing) > DELTA);
    }

    #[test]
    fn max_local_budget_whole_ceiling_affordable() {
        // At a huge population even the full ceiling passes.
        let engine = AnalysisEngine::new();
        let q = AmplificationQuery::ldp_worst_case(0.5)
            .unwrap()
            .max_local_budget(0.4, 1e-8, 2_000_000)
            .build()
            .unwrap();
        let report = engine.run(&q).unwrap();
        assert_eq!(report.scalar().unwrap(), 0.5);
        let cert = report.certificate.unwrap();
        assert_eq!(cert.failing, None);
        assert_eq!(cert.evaluations, 1, "one probe settles a passing ceiling");
    }

    #[test]
    fn max_local_budget_unachievable_target_is_typed() {
        // ε = 0 with a sub-atomic δ at a tiny population: no positive budget
        // can pass, and the floor probe reports it as unachievable.
        let engine = AnalysisEngine::new();
        let q = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .max_local_budget(0.0, 1e-12, 10)
            .build()
            .unwrap();
        assert!(matches!(engine.run(&q), Err(Error::Unachievable(_))));
    }

    #[test]
    fn sweep_matches_individual_queries_bit_for_bit() {
        let engine = AnalysisEngine::new();
        let template = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(1_000)
            .epsilon_at(DELTA)
            .bound(names::NUMERICAL)
            .build()
            .unwrap();
        let grid = vec![500u64, 2_000, 8_000];
        let axis = SweepAxis::Population(grid.clone());
        assert_eq!(axis.kind(), "n");
        assert_eq!(axis.grid_values(), vec![500.0, 2_000.0, 8_000.0]);
        let swept = engine.sweep(&template, &axis).unwrap();
        assert_eq!(swept.len(), 3);
        for (&n, report) in grid.iter().zip(swept) {
            let direct = engine.run(&template.with_population(n).unwrap()).unwrap();
            assert_eq!(
                report.unwrap().scalar().unwrap().to_bits(),
                direct.scalar().unwrap().to_bits(),
                "sweep drifted at n = {n}"
            );
        }

        let budgets = vec![0.5, 1.0, 2.0];
        let axis = SweepAxis::LocalBudget(budgets.clone());
        assert_eq!(axis.kind(), "eps0");
        let swept = engine.sweep(&template, &axis).unwrap();
        for (&eps0, report) in budgets.iter().zip(swept) {
            let direct = engine
                .run(&template.with_local_budget(eps0).unwrap())
                .unwrap();
            assert_eq!(
                report.unwrap().scalar().unwrap().to_bits(),
                direct.scalar().unwrap().to_bits(),
                "sweep drifted at eps0 = {eps0}"
            );
        }
    }

    #[test]
    fn sweep_can_fan_out_planner_targets() {
        // min-n as a function of the local budget: the planner composes with
        // the sweep on the orthogonal axis.
        let engine = AnalysisEngine::new();
        let template = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .min_population(EPS, DELTA, 256)
            .build()
            .unwrap();
        let swept = engine
            .sweep(&template, &SweepAxis::LocalBudget(vec![0.5, 1.0, 2.0]))
            .unwrap();
        let min_ns: Vec<f64> = swept
            .into_iter()
            .map(|r| r.unwrap().scalar().unwrap())
            .collect();
        // Looser local budgets need more users to reach the same (ε, δ).
        assert!(
            min_ns[0] <= min_ns[1] && min_ns[1] <= min_ns[2],
            "min-n must grow with eps0: {min_ns:?}"
        );
    }

    #[test]
    fn sweep_rejects_grid_and_axis_defects() {
        let engine = AnalysisEngine::new();
        let scalar_q = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(1_000)
            .epsilon_at(DELTA)
            .build()
            .unwrap();
        let curve_q = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(1_000)
            .curve(0.9, 9)
            .build()
            .unwrap();
        let min_n_q = min_n_query(256);
        let max_e0_q = AmplificationQuery::ldp_worst_case(4.0)
            .unwrap()
            .max_local_budget(EPS, DELTA, 1_000)
            .build()
            .unwrap();
        for (template, axis, what) in [
            (&scalar_q, SweepAxis::Population(vec![]), "empty grid"),
            (
                &scalar_q,
                SweepAxis::Population(vec![1; MAX_SWEEP_POINTS + 1]),
                "oversized grid",
            ),
            (&scalar_q, SweepAxis::Population(vec![0]), "n = 0"),
            (&scalar_q, SweepAxis::LocalBudget(vec![0.0]), "eps0 = 0"),
            (
                &scalar_q,
                SweepAxis::LocalBudget(vec![f64::NAN]),
                "NaN eps0",
            ),
            (&curve_q, SweepAxis::Population(vec![10]), "curve template"),
            (
                &min_n_q,
                SweepAxis::Population(vec![10]),
                "min-n over its own axis",
            ),
            (
                &max_e0_q,
                SweepAxis::LocalBudget(vec![1.0]),
                "max-eps0 over its own axis",
            ),
        ] {
            assert!(
                matches!(
                    engine.sweep(template, &axis),
                    Err(Error::InvalidParameter(_))
                ),
                "{what} must be rejected up front"
            );
        }
        // max-eps0 CAN be swept over n (the orthogonal axis).
        let swept = engine
            .sweep(&max_e0_q, &SweepAxis::Population(vec![1_000, 100_000]))
            .unwrap();
        let budgets: Vec<f64> = swept
            .into_iter()
            .map(|r| r.unwrap().scalar().unwrap())
            .collect();
        assert!(
            budgets[0] <= budgets[1],
            "a larger population affords a larger budget: {budgets:?}"
        );
    }

    #[test]
    fn planner_builder_rejections() {
        let base = || AmplificationQuery::ldp_worst_case(1.0).unwrap();
        let invalid = |q: Result<AmplificationQuery>, what: &str| {
            assert!(
                matches!(q, Err(Error::InvalidParameter(_))),
                "{what}: {q:?}"
            );
        };
        // Planner targets conflict with an explicit population.
        invalid(
            base().population(10).min_population(EPS, DELTA, 64).build(),
            "min_population + population",
        );
        invalid(
            base()
                .population(10)
                .max_local_budget(EPS, DELTA, 64)
                .build(),
            "max_local_budget + population",
        );
        // max_local_budget needs a recorded ceiling.
        let wc = VariationRatio::ldp_worst_case(1.0).unwrap();
        invalid(
            AmplificationQuery::params(wc)
                .max_local_budget(EPS, DELTA, 100)
                .build(),
            "max_local_budget without eps0",
        );
        // Hostile planner parameters.
        invalid(base().min_population(EPS, DELTA, 0).build(), "hint 0");
        invalid(
            base()
                .min_population(EPS, DELTA, MAX_PLANNER_POPULATION + 1)
                .build(),
            "hint beyond the cap",
        );
        invalid(base().max_local_budget(EPS, DELTA, 0).build(), "n = 0");
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            invalid(base().min_population(bad, DELTA, 64).build(), "bad eps");
            invalid(base().min_population(EPS, bad, 64).build(), "bad delta");
            invalid(base().max_local_budget(bad, DELTA, 64).build(), "bad eps");
            invalid(base().max_local_budget(EPS, bad, 64).build(), "bad delta");
        }
    }

    /// A planner query under the numerical (0), default (1) or best-of (2)
    /// selection.
    fn plan_query(selection: u64, target: QueryBuilder) -> AmplificationQuery {
        let q = match selection {
            0 => target.bound(names::NUMERICAL),
            2 => target.best_of(),
            _ => target,
        };
        q.build().unwrap()
    }

    /// A `min_n` query on a worst-case `eps0` workload, or on an explicit
    /// `p = ∞` one with residual `beta` at `q = 4`.
    fn min_n_builder(source: Source, eps: f64, delta: f64, hint: u64) -> QueryBuilder {
        let builder = match source {
            Source::WorstCase(eps0) => AmplificationQuery::ldp_worst_case(eps0).unwrap(),
            Source::Unbounded(beta) => {
                AmplificationQuery::params(VariationRatio::new(f64::INFINITY, beta, 4.0).unwrap())
            }
        };
        builder.min_population(eps, delta, hint)
    }

    #[derive(Clone, Copy)]
    enum Source {
        WorstCase(f64),
        Unbounded(f64),
    }

    /// Both searches answer alike: the same value, witness pair, bound name
    /// and validity bit for bit, or the same error.
    fn assert_same_plan(got: Result<PlanValueParts>, want: Result<PlanValueParts>, at: &str) {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                let (QueryValue::Scalar(gv), QueryValue::Scalar(wv)) = (&g.0, &w.0) else {
                    panic!("planner values must be scalars at {at}");
                };
                assert_eq!(gv.to_bits(), wv.to_bits(), "value at {at}: {gv} vs {wv}");
                assert_eq!(g.1, w.1, "bound name at {at}");
                assert_eq!(g.2, w.2, "validity at {at}");
                let (gc, wc) = (g.4.unwrap(), w.4.unwrap());
                assert_eq!(
                    gc.failing.map(f64::to_bits),
                    wc.failing.map(f64::to_bits),
                    "failing witness at {at}: {gc:?} vs {wc:?}"
                );
                assert_eq!(
                    gc.passing.to_bits(),
                    wc.passing.to_bits(),
                    "passing at {at}"
                );
            }
            (Err(g), Err(w)) => assert_eq!(g, w, "error at {at}"),
            (g, w) => panic!("outcome diverged at {at}: {g:?} vs {w:?}"),
        }
    }

    /// Each search on its own fresh engine.
    fn both_min_n(q: &AmplificationQuery) -> (Result<PlanValueParts>, Result<PlanValueParts>) {
        let QueryTarget::MinPopulation {
            eps,
            delta,
            n_hi_hint,
        } = q.target
        else {
            panic!("not a min_n query");
        };
        (
            min_population(&AnalysisEngine::new(), q, eps, delta, n_hi_hint),
            frozen::min_population(&AnalysisEngine::new(), q, eps, delta, n_hi_hint),
        )
    }

    fn both_max_eps0(q: &AmplificationQuery) -> (Result<PlanValueParts>, Result<PlanValueParts>) {
        let QueryTarget::MaxLocalBudget { eps, delta, n } = q.target else {
            panic!("not a max_eps0 query");
        };
        (
            max_local_budget(&AnalysisEngine::new(), q, eps, delta, n),
            frozen::max_local_budget(&AnalysisEngine::new(), q, eps, delta, n),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `min_n` answers bit for bit like the frozen reference search,
        /// across the pad floor (δ down to 1e-13), every hint, and the
        /// numerical, default and best-of selections plus a `p = ∞` source.
        #[test]
        fn min_population_matches_the_frozen_search(
            eps0 in 0.2f64..4.0,
            eps_share in 0.0f64..1.0,
            log10_delta in -13.0f64..-3.0,
            log2_hint in 0.0f64..33.0,
            selection in 0u64..3,
            unbounded in 0u64..4,
        ) {
            let eps = eps0 * (1.0 - eps_share);
            let delta = 10f64.powf(log10_delta);
            let hint = 2f64.powf(log2_hint).round() as u64;
            // One draw in four runs a `p = ∞` source (residual β ∈ [0.2, 0.95]).
            let source = if unbounded == 0 {
                Source::Unbounded(0.2 + 0.75 * eps_share)
            } else {
                Source::WorstCase(eps0)
            };
            let q = plan_query(selection, min_n_builder(source, eps, delta, hint));
            let (got, want) = both_min_n(&q);
            assert_same_plan(got, want, &format!("{q:?}"));
        }

        /// `max_eps0` answers bit for bit like the frozen reference search,
        /// passing-ceiling and unachievable outcomes included.
        #[test]
        fn max_local_budget_matches_the_frozen_search(
            eps0 in 0.2f64..4.0,
            eps_share in 0.0f64..1.0,
            log10_delta in -13.0f64..-3.0,
            log10_n in 1.0f64..5.5,
            selection in 0u64..3,
        ) {
            let eps = eps0 * (1.0 - eps_share);
            let delta = 10f64.powf(log10_delta);
            let n = 10f64.powf(log10_n).round() as u64;
            let target = AmplificationQuery::ldp_worst_case(eps0)
                .unwrap()
                .max_local_budget(eps, delta, n);
            let q = plan_query(selection, target);
            let (got, want) = both_max_eps0(&q);
            assert_same_plan(got, want, &format!("{q:?}"));
        }
    }

    /// The edge outcomes, pinned so a draw cannot miss them: `n = 1`
    /// passing, `min_n` unachievable below the fast scan's pad, a passing
    /// `max_eps0` ceiling and an unachievable `max_eps0`.
    #[test]
    fn planner_edge_outcomes_match_the_frozen_search() {
        for (q, what) in [
            (
                min_n_builder(Source::WorstCase(0.25), 0.3, 1e-9, 128),
                "n = 1 passes",
            ),
            (
                min_n_builder(Source::WorstCase(1.0), 0.5, 1e-13, 1 << 30),
                "below the pad",
            ),
            (
                min_n_builder(Source::Unbounded(0.8), 1.6, 1e-9, 1 << 10),
                "p = ∞",
            ),
            // Found by a 1,500-case run of the property test: δ just above
            // the pad, where certifying a pass by `fast ≤ δ` alone serves a
            // different population.
            (
                min_n_builder(
                    Source::Unbounded(0.916_841_256_942_338_8),
                    0.013_327_544_500_613_875,
                    2.750_191_885_218_712e-13,
                    19_773,
                ),
                "p = ∞ near the pad",
            ),
        ] {
            let (got, want) = both_min_n(&q.bound(names::NUMERICAL).build().unwrap());
            if what == "below the pad" {
                assert!(matches!(want, Err(Error::Unachievable(_))), "{want:?}");
            }
            assert_same_plan(got, want, what);
        }
        for (eps0, eps, delta, n, what) in [
            (0.5, 0.4, 1e-8, 2_000_000, "ceiling passes"),
            (1.0, 0.0, 1e-12, 10, "unachievable"),
            (8.0, 0.25, 1e-8, 50_000, "interior"),
            // From the same run: certifying a pass by `fast ≤ δ` alone
            // serves a different budget here.
            (
                3.289_420_311_048_622,
                0.718_129_795_923_679_4,
                8.050_122_466_482_681e-10,
                470,
                "interior, pass margin needed",
            ),
        ] {
            let q = AmplificationQuery::ldp_worst_case(eps0)
                .unwrap()
                .max_local_budget(eps, delta, n)
                .bound(names::NUMERICAL)
                .build()
                .unwrap();
            let (got, want) = both_max_eps0(&q);
            match what {
                "ceiling passes" => assert_eq!(want.as_ref().unwrap().4.unwrap().failing, None),
                "unachievable" => assert!(matches!(want, Err(Error::Unachievable(_)))),
                _ => {}
            }
            assert_same_plan(got, want, what);
        }
    }

    /// Scan modes other than the default: a coarser scan credits up to its
    /// tail mass for an outer window that moves with `n` and `ε₀`, so its
    /// probe is not monotone to within the certification margin and the
    /// searches replay unpruned; `Full` credits nothing and stays pruned.
    /// The coarse points diverged from the reference when the margin
    /// ignored the scan mode (found by a 200-query run over tail masses in
    /// `[1e-12, 1e-6]`).
    #[test]
    fn planner_searches_under_other_scan_modes_match_the_frozen_search() {
        let opts = |tail_mass: Option<f64>| SearchOptions {
            iterations: 40,
            mode: tail_mass.map_or(ScanMode::Full, |tail_mass| ScanMode::Truncated {
                tail_mass,
            }),
        };
        for (eps0, eps, delta, hint, tail_mass) in [
            (
                1.724_515_533_143_038_4,
                0.002_850_805_823_375_688,
                1.304_957_563_816_044_9e-8,
                507,
                Some(3.511_243_736_242_586e-9),
            ),
            (
                2.299_225_935_748_617,
                1.608_760_495_536_877_7,
                1.832_089_544_059_628e-9,
                12_185,
                Some(2.356_448_320_195_454_5e-9),
            ),
            (
                2.195_486_180_338_696_7,
                1.115_387_261_706_102_5,
                2.024_343_622_186_463_4e-10,
                184,
                Some(7.219_287_680_086_459e-11),
            ),
            (1.0, 0.3, 1e-8, DEFAULT_N_HI_HINT, None),
        ] {
            let q = min_n_builder(Source::WorstCase(eps0), eps, delta, hint)
                .bound(names::NUMERICAL)
                .search_options(opts(tail_mass))
                .build()
                .unwrap();
            let (got, want) = both_min_n(&q);
            assert_same_plan(got, want, &format!("{q:?}"));
        }
        for (eps0, eps, delta, n, tail_mass) in [
            (
                2.655_540_079_815_063_7,
                0.551_658_205_943_670_9,
                1.736_173_770_439_957_4e-10,
                471,
                Some(2.647_357_330_158_515e-10),
            ),
            (
                0.586_645_866_153_434_4,
                0.012_392_671_664_980_431,
                5.669_816_592_684_749e-10,
                657,
                Some(2.763_728_625_793_191_2e-9),
            ),
            (8.0, 0.25, 1e-8, 50_000, None),
        ] {
            let q = AmplificationQuery::ldp_worst_case(eps0)
                .unwrap()
                .max_local_budget(eps, delta, n)
                .bound(names::NUMERICAL)
                .search_options(opts(tail_mass))
                .build()
                .unwrap();
            let (got, want) = both_max_eps0(&q);
            assert_same_plan(got, want, &format!("{q:?}"));
        }
    }

    /// Per-query work of both searches on fresh engines, over the planner
    /// benchmark's query shapes: 11 `min_n` (ε₀ ∈ [0.5, 2.5], ε ∈ [0.1,
    /// 0.5], hint 2²⁰) and 4 `max_eps0` (ceiling 8, n ∈ [2·10⁴, 2·10⁵])
    /// at δ = 1e-8, plus a `min_n` at δ = 1e-12, where the fast scan's
    /// envelope is a quarter of δ. Machine-independent counts: probes
    /// (certificate `evaluations`) and evaluator tables built.
    #[test]
    fn planner_probe_counts_are_pinned() {
        let numerical = |eps0: f64| {
            AmplificationQuery::ldp_worst_case(eps0)
                .unwrap()
                .bound(names::NUMERICAL)
        };
        let mut queries: Vec<AmplificationQuery> = (0..11)
            .map(|i| {
                let eps = 0.1 + 0.04 * f64::from((3 * i) % 11);
                numerical(0.5 + 0.2 * f64::from(i))
                    .min_population(eps, 1e-8, DEFAULT_N_HI_HINT)
                    .build()
                    .unwrap()
            })
            .collect();
        for (j, n) in [200_000u64, 20_000, 140_000, 80_000]
            .into_iter()
            .enumerate()
        {
            let eps = 0.1 + 0.4 * j as f64 / 3.0;
            queries.push(
                numerical(8.0)
                    .max_local_budget(eps, 1e-8, n)
                    .build()
                    .unwrap(),
            );
        }
        queries.push(
            numerical(1.0)
                .min_population(0.3, 1e-12, DEFAULT_N_HI_HINT)
                .build()
                .unwrap(),
        );
        // Both searches on a fresh engine: (probes, evaluator tables built).
        let run = |q: &AmplificationQuery, frozen_search: bool| {
            let engine = AnalysisEngine::new();
            let parts = match (q.target.clone(), frozen_search) {
                (
                    QueryTarget::MinPopulation {
                        eps,
                        delta,
                        n_hi_hint,
                    },
                    false,
                ) => min_population(&engine, q, eps, delta, n_hi_hint),
                (
                    QueryTarget::MinPopulation {
                        eps,
                        delta,
                        n_hi_hint,
                    },
                    true,
                ) => frozen::min_population(&engine, q, eps, delta, n_hi_hint),
                (QueryTarget::MaxLocalBudget { eps, delta, n }, false) => {
                    max_local_budget(&engine, q, eps, delta, n)
                }
                (QueryTarget::MaxLocalBudget { eps, delta, n }, true) => {
                    frozen::max_local_budget(&engine, q, eps, delta, n)
                }
                _ => panic!("not a planner query"),
            };
            let cert = parts.unwrap().4.unwrap();
            (cert.evaluations, engine.build_stats().tables_built)
        };
        // The reference search: 23 probes (22 tables) per `min_n` from the
        // default hint, 42 per `max_eps0`.
        const EVALUATIONS_BEFORE: u32 = 444;
        const TABLES_BUILT_BEFORE: u64 = 432;
        const EVALUATIONS: u32 = 258;
        const TABLES_BUILT: u64 = 258;
        let (mut evaluations, mut tables) = (0, 0);
        let (mut evaluations_before, mut tables_before) = (0, 0);
        for q in &queries {
            let (e, t) = run(q, false);
            let (e_ref, t_ref) = run(q, true);
            assert!(
                e <= e_ref + vr_numerics::search::PREPASS_PROBES,
                "{q:?}: {e} probes against the reference's {e_ref}"
            );
            (evaluations, tables) = (evaluations + e, tables + t);
            (evaluations_before, tables_before) =
                (evaluations_before + e_ref, tables_before + t_ref);
        }
        assert_eq!(
            (evaluations_before, tables_before),
            (EVALUATIONS_BEFORE, TABLES_BUILT_BEFORE)
        );
        assert_eq!(
            (evaluations, tables),
            (EVALUATIONS, TABLES_BUILT),
            "planner work moved ({EVALUATIONS_BEFORE} probes, {TABLES_BUILT_BEFORE} tables \
             before the certified replay)"
        );
    }
}
