//! The numerical amplification accountant: Theorem 4.8 (hockey-stick
//! divergence of the dominating pair as a binomial expectation) and
//! Algorithm 1 (binary search for the amplified ε).
//!
//! # Theorem 4.8 in computable form
//!
//! With `α = β/(p−1)`, `pα = βp/(p−1)`, `r = pα/q` and
//! `c ~ Binom(n−1, 2r)`:
//!
//! ```text
//! D_{e^ε}(P‖Q) = E_c [  (p − e^ε)α      · CDF_{c,1/2}[⌈low(c+1)⌉ − 1, c]
//!                     + (1 − p·e^ε)α    · CDF_{c,1/2}[⌈low(c+1)⌉,     c]
//!                     + (1 − e^ε)(1−α−pα) · CDF_{c,1/2}[⌈low(c)⌉,     c] ]
//! low(t) = ((e^ε·p − 1)α·t + (e^ε − 1)(1−α−pα)(n−t)·r/(1−2r))
//!          / (α(e^ε + 1)(p − 1))
//! ```
//!
//! All coefficients are evaluated through the `p = ∞`-safe forms
//! `(p − e^ε)α = pα − e^ε·α` and `α(p−1) = β`, so multi-message protocols
//! (Table 4) go through the same code path.
//!
//! # Scan modes
//!
//! * [`ScanMode::Full`] — the paper's `c ∈ [0, n−1]` loop: `Õ(n)` with three
//!   binomial tail evaluations per term.
//! * [`ScanMode::Truncated`] — restricts the loop to the effective support of
//!   `Binom(n−1, 2r)` and **adds** the exactly-measured neglected mass to the
//!   result. Every summand of the expectation lies in `[0, 1]`, so the output
//!   is still a rigorous upper bound on the divergence while the complexity
//!   drops to `Õ(√(n·r))`. This is the crate default.
//!
//! Both modes return upper bounds on the dominating-pair divergence; `Full`
//! is marginally tighter (by at most the configured tail mass).
//!
//! # Memoization: [`DeltaEvaluator`] and its `ScanMode` interaction
//!
//! Every `Delta(ε)` query scans the same outer distribution
//! `c ~ Binom(n−1, 2r)`: only the inner thresholds depend on `ε`. A
//! [`DeltaEvaluator`] therefore precomputes the outer support bracket and
//! pmf table **once** and reuses them across every query it answers — the
//! Algorithm-1 binary search ([`DeltaEvaluator::epsilon`]) and whole
//! privacy-curve grids ([`crate::PrivacyCurve`]) — where the one-shot
//! [`Accountant::try_delta`] path rebuilds them per call.
//!
//! The memoized table is a function of `(p, β, q, n, ScanMode)`: the scan
//! mode fixes which outer support is enumerated (`Full` memoizes the whole
//! f64-representable support; `Truncated { tail_mass }` the `1 − tail_mass`
//! bracket) and how much neglected mass is credited back. An evaluator is
//! thus **bound to the mode it was built with** — querying a different mode
//! requires a new evaluator; [`Accountant::try_delta`] keeps accepting a mode
//! per call by constructing an ephemeral evaluator internally. For one fixed
//! mode the memoized exact scan is bit-identical to the one-shot path
//! (identical table values, identical kernel).
//!
//! # The staged scan pipeline
//!
//! Both scans run as **staged array passes** over the memoized window
//! rather than interleaved per-`c` work, so each stage is a tight loop the
//! autovectorizer can see:
//!
//! 1. **Threshold precompute** (`fill_thresholds`) — one contiguous
//!    `i64` array of `⌈low(t)⌉` for the whole scanned window, with every
//!    workload scalar hoisted out of the loop. Entry `i`'s `low(c+1)` *is*
//!    entry `i+1`'s `low(c)`, so the array also halves the threshold work
//!    the seed implementation did per entry. Each value is bit-identical
//!    to the scalar reference `low_threshold`.
//! 2. **Tail pass** — consumes the threshold array.
//!    `scan_exact` folds the paper-verbatim three-tails-per-`c` sum in
//!    the seed's sequential order (one validated [`Binomial`] re-trialed
//!    per `c`, the duplicate `t_cur == t_next` tail deduplicated — both
//!    return the very same values, keeping the output **bit-identical** to
//!    the seed scan). `scan_fast` keeps the Pascal/bridge recurrence
//!    (`P[X_{c+1} ≥ t] = P[X_c ≥ t] + ½·pmf_c(t−1)`, pmf steps for
//!    threshold moves) but plans the whole window first and then evaluates
//!    the exact-beta **re-anchor tails as one batch** — through the
//!    lane-parallel incomplete-beta kernel (`vr_numerics::reg_inc_beta_fast`),
//!    whose few-ulp error is absorbed by the pad below.
//! 3. **Weighted reduce** — combines
//!    `w·(coef_p0·s0 + coef_p1·s1 + coef_rest·s2)` over the staged tail
//!    arrays; the fast scan reduces in fixed-size lane chunks, the exact
//!    scan keeps the seed's fold order (reassociation is what the pad
//!    pays for, and the exact scan has no pad).
//!
//! Certification envelope: the fast scan re-anchors on exact(-grade) tails
//! every `ANCHOR_PERIOD` steps so accumulated bridging round-off stays
//! far below `FAST_SCAN_PAD` (`2e-13`), which is added so the result
//! remains a rigorous upper bound; relative to the exact scan it satisfies
//! `exact ≤ fast ≤ exact + 2.5e-13` (`FAST_CERT_GUARD`, asserted across
//! workloads by `fast_scan_dominates_and_tracks_exact_scan` and the
//! `staged_thresholds_*` property tests, and old-vs-new by
//! `benches/scan_kernel.rs`). `delta_fast` is the engine behind parallel
//! curve sampling and the planner's feasibility probes: several times
//! faster per point than the exact scan and within `2.5e-13` of it.
//!
//! # Bracket-pruned Algorithm 1
//!
//! [`DeltaEvaluator::epsilon_amortized`] reproduces the reference
//! bisection's decisions bit for bit while scanning for few of them. A
//! false-position pre-pass of at most 16 fast scans pins a bracket around
//! the root whose ends are certified with one more guard of margin than
//! the envelope above (`lo_c` needs `fast − 2·G > δ`, `hi_c` needs
//! `fast + G ≤ δ`, `G = FAST_CERT_GUARD`). The reference bisection is then
//! replayed: midpoints outside the bracket are decided by monotonicity
//! with no scan, and the margin keeps the exact scan's own rounding from
//! disagreeing with such a decision. On the serving benchmark's warm
//! evaluators a query drops from 41 fast scans to about 12.6, and 22–23 of
//! its 40 decisions need no scan (`pruned_search_scan_counts_are_pinned`).
//!
//! # Faithfulness & a documented caveat
//!
//! This module reproduces the paper's Theorem 4.8 / Algorithm 1 verbatim and
//! is validated to ~1e-9 against exact enumeration of the dominating pair.
//! Our exact small-`n` shuffled ground truth (see `vr-protocols::exact`)
//! shows that the *paper's* generalized reduction can undercut the true
//! shuffled divergence by a few percent when mechanism residual components
//! differ across users (pinned by `vr-protocols`'
//! `exact::tests::generalized_reduction_gap_is_small_and_pinned`); at the
//! worst-case β the reduction is the proven stronger-clone bound and is
//! sound unconditionally.

use crate::bound::{check_eps, AmplificationBound, Validity};
use crate::error::{Error, Result};
use crate::params::VariationRatio;
use std::sync::Arc;
use vr_numerics::search::{bisect_monotone, exponential_upper_bracket};
use vr_numerics::Binomial;

/// How the outer expectation over `c ~ Binom(n−1, 2r)` is evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScanMode {
    /// Scan every `c ∈ [0, n−1]` (the paper's algorithm, `Õ(n)`).
    Full,
    /// Scan only the effective support, adding the neglected binomial mass to
    /// the divergence so the result stays a valid upper bound.
    Truncated {
        /// Maximum binomial mass allowed outside the scanned range.
        tail_mass: f64,
    },
}

impl Default for ScanMode {
    fn default() -> Self {
        // Three orders below the smallest δ targeted by the paper's
        // experiments; contributes invisibly to the reported ε.
        ScanMode::Truncated { tail_mass: 1e-14 }
    }
}

/// Options for the ε-search of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchOptions {
    /// Number of binary-search iterations `T` (the paper evaluates 10 / 20;
    /// 40 pins ε to ~12 significant digits).
    pub iterations: usize,
    /// Evaluation mode for each `Delta(ε)` call.
    pub mode: ScanMode,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            iterations: 40,
            mode: ScanMode::default(),
        }
    }
}

/// Privacy-amplification accountant for `n` users whose local randomizers
/// satisfy the `(p, β)`-variation and `q`-ratio properties.
#[derive(Debug, Clone, Copy)]
pub struct Accountant {
    vr: VariationRatio,
    n: u64,
}

impl Accountant {
    /// Create an accountant for a population of `n ≥ 1` users (the victim
    /// included — `n − 1` messages contribute clones).
    pub fn new(vr: VariationRatio, n: u64) -> Result<Self> {
        if n == 0 {
            return Err(Error::InvalidParameter("population n must be >= 1".into()));
        }
        Ok(Self { vr, n })
    }

    /// The parameter set being accounted.
    pub fn params(&self) -> &VariationRatio {
        &self.vr
    }

    /// Population size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Upper bound on `D_{e^ε}(S∘R(X) ‖ S∘R(X'))` — Theorem 4.8 evaluated in
    /// the requested scan mode. By the symmetry of the dominating pair this
    /// simultaneously bounds both divergence directions. Rejects negative or
    /// NaN `eps` with [`Error::InvalidParameter`]; there is deliberately no
    /// panicking twin — every caller sits on a wire-reachable path, and the
    /// panic-reach lint pass treats "documented `# Panics`" as an outage.
    ///
    /// One-shot path: builds the outer table per call. Amortize repeated
    /// queries with a [`DeltaEvaluator`] (bit-identical results).
    pub fn try_delta(&self, eps: f64, mode: ScanMode) -> Result<f64> {
        check_eps(eps)?;
        // Cheap exits before the O(n) table build: degenerate parameters and
        // ε ≥ ln p need no scan (same answers the evaluator would produce).
        if self.vr.is_degenerate() || ScanCoefs::new(&self.vr, eps).is_none() {
            return Ok(0.0);
        }
        DeltaEvaluator::new(*self, mode).try_delta(eps)
    }

    /// Algorithm 1: smallest `ε` (up to bisection resolution) such that the
    /// shuffled outputs are `(ε, δ)`-indistinguishable. Returns the feasible
    /// (upper) end of the final bracket, so the result is always a valid
    /// `(ε, δ)` guarantee.
    pub fn epsilon(&self, delta: f64, opts: SearchOptions) -> Result<f64> {
        DeltaEvaluator::new(*self, opts.mode).epsilon(delta, opts.iterations)
    }

    /// Convenience wrapper: `epsilon` with default options.
    pub fn epsilon_default(&self, delta: f64) -> Result<f64> {
        self.epsilon(delta, SearchOptions::default())
    }
}

/// The memoized outer expectation: support bracket and pmf weights of
/// `c ~ Binom(n−1, 2r)` under one [`ScanMode`], plus the exactly-measured
/// mass bookkeeping the truncation credit needs.
#[derive(Debug, Clone)]
struct OuterTable {
    c_lo: u64,
    weights: Vec<f64>,
    /// Σ of `weights` in enumeration order (same fold the scan performed
    /// before memoization, so results stay bit-identical).
    scanned_mass: f64,
    neglected_budget: f64,
}

impl OuterTable {
    /// Build the memoized outer table, optionally warm-starting the support
    /// search from a nearby window (see [`Binomial::support_window`]: the
    /// bracket is hint-independent, only the probe count changes). Returns
    /// the table and the number of incomplete-beta probes the search spent.
    fn build(vr: &VariationRatio, n: u64, mode: ScanMode, hint: Option<(u64, u64)>) -> (Self, u32) {
        let two_r = (2.0 * vr.r()).min(1.0);
        let outer = Binomial::new(n - 1, two_r);
        let (window, neglected_budget) = match mode {
            // "Full" evaluates every term that is representable in f64: the
            // scan is limited to the support carrying all but 1e-300 of the
            // binomial mass (everything outside has pmf values that underflow
            // to zero and would be skipped by any double-precision
            // implementation), and that 1e-300 is credited to the result.
            ScanMode::Full => (outer.support_window(1e-300, hint), 1e-300),
            ScanMode::Truncated { tail_mass } => (
                outer.support_window(tail_mass.max(0.0), hint),
                tail_mass.max(0.0),
            ),
        };
        let (c_lo, c_hi) = (window.lo, window.hi);
        let weights = outer.weights_in(c_lo, c_hi);
        let scanned_mass = weights.iter().sum();
        (
            Self {
                c_lo,
                weights,
                scanned_mass,
                neglected_budget,
            },
            window.probes,
        )
    }
}

/// Construction-cost accounting returned by
/// [`DeltaEvaluator::with_support_hint`] so callers (the engine cache, the
/// benches) can prove where table-build time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvaluatorBuildStats {
    /// Incomplete-beta probes spent bracketing the outer support
    /// (0 for degenerate workloads, which build no table).
    pub support_probes: u32,
    /// Whether a warm-start hint was supplied for the support search.
    pub hinted: bool,
}

/// A memoized `Delta(ε)` evaluator: one [`Accountant`] at one [`ScanMode`],
/// with the outer `Binom(n−1, 2r)` table precomputed at construction and
/// reused across every query (see the module docs for the
/// `ScanMode`/memoization interaction).
///
/// [`DeltaEvaluator::try_delta`] is bit-identical to [`Accountant::try_delta`]
/// at the same mode; [`DeltaEvaluator::delta_fast`] trades ≤ `2e-13` of
/// tightness for roughly an order of magnitude in speed.
#[derive(Debug, Clone)]
pub struct DeltaEvaluator {
    acc: Accountant,
    mode: ScanMode,
    /// `None` when the parameters are degenerate (`β = 0`: divergence 0).
    table: Option<OuterTable>,
}

/// Exact-tail re-anchor period of the fast scan: bridged tails accumulate at
/// most ~`ANCHOR_PERIOD · MAX_BRIDGE` ulp-scale errors before being reset.
const ANCHOR_PERIOD: u32 = 32;
/// Largest threshold move bridged with pmf steps; larger jumps re-anchor.
const MAX_BRIDGE: i64 = 8;
/// Deterministic pad added by the fast scan so its result dominates the
/// exact scan despite bridging round-off (bounded well below this).
const FAST_SCAN_PAD: f64 = 2e-13;
/// Certified envelope of the fast scan relative to the exact scan:
/// `exact ≤ fast ≤ exact + FAST_CERT_GUARD` (the pad plus its bridging
/// slack; asserted across the parameter grid by
/// `fast_scan_dominates_and_tracks_exact_scan`). The amortized ε-search
/// trusts a fast-scan comparison only when it is decisive under this
/// envelope, and certifies a pruning bracket end only with one more guard
/// of margin (see [`DeltaEvaluator::epsilon_amortized`]).
const FAST_CERT_GUARD: f64 = 2.5e-13;

impl DeltaEvaluator {
    /// Build the evaluator, memoizing the outer table for `mode`.
    pub fn new(acc: Accountant, mode: ScanMode) -> Self {
        Self::with_support_hint(acc, mode, None).0
    }

    /// [`DeltaEvaluator::new`] with a warm-start hint for the outer support
    /// search — typically [`DeltaEvaluator::support_window`] of the same
    /// workload at a nearby population, shifted by the mean drift. The built
    /// table is identical for every hint (the support bracket is the unique
    /// answer of monotone predicates); only the probe count in the returned
    /// [`EvaluatorBuildStats`] changes. This is what lets the planner's
    /// monotone probe sequences amortize their per-candidate table builds.
    pub fn with_support_hint(
        acc: Accountant,
        mode: ScanMode,
        hint: Option<(u64, u64)>,
    ) -> (Self, EvaluatorBuildStats) {
        let (table, support_probes) = if acc.vr.is_degenerate() {
            (None, 0)
        } else {
            let (t, probes) = OuterTable::build(&acc.vr, acc.n, mode, hint);
            (Some(t), probes)
        };
        (
            Self { acc, mode, table },
            EvaluatorBuildStats {
                support_probes,
                hinted: hint.is_some(),
            },
        )
    }

    /// The memoized outer support window `(c_lo, c_hi)`, or `None` for
    /// degenerate workloads. Feed it (mean-shifted) back into
    /// [`DeltaEvaluator::with_support_hint`] when building the same workload
    /// at a nearby population.
    pub fn support_window(&self) -> Option<(u64, u64)> {
        self.table
            .as_ref()
            .map(|t| (t.c_lo, t.c_lo + (t.weights.len() as u64 - 1)))
    }

    /// The accountant this evaluator answers for.
    pub fn accountant(&self) -> &Accountant {
        &self.acc
    }

    /// The scan mode the memoized table was built for.
    pub fn mode(&self) -> ScanMode {
        self.mode
    }

    /// Number of memoized outer-table entries (0 for degenerate workloads)
    /// — the footprint proxy the engine's cache-size accounting uses: the
    /// weights table dominates an evaluator's memory.
    pub fn table_entries(&self) -> usize {
        self.table.as_ref().map_or(0, |t| t.weights.len())
    }

    /// Theorem 4.8 over the memoized table — bit-identical to
    /// [`Accountant::try_delta`] at this evaluator's mode.
    pub fn try_delta(&self, eps: f64) -> Result<f64> {
        check_eps(eps)?;
        Ok(self.delta_unchecked(eps))
    }

    /// Like [`DeltaEvaluator::try_delta`] but with the incremental-tail scan:
    /// still a rigorous upper bound (a `2e-13` pad dominates the bridging
    /// round-off) and within `≤ 2.5e-13` of the exact scan. This is the
    /// kernel parallel curve sampling uses.
    pub fn delta_fast(&self, eps: f64) -> Result<f64> {
        check_eps(eps)?;
        let Some(table) = &self.table else {
            return Ok(0.0);
        };
        Ok(scan_fast(&self.acc, table, eps))
    }

    fn delta_unchecked(&self, eps: f64) -> f64 {
        let Some(table) = &self.table else {
            return 0.0;
        };
        scan_exact(&self.acc, table, eps)
    }

    /// Algorithm 1 over the memoized table: smallest `ε` (up to bisection
    /// resolution) with `Delta(ε) ≤ δ`. Identical results to
    /// [`Accountant::epsilon`], minus the per-iteration table rebuilds.
    pub fn epsilon(&self, delta: f64, iterations: usize) -> Result<f64> {
        self.epsilon_search(delta, iterations, &mut |table: &OuterTable, e| {
            scan_exact(&self.acc, table, e) <= delta
        })
    }

    /// The Algorithm-1 search skeleton shared by [`DeltaEvaluator::epsilon`]
    /// and [`DeltaEvaluator::epsilon_amortized`]: δ validation, the
    /// degenerate and already-feasible short-circuits, the `p = ∞`
    /// exponential bracket, and the bisection. Parameterizing only the
    /// feasibility oracle keeps the two searches structurally identical —
    /// which is what the amortized path's bit-identity contract rests on.
    /// The oracle receives the memoized table by reference, so a
    /// degenerate evaluator (no table) short-circuits here and the
    /// oracles stay total.
    fn epsilon_search(
        &self,
        delta: f64,
        iterations: usize,
        oracle: &mut impl Feasibility,
    ) -> Result<f64> {
        if !(0.0..=1.0).contains(&delta) {
            return Err(Error::InvalidParameter(format!(
                "delta must be in [0,1], got {delta}"
            )));
        }
        let Some(table) = &self.table else {
            return Ok(0.0);
        };
        if oracle.feasible(table, 0.0) {
            return Ok(0.0);
        }
        let vr = &self.acc.vr;
        let eps_hi = if vr.p().is_finite() {
            vr.epsilon_limit()
        } else {
            // p = ∞: no a-priori ceiling; bracket exponentially. If even a
            // huge ε cannot push the divergence below δ, the target is
            // unachievable (δ is below the irreducible exposed mass).
            match exponential_upper_bracket(|e| oracle.feasible(table, e), 1.0, 256.0)? {
                Some(hi) => hi,
                None => {
                    return Err(Error::Unachievable(format!(
                        "delta = {delta:e} is below the irreducible divergence of this \
                         multi-message protocol at n = {}",
                        self.acc.n
                    )))
                }
            }
        };
        oracle.prepare(table, eps_hi);
        Ok(bisect_monotone(|e| oracle.feasible(table, e), 0.0, eps_hi, iterations)?.feasible)
    }

    /// [`DeltaEvaluator::epsilon`] with bracket-pruned scanning — the same
    /// bisection decisions, hence a **bit-identical** ε, for a fraction of
    /// the scans. It runs inside the shared search skeleton in three steps:
    ///
    /// 1. **Pre-pass.** Once the search interval is known (`[0, ln p]`, or
    ///    the exponential bracket for `p = ∞`), a false-position search
    ///    (Anderson–Björck variant of Illinois) on `ln fast(ε) − ln δ`
    ///    spends at most 16 fast scans ([`DeltaEvaluator::delta_fast`]) to
    ///    pin a bracket `[lo_c, hi_c]` around the root. Its ends are
    ///    certified *with a margin*: `lo_c` is infeasible because
    ///    `fast − 2·G > δ`, `hi_c` is feasible because `fast + G ≤ δ`
    ///    (`G = 2.5e-13`, the fast scan's certified envelope). When a probe
    ///    lands in the zone between the two, two more probes at
    ///    `z ± 4·G/|dδ/dε|` (secant slope) pin the bracket to it.
    /// 2. **Replay.** The reference bisection runs unchanged; every
    ///    midpoint `≤ lo_c` is decided infeasible and every midpoint
    ///    `≥ hi_c` feasible, with no scan.
    /// 3. **In-bracket midpoints.** Once the bracket is pinned, the
    ///    remaining midpoints go straight to an incremental exact scan
    ///    that shares one scratch state, so each one after the first
    ///    recomputes binomial tails only where the inner thresholds moved.
    ///    Without a pinned bracket a midpoint takes the fast scan first and
    ///    the exact scan only when the fast value is not decisive under
    ///    `exact ≤ fast ≤ exact + G`.
    ///
    /// **Why the replay cannot flip a decision.** Pruning rests on the
    /// divergence being non-increasing in ε. For `m ≥ hi_c`,
    /// `Delta(m) ≤ Delta(hi_c) ≤ fast(hi_c) ≤ δ − G`, and for `m ≤ lo_c`,
    /// `Delta(m) ≥ Delta(lo_c) ≥ fast(lo_c) − G > δ + G`. The exact scan's
    /// value sits within rounding of `Delta`, far below `G`, so it lands on
    /// the same side of `δ` the reference search would.
    ///
    /// This is the ε-kernel behind [`crate::engine::AnalysisEngine`] batch
    /// serving (a warm 64-query sweep at `n = 10^6` runs well over an order
    /// of magnitude faster than one-shot [`Accountant::epsilon`] calls).
    pub fn epsilon_amortized(&self, delta: f64, iterations: usize) -> Result<f64> {
        self.epsilon_counted(delta, iterations).map(|(eps, _)| eps)
    }

    /// [`DeltaEvaluator::epsilon_amortized`] plus the scans it spent.
    fn epsilon_counted(&self, delta: f64, iterations: usize) -> Result<(f64, SearchWork)> {
        let mut oracle = PrunedSearch::new(&self.acc, delta);
        let eps = self.epsilon_search(delta, iterations, &mut oracle)?;
        Ok((eps, oracle.work))
    }
}

/// The feasibility oracle `Delta(ε) ≤ δ` that
/// [`DeltaEvaluator::epsilon_search`] drives. Every closure over the table
/// is one (the reference search's exact scan); [`PrunedSearch`] adds a
/// pre-pass.
trait Feasibility {
    /// Called once with the bisection interval's feasible end, right before
    /// the bisection runs on `[0, eps_hi]`.
    fn prepare(&mut self, _table: &OuterTable, _eps_hi: f64) {}

    /// The decision `Delta(eps) ≤ δ`.
    fn feasible(&mut self, table: &OuterTable, eps: f64) -> bool;
}

impl<F: FnMut(&OuterTable, f64) -> bool> Feasibility for F {
    fn feasible(&mut self, table: &OuterTable, eps: f64) -> bool {
        self(table, eps)
    }
}

/// Scans one amortized ε-search spent. Deterministic, so tests can pin
/// them exactly.
#[derive(Debug, Default)]
struct SearchWork {
    /// Fast scans: pre-pass probes and unpinned decisions.
    fast: u32,
    /// Exact evaluations (the first full, later ones incremental).
    exact: u32,
    /// Decisions settled by the certified bracket, with no scan.
    pruned: u32,
}

/// Fast-scan budget of the amortized ε-search's pre-pass: false-position
/// probes plus the two probes that pin the bracket to the envelope zone.
const PREPASS_PROBES: u32 = 16;

/// The oracle behind [`DeltaEvaluator::epsilon_amortized`]: the bracket
/// pre-pass, margin-certified pruning, and the fast/exact decision rule.
struct PrunedSearch<'a> {
    acc: &'a Accountant,
    delta: f64,
    /// Largest probe certified infeasible (`fast − 2·G > δ`); `−∞` until one is.
    lo_c: f64,
    /// Smallest probe certified feasible (`fast + G ≤ δ`); `+∞` until one is.
    hi_c: f64,
    /// The latest probes with `fast > δ` and with `fast ≤ δ`, as
    /// `(ε, ln fast − ln δ)`: where the pre-pass's false position starts.
    above: Option<(f64, f64)>,
    below: Option<(f64, f64)>,
    /// The previous probe `(ε, ln fast)`, for secant slopes.
    last: Option<(f64, f64)>,
    /// A probe inside the envelope zone and the slope `|dδ/dε|` there.
    zone: Option<(f64, f64)>,
    /// Set once the pre-pass has pinned the bracket to the zone.
    pinned: bool,
    /// Built by the first exact evaluation.
    scratch: Option<ExactScanScratch>,
    work: SearchWork,
}

impl<'a> PrunedSearch<'a> {
    fn new(acc: &'a Accountant, delta: f64) -> Self {
        Self {
            acc,
            delta,
            lo_c: f64::NEG_INFINITY,
            hi_c: f64::INFINITY,
            above: None,
            below: None,
            last: None,
            zone: None,
            pinned: false,
            scratch: None,
            work: SearchWork::default(),
        }
    }

    /// One fast scan at `eps`: certifies a bracket end when the value is
    /// decisive with margin, else records the zone probe, and moves the
    /// false-position end on its side of `δ`.
    fn probe(&mut self, table: &OuterTable, eps: f64) -> f64 {
        let fast = scan_fast(self.acc, table, eps);
        self.work.fast += 1;
        let ln_fast = fast.ln();
        if fast - 2.0 * FAST_CERT_GUARD > self.delta {
            self.lo_c = self.lo_c.max(eps);
        } else if fast + FAST_CERT_GUARD <= self.delta {
            self.hi_c = self.hi_c.min(eps);
        } else {
            let slope = self.last.map_or(f64::NAN, |(x, lf)| {
                fast * ((ln_fast - lf) / (eps - x)).abs()
            });
            self.zone = Some((eps, slope));
        }
        self.last = Some((eps, ln_fast));
        let end = Some((eps, ln_fast - self.delta.ln()));
        if fast > self.delta {
            self.above = end;
        } else {
            self.below = end;
        }
        fast
    }

    /// Exact `Delta(eps) ≤ δ` through the shared incremental scratch.
    fn exact(&mut self, table: &OuterTable, eps: f64) -> bool {
        self.work.exact += 1;
        let scratch = self
            .scratch
            .get_or_insert_with(|| ExactScanScratch::new(table.weights.len()));
        scratch.delta(self.acc, table, eps) <= self.delta
    }
}

impl Feasibility for PrunedSearch<'_> {
    fn prepare(&mut self, table: &OuterTable, eps_hi: f64) {
        // False position between the nearest probes on either side of δ
        // (the search interval's ends until probes exist). When the same
        // end moves twice running, the stale end's value is scaled down
        // (Anderson–Björck), which keeps the steps superlinear on the
        // strongly curved ln Delta(ε).
        let (mut a, mut ga) = self.above.unwrap_or((0.0, f64::INFINITY));
        let (mut b, mut gb) = self.below.unwrap_or((eps_hi, f64::NEG_INFINITY));
        // Which end the previous step moved (`true`: the `fast > δ` end).
        let mut moved_above = None;
        // Two probes of the budget stay reserved for pinning below.
        for _ in 0..PREPASS_PROBES - 2 {
            if self.zone.is_some() {
                break;
            }
            let mid = 0.5 * (a + b);
            let secant = b - gb * (b - a) / (gb - ga);
            let x = if secant > a && secant < b {
                secant
            } else {
                mid
            };
            if !(x > a && x < b) {
                break;
            }
            let fast = self.probe(table, x);
            let g = fast.ln() - self.delta.ln();
            if fast > self.delta {
                if moved_above == Some(true) {
                    let m = 1.0 - g / ga;
                    gb *= if m > 0.0 { m } else { 0.5 };
                }
                (a, ga) = (x, g);
                moved_above = Some(true);
            } else {
                if moved_above == Some(false) {
                    let m = 1.0 - g / gb;
                    ga *= if m > 0.0 { m } else { 0.5 };
                }
                (b, gb) = (x, g);
                moved_above = Some(false);
            }
        }
        // Pin the bracket to the zone: each side's probe lands ~4·G of δ
        // beyond the zone (whose width is 3·G), so it certifies that side
        // unless the certified end there is already as close.
        if let Some((z, slope)) = self.zone {
            let h = 4.0 * FAST_CERT_GUARD / slope;
            if h.is_finite() && h > 0.0 {
                if self.lo_c < z - 2.0 * h {
                    self.probe(table, z - h);
                }
                if self.hi_c > z + 2.0 * h {
                    self.probe(table, z + h);
                }
                self.pinned = true;
            }
        }
    }

    fn feasible(&mut self, table: &OuterTable, eps: f64) -> bool {
        if eps <= self.lo_c || eps >= self.hi_c {
            self.work.pruned += 1;
            return eps >= self.hi_c;
        }
        if self.pinned {
            return self.exact(table, eps);
        }
        let fast = self.probe(table, eps);
        if fast <= self.delta {
            true // fast dominates exact, so exact ≤ δ too.
        } else if fast - FAST_CERT_GUARD > self.delta {
            false // even exact = fast − guard would exceed δ.
        } else {
            self.exact(table, eps)
        }
    }
}

/// Per-`c` state of an incrementally-updated exact scan: the inner
/// thresholds and the three binomial tails of the last evaluation. A new ε
/// recomputes tails only where `⌈low(c)⌉`/`⌈low(c+1)⌉` moved — for the
/// tightly-clustered midpoints of a bisection endgame that is a small
/// fraction of the support — then refolds the Theorem 4.8 sum in the exact
/// enumeration order, so the value is bit-identical to [`scan_exact`].
struct ExactScanScratch {
    valid: bool,
    t_next: Vec<i64>,
    t_cur: Vec<i64>,
    s0: Vec<f64>,
    s1: Vec<f64>,
    s2: Vec<f64>,
}

impl ExactScanScratch {
    fn new(len: usize) -> Self {
        Self {
            valid: false,
            t_next: vec![0; len],
            t_cur: vec![0; len],
            s0: vec![0.0; len],
            s1: vec![0.0; len],
            s2: vec![0.0; len],
        }
    }

    /// Theorem 4.8 at `eps`, bit-identical to [`scan_exact`] over the same
    /// table (same tails from the same [`upper_tail`] calls, same fold
    /// order), reusing every tail whose thresholds did not move.
    #[expect(
        clippy::indexing_slicing,
        reason = "every index is inside the table window (`thr` is built with len + 1 entries, scratch arrays with len)"
    )]
    fn delta(&mut self, acc: &Accountant, table: &OuterTable, eps: f64) -> f64 {
        let vr = &acc.vr;
        let Some(co) = ScanCoefs::new(vr, eps) else {
            return 0.0;
        };
        let thr = fill_thresholds(vr, acc.n, co.ee, table.c_lo, table.weights.len() + 1);
        let fair = Binomial::new(0, 0.5);
        for (i, &w) in table.weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let c = table.c_lo + i as u64;
            let t_next = thr[i + 1];
            let t_cur = thr[i];
            if self.valid && self.t_next[i] == t_next && self.t_cur[i] == t_cur {
                continue;
            }
            let inner = fair.with_trials(c);
            let s1 = upper_tail(&inner, t_next);
            let s0 = if (1..=c as i64 + 1).contains(&t_next) {
                s1 + inner.pmf((t_next - 1) as u64)
            } else {
                upper_tail(&inner, t_next - 1)
            };
            // Same deduplication as `scan_exact`: identical arguments,
            // identical incomplete-beta value.
            let s2 = if t_cur == t_next {
                s1
            } else {
                upper_tail(&inner, t_cur)
            };
            self.t_next[i] = t_next;
            self.t_cur[i] = t_cur;
            self.s0[i] = s0;
            self.s1[i] = s1;
            self.s2[i] = s2;
        }
        self.valid = true;
        let mut sum = 0.0;
        for (i, &w) in table.weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            sum +=
                w * (co.coef_p0 * self.s0[i] + co.coef_p1 * self.s1[i] + co.coef_rest * self.s2[i]);
        }
        let neglected = (1.0 - table.scanned_mass)
            .max(0.0)
            .min(table.neglected_budget.max(1e-300));
        (sum + neglected).clamp(0.0, 1.0)
    }
}

/// The ε-dependent pieces of the Theorem 4.8 summand shared by both scans.
struct ScanCoefs {
    coef_p0: f64,
    coef_p1: f64,
    coef_rest: f64,
    ee: f64,
}

impl ScanCoefs {
    /// `None` when `ε ≥ ln p` (the randomizer alone provides the level).
    fn new(vr: &VariationRatio, eps: f64) -> Option<Self> {
        let ee = eps.exp();
        // Coefficients of the three victim components (p = ∞ safe):
        // (p − e^ε)α = pα − e^ε·α ; (1 − p·e^ε)α = α − e^ε·pα ;
        // (1 − e^ε)(1 − α − pα).
        let coef_p0 = vr.p_alpha() - ee * vr.alpha();
        if coef_p0 <= 0.0 {
            return None;
        }
        Some(Self {
            coef_p0,
            coef_p1: vr.alpha() - ee * vr.p_alpha(),
            coef_rest: (1.0 - ee) * vr.non_differing(),
            ee,
        })
    }
}

/// `low(t)`: the ratio P/Q exceeds `e^ε` exactly for `a > low(t)` at total
/// count `t` (Appendix E). Denominator `α(e^ε+1)(p−1) = β(e^ε+1)`.
///
/// This is the scalar reference; the scans consume [`fill_thresholds`],
/// which evaluates the same expression over the whole window with the
/// workload scalars hoisted (bit-identical per entry — asserted by the
/// `staged_thresholds_*` property tests below).
#[cfg_attr(
    not(test),
    expect(
        dead_code,
        reason = "scalar reference the staged-threshold property tests compare against"
    )
)]
fn low_threshold(vr: &VariationRatio, n: u64, ee: f64, t: u64) -> f64 {
    let rest = vr.non_differing();
    let r = vr.r();
    let tf = t as f64;
    let remaining = (n - t.min(n)) as f64;
    let tail = if rest == 0.0 || remaining == 0.0 {
        0.0
    } else if 1.0 - 2.0 * r <= 0.0 {
        return f64::INFINITY;
    } else {
        rest * remaining * r / (1.0 - 2.0 * r)
    };
    ((ee * vr.p_alpha() - vr.alpha()) * tf + (ee - 1.0) * tail) / (vr.beta() * (ee + 1.0))
}

/// Stage 1 of both scans: `thr[i] = ⌈low(c_lo + i)⌉` for `i ∈ [0, count)`,
/// so entry `i` of the table reads its two thresholds as
/// `t_cur = thr[i]`, `t_next = thr[i + 1]` (the seed implementation computed
/// `⌈low(c)⌉` and `⌈low(c+1)⌉` per entry — the same value twice, since
/// entry `i`'s `low(c+1)` *is* entry `i+1`'s `low(c)`).
///
/// The loop bodies are pure float arithmetic with every workload scalar
/// hoisted, which the autovectorizer turns into lane-parallel code. Each
/// value is **bit-identical** to [`low_threshold`] at the same `t`:
/// hoisting `e^ε·pα − α`, `e^ε − 1` and `β(e^ε + 1)` only names
/// deterministic subexpressions, the per-entry `rest·remaining·r/(1−2r)`
/// association is preserved, and the branchless middle regime relies on
/// `rest` or `remaining` being `0.0` making the product an exact `+0.0` —
/// the same value the guarded branch returned.
fn fill_thresholds(vr: &VariationRatio, n: u64, ee: f64, c_lo: u64, count: usize) -> Vec<i64> {
    let rest = vr.non_differing();
    let r = vr.r();
    let num_t = ee * vr.p_alpha() - vr.alpha();
    let em1 = ee - 1.0;
    let den = vr.beta() * (ee + 1.0);
    let omr = 1.0 - 2.0 * r;
    let mut thr = vec![0i64; count];
    // t = c_lo + i ≤ c_hi + 1 ≤ n over the scanned window, and both t and
    // n − t sit far below 2^53, so the incremental float forms below are
    // exact (identical bits to casting the integers directly).
    let c0f = c_lo as f64;
    let m0f = (n - c_lo) as f64;
    if rest == 0.0 {
        // Single-message protocols: the non-differing component is empty and
        // tail ≡ 0 regardless of r.
        for (i, th) in thr.iter_mut().enumerate() {
            let tf = c0f + i as f64;
            *th = ceil_to_i64((num_t * tf + em1 * 0.0) / den);
        }
    } else if omr > 0.0 {
        for (i, th) in thr.iter_mut().enumerate() {
            let if64 = i as f64;
            let tf = c0f + if64;
            let remaining = m0f - if64;
            *th = ceil_to_i64((num_t * tf + em1 * (rest * remaining * r / omr)) / den);
        }
    } else {
        // r ≥ 1/2: low(t) = +∞ (threshold saturates past the support; the
        // i64 ceiling saturates to i64::MAX, an empty summation) except at
        // t = n where the remaining-mass factor vanishes first.
        for (i, th) in thr.iter_mut().enumerate() {
            let if64 = i as f64;
            *th = if m0f - if64 == 0.0 {
                let tf = c0f + if64;
                ceil_to_i64((num_t * tf + em1 * 0.0) / den)
            } else {
                i64::MAX
            };
        }
    }
    thr
}

/// Stages 2–3 of the exact scan: the paper-verbatim Theorem 4.8 tail pass
/// and weighted reduce over a memoized table, consuming the precomputed
/// threshold array.
///
/// Bit-identity contract (asserted old-vs-new by `benches/scan_kernel.rs`
/// and relied on by every `epsilon`/`try_delta` reproducibility test): the
/// tails come from the same [`upper_tail`]/`pmf` calls as the seed
/// implementation — with one validated [`Binomial`] re-trialed per `c` and
/// the `t_cur == t_next` survival call deduplicated, both of which return
/// the very same values — and the weighted sum keeps the seed's sequential
/// fold order. The lane-parallel chunked reduce is reserved for
/// [`scan_fast`], whose certified pad absorbs reordering round-off; the
/// exact scan is the certification baseline and must not reassociate.
#[expect(
    clippy::indexing_slicing,
    reason = "`thr` has len + 1 entries so `thr[i + 1]` stays in bounds over the enumerated window"
)]
fn scan_exact(acc: &Accountant, table: &OuterTable, eps: f64) -> f64 {
    let vr = &acc.vr;
    let Some(co) = ScanCoefs::new(vr, eps) else {
        return 0.0;
    };
    let thr = fill_thresholds(vr, acc.n, co.ee, table.c_lo, table.weights.len() + 1);
    let fair = Binomial::new(0, 0.5);
    let mut sum = 0.0;
    for (i, &w) in table.weights.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        let c = table.c_lo + i as u64;
        // Thresholds: ⌈low(c+1)⌉ − 1, ⌈low(c+1)⌉ and ⌈low(c)⌉.
        let t_next = thr[i + 1];
        let t_cur = thr[i];
        let inner = fair.with_trials(c);
        // CDF_{c,1/2}[t, c] is an upper tail: P[X >= t] = sf(t − 1).
        let s1 = upper_tail(&inner, t_next);
        // [t_next − 1, c] = [t_next, c] ∪ {t_next − 1}.
        let s0 = if (1..=c as i64 + 1).contains(&t_next) {
            s1 + inner.pmf((t_next - 1) as u64)
        } else {
            upper_tail(&inner, t_next - 1)
        };
        // Identical arguments give the identical incomplete-beta value, so
        // the (common) unmoved-threshold entry needs one tail, not two.
        let s2 = if t_cur == t_next {
            s1
        } else {
            upper_tail(&inner, t_cur)
        };
        // NOTE: individual c-terms may be negative — the expectation is
        // exact only when summed unclamped (a single (a, b) point's
        // positive-part contribution is split across adjacent c's).
        sum += w * (co.coef_p0 * s0 + co.coef_p1 * s1 + co.coef_rest * s2);
    }
    // Each dropped c-term is at most coef_p0·1 ≤ pα ≤ 1, so crediting the
    // (exactly measured) missing mass keeps the result an upper bound;
    // dropped negative terms only make the bound looser, never invalid.
    let neglected = (1.0 - table.scanned_mass)
        .max(0.0)
        .min(table.neglected_budget.max(1e-300));
    (sum + neglected).clamp(0.0, 1.0)
}

/// How entry `i`'s `s2 = P[X_c ≥ t_cur]` tail is produced (stage-2 plan,
/// resolved in stage 4). `Skip` marks a zero-weight entry, which contributes
/// nothing and breaks the Pascal chain.
#[derive(Clone, Copy)]
enum S2Plan {
    Skip,
    /// `t_cur > c`: empty tail.
    Zero,
    /// `t_cur ≤ 0`: full tail.
    One,
    /// Pascal step from the previous entry's carried `s1`:
    /// `P[X_c ≥ t] = P[X_{c−1} ≥ t] + ½·pmf_{c−1}(t−1)`, increment attached.
    Pascal(f64),
    /// Exact beta re-anchor; consumes the next batched anchor value.
    Anchor,
}

/// How `s1 = P[X_c ≥ t_next]` is produced, relative to this entry's `s2`.
#[derive(Clone, Copy)]
enum S1Plan {
    Zero,
    One,
    /// Unmoved threshold (`t_next == t_cur`): `s1 = s2` verbatim.
    Same,
    /// Small threshold move: `s1 = clamp(s2 + Σ±pmf)`, signed mass attached.
    Bridge(f64),
    /// Saturated `s2` or a jump past [`MAX_BRIDGE`]: next batched anchor.
    Anchor,
}

/// How `s0 = P[X_c ≥ t_next − 1]` is produced, relative to `s1`.
#[derive(Clone, Copy)]
enum S0Plan {
    /// `t_next > c + 1`: empty tail.
    Zero,
    /// `t_next ≤ 0`: full tail.
    One,
    /// Interior: `s0 = s1 + pmf_c(t_next − 1)`, pmf attached.
    Pmf(f64),
}

/// Stage-2 output for one scanned entry: the three tail recurrences plus
/// whether the resolved `s1` seeds the next entry's Pascal step.
#[derive(Clone, Copy)]
struct FastPlan {
    s2: S2Plan,
    s1: S1Plan,
    s0: S0Plan,
    carry: bool,
}

/// Number of independent partial sums in the stage-5 weighted reduce. Eight
/// f64 lanes fill two AVX2 registers and break the serial-add dependency
/// chain; the fold reassociates, which only [`scan_fast`]'s pad may absorb —
/// [`scan_exact`] keeps its sequential fold.
const LANES: usize = 8;

/// The incremental-tail variant of [`scan_exact`], restructured into staged
/// array passes (see the module docs):
///
/// 1. [`fill_thresholds`] — lane-parallel threshold precompute;
/// 2. a **plan pass** walking the window once with integer logic, deriving
///    every Pascal/bridge/s0 pmf increment from a *single* saddle-point
///    `pmf_c(t_cur − 1)` evaluation per entry (cross-row identity
///    `½·pmf_{c−1}(k) = pmf_c(k)·(c−k)/c`, in-row multiplicative steps for
///    bridges) and scheduling which entries re-anchor;
/// 3. a **batched anchor pass** evaluating all scheduled exact beta tails
///    in one tight loop;
/// 4. an **assembly pass** resolving the planned recurrences into the three
///    tail arrays (cheap adds and clamps only);
/// 5. a **chunked weighted reduce** `w·(coef_p0·s0 + coef_p1·s1 +
///    coef_rest·s2)` over [`LANES`]-wide partial sums.
///
/// Anchor *placement* is unchanged from the seed: a chain re-anchors on the
/// exact beta value every [`ANCHOR_PERIOD`] steps and at every saturation,
/// break, or past-[`MAX_BRIDGE`] jump, so accumulated round-off (now also
/// including the ~ulp-scale multiplicative pmf derivations) stays bounded
/// far below [`FAST_SCAN_PAD`], which is added to keep the result a valid
/// upper bound.
#[expect(
    clippy::indexing_slicing,
    reason = "every index is bounded by the window (`thr`: len + 1 entries, plan/tail arrays: len, `cursor` < anchors by the stage-2 schedule, chunked reduce slices at `chunks` ≤ len)"
)]
fn scan_fast(acc: &Accountant, table: &OuterTable, eps: f64) -> f64 {
    let vr = &acc.vr;
    let Some(co) = ScanCoefs::new(vr, eps) else {
        return 0.0;
    };
    let len = table.weights.len();
    // Stage 1: thresholds for the whole window.
    let thr = fill_thresholds(vr, acc.n, co.ee, table.c_lo, len + 1);
    let fair = Binomial::new(0, 0.5);

    // Stage 2: plan the tail recurrences. `chained` tracks whether the
    // previous entry carried `S = P[X_{c−1} ≥ t]` at t = ⌈low(c)⌉ — by the
    // shared threshold array, the carried t is *always* this entry's t_cur.
    let mut plans: Vec<FastPlan> = Vec::with_capacity(len);
    let mut anchors: Vec<(u64, i64)> = Vec::new();
    let mut chained = false;
    let mut since_anchor = 0u32;
    for (i, &w) in table.weights.iter().enumerate() {
        let c = table.c_lo + i as u64;
        if w == 0.0 {
            plans.push(FastPlan {
                s2: S2Plan::Skip,
                s1: S1Plan::Zero,
                s0: S0Plan::Zero,
                carry: false,
            });
            chained = false;
            continue;
        }
        let ci = c as i64;
        let t_cur = thr[i];
        let t_next = thr[i + 1];
        // Saturating: at the r ≥ 1/2 boundary one threshold can sit at
        // i64::MAX while the other is finite. Saturation can only produce a
        // huge |d| (→ not `near`), never a spurious 0.
        let d = t_next.saturating_sub(t_cur);
        let s2_interior = 1 <= t_cur && t_cur <= ci;
        let pascal = s2_interior && chained && since_anchor < ANCHOR_PERIOD;
        // Anchor-counter bookkeeping exactly as the seed: Pascal steps
        // advance it, re-anchors reset it, saturated entries leave it alone.
        if pascal {
            since_anchor += 1;
        } else if s2_interior {
            since_anchor = 0;
        }
        let s0_pmf = 1 <= t_next && t_next <= ci + 1;
        let near = d.unsigned_abs() <= MAX_BRIDGE as u64;

        let mut pascal_inc = 0.0;
        let mut bridge_inc = 0.0;
        let mut x0 = 0.0;
        if s2_interior && (pascal || (s0_pmf && near)) {
            // The one saddle-point evaluation: base = pmf_c(t_cur − 1),
            // with t_cur − 1 ∈ [0, c − 1].
            let base = fair.with_trials(c).pmf((t_cur - 1) as u64);
            if pascal {
                // ½·pmf_{c−1}(t_cur−1) = pmf_c(t_cur−1)·(c−t_cur+1)/c.
                pascal_inc = base * ((ci - t_cur + 1) as f64) / (c as f64);
            }
            if s0_pmf && near {
                if d == 0 {
                    x0 = base;
                } else if d > 0 {
                    // Walk up the pmf row; the bridge subtracts
                    // pmf_c(j), j ∈ [t_cur, t_next), and the final step is
                    // exactly the s0 pmf at t_next − 1.
                    let mut cur = base;
                    let mut mass = 0.0;
                    for j in t_cur..t_next {
                        cur *= ((ci - j + 1) as f64) / (j as f64);
                        mass += cur;
                    }
                    bridge_inc = -mass;
                    x0 = cur;
                } else {
                    // Walk down: the bridge adds pmf_c(j), j ∈ [t_next,
                    // t_cur), then one more down-step reaches t_next − 1.
                    let mut cur = base;
                    let mut mass = cur;
                    let mut j = t_cur - 1;
                    while j > t_next {
                        cur *= (j as f64) / ((ci - j + 1) as f64);
                        j -= 1;
                        mass += cur;
                    }
                    bridge_inc = mass;
                    x0 = cur * (t_next as f64) / ((ci - t_next + 1) as f64);
                }
            }
        }
        if s0_pmf && !(s2_interior && near) {
            // Far jump or no usable s2 row position: evaluate directly.
            x0 = fair.with_trials(c).pmf((t_next - 1) as u64);
        }

        let s2 = if t_cur <= 0 {
            S2Plan::One
        } else if t_cur > ci {
            S2Plan::Zero
        } else if pascal {
            S2Plan::Pascal(pascal_inc)
        } else {
            anchors.push((c, t_cur));
            S2Plan::Anchor
        };
        let s1 = if t_next <= 0 {
            S1Plan::One
        } else if t_next > ci {
            S1Plan::Zero
        } else if s2_interior && d == 0 {
            S1Plan::Same
        } else if s2_interior && near {
            S1Plan::Bridge(bridge_inc)
        } else {
            anchors.push((c, t_next));
            S1Plan::Anchor
        };
        let s0 = if s0_pmf {
            S0Plan::Pmf(x0)
        } else if t_next <= 0 {
            S0Plan::One
        } else {
            S0Plan::Zero
        };
        let carry = 1 <= t_next && t_next <= ci;
        chained = carry;
        plans.push(FastPlan { s2, s1, s0, carry });
    }

    // Stage 3: batch-evaluate the scheduled exact beta re-anchors.
    let anchor_vals: Vec<f64> = anchors
        .iter()
        .map(|&(c, t)| upper_tail_fast(&fair.with_trials(c), t))
        .collect();

    // Stage 4: resolve the plans into the three tail arrays.
    let mut s0v = vec![0.0; len];
    let mut s1v = vec![0.0; len];
    let mut s2v = vec![0.0; len];
    let mut cursor = 0usize;
    let mut chain_s = 0.0f64;
    for (i, plan) in plans.iter().enumerate() {
        let s2 = match plan.s2 {
            S2Plan::Skip => continue, // arrays stay 0; the weight is 0 too
            S2Plan::Zero => 0.0,
            S2Plan::One => 1.0,
            S2Plan::Pascal(inc) => (chain_s + inc).clamp(0.0, 1.0),
            S2Plan::Anchor => {
                let v = anchor_vals[cursor];
                cursor += 1;
                v
            }
        };
        let s1 = match plan.s1 {
            S1Plan::Zero => 0.0,
            S1Plan::One => 1.0,
            S1Plan::Same => s2,
            S1Plan::Bridge(inc) => (s2 + inc).clamp(0.0, 1.0),
            S1Plan::Anchor => {
                let v = anchor_vals[cursor];
                cursor += 1;
                v
            }
        };
        let s0 = match plan.s0 {
            S0Plan::Zero => 0.0,
            S0Plan::One => 1.0,
            S0Plan::Pmf(x) => s1 + x,
        };
        if plan.carry {
            chain_s = s1;
        }
        s0v[i] = s0;
        s1v[i] = s1;
        s2v[i] = s2;
    }
    debug_assert_eq!(cursor, anchor_vals.len());

    // Stage 5: chunked weighted reduce over LANES-wide partial sums
    // (zero-weight entries contribute exact zeros, so no skip is needed).
    let chunks = len / LANES * LANES;
    let mut lanes = [0.0f64; LANES];
    for (((wc, c0), c1), c2) in table.weights[..chunks]
        .chunks_exact(LANES)
        .zip(s0v[..chunks].chunks_exact(LANES))
        .zip(s1v[..chunks].chunks_exact(LANES))
        .zip(s2v[..chunks].chunks_exact(LANES))
    {
        for l in 0..LANES {
            lanes[l] += wc[l] * (co.coef_p0 * c0[l] + co.coef_p1 * c1[l] + co.coef_rest * c2[l]);
        }
    }
    let mut sum: f64 = lanes.iter().sum();
    for k in chunks..len {
        sum +=
            table.weights[k] * (co.coef_p0 * s0v[k] + co.coef_p1 * s1v[k] + co.coef_rest * s2v[k]);
    }
    let neglected = (1.0 - table.scanned_mass)
        .max(0.0)
        .min(table.neglected_budget.max(1e-300));
    (sum + neglected + FAST_SCAN_PAD).clamp(0.0, 1.0)
}

/// The numerical accountant behind the [`AmplificationBound`] engine: one
/// memoized [`DeltaEvaluator`] (built at construction, or shared through
/// [`NumericalBound::from_evaluator`] by the [`crate::engine`] cache)
/// answering both query axes. `epsilon` runs the amortized Algorithm 1
/// ([`DeltaEvaluator::epsilon_amortized`]) — bit-identical results to
/// [`Accountant::epsilon`]; `delta` uses the fast scan
/// ([`DeltaEvaluator::delta_fast`]), staying a rigorous upper bound within
/// `2.5e-13` of the exact value.
#[derive(Debug, Clone)]
pub struct NumericalBound {
    evaluator: Arc<DeltaEvaluator>,
    iterations: usize,
    name: &'static str,
}

impl NumericalBound {
    /// Numerical bound with default [`SearchOptions`].
    pub fn new(vr: VariationRatio, n: u64) -> Result<Self> {
        Self::with_options(vr, n, SearchOptions::default())
    }

    /// Numerical bound with explicit search options (the [`ScanMode`] fixes
    /// the memoized table; see the module docs).
    pub fn with_options(vr: VariationRatio, n: u64, opts: SearchOptions) -> Result<Self> {
        Self::named(crate::bound::names::NUMERICAL, vr, n, opts)
    }

    /// Same accountant registered under a different name — used by the
    /// baseline parameter mappings (clone, stronger clone) and by mechanism
    /// registries ([`crate::bound::names::VARIATION_RATIO`]).
    pub fn named(
        name: &'static str,
        vr: VariationRatio,
        n: u64,
        opts: SearchOptions,
    ) -> Result<Self> {
        let acc = Accountant::new(vr, n)?;
        Ok(Self::from_evaluator(
            name,
            Arc::new(DeltaEvaluator::new(acc, opts.mode)),
            opts.iterations,
        ))
    }

    /// Wrap an already-built (possibly shared) evaluator — the constructor
    /// the [`crate::engine::AnalysisEngine`] cache uses so repeated queries
    /// against one `(params, n, ScanMode)` workload reuse the memoized
    /// outer table instead of rebuilding it.
    pub fn from_evaluator(
        name: &'static str,
        evaluator: Arc<DeltaEvaluator>,
        iterations: usize,
    ) -> Self {
        Self {
            evaluator,
            iterations,
            name,
        }
    }

    /// The underlying memoized evaluator.
    pub fn evaluator(&self) -> &DeltaEvaluator {
        &self.evaluator
    }
}

impl AmplificationBound for NumericalBound {
    fn name(&self) -> &str {
        self.name
    }

    fn validity(&self) -> Validity {
        let vr = self.evaluator.accountant().params();
        Validity {
            eps_ceiling: vr.epsilon_limit(),
            // p = ∞: arbitrarily small δ may be unachievable (irreducible
            // exposed mass of multi-message protocols).
            conditional: !vr.p().is_finite(),
        }
    }

    fn delta(&self, eps: f64) -> Result<f64> {
        self.evaluator.delta_fast(eps)
    }

    fn epsilon(&self, delta: f64) -> Result<f64> {
        self.evaluator.epsilon_amortized(delta, self.iterations)
    }
}

/// `⌈x⌉` as `i64`, saturating at the extremes (`+∞ → i64::MAX` yields an
/// empty summation range, which is the correct semantics).
fn ceil_to_i64(x: f64) -> i64 {
    x.ceil() as i64
}

/// `P[X ≥ t]` for a binomial `X`, i.e. `CDF[t, c]` with the upper limit at
/// the end of the support.
fn upper_tail(b: &Binomial, t: i64) -> f64 {
    b.sf(t - 1)
}

/// [`upper_tail`] through the vectorized incomplete-beta path: a few ulp off
/// the exact tail, so it may only feed the padded fast scan (whose
/// `FAST_SCAN_PAD` budget absorbs far more than the ~1e-15 it introduces),
/// never `scan_exact` or the amortized-ε scratch, which are certified
/// bit-identical to the reference.
fn upper_tail_fast(b: &Binomial, t: i64) -> f64 {
    b.sf_fast(t - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hockey_stick::hockey_stick_symmetric;
    use crate::mixture::DominatingPair;

    fn vr(p: f64, beta: f64, q: f64) -> VariationRatio {
        VariationRatio::new(p, beta, q).unwrap()
    }

    /// Exact symmetric divergence of the dominating pair by enumeration —
    /// the ground truth Theorem 4.8 must reproduce.
    fn exact_delta(params: VariationRatio, n: u64, eps: f64) -> f64 {
        let dp = DominatingPair::new(params, n);
        let entries = dp.enumerate(-1.0);
        let p: Vec<f64> = entries.iter().map(|e| e.2).collect();
        let q: Vec<f64> = entries.iter().map(|e| e.3).collect();
        hockey_stick_symmetric(&p, &q, eps)
    }

    #[test]
    fn matches_exact_enumeration_small_n() {
        for params in [
            vr(3.0, 0.3, 3.0),
            vr(2.0, 1.0 / 3.0, 2.0), // worst-case beta
            vr(5.0, 0.2, 7.0),
            vr(f64::INFINITY, 0.8, 4.0),
        ] {
            for n in [1u64, 2, 3, 5, 9, 16] {
                let acc = Accountant::new(params, n).unwrap();
                for eps_i in 0..8 {
                    let eps = 0.25 * eps_i as f64;
                    let exact = exact_delta(params, n, eps);
                    let formula = acc.try_delta(eps, ScanMode::Full).unwrap();
                    assert!(
                        vr_numerics::is_close_abs(formula, exact, 1e-9),
                        "n={n} eps={eps} p={} beta={} q={}: formula={formula:e} exact={exact:e}",
                        params.p(),
                        params.beta(),
                        params.q()
                    );
                }
            }
        }
    }

    #[test]
    fn matches_exact_enumeration_r_half_boundary() {
        // Balcer–Cheu uniform coin: p = ∞, β = 1, q = 2 ⇒ r = 1/2 exactly.
        let params = vr(f64::INFINITY, 1.0, 2.0);
        for n in [2u64, 4, 8] {
            let acc = Accountant::new(params, n).unwrap();
            for eps_i in 0..6 {
                let eps = 0.4 * eps_i as f64;
                let exact = exact_delta(params, n, eps);
                let formula = acc.try_delta(eps, ScanMode::Full).unwrap();
                assert!(
                    vr_numerics::is_close_abs(formula, exact, 1e-9),
                    "n={n} eps={eps}: {formula:e} vs {exact:e}"
                );
            }
        }
    }

    #[test]
    fn delta_monotone_decreasing_in_eps() {
        let acc = Accountant::new(vr(5.0, 0.4, 5.0), 1000).unwrap();
        let mut prev = f64::INFINITY;
        for i in 0..=32 {
            let eps = 0.05 * i as f64;
            let d = acc.try_delta(eps, ScanMode::default()).unwrap();
            assert!(d <= prev + 1e-12, "delta not monotone at eps={eps}");
            prev = d;
        }
    }

    #[test]
    fn delta_decreases_with_population() {
        let params = vr(3.0, 0.3, 3.0);
        let eps = 0.2;
        let mut prev = f64::INFINITY;
        for n in [10u64, 100, 1_000, 10_000, 100_000] {
            let d = Accountant::new(params, n)
                .unwrap()
                .try_delta(eps, ScanMode::default())
                .unwrap();
            assert!(d < prev, "delta not decreasing at n={n}: {d} vs {prev}");
            prev = d;
        }
    }

    #[test]
    fn delta_monotone_in_beta() {
        // Lemma 4.6: the divergence is non-decreasing with β.
        let eps = 0.3;
        let mut prev = 0.0;
        for i in 1..=8 {
            let beta = 0.05 * i as f64;
            let acc = Accountant::new(vr(3.0, beta, 3.0), 5_000).unwrap();
            let d = acc.try_delta(eps, ScanMode::default()).unwrap();
            assert!(d >= prev - 1e-14, "not monotone in beta at {beta}");
            prev = d;
        }
    }

    #[test]
    fn truncated_dominates_full_within_budget() {
        let params = vr(4.0, 0.35, 4.0);
        let acc = Accountant::new(params, 20_000).unwrap();
        for eps in [0.0, 0.1, 0.3, 0.7] {
            let full = acc.try_delta(eps, ScanMode::Full).unwrap();
            let trunc = acc
                .try_delta(eps, ScanMode::Truncated { tail_mass: 1e-12 })
                .unwrap();
            assert!(
                trunc >= full - 1e-15,
                "truncated not an upper bound at eps={eps}"
            );
            assert!(
                trunc - full <= 1e-12 + 1e-15,
                "truncation slack too large at eps={eps}: {}",
                trunc - full
            );
        }
    }

    #[test]
    fn epsilon_at_ln_p_is_free() {
        let params = vr(3.0, 0.45, 3.0);
        let acc = Accountant::new(params, 10).unwrap();
        assert_eq!(
            acc.try_delta(3.0f64.ln() + 1e-9, ScanMode::Full).unwrap(),
            0.0
        );
    }

    #[test]
    fn epsilon_search_brackets_delta() {
        let params = vr(5.0, 0.5, 5.0);
        let acc = Accountant::new(params, 10_000).unwrap();
        let delta = 1e-6;
        let eps = acc.epsilon_default(delta).unwrap();
        assert!(eps > 0.0 && eps < 5.0f64.ln());
        // Feasibility: the returned ε must actually achieve δ.
        assert!(acc.try_delta(eps, ScanMode::default()).unwrap() <= delta);
        // Near-tightness: a slightly smaller ε must violate δ.
        assert!(acc.try_delta(eps * 0.98, ScanMode::default()).unwrap() > delta);
    }

    #[test]
    fn epsilon_shrinks_with_more_users() {
        let params = vr(3.0, 0.3, 3.0);
        let delta = 1e-6;
        let mut prev = f64::INFINITY;
        for n in [100u64, 1_000, 10_000, 100_000] {
            let eps = Accountant::new(params, n)
                .unwrap()
                .epsilon_default(delta)
                .unwrap();
            assert!(eps < prev, "amplification should improve with n (n={n})");
            prev = eps;
        }
    }

    #[test]
    fn degenerate_beta_gives_zero() {
        let acc = Accountant::new(vr(3.0, 0.0, 3.0), 100).unwrap();
        assert_eq!(acc.try_delta(0.0, ScanMode::Full).unwrap(), 0.0);
        assert_eq!(acc.epsilon_default(1e-9).unwrap(), 0.0);
    }

    #[test]
    fn single_user_reduces_to_local_guarantee() {
        // n = 1: no clones; the bound collapses to the divergence of the
        // victim's own mixture: δ(ε) = β − (e^ε··weights) ... cross-checked
        // against enumeration (covered above), here we check the endpoints.
        let params = vr(3.0, 0.45, 3.0);
        let acc = Accountant::new(params, 1).unwrap();
        let d0 = acc.try_delta(0.0, ScanMode::Full).unwrap();
        assert!(vr_numerics::is_close(d0, 0.45, 1e-12), "TV at eps=0: {d0}");
        assert_eq!(acc.try_delta(3.0f64.ln(), ScanMode::Full).unwrap(), 0.0);
    }

    #[test]
    fn multi_message_unachievable_delta_detected() {
        // p = ∞ with only 2 users and a sub-atomic δ: the victim's exposed
        // mass cannot be hidden.
        let params = vr(f64::INFINITY, 1.0, 4.0);
        let acc = Accountant::new(params, 2).unwrap();
        let err = acc.epsilon_default(1e-12).unwrap_err();
        assert!(matches!(err, Error::Unachievable(_)));
    }

    #[test]
    fn large_population_smoke() {
        // n = 1e6 with default (truncated) mode must run fast and produce a
        // sane strongly-amplified ε.
        let params = VariationRatio::ldp_worst_case(1.0).unwrap();
        let acc = Accountant::new(params, 1_000_000).unwrap();
        let eps = acc.epsilon_default(1e-8).unwrap();
        assert!(
            eps > 0.0 && eps < 0.05,
            "expected strong amplification, got {eps}"
        );
    }

    #[test]
    fn rejects_invalid_inputs() {
        let params = vr(2.0, 0.1, 2.0);
        assert!(Accountant::new(params, 0).is_err());
        let acc = Accountant::new(params, 10).unwrap();
        assert!(acc.epsilon(-0.1, SearchOptions::default()).is_err());
        assert!(acc.epsilon(1.5, SearchOptions::default()).is_err());
        assert!(acc.epsilon(f64::NAN, SearchOptions::default()).is_err());
    }

    #[test]
    fn evaluator_is_bit_identical_to_one_shot_path() {
        for params in [
            vr(3.0, 0.3, 3.0),
            vr(5.0, 0.2, 7.0),
            vr(f64::INFINITY, 0.8, 4.0),
        ] {
            for n in [1u64, 17, 1_000, 50_000] {
                let acc = Accountant::new(params, n).unwrap();
                for mode in [ScanMode::Full, ScanMode::default()] {
                    let ev = DeltaEvaluator::new(acc, mode);
                    for i in 0..6 {
                        let eps = 0.22 * i as f64;
                        let memoized = ev.try_delta(eps).unwrap();
                        let one_shot = acc.try_delta(eps, mode).unwrap();
                        assert_eq!(
                            memoized.to_bits(),
                            one_shot.to_bits(),
                            "n={n} eps={eps} mode={mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fast_scan_dominates_and_tracks_exact_scan() {
        for params in [
            vr(3.0, 0.3, 3.0),
            vr(2.0, 1.0 / 3.0, 2.0),
            vr(5.0, 0.2, 7.0),
            vr(f64::INFINITY, 0.8, 4.0),
            vr(f64::INFINITY, 1.0, 2.0), // r = 1/2 boundary
        ] {
            for n in [2u64, 64, 5_000, 200_000] {
                let acc = Accountant::new(params, n).unwrap();
                let ev = DeltaEvaluator::new(acc, ScanMode::default());
                for i in 0..24 {
                    let eps = 0.08 * i as f64;
                    let exact = ev.try_delta(eps).unwrap();
                    let fast = ev.delta_fast(eps).unwrap();
                    assert!(
                        fast >= exact,
                        "fast scan lost the upper-bound property at n={n} eps={eps}: \
                         {fast:e} < {exact:e}"
                    );
                    assert!(
                        fast - exact <= 2.5e-13,
                        "fast scan drifted at n={n} eps={eps}: {fast:e} vs {exact:e}"
                    );
                }
            }
        }
    }

    /// Asserts that the amortized search reproduces the reference
    /// Algorithm 1 bit for bit (or fails with the same error), returning
    /// the reference ε when there is one.
    fn assert_amortized_matches_reference(ev: &DeltaEvaluator, delta: f64) -> Option<f64> {
        let reference = ev.epsilon(delta, 40);
        let amortized = ev.epsilon_amortized(delta, 40);
        let vr = ev.accountant().params();
        let at = format!(
            "p={} beta={} q={} n={} delta={delta:e}",
            vr.p(),
            vr.beta(),
            vr.q(),
            ev.accountant().n()
        );
        match (&reference, amortized) {
            (Ok(a), Ok(b)) => assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "amortized search diverged at {at}: {a} vs {b}"
            ),
            (Err(a), Err(b)) => assert_eq!(*a, b, "{at}"),
            (a, b) => panic!("outcome diverged at {at}: {a:?} vs {b:?}"),
        }
        reference.ok()
    }

    #[test]
    fn epsilon_amortized_is_bit_identical_to_reference() {
        for params in [
            vr(3.0, 0.3, 3.0),
            vr(2.0, 1.0 / 3.0, 2.0),
            vr(5.0, 0.2, 7.0),
            vr(f64::INFINITY, 0.8, 4.0),
            vr(10.0, 0.45, 1.0), // r = 1/2: saturated thresholds
        ] {
            for n in [1u64, 17, 1_000, 30_000] {
                let ev =
                    DeltaEvaluator::new(Accountant::new(params, n).unwrap(), ScanMode::default());
                // 1e-14 sits below FAST_SCAN_PAD: no fast probe can certify
                // feasibility, so the pre-pass only ever certifies `lo_c`.
                for delta in [0.5, 1e-3, 1e-6, 1e-9, 1e-14] {
                    assert_amortized_matches_reference(&ev, delta);
                }
            }
        }
        // p = ∞ past ε = 1: the exponential bracket grows before the
        // pre-pass runs on its interval.
        let ev = DeltaEvaluator::new(
            Accountant::new(vr(f64::INFINITY, 0.8, 4.0), 64).unwrap(),
            ScanMode::default(),
        );
        let eps = assert_amortized_matches_reference(&ev, 1e-9).unwrap();
        assert!(
            eps > 1.0,
            "case must reach the exponential bracket, got {eps}"
        );
        // Unachievable multi-message target and invalid inputs behave alike.
        let ev = DeltaEvaluator::new(
            Accountant::new(vr(f64::INFINITY, 1.0, 4.0), 2).unwrap(),
            ScanMode::default(),
        );
        assert!(matches!(
            ev.epsilon_amortized(1e-12, 40),
            Err(Error::Unachievable(_))
        ));
        assert!(ev.epsilon_amortized(-0.1, 40).is_err());
        assert!(ev.epsilon_amortized(1.5, 40).is_err());
        // Degenerate parameters short-circuit to zero.
        let ev = DeltaEvaluator::new(
            Accountant::new(vr(3.0, 0.0, 3.0), 100).unwrap(),
            ScanMode::default(),
        );
        assert_eq!(ev.epsilon_amortized(1e-9, 40).unwrap(), 0.0);
    }

    /// The margin rule, pinned where it matters: a certified bracket end
    /// that is itself a bisection midpoint. A fast value inside the zone
    /// `(δ − G, δ + 2·G]` certifies nothing; one step past either edge
    /// certifies that end, and the replay then prunes the midpoint it sits
    /// on with the reference's decision.
    #[test]
    fn certified_end_on_a_bisection_midpoint_keeps_the_reference_decision() {
        // n = 50 keeps fast(m) far above the guards at every m below.
        let ev = DeltaEvaluator::new(
            Accountant::new(vr(3.0, 0.3, 3.0), 50).unwrap(),
            ScanMode::default(),
        );
        let table = ev.table.as_ref().unwrap();
        let hi = ev.accountant().params().epsilon_limit();
        let reference = |delta: f64| {
            bisect_monotone(|e| scan_exact(&ev.acc, table, e) <= delta, 0.0, hi, 40).unwrap()
        };
        // Midpoints of the first bisection steps: hi/2, hi/4, 3·hi/8.
        for m in [0.5 * hi, 0.25 * hi, 0.375 * hi] {
            let fast = scan_fast(&ev.acc, table, m);
            let g = FAST_CERT_GUARD;
            // Infeasible side: δ just below fast − 2G certifies lo_c = m.
            for (delta, certified) in [(fast - 2.0 * g, false), (fast - 2.1 * g, true)] {
                let mut search = PrunedSearch::new(&ev.acc, delta);
                search.probe(table, m);
                assert_eq!(search.lo_c == m, certified, "lo_c at m={m} delta={delta:e}");
                assert_eq!(search.hi_c, f64::INFINITY);
                assert_eq!(search.zone.is_some(), !certified);
            }
            // Feasible side: δ = fast + G certifies hi_c = m, a hair less
            // does not.
            let delta_at = fast + g;
            for (delta, certified) in [(delta_at, true), (delta_at * (1.0 - 1e-15), false)] {
                let mut search = PrunedSearch::new(&ev.acc, delta);
                search.probe(table, m);
                assert_eq!(search.hi_c == m, certified, "hi_c at m={m} delta={delta:e}");
                assert_eq!(search.lo_c, f64::NEG_INFINITY);
            }
            // Replay with the certified end on the midpoint itself: the
            // pruned decision at m matches the exact one, and the whole
            // bracket matches the reference bisection.
            for delta in [fast - 2.1 * g, delta_at] {
                let mut search = PrunedSearch::new(&ev.acc, delta);
                search.probe(table, m);
                let exact_at_m = scan_exact(&ev.acc, table, m) <= delta;
                assert_eq!(
                    search.feasible(table, m),
                    exact_at_m,
                    "m={m} delta={delta:e}"
                );
                assert_eq!(search.work.pruned, 1);
                let mut search = PrunedSearch::new(&ev.acc, delta);
                search.probe(table, m);
                let got = bisect_monotone(|e| search.feasible(table, e), 0.0, hi, 40).unwrap();
                let want = reference(delta);
                assert_eq!(got.feasible.to_bits(), want.feasible.to_bits(), "m={m}");
                assert_eq!(got.infeasible.to_bits(), want.infeasible.to_bits(), "m={m}");
                assert!(
                    search.work.pruned >= 1,
                    "m={m}: the certified end pruned nothing"
                );
            }
        }
    }

    /// Scans per warm ε(δ) at the six serving-benchmark evaluators (ε₀ ∈
    /// {0.5, 1, 2} × n ∈ {2·10⁵, 10⁶}, worst-case LDP) over a fixed δ grid.
    /// These are machine-independent counts. Before bracket pruning every
    /// query spent 41 fast scans and, on this grid, 673 exact evaluations
    /// over the 48 queries (14.02 a query).
    #[test]
    fn pruned_search_scan_counts_are_pinned() {
        const QUERIES_PER_EVALUATOR: usize = 8;
        const EXACT_BEFORE: u32 = 673;
        let mut total = SearchWork::default();
        let mut queries = 0u32;
        for eps0 in [0.5, 1.0, 2.0] {
            for n in [200_000u64, 1_000_000] {
                let params = VariationRatio::ldp_worst_case(eps0).unwrap();
                let ev =
                    DeltaEvaluator::new(Accountant::new(params, n).unwrap(), ScanMode::default());
                for i in 0..QUERIES_PER_EVALUATOR {
                    let exponent = -6.0 - 4.0 * i as f64 / (QUERIES_PER_EVALUATOR - 1) as f64;
                    let (_, work) = ev.epsilon_counted(10f64.powf(exponent), 40).unwrap();
                    total.fast += work.fast;
                    total.exact += work.exact;
                    total.pruned += work.pruned;
                    queries += 1;
                }
            }
        }
        let mean_fast = f64::from(total.fast) / f64::from(queries);
        assert!(
            mean_fast <= 13.0,
            "{mean_fast} fast scans a query (41 before): {total:?}"
        );
        assert!(
            total.exact <= EXACT_BEFORE + 4 * queries,
            "{} exact evaluations over {queries} queries ({EXACT_BEFORE} before): {total:?}",
            total.exact
        );
        assert!(total.pruned > 0);
    }

    #[test]
    fn evaluator_epsilon_matches_accountant_epsilon() {
        let params = vr(5.0, 0.5, 5.0);
        let acc = Accountant::new(params, 10_000).unwrap();
        let opts = SearchOptions::default();
        let ev = DeltaEvaluator::new(acc, opts.mode);
        for delta in [1e-4, 1e-6, 1e-9] {
            let a = acc.epsilon(delta, opts).unwrap();
            let b = ev.epsilon(delta, opts.iterations).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "delta={delta:e}");
        }
        assert!(ev.epsilon(-0.1, 40).is_err());
        assert!(ev.try_delta(f64::NAN).is_err());
        assert!(ev.delta_fast(-1.0).is_err());
    }

    #[test]
    fn numerical_bound_trait_surface() {
        use crate::bound::AmplificationBound;
        let params = vr(3.0, 0.3, 3.0);
        let bound = NumericalBound::new(params, 10_000).unwrap();
        assert_eq!(bound.name(), crate::bound::names::NUMERICAL);
        assert_eq!(bound.kind(), crate::bound::BoundKind::Upper);
        assert!((bound.validity().eps_ceiling - 3.0f64.ln()).abs() < 1e-15);
        assert!(!bound.validity().conditional);
        let acc = Accountant::new(params, 10_000).unwrap();
        let eps = bound.epsilon(1e-6).unwrap();
        assert_eq!(
            eps.to_bits(),
            acc.epsilon_default(1e-6).unwrap().to_bits(),
            "trait epsilon must match the legacy accountant exactly"
        );
        let d = bound.delta(0.2).unwrap();
        let exact = acc.try_delta(0.2, ScanMode::default()).unwrap();
        assert!(d >= exact && d - exact <= 2.5e-13);
    }

    #[test]
    fn try_delta_rejects_bad_epsilon_without_panicking() {
        let acc = Accountant::new(vr(2.0, 0.1, 2.0), 10).unwrap();
        for bad in [-1e-9, -3.0, f64::NAN, f64::NEG_INFINITY] {
            let err = acc.try_delta(bad, ScanMode::default()).unwrap_err();
            assert!(matches!(err, Error::InvalidParameter(_)), "eps={bad}");
        }
        let ok = acc.try_delta(0.3, ScanMode::default()).unwrap();
        assert_eq!(ok, acc.try_delta(0.3, ScanMode::default()).unwrap());
        // +inf epsilon is a valid (if useless) query: divergence is 0.
        assert_eq!(acc.try_delta(f64::INFINITY, ScanMode::Full).unwrap(), 0.0);
    }

    // ---- threshold staging: bit-identity and edge-branch coverage ----

    use proptest::prelude::*;

    /// Strategy: arbitrary valid workloads, *including* the `r ≥ 1/2`
    /// saturating regime and near-degenerate corners the scans must survive.
    fn any_vr() -> impl Strategy<Value = VariationRatio> {
        (1.05f64..50.0, 0.01f64..0.99, 1.0f64..50.0)
            .prop_filter_map("valid variation-ratio triple", |(p, beta, q)| {
                VariationRatio::new(p, beta, q).ok()
            })
    }

    /// [`any_vr`] with roughly a quarter of the draws at `p = ∞`.
    fn any_vr_or_infinite_p() -> impl Strategy<Value = VariationRatio> {
        (1.05f64..65.0, 0.01f64..0.99, 1.0f64..50.0).prop_filter_map(
            "valid variation-ratio triple",
            |(p, beta, q)| {
                VariationRatio::new(if p > 50.0 { f64::INFINITY } else { p }, beta, q).ok()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Stage-1 contract: every entry of the staged threshold array is
        /// bit-identical to the scalar reference `⌈low(t)⌉` at the same `t`,
        /// across all three regimes (`rest == 0`, `r < 1/2`, `r ≥ 1/2`).
        #[test]
        fn staged_thresholds_match_scalar_reference(
            params in any_vr(),
            n in 2u64..200_000,
            eps in 0.0f64..3.0,
            lo_frac in 0.0f64..1.0,
            raw_count in 1usize..64,
        ) {
            let count = raw_count.min(n as usize + 1);
            // The scans only evaluate t = c_lo + i ≤ n.
            let span = n - (count as u64 - 1);
            let c_lo = ((lo_frac * span as f64) as u64).min(span);
            let ee = eps.exp();
            let thr = fill_thresholds(&params, n, ee, c_lo, count);
            for (i, &got) in thr.iter().enumerate() {
                let want = ceil_to_i64(low_threshold(&params, n, ee, c_lo + i as u64));
                prop_assert_eq!(
                    got,
                    want,
                    "entry {} (t={}) diverged: r={} rest={:e} n={} eps={}",
                    i,
                    c_lo + i as u64,
                    params.r(),
                    params.non_differing(),
                    n,
                    eps
                );
            }
        }

        /// The amortized search is bit-identical to the reference
        /// Algorithm 1 across random workloads, `p = ∞` included, and
        /// δ ∈ [1e-12, 1e-2].
        #[test]
        fn epsilon_amortized_matches_reference_everywhere(
            params in any_vr_or_infinite_p(),
            n in 1u64..5_000,
            log10_delta in -12.0f64..-2.0,
        ) {
            let ev = DeltaEvaluator::new(Accountant::new(params, n).unwrap(), ScanMode::default());
            assert_amortized_matches_reference(&ev, 10f64.powf(log10_delta));
        }

        /// The certified envelope survives saturated thresholds: at `eps = 0`
        /// the thresholds sit at `t/2` (exercising `t_cur ≤ 0` on the first
        /// entries) and near `epsilon_limit` they overshoot the support
        /// (`t_cur > c`, empty tails). The fast scan must keep
        /// `exact ≤ fast ≤ exact + FAST_CERT_GUARD` through both.
        #[test]
        fn staged_thresholds_saturation_keeps_certified_envelope(
            params in any_vr(),
            n in 2u64..50_000,
            limit_frac in 0.0f64..1.0,
        ) {
            let acc = Accountant::new(params, n).unwrap();
            let ev = DeltaEvaluator::new(acc, ScanMode::default());
            let limit = params.epsilon_limit().min(12.0);
            for eps in [0.0, limit_frac * limit, 0.999 * limit] {
                let exact = ev.try_delta(eps).unwrap();
                let fast = ev.delta_fast(eps).unwrap();
                prop_assert!(
                    fast >= exact,
                    "fast lost dominance at n={} eps={}: {:e} < {:e}",
                    n, eps, fast, exact
                );
                prop_assert!(
                    fast - exact <= FAST_CERT_GUARD,
                    "fast drifted at n={} eps={}: {:e} vs {:e}",
                    n, eps, fast, exact
                );
            }
        }
    }

    /// `r ≥ 1/2` with a non-empty non-differing component: `low(t)` is `+∞`
    /// for every `t < n` (the staged array saturates to `i64::MAX`, an empty
    /// summation), while `t = n` stays finite because the remaining-mass
    /// factor vanishes before the `1/(1 − 2r)` pole matters. The constructor
    /// rejects `r > 1/2`, so the reachable regime is the exact boundary
    /// `r = 1/2` (`1 − 2r = 0`, same saturating branch).
    #[test]
    fn staged_thresholds_saturate_in_r_half_regime() {
        // r = 0.5 exactly, rest > 0: 10·0.45/9 = 0.5 and 3·(1/3)/2 = 0.5.
        for params in [vr(10.0, 0.45, 1.0), vr(3.0, 1.0 / 3.0, 1.0)] {
            assert!(1.0 - 2.0 * params.r() <= 0.0, "r={}", params.r());
            assert!(params.non_differing() > 0.0);
            for n in [2u64, 7, 1000] {
                for eps in [0.0f64, 0.5, 2.0] {
                    let ee = eps.exp();
                    for t in 0..n {
                        assert_eq!(low_threshold(&params, n, ee, t), f64::INFINITY);
                    }
                    assert!(low_threshold(&params, n, ee, n).is_finite());
                    let count = (n + 1).min(64) as usize;
                    let c_lo = n + 1 - count as u64;
                    let thr = fill_thresholds(&params, n, ee, c_lo, count);
                    for (i, &got) in thr.iter().enumerate() {
                        let t = c_lo + i as u64;
                        let want = ceil_to_i64(low_threshold(&params, n, ee, t));
                        assert_eq!(got, want, "t={t} n={n} eps={eps}");
                        if t < n {
                            assert_eq!(got, i64::MAX);
                        }
                    }
                }
            }
        }
    }

    /// Remaining scalar edge branches of `low_threshold` not already covered
    /// by the saturating-regime test: the empty non-differing component
    /// (`rest == 0`, single-message protocols) keeps the tail identically
    /// zero even where `r ≥ 1/2` would otherwise blow up, and `t > n` clamps
    /// the remaining mass to zero rather than going negative.
    #[test]
    fn low_threshold_edge_branches() {
        // beta = (p-1)/(p+1) empties the non-differing component. At p = 3
        // the arithmetic is exact in binary (beta = 1/2, alpha = 1/4,
        // p·alpha = 3/4), so rest is an exact +0.0 rather than the ~1e-16
        // residue generic worst-case parameters leave behind.
        let worst = vr(3.0, 0.5, 2.0);
        assert_eq!(worst.non_differing(), 0.0);
        let ee = 0.4f64.exp();
        for t in [0u64, 3, 99, 100] {
            let v = low_threshold(&worst, 100, ee, t);
            assert!(v.is_finite(), "rest==0 must keep low(t) finite, got {v}");
            // With a zero tail the threshold is linear in t.
            assert_eq!(
                v.to_bits(),
                ((ee * worst.p_alpha() - worst.alpha()) * t as f64 / (worst.beta() * (ee + 1.0)))
                    .to_bits()
            );
        }
        // rest == 0 dodges the r >= 1/2 pole entirely: construct an infinite-p
        // workload with beta = 1 (r = 1/2, rest = 0) and check finiteness.
        let boundary = vr(f64::INFINITY, 1.0, 2.0);
        assert_eq!(boundary.non_differing(), 0.0);
        assert!(boundary.r() >= 0.5);
        assert!(low_threshold(&boundary, 50, ee, 10).is_finite());
        // t > n: remaining clamps to zero, so the tail term drops out and the
        // result stays finite even in the saturating regime.
        let sat = vr(10.0, 0.45, 1.0);
        assert!(1.0 - 2.0 * sat.r() <= 0.0);
        for t in [101u64, 150, u64::MAX] {
            assert!(low_threshold(&sat, 100, ee, t).is_finite(), "t={t}");
        }
        // ... and matches the t == n value bit-for-bit only when tf agrees;
        // at t = n + k the linear term still moves, so just pin the branch.
        assert!(low_threshold(&worst, 100, ee, 101).is_finite());
    }
}
