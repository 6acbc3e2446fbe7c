//! Root bracketing / bisection over monotone predicates.
//!
//! Algorithm 1 and Algorithm 3 of the paper binary-search the amplified ε over
//! a monotone feasibility predicate (`Delta(ε) ≤ δ` is monotone because the
//! hockey-stick divergence is non-increasing in ε). These helpers implement
//! that machinery once, with the two return conventions the paper needs:
//! the *feasible* end (a valid upper bound, Algorithm 1 returns `ε_H`) and the
//! *infeasible* end (a valid lower bound, Algorithm 3 returns `ε_L`).
//!
//! Both entry points are **fallible**: a malformed bracket (NaN endpoints,
//! `lo > hi`, non-positive growth start) is reported as a [`SearchError`]
//! instead of a panic, so long-running services can surface a structured
//! error for hostile inputs rather than losing a worker thread.
//!
//! The inverse planner questions ("smallest population `n` achieving
//! `(ε, δ)`") search the integers: [`doubling_bisection_u64`] brackets by
//! doubling and bisects to **adjacent integers**, so the returned
//! [`BracketU64`] is a certificate whose two candidates were both decided,
//! and its predicate is fallible (`FnMut(u64) -> Result<bool, E>`) because
//! each feasibility probe may itself run a whole amplification analysis.
//!
//! [`Certified`] prunes such reference sequences — the ε bisection of
//! Algorithm 1, the planner's ε₀ bisection and its population search —
//! without changing a decision: a pre-pass certifies bracket ends with a
//! margin, and the replayed sequence decides every point beyond them by
//! monotonicity instead of probing it.

use std::fmt;

/// A search that cannot run or cannot answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// A malformed search domain: the caller asked to bracket or bisect over
    /// an interval that does not exist (NaN endpoints, inverted bounds, or a
    /// non-positive growth start).
    Domain(String),
    /// The predicate contradicted itself on re-evaluation, so it is not the
    /// monotone predicate the search requires.
    NotMonotone(String),
}

impl SearchError {
    fn new(msg: impl Into<String>) -> Self {
        Self::Domain(msg.into())
    }
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Domain(msg) => write!(f, "invalid search domain: {msg}"),
            Self::NotMonotone(msg) => write!(f, "predicate is not monotone: {msg}"),
        }
    }
}

impl std::error::Error for SearchError {}

/// Result of a bisection run over a monotone predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bracket {
    /// Largest examined point where the predicate was false
    /// (or the initial `lo` if it was never false).
    pub infeasible: f64,
    /// Smallest examined point where the predicate was true
    /// (or the initial `hi` if it was never true).
    pub feasible: f64,
}

/// Bisect a monotone predicate on `[lo, hi]`: `pred` must be false-then-true
/// as its argument increases. Performs exactly `iters` predicate evaluations
/// and returns the final bracket.
///
/// If `pred(lo)` already holds, callers will observe `feasible` collapsing to
/// (near) `lo`; if `pred(hi)` fails everywhere, `feasible` stays at `hi` —
/// both behaviours match the paper's Algorithms 1 and 3, which simply return
/// the corresponding bracket end after `T` iterations.
///
/// # Errors
///
/// Returns [`SearchError`] when the interval is malformed: `lo > hi` or
/// either endpoint is NaN.
pub fn bisect_monotone<F: FnMut(f64) -> bool>(
    mut pred: F,
    lo: f64,
    hi: f64,
    iters: usize,
) -> Result<Bracket, SearchError> {
    if lo.is_nan() || hi.is_nan() || lo > hi {
        return Err(SearchError::new(format!(
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

/// Find an upper bracket for a monotone predicate by exponential growth:
/// starting at `start`, doubles until `pred` holds or the value exceeds
/// `max`. Returns `Ok(None)` if no feasible point ≤ `max` exists.
///
/// This replaces the `ε_H = log p` initialisation of Algorithm 1 when
/// `p = +∞` (multi-message protocols, Table 4).
///
/// # Errors
///
/// Returns [`SearchError`] when the growth domain is malformed: `start ≤ 0`,
/// `max < start`, or either is NaN.
pub fn exponential_upper_bracket<F: FnMut(f64) -> bool>(
    mut pred: F,
    start: f64,
    max: f64,
) -> Result<Option<f64>, SearchError> {
    if start.is_nan() || max.is_nan() || start <= 0.0 || max < start {
        return Err(SearchError::new(format!(
            "exponential_upper_bracket requires 0 < start <= max \
             (got start = {start}, max = {max})"
        )));
    }
    let mut x = start;
    loop {
        if pred(x) {
            return Ok(Some(x));
        }
        if x >= max {
            return Ok(None);
        }
        x = (x * 2.0).min(max);
    }
}

/// Certificate of an integer monotone search: the candidates actually
/// evaluated on each side of the threshold, so callers (e.g. deployment
/// planners answering "what is the minimum population n?") can report a
/// checkable witness pair instead of a bare number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BracketU64 {
    /// Largest candidate evaluated infeasible — exactly
    /// `first_feasible − 1` when the threshold is interior, `None` when the
    /// domain's lower end was already feasible (no infeasible witness
    /// exists).
    pub last_infeasible: Option<u64>,
    /// Smallest candidate evaluated feasible.
    pub first_feasible: u64,
}

/// Find the smallest `x ≥ floor` where a monotone (false-then-true)
/// fallible predicate holds: double from `start` (saturating at `max`)
/// until the predicate holds, then bisect from the largest point seen
/// failing (else `floor`) down to **adjacent integers**. Both candidates of
/// the returned [`BracketU64`] were decided by `pred`, so it is a witness
/// pair. This is the reference probe sequence of the integer planner
/// searches: callers that prune it pass a predicate that settles some
/// points without evaluating them (see [`Certified`]).
///
/// Returns `Ok(None)` when even `max` fails.
///
/// # Errors
///
/// Returns [`SearchError::Domain`] (converted into `E`) when the domain is
/// malformed (`start == 0`, `floor > start` or `max < start`) and
/// [`SearchError::NotMonotone`] when the predicate contradicts itself on
/// re-evaluation, and propagates predicate errors unchanged.
pub fn doubling_bisection_u64<E, F>(
    mut pred: F,
    floor: u64,
    start: u64,
    max: u64,
) -> Result<Option<BracketU64>, E>
where
    E: From<SearchError>,
    F: FnMut(u64) -> Result<bool, E>,
{
    if start == 0 || floor > start || max < start {
        return Err(SearchError::new(format!(
            "doubling_bisection_u64 requires 1 <= start, floor <= start <= max \
             (got floor = {floor}, start = {start}, max = {max})"
        ))
        .into());
    }
    let mut last_fail = None;
    let mut x = start;
    let mut hi = loop {
        if pred(x)? {
            break x;
        }
        last_fail = Some(x);
        if x >= max {
            return Ok(None);
        }
        x = x.saturating_mul(2).min(max);
    };
    let mut lo = last_fail.unwrap_or(floor);
    if pred(lo)? {
        return Ok(Some(BracketU64 {
            last_infeasible: None,
            first_feasible: lo,
        }));
    }
    if lo == hi || !pred(hi)? {
        return Err(
            SearchError::NotMonotone(format!("{hi} held, then failed on re-evaluation")).into(),
        );
    }
    // Invariant: pred(lo) = false, pred(hi) = true, both evaluated.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Some(BracketU64 {
        last_infeasible: Some(lo),
        first_feasible: hi,
    }))
}

/// Probe budget of a [`Certified::prepass`]: false-position probes plus the
/// two that pin the bracket to the envelope zone.
pub const PREPASS_PROBES: u32 = 16;

/// The certified bracket of a monotone threshold search, and the pre-pass
/// that narrows it.
///
/// The search asks "is `v(x) ≤ δ`?" along an axis on which the exact `v`
/// is monotone (ε and the population `n` pass at the high end, the local
/// budget ε₀ at the low end). The probed value may stray from the exact
/// one by an envelope (a fast scan's `exact ≤ fast ≤ exact + G`), so a
/// probe certifies its side only when it clears `δ` by the caller's
/// margin: `v + pass ≤ δ` certifies a pass, `v − fail > δ` a failure.
/// Every point beyond a certified end then lands on the same side.
///
/// 1. **Pre-pass** ([`Certified::prepass`]): false position on
///    `ln v − ln δ` within a fixed probe budget. On a continuous axis a
///    probe inside the uncertified zone stops it, and two probes
///    `4·pass / |dv/dx|` either side pin the bracket to the zone; on an
///    integer axis, where the zone is usually narrower than one step, it
///    runs on to adjacent candidates.
/// 2. **Replay**: the caller runs its unchanged reference sequence (a
///    fixed-iteration bisection, or [`doubling_bisection_u64`]) and takes
///    each decision through [`Certified::decide`], which settles it from the
///    bracket or probes and records it, so the replay takes the reference's
///    decisions bit for bit.
#[derive(Debug, Clone)]
pub struct Certified {
    target: f64,
    ln_target: f64,
    pass_margin: f64,
    fail_margin: f64,
    /// Whether passing points lie at the high end of the axis.
    pass_high: bool,
    /// Whether the axis is the integers (probe points are rounded).
    integer: bool,
    /// `ln(floor / δ)` (see [`Certified::geometric_below`]).
    floor_g: f64,
    /// Largest point certified on the low side; `−∞` until one is.
    lo_c: f64,
    /// Smallest point certified on the high side; `+∞` until one is.
    hi_c: f64,
    /// The latest probes on the low and on the high side of `δ`, as
    /// `(x, ln v − ln δ)`: where false position starts.
    lo_end: Option<(f64, f64)>,
    hi_end: Option<(f64, f64)>,
    /// The previous probe `(x, ln v)`, for secant slopes.
    last: Option<(f64, f64)>,
    /// A probe inside the uncertified zone and the slope `|dv/dx|` there.
    zone: Option<(f64, f64)>,
    /// Set once the pre-pass has pinned the bracket to the zone.
    pinned: bool,
    /// Probes recorded.
    pub probes: u32,
    /// Decisions [`Certified::settled`] with no probe.
    pub pruned: u32,
}

impl Certified {
    /// A search for `v(x) ≤ target` with the given certification margins;
    /// `pass_high` says whether passing points lie at the high end of the
    /// axis.
    pub fn new(target: f64, pass_margin: f64, fail_margin: f64, pass_high: bool) -> Self {
        Self {
            target,
            ln_target: target.ln(),
            pass_margin,
            fail_margin,
            pass_high,
            integer: false,
            floor_g: f64::NEG_INFINITY,
            lo_c: f64::NEG_INFINITY,
            hi_c: f64::INFINITY,
            lo_end: None,
            hi_end: None,
            last: None,
            zone: None,
            pinned: false,
            probes: 0,
            pruned: 0,
        }
    }

    /// Search the integers: pre-pass probes are rounded into the bracket.
    pub fn integer(mut self) -> Self {
        self.integer = true;
        self
    }

    /// While the passing end's value is below `floor` (a scan pad it cannot
    /// fall below), the pre-pass bisects geometrically: false position
    /// stalls on a flat `ln v`.
    pub fn geometric_below(mut self, floor: f64) -> Self {
        self.floor_g = (floor / self.target).ln();
        self
    }

    /// Whether a probe value lands on the high side of the threshold (a
    /// NaN value fails).
    pub fn is_high(&self, v: f64) -> bool {
        (v <= self.target) == self.pass_high
    }

    /// Whether the pre-pass pinned the bracket to the uncertified zone.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// Record the value `v` probed at `x`: certify its side when it is
    /// decisive by the margins, else note the zone probe, and move the
    /// false-position end on its side of `δ`.
    pub fn record(&mut self, x: f64, v: f64) {
        self.probes += 1;
        let ln_v = v.ln();
        if v - self.fail_margin > self.target {
            self.certify(x, !self.pass_high);
        } else if v + self.pass_margin <= self.target {
            self.certify(x, self.pass_high);
        } else {
            let slope = self
                .last
                .map_or(f64::NAN, |(y, ln_u)| v * ((ln_v - ln_u) / (x - y)).abs());
            self.zone = Some((x, slope));
        }
        self.last = Some((x, ln_v));
        let end = Some((x, ln_v - self.ln_target));
        if self.is_high(v) {
            self.hi_end = end;
        } else {
            self.lo_end = end;
        }
    }

    fn certify(&mut self, x: f64, high: bool) {
        if high {
            self.hi_c = self.hi_c.min(x);
        } else {
            self.lo_c = self.lo_c.max(x);
        }
    }

    /// The replay's decision at `x` when the certified bracket settles it:
    /// `Some(true)` on the high side (`x ≥ hi_c`), `Some(false)` on the low
    /// side (`x ≤ lo_c`), `None` when only a probe can tell.
    pub fn settled(&mut self, x: f64) -> Option<bool> {
        if x <= self.lo_c || x >= self.hi_c {
            self.pruned += 1;
            Some(x >= self.hi_c)
        } else {
            None
        }
    }

    /// The replay's decision at `x` (whether it lies on the high side):
    /// [`Certified::settled`] when the bracket settles it, else `probe(x)`,
    /// [`Certified::record`]ed.
    ///
    /// # Errors
    ///
    /// Propagates the error `probe` reports.
    pub fn decide<E>(
        &mut self,
        x: f64,
        probe: impl FnOnce(f64) -> Result<f64, E>,
    ) -> Result<bool, E> {
        if let Some(high) = self.settled(x) {
            return Ok(high);
        }
        let v = probe(x)?;
        self.record(x, v);
        Ok(self.is_high(v))
    }

    /// The pre-pass over `[lo, hi]` (whose ends stand in for missing
    /// probes), spending at most [`PREPASS_PROBES`] probes of `probe`, each
    /// one [`Certified::record`]ed. When the same end moves twice running, the
    /// stale end's value is scaled down (Anderson–Björck), which keeps the
    /// steps superlinear on a strongly curved `ln v`.
    ///
    /// # Errors
    ///
    /// Propagates the first error `probe` reports.
    pub fn prepass<E>(
        &mut self,
        lo: f64,
        hi: f64,
        mut probe: impl FnMut(f64) -> Result<f64, E>,
    ) -> Result<(), E> {
        let low_side_g = if self.pass_high {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        let (mut a, mut ga) = self.lo_end.unwrap_or((lo, low_side_g));
        let (mut b, mut gb) = self.hi_end.unwrap_or((hi, -low_side_g));
        // Which end the previous step moved (`true`: the low one).
        let mut moved_low = None;
        // Two probes of the budget stay reserved for pinning below.
        for _ in 0..PREPASS_PROBES - 2 {
            if self.zone.is_some() && !self.integer {
                break;
            }
            let pass_g = if self.pass_high { gb } else { ga };
            let secant = b - gb * (b - a) / (gb - ga);
            let x = if pass_g < self.floor_g {
                (a * b).sqrt()
            } else if secant > a && secant < b {
                secant
            } else {
                0.5 * (a + b)
            };
            let x = if self.integer {
                x.round().max(a + 1.0).min(b - 1.0)
            } else {
                x
            };
            if !(x > a && x < b) {
                break;
            }
            let v = probe(x)?;
            self.record(x, v);
            let g = v.ln() - self.ln_target;
            if self.is_high(v) {
                if moved_low == Some(false) {
                    let m = 1.0 - g / gb;
                    ga *= if m > 0.0 { m } else { 0.5 };
                }
                (b, gb) = (x, g);
                moved_low = Some(false);
            } else {
                if moved_low == Some(true) {
                    let m = 1.0 - g / ga;
                    gb *= if m > 0.0 { m } else { 0.5 };
                }
                (a, ga) = (x, g);
                moved_low = Some(true);
            }
        }
        // Pin the bracket to the zone: each side's probe lands ~4·pass of δ
        // beyond the zone probe (the zone is narrower than that), so it
        // certifies that side unless the certified end there is already as
        // close, or the probe would leave `[lo, hi]`.
        if let Some((z, slope)) = self.zone.filter(|_| !self.integer) {
            let h = 4.0 * self.pass_margin / slope;
            if h.is_finite() && h > 0.0 {
                if self.lo_c < z - 2.0 * h && z - h > lo {
                    let v = probe(z - h)?;
                    self.record(z - h, v);
                }
                if self.hi_c > z + 2.0 * h && z + h < hi {
                    let v = probe(z + h)?;
                    self.record(z + h, v);
                }
                self.pinned = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::is_close_abs;

    #[test]
    fn bisection_converges_to_threshold() {
        // pred(x) = x >= π.
        let b = bisect_monotone(|x| x >= std::f64::consts::PI, 0.0, 10.0, 60).unwrap();
        assert!(is_close_abs(b.feasible, std::f64::consts::PI, 1e-12));
        assert!(is_close_abs(b.infeasible, std::f64::consts::PI, 1e-12));
        assert!(b.infeasible <= std::f64::consts::PI);
        assert!(b.feasible >= std::f64::consts::PI);
    }

    #[test]
    fn bisection_all_feasible() {
        let b = bisect_monotone(|_| true, 0.0, 8.0, 20).unwrap();
        assert!(b.feasible < 1e-4);
        assert_eq!(b.infeasible, 0.0);
    }

    #[test]
    fn bisection_none_feasible() {
        let b = bisect_monotone(|_| false, 0.0, 8.0, 20).unwrap();
        assert_eq!(b.feasible, 8.0);
        assert!(b.infeasible > 8.0 - 1e-3);
    }

    #[test]
    fn fixed_iteration_budget_is_respected() {
        let mut count = 0usize;
        let _ = bisect_monotone(
            |x| {
                count += 1;
                x > 1.0
            },
            0.0,
            2.0,
            17,
        )
        .unwrap();
        assert_eq!(count, 17);
    }

    #[test]
    fn exponential_bracket_finds_point() {
        let hi = exponential_upper_bracket(|x| x >= 37.0, 1.0, 1e6)
            .unwrap()
            .unwrap();
        assert!((37.0..=64.0).contains(&hi));
        assert_eq!(
            exponential_upper_bracket(|x| x >= 1e9, 1.0, 100.0).unwrap(),
            None
        );
    }

    #[test]
    fn malformed_domains_are_errors_not_panics() {
        // Inverted and NaN bisection brackets.
        assert!(bisect_monotone(|_| true, 2.0, 1.0, 10).is_err());
        assert!(bisect_monotone(|_| true, f64::NAN, 1.0, 10).is_err());
        assert!(bisect_monotone(|_| true, 0.0, f64::NAN, 10).is_err());
        // Degenerate single-point bracket is fine.
        assert!(bisect_monotone(|_| true, 1.0, 1.0, 4).is_ok());
        // Bad growth starts.
        assert!(exponential_upper_bracket(|_| true, 0.0, 10.0).is_err());
        assert!(exponential_upper_bracket(|_| true, -1.0, 10.0).is_err());
        assert!(exponential_upper_bracket(|_| true, f64::NAN, 10.0).is_err());
        assert!(exponential_upper_bracket(|_| true, 2.0, 1.0).is_err());
        assert!(exponential_upper_bracket(|_| true, 2.0, f64::NAN).is_err());
        // The predicate must never be evaluated on a malformed domain.
        let mut calls = 0;
        let _ = bisect_monotone(
            |_| {
                calls += 1;
                true
            },
            5.0,
            1.0,
            10,
        );
        assert_eq!(calls, 0);
    }

    /// Infallible wrapper used by the integer-search tests.
    fn int_pred(f: impl Fn(u64) -> bool) -> impl FnMut(u64) -> Result<bool, SearchError> {
        move |x| Ok(f(x))
    }

    #[test]
    fn doubling_bisection_certifies_adjacent_candidates() {
        for threshold in [1u64, 2, 37, 1_000, 999_983] {
            for start in [1u64, 64, 1 << 20] {
                let b = doubling_bisection_u64(int_pred(|x| x >= threshold), 1, start, 1 << 40)
                    .unwrap()
                    .expect("threshold lies inside the domain");
                assert_eq!(b.first_feasible, threshold);
                // An interior threshold certifies its failing neighbour; at
                // the domain's lower end no infeasible witness exists.
                let want = (threshold > 1).then(|| threshold - 1);
                assert_eq!(b.last_infeasible, want);
            }
        }
        // The floor is the lowest candidate: with floor 0 a passing 0 wins.
        let b = doubling_bisection_u64(int_pred(|_| true), 0, 1, 8)
            .unwrap()
            .unwrap();
        assert_eq!((b.last_infeasible, b.first_feasible), (None, 0));
        // Never feasible up to max, including the single-point domain.
        assert_eq!(
            doubling_bisection_u64(int_pred(|x| x > 100), 1, 5, 100).unwrap(),
            None
        );
        assert_eq!(
            doubling_bisection_u64(int_pred(|_| false), 7, 7, 7).unwrap(),
            None
        );
        // Saturating growth near u64::MAX terminates at max.
        let b = doubling_bisection_u64(int_pred(|x| x == u64::MAX), 1, u64::MAX - 1, u64::MAX)
            .unwrap()
            .unwrap();
        assert_eq!(b.first_feasible, u64::MAX);
    }

    #[test]
    fn doubling_bisection_evaluation_budget_is_logarithmic() {
        let mut calls = 0u32;
        let b = doubling_bisection_u64::<SearchError, _>(
            |x| {
                calls += 1;
                Ok(x >= 123_456)
            },
            1,
            1 << 40,
            1 << 40,
        )
        .unwrap()
        .unwrap();
        assert_eq!(b.first_feasible, 123_456);
        // Three endpoint decisions plus one per halving of a 2^40 interval.
        assert!(calls <= 43, "too many probes: {calls}");
    }

    #[test]
    fn doubling_bisection_reports_malformed_domains_and_propagate_errors() {
        assert!(doubling_bisection_u64(int_pred(|_| true), 1, 0, 10).is_err());
        assert!(doubling_bisection_u64(int_pred(|_| true), 1, 5, 1).is_err());
        assert!(doubling_bisection_u64(int_pred(|_| true), 6, 5, 10).is_err());
        // A predicate that changes its answer is an error, not a witness.
        let mut seen = false;
        let flaky = |x: u64| -> Result<bool, SearchError> {
            let first = x == 4 && !seen;
            seen |= x == 4;
            Ok(first)
        };
        assert!(matches!(
            doubling_bisection_u64(flaky, 1, 4, 8),
            Err(SearchError::NotMonotone(_))
        ));
        // Predicate errors abort the search unchanged.
        let boom = |_x: u64| -> Result<bool, SearchError> { Err(SearchError::new("probe failed")) };
        assert_eq!(
            doubling_bisection_u64(boom, 1, 1, 100),
            Err(SearchError::Domain("probe failed".into()))
        );
        // The predicate is never evaluated on a malformed domain.
        let mut calls = 0;
        let _ = doubling_bisection_u64::<SearchError, _>(
            |_| {
                calls += 1;
                Ok(true)
            },
            1,
            9,
            3,
        );
        assert_eq!(calls, 0);
    }

    /// A monotone `exact(x)` observed through a deterministic envelope
    /// `exact ≤ v ≤ exact + GUARD` that is itself not monotone.
    const GUARD: f64 = 1e-9;
    fn enveloped(exact: f64, x: f64) -> f64 {
        let jitter = (x.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64;
        exact + GUARD * jitter / (1u64 << 53) as f64
    }

    /// The margin rule at its edges: a value within `(δ − pass, δ + fail]`
    /// certifies nothing and is recorded as the zone probe (what pins the
    /// bracket); one step past either edge certifies that side instead.
    #[test]
    fn record_certifies_beyond_the_margins_and_notes_the_zone_inside() {
        let v = 1e-6;
        for (delta, low_certified) in [(v - 2.0 * GUARD, false), (v - 2.1 * GUARD, true)] {
            let mut c = Certified::new(delta, GUARD, 2.0 * GUARD, true);
            c.record(0.5, v);
            assert_eq!(c.lo_c == 0.5, low_certified, "delta = {delta:e}");
            assert_eq!(c.zone.is_some(), !low_certified, "delta = {delta:e}");
            assert_eq!(c.hi_c, f64::INFINITY);
        }
        for (delta, high_certified) in [(v + GUARD, true), ((v + GUARD) * (1.0 - 1e-15), false)] {
            let mut c = Certified::new(delta, GUARD, 2.0 * GUARD, true);
            c.record(0.5, v);
            assert_eq!(c.hi_c == 0.5, high_certified, "delta = {delta:e}");
            assert_eq!(c.zone.is_some(), !high_certified, "delta = {delta:e}");
            assert_eq!(c.lo_c, f64::NEG_INFINITY);
        }
    }

    /// The replay of a reference sequence over a certified bracket takes
    /// every reference decision, on both axis orientations and on the
    /// integers, while probing fewer points.
    #[test]
    fn certified_replay_keeps_every_reference_decision() {
        let delta = 1e-6;
        // Continuous axis, passing high: v(x) = e^{−x} on [0, 40].
        let v = |x: f64| enveloped((-x).exp(), x);
        let reference = bisect_monotone(|x| v(x) <= delta, 0.0, 40.0, 40).unwrap();
        let mut c = Certified::new(delta, GUARD, GUARD, true);
        c.prepass(0.0, 40.0, |x| Ok::<_, SearchError>(v(x)))
            .unwrap();
        let got = bisect_monotone(
            |x| c.decide(x, |x| Ok::<_, SearchError>(v(x))).unwrap(),
            0.0,
            40.0,
            40,
        )
        .unwrap();
        assert_eq!(got, reference);
        assert!(c.pruned > 0 && c.probes < 40, "{c:?}");

        // Continuous axis, passing low: v(x) = e^{x} / 10^9 on [0, 20].
        let v = |x: f64| enveloped(x.exp() * 1e-9, x);
        let reference = bisect_monotone(|x| v(x) > delta, 0.0, 20.0, 40).unwrap();
        let mut c = Certified::new(delta, GUARD, GUARD, false);
        for x in [20.0, 0.0] {
            c.record(x, v(x));
        }
        c.prepass(0.0, 20.0, |x| Ok::<_, SearchError>(v(x)))
            .unwrap();
        let got = bisect_monotone(
            |x| c.decide(x, |x| Ok::<_, SearchError>(v(x))).unwrap(),
            0.0,
            20.0,
            40,
        )
        .unwrap();
        assert_eq!(got, reference);
        assert!(c.pruned > 0);

        // Integer axis: v(n) = e^{−n/100}, pre-pass from two far ends.
        let v = |n: f64| enveloped((-n / 100.0).exp(), n);
        let reference =
            doubling_bisection_u64(int_pred(|n| v(n as f64) <= delta), 1, 1 << 20, 1 << 33)
                .unwrap()
                .unwrap();
        let mut c = Certified::new(delta, GUARD, GUARD, true).integer();
        for n in [1.0, 1_048_576.0] {
            c.record(n, v(n));
        }
        c.prepass(1.0, 1_048_576.0, |n| Ok::<_, SearchError>(v(n)))
            .unwrap();
        let got = doubling_bisection_u64(
            |n| c.decide(n as f64, |x| Ok::<_, SearchError>(v(x))),
            1,
            1 << 20,
            1 << 33,
        )
        .unwrap()
        .unwrap();
        assert_eq!(got, reference);
        // False position reached adjacent certified candidates.
        assert_eq!(
            (c.lo_c + 1.0, c.hi_c),
            (got.first_feasible as f64, got.first_feasible as f64)
        );
    }
}
