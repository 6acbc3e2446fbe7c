//! # vr-ledger — sharded per-user privacy-budget accounting
//!
//! Everything the stack served before this crate was stateless one-shot
//! analysis. Real shuffle-DP deployments track **cumulative** per-user
//! spend across adaptive rounds; the paper's composed guarantees (the
//! Rényi extension of Theorem 4.7) are exactly the per-round primitive.
//! [`BudgetLedger`] turns them into a continual-accounting store:
//!
//! * **Lock-striped shards keyed by user id** — entries live in
//!   `shards[h(user)]`, each shard behind its own mutex, so concurrent
//!   charge/remaining traffic on different users rarely contends and the
//!   store scales to millions of entries.
//! * **Rényi spend vectors as the currency** — a charge prices one round
//!   of a workload through the engine's memoized
//!   [`RoundSpend`] seam and records the
//!   round count; `remaining(ε, δ)` recomposes the entry through
//!   [`composed_epsilon_over`], which reproduces the forward
//!   `composed` query's arithmetic **bit for bit** (see
//!   [`vr_core::engine::spend`] for the exactness argument).
//! * **Certified affordability** — "how many more rounds can this user
//!   afford?" reuses the planner's integer monotone search and returns the
//!   same witness-pair certificate.
//! * **CSV import/export** — `user,eps0,n,rounds` or
//!   `user,p,beta,q,n,rounds` rows ([`csv`]) with round-trip-exact float
//!   formatting, so a fleet can snapshot and restore a ledger without
//!   drifting a single bit.
//!
//! Entries are plain `(workload id, rounds)` pairs — the priced spend
//! vectors are shared per workload, not per user, so a million users
//! charging the same mechanism cost one grid evaluation plus ~24 bytes
//! each.
//!
//! ```
//! use vr_core::engine::AnalysisEngine;
//! use vr_core::params::VariationRatio;
//! use vr_ledger::BudgetLedger;
//!
//! let engine = AnalysisEngine::new();
//! let ledger = BudgetLedger::new();
//! let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
//! ledger.charge(&engine, 42, vr, 100_000, 3).unwrap();
//! let status = ledger.remaining(42, 1.0, 1e-8).unwrap();
//! assert!(status.spent > 0.0 && status.remaining < 1.0);
//! // The spent figure IS the forward composed query's answer, bit for bit.
//! let q = vr_core::engine::AmplificationQuery::params(vr)
//!     .population(100_000)
//!     .composed(3, 1e-8)
//!     .build()
//!     .unwrap();
//! let forward = engine.run(&q).unwrap().scalar().unwrap();
//! assert_eq!(status.spent.to_bits(), forward.to_bits());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    expect(clippy::float_cmp, reason = "unit tests pin exact values bit for bit")
)]
#![warn(missing_docs)]

pub mod csv;

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError, RwLock};

use vr_core::engine::{
    affordable_rounds, composed_epsilon_over, Affordability, AnalysisEngine, RoundSpend, SpendKey,
};
use vr_core::error::{Error, Result};
use vr_core::params::VariationRatio;

use std::sync::Arc;

/// Default shard count of [`BudgetLedger::new`] — wide enough that a
/// many-core daemon's connection shards rarely collide on a stripe.
pub const DEFAULT_SHARDS: usize = 128;

/// Hard cap on shard count (must also be a power of two).
pub const MAX_SHARDS: usize = 1 << 16;

/// Hard cap on distinct priced workloads. Entries reference workloads by
/// dense `u32` id; a hostile import stream must exhaust this bound into a
/// structured error, not unbounded memory.
pub const MAX_WORKLOADS: usize = 1 << 20;

/// One user's spend: `(workload id, rounds)` in charge order. Charge order
/// is preserved deliberately — composition sums per-order prices in term
/// order, so replaying the same charges always reproduces the same bits.
type Entry = Vec<(u32, u32)>;

/// The workload side of the ledger: dense ids for every distinct
/// `(p, β, q, n)` priced so far, with the shared per-round spend vectors.
#[derive(Debug, Default)]
struct WorkloadTable {
    ids: HashMap<SpendKey, u32>,
    priced: Vec<PricedWorkload>,
}

/// A priced workload: the parameters (kept for export) and the shared
/// per-round spend vector.
#[derive(Debug, Clone)]
struct PricedWorkload {
    vr: VariationRatio,
    n: u64,
    spend: Arc<RoundSpend>,
}

/// Receipt of a [`BudgetLedger::charge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChargeReceipt {
    /// The charged user.
    pub user: u64,
    /// Rounds now recorded for the charged workload (this charge included).
    pub workload_rounds: u32,
    /// Rounds now recorded across all of the user's workloads.
    pub total_rounds: u64,
    /// Distinct workloads now recorded for the user.
    pub workloads: u64,
}

/// Answer of a [`BudgetLedger::remaining`] query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetStatus {
    /// The queried user.
    pub user: u64,
    /// Composed `ε` spent at the queried `δ` — bit-identical to the
    /// equivalent forward `composed` query; `0.0` for an uncharged user.
    pub spent: f64,
    /// Budget left: `eps − spent` (negative when over budget).
    pub remaining: f64,
    /// Rounds recorded across the user's workloads.
    pub rounds: u64,
    /// Distinct workloads recorded for the user.
    pub workloads: u64,
}

/// Answer of a [`BudgetLedger::affordable_rounds`] query.
#[derive(Debug, Clone, PartialEq)]
pub struct AffordabilityReport {
    /// The probed user.
    pub user: u64,
    /// The certified search outcome (rounds, spent, saturation flag,
    /// witness-pair certificate).
    pub affordability: Affordability,
}

/// Receipt of a [`BudgetLedger::import_rows`] bulk load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImportReceipt {
    /// Rows applied (every row, or none — imports are frame-atomic).
    pub rows: u64,
}

/// The sharded in-memory per-user budget ledger. `&BudgetLedger` is `Sync`:
/// one instance is meant to be shared by every serving thread.
#[derive(Debug)]
pub struct BudgetLedger {
    shards: Box<[Mutex<HashMap<u64, Entry>>]>,
    /// `shards.len() - 1`; the shard count is a power of two.
    mask: u64,
    table: RwLock<WorkloadTable>,
}

impl Default for BudgetLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl BudgetLedger {
    /// A ledger striped over [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        match Self::with_shards(DEFAULT_SHARDS) {
            Ok(ledger) => ledger,
            // DEFAULT_SHARDS satisfies with_shards' domain by construction;
            // fall back to a single stripe rather than panic if it ever
            // stops doing so.
            Err(_) => Self {
                shards: vec![Mutex::new(HashMap::new())].into_boxed_slice(),
                mask: 0,
                table: RwLock::new(WorkloadTable::default()),
            },
        }
    }

    /// A ledger striped over `shards` shards (a power of two in
    /// `[1, MAX_SHARDS]`).
    pub fn with_shards(shards: usize) -> Result<Self> {
        if shards == 0 || shards > MAX_SHARDS || !shards.is_power_of_two() {
            return Err(Error::InvalidParameter(format!(
                "ledger shard count must be a power of two in [1, {MAX_SHARDS}] (got {shards})"
            )));
        }
        let stripes: Vec<Mutex<HashMap<u64, Entry>>> =
            (0..shards).map(|_| Mutex::new(HashMap::new())).collect();
        let mask = u64::try_from(shards)
            .map_err(|_| Error::Internal("shard count exceeded u64".into()))?
            .saturating_sub(1);
        Ok(Self {
            shards: stripes.into_boxed_slice(),
            mask,
            table: RwLock::new(WorkloadTable::default()),
        })
    }

    /// The stripe owning `user`. User ids are mixed through SplitMix64
    /// before masking so sequential ids (the common assignment scheme)
    /// spread across stripes instead of marching through them in lockstep.
    fn shard_of(&self, user: u64) -> Result<&Mutex<HashMap<u64, Entry>>> {
        let mut z = user.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let idx = usize::try_from(z & self.mask).unwrap_or(0);
        // The mask keeps idx < shards.len() (with_shards rejects zero
        // shards and derives the mask from the count); a miss here is a
        // broken invariant, reported instead of indexed around.
        self.shards.get(idx).ok_or_else(|| {
            Error::Internal(format!(
                "stripe index {idx} out of range for {} ledger shards",
                self.shards.len()
            ))
        })
    }

    /// Users currently holding at least one charged round.
    pub fn users(&self) -> u64 {
        let mut total: u64 = 0;
        for stripe in self.shards.iter() {
            let guard = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            total = total.saturating_add(u64::try_from(guard.len()).unwrap_or(u64::MAX));
        }
        total
    }

    /// Distinct workloads priced so far.
    pub fn workloads(&self) -> u64 {
        let table = self.table.read().unwrap_or_else(PoisonError::into_inner);
        u64::try_from(table.priced.len()).unwrap_or(u64::MAX)
    }

    /// Resolve (or price and intern) the workload id for `(vr, n)`. The
    /// spend vector comes from the engine's memoized seam, so a daemon's
    /// forward composed queries and its ledger share one priced state.
    fn workload_id(&self, engine: &AnalysisEngine, vr: VariationRatio, n: u64) -> Result<u32> {
        let key = SpendKey::new(&vr, n);
        {
            let table = self.table.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(&id) = table.ids.get(&key) {
                return Ok(id);
            }
        }
        // Price outside any ledger lock: the grid evaluation is the
        // expensive part and must not serialize unrelated charges.
        let (spend, _) = engine.round_spend(vr, n)?;
        let mut table = self.table.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = table.ids.get(&key) {
            return Ok(id); // another charge interned it meanwhile
        }
        if table.priced.len() >= MAX_WORKLOADS {
            return Err(Error::InvalidParameter(format!(
                "ledger workload table is full ({MAX_WORKLOADS} distinct workloads)"
            )));
        }
        let id = u32::try_from(table.priced.len())
            .map_err(|_| Error::Internal("workload id exceeded u32".into()))?;
        table.priced.push(PricedWorkload { vr, n, spend });
        table.ids.insert(key, id);
        Ok(id)
    }

    /// Snapshot the priced workloads referenced by `terms`.
    fn resolve_terms(&self, terms: &[(u32, u32)]) -> Result<Vec<(Arc<RoundSpend>, u32)>> {
        let table = self.table.read().unwrap_or_else(PoisonError::into_inner);
        terms
            .iter()
            .map(|&(id, rounds)| {
                let priced = usize::try_from(id)
                    .ok()
                    .and_then(|i| table.priced.get(i))
                    .ok_or_else(|| {
                        Error::Internal("ledger entry references an unknown workload id".into())
                    })?;
                Ok((Arc::clone(&priced.spend), rounds))
            })
            .collect()
    }

    /// Composed `ε` of a resolved term list at `delta`; zero recorded
    /// rounds spend nothing (there is no composition to convert).
    fn epsilon_of(resolved: &[(Arc<RoundSpend>, u32)], delta: f64) -> Result<f64> {
        if resolved.iter().all(|&(_, rounds)| rounds == 0) {
            return Ok(0.0);
        }
        let terms: Vec<(&RoundSpend, u32)> = resolved
            .iter()
            .map(|(spend, rounds)| (spend.as_ref(), *rounds))
            .collect();
        composed_epsilon_over(&terms, delta)
    }

    /// Compose `rounds` more rounds of `(vr, n)` onto `user`'s entry.
    ///
    /// # Errors
    ///
    /// Rejects zero rounds, out-of-domain workloads (via the engine's
    /// pricing seam), a full workload table, and a per-workload round
    /// total overflowing the `u32` domain of the forward `composed` query
    /// this entry must stay equivalent to.
    pub fn charge(
        &self,
        engine: &AnalysisEngine,
        user: u64,
        vr: VariationRatio,
        n: u64,
        rounds: u32,
    ) -> Result<ChargeReceipt> {
        if rounds == 0 {
            return Err(Error::InvalidParameter(
                "a charge must add at least one round".into(),
            ));
        }
        let id = self.workload_id(engine, vr, n)?;
        let mut guard = self
            .shard_of(user)?
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = guard.entry(user).or_default();
        let workload_rounds = match entry.iter_mut().find(|(tid, _)| *tid == id) {
            Some((_, existing)) => {
                *existing = existing.checked_add(rounds).ok_or_else(|| {
                    Error::InvalidParameter(format!(
                        "user {user} would exceed {} composed rounds of one workload \
                         (the u32 domain shared with forward composed queries)",
                        u32::MAX
                    ))
                })?;
                *existing
            }
            None => {
                entry.push((id, rounds));
                rounds
            }
        };
        let total_rounds = entry
            .iter()
            .fold(0u64, |acc, &(_, r)| acc.saturating_add(u64::from(r)));
        let workloads = u64::try_from(entry.len()).unwrap_or(u64::MAX);
        Ok(ChargeReceipt {
            user,
            workload_rounds,
            total_rounds,
            workloads,
        })
    }

    /// `user`'s budget position against `(eps, delta)`: composed spend so
    /// far (bit-identical to the equivalent forward `composed` query) and
    /// what remains of `eps`.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or negative `eps` and a `delta` outside
    /// `(0, 1)` — the same domain the forward query builder enforces.
    pub fn remaining(&self, user: u64, eps: f64, delta: f64) -> Result<BudgetStatus> {
        if !eps.is_finite() || eps < 0.0 {
            return Err(Error::InvalidParameter(format!(
                "budget epsilon must be finite and non-negative (got {eps})"
            )));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(Error::InvalidParameter(format!(
                "budget delta must be in (0, 1) (got {delta})"
            )));
        }
        let terms = self.entry_snapshot(user)?;
        let resolved = self.resolve_terms(&terms)?;
        let spent = Self::epsilon_of(&resolved, delta)?;
        let rounds = terms
            .iter()
            .fold(0u64, |acc, &(_, r)| acc.saturating_add(u64::from(r)));
        Ok(BudgetStatus {
            user,
            spent,
            remaining: eps - spent,
            rounds,
            workloads: u64::try_from(terms.len()).unwrap_or(u64::MAX),
        })
    }

    /// How many **more** rounds of `(vr, n)` the user can afford before the
    /// composed spend exceeds `eps` at `delta`, probing the exact
    /// post-charge states through the certified integer search (the
    /// planner hook: the same call answers for a whole cohort by probing
    /// its representative user). `cap` bounds the search.
    ///
    /// # Errors
    ///
    /// Same domains as [`BudgetLedger::remaining`] plus a non-zero `cap`;
    /// workload pricing errors propagate from the engine seam.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the wire op field for field; a params struct would just move the eight names one call-site away"
    )]
    pub fn affordable_rounds(
        &self,
        engine: &AnalysisEngine,
        user: u64,
        vr: VariationRatio,
        n: u64,
        eps: f64,
        delta: f64,
        cap: u32,
    ) -> Result<AffordabilityReport> {
        let id = self.workload_id(engine, vr, n)?;
        let terms = self.entry_snapshot(user)?;
        let mut resolved = self.resolve_terms(&terms)?;
        // The probed workload's slot: its existing term, or a fresh zero-
        // round term appended exactly where a real charge would append it.
        let slot = match terms.iter().position(|&(tid, _)| tid == id) {
            Some(i) => i,
            None => {
                let (spend, _) = engine.round_spend(vr, n)?;
                resolved.push((spend, 0));
                resolved.len() - 1
            }
        };
        let base_rounds = resolved.get(slot).map(|&(_, r)| r).unwrap_or(0);
        // Keep the post-charge state inside the u32 round domain the
        // forward query shares; a saturated cap is reported as such.
        let headroom = u32::MAX - base_rounds;
        let effective_cap = cap.min(headroom);
        let probe = |k: u32| -> Result<f64> {
            let mut probed = resolved.clone();
            let total = base_rounds.checked_add(k).ok_or_else(|| {
                Error::Internal("affordability probe overflowed the round domain".into())
            })?;
            match probed.get_mut(slot) {
                Some(term) => term.1 = total,
                None => {
                    return Err(Error::Internal(
                        "affordability probe lost its workload slot".into(),
                    ))
                }
            }
            Self::epsilon_of(&probed, delta)
        };
        if effective_cap == 0 {
            // No headroom below u32::MAX at all: nothing to search.
            let spent = probe(0)?;
            return Ok(AffordabilityReport {
                user,
                affordability: Affordability {
                    rounds: 0,
                    spent,
                    saturated: true,
                    certificate: None,
                },
            });
        }
        let affordability = affordable_rounds(probe, eps, delta, effective_cap)?;
        Ok(AffordabilityReport {
            user,
            affordability,
        })
    }

    /// Snapshot a user's `(workload id, rounds)` terms (empty if absent).
    fn entry_snapshot(&self, user: u64) -> Result<Entry> {
        let guard = self
            .shard_of(user)?
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(guard.get(&user).cloned().unwrap_or_default())
    }

    /// Export CSV rows (see [`csv`]) for `users`, one row per charged
    /// workload in charge order; users without an entry contribute no rows.
    /// Floats are formatted round-trip-exact, so importing the rows into a
    /// fresh ledger reproduces every `remaining` answer bit for bit.
    pub fn export_users(&self, users: &[u64]) -> Result<Vec<String>> {
        let mut rows = Vec::new();
        for &user in users {
            let terms = self.entry_snapshot(user)?;
            let resolved = {
                let table = self.table.read().unwrap_or_else(PoisonError::into_inner);
                terms
                    .iter()
                    .map(|&(id, rounds)| {
                        usize::try_from(id)
                            .ok()
                            .and_then(|i| table.priced.get(i))
                            .map(|priced| (priced.vr, priced.n, rounds))
                            .ok_or_else(|| {
                                Error::Internal(
                                    "ledger entry references an unknown workload id".into(),
                                )
                            })
                    })
                    .collect::<Result<Vec<_>>>()?
            };
            for (vr, n, rounds) in resolved {
                rows.push(csv::format_row(user, &vr, n, rounds));
            }
        }
        Ok(rows)
    }

    /// Bulk-load CSV rows (see [`csv`] for the two accepted layouts).
    /// Frame-atomic: every row is parsed and its workload priced **before**
    /// any charge is applied, so a malformed row rejects the whole batch
    /// with its row number and leaves the ledger untouched.
    pub fn import_rows<'a, I>(&self, engine: &AnalysisEngine, rows: I) -> Result<ImportReceipt>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut parsed: Vec<(u64, VariationRatio, u64, u32)> = Vec::new();
        for (i, row) in rows.into_iter().enumerate() {
            let rec = csv::parse_row(row).map_err(|e| {
                Error::InvalidParameter(format!("import row {}: {e}", i.saturating_add(1)))
            })?;
            parsed.push(rec);
        }
        // Price every workload up front (also validates them) so the apply
        // loop below cannot fail halfway through.
        for &(_, vr, n, _) in &parsed {
            self.workload_id(engine, vr, n).map_err(|e| {
                Error::InvalidParameter(format!("import workload ({vr:?}, n = {n}): {e}"))
            })?;
        }
        let mut applied: u64 = 0;
        for &(user, vr, n, rounds) in &parsed {
            self.charge(engine, user, vr, n, rounds)?;
            applied = applied.saturating_add(1);
        }
        Ok(ImportReceipt { rows: applied })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_core::engine::AmplificationQuery;

    fn wc(eps0: f64) -> VariationRatio {
        VariationRatio::ldp_worst_case(eps0).unwrap()
    }

    fn forward_composed(
        engine: &AnalysisEngine,
        vr: VariationRatio,
        n: u64,
        rounds: u32,
        delta: f64,
    ) -> f64 {
        let q = AmplificationQuery::params(vr)
            .population(n)
            .composed(rounds, delta)
            .build()
            .unwrap();
        engine.run(&q).unwrap().scalar().unwrap()
    }

    #[test]
    fn charge_then_remaining_is_bit_identical_to_forward_composed() {
        let engine = AnalysisEngine::new();
        let ledger = BudgetLedger::new();
        let vr = wc(1.0);
        let n = 50_000;
        // Charge in uneven increments; the entry tracks the total.
        for rounds in [1u32, 3, 2, 10] {
            ledger.charge(&engine, 7, vr, n, rounds).unwrap();
        }
        for delta in [1e-6, 1e-9] {
            let status = ledger.remaining(7, 2.0, delta).unwrap();
            let forward = forward_composed(&engine, vr, n, 16, delta);
            assert_eq!(status.spent.to_bits(), forward.to_bits());
            assert_eq!(status.remaining.to_bits(), (2.0 - forward).to_bits());
            assert_eq!(status.rounds, 16);
        }
    }

    #[test]
    fn uncharged_user_spends_nothing() {
        let ledger = BudgetLedger::new();
        let status = ledger.remaining(999, 1.5, 1e-8).unwrap();
        assert_eq!(status.spent, 0.0);
        assert_eq!(status.remaining, 1.5);
        assert_eq!(status.rounds, 0);
        assert_eq!(ledger.users(), 0);
    }

    #[test]
    fn multi_workload_entries_compose_in_charge_order() {
        let engine = AnalysisEngine::new();
        let ledger = BudgetLedger::new();
        ledger.charge(&engine, 1, wc(1.0), 10_000, 2).unwrap();
        ledger.charge(&engine, 1, wc(0.5), 20_000, 4).unwrap();
        let status = ledger.remaining(1, 3.0, 1e-7).unwrap();
        assert!(status.spent.is_finite() && status.spent > 0.0);
        assert_eq!(status.workloads, 2);
        assert_eq!(status.rounds, 6);
        // A replay in the same order reproduces the bits exactly.
        let replay = BudgetLedger::new();
        replay.charge(&engine, 1, wc(1.0), 10_000, 2).unwrap();
        replay.charge(&engine, 1, wc(0.5), 20_000, 4).unwrap();
        let rep = replay.remaining(1, 3.0, 1e-7).unwrap();
        assert_eq!(rep.spent.to_bits(), status.spent.to_bits());
    }

    #[test]
    fn charge_domain_errors() {
        let engine = AnalysisEngine::new();
        let ledger = BudgetLedger::new();
        assert!(ledger.charge(&engine, 1, wc(1.0), 10_000, 0).is_err());
        assert!(ledger.charge(&engine, 1, wc(1.0), 0, 1).is_err());
        assert!(ledger.remaining(1, f64::NAN, 1e-8).is_err());
        assert!(ledger.remaining(1, 1.0, 1.5).is_err());
        assert!(BudgetLedger::with_shards(3).is_err());
        assert!(BudgetLedger::with_shards(0).is_err());
        // Round overflow of one workload is rejected, entry unchanged.
        ledger
            .charge(&engine, 2, wc(1.0), 10_000, u32::MAX)
            .unwrap();
        assert!(ledger.charge(&engine, 2, wc(1.0), 10_000, 1).is_err());
        let status = ledger.remaining(2, 1.0, 1e-8).unwrap();
        assert_eq!(status.rounds, u64::from(u32::MAX));
    }

    #[test]
    fn affordable_rounds_matches_post_charge_remaining() {
        let engine = AnalysisEngine::new();
        let ledger = BudgetLedger::new();
        let vr = wc(1.0);
        let n = 100_000;
        let delta = 1e-8;
        ledger.charge(&engine, 5, vr, n, 4).unwrap();
        // Budget exactly at 9 total rounds: 5 more affordable.
        let budget = forward_composed(&engine, vr, n, 9, delta);
        let report = ledger
            .affordable_rounds(&engine, 5, vr, n, budget, delta, 1 << 16)
            .unwrap();
        assert_eq!(report.affordability.rounds, 5);
        let cert = report.affordability.certificate.unwrap();
        assert_eq!(cert.passing, 5.0);
        assert_eq!(cert.failing, Some(6.0));
        // The certified edge is forward-checkable through charge+remaining.
        ledger.charge(&engine, 5, vr, n, 5).unwrap();
        let at_edge = ledger.remaining(5, budget, delta).unwrap();
        assert!(at_edge.remaining >= 0.0);
        ledger.charge(&engine, 5, vr, n, 1).unwrap();
        let past_edge = ledger.remaining(5, budget, delta).unwrap();
        assert!(past_edge.remaining < 0.0);
    }

    #[test]
    fn affordability_for_fresh_user_matches_forward_composed_domain() {
        let engine = AnalysisEngine::new();
        let ledger = BudgetLedger::new();
        let vr = wc(2.0);
        let n = 10_000;
        let delta = 1e-6;
        let budget = forward_composed(&engine, vr, n, 3, delta);
        let report = ledger
            .affordable_rounds(&engine, 404, vr, n, budget, delta, 1024)
            .unwrap();
        assert_eq!(report.affordability.rounds, 3);
        assert_eq!(report.affordability.spent, 0.0);
        assert_eq!(ledger.users(), 0, "probing must not materialize entries");
    }

    #[test]
    fn concurrent_charges_never_drift() {
        let engine = AnalysisEngine::new();
        let ledger = BudgetLedger::new();
        let vr = wc(1.0);
        let n = 10_000;
        // Warm the workload once so threads only exercise the shard path.
        ledger.charge(&engine, u64::MAX, vr, n, 1).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let (ledger, engine) = (&ledger, &engine);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        // Disjoint users per thread, plus a shared hot user.
                        // Offset past 42 so no private range collides with it.
                        ledger
                            .charge(engine, 100 + t * 1_000 + i, vr, n, 1)
                            .unwrap();
                        ledger.charge(engine, 42, vr, n, 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(ledger.users(), 8 * 500 + 2); // +shared user, +warmup user
        let shared = ledger.remaining(42, 10.0, 1e-8).unwrap();
        assert_eq!(shared.rounds, 8 * 500);
        let forward = forward_composed(&engine, vr, n, 4_000, 1e-8);
        assert_eq!(shared.spent.to_bits(), forward.to_bits());
    }

    #[test]
    fn export_import_round_trips_bit_exactly() {
        let engine = AnalysisEngine::new();
        let ledger = BudgetLedger::new();
        ledger.charge(&engine, 1, wc(1.0), 10_000, 3).unwrap();
        ledger.charge(&engine, 1, wc(0.25), 5_000, 7).unwrap();
        ledger.charge(&engine, 2, wc(1.0), 10_000, 11).unwrap();
        let rows = ledger.export_users(&[1, 2, 3]).unwrap();
        assert_eq!(rows.len(), 3, "user 3 has no entry, two users have rows");
        let restored = BudgetLedger::new();
        let receipt = restored
            .import_rows(&engine, rows.iter().map(String::as_str))
            .unwrap();
        assert_eq!(receipt.rows, 3);
        for user in [1u64, 2] {
            let a = ledger.remaining(user, 4.0, 1e-9).unwrap();
            let b = restored.remaining(user, 4.0, 1e-9).unwrap();
            assert_eq!(a.spent.to_bits(), b.spent.to_bits());
            assert_eq!(a.rounds, b.rounds);
        }
    }

    #[test]
    fn import_is_frame_atomic() {
        let engine = AnalysisEngine::new();
        let ledger = BudgetLedger::new();
        let rows = ["1,1.0,1000,2", "not-a-row"];
        let err = ledger.import_rows(&engine, rows).unwrap_err();
        assert!(format!("{err}").contains("row 2"), "{err}");
        assert_eq!(ledger.users(), 0, "bad batch must apply nothing");
        // Out-of-domain workloads are also caught before any apply.
        let rows = ["1,1.0,1000,2", "2,1.0,0,1"];
        assert!(ledger.import_rows(&engine, rows).is_err());
        assert_eq!(ledger.users(), 0);
    }
}
