//! Policy zones and exemption scanning.
//!
//! A *zone* says which rules a file answers to; it is decided purely from
//! the file's workspace-relative path (the policy the repo actually wants
//! is structural: serving boundary, numeric kernels, engine core, plain
//! library code). Within a file, `#[cfg(test)]` / `#[test]` items and all
//! attribute token ranges are *exempt*: rules never match inside them.

use crate::lexer::{Tok, TokKind};
use crate::rules::RuleId;

/// The policy zone a scanned file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zone {
    /// `vr-server` wire/request path: everything a hostile client can
    /// reach. Panic-freedom + float-discipline + poison-discipline +
    /// cast-audit.
    ServerWire,
    /// `vr-numerics`: every routine feeds certified accounting.
    /// Panic-freedom + float-discipline + determinism + poison-discipline.
    Numerics,
    /// `vr-core` result kernel (`engine`, `accountant`, `bound` and
    /// submodules): same contract as numerics.
    CoreKernel,
    /// Rest of `vr-core`: float-discipline + determinism +
    /// poison-discipline (panic-freedom is tracked only for the kernel).
    CoreLib,
    /// `vr-ldp`, `vr-protocols`, the root facade: float-discipline +
    /// poison-discipline.
    Library,
    /// `vr-ledger`: shared accounting state a hostile wire client reaches
    /// through the daemon, holding certified spend totals. Full serving
    /// contract — panic-freedom + float-discipline + poison-discipline +
    /// cast-audit — plus determinism, because charge receipts and
    /// `remaining` answers must be bit-replayable.
    Ledger,
}

impl Zone {
    /// Stable zone name for diagnostics and the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Zone::ServerWire => "server-wire",
            Zone::Numerics => "numerics",
            Zone::CoreKernel => "core-kernel",
            Zone::CoreLib => "core-lib",
            Zone::Library => "library",
            Zone::Ledger => "ledger",
        }
    }

    /// The rules enforced in this zone.
    pub fn rules(self) -> &'static [RuleId] {
        use RuleId::*;
        match self {
            Zone::ServerWire => &[
                UnwrapCall,
                ExpectCall,
                PanicMacro,
                SliceIndex,
                FloatEq,
                LockUnwrap,
                NarrowingCast,
            ],
            Zone::Numerics | Zone::CoreKernel => &[
                UnwrapCall,
                ExpectCall,
                PanicMacro,
                SliceIndex,
                FloatEq,
                LockUnwrap,
                Nondeterminism,
            ],
            Zone::CoreLib => &[FloatEq, LockUnwrap, Nondeterminism],
            Zone::Library => &[FloatEq, LockUnwrap],
            Zone::Ledger => &[
                UnwrapCall,
                ExpectCall,
                PanicMacro,
                SliceIndex,
                FloatEq,
                LockUnwrap,
                NarrowingCast,
                Nondeterminism,
            ],
        }
    }
}

/// Why a file is not scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skip {
    /// Test / bench / example code: panics are assertions there.
    TestSurface,
    /// Exempt crate (vendored compat stand-ins, figure/bench drivers).
    ExemptCrate,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> Result<Zone, Skip> {
    if rel.starts_with("crates/compat/") || rel.starts_with("crates/bench/") {
        return Err(Skip::ExemptCrate);
    }
    if rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
    {
        return Err(Skip::TestSurface);
    }
    if rel.starts_with("crates/server/src/") {
        return Ok(Zone::ServerWire);
    }
    if rel.starts_with("crates/ledger/src/") {
        return Ok(Zone::Ledger);
    }
    if rel.starts_with("crates/numerics/src/") {
        return Ok(Zone::Numerics);
    }
    if let Some(file) = rel.strip_prefix("crates/core/src/") {
        return Ok(
            if file.starts_with("engine") || file == "accountant.rs" || file == "bound.rs" {
                Zone::CoreKernel
            } else {
                Zone::CoreLib
            },
        );
    }
    if rel.starts_with("crates/ldp/src/")
        || rel.starts_with("crates/protocols/src/")
        || rel.starts_with("src/")
    {
        return Ok(Zone::Library);
    }
    // Anything else (lint's own sources included — it lints itself) gets
    // the library baseline.
    Ok(Zone::Library)
}

/// The crate a workspace-relative path belongs to, for report grouping.
pub fn crate_of(rel: &str) -> &str {
    match rel.split('/').nth(1) {
        Some(c) if rel.starts_with("crates/") => c,
        _ => "root",
    }
}

/// Per-token exemption flags: `exempt[i]` is true when `tokens[i]` must be
/// invisible to every rule (attribute contents, `#[cfg(test)]`/`#[test]`
/// items).
pub fn exempt_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut exempt = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct("#") {
            i += 1;
            continue;
        }
        // Outer `#[…]` or inner `#![…]` attribute.
        let open = if tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            i + 1
        } else if tokens.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct("["))
        {
            i + 2
        } else {
            i += 1;
            continue;
        };
        let Some(close) = matching_bracket(tokens, open) else {
            i += 1;
            continue;
        };
        // Attribute contents never face rules.
        for flag in exempt.iter_mut().take(close + 1).skip(i) {
            *flag = true;
        }
        // Test-gating attribute? (`cfg(test)`, `test`, `cfg(all(test, …))` —
        // but never `cfg(not(test))`.)
        let attr = &tokens[open + 1..close];
        let mentions_test = attr.iter().any(|t| t.is_ident("test"));
        let negated = attr.iter().any(|t| t.is_ident("not"));
        if mentions_test && !negated {
            // Exempt through the end of the item this attribute gates.
            let end = item_end(tokens, close + 1);
            for flag in exempt.iter_mut().take(end + 1).skip(close + 1) {
                *flag = true;
            }
            i = end + 1;
            continue;
        }
        i = close + 1;
    }
    exempt
}

/// The lock classes the lock-order pass tracks, in declared acquisition
/// order: a thread holding a class may only acquire classes of *higher*
/// rank. The order mirrors how the serving stack nests today — a shard
/// loop services connections (inbox first), ledger ops pick a stripe and
/// then consult the workload table, and engine evaluation takes the spends
/// map before a spend slot's builder mutex; the evaluator cache and the
/// support-hint cache are leaves that never hold anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockClass {
    /// `vr_server::Shard.inbox` (`Mutex<Vec<TcpStream>>`).
    ShardInbox,
    /// One of the ledger's FNV-picked per-user stripes
    /// (`Mutex<HashMap<u64, Entry>>`).
    LedgerStripe,
    /// The ledger's workload interner (`RwLock<WorkloadTable>`).
    LedgerTable,
    /// The engine's spend-slot map (`RwLock<HashMap<SpendKey, …>>`).
    EngineSpends,
    /// A single spend slot's builder mutex (`SpendSlot.built`).
    SpendSlot,
    /// The engine's evaluator cache (`RwLock<HashMap<EvaluatorKey, …>>`).
    EngineCache,
    /// The engine's support-hint cache (`RwLock<…>`).
    SupportHints,
}

impl LockClass {
    /// Every class, ascending by declared rank.
    pub const ORDER: [LockClass; 7] = [
        LockClass::ShardInbox,
        LockClass::LedgerStripe,
        LockClass::LedgerTable,
        LockClass::EngineSpends,
        LockClass::SpendSlot,
        LockClass::EngineCache,
        LockClass::SupportHints,
    ];

    /// Position in the declared order (lower acquires first).
    pub fn rank(self) -> usize {
        Self::ORDER
            .iter()
            .position(|&c| c == self)
            .unwrap_or(Self::ORDER.len())
    }

    /// Stable name for diagnostics and the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            LockClass::ShardInbox => "shard-inbox",
            LockClass::LedgerStripe => "ledger-stripe",
            LockClass::LedgerTable => "ledger-table",
            LockClass::EngineSpends => "engine-spends",
            LockClass::SpendSlot => "spend-slot",
            LockClass::EngineCache => "engine-cache",
            LockClass::SupportHints => "support-hints",
        }
    }

    /// Classify an acquisition by the identifiers naming the lock at the
    /// call site (receiver path components, or the argument of the free
    /// `lock(…)` helper). Field names are unique across the workspace's
    /// lock-bearing structs, so name matching is exact here — a new lock
    /// field either gets a marker added below or the pass reports it as
    /// unclassified.
    pub fn of_marker(ident: &str) -> Option<LockClass> {
        match ident {
            "inbox" => Some(LockClass::ShardInbox),
            "shards" | "shard_of" | "stripe" => Some(LockClass::LedgerStripe),
            "table" => Some(LockClass::LedgerTable),
            "spends" => Some(LockClass::EngineSpends),
            "built" => Some(LockClass::SpendSlot),
            "cache" => Some(LockClass::EngineCache),
            "support_hints" => Some(LockClass::SupportHints),
            _ => None,
        }
    }
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(tokens: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Index of the last token of the item starting at `start`: skips leading
/// attributes, then runs to the matching `}` of the item's first
/// brace-block, or to a top-level `;` if one comes first (`struct X;`,
/// `use …;`, `type A = …;`).
pub fn item_end(tokens: &[Tok], start: usize) -> usize {
    let mut j = start;
    // Skip further attributes on the same item.
    while tokens.get(j).is_some_and(|t| t.is_punct("#"))
        && tokens.get(j + 1).is_some_and(|t| t.is_punct("["))
    {
        match matching_bracket(tokens, j + 1) {
            Some(close) => j = close + 1,
            None => return tokens.len().saturating_sub(1),
        }
    }
    let mut depth = 0i32;
    let mut saw_brace = false;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ";" if !saw_brace && depth == 0 => return j,
                "{" => {
                    depth += 1;
                    saw_brace = true;
                }
                "}" => {
                    depth -= 1;
                    if saw_brace && depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn zones_by_path() {
        assert_eq!(
            classify("crates/server/src/server.rs"),
            Ok(Zone::ServerWire)
        );
        assert_eq!(
            classify("crates/server/src/bin/vr-query.rs"),
            Ok(Zone::ServerWire)
        );
        assert_eq!(classify("crates/numerics/src/beta.rs"), Ok(Zone::Numerics));
        assert_eq!(classify("crates/core/src/engine.rs"), Ok(Zone::CoreKernel));
        assert_eq!(
            classify("crates/core/src/engine/planner.rs"),
            Ok(Zone::CoreKernel)
        );
        assert_eq!(
            classify("crates/core/src/accountant.rs"),
            Ok(Zone::CoreKernel)
        );
        assert_eq!(classify("crates/core/src/bound.rs"), Ok(Zone::CoreKernel));
        assert_eq!(classify("crates/core/src/renyi.rs"), Ok(Zone::CoreLib));
        assert_eq!(classify("crates/ledger/src/lib.rs"), Ok(Zone::Ledger));
        assert_eq!(classify("crates/ledger/src/csv.rs"), Ok(Zone::Ledger));
        assert_eq!(classify("crates/ldp/src/grr.rs"), Ok(Zone::Library));
        assert_eq!(classify("src/lib.rs"), Ok(Zone::Library));
        assert_eq!(classify("tests/planner.rs"), Err(Skip::TestSurface));
        assert_eq!(
            classify("crates/server/benches/server_load.rs"),
            Err(Skip::TestSurface)
        );
        assert_eq!(
            classify("crates/compat/rand/src/lib.rs"),
            Err(Skip::ExemptCrate)
        );
        assert_eq!(classify("crates/bench/src/lib.rs"), Err(Skip::ExemptCrate));
    }

    #[test]
    fn cfg_test_mod_is_exempt_to_its_closing_brace() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n\
                   fn live2() {}";
        let lexed = lex(src).expect("lexes");
        let mask = exempt_mask(&lexed.tokens);
        let unwraps: Vec<bool> = lexed
            .tokens
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        // Code after the test mod is live again.
        let live2 = lexed
            .tokens
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.is_ident("live2"))
            .expect("present");
        assert!(!live2.1);
    }

    #[test]
    fn test_fn_and_attr_contents_are_exempt_but_not_cfg_not_test() {
        let src = "#[test]\nfn t() { a.unwrap(); }\n\
                   #[cfg(not(test))]\nfn live() { b.unwrap(); }\n\
                   #[derive(Clone)] struct S { v: Vec<u8> }";
        let lexed = lex(src).expect("lexes");
        let mask = exempt_mask(&lexed.tokens);
        let unwraps: Vec<bool> = lexed
            .tokens
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, vec![true, false]);
        // The derive attribute's own tokens are exempt…
        let derive = lexed
            .tokens
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.is_ident("Clone"))
            .expect("present");
        assert!(derive.1);
        // …but the struct body is live.
        let vec_tok = lexed
            .tokens
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.is_ident("Vec"))
            .expect("present");
        assert!(!vec_tok.1);
    }

    #[test]
    fn semicolon_items_end_at_the_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() { c.unwrap(); }";
        let lexed = lex(src).expect("lexes");
        let mask = exempt_mask(&lexed.tokens);
        let unwrap_live = lexed
            .tokens
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.is_ident("unwrap"))
            .expect("present");
        assert!(!unwrap_live.1, "code after the gated use must be live");
    }
}
