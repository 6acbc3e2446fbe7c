//! Policy zones and exemption scanning.
//!
//! The token-level policies (panic-freedom, float-discipline, determinism,
//! cast-audit, waiver hygiene) are clippy lints, switched on per crate in
//! each manifest's `[lints.clippy]` table. The graph passes read the same
//! tables through [`CrateLints`], so the zone list has one home: a crate
//! is *panic-free* exactly when its manifest denies `clippy::unwrap_used`.
//! Within a file, `#[cfg(test)]` / `#[test]` items and all attribute token
//! ranges are *exempt*: the passes never look inside them.

use crate::lexer::{Span, Tok, TokKind};

/// The package whose non-test functions seed panic-reach: everything a
/// hostile wire client can drive.
pub const WIRE_PACKAGE: &str = "vr-server";

/// What a package's manifest says about it: its name and its zone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrateLints {
    /// `[package] name`.
    pub package: String,
    /// Panic-freedom zone: the `[lints.clippy]` table denies (or forbids)
    /// `unwrap_used`, so clippy already rejects `unwrap`/`expect` here and
    /// panic-reach only has to police the `#[expect]`s.
    pub panic_free: bool,
}

impl CrateLints {
    /// Read the `[package]` name and the `unwrap_used` level from a
    /// `Cargo.toml`. Line-based: both tables are flat `key = value` lists,
    /// and a level is either `"deny"` or an inline `{ level = "deny", … }`.
    pub fn parse(manifest: &str) -> Self {
        let mut lints = CrateLints::default();
        let mut section = "";
        for line in manifest.lines().map(str::trim) {
            if let Some(header) = line.strip_prefix('[') {
                section = header.trim_end_matches(']');
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let quoted = |v: &str| v.split('"').nth(1).map(str::to_string);
            match (section, key.trim()) {
                ("package", "name") => lints.package = quoted(value).unwrap_or_default(),
                ("lints.clippy", "unwrap_used") => {
                    let level = value.split_once("level").map_or(value, |(_, rest)| rest);
                    lints.panic_free = matches!(quoted(level).as_deref(), Some("deny" | "forbid"));
                }
                _ => {}
            }
        }
        lints
    }
}

/// Test, bench and example sources: panics there are assertions, not
/// outages, so the passes never scan them.
pub fn is_test_surface(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

/// The crate a workspace-relative path belongs to, for report grouping.
pub fn crate_of(rel: &str) -> &str {
    match rel.split('/').nth(1) {
        Some(c) if rel.starts_with("crates/") => c,
        _ => "root",
    }
}

/// One `#[…]` or `#![…]` attribute in a token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr {
    /// Index of the `#`.
    pub start: usize,
    /// Index of the opening `[`.
    pub open: usize,
    /// Index of the matching `]`.
    pub close: usize,
}

impl Attr {
    /// `#![…]`: applies to the enclosing item rather than the next one.
    pub fn is_inner(&self) -> bool {
        self.open == self.start + 2
    }

    /// Inclusive token range the attribute governs: itself through the end
    /// of the next item, or the whole file for an inner attribute (exact
    /// at the top of a file, an over-approximation deeper in).
    pub fn scope(&self, tokens: &[Tok]) -> (usize, usize) {
        if self.is_inner() {
            (0, tokens.len().saturating_sub(1))
        } else {
            (self.start, item_end(tokens, self.close + 1))
        }
    }

    /// Does this outer attribute compile its item only under test
    /// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` — never
    /// `cfg(not(test))` or `cfg_attr(test, …)`)?
    pub fn gates_tests(&self, tokens: &[Tok]) -> bool {
        let body = &tokens[self.open + 1..self.close];
        let head = body.first().map(|t| t.text.as_str());
        !self.is_inner()
            && match head {
                Some("test") => true,
                Some("cfg") => {
                    body.iter().any(|t| t.is_ident("test"))
                        && !body.iter().any(|t| t.is_ident("not"))
                }
                _ => false,
            }
    }

    /// The clippy lints this attribute `expect`s (a bare `#[expect(…)]` or
    /// one inside `cfg_attr`), each with the span of its name token.
    pub fn expected_clippy_lints<'t>(&self, tokens: &'t [Tok]) -> Vec<(&'t str, Span)> {
        let body = &tokens[self.open + 1..self.close];
        let Some(from) = body
            .windows(2)
            .position(|w| w[0].is_ident("expect") && w[1].is_punct("("))
        else {
            return Vec::new();
        };
        body[from..]
            .windows(3)
            .filter(|w| w[0].is_ident("clippy") && w[1].is_punct("::"))
            .map(|w| (w[2].text.as_str(), w[2].span))
            .collect()
    }
}

/// Every well-formed attribute in the stream, in source order (including
/// attributes nested inside items).
pub fn attributes(tokens: &[Tok]) -> Vec<Attr> {
    let mut attrs = Vec::new();
    for start in 0..tokens.len() {
        if !tokens[start].is_punct("#") {
            continue;
        }
        let bang = tokens.get(start + 1).is_some_and(|t| t.is_punct("!"));
        let open = start + 1 + usize::from(bang);
        if !tokens.get(open).is_some_and(|t| t.is_punct("[")) {
            continue;
        }
        if let Some(close) = matching_bracket(tokens, open) {
            attrs.push(Attr { start, open, close });
        }
    }
    attrs
}

/// Per-token exemption flags: `exempt[i]` is true when `tokens[i]` must be
/// invisible to the passes (attribute contents, `#[cfg(test)]`/`#[test]`
/// items).
pub fn exempt_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut exempt = vec![false; tokens.len()];
    for attr in attributes(tokens) {
        let (lo, hi) = if attr.gates_tests(tokens) {
            attr.scope(tokens)
        } else {
            (attr.start, attr.close)
        };
        for flag in exempt.iter_mut().take(hi + 1).skip(lo) {
            *flag = true;
        }
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
    fn manifest_lint_tables_decide_the_zone() {
        let lints = CrateLints::parse(
            "[package]\nname = \"vr-x\"\n\n[lib]\nname = \"vr_x\"\n\n\
             [lints.clippy]\n# panic-freedom\nunwrap_used = { level = \"forbid\", priority = 1 }\n\
             disallowed_methods = \"allow\"\n",
        );
        assert_eq!(lints.package, "vr-x");
        assert!(lints.panic_free);
        let warned = "[package]\nname = \"vr-y\"\n[lints.clippy]\nunwrap_used = \"warn\"\n";
        assert!(!CrateLints::parse(warned).panic_free);
        assert!(!CrateLints::parse("[package]\nname = \"vr-z\"\n").panic_free);
    }

    #[test]
    fn test_surfaces_by_path() {
        assert!(is_test_surface("tests/planner.rs"));
        assert!(is_test_surface("crates/server/benches/server_load.rs"));
        assert!(is_test_surface("examples/quickstart.rs"));
        assert!(!is_test_surface("crates/server/src/bin/vr-query.rs"));
        assert_eq!(crate_of("crates/core/src/engine/spend.rs"), "core");
        assert_eq!(crate_of("src/lib.rs"), "root");
    }

    #[test]
    fn expect_attributes_name_their_lints_and_scope() {
        let inner = "#![cfg_attr(test, expect(clippy::float_cmp, reason = \"r\"))]";
        let outer = "#[expect(clippy::unwrap_used, clippy::panic, reason = \"r\")]";
        let src = format!("{inner}\n{outer}\nfn f() {{ a.unwrap(); }}\nfn g() {{}}");
        let lexed = lex(&src).expect("lexes");
        let attrs = attributes(&lexed.tokens);
        assert_eq!(attrs.len(), 2);
        let names = |a: &Attr| -> Vec<String> {
            a.expected_clippy_lints(&lexed.tokens)
                .into_iter()
                .map(|(n, _)| n.to_string())
                .collect()
        };
        assert_eq!(names(&attrs[0]), ["float_cmp"]);
        assert_eq!(names(&attrs[1]), ["unwrap_used", "panic"]);
        assert!(attrs[0].is_inner() && !attrs[0].gates_tests(&lexed.tokens));
        // The outer expect governs `f` and stops before `g`.
        let (_, hi) = attrs[1].scope(&lexed.tokens);
        assert!(lexed.tokens[hi].is_punct("}"));
        assert!(lexed.tokens[hi + 1].is_ident("fn"));
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
