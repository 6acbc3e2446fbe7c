//! The item indexer and in-workspace call graph behind the graph passes.
//!
//! # What this is (and is not)
//!
//! A *name-based* call graph built from the lexer's token stream — no type
//! inference, no trait resolution, no macro expansion. That is deliberate:
//! the graph's job is to over-approximate "who can call whom inside this
//! workspace" well enough for reachability-style passes (panic-reach,
//! lock-order), where a spurious edge costs a review glance and a missing
//! edge costs a missed outage path.
//!
//! # Resolution model and its limits
//!
//! * A call site is any identifier immediately followed by `(` that is not
//!   a keyword, not a macro invocation (`name!(…)` never matches — the `!`
//!   sits between the name and the paren), and not the defining occurrence
//!   after `fn`. Method calls (`.name(…)`) and path calls
//!   (`Type::name(…)`) resolve the same way: by the bare final name.
//! * Candidates are every in-workspace `fn` with that name, filtered by
//!   crate visibility: the caller's own crate, plus any workspace crate
//!   whose `vr_*` ident the caller's *file* mentions (a `use vr_core::…`
//!   or a fully-qualified `vr_core::…` path both count). This keeps
//!   common names (`run`, `new`, `get`) from wiring unrelated crates
//!   together while staying an over-approximation within the crates a
//!   file really touches.
//! * A name with **no** in-workspace candidate lands in the per-function
//!   **unresolved bucket** — std and vendored-compat calls mostly. The
//!   bucket is first-class: passes can see exactly what the graph refused
//!   to resolve, and the report counts it, so "the graph said nothing" is
//!   always distinguishable from "the graph proved nothing".
//! * `#[cfg(test)]`/`#[test]` items are indexed but marked exempt: they
//!   are never resolution candidates and never reachability seeds (a test
//!   calling a panicking helper is an assertion, not an outage).
//!
//! Anything fancier (field-sensitive receivers, trait dispatch) belongs in
//! rustc, not here; the explicit unresolved bucket is the honest boundary.

use crate::lexer::{Lexed, Span, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// One scanned file, as the graph passes consume it: path, owning
/// package and its zone, token stream, and the per-token exemption mask.
#[derive(Debug)]
pub struct FileUnit {
    /// Workspace-relative path (forward slashes).
    pub rel: String,
    /// Crate the file belongs to (`core`, `server`, … or `root`).
    pub krate: String,
    /// `[package] name` of the nearest manifest (`vr-server`, …).
    pub package: String,
    /// The package's manifest denies `clippy::unwrap_used`.
    pub panic_free: bool,
    pub lexed: Lexed,
    pub exempt: Vec<bool>,
}

/// One indexed `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// Index into the `FileUnit` slice the graph was built from.
    pub file: usize,
    /// Bare function name (raw-ident prefix preserved).
    pub name: String,
    /// Enclosing `impl` type, when the fn lives in an impl block.
    pub qual: Option<String>,
    /// Span of the name token (diagnostics anchor).
    pub span: Span,
    /// Inclusive token range of the `{…}` body; `None` for bodyless
    /// signatures (trait methods, extern decls).
    pub body: Option<(usize, usize)>,
    /// Inside a `#[cfg(test)]`/`#[test]` item: never a candidate or seed.
    pub exempt: bool,
}

impl FnItem {
    /// `Type::name` or bare `name`, for diagnostics.
    pub fn qualified(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index (into the owning file's stream) of the callee name.
    pub tok: usize,
    /// Resolved in-workspace callees (indices into [`CallGraph::fns`]).
    pub targets: Vec<usize>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnItem>,
    /// Per-function call sites, parallel to `fns`.
    pub calls: Vec<Vec<CallSite>>,
    /// Per-function names that resolved to no in-workspace candidate.
    pub unresolved: Vec<BTreeSet<String>>,
}

/// Keywords (and keyword-like idents) that may precede `(` without being a
/// call: control flow, bindings, tuple-struct `Self`/variant sugar.
fn keyword_not_call(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "match"
            | "return"
            | "for"
            | "loop"
            | "in"
            | "move"
            | "as"
            | "let"
            | "else"
            | "break"
            | "continue"
            | "where"
            | "unsafe"
            | "ref"
            | "mut"
            | "dyn"
            | "impl"
            | "use"
            | "pub"
            | "struct"
            | "enum"
            | "union"
            | "trait"
            | "type"
            | "mod"
            | "const"
            | "static"
            | "extern"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "await"
            | "yield"
            | "box"
            | "fn"
    )
}

/// The `vr_*` ident a workspace crate directory answers to in source.
fn crate_ident(krate: &str) -> String {
    match krate {
        "root" => "shuffle_amplification".to_string(),
        other => format!("vr_{other}"),
    }
}

/// Index of the `}` matching the `{` at `open` (token indices), or the
/// last token when the stream ends unbalanced.
fn matching_brace(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// The `impl` blocks of one file: token range of the body plus the type
/// name the block implements on (best-effort: the first type ident, after
/// `for` when present).
fn impl_blocks(tokens: &[Tok]) -> Vec<(usize, usize, Option<String>)> {
    let mut blocks = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Header runs to the body's `{` (no braces occur in an impl
        // header); an `impl Trait` in fn-return position is preceded by
        // `->` or `(`/`,`/`:` in a signature — cheap disambiguation: only
        // treat `impl` as a block opener when the previous significant
        // token cannot end a type position.
        if i > 0 {
            let prev = &tokens[i - 1];
            let type_position = prev.is_punct("->")
                || prev.is_punct(":")
                || prev.is_punct("(")
                || prev.is_punct(",")
                || prev.is_punct("<")
                || prev.is_punct("&")
                || prev.is_punct("=")
                || prev.is_punct("+");
            if type_position {
                i += 1;
                continue;
            }
        }
        let Some(open_rel) = tokens[i..].iter().position(|t| t.is_punct("{")) else {
            break;
        };
        let open = i + open_rel;
        let close = matching_brace(tokens, open);
        let header = &tokens[i + 1..open];
        let for_pos = header.iter().position(|t| t.is_ident("for"));
        let name_from = for_pos.map_or(0, |p| p + 1);
        let mut angle = 0i64;
        let mut qual = None;
        for t in &header[name_from..] {
            match t.kind {
                TokKind::Punct if t.text == "<" => angle += 1,
                TokKind::Punct if t.text == ">" => angle -= 1,
                TokKind::Ident if angle == 0 && !keyword_not_call(&t.text) => {
                    qual = Some(t.text.clone());
                    break;
                }
                _ => {}
            }
        }
        blocks.push((open, close, qual));
        i = open + 1; // descend: nested impls (rare) still get found
    }
    blocks
}

/// Build the call graph over `files`. Total on any token stream the lexer
/// accepts: unbalanced braces degrade to end-of-file item ranges, never to
/// a panic or an unbounded loop (the proptest suite pins this).
pub fn build(files: &[FileUnit]) -> CallGraph {
    let mut graph = CallGraph::default();

    // Pass 1: index every `fn` item, with its impl qual and body range.
    for (fi, unit) in files.iter().enumerate() {
        let tokens = &unit.lexed.tokens;
        let impls = impl_blocks(tokens);
        let mut i = 0usize;
        while i + 1 < tokens.len() {
            if !(tokens[i].is_ident("fn") && tokens[i + 1].kind == TokKind::Ident) {
                i += 1;
                continue;
            }
            let name_idx = i + 1;
            // Signature runs to the body `{` or a bodyless `;`.
            let mut j = name_idx + 1;
            let mut body = None;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct("{") {
                    body = Some((j, matching_brace(tokens, j)));
                    break;
                }
                if t.is_punct(";") {
                    break;
                }
                j += 1;
            }
            let qual = impls
                .iter()
                .rfind(|&&(open, close, _)| open < name_idx && name_idx < close)
                .and_then(|(_, _, q)| q.clone());
            graph.fns.push(FnItem {
                file: fi,
                name: tokens[name_idx].text.clone(),
                qual,
                span: tokens[name_idx].span,
                body,
                exempt: unit.exempt.get(name_idx).copied().unwrap_or(false),
            });
            i = name_idx + 1;
        }
    }

    // Name → candidate indices (exempt fns are never candidates).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        if !f.exempt {
            by_name.entry(f.name.as_str()).or_default().push(idx);
        }
    }

    // Which workspace crates each file may resolve into: its own, plus any
    // crate whose `vr_*` ident appears anywhere in the file.
    let crate_idents: Vec<(String, String)> = {
        let mut seen = BTreeSet::new();
        files
            .iter()
            .filter(|u| seen.insert(u.krate.clone()))
            .map(|u| (u.krate.clone(), crate_ident(&u.krate)))
            .collect()
    };
    let visible: Vec<BTreeSet<&str>> = files
        .iter()
        .map(|unit| {
            let mut v: BTreeSet<&str> = BTreeSet::new();
            v.insert(unit.krate.as_str());
            for (krate, ident) in &crate_idents {
                if unit.lexed.tokens.iter().any(|t| t.is_ident(ident)) {
                    v.insert(krate.as_str());
                }
            }
            v
        })
        .collect();

    // Sort fn indices per file so innermost-body attribution is cheap.
    let mut fns_of_file: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
    for (idx, f) in graph.fns.iter().enumerate() {
        fns_of_file[f.file].push(idx);
    }

    // Pass 2: call sites, attributed to the innermost enclosing fn body.
    graph.calls = vec![Vec::new(); graph.fns.len()];
    graph.unresolved = vec![BTreeSet::new(); graph.fns.len()];
    for (fi, unit) in files.iter().enumerate() {
        let tokens = &unit.lexed.tokens;
        for i in 0..tokens.len() {
            let is_call = tokens[i].kind == TokKind::Ident
                && !keyword_not_call(&tokens[i].text)
                && tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
                && !(i > 0 && tokens[i - 1].is_ident("fn"));
            if !is_call {
                continue;
            }
            // Innermost fn whose body contains the site.
            let owner = fns_of_file[fi]
                .iter()
                .copied()
                .filter(|&fx| graph.fns[fx].body.is_some_and(|(lo, hi)| lo < i && i <= hi))
                .min_by_key(|&fx| {
                    let (lo, hi) = graph.fns[fx].body.unwrap_or((0, usize::MAX));
                    hi - lo
                });
            let Some(owner) = owner else { continue };
            let name = tokens[i].text.as_str();
            let targets: Vec<usize> = by_name
                .get(name)
                .map(|cands| {
                    cands
                        .iter()
                        .copied()
                        .filter(|&c| {
                            let ck = files[graph.fns[c].file].krate.as_str();
                            visible[fi].contains(ck)
                        })
                        .collect()
                })
                .unwrap_or_default();
            if targets.is_empty() {
                graph.unresolved[owner].insert(name.to_string());
            } else {
                graph.calls[owner].push(CallSite { tok: i, targets });
            }
        }
    }
    graph
}

impl CallGraph {
    /// Total resolved edge count (for the report's graph summary).
    pub fn edge_count(&self) -> usize {
        self.calls
            .iter()
            .flat_map(|sites| sites.iter().map(|s| s.targets.len()))
            .sum()
    }

    /// Distinct unresolved names across every function.
    pub fn unresolved_count(&self) -> usize {
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for bucket in &self.unresolved {
            for n in bucket {
                names.insert(n.as_str());
            }
        }
        names.len()
    }

    /// BFS from `seeds`: for every reachable fn, the index of the fn that
    /// first reached it (`usize::MAX` for seeds themselves). Cycle-safe by
    /// construction (visited set), total on any graph.
    pub fn reach_parents(&self, seeds: &[usize]) -> BTreeMap<usize, usize> {
        use std::collections::btree_map::Entry;
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &s in seeds {
            if s < self.fns.len() {
                if let Entry::Vacant(e) = parent.entry(s) {
                    e.insert(usize::MAX);
                    queue.push(s);
                }
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            for site in &self.calls[cur] {
                for &t in &site.targets {
                    // First visit wins: a second insert would rewrite the
                    // BFS tree and can knot the parent chain into a cycle.
                    if let Entry::Vacant(e) = parent.entry(t) {
                        e.insert(cur);
                        queue.push(t);
                    }
                }
            }
        }
        parent
    }

    /// Human-readable call path from a seed down to `fx`, given the
    /// parent map from [`CallGraph::reach_parents`].
    pub fn path_to(&self, parents: &BTreeMap<usize, usize>, fx: usize) -> String {
        let mut segs: Vec<String> = Vec::new();
        let mut cur = fx;
        // The parent chain is acyclic (BFS tree), but cap it anyway so a
        // corrupted map cannot loop.
        for _ in 0..self.fns.len() + 1 {
            segs.push(self.fns[cur].qualified());
            match parents.get(&cur) {
                Some(&p) if p != usize::MAX => cur = p,
                _ => break,
            }
        }
        segs.reverse();
        // Keep diagnostics readable: show the seed end and the callee end
        // of very deep chains.
        if segs.len() > 8 {
            let tail = segs.split_off(segs.len() - 4);
            segs.truncate(3);
            segs.push("…".to_string());
            segs.extend(tail);
        }
        segs.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::policy::{crate_of, exempt_mask};

    fn unit(rel: &str, src: &str) -> FileUnit {
        let lexed = lex(src).expect("fixture lexes");
        let exempt = exempt_mask(&lexed.tokens);
        FileUnit {
            rel: rel.to_string(),
            krate: crate_of(rel).to_string(),
            package: String::new(),
            panic_free: false,
            lexed,
            exempt,
        }
    }

    #[test]
    fn indexes_fns_with_impl_qual_and_bodies() {
        let files = vec![unit(
            "crates/core/src/x.rs",
            "fn free() {}\nstruct S;\nimpl S {\n fn method(&self) { free(); }\n}\n\
             trait T { fn sig(&self); }",
        )];
        let g = build(&files);
        let names: Vec<String> = g.fns.iter().map(FnItem::qualified).collect();
        assert_eq!(names, vec!["free", "S::method", "sig"]);
        assert!(g.fns[0].body.is_some());
        assert!(g.fns[2].body.is_none());
        // method → free edge resolved; no unresolved names.
        assert_eq!(g.calls[1].len(), 1);
        assert_eq!(g.calls[1][0].targets, vec![0]);
    }

    #[test]
    fn resolution_respects_crate_visibility() {
        let files = vec![
            unit("crates/server/src/a.rs", "fn entry() { helper(); }"),
            unit("crates/core/src/b.rs", "pub fn helper() {}"),
            unit(
                "crates/server/src/c.rs",
                "use vr_core::helper;\nfn entry2() { helper(); }",
            ),
        ];
        let g = build(&files);
        // a.rs never mentions vr_core: `helper` is unresolved there…
        assert!(g.unresolved[0].contains("helper"));
        assert!(g.calls[0].is_empty());
        // …but c.rs imports it, so the cross-crate edge exists.
        let entry2 = g
            .fns
            .iter()
            .position(|f| f.name == "entry2")
            .expect("indexed");
        assert_eq!(g.calls[entry2].len(), 1);
    }

    #[test]
    fn macros_and_keywords_are_not_call_sites() {
        let files = vec![unit(
            "crates/core/src/x.rs",
            "fn f() { if (a) {} ; panic!(\"x\"); return (1); }\nfn a() {}",
        )];
        let g = build(&files);
        assert!(g.calls[0].is_empty(), "{:?}", g.calls[0]);
        // `panic` never enters the unresolved bucket either: the `!` breaks
        // the ident-then-paren pattern.
        assert!(!g.unresolved[0].contains("panic"));
    }

    #[test]
    fn test_items_are_indexed_but_never_candidates_or_owners() {
        let files = vec![unit(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n fn helper() {}\n}\nfn live() { helper(); }",
        )];
        let g = build(&files);
        let live = g
            .fns
            .iter()
            .position(|f| f.name == "live")
            .expect("indexed");
        // The exempt helper is not a candidate: the call is unresolved.
        assert!(g.unresolved[live].contains("helper"));
    }

    #[test]
    fn reachability_is_cycle_safe() {
        let files = vec![unit(
            "crates/core/src/x.rs",
            "fn a() { b(); }\nfn b() { a(); c(); }\nfn c() {}",
        )];
        let g = build(&files);
        let parents = g.reach_parents(&[0]);
        assert_eq!(parents.len(), 3);
        let c = g.fns.iter().position(|f| f.name == "c").expect("indexed");
        let path = g.path_to(&parents, c);
        assert_eq!(path, "a → b → c");
    }
}
