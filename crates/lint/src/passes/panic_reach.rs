//! Panic-reachability: seed the call graph at the wire entry points and
//! report every path that reaches a panicking construct.
//!
//! Seeds are all non-exempt functions of [`WIRE_PACKAGE`] — the protocol
//! dispatch, the shard event loops, the client/CLI surface: the set a
//! hostile peer can drive. Zones come from the manifests' clippy tables
//! ([`crate::policy::CrateLints`]). Two kinds of finding come out:
//!
//! 1. A reachable function in a crate that does **not** deny
//!    `clippy::unwrap_used` whose body contains `.unwrap(…)`,
//!    `.expect(…)` or a panic macro. Clippy is silent there by design;
//!    reachability closes the blindspot.
//! 2. A reachable function covered by an
//!    `#[expect(clippy::unwrap_used)]` or `#[expect(clippy::expect_used)]`
//!    (on the fn, an enclosing item, or a statement in its body). The
//!    expectation vouches for a local invariant, but a hostile request
//!    stream ending at that site is an outage path — the expectation does
//!    not transfer across the graph. (Expected `indexing_slicing`/`panic`
//!    sites stay honored: those reasons state bounding/unreachability
//!    invariants that hold for any caller.)

use crate::graph::{CallGraph, FileUnit};
use crate::lexer::{Span, TokKind};
use crate::policy::{attributes, WIRE_PACKAGE};
use crate::report::PassFinding;

/// Indices of the functions panic-reach seeds from.
pub fn seeds(files: &[FileUnit], graph: &CallGraph) -> Vec<usize> {
    graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.exempt && files[f.file].package == WIRE_PACKAGE && f.body.is_some())
        .map(|(i, _)| i)
        .collect()
}

/// An `expect(clippy::unwrap_used | expect_used)` and what it governs.
#[derive(Clone)]
struct Expectation<'t> {
    /// Inclusive token range governed, in the file the list belongs to.
    from: usize,
    to: usize,
    lint: &'t str,
    /// File and span of the attribute itself.
    anchor: usize,
    span: Span,
}

/// Per file, every unwrap/expect expectation governing some of its tokens.
/// An inner attribute at the top of a crate root (`src/lib.rs`,
/// `src/main.rs`) governs every file of its package.
fn unwrap_expectations(files: &[FileUnit]) -> Vec<Vec<Expectation<'_>>> {
    let mut out = vec![Vec::new(); files.len()];
    for (anchor, unit) in files.iter().enumerate() {
        let tokens = &unit.lexed.tokens;
        let crate_root = unit.rel.ends_with("src/lib.rs") || unit.rel.ends_with("src/main.rs");
        for attr in attributes(tokens) {
            let (from, to) = attr.scope(tokens);
            for (lint, span) in attr.expected_clippy_lints(tokens) {
                if !matches!(lint, "unwrap_used" | "expect_used") {
                    continue;
                }
                let e = Expectation {
                    from,
                    to,
                    lint,
                    anchor,
                    span,
                };
                if crate_root && attr.is_inner() {
                    for (fi, other) in files.iter().enumerate() {
                        if other.package == unit.package {
                            out[fi].push(Expectation {
                                from: 0,
                                to: usize::MAX,
                                ..e.clone()
                            });
                        }
                    }
                } else {
                    out[anchor].push(e);
                }
            }
        }
    }
    out
}

pub fn run(files: &[FileUnit], graph: &CallGraph, seeds: &[usize]) -> Vec<PassFinding> {
    let parents = graph.reach_parents(seeds);
    let expectations = unwrap_expectations(files);

    let mut findings = Vec::new();
    for &fx in parents.keys() {
        let item = &graph.fns[fx];
        let unit = &files[item.file];
        let Some((lo, hi)) = item.body else { continue };
        let tokens = &unit.lexed.tokens;
        let hi = hi.min(tokens.len().saturating_sub(1));

        // Kind 1: direct panicking constructs where clippy is not asked to
        // look.
        if !unit.panic_free {
            for i in lo..=hi {
                if unit.exempt.get(i).copied().unwrap_or(false) {
                    continue;
                }
                let t = &tokens[i];
                if t.kind != TokKind::Ident {
                    continue;
                }
                let method_call = i > 0
                    && tokens[i - 1].is_punct(".")
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && (t.text == "unwrap" || t.text == "expect");
                let panic_macro = tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
                    && matches!(
                        t.text.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    );
                if method_call || panic_macro {
                    let construct = if panic_macro {
                        format!("{}!", t.text)
                    } else {
                        format!(".{}(…)", t.text)
                    };
                    findings.push(PassFinding {
                        file: unit.rel.clone(),
                        pass: "panic-reach",
                        rule: "reachable-panic",
                        span: t.span,
                        message: format!(
                            "`{construct}` in `{}` is wire-reachable: {}",
                            item.qualified(),
                            graph.path_to(&parents, fx)
                        ),
                    });
                }
            }
        }

        // Kind 2: an unwrap/expect expectation governing the reachable body.
        for e in &expectations[item.file] {
            if e.from > hi || e.to < lo {
                continue;
            }
            findings.push(PassFinding {
                file: files[e.anchor].rel.clone(),
                pass: "panic-reach",
                rule: "reachable-panic",
                span: e.span,
                message: format!(
                    "`expect(clippy::{})` covers `{}`, which is wire-reachable (an \
                     expectation does not cross the call graph): {}",
                    e.lint,
                    item.qualified(),
                    graph.path_to(&parents, fx)
                ),
            });
        }
    }

    // A helper can be reached through several seeds/paths; keep one
    // finding per site.
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.span.line, a.span.col).cmp(&(b.file.as_str(), b.span.line, b.span.col))
    });
    findings.dedup_by(|a, b| {
        a.file == b.file && a.span.line == b.span.line && a.span.col == b.span.col
    });
    findings
}
