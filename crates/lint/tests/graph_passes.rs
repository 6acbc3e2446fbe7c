//! Golden fixtures for the graph passes: each seeds one violation the
//! pass exists to catch and asserts the exact finding (pass, rule, file)
//! comes back — plus negative controls proving the pass stays quiet on
//! the compliant variant of the same shape. A final property block
//! hammers the call-graph builder with adversarial token streams and
//! checks totality and cycle-safe reachability.

use proptest::prelude::*;
use std::collections::BTreeMap;

use vr_lint::graph::{self, FileUnit};
use vr_lint::lexer::lex;
use vr_lint::policy::{classify, crate_of, exempt_mask};
use vr_lint::report::PassFinding;

fn analyze(files: &[(&str, &str)]) -> Vec<PassFinding> {
    let sources: BTreeMap<String, String> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    let (findings, _) = vr_lint::analyze_sources(&sources).expect("fixtures lex");
    findings
}

#[test]
fn reachable_unwrap_in_unpoliced_zone_is_found() {
    // `core-lib` has no token-level unwrap rule by design; the pass must
    // flag the unwrap anyway because a wire seed reaches it — and must
    // NOT flag the identical unwrap in the uncalled sibling.
    let findings = analyze(&[
        (
            "crates/server/src/handler.rs",
            "use vr_core::compute_bound;\n\
                 pub fn handle_request() -> f64 {\n    compute_bound(3)\n}\n",
        ),
        (
            "crates/core/src/curves.rs",
            "pub fn compute_bound(x: u64) -> f64 {\n\
                 \x20   Some(x as f64).unwrap()\n}\n\
                 pub fn never_called() -> f64 {\n\
                 \x20   Some(1.0).unwrap()\n}\n",
        ),
    ]);
    let panics: Vec<&PassFinding> = findings
        .iter()
        .filter(|f| f.rule == "reachable-panic")
        .collect();
    assert_eq!(
        panics.len(),
        1,
        "exactly the reachable unwrap must fire: {findings:?}"
    );
    assert_eq!(panics[0].file, "crates/core/src/curves.rs");
    assert_eq!(
        panics[0].span.line, 2,
        "the called fn's unwrap, not the sibling's"
    );
    assert!(
        panics[0].message.contains("handle_request"),
        "message must carry the wire path: {}",
        panics[0].message
    );
}

#[test]
fn waiver_does_not_cross_the_call_graph() {
    // A waived unwrap is fine as a local invariant, but once a wire seed
    // reaches the enclosing fn the waiver must be overridden.
    let findings = analyze(&[
        (
            "crates/server/src/handler.rs",
            "use vr_core::waived_helper;\n\
                 pub fn serve() -> f64 {\n    waived_helper()\n}\n",
        ),
        (
            "crates/core/src/accountant.rs",
            "pub fn waived_helper() -> f64 {\n\
                 \x20   // vr-lint: allow(unwrap-call) — fixture invariant\n\
                 \x20   Some(1.0).unwrap()\n}\n",
        ),
    ]);
    let hit = findings
        .iter()
        .find(|f| f.rule == "reachable-panic")
        .expect("the waived site must resurface as a pass finding");
    assert_eq!(hit.file, "crates/core/src/accountant.rs");
    assert!(
        hit.message
            .contains("a waiver does not cross the call graph"),
        "unexpected message: {}",
        hit.message
    );
}

#[test]
fn lock_inversion_and_double_acquire_are_found_in_order_is_not() {
    let findings = analyze(&[(
        "crates/ledger/src/lib.rs",
        "impl BudgetLedger {\n\
             \x20   fn inverted(&self) {\n\
             \x20       let table = self.table.write();\n\
             \x20       let stripe = self.shards.lock();\n\
             \x20       drop(stripe);\n\
             \x20       drop(table);\n\
             \x20   }\n\
             \x20   fn doubled(&self) {\n\
             \x20       let a = self.table.read();\n\
             \x20       let b = self.table.read();\n\
             \x20       drop(b);\n\
             \x20       drop(a);\n\
             \x20   }\n\
             \x20   fn ordered(&self) {\n\
             \x20       let stripe = self.shards.lock();\n\
             \x20       let table = self.table.write();\n\
             \x20       drop(table);\n\
             \x20       drop(stripe);\n\
             \x20   }\n\
             }\n",
    )]);
    let inversions: Vec<&PassFinding> = findings
        .iter()
        .filter(|f| f.rule == "lock-inversion")
        .collect();
    let doubles: Vec<&PassFinding> = findings
        .iter()
        .filter(|f| f.rule == "lock-double-acquire")
        .collect();
    assert_eq!(inversions.len(), 1, "findings: {findings:?}");
    assert_eq!(
        inversions[0].span.line, 4,
        "the stripe acquisition under the held table lock"
    );
    assert_eq!(doubles.len(), 1, "findings: {findings:?}");
    assert_eq!(doubles[0].span.line, 10, "the second table acquisition");
    // `ordered` (stripe before table, the declared order) must be silent:
    // every finding sits in the first two fns (lines 2..=13).
    assert!(
        findings.iter().all(|f| f.span.line < 14),
        "the compliant fn must produce no findings: {findings:?}"
    );
}

/// Self-contained adversarial snippets: call cycles, malformed items,
/// decoy `fn` tokens inside strings, stray closers, exempt test mods.
const SNIPS: &[&str] = &[
    "fn a() { b(); c(); }",
    "fn b() { a(); }",
    "fn c() { c(); }",
    "impl Foo { fn d(&self) { a(); } }",
    "fn e() { unknown_fn(); vec![1]; }",
    "fn f(",
    "fn g() { if x { a() } else { b() } }",
    "#[cfg(test)] mod tests { fn h() { a(); } }",
    "fn i() { let s = \"fn j() { a(); }\"; }",
    "} } }",
    "fn k() -> fn() { a }",
    "impl {",
];

fn unit(rel: &str, src: &str) -> FileUnit {
    let lexed = lex(src).expect("snippets lex");
    let exempt = exempt_mask(&lexed.tokens);
    FileUnit {
        rel: rel.to_string(),
        krate: crate_of(rel).to_string(),
        zone: classify(rel).expect("fixture path in zone"),
        lexed,
        exempt,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn call_graph_build_is_total_and_cycle_safe(
        picks in (0usize..SNIPS.len(), 0usize..SNIPS.len(), 0usize..SNIPS.len(), 0usize..SNIPS.len()),
        split in 0usize..4,
    ) {
        let (a, b, c, d) = picks;
        let chosen = [SNIPS[a], SNIPS[b], SNIPS[c], SNIPS[d]];
        let (first, second) = chosen.split_at(split);
        let files = vec![
            unit("crates/core/src/adv_a.rs", &first.join("\n")),
            unit("crates/core/src/adv_b.rs", &second.join("\n")),
        ];
        // Totality: arbitrary (even malformed) token streams must build.
        let g = graph::build(&files);
        // Reachability from every fn at once must terminate despite the
        // a↔b and c→c cycles, and every parent chain must render finitely.
        let seeds: Vec<usize> = (0..g.fns.len()).collect();
        let parents = g.reach_parents(&seeds);
        for &fx in parents.keys() {
            let path = g.path_to(&parents, fx);
            prop_assert!(!path.is_empty());
            prop_assert!(
                path.chars().count() < 2_000,
                "parent chain failed to terminate: {path}"
            );
        }
        // Determinism: a second build is structurally identical.
        let g2 = graph::build(&files);
        prop_assert_eq!(g.fns.len(), g2.fns.len());
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        prop_assert_eq!(g.unresolved_count(), g2.unresolved_count());
    }
}
