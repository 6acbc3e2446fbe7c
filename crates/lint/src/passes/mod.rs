//! The graph passes: cross-file analyses over the workspace call graph.
//!
//! Each pass consumes the shared [`crate::graph::CallGraph`] (plus the
//! per-file token streams and token-rule findings) and returns
//! [`PassFinding`]s. Pass findings are never waivable — they assert
//! cross-file invariants that no per-site comment can vouch for — so a
//! true positive is fixed, not annotated.

pub mod lock_order;
pub mod panic_reach;

use crate::graph::{self, FileUnit};
use crate::report::{FileReport, GraphStats, PassFinding};

/// Run every graph pass over the scanned files. `files` and `reports` are
/// parallel (same construction order in `lint_workspace`).
pub fn run_all(files: &[FileUnit], reports: &[FileReport]) -> (Vec<PassFinding>, GraphStats) {
    let graph = graph::build(files);
    let stats = GraphStats {
        functions: graph.fns.len(),
        edges: graph.edge_count(),
        unresolved: graph.unresolved_count(),
    };
    let mut findings = Vec::new();
    findings.extend(panic_reach::run(files, &graph, reports));
    findings.extend(lock_order::run(files, &graph));
    // Deterministic report order regardless of pass internals.
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.span.line, a.span.col, a.rule).cmp(&(
            b.file.as_str(),
            b.span.line,
            b.span.col,
            b.rule,
        ))
    });
    (findings, stats)
}
