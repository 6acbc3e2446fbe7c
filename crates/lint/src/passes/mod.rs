//! The graph passes: cross-file analyses over the workspace call graph.
//!
//! Each pass consumes the shared [`crate::graph::CallGraph`] plus the
//! per-file token streams and returns [`PassFinding`]s. Pass findings
//! cannot be suppressed — they assert cross-file invariants that no
//! per-site attribute can vouch for — so a true positive is fixed, not
//! annotated.

pub mod lock_order;
pub mod panic_reach;

use crate::graph::{self, FileUnit};
use crate::report::{GraphStats, PassFinding};

/// Run every graph pass over the scanned files.
pub fn run_all(files: &[FileUnit]) -> (Vec<PassFinding>, GraphStats) {
    let graph = graph::build(files);
    let seeds = panic_reach::seeds(files, &graph);
    let stats = GraphStats {
        functions: graph.fns.len(),
        edges: graph.edge_count(),
        unresolved: graph.unresolved_count(),
        wire_seeds: seeds.len(),
    };
    let mut findings = panic_reach::run(files, &graph, &seeds);
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
