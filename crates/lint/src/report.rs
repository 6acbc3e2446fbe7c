//! Diagnostics rendering and the machine-readable `LINT_report.json`
//! artifact (hand-rolled writer — this crate is dependency-free, so it
//! carries its own small JSON emitter in the `vr_server::json` spirit).

use crate::lexer::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One finding from a graph pass (panic-reach, lock-order). Pass findings
/// cannot be suppressed: they assert cross-file invariants, and a per-site
/// attribute cannot vouch for a property of the whole call graph.
#[derive(Debug, Clone)]
pub struct PassFinding {
    /// Workspace-relative path the finding anchors to.
    pub file: String,
    /// The pass that produced it (`panic-reach`, `lock-order`).
    pub pass: &'static str,
    /// Stable finding id (`reachable-panic`, `lock-inversion`,
    /// `lock-double-acquire`).
    pub rule: &'static str,
    pub span: Span,
    pub message: String,
}

/// Call-graph size summary for the report artifact: the unresolved count
/// keeps "the graph proved nothing here" visible instead of silent, and
/// the seed count proves panic-reach found the wire package.
#[derive(Debug, Default, Clone, Copy)]
pub struct GraphStats {
    pub functions: usize,
    pub edges: usize,
    pub unresolved: usize,
    pub wire_seeds: usize,
}

/// The whole run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Workspace-relative paths of the scanned files.
    pub files: Vec<String>,
    /// Test/bench/example files left out of the graph.
    pub skipped: usize,
    /// Packages whose manifest denies `clippy::unwrap_used`.
    pub panic_free_crates: Vec<String>,
    /// Findings from the graph passes.
    pub graph: Vec<PassFinding>,
    pub graph_stats: GraphStats,
}

impl RunReport {
    /// Pass-finding counts keyed by pass name (every pass present, even
    /// when clean, so "zero" is an asserted value rather than an absence).
    pub fn pass_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for pass in ["panic-reach", "lock-order"] {
            counts.insert(pass, 0);
        }
        for f in &self.graph {
            *counts.entry(f.pass).or_insert(0) += 1;
        }
        counts
    }

    /// rustc-style diagnostics for every pass finding.
    pub fn render_diagnostics(&self, sources: &BTreeMap<String, String>) -> String {
        let mut out = String::new();
        for f in &self.graph {
            let _ = writeln!(out, "error[{}/{}]: {}", f.pass, f.rule, f.message);
            let _ = writeln!(out, "  --> {}:{}:{}", f.file, f.span.line, f.span.col);
            if let Some(src) = sources.get(&f.file) {
                if let Some(line) = src.lines().nth(f.span.line as usize - 1) {
                    let _ = writeln!(out, "   | {line}");
                }
            }
        }
        out
    }

    /// The `LINT_report.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        // Same `{"tool":…,"schema":…}` header convention as the
        // `results/BENCH_*.json` artifacts.
        out.push_str("{\"tool\":\"vr-lint\",\"schema\":2,");
        let _ = write!(
            out,
            "\"files_scanned\":{},\"files_skipped\":{},\"panic_free_crates\":[{}],",
            self.files.len(),
            self.skipped,
            self.panic_free_crates
                .iter()
                .map(|c| json_str(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        let g = self.graph_stats;
        let _ = write!(
            out,
            "\"call_graph\":{{\"functions\":{},\"edges\":{},\"unresolved\":{},\"wire_seeds\":{}}},",
            g.functions, g.edges, g.unresolved, g.wire_seeds
        );
        out.push_str("\"passes\":{");
        for (i, (pass, count)) in self.pass_counts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{count}", json_str(pass));
        }
        out.push_str("},\"pass_findings\":[");
        for (i, f) in self.graph.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"file\":{},\"line\":{},\"col\":{},\"pass\":{},\"rule\":{},\"message\":{}}}",
                json_str(&f.file),
                f.span.line,
                f.span.col,
                json_str(f.pass),
                json_str(f.rule),
                json_str(&f.message)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping (ASCII control chars, quote, backslash).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(line: u32, message: &str) -> PassFinding {
        PassFinding {
            file: "crates/x/src/lib.rs".into(),
            pass: "panic-reach",
            rule: "reachable-panic",
            span: Span { line, col: 9 },
            message: message.into(),
        }
    }

    #[test]
    fn json_counts_and_escaping() {
        let report = RunReport {
            files: vec!["crates/x/src/lib.rs".into()],
            skipped: 2,
            panic_free_crates: vec!["vr-x".into()],
            graph: vec![finding(3, "say \"why\"")],
            ..RunReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"tool\":\"vr-lint\",\"schema\":2,"));
        assert!(json.contains("\"files_scanned\":1,\"files_skipped\":2"));
        assert!(json.contains("\"panic_free_crates\":[\"vr-x\"]"));
        assert!(json.contains("\"passes\":{\"lock-order\":0,\"panic-reach\":1}"));
        assert!(json.contains("say \\\"why\\\""));
    }

    #[test]
    fn diagnostics_quote_the_source_line() {
        let mut sources = BTreeMap::new();
        sources.insert(
            "crates/x/src/lib.rs".to_string(),
            "line one\nlet a = b.unwrap();\n".to_string(),
        );
        let report = RunReport {
            graph: vec![finding(2, "reachable")],
            ..RunReport::default()
        };
        let text = report.render_diagnostics(&sources);
        assert!(text.contains("error[panic-reach/reachable-panic]: reachable"));
        assert!(text.contains("--> crates/x/src/lib.rs:2:9"));
        assert!(text.contains("   | let a = b.unwrap();"));
    }
}
