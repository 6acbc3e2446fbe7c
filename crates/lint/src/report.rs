//! Diagnostics rendering and the machine-readable `LINT_report.json`
//! artifact (hand-rolled writer — this crate is dependency-free, so it
//! carries its own ~40-line JSON emitter in the `vr_server::json` spirit).

use crate::lexer::Span;
use crate::rules::{Finding, Waiver};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One finding from a graph pass (panic-reach, lock-order).
/// Unlike token-rule findings, pass findings are **never waivable**: they
/// assert cross-file invariants, and a per-site comment cannot vouch for a
/// property of the whole call graph.
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
/// keeps "the graph proved nothing here" visible instead of silent.
#[derive(Debug, Default, Clone, Copy)]
pub struct GraphStats {
    pub functions: usize,
    pub edges: usize,
    pub unresolved: usize,
}

/// Everything one linted file contributed.
#[derive(Debug)]
pub struct FileReport {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Crate the file belongs to (`core`, `server`, … or `root`).
    pub krate: String,
    /// Zone name the file was classified into.
    pub zone: String,
    pub findings: Vec<Finding>,
    pub waivers: Vec<Waiver>,
}

/// The whole run.
#[derive(Debug, Default)]
pub struct RunReport {
    pub files: Vec<FileReport>,
    pub skipped: usize,
    /// Findings from the graph passes (cross-file; never waivable).
    pub graph: Vec<PassFinding>,
    pub graph_stats: GraphStats,
}

impl RunReport {
    /// Findings not covered by a waiver — the ones that fail the build.
    pub fn violations(&self) -> impl Iterator<Item = (&FileReport, &Finding)> {
        self.files
            .iter()
            .flat_map(|f| f.findings.iter().filter(|x| !x.waived).map(move |x| (f, x)))
    }

    pub fn violation_count(&self) -> usize {
        self.violations().count() + self.graph.len()
    }

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

    pub fn waiver_count(&self) -> usize {
        self.files.iter().map(|f| f.waivers.len()).sum()
    }

    /// rustc-style diagnostics for every unwaivered finding.
    pub fn render_diagnostics(&self, sources: &BTreeMap<String, String>) -> String {
        let mut out = String::new();
        for (file, f) in self.violations() {
            let _ = writeln!(out, "error[{}/{}]: {}", f.policy, f.rule, f.message);
            let _ = writeln!(out, "  --> {}:{}:{}", file.path, f.span.line, f.span.col);
            if let Some(src) = sources.get(&file.path) {
                if let Some(line) = src.lines().nth(f.span.line as usize - 1) {
                    let _ = writeln!(out, "   | {line}");
                    let pad: String = line
                        .chars()
                        .take(f.span.col as usize - 1)
                        .map(|c| if c == '\t' { '\t' } else { ' ' })
                        .collect();
                    let _ = writeln!(out, "   | {pad}^");
                }
            }
        }
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

    /// Aggregate counts per rule and per crate, and the waiver inventory,
    /// as the `LINT_report.json` document.
    pub fn to_json(&self) -> String {
        // (rule, policy) -> (violations, waived)
        let mut per_rule: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        let mut per_crate: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for f in &self.files {
            for x in &f.findings {
                let r = per_rule
                    .entry((x.rule.clone(), x.policy.clone()))
                    .or_default();
                let c = per_crate.entry(f.krate.clone()).or_default();
                if x.waived {
                    r.1 += 1;
                    c.1 += 1;
                } else {
                    r.0 += 1;
                    c.0 += 1;
                }
            }
        }

        let mut out = String::new();
        // Same `{"tool":…,"schema":1}` header convention as the
        // `results/BENCH_*.json` artifacts.
        out.push_str("{\"tool\":\"vr-lint\",\"schema\":1,");
        let _ = write!(
            out,
            "\"files_scanned\":{},\"files_skipped\":{},\"violations\":{},\"waivers\":{},",
            self.files.len(),
            self.skipped,
            self.violation_count(),
            self.waiver_count()
        );
        let _ = write!(
            out,
            "\"call_graph\":{{\"functions\":{},\"edges\":{},\"unresolved\":{}}},",
            self.graph_stats.functions, self.graph_stats.edges, self.graph_stats.unresolved
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
        out.push_str("],");
        out.push_str("\"rules\":{");
        for (i, ((rule, policy), (viol, waived))) in per_rule.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"policy\":{},\"violations\":{viol},\"waived\":{waived}}}",
                json_str(rule),
                json_str(policy)
            );
        }
        out.push_str("},\"crates\":{");
        for (i, (krate, (viol, waived))) in per_crate.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"violations\":{viol},\"waived\":{waived}}}",
                json_str(krate)
            );
        }
        out.push_str("},\"violation_sites\":[");
        let mut first = true;
        for (file, f) in self.violations() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{}}}",
                json_str(&file.path),
                f.span.line,
                f.span.col,
                json_str(&f.rule),
                json_str(&f.message)
            );
        }
        out.push_str("],\"waiver_inventory\":[");
        let mut first = true;
        for file in &self.files {
            for w in &file.waivers {
                if !first {
                    out.push(',');
                }
                first = false;
                let rules: Vec<&str> = w.rules.iter().map(|r| r.id()).collect();
                let _ = write!(
                    out,
                    "{{\"file\":{},\"line\":{},\"rules\":[{}],\"scope\":{},\"suppressed\":{},\"reason\":{}}}",
                    json_str(&file.path),
                    w.span.line,
                    rules
                        .iter()
                        .map(|r| json_str(r))
                        .collect::<Vec<_>>()
                        .join(","),
                    json_str(if w.fn_scope { "item" } else { "line" }),
                    w.used,
                    json_str(&w.reason)
                );
            }
        }
        out.push_str("]}");
        out
    }

    /// The `lint_waivers.txt` lockfile body: one sorted line per waiver
    /// site, `<file>:<line> <rules> — <reason>`. Any waiver added, moved
    /// between files, or re-reasoned changes the lockfile, so CI can
    /// demand an explicit regeneration commit.
    pub fn waiver_lockfile(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for file in &self.files {
            for w in &file.waivers {
                let rules: Vec<&str> = w.rules.iter().map(|r| r.id()).collect();
                lines.push(format!("{} {} — {}", file.path, rules.join(","), w.reason));
            }
        }
        lines.sort();
        let mut out = String::from(
            "# vr-lint waiver lockfile — one line per inline waiver in the tree.\n\
             # Regenerate with: cargo run -p vr-lint -- --workspace --write-waivers\n\
             # CI fails when the tree's waivers and this file disagree, so growing\n\
             # the waiver set always shows up as a reviewable diff here.\n",
        );
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
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
    use crate::lexer::Span;
    use crate::rules::Finding;

    fn file_with(findings: Vec<Finding>) -> FileReport {
        FileReport {
            path: "crates/x/src/lib.rs".into(),
            krate: "x".into(),
            zone: "library".into(),
            findings,
            waivers: Vec::new(),
        }
    }

    #[test]
    fn json_counts_and_escaping() {
        let report = RunReport {
            files: vec![file_with(vec![
                Finding {
                    rule: "float-eq".into(),
                    policy: "float-discipline".into(),
                    span: Span { line: 3, col: 9 },
                    message: "say \"why\"".into(),
                    waived: false,
                },
                Finding {
                    rule: "float-eq".into(),
                    policy: "float-discipline".into(),
                    span: Span { line: 4, col: 9 },
                    message: "ok".into(),
                    waived: true,
                },
            ])],
            skipped: 2,
            ..RunReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"tool\":\"vr-lint\",\"schema\":1,"));
        assert!(json.contains("\"violations\":1"));
        assert!(json.contains("\"files_skipped\":2"));
        assert!(json.contains("\"passes\":{\"lock-order\":0,\"panic-reach\":0}"));
        assert!(json.contains(
            "\"float-eq\":{\"policy\":\"float-discipline\",\"violations\":1,\"waived\":1}"
        ));
        assert!(json.contains("say \\\"why\\\""));
    }

    #[test]
    fn diagnostics_point_at_the_column() {
        let mut sources = BTreeMap::new();
        sources.insert(
            "crates/x/src/lib.rs".to_string(),
            "line one\nlet a = w == 0.0;\n".to_string(),
        );
        let report = RunReport {
            files: vec![file_with(vec![Finding {
                rule: "float-eq".into(),
                policy: "float-discipline".into(),
                span: Span { line: 2, col: 11 },
                message: "float compare".into(),
                waived: false,
            }])],
            skipped: 0,
            ..RunReport::default()
        };
        let text = report.render_diagnostics(&sources);
        assert!(text.contains("error[float-discipline/float-eq]: float compare"));
        assert!(text.contains("--> crates/x/src/lib.rs:2:11"));
        let caret_line = text.lines().last().expect("has caret line");
        assert_eq!(caret_line.chars().filter(|&c| c == '^').count(), 1);
        assert_eq!(caret_line.find('^'), Some(5 + 10)); // "   | " + col-1
    }
}
