//! # vr-lint — the workspace's invariant checker
//!
//! A std-only, dependency-free static analysis pass that encodes this
//! repository's house contracts — the properties the certified privacy
//! accounting story rests on — as enforced rules instead of reviewer
//! memory:
//!
//! * **panic-freedom** — "no user query can panic a worker" (PR 4) and
//!   "certified results, not aborts" only hold if the serving path and the
//!   numeric kernels cannot reach `unwrap`/`expect`/`panic!`-family macros
//!   or unchecked indexing.
//! * **float-discipline** — exact bit-equality contracts are deliberate
//!   here (wire round-trip, warm/cold cache equality); *incidental* float
//!   `==` is a bug magnet, so every float comparison must be a waivered,
//!   reasoned exactness guard.
//! * **determinism** — result-producing paths must not read clocks or
//!   entropy; timing flows only through the engine's report plumbing.
//! * **poison-discipline** — lock guards recover via
//!   `unwrap_or_else(PoisonError::into_inner)`, never bare `.unwrap()`.
//! * **cast-audit** — `as` casts on the wire boundary silently truncate;
//!   each one must be a checked conversion or carry a waiver.
//!
//! # Rule → policy → zone table
//!
//! | Rule | Policy | Enforced in |
//! |---|---|---|
//! | `unwrap-call`, `expect-call`, `panic-macro`, `slice-index` | panic-freedom | `vr-server` src, `vr-numerics` src, `vr-core` `engine`/`accountant`/`bound` |
//! | `float-eq` | float-discipline | every vr-* lib crate + root facade |
//! | `nondeterminism` | determinism | `vr-numerics`, all of `vr-core` |
//! | `lock-unwrap` | poison-discipline | every vr-* lib crate + root facade |
//! | `narrowing-cast` | cast-audit | `vr-server` src only |
//!
//! Tests (`#[cfg(test)]` items, `tests/`, `benches/`, `examples/`),
//! the vendored `crates/compat` stand-ins, and the `vr-bench` figure
//! drivers are exempt: a panic there is an assertion, not an outage.
//!
//! # Graph passes
//!
//! Two [`passes`] run over a name-based workspace call graph ([`graph`]):
//! `panic-reach` (no wire entry point reaches a panic site) and
//! `lock-order` (every lock acquisition respects the declared order in
//! [`policy`]). Their findings are never waivable.
//!
//! # Waivers
//!
//! A finding the team decides is *correct code* gets an inline waiver with
//! a written reason (syntax details in [`rules`]):
//!
//! ```text
//! if w == 0.0 { // vr-lint: allow(float-eq) — exact zero-weight guard
//! ```
//!
//! Waivers are inventoried in `lint_waivers.txt` at the workspace root;
//! [`check_waiver_lockfile`] fails when the tree and the lockfile
//! disagree, so the waiver set can only grow through a reviewed diff.

pub mod graph;
pub mod lexer;
pub mod passes;
pub mod policy;
pub mod report;
pub mod rules;

use graph::FileUnit;
use policy::{classify, crate_of, exempt_mask};
use report::{FileReport, PassFinding, RunReport};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// A fatal tool error (I/O, lex failure) — distinct from lint findings.
#[derive(Debug)]
pub struct ToolError(pub String);

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ToolError {}

/// Scan one in-memory source file: token rules plus the retained
/// token-stream unit the graph passes consume.
fn scan_source(rel: &str, source: &str) -> Result<Option<(FileUnit, FileReport)>, ToolError> {
    let zone = match classify(rel) {
        Ok(z) => z,
        Err(_) => return Ok(None),
    };
    let lexed = lexer::lex(source).map_err(|e| ToolError(format!("{rel}: lex error: {e}")))?;
    let exempt = exempt_mask(&lexed.tokens);
    let matched = rules::run(&lexed, &exempt, zone);
    let file_report = FileReport {
        path: rel.to_string(),
        krate: crate_of(rel).to_string(),
        zone: zone.name().to_string(),
        findings: matched.findings,
        waivers: matched.waivers,
    };
    let unit = FileUnit {
        rel: rel.to_string(),
        krate: crate_of(rel).to_string(),
        zone,
        lexed,
        exempt,
    };
    Ok(Some((unit, file_report)))
}

/// Lint one in-memory source file classified at `rel` path (token rules
/// only). The unit the golden-file tests drive directly.
pub fn lint_source(rel: &str, source: &str) -> Result<Option<FileReport>, ToolError> {
    Ok(scan_source(rel, source)?.map(|(_, r)| r))
}

/// Run the graph passes (call-graph build + panic-reach + lock-order) over
/// a set of in-memory sources keyed by workspace-relative path. The entry
/// the pass golden tests drive with fixture mini-workspaces.
pub fn analyze_sources(
    sources: &BTreeMap<String, String>,
) -> Result<(Vec<PassFinding>, report::GraphStats), ToolError> {
    let mut units = Vec::new();
    let mut reports = Vec::new();
    for (rel, source) in sources {
        if let Some((unit, file_report)) = scan_source(rel, source)? {
            units.push(unit);
            reports.push(file_report);
        }
    }
    Ok(passes::run_all(&units, &reports))
}

/// Walk the workspace at `root`, lint every `.rs` file in a policy zone,
/// then run the graph passes over the retained token streams. Returns the
/// run report plus each scanned file's source (for diagnostics rendering).
pub fn lint_workspace(root: &Path) -> Result<(RunReport, BTreeMap<String, String>), ToolError> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)
        .map_err(|e| ToolError(format!("walking {}: {e}", root.display())))?;
    files.sort();

    let mut report = RunReport::default();
    let mut sources = BTreeMap::new();
    let mut units = Vec::new();
    for rel in files {
        let full = root.join(&rel);
        let source = fs::read_to_string(&full)
            .map_err(|e| ToolError(format!("reading {}: {e}", full.display())))?;
        match scan_source(&rel, &source)? {
            Some((unit, file_report)) => {
                sources.insert(rel, source);
                units.push(unit);
                report.files.push(file_report);
            }
            None => report.skipped += 1,
        }
    }
    // `units` and `report.files` are parallel by construction above.
    let (graph_findings, stats) = passes::run_all(&units, &report.files);
    report.graph = graph_findings;
    report.graph_stats = stats;
    Ok((report, sources))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "results") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Compare the tree's waiver inventory against the `lint_waivers.txt`
/// lockfile. `Ok(())` when they agree; `Err` carries a human diff summary.
pub fn check_waiver_lockfile(report: &RunReport, lockfile: &Path) -> Result<(), String> {
    let expected = report.waiver_lockfile();
    let actual = match fs::read_to_string(lockfile) {
        Ok(s) => s,
        Err(_) => {
            return Err(format!(
                "waiver lockfile {} is missing; regenerate with \
                 `cargo run -p vr-lint -- --workspace --write-waivers`",
                lockfile.display()
            ))
        }
    };
    let body = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(str::to_string)
            .collect()
    };
    let (exp, act) = (body(&expected), body(&actual));
    if exp == act {
        return Ok(());
    }
    let added: Vec<&String> = exp.iter().filter(|l| !act.contains(l)).collect();
    let removed: Vec<&String> = act.iter().filter(|l| !exp.contains(l)).collect();
    let mut msg = format!(
        "waiver inventory and {} disagree ({} in tree, {} locked); \
         regenerate with `cargo run -p vr-lint -- --workspace --write-waivers`\n",
        lockfile.display(),
        exp.len(),
        act.len()
    );
    for l in added.iter().take(8) {
        msg.push_str(&format!("  + {l}\n"));
    }
    for l in removed.iter().take(8) {
        msg.push_str(&format!("  - {l}\n"));
    }
    Err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_skips_test_surfaces() {
        assert!(lint_source("tests/foo.rs", "fn f() { x.unwrap(); }")
            .expect("lints")
            .is_none());
        assert!(lint_source("crates/compat/rand/src/lib.rs", "fn f() {}")
            .expect("lints")
            .is_none());
    }

    #[test]
    fn lint_source_reports_zone_and_crate() {
        let r = lint_source("crates/server/src/server.rs", "fn f() { x.unwrap(); }")
            .expect("lints")
            .expect("in zone");
        assert_eq!(r.zone, "server-wire");
        assert_eq!(r.krate, "server");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "unwrap-call");
    }

    #[test]
    fn lockfile_roundtrip_and_mismatch() {
        let r = lint_source(
            "crates/core/src/mixture.rs",
            "fn f() { if w == 0.0 {} } // vr-lint: allow(float-eq) — exact zero-mass guard",
        )
        .expect("lints")
        .expect("in zone");
        let report = RunReport {
            files: vec![r],
            ..RunReport::default()
        };
        let dir = std::env::temp_dir().join("vr-lint-test-lockfile");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let lock = dir.join("lint_waivers.txt");
        std::fs::write(&lock, report.waiver_lockfile()).expect("write lock");
        assert!(check_waiver_lockfile(&report, &lock).is_ok());
        std::fs::write(&lock, "# empty\n").expect("write lock");
        let err = check_waiver_lockfile(&report, &lock).expect_err("must mismatch");
        assert!(err.contains("disagree"));
    }
}
