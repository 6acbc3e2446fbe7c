//! # vr-lint — the workspace's call-graph checker
//!
//! The house contracts the certified privacy accounting rests on are
//! enforced in two layers.
//!
//! **Token-level policies are clippy lints.** Each crate's `Cargo.toml`
//! carries a `[lints.clippy]` table naming the policies it answers to, and
//! the workspace `clippy.toml` configures them; CI runs
//! `cargo clippy --workspace --all-targets -- -D warnings`:
//!
//! | Policy | Clippy lints | Crates |
//! |---|---|---|
//! | panic-freedom | `unwrap_used`, `expect_used`, `panic`, `unreachable`, `todo`, `unimplemented`, `indexing_slicing` | `vr-server`, `vr-ledger`, `vr-numerics`, `vr-core` |
//! | poison-discipline | `unwrap_used`, `expect_used` (lock guards recover via `PoisonError::into_inner`) | same |
//! | float-discipline | `float_cmp` | every `vr-*` lib crate except `vr-bench` |
//! | determinism | `disallowed_methods` (`Instant::now`, `SystemTime::now`) | all but `vr-server`, `vr-bench` and the compat shims |
//! | cast-audit | `cast_possible_truncation`, `cast_precision_loss`, `cast_sign_loss`, `cast_possible_wrap` | `vr-server`, `vr-ledger` |
//! | waiver hygiene | `allow_attributes`, `allow_attributes_without_reason` | every `vr-*` crate and the root facade |
//!
//! A deliberate exception is an `#[expect(clippy::…, reason = "…")]` on
//! the narrowest item rustc accepts; an expectation that suppresses
//! nothing fails the build under `-D warnings`.
//!
//! **Cross-file invariants are this crate.** Clippy sees one function at
//! a time, so two [`passes`] run over a name-based workspace call graph
//! ([`graph`]) built from a std-only [`lexer`]:
//!
//! * `panic-reach` — no wire entry point reaches a panic site in a crate
//!   clippy does not police, or one covered by an unwrap/expect
//!   expectation. Zones come from the same manifest tables
//!   ([`policy::CrateLints`]).
//! * `lock-order` — every lock acquisition respects the declared order in
//!   [`policy::LockClass`].
//!
//! Tests (`#[cfg(test)]` items, `tests/`, `benches/`, `examples/`) are
//! never scanned: a panic there is an assertion, not an outage.

pub mod graph;
pub mod lexer;
pub mod passes;
pub mod policy;
pub mod report;

use graph::FileUnit;
use policy::{crate_of, exempt_mask, is_test_surface, CrateLints};
use report::{GraphStats, PassFinding, RunReport};
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

/// Lex every non-test `.rs` source in `sources` (keyed by workspace-
/// relative path) into a graph unit. `Cargo.toml` entries are manifests:
/// each source takes its package and zone from the nearest one above it.
fn scan(
    sources: &BTreeMap<String, String>,
    report: &mut RunReport,
) -> Result<Vec<FileUnit>, ToolError> {
    let manifests: BTreeMap<&str, CrateLints> = sources
        .iter()
        .filter_map(|(rel, text)| {
            let dir = rel.strip_suffix("Cargo.toml")?;
            Some((dir.trim_end_matches('/'), CrateLints::parse(text)))
        })
        .collect();
    report.panic_free_crates = manifests
        .values()
        .filter(|m| m.panic_free)
        .map(|m| m.package.clone())
        .collect();
    report.panic_free_crates.sort();
    let mut units = Vec::new();
    for (rel, source) in sources.iter().filter(|(rel, _)| rel.ends_with(".rs")) {
        if is_test_surface(rel) {
            report.skipped += 1;
            continue;
        }
        // Nearest enclosing manifest: `crates/x/src/a.rs` tries
        // `crates/x/src`, `crates/x`, `crates`, then the root (`""`).
        let mut dir = rel.as_str();
        let lints = loop {
            dir = dir.rsplit_once('/').map_or("", |(parent, _)| parent);
            if let Some(m) = manifests.get(dir) {
                break m.clone();
            }
            if dir.is_empty() {
                break CrateLints::default();
            }
        };
        let lexed = lexer::lex(source).map_err(|e| ToolError(format!("{rel}: lex error: {e}")))?;
        let exempt = exempt_mask(&lexed.tokens);
        units.push(FileUnit {
            rel: rel.clone(),
            krate: crate_of(rel).to_string(),
            panic_free: lints.panic_free,
            package: lints.package,
            lexed,
            exempt,
        });
        report.files.push(rel.clone());
    }
    Ok(units)
}

/// Run the graph passes (call-graph build + panic-reach + lock-order) over
/// a set of in-memory sources and manifests keyed by workspace-relative
/// path. The entry the pass golden tests drive with fixture
/// mini-workspaces.
pub fn analyze_sources(
    sources: &BTreeMap<String, String>,
) -> Result<(Vec<PassFinding>, GraphStats), ToolError> {
    let units = scan(sources, &mut RunReport::default())?;
    Ok(passes::run_all(&units))
}

/// Walk the workspace at `root`, read every manifest and every `.rs` file,
/// then run the graph passes. Returns the run report plus the sources read
/// (for diagnostics rendering).
pub fn lint_workspace(root: &Path) -> Result<(RunReport, BTreeMap<String, String>), ToolError> {
    let mut files = Vec::new();
    collect_files(root, root, &mut files)
        .map_err(|e| ToolError(format!("walking {}: {e}", root.display())))?;
    let mut sources = BTreeMap::new();
    for rel in files {
        let full = root.join(&rel);
        let source = fs::read_to_string(&full)
            .map_err(|e| ToolError(format!("reading {}: {e}", full.display())))?;
        sources.insert(rel, source);
    }
    let mut report = RunReport::default();
    let units = scan(&sources, &mut report)?;
    (report.graph, report.graph_stats) = passes::run_all(&units);
    Ok((report, sources))
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "results") {
                continue;
            }
            collect_files(root, &path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
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
