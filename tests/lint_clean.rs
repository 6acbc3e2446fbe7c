//! The workspace-wide lint gate: `vr-lint` over the whole tree must come
//! back clean, the waiver lockfile must match the tree, and the JSON
//! artifact must parse with the house parser. This is the test-suite form
//! of `cargo run -p vr-lint -- --workspace` — CI runs both, so the
//! contract cannot rot even on machines that only ever run `cargo test`.

use std::path::{Path, PathBuf};

use vr_lint::report::RunReport;
use vr_server::Json;

fn workspace_root() -> PathBuf {
    // The root package's manifest dir *is* the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn lint_tree() -> (RunReport, std::collections::BTreeMap<String, String>) {
    vr_lint::lint_workspace(&workspace_root()).expect("lint run must not hit I/O or lex errors")
}

#[test]
fn workspace_is_lint_clean() {
    let (report, sources) = lint_tree();
    // Sanity: the walk saw the real tree, not an empty directory.
    assert!(
        report.files.len() > 20,
        "suspiciously few files scanned ({}) — did the walk break?",
        report.files.len()
    );
    let diagnostics = report.render_diagnostics(&sources);
    assert_eq!(
        report.violation_count(),
        0,
        "the tree must be vr-lint clean; fix or waive (with a reason):\n{diagnostics}"
    );
}

#[test]
fn waiver_lockfile_matches_tree() {
    let (report, _) = lint_tree();
    let lockfile = workspace_root().join("lint_waivers.txt");
    assert!(
        lockfile.is_file(),
        "lint_waivers.txt is missing; regenerate with \
         `cargo run -p vr-lint -- --workspace --write-waivers`"
    );
    if let Err(drift) = vr_lint::check_waiver_lockfile(&report, &lockfile) {
        panic!(
            "waiver inventory drifted from lint_waivers.txt — review the new \
             waivers, then regenerate the lockfile:\n{drift}"
        );
    }
}

#[test]
fn every_waiver_carries_a_reason() {
    let (report, _) = lint_tree();
    let mut total = 0usize;
    for file in &report.files {
        for w in &file.waivers {
            total += 1;
            assert!(
                !w.reason.trim().is_empty(),
                "{}:{} waiver has an empty reason",
                file.path,
                w.span.line
            );
        }
    }
    assert!(
        total > 0,
        "a tree with zero waivers means the scan went wrong"
    );
}

#[test]
fn report_artifact_parses_with_the_house_parser() {
    let (report, _) = lint_tree();
    let doc = Json::parse(&report.to_json()).expect("LINT_report.json output must be valid JSON");
    assert_eq!(doc.get("tool").and_then(Json::as_str), Some("vr-lint"));
    assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("violations").and_then(Json::as_u64), Some(0));
    // The graph passes report alongside the token rules: stats plus a
    // per-pass finding count, all zero on a clean tree.
    let graph = doc.get("call_graph").expect("call_graph section");
    assert!(graph.get("functions").and_then(Json::as_u64).unwrap_or(0) > 100);
    assert!(graph.get("edges").and_then(Json::as_u64).unwrap_or(0) > 100);
    let passes = doc.get("passes").expect("passes section");
    for pass in ["panic-reach", "lock-order"] {
        assert_eq!(
            passes.get(pass).and_then(Json::as_u64),
            Some(0),
            "pass `{pass}` must report zero findings on a clean tree"
        );
    }
    let waivers = doc
        .get("waivers")
        .and_then(Json::as_u64)
        .expect("waiver count field");
    assert!(waivers > 0);
    // The on-disk artifact, when present (written by the CLI run), must
    // agree with a fresh scan on the headline counts.
    let on_disk = workspace_root().join("results/LINT_report.json");
    if let Ok(text) = std::fs::read_to_string(&on_disk) {
        let disk = Json::parse(&text).expect("results/LINT_report.json must parse");
        assert_eq!(
            disk.get("violations").and_then(Json::as_u64),
            Some(0),
            "stale results/LINT_report.json records violations; re-run \
             `cargo run -p vr-lint -- --workspace`"
        );
    }
}

#[test]
fn lockfile_lines_point_at_real_files() {
    // Guards against renames leaving dangling lockfile entries even when
    // counts happen to balance out.
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint_waivers.txt"))
        .expect("lint_waivers.txt must exist");
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let file = line.split_whitespace().next().expect("non-empty line");
        assert!(
            Path::new(&root).join(file).is_file(),
            "lockfile entry points at a missing file: {file}"
        );
    }
}
