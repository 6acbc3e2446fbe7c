//! The workspace-wide lint gates: clippy with the per-crate policy tables
//! must come back clean under `-D warnings`, the `vr-lint` graph passes
//! must find nothing, and the JSON artifact must parse with the house
//! parser. This is the test-suite form of the CI lint jobs, so the
//! contracts cannot rot even on machines that only ever run `cargo test`.

use std::path::PathBuf;
use std::process::Command;

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
fn workspace_is_clippy_clean() {
    // Its own target dir, so the nested cargo never waits on the lock of
    // the build that is running this test.
    let root = workspace_root();
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--workspace", "--all-targets", "--"])
        .args(["-D", "warnings"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join("target/clippy-gate"))
        .output()
        .expect("cargo clippy must launch");
    assert!(
        out.status.success(),
        "the tree must be clippy clean under the per-crate [lints.clippy] tables; fix the \
         finding or put a reasoned #[expect(clippy::…, reason = \"…\")] on the narrowest item:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
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
    assert!(
        report.graph_stats.wire_seeds > 0,
        "panic-reach found no vr-server entry points — did the manifest read break?"
    );
    assert_eq!(
        report.panic_free_crates,
        ["vr-core", "vr-ledger", "vr-numerics", "vr-server"],
        "the panic-free zone is the crates whose manifest denies clippy::unwrap_used"
    );
    assert!(
        report.graph.is_empty(),
        "graph-pass findings cannot be suppressed; fix the code:\n{}",
        report.render_diagnostics(&sources)
    );
}

#[test]
fn report_artifact_parses_with_the_house_parser() {
    let (report, _) = lint_tree();
    let doc = Json::parse(&report.to_json()).expect("LINT_report.json output must be valid JSON");
    assert_eq!(doc.get("tool").and_then(Json::as_str), Some("vr-lint"));
    assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(2));
    // Graph stats plus a per-pass finding count, all zero on a clean tree.
    let graph = doc.get("call_graph").expect("call_graph section");
    assert!(graph.get("functions").and_then(Json::as_u64).unwrap_or(0) > 100);
    assert!(graph.get("edges").and_then(Json::as_u64).unwrap_or(0) > 100);
    assert!(graph.get("wire_seeds").and_then(Json::as_u64).unwrap_or(0) > 0);
    let passes = doc.get("passes").expect("passes section");
    for pass in ["panic-reach", "lock-order"] {
        assert_eq!(
            passes.get(pass).and_then(Json::as_u64),
            Some(0),
            "pass `{pass}` must report zero findings on a clean tree"
        );
    }
    // The on-disk artifact, when present (written by the CLI run), must
    // agree with a fresh scan on the headline counts.
    let on_disk = workspace_root().join("results/LINT_report.json");
    if let Ok(text) = std::fs::read_to_string(&on_disk) {
        let disk = Json::parse(&text).expect("results/LINT_report.json must parse");
        if disk.get("schema").and_then(Json::as_u64) == Some(2) {
            assert_eq!(
                disk.get("pass_findings")
                    .and_then(Json::as_arr)
                    .map(<[Json]>::len),
                Some(0),
                "stale results/LINT_report.json records pass findings; re-run \
                 `cargo run -p vr-lint -- --workspace`"
            );
        }
    }
}
