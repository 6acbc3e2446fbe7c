//! The `vr-lint` command-line front end.
//!
//! ```text
//! vr-lint --workspace [--root <dir>] [--report <path>] [--quiet]
//! ```
//!
//! Exit codes: `0` no pass findings, `1` pass findings, `2` usage / I/O /
//! lex error.

use std::path::PathBuf;
use std::process::ExitCode;
use vr_lint::{find_workspace_root, lint_workspace};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut workspace = false;
    let mut quiet = false;
    let mut root: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--quiet" => quiet = true,
            "--root" => root = args.next().map(PathBuf::from),
            "--report" => report_path = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("vr-lint: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }

    if !workspace {
        eprintln!("vr-lint: nothing to do (pass --workspace, or --help)");
        return ExitCode::from(2);
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("vr-lint: cannot resolve cwd: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = root.or_else(|| find_workspace_root(&cwd)) else {
        eprintln!("vr-lint: no workspace root found above {}", cwd.display());
        return ExitCode::from(2);
    };

    let (report, sources) = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vr-lint: {e}");
            return ExitCode::from(2);
        }
    };

    // Machine-readable artifact (same convention as the bench artifacts:
    // `results/` under the root, `VR_RESULTS_DIR` override).
    let report_path = report_path.unwrap_or_else(|| {
        match std::env::var("VR_RESULTS_DIR") {
            Ok(dir) => PathBuf::from(dir),
            Err(_) => root.join("results"),
        }
        .join("LINT_report.json")
    });
    if let Some(parent) = report_path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("vr-lint: creating {}: {e}", parent.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(&report_path, report.to_json()) {
        eprintln!("vr-lint: writing {}: {e}", report_path.display());
        return ExitCode::from(2);
    }

    if !quiet {
        eprint!("{}", report.render_diagnostics(&sources));
        let passes = report
            .pass_counts()
            .iter()
            .map(|(p, n)| format!("{p} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "vr-lint: {} files scanned ({} test surfaces skipped); graph {} fns / {} edges / \
             {} unresolved / {} wire seeds; passes: {} ({})",
            report.files.len(),
            report.skipped,
            report.graph_stats.functions,
            report.graph_stats.edges,
            report.graph_stats.unresolved,
            report.graph_stats.wire_seeds,
            passes,
            report_path.display()
        );
    }
    if report.graph.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_help() {
    println!(
        "vr-lint — workspace call-graph checker (panic-reach, lock-order); the\n\
         token-level policies are clippy lints in each crate's [lints.clippy]\n\n\
         USAGE:\n\
         \x20 vr-lint --workspace [--root <dir>] [--report <path>] [--quiet]\n\n\
         OPTIONS:\n\
         \x20 --workspace       run the graph passes over the workspace root\n\
         \x20 --root <dir>      workspace root (default: walk up from cwd)\n\
         \x20 --report <path>   JSON artifact path (default: <root>/results/LINT_report.json,\n\
         \x20                   honoring VR_RESULTS_DIR)\n\
         \x20 --quiet           suppress diagnostics and the summary line\n\n\
         EXIT CODES: 0 clean · 1 pass findings · 2 usage/I-O error"
    );
}
