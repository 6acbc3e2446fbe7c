//! The `vr-lint` command-line front end.
//!
//! ```text
//! vr-lint --workspace [--root <dir>] [--report <path>] [--write-waivers] [--quiet]
//! vr-lint --list-rules
//! ```
//!
//! Exit codes: `0` clean (no unwaivered findings, lockfile in sync),
//! `1` violations or lockfile drift, `2` usage / I/O / lex error.

use std::path::PathBuf;
use std::process::ExitCode;
use vr_lint::rules::RuleId;
use vr_lint::{check_waiver_lockfile, find_workspace_root, lint_workspace};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut workspace = false;
    let mut list_rules = false;
    let mut write_waivers = false;
    let mut quiet = false;
    let mut root: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--list-rules" => list_rules = true,
            "--write-waivers" => write_waivers = true,
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

    if list_rules {
        println!("{:<16} {:<18} description", "rule", "policy");
        for r in RuleId::ALL {
            println!(
                "{:<16} {:<18} see `vr_lint::rules` rustdoc",
                r.id(),
                r.policy()
            );
        }
        println!(
            "{:<16} {:<18} graph passes (see `vr_lint::passes` rustdoc)",
            "—", "—"
        );
        for (pass, rules) in [
            ("panic-reach", "reachable-panic"),
            ("lock-order", "lock-inversion, lock-double-acquire"),
        ] {
            println!("{:<16} {:<18} {rules}", pass, "graph");
        }
        return ExitCode::SUCCESS;
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

    // Waiver lockfile: regenerate or verify.
    let lockfile = root.join("lint_waivers.txt");
    let mut lock_ok = true;
    if write_waivers {
        if let Err(e) = std::fs::write(&lockfile, report.waiver_lockfile()) {
            eprintln!("vr-lint: writing {}: {e}", lockfile.display());
            return ExitCode::from(2);
        }
        if !quiet {
            println!(
                "vr-lint: wrote {} waivers to {}",
                report.waiver_count(),
                lockfile.display()
            );
        }
    } else if let Err(msg) = check_waiver_lockfile(&report, &lockfile) {
        eprintln!("vr-lint: {msg}");
        lock_ok = false;
    }

    let violations = report.violation_count();
    if violations > 0 && !quiet {
        eprint!("{}", report.render_diagnostics(&sources));
    }
    if !quiet {
        let passes = report
            .pass_counts()
            .iter()
            .map(|(p, n)| format!("{p} {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "vr-lint: {} files scanned ({} exempt), {} violations, {} waivers; \
             graph {} fns / {} edges / {} unresolved; passes: {} ({})",
            report.files.len(),
            report.skipped,
            violations,
            report.waiver_count(),
            report.graph_stats.functions,
            report.graph_stats.edges,
            report.graph_stats.unresolved,
            passes,
            report_path.display()
        );
    }
    if violations == 0 && lock_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_help() {
    println!(
        "vr-lint — workspace invariant checker (panic-freedom, float-discipline,\n\
         determinism, poison-discipline, cast-audit)\n\n\
         USAGE:\n\
         \x20 vr-lint --workspace [--root <dir>] [--report <path>] [--write-waivers] [--quiet]\n\
         \x20 vr-lint --list-rules\n\n\
         OPTIONS:\n\
         \x20 --workspace       lint every policy-zone file under the workspace root\n\
         \x20 --root <dir>      workspace root (default: walk up from cwd)\n\
         \x20 --report <path>   JSON artifact path (default: <root>/results/LINT_report.json,\n\
         \x20                   honoring VR_RESULTS_DIR)\n\
         \x20 --write-waivers   regenerate lint_waivers.txt from the tree's inline waivers\n\
         \x20 --quiet           suppress diagnostics and the summary line\n\
         \x20 --list-rules      print the rule → policy table\n\n\
         EXIT CODES: 0 clean · 1 violations or lockfile drift · 2 usage/I-O error"
    );
}
