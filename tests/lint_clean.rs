//! The workspace-wide lint gates: clippy with the per-crate policy tables
//! must come back clean under `-D warnings`, and every crate the daemon
//! links must forbid the panic lints in its manifest. This is the
//! test-suite form of the CI lint job, so the contracts cannot rot even on
//! machines that only ever run `cargo test`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The panic lints every crate on the wire path must `forbid`: with a
/// manifest `forbid`, an `#[expect(clippy::unwrap_used)]` in shipped code is
/// a compile error (E0453), so no reasoned exception can open a panic path
/// under a request. Test code stays exempt through `clippy.toml`.
const PANIC_LINTS: [&str; 6] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Normal dependencies of `vr-server` that may skip [`PANIC_LINTS`], each
/// with the reason it is not on a panic path.
const NOT_ON_THE_WIRE: [(&str, &str); 1] = [(
    "rand",
    "the compat sampler is referenced only by #[cfg(test)] code in vr-core; it stays a normal \
     dependency because perfbench/Cargo.lock pins the vr-core → rand edge, and moves to \
     [dev-dependencies] with the next change to the benchmark",
)];

fn workspace_root() -> PathBuf {
    // The root package's manifest dir *is* the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
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

/// `name → manifest dir` for every crate in `vr-server`'s normal-dependency
/// closure (itself included), as cargo resolves it.
fn wire_closure() -> BTreeMap<String, PathBuf> {
    let out = Command::new(env!("CARGO"))
        .args(["tree", "--offline", "-p", "vr-server", "-e", "normal"])
        .args(["--prefix", "none"])
        .current_dir(workspace_root())
        .output()
        .expect("cargo tree must launch");
    assert!(
        out.status.success(),
        "cargo tree failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Lines read `name vX.Y.Z (/path/to/crate)`, repeats suffixed `(*)`.
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let name = line.split_whitespace().next().unwrap_or_default();
            let dir = line
                .split_once('(')
                .and_then(|(_, rest)| rest.split_once(')'))
                .map(|(dir, _)| PathBuf::from(dir))
                .unwrap_or_else(|| panic!("`{line}`: not a path dependency, cannot be audited"));
            (name.to_owned(), dir)
        })
        .collect()
}

/// The `[lints.clippy]` table of the manifest in `dir`, as `lint → level`.
fn clippy_levels(dir: &Path) -> BTreeMap<String, String> {
    let manifest = dir.join("Cargo.toml");
    let text = std::fs::read_to_string(&manifest)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
    let mut in_table = false;
    let mut levels = BTreeMap::new();
    for line in text.lines().map(str::trim).filter(|l| !l.starts_with('#')) {
        if line.starts_with('[') {
            in_table = line == "[lints.clippy]";
        } else if let (true, Some((lint, level))) = (in_table, line.split_once('=')) {
            levels.insert(
                lint.trim().to_owned(),
                level.trim().trim_matches('"').to_owned(),
            );
        }
    }
    levels
}

#[test]
fn every_crate_the_daemon_links_forbids_the_panic_lints() {
    let closure = wire_closure();
    for name in ["vr-server", "vr-core", "vr-ledger", "vr-numerics"] {
        assert!(
            closure.contains_key(name),
            "{name} missing from vr-server's dependency closure {closure:?} — did the tree parse break?"
        );
    }
    for (name, dir) in &closure {
        if NOT_ON_THE_WIRE.iter().any(|(exempt, _)| exempt == name) {
            continue;
        }
        let levels = clippy_levels(dir);
        for lint in PANIC_LINTS {
            assert_eq!(
                levels.get(lint).map(String::as_str),
                Some("forbid"),
                "{name} is linked into vr-server, so its Cargo.toml must set \
                 `{lint} = \"forbid\"` under [lints.clippy] (or the crate must be argued \
                 onto NOT_ON_THE_WIRE)"
            );
        }
    }
    for (exempt, reason) in NOT_ON_THE_WIRE {
        assert!(
            closure.contains_key(exempt),
            "{exempt} is no longer linked into vr-server; drop its exemption ({reason})"
        );
    }
}
