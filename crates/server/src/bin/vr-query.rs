//! `vr-query` — one-shot client for the `vr-serve` daemon.
//!
//! ```text
//! vr-query --addr HOST:PORT --op epsilon --eps0 1.0 --n 100000 --delta 1e-8
//! vr-query --addr HOST:PORT --op curve --p 2.7 --beta 0.4 --q 2.7 \
//!          --n 100000 --eps-max 1.0 --points 33 --bound numerical
//! vr-query --addr HOST:PORT --op min_n --eps0 1.0 --eps 0.25 --delta 1e-8
//! vr-query --addr HOST:PORT --op max_eps0 --eps0 8.0 --eps 0.25 \
//!          --delta 1e-8 --n 100000
//! vr-query --addr HOST:PORT --op sweep --axis n --grid 1000,10000,100000 \
//!          --target epsilon --eps0 1.0 --delta 1e-8
//! vr-query --addr HOST:PORT --op charge --user 7 --eps0 1.0 --n 100000 --rounds 3
//! vr-query --addr HOST:PORT --op remaining --user 7 --eps 2.0 --delta 1e-8
//! vr-query --addr HOST:PORT --op affordable_rounds --user 7 --eps0 1.0 \
//!          --n 100000 --eps 2.0 --delta 1e-8 --cap 4096
//! vr-query --addr HOST:PORT --op ledger_import --rows '7,1.0,100000,2;8,0.5,50000,1'
//! vr-query --addr HOST:PORT --op ledger_export --users 7,8
//! vr-query --addr HOST:PORT --json '{"op":"stats"}'
//! vr-query --addr HOST:PORT --stats
//! vr-query --addr HOST:PORT --shutdown
//! printf '%s\n' '{"op":"epsilon",...}' '{"op":"delta",...}' | \
//!          vr-query --addr HOST:PORT --batch
//! ```
//!
//! Prints the daemon's raw JSON reply on stdout. A structured error reply
//! (`busy`, `invalid_parameter`, …) additionally prints a diagnostic on
//! stderr and exits non-zero, so scripts can trust the exit code.
//!
//! `--batch` reads **one query frame per stdin line**, wraps them all in a
//! single `{"op":"batch","queries":[...]}` frame, and prints the single
//! reply frame on stdout. Per-item errors keep their slot in the reply
//! array and are additionally diagnosed on stderr (`batch item I ...`);
//! the exit code is non-zero if the frame or any item failed.

use std::collections::HashMap;
use std::process::ExitCode;

use vr_server::{Client, Json, Op};

fn usage() -> ! {
    let ops: Vec<&str> = Op::ALL.iter().map(|op| op.name()).collect();
    eprintln!(
        "usage:\n\
         vr-query --addr HOST:PORT --op OP [field flags...]\n\
         vr-query --addr HOST:PORT --json '{{...}}'\n\
         vr-query --addr HOST:PORT --batch   (one query frame per stdin line)\n\
         vr-query --addr HOST:PORT --stats | --shutdown\n\
         \n\
         ops: {}\n\
         source: --eps0 E (worst-case LDP)  or  --p P --beta B --q Q [--eps0 E]\n\
         fields: --n N  --eps X  --delta X  --eps-max X  --points K  --rounds R  --n-hi N\n\
         sweep:  --axis n|eps0  --grid V1,V2,...  --target OP\n\
         ledger: --user ID  --cap R  --rows 'ROW;ROW;...' (ledger CSV)  --users ID1,ID2,...\n\
         selection: --bound NAME | --bound best-of (default: registry portfolio)",
        ops.join(" | ")
    );
    std::process::exit(2);
}

/// Build the request frame from parsed flags (numbers pass through as JSON
/// numbers so the daemon does all domain validation).
fn frame_from_flags(op: &str, fields: &HashMap<String, String>) -> Result<Json, String> {
    let mut members: Vec<(String, Json)> = vec![("op".to_string(), Json::Str(op.into()))];
    for (flag, key) in [
        ("eps0", "eps0"),
        ("p", "p"),
        ("beta", "beta"),
        ("q", "q"),
        ("n", "n"),
        ("eps", "eps"),
        ("delta", "delta"),
        ("eps-max", "eps_max"),
        ("points", "points"),
        ("rounds", "rounds"),
        ("n-hi", "n_hi"),
        ("user", "user"),
        ("cap", "cap"),
    ] {
        if let Some(text) = fields.get(flag) {
            if flag == "p" && text == "inf" {
                members.push((key.to_string(), Json::Str("inf".into())));
                continue;
            }
            let num: f64 = text
                .parse()
                .map_err(|_| format!("--{flag} expects a number, got `{text}`"))?;
            members.push((key.to_string(), Json::Num(num)));
        }
    }
    if let Some(axis) = fields.get("axis") {
        members.push(("axis".to_string(), Json::Str(axis.clone())));
    }
    if let Some(grid) = fields.get("grid") {
        let values =
            grid.split(',')
                .map(|item| {
                    item.trim().parse::<f64>().map(Json::Num).map_err(|_| {
                        format!("--grid expects comma-separated numbers, got `{item}`")
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
        members.push(("grid".to_string(), Json::Arr(values)));
    }
    if let Some(target) = fields.get("target") {
        members.push(("target".to_string(), Json::Str(target.clone())));
    }
    if let Some(rows) = fields.get("rows") {
        // Ledger CSV rows use commas internally, so the shell flag packs
        // them with semicolons.
        let values = rows
            .split(';')
            .map(str::trim)
            .filter(|row| !row.is_empty())
            .map(|row| Json::Str(row.to_string()))
            .collect();
        members.push(("rows".to_string(), Json::Arr(values)));
    }
    if let Some(users) = fields.get("users") {
        let values = users
            .split(',')
            .map(|item| {
                item.trim()
                    .parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("--users expects comma-separated user ids, got `{item}`"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        members.push(("users".to_string(), Json::Arr(values)));
    }
    if let Some(bound) = fields.get("bound") {
        members.push(("bound".to_string(), Json::Str(bound.clone())));
    }
    Ok(Json::Obj(members))
}

/// Read one query frame per stdin line into a single batch frame. A line
/// that is not JSON is forwarded inside a string placeholder so the
/// daemon's per-item error keeps the slot (and the parse problem is
/// diagnosed locally on stderr).
fn batch_frame_from_stdin() -> Result<String, String> {
    let mut queries = Vec::new();
    for (lineno, line) in std::io::stdin().lines().enumerate() {
        let line = line.map_err(|e| format!("cannot read stdin: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match Json::parse(trimmed) {
            Ok(frame) => queries.push(frame),
            Err(e) => {
                eprintln!(
                    "vr-query: batch line {}: bad JSON ({e}); forwarded as a defective item",
                    lineno + 1
                );
                queries.push(Json::Str(trimmed.to_string()));
            }
        }
    }
    if queries.is_empty() {
        return Err("batch mode expects at least one query frame on stdin".into());
    }
    Ok(Json::Obj(vec![
        ("op".to_string(), Json::Str("batch".into())),
        ("queries".to_string(), Json::Arr(queries)),
    ])
    .to_string())
}

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut op: Option<String> = None;
    let mut raw_json: Option<String> = None;
    let mut batch = false;
    let mut fields: HashMap<String, String> = HashMap::new();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--op" => op = Some(value("--op")),
            "--json" => raw_json = Some(value("--json")),
            "--batch" => batch = true,
            "--stats" => op = Some("stats".into()),
            "--shutdown" => op = Some("shutdown".into()),
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                let key = other.trim_start_matches("--").to_string();
                let v = value(other);
                fields.insert(key, v);
            }
            _ => usage(),
        }
    }

    let Some(addr) = addr else { usage() };
    let line = if batch {
        match batch_frame_from_stdin() {
            Ok(frame) => frame,
            Err(e) => {
                eprintln!("vr-query: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match (raw_json, op) {
            (Some(json), _) => json,
            (None, Some(op)) => match frame_from_flags(&op, &fields) {
                Ok(frame) => frame.to_string(),
                Err(e) => {
                    eprintln!("vr-query: {e}");
                    return ExitCode::FAILURE;
                }
            },
            (None, None) => usage(),
        }
    };

    let mut client = match Client::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("vr-query: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match client.roundtrip_raw(&line) {
        Ok(reply) => {
            // The raw frame always goes to stdout (scripts pipe it to jq);
            // an error reply additionally diagnoses on stderr and the exit
            // code says which it was.
            println!("{reply}");
            if reply.get("ok").and_then(Json::as_bool) == Some(true) {
                // A batch frame succeeds even when individual items failed;
                // diagnose those on stderr and reflect them in the exit
                // code, mirroring the frame-level error path.
                let mut failed_items = 0usize;
                if let Some(items) = reply.get("batch").and_then(Json::as_arr) {
                    for (i, item) in items.iter().enumerate() {
                        if item.get("ok").and_then(Json::as_bool) == Some(true) {
                            continue;
                        }
                        failed_items += 1;
                        let kind = item
                            .get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(Json::as_str)
                            .unwrap_or("unknown");
                        let message = item
                            .get("error")
                            .and_then(|e| e.get("message"))
                            .and_then(Json::as_str)
                            .unwrap_or("item came back as an error entry");
                        eprintln!("vr-query: batch item {i} error ({kind}): {message}");
                    }
                }
                if failed_items == 0 {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("vr-query: {failed_items} of the batch items failed");
                    ExitCode::FAILURE
                }
            } else {
                let kind = reply
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .unwrap_or("unknown");
                let message = reply
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("server replied with an error frame");
                eprintln!("vr-query: server error ({kind}): {message}");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("vr-query: {e}");
            ExitCode::FAILURE
        }
    }
}
