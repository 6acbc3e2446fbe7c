//! Daemon round-trip integration test (ISSUE-4 acceptance): spawn the
//! `vr-server` daemon on an ephemeral port, drive a mixed query batch (GRR
//! `ε(δ)`, a privacy curve, a composed budget) from several concurrent
//! clients, and require
//!
//! 1. **bit-equality** — every served answer equals a direct in-process
//!    `AnalysisEngine::run` of the same query, bit for bit (the wire format
//!    must not perturb a single float), and
//! 2. **error containment** — malformed JSON and out-of-domain parameters
//!    get structured error replies on a **still-open** connection, and the
//!    daemon keeps serving afterwards.

use shuffle_amplification::core::bound::names;
use shuffle_amplification::prelude::*;
use shuffle_amplification::server::{
    ClientError, Command, ErrorKind, Json, Op, Request, StatsSnapshot,
};
use std::collections::BTreeMap;

const N: u64 = 20_000;

/// Run the `vr-query` binary (next to this test's executable, or through
/// `cargo run` when filtered builds left it out) against a live daemon.
fn run_vr_query(args: &[&str]) -> std::process::Output {
    let exe = std::env::current_exe().expect("test exe path");
    let bin = exe
        .parent()
        .and_then(|deps| deps.parent())
        .map(|profile| profile.join("vr-query"));
    match bin {
        Some(bin) if bin.is_file() => std::process::Command::new(&bin)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {}: {e}", bin.display())),
        _ => {
            let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
            std::process::Command::new(cargo)
                .args([
                    "run",
                    "--quiet",
                    "-p",
                    "vr-server",
                    "--bin",
                    "vr-query",
                    "--",
                ])
                .args(args)
                .output()
                .expect("failed to spawn cargo run --bin vr-query")
        }
    }
}

/// The mixed batch of the acceptance criterion: a GRR `ε(δ)` sweep, a
/// `δ(ε)` point, a full curve, a best-of query, and a composed budget.
fn mixed_batch() -> Vec<AmplificationQuery> {
    let grr = Grr::new(32, 1.5);
    let mut queries: Vec<AmplificationQuery> = [1e-5, 1e-7, 1e-9]
        .iter()
        .map(|&delta| {
            grr.amplification_query(N)
                .epsilon_at(delta)
                .bound(names::NUMERICAL)
                .build()
                .unwrap()
        })
        .collect();
    queries.push(
        grr.amplification_query(N)
            .delta_at(0.25)
            .bound(names::NUMERICAL)
            .build()
            .unwrap(),
    );
    queries.push(grr.amplification_query(N).curve(1.0, 17).build().unwrap());
    queries.push(
        AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(N)
            .epsilon_at(1e-6)
            .best_of()
            .build()
            .unwrap(),
    );
    queries.push(
        AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(5_000)
            .composed(8, 1e-8)
            .build()
            .unwrap(),
    );
    queries
}

/// Bit patterns of a report's value(s), uniform over scalars and curves.
fn engine_bits(report: &shuffle_amplification::core::engine::AnalysisReport) -> Vec<u64> {
    match &report.value {
        QueryValue::Scalar(v) => vec![v.to_bits()],
        QueryValue::Curve(c) => c
            .points()
            .flat_map(|(e, d)| [e.to_bits(), d.to_bits()])
            .collect(),
    }
}

fn served_bits(report: &ServedReport) -> Vec<u64> {
    match &report.value {
        ServedValue::Scalar(v) => vec![v.to_bits()],
        ServedValue::Curve { eps, delta } => eps
            .iter()
            .zip(delta)
            .flat_map(|(e, d)| [e.to_bits(), d.to_bits()])
            .collect(),
    }
}

#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 64,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let queries = mixed_batch();

    // Direct in-process reference: a fresh engine, same queries.
    let direct = AnalysisEngine::new();
    let reference: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| engine_bits(&direct.run(q).unwrap()))
        .collect();

    // Several concurrent clients, each replaying the whole mixed batch on
    // one persistent connection.
    const CLIENTS: usize = 4;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let queries = &queries;
                let reference = &reference;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for (q, want) in queries.iter().zip(reference) {
                        let served = client.run(q).expect("served");
                        assert_eq!(
                            &served_bits(&served),
                            want,
                            "server answer drifted from the direct engine for {q:?}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    // All clients asked for the same workloads: the shared engine memoized
    // each once and served the repeats warm.
    let stats = server.stats();
    assert_eq!(stats.requests, (CLIENTS * queries.len()) as u64);
    assert_eq!(stats.ok, stats.requests);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.busy_rejections, 0);
    assert_eq!(stats.connections, CLIENTS as u64);
    assert!(
        stats.cache_hits > 0,
        "concurrent replays of one workload must hit the warm cache"
    );
    server.stop();
}

#[test]
fn planner_ops_roundtrip_bit_identical_to_the_in_process_planner() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let direct = AnalysisEngine::new();
    let (eps, delta) = (0.25, 1e-8);

    // min_n: answer, certificate and provenance all agree bit for bit.
    let min_n_q = AmplificationQuery::ldp_worst_case(1.0)
        .unwrap()
        .min_population(eps, delta, 1 << 12)
        .build()
        .unwrap();
    let served = client.run(&min_n_q).expect("served");
    let want = direct.run(&min_n_q).expect("direct");
    assert_eq!(
        served.scalar().unwrap().to_bits(),
        want.scalar().unwrap().to_bits()
    );
    assert_eq!(served.certificate, want.certificate, "certificate drifted");
    assert_eq!(served.bound, want.bound);

    // max_eps0: same contract on the float axis.
    let max_eps0_q = AmplificationQuery::ldp_worst_case(6.0)
        .unwrap()
        .max_local_budget(eps, delta, 50_000)
        .build()
        .unwrap();
    let served = client.run(&max_eps0_q).expect("served");
    let want = direct.run(&max_eps0_q).expect("direct");
    assert_eq!(
        served.scalar().unwrap().to_bits(),
        want.scalar().unwrap().to_bits()
    );
    let served_cert = served.certificate.expect("certificate over the wire");
    let want_cert = want.certificate.unwrap();
    assert_eq!(
        served_cert.passing.to_bits(),
        want_cert.passing.to_bits(),
        "wire format perturbed the certified budget"
    );
    assert_eq!(
        served_cert.failing.map(f64::to_bits),
        want_cert.failing.map(f64::to_bits)
    );

    // sweep: every grid point equals its individual in-process run.
    let template = AmplificationQuery::ldp_worst_case(1.0)
        .unwrap()
        .population(1_000)
        .epsilon_at(delta)
        .build()
        .unwrap();
    let grid = vec![1_000u64, 10_000, 100_000];
    let axis = SweepAxis::Population(grid.clone());
    let outcome = client.sweep(&template, &axis).expect("sweep served");
    assert_eq!(outcome.axis, "n");
    assert_eq!(outcome.grid, vec![1_000.0, 10_000.0, 100_000.0]);
    for (&n, value) in grid.iter().zip(&outcome.values) {
        let q = template.with_population(n).unwrap();
        let want = direct.run(&q).unwrap().scalar().unwrap();
        assert_eq!(
            value.expect("grid point served").to_bits(),
            want.to_bits(),
            "sweep drifted at n = {n}"
        );
    }
    assert!(outcome.errors.iter().all(Option::is_none));

    // The per-op counters saw all three planner ops.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.op_min_n, 1);
    assert_eq!(stats.op_max_eps0, 1);
    assert_eq!(stats.op_sweep, 1);
    server.stop();
}

#[test]
fn vr_query_maps_error_replies_to_nonzero_exit_codes() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 8,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();

    // A well-formed planner query: exit 0, JSON reply on stdout.
    let ok = run_vr_query(&[
        "--addr", &addr, "--op", "min_n", "--eps0", "1.0", "--eps", "0.3", "--delta", "1e-6",
        "--n-hi", "4096",
    ]);
    assert!(
        ok.status.success(),
        "good query must exit 0\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&ok.stdout),
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(stdout.contains("\"certificate\""), "{stdout}");

    // A structured error reply (invalid delta): nonzero exit, raw frame on
    // stdout, diagnostic on stderr.
    let err = run_vr_query(&[
        "--addr", &addr, "--op", "epsilon", "--eps0", "1.0", "--n", "1000", "--delta", "2.0",
    ]);
    assert!(
        !err.status.success(),
        "error replies must exit non-zero (got {:?})",
        err.status.code()
    );
    let stdout = String::from_utf8_lossy(&err.stdout);
    assert!(stdout.contains("\"ok\":false"), "{stdout}");
    let stderr = String::from_utf8_lossy(&err.stderr);
    assert!(
        stderr.contains("invalid_parameter"),
        "stderr must carry the diagnostic: {stderr}"
    );
    server.stop();
}

#[test]
fn malformed_and_invalid_requests_keep_the_connection_serving() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Malformed JSON lines: structured `malformed` replies, no hangup.
    for garbage in [
        "not json at all",
        "{\"op\":",
        "[]",
        "{\"op\":\"warp\"}",
        "{\"op\":\"epsilon\"}",
        "{\"op\":\"epsilon\",\"eps0\":1.0,\"n\":-5,\"delta\":1e-6}",
        // Duplicate keys are a parse error: a second `eps` cannot smuggle a
        // different value past whichever occurrence validation read.
        "{\"op\":\"delta\",\"eps0\":1.0,\"n\":1000,\"eps\":0.1,\"eps\":9.0}",
        // Planner/sweep frame defects.
        "{\"op\":\"min_n\",\"eps0\":1.0,\"delta\":1e-6}",
        "{\"op\":\"max_eps0\",\"p\":2.0,\"beta\":0.3,\"q\":2.0,\"eps\":0.2,\"delta\":1e-6,\"n\":100}",
        "{\"op\":\"sweep\",\"axis\":\"rounds\",\"grid\":[10],\"target\":\"epsilon\",\"eps0\":1.0,\"delta\":1e-6}",
    ] {
        let reply = client.roundtrip_raw(garbage).expect("reply on open conn");
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false), "{garbage}");
        assert_eq!(
            reply.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("malformed"),
            "{garbage}"
        );
    }

    // Out-of-domain parameters: typed `invalid_parameter` replies.
    for (bad, kind) in [
        (
            r#"{"op":"epsilon","eps0":1.0,"n":1000,"delta":2.0}"#,
            "invalid_parameter",
        ),
        (
            r#"{"op":"epsilon","eps0":-1.0,"n":1000,"delta":1e-6}"#,
            "invalid_parameter",
        ),
        (
            r#"{"op":"delta","eps0":1.0,"n":1000,"eps":-0.5}"#,
            "invalid_parameter",
        ),
        (
            r#"{"op":"curve","eps0":1.0,"n":1000,"eps_max":1.0,"points":1}"#,
            "invalid_parameter",
        ),
        // A degenerate eps_max arriving over the wire must be rejected by
        // the same builder validation in-process callers get, never turned
        // into a NaN grid.
        (
            r#"{"op":"curve","eps0":1.0,"n":1000,"eps_max":-1.0,"points":16}"#,
            "invalid_parameter",
        ),
        (
            r#"{"op":"curve","eps0":1.0,"n":1000,"eps_max":0,"points":16}"#,
            "invalid_parameter",
        ),
        (
            r#"{"op":"min_n","eps0":1.0,"eps":0.2,"delta":1e-6,"n_hi":0}"#,
            "invalid_parameter",
        ),
        (
            r#"{"op":"composed","eps0":1.0,"n":1000,"rounds":0,"delta":1e-6}"#,
            "invalid_parameter",
        ),
        (
            r#"{"op":"delta","p":0.5,"beta":0.1,"q":2.0,"n":10,"eps":0.1}"#,
            "invalid_parameter",
        ),
        (
            r#"{"op":"epsilon","eps0":1.0,"n":1000,"delta":1e-6,"bound":"lower"}"#,
            "not_applicable",
        ),
    ] {
        let reply = client.roundtrip_raw(bad).expect("reply on open conn");
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false), "{bad}");
        assert_eq!(
            reply.get("error").unwrap().get("kind").unwrap().as_str(),
            Some(kind),
            "{bad}"
        );
    }

    // After the whole gauntlet the same connection still serves, correctly.
    let q = AmplificationQuery::ldp_worst_case(1.0)
        .unwrap()
        .population(2_000)
        .epsilon_at(1e-6)
        .bound(names::NUMERICAL)
        .build()
        .unwrap();
    let served = client.run(&q).expect("connection must still serve");
    let want = AnalysisEngine::new().run(&q).unwrap().scalar().unwrap();
    assert_eq!(served.scalar().unwrap().to_bits(), want.to_bits());

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.connections, 1,
        "one connection for the whole gauntlet"
    );
    assert_eq!(stats.errors, 20, "each bad frame recorded");
    server.stop();
}

#[test]
fn graceful_shutdown_over_the_wire() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 8,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let q = AmplificationQuery::ldp_worst_case(1.0)
        .unwrap()
        .population(1_000)
        .epsilon_at(1e-6)
        .build()
        .unwrap();
    client.run(&q).expect("serve before shutdown");
    client.shutdown_server().expect("acknowledged");
    server.join(); // returns only when every daemon thread exited

    // The daemon is really gone: new connections are refused (or reset).
    assert!(
        Client::connect(addr)
            .and_then(|mut c| c.stats().map_err(|e| std::io::Error::other(e.to_string())))
            .is_err(),
        "daemon must not serve after shutdown"
    );
}

/// The timing-free portion of a reply frame: id, success flag, answer
/// bits (scalar or curve), and the structured error — everything except
/// the per-run meta (`wall_micros`, `cache_hit`), which legitimately
/// varies between a cold and a warm pass.
fn reply_signature(frame: &Json) -> (String, bool, Vec<u64>, Option<(String, String)>) {
    let id = frame.get("id").map_or("null".into(), |j| j.to_string());
    let ok = frame.get("ok").and_then(Json::as_bool).expect("ok flag");
    let mut bits = Vec::new();
    if let Some(v) = frame.get("value").and_then(Json::as_f64) {
        bits.push(v.to_bits());
    }
    if let Some(curve) = frame.get("curve") {
        for axis in ["eps", "delta"] {
            for v in curve.get(axis).and_then(Json::as_arr).expect("curve axis") {
                bits.push(v.as_f64().expect("curve point").to_bits());
            }
        }
    }
    let error = frame.get("error").map(|e| {
        (
            e.get("kind").and_then(Json::as_str).expect("kind").into(),
            e.get("message")
                .and_then(Json::as_str)
                .expect("message")
                .into(),
        )
    });
    (id, ok, bits, error)
}

/// A query frame with an explicit numeric id, rendered to its wire line.
fn query_frame(id: u64, query: &AmplificationQuery) -> String {
    Request {
        id: Some(Json::Num(id as f64)),
        command: Command::Query(Box::new(query.clone())),
    }
    .to_json()
    .to_string()
}

#[test]
fn pipelined_mixed_burst_replies_in_order_and_matches_sequential() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 128,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // 100 frames on one connection: mostly cheap valid queries, with
    // malformed JSON, an oversized line and an out-of-domain parameter
    // spliced mid-stream — the pipelining path must answer every one of
    // them in submission order without dropping the connection.
    let cheap = |n: u64, eps: f64| {
        AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(n)
            .delta_at(eps)
            .bound(names::NUMERICAL)
            .build()
            .unwrap()
    };
    let lines: Vec<String> = (0..100u64)
        .map(|i| match i {
            10 => "{\"op\":".into(),
            35 => "not json at all".into(),
            50 => "x".repeat(70_000),
            75 => r#"{"op":"epsilon","eps0":1.0,"n":1000,"delta":2.0}"#.into(),
            _ => query_frame(i, &cheap(2_000 + 500 * (i % 3), 0.1 + 0.01 * i as f64)),
        })
        .collect();

    // Sequential reference: one frame at a time on its own connection.
    let mut sequential = Client::connect(addr).expect("connect");
    let want: Vec<_> = lines
        .iter()
        .map(|line| reply_signature(&sequential.roundtrip_raw(line).expect("reply")))
        .collect();

    // Pipelined run: the whole burst written before any reply is read.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut burst = lines.join("\n");
    burst.push('\n');
    std::io::Write::write_all(&mut stream, burst.as_bytes()).expect("write burst");
    let mut reader = std::io::BufReader::new(stream);
    let got: Vec<_> = (0..lines.len())
        .map(|i| {
            let mut reply = String::new();
            std::io::BufRead::read_line(&mut reader, &mut reply).expect("read reply");
            assert!(!reply.is_empty(), "connection closed after {i} replies");
            reply_signature(&Json::parse(reply.trim()).expect("reply frame"))
        })
        .collect();

    assert_eq!(got, want, "pipelined replies must match sequential ones");
    // Valid frames carry increasing ids: in-order delivery is observable.
    let ids: Vec<&String> = got
        .iter()
        .filter(|(_, ok, ..)| *ok)
        .map(|(id, ..)| id)
        .collect();
    assert!(ids
        .windows(2)
        .all(|w| w[0].parse::<f64>().unwrap() < w[1].parse::<f64>().unwrap()));

    let stats = sequential.stats().expect("stats");
    assert!(
        stats.pipelined_frames >= 1,
        "the burst must register pipelined frames, got {}",
        stats.pipelined_frames
    );
    assert_eq!(
        stats.busy_rejections, 0,
        "depth 128 admits 100-frame bursts"
    );
    assert_eq!(stats.errors, 8, "4 bad frames, served twice");
    server.stop();
}

#[test]
fn shards_serve_connections_independently() {
    // Two shards, round-robin adoption: the first connection lands on
    // shard 0, the second on shard 1. A long-running cold query on shard 0
    // must not stall control traffic on shard 1.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let mut a = Client::connect(addr).expect("connect a");
    a.stats().expect("a adopted by shard 0");
    let mut b = Client::connect(addr).expect("connect b");

    let slow = AmplificationQuery::ldp_worst_case(1.0)
        .unwrap()
        .population(60_000)
        .epsilon_at(1e-8)
        .bound(names::NUMERICAL)
        .build()
        .unwrap();
    let id = a.send(&slow).expect("send slow query");
    // While shard 0 builds the cold table, shard 1 keeps answering. Op
    // counters bump at admission and `ok` only on completion, so a
    // snapshot served mid-query is observable: op_epsilon = 1 with every
    // completed op accounted for by a's earlier stats round-trip plus b's
    // own k-1 previous ones (a stats op records *after* its snapshot is
    // taken, so the k-th snapshot shows ok = k while the query runs).
    let mut observed = false;
    for k in 1..=1000u64 {
        let s = b
            .stats()
            .expect("shard 1 must answer during shard 0's query");
        if s.op_epsilon == 1 && s.ok == k {
            observed = true;
            break;
        }
        if s.ok > k {
            break; // the slow query already completed — too late to observe
        }
    }
    assert!(
        observed,
        "shard 1 never got a reply while shard 0's cold query was in flight"
    );
    let served = a.recv_report(&id).expect("slow query served");

    let want = AnalysisEngine::new().run(&slow).unwrap().scalar().unwrap();
    assert_eq!(served.scalar().unwrap().to_bits(), want.to_bits());
    server.stop();
}

#[test]
fn batch_frames_answer_identically_to_individual_frames() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Five payloads: three valid (scalar, scalar, curve), one missing a
    // required field, one out of domain — the batch must answer each slot
    // exactly as the standalone frame does, per-item errors included.
    let scalar_q = AmplificationQuery::ldp_worst_case(1.0)
        .unwrap()
        .population(3_000)
        .delta_at(0.3)
        .bound(names::NUMERICAL)
        .build()
        .unwrap();
    let eps_q = AmplificationQuery::ldp_worst_case(1.0)
        .unwrap()
        .population(3_000)
        .epsilon_at(1e-6)
        .bound(names::NUMERICAL)
        .build()
        .unwrap();
    let curve_q = AmplificationQuery::ldp_worst_case(1.0)
        .unwrap()
        .population(1_500)
        .curve(1.0, 9)
        .build()
        .unwrap();
    let payloads = [
        query_frame(1, &scalar_q),
        r#"{"id":2,"op":"epsilon","eps0":1.0,"n":1000}"#.into(),
        query_frame(3, &eps_q),
        r#"{"id":4,"op":"epsilon","eps0":1.0,"n":1000,"delta":2.0}"#.into(),
        query_frame(5, &curve_q),
    ];

    let individual: Vec<_> = payloads
        .iter()
        .map(|line| reply_signature(&client.roundtrip_raw(line).expect("reply")))
        .collect();

    let batch_frame = format!(
        "{{\"id\":99,\"op\":\"batch\",\"queries\":[{}]}}",
        payloads.join(",")
    );
    let reply = client.roundtrip_raw(&batch_frame).expect("batch reply");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("id").and_then(Json::as_f64), Some(99.0));
    let entries = reply
        .get("batch")
        .and_then(Json::as_arr)
        .expect("batch array");
    assert_eq!(entries.len(), payloads.len());
    let from_batch: Vec<_> = entries.iter().map(reply_signature).collect();
    assert_eq!(
        from_batch, individual,
        "batch items must answer bit-identically to standalone frames"
    );

    // Batch accounting: one frame, one ok, defective items are carried in
    // the reply rather than bumping the error counter.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.op_batch, 1);
    assert_eq!(stats.errors, 2, "only the standalone bad frames count");
    server.stop();
}

#[test]
fn client_run_batch_matches_individual_runs() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let queries = mixed_batch();

    let individual: Vec<ServedReport> = queries
        .iter()
        .map(|q| client.run(q).expect("served"))
        .collect();
    let batched = client.run_batch(&queries).expect("batch served");
    assert_eq!(batched.len(), individual.len());
    for ((q, one), item) in queries.iter().zip(&individual).zip(&batched) {
        let item = item.as_ref().expect("valid queries serve in batches");
        assert_eq!(
            served_bits(item),
            served_bits(one),
            "batch answer drifted for {q:?}"
        );
        assert_eq!(item.bound, one.bound);
        assert_eq!(item.certificate, one.certificate);
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.op_batch, 1);
    assert_eq!(stats.errors, 0);
    server.stop();
}

#[test]
fn busy_backpressure_is_a_structured_reply() {
    // queue_depth 0: every query is rejected up front with `busy` — the
    // deterministic form of "the pool is saturated".
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 0,
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let q = AmplificationQuery::ldp_worst_case(1.0)
        .unwrap()
        .population(1_000)
        .epsilon_at(1e-6)
        .build()
        .unwrap();
    match client.run(&q) {
        Err(ClientError::Wire(e)) => assert_eq!(e.kind, ErrorKind::Busy),
        other => panic!("expected busy rejection, got {other:?}"),
    }
    // Stats still answered (control ops bypass the worker queue).
    let stats = client.stats().expect("stats");
    assert_eq!(stats.busy_rejections, 1);
    server.stop();
}

/// The `op_*` counters of a snapshot, by key.
fn op_counters(stats: &StatsSnapshot) -> BTreeMap<&'static str, u64> {
    stats
        .entries()
        .filter(|(key, _)| key.starts_with("op_"))
        .collect()
}

/// One valid frame per `Op::ALL` entry (through the `Client` verb where one
/// exists) is served without error and moves only that op's `stats` key.
#[test]
fn every_op_in_the_table_serves_and_moves_exactly_its_own_counter() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (n, eps, delta) = (2_000u64, 0.9, 1e-6);
    let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
    let source = || AmplificationQuery::ldp_worst_case(1.0).unwrap();
    let at_n = || source().population(n);
    let delta_q = at_n().delta_at(0.5).build().unwrap();
    let epsilon_q = at_n().epsilon_at(delta).build().unwrap();
    let user = 11;

    for &op in Op::ALL {
        // In-process snapshots: reading them counts nothing.
        let before = op_counters(&server.stats());
        // Keys besides `op`'s own that this frame moves (batch items).
        let mut also: Vec<Op> = Vec::new();
        match op {
            Op::Delta => {
                client.run(&delta_q).expect("delta");
            }
            Op::Epsilon => {
                client.run(&epsilon_q).expect("epsilon");
            }
            Op::Curve => {
                client
                    .run(&at_n().curve(1.0, 5).build().unwrap())
                    .expect("curve");
            }
            Op::Composed => {
                client
                    .run(&at_n().composed(2, delta).build().unwrap())
                    .expect("composed");
            }
            Op::MinN => {
                client
                    .run(
                        &source()
                            .min_population(eps, delta, 1 << 12)
                            .build()
                            .unwrap(),
                    )
                    .expect("min_n");
            }
            Op::MaxEps0 => {
                client
                    .run(
                        &AmplificationQuery::ldp_worst_case(4.0)
                            .unwrap()
                            .max_local_budget(eps, delta, n)
                            .build()
                            .unwrap(),
                    )
                    .expect("max_eps0");
            }
            Op::Sweep => {
                let outcome = client
                    .sweep(&epsilon_q, &SweepAxis::Population(vec![n, 2 * n]))
                    .expect("sweep");
                assert!(outcome.errors.iter().all(Option::is_none));
            }
            Op::Batch => {
                let items = client
                    .run_batch(&[delta_q.clone(), epsilon_q.clone()])
                    .expect("batch");
                assert!(items.iter().all(Result::is_ok), "{items:?}");
                also = vec![Op::Delta, Op::Epsilon];
            }
            Op::Charge => {
                client.charge(user, &vr, n, 2).expect("charge");
            }
            Op::Remaining => {
                client.remaining(user, 4.0, delta).expect("remaining");
            }
            Op::AffordableRounds => {
                client
                    .affordable_rounds(user, &vr, n, 4.0, delta, Some(8))
                    .expect("affordable_rounds");
            }
            Op::LedgerImport => {
                client
                    .ledger_import(vec![format!("{},1.0,{n},1", user + 1)])
                    .expect("ledger_import");
            }
            Op::LedgerExport => {
                assert!(!client
                    .ledger_export(&[user])
                    .expect("ledger_export")
                    .is_empty())
            }
            Op::Stats => {
                client.stats().expect("stats");
            }
            Op::Shutdown => client.shutdown_server().expect("shutdown"),
        }
        let after = op_counters(&server.stats());
        let mut want: BTreeMap<&'static str, u64> = BTreeMap::new();
        for counted in std::iter::once(op).chain(also) {
            if let Some(key) = counted.stats_key() {
                *want.entry(key).or_insert(0) += 1;
            }
        }
        let moved: BTreeMap<&'static str, u64> = after
            .iter()
            .map(|(&key, &count)| (key, count - before[key]))
            .filter(|&(_, by)| by > 0)
            .collect();
        assert_eq!(moved, want, "`{}` moved the wrong counters", op.name());
    }
    server.join();
}
