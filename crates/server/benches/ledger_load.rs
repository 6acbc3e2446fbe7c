//! Loopback load benchmark for the continual-accounting path (the PR 9
//! tentpole contract): an in-process `vr-server` on an ephemeral port
//! whose shared [`vr_ledger::BudgetLedger`] is driven to **one million
//! user accounts** through the wire, then hammered with a concurrent
//! charge/`remaining` mix — all through the existing pipelining machinery:
//!
//! 0. **warm pricing** — the population's four workloads are priced once
//!    through `affordable_rounds` probes (reported separately), so the
//!    import number measures the wire + shard path, not cold grid
//!    evaluation;
//! 1. **bulk import** — every account arrives as ledger CSV rows packed
//!    into `{"op":"ledger_import"}` frames (1 000 rows per frame, safely
//!    under the daemon's 64 KiB line cap), pipelined in bounded waves over
//!    several concurrent connections;
//! 2. **charge/`remaining` mix** — concurrent connections pipeline
//!    interleaved `charge` and `remaining` frames against a hot subset of
//!    accounts while the daemon keeps serving;
//! 3. **bit-drift audit** — sampled accounts' `remaining` answers are
//!    compared **bit for bit** against the equivalent forward `composed`
//!    query on a *direct* in-process [`AnalysisEngine`]: the ledger's
//!    entire point is that continual accounting never drifts from
//!    recomputing the composition from scratch.
//!
//! Asserted contract: zero errors, zero `busy` rejections, zero lost
//! frames, zero bit-drift across every sampled account, and the daemon's
//! `ledger_users` gauge equal to the driven population. Headline numbers
//! (import rows/s, mix ops/s) land in `results/BENCH_ledger_load.json`
//! via [`vr_bench::trajectory`].
//!
//! Set `VR_BENCH_SMOKE=1` for the CI configuration: a reduced population
//! and mix, same asserted contracts (none of them are machine-sensitive —
//! the bit-identity claim is exact at any scale).
#![expect(
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_precision_loss,
    reason = "load-generator harness: a panic is a failed assertion, and counts convert to f64 only for reporting"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use vr_bench::trajectory::BenchReport;
use vr_core::engine::{AmplificationQuery, AnalysisEngine};
use vr_core::params::VariationRatio;
use vr_server::{Client, Command, LedgerOp, ReplyBody, Server, ServerConfig};

/// Accounts driven through the wire (the tentpole's ≥ 10⁶ floor).
const USERS: u64 = 1_000_000;
const USERS_SMOKE: u64 = 20_000;
/// CSV rows per `ledger_import` frame: 1 000 worst-case-layout rows are
/// ~25 KiB of frame, comfortably inside the 64 KiB line cap.
const ROWS_PER_FRAME: usize = 1_000;
/// Import connections (each owns a disjoint user range).
const IMPORT_CONNS: u64 = 8;
/// Frames in flight per connection per pipelined wave — below the default
/// queue depth of 128 so the `busy` guard never trips by construction.
const WAVE_FRAMES: usize = 32;
/// Distinct workloads across the population (interned server-side).
const WORKLOADS: u64 = 4;
/// Populations are `BASE_N · {1..4}`: modest on purpose. The tentpole
/// floor is about ledger *accounts*, not population size — a cold
/// workload pricing enumerates O(n) dominating-pair terms per Rényi
/// order, so huge `n` would measure grid evaluation, not the wire and
/// shard path this bench is a proof for. Phase 0 pays the four cold
/// prices once, up front, and reports them separately.
const BASE_N: u64 = 1_000;
/// Mix phase: connections × rounds × (4 hot users × charge+remaining).
const MIX_CONNS: usize = 16;
const MIX_CONNS_SMOKE: usize = 4;
const MIX_ROUNDS: u32 = 64;
const MIX_ROUNDS_SMOKE: u32 = 8;
const HOT_PER_CONN: u64 = 4;
/// Accounts audited bit-for-bit against the direct engine.
const VERIFY_SAMPLES: u64 = 64;
const EPS_BUDGET: f64 = 8.0;
const DELTA: f64 = 1e-8;

fn smoke() -> bool {
    std::env::var("VR_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Every account's workload and base rounds are pure functions of its id,
/// so the audit can recompute any account's exact state without logging.
fn workload_of(user: u64) -> (VariationRatio, u64) {
    let w = user % WORKLOADS;
    let vr = VariationRatio::ldp_worst_case(1.0).expect("valid eps0");
    (vr, BASE_N * (w + 1))
}

fn base_rounds_of(user: u64) -> u32 {
    1 + (user % 3) as u32
}

fn row_of(user: u64) -> String {
    let (_, n) = workload_of(user);
    format!("{user},1.0,{n},{}", base_rounds_of(user))
}

fn ledger_load(c: &mut Criterion) {
    let smoke = smoke();
    let users = if smoke { USERS_SMOKE } else { USERS };
    let mix_conns = if smoke { MIX_CONNS_SMOKE } else { MIX_CONNS };
    let mix_rounds = if smoke { MIX_ROUNDS_SMOKE } else { MIX_ROUNDS };
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 128,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // ---- Phase 0: pay the four cold workload prices once, up front ----
    // `affordable_rounds` probes do not mutate any account, but they do
    // price (and intern) the probed workload — so after this loop every
    // import row hits the warm spend cache and the import number measures
    // the wire + shard path, not grid evaluation. The engine admits one
    // builder per spend slot, so without this phase the import
    // connections would queue behind a single cold build anyway; this
    // just accounts that cost honestly.
    let t0 = Instant::now();
    {
        let mut warm = Client::connect(addr).expect("connect");
        for w in 0..WORKLOADS {
            let (vr, n) = workload_of(w);
            let report = warm
                .affordable_rounds(w, &vr, n, EPS_BUDGET, DELTA, None)
                .expect("warm pricing probe");
            assert!(
                report.affordability.rounds > 0,
                "budget affords at least one round"
            );
        }
    }
    let warm_price_wall = t0.elapsed().as_secs_f64();

    // ---- Phase 1: bulk import of `users` accounts over pipelined frames ----
    let t0 = Instant::now();
    let per_conn = users / IMPORT_CONNS;
    let (imported_rows, import_frames): (u64, u64) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..IMPORT_CONNS)
            .map(|d| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let lo = d * per_conn;
                    let hi = if d + 1 == IMPORT_CONNS {
                        users
                    } else {
                        lo + per_conn
                    };
                    let mut rows_acked = 0u64;
                    let mut frames = 0u64;
                    let mut user = lo;
                    while user < hi {
                        // One wave: up to WAVE_FRAMES frames of up to
                        // ROWS_PER_FRAME rows, written in one burst, then
                        // all replies collected in order.
                        let mut commands = Vec::new();
                        while user < hi && commands.len() < WAVE_FRAMES {
                            let take = (hi - user).min(ROWS_PER_FRAME as u64);
                            let rows: Vec<String> = (user..user + take).map(row_of).collect();
                            user += take;
                            commands.push(Command::Ledger(LedgerOp::Import(rows)));
                        }
                        frames += commands.len() as u64;
                        let ids = client.send_command_burst(commands).expect("send wave");
                        for id in &ids {
                            match client.recv_reply(id).expect("import reply") {
                                ReplyBody::Imported(receipt) => rows_acked += receipt.rows,
                                other => panic!("expected an import receipt, got {other:?}"),
                            }
                        }
                    }
                    (rows_acked, frames)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("import driver"))
            .fold((0, 0), |(r, f), (dr, df)| (r + dr, f + df))
    });
    let import_wall = t0.elapsed().as_secs_f64();
    assert_eq!(imported_rows, users, "every row must be acknowledged");

    // ---- Phase 2: concurrent charge/`remaining` mix on hot accounts ----
    let hot_users = mix_conns as u64 * HOT_PER_CONN;
    let t0 = Instant::now();
    let mix_ops: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..mix_conns)
            .map(|conn| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mine: Vec<u64> = (0..HOT_PER_CONN)
                        .map(|j| conn as u64 * HOT_PER_CONN + j)
                        .collect();
                    let mut ops = 0u64;
                    for _ in 0..mix_rounds {
                        // One pipelined wave: a charge and a probe per hot
                        // user, interleaved, all in flight at once.
                        let commands: Vec<Command> = mine
                            .iter()
                            .flat_map(|&user| {
                                let (vr, n) = workload_of(user);
                                [
                                    Command::Ledger(LedgerOp::Charge {
                                        user,
                                        vr,
                                        n,
                                        rounds: 1,
                                    }),
                                    Command::Ledger(LedgerOp::Remaining {
                                        user,
                                        eps: EPS_BUDGET,
                                        delta: DELTA,
                                    }),
                                ]
                            })
                            .collect();
                        let ids = client.send_command_burst(commands).expect("send mix wave");
                        for (i, id) in ids.iter().enumerate() {
                            match client.recv_reply(id).expect("mix reply") {
                                ReplyBody::Charge(receipt) => {
                                    assert_eq!(receipt.user, mine[i / 2]);
                                }
                                ReplyBody::Budget(status) => {
                                    assert_eq!(status.user, mine[i / 2]);
                                    assert!(
                                        status.spent.is_finite(),
                                        "hot accounts stay in the finite regime"
                                    );
                                }
                                other => panic!("unexpected mix reply: {other:?}"),
                            }
                            ops += 1;
                        }
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mix driver"))
            .sum()
    });
    let mix_wall = t0.elapsed().as_secs_f64();
    let expected_mix_ops = mix_conns as u64 * u64::from(mix_rounds) * HOT_PER_CONN * 2;
    assert_eq!(mix_ops, expected_mix_ops, "lost mix frames");

    // ---- Phase 3: bit-drift audit vs a direct engine ----
    // Sample accounts across the population (hot accounts included via the
    // low ids); recompute each one's exact state from its id and compare
    // the served `remaining` against the equivalent forward `composed`
    // query on a direct in-process engine, bit for bit.
    let direct = AnalysisEngine::new();
    let mut audit = Client::connect(addr).expect("connect");
    let stride = (users / VERIFY_SAMPLES).max(1);
    let mut drifted = 0u64;
    let mut audited = 0u64;
    for sample in 0..VERIFY_SAMPLES {
        let user = (sample * stride).min(users - 1);
        let charged = if user < hot_users {
            u64::from(mix_rounds)
        } else {
            0
        };
        let rounds_u64 = u64::from(base_rounds_of(user)) + charged;
        let rounds = u32::try_from(rounds_u64).expect("rounds fit u32");
        let (_, n) = workload_of(user);
        let forward = AmplificationQuery::ldp_worst_case(1.0)
            .expect("valid eps0")
            .population(n)
            .composed(rounds, DELTA)
            .build()
            .expect("valid forward query");
        let want = direct
            .run(&forward)
            .expect("direct run")
            .scalar()
            .expect("scalar");
        let status = audit
            .remaining(user, EPS_BUDGET, DELTA)
            .expect("audit remaining");
        assert_eq!(status.rounds, rounds_u64, "user {user} lost rounds");
        drifted += u64::from(status.spent.to_bits() != want.to_bits());
        drifted += u64::from(status.remaining.to_bits() != (EPS_BUDGET - want).to_bits());
        audited += 1;
    }

    let stats = audit.stats().expect("stats");
    println!(
        "ledger_load summary (4 shards, default depth 128):\n\
         phase 0 (pricing): {WORKLOADS} cold workload prices: {warm_price_wall:8.3} s\n\
         phase 1 (import):  {users} accounts, {import_frames} frames x {ROWS_PER_FRAME} rows, \
         {IMPORT_CONNS} connections: {import_wall:8.3} s  ({:9.0} rows/s)\n\
         phase 2 (mix):     {mix_conns} connections x {mix_rounds} waves, {mix_ops} ops \
         (charge/remaining interleaved on {hot_users} hot accounts): {mix_wall:8.3} s  \
         ({:9.0} ops/s)\n\
         phase 3 (audit):   {audited} accounts bit-compared vs direct composed queries, \
         drifted = {drifted}\n\
         stats: requests = {}, pipelined_frames = {}, errors = {}, busy = {}, \
         ledger_users = {}, ledger_workloads = {}",
        users as f64 / import_wall,
        mix_ops as f64 / mix_wall,
        stats.requests,
        stats.pipelined_frames,
        stats.errors,
        stats.busy_rejections,
        stats.ledger_users,
        stats.ledger_workloads,
    );
    assert_eq!(
        drifted, 0,
        "ledger answers must never drift from forward composition"
    );
    assert_eq!(stats.errors, 0, "no frame may error under ledger load");
    assert_eq!(stats.busy_rejections, 0, "waves fit the default depth");
    assert!(
        stats.pipelined_frames > 0,
        "import/mix waves must register as pipelined frames"
    );
    assert_eq!(stats.ledger_users, users, "population gauge drifted");
    assert_eq!(
        stats.ledger_workloads, WORKLOADS,
        "workload interning broke"
    );
    assert_eq!(
        stats.op_ledger_import, import_frames,
        "import frame count drifted"
    );

    // Perf trajectory artifact (ROADMAP item 4).
    let mut report = BenchReport::new("ledger_load");
    report
        .metric("users", users as f64)
        .metric("workloads", WORKLOADS as f64)
        .metric("import_rows", imported_rows as f64)
        .metric("import_frames", import_frames as f64)
        .metric("import_connections", IMPORT_CONNS as f64)
        .metric("warm_price_secs", warm_price_wall)
        .metric("import_secs", import_wall)
        .metric("import_rows_per_sec", users as f64 / import_wall)
        .metric("mix_connections", mix_conns as f64)
        .metric("mix_ops", mix_ops as f64)
        .metric("mix_secs", mix_wall)
        .metric("mix_ops_per_sec", mix_ops as f64 / mix_wall)
        .metric("audited_accounts", audited as f64)
        .metric("drifted_bits", drifted as f64)
        .metric("pipelined_frames", stats.pipelined_frames as f64)
        .metric("requests_total", stats.requests as f64)
        .metric("smoke", f64::from(u8::from(smoke)));
    report.emit();

    // Criterion entries: warm per-op costs on the million-account ledger.
    let hot = hot_users / 2;
    let (hot_vr, hot_n) = workload_of(hot);
    let mut group = c.benchmark_group("ledger_load");
    group.sample_size(20);
    group.bench_function("warm_remaining_roundtrip", |b| {
        b.iter(|| {
            audit
                .remaining(black_box(hot), EPS_BUDGET, DELTA)
                .expect("remaining")
        })
    });
    group.bench_function("warm_charge_roundtrip", |b| {
        b.iter(|| {
            audit
                .charge(black_box(hot), &hot_vr, hot_n, 1)
                .expect("charge")
        })
    });
    group.bench_function("warm_affordable_rounds", |b| {
        b.iter(|| {
            audit
                .affordable_rounds(
                    black_box(hot),
                    &hot_vr,
                    hot_n,
                    EPS_BUDGET,
                    DELTA,
                    Some(1 << 12),
                )
                .expect("affordable")
        })
    });
    group.finish();

    audit.shutdown_server().expect("graceful shutdown");
    server.join();
}

criterion_group!(benches, ledger_load);
criterion_main!(benches);
