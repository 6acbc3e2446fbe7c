//! Property tests for the continual-accounting contract (PR 9): the
//! ledger's invariants under random workloads, charge schedules, thread
//! interleavings, and the wire.
//!
//! * `remaining` is non-increasing under charges (spent is monotone);
//! * charge-then-`remaining` is **bit-identical** to the equivalent
//!   forward `composed` query through `AnalysisEngine` — the ledger's
//!   defining contract;
//! * concurrent shard access never drifts: any thread interleaving of a
//!   charge schedule lands on the same bits as applying the schedule
//!   sequentially (charges only ever add rounds, and spend composition
//!   depends on the totals alone);
//! * the served ledger is the in-process ledger: a pipelined burst of wire
//!   ops answers bit-identically to the same ops on a local
//!   `BudgetLedger`, receipts and CSV export included.

use proptest::prelude::*;
use shuffle_amplification::core::engine::{AmplificationQuery, AnalysisEngine};
use shuffle_amplification::core::params::VariationRatio;
use shuffle_amplification::ledger::BudgetLedger;
use shuffle_amplification::server::{
    Client, Command, Json, LedgerOp, ReplyBody, Server, ServerConfig,
};

const DELTA: f64 = 1e-8;
const EPS_BUDGET: f64 = 4.0;

/// A small workload pool: populations stay modest so cold grid pricing
/// stays cheap, while still spanning several distinct spend vectors.
fn workload(idx: usize) -> (VariationRatio, u64) {
    let eps0 = [0.5, 1.0, 1.5][idx % 3];
    let n = [400u64, 900, 1600][idx % 3] + 100 * (idx as u64 / 3);
    (VariationRatio::ldp_worst_case(eps0).expect("valid eps0"), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Charging can only spend budget: after every charge, `spent` is
    /// non-decreasing and `remaining` non-increasing, for any interleaving
    /// of workloads from the pool.
    #[test]
    fn remaining_is_non_increasing_under_charges(
        schedule in prop::collection::vec((0usize..4, 1u32..5), 1..8),
    ) {
        let engine = AnalysisEngine::new();
        let ledger = BudgetLedger::new();
        let mut last_spent = 0.0f64;
        for (w, rounds) in schedule {
            let (vr, n) = workload(w);
            ledger.charge(&engine, 7, vr, n, rounds).expect("charge");
            let status = ledger.remaining(7, EPS_BUDGET, DELTA).expect("remaining");
            prop_assert!(
                status.spent >= last_spent,
                "spent went down: {} -> {}",
                last_spent,
                status.spent
            );
            prop_assert_eq!(status.remaining, EPS_BUDGET - status.spent);
            last_spent = status.spent;
        }
    }

    /// The defining contract: a user charged `rounds` of one workload (in
    /// arbitrary installments) answers `remaining` with exactly the bits
    /// of the forward `composed` query for those rounds.
    #[test]
    fn ledger_spend_is_bit_identical_to_forward_composed(
        w in 0usize..4,
        installments in prop::collection::vec(1u32..6, 1..5),
    ) {
        let engine = AnalysisEngine::new();
        let ledger = BudgetLedger::new();
        let (vr, n) = workload(w);
        let mut total = 0u32;
        for rounds in installments {
            ledger.charge(&engine, 3, vr, n, rounds).expect("charge");
            total += rounds;
        }
        let eps0 = [0.5, 1.0, 1.5][w % 3];
        let forward = AmplificationQuery::ldp_worst_case(eps0)
            .expect("valid eps0")
            .population(n)
            .composed(total, DELTA)
            .build()
            .expect("valid query");
        let want = engine.run(&forward).expect("run").scalar().expect("scalar");
        let status = ledger.remaining(3, EPS_BUDGET, DELTA).expect("remaining");
        prop_assert_eq!(
            status.spent.to_bits(),
            want.to_bits(),
            "ledger drifted from forward composition: {} vs {}",
            status.spent,
            want
        );
        prop_assert_eq!(status.rounds, u64::from(total));
    }

    /// Shard safety: split a charge schedule across threads in round-robin
    /// and nothing is lost or torn. Integer round totals are
    /// interleaving-invariant (u32 addition commutes exactly), so they
    /// must match a sequential replay for every user — including one every
    /// thread hammers with a fixed workload, whose *spent bits* must also
    /// match replay (single-term entries have no order freedom). For
    /// multi-workload users the entry's term order — the float summation
    /// order — is interleaving-dependent by design, so their bits are
    /// pinned the order-free way: a CSV export of the materialized entries
    /// reimports into a fresh ledger with identical `remaining` bits.
    #[test]
    fn concurrent_charges_match_sequential_replay(
        schedule in prop::collection::vec((0u64..12, 0usize..3, 1u32..4), 4..20),
    ) {
        let engine = AnalysisEngine::new();
        // Price the pool up front so worker threads only exercise the
        // shard path, not the one-time pricing seam.
        for w in 0..3 {
            let (vr, n) = workload(w);
            engine.round_spend(vr, n).expect("price workload");
        }
        let (shared_vr, shared_n) = workload(0);
        let concurrent = BudgetLedger::new();
        let threads = 4;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let engine = &engine;
                let concurrent = &concurrent;
                let slice: Vec<_> = schedule
                    .iter()
                    .copied()
                    .skip(t)
                    .step_by(threads)
                    .collect();
                scope.spawn(move || {
                    for (user, w, rounds) in slice {
                        let (vr, n) = workload(w);
                        concurrent
                            .charge(engine, user, vr, n, rounds)
                            .expect("concurrent charge");
                        // Shared-user contention: every thread also
                        // charges user 100 with one fixed workload, so its
                        // entry stays single-term and its total is exact.
                        concurrent
                            .charge(engine, 100, shared_vr, shared_n, rounds)
                            .expect("shared charge");
                    }
                });
            }
        });
        let sequential = BudgetLedger::new();
        for &(user, w, rounds) in &schedule {
            let (vr, n) = workload(w);
            sequential.charge(&engine, user, vr, n, rounds).expect("charge");
            sequential
                .charge(&engine, 100, shared_vr, shared_n, rounds)
                .expect("charge");
        }
        prop_assert_eq!(concurrent.users(), sequential.users());
        let mut users: Vec<u64> = schedule.iter().map(|&(u, _, _)| u).collect();
        users.push(100);
        users.sort_unstable();
        users.dedup();
        for &user in &users {
            let got = concurrent.remaining(user, EPS_BUDGET, DELTA).expect("remaining");
            let want = sequential.remaining(user, EPS_BUDGET, DELTA).expect("remaining");
            prop_assert_eq!(got.rounds, want.rounds, "user {} lost rounds", user);
            prop_assert_eq!(got.workloads, want.workloads);
        }
        let hammered = concurrent.remaining(100, EPS_BUDGET, DELTA).expect("remaining");
        let replayed = sequential.remaining(100, EPS_BUDGET, DELTA).expect("remaining");
        prop_assert_eq!(
            hammered.spent.to_bits(),
            replayed.spent.to_bits(),
            "single-workload shared user drifted under concurrency"
        );
        // Order-free bit pin for every materialized entry: export the
        // concurrent ledger and reimport into a fresh one (fresh engine,
        // fresh pricing) — `remaining` must restore bit for bit.
        let rows = concurrent.export_users(&users).expect("export");
        let restored = BudgetLedger::new();
        let fresh = AnalysisEngine::new();
        restored
            .import_rows(&fresh, rows.iter().map(String::as_str))
            .expect("reimport");
        for &user in &users {
            let got = restored.remaining(user, EPS_BUDGET, DELTA).expect("remaining");
            let want = concurrent.remaining(user, EPS_BUDGET, DELTA).expect("remaining");
            prop_assert_eq!(
                got.spent.to_bits(),
                want.spent.to_bits(),
                "user {} did not restore bit for bit",
                user
            );
        }
    }

    /// The wire adds nothing and loses nothing: a pipelined burst of
    /// charge/remaining/affordable ops answers bit-identically to the same
    /// ops applied to an in-process ledger, and a CSV export of the served
    /// state equals the in-process export byte for byte.
    #[test]
    fn pipelined_wire_ops_match_in_process_ledger(
        schedule in prop::collection::vec((0u64..6, 0usize..3, 1u32..4), 1..10),
    ) {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 128,
        })
        .expect("bind ephemeral port");
        let mut client = Client::connect(server.local_addr()).expect("connect");

        let engine = AnalysisEngine::new();
        let local = BudgetLedger::new();

        // One pipelined burst: a charge and a probe per schedule entry.
        let commands: Vec<Command> = schedule
            .iter()
            .flat_map(|&(user, w, rounds)| {
                let (vr, n) = workload(w);
                [
                    Command::Ledger(LedgerOp::Charge { user, vr, n, rounds }),
                    Command::Ledger(LedgerOp::Remaining {
                        user,
                        eps: EPS_BUDGET,
                        delta: DELTA,
                    }),
                ]
            })
            .collect();
        let ids = client.send_command_burst(commands).expect("burst");

        // Replies come back in submission order; replay the same ops
        // locally in that order and compare every body.
        let mut replies = Vec::new();
        for id in &ids {
            replies.push(client.recv_reply(id).expect("reply"));
        }
        for (i, &(user, w, rounds)) in schedule.iter().enumerate() {
            let (vr, n) = workload(w);
            let want_receipt = local.charge(&engine, user, vr, n, rounds).expect("charge");
            let want_status = local.remaining(user, EPS_BUDGET, DELTA).expect("remaining");
            match &replies[2 * i] {
                ReplyBody::Charge(got) => prop_assert_eq!(got, &want_receipt),
                other => prop_assert!(false, "expected a charge receipt, got {:?}", other),
            }
            match &replies[2 * i + 1] {
                ReplyBody::Budget(got) => {
                    prop_assert_eq!(got.user, want_status.user);
                    prop_assert_eq!(got.rounds, want_status.rounds);
                    prop_assert_eq!(got.spent.to_bits(), want_status.spent.to_bits());
                    prop_assert_eq!(got.remaining.to_bits(), want_status.remaining.to_bits());
                }
                other => prop_assert!(false, "expected a budget status, got {:?}", other),
            }
        }

        // Affordability probes agree too, certificate included.
        let &(user, w, _) = schedule.first().expect("non-empty schedule");
        let (vr, n) = workload(w);
        let got = client
            .affordable_rounds(user, &vr, n, EPS_BUDGET, DELTA, Some(1 << 12))
            .expect("served affordability");
        let want = local
            .affordable_rounds(&engine, user, vr, n, EPS_BUDGET, DELTA, 1 << 12)
            .expect("local affordability");
        prop_assert_eq!(got.user, want.user);
        prop_assert_eq!(got.affordability.rounds, want.affordability.rounds);
        prop_assert_eq!(
            got.affordability.spent.to_bits(),
            want.affordability.spent.to_bits()
        );
        prop_assert_eq!(got.affordability.saturated, want.affordability.saturated);

        // The CSV views of the two ledgers are identical byte for byte.
        let mut users: Vec<u64> = schedule.iter().map(|&(u, _, _)| u).collect();
        users.sort_unstable();
        users.dedup();
        let served_rows = client.ledger_export(&users).expect("served export");
        let local_rows = local.export_users(&users).expect("local export");
        prop_assert_eq!(served_rows, local_rows);

        client.shutdown_server().expect("shutdown");
        server.join();
    }
}

/// A `ledger_import` frame is all-or-nothing on the wire too: a batch whose
/// second row fails — zero rounds, or a `u32` round overflow of the first
/// row's (user, workload) pair — is rejected naming row 2, and user 1 is
/// left uncharged.
#[test]
fn rejected_import_frames_charge_nothing() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 16,
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for frame in [
        r#"{"op":"ledger_import","rows":["1,1.0,1000,2","2,1.0,1000,0"]}"#,
        r#"{"op":"ledger_import","rows":["1,1.0,1000,4294967295","1,1.0,1000,1"]}"#,
    ] {
        let reply = client.roundtrip_raw(frame).expect("reply");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "{frame}"
        );
        let error = reply.get("error").expect("error body");
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("invalid_parameter"),
            "{frame}"
        );
        let message = error.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains("import row 2"), "{frame}: {message}");
        let status = client.remaining(1, EPS_BUDGET, DELTA).expect("remaining");
        assert_eq!(status.rounds, 0, "{frame} charged user 1");
    }
    client.shutdown_server().expect("shutdown");
    server.join();
}
