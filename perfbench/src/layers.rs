//! Per-layer metrics of the traced run, each measured from outside the
//! daemon by timing calls into that layer's public functions or by
//! reading what the daemon itself reports.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use vr_core::accountant::ScanMode;
use vr_core::engine::{AnalysisEngine, QueryTarget};
use vr_core::params::VariationRatio;
use vr_ledger::BudgetLedger;
use vr_server::StatsSnapshot;

use crate::load::ClientSpan;
use crate::stats::{mean, median, tail};
use crate::trace::{client_spans, self_times, Replayer, Span};
use crate::workload::{
    conn_users, import_row, warm_evaluators, warm_query, ConnGen, FrameSource, OpKind, Plan,
    Workload, CONNS, SERVE_EPS0, SERVE_NS,
};

/// δ target of the accountant's inversion probe.
const PROBE_DELTA: f64 = 1e-8;
/// Each timed probe loop runs at least this long.
const PROBE_MIN: Duration = Duration::from_millis(5);

/// What the load phase observed, for the per-layer report.
pub struct LoadFacts {
    pub client_spans: Vec<Vec<ClientSpan>>,
    pub ops: u64,
    pub shard_cpu_ns: u64,
    pub idle_shard_share: f64,
    pub before: StatsSnapshot,
    pub after: StatsSnapshot,
    pub hits: u64,
    pub misses: u64,
    pub cached_evaluators: usize,
    pub ledger_users: u64,
    pub ledger_workloads: u64,
    pub overhead_pct: f64,
}

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Frames each connection replays in process, per workload.
pub fn replay_frames(plan: &Plan) -> u64 {
    match plan.workload {
        Workload::ServeRtt | Workload::ServePipelined => 2_000,
        Workload::EpsWarm => 16,
        Workload::PlanCold => 64,
    }
}

/// Run `f` until [`PROBE_MIN`] has passed; the mean time per call.
fn per_call(mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || t0.elapsed() < PROBE_MIN {
        f();
        calls += 1;
    }
    t0.elapsed() / calls
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Result of the in-process replay: spans, metrics, and the
/// deterministic work counts that must repeat exactly for a seed.
pub struct Replay {
    pub spans: Vec<Span>,
    pub metrics: Metrics,
    pub counts: BTreeMap<String, u64>,
    pub mismatched: u64,
}

pub fn per_layer(
    plan: &Plan,
    reference: &AnalysisEngine,
    facts: &LoadFacts,
    origin: Instant,
) -> Replay {
    let mut m = Metrics::default();
    let mut counts = BTreeMap::new();

    // ---- server: what the wire and /proc show ----
    let mut spans = Vec::new();
    for (conn, client) in facts.client_spans.iter().enumerate() {
        client_spans(conn, client, &mut spans);
    }
    let self_ns = self_times(&spans);
    let wire: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            s.name == "client.request" && spans.get(i + 1).is_some_and(|c| c.parent == Some(*i))
        })
        .map(|(i, _)| us(self_ns[i]))
        .collect();
    m.put(
        "server.wire_overhead_us_p50",
        median(&wire).unwrap_or(0.0),
        "us",
    );
    m.put(
        "server.wire_overhead_us_p99",
        tail(&wire).map_or(0.0, |t| t.1),
        "us",
    );
    m.put(
        "server.shard_cpu_us_per_op",
        us(facts.shard_cpu_ns) / facts.ops.max(1) as f64,
        "us",
    );
    m.put(
        "server.idle_shard_cpu_share",
        facts.idle_shard_share,
        "ratio",
    );
    let (b, a) = (&facts.before, &facts.after);
    let requests = a.requests.saturating_sub(b.requests).max(1);
    m.put(
        "server.pipelined_share",
        a.pipelined_frames.saturating_sub(b.pipelined_frames) as f64 / requests as f64,
        "ratio",
    );
    m.put(
        "server.errors",
        a.errors.saturating_sub(b.errors) as f64,
        "count",
    );
    m.put(
        "server.busy_rejections",
        a.busy_rejections.saturating_sub(b.busy_rejections) as f64,
        "count",
    );

    // ---- in-process replay on a fresh engine and ledger ----
    let engine = AnalysisEngine::new();
    let ledger = BudgetLedger::new();
    let vr = VariationRatio::ldp_worst_case(SERVE_EPS0).expect("valid ε₀");
    let mut cold_price_ms = Vec::new();
    let mut import_rows_per_s = 0.0;
    if plan.workload.is_serve() {
        for &n in &SERVE_NS {
            let t = Instant::now();
            let _ = engine.round_spend(vr, n);
            cold_price_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let rows: Vec<String> = (0..CONNS)
            .flat_map(conn_users)
            .map(|u| import_row(plan.seed, u))
            .collect();
        let t = Instant::now();
        let _ = ledger.import_rows(&engine, rows.iter().map(String::as_str));
        import_rows_per_s = rows.len() as f64 / t.elapsed().as_secs_f64();
    }
    for (eps0, n) in warm_evaluators(plan.workload) {
        let _ = engine.run(&warm_query(eps0, n));
    }
    let mut rp = Replayer::new(&engine, &ledger, origin);
    let mut mismatched = 0;
    let frames_per_conn = replay_frames(plan);
    for conn in 0..CONNS {
        let mut gen = ConnGen::new(plan, reference, conn);
        for index in 0..frames_per_conn {
            let frame = gen.next_frame();
            for op in &frame.ops {
                *counts
                    .entry(format!("replay.ops.{}", op.kind.name()))
                    .or_insert(0) += 1;
            }
            let text = rp.replay((conn as u64) << 32 | index, &frame);
            mismatched += u64::from(frame.expected(&plan.pool).is_some_and(|want| want != text));
        }
    }
    let build = engine.build_stats();

    let per_frame = |name: &str| {
        let total: u64 = rp
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        us(total) / rp.frames.max(1) as f64
    };
    m.put("json.parse_us", per_frame("json.parse"), "us");
    m.put("json.write_us", per_frame("json.write"), "us");
    m.put(
        "json.request_bytes",
        rp.request_bytes as f64 / rp.frames.max(1) as f64,
        "bytes",
    );
    m.put(
        "json.reply_bytes",
        rp.reply_bytes as f64 / rp.frames.max(1) as f64,
        "bytes",
    );
    m.put("protocol.decode_us", per_frame("protocol.decode"), "us");
    m.put("protocol.encode_us", per_frame("protocol.encode"), "us");
    m.put("client.encode_us", per_frame("client.encode"), "us");
    m.put("client.decode_us", per_frame("client.decode"), "us");
    for kind in OpKind::ALL {
        let runs: Vec<f64> = rp
            .run_ns
            .get(&kind)
            .map_or(Vec::new(), |v| v.iter().map(|&ns| us(ns)).collect());
        m.put(
            format!("engine.run_us_p50.{}", kind.name()),
            median(&runs).unwrap_or(0.0),
            "us",
        );
        m.put(
            format!("engine.run_us_p99.{}", kind.name()),
            tail(&runs).map_or(0.0, |t| t.1),
            "us",
        );
    }
    let served = facts.hits + facts.misses;
    m.put(
        "engine.cache_hit_ratio",
        facts.hits as f64 / served.max(1) as f64,
        "ratio",
    );
    m.put(
        "engine.cached_evaluators",
        facts.cached_evaluators as f64,
        "count",
    );
    m.put("engine.tables_built", build.tables_built as f64, "count");
    m.put("engine.hinted_builds", build.hinted_builds as f64, "count");
    m.put(
        "engine.support_probes",
        build.support_probes as f64,
        "count",
    );
    m.put("engine.build_ms", build.build_nanos as f64 / 1e6, "ms");
    counts.insert("engine.tables_built".into(), build.tables_built);
    counts.insert("engine.hinted_builds".into(), build.hinted_builds);
    counts.insert("engine.support_probes".into(), build.support_probes);

    let evaluations: u64 = rp
        .planned
        .iter()
        .map(|(_, c)| u64::from(c.evaluations))
        .sum();
    let plan_hits: u64 = rp
        .planned
        .iter()
        .map(|(_, c)| u64::from(c.cache_hits))
        .sum();
    let planned = rp.planned.len().max(1) as f64;
    m.put(
        "planner.evaluations_per_query",
        evaluations as f64 / planned,
        "count",
    );
    m.put(
        "planner.cache_hits_per_query",
        plan_hits as f64 / planned,
        "count",
    );
    counts.insert("planner.queries".into(), rp.planned.len() as u64);
    counts.insert("planner.evaluations".into(), evaluations);
    counts.insert("planner.cache_hits".into(), plan_hits);

    // Cold pricing of the replayed composed workloads, on a fresh engine.
    let fresh = AnalysisEngine::new();
    for &(vr, n) in rp.composed.iter().take(8) {
        let t = Instant::now();
        let _ = fresh.round_spend(vr, n);
        cold_price_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.put(
        "spend.cold_price_ms",
        median(&cold_price_ms).unwrap_or(0.0),
        "ms",
    );
    m.put("spend.priced", engine.cached_spends() as f64, "count");
    counts.insert("spend.priced".into(), engine.cached_spends() as u64);

    // ---- accountant: scans and inversions on the workload's evaluators ----
    let mut evaluators = warm_evaluators(plan.workload);
    for (query, cert) in rp.planned.iter().take(4) {
        match *query.target() {
            QueryTarget::MinPopulation { .. } => {
                evaluators.push((query.local_budget().unwrap_or(1.0), cert.passing as u64))
            }
            QueryTarget::MaxLocalBudget { n, .. } => evaluators.push((cert.passing, n)),
            _ => {}
        }
    }
    let (mut fast, mut exact, mut inversion, mut equiv, mut entries) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), 0u64);
    for &(eps0, n) in &evaluators {
        let Ok(vr) = VariationRatio::ldp_worst_case(eps0) else {
            continue;
        };
        let Ok((ev, _)) = engine.evaluator(vr, n, ScanMode::default()) else {
            continue;
        };
        let mut eps_star = 0.0;
        let inv = per_call(|| eps_star = ev.epsilon_amortized(PROBE_DELTA, 40).unwrap_or(0.0));
        let grid: Vec<f64> = [0.5, 0.75, 1.0, 1.5, 2.0]
            .iter()
            .map(|f| f * eps_star.max(1e-3))
            .collect();
        let f = per_call(|| {
            grid.iter().for_each(|&e| {
                black_box(ev.delta_fast(black_box(e)).ok());
            })
        }) / grid.len() as u32;
        let x = per_call(|| {
            grid.iter().for_each(|&e| {
                black_box(ev.try_delta(black_box(e)).ok());
            })
        }) / grid.len() as u32;
        fast.push(f.as_secs_f64() * 1e6);
        exact.push(x.as_secs_f64() * 1e6);
        inversion.push(inv.as_secs_f64() * 1e3);
        equiv.push(inv.as_secs_f64() / f.as_secs_f64().max(1e-12));
        entries += ev.table_entries() as u64;
    }
    m.put(
        "accountant.fast_scan_us",
        median(&fast).unwrap_or(0.0),
        "us",
    );
    m.put(
        "accountant.exact_scan_us",
        median(&exact).unwrap_or(0.0),
        "us",
    );
    m.put(
        "accountant.eps_inversion_ms",
        median(&inversion).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "accountant.fast_scan_equiv_per_eps",
        median(&equiv).unwrap_or(0.0),
        "count",
    );
    m.put(
        "accountant.table_entries",
        entries as f64 / evaluators.len().max(1) as f64,
        "count",
    );
    counts.insert("accountant.table_entries".into(), entries);

    // ---- ledger ----
    let mean_us = |kind: OpKind| {
        rp.run_ns
            .get(&kind)
            .and_then(|v| mean(&v.iter().map(|&ns| us(ns)).collect::<Vec<_>>()))
            .unwrap_or(0.0)
    };
    m.put("ledger.charge_us", mean_us(OpKind::Charge), "us");
    m.put("ledger.remaining_us", mean_us(OpKind::Remaining), "us");
    m.put("ledger.import_rows_per_s", import_rows_per_s, "1/s");
    m.put("ledger.users", facts.ledger_users as f64, "count");
    m.put("ledger.workloads", facts.ledger_workloads as f64, "count");
    counts.insert("ledger.users".into(), facts.ledger_users);
    counts.insert("ledger.workloads".into(), facts.ledger_workloads);

    m.put("trace.overhead_pct", facts.overhead_pct, "%");
    let offset = spans.len();
    spans.extend(rp.spans.iter().map(|s| Span {
        parent: s.parent.map(|p| p + offset),
        ..s.clone()
    }));
    Replay {
        spans,
        metrics: m,
        counts,
        mismatched,
    }
}
