//! The four workloads: what each sends, and the reply each request must
//! get back. Every input derives from the seed; the daemon only ever sees
//! the generated request lines.
//!
//! Why these four (each stresses a different layer):
//!
//! * `serve_rtt` — 2 connections, one frame in flight each, a cheap warm
//!   mix (50% `delta` at ε₀ = 1, n ∈ {500, 1000, 2000}; 25% `charge`; 25%
//!   `remaining` over 10⁵ imported accounts). Engine work is 10–25 µs per
//!   op, so latency is set by the shard readiness loop's wake-ups and the
//!   per-frame JSON/protocol path. The only workload where the readiness
//!   loop dominates.
//! * `serve_pipelined` — the same mix and accounts, but each connection
//!   keeps a 64-frame window in flight (below `queue_depth` 128) and one
//!   window in eight goes out as a single `batch` frame. Pipelining
//!   amortises wake-ups, so per-frame CPU — JSON parse and write, request
//!   decode, reply encode, ledger stripe operations — sets throughput.
//! * `eps_warm` — 2 blocking connections of warm `epsilon` queries at
//!   ε₀ ∈ {0.5, 1, 2} × n ∈ {2·10⁵, 10⁶}, δ log-uniform in [1e-10, 1e-6];
//!   one request in eight is a 33-point `curve` on the same evaluators.
//!   Each query spends tens of ms in `epsilon_amortized` and the fast-scan
//!   kernel and the wire is under 1%: the workload the ε(δ) inversion is
//!   judged on.
//! * `plan_cold` — 2 blocking connections where every request names a
//!   workload the memo has not seen: 11 in 16 `min_n` (≈ 22 cold table
//!   builds each), 4 in 16 `max_eps0`, and 1 in 16 a `composed` query
//!   that prices a cold Rényi spend vector. Memo inserts, table builds,
//!   support-window probes and (past the 4096-slot evaluator cap)
//!   second-chance eviction dominate: a memo change that speeds warm reads
//!   but slows writes shows here and nowhere else.

use std::collections::HashMap;

use vr_core::bound::names;
use vr_core::engine::{AmplificationQuery, AnalysisEngine};
use vr_core::params::VariationRatio;
use vr_ledger::{BudgetStatus, ChargeReceipt};
use vr_server::{Command, LedgerOp, Reply, ReplyBody, Request};

use crate::check::{normalize, reference_reply};
use crate::rng::{mix, Rng};

/// Client connections (and client threads) every workload uses.
pub const CONNS: usize = 2;
/// Frames each `serve_pipelined` connection keeps in flight.
pub const WINDOW: usize = 64;
/// One `serve_pipelined` window in this many is sent as one `batch` frame.
pub const BATCH_EVERY: usize = 8;

/// ε₀ of the serve workloads' `delta` queries and ledger accounts.
pub const SERVE_EPS0: f64 = 1.0;
/// Populations of the serve workloads (one evaluator and one priced
/// ledger workload each).
pub const SERVE_NS: [u64; 3] = [500, 1000, 2000];
/// Ledger accounts imported during set-up.
pub const ACCOUNTS: u64 = 100_000;
/// Distinct `delta` queries per serve population.
const DELTAS_PER_N: usize = 512;
/// Budget level and failure probability of `remaining` probes.
pub const BUDGET_EPS: f64 = 8.0;
pub const LEDGER_DELTA: f64 = 1e-8;
/// CSV rows per set-up `ledger_import` frame (≈ 40 KiB, under the 64 KiB
/// line cap).
pub const ROWS_PER_FRAME: usize = 2_500;

/// The `eps_warm` evaluators: ε₀ × n.
pub const WARM_EPS0: [f64; 3] = [0.5, 1.0, 2.0];
pub const WARM_NS: [u64; 2] = [200_000, 1_000_000];
/// Distinct δ targets and curves per `eps_warm` evaluator.
const DELTAS_PER_EVAL: usize = 16;
const CURVES_PER_EVAL: usize = 2;
const CURVE_POINTS: usize = 33;

/// δ target of every `plan_cold` request.
const PLAN_DELTA: f64 = 1e-8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeRtt,
    ServePipelined,
    EpsWarm,
    PlanCold,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeRtt,
        Workload::ServePipelined,
        Workload::EpsWarm,
        Workload::PlanCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRtt => "serve_rtt",
            Workload::ServePipelined => "serve_pipelined",
            Workload::EpsWarm => "eps_warm",
            Workload::PlanCold => "plan_cold",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Frames each connection keeps in flight.
    pub fn window(self) -> usize {
        match self {
            Workload::ServePipelined => WINDOW,
            _ => 1,
        }
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeRtt | Workload::ServePipelined)
    }
}

/// The op classes the per-layer `engine.run_us_*` metrics are keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Delta,
    Epsilon,
    Curve,
    Composed,
    MinN,
    MaxEps0,
    Charge,
    Remaining,
}

impl OpKind {
    pub const ALL: [OpKind; 8] = [
        OpKind::Delta,
        OpKind::Epsilon,
        OpKind::Curve,
        OpKind::Composed,
        OpKind::MinN,
        OpKind::MaxEps0,
        OpKind::Charge,
        OpKind::Remaining,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Delta => "delta",
            OpKind::Epsilon => "epsilon",
            OpKind::Curve => "curve",
            OpKind::Composed => "composed",
            OpKind::MinN => "min_n",
            OpKind::MaxEps0 => "max_eps0",
            OpKind::Charge => "charge",
            OpKind::Remaining => "remaining",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// Served by the engine (its replies carry `wall_micros`).
    pub fn is_engine(self) -> bool {
        !matches!(self, OpKind::Charge | OpKind::Remaining)
    }
}

/// The reply an op must get, as normalized reply text (see
/// [`crate::check::normalize`]).
#[derive(Debug, Clone)]
pub enum Expect {
    /// A pool entry's precomputed reply.
    Pool(usize),
    /// Computed when the op was generated (ledger ops).
    Text(String),
    /// Too costly to compute while measuring: checked after the run.
    Deferred(Box<AmplificationQuery>),
}

#[derive(Debug, Clone)]
pub struct OpSpec {
    pub kind: OpKind,
    pub expect: Expect,
}

/// One request line (without its newline) and the ops it carries: one,
/// or a `batch` frame's items.
#[derive(Debug, Clone)]
pub struct Frame {
    pub line: String,
    pub ops: Vec<OpSpec>,
}

impl Frame {
    /// The whole frame's normalized reply, unless it carries a deferred op.
    pub fn expected(&self, pool: &[PoolEntry]) -> Option<String> {
        let items = self
            .ops
            .iter()
            .map(|op| match &op.expect {
                Expect::Pool(i) => Some(pool[*i].expected.clone()),
                Expect::Text(t) => Some(t.clone()),
                Expect::Deferred(_) => None,
            })
            .collect::<Option<Vec<String>>>()?;
        match items.as_slice() {
            [single] => Some(single.clone()),
            _ => Some(batch_reply(&items)),
        }
    }
}

/// The normalized reply of a `batch` frame whose items reply `items`.
pub fn batch_reply<S: AsRef<str>>(items: &[S]) -> String {
    let items: Vec<&str> = items.iter().map(AsRef::as_ref).collect();
    format!("{{\"ok\":true,\"batch\":[{}]}}", items.join(","))
}

/// Anything that yields frames for a connection to send.
pub trait FrameSource {
    fn next_frame(&mut self) -> Frame;
}

/// A query reused across the run, with its request line and reference reply.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    pub kind: OpKind,
    pub line: String,
    pub expected: String,
}

/// A workload instance: the seed plus everything derived from it before
/// the daemon starts.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub pool: Vec<PoolEntry>,
}

fn numerical(eps0: f64) -> vr_core::engine::QueryBuilder {
    AmplificationQuery::ldp_worst_case(eps0)
        .expect("ε₀ within the worst-case LDP domain")
        .bound(names::NUMERICAL)
}

pub fn request_line(command: Command) -> String {
    Request { id: None, command }.to_json().to_string()
}

pub fn query_line(query: &AmplificationQuery) -> String {
    request_line(Command::Query(Box::new(query.clone())))
}

/// A query that builds (or touches) the evaluator of `(eps0, n)`.
pub fn warm_query(eps0: f64, n: u64) -> AmplificationQuery {
    numerical(eps0)
        .population(n)
        .delta_at(1.0)
        .build()
        .expect("valid warm-up query")
}

/// The evaluators a workload keeps warm, as `(ε₀, n)`.
pub fn warm_evaluators(workload: Workload) -> Vec<(f64, u64)> {
    match workload {
        Workload::ServeRtt | Workload::ServePipelined => {
            SERVE_NS.iter().map(|&n| (SERVE_EPS0, n)).collect()
        }
        Workload::EpsWarm => WARM_EPS0
            .iter()
            .flat_map(|&e| WARM_NS.iter().map(move |&n| (e, n)))
            .collect(),
        Workload::PlanCold => Vec::new(),
    }
}

/// An account's workload index into [`SERVE_NS`] and its imported rounds.
pub fn account(seed: u64, user: u64) -> (usize, u32) {
    let h = mix(seed ^ mix(user.wrapping_add(0xACC0)));
    ((h % 3) as usize, 1 + ((h >> 8) % 4) as u32)
}

/// The CSV import row of an account.
pub fn import_row(seed: u64, user: u64) -> String {
    let (w, rounds) = account(seed, user);
    format!("{user},1,{},{rounds}", SERVE_NS[w])
}

/// Accounts are split between the connections by parity, so every
/// account's history is one connection's ordered op stream.
pub fn conn_users(conn: usize) -> impl Iterator<Item = u64> {
    (conn as u64..ACCOUNTS).step_by(CONNS)
}

/// The frames one connection sends to warm the daemon for a workload:
/// spend pricing (the costliest population alone on the second
/// connection, so the split is the same every run), the `ledger_import`
/// frames of its accounts, and its share of the evaluator builds.
pub fn setup_lines(plan: &Plan, conn: usize) -> Vec<String> {
    let mut lines = Vec::new();
    if plan.workload.is_serve() {
        for (w, &n) in SERVE_NS.iter().enumerate() {
            if (w + 1 == SERVE_NS.len()) == (conn == 1) {
                lines.push(query_line(&composed_query(SERVE_EPS0, n, 1, LEDGER_DELTA)));
            }
        }
        let users: Vec<u64> = conn_users(conn).collect();
        lines.extend(users.chunks(ROWS_PER_FRAME).map(|chunk| {
            let rows = chunk.iter().map(|&u| import_row(plan.seed, u)).collect();
            request_line(Command::Ledger(LedgerOp::Import(rows)))
        }));
    }
    for &(eps0, n) in warm_evaluators(plan.workload)
        .iter()
        .skip(conn)
        .step_by(CONNS)
    {
        lines.push(query_line(&warm_query(eps0, n)));
    }
    lines
}

/// Forward `composed` query equivalent to an account's ledger entry.
pub fn composed_query(eps0: f64, n: u64, rounds: u32, delta: f64) -> AmplificationQuery {
    AmplificationQuery::ldp_worst_case(eps0)
        .expect("ε₀ within the worst-case LDP domain")
        .population(n)
        .composed(rounds, delta)
        .build()
        .expect("valid composed query")
}

/// A uniform draw from the `j`-th of `k` equal strata of `[0, 1)`: every
/// seed covers the whole range evenly, so seeds differ in values, not in
/// how much work their mix costs.
fn stratum(rng: &mut Rng, j: usize, k: usize) -> f64 {
    (j as f64 + rng.unit()) / k as f64
}

impl Plan {
    /// Generate the workload's reusable queries and their reference
    /// replies from `reference` (an in-process engine, separate from the
    /// daemon's).
    pub fn new(workload: Workload, seed: u64, reference: &AnalysisEngine) -> Plan {
        let mut rng = Rng::new(seed, 0x9001);
        let mut queries: Vec<(OpKind, AmplificationQuery)> = Vec::new();
        match workload {
            Workload::ServeRtt | Workload::ServePipelined => {
                for &n in &SERVE_NS {
                    for j in 0..DELTAS_PER_N {
                        let eps = 0.05 + 1.45 * stratum(&mut rng, j, DELTAS_PER_N);
                        let q = numerical(SERVE_EPS0).population(n).delta_at(eps).build();
                        queries.push((OpKind::Delta, q.expect("valid delta query")));
                    }
                }
            }
            Workload::EpsWarm => {
                for (eps0, n) in warm_evaluators(workload) {
                    for j in 0..DELTAS_PER_EVAL {
                        let delta = 10f64.powf(-10.0 + 4.0 * stratum(&mut rng, j, DELTAS_PER_EVAL));
                        let q = numerical(eps0).population(n).epsilon_at(delta).build();
                        queries.push((OpKind::Epsilon, q.expect("valid epsilon query")));
                    }
                    for j in 0..CURVES_PER_EVAL {
                        let eps_max = 0.5 + 1.5 * stratum(&mut rng, j, CURVES_PER_EVAL);
                        let q = numerical(eps0)
                            .population(n)
                            .curve(eps_max, CURVE_POINTS)
                            .build();
                        queries.push((OpKind::Curve, q.expect("valid curve query")));
                    }
                }
            }
            Workload::PlanCold => {}
        }
        let expected = crate::par_map(&queries, |(_, q)| reference_reply(reference, q));
        let pool = queries
            .into_iter()
            .zip(expected)
            .map(|((kind, query), expected)| PoolEntry {
                kind,
                line: query_line(&query),
                expected,
            })
            .collect();
        Plan {
            workload,
            seed,
            pool,
        }
    }

    fn pool_indices(&self, kind: OpKind) -> Vec<usize> {
        (0..self.pool.len())
            .filter(|&i| self.pool[i].kind == kind)
            .collect()
    }
}

/// One connection's deterministic op stream. Ledger ops carry their
/// expected reply, computed from the connection's model of its own
/// accounts (no other connection touches them).
pub struct ConnGen<'a> {
    plan: &'a Plan,
    reference: &'a AnalysisEngine,
    rng: Rng,
    conn: usize,
    block: Vec<OpKind>,
    frames: u64,
    /// Rounds recorded per account of this connection (`user / CONNS`).
    rounds: Vec<u32>,
    /// Forward `composed` answers by (workload, rounds).
    spent: HashMap<(usize, u32), f64>,
    eps_order: Vec<usize>,
    curve_order: Vec<usize>,
    eps_pos: usize,
    curve_pos: usize,
}

impl<'a> ConnGen<'a> {
    pub fn new(plan: &'a Plan, reference: &'a AnalysisEngine, conn: usize) -> Self {
        let mut rng = Rng::new(plan.seed, 1 + conn as u64);
        let rounds = if plan.workload.is_serve() {
            conn_users(conn).map(|u| account(plan.seed, u).1).collect()
        } else {
            Vec::new()
        };
        let mut eps_order = plan.pool_indices(OpKind::Epsilon);
        let mut curve_order = plan.pool_indices(OpKind::Curve);
        rng.shuffle(&mut eps_order);
        rng.shuffle(&mut curve_order);
        ConnGen {
            plan,
            reference,
            rng,
            conn,
            block: Vec::new(),
            frames: 0,
            rounds,
            spent: HashMap::new(),
            eps_order,
            curve_order,
            eps_pos: 0,
            curve_pos: 0,
        }
    }

    /// Op classes come in shuffled blocks, so every seed sends the same mix.
    fn next_kind(&mut self) -> OpKind {
        if self.block.is_empty() {
            let mut block: Vec<OpKind> = match self.plan.workload {
                Workload::ServeRtt | Workload::ServePipelined => [
                    [OpKind::Delta; 4].as_slice(),
                    &[OpKind::Charge; 2],
                    &[OpKind::Remaining; 2],
                ]
                .concat(),
                Workload::EpsWarm => [[OpKind::Epsilon; 7].as_slice(), &[OpKind::Curve]].concat(),
                // Latency is bimodal (`max_eps0` ≈ 4 ms, `min_n` 6–9 ms):
                // with 11 `min_n` in 16 the median sits inside the `min_n`
                // mode, not in the gap between the modes, where a few ops
                // more or less of either kind would move it by a third.
                Workload::PlanCold => [
                    [OpKind::MinN; 11].as_slice(),
                    &[OpKind::MaxEps0; 4],
                    &[OpKind::Composed],
                ]
                .concat(),
            };
            self.rng.shuffle(&mut block);
            self.block = block;
        }
        self.block.pop().expect("refilled above")
    }

    fn pool_op(&self, index: usize) -> (String, OpSpec) {
        let entry = &self.plan.pool[index];
        let spec = OpSpec {
            kind: entry.kind,
            expect: Expect::Pool(index),
        };
        (entry.line.clone(), spec)
    }

    fn spent(&mut self, w: usize, rounds: u32) -> f64 {
        let reference = self.reference;
        *self.spent.entry((w, rounds)).or_insert_with(|| {
            let q = composed_query(SERVE_EPS0, SERVE_NS[w], rounds, LEDGER_DELTA);
            reference
                .run(&q)
                .ok()
                .and_then(|r| r.scalar())
                .unwrap_or(f64::NAN)
        })
    }

    fn next_op(&mut self) -> (String, OpSpec) {
        let kind = self.next_kind();
        match kind {
            OpKind::Delta => {
                let index = self.rng.below(self.plan.pool.len());
                self.pool_op(index)
            }
            OpKind::Epsilon => {
                let index = self.eps_order[self.eps_pos % self.eps_order.len()];
                self.eps_pos += 1;
                self.pool_op(index)
            }
            OpKind::Curve => {
                let index = self.curve_order[self.curve_pos % self.curve_order.len()];
                self.curve_pos += 1;
                self.pool_op(index)
            }
            OpKind::Charge | OpKind::Remaining => {
                let slot = self.rng.below(self.rounds.len());
                let user = (slot * CONNS + self.conn) as u64;
                let (w, _) = account(self.plan.seed, user);
                let (command, body) = if kind == OpKind::Charge {
                    self.rounds[slot] += 1;
                    let rounds = self.rounds[slot];
                    let vr = VariationRatio::ldp_worst_case(SERVE_EPS0).expect("valid ε₀");
                    let op = LedgerOp::Charge {
                        user,
                        vr,
                        n: SERVE_NS[w],
                        rounds: 1,
                    };
                    let receipt = ChargeReceipt {
                        user,
                        workload_rounds: rounds,
                        total_rounds: u64::from(rounds),
                        workloads: 1,
                    };
                    (Command::Ledger(op), ReplyBody::Charge(receipt))
                } else {
                    let rounds = self.rounds[slot];
                    let spent = self.spent(w, rounds);
                    let op = LedgerOp::Remaining {
                        user,
                        eps: BUDGET_EPS,
                        delta: LEDGER_DELTA,
                    };
                    let status = BudgetStatus {
                        user,
                        spent,
                        remaining: BUDGET_EPS - spent,
                        rounds: u64::from(rounds),
                        workloads: 1,
                    };
                    (Command::Ledger(op), ReplyBody::Budget(status))
                };
                let expected = normalize(&Reply::ok(None, body).to_json().to_string()).0;
                let spec = OpSpec {
                    kind,
                    expect: Expect::Text(expected),
                };
                (request_line(command), spec)
            }
            OpKind::MinN | OpKind::MaxEps0 | OpKind::Composed => {
                let rng = &mut self.rng;
                let query = match kind {
                    OpKind::MinN => numerical(rng.uniform(0.5, 2.5))
                        .min_population(
                            rng.uniform(0.1, 0.5),
                            PLAN_DELTA,
                            vr_core::engine::DEFAULT_N_HI_HINT,
                        )
                        .build(),
                    OpKind::MaxEps0 => numerical(8.0)
                        .max_local_budget(
                            rng.uniform(0.1, 0.5),
                            PLAN_DELTA,
                            rng.int(20_000, 200_000),
                        )
                        .build(),
                    _ => Ok(composed_query(
                        rng.uniform(0.5, 2.5),
                        rng.int(100, 300),
                        rng.int(1, 64) as u32,
                        PLAN_DELTA,
                    )),
                }
                .expect("valid planner query");
                let spec = OpSpec {
                    kind,
                    expect: Expect::Deferred(Box::new(query.clone())),
                };
                (query_line(&query), spec)
            }
        }
    }
}

impl FrameSource for ConnGen<'_> {
    fn next_frame(&mut self) -> Frame {
        let cycle = (BATCH_EVERY - 1) * WINDOW + 1;
        let batch = self.plan.workload == Workload::ServePipelined
            && self.frames % cycle as u64 == cycle as u64 - 1;
        self.frames += 1;
        if !batch {
            let (line, spec) = self.next_op();
            return Frame {
                line,
                ops: vec![spec],
            };
        }
        let (lines, ops): (Vec<String>, Vec<OpSpec>) = (0..WINDOW).map(|_| self.next_op()).unzip();
        Frame {
            line: format!("{{\"op\":\"batch\",\"queries\":[{}]}}", lines.join(",")),
            ops,
        }
    }
}
