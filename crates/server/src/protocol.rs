//! The newline-delimited JSON wire protocol: typed request/reply frames and
//! the (de)serializers shared by the daemon and the client library, so both
//! ends agree byte-for-byte on what travels.
//!
//! # Request schema
//!
//! One JSON object per line. Fields:
//!
//! | Field | Type | Meaning |
//! |---|---|---|
//! | `op` | string | the [`Op::name`] of one entry of [`Op::ALL`] |
//! | `id` | string/number | optional; echoed verbatim in the reply |
//! | `eps0` | number | worst-case `ε₀`-LDP source (alone), or the baseline budget (with `p`/`beta`/`q`); for `max_eps0` the search *ceiling* |
//! | `p`, `beta`, `q` | number | explicit variation-ratio source (`p` may be the string `"inf"`; rejected for `max_eps0`) |
//! | `n` | integer | population size (required for every query op except `min_n`, which searches it) |
//! | `eps` | number | `delta` op: the privacy level queried; `min_n` / `max_eps0`: the target level |
//! | `delta` | number | `epsilon` / `composed` ops: the failure probability; `min_n` / `max_eps0`: the target `δ` |
//! | `eps_max`, `points` | number, integer | `curve` op: grid upper end and size |
//! | `rounds` | integer | `composed` op: adaptive shuffle rounds |
//! | `n_hi` | integer | `min_n` op: optional bracketing hint (default 2²⁰) |
//! | `axis`, `grid`, `target` | string, array, string | `sweep` op: `"n"`/`"eps0"`, the grid values, and the op fanned out per grid point |
//! | `queries` | array | `batch` op: up to [`MAX_BATCH_QUERIES`] query or scalar ledger frames (each with its own `op`/`id`/fields) served through one parse/reply cycle |
//! | `bound` | string | registry bound name, `"best-of"`, or omitted for the default portfolio |
//! | `user` | integer | `charge` / `remaining` / `affordable_rounds`: the ledger user id (`< 2⁵³` on the wire) |
//! | `eps`, `delta` | number | `remaining` / `affordable_rounds`: the budget level probed against the user's composed spend |
//! | `cap` | integer | `affordable_rounds`: search ceiling on additional rounds (default [`DEFAULT_AFFORD_CAP`]) |
//! | `rows` | array of strings | `ledger_import`: CSV rows ([`vr_ledger::csv`]), applied frame-atomically |
//! | `users` | array of integers | `ledger_export`: users whose entries to export as CSV rows |
//!
//! The ledger ops `charge` and `affordable_rounds` name their workload
//! exactly like a query frame names its source: `eps0` (worst-case LDP) or
//! explicit `p`/`beta`/`q`, plus the population `n`; `charge` adds the
//! `rounds` count composed onto the user's entry.
//!
//! # Reply schema
//!
//! Success: `{"id":…,"ok":true,"value":…,"bound":…,"cache_hit":…,
//! "wall_micros":…,"eps_ceiling":…,"conditional":…}` with `"curve":{"eps":
//! […],"delta":[…]}` replacing `"value"` for curve queries; planner replies
//! (`min_n` / `max_eps0`) add a `"certificate"` object (`failing` — may be
//! `null` —, `passing`, `evaluations`, `cache_hits`); `sweep` replies carry
//! a `"sweep"` object with parallel `grid` / `value` / `bound` / `error`
//! arrays (failed grid points have a `null` value and an error string) plus
//! aggregate `cache_hits` / `wall_micros`; `batch` replies carry a
//! `"batch"` array of one full reply frame per submitted query, **in
//! submission order**, each bit-identical to the frame the same query would
//! get on its own (one bad query yields one error entry, never a dead
//! batch); ledger replies carry a `"charge"` object (`user`,
//! `workload_rounds`, `total_rounds`, `workloads`), a `"budget"` object
//! (`user`, `spent`, `remaining`, `rounds`, `workloads` — `spent` is
//! bit-identical to the forward `composed` answer), an `"affordable"`
//! object (`user`, `rounds`, `spent`, `saturated`, optional
//! `certificate`), an `"imported"` object (`rows`), or a `"rows"` string
//! array (`ledger_export`); `stats` replies carry a `"stats"` object
//! (including the `op_batch` and `pipelined_frames` counters the sharded
//! daemon maintains plus the per-ledger-op counters and `ledger_users` /
//! `ledger_workloads` gauges) and `shutdown` acknowledges with
//! `{"ok":true,"shutting_down":true}`.
//! Failure: `{"id":…,"ok":false,"error":{"kind":…,"message":…}}` — and the
//! connection stays open.

use crate::json::Json;
use vr_core::engine::{
    Affordability, AmplificationQuery, AnalysisReport, BoundSelection, PlanCertificate,
    QueryTarget, QueryValue, SweepAxis, DEFAULT_N_HI_HINT,
};
use vr_core::error::Error;
use vr_core::params::VariationRatio;
use vr_ledger::{AffordabilityReport, BudgetStatus, ChargeReceipt, ImportReceipt};

/// Wire spelling of the `best-of` portfolio selection (distinct from every
/// registry bound name).
pub const BEST_OF: &str = "best-of";

/// Wire spelling of `p = ∞` (multi-message workloads); JSON numbers cannot
/// carry infinities.
pub const P_INFINITY: &str = "inf";

/// Most query frames one `batch` request may carry. The 64 KiB line cap
/// already bounds realistic batches far below this; the explicit ceiling
/// keeps a degenerate frame of thousands of empty items from ballooning the
/// reply.
pub const MAX_BATCH_QUERIES: usize = 1024;

/// Default `cap` of an `affordable_rounds` frame that omits the field: the
/// certified search probes at most this many additional rounds. Wide enough
/// for any realistic deployment schedule while keeping a hostile frame from
/// driving the exponential bracket into astronomically priced probes.
pub const DEFAULT_AFFORD_CAP: u32 = 1 << 20;

/// Declares [`Op`] from one table: a row per op holds its variant, its
/// wire `op` spelling, and the `stats` key that counts it.
macro_rules! wire_ops {
    ($($(#[doc = $doc:literal])* $variant:ident => $name:literal, $key:expr;)+) => {
        /// Every wire op. Parsing, the daemon's per-op counters, the
        /// `stats` keys and the `vr-query` help all read this one table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Op {
            $($(#[doc = $doc])* $variant,)+
        }

        impl Op {
            /// Every op, in table order (also the order of the README's
            /// request schema, which a unit test holds to this list).
            pub const ALL: &'static [Op] = &[$(Op::$variant),+];

            /// The `"op"` spelling a frame carries.
            pub fn name(self) -> &'static str {
                match self {
                    $(Op::$variant => $name,)+
                }
            }

            /// The `stats` reply key counting this op (`None`: not counted).
            pub fn stats_key(self) -> Option<&'static str> {
                match self {
                    $(Op::$variant => $key,)+
                }
            }
        }
    };
}

wire_ops! {
    /// `δ` at a queried `ε`.
    Delta => "delta", Some("op_delta");
    /// `ε` at a queried `δ`.
    Epsilon => "epsilon", Some("op_epsilon");
    /// The `(ε, δ)` curve over a grid.
    Curve => "curve", Some("op_curve");
    /// `ε` of adaptively composed shuffle rounds.
    Composed => "composed", Some("op_composed");
    /// Planner: the minimal population meeting a target.
    MinN => "min_n", Some("op_min_n");
    /// Planner: the largest local budget meeting a target.
    MaxEps0 => "max_eps0", Some("op_max_eps0");
    /// A query template fanned over a parameter grid.
    Sweep => "sweep", Some("op_sweep");
    /// Many query or scalar ledger frames in one frame.
    Batch => "batch", Some("op_batch");
    /// Ledger: compose rounds onto a user's entry.
    Charge => "charge", Some("op_charge");
    /// Ledger: a user's spend and headroom.
    Remaining => "remaining", Some("op_remaining");
    /// Ledger: certified count of additional affordable rounds.
    AffordableRounds => "affordable_rounds", Some("op_affordable");
    /// Ledger: frame-atomic bulk load of CSV rows.
    LedgerImport => "ledger_import", Some("op_ledger_import");
    /// Ledger: export users' entries as CSV rows.
    LedgerExport => "ledger_export", Some("op_ledger_export");
    /// The daemon's counters.
    Stats => "stats", Some("op_stats");
    /// Graceful shutdown.
    Shutdown => "shutdown", None;
}

impl Op {
    /// The op a frame's `"op"` string names, if any.
    fn from_name(name: &str) -> Option<Op> {
        Op::ALL.iter().copied().find(|op| op.name() == name)
    }

    /// Position of the op in [`Op::ALL`] (an index for per-op arrays).
    pub(crate) fn index(self) -> usize {
        // ALL lists every variant, so the fallback is never taken.
        Op::ALL.iter().position(|&op| op == self).unwrap_or(0)
    }

    /// The op of a query's target.
    fn of_query(q: &AmplificationQuery) -> Op {
        match q.target() {
            QueryTarget::Delta { .. } => Op::Delta,
            QueryTarget::Epsilon { .. } => Op::Epsilon,
            QueryTarget::Curve { .. } => Op::Curve,
            QueryTarget::Composed { .. } => Op::Composed,
            QueryTarget::MinPopulation { .. } => Op::MinN,
            QueryTarget::MaxLocalBudget { .. } => Op::MaxEps0,
        }
    }
}

/// Machine-readable error category of a wire error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request was not a valid protocol frame (bad JSON, wrong types,
    /// missing fields, oversized line).
    Malformed,
    /// A parameter is outside its documented domain.
    InvalidParameter,
    /// The requested bound does not apply to this workload.
    NotApplicable,
    /// The `(ε, δ)` target cannot be achieved (irreducible divergence).
    Unachievable,
    /// The worker queue is full; retry later.
    Busy,
    /// The daemon is shutting down.
    ShuttingDown,
    /// A worker failed unexpectedly while serving the request (the
    /// connection — and the daemon — survive).
    Internal,
}

impl ErrorKind {
    /// The wire spelling of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::InvalidParameter => "invalid_parameter",
            ErrorKind::NotApplicable => "not_applicable",
            ErrorKind::Unachievable => "unachievable",
            ErrorKind::Busy => "busy",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "malformed" => ErrorKind::Malformed,
            "invalid_parameter" => ErrorKind::InvalidParameter,
            "not_applicable" => ErrorKind::NotApplicable,
            "unachievable" => ErrorKind::Unachievable,
            "busy" => ErrorKind::Busy,
            "shutting_down" => ErrorKind::ShuttingDown,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// A structured protocol error: category plus a human-readable message.
/// Every failure mode of the daemon maps onto one of these — a client never
/// sees a dropped connection in place of a diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Build an error of the given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }

    /// A malformed-frame error.
    pub fn malformed(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Malformed, message)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str(self.kind.as_str().into())),
            ("message", Json::Str(self.message.clone())),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        let kind = ErrorKind::from_str(v.get("kind")?.as_str()?)?;
        let message = v.get("message")?.as_str()?.to_string();
        Some(Self { kind, message })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for WireError {}

impl From<Error> for WireError {
    fn from(e: Error) -> Self {
        let kind = match &e {
            Error::InvalidParameter(_) => ErrorKind::InvalidParameter,
            Error::NotApplicable(_) => ErrorKind::NotApplicable,
            Error::Unachievable(_) => ErrorKind::Unachievable,
            Error::Internal(_) => ErrorKind::Internal,
        };
        // The core Display forms repeat the category; keep the payload.
        let message = match e {
            Error::InvalidParameter(m)
            | Error::NotApplicable(m)
            | Error::Unachievable(m)
            | Error::Internal(m) => m,
        };
        Self::new(kind, message)
    }
}

/// What a request frame asks the daemon to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Serve an amplification query through the shared engine (forward
    /// targets and the planner's `min_n` / `max_eps0` inverse targets).
    Query(Box<AmplificationQuery>),
    /// Fan a query template over a parameter grid
    /// ([`vr_core::engine::AnalysisEngine::sweep`]).
    Sweep {
        /// The query each grid point re-parameterizes.
        template: Box<AmplificationQuery>,
        /// The grid axis and values.
        axis: SweepAxis,
    },
    /// Serve a whole array of independent queries through
    /// [`vr_core::engine::AnalysisEngine::run_batch`] in one parse/reply
    /// cycle. Items that failed to parse ride along as error entries so the
    /// reply stays positionally aligned with the request.
    Batch(Vec<BatchItem>),
    /// Execute one operation against the daemon's shared budget ledger.
    Ledger(LedgerOp),
    /// Report the daemon's aggregate counters.
    Stats,
    /// Begin a graceful shutdown (acknowledged before the daemon stops
    /// accepting).
    Shutdown,
}

impl Command {
    /// The wire op this command travels as.
    pub fn op(&self) -> Op {
        match self {
            Command::Query(q) => Op::of_query(q),
            Command::Sweep { .. } => Op::Sweep,
            Command::Batch(_) => Op::Batch,
            Command::Ledger(op) => op.op(),
            Command::Stats => Op::Stats,
            Command::Shutdown => Op::Shutdown,
        }
    }
}

/// One operation against the daemon's shared [`vr_ledger::BudgetLedger`].
/// The scalar ops (`charge` / `remaining` / `affordable_rounds`) may also
/// ride inside a `batch` frame, where they execute **in submission order**
/// relative to each other.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerOp {
    /// Compose `rounds` more rounds of the workload onto the user's entry
    /// (`{"op":"charge"}`).
    Charge {
        /// The charged user.
        user: u64,
        /// The charged workload.
        vr: VariationRatio,
        /// Population size of the charged workload.
        n: u64,
        /// Rounds composed by this charge (≥ 1).
        rounds: u32,
    },
    /// Report the user's composed spend and headroom against `(eps, delta)`
    /// (`{"op":"remaining"}`).
    Remaining {
        /// The queried user.
        user: u64,
        /// The budget level.
        eps: f64,
        /// The failure probability.
        delta: f64,
    },
    /// Certified count of additional affordable rounds of the workload
    /// (`{"op":"affordable_rounds"}`).
    AffordableRounds {
        /// The probed user (a cohort's representative).
        user: u64,
        /// The workload whose rounds are probed.
        vr: VariationRatio,
        /// Population size of the probed workload.
        n: u64,
        /// The budget level.
        eps: f64,
        /// The failure probability.
        delta: f64,
        /// Search ceiling on additional rounds.
        cap: u32,
    },
    /// Frame-atomic bulk load of CSV rows (`{"op":"ledger_import"}`).
    Import(Vec<String>),
    /// Export the named users' entries as CSV rows
    /// (`{"op":"ledger_export"}`).
    Export(Vec<u64>),
}

impl LedgerOp {
    /// The wire op this ledger op travels as.
    pub fn op(&self) -> Op {
        match self {
            LedgerOp::Charge { .. } => Op::Charge,
            LedgerOp::Remaining { .. } => Op::Remaining,
            LedgerOp::AffordableRounds { .. } => Op::AffordableRounds,
            LedgerOp::Import(_) => Op::LedgerImport,
            LedgerOp::Export(_) => Op::LedgerExport,
        }
    }
}

/// What one entry of a `batch` request asks for: an engine query (fanned
/// out through the warm batch path) or a scalar ledger op (executed in
/// submission order relative to other ledger items of the same frame).
#[derive(Debug, Clone, PartialEq)]
pub enum BatchPayload {
    /// An engine query.
    Query(Box<AmplificationQuery>),
    /// A scalar ledger op (`charge` / `remaining` / `affordable_rounds`).
    Ledger(LedgerOp),
}

impl BatchPayload {
    /// The wire op this item travels as.
    pub fn op(&self) -> Op {
        match self {
            BatchPayload::Query(q) => Op::of_query(q),
            BatchPayload::Ledger(op) => op.op(),
        }
    }
}

/// One entry of a `batch` request: the item's own correlation id (echoed in
/// its entry of the batch reply) plus either the parsed payload or the
/// structured parse error that will answer it — one bad item never fails
/// its neighbours.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItem {
    /// Per-item correlation id (string or number), echoed in the item's
    /// reply entry.
    pub id: Option<Json>,
    /// The parsed payload, or the error its reply entry will carry.
    pub payload: std::result::Result<BatchPayload, WireError>,
}

impl BatchItem {
    /// A well-formed query item without a correlation id.
    pub fn query(query: AmplificationQuery) -> Self {
        Self {
            id: None,
            payload: Ok(BatchPayload::Query(Box::new(query))),
        }
    }

    /// A well-formed ledger item without a correlation id.
    pub fn ledger(op: LedgerOp) -> Self {
        Self {
            id: None,
            payload: Ok(BatchPayload::Ledger(op)),
        }
    }
}

/// One parsed request frame: the optional caller-chosen correlation `id`
/// (echoed in the reply) plus the command.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Correlation id (string or number), echoed verbatim.
    pub id: Option<Json>,
    /// The command to execute.
    pub command: Command,
}

/// Extract the correlation id from a (possibly half-parsed) frame so error
/// replies can still be correlated.
pub fn extract_id(frame: &Json) -> Option<Json> {
    match frame.get("id") {
        Some(id @ (Json::Str(_) | Json::Num(_))) => Some(id.clone()),
        _ => None,
    }
}

fn field_f64(frame: &Json, key: &str) -> Result<f64, WireError> {
    frame
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| WireError::malformed(format!("`{key}` must be a number")))
}

fn field_u64(frame: &Json, key: &str) -> Result<u64, WireError> {
    frame
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| WireError::malformed(format!("`{key}` must be a non-negative integer")))
}

impl Request {
    /// Parse a request frame, mapping every defect to a structured
    /// [`WireError`] (never a panic).
    pub fn from_json(frame: &Json) -> Result<Request, WireError> {
        if !matches!(frame, Json::Obj(_)) {
            return Err(WireError::malformed("request must be a JSON object"));
        }
        let id = extract_id(frame);
        let name = frame
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::malformed("request needs a string `op` field"))?;
        let op = Op::from_name(name).ok_or_else(|| {
            let expected: Vec<&str> = Op::ALL.iter().map(|op| op.name()).collect();
            WireError::malformed(format!(
                "unknown op `{name}` (expected {})",
                expected.join("/")
            ))
        })?;
        let command = match op {
            Op::Stats => Command::Stats,
            Op::Shutdown => Command::Shutdown,
            Op::Delta | Op::Epsilon | Op::Curve | Op::Composed | Op::MinN | Op::MaxEps0 => {
                Command::Query(Box::new(parse_query(frame, op)?))
            }
            Op::Sweep => parse_sweep(frame)?,
            Op::Batch => parse_batch(frame)?,
            Op::Charge
            | Op::Remaining
            | Op::AffordableRounds
            | Op::LedgerImport
            | Op::LedgerExport => Command::Ledger(parse_ledger(frame, op)?),
        };
        Ok(Request { id, command })
    }

    /// Serialize this request to its wire frame.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = Vec::new();
        if let Some(id) = &self.id {
            members.push(("id".into(), id.clone()));
        }
        members.push(("op".into(), Json::Str(self.command.op().name().into())));
        match &self.command {
            Command::Stats | Command::Shutdown => {}
            Command::Query(q) => push_query_fields(&mut members, q),
            Command::Sweep { template, axis } => {
                members.push(("axis".into(), Json::Str(axis.kind().into())));
                members.push((
                    "grid".into(),
                    Json::Arr(axis.grid_values().iter().map(|&x| Json::Num(x)).collect()),
                ));
                members.push((
                    "target".into(),
                    Json::Str(Op::of_query(template).name().into()),
                ));
                push_query_fields(&mut members, template);
            }
            Command::Batch(items) => {
                let queries = items
                    .iter()
                    .map(|item| match &item.payload {
                        Ok(payload) => {
                            let mut fields: Vec<(String, Json)> = Vec::new();
                            if let Some(id) = &item.id {
                                fields.push(("id".into(), id.clone()));
                            }
                            fields.push(("op".into(), Json::Str(payload.op().name().into())));
                            match payload {
                                BatchPayload::Query(q) => push_query_fields(&mut fields, q),
                                BatchPayload::Ledger(op) => push_ledger_fields(&mut fields, op),
                            }
                            Json::Obj(fields)
                        }
                        // A parse-failed item has no faithful wire form left;
                        // `null` keeps the array positionally aligned and
                        // re-parses to a per-item error again.
                        Err(_) => Json::Null,
                    })
                    .collect();
                members.push(("queries".into(), Json::Arr(queries)));
            }
            Command::Ledger(op) => push_ledger_fields(&mut members, op),
        }
        Json::Obj(members)
    }
}

/// Parse a `batch` frame: a `queries` array of embedded query frames, each
/// carrying its own `op` (and optional `id`). Defects of the *array* fail
/// the whole frame; defects of an *item* become that item's error entry —
/// mirroring how `sweep` carries per-point failures.
fn parse_batch(frame: &Json) -> Result<Command, WireError> {
    let items = frame
        .get("queries")
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError::malformed("batch needs a `queries` array"))?;
    if items.is_empty() {
        return Err(WireError::malformed("batch `queries` must be non-empty"));
    }
    if items.len() > MAX_BATCH_QUERIES {
        return Err(WireError::malformed(format!(
            "batch carries {} queries (max {MAX_BATCH_QUERIES})",
            items.len()
        )));
    }
    Ok(Command::Batch(items.iter().map(parse_batch_item).collect()))
}

/// Parse one entry of a batch's `queries` array; defects become the item's
/// own error entry instead of failing the batch.
fn parse_batch_item(item: &Json) -> BatchItem {
    let id = extract_id(item);
    let payload = (|| {
        if !matches!(item, Json::Obj(_)) {
            return Err(WireError::malformed("batch item must be a JSON object"));
        }
        let name = item
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::malformed("batch item needs a string `op` field"))?;
        match Op::from_name(name) {
            Some(
                op @ (Op::Delta | Op::Epsilon | Op::Curve | Op::Composed | Op::MinN | Op::MaxEps0),
            ) => parse_query(item, op).map(|q| BatchPayload::Query(Box::new(q))),
            Some(op @ (Op::Charge | Op::Remaining | Op::AffordableRounds)) => {
                parse_ledger(item, op).map(BatchPayload::Ledger)
            }
            _ => Err(WireError::malformed(format!(
                "batch items must be query ops or scalar ledger ops (got `{name}`)"
            ))),
        }
    })();
    BatchItem { id, payload }
}

/// Parse a workload source the way ledger ops name one: `eps0` (worst-case
/// LDP) or explicit `p`/`beta`/`q` — the same spellings a query frame uses.
fn parse_source(frame: &Json) -> Result<VariationRatio, WireError> {
    if frame.get("p").is_some() {
        let p = match frame.get("p") {
            Some(Json::Str(s)) if s == P_INFINITY => f64::INFINITY,
            Some(v) => v.as_f64().ok_or_else(|| {
                WireError::malformed(format!("`p` must be a number or \"{P_INFINITY}\""))
            })?,
            None => {
                // Guarded by the presence check above; report the impossible
                // instead of panicking in a serving thread.
                return Err(WireError::new(
                    ErrorKind::Internal,
                    "`p` vanished between the presence check and the read",
                ));
            }
        };
        let beta = field_f64(frame, "beta")?;
        let q = field_f64(frame, "q")?;
        VariationRatio::new(p, beta, q).map_err(WireError::from)
    } else if frame.get("eps0").is_some() {
        VariationRatio::ldp_worst_case(field_f64(frame, "eps0")?).map_err(WireError::from)
    } else {
        Err(WireError::malformed(
            "ledger op needs a workload source: `eps0` (worst-case LDP) or explicit \
             `p`/`beta`/`q`",
        ))
    }
}

/// Parse a ledger op frame (standalone or as a batch item).
fn parse_ledger(frame: &Json, op: Op) -> Result<LedgerOp, WireError> {
    match op {
        Op::Charge => {
            let user = field_u64(frame, "user")?;
            let vr = parse_source(frame)?;
            let n = field_u64(frame, "n")?;
            let rounds = u32::try_from(field_u64(frame, "rounds")?)
                .map_err(|_| WireError::malformed("`rounds` is out of range"))?;
            Ok(LedgerOp::Charge {
                user,
                vr,
                n,
                rounds,
            })
        }
        Op::Remaining => Ok(LedgerOp::Remaining {
            user: field_u64(frame, "user")?,
            eps: field_f64(frame, "eps")?,
            delta: field_f64(frame, "delta")?,
        }),
        Op::AffordableRounds => {
            let user = field_u64(frame, "user")?;
            let vr = parse_source(frame)?;
            let n = field_u64(frame, "n")?;
            let eps = field_f64(frame, "eps")?;
            let delta = field_f64(frame, "delta")?;
            let cap = match frame.get("cap") {
                None => DEFAULT_AFFORD_CAP,
                Some(v) => v
                    .as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| WireError::malformed("`cap` is out of range"))?,
            };
            Ok(LedgerOp::AffordableRounds {
                user,
                vr,
                n,
                eps,
                delta,
                cap,
            })
        }
        Op::LedgerImport => {
            let rows = frame
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::malformed("ledger_import needs a `rows` array"))?;
            if rows.is_empty() {
                return Err(WireError::malformed(
                    "ledger_import `rows` must be non-empty",
                ));
            }
            let rows = rows
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| WireError::malformed("`rows` entries must be CSV strings"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(LedgerOp::Import(rows))
        }
        Op::LedgerExport => {
            let users = frame
                .get("users")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::malformed("ledger_export needs a `users` array"))?;
            if users.is_empty() {
                return Err(WireError::malformed(
                    "ledger_export `users` must be non-empty",
                ));
            }
            let users = users
                .iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        WireError::malformed("`users` entries must be non-negative integers")
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(LedgerOp::Export(users))
        }
        _ => Err(WireError::new(
            ErrorKind::Internal,
            format!(
                "op `{}` has no ledger handler despite passing dispatch",
                op.name()
            ),
        )),
    }
}

/// Serialize a workload source as explicit `p`/`beta`/`q` (round-trip-exact:
/// [`VariationRatio::new`] stores the fields verbatim, so re-parsing
/// reconstructs the identical workload whatever constructor built it).
fn push_source(members: &mut Vec<(String, Json)>, vr: &VariationRatio) {
    if vr.p().is_finite() {
        members.push(("p".into(), Json::Num(vr.p())));
    } else {
        members.push(("p".into(), Json::Str(P_INFINITY.into())));
    }
    members.push(("beta".into(), Json::Num(vr.beta())));
    members.push(("q".into(), Json::Num(vr.q())));
}

/// Serialize a ledger op's fields (shared by standalone frames and batch
/// items; the `op` key itself is written by the caller).
fn push_ledger_fields(members: &mut Vec<(String, Json)>, op: &LedgerOp) {
    match op {
        LedgerOp::Charge {
            user,
            vr,
            n,
            rounds,
        } => {
            members.push(("user".into(), json_count(*user)));
            push_source(members, vr);
            members.push(("n".into(), json_count(*n)));
            members.push(("rounds".into(), json_count(u64::from(*rounds))));
        }
        LedgerOp::Remaining { user, eps, delta } => {
            members.push(("user".into(), json_count(*user)));
            members.push(("eps".into(), Json::Num(*eps)));
            members.push(("delta".into(), Json::Num(*delta)));
        }
        LedgerOp::AffordableRounds {
            user,
            vr,
            n,
            eps,
            delta,
            cap,
        } => {
            members.push(("user".into(), json_count(*user)));
            push_source(members, vr);
            members.push(("n".into(), json_count(*n)));
            members.push(("eps".into(), Json::Num(*eps)));
            members.push(("delta".into(), Json::Num(*delta)));
            members.push(("cap".into(), json_count(u64::from(*cap))));
        }
        LedgerOp::Import(rows) => {
            members.push((
                "rows".into(),
                Json::Arr(rows.iter().map(|r| Json::Str(r.clone())).collect()),
            ));
        }
        LedgerOp::Export(users) => {
            members.push((
                "users".into(),
                Json::Arr(users.iter().map(|&u| json_count(u)).collect()),
            ));
        }
    }
}

/// A count as a JSON number. Wire-ingested counts are already validated to
/// the f64-exact integer range ([`Json::as_u64`] rejects anything ≥ 2⁵³),
/// so the conversion is exact for every value the daemon round-trips; an
/// in-process count beyond 2⁵³ rounds to the nearest representable f64
/// instead of panicking.
#[expect(
    clippy::cast_precision_loss,
    reason = "u64 → f64 count: exact below 2⁵³ (the wire range), rounds above"
)]
fn json_count(x: u64) -> Json {
    Json::Num(x as f64)
}

/// Serialize a query's source, population, target and selection fields (the
/// `op` key itself is written by the caller, so query and sweep frames can
/// share one definition of the field layout).
fn push_query_fields(members: &mut Vec<(String, Json)>, q: &AmplificationQuery) {
    // max_eps0 searches worst-case LDP workloads parameterized by the ε₀
    // ceiling alone; writing p/β/q would be rejected on re-parse.
    if !matches!(q.target(), QueryTarget::MaxLocalBudget { .. }) {
        let vr = q.variation_ratio();
        if vr.p().is_finite() {
            members.push(("p".into(), Json::Num(vr.p())));
        } else {
            members.push(("p".into(), Json::Str(P_INFINITY.into())));
        }
        members.push(("beta".into(), Json::Num(vr.beta())));
        members.push(("q".into(), Json::Num(vr.q())));
    }
    if let Some(eps0) = q.local_budget() {
        members.push(("eps0".into(), Json::Num(eps0)));
    }
    // Planner targets carry their population axis inside the target.
    if !matches!(
        q.target(),
        QueryTarget::MinPopulation { .. } | QueryTarget::MaxLocalBudget { .. }
    ) {
        members.push(("n".into(), json_count(q.population())));
    }
    match *q.target() {
        QueryTarget::Delta { eps } => members.push(("eps".into(), Json::Num(eps))),
        QueryTarget::Epsilon { delta } => members.push(("delta".into(), Json::Num(delta))),
        QueryTarget::Curve { eps_max, points } => {
            members.push(("eps_max".into(), Json::Num(eps_max)));
            members.push((
                "points".into(),
                json_count(u64::try_from(points).unwrap_or(u64::MAX)),
            ));
        }
        QueryTarget::Composed { rounds, delta } => {
            members.push(("rounds".into(), json_count(u64::from(rounds))));
            members.push(("delta".into(), Json::Num(delta)));
        }
        QueryTarget::MinPopulation {
            eps,
            delta,
            n_hi_hint,
        } => {
            members.push(("eps".into(), Json::Num(eps)));
            members.push(("delta".into(), Json::Num(delta)));
            members.push(("n_hi".into(), json_count(n_hi_hint)));
        }
        QueryTarget::MaxLocalBudget { eps, delta, n } => {
            members.push(("eps".into(), Json::Num(eps)));
            members.push(("delta".into(), Json::Num(delta)));
            members.push(("n".into(), json_count(n)));
        }
    }
    match q.selection() {
        BoundSelection::Default => {}
        BoundSelection::Named(name) => members.push(("bound".into(), Json::Str(name.clone()))),
        BoundSelection::BestOf => members.push(("bound".into(), Json::Str(BEST_OF.into()))),
    }
}

/// Build the typed query a frame describes, running it through the same
/// `QueryBuilder::build()` validation gauntlet in-process callers get.
fn parse_query(frame: &Json, op: Op) -> Result<AmplificationQuery, WireError> {
    let explicit_p = frame.get("p").is_some();
    if op == Op::MaxEps0 && explicit_p {
        return Err(WireError::malformed(
            "max_eps0 searches worst-case LDP workloads; give the `eps0` ceiling \
             instead of explicit `p`/`beta`/`q`",
        ));
    }
    if op == Op::MinN && frame.get("n").is_some() {
        // Mirror the builder, which rejects `.population()` on planner
        // targets: a stray `n` must not be silently shadowed by the search.
        return Err(WireError::malformed(
            "min_n searches the population; drop `n` (use `n_hi` as a bracketing hint)",
        ));
    }
    let mut builder = if explicit_p {
        let p = match frame.get("p") {
            Some(Json::Str(s)) if s == P_INFINITY => f64::INFINITY,
            Some(v) => v.as_f64().ok_or_else(|| {
                WireError::malformed(format!("`p` must be a number or \"{P_INFINITY}\""))
            })?,
            None => {
                // Guarded by `explicit_p` above; a panic-free zone reports
                // the impossible instead of aborting the worker.
                return Err(WireError::new(
                    ErrorKind::Internal,
                    "`p` vanished between the presence check and the read",
                ));
            }
        };
        let beta = field_f64(frame, "beta")?;
        let q = field_f64(frame, "q")?;
        let vr = VariationRatio::new(p, beta, q).map_err(WireError::from)?;
        let mut b = AmplificationQuery::params(vr);
        if frame.get("eps0").is_some() {
            b = b.local_budget(field_f64(frame, "eps0")?);
        }
        b
    } else if frame.get("eps0").is_some() {
        AmplificationQuery::ldp_worst_case(field_f64(frame, "eps0")?).map_err(WireError::from)?
    } else {
        return Err(WireError::malformed(
            "query needs a source: `eps0` (worst-case LDP) or explicit `p`/`beta`/`q`",
        ));
    };

    // The planner ops carry their population axis inside the target (`min_n`
    // searches it; `max_eps0` fixes it there); every forward op requires it.
    if !matches!(op, Op::MinN | Op::MaxEps0) {
        builder = builder.population(field_u64(frame, "n")?);
    }
    builder = match op {
        Op::Delta => builder.delta_at(field_f64(frame, "eps")?),
        Op::Epsilon => builder.epsilon_at(field_f64(frame, "delta")?),
        Op::Curve => {
            let points = field_u64(frame, "points")?;
            let points = usize::try_from(points)
                .map_err(|_| WireError::malformed("`points` is out of range"))?;
            builder.curve(field_f64(frame, "eps_max")?, points)
        }
        Op::Composed => {
            let rounds = field_u64(frame, "rounds")?;
            let rounds = u32::try_from(rounds)
                .map_err(|_| WireError::malformed("`rounds` is out of range"))?;
            builder.composed(rounds, field_f64(frame, "delta")?)
        }
        Op::MinN => {
            let n_hi = match frame.get("n_hi") {
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| WireError::malformed("`n_hi` must be a non-negative integer"))?,
                None => DEFAULT_N_HI_HINT,
            };
            builder.min_population(field_f64(frame, "eps")?, field_f64(frame, "delta")?, n_hi)
        }
        Op::MaxEps0 => builder.max_local_budget(
            field_f64(frame, "eps")?,
            field_f64(frame, "delta")?,
            field_u64(frame, "n")?,
        ),
        _ => {
            return Err(WireError::new(
                ErrorKind::Internal,
                format!(
                    "op `{}` has no query handler despite passing dispatch",
                    op.name()
                ),
            ))
        }
    };
    if let Some(bound) = frame.get("bound") {
        let name = bound
            .as_str()
            .ok_or_else(|| WireError::malformed("`bound` must be a string"))?;
        builder = if name == BEST_OF {
            builder.best_of()
        } else {
            builder.bound(name)
        };
    }
    builder.build().map_err(WireError::from)
}

/// Parse a `sweep` frame: the axis and grid, plus an embedded query template
/// addressed by `target` (the per-point op). The template reuses the normal
/// query fields; when the frame does not spell out the axis field itself,
/// the first grid value seeds the template (each grid point overrides it
/// when the sweep runs).
fn parse_sweep(frame: &Json) -> Result<Command, WireError> {
    let axis_kind = frame
        .get("axis")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::malformed("sweep needs an `axis` of \"n\" or \"eps0\""))?;
    let target = frame
        .get("target")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::malformed("sweep needs a `target` op to fan out"))?;
    let target = match Op::from_name(target) {
        Some(op @ (Op::Delta | Op::Epsilon | Op::Composed | Op::MinN | Op::MaxEps0)) => op,
        _ => {
            return Err(WireError::malformed(format!(
                "sweep target must be a scalar query op (got `{target}`)"
            )))
        }
    };
    if axis_kind == "n" && target == Op::MinN {
        return Err(WireError::malformed(
            "min_n searches the population; sweep it over `eps0` instead of `n`",
        ));
    }
    let grid = frame
        .get("grid")
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError::malformed("sweep needs a `grid` array"))?;
    if grid.is_empty() {
        return Err(WireError::malformed("sweep `grid` must be non-empty"));
    }
    let axis = match axis_kind {
        "n" => SweepAxis::Population(
            grid.iter()
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        WireError::malformed("`grid` populations must be non-negative integers")
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
        "eps0" => SweepAxis::LocalBudget(
            grid.iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| WireError::malformed("`grid` budgets must be numbers"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        ),
        other => {
            return Err(WireError::malformed(format!(
                "sweep axis must be \"n\" or \"eps0\" (got `{other}`)"
            )))
        }
    };
    // Seed the template with the first grid value when the axis field is
    // absent from the frame (the engine re-parameterizes every point).
    let axis_key = axis.kind();
    let template_frame = if frame.get(axis_key).is_some() {
        frame.clone()
    } else {
        let Json::Obj(members) = frame else {
            // The dispatcher only routes object frames here; report the
            // broken invariant instead of aborting the worker.
            return Err(WireError::new(
                ErrorKind::Internal,
                "sweep template frame is not an object",
            ));
        };
        let mut members = members.clone();
        let seed = axis.grid_values().first().copied().ok_or_else(|| {
            WireError::new(ErrorKind::Internal, "sweep grid emptied after validation")
        })?;
        members.push((axis_key.to_string(), Json::Num(seed)));
        Json::Obj(members)
    };
    let template = parse_query(&template_frame, target)?;
    Ok(Command::Sweep {
        template: Box::new(template),
        axis,
    })
}

/// Declares [`StatsSnapshot`] from one list of `stats` keys, in reply order.
macro_rules! stats_snapshot {
    ($($(#[doc = $doc:literal])* $key:ident,)+) => {
        /// A point-in-time snapshot of the daemon's aggregate and per-op
        /// counters, served by the `stats` op.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[doc = $doc])* pub $key: u64,)+
        }

        impl StatsSnapshot {
            /// Every counter as `(stats key, value)`, in reply order.
            pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($key), self.$key)),+].into_iter()
            }

            fn entries_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut u64)> + '_ {
                [$((stringify!($key), &mut self.$key)),+].into_iter()
            }
        }
    };
}

stats_snapshot! {
/// Connections accepted since start.
connections,
/// Request frames received (all ops, including rejected ones).
requests,
/// Requests answered successfully.
ok,
/// Requests answered with a structured error (malformed frames
/// included, busy rejections excluded).
errors,
/// Requests rejected with `busy` because the worker queue was full.
busy_rejections,
/// Served queries whose every evaluator lookup was warm.
cache_hits,
/// `delta` queries served or attempted.
op_delta,
/// `epsilon` queries served or attempted.
op_epsilon,
/// `curve` queries served or attempted.
op_curve,
/// `composed` queries served or attempted.
op_composed,
/// `min_n` planner queries served or attempted.
op_min_n,
/// `max_eps0` planner queries served or attempted.
op_max_eps0,
/// `sweep` requests served or attempted.
op_sweep,
/// `batch` frames served or attempted (each counts once here; the
/// queries inside additionally tick their per-op counters).
op_batch,
/// `stats` requests served.
op_stats,
/// `charge` ledger ops served or attempted (batch items included).
op_charge,
/// `remaining` ledger ops served or attempted (batch items included).
op_remaining,
/// `affordable_rounds` ledger ops served or attempted (batch items
/// included).
op_affordable,
/// `ledger_import` frames served or attempted.
op_ledger_import,
/// `ledger_export` frames served or attempted.
op_ledger_export,
/// Frames that arrived already queued behind another frame of the same
/// connection read (i.e. every frame of a burst beyond its first) — the
/// observable signal that clients are pipelining.
pipelined_frames,
/// Microseconds since the daemon started.
uptime_micros,
/// Shard threads owning connections (the `workers` config knob).
workers,
/// Configured queue depth (backpressure threshold).
queue_depth,
/// Distinct workloads memoized in the engine's evaluator cache.
cached_evaluators,
/// Users currently holding at least one charged round in the ledger.
ledger_users,
/// Distinct workloads priced by the ledger so far.
ledger_workloads,}

impl StatsSnapshot {
    /// Set the counter under a `stats` key; an unknown key is ignored (a
    /// unit test holds every [`Op::stats_key`] to this struct's keys).
    pub(crate) fn set(&mut self, key: &str, value: u64) {
        if let Some((_, slot)) = self.entries_mut().find(|(k, _)| *k == key) {
            *slot = value;
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.entries()
                .map(|(k, v)| (k.to_string(), json_count(v)))
                .collect(),
        )
    }

    fn from_json(v: &Json) -> Option<Self> {
        let mut out = Self::default();
        for (key, slot) in out.entries_mut() {
            *slot = v.get(key)?.as_u64()?;
        }
        Some(out)
    }
}

/// Provenance metadata of a served query (the wire form of the
/// non-value fields of [`AnalysisReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplyMeta {
    /// Name of the answering bound.
    pub bound: String,
    /// `ε` ceiling of the answering bound's validity domain (`+∞` encoded
    /// as JSON `null`).
    pub eps_ceiling: f64,
    /// Whether in-domain queries may still fail for this bound.
    pub conditional: bool,
    /// Whether the query was served entirely from warm evaluator state.
    pub cache_hit: bool,
    /// Serving wall time in microseconds.
    pub wall_micros: u64,
    /// Planner search certificate (`min_n` / `max_eps0` replies only): the
    /// failing/passing witness pair plus probe and cache-hit tallies.
    pub certificate: Option<PlanCertificate>,
}

/// The payload of a `sweep` reply: parallel arrays over the grid, with
/// failed points carried as `None` values plus an error message (one bad
/// grid point does not fail its neighbours).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The swept axis (`"n"` / `"eps0"`).
    pub axis: String,
    /// The grid values, echoed back (populations exact below 2⁵³).
    pub grid: Vec<f64>,
    /// Per-point scalar answers (`None` where the point failed).
    pub values: Vec<Option<f64>>,
    /// Per-point winning bound names (`None` where the point failed).
    pub bounds: Vec<Option<String>>,
    /// Per-point error messages (`None` where the point succeeded).
    pub errors: Vec<Option<String>>,
    /// Grid points served entirely from warm evaluator state.
    pub cache_hits: u64,
    /// Total engine time across all points, in microseconds.
    pub wall_micros: u64,
}

/// The successful payload of a reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    /// A scalar answer (`delta`, `epsilon`, `composed` ops).
    Scalar {
        /// The certified value.
        value: f64,
        /// Serving provenance.
        meta: ReplyMeta,
    },
    /// A sampled privacy curve (`curve` op).
    Curve {
        /// Grid of privacy levels.
        eps: Vec<f64>,
        /// Certified `δ` at each grid point.
        delta: Vec<f64>,
        /// Serving provenance.
        meta: ReplyMeta,
    },
    /// A parameter sweep (`sweep` op).
    Sweep(SweepOutcome),
    /// A batch of independent queries (`batch` op): one full reply per
    /// submitted item, in submission order, each serialized exactly as the
    /// item's standalone frame would be (bit-identical values, same
    /// per-item errors).
    Batch(Vec<Reply>),
    /// A charge receipt (`charge` op).
    Charge(ChargeReceipt),
    /// A budget position (`remaining` op).
    Budget(BudgetStatus),
    /// A certified affordability report (`affordable_rounds` op).
    Affordable(AffordabilityReport),
    /// Exported CSV rows (`ledger_export` op).
    LedgerRows(Vec<String>),
    /// A bulk-import receipt (`ledger_import` op).
    Imported(ImportReceipt),
    /// Daemon counters (`stats` op).
    Stats(StatsSnapshot),
    /// Shutdown acknowledgement.
    ShuttingDown,
}

/// One reply frame: the echoed id plus either a success body or a
/// structured error.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Correlation id echoed from the request.
    pub id: Option<Json>,
    /// Outcome.
    pub outcome: Result<ReplyBody, WireError>,
}

impl Reply {
    /// A success reply.
    pub fn ok(id: Option<Json>, body: ReplyBody) -> Self {
        Self {
            id,
            outcome: Ok(body),
        }
    }

    /// An error reply.
    pub fn err(id: Option<Json>, error: WireError) -> Self {
        Self {
            id,
            outcome: Err(error),
        }
    }

    /// Wire form of an [`AnalysisReport`].
    pub fn from_report(id: Option<Json>, report: &AnalysisReport) -> Self {
        let meta = ReplyMeta {
            bound: report.bound.clone(),
            eps_ceiling: report.validity.eps_ceiling,
            conditional: report.validity.conditional,
            cache_hit: report.cache_hit,
            wall_micros: u64::try_from(report.wall.as_micros()).unwrap_or(u64::MAX),
            certificate: report.certificate,
        };
        let body = match &report.value {
            QueryValue::Scalar(v) => ReplyBody::Scalar { value: *v, meta },
            QueryValue::Curve(curve) => {
                let (eps, delta) = curve.points().unzip();
                ReplyBody::Curve { eps, delta, meta }
            }
        };
        Self::ok(id, body)
    }

    /// Wire form of an [`vr_core::engine::AnalysisEngine::sweep`] result.
    pub fn from_sweep(
        id: Option<Json>,
        axis: &SweepAxis,
        reports: &[std::result::Result<AnalysisReport, Error>],
    ) -> Self {
        let mut outcome = SweepOutcome {
            axis: axis.kind().to_string(),
            grid: axis.grid_values(),
            values: Vec::with_capacity(reports.len()),
            bounds: Vec::with_capacity(reports.len()),
            errors: Vec::with_capacity(reports.len()),
            cache_hits: 0,
            wall_micros: 0,
        };
        for report in reports {
            match report {
                Ok(r) => {
                    // Sweeps serve scalar targets, so `scalar()` is always
                    // `Some`; a curve report slipping through serializes as
                    // `null` for that grid point rather than panicking.
                    outcome.values.push(r.scalar());
                    outcome.bounds.push(Some(r.bound.clone()));
                    outcome.errors.push(None);
                    outcome.cache_hits += u64::from(r.cache_hit);
                    outcome.wall_micros = outcome
                        .wall_micros
                        .saturating_add(u64::try_from(r.wall.as_micros()).unwrap_or(u64::MAX));
                }
                Err(e) => {
                    outcome.values.push(None);
                    outcome.bounds.push(None);
                    outcome.errors.push(Some(e.to_string()));
                }
            }
        }
        Self::ok(id, ReplyBody::Sweep(outcome))
    }

    /// Serialize to the wire frame.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = Vec::new();
        if let Some(id) = &self.id {
            members.push(("id".into(), id.clone()));
        }
        match &self.outcome {
            Ok(body) => {
                members.push(("ok".into(), Json::Bool(true)));
                match body {
                    ReplyBody::Scalar { value, meta } => {
                        members.push(("value".into(), Json::Num(*value)));
                        push_meta(&mut members, meta);
                    }
                    ReplyBody::Curve { eps, delta, meta } => {
                        members.push((
                            "curve".into(),
                            Json::obj(vec![
                                (
                                    "eps",
                                    Json::Arr(eps.iter().map(|&x| Json::Num(x)).collect()),
                                ),
                                (
                                    "delta",
                                    Json::Arr(delta.iter().map(|&x| Json::Num(x)).collect()),
                                ),
                            ]),
                        ));
                        push_meta(&mut members, meta);
                    }
                    ReplyBody::Sweep(sweep) => {
                        let opt_num = |xs: &[Option<f64>]| {
                            Json::Arr(xs.iter().map(|x| x.map_or(Json::Null, Json::Num)).collect())
                        };
                        let opt_str = |xs: &[Option<String>]| {
                            Json::Arr(
                                xs.iter()
                                    .map(|x| {
                                        x.as_ref().map_or(Json::Null, |s| Json::Str(s.clone()))
                                    })
                                    .collect(),
                            )
                        };
                        members.push((
                            "sweep".into(),
                            Json::obj(vec![
                                ("axis", Json::Str(sweep.axis.clone())),
                                (
                                    "grid",
                                    Json::Arr(sweep.grid.iter().map(|&x| Json::Num(x)).collect()),
                                ),
                                ("value", opt_num(&sweep.values)),
                                ("bound", opt_str(&sweep.bounds)),
                                ("error", opt_str(&sweep.errors)),
                                ("cache_hits", json_count(sweep.cache_hits)),
                                ("wall_micros", json_count(sweep.wall_micros)),
                            ]),
                        ));
                    }
                    ReplyBody::Batch(replies) => {
                        members.push((
                            "batch".into(),
                            Json::Arr(replies.iter().map(Reply::to_json).collect()),
                        ));
                    }
                    ReplyBody::Charge(receipt) => {
                        members.push((
                            "charge".into(),
                            Json::obj(vec![
                                ("user", json_count(receipt.user)),
                                (
                                    "workload_rounds",
                                    json_count(u64::from(receipt.workload_rounds)),
                                ),
                                ("total_rounds", json_count(receipt.total_rounds)),
                                ("workloads", json_count(receipt.workloads)),
                            ]),
                        ));
                    }
                    ReplyBody::Budget(status) => {
                        members.push((
                            "budget".into(),
                            Json::obj(vec![
                                ("user", json_count(status.user)),
                                ("spent", Json::Num(status.spent)),
                                ("remaining", Json::Num(status.remaining)),
                                ("rounds", json_count(status.rounds)),
                                ("workloads", json_count(status.workloads)),
                            ]),
                        ));
                    }
                    ReplyBody::Affordable(report) => {
                        let a = &report.affordability;
                        let mut fields = vec![
                            ("user", json_count(report.user)),
                            ("rounds", json_count(u64::from(a.rounds))),
                            ("spent", Json::Num(a.spent)),
                            ("saturated", Json::Bool(a.saturated)),
                        ];
                        if let Some(cert) = &a.certificate {
                            fields.push(("certificate", cert_to_json(cert)));
                        }
                        members.push(("affordable".into(), Json::obj(fields)));
                    }
                    ReplyBody::LedgerRows(rows) => {
                        members.push((
                            "rows".into(),
                            Json::Arr(rows.iter().map(|r| Json::Str(r.clone())).collect()),
                        ));
                    }
                    ReplyBody::Imported(receipt) => {
                        members.push((
                            "imported".into(),
                            Json::obj(vec![("rows", json_count(receipt.rows))]),
                        ));
                    }
                    ReplyBody::Stats(stats) => {
                        members.push(("stats".into(), stats.to_json()));
                    }
                    ReplyBody::ShuttingDown => {
                        members.push(("shutting_down".into(), Json::Bool(true)));
                    }
                }
            }
            Err(error) => {
                members.push(("ok".into(), Json::Bool(false)));
                members.push(("error".into(), error.to_json()));
            }
        }
        Json::Obj(members)
    }

    /// Parse a reply frame (the client side of the protocol).
    pub fn from_json(frame: &Json) -> Result<Reply, WireError> {
        let id = extract_id(frame);
        let ok = frame
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| WireError::malformed("reply needs a boolean `ok`"))?;
        if !ok {
            let error = frame
                .get("error")
                .and_then(WireError::from_json)
                .ok_or_else(|| WireError::malformed("error reply needs an `error` object"))?;
            return Ok(Reply::err(id, error));
        }
        let body = if let Some(v) = frame.get("value") {
            ReplyBody::Scalar {
                value: v
                    .as_f64()
                    .ok_or_else(|| WireError::malformed("`value` must be a number"))?,
                meta: parse_meta(frame)?,
            }
        } else if let Some(curve) = frame.get("curve") {
            let axis = |key: &str| -> Result<Vec<f64>, WireError> {
                curve
                    .get(key)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError::malformed(format!("curve needs `{key}` array")))?
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| WireError::malformed("curve points must be numbers"))
                    })
                    .collect()
            };
            ReplyBody::Curve {
                eps: axis("eps")?,
                delta: axis("delta")?,
                meta: parse_meta(frame)?,
            }
        } else if let Some(sweep) = frame.get("sweep") {
            ReplyBody::Sweep(parse_sweep_outcome(sweep)?)
        } else if let Some(batch) = frame.get("batch") {
            let entries = batch
                .as_arr()
                .ok_or_else(|| WireError::malformed("`batch` must be an array"))?;
            ReplyBody::Batch(
                entries
                    .iter()
                    .map(Reply::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            )
        } else if let Some(charge) = frame.get("charge") {
            let count = |k: &str| -> Result<u64, WireError> {
                charge
                    .get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| WireError::malformed(format!("charge reply missing `{k}`")))
            };
            ReplyBody::Charge(ChargeReceipt {
                user: count("user")?,
                workload_rounds: u32::try_from(count("workload_rounds")?)
                    .map_err(|_| WireError::malformed("`workload_rounds` is out of range"))?,
                total_rounds: count("total_rounds")?,
                workloads: count("workloads")?,
            })
        } else if let Some(budget) = frame.get("budget") {
            let count = |k: &str| -> Result<u64, WireError> {
                budget
                    .get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| WireError::malformed(format!("budget reply missing `{k}`")))
            };
            ReplyBody::Budget(BudgetStatus {
                user: count("user")?,
                spent: wire_f64(budget, "spent", f64::INFINITY)?,
                remaining: wire_f64(budget, "remaining", f64::NEG_INFINITY)?,
                rounds: count("rounds")?,
                workloads: count("workloads")?,
            })
        } else if let Some(afford) = frame.get("affordable") {
            let missing = |k: &str| WireError::malformed(format!("affordable reply missing `{k}`"));
            ReplyBody::Affordable(AffordabilityReport {
                user: afford
                    .get("user")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| missing("user"))?,
                affordability: Affordability {
                    rounds: afford
                        .get("rounds")
                        .and_then(Json::as_u64)
                        .and_then(|x| u32::try_from(x).ok())
                        .ok_or_else(|| missing("rounds"))?,
                    spent: wire_f64(afford, "spent", f64::INFINITY)?,
                    saturated: afford
                        .get("saturated")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| missing("saturated"))?,
                    certificate: match afford.get("certificate") {
                        None => None,
                        Some(cert) => Some(cert_from_json(cert)?),
                    },
                },
            })
        } else if let Some(rows) = frame.get("rows") {
            let rows = rows
                .as_arr()
                .ok_or_else(|| WireError::malformed("`rows` must be an array"))?;
            ReplyBody::LedgerRows(
                rows.iter()
                    .map(|v| {
                        v.as_str().map(str::to_string).ok_or_else(|| {
                            WireError::malformed("`rows` entries must be CSV strings")
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            )
        } else if let Some(imported) = frame.get("imported") {
            ReplyBody::Imported(ImportReceipt {
                rows: imported
                    .get("rows")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| WireError::malformed("imported reply missing `rows`"))?,
            })
        } else if let Some(stats) = frame.get("stats") {
            ReplyBody::Stats(
                StatsSnapshot::from_json(stats)
                    .ok_or_else(|| WireError::malformed("bad `stats` object"))?,
            )
        } else if frame.get("shutting_down").is_some() {
            ReplyBody::ShuttingDown
        } else {
            return Err(WireError::malformed(
                "success reply needs `value`, `curve`, `sweep`, `batch`, `charge`, `budget`, \
                 `affordable`, `rows`, `imported`, `stats` or `shutting_down`",
            ));
        };
        Ok(Reply::ok(id, body))
    }
}

/// Read a required float field of a reply object, decoding the `null` that
/// [`Json`] writes for non-finite values back to `non_finite` (the sign the
/// field's domain implies: spends saturate to `+∞`, remainders to `-∞`).
fn wire_f64(obj: &Json, key: &str, non_finite: f64) -> Result<f64, WireError> {
    match obj.get(key) {
        Some(Json::Null) => Ok(non_finite),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| WireError::malformed(format!("`{key}` must be a number or null"))),
        None => Err(WireError::malformed(format!("reply missing `{key}`"))),
    }
}

/// Wire form of a planner/affordability certificate.
fn cert_to_json(cert: &PlanCertificate) -> Json {
    Json::obj(vec![
        ("failing", cert.failing.map_or(Json::Null, Json::Num)),
        ("passing", Json::Num(cert.passing)),
        ("evaluations", Json::Num(f64::from(cert.evaluations))),
        ("cache_hits", Json::Num(f64::from(cert.cache_hits))),
    ])
}

/// Parse a certificate object (shared by query meta and ledger replies).
fn cert_from_json(cert: &Json) -> Result<PlanCertificate, WireError> {
    let missing = |k: &str| WireError::malformed(format!("certificate missing `{k}`"));
    let counter = |k: &str| -> Result<u32, WireError> {
        cert.get(k)
            .and_then(Json::as_u64)
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| missing(k))
    };
    Ok(PlanCertificate {
        failing: match cert.get("failing") {
            Some(Json::Null) | None => None,
            Some(v) => Some(v.as_f64().ok_or_else(|| missing("failing"))?),
        },
        passing: cert
            .get("passing")
            .and_then(Json::as_f64)
            .ok_or_else(|| missing("passing"))?,
        evaluations: counter("evaluations")?,
        cache_hits: counter("cache_hits")?,
    })
}

/// Parse the `"sweep"` object of a sweep reply (parallel nullable arrays).
fn parse_sweep_outcome(v: &Json) -> Result<SweepOutcome, WireError> {
    let missing = |k: &str| WireError::malformed(format!("sweep reply missing `{k}`"));
    let nums = |key: &str| -> Result<Vec<f64>, WireError> {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| missing(key))?
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| WireError::malformed(format!("`{key}` entries must be numbers")))
            })
            .collect()
    };
    let opt_nums = |key: &str| -> Result<Vec<Option<f64>>, WireError> {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| missing(key))?
            .iter()
            .map(|x| match x {
                Json::Null => Ok(None),
                other => other.as_f64().map(Some).ok_or_else(|| {
                    WireError::malformed(format!("`{key}` entries must be numbers or null"))
                }),
            })
            .collect()
    };
    let opt_strs = |key: &str| -> Result<Vec<Option<String>>, WireError> {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| missing(key))?
            .iter()
            .map(|x| match x {
                Json::Null => Ok(None),
                other => other.as_str().map(|s| Some(s.to_string())).ok_or_else(|| {
                    WireError::malformed(format!("`{key}` entries must be strings or null"))
                }),
            })
            .collect()
    };
    let outcome = SweepOutcome {
        axis: v
            .get("axis")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("axis"))?
            .to_string(),
        grid: nums("grid")?,
        values: opt_nums("value")?,
        bounds: opt_strs("bound")?,
        errors: opt_strs("error")?,
        cache_hits: v
            .get("cache_hits")
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("cache_hits"))?,
        wall_micros: v
            .get("wall_micros")
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("wall_micros"))?,
    };
    let len = outcome.grid.len();
    if outcome.values.len() != len || outcome.bounds.len() != len || outcome.errors.len() != len {
        return Err(WireError::malformed(
            "sweep reply arrays must all match the grid length",
        ));
    }
    Ok(outcome)
}

fn push_meta(members: &mut Vec<(String, Json)>, meta: &ReplyMeta) {
    members.push(("bound".into(), Json::Str(meta.bound.clone())));
    members.push((
        "eps_ceiling".into(),
        if meta.eps_ceiling.is_finite() {
            Json::Num(meta.eps_ceiling)
        } else {
            Json::Null
        },
    ));
    members.push(("conditional".into(), Json::Bool(meta.conditional)));
    members.push(("cache_hit".into(), Json::Bool(meta.cache_hit)));
    members.push(("wall_micros".into(), json_count(meta.wall_micros)));
    if let Some(cert) = &meta.certificate {
        members.push(("certificate".into(), cert_to_json(cert)));
    }
}

fn parse_meta(frame: &Json) -> Result<ReplyMeta, WireError> {
    let missing = |k: &str| WireError::malformed(format!("reply missing `{k}`"));
    Ok(ReplyMeta {
        bound: frame
            .get("bound")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("bound"))?
            .to_string(),
        eps_ceiling: match frame.get("eps_ceiling") {
            Some(Json::Null) => f64::INFINITY,
            Some(v) => v.as_f64().ok_or_else(|| missing("eps_ceiling"))?,
            None => return Err(missing("eps_ceiling")),
        },
        conditional: frame
            .get("conditional")
            .and_then(Json::as_bool)
            .ok_or_else(|| missing("conditional"))?,
        cache_hit: frame
            .get("cache_hit")
            .and_then(Json::as_bool)
            .ok_or_else(|| missing("cache_hit"))?,
        wall_micros: frame
            .get("wall_micros")
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("wall_micros"))?,
        certificate: match frame.get("certificate") {
            None => None,
            Some(cert) => Some(cert_from_json(cert)?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_core::bound::names;

    fn worst_case_query() -> AmplificationQuery {
        AmplificationQuery::ldp_worst_case(1.25)
            .unwrap()
            .population(50_000)
            .epsilon_at(1e-7)
            .bound(names::NUMERICAL)
            .build()
            .unwrap()
    }

    #[test]
    fn query_requests_roundtrip_exactly() {
        let mm = VariationRatio::new(f64::INFINITY, 0.8, 4.0).unwrap();
        let queries = [
            worst_case_query(),
            AmplificationQuery::params(mm)
                .population(1_000)
                .delta_at(0.5)
                .build()
                .unwrap(),
            AmplificationQuery::ldp_worst_case(2.0)
                .unwrap()
                .population(9)
                .curve(1.5, 33)
                .best_of()
                .build()
                .unwrap(),
            AmplificationQuery::ldp_worst_case(0.5)
                .unwrap()
                .population(123_456)
                .composed(10, 1e-9)
                .build()
                .unwrap(),
        ];
        for q in queries {
            let req = Request {
                id: Some(Json::Str("r1".into())),
                command: Command::Query(Box::new(q.clone())),
            };
            let wire = req.to_json().to_string();
            let back = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
            match back.command {
                Command::Query(back_q) => assert_eq!(*back_q, q, "wire: {wire}"),
                other => panic!("wrong command: {other:?}"),
            }
            assert_eq!(back.id, Some(Json::Str("r1".into())));
        }
    }

    #[test]
    fn control_requests_roundtrip() {
        for command in [Command::Stats, Command::Shutdown] {
            let req = Request {
                id: None,
                command: command.clone(),
            };
            let back = Request::from_json(&Json::parse(&req.to_json().to_string()).unwrap());
            assert_eq!(back.unwrap().command, command);
        }
    }

    #[test]
    fn malformed_frames_map_to_structured_errors() {
        for (text, needle) in [
            (r#"[1,2,3]"#, "object"),
            (r#"{"id":"x"}"#, "op"),
            (r#"{"op":"fly"}"#, "unknown op"),
            (r#"{"op":"epsilon","n":1000,"delta":1e-6}"#, "source"),
            (r#"{"op":"epsilon","eps0":1.0,"delta":1e-6}"#, "`n`"),
            (r#"{"op":"epsilon","eps0":1.0,"n":1000}"#, "`delta`"),
            (
                r#"{"op":"epsilon","eps0":1.0,"n":12.5,"delta":1e-6}"#,
                "`n`",
            ),
            (
                r#"{"op":"curve","eps0":1.0,"n":1000,"eps_max":1.0}"#,
                "`points`",
            ),
            (
                r#"{"op":"epsilon","eps0":1.0,"n":1000,"delta":1e-6,"bound":7}"#,
                "`bound`",
            ),
            (
                r#"{"op":"delta","p":"wat","beta":0.1,"q":2.0,"n":10,"eps":0.1}"#,
                "`p`",
            ),
        ] {
            let err = Request::from_json(&Json::parse(text).unwrap()).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Malformed, "{text}");
            assert!(
                err.message.contains(needle),
                "{text}: `{}` lacks `{needle}`",
                err.message
            );
        }
        // Domain violations surface as invalid_parameter, not malformed.
        let err = Request::from_json(
            &Json::parse(r#"{"op":"epsilon","eps0":1.0,"n":1000,"delta":1.5}"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
        let err = Request::from_json(
            &Json::parse(r#"{"op":"epsilon","eps0":-3.0,"n":1000,"delta":1e-6}"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
    }

    #[test]
    fn planner_requests_roundtrip_exactly() {
        let queries = [
            AmplificationQuery::ldp_worst_case(1.0)
                .unwrap()
                .min_population(0.25, 1e-8, 1 << 14)
                .build()
                .unwrap(),
            AmplificationQuery::ldp_worst_case(4.0)
                .unwrap()
                .max_local_budget(0.25, 1e-8, 100_000)
                .build()
                .unwrap(),
        ];
        for q in queries {
            let req = Request {
                id: None,
                command: Command::Query(Box::new(q.clone())),
            };
            let wire = req.to_json().to_string();
            let back = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
            match back.command {
                Command::Query(back_q) => assert_eq!(*back_q, q, "wire: {wire}"),
                other => panic!("wrong command: {other:?}"),
            }
        }
        // min_n without a hint falls back to the default.
        let frame = Json::parse(r#"{"op":"min_n","eps0":1.0,"eps":0.25,"delta":1e-8}"#).unwrap();
        match Request::from_json(&frame).unwrap().command {
            Command::Query(q) => assert_eq!(
                q.target(),
                &QueryTarget::MinPopulation {
                    eps: 0.25,
                    delta: 1e-8,
                    n_hi_hint: DEFAULT_N_HI_HINT
                }
            ),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn sweep_requests_roundtrip_exactly() {
        let template = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(1_000)
            .epsilon_at(1e-8)
            .bound(names::NUMERICAL)
            .build()
            .unwrap();
        for axis in [
            SweepAxis::Population(vec![1_000, 10_000, 100_000]),
            SweepAxis::LocalBudget(vec![0.5, 1.0, 2.0]),
        ] {
            let req = Request {
                id: Some(Json::Num(3.0)),
                command: Command::Sweep {
                    template: Box::new(template.clone()),
                    axis: axis.clone(),
                },
            };
            let wire = req.to_json().to_string();
            let back = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
            match back.command {
                Command::Sweep {
                    template: back_t,
                    axis: back_a,
                } => {
                    assert_eq!(back_a, axis, "wire: {wire}");
                    // The population/budget axis field is re-seeded from the
                    // template's own serialized value, so the round trip is
                    // exact.
                    assert_eq!(*back_t, template, "wire: {wire}");
                }
                other => panic!("wrong command: {other:?}"),
            }
        }
        // A terse hand-written sweep frame parses (axis field seeded from
        // the grid).
        let frame = Json::parse(
            r#"{"op":"sweep","axis":"n","grid":[500,5000],"target":"epsilon","eps0":1.0,"delta":1e-6}"#,
        )
        .unwrap();
        match Request::from_json(&frame).unwrap().command {
            Command::Sweep { template, axis } => {
                assert_eq!(axis, SweepAxis::Population(vec![500, 5_000]));
                assert_eq!(template.population(), 500, "seeded from grid[0]");
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn planner_and_sweep_malformed_frames_are_typed() {
        for (text, needle) in [
            // max_eps0 must not carry an explicit source.
            (
                r#"{"op":"max_eps0","p":2.0,"beta":0.3,"q":2.0,"eps":0.2,"delta":1e-8,"n":100}"#,
                "worst-case",
            ),
            (
                r#"{"op":"max_eps0","eps0":2.0,"eps":0.2,"delta":1e-8}"#,
                "`n`",
            ),
            (r#"{"op":"min_n","eps0":1.0,"delta":1e-8}"#, "`eps`"),
            // A stray `n` on min_n mirrors the builder's population/planner
            // conflict rejection instead of being silently shadowed.
            (
                r#"{"op":"min_n","eps0":1.0,"eps":0.2,"delta":1e-8,"n":1000}"#,
                "drop `n`",
            ),
            (
                r#"{"op":"sweep","axis":"n","grid":[10],"target":"min_n","eps0":1.0,"eps":0.2,"delta":1e-8}"#,
                "sweep it over `eps0`",
            ),
            (
                r#"{"op":"min_n","eps0":1.0,"eps":0.2,"delta":1e-8,"n_hi":1.5}"#,
                "`n_hi`",
            ),
            (r#"{"op":"sweep","grid":[1],"target":"epsilon"}"#, "axis"),
            (
                r#"{"op":"sweep","axis":"rounds","grid":[1],"target":"epsilon"}"#,
                "axis",
            ),
            (
                r#"{"op":"sweep","axis":"n","target":"epsilon","eps0":1.0,"delta":1e-8}"#,
                "`grid`",
            ),
            (
                r#"{"op":"sweep","axis":"n","grid":[],"target":"epsilon","eps0":1.0,"delta":1e-8}"#,
                "non-empty",
            ),
            (
                r#"{"op":"sweep","axis":"n","grid":[10],"eps0":1.0,"delta":1e-8}"#,
                "`target`",
            ),
            (
                r#"{"op":"sweep","axis":"n","grid":[10],"target":"curve","eps0":1.0}"#,
                "scalar",
            ),
            (
                r#"{"op":"sweep","axis":"n","grid":[10.5],"target":"epsilon","eps0":1.0,"delta":1e-8}"#,
                "grid",
            ),
        ] {
            let err = Request::from_json(&Json::parse(text).unwrap()).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Malformed, "{text}");
            assert!(
                err.message.contains(needle),
                "{text}: `{}` lacks `{needle}`",
                err.message
            );
        }
        // Domain defects in planner frames surface as invalid_parameter.
        for text in [
            r#"{"op":"min_n","eps0":1.0,"eps":-0.2,"delta":1e-8}"#,
            r#"{"op":"min_n","eps0":1.0,"eps":0.2,"delta":1e-8,"n_hi":0}"#,
            r#"{"op":"max_eps0","eps0":2.0,"eps":0.2,"delta":2.0,"n":100}"#,
        ] {
            let err = Request::from_json(&Json::parse(text).unwrap()).unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidParameter, "{text}");
        }
    }

    #[test]
    fn batch_requests_roundtrip_exactly() {
        let items = vec![
            BatchItem {
                id: Some(Json::Str("a".into())),
                payload: Ok(BatchPayload::Query(Box::new(worst_case_query()))),
            },
            BatchItem::query(
                AmplificationQuery::ldp_worst_case(2.0)
                    .unwrap()
                    .population(9)
                    .curve(1.5, 33)
                    .best_of()
                    .build()
                    .unwrap(),
            ),
            BatchItem {
                id: Some(Json::Num(7.0)),
                payload: Ok(BatchPayload::Query(Box::new(
                    AmplificationQuery::ldp_worst_case(1.0)
                        .unwrap()
                        .min_population(0.25, 1e-8, 1 << 14)
                        .build()
                        .unwrap(),
                ))),
            },
            BatchItem {
                id: Some(Json::Str("c".into())),
                payload: Ok(BatchPayload::Ledger(LedgerOp::Charge {
                    user: 42,
                    vr: VariationRatio::ldp_worst_case(1.5).unwrap(),
                    n: 10_000,
                    rounds: 3,
                })),
            },
            BatchItem::ledger(LedgerOp::Remaining {
                user: 42,
                eps: 2.0,
                delta: 1e-8,
            }),
        ];
        let req = Request {
            id: Some(Json::Str("b1".into())),
            command: Command::Batch(items.clone()),
        };
        let wire = req.to_json().to_string();
        let back = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back.id, Some(Json::Str("b1".into())));
        match back.command {
            Command::Batch(back_items) => assert_eq!(back_items, items, "wire: {wire}"),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn batch_item_defects_become_error_entries_not_dead_batches() {
        let frame = Json::parse(
            r#"{"op":"batch","queries":[
                {"id":"good","op":"epsilon","eps0":1.0,"n":1000,"delta":1e-6},
                {"id":"bad","op":"epsilon","eps0":1.0,"n":1000},
                {"id":"nested","op":"batch","queries":[]},
                42,
                {"op":"stats"}
            ]}"#,
        )
        .unwrap();
        let items = match Request::from_json(&frame).unwrap().command {
            Command::Batch(items) => items,
            other => panic!("wrong command: {other:?}"),
        };
        assert_eq!(items.len(), 5);
        assert!(items[0].payload.is_ok());
        assert_eq!(items[0].id, Some(Json::Str("good".into())));
        // Field defects carry the same message an individual frame would get.
        let e = items[1].payload.as_ref().unwrap_err();
        assert_eq!(e.kind, ErrorKind::Malformed);
        assert!(e.message.contains("`delta`"), "{}", e.message);
        assert_eq!(items[1].id, Some(Json::Str("bad".into())));
        // Non-query ops (including a nested batch) and non-objects are
        // per-item errors, positionally preserved.
        for (idx, needle) in [(2, "query ops"), (3, "object"), (4, "query ops")] {
            let e = items[idx].payload.as_ref().unwrap_err();
            assert_eq!(e.kind, ErrorKind::Malformed, "item {idx}");
            assert!(e.message.contains(needle), "item {idx}: {}", e.message);
        }
    }

    #[test]
    fn batch_frame_defects_fail_the_whole_frame() {
        for (text, needle) in [
            (r#"{"op":"batch"}"#, "`queries` array"),
            (r#"{"op":"batch","queries":7}"#, "`queries` array"),
            (r#"{"op":"batch","queries":[]}"#, "non-empty"),
        ] {
            let err = Request::from_json(&Json::parse(text).unwrap()).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Malformed, "{text}");
            assert!(err.message.contains(needle), "{text}: {}", err.message);
        }
        let oversized = Command::Batch(
            (0..=MAX_BATCH_QUERIES)
                .map(|_| BatchItem::query(worst_case_query()))
                .collect(),
        );
        let wire = Request {
            id: None,
            command: oversized,
        }
        .to_json()
        .to_string();
        let err = Request::from_json(&Json::parse(&wire).unwrap()).unwrap_err();
        assert!(err.message.contains("max"), "{}", err.message);
    }

    #[test]
    fn batch_replies_roundtrip() {
        let meta = ReplyMeta {
            bound: "numerical".into(),
            eps_ceiling: 2.5,
            conditional: false,
            cache_hit: true,
            wall_micros: 17,
            certificate: None,
        };
        let reply = Reply::ok(
            Some(Json::Str("b".into())),
            ReplyBody::Batch(vec![
                Reply::ok(
                    Some(Json::Str("x".into())),
                    ReplyBody::Scalar {
                        value: 0.123_456,
                        meta: meta.clone(),
                    },
                ),
                Reply::err(
                    None,
                    WireError::new(ErrorKind::InvalidParameter, "delta out of range"),
                ),
                Reply::ok(
                    None,
                    ReplyBody::Curve {
                        eps: vec![0.0, 1.0],
                        delta: vec![0.5, 1e-6],
                        meta,
                    },
                ),
            ]),
        );
        let wire = reply.to_json().to_string();
        let back = Reply::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, reply, "wire: {wire}");
    }

    #[test]
    fn infinite_p_uses_the_string_spelling() {
        let mm = VariationRatio::new(f64::INFINITY, 0.8, 4.0).unwrap();
        let req = Request {
            id: None,
            command: Command::Query(Box::new(
                AmplificationQuery::params(mm)
                    .population(64)
                    .delta_at(1.0)
                    .build()
                    .unwrap(),
            )),
        };
        let wire = req.to_json().to_string();
        assert!(wire.contains(r#""p":"inf""#), "{wire}");
        let back = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
        match back.command {
            Command::Query(q) => assert!(q.variation_ratio().p().is_infinite()),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn replies_roundtrip() {
        let meta = ReplyMeta {
            bound: "numerical".into(),
            eps_ceiling: 1.0f64.exp().ln(),
            conditional: false,
            cache_hit: true,
            wall_micros: 412,
            certificate: None,
        };
        let replies = [
            Reply::ok(
                Some(Json::Num(7.0)),
                ReplyBody::Scalar {
                    value: 0.062_345_678_9,
                    meta: meta.clone(),
                },
            ),
            Reply::ok(
                None,
                ReplyBody::Curve {
                    eps: vec![0.0, 0.5, 1.0],
                    delta: vec![0.3, 1e-5, 0.0],
                    meta: ReplyMeta {
                        eps_ceiling: f64::INFINITY,
                        conditional: true,
                        ..meta.clone()
                    },
                },
            ),
            Reply::ok(
                None,
                ReplyBody::Stats(StatsSnapshot {
                    connections: 3,
                    requests: 99,
                    ok: 90,
                    errors: 6,
                    busy_rejections: 3,
                    cache_hits: 80,
                    op_epsilon: 88,
                    uptime_micros: 123_456,
                    workers: 4,
                    queue_depth: 64,
                    cached_evaluators: 2,
                    ..StatsSnapshot::default()
                }),
            ),
            Reply::ok(
                Some(Json::Str("plan".into())),
                ReplyBody::Scalar {
                    value: 40_960.0,
                    meta: ReplyMeta {
                        certificate: Some(PlanCertificate {
                            failing: Some(40_959.0),
                            passing: 40_960.0,
                            evaluations: 31,
                            cache_hits: 4,
                        }),
                        ..meta.clone()
                    },
                },
            ),
            Reply::ok(
                None,
                ReplyBody::Scalar {
                    value: 1.25,
                    meta: ReplyMeta {
                        certificate: Some(PlanCertificate {
                            failing: None,
                            passing: 1.25,
                            evaluations: 1,
                            cache_hits: 0,
                        }),
                        ..meta.clone()
                    },
                },
            ),
            Reply::ok(
                None,
                ReplyBody::Sweep(SweepOutcome {
                    axis: "n".into(),
                    grid: vec![100.0, 1_000.0, 10_000.0],
                    values: vec![Some(0.9), None, Some(0.1)],
                    bounds: vec![Some("numerical".into()), None, Some("analytic".into())],
                    errors: vec![None, Some("target not achievable: boom".into()), None],
                    cache_hits: 2,
                    wall_micros: 917,
                }),
            ),
            Reply::ok(None, ReplyBody::ShuttingDown),
            Reply::err(
                Some(Json::Str("x".into())),
                WireError::new(ErrorKind::Busy, "queue full (depth 64)"),
            ),
        ];
        for reply in replies {
            let wire = reply.to_json().to_string();
            let back = Reply::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, reply, "wire: {wire}");
        }
    }

    #[test]
    fn ledger_requests_roundtrip_exactly() {
        let mm = VariationRatio::new(f64::INFINITY, 0.8, 4.0).unwrap();
        let ops = [
            LedgerOp::Charge {
                user: 7,
                vr: VariationRatio::ldp_worst_case(1.25).unwrap(),
                n: 50_000,
                rounds: 12,
            },
            LedgerOp::Charge {
                user: u64::MAX >> 12,
                vr: mm,
                n: 1_000,
                rounds: 1,
            },
            LedgerOp::Remaining {
                user: 7,
                eps: 2.5,
                delta: 1e-9,
            },
            LedgerOp::AffordableRounds {
                user: 7,
                vr: VariationRatio::ldp_worst_case(0.5).unwrap(),
                n: 123_456,
                eps: 1.0,
                delta: 1e-8,
                cap: 4_096,
            },
            LedgerOp::Import(vec!["1,1.0,1000,2".into(), "2,0.5,500,7".into()]),
            LedgerOp::Export(vec![1, 2, 99]),
        ];
        for op in ops {
            let req = Request {
                id: Some(Json::Str("L".into())),
                command: Command::Ledger(op.clone()),
            };
            let wire = req.to_json().to_string();
            let back = Request::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back.id, Some(Json::Str("L".into())));
            match back.command {
                Command::Ledger(back_op) => assert_eq!(back_op, op, "wire: {wire}"),
                other => panic!("wrong command: {other:?}"),
            }
        }
        // A terse hand-written frame parses; the affordability cap defaults.
        let frame = Json::parse(
            r#"{"op":"affordable_rounds","user":3,"eps0":1.0,"n":1000,"eps":0.5,"delta":1e-8}"#,
        )
        .unwrap();
        match Request::from_json(&frame).unwrap().command {
            Command::Ledger(LedgerOp::AffordableRounds { cap, .. }) => {
                assert_eq!(cap, DEFAULT_AFFORD_CAP);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn ledger_malformed_frames_are_typed() {
        for (text, needle) in [
            (r#"{"op":"charge","eps0":1.0,"n":10,"rounds":1}"#, "`user`"),
            (r#"{"op":"charge","user":1,"n":10,"rounds":1}"#, "source"),
            (r#"{"op":"charge","user":1,"eps0":1.0,"rounds":1}"#, "`n`"),
            (r#"{"op":"charge","user":1,"eps0":1.0,"n":10}"#, "`rounds`"),
            (
                r#"{"op":"charge","user":1,"eps0":1.0,"n":10,"rounds":4294967296}"#,
                "`rounds`",
            ),
            (r#"{"op":"remaining","user":1,"delta":1e-8}"#, "`eps`"),
            (
                r#"{"op":"affordable_rounds","user":1,"eps0":1.0,"n":10,"eps":0.5,"delta":1e-8,"cap":1.5}"#,
                "`cap`",
            ),
            (r#"{"op":"ledger_import"}"#, "`rows`"),
            (r#"{"op":"ledger_import","rows":[]}"#, "non-empty"),
            (r#"{"op":"ledger_import","rows":[7]}"#, "CSV strings"),
            (r#"{"op":"ledger_export","users":[]}"#, "non-empty"),
            (r#"{"op":"ledger_export","users":["x"]}"#, "integers"),
        ] {
            let err = Request::from_json(&Json::parse(text).unwrap()).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Malformed, "{text}");
            assert!(
                err.message.contains(needle),
                "{text}: `{}` lacks `{needle}`",
                err.message
            );
        }
        // Workload domain violations surface as invalid_parameter.
        let err = Request::from_json(
            &Json::parse(r#"{"op":"charge","user":1,"eps0":-1.0,"n":10,"rounds":1}"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidParameter);
    }

    #[test]
    fn ledger_replies_roundtrip() {
        let replies = [
            Reply::ok(
                Some(Json::Str("c".into())),
                ReplyBody::Charge(ChargeReceipt {
                    user: 9,
                    workload_rounds: 4,
                    total_rounds: 17,
                    workloads: 2,
                }),
            ),
            Reply::ok(
                None,
                ReplyBody::Budget(BudgetStatus {
                    user: 9,
                    spent: 0.123_456_789,
                    remaining: -0.023_456_789,
                    rounds: 17,
                    workloads: 2,
                }),
            ),
            Reply::ok(
                None,
                ReplyBody::Affordable(AffordabilityReport {
                    user: 9,
                    affordability: Affordability {
                        rounds: 41,
                        spent: 0.25,
                        saturated: false,
                        certificate: Some(PlanCertificate {
                            failing: Some(42.0),
                            passing: 41.0,
                            evaluations: 13,
                            cache_hits: 0,
                        }),
                    },
                }),
            ),
            Reply::ok(
                None,
                ReplyBody::Affordable(AffordabilityReport {
                    user: 1,
                    affordability: Affordability {
                        rounds: 0,
                        spent: 3.0,
                        saturated: false,
                        certificate: None,
                    },
                }),
            ),
            Reply::ok(
                None,
                ReplyBody::LedgerRows(vec!["1,1.0,0.5,1.0,1000,2".into()]),
            ),
            Reply::ok(None, ReplyBody::Imported(ImportReceipt { rows: 1_000_000 })),
        ];
        for reply in replies {
            let wire = reply.to_json().to_string();
            let back = Reply::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, reply, "wire: {wire}");
        }
    }

    #[test]
    fn every_error_kind_has_a_stable_wire_spelling() {
        for kind in [
            ErrorKind::Malformed,
            ErrorKind::InvalidParameter,
            ErrorKind::NotApplicable,
            ErrorKind::Unachievable,
            ErrorKind::Busy,
            ErrorKind::ShuttingDown,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::from_str(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::from_str("nope"), None);
    }

    #[test]
    fn op_table_names_indexes_and_stats_keys_agree() {
        for (i, &op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert_eq!(Op::from_name(op.name()), Some(op));
        }
        assert_eq!(Op::from_name("fly"), None);
        // Every counted op has a snapshot field, and every `op_*` field of
        // the snapshot is some op's counter.
        let keys: Vec<&str> = StatsSnapshot::default().entries().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 27);
        let mut op_keys: Vec<&str> = Op::ALL.iter().filter_map(|op| op.stats_key()).collect();
        let mut snapshot_op_keys: Vec<&str> = keys
            .iter()
            .copied()
            .filter(|k| k.starts_with("op_"))
            .collect();
        op_keys.sort_unstable();
        snapshot_op_keys.sort_unstable();
        assert_eq!(op_keys, snapshot_op_keys);
    }

    #[test]
    fn readme_request_schema_lists_the_op_table() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
        let readme = std::fs::read_to_string(&path).expect("root README.md");
        let lead = "`op` picks the target (";
        let start = readme.find(lead).expect("README request schema op list") + lead.len();
        let list = &readme[start..];
        let list = &list[..list.find(')').expect("op list closes")];
        let listed: Vec<&str> = list.split('`').skip(1).step_by(2).collect();
        let table: Vec<&str> = Op::ALL.iter().map(|op| op.name()).collect();
        assert_eq!(
            listed, table,
            "README request schema drifted from `Op::ALL`"
        );
    }
}
