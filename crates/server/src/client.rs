//! The in-tree client library for the `vr-server` protocol: a blocking,
//! line-framed TCP client used by the `vr-query` binary, the loopback
//! load-generation bench and the round-trip integration tests.
//!
//! A [`Client`] holds one persistent connection. The simple request
//! methods write a frame and block for the matching reply line; the
//! batch/pipelining entry points ([`Client::run_batch`],
//! [`Client::run_pipelined`] and the [`Client::send`] /
//! [`Client::recv_report`] primitives) exploit the daemon's in-order reply
//! guarantee to keep many frames in flight on one connection.
//! Protocol-level failures (`busy`, `invalid_parameter`, …) surface as
//! [`ClientError::Wire`] — the connection stays usable afterwards, exactly
//! as the daemon promises.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::Json;
use crate::protocol::{
    BatchItem, Command, LedgerOp, Reply, ReplyBody, ReplyMeta, Request, StatsSnapshot,
    SweepOutcome, WireError, DEFAULT_AFFORD_CAP,
};
use vr_core::engine::{AmplificationQuery, PlanCertificate, SweepAxis};
use vr_core::params::VariationRatio;
use vr_ledger::{AffordabilityReport, BudgetStatus, ChargeReceipt, ImportReceipt};

/// A failure while talking to the daemon.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, unexpected EOF).
    Io(io::Error),
    /// The daemon answered with a structured protocol error.
    Wire(WireError),
    /// The daemon answered with something the client cannot interpret.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// The served value of a query, mirroring
/// [`vr_core::engine::QueryValue`] on the client side of the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedValue {
    /// A scalar answer.
    Scalar(f64),
    /// A sampled `δ(ε)` curve.
    Curve {
        /// Grid of privacy levels.
        eps: Vec<f64>,
        /// Certified `δ` per grid point.
        delta: Vec<f64>,
    },
}

/// A successfully served query: the value plus the provenance the daemon
/// reported (mirrors [`vr_core::engine::AnalysisReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedReport {
    /// The certified value.
    pub value: ServedValue,
    /// Name of the answering bound.
    pub bound: String,
    /// `ε` ceiling of the answering bound's validity domain.
    pub eps_ceiling: f64,
    /// Whether in-domain queries may still fail for this bound.
    pub conditional: bool,
    /// Whether the daemon served the query from warm evaluator state.
    pub cache_hit: bool,
    /// Planner search certificate (`min_n` / `max_eps0` queries only).
    pub certificate: Option<PlanCertificate>,
    /// Server-side wall time.
    pub wall: Duration,
}

impl ServedReport {
    /// Convenience accessor for scalar replies.
    pub fn scalar(&self) -> Option<f64> {
        match &self.value {
            ServedValue::Scalar(v) => Some(*v),
            ServedValue::Curve { .. } => None,
        }
    }

    fn from_meta(value: ServedValue, meta: ReplyMeta) -> Self {
        Self {
            value,
            bound: meta.bound,
            eps_ceiling: meta.eps_ceiling,
            conditional: meta.conditional,
            cache_hit: meta.cache_hit,
            certificate: meta.certificate,
            wall: Duration::from_micros(meta.wall_micros),
        }
    }
}

/// A blocking client over one persistent daemon connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect to a running daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok(); // latency over batching
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            next_id: 0,
        })
    }

    /// Send a raw line (no validation) and read one reply frame — the
    /// escape hatch the malformed-input tests use.
    pub fn roundtrip_raw(&mut self, line: &str) -> Result<Json, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Json::parse(reply.trim())
            .map_err(|e| ClientError::Protocol(format!("unparseable reply: {e}")))
    }

    /// Send a typed request and parse the typed reply.
    pub fn request(&mut self, request: &Request) -> Result<Reply, ClientError> {
        let frame = self.roundtrip_raw(&request.to_json().to_string())?;
        let reply = Reply::from_json(&frame)
            .map_err(|e| ClientError::Protocol(format!("bad reply frame: {e}")))?;
        if let (Some(sent), Some(got)) = (&request.id, &reply.id) {
            if sent != got {
                return Err(ClientError::Protocol(format!(
                    "reply id mismatch: sent {sent}, got {got}"
                )));
            }
        }
        Ok(reply)
    }

    #[expect(
        clippy::cast_precision_loss,
        reason = "session-local id counter stays far below 2⁵³, so u64 → f64 is exact"
    )]
    fn fresh_id(&mut self) -> Json {
        self.next_id += 1;
        Json::Num(self.next_id as f64)
    }

    /// Serve one [`AmplificationQuery`] remotely. The daemon runs it
    /// through the same engine code path as an in-process
    /// [`vr_core::engine::AnalysisEngine::run`], so answers agree
    /// bit-for-bit.
    pub fn run(&mut self, query: &AmplificationQuery) -> Result<ServedReport, ClientError> {
        let request = Request {
            id: Some(self.fresh_id()),
            command: Command::Query(Box::new(query.clone())),
        };
        let reply = self.request(&request)?;
        match reply.outcome {
            Ok(ReplyBody::Scalar { value, meta }) => {
                Ok(ServedReport::from_meta(ServedValue::Scalar(value), meta))
            }
            Ok(ReplyBody::Curve { eps, delta, meta }) => Ok(ServedReport::from_meta(
                ServedValue::Curve { eps, delta },
                meta,
            )),
            Ok(other) => Err(ClientError::Protocol(format!(
                "expected a query reply, got {other:?}"
            ))),
            Err(e) => Err(ClientError::Wire(e)),
        }
    }

    /// Serve many queries through **one wire frame** (`{"op":"batch"}`):
    /// the daemon fans them out through the same warm
    /// [`vr_core::engine::AnalysisEngine::run_batch`] entry as an
    /// in-process batch and answers with one entry per query, in
    /// submission order. A defective query costs only its own slot — it
    /// comes back as an `Err` entry while its neighbours serve — so the
    /// outer `Result` fails only on transport/protocol trouble or a
    /// frame-level rejection (`busy`, `shutting_down`, malformed frame).
    pub fn run_batch(
        &mut self,
        queries: &[AmplificationQuery],
    ) -> Result<Vec<std::result::Result<ServedReport, WireError>>, ClientError> {
        let request = Request {
            id: Some(self.fresh_id()),
            command: Command::Batch(
                queries
                    .iter()
                    .map(|q| BatchItem::query(q.clone()))
                    .collect(),
            ),
        };
        let replies = match self.request(&request)?.outcome {
            Ok(ReplyBody::Batch(replies)) => replies,
            Ok(other) => {
                return Err(ClientError::Protocol(format!(
                    "expected a batch reply, got {other:?}"
                )))
            }
            Err(e) => return Err(ClientError::Wire(e)),
        };
        if replies.len() != queries.len() {
            return Err(ClientError::Protocol(format!(
                "batch answered {} items for {} queries",
                replies.len(),
                queries.len()
            )));
        }
        let mut out = Vec::with_capacity(replies.len());
        for item in replies {
            out.push(match item.outcome {
                Ok(ReplyBody::Scalar { value, meta }) => {
                    Ok(ServedReport::from_meta(ServedValue::Scalar(value), meta))
                }
                Ok(ReplyBody::Curve { eps, delta, meta }) => Ok(ServedReport::from_meta(
                    ServedValue::Curve { eps, delta },
                    meta,
                )),
                Ok(other) => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected batch item body: {other:?}"
                    )))
                }
                Err(e) => Err(e),
            });
        }
        Ok(out)
    }

    /// Write one query frame **without waiting for the reply** — the send
    /// half of pipelining. Returns the frame's correlation id; collect the
    /// reply later with [`Client::recv_report`], in send order (the daemon
    /// guarantees in-order replies per connection).
    pub fn send(&mut self, query: &AmplificationQuery) -> Result<Json, ClientError> {
        let id = self.fresh_id();
        let request = Request {
            id: Some(id.clone()),
            command: Command::Query(Box::new(query.clone())),
        };
        let mut line = request.to_json().to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(id)
    }

    /// Read the next reply frame and decode it as a served report,
    /// checking that it answers `id` — the receive half of pipelining.
    pub fn recv_report(&mut self, id: &Json) -> Result<ServedReport, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let frame = Json::parse(line.trim())
            .map_err(|e| ClientError::Protocol(format!("unparseable reply: {e}")))?;
        let reply = Reply::from_json(&frame)
            .map_err(|e| ClientError::Protocol(format!("bad reply frame: {e}")))?;
        if reply.id.as_ref() != Some(id) {
            return Err(ClientError::Protocol(format!(
                "reply out of order: expected id {id}, got {:?}",
                reply.id
            )));
        }
        match reply.outcome {
            Ok(ReplyBody::Scalar { value, meta }) => {
                Ok(ServedReport::from_meta(ServedValue::Scalar(value), meta))
            }
            Ok(ReplyBody::Curve { eps, delta, meta }) => Ok(ServedReport::from_meta(
                ServedValue::Curve { eps, delta },
                meta,
            )),
            Ok(other) => Err(ClientError::Protocol(format!(
                "expected a query reply, got {other:?}"
            ))),
            Err(e) => Err(ClientError::Wire(e)),
        }
    }

    /// Write **every** query frame in one burst (a single `write` syscall)
    /// without reading any reply — the send half of pipelining, amortized.
    /// Collect the replies later with [`Client::recv_report`] in the
    /// returned id order. Prefer this over per-frame [`Client::send`] when
    /// the burst is built up front: one large write delivers whole
    /// segments, so the daemon's readiness loop harvests many frames per
    /// socket read instead of one.
    pub fn send_burst(&mut self, queries: &[AmplificationQuery]) -> Result<Vec<Json>, ClientError> {
        let mut burst = String::new();
        let mut ids = Vec::with_capacity(queries.len());
        for query in queries {
            let id = self.fresh_id();
            let request = Request {
                id: Some(id.clone()),
                command: Command::Query(Box::new(query.clone())),
            };
            burst.push_str(&request.to_json().to_string());
            burst.push('\n');
            ids.push(id);
        }
        self.writer.write_all(burst.as_bytes())?;
        self.writer.flush()?;
        Ok(ids)
    }

    /// Pipelined mode: write **every** frame in one burst, then read the
    /// replies back in order — one syscall-amortized round-trip instead of
    /// `queries.len()` serialized ones. A `Wire` error on any reply aborts
    /// the collection (later replies stay unread), so reserve this for
    /// workloads where per-item failure means the run is over; use
    /// [`Client::run_batch`] for a per-item error model.
    pub fn run_pipelined(
        &mut self,
        queries: &[AmplificationQuery],
    ) -> Result<Vec<ServedReport>, ClientError> {
        let ids = self.send_burst(queries)?;
        ids.iter().map(|id| self.recv_report(id)).collect()
    }

    /// Fan a query template over a parameter grid on the daemon
    /// (`{"op":"sweep"}` on the wire), mirroring
    /// [`vr_core::engine::AnalysisEngine::sweep`]: every grid point is
    /// served by the shared warm engine and comes back in grid order, with
    /// per-point failures carried as `None` values plus an error string.
    pub fn sweep(
        &mut self,
        template: &AmplificationQuery,
        axis: &SweepAxis,
    ) -> Result<SweepOutcome, ClientError> {
        let request = Request {
            id: Some(self.fresh_id()),
            command: Command::Sweep {
                template: Box::new(template.clone()),
                axis: axis.clone(),
            },
        };
        match self.request(&request)?.outcome {
            Ok(ReplyBody::Sweep(outcome)) => Ok(outcome),
            Ok(other) => Err(ClientError::Protocol(format!(
                "expected a sweep reply, got {other:?}"
            ))),
            Err(e) => Err(ClientError::Wire(e)),
        }
    }

    /// Write one arbitrary command frame **without waiting for the reply**
    /// — the generic send half of pipelining (ledger ops included).
    /// Collect the reply later with [`Client::recv_reply`], in send order.
    pub fn send_command(&mut self, command: Command) -> Result<Json, ClientError> {
        let id = self.fresh_id();
        let request = Request {
            id: Some(id.clone()),
            command,
        };
        let mut line = request.to_json().to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(id)
    }

    /// Write **every** command frame in one burst (a single `write`
    /// syscall) without reading any reply — [`Client::send_burst`]
    /// generalized to arbitrary commands. Collect the replies with
    /// [`Client::recv_reply`] in the returned id order.
    pub fn send_command_burst(&mut self, commands: Vec<Command>) -> Result<Vec<Json>, ClientError> {
        let mut burst = String::new();
        let mut ids = Vec::with_capacity(commands.len());
        for command in commands {
            let id = self.fresh_id();
            let request = Request {
                id: Some(id.clone()),
                command,
            };
            burst.push_str(&request.to_json().to_string());
            burst.push('\n');
            ids.push(id);
        }
        self.writer.write_all(burst.as_bytes())?;
        self.writer.flush()?;
        Ok(ids)
    }

    /// Read the next reply frame, check that it answers `id`, and return
    /// its body — the generic receive half of pipelining. Wire-level
    /// failures surface as [`ClientError::Wire`]; the connection stays
    /// usable and later replies stay readable in order.
    pub fn recv_reply(&mut self, id: &Json) -> Result<ReplyBody, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let frame = Json::parse(line.trim())
            .map_err(|e| ClientError::Protocol(format!("unparseable reply: {e}")))?;
        let reply = Reply::from_json(&frame)
            .map_err(|e| ClientError::Protocol(format!("bad reply frame: {e}")))?;
        if reply.id.as_ref() != Some(id) {
            return Err(ClientError::Protocol(format!(
                "reply out of order: expected id {id}, got {:?}",
                reply.id
            )));
        }
        reply.outcome.map_err(ClientError::Wire)
    }

    /// Charge `rounds` rounds of the `(vr, n)` workload to `user`'s
    /// account on the daemon's shared ledger (`{"op":"charge"}`).
    pub fn charge(
        &mut self,
        user: u64,
        vr: &VariationRatio,
        n: u64,
        rounds: u32,
    ) -> Result<ChargeReceipt, ClientError> {
        let id = self.send_command(Command::Ledger(LedgerOp::Charge {
            user,
            vr: *vr,
            n,
            rounds,
        }))?;
        self.writer.flush()?;
        match self.recv_reply(&id)? {
            ReplyBody::Charge(receipt) => Ok(receipt),
            other => Err(ClientError::Protocol(format!(
                "expected a charge receipt, got {other:?}"
            ))),
        }
    }

    /// Ask how much of a `(eps, delta)` budget `user` has left
    /// (`{"op":"remaining"}`). The daemon composes the account's recorded
    /// spends through the same seam as a forward `composed` query, so the
    /// answer is bit-identical to recomputing from scratch.
    pub fn remaining(
        &mut self,
        user: u64,
        eps: f64,
        delta: f64,
    ) -> Result<BudgetStatus, ClientError> {
        let id = self.send_command(Command::Ledger(LedgerOp::Remaining { user, eps, delta }))?;
        self.writer.flush()?;
        match self.recv_reply(&id)? {
            ReplyBody::Budget(status) => Ok(status),
            other => Err(ClientError::Protocol(format!(
                "expected a budget status, got {other:?}"
            ))),
        }
    }

    /// Ask how many further rounds of `(vr, n)` the `user` can afford
    /// before exceeding `(eps, delta)` (`{"op":"affordable_rounds"}`),
    /// searching up to `cap` rounds (`None` uses the daemon's default
    /// cap). The answer carries the planner's bracketing certificate.
    pub fn affordable_rounds(
        &mut self,
        user: u64,
        vr: &VariationRatio,
        n: u64,
        eps: f64,
        delta: f64,
        cap: Option<u32>,
    ) -> Result<AffordabilityReport, ClientError> {
        let id = self.send_command(Command::Ledger(LedgerOp::AffordableRounds {
            user,
            vr: *vr,
            n,
            eps,
            delta,
            cap: cap.unwrap_or(DEFAULT_AFFORD_CAP),
        }))?;
        self.writer.flush()?;
        match self.recv_reply(&id)? {
            ReplyBody::Affordable(report) => Ok(report),
            other => Err(ClientError::Protocol(format!(
                "expected an affordability report, got {other:?}"
            ))),
        }
    }

    /// Bulk-charge CSV rows (the [`vr_ledger`] row schema) in one
    /// frame-atomic `{"op":"ledger_import"}`: either every row lands or
    /// none does. Mind the daemon's 64 KiB line cap — chunk large loads
    /// over several frames (pipelined via [`Client::send_command_burst`]).
    pub fn ledger_import(&mut self, rows: Vec<String>) -> Result<ImportReceipt, ClientError> {
        let id = self.send_command(Command::Ledger(LedgerOp::Import(rows)))?;
        self.writer.flush()?;
        match self.recv_reply(&id)? {
            ReplyBody::Imported(receipt) => Ok(receipt),
            other => Err(ClientError::Protocol(format!(
                "expected an import receipt, got {other:?}"
            ))),
        }
    }

    /// Export the named users' accounts as CSV rows
    /// (`{"op":"ledger_export"}`) — round-trip-exact: importing the rows
    /// into a fresh daemon reproduces every `remaining` answer bit for
    /// bit.
    pub fn ledger_export(&mut self, users: &[u64]) -> Result<Vec<String>, ClientError> {
        let id = self.send_command(Command::Ledger(LedgerOp::Export(users.to_vec())))?;
        self.writer.flush()?;
        match self.recv_reply(&id)? {
            ReplyBody::LedgerRows(rows) => Ok(rows),
            other => Err(ClientError::Protocol(format!(
                "expected ledger rows, got {other:?}"
            ))),
        }
    }

    /// Fetch the daemon's counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        let request = Request {
            id: Some(self.fresh_id()),
            command: Command::Stats,
        };
        match self.request(&request)?.outcome {
            Ok(ReplyBody::Stats(stats)) => Ok(stats),
            Ok(other) => Err(ClientError::Protocol(format!(
                "expected a stats reply, got {other:?}"
            ))),
            Err(e) => Err(ClientError::Wire(e)),
        }
    }

    /// Ask the daemon to shut down gracefully; returns once the daemon has
    /// acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let request = Request {
            id: Some(self.fresh_id()),
            command: Command::Shutdown,
        };
        match self.request(&request)?.outcome {
            Ok(ReplyBody::ShuttingDown) => Ok(()),
            Ok(other) => Err(ClientError::Protocol(format!(
                "expected a shutdown ack, got {other:?}"
            ))),
            Err(e) => Err(ClientError::Wire(e)),
        }
    }
}
