//! # vr-server — the amplification-serving daemon
//!
//! PR 3 made [`vr_core::engine::AnalysisEngine`] the in-process front door
//! for amplification queries; this crate takes it over the network: a
//! std-only, multi-threaded TCP daemon speaking a **newline-delimited JSON
//! protocol**, serving every connection through one shared engine so all
//! clients reuse the same memoized evaluator cache.
//!
//! * [`server`] — the daemon: an accept loop that round-robins connections
//!   to **shard threads, each owning its connection set** (nonblocking
//!   sockets, per-connection read/write buffers). Connections are
//!   **pipelined** — a client may write any number of frames before
//!   reading a reply, and replies come back in order — with deterministic
//!   per-connection `busy` backpressure past the configured depth,
//!   graceful shutdown on a `shutdown` frame, and aggregate counters
//!   served by the `stats` frame. Malformed input, out-of-domain
//!   parameters and even panicking engine calls produce structured error
//!   replies on a still-open connection.
//! * [`protocol`] — the wire schema (documented there, field by field) and
//!   the typed [`protocol::Request`]/[`protocol::Reply`] frames shared by
//!   both ends, including the `{"op":"batch"}` frame that carries a whole
//!   query array through one parse/reply cycle with per-item errors.
//!   PR 9 added the **continual-accounting ops** — `charge`, `remaining`,
//!   `affordable_rounds`, `ledger_import`, `ledger_export` — served
//!   against one shared [`vr_ledger::BudgetLedger`] priced through the
//!   same engine seam as forward `composed` queries (bit-identical
//!   answers).
//! * [`client`] — the blocking client library behind the `vr-query` binary
//!   and the round-trip tests, with batch ([`Client::run_batch`]),
//!   pipelined ([`Client::run_pipelined`]) and ledger
//!   ([`Client::charge`], [`Client::remaining`], …) modes.
//! * [`json`] — the hand-rolled JSON subset (the build environment has no
//!   registry access), with round-trip-exact `f64` formatting: a value
//!   served over the wire equals the in-process answer **bit for bit**.
//!
//! Binaries: `vr-serve` (run the daemon) and `vr-query` (one-shot client).
//!
//! ```
//! use vr_core::bound::names;
//! use vr_core::engine::AmplificationQuery;
//! use vr_server::{Client, Server, ServerConfig};
//!
//! // An ephemeral daemon: port 0 picks a free port.
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//!
//! let query = AmplificationQuery::ldp_worst_case(1.0)
//!     .unwrap()
//!     .population(10_000)
//!     .epsilon_at(1e-8)
//!     .bound(names::NUMERICAL)
//!     .build()
//!     .unwrap();
//! let report = client.run(&query).unwrap();
//! assert!(report.scalar().unwrap() < 1.0); // amplified below eps0
//!
//! client.shutdown_server().unwrap();
//! server.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod json;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, ServedReport, ServedValue};
pub use json::Json;
pub use protocol::{
    BatchItem, BatchPayload, Command, ErrorKind, LedgerOp, Op, Reply, ReplyBody, Request,
    StatsSnapshot, SweepOutcome, WireError, DEFAULT_AFFORD_CAP,
};
pub use server::{Server, ServerConfig};
