//! The `vr-server` daemon: a sharded TCP server that parses
//! newline-delimited JSON frames into [`AmplificationQuery`]s and ledger
//! ops, serving them through **one shared [`AnalysisEngine`]** and **one
//! shared [`BudgetLedger`]**, so every connection and every shard reuses
//! the same memoized evaluator cache and the same priced per-user accounts.
//!
//! # Architecture
//!
//! ```text
//! accept thread ──► round-robins each new connection to one shard inbox
//!                        │
//!                        ▼
//! shard threads (N) ──► each OWNS its connection set: nonblocking reads
//!     │                 into a per-connection buffer, frame extraction,
//!     │                 inline execution on the shared AnalysisEngine,
//!     │                 replies appended to a per-connection write buffer
//!     ▼
//! in-order replies per connection; shards progress independently
//! ```
//!
//! Connections are **pipelined**: a client may write any number of frames
//! before reading a reply; the shard drains whole bursts from the socket,
//! answers every frame in submission order, and counts the burst surplus in
//! the `pipelined_frames` stat. Backpressure is per connection and
//! deterministic — a frame is rejected with `busy` when more than
//! `queue_depth` later frames are already buffered behind it (so depth 0
//! rejects every engine query, and a burst of at most `queue_depth` frames
//! is never rejected).
//!
//! Failure containment is the design center: a malformed line, an
//! out-of-domain parameter, or even a panicking engine call produces a
//! structured error reply **on a still-open connection** — one hostile
//! query can neither kill the daemon nor poison the shared cache (the
//! engine recovers poisoned locks, and shards catch panics).

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::protocol::{
    extract_id, BatchItem, BatchPayload, Command, ErrorKind, LedgerOp, Op, Reply, ReplyBody,
    Request, StatsSnapshot, WireError,
};
use vr_core::engine::{AmplificationQuery, AnalysisEngine};
use vr_core::sync::Mutex;
use vr_ledger::BudgetLedger;

/// Longest request line accepted, in bytes (64 KiB — a curve query is a few
/// hundred bytes; anything bigger is hostile). Longer lines are answered
/// with a `malformed` error and drained, keeping the connection usable.
pub const MAX_LINE_BYTES: u64 = 64 * 1024;

/// Socket read granularity of the shard loop.
const READ_CHUNK: usize = 16 * 1024;

/// Most bytes one connection may pull from its socket per service pass, so
/// a firehose client cannot starve its shard siblings of read turns.
const READ_BUDGET_PER_PASS: usize = 256 * 1024;

/// Stop reading new frames from a connection while this many unflushed
/// reply bytes are pending — TCP flow control then pushes back on the
/// client instead of the buffer growing without bound.
const WBUF_HIGH_WATER: usize = 1024 * 1024;

/// Idle passes spent spin-yielding before the shard starts sleeping.
const IDLE_YIELDS: u32 = 8;

/// Longest per-pass sleep of an idle shard (latency floor when parked).
const MAX_IDLE_SLEEP: Duration = Duration::from_micros(200);

/// How long a graceful `shutdown` waits for the ack byte to flush.
const SHUTDOWN_FLUSH_DEADLINE: Duration = Duration::from_secs(2);

/// How long a draining shard keeps flushing leftovers per connection.
const DRAIN_FLUSH_DEADLINE: Duration = Duration::from_millis(250);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests, benches).
    pub addr: String,
    /// Shard threads; each owns the connections routed to it and executes
    /// their queries on the shared engine.
    pub workers: usize,
    /// Per-connection pipelining depth: a frame is rejected with `busy`
    /// when at least this many later frames are already buffered behind it
    /// (0 rejects every engine query; control frames are always served).
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
                .min(8),
            queue_depth: 128,
        }
    }
}

/// Aggregate counters, updated lock-free by every thread and snapshotted by
/// the `stats` op.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    /// Currently-open connections (accepted minus closed) — in-process
    /// observability only, not part of the wire snapshot.
    open: AtomicU64,
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
    cache_hits: AtomicU64,
    /// Per-op demand, indexed by [`Op::index`].
    ops: [AtomicU64; Op::ALL.len()],
    pipelined: AtomicU64,
}

impl Counters {
    /// Count a parsed frame under its op, and each parsed batch item under
    /// its own op. Demand is counted whether or not admission succeeds
    /// (parity with the worker-pool daemon this replaced).
    fn count(&self, command: &Command) {
        self.bump(command.op());
        if let Command::Batch(items) = command {
            for payload in items.iter().filter_map(|item| item.payload.as_ref().ok()) {
                self.bump(payload.op());
            }
        }
    }

    fn bump(&self, op: Op) {
        if let Some(counter) = self.ops.get(op.index()) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One shard's hand-off point: the accept thread pushes fresh sockets here
/// and the shard thread adopts them on its next pass (or wakes from its
/// empty-shard park via the condvar).
#[derive(Default)]
struct Shard {
    inbox: Mutex<Vec<TcpStream>>,
    wake: Condvar,
}

/// State shared by the accept loop and the shard threads.
struct Inner {
    engine: AnalysisEngine,
    ledger: BudgetLedger,
    shutdown: AtomicBool,
    stats: Counters,
    shards: Vec<Shard>,
    config: ServerConfig,
    local_addr: SocketAddr,
    started: Instant,
}

impl Inner {
    /// Record the terminal outcome of one request frame.
    fn record_outcome(&self, outcome: &Result<ReplyBody, WireError>) {
        match outcome {
            Ok(body) => {
                self.stats.ok.fetch_add(1, Ordering::Relaxed);
                let cache_hits = match body {
                    ReplyBody::Scalar { meta, .. } | ReplyBody::Curve { meta, .. } => {
                        u64::from(meta.cache_hit)
                    }
                    // Each warm grid point counts, mirroring the batch it is.
                    ReplyBody::Sweep(sweep) => sweep.cache_hits,
                    // Each warm item counts; per-item errors do not reach
                    // the `errors` counter (the frame as a whole succeeded),
                    // exactly like a sweep's per-point failures.
                    ReplyBody::Batch(replies) => replies
                        .iter()
                        .map(|item| match &item.outcome {
                            Ok(ReplyBody::Scalar { meta, .. })
                            | Ok(ReplyBody::Curve { meta, .. }) => u64::from(meta.cache_hit),
                            _ => 0,
                        })
                        .sum(),
                    _ => 0,
                };
                if cache_hits > 0 {
                    self.stats
                        .cache_hits
                        .fetch_add(cache_hits, Ordering::Relaxed);
                }
            }
            Err(e) if e.kind == ErrorKind::Busy => {
                self.stats.busy.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let s = &self.stats;
        let mut snapshot = StatsSnapshot {
            connections: s.connections.load(Ordering::Relaxed),
            requests: s.requests.load(Ordering::Relaxed),
            ok: s.ok.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
            busy_rejections: s.busy.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            pipelined_frames: s.pipelined.load(Ordering::Relaxed),
            uptime_micros: u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX),
            workers: u64::try_from(self.config.workers).unwrap_or(u64::MAX),
            queue_depth: u64::try_from(self.config.queue_depth).unwrap_or(u64::MAX),
            cached_evaluators: u64::try_from(self.engine.cached_evaluators()).unwrap_or(u64::MAX),
            ledger_users: self.ledger.users(),
            ledger_workloads: self.ledger.workloads(),
            ..StatsSnapshot::default()
        };
        for (op, count) in Op::ALL.iter().zip(&s.ops) {
            if let Some(key) = op.stats_key() {
                snapshot.set(key, count.load(Ordering::Relaxed));
            }
        }
        snapshot
    }

    /// Admit one unit of engine work from a connection whose read buffer
    /// still holds `pending` complete frames behind the current one, or
    /// reject with `busy` / `shutting_down`.
    fn admit(&self, pending: usize) -> Result<(), WireError> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(WireError::new(
                ErrorKind::ShuttingDown,
                "daemon is shutting down",
            ));
        }
        if pending >= self.config.queue_depth {
            return Err(WireError::new(
                ErrorKind::Busy,
                format!(
                    "shard backlog full ({pending} pending, depth {}); retry later",
                    self.config.queue_depth
                ),
            ));
        }
        Ok(())
    }

    /// Flip the shutdown flag and unblock every parked thread: shards (via
    /// their inbox condvars) and the accept loop (via a loopback dial).
    /// Each shard then flushes and closes its own connections.
    fn initiate_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        for shard in &self.shards {
            // Lock before notifying so a shard between its park check and
            // its wait cannot miss the wake-up.
            drop(shard.inbox.lock());
            shard.wake.notify_all();
        }
        // Unblock the accept() call; errors are fine (listener may already
        // be gone or the dial may race the close). A wildcard bind
        // (0.0.0.0 / ::) is not dialable on every platform, so aim the
        // wake-up at the loopback of the same family instead.
        let mut dial = self.local_addr;
        if dial.ip().is_unspecified() {
            dial.set_ip(match dial.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(dial);
    }
}

/// A running daemon. Dropping the handle stops it; [`Server::join`] blocks
/// until a `shutdown` request (or [`Server::stop`]) has landed and every
/// thread has exited.
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start the daemon (accept loop + shard threads); returns
    /// once the listener is live, with queries served on background
    /// threads.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            engine: AnalysisEngine::new(),
            ledger: BudgetLedger::new(),
            shutdown: AtomicBool::new(false),
            stats: Counters::default(),
            shards: (0..workers).map(|_| Shard::default()).collect(),
            config: ServerConfig { workers, ..config },
            local_addr,
            started: Instant::now(),
        });
        let shard_handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("vr-shard-{i}"))
                    .spawn(move || shard_loop(&inner, i))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("vr-accept".into())
                .spawn(move || accept_loop(&inner, listener))?
        };
        Ok(Server {
            inner,
            accept: Some(accept),
            shards: shard_handles,
        })
    }

    /// The address the daemon is listening on (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// The shared engine (e.g. to pre-warm the evaluator cache before
    /// opening the doors to traffic).
    pub fn engine(&self) -> &AnalysisEngine {
        &self.inner.engine
    }

    /// The shared per-user budget ledger (e.g. to seed accounts in-process
    /// before serving, or to audit state after a load run).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.inner.ledger
    }

    /// A point-in-time counters snapshot (the in-process form of the
    /// `stats` op).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.snapshot()
    }

    /// Block until the daemon has fully shut down — either by a client
    /// `shutdown` request or a concurrent [`Server::stop`].
    pub fn join(mut self) {
        self.join_mut();
    }

    /// Initiate shutdown and wait for every thread to exit.
    pub fn stop(mut self) {
        self.inner.initiate_shutdown();
        self.join_mut();
    }

    fn join_mut(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
        // Close any socket the accept loop managed to push into an inbox
        // after its shard had already drained and exited (shutdown race).
        for shard in &self.inner.shards {
            for stream in shard.inbox.lock().drain(..) {
                let _ = stream.shutdown(Shutdown::Both);
                self.inner.stats.open.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.initiate_shutdown();
        self.join_mut();
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    let mut next_shard = 0usize;
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => {
                // Transient accept failure (e.g. fd exhaustion): back off
                // briefly instead of hot-spinning on the persistent error.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue; // shards require nonblocking sockets
        }
        inner.stats.connections.fetch_add(1, Ordering::Relaxed);
        inner.stats.open.fetch_add(1, Ordering::Relaxed);
        // Round-robin over the shards; an empty shard set (impossible —
        // the server spawns at least one) would drop the connection
        // rather than panic the accept thread.
        let Some(shard) = inner.shards.get(next_shard % inner.shards.len().max(1)) else {
            inner.stats.open.fetch_sub(1, Ordering::Relaxed);
            continue;
        };
        next_shard = next_shard.wrapping_add(1);
        shard.inbox.lock().push(stream);
        shard.wake.notify_one();
        // A connection pushed after a shard's final drain is picked up by
        // `join_mut`; the flag re-check here just stops accepting sooner.
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// One connection owned by a shard: its nonblocking socket plus the
/// buffered unparsed request bytes and unflushed reply bytes that make
/// pipelining work.
struct Conn {
    stream: TcpStream,
    /// Unconsumed request bytes (may hold many complete frames).
    rbuf: Vec<u8>,
    /// Reply bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Prefix of `wbuf` already written.
    wpos: usize,
    /// Inside an oversized line: drop bytes until the next `\n`.
    discarding: bool,
    /// The client closed its write half; close once `wbuf` drains.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            discarding: false,
            eof: false,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn push_reply(&mut self, reply: &Reply) {
        self.wbuf
            .extend_from_slice(reply.to_json().to_string().as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Write as much of `wbuf` as the socket accepts right now. Returns
    /// whether any bytes moved; `Err` means the connection is dead.
    fn flush(&mut self) -> io::Result<bool> {
        let mut wrote = false;
        while self.wpos < self.wbuf.len() {
            // The loop guard keeps `wpos` in range, so `get` never misses;
            // a miss would mean a corrupted cursor and ends the flush.
            let Some(rest) = self.wbuf.get(self.wpos..) else {
                break;
            };
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    wrote = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos >= WBUF_HIGH_WATER {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(wrote)
    }

    /// Keep flushing until `wbuf` drains, the socket dies, or `deadline`
    /// passes — used for the shutdown ack and shard drains, where the
    /// reply should reach the client but must not hang the daemon.
    fn flush_until(&mut self, deadline: Instant) {
        while self.pending_write() > 0 && Instant::now() < deadline {
            match self.flush() {
                Ok(true) => {}
                Ok(false) => std::thread::sleep(Duration::from_micros(50)),
                Err(_) => break,
            }
        }
    }
}

/// Why a service pass ended a connection (or didn't).
enum ConnState {
    Open { made_progress: bool },
    Closed,
}

fn shard_loop(inner: &Arc<Inner>, index: usize) {
    // One shard_loop is spawned per shards[] entry; a bad index means the
    // spawner broke its contract, and this thread simply exits.
    let Some(shard) = inner.shards.get(index) else {
        return;
    };
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle_passes: u32 = 0;
    loop {
        // Adopt fresh connections; park while the shard owns nothing.
        {
            let mut inbox = shard.inbox.lock();
            while conns.is_empty() && inbox.is_empty() && !inner.shutdown.load(Ordering::SeqCst) {
                inbox = inbox.wait(&shard.wake);
            }
            if !inbox.is_empty() {
                conns.extend(inbox.drain(..).map(Conn::new));
                idle_passes = 0;
            }
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            drain_shard(inner, shard, conns);
            return;
        }
        let mut progressed = false;
        let mut still = Vec::with_capacity(conns.len());
        for mut conn in conns {
            match service_conn(inner, &mut conn) {
                ConnState::Open { made_progress } => {
                    progressed |= made_progress;
                    still.push(conn);
                }
                ConnState::Closed => {
                    progressed = true;
                    inner.stats.open.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
        conns = still;
        if progressed {
            idle_passes = 0;
        } else {
            // Nothing moved: yield a few passes (a reply is often one
            // scheduler slice away), then sleep with a bounded ceiling so
            // parked connections cost little CPU but wake fast.
            idle_passes = idle_passes.saturating_add(1);
            if idle_passes <= IDLE_YIELDS {
                std::thread::yield_now();
            } else {
                let step = Duration::from_micros(10 * u64::from(idle_passes - IDLE_YIELDS));
                std::thread::sleep(step.min(MAX_IDLE_SLEEP));
            }
        }
    }
}

/// Final pass of a shutting-down shard: adopt any last inbox arrivals,
/// give every connection a bounded chance to drain its replies, and close.
fn drain_shard(inner: &Inner, shard: &Shard, mut conns: Vec<Conn>) {
    conns.extend(shard.inbox.lock().drain(..).map(Conn::new));
    let deadline = Instant::now() + DRAIN_FLUSH_DEADLINE;
    for mut conn in conns {
        conn.flush_until(deadline);
        let _ = conn.stream.shutdown(Shutdown::Both);
        inner.stats.open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One service pass over one connection: flush pending replies, read and
/// execute whatever frames have arrived, flush again.
fn service_conn(inner: &Arc<Inner>, conn: &mut Conn) -> ConnState {
    let mut progress = match conn.flush() {
        Ok(wrote) => wrote,
        Err(_) => return ConnState::Closed,
    };
    let mut budget = READ_BUDGET_PER_PASS;
    let mut chunk = [0u8; READ_CHUNK];
    while !conn.eof && budget > 0 && conn.pending_write() < WBUF_HIGH_WATER {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                progress = true;
            }
            Ok(n) => {
                progress = true;
                budget = budget.saturating_sub(n);
                // `read` contracts n ≤ chunk.len(); fall back to the whole
                // chunk rather than panic if an impl ever over-reports.
                conn.rbuf
                    .extend_from_slice(chunk.get(..n).unwrap_or(&chunk));
                if process_rbuf(inner, conn) == FrameFlow::ShutdownAfter {
                    shutdown_after_ack(inner, conn);
                    return ConnState::Closed;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnState::Closed,
        }
    }
    if conn.eof {
        // EOF in the middle of a line: treat the remainder as a final
        // (complete) frame — terminating it reuses the normal frame path,
        // including oversized-line discard state.
        if !conn.rbuf.is_empty() {
            conn.rbuf.push(b'\n');
            if process_rbuf(inner, conn) == FrameFlow::ShutdownAfter {
                shutdown_after_ack(inner, conn);
                return ConnState::Closed;
            }
        }
        match conn.flush() {
            Ok(wrote) => progress |= wrote,
            Err(_) => return ConnState::Closed,
        }
        if conn.pending_write() == 0 {
            return ConnState::Closed; // all replies delivered
        }
    } else {
        match conn.flush() {
            Ok(wrote) => progress |= wrote,
            Err(_) => return ConnState::Closed,
        }
    }
    ConnState::Open {
        made_progress: progress,
    }
}

/// Deliver the `shutdown` ack (bounded), then stop the daemon.
fn shutdown_after_ack(inner: &Inner, conn: &mut Conn) {
    conn.flush_until(Instant::now() + SHUTDOWN_FLUSH_DEADLINE);
    let _ = conn.stream.shutdown(Shutdown::Both);
    inner.initiate_shutdown();
}

#[derive(PartialEq, Eq)]
enum FrameFlow {
    Continue,
    ShutdownAfter,
}

fn find_newline(buf: &[u8]) -> Option<usize> {
    buf.iter().position(|&b| b == b'\n')
}

/// Extract and execute every complete frame currently buffered on the
/// connection, in order. Frames beyond the first in one call are the
/// pipelining surplus counted by `pipelined_frames`.
fn process_rbuf(inner: &Arc<Inner>, conn: &mut Conn) -> FrameFlow {
    let mut frames = 0u64;
    let mut flow = FrameFlow::Continue;
    loop {
        if conn.discarding {
            match find_newline(&conn.rbuf) {
                Some(pos) => {
                    conn.rbuf.drain(..=pos);
                    conn.discarding = false;
                }
                None => {
                    conn.rbuf.clear();
                    break;
                }
            }
        }
        match find_newline(&conn.rbuf) {
            Some(pos) => {
                // The line cap applies to terminated lines too, so the
                // reply is chunking-invariant: a 70 KiB line gets the same
                // structured `oversized` error whether its newline arrived
                // in the same read (pipelined burst) or a later one.
                if u64::try_from(pos).unwrap_or(u64::MAX) >= MAX_LINE_BYTES {
                    conn.rbuf.drain(..=pos);
                    frames += 1;
                    inner.stats.requests.fetch_add(1, Ordering::Relaxed);
                    let reply = Reply::err(
                        None,
                        WireError::malformed(format!(
                            "request line exceeds {MAX_LINE_BYTES} bytes"
                        )),
                    );
                    inner.record_outcome(&reply.outcome);
                    conn.push_reply(&reply);
                    continue;
                }
                let line: Vec<u8> = conn.rbuf.drain(..=pos).collect();
                // Frames still buffered behind this one — the admission
                // check's measure of this connection's backlog.
                let pending = conn.rbuf.iter().filter(|&&b| b == b'\n').count();
                let text = String::from_utf8_lossy(&line);
                let trimmed = text.trim();
                if trimmed.is_empty() {
                    continue; // ignore blank keep-alive lines
                }
                frames += 1;
                let (reply, stop_after) = handle_frame(inner, trimmed, pending);
                conn.push_reply(&reply);
                if stop_after {
                    flow = FrameFlow::ShutdownAfter;
                    break;
                }
            }
            None => {
                if u64::try_from(conn.rbuf.len()).unwrap_or(u64::MAX) >= MAX_LINE_BYTES {
                    // Oversized: answer with a structured error, drop the
                    // buffered prefix and discard until the line ends —
                    // the next frame then starts at a clean boundary.
                    // Counted like any other rejected frame so the stats
                    // contract (`requests` covers all frames, `errors`
                    // includes malformed ones) holds for monitoring
                    // clients.
                    frames += 1;
                    inner.stats.requests.fetch_add(1, Ordering::Relaxed);
                    let reply = Reply::err(
                        None,
                        WireError::malformed(format!(
                            "request line exceeds {MAX_LINE_BYTES} bytes"
                        )),
                    );
                    inner.record_outcome(&reply.outcome);
                    conn.push_reply(&reply);
                    conn.rbuf.clear();
                    conn.discarding = true;
                    continue;
                }
                break; // incomplete frame: wait for more bytes
            }
        }
    }
    if frames > 1 {
        inner
            .stats
            .pipelined
            .fetch_add(frames - 1, Ordering::Relaxed);
    }
    flow
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// Parse and execute one request line; returns the reply and whether the
/// daemon should shut down after sending it. `pending` is the number of
/// complete frames buffered behind this one on the same connection.
fn handle_frame(inner: &Arc<Inner>, text: &str, pending: usize) -> (Reply, bool) {
    inner.stats.requests.fetch_add(1, Ordering::Relaxed);
    let frame = match Json::parse(text) {
        Ok(frame) => frame,
        Err(e) => {
            let reply = Reply::err(None, WireError::malformed(format!("bad JSON: {e}")));
            inner.record_outcome(&reply.outcome);
            return (reply, false);
        }
    };
    let id = extract_id(&frame);
    let request = match Request::from_json(&frame) {
        Ok(request) => request,
        Err(e) => {
            let reply = Reply::err(id, e);
            inner.record_outcome(&reply.outcome);
            return (reply, false);
        }
    };
    inner.stats.count(&request.command);
    let (reply, stop_after) = match request.command {
        Command::Stats => (
            Reply::ok(request.id, ReplyBody::Stats(inner.snapshot())),
            false,
        ),
        Command::Shutdown => (Reply::ok(request.id, ReplyBody::ShuttingDown), true),
        command => (
            execute_engine_command(inner, request.id, command, pending),
            false,
        ),
    };
    if stop_after {
        // The ack counts as a served request.
        inner.stats.ok.fetch_add(1, Ordering::Relaxed);
    } else {
        inner.record_outcome(&reply.outcome);
    }
    (reply, stop_after)
}

/// What an admitted engine command produced.
enum ExecOutput {
    Report(vr_core::engine::AnalysisReport),
    Sweep {
        axis: vr_core::engine::SweepAxis,
        reports: Vec<std::result::Result<vr_core::engine::AnalysisReport, vr_core::error::Error>>,
    },
    Batch(Vec<Reply>),
    Ledger(ReplyBody),
}

/// Admit and execute a query / sweep / batch / ledger command inline on the
/// owning shard. A panic inside the engine costs this frame, not the
/// shard: it is caught and mapped to a structured `internal` error.
fn execute_engine_command(
    inner: &Arc<Inner>,
    id: Option<Json>,
    command: Command,
    pending: usize,
) -> Reply {
    if let Err(e) = inner.admit(pending) {
        return Reply::err(id, e);
    }
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| match command {
        Command::Query(query) => inner
            .engine
            .run(&query)
            .map(ExecOutput::Report)
            .map_err(WireError::from),
        Command::Sweep { template, axis } => inner
            .engine
            .sweep(&template, &axis)
            .map(|reports| ExecOutput::Sweep { axis, reports })
            .map_err(WireError::from),
        Command::Batch(items) => Ok(ExecOutput::Batch(run_batch_items(
            &inner.engine,
            &inner.ledger,
            items,
        ))),
        Command::Ledger(op) => {
            run_ledger_op(&inner.engine, &inner.ledger, op).map(ExecOutput::Ledger)
        }
        // Narrowed above; report the broken invariant instead of panicking
        // inside the worker's catch_unwind.
        Command::Stats | Command::Shutdown => Err(WireError::new(
            ErrorKind::Internal,
            "control op reached the execution path",
        )),
    }));
    match outcome {
        Ok(Ok(ExecOutput::Report(report))) => Reply::from_report(id, &report),
        Ok(Ok(ExecOutput::Sweep { axis, reports })) => Reply::from_sweep(id, &axis, &reports),
        Ok(Ok(ExecOutput::Batch(replies))) => Reply::ok(id, ReplyBody::Batch(replies)),
        Ok(Ok(ExecOutput::Ledger(body))) => Reply::ok(id, body),
        Ok(Err(e)) => Reply::err(id, e),
        Err(panic) => Reply::err(
            id,
            WireError::new(
                ErrorKind::Internal,
                format!("worker panicked serving the query: {}", panic_text(&panic)),
            ),
        ),
    }
}

/// Execute one ledger op against the daemon's shared ledger. Charges and
/// affordability probes price workloads through the shared engine's
/// memoized spend seam, so ledger answers and forward `composed` queries
/// served on the same daemon agree bit for bit.
fn run_ledger_op(
    engine: &AnalysisEngine,
    ledger: &BudgetLedger,
    op: LedgerOp,
) -> Result<ReplyBody, WireError> {
    match op {
        LedgerOp::Charge {
            user,
            vr,
            n,
            rounds,
        } => ledger
            .charge(engine, user, vr, n, rounds)
            .map(ReplyBody::Charge)
            .map_err(WireError::from),
        LedgerOp::Remaining { user, eps, delta } => ledger
            .remaining(user, eps, delta)
            .map(ReplyBody::Budget)
            .map_err(WireError::from),
        LedgerOp::AffordableRounds {
            user,
            vr,
            n,
            eps,
            delta,
            cap,
        } => ledger
            .affordable_rounds(engine, user, vr, n, eps, delta, cap)
            .map(ReplyBody::Affordable)
            .map_err(WireError::from),
        LedgerOp::Import(rows) => ledger
            .import_rows(engine, rows.iter().map(String::as_str))
            .map(ReplyBody::Imported)
            .map_err(WireError::from),
        LedgerOp::Export(users) => ledger
            .export_users(&users)
            .map(ReplyBody::LedgerRows)
            .map_err(WireError::from),
    }
}

/// Serve a batch's parseable query items through
/// [`AnalysisEngine::run_batch`] (one warm fan-out) and stitch the per-item
/// replies back into submission order, error items included — one bad item
/// yields one error entry, not a dead batch. Scalar ledger items execute
/// inline during the stitch, so a batch's charges land in submission order
/// relative to its `remaining` probes.
fn run_batch_items(
    engine: &AnalysisEngine,
    ledger: &BudgetLedger,
    items: Vec<BatchItem>,
) -> Vec<Reply> {
    let queries: Vec<AmplificationQuery> = items
        .iter()
        .filter_map(|item| match &item.payload {
            Ok(BatchPayload::Query(query)) => Some((**query).clone()),
            _ => None,
        })
        .collect();
    let mut reports = engine.run_batch(&queries).into_iter();
    items
        .into_iter()
        .map(|item| match item.payload {
            Ok(BatchPayload::Query(_)) => match reports.next() {
                Some(Ok(report)) => Reply::from_report(item.id, &report),
                Some(Err(e)) => Reply::err(item.id, WireError::from(e)),
                // run_batch returns one report per query by contract; a
                // shortfall is answered per-item instead of panicking.
                None => Reply::err(
                    item.id,
                    WireError::new(
                        ErrorKind::Internal,
                        "batch executor returned fewer reports than queries",
                    ),
                ),
            },
            Ok(BatchPayload::Ledger(op)) => match run_ledger_op(engine, ledger, op) {
                Ok(body) => Reply::ok(item.id, body),
                Err(e) => Reply::err(item.id, e),
            },
            Err(e) => Reply::err(item.id, e),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use vr_core::bound::names;

    fn test_server(workers: usize, queue_depth: usize) -> Server {
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_depth,
        })
        .expect("bind ephemeral port")
    }

    fn epsilon_query(n: u64, delta: f64) -> AmplificationQuery {
        AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(n)
            .epsilon_at(delta)
            .bound(names::NUMERICAL)
            .build()
            .unwrap()
    }

    #[test]
    fn serves_queries_and_shuts_down_gracefully() {
        let server = test_server(2, 16);
        let addr = server.local_addr();
        let mut client = Client::connect(addr).unwrap();
        let direct = AnalysisEngine::new();
        for delta in [1e-5, 1e-6, 1e-7] {
            let q = epsilon_query(5_000, delta);
            let served = client.run(&q).unwrap();
            let want = direct.run(&q).unwrap().scalar().unwrap();
            assert_eq!(served.scalar().unwrap().to_bits(), want.to_bits());
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.op_epsilon, 3);
        // Snapshot is taken before its own reply is recorded.
        assert_eq!(stats.ok, 3);
        assert_eq!(stats.cached_evaluators, 1);
        client.shutdown_server().unwrap();
        server.join();
    }

    #[test]
    fn malformed_lines_keep_the_connection_open() {
        let server = test_server(1, 4);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let reply = client.roundtrip_raw("this is not json").unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(
            reply.get("error").unwrap().get("kind").unwrap().as_str(),
            Some("malformed")
        );
        // Same connection still serves.
        let q = epsilon_query(1_000, 1e-6);
        assert!(client.run(&q).is_ok());
        server.stop();
    }

    #[test]
    fn zero_depth_queue_rejects_with_busy() {
        let server = test_server(1, 0);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let q = epsilon_query(1_000, 1e-6);
        let err = client.run(&q).unwrap_err();
        let wire = match err {
            crate::client::ClientError::Wire(w) => w,
            other => panic!("expected wire error, got {other:?}"),
        };
        assert_eq!(wire.kind, ErrorKind::Busy);
        assert_eq!(server.stats().busy_rejections, 1);
        server.stop();
    }

    #[test]
    fn oversized_lines_get_an_error_and_framing_recovers() {
        let server = test_server(1, 4);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let huge = format!("{{\"op\":\"epsilon\",\"pad\":\"{}\"}}", "x".repeat(80_000));
        let reply = client.roundtrip_raw(&huge).unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
        // The rejection is visible in the counters like any other frame.
        let stats = server.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.errors, 1);
        // The connection survives and serves the next proper frame.
        let q = epsilon_query(1_000, 1e-6);
        assert!(client.run(&q).is_ok());
        server.stop();
    }

    #[test]
    fn pipelined_frames_after_an_oversized_line_each_get_a_reply() {
        use std::io::{BufRead, BufReader, Write};
        let server = test_server(1, 4);
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;

        // One burst: an oversized line, then two well-formed frames.
        let mut burst = vec![b'x'; 80_000];
        burst.push(b'\n');
        burst.extend_from_slice(b"{\"id\":\"a\",\"op\":\"stats\"}\n");
        burst.extend_from_slice(b"{\"id\":\"b\",\"op\":\"stats\"}\n");
        writer.write_all(&burst).unwrap();
        writer.flush().unwrap();

        // Exactly three replies, in order: malformed, then the two frames
        // answered individually (no merging, no drops).
        let mut replies = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "reply missing");
            replies.push(crate::json::Json::parse(line.trim()).unwrap());
        }
        assert_eq!(replies[0].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(replies[1].get("id").unwrap().as_str(), Some("a"));
        assert_eq!(replies[1].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(replies[2].get("id").unwrap().as_str(), Some("b"));
        assert_eq!(replies[2].get("ok").unwrap().as_bool(), Some(true));
        server.stop();
    }

    #[test]
    fn batch_frames_answer_per_item_in_submission_order() {
        let server = test_server(1, 8);
        let mut client = Client::connect(server.local_addr()).unwrap();
        // Item 2 is defective (missing delta); its neighbours must still
        // serve, and the error entry keeps its slot and id.
        let frame = concat!(
            "{\"id\":\"B\",\"op\":\"batch\",\"queries\":[",
            "{\"id\":\"q0\",\"op\":\"epsilon\",\"eps0\":1.0,\"n\":2000,\"delta\":1e-6,\"bound\":\"numerical\"},",
            "{\"id\":\"q1\",\"op\":\"epsilon\",\"eps0\":1.0,\"n\":2000},",
            "{\"id\":\"q2\",\"op\":\"epsilon\",\"eps0\":1.0,\"n\":2000,\"delta\":1e-7,\"bound\":\"numerical\"}",
            "]}"
        );
        let reply = client.roundtrip_raw(frame).unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
        let items = reply.get("batch").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), 3);
        let direct = AnalysisEngine::new();
        for (idx, delta) in [(0usize, 1e-6), (2, 1e-7)] {
            let want = direct
                .run(&epsilon_query(2_000, delta))
                .unwrap()
                .scalar()
                .unwrap();
            assert_eq!(items[idx].get("ok").unwrap().as_bool(), Some(true));
            assert_eq!(
                items[idx].get("id").unwrap().as_str(),
                Some(format!("q{idx}").as_str())
            );
            let got = items[idx].get("value").unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "item {idx} drifted");
        }
        assert_eq!(items[1].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(items[1].get("id").unwrap().as_str(), Some("q1"));
        assert_eq!(
            items[1].get("error").unwrap().get("kind").unwrap().as_str(),
            Some("malformed")
        );
        // One frame, one `ok`; per-item demand shows in the op counters;
        // the defective item is not a frame-level error.
        let stats = server.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.op_batch, 1);
        assert_eq!(stats.op_epsilon, 2);
        server.stop();
    }

    #[test]
    fn ledger_ops_over_the_wire_match_in_process_composition() {
        use vr_core::params::VariationRatio;
        let server = test_server(2, 16);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let vr = VariationRatio::ldp_worst_case(1.0).unwrap();

        let receipt = client.charge(7, &vr, 5_000, 2).unwrap();
        assert_eq!(
            (receipt.user, receipt.workload_rounds, receipt.total_rounds),
            (7, 2, 2)
        );
        let receipt = client.charge(7, &vr, 5_000, 1).unwrap();
        assert_eq!(receipt.total_rounds, 3);

        // `remaining` over the wire is bit-identical to the forward
        // composed query served by the same daemon.
        let composed = AmplificationQuery::ldp_worst_case(1.0)
            .unwrap()
            .population(5_000)
            .composed(3, 1e-6)
            .build()
            .unwrap();
        let want = client.run(&composed).unwrap().scalar().unwrap();
        let status = client.remaining(7, 2.0, 1e-6).unwrap();
        assert_eq!(status.spent.to_bits(), want.to_bits());
        assert_eq!(status.remaining.to_bits(), (2.0 - want).to_bits());
        assert_eq!(status.rounds, 3);

        // Affordability probes run the certified search server-side.
        let report = client
            .affordable_rounds(7, &vr, 5_000, 2.0, 1e-6, Some(64))
            .unwrap();
        assert_eq!(report.user, 7);
        assert!(report.affordability.certificate.is_some());

        // Export → import into a fresh daemon restores the spend bit for
        // bit.
        let rows = client.ledger_export(&[7]).unwrap();
        assert_eq!(rows.len(), 1, "one workload, one row");
        let server2 = test_server(1, 8);
        let mut client2 = Client::connect(server2.local_addr()).unwrap();
        let imported = client2.ledger_import(rows).unwrap();
        assert_eq!(imported.rows, 1);
        let restored = client2.remaining(7, 2.0, 1e-6).unwrap();
        assert_eq!(restored.spent.to_bits(), status.spent.to_bits());

        let stats = client.stats().unwrap();
        assert_eq!(stats.op_charge, 2);
        assert_eq!(stats.op_remaining, 1);
        assert_eq!(stats.op_affordable, 1);
        assert_eq!(stats.op_ledger_export, 1);
        assert_eq!(stats.ledger_users, 1);
        assert_eq!(stats.ledger_workloads, 1);
        server2.stop();
        server.stop();
    }

    #[test]
    fn batch_frames_mix_queries_and_scalar_ledger_ops_in_order() {
        let server = test_server(1, 8);
        let mut client = Client::connect(server.local_addr()).unwrap();
        // A charge, an engine query, then a probe of the charged account:
        // ledger items execute in submission order relative to each other,
        // so the probe must observe the charge from the same frame.
        let frame = concat!(
            "{\"id\":\"B\",\"op\":\"batch\",\"queries\":[",
            "{\"id\":\"c0\",\"op\":\"charge\",\"user\":9,\"eps0\":1.0,\"n\":2000,\"rounds\":2},",
            "{\"id\":\"q0\",\"op\":\"epsilon\",\"eps0\":1.0,\"n\":2000,\"delta\":1e-6,\"bound\":\"numerical\"},",
            "{\"id\":\"r0\",\"op\":\"remaining\",\"user\":9,\"eps\":1.0,\"delta\":1e-6}",
            "]}"
        );
        let reply = client.roundtrip_raw(frame).unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
        let items = reply.get("batch").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), 3);
        for (idx, id) in [("c0", 0usize), ("q0", 1), ("r0", 2)].map(|(a, b)| (b, a)) {
            assert_eq!(items[idx].get("ok").unwrap().as_bool(), Some(true));
            assert_eq!(items[idx].get("id").unwrap().as_str(), Some(id));
        }
        let budget = items[2].get("budget").unwrap();
        assert_eq!(budget.get("rounds").unwrap().as_f64(), Some(2.0));
        let stats = server.stats();
        assert_eq!(stats.op_batch, 1);
        assert_eq!(stats.op_charge, 1);
        assert_eq!(stats.op_remaining, 1);
        assert_eq!(stats.op_epsilon, 1);
        server.stop();
    }

    #[test]
    fn closed_connections_are_deregistered() {
        let server = test_server(1, 4);
        let addr = server.local_addr();
        for _ in 0..8 {
            let mut client = Client::connect(addr).unwrap();
            client.stats().unwrap();
            drop(client);
        }
        // The owning shard notices the hangup asynchronously; poll until
        // every connection has been released.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let live = server.inner.stats.open.load(Ordering::Relaxed);
            if live == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{live} connections still owned after all clients closed"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(server.stats().connections, 8, "all 8 were accepted");
        server.stop();
    }

    #[test]
    fn stop_without_clients_is_clean() {
        let server = test_server(2, 8);
        let addr = server.local_addr();
        server.stop();
        // The port is released: a fresh bind to the same address works.
        assert!(TcpListener::bind(addr).is_ok());
    }
}
