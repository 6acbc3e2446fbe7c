//! The closed-loop load generator: one thread per connection, each keeping a
//! fixed window of frames in flight and sending the next frame only when a
//! reply frees a slot. Every reply is checked against its expectation as
//! it arrives.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use vr_core::engine::AmplificationQuery;
use vr_server::{Json, Reply, ReplyBody, StatsSnapshot};

use crate::check::{normalize, verdict, Verdict};
use crate::workload::{batch_reply, Expect, FrameSource, OpKind, OpSpec, PoolEntry};

/// Latencies reserved per slice up front, so recording them never
/// reallocates mid-run (reallocation spikes would show in `peak_rss_mb`).
const SLICE_CAPACITY: usize = 64 * 1024;

/// A reply slower than this counts as lost.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// Send `lines` as one pipelined burst and read one reply line each.
pub fn roundtrip_lines(stream: &mut TcpStream, lines: &[String]) -> io::Result<Vec<String>> {
    let mut out = String::new();
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    stream.write_all(out.as_bytes())?;
    let mut replies = Vec::with_capacity(lines.len());
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while replies.len() < lines.len() {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            replies.push(String::from_utf8_lossy(&line[..pos]).into_owned());
        }
    }
    Ok(replies)
}

/// The daemon's counters, through the wire `stats` op.
pub fn wire_stats(stream: &mut TcpStream) -> io::Result<StatsSnapshot> {
    let reply = roundtrip_lines(stream, &["{\"op\":\"stats\"}".to_string()])?;
    let json = Json::parse(&reply[0]).map_err(|e| io::Error::other(e.to_string()))?;
    match Reply::from_json(&json).map(|r| r.outcome) {
        Ok(Ok(ReplyBody::Stats(stats))) => Ok(stats),
        _ => Err(io::Error::other(format!("bad stats reply: {}", reply[0]))),
    }
}

/// When a connection stops sending, and which frames it traces.
pub struct DriveCfg {
    pub window: usize,
    /// Clock origin of span timestamps.
    pub origin: Instant,
    /// No new frame is sent after this instant; in-flight frames drain.
    pub end: Instant,
    /// The run is measured in slices of this length; traced runs
    /// alternate traced and untraced slices, starting traced, so both see
    /// the same daemon state.
    pub slice: Duration,
    pub trace: bool,
    /// Frames with a lower index get a client span.
    pub span_frames: u64,
    /// Stop after this many frames (tests).
    pub max_frames: Option<u64>,
}

impl DriveCfg {
    pub fn slice_of(&self, at: Instant) -> usize {
        (at.duration_since(self.origin).as_nanos() / self.slice.as_nanos().max(1)) as usize
    }

    /// Whether slice `index` is traced.
    pub fn traced(&self, index: usize) -> bool {
        self.trace && index.is_multiple_of(2)
    }
}

/// A frame's root span as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    pub frame: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The daemon's own time for a single-op engine frame.
    pub wall_us: Option<u64>,
}

#[derive(Debug, Default)]
pub struct ConnResult {
    pub attempted: u64,
    pub failed: u64,
    pub busy: u64,
    pub errors: u64,
    pub drift: u64,
    pub lost: u64,
    pub sent_by_kind: [u64; 8],
    pub batch_frames: u64,
    /// Per-op latency in ns (writing the frame to reading its reply), by
    /// the slice the reply arrived in; slices past the end hold the drain.
    pub slices: Vec<Vec<u32>>,
    /// Served engine replies whose `cache_hit` read true / false.
    pub hits: u64,
    pub misses: u64,
    pub spans: Vec<ClientSpan>,
    /// Successful replies checked after the run.
    pub deferred: Vec<(AmplificationQuery, String)>,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// From the first send to the last reply.
    pub elapsed: Duration,
}

impl ConnResult {
    fn fail(&mut self, v: Verdict, detail: impl FnOnce() -> String) {
        self.failed += 1;
        match v {
            Verdict::Busy => self.busy += 1,
            Verdict::Error => self.errors += 1,
            Verdict::Drift => self.drift += 1,
            Verdict::Match => {}
        }
        if self.failures.len() < 3 {
            self.failures.push(detail());
        }
    }

    pub fn merge(results: Vec<ConnResult>) -> ConnResult {
        let mut all = ConnResult::default();
        for r in results {
            all.attempted += r.attempted;
            all.failed += r.failed;
            all.busy += r.busy;
            all.errors += r.errors;
            all.drift += r.drift;
            all.lost += r.lost;
            for (a, b) in all.sent_by_kind.iter_mut().zip(r.sent_by_kind) {
                *a += b;
            }
            all.batch_frames += r.batch_frames;
            if all.slices.len() < r.slices.len() {
                all.slices.resize(r.slices.len(), Vec::new());
            }
            for (a, b) in all.slices.iter_mut().zip(r.slices) {
                a.extend(b);
            }
            all.hits += r.hits;
            all.misses += r.misses;
            all.spans.extend(r.spans);
            all.deferred.extend(r.deferred);
            all.failures.extend(r.failures);
            all.elapsed = all.elapsed.max(r.elapsed);
        }
        all
    }
}

struct Inflight {
    index: u64,
    sent: Instant,
    ops: Vec<OpSpec>,
}

fn expected_text<'a>(pool: &'a [PoolEntry], spec: &'a OpSpec) -> Option<&'a str> {
    match &spec.expect {
        Expect::Pool(i) => Some(pool[*i].expected.as_str()),
        Expect::Text(t) => Some(t.as_str()),
        Expect::Deferred(_) => None,
    }
}

/// Check one reply line against its frame's ops and record the outcome.
fn settle(
    res: &mut ConnResult,
    pool: &[PoolEntry],
    frame: Inflight,
    line: &str,
    now: Instant,
    cfg: &DriveCfg,
) {
    let latency = u32::try_from(now.duration_since(frame.sent).as_nanos()).unwrap_or(u32::MAX);
    let (served, meta) = normalize(line);
    res.hits += u64::from(meta.hits);
    res.misses += u64::from(meta.misses);
    let expected = |spec| expected_text(pool, spec);
    let verdicts: Vec<Verdict> = if let [spec] = frame.ops.as_slice() {
        vec![match (expected(spec), &spec.expect) {
            (Some(want), _) => verdict(&served, want),
            // Error replies fail now; successful ones are checked after the run.
            (None, Expect::Deferred(query)) => match verdict(&served, "") {
                Verdict::Drift => {
                    res.deferred.push(((**query).clone(), served.clone()));
                    Verdict::Match
                }
                v => v,
            },
            (None, _) => Verdict::Drift,
        }]
    } else {
        let items: Vec<&str> = frame
            .ops
            .iter()
            .map(|s| expected(s).unwrap_or(""))
            .collect();
        if served == batch_reply(&items) {
            vec![Verdict::Match; items.len()]
        } else {
            batch_verdicts(&served, &items)
        }
    };
    let slice = cfg.slice_of(now);
    if res.slices.len() <= slice {
        res.slices
            .resize_with(slice + 1, || Vec::with_capacity(SLICE_CAPACITY));
    }
    for (spec, v) in frame.ops.iter().zip(&verdicts) {
        res.attempted += 1;
        res.slices[slice].push(latency);
        if *v != Verdict::Match {
            res.fail(*v, || {
                format!("{} reply {:?}: {}", spec.kind.name(), v, truncate(line))
            });
        }
    }
    if cfg.traced(slice) && frame.index < cfg.span_frames {
        let single_engine = frame.ops.len() == 1 && frame.ops[0].kind.is_engine();
        res.spans.push(ClientSpan {
            frame: frame.index,
            start_ns: frame.sent.duration_since(cfg.origin).as_nanos() as u64,
            end_ns: now.duration_since(cfg.origin).as_nanos() as u64,
            wall_us: if single_engine { meta.wall_us } else { None },
        });
    }
}

fn truncate(line: &str) -> String {
    line.chars().take(240).collect()
}

/// Per-item verdicts of a batch reply that did not match as a whole.
fn batch_verdicts(served: &str, items: &[&str]) -> Vec<Verdict> {
    let parsed = Json::parse(served).ok();
    let replies = parsed
        .as_ref()
        .and_then(|j| j.get("batch"))
        .and_then(Json::as_arr);
    match replies {
        Some(replies) if replies.len() == items.len() => replies
            .iter()
            .zip(items)
            .map(|(reply, want)| verdict(&reply.to_string(), want))
            .collect(),
        // The frame as a whole failed (malformed, busy, …): every item did.
        _ => vec![verdict(served, ""); items.len()],
    }
}

/// Drive one connection until `cfg.end`, then drain its window.
pub fn drive(
    stream: &mut TcpStream,
    src: &mut dyn FrameSource,
    pool: &[PoolEntry],
    cfg: &DriveCfg,
) -> ConnResult {
    let mut res = ConnResult::default();
    let mut inflight: VecDeque<Inflight> = VecDeque::with_capacity(cfg.window);
    let mut wbuf = String::new();
    let mut rbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next_index = 0u64;
    let started = Instant::now();
    let mut last = started;
    loop {
        // Refill the window (closed loop: one new frame per freed slot).
        let now = Instant::now();
        let sending = now < cfg.end && cfg.max_frames.is_none_or(|max| next_index < max);
        if sending {
            wbuf.clear();
            let fresh = inflight.len();
            while inflight.len() < cfg.window && cfg.max_frames.is_none_or(|max| next_index < max) {
                let frame = src.next_frame();
                wbuf.push_str(&frame.line);
                wbuf.push('\n');
                for op in &frame.ops {
                    res.sent_by_kind[op.kind.index()] += 1;
                }
                res.batch_frames += u64::from(frame.ops.len() > 1);
                inflight.push_back(Inflight {
                    index: next_index,
                    sent: now,
                    ops: frame.ops,
                });
                next_index += 1;
            }
            if inflight.len() > fresh {
                let sent = Instant::now();
                for f in inflight.iter_mut().skip(fresh) {
                    f.sent = sent;
                }
                if let Err(e) = stream.write_all(wbuf.as_bytes()) {
                    lose_all(&mut res, &mut inflight, &e);
                    break;
                }
            }
        }
        if inflight.is_empty() {
            break;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                lose_all(
                    &mut res,
                    &mut inflight,
                    &io::ErrorKind::UnexpectedEof.into(),
                );
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                lose_all(&mut res, &mut inflight, &e);
                break;
            }
        };
        rbuf.extend_from_slice(&chunk[..n]);
        let now = Instant::now();
        let mut start = 0;
        while let Some(pos) = rbuf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&rbuf[start..start + pos]);
            start += pos + 1;
            match inflight.pop_front() {
                Some(frame) => settle(&mut res, pool, frame, &line, now, cfg),
                None => res.fail(Verdict::Error, || {
                    format!("unsolicited reply: {}", truncate(&line))
                }),
            }
            last = now;
        }
        rbuf.drain(..start);
    }
    res.elapsed = last.duration_since(started);
    res
}

/// A transport failure: every frame still in flight lost its reply.
fn lose_all(res: &mut ConnResult, inflight: &mut VecDeque<Inflight>, e: &io::Error) {
    for frame in inflight.drain(..) {
        for spec in &frame.ops {
            res.attempted += 1;
            res.lost += 1;
            res.fail(Verdict::Error, || format!("{} lost: {e}", spec.kind.name()));
        }
    }
}

/// Ops the daemon counted per class, in [`OpKind`] order.
pub fn stats_ops(s: &StatsSnapshot) -> [u64; 8] {
    [
        s.op_delta,
        s.op_epsilon,
        s.op_curve,
        s.op_composed,
        s.op_min_n,
        s.op_max_eps0,
        s.op_charge,
        s.op_remaining,
    ]
}

pub fn kind_counts_line(counts: &[u64; 8]) -> String {
    OpKind::ALL
        .iter()
        .zip(counts)
        .filter(|(_, &c)| c > 0)
        .map(|(k, c)| format!("{}={c}", k.name()))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::reference_reply;
    use crate::workload::{query_line, warm_query, Frame};
    use vr_core::engine::AnalysisEngine;
    use vr_server::{Server, ServerConfig};

    /// Replays a fixed frame list, cycling.
    struct Script(Vec<Frame>, usize);

    impl FrameSource for Script {
        fn next_frame(&mut self) -> Frame {
            let frame = self.0[self.1 % self.0.len()].clone();
            self.1 += 1;
            frame
        }
    }

    fn delta_frame() -> Frame {
        let query = warm_query(1.0, 500);
        let expected = reference_reply(&AnalysisEngine::new(), &query);
        Frame {
            line: query_line(&query),
            ops: vec![OpSpec {
                kind: OpKind::Delta,
                expect: Expect::Text(expected),
            }],
        }
    }

    fn drive_frames(
        queue_depth: usize,
        window: usize,
        frames: Vec<Frame>,
        count: u64,
    ) -> ConnResult {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth,
        })
        .expect("bind");
        let mut stream = connect(server.local_addr()).expect("connect");
        let origin = Instant::now();
        let cfg = DriveCfg {
            window,
            origin,
            end: origin + Duration::from_secs(120),
            slice: Duration::from_secs(1),
            trace: false,
            span_frames: 0,
            max_frames: Some(count),
        };
        let res = drive(&mut stream, &mut Script(frames, 0), &[], &cfg);
        drop(stream);
        server.stop();
        res
    }

    #[test]
    fn a_malformed_frame_is_counted_as_failed_not_dropped() {
        let good = delta_frame();
        let bad = Frame {
            line: "{\"op\":\"delta\",\"eps0\":".into(),
            ops: good.ops.clone(),
        };
        let res = drive_frames(128, 1, vec![good.clone(), bad, good], 3);
        assert_eq!((res.attempted, res.failed, res.errors), (3, 1, 1));
        assert_eq!(res.slices.concat().len(), 3, "the failed op is still timed");
        assert_eq!(res.sent_by_kind[OpKind::Delta.index()], 3);
    }

    #[test]
    fn a_busy_reply_is_counted_as_failed() {
        // Depth 0 rejects every engine query with `busy`.
        let res = drive_frames(0, 4, vec![delta_frame()], 8);
        assert_eq!((res.attempted, res.failed, res.busy), (8, 8, 8));
    }

    #[test]
    fn drifted_bits_and_lost_replies_are_failures() {
        let good = delta_frame();
        let mut drifted = good.clone();
        drifted.ops[0].expect = Expect::Text("{\"ok\":true,\"value\":0.5}".into());
        let shutdown = Frame {
            line: "{\"op\":\"shutdown\"}".into(),
            ops: vec![OpSpec {
                kind: OpKind::Delta,
                expect: Expect::Text("{\"ok\":true,\"shutting_down\":true}".into()),
            }],
        };
        // Everything sent after the shutdown ack is lost with the connection.
        let res = drive_frames(128, 1, vec![good, drifted, shutdown, delta_frame()], 4);
        assert_eq!(res.attempted, 4);
        assert_eq!((res.failed, res.drift, res.lost), (2, 1, 1));
    }

    #[test]
    fn batch_items_are_judged_one_by_one() {
        let want = ["{\"ok\":true,\"value\":1}", "{\"ok\":true,\"value\":2}"];
        let served =
            "{\"ok\":true,\"batch\":[{\"ok\":true,\"value\":1},{\"ok\":true,\"value\":3}]}";
        assert_eq!(
            batch_verdicts(served, &want),
            vec![Verdict::Match, Verdict::Drift]
        );
        let busy = "{\"ok\":false,\"error\":{\"kind\":\"busy\",\"message\":\"full\"}}";
        assert_eq!(batch_verdicts(busy, &want), vec![Verdict::Busy; 2]);
    }
}
