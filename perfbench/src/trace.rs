//! Spans for the traced run. Each request gets a root span,
//! `client.request` (send to reply, measured on the wire), whose child
//! `server.execute` is the reply's `wall_micros`. The replay then runs the
//! same request line in process under the same request id —
//! `json.parse` → `protocol.decode` → `engine.run` / `ledger.*` →
//! `protocol.encode` → `json.write` — timing each call into that layer's
//! public functions. Spans stay in memory until the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use vr_core::engine::{AmplificationQuery, AnalysisEngine, PlanCertificate};
use vr_ledger::BudgetLedger;
use vr_server::{BatchPayload, Command, Json, LedgerOp, Reply, ReplyBody, Request, WireError};

use crate::check::normalize;
use crate::load::ClientSpan;
use crate::workload::{Frame, OpKind};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request id: `connection << 32 | frame index`.
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's duration minus the part of its interval its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut cover: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            cover.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Root `client.request` spans and their `server.execute` children. The
/// daemon reports only its duration, so the child is centred in the root.
pub fn client_spans(conn: usize, spans: &[ClientSpan], out: &mut Vec<Span>) {
    for s in spans {
        let req = (conn as u64) << 32 | s.frame;
        let root = out.len();
        out.push(Span {
            req,
            name: "client.request",
            parent: None,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
        });
        if let Some(wall) = s.wall_us {
            let dur = (wall * 1000).min(s.end_ns - s.start_ns);
            let start = s.start_ns + (s.end_ns - s.start_ns - dur) / 2;
            out.push(Span {
                req,
                name: "server.execute",
                parent: Some(root),
                start_ns: start,
                end_ns: start + dur,
            });
        }
    }
}

/// Replays request lines in process, recording a span per layer call.
pub struct Replayer<'a> {
    pub engine: &'a AnalysisEngine,
    pub ledger: &'a BudgetLedger,
    origin: Instant,
    pub spans: Vec<Span>,
    /// `engine.run` / ledger-call span durations per op class.
    pub run_ns: HashMap<OpKind, Vec<u64>>,
    /// Planner queries replayed, with their certificates.
    pub planned: Vec<(AmplificationQuery, PlanCertificate)>,
    /// Composed workloads replayed, for the cold-pricing probe.
    pub composed: Vec<(vr_core::params::VariationRatio, u64)>,
    pub request_bytes: u64,
    pub reply_bytes: u64,
    pub frames: u64,
}

impl<'a> Replayer<'a> {
    pub fn new(engine: &'a AnalysisEngine, ledger: &'a BudgetLedger, origin: Instant) -> Self {
        Replayer {
            engine,
            ledger,
            origin,
            spans: Vec::new(),
            run_ns: HashMap::new(),
            planned: Vec::new(),
            composed: Vec::new(),
            request_bytes: 0,
            reply_bytes: 0,
            frames: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
    ) -> usize {
        let end_ns = self.now();
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Execute one op the way a shard does, under a span.
    fn execute(&mut self, req: u64, root: usize, kind: OpKind, payload: BatchPayload) -> Reply {
        let t = self.now();
        let (reply, name) = match payload {
            BatchPayload::Query(query) => {
                if kind == OpKind::Composed {
                    self.composed
                        .push((*query.variation_ratio(), query.population()));
                }
                let result = self.engine.run(&query);
                let t_run = self.now();
                self.spans.push(Span {
                    req,
                    name: "engine.run",
                    parent: Some(root),
                    start_ns: t,
                    end_ns: t_run,
                });
                self.run_ns.entry(kind).or_default().push(t_run - t);
                let t = self.now();
                let reply = match result {
                    Ok(report) => {
                        if let Some(cert) = report.certificate {
                            self.planned.push(((*query).clone(), cert));
                        }
                        Reply::from_report(None, &report)
                    }
                    Err(e) => Reply::err(None, WireError::from(e)),
                };
                self.span(req, "protocol.encode", Some(root), t);
                return reply;
            }
            BatchPayload::Ledger(LedgerOp::Charge {
                user,
                vr,
                n,
                rounds,
            }) => (
                self.ledger
                    .charge(self.engine, user, vr, n, rounds)
                    .map(ReplyBody::Charge),
                "ledger.charge",
            ),
            BatchPayload::Ledger(LedgerOp::Remaining { user, eps, delta }) => (
                self.ledger
                    .remaining(user, eps, delta)
                    .map(ReplyBody::Budget),
                "ledger.remaining",
            ),
            BatchPayload::Ledger(_) => {
                return Reply::err(None, WireError::malformed("unexpected ledger op"))
            }
        };
        let t_run = self.now();
        self.spans.push(Span {
            req,
            name,
            parent: Some(root),
            start_ns: t,
            end_ns: t_run,
        });
        self.run_ns.entry(kind).or_default().push(t_run - t);
        let t = self.now();
        let reply = match reply {
            Ok(body) => Reply::ok(None, body),
            Err(e) => Reply::err(None, WireError::from(e)),
        };
        self.span(req, "protocol.encode", Some(root), t);
        reply
    }

    /// Replay one frame; returns the normalized reply text.
    pub fn replay(&mut self, req: u64, frame: &Frame) -> String {
        self.frames += 1;
        self.request_bytes += frame.line.len() as u64 + 1;
        let root_start = self.now();
        let root = self.spans.len();
        self.spans.push(Span {
            req,
            name: "replay.request",
            parent: None,
            start_ns: root_start,
            end_ns: root_start,
        });
        let t = self.now();
        let parsed = Json::parse(&frame.line);
        self.span(req, "json.parse", Some(root), t);
        let t = self.now();
        let request = parsed
            .map_err(|e| WireError::malformed(e.to_string()))
            .and_then(|json| Request::from_json(&json));
        self.span(req, "protocol.decode", Some(root), t);
        let reply_json = match request {
            Ok(request) => {
                let t = self.now();
                let encoded = request.to_json().to_string();
                self.span(req, "client.encode", None, t);
                drop(encoded);
                match request.command {
                    Command::Query(query) => {
                        let kind = frame.ops.first().map_or(OpKind::Delta, |o| o.kind);
                        self.execute(req, root, kind, BatchPayload::Query(query))
                            .to_json()
                    }
                    Command::Ledger(op) => {
                        let kind = frame.ops.first().map_or(OpKind::Charge, |o| o.kind);
                        self.execute(req, root, kind, BatchPayload::Ledger(op))
                            .to_json()
                    }
                    Command::Batch(items) => {
                        let replies: Vec<Reply> = items
                            .into_iter()
                            .zip(&frame.ops)
                            .map(|(item, spec)| match item.payload {
                                Ok(payload) => self.execute(req, root, spec.kind, payload),
                                Err(e) => Reply::err(item.id, e),
                            })
                            .collect();
                        let t = self.now();
                        let json = Reply::ok(None, ReplyBody::Batch(replies)).to_json();
                        self.span(req, "protocol.encode", Some(root), t);
                        json
                    }
                    _ => Reply::err(None, WireError::malformed("unexpected command")).to_json(),
                }
            }
            Err(e) => Reply::err(None, e).to_json(),
        };
        let t = self.now();
        let text = reply_json.to_string();
        self.span(req, "json.write", Some(root), t);
        self.spans[root].end_ns = self.now();
        self.reply_bytes += text.len() as u64 + 1;
        let t = self.now();
        let decoded = Json::parse(&text).map(|j| Reply::from_json(&j));
        self.span(req, "client.decode", None, t);
        drop(decoded);
        normalize(&text).0
    }
}

/// Spans as JSON lines, for the run's trace file.
pub fn render(spans: &[Span]) -> String {
    let self_ns = self_times(spans);
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let _ = writeln!(
            out,
            "{{\"req\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.req,
            s.name,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req: 7,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            // Overlapping children cover [10, 50) once, not twice.
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),
            // A child sticking out of its parent counts only inside it.
            span("c", Some(0), 90, 130),
            // A grandchild is covered by its parent, not the root.
            span("d", Some(1), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 5, 20, 40, 5]);
    }

    #[test]
    fn server_execute_is_a_centred_child_of_the_client_request() {
        let client = [
            ClientSpan {
                frame: 3,
                start_ns: 1_000,
                end_ns: 11_000,
                wall_us: Some(4),
            },
            ClientSpan {
                frame: 4,
                start_ns: 20_000,
                end_ns: 21_000,
                wall_us: Some(9),
            },
        ];
        let mut spans = Vec::new();
        client_spans(1, &client, &mut spans);
        assert_eq!(spans.len(), 4);
        let exec = &spans[1];
        assert_eq!(
            (exec.name, exec.parent, exec.start_ns, exec.end_ns),
            ("server.execute", Some(0), 4_000, 8_000)
        );
        assert_eq!(exec.req, spans[0].req);
        assert_eq!(spans[0].req, 1 << 32 | 3);
        // The wire share is the root's self time; a wall time longer than
        // the round trip (µs rounding) clips to zero wire time.
        assert_eq!(self_times(&spans), vec![6_000, 4_000, 0, 1_000]);
    }
}
