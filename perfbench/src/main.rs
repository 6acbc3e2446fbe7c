//! `perfbench` — the repository's serving benchmark.
//!
//! One command starts an in-process `vr_server::Server` (2 shard workers),
//! drives one workload over 2 loopback connections for `--seconds`, and
//! bit-checks every reply against an in-process reference. It prints the
//! machine and build, a human-readable report, and as its last line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, from a traced run and an in-process replay.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_rtt --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root. See `workload.rs` for why each
//! workload exists and `README.md` for every metric.

mod check;
mod layers;
mod load;
mod rng;
mod stats;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use vr_core::engine::AnalysisEngine;
use vr_core::params::VariationRatio;
use vr_server::{Json, Server, ServerConfig};

use layers::{per_layer, replay_frames, LoadFacts, Metrics};
use load::{drive, kind_counts_line, roundtrip_lines, stats_ops, wire_stats, ConnResult, DriveCfg};
use workload::{
    setup_lines, warm_evaluators, warm_query, ConnGen, Plan, Workload, CONNS, SERVE_EPS0, SERVE_NS,
};

/// Set-ups per run: at least [`SETUP_MIN_REPS`], repeated until
/// [`SETUP_BUDGET`] has passed (at most [`SETUP_MAX_REPS`]); `setup_s` is
/// their median, so cheap set-ups are sampled many times.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// The measured interval is cut into this many slices. Traced runs
/// alternate traced and untraced slices; every run prints its per-slice
/// throughput, which shows how steady the machine was.
const SLICES: u32 = 10;
/// The quiet interval after the load over which idle shard CPU is read.
const QUIET: Duration = Duration::from_secs(1);
/// Where run artefacts (trace spans, work counts) go, under the checkout.
const OUT_DIR: &str = ".perfbench";

/// Map `f` over `items` on [`CONNS`] threads, keeping order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let chunk = items.len().div_ceil(CONNS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A daemon and the client connections its workload runs on.
struct Daemon {
    server: Server,
    conns: Vec<TcpStream>,
}

impl Daemon {
    fn stop(self) {
        drop(self.conns);
        self.server.stop();
    }
}

/// Bind a daemon and warm its memo and ledger for the workload: evaluator
/// builds, spend pricing, and the account import, all over the wire.
fn setup(plan: &Plan) -> io::Result<(Daemon, f64)> {
    let t0 = Instant::now();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 128,
    })?;
    let mut conns = (0..CONNS)
        .map(|_| load::connect(server.local_addr()))
        .collect::<io::Result<Vec<_>>>()?;
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(conn, stream)| {
                scope.spawn(move || -> io::Result<()> {
                    for reply in roundtrip_lines(stream, &setup_lines(plan, conn))? {
                        if !reply.starts_with("{\"ok\":true") {
                            return Err(io::Error::other(format!("set-up frame failed: {reply}")));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .unwrap_or_else(|_| Err(io::Error::other("set-up thread panicked")))
        })
    })?;
    Ok((Daemon { server, conns }, t0.elapsed().as_secs_f64()))
}

/// Compare this run's work counts with the first run of the same
/// workload and seed in this checkout; returns how many differ.
fn check_counts(workload: Workload, seed: u64, counts: &BTreeMap<String, u64>) -> u64 {
    let dir = format!("{OUT_DIR}/counts");
    let path = format!("{dir}/{}-{seed}.txt", workload.name());
    let render = |c: &BTreeMap<String, u64>| {
        c.iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect::<String>()
    };
    let Ok(previous) = fs::read_to_string(&path) else {
        let _ = fs::create_dir_all(&dir).and_then(|_| fs::write(&path, render(counts)));
        println!("counts: first run for this seed, recorded in {path}");
        return 0;
    };
    let before: BTreeMap<String, u64> = previous
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect();
    let mut unstable = 0;
    for key in before
        .keys()
        .chain(counts.keys())
        .collect::<std::collections::BTreeSet<_>>()
    {
        let (old, new) = (before.get(key), counts.get(key));
        if old != new {
            unstable += 1;
            println!("FLAG count {key} did not repeat for seed {seed}: {old:?} then {new:?}");
        }
    }
    if unstable == 0 {
        println!(
            "counts: all {} work counts repeat exactly for seed {seed}",
            counts.len()
        );
    }
    unstable
}

fn print_metrics(metrics: &Metrics) {
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
}

fn run(args: &Args) -> Result<(Metrics, ConnResult, bool), String> {
    let wl = args.workload;
    println!(
        "perfbench workload={} {}",
        wl.name(),
        sys::environment(args.seed)
    );
    let io_err = |what: &str| {
        let what = what.to_string();
        move |e: io::Error| format!("{what}: {e}")
    };

    // The reference engine, warmed like the daemon, and the seeded inputs.
    let reference = AnalysisEngine::new();
    for (eps0, n) in warm_evaluators(wl) {
        let _ = reference.run(&warm_query(eps0, n));
    }
    if wl.is_serve() {
        let vr = VariationRatio::ldp_worst_case(SERVE_EPS0).expect("valid ε₀");
        for &n in &SERVE_NS {
            let _ = reference.round_spend(vr, n);
        }
    }
    let plan = Plan::new(wl, args.seed, &reference);

    let (mut d, first_setup) = setup(&plan).map_err(io_err("set-up"))?;

    let before = wire_stats(&mut d.conns[0]).map_err(io_err("stats"))?;
    // `peak_rss_mb` is the peak while serving, not a set-up transient.
    sys::reset_peak_rss();
    let cpu_before = sys::thread_cpu_ns("vr-shard-");
    let origin = Instant::now();
    let seconds = Duration::from_secs(args.seconds);
    let cfg = DriveCfg {
        window: wl.window(),
        origin,
        end: origin + seconds,
        slice: seconds / SLICES,
        trace: args.trace,
        span_frames: if args.trace { replay_frames(&plan) } else { 0 },
        max_frames: None,
    };
    let per_conn: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = d
            .conns
            .iter_mut()
            .enumerate()
            .map(|(conn, stream)| {
                let (plan, reference, cfg) = (&plan, &reference, &cfg);
                scope.spawn(move || {
                    drive(
                        stream,
                        &mut ConnGen::new(plan, reference, conn),
                        &plan.pool,
                        cfg,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let peak_rss_mb = sys::peak_rss_mb();
    let shard_cpu_ns = sys::thread_cpu_ns("vr-shard-").saturating_sub(cpu_before);
    let after = wire_stats(&mut d.conns[0]).map_err(io_err("stats"))?;
    let idle_shard_share = if args.trace {
        let cpu = sys::thread_cpu_ns("vr-shard-");
        let t = Instant::now();
        std::thread::sleep(QUIET);
        sys::thread_cpu_ns("vr-shard-").saturating_sub(cpu) as f64 / t.elapsed().as_nanos() as f64
    } else {
        0.0
    };
    let (cached_evaluators, ledger_users, ledger_workloads) = (
        d.server.engine().cached_evaluators(),
        d.server.ledger().users(),
        d.server.ledger().workloads(),
    );
    d.stop();

    // Repeat the set-up only after the load: a stopped daemon's freed
    // memory stays resident and would otherwise count in `peak_rss_mb`.
    let mut setup_s = vec![first_setup];
    let setups = Instant::now();
    while !args.trace
        && (setup_s.len() < SETUP_MIN_REPS
            || (setups.elapsed() < SETUP_BUDGET && setup_s.len() < SETUP_MAX_REPS))
    {
        let (d, secs) = setup(&plan).map_err(io_err("set-up"))?;
        setup_s.push(secs);
        d.stop();
    }

    let client_spans: Vec<_> = per_conn.iter().map(|r| r.spans.clone()).collect();
    let mut res = ConnResult::merge(per_conn);
    let mut correct = true;
    let (deferred_failed, example) = check::verify_deferred(&res.deferred);
    if deferred_failed > 0 {
        res.failed += deferred_failed;
        res.drift += deferred_failed;
        res.failures
            .extend(example.map(|e| format!("deferred reply drifted: {e}")));
    }
    // The daemon must have counted exactly the ops the load generator sent.
    let (ops_after, ops_before) = (stats_ops(&after), stats_ops(&before));
    let served: [u64; 8] = std::array::from_fn(|i| ops_after[i].saturating_sub(ops_before[i]));
    let batches = after.op_batch.saturating_sub(before.op_batch);
    if served != res.sent_by_kind || batches != res.batch_frames {
        correct = false;
        println!(
            "CHECK FAILED: daemon counted [{}] + {} batch frames, load generator sent [{}] + {}",
            kind_counts_line(&served),
            batches,
            kind_counts_line(&res.sent_by_kind),
            res.batch_frames
        );
    }
    correct &= res.failed == 0;

    let elapsed = res.elapsed.as_secs_f64().max(1e-9);
    let slice_secs = (seconds / SLICES).as_secs_f64();
    let full = &res.slices[..res.slices.len().min(SLICES as usize)];
    let rates: Vec<f64> = full.iter().map(|s| s.len() as f64 / slice_secs).collect();
    let latencies: Vec<f64> = res
        .slices
        .concat()
        .iter()
        .map(|&ns| f64::from(ns) / 1e3)
        .collect();
    println!(
        "ops/s by slice: [{}]",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "load: {} connections, window {}, {:.3} s, ops [{}], {} batch frames, {} deferred checks",
        CONNS,
        wl.window(),
        elapsed,
        kind_counts_line(&res.sent_by_kind),
        res.batch_frames,
        res.deferred.len()
    );
    println!(
        "failed_ratio {:.6} ({} of {} ops; busy {}, errors {}, drift {}, lost {})",
        res.failed as f64 / res.attempted.max(1) as f64,
        res.failed,
        res.attempted,
        res.busy,
        res.errors,
        res.drift,
        res.lost
    );
    for failure in res.failures.iter().take(3) {
        println!("  failure: {failure}");
    }

    let mut metrics = Metrics::default();
    if !args.trace {
        let (level, p_tail) = stats::tail(&latencies).unwrap_or((99.0, 0.0));
        metrics.put("setup_s", stats::median(&setup_s).unwrap_or(0.0), "s");
        metrics.put("ops_per_s", res.attempted as f64 / elapsed, "1/s");
        metrics.put(
            "latency_p50_us",
            stats::median(&latencies).unwrap_or(0.0),
            "us",
        );
        metrics.put("latency_p99_us", p_tail, "us");
        metrics.put("peak_rss_mb", peak_rss_mb, "MiB");
        println!(
            "setup_s is the median of {} set-ups; latency from {} samples, \
             latency_p99_us is p{level} (highest percentile with >= {} samples beyond it)",
            setup_s.len(),
            latencies.len(),
            stats::TAIL_SAMPLES
        );
        print_metrics(&metrics);
        return Ok((metrics, res, correct));
    }

    let rate_of = |traced: bool| {
        let picked: Vec<f64> = (0..rates.len())
            .filter(|&i| cfg.traced(i) == traced)
            .map(|i| rates[i])
            .collect();
        stats::median(&picked).unwrap_or(0.0)
    };
    let (traced_rate, untraced_rate) = (rate_of(true), rate_of(false));
    let facts = LoadFacts {
        client_spans,
        ops: res.attempted,
        shard_cpu_ns,
        idle_shard_share,
        before,
        after,
        hits: res.hits,
        misses: res.misses,
        cached_evaluators,
        ledger_users,
        ledger_workloads,
        overhead_pct: 100.0 * (untraced_rate / traced_rate.max(1e-9) - 1.0),
    };
    let replay = per_layer(&plan, &reference, &facts, origin);
    if replay.mismatched > 0 {
        correct = false;
        println!(
            "CHECK FAILED: {} replayed replies differ from the reference",
            replay.mismatched
        );
    }
    let unstable = check_counts(wl, args.seed, &replay.counts);
    metrics = replay.metrics;
    metrics.put("trace.unstable_counts", unstable as f64, "count");
    println!(
        "traced half {traced_rate:.1} ops/s, untraced half {untraced_rate:.1} ops/s \
         in alternating slices (trace.overhead_pct); {} spans",
        replay.spans.len()
    );
    let path = format!("{OUT_DIR}/trace-{}-{}.jsonl", wl.name(), args.seed);
    match fs::create_dir_all(OUT_DIR).and_then(|_| fs::write(&path, trace::render(&replay.spans))) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => println!("spans not written ({path}: {e})"),
    }
    print_metrics(&metrics);
    Ok((metrics, res, correct))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <serve_rtt|serve_pipelined|eps_warm|plan_cold> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (metrics, res, correct) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = Json::Obj(
        metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str((*unit).into())),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    );
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(res.attempted as f64)),
        ("failed", Json::Num(res.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
