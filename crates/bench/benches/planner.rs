//! Warm-vs-cold inverse planning benchmark (the ISSUE-5 tentpole): answer
//! "how many users does a worst-case 1.0-LDP workload need for
//! (ε = 0.05, δ = 1e-8)?" two ways and require the planner to win:
//!
//! 1. the **naive cold loop** — the pre-planner idiom: walk the same
//!    candidate trajectory, and at every candidate population build a fresh
//!    `Accountant` and run the full Algorithm-1 `ε(δ)` bisection (~40 exact
//!    scans plus a table build per candidate), comparing the result to ε;
//! 2. the **warm planner search** — one `MinPopulation` query against a
//!    pre-warmed `AnalysisEngine`: every feasibility probe is a single
//!    `δ(ε)` fast scan on a cached evaluator.
//!
//! Besides the criterion timings, the harness asserts the acceptance
//! contract: identical (bit-identical) minimal populations from both paths,
//! a certified adjacent witness pair, an all-warm repeat search, and a
//! ≥ 3× wall-clock win for the warm planner.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use vr_core::accountant::Accountant;
use vr_core::bound::names;
use vr_core::engine::{AmplificationQuery, AnalysisEngine, DEFAULT_N_HI_HINT};
use vr_core::VariationRatio;

const EPS: f64 = 0.05;
const DELTA: f64 = 1e-8;
const HINT: u64 = 1 << 14;

/// The pre-planner inverse idiom: cold `ε(δ)`-then-compare per candidate,
/// over the reference trajectory of the planner's search (double from the
/// hint, then bisect to adjacent populations).
fn naive_min_n(vr: VariationRatio) -> u64 {
    let passes = |n: u64| {
        let eps_at_n = Accountant::new(vr, n)
            .expect("n >= 1")
            .epsilon_default(DELTA)
            .expect("achievable for finite p");
        eps_at_n <= EPS
    };
    let (mut lo, mut hi) = (1, HINT);
    while !passes(hi) {
        lo = hi;
        hi *= 2;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if passes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn planner_speedup(c: &mut Criterion) {
    let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
    let query = AmplificationQuery::params(vr)
        .local_budget(1.0)
        .min_population(EPS, DELTA, HINT)
        .build()
        .expect("valid planner query");

    // Cold naive loop, timed once (it is the slow side by design).
    let t0 = Instant::now();
    let naive = naive_min_n(vr);
    let t_naive = t0.elapsed().as_secs_f64();

    // Warm planner: one search to populate the evaluator cache, then the
    // timed repeat — the serving pattern (plan, tweak a target, re-plan).
    let engine = AnalysisEngine::new();
    let first = engine.run(&query).expect("planner serves");
    let t1 = Instant::now();
    let warm = engine.run(&query).expect("planner serves warm");
    let t_warm = t1.elapsed().as_secs_f64();

    let min_n = warm.scalar().unwrap() as u64;
    assert_eq!(
        min_n, naive,
        "planner and naive cold loop disagreed on the minimal population"
    );
    assert_eq!(
        first.scalar().unwrap().to_bits(),
        warm.scalar().unwrap().to_bits(),
        "warm repeat drifted from the cold search"
    );
    let cert = warm.certificate.expect("planner certificate");
    assert_eq!(cert.passing, min_n as f64);
    assert_eq!(cert.failing, Some((min_n - 1) as f64), "adjacent witness");
    assert!(warm.cache_hit, "repeat search must be all-warm");

    let speedup = t_naive / t_warm;
    println!(
        "planner summary (min n for eps = {EPS}, delta = {DELTA:e}, eps0 = 1.0):\n\
         naive cold accountant loop {t_naive:8.3} s\n\
         warm planner search        {t_warm:8.3} s   ({speedup:.1}x)\n\
         min n = {min_n}, {} probes, {} warm cache hits",
        cert.evaluations, cert.cache_hits
    );
    assert!(
        speedup >= 3.0,
        "acceptance: warm planner must be >= 3x faster than the naive cold loop, \
         got {speedup:.2}x"
    );

    // Probe-path accounting: where the cold search's time went —
    // how many evaluator tables the trajectory built, what they cost in
    // wall time, and how many builds consumed a warm-start window hint
    // from the previously probed candidate.
    let build = engine.build_stats();
    println!(
        "probe path: {} evaluator builds ({} warm-started, {} support probes) \
         in {:.2} ms of table-build time",
        build.tables_built,
        build.hinted_builds,
        build.support_probes,
        build.build_nanos as f64 / 1e6
    );
    assert!(
        build.hinted_builds > 0,
        "the min-n trajectory probes adjacent candidates; warm-start hints \
         must land on some of them"
    );

    // One cold numerical search on a fresh engine from the default hint —
    // a planner query for an unseen workload, as the serving benchmark's
    // `plan_cold` sends it: the certified replay probes near the answer
    // instead of walking down from n = 2^20.
    let fresh = AnalysisEngine::new();
    let cold_query = AmplificationQuery::params(vr)
        .local_budget(1.0)
        .min_population(EPS, DELTA, DEFAULT_N_HI_HINT)
        .bound(names::NUMERICAL)
        .build()
        .expect("valid planner query");
    let t2 = Instant::now();
    let cold = fresh.run(&cold_query).expect("planner serves cold");
    let t_cold = t2.elapsed().as_secs_f64();
    assert_eq!(
        cold.scalar().unwrap() as u64,
        naive,
        "cold numerical search drifted"
    );
    println!(
        "fresh-engine numerical min n from the default hint: {} probes, {} tables built, \
         {:.2} ms",
        cold.certificate.expect("planner certificate").evaluations,
        fresh.build_stats().tables_built,
        t_cold * 1e3
    );

    // Criterion entries: per-search costs of the two inverse paths.
    let mut g = c.benchmark_group("planner");
    g.sample_size(10);
    g.bench_function("warm_min_n_search", |b| {
        b.iter(|| engine.run(black_box(&query)).unwrap())
    });
    g.bench_function("cold_oneshot_probe", |b| {
        // One candidate of the naive loop (the full loop runs ~25 of these).
        b.iter(|| {
            Accountant::new(vr, black_box(min_n))
                .unwrap()
                .epsilon_default(DELTA)
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, planner_speedup);
criterion_main!(benches);
