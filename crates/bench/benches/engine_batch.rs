//! Warm-vs-cold batch serving benchmark for the query engine: 64 `ε(δ)`
//! queries on one workload (`ε₀ = 1`, `n = 10⁶`, log-spaced
//! δ ∈ [1e-10, 1e-4]), comparing
//!
//! 1. the **cold one-shot path** — a fresh `Accountant::epsilon_default`
//!    per query, the pre-engine behaviour of every call site: each call
//!    rebuilds the outer binomial table and runs the full exact-scan
//!    bisection of Algorithm 1;
//! 2. the **warm engine batch** — `AnalysisEngine::run_batch` against a
//!    pre-warmed evaluator cache: one memoized table shared by every query,
//!    each served by the bracket-pruned ε-search (a certified bracket from
//!    a few fast scans, out-of-bracket decisions replayed without a scan,
//!    incremental exact-scan endgame).
//!
//! Besides the criterion timings, the harness prints a speedup summary and
//! asserts the acceptance contract: warm batch ≥ 5× faster than the cold
//! one-shots, every answer within 1e-12 of the one-shot value (the
//! amortized search reproduces the reference bisection decisions, so the
//! answers are in fact bit-identical), and every warm report flagged as a
//! cache hit.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use vr_core::accountant::Accountant;
use vr_core::bound::names;
use vr_core::engine::{AmplificationQuery, AnalysisEngine};
use vr_core::VariationRatio;

const N: u64 = 1_000_000;
const QUERIES: usize = 64;

/// 64 log-spaced δ targets in [1e-10, 1e-4] — the "same mechanism, varying
/// δ" sweep a serving deployment answers all day.
fn deltas() -> Vec<f64> {
    (0..QUERIES)
        .map(|i| 10f64.powf(-10.0 + 6.0 * i as f64 / (QUERIES - 1) as f64))
        .collect()
}

fn queries(vr: VariationRatio) -> Vec<AmplificationQuery> {
    deltas()
        .iter()
        .map(|&delta| {
            AmplificationQuery::params(vr)
                .population(N)
                .epsilon_at(delta)
                .bound(names::NUMERICAL)
                .build()
                .expect("valid query")
        })
        .collect()
}

fn batch_speedup(c: &mut Criterion) {
    let vr = VariationRatio::ldp_worst_case(1.0).unwrap();

    // Cold path: one throwaway accountant per query (table rebuilt, exact
    // bisection), exactly what pre-engine call sites hand-wired.
    let t0 = Instant::now();
    let cold: Vec<f64> = deltas()
        .iter()
        .map(|&delta| {
            Accountant::new(vr, N)
                .unwrap()
                .epsilon_default(delta)
                .unwrap()
        })
        .collect();
    let t_cold = t0.elapsed().as_secs_f64();

    // Warm path: shared engine, evaluator pre-built by a warm-up query.
    let engine = AnalysisEngine::new();
    let qs = queries(vr);
    engine.run(&qs[0]).unwrap();
    let t1 = Instant::now();
    let reports = engine.run_batch(&qs);
    let t_warm = t1.elapsed().as_secs_f64();

    let mut worst = 0.0f64;
    for (report, &want) in reports.into_iter().zip(&cold) {
        let report = report.expect("query served");
        assert!(report.cache_hit, "warm batch must hit the evaluator cache");
        worst = worst.max((report.scalar().unwrap() - want).abs());
    }
    assert!(
        worst <= 1e-12,
        "warm batch drifted {worst:e} from the one-shot path"
    );
    let speedup = t_cold / t_warm;
    println!(
        "engine_batch summary ({QUERIES} eps(delta) queries, n = {N}):\n\
         cold one-shot accountants {t_cold:8.3} s\n\
         warm engine batch         {t_warm:8.3} s   ({speedup:.1}x)\n\
         max |cold - warm| = {worst:.2e}, cached evaluators = {}",
        engine.cached_evaluators()
    );
    assert!(
        speedup >= 5.0,
        "acceptance: warm batch must be >= 5x faster than cold one-shots, got {speedup:.2}x"
    );

    // Perf trajectory artifact (results/BENCH_engine_batch.json).
    let mut report = vr_bench::trajectory::BenchReport::new("engine_batch");
    report
        .metric("queries", QUERIES as f64)
        .metric("population_n", N as f64)
        .metric("cold_secs", t_cold)
        .metric("warm_secs", t_warm)
        .metric("speedup", speedup)
        .metric("max_abs_err", worst)
        .metric("cached_evaluators", engine.cached_evaluators() as f64);
    report.emit();

    // Criterion entries: per-query costs of the two serving paths (the full
    // batches are timed once above — at seconds per iteration they would
    // blow the bench budget).
    let mut g = c.benchmark_group("engine_batch");
    g.sample_size(10);
    g.bench_function("warm_engine_query", |b| {
        b.iter(|| engine.run(black_box(&qs[32])).unwrap())
    });
    g.bench_function("cold_oneshot_accountant", |b| {
        b.iter(|| {
            Accountant::new(vr, N)
                .unwrap()
                .epsilon_default(black_box(1e-7))
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, batch_speedup);
criterion_main!(benches);
