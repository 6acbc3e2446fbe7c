//! Before/after benchmark of δ(ε) curve sampling (the ISSUE-2 tentpole):
//! a 256-point grid at `n = 10^6`, comparing
//!
//! 1. the **naive per-point path** — `Accountant::try_delta` per grid point,
//!    rebuilding the outer binomial table and paying two incomplete-beta
//!    tail calls per scanned `c` at every point (the pre-engine behaviour);
//! 2. the **memoized evaluator** — one `NumericalBound` (table built once)
//!    with the incremental-tail fast scan, sampled sequentially;
//! 3. **memoized + `par_map`** — the same bound through
//!    `PrivacyCurve::sample`, grid points evaluated by scoped threads.
//!
//! Besides the criterion timings, the harness prints a one-shot speedup
//! summary and asserts the bit-compatibility contract: every sampled value
//! within 1e-12 of the naive sequential path, and parallel output
//! bit-identical to sequential sampling of the same bound.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use vr_core::accountant::{Accountant, NumericalBound, ScanMode};
use vr_core::{PrivacyCurve, VariationRatio};

const POINTS: usize = 256;
const N: u64 = 1_000_000;
const EPS_MAX: f64 = 0.5;

fn grid() -> Vec<f64> {
    let step = EPS_MAX / (POINTS - 1) as f64;
    (0..POINTS).map(|i| step * i as f64).collect()
}

/// The pre-engine behaviour: one table rebuild + exact scan per point.
fn naive_curve(acc: &Accountant) -> Vec<f64> {
    grid()
        .iter()
        .map(|&e| acc.try_delta(e, ScanMode::default()).unwrap())
        .collect()
}

fn workload() -> (Accountant, NumericalBound) {
    let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
    (
        Accountant::new(vr, N).unwrap(),
        NumericalBound::new(vr, N).unwrap(),
    )
}

fn speedup_report(c: &mut Criterion) {
    let (acc, bound) = workload();

    let t0 = Instant::now();
    let naive = naive_curve(&acc);
    let t_naive = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let seq = PrivacyCurve::sample_sequential(&bound, EPS_MAX, POINTS).unwrap();
    let t_seq = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let par = PrivacyCurve::sample(&bound, EPS_MAX, POINTS).unwrap();
    let t_par = t2.elapsed().as_secs_f64();

    // Contract: outputs bit-compatible (<= 1e-12) with the naive path...
    let worst = naive
        .iter()
        .zip(seq.points())
        .map(|(&a, (_, b))| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(
        worst <= 1e-12,
        "memoized curve drifted {worst:e} from the naive path"
    );
    // ...and parallel sampling bit-identical to sequential sampling.
    assert!(
        seq.points()
            .zip(par.points())
            .all(|((_, a), (_, b))| a.to_bits() == b.to_bits()),
        "parallel sampling changed bits"
    );

    println!(
        "curve_sampling summary ({POINTS}-point grid, n = {N}, eps <= {EPS_MAX}):\n\
         naive per-point      {t_naive:8.3} s\n\
         memoized evaluator   {t_seq:8.3} s   ({:.1}x)\n\
         memoized + par_map   {t_par:8.3} s   ({:.1}x, {} thread(s))\n\
         max |naive - memoized| = {worst:.2e}",
        t_naive / t_seq,
        t_naive / t_par,
        vr_numerics::par::default_threads(),
    );

    // Criterion entries for the two engine paths (the naive path is timed
    // once above — at ~seconds per iteration it would blow the bench budget).
    let mut g = c.benchmark_group("curve_sampling");
    g.sample_size(10);
    g.bench_function("memoized_sequential", |b| {
        b.iter(|| PrivacyCurve::sample_sequential(black_box(&bound), EPS_MAX, POINTS).unwrap())
    });
    g.bench_function("memoized_parallel", |b| {
        b.iter(|| PrivacyCurve::sample(black_box(&bound), EPS_MAX, POINTS).unwrap())
    });
    g.bench_function("evaluator_single_point", |b| {
        b.iter(|| bound.evaluator().delta_fast(black_box(0.12)).unwrap())
    });
    g.bench_function("naive_single_point", |b| {
        b.iter(|| acc.try_delta(black_box(0.12), ScanMode::default()).unwrap())
    });
    g.finish();
}

criterion_group!(benches, speedup_report);
criterion_main!(benches);
