//! Criterion micro-benchmarks of the accounting kernels: the Õ(n) accountant
//! at several population scales (the Table 5 measurement), the full-vs-
//! truncated scan ablation, the bisection-depth ablation, the closed
//! forms, and the cold Rényi spend price.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vr_core::accountant::{Accountant, ScanMode, SearchOptions};
use vr_core::analytic::AnalyticBound;
use vr_core::asymptotic::AsymptoticBound;
use vr_core::baselines::{stronger_clone_bound, GenericBlanketBound};
use vr_core::bound::AmplificationBound;
use vr_core::VariationRatio;

fn bench_epsilon_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("epsilon_search");
    g.sample_size(10);
    for &n in &[10_000u64, 1_000_000] {
        let vr = VariationRatio::ldp_worst_case(3.0).unwrap();
        let acc = Accountant::new(vr, n).unwrap();
        let delta = 0.01 / n as f64;
        // n = 1e8 scales are measured once by the Table 5 binary; Criterion
        // sticks to n <= 1e6 to keep bench runs in minutes.
        if n <= 1_000_000 {
            g.bench_with_input(BenchmarkId::new("full_T20", n), &n, |b, _| {
                b.iter(|| {
                    acc.epsilon(
                        black_box(delta),
                        SearchOptions {
                            iterations: 20,
                            mode: ScanMode::Full,
                        },
                    )
                    .unwrap()
                })
            });
        }
        g.bench_with_input(BenchmarkId::new("truncated_T20", n), &n, |b, _| {
            b.iter(|| {
                acc.epsilon(
                    black_box(delta),
                    SearchOptions {
                        iterations: 20,
                        mode: ScanMode::Truncated { tail_mass: 1e-14 },
                    },
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_iteration_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("bisection_depth");
    g.sample_size(10);
    let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
    let acc = Accountant::new(vr, 1_000_000).unwrap();
    for &t in &[10usize, 20, 40] {
        g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| {
                acc.epsilon(
                    black_box(1e-8),
                    SearchOptions {
                        iterations: t,
                        mode: ScanMode::default(),
                    },
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_closed_forms(c: &mut Criterion) {
    let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
    c.bench_function("analytic_thm42", |b| {
        b.iter(|| AnalyticBound::new(black_box(vr), 1_000_000).epsilon(1e-8))
    });
    c.bench_function("asymptotic_thm43", |b| {
        b.iter(|| AsymptoticBound::new(black_box(vr), 1_000_000).epsilon(1e-8))
    });
}

fn bench_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("baselines_n1e5");
    g.sample_size(10);
    let opts = SearchOptions::default();
    g.bench_function("stronger_clone", |b| {
        b.iter(|| {
            stronger_clone_bound(black_box(2.0), 100_000, opts)
                .and_then(|bound| bound.epsilon(1e-7))
                .unwrap()
        })
    });
    g.bench_function("blanket_generic", |b| {
        b.iter(|| {
            GenericBlanketBound::new(black_box(2.0), 100_000, Default::default())
                .and_then(|bound| bound.epsilon(1e-7))
                .unwrap()
        })
    });
    g.finish();
}

/// One cold price of a workload over the full default order grid: what a
/// cold `composed` query or ledger `charge` pays before its spend is
/// memoized.
fn bench_renyi(c: &mut Criterion) {
    let mut g = c.benchmark_group("renyi");
    g.sample_size(10);
    let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
    g.bench_function("round_spend_grid24_n1e4", |b| {
        b.iter(|| vr_core::engine::RoundSpend::new(black_box(vr), 10_000).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_epsilon_search,
    bench_iteration_ablation,
    bench_closed_forms,
    bench_baselines,
    bench_renyi
);
criterion_main!(benches);
