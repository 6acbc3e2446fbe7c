//! Old-vs-new delta-scan kernel benchmark (the ISSUE-7 tentpole contract).
//!
//! The `seed` module below is a frozen, verbatim replica of the
//! pre-restructuring Theorem 4.8 scan kernels (interleaved scalar per-`c`
//! threshold/tail/accumulate work), rebuilt from the public `vr-numerics`
//! and `vr-core` surfaces so both generations run in **one binary on one
//! machine state** — cross-run wall-clock comparisons proved unreliable,
//! same-binary A/B is the only honest measurement. Against it the staged
//! pipeline (threshold precompute → tail pass → chunked weighted reduce)
//! must show, at n ∈ {10⁵, 10⁶, 10⁷}:
//!
//! * **bit-identical exact scans** — `DeltaEvaluator::try_delta` equals the
//!   seed `scan_exact` to the bit at every grid ε (the restructure only
//!   renames deterministic subexpressions);
//! * **an unchanged certified envelope** — `exact ≤ fast ≤ exact + 2.5e-13`;
//! * **≥ 1.5× on the single fast scan at n = 10⁶** (the serving kernel).
//!
//! A second phase replays the planner's min-n probe trajectory twice — once
//! with evaluator warm-starting disabled, once enabled — and asserts the
//! warm path spends strictly fewer support probes *and* strictly less
//! table-build wall time (min over repetitions), with identical answers.
//!
//! Headline numbers are printed to stdout. Set `VR_BENCH_SMOKE=1` for the CI
//! configuration: reduced n, machine-sensitive speedup asserts reported but
//! not enforced, bit-exactness and probe-count contracts still enforced.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use vr_core::accountant::{Accountant, DeltaEvaluator, ScanMode};
use vr_core::engine::{AmplificationQuery, AnalysisEngine};
use vr_core::VariationRatio;

/// Frozen seed-generation scan kernels (pre-ISSUE-7 `accountant.rs`),
/// reproduced verbatim on the public API: per-`c` threshold evaluation,
/// per-`c` `Binomial` construction, sequential accumulation. Do not
/// "improve" this module — it is the baseline the speedup is measured
/// against, and its exact scan is the bit-identity reference.
mod seed {
    use vr_core::VariationRatio;
    use vr_numerics::Binomial;

    pub const ANCHOR_PERIOD: u32 = 32;
    pub const MAX_BRIDGE: i64 = 8;
    pub const FAST_SCAN_PAD: f64 = 2e-13;

    /// The seed `OuterTable` (ScanMode::Full): support carrying all but
    /// 1e-300 of the outer `Binom(n−1, 2r)` mass, that 1e-300 credited.
    pub struct Table {
        pub c_lo: u64,
        pub weights: Vec<f64>,
        pub scanned_mass: f64,
        pub neglected_budget: f64,
    }

    pub fn build_table(vr: &VariationRatio, n: u64) -> Table {
        let two_r = (2.0 * vr.r()).min(1.0);
        let outer = Binomial::new(n - 1, two_r);
        let (c_lo, c_hi) = outer.support_for_mass(1e-300);
        let weights = outer.weights_in(c_lo, c_hi);
        let scanned_mass = weights.iter().sum();
        Table {
            c_lo,
            weights,
            scanned_mass,
            neglected_budget: 1e-300,
        }
    }

    struct ScanCoefs {
        coef_p0: f64,
        coef_p1: f64,
        coef_rest: f64,
        ee: f64,
    }

    impl ScanCoefs {
        fn new(vr: &VariationRatio, eps: f64) -> Option<Self> {
            let ee = eps.exp();
            let coef_p0 = vr.p_alpha() - ee * vr.alpha();
            if coef_p0 <= 0.0 {
                return None;
            }
            Some(Self {
                coef_p0,
                coef_p1: vr.alpha() - ee * vr.p_alpha(),
                coef_rest: (1.0 - ee) * vr.non_differing(),
                ee,
            })
        }
    }

    fn low_threshold(vr: &VariationRatio, n: u64, ee: f64, t: u64) -> f64 {
        let rest = vr.non_differing();
        let r = vr.r();
        let tf = t as f64;
        let remaining = (n - t.min(n)) as f64;
        let tail = if rest == 0.0 || remaining == 0.0 {
            0.0
        } else if 1.0 - 2.0 * r <= 0.0 {
            return f64::INFINITY;
        } else {
            rest * remaining * r / (1.0 - 2.0 * r)
        };
        ((ee * vr.p_alpha() - vr.alpha()) * tf + (ee - 1.0) * tail) / (vr.beta() * (ee + 1.0))
    }

    fn ceil_to_i64(x: f64) -> i64 {
        x.ceil() as i64
    }

    fn upper_tail(b: &Binomial, t: i64) -> f64 {
        b.sf(t - 1)
    }

    pub fn scan_exact(vr: &VariationRatio, n: u64, table: &Table, eps: f64) -> f64 {
        let Some(co) = ScanCoefs::new(vr, eps) else {
            return 0.0;
        };
        let mut sum = 0.0;
        for (i, &w) in table.weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let c = table.c_lo + i as u64;
            let t_next = ceil_to_i64(low_threshold(vr, n, co.ee, c + 1));
            let t_cur = ceil_to_i64(low_threshold(vr, n, co.ee, c));
            let inner = Binomial::new(c, 0.5);
            let s1 = upper_tail(&inner, t_next);
            let s0 = if (1..=c as i64 + 1).contains(&t_next) {
                s1 + inner.pmf((t_next - 1) as u64)
            } else {
                upper_tail(&inner, t_next - 1)
            };
            let s2 = upper_tail(&inner, t_cur);
            sum += w * (co.coef_p0 * s0 + co.coef_p1 * s1 + co.coef_rest * s2);
        }
        let neglected = (1.0 - table.scanned_mass)
            .max(0.0)
            .min(table.neglected_budget.max(1e-300));
        (sum + neglected).clamp(0.0, 1.0)
    }

    pub fn scan_fast(vr: &VariationRatio, n: u64, table: &Table, eps: f64) -> f64 {
        let Some(co) = ScanCoefs::new(vr, eps) else {
            return 0.0;
        };
        let mut st: Option<(i64, f64)> = None;
        let mut since_anchor = 0u32;
        let mut sum = 0.0;
        for (i, &w) in table.weights.iter().enumerate() {
            let c = table.c_lo + i as u64;
            if w == 0.0 {
                st = None;
                continue;
            }
            let t_next = ceil_to_i64(low_threshold(vr, n, co.ee, c + 1));
            let t_cur = ceil_to_i64(low_threshold(vr, n, co.ee, c));
            let inner = Binomial::new(c, 0.5);

            let s2 = if t_cur <= 0 {
                1.0
            } else if t_cur as u64 > c {
                0.0
            } else if let Some((t, s)) =
                st.filter(|&(t, _)| t == t_cur && since_anchor < ANCHOR_PERIOD)
            {
                since_anchor += 1;
                let prev = Binomial::new(c - 1, 0.5);
                let tm1 = t - 1;
                let add = if (0..c as i64).contains(&tm1) {
                    0.5 * prev.pmf(tm1 as u64)
                } else {
                    0.0
                };
                (s + add).clamp(0.0, 1.0)
            } else {
                since_anchor = 0;
                upper_tail(&inner, t_cur)
            };

            let s2_known = (1..=c as i64).contains(&t_cur).then_some((t_cur, s2));
            let s1 = shifted_tail(&inner, c, t_next, s2_known);
            let s0 = if (1..=c as i64 + 1).contains(&t_next) {
                s1 + inner.pmf((t_next - 1) as u64)
            } else {
                upper_tail(&inner, t_next - 1)
            };
            sum += w * (co.coef_p0 * s0 + co.coef_p1 * s1 + co.coef_rest * s2);

            st = (1..=c as i64).contains(&t_next).then_some((t_next, s1));
        }
        let neglected = (1.0 - table.scanned_mass)
            .max(0.0)
            .min(table.neglected_budget.max(1e-300));
        (sum + neglected + FAST_SCAN_PAD).clamp(0.0, 1.0)
    }

    fn shifted_tail(inner: &Binomial, c: u64, t: i64, known: Option<(i64, f64)>) -> f64 {
        if t <= 0 {
            return 1.0;
        }
        if t as u64 > c {
            return 0.0;
        }
        if let Some((t0, s0)) = known {
            let d = t - t0;
            if d == 0 {
                return s0;
            }
            if d.abs() <= MAX_BRIDGE {
                let mut s = s0;
                if d > 0 {
                    for j in t0..t {
                        s -= inner.pmf(j as u64);
                    }
                } else {
                    for j in t..t0 {
                        s += inner.pmf(j as u64);
                    }
                }
                return s.clamp(0.0, 1.0);
            }
        }
        upper_tail(inner, t)
    }
}

fn smoke() -> bool {
    std::env::var("VR_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// ε grid in [0, limit): dense enough to hit the saturating, bridged, and
/// re-anchoring regimes of the fast scan.
fn eps_grid(limit: f64, points: usize) -> Vec<f64> {
    (0..points)
        .map(|i| limit * 0.95 * i as f64 / points as f64)
        .collect()
}

/// Min wall time over `reps` runs of `f` — the low-noise estimator for a
/// deterministic single-threaded kernel.
fn min_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn scan_kernel(c: &mut Criterion) {
    let smoke = smoke();
    let vr = VariationRatio::ldp_worst_case(1.0).unwrap();
    let ns: &[u64] = if smoke {
        &[2_000, 20_000]
    } else {
        &[100_000, 1_000_000, 10_000_000]
    };
    let grid_points = if smoke { 8 } else { 16 };
    let reps = if smoke { 2 } else { 5 };

    let mut speedup_at_1m = f64::NAN;

    for &n in ns {
        let acc = Accountant::new(vr, n).unwrap();
        let ev = DeltaEvaluator::new(acc, ScanMode::Full);
        let table = seed::build_table(&vr, n);
        let (lo, hi) = ev.support_window().expect("non-degenerate workload");
        assert_eq!(
            (lo, hi),
            (table.c_lo, table.c_lo + table.weights.len() as u64 - 1),
            "staged evaluator scans a different support window than the seed"
        );
        let grid = eps_grid(vr.epsilon_limit(), grid_points);

        // Exact scans are ~100× a fast scan; verify bit-identity on a
        // subset of the grid at the largest n to keep the bench bounded.
        let exact_stride = if n >= 10_000_000 { 4 } else { 1 };
        for eps in grid.iter().step_by(exact_stride) {
            let seed_exact = seed::scan_exact(&vr, n, &table, *eps);
            let new_exact = ev.try_delta(*eps).unwrap();
            assert_eq!(
                new_exact.to_bits(),
                seed_exact.to_bits(),
                "exact scan drifted from seed at n={n} eps={eps}: {new_exact:e} vs {seed_exact:e}"
            );
            let new_fast = ev.delta_fast(*eps).unwrap();
            let seed_fast = seed::scan_fast(&vr, n, &table, *eps);
            assert!(
                new_fast >= new_exact && new_fast - new_exact <= 2.5e-13,
                "fast scan left the certified envelope at n={n} eps={eps}: \
                 {new_fast:e} vs {new_exact:e}"
            );
            assert!(
                seed_fast >= seed_exact && seed_fast - seed_exact <= 2.5e-13,
                "seed replica broke its own envelope at n={n} eps={eps} — replica bug"
            );
        }

        // Same-binary A/B: full fast-scan sweep, min over repetitions.
        let t_seed = min_secs(reps, || {
            for &eps in &grid {
                black_box(seed::scan_fast(&vr, n, &table, eps));
            }
        });
        let t_new = min_secs(reps, || {
            for &eps in &grid {
                black_box(ev.delta_fast(eps).unwrap());
            }
        });
        let per_scan_seed = t_seed / grid.len() as f64;
        let per_scan_new = t_new / grid.len() as f64;
        let speedup = per_scan_seed / per_scan_new;
        println!(
            "scan_kernel n={n}: seed fast {:.1} us/scan, staged fast {:.1} us/scan ({speedup:.2}x)",
            per_scan_seed * 1e6,
            per_scan_new * 1e6
        );
        if n == 1_000_000 {
            speedup_at_1m = speedup;
        }
    }

    if !smoke {
        assert!(
            speedup_at_1m >= 1.5,
            "acceptance: staged fast scan must be >= 1.5x the seed kernel at n = 10^6, \
             got {speedup_at_1m:.2}x"
        );
    }

    // ---- planner min-n probe trajectory: cold vs warm-started builds ----
    let (probe_eps, probe_delta, probe_hint) = if smoke {
        (0.5, 1e-6, 1 << 8)
    } else {
        (0.05, 1e-8, 1 << 14)
    };
    let query = AmplificationQuery::params(vr)
        .local_budget(1.0)
        .min_population(probe_eps, probe_delta, probe_hint)
        .build()
        .expect("valid planner query");

    let trajectory = |warm: bool| {
        let engine = AnalysisEngine::new();
        engine.set_warm_start(warm);
        let answer = engine.run(&query).expect("planner serves");
        (answer.scalar().unwrap(), engine.build_stats())
    };
    // Deterministic probe counts from one run; build wall time as the min
    // over fresh-engine repetitions (every run rebuilds every table).
    let (cold_n, cold_stats) = trajectory(false);
    let (warm_n, warm_stats) = trajectory(true);
    assert_eq!(
        cold_n.to_bits(),
        warm_n.to_bits(),
        "warm-started probe path changed the planner's answer"
    );
    assert_eq!(
        cold_stats.tables_built, warm_stats.tables_built,
        "warm start must not change which candidates are probed"
    );
    assert!(warm_stats.hinted_builds > 0, "no build consumed a hint");
    assert!(
        warm_stats.support_probes < cold_stats.support_probes,
        "acceptance: warm-started builds must spend fewer support probes \
         ({} vs {})",
        warm_stats.support_probes,
        cold_stats.support_probes
    );
    let build_reps = if smoke { 2 } else { 3 };
    let cold_build = (0..build_reps)
        .map(|_| trajectory(false).1.build_nanos)
        .min()
        .unwrap();
    let warm_build = (0..build_reps)
        .map(|_| trajectory(true).1.build_nanos)
        .min()
        .unwrap();
    println!(
        "planner probe path: {} tables, cold {} support probes / {:.2} ms build, \
         warm {} support probes / {:.2} ms build",
        cold_stats.tables_built,
        cold_stats.support_probes,
        cold_build as f64 / 1e6,
        warm_stats.support_probes,
        warm_build as f64 / 1e6
    );
    if !smoke {
        assert!(
            warm_build < cold_build,
            "acceptance: warm-started probe path must reduce table-build time \
             ({warm_build} ns vs {cold_build} ns)"
        );
    }
    // Criterion entries on the serving-size kernel.
    let crit_n = if smoke { 20_000 } else { 1_000_000 };
    let acc = Accountant::new(vr, crit_n).unwrap();
    let ev = DeltaEvaluator::new(acc, ScanMode::Full);
    let table = seed::build_table(&vr, crit_n);
    let mut g = c.benchmark_group("scan_kernel");
    g.sample_size(10);
    g.bench_function("seed_fast_scan", |b| {
        b.iter(|| seed::scan_fast(&vr, crit_n, &table, black_box(0.3)))
    });
    g.bench_function("staged_fast_scan", |b| {
        b.iter(|| ev.delta_fast(black_box(0.3)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, scan_kernel);
criterion_main!(benches);
