//! Ablations of the accountant's design choices (the truncated scan and the
//! bisection of the paper's Algorithm 1):
//! (1) truncation tail-mass sweep — accuracy/latency trade-off of the
//!     rigorously-truncated scan;
//! (2) bisection depth T — the precision/latency trade-off of Algorithm 1;
//! (3) beta sensitivity — how the amplified ε responds to the total
//!     variation parameter that the paper's framework introduces.
use std::time::Instant;
use vr_bench::output::{f, ResultTable};
use vr_core::accountant::{Accountant, ScanMode, SearchOptions};
use vr_core::VariationRatio;

fn main() {
    let n = 10_000_000u64;
    let delta = 1e-9;
    let vr = VariationRatio::ldp_worst_case(2.0).unwrap();
    let acc = Accountant::new(vr, n).unwrap();

    println!("=== Ablation 1: truncation tail mass (n = {n}, eps0 = 2, delta = {delta:e}) ===");
    let mut t = ResultTable::new("ablation_tail_mass", &["tail_mass", "epsilon", "time_s"]);
    let reference = acc
        .epsilon(
            delta,
            SearchOptions {
                iterations: 40,
                mode: ScanMode::Full,
            },
        )
        .unwrap();
    for tail in [1e-6, 1e-10, 1e-14, 1e-18] {
        let t0 = Instant::now();
        let eps = acc
            .epsilon(
                delta,
                SearchOptions {
                    iterations: 40,
                    mode: ScanMode::Truncated { tail_mass: tail },
                },
            )
            .unwrap();
        t.push_row(vec![
            format!("{tail:e}"),
            format!("{eps:.8}"),
            f(t0.elapsed().as_secs_f64()),
        ]);
    }
    t.push_row(vec!["full".into(), format!("{reference:.8}"), "-".into()]);
    t.emit();
    println!(
        "(a tail mass above delta is credited to the bound and correctly blocks\n\
         certification — pick tail_mass several orders below the target delta)"
    );

    println!("=== Ablation 2: bisection depth T ===");
    let mut t = ResultTable::new("ablation_bisection", &["T", "epsilon", "rel_slack_vs_T48"]);
    let exact = acc
        .epsilon(
            delta,
            SearchOptions {
                iterations: 48,
                mode: ScanMode::default(),
            },
        )
        .unwrap();
    for iters in [5usize, 10, 20, 30, 40] {
        let eps = acc
            .epsilon(
                delta,
                SearchOptions {
                    iterations: iters,
                    mode: ScanMode::default(),
                },
            )
            .unwrap();
        t.push_row(vec![
            iters.to_string(),
            format!("{eps:.8}"),
            format!("{:.2e}", (eps - exact) / exact),
        ]);
    }
    t.emit();

    println!("=== Ablation 3: beta sensitivity (eps0 = 2, n = 1e5, delta = 1e-7) ===");
    let mut t = ResultTable::new("ablation_beta", &["beta_fraction_of_worst", "epsilon"]);
    let e = 2.0f64.exp();
    let beta_wc = (e - 1.0) / (e + 1.0);
    for frac in [1.0, 0.75, 0.5, 0.25, 0.1, 0.02] {
        let params = VariationRatio::ldp_with_beta(2.0, frac * beta_wc).unwrap();
        let eps = Accountant::new(params, 100_000)
            .unwrap()
            .epsilon_default(1e-7)
            .unwrap();
        t.push_row(vec![f(frac), format!("{eps:.6}")]);
    }
    t.emit();
    println!("(epsilon should scale roughly like sqrt(beta) — the Thm 4.3 order)");
}
