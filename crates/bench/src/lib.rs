//! # vr-bench — the benchmark harness regenerating every table and figure of
//! the paper's evaluation (Section 7).
//!
//! Binaries (`cargo run -p vr-bench --release --bin <name>`):
//! `fig1`–`fig5`, `table1`–`table6`. Each prints the paper's rows/series and
//! mirrors them to CSV under `results/`. The experiment drivers live in
//! [`figures`] and [`tables`] so the integration tests can assert the
//! paper's qualitative claims programmatically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod output;
pub mod tables;
