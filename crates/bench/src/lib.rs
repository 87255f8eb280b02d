//! # quq-bench — the paper's tables and figures
//!
//! The experiments that regenerate every table and figure of the paper's
//! evaluation:
//!
//! | Experiment | Module | Paper content |
//! |---|---|---|
//! | Fig. 2 | [`experiments::fig2`] | peak on-chip memory, PQ vs FQ |
//! | Fig. 3 | [`experiments::fig3`] | tensor distributions + QUQ points |
//! | Table 1 | [`experiments::table1`] | MSE of BaseQ vs QUQ |
//! | Table 2 | [`experiments::table2`] | partial quantization accuracy |
//! | Table 3 | [`experiments::table3`] | full quantization accuracy |
//! | Fig. 7 | [`experiments::fig7`] | attention-map fidelity |
//! | Table 4 | [`experiments::table4`] | accelerator area/power |
//!
//! Run `cargo run --release -p quq-bench --bin tables -- all` to print
//! everything. The package also carries the workspace's examples and the
//! tests that span several crates. Speed is measured in one place, the
//! standalone `benchmark/` package.

#![forbid(unsafe_code)]

pub mod capture_data;
pub mod experiments;
pub mod report;
pub mod settings;

pub use report::Table;
pub use settings::Settings;
