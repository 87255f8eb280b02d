//! # quq-accel — hardware models for the QUQ accelerator evaluation
//!
//! Three models substitute for the paper's hardware artifacts (§2, §6.2):
//!
//! * [`cost`] — analytical 28 nm gate-level area/power model of the QUA vs
//!   the uniform-quantization accelerator (Table 4).
//! * [`memory`] — on-chip peak-memory simulation of partially vs fully
//!   quantized ViT blocks (Fig. 2).
//! * [`sim`] — bit-accurate functional simulator of the QUA data path
//!   (DU → PE array → QU, Fig. 6) with a cycle model; differentially tested
//!   against the software integer reference in `quq_core::dot`.
//!
//! These are evaluation tools beside the deployed model. The integer
//! runtime that serves it ([`IntegerBackend`], [`WeightQubCache`] and the
//! SFU kernels of [`intfunc`]) lives in `quq-core`; this crate re-exports
//! those names only for `benchmark/`.
//!
//! ```
//! use quq_accel::{estimate, AcceleratorConfig, Scheme, Tech};
//!
//! let report = estimate(AcceleratorConfig::new(Scheme::Quq, 6, 16), Tech::n28());
//! assert!(report.area_mm2 > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod memory;
pub mod schedule;
pub mod sim;

pub use cost::{
    estimate, gemm_energy_nj, table4_configs, AcceleratorConfig, CostReport, Scheme, Tech,
};
pub use memory::{pq_overhead, simulate_block, MemoryReport, Regime};
/// Kept for `benchmark/`, which imports the SFU kernels from here.
pub use quq_core::intfunc;
/// Kept for `benchmark/`, which imports the integer runtime from here.
pub use quq_core::{IntegerBackend, WeightQubCache};
pub use schedule::{block_gemms, deploy, Deployment, GemmShape};
pub use sim::{GemmStats, Qua};
