//! # quq-baselines — comparison PTQ methods for the QUQ evaluation
//!
//! Reimplementations of the methods the paper compares against in Tables
//! 2–3, all expressed as [`quq_core::QuantMethod`]s so the shared
//! calibration/execution pipeline runs them interchangeably:
//!
//! * [`BaseQ`] — min–max symmetric uniform quantization (the paper's
//!   ablation baseline).
//! * [`BiScaledFxp`] — two symmetric scale factors with an outlier index
//!   (Jain et al., DAC 2019).
//! * [`FqVit`] — fully quantized ViT with row-wise weights and log2
//!   attention (Lin et al.).
//! * [`Ptq4Vit`] — twin uniform quantization with Hessian-guided search
//!   (Yuan et al., ECCV 2022).
//! * [`ApqVit`] — block-wise Hessian-optimized uniform proxy (Ding et al.,
//!   MM 2022).
//!
//! ```
//! use quq_baselines::BaseQ;
//! use quq_core::quantizer::QuantMethod;
//!
//! let q = BaseQ::new().fit_activation(&[-1.0, 0.5, 2.0], 8);
//! assert_eq!(q.bits(), 8);
//! ```

#![forbid(unsafe_code)]

pub mod baseq;
pub mod biscaled;
pub mod fqvit;
pub mod ptq4vit;

pub use baseq::BaseQ;
pub use biscaled::{BiScaledFxp, BiScaledParams};
pub use fqvit::{FqVit, Log2Quantizer, RowWiseUniform};
pub use ptq4vit::{ApqVit, Ptq4Vit, TwinUniformParams};
