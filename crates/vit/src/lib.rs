//! # quq-vit — vision-transformer substrate for the QUQ reproduction
//!
//! A from-scratch inference stack for the three model families the paper
//! evaluates (ViT, DeiT, Swin), built so quantization schemes can intercept
//! every operation of the Fig. 1 data flow:
//!
//! * [`ModelConfig`] / [`ModelId`] — published ("full-scale") and reduced
//!   ("eval-scale") hyperparameters for ViT-S/L, DeiT-S/B, Swin-T/S.
//! * [`Backend`] — the execution trait; [`Fp32Backend`] is exact inference,
//!   and `quq-core` (fake quantization) and `quq-accel` (integer execution)
//!   provide quantized implementations. [`Op`] is one call as a value, and
//!   [`Op::eval`] is the only `f32` definition of each op.
//! * [`Tapped`] — runs a backend with a [`Tap`] watching every op:
//!   [`Observed`] records per-site spans, [`Capture`] records activations
//!   at chosen sites (Fig. 3 distributions), and `quq-core`'s calibration
//!   collector is a tap too.
//! * [`VitModel`] — the forward pass (global or windowed attention, patch
//!   merging, CLS/avg pooling) written once against [`Backend`].
//! * [`attention`] — attention rollout and map-fidelity metrics (Fig. 7).
//! * [`data`] — synthetic images and teacher-labeled evaluation sets
//!   (the ImageNet substitution; see DESIGN.md §2).
//!
//! ```
//! use quq_vit::{Fp32Backend, ModelConfig, VitModel};
//!
//! let model = VitModel::synthesize(ModelConfig::test_config(), 42);
//! let image = model.config().dummy_image(0.1);
//! let logits = model.forward(&image, &mut Fp32Backend::new())?;
//! assert_eq!(logits.len(), 10);
//! # Ok::<(), quq_vit::BackendError>(())
//! ```

#![forbid(unsafe_code)]

pub mod attention;
pub mod backend;
pub mod capture;
pub mod config;
pub mod data;
pub mod model;
pub mod weights;

pub use backend::{Backend, BackendError, Fp32Backend, Observed, Op, OpKind, OpSite, Tap, Tapped};
pub use capture::{Capture, TapPoint, TapSide};
pub use config::{Family, ModelConfig, ModelId, StageConfig};
pub use data::{evaluate, evaluate_parallel, synthetic_image, Dataset};
pub use model::{AttentionMaps, VitModel};
pub use weights::{BlockWeights, ModelWeights, StageWeights, TensorSlot};
