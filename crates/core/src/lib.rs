//! # quq-core — quadruplet uniform quantization (QUQ)
//!
//! The primary contribution of *"QUQ: Quadruplet Uniform Quantization for
//! Efficient Vision Transformer Inference"* (DAC 2024), reimplemented as a
//! library:
//!
//! * [`uniform`] — symmetric uniform quantization (Eq. 1), the primitive and
//!   the `BaseQ` baseline.
//! * [`scheme`] — [`QuqParams`]: the four zero-bounded subranges, modes A–D
//!   (Fig. 4), quantize/dequantize (Eq. 3), the power-of-two scale
//!   constraint (Eq. 4).
//! * [`relax`](mod@relax) — Algorithm 1 ([`relax`](relax::relax)) and the progressive
//!   relaxation algorithm ([`Pra`], Algorithm 2).
//! * [`qub`] — quadruplet uniform bytes and FC registers (§4.1, Eq. 6/7).
//! * [`dot`] — integer-only dot products with per-element shifts (Eq. 5).
//! * [`quantizer`] / [`hessian`] — the [`QuantMethod`] abstraction, the QUQ
//!   method, and the layer-wise Hessian-proxy grid search (§6.1).
//! * [`calib`] / [`pipeline`] — calibration collection and the partial/full
//!   PTQ execution pipelines behind Tables 2 and 3.
//! * [`io`] — the `QUB1` record a weight ships as (Fig. 5), and [`bytes`],
//!   the one checked reader every hostile byte is parsed through.
//! * [`backend_int`] / [`intfunc`] — the integer runtime a deployed model
//!   runs on: [`IntegerBackend`] executes a calibrated model as the QUA and
//!   its SFUs would, over a [`WeightQubCache`] of QUB-encoded weights, with
//!   the integer-only Softmax, GELU and LayerNorm kernels of [`intfunc`].
//!   The hardware models it stands in for (cost, memory, the RTL-level
//!   simulator) live in `quq-accel`.
//!
//! ```
//! use quq_core::{Pra, QuqParams};
//!
//! // Fit 8-bit QUQ to long-tailed data and quantize.
//! let data: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.017).sin() * 0.05)
//!     .chain([2.0, -1.5]).collect();
//! let params = Pra::with_defaults(8).run(&data).params;
//! let code = params.quantize(0.04);
//! assert!((params.dequantize(code) - 0.04).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]

pub mod backend_int;
pub mod bytes;
pub mod calib;
pub mod dot;
pub mod hessian;
pub mod intfunc;
pub mod io;
pub mod packing;
pub mod pipeline;
pub mod quantizer;
pub mod qub;
pub mod relax;
pub mod scheme;
pub mod uniform;

pub use backend_int::{IntegerBackend, WeightQubCache};
pub use bytes::{ByteError, ByteErrorKind, ByteReader};
pub use calib::{Collector, Coverage, Operand, ParamKey, SampleSet};
pub use dot::{accumulator_value, dot_decoded, matmul_nt_qub, requantize};
pub use hessian::{grid_search_quq, Objective};
pub use io::{read_qub_tensor, read_qub_tensor_bounded, write_qub_tensor};
pub use packing::{pack_qubs, unpack_qubs};
pub use pipeline::{calibrate, evaluate_quantized, PtqConfig, PtqTables, QuantBackend};
pub use quantizer::{FittedQuantizer, QuantMethod, QuqMethod};
pub use qub::{
    decode_qub, params_from_fc, preshift_lut, Decoded, FcRegisters, QubCodec, QubTensor,
};
pub use relax::{relax, Pra, PraConfig, PraOutcome};
pub use scheme::{Mode, QuqCode, QuqParams, SpaceLayout};
pub use uniform::UniformQuantizer;
