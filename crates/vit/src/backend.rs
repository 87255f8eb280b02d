//! Execution backend abstraction.
//!
//! The model forward pass (see [`crate::model`]) is written once against the
//! [`Backend`] trait. Each call is tagged with an [`OpSite`] naming the
//! operation and its position, so a PTQ pipeline can attach per-tensor
//! quantization parameters to every edge in the paper's Fig. 1 data-flow
//! graph.
//!
//! [`Op`] is one call as a value, and [`Op::eval`] holds the only `f32`
//! definition of each operation. A *compute* backend ([`Fp32Backend`], the
//! fake-quant and integer backends) overrides the methods it computes
//! differently and falls back to `eval` for the rest. A *tap* ([`Tap`])
//! only watches: [`Tapped`] hands it each op before the inner backend runs
//! it and the output after, so span timing ([`Observed`]), activation
//! capture and calibration never forward an op by hand.

use quq_tensor::{linalg, nn, Tensor};
use std::fmt;

/// Errors produced by backends (shape errors from the substrate, or
/// quantization-specific failures raised by backend implementations).
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// Underlying tensor-algebra error.
    Tensor(quq_tensor::TensorError),
    /// A quantized backend was asked to execute a site it has no parameters
    /// for (e.g. calibration never visited it).
    MissingParams(OpSite),
    /// Any other backend-specific failure.
    Other(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Tensor(e) => write!(f, "tensor error: {e}"),
            BackendError::MissingParams(site) => {
                write!(f, "no quantization parameters for site {site}")
            }
            BackendError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<quq_tensor::TensorError> for BackendError {
    fn from(e: quq_tensor::TensorError) -> Self {
        BackendError::Tensor(e)
    }
}

/// Result alias for backend operations.
pub type Result<T> = std::result::Result<T, BackendError>;

/// The kind of operation being executed (the nodes of the paper's Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Patch-embedding linear projection.
    PatchEmbed,
    /// LayerNorm before the attention module.
    Norm1,
    /// Fused QKV projection.
    Qkv,
    /// Attention score matmul `Q·Kᵀ` (already scaled by 1/√d).
    QkMatmul,
    /// Softmax over attention scores.
    Softmax,
    /// Attention-weighted value matmul `P·V`.
    PvMatmul,
    /// Attention output projection.
    AttnProj,
    /// Residual addition after attention.
    Residual1,
    /// LayerNorm before the MLP module.
    Norm2,
    /// First MLP linear.
    Fc1,
    /// GELU activation.
    Gelu,
    /// Second MLP linear.
    Fc2,
    /// Residual addition after the MLP.
    Residual2,
    /// Patch-merging reduction between Swin stages.
    PatchMerge,
    /// Final LayerNorm before the classifier.
    FinalNorm,
    /// Classification head linear.
    Head,
}

impl OpKind {
    /// The kind's stable name, used as the observability site label (so
    /// metric sites match this type's `Display`).
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::PatchEmbed => "PatchEmbed",
            OpKind::Norm1 => "Norm1",
            OpKind::Qkv => "Qkv",
            OpKind::QkMatmul => "QkMatmul",
            OpKind::Softmax => "Softmax",
            OpKind::PvMatmul => "PvMatmul",
            OpKind::AttnProj => "AttnProj",
            OpKind::Residual1 => "Residual1",
            OpKind::Norm2 => "Norm2",
            OpKind::Fc1 => "Fc1",
            OpKind::Gelu => "Gelu",
            OpKind::Fc2 => "Fc2",
            OpKind::Residual2 => "Residual2",
            OpKind::PatchMerge => "PatchMerge",
            OpKind::FinalNorm => "FinalNorm",
            OpKind::Head => "Head",
        }
    }

    /// Whether the operation is implementable as GEMM — the "green"
    /// components of the paper's Fig. 1, i.e. what *partial* quantization
    /// covers.
    pub fn is_gemm(self) -> bool {
        matches!(
            self,
            OpKind::PatchEmbed
                | OpKind::Qkv
                | OpKind::QkMatmul
                | OpKind::PvMatmul
                | OpKind::AttnProj
                | OpKind::Fc1
                | OpKind::Fc2
                | OpKind::PatchMerge
                | OpKind::Head
        )
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A unique operation site: the operation kind plus the global block index
/// it occurs in (`None` for stem/head-level operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpSite {
    /// Global block index (across all stages), or `None` outside blocks.
    pub block: Option<usize>,
    /// Operation kind.
    pub kind: OpKind,
}

impl OpSite {
    /// Site inside block `block`.
    pub fn in_block(block: usize, kind: OpKind) -> Self {
        Self {
            block: Some(block),
            kind,
        }
    }

    /// Model-level site (patch embed, final norm, head).
    pub fn global(kind: OpKind) -> Self {
        Self { block: None, kind }
    }
}

impl fmt::Display for OpSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.block {
            Some(b) => write!(f, "block{b}.{}", self.kind),
            None => write!(f, "{}", self.kind),
        }
    }
}

impl From<OpSite> for quq_obs::SiteKey {
    fn from(site: OpSite) -> Self {
        Self {
            block: site.block,
            op: std::borrow::Cow::Borrowed(site.kind.as_str()),
        }
    }
}

/// The `ε` of every `f32` LayerNorm.
pub const LAYER_NORM_EPS: f32 = 1e-6;

/// Execution backend for the ViT forward pass.
///
/// The default methods are exact `f32` inference ([`Op::eval`]);
/// implementors override whichever operations their scheme intercepts. All
/// methods take `&mut self` so backends can hold state such as caches.
pub trait Backend {
    /// Linear layer `y = x·Wᵀ + b` with `w` in `[out, in]` layout.
    ///
    /// # Errors
    ///
    /// Propagates shape errors; quantized backends may also report
    /// [`BackendError::MissingParams`].
    fn linear(
        &mut self,
        site: OpSite,
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
    ) -> Result<Tensor> {
        let _ = site;
        Op::Linear { x, w, b }.eval()
    }

    /// Matrix product `A[m,k]·B[k,n]` (used for `P·V`).
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _ = site;
        Op::Matmul { a, b }.eval()
    }

    /// Matrix product `A[m,k]·B[n,k]ᵀ` (used for `Q·Kᵀ`).
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _ = site;
        Op::MatmulNt { a, b }.eval()
    }

    /// Softmax over the last axis.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        let _ = site;
        Op::Softmax { x }.eval()
    }

    /// GELU activation.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        let _ = site;
        Op::Gelu { x }.eval()
    }

    /// LayerNorm over the last axis.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _ = site;
        Op::LayerNorm { x, g, b }.eval()
    }

    /// Residual (elementwise) addition.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _ = site;
        Op::Add { a, b }.eval()
    }
}

// A `&mut` reference to a backend is itself a backend that forwards every
// call to the referent. Each method must forward explicitly — inheriting the
// trait's f32 defaults here would silently bypass the inner backend. This is
// what lets the serving worker hand `&mut dyn Backend` to
// `VitModel::forward_batch` without knowing the concrete type.
impl<B: Backend + ?Sized> Backend for &mut B {
    fn linear(
        &mut self,
        site: OpSite,
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
    ) -> Result<Tensor> {
        (**self).linear(site, x, w, b)
    }

    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        (**self).matmul(site, a, b)
    }

    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        (**self).matmul_nt(site, a, b)
    }

    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        (**self).softmax(site, x)
    }

    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        (**self).gelu(site, x)
    }

    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        (**self).layer_norm(site, x, g, b)
    }

    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        (**self).add(site, a, b)
    }
}

/// One [`Backend`] call as a value: a variant per trait method, named
/// after it, with the method's operands borrowed under the same names.
#[derive(Debug, Clone, Copy)]
pub enum Op<'a> {
    Linear {
        x: &'a Tensor,
        w: &'a Tensor,
        b: Option<&'a Tensor>,
    },
    Matmul {
        a: &'a Tensor,
        b: &'a Tensor,
    },
    MatmulNt {
        a: &'a Tensor,
        b: &'a Tensor,
    },
    Softmax {
        x: &'a Tensor,
    },
    Gelu {
        x: &'a Tensor,
    },
    LayerNorm {
        x: &'a Tensor,
        g: &'a Tensor,
        b: &'a Tensor,
    },
    Add {
        a: &'a Tensor,
        b: &'a Tensor,
    },
}

impl<'a> Op<'a> {
    /// The op in exact `f32`: the one definition the trait defaults and
    /// every compute backend's fallback share.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn eval(self) -> Result<Tensor> {
        Ok(match self {
            Op::Linear { x, w, b } => linalg::linear(x, w, b)?,
            Op::Matmul { a, b } => linalg::matmul(a, b)?,
            Op::MatmulNt { a, b } => linalg::matmul_nt(a, b)?,
            Op::Softmax { x } => nn::softmax(x)?,
            Op::Gelu { x } => nn::gelu_tensor(x),
            Op::LayerNorm { x, g, b } => nn::layer_norm(x, g, b, LAYER_NORM_EPS)?,
            Op::Add { a, b } => a.add(b)?,
        })
    }

    /// Calls the [`Backend`] method this op names on `be`.
    ///
    /// # Errors
    ///
    /// Whatever that method returns.
    pub fn run<B: Backend + ?Sized>(self, be: &mut B, site: OpSite) -> Result<Tensor> {
        match self {
            Op::Linear { x, w, b } => be.linear(site, x, w, b),
            Op::Matmul { a, b } => be.matmul(site, a, b),
            Op::MatmulNt { a, b } => be.matmul_nt(site, a, b),
            Op::Softmax { x } => be.softmax(site, x),
            Op::Gelu { x } => be.gelu(site, x),
            Op::LayerNorm { x, g, b } => be.layer_norm(site, x, g, b),
            Op::Add { a, b } => be.add(site, a, b),
        }
    }

    /// The first (or only) activation operand.
    pub fn input(&self) -> &'a Tensor {
        match *self {
            Op::Linear { x, .. } | Op::Softmax { x } | Op::Gelu { x } | Op::LayerNorm { x, .. } => {
                x
            }
            Op::Matmul { a, .. } | Op::MatmulNt { a, .. } | Op::Add { a, .. } => a,
        }
    }

    /// The second activation operand: a matmul's right-hand side, an
    /// addition's residual branch.
    pub fn input_b(&self) -> Option<&'a Tensor> {
        match *self {
            Op::Matmul { b, .. } | Op::MatmulNt { b, .. } | Op::Add { b, .. } => Some(b),
            Op::Linear { .. } | Op::Softmax { .. } | Op::Gelu { .. } | Op::LayerNorm { .. } => None,
        }
    }

    /// The weight operand.
    pub fn weight(&self) -> Option<&'a Tensor> {
        match *self {
            Op::Linear { w, .. } => Some(w),
            Op::Matmul { .. }
            | Op::MatmulNt { .. }
            | Op::Softmax { .. }
            | Op::Gelu { .. }
            | Op::LayerNorm { .. }
            | Op::Add { .. } => None,
        }
    }

    /// The same op over replacement operands, one per slot that
    /// [`Op::input`], [`Op::input_b`] and [`Op::weight`] read; a slot left
    /// `None`, or one the op lacks, keeps what it had.
    pub fn with_operands<'b>(
        self,
        x: &'b Tensor,
        x_b: Option<&'b Tensor>,
        w: Option<&'b Tensor>,
    ) -> Op<'b>
    where
        'a: 'b,
    {
        match self {
            Op::Linear { w: w0, b, .. } => Op::Linear {
                x,
                w: w.unwrap_or(w0),
                b,
            },
            Op::Matmul { b, .. } => Op::Matmul {
                a: x,
                b: x_b.unwrap_or(b),
            },
            Op::MatmulNt { b, .. } => Op::MatmulNt {
                a: x,
                b: x_b.unwrap_or(b),
            },
            Op::Softmax { .. } => Op::Softmax { x },
            Op::Gelu { .. } => Op::Gelu { x },
            Op::LayerNorm { g, b, .. } => Op::LayerNorm { x, g, b },
            Op::Add { b, .. } => Op::Add {
                a: x,
                b: x_b.unwrap_or(b),
            },
        }
    }

    /// Whether the op runs on the GEMM array.
    pub fn is_gemm(&self) -> bool {
        match self {
            Op::Linear { .. } | Op::Matmul { .. } | Op::MatmulNt { .. } => true,
            Op::Softmax { .. } | Op::Gelu { .. } | Op::LayerNorm { .. } | Op::Add { .. } => false,
        }
    }

    /// The op's span name: `op.` and the [`Backend`] method's name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Linear { .. } => "op.linear",
            Op::Matmul { .. } => "op.matmul",
            Op::MatmulNt { .. } => "op.matmul_nt",
            Op::Softmax { .. } => "op.softmax",
            Op::Gelu { .. } => "op.gelu",
            Op::LayerNorm { .. } => "op.layer_norm",
            Op::Add { .. } => "op.add",
        }
    }
}

/// Watches the ops a [`Tapped`] backend forwards: it sees each op before
/// the inner backend runs it and the output after, and changes neither.
pub trait Tap {
    /// What [`Tap::before`] hands [`Tap::after`] for one call (an open span,
    /// say). If the op fails, it is dropped without `after` seeing it.
    type Pending;

    /// Called before the inner backend runs `op` at `site`.
    fn before(&mut self, site: OpSite, op: &Op<'_>) -> Self::Pending;

    /// Called with the output once the inner backend has run the op.
    fn after(&mut self, site: OpSite, out: &Tensor, pending: Self::Pending) {
        let _ = (site, out, pending);
    }
}

/// A backend that runs every op on `inner`, exactly once, and shows it to
/// the tap `T` on the way.
#[derive(Debug, Clone)]
pub struct Tapped<B, T> {
    inner: B,
    tap: T,
}

impl<B: Backend, T: Tap> Tapped<B, T> {
    /// Runs `inner` with `tap` watching.
    pub fn new(inner: B, tap: T) -> Self {
        Self { inner, tap }
    }

    /// The tap.
    pub fn tap(&self) -> &T {
        &self.tap
    }

    /// The inner backend and the tap.
    pub fn into_parts(self) -> (B, T) {
        (self.inner, self.tap)
    }

    fn call(&mut self, site: OpSite, op: Op<'_>) -> Result<Tensor> {
        let pending = self.tap.before(site, &op);
        let out = op.run(&mut self.inner, site)?;
        self.tap.after(site, &out, pending);
        Ok(out)
    }
}

// Like the `&mut B` impl, this must name every trait method: a default left
// in place would run `Op::eval` and bypass `inner`.
impl<B: Backend, T: Tap> Backend for Tapped<B, T> {
    fn linear(
        &mut self,
        site: OpSite,
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
    ) -> Result<Tensor> {
        self.call(site, Op::Linear { x, w, b })
    }

    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.call(site, Op::Matmul { a, b })
    }

    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.call(site, Op::MatmulNt { a, b })
    }

    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        self.call(site, Op::Softmax { x })
    }

    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        self.call(site, Op::Gelu { x })
    }

    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.call(site, Op::LayerNorm { x, g, b })
    }

    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.call(site, Op::Add { a, b })
    }
}

/// The span tap: records every op as a per-site latency span on the global
/// [`quq_obs`] recorder, named by [`Op::name`] (`op.linear` at
/// `block3.Qkv`, `op.softmax` at `block0.Softmax`, and so on) — the
/// per-layer breakdown `quq-serve --metrics` and the `integer_inference`
/// example report.
///
/// While the recorder is disabled (the default) each op pays a single
/// relaxed atomic load. Because the recorder is process-global, the
/// per-worker backends of [`crate::evaluate_parallel`] all report into the
/// same registry without sharing any handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observed;

impl Tap for Observed {
    type Pending = quq_obs::Span;

    fn before(&mut self, site: OpSite, op: &Op<'_>) -> quq_obs::Span {
        quq_obs::span_at(op.name(), || site.into())
    }
}

/// Exact `f32` execution: every method is the trait default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fp32Backend;

impl Fp32Backend {
    /// Creates the floating-point reference backend.
    pub fn new() -> Self {
        Self
    }
}

impl Backend for Fp32Backend {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_backend_linear_matches_linalg() {
        let mut be = Fp32Backend::new();
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let y = be
            .linear(OpSite::global(OpKind::Head), &x, &w, None)
            .unwrap();
        assert_eq!(y.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn fp32_backend_rejects_bad_norm_params_and_passes_empty_rows() {
        let mut be = Fp32Backend::new();
        let site = OpSite::in_block(0, OpKind::Norm1);
        let x = Tensor::zeros(&[2, 4]);
        let err = be
            .layer_norm(site, &x, &Tensor::zeros(&[3]), &Tensor::zeros(&[4]))
            .unwrap_err();
        assert!(
            matches!(
                err,
                BackendError::Tensor(quq_tensor::TensorError::ShapeMismatch { .. })
            ),
            "{err:?}"
        );
        let empty = Tensor::zeros(&[2, 0]);
        let p = Tensor::zeros(&[0]);
        assert_eq!(
            be.layer_norm(site, &empty, &p, &p).unwrap().shape(),
            &[2, 0]
        );
        let softmax = OpSite::in_block(0, OpKind::Softmax);
        assert_eq!(be.softmax(softmax, &empty).unwrap().shape(), &[2, 0]);
    }

    #[test]
    fn observed_is_transparent_and_records_per_site_spans() {
        let mut observed = Tapped::new(Fp32Backend::new(), Observed);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let site = OpSite::in_block(7, OpKind::Fc1);
        let hist = quq_obs::histogram_at("op.linear", site.into());
        // Recorder off: bit-identical output, nothing recorded.
        let before = hist.count();
        let y = observed.linear(site, &x, &w, None).unwrap();
        let mut plain = Fp32Backend::new();
        assert_eq!(y.data(), plain.linear(site, &x, &w, None).unwrap().data());
        assert_eq!(hist.count(), before);
        // Recorder on: same output, one span at the call's site.
        quq_obs::set_enabled(true);
        let y2 = observed.linear(site, &x, &w, None).unwrap();
        quq_obs::set_enabled(false);
        assert_eq!(y2.data(), y.data());
        assert!(hist.count() > before, "linear span must be recorded");
    }

    #[test]
    fn op_site_converts_to_matching_obs_site_key() {
        let site = OpSite::in_block(3, OpKind::Qkv);
        let key: quq_obs::SiteKey = site.into();
        assert_eq!(key.label(), site.to_string());
        let head: quq_obs::SiteKey = OpSite::global(OpKind::Head).into();
        assert_eq!(head.label(), "Head");
    }

    #[test]
    fn op_kind_gemm_partition_matches_figure1() {
        // Green components (quantized under partial quantization).
        for k in [
            OpKind::Qkv,
            OpKind::QkMatmul,
            OpKind::PvMatmul,
            OpKind::Fc1,
            OpKind::Fc2,
            OpKind::Head,
        ] {
            assert!(k.is_gemm(), "{k} should be GEMM");
        }
        // Red components (untouched by partial quantization).
        for k in [
            OpKind::Softmax,
            OpKind::Gelu,
            OpKind::Norm1,
            OpKind::Residual1,
            OpKind::Residual2,
        ] {
            assert!(!k.is_gemm(), "{k} should not be GEMM");
        }
    }

    #[test]
    fn op_site_display_and_ordering() {
        let a = OpSite::in_block(0, OpKind::Qkv);
        let b = OpSite::in_block(1, OpKind::Qkv);
        assert!(a < b);
        assert_eq!(a.to_string(), "block0.Qkv");
        assert_eq!(OpSite::global(OpKind::Head).to_string(), "Head");
    }

    #[test]
    fn backend_error_display() {
        let e = BackendError::MissingParams(OpSite::global(OpKind::Head));
        assert!(e.to_string().contains("Head"));
        let t: BackendError = quq_tensor::TensorError::InvalidArgument("x".to_string()).into();
        assert!(t.to_string().contains("tensor error"));
    }
}
