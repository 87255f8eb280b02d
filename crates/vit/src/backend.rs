//! Execution backend abstraction.
//!
//! The model forward pass (see [`crate::model`]) is written once against the
//! [`Backend`] trait; quantization schemes intercept operations by wrapping or
//! replacing the floating-point implementation. Each call is tagged with an
//! [`OpSite`] naming the operation and its position, so a PTQ pipeline can
//! attach per-tensor quantization parameters to every edge in the paper's
//! Fig. 1 data-flow graph.

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

/// Execution backend for the ViT forward pass.
///
/// The default methods implement exact `f32` inference; implementors override
/// whichever operations their scheme intercepts. All methods take `&mut self`
/// so backends can record calibration data or count operations.
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
        Ok(linalg::linear(x, w, b)?)
    }

    /// Matrix product `A[m,k]·B[k,n]` (used for `P·V`).
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _ = site;
        Ok(linalg::matmul(a, b)?)
    }

    /// Matrix product `A[m,k]·B[n,k]ᵀ` (used for `Q·Kᵀ`).
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _ = site;
        Ok(linalg::matmul_nt(a, b)?)
    }

    /// Softmax over the last axis.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        let _ = site;
        Ok(nn::softmax(x)?)
    }

    /// GELU activation.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        let _ = site;
        Ok(nn::gelu_tensor(x))
    }

    /// LayerNorm over the last axis.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _ = site;
        Ok(nn::layer_norm(x, g, b, 1e-6)?)
    }

    /// Residual (elementwise) addition.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _ = site;
        Ok(a.add(b)?)
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

/// Wraps any backend and records every operation as a per-site latency span
/// on the global [`quq_obs`] recorder: `op.linear` at `block3.Qkv`,
/// `op.softmax` at `block0.Softmax`, and so on — the per-layer breakdown
/// `quq-serve --metrics` and the `integer_inference` example report.
///
/// The wrapper only *times* calls; inputs and outputs pass through the inner
/// backend untouched, so results are bit-identical wrapped or not, recorder
/// on or off. While the recorder is disabled (the default) each call pays a
/// single relaxed atomic load. Because the recorder is process-global, the
/// per-worker backends of [`crate::evaluate_parallel`] all report into the
/// same registry without sharing any handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observed<B> {
    inner: B,
}

impl<B: Backend> Observed<B> {
    /// Wraps `inner` so every operation records a per-site span.
    pub fn new(inner: B) -> Self {
        Self { inner }
    }

    /// Returns the wrapped backend.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: Backend> Backend for Observed<B> {
    fn linear(
        &mut self,
        site: OpSite,
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
    ) -> Result<Tensor> {
        let _span = quq_obs::span_at("op.linear", || site.into());
        self.inner.linear(site, x, w, b)
    }

    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _span = quq_obs::span_at("op.matmul", || site.into());
        self.inner.matmul(site, a, b)
    }

    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _span = quq_obs::span_at("op.matmul_nt", || site.into());
        self.inner.matmul_nt(site, a, b)
    }

    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        let _span = quq_obs::span_at("op.softmax", || site.into());
        self.inner.softmax(site, x)
    }

    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        let _span = quq_obs::span_at("op.gelu", || site.into());
        self.inner.gelu(site, x)
    }

    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _span = quq_obs::span_at("op.layer_norm", || site.into());
        self.inner.layer_norm(site, x, g, b)
    }

    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let _span = quq_obs::span_at("op.add", || site.into());
        self.inner.add(site, a, b)
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
        let mut observed = Observed::new(Fp32Backend::new());
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
