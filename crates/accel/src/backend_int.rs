//! Fully integer execution backend: the deployment path of the paper.
//!
//! [`IntegerBackend`] executes a calibrated QUQ model the way the QUA +
//! SFUs would. A GEMM's activation operands are quantized straight to the
//! integers the decoding units feed the PE array, `D << n_sh` (Eq. 6/7),
//! and multiplied on the integer dot-product path (Eq. 5); the rescale by
//! `Δ_a·Δ_b` (and the bias) is the GEMM tile's epilogue, the software
//! place of the quantization unit on the array's output. Softmax, GELU and
//! LayerNorm inputs are encoded to QUB bytes and read through the SFU load
//! path (`d = D << n_sh`) by the integer-only kernels of
//! [`crate::intfunc`]. Floating point appears only at operation boundaries
//! to carry scales between sites — in hardware these are the precomputed
//! `M/2^N` requantization constants of Eq. 2.
//!
//! Differential expectation (tested in the integration suite): logits agree
//! closely with the fake-quantization [`quq_core::QuantBackend`] path, and
//! top-1 predictions agree with FP32 at the same rate.

use crate::intfunc::{self, Codes};
use quq_core::calib::{Operand, ParamKey};
use quq_core::pipeline::PtqTables;
use quq_core::qub::{preshift_lut, QubCodec, QubTensor};
use quq_core::scheme::QuqParams;
use quq_tensor::linalg::{self, isa, PackedB};
use quq_tensor::{IntTensor, Tensor, TensorError};
use quq_vit::backend::{Backend, BackendError, Op, OpKind, OpSite, Result};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared per-model cache of what the integer backend derives from the
/// calibrated tables: the QUB-encoded weights and the activation
/// quantizers.
///
/// Without it, every image re-encodes every layer weight from FP32 *and*
/// re-decodes it inside every GEMM, and every op call rebuilds its
/// quantizer's FC registers, encode plan and byte tables. With it, each
/// weight site is encoded once, its packed GEMM panel is built once
/// ([`QubTensor::preshifted`]), each activation operand's quantizer is
/// resolved once per `(site, operand)`, and every subsequent image reuses
/// them — the software analogue of weights and FC registers living
/// on-chip in the paper's accelerator. Clone the [`Arc`] into each
/// worker's backend to share the cache across parallel evaluation.
#[derive(Debug, Default)]
pub struct WeightQubCache {
    entries: Mutex<BTreeMap<OpSite, Arc<QubTensor>>>,
    activations: Mutex<BTreeMap<ParamKey, Arc<ActQuant>>>,
}

/// Recovers a cache lock even if a panicking thread poisoned it: every map
/// entry is inserted fully formed, so the cache is always consistent.
fn lock<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

impl WeightQubCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of weight sites encoded so far.
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether no site has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-populates a cache from a stored artifact's QUB records, skipping
    /// the per-site encode entirely — the cold-start path. Each record is
    /// checksum-verified (once) by the store as it is read; on an mmap-backed
    /// artifact the QUB wire bytes are parsed straight out of the mapped
    /// pages with no intermediate copy, and compressed records decode lazily
    /// on this first touch. The packed GEMM panel is built here, in one pass
    /// from the code bytes, so the first inference pays no decode cost.
    pub fn from_artifact(
        artifact: &quq_store::Artifact,
    ) -> std::result::Result<Self, quq_store::StoreError> {
        let cache = Self::new();
        {
            let mut entries = lock(&cache.entries);
            for site in artifact.qub_sites() {
                let qub = artifact.load_qub(site)?;
                qub.preshifted();
                entries.insert(site, Arc::new(qub));
            }
        }
        Ok(cache)
    }

    /// Returns the encoded weight for `site`, encoding (and packing its
    /// GEMM panel) on first use. The lock is held across the encode
    /// so concurrent workers never duplicate the work.
    fn get_or_encode(&self, site: OpSite, params: QuqParams, w: &Tensor) -> Arc<QubTensor> {
        let mut entries = lock(&self.entries);
        if let Some(hit) = entries.get(&site) {
            quq_obs::add("cache.weight_qub.hit", 1);
            return Arc::clone(hit);
        }
        quq_obs::add("cache.weight_qub.miss", 1);
        let qw = QubCodec::new(params).encode_tensor(w);
        qw.preshifted();
        let qw = Arc::new(qw);
        entries.insert(site, Arc::clone(&qw));
        qw
    }

    /// Returns the quantizer of the activation operand `key`, building it
    /// with `build` on first use (under the lock, like the weights).
    fn activation(
        &self,
        key: ParamKey,
        build: impl FnOnce() -> Result<ActQuant>,
    ) -> Result<Arc<ActQuant>> {
        let mut activations = lock(&self.activations);
        if let Some(hit) = activations.get(&key) {
            return Ok(Arc::clone(hit));
        }
        let built = Arc::new(build()?);
        activations.insert(key, Arc::clone(&built));
        Ok(built)
    }
}

/// One activation operand's quantizer: its codec (FC registers and encode
/// plan) and the tables its op reads code bytes through, indexed by byte
/// (256 entries, so no bounds check; bytes at or above `2^b` never leave
/// the encoder).
#[derive(Debug)]
struct ActQuant {
    codec: QubCodec,
    /// `D << n_sh` (Eq. 6/7): the SFU load path of Softmax and LayerNorm,
    /// what [`crate::sim::Qua::sfu_load`] produces per element.
    ints: [i32; 256],
    /// An `f32` per byte: GELU's output at a GELU site (the SFU's answer
    /// for every code), the dequantized value elsewhere (the adder's
    /// operand).
    floats: [f32; 256],
}

impl ActQuant {
    fn new(kind: OpKind, params: QuqParams) -> Self {
        let codec = QubCodec::new(params);
        let lut = preshift_lut(codec.fc(), params.bits());
        let ints = lut.iter().map(|&v| i32::from(v)).collect();
        let codes = IntTensor::from_vec(ints, &[lut.len()]).expect("sized");
        let scale = codec.base_delta();
        let floats = match kind {
            OpKind::Gelu => intfunc::i_gelu(&codes, scale).to_f32(scale),
            _ => codes.to_f32(scale),
        };
        Self {
            codec,
            ints: by_byte(codes.data()),
            floats: by_byte(floats.data()),
        }
    }

    /// `A·Bᵀ · Δ_a·Δ_b (+ bias)` for `x` as `A[m, k]`: `x` is quantized
    /// straight to operands, and the rescale is the GEMM tile's epilogue.
    fn gemm(
        &self,
        x: &[f32],
        m: usize,
        b: &PackedB,
        b_delta: f32,
        bias: Option<&Tensor>,
    ) -> Vec<f32> {
        let a = self.codec.encode_preshifted(x);
        let scale = self.codec.base_delta() * b_delta;
        linalg::i16_matmul_nt_scaled(&a, m, b, scale, bias.map(Tensor::data))
    }
}

/// A per-code table padded to 256 entries.
fn by_byte<T: Copy + Default>(per_code: &[T]) -> [T; 256] {
    let mut table = [T::default(); 256];
    table[..per_code.len()].copy_from_slice(per_code);
    table
}

/// Integer-only execution over calibrated QUQ tables.
///
/// Construction fails at first use (with [`BackendError::MissingParams`])
/// when the tables were calibrated with a non-QUQ method, since only QUQ
/// fits carry the structured parameters the integer paths need.
#[derive(Debug)]
pub struct IntegerBackend<'a> {
    tables: &'a PtqTables,
    weights: Arc<WeightQubCache>,
}

impl<'a> IntegerBackend<'a> {
    /// Wraps calibrated tables with a private cache.
    pub fn new(tables: &'a PtqTables) -> Self {
        Self::with_cache(tables, Arc::new(WeightQubCache::new()))
    }

    /// Wraps calibrated tables sharing `weights` with other backends (e.g.
    /// one backend per evaluation worker over one model's weights).
    pub fn with_cache(tables: &'a PtqTables, weights: Arc<WeightQubCache>) -> Self {
        Self { tables, weights }
    }

    /// A handle to the cache (for sharing with further backends).
    pub fn weight_cache(&self) -> Arc<WeightQubCache> {
        Arc::clone(&self.weights)
    }

    /// Whether `site` runs quantized; the rest run [`Op::eval`].
    fn covers(&self, site: OpSite) -> bool {
        self.tables.config().coverage.covers(site.kind)
    }

    fn act_params(&self, site: OpSite, operand: Operand) -> Result<QuqParams> {
        let key = ParamKey { site, operand };
        self.tables
            .activation(&key)
            .and_then(|q| q.quq_params().copied())
            .ok_or(BackendError::MissingParams(site))
    }

    fn weight_params(&self, site: OpSite) -> Result<QuqParams> {
        self.tables
            .weight_quantizer(&site)
            .and_then(|q| q.quq_params().copied())
            .ok_or(BackendError::MissingParams(site))
    }

    /// The quantizer calibrated for an activation operand, from the cache.
    fn quant(&self, site: OpSite, operand: Operand) -> Result<Arc<ActQuant>> {
        self.weights.activation(ParamKey { site, operand }, || {
            Ok(ActQuant::new(site.kind, self.act_params(site, operand)?))
        })
    }
}

/// LayerNorm's output scale, sized so ±4·max|γ| + max|β| fits an
/// 8-bit-ish range.
fn layer_norm_out_scale(g: &Tensor, b: &Tensor) -> f32 {
    let max_abs = |t: &Tensor| t.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    ((4.0 * max_abs(g) + max_abs(b)) / 127.0).max(1e-6)
}

impl Backend for IntegerBackend<'_> {
    fn linear(
        &mut self,
        site: OpSite,
        x: &Tensor,
        w: &Tensor,
        bias: Option<&Tensor>,
    ) -> Result<Tensor> {
        if !self.covers(site) {
            return Op::Linear { x, w, b: bias }.eval();
        }
        // Shapes `linalg::linear` rejects, rejected alike before any encode.
        // Leading axes flatten: only the shape tag changes.
        let (rows, _, n) = linalg::linear_dims(x, w, bias)?;
        let w_params = self.weight_params(site)?;
        let act = self.quant(site, Operand::Input)?;
        // Weights recur image after image: encode + pack once.
        let qw = self.weights.get_or_encode(site, w_params, w);
        let y = act.gemm(x.data(), rows, &qw.preshifted(), qw.base_delta, bias);
        let mut shape = x.shape().to_vec();
        *shape.last_mut().expect("rank >= 1") = n;
        Ok(Tensor::from_vec(y, &shape)?)
    }

    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.covers(site) {
            return Op::Matmul { a, b }.eval();
        }
        let (m, k, n) = linalg::matmul_dims(a.shape(), b.shape())?;
        let (qa, qb) = (
            self.quant(site, Operand::Input)?,
            self.quant(site, Operand::InputB)?,
        );
        // A[m,k]·B[k,n] = A·(Bᵀ)ᵀ: the NT kernel's panel of Bᵀ is packed
        // from `b`'s own layout.
        let bt = qb.codec.encode_panel_transposed(b.data(), k, n);
        let y = qa.gemm(a.data(), m, &bt, qb.codec.base_delta(), None);
        Ok(Tensor::from_vec(y, &[m, n])?)
    }

    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.covers(site) {
            return Op::MatmulNt { a, b }.eval();
        }
        let (m, k, n) = linalg::matmul_nt_dims(a.shape(), b.shape())?;
        let (qa, qb) = (
            self.quant(site, Operand::Input)?,
            self.quant(site, Operand::InputB)?,
        );
        let panel = qb.codec.encode_panel(b.data(), n, k);
        let y = qa.gemm(a.data(), m, &panel, qb.codec.base_delta(), None);
        Ok(Tensor::from_vec(y, &[m, n])?)
    }

    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        if !self.covers(site) {
            return Op::Softmax { x }.eval();
        }
        let (_, cols) = x.as_matrix()?;
        let q = self.quant(site, Operand::Input)?;
        let bytes = q.codec.encode_tensor(x).bytes;
        let src = Codes::Bytes(&bytes, &q.ints);
        let probs = intfunc::softmax_rows(isa::resolve(), src, cols, q.codec.base_delta());
        Ok(Tensor::from_vec(probs, x.shape())?)
    }

    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        if !self.covers(site) {
            return Op::Gelu { x }.eval();
        }
        let q = self.quant(site, Operand::Input)?;
        let bytes = q.codec.encode_tensor(x).bytes;
        // The SFU's answer for every code, then one lookup per element.
        let table = q.floats;
        let data = bytes.iter().map(|&b| table[b as usize]).collect();
        Ok(Tensor::from_vec(data, x.shape())?)
    }

    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.covers(site) {
            return Op::LayerNorm { x, g, b }.eval();
        }
        let cols = quq_tensor::nn::layer_norm_width(x, g, b)?;
        let q = self.quant(site, Operand::Input)?;
        let bytes = q.codec.encode_tensor(x).bytes;
        let src = Codes::Bytes(&bytes, &q.ints);
        let out_scale = layer_norm_out_scale(g, b);
        let y = intfunc::layer_norm_rows(isa::resolve(), src, cols, g, b, out_scale);
        Ok(Tensor::from_vec(y, x.shape())?)
    }

    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.covers(site) {
            return Op::Add { a, b }.eval();
        }
        if a.shape() != b.shape() {
            return Err(BackendError::from(TensorError::ShapeMismatch {
                lhs: a.shape().to_vec(),
                rhs: b.shape().to_vec(),
            }));
        }
        let (qa, qb) = (
            self.quant(site, Operand::Input)?,
            self.quant(site, Operand::InputB)?,
        );
        // The SFU adder sums the two decoded integer streams after scale
        // alignment; numerically this equals adding the dequantized values,
        // and each operand has only 2^b of those.
        let (pa, pb) = (
            qa.codec.encode_tensor(a).bytes,
            qb.codec.encode_tensor(b).bytes,
        );
        let (ta, tb) = (qa.floats, qb.floats);
        let data = pa
            .iter()
            .zip(&pb)
            .map(|(&p, &q)| ta[p as usize] + tb[q as usize])
            .collect();
        Ok(Tensor::from_vec(data, a.shape())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quq_core::dot;
    use quq_core::pipeline::{calibrate, PtqConfig};
    use quq_core::QuqMethod;
    use quq_vit::{Dataset, ModelConfig, Tap, Tapped, VitModel};

    fn setup(cfg: PtqConfig) -> (VitModel, PtqTables, Dataset) {
        let model = VitModel::synthesize(ModelConfig::test_config(), 33);
        let calib = Dataset::calibration(model.config(), 4, 1);
        let tables = calibrate(&QuqMethod::without_optimization(), &model, &calib, cfg).unwrap();
        let eval = Dataset::teacher_labeled(&model, 12, 2).unwrap();
        (model, tables, eval)
    }

    /// The composition every op had before the code tables, the fused
    /// passes and the row bodies: encode → `decode_scaled` → the
    /// per-element integer kernel ([`intfunc::oracle`]) over the whole
    /// tensor → `to_f32`, an f32 transpose before `matmul`'s encode, and a
    /// separate rescale, bias and reshape after each GEMM. The ops above
    /// must reproduce it bit for bit.
    struct Reference<'a>(IntegerBackend<'a>);

    impl Reference<'_> {
        fn sfu_quantize(
            &self,
            site: OpSite,
            operand: Operand,
            x: &Tensor,
        ) -> Result<(IntTensor, f32)> {
            let qt = QubCodec::new(self.0.act_params(site, operand)?).encode_tensor(x);
            Ok((qt.decode_scaled(), qt.base_delta))
        }

        fn int_matmul_nt_qub(qa: &QubTensor, qb: &QubTensor) -> Result<Tensor> {
            let accs = dot::matmul_nt_qub(qa, qb);
            let scale = qa.base_delta * qb.base_delta;
            let data: Vec<f32> = accs.into_iter().map(|v| v as f32 * scale).collect();
            Tensor::from_vec(data, &[qa.shape[0], qb.shape[0]]).map_err(BackendError::from)
        }

        fn int_matmul_nt(&self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
            let qa = QubCodec::new(self.0.act_params(site, Operand::Input)?).encode_tensor(a);
            let qb = QubCodec::new(self.0.act_params(site, Operand::InputB)?).encode_tensor(b);
            Self::int_matmul_nt_qub(&qa, &qb)
        }
    }

    impl Backend for Reference<'_> {
        fn linear(
            &mut self,
            site: OpSite,
            x: &Tensor,
            w: &Tensor,
            bias: Option<&Tensor>,
        ) -> Result<Tensor> {
            let a_params = self.0.act_params(site, Operand::Input)?;
            let w_params = self.0.weight_params(site)?;
            let (rows, cols) = x.as_matrix().map_err(BackendError::from)?;
            let x2 = x.reshape(&[rows, cols]).map_err(BackendError::from)?;
            let qw = self.0.weights.get_or_encode(site, w_params, w);
            let qa = QubCodec::new(a_params).encode_tensor(&x2);
            let y = Self::int_matmul_nt_qub(&qa, &qw)?;
            let y = match bias {
                Some(b) => y.add_bias(b).map_err(BackendError::from)?,
                None => y,
            };
            let mut shape = x.shape().to_vec();
            *shape.last_mut().expect("rank >= 1") = w.shape()[0];
            y.into_reshape(&shape).map_err(BackendError::from)
        }

        fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
            let bt = b.transpose().map_err(BackendError::from)?;
            self.int_matmul_nt(site, a, &bt)
        }

        fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
            self.int_matmul_nt(site, a, b)
        }

        fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
            let (rows, cols) = x.as_matrix().map_err(BackendError::from)?;
            let (ints, scale) = self.sfu_quantize(site, Operand::Input, x)?;
            let ints = ints.reshape(&[rows, cols]).map_err(BackendError::from)?;
            let out = intfunc::oracle::i_softmax(&ints, scale).to_f32(1.0 / intfunc::ONE as f32);
            out.into_reshape(x.shape()).map_err(BackendError::from)
        }

        fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
            let (ints, scale) = self.sfu_quantize(site, Operand::Input, x)?;
            Ok(intfunc::i_gelu(&ints, scale).to_f32(scale))
        }

        fn layer_norm(
            &mut self,
            site: OpSite,
            x: &Tensor,
            g: &Tensor,
            b: &Tensor,
        ) -> Result<Tensor> {
            let (ints, _scale) = self.sfu_quantize(site, Operand::Input, x)?;
            let out_scale = layer_norm_out_scale(g, b);
            Ok(intfunc::oracle::i_layer_norm(&ints, g, b, out_scale).to_f32(out_scale))
        }

        fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
            let (ia, sa) = self.sfu_quantize(site, Operand::Input, a)?;
            let (ib, sb) = self.sfu_quantize(site, Operand::InputB, b)?;
            ia.to_f32(sa)
                .add(&ib.to_f32(sb))
                .map_err(BackendError::from)
        }
    }

    /// Runs every op the inner backend runs on `reference` too, and
    /// insists on the same bits.
    struct Lockstep<R> {
        reference: R,
        compared: usize,
    }

    impl<R: Backend> Tap for Lockstep<R> {
        type Pending = Tensor;

        fn before(&mut self, site: OpSite, op: &Op<'_>) -> Tensor {
            op.run(&mut self.reference, site).expect("reference op")
        }

        fn after(&mut self, site: OpSite, got: &Tensor, want: Tensor) {
            assert_eq!(got.shape(), want.shape(), "{site}: shape");
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "{site}: bits");
            self.compared += 1;
        }
    }

    /// The integer backend in lockstep with [`Reference`].
    fn lockstep(tables: &PtqTables) -> Tapped<IntegerBackend<'_>, Lockstep<Reference<'_>>> {
        let reference = Reference(IntegerBackend::new(tables));
        Tapped::new(
            IntegerBackend::new(tables),
            Lockstep {
                reference,
                compared: 0,
            },
        )
    }

    /// Counts the calls that reach it.
    #[derive(Default)]
    struct Calls(usize);

    impl Tap for Calls {
        type Pending = ();

        fn before(&mut self, _: OpSite, _: &Op<'_>) {
            self.0 += 1;
        }
    }

    /// Each op, on its own, through each tap over a counting fp32 backend:
    /// the inner backend runs it exactly once, the output has the bits of
    /// [`Op::eval`], and the tap saw what it watches.
    #[test]
    fn every_op_runs_once_through_every_tap() {
        use quq_core::calib::{Collector, Coverage};
        use quq_vit::{Capture, Fp32Backend, Observed, TapPoint, TapSide};

        let t = |shape: &[usize], seed: f32| {
            let len = shape.iter().product::<usize>();
            let data = (0..len).map(|i| ((i as f32 + seed) * 0.37).sin()).collect();
            Tensor::from_vec(data, shape).unwrap()
        };
        let (x, y, w, bias) = (
            t(&[3, 4], 0.0),
            t(&[3, 4], 1.0),
            t(&[5, 4], 2.0),
            t(&[5], 3.0),
        );
        let (rhs, g, beta) = (t(&[4, 2], 4.0), t(&[4], 5.0), t(&[4], 6.0));
        let ops = [
            (
                OpKind::Qkv,
                Op::Linear {
                    x: &x,
                    w: &w,
                    b: Some(&bias),
                },
            ),
            (OpKind::PvMatmul, Op::Matmul { a: &x, b: &rhs }),
            (OpKind::QkMatmul, Op::MatmulNt { a: &x, b: &y }),
            (OpKind::Softmax, Op::Softmax { x: &x }),
            (OpKind::Gelu, Op::Gelu { x: &x }),
            (
                OpKind::Norm1,
                Op::LayerNorm {
                    x: &x,
                    g: &g,
                    b: &beta,
                },
            ),
            (OpKind::Residual1, Op::Add { a: &x, b: &y }),
        ];
        // A fresh tap per op; returns each with the op's output.
        fn run<T: Tap>(ops: &[(OpKind, Op<'_>)], mk: impl Fn() -> T) -> Vec<(T, Tensor)> {
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut seen = Vec::new();
            for &(kind, op) in ops {
                let site = OpSite::in_block(0, kind);
                let mut be = Tapped::new(Tapped::new(Fp32Backend::new(), Calls::default()), mk());
                let out = op.run(&mut be, site).unwrap();
                let (inner, tap) = be.into_parts();
                assert_eq!(inner.tap().0, 1, "{}: inner calls", op.name());
                assert_eq!(bits(&out), bits(&op.eval().unwrap()), "{}", op.name());
                seen.push((tap, out));
            }
            seen
        }

        run(&ops, || Observed);
        let every = |side| ops.map(|(kind, _)| TapPoint { kind, side });
        let points = [
            every(TapSide::Input),
            every(TapSide::InputB),
            every(TapSide::Output),
        ];
        let captured = run(&ops, || Capture::new(points.concat()));
        for ((kind, op), (cap, out)) in ops.iter().zip(&captured) {
            let got = |side| cap.samples_for(*kind, side);
            assert_eq!(got(TapSide::Input), op.input().data());
            assert_eq!(
                got(TapSide::InputB),
                op.input_b().map_or(&[][..], Tensor::data)
            );
            assert_eq!(got(TapSide::Output), out.data());
        }
        let collected = run(&ops, || Collector::new(Coverage::Full));
        for ((_, op), (c, _)) in ops.iter().zip(&collected) {
            let operands = 1 + usize::from(op.input_b().is_some());
            assert_eq!(c.samples().len(), operands, "{}", op.name());
        }
        let counted = run(&ops, Calls::default);
        assert!(counted.iter().all(|(calls, _)| calls.0 == 1));
        let compared = run(&ops, || Lockstep {
            reference: Fp32Backend::new(),
            compared: 0,
        });
        assert!(compared.iter().all(|(lockstep, _)| lockstep.compared == 1));
    }

    /// Activations of a real forward, solo and batched, at both presets
    /// (whose fits land on different layouts per site): every op call of
    /// every site is checked against the reference on the tensors the model
    /// actually produces.
    #[test]
    fn every_op_matches_the_reference_on_a_real_forward() {
        for cfg in [PtqConfig::full_w6a6(), PtqConfig::full_w8a8()] {
            let (model, tables, eval) = setup(cfg);
            let images = &eval.images[..2];
            let mut both = lockstep(&tables);
            model.forward(&images[0], &mut both).unwrap();
            let per_forward = both.tap().compared;
            assert!(per_forward > 20, "only {per_forward} ops compared");
            model.forward_batch(images, &mut both).unwrap();
            assert!(
                both.tap().compared > 2 * per_forward,
                "attention runs per image"
            );
        }
    }

    /// Random tensors the model never produces: leading axes to flatten,
    /// values far outside the calibrated range, NaN and ±∞ in every
    /// operand, with and without a bias.
    #[test]
    fn every_op_matches_the_reference_on_random_tensors() {
        use quq_tensor::rng::standard_normal;
        use quq_vit::OpKind;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (model, tables, _) = setup(PtqConfig::full_w6a6());
        let block = &model.weights().stages[0].blocks[0];
        let dim = block.embed_dim;
        let mut rng = StdRng::seed_from_u64(17);
        let mut random = |shape: &[usize], spread: f32| {
            let len: usize = shape.iter().product();
            let mut data: Vec<f32> = (0..len)
                .map(|i| {
                    standard_normal(&mut rng) * if i % 13 == 0 { 40.0 * spread } else { spread }
                })
                .collect();
            let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
            for (i, special) in specials.into_iter().enumerate().take(len) {
                data[(i * 7 + 3) % len] = special;
            }
            Tensor::from_vec(data, shape).unwrap()
        };
        let mut both = lockstep(&tables);
        let site = |kind| OpSite::in_block(0, kind);
        for spread in [0.05f32, 1.0, 30.0] {
            let x = random(&[2, 3, dim], spread);
            let y = random(&[2, 3, dim], spread);
            both.linear(site(OpKind::Qkv), &x, &block.qkv_w, Some(&block.qkv_b))
                .unwrap();
            both.linear(site(OpKind::AttnProj), &x, &block.proj_w, None)
                .unwrap();
            both.layer_norm(site(OpKind::Norm1), &x, &block.ln1_g, &block.ln1_b)
                .unwrap();
            both.add(site(OpKind::Residual1), &x, &y).unwrap();
            both.gelu(site(OpKind::Gelu), &random(&[2, 3, 11], spread))
                .unwrap();
            both.softmax(site(OpKind::Softmax), &random(&[2, 3, 7], spread))
                .unwrap();
            // `m = 1` (the head), odd `k`, `n` around one 16-column block,
            // and empty sides: no rows, no columns, no depth.
            let shapes = [(5, 9, 4), (1, 17, 16), (3, 33, 15), (4, 8, 17)];
            for (m, k, n) in shapes.into_iter().chain([(0, 9, 4), (5, 9, 0), (5, 0, 4)]) {
                both.matmul_nt(
                    site(OpKind::QkMatmul),
                    &random(&[m, k], spread),
                    &random(&[n, k], spread),
                )
                .unwrap();
                both.matmul(
                    site(OpKind::PvMatmul),
                    &random(&[m, k], spread),
                    &random(&[k, n], spread),
                )
                .unwrap();
            }
        }
        assert_eq!(both.tap().compared, 3 * 20);
    }

    #[test]
    fn integer_backend_rejects_bad_norm_params_and_passes_empty_rows() {
        let (model, tables, _) = setup(PtqConfig::full_w6a6());
        let block = &model.weights().stages[0].blocks[0];
        let dim = block.embed_dim;
        let site = OpSite::in_block(0, quq_vit::OpKind::Norm1);
        let mut be = IntegerBackend::new(&tables);
        let x = Tensor::zeros(&[2, dim]);
        let short = Tensor::zeros(&[dim - 1]);
        for (g, b) in [(&short, &block.ln1_b), (&block.ln1_g, &short)] {
            let err = be.layer_norm(site, &x, g, b).unwrap_err();
            assert!(
                matches!(err, BackendError::Tensor(TensorError::ShapeMismatch { .. })),
                "{err:?}"
            );
        }
        let empty = Tensor::zeros(&[2, 0]);
        let p = Tensor::zeros(&[0]);
        assert_eq!(
            be.layer_norm(site, &empty, &p, &p).unwrap().shape(),
            &[2, 0]
        );
        let softmax = OpSite::in_block(0, quq_vit::OpKind::Softmax);
        assert_eq!(be.softmax(softmax, &empty).unwrap().shape(), &[2, 0]);
    }

    #[test]
    fn integer_backend_runs_full_quantization() {
        let (model, tables, _) = setup(PtqConfig::full_w8a8());
        let img = model.config().dummy_image(0.3);
        let mut be = IntegerBackend::new(&tables);
        let logits = model.forward(&img, &mut be).unwrap();
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn integer_logits_track_fake_quant_logits() {
        let (model, tables, _) = setup(PtqConfig::full_w8a8());
        let img = model.config().dummy_image(-0.2);
        let mut int_be = IntegerBackend::new(&tables);
        let int_logits = model.forward(&img, &mut int_be).unwrap();
        let mut fq_be = tables.backend();
        let fq_logits = model.forward(&img, &mut fq_be).unwrap();
        let cos = quq_tensor::stats::cosine_similarity(&int_logits, &fq_logits).unwrap();
        assert!(cos > 0.95, "cosine {cos}");
    }

    #[test]
    fn integer_backend_preserves_accuracy_at_8_bit() {
        let (model, tables, eval) = setup(PtqConfig::full_w8a8());
        let mut be = IntegerBackend::new(&tables);
        let acc = quq_vit::evaluate(&model, &mut be, &eval).unwrap();
        assert!(acc >= 0.7, "integer-path agreement {acc}");
    }

    #[test]
    fn weight_cache_fills_once_and_is_shareable() {
        let (model, tables, _) = setup(PtqConfig::full_w8a8());
        let cache = Arc::new(WeightQubCache::new());
        assert!(cache.is_empty());
        let img = model.config().dummy_image(0.3);
        let mut be = IntegerBackend::with_cache(&tables, Arc::clone(&cache));
        let first = model.forward(&img, &mut be).unwrap();
        let filled = cache.len();
        assert!(filled > 0, "forward must populate the weight cache");
        // A second backend sharing the cache reuses every entry and
        // produces bit-identical logits.
        let mut be2 = IntegerBackend::with_cache(&tables, be.weight_cache());
        let second = model.forward(&img, &mut be2).unwrap();
        assert_eq!(first.data(), second.data());
        assert_eq!(cache.len(), filled, "no re-encoding on reuse");
    }

    #[test]
    fn cached_and_fresh_backends_agree_bitwise() {
        let (model, tables, _) = setup(PtqConfig::full_w8a8());
        let img = model.config().dummy_image(-0.1);
        let mut fresh = IntegerBackend::new(&tables);
        let mut again = IntegerBackend::new(&tables);
        let a = model.forward(&img, &mut fresh).unwrap();
        let b = model.forward(&img, &mut again).unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn non_quq_tables_are_rejected() {
        // A method whose fits are plain uniform quantizers: no QuqParams,
        // so the integer path must refuse with MissingParams.
        #[derive(Debug)]
        struct UniformOnly;
        impl quq_core::quantizer::QuantMethod for UniformOnly {
            fn name(&self) -> &'static str {
                "uniform-only"
            }
            fn fit_activation(
                &self,
                samples: &[f32],
                bits: u32,
            ) -> Box<dyn quq_core::FittedQuantizer> {
                Box::new(quq_core::UniformQuantizer::fit_min_max(bits, samples))
            }
        }
        let model = VitModel::synthesize(ModelConfig::test_config(), 33);
        let calib = Dataset::calibration(model.config(), 2, 1);
        let tables = calibrate(&UniformOnly, &model, &calib, PtqConfig::full_w8a8()).unwrap();
        let mut be = IntegerBackend::new(&tables);
        let err = model
            .forward(&model.config().dummy_image(0.1), &mut be)
            .unwrap_err();
        assert!(matches!(err, BackendError::MissingParams(_)), "{err:?}");
    }
}
