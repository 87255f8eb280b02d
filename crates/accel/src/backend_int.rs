//! Fully integer execution backend: the deployment path of the paper.
//!
//! [`IntegerBackend`] executes a calibrated QUQ model the way the QUA +
//! SFUs would: GEMM operands are encoded as QUBs and multiplied on the
//! integer dot-product path (Eq. 5); Softmax/GELU/LayerNorm inputs take the
//! SFU load path (`d = D << n_sh`) and are evaluated by the integer-only
//! kernels of [`crate::intfunc`]. Floating point appears only at operation
//! boundaries to carry scales between sites — in hardware these are the
//! precomputed `M/2^N` requantization constants of Eq. 2.
//!
//! Differential expectation (tested in the integration suite): logits agree
//! closely with the fake-quantization [`quq_core::QuantBackend`] path, and
//! top-1 predictions agree with FP32 at the same rate.

use crate::intfunc;
use quq_core::calib::{Coverage, Operand, ParamKey};
use quq_core::dot;
use quq_core::pipeline::PtqTables;
use quq_core::qub::{preshift_lut, QubCodec, QubTensor};
use quq_core::scheme::QuqParams;
use quq_tensor::{linalg, IntTensor, Tensor, TensorError};
use quq_vit::backend::{Backend, BackendError, OpSite, Result};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared per-site cache of QUB-encoded weights.
///
/// Without it, every image re-encodes every layer weight from FP32 *and*
/// re-decodes it inside every GEMM. With it, each weight site is encoded
/// once, its packed GEMM panel is built once ([`QubTensor::preshifted`]),
/// and every subsequent image reuses both —
/// the software analogue of weights living on-chip in the paper's
/// accelerator. Clone the [`Arc`] into each worker's backend to share the
/// cache across parallel evaluation.
#[derive(Debug, Default)]
pub struct WeightQubCache {
    entries: Mutex<BTreeMap<OpSite, Arc<QubTensor>>>,
}

impl WeightQubCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recovers the cache lock even if a panicking thread poisoned it: every
    /// map entry is inserted fully formed, so the cache is always consistent.
    fn entries(&self) -> MutexGuard<'_, BTreeMap<OpSite, Arc<QubTensor>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of weight sites encoded so far.
    pub fn len(&self) -> usize {
        self.entries().len()
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
            let mut entries = cache.entries();
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
        let mut entries = self.entries();
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
    /// Wraps calibrated tables with a private weight cache.
    pub fn new(tables: &'a PtqTables) -> Self {
        Self::with_cache(tables, Arc::new(WeightQubCache::new()))
    }

    /// Wraps calibrated tables sharing `weights` with other backends (e.g.
    /// one backend per evaluation worker over one model's weights).
    pub fn with_cache(tables: &'a PtqTables, weights: Arc<WeightQubCache>) -> Self {
        Self { tables, weights }
    }

    /// A handle to the weight cache (for sharing with further backends).
    pub fn weight_cache(&self) -> Arc<WeightQubCache> {
        Arc::clone(&self.weights)
    }

    fn coverage(&self) -> Coverage {
        self.tables.config().coverage
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

    /// Encodes an activation with the parameters calibrated for its site.
    fn encode(&self, site: OpSite, operand: Operand, x: &Tensor) -> Result<QubTensor> {
        Ok(QubCodec::new(self.act_params(site, operand)?).encode_tensor(x))
    }
}

/// The integer every code byte of `q`'s quantizer decodes to (`D << n_sh`,
/// Eq. 6/7), indexed by byte: the decoding unit's whole truth table.
fn decoded_codes(q: &QubTensor) -> IntTensor {
    let codes: Vec<i32> = preshift_lut(q.fc, q.bits)
        .into_iter()
        .map(i32::from)
        .collect();
    let len = codes.len();
    IntTensor::from_vec(codes, &[len]).expect("sized")
}

/// A per-code table padded to 256 entries, so indexing it with a byte
/// needs no bounds check. Bytes at or above `2^b` never leave the encoder.
fn by_byte<T: Copy + Default>(per_code: &[T]) -> [T; 256] {
    let mut table = [T::default(); 256];
    table[..per_code.len()].copy_from_slice(per_code);
    table
}

/// SFU load path: the integers `d = D << n_sh` behind a QUB stream —
/// exactly what [`crate::sim::Qua::sfu_load`] produces — straight from the
/// bytes through the decode table, in the shape the row kernel wants.
fn sfu_load(q: &QubTensor, shape: &[usize]) -> IntTensor {
    let table = by_byte(decoded_codes(q).data());
    let ints = q.bytes.iter().map(|&b| table[b as usize]).collect();
    IntTensor::from_vec(ints, shape).expect("encode keeps the element count")
}

/// Integer GEMM `C = A·Bᵀ` over encoded operands on the packed kernel
/// ([`dot::matmul_nt_qub`]), with the rescale and the bias applied
/// in one pass over the accumulators: `(acc as f32 * scale) + b`, the same
/// two roundings as a rescale pass followed by a bias pass.
fn gemm_nt(
    qa: &QubTensor,
    qb: &QubTensor,
    bias: Option<&Tensor>,
    shape: &[usize],
) -> Result<Tensor> {
    let n = qb.shape[0];
    if let Some(b) = bias.filter(|b| b.rank() != 1 || b.len() != n) {
        return Err(BackendError::from(TensorError::ShapeMismatch {
            lhs: vec![qa.shape[0], n],
            rhs: b.shape().to_vec(),
        }));
    }
    let accs = dot::matmul_nt_qub(qa, qb);
    let scale = qa.base_delta * qb.base_delta;
    let mut data = vec![0.0f32; accs.len()];
    match bias {
        Some(b) => {
            for (orow, arow) in data.chunks_mut(n.max(1)).zip(accs.chunks(n.max(1))) {
                for ((o, &v), &b) in orow.iter_mut().zip(arow).zip(b.data()) {
                    *o = v as f32 * scale + b;
                }
            }
        }
        None => {
            for (o, &v) in data.iter_mut().zip(&accs) {
                *o = v as f32 * scale;
            }
        }
    }
    Tensor::from_vec(data, shape).map_err(BackendError::from)
}

impl Backend for IntegerBackend<'_> {
    fn linear(
        &mut self,
        site: OpSite,
        x: &Tensor,
        w: &Tensor,
        bias: Option<&Tensor>,
    ) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(linalg::linear(x, w, bias)?);
        }
        let w_params = self.weight_params(site)?;
        // Flatten leading axes like linalg::linear does: the bytes are laid
        // out the same either way, only the shape tag changes.
        let (rows, cols) = x.as_matrix().map_err(BackendError::from)?;
        let mut qa = self.encode(site, Operand::Input, x)?;
        qa.shape = vec![rows, cols];
        let w_src = self.tables.original_weight(&site).unwrap_or(w);
        // Weights recur image after image: encode + panel-decode once.
        let qw = self.weights.get_or_encode(site, w_params, w_src);
        let mut shape = x.shape().to_vec();
        *shape.last_mut().expect("rank >= 1") = w.shape()[0];
        gemm_nt(&qa, &qw, bias, &shape)
    }

    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(linalg::matmul(a, b)?);
        }
        let &[k, n] = b.shape() else {
            return Err(BackendError::from(TensorError::RankMismatch {
                expected: 2,
                actual: b.rank(),
            }));
        };
        let qa = self.encode(site, Operand::Input, a)?;
        let qb = self.encode(site, Operand::InputB, b)?;
        // A[m,k]·B[k,n] = A·(Bᵀ)ᵀ: feed Bᵀ to the NT kernel. Transposing
        // the code bytes moves a quarter of what transposing `b` would.
        let mut bt = vec![0u8; qb.bytes.len()];
        for (p, row) in qb.bytes.chunks(n.max(1)).enumerate() {
            for (j, &byte) in row.iter().enumerate() {
                bt[j * k + p] = byte;
            }
        }
        let qbt = QubTensor::new(bt, vec![n, k], qb.fc, qb.bits, qb.base_delta);
        gemm_nt(&qa, &qbt, None, &[qa.shape[0], n])
    }

    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(linalg::matmul_nt(a, b)?);
        }
        let qa = self.encode(site, Operand::Input, a)?;
        let qb = self.encode(site, Operand::InputB, b)?;
        gemm_nt(&qa, &qb, None, &[qa.shape[0], qb.shape[0]])
    }

    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(quq_tensor::nn::softmax(x)?);
        }
        let (rows, cols) = x.as_matrix().map_err(BackendError::from)?;
        let qx = self.encode(site, Operand::Input, x)?;
        let probs_fx = intfunc::i_softmax(&sfu_load(&qx, &[rows, cols]), qx.base_delta);
        let out = probs_fx.to_f32(1.0 / intfunc::ONE as f32);
        out.into_reshape(x.shape()).map_err(BackendError::from)
    }

    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(quq_tensor::nn::gelu_tensor(x));
        }
        let qx = self.encode(site, Operand::Input, x)?;
        let scale = qx.base_delta;
        // The SFU's answer for every code, then one lookup per element.
        let table = by_byte(
            intfunc::i_gelu(&decoded_codes(&qx), scale)
                .to_f32(scale)
                .data(),
        );
        let data = qx.bytes.iter().map(|&b| table[b as usize]).collect();
        Tensor::from_vec(data, x.shape()).map_err(BackendError::from)
    }

    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(quq_tensor::nn::layer_norm(x, g, b, 1e-6)?);
        }
        let qx = self.encode(site, Operand::Input, x)?;
        // Output scale sized so ±4·max|γ| + max|β| fits an 8-bit-ish range.
        let g_max = g.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let b_max = b.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let out_scale = ((4.0 * g_max + b_max) / 127.0).max(1e-6);
        Ok(intfunc::i_layer_norm(&sfu_load(&qx, x.shape()), g, b, out_scale).to_f32(out_scale))
    }

    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if !self.coverage().covers(site.kind) {
            return Ok(a.add(b)?);
        }
        if a.shape() != b.shape() {
            return Err(BackendError::from(TensorError::ShapeMismatch {
                lhs: a.shape().to_vec(),
                rhs: b.shape().to_vec(),
            }));
        }
        let qa = self.encode(site, Operand::Input, a)?;
        let qb = self.encode(site, Operand::InputB, b)?;
        // The SFU adder sums the two decoded integer streams after scale
        // alignment; numerically this equals adding the dequantized values,
        // and each operand has only 2^b of those.
        let ta = by_byte(decoded_codes(&qa).to_f32(qa.base_delta).data());
        let tb = by_byte(decoded_codes(&qb).to_f32(qb.base_delta).data());
        let data = qa
            .bytes
            .iter()
            .zip(&qb.bytes)
            .map(|(&p, &q)| ta[p as usize] + tb[q as usize])
            .collect();
        Tensor::from_vec(data, a.shape()).map_err(BackendError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quq_core::pipeline::{calibrate, PtqConfig};
    use quq_core::QuqMethod;
    use quq_vit::{Dataset, ModelConfig, VitModel};

    fn setup(cfg: PtqConfig) -> (VitModel, PtqTables, Dataset) {
        let model = VitModel::synthesize(ModelConfig::test_config(), 33);
        let calib = Dataset::calibration(model.config(), 4, 1);
        let tables = calibrate(&QuqMethod::without_optimization(), &model, &calib, cfg).unwrap();
        let eval = Dataset::teacher_labeled(&model, 12, 2).unwrap();
        (model, tables, eval)
    }

    /// The composition every op had before the code tables and the fused
    /// passes: encode → `decode_scaled` → integer kernel over the whole
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
            let w_src = self.0.tables.original_weight(&site).unwrap_or(w);
            let qw = self.0.weights.get_or_encode(site, w_params, w_src);
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
            let out = intfunc::i_softmax(&ints, scale).to_f32(1.0 / intfunc::ONE as f32);
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
            let g_max = g.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let b_max = b.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let out_scale = ((4.0 * g_max + b_max) / 127.0).max(1e-6);
            Ok(intfunc::i_layer_norm(&ints, g, b, out_scale).to_f32(out_scale))
        }

        fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
            let (ia, sa) = self.sfu_quantize(site, Operand::Input, a)?;
            let (ib, sb) = self.sfu_quantize(site, Operand::InputB, b)?;
            ia.to_f32(sa)
                .add(&ib.to_f32(sb))
                .map_err(BackendError::from)
        }
    }

    /// Runs every op on both backends and insists on the same bits.
    struct Lockstep<'a> {
        ops: IntegerBackend<'a>,
        reference: Reference<'a>,
        compared: usize,
    }

    impl<'a> Lockstep<'a> {
        fn new(tables: &'a PtqTables) -> Self {
            Self {
                ops: IntegerBackend::new(tables),
                reference: Reference(IntegerBackend::new(tables)),
                compared: 0,
            }
        }

        fn same(
            &mut self,
            site: OpSite,
            got: Result<Tensor>,
            want: Result<Tensor>,
        ) -> Result<Tensor> {
            let (got, want) = (got?, want?);
            assert_eq!(got.shape(), want.shape(), "{site}: shape");
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{site}: bits");
            self.compared += 1;
            Ok(got)
        }
    }

    impl Backend for Lockstep<'_> {
        fn linear(
            &mut self,
            site: OpSite,
            x: &Tensor,
            w: &Tensor,
            bias: Option<&Tensor>,
        ) -> Result<Tensor> {
            let (got, want) = (
                self.ops.linear(site, x, w, bias),
                self.reference.linear(site, x, w, bias),
            );
            self.same(site, got, want)
        }

        fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
            let (got, want) = (
                self.ops.matmul(site, a, b),
                self.reference.matmul(site, a, b),
            );
            self.same(site, got, want)
        }

        fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
            let (got, want) = (
                self.ops.matmul_nt(site, a, b),
                self.reference.matmul_nt(site, a, b),
            );
            self.same(site, got, want)
        }

        fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
            let (got, want) = (self.ops.softmax(site, x), self.reference.softmax(site, x));
            self.same(site, got, want)
        }

        fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
            let (got, want) = (self.ops.gelu(site, x), self.reference.gelu(site, x));
            self.same(site, got, want)
        }

        fn layer_norm(
            &mut self,
            site: OpSite,
            x: &Tensor,
            g: &Tensor,
            b: &Tensor,
        ) -> Result<Tensor> {
            let (got, want) = (
                self.ops.layer_norm(site, x, g, b),
                self.reference.layer_norm(site, x, g, b),
            );
            self.same(site, got, want)
        }

        fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
            let (got, want) = (self.ops.add(site, a, b), self.reference.add(site, a, b));
            self.same(site, got, want)
        }
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
            let mut both = Lockstep::new(&tables);
            model.forward(&images[0], &mut both).unwrap();
            let per_forward = both.compared;
            assert!(per_forward > 20, "only {per_forward} ops compared");
            model.forward_batch(images, &mut both).unwrap();
            assert!(both.compared > 2 * per_forward, "attention runs per image");
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
            for (i, special) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0]
                .into_iter()
                .enumerate()
            {
                data[(i * 7 + 3) % len] = special;
            }
            Tensor::from_vec(data, shape).unwrap()
        };
        let mut both = Lockstep::new(&tables);
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
            both.matmul_nt(
                site(OpKind::QkMatmul),
                &random(&[5, 9], spread),
                &random(&[4, 9], spread),
            )
            .unwrap();
            both.matmul(
                site(OpKind::PvMatmul),
                &random(&[5, 9], spread),
                &random(&[9, 4], spread),
            )
            .unwrap();
        }
        assert_eq!(both.compared, 3 * 8);
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
