//! End-to-end PTQ pipelines: calibrate → fit → execute quantized.
//!
//! [`calibrate`] runs the calibration images through a [`Collector`], fits a
//! quantizer for every recorded operand with the chosen [`QuantMethod`], and
//! pre-quantizes the weights. The resulting [`PtqTables`] build a
//! [`QuantBackend`] that fake-quantizes every covered operand during
//! inference — the functional model of a partially (Table 2) or fully
//! (Table 3) quantized ViT. Bit-exact integer execution of the same
//! arithmetic lives in `quq-accel`.

use crate::calib::{Collector, Coverage, Operand, ParamKey};
use crate::quantizer::QuantMethod;
use quq_tensor::Tensor;
use quq_vit::backend::{Backend, BackendError, Op, OpSite, Result};
use quq_vit::{Dataset, Fp32Backend, Tapped, VitModel};
use std::collections::BTreeMap;

/// Bit-widths and coverage of one PTQ experiment (the `W/A` column of the
/// paper's tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PtqConfig {
    /// Weight bit-width.
    pub bits_w: u32,
    /// Activation bit-width.
    pub bits_a: u32,
    /// Partial (GEMM-only) or full quantization.
    pub coverage: Coverage,
}

impl PtqConfig {
    /// `W6/A6` partial quantization (Table 2).
    pub fn partial_w6a6() -> Self {
        Self {
            bits_w: 6,
            bits_a: 6,
            coverage: Coverage::Partial,
        }
    }

    /// `W6/A6` full quantization (Table 3, upper half).
    pub fn full_w6a6() -> Self {
        Self {
            bits_w: 6,
            bits_a: 6,
            coverage: Coverage::Full,
        }
    }

    /// `W8/A8` full quantization (Table 3, lower half).
    pub fn full_w8a8() -> Self {
        Self {
            bits_w: 8,
            bits_a: 8,
            coverage: Coverage::Full,
        }
    }
}

/// Fitted quantization state of one model under one method and config.
pub struct PtqTables {
    config: PtqConfig,
    method_name: &'static str,
    activations: BTreeMap<ParamKey, Box<dyn crate::quantizer::FittedQuantizer>>,
    /// Weights pre-fake-quantized at calibration time (per linear site).
    quantized_weights: BTreeMap<OpSite, Tensor>,
    /// The fitted weight quantizers (integer paths need their parameters).
    weight_quantizers: BTreeMap<OpSite, Box<dyn crate::quantizer::FittedQuantizer>>,
    /// The original FP32 weights (integer paths re-encode from these).
    original_weights: BTreeMap<OpSite, Tensor>,
}

impl std::fmt::Debug for PtqTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PtqTables")
            .field("config", &self.config)
            .field("method", &self.method_name)
            .field("activation_sites", &self.activations.len())
            .field("weight_sites", &self.quantized_weights.len())
            .finish()
    }
}

impl PtqTables {
    /// The experiment configuration.
    pub fn config(&self) -> PtqConfig {
        self.config
    }

    /// The fitting method's name.
    pub fn method_name(&self) -> &'static str {
        self.method_name
    }

    /// Number of fitted activation quantizers.
    pub fn activation_sites(&self) -> usize {
        self.activations.len()
    }

    /// Fitted quantizer for an operand, if present.
    pub fn activation(&self, key: &ParamKey) -> Option<&dyn crate::quantizer::FittedQuantizer> {
        self.activations.get(key).map(|b| b.as_ref())
    }

    /// Human-readable description of a weight quantizer.
    pub fn weight_description(&self, site: &OpSite) -> Option<String> {
        self.weight_quantizers.get(site).map(|q| q.describe())
    }

    /// Fitted quantizer for a weight site, if present.
    pub fn weight_quantizer(
        &self,
        site: &OpSite,
    ) -> Option<&dyn crate::quantizer::FittedQuantizer> {
        self.weight_quantizers.get(site).map(|b| b.as_ref())
    }

    /// The original (FP32) weight tensor recorded for a site.
    pub fn original_weight(&self, site: &OpSite) -> Option<&Tensor> {
        self.original_weights.get(site)
    }

    /// Builds an execution backend over these tables.
    pub fn backend(&self) -> QuantBackend<'_> {
        QuantBackend { tables: self }
    }

    /// Iterates every fitted activation quantizer with its operand key, in
    /// `BTreeMap` (deterministic) order. Serialization paths walk this.
    pub fn activations(
        &self,
    ) -> impl Iterator<Item = (&ParamKey, &dyn crate::quantizer::FittedQuantizer)> {
        self.activations.iter().map(|(k, q)| (k, q.as_ref()))
    }

    /// Iterates every weight site with its fitted quantizer, in
    /// deterministic order.
    pub fn weight_quantizers(
        &self,
    ) -> impl Iterator<Item = (&OpSite, &dyn crate::quantizer::FittedQuantizer)> {
        self.weight_quantizers.iter().map(|(k, q)| (k, q.as_ref()))
    }

    /// Reassembles tables from previously serialized parts (the inverse of
    /// walking [`PtqTables::activations`] / [`PtqTables::weight_quantizers`]).
    ///
    /// `original_weights` may be empty: execution backends that re-encode
    /// from FP32 fall back to the live model weight at each site, which for
    /// a model restored alongside these tables is exactly the tensor
    /// calibration recorded.
    pub fn from_parts(
        config: PtqConfig,
        method_name: &'static str,
        activations: BTreeMap<ParamKey, Box<dyn crate::quantizer::FittedQuantizer>>,
        weight_quantizers: BTreeMap<OpSite, Box<dyn crate::quantizer::FittedQuantizer>>,
        quantized_weights: BTreeMap<OpSite, Tensor>,
        original_weights: BTreeMap<OpSite, Tensor>,
    ) -> Self {
        Self {
            config,
            method_name,
            activations,
            quantized_weights,
            weight_quantizers,
            original_weights,
        }
    }
}

/// Calibrates `model` on `calibration` images with `method` (paper §6.1 uses
/// 32 images), returning the fitted tables.
///
/// Sample collection stays serial (the collector is stateful), but the
/// per-site quantizer fits — the dominant cost with the grid search on —
/// run in parallel on the [`quq_tensor::pool`]. Each site's fit is
/// self-contained and the results land in `BTreeMap`s, so the tables are
/// identical at every thread count.
///
/// # Errors
///
/// Propagates backend errors from the calibration forward passes.
pub fn calibrate(
    method: &dyn QuantMethod,
    model: &VitModel,
    calibration: &Dataset,
    config: PtqConfig,
) -> Result<PtqTables> {
    let mut collector = Tapped::new(Fp32Backend::new(), Collector::new(config.coverage));
    for img in &calibration.images {
        model.forward(img, &mut collector)?;
    }
    let (_, collector) = collector.into_parts();
    let (samples, weights) = collector.into_parts();

    let sites: Vec<(ParamKey, Vec<f32>)> = samples
        .into_iter()
        .map(|(key, set)| (key, set.to_values()))
        .collect();
    let mut fitted: Vec<Option<Box<dyn crate::quantizer::FittedQuantizer>>> = Vec::new();
    fitted.resize_with(sites.len(), || None);
    quq_tensor::pool::parallel_chunks_mut(&mut fitted, 1, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            let (key, values) = &sites[start + off];
            *slot = Some(method.fit_activation_for(*key, values, config.bits_a));
        }
    });
    let activations: BTreeMap<_, _> = sites
        .iter()
        .zip(fitted)
        .map(|((key, _), q)| (*key, q.expect("every site fitted")))
        .collect();

    type WeightFit = Option<(Box<dyn crate::quantizer::FittedQuantizer>, Tensor)>;
    let weight_sites: Vec<(OpSite, Tensor)> = weights.into_iter().collect();
    let mut weight_fits: Vec<WeightFit> = Vec::new();
    weight_fits.resize_with(weight_sites.len(), || None);
    quq_tensor::pool::parallel_chunks_mut(&mut weight_fits, 1, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            let (_, w) = &weight_sites[start + off];
            let q = method.fit_weight(w, config.bits_w);
            let fq = q.fake_quantize(w);
            *slot = Some((q, fq));
        }
    });
    let mut quantized_weights = BTreeMap::new();
    let mut weight_quantizers = BTreeMap::new();
    let mut original_weights = BTreeMap::new();
    for ((site, w), fit) in weight_sites.into_iter().zip(weight_fits) {
        let (q, fq) = fit.expect("every weight fitted");
        quantized_weights.insert(site, fq);
        weight_quantizers.insert(site, q);
        original_weights.insert(site, w);
    }
    Ok(PtqTables {
        config,
        method_name: method.name(),
        activations,
        quantized_weights,
        weight_quantizers,
        original_weights,
    })
}

/// Quantized-execution backend: fake-quantizes every covered operand and
/// swaps weights for their pre-quantized copies.
#[derive(Debug)]
pub struct QuantBackend<'a> {
    tables: &'a PtqTables,
}

impl QuantBackend<'_> {
    /// `op` in `f32`: over its fake-quantized activations and pre-quantized
    /// weight where `site` is covered, as it is elsewhere.
    fn eval(&self, site: OpSite, op: Op<'_>) -> Result<Tensor> {
        if !self.tables.config.coverage.covers(site.kind) {
            return op.eval();
        }
        let missing = || BackendError::MissingParams(site);
        let quantize = |operand, t| {
            let q = self.tables.activations.get(&ParamKey { site, operand });
            q.map(|q| q.fake_quantize(t)).ok_or_else(missing)
        };
        let weight = |_| self.tables.quantized_weights.get(&site).ok_or_else(missing);
        let x = quantize(Operand::Input, op.input())?;
        let x_b = op
            .input_b()
            .map(|b| quantize(Operand::InputB, b))
            .transpose()?;
        let w = op.weight().map(weight).transpose()?;
        op.with_operands(&x, x_b.as_ref(), w).eval()
    }
}

impl Backend for QuantBackend<'_> {
    fn linear(
        &mut self,
        site: OpSite,
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
    ) -> Result<Tensor> {
        self.eval(site, Op::Linear { x, w, b })
    }

    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.eval(site, Op::Matmul { a, b })
    }

    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.eval(site, Op::MatmulNt { a, b })
    }

    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        self.eval(site, Op::Softmax { x })
    }

    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        self.eval(site, Op::Gelu { x })
    }

    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.eval(site, Op::LayerNorm { x, g, b })
    }

    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.eval(site, Op::Add { a, b })
    }
}

/// Convenience: calibrate and evaluate in one call, returning top-1
/// agreement with the teacher labels. Evaluation images run in parallel on
/// the pool (each worker builds its own [`QuantBackend`] over the shared
/// tables); the result is identical to serial evaluation at every thread
/// count.
///
/// # Errors
///
/// Propagates backend errors.
pub fn evaluate_quantized(
    method: &dyn QuantMethod,
    model: &VitModel,
    calibration: &Dataset,
    eval: &Dataset,
    config: PtqConfig,
) -> Result<f64> {
    let tables = calibrate(method, model, calibration, config)?;
    quq_vit::evaluate_parallel(model, || tables.backend(), eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::QuqMethod;
    use quq_vit::{Fp32Backend, ModelConfig};

    fn setup() -> (VitModel, Dataset, Dataset) {
        let model = VitModel::synthesize(ModelConfig::test_config(), 21);
        let calib = Dataset::calibration(model.config(), 4, 1);
        let eval = Dataset::teacher_labeled(&model, 16, 2).unwrap();
        (model, calib, eval)
    }

    #[test]
    fn calibrate_fits_all_gemm_sites() {
        let (model, calib, _) = setup();
        let method = QuqMethod::without_optimization();
        let t = calibrate(&method, &model, &calib, PtqConfig::partial_w6a6()).unwrap();
        // Test config: 2 blocks × (qkv, qk, pv, proj, fc1, fc2) + patch + head.
        // matmul sites have two operands each.
        assert!(t.activation_sites() >= 2 * 8 + 2);
        assert_eq!(t.method_name(), "QUQ");
        assert!(format!("{t:?}").contains("QUQ"));
    }

    #[test]
    fn full_coverage_has_more_sites_than_partial() {
        let (model, calib, _) = setup();
        let method = QuqMethod::without_optimization();
        let p = calibrate(&method, &model, &calib, PtqConfig::partial_w6a6()).unwrap();
        let f = calibrate(&method, &model, &calib, PtqConfig::full_w6a6()).unwrap();
        assert!(f.activation_sites() > p.activation_sites());
    }

    #[test]
    fn quantized_execution_stays_close_to_fp32_at_8_bit() {
        let (model, calib, eval) = setup();
        let method = QuqMethod::without_optimization();
        let acc =
            evaluate_quantized(&method, &model, &calib, &eval, PtqConfig::full_w8a8()).unwrap();
        assert!(acc >= 0.75, "8-bit full QUQ agreement {acc} too low");
    }

    #[test]
    fn lower_bits_do_not_increase_agreement() {
        let (model, calib, eval) = setup();
        let method = QuqMethod::without_optimization();
        let a8 =
            evaluate_quantized(&method, &model, &calib, &eval, PtqConfig::full_w8a8()).unwrap();
        let a4 = evaluate_quantized(
            &method,
            &model,
            &calib,
            &eval,
            PtqConfig {
                bits_w: 4,
                bits_a: 4,
                coverage: Coverage::Full,
            },
        )
        .unwrap();
        assert!(a8 >= a4, "8-bit {a8} vs 4-bit {a4}");
    }

    #[test]
    fn partial_quantization_leaves_special_functions_exact() {
        let (model, calib, _) = setup();
        let method = QuqMethod::without_optimization();
        let tables = calibrate(&method, &model, &calib, PtqConfig::partial_w6a6()).unwrap();
        // Softmax input key must not exist under partial coverage.
        let softmax_key = ParamKey::input(OpSite::in_block(0, quq_vit::OpKind::Softmax));
        assert!(tables.activation(&softmax_key).is_none());
    }

    #[test]
    fn quantized_logits_differ_from_fp32_but_correlate() {
        let (model, calib, _) = setup();
        let method = QuqMethod::without_optimization();
        let tables = calibrate(&method, &model, &calib, PtqConfig::full_w6a6()).unwrap();
        let img = model.config().dummy_image(0.3);
        let fp = model.forward(&img, &mut Fp32Backend::new()).unwrap();
        let mut qb = tables.backend();
        let q = model.forward(&img, &mut qb).unwrap();
        assert_ne!(fp, q);
        let cos = quq_tensor::stats::cosine_similarity(&fp, &q).unwrap();
        assert!(cos > 0.8, "logit cosine {cos}");
    }
}
