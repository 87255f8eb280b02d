//! End-to-end PTQ pipelines: calibrate → fit → execute quantized.
//!
//! [`calibrate`] runs the calibration images through a [`Collector`] and
//! fits a quantizer for every recorded operand, and for every covered
//! linear weight of the model, with the chosen [`QuantMethod`]. The
//! resulting [`PtqTables`] hold those fitted quantizers and nothing else:
//! the weights stay in the model. The tables build a [`QuantBackend`] that
//! fake-quantizes every covered operand during inference — the functional
//! model of a partially (Table 2) or fully (Table 3) quantized ViT.
//! Bit-exact integer execution of the same arithmetic lives in `quq-accel`.

use crate::calib::{Collector, Coverage, Operand, ParamKey};
use crate::quantizer::{FittedQuantizer, QuantMethod};
use quq_tensor::Tensor;
use quq_vit::backend::{Backend, BackendError, Op, OpSite, Result};
use quq_vit::{Dataset, Fp32Backend, Tapped, VitModel};
use std::collections::BTreeMap;
use std::sync::OnceLock;

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

/// Fitted quantization state of one model under one method and config: a
/// quantizer per covered activation operand and per linear weight, as the
/// paper's calibrated state is quantizer parameters (Fig. 5). The weights
/// themselves stay in the model.
pub struct PtqTables {
    config: PtqConfig,
    method_name: &'static str,
    activations: BTreeMap<ParamKey, Box<dyn FittedQuantizer>>,
    weights: BTreeMap<OpSite, WeightSite>,
}

/// A linear site's fitted weight quantizer, and the weight it
/// fake-quantizes once [`QuantBackend`] first runs the site.
struct WeightSite {
    quantizer: Box<dyn FittedQuantizer>,
    fake_quantized: OnceLock<Tensor>,
}

impl std::fmt::Debug for PtqTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PtqTables")
            .field("config", &self.config)
            .field("method", &self.method_name)
            .field("activation_sites", &self.activations.len())
            .field("weight_sites", &self.weights.len())
            .finish()
    }
}

impl PtqTables {
    /// Assembles tables from fitted quantizers: the inverse of walking
    /// [`PtqTables::activations`] and [`PtqTables::weight_quantizers`].
    pub fn from_parts(
        config: PtqConfig,
        method_name: &'static str,
        activations: BTreeMap<ParamKey, Box<dyn FittedQuantizer>>,
        weight_quantizers: BTreeMap<OpSite, Box<dyn FittedQuantizer>>,
    ) -> Self {
        let weights = weight_quantizers
            .into_iter()
            .map(|(site, quantizer)| {
                let fake_quantized = OnceLock::new();
                (
                    site,
                    WeightSite {
                        quantizer,
                        fake_quantized,
                    },
                )
            })
            .collect();
        Self {
            config,
            method_name,
            activations,
            weights,
        }
    }

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
    pub fn activation(&self, key: &ParamKey) -> Option<&dyn FittedQuantizer> {
        self.activations.get(key).map(|b| b.as_ref())
    }

    /// Human-readable description of a weight quantizer.
    pub fn weight_description(&self, site: &OpSite) -> Option<String> {
        self.weight_quantizer(site).map(|q| q.describe())
    }

    /// Fitted quantizer for a weight site, if present.
    pub fn weight_quantizer(&self, site: &OpSite) -> Option<&dyn FittedQuantizer> {
        self.weights.get(site).map(|w| w.quantizer.as_ref())
    }

    /// `w`, the weight the linear at `site` multiplies, fake-quantized by
    /// the site's quantizer. Computed on the site's first use and kept for
    /// every later one, so the tables serve the model they were fitted on.
    fn fake_quantized_weight(&self, site: &OpSite, w: &Tensor) -> Option<&Tensor> {
        let entry = self.weights.get(site)?;
        let fake_quantize = || entry.quantizer.fake_quantize(w);
        Some(entry.fake_quantized.get_or_init(fake_quantize))
    }

    /// Builds an execution backend over these tables.
    pub fn backend(&self) -> QuantBackend<'_> {
        QuantBackend { tables: self }
    }

    /// Iterates every fitted activation quantizer with its operand key, in
    /// `BTreeMap` (deterministic) order. Serialization paths walk this.
    pub fn activations(&self) -> impl Iterator<Item = (&ParamKey, &dyn FittedQuantizer)> {
        self.activations.iter().map(|(k, q)| (k, q.as_ref()))
    }

    /// Iterates every weight site with its fitted quantizer, in
    /// deterministic order.
    pub fn weight_quantizers(&self) -> impl Iterator<Item = (&OpSite, &dyn FittedQuantizer)> {
        self.weights.iter().map(|(k, w)| (k, w.quantizer.as_ref()))
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
    let samples = collector.into_samples();

    let sites: Vec<(ParamKey, Vec<f32>)> = samples
        .into_iter()
        .map(|(key, set)| (key, set.to_values()))
        .collect();
    let fitted = fit_each(&sites, |(key, values)| {
        method.fit_activation_for(*key, values, config.bits_a)
    });
    let activations = sites.iter().map(|(key, _)| *key).zip(fitted).collect();
    let weights: Vec<(OpSite, &Tensor)> = (model.weights().tensors(model.config()))
        .filter_map(|(slot, w)| Some((slot.site?, w)))
        .filter(|(site, _)| config.coverage.covers(site.kind))
        .collect();
    let fitted = fit_each(&weights, |(_, w)| method.fit_weight(w, config.bits_w));
    let weight_quantizers = weights.iter().map(|(site, _)| *site).zip(fitted).collect();
    Ok(PtqTables::from_parts(
        config,
        method.name(),
        activations,
        weight_quantizers,
    ))
}

/// `fit` applied to every item on the [`quq_tensor::pool`], in item order.
fn fit_each<T: Sync>(
    items: &[T],
    fit: impl Fn(&T) -> Box<dyn FittedQuantizer> + Sync,
) -> Vec<Box<dyn FittedQuantizer>> {
    let mut fitted: Vec<Option<Box<dyn FittedQuantizer>>> = Vec::new();
    fitted.resize_with(items.len(), || None);
    quq_tensor::pool::parallel_chunks_mut(&mut fitted, 1, |start, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = Some(fit(&items[start + off]));
        }
    });
    fitted
        .into_iter()
        .map(|q| q.expect("every item fitted"))
        .collect()
}

/// Quantized-execution backend: fake-quantizes every covered operand,
/// weights included (each site's weight once per tables, on first use).
#[derive(Debug)]
pub struct QuantBackend<'a> {
    tables: &'a PtqTables,
}

impl QuantBackend<'_> {
    /// `op` in `f32`: over its fake-quantized activations and weight where
    /// `site` is covered, as it is elsewhere.
    fn eval(&self, site: OpSite, op: Op<'_>) -> Result<Tensor> {
        if !self.tables.config.coverage.covers(site.kind) {
            return op.eval();
        }
        let missing = || BackendError::MissingParams(site);
        let quantize = |operand, t| {
            let q = self.tables.activations.get(&ParamKey { site, operand });
            q.map(|q| q.fake_quantize(t)).ok_or_else(missing)
        };
        let weight = |w| {
            self.tables
                .fake_quantized_weight(&site, w)
                .ok_or_else(missing)
        };
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
