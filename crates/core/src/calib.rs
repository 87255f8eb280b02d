//! Calibration-sample collection.
//!
//! The paper calibrates on 32 images (§6.1). [`Collector`] is a [`Tap`]:
//! over an fp32 forward it records, per quantizable operand (a
//! [`ParamKey`]), a reservoir-subsampled set of the values that flowed
//! through it. PTQ pipelines then fit per-tensor quantizers from these
//! samples, and weight quantizers from the model's own weights.

use quq_tensor::Tensor;
use quq_vit::backend::{Op, OpKind, OpSite, Tap};
use std::collections::BTreeMap;

/// Which operand of an operation a parameter set belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operand {
    /// The first (or only) activation input.
    Input,
    /// The second activation input (matmul RHS, residual branch).
    InputB,
}

/// Identifies one quantized activation tensor edge in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamKey {
    /// The operation consuming the tensor.
    pub site: OpSite,
    /// Which of its operands.
    pub operand: Operand,
}

impl ParamKey {
    /// Key for the first input of `site`.
    pub fn input(site: OpSite) -> Self {
        Self {
            site,
            operand: Operand::Input,
        }
    }

    /// Key for the second input of `site`.
    pub fn input_b(site: OpSite) -> Self {
        Self {
            site,
            operand: Operand::InputB,
        }
    }
}

impl std::fmt::Display for ParamKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{:?}", self.site, self.operand)
    }
}

/// Quantization coverage — the paper's central dichotomy (Fig. 1/2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coverage {
    /// Only GEMM inputs are quantized (PTQ4ViT/APQ-ViT style, Table 2).
    Partial,
    /// Every activation edge is quantized (FQ-ViT/QUQ style, Table 3).
    Full,
}

impl Coverage {
    /// Whether operands of `kind` are quantized under this coverage.
    pub fn covers(self, kind: OpKind) -> bool {
        match self {
            Coverage::Partial => kind.is_gemm(),
            Coverage::Full => true,
        }
    }
}

/// Fixed-capacity reservoir sample with exact min/max retention.
///
/// Keeps every value until `cap`, then replaces uniformly at random
/// (deterministic LCG), while separately tracking the exact extremes so
/// range-sensitive fitting (Algorithm 2 uses `Max`) never loses outliers.
#[derive(Debug, Clone)]
pub struct SampleSet {
    values: Vec<f32>,
    cap: usize,
    seen: u64,
    state: u64,
    min: f32,
    max: f32,
}

impl SampleSet {
    /// Creates an empty reservoir with the given capacity.
    pub fn new(cap: usize, seed: u64) -> Self {
        Self {
            values: Vec::new(),
            cap: cap.max(16),
            seen: 0,
            state: seed | 1,
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state
    }

    /// Adds values to the reservoir.
    pub fn extend_from(&mut self, data: &[f32]) {
        for &v in data {
            self.seen += 1;
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
            if self.values.len() < self.cap {
                self.values.push(v);
            } else {
                // Classic reservoir replacement: keep with probability cap/seen.
                let j = (self.next_u64() % self.seen) as usize;
                if j < self.cap {
                    self.values[j] = v;
                }
            }
        }
    }

    /// The collected sample, with the exact extremes appended so fitting
    /// sees the true range.
    pub fn to_values(&self) -> Vec<f32> {
        let mut out = self.values.clone();
        if self.seen > 0 {
            out.push(self.min);
            out.push(self.max);
        }
        out
    }

    /// Number of values observed (not retained).
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Default per-site reservoir capacity.
pub const DEFAULT_SAMPLE_CAP: usize = 32_768;

/// The calibration tap: records operand samples under the configured
/// coverage.
#[derive(Debug)]
pub struct Collector {
    coverage: Coverage,
    cap: usize,
    samples: BTreeMap<ParamKey, SampleSet>,
}

impl Collector {
    /// Creates a collector for the given coverage.
    pub fn new(coverage: Coverage) -> Self {
        Self::with_capacity(coverage, DEFAULT_SAMPLE_CAP)
    }

    /// Creates a collector with a custom per-site reservoir capacity.
    pub fn with_capacity(coverage: Coverage, cap: usize) -> Self {
        Self {
            coverage,
            cap,
            samples: BTreeMap::new(),
        }
    }

    fn record(&mut self, key: ParamKey, t: &Tensor) {
        let cap = self.cap;
        let seed = (key.site.block.unwrap_or(usize::MAX) as u64) << 8 | key.site.kind as u64;
        self.samples
            .entry(key)
            .or_insert_with(|| SampleSet::new(cap, seed))
            .extend_from(t.data());
    }

    /// Recorded activation samples.
    pub fn samples(&self) -> &BTreeMap<ParamKey, SampleSet> {
        &self.samples
    }

    /// Consumes the collector, returning its samples.
    pub fn into_samples(self) -> BTreeMap<ParamKey, SampleSet> {
        self.samples
    }
}

impl Tap for Collector {
    type Pending = ();

    fn before(&mut self, site: OpSite, op: &Op<'_>) {
        if !self.coverage.covers(site.kind) {
            return;
        }
        self.record(ParamKey::input(site), op.input());
        if let Some(b) = op.input_b() {
            self.record(ParamKey::input_b(site), b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quq_vit::{Fp32Backend, ModelConfig, Tapped, VitModel};

    fn collector(coverage: Coverage, cap: usize) -> Tapped<Fp32Backend, Collector> {
        Tapped::new(Fp32Backend::new(), Collector::with_capacity(coverage, cap))
    }

    #[test]
    fn reservoir_keeps_everything_under_cap() {
        let mut s = SampleSet::new(100, 7);
        s.extend_from(&[1.0, 2.0, 3.0]);
        let v = s.to_values();
        assert_eq!(s.seen(), 3);
        // 3 values + appended extremes.
        assert_eq!(v.len(), 5);
        assert!(v.contains(&1.0) && v.contains(&3.0));
    }

    #[test]
    fn reservoir_caps_but_keeps_extremes() {
        let mut s = SampleSet::new(64, 7);
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.37).sin()).collect();
        s.extend_from(&data);
        s.extend_from(&[99.0, -99.0]);
        let v = s.to_values();
        assert!(v.len() <= 64 + 2);
        assert!(v.contains(&99.0));
        assert!(v.contains(&-99.0));
    }

    #[test]
    fn partial_coverage_collects_only_gemm_sites() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 5);
        let img = model.config().dummy_image(0.2);
        let mut c = collector(Coverage::Partial, 1024);
        let out = model.forward(&img, &mut c).unwrap();
        // Execution identical to FP32.
        let reference = model.forward(&img, &mut Fp32Backend::new()).unwrap();
        assert_eq!(out, reference);
        assert!(c.tap().samples().keys().all(|k| k.site.kind.is_gemm()));
        assert!(c.tap().samples().keys().any(|k| k.site.kind == OpKind::Qkv));
    }

    #[test]
    fn full_coverage_collects_special_functions_too() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 5);
        let img = model.config().dummy_image(0.2);
        let mut c = collector(Coverage::Full, 1024);
        model.forward(&img, &mut c).unwrap();
        let kinds: std::collections::BTreeSet<OpKind> =
            c.tap().samples().keys().map(|k| k.site.kind).collect();
        for k in [
            OpKind::Softmax,
            OpKind::Gelu,
            OpKind::Norm1,
            OpKind::Residual1,
            OpKind::Residual2,
        ] {
            assert!(kinds.contains(&k), "missing {k}");
        }
        // Residual adds record both operands.
        let res_site = OpSite::in_block(0, OpKind::Residual1);
        assert!(c.tap().samples().contains_key(&ParamKey::input(res_site)));
        assert!(c.tap().samples().contains_key(&ParamKey::input_b(res_site)));
    }

    #[test]
    fn coverage_predicate_matches_figure1() {
        assert!(Coverage::Partial.covers(OpKind::Fc1));
        assert!(!Coverage::Partial.covers(OpKind::Softmax));
        assert!(Coverage::Full.covers(OpKind::Softmax));
        assert!(Coverage::Full.covers(OpKind::Residual2));
    }
}
