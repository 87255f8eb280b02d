//! The integer forward's work counters, read from the global `quq_obs`
//! recorder. This file holds one test so that no other test in its
//! process records while it reads the deltas.

use std::sync::Arc;

use quq_accel::{IntegerBackend, WeightQubCache};
use quq_core::pipeline::{calibrate, PtqConfig};
use quq_core::QuqMethod;
use quq_tensor::Tensor;
use quq_vit::backend::Result;
use quq_vit::{synthetic_image, Backend, Dataset, ModelConfig, OpSite, VitModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Passes every op through, counting the activation operands the integer
/// backend quantizes and the GEMMs it runs.
struct Counting<B> {
    inner: B,
    operands: u64,
    gemms: u64,
}

impl<B: Backend> Backend for Counting<B> {
    fn linear(
        &mut self,
        site: OpSite,
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
    ) -> Result<Tensor> {
        (self.operands, self.gemms) = (self.operands + 1, self.gemms + 1);
        self.inner.linear(site, x, w, b)
    }

    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        (self.operands, self.gemms) = (self.operands + 2, self.gemms + 1);
        self.inner.matmul(site, a, b)
    }

    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        (self.operands, self.gemms) = (self.operands + 2, self.gemms + 1);
        self.inner.matmul_nt(site, a, b)
    }

    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        self.operands += 1;
        self.inner.softmax(site, x)
    }

    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        self.operands += 1;
        self.inner.gelu(site, x)
    }

    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.operands += 1;
        self.inner.layer_norm(site, x, g, b)
    }

    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.operands += 2;
        self.inner.add(site, a, b)
    }
}

/// Over a warm forward on a backend sharing a used cache: every activation
/// quantization opens exactly one `qub.encode` span, every GEMM one
/// `gemm.i16_nt` span, and nothing builds a decode table or decodes codes.
#[test]
fn warm_forward_encodes_once_per_operand_and_builds_no_tables() {
    let model = VitModel::synthesize(ModelConfig::test_config(), 33);
    let calib = Dataset::calibration(model.config(), 4, 1);
    let tables = calibrate(
        &QuqMethod::without_optimization(),
        &model,
        &calib,
        PtqConfig::full_w6a6(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let images: Vec<Tensor> = (0..2)
        .map(|_| synthetic_image(model.config(), &mut rng))
        .collect();
    let cache = Arc::new(WeightQubCache::new());
    quq_obs::set_enabled(true);
    let mut cold = IntegerBackend::with_cache(&tables, Arc::clone(&cache));
    model.forward_batch(&images, &mut cold).unwrap();

    let before = quq_obs::snapshot();
    let mut warm = Counting {
        inner: IntegerBackend::with_cache(&tables, cache),
        operands: 0,
        gemms: 0,
    };
    model.forward_batch(&images, &mut warm).unwrap();
    let delta = quq_obs::snapshot().delta_since(&before);
    quq_obs::set_enabled(false);

    let count = |name: &str| -> u64 {
        delta
            .hists
            .iter()
            .filter(|h| h.name == name)
            .map(|h| h.count)
            .sum()
    };
    assert!(warm.operands > 0 && warm.gemms > 0);
    assert_eq!(delta.counter_total("qub.lut_builds"), 0, "tables rebuilt");
    assert_eq!(count("qub.decode_preshifted"), 0, "codes decoded");
    assert_eq!(count("qub.encode"), warm.operands, "one encode per operand");
    assert_eq!(count("gemm.i16_nt"), warm.gemms, "one GEMM span per GEMM");
    assert_eq!(delta.counter_total("cache.weight_qub.miss"), 0);
}
