//! Bit-identity of the batched forward on the fully-integer path.
//!
//! The serving subsystem batches B requests into one `(B·tokens) × dim`
//! activation and must hand every client the *same bytes* it would have
//! gotten from a dedicated `forward` call — for the integer QUQ backend as
//! much as for `Fp32Backend`, at every batch size and thread count. These
//! tests pin that contract across both PTQ bit-width presets (whose QUQ
//! fits land on different `SpaceLayout` variants per site), with and
//! without the shared `WeightQubCache`, and against the serial reference
//! pool mode (`check.sh` re-runs the suite with `QUQ_THREADS=4` to cover a
//! multi-thread count).

use std::sync::Arc;

use proptest::prelude::*;
use quq_core::pipeline::{calibrate, PtqConfig, PtqTables};
use quq_core::{IntegerBackend, QuqMethod, WeightQubCache};
use quq_vit::{synthetic_image, Dataset, Fp32Backend, ModelConfig, VitModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(cfg: PtqConfig, seed: u64) -> (VitModel, PtqTables) {
    let model = VitModel::synthesize(ModelConfig::test_config(), seed);
    let calib = Dataset::calibration(model.config(), 4, 1);
    let tables = calibrate(&QuqMethod::without_optimization(), &model, &calib, cfg).unwrap();
    (model, tables)
}

fn images(model: &VitModel, n: usize, seed: u64) -> Vec<quq_tensor::Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| synthetic_image(model.config(), &mut rng))
        .collect()
}

/// Every batch size 1..=8, integer backend, shared weight cache: batched
/// logits must equal per-image logits byte for byte.
#[test]
fn integer_forward_batch_bit_identical_all_sizes() {
    for cfg in [PtqConfig::full_w8a8(), PtqConfig::full_w6a6()] {
        let (model, tables) = setup(cfg, 33);
        let imgs = images(&model, 8, 7);
        let cache = Arc::new(WeightQubCache::new());
        let solo: Vec<_> = imgs
            .iter()
            .map(|img| {
                let mut be = IntegerBackend::with_cache(&tables, Arc::clone(&cache));
                model.forward(img, &mut be).unwrap()
            })
            .collect();
        for bsz in 1..=imgs.len() {
            let mut be = IntegerBackend::with_cache(&tables, Arc::clone(&cache));
            let batched = model.forward_batch(&imgs[..bsz], &mut be).unwrap();
            for (i, (b, s)) in batched.iter().zip(&solo).enumerate() {
                assert_eq!(b.data(), s.data(), "image {i} diverged at batch {bsz}");
            }
        }
    }
}

/// The pool's serial reference mode produces the same batched bytes as the
/// parallel mode — the thread-count half of the determinism contract.
#[test]
fn integer_forward_batch_serial_parallel_identical() {
    let (model, tables) = setup(PtqConfig::full_w8a8(), 33);
    let imgs = images(&model, 4, 11);
    let cache = Arc::new(WeightQubCache::new());
    let mut be = IntegerBackend::with_cache(&tables, Arc::clone(&cache));
    let parallel = model.forward_batch(&imgs, &mut be).unwrap();
    let serial = quq_tensor::pool::run_serial(|| {
        let mut be = IntegerBackend::with_cache(&tables, Arc::clone(&cache));
        model.forward_batch(&imgs, &mut be).unwrap()
    });
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.data(), s.data());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized seeds and batch sizes over both backends. Calibration is
    /// the expensive part, so the case count stays small; the exhaustive
    /// batch-size sweep above is the cheap deterministic complement.
    #[test]
    fn forward_batch_bit_identical_randomized(seed in 0u64..50, bsz in 1usize..=8) {
        let (model, tables) = setup(PtqConfig::full_w6a6(), seed);
        let imgs = images(&model, bsz, seed ^ 0xbeef);
        let mut int_be = IntegerBackend::new(&tables);
        let batched = model.forward_batch(&imgs, &mut int_be).unwrap();
        let fp_batched = model.forward_batch(&imgs, &mut Fp32Backend::new()).unwrap();
        for (i, img) in imgs.iter().enumerate() {
            let mut one = IntegerBackend::new(&tables);
            let solo = model.forward(img, &mut one).unwrap();
            prop_assert_eq!(batched[i].data(), solo.data(), "int image {} diverged", i);
            let fp_solo = model.forward(img, &mut Fp32Backend::new()).unwrap();
            prop_assert_eq!(fp_batched[i].data(), fp_solo.data(), "fp image {} diverged", i);
        }
    }
}

/// FNV-1a 64 over the little-endian `to_bits()` of every logit, in order.
fn fnv64_of_logits(logits: &[quq_tensor::Tensor]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in logits {
        for v in t.data() {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

const GOLDEN_W6A6: u64 = 0x196d_fb2b_2dea_2800;
const GOLDEN_W8A8: u64 = 0x1532_7d25_1d6e_45db;

/// Golden bits: the integer logits of `test_config`, model seed 33, two
/// images (image seed 7), hashed. The constants were captured at commit
/// 9b5109a, where every element was encoded by the per-element
/// `QuqParams::quantize` and every SFU op ran its integer kernel over the
/// whole tensor. Every other bit-identity gate compares two forwards of
/// one build (so does the benchmark's oracle); only this test sees a
/// drift that all forwards of a build share. The constants depend on the
/// host libm only through model synthesis and calibration (x86-64 Linux
/// here).
#[test]
fn integer_logits_match_golden_bits() {
    for (cfg, golden) in [
        (PtqConfig::full_w6a6(), GOLDEN_W6A6),
        (PtqConfig::full_w8a8(), GOLDEN_W8A8),
    ] {
        let (model, tables) = setup(cfg, 33);
        let imgs = images(&model, 2, 7);
        let mut be = IntegerBackend::new(&tables);
        let solo: Vec<_> = imgs
            .iter()
            .map(|img| model.forward(img, &mut be).unwrap())
            .collect();
        let hash = fnv64_of_logits(&solo);
        assert_eq!(hash, golden, "integer logits drifted: now {hash:#018x}");
        let batched = model.forward_batch(&imgs, &mut be).unwrap();
        assert_eq!(fnv64_of_logits(&batched), golden, "batched forward drifted");
    }
}
