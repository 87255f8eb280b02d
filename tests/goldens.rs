//! Golden bits of the fp32-side paths, on `test_config` (model seed 33):
//! the activation quantizers calibration fits and the fake-quant logits
//! they give, for QUQ and every baseline at both coverages, and the
//! activations the Fig. 3 capture records; and the FP32 logits themselves,
//! on `test_config`, `test_swin_config` and two eval-scale ViT-S images
//! (the widths, k = 96 and 384, that the FP32 GEMM runs at in the
//! benchmark). The integer logits are pinned separately
//! (`crates/core/tests/batch_identity.rs`).
//!
//! Every value is hashed with FNV-1a 64 over its bytes: a quantizer over
//! its operand key, its `Debug` form (which prints every `f32` so that it
//! round-trips) and the bits of its fake quantization of a fixed probe; a
//! tensor over the little-endian `to_bits()` of its elements. The constants
//! depend on the host libm through model synthesis and fitting (x86-64
//! Linux here).

use quq_baselines::{ApqVit, BaseQ, BiScaledFxp, FqVit, Ptq4Vit};
use quq_core::pipeline::{calibrate, PtqConfig, PtqTables};
use quq_core::{Coverage, QuantMethod, QuqMethod};
use quq_store::Artifact;
use quq_store::{ArtifactWriter, CodecChoice, MemStorage, WriteOptions};
use quq_tensor::Tensor;
use quq_vit::{
    synthetic_image, Capture, Dataset, Fp32Backend, ModelConfig, ModelId, ModelWeights, OpKind,
    TapPoint, TapSide, Tapped, VitModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

fn model_and_images() -> (VitModel, Vec<Tensor>) {
    let model = VitModel::synthesize(ModelConfig::test_config(), 33);
    let mut rng = StdRng::seed_from_u64(7);
    let images = (0..2)
        .map(|_| synthetic_image(model.config(), &mut rng))
        .collect();
    (model, images)
}

/// The activation quantizers of `tables`, in key order.
fn hash_activations(tables: &PtqTables) -> u64 {
    let probe: Vec<f32> = (-400..=400).map(|i| i as f32 * 0.0125).collect();
    let probe = Tensor::from_vec(probe, &[801]).unwrap();
    let mut h = Fnv::new();
    for (key, q) in tables.activations() {
        h.bytes(format!("{key}|{q:?}").as_bytes());
        h.floats(q.fake_quantize(&probe).data());
    }
    h.0
}

/// `(method, coverage, activation quantizers, fake-quant logits)`.
#[rustfmt::skip]
const GOLDEN_TABLES: [(&str, Coverage, u64, u64); 14] = [
    ("QUQ",       Coverage::Partial, 0x7cad_25cf_057c_7958, 0xc9d8_373a_2765_1bcb),
    ("QUQ",       Coverage::Full,    0x8959_9ab8_a32a_1710, 0x9dcb_73fc_d5b9_7b0e),
    ("QUQ-noopt", Coverage::Partial, 0x1593_f1d9_e382_8c8b, 0xe596_90d9_ba24_a923),
    ("QUQ-noopt", Coverage::Full,    0x2961_a70c_da20_3a02, 0xb05f_c576_cef0_ad20),
    ("BaseQ",     Coverage::Partial, 0x25f5_e261_5596_1709, 0x1bc9_43a2_3b14_e464),
    ("BaseQ",     Coverage::Full,    0xb302_0ae9_fda2_a4d6, 0x7df5_07a1_1233_8906),
    ("BiScaled",  Coverage::Partial, 0x20fe_3754_0c39_4d25, 0x653e_c50d_b020_09d7),
    ("BiScaled",  Coverage::Full,    0x1bfa_422e_c749_6e68, 0x9ab1_94df_85bb_5fb7),
    ("FQ-ViT",    Coverage::Partial, 0xfbc3_90e0_21fa_e365, 0xa408_4958_9e9f_ca65),
    ("FQ-ViT",    Coverage::Full,    0x102e_a59c_25a5_613c, 0x7091_359c_9109_0d4a),
    ("PTQ4ViT",   Coverage::Partial, 0x2c7c_6a05_9ccb_b135, 0x61c0_f03c_0249_327c),
    ("PTQ4ViT",   Coverage::Full,    0xeb87_e3d4_64bd_d6a1, 0xf6c4_87e0_1df7_8547),
    ("APQ-ViT",   Coverage::Partial, 0x25f5_e261_5596_1709, 0x7a5f_0e11_ba4c_d99b),
    ("APQ-ViT",   Coverage::Full,    0xb302_0ae9_fda2_a4d6, 0xe46b_a859_b2af_6b93),
];

fn method(name: &str) -> Box<dyn QuantMethod> {
    match name {
        "QUQ" => Box::new(QuqMethod::paper()),
        "QUQ-noopt" => Box::new(QuqMethod::without_optimization()),
        "BaseQ" => Box::new(BaseQ::new()),
        "BiScaled" => Box::new(BiScaledFxp::new()),
        "FQ-ViT" => Box::new(FqVit::new()),
        "PTQ4ViT" => Box::new(Ptq4Vit::new()),
        "APQ-ViT" => Box::new(ApqVit::new()),
        other => panic!("unknown method {other}"),
    }
}

/// Calibration (through the collector) and fake-quant execution (through
/// `QuantBackend`) at W6/A6 on two calibration images.
#[test]
fn calibration_and_fake_quant_match_golden_bits() {
    let (model, images) = model_and_images();
    let calib = Dataset::calibration(model.config(), 2, 1);
    let mut got = Vec::new();
    for (name, coverage, _, _) in GOLDEN_TABLES {
        let config = PtqConfig {
            bits_w: 6,
            bits_a: 6,
            coverage,
        };
        let tables = calibrate(method(name).as_ref(), &model, &calib, config).unwrap();
        let mut logits = Fnv::new();
        for img in &images {
            logits.floats(model.forward(img, &mut tables.backend()).unwrap().data());
        }
        got.push((name, coverage, hash_activations(&tables), logits.0));
    }
    for (want, got) in GOLDEN_TABLES.iter().zip(&got) {
        assert_eq!(
            want, got,
            "{} {:?}: got {:#018x}, {:#018x}",
            want.0, want.1, got.2, got.3
        );
    }
}

/// `(model, FP32 logits)`: each model synthesized with seed 33, two
/// images drawn from `StdRng` seed 7, both forwards hashed in order.
const GOLDEN_FP32: [(&str, u64); 3] = [
    ("test", 0x5e8f_fe93_a33d_adf1),
    ("test-swin", 0xfe6d_5582_4598_120f),
    ("vits-eval", 0x7858_3542_77c1_c3ec),
];

/// Plain `Fp32Backend` forwards: every linear, `Q·Kᵀ` and `P·V` through
/// the FP32 GEMM, at every width the goldens above do not reach.
#[test]
fn fp32_logits_match_golden_bits() {
    let mut got = Vec::new();
    for (name, _) in GOLDEN_FP32 {
        let config = match name {
            "test" => ModelConfig::test_config(),
            "test-swin" => ModelConfig::test_swin_config(),
            _ => ModelConfig::eval_scale(ModelId::VitS),
        };
        let model = VitModel::synthesize(config, 33);
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = Fnv::new();
        for _ in 0..2 {
            let img = synthetic_image(model.config(), &mut rng);
            let logits = model.forward(&img, &mut Fp32Backend::new()).unwrap();
            h.floats(logits.data());
        }
        got.push((name, h.0));
    }
    let hex: Vec<String> = got.iter().map(|(n, h)| format!("{n} {h:#018x}")).collect();
    assert_eq!(GOLDEN_FP32[..], got[..], "got {hex:?}");
}

const GOLDEN_FIG3: u64 = 0x32c9_8d59_bba5_9faf;

/// The Fig. 3 taps: post-Softmax, the residual branches and post-GELU.
#[test]
fn fig3_capture_matches_golden_bits() {
    let (model, images) = model_and_images();
    let points = [
        TapPoint::output(OpKind::Softmax),
        TapPoint {
            kind: OpKind::Residual1,
            side: TapSide::InputB,
        },
        TapPoint {
            kind: OpKind::Residual2,
            side: TapSide::InputB,
        },
        TapPoint::output(OpKind::Gelu),
    ];
    let mut cap = Tapped::new(Fp32Backend::new(), Capture::new(points));
    for img in &images {
        model.forward(img, &mut cap).unwrap();
    }
    let mut h = Fnv::new();
    for (kind, side) in [
        (OpKind::Softmax, TapSide::Output),
        (OpKind::Residual1, TapSide::InputB),
        (OpKind::Residual2, TapSide::InputB),
        (OpKind::Gelu, TapSide::Output),
    ] {
        let samples = cap.tap().samples_for(kind, side);
        assert!(!samples.is_empty(), "{kind:?} {side:?}");
        h.floats(&samples);
    }
    assert_eq!(h.0, GOLDEN_FIG3, "got {:#018x}", h.0);
}

/// `(codec policy, artifact bytes)`: the QUQ W6/A6 tables of the fake-quant
/// goldens, saved under each policy. Pins the writer's every byte, the
/// tensor inventory's order and the codec trial's choices.
const GOLDEN_ARTIFACTS: [(&str, u64); 2] = [
    ("raw", 0x68a0_7f92_95c7_8199),
    ("auto", 0xa89c_9cb9_2afc_49d0),
];

#[test]
fn saved_artifacts_match_golden_bits() {
    let (model, _) = model_and_images();
    let calib = Dataset::calibration(model.config(), 2, 1);
    let tables = calibrate(&QuqMethod::paper(), &model, &calib, PtqConfig::full_w6a6()).unwrap();
    for (policy, want) in GOLDEN_ARTIFACTS {
        let storage = MemStorage::new();
        let options = WriteOptions {
            codec: CodecChoice::from_name(policy).unwrap(),
        };
        ArtifactWriter::save_on_with(&model, &tables, &storage, "a.quqm", &options).unwrap();
        let mut h = Fnv::new();
        h.bytes(&storage.get("a.quqm").unwrap());
        assert_eq!(h.0, want, "{policy}: got {:#018x}", h.0);
    }
}

/// The parameter count is the tensor inventory's, and synthesis draws
/// exactly that inventory.
#[test]
fn param_count_is_the_element_count_of_a_synthesized_model() {
    let eval = ModelId::PAPER_MODELS.map(ModelConfig::eval_scale);
    for config in [ModelConfig::test_config(), ModelConfig::test_swin_config()]
        .into_iter()
        .chain(eval)
    {
        let weights = ModelWeights::synthesize(&config, 1);
        let elems: usize = weights.tensors(&config).map(|(_, t)| t.len()).sum();
        assert_eq!(config.param_count(), elems, "{:?}", config.id);
    }
}

/// `load_all` reads the model tensors and the two quantizer tables, and
/// no QUB record. (No other test in this file reads a chunk, so the
/// process-wide counter moves only here.)
#[test]
fn load_all_reads_no_qub_record() {
    let (model, _) = model_and_images();
    let calib = Dataset::calibration(model.config(), 2, 1);
    let tables = calibrate(&QuqMethod::paper(), &model, &calib, PtqConfig::full_w6a6()).unwrap();
    let storage = std::sync::Arc::new(MemStorage::new());
    ArtifactWriter::save_on(&model, &tables, &*storage, "a.quqm").unwrap();
    let artifact = Artifact::open_on(storage, "a.quqm").unwrap();
    assert!(!artifact.qub_sites().is_empty());

    quq_obs::set_enabled(true);
    let before = quq_obs::snapshot();
    artifact.load_all().unwrap();
    let loads = quq_obs::snapshot().delta_since(&before);
    quq_obs::set_enabled(false);
    let tensors = ModelWeights::inventory(model.config()).len() as u64;
    assert_eq!(loads.counter_total("store.chunk_loads"), tensors + 2);
}
