//! The integer forward as the global `quq_obs` recorder sees it: its work
//! counters, and the spans of the `Observed` tap. Each test holds
//! [`recorder`] so no other test in this process records or toggles the
//! recorder while it reads its deltas.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use quq_core::pipeline::{calibrate, PtqConfig, PtqTables};
use quq_core::{IntegerBackend, QubCodec, QuqMethod, QuqParams, SpaceLayout, WeightQubCache};
use quq_tensor::linalg::isa::{self, Isa};
use quq_tensor::Tensor;
use quq_vit::{
    synthetic_image, Backend, Dataset, Fp32Backend, ModelConfig, Observed, Op, OpSite, Tap, Tapped,
    VitModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn recorder() -> MutexGuard<'static, ()> {
    static RECORDER: Mutex<()> = Mutex::new(());
    RECORDER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The toy model calibrated at W6/A6, and two images.
fn calibrated() -> (VitModel, PtqTables, Vec<Tensor>) {
    calibrated_at(PtqConfig::full_w6a6())
}

/// The toy model calibrated under `config`, and two images.
fn calibrated_at(config: PtqConfig) -> (VitModel, PtqTables, Vec<Tensor>) {
    let model = VitModel::synthesize(ModelConfig::test_config(), 33);
    let calib = Dataset::calibration(model.config(), 4, 1);
    let tables = calibrate(&QuqMethod::without_optimization(), &model, &calib, config).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let images = (0..2)
        .map(|_| synthetic_image(model.config(), &mut rng))
        .collect();
    (model, tables, images)
}

/// Counts the activation operands the integer backend quantizes and the
/// GEMMs it runs.
#[derive(Default)]
struct Counting {
    operands: u64,
    gemms: u64,
}

impl Tap for Counting {
    type Pending = ();

    fn before(&mut self, _: OpSite, op: &Op<'_>) {
        self.operands += 1 + u64::from(op.input_b().is_some());
        self.gemms += u64::from(op.is_gemm());
    }
}

/// Over a warm forward on a backend sharing a used cache: every activation
/// quantization opens exactly one `qub.encode` span, every GEMM one
/// `gemm.i16_nt` span, and nothing builds a decode table or decodes codes.
#[test]
fn warm_forward_encodes_once_per_operand_and_builds_no_tables() {
    let _recorder = recorder();
    let (model, tables, images) = calibrated();
    let cache = Arc::new(WeightQubCache::new());
    quq_obs::set_enabled(true);
    let mut cold = IntegerBackend::with_cache(&tables, Arc::clone(&cache));
    model.forward_batch(&images, &mut cold).unwrap();

    let before = quq_obs::snapshot();
    let mut warm = Tapped::new(
        IntegerBackend::with_cache(&tables, cache),
        Counting::default(),
    );
    model.forward_batch(&images, &mut warm).unwrap();
    let warm = warm.tap();
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

/// Runs `images` through the span tap over a backend from `mk` with the
/// recorder off and then on, asserts the logits agree bit for bit, and
/// returns what the second run recorded.
fn on_off_delta<B: Backend>(
    model: &VitModel,
    images: &[Tensor],
    mk: impl Fn() -> B,
) -> quq_obs::Snapshot {
    quq_obs::set_enabled(false);
    let off = model
        .forward_batch(images, &mut Tapped::new(mk(), Observed))
        .unwrap();
    quq_obs::set_enabled(true);
    let before = quq_obs::snapshot();
    let on = model
        .forward_batch(images, &mut Tapped::new(mk(), Observed))
        .unwrap();
    let delta = quq_obs::snapshot().delta_since(&before);
    quq_obs::set_enabled(false);
    for (i, (off, on)) in off.iter().zip(&on).enumerate() {
        assert_eq!(off.data(), on.data(), "image {i}: recorder moved a bit");
    }
    delta
}

/// The recorder only watches: a warm integer forward, the fp32 one and the
/// fake-quant one give the same bits with it off and on, and the spans
/// the `Observed` tap records cover every op kind, every block, and the
/// sites outside the blocks.
#[test]
fn recorder_changes_no_bit_and_observed_spans_cover_every_site() {
    let _recorder = recorder();
    let (model, tables, images) = calibrated();
    let cache = Arc::new(WeightQubCache::new());
    let int = || IntegerBackend::with_cache(&tables, Arc::clone(&cache));
    model.forward_batch(&images, &mut int()).unwrap();
    let deltas = [
        ("integer", on_off_delta(&model, &images, int)),
        ("fp32", on_off_delta(&model, &images, Fp32Backend::new)),
        (
            "fake-quant",
            on_off_delta(&model, &images, || tables.backend()),
        ),
    ];

    let ops = [
        "op.linear",
        "op.matmul",
        "op.matmul_nt",
        "op.softmax",
        "op.gelu",
        "op.layer_norm",
        "op.add",
    ];
    for (backend, delta) in &deltas {
        let mut sites = Vec::new();
        for op in ops {
            let at = delta.hist_sites(op);
            assert!(!at.is_empty(), "{backend}: no {op} span");
            sites.extend(at);
        }
        for block in 0..model.config().total_depth() {
            let prefix = format!("block{block}.");
            assert!(
                sites.iter().any(|s| s.starts_with(&prefix)),
                "{backend}: no span in block {block}"
            );
        }
        for global in ["PatchEmbed", "FinalNorm", "Head"] {
            assert!(
                sites.iter().any(|s| s == global),
                "{backend}: no span at {global}"
            );
        }
    }
}

/// Whether `params` admits region tables, by the layout alone: no scale
/// below `1e-7`, and on each sign both spaces cover, the coarse scale at
/// least the fine one. Otherwise the two grids interleave, and from 4 bits
/// up that is more than three runs on that sign.
fn admits_region_tables(params: &QuqParams) -> bool {
    let ordered = |side: fn(&SpaceLayout) -> Option<f32>| match (
        side(&params.fine()),
        side(&params.coarse()),
    ) {
        (Some(fine), Some(coarse)) => coarse >= fine,
        _ => true,
    };
    params.base_delta() >= 1e-7
        && ordered(SpaceLayout::neg_delta)
        && ordered(SpaceLayout::pos_delta)
}

/// The encoder's region path carries the integer forward. Calibrated at
/// W6/A6 and at W8/A8, every quantizer whose layout admits region tables
/// has them, and on an AVX-512 kernel a cold forward (weights included)
/// sends under 1% of its groups of sixteen to the search. Other kernels
/// always search and count nothing. A change that keeps the bits but
/// loses the region path fails here.
#[test]
fn region_path_encodes_nearly_every_group_of_a_calibrated_forward() {
    let _recorder = recorder();
    let avx512 = matches!(isa::resolve(), Isa::Avx512 | Isa::Avx512Vnni);
    for config in [PtqConfig::full_w6a6(), PtqConfig::full_w8a8()] {
        let (model, tables, images) = calibrated_at(config);
        let params = tables
            .activations()
            .map(|(_, q)| q)
            .chain(tables.weight_quantizers().map(|(_, q)| q))
            .filter_map(|q| q.quq_params().copied());
        let (mut with, mut without) = (0, 0);
        for params in params {
            let has = QubCodec::new(params).has_region_tables();
            assert_eq!(has, admits_region_tables(&params), "{params:?}");
            if has {
                with += 1;
            } else {
                without += 1;
            }
        }
        assert!(
            with > without,
            "{config:?}: {with} quantizers with tables, {without} without"
        );

        quq_obs::set_enabled(true);
        let before = quq_obs::snapshot();
        model
            .forward_batch(&images, &mut IntegerBackend::new(&tables))
            .unwrap();
        let delta = quq_obs::snapshot().delta_since(&before);
        quq_obs::set_enabled(false);
        let region = delta.counter_total("qub.encode_region_groups");
        let fallback = delta.counter_total("qub.encode_fallback_groups");
        if avx512 {
            assert!(
                region > 0 && fallback * 100 < region + fallback,
                "{config:?}: {fallback} of {} groups searched",
                region + fallback
            );
        } else {
            assert_eq!((region, fallback), (0, 0), "{config:?}");
        }
    }
}
