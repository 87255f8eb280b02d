//! The benchmark's `artifact_auto_bytes` gate, held in tier-1: the
//! `store_cycle` model saved under `auto` must not grow past the size the
//! gate was set at, and every large f32 chunk must take the entropy-coded
//! stack. A coder change that loses bytes fails here, not only in the
//! benchmark.

use quq_core::pipeline::{calibrate, PtqConfig};
use quq_core::quantizer::QuqMethod;
use quq_store::{ArtifactWriter, ChunkKind, CodecStack, MemStorage, WriteOptions};
use quq_vit::{Dataset, ModelConfig, ModelId, VitModel};

/// The bound of `artifact_auto_bytes` (bound 0 in `BENCHMARK.json`).
const AUTO_BYTES_GATE: u64 = 2_713_305;

#[test]
fn benchmark_model_saves_under_auto_within_the_size_gate() {
    // The benchmark's model: ViT-S at eval scale, its seed, its calibration.
    let model = VitModel::synthesize(ModelConfig::eval_scale(ModelId::VitS), 20240623);
    let calib = Dataset::calibration(model.config(), 4, 3);
    let tables = calibrate(
        &QuqMethod::without_optimization(),
        &model,
        &calib,
        PtqConfig::full_w6a6(),
    )
    .expect("calibration");
    let report = ArtifactWriter::save_on_with(
        &model,
        &tables,
        &MemStorage::new(),
        "vits",
        &WriteOptions::default(),
    )
    .expect("save");
    assert!(
        report.total_bytes <= AUTO_BYTES_GATE,
        "auto artifact is {} bytes, past the {AUTO_BYTES_GATE}-byte gate",
        report.total_bytes
    );
    let large_f32 = report
        .chunks
        .iter()
        .filter(|c| c.kind != ChunkKind::Qub && c.raw_len >= 10_000);
    let mut seen = 0;
    for chunk in large_f32 {
        assert_eq!(
            chunk.stack,
            CodecStack::shuffle_rc(4),
            "{} ({} bytes) stored as {}",
            chunk.key,
            chunk.raw_len,
            chunk.stack.describe()
        );
        seen += 1;
    }
    assert!(seen > 0, "the model has no f32 chunk of 10 KB or more");
}
