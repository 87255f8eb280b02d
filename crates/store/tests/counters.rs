//! The store's `quq_obs` counters. This file holds one test so that no
//! other test in its process records while it reads the deltas.

use quq_core::pipeline::{calibrate, PtqConfig};
use quq_core::quantizer::QuqMethod;
use quq_obs::Snapshot;
use quq_store::{Artifact, ArtifactWriter};
use quq_vit::{Dataset, ModelConfig, VitModel};

/// The counter deltas `f` causes, with the recorder on.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    quq_obs::set_enabled(true);
    let before = quq_obs::snapshot();
    let out = f();
    let delta = quq_obs::snapshot().delta_since(&before);
    quq_obs::set_enabled(false);
    (out, delta)
}

#[test]
fn save_and_load_move_the_byte_counters_and_one_flip_counts_one_failure() {
    let model = VitModel::synthesize(ModelConfig::test_config(), 11);
    let calib = Dataset::calibration(model.config(), 4, 3);
    let tables = calibrate(
        &QuqMethod::without_optimization(),
        &model,
        &calib,
        PtqConfig::full_w8a8(),
    )
    .unwrap();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("quqm-counters-{}.quqm", std::process::id()));

    let (written, saved) = counted(|| ArtifactWriter::save(&model, &tables, &path).unwrap());
    assert_eq!(saved.counter_total("store.bytes_written"), written);

    let (_, loaded) = counted(|| Artifact::open(&path).unwrap().load_all().unwrap());
    assert!(loaded.counter_total("store.bytes_read") > 0);
    assert!(loaded.counter_total("store.chunk_loads") > 0);
    assert_eq!(loaded.counter_total("store.checksum_failures"), 0);

    // A flip in the header, in a chunk and in the last block (the last
    // QUB record, which a cold start reads after `load_all`): each is
    // covered by exactly one CRC, so each counts exactly one failure.
    let bytes = std::fs::read(&path).unwrap();
    let bad = dir.join(format!("quqm-counters-{}-bad.quqm", std::process::id()));
    for at in [5, bytes.len() / 2, bytes.len() - 1] {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x40;
        std::fs::write(&bad, &flipped).unwrap();
        let (rejected, delta) = counted(|| {
            let art = Artifact::open(&bad)?;
            art.load_all()?;
            art.qub_sites()
                .into_iter()
                .try_for_each(|site| art.load_qub(site).map(drop))
        });
        assert!(rejected.is_err(), "flip at byte {at} was accepted");
        assert_eq!(
            delta.counter_total("store.checksum_failures"),
            1,
            "flip at byte {at}"
        );
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&bad);
}
