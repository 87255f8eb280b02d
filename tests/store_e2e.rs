//! End-to-end artifact bit-identity: calibrate → save → open in a **fresh
//! process** → logits must be bit-identical to the in-memory model, on both
//! the fp32 and integer backends, serial (`QUQ_THREADS=1`) and pooled
//! (`QUQ_THREADS=4`).
//!
//! The fresh process matters: it proves the artifact alone carries every
//! bit the runtime needs (weights, QUQ parameter tables, per-site QUB
//! records) with no help from state left in the calibrating process. The
//! parent re-executes this same test binary filtered to
//! [`child_emit_logits`], which is a no-op unless `QUQ_STORE_E2E_CHILD`
//! points at an artifact; the child prints its logits as `f32::to_bits`
//! hex so the comparison is exact by construction.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use quq_accel::IntegerBackend;
use quq_core::pipeline::{calibrate, PtqConfig};
use quq_core::quantizer::QuqMethod;
use quq_store::{Artifact, ArtifactWriter, CodecChoice, MemStorage, Storage, WriteOptions};
use quq_vit::{Dataset, Fp32Backend, ModelConfig, VitModel};

const IMG_FILL: f32 = 0.25;

fn temp_artifact(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("quq-store-e2e-{}-{tag}.quqm", std::process::id()))
}

/// Child half: loads the artifact named by `QUQ_STORE_E2E_CHILD`, runs one
/// forward on the backend named by `QUQ_STORE_E2E_BACKEND`, and prints the
/// logits bit-exactly. Does nothing when run as part of a normal test
/// sweep (the env var is absent).
#[test]
fn child_emit_logits() {
    let Ok(path) = std::env::var("QUQ_STORE_E2E_CHILD") else {
        return;
    };
    let backend = std::env::var("QUQ_STORE_E2E_BACKEND").expect("QUQ_STORE_E2E_BACKEND");
    let artifact = Artifact::open(path.as_ref()).expect("open artifact");
    let (model, tables) = artifact.load_all().expect("load artifact");
    let img = model.config().dummy_image(IMG_FILL);
    let logits = match backend.as_str() {
        "fp32" => model.forward(&img, &mut Fp32Backend::new()),
        "int" => model.forward(&img, &mut IntegerBackend::new(&tables)),
        other => panic!("unknown backend {other}"),
    }
    .expect("forward");
    let bits: Vec<String> = logits
        .data()
        .iter()
        .map(|v| format!("{:08x}", v.to_bits()))
        .collect();
    println!("LOGITS {}", bits.join(" "));
}

/// Runs the child in a fresh process and returns its logits, recovered
/// bit-exactly from the `LOGITS` line.
fn fresh_process_logits(path: &PathBuf, backend: &str, threads: usize) -> Vec<f32> {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args(["--exact", "child_emit_logits", "--nocapture"])
        .env("QUQ_STORE_E2E_CHILD", path)
        .env("QUQ_STORE_E2E_BACKEND", backend)
        .env("QUQ_THREADS", threads.to_string())
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child ({backend}, {threads} threads) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // `--nocapture` interleaves our line with libtest's own "test … ok"
    // chatter (possibly on the same line), so match anywhere in the line.
    let line = stdout
        .lines()
        .find_map(|l| l.split_once("LOGITS ").map(|(_, rest)| rest))
        .unwrap_or_else(|| panic!("no LOGITS line in child output:\n{stdout}"));
    line.split_whitespace()
        .map(|h| f32::from_bits(u32::from_str_radix(h, 16).expect("hex logit")))
        .collect()
}

#[test]
fn fresh_process_logits_are_bit_identical_on_both_backends() {
    let config = ModelConfig::test_config();
    let model = VitModel::synthesize(config, 9);
    let calib = Dataset::calibration(model.config(), 4, 3);
    let tables = calibrate(
        &QuqMethod::without_optimization(),
        &model,
        &calib,
        PtqConfig::full_w8a8(),
    )
    .expect("calibration");

    let path = temp_artifact("bitident");
    ArtifactWriter::save(&model, &tables, &path).expect("save");

    let img = model.config().dummy_image(IMG_FILL);
    let want_fp32 = model
        .forward(&img, &mut Fp32Backend::new())
        .expect("fp32 forward");
    let want_int = model
        .forward(&img, &mut IntegerBackend::new(&tables))
        .expect("int forward");

    for threads in [1usize, 4] {
        let got_fp32 = fresh_process_logits(&path, "fp32", threads);
        assert_eq!(
            got_fp32.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want_fp32
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "fp32 logits diverge at {threads} threads"
        );
        let got_int = fresh_process_logits(&path, "int", threads);
        assert_eq!(
            got_int.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want_int
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "integer logits diverge at {threads} threads"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// The codec layer must be invisible to inference: the same model saved
/// raw and compressed yields bit-identical logits from fresh processes,
/// on both backends.
#[test]
fn compressed_artifact_matches_raw_in_fresh_processes() {
    let config = ModelConfig::test_config();
    let model = VitModel::synthesize(config, 9);
    let calib = Dataset::calibration(model.config(), 4, 3);
    let tables = calibrate(
        &QuqMethod::without_optimization(),
        &model,
        &calib,
        PtqConfig::full_w8a8(),
    )
    .expect("calibration");

    let raw_path = temp_artifact("raw");
    let raw = WriteOptions {
        codec: CodecChoice::Raw,
    };
    ArtifactWriter::save_with(&model, &tables, &raw_path, &raw).expect("raw save");

    let auto_path = temp_artifact("auto");
    let report = ArtifactWriter::save_with(&model, &tables, &auto_path, &WriteOptions::default())
        .expect("auto save");
    assert!(
        report.chunks.iter().any(|c| !c.stack.is_raw()),
        "the auto artifact compressed nothing — the comparison would be vacuous"
    );
    assert!(report.total_bytes < std::fs::metadata(&raw_path).expect("stat raw").len());

    for backend in ["fp32", "int"] {
        let from_raw = fresh_process_logits(&raw_path, backend, 1);
        let from_auto = fresh_process_logits(&auto_path, backend, 1);
        assert_eq!(
            from_raw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            from_auto.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{backend}: compressed logits diverge from the raw artifact"
        );
    }
    let _ = std::fs::remove_file(&raw_path);
    let _ = std::fs::remove_file(&auto_path);
}

/// Fake-quant execution over loaded tables fake-quantizes each weight from
/// the loaded model on first use, as calibrated tables do from the model
/// they were fitted on: the logits agree bit for bit.
#[test]
fn fake_quant_over_loaded_tables_matches_the_calibrated_bits() {
    let model = VitModel::synthesize(ModelConfig::test_config(), 9);
    let calib = Dataset::calibration(model.config(), 4, 3);
    let img = model.config().dummy_image(IMG_FILL);
    for config in [PtqConfig::full_w6a6(), PtqConfig::full_w8a8()] {
        let tables = calibrate(&QuqMethod::paper(), &model, &calib, config).expect("calibration");
        let storage = Arc::new(MemStorage::new());
        ArtifactWriter::save_on(&model, &tables, &*storage, "a.quqm").expect("save");
        let artifact = Artifact::open_on(storage as Arc<dyn Storage>, "a.quqm").expect("open");
        let (loaded_model, loaded_tables) = artifact.load_all().expect("load_all");
        let want = model.forward(&img, &mut tables.backend()).expect("forward");
        let got = loaded_model
            .forward(&img, &mut loaded_tables.backend())
            .expect("forward over loaded tables");
        let bits =
            |t: &quq_tensor::Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got),
            bits(&want),
            "W{}/A{}",
            config.bits_w,
            config.bits_a
        );
    }
}
