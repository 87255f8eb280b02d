//! Artifact-store benchmark and smoke utility: cold-start serving from a
//! QUQM artifact versus calibrating from scratch, emitting
//! `BENCH_store.json`.
//!
//! ```text
//! cargo run --release -p quq-bench --bin storebench                 # benchmark
//! QUQ_QUICK=1 QUQ_BENCH_OUT=/tmp/s.json cargo run ... --bin storebench
//! cargo run ... --bin storebench -- --save /tmp/m.quqm [--seed N] [--codec NAME]
//! cargo run ... --bin storebench -- --verify /tmp/m.quqm            # open + load (exit 1 on corruption)
//! cargo run ... --bin storebench -- --probe 127.0.0.1:7878 --artifact /tmp/m.quqm
//! cargo run ... --bin storebench -- --probe-multi 127.0.0.1:7878 \
//!     --artifact /tmp/a.quqm --artifact-b /tmp/b.quqm
//! ```
//!
//! The benchmark, per model scale (the tiny test config, plus eval-scale
//! ViT-S unless `QUQ_QUICK=1`):
//!
//! * times **calibrate-and-save** (synthesize → calibrate → write the
//!   artifact) against **open-and-serve-ready** (open the artifact →
//!   restore model + tables → pre-populate the weight-QUB cache — exactly
//!   `quq_serve::artifact_state`);
//! * asserts the cold-started model's logits are **bit-identical** to the
//!   in-memory calibrated model's on both the fp32 and integer backends;
//! * flips one byte of the artifact and asserts the store rejects it;
//! * sweeps the codec policies (`raw`, `auto`, `shuffle-lz`,
//!   `shuffle-rc`), recording per-stack artifact size, f32/QUB stored
//!   bytes, and open-to-ready time, and gates two claims at ViT-S scale:
//!   the auto policy shrinks f32 chunks ≥ 15%, and a raw artifact's
//!   mmap open beats the pre-mmap read-path baseline;
//! * reports the `store.*` observability counters for the run.
//!
//! `--save` accepts `--codec auto|raw|lz|rc|shuffle-lz|shuffle-rc`
//! (default `auto`).
//!
//! `--verify` exits non-zero with the structured `StoreError` on stderr
//! when the artifact fails validation — the corruption gate in
//! `scripts/check.sh` relies on this. `--probe` sends one inference to a
//! running server and asserts the response is bit-identical to the
//! artifact's own integer forward — the cold-start serving gate.
//! `--probe-multi` exercises the multi-model registry against a server
//! started with a resident-bytes budget: it `LOAD`s a second artifact as
//! model `"b"`, alternates inferences between the default model and `"b"`
//! asserting each stays bit-identical to its artifact's own forward
//! (forcing eviction churn when the budget fits only one model), checks
//! `LIST` reports at least one eviction, then `UNLOAD`s `"b"` and asserts
//! it is gone — the multi-model smoke gate in `scripts/check.sh`.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use quq_core::pipeline::{calibrate, PtqConfig, PtqTables};
use quq_core::quantizer::QuqMethod;
use quq_serve::{artifact_state, Client, InferResponse, ModelState};
use quq_store::{Artifact, ArtifactWriter, ChunkKind, CodecChoice, WriteOptions};
use quq_tensor::Tensor;
use quq_vit::{Backend, Dataset, Fp32Backend, ModelConfig, ModelId, VitModel};

fn quick() -> bool {
    std::env::var("QUQ_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn model_config(name: &str) -> ModelConfig {
    match name {
        "test" => ModelConfig::test_config(),
        "vits" => ModelConfig::eval_scale(ModelId::VitS),
        other => panic!("unknown --model {other} (want test|vits)"),
    }
}

fn calibrated(config: ModelConfig, seed: u64) -> (VitModel, PtqTables) {
    let model = VitModel::synthesize(config, seed);
    let calib = Dataset::calibration(model.config(), 8, 1);
    let tables = calibrate(
        &QuqMethod::without_optimization(),
        &model,
        &calib,
        PtqConfig::full_w8a8(),
    )
    .expect("calibration");
    (model, tables)
}

/// Runs one forward through a provider-built backend (the serving path).
fn provider_logits(state: &ModelState, img: &Tensor) -> Vec<f32> {
    let mut out = Vec::new();
    state.provider.with_backend(&mut |be| {
        let mut be: &mut dyn Backend = be;
        out = state
            .model
            .forward(img, &mut be)
            .expect("forward")
            .data()
            .to_vec();
    });
    out
}

/// The codec policies the `--codec` sweep measures.
const CODEC_POLICIES: [&str; 4] = ["raw", "auto", "shuffle-lz", "shuffle-rc"];

/// Writer options for a `--codec` policy name.
fn codec_options(name: &str) -> Option<WriteOptions> {
    CodecChoice::from_name(name).map(|codec| WriteOptions { codec })
}

struct StackResult {
    stack: &'static str,
    artifact_bytes: u64,
    f32_raw_bytes: u64,
    f32_stored_bytes: u64,
    qub_raw_bytes: u64,
    qub_stored_bytes: u64,
    open_ready_s: f64,
}

/// Saves one artifact per codec policy and measures its size split by
/// chunk kind plus its open-to-serve-ready time (best of 3, to damp fs
/// cache noise). The f32 totals cover tensors and both params tables —
/// the chunks the size-reduction gate is stated over.
fn codec_sweep(name: &'static str, config: ModelConfig, dir: &Path) -> Vec<StackResult> {
    let (model, tables) = calibrated(config, 20240623);
    let mut out = Vec::new();
    for stack in CODEC_POLICIES {
        let options = codec_options(stack).expect("sweep policy names parse");
        let path = dir.join(format!("storebench-{name}-{stack}.quqm"));
        let report =
            ArtifactWriter::save_with(&model, &tables, &path, &options).expect("sweep save");
        let f32_kinds = [
            ChunkKind::TensorF32,
            ChunkKind::ActivationParams,
            ChunkKind::WeightParams,
        ];
        let (f32_raw, f32_stored) = f32_kinds
            .iter()
            .map(|k| report.kind_totals(*k))
            .fold((0, 0), |(r, s), (kr, ks)| (r + kr, s + ks));
        let (qub_raw, qub_stored) = report.kind_totals(ChunkKind::Qub);
        let mut open_ready_s = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            let state = artifact_state(&path, "int").expect("sweep cold start");
            open_ready_s = open_ready_s.min(t.elapsed().as_secs_f64());
            drop(state);
        }
        let _ = std::fs::remove_file(&path);
        println!(
            "{name:>6} {stack:>10}: {:8} bytes | f32 {:7} -> {:7} | qub {:7} -> {:7} \
             | open+ready {:8.5}s",
            report.total_bytes, f32_raw, f32_stored, qub_raw, qub_stored, open_ready_s
        );
        out.push(StackResult {
            stack,
            artifact_bytes: report.total_bytes,
            f32_raw_bytes: f32_raw,
            f32_stored_bytes: f32_stored,
            qub_raw_bytes: qub_raw,
            qub_stored_bytes: qub_stored,
            open_ready_s,
        });
    }
    out
}

struct ScaleResult {
    name: &'static str,
    calibrate_and_save_s: f64,
    open_ready_s: f64,
    speedup: f64,
    artifact_bytes: u64,
    chunks: usize,
}

/// Benchmarks one model scale; returns the JSON fragment fields.
fn bench_scale(name: &'static str, config: ModelConfig, dir: &Path) -> ScaleResult {
    let path = dir.join(format!("storebench-{name}.quqm"));

    // Hot path: everything from scratch, then persist. The headline
    // artifact stays raw (the mmap zero-copy policy): this benchmark's
    // claim is open-speed versus calibration, and the size-versus-decode
    // trade of the compressed stacks is measured by the codec sweep.
    let t0 = Instant::now();
    let (model, tables) = calibrated(config, 20240623);
    let raw_options = WriteOptions {
        codec: CodecChoice::Raw,
    };
    let artifact_bytes = ArtifactWriter::save_with(&model, &tables, &path, &raw_options)
        .expect("save")
        .total_bytes;
    let calibrate_and_save_s = t0.elapsed().as_secs_f64();

    // Cold path: serving-ready state purely from the artifact.
    let t1 = Instant::now();
    let cold_int = artifact_state(&path, "int").expect("cold start (int)");
    let open_ready_s = t1.elapsed().as_secs_f64();

    // Bit-identity gates, both backends.
    let img = model.config().dummy_image(0.3);
    let mut int_be = quq_accel::IntegerBackend::new(&tables);
    let warm_int = model.forward(&img, &mut int_be).expect("forward");
    assert_eq!(
        provider_logits(&cold_int, &img),
        warm_int.data(),
        "{name}: cold-start integer logits diverge from the calibrated model"
    );
    let cold_fp = artifact_state(&path, "fp32").expect("cold start (fp32)");
    let warm_fp = model
        .forward(&img, &mut Fp32Backend::new())
        .expect("forward");
    assert_eq!(
        provider_logits(&cold_fp, &img),
        warm_fp.data(),
        "{name}: cold-start fp32 logits diverge from the in-memory model"
    );

    // Corruption gate: one flipped byte must be rejected.
    let mut corrupt = std::fs::read(&path).expect("read artifact");
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let bad_path = dir.join(format!("storebench-{name}-corrupt.quqm"));
    std::fs::write(&bad_path, &corrupt).expect("write corrupt copy");
    let rejected = Artifact::open(&bad_path)
        .and_then(|a| a.load_all().map(|_| ()))
        .is_err();
    assert!(rejected, "{name}: corrupt artifact was not rejected");
    let _ = std::fs::remove_file(&bad_path);

    let chunks = Artifact::open(&path).expect("re-open").chunks().len();
    let _ = std::fs::remove_file(&path);

    let speedup = calibrate_and_save_s / open_ready_s;
    println!(
        "{name:>6}: calibrate+save {calibrate_and_save_s:7.3}s | open+ready {open_ready_s:7.4}s \
         | {speedup:6.1}x | {artifact_bytes} bytes, {chunks} chunks"
    );
    ScaleResult {
        name,
        calibrate_and_save_s,
        open_ready_s,
        speedup,
        artifact_bytes,
        chunks,
    }
}

fn run_bench() {
    quq_obs::set_enabled(true);
    let before = quq_obs::snapshot();
    let dir = std::env::temp_dir();
    let mut results = vec![bench_scale("test", ModelConfig::test_config(), &dir)];
    let mut sweeps = vec![(
        "test",
        codec_sweep("test", ModelConfig::test_config(), &dir),
    )];
    if !quick() {
        results.push(bench_scale(
            "ViT-S",
            ModelConfig::eval_scale(ModelId::VitS),
            &dir,
        ));
        let vits = results.last().expect("vits result");
        assert!(
            vits.speedup >= 5.0,
            "cold start must be ≥5x faster than calibrating at ViT-S scale, got {:.1}x",
            vits.speedup
        );
        let sweep = codec_sweep("ViT-S", ModelConfig::eval_scale(ModelId::VitS), &dir);
        // Gate (a): at eval scale the auto policy must shrink the f32
        // chunks (tensors + params tables) by ≥ 15%.
        let auto = sweep.iter().find(|s| s.stack == "auto").expect("auto row");
        assert!(
            auto.f32_stored_bytes * 100 <= auto.f32_raw_bytes * 85,
            "auto codec stored {} of {} f32 bytes — less than the required 15% reduction",
            auto.f32_stored_bytes,
            auto.f32_raw_bytes
        );
        // Gate (b): a raw-stack artifact (pure mmap + CRC open, no
        // decode) must open at least as fast as the copying read path did
        // before chunk reads went zero-copy (0.01782 s in the committed
        // baseline).
        let raw = sweep.iter().find(|s| s.stack == "raw").expect("raw row");
        assert!(
            raw.open_ready_s <= 0.01782,
            "raw mmap open-to-ready took {:.5}s — slower than the 0.01782s \
             pre-mmap read-path baseline",
            raw.open_ready_s
        );
        sweeps.push(("ViT-S", sweep));
    }
    let delta = quq_obs::snapshot().delta_since(&before);
    quq_obs::set_enabled(false);

    let counters: Vec<String> = [
        "store.bytes_written",
        "store.bytes_read",
        "store.chunk_loads",
        "store.checksum_failures",
    ]
    .iter()
    .map(|n| {
        let key = n.strip_prefix("store.").expect("store prefix");
        format!("\"{key}\": {}", delta.counter_total(n))
    })
    .collect();
    // Clean opens/loads must never trip a checksum; the corruption gate's
    // failed open increments the counter, so expect exactly one per scale.
    let failures = delta.counter_total("store.checksum_failures");
    assert_eq!(
        failures,
        results.len() as u64,
        "expected exactly one checksum failure per corruption gate"
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"quick\": {},\n", quick()));
    json.push_str("  \"cold_start_bit_identical_fp32\": true,\n");
    json.push_str("  \"cold_start_bit_identical_int\": true,\n");
    json.push_str("  \"corrupt_byte_rejected\": true,\n");
    json.push_str(&format!(
        "  \"store_counters\": {{{}}},\n",
        counters.join(", ")
    ));
    json.push_str("  \"scales\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"calibrate_and_save_seconds\": {:.4}, \
             \"open_and_serve_ready_seconds\": {:.5}, \"cold_start_speedup\": {:.2}, \
             \"artifact_bytes\": {}, \"chunks\": {}}}{comma}\n",
            r.name, r.calibrate_and_save_s, r.open_ready_s, r.speedup, r.artifact_bytes, r.chunks
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"codec_sweep\": [\n");
    for (i, (model, sweep)) in sweeps.iter().enumerate() {
        json.push_str(&format!("    {{\"model\": \"{model}\", \"stacks\": [\n"));
        for (j, s) in sweep.iter().enumerate() {
            let comma = if j + 1 < sweep.len() { "," } else { "" };
            let f32_reduction = 100.0 * (1.0 - s.f32_stored_bytes as f64 / s.f32_raw_bytes as f64);
            json.push_str(&format!(
                "      {{\"stack\": \"{}\", \"artifact_bytes\": {}, \
                 \"f32_raw_bytes\": {}, \"f32_stored_bytes\": {}, \
                 \"f32_reduction_percent\": {:.2}, \
                 \"qub_raw_bytes\": {}, \"qub_stored_bytes\": {}, \
                 \"open_to_ready_seconds\": {:.5}}}{comma}\n",
                s.stack,
                s.artifact_bytes,
                s.f32_raw_bytes,
                s.f32_stored_bytes,
                f32_reduction,
                s.qub_raw_bytes,
                s.qub_stored_bytes,
                s.open_ready_s
            ));
        }
        let comma = if i + 1 < sweeps.len() { "," } else { "" };
        json.push_str(&format!("    ]}}{comma}\n"));
    }
    json.push_str("  ]\n}\n");
    let out = std::env::var("QUQ_BENCH_OUT").unwrap_or_else(|_| "BENCH_store.json".to_string());
    std::fs::write(&out, &json).expect("write store JSON");
    println!("wrote {out}");
}

fn run_save(path: &str) -> ExitCode {
    let name = arg_value("--model").unwrap_or_else(|| "test".into());
    let seed = arg_value("--seed").map_or(20240623, |v| v.parse().expect("--seed"));
    let codec = arg_value("--codec").unwrap_or_else(|| "auto".into());
    let Some(options) = codec_options(&codec) else {
        eprintln!("unknown --codec {codec}");
        return ExitCode::FAILURE;
    };
    let (model, tables) = calibrated(model_config(&name), seed);
    match ArtifactWriter::save_with(&model, &tables, Path::new(path), &options) {
        Ok(report) => {
            println!(
                "saved {name} artifact to {path} ({} bytes, codec {codec})",
                report.total_bytes
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("save failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_verify(path: &str) -> ExitCode {
    match Artifact::open(Path::new(path)).and_then(|a| a.load_all().map(|loaded| (a, loaded))) {
        Ok((artifact, (model, _tables))) => {
            println!(
                "{path}: valid QUQM artifact ({} chunks, {} bytes, model {})",
                artifact.chunks().len(),
                artifact.size_bytes(),
                model.config().id
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: rejected: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_probe(addr: &str, artifact: &str) -> ExitCode {
    let state = match artifact_state(Path::new(artifact), "int") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("probe: cannot load {artifact}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let img = state.model.config().dummy_image(0.3);
    let expect = provider_logits(&state, &img);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("probe: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match client.infer(&img) {
        Ok(InferResponse::Ok { logits, .. }) if logits == expect => {
            println!("probe: served logits bit-identical to the artifact's integer forward");
            ExitCode::SUCCESS
        }
        Ok(InferResponse::Ok { .. }) => {
            eprintln!("probe: served logits diverge from the artifact's integer forward");
            ExitCode::FAILURE
        }
        Ok(other) => {
            eprintln!("probe: unexpected response {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("probe: request failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Multi-model registry smoke against a running server (started with a
/// resident-bytes budget that holds one model): LOAD, eviction churn with
/// bit-identical answers per model, LIST with evictions, UNLOAD.
fn run_probe_multi(addr: &str, artifact: &str, artifact_b: &str) -> ExitCode {
    macro_rules! fail {
        ($($t:tt)*) => {{ eprintln!($($t)*); return ExitCode::FAILURE; }};
    }
    let state_a = match artifact_state(Path::new(artifact), "int") {
        Ok(s) => s,
        Err(e) => fail!("probe-multi: cannot load {artifact}: {e}"),
    };
    let state_b = match artifact_state(Path::new(artifact_b), "int") {
        Ok(s) => s,
        Err(e) => fail!("probe-multi: cannot load {artifact_b}: {e}"),
    };
    let img = state_a.model.config().dummy_image(0.3);
    let expect_a = provider_logits(&state_a, &img);
    let expect_b = provider_logits(&state_b, &img);
    if expect_a == expect_b {
        fail!("probe-multi: the two artifacts produce identical logits — use distinct seeds");
    }

    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => fail!("probe-multi: cannot connect to {addr}: {e}"),
    };
    match client.load("b", artifact_b) {
        Ok(InferResponse::Reloaded) => {}
        Ok(other) => fail!("probe-multi: LOAD b: unexpected response {other:?}"),
        Err(e) => fail!("probe-multi: LOAD b failed: {e}"),
    }

    // Alternate between the two models: with a budget that fits one, each
    // switch evicts the other and lazily reloads it from its artifact.
    for round in 0..8 {
        for (name, expect) in [("", &expect_a), ("b", &expect_b)] {
            let label = if name.is_empty() { "default" } else { name };
            match client.infer_model(name, &img) {
                Ok(InferResponse::Ok { logits, .. }) if &logits == expect => {}
                Ok(InferResponse::Ok { .. }) => {
                    fail!("probe-multi: round {round}: {label} logits diverge from its artifact")
                }
                Ok(other) => fail!("probe-multi: round {round}: {label}: {other:?}"),
                Err(e) => fail!("probe-multi: round {round}: {label}: {e}"),
            }
        }
    }

    let snap = match client.list() {
        Ok(InferResponse::ModelList(snap)) => snap,
        Ok(other) => fail!("probe-multi: LIST: unexpected response {other:?}"),
        Err(e) => fail!("probe-multi: LIST failed: {e}"),
    };
    let names: Vec<&str> = snap.models.iter().map(|m| m.name.as_str()).collect();
    if !names.contains(&"default") || !names.contains(&"b") {
        fail!("probe-multi: LIST missing models: {names:?}");
    }
    if snap.evictions == 0 {
        fail!("probe-multi: no evictions under a one-model budget: {snap:?}");
    }

    match client.unload("b") {
        Ok(InferResponse::Unloaded) => {}
        Ok(other) => fail!("probe-multi: UNLOAD b: unexpected response {other:?}"),
        Err(e) => fail!("probe-multi: UNLOAD b failed: {e}"),
    }
    match client.infer_model("b", &img) {
        Ok(InferResponse::Error(_)) => {}
        Ok(other) => fail!("probe-multi: infer after UNLOAD: expected Error, got {other:?}"),
        Err(e) => fail!("probe-multi: infer after UNLOAD failed: {e}"),
    }
    match client.infer(&img) {
        Ok(InferResponse::Ok { logits, .. }) if logits == expect_a => {}
        Ok(other) => fail!("probe-multi: default after UNLOAD: {other:?}"),
        Err(e) => fail!("probe-multi: default after UNLOAD failed: {e}"),
    }

    println!(
        "probe-multi: LOAD/LIST/UNLOAD ok; both models bit-identical across {} evictions, {} loads",
        snap.evictions, snap.loads
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if let Some(path) = arg_value("--save") {
        return run_save(&path);
    }
    if let Some(path) = arg_value("--verify") {
        return run_verify(&path);
    }
    if let Some(addr) = arg_value("--probe") {
        let artifact = arg_value("--artifact").unwrap_or_else(|| {
            eprintln!("--probe requires --artifact PATH");
            std::process::exit(2);
        });
        return run_probe(&addr, &artifact);
    }
    if let Some(addr) = arg_value("--probe-multi") {
        let (Some(a), Some(b)) = (arg_value("--artifact"), arg_value("--artifact-b")) else {
            eprintln!("--probe-multi requires --artifact PATH and --artifact-b PATH");
            std::process::exit(2);
        };
        return run_probe_multi(&addr, &a, &b);
    }
    run_bench();
    ExitCode::SUCCESS
}
