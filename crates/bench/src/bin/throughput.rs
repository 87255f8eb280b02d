//! Inference throughput benchmark: images/sec for FP32, fake-quant QUQ,
//! and integer-deployment QUQ execution across a `QUQ_THREADS` sweep,
//! emitting `BENCH_throughput.json`.
//!
//! ```text
//! cargo run --release -p quq-bench --bin throughput
//! cargo run --release -p quq-bench --bin throughput -- --metrics
//! QUQ_QUICK=1 cargo run --release -p quq-bench --bin throughput
//! QUQ_BENCH_OUT=/tmp/t.json cargo run --release -p quq-bench --bin throughput
//! ```
//!
//! The thread pool reads `QUQ_THREADS` once at first use, so the sweep
//! re-executes this binary as a child process per thread count
//! (`QUQ_SWEEP_OUT` marks child mode; children write JSON fragments the
//! parent aggregates). Each child:
//!
//! * asserts **bit-identical logits** between parallel and serial
//!   execution for every measured backend (the pool's determinism
//!   guarantee) — the run fails hard otherwise;
//! * asserts **bit-identical logits** with the `quq-obs` recorder on
//!   versus off (observability must never perturb the computation);
//! * measures three backends with the recorder enabled, wrapping each in
//!   [`quq_vit::Observed`] so per-site spans and the GEMM/cache/pool
//!   counters accumulate: `fp32` (exact), `quq-fakequant` (the functional
//!   PTQ model), and `quq` (the integer deployment path: QUB operands,
//!   pre-shifted packed panels, shared weight-decode cache). GEMM time is
//!   the summed `op.linear`/`op.matmul`/`op.matmul_nt` span time from the
//!   best repeat's snapshot delta;
//! * with `--metrics` (or `QUQ_METRICS=1`), embeds that snapshot delta as
//!   a per-layer/per-op breakdown under each backend's `"metrics"` key;
//! * times the packed integer GEMM ([`quq_core::matmul_nt_qub`]) against
//!   the pre-panel reference ([`quq_core::matmul_nt_qub_reference`]) on
//!   ViT-sized shapes at the child's thread count, verifying exact
//!   agreement, with a per-ISA breakdown (every host-supported kernel ISA
//!   forced via `QUQ_FORCE_ISA`, each re-verified bit-identical).
//!
//! `--list-isas` prints one supported kernel ISA per line and exits
//! (consumed by `scripts/check.sh` to drive its per-ISA test matrix).

use quq_accel::{IntegerBackend, WeightQubCache};
use quq_core::pipeline::{calibrate, PtqConfig, PtqTables};
use quq_core::quantizer::QuqMethod;
use quq_core::{matmul_nt_qub, matmul_nt_qub_reference, Pra, QubCodec};
use quq_obs::Snapshot;
use quq_tensor::rng::OutlierMixture;
use quq_tensor::{pool, Tensor};
use quq_vit::{
    evaluate_parallel, Backend, Dataset, Fp32Backend, ModelConfig, ModelId, Observed, VitModel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn quick() -> bool {
    std::env::var("QUQ_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Whether the per-layer metrics breakdown is embedded in the JSON. The
/// recorder itself is always enabled during measurement (so `gemm_seconds`
/// is available either way); the flag only controls report size.
fn metrics_enabled() -> bool {
    std::env::var("QUQ_METRICS")
        .map(|v| v == "1")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--metrics")
}

struct Measurement {
    backend: &'static str,
    seconds: f64,
    images_per_sec: f64,
    gemm_seconds: f64,
    /// Metrics delta over the best repeat.
    delta: Snapshot,
}

use quq_obs::report::gemm_seconds;

/// Times `repeats` runs of an evaluation and keeps the fastest, capturing
/// the `quq-obs` snapshot delta across each run.
fn measure<B: Backend, F: Fn() -> B + Sync>(
    backend: &'static str,
    model: &VitModel,
    eval: &Dataset,
    repeats: usize,
    factory: F,
) -> Measurement {
    let mut best: Option<(f64, Snapshot)> = None;
    for _ in 0..repeats {
        let before = quq_obs::snapshot();
        let t0 = Instant::now();
        evaluate_parallel(model, &factory, eval).expect("evaluate");
        let seconds = t0.elapsed().as_secs_f64();
        let delta = quq_obs::snapshot().delta_since(&before);
        if best.as_ref().is_none_or(|(s, _)| seconds < *s) {
            best = Some((seconds, delta));
        }
    }
    let (seconds, delta) = best.expect("at least one run");
    let images_per_sec = eval.len() as f64 / seconds;
    let gemm = gemm_seconds(&delta);
    println!("{backend:>13} {seconds:7.3}s  {images_per_sec:8.2} images/sec  (gemm {gemm:6.3}s)");
    Measurement {
        backend,
        seconds,
        images_per_sec,
        gemm_seconds: gemm,
        delta,
    }
}

/// Checks that the per-op span breakdown covers the whole model: every
/// backend op under some site, every block index, and the global sites.
fn sites_complete(delta: &Snapshot, depth: usize) -> bool {
    let op_names = [
        "op.linear",
        "op.matmul",
        "op.matmul_nt",
        "op.softmax",
        "op.gelu",
        "op.layer_norm",
        "op.add",
    ];
    let all: Vec<String> = op_names.iter().flat_map(|n| delta.hist_sites(n)).collect();
    op_names.iter().all(|n| !delta.hist_sites(n).is_empty())
        && (0..depth).all(|b| {
            let prefix = format!("block{b}.");
            all.iter().any(|s| s.starts_with(&prefix))
        })
        && ["PatchEmbed", "FinalNorm", "Head"]
            .iter()
            .all(|g| all.iter().any(|s| s == g))
}

/// Encodes one random QUB operand pair at a GEMM shape.
fn encode_pair(
    m: usize,
    k: usize,
    n: usize,
    bits: u32,
) -> (quq_core::QubTensor, quq_core::QubTensor) {
    let mut rng = StdRng::seed_from_u64(77);
    let av = OutlierMixture::new(0.05, 0.6, 0.02).sample_vec(&mut rng, m * k);
    let wv = OutlierMixture::new(0.02, 0.3, 0.01).sample_vec(&mut rng, n * k);
    let pa = Pra::with_defaults(bits).run(&av).params;
    let pw = Pra::with_defaults(bits).run(&wv).params;
    let qa = QubCodec::new(pa).encode_tensor(&Tensor::from_vec(av, &[m, k]).expect("shape"));
    let qw = QubCodec::new(pw).encode_tensor(&Tensor::from_vec(wv, &[n, k]).expect("shape"));
    (qa, qw)
}

fn time_best(reps: usize, f: &dyn Fn() -> Vec<i64>) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times the packed GEMM once per host-supported ISA (forced via
/// `QUQ_FORCE_ISA` in-process — the env is read on this thread, never by
/// pool workers), verifying each ISA's bytes against `reference`.
fn isa_breakdown_json(
    qa: &quq_core::QubTensor,
    qw: &quq_core::QubTensor,
    reference: &[i64],
    reference_seconds: f64,
    reps: usize,
) -> String {
    let mut parts = Vec::new();
    for &isa in quq_tensor::linalg::isa::supported() {
        std::env::set_var("QUQ_FORCE_ISA", isa.name());
        let warm = matmul_nt_qub(qa, qw);
        assert_eq!(warm.as_slice(), reference, "{} diverged", isa.name());
        let seconds = time_best(reps, &|| matmul_nt_qub(qa, qw));
        let speedup = reference_seconds / seconds;
        println!(
            "    {:>10}: {seconds:.4}s ({speedup:6.2}x vs reference)",
            isa.name()
        );
        parts.push(format!(
            "{{\"isa\": \"{}\", \"packed_seconds\": {seconds:.5}, \"speedup_vs_reference\": {speedup:.3}}}",
            isa.name()
        ));
    }
    std::env::remove_var("QUQ_FORCE_ISA");
    format!("[{}]", parts.join(", "))
}

/// Packed-vs-reference integer GEMM microbenchmark at the current thread
/// count, with a per-ISA, per-shape breakdown. Returns a JSON fragment.
fn int_gemm_microbench() -> String {
    let (shapes, reps): (&[(usize, usize, usize)], usize) = if quick() {
        (&[(32, 48, 48)], 2)
    } else {
        // Linear-layer shape (panel-heavy) and an attention-score shape
        // (skinny k), both ViT-S-sized.
        (&[(256, 384, 384), (197, 64, 197)], 5)
    };
    let bits = 6u32;
    let dispatched = quq_tensor::linalg::isa::resolve();
    let mut shape_jsons = Vec::new();
    let mut primary: Option<(f64, f64, f64)> = None;
    for &(m, k, n) in shapes {
        let (qa, qw) = encode_pair(m, k, n, bits);

        // Exactness gate: the packed kernel must reproduce the reference
        // accumulators bit-for-bit.
        let packed = matmul_nt_qub(&qa, &qw);
        let reference = matmul_nt_qub_reference(&qa, &qw);
        assert_eq!(packed, reference, "packed kernel diverged from reference");

        // Reference: decodes both operands on every call (PR 1 behavior).
        let reference_seconds = time_best(reps, &|| matmul_nt_qub_reference(&qa, &qw));
        // Packed: panels were cached above — the deployment steady state.
        let packed_seconds = time_best(reps, &|| matmul_nt_qub(&qa, &qw));
        let speedup = reference_seconds / packed_seconds;
        println!(
            "int GEMM {m}x{k}x{n} ({bits}-bit): reference {reference_seconds:.4}s, packed {packed_seconds:.4}s → {speedup:.2}x (dispatched: {})",
            dispatched.name()
        );
        let breakdown = isa_breakdown_json(&qa, &qw, &reference, reference_seconds, reps);
        if primary.is_none() {
            primary = Some((reference_seconds, packed_seconds, speedup));
        }
        shape_jsons.push(format!(
            "{{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"bits\": {bits}, \"reference_seconds\": {reference_seconds:.5}, \"packed_seconds\": {packed_seconds:.5}, \"speedup\": {speedup:.3}, \"isa_breakdown\": {breakdown}}}"
        ));
    }

    let (reference_seconds, packed_seconds, speedup) = primary.expect("at least one shape");
    let (m, k, n) = shapes[0];
    format!(
        "{{\"m\": {m}, \"k\": {k}, \"n\": {n}, \"bits\": {bits}, \"reference_seconds\": {reference_seconds:.5}, \"packed_seconds\": {packed_seconds:.5}, \"speedup\": {speedup:.3}, \"bit_identical_packed_vs_reference\": true, \"dispatched_isa\": \"{}\", \"shapes\": [{}]}}",
        dispatched.name(),
        shape_jsons.join(", ")
    )
}

fn setup(images: usize) -> (VitModel, Dataset, PtqTables) {
    let config = if quick() {
        ModelConfig::test_config()
    } else {
        ModelConfig::eval_scale(ModelId::VitS)
    };
    let model = VitModel::synthesize(config, 20240623);
    let eval = Dataset::teacher_labeled(&model, images, 7).expect("dataset");
    let calib = Dataset::calibration(model.config(), 4, 3);
    let tables = calibrate(
        &QuqMethod::without_optimization(),
        &model,
        &calib,
        PtqConfig::full_w6a6(),
    )
    .expect("calibration");
    (model, eval, tables)
}

/// Child mode: run every measurement at the pool size configured by
/// `QUQ_THREADS` and write a JSON fragment to `out_path`.
fn run_child(out_path: &str) {
    let threads = pool::num_threads();
    let (images, repeats) = if quick() { (8, 1) } else { (32, 2) };
    println!("-- child: {threads} pool thread(s), {images} images --");
    let (model, eval, tables) = setup(images);
    let weight_cache = Arc::new(WeightQubCache::new());
    let mk_int = || IntegerBackend::with_cache(&tables, Arc::clone(&weight_cache));

    // Determinism gate (also warms the shared weight cache): parallel
    // logits must equal the serial reference bit-for-bit per backend.
    for img in eval.images.iter().take(4) {
        let fp_par = model
            .forward(img, &mut Fp32Backend::new())
            .expect("forward");
        let fp_ser = pool::run_serial(|| {
            model
                .forward(img, &mut Fp32Backend::new())
                .expect("forward")
        });
        assert_eq!(
            fp_par.data(),
            fp_ser.data(),
            "FP32 parallel/serial logits diverged"
        );
        let fq_par = model.forward(img, &mut tables.backend()).expect("forward");
        let fq_ser =
            pool::run_serial(|| model.forward(img, &mut tables.backend()).expect("forward"));
        assert_eq!(
            fq_par.data(),
            fq_ser.data(),
            "fake-quant parallel/serial logits diverged"
        );
        let int_par = model.forward(img, &mut mk_int()).expect("forward");
        let int_ser = pool::run_serial(|| model.forward(img, &mut mk_int()).expect("forward"));
        assert_eq!(
            int_par.data(),
            int_ser.data(),
            "integer parallel/serial logits diverged"
        );
    }
    println!("bit-identical parallel/serial logits: verified");

    // Observability gate: enabling the recorder must not change a single
    // bit of any backend's logits (spans and counters are read-only taps).
    for img in eval.images.iter().take(2) {
        quq_obs::set_enabled(false);
        let fp_off = model
            .forward(img, &mut Observed::new(Fp32Backend::new()))
            .expect("forward");
        let fq_off = model
            .forward(img, &mut Observed::new(tables.backend()))
            .expect("forward");
        let int_off = model
            .forward(img, &mut Observed::new(mk_int()))
            .expect("forward");
        quq_obs::set_enabled(true);
        let fp_on = model
            .forward(img, &mut Observed::new(Fp32Backend::new()))
            .expect("forward");
        let fq_on = model
            .forward(img, &mut Observed::new(tables.backend()))
            .expect("forward");
        let int_on = model
            .forward(img, &mut Observed::new(mk_int()))
            .expect("forward");
        assert_eq!(
            fp_off.data(),
            fp_on.data(),
            "FP32 logits changed with metrics on"
        );
        assert_eq!(
            fq_off.data(),
            fq_on.data(),
            "fake-quant logits changed with metrics on"
        );
        assert_eq!(
            int_off.data(),
            int_on.data(),
            "integer logits changed with metrics on"
        );
    }
    println!("bit-identical logits with metrics on/off: verified");

    // Measure with the recorder enabled: spans feed `gemm_seconds` and the
    // optional per-layer breakdown.
    quq_obs::set_enabled(true);
    let results = [
        measure("fp32", &model, &eval, repeats, || {
            Observed::new(Fp32Backend::new())
        }),
        measure("quq-fakequant", &model, &eval, repeats, || {
            Observed::new(tables.backend())
        }),
        measure("quq", &model, &eval, repeats, || Observed::new(mk_int())),
    ];
    let depth = model.config().total_depth();
    let complete = results.iter().all(|m| sites_complete(&m.delta, depth));
    assert!(complete, "per-op metrics breakdown is missing sites");
    let int_gemm = int_gemm_microbench();

    let embed_metrics = metrics_enabled();
    let mut json = format!(
        "{{\"threads\": {threads}, \"bit_identical_serial_parallel\": true, \"bit_identical_metrics_on_off\": true, \"metrics_sites_complete\": {complete}, \"int_gemm\": {int_gemm}, \"backends\": ["
    );
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { ", " } else { "" };
        json.push_str(&format!(
            "{{\"backend\": \"{}\", \"seconds\": {:.4}, \"images_per_sec\": {:.3}, \"gemm_seconds\": {:.4}",
            m.backend, m.seconds, m.images_per_sec, m.gemm_seconds
        ));
        if embed_metrics {
            json.push_str(&format!(", \"metrics\": {}", m.delta.to_json()));
        }
        json.push_str(&format!("}}{comma}"));
    }
    json.push_str("]}");
    std::fs::write(out_path, &json).expect("write sweep fragment");
}

/// Pulls a `"key": <number>` value out of a JSON fragment (the fragments
/// are machine-written by this binary, so plain string search suffices).
fn json_number(fragment: &str, key: &str, after: &str) -> f64 {
    let hay = &fragment[fragment.find(after).map_or(0, |i| i)..];
    let pat = format!("\"{key}\": ");
    let start = hay.find(&pat).expect("key present") + pat.len();
    let rest = &hay[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().expect("numeric value")
}

fn backend_rate(fragment: &str, backend: &str) -> f64 {
    json_number(
        fragment,
        "images_per_sec",
        &format!("\"backend\": \"{backend}\""),
    )
}

/// Parent mode: sweep `QUQ_THREADS`, spawn one child per count, aggregate.
fn run_parent() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep: Vec<usize> = if quick() {
        vec![1, 2]
    } else {
        vec![1, 2, 4, host]
    };
    sweep.sort_unstable();
    sweep.dedup();
    let model_name = if quick() { "test" } else { "ViT-S" };
    let images = if quick() { 8 } else { 32 };
    let metrics = metrics_enabled();
    println!(
        "model: {model_name} | images: {images} | host cores: {host} | sweep: {sweep:?} | metrics: {metrics}"
    );

    let exe = std::env::current_exe().expect("current exe");
    let mut fragments: Vec<String> = Vec::new();
    for &threads in &sweep {
        let out = std::env::temp_dir().join(format!("quq_sweep_{threads}.json"));
        let status = std::process::Command::new(&exe)
            .env("QUQ_THREADS", threads.to_string())
            .env("QUQ_SWEEP_OUT", &out)
            .env("QUQ_METRICS", if metrics { "1" } else { "0" })
            .status()
            .expect("spawn sweep child");
        assert!(
            status.success(),
            "sweep child for {threads} thread(s) failed"
        );
        fragments.push(std::fs::read_to_string(&out).expect("read sweep fragment"));
        let _ = std::fs::remove_file(&out);
    }
    for frag in &fragments {
        assert!(
            frag.contains("\"bit_identical_metrics_on_off\": true"),
            "child lost metrics on/off bit-identity"
        );
        assert!(
            frag.contains("\"metrics_sites_complete\": true"),
            "child metrics breakdown is missing sites"
        );
    }

    let rate_at = |idx: usize, backend: &str| backend_rate(&fragments[idx], backend);
    let last = fragments.len() - 1;
    let speedup_fp32 = rate_at(last, "fp32") / rate_at(0, "fp32");
    let speedup_quq = rate_at(last, "quq") / rate_at(0, "quq");
    let int_gemm_speedup = json_number(&fragments[0], "speedup", "\"int_gemm\"");
    println!(
        "thread-sweep speedup ({} vs 1 thread): fp32 {speedup_fp32:.2}x, quq {speedup_quq:.2}x",
        sweep[last]
    );
    println!("packed int GEMM vs reference at 1 thread: {int_gemm_speedup:.2}x");

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"model\": \"{model_name}\",\n"));
    json.push_str(&format!("  \"images\": {images},\n"));
    json.push_str(&format!("  \"host_cores\": {host},\n"));
    json.push_str(&format!(
        "  \"thread_sweep\": [{}],\n",
        sweep
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"bit_identical_serial_parallel\": true,\n");
    json.push_str("  \"bit_identical_metrics_on_off\": true,\n");
    json.push_str("  \"metrics_sites_complete\": true,\n");
    json.push_str(&format!("  \"metrics_embedded\": {metrics},\n"));
    json.push_str(&format!(
        "  \"int_gemm_speedup_packed_vs_reference\": {int_gemm_speedup:.3},\n"
    ));
    json.push_str("  \"sweep\": [\n");
    for (i, frag) in fragments.iter().enumerate() {
        let comma = if i + 1 < fragments.len() { "," } else { "" };
        json.push_str(&format!("    {frag}{comma}\n"));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"speedup_fp32\": {speedup_fp32:.3},\n"));
    json.push_str(&format!("  \"speedup_quq\": {speedup_quq:.3}\n"));
    json.push_str("}\n");
    let out_path =
        std::env::var("QUQ_BENCH_OUT").unwrap_or_else(|_| "BENCH_throughput.json".to_string());
    std::fs::write(&out_path, &json).expect("write throughput JSON");
    println!("wrote {out_path}");
}

fn main() {
    // `--list-isas`: print one kernel ISA per line (used by check.sh to
    // drive the per-ISA bit-identity matrix) and exit.
    if std::env::args().any(|a| a == "--list-isas") {
        for isa in quq_tensor::linalg::isa::supported() {
            println!("{}", isa.name());
        }
        return;
    }
    match std::env::var("QUQ_SWEEP_OUT") {
        Ok(path) => run_child(&path),
        Err(_) => run_parent(),
    }
}
