//! The `quq-serve` binary driven the way an operator drives it:
//! `--save-model` writes an artifact under every codec policy,
//! `--model-path` cold-starts from them, a flipped byte stops the server
//! from starting, `--max-resident-bytes` evicts and reloads, a `--model
//! test` start-up serves what `--save-model` saves on either backend, and
//! the SLO flags (`--tenant-quota`, `--shadow`, `--metrics-json`) show in
//! what the server does and reports, and an unknown `--backend` is refused
//! before any work. Four server processes in all.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use quq_core::IntegerBackend;
use quq_serve::{Class, Client, InferOptions, InferResponse};
use quq_store::{Artifact, ArtifactWriter};
use quq_tensor::Tensor;
use quq_vit::{Dataset, Fp32Backend, ModelConfig, VitModel};

const BIN: &str = env!("CARGO_BIN_EXE_quq-serve");

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("quq-cli-{}-{tag}", std::process::id()))
}

/// `quq-serve --save-model PATH --model test --codec CODEC`, started.
fn spawn_save(path: &Path, codec: &str) -> Child {
    Command::new(BIN)
        .arg("--save-model")
        .arg(path)
        .args(["--model", "test", "--codec", codec])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap()
}

fn wait_ok(mut child: Child, what: &str) {
    assert!(child.wait().unwrap().success(), "{what} failed");
}

/// An artifact's logits for `img` on `backend` (`int` or `fp32`),
/// computed in this process.
fn artifact_logits(path: &Path, img: &Tensor, backend: &str) -> Vec<f32> {
    let (model, tables) = Artifact::open(path).unwrap().load_all().unwrap();
    let logits = match backend {
        "fp32" => model.forward(img, &mut Fp32Backend::new()),
        _ => model.forward(img, &mut IntegerBackend::new(&tables)),
    };
    logits.unwrap().data().to_vec()
}

/// A running `quq-serve` on an ephemeral port.
struct Served {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

fn serve(args: &[&str]) -> Served {
    let mut child = Command::new(BIN)
        .args(args)
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    // The first line is "serving on HOST:PORT (BACKEND); ...".
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .split_whitespace()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));
    Served {
        child,
        stdout,
        addr,
    }
}

impl Served {
    /// Closes stdin, which drains the server, and checks it exits cleanly.
    /// Stdout is read to the end so the post-drain summary never meets a
    /// closed pipe.
    fn drain(mut self) {
        drop(self.child.stdin.take());
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        assert!(self.child.wait().unwrap().success(), "server exit: {rest}");
    }
}

fn expect_ok(resp: InferResponse, what: &str) -> Vec<f32> {
    match resp {
        InferResponse::Ok { logits, .. } => logits,
        other => panic!("{what}: {other:?}"),
    }
}

#[test]
fn saved_artifacts_serve_bit_exactly_under_every_codec_and_across_evictions() {
    let codecs = ["raw", "auto", "shuffle-lz", "shuffle-rc"];
    let paths: Vec<PathBuf> = codecs.iter().map(|c| temp(&format!("{c}.quqm"))).collect();
    let saves: Vec<Child> = codecs
        .iter()
        .zip(&paths)
        .map(|(codec, path)| spawn_save(path, codec))
        .collect();

    // A second model with other weights, saved in this process.
    let b_path = temp("b.quqm");
    let b_model = VitModel::synthesize(ModelConfig::test_config(), 6);
    let calib = Dataset::calibration(b_model.config(), 8, 1);
    let b_tables = quq_core::calibrate(
        &quq_core::QuqMethod::without_optimization(),
        &b_model,
        &calib,
        quq_core::PtqConfig::full_w8a8(),
    )
    .unwrap();
    ArtifactWriter::save(&b_model, &b_tables, &b_path).unwrap();
    for (save, codec) in saves.into_iter().zip(codecs) {
        wait_ok(save, &format!("--save-model --codec {codec}"));
    }

    let raw = &paths[0];
    let raw_bytes = std::fs::read(raw).unwrap();
    for (codec, path) in codecs.iter().zip(&paths).skip(1) {
        let bytes = std::fs::read(path).unwrap();
        assert_ne!(bytes, raw_bytes, "--codec {codec} wrote the raw artifact");
    }
    let img = ModelConfig::test_config().dummy_image(0.3);
    let want = artifact_logits(raw, &img, "int");
    let want_b = artifact_logits(&b_path, &img, "int");
    assert_ne!(want, want_b, "the two models must be told apart");

    // A budget that holds one raw model and never two, so every switch
    // between models evicts one and lazily reloads another.
    let largest = paths
        .iter()
        .chain([&b_path])
        .map(|p| std::fs::metadata(p).unwrap().len())
        .max()
        .unwrap();
    let cap = (largest * 3 / 2).to_string();
    let extra: Vec<String> = codecs[1..]
        .iter()
        .zip(&paths[1..])
        .map(|(codec, path)| format!("{codec}={}", path.display()))
        .chain([format!("b={}", b_path.display())])
        .collect();
    let raw_arg = raw.display().to_string();
    let mut args = vec!["--model-path", &raw_arg, "--max-resident-bytes", &cap];
    for e in &extra {
        args.extend(["--model-path", e]);
    }
    let server = serve(&args);
    let mut client = Client::connect(server.addr).unwrap();
    let models = [
        ("", &want),
        ("auto", &want),
        ("shuffle-lz", &want),
        ("shuffle-rc", &want),
        ("b", &want_b),
    ];
    for round in 0..2 {
        for (name, expect) in models {
            let what = format!("round {round}, model {name:?}");
            let logits = expect_ok(client.infer_model(name, &img).unwrap(), &what);
            assert_eq!(&logits, expect, "{what}: logits not bit-exact");
        }
    }
    match client.list().unwrap() {
        InferResponse::ModelList(snap) => assert!(snap.evictions > 0, "no evictions: {snap:?}"),
        other => panic!("LIST: {other:?}"),
    }
    drop(client);
    server.drain();

    // One flipped byte: the server must refuse to start.
    let mut bytes = raw_bytes;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let bad = temp("bad.quqm");
    std::fs::write(&bad, bytes).unwrap();
    let status = Command::new(BIN)
        .arg("--model-path")
        .arg(&bad)
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(!status.success(), "a corrupted artifact was served");

    for p in paths.iter().chain([&b_path, &bad]) {
        let _ = std::fs::remove_file(p);
    }
}

/// The `{"name": NAME, ...}` entries of a `--metrics-json` file, which
/// holds only non-zero counters and histograms.
fn entries<'a>(json: &'a str, name: &str) -> Vec<&'a str> {
    let key = format!("{{\"name\": \"{name}\"");
    json.match_indices(&key)
        .map(|(at, _)| {
            let entry = &json[at..];
            &entry[..=entry.find('}').unwrap()]
        })
        .collect()
}

/// The integer after `"key": ` in one metrics entry.
fn field(entry: &str, key: &str) -> u64 {
    let at = entry.find(&format!("\"{key}\": ")).unwrap() + key.len() + 4;
    let digits = entry[at..].split(|c: char| !c.is_ascii_digit()).next();
    digits.unwrap().parse().unwrap()
}

#[test]
fn quota_and_shadow_flags_shield_the_compliant_tenant_and_reach_the_metrics() {
    let artifact = temp("slo.quqm");
    wait_ok(spawn_save(&artifact, "raw"), "--save-model");
    let metrics = temp("slo-metrics.json");
    let path = artifact.display().to_string();
    let cand = format!("cand={path}");
    let metrics_arg = metrics.display().to_string();
    let server = serve(&[
        "--model-path",
        &path,
        "--model-path",
        &cand,
        "--workers",
        "1",
        "--max-batch",
        "4",
        "--queue",
        "8",
        "--tenant-quota",
        "25",
        "--shadow",
        "cand=0.25",
        "--metrics-json",
        &metrics_arg,
    ]);
    let img = ModelConfig::test_config().dummy_image(0.3);
    let want = artifact_logits(&artifact, &img, "int");
    let hog_opts = InferOptions {
        class: Class::Batch,
        tenant: "hog".into(),
        ..InferOptions::default()
    };
    let well_opts = InferOptions {
        class: Class::Interactive,
        tenant: "well".into(),
        ..InferOptions::default()
    };

    let stop = AtomicBool::new(false);
    let (flooded_tx, flooded) = mpsc::channel();
    let well = std::thread::scope(|s| {
        // The hog keeps 64 batch-class requests in flight, far past the
        // 8-deep queue and its 25 req/s quota, until told to stop.
        let hog = s.spawn(|| {
            let mut c = Client::connect(server.addr).unwrap();
            let (mut inflight, mut shed) = (0, 0);
            while !stop.load(Ordering::SeqCst) {
                while inflight < 64 {
                    c.send_infer_with("", &img, &hog_opts).unwrap();
                    inflight += 1;
                }
                let (_, resp) = c.recv_response().unwrap();
                inflight -= 1;
                match resp {
                    InferResponse::Ok { .. } => {}
                    InferResponse::Overloaded => {
                        shed += 1;
                        if shed == 1 {
                            flooded_tx.send(()).unwrap();
                        }
                    }
                    other => panic!("hog: {other:?}"),
                }
            }
            for _ in 0..inflight {
                c.recv_response().unwrap();
            }
        });
        // Once the hog has been shed the queue is full; the compliant
        // tenant then sends one request at a time, inside its quota. Its
        // errors are returned, not raised, so the hog is always stopped.
        let well = flooded.recv_timeout(Duration::from_secs(60)).map(|()| {
            let mut c = Client::connect(server.addr)?;
            (0..12)
                .map(|_| c.infer_with("", &img, &well_opts))
                .collect::<std::io::Result<Vec<_>>>()
        });
        stop.store(true, Ordering::SeqCst);
        hog.join().unwrap();
        well
    });
    let well = well.expect("the hog was never shed").unwrap();
    for (i, resp) in well.into_iter().enumerate() {
        let what = format!("compliant request {i}");
        assert_eq!(expect_ok(resp, &what), want, "{what}: logits not bit-exact");
    }
    server.drain();

    let json = std::fs::read_to_string(&metrics).unwrap();
    for counter in [
        "serve.accepted",
        "serve.shed",
        "sched.quota_shed",
        "sched.idle_ship",
        "shadow.mirrored",
    ] {
        assert!(!entries(&json, counter).is_empty(), "{counter} missing");
    }
    // Recorded per provider: the integer one is `quq-int`.
    let at_int = |hist| {
        entries(&json, hist)
            .into_iter()
            .find(|e| e.contains("\"site\": \"quq-int\""))
            .unwrap_or_else(|| panic!("{hist} missing at quq-int"))
    };
    at_int("serve.e2e");
    at_int("serve.queue_depth");
    let batches = at_int("serve.batch_size");
    assert!(
        field(batches, "sum") > field(batches, "count"),
        "no batch held more than one request: {batches}"
    );
    let waits = entries(&json, "serve.queue_wait");
    for tenant in [":well\"", ":hog\""] {
        assert!(
            waits.iter().any(|e| e.contains(tenant)),
            "no serve.queue_wait site for {tenant}: {waits:?}"
        );
    }
    let _ = std::fs::remove_file(&artifact);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn model_test_start_ups_serve_the_bits_of_the_saved_artifact() {
    let artifact = temp("test.quqm");
    wait_ok(spawn_save(&artifact, "auto"), "--save-model --model test");
    let img = ModelConfig::test_config().dummy_image(0.3);
    let metrics = temp("test-metrics.json");
    let metrics_arg = metrics.display().to_string();
    for backend in ["int", "fp32"] {
        let server = serve(&[
            "--model",
            "test",
            "--backend",
            backend,
            "--metrics-json",
            &metrics_arg,
        ]);
        let mut client = Client::connect(server.addr).unwrap();
        let logits = expect_ok(client.infer(&img).unwrap(), backend);
        let want = artifact_logits(&artifact, &img, backend);
        assert_eq!(logits, want, "--backend {backend}: logits not bit-exact");
        drop(client);
        server.drain();
        // The model was built through the artifact reader, in memory.
        let json = std::fs::read_to_string(&metrics).unwrap();
        let loads = entries(&json, "store.chunk_loads");
        assert!(
            loads.iter().any(|e| field(e, "value") > 0),
            "--backend {backend}: no store.chunk_loads in {json}"
        );
    }
    let _ = std::fs::remove_file(&artifact);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn unknown_backend_is_refused_before_any_work() {
    let out = Command::new(BIN)
        .args([
            "--model",
            "test",
            "--backend",
            "bogus",
            "--addr",
            "127.0.0.1:0",
        ])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success(), "--backend bogus was served");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("calibrating"),
        "work before refusing: {stderr}"
    );
    assert!(
        stderr.contains("bogus"),
        "the error names the value: {stderr}"
    );
    assert!(
        !stderr.contains("Unsupported("),
        "a Debug-form error: {stderr}"
    );
}
