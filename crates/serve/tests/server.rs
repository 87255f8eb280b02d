//! End-to-end tests of the serving path: correctness against the offline
//! forward, backpressure under overload, graceful drain, artifact
//! cold-start + hot swap by LOAD, the framing state machines — slow-client
//! dribble reassembly on the event loop, pipelining by request id, the
//! client's timeout resync — and the SLO scheduler: no batching delay
//! for a request that finds the worker idle, deadline-aware flushing and
//! expiry, interactive-over-batch displacement under
//! quota, shadow/canary mirroring + promotion, exactly-once replies
//! when shutdown lands mid-overload, and a panicking forward answered
//! with ERROR while the worker serves on.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use quq_serve::protocol::{
    decode_response, encode_infer_request_with, encode_ok_response, tag_response, write_frame,
};
use quq_serve::{
    artifact_state, AdminOp, BackendProvider, Class, Client, Fp32Provider, FrameDecoder,
    InferOptions, InferResponse, IntegerProvider, ServeConfig, ServeError, Server,
};
use quq_store::ArtifactWriter;
use quq_vit::{Backend, Fp32Backend, ModelConfig, Observed, Op, OpSite, Tap, Tapped, VitModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn test_model() -> Arc<VitModel> {
    Arc::new(VitModel::synthesize(ModelConfig::test_config(), 42))
}

fn images(model: &VitModel, n: usize, seed: u64) -> Vec<quq_tensor::Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| quq_vit::synthetic_image(model.config(), &mut rng))
        .collect()
}

#[test]
fn served_logits_match_offline_forward_bitwise() {
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(Fp32Provider),
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let imgs = images(&model, 6, 3);
    let mut client = Client::connect(server.local_addr()).unwrap();
    for img in &imgs {
        let offline = model.forward(img, &mut Fp32Backend::new()).unwrap();
        match client.infer(img).unwrap() {
            InferResponse::Ok { top1, logits } => {
                assert_eq!(logits, offline.data(), "served logits diverge from offline");
                let want = offline
                    .data()
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .unwrap()
                    .0 as u32;
                assert_eq!(top1, want);
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_are_batched_and_all_answered() {
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(Fp32Provider),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            max_wait: Duration::from_millis(5),
            queue_capacity: 64,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    let imgs = images(&model, 8, 9);
    let clients: Vec<_> = imgs
        .iter()
        .cloned()
        .map(|img| {
            let model = Arc::clone(&model);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let offline = model.forward(&img, &mut Fp32Backend::new()).unwrap();
                match c.infer(&img).unwrap() {
                    InferResponse::Ok { logits, .. } => assert_eq!(logits, offline.data()),
                    other => panic!("expected Ok, got {other:?}"),
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn integer_backend_serves_the_same_bits_as_offline() {
    let model = test_model();
    let calib = quq_vit::Dataset::calibration(model.config(), 4, 1);
    let tables = quq_core::pipeline::calibrate(
        &quq_core::QuqMethod::without_optimization(),
        &model,
        &calib,
        quq_core::pipeline::PtqConfig::full_w8a8(),
    )
    .unwrap();
    let tables = Arc::new(tables);
    let provider = Arc::new(IntegerProvider::new(Arc::clone(&tables)));
    let cache = Arc::clone(provider.cache());
    let server = Server::start(
        Arc::clone(&model),
        provider,
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let imgs = images(&model, 3, 5);
    let mut client = Client::connect(server.local_addr()).unwrap();
    for img in &imgs {
        let mut be = quq_accel::IntegerBackend::new(&tables);
        let offline = model.forward(img, &mut be).unwrap();
        match client.infer(img).unwrap() {
            InferResponse::Ok { logits, .. } => assert_eq!(logits, offline.data()),
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    assert!(!cache.is_empty(), "serving must populate the shared cache");
    server.shutdown();
}

#[test]
fn malformed_and_misshapen_requests_get_error_replies() {
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(Fp32Provider),
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Wrong image shape: an explicit error, not a dead connection.
    let bad = quq_tensor::Tensor::zeros(&[1, 4, 4]);
    match client.infer(&bad).unwrap() {
        InferResponse::Error(msg) => assert!(msg.contains("shape"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The connection survives and still serves good requests.
    let good = images(&model, 1, 2).remove(0);
    assert!(matches!(
        client.infer(&good).unwrap(),
        InferResponse::Ok { .. }
    ));
    server.shutdown();
}

/// An Fp32 provider that stalls each batch, so tests can fill the
/// admission queue deterministically.
struct SlowProvider {
    delay: Duration,
    batches: AtomicUsize,
}

impl BackendProvider for SlowProvider {
    fn name(&self) -> &'static str {
        "slow-fp32"
    }

    fn with_backend(&self, work: &mut dyn FnMut(&mut dyn Backend)) {
        std::thread::sleep(self.delay);
        self.batches.fetch_add(1, Ordering::SeqCst);
        let mut be = Tapped::new(Fp32Backend::new(), Observed);
        work(&mut be);
    }
}

#[test]
fn overload_sheds_with_overload_reply_and_bounded_queue() {
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(SlowProvider {
            delay: Duration::from_millis(150),
            batches: AtomicUsize::new(0),
        }),
        ServeConfig {
            workers: 1,
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            queue_capacity: 2,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    let img = images(&model, 1, 4).remove(0);
    // Far more concurrent requests than queue (2) + in-flight batch (2)
    // can hold: the excess must be shed, not buffered.
    let n = 12;
    let replies: Vec<_> = (0..n)
        .map(|_| {
            let img = img.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let first = c.infer(&img).unwrap();
                // Regression: a shed request must produce exactly ONE
                // response — a duplicate (e.g. the bounced job's Reply
                // also answering as it drops) would surface here as an
                // unknown-id error on the reused connection.
                let second = c.infer(&img).unwrap();
                assert!(
                    matches!(second, InferResponse::Ok { .. } | InferResponse::Overloaded),
                    "connection unusable after shed: {second:?}"
                );
                first
            })
        })
        .collect();
    let mut ok = 0usize;
    let mut shed = 0usize;
    for r in replies {
        match r.join().unwrap() {
            InferResponse::Ok { .. } => ok += 1,
            InferResponse::Overloaded => shed += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(ok + shed, n);
    assert!(
        shed > 0,
        "queue capacity 2 with 12 bursty clients must shed"
    );
    assert!(ok > 0, "some requests must still be served");
    assert!(
        server.queue_depth() <= 2,
        "queue depth is bounded by config"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_admitted_requests_before_exit() {
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(SlowProvider {
            delay: Duration::from_millis(100),
            batches: AtomicUsize::new(0),
        }),
        ServeConfig {
            workers: 1,
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            queue_capacity: 16,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    let img = images(&model, 1, 6).remove(0);
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let img = img.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.infer(&img)
            })
        })
        .collect();
    // Let the requests get admitted, then shut down while they are queued
    // behind the slow worker.
    std::thread::sleep(Duration::from_millis(60));
    server.shutdown();
    let mut answered = 0usize;
    for c in clients {
        match c.join().unwrap() {
            Ok(InferResponse::Ok { .. }) => answered += 1,
            Ok(InferResponse::Draining) => {} // raced the drain at admission
            Ok(other) => panic!("unexpected reply {other:?}"),
            Err(e) => panic!("client error during drain: {e}"),
        }
    }
    assert!(
        answered > 0,
        "requests admitted before shutdown must be completed, not dropped"
    );
}

/// Calibrates `seed`'s model and saves it as an artifact; returns the
/// model, its tables, and the artifact path.
fn saved_artifact(
    seed: u64,
    tag: &str,
) -> (Arc<VitModel>, Arc<quq_core::pipeline::PtqTables>, PathBuf) {
    let model = Arc::new(VitModel::synthesize(ModelConfig::test_config(), seed));
    let calib = quq_vit::Dataset::calibration(model.config(), 4, 1);
    let tables = quq_core::pipeline::calibrate(
        &quq_core::QuqMethod::without_optimization(),
        &model,
        &calib,
        quq_core::pipeline::PtqConfig::full_w8a8(),
    )
    .unwrap();
    let path = std::env::temp_dir().join(format!(
        "quq-serve-test-{}-{tag}-{seed}.quqm",
        std::process::id()
    ));
    ArtifactWriter::save(&model, &tables, &path).unwrap();
    (model, Arc::new(tables), path)
}

#[test]
fn cold_start_from_artifact_serves_bit_identical_logits() {
    let (model, tables, path) = saved_artifact(42, "coldstart");
    let state = artifact_state(&path, "int").unwrap();
    let server =
        Server::start_with_state(Arc::new(state), ServeConfig::default(), "127.0.0.1:0").unwrap();
    let imgs = images(&model, 3, 5);
    let mut client = Client::connect(server.local_addr()).unwrap();
    for img in &imgs {
        let mut be = quq_accel::IntegerBackend::new(&tables);
        let offline = model.forward(img, &mut be).unwrap();
        match client.infer(img).unwrap() {
            InferResponse::Ok { logits, .. } => assert_eq!(
                logits,
                offline.data(),
                "cold-started server diverges from the calibrated in-memory model"
            ),
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reload_hot_swaps_between_artifacts_under_concurrent_load() {
    let (model_a, tables_a, path_a) = saved_artifact(42, "reload-a");
    let (model_b, tables_b, path_b) = saved_artifact(77, "reload-b");

    let img = images(&model_a, 1, 8).remove(0);
    let logits_a = {
        let mut be = quq_accel::IntegerBackend::new(&tables_a);
        model_a.forward(&img, &mut be).unwrap().data().to_vec()
    };
    let logits_b = {
        let mut be = quq_accel::IntegerBackend::new(&tables_b);
        model_b.forward(&img, &mut be).unwrap().data().to_vec()
    };
    assert_ne!(logits_a, logits_b, "the two models must be distinguishable");

    let state = artifact_state(&path_a, "int").unwrap();
    let server = Server::start_with_state(
        Arc::new(state),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_capacity: 64,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();

    // Hammer the server from several clients while the swap happens. Every
    // response must be OK and must match exactly one of the two models —
    // never an error, a drop, or a mixed-model result.
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..4)
        .map(|_| {
            let img = img.clone();
            let stop = Arc::clone(&stop);
            let (logits_a, logits_b) = (logits_a.clone(), logits_b.clone());
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut answered = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    match c.infer(&img).unwrap() {
                        InferResponse::Ok { logits, .. } => {
                            assert!(
                                logits == logits_a || logits == logits_b,
                                "response matches neither model during the swap"
                            );
                            answered += 1;
                        }
                        other => panic!("dropped/errored under reload: {other:?}"),
                    }
                }
                answered
            })
        })
        .collect();

    // LOAD of the empty name is the hot swap of the default model.
    std::thread::sleep(Duration::from_millis(30));
    let mut admin = Client::connect(addr).unwrap();
    assert_eq!(
        admin.load("", path_b.to_str().unwrap()).unwrap(),
        InferResponse::Reloaded
    );
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::SeqCst);
    let answered: usize = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(answered > 0, "hammer clients must have been served");

    // Every request ever admitted to the default is counted once: the
    // swap keeps the default entry's request counter instead of
    // restarting it.
    let default_requests = |admin: &mut Client| match admin.list().unwrap() {
        InferResponse::ModelList(snap) => {
            snap.models
                .iter()
                .find(|m| m.name == "default")
                .expect("default listed")
                .requests
        }
        other => panic!("expected ModelList, got {other:?}"),
    };

    // Post-swap, responses come from model B.
    match admin.infer(&img).unwrap() {
        InferResponse::Ok { logits, .. } => assert_eq!(logits, logits_b),
        other => panic!("expected Ok, got {other:?}"),
    }
    assert_eq!(default_requests(&mut admin), answered as u64 + 1);

    // A failed load (missing file) reports an error and leaves B serving.
    match admin.load("", "/no/such/artifact.quqm").unwrap() {
        InferResponse::Error(msg) => assert!(msg.contains("load"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    match admin.infer(&img).unwrap() {
        InferResponse::Ok { logits, .. } => assert_eq!(logits, logits_b),
        other => panic!("expected Ok, got {other:?}"),
    }
    assert_eq!(default_requests(&mut admin), answered as u64 + 2);

    server.shutdown();
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

/// The full wire bytes (length prefix + payload) of one infer request.
fn wire_request(id: u32, img: &quq_tensor::Tensor) -> Vec<u8> {
    let payload = encode_infer_request_with(id, "", img, &InferOptions::default());
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&payload);
    wire
}

/// Reads whole response frames off `stream` until `want` have decoded.
fn read_responses(stream: &mut TcpStream, want: usize) -> Vec<(u32, InferResponse)> {
    let mut dec = FrameDecoder::new();
    let mut got = Vec::new();
    while got.len() < want {
        if let Some(frame) = dec.next_frame().expect("response stream stays framed") {
            got.push(decode_response(&frame).expect("response decodes"));
            continue;
        }
        let n = dec.read_from(stream).expect("read responses");
        assert!(n > 0, "server closed before all responses arrived");
    }
    got
}

#[test]
fn slow_client_dribble_is_reassembled_bit_exactly_by_the_event_loop() {
    // Requests delivered in arbitrary dribs and drabs — including a stall
    // inside a length prefix, long enough for any poll-interval read
    // timeout to fire mid-frame — must decode byte-for-byte and come back
    // with bit-exact logits. A stateless frame reader fails this.
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(Fp32Provider),
        ServeConfig::default(), // event loop
        "127.0.0.1:0",
    )
    .unwrap();
    let imgs = images(&model, 4, 11);
    let offline: Vec<Vec<f32>> = imgs
        .iter()
        .map(|img| {
            model
                .forward(img, &mut Fp32Backend::new())
                .unwrap()
                .data()
                .to_vec()
        })
        .collect();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut wire = Vec::new();
    for (i, img) in imgs.iter().enumerate() {
        wire.extend_from_slice(&wire_request(i as u32 + 1, img));
    }
    // Deterministic "hostile" chunking: tiny fragments, frame boundaries
    // straddled, with a 60 ms stall planted right inside the length prefix
    // of the second request.
    let mut lcg: u64 = 0x00DD_B0B5;
    let mut sent = 0usize;
    let first_prefix_of_second = wire_request(1, &imgs[0]).len() + 2;
    while sent < wire.len() {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let n = 1 + (lcg >> 33) as usize % 7;
        let end = (sent + n).min(wire.len());
        stream.write_all(&wire[sent..end]).unwrap();
        stream.flush().unwrap();
        if sent <= first_prefix_of_second && first_prefix_of_second < end {
            // Mid-prefix stall: a stateless reader with a read timeout
            // would drop the partial prefix here.
            std::thread::sleep(Duration::from_millis(60));
        } else if lcg & 0xF == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        sent = end;
    }

    let mut got = read_responses(&mut stream, imgs.len());
    got.sort_by_key(|(id, _)| *id);
    for (i, (id, resp)) in got.iter().enumerate() {
        assert_eq!(*id, i as u32 + 1, "every request answered exactly once");
        match resp {
            InferResponse::Ok { logits, .. } => assert_eq!(
                logits, &offline[i],
                "dribbled request {id} lost bit-exactness"
            ),
            other => panic!("request {id} got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_out_of_order_by_id() {
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(Fp32Provider),
        ServeConfig {
            workers: 2,
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            queue_capacity: 64,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let imgs = images(&model, 8, 21);
    let offline: Vec<Vec<f32>> = imgs
        .iter()
        .map(|img| {
            model
                .forward(img, &mut Fp32Backend::new())
                .unwrap()
                .data()
                .to_vec()
        })
        .collect();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // All eight in flight on one connection before any response is read.
    let ids: Vec<u32> = imgs.iter().map(|i| client.send_infer(i).unwrap()).collect();
    let mut answered = vec![false; imgs.len()];
    for _ in 0..imgs.len() {
        let (id, resp) = client.recv_response().unwrap();
        let slot = ids.iter().position(|&i| i == id).expect("known id");
        assert!(!answered[slot], "duplicate response for id {id}");
        answered[slot] = true;
        match resp {
            InferResponse::Ok { logits, .. } => assert_eq!(
                logits, offline[slot],
                "pipelined response {id} paired with the wrong request"
            ),
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    assert!(answered.iter().all(|&a| a), "every request answered");
    server.shutdown();
}

#[test]
fn timed_out_response_is_discarded_not_returned_to_the_next_call() {
    // Satellite regression: pre-fix, a response arriving after
    // `set_timeout` expired sat in the socket and was returned as the
    // answer to the *next* infer — a silent off-by-one desync. The mock
    // server below answers request 1 only after the client has given up
    // on it; the client's second call must get response 2, not response 1.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mock = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut dec = FrameDecoder::new();
        fn next(dec: &mut FrameDecoder, stream: &mut TcpStream) -> Vec<u8> {
            loop {
                if let Some(frame) = dec.next_frame().unwrap() {
                    return frame;
                }
                assert!(dec.read_from(stream).unwrap() > 0);
            }
        }
        let first = next(&mut dec, &mut stream);
        let id1 = quq_serve::protocol::request_id(&first);
        // Stall past the client's timeout, then answer the abandoned
        // request anyway — the classic slow backend.
        std::thread::sleep(Duration::from_millis(150));
        write_frame(&mut stream, &tag_response(id1, &encode_ok_response(&[1.0]))).unwrap();
        let second = next(&mut dec, &mut stream);
        let id2 = quq_serve::protocol::request_id(&second);
        write_frame(&mut stream, &tag_response(id2, &encode_ok_response(&[2.0]))).unwrap();
    });

    let img = quq_tensor::Tensor::zeros(&[3, 16, 16]);
    let mut client = Client::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_millis(40))).unwrap();
    let e = client.infer(&img).expect_err("first call must time out");
    assert!(
        matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "unexpected error {e:?}"
    );
    client.set_timeout(Some(Duration::from_secs(5))).unwrap();
    match client.infer(&img).unwrap() {
        InferResponse::Ok { logits, .. } => assert_eq!(
            logits,
            vec![2.0],
            "second call was answered with the first call's late response"
        ),
        other => panic!("expected Ok, got {other:?}"),
    }
    mock.join().unwrap();
}

#[test]
fn connections_after_shutdown_are_refused() {
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(Fp32Provider),
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    server.shutdown();
    // The listener is gone: either connect fails outright, or the stale
    // socket EOFs/errors on first use. Either way no service.
    if let Ok(mut c) = Client::connect(addr) {
        let img = quq_tensor::Tensor::zeros(&[3, 16, 16]);
        assert!(c.infer(&img).is_err(), "shut-down server must not serve");
    }
}

#[test]
fn load_unload_list_admin_ops_over_the_wire() {
    let (model_a, tables_a, path_a) = saved_artifact(42, "admin-a");
    let (model_b, tables_b, path_b) = saved_artifact(77, "admin-b");
    let img = images(&model_a, 1, 13).remove(0);
    let logits_a = {
        let mut be = quq_accel::IntegerBackend::new(&tables_a);
        model_a.forward(&img, &mut be).unwrap().data().to_vec()
    };
    let logits_b = {
        let mut be = quq_accel::IntegerBackend::new(&tables_b);
        model_b.forward(&img, &mut be).unwrap().data().to_vec()
    };
    assert_ne!(logits_a, logits_b);

    let state = artifact_state(&path_a, "int").unwrap();
    let server =
        Server::start_with_state(Arc::new(state), ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Unregistered name: an explicit error, not a dead connection.
    match client.infer_model("b", &img).unwrap() {
        InferResponse::Error(msg) => assert!(msg.contains("unknown model"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }

    // LOAD registers it; both models then serve their own bits.
    assert_eq!(
        client.load("b", path_b.to_str().unwrap()).unwrap(),
        InferResponse::Reloaded
    );
    match client.infer(&img).unwrap() {
        InferResponse::Ok { logits, .. } => assert_eq!(logits, logits_a),
        other => panic!("expected Ok, got {other:?}"),
    }
    match client.infer_model("b", &img).unwrap() {
        InferResponse::Ok { logits, .. } => assert_eq!(logits, logits_b),
        other => panic!("expected Ok, got {other:?}"),
    }

    // A name longer than the wire's 255-byte field is refused at
    // registration, so LIST below still decodes.
    match server.admin(AdminOp::Load {
        name: "n".repeat(256),
        path: path_b.display().to_string(),
    }) {
        Err(ServeError::NameTooLong(256)) => {}
        other => panic!("expected NameTooLong, got {other:?}"),
    }

    // LIST reflects both entries, resident, with request counts.
    match client.list().unwrap() {
        InferResponse::ModelList(snap) => {
            let names: Vec<&str> = snap.models.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, vec!["b", "default"], "sorted registry listing");
            assert!(snap.models.iter().all(|m| m.resident));
            assert!(snap.models.iter().all(|m| m.bytes > 0));
            assert!(snap.loads >= 1, "LOAD must count");
            let b = &snap.models[0];
            assert!(b.requests >= 1, "b served at least one request");
        }
        other => panic!("expected ModelList, got {other:?}"),
    }

    // A failed LOAD reports an error and leaves the registry untouched.
    match client.load("c", "/no/such/artifact.quqm").unwrap() {
        InferResponse::Error(msg) => assert!(msg.contains("load"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }

    // UNLOAD drops it; repeat unload and inference both error.
    assert_eq!(client.unload("b").unwrap(), InferResponse::Unloaded);
    match client.unload("b").unwrap() {
        InferResponse::Error(msg) => assert!(msg.contains("unknown model"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    match client.infer_model("b", &img).unwrap() {
        InferResponse::Error(msg) => assert!(msg.contains("unknown model"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The default model is untouched by b's lifecycle.
    match client.infer(&img).unwrap() {
        InferResponse::Ok { logits, .. } => assert_eq!(logits, logits_a),
        other => panic!("expected Ok, got {other:?}"),
    }

    server.shutdown();
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn registry_hammer_evicts_and_lazily_reloads_with_bit_identical_logits() {
    // The tentpole acceptance test: three models behind a resident-bytes
    // budget that holds roughly one of them, hammered concurrently. LRU
    // eviction and lazy reload churn underneath; every response must stay
    // bit-identical to its model's offline forward — including responses
    // served right after an eviction forced a reload from the artifact.
    let (model_a, tables_a, path_a) = saved_artifact(42, "hammer-a");
    let (model_b, tables_b, path_b) = saved_artifact(77, "hammer-b");
    let (model_c, tables_c, path_c) = saved_artifact(99, "hammer-c");

    let img = images(&model_a, 1, 17).remove(0);
    let offline = |model: &Arc<VitModel>, tables: &Arc<quq_core::pipeline::PtqTables>| {
        let mut be = quq_accel::IntegerBackend::new(tables);
        model.forward(&img, &mut be).unwrap().data().to_vec()
    };
    let logits_a = offline(&model_a, &tables_a);
    let logits_b = offline(&model_b, &tables_b);
    let logits_c = offline(&model_c, &tables_c);
    assert_ne!(logits_a, logits_b);
    assert_ne!(logits_b, logits_c);
    assert_ne!(logits_a, logits_c);

    let largest = [&path_a, &path_b, &path_c]
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .max()
        .unwrap();
    let state = artifact_state(&path_a, "int").unwrap();
    let server = Server::start_with_state(
        Arc::new(state),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_capacity: 64,
            // Fits one model (plus slack), never all three: every switch
            // of the hammers' attention forces an eviction + lazy reload.
            max_resident_bytes: largest * 3 / 2,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    server.set_default_source(&path_a);
    server
        .admin(AdminOp::Load {
            name: "b".into(),
            path: path_b.display().to_string(),
        })
        .unwrap();
    server
        .admin(AdminOp::Load {
            name: "c".into(),
            path: path_c.display().to_string(),
        })
        .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = [
        ("", logits_a.clone()),
        ("b", logits_b.clone()),
        ("c", logits_c.clone()),
    ]
    .into_iter()
    .map(|(name, want)| {
        let img = img.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut answered = 0usize;
            while !stop.load(Ordering::SeqCst) {
                match c.infer_model(name, &img).unwrap() {
                    InferResponse::Ok { logits, .. } => {
                        assert_eq!(
                            logits, want,
                            "model {name:?} served wrong bits under eviction churn"
                        );
                        answered += 1;
                    }
                    other => panic!("model {name:?} dropped/errored: {other:?}"),
                }
            }
            answered
        })
    })
    .collect();

    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::SeqCst);
    let answered: Vec<usize> = hammers.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        answered.iter().all(|&n| n > 0),
        "every model must have been served: {answered:?}"
    );

    let snap = match server.admin(AdminOp::List).unwrap() {
        InferResponse::ModelList(snap) => snap,
        other => panic!("expected ModelList, got {other:?}"),
    };
    assert_eq!(snap.models.len(), 3);
    assert!(
        snap.evictions >= 1,
        "budget of ~1 model across 3 hammered models must evict: {snap:?}"
    );
    assert!(
        snap.loads >= snap.evictions,
        "every eviction is followed by a lazy reload under constant traffic"
    );
    // The budget is a high-water mark: at rest at most one model (plus
    // slack) stays resident.
    let resident: u64 = snap
        .models
        .iter()
        .filter(|m| m.resident)
        .map(|m| m.bytes)
        .sum();
    assert!(
        resident <= largest * 3 / 2,
        "resident bytes {resident} exceed the budget {}",
        largest * 3 / 2
    );

    server.shutdown();
    for p in [&path_a, &path_b, &path_c] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn never_reading_pipelined_client_is_paused_not_buffered_unboundedly() {
    // Satellite regression: the per-connection WriteBuf was unbounded — a
    // client that pipelines requests but never reads its responses grew
    // server memory by the full response volume. Now the reactor stops
    // reading from such a connection at `write_high_water` and resumes
    // below half of it; no response is lost, none duplicated.
    use std::os::fd::AsRawFd;

    let model = test_model();
    const HIGH_WATER: usize = 32 * 1024;
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(Fp32Provider),
        ServeConfig {
            write_high_water: HIGH_WATER,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let img = images(&model, 1, 23).remove(0);
    let offline = model
        .forward(&img, &mut Fp32Backend::new())
        .unwrap()
        .data()
        .to_vec();

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    // Clamp the client's kernel receive buffer so unread responses back
    // up into the *server* quickly instead of vanishing into generous
    // default socket buffers.
    quq_serve::sys::set_recv_buffer(stream.as_raw_fd(), 4096).unwrap();

    // A burst of ~40k tiny bogus-opcode requests (each answered with an
    // error frame larger than the request) bracketed by real INFERs:
    // ~1.2 MB of responses against a 32 KiB backlog budget.
    const BOGUS: u32 = 40_000;
    let infer_ids: [u32; 4] = [1, 2, BOGUS + 3, BOGUS + 4];
    let mut wire = Vec::new();
    wire.extend_from_slice(&wire_request(1, &img));
    wire.extend_from_slice(&wire_request(2, &img));
    for id in 3..BOGUS + 3 {
        let mut payload = vec![0xEEu8]; // unknown opcode
        payload.extend_from_slice(&id.to_le_bytes());
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
    }
    wire.extend_from_slice(&wire_request(BOGUS + 3, &img));
    wire.extend_from_slice(&wire_request(BOGUS + 4, &img));
    let total = BOGUS as usize + 4;

    // The writer blocks once the paused server stops draining the socket,
    // so it runs on its own thread while this one watches the server.
    let mut write_half = stream.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        write_half.write_all(&wire).unwrap();
        write_half.flush().unwrap();
    });

    // The server must hit the high-water mark and pause the connection.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.write_pauses() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "server never paused a never-reading client"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Reading the responses drains the backlog; the reactor unpauses and
    // works through the rest of the burst. Every id must come back
    // exactly once, with the INFER responses still bit-exact.
    let mut stream = stream;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let responses = read_responses(&mut stream, total);
    writer.join().unwrap();

    let mut seen = std::collections::HashSet::new();
    for (id, resp) in &responses {
        assert!(seen.insert(*id), "duplicate response for id {id}");
        if infer_ids.contains(id) {
            match resp {
                InferResponse::Ok { logits, .. } => assert_eq!(
                    logits, &offline,
                    "INFER {id} lost bit-exactness under backpressure"
                ),
                other => panic!("INFER {id} got {other:?}"),
            }
        } else {
            match resp {
                InferResponse::Error(msg) => assert!(msg.contains("unknown opcode"), "{msg}"),
                other => panic!("bogus request {id} got {other:?}"),
            }
        }
    }
    assert_eq!(seen.len(), total, "every request answered exactly once");

    // The whole point: the backlog peak is a couple of frames over the
    // high-water mark, not the ~1.2 MB an unbounded buffer would hold.
    let peak = server.write_backlog_peak();
    assert!(
        peak >= HIGH_WATER as u64,
        "peak {peak} never reached the high-water mark — test lost its teeth"
    );
    assert!(
        peak <= (2 * HIGH_WATER) as u64,
        "write backlog peaked at {peak} bytes; an unbounded buffer leak"
    );
    server.shutdown();
}

/// An Fp32 provider whose every batch waits for a token from the test, so
/// the test decides what is queued when the worker picks up next.
struct GateProvider {
    entered: AtomicUsize,
    release: Mutex<mpsc::Receiver<()>>,
}

impl GateProvider {
    fn new() -> (Arc<GateProvider>, mpsc::Sender<()>) {
        let (tx, rx) = mpsc::channel();
        let provider = GateProvider {
            entered: AtomicUsize::new(0),
            release: Mutex::new(rx),
        };
        (Arc::new(provider), tx)
    }
}

impl BackendProvider for GateProvider {
    fn name(&self) -> &'static str {
        "gated-fp32"
    }

    fn with_backend(&self, work: &mut dyn FnMut(&mut dyn Backend)) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        self.release.lock().unwrap().recv().unwrap();
        let mut be = Tapped::new(Fp32Backend::new(), Observed);
        work(&mut be);
    }
}

/// Spins until `ready` holds; panics after 30 s.
fn await_state(what: &str, ready: impl Fn() -> bool) {
    let t0 = std::time::Instant::now();
    while !ready() {
        assert!(t0.elapsed() < Duration::from_secs(30), "never saw {what}");
        std::thread::yield_now();
    }
}

#[test]
fn one_request_at_a_time_never_waits_out_max_wait() {
    // The batching window opens only under load. A client that sends one
    // request at a time always finds the worker idle, so with a 10 s
    // max_wait every request still ships the moment it is admitted.
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(Fp32Provider),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            max_wait: Duration::from_secs(10),
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let t0 = std::time::Instant::now();
    for img in images(&model, 3, 30) {
        let offline = model.forward(&img, &mut Fp32Backend::new()).unwrap();
        match client.infer(&img).unwrap() {
            InferResponse::Ok { logits, .. } => assert_eq!(logits, offline.data()),
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "sequential requests waited for company: {elapsed:?} against a 10 s max_wait"
    );
    server.shutdown();
}

#[test]
fn deadline_flushes_a_partial_batch_ahead_of_max_wait() {
    // Once the worker comes back from a batch of two, the 10 s batching
    // window is open and a lone request would sit until it closes. A
    // 500 ms deadline must pull the flush forward: the scheduler ships
    // the partial batch at deadline − slack and the reply arrives
    // bit-exact long before the window closes. The slack is half the
    // deadline, so a late wake-up on a busy host still ships the request
    // before it expires.
    let model = test_model();
    let (provider, release) = GateProvider::new();
    let server = Server::start(
        Arc::clone(&model),
        Arc::clone(&provider) as Arc<dyn BackendProvider>,
        ServeConfig {
            workers: 1,
            max_batch: 8,
            max_wait: Duration::from_secs(10),
            queue_capacity: 16,
            deadline_slack: Duration::from_millis(250),
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let img = images(&model, 1, 31).remove(0);
    let offline = model.forward(&img, &mut Fp32Backend::new()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // The idle worker takes the first request alone; two more queue
    // behind it and then run as one batch.
    client.send_infer(&img).unwrap();
    await_state("the first batch in the worker", || {
        provider.entered.load(Ordering::SeqCst) == 1
    });
    client.send_infer(&img).unwrap();
    client.send_infer(&img).unwrap();
    await_state("two requests queued", || server.queue_depth() == 2);
    // One token per batch: these two, and the deadline request's below.
    for _ in 0..3 {
        release.send(()).unwrap();
    }
    for _ in 0..3 {
        match client.recv_response().unwrap().1 {
            InferResponse::Ok { logits, .. } => assert_eq!(logits, offline.data()),
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    assert_eq!(provider.entered.load(Ordering::SeqCst), 2);
    let opts = InferOptions {
        class: Class::Interactive,
        deadline: Some(Duration::from_millis(500)),
        tenant: "slo".into(),
    };
    let t0 = std::time::Instant::now();
    match client.infer_with("", &img, &opts).unwrap() {
        InferResponse::Ok { logits, .. } => assert_eq!(logits, offline.data()),
        other => panic!("expected Ok, got {other:?}"),
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline did not pull the flush forward: waited {elapsed:?} against a 10 s max_wait"
    );
    server.shutdown();
}

#[test]
fn expired_deadline_is_answered_without_running_inference() {
    // A request whose deadline passes while it is queued behind a slow
    // batch must answer DeadlineExceeded and must NOT be computed: the
    // provider's batch counter stays at the two batches the live
    // requests caused.
    let model = test_model();
    let provider = Arc::new(SlowProvider {
        delay: Duration::from_millis(300),
        batches: AtomicUsize::new(0),
    });
    let server = Server::start(
        Arc::clone(&model),
        Arc::clone(&provider) as Arc<dyn BackendProvider>,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            queue_capacity: 16,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    let img = images(&model, 1, 33).remove(0);

    // Occupy the single worker for 300 ms.
    let blocker = {
        let img = img.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.infer(&img).unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(80)); // blocker is in the worker
    let mut client = Client::connect(addr).unwrap();
    let opts = InferOptions {
        deadline: Some(Duration::from_millis(50)),
        ..InferOptions::default()
    };
    match client.infer_with("", &img, &opts).unwrap() {
        InferResponse::DeadlineExceeded => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(matches!(blocker.join().unwrap(), InferResponse::Ok { .. }));
    // The expired request never reached the backend; a healthy follow-up
    // on the same connection does.
    assert_eq!(provider.batches.load(Ordering::SeqCst), 1);
    assert!(matches!(
        client.infer(&img).unwrap(),
        InferResponse::Ok { .. }
    ));
    assert_eq!(provider.batches.load(Ordering::SeqCst), 2);
    server.shutdown();
}

#[test]
fn interactive_in_quota_tenant_displaces_over_quota_batch_traffic() {
    // A hog tenant floods batch-class traffic past its token-bucket
    // quota while the worker is pinned; the queue fills. A compliant
    // tenant's interactive request arriving at a full queue must still
    // be served — it displaces an over-quota batch job, which is shed —
    // and every hog request is answered exactly once (Ok or Overloaded).
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(SlowProvider {
            delay: Duration::from_millis(200),
            batches: AtomicUsize::new(0),
        }),
        ServeConfig {
            workers: 1,
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            queue_capacity: 4,
            tenant_rate: 2.0,
            tenant_burst: 2.0,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    let img = images(&model, 1, 35).remove(0);
    let offline = model.forward(&img, &mut Fp32Backend::new()).unwrap();

    let mut hog = Client::connect(addr).unwrap();
    let hog_opts = InferOptions {
        class: Class::Batch,
        deadline: None,
        tenant: "hog".into(),
    };
    let n = 10;
    let ids: Vec<u32> = (0..n)
        .map(|_| hog.send_infer_with("", &img, &hog_opts).unwrap())
        .collect();

    // Queue is now at capacity behind the pinned worker; the compliant
    // tenant's interactive request must still get through.
    std::thread::sleep(Duration::from_millis(50));
    let mut well = Client::connect(addr).unwrap();
    let well_opts = InferOptions {
        class: Class::Interactive,
        deadline: None,
        tenant: "well".into(),
    };
    match well.infer_with("", &img, &well_opts).unwrap() {
        InferResponse::Ok { logits, .. } => assert_eq!(
            logits,
            offline.data(),
            "compliant tenant's reply lost bit-exactness under displacement"
        ),
        other => panic!("compliant interactive request not served: {other:?}"),
    }

    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n {
        let (id, resp) = hog.recv_response().unwrap();
        assert!(ids.contains(&id), "unknown id {id}");
        assert!(seen.insert(id), "duplicate response for id {id}");
        match resp {
            InferResponse::Ok { logits, .. } => {
                assert_eq!(logits, offline.data());
                ok += 1;
            }
            InferResponse::Overloaded => shed += 1,
            other => panic!("hog request {id} got {other:?}"),
        }
    }
    assert_eq!(ok + shed, n, "every hog request answered exactly once");
    assert!(shed > 0, "flooding a 4-deep queue must shed");
    assert!(ok > 0, "in-quota hog traffic must still be served");
    server.shutdown();
}

#[test]
fn shadow_mirrors_deterministically_and_promotes_the_candidate() {
    let (model_a, tables_a, path_a) = saved_artifact(42, "shadow-a");
    let (model_b, tables_b, path_b) = saved_artifact(77, "shadow-b");
    let img = images(&model_a, 1, 37).remove(0);
    let logits_a = {
        let mut be = quq_accel::IntegerBackend::new(&tables_a);
        model_a.forward(&img, &mut be).unwrap().data().to_vec()
    };
    let logits_b = {
        let mut be = quq_accel::IntegerBackend::new(&tables_b);
        model_b.forward(&img, &mut be).unwrap().data().to_vec()
    };
    assert_ne!(logits_a, logits_b);

    let state = artifact_state(&path_a, "int").unwrap();
    let server =
        Server::start_with_state(Arc::new(state), ServeConfig::default(), "127.0.0.1:0").unwrap();
    server
        .admin(AdminOp::Load {
            name: "same".into(),
            path: path_a.display().to_string(),
        })
        .unwrap();
    server
        .admin(AdminOp::Load {
            name: "cand".into(),
            path: path_b.display().to_string(),
        })
        .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Shadow routing runs after the primary replies; poll the report
    // until the asynchronous compares catch up.
    let wait_mirrored = |client: &mut Client, want: u64| -> quq_serve::ShadowReport {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match client.shadow_status().unwrap() {
                InferResponse::Shadow(r) if r.mirrored >= want => return r,
                InferResponse::Shadow(r) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "shadow compares never caught up: {r:?}"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("expected Shadow, got {other:?}"),
            }
        }
    };

    // 25% mirror to a bit-identical candidate: the permille accumulator
    // selects exactly ⌊8/4⌋ = 2 of 8 requests, and every compare agrees.
    match client.shadow_set("same", 0.25).unwrap() {
        InferResponse::Shadow(r) => {
            assert!(r.active);
            assert_eq!((r.name.as_str(), r.permille, r.mirrored), ("same", 250, 0));
        }
        other => panic!("expected Shadow, got {other:?}"),
    }
    for _ in 0..8 {
        match client.infer(&img).unwrap() {
            InferResponse::Ok { logits, .. } => assert_eq!(
                logits, logits_a,
                "primary reply changed while shadowing — mirroring must be zero-impact"
            ),
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    let r = wait_mirrored(&mut client, 2);
    assert_eq!(r.mirrored, 2, "250‰ of 8 requests is exactly 2");
    assert_eq!((r.agree, r.disagree), (2, 0), "identical model must agree");

    // Arming a different candidate resets the counters; a full mirror to
    // a *different* model still leaves every primary reply bit-exact.
    match client.shadow_set("cand", 1.0).unwrap() {
        InferResponse::Shadow(r) => assert_eq!((r.mirrored, r.agree, r.disagree), (0, 0, 0)),
        other => panic!("expected Shadow, got {other:?}"),
    }
    for _ in 0..4 {
        match client.infer(&img).unwrap() {
            InferResponse::Ok { logits, .. } => assert_eq!(logits, logits_a),
            other => panic!("expected Ok, got {other:?}"),
        }
    }
    let r = wait_mirrored(&mut client, 4);
    assert_eq!(r.agree + r.disagree, 4, "every mirrored request compared");

    // Abort disarms without touching the default model.
    match client.shadow_abort().unwrap() {
        InferResponse::Shadow(r) => assert!(!r.active),
        other => panic!("expected Shadow, got {other:?}"),
    }
    assert!(matches!(
        client.infer(&img).unwrap(),
        InferResponse::Ok { ref logits, .. } if *logits == logits_a
    ));

    // Promote installs the candidate as the default model.
    match client.shadow_set("cand", 1.0).unwrap() {
        InferResponse::Shadow(r) => assert!(r.active),
        other => panic!("expected Shadow, got {other:?}"),
    }
    match client.shadow_promote().unwrap() {
        InferResponse::Shadow(r) => assert!(!r.active, "promotion disarms the shadow"),
        other => panic!("expected Shadow, got {other:?}"),
    }
    match client.infer(&img).unwrap() {
        InferResponse::Ok { logits, .. } => {
            assert_eq!(logits, logits_b, "promoted candidate must serve as default")
        }
        other => panic!("expected Ok, got {other:?}"),
    }

    // Error paths: unknown candidate, shadowing the default into itself,
    // promoting with nothing armed.
    assert!(matches!(
        client.shadow_set("nope", 0.5).unwrap(),
        InferResponse::Error(_)
    ));
    assert!(matches!(
        client.shadow_set("", 0.5).unwrap(),
        InferResponse::Error(_)
    ));
    assert!(matches!(
        client.shadow_promote().unwrap(),
        InferResponse::Error(_)
    ));

    server.shutdown();
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

#[test]
fn shutdown_under_overload_answers_every_admitted_request_exactly_once() {
    // Satellite regression for the reactor sweep: a pipelined connection
    // that receives a DRAINING reply (which marks it close-after-flush)
    // used to be closed as soon as its write buffer drained — even with
    // admitted requests still in flight, whose replies were then dropped
    // on the floor. Here shutdown lands while the queue is at capacity
    // and shedding; every request written must still get exactly one
    // reply: Ok (bit-exact), Overloaded, or Draining — never silence,
    // never a duplicate, never a "worker dropped" error.
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(SlowProvider {
            delay: Duration::from_millis(150),
            batches: AtomicUsize::new(0),
        }),
        ServeConfig {
            workers: 1,
            max_batch: 2,
            max_wait: Duration::from_millis(1),
            queue_capacity: 4,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    let img = images(&model, 1, 39).remove(0);
    let offline = model.forward(&img, &mut Fp32Backend::new()).unwrap();

    const CONNS: usize = 3;
    const EARLY: u32 = 8; // per conn, written before shutdown
                          // One post-drain request per conn: its DRAINING reply marks the conn
                          // close-after-flush, and a conn with nothing else in flight may then
                          // close immediately — further writes would race the close.
    const LATE: u32 = 1;

    let mut streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            s
        })
        .collect();
    for (c, stream) in streams.iter_mut().enumerate() {
        for i in 0..EARLY {
            let id = (c as u32) * 100 + i + 1;
            stream.write_all(&wire_request(id, &img)).unwrap();
        }
        stream.flush().unwrap();
    }

    // Let the queue fill and shedding begin behind the pinned worker,
    // then start the drain concurrently (it blocks until complete).
    std::thread::sleep(Duration::from_millis(80));
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(30));

    // Late requests race the drain: they are answered DRAINING, which
    // marks their connections close-after-flush while earlier admitted
    // requests are still being computed.
    for (c, stream) in streams.iter_mut().enumerate() {
        for i in 0..LATE {
            let id = (c as u32) * 100 + EARLY + i + 1;
            stream.write_all(&wire_request(id, &img)).unwrap();
        }
        stream.flush().unwrap();
    }

    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut draining = 0usize;
    for (c, stream) in streams.iter_mut().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let per_conn = (EARLY + LATE) as usize;
        let responses = read_responses(stream, per_conn);
        let mut seen = std::collections::HashSet::new();
        for (id, resp) in responses {
            assert!(seen.insert(id), "duplicate response for id {id}");
            let lo = (c as u32) * 100 + 1;
            assert!(
                (lo..lo + EARLY + LATE).contains(&id),
                "response {id} on the wrong connection"
            );
            match resp {
                InferResponse::Ok { logits, .. } => {
                    assert_eq!(logits, offline.data(), "request {id} lost bit-exactness");
                    ok += 1;
                }
                InferResponse::Overloaded => shed += 1,
                InferResponse::Draining => draining += 1,
                other => panic!("request {id} got {other:?}"),
            }
        }
        assert_eq!(seen.len(), per_conn, "connection {c} lost replies");
    }
    shutdown.join().unwrap();
    assert_eq!(ok + shed + draining, CONNS * (EARLY + LATE) as usize);
    assert!(
        ok > 0,
        "admitted requests must be completed through the drain"
    );
    assert!(shed > 0, "a 4-deep queue under this burst must shed");
    assert!(draining > 0, "late requests must see DRAINING");
}

/// Pixel value that makes [`PanicOnMark`] panic: a stand-in for any
/// backend bug that one particular input reaches.
const PANIC_MARK: f32 = 1234.5;

/// A tap that panics when a linear op's input holds [`PANIC_MARK`].
struct PanicOnMark;

impl Tap for PanicOnMark {
    type Pending = ();

    fn before(&mut self, _site: OpSite, op: &Op<'_>) {
        if let Op::Linear { x, .. } = op {
            assert!(
                !x.data().contains(&PANIC_MARK),
                "marked image reached the backend"
            );
        }
    }
}

/// An Fp32 provider whose forward panics on a marked image. It names
/// itself `fp32`, so a LOAD beside it serves the loaded artifact on the
/// real fp32 backend.
struct PanickingProvider;

impl BackendProvider for PanickingProvider {
    fn name(&self) -> &'static str {
        "fp32"
    }

    fn with_backend(&self, work: &mut dyn FnMut(&mut dyn Backend)) {
        let mut be = Tapped::new(Fp32Backend::new(), PanicOnMark);
        work(&mut be);
    }
}

#[test]
fn panicking_forward_costs_its_group_not_the_worker() {
    // One worker: before panics were caught, the marked request took the
    // worker thread down and every later request waited forever.
    quq_obs::set_enabled(true);
    let panics = quq_obs::counter("serve.worker_panics");
    let panics_before = panics.get();
    let model = test_model();
    let server = Server::start(
        Arc::clone(&model),
        Arc::new(PanickingProvider),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let (model_b, _, path_b) = saved_artifact(77, "panic-b");
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        client.load("b", path_b.to_str().unwrap()).unwrap(),
        InferResponse::Reloaded
    );

    let img = images(&model, 1, 40).remove(0);
    let marked = quq_tensor::Tensor::from_vec(vec![PANIC_MARK; img.len()], img.shape()).unwrap();
    match client.infer(&marked).unwrap() {
        InferResponse::Error(msg) => assert!(msg.contains("panicked"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }

    // The same model serves its next request, bit for bit…
    let offline = model.forward(&img, &mut Fp32Backend::new()).unwrap();
    match client.infer(&img).unwrap() {
        InferResponse::Ok { logits, .. } => assert_eq!(logits, offline.data()),
        other => panic!("expected Ok, got {other:?}"),
    }
    // …and so does another model on the same worker.
    let offline_b = model_b.forward(&img, &mut Fp32Backend::new()).unwrap();
    match client.infer_model("b", &img).unwrap() {
        InferResponse::Ok { logits, .. } => assert_eq!(logits, offline_b.data()),
        other => panic!("expected Ok, got {other:?}"),
    }
    assert_eq!(panics.get() - panics_before, 1);

    server.shutdown();
    let _ = std::fs::remove_file(&path_b);
}
