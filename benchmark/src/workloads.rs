//! The five workloads: how each is set up, warmed, run for one timed
//! window, and torn down. `README.md` says why each exists.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use quq_accel::{IntegerBackend, WeightQubCache};
use quq_core::pipeline::{calibrate, PtqConfig, PtqTables};
use quq_core::quantizer::QuqMethod;
use quq_serve::{
    artifact_state, Class, Client, Fp32Provider, InferResponse, ModelState, ServeConfig, Server,
};
use quq_store::{ArtifactWriter, CodecChoice, WriteOptions};
use quq_tensor::Tensor;
use quq_vit::{synthetic_image, Backend, Dataset, Fp32Backend, ModelConfig, ModelId, VitModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::loadgen::{closed_loop, open_loop, Flow, Target};
use crate::oracle::Oracle;
use crate::trace::{TracedBackend, TracedProvider, Tracer, FORWARD};
use crate::window::{Op, Window};

/// The model every ViT-S workload serves is synthesized from this seed, so
/// `--seed` changes the inputs and the arrival schedule, never the model.
/// It also draws the pool `top1_agree_frac` is taken over.
const MODEL_SEED: u64 = 20240623;
const CALIBRATION_IMAGES: usize = 4;
const CALIBRATION_SEED: u64 = 3;
/// Images in the input pool.
const IMAGES: usize = 64;
const OFFLINE_BATCH: usize = 8;
/// Requests sent, and checked, before any timed window.
const WARM_REQUESTS: usize = 8;
/// Client-side latency limit of the interactive flow, from due time.
const INTERACTIVE_LIMIT: Duration = Duration::from_millis(100);
/// The deadline the interactive flow carries on the wire. It is looser than
/// the client-side limit so that the scheduler's deadline path is in use
/// while a request all but never expires: a DEADLINE refusal is a failed
/// operation, and the driver wants workloads on which none fails.
const INTERACTIVE_DEADLINE: Duration = Duration::from_secs(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OfflineIntB8,
    ServeVitsClosed,
    ServeVitsOpen,
    ServeToyPipelined,
    StoreCycle,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::OfflineIntB8,
        Kind::ServeVitsClosed,
        Kind::ServeVitsOpen,
        Kind::ServeToyPipelined,
        Kind::StoreCycle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OfflineIntB8 => "offline_int_b8",
            Kind::ServeVitsClosed => "serve_vits_closed",
            Kind::ServeVitsOpen => "serve_vits_open",
            Kind::ServeToyPipelined => "serve_toy_pipelined",
            Kind::StoreCycle => "store_cycle",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the workload runs the tiny fp32 model whatever `--quick` says.
    fn is_toy(self) -> bool {
        self == Kind::ServeToyPipelined
    }

    pub fn is_serve(self) -> bool {
        matches!(
            self,
            Kind::ServeVitsClosed | Kind::ServeVitsOpen | Kind::ServeToyPipelined
        )
    }
}

/// What a run was asked for.
pub struct Env {
    pub seed: u64,
    /// `test_config` models everywhere, for a CI smoke run.
    pub quick: bool,
    /// Where artifacts and traces go (`benchmark/out`).
    pub out_dir: PathBuf,
}

impl Env {
    pub fn config(&self, kind: Kind) -> ModelConfig {
        if self.quick || kind.is_toy() {
            ModelConfig::test_config()
        } else {
            ModelConfig::eval_scale(ModelId::VitS)
        }
    }

    /// The images a run sends, drawn from `--seed`.
    pub fn inputs(&self, kind: Kind) -> Vec<Tensor> {
        image_pool(&self.config(kind), self.seed)
    }

    /// The images `top1_agree_frac` is taken over: the same on every seed,
    /// so the metric depends on the code alone.
    pub fn agreement_pool(&self, kind: Kind) -> Vec<Tensor> {
        image_pool(&self.config(kind), MODEL_SEED)
    }

    fn artifact(&self, kind: Kind, codec: &str) -> PathBuf {
        let file = format!("{}-{}-{codec}.quqm", kind.name(), std::process::id());
        self.out_dir.join(file)
    }
}

fn image_pool(config: &ModelConfig, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..IMAGES)
        .map(|_| synthetic_image(config, &mut rng))
        .collect()
}

/// A workload set up and warm, ready for a timed window.
pub struct Rig {
    pub model: Arc<VitModel>,
    /// `None` on the fp32 toy.
    pub tables: Option<Arc<PtqTables>>,
    /// Seconds `calibrate` took in this set-up (0 on the toy).
    pub calibrate_s: f64,
    part: Part,
    files: Vec<PathBuf>,
}

enum Part {
    Offline { cache: Arc<WeightQubCache> },
    Serve { server: Server },
    Store(StoreRig),
}

pub struct StoreRig {
    pub raw: PathBuf,
    pub auto: PathBuf,
    pub raw_bytes: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn calibrated(config: ModelConfig) -> (Arc<VitModel>, Arc<PtqTables>, f64) {
    let model = VitModel::synthesize(config, MODEL_SEED);
    let calib = Dataset::calibration(model.config(), CALIBRATION_IMAGES, CALIBRATION_SEED);
    let t = Instant::now();
    let tables = calibrate(
        &QuqMethod::without_optimization(),
        &model,
        &calib,
        PtqConfig::full_w6a6(),
    )
    .expect("calibration");
    let calibrate_s = t.elapsed().as_secs_f64();
    (Arc::new(model), Arc::new(tables), calibrate_s)
}

pub fn raw_options() -> WriteOptions {
    WriteOptions {
        codec: CodecChoice::Raw,
        ..WriteOptions::default()
    }
}

/// Runs `images` as one batch through a provider-built backend.
fn provider_forward(state: &ModelState, images: &[Tensor]) -> Result<Vec<Tensor>, String> {
    let mut out = Err("the provider never ran the work".to_string());
    state.provider.with_backend(&mut |be| {
        let mut be: &mut dyn Backend = be;
        out = state
            .model
            .forward_batch(images, &mut be)
            .map_err(|e| e.to_string());
    });
    out
}

/// Starts a server over `state` and answers [`WARM_REQUESTS`] through it.
fn start_warm(state: ModelState, config: ServeConfig, images: &[Tensor]) -> Server {
    let server =
        Server::start_with_state(Arc::new(state), config, "127.0.0.1:0").expect("bind a port");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for image in &images[..WARM_REQUESTS] {
        client.send_infer(image).expect("warm-up send");
    }
    for _ in 0..WARM_REQUESTS {
        match client.recv_response().expect("warm-up reply") {
            (_, InferResponse::Ok { .. }) => {}
            (_, other) => panic!("warm-up request got {other:?}"),
        }
    }
    server
}

/// Hands the server a [`TracedProvider`]: while the tracer is off a
/// wrapped call costs one relaxed load, so traced and untraced runs execute
/// the same code.
fn traced(state: ModelState, tracer: &Arc<Tracer>) -> ModelState {
    let provider = TracedProvider::new(state.provider, Arc::clone(tracer));
    ModelState::new(state.model, Arc::new(provider))
}

/// One complete set-up of `kind`: everything a user of the system would
/// do before the first timed request, warm-up included.
pub fn setup(kind: Kind, env: &Env, images: &[Tensor], tracer: &Arc<Tracer>) -> Rig {
    std::fs::create_dir_all(&env.out_dir).expect("create the output directory");
    if kind.is_toy() {
        let model = Arc::new(VitModel::synthesize(env.config(kind), MODEL_SEED));
        let state = ModelState::new(Arc::clone(&model), Arc::new(Fp32Provider));
        let config = ServeConfig {
            max_batch: 32,
            queue_capacity: 4096,
            ..serve_config()
        };
        let server = start_warm(traced(state, tracer), config, images);
        return Rig {
            model,
            tables: None,
            calibrate_s: 0.0,
            part: Part::Serve { server },
            files: Vec::new(),
        };
    }
    let (model, tables, calibrate_s) = calibrated(env.config(kind));
    let mut files = Vec::new();
    let part = match kind {
        Kind::OfflineIntB8 => {
            // One batch fills the weight cache and runs the tuner's
            // first-use search for every GEMM shape a batch of 8 has.
            let cache = Arc::new(WeightQubCache::new());
            let mut be = IntegerBackend::with_cache(&tables, Arc::clone(&cache));
            model
                .forward_batch(&images[..OFFLINE_BATCH], &mut be)
                .expect("warm-up batch");
            Part::Offline { cache }
        }
        Kind::ServeVitsClosed | Kind::ServeVitsOpen => {
            let raw = env.artifact(kind, "raw");
            ArtifactWriter::save_with(&model, &tables, &raw, &raw_options()).expect("save");
            files.push(raw.clone());
            let state = artifact_state(&raw, "int").expect("open the artifact");
            // The tuner memoizes per GEMM shape and the shape follows the
            // batch size, so every size the server can form is run once.
            let config = serve_config();
            for b in 1..=config.max_batch {
                provider_forward(&state, &images[..b]).expect("warm-up batch");
            }
            Part::Serve {
                server: start_warm(traced(state, tracer), config, images),
            }
        }
        Kind::StoreCycle => {
            let (raw, auto) = (env.artifact(kind, "raw"), env.artifact(kind, "auto"));
            let raw_bytes = ArtifactWriter::save_with(&model, &tables, &raw, &raw_options())
                .expect("save")
                .total_bytes;
            ArtifactWriter::save_with(&model, &tables, &auto, &WriteOptions::default())
                .expect("save");
            files.extend([raw.clone(), auto.clone()]);
            for path in [&raw, &auto] {
                cold_start(path, &images[0], tracer, 0, 0).expect("warm-up cold start");
            }
            Part::Store(StoreRig {
                raw,
                auto,
                raw_bytes,
            })
        }
        Kind::ServeToyPipelined => unreachable!("handled above"),
    };
    Rig {
        model,
        tables: Some(tables),
        calibrate_s,
        part,
        files,
    }
}

/// The settings every served workload shares.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 8,
        max_wait: Duration::from_millis(2),
        ..ServeConfig::default()
    }
}

impl Rig {
    /// Reference logits on the backend the workload runs: a solo forward
    /// per image, with a weight cache of its own.
    pub fn reference(&self, images: &[Tensor]) -> Oracle {
        match &self.tables {
            Some(tables) => Oracle::compute(&self.model, images, &mut IntegerBackend::new(tables)),
            None => self.fp32_reference(images),
        }
    }

    pub fn fp32_reference(&self, images: &[Tensor]) -> Oracle {
        Oracle::compute(&self.model, images, &mut Fp32Backend::new())
    }

    pub fn store(&self) -> Option<&StoreRig> {
        match &self.part {
            Part::Store(s) => Some(s),
            _ => None,
        }
    }

    /// Runs one timed window over `images`, checking every output against
    /// `oracle`. Every forward, op and request passes through `tracer`,
    /// which records it as a span when it is on.
    pub fn run(
        &self,
        kind: Kind,
        env: &Env,
        images: &[Tensor],
        oracle: &Oracle,
        window: Duration,
        tracer: &Tracer,
    ) -> Window {
        match &self.part {
            Part::Offline { cache } => self.run_offline(cache, images, oracle, window, tracer),
            Part::Store(store) => self.run_store(store, images, oracle, window, tracer),
            Part::Serve { server } => {
                let target = Target {
                    addr: server.local_addr(),
                    images,
                    oracle,
                    tracer,
                };
                let pauses = server.write_pauses();
                let mut w = match kind {
                    Kind::ServeVitsOpen => open_loop(&target, &open_flows(), env.seed, window),
                    Kind::ServeToyPipelined => closed_loop(&target, 2, 16, window),
                    _ => closed_loop(&target, 2, 4, window),
                };
                w.counts
                    .push(("write_pauses", (server.write_pauses() - pauses) as f64));
                w
            }
        }
    }

    fn run_offline(
        &self,
        cache: &Arc<WeightQubCache>,
        images: &[Tensor],
        oracle: &Oracle,
        window: Duration,
        tracer: &Tracer,
    ) -> Window {
        let tables = self
            .tables
            .as_ref()
            .expect("the offline workload is integer");
        let mut be = IntegerBackend::with_cache(tables, Arc::clone(cache));
        let batches: Vec<&[Tensor]> = images.chunks_exact(OFFLINE_BATCH).collect();
        let mut ops = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed() < window {
            let k = ops.len();
            let b = k % batches.len();
            let start = Instant::now();
            let out = tracer.timed(0, k as u64, FORWARD, |forward| {
                let mut be = TracedBackend::new(&mut be, tracer, forward, k as u64);
                self.model.forward_batch(batches[b], &mut be)
            });
            let end = Instant::now();
            let ok = out.is_ok_and(|logits| {
                logits.len() == OFFLINE_BATCH
                    && logits
                        .iter()
                        .enumerate()
                        .all(|(j, l)| oracle.matches(b * OFFLINE_BATCH + j, l.data()))
            });
            ops.push(Op {
                end_ns: (end - t0).as_nanos() as u64,
                at_ns: (start - t0).as_nanos() as u64,
                latency_ms: ms(end - start),
                flow: 0,
                ok,
                refused: false,
                in_slo: ok,
            });
        }
        Window {
            window_ns: window.as_nanos() as u64,
            ops,
            images_per_op: OFFLINE_BATCH as f64,
            ..Window::default()
        }
    }

    /// One cycle: save under `auto`, cold-start the raw artifact, then
    /// cold-start the `auto` one. The cycle is the operation; its latency
    /// is the raw cold start, the step the codecs are not on and the
    /// smallest share of the cycle, so the one the cycle rate shows least.
    fn run_store(
        &self,
        store: &StoreRig,
        images: &[Tensor],
        oracle: &Oracle,
        window: Duration,
        tracer: &Tracer,
    ) -> Window {
        let tables = self.tables.as_ref().expect("the store workload is integer");
        let (mut save_ms, mut raw_ms, mut auto_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut auto_bytes, mut compressed) = (0u64, 0usize);
        let mut ops = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed() < window {
            let k = ops.len();
            let index = k % images.len();
            let start = Instant::now();
            let saved = tracer.timed(0, k as u64, "store.save_auto", |_| {
                ArtifactWriter::save_with(
                    &self.model,
                    tables,
                    &store.auto,
                    &WriteOptions::default(),
                )
            });
            save_ms.push(ms(start.elapsed()));
            let mut ok = match saved {
                Ok(report) => {
                    auto_bytes = report.total_bytes;
                    compressed = report.chunks.iter().filter(|c| !c.stack.is_raw()).count();
                    true
                }
                Err(_) => false,
            };
            for (name, path, samples) in [
                ("store.cold_start_raw", &store.raw, &mut raw_ms),
                ("store.cold_start_auto", &store.auto, &mut auto_ms),
            ] {
                let t = Instant::now();
                let logits = tracer.timed(0, k as u64, name, |parent| {
                    cold_start(path, &images[index], tracer, parent, k as u64)
                });
                samples.push(ms(t.elapsed()));
                ok &= logits.is_ok_and(|l| oracle.matches(index, &l));
            }
            let end = Instant::now();
            ops.push(Op {
                end_ns: (end - t0).as_nanos() as u64,
                at_ns: (start - t0).as_nanos() as u64,
                latency_ms: *raw_ms.last().expect("just pushed"),
                flow: 0,
                ok,
                refused: false,
                in_slo: ok,
            });
        }
        Window {
            window_ns: window.as_nanos() as u64,
            ops,
            // Each cycle brings up two models and takes one image through each.
            images_per_op: 2.0,
            series: vec![
                ("save_auto_ms", save_ms),
                ("cold_start_raw_ms", raw_ms),
                ("cold_start_auto_ms", auto_ms),
            ],
            counts: vec![
                ("artifact_auto_bytes", auto_bytes as f64),
                ("chunks_compressed", compressed as f64),
            ],
            ..Window::default()
        }
    }

    /// Stops the server, if any, and deletes the artifacts this rig wrote.
    pub fn teardown(self) {
        if let Part::Serve { server } = self.part {
            server.shutdown();
        }
        for file in &self.files {
            let _ = std::fs::remove_file(file);
        }
    }
}

/// `artifact_state` through to the first logits of `image`, as two spans
/// under `parent`.
fn cold_start(
    path: &Path,
    image: &Tensor,
    tracer: &Tracer,
    parent: u64,
    trace: u64,
) -> Result<Vec<f32>, String> {
    let state = tracer.timed(parent, trace, "store.artifact_state", |_| {
        artifact_state(path, "int").map_err(|e| e.to_string())
    })?;
    let mut out = Err("the provider never ran the work".to_string());
    tracer.timed(parent, trace, FORWARD, |forward| {
        state.provider.with_backend(&mut |be| {
            let mut be = TracedBackend::new(be, tracer, forward, trace);
            out = state
                .model
                .forward(image, &mut be)
                .map(Tensor::into_vec)
                .map_err(|e| e.to_string());
        });
    });
    out
}

/// The open loop's two flows: 8 req/s in all. An arrival waits when it
/// meets a busy worker, which happens to the share of them the server's
/// utilisation gives: 22% when the host runs a forward in 27 ms and 36% when
/// it takes 45 ms. The issue's 16 req/s is 43% and 72%: the median sat on
/// the edge between "served at once" (30 ms) and "waited for a forward"
/// (70 ms) and moved 41% between runs of the same code.
fn open_flows() -> [Flow; 2] {
    [
        Flow {
            class: Class::Interactive,
            tenant: "a",
            deadline: Some(INTERACTIVE_DEADLINE),
            limit: Some(INTERACTIVE_LIMIT),
            per_second: 6.0,
        },
        Flow {
            class: Class::Batch,
            tenant: "b",
            deadline: None,
            limit: None,
            per_second: 2.0,
        },
    ]
}
