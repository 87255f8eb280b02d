//! The TCP inference server: the event-loop front end, the worker shard
//! that runs batched forwards, and the shared model state with hot reload.
//!
//! Reactor threads (`reactor`) own every socket and decode each frame
//! once; workers pull micro-batches from the bounded SLO-aware
//! [`Scheduler`] (see [`crate::sched`]) and run
//! [`VitModel::forward_batch`] on a backend built per batch by the shared
//! [`BackendProvider`] (integer workers share one [`WeightQubCache`]
//! through their provider). Because `forward_batch` is bit-identical to
//! per-image `forward`, a client observes the same logits whichever
//! requests it was batched with, and in whatever order the responses
//! come back. DESIGN.md's "Serving" section draws the whole path.
//!
//! ## Shadow/canary routing
//!
//! A registered candidate model can *shadow* the default: a configured
//! fraction of default-model requests is mirrored to the candidate after
//! the primary replies are sent, and top-1 agreement is tallied
//! (`shadow.mirrored/agree/disagree`). The primary path is untouched —
//! same batches, same bit-exact logits — so a canary can soak under real
//! traffic before a SHADOW PROMOTE ([`Server::admin`] or the wire)
//! atomically makes it the default.
//!
//! ## Backpressure
//!
//! Admission is the only unbounded-work point and it is bounded by
//! `queue_capacity`; when full the front end replies `OVERLOADED`
//! immediately (shedding) — or, if the incoming request outranks a queued
//! one (interactive over batch, in-quota over over-quota), the queued
//! request is displaced and answered `OVERLOADED` instead. The reactor's
//! write buffers hold only replies to requests that were actually
//! admitted (or tiny status frames), so nothing in the server grows with
//! offered load.
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] stops accepting (closing the listener), drains
//! the queue — every *admitted* request is still batched, executed, and
//! its response flushed — then joins workers and reactor threads.
//! Requests arriving after the drain begins get a `DRAINING` reply.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use quq_core::pipeline::PtqTables;
use quq_core::{IntegerBackend, WeightQubCache};
use quq_obs::SiteKey;
use quq_store::{Artifact, StoreError};
use quq_tensor::Tensor;
use quq_vit::{Backend, BackendError, Fp32Backend, Observed, Tapped, VitModel};

use crate::error::ServeError;
use crate::protocol::{encode_ok_response, top1, AdminOp, InferResponse, ShadowCmd, ShadowReport};
use crate::reactor::{Completion, CompletionSender, Reactor, ReactorHandle};
use crate::registry::{resolve_name, Registry, DEFAULT_MODEL};
use crate::sched::{SchedConfig, Scheduler};

/// Builds an inference backend for a worker, once per batch.
///
/// The server's workers run on `'static` threads, but the integer backend
/// borrows its calibration tables — so instead of *storing* backends, the
/// server stores one shared provider and workers ask it to run each batch
/// `work` against a fresh backend. Providers own whatever the backends
/// borrow (tables, the shared weight-decode cache) behind `Arc`s.
pub trait BackendProvider: Send + Sync {
    /// Label used as the metrics site for this backend family.
    fn name(&self) -> &'static str;

    /// Runs `work` with a freshly built backend.
    fn with_backend(&self, work: &mut dyn FnMut(&mut dyn Backend));
}

/// Provider for the exact-f32 reference backend.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fp32Provider;

impl BackendProvider for Fp32Provider {
    fn name(&self) -> &'static str {
        "fp32"
    }

    fn with_backend(&self, work: &mut dyn FnMut(&mut dyn Backend)) {
        let mut be = Tapped::new(Fp32Backend::new(), Observed);
        work(&mut be);
    }
}

/// Provider for the fully-integer QUQ backend: owns the calibrated tables
/// and the weight cache every worker shares, filled from the artifact's
/// QUB records, so each weight is decoded once per model, not once per
/// worker.
pub(crate) struct IntegerProvider {
    tables: Arc<PtqTables>,
    cache: Arc<WeightQubCache>,
}

impl BackendProvider for IntegerProvider {
    fn name(&self) -> &'static str {
        "quq-int"
    }

    fn with_backend(&self, work: &mut dyn FnMut(&mut dyn Backend)) {
        let mut be = Tapped::new(
            IntegerBackend::with_cache(&self.tables, Arc::clone(&self.cache)),
            Observed,
        );
        work(&mut be);
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Inference worker threads (each runs whole batches).
    pub workers: usize,
    /// Flush a batch at this many requests…
    pub max_batch: usize,
    /// …or, under load, this long after a worker came back from a batch
    /// of more than one request, whichever comes first. A request that
    /// finds the workers idle ships at once (see [`crate::sched`]).
    pub max_wait: Duration,
    /// Bounded admission-queue capacity; beyond it requests are shed.
    pub queue_capacity: usize,
    /// Reactor threads of the event-loop front end (connections are
    /// dealt round-robin across them).
    pub reactors: usize,
    /// Resident-bytes budget for the model registry: least-recently-used
    /// models are evicted (and lazily reloaded from their artifacts on
    /// the next request) once resident artifact bytes exceed it.
    /// 0 = unbounded.
    pub max_resident_bytes: u64,
    /// Per-connection write-backlog high-water mark in bytes: once a
    /// connection's pending responses exceed it, the reactor stops
    /// reading from that connection until the backlog drains below half
    /// this value. Bounds server memory against pipelined clients that
    /// never read their responses.
    pub write_high_water: usize,
    /// Per-tenant token-bucket refill in requests/second; requests beyond
    /// it are marked over-quota and shed first under pressure.
    /// 0 = quotas off.
    pub tenant_rate: f64,
    /// Token-bucket burst capacity per tenant. 0 = `tenant_rate.max(1)`.
    pub tenant_burst: f64,
    /// Flush a partial batch this long before the most urgent queued
    /// deadline, so the request clears compute in time.
    pub deadline_slack: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_capacity: 64,
            reactors: 1,
            max_resident_bytes: 0,
            write_high_water: 1 << 20,
            tenant_rate: 0.0,
            tenant_burst: 0.0,
            deadline_slack: Duration::from_millis(1),
        }
    }
}

/// Where a finished request's response body goes: a completion routed
/// back to the reactor that owns the request's connection. Workers call
/// [`Reply::send`] exactly once; a `Reply` dropped unsent (worker panic
/// mid-batch) delivers a structured error instead of hanging the client.
pub(crate) struct Reply {
    comp: CompletionSender,
    /// The completion to deliver, body still empty; `None` once sent or
    /// forgotten.
    pending: Option<Completion>,
}

impl Reply {
    /// `flow` is the `class:tenant` site for the per-flow `serve.e2e`
    /// record; empty for admin completions (no flow record).
    pub(crate) fn new(
        comp: CompletionSender,
        token: u64,
        id: u32,
        t0: Instant,
        site: &'static str,
        flow: String,
    ) -> Reply {
        Reply {
            comp,
            pending: Some(Completion {
                token,
                id,
                body: Vec::new(),
                t0,
                site,
                flow,
            }),
        }
    }

    /// Delivers the response body (status byte onward, id-free).
    pub(crate) fn send(mut self, body: Vec<u8>) {
        self.dispatch(body);
    }

    /// Defuses the drop-side error delivery. Used when the front end
    /// already answered without a worker (e.g. shed at admission) — the
    /// returned job must not emit a *second* response as it drops.
    pub(crate) fn forget(mut self) {
        self.pending = None;
    }

    fn dispatch(&mut self, body: Vec<u8>) {
        if let Some(mut c) = self.pending.take() {
            c.body = body;
            self.comp.send(c);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if self.pending.is_some() {
            self.dispatch(InferResponse::Error("worker dropped the request".into()).encode());
        }
    }
}

/// One admitted request: the decoded image, the registry name of the
/// model it targets, and the route its response body travels back on.
pub(crate) struct Job {
    pub(crate) model: String,
    pub(crate) image: Tensor,
    pub(crate) reply: Reply,
}

/// The servable model: weights plus the backend provider built over its
/// calibration. Immutable once built — a hot reload builds a *new* state
/// and swaps the `Arc`, so every batch runs against one coherent
/// (model, tables, cache) triple even while a swap is in flight.
pub struct ModelState {
    /// The model whose weights the provider's tables were calibrated on.
    pub model: Arc<VitModel>,
    /// Backend factory over those tables.
    pub provider: Arc<dyn BackendProvider>,
}

impl ModelState {
    /// Bundles a model with its backend provider.
    pub fn new(model: Arc<VitModel>, provider: Arc<dyn BackendProvider>) -> Self {
        Self { model, provider }
    }
}

/// Builds a [`ModelState`] by opening the QUQM artifact at `path` — the
/// cold-start path: no synthesis, no calibration, no weight encoding.
///
/// # Errors
///
/// As [`state_from_artifact`], plus the errors of opening the file.
pub fn artifact_state(path: &Path, backend: &str) -> Result<ModelState, StoreError> {
    state_from_artifact(&Artifact::open(path)?, backend)
}

/// Builds a [`ModelState`] from an open artifact: the one way a served
/// model is built, whether the artifact is a file or was just calibrated
/// into memory.
///
/// `backend` selects the provider: `"fp32"` serves the restored FP32
/// weights; `"int"` / `"quq-int"` serves the fully-integer backend with its
/// weight cache filled from the artifact's stored QUB records.
///
/// # Errors
///
/// Propagates [`StoreError`] from loading the artifact, and rejects
/// unknown backend names with [`StoreError::Unsupported`].
pub fn state_from_artifact(artifact: &Artifact, backend: &str) -> Result<ModelState, StoreError> {
    let (model, tables) = artifact.load_all()?;
    let provider: Arc<dyn BackendProvider> = match backend {
        "fp32" => Arc::new(Fp32Provider),
        "int" | "quq-int" => Arc::new(IntegerProvider {
            tables: Arc::new(tables),
            cache: Arc::new(WeightQubCache::from_artifact(artifact)?),
        }),
        other => {
            return Err(StoreError::Unsupported(format!(
                "unknown backend {other:?} (want \"fp32\" or \"int\")"
            )))
        }
    };
    Ok(ModelState::new(Arc::new(model), provider))
}

/// Shadow/canary routing state: the configured candidate plus the
/// comparison tallies. Mirroring is deterministic — a permille
/// accumulator, no RNG — so N primary requests at fraction p/1000 mirror
/// exactly ⌊N·p/1000⌋ of them (in arrival order).
pub(crate) struct Shadow {
    /// `(candidate name, permille)` when shadowing is active.
    cfg: Mutex<Option<(String, u16)>>,
    /// Permille accumulator driving deterministic mirror selection.
    acc: AtomicU64,
    mirrored: AtomicU64,
    agree: AtomicU64,
    disagree: AtomicU64,
}

impl Shadow {
    fn new() -> Shadow {
        Shadow {
            cfg: Mutex::new(None),
            acc: AtomicU64::new(0),
            mirrored: AtomicU64::new(0),
            agree: AtomicU64::new(0),
            disagree: AtomicU64::new(0),
        }
    }

    /// The active `(candidate, permille)` target, if any.
    fn target(&self) -> Option<(String, u16)> {
        self.cfg
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Arms shadowing at `permille`/1000 toward `name`, resetting the
    /// comparison tallies.
    fn arm(&self, name: String, permille: u16) {
        let mut cfg = self.cfg.lock().unwrap_or_else(PoisonError::into_inner);
        *cfg = Some((name, permille));
        self.acc.store(0, Ordering::Relaxed);
        self.mirrored.store(0, Ordering::Relaxed);
        self.agree.store(0, Ordering::Relaxed);
        self.disagree.store(0, Ordering::Relaxed);
    }

    /// Disarms shadowing.
    fn disarm(&self) {
        *self.cfg.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// One deterministic mirror decision: `true` when the accumulated
    /// permille mass crosses the next multiple of 1000.
    fn should_mirror(&self, permille: u16) -> bool {
        let prev = self.acc.fetch_add(u64::from(permille), Ordering::Relaxed);
        (prev + u64::from(permille)) / 1000 > prev / 1000
    }

    fn report(&self) -> ShadowReport {
        let (active, name, permille) = match self.target() {
            Some((name, permille)) => (true, name, permille),
            None => (false, String::new(), 0),
        };
        ShadowReport {
            active,
            name,
            permille,
            mirrored: self.mirrored.load(Ordering::Relaxed),
            agree: self.agree.load(Ordering::Relaxed),
            disagree: self.disagree.load(Ordering::Relaxed),
        }
    }
}

pub(crate) struct Shared {
    pub(crate) registry: Registry,
    pub(crate) queue: Scheduler<Job>,
    pub(crate) shadow: Shadow,
    pub(crate) shutdown: AtomicBool,
    /// Set after workers have drained and joined: reactors flush whatever
    /// replies remain, then exit.
    pub(crate) finalize: AtomicBool,
    /// Per-connection write-backlog pause threshold (see
    /// [`ServeConfig::write_high_water`]).
    pub(crate) write_high_water: usize,
    /// Times any connection's reads were paused at the high-water mark.
    pub(crate) write_pauses: AtomicU64,
    /// Largest write backlog any connection ever held, in bytes.
    pub(crate) write_peak: AtomicU64,
}

impl Shared {
    pub(crate) fn note_backlog(&self, len: usize) {
        self.write_peak.fetch_max(len as u64, Ordering::Relaxed);
    }
}

/// A running inference server. Dropping it without calling
/// [`Server::shutdown`] aborts ungracefully (threads are detached);
/// call `shutdown` to drain and join.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactors: Vec<JoinHandle<()>>,
    reactor_handles: Vec<ReactorHandle>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `bind` (use port 0 for an ephemeral port) and starts
    /// `config.reactors` reactor threads and `config.workers` inference
    /// workers.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener.
    pub fn start(
        model: Arc<VitModel>,
        provider: Arc<dyn BackendProvider>,
        config: ServeConfig,
        bind: impl ToSocketAddrs,
    ) -> io::Result<Server> {
        Self::start_with_state(Arc::new(ModelState::new(model, provider)), config, bind)
    }

    /// Like [`Server::start`], from a pre-built [`ModelState`] (e.g. one
    /// restored from an artifact by [`artifact_state`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the listener or building the
    /// event loop's poller.
    pub fn start_with_state(
        state: Arc<ModelState>,
        config: ServeConfig,
        bind: impl ToSocketAddrs,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let registry = Registry::new(config.max_resident_bytes);
        registry.register_state(DEFAULT_MODEL, state, None);
        let shared = Arc::new(Shared {
            registry,
            queue: Scheduler::new(SchedConfig {
                capacity: config.queue_capacity,
                tenant_rate: config.tenant_rate,
                tenant_burst: config.tenant_burst,
                deadline_slack: config.deadline_slack,
            }),
            shadow: Shadow::new(),
            shutdown: AtomicBool::new(false),
            finalize: AtomicBool::new(false),
            write_high_water: config.write_high_water.max(1),
            write_pauses: AtomicU64::new(0),
            write_peak: AtomicU64::new(0),
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let cfg = config.clone();
                std::thread::Builder::new()
                    .name(format!("quq-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &cfg))
                    .expect("spawn worker")
            })
            .collect();

        let n = config.reactors.max(1);
        let mut built = Vec::with_capacity(n);
        let mut reactor_handles = Vec::with_capacity(n);
        for i in 0..n {
            let (reactor, handle) = Reactor::new(i, Arc::clone(&shared))?;
            reactor_handles.push(handle);
            built.push(reactor);
        }
        let peers: Vec<_> = reactor_handles
            .iter()
            .map(|h| (h.inject.clone(), Arc::clone(&h.waker)))
            .collect();
        built[0].adopt_listener(listener, peers)?;
        let reactors = built
            .into_iter()
            .enumerate()
            .map(|(i, reactor)| {
                std::thread::Builder::new()
                    .name(format!("quq-serve-reactor-{i}"))
                    .spawn(move || reactor.run())
                    .expect("spawn reactor")
            })
            .collect();
        Ok(Server {
            addr,
            shared,
            reactors,
            reactor_handles,
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Runs one admin operation in process, exactly as the wire LOAD,
    /// UNLOAD, LIST and SHADOW requests run it, and returns the response
    /// they would carry.
    ///
    /// # Errors
    ///
    /// The [`ServeError`] a wire client would receive as ERROR.
    pub fn admin(&self, op: AdminOp) -> Result<InferResponse, ServeError> {
        admin(&self.shared, op)
    }

    /// Attaches an artifact source to the default model, making it
    /// evictable and lazily reloadable like any LOAD-ed model. Use after
    /// [`Server::start_with_state`] when the state came from an artifact.
    pub fn set_default_source(&self, path: &Path) {
        self.shared.registry.set_source(DEFAULT_MODEL, path);
    }

    /// Times any connection's reads were paused at the write-backlog
    /// high-water mark.
    pub fn write_pauses(&self) -> u64 {
        self.shared.write_pauses.load(Ordering::Relaxed)
    }

    /// Largest per-connection write backlog observed, in bytes.
    pub fn write_backlog_peak(&self) -> u64 {
        self.shared.write_peak.load(Ordering::Relaxed)
    }

    /// Gracefully shuts down: refuses new connections, completes every
    /// admitted request (queued and in-flight), flushes the responses,
    /// then joins all threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Reactors observe the flag and close the listener: from here on
        // new connections are refused by the OS.
        for h in &self.reactor_handles {
            h.waker.wake();
        }
        // Drain: queued jobs flush to workers immediately; workers exit
        // once the queue is empty. Every admitted request gets its reply.
        self.shared.queue.drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers are gone, so every completion is now in the reactors'
        // channels: tell them to flush remaining responses and exit.
        self.shared.finalize.store(true, Ordering::SeqCst);
        for h in &self.reactor_handles {
            h.waker.wake();
        }
        for h in self.reactors.drain(..) {
            let _ = h.join();
        }
    }
}

/// Runs one admin operation against the shared state: the one place
/// LOAD, UNLOAD, LIST and SHADOW are carried out, for the reactor and for
/// [`Server::admin`] alike. `Ok` is the response to send.
pub(crate) fn admin(shared: &Shared, op: AdminOp) -> Result<InferResponse, ServeError> {
    match op {
        AdminOp::Load { name, path } => {
            let backend = shared.registry.default_backend();
            shared
                .registry
                .load(resolve_name(&name), Path::new(&path), &backend)?;
            Ok(InferResponse::Reloaded)
        }
        AdminOp::Unload { name } => {
            let name = resolve_name(&name);
            if shared.registry.unload(name) {
                Ok(InferResponse::Unloaded)
            } else {
                Err(ServeError::UnknownModel(name.to_string()))
            }
        }
        AdminOp::List => Ok(InferResponse::ModelList(shared.registry.snapshot())),
        AdminOp::Shadow(cmd) => {
            match cmd {
                ShadowCmd::Set { name, permille } => {
                    let name = resolve_name(&name).to_string();
                    if name == DEFAULT_MODEL {
                        return Err(ServeError::ShadowOfDefault);
                    }
                    if permille > 1000 {
                        return Err(ServeError::ShadowPermille(permille));
                    }
                    if !shared
                        .registry
                        .snapshot()
                        .models
                        .iter()
                        .any(|m| m.name == name)
                    {
                        return Err(ServeError::UnknownCandidate(name));
                    }
                    shared.shadow.arm(name, permille);
                }
                ShadowCmd::Promote => {
                    let (name, _) = shared.shadow.target().ok_or(ServeError::NoShadow)?;
                    shared.registry.promote(&name)?;
                    shared.shadow.disarm();
                    quq_obs::add("shadow.promotions", 1);
                }
                ShadowCmd::Abort => {
                    shared.shadow.disarm();
                }
                ShadowCmd::Status => {}
            }
            Ok(InferResponse::Shadow(shared.shadow.report()))
        }
    }
}

/// Checks that `image` has the `[channels, height, width]` shape the
/// state's model takes.
pub(crate) fn check_shape(state: &ModelState, image: &Tensor) -> Result<(), ServeError> {
    let cfg = state.model.config();
    let want = [cfg.in_chans, cfg.img_size, cfg.img_size];
    if image.shape() == want {
        Ok(())
    } else {
        Err(ServeError::Shape {
            want,
            got: image.shape().to_vec(),
        })
    }
}

/// The `class:tenant` obs site label for a request's per-flow records.
pub(crate) fn flow_label(class: crate::protocol::Class, tenant: &str) -> String {
    format!(
        "{class}:{}",
        if tenant.is_empty() {
            crate::sched::ANON_TENANT
        } else {
            tenant
        }
    )
}

/// Answers a request the scheduler displaced to make room for a
/// higher-standing one: `OVERLOADED` through its own reply route (which
/// also counts it as shed).
pub(crate) fn answer_displaced(victim: crate::sched::Admitted<Job>) {
    quq_obs::add("serve.shed", 1);
    victim.item.reply.send(InferResponse::Overloaded.encode());
}

fn worker_loop(shared: &Arc<Shared>, cfg: &ServeConfig) {
    while let Some(batch) = shared.queue.next_batch(cfg.max_batch, cfg.max_wait) {
        // Requests whose deadline passed while queued are answered
        // without compute: the whole point of carrying a deadline.
        for expired in batch.expired {
            quq_obs::add("sched.deadline_expired", 1);
            expired
                .item
                .reply
                .send(InferResponse::DeadlineExceeded.encode());
        }
        // Group by model: one forward_batch per model keeps the
        // bit-identity guarantee while letting one queue serve N models.
        // Jobs arrive in scheduler order (interactive first), which
        // grouping preserves within each model.
        let mut groups: BTreeMap<String, Vec<Job>> = BTreeMap::new();
        for admitted in batch.jobs {
            let job = admitted.item;
            groups.entry(job.model.clone()).or_default().push(job);
        }
        for (name, jobs) in groups {
            run_group(shared, &name, jobs);
        }
    }
}

/// Runs one model's slice of a batch: resolves the model (lazily
/// reloading it from its artifact if it was evicted), validates each
/// image's shape, and executes one `forward_batch` over the valid jobs.
fn run_group(shared: &Arc<Shared>, name: &str, jobs: Vec<Job>) {
    // Registry::get blocks only this group on a cold model; requests for
    // resident models keep flowing through the other workers.
    let state = match shared.registry.get(name) {
        Ok(state) => state,
        Err(e) => {
            let body = InferResponse::Error(format!("model {name:?} unavailable: {e}")).encode();
            for job in jobs {
                job.reply.send(body.clone());
            }
            return;
        }
    };
    // Cold-admitted jobs skipped the front end's shape check (the model
    // wasn't resident to check against), so every job is validated here —
    // one malformed request must never fail the whole group.
    let mut valid = Vec::with_capacity(jobs.len());
    for job in jobs {
        match check_shape(&state, &job.image) {
            Ok(()) => valid.push(job),
            Err(e) => job.reply.send(InferResponse::from(e).encode()),
        }
    }
    if valid.is_empty() {
        return;
    }
    let site = || SiteKey::global(state.provider.name());
    quq_obs::record_at("serve.batch_size", site, valid.len() as u64);
    let images: Vec<Tensor> = valid.iter().map(|j| j.image.clone()).collect();
    match forward(&state, &images) {
        Some(Ok(logits)) => {
            for (job, l) in valid.into_iter().zip(&logits) {
                job.reply.send(encode_ok_response(l.data()));
            }
            // Shadow compare runs strictly after every primary reply is
            // sent, so mirroring adds zero latency and zero bit-level
            // impact to the primary path.
            if name == DEFAULT_MODEL {
                if let Some((candidate, permille)) = shared.shadow.target() {
                    run_shadow(shared, &candidate, permille, &images, &logits);
                }
            }
        }
        Some(Err(e)) => {
            let body = InferResponse::Error(format!("backend error: {e:?}")).encode();
            for job in valid {
                job.reply.send(body.clone());
            }
        }
        // Provider never ran the work: dropping the jobs delivers
        // "worker dropped the request" errors via Reply::drop.
        None => drop(valid),
    }
}

/// Runs one batched forward on a backend built by the state's provider;
/// `None` if the provider never ran the work. The closure can run more
/// than once in principle, so the result is parked and returned after it.
///
/// A panic anywhere in the provider or the forward is caught here and
/// becomes a backend error for this batch alone (counted on
/// `serve.worker_panics`), so the worker lives on to serve the next one.
fn forward(state: &ModelState, images: &[Tensor]) -> Option<Result<Vec<Tensor>, BackendError>> {
    let mut result = None;
    let run = panic::catch_unwind(AssertUnwindSafe(|| {
        state.provider.with_backend(&mut |be| {
            let mut be: &mut dyn Backend = be;
            result = Some(state.model.forward_batch(images, &mut be));
        });
    }));
    match run {
        Ok(()) => result,
        Err(payload) => {
            quq_obs::add("serve.worker_panics", 1);
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            Some(Err(BackendError::Other(format!("forward panicked: {msg}"))))
        }
    }
}

/// Mirrors the deterministically-selected subset of one default-model
/// batch to the shadow candidate and tallies top-1 agreement against the
/// already-sent primary logits.
fn run_shadow(
    shared: &Arc<Shared>,
    candidate: &str,
    permille: u16,
    images: &[Tensor],
    primary: &[Tensor],
) {
    let selected: Vec<usize> = (0..images.len())
        .filter(|_| shared.shadow.should_mirror(permille))
        .collect();
    if selected.is_empty() {
        return;
    }
    let state = match shared.registry.get(candidate) {
        Ok(state) => state,
        Err(_) => {
            quq_obs::add("shadow.errors", selected.len() as u64);
            return;
        }
    };
    // The candidate may expect a different input shape than the default
    // (mismatched canary): skip those images rather than failing a batch.
    let selected: Vec<usize> = selected
        .into_iter()
        .filter(|&i| check_shape(&state, &images[i]).is_ok())
        .collect();
    if selected.is_empty() {
        return;
    }
    let mirror_images: Vec<Tensor> = selected.iter().map(|&i| images[i].clone()).collect();
    let shadow_logits = match forward(&state, &mirror_images) {
        Some(Ok(logits)) => logits,
        _ => {
            quq_obs::add("shadow.errors", selected.len() as u64);
            return;
        }
    };
    shared
        .shadow
        .mirrored
        .fetch_add(selected.len() as u64, Ordering::Relaxed);
    quq_obs::add("shadow.mirrored", selected.len() as u64);
    for (&i, mirrored) in selected.iter().zip(&shadow_logits) {
        if top1(primary[i].data()) == top1(mirrored.data()) {
            shared.shadow.agree.fetch_add(1, Ordering::Relaxed);
            quq_obs::add("shadow.agree", 1);
        } else {
            shared.shadow.disagree.fetch_add(1, Ordering::Relaxed);
            quq_obs::add("shadow.disagree", 1);
        }
    }
}
