//! Load generator for `quq-serve`, emitting `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p quq-bench --bin loadgen
//! cargo run --release -p quq-bench --bin loadgen -- --metrics
//! QUQ_QUICK=1 cargo run --release -p quq-bench --bin loadgen
//! QUQ_BENCH_OUT=/tmp/s.json cargo run --release -p quq-bench --bin loadgen
//! ```
//!
//! The benchmark starts an in-process integer-QUQ server on an ephemeral
//! port and drives it through four phases, all at the current
//! `QUQ_THREADS` pool size so serving and offline numbers are an
//! equal-thread comparison:
//!
//! 1. **Correctness gate** — served logits must equal the offline
//!    `forward` output *bitwise* for every probe image (batching must not
//!    change a single bit);
//! 2. **Offline baseline** — `evaluate_parallel` images/sec over the same
//!    model and tables (the PR 3 throughput configuration);
//! 3. **Closed-loop serving** — concurrent clients each running
//!    request/response cycles, once against a `max_batch = 1` server
//!    (unbatched) and once with dynamic batching; reports images/sec,
//!    client-observed p50/p99 latency, and the server-side mean batch
//!    size;
//! 4. **Fixed-rate sweep** — offered load at multiples of measured
//!    capacity; reports achieved throughput and shed rate per point (the
//!    backpressure curve), with the admission queue bounded throughout;
//! 5. **Connection sweep** — up to 1k+ concurrent connections against the
//!    event-loop front end on the tiny test model (so the *front end*,
//!    not the forward pass, is the stressed component): throughput,
//!    p50/p99, per-connection RSS, and a zero-desync gate (every response
//!    bit-exact, matched by id);
//! 6. **Pipelined client** — one connection with 32 requests in flight
//!    (matched by id) vs the same connection closed-loop, showing what
//!    request pipelining buys;
//! 7. **Multi-tenant fairness** — a paced-compute server (deterministic
//!    per-batch cost, so the latency gates are machine-independent) with
//!    per-tenant token-bucket quotas: a misbehaving batch-class tenant
//!    floods at up to 4× capacity while a compliant interactive tenant
//!    runs well inside its quota. Gates: the compliant tenant is never
//!    shed, and its p99 under 4× overload stays within 20% of its
//!    unloaded value; the shed-fairness curve (shed% per tenant vs
//!    offered load) is recorded;
//! 8. **Shadow routing** — a bit-identical candidate armed at a 25%
//!    mirror: the permille accumulator must select exactly ⌊N/4⌋
//!    requests, top-1 agreement must be 100%, and every primary reply
//!    must stay bit-exact while mirroring runs.
//!
//! A graceful drain ends every phase: the exit code is non-zero if any
//! admitted request was dropped or any gate failed.
//!
//! `--slo ADDR` switches to external-drive mode for `scripts/check.sh`:
//! instead of running the phases, hammer an already-running `quq-serve`
//! (started with `--tenant-quota`/`--shadow`) with a compliant
//! interactive tenant and a flooding batch tenant, print a parseable
//! `SLO …` summary line, and exit.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use quq_accel::IntegerBackend;
use quq_core::pipeline::{calibrate, PtqConfig, PtqTables};
use quq_core::quantizer::QuqMethod;
use quq_serve::BackendProvider;
use quq_serve::{
    sys, Class, Client, Fp32Provider, InferOptions, InferResponse, IntegerProvider, ModelState,
    ServeConfig, Server,
};
use quq_tensor::{pool, Tensor};
use quq_vit::{
    evaluate_parallel, Backend, Dataset, Fp32Backend, ModelConfig, ModelId, Observed, VitModel,
};

fn quick() -> bool {
    std::env::var("QUQ_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn metrics_enabled() -> bool {
    std::env::var("QUQ_METRICS")
        .map(|v| v == "1")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--metrics")
}

fn setup() -> (Arc<VitModel>, Dataset, Arc<PtqTables>) {
    let config = if quick() {
        ModelConfig::test_config()
    } else {
        ModelConfig::eval_scale(ModelId::VitS)
    };
    let model = Arc::new(VitModel::synthesize(config, 20240623));
    let images = if quick() { 8 } else { 32 };
    let eval = Dataset::teacher_labeled(&model, images, 7).expect("dataset");
    let calib = Dataset::calibration(model.config(), 4, 3);
    let tables = calibrate(
        &QuqMethod::without_optimization(),
        &model,
        &calib,
        PtqConfig::full_w6a6(),
    )
    .expect("calibration");
    (model, eval, Arc::new(tables))
}

/// Admission bound used by every server in this benchmark; the shed curve
/// needs more concurrent senders than this so the queue can actually fill.
const QUEUE_CAPACITY: usize = 64;

fn start_server(model: &Arc<VitModel>, tables: &Arc<PtqTables>, max_batch: usize) -> Server {
    Server::start(
        Arc::clone(model),
        Arc::new(IntegerProvider::new(Arc::clone(tables))),
        ServeConfig {
            workers: 1,
            max_batch,
            max_wait: Duration::from_millis(2),
            queue_capacity: QUEUE_CAPACITY,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port")
}

/// Closed loop: `clients` threads, each its own connection, each running
/// request→response cycles until `total` requests complete overall.
/// Returns (seconds, latencies).
fn closed_loop(
    addr: std::net::SocketAddr,
    images: &[Tensor],
    clients: usize,
    total: usize,
) -> (f64, Vec<Duration>) {
    let remaining = Arc::new(AtomicUsize::new(total));
    let lats: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::with_capacity(total)));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|ci| {
            let remaining = Arc::clone(&remaining);
            let lats = Arc::clone(&lats);
            let images = images.to_vec();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut i = ci;
                let mut mine = Vec::new();
                loop {
                    if remaining
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_err()
                    {
                        break;
                    }
                    let img = &images[i % images.len()];
                    i += 1;
                    let s = Instant::now();
                    match c.infer(img).expect("infer") {
                        InferResponse::Ok { .. } => mine.push(s.elapsed()),
                        other => panic!("closed loop under capacity got {other:?}"),
                    }
                }
                lats.lock().unwrap().extend(mine);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let seconds = t0.elapsed().as_secs_f64();
    let lats = Arc::try_unwrap(lats).unwrap().into_inner().unwrap();
    (seconds, lats)
}

fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

struct ServingResult {
    mode: &'static str,
    max_batch: usize,
    clients: usize,
    images_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
}

/// One closed-loop measurement against a fresh server; drains it after.
fn measure_serving(
    model: &Arc<VitModel>,
    tables: &Arc<PtqTables>,
    images: &[Tensor],
    mode: &'static str,
    max_batch: usize,
    clients: usize,
    total: usize,
) -> ServingResult {
    let server = start_server(model, tables, max_batch);
    let addr = server.local_addr();
    // Warm the shared weight cache outside the timed window.
    let mut warm = Client::connect(addr).expect("connect");
    match warm.infer(&images[0]).expect("warmup") {
        InferResponse::Ok { .. } => {}
        other => panic!("warmup got {other:?}"),
    }
    let before = quq_obs::snapshot();
    let (seconds, mut lats) = closed_loop(addr, images, clients, total);
    let delta = quq_obs::snapshot().delta_since(&before);
    server.shutdown();
    lats.sort_unstable();
    let batches: u64 = delta
        .hists
        .iter()
        .filter(|h| h.name == "serve.batch_size")
        .map(|h| h.count)
        .sum();
    let batched_imgs: u64 = delta
        .hists
        .iter()
        .filter(|h| h.name == "serve.batch_size")
        .map(|h| h.sum)
        .sum();
    let mean_batch = if batches > 0 {
        batched_imgs as f64 / batches as f64
    } else {
        0.0
    };
    let r = ServingResult {
        mode,
        max_batch,
        clients,
        images_per_sec: total as f64 / seconds,
        p50_ms: percentile_ms(&lats, 0.50),
        p99_ms: percentile_ms(&lats, 0.99),
        mean_batch,
    };
    println!(
        "{:>10} serving (max_batch {}, {} clients): {:7.2} img/s  p50 {:6.1}ms  p99 {:6.1}ms  mean batch {:.2}",
        r.mode, r.max_batch, r.clients, r.images_per_sec, r.p50_ms, r.p99_ms, r.mean_batch
    );
    r
}

struct RatePoint {
    offered_per_sec: f64,
    achieved_per_sec: f64,
    ok: usize,
    shed: usize,
    max_queue_depth: usize,
}

/// Fixed-rate phase: offers `rate` req/s for `duration` against `server`
/// using `senders` persistent connections pulling from a shared schedule.
fn fixed_rate(
    server: &Server,
    images: &[Tensor],
    rate: f64,
    duration: Duration,
    senders: usize,
) -> RatePoint {
    let n = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
    let start = Instant::now() + Duration::from_millis(20);
    let schedule: Arc<Mutex<std::collections::VecDeque<Instant>>> = Arc::new(Mutex::new(
        (0..n)
            .map(|i| start + Duration::from_secs_f64(i as f64 / rate))
            .collect(),
    ));
    let ok = Arc::new(AtomicUsize::new(0));
    let shed = Arc::new(AtomicUsize::new(0));
    let depth_seen = Arc::new(AtomicUsize::new(0));
    let addr = server.local_addr();
    let t0 = Instant::now();
    let threads: Vec<_> = (0..senders)
        .map(|si| {
            let schedule = Arc::clone(&schedule);
            let ok = Arc::clone(&ok);
            let shed = Arc::clone(&shed);
            let images = images.to_vec();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut i = si;
                loop {
                    let due = match schedule.lock().unwrap().pop_front() {
                        Some(d) => d,
                        None => break,
                    };
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let img = &images[i % images.len()];
                    i += 1;
                    match c.infer(img).expect("infer") {
                        InferResponse::Ok { .. } => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        InferResponse::Overloaded => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("fixed-rate got {other:?}"),
                    }
                }
            })
        })
        .collect();
    // Sample the queue depth while the load runs: it must stay bounded.
    while threads.iter().any(|t| !t.is_finished()) {
        depth_seen.fetch_max(server.queue_depth(), Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(5));
    }
    for t in threads {
        t.join().expect("sender thread");
    }
    let seconds = t0.elapsed().as_secs_f64();
    let p = RatePoint {
        offered_per_sec: rate,
        achieved_per_sec: ok.load(Ordering::Relaxed) as f64 / seconds,
        ok: ok.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        max_queue_depth: depth_seen.load(Ordering::Relaxed),
    };
    println!(
        "  offered {:7.2} req/s → achieved {:7.2} img/s, ok {}, shed {} ({:.0}%), max queue {}",
        p.offered_per_sec,
        p.achieved_per_sec,
        p.ok,
        p.shed,
        100.0 * p.shed as f64 / (p.ok + p.shed).max(1) as f64,
        p.max_queue_depth
    );
    p
}

/// A server tuned for the connection sweep: the tiny test model on the
/// f32 backend (cheap forwards — the *front end* is the bottleneck) with
/// an admission queue deep enough that every connection can have one
/// request in flight without shedding.
fn sweep_server(model: &Arc<VitModel>) -> Server {
    Server::start(
        Arc::clone(model),
        Arc::new(Fp32Provider),
        ServeConfig {
            workers: 1,
            max_batch: 32,
            max_wait: Duration::from_millis(1),
            queue_capacity: 4096,
            reactors: 1,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port")
}

struct ConnPoint {
    conns: usize,
    images_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Process RSS growth per connection while the point ran. Measured
    /// process-wide, so it includes the in-process *client* state too —
    /// an overestimate of the server's own per-connection cost.
    rss_per_conn_kib: f64,
    /// Desyncs/protocol failures: responses missing, non-Ok, id-mismatched,
    /// or not bit-identical to the offline forward. Must be zero.
    errors: usize,
}

/// Drives `conns` concurrent connections (striped across a few driver
/// threads), each closed-loop with one request in flight, for `rounds`
/// cycles. Every response is checked bit-exact against `offline` — any
/// deviation (the desync signature) counts as an error.
fn conn_point(
    addr: std::net::SocketAddr,
    img: &Tensor,
    offline: &[f32],
    conns: usize,
    rounds: usize,
) -> (f64, Vec<Duration>, usize, f64) {
    let drivers = 4.min(conns);
    let errors = Arc::new(AtomicUsize::new(0));
    let lats: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let rss_base = sys::current_rss_kib().unwrap_or(0);
    let rss_peak = Arc::new(AtomicU64::new(rss_base));
    let running = Arc::new(AtomicBool::new(true));
    let sampler = {
        let rss_peak = Arc::clone(&rss_peak);
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                if let Some(r) = sys::current_rss_kib() {
                    rss_peak.fetch_max(r, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };
    // Drivers connect first and meet at the barrier, so the timed window
    // covers request rounds only — not 1k TCP handshakes.
    let barrier = Arc::new(std::sync::Barrier::new(drivers + 1));
    let threads: Vec<_> = (0..drivers)
        .map(|d| {
            let errors = Arc::clone(&errors);
            let lats = Arc::clone(&lats);
            let img = img.clone();
            let offline = offline.to_vec();
            let barrier = Arc::clone(&barrier);
            let mine = (d..conns).step_by(drivers).count();
            std::thread::spawn(move || {
                let mut clients = Vec::with_capacity(mine);
                for _ in 0..mine {
                    // The listener backlog can lag a 1k-connection burst;
                    // retry briefly instead of failing the point.
                    let mut attempts = 0;
                    let c = loop {
                        match Client::connect(addr) {
                            Ok(c) => break c,
                            Err(e) => {
                                attempts += 1;
                                assert!(attempts < 100, "connect failed: {e}");
                                std::thread::sleep(Duration::from_millis(10));
                            }
                        }
                    };
                    clients.push(c);
                }
                barrier.wait();
                let mut my_lats = Vec::with_capacity(mine * rounds);
                for _ in 0..rounds {
                    let mut sent = Vec::with_capacity(clients.len());
                    for c in &mut clients {
                        let t = Instant::now();
                        sent.push(c.send_infer(&img).map(|id| (id, t)));
                    }
                    for (c, s) in clients.iter_mut().zip(sent) {
                        let (id, t) = match s {
                            Ok(ok) => ok,
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        };
                        match c.recv_response() {
                            Ok((rid, InferResponse::Ok { logits, .. }))
                                if rid == id && logits == offline =>
                            {
                                my_lats.push(t.elapsed());
                            }
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                lats.lock().unwrap().extend(my_lats);
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for t in threads {
        t.join().expect("driver thread");
    }
    let seconds = t0.elapsed().as_secs_f64();
    running.store(false, Ordering::Relaxed);
    sampler.join().expect("rss sampler");
    let rss_growth_kib = rss_peak.load(Ordering::Relaxed).saturating_sub(rss_base) as f64;
    let lats = Arc::try_unwrap(lats).unwrap().into_inner().unwrap();
    let errors = errors.load(Ordering::Relaxed);
    (seconds, lats, errors, rss_growth_kib / conns as f64)
}

fn measure_conn_point(
    model: &Arc<VitModel>,
    img: &Tensor,
    offline: &[f32],
    conns: usize,
    rounds: usize,
) -> ConnPoint {
    let server = sweep_server(model);
    let addr = server.local_addr();
    let (seconds, mut lats, errors, rss_per_conn_kib) =
        conn_point(addr, img, offline, conns, rounds);
    server.shutdown();
    lats.sort_unstable();
    let p = ConnPoint {
        conns,
        images_per_sec: lats.len() as f64 / seconds,
        p50_ms: percentile_ms(&lats, 0.50),
        p99_ms: percentile_ms(&lats, 0.99),
        rss_per_conn_kib,
        errors,
    };
    println!(
        "  {:5} conns: {:8.1} img/s  p50 {:6.1}ms  p99 {:6.1}ms  ~{:.1} KiB/conn  errors {}",
        p.conns, p.images_per_sec, p.p50_ms, p.p99_ms, p.rss_per_conn_kib, p.errors
    );
    p
}

/// One connection, `total` requests, `depth` in flight at once.
fn pipelined_throughput(
    addr: std::net::SocketAddr,
    img: &Tensor,
    depth: usize,
    total: usize,
) -> f64 {
    let mut c = Client::connect(addr).expect("connect");
    let t0 = Instant::now();
    let mut inflight = 0usize;
    let mut sent = 0usize;
    let mut done = 0usize;
    while done < total {
        while inflight < depth && sent < total {
            c.send_infer(img).expect("send");
            sent += 1;
            inflight += 1;
        }
        match c.recv_response().expect("recv") {
            (_, InferResponse::Ok { .. }) => {}
            (_, other) => panic!("pipelined client got {other:?}"),
        }
        inflight -= 1;
        done += 1;
    }
    total as f64 / t0.elapsed().as_secs_f64()
}

/// Value of `--flag VALUE` on the command line, if present.
fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// An fp32 provider with a fixed sleep prepended to every batch: compute
/// cost becomes a deterministic constant, so the fairness phase's latency
/// gates compare *scheduling policy*, not machine speed.
struct PacedProvider {
    per_batch: Duration,
}

impl BackendProvider for PacedProvider {
    fn name(&self) -> &'static str {
        "paced-fp32"
    }

    fn with_backend(&self, work: &mut dyn FnMut(&mut dyn Backend)) {
        std::thread::sleep(self.per_batch);
        let mut be = Observed::new(Fp32Backend::new());
        work(&mut be);
    }
}

/// Offers `rate` req/s for `duration` as one tenant — same shared-schedule
/// structure as [`fixed_rate`], but every request carries `opts` (class,
/// tenant). Returns (ok, shed, latencies of the ok responses).
fn tenant_load(
    addr: std::net::SocketAddr,
    img: &Tensor,
    opts: InferOptions,
    rate: f64,
    duration: Duration,
    senders: usize,
) -> (usize, usize, Vec<Duration>) {
    let n = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
    let start = Instant::now() + Duration::from_millis(20);
    let schedule: Arc<Mutex<std::collections::VecDeque<Instant>>> = Arc::new(Mutex::new(
        (0..n)
            .map(|i| start + Duration::from_secs_f64(i as f64 / rate))
            .collect(),
    ));
    let ok = Arc::new(AtomicUsize::new(0));
    let shed = Arc::new(AtomicUsize::new(0));
    let lats: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let threads: Vec<_> = (0..senders)
        .map(|_| {
            let schedule = Arc::clone(&schedule);
            let ok = Arc::clone(&ok);
            let shed = Arc::clone(&shed);
            let lats = Arc::clone(&lats);
            let img = img.clone();
            let opts = opts.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut mine = Vec::new();
                loop {
                    let due = match schedule.lock().unwrap().pop_front() {
                        Some(d) => d,
                        None => break,
                    };
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let s = Instant::now();
                    match c.infer_with("", &img, &opts).expect("infer") {
                        InferResponse::Ok { .. } => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            mine.push(s.elapsed());
                        }
                        InferResponse::Overloaded => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("tenant load got {other:?}"),
                    }
                }
                lats.lock().unwrap().extend(mine);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("tenant sender");
    }
    let lats = Arc::try_unwrap(lats).unwrap().into_inner().unwrap();
    (
        ok.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
        lats,
    )
}

/// One point on the shed-fairness curve: a hog tenant at a multiple of
/// server capacity running concurrently with the compliant tenant.
struct TenantPoint {
    hog_multiple: f64,
    hog_offered_per_sec: f64,
    hog_ok: usize,
    hog_shed: usize,
    well_ok: usize,
    well_shed: usize,
    well_p99_ms: f64,
}

/// `--slo ADDR` mode for `scripts/check.sh`: drive an externally started
/// `quq-serve` (test-config model, `--tenant-quota` active) with a
/// flooding batch tenant and a compliant interactive tenant, then print a
/// parseable `SLO …` summary line. The server's own `--metrics-json`
/// snapshot carries the site-coverage evidence; this mode only asserts
/// the client-visible invariants.
fn drive_external_slo(addr: &str) {
    let addr: std::net::SocketAddr = addr.parse().expect("--slo ADDR must be host:port");
    let img = ModelConfig::test_config().dummy_image(0.3);
    let well_opts = InferOptions {
        class: Class::Interactive,
        tenant: "well".into(),
        ..InferOptions::default()
    };
    let hog_opts = InferOptions {
        class: Class::Batch,
        tenant: "hog".into(),
        ..InferOptions::default()
    };
    let mut well = Client::connect(addr).expect("connect well tenant");
    for _ in 0..5 {
        match well.infer_with("", &img, &well_opts).expect("warmup") {
            InferResponse::Ok { .. } => {}
            other => panic!("warmup got {other:?}"),
        }
    }
    // The hog keeps a deep pipelined window in flight (far past the admission
    // queue) until the compliant tenant finishes its measured run, so the
    // well requests always land on a saturated queue.
    let running = Arc::new(AtomicBool::new(true));
    let hog_handle = {
        let running = Arc::clone(&running);
        let img = img.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect hog tenant");
            let depth = 64usize;
            let (mut ok, mut shed) = (0usize, 0usize);
            let mut inflight = 0usize;
            let mut tally = |resp: InferResponse| match resp {
                InferResponse::Ok { .. } => ok += 1,
                InferResponse::Overloaded => shed += 1,
                other => panic!("hog tenant got {other:?}"),
            };
            while running.load(Ordering::Relaxed) {
                while inflight < depth {
                    c.send_infer_with("", &img, &hog_opts).expect("hog send");
                    inflight += 1;
                }
                tally(c.recv_response().expect("hog recv").1);
                inflight -= 1;
            }
            for _ in 0..inflight {
                tally(c.recv_response().expect("hog drain").1);
            }
            (ok, shed)
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let (mut well_ok, mut well_shed) = (0usize, 0usize);
    let mut lats = Vec::new();
    for _ in 0..50 {
        let s = Instant::now();
        match well.infer_with("", &img, &well_opts).expect("well infer") {
            InferResponse::Ok { .. } => {
                well_ok += 1;
                lats.push(s.elapsed());
            }
            InferResponse::Overloaded => well_shed += 1,
            other => panic!("well tenant got {other:?}"),
        }
    }
    running.store(false, Ordering::Relaxed);
    let (hog_ok, hog_shed) = hog_handle.join().expect("hog thread");
    lats.sort_unstable();
    let p99 = percentile_ms(&lats, 0.99);
    assert_eq!(
        well_shed, 0,
        "compliant tenant was shed under the hog flood"
    );
    assert!(
        hog_shed > 0,
        "hog flood was never shed — quota not engaged?"
    );
    println!(
        "SLO well_p99_ms={p99:.2} well_ok={well_ok} well_shed={well_shed} hog_ok={hog_ok} hog_shed={hog_shed}"
    );
}

fn main() {
    if let Some(addr) = arg_value("--slo") {
        drive_external_slo(&addr);
        return;
    }
    let threads = pool::num_threads();
    let embed_metrics = metrics_enabled();
    println!("loadgen: {threads} pool thread(s), quick={}", quick());
    let (model, eval, tables) = setup();
    // The recorder stays on for the whole run: serving metrics (accepted/
    // shed/batch size/e2e) feed the report, and correctness is asserted
    // with metrics enabled (observability must not perturb results).
    quq_obs::set_enabled(true);
    let run_start = quq_obs::snapshot();

    // Phase 1 — correctness gate: served bits == offline bits.
    {
        let server = start_server(&model, &tables, 8);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for img in eval.images.iter().take(4) {
            let mut be = Observed::new(IntegerBackend::with_cache(
                &tables,
                Arc::clone(
                    &Arc::new(quq_accel::WeightQubCache::new()), // fresh: no cross-talk
                ),
            ));
            let offline = model.forward(img, &mut be).expect("offline forward");
            match client.infer(img).expect("infer") {
                InferResponse::Ok { logits, .. } => {
                    assert_eq!(
                        logits,
                        offline.data(),
                        "served logits are not bit-identical to offline forward"
                    );
                }
                other => panic!("correctness probe got {other:?}"),
            }
        }
        server.shutdown();
        println!("served == offline logits (bitwise): verified");
    }

    // Phase 2 — offline baseline at the same thread count.
    let offline_images_per_sec = {
        let cache = Arc::new(quq_accel::WeightQubCache::new());
        let mk = || Observed::new(IntegerBackend::with_cache(&tables, Arc::clone(&cache)));
        evaluate_parallel(&model, mk, &eval).expect("warmup");
        let t0 = Instant::now();
        evaluate_parallel(&model, mk, &eval).expect("evaluate");
        let ips = eval.len() as f64 / t0.elapsed().as_secs_f64();
        println!("   offline evaluate_parallel: {ips:7.2} img/s");
        ips
    };

    // Phase 3 — closed-loop serving, unbatched vs batched.
    let clients = 8;
    let total = if quick() { 24 } else { 96 };
    let unbatched = measure_serving(
        &model,
        &tables,
        &eval.images,
        "unbatched",
        1,
        clients,
        total,
    );
    let batched = measure_serving(&model, &tables, &eval.images, "batched", 8, clients, total);

    // Phase 4 — fixed-rate sweep around measured capacity.
    let capacity = batched.images_per_sec;
    let duration = Duration::from_secs_f64(if quick() { 1.0 } else { 2.0 });
    let server = start_server(&model, &tables, 8);
    let mut warm = Client::connect(server.local_addr()).expect("connect");
    assert!(matches!(
        warm.infer(&eval.images[0]).expect("warmup"),
        InferResponse::Ok { .. }
    ));
    // More senders than the queue can hold, so offered load beyond
    // capacity translates into a full queue (and sheds) rather than being
    // silently throttled by sender concurrency.
    let senders = QUEUE_CAPACITY + 32;
    println!("shed curve (capacity ≈ {capacity:.2} img/s):");
    let mut curve: Vec<RatePoint> = [0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|&mult| fixed_rate(&server, &eval.images, capacity * mult, duration, senders))
        .collect();
    // The closed-loop "capacity" can underestimate a dynamically batched
    // server (clients bound in-flight work); escalate until backpressure
    // actually engages so the curve always shows the shed regime.
    let mut mult = 8.0;
    while curve.last().is_none_or(|p| p.shed == 0) && mult <= 64.0 {
        curve.push(fixed_rate(
            &server,
            &eval.images,
            capacity * mult,
            duration,
            senders,
        ));
        mult *= 2.0;
    }
    server.shutdown();
    let overload_sheds = curve.last().map_or(0, |p| p.shed) > 0;
    assert!(
        overload_sheds,
        "4x capacity must shed (backpressure is load-tested here)"
    );
    let queue_bounded = curve.iter().all(|p| p.max_queue_depth <= 64);
    assert!(queue_bounded, "queue depth exceeded its configured bound");

    // Phase 5 — connection sweep on the event-loop front end. The
    // test-scale model keeps forwards cheap so this stresses framing +
    // readiness handling, not matmuls.
    let _ = sys::raise_nofile_limit(16384);
    let sweep_model = Arc::new(VitModel::synthesize(ModelConfig::test_config(), 77));
    let sweep_img = sweep_model.config().dummy_image(0.3);
    let sweep_offline = sweep_model
        .forward(&sweep_img, &mut Fp32Backend::new())
        .expect("offline forward")
        .data()
        .to_vec();
    let conn_sizes: &[usize] = if quick() {
        &[64, 512]
    } else {
        &[64, 256, 1024]
    };
    let rounds = if quick() { 2 } else { 4 };
    println!("connection sweep (test model, fp32, 1 worker):");
    let conn_sweep: Vec<ConnPoint> = conn_sizes
        .iter()
        .map(|&n| measure_conn_point(&sweep_model, &sweep_img, &sweep_offline, n, rounds))
        .collect();
    let sweep_clean = conn_sweep.iter().all(|p| p.errors == 0);
    assert!(
        sweep_clean,
        "connection sweep saw desyncs/errors: {:?}",
        conn_sweep.iter().map(|p| p.errors).collect::<Vec<_>>()
    );

    // Phase 6 — pipelining: one connection, 32 in flight vs closed-loop.
    let (pipelined_ips, sequential_ips) = {
        let server = sweep_server(&sweep_model);
        let addr = server.local_addr();
        let total = if quick() { 128 } else { 512 };
        let seq = pipelined_throughput(addr, &sweep_img, 1, total);
        let pipe = pipelined_throughput(addr, &sweep_img, 32, total);
        server.shutdown();
        println!(
            "pipelined client (1 conn): depth 32 {pipe:8.1} img/s vs closed-loop {seq:8.1} img/s"
        );
        (pipe, seq)
    };
    assert!(
        pipelined_ips > sequential_ips,
        "pipelining must outrun one-at-a-time on the same connection"
    );

    // Phase 7 — multi-tenant fairness under per-tenant quotas. The paced
    // provider pins batch cost to a constant, so capacity and the latency
    // gates below are machine-independent: a compliant interactive tenant
    // at a quarter of its quota must never be shed and must keep its p99
    // while a batch-class hog floods at up to 4× server capacity.
    println!("multi-tenant fairness (paced backend, token-bucket quotas):");
    let pace = Duration::from_millis(5);
    let fair_max_batch = 4usize;
    let fair_capacity = fair_max_batch as f64 / pace.as_secs_f64();
    let quota = fair_capacity / 8.0;
    let well_rate = quota / 4.0;
    let (unloaded_p99_ms, fairness_points) = {
        let server = Server::start(
            Arc::clone(&sweep_model),
            Arc::new(PacedProvider { per_batch: pace }),
            ServeConfig {
                workers: 1,
                max_batch: fair_max_batch,
                max_wait: Duration::from_millis(10),
                queue_capacity: 16,
                tenant_rate: quota,
                tenant_burst: quota / 10.0,
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr();
        let well = InferOptions {
            class: Class::Interactive,
            tenant: "well".into(),
            ..InferOptions::default()
        };
        let hog = InferOptions {
            class: Class::Batch,
            tenant: "hog".into(),
            ..InferOptions::default()
        };
        let mut warmc = Client::connect(addr).expect("connect");
        assert!(matches!(
            warmc.infer_with("", &sweep_img, &well).expect("warmup"),
            InferResponse::Ok { .. }
        ));
        let fair_duration = Duration::from_secs_f64(if quick() { 1.0 } else { 2.0 });
        // Unloaded baseline: the compliant tenant alone.
        let (b_ok, b_shed, mut b_lats) =
            tenant_load(addr, &sweep_img, well.clone(), well_rate, fair_duration, 4);
        assert!(b_ok > 0 && b_shed == 0, "in-quota tenant shed while alone");
        b_lats.sort_unstable();
        let unloaded_p99 = percentile_ms(&b_lats, 0.99);
        println!("  unloaded well tenant: {b_ok} ok, p99 {unloaded_p99:.2}ms");
        let mut points = Vec::new();
        for mult in [1.0, 2.0, 4.0] {
            let hog_rate = fair_capacity * mult;
            let hog_handle = {
                let img = sweep_img.clone();
                let hog = hog.clone();
                std::thread::spawn(move || {
                    tenant_load(addr, &img, hog, hog_rate, fair_duration, 96)
                })
            };
            let (w_ok, w_shed, mut w_lats) =
                tenant_load(addr, &sweep_img, well.clone(), well_rate, fair_duration, 4);
            let (h_ok, h_shed, _) = hog_handle.join().expect("hog thread");
            w_lats.sort_unstable();
            let p = TenantPoint {
                hog_multiple: mult,
                hog_offered_per_sec: hog_rate,
                hog_ok: h_ok,
                hog_shed: h_shed,
                well_ok: w_ok,
                well_shed: w_shed,
                well_p99_ms: percentile_ms(&w_lats, 0.99),
            };
            println!(
                "  hog at {:.0}x capacity: hog ok {} shed {} ({:.0}%), well ok {} shed {} p99 {:.2}ms",
                p.hog_multiple,
                p.hog_ok,
                p.hog_shed,
                100.0 * p.hog_shed as f64 / (p.hog_ok + p.hog_shed).max(1) as f64,
                p.well_ok,
                p.well_shed,
                p.well_p99_ms
            );
            assert_eq!(
                p.well_shed, 0,
                "in-quota interactive tenant was shed at {mult}x hog overload"
            );
            points.push(p);
        }
        server.shutdown();
        (unloaded_p99, points)
    };
    let overload_point = fairness_points.last().unwrap();
    assert!(
        overload_point.hog_shed > 0,
        "a 4x-capacity hog must be shed"
    );
    let loaded_p99_ms = overload_point.well_p99_ms;
    // The 0.5ms epsilon keeps the relative gate meaningful when both p99s
    // sit near the (deterministic, paced) few-millisecond floor.
    let fairness_ok = loaded_p99_ms <= unloaded_p99_ms * 1.2 + 0.5;
    assert!(
        fairness_ok,
        "compliant tenant p99 degraded past 20% under 4x hog overload: \
         {loaded_p99_ms:.2}ms loaded vs {unloaded_p99_ms:.2}ms unloaded"
    );
    println!(
        "  compliant p99 under 4x overload: {loaded_p99_ms:.2}ms vs {unloaded_p99_ms:.2}ms unloaded ✓"
    );

    // Phase 8 — shadow routing at a 25% mirror against a bit-identical
    // candidate: the permille accumulator must select exactly ⌊N/4⌋
    // requests, agreement must be 100%, and every primary reply must stay
    // bit-exact while mirroring runs.
    let shadow_requests = 64usize;
    let shadow_report = {
        let server = sweep_server(&sweep_model);
        server.register_model(
            "cand",
            Arc::new(ModelState::new(
                Arc::clone(&sweep_model),
                Arc::new(Fp32Provider),
            )),
        );
        let mut c = Client::connect(server.local_addr()).expect("connect");
        match c.shadow_set("cand", 0.25).expect("shadow set") {
            InferResponse::Shadow(r) => {
                assert!(r.active && r.name == "cand", "arming failed: {r:?}")
            }
            other => panic!("shadow set got {other:?}"),
        }
        for _ in 0..shadow_requests {
            match c.infer(&sweep_img).expect("infer") {
                InferResponse::Ok { logits, .. } => assert_eq!(
                    logits, sweep_offline,
                    "primary reply changed while shadow mirroring ran"
                ),
                other => panic!("shadow phase got {other:?}"),
            }
        }
        // Mirroring runs after the primary reply is sent; poll until the
        // async compares catch up.
        let want = shadow_requests as u64 / 4;
        let deadline = Instant::now() + Duration::from_secs(10);
        let report = loop {
            let r = match c.shadow_status().expect("shadow status") {
                InferResponse::Shadow(r) => r,
                other => panic!("shadow status got {other:?}"),
            };
            if r.mirrored >= want && r.agree + r.disagree >= want {
                break r;
            }
            assert!(
                Instant::now() < deadline,
                "shadow compares did not catch up: {r:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        server.shutdown();
        assert_eq!(
            report.mirrored, want,
            "25% mirror must select exactly N/4 of {shadow_requests} requests"
        );
        assert_eq!(
            report.agree, want,
            "bit-identical candidate must agree on every mirrored request"
        );
        assert_eq!(report.disagree, 0, "bit-identical candidate disagreed");
        println!(
            "shadow at 25%: {}/{} mirrored, agree {}, disagree {}, primary bit-exact ✓",
            report.mirrored, shadow_requests, report.agree, report.disagree
        );
        report
    };

    // Metric-site coverage: the serving path must have reported its
    // counters and per-backend histograms during the phases above.
    let delta = quq_obs::snapshot().delta_since(&run_start);
    quq_obs::set_enabled(false);
    let serve_sites_complete = delta.counter_total("serve.accepted") > 0
        && delta.counter_total("serve.shed") > 0
        && ["serve.batch_size", "serve.e2e", "serve.queue_depth"]
            .iter()
            .all(|name| {
                delta
                    .hists
                    .iter()
                    .any(|h| h.name == *name && h.site.as_deref() == Some("quq-int") && h.count > 0)
            });
    assert!(serve_sites_complete, "serve.* metric sites are incomplete");
    println!("serve.* metric site coverage: verified");

    let batched_ge_offline = batched.images_per_sec >= offline_images_per_sec;
    println!(
        "batched serving vs offline at {threads} thread(s): {:.2} vs {:.2} img/s ({})",
        batched.images_per_sec,
        offline_images_per_sec,
        if batched_ge_offline {
            "≥ offline ✓"
        } else {
            "below offline ✗"
        }
    );

    // Emit BENCH_serve.json.
    let mut json = format!(
        "{{\"threads\": {threads}, \"backend\": \"quq-int\", \"quick\": {}, \"offline_images_per_sec\": {:.3}, \"responses_match_offline_bitwise\": true, \"serve_sites_complete\": {serve_sites_complete}, \"queue_depth_bounded\": {queue_bounded}, \"batched_ge_offline\": {batched_ge_offline}, \"serving\": [",
        quick(),
        offline_images_per_sec,
    );
    for (i, r) in [&unbatched, &batched].into_iter().enumerate() {
        json.push_str(&format!(
            "{}{{\"mode\": \"{}\", \"max_batch\": {}, \"clients\": {}, \"images_per_sec\": {:.3}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \"mean_batch\": {:.3}}}",
            if i > 0 { ", " } else { "" },
            r.mode,
            r.max_batch,
            r.clients,
            r.images_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.mean_batch
        ));
    }
    json.push_str("], \"shed_curve\": [");
    for (i, p) in curve.iter().enumerate() {
        json.push_str(&format!(
            "{}{{\"offered_per_sec\": {:.3}, \"achieved_per_sec\": {:.3}, \"ok\": {}, \"shed\": {}, \"shed_rate\": {:.4}, \"max_queue_depth\": {}}}",
            if i > 0 { ", " } else { "" },
            p.offered_per_sec,
            p.achieved_per_sec,
            p.ok,
            p.shed,
            p.shed as f64 / (p.ok + p.shed).max(1) as f64,
            p.max_queue_depth
        ));
    }
    json.push_str("], \"conn_sweep\": [");
    for (i, p) in conn_sweep.iter().enumerate() {
        json.push_str(&format!(
            "{}{{\"conns\": {}, \"images_per_sec\": {:.3}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \"rss_per_conn_kib\": {:.1}, \"errors\": {}}}",
            if i > 0 { ", " } else { "" },
            p.conns,
            p.images_per_sec,
            p.p50_ms,
            p.p99_ms,
            p.rss_per_conn_kib,
            p.errors
        ));
    }
    json.push_str(&format!(
        "], \"conn_sweep_clean\": {sweep_clean}, \"pipelined\": {{\"depth\": 32, \"images_per_sec\": {pipelined_ips:.3}, \"sequential_images_per_sec\": {sequential_ips:.3}}}",
    ));
    json.push_str(&format!(
        ", \"slo_fairness\": {{\"capacity_per_sec\": {fair_capacity:.1}, \"quota_per_sec\": {quota:.1}, \"well_rate_per_sec\": {well_rate:.1}, \"unloaded_p99_ms\": {unloaded_p99_ms:.2}, \"loaded_p99_ms\": {loaded_p99_ms:.2}, \"p99_ratio\": {:.3}, \"fairness_ok\": {fairness_ok}, \"points\": [",
        loaded_p99_ms / unloaded_p99_ms.max(1e-9),
    ));
    for (i, p) in fairness_points.iter().enumerate() {
        json.push_str(&format!(
            "{}{{\"hog_multiple\": {:.1}, \"hog_offered_per_sec\": {:.1}, \"hog_ok\": {}, \"hog_shed\": {}, \"hog_shed_rate\": {:.4}, \"well_ok\": {}, \"well_shed\": {}, \"well_p99_ms\": {:.2}}}",
            if i > 0 { ", " } else { "" },
            p.hog_multiple,
            p.hog_offered_per_sec,
            p.hog_ok,
            p.hog_shed,
            p.hog_shed as f64 / (p.hog_ok + p.hog_shed).max(1) as f64,
            p.well_ok,
            p.well_shed,
            p.well_p99_ms
        ));
    }
    json.push_str(&format!(
        "]}}, \"shadow\": {{\"fraction\": 0.25, \"requests\": {shadow_requests}, \"mirrored\": {}, \"agree\": {}, \"disagree\": {}, \"primary_bitexact\": true, \"shadow_ok\": true}}",
        shadow_report.mirrored, shadow_report.agree, shadow_report.disagree
    ));
    if embed_metrics {
        json.push_str(&format!(", \"metrics\": {}", delta.to_json()));
        println!("slowest op sites during the run:");
        print!("{}", quq_obs::report::slowest_sites_table(&delta, 10, "  "));
    }
    json.push('}');
    let out = std::env::var("QUQ_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    println!("wrote {out}");
}
