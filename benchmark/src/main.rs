//! The repo's one benchmark. `README.md` in this directory says what the
//! workloads and metrics mean; `BENCHMARK.json` at the repo root names the
//! command that runs it.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [flags]
//!
//!   --workload NAME   one workload (default: all five, untraced then traced)
//!   --trace 0|1       with --workload: 0 = end-to-end metrics, tracing off
//!                     (default); 1 = per-layer metrics from a traced run
//!   --seed N          input images and arrival schedule (default 1)
//!   --seconds N       measured time per run (default 15)
//!   --repeat N        untraced runs on seeds one apart, then median and spread
//!   --quick           test_config models everywhere, for a smoke run
//! ```
//!
//! A `--workload` run ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod json;
mod layers;
mod loadgen;
mod metrics;
mod oracle;
mod stats;
mod trace;
mod window;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use metrics::{Traced, Values, END_TO_END, NOT_MEASURED, PER_LAYER};
use trace::Tracer;
use window::Window;
use workloads::{setup, Env, Kind};

/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A run whose open-loop generator ran later than this at its 95th
/// percentile measured its own lateness, not the server: it is invalid.
const SEND_LAG_LIMIT_MS: f64 = 5.0;

struct Args {
    workload: Option<Kind>,
    trace: Option<bool>,
    seed: u64,
    seconds: f64,
    repeat: usize,
    quick: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: [--workload NAME] [--trace 0|1] [--seed N] [--seconds N] [--repeat N] [--quick]"
    );
    eprintln!("workloads: {}", Kind::ALL.map(|k| k.name()).join(", "));
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        trace: None,
        seed: 1,
        seconds: 15.0,
        repeat: 0,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                args.workload = Some(
                    Kind::parse(&name).unwrap_or_else(|| usage(&format!("no workload {name:?}"))),
                );
            }
            "--trace" => {
                args.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage("--seconds takes a number from 1 to 600"));
            }
            "--repeat" => {
                args.repeat = value()
                    .parse()
                    .ok()
                    .filter(|n| *n >= 2)
                    .unwrap_or_else(|| usage("--repeat takes a whole number, at least 2"));
            }
            "--quick" => args.quick = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the compute pool to one thread unless the caller chose otherwise,
/// and refuses a pool wider than the host: an oversubscribed pool measures
/// the kernel's scheduler. Must run before the pool is first used.
fn pin_threads() -> usize {
    match std::env::var("QUQ_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n > nproc() => {
            eprintln!(
                "QUQ_THREADS={n} exceeds the host's {} cores; refusing",
                nproc()
            );
            std::process::exit(2);
        }
        Some(n) if n > 0 => n,
        _ => {
            std::env::set_var("QUQ_THREADS", "1");
            1
        }
    }
}

fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    base.join("out")
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Which host, build and inputs the numbers belong to.
fn provenance(args: &Args, threads: usize) -> Json {
    Json::obj([
        ("nproc", Json::Int(nproc() as u64)),
        ("isa", Json::str(quq_tensor::linalg::isa::resolve().name())),
        ("quq_threads", Json::Int(threads as u64)),
        ("git_sha", Json::str(git_sha())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
    ])
}

/// What one run of one workload in one mode produced.
struct Outcome {
    kind: Kind,
    traced: bool,
    attempted: u64,
    failed: u64,
    /// Every output was bit-identical to the oracle.
    correct: bool,
    /// Why the run cannot be used, if so (generator too late, broken
    /// connection, tuner searching inside the window).
    invalid: Option<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn usable(&self) -> bool {
        self.correct && self.invalid.is_none()
    }

    fn json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.usable())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
    }

    fn print(&self) {
        let mode = if self.traced { "traced" } else { "untraced" };
        println!(
            "{} ({mode}): attempted {} failed {} correct {}",
            self.kind.name(),
            self.attempted,
            self.failed,
            self.correct
        );
        if let Some(why) = &self.invalid {
            println!("  INVALID: {why}");
        }
        for &(name, value, unit) in &self.metrics {
            // A traced run lists only what this workload measured.
            if !self.traced || value != 0.0 {
                println!("  {name:<36}{value:>16.4} {unit}");
            }
        }
    }
}

/// The process exit code for a set of outcomes: non-zero when any output
/// was wrong or any run was invalid.
fn exit_code(outcomes: &[Outcome]) -> u8 {
    u8::from(!outcomes.iter().all(Outcome::usable))
}

/// Why a window cannot be used, if it cannot.
fn window_problem(w: &Window, tune_searches: u64) -> Option<String> {
    if let Some(e) = &w.error {
        return Some(format!("load generator: {e}"));
    }
    if tune_searches > 0 {
        return Some(format!(
            "{tune_searches} tuner searches ran inside the timed window"
        ));
    }
    let lag = w.send_lag_p95_ms();
    (lag > SEND_LAG_LIMIT_MS).then(|| {
        format!(
            "the open-loop generator ran {lag:.2} ms late at p95 (limit {SEND_LAG_LIMIT_MS} ms)"
        )
    })
}

fn tune_searches() -> u64 {
    quq_tensor::tune::stats().0
}

/// Tracing off: three complete set-ups, one timed window, the end-to-end
/// metrics. The tracer is there and switched off, so the window runs the
/// code a traced window runs.
fn run_untraced(kind: Kind, env: &Env, seconds: f64) -> Outcome {
    let images = env.inputs(kind);
    let tracer = Tracer::new();
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        if let Some(previous) = rig.take() {
            workloads::Rig::teardown(previous);
        }
        let t = Instant::now();
        rig = Some(setup(kind, env, &images, &tracer));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let rig = rig.expect("at least one set-up");
    let oracle = rig.reference(&images);
    let searches = tune_searches();
    let w = rig.run(
        kind,
        env,
        &images,
        &oracle,
        Duration::from_secs_f64(seconds),
        &tracer,
    );
    let searches = tune_searches() - searches;
    let rates = w.slice_rates();
    println!(
        "  set-ups {setup_s:.3?} s; 1 s slices: best {:.2}, median {:.2}, worst {:.2} img/s",
        rates.iter().copied().fold(0.0, f64::max),
        w.median_img_per_s(),
        rates.iter().copied().fold(f64::MAX, f64::min)
    );
    let tail = [0.95, 0.90, 0.80].into_iter().find_map(|p| {
        w.lat_tail_ms(0, p)
            .map(|v| format!("p{:.0} {v:.2}", p * 100.0))
    });
    println!(
        "  latency over {} samples: lat_p50_ms {:.2}, median of slice medians {:.2}, {} ms",
        w.latencies(0).len(),
        w.lat_p50_ms(0),
        w.median_lat_ms(0),
        tail.unwrap_or_else(|| "too few for a tail".to_string())
    );
    // The metrics one workload owns; the others print `NOT_MEASURED`.
    let (mut slo_ok_frac, mut top1, mut auto_bytes) = (NOT_MEASURED, NOT_MEASURED, NOT_MEASURED);
    match kind {
        Kind::ServeVitsOpen => {
            println!("  send lag p95 {:.3} ms", w.send_lag_p95_ms());
            slo_ok_frac = w.slo_ok_frac();
        }
        Kind::OfflineIntB8 => {
            let pool = env.agreement_pool(kind);
            top1 = rig
                .reference(&pool)
                .top1_agree_frac(&rig.fp32_reference(&pool));
        }
        Kind::StoreCycle => auto_bytes = w.count("artifact_auto_bytes"),
        Kind::ServeVitsClosed | Kind::ServeToyPipelined => {}
    }
    rig.teardown();
    let values = [
        stats::median(&setup_s),
        w.img_per_s(),
        w.lat_p50_ms(0),
        slo_ok_frac,
        top1,
        auto_bytes,
    ];
    Outcome {
        kind,
        traced: false,
        attempted: w.attempted(),
        failed: w.failed(),
        correct: w.wrong() == 0,
        invalid: window_problem(&w, searches),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((d, _), v)| (d.name, v, d.unit))
            .collect(),
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The share by which the workload's headline number got worse with the
/// recorder and the tracer on.
fn overhead_frac(kind: Kind, untraced: &Window, traced: &Window) -> f64 {
    if kind == Kind::ServeVitsOpen {
        // The offered load fixes the rate; tracing shows in the latency.
        let (u, t) = (untraced.lat_p50_ms(0), traced.lat_p50_ms(0));
        if u > 0.0 {
            t / u - 1.0
        } else {
            0.0
        }
    } else {
        let (u, t) = (untraced.img_per_s(), traced.img_per_s());
        if u > 0.0 {
            1.0 - t / u
        } else {
            0.0
        }
    }
}

/// Tracing on: one set-up; two fifths of the time untraced as the
/// baseline, two fifths traced, one fifth for the micro-timings of the
/// layer this workload owns. Writes the spans to `out/trace-<name>.jsonl`.
fn run_traced(kind: Kind, env: &Env, seconds: f64) -> Outcome {
    let images = env.inputs(kind);
    let tracer = Tracer::new();
    let rig = setup(kind, env, &images, &tracer);
    let oracle = rig.reference(&images);
    let half = Duration::from_secs_f64(seconds * 0.4);
    let searches = tune_searches();
    let baseline = rig.run(kind, env, &images, &oracle, half, &tracer);

    tracer.set_enabled(true);
    quq_obs::set_enabled(true);
    let before = quq_obs::snapshot();
    let w = rig.run(kind, env, &images, &oracle, half, &tracer);
    let obs = quq_obs::snapshot().delta_since(&before);
    quq_obs::set_enabled(false);
    tracer.set_enabled(false);
    let searches = tune_searches() - searches;
    let spans = tracer.take();

    let mut v: Values = metrics::from_trace(&Traced {
        kind,
        integer: rig.tables.is_some(),
        window: &w,
        spans: &spans,
        obs: &obs,
    });
    let micro = Duration::from_secs_f64(seconds * 0.2);
    let owned = match (kind, &rig.tables) {
        (Kind::OfflineIntB8, Some(tables)) => layers::forward_path(&rig, tables, &images, micro),
        (Kind::ServeToyPipelined, _) => {
            layers::serve_path(&images[0], rig.model.config().num_classes, micro)
        }
        (Kind::StoreCycle, Some(tables)) => {
            let store = rig.store().expect("the store workload has a store rig");
            let mut out = layers::store_path(&rig.model, tables, store, micro);
            out.push(("store.artifact_raw_bytes", store.raw_bytes as f64));
            out
        }
        _ => Vec::new(),
    };
    v.extend(owned);
    v.insert("tensor.tune_searches", searches as f64);
    v.insert("core.calibrate_s", rig.calibrate_s);
    v.insert("obs.overhead_frac", overhead_frac(kind, &baseline, &w));
    let snapshot_s = layers::time_call(Duration::from_millis(20), || {
        std::hint::black_box(quq_obs::snapshot());
    });
    v.insert("obs.snapshot_ms", snapshot_s * 1e3);
    v.insert("bench.slice_spread", baseline.slice_spread());
    v.insert("bench.median_img_per_s", baseline.median_img_per_s());
    v.insert("bench.peak_rss_mib", peak_rss_mib());
    rig.teardown();

    let path = env.out_dir.join(format!("trace-{}.jsonl", kind.name()));
    trace::write_jsonl(&path, &spans).expect("write the trace");
    println!("  {} spans written to {}", spans.len(), path.display());
    print!("{}", metrics::budget(kind, &v));

    let problem = window_problem(&baseline, 0).or_else(|| window_problem(&w, searches));
    Outcome {
        kind,
        traced: true,
        attempted: baseline.attempted() + w.attempted(),
        failed: baseline.failed() + w.failed(),
        correct: baseline.wrong() + w.wrong() == 0,
        invalid: problem,
        metrics: PER_LAYER
            .iter()
            .map(|d| (d.name, v.get(d.name).copied().unwrap_or(0.0), d.unit))
            .collect(),
    }
}

fn run_one(kind: Kind, env: &Env, seconds: f64, traced: bool) -> Outcome {
    println!(
        "--- {} ({}) seed {} ---",
        kind.name(),
        if traced { "traced" } else { "untraced" },
        env.seed
    );
    let outcome = if traced {
        run_traced(kind, env, seconds)
    } else {
        run_untraced(kind, env, seconds)
    };
    outcome.print();
    outcome
}

/// `--repeat N`: the untraced set N times on seeds one apart, then each
/// end-to-end metric's median and spread per workload.
fn repeat(kinds: &[Kind], args: &Args, out_dir: PathBuf) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    for i in 0..args.repeat {
        let env = Env {
            seed: args.seed + i as u64,
            quick: args.quick,
            out_dir: out_dir.clone(),
        };
        for &kind in kinds {
            outcomes.push(run_one(kind, &env, args.seconds, false));
        }
    }
    println!(
        "=== {} runs per workload: median, max/min, (Q3-Q1)/median ===",
        args.repeat
    );
    for &kind in kinds {
        println!("{}", kind.name());
        for (d, bound) in &END_TO_END {
            let values: Vec<f64> = outcomes
                .iter()
                .filter(|o| o.kind == kind)
                .filter_map(|o| o.metrics.iter().find(|m| m.0 == d.name).map(|m| m.1))
                .collect();
            let max = values.iter().copied().fold(f64::MIN, f64::max);
            let min = values.iter().copied().fold(f64::MAX, f64::min);
            println!(
                "  {:<18}{:>14.4} {:<6} max/min {:>7.4}  iqr {:>6.2}%  bound {:>4.0}%",
                d.name,
                stats::median(&values),
                d.unit,
                if min > 0.0 { max / min } else { 0.0 },
                100.0 * stats::iqr_share(&values),
                100.0 * bound
            );
        }
    }
    outcomes
}

fn main() -> ExitCode {
    let args = parse_args();
    let threads = pin_threads();
    let out_dir = out_dir();
    println!("provenance: {}", provenance(&args, threads).render());
    let env = Env {
        seed: args.seed,
        quick: args.quick,
        out_dir: out_dir.clone(),
    };
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let outcomes = if args.repeat > 0 {
        repeat(&kinds, &args, out_dir)
    } else {
        let modes: Vec<bool> = match (args.workload, args.trace) {
            (_, Some(traced)) => vec![traced],
            (Some(_), None) => vec![false],
            (None, None) => vec![false, true],
        };
        kinds
            .iter()
            .flat_map(|&kind| modes.iter().map(move |&traced| (kind, traced)))
            .map(|(kind, traced)| run_one(kind, &env, args.seconds, traced))
            .collect()
    };
    // One run: the contract's result line. Several: one object per run.
    let last_line = match outcomes.as_slice() {
        [one] => one.json(),
        many => Json::Arr(
            many.iter()
                .map(|o| {
                    Json::obj([
                        ("workload", Json::str(o.kind.name())),
                        ("traced", Json::Bool(o.traced)),
                        ("result", o.json()),
                    ])
                })
                .collect(),
        ),
    };
    println!("{}", last_line.render());
    ExitCode::from(exit_code(&outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use crate::window::Op;

    /// One reply with a single flipped logit bit is a failed operation and
    /// makes the command exit non-zero.
    #[test]
    fn a_flipped_logit_bit_fails_the_run() {
        let reference = vec![0.25f32, -1.5, 3.0];
        let oracle = Oracle::from_logits(vec![reference.clone()]);
        let mut reply = reference.clone();
        reply[2] = f32::from_bits(reply[2].to_bits() ^ 1);
        let judged = |logits: &[f32]| {
            let ok = oracle.matches(0, logits);
            Op {
                end_ns: 1,
                at_ns: 0,
                latency_ms: 1.0,
                flow: 0,
                ok,
                refused: false,
                in_slo: ok,
            }
        };
        let outcome = |ops: Vec<Op>| {
            let w = Window {
                window_ns: 10,
                ops,
                images_per_op: 1.0,
                ..Window::default()
            };
            Outcome {
                kind: Kind::OfflineIntB8,
                traced: false,
                attempted: w.attempted(),
                failed: w.failed(),
                correct: w.wrong() == 0,
                invalid: window_problem(&w, 0),
                metrics: Vec::new(),
            }
        };
        let good = outcome(vec![judged(&reference), judged(&reference)]);
        assert_eq!((good.failed, exit_code(&[good])), (0, 0));
        let bad = outcome(vec![judged(&reference), judged(&reply)]);
        assert_eq!((bad.attempted, bad.failed, bad.correct), (2, 1, false));
        assert!(bad
            .json()
            .render()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert_eq!(exit_code(&[bad]), 1);
    }

    #[test]
    fn a_late_generator_or_a_searching_tuner_invalidates_the_run() {
        let mut w = Window {
            send_lag_ms: vec![0.1; 400],
            ..Window::default()
        };
        assert_eq!(window_problem(&w, 0), None);
        assert!(window_problem(&w, 2).is_some());
        w.send_lag_ms.extend(vec![9.0; 40]);
        assert!(window_problem(&w, 0).is_some_and(|why| why.contains("late")));
    }
}
