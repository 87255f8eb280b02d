//! The `quq-serve` binary: serve one or more models over TCP and drain
//! gracefully on stdin EOF (or a line of input). Every served model is
//! built from a QUQM artifact, which comes from one of two paths:
//!
//! * `--model-path [NAME=]FILE.quqm` (repeatable): **cold start** from
//!   saved artifacts — no synthesis, no calibration, weight QUBs
//!   read from disk. The first occurrence is the default model;
//!   later ones register under their `NAME=` prefix;
//! * default: synthesize + calibrate `--model` in process and save the
//!   artifact: into memory, and serve it through the same reader as a
//!   file (slow start), or with `--save-model FILE.quqm` to that file,
//!   and exit (pair with a later `--model-path` run).
//!
//! ```text
//! cargo run --release -p quq-serve -- --save-model /tmp/vits.quqm
//! cargo run --release -p quq-serve -- --model-path /tmp/vits.quqm \
//!     --model-path alt=/tmp/other.quqm --max-resident-bytes 100000000
//! ```
//!
//! Flags (all optional):
//!
//! * `--backend int|fp32` — integer QUQ path (default) or f32 reference
//! * `--model vits|test`  — eval-scale ViT-S (default) or the tiny test config
//! * `--model-path [NAME=]FILE` — cold-start from a QUQM artifact (skips
//!   `--model`); repeat to register additional named models
//! * `--max-resident-bytes N` — registry budget: LRU models are evicted
//!   (lazily reloaded on demand) beyond it (default 0 = unbounded)
//! * `--save-model FILE`  — calibrate, save a QUQM artifact, and exit
//! * `--codec NAME`       — chunk codec policy of the saved artifact:
//!   `auto` (default: `byte-shuffle → rc` on f32 chunks, `rc` on QUB
//!   records, each kept only if it saves ≥2%), `raw`, or a forced stack
//!   (`lz`, `rc`, `shuffle-lz`, `shuffle-rc`; `rc` is the static rANS
//!   coder)
//! * `--addr HOST:PORT`   — bind address (default `127.0.0.1:7878`; port 0 = ephemeral)
//! * `--workers N` `--max-batch N` `--max-wait-us N` `--queue N` — tuning;
//!   `--max-wait-us` (default 2000) bounds how long a partial batch waits
//!   for company under load — an idle server ships a request at once
//! * `--reactors N`       — event-loop reactor threads (default 1)
//! * `--tenant-quota RATE[:BURST]` — per-tenant token-bucket quota in
//!   requests/second (optional burst size, default `max(RATE, 1)`);
//!   over-quota tenants shed first under pressure (default: no quota)
//! * `--shadow NAME=FRACTION` — mirror `FRACTION` (0.0–1.0) of
//!   default-model traffic to registered model `NAME` and tally top-1
//!   agreement (`shadow.agree` / `shadow.disagree`)
//! * `--metrics`          — enable the `quq-obs` recorder and print a
//!   summary (`serve.*` counters, slowest op sites) after the drain
//! * `--metrics-json FILE` — write the metrics window (from before the
//!   model is built to the drain) as JSON to `FILE` (implies the recorder
//!   is enabled); `tests/cli.rs` asserts `store.*` / `sched.*` /
//!   `shadow.*` coverage against it
//! * `--list-isas`        — print the GEMM/SFU kernel ISAs this host
//!   supports, one per line (always including `scalar`), and exit; the
//!   per-ISA test matrix in `scripts/check.sh` loops over them
//!
//! Count/duration flags (`--workers`, `--reactors`, `--max-batch`,
//! `--max-wait-us`, `--queue`) must be positive integers and
//! `--max-resident-bytes` must be > 0 (omit it for an unbounded budget);
//! violations exit with a clear error instead of hanging deep in the
//! scheduler.
//!
//! A running server also accepts the admin `LOAD`, `UNLOAD`, `LIST`, and
//! `SHADOW` protocol messages ([`quq_serve::Client::load`],
//! [`quq_serve::Client::shadow_set`], …): models can be hot-swapped (a
//! `LOAD` of the empty name replaces the default), registered, dropped,
//! and canaried without dropping in-flight requests.

use std::io::BufRead;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use quq_core::pipeline::{calibrate, PtqConfig};
use quq_core::QuqMethod;
use quq_serve::{is_integer_backend, state_from_artifact, AdminOp, ServeConfig, Server, ShadowCmd};
use quq_store::{Artifact, ArtifactWriter, CodecChoice, MemStorage, WriteOptions};
use quq_vit::{Dataset, ModelConfig, ModelId, VitModel};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Every value of a repeatable flag, in order.
fn arg_values(name: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// Splits a `--model-path` value: `NAME=PATH` or bare `PATH` (no name).
fn split_model_path(v: &str) -> (Option<&str>, &str) {
    match v.split_once('=') {
        Some((name, path)) if !name.is_empty() && !name.contains('/') => (Some(name), path),
        _ => (None, v),
    }
}

/// Parses a count/duration flag that must be a positive integer, naming
/// the flag in the error instead of panicking (or letting a zero hang
/// the scheduler's batch-collection wait).
fn parse_positive(flag: &str, value: Option<String>, default: u64) -> Result<u64, String> {
    match value {
        None => Ok(default),
        Some(v) => match v.parse::<u64>() {
            Ok(0) | Err(_) => Err(format!("{flag} {v:?}: expected a positive integer")),
            Ok(n) => Ok(n),
        },
    }
}

/// Parses `--max-resident-bytes`. An *explicit* 0 is rejected — omitting
/// the flag is how you ask for an unbounded budget — so a typo cannot
/// silently disable the residency LRU.
fn parse_resident_bytes(value: Option<String>) -> Result<u64, String> {
    match value {
        None => Ok(0),
        Some(v) => match v.parse::<u64>() {
            Ok(0) => Err(
                "--max-resident-bytes must be > 0 (omit the flag for an unbounded budget)".into(),
            ),
            Err(_) => Err(format!(
                "--max-resident-bytes {v:?}: expected a positive integer"
            )),
            Ok(n) => Ok(n),
        },
    }
}

/// Parses a `--tenant-quota RATE[:BURST]` value into `(rate, burst)`:
/// RATE in requests/second (> 0), BURST in requests (≥ 1, default
/// `max(RATE, 1)`).
fn parse_tenant_quota(v: &str) -> Result<(f64, f64), String> {
    let (rate_s, burst_s) = match v.split_once(':') {
        Some((r, b)) => (r, Some(b)),
        None => (v, None),
    };
    let rate: f64 = rate_s
        .parse()
        .map_err(|_| format!("--tenant-quota {v:?}: RATE must be a number"))?;
    if !rate.is_finite() || rate <= 0.0 {
        return Err(format!("--tenant-quota {v:?}: RATE must be > 0"));
    }
    let burst = match burst_s {
        None => rate.max(1.0),
        Some(b) => {
            let burst: f64 = b
                .parse()
                .map_err(|_| format!("--tenant-quota {v:?}: BURST must be a number"))?;
            if !burst.is_finite() || burst < 1.0 {
                return Err(format!("--tenant-quota {v:?}: BURST must be >= 1"));
            }
            burst
        }
    };
    Ok((rate, burst))
}

/// Parses a `--shadow NAME=FRACTION` value.
fn parse_shadow(v: &str) -> Result<(String, f64), String> {
    let (name, frac_s) = v
        .split_once('=')
        .ok_or_else(|| format!("--shadow {v:?}: expected NAME=FRACTION"))?;
    if name.is_empty() {
        return Err(format!("--shadow {v:?}: NAME must be non-empty"));
    }
    let fraction: f64 = frac_s
        .parse()
        .map_err(|_| format!("--shadow {v:?}: FRACTION must be a number"))?;
    if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
        return Err(format!("--shadow {v:?}: FRACTION must be in [0, 1]"));
    }
    Ok((name.to_string(), fraction))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("quq-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().any(|a| a == "--list-isas") {
        for isa in quq_tensor::linalg::isa::supported() {
            println!("{}", isa.name());
        }
        return Ok(());
    }
    let backend = arg_value("--backend").unwrap_or_else(|| "int".into());
    is_integer_backend(&backend)?;
    let model_name = arg_value("--model").unwrap_or_else(|| "vits".into());
    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7878".into());
    let metrics_json = arg_value("--metrics-json");
    let metrics = std::env::args().any(|a| a == "--metrics") || metrics_json.is_some();
    let (tenant_rate, tenant_burst) = match arg_value("--tenant-quota") {
        Some(v) => parse_tenant_quota(&v)?,
        None => (0.0, 0.0),
    };
    // Parsed up front so a bad flag fails before the model loads; applied
    // after the candidate model is registered.
    let shadow = arg_value("--shadow")
        .map(|v| parse_shadow(&v))
        .transpose()?;
    let config = ServeConfig {
        workers: parse_positive("--workers", arg_value("--workers"), 1)? as usize,
        max_batch: parse_positive("--max-batch", arg_value("--max-batch"), 8)? as usize,
        max_wait: Duration::from_micros(parse_positive(
            "--max-wait-us",
            arg_value("--max-wait-us"),
            2000,
        )?),
        queue_capacity: parse_positive("--queue", arg_value("--queue"), 64)? as usize,
        reactors: parse_positive("--reactors", arg_value("--reactors"), 1)? as usize,
        max_resident_bytes: parse_resident_bytes(arg_value("--max-resident-bytes"))?,
        tenant_rate,
        tenant_burst,
        ..ServeConfig::default()
    };

    let codec = arg_value("--codec").unwrap_or_else(|| "auto".into());
    let options = WriteOptions {
        codec: CodecChoice::from_name(&codec).ok_or_else(|| format!("unknown --codec {codec}"))?,
    };
    // The window opens before the model is built, so it holds the loads
    // of the artifact the model is built from.
    quq_obs::set_enabled(metrics);
    let before = quq_obs::snapshot();

    // Every served model is built from an artifact: a file, or one that
    // is calibrated and saved into memory here.
    let model_paths = arg_values("--model-path");
    let default_path = model_paths.first().map(|v| split_model_path(v).1);
    let t0 = Instant::now();
    let (artifact, source) = match default_path {
        Some(path) => (Artifact::open(Path::new(path))?, path),
        None => {
            let model_cfg = match model_name.as_str() {
                "test" => ModelConfig::test_config(),
                "vits" => ModelConfig::eval_scale(ModelId::VitS),
                other => return Err(format!("unknown --model {other}").into()),
            };
            eprintln!("synthesizing {model_name} model…");
            let model = VitModel::synthesize(model_cfg, 5);
            eprintln!("calibrating W8/A8 full quantization…");
            let calib = Dataset::calibration(model.config(), 8, 1);
            let tables = calibrate(
                &QuqMethod::without_optimization(),
                &model,
                &calib,
                PtqConfig::full_w8a8(),
            )?;
            if let Some(path) = arg_value("--save-model") {
                // Save mode: write the artifact and exit; the serving run
                // cold-starts from it.
                let report =
                    ArtifactWriter::save_with(&model, &tables, Path::new(&path), &options)?;
                println!(
                    "saved {model_name} artifact to {path} ({} bytes, codec {codec})",
                    report.total_bytes
                );
                for chunk in &report.chunks {
                    if !chunk.stack.is_raw() {
                        eprintln!(
                            "  {}: {} -> {} bytes ({})",
                            chunk.key,
                            chunk.raw_len,
                            chunk.stored_len,
                            chunk.stack.describe()
                        );
                    }
                }
                return Ok(());
            }
            let memory = Arc::new(MemStorage::new());
            ArtifactWriter::save_on_with(&model, &tables, &*memory, &model_name, &options)?;
            (Artifact::open_on(memory, &model_name)?, "memory")
        }
    };
    let state = state_from_artifact(&artifact, &backend)?;
    // The state owns all it serves; the artifact's bytes can go.
    drop(artifact);
    eprintln!(
        "{} from {source} ready in {:.1} ms",
        state.model.config().id,
        t0.elapsed().as_secs_f64() * 1e3
    );

    let server = Server::start_with_state(Arc::new(state), config, addr.as_str())?;
    if let Some(default_path) = default_path {
        // The default model came from a file: give the registry its
        // source so it is evictable and lazily reloadable like the rest.
        server.set_default_source(Path::new(default_path));
    }
    for extra in model_paths.iter().skip(1) {
        let (name, path) = split_model_path(extra);
        let name =
            name.ok_or_else(|| format!("extra --model-path needs a NAME= prefix: {extra}"))?;
        let t0 = Instant::now();
        server
            .admin(AdminOp::Load {
                name: name.to_string(),
                path: path.to_string(),
            })
            .map_err(|e| format!("--model-path {extra}: {e}"))?;
        eprintln!(
            "loaded {name:?} from {path} in {:.1} ms",
            t0.elapsed().as_secs_f64() * 1e3
        );
    }
    if let Some((name, fraction)) = &shadow {
        server
            .admin(AdminOp::Shadow(ShadowCmd::set(name, *fraction)?))
            .map_err(|e| format!("--shadow: {e}"))?;
        eprintln!(
            "shadowing {:.1}% of default traffic to {name:?}",
            fraction * 100.0
        );
    }
    println!(
        "serving on {} ({backend}); press Enter to drain",
        server.local_addr()
    );

    // Block until the operator sends a line or closes stdin.
    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);
    eprintln!("draining…");
    server.shutdown();
    quq_obs::set_enabled(false);

    if metrics {
        let delta = quq_obs::snapshot().delta_since(&before);
        if let Some(path) = &metrics_json {
            std::fs::write(path, delta.to_json())?;
            eprintln!("wrote metrics JSON to {path}");
        }
        println!(
            "accepted {} · shed {}",
            delta.counter_total("serve.accepted"),
            delta.counter_total("serve.shed"),
        );
        print!("{}", quq_obs::report::window_summary(&delta, "  "));
        println!("  slowest op sites:");
        print!(
            "{}",
            quq_obs::report::slowest_sites_table(&delta, 10, "    ")
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_flags_reject_zero_and_garbage() {
        assert_eq!(parse_positive("--max-batch", None, 8), Ok(8));
        assert_eq!(parse_positive("--max-batch", Some("16".into()), 8), Ok(16));
        let err = parse_positive("--max-batch", Some("0".into()), 8).unwrap_err();
        assert!(err.contains("--max-batch"), "error names the flag: {err}");
        assert!(parse_positive("--max-wait-us", Some("-3".into()), 2000).is_err());
        assert!(parse_positive("--queue", Some("many".into()), 64).is_err());
    }

    #[test]
    fn explicit_zero_resident_bytes_is_rejected_with_guidance() {
        assert_eq!(parse_resident_bytes(None), Ok(0));
        assert_eq!(parse_resident_bytes(Some("1000".into())), Ok(1000));
        let err = parse_resident_bytes(Some("0".into())).unwrap_err();
        assert!(err.contains("omit the flag"), "error guides the fix: {err}");
        assert!(parse_resident_bytes(Some("big".into())).is_err());
    }

    #[test]
    fn tenant_quota_parses_rate_and_optional_burst() {
        assert_eq!(parse_tenant_quota("50"), Ok((50.0, 50.0)));
        assert_eq!(parse_tenant_quota("0.5"), Ok((0.5, 1.0))); // burst floor
        assert_eq!(parse_tenant_quota("50:200"), Ok((50.0, 200.0)));
        assert!(parse_tenant_quota("0").is_err());
        assert!(parse_tenant_quota("-1").is_err());
        assert!(parse_tenant_quota("50:0.5").is_err());
        assert!(parse_tenant_quota("inf").is_err());
        assert!(parse_tenant_quota("fast").is_err());
    }

    #[test]
    fn shadow_flag_parses_name_and_fraction() {
        assert_eq!(parse_shadow("cand=0.25"), Ok(("cand".to_string(), 0.25)));
        assert!(parse_shadow("cand").is_err());
        assert!(parse_shadow("=0.25").is_err());
        assert!(parse_shadow("cand=1.5").is_err());
        assert!(parse_shadow("cand=-0.1").is_err());
        assert!(parse_shadow("cand=lots").is_err());
    }
}
