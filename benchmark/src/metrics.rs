//! The metric catalogue (`BENCHMARK.json` lists the same names; a test
//! holds the two together) and how the per-layer values are read off a
//! traced window: the benchmark's own spans, and deltas of
//! `quq_obs::snapshot()` — sums, counts and counters only, never the log2
//! buckets.

use std::collections::BTreeMap;

use quq_obs::Snapshot;

use crate::stats::mean;
use crate::trace::{self_times, Span, FORWARD, REQUEST};
use crate::window::Window;
use crate::workloads::Kind;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that holds `BENCHMARK.json` to this catalogue.
    #[allow(dead_code)]
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics with the share by which each may worsen. The driver
/// asks every workload for every one: the first three are measured on all
/// five workloads, the last three on the one workload that owns each, and
/// [`NOT_MEASURED`] is printed elsewhere. `README.md` has the table.
pub const END_TO_END: [(MetricDef, f64); 6] = [
    (def("setup_s", "s", "lower"), 0.25),
    (def("img_per_s", "img/s", "higher"), 0.25),
    (def("lat_p50_ms", "ms", "lower"), 0.25),
    (def("slo_ok_frac", "share", "higher"), 0.25),
    (def("top1_agree_frac", "share", "higher"), 0.0),
    (def("artifact_auto_bytes", "bytes", "lower"), 0.0),
];

/// What a workload prints for an end-to-end metric another workload owns.
/// Only metrics that are not times have owners: the driver rejects a time
/// that reads the same on every run, and a metric that is ever 0.
pub const NOT_MEASURED: f64 = 1.0;

/// Per-layer metrics. A workload that does not exercise a layer, or does
/// not own its micro-timings, reports 0 for it.
pub const PER_LAYER: [MetricDef; 73] = [
    def("tensor.i16_gemm_qkv_us", "us", "lower"),
    def("tensor.i16_gemm_attn_us", "us", "lower"),
    def("tensor.i16_gemm_gmac_per_s", "GMAC/s", "higher"),
    def("tensor.f32_linear_qkv_us", "us", "lower"),
    def("tensor.gemm_kernel_ms_per_img", "ms", "lower"),
    def("tensor.gemm_macs_per_img", "count", "lower"),
    def("tensor.tune_searches", "count", "lower"),
    def("core.encode_ns_per_elem", "ns", "lower"),
    def("core.decode_preshift_ns_per_elem", "ns", "lower"),
    def("core.decode_scaled_ns_per_elem", "ns", "lower"),
    def("core.matmul_nt_qub_qkv_us", "us", "lower"),
    def("core.encode_calls_per_img", "count", "lower"),
    def("core.decode_calls_per_img", "count", "lower"),
    def("core.calibrate_s", "s", "lower"),
    def("accel.op_linear_ms_per_img", "ms", "lower"),
    def("accel.op_matmul_ms_per_img", "ms", "lower"),
    def("accel.op_matmul_nt_ms_per_img", "ms", "lower"),
    def("accel.op_softmax_ms_per_img", "ms", "lower"),
    def("accel.op_gelu_ms_per_img", "ms", "lower"),
    def("accel.op_layer_norm_ms_per_img", "ms", "lower"),
    def("accel.op_add_ms_per_img", "ms", "lower"),
    def("accel.sfu_share", "share", "lower"),
    def("accel.non_gemm_share", "share", "lower"),
    def("accel.isoftmax_ns_per_elem", "ns", "lower"),
    def("accel.igelu_ns_per_elem", "ns", "lower"),
    def("accel.ilayernorm_ns_per_elem", "ns", "lower"),
    def("accel.weight_cache_hit_frac", "share", "higher"),
    def("vit.forward_ms_per_img", "ms", "lower"),
    def("vit.glue_ms_per_img", "ms", "lower"),
    def("vit.fp32_forward_ms_per_img", "ms", "lower"),
    def("serve.proto_encode_req_ns", "ns", "lower"),
    def("serve.proto_decode_req_ns", "ns", "lower"),
    def("serve.proto_encode_resp_ns", "ns", "lower"),
    def("serve.frame_decode_mb_per_s", "MB/s", "higher"),
    def("serve.sched_push_pop_ns", "ns", "lower"),
    def("serve.batch_size_mean", "count", "higher"),
    def("serve.queue_wait_ms_mean", "ms", "lower"),
    def("serve.server_e2e_ms_mean", "ms", "lower"),
    def("serve.queue_depth_mean", "count", "lower"),
    def("serve.forward_ms_per_batch", "ms", "lower"),
    def("serve.forward_ms_per_req", "ms", "lower"),
    def("serve.client_lat_mean_ms", "ms", "lower"),
    def("serve.overhead_ms", "ms", "lower"),
    def("serve.closed_lat_p50_ms", "ms", "lower"),
    def("serve.closed_lat_p95_ms", "ms", "lower"),
    def("serve.open_lat_p80_ms", "ms", "lower"),
    def("serve.batch_class_lat_p50_ms", "ms", "lower"),
    def("serve.shed_count", "count", "lower"),
    def("serve.deadline_count", "count", "lower"),
    def("serve.write_pauses", "count", "lower"),
    def("store.open_ms", "ms", "lower"),
    def("store.load_all_raw_ms", "ms", "lower"),
    def("store.load_all_auto_ms", "ms", "lower"),
    def("store.qub_cache_raw_ms", "ms", "lower"),
    def("store.qub_cache_auto_ms", "ms", "lower"),
    def("store.save_raw_ms", "ms", "lower"),
    def("store.rc_decode_mb_per_s", "MB/s", "higher"),
    def("store.rc_encode_mb_per_s", "MB/s", "higher"),
    def("store.lz_decode_mb_per_s", "MB/s", "higher"),
    def("store.crc32_mb_per_s", "MB/s", "higher"),
    def("store.artifact_raw_bytes", "bytes", "lower"),
    def("store.chunks_compressed", "count", "higher"),
    def("store.cold_start_raw_ms", "ms", "lower"),
    def("store.cold_start_auto_ms", "ms", "lower"),
    def("store.save_auto_ms", "ms", "lower"),
    def("obs.overhead_frac", "share", "lower"),
    def("obs.snapshot_ms", "ms", "lower"),
    def("bench.send_lag_p95_ms", "ms", "lower"),
    def("bench.send_lag_max_ms", "ms", "lower"),
    def("bench.trace_spans", "count", "lower"),
    def("bench.peak_rss_mib", "MiB", "lower"),
    def("bench.slice_spread", "ratio", "lower"),
    def("bench.median_img_per_s", "img/s", "higher"),
];

/// Named values; every catalogue name missing from it reads as 0.
pub type Values = BTreeMap<&'static str, f64>;

fn ns_to_ms(ns: f64) -> f64 {
    ns * 1e-6
}

/// Mean of the `name` histograms whose site passes `keep`: summed value
/// over summed count.
fn hist_mean(delta: &Snapshot, name: &str, keep: impl Fn(Option<&str>) -> bool) -> f64 {
    let (sum, count) = delta
        .hists
        .iter()
        .filter(|h| h.name == name && keep(h.site.as_deref()))
        .fold((0u64, 0u64), |(s, c), h| (s + h.sum, c + h.count));
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

fn hist_count(delta: &Snapshot, name: &str) -> u64 {
    delta
        .hists
        .iter()
        .filter(|h| h.name == name)
        .map(|h| h.count)
        .sum()
}

/// `serve.e2e` and `serve.queue_depth` are recorded once under the
/// provider's site and once under a `class:tenant` flow site; the
/// provider's is the one without a colon.
fn provider_site(site: Option<&str>) -> bool {
    site.is_some_and(|s| !s.contains(':'))
}

/// What the traced half of a run produced.
pub struct Traced<'a> {
    pub kind: Kind,
    /// Whether the workload runs the integer backend (`accel` is in play).
    pub integer: bool,
    pub window: &'a Window,
    pub spans: &'a [Span],
    /// `quq_obs` delta over the traced window.
    pub obs: &'a Snapshot,
}

/// Mean duration (ns) of the forward span each request waited for: the
/// last forward that ended before the request's reply arrived. With one
/// worker a reply leaves right after its batch's forward ends, and the next
/// forward cannot end before that reply is on the wire.
fn forward_per_request_ns(requests: &[&Span], forwards: &[&Span]) -> f64 {
    let mut by_end: Vec<(u64, u64)> = forwards
        .iter()
        .map(|f| (f.end_ns, f.duration_ns()))
        .collect();
    by_end.sort_unstable();
    let waited: Vec<f64> = requests
        .iter()
        .filter_map(|r| {
            let i = by_end.partition_point(|&(end, _)| end <= r.end_ns);
            (i > 0).then(|| by_end[i - 1].1 as f64)
        })
        .collect();
    mean(&waited)
}

/// Per-layer values from the spans and the obs delta of a traced window.
pub fn from_trace(t: &Traced<'_>) -> Values {
    let mut v = Values::new();
    let w = t.window;
    let images = (w.ops.iter().filter(|op| op.ok).count() as f64 * w.images_per_op).max(1.0);
    let named = |name: &str| -> Vec<&Span> { t.spans.iter().filter(|s| s.name == name).collect() };
    let total_ns = |spans: &[&Span]| spans.iter().map(|s| s.duration_ns()).sum::<u64>() as f64;

    // vit and accel: the forward and what it is made of.
    let forwards = named(FORWARD);
    let forward_ns = total_ns(&forwards);
    let own = self_times(t.spans);
    let glue_ns: u64 = forwards.iter().map(|f| own[&f.id]).sum();
    v.insert("vit.forward_ms_per_img", ns_to_ms(forward_ns) / images);
    v.insert("vit.glue_ms_per_img", ns_to_ms(glue_ns as f64) / images);
    let gemm_ns = t.obs.hist_sum("gemm.i16_nt") as f64;
    if t.integer {
        let mut sfu_ns = 0.0;
        for (op, metric) in OPS {
            let ns = total_ns(&named(op));
            v.insert(metric, ns_to_ms(ns) / images);
            if !matches!(op, "op.linear" | "op.matmul" | "op.matmul_nt") {
                sfu_ns += ns;
            }
        }
        if forward_ns > 0.0 {
            v.insert("accel.sfu_share", sfu_ns / forward_ns);
            v.insert("accel.non_gemm_share", 1.0 - gemm_ns / forward_ns);
        }
        let hit = t.obs.counter_total("cache.weight_qub.hit") as f64;
        let miss = t.obs.counter_total("cache.weight_qub.miss") as f64;
        if hit + miss > 0.0 {
            v.insert("accel.weight_cache_hit_frac", hit / (hit + miss));
        }
    }

    // tensor and core: kernel time and exact call counts from obs.
    v.insert("tensor.gemm_kernel_ms_per_img", ns_to_ms(gemm_ns) / images);
    v.insert(
        "tensor.gemm_macs_per_img",
        t.obs.counter_total("gemm.macs") as f64 / images,
    );
    v.insert(
        "core.encode_calls_per_img",
        hist_count(t.obs, "qub.encode") as f64 / images,
    );
    v.insert(
        "core.decode_calls_per_img",
        hist_count(t.obs, "qub.decode_preshifted") as f64 / images,
    );

    if t.kind.is_serve() {
        let requests = named(REQUEST);
        let client_ms = ns_to_ms(total_ns(&requests)) / requests.len().max(1) as f64;
        let queue_ms = ns_to_ms(hist_mean(t.obs, "serve.queue_wait", |_| true));
        let forward_ms = ns_to_ms(forward_per_request_ns(&requests, &forwards));
        v.insert("serve.client_lat_mean_ms", client_ms);
        v.insert("serve.queue_wait_ms_mean", queue_ms);
        v.insert("serve.forward_ms_per_req", forward_ms);
        v.insert("serve.overhead_ms", client_ms - queue_ms - forward_ms);
        v.insert(
            "serve.forward_ms_per_batch",
            ns_to_ms(forward_ns) / forwards.len().max(1) as f64,
        );
        v.insert(
            "serve.batch_size_mean",
            hist_mean(t.obs, "serve.batch_size", |_| true),
        );
        v.insert(
            "serve.server_e2e_ms_mean",
            ns_to_ms(hist_mean(t.obs, "serve.e2e", provider_site)),
        );
        v.insert(
            "serve.queue_depth_mean",
            hist_mean(t.obs, "serve.queue_depth", provider_site),
        );
        v.insert("serve.shed_count", w.count("shed"));
        v.insert("serve.deadline_count", w.count("deadline"));
        v.insert("serve.write_pauses", w.count("write_pauses"));
        if t.kind == Kind::ServeVitsOpen {
            v.insert(
                "serve.open_lat_p80_ms",
                w.lat_tail_ms(0, 0.80).unwrap_or(0.0),
            );
            v.insert("serve.batch_class_lat_p50_ms", w.lat_p50_ms(1));
            v.insert("bench.send_lag_p95_ms", w.send_lag_p95_ms());
            v.insert("bench.send_lag_max_ms", w.send_lag_max_ms());
        } else {
            v.insert("serve.closed_lat_p50_ms", w.median_lat_ms(0));
            v.insert(
                "serve.closed_lat_p95_ms",
                w.lat_tail_ms(0, 0.95).unwrap_or(0.0),
            );
        }
    }

    if t.kind == Kind::StoreCycle {
        for (series, metric) in [
            ("cold_start_raw_ms", "store.cold_start_raw_ms"),
            ("cold_start_auto_ms", "store.cold_start_auto_ms"),
            ("save_auto_ms", "store.save_auto_ms"),
        ] {
            v.insert(metric, crate::stats::median(w.series(series)));
        }
        v.insert("store.chunks_compressed", w.count("chunks_compressed"));
    }
    v.insert("bench.trace_spans", t.spans.len() as f64);
    v
}

/// The span name a `TracedBackend` gives each `Backend` call, and the
/// metric its time per image is reported as.
const OPS: [(&str, &str); 7] = [
    ("op.linear", "accel.op_linear_ms_per_img"),
    ("op.matmul", "accel.op_matmul_ms_per_img"),
    ("op.matmul_nt", "accel.op_matmul_nt_ms_per_img"),
    ("op.softmax", "accel.op_softmax_ms_per_img"),
    ("op.gelu", "accel.op_gelu_ms_per_img"),
    ("op.layer_norm", "accel.op_layer_norm_ms_per_img"),
    ("op.add", "accel.op_add_ms_per_img"),
];

/// One line of a budget: a part, its size, and its share of the whole.
fn line(out: &mut String, indent: &str, label: &str, value: f64, whole: f64, unit: &str) {
    let share = if whole > 0.0 {
        100.0 * value / whole
    } else {
        0.0
    };
    out.push_str(&format!(
        "{indent}{label:<26}{value:>10.3} {unit}  {share:>5.1}%\n"
    ));
}

/// The budget that adds up, per workload: client latency = overhead +
/// queue wait + forward, and forward = Σ op kinds + glue.
pub fn budget(kind: Kind, v: &Values) -> String {
    let get = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let mut out = String::new();
    if kind.is_serve() {
        let client = get("serve.client_lat_mean_ms");
        out.push_str("  budget, mean per request:\n");
        line(&mut out, "    ", "client latency", client, client, "ms");
        for (label, name) in [
            ("overhead", "serve.overhead_ms"),
            ("queue wait", "serve.queue_wait_ms_mean"),
            ("forward", "serve.forward_ms_per_req"),
        ] {
            line(&mut out, "      ", label, get(name), client, "ms");
        }
    }
    let forward = get("vit.forward_ms_per_img");
    if forward > 0.0 {
        out.push_str("  budget, forward per image:\n");
        line(&mut out, "    ", "forward", forward, forward, "ms");
        for (op, name) in OPS {
            if get(name) > 0.0 {
                line(&mut out, "      ", op, get(name), forward, "ms");
            }
        }
        line(
            &mut out,
            "      ",
            "glue",
            get("vit.glue_ms_per_img"),
            forward,
            "ms",
        );
        line(
            &mut out,
            "    ",
            "of which i16 GEMM kernel",
            get("tensor.gemm_kernel_ms_per_img"),
            forward,
            "ms",
        );
    }
    if kind == Kind::StoreCycle {
        let parts = [
            ("save under auto", "store.save_auto_ms"),
            ("cold start, raw", "store.cold_start_raw_ms"),
            ("cold start, auto", "store.cold_start_auto_ms"),
        ];
        let cycle: f64 = parts.iter().map(|(_, n)| get(n)).sum();
        out.push_str("  budget, median per cycle:\n");
        line(&mut out, "    ", "cycle", cycle, cycle, "ms");
        for (label, name) in parts {
            line(&mut out, "      ", label, get(name), cycle, "ms");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent: 0,
            trace: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn names_are_unique_and_inside_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(d, _)| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|(_, bound)| *bound <= 0.25));
        assert!(END_TO_END.iter().any(|(d, _)| d.name == "setup_s"));
    }

    /// `BENCHMARK.json` at the repo root lists exactly this catalogue.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (d, bound) in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, bound
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        for d in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "missing {entry}");
        }
        for kind in Kind::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", kind.name())));
        }
        let listed = text.matches("\"name\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + Kind::ALL.len());
    }

    #[test]
    fn a_request_waits_for_the_last_forward_that_ended_before_its_reply() {
        let forwards = [span(1, FORWARD, 0, 100), span(2, FORWARD, 150, 400)];
        let requests = [
            span(3, REQUEST, 10, 110),  // first batch: 100
            span(4, REQUEST, 90, 410),  // queued behind it, second batch: 250
            span(5, REQUEST, 160, 405), // second batch: 250
            span(6, REQUEST, 0, 50),    // no forward had ended yet: left out
        ];
        let f: Vec<&Span> = forwards.iter().collect();
        let r: Vec<&Span> = requests.iter().collect();
        assert_eq!(forward_per_request_ns(&r, &f), 200.0);
    }
}
