#!/usr/bin/env bash
# Repository gate: formatting, lints, and the tier-1 build+test cycle.
#
#   scripts/check.sh            # everything
#   QUQ_THREADS=1 scripts/check.sh   # serial reference run
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> tier-2: packed-kernel proptests under a 4-worker pool"
QUQ_THREADS=4 cargo test -q -p quq-core --test proptests

echo "==> tier-2: kernel matrix (per-ISA bit-identity, scalar always included)"
# One proptest pass per host-supported kernel ISA with the dispatch pinned:
# the packed GEMM against its reference, the QUB encoder against the
# per-element quantizer, its operand output against the bytes decoded and
# packed, and a check that the encoder really ran the pinned kernel. Then,
# in a release build where they are vectorized: the GEMM kernels and their
# f32 epilogue against the i64 result rescaled, the SFU row bodies against
# the per-element oracles, the lockstep reference backend, the golden
# integer logits and the warm-forward work counters. `--list-isas` always
# reports scalar, so the portable kernels are always in the matrix even on
# fully-featured hosts.
isas="$(cargo run --release -q -p quq-bench --bin throughput -- --list-isas)"
case "$isas" in *scalar*) ;; *)
    echo "kernel matrix: scalar ISA missing from --list-isas" >&2; exit 1;;
esac
for isa in $isas; do
    echo "    ISA: $isa"
    QUQ_FORCE_ISA="$isa" cargo test -q -p quq-core --test proptests -- \
        packed_matmul_matches_reference_bitwise encoder_
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-tensor --lib -- linalg::
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-accel --lib -- intfunc:: backend_int::
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-accel --test batch_identity -- golden
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-accel --test counters
done

echo "==> tier-2: batched-forward bit-identity under a 4-worker pool"
QUQ_THREADS=4 cargo test -q -p quq-vit --test proptests
QUQ_THREADS=4 cargo test -q -p quq-accel --test batch_identity

echo "==> tier-2: benchmark builds against the crates and its quick run passes"
# `benchmark/` is its own package, so tier-1 never compiles it: this is the
# one step that notices an API the benchmark uses going missing. The run
# checks every output against the solo-forward oracle and exits non-zero on
# a flipped bit.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --workload offline_int_b8 --seconds 2

echo "==> tier-2: throughput smoke (quick config, determinism gate)"
smoke_out=target/bench_smoke.json
QUQ_QUICK=1 QUQ_BENCH_OUT="$smoke_out" cargo run --release -q -p quq-bench --bin throughput
grep -q '"bit_identical_serial_parallel": true' "$smoke_out" || {
    echo "throughput smoke lost serial/parallel bit-identity" >&2
    exit 1
}
python3 - "$smoke_out" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

# Regression gate: the packed path must stay comfortably ahead of the
# pairwise-decoding reference at 1 thread (seed measured ~9-10x here; the
# floor leaves headroom for machine noise, not for regressions).
speedup = report["int_gemm_speedup_packed_vs_reference"]
assert speedup >= 4.0, f"packed GEMM speedup regressed: {speedup}x < 4.0x floor"

for entry in report["sweep"]:
    gemm = entry["int_gemm"]
    assert gemm["bit_identical_packed_vs_reference"] is True
    # Every host ISA was exercised, each bit-identical to the reference.
    isas = {b["isa"] for shape in gemm["shapes"] for b in shape["isa_breakdown"]}
    assert "scalar" in isas, isas

print(f"throughput smoke: packed GEMM {speedup:.2f}x >= 4.0x floor, "
      f"ISA matrix {sorted(isas)} bit-identical")
PY

echo "==> tier-2: metrics smoke (--metrics breakdown, bit-identity, site coverage)"
metrics_out=target/bench_smoke_metrics.json
QUQ_QUICK=1 QUQ_BENCH_OUT="$metrics_out" \
    cargo run --release -q -p quq-bench --bin throughput -- --metrics
python3 - "$metrics_out" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)  # must be valid JSON even with metrics embedded

assert report["bit_identical_serial_parallel"] is True
assert report["bit_identical_metrics_on_off"] is True
assert report["metrics_sites_complete"] is True
assert report["metrics_embedded"] is True

for entry in report["sweep"]:
    assert entry["bit_identical_metrics_on_off"] is True
    assert entry["metrics_sites_complete"] is True
    for backend in entry["backends"]:
        metrics = backend["metrics"]
        sites = {
            h.get("site")
            for h in metrics["histograms"]
            if h["name"].startswith("op.") and h.get("site")
        }
        # Every op site of the 2-block quick model must appear.
        for block in (0, 1):
            assert any(s.startswith(f"block{block}.") for s in sites), (
                backend["backend"],
                block,
            )
        for site in ("PatchEmbed", "FinalNorm", "Head"):
            assert site in sites, (backend["backend"], site)

print("metrics smoke: JSON parses, all op sites present, bit-identity holds")
PY

echo "==> tier-2: serve smoke (ephemeral port, mixed load, 512-conn sweep, graceful drain)"
serve_out=target/bench_smoke_serve.json
# loadgen starts its own in-process server on an ephemeral port, asserts
# served logits are bit-identical to offline forward, drives a mixed
# closed-loop + fixed-rate load (including an overload regime that must
# shed), sweeps the event-loop front end up to 512 concurrent
# connections (zero desync, bounded RSS), and drains gracefully; a
# non-zero exit fails the gate.
QUQ_QUICK=1 QUQ_BENCH_OUT="$serve_out" \
    cargo run --release -q -p quq-bench --bin loadgen -- --metrics
python3 - "$serve_out" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["responses_match_offline_bitwise"] is True
assert report["serve_sites_complete"] is True
assert report["queue_depth_bounded"] is True
# Backpressure engaged somewhere on the curve and the queue stayed bounded.
assert any(p["shed"] > 0 for p in report["shed_curve"])
assert all(p["max_queue_depth"] <= 64 for p in report["shed_curve"])
# Batching actually batched.
batched = next(s for s in report["serving"] if s["mode"] == "batched")
assert batched["mean_batch"] > 1.0

# Many-connections gate: the event-loop front end must carry >= 512
# concurrent connections with ZERO desyncs/errors (every response
# bit-exact and matched to its request id) and bounded per-connection
# memory.
assert report["conn_sweep_clean"] is True
top = max(report["conn_sweep"], key=lambda p: p["conns"])
assert top["conns"] >= 512, top
assert all(p["errors"] == 0 for p in report["conn_sweep"])
assert top["rss_per_conn_kib"] <= 256, top
# Pipelining on one connection must beat one-request-at-a-time.
pipe = report["pipelined"]
assert pipe["images_per_sec"] > pipe["sequential_images_per_sec"], pipe

# serve.* metric sites are present in the embedded snapshot.
names = {(h["name"], h.get("site")) for h in report["metrics"]["histograms"]}
for metric in ("serve.batch_size", "serve.e2e", "serve.queue_depth"):
    assert (metric, "quq-int") in names, metric
counters = {c["name"] for c in report["metrics"]["counters"]}
assert "serve.accepted" in counters and "serve.shed" in counters

print("serve smoke: bit-identical responses, bounded queue, sheds under overload, "
      f"{top['conns']} conns clean on the event loop, drains clean")
PY

echo "==> tier-2: store smoke (save, corrupt-byte rejection, cold-start serving)"
store_out=target/bench_smoke_store.json
QUQ_QUICK=1 QUQ_BENCH_OUT="$store_out" \
    cargo run --release -q -p quq-bench --bin storebench
python3 - "$store_out" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)

assert report["cold_start_bit_identical_fp32"] is True
assert report["cold_start_bit_identical_int"] is True
assert report["corrupt_byte_rejected"] is True
c = report["store_counters"]
assert c["bytes_written"] > 0 and c["bytes_read"] > 0 and c["chunk_loads"] > 0
# One deliberate corruption probe per scale, none from clean loads.
assert c["checksum_failures"] == len(report["scales"])
for scale in report["scales"]:
    assert scale["artifact_bytes"] > 0 and scale["chunks"] > 0
    assert scale["cold_start_speedup"] > 1.0

print("store smoke: cold start bit-identical, store counters covered")
PY

# Corruption gate: a saved artifact with one flipped byte must be rejected
# with a structured error, and the pristine artifact must keep verifying.
store_art=target/check_store.quqm
rm -f "$store_art" "$store_art.bad"
cargo run --release -q -p quq-bench --bin storebench -- --save "$store_art"
cargo run --release -q -p quq-bench --bin storebench -- --verify "$store_art"
python3 - "$store_art" <<'PY'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[len(data) // 3] ^= 0x10
open(path + ".bad", "wb").write(bytes(data))
PY
if cargo run --release -q -p quq-bench --bin storebench -- --verify "$store_art.bad" 2>/dev/null; then
    echo "store smoke: corrupted artifact was NOT rejected" >&2
    exit 1
fi
echo "store smoke: corrupted artifact rejected"

# Cold-start serving gate: quq-serve --model-path must reach ready without
# calibration and serve logits bit-identical to the artifact's own integer
# forward (probed over TCP by storebench --probe).
coproc SERVE { cargo run --release -q -p quq-serve -- \
    --model-path "$store_art" --addr 127.0.0.1:0 2>/dev/null; }
# First stdout line is "serving on HOST:PORT (...)".
read -r _ _ serve_addr _ <&"${SERVE[0]}"
cargo run --release -q -p quq-bench --bin storebench -- \
    --probe "$serve_addr" --artifact "$store_art"
echo >&"${SERVE[1]}"   # request graceful drain
wait "$SERVE_PID"
rm -f "$store_art" "$store_art.bad"
echo "store smoke: cold-start server answered bit-identically and drained clean"

# Codec gate: one artifact per codec policy. Each must verify clean,
# reject a flipped byte, and serve logits over TCP bit-identical to the
# raw artifact's integer forward — compression must be invisible to
# inference.
codec_raw=target/check_codec_raw.quqm
cargo run --release -q -p quq-bench --bin storebench -- --save "$codec_raw" --codec raw
for codec in auto shuffle-lz shuffle-rc; do
    codec_art="target/check_codec_$codec.quqm"
    rm -f "$codec_art" "$codec_art.bad"
    cargo run --release -q -p quq-bench --bin storebench -- --save "$codec_art" --codec "$codec"
    cargo run --release -q -p quq-bench --bin storebench -- --verify "$codec_art" >/dev/null
    python3 - "$codec_art" <<'PY'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[2 * len(data) // 3] ^= 0x04
open(path + ".bad", "wb").write(bytes(data))
PY
    if cargo run --release -q -p quq-bench --bin storebench -- --verify "$codec_art.bad" 2>/dev/null; then
        echo "codec smoke: corrupted $codec artifact was NOT rejected" >&2
        exit 1
    fi
    coproc CSERVE { cargo run --release -q -p quq-serve -- \
        --model-path "$codec_art" --addr 127.0.0.1:0 2>/dev/null; }
    read -r _ _ codec_addr _ <&"${CSERVE[0]}"
    # Probe against the RAW artifact: the served (compressed) model must
    # produce the exact logits the uncompressed artifact defines.
    cargo run --release -q -p quq-bench --bin storebench -- \
        --probe "$codec_addr" --artifact "$codec_raw"
    echo >&"${CSERVE[1]}"   # request graceful drain
    wait "$CSERVE_PID"
    rm -f "$codec_art" "$codec_art.bad"
    echo "codec smoke: $codec verified, flip rejected, served bit-identical to raw"
done
rm -f "$codec_raw"

# Multi-model registry gate: two artifacts (distinct seeds), a server
# whose resident-bytes budget holds roughly one of them, LOAD/LIST/UNLOAD
# over TCP, bit-identical answers from both models across eviction +
# lazy-reload churn, and at least one eviction counted.
multi_a=target/check_multi_a.quqm
multi_b=target/check_multi_b.quqm
rm -f "$multi_a" "$multi_b"
cargo run --release -q -p quq-bench --bin storebench -- --save "$multi_a" --seed 11
cargo run --release -q -p quq-bench --bin storebench -- --save "$multi_b" --seed 22
size_a=$(stat -c%s "$multi_a"); size_b=$(stat -c%s "$multi_b")
largest=$(( size_a > size_b ? size_a : size_b ))
cap=$(( largest * 3 / 2 ))   # fits one model (plus slack), never both
coproc MULTI { cargo run --release -q -p quq-serve -- \
    --model-path "$multi_a" --max-resident-bytes "$cap" \
    --addr 127.0.0.1:0 2>/dev/null; }
read -r _ _ multi_addr _ <&"${MULTI[0]}"
cargo run --release -q -p quq-bench --bin storebench -- \
    --probe-multi "$multi_addr" --artifact "$multi_a" --artifact-b "$multi_b"
echo >&"${MULTI[1]}"   # request graceful drain
wait "$MULTI_PID"
rm -f "$multi_a" "$multi_b"
echo "multi-model smoke: LOAD/LIST/UNLOAD clean, bit-identical across evictions"

# SLO gate: a quota-limited server with a shadow candidate armed at 25%.
# loadgen --slo floods it with a batch-class hog (deep pipelined window,
# far past the queue) while a compliant interactive tenant runs; the well
# tenant must never be shed, the hog must be, and the server's metrics
# snapshot must carry the scheduler + shadow evidence.
slo_art=target/check_slo.quqm
slo_metrics=target/check_slo_metrics.json
rm -f "$slo_art" "$slo_metrics"
cargo run --release -q -p quq-bench --bin storebench -- --save "$slo_art" --seed 5
coproc SLO { cargo run --release -q -p quq-serve -- \
    --model-path "$slo_art" --model-path "cand=$slo_art" \
    --workers 1 --max-batch 4 --queue 8 \
    --tenant-quota 25 --shadow cand=0.25 \
    --metrics-json "$slo_metrics" --addr 127.0.0.1:0 2>/dev/null; }
read -r _ _ slo_addr _ <&"${SLO[0]}"
slo_line=$(cargo run --release -q -p quq-bench --bin loadgen -- --slo "$slo_addr" | tee /dev/stderr | grep '^SLO ')
echo >&"${SLO[1]}"   # request graceful drain
wait "$SLO_PID"
python3 - "$slo_metrics" "$slo_line" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    metrics = json.load(f)
slo = dict(kv.split("=") for kv in sys.argv[2].split()[1:])

# Client-visible SLO invariants (also asserted inside loadgen --slo).
assert int(slo["well_shed"]) == 0, slo
assert int(slo["hog_shed"]) > 0, slo
assert float(slo["well_p99_ms"]) < 1000.0, slo  # generous smoke bound

# Scheduler + shadow evidence in the server's own metrics snapshot.
counters = {c["name"]: 0 for c in metrics["counters"]}
for c in metrics["counters"]:
    counters[c["name"]] += c["value"]
assert counters.get("sched.quota_shed", 0) > 0, counters
assert counters.get("shadow.mirrored", 0) > 0, counters
assert counters.get("shadow.agree", 0) + counters.get("shadow.disagree", 0) > 0, counters
waits = [h for h in metrics["histograms"] if h["name"] == "serve.queue_wait"]
assert waits and sum(h["count"] for h in waits) > 0, "serve.queue_wait missing"
# Per-flow sites: both tenants' queue waits were tracked separately.
sites = {h.get("site") for h in waits}
assert any(s and "well" in s for s in sites), sites
assert any(s and "hog" in s for s in sites), sites

print(f"slo smoke: well p99 {float(slo['well_p99_ms']):.1f}ms shed-free under hog flood "
      f"(hog shed {slo['hog_shed']}), quota + shadow counters present")
PY
rm -f "$slo_art" "$slo_metrics"

echo "All checks passed."
