#!/usr/bin/env bash
# Repository gate: formatting, lints, rustdoc links, the tier-1 build+test
# cycle, the per-ISA kernel matrix, the 4-worker pool runs and the
# benchmark's three quick runs.
#
#   scripts/check.sh            # everything
#   QUQ_THREADS=1 scripts/check.sh   # serial reference run
#
# Every behavioural gate (served = offline logits, cold start, codecs,
# corruption, registry eviction, tenant quotas, shadow routing, the
# 512-connection sweep, recorder on/off) is a tier-1 test; speed is measured
# by `benchmark/` alone.
set -euo pipefail
cd "$(dirname "$0")/.."

# Each step prints how long the one before it took (a report, not a gate).
step_name=""
step_start=$SECONDS
step() {
    if [ -n "$step_name" ]; then
        echo "    ($step_name: $((SECONDS - step_start)) s)"
    fi
    step_name="$1"
    step_start=$SECONDS
    echo "==> $1"
}

step "cargo fmt --check"
cargo fmt --all -- --check

step "one byte reader: no try_into().expect( in quq-core, quq-store or quq-serve"
# Every hostile byte is parsed through `quq_core::bytes::ByteReader`; a
# fixed-width read outside it takes the array form
# (`u16::from_le_bytes([b[0], b[1]])`), never a slice converted with a
# panic on the wrong length. `-z` makes each file one record, so a chain
# that rustfmt splits across lines is caught too.
if grep -rPzl --include='*.rs' 'try_into\(\)\s*\.expect\(' \
    crates/core/src crates/store/src crates/serve/src; then
    echo "try_into().expect( found in the files above; read through ByteReader" >&2
    exit 1
fi

step "cargo clippy: -D warnings, one documented unsafe operation per block"
cargo clippy --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks \
    -D clippy::multiple_unsafe_ops_per_block

step "the serving binary links the runtime, not the hardware models"
# The integer runtime lives in quq-core; quq-accel holds the evaluation
# models (cost, memory, simulator) and needs no artifact store.
serve_deps="$(cargo tree --offline -e normal -p quq-serve)"
accel_deps="$(cargo tree --offline -e normal -p quq-accel)"
case "$serve_deps" in *quq-accel*)
    echo "quq-serve depends on quq-accel" >&2; exit 1;;
esac
case "$accel_deps" in *quq-store*)
    echo "quq-accel depends on quq-store" >&2; exit 1;;
esac

step "rustdoc: no broken or private intra-doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

step "tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

step "tier-2: kernel matrix (per-ISA bit-identity, scalar always included)"
# One pass per host-supported kernel ISA with the dispatch pinned: the
# packed GEMM against its reference, the QUB encoder (search and region
# path) against the per-element quantizer, its operand output against the
# bytes decoded and packed, and a check that the encoder really ran the
# pinned kernel, the encoder tests both at the dev profile and in the
# release build that ships. Then, in a release build where they are
# vectorized: the GEMM kernels and their f32 epilogue against the i64
# result rescaled, the FP32 tile against the sequential sum, the SFU row
# bodies against the per-element oracles, the lockstep reference backend,
# the golden integer logits, the work counters (one encode per operand,
# and the region path's share of the encoder's groups), the fp32-side
# (fake-quant, capture and plain FP32 logits) and saved-artifact goldens, the
# store's fresh-process identity and every CRC-32 kernel against the
# bytewise reference. `--list-isas` always reports scalar, so the portable
# kernels are always in the matrix even on fully-featured hosts.
isas="$(cargo run --release -q -p quq-serve -- --list-isas)"
case "$isas" in *scalar*) ;; *)
    echo "kernel matrix: scalar ISA missing from --list-isas" >&2; exit 1;;
esac
for isa in $isas; do
    echo "    ISA: $isa"
    QUQ_FORCE_ISA="$isa" cargo test -q -p quq-core --lib -- dot::
    QUQ_FORCE_ISA="$isa" cargo test -q -p quq-core --test proptests -- encoder_
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-core --test proptests -- encoder_
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-tensor --lib -- linalg::
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-core --lib -- intfunc:: backend_int::
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-core --test batch_identity -- golden
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-core --test counters
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-bench --test goldens --test store_e2e
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-store --lib -- crc32::
done

step "tier-2: packed GEMM, FP32 GEMM and batched-forward bit-identity under a 4-worker pool"
QUQ_THREADS=4 cargo test -q -p quq-core --lib -- dot::
QUQ_THREADS=4 cargo test -q -p quq-tensor --lib -- linalg::
QUQ_THREADS=4 cargo test -q -p quq-core --test proptests
QUQ_THREADS=4 cargo test -q -p quq-vit --test proptests
QUQ_THREADS=4 cargo test -q -p quq-core --test batch_identity

step "tier-2: benchmark builds against the crates and its quick runs pass"
# `benchmark/` is its own package, so tier-1 never compiles it: this is the
# one step that notices an API the benchmark uses going missing. Each run
# checks every output against the solo-forward oracle and exits non-zero on
# a flipped bit: `offline_int_b8` is the integer forward alone,
# `serve_toy_pipelined` is the served path, through the server's span tap,
# and `store_cycle` checks every save, raw cold start and auto cold start.
for workload in offline_int_b8 serve_toy_pipelined store_cycle; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --quick --workload "$workload" --seconds 2
done

step "done"
echo "All checks passed in $SECONDS s."
