#!/usr/bin/env bash
# Repository gate: formatting, lints, rustdoc links, the tier-1 build+test
# cycle, the per-ISA kernel matrix, the 4-worker pool runs and the
# benchmark's quick run.
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

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> rustdoc: no broken or private intra-doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> tier-2: kernel matrix (per-ISA bit-identity, scalar always included)"
# One pass per host-supported kernel ISA with the dispatch pinned: the
# packed GEMM against its reference, the QUB encoder against the
# per-element quantizer, its operand output against the bytes decoded and
# packed, and a check that the encoder really ran the pinned kernel. Then,
# in a release build where they are vectorized: the GEMM kernels and their
# f32 epilogue against the i64 result rescaled, the SFU row bodies against
# the per-element oracles, the lockstep reference backend, the golden
# integer logits and the warm-forward work counters. `--list-isas` always
# reports scalar, so the portable kernels are always in the matrix even on
# fully-featured hosts.
isas="$(cargo run --release -q -p quq-serve -- --list-isas)"
case "$isas" in *scalar*) ;; *)
    echo "kernel matrix: scalar ISA missing from --list-isas" >&2; exit 1;;
esac
for isa in $isas; do
    echo "    ISA: $isa"
    QUQ_FORCE_ISA="$isa" cargo test -q -p quq-core --lib -- dot::
    QUQ_FORCE_ISA="$isa" cargo test -q -p quq-core --test proptests -- encoder_
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-tensor --lib -- linalg::
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-accel --lib -- intfunc:: backend_int::
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-accel --test batch_identity -- golden
    QUQ_FORCE_ISA="$isa" cargo test -q --release -p quq-accel --test counters
done

echo "==> tier-2: packed GEMM and batched-forward bit-identity under a 4-worker pool"
QUQ_THREADS=4 cargo test -q -p quq-core --lib -- dot::
QUQ_THREADS=4 cargo test -q -p quq-core --test proptests
QUQ_THREADS=4 cargo test -q -p quq-vit --test proptests
QUQ_THREADS=4 cargo test -q -p quq-accel --test batch_identity

echo "==> tier-2: benchmark builds against the crates and its quick run passes"
# `benchmark/` is its own package, so tier-1 never compiles it: this is the
# one step that notices an API the benchmark uses going missing. The run
# checks every output against the solo-forward oracle and exits non-zero on
# a flipped bit.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --workload offline_int_b8 --seconds 2

echo "All checks passed."
