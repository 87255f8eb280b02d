//! Criterion micro-benchmarks of the QUQ kernels: PRA fitting, QUB
//! encode/decode, fake quantization, and the QUA integer GEMM vs the FP32
//! reference.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use quq_accel::Qua;
use quq_core::{matmul_nt_qub, matmul_nt_qub_reference, Pra, QubCodec, QuqParams};
use quq_tensor::rng::OutlierMixture;
use quq_tensor::{linalg, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn sample(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    OutlierMixture::new(0.03, 0.5, 0.01).sample_vec(&mut rng, n)
}

fn bench_pra(c: &mut Criterion) {
    let values = sample(1, 16_384);
    let mut g = c.benchmark_group("pra");
    g.throughput(Throughput::Elements(values.len() as u64));
    for bits in [4u32, 6, 8] {
        g.bench_function(format!("fit_{bits}bit"), |b| {
            b.iter(|| Pra::with_defaults(bits).run(black_box(&values)))
        });
    }
    g.finish();
}

fn bench_qub_codec(c: &mut Criterion) {
    let values = sample(2, 65_536);
    let params = Pra::with_defaults(8).run(&values).params;
    let codec = QubCodec::new(params);
    let t = Tensor::from_vec(values, &[65_536]).unwrap();
    let encoded = codec.encode_tensor(&t);
    let mut g = c.benchmark_group("qub");
    g.throughput(Throughput::Elements(65_536));
    g.bench_function("encode", |b| b.iter(|| codec.encode_tensor(black_box(&t))));
    g.bench_function("decode", |b| b.iter(|| black_box(&encoded).decode_scaled()));
    g.bench_function("decode_preshifted", |b| {
        b.iter(|| black_box(&encoded).decode_preshifted())
    });
    g.bench_function("fake_quantize", |b| {
        b.iter(|| params.fake_quantize_tensor(black_box(&t)))
    });
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let (m, k, n) = (64usize, 128, 64);
    let a_vals = sample(3, m * k);
    let w_vals = sample(4, n * k);
    let pa = Pra::with_defaults(6).run(&a_vals).params;
    let pw = Pra::with_defaults(6).run(&w_vals).params;
    let at = Tensor::from_vec(a_vals, &[m, k]).unwrap();
    let wt = Tensor::from_vec(w_vals, &[n, k]).unwrap();
    let qa = QubCodec::new(pa).encode_tensor(&at);
    let qw = QubCodec::new(pw).encode_tensor(&wt);
    let out = QuqParams::uniform(6, 0.1).unwrap();
    let qua = Qua::new(16, 16, 6);
    let mut g = c.benchmark_group("gemm");
    g.throughput(Throughput::Elements((m * k * n) as u64));
    g.bench_function("qua_int6", |b| {
        b.iter_batched(
            || (),
            |()| qua.gemm(black_box(&qa), black_box(&qw), &out),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("f32_reference", |b| {
        b.iter(|| linalg::matmul_nt(black_box(&at), black_box(&wt)).unwrap())
    });
    // Packed pre-shifted i16 kernel (panels cached — deployment steady
    // state) vs the pairwise-decoding reference it replaced.
    let _ = matmul_nt_qub(&qa, &qw); // warm the panel caches
    g.bench_function("packed_int6", |b| {
        b.iter(|| matmul_nt_qub(black_box(&qa), black_box(&qw)))
    });
    g.bench_function("reference_int6", |b| {
        b.iter(|| matmul_nt_qub_reference(black_box(&qa), black_box(&qw)))
    });
    // Per-ISA packed kernels, registered only where the host supports the
    // ISA. `QUQ_FORCE_ISA` is read on this (caller) thread per matmul, so
    // setting it here pins the dispatched kernel for the timed closure.
    for (bench_name, isa_name) in [
        ("packed_avx2", "avx2"),
        ("packed_avx512", "avx512"),
        ("packed_avx512vnni", "avx512vnni"),
        ("packed_scalar", "scalar"),
    ] {
        if !linalg::isa::supported()
            .iter()
            .any(|i| i.name() == isa_name)
        {
            continue;
        }
        g.bench_function(bench_name, |b| {
            std::env::set_var("QUQ_FORCE_ISA", isa_name);
            b.iter(|| matmul_nt_qub(black_box(&qa), black_box(&qw)));
            std::env::remove_var("QUQ_FORCE_ISA");
        });
    }
    g.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_pra, bench_qub_codec, bench_gemm
}
criterion_main!(kernels);
