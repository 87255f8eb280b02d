//! Micro-timings: the named public function of each layer, called from
//! outside on the shapes the workload's model gives it. Each group belongs
//! to the one workload whose layer it is, and is reported there only:
//! the forward path on `offline_int_b8`, the wire and scheduler on
//! `serve_toy_pipelined`, the store on `store_cycle`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use quq_accel::{intfunc, WeightQubCache};
use quq_core::calib::ParamKey;
use quq_core::dot::matmul_nt_qub;
use quq_core::pipeline::PtqTables;
use quq_core::qub::QubCodec;
use quq_core::scheme::QuqParams;
use quq_serve::protocol::{
    decode_infer_request, encode_infer_request_with, encode_ok_response, tag_response, write_frame,
};
use quq_serve::{Class, FrameDecoder, InferOptions, SchedConfig, Scheduler};
use quq_store::codec::{ByteShuffle, Lz, Rc};
use quq_store::{crc32, Artifact, ArtifactWriter, Codec};
use quq_tensor::rng::standard_normal;
use quq_tensor::{linalg, IntTensor, Tensor};
use quq_vit::{Fp32Backend, OpKind, OpSite, VitModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;
use crate::workloads::{raw_options, Rig, StoreRig};

/// Named values a micro-timing group produced.
pub type Values = Vec<(&'static str, f64)>;

/// Median seconds per call of `f`, sampled for about `budget`. Calls that
/// take under 200 µs are timed in groups, so the clock read stays below
/// one percent of a sample.
pub fn time_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // page in code and data
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let reps = ((200e-6 / once).ceil() as usize).clamp(1, 1 << 20);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / reps as f64);
    }
    median(&samples)
}

fn normal_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec((0..len).map(|_| standard_normal(rng)).collect(), shape).expect("sized")
}

fn quq_params(q: Option<&dyn quq_core::FittedQuantizer>) -> QuqParams {
    *q.and_then(|q| q.quq_params())
        .expect("calibration fitted QUQ parameters at the QKV site")
}

/// `tensor`, `core`, `accel` and `vit`: the forward path's kernels on the
/// shapes a batch of 8 has (ViT-S: QKV is m=520 k=96 n=288, one attention
/// score is 65×32×65).
pub fn forward_path(rig: &Rig, tables: &PtqTables, images: &[Tensor], budget: Duration) -> Values {
    let config = rig.model.config();
    let stage = &config.stages[0];
    let (seq, dim, heads) = (config.seq_len(), stage.embed_dim, stage.num_heads);
    let (m, k, n) = (8 * seq, dim, 3 * dim);
    let head_dim = dim / heads;
    let each = budget / 13;
    let mut rng = StdRng::seed_from_u64(1);
    let mut out = Values::new();

    // tensor: the packed integer GEMM on pre-shifted panels, and fp32.
    let mut panel = |len: usize| -> Vec<i16> {
        (0..len)
            .map(|_| rng.gen_range(-linalg::PANEL_BOUND..linalg::PANEL_BOUND) as i16)
            .collect()
    };
    let (a, b) = (panel(m * k), panel(n * k));
    let qkv_s = time_call(each, || {
        black_box(linalg::i16_matmul_nt_i64(black_box(&a), &b, m, k, n));
    });
    let (qa, ka) = (panel(seq * head_dim), panel(seq * head_dim));
    let attn_s = time_call(each, || {
        black_box(linalg::i16_matmul_nt_i64(
            black_box(&qa),
            &ka,
            seq,
            head_dim,
            seq,
        ));
    });
    let x = normal_tensor(&mut rng, &[m, k]);
    let block = &rig.model.weights().stages[0].blocks[0];
    let f32_s = time_call(each, || {
        black_box(linalg::linear(black_box(&x), &block.qkv_w, Some(&block.qkv_b)).expect("linear"));
    });
    out.extend([
        ("tensor.i16_gemm_qkv_us", qkv_s * 1e6),
        ("tensor.i16_gemm_attn_us", attn_s * 1e6),
        (
            "tensor.i16_gemm_gmac_per_s",
            (m * k * n) as f64 / qkv_s * 1e-9,
        ),
        ("tensor.f32_linear_qkv_us", f32_s * 1e6),
    ]);

    // core: QUB encode, both decodes, and the QUB GEMM over cached panels.
    let site = OpSite::in_block(0, OpKind::Qkv);
    let codec = QubCodec::new(quq_params(tables.activation(&ParamKey::input(site))));
    let elems = (m * k) as f64;
    let encode_s = time_call(each, || {
        black_box(codec.encode_tensor(black_box(&x)));
    });
    let qx = codec.encode_tensor(&x);
    let preshift_s = time_call(each, || {
        black_box(black_box(&qx).decode_preshifted());
    });
    let scaled_s = time_call(each, || {
        black_box(black_box(&qx).decode_scaled());
    });
    let qw = QubCodec::new(quq_params(tables.weight_quantizer(&site))).encode_tensor(&block.qkv_w);
    let qub_gemm_s = time_call(each, || {
        black_box(matmul_nt_qub(black_box(&qx), &qw));
    });
    out.extend([
        ("core.encode_ns_per_elem", encode_s * 1e9 / elems),
        ("core.decode_preshift_ns_per_elem", preshift_s * 1e9 / elems),
        ("core.decode_scaled_ns_per_elem", scaled_s * 1e9 / elems),
        ("core.matmul_nt_qub_qkv_us", qub_gemm_s * 1e6),
    ]);

    // accel: the integer SFU kernels on their forward-pass shapes.
    let ints = qx.decode_scaled();
    let scale = qx.base_delta;
    let scores = IntTensor::from_vec(
        ints.data()[..heads * seq * seq].to_vec(),
        &[heads * seq, seq],
    )
    .expect("sized");
    let softmax_s = time_call(each, || {
        black_box(intfunc::i_softmax(black_box(&scores), scale));
    });
    let gelu_s = time_call(each, || {
        black_box(intfunc::i_gelu(black_box(&ints), scale));
    });
    let norm_s = time_call(each, || {
        black_box(intfunc::i_layer_norm(
            black_box(&ints),
            &block.ln1_g,
            &block.ln1_b,
            0.05,
        ));
    });
    out.extend([
        (
            "accel.isoftmax_ns_per_elem",
            softmax_s * 1e9 / scores.len() as f64,
        ),
        ("accel.igelu_ns_per_elem", gelu_s * 1e9 / elems),
        ("accel.ilayernorm_ns_per_elem", norm_s * 1e9 / elems),
    ]);

    // vit: the same images through the fp32 backend, the reference the
    // integer path is judged against.
    let fp32_s = time_call(2 * each, || {
        black_box(
            rig.model
                .forward_batch(black_box(&images[..8]), &mut Fp32Backend::new())
                .expect("fp32 forward"),
        );
    });
    out.push(("vit.fp32_forward_ms_per_img", fp32_s * 1e3 / 8.0));
    out
}

/// `serve`: the wire codec, the frame decoder and the scheduler, per
/// request of the workload's own size.
pub fn serve_path(image: &Tensor, logits: usize, budget: Duration) -> Values {
    let each = budget / 5;
    let opts = InferOptions {
        class: Class::Interactive,
        deadline: Some(Duration::from_millis(100)),
        tenant: "a".into(),
    };
    let encode_s = time_call(each, || {
        black_box(encode_infer_request_with(7, "", black_box(image), &opts));
    });
    let request = encode_infer_request_with(7, "", image, &opts);
    let decode_s = time_call(each, || {
        black_box(decode_infer_request(black_box(&request)).expect("decode"));
    });
    let reply: Vec<f32> = (0..logits).map(|i| i as f32 * 0.25).collect();
    let reply_s = time_call(each, || {
        black_box(tag_response(7, &encode_ok_response(black_box(&reply))));
    });

    // 256 framed requests fed to the decoder in 1500-byte chunks, the size
    // a TCP segment delivers.
    let mut stream = Vec::new();
    for _ in 0..256 {
        write_frame(&mut stream, &request).expect("write to a Vec");
    }
    let frames_s = time_call(each, || {
        let mut decoder = FrameDecoder::new();
        let mut frames = 0;
        for chunk in stream.chunks(1500) {
            decoder.extend(chunk);
            while let Some(frame) = decoder.next_frame().expect("valid stream") {
                black_box(frame);
                frames += 1;
            }
        }
        assert_eq!(frames, 256);
    });

    let sched: Scheduler<u32> = Scheduler::new(SchedConfig::default());
    let sched_s = time_call(each, || {
        for i in 0..8 {
            let admitted = sched.push(i, Class::Interactive, "a", None);
            assert!(admitted.is_ok(), "an empty scheduler admits");
        }
        black_box(sched.next_batch(8, Duration::ZERO));
    });
    vec![
        ("serve.proto_encode_req_ns", encode_s * 1e9),
        ("serve.proto_decode_req_ns", decode_s * 1e9),
        ("serve.proto_encode_resp_ns", reply_s * 1e9),
        (
            "serve.frame_decode_mb_per_s",
            stream.len() as f64 / frames_s * 1e-6,
        ),
        ("serve.sched_push_pop_ns", sched_s * 1e9 / 8.0),
    ]
}

/// `store`: open, load and cache-fill of each artifact, a raw save, and
/// each codec's rate on the bytes of one weight tensor.
pub fn store_path(
    model: &VitModel,
    tables: &PtqTables,
    store: &StoreRig,
    budget: Duration,
) -> Values {
    let each = budget / 12;
    let open = |path| Artifact::open(path).expect("open the artifact");
    let open_s = time_call(each, || {
        black_box(open(&store.raw));
    });
    let mut out = vec![("store.open_ms", open_s * 1e3)];
    // Chunks are checked and decoded once per open artifact, so each sample
    // opens afresh and times only the call under test.
    for (path, load_name, cache_name) in [
        (
            &store.raw,
            "store.load_all_raw_ms",
            "store.qub_cache_raw_ms",
        ),
        (
            &store.auto,
            "store.load_all_auto_ms",
            "store.qub_cache_auto_ms",
        ),
    ] {
        let fresh = |f: &dyn Fn(&Artifact)| {
            let mut samples = Vec::new();
            let start = Instant::now();
            while samples.len() < 3 || start.elapsed() < each {
                let artifact = open(path);
                let t = Instant::now();
                f(&artifact);
                samples.push(t.elapsed().as_secs_f64());
            }
            median(&samples) * 1e3
        };
        out.push((
            load_name,
            fresh(&|a| {
                black_box(a.load_all().expect("load"));
            }),
        ));
        out.push((
            cache_name,
            fresh(&|a| {
                black_box(WeightQubCache::from_artifact(a).expect("fill the cache"));
            }),
        ));
    }
    let scratch = store.raw.with_extension("scratch");
    let save_s = time_call(each, || {
        black_box(
            ArtifactWriter::save_with(model, tables, &scratch, &raw_options()).expect("save"),
        );
    });
    let _ = std::fs::remove_file(&scratch);
    out.push(("store.save_raw_ms", save_s * 1e3));

    // Codec rates over the byte-shuffled f32 bytes of the first MLP weight,
    // in MB of decoded payload per second.
    let weight = &model.weights().stages[0].blocks[0].fc1_w;
    let bytes: Vec<u8> = weight.data().iter().flat_map(|v| v.to_le_bytes()).collect();
    let shuffled = ByteShuffle { stride: 4 }.encode(&bytes);
    let mb = shuffled.len() as f64 * 1e-6;
    let rc = Rc.encode(&shuffled);
    let lz = Lz.encode(&shuffled);
    let rc_encode_s = time_call(each, || {
        black_box(Rc.encode(black_box(&shuffled)));
    });
    let rc_decode_s = time_call(each, || {
        black_box(Rc.decode(black_box(&rc), shuffled.len()).expect("decode"));
    });
    let lz_decode_s = time_call(each, || {
        black_box(Lz.decode(black_box(&lz), shuffled.len()).expect("decode"));
    });
    let crc_s = time_call(each, || {
        black_box(crc32(black_box(&bytes)));
    });
    out.extend([
        ("store.rc_decode_mb_per_s", mb / rc_decode_s),
        ("store.rc_encode_mb_per_s", mb / rc_encode_s),
        ("store.lz_decode_mb_per_s", mb / lz_decode_s),
        ("store.crc32_mb_per_s", mb / crc_s),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_call_groups_fast_calls_and_returns_a_per_call_time() {
        let mut calls = 0u64;
        let per_call = time_call(Duration::from_millis(5), || {
            calls += 1;
            black_box(calls);
        });
        assert!(calls > 1000, "fast calls are grouped: {calls}");
        assert!(per_call > 0.0 && per_call < 1e-4, "per call {per_call}");
    }
}
