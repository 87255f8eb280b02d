//! Integer-only dot products over QUB operands — Eq. 5 of the paper.
//!
//! With Eq. 4 enforced, every element's scale is `2^{n_sh} · Δ_tensor`, so a
//! dot product between two QUQ tensors is
//!
//! ```text
//! acc = Σ (D_x · D_w) << (n_sh_x + n_sh_w)
//! y   = acc · Δ_x · Δ_w
//! ```
//!
//! i.e. a *b*-bit signed multiply, a small shift, and wide accumulation —
//! exactly what the PE array of the accelerator executes. The requantization
//! step (the QU of §4.2) scales `acc` by `Δ_xΔ_w/Δ_y` and re-encodes.

use crate::qub::{Decoded, QubTensor};
use crate::scheme::{QuqCode, QuqParams};

/// Integer dot product of decoded QUB streams (Eq. 5 accumulation).
///
/// # Panics
///
/// Panics when the operand lengths differ.
pub fn dot_decoded(x: &[Decoded], w: &[Decoded]) -> i64 {
    assert_eq!(x.len(), w.len(), "dot operands must have equal length");
    let mut acc = 0i64;
    for (a, b) in x.iter().zip(w) {
        acc += ((a.d as i64) * (b.d as i64)) << (a.n_sh + b.n_sh);
    }
    acc
}

/// The real value represented by an accumulator produced by [`dot_decoded`]
/// over tensors with base scales `dx` and `dw`.
pub fn accumulator_value(acc: i64, dx: f32, dw: f32) -> f32 {
    acc as f32 * dx * dw
}

fn check_nt_shapes(a: &QubTensor, b: &QubTensor) -> (usize, usize, usize) {
    assert_eq!(a.shape.len(), 2, "lhs must be rank 2");
    assert_eq!(b.shape.len(), 2, "rhs must be rank 2");
    let (m, k) = (a.shape[0], a.shape[1]);
    let (n, k2) = (b.shape[0], b.shape[1]);
    assert_eq!(k, k2, "inner dimensions differ: {k} vs {k2}");
    (m, k, n)
}

/// Integer matrix product between QUB tensors: `C[m,n] = A[m,k] · B[k,n]ᵀ`
/// where `b` is `[n, k]` (linear-layer weight layout).
///
/// Operands are expanded to pre-shifted values `D << n_sh` — `A` decoded
/// row-major per call, `B` as the cached [`QubTensor::preshifted`] panel
/// in the packed lane-per-column layout — and multiplied by
/// [`quq_tensor::linalg::i16_matmul_nt_packed`], a dense widening MAC with
/// no per-element shift: exactly the arithmetic split between the paper's
/// decoding units and PE array. `(D_x·D_w) << (s_x+s_w)` equals
/// `(D_x<<s_x)·(D_w<<s_w)`, so the accumulators are bit-identical to
/// [`dot_decoded`] applied per output element (the unit tests' reference),
/// and integer accumulation keeps them identical at every thread count.
///
/// The `gemm.i16_nt` span covers the kernel and, when `b` has no cached
/// panel yet (an activation such as `K` or `Vᵀ`), its packing.
///
/// Returns the raw accumulators; scale them with [`accumulator_value`] or
/// requantize with [`requantize`]. Empty shapes (`m == 0 || n == 0`) return
/// immediately without decoding either operand.
///
/// # Panics
///
/// Panics when shapes are not rank-2 compatible.
pub fn matmul_nt_qub(a: &QubTensor, b: &QubTensor) -> Vec<i64> {
    let (m, _, n) = check_nt_shapes(a, b);
    if m == 0 || n == 0 {
        return vec![0i64; m * n];
    }
    let ad = a.decode_preshifted();
    let _span = quq_obs::span("gemm.i16_nt");
    quq_tensor::linalg::i16_matmul_nt_packed(ad.data(), m, &b.preshifted())
}

/// The pre-panel reference implementation of [`matmul_nt_qub`]: decodes
/// both operands to `(D, n_sh)` pairs and applies [`dot_decoded`] per
/// output element. The differential oracle the packed kernel is tested
/// against on every ISA.
#[cfg(test)]
fn matmul_nt_qub_reference(a: &QubTensor, b: &QubTensor) -> Vec<i64> {
    let (m, k, n) = check_nt_shapes(a, b);
    let mut out = vec![0i64; m * n];
    if m == 0 || n == 0 {
        return out;
    }
    let ad = a.decode_pairs();
    let bd = b.decode_pairs();
    quq_tensor::pool::parallel_rows_mut(&mut out, n, 4, |first_row, block| {
        for (r, orow) in block.chunks_exact_mut(n).enumerate() {
            let i = first_row + r;
            let arow = &ad[i * k..(i + 1) * k];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot_decoded(arow, &bd[j * k..(j + 1) * k]);
            }
        }
    });
    out
}

/// Requantizes an accumulator into an output QUQ code (the quantization
/// unit of §4.2): reconstructs `y = acc·Δ_xΔ_w`, then encodes it with the
/// output tensor's parameters (whose subrange comparison the hardware
/// implements with leading-zero/one detection).
pub fn requantize(acc: i64, dx: f32, dw: f32, out: &QuqParams) -> QuqCode {
    out.quantize(accumulator_value(acc, dx, dw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qub::QubCodec;
    use crate::relax::Pra;
    use crate::scheme::SpaceLayout;
    use proptest::prelude::*;
    use quq_tensor::linalg::isa;
    use quq_tensor::rng::OutlierMixture;
    use quq_tensor::{linalg, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Tests that pin `QUQ_FORCE_ISA` hold this lock while they do, and put
    /// back what they found: `scripts/check.sh` pins the ISA from outside,
    /// once per kernel, and that pin must outlive the first test.
    static ENV: Mutex<()> = Mutex::new(());

    struct EnvPin {
        saved: Option<String>,
        _lock: MutexGuard<'static, ()>,
    }

    fn pin_env() -> EnvPin {
        let lock = ENV.lock().unwrap_or_else(PoisonError::into_inner);
        EnvPin {
            saved: std::env::var("QUQ_FORCE_ISA").ok(),
            _lock: lock,
        }
    }

    impl Drop for EnvPin {
        fn drop(&mut self) {
            match &self.saved {
                Some(v) => std::env::set_var("QUQ_FORCE_ISA", v),
                None => std::env::remove_var("QUQ_FORCE_ISA"),
            }
        }
    }

    #[test]
    fn dot_matches_float_reference_on_fake_quantized_values() {
        // The integer path must agree exactly with the dot product of the
        // dequantized values — the property the accelerator relies on.
        let mut rng = StdRng::seed_from_u64(3);
        let xs = OutlierMixture::new(0.05, 0.6, 0.02).sample_vec(&mut rng, 512);
        let ws = OutlierMixture::new(0.02, 0.3, 0.01).sample_vec(&mut rng, 512);
        let px = Pra::with_defaults(8).run(&xs).params;
        let pw = Pra::with_defaults(8).run(&ws).params;
        let cx = QubCodec::new(px);
        let cw = QubCodec::new(pw);
        let tx = Tensor::from_vec(xs.clone(), &[1, 512]).unwrap();
        let tw = Tensor::from_vec(ws.clone(), &[1, 512]).unwrap();
        let qx = cx.encode_tensor(&tx);
        let qw = cw.encode_tensor(&tw);
        let acc = dot_decoded(&qx.decode_pairs(), &qw.decode_pairs());
        let y_int = accumulator_value(acc, qx.base_delta, qw.base_delta);
        // Float reference over the dequantized tensors.
        let y_ref: f64 = qx
            .dequantize()
            .data()
            .iter()
            .zip(qw.dequantize().data())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!(
            (y_int as f64 - y_ref).abs() < 1e-2 * y_ref.abs().max(1.0),
            "{y_int} vs {y_ref}"
        );
    }

    #[test]
    fn matmul_nt_qub_matches_linalg_on_grid_values() {
        // Values already on the quantization grid survive exactly.
        let px = crate::scheme::QuqParams::uniform(8, 0.25).unwrap();
        let pw = crate::scheme::QuqParams::uniform(8, 0.5).unwrap();
        let a = Tensor::from_vec(vec![0.25, -0.5, 1.0, 0.0, 2.0, -0.25], &[2, 3]).unwrap();
        let w = Tensor::from_vec(vec![0.5, 1.0, -0.5, 1.5, 0.0, 0.5], &[2, 3]).unwrap();
        let qa = QubCodec::new(px).encode_tensor(&a);
        let qw = QubCodec::new(pw).encode_tensor(&w);
        let accs = matmul_nt_qub(&qa, &qw);
        let reference = linalg::matmul_nt(&a, &w).unwrap();
        for (i, acc) in accs.iter().enumerate() {
            let v = accumulator_value(*acc, 0.25, 0.5);
            assert!(
                (v - reference.data()[i]).abs() < 1e-5,
                "{v} vs {}",
                reference.data()[i]
            );
        }
    }

    #[test]
    fn requantize_round_trips_through_output_params() {
        let out = crate::scheme::QuqParams::uniform(8, 0.1).unwrap();
        // acc·dx·dw = 37 · 0.01 = 0.37 → nearest code 4 (0.4) in fine space.
        let code = requantize(37, 0.1, 0.1, &out);
        assert!((out.dequantize(code) - 0.4).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn dot_rejects_length_mismatch() {
        let a = vec![Decoded { d: 1, n_sh: 0 }];
        let _ = dot_decoded(&a, &[]);
    }

    #[test]
    fn shifts_contribute_powers_of_two() {
        let x = [Decoded { d: 3, n_sh: 2 }];
        let w = [Decoded { d: -5, n_sh: 1 }];
        assert_eq!(dot_decoded(&x, &w), (3 * -5) << 3);
    }

    #[test]
    fn packed_matmul_equals_reference_exactly() {
        for (bits, m, k, n, seed) in [(4u32, 3, 7, 5, 1u64), (6, 9, 130, 6, 2), (8, 5, 33, 9, 3)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let av = OutlierMixture::new(0.05, 0.6, 0.02).sample_vec(&mut rng, m * k);
            let wv = OutlierMixture::new(0.02, 0.3, 0.01).sample_vec(&mut rng, n * k);
            let pa = Pra::with_defaults(bits).run(&av).params;
            let pw = Pra::with_defaults(bits).run(&wv).params;
            let qa = QubCodec::new(pa).encode_tensor(&Tensor::from_vec(av, &[m, k]).unwrap());
            let qw = QubCodec::new(pw).encode_tensor(&Tensor::from_vec(wv, &[n, k]).unwrap());
            assert_eq!(
                matmul_nt_qub(&qa, &qw),
                matmul_nt_qub_reference(&qa, &qw),
                "bits {bits}, {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn empty_shapes_return_without_decoding() {
        let params = crate::scheme::QuqParams::uniform(8, 0.5).unwrap();
        let codec = QubCodec::new(params);
        let empty_rows = codec.encode_tensor(&Tensor::zeros(&[0, 16]));
        let full = codec.encode_tensor(&Tensor::from_vec(vec![0.5; 48], &[3, 16]).unwrap());
        assert!(matmul_nt_qub(&empty_rows, &full).is_empty());
        assert!(matmul_nt_qub(&full, &empty_rows).is_empty());
        assert!(matmul_nt_qub_reference(&empty_rows, &full).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn packed_matmul_matches_reference_bitwise(
            m in 0usize..7,
            k in 1usize..24,
            n in 0usize..7,
            bits in 4u32..=8,
            a_fine in 0usize..3,
            a_coarse in 0usize..3,
            w_fine in 0usize..3,
            w_coarse in 0usize..3,
            a_sh in (0u32..=7, 0u32..=7),
            w_sh in (0u32..=7, 0u32..=7),
            av in prop::collection::vec(-50.0f32..50.0, 7 * 24),
            wv in prop::collection::vec(-50.0f32..50.0, 7 * 24),
        ) {
            // The pre-shifted packed i16 kernel must reproduce the pairwise
            // decode-and-accumulate reference bit-for-bit, for every
            // SpaceLayout variant pair, the full 4–8 bit range, empty shapes,
            // and both pool and serial execution. Run the tier-2 sweep with
            // QUQ_THREADS=4 to exercise a multi-worker pool (scripts/check.sh).
            let base = 0.03125f32; // 2^-5, exact in f32
            let delta = |sh: u32| base * (sh as f32).exp2();
            let layout = |variant: usize, sh: (u32, u32)| match variant {
                0 => SpaceLayout::Split { neg: delta(sh.0), pos: delta(sh.1) },
                1 => SpaceLayout::MergedNeg { delta: delta(sh.0) },
                _ => SpaceLayout::MergedPos { delta: delta(sh.0) },
            };
            let pa = QuqParams::new(bits, layout(a_fine, a_sh), layout(a_coarse, (a_sh.1, a_sh.0)))
                .expect("valid layout");
            let pw = QuqParams::new(bits, layout(w_fine, w_sh), layout(w_coarse, (w_sh.1, w_sh.0)))
                .expect("valid layout");
            let at = Tensor::from_vec(av[..m * k].to_vec(), &[m, k]).unwrap();
            let wt = Tensor::from_vec(wv[..n * k].to_vec(), &[n, k]).unwrap();
            let qa = QubCodec::new(pa).encode_tensor(&at);
            let qw = QubCodec::new(pw).encode_tensor(&wt);
            let reference = matmul_nt_qub_reference(&qa, &qw);
            let packed = matmul_nt_qub(&qa, &qw);
            prop_assert_eq!(&packed, &reference, "packed kernel diverged from reference");
            let serial = quq_tensor::pool::run_serial(|| matmul_nt_qub(&qa, &qw));
            prop_assert_eq!(&packed, &serial, "pool execution diverged from serial");
            // The kernel matrix: every ISA this host supports (QUQ_FORCE_ISA
            // reaches the dispatch) must reproduce the reference bytes, pooled
            // and serial. scripts/check.sh re-runs this test once per ISA with
            // QUQ_FORCE_ISA pinned from outside.
            let _pin = pin_env();
            for &isa in isa::supported() {
                std::env::set_var("QUQ_FORCE_ISA", isa.name());
                let forced = matmul_nt_qub(&qa, &qw);
                prop_assert_eq!(&forced, &reference, "{} diverged from reference", isa.name());
                let forced_serial =
                    quq_tensor::pool::run_serial(|| matmul_nt_qub(&qa, &qw));
                prop_assert_eq!(
                    &forced, &forced_serial,
                    "{} diverged between pool and serial",
                    isa.name()
                );
            }
        }
    }
}
