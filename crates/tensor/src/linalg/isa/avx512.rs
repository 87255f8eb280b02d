//! AVX-512 kernels: the GEMM tile on one 16-lane `zmm` per packed block —
//! `vpmaddwd` + `vpaddd`, or one `vpdpwssd` where the host has
//! `avx512vnni` — and the QUB encoder (`encode_qub`), sixteen `f32` lanes
//! per step with mask registers for the comparisons; see [`super::encode`]
//! for what the encoder computes and why it is exact.

use super::encode::{EncodePlan, EncodeRange, EPS};
use super::{Gemm, Lanes, BLOCK};
use std::arch::x86_64::*;

/// Register tile: 4 rows × 4 blocks, 16 `zmm` accumulators.
const MR: usize = 4;
const NB: usize = 4;

/// The AVX-512 [`Lanes`]; `VNNI` fuses the multiply-add into `vpdpwssd`.
struct Zmm<const VNNI: bool>;

/// `acc + a₀b₀ + a₁b₁` per `i32` lane, as `vpmaddwd` + `vpaddd`.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn madd(acc: __m512i, a: __m512i, b: __m512i) -> __m512i {
    _mm512_add_epi32(acc, _mm512_madd_epi16(a, b))
}

/// `acc + a₀b₀ + a₁b₁` per `i32` lane, as one `vpdpwssd`.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
#[inline]
fn dpwssd(acc: __m512i, a: __m512i, b: __m512i) -> __m512i {
    _mm512_dpwssd_epi32(acc, a, b)
}

impl<const VNNI: bool> Lanes for Zmm<VNNI> {
    type Acc = __m512i;
    type Pair = __m512i;
    type Cols = __m512i;

    #[inline(always)]
    unsafe fn zero() -> __m512i {
        _mm512_setzero_si512()
    }

    #[inline(always)]
    unsafe fn splat(pair: [i16; 2]) -> __m512i {
        // The low half of each lane pairs with the even column element.
        _mm512_set1_epi32((u32::from(pair[0] as u16) | u32::from(pair[1] as u16) << 16) as i32)
    }

    #[inline(always)]
    unsafe fn load(b: *const i16) -> __m512i {
        // SAFETY: the caller guarantees 32 readable `i16` at `b`; the load
        // is unaligned.
        unsafe { _mm512_loadu_si512(b.cast()) }
    }

    #[inline(always)]
    unsafe fn mac(acc: __m512i, a: __m512i, b: __m512i) -> __m512i {
        if VNNI {
            dpwssd(acc, a, b)
        } else {
            madd(acc, a, b)
        }
    }

    #[inline(always)]
    unsafe fn widen_add(acc: __m512i, out: &mut [i64]) {
        if out.len() < BLOCK {
            let mut lanes = [0i32; BLOCK];
            // SAFETY: `lanes` holds 16 `i32`, one unaligned `zmm`.
            unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), acc) };
            super::add_lanes(out, &lanes);
            return;
        }
        let (lo, hi) = out.split_at_mut(BLOCK / 2);
        let halves = [
            _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc)),
            _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(acc)),
        ];
        for (half, wide) in [lo, hi].into_iter().zip(halves) {
            debug_assert!(half.len() >= BLOCK / 2);
            // SAFETY: each half holds at least 8 `i64`, one unaligned `zmm`.
            unsafe {
                let sum = _mm512_add_epi64(_mm512_loadu_si512(half.as_ptr().cast()), wide);
                _mm512_storeu_si512(half.as_mut_ptr().cast(), sum);
            }
        }
    }
}

/// AVX-512F+BW GEMM kernel ([`super::GemmFn`]).
#[target_feature(enable = "avx512f,avx512bw")]
pub(super) fn gemm(g: &Gemm<'_>, out: &mut [i64], first_row: usize) {
    // SAFETY: this function runs only with the target features `Zmm<false>`
    // needs.
    unsafe { super::nest::<Zmm<false>, MR, NB>(g, out, first_row) }
}

/// AVX-512 VNNI GEMM kernel ([`super::GemmFn`]).
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
pub(super) fn gemm_vnni(g: &Gemm<'_>, out: &mut [i64], first_row: usize) {
    // SAFETY: this function runs only with the target features `Zmm<true>`
    // needs.
    unsafe { super::nest::<Zmm<true>, MR, NB>(g, out, first_row) }
}

/// `neg ? n : p` broadcast per lane.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn by_sign(neg: __mmask16, n: f32, p: f32) -> __m512 {
    _mm512_mask_blend_ps(neg, _mm512_set1_ps(p), _mm512_set1_ps(n))
}

/// Nearest code of the sign-selected subrange (as integral floats), its
/// penalized error and the magnitude of its value — the operations of
/// [`super::encode`]'s scalar `candidate`, sixteen lanes at a time.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn encode_candidate(
    x: __m512,
    neg: __mmask16,
    n: &EncodeRange,
    p: &EncodeRange,
) -> (__m512, __m512, __m512) {
    let delta = by_sign(neg, n.delta, p.delta);
    let q = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
        _mm512_div_ps(x, delta),
    );
    let c = _mm512_min_ps(
        _mm512_max_ps(q, by_sign(neg, n.lo, p.lo)),
        by_sign(neg, n.hi, p.hi),
    );
    let v = _mm512_mul_ps(c, delta);
    let err = _mm512_add_ps(
        _mm512_abs_ps(_mm512_sub_ps(x, v)),
        by_sign(neg, n.penalty, p.penalty),
    );
    (c, err, _mm512_abs_ps(v))
}

/// `cand` beats `best` on error, or ties within [`EPS`] and `tie` holds.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn encode_better(cand_err: __m512, best_err: __m512, tie: __mmask16) -> __mmask16 {
    let eps = _mm512_set1_ps(EPS);
    let closer = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(cand_err, _mm512_sub_ps(best_err, eps));
    let tied =
        _mm512_cmp_ps_mask::<_CMP_LE_OQ>(_mm512_abs_ps(_mm512_sub_ps(cand_err, best_err)), eps);
    closer | (tied & tie)
}

/// AVX-512 QUB encoder: whole groups of sixteen elements of `src` into
/// `dst`; returns how many elements it encoded (the caller's scalar
/// kernel takes the rest). Bit-identical to [`super::encode`]'s scalar
/// kernel. Uses AVX-512F only, so it serves the VNNI entry as well.
/// Slices of unequal length are handled (the shorter bounds the work).
#[target_feature(enable = "avx512f,avx512bw")]
pub(crate) fn encode_qub(plan: &EncodePlan, src: &[f32], dst: &mut [u8]) -> usize {
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len().min(dst.len()) / 16 * 16;
    let zero = _mm512_setzero_ps();
    let payload = _mm512_set1_epi32(plan.payload_mask as i32);
    let fine_flag = _mm512_set1_epi32(plan.fine_flag as i32);
    let zero_value = _mm512_set1_ps(plan.zero_value);
    let zero_mag = _mm512_abs_ps(zero_value);
    let zero_fine: __mmask16 = if plan.zero_fine { !0 } else { 0 };
    let mut i = 0usize;
    while i < n {
        debug_assert!(i + 16 <= src.len() && i + 16 <= dst.len());
        // SAFETY: `i + 16 <= n <= src.len()`; unaligned load.
        let x = unsafe { _mm512_loadu_ps(src.as_ptr().add(i)) };
        let neg = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, zero);
        let (cf, ef, mf) = encode_candidate(x, neg, &plan.neg.fine, &plan.pos.fine);
        let (cc, ec, mc) = encode_candidate(x, neg, &plan.neg.coarse, &plan.pos.coarse);
        let coarse_wins = encode_better(ec, ef, _mm512_cmp_ps_mask::<_CMP_LT_OQ>(mc, mf));
        let be = _mm512_mask_blend_ps(coarse_wins, ef, ec);
        let bm = _mm512_mask_blend_ps(coarse_wins, mf, mc);
        let fine_byte =
            _mm512_or_si512(_mm512_and_si512(_mm512_cvtps_epi32(cf), payload), fine_flag);
        let coarse_byte = _mm512_and_si512(_mm512_cvtps_epi32(cc), payload);
        let best = _mm512_mask_blend_epi32(coarse_wins, fine_byte, coarse_byte);
        let ez = _mm512_abs_ps(_mm512_sub_ps(x, zero_value));
        let zero_tie = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(zero_mag, bm)
            | (_mm512_cmp_ps_mask::<_CMP_EQ_OQ>(zero_mag, bm) & zero_fine & coarse_wins);
        let zero_wins = encode_better(ez, be, zero_tie);
        let mut out =
            _mm512_mask_blend_epi32(zero_wins, best, _mm512_set1_epi32(plan.zero_byte as i32));
        out = _mm512_mask_blend_epi32(
            _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x),
            out,
            _mm512_set1_epi32(plan.nan_byte as i32),
        );
        out = _mm512_mask_blend_epi32(
            _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(x, _mm512_set1_ps(f32::INFINITY)),
            out,
            _mm512_set1_epi32(plan.pos_inf_byte as i32),
        );
        out = _mm512_mask_blend_epi32(
            _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(x, _mm512_set1_ps(f32::NEG_INFINITY)),
            out,
            _mm512_set1_epi32(plan.neg_inf_byte as i32),
        );
        // SAFETY: `i + 16 <= n <= dst.len()`; an unaligned 16-byte store.
        unsafe {
            _mm_storeu_si128(
                dst.as_mut_ptr().add(i) as *mut __m128i,
                _mm512_cvtepi32_epi8(out),
            )
        };
        i += 16;
    }
    n
}
