//! AVX-512 microkernels: `vpmaddwd` on 512-bit registers, and a
//! `vpdpwssd` (VNNI) variant where the host has `avx512vnni`.
//!
//! Lane math is the AVX2 argument doubled in width: each madd/dpwssd
//! lane is a pair sum ≤ 2^29 under [`crate::linalg::PANEL_BOUND`], two
//! per 64-element step sum to ≤ 2^30 in `i32` — exact — before one
//! widen into `i64`. VNNI's `vpdpwssd` fuses the madd and the `i32`
//! add into one instruction; seeded from zero and widened on the same
//! cadence it computes the identical exact value. Remainders below 32
//! elements re-enter the portable [`super::scalar::tile`] body.
//!
//! The file also holds the AVX-512 QUB encoder (`encode_qub`), sixteen
//! `f32` lanes per step with mask registers for the comparisons; see
//! [`super::encode`] for what it computes and why it is exact.

use super::encode::{EncodePlan, EncodeRange, EPS};
use std::arch::x86_64::*;

/// Widens the sixteen exact `i32` lanes of `s` and adds them to `acc`.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
unsafe fn add_widen_i32(acc: __m512i, s: __m512i) -> __m512i {
    let lo = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(s));
    let hi = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(s));
    _mm512_add_epi64(acc, _mm512_add_epi64(lo, hi))
}

/// Horizontal sum of eight exact `i64` lanes.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
unsafe fn hsum_i64(v: __m512i) -> i64 {
    _mm512_reduce_add_epi64(v)
}

/// `MR×JB` register tile over 32-lane `zmm` via `vpmaddwd`.
///
/// # Safety
///
/// Caller must have verified AVX-512F+BW at runtime; pointer bounds as
/// for [`super::scalar::tile`].
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
pub(crate) unsafe fn tile<const MR: usize, const JB: usize>(
    a: *const i16,
    ak: usize,
    b: *const i16,
    bk: usize,
    len: usize,
    out: &mut [[i64; JB]; MR],
) {
    let zero = _mm512_setzero_si512();
    let mut acc = [[zero; JB]; MR];
    let mut p = 0usize;
    while p + 64 <= len {
        let mut va0 = [zero; MR];
        let mut va1 = [zero; MR];
        let mut i = 0usize;
        while i < MR {
            va0[i] = _mm512_loadu_si512(a.add(i * ak + p) as *const __m512i);
            va1[i] = _mm512_loadu_si512(a.add(i * ak + p + 32) as *const __m512i);
            i += 1;
        }
        let mut j = 0usize;
        while j < JB {
            let vb0 = _mm512_loadu_si512(b.add(j * bk + p) as *const __m512i);
            let vb1 = _mm512_loadu_si512(b.add(j * bk + p + 32) as *const __m512i);
            let mut i = 0usize;
            while i < MR {
                let s = _mm512_add_epi32(
                    _mm512_madd_epi16(va0[i], vb0),
                    _mm512_madd_epi16(va1[i], vb1),
                );
                acc[i][j] = add_widen_i32(acc[i][j], s);
                i += 1;
            }
            j += 1;
        }
        p += 64;
    }
    if p + 32 <= len {
        let mut i = 0usize;
        while i < MR {
            let va = _mm512_loadu_si512(a.add(i * ak + p) as *const __m512i);
            let mut j = 0usize;
            while j < JB {
                let vb = _mm512_loadu_si512(b.add(j * bk + p) as *const __m512i);
                acc[i][j] = add_widen_i32(acc[i][j], _mm512_madd_epi16(va, vb));
                j += 1;
            }
            i += 1;
        }
        p += 32;
    }
    let mut tail = [[0i64; JB]; MR];
    if p < len {
        super::scalar::tile::<MR, JB>(a.add(p), ak, b.add(p), bk, len - p, &mut tail);
    }
    let mut i = 0usize;
    while i < MR {
        let mut j = 0usize;
        while j < JB {
            out[i][j] += hsum_i64(acc[i][j]) + tail[i][j];
            j += 1;
        }
        i += 1;
    }
}

/// `MR×JB` register tile over 32-lane `zmm` via `vpdpwssd` (VNNI).
///
/// # Safety
///
/// Caller must have verified AVX-512 VNNI at runtime; pointer bounds as
/// for [`super::scalar::tile`].
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
#[inline]
pub(crate) unsafe fn vnni_tile<const MR: usize, const JB: usize>(
    a: *const i16,
    ak: usize,
    b: *const i16,
    bk: usize,
    len: usize,
    out: &mut [[i64; JB]; MR],
) {
    let zero = _mm512_setzero_si512();
    let mut acc = [[zero; JB]; MR];
    let mut p = 0usize;
    while p + 64 <= len {
        let mut va0 = [zero; MR];
        let mut va1 = [zero; MR];
        let mut i = 0usize;
        while i < MR {
            va0[i] = _mm512_loadu_si512(a.add(i * ak + p) as *const __m512i);
            va1[i] = _mm512_loadu_si512(a.add(i * ak + p + 32) as *const __m512i);
            i += 1;
        }
        let mut j = 0usize;
        while j < JB {
            let vb0 = _mm512_loadu_si512(b.add(j * bk + p) as *const __m512i);
            let vb1 = _mm512_loadu_si512(b.add(j * bk + p + 32) as *const __m512i);
            let mut i = 0usize;
            while i < MR {
                let s = _mm512_dpwssd_epi32(_mm512_dpwssd_epi32(zero, va0[i], vb0), va1[i], vb1);
                acc[i][j] = add_widen_i32(acc[i][j], s);
                i += 1;
            }
            j += 1;
        }
        p += 64;
    }
    if p + 32 <= len {
        let mut i = 0usize;
        while i < MR {
            let va = _mm512_loadu_si512(a.add(i * ak + p) as *const __m512i);
            let mut j = 0usize;
            while j < JB {
                let vb = _mm512_loadu_si512(b.add(j * bk + p) as *const __m512i);
                acc[i][j] = add_widen_i32(acc[i][j], _mm512_dpwssd_epi32(zero, va, vb));
                j += 1;
            }
            i += 1;
        }
        p += 32;
    }
    let mut tail = [[0i64; JB]; MR];
    if p < len {
        super::scalar::tile::<MR, JB>(a.add(p), ak, b.add(p), bk, len - p, &mut tail);
    }
    let mut i = 0usize;
    while i < MR {
        let mut j = 0usize;
        while j < JB {
            out[i][j] += hsum_i64(acc[i][j]) + tail[i][j];
            j += 1;
        }
        i += 1;
    }
}

super::isa_block_family!(block_fn, nest, tile, "avx512f,avx512bw");
super::isa_block_family!(
    vnni_block_fn,
    vnni_nest,
    vnni_tile,
    "avx512f,avx512bw,avx512vnni"
);

/// `neg ? n : p` broadcast per lane.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
unsafe fn by_sign(neg: __mmask16, n: f32, p: f32) -> __m512 {
    _mm512_mask_blend_ps(neg, _mm512_set1_ps(p), _mm512_set1_ps(n))
}

/// Nearest code of the sign-selected subrange (as integral floats), its
/// penalized error and the magnitude of its value — the operations of
/// [`super::encode`]'s scalar `candidate`, sixteen lanes at a time.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
unsafe fn encode_candidate(
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
unsafe fn encode_better(cand_err: __m512, best_err: __m512, tie: __mmask16) -> __mmask16 {
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
///
/// # Safety
///
/// Caller must have verified AVX-512F+BW at runtime. Slices of unequal
/// length are handled (the shorter bounds the work).
#[target_feature(enable = "avx512f,avx512bw")]
pub(crate) unsafe fn encode_qub(plan: &EncodePlan, src: &[f32], dst: &mut [u8]) -> usize {
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
        let x = _mm512_loadu_ps(src.as_ptr().add(i));
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
        _mm_storeu_si128(
            dst.as_mut_ptr().add(i) as *mut __m128i,
            _mm512_cvtepi32_epi8(out),
        );
        i += 16;
    }
    n
}
