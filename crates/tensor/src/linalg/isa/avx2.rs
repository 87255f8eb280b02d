//! AVX2 microkernel: `vpmaddwd` on 256-bit registers, 32 panel elements
//! per widen.
//!
//! Each `_mm256_madd_epi16` lane is a pair sum ≤ 2^29 under
//! [`crate::linalg::PANEL_BOUND`]; two madd results per 32-element step
//! sum to ≤ 2^30 in `i32` lanes — still exact — before one widen into
//! the `i64` accumulators, halving the widening traffic of the previous
//! one-widen-per-16 kernel. Remainders below 16 elements re-enter the
//! portable [`super::scalar::tile`] body.
//!
//! The file also holds the AVX2 QUB encoder (`encode_qub`), eight `f32`
//! lanes per step; see [`super::encode`] for what it computes and why it
//! is exact.

use super::encode::{EncodePlan, EncodeRange, EPS};
use std::arch::x86_64::*;

/// Widens the eight exact `i32` lanes of `s` and adds them to `acc`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn add_widen_i32(acc: __m256i, s: __m256i) -> __m256i {
    let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(s));
    let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(s, 1));
    _mm256_add_epi64(acc, _mm256_add_epi64(lo, hi))
}

/// Horizontal sum of four exact `i64` lanes.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn hsum_i64(v: __m256i) -> i64 {
    let s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1)
}

/// `MR×JB` register tile over 16-lane `ymm`; exact, ascending-`p`.
///
/// # Safety
///
/// Caller must have verified AVX2 at runtime; pointer bounds as for
/// [`super::scalar::tile`].
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn tile<const MR: usize, const JB: usize>(
    a: *const i16,
    ak: usize,
    b: *const i16,
    bk: usize,
    len: usize,
    out: &mut [[i64; JB]; MR],
) {
    let zero = _mm256_setzero_si256();
    let mut acc = [[zero; JB]; MR];
    let mut p = 0usize;
    while p + 32 <= len {
        let mut va0 = [zero; MR];
        let mut va1 = [zero; MR];
        let mut i = 0usize;
        while i < MR {
            va0[i] = _mm256_loadu_si256(a.add(i * ak + p) as *const __m256i);
            va1[i] = _mm256_loadu_si256(a.add(i * ak + p + 16) as *const __m256i);
            i += 1;
        }
        let mut j = 0usize;
        while j < JB {
            let vb0 = _mm256_loadu_si256(b.add(j * bk + p) as *const __m256i);
            let vb1 = _mm256_loadu_si256(b.add(j * bk + p + 16) as *const __m256i);
            let mut i = 0usize;
            while i < MR {
                let s = _mm256_add_epi32(
                    _mm256_madd_epi16(va0[i], vb0),
                    _mm256_madd_epi16(va1[i], vb1),
                );
                acc[i][j] = add_widen_i32(acc[i][j], s);
                i += 1;
            }
            j += 1;
        }
        p += 32;
    }
    if p + 16 <= len {
        let mut i = 0usize;
        while i < MR {
            let va = _mm256_loadu_si256(a.add(i * ak + p) as *const __m256i);
            let mut j = 0usize;
            while j < JB {
                let vb = _mm256_loadu_si256(b.add(j * bk + p) as *const __m256i);
                acc[i][j] = add_widen_i32(acc[i][j], _mm256_madd_epi16(va, vb));
                j += 1;
            }
            i += 1;
        }
        p += 16;
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

super::isa_block_family!(block_fn, nest, tile, "avx2");

/// Lane-wise `|v|`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn abs_ps(v: __m256) -> __m256 {
    _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff)))
}

/// One byte value in every `i32` lane, typed for `blendv_ps`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn splat_byte(b: u8) -> __m256 {
    _mm256_castsi256_ps(_mm256_set1_epi32(b as i32))
}

/// `neg ? n : p` broadcast per lane.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn by_sign(neg: __m256, n: f32, p: f32) -> __m256 {
    _mm256_blendv_ps(_mm256_set1_ps(p), _mm256_set1_ps(n), neg)
}

/// Nearest code of the sign-selected subrange (as integral floats), its
/// penalized error and the magnitude of its value — the operations of
/// [`super::encode`]'s scalar `candidate`, eight lanes at a time.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn encode_candidate(
    x: __m256,
    neg: __m256,
    n: &EncodeRange,
    p: &EncodeRange,
) -> (__m256, __m256, __m256) {
    let delta = by_sign(neg, n.delta, p.delta);
    let q = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(_mm256_div_ps(
        x, delta,
    ));
    let c = _mm256_min_ps(
        _mm256_max_ps(q, by_sign(neg, n.lo, p.lo)),
        by_sign(neg, n.hi, p.hi),
    );
    let v = _mm256_mul_ps(c, delta);
    let err = _mm256_add_ps(
        abs_ps(_mm256_sub_ps(x, v)),
        by_sign(neg, n.penalty, p.penalty),
    );
    (c, err, abs_ps(v))
}

/// `cand` beats `best` on error, or ties within [`EPS`] and `tie` holds.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn encode_better(cand_err: __m256, best_err: __m256, tie: __m256) -> __m256 {
    let eps = _mm256_set1_ps(EPS);
    let closer = _mm256_cmp_ps::<_CMP_LT_OQ>(cand_err, _mm256_sub_ps(best_err, eps));
    let tied = _mm256_cmp_ps::<_CMP_LE_OQ>(abs_ps(_mm256_sub_ps(cand_err, best_err)), eps);
    _mm256_or_ps(closer, _mm256_and_ps(tied, tie))
}

/// AVX2 QUB encoder: whole groups of eight elements of `src` into `dst`;
/// returns how many elements it encoded (the caller's scalar kernel takes
/// the rest). Bit-identical to [`super::encode`]'s scalar kernel.
///
/// # Safety
///
/// Caller must have verified AVX2 at runtime. Slices of unequal length
/// are handled (the shorter bounds the work).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn encode_qub(plan: &EncodePlan, src: &[f32], dst: &mut [u8]) -> usize {
    debug_assert_eq!(src.len(), dst.len());
    let n = src.len().min(dst.len()) / 8 * 8;
    let zero = _mm256_setzero_ps();
    let true_mask = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    let payload = _mm256_set1_epi32(plan.payload_mask as i32);
    let fine_flag = _mm256_set1_epi32(plan.fine_flag as i32);
    let zero_value = _mm256_set1_ps(plan.zero_value);
    let zero_mag = abs_ps(zero_value);
    let zero_fine = if plan.zero_fine { true_mask } else { zero };
    // Low byte of each i32 lane to the front of its 128-bit half.
    let gather = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 4, 8, 12, -1, -1, -1, -1,
        -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let mut i = 0usize;
    while i < n {
        debug_assert!(i + 8 <= src.len() && i + 8 <= dst.len());
        // SAFETY: `i + 8 <= n <= src.len()`; unaligned load.
        let x = _mm256_loadu_ps(src.as_ptr().add(i));
        let neg = _mm256_cmp_ps::<_CMP_LT_OQ>(x, zero);
        let (cf, ef, mf) = encode_candidate(x, neg, &plan.neg.fine, &plan.pos.fine);
        let (cc, ec, mc) = encode_candidate(x, neg, &plan.neg.coarse, &plan.pos.coarse);
        let coarse_wins = encode_better(ec, ef, _mm256_cmp_ps::<_CMP_LT_OQ>(mc, mf));
        let be = _mm256_blendv_ps(ef, ec, coarse_wins);
        let bm = _mm256_blendv_ps(mf, mc, coarse_wins);
        let fine_byte =
            _mm256_or_si256(_mm256_and_si256(_mm256_cvtps_epi32(cf), payload), fine_flag);
        let coarse_byte = _mm256_and_si256(_mm256_cvtps_epi32(cc), payload);
        let best = _mm256_blendv_ps(
            _mm256_castsi256_ps(fine_byte),
            _mm256_castsi256_ps(coarse_byte),
            coarse_wins,
        );
        let ez = abs_ps(_mm256_sub_ps(x, zero_value));
        let zero_tie = _mm256_or_ps(
            _mm256_cmp_ps::<_CMP_LT_OQ>(zero_mag, bm),
            _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_EQ_OQ>(zero_mag, bm),
                _mm256_and_ps(zero_fine, coarse_wins),
            ),
        );
        let zero_wins = encode_better(ez, be, zero_tie);
        let mut out = _mm256_blendv_ps(best, splat_byte(plan.zero_byte), zero_wins);
        out = _mm256_blendv_ps(
            out,
            splat_byte(plan.nan_byte),
            _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x),
        );
        out = _mm256_blendv_ps(
            out,
            splat_byte(plan.pos_inf_byte),
            _mm256_cmp_ps::<_CMP_EQ_OQ>(x, _mm256_set1_ps(f32::INFINITY)),
        );
        out = _mm256_blendv_ps(
            out,
            splat_byte(plan.neg_inf_byte),
            _mm256_cmp_ps::<_CMP_EQ_OQ>(x, _mm256_set1_ps(f32::NEG_INFINITY)),
        );
        let packed = _mm256_shuffle_epi8(_mm256_castps_si256(out), gather);
        let eight = _mm_unpacklo_epi32(
            _mm256_castsi256_si128(packed),
            _mm256_extracti128_si256(packed, 1),
        );
        // SAFETY: `i + 8 <= n <= dst.len()`; an unaligned 8-byte store.
        _mm_storel_epi64(dst.as_mut_ptr().add(i) as *mut __m128i, eight);
        i += 8;
    }
    n
}
