//! AVX2 kernels: the GEMM tile on two 8-lane `ymm` per packed block,
//! `vpmaddwd` + `vpaddd`, the QUB encoder (`encode_qub`), eight `f32`
//! lanes per step, and the AVX2 entry of [`super::vectorize`]; see
//! [`super::encode`] for what the encoder computes and why it is exact.

use super::encode::{Code, EncodePlan, EncodeRange, EPS};
use super::{Epilogue, Gemm, Lanes, Vectorized, BLOCK};
use std::arch::x86_64::*;

/// Register tile: 4 rows × 1 block, 8 `ymm` accumulators of the 16.
const MR: usize = 4;
const NB: usize = 1;

/// The AVX2 [`Lanes`]: a block's 16 lanes as two `ymm`.
struct Ymm;

impl Lanes for Ymm {
    type Acc = [__m256i; 2];
    type Pair = __m256i;
    type Cols = [__m256i; 2];

    #[inline(always)]
    unsafe fn zero() -> Self::Acc {
        [_mm256_setzero_si256(); 2]
    }

    #[inline(always)]
    unsafe fn splat(pair: [i16; 2]) -> __m256i {
        // The low half of each lane pairs with the even column element.
        _mm256_set1_epi32((u32::from(pair[0] as u16) | u32::from(pair[1] as u16) << 16) as i32)
    }

    #[inline(always)]
    unsafe fn load(b: *const i16) -> Self::Cols {
        // SAFETY: the caller guarantees 32 readable `i16` at `b`: two
        // unaligned 16-element loads.
        unsafe {
            [
                _mm256_loadu_si256(b.cast()),
                _mm256_loadu_si256(b.add(16).cast()),
            ]
        }
    }

    #[inline(always)]
    unsafe fn mac(acc: Self::Acc, a: __m256i, b: Self::Cols) -> Self::Acc {
        [
            _mm256_add_epi32(acc[0], _mm256_madd_epi16(a, b[0])),
            _mm256_add_epi32(acc[1], _mm256_madd_epi16(a, b[1])),
        ]
    }

    #[inline(always)]
    unsafe fn spill(acc: Self::Acc) -> [i32; BLOCK] {
        let mut lanes = [0i32; BLOCK];
        // SAFETY: `lanes` holds 16 `i32`, two unaligned `ymm`.
        unsafe {
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc[0]);
            _mm256_storeu_si256(lanes.as_mut_ptr().add(8).cast(), acc[1]);
        }
        lanes
    }

    #[inline(always)]
    unsafe fn widen_add(acc: Self::Acc, wide: &mut [i64; BLOCK]) {
        let quarters = [
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc[0])),
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(acc[0])),
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc[1])),
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(acc[1])),
        ];
        for (quarter, lanes) in wide.chunks_exact_mut(BLOCK / 4).zip(quarters) {
            // SAFETY: each quarter holds 4 `i64`, one unaligned `ymm`.
            unsafe {
                let sum = _mm256_add_epi64(_mm256_loadu_si256(quarter.as_ptr().cast()), lanes);
                _mm256_storeu_si256(quarter.as_mut_ptr().cast(), sum);
            }
        }
    }
}

/// AVX2 GEMM kernel ([`super::GemmFn`]).
#[target_feature(enable = "avx2")]
pub(super) fn gemm<E: Epilogue>(g: &Gemm<'_>, epi: &E, out: &mut [E::Out], first_row: usize) {
    // SAFETY: this function runs only with the target feature `Ymm` needs.
    unsafe { super::nest::<Ymm, E, MR, NB>(g, epi, out, first_row) }
}

/// A [`Vectorized`] body compiled with AVX2.
#[target_feature(enable = "avx2")]
pub(super) fn vectorized(body: impl Vectorized) {
    body.run()
}

/// Lane-wise `|v|`.
#[target_feature(enable = "avx2")]
#[inline]
fn abs_ps(v: __m256) -> __m256 {
    _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff)))
}

/// One `i32` lane value in every lane, typed for `blendv_ps`.
#[target_feature(enable = "avx2")]
#[inline]
fn splat_lane(v: i32) -> __m256 {
    _mm256_castsi256_ps(_mm256_set1_epi32(v))
}

/// `c · step` per lane, as `i32` bits typed for `blendv_ps`: the operand
/// of code `c` (exact, `|c · step| ≤ 2^14`).
#[target_feature(enable = "avx2")]
#[inline]
fn operand(c: __m256, step: __m256) -> __m256 {
    _mm256_castsi256_ps(_mm256_cvtps_epi32(_mm256_mul_ps(c, step)))
}

/// `neg ? n : p` broadcast per lane.
#[target_feature(enable = "avx2")]
#[inline]
fn by_sign(neg: __m256, n: f32, p: f32) -> __m256 {
    _mm256_blendv_ps(_mm256_set1_ps(p), _mm256_set1_ps(n), neg)
}

/// Nearest code of the sign-selected subrange (as integral floats), its
/// penalized error and the magnitude of its value — the operations of
/// [`super::encode`]'s scalar `candidate`, eight lanes at a time.
#[target_feature(enable = "avx2")]
#[inline]
fn encode_candidate(
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
fn encode_better(cand_err: __m256, best_err: __m256, tie: __m256) -> __m256 {
    let eps = _mm256_set1_ps(EPS);
    let closer = _mm256_cmp_ps::<_CMP_LT_OQ>(cand_err, _mm256_sub_ps(best_err, eps));
    let tied = _mm256_cmp_ps::<_CMP_LE_OQ>(abs_ps(_mm256_sub_ps(cand_err, best_err)), eps);
    _mm256_or_ps(closer, _mm256_and_ps(tied, tie))
}

/// AVX2 QUB encoder: whole groups of eight elements of `src` into `dst`,
/// as bytes or operands ([`Code`]); returns how many elements it encoded
/// (the caller's scalar kernel takes the rest). Bit-identical to
/// [`super::encode`]'s scalar kernel. Slices of unequal length are handled
/// (the shorter bounds the work).
#[target_feature(enable = "avx2")]
pub(crate) fn encode_qub<T: Code>(plan: &EncodePlan, src: &[f32], dst: &mut [T]) -> usize {
    debug_assert_eq!(src.len(), dst.len());
    debug_assert_eq!(size_of::<T>(), if T::OPERAND { 2 } else { 1 });
    let n = src.len().min(dst.len()) / 8 * 8;
    let zero = _mm256_setzero_ps();
    let true_mask = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    let payload = _mm256_set1_epi32(plan.payload_mask as i32);
    let fine_flag = _mm256_set1_epi32(plan.fine_flag as i32);
    let zero_value = _mm256_set1_ps(plan.zero_value);
    let zero_mag = abs_ps(zero_value);
    let zero_fine = if plan.zero_fine { true_mask } else { zero };
    let [on_zero, on_nan, on_pos_inf, on_neg_inf] = plan.specials::<T>();
    // Low byte of each i32 lane to the front of its 128-bit half.
    let gather = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 4, 8, 12, -1, -1, -1, -1,
        -1, -1, -1, -1, -1, -1, -1, -1,
    );
    let mut i = 0usize;
    while i < n {
        debug_assert!(i + 8 <= src.len() && i + 8 <= dst.len());
        // SAFETY: `i + 8 <= n <= src.len()`; unaligned load.
        let x = unsafe { _mm256_loadu_ps(src.as_ptr().add(i)) };
        let neg = _mm256_cmp_ps::<_CMP_LT_OQ>(x, zero);
        let (cf, ef, mf) = encode_candidate(x, neg, &plan.neg.fine, &plan.pos.fine);
        let (cc, ec, mc) = encode_candidate(x, neg, &plan.neg.coarse, &plan.pos.coarse);
        let coarse_wins = encode_better(ec, ef, _mm256_cmp_ps::<_CMP_LT_OQ>(mc, mf));
        let be = _mm256_blendv_ps(ef, ec, coarse_wins);
        let bm = _mm256_blendv_ps(mf, mc, coarse_wins);
        let (fine, coarse) = if T::OPERAND {
            (
                operand(cf, by_sign(neg, plan.neg.fine.step, plan.pos.fine.step)),
                operand(cc, by_sign(neg, plan.neg.coarse.step, plan.pos.coarse.step)),
            )
        } else {
            (
                _mm256_castsi256_ps(_mm256_or_si256(
                    _mm256_and_si256(_mm256_cvtps_epi32(cf), payload),
                    fine_flag,
                )),
                _mm256_castsi256_ps(_mm256_and_si256(_mm256_cvtps_epi32(cc), payload)),
            )
        };
        let best = _mm256_blendv_ps(fine, coarse, coarse_wins);
        let ez = abs_ps(_mm256_sub_ps(x, zero_value));
        let zero_tie = _mm256_or_ps(
            _mm256_cmp_ps::<_CMP_LT_OQ>(zero_mag, bm),
            _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_EQ_OQ>(zero_mag, bm),
                _mm256_and_ps(zero_fine, coarse_wins),
            ),
        );
        let zero_wins = encode_better(ez, be, zero_tie);
        let mut out = _mm256_blendv_ps(best, splat_lane(on_zero), zero_wins);
        out = _mm256_blendv_ps(out, splat_lane(on_nan), _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x));
        out = _mm256_blendv_ps(
            out,
            splat_lane(on_pos_inf),
            _mm256_cmp_ps::<_CMP_EQ_OQ>(x, _mm256_set1_ps(f32::INFINITY)),
        );
        out = _mm256_blendv_ps(
            out,
            splat_lane(on_neg_inf),
            _mm256_cmp_ps::<_CMP_EQ_OQ>(x, _mm256_set1_ps(f32::NEG_INFINITY)),
        );
        let lanes = _mm256_castps_si256(out);
        let at = dst.as_mut_ptr().wrapping_add(i);
        if T::OPERAND {
            // Every lane is within ±2^14, so the saturating pack is exact.
            let eight = _mm_packs_epi32(
                _mm256_castsi256_si128(lanes),
                _mm256_extracti128_si256::<1>(lanes),
            );
            // SAFETY: `T` is `i16` (`Code` is sealed, and only `i16` is an
            // operand) and `i + 8 <= n <= dst.len()`: an unaligned 16-byte
            // store of eight `i16`.
            unsafe { _mm_storeu_si128(at.cast(), eight) };
        } else {
            let packed = _mm256_shuffle_epi8(lanes, gather);
            let eight = _mm_unpacklo_epi32(
                _mm256_castsi256_si128(packed),
                _mm256_extracti128_si256::<1>(packed),
            );
            // SAFETY: `T` is `u8` and `i + 8 <= n <= dst.len()`: an
            // unaligned 8-byte store.
            unsafe { _mm_storel_epi64(at.cast(), eight) };
        }
        i += 8;
    }
    n
}
