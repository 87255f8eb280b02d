//! AVX-512 kernels: the GEMM tile on one 16-lane `zmm` per packed block —
//! `vpmaddwd` + `vpaddd`, or one `vpdpwssd` where the host has
//! `avx512vnni` — the QUB encoder (`encode_qub`), sixteen `f32` lanes per
//! step with mask registers for the comparisons and `vpermps` for the
//! region tables, and the AVX-512 entry of
//! [`super::vectorize`]; see [`super::encode`] for what the encoder
//! computes and why it is exact.

use super::encode::{Code, EncodePlan, EncodeRange, Regions, EPS, SLOTS, TIE_MARGIN};
use super::{Epilogue, Gemm, Lanes, Vectorized, BLOCK};
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
    unsafe fn spill(acc: __m512i) -> [i32; BLOCK] {
        let mut lanes = [0i32; BLOCK];
        // SAFETY: `lanes` holds 16 `i32`, one unaligned `zmm`.
        unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), acc) };
        lanes
    }

    #[inline(always)]
    unsafe fn widen_add(acc: __m512i, wide: &mut [i64; BLOCK]) {
        let (lo, hi) = wide.split_at_mut(BLOCK / 2);
        let halves = [
            _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc)),
            _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(acc)),
        ];
        for (half, lanes) in [lo, hi].into_iter().zip(halves) {
            debug_assert_eq!(half.len(), BLOCK / 2);
            // SAFETY: each half holds 8 `i64`, one unaligned `zmm`.
            unsafe {
                let sum = _mm512_add_epi64(_mm512_loadu_si512(half.as_ptr().cast()), lanes);
                _mm512_storeu_si512(half.as_mut_ptr().cast(), sum);
            }
        }
    }
}

/// AVX-512 GEMM kernel ([`super::GemmFn`]). DQ and VL, which every
/// AVX-512 entry of [`super::supported`] has, let the epilogue convert
/// and scale in `zmm` too.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
pub(super) fn gemm<E: Epilogue>(g: &Gemm<'_>, epi: &E, out: &mut [E::Out], first_row: usize) {
    // SAFETY: this function runs only with the target features `Zmm<false>`
    // needs.
    unsafe { super::nest::<Zmm<false>, E, MR, NB>(g, epi, out, first_row) }
}

/// AVX-512 VNNI GEMM kernel ([`super::GemmFn`]).
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni")]
pub(super) fn gemm_vnni<E: Epilogue>(g: &Gemm<'_>, epi: &E, out: &mut [E::Out], first_row: usize) {
    // SAFETY: this function runs only with the target features `Zmm<true>`
    // needs.
    unsafe { super::nest::<Zmm<true>, E, MR, NB>(g, epi, out, first_row) }
}

/// A [`Vectorized`] body compiled with AVX-512 (F, BW, DQ and VL).
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
pub(super) fn vectorized(body: impl Vectorized) {
    body.run()
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

/// The search of [`super::encode`] on one group of sixteen lanes: the
/// fine, coarse and zero candidates scored against each other, then the
/// NaN and ±∞ outputs — bit-identical to its scalar kernel for every `x`.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn search_group<T: Code>(plan: &EncodePlan, x: __m512) -> __m512i {
    let [on_zero, on_nan, on_pos_inf, on_neg_inf] = plan.specials::<T>();
    let neg = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, _mm512_setzero_ps());
    let (cf, ef, mf) = encode_candidate(x, neg, &plan.neg.fine, &plan.pos.fine);
    let (cc, ec, mc) = encode_candidate(x, neg, &plan.neg.coarse, &plan.pos.coarse);
    let coarse_wins = encode_better(ec, ef, _mm512_cmp_ps_mask::<_CMP_LT_OQ>(mc, mf));
    let be = _mm512_mask_blend_ps(coarse_wins, ef, ec);
    let bm = _mm512_mask_blend_ps(coarse_wins, mf, mc);
    let (fine, coarse) = if T::OPERAND {
        let fine_step = by_sign(neg, plan.neg.fine.step, plan.pos.fine.step);
        let coarse_step = by_sign(neg, plan.neg.coarse.step, plan.pos.coarse.step);
        (
            _mm512_cvtps_epi32(_mm512_mul_ps(cf, fine_step)),
            _mm512_cvtps_epi32(_mm512_mul_ps(cc, coarse_step)),
        )
    } else {
        let payload = _mm512_set1_epi32(plan.payload_mask.into());
        (
            _mm512_or_si512(
                _mm512_and_si512(_mm512_cvtps_epi32(cf), payload),
                _mm512_set1_epi32(plan.fine_flag.into()),
            ),
            _mm512_and_si512(_mm512_cvtps_epi32(cc), payload),
        )
    };
    let best = _mm512_mask_blend_epi32(coarse_wins, fine, coarse);
    let zero_value = _mm512_set1_ps(plan.zero_value);
    let zero_mag = _mm512_abs_ps(zero_value);
    let zero_fine: __mmask16 = if plan.zero_fine { !0 } else { 0 };
    let ez = _mm512_abs_ps(_mm512_sub_ps(x, zero_value));
    let zero_tie = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(zero_mag, bm)
        | (_mm512_cmp_ps_mask::<_CMP_EQ_OQ>(zero_mag, bm) & zero_fine & coarse_wins);
    let zero_wins = encode_better(ez, be, zero_tie);
    let mut out = _mm512_mask_blend_epi32(zero_wins, best, _mm512_set1_epi32(on_zero));
    out = _mm512_mask_blend_epi32(
        _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x),
        out,
        _mm512_set1_epi32(on_nan),
    );
    out = _mm512_mask_blend_epi32(
        _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(x, _mm512_set1_ps(f32::INFINITY)),
        out,
        _mm512_set1_epi32(on_pos_inf),
    );
    _mm512_mask_blend_epi32(
        _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(x, _mm512_set1_ps(f32::NEG_INFINITY)),
        out,
        _mm512_set1_epi32(on_neg_inf),
    )
}

/// One of [`Regions`]' 6-entry tables in the low lanes of a `zmm`, for
/// `vpermps` to index.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn region_table(entries: &[f32; 6]) -> __m512 {
    // SAFETY: the mask reads exactly the six `f32` of `entries`.
    unsafe { _mm512_maskz_loadu_ps(0x3f, entries.as_ptr()) }
}

/// The region path of [`super::encode`] on one group of sixteen lanes:
/// the outputs, and the mask of lanes it vouches for. A lane it does not
/// vouch for (NaN, ±∞, near a region bound or a rounding tie, or beyond
/// the tables' reach) may hold anything, and its group must be searched.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn region_group<T: Code>(r: &Regions, payload_mask: u8, x: __m512) -> (__m512i, __mmask16) {
    let neg = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, _mm512_setzero_ps());
    // Two compares place a lane among its sign's regions; each also opens
    // the fallback band around its bound.
    let past = |j: usize| {
        let past =
            _mm512_cmp_ps_mask::<_CMP_GE_OQ>(x, by_sign(neg, r.band_lo[0][j], r.band_lo[1][j]));
        let near = _mm512_mask_cmp_ps_mask::<_CMP_LE_OQ>(
            past,
            x,
            by_sign(neg, r.band_hi[0][j], r.band_hi[1][j]),
        );
        (past, near)
    };
    let (past0, near0) = past(0);
    let (past1, near1) = past(1);
    // The bounds ascend, so a lane past the second is past the first. Blends
    // of constants, not masked adds: an add into the previous group's
    // register chains the groups' divisions.
    let slot = |j: i32| {
        _mm512_mask_blend_epi32(
            neg,
            _mm512_set1_epi32(SLOTS as i32 + j),
            _mm512_set1_epi32(j),
        )
    };
    let idx = _mm512_mask_blend_epi32(
        past1,
        _mm512_mask_blend_epi32(past0, slot(0), slot(1)),
        slot(2),
    );
    let q = _mm512_div_ps(x, _mm512_permutexvar_ps(idx, region_table(&r.delta)));
    let rounded = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(q);
    let tie = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(
        _mm512_abs_ps(_mm512_sub_ps(q, rounded)),
        _mm512_set1_ps(0.5 - TIE_MARGIN),
    );
    let c = _mm512_min_ps(
        _mm512_max_ps(rounded, _mm512_permutexvar_ps(idx, region_table(&r.lo))),
        _mm512_permutexvar_ps(idx, region_table(&r.hi)),
    );
    let out = if T::OPERAND {
        _mm512_cvtps_epi32(_mm512_mul_ps(
            c,
            _mm512_permutexvar_ps(idx, region_table(&r.step)),
        ))
    } else {
        // SAFETY: the mask reads exactly the six `i32` of `r.flag`.
        let flags = unsafe { _mm512_maskz_loadu_epi32(0x3f, r.flag.as_ptr()) };
        _mm512_or_si512(
            _mm512_and_si512(
                _mm512_cvtps_epi32(c),
                _mm512_set1_epi32(payload_mask.into()),
            ),
            _mm512_permutexvar_epi32(idx, flags),
        )
    };
    let inside = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(_mm512_abs_ps(x), _mm512_set1_ps(r.reach));
    (out, inside & !(near0 | near1 | tie))
}

/// AVX-512 QUB encoder: whole groups of sixteen elements of `src` into
/// `dst`, as bytes or operands ([`Code`]); returns how many elements it
/// encoded (the caller's scalar kernel takes the rest) and how many of
/// its groups a plan with [`Regions`] sent to the search. A group goes
/// through [`region_group`] when the plan has tables and every lane is
/// vouched for, and through [`search_group`] otherwise, so the output is
/// bit-identical to [`super::encode`]'s scalar kernel. Uses AVX-512F and
/// BW only, so it serves the VNNI entry as well. Slices of unequal length
/// are handled (the shorter bounds the work).
#[target_feature(enable = "avx512f,avx512bw")]
pub(crate) fn encode_qub<T: Code>(plan: &EncodePlan, src: &[f32], dst: &mut [T]) -> (usize, u64) {
    let mut fallback = 0u64;
    let done = match &plan.regions {
        Some(r) => encode_groups(src, dst, |x| {
            match region_group::<T>(r, plan.payload_mask, x) {
                (out, u16::MAX) => out,
                _ => {
                    fallback += 1;
                    search_group::<T>(plan, x)
                }
            }
        }),
        None => encode_groups(src, dst, |x| search_group::<T>(plan, x)),
    };
    (done, fallback)
}

/// Runs `group` over every whole group of sixteen elements of `src` and
/// stores its outputs to `dst`; returns how many elements that covered.
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn encode_groups<T: Code>(
    src: &[f32],
    dst: &mut [T],
    mut group: impl FnMut(__m512) -> __m512i,
) -> usize {
    debug_assert_eq!(src.len(), dst.len());
    debug_assert_eq!(size_of::<T>(), if T::OPERAND { 2 } else { 1 });
    let n = src.len().min(dst.len()) / 16 * 16;
    let mut i = 0usize;
    while i < n {
        debug_assert!(i + 16 <= src.len() && i + 16 <= dst.len());
        // SAFETY: `i + 16 <= n <= src.len()`; unaligned load.
        let out = group(unsafe { _mm512_loadu_ps(src.as_ptr().add(i)) });
        let at = dst.as_mut_ptr().wrapping_add(i);
        if T::OPERAND {
            // SAFETY: `T` is `i16` (`Code` is sealed, and only `i16` is an
            // operand) and `i + 16 <= n <= dst.len()`: an unaligned 32-byte
            // store of sixteen `i16`.
            unsafe { _mm256_storeu_si256(at.cast(), _mm512_cvtepi32_epi16(out)) };
        } else {
            // SAFETY: `T` is `u8` and `i + 16 <= n <= dst.len()`: an
            // unaligned 16-byte store.
            unsafe { _mm_storeu_si128(at.cast(), _mm512_cvtepi32_epi8(out)) };
        }
        i += 16;
    }
    n
}
