//! Integer-only special functions for the SFUs — the I-BERT / I-ViT
//! lineage the paper builds its SFU argument on (§4.2, refs [5, 6]).
//!
//! The QUA's special function units receive integers `d = D << n_sh` (the
//! SFU load path) at a known scale `S` and must compute Softmax, GELU and
//! LayerNorm without floating point. This module implements the standard
//! integer kernels:
//!
//! * [`i_exp2`] — fixed-point `2^x` via range reduction + a quadratic fit
//!   of `2^f` on `[0, 1)`;
//! * [`i_softmax`] — shift-based softmax (max-subtracted, base-2
//!   exponentials, fixed-point normalization);
//! * [`i_gelu`] — `x · σ(1.702 x)` with an integer sigmoid;
//! * [`i_layer_norm`] — integer mean/variance normalization with affine
//!   parameters.
//!
//! All kernels take integer tensors plus a power-free scalar scale `S`
//! (value = q·S) that in hardware is carried as the `M/2^N` pair of Eq. 2;
//! here `S` is an `f32` used only to derive the fixed-point multiplier, as
//! an integer-only implementation would at compile time.
//!
//! Softmax and LayerNorm run as row bodies ([`Vectorized`]) that
//! `quq_tensor::linalg::isa` compiles once per ISA and picks with
//! `isa::resolve()`, so `QUQ_FORCE_ISA` pins them like the GEMM. A body
//! reads its rows as integers (`Codes::Ints`, the public functions) or as
//! code bytes through the decoding unit's table (`Codes::Bytes`, the
//! integer backend), and writes integers or their `f32` values
//! (`Output`). Its inner loops have no branch and no integer divide: they
//! run on `f64` lanes holding integers below 2^53, where every operation is
//! exact, and each quotient is corrected by one integer step. The integers
//! are those of the per-element definitions (the test module keeps them as
//! oracles), on every ISA.

use quq_tensor::linalg::isa::{self, Isa, Vectorized};
use quq_tensor::{IntTensor, Tensor};

/// Fixed-point fraction bits used by the integer kernels.
pub const FRAC_BITS: u32 = 16;
/// Fixed-point "one".
pub const ONE: i64 = 1 << FRAC_BITS;

/// log2(e) in fixed point.
fn log2e_fx() -> i64 {
    (std::f64::consts::LOG2_E * ONE as f64).round() as i64
}

/// The quadratic fit `2^f ≈ 1 + 0.65617·f + 0.34383·f²` in fixed point
/// (exact at both endpoints, max error < 0.3%).
const C1: u32 = (0.65617 * (1u64 << 16) as f64) as u32;
const C2: u32 = (0.34383 * (1u64 << 16) as f64) as u32;

/// Exponents at or below this give `2^x = 0`: the shift reaches 31.
const EXP2_MIN: i32 = -31 << FRAC_BITS;

/// Fixed-point `2^(z / 2^16)` for `z ∈ [EXP2_MIN, 0]`, without a branch.
/// With `shift = ⌈−z / 2^16⌉` and `f = z + shift·2^16 ∈ [0, 2^16)`,
/// `2^z = 2^f / 2^shift`; `z & 0xffff` is that `f` whether or not `z` is a
/// multiple of 2^16, and at `shift = 31` the fit (< 2^17) shifts to 0.
/// Every product stays below 2^32.
#[inline(always)]
fn exp2_fx(z: i32) -> u32 {
    let shift = (-(z >> FRAC_BITS)) as u32;
    let f = (z & 0xffff) as u32;
    let f2 = (f * f) >> FRAC_BITS;
    (ONE as u32 + ((C1 * f + C2 * f2) >> FRAC_BITS)) >> shift
}

/// Fixed-point `2^x` for `x ≤ 0` given in fixed point (`x_fx = x · 2^16`).
///
/// Returns `2^x` in fixed point; underflows to 0 below `2^-31`.
pub fn i_exp2(x_fx: i64) -> i64 {
    debug_assert!(x_fx <= 0, "i_exp2 expects non-positive input");
    exp2_fx(x_fx.clamp(EXP2_MIN.into(), 0) as i32).into()
}

/// Fixed-point `e^x` for `x ≤ 0`: `e^x = 2^{x·log2 e}`.
pub fn i_exp(x_fx: i64) -> i64 {
    debug_assert!(x_fx <= 0);
    let z = (x_fx.saturating_mul(log2e_fx())) >> FRAC_BITS;
    i_exp2(z)
}

/// Round-to-nearest integer square root: the `r` minimizing `|r² − n|`.
/// The `f64` estimate is within one of `⌊√n⌋` for every `n` a row kernel
/// forms; the loops make the floor exact for any `n`.
fn isqrt_round(n: u128) -> u128 {
    let mut r = (n as f64).sqrt() as u128;
    while r.checked_mul(r).is_none_or(|sq| sq > n) {
        r -= 1;
    }
    while (r + 1).checked_mul(r + 1).is_some_and(|sq| sq <= n) {
        r += 1;
    }
    // (r+1)² − n < n − r²  ⟺  n > r² + r.
    if n - r * r > r {
        r + 1
    } else {
        r
    }
}

/// Signed round-to-nearest division (ties away from zero); `den` must be
/// positive.
fn div_round(num: i128, den: i128) -> i128 {
    debug_assert!(den > 0);
    if num >= 0 {
        (num + den / 2) / den
    } else {
        -((-num + den / 2) / den)
    }
}

/// What a row body writes for each integer result.
pub(crate) trait Output: Copy + Default {
    /// The output for integer `code` at `scale`.
    fn from_code(code: i32, scale: f32) -> Self;
}

impl Output for i32 {
    #[inline(always)]
    fn from_code(code: i32, _scale: f32) -> i32 {
        code
    }
}

impl Output for f32 {
    /// `IntTensor::to_f32`'s conversion, one element at a time.
    #[inline(always)]
    fn from_code(code: i32, scale: f32) -> f32 {
        code as f32 * scale
    }
}

/// Where a row body reads its integers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Codes<'a> {
    /// The integers themselves, row-major.
    Ints(&'a [i32]),
    /// Code bytes, row-major, and the integer each byte decodes to
    /// (`D << n_sh`, the SFU load path of Eq. 6/7).
    Bytes(&'a [u8], &'a [i32; 256]),
}

impl Codes<'_> {
    fn len(&self) -> usize {
        match self {
            Codes::Ints(v) => v.len(),
            Codes::Bytes(b, _) => b.len(),
        }
    }

    /// Row `r` of width `scratch.len()`, decoded into `scratch` when the
    /// source is bytes.
    #[inline(always)]
    fn row<'s>(&'s self, r: usize, scratch: &'s mut [i32]) -> &'s [i32] {
        let cols = scratch.len();
        match *self {
            Codes::Ints(v) => &v[r * cols..(r + 1) * cols],
            Codes::Bytes(bytes, table) => {
                for (s, &q) in scratch.iter_mut().zip(&bytes[r * cols..(r + 1) * cols]) {
                    *s = table[usize::from(q)];
                }
                scratch
            }
        }
    }
}

/// `1.5 · 2^52`: adding it to an `f64` below 2^51 in magnitude rounds it
/// to an integer (ties to even) and leaves that integer's two's complement
/// in the low mantissa bits.
const MAGIC: f64 = 6_755_399_441_055_744.0;

/// `x` rounded to the nearest integer, ties to even, for `|x| < 2^51` —
/// one add and one subtract, where `floor` and `round_ties_even` are libm
/// calls at baseline x86-64.
#[inline(always)]
fn round_ne(x: f64) -> f64 {
    (x + MAGIC) - MAGIC
}

/// The low 32 bits of [`round_ne`]`(x)`, as a wrapping `i64 → i32` cast
/// keeps them. Rust's saturating `as` would clamp instead, and its range
/// checks stop the compiler from vectorizing the loop.
#[inline(always)]
fn round_low_i32(x: f64) -> i32 {
    (x + MAGIC).to_bits() as u32 as i32
}

/// `sign(num)·⌊(|num| + half) / den⌋` for integral `f64`s with
/// `|num| + half < 2^49` and `1 ≤ den < 2^52`, given `inv = 1/den`: the
/// truncating quotient for `half = 0`, [`div_round`] for `half = ⌊den/2⌋`.
/// With `a = |num| + half`, the rounded product `a·inv` is `⌊a/den⌋` or
/// one more (its error is below ⅛); `a − q·den` is exact and tells which.
#[inline(always)]
fn div_f64(num: f64, den: f64, inv: f64, half: f64) -> f64 {
    let a = num.abs() + half;
    let q = round_ne(a * inv);
    let q = if a - q * den < 0.0 { q - 1.0 } else { q };
    if num < 0.0 {
        -q
    } else {
        q
    }
}

/// [`div_round`]`(x, ONE)` for an integral `f64` with `|x| < 2^52`, before
/// its last rounding: `(x ± ½) / 2^16` is exact and never a tie, and its
/// nearest integer is `x / 2^16` rounded half away from zero.
#[inline(always)]
fn div_one_unrounded(x: f64) -> f64 {
    (x + 0.5f64.copysign(x)) * (1.0 / ONE as f64)
}

/// Integer softmax over the last axis of a `[rows, cols]` tensor of values
/// `q·scale`.
///
/// Returns probabilities in fixed point (`p_fx / 2^16`, each row summing to
/// ≈ `2^16`).
///
/// # Panics
///
/// Panics when the tensor is not rank 2.
pub fn i_softmax(x: &IntTensor, scale: f32) -> IntTensor {
    assert_eq!(x.rank(), 2, "i_softmax expects a matrix");
    let out = softmax_rows(isa::resolve(), Codes::Ints(x.data()), x.shape()[1], scale);
    IntTensor::from_vec(out, x.shape()).expect("sized")
}

/// [`i_softmax`]'s rows of `cols` integers from `src`, on `isa`, each
/// probability written as `O` at scale `2^-16`.
///
/// Per element, `e = i_exp((q − max)·s_fx)` with `s_fx = round(scale·2^16)`,
/// then `p = ⌊(e << 16) / Σe⌋`. The exponent `⌊(q − max)·s_fx·log2 e /
/// 2^16⌋` is one `f64` product, clamped to `[EXP2_MIN, 0]` and floored:
/// wherever `i_exp`'s `saturating_mul` saturates, or the product leaves
/// 2^53, the exponent is below `EXP2_MIN` and `e` is 0 either way.
pub(crate) fn softmax_rows<O: Output>(isa: Isa, src: Codes<'_>, cols: usize, scale: f32) -> Vec<O> {
    let _span = quq_obs::span("sfu.softmax");
    let mut out = vec![O::default(); src.len()];
    if cols > 0 {
        let s_fx = (scale as f64 * ONE as f64).round() as i64;
        let k = s_fx as f64 * log2e_fx() as f64 / ONE as f64;
        isa::vectorize(
            isa,
            SoftmaxRows {
                src,
                cols,
                k,
                out: &mut out,
            },
        );
    }
    out
}

struct SoftmaxRows<'a, O> {
    src: Codes<'a>,
    cols: usize,
    /// `s_fx · log2 e / 2^16`: the exponent per code below the row max.
    k: f64,
    out: &'a mut [O],
}

impl<O: Output> Vectorized for SoftmaxRows<'_, O> {
    #[inline(always)]
    fn run(self) {
        let mut scratch = vec![0i32; 2 * self.cols];
        let (decoded, exps) = scratch.split_at_mut(self.cols);
        for (r, out) in self.out.chunks_exact_mut(self.cols).enumerate() {
            let row = self.src.row(r, decoded);
            let max = row.iter().fold(i32::MIN, |m, &v| m.max(v)) as f64;
            let mut sum = 0i64;
            for (e, &v) in exps.iter_mut().zip(row) {
                // The clamp commutes with the floor (its bounds are
                // integers). Inside it the product is exact with at most 16
                // fraction bits, so `t − ½ + 2^-17` is exact, never a tie,
                // and rounds to `⌊t⌋`.
                let t = ((f64::from(v) - max) * self.k).clamp(EXP2_MIN.into(), 0.0);
                *e = exp2_fx(round_low_i32(t - (0.5 - 0.5 / ONE as f64))) as i32;
                sum += i64::from(*e);
            }
            // The max's own term is 2^16, so `sum ≥ 2^16`; `e << 16 < 2^34`
            // and every `q·sum` below are exact.
            let sum = sum as f64;
            let inv = 1.0 / sum;
            for (o, &e) in out.iter_mut().zip(exps.iter()) {
                let q = div_f64(f64::from(e) * ONE as f64, sum, inv, 0.0);
                *o = O::from_code(round_low_i32(q), 1.0 / ONE as f32);
            }
        }
    }
}

/// Integer sigmoid `σ(z) = 1/(1+e^{−z})` in fixed point for `z_fx` in
/// fixed point.
pub fn i_sigmoid(z_fx: i64) -> i64 {
    if z_fx >= 0 {
        let e = i_exp(-z_fx);
        (ONE << FRAC_BITS) / (ONE + e)
    } else {
        let e = i_exp(z_fx);
        (e << FRAC_BITS) / (ONE + e)
    }
}

/// Integer GELU via the sigmoid approximation `x · σ(1.702 x)` (the
/// ShiftGELU of I-ViT). Input/output share the scale `S`.
pub fn i_gelu(x: &IntTensor, scale: f32) -> IntTensor {
    let _span = quq_obs::span("sfu.gelu");
    let s_fx = (scale as f64 * 1.702 * ONE as f64).round() as i64;
    let data = x
        .data()
        .iter()
        .map(|&q| {
            let z_fx = q as i64 * s_fx;
            let sig = i_sigmoid(z_fx);
            // Round-to-nearest on the fixed-point product (plain arithmetic
            // shift would floor, biasing negative outputs downward).
            (((q as i64 * sig) + (1 << (FRAC_BITS - 1))) >> FRAC_BITS) as i32
        })
        .collect();
    IntTensor::from_vec(data, x.shape()).expect("sized")
}

/// Integer LayerNorm over the last axis.
///
/// Input values are `q·scale`; `gamma`/`beta` are float parameters that the
/// SFU holds as fixed-point constants. The output is returned at a fixed
/// output scale `out_scale` chosen by the caller (`y_q = y / out_scale`).
///
/// The per-row statistics are exact: with `d = v·n − Σv` (the deviation
/// times `n`), the squared-deviation sum is `Σd² = n²·Σv² − n·(Σv)²`, so
/// `n·std = √(Σd²/n)` is the round-to-nearest square root of the integer
/// `n·Σv² − (Σv)²`, with no truncation anywhere. An earlier version
/// accumulated `(d/n)²` with truncating division — biasing the std low for
/// small-magnitude rows (codes within `±n` of the mean contribute *zero*) —
/// and could overflow `i64` for large codes × wide rows.
///
/// Each element is then `y = γ·d/(n·std) + β` in fixed point with
/// round-to-nearest divisions (ties away from zero). Rows whose codes and
/// parameters keep every intermediate below 2^53 run in exact `f64`
/// lanes; any other row runs in 128-bit integers. Both compute the same
/// integers.
///
/// # Panics
///
/// Panics when shapes disagree.
pub fn i_layer_norm(x: &IntTensor, gamma: &Tensor, beta: &Tensor, out_scale: f32) -> IntTensor {
    let cols = *x.shape().last().expect("rank >= 1");
    let out = layer_norm_rows(
        isa::resolve(),
        Codes::Ints(x.data()),
        cols,
        gamma,
        beta,
        out_scale,
    );
    IntTensor::from_vec(out, x.shape()).expect("sized")
}

/// [`i_layer_norm`]'s rows of `cols` integers from `src`, on `isa`, each
/// output code written as `O` at `out_scale`.
///
/// # Panics
///
/// Panics when `gamma` or `beta` does not hold `cols` values.
pub(crate) fn layer_norm_rows<O: Output>(
    isa: Isa,
    src: Codes<'_>,
    cols: usize,
    gamma: &Tensor,
    beta: &Tensor,
    out_scale: f32,
) -> Vec<O> {
    let _span = quq_obs::span("sfu.layer_norm");
    assert_eq!(gamma.len(), cols, "gamma length mismatch");
    assert_eq!(beta.len(), cols, "beta length mismatch");
    let mut out = vec![O::default(); src.len()];
    if cols > 0 {
        // Fixed-point gamma/out_scale and beta/out_scale.
        let to_fx = |t: &Tensor| -> Vec<i64> {
            t.data()
                .iter()
                .map(|&p| ((p / out_scale) as f64 * ONE as f64).round() as i64)
                .collect()
        };
        let (g_fx, b_fx) = (to_fx(gamma), to_fx(beta));
        let to_f64 = |fx: &[i64]| fx.iter().map(|&v| v as f64).collect();
        let params_f64 = params_fit_f64(&g_fx, &b_fx).then(|| (to_f64(&g_fx), to_f64(&b_fx)));
        isa::vectorize(
            isa,
            LayerNormRows {
                src,
                params_f64,
                g_fx: &g_fx,
                b_fx: &b_fx,
                out_scale,
                out: &mut out,
            },
        );
    }
    out
}

/// Whether the fixed-point parameters keep a row's `f64` lanes exact for
/// every row [`row_fits_f64`] admits. With `V = Σd²/n`, `|d| ≤ √((n−1)·V)`
/// (the deviations sum to zero) and the rounded `n·std ≥ √V / 2` once
/// `V ≥ 1`, so `|norm_fx| ≤ 2^17·√(n−1) + ½ ≤ 2^17·(⌊√n⌋ + 1)`; then
/// `|γ·norm_fx| ≤ 2^51` and `|β| ≤ 2^50` keep `y_fx` and its rounding
/// terms below 2^52.
fn params_fit_f64(g_fx: &[i64], b_fx: &[i64]) -> bool {
    let max_abs = |fx: &[i64]| fx.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
    let norm_max = (2 << FRAC_BITS) * ((g_fx.len() as u128).isqrt() + 1);
    max_abs(g_fx) as u128 * norm_max <= 1 << 51 && max_abs(b_fx) <= 1 << 50
}

/// Whether a row of `n` codes with `max|v| = v_max` runs in `f64` lanes:
/// `v_max·n ≤ 2^31` bounds `|Σv|`, `|v·n|` and `|d|` by 2^32, `|d << 16|`
/// by 2^48, `Σv²` by 2^62 (so its `i64` sum cannot wrap) and
/// `n·Σv² − (Σv)²` by 2^62. Every QUB-decoded row (`|v| ≤ 2^14`) up to
/// 131072 wide passes.
fn row_fits_f64(v_max: u32, n: usize) -> bool {
    u64::from(v_max) * n as u64 <= 1 << 31
}

struct LayerNormRows<'a, O> {
    src: Codes<'a>,
    /// `g_fx` and `b_fx` as `f64`, when [`params_fit_f64`] holds.
    params_f64: Option<(Vec<f64>, Vec<f64>)>,
    g_fx: &'a [i64],
    b_fx: &'a [i64],
    out_scale: f32,
    out: &'a mut [O],
}

impl<O: Output> Vectorized for LayerNormRows<'_, O> {
    #[inline(always)]
    fn run(self) {
        let cols = self.g_fx.len();
        let mut scratch = vec![0i32; cols];
        for (r, out) in self.out.chunks_exact_mut(cols).enumerate() {
            let row = self.src.row(r, &mut scratch);
            let (mut sum, mut sum_sq, mut v_max) = (0i64, 0i64, 0u32);
            for &v in row {
                sum += i64::from(v);
                sum_sq = sum_sq.wrapping_add(i64::from(v) * i64::from(v));
                v_max = v_max.max(v.unsigned_abs());
            }
            let Some((g_f64, b_f64)) = self
                .params_f64
                .as_ref()
                .filter(|_| row_fits_f64(v_max, cols))
            else {
                layer_norm_row_i128(row, self.g_fx, self.b_fx, self.out_scale, out);
                continue;
            };
            let n = cols as i64;
            let std_n = isqrt_round((n * sum_sq - sum * sum) as u128).max(1) as u64;
            let (den, half) = (std_n as f64, (std_n / 2) as f64);
            let inv = 1.0 / den;
            let (n, sum) = (n as f64, sum as f64);
            for (((o, &v), &g), &b) in out.iter_mut().zip(row).zip(g_f64).zip(b_f64) {
                let centered = f64::from(v) * n - sum; // (v − mean)·n
                let norm_fx = div_f64(centered * ONE as f64, den, inv, half);
                let y_fx = round_ne(div_one_unrounded(g * norm_fx)) + b;
                *o = O::from_code(round_low_i32(div_one_unrounded(y_fx)), self.out_scale);
            }
        }
    }
}

/// One LayerNorm row in 128-bit arithmetic: exact for any `i32` codes and
/// any realistic row width (`n²·Σv²` fits `i128` through n ≤ 2³¹).
fn layer_norm_row_i128<O: Output>(
    row: &[i32],
    g_fx: &[i64],
    b_fx: &[i64],
    out_scale: f32,
    out: &mut [O],
) {
    let n = row.len() as i128;
    let sum: i128 = row.iter().map(|&v| i128::from(v)).sum();
    let sum_sq: i128 = row.iter().map(|&v| i128::from(v) * i128::from(v)).sum();
    let std_n = isqrt_round((n * sum_sq - sum * sum) as u128).max(1) as i128;
    for (((o, &v), &g), &b) in out.iter_mut().zip(row).zip(g_fx).zip(b_fx) {
        let norm_fx = div_round((i128::from(v) * n - sum) << FRAC_BITS, std_n);
        let y_fx = div_round(i128::from(g) * norm_fx, ONE.into()) + i128::from(b);
        *o = O::from_code(div_round(y_fx, ONE.into()) as i32, out_scale);
    }
}

/// The per-element kernels these row bodies replaced, kept verbatim as
/// the definitions the bodies are tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{FRAC_BITS, ONE};
    use quq_tensor::{IntTensor, Tensor};

    fn exp2_frac_fx(f: i64) -> i64 {
        debug_assert!((0..ONE).contains(&f));
        const C1: i64 = (0.65617 * (1u64 << 16) as f64) as i64;
        const C2: i64 = (0.34383 * (1u64 << 16) as f64) as i64;
        let f2 = (f * f) >> FRAC_BITS;
        ONE + ((C1 * f + C2 * f2) >> FRAC_BITS)
    }

    pub(crate) fn i_exp2(x_fx: i64) -> i64 {
        debug_assert!(x_fx <= 0, "i_exp2 expects non-positive input");
        let int_part = (-x_fx) >> FRAC_BITS; // magnitude of the integer part
        let frac = x_fx + (int_part << FRAC_BITS); // in (−1, 0]
        let frac_pos = if frac == 0 { 0 } else { frac + ONE }; // 2^f = 2^{f+1}/2
        let extra = if frac == 0 { 0 } else { 1 };
        let shift = int_part + extra;
        if shift >= 31 {
            return 0;
        }
        exp2_frac_fx(frac_pos) >> shift
    }

    fn i_exp(x_fx: i64) -> i64 {
        debug_assert!(x_fx <= 0);
        let z = (x_fx.saturating_mul(super::log2e_fx())) >> FRAC_BITS;
        i_exp2(z)
    }

    pub(crate) fn i_softmax(x: &IntTensor, scale: f32) -> IntTensor {
        assert_eq!(x.rank(), 2, "i_softmax expects a matrix");
        let cols = x.shape()[1];
        let s_fx = (scale as f64 * ONE as f64).round() as i64;
        let mut out = vec![0i32; x.len()];
        let mut exps = vec![0i64; cols];
        for (row, orow) in x.data().chunks(cols).zip(out.chunks_mut(cols)) {
            let max = row.iter().copied().max().unwrap_or(0);
            let mut sum = 0i64;
            for (e, &q) in exps.iter_mut().zip(row) {
                let t_fx = (q as i64 - max as i64) * s_fx; // ≤ 0, fixed point
                *e = i_exp(t_fx);
                sum += *e;
            }
            if sum > 0 {
                for (o, &e) in orow.iter_mut().zip(&exps) {
                    *o = ((e << FRAC_BITS) / sum) as i32;
                }
            }
        }
        IntTensor::from_vec(out, x.shape()).expect("sized")
    }

    pub(crate) fn i_layer_norm(
        x: &IntTensor,
        gamma: &Tensor,
        beta: &Tensor,
        out_scale: f32,
    ) -> IntTensor {
        let cols = *x.shape().last().expect("rank >= 1");
        assert_eq!(gamma.len(), cols, "gamma length mismatch");
        assert_eq!(beta.len(), cols, "beta length mismatch");
        let to_fx = |t: &Tensor| -> Vec<i64> {
            t.data()
                .iter()
                .map(|&p| ((p / out_scale) as f64 * ONE as f64).round() as i64)
                .collect()
        };
        let (g_fx, b_fx) = (to_fx(gamma), to_fx(beta));
        let max_abs = |fx: &[i64]| fx.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        let (g_max, b_max) = (max_abs(&g_fx), max_abs(&b_fx));
        let mut out = vec![0i32; x.len()];
        for (row, orow) in x.data().chunks(cols).zip(out.chunks_mut(cols)) {
            let v_max = row.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
            if row_fits_i64(v_max, cols, g_max, b_max) {
                layer_norm_row_i64(row, &g_fx, &b_fx, orow);
            } else {
                layer_norm_row_i128(row, &g_fx, &b_fx, orow);
            }
        }
        IntTensor::from_vec(out, x.shape()).expect("sized")
    }

    fn isqrt_u128(n: u128) -> u128 {
        if n < 2 {
            return n;
        }
        let mut x = 1u128 << ((128 - n.leading_zeros()) / 2 + 1);
        loop {
            let next = (x + n / x) / 2;
            if next >= x {
                return x;
            }
            x = next;
        }
    }

    fn isqrt_round_u128(n: u128) -> u128 {
        let r = isqrt_u128(n);
        if n - r * r > r {
            r + 1
        } else {
            r
        }
    }

    fn div_round(num: i128, den: i128) -> i128 {
        debug_assert!(den > 0);
        if num >= 0 {
            (num + den / 2) / den
        } else {
            -((-num + den / 2) / den)
        }
    }

    /// Whether [`layer_norm_row_i64`] is exact: every intermediate it forms
    /// stays within 2^62.
    pub(crate) fn row_fits_i64(v_max: u32, n: usize, g_max: u64, b_max: u64) -> bool {
        const LIMIT: u128 = 1 << 62;
        let d = 2 * v_max as u128 * n as u128;
        let scaled = d << FRAC_BITS;
        if scaled > LIMIT {
            return false;
        }
        let sum_d2 = d.saturating_mul(d).saturating_mul(n as u128);
        let product = g_max as u128 * (scaled + 1) + ONE as u128;
        let y = product / ONE as u128 + b_max as u128 + ONE as u128;
        sum_d2 <= LIMIT && product <= LIMIT && y <= LIMIT
    }

    pub(crate) fn layer_norm_row_i128(row: &[i32], g_fx: &[i64], b_fx: &[i64], out: &mut [i32]) {
        let n = row.len() as i128;
        let sum: i128 = row.iter().map(|&v| v as i128).sum();
        let sum_d2: u128 = row
            .iter()
            .map(|&v| {
                let d = v as i128 * n - sum;
                (d * d) as u128
            })
            .sum();
        let std_n = isqrt_round_u128((sum_d2 + (n as u128) / 2) / n as u128).max(1) as i128;
        for (c, &v) in row.iter().enumerate() {
            let centered = v as i128 * n - sum;
            let norm_fx = div_round(centered << FRAC_BITS, std_n);
            let y_fx = div_round(g_fx[c] as i128 * norm_fx, ONE as i128) + b_fx[c] as i128;
            out[c] = div_round(y_fx, ONE as i128) as i32;
        }
    }

    fn div_round_i64(num: i64, den: i64) -> i64 {
        debug_assert!(den > 0);
        if num >= 0 {
            (num + den / 2) / den
        } else {
            -((-num + den / 2) / den)
        }
    }

    pub(crate) fn layer_norm_row_i64(row: &[i32], g_fx: &[i64], b_fx: &[i64], out: &mut [i32]) {
        let n = row.len() as i64;
        let sum: i64 = row.iter().map(|&v| v as i64).sum();
        let sum_d2: u64 = row
            .iter()
            .map(|&v| {
                let d = v as i64 * n - sum;
                (d * d) as u64
            })
            .sum();
        let std_n = isqrt_round_u128(((sum_d2 + n as u64 / 2) / n as u64) as u128).max(1) as i64;
        for (c, &v) in row.iter().enumerate() {
            let centered = v as i64 * n - sum;
            let norm_fx = div_round_i64(centered << FRAC_BITS, std_n);
            let y_fx = div_round_i64(g_fx[c] * norm_fx, ONE) + b_fx[c];
            out[c] = div_round_i64(y_fx, ONE) as i32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{layer_norm_row_i128, layer_norm_row_i64, row_fits_i64};
    use super::*;
    use proptest::prelude::*;
    use quq_tensor::nn;

    /// `i_layer_norm` through the row body of every ISA the host supports,
    /// against the oracle, on the rows of one `[rows, n]` tensor.
    fn layer_norm_matches_oracle(codes: &[i32], n: usize, gamma: &Tensor, beta: &Tensor, s: f32) {
        let x = IntTensor::from_vec(codes.to_vec(), &[codes.len() / n, n]).unwrap();
        let want = oracle::i_layer_norm(&x, gamma, beta, s);
        let table = by_byte_codes(codes);
        for &isa in isa::supported() {
            let got: Vec<i32> = layer_norm_rows(isa, Codes::Ints(codes), n, gamma, beta, s);
            assert_eq!(got, want.data(), "{} n {n}", isa.name());
            if let Some((bytes, table)) = &table {
                let got: Vec<i32> =
                    layer_norm_rows(isa, Codes::Bytes(bytes, table), n, gamma, beta, s);
                assert_eq!(got, want.data(), "{} bytes n {n}", isa.name());
            }
        }
    }

    /// The same check for `i_softmax`.
    fn softmax_matches_oracle(codes: &[i32], n: usize, scale: f32) {
        let x = IntTensor::from_vec(codes.to_vec(), &[codes.len() / n, n]).unwrap();
        let want = oracle::i_softmax(&x, scale);
        let table = by_byte_codes(codes);
        for &isa in isa::supported() {
            let got: Vec<i32> = softmax_rows(isa, Codes::Ints(codes), n, scale);
            assert_eq!(got, want.data(), "{} n {n} scale {scale}", isa.name());
            if let Some((bytes, table)) = &table {
                let got: Vec<i32> = softmax_rows(isa, Codes::Bytes(bytes, table), n, scale);
                assert_eq!(got, want.data(), "{} bytes n {n}", isa.name());
            }
        }
    }

    /// The codes as bytes plus a decode table, when at most 256 distinct
    /// values occur — the form the integer backend feeds the bodies.
    fn by_byte_codes(codes: &[i32]) -> Option<(Vec<u8>, [i32; 256])> {
        let mut distinct: Vec<i32> = codes.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() > 256 {
            return None;
        }
        let mut table = [0i32; 256];
        table[..distinct.len()].copy_from_slice(&distinct);
        let bytes = codes
            .iter()
            .map(|v| distinct.binary_search(v).unwrap() as u8)
            .collect();
        Some((bytes, table))
    }

    fn params(n: usize, g: f32, b: f32) -> (Tensor, Tensor) {
        let vary = |p: f32| (0..n).map(|i| p * (1.0 + i as f32 / n as f32)).collect();
        (
            Tensor::from_vec(vary(g), &[n]).unwrap(),
            Tensor::from_vec(vary(b), &[n]).unwrap(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Inside the guard the 64-bit row path and the 128-bit one are the
        /// same function. Codes reach past the QUB range (2^14) up to 2^18,
        /// where wide rows start to fail the guard and are skipped; debug
        /// builds would also panic on any `i64` overflow the guard failed
        /// to rule out.
        #[test]
        fn layer_norm_i64_and_i128_rows_agree_inside_the_guard(
            raw in prop::collection::vec(-(1i32 << 14)..=(1 << 14), 1..600),
            shift in 0u32..=4,
            g in -40.0f64..40.0,
            b in -300.0f64..300.0,
        ) {
            let row: Vec<i32> = raw.iter().map(|&v| v << shift).collect();
            let n = row.len();
            let fx = |p: f64, i: usize| ((p * (1.0 + i as f64 / n as f64)) * ONE as f64).round() as i64;
            let g_fx: Vec<i64> = (0..n).map(|i| fx(g, i)).collect();
            let b_fx: Vec<i64> = (0..n).map(|i| fx(b, i)).collect();
            let max_abs = |fx: &[i64]| fx.iter().map(|v| v.unsigned_abs()).max().unwrap();
            let v_max = row.iter().map(|v| v.unsigned_abs()).max().unwrap();
            prop_assume!(row_fits_i64(v_max, n, max_abs(&g_fx), max_abs(&b_fx)));
            let (mut narrow, mut wide) = (vec![0i32; n], vec![0i32; n]);
            layer_norm_row_i64(&row, &g_fx, &b_fx, &mut narrow);
            layer_norm_row_i128(&row, &g_fx, &b_fx, &mut wide);
            prop_assert_eq!(narrow, wide);
        }

        /// The row body, on every ISA and from integers or bytes, is the
        /// oracle: QUB-range codes (±2^14) and shifted past it into the
        /// 128-bit fallback, row widths 1..600, one to three rows, and
        /// parameters from tiny to past the `f64` guard.
        #[test]
        fn layer_norm_rows_match_the_oracle(
            raw in prop::collection::vec(-(1i32 << 14)..=(1 << 14), 1..600),
            rows in 1usize..=3,
            shift in prop_oneof![3 => 0u32..=0, 1 => 1u32..=17],
            g in prop_oneof![3 => -40.0f32..40.0, 1 => -3.0e5f32..3.0e5],
            b in -300.0f32..300.0,
        ) {
            let n = raw.len().div_ceil(rows);
            let codes: Vec<i32> = raw.iter().cycle().take(n * rows).map(|&v| v << shift).collect();
            let (gamma, beta) = params(n, g, b);
            layer_norm_matches_oracle(&codes, n, &gamma, &beta, 0.05);
        }

        /// The softmax body, on every ISA and from integers or bytes, is the
        /// oracle over QUB-range codes, with scales from underflowing no
        /// element to underflowing every non-max one (`shift ≥ 31`) and to
        /// saturating `i_exp`'s `saturating_mul` (scale ≳ 2^15 / |q − max|).
        #[test]
        fn softmax_rows_match_the_oracle(
            raw in prop::collection::vec(-(1i32 << 14)..=(1 << 14), 1..600),
            rows in 1usize..=3,
            spread in 0u32..=14,
            scale in prop_oneof![
                1 => 1.0e-7f32..1.0e-3,
                2 => 1.0e-3f32..0.1,
                1 => 0.1f32..20.0,
                1 => 1.0e4f32..1.0e9,
            ],
        ) {
            let n = raw.len().div_ceil(rows);
            let codes: Vec<i32> = raw.iter().cycle().take(n * rows).map(|&v| v >> spread).collect();
            softmax_matches_oracle(&codes, n, scale);
        }
    }

    /// The widths the ViT forward uses, a 16-lane remainder on each side,
    /// and rows of one value.
    #[test]
    fn rows_at_vector_edges_match_the_oracle() {
        for n in [1usize, 15, 16, 17, 31, 33, 64, 65, 96, 97, 384] {
            let codes: Vec<i32> = (0..3 * n as i32)
                .map(|i| (i * 7919 % 2049) - 1024)
                .collect();
            let (gamma, beta) = params(n, 1.3, -0.4);
            layer_norm_matches_oracle(&codes, n, &gamma, &beta, 0.02);
            softmax_matches_oracle(&codes, n, 0.01);
            // Constant rows: the std clamps to 1, every exponent is 0.
            let flat = vec![-77; 2 * n];
            layer_norm_matches_oracle(&flat, n, &gamma, &beta, 0.02);
            softmax_matches_oracle(&flat, n, 0.01);
        }
    }

    /// Softmax exponents at the extremes: a scale so large every non-max
    /// element's `saturating_mul` saturates (and the product leaves 2^53),
    /// codes spanning the whole `i32` range, scale zero, and power-of-two
    /// scales, whose exponents are whole numbers that the floor must not
    /// round down.
    #[test]
    fn softmax_saturation_and_underflow_match_the_oracle() {
        let wide = [i32::MIN, -5, 0, 3, i32::MAX, i32::MAX, 7, -1 << 20];
        softmax_matches_oracle(&wide, 8, 1.0e-5);
        let qub = [-(1 << 14), -3, 0, 1, 2, 1 << 14, 1 << 14, 9];
        let near: Vec<i32> = (0..40).map(|i| -i).collect();
        for scale in [0.0, 1.0e-9, 0.25, 1.0, 2.0, 3.0, 1.0e4, 1.0e9] {
            softmax_matches_oracle(&qub, 8, scale);
            softmax_matches_oracle(&qub, 4, scale);
            softmax_matches_oracle(&near, 40, scale);
        }
    }

    /// `exp2_fx` is the old branchy `i_exp2` at every exponent it can see,
    /// and below.
    #[test]
    fn i_exp2_matches_the_oracle_exhaustively() {
        for x in -(33i64 << FRAC_BITS)..=0 {
            assert_eq!(i_exp2(x), oracle::i_exp2(x), "x {x}");
        }
        for x in [i64::MIN + 1, i64::MIN / 3, -(1 << 40)] {
            assert_eq!(i_exp2(x), oracle::i_exp2(x), "x {x}");
        }
    }

    /// The rows that press hardest on the guard: every code at ±max|v| for
    /// the largest max|v| the guard admits at that width, with the std
    /// clamped to 1 (a constant row) or at its maximum (alternating signs),
    /// and every parameter at its bound.
    #[test]
    fn layer_norm_i64_row_is_exact_at_the_guards_edge() {
        for n in [1usize, 2, 7, 64, 384, 1024, 4096] {
            for (g_max, b_max) in [(1u64 << 21, 1u64 << 24), (1 << 30, 1 << 40), (0, 0)] {
                let mut v_max = 0u32;
                for bit in (0..31).rev() {
                    if row_fits_i64(v_max | 1 << bit, n, g_max, b_max) {
                        v_max |= 1 << bit;
                    }
                }
                assert!(!row_fits_i64(v_max + 1, n, g_max, b_max));
                let v = v_max as i32;
                let rows: [Vec<i32>; 3] = [
                    vec![v; n],
                    (0..n).map(|i| if i % 2 == 0 { v } else { -v }).collect(),
                    (0..n).map(|i| if i == 0 { v } else { -v }).collect(),
                ];
                for sign in [1i64, -1] {
                    let g_fx = vec![sign * g_max as i64; n];
                    let b_fx = vec![sign * b_max as i64; n];
                    for row in &rows {
                        let (mut narrow, mut wide) = (vec![0i32; n], vec![0i32; n]);
                        layer_norm_row_i64(row, &g_fx, &b_fx, &mut narrow);
                        layer_norm_row_i128(row, &g_fx, &b_fx, &mut wide);
                        assert_eq!(narrow, wide, "n {n} v_max {v_max} g {g_max}");
                        // The parameters as `f32` at out_scale 1, so their
                        // fixed-point form is `g_max` up to `f32` rounding.
                        let p = |fx: u64| {
                            let v = (sign as f32) * fx as f32 / ONE as f32;
                            Tensor::from_vec(vec![v; n], &[n]).unwrap()
                        };
                        layer_norm_matches_oracle(row, n, &p(g_max), &p(b_max), 1.0);
                    }
                }
            }
        }
        // QUB-decoded activations (|v| ≤ 2^14) at ViT widths with the
        // backend's parameter range (|γ/out_scale| ≤ 32) take the fast path.
        assert!(row_fits_i64(1 << 14, 384, 32 << FRAC_BITS, 32 << FRAC_BITS));
        assert!(row_fits_i64(1 << 14, 768, 32 << FRAC_BITS, 32 << FRAC_BITS));
        assert!(row_fits_f64(1 << 14, 131_072) && !row_fits_f64(1 << 14, 131_073));
        let fx = vec![32 << FRAC_BITS; 768];
        assert!(params_fit_f64(&fx, &fx));
    }

    /// The edge of the `f64` guard itself: the widest rows and the largest
    /// parameters it admits, one past each, and parameters so far past it
    /// that `f64` lanes could not hold them, at maximal deviation.
    #[test]
    fn layer_norm_rows_are_exact_at_the_f64_guards_edge() {
        for n in [2usize, 3, 96, 1024] {
            let v_max = ((1u64 << 31) / n as u64) as i32;
            assert!(row_fits_f64(v_max as u32, n) && !row_fits_f64(v_max as u32 + 1, n));
            let g_fx = (1u128 << 51) / ((2 << FRAC_BITS) * ((n as u128).isqrt() + 1));
            let beyond = [
                (g_fx as f32, (1u64 << 50) as f32),
                (2.0 * g_fx as f32, 1.0),
                (1.0e6 * g_fx as f32, 1.0),
                // At n = 2 the rows are ±v, `norm_fx` is ±2^16 and `y_fx`
                // is 2^62 ± 98303, which `f64` would round to a tie.
                (98_303.0, (1u64 << 62) as f32),
            ];
            for (g, b) in beyond {
                let p = |v: f32| Tensor::from_vec(vec![v / ONE as f32; n], &[n]).unwrap();
                for v in [v_max, v_max + 1] {
                    let rows: Vec<i32> = (0..2 * n)
                        .map(|i| match (i / n, i % n) {
                            (0, 0) => v,
                            (0, _) => -v,
                            _ if i % 2 == 0 => v,
                            _ => -v,
                        })
                        .collect();
                    layer_norm_matches_oracle(&rows, n, &p(g), &p(b), 1.0);
                    layer_norm_matches_oracle(&rows, n, &p(-g), &p(-b), 1.0);
                }
            }
        }
    }

    #[test]
    fn zero_width_rows_give_empty_tensors() {
        let x = IntTensor::from_vec(vec![], &[3, 0]).unwrap();
        assert_eq!(i_softmax(&x, 0.1).shape(), &[3, 0]);
        let empty = Tensor::from_vec(vec![], &[0]).unwrap();
        assert_eq!(i_layer_norm(&x, &empty, &empty, 0.1).shape(), &[3, 0]);
    }

    #[test]
    fn i_exp2_matches_float() {
        for i in 0..2000 {
            let x = -(i as f64) * 0.01; // 0 .. −20
            let x_fx = (x * ONE as f64) as i64;
            let got = i_exp2(x_fx) as f64 / ONE as f64;
            let want = x.exp2();
            assert!(
                (got - want).abs() < 0.005 * want.max(1e-6) + 1e-4,
                "2^{x}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn i_exp_matches_float() {
        for i in 0..1500 {
            let x = -(i as f64) * 0.01;
            let x_fx = (x * ONE as f64) as i64;
            let got = i_exp(x_fx) as f64 / ONE as f64;
            let want = x.exp();
            assert!(
                (got - want).abs() < 0.01 * want.max(1e-6) + 1e-4,
                "e^{x}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn i_softmax_close_to_float_softmax() {
        let scale = 0.05f32;
        let codes: Vec<i32> = vec![-40, 0, 25, 60, -10, 80, 5, -3];
        let x = IntTensor::from_vec(codes.clone(), &[2, 4]).unwrap();
        let probs = i_softmax(&x, scale);
        let xf = x.to_f32(scale);
        let want = nn::softmax(&xf).unwrap();
        for (p, w) in probs.data().iter().zip(want.data()) {
            let got = *p as f32 / ONE as f32;
            assert!((got - w).abs() < 0.01, "{got} vs {w}");
        }
        // Rows sum to ≈ 1 in fixed point.
        for row in probs.data().chunks(4) {
            let s: i64 = row.iter().map(|&v| v as i64).sum();
            assert!((s - ONE).abs() < ONE / 100, "row sum {s}");
        }
    }

    #[test]
    fn i_sigmoid_matches_float() {
        for i in -600..600 {
            let z = i as f64 * 0.02;
            let got = i_sigmoid((z * ONE as f64) as i64) as f64 / ONE as f64;
            let want = 1.0 / (1.0 + (-z).exp());
            assert!((got - want).abs() < 0.01, "σ({z}): {got} vs {want}");
        }
    }

    #[test]
    fn i_gelu_close_to_float_gelu() {
        let scale = 0.02f32;
        let codes: Vec<i32> = (-200..200).collect();
        let x = IntTensor::from_vec(codes, &[400]).unwrap();
        let got = i_gelu(&x, scale).to_f32(scale);
        let want = x.to_f32(scale).map(nn::gelu);
        for (g, w) in got.data().iter().zip(want.data()) {
            // Budget: sigmoid-GELU approximation error (≤ ~0.02 in the
            // negative tail) + one output code of rounding (0.02).
            assert!((g - w).abs() < 0.045, "{g} vs {w}");
        }
    }

    #[test]
    fn i_layer_norm_close_to_float() {
        let scale = 0.01f32;
        let out_scale = 0.02f32;
        let codes: Vec<i32> = (0..64).map(|i| (i * i % 173) - 80).collect();
        let x = IntTensor::from_vec(codes, &[4, 16]).unwrap();
        let gamma =
            Tensor::from_vec((0..16).map(|i| 0.5 + 0.1 * i as f32).collect(), &[16]).unwrap();
        let beta =
            Tensor::from_vec((0..16).map(|i| -0.2 + 0.05 * i as f32).collect(), &[16]).unwrap();
        let got = i_layer_norm(&x, &gamma, &beta, out_scale).to_f32(out_scale);
        let want = nn::layer_norm(&x.to_f32(scale), &gamma, &beta, 1e-6).unwrap();
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 0.1 + 0.05 * w.abs(), "{g} vs {w}");
        }
    }

    /// Small-magnitude rows: with codes within ±n of the mean, the old
    /// truncating `(d/n)²` accumulation computed a *zero* variance (every
    /// per-element term floored to 0), so the std clamped to 1 instead of
    /// the true 0.5 here and every normalized value came out 2× too small.
    #[test]
    fn i_layer_norm_small_magnitude_rows_are_not_biased() {
        let out_scale = 0.02f32;
        let cols = 16;
        // Alternating 0/1 codes: mean 0.5, std exactly 0.5.
        let codes: Vec<i32> = (0..cols as i32).map(|i| i % 2).collect();
        let x = IntTensor::from_vec(codes, &[1, cols]).unwrap();
        let gamma = Tensor::from_vec(vec![1.0; cols], &[cols]).unwrap();
        let beta = Tensor::from_vec(vec![0.0; cols], &[cols]).unwrap();
        let got = i_layer_norm(&x, &gamma, &beta, out_scale).to_f32(out_scale);
        // True normalized values are ±1 (up to the float-LayerNorm eps).
        let want = nn::layer_norm(&x.to_f32(0.01), &gamma, &beta, 1e-6).unwrap();
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 0.1, "{g} vs {w}");
        }
    }

    /// Large codes × wide rows: the old `i64` accumulation of `(d/n)²`
    /// overflowed (4096 terms of ~2⁶⁰ each), panicking in debug builds and
    /// wrapping silently in release. The exact path must normalize such
    /// rows correctly.
    #[test]
    fn i_layer_norm_extreme_codes_do_not_overflow() {
        let out_scale = 0.05f32;
        let cols = 4096;
        let big = 1i32 << 30;
        let codes: Vec<i32> = (0..cols as i32)
            .map(|i| if i % 2 == 0 { big } else { -big })
            .collect();
        // Far outside the `f64` guard: this row takes the 128-bit path.
        assert!(!row_fits_f64(big as u32, cols));
        let x = IntTensor::from_vec(codes, &[1, cols]).unwrap();
        let gamma = Tensor::from_vec(vec![1.5; cols], &[cols]).unwrap();
        let beta = Tensor::from_vec(vec![0.25; cols], &[cols]).unwrap();
        let got = i_layer_norm(&x, &gamma, &beta, out_scale).to_f32(out_scale);
        // Normalized values are exactly ±1 → y = ±1.5 + 0.25.
        for (i, g) in got.data().iter().enumerate() {
            let want = if i % 2 == 0 { 1.75 } else { -1.25 };
            assert!((g - want).abs() < 0.1, "col {i}: {g} vs {want}");
        }
    }

    #[test]
    fn isqrt_round_minimizes_error() {
        for n in [
            0u128,
            1,
            2,
            3,
            4,
            5,
            6,
            7,
            8,
            9,
            10,
            24,
            25,
            30,
            31,
            99,
            10_000_000,
            (1 << 62) - 1,
            1 << 62,
            u64::MAX.into(),
            (1 << 104) + 12_345,
            (1 << 126) - 1,
        ] {
            let r = isqrt_round(n);
            let down = r.saturating_sub(1);
            let up = r + 1;
            let err = |x: u128| x.checked_mul(x).map_or(u128::MAX, |sq| sq.abs_diff(n));
            assert!(err(r) <= err(down) && err(r) <= err(up), "sqrt({n}) = {r}");
        }
    }

    #[test]
    fn div_round_rounds_to_nearest_both_signs() {
        assert_eq!(div_round(7, 2), 4);
        assert_eq!(div_round(-7, 2), -4);
        assert_eq!(div_round(6, 4), 2);
        assert_eq!(div_round(-6, 4), -2);
        assert_eq!(div_round(5, 4), 1);
        assert_eq!(div_round(-5, 4), -1);
        for (num, den) in [(7.0, 2.0), (-7.0, 2.0), (6.0, 4.0), (-5.0, 4.0), (0.0, 3.0)] {
            let half = (den / 2.0f64).floor();
            let want = div_round(num as i128, den as i128) as f64;
            assert_eq!(div_f64(num, den, 1.0 / den, half), want);
        }
    }

    #[test]
    fn i_softmax_handles_uniform_rows() {
        let x = IntTensor::from_vec(vec![5, 5, 5, 5], &[1, 4]).unwrap();
        let p = i_softmax(&x, 0.1);
        for &v in p.data() {
            assert!((v as i64 - ONE / 4).abs() <= ONE / 50);
        }
    }
}
