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
//! * [`i_sqrt`] — integer Newton square root (for LayerNorm);
//! * [`i_layer_norm`] — integer mean/variance normalization with affine
//!   parameters.
//!
//! All kernels take integer tensors plus a power-free scalar scale `S`
//! (value = q·S) that in hardware is carried as the `M/2^N` pair of Eq. 2;
//! here `S` is an `f32` used only to derive the fixed-point multiplier, as
//! an integer-only implementation would at compile time.

use quq_tensor::{IntTensor, Tensor};

/// Fixed-point fraction bits used by the integer kernels.
pub const FRAC_BITS: u32 = 16;
/// Fixed-point "one".
pub const ONE: i64 = 1 << FRAC_BITS;

/// log2(e) in fixed point.
fn log2e_fx() -> i64 {
    (std::f64::consts::LOG2_E * ONE as f64).round() as i64
}

/// `2^f` for `f ∈ [0, 1)` in fixed point, by the quadratic fit
/// `2^f ≈ 1 + 0.65617·f + 0.34383·f²` (exact at both endpoints, max error
/// < 0.3%).
fn exp2_frac_fx(f: i64) -> i64 {
    debug_assert!((0..ONE).contains(&f));
    const C1: i64 = (0.65617 * (1u64 << 16) as f64) as i64;
    const C2: i64 = (0.34383 * (1u64 << 16) as f64) as i64;
    let f2 = (f * f) >> FRAC_BITS;
    ONE + ((C1 * f + C2 * f2) >> FRAC_BITS)
}

/// Fixed-point `2^x` for `x ≤ 0` given in fixed point (`x_fx = x · 2^16`).
///
/// Returns `2^x` in fixed point; underflows to 0 below `2^-31`.
pub fn i_exp2(x_fx: i64) -> i64 {
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

/// Fixed-point `e^x` for `x ≤ 0`: `e^x = 2^{x·log2 e}`.
pub fn i_exp(x_fx: i64) -> i64 {
    debug_assert!(x_fx <= 0);
    let z = (x_fx.saturating_mul(log2e_fx())) >> FRAC_BITS;
    i_exp2(z)
}

/// Integer Newton square root: `⌊√n⌋` for `n ≥ 0`.
pub fn i_sqrt(n: i64) -> i64 {
    if n < 2 {
        return n.max(0);
    }
    let mut x = 1i64 << ((64 - n.leading_zeros() as i64) / 2 + 1);
    loop {
        let next = (x + n / x) / 2;
        if next >= x {
            return x;
        }
        x = next;
    }
}

/// `⌊√n⌋` over the full `u128` range (LayerNorm's exact squared-deviation
/// sums exceed `i64` for large codes × wide rows).
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

/// Round-to-nearest integer square root: the `r` minimizing `|r² − n|`.
fn isqrt_round_u128(n: u128) -> u128 {
    let r = isqrt_u128(n);
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
    let _span = quq_obs::span("sfu.softmax");
    assert_eq!(x.rank(), 2, "i_softmax expects a matrix");
    let cols = x.shape()[1];
    // Scale multiplier to fixed point, computed once (hardware: M/2^N).
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
/// times `n`), the squared-deviation sum `Σd²` is accumulated without
/// truncation and `n·std = √(Σd²/n)` is extracted with round-to-nearest
/// division and square root. An earlier version accumulated `(d/n)²` with
/// truncating division — biasing the std low for small-magnitude rows
/// (codes within `±n` of the mean contribute *zero*) — and could overflow
/// `i64` for large codes × wide rows.
///
/// Each row runs in 64-bit arithmetic when `row_fits_i64` proves that no
/// intermediate can leave ±2^62 — every row a QUB-decoded activation can
/// produce at ViT widths — and in 128-bit arithmetic otherwise. Both
/// compute the same exact integers, so the choice never changes a bit.
///
/// # Panics
///
/// Panics when shapes disagree.
pub fn i_layer_norm(x: &IntTensor, gamma: &Tensor, beta: &Tensor, out_scale: f32) -> IntTensor {
    let _span = quq_obs::span("sfu.layer_norm");
    let cols = *x.shape().last().expect("rank >= 1");
    assert_eq!(gamma.len(), cols, "gamma length mismatch");
    assert_eq!(beta.len(), cols, "beta length mismatch");
    // Fixed-point gamma/out_scale and beta/out_scale.
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

/// Whether [`layer_norm_row_i64`] is exact for a row of `n` codes with
/// `max|v| = v_max` under fixed-point parameters bounded by `g_max` and
/// `b_max`: every intermediate it forms is bounded here, in `u128`, and
/// must stay within 2^62 (which leaves the rounding terms their headroom
/// below 2^63).
fn row_fits_i64(v_max: u32, n: usize, g_max: u64, b_max: u64) -> bool {
    const LIMIT: u128 = 1 << 62;
    // |v·n − Σv| ≤ 2·max|v|·n, and |centered << 16| is that times 2^16. It
    // also bounds |norm_fx|, because n·std ≥ 1.
    let d = 2 * v_max as u128 * n as u128;
    let scaled = d << FRAC_BITS;
    if scaled > LIMIT {
        return false;
    }
    // Σd² ≤ n·d².
    let sum_d2 = d.saturating_mul(d).saturating_mul(n as u128);
    // |γ·norm_fx| and |y_fx| = |γ·norm_fx / 2^16 + β|, with their rounding
    // terms; `scaled ≤ 2^62` keeps these sums far inside `u128`.
    let product = g_max as u128 * (scaled + 1) + ONE as u128;
    let y = product / ONE as u128 + b_max as u128 + ONE as u128;
    sum_d2 <= LIMIT && product <= LIMIT && y <= LIMIT
}

/// One LayerNorm row in 128-bit arithmetic: exact for any `i32` codes and
/// any realistic row width (Σd² ≤ n·(2·2³¹·n)² fits `u128` through
/// n ≤ 2²⁰).
fn layer_norm_row_i128(row: &[i32], g_fx: &[i64], b_fx: &[i64], out: &mut [i32]) {
    // Integer mean and variance of the raw codes (scale cancels in the
    // normalized value). All deviations are carried scaled by n, so no
    // truncating division happens before the final normalization:
    // d = v·n − Σv = (v − mean)·n exactly.
    let n = row.len() as i128;
    let sum: i128 = row.iter().map(|&v| v as i128).sum();
    let sum_d2: u128 = row
        .iter()
        .map(|&v| {
            let d = v as i128 * n - sum;
            (d * d) as u128
        })
        .sum();
    // n·std = √(Σd²/n), round-to-nearest at both steps; the n× scaling
    // keeps integer-sqrt granularity error at the 1/n level instead of
    // one whole code.
    let std_n = isqrt_round_u128((sum_d2 + (n as u128) / 2) / n as u128).max(1) as i128;
    for (c, &v) in row.iter().enumerate() {
        let centered = v as i128 * n - sum; // (v − mean)·n
        let norm_fx = div_round(centered << FRAC_BITS, std_n); // centered / (n·std)
        let y_fx = div_round(g_fx[c] as i128 * norm_fx, ONE as i128) + b_fx[c] as i128;
        out[c] = div_round(y_fx, ONE as i128) as i32;
    }
}

/// [`div_round`] in 64 bits.
fn div_round_i64(num: i64, den: i64) -> i64 {
    debug_assert!(den > 0);
    if num >= 0 {
        (num + den / 2) / den
    } else {
        -((-num + den / 2) / den)
    }
}

/// [`layer_norm_row_i128`] in 64-bit arithmetic, statement for statement.
/// Only called under [`row_fits_i64`].
fn layer_norm_row_i64(row: &[i32], g_fx: &[i64], b_fx: &[i64], out: &mut [i32]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quq_tensor::nn;

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
                    }
                }
            }
        }
        // QUB-decoded activations (|v| ≤ 2^14) at ViT widths with the
        // backend's parameter range (|γ/out_scale| ≤ 32) take the fast path.
        assert!(row_fits_i64(1 << 14, 384, 32 << FRAC_BITS, 32 << FRAC_BITS));
        assert!(row_fits_i64(1 << 14, 768, 32 << FRAC_BITS, 32 << FRAC_BITS));
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
    fn i_sqrt_is_floor_sqrt() {
        for n in [
            0i64,
            1,
            2,
            3,
            4,
            15,
            16,
            17,
            99,
            100,
            1 << 20,
            (1 << 30) + 7,
        ] {
            let r = i_sqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "sqrt({n}) = {r}");
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
        // Far outside the 64-bit guard: this row stays on the 128-bit path.
        assert!(!row_fits_i64(big as u32, cols, 1 << 21, 1 << 21));
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
            0u128, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 24, 25, 30, 31, 99, 10_000_000,
        ] {
            let r = isqrt_round_u128(n);
            let down = r.saturating_sub(1);
            let up = r + 1;
            let err = |x: u128| (x * x).abs_diff(n);
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
