//! Special functions of the ViT data flow (paper Fig. 1, the "red"
//! components): Softmax, GELU, LayerNorm, plus `erf` used by exact GELU.

use crate::{Tensor, TensorError};

/// Error function via the Abramowitz–Stegun 7.1.26 rational approximation
/// (max absolute error ≈ 1.5e-7, ample for f32 inference).
pub fn erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f32 = 0.254_829_6;
    const A2: f32 = -0.284_496_74;
    const A3: f32 = 1.421_413_7;
    const A4: f32 = -1.453_152;
    const A5: f32 = 1.061_405_4;
    const P: f32 = 0.327_591_1;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - ((((A5 * t + A4) * t + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Exact GELU: `x · Φ(x)` with `Φ` the standard normal CDF.
///
/// This is the activation whose output the paper highlights as strongly
/// asymmetric (Fig. 3d): bounded below by ≈ −0.17, unbounded above.
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + erf(x / std::f32::consts::SQRT_2))
}

/// Applies [`gelu`] elementwise.
pub fn gelu_tensor(x: &Tensor) -> Tensor {
    x.map(gelu)
}

/// Numerically stable softmax over the last axis.
///
/// The output is the paper's "post-Softmax" activation: non-negative, heavily
/// concentrated near zero with a long tail toward one (Fig. 3b).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for rank-0 tensors.
pub fn softmax(x: &Tensor) -> crate::Result<Tensor> {
    if x.rank() == 0 {
        return Err(TensorError::RankMismatch {
            expected: 1,
            actual: 0,
        });
    }
    let last = *x.shape().last().expect("rank >= 1");
    let mut out = x.clone();
    if last == 0 {
        return Ok(out);
    }
    for row in out.data_mut().chunks_mut(last) {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    Ok(out)
}

/// Layer normalization over the last axis with affine parameters.
///
/// `y = (x − μ) / √(σ² + ε) · γ + β`, computed per row of the last axis.
///
/// # Errors
///
/// Returns a shape error when `gamma`/`beta` are not rank-1 vectors matching
/// the last axis.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> crate::Result<Tensor> {
    let last = layer_norm_width(x, gamma, beta)?;
    let mut out = x.clone();
    if last == 0 {
        return Ok(out);
    }
    let g = gamma.data();
    let b = beta.data();
    for row in out.data_mut().chunks_mut(last) {
        let mean = row.iter().sum::<f32>() / last as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / last as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (i, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) * inv * g[i] + b[i];
        }
    }
    Ok(out)
}

/// The width of the axis [`layer_norm`] normalizes — `x`'s last — after
/// checking that `gamma` and `beta` are vectors of that width.
///
/// # Errors
///
/// As for [`layer_norm`].
pub fn layer_norm_width(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> crate::Result<usize> {
    let last = *x
        .shape()
        .last()
        .ok_or_else(|| TensorError::InvalidArgument("layer_norm requires rank >= 1".to_string()))?;
    for p in [gamma, beta] {
        if p.rank() != 1 || p.len() != last {
            return Err(TensorError::ShapeMismatch {
                lhs: x.shape().to_vec(),
                rhs: p.shape().to_vec(),
            });
        }
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_8).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_8).abs() < 1e-5);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }

    #[test]
    fn gelu_fixed_points_and_asymmetry() {
        assert_eq!(gelu(0.0), 0.0);
        // GELU(x) → x for large positive x, → 0 for large negative x.
        assert!((gelu(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu(-10.0).abs() < 1e-4);
        // Global minimum ≈ −0.17 near x ≈ −0.7518: the bounded negative side.
        let min = (-200..0)
            .map(|i| gelu(i as f32 * 0.01))
            .fold(f32::INFINITY, f32::min);
        assert!(
            min > -0.18 && min < -0.16,
            "GELU min {min} outside expected band"
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = softmax(&x).unwrap();
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap();
        let s = softmax(&x).unwrap();
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!((s.data().iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        let g = Tensor::full(&[4], 1.0);
        let b = Tensor::zeros(&[4]);
        let y = layer_norm(&x, &g, &b, 1e-6).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        let var: f32 = y
            .data()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_applies_affine() {
        let x = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let g = Tensor::from_vec(vec![2.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 5.0], &[2]).unwrap();
        let y = layer_norm(&x, &g, &b, 1e-6).unwrap();
        // Normalized row is [-1, 1]; affine maps to [3, 7].
        assert!((y.data()[0] - 3.0).abs() < 1e-3);
        assert!((y.data()[1] - 7.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_rejects_bad_params() {
        let x = Tensor::zeros(&[2, 4]);
        let g = Tensor::zeros(&[3]);
        let b = Tensor::zeros(&[4]);
        assert!(layer_norm(&x, &g, &b, 1e-6).is_err());
    }
}
