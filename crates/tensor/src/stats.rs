//! Order statistics, histograms and error metrics.
//!
//! The progressive relaxation algorithm (paper Algorithm 2) is driven by
//! `Max` and `Quantile` of calibration tensors; the evaluation harness uses
//! MSE (Table 1) and cosine similarity (Fig. 7 attention fidelity).

use crate::{Tensor, TensorError};

/// The `q`-th quantile (0 ≤ q ≤ 1) of a sample, by linear interpolation
/// between closest ranks (the "linear" method of NumPy).
///
/// Non-finite samples (NaN, ±∞) are excluded before ranking: a NaN would
/// otherwise land at an arbitrary sort position (`partial_cmp` returns
/// `None`) and silently corrupt the PRA quantile sweep that feeds
/// calibration. The number of excluded samples is reported on the
/// `stats.nonfinite_dropped` counter when the metrics recorder is enabled.
///
/// Returns `None` for a sample with no finite values or a `q` outside
/// `[0, 1]`.
pub fn quantile(values: &[f32], q: f32) -> Option<f32> {
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return None;
    }
    let mut sorted: Vec<f32> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let dropped = values.len() - sorted.len();
    if dropped > 0 {
        quq_obs::add("stats.nonfinite_dropped", dropped as u64);
    }
    sorted.sort_by(f32::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The `q`-th quantile of a sample already sorted ascending and free of
/// non-finite values, with [`quantile`]'s interpolation — for callers that
/// read many quantiles of one sample and sort it once.
///
/// Returns `None` for an empty sample or a `q` outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f32], q: f32) -> Option<f32> {
    if !(0.0..=1.0).contains(&q) || q.is_nan() || sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.is_sorted_by(|a, b| a.total_cmp(b).is_le()));
    let pos = q as f64 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = (pos - lo as f64) as f32;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Mean squared error between two equally shaped tensors (paper Table 1).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
pub fn mse(a: &Tensor, b: &Tensor) -> crate::Result<f64> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    if a.is_empty() {
        return Ok(0.0);
    }
    let sum: f64 = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum();
    Ok(sum / a.len() as f64)
}

/// Cosine similarity between two equally shaped tensors, in `[-1, 1]`.
///
/// Returns 1 when both tensors are all-zero, 0 when exactly one is.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
pub fn cosine_similarity(a: &Tensor, b: &Tensor) -> crate::Result<f64> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.data().iter().zip(b.data()) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 && nb == 0.0 {
        return Ok(1.0);
    }
    if na == 0.0 || nb == 0.0 {
        return Ok(0.0);
    }
    Ok(dot / (na.sqrt() * nb.sqrt()))
}

/// A fixed-bin histogram over a closed interval, used to render the Fig. 3
/// distribution plots as text.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f32,
    hi: f32,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram of `values` with `bins` equal-width bins spanning
    /// `[lo, hi]`. Values outside the interval are clamped into the edge bins.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when `bins == 0` or
    /// `lo >= hi`.
    pub fn new(values: &[f32], lo: f32, hi: f32, bins: usize) -> crate::Result<Self> {
        if bins == 0 {
            return Err(TensorError::InvalidArgument(
                "histogram needs at least one bin".to_string(),
            ));
        }
        // `partial_cmp` (not `lo >= hi`) so that NaN bounds are rejected too.
        if !matches!(lo.partial_cmp(&hi), Some(std::cmp::Ordering::Less)) {
            return Err(TensorError::InvalidArgument(format!(
                "invalid histogram range [{lo}, {hi}]"
            )));
        }
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f32;
        for &v in values {
            let idx = (((v - lo) / width) as isize).clamp(0, bins as isize - 1) as usize;
            counts[idx] += 1;
        }
        Ok(Self {
            lo,
            hi,
            counts,
            total: values.len() as u64,
        })
    }

    /// Lower edge of the range.
    pub fn lo(&self) -> f32 {
        self.lo
    }

    /// Upper edge of the range.
    pub fn hi(&self) -> f32 {
        self.hi
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f32 {
        assert!(i < self.counts.len());
        let width = (self.hi - self.lo) / self.counts.len() as f32;
        self.lo + width * (i as f32 + 0.5)
    }

    /// Renders a compact vertical-bar ASCII sketch of the distribution,
    /// `rows` characters tall, on a log-count scale (long-tailed data is
    /// invisible on a linear scale).
    pub fn render_ascii(&self, rows: usize) -> String {
        let max_log = self
            .counts
            .iter()
            .map(|&c| if c > 0 { ((c + 1) as f64).ln() } else { 0.0 })
            .fold(0.0f64, f64::max);
        let mut out = String::new();
        for r in (0..rows).rev() {
            let threshold = max_log * (r as f64 + 0.5) / rows as f64;
            for &c in &self.counts {
                let h = if c > 0 { ((c + 1) as f64).ln() } else { 0.0 };
                out.push(if h >= threshold && c > 0 { '█' } else { ' ' });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_median_of_odd_sample() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&v, 0.5), Some(2.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(3.0));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(quantile(&v, 0.25), Some(2.5));
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 2.0), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
        assert_eq!(quantile(&[5.0], 0.73), Some(5.0));
    }

    /// NaN-poisoned samples must rank as if the NaNs were absent: pre-fix,
    /// `partial_cmp(..).unwrap_or(Equal)` left NaNs at arbitrary positions,
    /// shifting every rank (the median below came out as 2.0 or NaN
    /// depending on input order).
    #[test]
    fn quantile_ignores_nonfinite_samples() {
        let clean = [1.0, 2.0, 3.0, 4.0, 5.0];
        let poisoned = [f32::NAN, 1.0, 2.0, f32::NAN, 3.0, 4.0, 5.0, f32::NAN];
        assert_eq!(quantile(&poisoned, 0.5), quantile(&clean, 0.5));
        assert_eq!(quantile(&poisoned, 0.5), Some(3.0));
        // Infinities are dropped too — PRA deltas must stay finite.
        let inf = [f32::NEG_INFINITY, 1.0, 3.0, f32::INFINITY];
        assert_eq!(quantile(&inf, 1.0), Some(3.0));
        assert_eq!(quantile(&inf, 0.0), Some(1.0));
        // All-non-finite behaves like an empty sample.
        assert_eq!(quantile(&[f32::NAN, f32::INFINITY], 0.5), None);
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        assert_eq!(mse(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let a = Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert!((mse(&a, &b).unwrap() - 12.5).abs() < 1e-9);
        let c = Tensor::zeros(&[3]);
        assert!(mse(&a, &c).is_err());
    }

    #[test]
    fn cosine_similarity_basics() {
        let a = Tensor::from_vec(vec![1.0, 0.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 1.0], &[2]).unwrap();
        assert!((cosine_similarity(&a, &a).unwrap() - 1.0).abs() < 1e-9);
        assert!(cosine_similarity(&a, &b).unwrap().abs() < 1e-9);
        let z = Tensor::zeros(&[2]);
        assert_eq!(cosine_similarity(&z, &z).unwrap(), 1.0);
        assert_eq!(cosine_similarity(&a, &z).unwrap(), 0.0);
    }

    #[test]
    fn histogram_counts_and_clamping() {
        let h = Histogram::new(&[-10.0, 0.1, 0.9, 10.0], 0.0, 1.0, 2).unwrap();
        assert_eq!(h.counts(), &[2, 2]); // -10 clamps into bin 0, 10 into bin 1
        assert_eq!(h.total(), 4);
        assert!((h.bin_center(0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn histogram_rejects_bad_args() {
        assert!(Histogram::new(&[1.0], 0.0, 1.0, 0).is_err());
        assert!(Histogram::new(&[1.0], 1.0, 1.0, 4).is_err());
    }

    #[test]
    fn ascii_render_has_expected_rows() {
        let h = Histogram::new(&[0.1, 0.1, 0.9], 0.0, 1.0, 4).unwrap();
        let s = h.render_ascii(3);
        assert_eq!(s.lines().count(), 3);
    }
}
