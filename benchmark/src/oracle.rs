//! The correctness oracle: reference logits computed once in set-up by a
//! solo `forward` of each input image, and a bitwise comparison for every
//! reply, batch and cold start. One differing bit is a failed operation.

use quq_tensor::Tensor;
use quq_vit::{Backend, VitModel};

/// Whether two logit vectors are the same bit for bit (so `-0.0 != 0.0`
/// and a NaN equals only the same NaN).
pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Argmax by `total_cmp`, the rule the server's OK response uses.
pub fn top1(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// Reference logits per input image.
pub struct Oracle {
    logits: Vec<Vec<f32>>,
}

impl Oracle {
    /// Runs one solo forward per image on `backend`.
    pub fn compute<B: Backend>(model: &VitModel, images: &[Tensor], backend: &mut B) -> Oracle {
        let logits = images
            .iter()
            .map(|img| {
                model
                    .forward(img, backend)
                    .expect("reference forward")
                    .into_vec()
            })
            .collect();
        Oracle { logits }
    }

    /// Whether `got` is bit-identical to the reference for image `index`.
    pub fn matches(&self, index: usize, got: &[f32]) -> bool {
        bit_equal(&self.logits[index], got)
    }

    /// Share of images on which this oracle's top-1 equals `other`'s.
    pub fn top1_agree_frac(&self, other: &Oracle) -> f64 {
        let agree = self
            .logits
            .iter()
            .zip(&other.logits)
            .filter(|(a, b)| top1(a) == top1(b))
            .count();
        agree as f64 / self.logits.len().max(1) as f64
    }

    #[cfg(test)]
    pub fn from_logits(logits: Vec<Vec<f32>>) -> Oracle {
        Oracle { logits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_equal_sees_a_single_flipped_bit() {
        let a = [1.0f32, -2.5, 0.0];
        let mut b = a;
        assert!(bit_equal(&a, &b));
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert!(!bit_equal(&a, &b));
        assert!(!bit_equal(&[0.0], &[-0.0]));
        assert!(!bit_equal(&a, &a[..2]));
    }

    #[test]
    fn top1_agreement_counts_matching_argmax() {
        let a = Oracle::from_logits(vec![vec![0.1, 0.9], vec![0.8, 0.2], vec![0.3, 0.4]]);
        let b = Oracle::from_logits(vec![vec![0.0, 1.0], vec![0.1, 0.2], vec![0.0, 0.5]]);
        assert!((a.top1_agree_frac(&b) - 2.0 / 3.0).abs() < 1e-12);
    }
}
