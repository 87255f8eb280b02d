//! Shared capture of the four Fig. 3 tensors from a real forward pass:
//! Query weights, post-Softmax activations, pre-addition activations, and
//! post-GELU activations.

use quq_tensor::Tensor;
use quq_vit::{
    Capture, Fp32Backend, ModelConfig, ModelId, OpKind, TapPoint, TapSide, Tapped, VitModel,
};

/// The four tensor families of the paper's Fig. 3 / Table 1.
#[derive(Debug, Clone)]
pub struct Fig3Tensors {
    /// Query projection weights (rows 0..d of block 0's fused QKV matrix).
    pub query_w: Vec<f32>,
    /// Post-Softmax attention probabilities.
    pub post_softmax: Vec<f32>,
    /// Pre-addition activations (the residual branch operand).
    pub pre_addition: Vec<f32>,
    /// Post-GELU activations.
    pub post_gelu: Vec<f32>,
}

impl Fig3Tensors {
    /// Named access in paper column order.
    pub fn columns(&self) -> [(&'static str, &[f32]); 4] {
        [
            ("Query W", &self.query_w),
            ("Post-Softmax A", &self.post_softmax),
            ("Pre-Addition A", &self.pre_addition),
            ("Post-GELU A", &self.post_gelu),
        ]
    }
}

/// Captures the four tensors from `images` forward passes of an eval-scale
/// ViT-S (the paper visualizes ViT).
///
/// # Panics
///
/// Panics if the forward pass fails (synthetic models never do).
pub fn capture_fig3(images: usize, seed: u64) -> Fig3Tensors {
    let model = VitModel::synthesize(ModelConfig::eval_scale(ModelId::VitS), seed);
    let d = model.config().stages[0].embed_dim;
    // Query weights: the first d rows of block 0's [3d, d] QKV matrix.
    let qkv = &model.weights().stages[0].blocks[0].qkv_w;
    let query_w: Vec<f32> = qkv.data()[..d * d].to_vec();

    let points = [
        TapPoint::output(OpKind::Softmax),
        TapPoint {
            kind: OpKind::Residual1,
            side: TapSide::InputB,
        },
        TapPoint {
            kind: OpKind::Residual2,
            side: TapSide::InputB,
        },
        TapPoint::output(OpKind::Gelu),
    ];
    let mut cap = Tapped::new(Fp32Backend::new(), Capture::new(points));
    let mut rng = rand::SeedableRng::seed_from_u64(seed ^ 0x5eed);
    for _ in 0..images.max(1) {
        let img = quq_vit::data::synthetic_image(model.config(), &mut rng);
        model.forward(&img, &mut cap).expect("synthetic forward");
    }
    let (_, cap) = cap.into_parts();
    let post_softmax = cap.samples_for(OpKind::Softmax, TapSide::Output);
    let mut pre_addition = cap.samples_for(OpKind::Residual1, TapSide::InputB);
    pre_addition.extend(cap.samples_for(OpKind::Residual2, TapSide::InputB));
    let post_gelu = cap.samples_for(OpKind::Gelu, TapSide::Output);
    Fig3Tensors {
        query_w,
        post_softmax,
        pre_addition,
        post_gelu,
    }
}

/// Subsamples a slice to at most `cap` evenly spaced values (keeps fitting
/// and MSE evaluation fast on one core).
pub fn thin(values: &[f32], cap: usize) -> Vec<f32> {
    if values.len() <= cap {
        return values.to_vec();
    }
    let stride = values.len() / cap;
    values.iter().copied().step_by(stride.max(1)).collect()
}

/// Reference tensor wrapper for metric helpers.
pub fn as_tensor(values: &[f32]) -> Tensor {
    Tensor::from_vec(values.to_vec(), &[values.len()]).expect("sized")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captured_tensors_have_expected_shapes_and_signs() {
        let f = capture_fig3(1, 3);
        assert!(!f.query_w.is_empty());
        // Softmax outputs are probabilities.
        assert!(f.post_softmax.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // GELU outputs are bounded below by ≈ −0.17.
        assert!(f.post_gelu.iter().all(|&x| x > -0.2));
        assert!(f.post_gelu.iter().any(|&x| x > 0.5), "GELU tail missing");
        // Pre-addition has both signs (residual branches are centered-ish).
        assert!(f.pre_addition.iter().any(|&x| x > 0.0));
        assert!(f.pre_addition.iter().any(|&x| x < 0.0));
    }

    #[test]
    fn thin_preserves_small_inputs() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(thin(&v, 10), v);
        let big: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let t = thin(&big, 100);
        assert!(t.len() <= 101 && t.len() >= 90);
    }
}
