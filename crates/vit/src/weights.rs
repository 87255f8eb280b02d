//! Synthetic, distribution-matched model weights.
//!
//! Without pretrained checkpoints, weights are drawn from families chosen to
//! reproduce the distribution traits the paper's Fig. 3 documents and QUQ
//! exploits:
//!
//! * linear weights: Gaussian bulk at the usual `1/√fan_in` scale plus a small
//!   fraction of outlier weights and a few amplified output channels — the
//!   long-tailed "Query W" shape of Fig. 3a;
//! * LayerNorm gains: near 1 with rare large-magnitude channels, the known
//!   ViT trait that makes pre-addition activations long-tailed (Fig. 3c);
//! * biases and positional embeddings: small Gaussians.
//!
//! Everything is generated from a caller-supplied seed, so models are
//! reproducible and cheap to rebuild.
//!
//! This module also holds the model's one **tensor inventory**
//! ([`ModelWeights::inventory`]): every tensor's name, shape and, for a
//! linear weight, the [`OpSite`] that multiplies it, in wire order (patch,
//! CLS, positions, then per stage the 12 tensors of each block and the
//! merge, then the final norm and the head). Synthesis, the artifact store,
//! the parameter count and the serve registry's footprint all walk it.

use crate::backend::{OpKind, OpSite};
use crate::config::{Family, ModelConfig};
use quq_tensor::rng::{normal, OutlierMixture};
use quq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::convert::Infallible;

/// Weights of one transformer block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWeights {
    /// LayerNorm gain before attention, `[d]`.
    pub ln1_g: Tensor,
    /// LayerNorm bias before attention, `[d]`.
    pub ln1_b: Tensor,
    /// Fused QKV projection, `[3d, d]`.
    pub qkv_w: Tensor,
    /// QKV bias, `[3d]`.
    pub qkv_b: Tensor,
    /// Attention output projection, `[d, d]`.
    pub proj_w: Tensor,
    /// Projection bias, `[d]`.
    pub proj_b: Tensor,
    /// LayerNorm gain before the MLP, `[d]`.
    pub ln2_g: Tensor,
    /// LayerNorm bias before the MLP, `[d]`.
    pub ln2_b: Tensor,
    /// First MLP linear, `[h, d]`.
    pub fc1_w: Tensor,
    /// First MLP bias, `[h]`.
    pub fc1_b: Tensor,
    /// Second MLP linear, `[d, h]`.
    pub fc2_w: Tensor,
    /// Second MLP bias, `[d]`.
    pub fc2_b: Tensor,
    /// Embedding dimension of the block.
    pub embed_dim: usize,
    /// Attention heads of the block.
    pub num_heads: usize,
}

/// Weights of one hierarchical stage: its blocks plus the optional patch
/// merging projection into the next stage (`[d_next, 4d]`, bias `[d_next]`).
#[derive(Debug, Clone, PartialEq)]
pub struct StageWeights {
    /// Transformer blocks of the stage.
    pub blocks: Vec<BlockWeights>,
    /// Patch-merging projection into the following stage, if any.
    pub merge: Option<(Tensor, Tensor)>,
}

/// Complete weight set of a model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWeights {
    /// Patch embedding projection, `[d0, patch_dim]`.
    pub patch_w: Tensor,
    /// Patch embedding bias, `[d0]`.
    pub patch_b: Tensor,
    /// CLS token, `[d0]` (ViT/DeiT only).
    pub cls_token: Option<Tensor>,
    /// Positional embedding, `[seq_len, d0]`.
    pub pos_embed: Tensor,
    /// Per-stage weights.
    pub stages: Vec<StageWeights>,
    /// Final LayerNorm gain, `[d_last]`.
    pub final_g: Tensor,
    /// Final LayerNorm bias, `[d_last]`.
    pub final_b: Tensor,
    /// Classifier head, `[classes, d_last]`.
    pub head_w: Tensor,
    /// Classifier bias, `[classes]`.
    pub head_b: Tensor,
}

/// Draws a `[rows, cols]` weight matrix with long-tailed structure:
/// bulk `N(0, (gain/√cols)²)`, a `0.5%` outlier component at 6× the bulk
/// scale, and ~2% of rows (output channels) amplified 3×.
fn long_tailed_matrix(rng: &mut StdRng, rows: usize, cols: usize, gain: f32) -> Tensor {
    let bulk = gain / (cols as f32).sqrt();
    let mix = OutlierMixture::new(bulk, 6.0 * bulk, 0.005);
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        let row_gain = if rng.gen::<f32>() < 0.02 { 3.0 } else { 1.0 };
        for _ in 0..cols {
            data.push(row_gain * mix.sample(rng));
        }
    }
    Tensor::from_vec(data, &[rows, cols]).expect("sized to shape")
}

/// Draws a LayerNorm gain vector: `N(1, 0.2²)` bulk with ~1.5% outlier
/// channels of magnitude 3–8 (kept positive, as in real ViTs) — the
/// per-channel spread that makes residual-branch activations long-tailed
/// (Fig. 3c).
fn layernorm_gain(rng: &mut StdRng, n: usize) -> Tensor {
    let data = (0..n)
        .map(|_| {
            if rng.gen::<f32>() < 0.015 {
                3.0 + 5.0 * rng.gen::<f32>()
            } else {
                normal(rng, 1.0, 0.2).abs().max(0.05)
            }
        })
        .collect();
    Tensor::from_vec(data, &[n]).expect("sized")
}

/// The family synthesis draws a tensor from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Draw {
    /// A long-tailed weight matrix at `gain / √fan_in`.
    Matrix(f32),
    /// Small Gaussians `N(0, std²)`: biases and positional embeddings.
    Normal(f32),
    /// A LayerNorm gain with outlier channels.
    Gain,
}

/// One tensor of a model's inventory.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorSlot {
    /// Name, unique within the model: `patch_w`, `s0/b1/qkv_w`,
    /// `s0/merge_b`, `head_b`, ….
    pub name: String,
    /// Shape under the model's configuration.
    pub shape: Vec<usize>,
    /// For a linear weight, the site whose linear multiplies it.
    pub site: Option<OpSite>,
    draw: Draw,
}

impl TensorSlot {
    /// Element count of the slot's shape.
    pub(crate) fn elems(&self) -> usize {
        self.shape.iter().product()
    }

    /// Draws the slot's synthetic value.
    fn draw(&self, rng: &mut StdRng) -> Tensor {
        match self.draw {
            Draw::Matrix(gain) => long_tailed_matrix(rng, self.shape[0], self.shape[1], gain),
            Draw::Normal(std) => {
                let data = (0..self.elems()).map(|_| normal(rng, 0.0, std)).collect();
                Tensor::from_vec(data, &self.shape).expect("sized")
            }
            Draw::Gain => layernorm_gain(rng, self.shape[0]),
        }
    }
}

/// The tensors of one block of width `d` and MLP width `h`, in wire order:
/// name, shape, the kind of the linear that multiplies it, and its draw.
fn block_slots(d: usize, h: usize) -> [(&'static str, Vec<usize>, Option<OpKind>, Draw); 12] {
    use Draw::{Gain, Matrix, Normal};
    [
        ("ln1_g", vec![d], None, Gain),
        ("ln1_b", vec![d], None, Normal(0.1)),
        ("qkv_w", vec![3 * d, d], Some(OpKind::Qkv), Matrix(1.0)),
        ("qkv_b", vec![3 * d], None, Normal(0.02)),
        ("proj_w", vec![d, d], Some(OpKind::AttnProj), Matrix(1.0)),
        ("proj_b", vec![d], None, Normal(0.02)),
        ("ln2_g", vec![d], None, Gain),
        ("ln2_b", vec![d], None, Normal(0.1)),
        ("fc1_w", vec![h, d], Some(OpKind::Fc1), Matrix(1.0)),
        ("fc1_b", vec![h], None, Normal(0.05)),
        ("fc2_w", vec![d, h], Some(OpKind::Fc2), Matrix(1.0)),
        ("fc2_b", vec![d], None, Normal(0.02)),
    ]
}

impl ModelWeights {
    /// The tensor inventory of `config`, in wire order.
    pub fn inventory(config: &ModelConfig) -> Vec<TensorSlot> {
        use Draw::{Gain, Matrix, Normal};
        let mut slots = Vec::new();
        let mut push = |name: &str, shape: Vec<usize>, site: Option<OpSite>, draw: Draw| {
            slots.push(TensorSlot {
                name: name.to_string(),
                shape,
                site,
                draw,
            })
        };
        let (d0, seq) = (config.stages[0].embed_dim, config.seq_len());
        let patch = Some(OpSite::global(OpKind::PatchEmbed));
        push("patch_w", vec![d0, config.patch_dim()], patch, Matrix(1.0));
        push("patch_b", vec![d0], None, Normal(0.02));
        if matches!(config.family, Family::Vit | Family::Deit) {
            push("cls_token", vec![d0], None, Normal(0.5));
        }
        push("pos_embed", vec![seq, d0], None, Normal(0.15));
        let mut block = 0;
        for (si, stage) in config.stages.iter().enumerate() {
            let d = stage.embed_dim;
            for bi in 0..stage.depth {
                for (name, shape, kind, draw) in block_slots(d, d * config.mlp_ratio) {
                    let site = kind.map(|k| OpSite::in_block(block, k));
                    push(&format!("s{si}/b{bi}/{name}"), shape, site, draw);
                }
                block += 1;
            }
            if let Some(next) = config.stages.get(si + 1) {
                // The merge runs after the stage's last block, under its index.
                let site = Some(OpSite::in_block(block - 1, OpKind::PatchMerge));
                let dn = next.embed_dim;
                let merge_w = vec![dn, 4 * d];
                push(&format!("s{si}/merge_w"), merge_w, site, Matrix(1.0));
                push(&format!("s{si}/merge_b"), vec![dn], None, Normal(0.02));
            }
        }
        let d = config.stages.last().expect("stage").embed_dim;
        let (classes, head) = (config.num_classes, Some(OpSite::global(OpKind::Head)));
        push("final_g", vec![d], None, Gain);
        push("final_b", vec![d], None, Normal(0.1));
        push("head_w", vec![classes, d], head, Matrix(2.0));
        push("head_b", vec![classes], None, Normal(0.02));
        slots
    }

    /// Builds the weights of `config` from `load`, called once per
    /// inventory slot in wire order. `load` must return a tensor of the
    /// slot's shape.
    ///
    /// # Errors
    ///
    /// The first error `load` returns.
    ///
    /// # Panics
    ///
    /// Panics when `load` returns a tensor of another shape.
    pub fn build<E>(
        config: &ModelConfig,
        mut load: impl FnMut(&TensorSlot) -> Result<Tensor, E>,
    ) -> Result<Self, E> {
        let mut tensors = Vec::new();
        for slot in Self::inventory(config) {
            let t = load(&slot)?;
            assert_eq!(t.shape(), slot.shape, "tensor {}", slot.name);
            tensors.push(t);
        }
        // The fields take the tensors in inventory order, and `values`
        // reads them back in the same order.
        let mut tensors = tensors.into_iter();
        let mut next = || tensors.next().expect("one tensor per slot");
        let (patch_w, patch_b) = (next(), next());
        let cls_token = matches!(config.family, Family::Vit | Family::Deit).then(&mut next);
        let pos_embed = next();
        let mut stages = Vec::with_capacity(config.stages.len());
        for (si, stage) in config.stages.iter().enumerate() {
            let mut blocks = Vec::with_capacity(stage.depth);
            for _ in 0..stage.depth {
                blocks.push(BlockWeights {
                    ln1_g: next(),
                    ln1_b: next(),
                    qkv_w: next(),
                    qkv_b: next(),
                    proj_w: next(),
                    proj_b: next(),
                    ln2_g: next(),
                    ln2_b: next(),
                    fc1_w: next(),
                    fc1_b: next(),
                    fc2_w: next(),
                    fc2_b: next(),
                    embed_dim: stage.embed_dim,
                    num_heads: stage.num_heads,
                });
            }
            let merge = (si + 1 < config.stages.len()).then(|| (next(), next()));
            stages.push(StageWeights { blocks, merge });
        }
        Ok(Self {
            patch_w,
            patch_b,
            cls_token,
            pos_embed,
            stages,
            final_g: next(),
            final_b: next(),
            head_w: next(),
            head_b: next(),
        })
    }

    /// Every tensor, in the order [`ModelWeights::build`] fills them.
    fn values(&self) -> Vec<&Tensor> {
        let mut out = vec![&self.patch_w, &self.patch_b];
        out.extend(&self.cls_token);
        out.push(&self.pos_embed);
        for stage in &self.stages {
            for b in &stage.blocks {
                out.extend([
                    &b.ln1_g, &b.ln1_b, &b.qkv_w, &b.qkv_b, &b.proj_w, &b.proj_b, &b.ln2_g,
                    &b.ln2_b, &b.fc1_w, &b.fc1_b, &b.fc2_w, &b.fc2_b,
                ]);
            }
            if let Some((w, b)) = &stage.merge {
                out.extend([w, b]);
            }
        }
        out.extend([&self.final_g, &self.final_b, &self.head_w, &self.head_b]);
        out
    }

    /// Every tensor with its inventory slot, in wire order. `config` is
    /// the configuration the weights were built for.
    pub fn tensors(&self, config: &ModelConfig) -> impl Iterator<Item = (TensorSlot, &Tensor)> {
        let (slots, values) = (Self::inventory(config), self.values());
        debug_assert_eq!(slots.len(), values.len(), "weights of another config");
        slots.into_iter().zip(values)
    }

    /// The weight matrix the linear at `site` multiplies, or `None` when
    /// `site` is no linear of `config`.
    pub fn linear_weight(&self, config: &ModelConfig, site: OpSite) -> Option<&Tensor> {
        self.tensors(config)
            .find(|(slot, _)| slot.site == Some(site))
            .map(|(_, t)| t)
    }

    /// Generates a full weight set for `config` from `seed`, drawing the
    /// inventory's tensors in wire order from one RNG stream.
    pub fn synthesize(config: &ModelConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let drawn = Self::build(config, |slot| Ok::<_, Infallible>(slot.draw(&mut rng)));
        drawn.unwrap_or_else(|never| match never {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    #[test]
    fn synthesis_is_deterministic() {
        let c = ModelConfig::test_config();
        let a = ModelWeights::synthesize(&c, 7);
        let b = ModelWeights::synthesize(&c, 7);
        assert_eq!(a.patch_w, b.patch_w);
        assert_eq!(a.stages[0].blocks[0].fc1_w, b.stages[0].blocks[0].fc1_w);
        let c2 = ModelWeights::synthesize(&c, 8);
        assert_ne!(a.patch_w, c2.patch_w);
    }

    #[test]
    fn shapes_match_config() {
        let c = ModelConfig::test_config();
        let w = ModelWeights::synthesize(&c, 1);
        let d = c.stages[0].embed_dim;
        assert_eq!(w.patch_w.shape(), &[d, c.patch_dim()]);
        assert_eq!(w.pos_embed.shape(), &[c.seq_len(), d]);
        let blk = &w.stages[0].blocks[0];
        assert_eq!(blk.qkv_w.shape(), &[3 * d, d]);
        assert_eq!(blk.fc1_w.shape(), &[d * c.mlp_ratio, d]);
        assert_eq!(w.head_w.shape(), &[c.num_classes, d]);
        assert!(w.cls_token.is_some());
    }

    #[test]
    fn swin_has_merge_layers_and_no_cls() {
        let c = ModelConfig::test_swin_config();
        let w = ModelWeights::synthesize(&c, 1);
        assert!(w.cls_token.is_none());
        assert!(w.stages[0].merge.is_some());
        assert!(w.stages[1].merge.is_none());
        let (mw, _) = w.stages[0].merge.as_ref().unwrap();
        assert_eq!(
            mw.shape(),
            &[c.stages[1].embed_dim, 4 * c.stages[0].embed_dim]
        );
    }

    #[test]
    fn inventory_covers_swin_merges_and_skips_cls() {
        let names = |c: &ModelConfig| -> Vec<String> {
            ModelWeights::inventory(c)
                .into_iter()
                .map(|s| s.name)
                .collect()
        };
        let swin = names(&ModelConfig::test_swin_config());
        assert!(swin.contains(&"s0/merge_w".to_string()));
        assert!(!swin.iter().any(|n| n == "cls_token"));
        let vit = names(&ModelConfig::test_config());
        assert_eq!(&vit[..4], ["patch_w", "patch_b", "cls_token", "pos_embed"]);
        assert_eq!(vit[4], "s0/b0/ln1_g");
        assert_eq!(
            &vit[vit.len() - 4..],
            ["final_g", "final_b", "head_w", "head_b"]
        );
    }

    #[test]
    fn build_fills_the_fields_in_inventory_order() {
        for c in [ModelConfig::test_config(), ModelConfig::test_swin_config()] {
            let mut n = 0;
            let w = ModelWeights::build(&c, |slot| {
                n += 1;
                Ok::<_, ()>(Tensor::full(&slot.shape, n as f32))
            })
            .unwrap();
            let walked: Vec<f32> = w.tensors(&c).map(|(_, t)| t.data()[0]).collect();
            let want: Vec<f32> = (1..=n).map(|i| i as f32).collect();
            assert_eq!(walked, want);
            for (slot, t) in w.tensors(&c) {
                assert_eq!(t.shape(), slot.shape, "{}", slot.name);
            }
        }
    }

    #[test]
    fn linear_weight_finds_the_tensor_each_linear_multiplies() {
        let c = ModelConfig::test_swin_config();
        let w = ModelWeights::synthesize(&c, 2);
        let last0 = c.stages[0].depth - 1;
        let at = |site| w.linear_weight(&c, site);
        let blk = &w.stages[0].blocks[last0];
        assert_eq!(at(OpSite::in_block(last0, OpKind::Fc1)), Some(&blk.fc1_w));
        let merge = &w.stages[0].merge.as_ref().unwrap().0;
        assert_eq!(at(OpSite::in_block(last0, OpKind::PatchMerge)), Some(merge));
        let first1 = &w.stages[1].blocks[0];
        assert_eq!(
            at(OpSite::in_block(last0 + 1, OpKind::Qkv)),
            Some(&first1.qkv_w)
        );
        assert_eq!(at(OpSite::global(OpKind::Head)), Some(&w.head_w));
        assert_eq!(at(OpSite::global(OpKind::PatchEmbed)), Some(&w.patch_w));
        assert_eq!(at(OpSite::in_block(0, OpKind::Softmax)), None);
    }

    #[test]
    fn weights_are_long_tailed() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = long_tailed_matrix(&mut rng, 256, 256, 1.0);
        let bulk = 1.0 / 16.0; // 1/sqrt(256)
        let n_out = w.data().iter().filter(|&&x| x.abs() > 4.0 * bulk).count();
        // Outlier mixture + amplified rows: clearly more 4σ events than the
        // ~0.006% a pure Gaussian would give, but still a small minority.
        assert!(n_out > 64, "too few outliers: {n_out}");
        assert!(
            (n_out as f64) < 0.06 * w.len() as f64,
            "too many outliers: {n_out}"
        );
    }

    #[test]
    fn layernorm_gains_have_outlier_channels() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = layernorm_gain(&mut rng, 4096);
        let big = g.data().iter().filter(|&&x| x > 2.5).count();
        assert!(big > 10, "expected outlier gain channels, got {big}");
        assert!(g.data().iter().all(|&x| x > 0.0));
    }
}
