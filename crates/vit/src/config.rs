//! Model configurations for the ViT / DeiT / Swin families.
//!
//! Two scales exist for every model:
//!
//! * [`ModelConfig::full_scale`] — the *published* hyperparameters (ViT-S has
//!   embed dim 384, depth 12, …). These drive the analytical experiments that
//!   never run a forward pass: the peak-memory simulation of the paper's
//!   Fig. 2 and the accelerator cost model of Table 4.
//! * [`ModelConfig::eval_scale`] — proportionally reduced dimensions used by
//!   the forward-pass accuracy experiments (Tables 2–3, Fig. 7), so that a
//!   pure-Rust scalar GEMM can evaluate six models × four methods in minutes.
//!   Ratios between models (S < B < L, tiny < small) are preserved, which is
//!   what the paper's cross-model trends rely on.

use std::fmt;

use crate::weights::{ModelWeights, TensorSlot};

/// The three architecture families evaluated by the paper (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Plain ViT (Dosovitskiy et al.): CLS token + global attention.
    Vit,
    /// DeiT (Touvron et al.): same inference-time architecture as ViT.
    Deit,
    /// Swin (Liu et al.): hierarchical stages with windowed attention.
    Swin,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Family::Vit => write!(f, "ViT"),
            Family::Deit => write!(f, "DeiT"),
            Family::Swin => write!(f, "Swin"),
        }
    }
}

/// The six models of the paper's Tables 2–3 plus a tiny test-only config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// ViT-Small.
    VitS,
    /// ViT-Large.
    VitL,
    /// DeiT-Small.
    DeitS,
    /// DeiT-Base.
    DeitB,
    /// Swin-Tiny.
    SwinT,
    /// Swin-Small.
    SwinS,
    /// Minimal config for unit tests (not part of the paper).
    Test,
}

impl ModelId {
    /// The six paper models, in the column order of Tables 2–3.
    pub const PAPER_MODELS: [ModelId; 6] = [
        ModelId::VitS,
        ModelId::VitL,
        ModelId::DeitS,
        ModelId::DeitB,
        ModelId::SwinT,
        ModelId::SwinS,
    ];
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModelId::VitS => "ViT-S",
            ModelId::VitL => "ViT-L",
            ModelId::DeitS => "DeiT-S",
            ModelId::DeitB => "DeiT-B",
            ModelId::SwinT => "Swin-T",
            ModelId::SwinS => "Swin-S",
            ModelId::Test => "Test",
        };
        write!(f, "{s}")
    }
}

/// One hierarchical stage of a Swin model (plain ViT has a single "stage").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageConfig {
    /// Number of transformer blocks in the stage.
    pub depth: usize,
    /// Embedding dimension inside the stage.
    pub embed_dim: usize,
    /// Attention heads inside the stage.
    pub num_heads: usize,
}

/// Full hyperparameter set of one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Which published model this configuration describes.
    pub id: ModelId,
    /// Architecture family.
    pub family: Family,
    /// Input image side length (square images).
    pub img_size: usize,
    /// Input channels.
    pub in_chans: usize,
    /// Patch side length.
    pub patch_size: usize,
    /// Stages; plain ViT/DeiT have exactly one.
    pub stages: Vec<StageConfig>,
    /// MLP hidden dim = `mlp_ratio` × embed dim.
    pub mlp_ratio: usize,
    /// Attention window side for Swin (`None` = global attention).
    pub window: Option<usize>,
    /// Classifier classes.
    pub num_classes: usize,
}

impl ModelConfig {
    /// Published hyperparameters for `id`.
    ///
    /// # Panics
    ///
    /// Never panics; `ModelId::Test` maps to the same tiny config as
    /// [`test_config`](Self::test_config).
    pub fn full_scale(id: ModelId) -> Self {
        let stage = |depth, embed_dim, num_heads| StageConfig {
            depth,
            embed_dim,
            num_heads,
        };
        match id {
            ModelId::VitS => Self {
                id,
                family: Family::Vit,
                img_size: 224,
                in_chans: 3,
                patch_size: 16,
                stages: vec![stage(12, 384, 6)],
                mlp_ratio: 4,
                window: None,
                num_classes: 1000,
            },
            ModelId::VitL => Self {
                id,
                family: Family::Vit,
                img_size: 224,
                in_chans: 3,
                patch_size: 16,
                stages: vec![stage(24, 1024, 16)],
                mlp_ratio: 4,
                window: None,
                num_classes: 1000,
            },
            ModelId::DeitS => Self {
                id,
                family: Family::Deit,
                img_size: 224,
                in_chans: 3,
                patch_size: 16,
                stages: vec![stage(12, 384, 6)],
                mlp_ratio: 4,
                window: None,
                num_classes: 1000,
            },
            ModelId::DeitB => Self {
                id,
                family: Family::Deit,
                img_size: 224,
                in_chans: 3,
                patch_size: 16,
                stages: vec![stage(12, 768, 12)],
                mlp_ratio: 4,
                window: None,
                num_classes: 1000,
            },
            ModelId::SwinT => Self {
                id,
                family: Family::Swin,
                img_size: 224,
                in_chans: 3,
                patch_size: 4,
                stages: vec![
                    stage(2, 96, 3),
                    stage(2, 192, 6),
                    stage(6, 384, 12),
                    stage(2, 768, 24),
                ],
                mlp_ratio: 4,
                window: Some(7),
                num_classes: 1000,
            },
            ModelId::SwinS => Self {
                id,
                family: Family::Swin,
                img_size: 224,
                in_chans: 3,
                patch_size: 4,
                stages: vec![
                    stage(2, 96, 3),
                    stage(2, 192, 6),
                    stage(18, 384, 12),
                    stage(2, 768, 24),
                ],
                mlp_ratio: 4,
                window: Some(7),
                num_classes: 1000,
            },
            ModelId::Test => Self::test_config(),
        }
    }

    /// Proportionally reduced configuration for forward-pass experiments.
    ///
    /// Token grids shrink to 8×8 (32 px, patch 4), embedding dims scale to a
    /// quarter of the published width (keeping head dims ≥ 16), depths halve
    /// (keeping ≥ 2 per stage), classes reduce to 100. Model-to-model ratios
    /// are preserved.
    pub fn eval_scale(id: ModelId) -> Self {
        let stage = |depth, embed_dim, num_heads| StageConfig {
            depth,
            embed_dim,
            num_heads,
        };
        match id {
            ModelId::VitS => Self {
                id,
                family: Family::Vit,
                img_size: 32,
                in_chans: 3,
                patch_size: 4,
                stages: vec![stage(6, 96, 3)],
                mlp_ratio: 4,
                window: None,
                num_classes: 100,
            },
            ModelId::VitL => Self {
                id,
                family: Family::Vit,
                img_size: 32,
                in_chans: 3,
                patch_size: 4,
                stages: vec![stage(12, 256, 8)],
                mlp_ratio: 4,
                window: None,
                num_classes: 100,
            },
            ModelId::DeitS => Self {
                id,
                family: Family::Deit,
                img_size: 32,
                in_chans: 3,
                patch_size: 4,
                stages: vec![stage(6, 96, 3)],
                mlp_ratio: 4,
                window: None,
                num_classes: 100,
            },
            ModelId::DeitB => Self {
                id,
                family: Family::Deit,
                img_size: 32,
                in_chans: 3,
                patch_size: 4,
                stages: vec![stage(6, 192, 6)],
                mlp_ratio: 4,
                window: None,
                num_classes: 100,
            },
            ModelId::SwinT => Self {
                id,
                family: Family::Swin,
                img_size: 32,
                in_chans: 3,
                patch_size: 2,
                stages: vec![stage(1, 48, 3), stage(1, 96, 6), stage(2, 192, 6)],
                mlp_ratio: 4,
                window: Some(4),
                num_classes: 100,
            },
            ModelId::SwinS => Self {
                id,
                family: Family::Swin,
                img_size: 32,
                in_chans: 3,
                patch_size: 2,
                stages: vec![stage(1, 48, 3), stage(2, 96, 6), stage(4, 192, 6)],
                mlp_ratio: 4,
                window: Some(4),
                num_classes: 100,
            },
            ModelId::Test => Self::test_config(),
        }
    }

    /// A minimal configuration for fast unit tests: 16-px images, two blocks.
    pub fn test_config() -> Self {
        Self {
            id: ModelId::Test,
            family: Family::Vit,
            img_size: 16,
            in_chans: 3,
            patch_size: 4,
            stages: vec![StageConfig {
                depth: 2,
                embed_dim: 32,
                num_heads: 2,
            }],
            mlp_ratio: 2,
            window: None,
            num_classes: 10,
        }
    }

    /// A minimal Swin configuration for fast unit tests.
    pub fn test_swin_config() -> Self {
        Self {
            id: ModelId::Test,
            family: Family::Swin,
            img_size: 16,
            in_chans: 3,
            patch_size: 2,
            stages: vec![
                StageConfig {
                    depth: 1,
                    embed_dim: 16,
                    num_heads: 2,
                },
                StageConfig {
                    depth: 1,
                    embed_dim: 32,
                    num_heads: 2,
                },
            ],
            mlp_ratio: 2,
            window: Some(4),
            num_classes: 10,
        }
    }

    /// Patch-grid side length at the model input (`img_size / patch_size`).
    pub fn grid(&self) -> usize {
        self.img_size / self.patch_size
    }

    /// Number of patch tokens at the input of stage `s` (grid shrinks 2× per
    /// Swin stage transition).
    pub fn tokens_at_stage(&self, s: usize) -> usize {
        let g = self.grid() >> s;
        g * g
    }

    /// Number of tokens the transformer blocks of stage 0 see, including the
    /// CLS token for ViT/DeiT.
    pub fn seq_len(&self) -> usize {
        let t = self.tokens_at_stage(0);
        match self.family {
            Family::Vit | Family::Deit => t + 1,
            Family::Swin => t,
        }
    }

    /// Flattened patch dimension (`in_chans × patch_size²`).
    pub fn patch_dim(&self) -> usize {
        self.in_chans * self.patch_size * self.patch_size
    }

    /// Total number of transformer blocks across all stages.
    pub fn total_depth(&self) -> usize {
        self.stages.iter().map(|s| s.depth).sum()
    }

    /// Total parameter count of the model (weights + biases + norms): the
    /// elements of its tensor inventory.
    pub fn param_count(&self) -> usize {
        ModelWeights::inventory(self)
            .iter()
            .map(TensorSlot::elems)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_vit_s_matches_published_shape() {
        let c = ModelConfig::full_scale(ModelId::VitS);
        assert_eq!(c.stages[0].embed_dim, 384);
        assert_eq!(c.stages[0].depth, 12);
        assert_eq!(c.seq_len(), 197); // 14×14 patches + CLS
        assert_eq!(c.patch_dim(), 768);
    }

    #[test]
    fn full_scale_param_counts_are_in_published_ballpark() {
        // ViT-S ≈ 22M, ViT-L ≈ 300M, DeiT-B ≈ 86M, Swin-T ≈ 28M.
        let m = |id| ModelConfig::full_scale(id).param_count() as f64 / 1e6;
        assert!(
            (20.0..25.0).contains(&m(ModelId::VitS)),
            "ViT-S {}M",
            m(ModelId::VitS)
        );
        assert!(
            (290.0..320.0).contains(&m(ModelId::VitL)),
            "ViT-L {}M",
            m(ModelId::VitL)
        );
        assert!(
            (82.0..90.0).contains(&m(ModelId::DeitB)),
            "DeiT-B {}M",
            m(ModelId::DeitB)
        );
        assert!(
            (25.0..32.0).contains(&m(ModelId::SwinT)),
            "Swin-T {}M",
            m(ModelId::SwinT)
        );
    }

    #[test]
    fn eval_scale_preserves_ordering() {
        let p = |id| ModelConfig::eval_scale(id).param_count();
        assert!(p(ModelId::VitS) < p(ModelId::DeitB));
        assert!(p(ModelId::DeitB) < p(ModelId::VitL));
        assert!(p(ModelId::SwinT) <= p(ModelId::SwinS));
    }

    #[test]
    fn swin_grid_shrinks_per_stage() {
        let c = ModelConfig::full_scale(ModelId::SwinT);
        assert_eq!(c.grid(), 56);
        assert_eq!(c.tokens_at_stage(0), 56 * 56);
        assert_eq!(c.tokens_at_stage(1), 28 * 28);
        assert_eq!(c.tokens_at_stage(3), 7 * 7);
    }

    #[test]
    fn eval_swin_windows_divide_grids() {
        for id in [ModelId::SwinT, ModelId::SwinS] {
            let c = ModelConfig::eval_scale(id);
            let w = c.window.expect("swin has windows");
            for s in 0..c.stages.len() {
                let g = c.grid() >> s;
                assert_eq!(
                    g % w.min(g),
                    0,
                    "{id}: stage {s} grid {g} not divisible by window"
                );
            }
        }
    }

    #[test]
    fn display_names_match_paper_columns() {
        assert_eq!(ModelId::VitS.to_string(), "ViT-S");
        assert_eq!(ModelId::SwinS.to_string(), "Swin-S");
        assert_eq!(Family::Deit.to_string(), "DeiT");
    }

    #[test]
    fn test_config_is_tiny() {
        let c = ModelConfig::test_config();
        assert!(c.param_count() < 100_000);
        assert_eq!(c.seq_len(), 17);
    }
}
