//! Vision-transformer forward pass, written once against [`Backend`].
//!
//! Supports the plain ViT/DeiT architecture (CLS token, global attention) and
//! the hierarchical Swin architecture (windowed attention with alternating
//! cyclic shifts, patch merging between stages). The data flow matches the
//! paper's Fig. 1 per block:
//!
//! ```text
//! x ── LayerNorm ── QKV ── Q·Kᵀ ── Softmax ── P·V ── Proj ──(+)── x'
//! x' ─ LayerNorm ── FC1 ── GELU ── FC2 ──(+)── out
//! ```
//!
//! Note on Swin fidelity: shifted windows are realized by cyclic rolls of the
//! token grid; the attention mask real Swin applies at rolled boundaries is
//! omitted. The compute structure and tensor statistics — what the QUQ
//! experiments depend on — are unchanged (documented in DESIGN.md §2).

use crate::backend::{Backend, OpKind, OpSite, Result};
use crate::config::{Family, ModelConfig};
use crate::weights::{BlockWeights, ModelWeights};
use quq_tensor::Tensor;
use std::ops::Range;

/// Copies the block `rows × cols` of a rank-2 tensor into a new tensor.
fn slice_block(t: &Tensor, rows: Range<usize>, cols: Range<usize>) -> Tensor {
    let width = t.shape()[1];
    debug_assert!(rows.end <= t.shape()[0] && cols.end <= width && cols.start < cols.end);
    let mut data = Vec::with_capacity(rows.len() * cols.len());
    for r in rows.clone() {
        data.extend_from_slice(&t.data()[r * width + cols.start..r * width + cols.end]);
    }
    Tensor::from_vec(data, &[rows.len(), cols.len()]).expect("sized")
}

/// Writes `src` into `dst` with its top-left element at `(row, col)`.
fn write_block(dst: &mut Tensor, src: &Tensor, row: usize, col: usize) {
    let (width, cols) = (dst.shape()[1], src.shape()[1]);
    debug_assert!(row + src.shape()[0] <= dst.shape()[0] && col + cols <= width);
    for (r, s) in src.data().chunks_exact(cols).enumerate() {
        let at = (row + r) * width + col;
        dst.data_mut()[at..at + cols].copy_from_slice(s);
    }
}

/// Gathers the given rows of a rank-2 tensor into a new tensor.
fn gather_rows(t: &Tensor, rows: &[usize]) -> Tensor {
    let cols = t.shape()[1];
    let mut data = Vec::with_capacity(rows.len() * cols);
    for &r in rows {
        data.extend_from_slice(&t.data()[r * cols..(r + 1) * cols]);
    }
    Tensor::from_vec(data, &[rows.len(), cols]).expect("sized")
}

/// Scatters `src` rows back into `dst` at the given row indices.
fn scatter_rows(dst: &mut Tensor, src: &Tensor, rows: &[usize]) {
    let cols = dst.shape()[1];
    for (i, &r) in rows.iter().enumerate() {
        let s = &src.data()[i * cols..(i + 1) * cols];
        dst.data_mut()[r * cols..(r + 1) * cols].copy_from_slice(s);
    }
}

/// Concatenates rank-2 tensors along rows: `[(Σ rows_i), cols]`.
fn concat_rows(parts: &[Tensor]) -> Tensor {
    debug_assert!(!parts.is_empty());
    let cols = parts[0].shape()[1];
    let rows: usize = parts.iter().map(|p| p.shape()[0]).sum();
    let mut data = Vec::with_capacity(rows * cols);
    for p in parts {
        debug_assert_eq!(p.shape()[1], cols, "column mismatch in row concat");
        data.extend_from_slice(p.data());
    }
    Tensor::from_vec(data, &[rows, cols]).expect("sized")
}

/// Repeats a rank-2 tensor's rows `times` times: `[times·rows, cols]`.
fn tile_rows(t: &Tensor, times: usize) -> Tensor {
    let (rows, cols) = (t.shape()[0], t.shape()[1]);
    let mut data = Vec::with_capacity(times * rows * cols);
    for _ in 0..times {
        data.extend_from_slice(t.data());
    }
    Tensor::from_vec(data, &[times * rows, cols]).expect("sized")
}

/// A synthesized vision transformer: configuration plus weights.
///
/// ```
/// use quq_vit::{VitModel, ModelConfig, Fp32Backend};
///
/// let model = VitModel::synthesize(ModelConfig::test_config(), 42);
/// let image = model.config().dummy_image(0.5);
/// let logits = model.forward(&image, &mut Fp32Backend::new())?;
/// assert_eq!(logits.len(), model.config().num_classes);
/// # Ok::<(), quq_vit::BackendError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VitModel {
    config: ModelConfig,
    weights: ModelWeights,
}

impl ModelConfig {
    /// Builds a constant-valued image of this model's input shape
    /// (`[in_chans, img, img]`) — handy for examples and tests.
    pub fn dummy_image(&self, value: f32) -> Tensor {
        Tensor::full(&[self.in_chans, self.img_size, self.img_size], value)
    }
}

/// Attention probabilities captured by [`VitModel::forward_with_attention`]:
/// one `[tokens, tokens]` head-averaged matrix per block (global-attention
/// models only).
pub type AttentionMaps = Vec<Tensor>;

impl VitModel {
    /// Generates a model with synthetic weights from `seed`.
    pub fn synthesize(config: ModelConfig, seed: u64) -> Self {
        let weights = ModelWeights::synthesize(&config, seed);
        Self { config, weights }
    }

    /// Builds a model from explicit weights.
    pub fn from_weights(config: ModelConfig, weights: ModelWeights) -> Self {
        Self { config, weights }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The model's weights.
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Converts an image `[C, H, W]` to patch tokens `[n_patches, patch_dim]`
    /// in row-major grid order (flattened per patch as `c, py, px`).
    ///
    /// # Panics
    ///
    /// Panics when the image shape does not match the configuration.
    pub fn patchify(&self, image: &Tensor) -> Tensor {
        let c = self.config.in_chans;
        let s = self.config.img_size;
        let p = self.config.patch_size;
        assert_eq!(image.shape(), &[c, s, s], "image shape mismatch");
        let g = self.config.grid();
        let mut data = Vec::with_capacity(g * g * self.config.patch_dim());
        for gy in 0..g {
            for gx in 0..g {
                for ch in 0..c {
                    for py in 0..p {
                        for px in 0..p {
                            data.push(image.at(&[ch, gy * p + py, gx * p + px]));
                        }
                    }
                }
            }
        }
        Tensor::from_vec(data, &[g * g, self.config.patch_dim()]).expect("sized")
    }

    /// Runs inference on one image, returning logits `[num_classes]`.
    ///
    /// Implemented as [`VitModel::forward_batch`] with a batch of one; the
    /// kernels are row-independent, so the result is bit-identical to any
    /// larger batch containing the same image.
    ///
    /// # Errors
    ///
    /// Propagates backend errors (shape errors, missing quantization
    /// parameters, …).
    pub fn forward<B: Backend>(&self, image: &Tensor, be: &mut B) -> Result<Tensor> {
        let mut logits = self.forward_batch_inner(std::slice::from_ref(image), be, None)?;
        Ok(logits.pop().expect("batch of one"))
    }

    /// Runs inference on a batch of images, returning one logits tensor
    /// `[num_classes]` per image, in order.
    ///
    /// All images are stacked into one `(B·tokens) × dim` activation so
    /// every linear / LayerNorm / GELU / residual runs as a single large
    /// call — one GEMM per site per *batch* instead of per image, which is
    /// what amortizes weight decode and panel streaming in the serving
    /// path. Attention stays per image (tokens of one image never attend
    /// across the batch). Because every kernel in the stack computes each
    /// output row from its own input row with a fixed accumulation order,
    /// the per-image results are **bit-identical to B separate
    /// [`VitModel::forward`] calls at every batch size and thread count**
    /// (asserted by the proptest suite and the serving smoke test).
    ///
    /// # Errors
    ///
    /// Propagates backend errors. All images must share the model's input
    /// shape ([`VitModel::patchify`] panics otherwise, as for `forward`).
    pub fn forward_batch<B: Backend>(&self, images: &[Tensor], be: &mut B) -> Result<Vec<Tensor>> {
        self.forward_batch_inner(images, be, None)
    }

    /// Runs inference and additionally captures head-averaged attention
    /// probabilities per block (paper Fig. 7 needs these).
    ///
    /// # Errors
    ///
    /// Propagates backend errors. Swin models return an empty map list
    /// (the paper visualizes ViT-S only).
    pub fn forward_with_attention<B: Backend>(
        &self,
        image: &Tensor,
        be: &mut B,
    ) -> Result<(Tensor, AttentionMaps)> {
        let mut maps = AttentionMaps::new();
        let mut logits =
            self.forward_batch_inner(std::slice::from_ref(image), be, Some(&mut maps))?;
        Ok((logits.pop().expect("batch of one"), maps))
    }

    fn forward_batch_inner<B: Backend>(
        &self,
        images: &[Tensor],
        be: &mut B,
        mut attn_out: Option<&mut AttentionMaps>,
    ) -> Result<Vec<Tensor>> {
        if images.is_empty() {
            return Ok(Vec::new());
        }
        debug_assert!(
            attn_out.is_none() || images.len() == 1,
            "attention capture is single-image"
        );
        let _span = quq_obs::span("model.forward");
        quq_obs::record("model.batch_size", images.len() as u64);
        let cfg = &self.config;
        let w = &self.weights;
        let batch = images.len();
        let per_image: Vec<Tensor> = images.iter().map(|img| self.patchify(img)).collect();
        let n_patches = per_image[0].shape()[0];
        // Tell the packed GEMM how tall one image's slice of the stacked
        // activation is: at B>1 it enlarges its parallel row grain toward
        // whole-image chunks so each decoded weight panel streams over an
        // image instead of being re-fetched every few rows. Purely a
        // blocking hint — bit-identical either way.
        let image_rows = n_patches + usize::from(w.cls_token.is_some());
        let _batch_grain = (batch > 1).then(|| quq_tensor::linalg::batch_rows_hint(image_rows));
        let patches = concat_rows(&per_image);
        let body = be.linear(
            OpSite::global(OpKind::PatchEmbed),
            &patches,
            &w.patch_w,
            Some(&w.patch_b),
        )?;

        // Prepend the CLS token (ViT/DeiT) per image and add the positional
        // embedding to every image's token block.
        let mut x = match &w.cls_token {
            Some(cls) => {
                let d = cls.len();
                let n = n_patches + 1;
                let mut data = Vec::with_capacity(batch * n * d);
                for b in 0..batch {
                    data.extend_from_slice(cls.data());
                    data.extend_from_slice(
                        &body.data()[b * n_patches * d..(b + 1) * n_patches * d],
                    );
                }
                Tensor::from_vec(data, &[batch * n, d])
                    .map_err(crate::backend::BackendError::from)?
            }
            None => body,
        };
        x = x
            .add(&tile_rows(&w.pos_embed, batch))
            .map_err(crate::backend::BackendError::from)?;

        let mut grid = cfg.grid();
        let mut block_idx = 0usize;
        for stage in &w.stages {
            for (bi, blk) in stage.blocks.iter().enumerate() {
                let shift = cfg.window.is_some() && bi % 2 == 1;
                x = self.block_forward(
                    be,
                    block_idx,
                    blk,
                    &x,
                    batch,
                    grid,
                    shift,
                    attn_out.as_deref_mut(),
                )?;
                block_idx += 1;
            }
            if let Some((mw, mb)) = &stage.merge {
                x = self.patch_merge(be, block_idx - 1, &x, batch, grid, mw, mb)?;
                grid /= 2;
            }
        }

        let x = be.layer_norm(
            OpSite::global(OpKind::FinalNorm),
            &x,
            &w.final_g,
            &w.final_b,
        )?;
        let tokens = x.shape()[0] / batch;
        let cols = x.shape()[1];
        let pooled = match cfg.family {
            Family::Vit | Family::Deit => {
                let rows: Vec<usize> = (0..batch).map(|b| b * tokens).collect();
                gather_rows(&x, &rows)
            }
            Family::Swin => {
                // Global average pool over each image's tokens.
                let mut data = vec![0.0f32; batch * cols];
                for (b, out) in data.chunks_mut(cols).enumerate() {
                    for r in 0..tokens {
                        let row = &x.data()[(b * tokens + r) * cols..(b * tokens + r + 1) * cols];
                        for (dv, &v) in out.iter_mut().zip(row) {
                            *dv += v;
                        }
                    }
                    for dv in out.iter_mut() {
                        *dv /= tokens as f32;
                    }
                }
                Tensor::from_vec(data, &[batch, cols])
                    .map_err(crate::backend::BackendError::from)?
            }
        };
        let logits = be.linear(
            OpSite::global(OpKind::Head),
            &pooled,
            &w.head_w,
            Some(&w.head_b),
        )?;
        (0..batch)
            .map(|b| {
                gather_rows(&logits, &[b])
                    .into_reshape(&[cfg.num_classes])
                    .map_err(crate::backend::BackendError::from)
            })
            .collect()
    }

    /// The window partition of one image's `n` tokens (global attention =
    /// one window covering all rows). For windowed (Swin) configurations,
    /// `shift` rolls the grid by half a window before partitioning.
    fn window_indices(&self, n: usize, grid: usize, shift: bool) -> Vec<Vec<usize>> {
        match self.config.window {
            None => vec![(0..n).collect()],
            Some(wsize) => {
                let w = wsize.min(grid);
                let half = w / 2;
                let roll = |i: usize| if shift { (i + half) % grid } else { i };
                let per_side = grid / w;
                let mut out = Vec::with_capacity(per_side * per_side);
                for wy in 0..per_side {
                    for wx in 0..per_side {
                        let mut idx = Vec::with_capacity(w * w);
                        for iy in 0..w {
                            for ix in 0..w {
                                let y = roll(wy * w + iy);
                                let xcoord = roll(wx * w + ix);
                                idx.push(y * grid + xcoord);
                            }
                        }
                        out.push(idx);
                    }
                }
                out
            }
        }
    }

    /// One transformer block on stacked tokens `x: [batch·n, d]`.
    ///
    /// LayerNorm, QKV, projection, residuals, and the MLP run on the whole
    /// stack; attention runs per image (and per window for Swin), so a
    /// token only ever attends within its own image.
    #[allow(clippy::too_many_arguments)]
    fn block_forward<B: Backend>(
        &self,
        be: &mut B,
        block: usize,
        blk: &BlockWeights,
        x: &Tensor,
        batch: usize,
        grid: usize,
        shift: bool,
        attn_out: Option<&mut AttentionMaps>,
    ) -> Result<Tensor> {
        let d = blk.embed_dim;
        let heads = blk.num_heads;
        let hd = d / heads;
        let n = x.shape()[0] / batch;

        let x_ln = be.layer_norm(
            OpSite::in_block(block, OpKind::Norm1),
            x,
            &blk.ln1_g,
            &blk.ln1_b,
        )?;
        let qkv = be.linear(
            OpSite::in_block(block, OpKind::Qkv),
            &x_ln,
            &blk.qkv_w,
            Some(&blk.qkv_b),
        )?;

        let windows = self.window_indices(n, grid, shift);
        // Global attention is one window holding every row of the image in
        // order, so its heads slice `qkv` and write `attended` in place.
        // Swin windows gather their rows first and scatter them after.
        let global = self.config.window.is_none();
        let scale = 1.0 / (hd as f32).sqrt();
        let mut attn_accum = if attn_out.is_some() {
            Some(Tensor::zeros(&[n, n]))
        } else {
            None
        };
        let mut attended = Tensor::zeros(&[batch * n, d]);
        for image in 0..batch {
            let off = image * n;
            for idx in &windows {
                let m = idx.len();
                let (gidx, window) = if global {
                    (Vec::new(), None)
                } else {
                    let gidx: Vec<usize> = idx.iter().map(|&i| i + off).collect();
                    let window = gather_rows(&qkv, &gidx);
                    (gidx, Some(window))
                };
                let (src, rows) = match &window {
                    Some(window) => (window, 0..m),
                    None => (&qkv, off..off + m),
                };
                let mut window_out = window.is_some().then(|| Tensor::zeros(&[m, d]));
                for h in 0..heads {
                    let cols = |part: usize| part * d + h * hd..part * d + (h + 1) * hd;
                    let mut q = slice_block(src, rows.clone(), cols(0));
                    q.map_inplace(|v| v * scale);
                    let k = slice_block(src, rows.clone(), cols(1));
                    let v = slice_block(src, rows.clone(), cols(2));
                    let scores = be.matmul_nt(OpSite::in_block(block, OpKind::QkMatmul), &q, &k)?;
                    let probs = be.softmax(OpSite::in_block(block, OpKind::Softmax), &scores)?;
                    if let Some(acc) = attn_accum.as_mut() {
                        // Accumulate head-averaged probabilities at global
                        // indices (single-image capture, so off == 0).
                        for (wi, &gi) in idx.iter().enumerate() {
                            for (wj, &gj) in idx.iter().enumerate() {
                                let cur = acc.at(&[gi, gj]);
                                acc.set(&[gi, gj], cur + probs.data()[wi * m + wj] / heads as f32);
                            }
                        }
                    }
                    let out_h = be.matmul(OpSite::in_block(block, OpKind::PvMatmul), &probs, &v)?;
                    match window_out.as_mut() {
                        Some(window) => write_block(window, &out_h, 0, h * hd),
                        None => write_block(&mut attended, &out_h, off, h * hd),
                    }
                }
                if let Some(window) = window_out {
                    scatter_rows(&mut attended, &window, &gidx);
                }
            }
        }
        if let (Some(maps), Some(acc)) = (attn_out, attn_accum) {
            maps.push(acc);
        }

        let proj = be.linear(
            OpSite::in_block(block, OpKind::AttnProj),
            &attended,
            &blk.proj_w,
            Some(&blk.proj_b),
        )?;
        let x = be.add(OpSite::in_block(block, OpKind::Residual1), x, &proj)?;

        let x_ln2 = be.layer_norm(
            OpSite::in_block(block, OpKind::Norm2),
            &x,
            &blk.ln2_g,
            &blk.ln2_b,
        )?;
        let h1 = be.linear(
            OpSite::in_block(block, OpKind::Fc1),
            &x_ln2,
            &blk.fc1_w,
            Some(&blk.fc1_b),
        )?;
        let act = be.gelu(OpSite::in_block(block, OpKind::Gelu), &h1)?;
        let h2 = be.linear(
            OpSite::in_block(block, OpKind::Fc2),
            &act,
            &blk.fc2_w,
            Some(&blk.fc2_b),
        )?;
        be.add(OpSite::in_block(block, OpKind::Residual2), &x, &h2)
    }

    /// Patch merging: each 2×2 neighborhood of every image's `grid×grid`
    /// token map is concatenated (`[4d]`); the stacked batch is projected
    /// to the next stage's dimension in one linear.
    #[allow(clippy::too_many_arguments)]
    fn patch_merge<B: Backend>(
        &self,
        be: &mut B,
        block: usize,
        x: &Tensor,
        batch: usize,
        grid: usize,
        mw: &Tensor,
        mb: &Tensor,
    ) -> Result<Tensor> {
        let d = x.shape()[1];
        let n = x.shape()[0] / batch;
        let ng = grid / 2;
        let mut data = Vec::with_capacity(batch * ng * ng * 4 * d);
        for image in 0..batch {
            let off = image * n;
            for gy in 0..ng {
                for gx in 0..ng {
                    for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        let src = off + (2 * gy + dy) * grid + (2 * gx + dx);
                        data.extend_from_slice(&x.data()[src * d..(src + 1) * d]);
                    }
                }
            }
        }
        let merged = Tensor::from_vec(data, &[batch * ng * ng, 4 * d])
            .map_err(crate::backend::BackendError::from)?;
        be.linear(
            OpSite::in_block(block, OpKind::PatchMerge),
            &merged,
            mw,
            Some(mb),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Fp32Backend;
    use crate::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn slice_cols_and_gather_rows() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let c = slice_block(&t, 0..3, 1..3);
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
        let b = slice_block(&t, 1..3, 2..4);
        assert_eq!(b.data(), &[6.0, 7.0, 10.0, 11.0]);
        let mut w = Tensor::zeros(&[3, 4]);
        write_block(&mut w, &b, 0, 1);
        assert_eq!(w.data()[..8], [0.0, 6.0, 7.0, 0.0, 0.0, 10.0, 11.0, 0.0]);
        let g = gather_rows(&t, &[2, 0]);
        assert_eq!(g.data(), &[8.0, 9.0, 10.0, 11.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn scatter_is_inverse_of_gather() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let rows = [2usize, 0];
        let g = gather_rows(&t, &rows);
        let mut out = Tensor::zeros(&[3, 4]);
        scatter_rows(&mut out, &g, &rows);
        assert_eq!(out.data()[8..12], t.data()[8..12]);
        assert_eq!(out.data()[0..4], t.data()[0..4]);
        assert!(out.data()[4..8].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn patchify_orders_patches_row_major() {
        let cfg = ModelConfig::test_config(); // 16px, patch 4 -> 4x4 grid
        let model = VitModel::synthesize(cfg, 0);
        let mut img = Tensor::zeros(&[3, 16, 16]);
        img.set(&[0, 0, 4], 9.0); // second patch in the top row
        let p = model.patchify(&img);
        assert_eq!(p.shape(), &[16, 48]);
        assert_eq!(p.at(&[1, 0]), 9.0);
        assert_eq!(p.at(&[0, 0]), 0.0);
    }

    #[test]
    fn forward_produces_finite_logits() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 42);
        let img = model.config().dummy_image(0.3);
        let logits = model.forward(&img, &mut Fp32Backend::new()).unwrap();
        assert_eq!(logits.len(), 10);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_is_deterministic() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 42);
        let img = model.config().dummy_image(-0.2);
        let a = model.forward(&img, &mut Fp32Backend::new()).unwrap();
        let b = model.forward(&img, &mut Fp32Backend::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_images_give_different_logits() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 42);
        let a = model
            .forward(&model.config().dummy_image(0.5), &mut Fp32Backend::new())
            .unwrap();
        let b = model
            .forward(&model.config().dummy_image(-0.5), &mut Fp32Backend::new())
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn swin_forward_runs_and_pools() {
        let model = VitModel::synthesize(ModelConfig::test_swin_config(), 7);
        let img = model.config().dummy_image(0.1);
        let logits = model.forward(&img, &mut Fp32Backend::new()).unwrap();
        assert_eq!(logits.len(), 10);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_batch_matches_per_image_forward() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 42);
        let mut rng = StdRng::seed_from_u64(9);
        let images: Vec<Tensor> = (0..4)
            .map(|_| crate::data::synthetic_image(model.config(), &mut rng))
            .collect();
        let solo: Vec<Tensor> = images
            .iter()
            .map(|img| model.forward(img, &mut Fp32Backend::new()).unwrap())
            .collect();
        for bsz in 1..=images.len() {
            let batched = model
                .forward_batch(&images[..bsz], &mut Fp32Backend::new())
                .unwrap();
            assert_eq!(batched.len(), bsz);
            for (b, s) in batched.iter().zip(&solo) {
                assert_eq!(b.data(), s.data(), "batch of {bsz} diverged");
            }
        }
    }

    #[test]
    fn forward_batch_swin_matches_per_image() {
        let model = VitModel::synthesize(ModelConfig::test_swin_config(), 7);
        let mut rng = StdRng::seed_from_u64(11);
        let images: Vec<Tensor> = (0..3)
            .map(|_| crate::data::synthetic_image(model.config(), &mut rng))
            .collect();
        let batched = model
            .forward_batch(&images, &mut Fp32Backend::new())
            .unwrap();
        for (img, b) in images.iter().zip(&batched) {
            let s = model.forward(img, &mut Fp32Backend::new()).unwrap();
            assert_eq!(b.data(), s.data());
        }
    }

    #[test]
    fn forward_batch_of_nothing_is_empty() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 42);
        let out = model.forward_batch(&[], &mut Fp32Backend::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn attention_maps_are_row_stochastic() {
        let model = VitModel::synthesize(ModelConfig::test_config(), 42);
        let img = model.config().dummy_image(0.2);
        let (_, maps) = model
            .forward_with_attention(&img, &mut Fp32Backend::new())
            .unwrap();
        assert_eq!(maps.len(), model.config().total_depth());
        let n = model.config().seq_len();
        for m in &maps {
            assert_eq!(m.shape(), &[n, n]);
            for r in 0..n {
                let sum: f32 = (0..n).map(|c| m.at(&[r, c])).sum();
                assert!((sum - 1.0).abs() < 1e-4, "row sum {sum}");
            }
        }
    }
}
