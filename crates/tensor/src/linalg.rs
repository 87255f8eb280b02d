//! Matrix products: the GEMM core that all "green" (quantizable) operations
//! of the paper's Fig. 1 reduce to.
//!
//! The kernels are cache-blocked and row-parallel on the [`crate::pool`]
//! work-stealing pool. Output rows are independent and every output element
//! accumulates its `k` products in ascending-index order regardless of how
//! rows are chunked across threads, so results are **bit-identical at every
//! thread count** (including the `QUQ_THREADS=1` serial reference).

pub mod isa;

use crate::{pool, IntTensor, Tensor, TensorError};
use std::cell::Cell;

/// Rows of `B` (the shared operand) processed per pass so the active block
/// stays cache-resident while a chunk of output rows streams over it.
const KC: usize = 128;

/// Output columns accumulated together in `matmul_nt`'s inner kernel: four
/// dot products share one pass over the `A` row.
const JB: usize = 4;

/// Rows of output per work-stealing chunk. Small enough to balance the
/// pool on ViT-sized matrices (a few hundred rows), large enough that a
/// chunk amortizes its claim.
const ROW_GRAIN: usize = 8;

fn check_rank2(shape: &[usize]) -> crate::Result<()> {
    if shape.len() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: shape.len(),
        });
    }
    Ok(())
}

/// `(m, k, n)` of `A[m,k] · B[k,n]` from the operands' shapes, or the
/// error [`matmul`] returns for them.
///
/// # Errors
///
/// As for [`matmul`].
pub fn matmul_dims(a: &[usize], b: &[usize]) -> crate::Result<(usize, usize, usize)> {
    check_rank2(a)?;
    check_rank2(b)?;
    if a[1] != b[0] {
        return Err(TensorError::InnerDimMismatch {
            lhs_cols: a[1],
            rhs_rows: b[0],
        });
    }
    Ok((a[0], a[1], b[1]))
}

/// `(m, k, n)` of `A[m,k] · B[n,k]ᵀ` from the operands' shapes, or the
/// error [`matmul_nt`] returns for them.
///
/// # Errors
///
/// As for [`matmul_nt`].
pub fn matmul_nt_dims(a: &[usize], b: &[usize]) -> crate::Result<(usize, usize, usize)> {
    check_rank2(a)?;
    check_rank2(b)?;
    if a[1] != b[1] {
        return Err(TensorError::InnerDimMismatch {
            lhs_cols: a[1],
            rhs_rows: b[1],
        });
    }
    Ok((a[0], a[1], b[0]))
}

/// `(rows, k, n)` of [`linear`]`(x, w, bias)` — `x` flattened to `rows`
/// rows of depth `k`, `n` outputs — or the error [`linear`] returns for
/// these shapes.
///
/// # Errors
///
/// As for [`linear`].
pub fn linear_dims(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
) -> crate::Result<(usize, usize, usize)> {
    let (rows, cols) = x.as_matrix()?;
    let (_, _, n) = matmul_nt_dims(&[rows, cols], w.shape())?;
    if let Some(b) = bias.filter(|b| b.rank() != 1 || b.len() != n) {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![rows, n],
            rhs: b.shape().to_vec(),
        });
    }
    Ok((rows, cols, n))
}

/// Multiplies two rank-2 tensors: `C[m,n] = A[m,k] · B[k,n]`.
///
/// Row-parallel i-k-j kernel with `k` blocked in `KC`-row panels of `B`:
/// each panel is reused across every output row of a chunk while the inner
/// loop streams both operands contiguously. Zero entries of `A` are *not*
/// skipped — `0 × NaN` and `0 × ∞` must propagate into the product exactly
/// as IEEE 754 defines them.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] when either input is not rank 2 and
/// [`TensorError::InnerDimMismatch`] when `A`'s columns differ from `B`'s rows.
pub fn matmul(a: &Tensor, b: &Tensor) -> crate::Result<Tensor> {
    let (m, k, n) = matmul_dims(a.shape(), b.shape())?;
    let _span = quq_obs::span("gemm.matmul");
    record_gemm_work(m, k, n, 4, 4);
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    if n > 0 {
        pool::parallel_rows_mut(&mut out, n, ROW_GRAIN, |first_row, block| {
            matmul_block(ad, bd, block, first_row, k, n);
        });
    }
    Tensor::from_vec(out, &[m, n])
}

/// Reports one GEMM's arithmetic intensity on the global recorder:
/// `gemm.macs` counts `m·k·n` multiply-accumulates, `gemm.bytes` the
/// compulsory operand + output traffic (each matrix touched once).
#[inline]
fn record_gemm_work(m: usize, k: usize, n: usize, in_bytes: usize, out_bytes: usize) {
    if quq_obs::enabled() {
        quq_obs::add("gemm.macs", (m * k * n) as u64);
        quq_obs::add(
            "gemm.bytes",
            ((m * k + k * n) * in_bytes + m * n * out_bytes) as u64,
        );
    }
}

/// Computes a block of output rows of `A·B` starting at `first_row`.
///
/// Accumulation into each element runs over `p = 0..k` ascending (panels
/// ascend, `p` ascends within a panel), independent of the block split.
fn matmul_block(ad: &[f32], bd: &[f32], block: &mut [f32], first_row: usize, k: usize, n: usize) {
    for panel_start in (0..k).step_by(KC) {
        let panel_end = (panel_start + KC).min(k);
        for (r, orow) in block.chunks_exact_mut(n).enumerate() {
            let arow = &ad[(first_row + r) * k..(first_row + r + 1) * k];
            for p in panel_start..panel_end {
                let av = arow[p];
                let brow = &bd[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Multiplies `A[m,k]` by the transpose of `B[n,k]`: `C[m,n] = A · Bᵀ`.
///
/// Attention scores `Q·Kᵀ` use this directly so `K` never needs an explicit
/// transpose copy. Row-parallel dot-product kernel computing `JB` output
/// columns per pass over the `A` row (one load of `A` feeds four
/// independent accumulators).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or [`TensorError::InnerDimMismatch`]
/// as for [`matmul`].
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> crate::Result<Tensor> {
    let (m, k, n) = matmul_nt_dims(a.shape(), b.shape())?;
    let _span = quq_obs::span("gemm.matmul_nt");
    record_gemm_work(m, k, n, 4, 4);
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    if n > 0 {
        pool::parallel_rows_mut(&mut out, n, ROW_GRAIN, |first_row, block| {
            matmul_nt_block(ad, bd, block, first_row, k, n);
        });
    }
    Tensor::from_vec(out, &[m, n])
}

/// Computes a block of output rows of `A·Bᵀ` starting at `first_row`.
///
/// Each output element is an independent ascending-`k` dot product, so the
/// [`JB`]-wide column tiling never reorders any element's accumulation.
fn matmul_nt_block(
    ad: &[f32],
    bd: &[f32],
    block: &mut [f32],
    first_row: usize,
    k: usize,
    n: usize,
) {
    for (r, orow) in block.chunks_exact_mut(n).enumerate() {
        let arow = &ad[(first_row + r) * k..(first_row + r + 1) * k];
        let mut j = 0;
        while j + JB <= n {
            let b0 = &bd[j * k..(j + 1) * k];
            let b1 = &bd[(j + 1) * k..(j + 2) * k];
            let b2 = &bd[(j + 2) * k..(j + 3) * k];
            let b3 = &bd[(j + 3) * k..(j + 4) * k];
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for p in 0..k {
                let x = arow[p];
                a0 += x * b0[p];
                a1 += x * b1[p];
                a2 += x * b2[p];
                a3 += x * b3[p];
            }
            orow[j] = a0;
            orow[j + 1] = a1;
            orow[j + 2] = a2;
            orow[j + 3] = a3;
            j += JB;
        }
        while j < n {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            orow[j] = acc;
            j += 1;
        }
    }
}

/// Applies a linear layer `y = x·Wᵀ + bias` where `x` is `[..., in]` and `w`
/// is `[out, in]` (PyTorch weight layout, which the ViT substrate mirrors).
///
/// # Errors
///
/// Returns a shape error when the trailing dimension of `x` differs from
/// `w.shape()[1]` or when `bias` (if present) has length ≠ `w.shape()[0]`.
pub fn linear(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> crate::Result<Tensor> {
    let (rows, cols, _) = linear_dims(x, w, bias)?;
    let x2 = x.reshape(&[rows, cols])?;
    let y = matmul_nt(&x2, w)?;
    let y = match bias {
        Some(b) => y.add_bias(b)?,
        None => y,
    };
    let mut shape = x.shape().to_vec();
    *shape.last_mut().expect("rank >= 1") = w.shape()[0];
    y.into_reshape(&shape)
}

/// Integer matrix product with 32-bit accumulation: `C[m,n] = A[m,k] · B[k,n]`.
///
/// This models the PE-array accumulation path of the paper's accelerator:
/// products of b-bit codes accumulated in wide integers (Eq. 2 before the
/// requantization scale). Row-parallel like [`matmul`]; the zero-skip is
/// kept here because integer `0 × b` contributes exactly nothing.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or [`TensorError::InnerDimMismatch`]
/// as for [`matmul`].
pub fn int_matmul(a: &IntTensor, b: &IntTensor) -> crate::Result<IntTensor> {
    let (m, k, n) = matmul_dims(a.shape(), b.shape())?;
    let _span = quq_obs::span("gemm.int_matmul");
    record_gemm_work(m, k, n, 4, 4);
    let mut out = vec![0i32; m * n];
    let ad = a.data();
    let bd = b.data();
    if n > 0 {
        pool::parallel_rows_mut(&mut out, n, ROW_GRAIN, |first_row, block| {
            for (r, orow) in block.chunks_exact_mut(n).enumerate() {
                let i = first_row + r;
                for p in 0..k {
                    let av = ad[i * k + p];
                    if av == 0 {
                        continue;
                    }
                    let brow = &bd[p * n..(p + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o = o.wrapping_add(av.wrapping_mul(bv));
                    }
                }
            }
        });
    }
    IntTensor::from_vec(out, &[m, n])
}

/// Magnitude bound on the `i16` GEMM operands: pre-shifted decoded QUB
/// values `D << n_sh` satisfy `|D << n_sh| ≤ 2^7 · 2^7` for b ≤ 8 (the
/// payload fits b−1 ≤ 7 bits, `n_sh` fits 3 bits). Under it one
/// multiply-add of two products fits 2^29, so `vpmaddwd`/`vpdpwssd` pair
/// sums are exact, and an `i32` lane takes at least 3 pairs before it must
/// widen; [`PackedB`] kernels widen exactly as often as the operands'
/// actual maxima require.
pub const PANEL_BOUND: i32 = 1 << 14;

thread_local! {
    /// Rows of a single logical image inside a stacked `forward_batch`
    /// activation, or 0 outside a batched forward. Set on the thread
    /// that *launches* matmuls (pool workers never consult it).
    static BATCH_IMAGE_ROWS: Cell<usize> = const { Cell::new(0) };
}

/// Marks the current thread as running a stacked batched forward whose
/// per-image activations are `image_rows` tall, until the guard drops.
/// While active, the packed GEMM enlarges its parallel row grain so a
/// decoded weight panel streams over whole images instead of being
/// re-fetched every `ROW_GRAIN` rows.
pub fn batch_rows_hint(image_rows: usize) -> BatchRowsGuard {
    let prev = BATCH_IMAGE_ROWS.with(|c| c.replace(image_rows));
    BatchRowsGuard { prev }
}

/// RAII guard restoring the previous batch-rows hint on drop.
pub struct BatchRowsGuard {
    prev: usize,
}

impl Drop for BatchRowsGuard {
    fn drop(&mut self) {
        BATCH_IMAGE_ROWS.with(|c| c.set(self.prev));
    }
}

/// Row grain for the packed GEMM's pool split. Outside a batched
/// forward this is the classic [`ROW_GRAIN`]; inside one, chunks grow
/// to image-sized multiples (bounded so every pool thread still gets
/// work), which keeps each decoded `B` panel resident across the
/// stacked rows of an image instead of re-streaming `B` per 8-row
/// chunk. Grain only changes how rows are *grouped* — per-element
/// accumulation order is untouched, so results stay bit-identical.
fn packed_row_grain(m: usize) -> usize {
    let image_rows = BATCH_IMAGE_ROWS.with(|c| c.get());
    if image_rows <= ROW_GRAIN || m <= image_rows {
        return ROW_GRAIN;
    }
    let threads = pool::num_threads().max(1);
    // At most one image per chunk, at least two chunks per thread.
    image_rows.min(m.div_ceil(2 * threads)).max(ROW_GRAIN)
}

/// `B[n, k]` packed for the lane-per-column GEMM kernels of [`isa`]:
/// columns in blocks of 16 (one `i32` lane each), and inside a block the
/// depth in pairs, so that pair `p` of all 16 columns is one contiguous
/// 64-byte vector `[b[j, 2p], b[j, 2p+1]]` per column `j`. `k` is padded
/// to even and `n` to a whole block, with zeros, which contribute nothing.
/// The layout is the same for every ISA (AVX2 reads a block as two
/// halves), so a cached panel serves whatever `QUQ_FORCE_ISA` picks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedB {
    data: Vec<i16>,
    n: usize,
    k: usize,
    /// Largest `|b|`, which sets how often the kernels widen.
    max_abs: u16,
}

impl PackedB {
    /// Packs row-major `b[n, k]`.
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != n·k`.
    pub fn pack(b: &[i16], n: usize, k: usize) -> Self {
        Self::pack_with(b, n, k, |v| v)
    }

    /// Packs row-major code bytes `codes[n, k]` through a decode table in
    /// one pass (entry `q` of `table` is what byte `q` stands for).
    ///
    /// # Panics
    ///
    /// Panics when `codes.len() != n·k` or a byte indexes past `table`.
    pub fn from_codes(codes: &[u8], n: usize, k: usize, table: &[i16]) -> Self {
        Self::pack_with(codes, n, k, |q| table[usize::from(q)])
    }

    /// Packs `B = Xᵀ` from row-major `x[k, n]`, reading `x` in its own
    /// layout: rows `2p` and `2p + 1` of `x` interleave into pair `p` of
    /// every block, so no transposed copy of `x` is made.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != k·n`.
    pub fn pack_transposed(x: &[i16], k: usize, n: usize) -> Self {
        assert_eq!(x.len(), k * n, "rhs panel must be k·n elements");
        let block_len = Self::block_len(k);
        let mut data = vec![0i16; n.div_ceil(isa::BLOCK) * block_len];
        if k > 0 {
            // Written in block order: pair `p` interleaves rows `2p` and
            // `2p + 1` of `x`, over the block's columns.
            for (b, block) in data.chunks_exact_mut(block_len).enumerate() {
                let cols = b * isa::BLOCK..n.min((b + 1) * isa::BLOCK);
                for (p, pair) in block.chunks_exact_mut(2 * isa::BLOCK).enumerate() {
                    let row = |r: usize| &x[r * n..][cols.clone()];
                    if 2 * p + 1 < k {
                        for ((out, &even), &odd) in
                            pair.chunks_exact_mut(2).zip(row(2 * p)).zip(row(2 * p + 1))
                        {
                            out[0] = even;
                            out[1] = odd;
                        }
                    } else {
                        for (out, &even) in pair.chunks_exact_mut(2).zip(row(2 * p)) {
                            out[0] = even;
                        }
                    }
                }
            }
        }
        Self::new(data, n, k)
    }

    /// Elements per packed block: the depth in pairs, 16 columns each.
    fn block_len(k: usize) -> usize {
        k.div_ceil(2) * 2 * isa::BLOCK
    }

    fn pack_with<T: Copy>(rows: &[T], n: usize, k: usize, value: impl Fn(T) -> i16) -> Self {
        assert_eq!(rows.len(), n * k, "rhs panel must be n·k elements");
        let block_len = Self::block_len(k);
        let mut data = vec![0i16; n.div_ceil(isa::BLOCK) * block_len];
        if k > 0 {
            // Written in block order: pair `p` holds elements `2p` and
            // `2p + 1` of each of the block's rows, row after row.
            for (block, cols) in data
                .chunks_exact_mut(block_len)
                .zip(rows.chunks(isa::BLOCK * k))
            {
                for (p, pair) in block.chunks_exact_mut(2 * isa::BLOCK).enumerate() {
                    let d = 2 * p;
                    for (out, row) in pair.chunks_exact_mut(2).zip(cols.chunks_exact(k)) {
                        out[0] = value(row[d]);
                        if d + 1 < k {
                            out[1] = value(row[d + 1]);
                        }
                    }
                }
            }
        }
        Self::new(data, n, k)
    }

    fn new(data: Vec<i16>, n: usize, k: usize) -> Self {
        let max_abs = data.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        debug_assert!(
            i32::from(max_abs) <= PANEL_BOUND,
            "panel values must satisfy |v| ≤ 2^14 (the pre-shifted QUB bound)"
        );
        Self {
            data,
            n,
            k,
            max_abs,
        }
    }

    pub(crate) fn data(&self) -> &[i16] {
        &self.data
    }
}

/// Pairs an `i32` lane can take before it must widen: the most for which
/// `2·max|a|·max|b|·pairs ≤ i32::MAX`, so no partial sum can wrap.
fn pairs_per_widen(max_a: u16, max_b: u16) -> usize {
    let per_pair = 2 * u64::from(max_a) * u64::from(max_b);
    let pairs = (i32::MAX as u64 / per_pair.max(1)).max(1);
    usize::try_from(pairs).unwrap_or(usize::MAX)
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ` over `i16` operands with exact `i64`
/// results, `B` row-major and packed on this call (inside the
/// `gemm.i16_nt` span, which therefore times all of the GEMM's work).
///
/// # Preconditions
///
/// Every element of `a` and `b` must satisfy `|v| ≤` [`PANEL_BOUND`]
/// (guaranteed by the QUB pre-shift decode for b ≤ 8; checked by a
/// `debug_assert!`). The widening cadence follows the operands' actual
/// maxima, so results are exact under it.
///
/// # Panics
///
/// Panics when `a.len() != m·k` or `b.len() != n·k`.
pub fn i16_matmul_nt_i64(a: &[i16], b: &[i16], m: usize, k: usize, n: usize) -> Vec<i64> {
    let _span = quq_obs::span("gemm.i16_nt");
    i16_matmul_nt_packed(a, m, &PackedB::pack(b, n, k))
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ` with `B` already packed, `A` row-major.
/// Opens no span: callers time it under `gemm.i16_nt` together with any
/// packing they do per call.
///
/// Dispatch happens here, once per call: the ISA comes from
/// [`isa::resolve`] (best supported, or `QUQ_FORCE_ISA`) and pool workers
/// receive its kernel as a plain fn pointer. Every lane takes as many
/// pairs in `i32` as `2·max|a|·max|b|·pairs ≤ i32::MAX` allows before it
/// widens into `i64`, so output bytes are identical regardless of host,
/// override or thread count.
///
/// # Panics
///
/// Panics when `a.len()` is not `m` rows of `B`'s depth `k`.
pub fn i16_matmul_nt_packed(a: &[i16], m: usize, b: &PackedB) -> Vec<i64> {
    i16_matmul_nt_on(isa::resolve(), a, m, b, &isa::RawAcc)
}

/// `C[m,n] = (A[m,k] · B[n,k]ᵀ) · scale (+ bias)` in `f32`: the integer
/// GEMM of [`i16_matmul_nt_packed`] with its epilogue applied by the
/// kernel's register tile to each block of accumulators before it is
/// stored — `acc as f32 * scale`, then `+ bias[j]` — so no `i64` output is
/// written or read back. Each output is the same `f32` as rescaling the
/// `i64` result afterwards, rounding for rounding. Times itself under the
/// `gemm.i16_nt` span: the kernel and the epilogue, no encode or packing.
///
/// # Panics
///
/// Panics when `a.len()` is not `m` rows of `B`'s depth `k`, or a bias is
/// not one value per output column.
pub fn i16_matmul_nt_scaled(
    a: &[i16],
    m: usize,
    b: &PackedB,
    scale: f32,
    bias: Option<&[f32]>,
) -> Vec<f32> {
    if let Some(bias) = bias {
        assert_eq!(bias.len(), b.n, "one bias per output column");
    }
    let _span = quq_obs::span("gemm.i16_nt");
    i16_matmul_nt_on(isa::resolve(), a, m, b, &isa::Rescale { scale, bias })
}

/// The packed integer GEMM on a given ISA, each output written through
/// `epi`.
fn i16_matmul_nt_on<E: isa::Epilogue>(
    which: isa::Isa,
    a: &[i16],
    m: usize,
    b: &PackedB,
    epi: &E,
) -> Vec<E::Out> {
    let (k, n) = (b.k, b.n);
    assert_eq!(a.len(), m * k, "lhs panel must be m·k elements");
    record_gemm_work(m, k.next_multiple_of(2), n, 2, size_of::<E::Out>());
    let mut out = vec![E::Out::default(); m * n];
    if m == 0 || n == 0 {
        return out;
    }
    let max_a = a.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
    debug_assert!(
        i32::from(max_a) <= PANEL_BOUND,
        "panel values must satisfy |v| ≤ 2^14 (the pre-shifted QUB bound)"
    );
    let g = isa::Gemm {
        a,
        b: b.data(),
        k,
        n,
        chunk: pairs_per_widen(max_a, b.max_abs),
    };
    let kern = isa::gemm_fn::<E>(which);
    pool::parallel_rows_mut(&mut out, n, packed_row_grain(m), |first_row, block| {
        // SAFETY: `gemm_fn` asserted that the host supports `which`.
        unsafe { kern(&g, epi, block, first_row) }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    fn random(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let len: usize = shape.iter().product();
        Tensor::from_vec((0..len).map(|_| standard_normal(&mut rng)).collect(), shape).unwrap()
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[1.0, 2.0, 3.0], &[3, 1]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::InnerDimMismatch { .. })
        ));
        let v = t(&[1.0], &[1]);
        assert!(matches!(
            matmul(&v, &a),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 1.0, 2.0, 3.0], &[2, 3]);
        let via_nt = matmul_nt(&a, &b).unwrap();
        let via_t = matmul(&a, &b.transpose().unwrap()).unwrap();
        // Different kernels, so compare numerically rather than bitwise.
        for (x, y) in via_nt.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() <= 1e-4 * x.abs().max(1.0));
        }
    }

    #[test]
    fn matmul_propagates_nan_and_inf_through_zero_rows() {
        // A zero entry of `A` must not short-circuit a NaN/∞ in `B`:
        // IEEE 754 says 0 × NaN = NaN and 0 × ∞ = NaN.
        let a = t(&[0.0, 1.0], &[1, 2]);
        let b = t(&[f32::NAN, 0.0, f32::INFINITY, 2.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert!(c.data()[0].is_nan(), "0·NaN + 1·∞ must not be finite");
        assert_eq!(c.data()[1], 2.0);
    }

    #[test]
    fn parallel_and_serial_matmul_are_bit_identical() {
        // Sizes straddle the KC panel and ROW_GRAIN chunk boundaries.
        for (m, k, n, seed) in [(3, 5, 4, 1), (17, 130, 9, 2), (64, 300, 33, 3)] {
            let a = random(&[m, k], seed);
            let b = random(&[k, n], seed + 100);
            let bt = random(&[n, k], seed + 200);
            let par = matmul(&a, &b).unwrap();
            let par_nt = matmul_nt(&a, &bt).unwrap();
            let (ser, ser_nt) =
                pool::run_serial(|| (matmul(&a, &b).unwrap(), matmul_nt(&a, &bt).unwrap()));
            assert_eq!(par.data(), ser.data(), "matmul {m}x{k}x{n} diverged");
            assert_eq!(
                par_nt.data(),
                ser_nt.data(),
                "matmul_nt {m}x{k}x{n} diverged"
            );
        }
    }

    #[test]
    fn linear_matches_manual_gemm() {
        // x: [2, 3], w: [4, 3] (out=4, in=3)
        let x = t(&[1.0, 0.0, -1.0, 2.0, 2.0, 2.0], &[2, 3]);
        let w = t(
            &(0..12).map(|i| i as f32 * 0.1).collect::<Vec<_>>(),
            &[4, 3],
        );
        let b = t(&[1.0, 1.0, 1.0, 1.0], &[4]);
        let y = linear(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.shape(), &[2, 4]);
        // First row, first output: 1*0 + 0*0.1 + (-1)*0.2 + 1 = 0.8
        assert!((y.at(&[0, 0]) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn linear_preserves_leading_axes() {
        let x = Tensor::zeros(&[2, 5, 3]);
        let w = Tensor::zeros(&[4, 3]);
        let y = linear(&x, &w, None).unwrap();
        assert_eq!(y.shape(), &[2, 5, 4]);
    }

    #[test]
    fn i16_matmul_nt_matches_naive_dot() {
        let mut rng = StdRng::seed_from_u64(7);
        // Sizes straddle the tile, block and pair boundaries.
        for (m, k, n) in [(1, 1, 1), (3, 5, 4), (9, 130, 7), (16, 300, 13)] {
            let a: Vec<i16> = (0..m * k)
                .map(|_| (standard_normal(&mut rng) * 1000.0) as i16)
                .collect();
            let b: Vec<i16> = (0..n * k)
                .map(|_| (standard_normal(&mut rng) * 1000.0) as i16)
                .collect();
            let c = i16_matmul_nt_i64(&a, &b, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let expect: i64 = (0..k)
                        .map(|p| a[i * k + p] as i64 * b[j * k + p] as i64)
                        .sum();
                    assert_eq!(c[i * n + j], expect, "({m},{k},{n}) at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn i16_matmul_nt_parallel_equals_serial() {
        let mut rng = StdRng::seed_from_u64(11);
        let (m, k, n) = (33, 150, 21);
        let a: Vec<i16> = (0..m * k)
            .map(|_| (standard_normal(&mut rng) * 500.0) as i16)
            .collect();
        let b: Vec<i16> = (0..n * k)
            .map(|_| (standard_normal(&mut rng) * 500.0) as i16)
            .collect();
        let par = i16_matmul_nt_i64(&a, &b, m, k, n);
        let ser = pool::run_serial(|| i16_matmul_nt_i64(&a, &b, m, k, n));
        assert_eq!(par, ser);
    }

    #[test]
    fn i16_matmul_nt_empty_shapes() {
        assert!(i16_matmul_nt_i64(&[], &[1, 2], 0, 2, 1).is_empty());
        assert!(i16_matmul_nt_i64(&[1, 2], &[], 1, 2, 0).is_empty());
        // k = 0: well-defined all-zero output.
        assert_eq!(i16_matmul_nt_i64(&[], &[], 2, 0, 3), vec![0i64; 6]);
    }

    #[test]
    fn i16_matmul_nt_extreme_values_do_not_overflow() {
        // Saturate the panel contract: every entry at ±PANEL_BOUND with a
        // deep reduction, so every pair sum is 2^29 and the `i32` lanes
        // must widen every 3 pairs — the worst case all kernels must
        // survive exactly.
        let k = 4096;
        let hi = PANEL_BOUND as i16;
        let a = vec![-hi; k];
        let b = vec![-hi; k];
        let c = i16_matmul_nt_i64(&a, &b, 1, k, 1);
        assert_eq!(c[0], (hi as i64 * hi as i64) * k as i64);
        let mixed: Vec<i16> = (0..k).map(|i| if i % 2 == 0 { hi } else { -hi }).collect();
        let c2 = i16_matmul_nt_i64(&mixed, &b, 1, k, 1);
        assert_eq!(c2[0], 0);
    }

    /// Naive `i64` reference for `A·Bᵀ`.
    fn naive(a: &[i16], b: &[i16], m: usize, k: usize, n: usize) -> Vec<i64> {
        let mut want = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                want[i * n + j] = (0..k)
                    .map(|p| a[i * k + p] as i64 * b[j * k + p] as i64)
                    .sum();
            }
        }
        want
    }

    #[test]
    fn every_isa_and_tile_shape_matches_naive_dot_bitwise() {
        // The full kernel matrix: every supported ISA must produce the
        // naive dot product's exact bytes on odd k and k = 0, n below one
        // 8- or 16-lane vector and straddling one or several, and m
        // straddling the tile height (row tails) — every tail of the tile.
        let mut rng = StdRng::seed_from_u64(9);
        let sample = |len: usize, rng: &mut StdRng| -> Vec<i16> {
            (0..len)
                .map(|_| (standard_normal(rng) * 8000.0).clamp(-16384.0, 16384.0) as i16)
                .collect()
        };
        for m in [1usize, 3, 4, 5, 9] {
            for k in [0usize, 1, 2, 17, 66, 129] {
                for n in [1usize, 7, 8, 9, 15, 16, 17, 33, 65, 80] {
                    let a = sample(m * k, &mut rng);
                    let b = sample(n * k, &mut rng);
                    let want = naive(&a, &b, m, k, n);
                    let packed = PackedB::pack(&b, n, k);
                    for &which in isa::supported() {
                        assert_eq!(
                            i16_matmul_nt_on(which, &a, m, &packed, &isa::RawAcc),
                            want,
                            "{} diverged at {m}x{k}x{n}",
                            which.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_widen_exactly_at_the_i32_bound() {
        // 2^30 − 1 = 10261 · 11627 · 9, so with every |a| = 10261 and
        // every |b| = 11627 nine same-sign pairs sum to 2^31 − 2, the
        // nearest an even total comes to i32::MAX: the lanes must take
        // exactly nine pairs in i32. One pair more (k = 19, 20) would wrap
        // if they did not widen, and k = 18 lands on the bound itself.
        let (ma, mb) = (10261i16, 11627i16);
        assert_eq!(2 * ma as i64 * mb as i64 * 9, i32::MAX as i64 - 1);
        assert_eq!(pairs_per_widen(ma as u16, mb as u16), 9);
        for k in [17usize, 18, 19, 20, 37] {
            for (sa, sb) in [(1i16, 1i16), (-1, 1), (-1, -1)] {
                let (m, n) = (5, 17);
                let a = vec![sa * ma; m * k];
                let b = vec![sb * mb; n * k];
                let want = naive(&a, &b, m, k, n);
                let packed = PackedB::pack(&b, n, k);
                for &which in isa::supported() {
                    assert_eq!(
                        i16_matmul_nt_on(which, &a, m, &packed, &isa::RawAcc),
                        want,
                        "{} k={k} signs ({sa},{sb})",
                        which.name()
                    );
                }
            }
        }
    }

    /// The old rescale pass over `i64` accumulators: the oracle the
    /// epilogue must reproduce bit for bit.
    fn rescaled(accs: &[i64], n: usize, scale: f32, bias: Option<&[f32]>) -> Vec<u32> {
        accs.iter()
            .enumerate()
            .map(|(i, &v)| match bias {
                Some(b) => v as f32 * scale + b[i % n],
                None => v as f32 * scale,
            })
            .map(f32::to_bits)
            .collect()
    }

    /// `acc as f32 * scale (+ bias)` applied in the tile equals the `i64`
    /// result rescaled afterwards, on every ISA: `m = 1` (the head), row
    /// tails, odd and zero `k`, `n` around one block, empty outputs, small
    /// operands (the whole depth in `i32`) and ±2^14 ones (widening every
    /// few pairs), and a bias holding NaN, ±∞ and −0.0.
    #[test]
    fn every_isa_epilogue_matches_i64_then_rescale_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut sample = |len: usize, spread: f32| -> Vec<i16> {
            (0..len)
                .map(|_| (standard_normal(&mut rng) * spread).clamp(-16384.0, 16384.0) as i16)
                .collect()
        };
        for spread in [40.0f32, 8000.0] {
            for m in [0usize, 1, 4, 5] {
                for k in [0usize, 1, 17, 96] {
                    for n in [0usize, 1, 15, 16, 17, 33] {
                        let a = sample(m * k, spread);
                        let packed = PackedB::pack(&sample(n * k, spread), n, k);
                        let bias: Vec<f32> = (0..n)
                            .map(|j| match j % 7 {
                                0 => f32::NAN,
                                1 => f32::INFINITY,
                                2 => f32::NEG_INFINITY,
                                3 => -0.0,
                                _ => j as f32 * -0.37,
                            })
                            .collect();
                        for &which in isa::supported() {
                            let accs = i16_matmul_nt_on(which, &a, m, &packed, &isa::RawAcc);
                            for (scale, bias) in [(0.0123f32, None), (3.7e-5, Some(&bias[..]))] {
                                let epi = isa::Rescale { scale, bias };
                                let got = i16_matmul_nt_on(which, &a, m, &packed, &epi);
                                assert_eq!(
                                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                    rescaled(&accs, n, scale, bias),
                                    "{} {m}x{k}x{n} spread {spread}",
                                    which.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn epilogue_is_exact_at_the_i32_bound() {
        // The operands of `lanes_widen_exactly_at_the_i32_bound`: nine
        // pairs in `i32`, then widening; the f32 epilogue must see the
        // exact sums on both sides of the bound.
        let (ma, mb) = (10261i16, 11627i16);
        for k in [17usize, 18, 19, 20, 37] {
            let (m, n) = (5, 17);
            let a = vec![ma; m * k];
            let b = vec![-mb; n * k];
            let want = rescaled(&naive(&a, &b, m, k, n), n, 1.5, None);
            let packed = PackedB::pack(&b, n, k);
            for &which in isa::supported() {
                let epi = isa::Rescale {
                    scale: 1.5,
                    bias: None,
                };
                let got = i16_matmul_nt_on(which, &a, m, &packed, &epi);
                let bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, want, "{} k={k}", which.name());
            }
        }
    }

    #[test]
    fn scaled_entry_matches_packed_entry_rescaled() {
        // The public entry dispatches on `resolve()`, so `QUQ_FORCE_ISA`
        // pins what this compares.
        let mut rng = StdRng::seed_from_u64(17);
        let (m, k, n) = (9, 65, 32);
        let mut sample = |len: usize| -> Vec<i16> {
            (0..len)
                .map(|_| (standard_normal(&mut rng) * 300.0) as i16)
                .collect()
        };
        let a = sample(m * k);
        let packed = PackedB::pack(&sample(n * k), n, k);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 3.0).collect();
        let accs = i16_matmul_nt_packed(&a, m, &packed);
        let got = i16_matmul_nt_scaled(&a, m, &packed, 0.031, Some(&bias));
        let bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, rescaled(&accs, n, 0.031, Some(&bias)));
    }

    #[test]
    fn packs_transposed_like_packing_the_transpose() {
        for (k, n) in [(0usize, 3usize), (1, 1), (7, 19), (8, 16), (65, 32)] {
            let x: Vec<i16> = (0..k * n).map(|i| (i % 997) as i16 * 13 - 6000).collect();
            let xt: Vec<i16> = (0..n * k).map(|i| x[(i % k) * n + i / k]).collect();
            assert_eq!(
                PackedB::pack_transposed(&x, k, n),
                PackedB::pack(&xt, n, k),
                "X[{k}, {n}]"
            );
        }
    }

    #[test]
    fn packs_from_codes_like_from_values() {
        // A decode table applied while packing equals packing the decoded
        // values; padding past k and n stays zero.
        let table: Vec<i16> = (0..64).map(|q| (q - 32) * 100).collect();
        let (n, k) = (19, 7);
        let codes: Vec<u8> = (0..n * k).map(|i| (i * 37 % 64) as u8).collect();
        let values: Vec<i16> = codes.iter().map(|&q| table[q as usize]).collect();
        let packed = PackedB::from_codes(&codes, n, k, &table);
        assert_eq!(packed, PackedB::pack(&values, n, k));
        assert_eq!((packed.n, packed.k), (n, k));
        assert_eq!(packed.data().len(), 2 * 4 * 2 * isa::BLOCK);
        assert_eq!(packed.max_abs, 3200);
    }

    #[test]
    fn public_entry_honors_forced_scalar_isa() {
        // `QUQ_FORCE_ISA` must reach the dispatch and stay bit-identical.
        // (Scalar is the one ISA every host supports.)
        let mut rng = StdRng::seed_from_u64(21);
        let (m, k, n) = (6, 50, 9);
        let a: Vec<i16> = (0..m * k)
            .map(|_| (standard_normal(&mut rng) * 1000.0) as i16)
            .collect();
        let b: Vec<i16> = (0..n * k)
            .map(|_| (standard_normal(&mut rng) * 1000.0) as i16)
            .collect();
        let native = i16_matmul_nt_i64(&a, &b, m, k, n);
        std::env::set_var("QUQ_FORCE_ISA", "scalar");
        let forced = i16_matmul_nt_i64(&a, &b, m, k, n);
        std::env::remove_var("QUQ_FORCE_ISA");
        assert_eq!(native, forced);
    }

    #[test]
    fn batch_rows_hint_is_bit_neutral_and_scoped() {
        let mut rng = StdRng::seed_from_u64(31);
        let (m, k, n) = (40, 33, 7);
        let a: Vec<i16> = (0..m * k)
            .map(|_| (standard_normal(&mut rng) * 700.0) as i16)
            .collect();
        let b: Vec<i16> = (0..n * k)
            .map(|_| (standard_normal(&mut rng) * 700.0) as i16)
            .collect();
        let plain = i16_matmul_nt_i64(&a, &b, m, k, n);
        let hinted = {
            let _g = batch_rows_hint(10);
            // Grain grows toward one image per chunk but never past it,
            // and never shrinks below the classic default (the exact
            // value depends on the pool width).
            let g = packed_row_grain(m);
            assert!((ROW_GRAIN..=10).contains(&g), "grain {g} out of range");
            i16_matmul_nt_i64(&a, &b, m, k, n)
        };
        assert_eq!(plain, hinted, "row grain must never change bytes");
        // Guard dropped: grain is back to the default.
        assert_eq!(packed_row_grain(m), ROW_GRAIN);
    }

    #[test]
    fn int_matmul_matches_float_on_integers() {
        let a = IntTensor::from_vec(vec![1, -2, 3, 4, 0, -1], &[2, 3]).unwrap();
        let b = IntTensor::from_vec(vec![2, 1, 0, -1, 1, 3], &[3, 2]).unwrap();
        let c = int_matmul(&a, &b).unwrap();
        let af = a.to_f32(1.0);
        let bf = b.to_f32(1.0);
        let cf = matmul(&af, &bf).unwrap();
        for (ci, cfi) in c.data().iter().zip(cf.data()) {
            assert_eq!(*ci as f32, *cfi);
        }
    }
}
