//! Matrix products: the GEMM core that all "green" (quantizable) operations
//! of the paper's Fig. 1 reduce to.
//!
//! The kernels are row-parallel on the [`crate::pool`] work-stealing pool.
//! Output rows are independent and every output element accumulates its
//! `k` products in ascending-index order regardless of how rows are
//! chunked across threads, so results are **bit-identical at every thread
//! count** (including the `QUQ_THREADS=1` serial reference). The FP32
//! products ([`matmul`], [`matmul_nt`], [`linear`]) share one register tile
//! compiled per ISA through [`isa::vectorize`]; the `i16` products run the
//! hand-written kernels of [`isa`].

pub mod isa;

use crate::{pool, IntTensor, Tensor, TensorError};
use std::cell::Cell;

/// Rows of output per work-stealing chunk. Small enough to balance the
/// pool on ViT-sized matrices (a few hundred rows), large enough that a
/// chunk amortizes its claim.
const ROW_GRAIN: usize = 8;

/// Rows of the FP32 register tile.
const F32_ROWS: usize = 4;

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
/// Runs the FP32 tile of [`matmul_nt`] on `B` packed from its own layout.
/// Zero entries of `A` are *not* skipped — `0 × NaN` and `0 × ∞` propagate
/// into the product exactly as IEEE 754 defines them.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] when either input is not rank 2 and
/// [`TensorError::InnerDimMismatch`] when `A`'s columns differ from `B`'s rows.
pub fn matmul(a: &Tensor, b: &Tensor) -> crate::Result<Tensor> {
    let (m, k, n) = matmul_dims(a.shape(), b.shape())?;
    let _span = quq_obs::span("gemm.matmul");
    let out = f32_gemm(isa::resolve(), a.data(), b.data(), (m, k, n), (n, 1), None);
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

/// Multiplies `A[m,k]` by the transpose of `B[n,k]`: `C[m,n] = A · Bᵀ`.
///
/// Attention scores `Q·Kᵀ` use this directly so `K` never needs an explicit
/// transpose copy.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] or [`TensorError::InnerDimMismatch`]
/// as for [`matmul`].
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> crate::Result<Tensor> {
    let (m, k, n) = matmul_nt_dims(a.shape(), b.shape())?;
    let _span = quq_obs::span("gemm.matmul_nt");
    let out = f32_gemm(isa::resolve(), a.data(), b.data(), (m, k, n), (1, k), None);
    Tensor::from_vec(out, &[m, n])
}

/// Applies a linear layer `y = x·Wᵀ + bias` where `x` is `[..., in]` and `w`
/// is `[out, in]` (PyTorch weight layout, which the ViT substrate mirrors).
/// The tile adds `bias[j]` as it stores each finished sum, the same single
/// rounding as a bias pass after [`matmul_nt`]; it times itself under
/// `gemm.matmul_nt`.
///
/// # Errors
///
/// Returns a shape error when the trailing dimension of `x` differs from
/// `w.shape()[1]` or when `bias` (if present) has length ≠ `w.shape()[0]`.
pub fn linear(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> crate::Result<Tensor> {
    let (rows, k, n) = linear_dims(x, w, bias)?;
    let _span = quq_obs::span("gemm.matmul_nt");
    let out = f32_gemm(
        isa::resolve(),
        x.data(),
        w.data(),
        (rows, k, n),
        (1, k),
        bias.map(Tensor::data),
    );
    let mut shape = x.shape().to_vec();
    *shape.last_mut().expect("rank >= 1") = n;
    Tensor::from_vec(out, &shape)
}

/// `C[m,n] = A[m,k] · B (+ bias)` in `f32`, where `B(p, j)` is
/// `b[p·p_stride + j·j_stride]`: `(n, 1)` reads `B[k,n]`, `(1, k)` reads
/// `W[n,k]` as `Wᵀ`.
///
/// `B` is packed here, on the calling thread, into blocks of
/// [`isa::BLOCK`] columns, depth-major: value `p` of column `c` of block
/// `blk` sits at `(blk·k + p)·BLOCK + c`, zero past `n`. The pool's row
/// chunks then run [`F32Rows`] compiled for `which`.
fn f32_gemm(
    which: isa::Isa,
    a: &[f32],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    (p_stride, j_stride): (usize, usize),
    bias: Option<&[f32]>,
) -> Vec<f32> {
    record_gemm_work(m, k, n, 4, 4);
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return out;
    }
    let mut packed = vec![0.0f32; n.next_multiple_of(isa::BLOCK) * k];
    for j in 0..n {
        let (blk, c) = (j / isa::BLOCK, j % isa::BLOCK);
        for p in 0..k {
            packed[(blk * k + p) * isa::BLOCK + c] = b[p * p_stride + j * j_stride];
        }
    }
    pool::parallel_rows_mut(&mut out, n, ROW_GRAIN, |first_row, out| {
        let a = &a[first_row * k..][..out.len() / n * k];
        isa::vectorize(
            which,
            F32Rows {
                a,
                packed: &packed,
                k,
                n,
                bias,
                out,
            },
        );
    });
    out
}

/// Output rows of the FP32 GEMM: `out = A·B (+ bias)` for the rows of `a`,
/// with `B` packed by [`f32_gemm`]. A tile of [`F32_ROWS`] rows × one
/// block of 16 columns keeps its 64 sums in registers; each lane adds
/// `a[p]·b[p]` over ascending `p` from `0.0`, a multiply then an add, so
/// every output is the same sequential sum on every ISA (Rust neither
/// contracts nor reassociates float operations).
struct F32Rows<'a> {
    a: &'a [f32],
    packed: &'a [f32],
    k: usize,
    n: usize,
    bias: Option<&'a [f32]>,
    out: &'a mut [f32],
}

impl isa::Vectorized for F32Rows<'_> {
    #[inline(always)]
    fn run(self) {
        let (k, n) = (self.k, self.n);
        let rows = self.out.len() / n;
        for col in (0..n).step_by(isa::BLOCK) {
            let block = &self.packed[col * k..][..k * isa::BLOCK];
            let width = isa::BLOCK.min(n - col);
            let mut store = |row: usize, tile: &[[f32; isa::BLOCK]]| {
                for (r, sums) in tile.iter().enumerate() {
                    let dst = &mut self.out[(row + r) * n + col..][..width];
                    match self.bias {
                        Some(bias) => {
                            for ((o, &s), &b) in dst.iter_mut().zip(sums).zip(&bias[col..]) {
                                *o = s + b;
                            }
                        }
                        None => dst.copy_from_slice(&sums[..width]),
                    }
                }
            };
            let mut row = 0;
            while row + F32_ROWS <= rows {
                store(row, &f32_tile::<F32_ROWS>(&self.a[row * k..], k, block));
                row += F32_ROWS;
            }
            for row in row..rows {
                store(row, &f32_tile::<1>(&self.a[row * k..], k, block));
            }
        }
    }
}

/// The sums of `R` rows of `a` (row stride `k`) against one packed block.
#[inline(always)]
fn f32_tile<const R: usize>(a: &[f32], k: usize, block: &[f32]) -> [[f32; isa::BLOCK]; R] {
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..][..k]);
    let mut acc = [[0.0f32; isa::BLOCK]; R];
    for (p, b) in block.chunks_exact(isa::BLOCK).enumerate() {
        for (sums, row) in acc.iter_mut().zip(&rows) {
            let x = row[p];
            for (s, &w) in sums.iter_mut().zip(b) {
                *s += x * w;
            }
        }
    }
    acc
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
        // One tile over the same packed values: the same sums, bit for bit.
        assert_eq!(f32_bits(via_nt.data()), f32_bits(via_t.data()));
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
        // Sizes straddle the row tile, the column block and the ROW_GRAIN
        // chunk boundaries.
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

    /// `A[m,k] · B`, where `b(p, j)` reads `B[p, j]`, as one sequential sum
    /// per output: `0.0`, then `+ a[i,p]·b(p,j)` for ascending `p`, each
    /// product and each sum rounded on its own, then `+ bias[j]`.
    fn naive_f32(
        a: &[f32],
        (m, k, n): (usize, usize, usize),
        b: impl Fn(usize, usize) -> f32,
        bias: Option<&[f32]>,
    ) -> Vec<f32> {
        let mut out = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b(p, j);
                }
                out.push(bias.map_or(acc, |bias| acc + bias[j]));
            }
        }
        out
    }

    /// Bits of `v`, every NaN as one: Rust leaves a NaN's sign and payload
    /// unspecified, so NaNs match as NaNs and everything else bit for bit.
    fn f32_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// Normal values with NaN, ±∞, −0.0, +0.0 and subnormals mixed in.
    fn hostile_f32(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let v = standard_normal(rng);
                match (v.abs() * 1e4) as u32 % 23 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    5 => f32::MIN_POSITIVE * v * 0.25,
                    6 => f32::from_bits(1).copysign(v),
                    _ => v,
                }
            })
            .collect()
    }

    /// `matmul`, `matmul_nt` and `linear` (with and without a bias) equal
    /// the sequential sum bit for bit, and so does the kernel itself on
    /// every ISA: empty and single rows, rows around the 4-row tile,
    /// columns around the 16-lane block, `k` of 0, 1, 2 and 31, and
    /// operands holding NaN, ±∞, signed zeros and subnormals.
    #[test]
    fn f32_gemms_match_the_sequential_sum_bitwise() {
        let mut rng = StdRng::seed_from_u64(41);
        for m in [0usize, 1, 3, 4, 5, 17] {
            for n in [1usize, 15, 16, 17, 33] {
                for k in [0usize, 1, 2, 31] {
                    let a = hostile_f32(m * k, &mut rng);
                    let b = hostile_f32(k * n, &mut rng);
                    let bias = hostile_f32(n, &mut rng);
                    let at = t(&a, &[m, k]);
                    let what = format!("{m}x{k}x{n}");
                    // `b` read as `B[k, n]`, then as `W[n, k]`.
                    let want_kn = naive_f32(&a, (m, k, n), |p, j| b[p * n + j], None);
                    let got = matmul(&at, &t(&b, &[k, n])).unwrap();
                    assert_eq!(got.shape(), &[m, n]);
                    assert_eq!(f32_bits(got.data()), f32_bits(&want_kn), "matmul {what}");
                    let w = t(&b, &[n, k]);
                    let want = naive_f32(&a, (m, k, n), |p, j| b[j * k + p], None);
                    let got = matmul_nt(&at, &w).unwrap();
                    assert_eq!(f32_bits(got.data()), f32_bits(&want), "matmul_nt {what}");
                    let want_b = naive_f32(&a, (m, k, n), |p, j| b[j * k + p], Some(&bias));
                    for &which in isa::supported() {
                        let isa = which.name();
                        let dims = (m, k, n);
                        let got = f32_gemm(which, &a, &b, dims, (n, 1), None);
                        assert_eq!(f32_bits(&got), f32_bits(&want_kn), "{isa} B {what}");
                        let got = f32_gemm(which, &a, &b, dims, (1, k), None);
                        assert_eq!(f32_bits(&got), f32_bits(&want), "{isa} Wᵀ {what}");
                        let got = f32_gemm(which, &a, &b, dims, (1, k), Some(&bias));
                        assert_eq!(f32_bits(&got), f32_bits(&want_b), "{isa} Wᵀ+b {what}");
                    }
                    let got = linear(&at, &w, None).unwrap();
                    assert_eq!(f32_bits(got.data()), f32_bits(&want), "linear {what}");
                    let got = linear(&at, &w, Some(&t(&bias, &[n]))).unwrap();
                    assert_eq!(got.shape(), &[m, n]);
                    assert_eq!(
                        f32_bits(got.data()),
                        f32_bits(&want_b),
                        "linear+bias {what}"
                    );
                }
            }
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
