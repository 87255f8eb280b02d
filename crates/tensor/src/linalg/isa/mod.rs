//! Runtime ISA dispatch for the packed-i16 GEMM kernels, the QUB encoder
//! kernels ([`encode`]) and the plain-Rust loop bodies of [`Vectorized`] —
//! the one module that holds the forward's SIMD `unsafe`. (The store's
//! CRC-32 kernel lives with the checksum in `quq_store::crc32` and takes
//! its ISA from [`resolve`] too.)
//!
//! Every GEMM kernel here computes the same thing — a block of output rows
//! of `A[m,k] · B[n,k]ᵀ` with `B` in the packed layout of
//! [`crate::linalg::PackedB`] — through one register tile (`tile`) and
//! one loop nest (`nest`). The tile is *lane-per-output-column*: each
//! `i32` lane owns one output column, an `A` pair `(a[2p], a[2p+1])` is
//! broadcast as one `i32`, and a multiply-add of adjacent `i16` pairs
//! folds it into every lane at once, with no horizontal sum. ISAs differ
//! only in the `Lanes` operations the tile is built from:
//!
//! * [`scalar`] — portable `i32` arithmetic on 16-element arrays (also
//!   what aarch64 runs).
//! * [`avx2`] — `vpmaddwd` + `vpaddd` on two 8-lane `ymm` per block.
//! * [`avx512`] — `vpmaddwd` + `vpaddd` on one 16-lane `zmm` per block,
//!   or a single `vpdpwssd` where the host has `avx512vnni`.
//!
//! Exactness is what makes the dispatch safe to vary: every lane takes
//! `Gemm::chunk` pairs in `i32` — as many as `2·max|a|·max|b|·pairs ≤
//! i32::MAX` allows — then widens into an `i64` tile, so no intermediate
//! can wrap; integer addition is associative, and therefore every ISA
//! produces identical accumulators. The tile hands each finished block of
//! them to an `Epilogue` while it still holds it: `RawAcc` stores the
//! `i64`s, `Rescale` stores `acc as f32 · scale (+ bias)` — plain Rust
//! inlined into the ISA's `#[target_feature]` kernel, with the same
//! correctly rounded operations on every ISA.
//!
//! Selection happens **once per matmul** via [`resolve`] (the best
//! supported ISA, overridable with `QUQ_FORCE_ISA`), and the chosen kernel
//! travels down to the thread pool as a plain `GemmFn` pointer — workers
//! never re-query CPUID or the environment.
//!
//! Loops with no hand-written kernel — the FP32 GEMM tile of
//! [`crate::linalg::matmul_nt`] and the integer SFU rows — are written
//! once as a [`Vectorized`] body and compiled by
//! [`vectorize`] into one `#[target_feature]` entry per ISA, where the
//! compiler vectorizes them for that instruction set. A body has no
//! `unsafe` and no intrinsics, so every entry computes what the body says:
//! integer arithmetic is exact, Rust neither reassociates nor contracts
//! float operations, and a body uses only correctly rounded ones (`+ − ×
//! ÷`, `sqrt`, `floor`, conversions — no libm transcendental), so every
//! ISA produces the same bits.

pub mod encode;
pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;

pub use encode::{encode_qub, Code, EncodePlan, EncodeRange, EncodeSide, Regions};
use std::sync::OnceLock;

/// One kernel family. Ordering is preference: later variants are faster
/// on hosts that support them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Isa {
    /// Portable integer kernel; always available, always reachable.
    Scalar,
    /// x86-64 `vpmaddwd` on 256-bit registers.
    Avx2,
    /// x86-64 `vpmaddwd` on 512-bit registers (AVX-512F+BW; DQ and VL for
    /// the [`Vectorized`] bodies).
    Avx512,
    /// x86-64 `vpdpwssd` (AVX-512 VNNI) on 512-bit registers.
    Avx512Vnni,
}

impl Isa {
    /// Stable lowercase name used by `QUQ_FORCE_ISA` and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Avx512Vnni => "avx512vnni",
        }
    }

    /// Parses a `QUQ_FORCE_ISA` value (case-insensitive [`Isa::name`]).
    pub fn parse(s: &str) -> Option<Isa> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" => Some(Isa::Avx512),
            "avx512vnni" | "vnni" => Some(Isa::Avx512Vnni),
            _ => None,
        }
    }
}

/// ISAs usable on this host, detected once, preference-ordered ascending
/// (last entry is the default dispatch choice). Scalar is always present.
pub fn supported() -> &'static [Isa] {
    static SUPPORTED: OnceLock<Vec<Isa>> = OnceLock::new();
    SUPPORTED.get_or_init(|| {
        #[allow(unused_mut)]
        let mut v = vec![Isa::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(Isa::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                v.push(Isa::Avx512);
                if std::arch::is_x86_feature_detected!("avx512vnni") {
                    v.push(Isa::Avx512Vnni);
                }
            }
        }
        v
    })
}

/// The best ISA the host supports (no override applied).
pub fn detect() -> Isa {
    *supported().last().expect("scalar is always supported")
}

/// Resolves the ISA for one matmul (or checksum) call: `QUQ_FORCE_ISA`
/// when set (its value must name a *supported* ISA — forcing an
/// unsupported one is a loud panic, since silently falling back would
/// defeat the kernel-matrix tests), otherwise [`detect`]. Read on the calling thread only; pool
/// workers receive the resolved kernel pointer.
pub fn resolve() -> Isa {
    match std::env::var("QUQ_FORCE_ISA") {
        Ok(v) if !v.is_empty() => {
            let isa = Isa::parse(&v)
                .unwrap_or_else(|| panic!("QUQ_FORCE_ISA={v:?}: unknown ISA (see Isa::name)"));
            assert!(
                supported().contains(&isa),
                "QUQ_FORCE_ISA={}: not supported on this host (supported: {:?})",
                isa.name(),
                supported().iter().map(|i| i.name()).collect::<Vec<_>>(),
            );
            isa
        }
        _ => detect(),
    }
}

/// A loop body written once in plain Rust, for [`vectorize`] to compile
/// once per ISA.
pub trait Vectorized {
    /// Runs the body. Implementations mark it `#[inline(always)]`, and
    /// everything its hot loops call `#[inline]`, so that each ISA's entry
    /// compiles the whole loop nest with its own target features.
    fn run(self);
}

/// Runs `body` compiled for `isa` — [`resolve`] in production, so
/// `QUQ_FORCE_ISA` pins it like the GEMM and the encoder.
///
/// # Panics
///
/// Panics when the host does not support `isa`, so that entering a
/// `#[target_feature]` instance is always sound.
pub fn vectorize(isa: Isa, body: impl Vectorized) {
    assert!(
        supported().contains(&isa),
        "{} is not supported on this host",
        isa.name()
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `supported()` detected AVX2 on this CPU.
        Isa::Avx2 => unsafe { avx2::vectorized(body) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `supported()` lists either AVX-512 entry only after
        // detecting AVX-512F, BW, DQ and VL on this CPU.
        Isa::Avx512 | Isa::Avx512Vnni => unsafe { avx512::vectorized(body) },
        _ => body.run(),
    }
}

/// Output columns per packed `B` block: 16 lanes (`i32` in the integer
/// kernels, `f32` in the FP32 tile), one `zmm` or two `ymm`.
pub(crate) const BLOCK: usize = 16;

/// One `A[m,k] · B[n,k]ᵀ` as the kernels see it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gemm<'a> {
    /// `A`, row-major with row stride `k`.
    pub(crate) a: &'a [i16],
    /// `B` packed: `n.div_ceil(BLOCK)` blocks of `pairs() · 2·BLOCK`
    /// elements; within a block, pair `p` of column `c` sits at
    /// `2·BLOCK·p + 2·c` as `[b[c, 2p], b[c, 2p+1]]`, zero past `k` and
    /// past `n`.
    pub(crate) b: &'a [i16],
    /// Reduction depth.
    pub(crate) k: usize,
    /// Output columns.
    pub(crate) n: usize,
    /// Pairs an `i32` lane takes before it widens into `i64`: at most
    /// `i32::MAX / (2·max|a|·max|b|)`, at least 1.
    pub(crate) chunk: usize,
}

impl Gemm<'_> {
    /// `k` in pairs; the last one is half empty when `k` is odd.
    fn pairs(&self) -> usize {
        self.k.div_ceil(2)
    }

    /// Offset of column block `blk` in [`Gemm::b`].
    fn block_start(&self, blk: usize) -> usize {
        blk * self.pairs() * 2 * BLOCK
    }
}

/// An exact accumulator lane as the epilogue reads it: `i32` straight
/// from the registers when the whole depth fits one, `i64` after widening.
pub(crate) trait AccLane: Copy {
    /// The value, exactly.
    fn wide(self) -> i64;
    /// The value rounded to `f32` (to nearest, ties to even — the same for
    /// both widths, since they hold the same integer).
    fn to_f32(self) -> f32;
}

impl AccLane for i32 {
    #[inline(always)]
    fn wide(self) -> i64 {
        i64::from(self)
    }

    #[inline(always)]
    fn to_f32(self) -> f32 {
        self as f32
    }
}

impl AccLane for i64 {
    #[inline(always)]
    fn wide(self) -> i64 {
        self
    }

    #[inline(always)]
    fn to_f32(self) -> f32 {
        self as f32
    }
}

/// What the tile writes for each finished output: the accumulator itself
/// ([`RawAcc`]) or its rescaled value ([`Rescale`]). Applied once per
/// block of 16 outputs while the tile still holds them.
pub(crate) trait Epilogue: Sync {
    /// One output element.
    type Out: Copy + Default + Send;

    /// Writes `out[j]` from `lanes[j]`, the output in column `col + j`,
    /// for `j < out.len() ≤ 16`.
    fn store<A: AccLane>(&self, lanes: &[A; BLOCK], col: usize, out: &mut [Self::Out]);
}

/// The exact `i64` accumulators.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawAcc;

impl Epilogue for RawAcc {
    type Out = i64;

    #[inline(always)]
    fn store<A: AccLane>(&self, lanes: &[A; BLOCK], _col: usize, out: &mut [i64]) {
        for (o, &l) in out.iter_mut().zip(lanes) {
            *o = l.wide();
        }
    }
}

/// `acc as f32 * scale`, then `+ bias[col]` with a bias: each step
/// rounded on its own, as a rescale pass followed by a bias pass would.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rescale<'a> {
    pub(crate) scale: f32,
    /// One value per output column.
    pub(crate) bias: Option<&'a [f32]>,
}

impl Epilogue for Rescale<'_> {
    type Out = f32;

    #[inline(always)]
    fn store<A: AccLane>(&self, lanes: &[A; BLOCK], col: usize, out: &mut [f32]) {
        let scale = self.scale;
        match self.bias {
            Some(bias) => {
                let bias = &bias[col..col + out.len()];
                for ((o, &l), &b) in out.iter_mut().zip(lanes).zip(bias) {
                    *o = l.to_f32() * scale + b;
                }
            }
            None => {
                for (o, &l) in out.iter_mut().zip(lanes) {
                    *o = l.to_f32() * scale;
                }
            }
        }
    }
}

/// The operations a register tile is built from, over 16 `i32` lanes (one
/// packed block of output columns). Every method is `unsafe` because the
/// SIMD implementations need their target features present.
pub(crate) trait Lanes {
    /// Sixteen `i32` accumulator lanes.
    type Acc: Copy;
    /// One `A` pair, repeated across the lanes.
    type Pair: Copy;
    /// One pair of 16 packed `B` columns: 32 `i16`.
    type Cols: Copy;

    /// Zeroed accumulators.
    ///
    /// # Safety
    ///
    /// The implementation's target features are present.
    unsafe fn zero() -> Self::Acc;

    /// `[a[2p], a[2p+1]]` in every lane.
    ///
    /// # Safety
    ///
    /// As for [`Lanes::zero`].
    unsafe fn splat(pair: [i16; 2]) -> Self::Pair;

    /// The 32 `i16` at `b`.
    ///
    /// # Safety
    ///
    /// As for [`Lanes::zero`], and `b` is valid for 32 `i16` reads.
    unsafe fn load(b: *const i16) -> Self::Cols;

    /// `acc + a₀·b₀ + a₁·b₁` per lane. Exact while the lane stays within
    /// `i32`, which [`Gemm::chunk`] guarantees.
    ///
    /// # Safety
    ///
    /// As for [`Lanes::zero`].
    unsafe fn mac(acc: Self::Acc, a: Self::Pair, b: Self::Cols) -> Self::Acc;

    /// The 16 lanes, in order.
    ///
    /// # Safety
    ///
    /// As for [`Lanes::zero`].
    unsafe fn spill(acc: Self::Acc) -> [i32; BLOCK];

    /// Adds the 16 lanes into `wide`.
    ///
    /// # Safety
    ///
    /// As for [`Lanes::zero`].
    unsafe fn widen_add(acc: Self::Acc, wide: &mut [i64; BLOCK]);
}

/// Where one register tile sits: rows `row..` of the output block and
/// packed column blocks `blk..`.
#[derive(Debug, Clone, Copy)]
struct At {
    row: usize,
    blk: usize,
}

/// The multiply-adds of one register tile: rows `at.row .. +R` × blocks
/// `at.blk .. +C` of `A·Bᵀ` over pairs `lo..hi`, for the pool chunk that
/// starts at absolute row `first_row`. Per pair it loads `C` packed column
/// vectors, broadcasts `R` `A` pairs and issues `R·C` multiply-adds into
/// `R·C` accumulators that never leave registers.
///
/// # Safety
///
/// `L`'s target features are present, `at` comes from [`nest`], whose
/// assertions put every row and block the tile touches in bounds, and
/// `hi ≤ g.pairs()`.
#[inline(always)]
unsafe fn mac_pairs<L: Lanes, const R: usize, const C: usize>(
    g: &Gemm<'_>,
    first_row: usize,
    at: At,
    lo: usize,
    hi: usize,
) -> [[L::Acc; C]; R] {
    let arow: [usize; R] = std::array::from_fn(|i| (first_row + at.row + i) * g.k);
    let bcol: [usize; C] = std::array::from_fn(|c| g.block_start(at.blk + c));
    debug_assert!(arow[R - 1] + g.k <= g.a.len(), "A row out of bounds");
    debug_assert!(
        bcol[C - 1] + hi * 2 * BLOCK <= g.b.len(),
        "B block out of bounds"
    );
    // SAFETY: the caller vouches for `L`'s target features (the blocks
    // below rely on this too).
    let mut acc = [[unsafe { L::zero() }; C]; R];
    let whole = hi.min(g.k / 2);
    for p in lo..hi {
        let pair: [[i16; 2]; R] = if p < whole {
            std::array::from_fn(|i| {
                debug_assert!(arow[i] + 2 * p + 2 <= g.a.len());
                // SAFETY: `2p + 2 ≤ k`, so both elements lie in row `i`.
                let at = unsafe { g.a.as_ptr().add(arow[i] + 2 * p) };
                // SAFETY: and so two `i16` are readable at `at`.
                unsafe { at.cast::<[i16; 2]>().read_unaligned() }
            })
        } else {
            // Odd `k`: the last pair holds A's final element alone (B's
            // packed high half there is zero).
            std::array::from_fn(|i| [g.a[arow[i] + 2 * p], 0])
        };
        let cols: [L::Cols; C] = std::array::from_fn(|c| {
            let off = bcol[c] + 2 * BLOCK * p;
            debug_assert!(off + 2 * BLOCK <= g.b.len());
            // SAFETY: `p < hi ≤ pairs()`, so the 32 elements of pair `p`
            // lie inside block `at.blk + c`, which `nest` checked exists.
            let pair = unsafe { g.b.as_ptr().add(off) };
            // SAFETY: those 32 elements are readable at `pair`.
            unsafe { L::load(pair) }
        });
        for (row, &pair) in acc.iter_mut().zip(&pair) {
            // SAFETY: target features, as above.
            let va = unsafe { L::splat(pair) };
            for (a, &b) in row.iter_mut().zip(&cols) {
                // SAFETY: target features, as above.
                *a = unsafe { L::mac(*a, va, b) };
            }
        }
    }
    acc
}

/// The register tile: rows `at.row .. +R` × blocks `at.blk .. +C` of
/// `A·Bᵀ` over the whole depth, written through `epi` into `out`, the
/// output rows of the pool chunk that starts at absolute row `first_row`.
/// When the depth fits one run of [`Gemm::chunk`] pairs the epilogue reads
/// the `i32` lanes straight from the registers; otherwise each run widens
/// into an `i64` tile on the stack, and the epilogue reads that.
///
/// # Safety
///
/// As for [`mac_pairs`], and `out` is whole rows of `g.n` columns covering
/// the tile's rows.
#[inline(always)]
unsafe fn tile<L: Lanes, E: Epilogue, const R: usize, const C: usize>(
    g: &Gemm<'_>,
    epi: &E,
    first_row: usize,
    at: At,
    out: &mut [E::Out],
) {
    let pairs = g.pairs();
    // Output row `i`, block `c` of the tile: its first column and its
    // slice of `out` (16 columns, fewer in the last block).
    let place = |i: usize, c: usize| {
        let col = (at.blk + c) * BLOCK;
        let o = (at.row + i) * g.n + col;
        (col, o..o + (g.n - col).min(BLOCK))
    };
    if g.chunk >= pairs {
        // SAFETY: the caller's guarantees, with `pairs ≤ pairs()`.
        let acc = unsafe { mac_pairs::<L, R, C>(g, first_row, at, 0, pairs) };
        for (i, row) in acc.iter().enumerate() {
            for (c, &lanes) in row.iter().enumerate() {
                let (col, span) = place(i, c);
                // SAFETY: target features, as above.
                epi.store(&unsafe { L::spill(lanes) }, col, &mut out[span]);
            }
        }
        return;
    }
    let mut wide = [[[0i64; BLOCK]; C]; R];
    let mut lo = 0;
    while lo < pairs {
        let hi = (lo + g.chunk).min(pairs);
        // SAFETY: the caller's guarantees, with `hi ≤ pairs()`.
        let acc = unsafe { mac_pairs::<L, R, C>(g, first_row, at, lo, hi) };
        for (w, &a) in wide.iter_mut().flatten().zip(acc.iter().flatten()) {
            // SAFETY: target features, as above.
            unsafe { L::widen_add(a, w) };
        }
        lo = hi;
    }
    for (i, row) in wide.iter().enumerate() {
        for (c, lanes) in row.iter().enumerate() {
            let (col, span) = place(i, c);
            epi.store(lanes, col, &mut out[span]);
        }
    }
}

/// The loop nest every ISA's kernel expands: column tiles of `NB` blocks
/// outermost (a `B` tile stays in L1 while the chunk's rows stream past
/// it) and row tiles of `MR` inside. Remainders re-enter the *same*
/// [`tile`] at smaller const sizes: one row at a time, and the last
/// `1..NB` blocks together.
///
/// # Panics
///
/// Panics unless `out` is whole rows of `g.n` columns, `g.a` holds those
/// rows (from absolute row `first_row`) and `g.b` holds every block — the
/// bounds every pointer the tile forms relies on.
///
/// # Safety
///
/// `L`'s target features are present on this CPU.
#[inline(always)]
unsafe fn nest<L: Lanes, E: Epilogue, const MR: usize, const NB: usize>(
    g: &Gemm<'_>,
    epi: &E,
    out: &mut [E::Out],
    first_row: usize,
) {
    debug_assert!((1..=4).contains(&NB), "tiles span at most 4 blocks");
    assert!(g.n > 0 && g.chunk > 0 && out.len().is_multiple_of(g.n));
    let rows = out.len() / g.n;
    let blocks = g.n.div_ceil(BLOCK);
    assert!(
        (first_row + rows) * g.k <= g.a.len(),
        "A rows out of bounds"
    );
    assert!(g.block_start(blocks) <= g.b.len(), "B blocks out of bounds");
    let mut blk = 0;
    while blk < blocks {
        let nb = (blocks - blk).min(NB);
        let mut row = 0;
        while row < rows {
            let full = rows - row >= MR;
            let at = At { row, blk };
            // Every arm: the caller vouches for the target features; the
            // tile's rows (`MR` or 1 from `row`) and blocks (`nb` from
            // `blk`) are in bounds by the loop limits and the assertions
            // above.
            match (full, nb) {
                // SAFETY: as above.
                (true, 4) => unsafe { tile::<L, E, MR, 4>(g, epi, first_row, at, out) },
                // SAFETY: as above.
                (true, 3) => unsafe { tile::<L, E, MR, 3>(g, epi, first_row, at, out) },
                // SAFETY: as above.
                (true, 2) => unsafe { tile::<L, E, MR, 2>(g, epi, first_row, at, out) },
                // SAFETY: as above.
                (true, _) => unsafe { tile::<L, E, MR, 1>(g, epi, first_row, at, out) },
                // SAFETY: as above.
                (false, 4) => unsafe { tile::<L, E, 1, 4>(g, epi, first_row, at, out) },
                // SAFETY: as above.
                (false, 3) => unsafe { tile::<L, E, 1, 3>(g, epi, first_row, at, out) },
                // SAFETY: as above.
                (false, 2) => unsafe { tile::<L, E, 1, 2>(g, epi, first_row, at, out) },
                // SAFETY: as above.
                (false, _) => unsafe { tile::<L, E, 1, 1>(g, epi, first_row, at, out) },
            }
            row += if full { MR } else { 1 };
        }
        blk += nb;
    }
}

/// A GEMM kernel: writes `A·Bᵀ` through the epilogue into `out`, whole
/// output rows starting at absolute row `first_row` (the argument order
/// of [`crate::pool::parallel_rows_mut`]'s callback). It is an `unsafe
/// fn` because the SIMD kernels are `#[target_feature]` functions:
/// calling one requires the host to support its ISA, which [`gemm_fn`]
/// asserts before it hands the pointer out.
pub(crate) type GemmFn<E> = unsafe fn(&Gemm<'_>, &E, &mut [<E as Epilogue>::Out], usize);

/// The GEMM kernel of `isa` with epilogue `E`.
///
/// # Panics
///
/// Panics when the host does not support `isa`, so that calling the
/// returned kernel is always sound.
pub(crate) fn gemm_fn<E: Epilogue>(isa: Isa) -> GemmFn<E> {
    assert!(
        supported().contains(&isa),
        "{} is not supported on this host",
        isa.name()
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => avx2::gemm::<E>,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => avx512::gemm::<E>,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Vnni => avx512::gemm_vnni::<E>,
        _ => scalar::gemm::<E>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_supported_and_last_resort() {
        assert!(supported().contains(&Isa::Scalar));
        assert_eq!(supported()[0], Isa::Scalar);
        // Preference order is ascending: detect() picks the last entry.
        let d = detect();
        assert!(supported().iter().all(|i| *i <= d));
    }

    #[test]
    fn isa_names_round_trip() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Avx512Vnni] {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
        }
        assert_eq!(Isa::parse("mmx"), None);
        assert_eq!(Isa::parse("neon"), None);
    }

    #[test]
    fn every_supported_isa_has_a_gemm_kernel() {
        // A 2×3·(2×3)ᵀ product: one short block and an odd k.
        let a = [1i16, -2, 3, 4, 5, -6];
        let b = crate::linalg::PackedB::pack(&[7, 8, 9, -1, 2, 3], 2, 3);
        for &isa in supported() {
            // One pair per `i32` run (the widening path) and the whole
            // depth in one run (the registers path).
            for chunk in [1, 2] {
                let g = Gemm {
                    a: &a,
                    b: b.data(),
                    k: 3,
                    n: 2,
                    chunk,
                };
                let mut out = [0i64; 4];
                // SAFETY: `gemm_fn` asserted that the host supports `isa`.
                unsafe { gemm_fn(isa)(&g, &RawAcc, &mut out, 0) };
                assert_eq!(out, [18, 4, 14, -12], "{}", isa.name());
                let epi = Rescale {
                    scale: 0.5,
                    bias: Some(&[1.0, -1.0]),
                };
                let mut scaled = [0f32; 4];
                // SAFETY: as above.
                unsafe { gemm_fn(isa)(&g, &epi, &mut scaled, 0) };
                assert_eq!(scaled, [10.0, 1.0, 8.0, -7.0], "{}", isa.name());
            }
        }
    }

    #[test]
    fn every_supported_isa_runs_a_vectorized_body() {
        struct Square<'a>(&'a mut [i64]);
        impl Vectorized for Square<'_> {
            #[inline(always)]
            fn run(self) {
                for v in self.0.iter_mut() {
                    *v *= *v;
                }
            }
        }
        for &isa in supported() {
            let mut v: Vec<i64> = (-20..20).collect();
            vectorize(isa, Square(&mut v));
            let want: Vec<i64> = (-20i64..20).map(|x| x * x).collect();
            assert_eq!(v, want, "{}", isa.name());
        }
    }
}
