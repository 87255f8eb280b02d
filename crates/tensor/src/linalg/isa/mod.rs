//! Runtime ISA dispatch for the packed-i16 GEMM kernels, the QUB encoder
//! kernels ([`encode`]) and the plain-Rust loop bodies of [`Vectorized`] —
//! the one module that holds SIMD `unsafe`.
//!
//! Every GEMM kernel here computes the same thing — a block of output rows
//! of `A[m,k] · B[n,k]ᵀ` with `B` in the packed layout of
//! [`crate::linalg::PackedB`] — through one register tile ([`tile`]) and
//! one loop nest ([`nest`]). The tile is *lane-per-output-column*: each
//! `i32` lane owns one output column, an `A` pair `(a[2p], a[2p+1])` is
//! broadcast as one `i32`, and a multiply-add of adjacent `i16` pairs
//! folds it into every lane at once, with no horizontal sum. ISAs differ
//! only in the [`Lanes`] operations the tile is built from:
//!
//! * [`scalar`] — portable `i32` arithmetic on 16-element arrays (also
//!   what aarch64 runs).
//! * [`avx2`] — `vpmaddwd` + `vpaddd` on two 8-lane `ymm` per block.
//! * [`avx512`] — `vpmaddwd` + `vpaddd` on one 16-lane `zmm` per block,
//!   or a single `vpdpwssd` where the host has `avx512vnni`.
//!
//! Exactness is what makes the dispatch safe to vary: every lane takes
//! [`Gemm::chunk`] pairs in `i32` — as many as `2·max|a|·max|b|·pairs ≤
//! i32::MAX` allows — then widens into the `i64` output, so no
//! intermediate can wrap; integer addition is associative, and therefore
//! every ISA produces identical output bytes.
//!
//! Selection happens **once per matmul** via [`resolve`] (the best
//! supported ISA, overridable with `QUQ_FORCE_ISA`), and the chosen kernel
//! travels down to the thread pool as a plain [`GemmFn`] pointer — workers
//! never re-query CPUID or the environment.
//!
//! Loops with no hand-written kernel — the integer SFU rows, the GEMM
//! rescale — are written once as a [`Vectorized`] body and compiled by
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

pub use encode::{encode_qub, EncodePlan, EncodeRange, EncodeSide};
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

/// Resolves the ISA for one matmul call: `QUQ_FORCE_ISA` when set (its
/// value must name a *supported* ISA — forcing an unsupported one is a
/// loud panic, since silently falling back would defeat the kernel-matrix
/// tests), otherwise [`detect`]. Read on the calling thread only; pool
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

/// Output columns per packed `B` block: 16 `i32` lanes, one `zmm` or two
/// `ymm`.
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

    /// Adds the first `out.len()` (≤ 16) lanes of `acc` into `out`.
    ///
    /// # Safety
    ///
    /// As for [`Lanes::zero`].
    unsafe fn widen_add(acc: Self::Acc, out: &mut [i64]);
}

/// Where one register tile sits: rows `row..` of the output block, packed
/// column blocks `blk..`, and the pairs `lo..hi` it takes in `i32` before
/// widening.
#[derive(Debug, Clone, Copy)]
struct At {
    row: usize,
    blk: usize,
    lo: usize,
    hi: usize,
}

/// The register tile: adds rows `at.row .. +R` × blocks `at.blk .. +C` of
/// `A·Bᵀ` over pairs `at.lo..at.hi` into `out`, the output rows of the
/// pool chunk that starts at absolute row `first_row`. Per pair it loads
/// `C` packed column vectors, broadcasts `R` `A` pairs and issues `R·C`
/// multiply-adds into `R·C` accumulators that never leave registers.
///
/// # Safety
///
/// `L`'s target features are present, and `at` comes from [`nest`], whose
/// assertions put every row, block and pair the tile touches in bounds.
#[inline(always)]
unsafe fn tile<L: Lanes, const R: usize, const C: usize>(
    g: &Gemm<'_>,
    first_row: usize,
    at: At,
    out: &mut [i64],
) {
    let arow: [usize; R] = std::array::from_fn(|i| (first_row + at.row + i) * g.k);
    let bcol: [usize; C] = std::array::from_fn(|c| g.block_start(at.blk + c));
    debug_assert!(arow[R - 1] + g.k <= g.a.len(), "A row out of bounds");
    debug_assert!(
        bcol[C - 1] + at.hi * 2 * BLOCK <= g.b.len(),
        "B block out of bounds"
    );
    // SAFETY (this and the blocks below): the caller vouches for `L`'s
    // target features.
    let mut acc = [[unsafe { L::zero() }; C]; R];
    let whole = at.hi.min(g.k / 2);
    for p in at.lo..at.hi {
        let pair: [[i16; 2]; R] = if p < whole {
            std::array::from_fn(|i| {
                debug_assert!(arow[i] + 2 * p + 2 <= g.a.len());
                // SAFETY: `2p + 2 ≤ k`, so both elements lie in row `i`.
                unsafe {
                    g.a.as_ptr()
                        .add(arow[i] + 2 * p)
                        .cast::<[i16; 2]>()
                        .read_unaligned()
                }
            })
        } else {
            // Odd `k`: the last pair holds A's final element alone (B's
            // packed high half there is zero).
            std::array::from_fn(|i| [g.a[arow[i] + 2 * p], 0])
        };
        let cols: [L::Cols; C] = std::array::from_fn(|c| {
            let off = bcol[c] + 2 * BLOCK * p;
            debug_assert!(off + 2 * BLOCK <= g.b.len());
            // SAFETY: `p < at.hi ≤ pairs()`, so the 32 elements of pair `p`
            // lie inside block `at.blk + c`, which `nest` checked exists.
            unsafe { L::load(g.b.as_ptr().add(off)) }
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
    for (i, row) in acc.iter().enumerate() {
        for (c, &lanes) in row.iter().enumerate() {
            let col = (at.blk + c) * BLOCK;
            let o = (at.row + i) * g.n + col;
            let width = (g.n - col).min(BLOCK);
            // SAFETY: target features, as above.
            unsafe { L::widen_add(lanes, &mut out[o..o + width]) };
        }
    }
}

/// The loop nest every ISA's kernel expands: column tiles of `NB` blocks
/// outermost (a `B` tile stays in L1 while the chunk's rows stream past
/// it), row tiles of `MR` inside, and runs of [`Gemm::chunk`] pairs
/// innermost. Remainders re-enter the *same* [`tile`] at smaller const
/// sizes: one row at a time, and the last `1..NB` blocks together.
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
unsafe fn nest<L: Lanes, const MR: usize, const NB: usize>(
    g: &Gemm<'_>,
    out: &mut [i64],
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
            let mut lo = 0;
            while lo < g.pairs() {
                let hi = (lo + g.chunk).min(g.pairs());
                let at = At { row, blk, lo, hi };
                // SAFETY: the caller vouches for the target features; the
                // tile's rows (`MR` or 1 from `row`), blocks (`nb` from
                // `blk`) and pairs (`..hi ≤ pairs()`) are in bounds by the
                // loop limits and the assertions above.
                unsafe {
                    match (full, nb) {
                        (true, 4) => tile::<L, MR, 4>(g, first_row, at, out),
                        (true, 3) => tile::<L, MR, 3>(g, first_row, at, out),
                        (true, 2) => tile::<L, MR, 2>(g, first_row, at, out),
                        (true, _) => tile::<L, MR, 1>(g, first_row, at, out),
                        (false, 4) => tile::<L, 1, 4>(g, first_row, at, out),
                        (false, 3) => tile::<L, 1, 3>(g, first_row, at, out),
                        (false, 2) => tile::<L, 1, 2>(g, first_row, at, out),
                        (false, _) => tile::<L, 1, 1>(g, first_row, at, out),
                    }
                }
                lo = hi;
            }
            row += if full { MR } else { 1 };
        }
        blk += nb;
    }
}

/// Adds exact `i32` lanes into `i64` outputs.
#[inline(always)]
fn add_lanes(out: &mut [i64], lanes: &[i32]) {
    for (o, &l) in out.iter_mut().zip(lanes) {
        *o += i64::from(l);
    }
}

/// A GEMM kernel: adds `A·Bᵀ` into `out`, whole output rows starting at
/// absolute row `first_row` (the argument order of
/// [`crate::pool::parallel_rows_mut`]'s callback). It is an `unsafe fn`
/// because the SIMD kernels are `#[target_feature]` functions: calling
/// one requires the host to support its ISA, which [`gemm_fn`] asserts
/// before it hands the pointer out.
pub(crate) type GemmFn = unsafe fn(&Gemm<'_>, &mut [i64], usize);

/// The GEMM kernel of `isa`.
///
/// # Panics
///
/// Panics when the host does not support `isa`, so that calling the
/// returned kernel is always sound.
pub(crate) fn gemm_fn(isa: Isa) -> GemmFn {
    assert!(
        supported().contains(&isa),
        "{} is not supported on this host",
        isa.name()
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => avx2::gemm,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => avx512::gemm,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Vnni => avx512::gemm_vnni,
        _ => scalar::gemm,
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
            let g = Gemm {
                a: &a,
                b: b.data(),
                k: 3,
                n: 2,
                chunk: 1,
            };
            let mut out = [0i64; 4];
            // SAFETY: `gemm_fn` asserted that the host supports `isa`.
            unsafe { gemm_fn(isa)(&g, &mut out, 0) };
            assert_eq!(out, [18, 4, 14, -12], "{}", isa.name());
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
