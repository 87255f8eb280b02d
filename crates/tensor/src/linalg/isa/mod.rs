//! Runtime ISA dispatch for the packed-i16 GEMM microkernels and the QUB
//! encoder kernels ([`encode`]) — the one module that holds SIMD `unsafe`.
//!
//! Every kernel family here computes the same thing — a block of output
//! rows of `A[m,k] · B[n,k]ᵀ` with exact `i64` accumulation — through the
//! same loop nest ([`nest_loops!`]) over a register tile of `MR` output
//! rows × `JB` output columns. Families differ only in how the innermost
//! `MR×JB` tile folds panel elements:
//!
//! * [`scalar`] — portable four-product `i32` chunks widened to `i64`.
//! * [`avx2`] — `vpmaddwd` on 16-lane `ymm`, two steps per widen.
//! * [`avx512`] — `vpmaddwd` on 32-lane `zmm`, plus a `vpdpwssd` (VNNI)
//!   variant where the host has `avx512vnni`.
//! * [`neon`] — `smlal`/`smlal2` (`vmull_s16`) with per-step pairwise
//!   widening on aarch64.
//!
//! Exactness is what makes the dispatch safe to vary: under the
//! [`crate::linalg::PANEL_BOUND`] contract every intermediate fits its
//! lane exactly, integer addition is associative, and therefore every
//! ISA × tile-shape combination produces identical output bytes.
//!
//! Selection happens **once per matmul** via [`resolve`] (the best
//! supported ISA, overridable with `QUQ_FORCE_ISA`), and the chosen
//! monomorphized kernel travels down to the thread pool as a plain
//! [`BlockFn`] pointer — workers never re-query CPUID or the
//! environment.

pub mod encode;
pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;
#[cfg(target_arch = "aarch64")]
pub mod neon;

pub use encode::{encode_qub, EncodePlan, EncodeRange, EncodeSide};
use std::sync::OnceLock;

/// One microkernel family. Ordering is preference: later variants are
/// faster on hosts that support them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Isa {
    /// Portable integer kernel; always available, always reachable.
    Scalar,
    /// aarch64 `smlal` family via `vmull_s16`/`vpadalq_s32`.
    Neon,
    /// x86-64 `vpmaddwd` on 256-bit registers.
    Avx2,
    /// x86-64 `vpmaddwd` on 512-bit registers (AVX-512F+BW).
    Avx512,
    /// x86-64 `vpdpwssd` (AVX-512 VNNI) on 512-bit registers.
    Avx512Vnni,
}

impl Isa {
    /// Stable lowercase name used by `QUQ_FORCE_ISA` and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Neon => "neon",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Avx512Vnni => "avx512vnni",
        }
    }

    /// Parses a `QUQ_FORCE_ISA` value (case-insensitive [`Isa::name`]).
    pub fn parse(s: &str) -> Option<Isa> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "neon" => Some(Isa::Neon),
            "avx2" => Some(Isa::Avx2),
            "avx512" => Some(Isa::Avx512),
            "avx512vnni" | "vnni" => Some(Isa::Avx512Vnni),
            _ => None,
        }
    }

    /// Panel elements consumed per SIMD step — the tuner pads candidate
    /// `KC` values to this and the prior uses it as the PE-array width.
    pub fn i16_lanes(self) -> usize {
        match self {
            Isa::Scalar => 4,
            Isa::Neon => 8,
            Isa::Avx2 => 16,
            Isa::Avx512 | Isa::Avx512Vnni => 32,
        }
    }

    /// Architectural vector registers available to the register tile.
    pub fn vector_regs(self) -> usize {
        match self {
            // The scalar kernel lives in GPRs; 16 is the effective budget.
            Isa::Scalar => 16,
            Isa::Neon => 32,
            Isa::Avx2 => 16,
            Isa::Avx512 | Isa::Avx512Vnni => 32,
        }
    }
}

/// ISAs usable on this host, detected once, preference-ordered ascending
/// (last entry is the default dispatch choice). Scalar is always present.
pub fn supported() -> &'static [Isa] {
    static SUPPORTED: OnceLock<Vec<Isa>> = OnceLock::new();
    SUPPORTED.get_or_init(|| {
        let mut v = vec![Isa::Scalar];
        #[cfg(target_arch = "aarch64")]
        if std::arch::is_aarch64_feature_detected!("neon") {
            v.push(Isa::Neon);
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                v.push(Isa::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
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

/// A monomorphized block kernel: computes `block` (a chunk of whole output
/// rows starting at `first_row`) of `A·Bᵀ`, accumulating into `block`.
/// Arguments: `(a, b, block, first_row, k, n, kc)`.
pub type BlockFn = fn(&[i16], &[i16], &mut [i64], usize, usize, usize, usize);

/// Returns the kernel for `(isa, mr, jb)`, or `None` when the pair is
/// outside the monomorphized lattice (`mr ∈ {1,2,4}`, `jb ∈ {2,4,8}`).
/// The tuner only proposes lattice points; `None` here means a caller
/// bypassed it.
pub fn block_fn(isa: Isa, mr: usize, jb: usize) -> Option<BlockFn> {
    match isa {
        Isa::Scalar => scalar::block_fn(mr, jb),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => avx2::block_fn(mr, jb),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => avx512::block_fn(mr, jb),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Vnni => avx512::vnni_block_fn(mr, jb),
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => neon::block_fn(mr, jb),
        #[allow(unreachable_patterns)]
        _ => None,
    }
}

/// Best-effort prefetch of the cache line at `p` into L1. `p` may be any
/// address (formed with `wrapping_add`); prefetches never fault.
#[inline(always)]
pub(crate) fn prefetch_i16(p: *const i16) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it performs no memory access that
    // can fault and SSE is baseline on x86_64.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// The shared loop nest every ISA's block kernel expands: `KC`-deep panels
/// of `k` (outermost, so a panel of `B` is reused across all rows of the
/// block), row groups of `MR`, column tiles of `JB`. Row and column
/// remainders re-enter the *same* generic tile body at width 1 — there is
/// exactly one accumulation body per ISA, so a tile-shape change cannot
/// desync main loop and tail.
///
/// `$tile` is the ISA's `unsafe fn tile<const MR, const JB>(a, ak, b, bk,
/// len, &mut [[i64; JB]; MR])` microkernel; `$mr`/`$jb` are the enclosing
/// function's const generic parameters. While a tile at column `j` is
/// computed, the first line of each B row of tile `j + JB` is prefetched.
///
/// Accumulation order for one output element is: panels ascending, `p`
/// ascending within a panel — identical for every `(MR, JB, KC)` and
/// every ISA, and exact, hence bit-identical everywhere.
macro_rules! nest_loops {
    ($tile:ident, $mr:ident, $jb:ident,
     $ad:expr, $bd:expr, $block:expr, $first_row:expr, $k:expr, $n:expr, $kc:expr) => {{
        let ad: &[i16] = $ad;
        let bd: &[i16] = $bd;
        let block: &mut [i64] = $block;
        let (first_row, k, n) = ($first_row, $k, $n);
        let kc: usize = ($kc).max(1);
        let rows = if n == 0 { 0 } else { block.len() / n };
        let mut panel_start = 0usize;
        while panel_start < k || (k == 0 && panel_start == 0) {
            let plen = kc.min(k - panel_start);
            let mut r = 0usize;
            while r < rows {
                let rh = if rows - r >= $mr { $mr } else { 1 };
                let abase = (first_row + r) * k + panel_start;
                let mut j = 0usize;
                while j + $jb <= n {
                    // Prefetch the first line of each B row of the next
                    // column tile while this one computes.
                    let mut jj = 0usize;
                    while jj < $jb {
                        if j + $jb + jj < n {
                            $crate::linalg::isa::prefetch_i16(
                                bd.as_ptr().wrapping_add((j + $jb + jj) * k + panel_start),
                            );
                        }
                        jj += 1;
                    }
                    let bbase = j * k + panel_start;
                    if rh == $mr {
                        let mut acc = [[0i64; $jb]; $mr];
                        // SAFETY: rows `first_row+r .. +rh` and columns
                        // `j .. j+$jb` are in bounds, and the tile reads
                        // `plen ≤ k - panel_start` elements per row.
                        unsafe {
                            $tile::<$mr, $jb>(
                                ad.as_ptr().add(abase),
                                k,
                                bd.as_ptr().add(bbase),
                                k,
                                plen,
                                &mut acc,
                            )
                        };
                        let mut i = 0usize;
                        while i < $mr {
                            let orow = (r + i) * n + j;
                            let mut jj = 0usize;
                            while jj < $jb {
                                block[orow + jj] += acc[i][jj];
                                jj += 1;
                            }
                            i += 1;
                        }
                    } else {
                        let mut acc = [[0i64; $jb]; 1];
                        // SAFETY: as above with a single row.
                        unsafe {
                            $tile::<1, $jb>(
                                ad.as_ptr().add(abase),
                                k,
                                bd.as_ptr().add(bbase),
                                k,
                                plen,
                                &mut acc,
                            )
                        };
                        let orow = r * n + j;
                        let mut jj = 0usize;
                        while jj < $jb {
                            block[orow + jj] += acc[0][jj];
                            jj += 1;
                        }
                    }
                    j += $jb;
                }
                while j < n {
                    let bbase = j * k + panel_start;
                    if rh == $mr {
                        let mut acc = [[0i64; 1]; $mr];
                        // SAFETY: as above with a single column.
                        unsafe {
                            $tile::<$mr, 1>(
                                ad.as_ptr().add(abase),
                                k,
                                bd.as_ptr().add(bbase),
                                k,
                                plen,
                                &mut acc,
                            )
                        };
                        let mut i = 0usize;
                        while i < $mr {
                            block[(r + i) * n + j] += acc[i][0];
                            i += 1;
                        }
                    } else {
                        let mut acc = [[0i64; 1]; 1];
                        // SAFETY: as above with a single row and column.
                        unsafe {
                            $tile::<1, 1>(
                                ad.as_ptr().add(abase),
                                k,
                                bd.as_ptr().add(bbase),
                                k,
                                plen,
                                &mut acc,
                            )
                        };
                        block[r * n + j] += acc[0][0];
                    }
                    j += 1;
                }
                r += rh;
            }
            if k == 0 {
                break;
            }
            panel_start += kc;
        }
    }};
}

pub(crate) use nest_loops;

/// Expands the standard per-ISA plumbing around [`nest_loops!`]: a `nest`
/// function carrying the ISA's `#[target_feature]` attributes, a safe
/// `block::<MR, JB>` wrapper that coerces to [`BlockFn`], and a
/// `block_fn(mr, jb)` lattice lookup. `$($feat)?` is the optional
/// target-feature string; `$detect` is a closure-free debug check that
/// the feature is actually present.
macro_rules! isa_block_family {
    ($block_fn:ident, $nest:ident, $tile:ident $(, $feat:literal)?) => {
        $(#[target_feature(enable = $feat)])?
        unsafe fn $nest<const MR: usize, const JB: usize>(
            ad: &[i16],
            bd: &[i16],
            block: &mut [i64],
            first_row: usize,
            k: usize,
            n: usize,
            kc: usize,
        ) {
            $crate::linalg::isa::nest_loops!($tile, MR, JB, ad, bd, block, first_row, k, n, kc);
        }

        /// Monomorphized lattice of `(MR, JB)` register tiles.
        pub(crate) fn $block_fn(mr: usize, jb: usize) -> Option<$crate::linalg::isa::BlockFn> {
            fn block<const MR: usize, const JB: usize>(
                ad: &[i16],
                bd: &[i16],
                block: &mut [i64],
                first_row: usize,
                k: usize,
                n: usize,
                kc: usize,
            ) {
                // SAFETY: kernels are only handed out through
                // `isa::block_fn`, whose callers resolve a *supported*
                // ISA first (`resolve`/tuner), so the target features the
                // nest was compiled for are present at runtime.
                unsafe { $nest::<MR, JB>(ad, bd, block, first_row, k, n, kc) }
            }
            Some(match (mr, jb) {
                (1, 2) => block::<1, 2>,
                (1, 4) => block::<1, 4>,
                (1, 8) => block::<1, 8>,
                (2, 2) => block::<2, 2>,
                (2, 4) => block::<2, 4>,
                (2, 8) => block::<2, 8>,
                (4, 2) => block::<4, 2>,
                (4, 4) => block::<4, 4>,
                (4, 8) => block::<4, 8>,
                _ => return None,
            })
        }
    };
}

pub(crate) use isa_block_family;

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
        for isa in [
            Isa::Scalar,
            Isa::Neon,
            Isa::Avx2,
            Isa::Avx512,
            Isa::Avx512Vnni,
        ] {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
        }
        assert_eq!(Isa::parse("mmx"), None);
    }

    #[test]
    fn every_supported_isa_has_a_full_lattice() {
        for &isa in supported() {
            for mr in [1, 2, 4] {
                for jb in [2, 4, 8] {
                    assert!(
                        block_fn(isa, mr, jb).is_some(),
                        "{} missing ({mr},{jb})",
                        isa.name()
                    );
                }
            }
        }
        assert!(block_fn(Isa::Scalar, 3, 4).is_none());
        assert!(block_fn(Isa::Scalar, 1, 16).is_none());
    }
}
