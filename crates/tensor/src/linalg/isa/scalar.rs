//! Portable kernel: the register tile over plain 16-element arrays, what
//! every host can run and what aarch64 runs. The lane loops are simple
//! enough for the compiler to vectorize with the baseline instruction set.

use super::{Gemm, Lanes, BLOCK};

/// The portable [`Lanes`].
struct Scalar;

impl Lanes for Scalar {
    type Acc = [i32; BLOCK];
    type Pair = [i32; 2];
    type Cols = [i16; 2 * BLOCK];

    #[inline(always)]
    unsafe fn zero() -> Self::Acc {
        [0; BLOCK]
    }

    #[inline(always)]
    unsafe fn splat(pair: [i16; 2]) -> Self::Pair {
        pair.map(i32::from)
    }

    #[inline(always)]
    unsafe fn load(b: *const i16) -> Self::Cols {
        // SAFETY: the caller guarantees 32 readable `i16` at `b`.
        unsafe { b.cast::<[i16; 2 * BLOCK]>().read_unaligned() }
    }

    #[inline(always)]
    unsafe fn mac(mut acc: Self::Acc, a: Self::Pair, b: Self::Cols) -> Self::Acc {
        for (lane, col) in acc.iter_mut().zip(b.chunks_exact(2)) {
            *lane += a[0] * i32::from(col[0]) + a[1] * i32::from(col[1]);
        }
        acc
    }

    #[inline(always)]
    unsafe fn widen_add(acc: Self::Acc, out: &mut [i64]) {
        super::add_lanes(out, &acc);
    }
}

/// Portable GEMM kernel ([`super::GemmFn`]): 4-row × 1-block tiles.
pub(super) fn gemm(g: &Gemm<'_>, out: &mut [i64], first_row: usize) {
    // SAFETY: `Scalar` needs no target feature.
    unsafe { super::nest::<Scalar, 4, 1>(g, out, first_row) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::PackedB;

    #[test]
    fn tile_matches_naive_dot_across_tail_lengths() {
        // Depths straddle the pair boundary (odd k, k = 0), widths straddle
        // the 16-column block, and 5 rows leave a one-row tail.
        for k in [0usize, 1, 2, 3, 7, 8, 33] {
            for n in [1usize, 15, 16, 17] {
                let m = 5;
                let a: Vec<i16> = (0..m * k).map(|v| v as i16 - 3).collect();
                let b: Vec<i16> = (0..n * k).map(|v| (v as i16).wrapping_mul(7)).collect();
                let packed = PackedB::pack(&b, n, k);
                let g = Gemm {
                    a: &a,
                    b: packed.data(),
                    k,
                    n,
                    chunk: 2,
                };
                let mut out = vec![0i64; m * n];
                gemm(&g, &mut out, 0);
                for i in 0..m {
                    for j in 0..n {
                        let want: i64 = (0..k)
                            .map(|p| i64::from(a[i * k + p]) * i64::from(b[j * k + p]))
                            .sum();
                        assert_eq!(out[i * n + j], want, "k={k} n={n} ({i},{j})");
                    }
                }
            }
        }
    }
}
