//! QUB encoder kernels: `f32` → code byte, exact and branch-free.
//!
//! One element is encoded by forming the nearest code in the fine and in
//! the coarse subrange covering its sign, adding the code nearest zero as
//! a third candidate, and keeping the candidate with the smallest
//! reconstruction error (ties go to the smaller magnitude, then to the
//! fine space). `quq_core::QuqParams::quantize` states that rule with
//! `Option`s and a closure; the kernels here run the *same IEEE-754
//! operations in the same order* (`x / Δ`, round-half-even, clamp, `c·Δ`,
//! `|x − v|`, the two comparisons with their `1e-12` slack) as straight
//! lane-wise arithmetic over an [`EncodePlan`] of plain numbers, so the
//! bytes are identical by construction — on every ISA, at every slice
//! offset, for NaN and ±∞ too.
//!
//! Three things keep that true and must not be "optimized":
//!
//! * `x / Δ` is a real division. `Δ` is not a power of two, so a
//!   multiply by `1/Δ` differs in the last bit near rounding ties.
//! * No FMA: `c·Δ` is rounded before `x − v` is formed.
//! * A subrange the layout lacks is not skipped by a branch; it carries
//!   `penalty = +∞` on its error, which loses every comparison the way
//!   an absent candidate would. A present one adds `0.0` to a
//!   non-negative error, which changes no bit.

use super::Isa;

/// The slack of `quantize`'s error comparisons.
pub(crate) const EPS: f32 = 1e-12;

/// One subrange as the kernels see it: its scale, its code bounds (as
/// `f32`, both within ±256), and the presence penalty (`0.0` or `+∞`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeRange {
    /// Scale factor `Δ` of the subrange.
    pub delta: f32,
    /// Smallest code.
    pub lo: f32,
    /// Largest code.
    pub hi: f32,
    /// `0.0` when the layout has this subrange, `+∞` when it does not.
    pub penalty: f32,
}

impl EncodeRange {
    /// The stand-in for a subrange the layout does not have.
    pub const ABSENT: Self = Self {
        delta: 1.0,
        lo: 0.0,
        hi: 0.0,
        penalty: f32::INFINITY,
    };
}

/// The fine and coarse subranges covering one sign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeSide {
    /// Fine-space subrange (flag bit set in the byte).
    pub fine: EncodeRange,
    /// Coarse-space subrange.
    pub coarse: EncodeRange,
}

/// Everything the encoder needs about one quantizer, as plain numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodePlan {
    /// Subranges for `x < 0`.
    pub neg: EncodeSide,
    /// Subranges for every other `x` (including `−0.0`).
    pub pos: EncodeSide,
    /// `2^p − 1`: the payload bits of a byte.
    pub payload_mask: u8,
    /// `2^p`: the flag bit marking a fine-space byte.
    pub fine_flag: u8,
    /// Byte of the code nearest zero.
    pub zero_byte: u8,
    /// Value of the code nearest zero.
    pub zero_value: f32,
    /// Whether the code nearest zero lives in the fine space.
    pub zero_fine: bool,
    /// Byte NaN encodes to.
    pub nan_byte: u8,
    /// Byte `+∞` encodes to.
    pub pos_inf_byte: u8,
    /// Byte `−∞` encodes to.
    pub neg_inf_byte: u8,
}

/// Encodes `src` into `dst` with the kernel of the resolved ISA
/// ([`super::resolve`], so `QUQ_FORCE_ISA` pins it) and returns the
/// kernel family that ran: [`Isa::Avx512`] for both AVX-512 entries. The
/// SIMD kernels take whole vectors; the remainder goes through the scalar
/// kernel.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn encode_qub(plan: &EncodePlan, src: &[f32], dst: &mut [u8]) -> Isa {
    assert_eq!(src.len(), dst.len(), "one byte per value");
    let (family, done) = match super::resolve() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            // SAFETY: `resolve` only returns ISAs `supported()` detected on
            // this CPU, so AVX2 is present; the lengths were checked above.
            (Isa::Avx2, unsafe {
                super::avx2::encode_qub(plan, src, dst)
            })
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 | Isa::Avx512Vnni => {
            // SAFETY: as above; both entries imply AVX-512F.
            (Isa::Avx512, unsafe {
                super::avx512::encode_qub(plan, src, dst)
            })
        }
        _ => (Isa::Scalar, 0),
    };
    encode_scalar(plan, &src[done..], &mut dst[done..]);
    family
}

/// The portable kernel, and every SIMD kernel's tail.
pub(crate) fn encode_scalar(plan: &EncodePlan, src: &[f32], dst: &mut [u8]) {
    for (&x, b) in src.iter().zip(dst) {
        *b = encode_one(plan, x);
    }
}

/// `1.5 · 2^23`: adding and subtracting it rounds `|v| < 2^22` to the
/// nearest integer, ties to even, without the libm call `round_ties_even`
/// is at baseline x86-64.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Nearest code of `r` to `x` (as an integral `f32`), its penalized
/// error, and the magnitude of its value.
#[inline(always)]
#[allow(clippy::manual_clamp)]
fn candidate(x: f32, r: &EncodeRange) -> (f32, f32, f32) {
    // `max`/`min`, not `clamp`: `clamp` keeps a panicking `lo <= hi` check.
    let q = (x / r.delta).max(-1024.0).min(1024.0);
    let c = ((q + ROUND_MAGIC) - ROUND_MAGIC).max(r.lo).min(r.hi);
    let v = c * r.delta;
    (c, (x - v).abs() + r.penalty, v.abs())
}

#[inline(always)]
fn encode_one(plan: &EncodePlan, x: f32) -> u8 {
    let side = if x < 0.0 { &plan.neg } else { &plan.pos };
    let (cf, ef, mf) = candidate(x, &side.fine);
    let (cc, ec, mc) = candidate(x, &side.coarse);
    let coarse_wins = (ec < ef - EPS) | (((ec - ef).abs() <= EPS) & (mc < mf));
    let (be, bm) = if coarse_wins { (ec, mc) } else { (ef, mf) };
    let fine_byte = (cf as i32 as u8 & plan.payload_mask) | plan.fine_flag;
    let coarse_byte = cc as i32 as u8 & plan.payload_mask;
    let best = if coarse_wins { coarse_byte } else { fine_byte };
    let ez = (x - plan.zero_value).abs();
    let mz = plan.zero_value.abs();
    let zero_wins = (ez < be - EPS)
        | (((ez - be).abs() <= EPS) & ((mz < bm) | ((mz == bm) & plan.zero_fine & coarse_wins)));
    let finite = if zero_wins { plan.zero_byte } else { best };
    let or_nan = if x.is_nan() { plan.nan_byte } else { finite };
    let or_pos = if x == f32::INFINITY {
        plan.pos_inf_byte
    } else {
        or_nan
    };
    if x == f32::NEG_INFINITY {
        plan.neg_inf_byte
    } else {
        or_pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Mode-A-like plan written out by hand: fine Δ 0.25 on both sides,
    /// coarse Δ 1.0, 4-bit bytes (3 payload bits, split spaces).
    fn plan() -> EncodePlan {
        let range = |delta: f32, lo: f32, hi: f32| EncodeRange {
            delta,
            lo,
            hi,
            penalty: 0.0,
        };
        EncodePlan {
            neg: EncodeSide {
                fine: range(0.25, -4.0, -1.0),
                coarse: range(1.0, -4.0, -1.0),
            },
            pos: EncodeSide {
                fine: range(0.25, 0.0, 3.0),
                coarse: range(1.0, 0.0, 3.0),
            },
            payload_mask: 0b0111,
            fine_flag: 0b1000,
            zero_byte: 0b1000,
            zero_value: 0.0,
            zero_fine: true,
            nan_byte: 0b1000,
            pos_inf_byte: 0b0011,
            neg_inf_byte: 0b0100,
        }
    }

    #[test]
    fn scalar_kernel_known_answers() {
        let p = plan();
        let one = |x: f32| encode_one(&p, x);
        assert_eq!(one(0.0), 0b1000);
        assert_eq!(one(-0.0), 0b1000);
        assert_eq!(one(0.5), 0b1010); // fine code 2
        assert_eq!(one(0.125), 0b1000); // tie 0.5 rounds to even code 0
        assert_eq!(one(0.375), 0b1010); // tie 1.5 rounds to even code 2
        assert_eq!(one(2.0), 0b0010); // past fine max 0.75: coarse code 2
        assert_eq!(one(1e6), 0b0011); // clips at coarse max
                                      // So far out that every candidate's error rounds to the same f32:
                                      // the magnitude tie-break then picks the zero code, as `quantize` does.
        assert_eq!(one(1e30), p.zero_byte);
        assert_eq!(one(-0.5), 0b1110); // fine code −2
        assert_eq!(one(-3.2), 0b0101); // coarse code −3
        assert_eq!(one(f32::NAN), p.nan_byte);
        assert_eq!(one(f32::INFINITY), p.pos_inf_byte);
        assert_eq!(one(f32::NEG_INFINITY), p.neg_inf_byte);
    }

    #[test]
    fn absent_subranges_never_win() {
        let mut p = plan();
        p.neg = EncodeSide {
            fine: EncodeRange::ABSENT,
            coarse: EncodeRange::ABSENT,
        };
        // No negative side at all: every negative value is the zero code.
        for x in [-1e-9f32, -0.3, -7.0, -1e30] {
            assert_eq!(encode_one(&p, x), p.zero_byte, "{x}");
        }
        p.pos.fine = EncodeRange::ABSENT;
        assert_eq!(encode_one(&p, 0.3), p.zero_byte);
        assert_eq!(encode_one(&p, 0.6), 0b0001);
    }

    /// Every kernel this host has, over every offset and length around the
    /// vector widths: the byte of an element must not depend on where in
    /// the slice it sits, which kernel took it, or what its neighbours are.
    #[test]
    fn every_supported_kernel_matches_the_scalar_kernel() {
        let p = plan();
        let values: Vec<f32> = (0..96)
            .map(|i| match i % 12 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -0.0,
                4 => f32::MIN_POSITIVE / 4.0,
                _ => (i as f32 - 48.0) * 0.0625,
            })
            .collect();
        let mut want = vec![0u8; values.len()];
        encode_scalar(&p, &values, &mut want);
        for &isa in super::super::supported() {
            for off in 0..20 {
                for len in 0..=(values.len() - off).min(70) {
                    let mut got = vec![0xffu8; len];
                    let src = &values[off..off + len];
                    let done = match isa {
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: `supported()` detected the ISA; lengths agree.
                        Isa::Avx2 => unsafe { super::super::avx2::encode_qub(&p, src, &mut got) },
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: as above.
                        Isa::Avx512 | Isa::Avx512Vnni => unsafe {
                            super::super::avx512::encode_qub(&p, src, &mut got)
                        },
                        _ => 0,
                    };
                    assert!(done <= len);
                    encode_scalar(&p, &src[done..], &mut got[done..]);
                    assert_eq!(got, want[off..off + len], "{} off {off}", isa.name());
                }
            }
        }
    }
}
