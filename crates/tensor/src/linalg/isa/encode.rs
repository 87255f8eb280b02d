//! QUB encoder kernels: `f32` → code byte or GEMM operand, exact and
//! branch-free.
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
//! The same pass can write, instead of the byte ([`Code`] `u8`), the
//! integer the byte decodes to, `D << n_sh` (Eq. 6/7) — the `i16` operand
//! the GEMM reads ([`Code`] `i16`). It is formed in-register from the
//! winning candidate: its code times its subrange's
//! [`step`](EncodeRange::step) `2^{n_sh}`, or the plan's operand for the
//! zero-nearest, NaN and ±∞ cases, so no byte is written or decoded.
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
//!
//! # The region path
//!
//! The search divides twice per element, yet its answer is fixed by where
//! the element lies. QUQ splits a tensor's range into at most four
//! zero-bounded uniform subranges (Eq. 3–4), so on one sign the values the
//! three candidates can take are the codes of two grids plus the code
//! nearest zero, and the search returns the one nearest `x`. Sorted, those
//! values fall into *runs* — consecutive codes of one subrange, or the
//! zero code alone (where a fine and a coarse code share a value, the
//! fine one is kept, as the search's tie-break does). When each sign has
//! at most three runs, [`Regions`] stores them: a region is the stretch
//! of `x` nearer one run than any other, bounded by the midpoints between
//! runs, and inside it the search's answer is that run's code
//! `clamp(round(x / Δ))` — the search's own division and rounding, once.
//! The AVX-512 kernel picks each lane's region with two compares and reads
//! its `Δ`, code bounds and byte flag or operand step from 6-entry tables.
//!
//! That answer equals the search's because, away from ties, the search's
//! rounded errors cannot reorder its candidates, each of which takes one
//! of the run values. A lane whose quotient lies at least `2^-14` from a
//! half-integer is nearer its code than any other value by `2^-13 · Δ`; a
//! lane at least `2^-14 · |b|` from a region bound `b` is nearer its own
//! run by `2^-13 · |b|`; past the last code the clamped candidates differ
//! by at least the base `Δ`. Each error is rounded by at most an ulp of
//! `x`: under `2^-15 · Δ` within a run, a quarter of the base `Δ` at the
//! reach `min Δ · 2^20`. And the `EPS` slack is under a fifth of the
//! smallest margin once `Δ ≥ 1e-7`.
//!
//! A whole group of sixteen lanes goes through the search, unchanged, when
//! any lane is NaN or ±∞, lies within `2^-14` (relative) of a region bound,
//! has a quotient `x / Δ` within `2^-14` of a half-integer, or lies beyond
//! `min Δ · 2^20`, where the candidates' rounded errors start to tie. A
//! plan with more than three runs on a side — the Softmax input, whose
//! coarse space is finer than its fine one, interleaves the two grids —
//! or with a `Δ` below `1e-7` has no tables and always searches. The AVX2
//! and scalar kernels always search.

use super::Isa;

/// The slack of `quantize`'s error comparisons.
pub(crate) const EPS: f32 = 1e-12;

/// One subrange as the kernels see it: its scale, its code bounds (as
/// `f32`, both within ±256), the operand step of its codes, and the
/// presence penalty (`0.0` or `+∞`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeRange {
    /// Scale factor `Δ` of the subrange.
    pub delta: f32,
    /// Smallest code.
    pub lo: f32,
    /// Largest code.
    pub hi: f32,
    /// `2^{n_sh}` of the subrange's codes: code `c` is the operand `c·step`
    /// (`D << n_sh`), exact in `f32` for every operand within `±2^14`.
    pub step: f32,
    /// `0.0` when the layout has this subrange, `+∞` when it does not.
    pub penalty: f32,
}

impl EncodeRange {
    /// The stand-in for a subrange the layout does not have.
    pub const ABSENT: Self = Self {
        delta: 1.0,
        lo: 0.0,
        hi: 0.0,
        step: 1.0,
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
    /// Operand (`D << n_sh`) of the code nearest zero.
    pub zero_operand: i16,
    /// Operand NaN encodes to.
    pub nan_operand: i16,
    /// Operand `+∞` encodes to.
    pub pos_inf_operand: i16,
    /// Operand `−∞` encodes to.
    pub neg_inf_operand: i16,
    /// The region tables of the fast path, when the plan has them (see
    /// [`EncodePlan::with_regions`]).
    pub regions: Option<Regions>,
}

impl EncodePlan {
    /// This plan with its [`Regions`] derived: `regions` is `None` when a
    /// sign needs more than three runs or a scale is below `1e-7`.
    pub fn with_regions(self) -> Self {
        Self {
            regions: Regions::derive(&self),
            ..self
        }
    }

    /// What a `T` output holds for the code nearest zero, NaN, `+∞` and
    /// `−∞`, widened to the kernels' `i32` lanes.
    #[inline(always)]
    pub(crate) fn specials<T: Code>(&self) -> [i32; 4] {
        if T::OPERAND {
            [
                self.zero_operand,
                self.nan_operand,
                self.pos_inf_operand,
                self.neg_inf_operand,
            ]
            .map(i32::from)
        } else {
            [
                self.zero_byte,
                self.nan_byte,
                self.pos_inf_byte,
                self.neg_inf_byte,
            ]
            .map(i32::from)
        }
    }
}

/// Distance from a tie, relative, below which a region-path lane falls
/// back to the search: `2^-14`.
pub(crate) const TIE_MARGIN: f32 = 1.0 / 16384.0;

/// The smallest scale the region path takes: at `Δ ≥ 1e-7` the narrowest
/// margin, `2^-14 · Δ`, is over five times [`EPS`].
const REGION_MIN_DELTA: f32 = 1e-7;

/// `2^20`: beyond `min Δ · 2^20` the candidates' rounded errors tie, so
/// such lanes fall back.
const REGION_REACH: f32 = 1_048_576.0;

/// Table entries per sign.
pub(crate) const SLOTS: usize = 3;

/// The region tables of a plan, six entries each: the runs of `x < 0`
/// in ascending order, padded to three, then those of every other `x`
/// (see the module docs). A region's code is
/// `clamp(round(x / delta), lo, hi)`; its byte is the code's payload bits
/// or'ed with `flag`, its operand the code times `step`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regions {
    /// Scale of each region's run; `+∞` for the zero code's, whose
    /// quotient is then always `0`.
    pub(crate) delta: [f32; 2 * SLOTS],
    /// Lowest code of each run.
    pub(crate) lo: [f32; 2 * SLOTS],
    /// Highest code of each run.
    pub(crate) hi: [f32; 2 * SLOTS],
    /// Operand step `2^{n_sh}` of each run's codes.
    pub(crate) step: [f32; 2 * SLOTS],
    /// Flag bits of each run's bytes: the fine flag or `0`.
    pub(crate) flag: [i32; 2 * SLOTS],
    /// Per sign (`[neg, pos]`), the lower edge of the fallback band around
    /// each bound between its regions, ascending: a lane at or above it
    /// lies past that bound. `+∞` for bounds the sign lacks.
    pub(crate) band_lo: [[f32; 2]; 2],
    /// The upper edges of the same bands.
    pub(crate) band_hi: [[f32; 2]; 2],
    /// `min Δ · 2^20`: lanes with a larger `|x|`, NaN and ±∞ fall back.
    pub(crate) reach: f32,
}

/// Where a run's values come from, in the order the search's tie-break
/// prefers them at an equal value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Source {
    Fine,
    Coarse,
    Zero,
}

/// One run of a sign's candidate values: codes `lo..=hi` of the fine or
/// the coarse subrange, or the zero code alone.
#[derive(Debug, Clone, Copy)]
struct Run {
    source: Source,
    delta: f32,
    lo: i32,
    hi: i32,
    step: f32,
    flag: i32,
    first: f32,
    last: f32,
}

impl Regions {
    /// The tables of `plan`, or `None` when a sign needs more than three
    /// runs, a scale is below `1e-7`, or `min Δ · 2^20` overflows.
    fn derive(plan: &EncodePlan) -> Option<Self> {
        let min_delta = [
            plan.neg.fine,
            plan.neg.coarse,
            plan.pos.fine,
            plan.pos.coarse,
        ]
        .iter()
        .filter(|r| r.penalty == 0.0)
        .map(|r| r.delta)
        .fold(f32::INFINITY, f32::min);
        let reach = min_delta * REGION_REACH;
        if !(min_delta >= REGION_MIN_DELTA && reach.is_finite()) {
            return None;
        }
        let mut tables = Self {
            delta: [0.0; 2 * SLOTS],
            lo: [0.0; 2 * SLOTS],
            hi: [0.0; 2 * SLOTS],
            step: [0.0; 2 * SLOTS],
            flag: [0; 2 * SLOTS],
            band_lo: [[f32::INFINITY; 2]; 2],
            band_hi: [[f32::INFINITY; 2]; 2],
            reach,
        };
        for (s, side) in [&plan.neg, &plan.pos].into_iter().enumerate() {
            let runs = runs(plan, side)?;
            if runs.len() > SLOTS {
                return None;
            }
            for slot in 0..SLOTS {
                let run = runs[slot.min(runs.len() - 1)];
                let at = s * SLOTS + slot;
                tables.delta[at] = run.delta;
                tables.lo[at] = run.lo as f32;
                tables.hi[at] = run.hi as f32;
                tables.step[at] = run.step;
                tables.flag[at] = run.flag;
            }
            for (j, pair) in runs.windows(2).enumerate() {
                let bound = (pair[0].last + pair[1].first) / 2.0;
                if bound == 0.0 {
                    return None;
                }
                let margin = bound.abs() * TIE_MARGIN;
                tables.band_lo[s][j] = bound - margin;
                tables.band_hi[s][j] = bound + margin;
            }
        }
        Some(tables)
    }
}

/// The runs of one sign's candidate values in ascending order, or `None`
/// when the zero code cannot be written as a run entry.
fn runs(plan: &EncodePlan, side: &EncodeSide) -> Option<Vec<Run>> {
    let byte = |code: i32, flag: i32| i32::from(code as u8 & plan.payload_mask) | flag;
    let range_run = |source: Source, r: &EncodeRange, code: i32, value: f32| Run {
        source,
        delta: r.delta,
        lo: code,
        hi: code,
        step: r.step,
        flag: if source == Source::Fine {
            plan.fine_flag.into()
        } else {
            0
        },
        first: value,
        last: value,
    };
    // The code nearest zero is `0` or `−1`; as a run entry it is that code
    // with the flag and step its byte and operand need.
    let zero_code = if plan.zero_value < 0.0 { -1 } else { 0 };
    let zero = Run {
        source: Source::Zero,
        delta: f32::INFINITY,
        lo: zero_code,
        hi: zero_code,
        step: if zero_code == 0 {
            1.0
        } else {
            -f32::from(plan.zero_operand)
        },
        flag: if plan.zero_fine {
            plan.fine_flag.into()
        } else {
            0
        },
        first: plan.zero_value,
        last: plan.zero_value,
    };
    if byte(zero.lo, zero.flag) != i32::from(plan.zero_byte)
        || zero.lo as f32 * zero.step != f32::from(plan.zero_operand)
    {
        return None;
    }
    // Every value a candidate can take, as a one-code run; at an equal
    // value the search keeps the fine code over the coarse one, and the
    // zero candidate equals the code it coincides with.
    let mut points = vec![zero];
    for (source, r) in [(Source::Fine, &side.fine), (Source::Coarse, &side.coarse)] {
        if r.penalty == 0.0 {
            for code in r.lo as i32..=r.hi as i32 {
                points.push(range_run(source, r, code, code as f32 * r.delta));
            }
        }
    }
    points.sort_by(|a, b| a.first.total_cmp(&b.first).then(a.source.cmp(&b.source)));
    let mut runs: Vec<Run> = Vec::new();
    for p in points {
        match runs.last_mut() {
            Some(run) if run.last == p.first => {
                if p.source == Source::Zero && byte(run.hi, run.flag) != i32::from(plan.zero_byte) {
                    return None;
                }
            }
            Some(run)
                if run.source == p.source && p.source != Source::Zero && run.hi + 1 == p.lo =>
            {
                run.hi = p.lo;
                run.last = p.first;
            }
            _ => runs.push(p),
        }
    }
    Some(runs)
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for i16 {}
}

/// What the encoder writes per value: `u8`, the code byte, or `i16`, the
/// GEMM operand `D << n_sh` that byte decodes to. Sealed: the SIMD kernels
/// store a vector of exactly these widths.
pub trait Code: sealed::Sealed + Copy {
    /// Whether this output is the operand rather than the byte.
    const OPERAND: bool;

    /// The output from an `i32` lane that holds a byte or an operand.
    fn from_lane(v: i32) -> Self;
}

impl Code for u8 {
    const OPERAND: bool = false;

    #[inline(always)]
    fn from_lane(v: i32) -> u8 {
        v as u8
    }
}

impl Code for i16 {
    const OPERAND: bool = true;

    #[inline(always)]
    fn from_lane(v: i32) -> i16 {
        v as i16
    }
}

/// Encodes `src` into `dst` — code bytes, or the operands they decode to
/// (see [`Code`]) — with the kernel of the resolved ISA
/// ([`super::resolve`], so `QUQ_FORCE_ISA` pins it) and returns the
/// kernel family that ran: [`Isa::Avx512`] for both AVX-512 entries. The
/// SIMD kernels take whole vectors; the remainder goes through the scalar
/// kernel. When the AVX-512 kernel runs a plan with [`Regions`] and the
/// recorder is on, the groups of sixteen it encoded on the region path
/// and those it sent to the search are added to the counters
/// `qub.encode_region_groups` and `qub.encode_fallback_groups`.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn encode_qub<T: Code>(plan: &EncodePlan, src: &[f32], dst: &mut [T]) -> Isa {
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
            let (done, fallback) = unsafe { super::avx512::encode_qub(plan, src, dst) };
            if plan.regions.is_some() && quq_obs::enabled() {
                let groups = (done / 16) as u64;
                quq_obs::add("qub.encode_region_groups", groups - fallback);
                quq_obs::add("qub.encode_fallback_groups", fallback);
            }
            (Isa::Avx512, done)
        }
        _ => (Isa::Scalar, 0),
    };
    encode_scalar(plan, &src[done..], &mut dst[done..]);
    family
}

/// The portable kernel, and every SIMD kernel's tail.
pub(crate) fn encode_scalar<T: Code>(plan: &EncodePlan, src: &[f32], dst: &mut [T]) {
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
fn encode_one<T: Code>(plan: &EncodePlan, x: f32) -> T {
    let side = if x < 0.0 { &plan.neg } else { &plan.pos };
    let (cf, ef, mf) = candidate(x, &side.fine);
    let (cc, ec, mc) = candidate(x, &side.coarse);
    let coarse_wins = (ec < ef - EPS) | (((ec - ef).abs() <= EPS) & (mc < mf));
    let (be, bm) = if coarse_wins { (ec, mc) } else { (ef, mf) };
    let (fine, coarse) = if T::OPERAND {
        ((cf * side.fine.step) as i32, (cc * side.coarse.step) as i32)
    } else {
        (
            i32::from((cf as i32 as u8 & plan.payload_mask) | plan.fine_flag),
            i32::from(cc as i32 as u8 & plan.payload_mask),
        )
    };
    let best = if coarse_wins { coarse } else { fine };
    let ez = (x - plan.zero_value).abs();
    let mz = plan.zero_value.abs();
    let zero_wins = (ez < be - EPS)
        | (((ez - be).abs() <= EPS) & ((mz < bm) | ((mz == bm) & plan.zero_fine & coarse_wins)));
    let [zero, nan, pos_inf, neg_inf] = plan.specials::<T>();
    let finite = if zero_wins { zero } else { best };
    let or_nan = if x.is_nan() { nan } else { finite };
    let or_pos = if x == f32::INFINITY { pos_inf } else { or_nan };
    T::from_lane(if x == f32::NEG_INFINITY {
        neg_inf
    } else {
        or_pos
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// A Mode-A-like plan written out by hand: fine Δ 0.25 on both sides,
    /// coarse Δ 1.0, 4-bit bytes (3 payload bits, split spaces). The base
    /// scale is the fine Δ, so fine codes step by 1 and coarse codes by 4.
    fn plan() -> EncodePlan {
        let range = |delta: f32, lo: f32, hi: f32| EncodeRange {
            delta,
            lo,
            hi,
            step: delta / 0.25,
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
            zero_operand: 0,
            nan_operand: 0,
            pos_inf_operand: 12,
            neg_inf_operand: -16,
            regions: None,
        }
        .with_regions()
    }

    /// The decoding unit for [`plan`]'s bytes: sign-extended 3-bit payload
    /// times the space's step.
    fn decode(byte: u8) -> i16 {
        let d = i16::from(byte & 0b0111) - if byte & 0b0100 != 0 { 8 } else { 0 };
        d * if byte & 0b1000 != 0 { 1 } else { 4 }
    }

    #[test]
    fn scalar_kernel_known_answers() {
        let p = plan();
        let one = |x: f32| -> u8 { encode_one(&p, x) };
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
        // The operand output is what those bytes decode to.
        let operand = |x: f32| -> i16 { encode_one(&p, x) };
        assert_eq!(operand(0.5), 2);
        assert_eq!(operand(2.0), 8);
        assert_eq!(operand(-3.2), -12);
        assert_eq!(operand(-0.5), -2);
        assert_eq!(operand(f32::INFINITY), 12);
        assert_eq!(operand(f32::NEG_INFINITY), -16);
    }

    /// [`plan`]'s tables: below zero the coarse codes −4..−2, the fine
    /// codes −4..−1 and the zero code, bounded at −1.5 and −0.125; from
    /// zero up the fine codes 0..3 and the coarse codes 1..3, bounded at
    /// 0.875. Coarse −1 and 0 share their values with fine codes, which
    /// keep them.
    #[test]
    fn regions_are_the_runs_of_candidate_values() {
        let r = plan().regions.expect("a Mode-A-like plan has tables");
        let inf = f32::INFINITY;
        assert_eq!(r.delta, [1.0, 0.25, inf, 0.25, 1.0, 1.0]);
        assert_eq!(r.lo, [-4.0, -4.0, 0.0, 0.0, 1.0, 1.0]);
        assert_eq!(r.hi, [-2.0, -1.0, 0.0, 3.0, 3.0, 3.0]);
        assert_eq!(r.step, [4.0, 1.0, 1.0, 1.0, 4.0, 4.0]);
        assert_eq!(r.flag, [0, 8, 8, 8, 0, 0]);
        let band = |b: f32| [b - b.abs() * TIE_MARGIN, b + b.abs() * TIE_MARGIN];
        let [lo0, hi0] = band(-1.5);
        let [lo1, hi1] = band(-0.125);
        let [lo2, hi2] = band(0.875);
        assert_eq!(r.band_lo, [[lo0, lo1], [lo2, inf]]);
        assert_eq!(r.band_hi, [[hi0, hi1], [hi2, inf]]);
        assert_eq!(r.reach, 0.25 * REGION_REACH);

        // With no negative side, every negative value is the zero code: one
        // constant region and no bound.
        let mut p = plan();
        p.neg = EncodeSide {
            fine: EncodeRange::ABSENT,
            coarse: EncodeRange::ABSENT,
        };
        let r = p
            .with_regions()
            .regions
            .expect("one run per sign below zero");
        assert_eq!(r.delta[..SLOTS], [inf; SLOTS]);
        assert_eq!(r.band_lo[0], [inf; 2]);
    }

    #[test]
    fn interleaved_grids_and_tiny_scales_have_no_regions() {
        // A coarse space finer than the fine one: coarse codes fall
        // between fine ones, five runs from zero up.
        let mut p = plan();
        p.pos.coarse.delta = 0.125;
        assert_eq!(p.with_regions().regions, None);
        // Every scale below 1e-7, where `EPS` is no longer small.
        let mut p = plan();
        for r in [
            &mut p.neg.fine,
            &mut p.neg.coarse,
            &mut p.pos.fine,
            &mut p.pos.coarse,
        ] {
            r.delta *= 1e-7;
        }
        assert_eq!(p.with_regions().regions, None);
    }

    /// The AVX-512 kernel takes a group on the region path when every lane
    /// is clear of ties, and searches a group with one lane on a region
    /// bound or NaN; the bytes are the scalar kernel's either way.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn region_path_takes_clear_groups_and_searches_the_rest() {
        if !super::super::supported().contains(&Isa::Avx512) {
            return;
        }
        let p = plan();
        let clear = [
            -4.0f32, -3.0, -2.0, -1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0,
            5.0, 100.0,
        ];
        let mut src = clear.repeat(3);
        src[16 + 5] = 0.875;
        src[32 + 9] = f32::NAN;
        let mut want = vec![0u8; src.len()];
        encode_scalar(&p, &src, &mut want);
        let mut got = vec![0u8; src.len()];
        // SAFETY: AVX-512 was detected above; the lengths agree.
        let (done, fallback) = unsafe { super::super::avx512::encode_qub(&p, &src, &mut got) };
        assert_eq!((done, fallback), (48, 2));
        assert_eq!(got, want);
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
            assert_eq!(encode_one::<u8>(&p, x), p.zero_byte, "{x}");
            assert_eq!(encode_one::<i16>(&p, x), p.zero_operand, "{x}");
        }
        p.pos.fine = EncodeRange::ABSENT;
        assert_eq!(encode_one::<u8>(&p, 0.3), p.zero_byte);
        assert_eq!(encode_one::<u8>(&p, 0.6), 0b0001);
        assert_eq!(encode_one::<i16>(&p, 0.6), 4);
    }

    /// Runs `isa`'s kernel over `src`, the scalar kernel over its tail.
    fn encode_on<T: Code>(isa: Isa, p: &EncodePlan, src: &[f32], dst: &mut [T]) {
        let done = match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the callers pass ISAs `supported()` detected; lengths agree.
            Isa::Avx2 => unsafe { super::super::avx2::encode_qub(p, src, dst) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            Isa::Avx512 | Isa::Avx512Vnni => unsafe {
                super::super::avx512::encode_qub(p, src, dst).0
            },
            _ => 0,
        };
        assert!(done <= src.len());
        encode_scalar(p, &src[done..], &mut dst[done..]);
    }

    /// Every kernel this host has, over every offset and length around the
    /// vector widths, for output `T`: an element's output must not depend
    /// on where in the slice it sits, which kernel took it, or what its
    /// neighbours are.
    fn kernels_match_scalar<T: Code + PartialEq + Debug>(p: &EncodePlan, values: &[f32], fill: T) {
        let mut want = vec![fill; values.len()];
        encode_scalar(p, values, &mut want);
        for &isa in super::super::supported() {
            for off in 0..20 {
                for len in 0..=(values.len() - off).min(70) {
                    let mut got = vec![fill; len];
                    encode_on(isa, p, &values[off..off + len], &mut got);
                    assert_eq!(got, want[off..off + len], "{} off {off}", isa.name());
                }
            }
        }
    }

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
        kernels_match_scalar(&p, &values, 0xffu8);
        kernels_match_scalar(&p, &values, i16::MIN);
        // And the operands are the bytes, decoded.
        let mut bytes = vec![0u8; values.len()];
        encode_scalar(&p, &values, &mut bytes);
        let mut operands = vec![0i16; values.len()];
        encode_scalar(&p, &values, &mut operands);
        assert_eq!(
            operands,
            bytes.iter().map(|&b| decode(b)).collect::<Vec<_>>()
        );
    }
}
