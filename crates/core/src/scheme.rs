//! The quadruplet uniform quantization scheme — Eq. 3 and Eq. 4, modes A–D.
//!
//! A *b*-bit QUQ code has one flag bit selecting the **fine** or **coarse**
//! encoding space, plus a `p = b − 1`-bit payload. Each space is either
//!
//! * **split** — the payload is a signed integer; negative codes belong to
//!   the negative subrange (scale `Δ_neg`), non-negative codes to the
//!   positive subrange (scale `Δ_pos`); or
//! * **merged** to one side of zero — the payload addresses `2^p` codes on
//!   that side only (paper §3.2, "merging of encoding spaces").
//!
//! Mode A = both spaces split; Mode B = both merged to the same side;
//! Mode C = fine split, coarse merged; Mode D = fine and coarse merged to
//! opposite sides. Scale factors are constrained to power-of-two multiples
//! of a shared base `Δ` (Eq. 4), so hardware only shifts (Eq. 5).

use quq_tensor::Tensor;
use std::fmt;

/// Maximum `log2(Δ_subrange / Δ_base)` encodable in the 3-bit FC-register
/// shift fields (paper Fig. 5).
pub const MAX_SHIFT: u32 = 7;

/// Layout of one encoding space (fine or coarse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpaceLayout {
    /// Signed payload covering both sides of zero.
    Split {
        /// Scale factor of the negative subrange.
        neg: f32,
        /// Scale factor of the positive subrange.
        pos: f32,
    },
    /// Unsigned payload covering only negative values (codes `−2^p..−1`).
    MergedNeg {
        /// Scale factor of the subrange.
        delta: f32,
    },
    /// Unsigned payload covering only non-negative values (codes `0..2^p−1`).
    MergedPos {
        /// Scale factor of the subrange.
        delta: f32,
    },
}

impl SpaceLayout {
    /// Scale factor applied to negative values, if this space covers them.
    pub fn neg_delta(&self) -> Option<f32> {
        match *self {
            SpaceLayout::Split { neg, .. } => Some(neg),
            SpaceLayout::MergedNeg { delta } => Some(delta),
            SpaceLayout::MergedPos { .. } => None,
        }
    }

    /// Scale factor applied to non-negative values, if covered.
    pub fn pos_delta(&self) -> Option<f32> {
        match *self {
            SpaceLayout::Split { pos, .. } => Some(pos),
            SpaceLayout::MergedPos { delta } => Some(delta),
            SpaceLayout::MergedNeg { .. } => None,
        }
    }

    /// Code range `[lo, hi]` for negative-side values, given payload bits `p`.
    pub(crate) fn neg_code_range(&self, p: u32) -> Option<(i32, i32)> {
        match self {
            SpaceLayout::Split { .. } => Some((-(1 << (p - 1)), -1)),
            SpaceLayout::MergedNeg { .. } => Some((-(1 << p), -1)),
            SpaceLayout::MergedPos { .. } => None,
        }
    }

    /// Code range `[lo, hi]` for non-negative values, given payload bits `p`.
    pub(crate) fn pos_code_range(&self, p: u32) -> Option<(i32, i32)> {
        match self {
            SpaceLayout::Split { .. } => Some((0, (1 << (p - 1)) - 1)),
            SpaceLayout::MergedPos { .. } => Some((0, (1 << p) - 1)),
            SpaceLayout::MergedNeg { .. } => None,
        }
    }
}

/// The four quantization-point modes of the paper's Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// General form: four subranges, no merging.
    A,
    /// Both spaces merged to the same side (single-signed data).
    B,
    /// Fine split, coarse merged (no outliers on one side).
    C,
    /// Fine and coarse merged to opposite sides (dual uniform).
    D,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A quantized QUQ code: which encoding space it lives in plus its payload
/// value `D` (the decoded signed integer of Eq. 7, *before* the shift).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuqCode {
    /// `true` = fine space, `false` = coarse space (the QUB flag bit).
    pub fine: bool,
    /// Signed payload value.
    pub code: i32,
}

/// Complete parameter set of a *b*-bit quadruplet uniform quantizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuqParams {
    bits: u32,
    fine: SpaceLayout,
    coarse: SpaceLayout,
}

/// Error for invalid QUQ parameter combinations.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidParams(pub String);

impl fmt::Display for InvalidParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid QUQ parameters: {}", self.0)
    }
}

impl std::error::Error for InvalidParams {}

impl QuqParams {
    /// Builds and validates a parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParams`] when:
    /// * `bits` is outside `2..=8` (a QUB needs a flag bit + payload, and the
    ///   paper's QUBs are at most a byte);
    /// * any scale factor is non-positive or non-finite;
    /// * the scale factors violate Eq. 4 (each must equal `2^k · Δ_base`
    ///   exactly in f32, for integer `k` in `0..=`[`MAX_SHIFT`]).
    ///
    /// Every pairing of layouts is accepted, including all-negative ones
    /// (Mode B on non-positive data, where no code is exactly zero): there
    /// `0.0`, NaN and every positive input map to the smallest-magnitude
    /// negative code, fine `−1`.
    pub fn new(bits: u32, fine: SpaceLayout, coarse: SpaceLayout) -> Result<Self, InvalidParams> {
        if !(2..=8).contains(&bits) {
            return Err(InvalidParams(format!("bit-width {bits} outside 2..=8")));
        }
        let params = Self { bits, fine, coarse };
        for d in params.deltas() {
            if !(d.is_finite() && d > 0.0) {
                return Err(InvalidParams(format!("non-positive scale factor {d}")));
            }
        }
        // Eq. 4: every scale is exactly `2^k · Δ_base` in f32, with `k`
        // within the 3-bit shift budget. The FC registers store only `k`, so
        // a scale off by even one ulp would not survive the wire.
        let base = params.base_delta();
        for d in params.deltas() {
            let k = (d / base).log2().round();
            if !(0.0..=MAX_SHIFT as f32).contains(&k) {
                return Err(InvalidParams(format!("shift {k} outside 0..={MAX_SHIFT}")));
            }
            if d != base * k.exp2() {
                return Err(InvalidParams(format!(
                    "Δ {d} is not exactly 2^{k} · Δ_base {base}"
                )));
            }
        }
        Ok(params)
    }

    /// The quantizer's total bit-width `b`.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Payload width `p = b − 1`.
    pub fn payload_bits(&self) -> u32 {
        self.bits - 1
    }

    /// Layout of the fine encoding space.
    pub fn fine(&self) -> SpaceLayout {
        self.fine
    }

    /// Layout of the coarse encoding space.
    pub fn coarse(&self) -> SpaceLayout {
        self.coarse
    }

    /// All present scale factors (two to four of them), without allocating.
    pub fn deltas(&self) -> impl Iterator<Item = f32> {
        [
            self.fine.neg_delta(),
            self.fine.pos_delta(),
            self.coarse.neg_delta(),
            self.coarse.pos_delta(),
        ]
        .into_iter()
        .flatten()
    }

    /// The shared base scale `Δ` of Eq. 4 (the smallest present scale).
    pub fn base_delta(&self) -> f32 {
        self.deltas().fold(f32::INFINITY, f32::min)
    }

    /// The mode this parameter set realizes (paper Fig. 4).
    pub fn mode(&self) -> Mode {
        match (&self.fine, &self.coarse) {
            (SpaceLayout::Split { .. }, SpaceLayout::Split { .. }) => Mode::A,
            (SpaceLayout::MergedPos { .. }, SpaceLayout::MergedPos { .. })
            | (SpaceLayout::MergedNeg { .. }, SpaceLayout::MergedNeg { .. }) => Mode::B,
            (SpaceLayout::Split { .. }, _) | (_, SpaceLayout::Split { .. }) => Mode::C,
            _ => Mode::D,
        }
    }

    /// `log2(Δ / Δ_base)` for a side of a space — the hardware shift `n_sh`.
    fn shift_of(&self, delta: f32) -> u32 {
        (delta / self.base_delta()).log2().round() as u32
    }

    /// The shift amount for `code`, as the decoding unit would produce it.
    pub fn shift_for(&self, code: QuqCode) -> u32 {
        let space = if code.fine { &self.fine } else { &self.coarse };
        let delta = if code.code < 0 {
            space
                .neg_delta()
                .unwrap_or_else(|| space.pos_delta().expect("space covers a side"))
        } else {
            space
                .pos_delta()
                .unwrap_or_else(|| space.neg_delta().expect("space covers a side"))
        };
        self.shift_of(delta)
    }

    /// Quantizes one value (Eq. 3).
    ///
    /// Candidate codes are formed in the fine and coarse subranges covering
    /// `x`'s sign (nearest rounding, clipped to each subrange) plus the
    /// representable value nearest zero; the candidate with the smallest
    /// reconstruction error wins. Within the fine subrange this reduces to
    /// Eq. 3's membership rule (the fine grid is denser); outside it, the
    /// coarse subrange takes over; at the zero boundary of merged spaces the
    /// zero candidate prevents snapping tiny values to `±Δ`.
    pub fn quantize(&self, x: f32) -> QuqCode {
        // Non-finite inputs get defined behavior up front: NaN maps to the
        // representable value nearest zero, infinities to the extremes.
        if x.is_nan() {
            return self.nearest_to_zero();
        }
        if x.is_infinite() {
            return self.extreme_code(x > 0.0);
        }
        let p = self.payload_bits();
        let neg = x < 0.0;
        let pick = |space: &SpaceLayout| -> Option<(f32, (i32, i32))> {
            if neg {
                Some((space.neg_delta()?, space.neg_code_range(p)?))
            } else {
                Some((space.pos_delta()?, space.pos_code_range(p)?))
            }
        };
        let mut best: Option<(QuqCode, f32, f32)> = None; // (code, err, |value|)
        let mut consider = |code: QuqCode, value: f32| {
            let err = (x - value).abs();
            let mag = value.abs();
            let better = match &best {
                None => true,
                // Tie-break toward the smaller magnitude (the zero side),
                // then toward the fine space for determinism.
                Some((bc, berr, bmag)) => {
                    err < *berr - 1e-12
                        || ((err - *berr).abs() <= 1e-12
                            && (mag < *bmag || (mag == *bmag && code.fine && !bc.fine)))
                }
            };
            if better {
                best = Some((code, err, mag));
            }
        };
        for (is_fine, space) in [(true, &self.fine), (false, &self.coarse)] {
            if let Some((d, (lo, hi))) = pick(space) {
                let c = ((x / d).round_ties_even() as i64).clamp(lo as i64, hi as i64) as i32;
                consider(
                    QuqCode {
                        fine: is_fine,
                        code: c,
                    },
                    c as f32 * d,
                );
            }
        }
        let zero = self.nearest_to_zero();
        consider(zero, self.dequantize(zero));
        best.expect("at least the zero candidate exists").0
    }

    /// The code with the largest (positive) or smallest (negative)
    /// representable value; falls back to the near-zero code when the
    /// requested side is not covered.
    pub(crate) fn extreme_code(&self, positive: bool) -> QuqCode {
        let p = self.payload_bits();
        let mut best: Option<(QuqCode, f32)> = None;
        for (is_fine, space) in [(true, &self.fine), (false, &self.coarse)] {
            let cand = if positive {
                space
                    .pos_delta()
                    .zip(space.pos_code_range(p))
                    .map(|(d, (_, hi))| (hi, hi as f32 * d))
            } else {
                space
                    .neg_delta()
                    .zip(space.neg_code_range(p))
                    .map(|(d, (lo, _))| (lo, lo as f32 * d))
            };
            if let Some((code, value)) = cand {
                let better = match best {
                    None => true,
                    Some((_, bv)) => {
                        if positive {
                            value > bv
                        } else {
                            value < bv
                        }
                    }
                };
                if better {
                    best = Some((
                        QuqCode {
                            fine: is_fine,
                            code,
                        },
                        value,
                    ));
                }
            }
        }
        best.map(|(c, _)| c)
            .unwrap_or_else(|| self.nearest_to_zero())
    }

    /// The representable code closest to zero.
    pub(crate) fn nearest_to_zero(&self) -> QuqCode {
        let p = self.payload_bits();
        if self.fine.pos_code_range(p).is_some() {
            QuqCode {
                fine: true,
                code: 0,
            }
        } else if self.coarse.pos_code_range(p).is_some() {
            QuqCode {
                fine: false,
                code: 0,
            }
        } else if self.fine.neg_code_range(p).is_some() {
            QuqCode {
                fine: true,
                code: -1,
            }
        } else {
            QuqCode {
                fine: false,
                code: -1,
            }
        }
    }

    /// Reconstructs the real value of a code.
    ///
    /// # Panics
    ///
    /// Panics when `code` addresses a side its space does not cover (codes
    /// produced by [`quantize`](Self::quantize) never do).
    pub fn dequantize(&self, code: QuqCode) -> f32 {
        let space = if code.fine { self.fine } else { self.coarse };
        let delta = if code.code < 0 {
            space
                .neg_delta()
                .expect("negative code in a space without a negative side")
        } else {
            space
                .pos_delta()
                .expect("non-negative code in a space without a positive side")
        };
        code.code as f32 * delta
    }

    /// Quantize-then-dequantize of one value.
    pub fn fake_quantize(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }

    /// Fake-quantizes a whole tensor.
    pub fn fake_quantize_tensor(&self, t: &Tensor) -> Tensor {
        t.map(|x| self.fake_quantize(x))
    }

    /// Mean squared quantization error over a sample.
    pub fn mse(&self, values: &[f32]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        values
            .iter()
            .map(|&v| {
                let d = (v - self.fake_quantize(v)) as f64;
                d * d
            })
            .sum::<f64>()
            / values.len() as f64
    }

    /// The largest value representable without clipping (positive side), if
    /// any side covers positives.
    pub fn max_representable(&self) -> Option<f32> {
        let p = self.payload_bits();
        let mut best: Option<f32> = None;
        for s in [&self.fine, &self.coarse] {
            if let (Some(d), Some((_, hi))) = (s.pos_delta(), s.pos_code_range(p)) {
                let v = hi as f32 * d;
                best = Some(best.map_or(v, |b: f32| b.max(v)));
            }
        }
        best
    }

    /// The most-negative value representable without clipping, if any side
    /// covers negatives.
    pub fn min_representable(&self) -> Option<f32> {
        let p = self.payload_bits();
        let mut best: Option<f32> = None;
        for s in [&self.fine, &self.coarse] {
            if let (Some(d), Some((lo, _))) = (s.neg_delta(), s.neg_code_range(p)) {
                let v = lo as f32 * d;
                best = Some(best.map_or(v, |b: f32| b.min(v)));
            }
        }
        best
    }

    /// Every distinct representable value, sorted ascending — the
    /// "quantization points" drawn as vertical lines in the paper's Fig. 3/4.
    ///
    /// Non-finite points (possible only if a scale was corrupted after
    /// validation, e.g. by NaN-poisoned calibration feeding a raw
    /// constructor) are skipped rather than panicking the sort: one bad
    /// tensor must not abort whole-model calibration.
    pub fn quantization_points(&self) -> Vec<f32> {
        let p = self.payload_bits();
        let mut pts = Vec::new();
        for s in [&self.fine, &self.coarse] {
            if let (Some(d), Some((lo, hi))) = (s.neg_delta(), s.neg_code_range(p)) {
                for c in lo..=hi {
                    pts.push(c as f32 * d);
                }
            }
            if let (Some(d), Some((lo, hi))) = (s.pos_delta(), s.pos_code_range(p)) {
                for c in lo..=hi {
                    pts.push(c as f32 * d);
                }
            }
        }
        pts.retain(|v| v.is_finite());
        pts.sort_by(f32::total_cmp);
        pts.dedup();
        pts
    }

    /// Returns a copy with every scale factor multiplied by `factor`
    /// (ratios — and therefore Eq. 4 — are preserved). Used by the grid
    /// search of the Hessian-proxy optimization.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not positive finite.
    pub fn scaled(&self, factor: f32) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid scale factor {factor}"
        );
        let scale_space = |s: SpaceLayout| match s {
            SpaceLayout::Split { neg, pos } => SpaceLayout::Split {
                neg: neg * factor,
                pos: pos * factor,
            },
            SpaceLayout::MergedNeg { delta } => SpaceLayout::MergedNeg {
                delta: delta * factor,
            },
            SpaceLayout::MergedPos { delta } => SpaceLayout::MergedPos {
                delta: delta * factor,
            },
        };
        Self {
            bits: self.bits,
            fine: scale_space(self.fine),
            coarse: scale_space(self.coarse),
        }
    }

    /// A parameter set realizing plain symmetric uniform quantization with
    /// scale `Δ` — the special case noted under Mode D in §3.2 (negative side
    /// in the coarse space, positive side in the fine space, equal scales).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParams`] for invalid `bits`/`delta`.
    pub fn uniform(bits: u32, delta: f32) -> Result<Self, InvalidParams> {
        Self::new(
            bits,
            SpaceLayout::MergedPos { delta },
            SpaceLayout::MergedNeg { delta },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode_a(bits: u32) -> QuqParams {
        QuqParams::new(
            bits,
            SpaceLayout::Split {
                neg: 0.01,
                pos: 0.02,
            },
            SpaceLayout::Split {
                neg: 0.16,
                pos: 0.16,
            },
        )
        .unwrap()
    }

    #[test]
    fn validates_power_of_two_ratios() {
        assert!(QuqParams::new(
            8,
            SpaceLayout::Split {
                neg: 0.01,
                pos: 0.02
            },
            SpaceLayout::Split {
                neg: 0.03,
                pos: 0.08
            },
        )
        .is_err());
        assert!(mode_a(8).base_delta() == 0.01);
    }

    #[test]
    fn validates_shift_budget() {
        // Ratio 256 = 2^8 exceeds the 3-bit shift field.
        assert!(QuqParams::new(
            8,
            SpaceLayout::Split {
                neg: 0.01,
                pos: 0.01
            },
            SpaceLayout::Split {
                neg: 2.56,
                pos: 2.56
            },
        )
        .is_err());
    }

    #[test]
    fn validates_bit_width() {
        let s = SpaceLayout::Split { neg: 1.0, pos: 1.0 };
        assert!(QuqParams::new(1, s, s).is_err());
        assert!(QuqParams::new(9, s, s).is_err());
        assert!(QuqParams::new(4, s, s).is_ok());
    }

    #[test]
    fn mode_detection() {
        assert_eq!(mode_a(8).mode(), Mode::A);
        let b = QuqParams::new(
            8,
            SpaceLayout::MergedPos { delta: 0.01 },
            SpaceLayout::MergedPos { delta: 0.08 },
        )
        .unwrap();
        assert_eq!(b.mode(), Mode::B);
        let c = QuqParams::new(
            8,
            SpaceLayout::Split {
                neg: 0.02,
                pos: 0.01,
            },
            SpaceLayout::MergedPos { delta: 0.08 },
        )
        .unwrap();
        assert_eq!(c.mode(), Mode::C);
        let d = QuqParams::uniform(8, 0.05).unwrap();
        assert_eq!(d.mode(), Mode::D);
    }

    #[test]
    fn fine_values_use_fine_space() {
        let p = mode_a(8); // payload 7 bits; fine pos range: 0..63 × 0.02 = [0, 1.26]
        let c = p.quantize(0.5);
        assert!(c.fine);
        assert_eq!(c.code, 25);
        assert!((p.dequantize(c) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn outliers_fall_into_coarse_space() {
        let p = mode_a(8);
        // Fine pos covers up to 63 × 0.02 = 1.26; beyond that goes coarse.
        let c = p.quantize(5.0);
        assert!(!c.fine);
        assert!((p.dequantize(c) - 5.0).abs() <= 0.08 + 1e-6);
        // Extreme outlier clips at coarse max 63 × 0.16 = 10.08.
        let big = p.quantize(1e6);
        assert!(!big.fine);
        assert_eq!(big.code, 63);
    }

    #[test]
    fn negative_side_has_extra_code() {
        let p = mode_a(8);
        // Fine neg range: −64..−1 (2^{p−1} codes); coarse neg min = −64×0.16.
        let c = p.quantize(-1e6);
        assert_eq!(c.code, -64);
        assert!(!c.fine);
        assert_eq!(p.min_representable(), Some(-64.0 * 0.16));
        assert_eq!(p.max_representable(), Some(63.0 * 0.16));
    }

    #[test]
    fn zero_quantizes_to_zero() {
        let p = mode_a(8);
        let c = p.quantize(0.0);
        assert_eq!(c.code, 0);
        assert_eq!(p.dequantize(c), 0.0);
        assert_eq!(p.fake_quantize(0.0), 0.0);
    }

    #[test]
    fn uniform_special_case_matches_uniform_quantizer() {
        // Mode D with equal deltas == symmetric uniform quantization (paper
        // §3.2): compare against the Eq. 1 implementation.
        let bits = 6;
        let delta = 0.1;
        let quq = QuqParams::uniform(bits, delta).unwrap();
        let uni = crate::uniform::UniformQuantizer::new(bits, delta);
        for i in -400..400 {
            let x = i as f32 * 0.013;
            assert!(
                (quq.fake_quantize(x) - uni.fake_quantize(x)).abs() < 1e-6,
                "mismatch at {x}: {} vs {}",
                quq.fake_quantize(x),
                uni.fake_quantize(x)
            );
        }
    }

    #[test]
    fn mode_b_dead_side_maps_near_zero() {
        let p = QuqParams::new(
            8,
            SpaceLayout::MergedPos { delta: 0.01 },
            SpaceLayout::MergedPos { delta: 0.04 },
        )
        .unwrap();
        let c = p.quantize(-3.0);
        assert_eq!(p.dequantize(c), 0.0);
    }

    /// All-negative Mode B has no code for exactly zero. `new` accepts it,
    /// and everything with no negative candidate — `0.0`, NaN, `+∞`, any
    /// positive value — lands on the smallest-magnitude code, fine `−1`.
    /// The encoder plan is derived from this behaviour.
    #[test]
    fn all_negative_mode_b_maps_the_uncovered_side_to_fine_minus_one() {
        let p = QuqParams::new(
            6,
            SpaceLayout::MergedNeg { delta: 0.01 },
            SpaceLayout::MergedNeg { delta: 0.08 },
        )
        .expect("all-negative layouts are valid");
        assert_eq!(p.mode(), Mode::B);
        let near_zero = QuqCode {
            fine: true,
            code: -1,
        };
        for x in [0.0, -0.0, f32::NAN, f32::INFINITY, 3.0] {
            assert_eq!(p.quantize(x), near_zero, "{x}");
        }
        assert_eq!(p.dequantize(near_zero), -0.01);
        assert_eq!(p.max_representable(), None);
    }

    #[test]
    fn merged_space_has_double_resolution() {
        // Merged-pos fine space: codes 0..2^p−1 instead of 0..2^{p−1}−1.
        let merged = QuqParams::new(
            6,
            SpaceLayout::MergedPos { delta: 0.01 },
            SpaceLayout::MergedPos { delta: 0.08 },
        )
        .unwrap();
        let pts = merged.quantization_points();
        // Fine: 32 codes, coarse: 32 codes, overlapping where values align.
        assert!(pts.len() > 32);
        assert_eq!(pts[0], 0.0);
    }

    #[test]
    fn quantization_points_are_sorted_and_deduped() {
        let p = mode_a(6);
        let pts = p.quantization_points();
        for w in pts.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(pts.contains(&0.0));
    }

    /// NaN-corrupted scales (reachable when NaN-poisoned calibration data
    /// bypasses validation) must not panic the point sort: pre-fix the
    /// `partial_cmp(..).expect("finite")` comparator aborted, taking the
    /// whole calibration run with it. The valid space's points survive.
    #[test]
    fn quantization_points_skip_non_finite_scales() {
        let poisoned = QuqParams {
            bits: 6,
            fine: SpaceLayout::Split {
                neg: f32::NAN,
                pos: 0.02,
            },
            coarse: SpaceLayout::Split {
                neg: 0.16,
                pos: f32::INFINITY,
            },
        };
        let pts = poisoned.quantization_points();
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|v| v.is_finite()));
        for w in pts.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn shift_for_matches_delta_ratio() {
        let p = mode_a(8); // base Δ = 0.01
        let fine_pos = p.quantize(0.5); // Δ = 0.02 → shift 1
        assert_eq!(p.shift_for(fine_pos), 1);
        let coarse = p.quantize(5.0); // Δ = 0.16 → shift 4
        assert_eq!(p.shift_for(coarse), 4);
        let fine_neg = p.quantize(-0.05); // Δ = 0.01 → shift 0
        assert!(fine_neg.fine && fine_neg.code < 0);
        assert_eq!(p.shift_for(fine_neg), 0);
    }

    #[test]
    fn fake_quantize_error_bounded_in_fine_range() {
        let p = mode_a(8);
        for i in 1..60 {
            let x = i as f32 * 0.02 + 0.003;
            let err = (x - p.fake_quantize(x)).abs();
            assert!(err <= 0.01 + 1e-6, "error {err} at {x}");
        }
    }

    #[test]
    fn mse_empty_is_zero() {
        assert_eq!(mode_a(8).mse(&[]), 0.0);
    }

    #[test]
    fn non_finite_inputs_produce_valid_codes() {
        // Defined, deterministic behavior for pathological inputs: NaN maps
        // to a near-zero code (float→int casts saturate NaN to 0 in Rust),
        // infinities clip at the extreme representable values.
        let p = mode_a(8);
        let nan = p.quantize(f32::NAN);
        assert!(p.dequantize(nan).is_finite());
        assert!(p.dequantize(nan).abs() <= 0.02 + 1e-6);
        let pos = p.quantize(f32::INFINITY);
        assert_eq!(p.dequantize(pos), p.max_representable().unwrap());
        let neg = p.quantize(f32::NEG_INFINITY);
        assert_eq!(p.dequantize(neg), p.min_representable().unwrap());
    }

    #[test]
    fn uniform_quantizer_handles_non_finite_too() {
        let u = crate::uniform::UniformQuantizer::new(8, 0.1);
        assert!(u.fake_quantize(f32::NAN).is_finite());
        assert_eq!(u.quantize(f32::INFINITY), u.max_code());
        assert_eq!(u.quantize(f32::NEG_INFINITY), u.min_code());
    }
}
