//! The progressive relaxation algorithm — Algorithms 1 and 2 of the paper.
//!
//! Given calibration samples, [`Pra`] determines the four scale factors of
//! QUQ under the Eq. 4 power-of-two constraint, then relaxes further or
//! switches mode (A → C/D, or B for single-signed tensors) following the two
//! guiding principles of §3.3:
//!
//! 1. the coarse/fine ratio should be large (little encoding-space waste
//!    from subrange overlap), and
//! 2. the fine subranges should cover as many elements as possible.

use crate::scheme::{QuqParams, SpaceLayout, MAX_SHIFT};
use quq_tensor::stats::quantile_sorted;

/// Hyperparameters of Algorithm 2 (paper §6.1 uses `4 / 0.99 / 0.95`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PraConfig {
    /// Acceptable coarse/fine scale ratio `λ_A`: below it the partition is
    /// considered wasteful.
    pub lambda_a: f32,
    /// Initial quantile `q` bounding the fine subranges.
    pub q_init: f32,
    /// Acceptable quantile `q_A`: the recursion floor.
    pub q_acceptable: f32,
}

impl Default for PraConfig {
    fn default() -> Self {
        Self {
            lambda_a: 4.0,
            q_init: 0.99,
            q_acceptable: 0.95,
        }
    }
}

/// Diagnostics of one PRA run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PraOutcome {
    /// The fitted parameters.
    pub params: QuqParams,
    /// The quantile the algorithm settled on.
    pub q_final: f32,
    /// Number of `q`-lowering recursions taken (Algorithm 2 line 11).
    pub recursions: u32,
}

/// Algorithm 1: relaxes two positive scale factors so their ratio is an
/// exact power of two, never reducing either (which would cause clipping).
///
/// Returns `(Δ1', Δ2')` with `Δ2'/Δ1' = 2^k`, `Δ1' ≥ Δ1`, `Δ2' ≥ Δ2`
/// (one of the two is unchanged).
///
/// # Panics
///
/// Panics when either input is not positive finite.
pub fn relax(d1: f32, d2: f32) -> (f32, f32) {
    assert!(d1.is_finite() && d1 > 0.0, "Δ1 = {d1}");
    assert!(d2.is_finite() && d2 > 0.0, "Δ2 = {d2}");
    let l = (d2 / d1).log2();
    let k = l.round_ties_even();
    if k > l {
        // Make Δ2 larger: Δ2' = 2^k · Δ1 > Δ2.
        (d1, k.exp2() * d1)
    } else {
        // Make Δ1 larger (or keep, when the ratio is already exact).
        ((-k).exp2() * d2, d2)
    }
}

/// The progressive relaxation algorithm (Algorithm 2) plus the Mode B entry
/// path for single-signed tensors (§3.3 last paragraph).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pra {
    bits: u32,
    config: PraConfig,
}

impl Pra {
    /// Creates a PRA runner for a given bit-width.
    ///
    /// # Panics
    ///
    /// Panics when `bits` is outside `2..=8`.
    pub fn new(bits: u32, config: PraConfig) -> Self {
        assert!((2..=8).contains(&bits), "bit-width {bits} outside 2..=8");
        Self { bits, config }
    }

    /// Convenience constructor with the paper's hyperparameters.
    pub fn with_defaults(bits: u32) -> Self {
        Self::new(bits, PraConfig::default())
    }

    /// Fits QUQ parameters to a calibration sample.
    ///
    /// Non-finite samples are excluded before fitting: a single NaN or ±∞
    /// activation would otherwise poison the max/quantile statistics (±∞
    /// drove [`relax`] into its finiteness assert, aborting whole-model
    /// calibration). Degenerate inputs (empty, all-zero, or all-non-finite)
    /// yield the uniform special case with `Δ = 1`.
    pub fn run(&self, values: &[f32]) -> PraOutcome {
        // Each side is sorted once here; every recursion below reads its
        // quantiles from the sorted magnitudes.
        let mut neg: Vec<f32> = values
            .iter()
            .filter(|v| v.is_finite())
            .filter(|&&v| v < 0.0)
            .map(|&v| -v)
            .collect();
        let mut pos: Vec<f32> = values
            .iter()
            .filter(|v| v.is_finite())
            .filter(|&&v| v > 0.0)
            .copied()
            .collect();
        neg.sort_by(f32::total_cmp);
        pos.sort_by(f32::total_cmp);
        if neg.is_empty() && pos.is_empty() {
            return PraOutcome {
                params: QuqParams::uniform(self.bits, 1.0).expect("valid uniform"),
                q_final: self.config.q_init,
                recursions: 0,
            };
        }
        if neg.is_empty() || pos.is_empty() {
            // Mode B: mirror, fit symmetrically, keep the live side only.
            let mags = if neg.is_empty() { &pos } else { &neg };
            let outcome = self.run_symmetric(mags);
            let flip = neg.is_empty();
            let params = self.mode_b_params(outcome.0, outcome.1, flip);
            return PraOutcome {
                params,
                q_final: outcome.2,
                recursions: outcome.3,
            };
        }
        self.run_two_sided(&neg, &pos)
    }

    /// Mode A parameter determination (Algorithm 2 lines 2–8) followed by
    /// the relax-or-switch branches (lines 10–17), on each side's
    /// magnitudes sorted ascending.
    fn run_two_sided(&self, neg: &[f32], pos: &[f32]) -> PraOutcome {
        let cfg = self.config;
        let neg_codes = (1u32 << (self.bits - 2)) as f32;
        let pos_codes = ((1u32 << (self.bits - 2)) - 1).max(1) as f32;
        let max_n = sorted_max(neg);
        let max_p = sorted_max(pos);
        let (d_cn, d_cp) = relax(max_n / neg_codes, max_p / pos_codes);

        let mut q = cfg.q_init;
        let mut recursions = 0u32;
        loop {
            let q_n = quantile_sorted(neg, q)
                .unwrap_or(max_n)
                .max(f32::MIN_POSITIVE);
            let q_p = quantile_sorted(pos, q)
                .unwrap_or(max_p)
                .max(f32::MIN_POSITIVE);
            let (d_fn0, d_fp0) = relax(q_n / neg_codes, q_p / pos_codes);
            let s_f = d_fn0 / d_fp0;
            let s_c = d_cn / d_cp;
            let (d_fp, d_cp2) = relax(d_fp0, d_cp);
            let d_fn = s_f * d_fp;
            let d_cn2 = s_c * d_cp2;

            let ratio_n = d_cn2 / d_fn;
            let ratio_p = d_cp2 / d_fp;

            // Line 10–11: both ratios wasteful and the quantile can still be
            // lowered — relax Principle ② to satisfy Principle ①.
            if ratio_n < cfg.lambda_a && ratio_p < cfg.lambda_a && q > cfg.q_acceptable + 1e-9 {
                q = (q - 0.01).max(cfg.q_acceptable);
                recursions += 1;
                continue;
            }

            let params = if ratio_n < cfg.lambda_a && d_cn2 <= d_fp * (1.0 + 1e-6) {
                // Line 12–13, Mode C: the negative side lacks a long tail —
                // quantize it uniformly with the initial coarse scale and
                // hand its coarse encoding space to the positive side.
                self.finish(
                    SpaceLayout::Split {
                        neg: d_cn2,
                        pos: d_fp,
                    },
                    SpaceLayout::MergedPos { delta: d_cp2 / 2.0 },
                )
            } else if ratio_p < cfg.lambda_a && d_cp2 <= d_fn * (1.0 + 1e-6) {
                // Line 14–15, Mode C mirrored.
                self.finish(
                    SpaceLayout::Split {
                        neg: d_fn,
                        pos: d_cp2,
                    },
                    SpaceLayout::MergedNeg { delta: d_cn2 / 2.0 },
                )
            } else if ratio_n < cfg.lambda_a || ratio_p < cfg.lambda_a {
                // Line 16–17, Mode D fallback: dual uniform, negative side in
                // the coarse space, positive side in the fine space.
                self.finish(
                    SpaceLayout::MergedPos { delta: d_cp2 / 2.0 },
                    SpaceLayout::MergedNeg { delta: d_cn2 / 2.0 },
                )
            } else {
                // Mode A.
                self.finish(
                    SpaceLayout::Split {
                        neg: d_fn,
                        pos: d_fp,
                    },
                    SpaceLayout::Split {
                        neg: d_cn2,
                        pos: d_cp2,
                    },
                )
            };
            return PraOutcome {
                params,
                q_final: q,
                recursions,
            };
        }
    }

    /// Mode A determination on mirrored (symmetric) data for the Mode B
    /// entry: returns `(Δ_fine, Δ_coarse, q_final, recursions)` for one
    /// side's magnitudes, sorted ascending.
    fn run_symmetric(&self, mags: &[f32]) -> (f32, f32, f32, u32) {
        let cfg = self.config;
        let pos_codes = ((1u32 << (self.bits - 2)) - 1).max(1) as f32;
        let max = sorted_max(mags);
        let d_c = max / pos_codes;
        let mut q = cfg.q_init;
        let mut recursions = 0u32;
        loop {
            let q_v = quantile_sorted(mags, q)
                .unwrap_or(max)
                .max(f32::MIN_POSITIVE);
            let (d_f, d_c2) = relax(q_v / pos_codes, d_c);
            if d_c2 / d_f < cfg.lambda_a && q > cfg.q_acceptable + 1e-9 {
                q = (q - 0.01).max(cfg.q_acceptable);
                recursions += 1;
                continue;
            }
            return (d_f, d_c2, q, recursions);
        }
    }

    /// Builds the Mode B layout: both spaces merged onto the live side, with
    /// scales halved because the merged payload has twice the codes.
    fn mode_b_params(&self, d_f: f32, d_c: f32, positive: bool) -> QuqParams {
        let (fine, coarse) = if positive {
            (
                SpaceLayout::MergedPos { delta: d_f / 2.0 },
                SpaceLayout::MergedPos { delta: d_c / 2.0 },
            )
        } else {
            (
                SpaceLayout::MergedNeg { delta: d_f / 2.0 },
                SpaceLayout::MergedNeg { delta: d_c / 2.0 },
            )
        };
        self.finish(fine, coarse)
    }

    /// Applies the hardware shift-budget clamp and validates.
    ///
    /// The FC registers encode `log2(Δ/Δ_base)` in 3 bits, so ratios beyond
    /// `2^7` cannot be represented; fine scales are raised until every ratio
    /// fits (slightly reducing fine resolution on pathological data).
    fn finish(&self, fine: SpaceLayout, coarse: SpaceLayout) -> QuqParams {
        let deltas = |s: &SpaceLayout| -> Vec<f32> {
            [s.neg_delta(), s.pos_delta()]
                .into_iter()
                .flatten()
                .collect()
        };
        let max_delta = deltas(&fine)
            .into_iter()
            .chain(deltas(&coarse))
            .fold(f32::MIN_POSITIVE, f32::max);
        let floor = max_delta / (1u32 << MAX_SHIFT) as f32;
        let lift = |d: f32| {
            if d < floor {
                d * (floor / d).log2().ceil().exp2()
            } else {
                d
            }
        };
        let lift_space = |s: SpaceLayout| match s {
            SpaceLayout::Split { neg, pos } => SpaceLayout::Split {
                neg: lift(neg),
                pos: lift(pos),
            },
            SpaceLayout::MergedNeg { delta } => SpaceLayout::MergedNeg { delta: lift(delta) },
            SpaceLayout::MergedPos { delta } => SpaceLayout::MergedPos { delta: lift(delta) },
        };
        QuqParams::new(self.bits, lift_space(fine), lift_space(coarse))
            .expect("PRA produces Eq.4-consistent parameters")
    }
}

/// The largest of an ascending sample of magnitudes, floored at the
/// smallest positive normal so a scale derived from it stays positive.
fn sorted_max(sorted: &[f32]) -> f32 {
    sorted.last().copied().unwrap_or(0.0).max(f32::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Mode;
    use quq_tensor::rng::{standard_normal, OutlierMixture};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relax_makes_ratio_power_of_two_without_shrinking() {
        for (a, b) in [(0.013f32, 0.071f32), (0.5, 0.5), (3.0, 0.01), (1.0, 1024.0)] {
            let (a2, b2) = relax(a, b);
            assert!(a2 >= a * (1.0 - 1e-6), "Δ1 shrank: {a} -> {a2}");
            assert!(b2 >= b * (1.0 - 1e-6), "Δ2 shrank: {b} -> {b2}");
            let l = (b2 / a2).log2();
            assert!(
                (l - l.round()).abs() < 1e-5,
                "ratio 2^{l} not integral for ({a}, {b})"
            );
            // One of the two is unchanged.
            assert!((a2 - a).abs() < 1e-9 * a.max(1.0) || (b2 - b).abs() < 1e-9 * b.max(1.0));
        }
    }

    #[test]
    fn relax_identity_on_exact_powers() {
        let (a, b) = relax(0.25, 1.0);
        assert_eq!((a, b), (0.25, 1.0));
        let (a, b) = relax(1.0, 1.0);
        assert_eq!((a, b), (1.0, 1.0));
    }

    fn long_tailed_sample(seed: u64, n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        OutlierMixture::new(0.02, 0.5, 0.01).sample_vec(&mut rng, n)
    }

    #[test]
    fn long_tailed_symmetric_data_yields_mode_a() {
        let values = long_tailed_sample(1, 20_000);
        let outcome = Pra::with_defaults(8).run(&values);
        assert_eq!(outcome.params.mode(), Mode::A);
        // Outliers are representable: max |value| within representable range.
        let max = values.iter().copied().fold(0.0f32, f32::max);
        assert!(outcome.params.max_representable().unwrap() >= max * 0.99);
    }

    #[test]
    fn gaussian_data_degenerates_toward_uniform_modes() {
        // No long tail: coarse/fine ratio is small, so PRA must leave Mode A.
        let mut rng = StdRng::seed_from_u64(2);
        let values: Vec<f32> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        let outcome = Pra::with_defaults(6).run(&values);
        assert_ne!(
            outcome.params.mode(),
            Mode::A,
            "Gaussian data should not stay in Mode A"
        );
    }

    #[test]
    fn non_negative_data_yields_mode_b() {
        let values: Vec<f32> = long_tailed_sample(3, 20_000)
            .into_iter()
            .map(f32::abs)
            .collect();
        let outcome = Pra::with_defaults(8).run(&values);
        assert_eq!(outcome.params.mode(), Mode::B);
        assert!(outcome.params.min_representable().is_none());
    }

    #[test]
    fn non_positive_data_yields_negative_mode_b() {
        let values: Vec<f32> = long_tailed_sample(4, 20_000)
            .into_iter()
            .map(|v| -v.abs())
            .collect();
        let outcome = Pra::with_defaults(8).run(&values);
        assert_eq!(outcome.params.mode(), Mode::B);
        assert!(outcome.params.max_representable().is_none());
        assert!(outcome.params.min_representable().unwrap() < 0.0);
    }

    #[test]
    fn asymmetric_tails_yield_mode_c() {
        // Negative side tight Gaussian, positive side long-tailed (GELU-like).
        let mut rng = StdRng::seed_from_u64(5);
        let mut values = Vec::new();
        for _ in 0..20_000 {
            let z = standard_normal(&mut rng);
            values.push(if z < 0.0 { z * 0.05 } else { z * z * z * 0.5 });
        }
        let outcome = Pra::with_defaults(8).run(&values);
        assert_eq!(
            outcome.params.mode(),
            Mode::C,
            "mode = {:?}",
            outcome.params.mode()
        );
    }

    #[test]
    fn degenerate_inputs_fall_back_to_uniform() {
        let pra = Pra::with_defaults(8);
        assert_eq!(pra.run(&[]).params.mode(), Mode::D);
        assert_eq!(pra.run(&[0.0, 0.0, 0.0]).params.mode(), Mode::D);
    }

    /// A NaN/∞-poisoned calibration set must fit exactly as if the poison
    /// were absent: pre-fix, an ∞ sample flowed into `max` and panicked
    /// `relax`'s finiteness assert, and NaNs corrupted the quantile sweep.
    #[test]
    fn nan_poisoned_calibration_fits_like_clean_data() {
        let clean = long_tailed_sample(8, 20_000);
        let mut poisoned = clean.clone();
        poisoned.insert(0, f32::NAN);
        poisoned.insert(poisoned.len() / 2, f32::INFINITY);
        poisoned.push(f32::NEG_INFINITY);
        for bits in [4u32, 8] {
            let a = Pra::with_defaults(bits).run(&clean);
            let b = Pra::with_defaults(bits).run(&poisoned);
            assert_eq!(a, b, "bits {bits}: poison changed the fit");
        }
        // All-non-finite degenerates gracefully instead of panicking.
        let junk = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        assert_eq!(Pra::with_defaults(8).run(&junk).params.mode(), Mode::D);
    }

    #[test]
    fn recursion_lowers_q_within_bounds() {
        // Data with a modest tail that fails λ_A at q = 0.99 but recovers.
        let mut rng = StdRng::seed_from_u64(6);
        let values: Vec<f32> = (0..20_000)
            .map(|i| {
                let z = standard_normal(&mut rng);
                if i % 200 == 0 {
                    z * 3.0
                } else {
                    z * 0.5
                }
            })
            .collect();
        let outcome = Pra::with_defaults(6).run(&values);
        assert!(outcome.q_final >= 0.95 - 1e-6);
        assert!(outcome.q_final <= 0.99 + 1e-6);
        assert_eq!(
            outcome.recursions,
            ((0.99 - outcome.q_final) / 0.01).round() as u32
        );
    }

    #[test]
    fn params_respect_eq4_and_shift_budget() {
        for seed in 0..8 {
            let values = long_tailed_sample(seed, 8_000);
            for bits in [4, 6, 8] {
                let outcome = Pra::with_defaults(bits).run(&values);
                let base = outcome.params.base_delta();
                for d in outcome.params.deltas() {
                    let k = (d / base).log2();
                    assert!((k - k.round()).abs() < 1e-4, "non power-of-two ratio");
                    assert!(k.round() >= 0.0 && k.round() <= MAX_SHIFT as f32);
                }
            }
        }
    }

    #[test]
    fn quq_beats_uniform_on_long_tailed_data() {
        // The heart of the paper's Table 1: QUQ's MSE below min–max uniform.
        let values = long_tailed_sample(7, 30_000);
        for bits in [4u32, 6, 8] {
            let quq = Pra::with_defaults(bits).run(&values).params;
            let uni = crate::uniform::UniformQuantizer::fit_min_max(bits, &values);
            let m_quq = quq.mse(&values);
            let m_uni = uni.mse(&values);
            assert!(
                m_quq < m_uni,
                "bits {bits}: QUQ MSE {m_quq:.3e} not below uniform {m_uni:.3e}"
            );
        }
    }

    #[test]
    fn extreme_dynamic_range_is_clamped_to_shift_budget() {
        // Bulk at 1e-4 with outliers at 1e3: raw ratio far exceeds 2^7.
        let mut values: Vec<f32> = (0..10_000)
            .map(|i| ((i % 19) as f32 - 9.0) * 1e-4)
            .collect();
        values.extend([1000.0, -950.0, 800.0]);
        let outcome = Pra::with_defaults(8).run(&values);
        let base = outcome.params.base_delta();
        for d in outcome.params.deltas() {
            assert!(d / base <= (1u32 << MAX_SHIFT) as f32 * 1.001);
        }
    }
}
