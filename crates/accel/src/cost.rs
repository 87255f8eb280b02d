//! Analytical area/power model of the quadruplet uniform accelerator (QUA)
//! versus the uniform-quantization baseline — the substitute for the paper's
//! Synopsys Design Compiler / PrimeTime PX flow at 28 nm, 500 MHz (§6.2).
//!
//! The model counts gate equivalents (GE, NAND2-equivalents) of every
//! sub-circuit in the Fig. 6 architecture, converts GE to area through a
//! 28 nm cell-library constant, and estimates power from switching activity
//! with a separate (higher) factor for registers — the paper attributes the
//! QUQ power overhead chiefly to the clock load of the `n_sh` pipeline
//! registers. One calibration constant anchors absolute scale to the
//! paper's BaseQ 6-bit 16×16 point; every comparison is then a model
//! *prediction*. See DESIGN.md §2 for why relative area/power of array
//! multipliers, shifters and registers is gate-count-governed.

use std::fmt;

/// Quantization scheme the accelerator implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Conventional uniform quantization (paper's BaseQ accelerator).
    BaseQ,
    /// Quadruplet uniform quantization (the QUA).
    Quq,
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scheme::BaseQ => write!(f, "BaseQ"),
            Scheme::Quq => write!(f, "QUQ"),
        }
    }
}

/// One accelerator configuration (a row of Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcceleratorConfig {
    /// Quantization scheme.
    pub scheme: Scheme,
    /// Operand bit-width `b` (weights and activations share it, as in the
    /// paper's W6/A6 and W8/A8 rows).
    pub bits: u32,
    /// PE array side (16 or 64 in the paper).
    pub array: usize,
}

impl AcceleratorConfig {
    /// Convenience constructor.
    pub fn new(scheme: Scheme, bits: u32, array: usize) -> Self {
        Self {
            scheme,
            bits,
            array,
        }
    }
}

/// 28 nm technology constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tech {
    /// Area of one gate equivalent (µm²) including routing overhead.
    pub ge_area_um2: f64,
    /// Dynamic power of one *combinational* GE at 500 MHz with typical
    /// activity (µW).
    pub comb_ge_power_uw: f64,
    /// Dynamic + clock power of one *register-bit* GE at 500 MHz (µW) —
    /// higher than combinational because of clock load.
    pub reg_ge_power_uw: f64,
}

impl Tech {
    /// Constants representative of a 28 nm HPC library, with the area
    /// constant calibrated so the BaseQ 6-bit 16×16 design lands on the
    /// paper's 0.148 mm² (Table 4).
    pub fn n28() -> Self {
        Self {
            ge_area_um2: 0.775,
            comb_ge_power_uw: 0.275,
            reg_ge_power_uw: 0.52,
        }
    }
}

impl Default for Tech {
    fn default() -> Self {
        Self::n28()
    }
}

// ---- component gate-equivalent counts -----------------------------------

/// Full-adder cost in GE.
const FA_GE: f64 = 6.0;
/// D-flip-flop cost in GE per bit.
const DFF_GE: f64 = 5.5;
/// 2:1 mux cost in GE per bit.
const MUX2_GE: f64 = 2.1;

/// Baugh–Wooley array multiplier: `b1 × b2` signed.
pub fn multiplier_ge(b1: u32, b2: u32) -> f64 {
    FA_GE * b1 as f64 * b2 as f64
}

/// Ripple/compound adder of width `w`.
pub fn adder_ge(w: u32) -> f64 {
    FA_GE * w as f64
}

/// Register of width `w`.
pub fn register_ge(w: u32) -> f64 {
    DFF_GE * w as f64
}

/// Logarithmic barrel shifter: datapath `width`, shift range `0..=max_shift`.
pub fn barrel_shifter_ge(width: u32, max_shift: u32) -> f64 {
    let stages = 32 - max_shift.leading_zeros(); // ceil(log2(max+1))
    MUX2_GE * width as f64 * stages as f64
}

/// Leading-zero/one counter over width `w` (used by the QU's subrange
/// comparison, §4.2).
pub fn lzc_ge(w: u32) -> f64 {
    1.6 * w as f64
}

/// Accumulator guard bits above the product width (dot-product depth up to
/// 4096 → 12 bits).
const ACC_GUARD_BITS: u32 = 12;
/// Extra accumulator bits a QUA PE carries for the per-element shifts. The
/// DU clamps `n_sh_x + n_sh_w` to this many bits of dynamic range
/// (saturating rarely); sizing for the full 14 would be needlessly wide.
const QUQ_SHIFT_GUARD_BITS: u32 = 2;
/// Maximum per-product shift the PE datapath implements.
const QUQ_MAX_SHIFT: u32 = 7;

/// Gate-level breakdown of one accelerator instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// The configuration costed.
    pub config: AcceleratorConfig,
    /// Combinational GE of the PE array.
    pub pe_comb_ge: f64,
    /// Register GE of the PE array.
    pub pe_reg_ge: f64,
    /// GE of the decoding units (QUA only; combinational + small regs).
    pub du_ge: f64,
    /// GE of the quantization units.
    pub qu_ge: f64,
    /// GE of array-edge operand/control circuitry.
    pub periphery_ge: f64,
    /// Total GE.
    pub total_ge: f64,
    /// Die area (mm²).
    pub area_mm2: f64,
    /// Power at 500 MHz (mW).
    pub power_mw: f64,
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}/{} {}×{}: {:.3} mm², {:.1} mW ({:.0} kGE)",
            self.config.scheme,
            self.config.bits,
            self.config.bits,
            self.config.array,
            self.config.array,
            self.area_mm2,
            self.power_mw,
            self.total_ge / 1e3
        )
    }
}

/// Costs one PE.
///
/// **BaseQ** must support unsigned operands of asymmetric uniform
/// quantization, which — as §4.1 argues — requires a signed multiplier one
/// bit wider than the data (`(b+1)×(b+1)`), plus accumulator and operand
/// pipeline registers.
///
/// **QUA** decodes every QUB to a plain `b`-bit signed `D` (the §4.1
/// observation), so its multiplier is only `b×b`; it adds the 3-bit shift
/// adder, the shifted-product injection into the MAC's compressor tree
/// (variable-position operand entry — mux cost on the product width, not a
/// standalone barrel shifter, since synthesis merges it with the
/// accumulation compressors), `n_sh` pipeline registers, and shift guard
/// bits on the accumulator (the DU saturates rare larger shifts).
fn pe_cost(scheme: Scheme, bits: u32) -> (f64, f64) {
    match scheme {
        Scheme::BaseQ => {
            let mb = bits + 1;
            let acc_w = 2 * bits + ACC_GUARD_BITS;
            let comb = multiplier_ge(mb, mb) + adder_ge(acc_w) + 30.0;
            let regs = register_ge(acc_w) + 2.0 * register_ge(mb);
            (comb, regs)
        }
        Scheme::Quq => {
            let product_w = 2 * bits;
            let acc_w = product_w + ACC_GUARD_BITS + QUQ_SHIFT_GUARD_BITS;
            let comb = multiplier_ge(bits, bits)
                + adder_ge(acc_w)
                + adder_ge(3) // n_sh_x + n_sh_w
                + MUX2_GE * product_w as f64 * (QUQ_MAX_SHIFT as f64).log2().ceil() * 0.5
                + 30.0;
            let regs = register_ge(acc_w) + 2.0 * register_ge(bits) + 2.0 * register_ge(3); // pipelined n_sh (the power hotspot)
            (comb, regs)
        }
    }
}

/// Costs one decoding unit (Eq. 6): payload muxing, sign handling, and the
/// FC-register field selection, plus an output register stage.
fn du_cost(bits: u32) -> (f64, f64) {
    let comb = MUX2_GE * (bits as f64) * 4.0 + 25.0;
    let regs = register_ge(bits) + register_ge(3);
    (comb, regs)
}

/// Costs one quantization unit.
///
/// BaseQ (from [9]): integer scale multiply (`M`), shift (`N`), clip, round.
/// QUA adds the dynamic `s_y` right-shift and the leading-zero/one detector
/// for the subrange comparison (§4.2).
fn qu_cost(scheme: Scheme, bits: u32) -> (f64, f64) {
    let acc_w = 2 * bits + ACC_GUARD_BITS;
    let mut comb = multiplier_ge(acc_w, 16) / 4.0 // truncated scale multiplier
        + barrel_shifter_ge(acc_w, 15)
        + adder_ge(bits) // rounding
        + 40.0; // clip + control
    let mut regs = register_ge(acc_w);
    if scheme == Scheme::Quq {
        comb += lzc_ge(acc_w) + barrel_shifter_ge(acc_w, QUQ_MAX_SHIFT) + 30.0;
        regs += register_ge(4);
    }
    (comb, regs)
}

/// Estimates the full accelerator (PE array + DUs + QUs + array periphery;
/// SFUs and scratchpad excluded, as in the paper's Table 4 methodology).
pub fn estimate(config: AcceleratorConfig, tech: Tech) -> CostReport {
    let n = config.array;
    let (pe_comb_1, pe_reg_1) = pe_cost(config.scheme, config.bits);
    let pe_comb = pe_comb_1 * (n * n) as f64;
    let pe_reg = pe_reg_1 * (n * n) as f64;

    // Operand distribution on two edges of the array (BaseQ) and the QU row.
    let (qu_comb_1, qu_reg_1) = qu_cost(config.scheme, config.bits);
    let qu_ge = (qu_comb_1 + qu_reg_1) * n as f64;
    // Edge pipeline registers for operands entering rows and columns.
    let periphery_ge = 2.0 * n as f64 * (register_ge(config.bits) + 20.0);

    let du_ge = if config.scheme == Scheme::Quq {
        let (c, r) = du_cost(config.bits);
        // One DU per row (activations) and one per column (weights).
        (c + r) * (2 * n) as f64
    } else {
        0.0
    };

    let comb_total = pe_comb
        + qu_comb_1 * n as f64
        + if config.scheme == Scheme::Quq {
            du_cost(config.bits).0 * (2 * n) as f64
        } else {
            0.0
        };
    let reg_total = pe_reg
        + qu_reg_1 * n as f64
        + periphery_ge
        + if config.scheme == Scheme::Quq {
            du_cost(config.bits).1 * (2 * n) as f64
        } else {
            0.0
        };
    let total_ge = comb_total + reg_total;

    let area_mm2 = total_ge * tech.ge_area_um2 / 1e6;
    let power_mw = (comb_total * tech.comb_ge_power_uw + reg_total * tech.reg_ge_power_uw) / 1e3;

    CostReport {
        config,
        pe_comb_ge: pe_comb,
        pe_reg_ge: pe_reg,
        du_ge,
        qu_ge,
        periphery_ge,
        total_ge,
        area_mm2,
        power_mw,
    }
}

impl CostReport {
    /// Average energy per MAC (pJ) at full array utilization, derived from
    /// the power model: `P / (f_clk · rows · cols)`.
    pub fn energy_per_mac_pj(&self) -> f64 {
        let macs_per_s = 500e6 * (self.config.array * self.config.array) as f64;
        self.power_mw * 1e-3 / macs_per_s * 1e12
    }
}

/// Energy estimate (nJ) for one GEMM executed on the costed accelerator:
/// total cycles of the cycle model times the per-cycle energy of the power
/// model (fill/drain cycles included — they burn clock power too).
pub fn gemm_energy_nj(report: &CostReport, stats: &crate::sim::GemmStats) -> f64 {
    let cycle_energy_pj = report.power_mw * 1e-3 / 500e6 * 1e12;
    stats.cycles as f64 * cycle_energy_pj / 1e3
}

/// The eight configurations of the paper's Table 4, in row order.
pub fn table4_configs() -> Vec<AcceleratorConfig> {
    let mut out = Vec::new();
    for &array in &[16usize, 64] {
        for &bits in &[6u32, 8] {
            for &scheme in &[Scheme::BaseQ, Scheme::Quq] {
                out.push(AcceleratorConfig::new(scheme, bits, array));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(scheme: Scheme, bits: u32, array: usize) -> CostReport {
        estimate(AcceleratorConfig::new(scheme, bits, array), Tech::n28())
    }

    #[test]
    fn baseq_6bit_16x16_is_near_paper_anchor() {
        let r = rep(Scheme::BaseQ, 6, 16);
        assert!(
            (r.area_mm2 - 0.148).abs() / 0.148 < 0.25,
            "calibration drifted: {:.3} mm² vs paper 0.148",
            r.area_mm2
        );
    }

    #[test]
    fn quq_overhead_is_marginal_and_shrinks_with_array_size() {
        for bits in [6u32, 8] {
            let b16 = rep(Scheme::BaseQ, bits, 16);
            let q16 = rep(Scheme::Quq, bits, 16);
            let b64 = rep(Scheme::BaseQ, bits, 64);
            let q64 = rep(Scheme::Quq, bits, 64);
            let ov16 = q16.area_mm2 / b16.area_mm2 - 1.0;
            let ov64 = q64.area_mm2 / b64.area_mm2 - 1.0;
            // Paper: < 5% area overhead in the considered cases.
            assert!(
                ov16 > 0.0 && ov16 < 0.08,
                "bits {bits}: 16×16 overhead {ov16:.3}"
            );
            assert!(
                ov64 > 0.0 && ov64 < 0.08,
                "bits {bits}: 64×64 overhead {ov64:.3}"
            );
            // Peripheral DUs/QUs amortize: overhead shrinks as PEs grow O(n²).
            assert!(ov64 < ov16, "bits {bits}: {ov64:.4} !< {ov16:.4}");
        }
    }

    #[test]
    fn power_overhead_below_ten_percent() {
        for bits in [6u32, 8] {
            for array in [16usize, 64] {
                let b = rep(Scheme::BaseQ, bits, array);
                let q = rep(Scheme::Quq, bits, array);
                let ov = q.power_mw / b.power_mw - 1.0;
                assert!(
                    ov > 0.0 && ov < 0.10,
                    "bits {bits} array {array}: power overhead {ov:.3}"
                );
            }
        }
    }

    #[test]
    fn six_bit_quq_beats_eight_bit_baseq() {
        // Paper: 12.6%–16.8% area and 3.7%–5.6% power reductions.
        for array in [16usize, 64] {
            let q6 = rep(Scheme::Quq, 6, array);
            let b8 = rep(Scheme::BaseQ, 8, array);
            let area_saving = 1.0 - q6.area_mm2 / b8.area_mm2;
            let power_saving = 1.0 - q6.power_mw / b8.power_mw;
            assert!(
                (0.05..0.30).contains(&area_saving),
                "array {array}: area saving {area_saving:.3}"
            );
            assert!(
                power_saving > 0.0,
                "array {array}: power saving {power_saving:.3}"
            );
        }
    }

    #[test]
    fn area_scales_quadratically_with_array() {
        let r16 = rep(Scheme::BaseQ, 6, 16);
        let r64 = rep(Scheme::BaseQ, 6, 64);
        let ratio = r64.area_mm2 / r16.area_mm2;
        // 16× more PEs, sub-16× periphery: ratio slightly below 16.
        assert!((10.0..=16.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn eight_bit_costs_more_than_six_bit() {
        for scheme in [Scheme::BaseQ, Scheme::Quq] {
            let r6 = rep(scheme, 6, 16);
            let r8 = rep(scheme, 8, 16);
            assert!(r8.area_mm2 > r6.area_mm2);
            assert!(r8.power_mw > r6.power_mw);
        }
    }

    #[test]
    fn component_costs_are_monotone() {
        assert!(multiplier_ge(8, 8) > multiplier_ge(6, 6));
        assert!(adder_ge(32) > adder_ge(24));
        assert!(barrel_shifter_ge(16, 7) > barrel_shifter_ge(16, 3));
        assert!(register_ge(8) > 0.0);
        assert!(lzc_ge(24) > 0.0);
    }

    #[test]
    fn du_only_present_for_quq() {
        assert_eq!(rep(Scheme::BaseQ, 6, 16).du_ge, 0.0);
        assert!(rep(Scheme::Quq, 6, 16).du_ge > 0.0);
    }

    #[test]
    fn table4_configs_cover_all_rows() {
        let cfgs = table4_configs();
        assert_eq!(cfgs.len(), 8);
        assert!(cfgs
            .iter()
            .any(|c| c.scheme == Scheme::Quq && c.bits == 8 && c.array == 64));
    }

    #[test]
    fn report_display_is_informative() {
        let r = rep(Scheme::Quq, 6, 16);
        let s = r.to_string();
        assert!(s.contains("QUQ") && s.contains("16×16") && s.contains("mm²"));
    }
}

#[cfg(test)]
mod energy_tests {
    use super::*;
    use crate::sim::GemmStats;

    #[test]
    fn energy_per_mac_is_sub_picojoule_scale() {
        let r = estimate(AcceleratorConfig::new(Scheme::Quq, 6, 16), Tech::n28());
        let e = r.energy_per_mac_pj();
        // 28 nm INT6 MACs land in the 0.1–2 pJ band.
        assert!((0.05..5.0).contains(&e), "energy/MAC {e} pJ");
    }

    #[test]
    fn gemm_energy_scales_with_cycles() {
        let r = estimate(AcceleratorConfig::new(Scheme::BaseQ, 6, 16), Tech::n28());
        let short = GemmStats {
            cycles: 100,
            ..Default::default()
        };
        let long = GemmStats {
            cycles: 1000,
            ..Default::default()
        };
        assert!((gemm_energy_nj(&r, &long) / gemm_energy_nj(&r, &short) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn six_bit_quq_gemm_cheaper_than_eight_bit_baseq_gemm() {
        // Same workload, same cycles: energy ratio follows power ratio.
        let stats = GemmStats {
            cycles: 4096,
            macs: 1 << 20,
            ..Default::default()
        };
        let q6 = estimate(AcceleratorConfig::new(Scheme::Quq, 6, 16), Tech::n28());
        let b8 = estimate(AcceleratorConfig::new(Scheme::BaseQ, 8, 16), Tech::n28());
        assert!(gemm_energy_nj(&q6, &stats) < gemm_energy_nj(&b8, &stats));
    }
}
