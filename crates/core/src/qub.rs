//! Quadruplet uniform bytes (QUBs) and FC registers — paper §4.1.
//!
//! A *b*-bit QUB is `{flag, payload}` where the flag bit `E_{b−1}` selects
//! the fine (`1`) or coarse (`0`) encoding space and the payload is the
//! `p = b − 1` low bits. Two per-tensor 8-bit **FC registers** describe how
//! to interpret each space (paper Fig. 5):
//!
//! ```text
//! bit 7    : space contains both signs (split/signed payload)
//! bit 6    : if not split, 1 = the merged side is negative
//! bits 5..3: n_sh for the negative subrange (log2 Δ_neg/Δ)
//! bits 2..0: n_sh for the positive subrange (log2 Δ_pos/Δ)
//! ```
//!
//! Decoding (Eq. 6/7) turns a QUB into a signed integer `D` plus a shift
//! `n_sh`, such that the represented value is `D · 2^{n_sh} · Δ`. Crucially,
//! decode uses *only* the byte and the FC registers — exactly what the
//! hardware decoding unit sees.

use crate::scheme::{QuqCode, QuqParams, SpaceLayout};
use quq_tensor::linalg::isa::{self, EncodePlan, EncodeRange, EncodeSide};
use quq_tensor::linalg::PackedB;
use quq_tensor::{I16Tensor, IntTensor, Tensor};
use std::sync::{Arc, OnceLock};

/// The pair of per-tensor FC registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FcRegisters {
    /// Register describing the fine encoding space (`f7..f0`).
    pub fine: u8,
    /// Register describing the coarse encoding space (`c7..c0`).
    pub coarse: u8,
}

fn encode_space(space: SpaceLayout, base: f32) -> u8 {
    // Each n_sh field is 3 bits wide (Fig. 5), so the register can only
    // describe scale ratios up to 2^7 over the base Δ. Eq. 4 plus the PRA
    // construction guarantee fitted parameters stay in range; a ratio
    // outside it cannot be represented and silently masking it (`& 0x7`)
    // would alias e.g. 2^8 onto 2^0. Debug builds reject such layouts;
    // release builds saturate at the widest representable ratio.
    let sh = |d: f32| -> u8 {
        let ratio = (d / base).log2().round();
        debug_assert!(
            (0.0..=7.0).contains(&ratio),
            "scale ratio 2^{ratio} does not fit the 3-bit n_sh field (Δ = {d}, base = {base})"
        );
        ratio.clamp(0.0, 7.0) as u8
    };
    match space {
        SpaceLayout::Split { neg, pos } => 0x80 | (sh(neg) << 3) | sh(pos),
        SpaceLayout::MergedNeg { delta } => 0x40 | (sh(delta) << 3),
        SpaceLayout::MergedPos { delta } => sh(delta),
    }
}

impl FcRegisters {
    /// Derives the FC registers from a parameter set and its base scale.
    pub fn from_params(params: &QuqParams) -> Self {
        let base = params.base_delta();
        Self {
            fine: encode_space(params.fine(), base),
            coarse: encode_space(params.coarse(), base),
        }
    }
}

/// Reconstructs a space layout from one FC register and the base scale —
/// the inverse of the register encoding, showing that `(b, FC, Δ)` is a
/// *complete* description of a QUQ tensor's quantizer.
fn decode_space(reg: u8, base: f32) -> SpaceLayout {
    let sh_neg = ((reg >> 3) & 0x7) as f32;
    let sh_pos = (reg & 0x7) as f32;
    if reg & 0x80 != 0 {
        SpaceLayout::Split {
            neg: base * sh_neg.exp2(),
            pos: base * sh_pos.exp2(),
        }
    } else if reg & 0x40 != 0 {
        SpaceLayout::MergedNeg {
            delta: base * sh_neg.exp2(),
        }
    } else {
        SpaceLayout::MergedPos {
            delta: base * sh_pos.exp2(),
        }
    }
}

/// Rebuilds full [`QuqParams`] from the wire description `(bits, FC
/// registers, base Δ)` — what a consumer of a serialized QUB stream does.
///
/// # Errors
///
/// Returns [`crate::scheme::InvalidParams`] for invalid widths or scales.
pub fn params_from_fc(
    bits: u32,
    fc: FcRegisters,
    base_delta: f32,
) -> Result<QuqParams, crate::scheme::InvalidParams> {
    QuqParams::new(
        bits,
        decode_space(fc.fine, base_delta),
        decode_space(fc.coarse, base_delta),
    )
}

/// A decoded QUB: the signed integer `D` and shift `n_sh` of Eq. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decoded {
    /// Signed payload value `D` (fits the *b*-bit signed range).
    pub d: i32,
    /// Shift count `n_sh` (0..=7).
    pub n_sh: u32,
}

impl Decoded {
    /// The represented integer `D · 2^{n_sh}` (value in units of `Δ_base`).
    ///
    /// For every bit-width the format supports (b ≤ 8), `|D| ≤ 2^{b−1} ≤
    /// 128` and `n_sh ≤ 7`, so the pre-shifted value is bounded by 2^14 and
    /// fits an `i16`. The packed GEMM pipeline stores panels of these
    /// values as `i16` ([`QubTensor::decode_preshifted`]); a future
    /// bit-width bump past 8 would overflow that panel format, so debug
    /// builds assert the bound here.
    pub fn scaled(&self) -> i32 {
        let v = self.d << self.n_sh;
        debug_assert!(
            i16::try_from(v).is_ok(),
            "pre-shifted value {v} (D = {}, n_sh = {}) overflows the i16 panel format",
            self.d,
            self.n_sh
        );
        v
    }
}

/// Packs a [`QuqCode`] into the low `p + 1` bits of a byte.
fn pack_code(code: QuqCode, p: u32) -> u8 {
    let mask = (1u16 << p) - 1;
    let payload = (code.code as i16 as u16) & mask;
    (((code.fine as u16) << p) | payload) as u8
}

/// Flattens a parameter set into the plain numbers the encoder kernels of
/// [`quq_tensor::linalg::isa`] run on: per sign, the fine and the coarse
/// subrange (scale, code bounds and operand step, or absent), plus the
/// bytes [`QuqParams::quantize`] gives zero-nearest, NaN and ±∞ and the
/// operands `D << n_sh` those bytes decode to under `fc`.
fn encode_plan(params: &QuqParams, fc: FcRegisters) -> EncodePlan {
    let (p, bits) = (params.payload_bits(), params.bits());
    let decode = |code: QuqCode| decode_qub(pack_code(code, p), fc, bits);
    let operand = |code: QuqCode| {
        i16::try_from(decode(code).scaled()).expect("pre-shifted QUB value fits the i16 operand")
    };
    let range = |fine: bool, delta: Option<f32>, codes: Option<(i32, i32)>| match delta.zip(codes) {
        Some((delta, (lo, hi))) => {
            // A subrange's codes share one sign, so they share one shift,
            // and each decodes to itself: code `c` is the operand `c << n_sh`.
            let lowest = decode(QuqCode { fine, code: lo });
            debug_assert_eq!(lowest.d, lo, "a code decodes to itself");
            EncodeRange {
                delta,
                lo: lo as f32,
                hi: hi as f32,
                step: (1u32 << lowest.n_sh) as f32,
                penalty: 0.0,
            }
        }
        None => EncodeRange::ABSENT,
    };
    let (fine, coarse) = (params.fine(), params.coarse());
    let zero = params.nearest_to_zero();
    let (pos_inf, neg_inf) = (params.extreme_code(true), params.extreme_code(false));
    EncodePlan {
        neg: EncodeSide {
            fine: range(true, fine.neg_delta(), fine.neg_code_range(p)),
            coarse: range(false, coarse.neg_delta(), coarse.neg_code_range(p)),
        },
        pos: EncodeSide {
            fine: range(true, fine.pos_delta(), fine.pos_code_range(p)),
            coarse: range(false, coarse.pos_delta(), coarse.pos_code_range(p)),
        },
        payload_mask: ((1u16 << p) - 1) as u8,
        fine_flag: 1 << p,
        zero_byte: pack_code(zero, p),
        zero_value: params.dequantize(zero),
        zero_fine: zero.fine,
        nan_byte: pack_code(zero, p),
        pos_inf_byte: pack_code(pos_inf, p),
        neg_inf_byte: pack_code(neg_inf, p),
        zero_operand: operand(zero),
        nan_operand: operand(zero),
        pos_inf_operand: operand(pos_inf),
        neg_inf_operand: operand(neg_inf),
        regions: None,
    }
}

/// Encoder/decoder between [`QuqCode`]s, QUB bytes, and [`Decoded`]
/// integers for one tensor's parameter set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubCodec {
    params: QuqParams,
    fc: FcRegisters,
    base_delta: f32,
    plan: EncodePlan,
}

impl QubCodec {
    /// Builds the codec for a parameter set: FC registers, base scale and
    /// the encoder plan, with its region tables when the layout admits
    /// them ([`isa::Regions`]), are derived here, once.
    pub fn new(params: QuqParams) -> Self {
        let fc = FcRegisters::from_params(&params);
        Self {
            params,
            fc,
            base_delta: params.base_delta(),
            plan: encode_plan(&params, fc).with_regions(),
        }
    }

    /// Whether the encoder plan has region tables, so the AVX-512 kernel
    /// can skip the search for most values.
    pub fn has_region_tables(&self) -> bool {
        self.plan.regions.is_some()
    }

    /// The underlying parameters.
    pub fn params(&self) -> &QuqParams {
        &self.params
    }

    /// The FC registers shipped with the tensor.
    pub fn fc(&self) -> FcRegisters {
        self.fc
    }

    /// The base scale `Δ` shipped with the tensor.
    pub fn base_delta(&self) -> f32 {
        self.base_delta
    }

    /// Packs a [`QuqCode`] into a *b*-bit QUB (stored in the low bits of a
    /// byte; for b = 8 the byte layout matches the paper exactly).
    pub fn encode(&self, code: QuqCode) -> u8 {
        pack_code(code, self.params.payload_bits())
    }

    /// Decodes a QUB into `(D, n_sh)` using only the byte and the FC
    /// registers — Eq. 6/7, the hardware decoding-unit function.
    pub fn decode(&self, qub: u8) -> Decoded {
        decode_qub(qub, self.fc, self.params.bits())
    }

    /// Quantizes a real value straight to its QUB byte, one element at a
    /// time through [`QuqParams::quantize`] — the oracle
    /// [`encode_slice`](Self::encode_slice) is tested against.
    pub fn quantize(&self, x: f32) -> u8 {
        self.encode(self.params.quantize(x))
    }

    /// Reconstructs the real value of a QUB byte.
    pub fn dequantize(&self, qub: u8) -> f32 {
        self.decode(qub).scaled() as f32 * self.base_delta()
    }

    /// Encodes `src` into `dst`, one byte per value, with the SIMD kernel
    /// [`isa::resolve`] selects (bit-identical to [`quantize`](Self::quantize)
    /// on every ISA). Returns the kernel family that ran.
    ///
    /// # Panics
    ///
    /// Panics when the slices differ in length.
    pub fn encode_slice(&self, src: &[f32], dst: &mut [u8]) -> isa::Isa {
        isa::encode_qub(&self.plan, src, dst)
    }

    /// Encodes a whole tensor to QUB bytes (row-major, one byte per value).
    pub fn encode_tensor(&self, t: &Tensor) -> QubTensor {
        let _span = quq_obs::span("qub.encode");
        let mut bytes = vec![0u8; t.len()];
        self.encode_slice(t.data(), &mut bytes);
        QubTensor::new(
            bytes,
            t.shape().to_vec(),
            self.fc,
            self.params.bits(),
            self.base_delta,
        )
    }

    /// The row-major `A` operand of the integer GEMM: every value of `src`
    /// as the integer its QUB decodes to, `D << n_sh` (units of
    /// [`base_delta`](Self::base_delta)), formed in the SIMD pass that
    /// picks the code — equal to [`encode_tensor`](Self::encode_tensor)
    /// then [`QubTensor::decode_preshifted`], without the bytes.
    pub fn encode_preshifted(&self, src: &[f32]) -> Vec<i16> {
        let _span = quq_obs::span("qub.encode");
        self.operands(src)
    }

    /// The packed `B` operand of the integer GEMM for row-major `b[n, k]`
    /// (`K` of `Q·Kᵀ`) — equal to encoding `b` and packing its bytes with
    /// [`PackedB::from_codes`] through [`preshift_lut`].
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != n·k`.
    pub fn encode_panel(&self, b: &[f32], n: usize, k: usize) -> PackedB {
        let _span = quq_obs::span("qub.encode");
        PackedB::pack(&self.operands(b), n, k)
    }

    /// The packed `B` operand for `B = Xᵀ`, `x[k, n]` row-major (`V` of
    /// `P·V`), packed from `x`'s own layout with no transposed copy of `x`
    /// or of its codes — equal to encoding `Xᵀ` and packing its bytes.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != k·n`.
    pub fn encode_panel_transposed(&self, x: &[f32], k: usize, n: usize) -> PackedB {
        let _span = quq_obs::span("qub.encode");
        PackedB::pack_transposed(&self.operands(x), k, n)
    }

    fn operands(&self, src: &[f32]) -> Vec<i16> {
        let mut out = vec![0i16; src.len()];
        isa::encode_qub(&self.plan, src, &mut out);
        out
    }
}

/// Stateless QUB decode: byte + FC registers + bit-width only (what the
/// hardware DU computes).
pub fn decode_qub(qub: u8, fc: FcRegisters, bits: u32) -> Decoded {
    let p = bits - 1;
    let flag_fine = (qub >> p) & 1 == 1;
    let payload = (qub & ((1u16 << p) as u8).wrapping_sub(1)) as i32;
    let reg = if flag_fine { fc.fine } else { fc.coarse };
    let split = reg & 0x80 != 0;
    let d = if split {
        // Signed p-bit payload: sign-extend from bit p−1.
        if payload & (1 << (p - 1)) != 0 {
            payload - (1 << p)
        } else {
            payload
        }
    } else if reg & 0x40 != 0 {
        // Merged negative: {1, payload} as (p+1)-bit two's complement.
        payload - (1 << p)
    } else {
        // Merged positive: plain unsigned payload.
        payload
    };
    let n_sh = if d < 0 { (reg >> 3) & 0x7 } else { reg & 0x7 } as u32;
    Decoded { d, n_sh }
}

/// Builds the pre-shift decode table for one `(FC, b)` description: entry
/// `q` is `decode_qub(q).scaled()` narrowed to the `i16` panel format. A
/// QUB stream decodes by indexing this table — the software analogue of the
/// hardware decoding unit's combinational output, amortized over the whole
/// tensor.
///
/// # Panics
///
/// Panics when any pre-shifted value exceeds the `i16` range, which Eq. 4
/// rules out for b ≤ 8 (see [`Decoded::scaled`]).
pub fn preshift_lut(fc: FcRegisters, bits: u32) -> Vec<i16> {
    quq_obs::add("qub.lut_builds", 1);
    (0..1u32 << bits)
        .map(|q| {
            let v = decode_qub(q as u8, fc, bits).scaled();
            i16::try_from(v).expect("pre-shifted QUB value must fit the i16 panel format")
        })
        .collect()
}

/// Lazily-built packed GEMM panel attached to a [`QubTensor`].
///
/// The panel is derived data (a pure function of bytes + FC + bits), so the
/// cache is invisible to equality, survives clones, and is shared across
/// threads once built. Layer weights in particular are packed once per
/// model rather than once per image per GEMM.
#[derive(Debug, Default)]
pub struct DecodeCache(OnceLock<Arc<PackedB>>);

impl Clone for DecodeCache {
    fn clone(&self) -> Self {
        let fresh = OnceLock::new();
        if let Some(panel) = self.0.get() {
            let _ = fresh.set(Arc::clone(panel));
        }
        Self(fresh)
    }
}

impl PartialEq for DecodeCache {
    fn eq(&self, _other: &Self) -> bool {
        // Derived data: two tensors with equal bytes/FC/bits always decode
        // to the same panel, so cache state never distinguishes tensors.
        true
    }
}

/// A tensor of QUB bytes plus the sideband data a consumer needs: FC
/// registers, bit-width and base scale. This is exactly the wire format the
/// accelerator streams (paper Fig. 5/6).
#[derive(Debug, Clone, PartialEq)]
pub struct QubTensor {
    /// QUB bytes, row-major.
    pub bytes: Vec<u8>,
    /// Logical shape.
    pub shape: Vec<usize>,
    /// Per-tensor FC registers.
    pub fc: FcRegisters,
    /// QUB bit-width `b`.
    pub bits: u32,
    /// Base scale factor `Δ`.
    pub base_delta: f32,
    /// Lazily-built packed GEMM panel (derived, never serialized).
    pub(crate) panel: DecodeCache,
}

impl QubTensor {
    /// Assembles a tensor from its wire parts.
    ///
    /// # Panics
    ///
    /// Panics when `bytes.len()` differs from the product of `shape`.
    pub fn new(
        bytes: Vec<u8>,
        shape: Vec<usize>,
        fc: FcRegisters,
        bits: u32,
        base_delta: f32,
    ) -> Self {
        assert_eq!(
            bytes.len(),
            shape.iter().product::<usize>(),
            "byte count must match shape"
        );
        Self {
            bytes,
            shape,
            fc,
            bits,
            base_delta,
            panel: DecodeCache::default(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decodes every byte to `D · 2^{n_sh}` integers (units of `Δ_base`).
    pub fn decode_scaled(&self) -> IntTensor {
        self.decode_preshifted().to_i32()
    }

    /// Decodes every byte to `(D, n_sh)` pairs.
    pub fn decode_pairs(&self) -> Vec<Decoded> {
        self.bytes
            .iter()
            .map(|&b| decode_qub(b, self.fc, self.bits))
            .collect()
    }

    /// Decodes every byte to a pre-shifted packed panel: `D << n_sh` stored
    /// as `i16` (2 bytes/element, no shift left for the inner loop). Decode
    /// goes through [`preshift_lut`], one table index per element.
    pub fn decode_preshifted(&self) -> I16Tensor {
        let _span = quq_obs::span("qub.decode_preshifted");
        let lut = preshift_lut(self.fc, self.bits);
        let data = self.bytes.iter().map(|&b| lut[b as usize]).collect();
        I16Tensor::from_vec(data, &self.shape).expect("sized")
    }

    /// The tensor as the `B` operand of the integer GEMM: its pre-shifted
    /// values `D << n_sh` in the lane-per-column layout of
    /// [`PackedB`], built at most once per tensor and cached
    /// (interior-mutable; shared by clones made after the first build).
    /// The integer GEMM path calls this so reused operands — layer weights
    /// above all — pay the decode and the packing exactly once per model.
    ///
    /// The panel is built in one pass from the code bytes through
    /// [`preshift_lut`]; the logical tensor ([`QubTensor::decode_preshifted`],
    /// and through it the SFU-side `decode_scaled`) is unaffected. Leading
    /// axes are flattened: the panel has `len / k` columns of depth `k`, the
    /// last axis.
    pub fn preshifted(&self) -> Arc<PackedB> {
        Arc::clone(self.panel.0.get_or_init(|| {
            let k = self.shape.last().copied().unwrap_or(1);
            let n = self.shape[..self.shape.len().saturating_sub(1)]
                .iter()
                .product();
            let lut = preshift_lut(self.fc, self.bits);
            Arc::new(PackedB::from_codes(&self.bytes, n, k, &lut))
        }))
    }

    /// Reconstructs the real-valued tensor.
    pub fn dequantize(&self) -> Tensor {
        self.decode_scaled().to_f32(self.base_delta)
    }

    /// Memory footprint in bits (payload only, excluding the two FC
    /// registers and the base scale): `len · b`.
    pub fn payload_bits_total(&self) -> usize {
        self.len() * self.bits as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::Pra;
    use crate::scheme::SpaceLayout;
    use quq_tensor::rng::OutlierMixture;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_mode_params(bits: u32) -> Vec<QuqParams> {
        vec![
            // Mode A
            QuqParams::new(
                bits,
                SpaceLayout::Split {
                    neg: 0.01,
                    pos: 0.02,
                },
                SpaceLayout::Split {
                    neg: 0.16,
                    pos: 0.08,
                },
            )
            .unwrap(),
            // Mode B (positive)
            QuqParams::new(
                bits,
                SpaceLayout::MergedPos { delta: 0.01 },
                SpaceLayout::MergedPos { delta: 0.08 },
            )
            .unwrap(),
            // Mode B (negative)
            QuqParams::new(
                bits,
                SpaceLayout::MergedNeg { delta: 0.01 },
                SpaceLayout::MergedNeg { delta: 0.04 },
            )
            .unwrap(),
            // Mode C
            QuqParams::new(
                bits,
                SpaceLayout::Split {
                    neg: 0.04,
                    pos: 0.01,
                },
                SpaceLayout::MergedPos { delta: 0.08 },
            )
            .unwrap(),
            // Mode D / uniform
            QuqParams::uniform(bits, 0.05).unwrap(),
        ]
    }

    #[test]
    fn fc_registers_encode_layout() {
        let p = QuqParams::new(
            8,
            SpaceLayout::Split {
                neg: 0.01,
                pos: 0.02,
            },
            SpaceLayout::Split {
                neg: 0.16,
                pos: 0.08,
            },
        )
        .unwrap();
        let fc = FcRegisters::from_params(&p);
        // Fine: split, shifts (0, 1) → 1000_0001.
        assert_eq!(fc.fine, 0b1000_0001);
        // Coarse: split, shifts (4, 3) → 1010_0011.
        assert_eq!(fc.coarse, 0b1010_0011);
    }

    #[test]
    fn fc_registers_merged_sides() {
        let p = QuqParams::new(
            8,
            SpaceLayout::MergedNeg { delta: 0.02 },
            SpaceLayout::MergedNeg { delta: 0.08 },
        )
        .unwrap();
        let fc = FcRegisters::from_params(&p);
        assert_eq!(fc.fine, 0b0100_0000); // merged-neg, shift 0 in bits 5..3
        assert_eq!(fc.coarse, 0b0101_0000); // merged-neg, shift 2
    }

    #[test]
    fn roundtrip_code_to_byte_to_decoded_all_modes_all_bits() {
        for bits in [4u32, 6, 8] {
            for params in all_mode_params(bits) {
                let codec = QubCodec::new(params);
                // Sweep a dense grid of values including extremes.
                for i in -3000..3000 {
                    let x = i as f32 * 0.004;
                    let code = params.quantize(x);
                    let byte = codec.encode(code);
                    // The byte fits in b bits.
                    assert!(
                        (byte as u32) < (1u32 << bits),
                        "byte {byte} overflows {bits} bits"
                    );
                    let dec = codec.decode(byte);
                    assert_eq!(dec.d, code.code, "D mismatch at x = {x} ({params:?})");
                    assert_eq!(
                        dec.n_sh,
                        params.shift_for(code),
                        "shift mismatch at x = {x}"
                    );
                    // Eq. 7: the reconstructed value matches dequantize.
                    let recon = dec.scaled() as f32 * codec.base_delta();
                    let expect = params.dequantize(code);
                    assert!(
                        (recon - expect).abs() <= 1e-5 * expect.abs().max(1.0),
                        "value mismatch at {x}: {recon} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn exhaustive_byte_decode_is_total_for_8_bit() {
        // Every possible byte must decode without panicking for every mode,
        // and D must fit an i8-like range (the paper's 8-bit signed claim).
        for params in all_mode_params(8) {
            let codec = QubCodec::new(params);
            for byte in 0..=255u8 {
                let dec = codec.decode(byte);
                assert!(
                    (-128..=127).contains(&dec.d),
                    "D = {} out of i8 range",
                    dec.d
                );
                assert!(dec.n_sh <= 7);
            }
        }
    }

    #[test]
    fn decoded_d_fits_signed_bits_wide_multiplier() {
        // §4.1: a b-bit signed multiplier accommodates QUBs in any mode.
        for bits in [4u32, 6, 8] {
            let lo = -(1i32 << (bits - 1));
            let hi = (1i32 << (bits - 1)) - 1;
            for params in all_mode_params(bits) {
                let codec = QubCodec::new(params);
                for byte in 0..(1u16 << bits) {
                    let dec = codec.decode(byte as u8);
                    assert!(
                        dec.d >= lo && dec.d <= hi,
                        "{bits}-bit D = {} outside [{lo}, {hi}]",
                        dec.d
                    );
                }
            }
        }
    }

    #[test]
    fn tensor_roundtrip_preserves_fake_quantization() {
        let mut rng = StdRng::seed_from_u64(9);
        let values = OutlierMixture::new(0.05, 0.8, 0.02).sample_vec(&mut rng, 4096);
        let params = Pra::with_defaults(8).run(&values).params;
        let codec = QubCodec::new(params);
        let t = Tensor::from_vec(values.clone(), &[64, 64]).unwrap();
        let qt = codec.encode_tensor(&t);
        assert_eq!(qt.len(), 4096);
        assert_eq!(qt.payload_bits_total(), 4096 * 8);
        let back = qt.dequantize();
        let direct = params.fake_quantize_tensor(&t);
        for (a, b) in back.data().iter().zip(direct.data()) {
            assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    /// In an all-negative layout `0.0`, NaN and `+∞` have no candidate of
    /// their own; the encoder gives them the near-zero byte, fine `−1`, as
    /// `quantize` does. (The exhaustive encoder-vs-`quantize` comparison is
    /// in `tests/proptests.rs`.)
    #[test]
    fn encode_tensor_maps_the_uncovered_side_to_the_near_zero_byte() {
        let all_neg = QubCodec::new(all_mode_params(6)[2]);
        let near_zero = all_neg.encode(QuqCode {
            fine: true,
            code: -1,
        });
        let t = Tensor::from_vec(vec![0.0, f32::NAN, f32::INFINITY, -0.004], &[4]).unwrap();
        let bytes = all_neg.encode_tensor(&t).bytes;
        assert_eq!(bytes[..3], [near_zero; 3]);
        assert_eq!(bytes[3], all_neg.quantize(-0.004));
    }

    #[test]
    fn preshifted_panel_matches_pairwise_decode() {
        for bits in [4u32, 6, 8] {
            for params in all_mode_params(bits) {
                let codec = QubCodec::new(params);
                let mut rng = StdRng::seed_from_u64(41);
                let vals = OutlierMixture::new(0.05, 0.6, 0.02).sample_vec(&mut rng, 256);
                let qt = codec.encode_tensor(&Tensor::from_vec(vals, &[16, 16]).unwrap());
                let panel = qt.decode_preshifted();
                let pairs = qt.decode_pairs();
                assert_eq!(panel.len(), pairs.len());
                for (p, d) in panel.data().iter().zip(&pairs) {
                    assert_eq!(*p as i32, d.scaled(), "bits {bits}");
                }
                // And the i32 path agrees elementwise.
                assert_eq!(qt.decode_scaled().data(), panel.to_i32().data());
            }
        }
    }

    #[test]
    fn preshift_lut_covers_every_byte() {
        for bits in [4u32, 6, 8] {
            for params in all_mode_params(bits) {
                let codec = QubCodec::new(params);
                let lut = preshift_lut(codec.fc(), bits);
                assert_eq!(lut.len(), 1 << bits);
                for (q, &v) in lut.iter().enumerate() {
                    assert_eq!(v as i32, codec.decode(q as u8).scaled());
                }
            }
        }
    }

    #[test]
    fn preshifted_cache_decodes_once_and_survives_clones() {
        let params = QuqParams::uniform(8, 0.25).unwrap();
        let codec = QubCodec::new(params);
        let t = Tensor::from_vec(vec![0.25, -0.5, 1.0, 0.0], &[2, 2]).unwrap();
        let qt = codec.encode_tensor(&t);
        let first = qt.preshifted();
        let second = qt.preshifted();
        assert!(Arc::ptr_eq(&first, &second), "cache must hit");
        // Packed straight from the bytes, it holds the decoded values.
        assert_eq!(*first, PackedB::pack(qt.decode_preshifted().data(), 2, 2));
        // A clone made after the first decode shares the same panel.
        let cloned = qt.clone();
        assert!(Arc::ptr_eq(&first, &cloned.preshifted()));
        // Cache state never affects equality.
        let fresh = codec.encode_tensor(&t);
        assert_eq!(fresh, qt);
    }

    #[test]
    #[should_panic(expected = "byte count")]
    fn qub_tensor_new_rejects_shape_mismatch() {
        let fc = FcRegisters { fine: 0, coarse: 0 };
        let _ = QubTensor::new(vec![0u8; 3], vec![2, 2], fc, 8, 0.1);
    }

    #[test]
    fn six_bit_qub_uses_low_six_bits() {
        let params = Pra::with_defaults(6)
            .run(&[-1.0, -0.02, 0.01, 0.03, 1.2])
            .params;
        let codec = QubCodec::new(params);
        let t = Tensor::from_vec(vec![-1.0, 0.0, 0.5], &[3]).unwrap();
        let qt = codec.encode_tensor(&t);
        assert!(qt.bytes.iter().all(|&b| b < 64));
    }
}
