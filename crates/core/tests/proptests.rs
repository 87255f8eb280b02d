//! Property-based tests of the QUQ core invariants.

use proptest::prelude::*;
use quq_core::{relax, Pra, PraConfig, QubCodec, QuqParams, SpaceLayout};
use quq_tensor::linalg::isa::{self, Isa};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Tests that pin `QUQ_FORCE_ISA` hold this lock while they do, and put
/// back what they found: `scripts/check.sh` pins the ISA from
/// outside, once per kernel, and that pin must outlive the first test.
static ENV: Mutex<()> = Mutex::new(());

struct EnvPin {
    saved: Option<String>,
    _lock: MutexGuard<'static, ()>,
}

fn pin_env() -> EnvPin {
    let lock = ENV.lock().unwrap_or_else(PoisonError::into_inner);
    EnvPin {
        saved: std::env::var("QUQ_FORCE_ISA").ok(),
        _lock: lock,
    }
}

impl Drop for EnvPin {
    fn drop(&mut self) {
        match &self.saved {
            Some(v) => std::env::set_var("QUQ_FORCE_ISA", v),
            None => std::env::remove_var("QUQ_FORCE_ISA"),
        }
    }
}

fn sample_strategy() -> impl Strategy<Value = Vec<f32>> {
    // Mixture of a tight bulk and occasional outliers, arbitrary signs.
    prop::collection::vec(
        prop_oneof![
            8 => -0.1f32..0.1,
            1 => -50.0f32..50.0,
        ],
        8..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn relax_yields_power_of_two_ratio(d1 in 1e-6f32..1e6, d2 in 1e-6f32..1e6) {
        let (a, b) = relax(d1, d2);
        let l = (b / a).log2();
        prop_assert!((l - l.round()).abs() < 1e-4, "ratio 2^{l}");
        prop_assert!(a >= d1 * (1.0 - 1e-5));
        prop_assert!(b >= d2 * (1.0 - 1e-5));
    }

    #[test]
    fn pra_params_satisfy_eq4(values in sample_strategy(), bits in 4u32..=8) {
        let outcome = Pra::new(bits, PraConfig::default()).run(&values);
        let base = outcome.params.base_delta();
        for d in outcome.params.deltas() {
            let k = (d / base).log2();
            prop_assert!((k - k.round()).abs() < 1e-3, "Δ ratio 2^{k} not integral");
            prop_assert!((0.0..=7.5).contains(&k), "shift {k} outside FC budget");
        }
    }

    #[test]
    fn pra_never_clips_the_data_range_in_two_sided_modes(values in sample_strategy()) {
        prop_assume!(values.iter().any(|&v| v > 0.0) && values.iter().any(|&v| v < 0.0));
        let params = Pra::with_defaults(8).run(&values).params;
        let max = values.iter().copied().fold(0.0f32, f32::max);
        let min = values.iter().copied().fold(0.0f32, f32::min);
        // Representable range covers the calibration extremes (Algorithm 1
        // never shrinks a scale factor) up to rounding slack of one step.
        if let Some(hi) = params.max_representable() {
            let slack = params.deltas().fold(0.0f32, f32::max);
            prop_assert!(hi + slack >= max * 0.999, "hi {hi} < max {max}");
        }
        if let Some(lo) = params.min_representable() {
            let slack = params.deltas().fold(0.0f32, f32::max);
            prop_assert!(lo - slack <= min * 0.999 + 1e-12, "lo {lo} > min {min}");
        }
    }

    #[test]
    fn quantization_error_is_bounded_by_coarsest_step(values in sample_strategy(), x in -100.0f32..100.0) {
        let params = Pra::with_defaults(8).run(&values).params;
        let hi = params.max_representable().unwrap_or(0.0);
        let lo = params.min_representable().unwrap_or(0.0);
        prop_assume!(x >= lo && x <= hi);
        let err = (x - params.fake_quantize(x)).abs();
        let coarsest = params.deltas().fold(0.0f32, f32::max);
        prop_assert!(err <= coarsest / 2.0 + 1e-5, "err {err} > Δmax/2 {}", coarsest / 2.0);
    }

    #[test]
    fn qub_roundtrip_is_exact(values in sample_strategy(), bits in 4u32..=8, probe in -100.0f32..100.0) {
        let params = Pra::new(bits, PraConfig::default()).run(&values).params;
        let codec = QubCodec::new(params);
        let code = params.quantize(probe);
        let byte = codec.encode(code);
        let dec = codec.decode(byte);
        prop_assert_eq!(dec.d, code.code);
        prop_assert_eq!(dec.n_sh, params.shift_for(code));
        let recon = dec.scaled() as f32 * codec.base_delta();
        let expect = params.dequantize(code);
        prop_assert!((recon - expect).abs() <= 1e-4 * expect.abs().max(1.0));
    }

    #[test]
    fn fc_registers_fully_describe_the_quantizer(values in sample_strategy(), bits in 4u32..=8) {
        // params → (FC, Δ) → params must reproduce every dequantized value:
        // the wire format of io.rs depends on this.
        let params = Pra::new(bits, PraConfig::default()).run(&values).params;
        let fc = quq_core::FcRegisters::from_params(&params);
        let rebuilt = quq_core::params_from_fc(bits, fc, params.base_delta()).unwrap();
        prop_assert_eq!(params.mode(), rebuilt.mode());
        for byte in 0..(1u16 << bits) {
            let a = QubCodec::new(params).dequantize(byte as u8);
            let b = QubCodec::new(rebuilt).dequantize(byte as u8);
            prop_assert!((a - b).abs() <= 1e-5 * a.abs().max(1.0), "byte {byte}: {a} vs {b}");
        }
    }

    #[test]
    fn fc_roundtrip_is_exact_for_every_layout_variant(
        bits in 2u32..=8,
        base_exp in -12i32..4,
        fine_variant in 0usize..3,
        coarse_variant in 0usize..3,
        fine_sh in (0u32..=7, 0u32..=7),
        coarse_sh in (0u32..=7, 0u32..=7),
    ) {
        // Explicit layouts over every SpaceLayout variant pair with shifts
        // spanning the full 3-bit n_sh budget: from_params → params_from_fc
        // must reproduce variants and deltas exactly (powers of two are
        // exact in f32 at these exponents).
        let base = (base_exp as f32).exp2();
        let delta = |sh: u32| base * (sh as f32).exp2();
        let layout = |variant: usize, sh: (u32, u32)| match variant {
            0 => SpaceLayout::Split { neg: delta(sh.0), pos: delta(sh.1) },
            1 => SpaceLayout::MergedNeg { delta: delta(sh.0) },
            _ => SpaceLayout::MergedPos { delta: delta(sh.0) },
        };
        let fine = layout(fine_variant, fine_sh);
        let coarse = layout(coarse_variant, coarse_sh);
        let params = QuqParams::new(bits, fine, coarse).expect("valid layout");
        let fc = quq_core::FcRegisters::from_params(&params);
        let rebuilt = quq_core::params_from_fc(bits, fc, params.base_delta()).unwrap();
        prop_assert_eq!(rebuilt.fine(), fine);
        prop_assert_eq!(rebuilt.coarse(), coarse);
        prop_assert_eq!(rebuilt.mode(), params.mode());
    }

    #[test]
    fn shifts_beyond_the_3_bit_field_are_rejected(
        bits in 2u32..=8,
        base_exp in -12i32..4,
        excess in 8u32..=16,
    ) {
        // A scale ratio of 2^8 or more cannot be encoded in the 3-bit n_sh
        // field; constructing such params must fail rather than alias.
        let base = (base_exp as f32).exp2();
        let fine = SpaceLayout::MergedPos { delta: base };
        let coarse = SpaceLayout::MergedPos { delta: base * (excess as f32).exp2() };
        prop_assert!(QuqParams::new(bits, fine, coarse).is_err());
    }

    #[test]
    fn every_accepted_set_roundtrips_through_the_fc_registers_bit_for_bit(
        bits in 2u32..=8,
        base in 1e-6f32..10.0,
        variants in (0usize..3, 0usize..3),
        shifts in ((0u32..=7, 0u32..=7), (0u32..=7, 0u32..=7)),
        nudges in ((0u32..3, 0u32..3), (0u32..3, 0u32..3)),
    ) {
        // Scales of the form 2^k · base, each possibly moved up a few ulps.
        // The FC registers keep only k, so whatever `QuqParams::new` accepts
        // must come back bit for bit from (bits, FC, Δ_base); an un-nudged
        // set is always accepted.
        let delta = |sh: u32, ulps: u32| f32::from_bits((base * (sh as f32).exp2()).to_bits() + ulps);
        let layout = |variant: usize, sh: (u32, u32), ulps: (u32, u32)| match variant {
            0 => SpaceLayout::Split { neg: delta(sh.0, ulps.0), pos: delta(sh.1, ulps.1) },
            1 => SpaceLayout::MergedNeg { delta: delta(sh.0, ulps.0) },
            _ => SpaceLayout::MergedPos { delta: delta(sh.0, ulps.0) },
        };
        let fine = layout(variants.0, shifts.0, nudges.0);
        let coarse = layout(variants.1, shifts.1, nudges.1);
        let bits_of = |p: &QuqParams| p.deltas().map(f32::to_bits).collect::<Vec<_>>();
        match QuqParams::new(bits, fine, coarse) {
            Ok(params) => {
                let fc = quq_core::FcRegisters::from_params(&params);
                let rebuilt = quq_core::params_from_fc(bits, fc, params.base_delta()).unwrap();
                prop_assert_eq!(rebuilt.mode(), params.mode());
                prop_assert_eq!(bits_of(&rebuilt), bits_of(&params));
            }
            Err(e) => prop_assert!(nudges != ((0, 0), (0, 0)), "exact set refused: {e}"),
        }
    }

    #[test]
    fn wire_roundtrip_preserves_tensors(values in sample_strategy(), bits in 4u32..=8) {
        let params = Pra::new(bits, PraConfig::default()).run(&values).params;
        let n = values.len();
        let t = quq_tensor::Tensor::from_vec(values.clone(), &[n]).unwrap();
        let qt = QubCodec::new(params).encode_tensor(&t);
        let mut buf = Vec::new();
        quq_core::write_qub_tensor(&mut buf, &qt);
        let back = quq_core::read_qub_tensor(buf.as_slice()).unwrap();
        prop_assert_eq!(back, qt);
    }

    #[test]
    fn wire_roundtrip_covers_every_layout_variant(
        bits in 4u32..=8,
        base_exp in -12i32..0,
        fine_variant in 0usize..3,
        coarse_variant in 0usize..3,
        fine_sh in (0u32..=7, 0u32..=7),
        coarse_sh in (0u32..=7, 0u32..=7),
        values in prop::collection::vec(-8.0f32..8.0, 1..128),
    ) {
        // QUB1 round-trips for explicit layouts over every SpaceLayout
        // variant pair and the full 4–8 bit range, through both the default
        // and the caller-bounded reader. The bound set to the exact payload
        // size must accept; one byte less must reject in the header.
        let base = (base_exp as f32).exp2();
        let delta = |sh: u32| base * (sh as f32).exp2();
        let layout = |variant: usize, sh: (u32, u32)| match variant {
            0 => SpaceLayout::Split { neg: delta(sh.0), pos: delta(sh.1) },
            1 => SpaceLayout::MergedNeg { delta: delta(sh.0) },
            _ => SpaceLayout::MergedPos { delta: delta(sh.0) },
        };
        let params = QuqParams::new(
            bits,
            layout(fine_variant, fine_sh),
            layout(coarse_variant, coarse_sh),
        )
        .expect("valid layout");
        let n = values.len();
        let t = quq_tensor::Tensor::from_vec(values.clone(), &[n]).unwrap();
        let qt = QubCodec::new(params).encode_tensor(&t);
        let mut buf = Vec::new();
        quq_core::write_qub_tensor(&mut buf, &qt);
        let back = quq_core::read_qub_tensor(buf.as_slice()).unwrap();
        prop_assert_eq!(&back, &qt);
        prop_assert_eq!(back.dequantize().data(), qt.dequantize().data());
        let bounded =
            quq_core::read_qub_tensor_bounded(buf.as_slice(), qt.bytes.len() as u64).unwrap();
        prop_assert_eq!(&bounded, &qt);
        prop_assert!(
            quq_core::read_qub_tensor_bounded(buf.as_slice(), qt.bytes.len() as u64 - 1).is_err()
        );
    }

    #[test]
    fn fake_quantize_is_idempotent(values in sample_strategy(), x in -100.0f32..100.0) {
        let params = Pra::with_defaults(6).run(&values).params;
        let once = params.fake_quantize(x);
        let twice = params.fake_quantize(once);
        prop_assert!((once - twice).abs() <= 1e-5 * once.abs().max(1.0), "{once} vs {twice}");
    }

    #[test]
    fn scaled_params_preserve_mode_and_ratios(values in sample_strategy(), factor in 0.25f32..4.0) {
        let params = Pra::with_defaults(8).run(&values).params;
        let scaled = params.scaled(factor);
        prop_assert_eq!(params.mode(), scaled.mode());
        prop_assert!((scaled.base_delta() / params.base_delta() - factor).abs() < 1e-4 * factor);
    }

    #[test]
    fn uniform_special_case_is_symmetric(delta in 1e-4f32..10.0, x in -100.0f32..100.0) {
        let p = QuqParams::uniform(8, delta).unwrap();
        let q = p.fake_quantize(x);
        let qn = p.fake_quantize(-x);
        // Symmetric up to the one-code asymmetry of two's complement.
        prop_assert!((q + qn).abs() <= delta + 1e-5, "q {q}, qn {qn}");
    }

    #[test]
    fn mode_a_dequantize_is_monotone(values in sample_strategy()) {
        let params = Pra::with_defaults(6).run(&values).params;
        let mut last = f32::NEG_INFINITY;
        for i in -60..=60 {
            let x = i as f32 * 0.05;
            let q = params.fake_quantize(x);
            prop_assert!(q >= last - 1e-6, "non-monotone at {x}: {q} < {last}");
            last = q;
        }
    }
}

#[test]
fn space_layout_accessors_are_consistent() {
    let s = SpaceLayout::Split {
        neg: 0.5,
        pos: 0.25,
    };
    assert_eq!(s.neg_delta(), Some(0.5));
    assert_eq!(s.pos_delta(), Some(0.25));
    let m = SpaceLayout::MergedPos { delta: 0.1 };
    assert_eq!(m.neg_delta(), None);
    assert_eq!(m.pos_delta(), Some(0.1));
}

/// `x` moved `ulps` representable values along the real line (through
/// zero and the denormals).
fn nudge(x: f32, ulps: i32) -> f32 {
    let flip = |i: i32| if i < 0 { i32::MIN.wrapping_sub(i) } else { i };
    f32::from_bits(flip(flip(x.to_bits() as i32) + ulps) as u32)
}

/// The nine fine × coarse layout pairings (Modes A–D and their mirror
/// images) at one bit-width and base scale.
fn every_layout_pairing(bits: u32, base: f32) -> Vec<QuqParams> {
    let layout = |variant: usize, sh: (i32, i32)| {
        let delta = |k: i32| base * (k as f32).exp2();
        match variant {
            0 => SpaceLayout::Split {
                neg: delta(sh.0),
                pos: delta(sh.1),
            },
            1 => SpaceLayout::MergedNeg { delta: delta(sh.0) },
            _ => SpaceLayout::MergedPos { delta: delta(sh.1) },
        }
    };
    let mut out = Vec::new();
    for fine in 0..3 {
        for coarse in 0..3 {
            out.push(QuqParams::new(bits, layout(fine, (0, 1)), layout(coarse, (4, 3))).unwrap());
        }
    }
    out
}

/// Where an encoder can go wrong: every representable value, every
/// midpoint between neighbours, every half-step of every scale around
/// every value (the rounding ties of `x / Δ`), each ±3 ulp; then zeros,
/// denormals, the largest floats, NaN and ±∞.
fn encoder_probes(params: &QuqParams) -> Vec<f32> {
    let points = params.quantization_points();
    let mut centres = points.clone();
    centres.extend(points.windows(2).map(|w| (w[0] + w[1]) / 2.0));
    for d in params.deltas() {
        centres.extend(points.iter().flat_map(|&v| [v - d / 2.0, v + d / 2.0]));
    }
    centres.extend([0.0, -0.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE]);
    centres.extend([f32::MAX, f32::MIN, 1e-42, -1e-42]);
    let mut probes: Vec<f32> = centres
        .iter()
        .flat_map(|&c| (-3..=3).map(move |u| nudge(c, u)))
        .collect();
    probes.extend([f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
    probes
}

/// The SIMD encoder behind `encode_tensor` against the per-element
/// `QubCodec::quantize`, byte for byte: Modes A–D, bits 2–8, six base
/// scales, every kernel this host has, and every slice offset and length
/// 0..40 (an element's byte must not depend on where the vector tail
/// starts). `scripts/check.sh` re-runs it with `QUQ_FORCE_ISA` pinned.
#[test]
fn encoder_matches_quantize_bitwise_on_every_isa() {
    let _pin = pin_env();
    for bits in 2..=8 {
        for base in [0.013f32, 0.1, 3.1e-4, 1.7, 0.03125, 57.3] {
            for params in every_layout_pairing(bits, base) {
                let codec = QubCodec::new(params);
                let probes = encoder_probes(&params);
                let want: Vec<u8> = probes.iter().map(|&x| codec.quantize(x)).collect();
                // A window that mixes ordinary values with the specials.
                let tail = probes.len() - 80;
                for &which in isa::supported() {
                    std::env::set_var("QUQ_FORCE_ISA", which.name());
                    let mut got = vec![0u8; probes.len()];
                    codec.encode_slice(&probes, &mut got);
                    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
                        panic!(
                            "{}: x = {:e} ({:#010x}) encoded {:#04x}, quantize says {:#04x} ({params:?})",
                            which.name(),
                            probes[i],
                            probes[i].to_bits(),
                            got[i],
                            want[i],
                        );
                    }
                    // One scale per bit-width is enough for the slice sweep:
                    // it tests where the tail starts, not the arithmetic.
                    let offsets = if base == 0.013 { 0..40 } else { 0..0 };
                    for off in offsets {
                        for len in 0..40 {
                            let (lo, hi) = (tail + off, tail + off + len);
                            let mut part = vec![0u8; len];
                            codec.encode_slice(&probes[lo..hi], &mut part);
                            assert_eq!(part, want[lo..hi], "{} off {off}", which.name());
                        }
                    }
                }
            }
        }
    }
}

/// The kernel matrix is only worth running if pinning an ISA changes the
/// kernel that encodes. `encode_slice` returns the family that ran: it
/// must be the pinned one, for every ISA this host has and for the pin
/// `scripts/check.sh` sets from outside.
#[test]
fn encoder_runs_the_kernel_of_the_pinned_isa() {
    let _pin = pin_env();
    let family = |pinned: Isa| match pinned {
        Isa::Avx512Vnni => Isa::Avx512,
        other => other,
    };
    let codec = QubCodec::new(QuqParams::uniform(8, 0.05).unwrap());
    let src: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.07).collect();
    let mut dst = vec![0u8; src.len()];
    if let Ok(outside) = std::env::var("QUQ_FORCE_ISA") {
        let pinned = Isa::parse(&outside).expect("QUQ_FORCE_ISA names an ISA");
        assert_eq!(codec.encode_slice(&src, &mut dst), family(pinned));
    }
    for &pinned in isa::supported() {
        std::env::set_var("QUQ_FORCE_ISA", pinned.name());
        assert_eq!(isa::resolve(), pinned);
        assert_eq!(codec.encode_slice(&src, &mut dst), family(pinned));
    }
    std::env::remove_var("QUQ_FORCE_ISA");
    assert_eq!(codec.encode_slice(&src, &mut dst), family(isa::detect()));
}

/// The operand encoders against the byte path they replace, on every
/// kernel this host has: `encode_preshifted` must equal `encode_slice`
/// then `preshift_lut` (and `encode_tensor` then `decode_preshifted`),
/// and the two panel encoders must equal packing the
/// codes with `PackedB::from_codes` — of `B` itself, or of `Xᵀ` for the
/// transposed one. Modes A–D, bits 2–8, the probes of
/// `encoder_matches_quantize_bitwise_on_every_isa` (NaN, ±∞, −0.0 among
/// them), and panel shapes with odd `k`, `n` around one 16-column block,
/// single rows and empty sides. `scripts/check.sh` re-runs it with
/// `QUQ_FORCE_ISA` pinned.
#[test]
fn encoder_operands_match_bytes_then_decode_on_every_isa() {
    use quq_core::qub::{preshift_lut, QubTensor};
    use quq_tensor::linalg::PackedB;
    use quq_tensor::Tensor;

    let _pin = pin_env();
    for bits in 2..=8 {
        for base in [0.013f32, 3.1e-4, 57.3] {
            for params in every_layout_pairing(bits, base) {
                let codec = QubCodec::new(params);
                let lut = preshift_lut(codec.fc(), bits);
                let probes = encoder_probes(&params);
                let mut bytes = vec![0u8; probes.len()];
                codec.encode_slice(&probes, &mut bytes);
                let want: Vec<i16> = bytes.iter().map(|&b| lut[usize::from(b)]).collect();
                let tensor = |data: &[f32], shape: &[usize]| {
                    codec.encode_tensor(&Tensor::from_vec(data.to_vec(), shape).unwrap())
                };
                for &which in isa::supported() {
                    std::env::set_var("QUQ_FORCE_ISA", which.name());
                    let got = codec.encode_preshifted(&probes);
                    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
                        panic!(
                            "{}: x = {:e} encoded {}, byte {:#04x} decodes to {} ({params:?})",
                            which.name(),
                            probes[i],
                            got[i],
                            bytes[i],
                            want[i],
                        );
                    }
                    let q = tensor(&probes, &[probes.len()]);
                    assert_eq!(got, q.decode_preshifted().data(), "{}", which.name());
                    for (n, k) in [
                        (1, 1),
                        (1, 17),
                        (3, 2),
                        (15, 7),
                        (16, 9),
                        (17, 33),
                        (0, 5),
                        (4, 0),
                    ] {
                        let x: Vec<f32> =
                            probes.iter().copied().cycle().skip(n).take(n * k).collect();
                        let x = &x[..];
                        let panel = |q: &QubTensor, n: usize, k: usize| {
                            PackedB::from_codes(&q.bytes, n, k, &lut)
                        };
                        assert_eq!(
                            codec.encode_panel(x, n, k),
                            panel(&tensor(x, &[n, k]), n, k),
                            "{} B[{n}, {k}]",
                            which.name()
                        );
                        // `x` read as X[k, n]: the panel of Xᵀ.
                        let xt: Vec<f32> = (0..n * k).map(|i| x[(i % k) * n + i / k]).collect();
                        assert_eq!(
                            codec.encode_panel_transposed(x, k, n),
                            panel(&tensor(&xt, &[n, k]), n, k),
                            "{} X[{k}, {n}]ᵀ",
                            which.name()
                        );
                    }
                }
            }
        }
    }
}

/// The three layouts of one space, with its negative and positive scales.
fn space_layouts(neg: f32, pos: f32) -> [SpaceLayout; 3] {
    [
        SpaceLayout::Split { neg, pos },
        SpaceLayout::MergedNeg { delta: neg },
        SpaceLayout::MergedPos { delta: pos },
    ]
}

/// Where the encoder's region path can go wrong: every bound between
/// neighbouring values (the region bounds are among them), the edges of
/// the `2^-14` fallback band around each, and the far edge
/// `Δ_base · 2^20` on both signs, each ±4 ulp; then random bit patterns
/// (NaN, ±∞ and huge values among them) and random values across the
/// range, which mostly take the region path.
fn region_probes(params: &QuqParams, seed: u64) -> Vec<f32> {
    const BAND: f32 = 1.0 / 16384.0;
    let points = params.quantization_points();
    let reach = params.base_delta() * 1_048_576.0;
    let mut centres = vec![reach, -reach];
    for w in points.windows(2) {
        let mid = (w[0] + w[1]) / 2.0;
        centres.extend([mid, mid * (1.0 - BAND), mid * (1.0 + BAND)]);
    }
    let mut probes: Vec<f32> = centres
        .iter()
        .flat_map(|&c| (-4..=4).map(move |u| nudge(c, u)))
        .collect();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let span = points.iter().fold(0f32, |m, v| m.max(v.abs())) * 1.25;
    for _ in 0..512 {
        probes.push(f32::from_bits(next() as u32));
        let unit = (next() >> 40) as f32 / (1u64 << 24) as f32;
        probes.push((2.0 * unit - 1.0) * span);
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The region path against `QubCodec::quantize` (bytes) and
    /// `preshift_lut` (operands) on generated Eq. 4 layouts: all nine
    /// fine × coarse pairings, including a coarse space finer than the
    /// fine one (which has no tables and searches), bits 2–8, per-subrange
    /// shifts 0–7 and base scales from 1e-9 (below the tables' `1e-7` floor)
    /// to 1e3, on every kernel this
    /// host has. `scripts/check.sh` re-runs it with `QUQ_FORCE_ISA` pinned.
    #[test]
    fn encoder_region_path_matches_quantize_on_generated_eq4_layouts(
        bits in 2u32..=8,
        shifts in prop::collection::vec(0i32..8, 4),
        log_base in -9.0f32..3.0,
        seed in any::<u64>(),
    ) {
        use quq_core::qub::preshift_lut;

        let _pin = pin_env();
        let base = 10f32.powf(log_base);
        let delta = |k: i32| base * (k as f32).exp2();
        let fine = space_layouts(delta(shifts[0]), delta(shifts[1]));
        let coarse = space_layouts(delta(shifts[2]), delta(shifts[3]));
        for (f, c) in fine.iter().flat_map(|&f| coarse.iter().map(move |&c| (f, c))) {
            let params = QuqParams::new(bits, f, c).unwrap();
            let codec = QubCodec::new(params);
            let lut = preshift_lut(codec.fc(), bits);
            let probes = region_probes(&params, seed);
            let want: Vec<u8> = probes.iter().map(|&x| codec.quantize(x)).collect();
            for &which in isa::supported() {
                std::env::set_var("QUQ_FORCE_ISA", which.name());
                let mut bytes = vec![0u8; probes.len()];
                codec.encode_slice(&probes, &mut bytes);
                let operands = codec.encode_preshifted(&probes);
                if let Some(i) = (0..probes.len())
                    .find(|&i| bytes[i] != want[i] || operands[i] != lut[usize::from(want[i])])
                {
                    panic!(
                        "{}: x = {:e} ({:#010x}) encoded {:#04x} / {}, quantize says {:#04x} / {} ({params:?})",
                        which.name(),
                        probes[i],
                        probes[i].to_bits(),
                        bytes[i],
                        operands[i],
                        want[i],
                        lut[usize::from(want[i])],
                    );
                }
            }
        }
    }
}
