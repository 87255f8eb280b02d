//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every section of a QUQM artifact.
//!
//! Every load verifies every byte it reads, and chunk reads are zero-copy,
//! so the CRC pass *is* most of the open-to-ready cost of a raw artifact:
//! it runs over all of it on every cold start. Two kernels compute it, both
//! on the running (pre-inversion) register, so either can take over from
//! the other at any byte:
//!
//! * **Tables** — slice-by-8: eight 256-entry tables, built at compile
//!   time, fold eight input bytes per iteration with eight independent
//!   lookups (about 1.2 GB/s). This is the `Scalar` ISA's kernel, the only
//!   one off x86-64, and it takes inputs shorter than one fold and the
//!   sub-16-byte tail of the carry-less kernel.
//! * **Carry-less multiply** — four 128-bit lanes folded 64 bytes at a
//!   time with `pclmulqdq`, then reduced to one lane, to 64 bits, and by a
//!   Barrett reduction to the 32-bit register (Intel's "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ", the
//!   construction zlib, Chromium and crc32fast use; about 7 GB/s). The
//!   folding constants are powers of `x` modulo the polynomial, derived
//!   at compile time below.
//!
//! [`crc32`] resolves the kernel once per call through
//! [`quq_tensor::linalg::isa::resolve`]: `Scalar` runs the tables, and
//! every x86-64 tier runs the carry-less kernel when the host has
//! `pclmulqdq` and `sse4.1` — so `QUQ_FORCE_ISA=scalar` pins the tables
//! exactly as it pins the GEMM. Both kernels compute the same function,
//! which the tests check against a byte-at-a-time reference.
//!
//! The choice of CRC-32/IEEE keeps the on-disk format checkable by any
//! standard tool (`python3 -c "import zlib; print(zlib.crc32(data))"`
//! agrees byte-for-byte). Hand-rolled because the workspace is std-only.

#[cfg(target_arch = "x86_64")]
use quq_tensor::linalg::isa::{resolve, Isa};

/// The generator polynomial, bit-reflected (the `x^32` term implied).
const POLY_REFLECTED: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic CRC table; `TABLES[k]` maps a byte `b` to
/// the CRC contribution of `b` followed by `k` zero bytes, which is what
/// lets eight lanes be folded independently and XOR-combined.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                POLY_REFLECTED ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC-32/IEEE of `bytes` (matches `zlib.crc32`), on the kernel the
/// resolved ISA selects.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if resolve() != Isa::Scalar && clmul::supported() {
        // SAFETY: `clmul::supported` detected `pclmulqdq` and `sse4.1`.
        return !unsafe { clmul::update(!0, bytes) };
    }
    !tables(!0, bytes)
}

/// Slice-by-8: advances the register `c` over `bytes`.
fn tables(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        // Fold the running CRC into the first four bytes, then look all
        // eight lanes up in their distance-matched tables.
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply kernel and its folding constants.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Bytes one step of the four-lane fold consumes; shorter inputs go
    /// through the tables.
    const FOLD: usize = 64;

    /// The polynomial with its `x^32` term, non-reflected.
    const POLY: u64 = 0x1_04C1_1DB7;

    /// `x^n mod P(x)` moved into the reflected domain the fold works in:
    /// bit-reversed as a 32-bit value, then shifted left by one, because a
    /// carry-less product of two reflected operands comes out one bit
    /// short of the reflected product.
    const fn xpow_mod(n: u32) -> u64 {
        let mut r: u64 = 1;
        let mut i = 0;
        while i < n {
            r <<= 1;
            if r >> 32 != 0 {
                r ^= POLY;
            }
            i += 1;
        }
        ((r as u32).reverse_bits() as u64) << 1
    }

    /// `⌊x^64 / P(x)⌋`, the 33-bit Barrett constant μ, reflected.
    const fn barrett_mu() -> u64 {
        let mut rem: u128 = 1 << 64;
        let mut q: u64 = 0;
        let mut shift = 32;
        loop {
            if rem >> (32 + shift) & 1 != 0 {
                q |= 1 << shift;
                rem ^= (POLY as u128) << shift;
            }
            if shift == 0 {
                break;
            }
            shift -= 1;
        }
        q.reverse_bits() >> 31
    }

    /// Folds a lane forward by 4 × 128 bits: its low and high halves sit
    /// at `x^(512+32)` and `x^(512-32)` relative to the lane 64 bytes on.
    pub(super) const FOLD_BY_4: [u64; 2] = [xpow_mod(4 * 128 + 32), xpow_mod(4 * 128 - 32)];
    /// The same for one lane forward by 128 bits.
    pub(super) const FOLD_BY_1: [u64; 2] = [xpow_mod(128 + 32), xpow_mod(128 - 32)];
    /// Folds the 96-bit remainder of the 128 → 64 reduction.
    pub(super) const FOLD_64: u64 = xpow_mod(64);
    /// `P(x)` reflected (33 bits) and μ, the Barrett reduction's operands.
    pub(super) const BARRETT: [u64; 2] = [POLY.reverse_bits() >> 31, barrett_mu()];

    /// Whether the host can run [`update`]: detected once by std and
    /// cached.
    pub(super) fn supported() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// `[lo, hi]` as one 128-bit operand.
    #[inline(always)]
    fn pair(k: [u64; 2]) -> __m128i {
        // SAFETY: `_mm_set_epi64x` is SSE2, part of the x86-64 baseline.
        unsafe { _mm_set_epi64x(k[1] as i64, k[0] as i64) }
    }

    /// The first 16 bytes of `block` as a lane.
    #[inline(always)]
    fn load(block: &[u8]) -> __m128i {
        assert!(block.len() >= 16);
        // SAFETY: the assert keeps the unaligned 16-byte load in bounds.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `lane · x^k` folded onto `next`: the low half times `keys[0]`, the
    /// high half times `keys[1]`, both XORed into the lane that follows.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, keys);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the CRC register `reg` over `bytes`: four lanes while 64
    /// bytes remain, one while 16 do, then the reduction to 32 bits; the
    /// tables take inputs below [`FOLD`] and the last `len % 16` bytes.
    ///
    /// # Safety
    ///
    /// The host must support `pclmulqdq` and `sse4.1` ([`supported`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(reg: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < FOLD {
            return super::tables(reg, bytes);
        }
        let mut blocks = bytes.chunks_exact(16);
        let mut next = || load(blocks.next().expect("a 16-byte block remains"));
        // The register XORs into the first four message bytes, which sit
        // in the low bits of the first lane.
        let mut lanes = [
            _mm_xor_si128(next(), _mm_cvtsi32_si128(reg as i32)),
            next(),
            next(),
            next(),
        ];
        let whole = bytes.len() / 16;
        let by4 = pair(FOLD_BY_4);
        for _ in 1..whole / 4 {
            for lane in &mut lanes {
                *lane = fold(*lane, next(), by4);
            }
        }
        let by1 = pair(FOLD_BY_1);
        let mut x = fold(lanes[0], lanes[1], by1);
        x = fold(x, lanes[2], by1);
        x = fold(x, lanes[3], by1);
        for _ in 0..whole % 4 {
            x = fold(x, next(), by1);
        }

        // 128 → 64 bits: fold the low half onto the high half, then the
        // low 32 bits of that onto the 64 above them.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, by1), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), pair([FOLD_64, 0])),
            _mm_srli_si128::<4>(x),
        );
        // Barrett reduction, reflected: T1 = (R mod x^32)·μ, T2 = (T1 mod
        // x^32)·P, and the register is the upper 32 bits of R ⊕ T2.
        let pu = pair(BARRETT);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let reg = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::tables(reg, &bytes[whole * 16..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Byte-at-a-time reference every kernel must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// A kernel under test: its name and its `crc32`.
    type Kernel = (&'static str, fn(&[u8]) -> u32);

    /// Every kernel this host can run, called directly (not through the
    /// ISA dispatch), and the dispatching [`crc32`] itself.
    fn kernels() -> Vec<Kernel> {
        #[allow(unused_mut)]
        let mut v: Vec<Kernel> = vec![("tables", |b| !tables(!0, b)), ("dispatch", crc32)];
        #[cfg(target_arch = "x86_64")]
        if clmul::supported() {
            // SAFETY: `clmul::supported` detected the kernel's features.
            v.push(("clmul", |b| !unsafe { clmul::update(!0, b) }));
        } else {
            eprintln!("host lacks pclmulqdq/sse4.1: carry-less kernel not tested");
        }
        v
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen::<u32>() as u8).collect()
    }

    #[test]
    fn known_answer_vectors() {
        // The CRC-32/IEEE check value from the catalogue of parametrised
        // CRC algorithms, the empty-input identity, and zlib.crc32 of 1000
        // zero bytes (long enough for every kernel's main loop).
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        for (name, f) in kernels() {
            assert_eq!(f(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(f(b""), 0, "{name}");
            assert_eq!(f(&[0u8; 1000]), 0x060B_1780, "{name}");
        }
    }

    #[test]
    fn every_kernel_agrees_with_bytewise_at_every_length_and_offset() {
        // Every length 0..=1024 (all fold counts, all tails) at every
        // start offset 0..16 (all alignments of the 16-byte loads).
        let data = random_bytes(1024 + 16, 97);
        let kernels = kernels();
        for offset in 0..16 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                let want = crc32_bytewise(slice);
                for (name, f) in &kernels {
                    assert_eq!(f(slice), want, "{name}: offset {offset}, length {len}");
                }
            }
        }
    }

    #[test]
    fn every_kernel_agrees_with_bytewise_on_a_large_buffer() {
        let data = random_bytes((1 << 20) + 13, 98);
        let want = crc32_bytewise(&data);
        for (name, f) in kernels() {
            assert_eq!(f(&data), want, "{name}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        // Three folds and a tail, so a flip lands in every stage of the
        // carry-less kernel.
        let data = random_bytes(3 * 64 + 16 + 7, 99);
        for (name, f) in kernels() {
            let base = f(&data);
            for i in 0..data.len() {
                for bit in 0..8 {
                    let mut d = data.clone();
                    d[i] ^= 1 << bit;
                    assert_ne!(f(&d), base, "{name}: flip at byte {i} bit {bit} undetected");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_match_the_published_ones() {
        // The values zlib, Chromium and crc32fast hard-code.
        assert_eq!(clmul::FOLD_BY_4, [0x1_5444_2BD4, 0x1_C6E4_1596]);
        assert_eq!(clmul::FOLD_BY_1, [0x1_7519_97D0, 0x0_CCAA_009E]);
        assert_eq!(clmul::FOLD_64, 0x1_63CD_6124);
        assert_eq!(clmul::BARRETT, [0x1_DB71_0641, 0x1_F701_1641]);
    }
}
