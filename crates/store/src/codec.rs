//! The per-chunk codec pipeline of QUQM v2 artifacts.
//!
//! Each chunk declares a **codec stack** in the manifest — an ordered list
//! of transforms applied to the raw payload at write time and undone, in
//! reverse, at read time (the same chain-of-declared-codecs shape zarrs
//! gives its arrays). The stack is data, not convention: a v2 reader
//! decodes whatever the manifest declares, and an empty stack means the
//! payload is stored raw.
//!
//! Three std-only codecs fit this workload:
//!
//! * [`ByteShuffle`] — transposes the byte lanes of fixed-stride records
//!   (stride 4 for `f32` tensors), so the sign/exponent bytes of every
//!   value land next to each other. Weight tensors have tightly clustered
//!   exponents, concentrating all of the compressible structure into one
//!   quarter of the stream. Size-preserving, trivially invertible.
//! * [`Lz`] — an LZ77-style match/literal compressor with a 64 KiB window
//!   and overlapping copies (distance 1 = classic RLE). No entropy stage:
//!   decode is a bounds-checked copy loop. Wins on repetitive payloads
//!   (constant runs, structural tables).
//! * [`Rc`] — an adaptive binary range coder over a per-byte bit tree
//!   (the LZMA literal-coder shape). Gaussian-ish weight data has almost
//!   no exact repeats for LZ to match — its redundancy is the *skewed
//!   distribution* of the shuffled exponent lane (measured ≈2.7 bits/byte
//!   against 8), which only entropy coding can collect. `byte-shuffle →
//!   rc` is what gets f32 tensor chunks past the 15% size-reduction gate;
//!   the adaptive model re-learns each lane as the stream crosses into
//!   it, so near-random mantissa lanes cost ≈0.2% overhead instead of
//!   needing per-lane framing.
//!
//! The writer does not guess: it measures every chunk under each candidate
//! stack and **keeps raw unless compression wins at least 2%**
//! ([`MIN_SAVINGS_PERMILLE`]) — QUB chunks are already near-entropy-packed
//! and stay raw; the f32 tensor/table chunks compress well. The decision
//! is recorded per chunk (the manifest stack *is* the record) and
//! surfaces in the writer's [`crate::SaveReport`].
//!
//! Decode is hardened like every other load path: hostile or corrupt
//! streams yield a structured [`StoreError::Format`], output is grown
//! incrementally and hard-capped at the declared decoded length, and only
//! the last codec of a stack may change the payload length
//! ([`CodecStack::validate`]), so every intermediate decode step knows its
//! exact expected size.

use crate::StoreError;

/// Minimum savings, in permille of the raw size, a compressed encoding
/// must achieve before the writer prefers it over raw storage.
pub const MIN_SAVINGS_PERMILLE: u64 = 20;

/// Longest codec stack a manifest may declare.
pub const MAX_STACK_LEN: usize = 4;

/// Shortest match the LZ encoder emits (also the hash width).
const MIN_MATCH: usize = 4;

/// Longest match one LZ token can carry: `MIN_MATCH + 0x7F`.
const MAX_MATCH: usize = MIN_MATCH + 0x7F;

/// Longest literal run one LZ token can carry.
const MAX_LITERAL: usize = 0x80;

/// LZ match window (distances are u16, 0 is invalid).
const MAX_DISTANCE: usize = u16::MAX as usize;

/// One byte-slice transform: encode on save, decode (exact inverse) on
/// load. Implementations declare a stable wire id and parameter bytes so
/// the manifest can reconstruct them.
pub trait Codec: Send + Sync {
    /// Stable wire id of this codec.
    fn id(&self) -> u8;

    /// Human-readable name (for reports and errors).
    fn name(&self) -> &'static str;

    /// Whether `encode` always preserves the payload length. Stacks may
    /// only change length in their final codec, so every decode step
    /// knows its expected output size.
    fn size_preserving(&self) -> bool;

    /// Transforms `input` into its stored form. Infallible: every byte
    /// slice has an encoding.
    fn encode(&self, input: &[u8]) -> Vec<u8>;

    /// Inverts [`Codec::encode`], producing exactly `raw_len` bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] when `input` is not a valid encoding of any
    /// `raw_len`-byte payload (truncated stream, out-of-window match,
    /// wrong decoded length). Never panics, never allocates more than the
    /// actually-decoded bytes.
    fn decode(&self, input: &[u8], raw_len: usize) -> Result<Vec<u8>, StoreError>;
}

/// The identity codec. Stacks never contain it (an empty stack already
/// means raw); it exists so the trait's contract can be exercised and as
/// the degenerate reference the others are tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Raw;

impl Codec for Raw {
    fn id(&self) -> u8 {
        0
    }
    fn name(&self) -> &'static str {
        "raw"
    }
    fn size_preserving(&self) -> bool {
        true
    }
    fn encode(&self, input: &[u8]) -> Vec<u8> {
        input.to_vec()
    }
    fn decode(&self, input: &[u8], raw_len: usize) -> Result<Vec<u8>, StoreError> {
        if input.len() != raw_len {
            return Err(StoreError::Format(format!(
                "raw codec: {} stored bytes but {raw_len} expected",
                input.len()
            )));
        }
        Ok(input.to_vec())
    }
}

/// Byte-lane transpose over fixed-stride records: all first bytes, then
/// all second bytes, … A tail shorter than one record is appended
/// untransposed. With stride 4 over `f32` data the fourth lane holds every
/// value's sign + high exponent bits — near-constant for weight tensors —
/// and the third lane its low exponent bit + mantissa top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteShuffle {
    /// Record width in bytes (4 for `f32`). Must be ≥ 2; a stride of 1
    /// would be the identity.
    pub stride: u8,
}

impl Codec for ByteShuffle {
    fn id(&self) -> u8 {
        1
    }
    fn name(&self) -> &'static str {
        "byte-shuffle"
    }
    fn size_preserving(&self) -> bool {
        true
    }
    fn encode(&self, input: &[u8]) -> Vec<u8> {
        let s = self.stride.max(1) as usize;
        let records = input.len() / s;
        let body = records * s;
        let mut out = Vec::with_capacity(input.len());
        for lane in 0..s {
            for rec in 0..records {
                out.push(input[rec * s + lane]);
            }
        }
        out.extend_from_slice(&input[body..]);
        out
    }
    fn decode(&self, input: &[u8], raw_len: usize) -> Result<Vec<u8>, StoreError> {
        if input.len() != raw_len {
            return Err(StoreError::Format(format!(
                "byte-shuffle: {} stored bytes but {raw_len} expected",
                input.len()
            )));
        }
        let s = self.stride.max(1) as usize;
        let records = input.len() / s;
        let body = records * s;
        let mut out = vec![0u8; input.len()];
        for lane in 0..s {
            for rec in 0..records {
                out[rec * s + lane] = input[lane * records + rec];
            }
        }
        out[body..].copy_from_slice(&input[body..]);
        Ok(out)
    }
}

/// LZ77-style match/literal compressor, RLE included as the distance-1
/// special case.
///
/// Token stream (byte-exact, documented in DESIGN.md §12):
///
/// ```text
/// token := ctrl < 0x80 : literal run, (ctrl + 1) raw bytes follow (1..=128)
///        | ctrl ≥ 0x80 : match, length = (ctrl & 0x7F) + 4 (4..=131),
///                        then distance u16 LE (1..=65535); copy from the
///                        already-decoded output, overlap allowed
/// ```
///
/// The encoder is a greedy single-pass hash matcher over 4-byte seeds; the
/// decoder is a strict validator (distance must be non-zero and within the
/// decoded prefix, output must land exactly on `raw_len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lz;

impl Lz {
    fn hash(window: &[u8]) -> usize {
        // Fibonacci hash of the 4-byte seed into a 16-bit table.
        let seed = u32::from_le_bytes(window[..4].try_into().expect("sized"));
        (seed.wrapping_mul(0x9E37_79B9) >> 16) as usize
    }
}

impl Codec for Lz {
    fn id(&self) -> u8 {
        2
    }
    fn name(&self) -> &'static str {
        "lz"
    }
    fn size_preserving(&self) -> bool {
        false
    }
    fn encode(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        // Last position each 4-byte-seed hash was seen at (+1; 0 = never).
        let mut table = vec![0u32; 1 << 16];
        let mut lit_start = 0usize;
        let mut i = 0usize;

        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
            let mut at = from;
            while at < to {
                let n = (to - at).min(MAX_LITERAL);
                out.push((n - 1) as u8);
                out.extend_from_slice(&input[at..at + n]);
                at += n;
            }
        };

        while i + MIN_MATCH <= input.len() {
            let h = Self::hash(&input[i..]);
            let candidate = table[h] as usize;
            table[h] = (i + 1) as u32;
            let mut matched = 0usize;
            if candidate > 0 {
                let cand = candidate - 1;
                let dist = i - cand;
                if (1..=MAX_DISTANCE).contains(&dist) {
                    let limit = (input.len() - i).min(MAX_MATCH);
                    while matched < limit && input[cand + matched] == input[i + matched] {
                        matched += 1;
                    }
                }
            }
            if matched >= MIN_MATCH {
                flush_literals(&mut out, lit_start, i, input);
                let dist = i - (candidate - 1);
                out.push(0x80 | (matched - MIN_MATCH) as u8);
                out.extend_from_slice(&(dist as u16).to_le_bytes());
                // Seed the table inside the match so adjacent repeats of
                // the same pattern keep finding nearby sources.
                let stop = (i + matched).min(input.len().saturating_sub(MIN_MATCH - 1));
                let mut j = i + 1;
                while j < stop {
                    table[Self::hash(&input[j..])] = (j + 1) as u32;
                    j += 1;
                }
                i += matched;
                lit_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(&mut out, lit_start, input.len(), input);
        out
    }
    fn decode(&self, input: &[u8], raw_len: usize) -> Result<Vec<u8>, StoreError> {
        // Grow incrementally instead of trusting `raw_len` with one big
        // allocation: a hostile manifest can declare any decoded length,
        // but memory only grows with bytes the stream actually produces.
        let mut out = Vec::with_capacity(raw_len.min(1 << 16));
        let mut pos = 0usize;
        let bad = |m: String| StoreError::Format(format!("lz stream: {m}"));
        while pos < input.len() {
            let ctrl = input[pos];
            pos += 1;
            if ctrl < 0x80 {
                let n = ctrl as usize + 1;
                let lit = input
                    .get(pos..pos + n)
                    .ok_or_else(|| bad(format!("truncated literal run of {n} at {pos}")))?;
                if out.len() + n > raw_len {
                    return Err(bad(format!(
                        "output exceeds the declared {raw_len} decoded bytes"
                    )));
                }
                out.extend_from_slice(lit);
                pos += n;
            } else {
                let len = (ctrl & 0x7F) as usize + MIN_MATCH;
                let d = input
                    .get(pos..pos + 2)
                    .ok_or_else(|| bad(format!("truncated match distance at {pos}")))?;
                pos += 2;
                let dist = u16::from_le_bytes(d.try_into().expect("sized")) as usize;
                if dist == 0 || dist > out.len() {
                    return Err(bad(format!(
                        "match distance {dist} outside the {}-byte decoded prefix",
                        out.len()
                    )));
                }
                if out.len() + len > raw_len {
                    return Err(bad(format!(
                        "output exceeds the declared {raw_len} decoded bytes"
                    )));
                }
                // Byte-at-a-time so overlapping (RLE-style) copies work.
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        if out.len() != raw_len {
            return Err(bad(format!(
                "decoded {} bytes but the manifest declares {raw_len}",
                out.len()
            )));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Adaptive binary range coder.
// ---------------------------------------------------------------------------

/// Probability precision of the range coder: probabilities live in
/// `0..=4096`, with `2048` = even odds.
const RC_PROB_BITS: u32 = 12;

/// Adaptation rate: each update moves the probability 1/32 of the way
/// toward the observed bit.
const RC_MOVE_BITS: u32 = 5;

/// Renormalization threshold: the range is kept ≥ 2²⁴ so the top byte of
/// `low` is settled and can be emitted.
const RC_TOP: u32 = 1 << 24;

/// Carry-less LZMA-style range encoder (`low`/`cache` carry propagation).
struct RcEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl RcEncoder {
    fn new() -> RcEncoder {
        RcEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            let mut byte = self.cache;
            loop {
                self.out.push(byte.wrapping_add(carry));
                byte = 0xFF;
                self.cache_size -= 1;
                if self.cache_size == 0 {
                    break;
                }
            }
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size += 1;
        // The byte just settled (or parked in `cache`) is dropped; only
        // the still-moving low 24 bits shift up.
        self.low = (self.low & 0x00FF_FFFF) << 8;
    }

    /// Encodes one bit under probability `p` (of the bit being 0), and
    /// adapts `p` toward what was seen.
    fn bit(&mut self, p: &mut u16, bit: u32) {
        let bound = (self.range >> RC_PROB_BITS) * u32::from(*p);
        if bit == 0 {
            self.range = bound;
            *p += ((1 << RC_PROB_BITS) - *p) >> RC_MOVE_BITS;
        } else {
            self.low += u64::from(bound);
            self.range -= bound;
            *p -= *p >> RC_MOVE_BITS;
        }
        while self.range < RC_TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// The matching range decoder. Bytes past the end of the stream read as
/// zero — output length is bounded by the caller's loop, so a truncated
/// or hostile stream yields deterministic garbage of the declared length
/// (which the artifact layer has already CRC-screened), never a panic or
/// an oversized allocation.
struct RcDecoder<'a> {
    input: &'a [u8],
    pos: usize,
    range: u32,
    code: u32,
}

impl<'a> RcDecoder<'a> {
    fn new(input: &'a [u8]) -> RcDecoder<'a> {
        let mut d = RcDecoder {
            input,
            pos: 1, // the encoder's first byte is its initial empty cache
            range: u32::MAX,
            code: 0,
        };
        for _ in 0..4 {
            d.code = (d.code << 8) | u32::from(d.next_byte());
        }
        d
    }

    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn bit(&mut self, p: &mut u16) -> u32 {
        let bound = (self.range >> RC_PROB_BITS) * u32::from(*p);
        let bit = if self.code < bound {
            self.range = bound;
            *p += ((1 << RC_PROB_BITS) - *p) >> RC_MOVE_BITS;
            0
        } else {
            self.code -= bound;
            self.range -= bound;
            *p -= *p >> RC_MOVE_BITS;
            1
        };
        while self.range < RC_TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | u32::from(self.next_byte());
        }
        bit
    }
}

/// Adaptive order-0 range coder over bytes: each byte is coded MSB-first
/// through a 255-node probability tree (every prefix of bits owns its own
/// adaptive estimate — the LZMA literal-coder layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rc;

impl Codec for Rc {
    fn id(&self) -> u8 {
        3
    }
    fn name(&self) -> &'static str {
        "rc"
    }
    fn size_preserving(&self) -> bool {
        false
    }
    fn encode(&self, input: &[u8]) -> Vec<u8> {
        let mut probs = vec![1u16 << (RC_PROB_BITS - 1); 256];
        let mut enc = RcEncoder::new();
        for &byte in input {
            let mut ctx = 1usize;
            for shift in (0..8).rev() {
                let bit = u32::from(byte >> shift) & 1;
                enc.bit(&mut probs[ctx], bit);
                ctx = (ctx << 1) | bit as usize;
            }
        }
        enc.finish()
    }
    fn decode(&self, input: &[u8], raw_len: usize) -> Result<Vec<u8>, StoreError> {
        // The output loop is bounded by `raw_len`, which the manifest
        // layer has capped against the stored length; memory never grows
        // past the declared (validated) decoded size.
        let mut probs = vec![1u16 << (RC_PROB_BITS - 1); 256];
        let mut dec = RcDecoder::new(input);
        let mut out = Vec::with_capacity(raw_len.min(1 << 20));
        for _ in 0..raw_len {
            let mut ctx = 1usize;
            for _ in 0..8 {
                let bit = dec.bit(&mut probs[ctx]);
                ctx = (ctx << 1) | bit as usize;
            }
            out.push((ctx & 0xFF) as u8);
        }
        Ok(out)
    }
}

/// One codec in a declared stack, in its manifest wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecSpec {
    /// [`ByteShuffle`] with the given record stride.
    ByteShuffle {
        /// Record width in bytes.
        stride: u8,
    },
    /// [`Lz`].
    Lz,
    /// [`Rc`].
    Rc,
}

impl CodecSpec {
    /// Wire id (must match the [`Codec::id`] of the built codec).
    pub fn id(self) -> u8 {
        match self {
            CodecSpec::ByteShuffle { .. } => 1,
            CodecSpec::Lz => 2,
            CodecSpec::Rc => 3,
        }
    }

    /// Builds the codec this spec declares.
    pub fn build(self) -> Box<dyn Codec> {
        match self {
            CodecSpec::ByteShuffle { stride } => Box::new(ByteShuffle { stride }),
            CodecSpec::Lz => Box::new(Lz),
            CodecSpec::Rc => Box::new(Rc),
        }
    }

    fn size_preserving(self) -> bool {
        !matches!(self, CodecSpec::Lz | CodecSpec::Rc)
    }
}

/// An ordered codec stack: applied left-to-right on encode, right-to-left
/// on decode. Empty = raw storage.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CodecStack(pub Vec<CodecSpec>);

impl CodecStack {
    /// The raw (empty) stack.
    pub fn raw() -> CodecStack {
        CodecStack(Vec::new())
    }

    /// `byte-shuffle(stride) → lz`: the stack fitted to f32 payloads.
    pub fn shuffle_lz(stride: u8) -> CodecStack {
        CodecStack(vec![CodecSpec::ByteShuffle { stride }, CodecSpec::Lz])
    }

    /// `lz` alone.
    pub fn lz() -> CodecStack {
        CodecStack(vec![CodecSpec::Lz])
    }

    /// `byte-shuffle(stride) → rc`: lane transposition exposes the skewed
    /// sign/exponent byte of each f32 to the entropy coder.
    pub fn shuffle_rc(stride: u8) -> CodecStack {
        CodecStack(vec![CodecSpec::ByteShuffle { stride }, CodecSpec::Rc])
    }

    /// `rc` alone.
    pub fn rc() -> CodecStack {
        CodecStack(vec![CodecSpec::Rc])
    }

    /// Whether the payload is stored raw.
    pub fn is_raw(&self) -> bool {
        self.0.is_empty()
    }

    /// Short human name for reports: `raw`, `lz`, `byte-shuffle+lz`, …
    pub fn describe(&self) -> String {
        if self.is_raw() {
            return "raw".to_string();
        }
        self.0
            .iter()
            .map(|s| s.build().name())
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Structural sanity: bounded length, valid strides, and only the
    /// *last* codec may change the payload length — every earlier decode
    /// step then knows its expected output size exactly. Called on every
    /// stack decoded from a manifest before it is ever run.
    pub fn validate(&self) -> Result<(), StoreError> {
        if self.0.len() > MAX_STACK_LEN {
            return Err(StoreError::Format(format!(
                "codec stack of {} exceeds the {MAX_STACK_LEN}-codec cap",
                self.0.len()
            )));
        }
        for (i, spec) in self.0.iter().enumerate() {
            if let CodecSpec::ByteShuffle { stride } = spec {
                if *stride < 2 {
                    return Err(StoreError::Format(format!(
                        "byte-shuffle stride {stride} (must be ≥ 2)"
                    )));
                }
            }
            if i + 1 < self.0.len() && !spec.size_preserving() {
                return Err(StoreError::Format(
                    "length-changing codec before the end of its stack".into(),
                ));
            }
        }
        Ok(())
    }

    /// Encodes `input` through the whole stack.
    pub fn encode(&self, input: &[u8]) -> Vec<u8> {
        let mut cur: Option<Vec<u8>> = None;
        for spec in &self.0 {
            let next = spec.build().encode(cur.as_deref().unwrap_or(input));
            cur = Some(next);
        }
        cur.unwrap_or_else(|| input.to_vec())
    }

    /// Decodes `input` back to exactly `raw_len` bytes, undoing the stack
    /// in reverse. Because only the final codec may change length, every
    /// intermediate stage also decodes to `raw_len` bytes.
    pub fn decode(&self, input: &[u8], raw_len: usize) -> Result<Vec<u8>, StoreError> {
        self.validate()?;
        if self.is_raw() {
            return Raw.decode(input, raw_len);
        }
        let mut cur: Option<Vec<u8>> = None;
        for spec in self.0.iter().rev() {
            let next = spec
                .build()
                .decode(cur.as_deref().unwrap_or(input), raw_len)?;
            cur = Some(next);
        }
        Ok(cur.expect("non-empty stack"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn byte(rng: &mut StdRng) -> u8 {
        rng.gen::<u32>() as u8
    }

    fn sample_payloads() -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(7);
        let mut out = vec![
            Vec::new(),
            vec![0u8],
            vec![0u8; 4096],
            b"abcabcabcabcabcabcabcabc".to_vec(),
            (0..=255u8).cycle().take(1000).collect(),
        ];
        // Gaussian-ish f32 bytes: what weight tensors actually look like.
        let mut f32s = Vec::new();
        for _ in 0..2048 {
            let v: f32 = (rng.gen::<f32>() - 0.5) * 0.1;
            f32s.extend_from_slice(&v.to_le_bytes());
        }
        out.push(f32s);
        // Incompressible noise.
        out.push((0..4097).map(|_| byte(&mut rng)).collect());
        // Odd length (byte-shuffle tail path).
        out.push((0..1003).map(|_| byte(&mut rng)).collect());
        out
    }

    #[test]
    fn every_codec_roundtrips_every_payload() {
        let codecs: Vec<Box<dyn Codec>> = vec![
            Box::new(Raw),
            Box::new(ByteShuffle { stride: 4 }),
            Box::new(ByteShuffle { stride: 2 }),
            Box::new(Lz),
            Box::new(Rc),
        ];
        for payload in sample_payloads() {
            for codec in &codecs {
                let enc = codec.encode(&payload);
                let dec = codec.decode(&enc, payload.len()).unwrap_or_else(|e| {
                    panic!("{} failed on {} bytes: {e}", codec.name(), payload.len())
                });
                assert_eq!(dec, payload, "{} roundtrip", codec.name());
            }
        }
    }

    #[test]
    fn stacks_roundtrip_and_validate() {
        for payload in sample_payloads() {
            for stack in [
                CodecStack::raw(),
                CodecStack::lz(),
                CodecStack::shuffle_lz(4),
                CodecStack::rc(),
                CodecStack::shuffle_rc(4),
            ] {
                stack.validate().expect("valid stack");
                let enc = stack.encode(&payload);
                assert_eq!(
                    stack.decode(&enc, payload.len()).expect("decode"),
                    payload,
                    "stack {}",
                    stack.describe()
                );
            }
        }
    }

    #[test]
    fn lz_compresses_runs_and_shuffle_helps_f32() {
        let runs = vec![42u8; 100_000];
        let enc = Lz.encode(&runs);
        // The token format tops out at 131 bytes per 3-byte match token
        // (~43.7×); a pure run must land near that ceiling.
        assert!(enc.len() < runs.len() / 40, "RLE case: {} bytes", enc.len());

        // Clustered-exponent f32 data. LZ alone finds almost nothing —
        // full-entropy mantissas leave no exact repeats — but the shuffle
        // isolates the sign/exponent lane (measured ≈2.7 bits/byte of
        // entropy) where the range coder collects real savings.
        let mut rng = StdRng::seed_from_u64(11);
        let mut f32s = Vec::new();
        for _ in 0..50_000 {
            let v: f32 = (rng.gen::<f32>() - 0.5) * 0.02;
            f32s.extend_from_slice(&v.to_le_bytes());
        }
        let plain = CodecStack::lz().encode(&f32s).len();
        let shuffled = CodecStack::shuffle_lz(4).encode(&f32s).len();
        assert!(
            shuffled < plain && shuffled < f32s.len(),
            "shuffle+lz {shuffled} vs lz {plain} vs raw {}",
            f32s.len()
        );
        let entropy_coded = CodecStack::shuffle_rc(4).encode(&f32s).len();
        assert!(
            entropy_coded < f32s.len() * 85 / 100,
            "shuffle+rc {entropy_coded} vs raw {} — range coder must clear \
             the 15% reduction bar on gaussian f32",
            f32s.len()
        );
    }

    #[test]
    fn invalid_stacks_are_rejected() {
        // Length-changing codec before the end.
        let bad = CodecStack(vec![CodecSpec::Lz, CodecSpec::ByteShuffle { stride: 4 }]);
        assert!(matches!(bad.validate(), Err(StoreError::Format(_))));
        // Degenerate stride.
        let bad = CodecStack(vec![CodecSpec::ByteShuffle { stride: 1 }]);
        assert!(matches!(bad.validate(), Err(StoreError::Format(_))));
        // Over-long stack.
        let bad = CodecStack(vec![CodecSpec::Lz; MAX_STACK_LEN + 1]);
        assert!(matches!(bad.validate(), Err(StoreError::Format(_))));
    }

    /// Hostile LZ streams must produce structured errors, never panics or
    /// giant allocations.
    #[test]
    fn lz_decode_rejects_hostile_streams() {
        let cases: Vec<(Vec<u8>, usize)> = vec![
            (vec![0x7F], 128),                                // literal run with no bytes
            (vec![0x80], 4),                                  // match with no distance
            (vec![0x80, 0x01], 4),                            // truncated distance
            (vec![0x80, 0x01, 0x00], 4),                      // distance 1 into empty output
            (vec![0x80, 0x00, 0x00], 4),                      // distance 0
            (vec![0x00, 0xAA], 0),                            // output exceeds declared len
            (vec![0x00, 0xAA], 100),                          // stream ends short of declared len
            (vec![0x00, 0xAA, 0xFF, 0x01, 0x00], usize::MAX), // huge declared len
        ];
        for (stream, raw_len) in cases {
            match Lz.decode(&stream, raw_len) {
                Err(StoreError::Format(_)) => {}
                other => panic!("stream {stream:?} (raw_len {raw_len}): {other:?}"),
            }
        }
    }

    /// Random garbage fed to the decoder must never panic.
    #[test]
    fn lz_decode_survives_random_garbage() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..200 {
            let n = rng.gen_range(0..200usize);
            let garbage: Vec<u8> = (0..n).map(|_| byte(&mut rng)).collect();
            let raw_len = rng.gen_range(0..400usize);
            let _ = Lz.decode(&garbage, raw_len); // any Result is fine
            let _ = ByteShuffle { stride: 4 }.decode(&garbage, raw_len);
            let _ = CodecStack::shuffle_lz(4).decode(&garbage, raw_len);
            let _ = CodecStack::shuffle_rc(4).decode(&garbage, raw_len);
        }
    }

    /// The range decoder is total: any input (including empty or
    /// truncated streams) decodes to exactly `raw_len` bytes. Corruption
    /// is caught by the stored-bytes CRC before decode ever runs.
    #[test]
    fn rc_decode_is_total_and_truncation_changes_output() {
        let mut rng = StdRng::seed_from_u64(41);
        let payload: Vec<u8> = (0..1000).map(|_| byte(&mut rng) % 17).collect();
        let enc = Rc.encode(&payload);
        assert_eq!(Rc.decode(&enc, payload.len()).unwrap(), payload);
        // Truncated stream: still total, still the declared length.
        let cut = Rc.decode(&enc[..enc.len() / 2], payload.len()).unwrap();
        assert_eq!(cut.len(), payload.len());
        assert_ne!(cut, payload);
        // Degenerate inputs.
        assert_eq!(Rc.decode(&[], 16).unwrap().len(), 16);
        assert_eq!(Rc.decode(&[0xFF], 0).unwrap().len(), 0);
    }
}
