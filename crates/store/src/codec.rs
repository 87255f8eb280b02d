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
//! * [`Rc`] — a static order-0 rANS coder. Gaussian-ish weight data has
//!   almost no exact repeats for LZ to match; its redundancy is the
//!   *skewed distribution* of the shuffled sign/exponent lane, which only
//!   entropy coding collects. The coder splits its input into 1, 2, 4 or
//!   8 equal **segments** (for f32 payloads the split into 4 is exactly
//!   the byte-shuffle lanes) and keeps the split that codes smallest. Each
//!   segment carries its own 12-bit normalized **frequency table**, or is
//!   stored **verbatim** when that is smaller, so the three near-random
//!   mantissa lanes of an f32 tensor cost one tag byte each. Decode is one
//!   slot-table lookup and one multiply-add per byte on two interleaved
//!   states; the stream layout is on [`Rc`].
//!
//! The writer's `auto` policy trials one stack per chunk kind
//! (`byte-shuffle(4) → rc` for f32-backed chunks, `rc` for QUB records)
//! and **keeps raw unless the coded form wins at least 2%**
//! ([`MIN_SAVINGS_PERMILLE`]). The decision is recorded per chunk (the
//! manifest stack *is* the record) and surfaces in the writer's
//! [`crate::SaveReport`].
//!
//! Decode is hardened like every other load path: hostile or corrupt
//! streams yield a structured [`StoreError::Format`], never a panic. LZ
//! output grows incrementally and is capped at the declared decoded
//! length; rc checks every segment header, and the declared length against
//! the expansion cap, before it allocates its output, and a truncated or
//! altered rc stream is an error, not garbage. Only the last codec of a
//! stack may change the payload length
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
    /// wrong decoded length). Never panics, and never allocates more than
    /// `raw_len` bytes of output: LZ grows its output as it decodes, and rc
    /// allocates only once its headers and the expansion cap check out.
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
// Static order-0 rANS coder.
// ---------------------------------------------------------------------------

/// Frequency precision of the rANS tables: every table sums to
/// `2^RANS_PRECISION`.
const RANS_PRECISION: u32 = 12;

/// Slots in a decode table, `2^RANS_PRECISION`.
const RANS_SLOTS: usize = 1 << RANS_PRECISION;

/// Bottom of the normalized state interval `[RANS_LOW, 2^32)`. A state
/// renormalizes in 16-bit words, at most one per symbol; both states of a
/// segment start here on encode and must end here on decode.
const RANS_LOW: u32 = 1 << 16;

/// The segment counts the encoder chooses between. Each divides the next,
/// so the split into eight refines every other split.
const SEGMENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Segment tag: the segment's bytes follow verbatim.
const TAG_VERBATIM: u8 = 0;

/// Segment tag: a frequency table and a rANS payload follow.
const TAG_RANS: u8 = 1;

/// Bytes of a rANS segment besides its 3-byte symbol entries: tag, symbol
/// count, coded length and the two flushed states.
const RANS_SEGMENT_OVERHEAD: u64 = 1 + 1 + 4 + 8;

/// Start of segment `i` of `k` over `n` bytes, `⌊i·n/k⌋` without overflow.
/// Splits nest (segment `i` of 4 is segments `2i` and `2i+1` of 8), and for
/// lengths divisible by 4 the split into 4 is the [`ByteShuffle`] lanes.
fn segment_start(n: usize, k: usize, i: usize) -> usize {
    n / k * i + n % k * i / k
}

/// Byte histogram, counted in four interleaved sub-tables so a run of one
/// byte value does not serialize on a single counter.
fn histogram(bytes: &[u8]) -> [u64; 256] {
    let mut sub = [[0u64; 256]; 4];
    let mut quads = bytes.chunks_exact(4);
    for q in &mut quads {
        sub[0][q[0] as usize] += 1;
        sub[1][q[1] as usize] += 1;
        sub[2][q[2] as usize] += 1;
        sub[3][q[3] as usize] += 1;
    }
    for &b in quads.remainder() {
        sub[0][b as usize] += 1;
    }
    std::array::from_fn(|s| sub.iter().map(|h| h[s]).sum())
}

/// Scales `counts` (summing to `total > 0`) over the `present` symbols to
/// frequencies summing to `2^RANS_PRECISION`, every present symbol keeping
/// at least 1. Rounding leftovers go, one unit at a time, to the symbol
/// whose code length moves least: `count / freq` is the first-order cost
/// of one unit.
fn normalize(counts: &[u64; 256], present: &[usize], total: u64) -> [u32; 256] {
    let target = RANS_SLOTS as u64;
    let mut freq = [0u32; 256];
    let mut sum = 0u64;
    for &s in present {
        let scaled = (u128::from(counts[s]) * u128::from(target) + u128::from(total / 2))
            / u128::from(total);
        freq[s] = scaled.max(1) as u32;
        sum += u64::from(freq[s]);
    }
    // Whether `a` costs less per unit than `b`: count_a / f_a < count_b / f_b.
    let cheaper = |a: usize, b: usize, freq: &[u32; 256]| {
        u128::from(counts[a]) * u128::from(freq[b]) < u128::from(counts[b]) * u128::from(freq[a])
    };
    // At most 256 symbols hold at least 1 each, so while the sum is over
    // 2^RANS_PRECISION some symbol is above 1.
    while sum > target {
        let mut pick = None;
        for &s in present.iter().filter(|&&s| freq[s] > 1) {
            if pick.is_none_or(|p| cheaper(s, p, &freq)) {
                pick = Some(s);
            }
        }
        freq[pick.expect("a frequency above 1")] -= 1;
        sum -= 1;
    }
    while sum < target {
        let mut pick = present[0];
        for &s in &present[1..] {
            if cheaper(pick, s, &freq) {
                pick = s;
            }
        }
        freq[pick] += 1;
        sum += 1;
    }
    freq
}

/// Encode constants of one symbol. The division `x / f` of the rANS step
/// becomes a multiply by `rcp = ⌈2^64 / f⌉`, whose high half is exactly
/// `⌊x / f⌋` for every 32-bit `x` (Lemire, Kaser and Kurz, 2019). With
/// `q = ⌊x / f⌋` the step `(q << 12) + x − q·f + cum` is `x + bias + q·cmpl`.
/// `f = 1` has no 64-bit reciprocal: there `rcp = 2^64 − 1` yields
/// `q = x − 1`, and the bias absorbs the missing `cmpl`.
#[derive(Clone, Copy)]
struct EncSymbol {
    x_max: u64,
    rcp: u64,
    bias: u64,
    cmpl: u64,
}

impl EncSymbol {
    fn new(freq: u32, cum: u32) -> Self {
        let (f, cum, total) = (u64::from(freq), u64::from(cum), RANS_SLOTS as u64);
        let (rcp, bias) = match f {
            0 | 1 => (u64::MAX, cum + total - 1),
            _ => (u64::MAX / f + 1, cum),
        };
        EncSymbol {
            x_max: f << (32 - RANS_PRECISION),
            rcp,
            bias,
            cmpl: total - f,
        }
    }

    /// One rANS encode step on a state already below `x_max`.
    #[inline(always)]
    fn put(&self, x: u32) -> u32 {
        let q = ((u128::from(self.rcp) * u128::from(x)) >> 64) as u64;
        (u64::from(x) + q * self.cmpl + self.bias) as u32
    }
}

/// How the encoder stores one segment.
enum Plan {
    Verbatim,
    Rans(Box<[u32; 256]>),
}

/// Picks verbatim or rANS for a `len`-byte segment with byte counts
/// `counts`, by estimated size: the table, the fixed fields and the ideal
/// code length in whole 16-bit words. Returns the plan and its estimate.
fn plan_segment(counts: &[u64; 256], len: usize) -> (Plan, u64) {
    let verbatim = 1 + len as u64;
    let present: Vec<usize> = (0..256).filter(|&s| counts[s] > 0).collect();
    // The table alone must leave room for a win.
    if RANS_SEGMENT_OVERHEAD + 3 * present.len() as u64 >= verbatim {
        return (Plan::Verbatim, verbatim);
    }
    let freq = normalize(counts, &present, len as u64);
    let bits: f64 = present
        .iter()
        .map(|&s| counts[s] as f64 * (f64::from(RANS_PRECISION) - f64::from(freq[s]).log2()))
        .sum();
    let words = (bits / 16.0).ceil() as u64;
    let rans = RANS_SEGMENT_OVERHEAD + 3 * present.len() as u64 + 2 * words;
    // The coded length field is a u32.
    if rans < verbatim && 2 * words + 8 <= u64::from(u32::MAX) {
        (Plan::Rans(Box::new(freq)), rans)
    } else {
        (Plan::Verbatim, verbatim)
    }
}

/// Byte counts of the eight finest segments of `input`.
fn finest_counts(input: &[u8]) -> Vec<[u64; 256]> {
    let (n, finest) = (input.len(), SEGMENT_COUNTS[SEGMENT_COUNTS.len() - 1]);
    (0..finest)
        .map(|i| histogram(&input[segment_start(n, finest, i)..segment_start(n, finest, i + 1)]))
        .collect()
}

/// Plans the split of `n` bytes into `k` segments from the finest counts:
/// the estimated stream size and each segment's plan.
fn plan_split(counts: &[[u64; 256]], n: usize, k: usize) -> (u64, Vec<Plan>) {
    let per = counts.len() / k;
    let mut size = 1;
    let plans = (0..k)
        .map(|i| {
            let merged =
                std::array::from_fn(|s| counts[i * per..(i + 1) * per].iter().map(|c| c[s]).sum());
            let (plan, bytes) =
                plan_segment(&merged, segment_start(n, k, i + 1) - segment_start(n, k, i));
            size += bytes;
            plan
        })
        .collect();
    (size, plans)
}

/// Writes `input` as a stream of `plans.len()` segments.
fn write_split(input: &[u8], plans: &[Plan]) -> Vec<u8> {
    let (n, k) = (input.len(), plans.len());
    let mut out = Vec::with_capacity(n / 2 + 16);
    out.push(k as u8);
    for (i, plan) in plans.iter().enumerate() {
        let seg = &input[segment_start(n, k, i)..segment_start(n, k, i + 1)];
        match plan {
            Plan::Verbatim => push_verbatim(&mut out, seg),
            Plan::Rans(freq) => push_rans(&mut out, seg, freq),
        }
    }
    out
}

fn push_verbatim(out: &mut Vec<u8>, seg: &[u8]) {
    out.push(TAG_VERBATIM);
    out.extend_from_slice(seg);
}

/// Appends `seg` as a rANS segment coded with `freq`, or verbatim if the
/// coded form comes out no smaller after all.
fn push_rans(out: &mut Vec<u8>, seg: &[u8], freq: &[u32; 256]) {
    let start = out.len();
    let mut cum = [0u32; 256];
    let symbols: Vec<u8> = (0..=255u8).filter(|&s| freq[s as usize] > 0).collect();
    out.push(TAG_RANS);
    out.push((symbols.len() - 1) as u8);
    let mut acc = 0u32;
    for &s in &symbols {
        let f = freq[s as usize];
        out.push(s);
        out.extend_from_slice(&(f as u16).to_le_bytes());
        cum[s as usize] = acc;
        acc += f;
    }

    // Encode backwards so the decoder runs forwards; byte j of the segment
    // goes through state j % 2. A symbol of frequency `f` maps the state
    // interval [2^4·f, 2^20·f) onto [2^16, 2^32), so a state at or past
    // 2^20·f first flushes its low word.
    let enc: Vec<EncSymbol> = (0..256).map(|s| EncSymbol::new(freq[s], cum[s])).collect();
    // At most one word flushes per byte, so `words` never overflows; the
    // flush is branch-free, storing the word either way.
    let mut words = vec![0u16; seg.len()];
    let mut n = 0usize;
    let mut put = |x: &mut u32, b: u8| {
        let e = &enc[b as usize];
        let flush = u64::from(*x) >= e.x_max;
        words[n] = *x as u16;
        n += usize::from(flush);
        *x = e.put(if flush { *x >> 16 } else { *x });
    };
    let (mut x0, mut x1) = (RANS_LOW, RANS_LOW);
    let pairs = seg.chunks_exact(2);
    if let [last] = pairs.remainder() {
        put(&mut x0, *last);
    }
    for pair in pairs.rev() {
        put(&mut x1, pair[1]);
        put(&mut x0, pair[0]);
    }
    let coded_len = 8 + 2 * n;
    out.extend_from_slice(&(coded_len as u32).to_le_bytes());
    out.extend_from_slice(&x0.to_le_bytes());
    out.extend_from_slice(&x1.to_le_bytes());
    for w in words[..n].iter().rev() {
        out.extend_from_slice(&w.to_le_bytes());
    }
    if out.len() - start > seg.len() {
        out.truncate(start);
        push_verbatim(out, seg);
    }
}

/// Validates a segment's symbol entries and builds its decode table: one
/// `u32` per slot holding `freq − 1` (bits 0..12), the slot's offset in its
/// symbol's range (bits 12..24) and the symbol (bits 24..32).
fn decode_table(entries: &[u8]) -> Result<Box<[u32; RANS_SLOTS]>, StoreError> {
    let mut sum = 0u32;
    let mut prev: Option<u8> = None;
    for e in entries.chunks_exact(3) {
        let (s, f) = (e[0], u32::from(u16::from_le_bytes([e[1], e[2]])));
        if prev.is_some_and(|p| s <= p) {
            return Err(rc_error(format!(
                "symbol {s} after {} (symbols must be strictly ascending)",
                prev.unwrap_or(0)
            )));
        }
        if f == 0 {
            return Err(rc_error(format!("symbol {s} has frequency 0")));
        }
        sum += f;
        prev = Some(s);
    }
    if sum != RANS_SLOTS as u32 {
        return Err(rc_error(format!(
            "frequencies sum to {sum}, not {RANS_SLOTS}"
        )));
    }
    let mut table: Box<[u32; RANS_SLOTS]> = vec![0u32; RANS_SLOTS]
        .into_boxed_slice()
        .try_into()
        .expect("sized");
    let mut cum = 0usize;
    for e in entries.chunks_exact(3) {
        let f = usize::from(u16::from_le_bytes([e[1], e[2]]));
        let head = (f as u32 - 1) | u32::from(e[0]) << 24;
        for (offset, slot) in table[cum..cum + f].iter_mut().enumerate() {
            *slot = head | (offset as u32) << 12;
        }
        cum += f;
    }
    Ok(table)
}

fn rc_error(m: String) -> StoreError {
    StoreError::Format(format!("rc stream: {m}"))
}

/// Decodes one rANS segment into `out`: byte j comes from state j % 2, and
/// both states refill from one shared word stream. Each byte is one slot
/// lookup, one multiply-add and at most one 16-bit refill; the two states
/// are independent chains, so their steps overlap.
fn decode_segment(
    table: &[u32; RANS_SLOTS],
    coded: &[u8],
    out: &mut [u8],
) -> Result<(), StoreError> {
    let state = |at: usize| u32::from_le_bytes(coded[at..at + 4].try_into().expect("sized"));
    let mut x = [state(0), state(4)];
    if x.iter().any(|&x| x < RANS_LOW) {
        return Err(rc_error(format!(
            "initial states {:#x}, {:#x} not both at or above {RANS_LOW:#x}",
            x[0], x[1]
        )));
    }
    let mut pos = 8usize;
    // Reads past the payload see zeros; the final position check below
    // rejects any stream that needed them.
    let mut step = |x: &mut u32| -> u8 {
        let e = table[(*x & (RANS_SLOTS as u32 - 1)) as usize];
        let next = ((e & 0xFFF) + 1) * (*x >> RANS_PRECISION) + ((e >> 12) & 0xFFF);
        let word = coded
            .get(pos..pos + 2)
            .map_or(0, |w| u32::from(u16::from_le_bytes([w[0], w[1]])));
        let refill = next < RANS_LOW;
        *x = if refill { (next << 16) | word } else { next };
        pos += 2 * usize::from(refill);
        (e >> 24) as u8
    };
    let mut pairs = out.chunks_exact_mut(2);
    for pair in &mut pairs {
        pair[0] = step(&mut x[0]);
        pair[1] = step(&mut x[1]);
    }
    if let [last] = pairs.into_remainder() {
        *last = step(&mut x[0]);
    }
    // A payload is valid only if decoding consumed it exactly and ended in
    // the states the encoder started from.
    if pos != coded.len() {
        return Err(rc_error(format!(
            "segment read {pos} of its {} coded bytes",
            coded.len()
        )));
    }
    if x != [RANS_LOW; 2] {
        return Err(rc_error(format!(
            "final states {:#x}, {:#x} are not the initial state {RANS_LOW:#x}",
            x[0], x[1]
        )));
    }
    Ok(())
}

/// Static order-0 rANS over 1, 2, 4 or 8 equal segments, each with its own
/// 12-bit frequency table or stored verbatim.
///
/// Stream (byte-exact, documented in DESIGN.md §12):
///
/// ```text
/// stream  := n_seg u8 (1, 2, 4 or 8), then n_seg segments in order;
///            segment i covers decoded bytes [⌊i·n/n_seg⌋, ⌊(i+1)·n/n_seg⌋)
/// segment := 0 u8, then the segment's bytes verbatim
///          | 1 u8, n_sym − 1 u8, n_sym × (symbol u8, freq u16 LE) with
///            symbols strictly ascending and freqs ≥ 1 summing to 4096,
///            coded_len u32 LE, then coded_len bytes: the two final
///            encoder states (u32 LE each; byte j of the segment is coded
///            by state j % 2) and the 16-bit renormalization words (LE)
///            in the order the decoder reads them
/// ```
///
/// The encoder counts bytes once over the eight finest segments, sums the
/// counts for the coarser splits, and keeps the split whose estimated size
/// is smallest. It never emits a stream that decodes past
/// [`crate::format::MAX_DECODE_EXPANSION`] times its own length: if the
/// best split would, the whole input goes out as one verbatim segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rc;

impl Codec for Rc {
    fn id(&self) -> u8 {
        4
    }
    fn name(&self) -> &'static str {
        "rc"
    }
    fn size_preserving(&self) -> bool {
        false
    }
    fn encode(&self, input: &[u8]) -> Vec<u8> {
        let counts = finest_counts(input);
        let mut best: Option<(u64, Vec<Plan>)> = None;
        for k in SEGMENT_COUNTS {
            let (size, plans) = plan_split(&counts, input.len(), k);
            if best.as_ref().is_none_or(|(b, _)| size < *b) {
                best = Some((size, plans));
            }
        }
        let (_, plans) = best.expect("at least one segment count");
        let out = write_split(input, &plans);
        if input.len() as u64
            > (out.len() as u64).saturating_mul(crate::format::MAX_DECODE_EXPANSION)
        {
            return write_split(input, &[Plan::Verbatim]);
        }
        out
    }
    fn decode(&self, input: &[u8], raw_len: usize) -> Result<Vec<u8>, StoreError> {
        let cap = crate::format::MAX_DECODE_EXPANSION;
        if raw_len as u64 > (input.len() as u64).saturating_mul(cap) {
            return Err(rc_error(format!(
                "{raw_len} decoded bytes from {} stored is past the {cap}× expansion cap",
                input.len()
            )));
        }
        // Parse and check every header before the output is allocated.
        let mut pos = 0usize;
        let mut take = |n: usize, what: &str| -> Result<&[u8], StoreError> {
            let bytes = input
                .get(pos..pos.saturating_add(n))
                .ok_or_else(|| rc_error(format!("truncated {what} at byte {pos}")))?;
            pos += n;
            Ok(bytes)
        };
        let k = usize::from(take(1, "segment count")?[0]);
        if !SEGMENT_COUNTS.contains(&k) {
            return Err(rc_error(format!(
                "segment count {k} (must be 1, 2, 4 or 8)"
            )));
        }
        let mut segments = Vec::with_capacity(k);
        for i in 0..k {
            let len = segment_start(raw_len, k, i + 1) - segment_start(raw_len, k, i);
            match take(1, "segment tag")?[0] {
                TAG_VERBATIM => segments.push((None, take(len, "verbatim segment")?)),
                TAG_RANS => {
                    let symbols = usize::from(take(1, "symbol count")?[0]) + 1;
                    let table = decode_table(take(3 * symbols, "frequency table")?)?;
                    let coded_len = take(4, "coded length")?;
                    let coded_len = u32::from_le_bytes(coded_len.try_into().expect("sized"));
                    let coded = take(coded_len as usize, "rans payload")?;
                    if coded.len() < 8 {
                        return Err(rc_error(format!(
                            "coded length {coded_len} is shorter than the two states"
                        )));
                    }
                    segments.push((Some(table), coded));
                }
                tag => return Err(rc_error(format!("unknown segment tag {tag}"))),
            }
        }
        if pos != input.len() {
            return Err(rc_error(format!(
                "{} trailing bytes after the last segment",
                input.len() - pos
            )));
        }

        let mut out = vec![0u8; raw_len];
        let mut rest: &mut [u8] = &mut out;
        for (i, (table, bytes)) in segments.iter().enumerate() {
            let len = segment_start(raw_len, k, i + 1) - segment_start(raw_len, k, i);
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            match table {
                None => dst.copy_from_slice(bytes),
                Some(table) => decode_segment(table, bytes, dst)?,
            }
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
            CodecSpec::Rc => 4,
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
        // entropy) where the rANS coder collects real savings.
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
            "shuffle+rc {entropy_coded} vs raw {} — the rANS coder must clear \
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

    /// Payload shapes for the rc properties: uniform noise, one symbol, a
    /// few skewed symbols, gaussian f32 bytes, and runs.
    fn shaped(len: usize, seed: u64, shape: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        match shape {
            0 => (0..len).map(|_| byte(&mut rng)).collect(),
            1 => vec![byte(&mut rng); len],
            2 => (0..len)
                .map(|_| byte(&mut rng) % 3 + byte(&mut rng) % 5)
                .collect(),
            3 => (0..len.div_ceil(4))
                .flat_map(|_| (0.02 * quq_tensor::rng::standard_normal(&mut rng)).to_le_bytes())
                .take(len)
                .collect(),
            _ => (0..len).map(|i| (i / 97) as u8).collect(),
        }
    }

    /// The tag of each segment of a well-formed rc stream.
    fn segment_tags(stream: &[u8], raw_len: usize) -> Vec<u8> {
        let k = stream[0] as usize;
        let mut pos = 1;
        (0..k)
            .map(|i| {
                let tag = stream[pos];
                pos += 1 + if tag == TAG_VERBATIM {
                    segment_start(raw_len, k, i + 1) - segment_start(raw_len, k, i)
                } else {
                    let entries = 3 * (stream[pos + 1] as usize + 1);
                    let coded = &stream[pos + 2 + entries..pos + 6 + entries];
                    1 + entries + 4 + u32::from_le_bytes(coded.try_into().unwrap()) as usize
                };
                tag
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Every split the encoder can pick round-trips, and so does the
        /// one it picks, which never decodes past the expansion cap.
        #[test]
        fn rc_roundtrips_under_every_segment_count(
            len in 0..=4096usize,
            seed in proptest::any::<u64>(),
            shape in 0..5usize,
        ) {
            let data = shaped(len, seed, shape);
            let counts = finest_counts(&data);
            let chosen = Rc.encode(&data);
            for k in SEGMENT_COUNTS {
                let stream = write_split(&data, &plan_split(&counts, len, k).1);
                proptest::prop_assert_eq!(stream[0] as usize, k);
                // A forced split may code past the cap, which the decoder
                // refuses; `encode` never picks such a split.
                let capped = len as u64 <= stream.len() as u64 * crate::format::MAX_DECODE_EXPANSION;
                match Rc.decode(&stream, len) {
                    Ok(out) => proptest::prop_assert!(capped && out == data),
                    Err(e) => proptest::prop_assert!(!capped, "{k} segments: {e}"),
                }
            }
            proptest::prop_assert_eq!(Rc.decode(&chosen, len).unwrap(), data.clone());
            proptest::prop_assert!(
                len as u64 <= chosen.len() as u64 * crate::format::MAX_DECODE_EXPANSION
            );
        }
    }

    /// One symbol codes to 18 bytes (segment count, tag, one table entry,
    /// coded length and two states): 64 × 18 bytes is the longest such
    /// input the reader accepts, and one byte more goes out verbatim.
    #[test]
    fn rc_keeps_every_stream_within_the_expansion_cap() {
        let cap = crate::format::MAX_DECODE_EXPANSION as usize;
        for (len, stored) in [(cap * 18, 18), (cap * 18 + 1, cap * 18 + 3)] {
            let data = vec![7u8; len];
            let enc = Rc.encode(&data);
            assert_eq!(enc.len(), stored, "{len} bytes of one symbol");
            assert_eq!(Rc.decode(&enc, len).unwrap(), data);
        }
        let zeros = vec![0u8; 1 << 20];
        let enc = Rc.encode(&zeros);
        assert!(zeros.len() <= enc.len() * cap);
        assert_eq!(Rc.decode(&enc, zeros.len()).unwrap(), zeros);
        // Skewed data just inside the cap keeps its rANS segments.
        let skewed: Vec<u8> = (0..4096).map(|i| u8::from(i % 61 == 0)).collect();
        let enc = Rc.encode(&skewed);
        assert!(enc.len() < skewed.len() / 32 && skewed.len() <= enc.len() * cap);
        assert_eq!(Rc.decode(&enc, skewed.len()).unwrap(), skewed);
    }

    /// Splits nest, and for f32 payloads the split into four is exactly
    /// the byte-shuffle lanes.
    #[test]
    fn segments_nest_and_line_up_with_shuffle_lanes() {
        for n in [0usize, 1, 7, 8, 1003, 4096, 4100] {
            for i in 0..=4 {
                assert_eq!(segment_start(n, 4, i), segment_start(n, 8, 2 * i));
                assert_eq!(segment_start(n, 2, i / 2), segment_start(n, 4, i / 2 * 2));
            }
            assert_eq!(segment_start(n, 8, 8), n);
            if n % 4 == 0 {
                for lane in 0..4 {
                    assert_eq!(segment_start(n, 4, lane), lane * n / 4);
                }
            }
        }
    }

    /// On weight-like f32 data the shuffled exponent lane is entropy-coded
    /// and the three mantissa lanes are stored verbatim.
    #[test]
    fn rc_stores_f32_mantissa_lanes_verbatim() {
        let data = shaped(4 * 40_000, 5, 3);
        let shuffled = ByteShuffle { stride: 4 }.encode(&data);
        let enc = Rc.encode(&shuffled);
        assert_eq!(
            segment_tags(&enc, shuffled.len()),
            [TAG_VERBATIM, TAG_VERBATIM, TAG_VERBATIM, TAG_RANS]
        );
        assert_eq!(Rc.decode(&enc, shuffled.len()).unwrap(), shuffled);
    }

    /// A one-segment rANS stream with the given table and coded bytes.
    fn rans_stream(entries: &[(u8, u16)], coded: &[u8]) -> Vec<u8> {
        let mut s = vec![1, TAG_RANS, (entries.len() - 1) as u8];
        for &(sym, f) in entries {
            s.push(sym);
            s.extend_from_slice(&f.to_le_bytes());
        }
        s.extend_from_slice(&(coded.len() as u32).to_le_bytes());
        s.extend_from_slice(coded);
        s
    }

    /// Hostile rc streams give a structured error: no panic, and no
    /// output allocation before every header has been checked.
    #[test]
    fn rc_decode_rejects_hostile_streams() {
        let low = RANS_LOW.to_le_bytes();
        let states = |a: u32, b: u32| [a.to_le_bytes(), b.to_le_bytes()].concat();
        let good = rans_stream(&[(65, 4096)], &states(RANS_LOW, RANS_LOW));
        assert_eq!(Rc.decode(&good, 100).unwrap(), vec![65u8; 100]);

        let mut bad_counts = Vec::new();
        for k in [0u8, 3, 9] {
            let mut s = good.clone();
            s[0] = k;
            bad_counts.push(s);
        }
        let mut bad_tag = good.clone();
        bad_tag[1] = 2;
        let mut coded_past_end = good.clone();
        coded_past_end[6..10].copy_from_slice(&100u32.to_le_bytes());
        // A real two-symbol stream with its symbols relabelled: states and
        // payload stay consistent, so only the ordering check refuses it.
        let mix: Vec<u8> = (0..100).map(|i| if i % 3 == 0 { 66 } else { 65 }).collect();
        let two = write_split(&mix, &plan_split(&finest_counts(&mix), 100, 1).1);
        assert_eq!(Rc.decode(&two, 100).unwrap(), mix);
        assert_eq!((two[1], two[2], two[3], two[6]), (TAG_RANS, 1, 65, 66));
        let mut unsorted = two.clone();
        unsorted[3] = 67;
        let mut duplicate = two;
        duplicate[6] = 65;
        let cases: Vec<(&str, Vec<u8>, usize)> = vec![
            ("empty stream", vec![], 0),
            ("segment count 0", bad_counts[0].clone(), 100),
            ("segment count 3", bad_counts[1].clone(), 100),
            ("segment count 9", bad_counts[2].clone(), 100),
            ("unknown tag", bad_tag, 100),
            (
                "sum 4095",
                rans_stream(&[(65, 4095)], &states(RANS_LOW, RANS_LOW)),
                100,
            ),
            (
                "sum 4097",
                rans_stream(&[(65, 2048), (66, 2049)], &states(RANS_LOW, RANS_LOW)),
                100,
            ),
            (
                "zero frequency",
                rans_stream(&[(65, 4096), (66, 0)], &states(RANS_LOW, RANS_LOW)),
                100,
            ),
            ("unsorted symbols", unsorted, 100),
            ("duplicate symbols", duplicate, 100),
            ("coded length past the input", coded_past_end, 100),
            (
                "coded length under the states",
                rans_stream(&[(65, 4096)], &low),
                100,
            ),
            (
                "final state not initial",
                rans_stream(&[(65, 4096)], &states(RANS_LOW + 1, RANS_LOW)),
                100,
            ),
            (
                "initial state below the interval",
                rans_stream(&[(65, 4096)], &states(5, 5)),
                100,
            ),
            (
                "payload read past its end",
                rans_stream(&[(65, 2048), (66, 2048)], &states(RANS_LOW, RANS_LOW)),
                100,
            ),
            (
                "payload left unread",
                rans_stream(
                    &[(65, 4096)],
                    &[states(RANS_LOW, RANS_LOW), vec![0, 0]].concat(),
                ),
                100,
            ),
            ("trailing bytes", [good.clone(), vec![0]].concat(), 100),
            ("verbatim segment short", vec![1, TAG_VERBATIM, 1, 2, 3], 4),
            ("past the expansion cap", good.clone(), usize::MAX),
        ];
        for (what, stream, raw_len) in cases {
            match Rc.decode(&stream, raw_len) {
                Err(StoreError::Format(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    /// Every strict prefix of a stream is an error: the headers fix the
    /// stream's exact length.
    #[test]
    fn rc_truncation_at_every_offset_is_an_error() {
        let data = [shaped(1500, 3, 3), shaped(700, 4, 2), shaped(300, 5, 0)].concat();
        let counts = finest_counts(&data);
        for k in SEGMENT_COUNTS {
            let stream = write_split(&data, &plan_split(&counts, data.len(), k).1);
            assert_eq!(Rc.decode(&stream, data.len()).unwrap(), data);
            for cut in 0..stream.len() {
                match Rc.decode(&stream[..cut], data.len()) {
                    Err(StoreError::Format(_)) => {}
                    other => panic!("{k} segments cut at {cut}: {other:?}"),
                }
            }
        }
        let tags = segment_tags(&Rc.encode(&data), data.len());
        assert!(tags.contains(&TAG_RANS), "{tags:?}");
    }
}
