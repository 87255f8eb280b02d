//! Byte-level codec of the QUQM container (all integers little-endian).
//!
//! ```text
//! offset 0   magic        "QUQM"                      4 bytes
//! offset 4   version      u32 = 2 (the only version read or written)
//! offset 8   meta_len     u64   metadata block length (excluding its CRC)
//! offset 16  manifest_len u64   manifest block length (excluding its CRC)
//! offset 24  header_crc   u32   CRC-32 of bytes 0..24
//! offset 28  metadata     meta_len bytes, then its CRC-32 (u32)
//! …          manifest     manifest_len bytes, then its CRC-32 (u32)
//! …          chunks       concatenated *stored* chunk payloads, in
//!                         manifest order
//! ```
//!
//! The **metadata block** holds the model configuration, the PTQ preset,
//! and the fitting method name. The **manifest** is a chunk directory;
//! one entry is:
//!
//! ```text
//! key         str16 (u16 length + UTF-8)
//! kind        u8
//! offset      u64   absolute file offset of the stored payload
//! stored_len  u64   bytes on disk (after the codec stack)
//! raw_len     u64   decoded payload bytes (== stored_len for raw chunks)
//! crc         u32   CRC-32 of the STORED bytes
//! n_codecs    u8    codec-stack length (0 = raw)
//! codecs      per codec: id u8, then its params
//!                   (byte-shuffle = 1, stride u8; lz = 2, no params;
//!                   rc = 4, no params; id 3 is retired and refused)
//! rank        u8
//! dims        u64 × rank
//! ```
//!
//! Chunks tile the rest of the file contiguously by their **stored**
//! lengths, so **every byte of
//! an artifact is covered by exactly one checksum** (structural fields by
//! the header CRC, blocks by their own CRCs, stored payloads by the
//! manifest CRCs) — the invariant behind the flip-any-byte corruption
//! guarantee. Payload CRCs cover the stored bytes, so corruption is
//! caught *before* any decode runs on the data.
//!
//! Chunk payload encodings by kind:
//!
//! * `TensorF32` — raw `f32` values (bit-exact, length = 4·∏dims);
//! * `Qub` — one `QUB1` record ([`quq_core::io`]): the paper's Fig. 5
//!   sideband (two FC registers + base scale) and the packed QUB payload;
//! * `ActivationParams` / `WeightParams` — tables of fitted [`QuqParams`]
//!   keyed by operand / weight site, with every scale factor stored as its
//!   raw `f32` bits (exact reconstruction; the 8-bit FC registers alone
//!   would round scale ratios to powers of two on decode).

use crate::codec::{CodecSpec, CodecStack};
use crate::StoreError;
use quq_core::bytes::{ByteError, ByteReader};
use quq_core::calib::{Coverage, Operand, ParamKey};
use quq_core::pipeline::PtqConfig;
use quq_core::scheme::{QuqParams, SpaceLayout};
use quq_vit::{Family, ModelConfig, ModelId, OpKind, OpSite, StageConfig};

/// Magic prefix of the artifact format.
pub const MAGIC: [u8; 4] = *b"QUQM";

/// Format version: the only one this store reads or writes.
pub const VERSION: u32 = 2;

/// Upper bound on how much a stored payload may claim to expand when
/// decoded. The LZ token format tops out at ~44× (a 3-byte match token
/// yielding 131 bytes), so any manifest declaring more than 64× is lying;
/// rejecting it at open time means a CRC-valid-but-hostile `raw_len` can
/// never drive decode toward an attacker-sized output. The rANS coder
/// could exceed this on near-constant data, so its encoder falls back to a
/// verbatim stream rather than emit one past the cap, and its decoder
/// refuses any length past it.
pub const MAX_DECODE_EXPANSION: u64 = 64;

/// Fixed header size (through `header_crc`).
pub const HEADER_LEN: u64 = 28;

/// Manifest key of the activation-quantizer table chunk.
pub const ACTIVATION_PARAMS_KEY: &str = "params/activations";

/// Manifest key of the weight-quantizer table chunk.
pub const WEIGHT_PARAMS_KEY: &str = "params/weights";

/// What a chunk's payload decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// Raw `f32` tensor data.
    TensorF32,
    /// One `QUB1` record (quantized weight + FC sideband).
    Qub,
    /// Table of fitted activation quantizers.
    ActivationParams,
    /// Table of fitted weight quantizers.
    WeightParams,
}

/// Every [`ChunkKind`], in wire order: a kind's code is its index here.
const CHUNK_KINDS: [ChunkKind; 4] = [
    ChunkKind::TensorF32,
    ChunkKind::Qub,
    ChunkKind::ActivationParams,
    ChunkKind::WeightParams,
];

/// One manifest entry: where a chunk lives, how it is stored, and how to
/// verify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Site key, e.g. `model/s0/b1/qkv_w` or `qub/block1.Qkv`.
    pub key: String,
    /// Payload encoding.
    pub kind: ChunkKind,
    /// Absolute file offset of the stored payload.
    pub offset: u64,
    /// Stored (on-disk, post-codec) payload length in bytes.
    pub length: u64,
    /// Decoded payload length in bytes (== `length` for raw chunks).
    pub raw_length: u64,
    /// CRC-32 of the **stored** payload bytes.
    pub crc: u32,
    /// Codec stack the stored bytes went through (empty = raw).
    pub stack: CodecStack,
    /// Logical tensor shape (empty for params tables).
    pub shape: Vec<usize>,
}

impl ChunkInfo {
    /// Structural invariants every manifest entry must satisfy before its
    /// chunk is ever decoded: a valid codec stack, raw chunks storing
    /// exactly their decoded length, and compressed chunks bounded by the
    /// [`MAX_DECODE_EXPANSION`] expansion cap.
    pub fn validate_stack(&self) -> Result<(), StoreError> {
        self.stack.validate()?;
        if self.stack.is_raw() {
            if self.length != self.raw_length {
                return Err(StoreError::Format(format!(
                    "raw chunk {:?} stores {} bytes but declares {} decoded",
                    self.key, self.length, self.raw_length
                )));
            }
        } else if self.raw_length > self.length.saturating_mul(MAX_DECODE_EXPANSION) {
            return Err(StoreError::Format(format!(
                "chunk {:?} claims {} bytes from {} stored — past the {MAX_DECODE_EXPANSION}× \
                 decode-expansion cap",
                self.key, self.raw_length, self.length
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Primitive little-endian encode helpers; every block is decoded through
// `quq_core::bytes::ByteReader`.
// ---------------------------------------------------------------------------

/// Growable little-endian encoder.
#[derive(Default)]
pub(crate) struct Enc(pub Vec<u8>);

impl Enc {
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f32(&mut self, v: f32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn str16(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.u16(s.len() as u16);
        self.0.extend_from_slice(s.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Enum codes.
// ---------------------------------------------------------------------------

const MODEL_IDS: [ModelId; 7] = [
    ModelId::VitS,
    ModelId::VitL,
    ModelId::DeitS,
    ModelId::DeitB,
    ModelId::SwinT,
    ModelId::SwinS,
    ModelId::Test,
];

const FAMILIES: [Family; 3] = [Family::Vit, Family::Deit, Family::Swin];

/// Every [`OpKind`], in its stable wire order (the declaration order in
/// `quq_vit::backend`); the wire code of a kind is its index here.
pub const OP_KINDS: [OpKind; 16] = [
    OpKind::PatchEmbed,
    OpKind::Norm1,
    OpKind::Qkv,
    OpKind::QkMatmul,
    OpKind::Softmax,
    OpKind::PvMatmul,
    OpKind::AttnProj,
    OpKind::Residual1,
    OpKind::Norm2,
    OpKind::Fc1,
    OpKind::Gelu,
    OpKind::Fc2,
    OpKind::Residual2,
    OpKind::PatchMerge,
    OpKind::FinalNorm,
    OpKind::Head,
];

fn enum_code<T: PartialEq + Copy>(table: &[T], v: T, what: &str) -> u8 {
    table
        .iter()
        .position(|&t| t == v)
        .unwrap_or_else(|| panic!("{what} missing from wire table")) as u8
}

/// Reads a one-byte code and looks it up in its wire table.
fn enum_from_code<T: Copy>(
    r: &mut ByteReader<'_>,
    table: &[T],
    field: &'static str,
) -> Result<T, ByteError> {
    let c = r.u8(field)?;
    table
        .get(usize::from(c))
        .copied()
        .ok_or_else(|| r.invalid(field, c.into()))
}

fn op_kind_from_name(name: &str) -> Option<OpKind> {
    OP_KINDS.iter().copied().find(|k| k.as_str() == name)
}

// ---------------------------------------------------------------------------
// Site keys.
// ---------------------------------------------------------------------------

/// Manifest key of the quantized-weight chunk for `site`.
pub fn qub_key(site: OpSite) -> String {
    format!("qub/{site}")
}

/// Inverse of [`qub_key`]: `qub/block3.Qkv` → the site, `None` for keys
/// that are not quantized-weight chunks.
pub fn site_from_qub_key(key: &str) -> Option<OpSite> {
    let rest = key.strip_prefix("qub/")?;
    match rest.strip_prefix("block") {
        Some(tail) => {
            let (num, kind) = tail.split_once('.')?;
            Some(OpSite::in_block(
                num.parse().ok()?,
                op_kind_from_name(kind)?,
            ))
        }
        None => Some(OpSite::global(op_kind_from_name(rest)?)),
    }
}

// ---------------------------------------------------------------------------
// Metadata block: model config + PTQ preset + method name.
// ---------------------------------------------------------------------------

/// Serializes the metadata block (without its CRC).
pub fn encode_metadata(config: &ModelConfig, ptq: PtqConfig, method: &str) -> Vec<u8> {
    let mut e = Enc::default();
    e.u8(enum_code(&MODEL_IDS, config.id, "ModelId"));
    e.u8(enum_code(&FAMILIES, config.family, "Family"));
    e.u64(config.img_size as u64);
    e.u64(config.in_chans as u64);
    e.u64(config.patch_size as u64);
    e.u64(config.mlp_ratio as u64);
    e.u64(config.window.map_or(0, |w| w as u64));
    e.u64(config.num_classes as u64);
    e.u32(config.stages.len() as u32);
    for s in &config.stages {
        e.u64(s.depth as u64);
        e.u64(s.embed_dim as u64);
        e.u64(s.num_heads as u64);
    }
    e.u8(ptq.bits_w as u8);
    e.u8(ptq.bits_a as u8);
    e.u8(match ptq.coverage {
        Coverage::Partial => 0,
        Coverage::Full => 1,
    });
    e.str16(method);
    e.0
}

/// The largest configuration dimension an artifact may declare: far past
/// every real model, and small enough that no shape derived from the
/// configuration overflows.
const MAX_DIM: u64 = 1 << 16;

/// The most stages a configuration may declare.
const MAX_STAGES: u64 = 64;

/// Reads a configuration dimension: 0 and anything past [`MAX_DIM`] are
/// refused.
fn dim(r: &mut ByteReader<'_>, field: &'static str) -> Result<usize, ByteError> {
    match r.u64(field)? {
        v @ 1..=MAX_DIM => Ok(v as usize),
        v => Err(r.invalid(field, v)),
    }
}

/// Parses the metadata block.
pub fn decode_metadata(bytes: &[u8]) -> Result<(ModelConfig, PtqConfig, String), StoreError> {
    let mut r = ByteReader::new(bytes);
    let id = enum_from_code(&mut r, &MODEL_IDS, "model id")?;
    let family = enum_from_code(&mut r, &FAMILIES, "model family")?;
    let img_size = dim(&mut r, "image size")?;
    let in_chans = dim(&mut r, "input channels")?;
    let patch_size = dim(&mut r, "patch size")?;
    let mlp_ratio = dim(&mut r, "MLP ratio")?;
    let window = match r.u64("window")? {
        0 => None,
        w @ 1..=MAX_DIM => Some(w as usize),
        w => return Err(r.invalid("window", w).into()),
    };
    let num_classes = dim(&mut r, "class count")?;
    let n_stages = u64::from(r.u32("stage count")?);
    if !(1..=MAX_STAGES).contains(&n_stages) {
        return Err(r.invalid("stage count", n_stages).into());
    }
    let mut stages = Vec::with_capacity(n_stages as usize);
    for _ in 0..n_stages {
        stages.push(StageConfig {
            depth: dim(&mut r, "stage depth")?,
            embed_dim: dim(&mut r, "embedding width")?,
            num_heads: dim(&mut r, "head count")?,
        });
    }
    let config = ModelConfig {
        id,
        family,
        img_size,
        in_chans,
        patch_size,
        stages,
        mlp_ratio,
        window,
        num_classes,
    };
    let bits_w = u32::from(r.u8("weight bit-width")?);
    let bits_a = u32::from(r.u8("activation bit-width")?);
    let coverage = enum_from_code(&mut r, &[Coverage::Partial, Coverage::Full], "coverage")?;
    let method = str16(&mut r, "method name")?;
    r.finish()?;
    Ok((
        config,
        PtqConfig {
            bits_w,
            bits_a,
            coverage,
        },
        method,
    ))
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

fn encode_stack(e: &mut Enc, stack: &CodecStack) {
    e.u8(stack.0.len() as u8);
    for spec in &stack.0 {
        e.u8(spec.id());
        if let CodecSpec::ByteShuffle { stride } = spec {
            e.u8(*stride);
        }
    }
}

/// A `u16`-length-prefixed UTF-8 string.
fn str16(r: &mut ByteReader<'_>, field: &'static str) -> Result<String, ByteError> {
    r.utf8::<u16>(field, u16::MAX.into()).map(str::to_owned)
}

fn decode_stack(r: &mut ByteReader<'_>) -> Result<CodecStack, StoreError> {
    let n = u64::from(r.u8("codec count")?);
    let cap = crate::codec::MAX_STACK_LEN as u64;
    if n > cap {
        return Err(r.over_cap("codec count", n, cap).into());
    }
    let mut specs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        specs.push(match r.u8("codec id")? {
            1 => CodecSpec::ByteShuffle {
                stride: r.u8("shuffle stride")?,
            },
            2 => CodecSpec::Lz,
            3 => {
                return Err(StoreError::Format(
                    "codec id 3 is the retired adaptive range coder; re-save the artifact".into(),
                ))
            }
            4 => CodecSpec::Rc,
            other => return Err(r.invalid("codec id", other.into()).into()),
        });
    }
    Ok(CodecStack(specs))
}

/// Serializes the manifest block (without its CRC).
pub fn encode_manifest(entries: &[ChunkInfo]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(entries.len() as u32);
    for c in entries {
        e.str16(&c.key);
        e.u8(enum_code(&CHUNK_KINDS, c.kind, "ChunkKind"));
        e.u64(c.offset);
        e.u64(c.length);
        e.u64(c.raw_length);
        e.u32(c.crc);
        encode_stack(&mut e, &c.stack);
        e.u8(c.shape.len() as u8);
        for &dim in &c.shape {
            e.u64(dim as u64);
        }
    }
    e.0
}

/// The largest rank a chunk may declare.
const MAX_RANK: u64 = 8;

fn decode_shape(r: &mut ByteReader<'_>) -> Result<Vec<usize>, ByteError> {
    let rank = u64::from(r.u8("chunk rank")?);
    if rank > MAX_RANK {
        return Err(r.over_cap("chunk rank", rank, MAX_RANK));
    }
    (0..rank)
        .map(|_| r.u64("chunk dim").map(|d| d as usize))
        .collect()
}

/// Parses a block of a `u32` count, that many entries, and nothing else.
/// The count sizes no allocation: entries are collected as they parse.
fn decode_list<T>(
    bytes: &[u8],
    count: &'static str,
    mut entry: impl FnMut(&mut ByteReader<'_>) -> Result<T, StoreError>,
) -> Result<Vec<T>, StoreError> {
    let mut r = ByteReader::new(bytes);
    let n = r.u32(count)?;
    let out = (0..n).map(|_| entry(&mut r)).collect::<Result<_, _>>()?;
    r.finish()?;
    Ok(out)
}

/// Parses the manifest block.
pub fn decode_manifest(bytes: &[u8]) -> Result<Vec<ChunkInfo>, StoreError> {
    decode_list(bytes, "chunk count", |r| {
        let key = str16(r, "chunk key")?;
        let kind = enum_from_code(r, &CHUNK_KINDS, "chunk kind")?;
        let offset = r.u64("chunk offset")?;
        let length = r.u64("chunk length")?;
        let raw_length = r.u64("decoded length")?;
        let crc = r.u32("chunk CRC")?;
        let stack = decode_stack(r)?;
        let shape = decode_shape(r)?;
        let info = ChunkInfo {
            key,
            kind,
            offset,
            length,
            raw_length,
            crc,
            stack,
            shape,
        };
        info.validate_stack()?;
        Ok(info)
    })
}

// ---------------------------------------------------------------------------
// Quantizer-parameter tables.
// ---------------------------------------------------------------------------

fn encode_space(e: &mut Enc, s: SpaceLayout) {
    match s {
        SpaceLayout::Split { neg, pos } => {
            e.u8(0);
            e.f32(neg);
            e.f32(pos);
        }
        SpaceLayout::MergedNeg { delta } => {
            e.u8(1);
            e.f32(delta);
        }
        SpaceLayout::MergedPos { delta } => {
            e.u8(2);
            e.f32(delta);
        }
    }
}

fn decode_space(r: &mut ByteReader<'_>) -> Result<SpaceLayout, ByteError> {
    match r.u8("space-layout tag")? {
        0 => Ok(SpaceLayout::Split {
            neg: r.f32("negative scale")?,
            pos: r.f32("positive scale")?,
        }),
        1 => Ok(SpaceLayout::MergedNeg {
            delta: r.f32("scale")?,
        }),
        2 => Ok(SpaceLayout::MergedPos {
            delta: r.f32("scale")?,
        }),
        other => Err(r.invalid("space-layout tag", other.into())),
    }
}

fn encode_params(e: &mut Enc, p: &QuqParams) {
    e.u8(p.bits() as u8);
    encode_space(e, p.fine());
    encode_space(e, p.coarse());
}

fn decode_params(r: &mut ByteReader<'_>) -> Result<QuqParams, StoreError> {
    let bits = u32::from(r.u8("quantizer bit-width")?);
    let fine = decode_space(r)?;
    let coarse = decode_space(r)?;
    QuqParams::new(bits, fine, coarse)
        .map_err(|e| StoreError::Format(format!("invalid quantizer parameters: {e}")))
}

fn encode_site(e: &mut Enc, site: OpSite) {
    e.i64(site.block.map_or(-1, |b| b as i64));
    e.u8(enum_code(&OP_KINDS, site.kind, "OpKind"));
}

fn decode_site(r: &mut ByteReader<'_>) -> Result<OpSite, ByteError> {
    let block = match r.i64("block index")? {
        -1 => None,
        b if b >= 0 => Some(b as usize),
        b => return Err(r.invalid("block index", b as u64)),
    };
    let kind = enum_from_code(r, &OP_KINDS, "op kind")?;
    Ok(OpSite { block, kind })
}

/// Serializes the activation-quantizer table chunk payload.
pub fn encode_activation_params(entries: &[(ParamKey, QuqParams)]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(entries.len() as u32);
    for (key, p) in entries {
        encode_site(&mut e, key.site);
        e.u8(match key.operand {
            Operand::Input => 0,
            Operand::InputB => 1,
        });
        encode_params(&mut e, p);
    }
    e.0
}

/// Parses the activation-quantizer table chunk payload.
pub fn decode_activation_params(bytes: &[u8]) -> Result<Vec<(ParamKey, QuqParams)>, StoreError> {
    decode_list(bytes, "quantizer count", |r| {
        let site = decode_site(r)?;
        let operand = enum_from_code(r, &[Operand::Input, Operand::InputB], "operand")?;
        Ok((ParamKey { site, operand }, decode_params(r)?))
    })
}

/// Serializes the weight-quantizer table chunk payload.
pub fn encode_weight_params(entries: &[(OpSite, QuqParams)]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(entries.len() as u32);
    for (site, p) in entries {
        encode_site(&mut e, *site);
        encode_params(&mut e, p);
    }
    e.0
}

/// Parses the weight-quantizer table chunk payload.
pub fn decode_weight_params(bytes: &[u8]) -> Result<Vec<(OpSite, QuqParams)>, StoreError> {
    decode_list(bytes, "quantizer count", |r| {
        Ok((decode_site(r)?, decode_params(r)?))
    })
}

// ---------------------------------------------------------------------------
// Model tensor keys.
// ---------------------------------------------------------------------------

/// The chunk key of the model tensor named `name` in the model's tensor
/// inventory (`quq_vit::ModelWeights::inventory`), e.g. `model/s0/b1/qkv_w`.
/// The writer emits the tensors in inventory order.
pub(crate) fn tensor_key(name: &str) -> String {
    format!("model/{name}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_roundtrips_for_every_paper_model() {
        for id in ModelId::PAPER_MODELS {
            for cfg in [ModelConfig::full_scale(id), ModelConfig::eval_scale(id)] {
                let bytes = encode_metadata(&cfg, PtqConfig::full_w8a8(), "QUQ");
                let (back, ptq, method) = decode_metadata(&bytes).unwrap();
                assert_eq!(back, cfg);
                assert_eq!(ptq, PtqConfig::full_w8a8());
                assert_eq!(method, "QUQ");
            }
        }
    }

    #[test]
    fn metadata_dimensions_outside_the_bounds_are_refused() {
        let mut cfg = ModelConfig::test_config();
        for patch_size in [0, (MAX_DIM + 1) as usize] {
            cfg.patch_size = patch_size;
            let bytes = encode_metadata(&cfg, PtqConfig::full_w8a8(), "QUQ");
            assert!(matches!(
                decode_metadata(&bytes),
                Err(StoreError::Format(_))
            ));
        }
    }

    #[test]
    fn qub_keys_roundtrip_for_every_site_shape() {
        for kind in OP_KINDS {
            for site in [OpSite::global(kind), OpSite::in_block(7, kind)] {
                assert_eq!(site_from_qub_key(&qub_key(site)), Some(site));
            }
        }
        assert_eq!(site_from_qub_key("model/patch_w"), None);
        assert_eq!(site_from_qub_key("qub/block9.Nope"), None);
    }

    #[test]
    fn params_tables_roundtrip() {
        let p1 = QuqParams::new(
            8,
            SpaceLayout::Split {
                neg: 0.01,
                pos: 0.02,
            },
            SpaceLayout::Split {
                neg: 0.16,
                pos: 0.16,
            },
        )
        .unwrap();
        let p2 = QuqParams::uniform(6, 0.125).unwrap();
        let acts = vec![
            (ParamKey::input(OpSite::global(OpKind::Head)), p1),
            (
                ParamKey {
                    site: OpSite::in_block(3, OpKind::QkMatmul),
                    operand: Operand::InputB,
                },
                p2,
            ),
        ];
        let back = decode_activation_params(&encode_activation_params(&acts)).unwrap();
        assert_eq!(back, acts);
        let ws = vec![
            (OpSite::in_block(0, OpKind::Fc1), p2),
            (OpSite::global(OpKind::PatchEmbed), p1),
        ];
        assert_eq!(
            decode_weight_params(&encode_weight_params(&ws)).unwrap(),
            ws
        );
    }

    #[test]
    fn manifest_roundtrips() {
        let entries = vec![
            ChunkInfo {
                key: "model/patch_w".into(),
                kind: ChunkKind::TensorF32,
                offset: 1234,
                length: 3000,
                raw_length: 4096,
                crc: 0xDEAD_BEEF,
                stack: CodecStack::shuffle_lz(4),
                shape: vec![32, 48],
            },
            ChunkInfo {
                key: ACTIVATION_PARAMS_KEY.into(),
                kind: ChunkKind::ActivationParams,
                offset: 5330,
                length: 99,
                raw_length: 99,
                crc: 7,
                stack: CodecStack::raw(),
                shape: vec![],
            },
        ];
        assert_eq!(
            decode_manifest(&encode_manifest(&entries)).unwrap(),
            entries
        );
    }

    #[test]
    fn retired_codec_id_3_is_refused() {
        let entry = ChunkInfo {
            key: "model/patch_w".into(),
            kind: ChunkKind::TensorF32,
            offset: 0,
            length: 10,
            raw_length: 40,
            crc: 0,
            stack: CodecStack::rc(),
            shape: vec![],
        };
        let mut manifest = encode_manifest(&[entry]);
        assert!(decode_manifest(&manifest).is_ok());
        // The stack is the last field before the rank: `n_codecs 1, id 4`,
        // then `rank 0`. Rewrite the id to the retired coder's.
        let n = manifest.len();
        assert_eq!(&manifest[n - 3..], &[1, 4, 0]);
        manifest[n - 2] = 3;
        match decode_manifest(&manifest) {
            Err(StoreError::Format(m)) => assert!(m.contains("codec id 3"), "{m}"),
            other => panic!("codec id 3 was accepted: {other:?}"),
        }
    }

    #[test]
    fn hostile_manifest_stacks_are_rejected_at_decode() {
        let base = ChunkInfo {
            key: "model/patch_w".into(),
            kind: ChunkKind::TensorF32,
            offset: 0,
            length: 10,
            raw_length: 10,
            crc: 0,
            stack: CodecStack::raw(),
            shape: vec![],
        };
        // A raw entry lying about its decoded length.
        let lying_raw = ChunkInfo {
            raw_length: 11,
            ..base.clone()
        };
        assert!(matches!(
            decode_manifest(&encode_manifest(&[lying_raw])),
            Err(StoreError::Format(_))
        ));
        // A compressed entry claiming an absurd expansion.
        let ballooning = ChunkInfo {
            stack: CodecStack::lz(),
            raw_length: 10 * MAX_DECODE_EXPANSION + 1,
            ..base.clone()
        };
        assert!(matches!(
            decode_manifest(&encode_manifest(&[ballooning])),
            Err(StoreError::Format(_))
        ));
        // An Lz anywhere but last in the stack.
        let misordered = ChunkInfo {
            stack: CodecStack(vec![CodecSpec::Lz, CodecSpec::ByteShuffle { stride: 4 }]),
            raw_length: 40,
            ..base
        };
        assert!(matches!(
            decode_manifest(&encode_manifest(&[misordered])),
            Err(StoreError::Format(_))
        ));
    }
}
