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

impl ChunkKind {
    fn code(self) -> u8 {
        match self {
            ChunkKind::TensorF32 => 0,
            ChunkKind::Qub => 1,
            ChunkKind::ActivationParams => 2,
            ChunkKind::WeightParams => 3,
        }
    }

    fn from_code(c: u8) -> Result<Self, StoreError> {
        match c {
            0 => Ok(ChunkKind::TensorF32),
            1 => Ok(ChunkKind::Qub),
            2 => Ok(ChunkKind::ActivationParams),
            3 => Ok(ChunkKind::WeightParams),
            other => Err(StoreError::Format(format!("unknown chunk kind {other}"))),
        }
    }
}

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
// Primitive little-endian encode/decode helpers.
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

/// Bounded little-endian decoder over an in-memory block; every read is
/// checked so truncated or corrupt blocks error instead of panicking.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                StoreError::Format(format!(
                    "truncated block: wanted {n} bytes at offset {}",
                    self.pos
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("sized")))
    }
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sized")))
    }
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }
    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }
    pub fn f32(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("sized")))
    }
    pub fn str16(&mut self) -> Result<String, StoreError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Format("non-UTF-8 string".into()))
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

fn enum_from_code<T: Copy>(table: &[T], c: u8, what: &str) -> Result<T, StoreError> {
    table
        .get(c as usize)
        .copied()
        .ok_or_else(|| StoreError::Format(format!("unknown {what} code {c}")))
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

/// Parses the metadata block.
pub fn decode_metadata(bytes: &[u8]) -> Result<(ModelConfig, PtqConfig, String), StoreError> {
    let mut d = Dec::new(bytes);
    let id = enum_from_code(&MODEL_IDS, d.u8()?, "ModelId")?;
    let family = enum_from_code(&FAMILIES, d.u8()?, "Family")?;
    let img_size = d.u64()? as usize;
    let in_chans = d.u64()? as usize;
    let patch_size = d.u64()? as usize;
    let mlp_ratio = d.u64()? as usize;
    let window = match d.u64()? {
        0 => None,
        w => Some(w as usize),
    };
    let num_classes = d.u64()? as usize;
    let n_stages = d.u32()? as usize;
    if n_stages == 0 || n_stages > 64 {
        return Err(StoreError::Format(format!(
            "implausible stage count {n_stages}"
        )));
    }
    let mut stages = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        stages.push(StageConfig {
            depth: d.u64()? as usize,
            embed_dim: d.u64()? as usize,
            num_heads: d.u64()? as usize,
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
    let bits_w = u32::from(d.u8()?);
    let bits_a = u32::from(d.u8()?);
    let coverage = match d.u8()? {
        0 => Coverage::Partial,
        1 => Coverage::Full,
        other => return Err(StoreError::Format(format!("unknown coverage code {other}"))),
    };
    let method = d.str16()?;
    if !d.is_done() {
        return Err(StoreError::Format("trailing bytes in metadata".into()));
    }
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

fn decode_stack(d: &mut Dec<'_>) -> Result<CodecStack, StoreError> {
    let n = d.u8()? as usize;
    if n > crate::codec::MAX_STACK_LEN {
        return Err(StoreError::Format(format!(
            "codec stack of {n} exceeds the {}-codec cap",
            crate::codec::MAX_STACK_LEN
        )));
    }
    let mut specs = Vec::with_capacity(n);
    for _ in 0..n {
        specs.push(match d.u8()? {
            1 => CodecSpec::ByteShuffle { stride: d.u8()? },
            2 => CodecSpec::Lz,
            3 => {
                return Err(StoreError::Format(
                    "codec id 3 is the retired adaptive range coder; re-save the artifact".into(),
                ))
            }
            4 => CodecSpec::Rc,
            other => return Err(StoreError::Format(format!("unknown codec id {other}"))),
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
        e.u8(c.kind.code());
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

fn decode_shape(d: &mut Dec<'_>, key: &str) -> Result<Vec<usize>, StoreError> {
    let rank = d.u8()? as usize;
    if rank > 8 {
        return Err(StoreError::Format(format!(
            "implausible rank {rank} for chunk {key:?}"
        )));
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(d.u64()? as usize);
    }
    Ok(shape)
}

/// Parses the manifest block.
pub fn decode_manifest(bytes: &[u8]) -> Result<Vec<ChunkInfo>, StoreError> {
    let mut d = Dec::new(bytes);
    let count = d.u32()? as usize;
    let mut out = Vec::new();
    for _ in 0..count {
        let key = d.str16()?;
        let kind = ChunkKind::from_code(d.u8()?)?;
        let offset = d.u64()?;
        let length = d.u64()?;
        let raw_length = d.u64()?;
        let crc = d.u32()?;
        let stack = decode_stack(&mut d)?;
        let shape = decode_shape(&mut d, &key)?;
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
        out.push(info);
    }
    if !d.is_done() {
        return Err(StoreError::Format("trailing bytes in manifest".into()));
    }
    Ok(out)
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

fn decode_space(d: &mut Dec<'_>) -> Result<SpaceLayout, StoreError> {
    match d.u8()? {
        0 => Ok(SpaceLayout::Split {
            neg: d.f32()?,
            pos: d.f32()?,
        }),
        1 => Ok(SpaceLayout::MergedNeg { delta: d.f32()? }),
        2 => Ok(SpaceLayout::MergedPos { delta: d.f32()? }),
        other => Err(StoreError::Format(format!(
            "unknown space-layout tag {other}"
        ))),
    }
}

fn encode_params(e: &mut Enc, p: &QuqParams) {
    e.u8(p.bits() as u8);
    encode_space(e, p.fine());
    encode_space(e, p.coarse());
}

fn decode_params(d: &mut Dec<'_>) -> Result<QuqParams, StoreError> {
    let bits = u32::from(d.u8()?);
    let fine = decode_space(d)?;
    let coarse = decode_space(d)?;
    QuqParams::new(bits, fine, coarse)
        .map_err(|e| StoreError::Format(format!("invalid quantizer parameters: {e}")))
}

fn encode_site(e: &mut Enc, site: OpSite) {
    e.i64(site.block.map_or(-1, |b| b as i64));
    e.u8(enum_code(&OP_KINDS, site.kind, "OpKind"));
}

fn decode_site(d: &mut Dec<'_>) -> Result<OpSite, StoreError> {
    let block = match d.i64()? {
        -1 => None,
        b if b >= 0 => Some(b as usize),
        b => return Err(StoreError::Format(format!("invalid block index {b}"))),
    };
    let kind = enum_from_code(&OP_KINDS, d.u8()?, "OpKind")?;
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
    let mut d = Dec::new(bytes);
    let count = d.u32()? as usize;
    let mut out = Vec::new();
    for _ in 0..count {
        let site = decode_site(&mut d)?;
        let operand = match d.u8()? {
            0 => Operand::Input,
            1 => Operand::InputB,
            other => return Err(StoreError::Format(format!("unknown operand code {other}"))),
        };
        out.push((ParamKey { site, operand }, decode_params(&mut d)?));
    }
    if !d.is_done() {
        return Err(StoreError::Format(
            "trailing bytes in activation-params table".into(),
        ));
    }
    Ok(out)
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
    let mut d = Dec::new(bytes);
    let count = d.u32()? as usize;
    let mut out = Vec::new();
    for _ in 0..count {
        let site = decode_site(&mut d)?;
        out.push((site, decode_params(&mut d)?));
    }
    if !d.is_done() {
        return Err(StoreError::Format(
            "trailing bytes in weight-params table".into(),
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Model tensor keys.
// ---------------------------------------------------------------------------

/// The per-block tensor names, in wire order, paired with accessors.
pub(crate) const BLOCK_TENSORS: [&str; 12] = [
    "ln1_g", "ln1_b", "qkv_w", "qkv_b", "proj_w", "proj_b", "ln2_g", "ln2_b", "fc1_w", "fc1_b",
    "fc2_w", "fc2_b",
];

/// Enumerates every model-tensor key for `config`, in the canonical wire
/// order. The writer emits chunks in this order; the reader requests them
/// by the same names.
pub fn model_tensor_keys(config: &ModelConfig) -> Vec<String> {
    let mut keys = vec!["model/patch_w".to_string(), "model/patch_b".to_string()];
    if matches!(config.family, Family::Vit | Family::Deit) {
        keys.push("model/cls_token".to_string());
    }
    keys.push("model/pos_embed".to_string());
    for (si, stage) in config.stages.iter().enumerate() {
        for bi in 0..stage.depth {
            for name in BLOCK_TENSORS {
                keys.push(format!("model/s{si}/b{bi}/{name}"));
            }
        }
        if si + 1 < config.stages.len() {
            keys.push(format!("model/s{si}/merge_w"));
            keys.push(format!("model/s{si}/merge_b"));
        }
    }
    keys.extend(
        ["final_g", "final_b", "head_w", "head_b"]
            .iter()
            .map(|n| format!("model/{n}")),
    );
    keys
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
    fn model_tensor_keys_cover_swin_merges_and_skip_cls() {
        let cfg = ModelConfig::test_swin_config();
        let keys = model_tensor_keys(&cfg);
        assert!(keys.contains(&"model/s0/merge_w".to_string()));
        assert!(!keys.iter().any(|k| k.contains("cls_token")));
        let vit = ModelConfig::test_config();
        assert!(model_tensor_keys(&vit).contains(&"model/cls_token".to_string()));
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
