//! Serializing a calibrated model into a QUQM artifact.
//!
//! Under the `auto` policy the writer runs one **codec trial** per chunk:
//! f32-backed payloads (tensors and the params tables) are encoded under
//! `byte-shuffle(4) → rc`, QUB records under `rc`, and the coded form is
//! kept only if it saves at least 2%
//! ([`crate::codec::MIN_SAVINGS_PERMILLE`]); otherwise the chunk stays
//! raw. The decision lands in the manifest (the declared stack *is* the
//! record) and in the returned [`SaveReport`], which `quq-serve
//! --save-model` prints for every compressed chunk.

use std::path::Path;

use quq_core::pipeline::PtqTables;
use quq_core::qub::QubCodec;
use quq_core::scheme::QuqParams;
use quq_core::write_qub_tensor;
use quq_vit::VitModel;

use crate::codec::{CodecStack, MIN_SAVINGS_PERMILLE};
use crate::crc32::crc32;
use crate::format::{
    encode_activation_params, encode_manifest, encode_metadata, encode_weight_params, qub_key,
    tensor_key, ChunkInfo, ChunkKind, ACTIVATION_PARAMS_KEY, HEADER_LEN, MAGIC, VERSION,
    WEIGHT_PARAMS_KEY,
};
use crate::storage::{FsStorage, Storage};
use crate::StoreError;

/// How the writer picks each chunk's codec stack.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CodecChoice {
    /// Trial the chunk kind's stack (`byte-shuffle(4) → rc` for f32
    /// payloads, `rc` for QUB records), keep raw unless it wins ≥ 2%. The
    /// default.
    #[default]
    Auto,
    /// Store every chunk raw.
    Raw,
    /// Apply exactly this stack to **every** chunk, even when it loses to
    /// raw. Exists so tests can force compressed QUB chunks and exercise
    /// the decode paths compression would otherwise skip.
    Force(CodecStack),
}

impl CodecChoice {
    /// Parses a codec policy name, as the command-line tools spell it:
    /// `auto`, `raw`, or a forced stack (`lz`, `rc`, `shuffle-lz`,
    /// `shuffle-rc`). `None` for any other name.
    pub fn from_name(name: &str) -> Option<CodecChoice> {
        Some(match name {
            "auto" => CodecChoice::Auto,
            "raw" => CodecChoice::Raw,
            "lz" => CodecChoice::Force(CodecStack::lz()),
            "rc" => CodecChoice::Force(CodecStack::rc()),
            "shuffle-lz" => CodecChoice::Force(CodecStack::shuffle_lz(4)),
            "shuffle-rc" => CodecChoice::Force(CodecStack::shuffle_rc(4)),
            _ => return None,
        })
    }
}

/// Knobs for [`ArtifactWriter::save_with`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WriteOptions {
    /// Codec selection policy.
    pub codec: CodecChoice,
}

/// One chunk's line in a [`SaveReport`].
#[derive(Debug, Clone)]
pub struct ChunkReport {
    /// Manifest key.
    pub key: String,
    /// Payload kind.
    pub kind: ChunkKind,
    /// Decoded payload bytes.
    pub raw_len: u64,
    /// Stored payload bytes (after the chosen stack).
    pub stored_len: u64,
    /// The stack the trial chose (empty = raw won).
    pub stack: CodecStack,
}

/// What a save actually wrote: total size plus the per-chunk codec
/// decisions, for benchmark reporting.
#[derive(Debug, Clone)]
pub struct SaveReport {
    /// Whole-artifact size in bytes.
    pub total_bytes: u64,
    /// Per-chunk decisions, in manifest order.
    pub chunks: Vec<ChunkReport>,
}

/// Writes QUQM artifacts.
pub struct ArtifactWriter;

fn quq_params_of(
    q: &dyn quq_core::quantizer::FittedQuantizer,
    what: &str,
) -> Result<QuqParams, StoreError> {
    q.quq_params().copied().ok_or_else(|| {
        StoreError::Unsupported(format!(
            "{what} quantizer {:?} is not a QUQ quantizer; only QUQ tables can be stored",
            q.describe()
        ))
    })
}

/// The one stack the Auto trial runs for a chunk kind. f32 payloads
/// (tensors and the params tables, whose bulk is raw `f32` scale bits) are
/// lane-transposed first, so the rANS coder sees the low-entropy
/// sign/exponent lane as its own segments and stores the near-random
/// mantissa lanes verbatim. QUB payloads are packed codes with no lane
/// structure, so they go to the coder as they are. The LZ stacks stay
/// selectable through [`CodecChoice::Force`]; on these payloads they win
/// little (under 0.1% of the ViT-S artifact) for two more encodes per
/// chunk, so Auto does not trial them.
fn auto_stack(kind: ChunkKind) -> CodecStack {
    match kind {
        ChunkKind::TensorF32 | ChunkKind::ActivationParams | ChunkKind::WeightParams => {
            CodecStack::shuffle_rc(4)
        }
        ChunkKind::Qub => CodecStack::rc(),
    }
}

/// Runs the codec decision for one chunk: `(stored_bytes, stack)`.
fn choose_encoding(kind: ChunkKind, raw: Vec<u8>, choice: &CodecChoice) -> (Vec<u8>, CodecStack) {
    match choice {
        CodecChoice::Raw => (raw, CodecStack::raw()),
        CodecChoice::Force(stack) => {
            let stored = stack.encode(&raw);
            (stored, stack.clone())
        }
        CodecChoice::Auto => {
            let stack = auto_stack(kind);
            let stored = stack.encode(&raw);
            // The rc encoder never emits a stream that decodes past the
            // reader's expansion cap, so the coded form is always openable.
            debug_assert!(
                raw.len() as u64
                    <= (stored.len() as u64).saturating_mul(crate::format::MAX_DECODE_EXPANSION)
            );
            // Raw keeps the chunk unless the coded form saves ≥ 2%.
            if (stored.len() as u64).saturating_mul(1000)
                <= (raw.len() as u64).saturating_mul(1000 - MIN_SAVINGS_PERMILLE)
            {
                (stored, stack)
            } else {
                (raw, CodecStack::raw())
            }
        }
    }
}

impl ArtifactWriter {
    /// Serializes `model` + `tables` into a QUQM artifact at `path`,
    /// with per-chunk codecs chosen automatically.
    ///
    /// The write goes to a sibling temp file first and is atomically
    /// renamed into place, so a crash mid-save never leaves a truncated
    /// artifact at `path`. Returns the artifact size in bytes.
    ///
    /// Errors with [`StoreError::Unsupported`] if the tables were not fitted
    /// by the QUQ method, or if a weight site is no linear of the model.
    pub fn save(model: &VitModel, tables: &PtqTables, path: &Path) -> Result<u64, StoreError> {
        Ok(Self::save_with(model, tables, path, &WriteOptions::default())?.total_bytes)
    }

    /// [`ArtifactWriter::save`] with explicit codec options, returning the
    /// full per-chunk [`SaveReport`].
    pub fn save_with(
        model: &VitModel,
        tables: &PtqTables,
        path: &Path,
        options: &WriteOptions,
    ) -> Result<SaveReport, StoreError> {
        let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
        let key = path
            .file_name()
            .ok_or_else(|| StoreError::Format(format!("artifact path {path:?} has no file name")))?
            .to_string_lossy()
            .into_owned();
        Self::save_on_with(model, tables, &FsStorage::new(dir), &key, options)
    }

    /// Serializes `model` + `tables` into the object `key` on any
    /// [`Storage`] backend. The whole artifact is assembled in memory and
    /// handed to [`Storage::write`], which replaces the object atomically.
    pub fn save_on(
        model: &VitModel,
        tables: &PtqTables,
        storage: &dyn Storage,
        key: &str,
    ) -> Result<u64, StoreError> {
        Ok(Self::save_on_with(model, tables, storage, key, &WriteOptions::default())?.total_bytes)
    }

    /// [`ArtifactWriter::save_on`] with explicit codec options, returning
    /// the full per-chunk [`SaveReport`].
    pub fn save_on_with(
        model: &VitModel,
        tables: &PtqTables,
        storage: &dyn Storage,
        key: &str,
        options: &WriteOptions,
    ) -> Result<SaveReport, StoreError> {
        let _span = quq_obs::span("store.save");
        if tables.method_name() != "QUQ" {
            return Err(StoreError::Unsupported(format!(
                "tables were fitted by {:?}; only QUQ tables can be stored",
                tables.method_name()
            )));
        }
        if let CodecChoice::Force(stack) = &options.codec {
            stack.validate()?;
        }

        let config = model.config();
        let mut activations: Vec<_> = Vec::new();
        for (key, q) in tables.activations() {
            activations.push((*key, quq_params_of(q, "activation")?));
        }
        let mut weight_params: Vec<_> = Vec::new();
        for (site, q) in tables.weight_quantizers() {
            weight_params.push((*site, quq_params_of(q, "weight")?));
        }

        use ChunkKind::{ActivationParams, Qub, TensorF32, WeightParams};
        // Every chunk in wire order (model tensors, the two quantizer
        // tables, then one QUB record per weight site), through the codec
        // trial into its stored form. Offsets are filled in below.
        let mut chunks: Vec<(ChunkInfo, Vec<u8>)> = Vec::new();
        let mut push = |key: String, kind, shape, raw: Vec<u8>| {
            let raw_length = raw.len() as u64;
            let (stored, stack) = choose_encoding(kind, raw, &options.codec);
            let info = ChunkInfo {
                key,
                kind,
                offset: 0,
                length: stored.len() as u64,
                raw_length,
                crc: crc32(&stored),
                stack,
                shape,
            };
            chunks.push((info, stored));
        };
        for (slot, t) in model.weights().tensors(config) {
            let mut bytes = Vec::with_capacity(t.data().len() * 4);
            for v in t.data() {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            push(tensor_key(&slot.name), TensorF32, slot.shape, bytes);
        }
        let acts = encode_activation_params(&activations);
        push(ACTIVATION_PARAMS_KEY.into(), ActivationParams, vec![], acts);
        let weights = encode_weight_params(&weight_params);
        push(WEIGHT_PARAMS_KEY.into(), WeightParams, vec![], weights);
        for (site, params) in &weight_params {
            let w = model.weights().linear_weight(config, *site);
            let w = w.ok_or_else(|| {
                StoreError::Unsupported(format!("weight site {site} is no linear of the model"))
            })?;
            let mut bytes = Vec::new();
            write_qub_tensor(&mut bytes, &QubCodec::new(*params).encode_tensor(w));
            push(qub_key(*site), Qub, w.shape().to_vec(), bytes);
        }
        let (mut entries, stored): (Vec<ChunkInfo>, Vec<Vec<u8>>) = chunks.into_iter().unzip();

        let metadata = encode_metadata(config, tables.config(), tables.method_name());

        // The manifest's encoded length does not depend on the offset
        // values, so encode once with placeholder offsets to learn where
        // the chunk region starts, then fill in the real offsets.
        let manifest_len = encode_manifest(&entries).len() as u64;
        let mut offset = HEADER_LEN + metadata.len() as u64 + 4 + manifest_len + 4;
        for e in &mut entries {
            e.offset = offset;
            offset += e.length;
        }
        let manifest = encode_manifest(&entries);
        debug_assert_eq!(manifest.len() as u64, manifest_len);

        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&(metadata.len() as u64).to_le_bytes());
        header.extend_from_slice(&manifest_len.to_le_bytes());
        let header_crc = crc32(&header);
        header.extend_from_slice(&header_crc.to_le_bytes());

        let mut out = Vec::with_capacity(offset as usize);
        out.extend_from_slice(&header);
        out.extend_from_slice(&metadata);
        out.extend_from_slice(&crc32(&metadata).to_le_bytes());
        out.extend_from_slice(&manifest);
        out.extend_from_slice(&crc32(&manifest).to_le_bytes());
        for payload in &stored {
            out.extend_from_slice(payload);
        }
        let total = out.len() as u64;
        debug_assert_eq!(total, offset);
        storage.write(key, &out)?;
        quq_obs::add("store.bytes_written", total);
        Ok(SaveReport {
            total_bytes: total,
            chunks: entries
                .into_iter()
                .map(|e| ChunkReport {
                    key: e.key,
                    kind: e.kind,
                    raw_len: e.raw_length,
                    stored_len: e.length,
                    stack: e.stack,
                })
                .collect(),
        })
    }
}
