//! Opening and lazily loading QUQM artifacts.
//!
//! [`Artifact::open`] maps the file ([`crate::MmapStorage`]) and verifies
//! only the header, metadata, and manifest — no chunk byte is read, so an
//! open costs pages for the directory, not the payloads. Each chunk then
//! CRC-verifies and (when its manifest stack says so) decodes **on first
//! touch**:
//!
//! * a raw chunk on a borrowable backend is CRC-checked once and from
//!   then on served as a borrowed slice of the mapping — zero copies;
//! * a compressed chunk decodes once into a shared buffer behind a
//!   per-chunk fill lock (the same stampede guard the serve registry uses
//!   for model loads), so concurrent first readers decode it exactly once;
//! * a raw chunk on a copy-only backend is read and CRC-checked per
//!   access, with no cached second copy of the payload.
//!
//! Untouched sites therefore cost zero bytes read — the property that
//! lets the multi-model registry lazily reload an artifact while the old
//! instance keeps serving.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use quq_core::bytes::ByteReader;
use quq_core::calib::ParamKey;
use quq_core::pipeline::{PtqConfig, PtqTables};
use quq_core::qub::QubTensor;
use quq_core::read_qub_tensor_bounded;
use quq_core::scheme::QuqParams;
use quq_core::FittedQuantizer;
use quq_tensor::Tensor;
use quq_vit::{ModelConfig, ModelWeights, OpSite, VitModel};

use crate::crc32::crc32;
use crate::format::{
    decode_activation_params, decode_manifest, decode_metadata, decode_weight_params, qub_key,
    site_from_qub_key, tensor_key, ChunkInfo, ChunkKind, ACTIVATION_PARAMS_KEY, HEADER_LEN, MAGIC,
    VERSION, WEIGHT_PARAMS_KEY,
};
use crate::mmap::MmapStorage;
use crate::storage::{ByteView, FsStorage, Storage};
use crate::StoreError;

/// A decoded chunk payload.
#[derive(Debug, Clone)]
pub enum Chunk {
    /// Raw `f32` tensor.
    Tensor(Tensor),
    /// Quantized weight record.
    Qub(QubTensor),
    /// Fitted activation quantizers.
    ActivationParams(Vec<(ParamKey, QuqParams)>),
    /// Fitted weight quantizers.
    WeightParams(Vec<(OpSite, QuqParams)>),
}

/// Verified, decoded chunk bytes — borrowed straight from the storage's
/// mapping when possible, shared from the decode cache for compressed
/// chunks, owned for copy-only backends. Dereferences to `&[u8]`.
pub enum ChunkBytes<'a> {
    /// A zero-copy borrow of the storage's memory (raw chunk, verified).
    Borrowed(&'a [u8]),
    /// A fresh copy (raw chunk on a backend with nothing to lend).
    Owned(Vec<u8>),
    /// The chunk's cached decode (compressed chunks decode exactly once).
    Shared(Arc<Vec<u8>>),
}

impl std::ops::Deref for ChunkBytes<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            ChunkBytes::Borrowed(b) => b,
            ChunkBytes::Owned(v) => v,
            ChunkBytes::Shared(a) => a,
        }
    }
}

/// Per-chunk lazy state: CRC verification and (for compressed chunks)
/// the cached decode, each done at most once per open artifact.
struct ChunkCell {
    /// Set once the stored bytes have CRC-verified (raw borrowable path).
    verified: OnceLock<()>,
    /// The decoded payload of a compressed chunk, filled exactly once.
    decoded: OnceLock<Arc<Vec<u8>>>,
    /// Stampede guard for the fill: concurrent first readers serialize
    /// here (the serve registry's loading-mutex pattern) so the CRC pass
    /// and decode run once, not once per racing thread.
    fill: Mutex<()>,
}

impl ChunkCell {
    fn new() -> ChunkCell {
        ChunkCell {
            verified: OnceLock::new(),
            decoded: OnceLock::new(),
            fill: Mutex::new(()),
        }
    }
}

/// An open QUQM artifact: validated header + manifest, chunks on demand.
///
/// Every byte is read through a [`Storage`] backend — a memory-mapped
/// view of the file by default ([`Artifact::open`]), or anything
/// byte-addressable via [`Artifact::open_on`].
pub struct Artifact {
    storage: Arc<dyn Storage>,
    key: String,
    path: PathBuf,
    file_len: u64,
    config: ModelConfig,
    ptq: PtqConfig,
    method: String,
    manifest: Vec<ChunkInfo>,
    index: BTreeMap<String, usize>,
    cells: Vec<ChunkCell>,
}

fn shape_elems(shape: &[usize]) -> Result<u64, StoreError> {
    shape
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(d as u64))
        .ok_or_else(|| StoreError::Format("tensor shape overflows u64".into()))
}

/// Expected payload length of a `QUB1` record with one byte per element.
fn qub_record_len(shape: &[usize]) -> Result<u64, StoreError> {
    // magic(4) + bits/fine/coarse/pad(4) + base_delta(4) + rank(4)
    // + dims(8·rank) + one payload byte per element.
    Ok(16 + 8 * shape.len() as u64 + shape_elems(shape)?)
}

/// Checks the manifest against the model's tensor inventory: every model
/// tensor is an `f32` chunk of the shape the config gives it, and every QUB
/// record has the shape of the weight its site multiplies, so no chunk
/// that passes its CRC can reach a GEMM with the wrong dimensions.
fn check_inventory(
    config: &ModelConfig,
    manifest: &[ChunkInfo],
    index: &BTreeMap<String, usize>,
) -> Result<(), StoreError> {
    // Each block holds 12 tensors: a config with more blocks than the
    // manifest has chunks is refused before its inventory is built.
    if config.total_depth().saturating_mul(12) > manifest.len() {
        return Err(StoreError::Format(format!(
            "the config has {} blocks but the manifest lists {} chunks",
            config.total_depth(),
            manifest.len()
        )));
    }
    let inventory = ModelWeights::inventory(config);
    for slot in &inventory {
        let key = tensor_key(&slot.name);
        let &i = index
            .get(&key)
            .ok_or_else(|| StoreError::MissingChunk(key.clone()))?;
        let c = &manifest[i];
        if c.kind != ChunkKind::TensorF32 || c.shape != slot.shape {
            return Err(StoreError::Format(format!(
                "chunk {key:?} is a {:?} chunk of shape {:?}, but the model's tensor is f32 \
                 of shape {:?}",
                c.kind, c.shape, slot.shape
            )));
        }
    }
    for c in manifest.iter().filter(|c| c.kind == ChunkKind::Qub) {
        let weight = site_from_qub_key(&c.key)
            .and_then(|site| inventory.iter().find(|slot| slot.site == Some(site)));
        match weight {
            Some(slot) if slot.shape == c.shape => {}
            Some(slot) => {
                return Err(StoreError::Format(format!(
                    "QUB record {:?} has shape {:?}, but its weight has shape {:?}",
                    c.key, c.shape, slot.shape
                )))
            }
            None => {
                return Err(StoreError::Format(format!(
                    "QUB record {:?} names no linear weight of the model",
                    c.key
                )))
            }
        }
    }
    Ok(())
}

impl Artifact {
    /// Opens and validates an artifact without reading any chunk payload.
    ///
    /// The file is memory-mapped, so chunk reads later borrow pages
    /// instead of copying; when mapping fails (exotic filesystems), the
    /// classic positioned-read backend takes over transparently.
    ///
    /// Verifies the header, metadata, and manifest checksums, then checks
    /// the manifest's structural invariants: unique keys, chunks laid out
    /// contiguously from the end of the manifest to the end of the file,
    /// every chunk's decoded length consistent with its declared kind and
    /// shape, every codec stack well-formed, every model tensor present
    /// with the shape the metadata's config gives it, and every QUB record
    /// shaped like the weight it encodes. After this, any
    /// corruption in a chunk payload is caught by that chunk's own CRC at
    /// load time — before its codec stack ever runs on the bytes.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let key = path
            .file_name()
            .ok_or_else(|| StoreError::Format(format!("artifact path {path:?} has no file name")))?
            .to_string_lossy()
            .into_owned();
        let storage: Arc<dyn Storage> = match MmapStorage::open_path(path) {
            Ok(m) => Arc::new(m),
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::Io(e))
            }
            // Mapping can fail where plain reads still work; fall back.
            Err(_) => {
                let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
                Arc::new(FsStorage::new(dir))
            }
        };
        let mut artifact = Self::open_on(storage, &key)?;
        artifact.path = path.to_path_buf();
        Ok(artifact)
    }

    /// Opens and validates the artifact stored under `key` on any
    /// [`Storage`] backend. Declared block and chunk lengths are clamped
    /// against the object's real size before any allocation (inside
    /// [`Storage::read_range`]), so a corrupt length field yields a
    /// structured error, never an attacker-sized buffer.
    pub fn open_on(storage: Arc<dyn Storage>, key: &str) -> Result<Self, StoreError> {
        let _span = quq_obs::span("store.open");
        let file_len = storage.open(key)?;

        if file_len < HEADER_LEN {
            return Err(StoreError::Format(format!(
                "file is {file_len} bytes, shorter than the {HEADER_LEN}-byte header"
            )));
        }
        let header = storage.read_range(key, 0, HEADER_LEN)?;
        quq_obs::add("store.bytes_read", HEADER_LEN);
        let mut r = ByteReader::new(&header);
        let magic = r.bytes("magic", MAGIC.len())?;
        let version = r.u32("version")?;
        let meta_len = r.u64("metadata length")?;
        let manifest_len = r.u64("manifest length")?;
        let expected = r.u32("header CRC")?;
        let actual = crc32(&header[..24]);
        if expected != actual {
            quq_obs::add("store.checksum_failures", 1);
            return Err(StoreError::Checksum {
                section: "header".into(),
                expected,
                actual,
            });
        }
        if magic != MAGIC {
            return Err(StoreError::Format(format!(
                "bad magic {magic:?} (want {MAGIC:?})"
            )));
        }
        if version != VERSION {
            return Err(StoreError::Unsupported(format!(
                "artifact version {version}; this reader understands version {VERSION}"
            )));
        }
        let chunks_start = HEADER_LEN
            .checked_add(meta_len)
            .and_then(|v| v.checked_add(4))
            .and_then(|v| v.checked_add(manifest_len))
            .and_then(|v| v.checked_add(4))
            .filter(|&v| v <= file_len)
            .ok_or_else(|| {
                StoreError::Format(format!(
                    "declared block lengths ({meta_len} + {manifest_len}) exceed the \
                     {file_len}-byte file"
                ))
            })?;

        let metadata = read_checked_block(&*storage, key, HEADER_LEN, meta_len, "metadata")?;
        let (config, ptq, method) = decode_metadata(&metadata)?;
        let manifest_bytes = read_checked_block(
            &*storage,
            key,
            HEADER_LEN + meta_len + 4,
            manifest_len,
            "manifest",
        )?;
        let manifest = decode_manifest(&manifest_bytes)?;

        let mut index = BTreeMap::new();
        let mut offset = chunks_start;
        for (i, c) in manifest.iter().enumerate() {
            if index.insert(c.key.clone(), i).is_some() {
                return Err(StoreError::Format(format!(
                    "duplicate chunk key {:?}",
                    c.key
                )));
            }
            if c.offset != offset {
                return Err(StoreError::Format(format!(
                    "chunk {:?} at offset {} breaks the contiguous layout (expected {offset})",
                    c.key, c.offset
                )));
            }
            offset = offset.checked_add(c.length).ok_or_else(|| {
                StoreError::Format(format!("chunk {:?} length overflows the file", c.key))
            })?;
            // Kind/shape consistency constrains the *decoded* length.
            let want = match c.kind {
                ChunkKind::TensorF32 => {
                    Some(4u64.checked_mul(shape_elems(&c.shape)?).ok_or_else(|| {
                        StoreError::Format(format!("chunk {:?} shape overflows u64", c.key))
                    })?)
                }
                ChunkKind::Qub => Some(qub_record_len(&c.shape)?),
                ChunkKind::ActivationParams | ChunkKind::WeightParams => {
                    if !c.shape.is_empty() {
                        return Err(StoreError::Format(format!(
                            "params chunk {:?} must not declare a shape",
                            c.key
                        )));
                    }
                    None
                }
            };
            if let Some(want) = want {
                if c.raw_length != want {
                    return Err(StoreError::Format(format!(
                        "chunk {:?} declares {} decoded bytes but its shape {:?} implies {want}",
                        c.key, c.raw_length, c.shape
                    )));
                }
            }
        }
        if offset != file_len {
            return Err(StoreError::Format(format!(
                "chunks end at offset {offset} but the file is {file_len} bytes"
            )));
        }
        check_inventory(&config, &manifest, &index)?;

        let cells = manifest.iter().map(|_| ChunkCell::new()).collect();
        Ok(Self {
            storage,
            key: key.to_string(),
            path: PathBuf::from(key),
            file_len,
            config,
            ptq,
            method,
            manifest,
            index,
            cells,
        })
    }

    /// Model configuration recorded in the artifact.
    pub fn model_config(&self) -> &ModelConfig {
        &self.config
    }

    /// PTQ preset recorded in the artifact.
    pub fn ptq_config(&self) -> PtqConfig {
        self.ptq
    }

    /// Fitting-method name recorded in the artifact.
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The chunk directory.
    pub fn chunks(&self) -> &[ChunkInfo] {
        &self.manifest
    }

    /// Total artifact size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.file_len
    }

    /// Path this artifact was opened from (the storage key, for artifacts
    /// opened via [`Artifact::open_on`]).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Storage key this artifact lives under.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Every weight site with a stored QUB record, in manifest order.
    pub fn qub_sites(&self) -> Vec<OpSite> {
        self.manifest
            .iter()
            .filter(|c| c.kind == ChunkKind::Qub)
            .filter_map(|c| site_from_qub_key(&c.key))
            .collect()
    }

    fn info(&self, key: &str) -> Result<(usize, &ChunkInfo), StoreError> {
        let &i = self
            .index
            .get(key)
            .ok_or_else(|| StoreError::MissingChunk(key.to_string()))?;
        Ok((i, &self.manifest[i]))
    }

    fn checksum_mismatch(&self, info: &ChunkInfo, actual: u32) -> StoreError {
        quq_obs::add("store.checksum_failures", 1);
        StoreError::Checksum {
            section: info.key.clone(),
            expected: info.crc,
            actual,
        }
    }

    /// The verified, decoded payload of the chunk under `key`.
    ///
    /// First touch CRC-verifies the stored bytes and, for compressed
    /// chunks, runs the declared codec stack (once, stampede-safe);
    /// afterwards raw chunks on a borrowable backend are served as
    /// borrowed slices with no further checksumming or copying.
    pub fn chunk_bytes(&self, key: &str) -> Result<ChunkBytes<'_>, StoreError> {
        let (idx, _) = self.info(key)?;
        self.chunk_bytes_idx(idx)
    }

    fn chunk_bytes_idx(&self, idx: usize) -> Result<ChunkBytes<'_>, StoreError> {
        let info = &self.manifest[idx];
        let cell = &self.cells[idx];
        quq_obs::add("store.chunk_loads", 1);

        if let Some(decoded) = cell.decoded.get() {
            return Ok(ChunkBytes::Shared(decoded.clone()));
        }

        if info.stack.is_raw() {
            // `read_range_ref` re-validates offset+length against the
            // object's real size before touching memory, so even a stale
            // or hostile manifest can never reach past the stored bytes.
            let view = self
                .storage
                .read_range_ref(&self.key, info.offset, info.length)?;
            return match view {
                ByteView::Borrowed(b) => {
                    // Zero-copy backend: CRC once, then borrow for free.
                    // The mapping's pages cannot change under us (artifacts
                    // are only ever replaced by rename — see `mmap.rs`), so
                    // one verification covers every later access.
                    if cell.verified.get().is_none() {
                        let _guard = cell.fill.lock().unwrap_or_else(PoisonError::into_inner);
                        if cell.verified.get().is_none() {
                            quq_obs::add("store.bytes_read", info.length);
                            let actual = crc32(b);
                            if actual != info.crc {
                                return Err(self.checksum_mismatch(info, actual));
                            }
                            let _ = cell.verified.set(());
                        }
                    }
                    Ok(ChunkBytes::Borrowed(b))
                }
                ByteView::Owned(v) => {
                    // Copy-only backend: the bytes are re-read each time,
                    // so they are re-verified each time.
                    quq_obs::add("store.bytes_read", info.length);
                    let actual = crc32(&v);
                    if actual != info.crc {
                        return Err(self.checksum_mismatch(info, actual));
                    }
                    Ok(ChunkBytes::Owned(v))
                }
            };
        }

        // Compressed chunk: CRC + decode exactly once, behind the fill
        // lock so racing first readers don't decode in parallel.
        let _guard = cell.fill.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(decoded) = cell.decoded.get() {
            return Ok(ChunkBytes::Shared(decoded.clone()));
        }
        let stored = self
            .storage
            .read_range_ref(&self.key, info.offset, info.length)?;
        quq_obs::add("store.bytes_read", info.length);
        let actual = crc32(&stored);
        if actual != info.crc {
            return Err(self.checksum_mismatch(info, actual));
        }
        let raw_len = usize::try_from(info.raw_length).map_err(|_| {
            StoreError::Format(format!(
                "chunk {:?} decoded length {} exceeds the address space",
                info.key, info.raw_length
            ))
        })?;
        let decoded = info.stack.decode(&stored, raw_len).map_err(|e| match e {
            StoreError::Format(m) => StoreError::Format(format!("chunk {:?}: {m}", info.key)),
            other => other,
        })?;
        let decoded = Arc::new(decoded);
        let _ = cell.decoded.set(decoded.clone());
        Ok(ChunkBytes::Shared(decoded))
    }

    /// Loads and decodes the chunk under `key`, verifying its checksum.
    pub fn load_site(&self, key: &str) -> Result<Chunk, StoreError> {
        let (idx, _) = self.info(key)?;
        let info = self.manifest[idx].clone();
        let bytes = self.chunk_bytes_idx(idx)?;
        match info.kind {
            ChunkKind::TensorF32 => {
                // `open` checked that the decoded length is 4 × the shape's
                // elements.
                let mut r = ByteReader::new(&bytes);
                let data = r.f32s("tensor data", bytes.len() / 4)?;
                r.finish()?;
                let t = Tensor::from_vec(data, &info.shape)
                    .map_err(|e| StoreError::Format(format!("chunk {:?}: {e}", info.key)))?;
                Ok(Chunk::Tensor(t))
            }
            ChunkKind::Qub => {
                let qub = read_qub_tensor_bounded(&bytes[..], info.raw_length)?;
                if qub.shape != info.shape {
                    return Err(StoreError::Format(format!(
                        "chunk {:?}: QUB record shape {:?} disagrees with manifest shape {:?}",
                        info.key, qub.shape, info.shape
                    )));
                }
                Ok(Chunk::Qub(qub))
            }
            ChunkKind::ActivationParams => {
                Ok(Chunk::ActivationParams(decode_activation_params(&bytes)?))
            }
            ChunkKind::WeightParams => Ok(Chunk::WeightParams(decode_weight_params(&bytes)?)),
        }
    }

    /// Loads the stored QUB record for one weight site.
    pub fn load_qub(&self, site: OpSite) -> Result<QubTensor, StoreError> {
        match self.load_site(&qub_key(site))? {
            Chunk::Qub(q) => Ok(q),
            _ => Err(StoreError::Format(format!(
                "chunk {:?} is not a QUB record",
                qub_key(site)
            ))),
        }
    }

    fn load_tensor(&self, key: &str) -> Result<Tensor, StoreError> {
        match self.load_site(key)? {
            Chunk::Tensor(t) => Ok(t),
            _ => Err(StoreError::Format(format!(
                "chunk {key:?} is not an f32 tensor"
            ))),
        }
    }

    /// Reconstructs the full model and PTQ tables from the artifact.
    ///
    /// Model tensors are restored bit-exactly from their `f32` chunks
    /// (decoding any codec stack first), and quantizer parameters from
    /// their raw `f32` scale factors, so the loaded pair produces logits
    /// bit-identical to the calibrated in-memory pair on every backend.
    /// No QUB record is read: the tables hold quantizers only, and the
    /// integer backend's weight cache reads the records itself
    /// (`quq_accel::WeightQubCache::from_artifact`).
    pub fn load_all(&self) -> Result<(VitModel, PtqTables), StoreError> {
        let _span = quq_obs::span("store.load_all");
        if self.method != "QUQ" {
            return Err(StoreError::Unsupported(format!(
                "artifact was fitted by {:?}; this loader only restores QUQ tables",
                self.method
            )));
        }
        let weights = ModelWeights::build(&self.config, |slot| {
            self.load_tensor(&tensor_key(&slot.name))
        })?;
        let Chunk::ActivationParams(acts) = self.load_site(ACTIVATION_PARAMS_KEY)? else {
            return Err(StoreError::Format(
                "params/activations chunk has the wrong kind".into(),
            ));
        };
        let Chunk::WeightParams(wparams) = self.load_site(WEIGHT_PARAMS_KEY)? else {
            return Err(StoreError::Format(
                "params/weights chunk has the wrong kind".into(),
            ));
        };
        let boxed = |p| Box::new(p) as Box<dyn FittedQuantizer>;
        let tables = PtqTables::from_parts(
            self.ptq,
            "QUQ",
            acts.into_iter().map(|(k, p)| (k, boxed(p))).collect(),
            wparams.into_iter().map(|(s, p)| (s, boxed(p))).collect(),
        );
        Ok((VitModel::from_weights(self.config.clone(), weights), tables))
    }
}

/// Reads a block at `offset` followed by its CRC-32, verifying it.
fn read_checked_block(
    storage: &dyn Storage,
    key: &str,
    offset: u64,
    len: u64,
    section: &'static str,
) -> Result<Vec<u8>, StoreError> {
    let total = len
        .checked_add(4)
        .ok_or_else(|| StoreError::Format(format!("{section} block length {len} overflows u64")))?;
    // `read_range` clamps `total` against the real object size before
    // allocating anything, so a hostile declared length stays harmless.
    let mut bytes = storage.read_range(key, offset, total)?;
    quq_obs::add("store.bytes_read", total);
    let mut r = ByteReader::new(&bytes);
    let block = r.bytes(section, bytes.len().saturating_sub(4))?;
    let expected = r.u32("block CRC")?;
    let actual = crc32(block);
    if expected != actual {
        quq_obs::add("store.checksum_failures", 1);
        return Err(StoreError::Checksum {
            section: section.to_string(),
            expected,
            actual,
        });
    }
    bytes.truncate(block.len());
    Ok(bytes)
}
