//! `quq-store`: the on-disk model-artifact format (`QUQM`) and its
//! reader/writer — the missing persistence layer between calibration and
//! serving.
//!
//! A QUQM artifact holds everything a host needs to serve a calibrated QUQ
//! model without re-synthesizing, re-calibrating, or re-encoding anything:
//! the model configuration, the PTQ preset, every FP32 model tensor, every
//! fitted quantizer's parameters, and every per-site quantized weight as a
//! ready-to-ship `QUB1` record (the paper's Fig. 5 sideband: QUB payload +
//! two FC registers + base scale). Chunks are laid out behind a manifest —
//! site key → offset/length/CRC-32/shape — and each chunk is independently
//! checksummed, so a reader can verify and load one layer at a time
//! (the chunked-array / per-chunk-checksum shape proven by Zarr stores).
//!
//! The model tensors are the model's own tensor inventory
//! (`quq_vit::ModelWeights::inventory`), keyed `model/<name>` and written
//! in its order; nothing in this crate lists a model's tensors by hand.
//!
//! Artifacts are read and written through a pluggable [`Storage`] trait
//! (filesystem [`FsStorage`] by default, in-memory [`MemStorage`] for
//! tests, [`MmapStorage`] for zero-copy opens) — the format layer never
//! touches files directly.
//!
//! * [`ArtifactWriter::save`] writes to a temp file and atomically renames —
//!   a crashed save never leaves a half-written artifact at the target path.
//!   [`ArtifactWriter::save_on`] targets any [`Storage`] backend.
//! * [`Artifact::open`] / [`Artifact::open_on`] validate the header,
//!   metadata, and manifest (CRC-checked) without reading any chunk,
//!   including every model tensor's shape against the config and every
//!   QUB record's shape against its weight.
//! * [`Artifact::load_site`] reads one chunk, verifying its checksum
//!   before decoding it. [`Artifact::load_all`] rebuilds the model and the
//!   quantizer-only `PtqTables` and reads no QUB record; the integer
//!   backend's weight cache reads those (`WeightQubCache::from_artifact`
//!   in `quq-accel`).
//!
//! Every load path is hardened against corrupt or hostile files: all
//! structural fields are covered by a checksum, every block is parsed
//! through [`quq_core::bytes::ByteReader`] (a byte-level fault is
//! [`StoreError::Format`]), lengths are validated against the real file
//! size before any allocation, and QUB records are
//! parsed straight from the verified chunk bytes with their payload
//! bounded by the manifest chunk length
//! ([`quq_core::read_qub_tensor_bounded`]). Flipping any single byte of an
//! artifact yields a structured [`StoreError`], never a panic, a wrong
//! model, or a huge allocation (property-tested in `tests/corruption.rs`).
//!
//! The `store.*` observability surface (via `quq-obs`): `store.bytes_written`,
//! `store.bytes_read`, `store.chunk_loads`, `store.checksum_failures`, and
//! the `store.save` / `store.open` / `store.load_all` latency spans.

pub mod codec;
pub mod crc32;
pub mod format;
pub mod mmap;
pub mod reader;
pub mod storage;
pub mod writer;

use std::fmt;

use quq_core::ByteError;

pub use codec::{Codec, CodecSpec, CodecStack};
pub use crc32::crc32;
pub use format::{ChunkInfo, ChunkKind, MAGIC, VERSION};
pub use mmap::{Mapping, MmapStorage};
pub use reader::{Artifact, Chunk};
pub use storage::{ByteView, FsStorage, MemStorage, Storage};
pub use writer::{ArtifactWriter, CodecChoice, SaveReport, WriteOptions};

/// Errors of the QUQM artifact store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in the artifact bytes.
    Format(String),
    /// A checksum did not match: the named section is corrupt.
    Checksum {
        /// Which section failed ("header", "metadata", "manifest", or a
        /// chunk key).
        section: String,
        /// CRC-32 recorded in the artifact.
        expected: u32,
        /// CRC-32 of the bytes actually read.
        actual: u32,
    },
    /// The manifest has no chunk under the requested key.
    MissingChunk(String),
    /// The artifact (or the tables being saved) uses a feature this store
    /// does not support, e.g. non-QUQ quantizers.
    Unsupported(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Format(m) => write!(f, "malformed QUQM artifact: {m}"),
            StoreError::Checksum {
                section,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {section}: recorded {expected:#010x}, computed {actual:#010x}"
            ),
            StoreError::MissingChunk(k) => write!(f, "no chunk under key {k:?}"),
            StoreError::Unsupported(m) => write!(f, "unsupported artifact feature: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Any byte-level fault in the artifact's bytes: a format fault, never an
/// I/O one, because the bytes are already in memory.
impl From<ByteError> for StoreError {
    fn from(e: ByteError) -> Self {
        StoreError::Format(e.to_string())
    }
}
