//! [`ServeError`]: why the registry or an admin operation refused a
//! request. Its `Display` is the message an ERROR response carries.

use std::fmt;
use std::path::PathBuf;

use quq_store::StoreError;

use crate::protocol::InferResponse;

/// An error from the model registry or an admin operation.
#[derive(Debug)]
pub enum ServeError {
    /// No model is registered under this name.
    UnknownModel(String),
    /// A model name longer than the 255 bytes its wire fields can carry.
    NameTooLong(usize),
    /// Opening or restoring a model's artifact failed.
    Load {
        /// Registry name.
        name: String,
        /// Artifact path.
        path: PathBuf,
        /// Whether this was the lazy reload of an evicted model.
        lazy: bool,
        /// What the store reported.
        source: StoreError,
    },
    /// A registered model has neither a resident state nor an artifact
    /// to reload it from.
    NoArtifact(String),
    /// An image whose shape the model does not take.
    Shape {
        /// `[channels, height, width]` the model expects.
        want: [usize; 3],
        /// The shape the request carried.
        got: Vec<usize>,
    },
    /// SHADOW SET named the default model as its own candidate.
    ShadowOfDefault,
    /// SHADOW SET asked for more than 1000 permille.
    ShadowPermille(u16),
    /// SHADOW SET named a model that is not registered.
    UnknownCandidate(String),
    /// SHADOW PROMOTE with no candidate armed.
    NoShadow,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            ServeError::NameTooLong(len) => {
                write!(f, "model name of {len} bytes exceeds the 255-byte limit")
            }
            ServeError::Load {
                name,
                path,
                lazy,
                source,
            } => {
                let what = if *lazy { "lazy reload" } else { "load" };
                write!(f, "{what} of model {name:?} from {path:?} failed: {source}")
            }
            ServeError::NoArtifact(name) => write!(
                f,
                "model {name:?} has neither a resident state nor an artifact to reload from"
            ),
            ServeError::Shape { want, got } => {
                write!(f, "expected image shape {want:?}, got {got:?}")
            }
            ServeError::ShadowOfDefault => {
                f.write_str("cannot shadow the default model onto itself")
            }
            ServeError::ShadowPermille(p) => write!(f, "shadow permille {p} exceeds 1000"),
            ServeError::UnknownCandidate(name) => write!(f, "unknown shadow candidate {name:?}"),
            ServeError::NoShadow => f.write_str("no shadow candidate configured"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Load { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ServeError> for InferResponse {
    fn from(e: ServeError) -> InferResponse {
        InferResponse::Error(e.to_string())
    }
}
