//! The wire protocol, version 4: length-prefixed frames over TCP,
//! little-endian. Every message is one frame, a `u32` payload length and
//! then the payload. A request payload is an opcode, a `u32` request id
//! and an opcode-specific body; a response payload echoes the id, then a
//! status byte and a status-specific body. Strings carry their byte
//! length in front (`u8` unless noted) and are UTF-8.
//!
//! ```text
//! request:  opcode u8 · id u32 · body
//! 1 INFER   class u8 (0 interactive, 1 batch) · deadline_us u32 (relative
//!           to arrival; 0 = none) · tenant (empty = "anon") · model name
//!           (empty = default) · rank u8 · rank × dim u32 · Π dims × f32
//! 3 LOAD    model name · path (u16 length) — register and load the model
//!           (the empty name replaces the default model)
//! 4 UNLOAD  model name — drop the model from the registry
//! 5 LIST    (empty) — snapshot the registry
//! 6 SHADOW  action u8, then
//!           0 SET     model name · permille u16 (mirror fraction)
//!           1 PROMOTE (empty) — make the candidate the default model
//!           2 ABORT   (empty) — stop mirroring, keep the default
//!           3 STATUS  (empty) — report the comparison counters
//!
//! response: id u32 · status u8 · body
//! 0 OK         top1 u32 · n u32 · n × f32 logits
//! 1 OVERLOADED (empty) — shed at admission, or displaced from the queue
//!              by a higher-standing request; retry later
//! 2 ERROR      message (u32 length; UTF-8)
//! 3 DRAINING   (empty) — the server is shutting down; not admitted
//! 4 RELOADED   (empty) — LOAD registered and loaded the model
//! 5 LIST       count u16 · count × (model name · resident u8 · bytes u64
//!              · requests u64) · loads u64 · evictions u64
//! 6 UNLOADED   (empty) — the model was dropped from the registry
//! 7 DEADLINE   (empty) — the deadline passed while queued; nothing ran
//! 8 SHADOW     active u8 · model name · permille u16 · mirrored u64 ·
//!              agree u64 · disagree u64
//! ```
//!
//! Every request is decoded by [`Request::decode`] and every response by
//! [`decode_response`]; both read through [`quq_core::bytes::ByteReader`],
//! which owns every bounds, UTF-8, element-count and trailing-byte check.
//! Every fault is a [`quq_core::ByteError`] naming the field and its
//! offset, carried in an [`io::ErrorKind::InvalidData`] error. One
//! matching writer builds every frame and refuses, with
//! [`io::ErrorKind::InvalidInput`], a field too long for its length
//! prefix. Opcode 2 carries no request.
//!
//! Ids are chosen by the client, echoed verbatim and unique only per
//! connection. There is no version negotiation: a frame that does not
//! decode — an older peer's included — is answered with ERROR, tagged
//! with whatever its id bytes read ([`request_id`]), or 0 when it is too
//! short to carry an id. Frames are read with the stateful
//! [`crate::framing::FrameDecoder`].

use std::io::{self, Write};
use std::time::Duration;

use quq_core::bytes::{ByteError, ByteErrorKind, ByteReader, LenPrefix};
use quq_tensor::Tensor;

/// Wire protocol version implemented by this crate.
pub const PROTOCOL_VERSION: u8 = 4;

/// Largest accepted frame: a generous bound for one image tensor
/// (16 MiB ≈ a 2048×2048 3-channel f32 image), protecting the server from
/// a hostile or corrupt length prefix.
pub const MAX_FRAME: u32 = 16 << 20;

// Request opcodes (2 is unassigned) and response statuses, as tabled in
// the module docs.
const OP_INFER: u8 = 1;
const OP_LOAD: u8 = 3;
const OP_UNLOAD: u8 = 4;
const OP_LIST: u8 = 5;
const OP_SHADOW: u8 = 6;
const STATUS_OK: u8 = 0;
const STATUS_OVERLOADED: u8 = 1;
const STATUS_ERROR: u8 = 2;
const STATUS_DRAINING: u8 = 3;
const STATUS_RELOADED: u8 = 4;
const STATUS_LIST: u8 = 5;
const STATUS_UNLOADED: u8 = 6;
const STATUS_DEADLINE: u8 = 7;
const STATUS_SHADOW: u8 = 8;

/// Request priority class, carried on every INFER. `Interactive`
/// requests are dequeued strictly ahead of `Batch` and shed last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Class {
    /// Latency-sensitive traffic: served first, shed last.
    #[default]
    Interactive = 0,
    /// Throughput traffic: fills leftover batch slots, sheds first.
    Batch = 1,
}

impl Class {
    /// Stable lowercase name, as used in obs site keys.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Interactive => "interactive",
            Class::Batch => "batch",
        }
    }
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-request SLO options for an INFER request. `Default` is an
/// interactive, deadline-free, anonymous-tenant request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InferOptions {
    /// Priority class (default `Interactive`).
    pub class: Class,
    /// Relative deadline from server arrival; `None` (the default) never
    /// expires. Encoded in whole microseconds, saturating at `u32::MAX`
    /// (~71 minutes).
    pub deadline: Option<Duration>,
    /// Tenant id for quota/fairness accounting. Empty (the default) is
    /// accounted to the shared `"anon"` tenant.
    pub tenant: String,
}

impl InferOptions {
    fn deadline_us(&self) -> u32 {
        self.deadline
            .map_or(0, |d| u32::try_from(d.as_micros()).unwrap_or(u32::MAX))
    }
}

/// The SLO metadata of an INFER request, as it travels on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferMeta {
    /// Priority class.
    pub class: Class,
    /// Relative deadline in microseconds from arrival; 0 = none.
    pub deadline_us: u32,
    /// Tenant id (may be empty; the server accounts empty as `"anon"`).
    pub tenant: String,
}

/// A SHADOW admin command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShadowCmd {
    /// Start mirroring `permille`/1000 of default-model traffic to the
    /// registered candidate `name`.
    Set {
        /// Candidate model name (must be registered, not the default).
        name: String,
        /// Mirror fraction in thousandths (0..=1000).
        permille: u16,
    },
    /// Make the candidate the default model and stop mirroring.
    Promote,
    /// Stop mirroring; the default model stays.
    Abort,
    /// Report the comparison counters without changing anything.
    Status,
}

impl ShadowCmd {
    /// A `Set` that mirrors `fraction` (0.0–1.0) of default-model traffic
    /// to `name`, rounded to the nearest thousandth.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a fraction outside `[0, 1]`.
    pub fn set(name: &str, fraction: f64) -> io::Result<ShadowCmd> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shadow fraction {fraction} outside [0, 1]"),
            ));
        }
        Ok(ShadowCmd::Set {
            name: name.to_string(),
            permille: (fraction * 1000.0).round() as u16,
        })
    }
}

/// An admin operation: what LOAD, UNLOAD, LIST and SHADOW carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminOp {
    /// Register model `name` from the artifact at `path` (on the server's
    /// filesystem) and load it; the empty name replaces the default model.
    Load {
        /// Registry name (empty = the default model).
        name: String,
        /// Artifact path.
        path: String,
    },
    /// Drop model `name` from the registry.
    Unload {
        /// Registry name (empty = the default model).
        name: String,
    },
    /// Snapshot the registry.
    List,
    /// Configure, promote, abort or inspect shadow routing.
    Shadow(ShadowCmd),
}

/// One request, as [`Request::decode`] reads it off the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run inference on `image` against `model` (empty = the default
    /// model).
    Infer {
        /// SLO metadata.
        meta: InferMeta,
        /// Model name (empty = the default model).
        model: String,
        /// The image tensor.
        image: Tensor,
    },
    /// An admin operation.
    Admin(AdminOp),
}

impl Request {
    /// Decodes a request payload into its id and request. This is the
    /// only request decoder.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] naming the field at fault: an
    /// unknown opcode, class or SHADOW action, a truncated field,
    /// non-UTF-8 text, an element count that overflows or cannot fit a
    /// frame, or trailing bytes.
    pub fn decode(payload: &[u8]) -> io::Result<(u32, Request)> {
        let mut r = ByteReader::new(payload);
        let op = r.u8("opcode")?;
        let id = r.u32("request id")?;
        let request = match op {
            OP_INFER => {
                let class = match r.u8("priority class")? {
                    0 => Class::Interactive,
                    1 => Class::Batch,
                    c => return Err(r.invalid("priority class", c.into()).into()),
                };
                let meta = InferMeta {
                    class,
                    deadline_us: r.u32("deadline")?,
                    tenant: text::<u8>(&mut r, "tenant id")?,
                };
                let model = name(&mut r)?;
                let rank = r.u8("rank")?;
                let shape = (0..rank)
                    .map(|_| r.u32("dim").map(|d| d as usize))
                    .collect::<Result<Vec<usize>, ByteError>>()?;
                // A hostile header (up to rank 255 of u32 dims) can
                // overflow the element product; reject it before it sizes
                // anything.
                let n = shape
                    .iter()
                    .try_fold(1usize, |acc, &d| acc.checked_mul(d))
                    .ok_or_else(|| r.overflow("element count"))?;
                let cap = u64::from(MAX_FRAME / 4);
                if n as u64 > cap {
                    return Err(r.over_cap("element count", n as u64, cap).into());
                }
                let image = Tensor::from_vec(r.f32s("image data", n)?, &shape)
                    .map_err(|_| r.invalid("rank", rank.into()))?;
                Request::Infer { meta, model, image }
            }
            OP_LOAD => Request::Admin(AdminOp::Load {
                name: name(&mut r)?,
                path: text::<u16>(&mut r, "path")?,
            }),
            OP_UNLOAD => Request::Admin(AdminOp::Unload {
                name: name(&mut r)?,
            }),
            OP_LIST => Request::Admin(AdminOp::List),
            OP_SHADOW => Request::Admin(AdminOp::Shadow(match r.u8("SHADOW action")? {
                0 => ShadowCmd::Set {
                    name: name(&mut r)?,
                    permille: r.u16("permille")?,
                },
                1 => ShadowCmd::Promote,
                2 => ShadowCmd::Abort,
                3 => ShadowCmd::Status,
                action => return Err(r.invalid("SHADOW action", action.into()).into()),
            })),
            op => return Err(unknown_opcode(op)),
        };
        r.finish()?;
        Ok((id, request))
    }

    /// Encodes the request payload, tagged with `id`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when a field is too long for its
    /// length prefix (a name over 255 bytes, a path over 65,535 bytes).
    pub fn encode(&self, id: u32) -> io::Result<Vec<u8>> {
        let op = match self {
            Request::Infer { meta, model, image } => {
                let opts = InferOptions {
                    class: meta.class,
                    deadline: (meta.deadline_us > 0)
                        .then(|| Duration::from_micros(meta.deadline_us.into())),
                    tenant: meta.tenant.clone(),
                };
                return infer_payload(id, model, image, &opts);
            }
            Request::Admin(op) => op,
        };
        let mut w = Writer(Vec::with_capacity(16));
        match op {
            AdminOp::Load { name, path } => w
                .put(OP_LOAD)
                .put(id)
                .name(name)?
                .bytes::<u16>("path", path.as_bytes())?,
            AdminOp::Unload { name } => w.put(OP_UNLOAD).put(id).name(name)?,
            AdminOp::List => w.put(OP_LIST).put(id),
            AdminOp::Shadow(ShadowCmd::Set { name, permille }) => {
                w.put(OP_SHADOW).put(id).put(0u8).name(name)?.put(*permille)
            }
            AdminOp::Shadow(ShadowCmd::Promote) => w.put(OP_SHADOW).put(id).put(1u8),
            AdminOp::Shadow(ShadowCmd::Abort) => w.put(OP_SHADOW).put(id).put(2u8),
            AdminOp::Shadow(ShadowCmd::Status) => w.put(OP_SHADOW).put(id).put(3u8),
        };
        Ok(w.0)
    }
}

/// The INFER payload, written from borrowed parts so that encoding never
/// copies the image.
pub(crate) fn infer_payload(
    id: u32,
    model: &str,
    image: &Tensor,
    opts: &InferOptions,
) -> io::Result<Vec<u8>> {
    let (shape, data) = (image.shape(), image.data());
    let tenant = opts.tenant.as_bytes();
    let mut w = Writer(Vec::with_capacity(
        13 + tenant.len() + model.len() + 4 * shape.len() + 4 * data.len(),
    ));
    w.put(OP_INFER)
        .put(id)
        .put(opts.class as u8)
        .put(opts.deadline_us())
        .bytes::<u8>("tenant id", tenant)?
        .name(model)?
        .len::<u8>("rank", shape.len())?;
    for &d in shape {
        w.len::<u32>("dim", d)?;
    }
    w.f32s(data);
    Ok(w.0)
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Best-effort id extraction from a request payload, for tagging error
/// replies to frames that fail full decoding. Payloads too short to carry
/// an id report 0.
pub fn request_id(payload: &[u8]) -> u32 {
    let mut r = ByteReader::new(payload);
    r.u8("opcode")
        .and_then(|_| r.u32("request id"))
        .unwrap_or(0)
}

/// Encodes an INFER request for `image` against the named model (empty =
/// the default model), tagged with `id` and carrying the SLO metadata in
/// `opts`.
///
/// # Panics
///
/// Panics if `model` or `opts.tenant` exceeds 255 bytes (the wire fields
/// are one byte); [`crate::Client`] refuses those with an error instead.
pub fn encode_infer_request_with(
    id: u32,
    model: &str,
    image: &Tensor,
    opts: &InferOptions,
) -> Vec<u8> {
    infer_payload(id, model, image, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Decodes an INFER request payload into its id, SLO metadata, model
/// name (empty = default model), and image tensor: [`Request::decode`]
/// for a frame that must be an INFER.
///
/// # Errors
///
/// As for [`Request::decode`], and [`io::ErrorKind::InvalidData`] for a
/// request of another kind.
pub fn decode_infer_request(payload: &[u8]) -> io::Result<(u32, InferMeta, String, Tensor)> {
    match Request::decode(payload)? {
        (id, Request::Infer { meta, model, image }) => Ok((id, meta, model, image)),
        _ => Err(unknown_opcode(payload.first().copied().unwrap_or_default())),
    }
}

/// One model's row in a registry snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelEntry {
    /// Registry name ("default" for the default model).
    pub name: String,
    /// Whether the model is currently resident in memory (an evicted
    /// model stays registered and lazily reloads on its next request).
    pub resident: bool,
    /// Artifact size in bytes (what the LRU budget charges).
    pub bytes: u64,
    /// Requests routed to this model since it was registered.
    pub requests: u64,
}

/// A point-in-time snapshot of the server's model registry, as carried
/// by a LIST response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    /// Every registered model, resident or not, in name order.
    pub models: Vec<ModelEntry>,
    /// Artifact loads performed (cold starts + lazy reloads).
    pub loads: u64,
    /// Models evicted to stay under the resident-bytes budget.
    pub evictions: u64,
}

/// A point-in-time shadow-routing report, as carried by a SHADOW
/// response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShadowReport {
    /// Whether a shadow candidate is currently configured.
    pub active: bool,
    /// Candidate model name (empty when inactive).
    pub name: String,
    /// Mirror fraction in thousandths.
    pub permille: u16,
    /// Requests mirrored to the candidate so far.
    pub mirrored: u64,
    /// Mirrored requests whose candidate top-1 matched the primary.
    pub agree: u64,
    /// Mirrored requests whose candidate top-1 differed.
    pub disagree: u64,
}

/// A response: one variant per status.
#[derive(Debug, Clone, PartialEq)]
pub enum InferResponse {
    /// Inference completed; `top1` is the argmax class of `logits`.
    Ok {
        /// Argmax class index.
        top1: u32,
        /// Raw logits, one per class.
        logits: Vec<f32>,
    },
    /// The admission queue was full — the request was shed, retry later.
    Overloaded,
    /// The server is draining for shutdown — the request was not admitted.
    Draining,
    /// The model was registered and loaded (LOAD).
    Reloaded,
    /// The named model was dropped from the registry.
    Unloaded,
    /// A registry snapshot (answer to LIST).
    ModelList(RegistrySnapshot),
    /// The request's deadline passed while it was queued; no inference
    /// was run.
    DeadlineExceeded,
    /// A shadow-routing report (answer to SHADOW).
    Shadow(ShadowReport),
    /// The request failed (message follows).
    Error(String),
}

impl InferResponse {
    /// Encodes the response *body* (status onward, no id). Bodies are
    /// id-free so workers stay ignorant of connections; the reactor tags
    /// them with [`tag_response`].
    pub fn encode(&self) -> Vec<u8> {
        let capacity = match self {
            InferResponse::Ok { logits, .. } => 9 + 4 * logits.len(),
            _ => 32,
        };
        body(capacity, |w| self.write(w))
    }

    fn write(&self, w: &mut Writer) -> io::Result<()> {
        match self {
            InferResponse::Ok { top1, logits } => return write_ok(w, *top1, logits),
            InferResponse::Overloaded => w.put(STATUS_OVERLOADED),
            InferResponse::Draining => w.put(STATUS_DRAINING),
            InferResponse::Reloaded => w.put(STATUS_RELOADED),
            InferResponse::Unloaded => w.put(STATUS_UNLOADED),
            InferResponse::DeadlineExceeded => w.put(STATUS_DEADLINE),
            InferResponse::ModelList(s) => {
                w.put(STATUS_LIST)
                    .len::<u16>("model count", s.models.len())?;
                for m in &s.models {
                    w.name(&m.name)?
                        .put(u8::from(m.resident))
                        .put(m.bytes)
                        .put(m.requests);
                }
                w.put(s.loads).put(s.evictions)
            }
            InferResponse::Shadow(r) => w
                .put(STATUS_SHADOW)
                .put(u8::from(r.active))
                .name(&r.name)?
                .put(r.permille)
                .put(r.mirrored)
                .put(r.agree)
                .put(r.disagree),
            InferResponse::Error(msg) => w
                .put(STATUS_ERROR)
                .bytes::<u32>("error message", msg.as_bytes())?,
        };
        Ok(())
    }
}

/// A response body built by `write`. A field too long for its length
/// prefix turns the body into an ERROR that names the field.
fn body(capacity: usize, write: impl FnOnce(&mut Writer) -> io::Result<()>) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(capacity));
    match write(&mut w) {
        Ok(()) => w.0,
        Err(e) => InferResponse::Error(e.to_string()).encode(),
    }
}

fn write_ok(w: &mut Writer, top1: u32, logits: &[f32]) -> io::Result<()> {
    w.put(STATUS_OK)
        .put(top1)
        .len::<u32>("logit count", logits.len())?
        .f32s(logits);
    Ok(())
}

/// The top-1 class of `logits`: the argmax by `total_cmp`, the last
/// index on ties.
pub(crate) fn top1(logits: &[f32]) -> u32 {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i) as u32
}

/// Encodes an OK response body from logits, with their top-1 class
/// (the argmax by `total_cmp`, the last index on ties).
pub fn encode_ok_response(logits: &[f32]) -> Vec<u8> {
    body(9 + 4 * logits.len(), |w| write_ok(w, top1(logits), logits))
}

/// Prepends the request id to a response body, producing the full wire
/// payload.
pub fn tag_response(id: u32, body: &[u8]) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(4 + body.len()));
    w.put(id);
    w.0.extend_from_slice(body);
    w.0
}

/// Decodes a response payload into its request id and response.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] naming the field at fault: an unknown
/// status, a truncated field, non-UTF-8 model names, or trailing bytes.
pub fn decode_response(payload: &[u8]) -> io::Result<(u32, InferResponse)> {
    let mut r = ByteReader::new(payload);
    let id = r.u32("response id")?;
    let resp = match r.u8("response status")? {
        STATUS_OK => {
            let top1 = r.u32("top-1")?;
            let n = r.u32("logit count")?;
            InferResponse::Ok {
                top1,
                logits: r.f32s("logits", n as usize)?,
            }
        }
        STATUS_OVERLOADED => InferResponse::Overloaded,
        STATUS_DRAINING => InferResponse::Draining,
        STATUS_RELOADED => InferResponse::Reloaded,
        STATUS_UNLOADED => InferResponse::Unloaded,
        STATUS_DEADLINE => InferResponse::DeadlineExceeded,
        STATUS_LIST => {
            let count = r.u16("model count")?;
            let models = (0..count)
                .map(|_| {
                    Ok(ModelEntry {
                        name: name(&mut r)?,
                        resident: r.u8("resident flag")? != 0,
                        bytes: r.u64("model bytes")?,
                        requests: r.u64("request count")?,
                    })
                })
                .collect::<Result<Vec<ModelEntry>, ByteError>>()?;
            InferResponse::ModelList(RegistrySnapshot {
                models,
                loads: r.u64("load count")?,
                evictions: r.u64("eviction count")?,
            })
        }
        STATUS_SHADOW => InferResponse::Shadow(ShadowReport {
            active: r.u8("active flag")? != 0,
            name: name(&mut r)?,
            permille: r.u16("permille")?,
            mirrored: r.u64("mirrored count")?,
            agree: r.u64("agree count")?,
            disagree: r.u64("disagree count")?,
        }),
        STATUS_ERROR => InferResponse::Error(
            String::from_utf8_lossy(r.len_prefixed::<u32>("error message", MAX_FRAME.into())?)
                .into_owned(),
        ),
        status => return Err(r.invalid("response status", status.into()).into()),
    };
    r.finish()?;
    Ok((id, resp))
}

/// The error for a payload whose opcode the decoder does not take.
#[cold]
fn unknown_opcode(op: u8) -> io::Error {
    let kind = ByteErrorKind::Invalid { value: op.into() };
    ByteError {
        field: "opcode",
        offset: 0,
        kind,
    }
    .into()
}

/// UTF-8 text behind a length prefix of type `L`.
fn text<L: LenPrefix>(r: &mut ByteReader<'_>, field: &'static str) -> Result<String, ByteError> {
    r.utf8::<L>(field, u64::MAX).map(str::to_owned)
}

/// A model name: text behind a `u8` length.
fn name(r: &mut ByteReader<'_>) -> Result<String, ByteError> {
    text::<u8>(r, "model name")
}

/// A fixed-width little-endian wire field.
trait Field: Sized {
    const WIDTH: usize;
    fn put(self, out: &mut Vec<u8>);
}

macro_rules! field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
field!(u8, u16, u32, u64, f32);

/// A field that prefixes a length or a count.
trait Len: Field + TryFrom<usize> {}
impl Len for u8 {}
impl Len for u16 {}
impl Len for u32 {}

/// The one payload writer; a length that overflows its prefix is
/// refused, never truncated.
struct Writer(Vec<u8>);

impl Writer {
    #[inline]
    fn put<T: Field>(&mut self, v: T) -> &mut Self {
        v.put(&mut self.0);
        self
    }

    /// A length or count `n` in a field of type `L`.
    fn len<L: Len>(&mut self, field: &str, n: usize) -> io::Result<&mut Self> {
        let n = L::try_from(n).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{field}: length {n} does not fit its {}-byte prefix",
                    L::WIDTH
                ),
            )
        })?;
        Ok(self.put(n))
    }

    fn name(&mut self, name: &str) -> io::Result<&mut Self> {
        self.bytes::<u8>("model name", name.as_bytes())
    }

    /// `values` back to back, with no count (the caller writes it).
    fn f32s(&mut self, values: &[f32]) -> &mut Self {
        let start = self.0.len();
        self.0.resize(start + 4 * values.len(), 0);
        for (out, v) in self.0[start..].chunks_exact_mut(4).zip(values) {
            out.copy_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// `bytes` behind a length prefix of type `L`.
    fn bytes<L: Len>(&mut self, field: &str, bytes: &[u8]) -> io::Result<&mut Self> {
        self.len::<L>(field, bytes.len())?;
        self.0.extend_from_slice(bytes);
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow(cmd: ShadowCmd) -> Request {
        Request::Admin(AdminOp::Shadow(cmd))
    }

    #[test]
    fn request_roundtrip_preserves_id_and_tensor_bits() {
        let t = Tensor::from_vec(
            vec![0.5, -1.25, f32::MIN_POSITIVE, 3.0e8, -0.0, 7.0],
            &[2, 3],
        )
        .unwrap();
        let enc = encode_infer_request_with(0xdead_beef, "", &t, &InferOptions::default());
        let (id, meta, model, dec) = decode_infer_request(&enc).unwrap();
        assert_eq!(id, 0xdead_beef);
        assert_eq!(request_id(&enc), 0xdead_beef);
        assert_eq!(model, "", "default-model requests carry an empty name");
        assert_eq!(meta.class, Class::Interactive);
        assert_eq!(meta.deadline_us, 0, "no deadline by default");
        assert_eq!(meta.tenant, "");
        assert_eq!(dec.shape(), t.shape());
        // Bit-level comparison: -0.0 and subnormals must survive.
        let a: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = dec.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn named_model_request_roundtrips() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let enc = encode_infer_request_with(7, "tenant-a/vits-w4a8", &t, &InferOptions::default());
        let (id, _meta, model, dec) = decode_infer_request(&enc).unwrap();
        assert_eq!(id, 7);
        assert_eq!(model, "tenant-a/vits-w4a8");
        assert_eq!(dec.data(), t.data());
        // A truncated name is rejected structurally.
        let mut short = encode_infer_request_with(7, "model", &t, &InferOptions::default());
        short.truncate(14);
        assert!(decode_infer_request(&short).is_err());
        // Non-UTF-8 name bytes are rejected (an empty tenant puts the
        // name at byte 12: header 11 + name_len byte).
        let mut bad = encode_infer_request_with(7, "ab", &t, &InferOptions::default());
        bad[12] = 0xff;
        bad[13] = 0xfe;
        assert!(decode_infer_request(&bad).is_err());
    }

    #[test]
    fn slo_metadata_roundtrips_and_rejects_unknown_class() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let opts = InferOptions {
            class: Class::Batch,
            deadline: Some(std::time::Duration::from_millis(250)),
            tenant: "tenant-a".into(),
        };
        let enc = encode_infer_request_with(42, "m", &t, &opts);
        let (id, meta, model, dec) = decode_infer_request(&enc).unwrap();
        assert_eq!(id, 42);
        assert_eq!(meta.class, Class::Batch);
        assert_eq!(meta.deadline_us, 250_000);
        assert_eq!(meta.tenant, "tenant-a");
        assert_eq!(model, "m");
        assert_eq!(dec.data(), t.data());

        // A deadline past u32 microseconds saturates instead of wrapping.
        let far = InferOptions {
            deadline: Some(std::time::Duration::from_secs(1 << 40)),
            ..InferOptions::default()
        };
        let enc = encode_infer_request_with(1, "", &t, &far);
        let (_, meta, _, _) = decode_infer_request(&enc).unwrap();
        assert_eq!(meta.deadline_us, u32::MAX);

        // Class bytes beyond the two defined values are a structured
        // error, not a silent default.
        let mut bad = encode_infer_request_with(1, "", &t, &InferOptions::default());
        bad[5] = 2;
        let err = decode_infer_request(&bad).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("class"), "{err}");

        // Non-UTF-8 tenant bytes are rejected.
        let with_tenant = InferOptions {
            tenant: "ab".into(),
            ..InferOptions::default()
        };
        let mut bad = encode_infer_request_with(1, "", &t, &with_tenant);
        bad[11] = 0xff;
        bad[12] = 0xfe;
        assert!(decode_infer_request(&bad).is_err());
    }

    #[test]
    fn shadow_requests_and_responses_roundtrip() {
        for cmd in [
            ShadowCmd::Set {
                name: "cand".into(),
                permille: 250,
            },
            ShadowCmd::Promote,
            ShadowCmd::Abort,
            ShadowCmd::Status,
        ] {
            let request = Request::Admin(AdminOp::Shadow(cmd));
            let enc = request.encode(17).unwrap();
            assert_eq!(request_id(&enc), 17);
            assert_eq!(Request::decode(&enc).unwrap(), (17, request));
        }
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[OP_SHADOW, 0, 0, 0, 0, 9]).is_err()); // unknown action
        let mut extra = shadow(ShadowCmd::Promote).encode(1).unwrap();
        extra.push(0);
        assert!(Request::decode(&extra).is_err());
        let mut short = shadow(ShadowCmd::Set {
            name: "cand".into(),
            permille: 250,
        })
        .encode(1)
        .unwrap();
        short.pop();
        assert!(Request::decode(&short).is_err());

        let report = ShadowReport {
            active: true,
            name: "cand".into(),
            permille: 250,
            mirrored: 400,
            agree: 399,
            disagree: 1,
        };
        let encoded = InferResponse::Shadow(report.clone()).encode();
        match decode_response(&tag_response(8, &encoded)).unwrap() {
            (8, InferResponse::Shadow(got)) => assert_eq!(got, report),
            other => panic!("{other:?}"),
        }
        let mut body = encoded;
        body.pop();
        assert!(decode_response(&tag_response(8, &body)).is_err());
    }

    #[test]
    fn load_unload_list_requests_roundtrip_and_reject_malformed() {
        let load = Request::Admin(AdminOp::Load {
            name: "b".into(),
            path: "/tmp/b.quqm".into(),
        });
        let enc = load.encode(11).unwrap();
        assert_eq!(Request::decode(&enc).unwrap(), (11, load.clone()));
        assert!(Request::decode(&[]).is_err());
        let mut short = load.encode(11).unwrap();
        short.pop();
        assert!(Request::decode(&short).is_err());

        let unload = Request::Admin(AdminOp::Unload { name: "b".into() });
        let enc = unload.encode(12).unwrap();
        assert_eq!(Request::decode(&enc).unwrap(), (12, unload.clone()));
        let mut extra = unload.encode(12).unwrap();
        extra.push(0);
        assert!(Request::decode(&extra).is_err());

        let list = Request::Admin(AdminOp::List);
        assert_eq!(list.encode(13).unwrap(), vec![OP_LIST, 13, 0, 0, 0]);
        assert_eq!(request_id(&list.encode(13).unwrap()), 13);
        // LIST follows the same rules as every other kind: a frame too
        // short for its id, or one with trailing bytes, is an error.
        assert_eq!(request_id(&[OP_LIST]), 0);
        assert!(Request::decode(&[OP_LIST]).is_err());
        assert!(Request::decode(&[OP_LIST, 13, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn list_response_roundtrips() {
        let snap = RegistrySnapshot {
            models: vec![
                ModelEntry {
                    name: "default".into(),
                    resident: true,
                    bytes: 123_456,
                    requests: 42,
                },
                ModelEntry {
                    name: "tenant-b".into(),
                    resident: false,
                    bytes: u64::MAX,
                    requests: 0,
                },
            ],
            loads: 3,
            evictions: 1,
        };
        match decode_response(&tag_response(
            5,
            &InferResponse::ModelList(snap.clone()).encode(),
        ))
        .unwrap()
        {
            (5, InferResponse::ModelList(got)) => assert_eq!(got, snap),
            other => panic!("{other:?}"),
        }
        // Empty registry is representable.
        let empty = RegistrySnapshot::default();
        match decode_response(&tag_response(
            6,
            &InferResponse::ModelList(empty.clone()).encode(),
        ))
        .unwrap()
        {
            (6, InferResponse::ModelList(got)) => assert_eq!(got, empty),
            other => panic!("{other:?}"),
        }
        // Truncated LIST bodies are rejected, not mis-read.
        let mut body = InferResponse::ModelList(snap).encode();
        body.pop();
        assert!(decode_response(&tag_response(5, &body)).is_err());
    }

    #[test]
    fn response_roundtrip_all_variants() {
        let logits = vec![0.1f32, 2.5, -3.0];
        match decode_response(&tag_response(9, &encode_ok_response(&logits))).unwrap() {
            (9, InferResponse::Ok { top1, logits: l }) => {
                assert_eq!(top1, 1);
                assert_eq!(l, logits);
            }
            other => panic!("{other:?}"),
        }
        for (status, want) in [
            (STATUS_OVERLOADED, InferResponse::Overloaded),
            (STATUS_DRAINING, InferResponse::Draining),
            (STATUS_RELOADED, InferResponse::Reloaded),
            (STATUS_UNLOADED, InferResponse::Unloaded),
            (STATUS_DEADLINE, InferResponse::DeadlineExceeded),
        ] {
            assert_eq!(want.encode(), vec![status]);
            assert_eq!(
                decode_response(&tag_response(7, &want.encode())).unwrap(),
                (7, want)
            );
        }
        assert_eq!(
            decode_response(&tag_response(
                1,
                &InferResponse::Error("boom".into()).encode()
            ))
            .unwrap(),
            (1, InferResponse::Error("boom".into()))
        );
    }

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut dec = crate::framing::FrameDecoder::new();
        dec.extend(&buf);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"hello");
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"");
        assert!(dec.next_frame().unwrap().is_none());
        assert!(!dec.midframe());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        // The writer refuses what every reader would reject as hostile.
        let mut buf = Vec::new();
        let payload = vec![0u8; MAX_FRAME as usize + 1];
        assert_eq!(
            write_frame(&mut buf, &payload).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert!(buf.is_empty(), "nothing written for a refused frame");
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(decode_infer_request(&[]).is_err());
        assert!(decode_infer_request(&[9, 0, 0, 0, 0, 0]).is_err()); // bad opcode
        let image = Tensor::from_vec(vec![1.0; 6], &[2, 3]).unwrap();
        let mut short = encode_infer_request_with(1, "", &image, &InferOptions::default());
        short.pop();
        assert!(decode_infer_request(&short).is_err());
    }

    #[test]
    fn hostile_rank_255_dims_cannot_overflow_the_element_product() {
        // rank 255, every dim u32::MAX: the unchecked product wraps in
        // release builds (and panics in debug); the decoder must reject it
        // as structured InvalidData either way. The v4 header is
        // op · id×4 · class · deadline×4 · tenant_len · name_len · rank.
        let mut payload = vec![OP_INFER, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255];
        for _ in 0..255 {
            payload.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        let err = decode_infer_request(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflow"), "{err}");

        // A colossal-but-non-overflowing product is also rejected (it can
        // never fit in a legal frame), not used to size an allocation.
        let mut payload = vec![OP_INFER, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        assert!(decode_infer_request(&payload).is_err());

        // Hostile tenant_len / name_len pointing past the payload are
        // structured errors too.
        let payload = vec![OP_INFER, 1, 0, 0, 0, 0, 0, 0, 0, 0, 255, 1, 1];
        assert!(decode_infer_request(&payload).is_err());
        let payload = vec![OP_INFER, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 1];
        assert!(decode_infer_request(&payload).is_err());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One frame of every request kind, byte for byte as version 4 lays
    /// it out.
    const GOLDEN_REQUESTS: [(&str, &str); 8] = [
        (
            "infer",
            "01040302010190d003000174016d0201000000020000000000c03f000000c0",
        ),
        ("load", "030b00000001620b002f746d702f622e7175716d"),
        ("unload", "040c0000000162"),
        ("list", "050d000000"),
        ("shadow set", "060e000000000463616e64fa00"),
        ("shadow promote", "060f00000001"),
        ("shadow abort", "061000000002"),
        ("shadow status", "061100000003"),
    ];

    /// One frame of every response status, tagged with id 9, byte for
    /// byte as version 4 lays it out.
    const GOLDEN_RESPONSES: [(&str, &str); 9] = [
        ("ok", "09000000000100000003000000cdcccc3d00002040000040c0"),
        ("overloaded", "0900000001"),
        ("error", "090000000204000000626f6f6d"),
        ("draining", "0900000003"),
        ("reloaded", "0900000004"),
        (
            "list",
            "090000000502000764656661756c740140e20100000000002a00000000000000016200070000\
             0000000000000000000000000003000000000000000100000000000000",
        ),
        ("unloaded", "0900000006"),
        ("deadline", "0900000007"),
        (
            "shadow",
            "0900000008010463616e64fa0090010000000000008f010000000000000100000000000000",
        ),
    ];

    fn golden_requests() -> Vec<Request> {
        let image = Tensor::from_vec(vec![1.5, -2.0], &[1, 2]).unwrap();
        let opts = InferOptions {
            class: Class::Batch,
            deadline: Some(std::time::Duration::from_millis(250)),
            tenant: "t".into(),
        };
        let infer = encode_infer_request_with(0x0102_0304, "m", &image, &opts);
        vec![
            Request::decode(&infer).unwrap().1,
            Request::Admin(AdminOp::Load {
                name: "b".into(),
                path: "/tmp/b.quqm".into(),
            }),
            Request::Admin(AdminOp::Unload { name: "b".into() }),
            Request::Admin(AdminOp::List),
            shadow(ShadowCmd::Set {
                name: "cand".into(),
                permille: 250,
            }),
            shadow(ShadowCmd::Promote),
            shadow(ShadowCmd::Abort),
            shadow(ShadowCmd::Status),
        ]
    }

    fn golden_responses() -> Vec<InferResponse> {
        let ok = decode_response(&tag_response(9, &encode_ok_response(&[0.1, 2.5, -3.0])));
        vec![
            ok.unwrap().1,
            InferResponse::Overloaded,
            InferResponse::Error("boom".into()),
            InferResponse::Draining,
            InferResponse::Reloaded,
            InferResponse::ModelList(RegistrySnapshot {
                models: vec![
                    ModelEntry {
                        name: "default".into(),
                        resident: true,
                        bytes: 123_456,
                        requests: 42,
                    },
                    ModelEntry {
                        name: "b".into(),
                        resident: false,
                        bytes: 7,
                        requests: 0,
                    },
                ],
                loads: 3,
                evictions: 1,
            }),
            InferResponse::Unloaded,
            InferResponse::DeadlineExceeded,
            InferResponse::Shadow(ShadowReport {
                active: true,
                name: "cand".into(),
                permille: 250,
                mirrored: 400,
                agree: 399,
                disagree: 1,
            }),
        ]
    }

    /// Every strict prefix of `frame`, and `frame` plus one byte, must be
    /// refused as `InvalidData` (a panic fails the test).
    fn assert_every_mutation_rejected<T: std::fmt::Debug>(
        what: &str,
        frame: &[u8],
        decode: impl Fn(&[u8]) -> io::Result<T>,
    ) {
        for cut in 0..frame.len() {
            match decode(&frame[..cut]) {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what} cut at {cut}"),
                Ok(got) => panic!("{what} cut at {cut} decoded as {got:?}"),
            }
        }
        let mut longer = frame.to_vec();
        longer.push(0);
        match decode(&longer) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what} plus a byte"),
            Ok(got) => panic!("{what} plus a byte decoded as {got:?}"),
        }
    }

    #[test]
    fn golden_frames_are_pinned_and_every_mutation_is_rejected() {
        let ids = [0x0102_0304, 11, 12, 13, 14, 15, 16, 17];
        for (((what, golden), request), id) in
            GOLDEN_REQUESTS.iter().zip(golden_requests()).zip(ids)
        {
            let frame = request.encode(id).unwrap();
            assert_eq!(hex(&frame), *golden, "{what} request bytes moved");
            assert_eq!(Request::decode(&frame).unwrap(), (id, request));
            assert_every_mutation_rejected(what, &frame, Request::decode);
        }
        for ((what, golden), response) in GOLDEN_RESPONSES.iter().zip(golden_responses()) {
            let frame = tag_response(9, &response.encode());
            assert_eq!(hex(&frame), *golden, "{what} response bytes moved");
            assert_eq!(decode_response(&frame).unwrap(), (9, response));
            assert_every_mutation_rejected(what, &frame, decode_response);
        }
    }

    #[test]
    fn the_writer_refuses_fields_longer_than_their_prefix() {
        let long_path = Request::Admin(AdminOp::Load {
            name: "b".into(),
            path: "p".repeat(70_000),
        });
        let err = long_path.encode(1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("path"), "{err}");
        let long_name = Request::Admin(AdminOp::Unload {
            name: "n".repeat(256),
        });
        assert!(long_name.encode(1).is_err());
        // A response that cannot carry its field says so in an ERROR.
        let report = ShadowReport {
            name: "n".repeat(256),
            ..ShadowReport::default()
        };
        match decode_response(&tag_response(1, &InferResponse::Shadow(report).encode())) {
            Ok((1, InferResponse::Error(msg))) => assert!(msg.contains("model name"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }
}
