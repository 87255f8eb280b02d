//! The wire protocol: length-prefixed frames over TCP, little-endian.
//! This is **protocol version 4**, which tags every request and response
//! with a `u32` request id (so many requests can be in flight on one
//! connection and responses may return out of order), routes every INFER
//! request to a named model in the server's registry, and carries the
//! request's SLO metadata — priority class, relative deadline, and tenant
//! id — for the scheduler ([`crate::sched`]).
//!
//! Every message is one frame: a `u32` payload length followed by the
//! payload. A request payload is
//!
//! ```text
//! opcode: u8 (1 = INFER, 3 = LOAD, 4 = UNLOAD, 5 = LIST, 6 = SHADOW;
//!             2 is unassigned and answered "unknown opcode")
//! id: u32, then
//! INFER:  u8 class (0 = interactive, 1 = batch)
//!         · u32 deadline_us (relative to arrival; 0 = no deadline)
//!         · u8 tenant_len · tenant_len × u8 (UTF-8 tenant; empty = "anon")
//!         · u8 name_len · name_len × u8 (UTF-8 model name; empty = default)
//!         · rank u8 · rank × u32 dims · Π dims × f32 data
//! LOAD:   u8 name_len · name · u16 path_len · path (register + load
//!         model; the empty name hot-swaps the default model)
//! UNLOAD: u8 name_len · name (drop the model from the registry)
//! LIST:   (empty — snapshot the registry)
//! SHADOW: u8 action, then
//!         0 SET     u8 name_len · name · u16 permille (mirror fraction)
//!         1 PROMOTE (empty — make the shadow candidate the default model)
//!         2 ABORT   (empty — stop mirroring, keep the default)
//!         3 STATUS  (empty — report the shadow comparison counters)
//! ```
//!
//! and a response payload echoes the id, then a status byte:
//!
//! ```text
//! id: u32, then
//! 0 OK         u32 top1 · u32 n_logits · n_logits × f32
//! 1 OVERLOADED (empty — shed at admission or displaced from the queue by
//!               a higher-standing request, retry later)
//! 2 ERROR      u32 len · len × u8 (UTF-8 message)
//! 3 DRAINING   (empty — server is shutting down, request not admitted)
//! 4 RELOADED   (empty — LOAD registered and loaded the named model)
//! 5 LIST       u16 count · count × (u8 name_len · name · u8 resident ·
//!               u64 bytes · u64 requests) · u64 loads · u64 evictions
//! 6 UNLOADED   (empty — the named model was dropped from the registry)
//! 7 DEADLINE   (empty — the request's deadline passed while it was
//!               queued; no inference was run)
//! 8 SHADOW     u8 active · u8 name_len · name · u16 permille ·
//!              u64 mirrored · u64 agree · u64 disagree (answer to SHADOW)
//! ```
//!
//! ## Version compatibility
//!
//! v4 is a breaking wire change from v3: INFER carries a class byte, a
//! `u32` relative deadline, and a tenant field between the id and the
//! model name (all-default SLO metadata costs six extra bytes), and the
//! SHADOW opcode plus DEADLINE/SHADOW statuses are new. Opcode 2 carries
//! no request: a peer that sends it gets the `unknown opcode` ERROR, and
//! LOAD with the empty name replaces the default model. Ids remain
//! client-chosen, echoed verbatim, and unique only per connection —
//! reusing an id across concurrently in-flight requests makes the two
//! responses indistinguishable. There is no version negotiation; both
//! ends of this workspace speak v4. A v3 INFER payload fails the v4
//! length or class check deterministically and is answered with an
//! `ERROR` frame (tagged with whatever the id bytes decode to), so a
//! stale peer gets a structured rejection rather than silence. A request
//! too short to carry an id is answered with id 0.
//!
//! Everything is plain `std::io` on byte slices, shared verbatim by the
//! server, the [`crate::client::Client`], and the benchmark. Frames
//! are read with the stateful [`crate::framing::FrameDecoder`].

use std::io::{self, Write};

use quq_tensor::Tensor;

/// Wire protocol version implemented by this crate (see module docs for
/// the v3 → v4 change).
pub const PROTOCOL_VERSION: u8 = 4;

/// Largest accepted frame: a generous bound for one image tensor
/// (16 MiB ≈ a 2048×2048 3-channel f32 image), protecting the server from
/// a hostile or corrupt length prefix.
pub const MAX_FRAME: u32 = 16 << 20;

/// Request opcode: run inference on one image tensor.
pub const OP_INFER: u8 = 1;
/// Request opcode (admin): register a named model from an artifact path
/// and load it (the empty name replaces the default model).
pub const OP_LOAD: u8 = 3;
/// Request opcode (admin): drop a named model from the registry.
pub const OP_UNLOAD: u8 = 4;
/// Request opcode (admin): snapshot the model registry.
pub const OP_LIST: u8 = 5;
/// Request opcode (admin): configure, promote, abort, or inspect
/// shadow/canary routing.
pub const OP_SHADOW: u8 = 6;

/// Response status bytes.
pub const STATUS_OK: u8 = 0;
/// The admission queue was full; the request was shed.
pub const STATUS_OVERLOADED: u8 = 1;
/// The backend failed on this request (message follows).
pub const STATUS_ERROR: u8 = 2;
/// The server is draining; the request was not admitted.
pub const STATUS_DRAINING: u8 = 3;
/// The model was registered and loaded (LOAD).
pub const STATUS_RELOADED: u8 = 4;
/// A registry snapshot follows.
pub const STATUS_LIST: u8 = 5;
/// The named model was dropped from the registry.
pub const STATUS_UNLOADED: u8 = 6;
/// The request's deadline passed while it was queued; no inference ran.
pub const STATUS_DEADLINE: u8 = 7;
/// A shadow-routing report follows.
pub const STATUS_SHADOW: u8 = 8;

/// Request priority class, carried on every v4 INFER. `Interactive`
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

    fn from_wire(byte: u8) -> Option<Class> {
        match byte {
            0 => Some(Class::Interactive),
            1 => Some(Class::Batch),
            _ => None,
        }
    }
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-request SLO options for an INFER request: what v4 added to the
/// wire. `Default` is an interactive, deadline-free, anonymous-tenant
/// request — the closest v4 spelling of a v3 request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InferOptions {
    /// Priority class (default `Interactive`).
    pub class: Class,
    /// Relative deadline from server arrival; `None` (the default) never
    /// expires. Encoded in whole microseconds, saturating at `u32::MAX`
    /// (~71 minutes).
    pub deadline: Option<std::time::Duration>,
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

/// The SLO metadata decoded from a v4 INFER request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferMeta {
    /// Priority class.
    pub class: Class,
    /// Relative deadline in microseconds from arrival; 0 = none.
    pub deadline_us: u32,
    /// Tenant id (may be empty; the server accounts empty as `"anon"`).
    pub tenant: String,
}

/// A decoded SHADOW admin command.
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

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame too large",
        ));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Best-effort id extraction from a request payload, for tagging error
/// replies to frames that fail full decoding. Payloads too short to carry
/// an id report 0.
pub fn request_id(payload: &[u8]) -> u32 {
    match payload.get(1..5) {
        Some(b) => u32::from_le_bytes(b.try_into().expect("sized")),
        None => 0,
    }
}

/// Encodes an INFER request for `image` against the default model,
/// tagged with `id`, with default SLO options (shorthand for
/// [`encode_infer_request_with`]).
pub fn encode_infer_request(id: u32, image: &Tensor) -> Vec<u8> {
    encode_infer_request_with(id, "", image, &InferOptions::default())
}

/// Encodes an INFER request for `image` against the named model, tagged
/// with `id`, with default SLO options. An empty `model` addresses the
/// server's default model.
///
/// # Panics
///
/// Panics if `model` exceeds 255 bytes (the wire field is one byte).
pub fn encode_infer_request_for(id: u32, model: &str, image: &Tensor) -> Vec<u8> {
    encode_infer_request_with(id, model, image, &InferOptions::default())
}

/// Encodes an INFER request for `image` against the named model, tagged
/// with `id` and carrying the SLO metadata in `opts`.
///
/// # Panics
///
/// Panics if `model` or `opts.tenant` exceeds 255 bytes (the wire fields
/// are one byte).
pub fn encode_infer_request_with(
    id: u32,
    model: &str,
    image: &Tensor,
    opts: &InferOptions,
) -> Vec<u8> {
    let name = model.as_bytes();
    assert!(
        name.len() <= u8::MAX as usize,
        "model name exceeds 255 bytes"
    );
    let tenant = opts.tenant.as_bytes();
    assert!(
        tenant.len() <= u8::MAX as usize,
        "tenant id exceeds 255 bytes"
    );
    let shape = image.shape();
    let mut out = Vec::with_capacity(
        13 + tenant.len() + name.len() + 4 * shape.len() + 4 * image.data().len(),
    );
    out.push(OP_INFER);
    out.extend_from_slice(&id.to_le_bytes());
    out.push(opts.class as u8);
    out.extend_from_slice(&opts.deadline_us().to_le_bytes());
    out.push(tenant.len() as u8);
    out.extend_from_slice(tenant);
    out.push(name.len() as u8);
    out.extend_from_slice(name);
    out.push(shape.len() as u8);
    for &d in shape {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &v in image.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes an INFER request payload into its id, SLO metadata, model
/// name (empty = default model), and image tensor.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on a bad opcode, unknown class,
/// truncated payload, non-UTF-8 tenant/model name, element-count
/// overflow, or element-count mismatch.
pub fn decode_infer_request(payload: &[u8]) -> io::Result<(u32, InferMeta, String, Tensor)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if payload.len() < 13 {
        return Err(bad("truncated request header"));
    }
    if payload[0] != OP_INFER {
        return Err(bad("unknown opcode"));
    }
    let id = request_id(payload);
    let class = Class::from_wire(payload[5]).ok_or_else(|| bad("unknown priority class"))?;
    let deadline_us = u32::from_le_bytes(payload[6..10].try_into().expect("sized"));
    let tenant_len = payload[10] as usize;
    let name_len_at = 11 + tenant_len;
    if payload.len() < name_len_at + 1 {
        return Err(bad("truncated tenant id"));
    }
    let tenant = std::str::from_utf8(&payload[11..name_len_at])
        .map_err(|_| bad("non-UTF-8 tenant id"))?
        .to_string();
    let name_len = payload[name_len_at] as usize;
    let rank_at = name_len_at + 1 + name_len;
    if payload.len() < rank_at + 1 {
        return Err(bad("truncated model name"));
    }
    let model = std::str::from_utf8(&payload[name_len_at + 1..rank_at])
        .map_err(|_| bad("non-UTF-8 model name"))?
        .to_string();
    let rank = payload[rank_at] as usize;
    let dims_start = rank_at + 1;
    let dims_end = dims_start + 4 * rank;
    if payload.len() < dims_end {
        return Err(bad("truncated dims"));
    }
    let mut shape = Vec::with_capacity(rank);
    for i in 0..rank {
        let b: [u8; 4] = payload[dims_start + 4 * i..dims_start + 4 * i + 4]
            .try_into()
            .expect("sized");
        shape.push(u32::from_le_bytes(b) as usize);
    }
    // A hostile header (up to rank 255 of u32 dims) can overflow the
    // element product; reject instead of wrapping into a bogus — possibly
    // passing — length check.
    let n = shape
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&n| n <= (MAX_FRAME as usize) / 4)
        .ok_or_else(|| bad("element count overflows"))?;
    if payload.len() != dims_end + 4 * n {
        return Err(bad("element count mismatch"));
    }
    let data: Vec<f32> = payload[dims_end..]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("sized")))
        .collect();
    let image =
        Tensor::from_vec(data, &shape).map_err(|e| bad(&format!("bad tensor shape: {e:?}")))?;
    Ok((
        id,
        InferMeta {
            class,
            deadline_us,
            tenant,
        },
        model,
        image,
    ))
}

/// Encodes a LOAD request: register model `name` from the artifact at
/// `path` and load it, tagged with `id`. The empty name replaces the
/// default model.
///
/// # Panics
///
/// Panics if `name` exceeds 255 bytes (the wire field is one byte).
pub fn encode_load_request(id: u32, name: &str, path: &str) -> Vec<u8> {
    let name = name.as_bytes();
    assert!(
        name.len() <= u8::MAX as usize,
        "model name exceeds 255 bytes"
    );
    let path = path.as_bytes();
    let mut out = Vec::with_capacity(8 + name.len() + path.len());
    out.push(OP_LOAD);
    out.extend_from_slice(&id.to_le_bytes());
    out.push(name.len() as u8);
    out.extend_from_slice(name);
    out.extend_from_slice(&(path.len() as u16).to_le_bytes());
    out.extend_from_slice(path);
    out
}

/// Decodes a LOAD request payload into its id, model name, and artifact
/// path.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on a bad opcode, truncated
/// payload, or non-UTF-8 name/path.
pub fn decode_load_request(payload: &[u8]) -> io::Result<(u32, String, String)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if payload.len() < 8 {
        return Err(bad("truncated LOAD request"));
    }
    if payload[0] != OP_LOAD {
        return Err(bad("unknown opcode"));
    }
    let id = request_id(payload);
    let name_len = payload[5] as usize;
    let path_len_at = 6 + name_len;
    if payload.len() < path_len_at + 2 {
        return Err(bad("truncated model name"));
    }
    let name = std::str::from_utf8(&payload[6..path_len_at])
        .map_err(|_| bad("non-UTF-8 model name"))?
        .to_string();
    let path_len = u16::from_le_bytes(
        payload[path_len_at..path_len_at + 2]
            .try_into()
            .expect("sized"),
    ) as usize;
    if payload.len() != path_len_at + 2 + path_len {
        return Err(bad("path length mismatch"));
    }
    let path = String::from_utf8(payload[path_len_at + 2..].to_vec())
        .map_err(|_| bad("non-UTF-8 path"))?;
    Ok((id, name, path))
}

/// Encodes an UNLOAD request for model `name`, tagged with `id`.
///
/// # Panics
///
/// Panics if `name` exceeds 255 bytes (the wire field is one byte).
pub fn encode_unload_request(id: u32, name: &str) -> Vec<u8> {
    let name = name.as_bytes();
    assert!(
        name.len() <= u8::MAX as usize,
        "model name exceeds 255 bytes"
    );
    let mut out = Vec::with_capacity(6 + name.len());
    out.push(OP_UNLOAD);
    out.extend_from_slice(&id.to_le_bytes());
    out.push(name.len() as u8);
    out.extend_from_slice(name);
    out
}

/// Decodes an UNLOAD request payload into its id and model name.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on a bad opcode, truncated
/// payload, or non-UTF-8 name.
pub fn decode_unload_request(payload: &[u8]) -> io::Result<(u32, String)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if payload.len() < 6 {
        return Err(bad("truncated UNLOAD request"));
    }
    if payload[0] != OP_UNLOAD {
        return Err(bad("unknown opcode"));
    }
    let id = request_id(payload);
    let name_len = payload[5] as usize;
    if payload.len() != 6 + name_len {
        return Err(bad("name length mismatch"));
    }
    let name = std::str::from_utf8(&payload[6..])
        .map_err(|_| bad("non-UTF-8 model name"))?
        .to_string();
    Ok((id, name))
}

/// Encodes a LIST request, tagged with `id`.
pub fn encode_list_request(id: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.push(OP_LIST);
    out.extend_from_slice(&id.to_le_bytes());
    out
}

/// Encodes a SHADOW admin request, tagged with `id`.
///
/// # Panics
///
/// Panics if a `Set` name exceeds 255 bytes (the wire field is one byte).
pub fn encode_shadow_request(id: u32, cmd: &ShadowCmd) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    out.push(OP_SHADOW);
    out.extend_from_slice(&id.to_le_bytes());
    match cmd {
        ShadowCmd::Set { name, permille } => {
            let name = name.as_bytes();
            assert!(
                name.len() <= u8::MAX as usize,
                "model name exceeds 255 bytes"
            );
            out.push(0);
            out.push(name.len() as u8);
            out.extend_from_slice(name);
            out.extend_from_slice(&permille.to_le_bytes());
        }
        ShadowCmd::Promote => out.push(1),
        ShadowCmd::Abort => out.push(2),
        ShadowCmd::Status => out.push(3),
    }
    out
}

/// Decodes a SHADOW request payload into its id and command.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on a bad opcode, unknown
/// action, truncated payload, or non-UTF-8 name.
pub fn decode_shadow_request(payload: &[u8]) -> io::Result<(u32, ShadowCmd)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if payload.len() < 6 {
        return Err(bad("truncated SHADOW request"));
    }
    if payload[0] != OP_SHADOW {
        return Err(bad("unknown opcode"));
    }
    let id = request_id(payload);
    let cmd = match payload[5] {
        0 => {
            if payload.len() < 7 {
                return Err(bad("truncated SHADOW SET"));
            }
            let name_len = payload[6] as usize;
            if payload.len() != 7 + name_len + 2 {
                return Err(bad("SHADOW SET length mismatch"));
            }
            let name = std::str::from_utf8(&payload[7..7 + name_len])
                .map_err(|_| bad("non-UTF-8 model name"))?
                .to_string();
            let permille = u16::from_le_bytes(payload[7 + name_len..].try_into().expect("sized"));
            ShadowCmd::Set { name, permille }
        }
        1 => ShadowCmd::Promote,
        2 => ShadowCmd::Abort,
        3 => ShadowCmd::Status,
        _ => return Err(bad("unknown SHADOW action")),
    };
    if !matches!(cmd, ShadowCmd::Set { .. }) && payload.len() != 6 {
        return Err(bad("SHADOW action carries no body"));
    }
    Ok((id, cmd))
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

/// A decoded inference response.
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
    /// The backend failed on this request.
    Error(String),
}

/// Encodes an OK response *body* (status onward, no id) from logits.
/// Bodies are id-free so workers stay ignorant of connections; the
/// framing layer tags them with [`tag_response`].
pub fn encode_ok_response(logits: &[f32]) -> Vec<u8> {
    let top1 = logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i) as u32;
    let mut out = Vec::with_capacity(9 + 4 * logits.len());
    out.push(STATUS_OK);
    out.extend_from_slice(&top1.to_le_bytes());
    out.extend_from_slice(&(logits.len() as u32).to_le_bytes());
    for &v in logits {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encodes a status-only response body (`OVERLOADED` / `DRAINING` /
/// `RELOADED` / `UNLOADED`).
pub fn encode_status_response(status: u8) -> Vec<u8> {
    vec![status]
}

/// Encodes a LIST response body from a registry snapshot.
pub fn encode_list_response(snapshot: &RegistrySnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(19 + 19 * snapshot.models.len());
    out.push(STATUS_LIST);
    out.extend_from_slice(&(snapshot.models.len() as u16).to_le_bytes());
    for m in &snapshot.models {
        let name = m.name.as_bytes();
        debug_assert!(name.len() <= u8::MAX as usize);
        out.push(name.len() as u8);
        out.extend_from_slice(name);
        out.push(u8::from(m.resident));
        out.extend_from_slice(&m.bytes.to_le_bytes());
        out.extend_from_slice(&m.requests.to_le_bytes());
    }
    out.extend_from_slice(&snapshot.loads.to_le_bytes());
    out.extend_from_slice(&snapshot.evictions.to_le_bytes());
    out
}

fn decode_list_body(body: &[u8]) -> io::Result<RegistrySnapshot> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if body.len() < 3 {
        return Err(bad("truncated LIST response"));
    }
    let count = u16::from_le_bytes(body[1..3].try_into().expect("sized")) as usize;
    let mut at = 3;
    let mut models = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = *body.get(at).ok_or_else(|| bad("truncated LIST entry"))? as usize;
        let entry_end = at + 1 + name_len + 1 + 8 + 8;
        if body.len() < entry_end {
            return Err(bad("truncated LIST entry"));
        }
        let name = std::str::from_utf8(&body[at + 1..at + 1 + name_len])
            .map_err(|_| bad("non-UTF-8 model name"))?
            .to_string();
        let resident = body[at + 1 + name_len] != 0;
        let bytes = u64::from_le_bytes(
            body[at + 2 + name_len..at + 10 + name_len]
                .try_into()
                .expect("sized"),
        );
        let requests = u64::from_le_bytes(
            body[at + 10 + name_len..entry_end]
                .try_into()
                .expect("sized"),
        );
        models.push(ModelEntry {
            name,
            resident,
            bytes,
            requests,
        });
        at = entry_end;
    }
    if body.len() != at + 16 {
        return Err(bad("LIST footer length mismatch"));
    }
    let loads = u64::from_le_bytes(body[at..at + 8].try_into().expect("sized"));
    let evictions = u64::from_le_bytes(body[at + 8..at + 16].try_into().expect("sized"));
    Ok(RegistrySnapshot {
        models,
        loads,
        evictions,
    })
}

/// Encodes a SHADOW response body from a report.
pub fn encode_shadow_response(report: &ShadowReport) -> Vec<u8> {
    let name = report.name.as_bytes();
    debug_assert!(name.len() <= u8::MAX as usize);
    let mut out = Vec::with_capacity(29 + name.len());
    out.push(STATUS_SHADOW);
    out.push(u8::from(report.active));
    out.push(name.len() as u8);
    out.extend_from_slice(name);
    out.extend_from_slice(&report.permille.to_le_bytes());
    out.extend_from_slice(&report.mirrored.to_le_bytes());
    out.extend_from_slice(&report.agree.to_le_bytes());
    out.extend_from_slice(&report.disagree.to_le_bytes());
    out
}

fn decode_shadow_body(body: &[u8]) -> io::Result<ShadowReport> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if body.len() < 3 {
        return Err(bad("truncated SHADOW response"));
    }
    let active = body[1] != 0;
    let name_len = body[2] as usize;
    let fixed_at = 3 + name_len;
    if body.len() != fixed_at + 2 + 24 {
        return Err(bad("SHADOW response length mismatch"));
    }
    let name = std::str::from_utf8(&body[3..fixed_at])
        .map_err(|_| bad("non-UTF-8 model name"))?
        .to_string();
    let permille = u16::from_le_bytes(body[fixed_at..fixed_at + 2].try_into().expect("sized"));
    let at = fixed_at + 2;
    let mirrored = u64::from_le_bytes(body[at..at + 8].try_into().expect("sized"));
    let agree = u64::from_le_bytes(body[at + 8..at + 16].try_into().expect("sized"));
    let disagree = u64::from_le_bytes(body[at + 16..at + 24].try_into().expect("sized"));
    Ok(ShadowReport {
        active,
        name,
        permille,
        mirrored,
        agree,
        disagree,
    })
}

/// Encodes an ERROR response body with a message.
pub fn encode_error_response(msg: &str) -> Vec<u8> {
    let bytes = msg.as_bytes();
    let mut out = Vec::with_capacity(5 + bytes.len());
    out.push(STATUS_ERROR);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Prepends the request id to a response body, producing the full wire
/// payload.
pub fn tag_response(id: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Decodes a response payload into its request id and response.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on an unknown status byte or a
/// truncated body.
pub fn decode_response(payload: &[u8]) -> io::Result<(u32, InferResponse)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if payload.len() < 5 {
        return Err(bad("truncated response"));
    }
    let id = u32::from_le_bytes(payload[..4].try_into().expect("sized"));
    let body = &payload[4..];
    let resp = match body[0] {
        STATUS_OK => {
            if body.len() < 9 {
                return Err(bad("truncated OK response"));
            }
            let top1 = u32::from_le_bytes(body[1..5].try_into().expect("sized"));
            let n = u32::from_le_bytes(body[5..9].try_into().expect("sized")) as usize;
            if body.len() != 9 + 4 * n {
                return Err(bad("logit count mismatch"));
            }
            let logits = body[9..]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("sized")))
                .collect();
            InferResponse::Ok { top1, logits }
        }
        STATUS_OVERLOADED => InferResponse::Overloaded,
        STATUS_DRAINING => InferResponse::Draining,
        STATUS_RELOADED => InferResponse::Reloaded,
        STATUS_UNLOADED => InferResponse::Unloaded,
        STATUS_DEADLINE => InferResponse::DeadlineExceeded,
        STATUS_LIST => InferResponse::ModelList(decode_list_body(body)?),
        STATUS_SHADOW => InferResponse::Shadow(decode_shadow_body(body)?),
        STATUS_ERROR => {
            if body.len() < 5 {
                return Err(bad("truncated ERROR response"));
            }
            let n = u32::from_le_bytes(body[1..5].try_into().expect("sized")) as usize;
            if body.len() != 5 + n {
                return Err(bad("message length mismatch"));
            }
            InferResponse::Error(String::from_utf8_lossy(&body[5..]).into_owned())
        }
        _ => return Err(bad("unknown response status")),
    };
    Ok((id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_preserves_id_and_tensor_bits() {
        let t = Tensor::from_vec(
            vec![0.5, -1.25, f32::MIN_POSITIVE, 3.0e8, -0.0, 7.0],
            &[2, 3],
        )
        .unwrap();
        let enc = encode_infer_request(0xdead_beef, &t);
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
        let enc = encode_infer_request_for(7, "tenant-a/vits-w4a8", &t);
        let (id, _meta, model, dec) = decode_infer_request(&enc).unwrap();
        assert_eq!(id, 7);
        assert_eq!(model, "tenant-a/vits-w4a8");
        assert_eq!(dec.data(), t.data());
        // A truncated name is rejected structurally.
        let mut short = encode_infer_request_for(7, "model", &t);
        short.truncate(14);
        assert!(decode_infer_request(&short).is_err());
        // Non-UTF-8 name bytes are rejected (an empty tenant puts the
        // name at byte 12: header 11 + name_len byte).
        let mut bad = encode_infer_request_for(7, "ab", &t);
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
        let mut bad = encode_infer_request(1, &t);
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
            let enc = encode_shadow_request(17, &cmd);
            assert_eq!(request_id(&enc), 17);
            assert_eq!(decode_shadow_request(&enc).unwrap(), (17, cmd));
        }
        assert!(decode_shadow_request(&[]).is_err());
        assert!(decode_shadow_request(&[OP_SHADOW, 0, 0, 0, 0, 9]).is_err()); // unknown action
        let mut extra = encode_shadow_request(1, &ShadowCmd::Promote);
        extra.push(0);
        assert!(decode_shadow_request(&extra).is_err());
        let mut short = encode_shadow_request(
            1,
            &ShadowCmd::Set {
                name: "cand".into(),
                permille: 250,
            },
        );
        short.pop();
        assert!(decode_shadow_request(&short).is_err());

        let report = ShadowReport {
            active: true,
            name: "cand".into(),
            permille: 250,
            mirrored: 400,
            agree: 399,
            disagree: 1,
        };
        match decode_response(&tag_response(8, &encode_shadow_response(&report))).unwrap() {
            (8, InferResponse::Shadow(got)) => assert_eq!(got, report),
            other => panic!("{other:?}"),
        }
        let mut body = encode_shadow_response(&report);
        body.pop();
        assert!(decode_response(&tag_response(8, &body)).is_err());
    }

    #[test]
    fn load_unload_list_requests_roundtrip_and_reject_malformed() {
        let enc = encode_load_request(11, "b", "/tmp/b.quqm");
        assert_eq!(
            decode_load_request(&enc).unwrap(),
            (11, "b".to_string(), "/tmp/b.quqm".to_string())
        );
        assert!(decode_load_request(&[]).is_err());
        let mut short = encode_load_request(11, "b", "/tmp/b.quqm");
        short.pop();
        assert!(decode_load_request(&short).is_err());

        let enc = encode_unload_request(12, "b");
        assert_eq!(decode_unload_request(&enc).unwrap(), (12, "b".to_string()));
        let mut extra = encode_unload_request(12, "b");
        extra.push(0);
        assert!(decode_unload_request(&extra).is_err());

        assert_eq!(encode_list_request(13), vec![OP_LIST, 13, 0, 0, 0]);
        assert_eq!(request_id(&encode_list_request(13)), 13);
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
        match decode_response(&tag_response(5, &encode_list_response(&snap))).unwrap() {
            (5, InferResponse::ModelList(got)) => assert_eq!(got, snap),
            other => panic!("{other:?}"),
        }
        // Empty registry is representable.
        let empty = RegistrySnapshot::default();
        match decode_response(&tag_response(6, &encode_list_response(&empty))).unwrap() {
            (6, InferResponse::ModelList(got)) => assert_eq!(got, empty),
            other => panic!("{other:?}"),
        }
        // Truncated LIST bodies are rejected, not mis-read.
        let mut body = encode_list_response(&snap);
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
            assert_eq!(
                decode_response(&tag_response(7, &encode_status_response(status))).unwrap(),
                (7, want)
            );
        }
        assert_eq!(
            decode_response(&tag_response(1, &encode_error_response("boom"))).unwrap(),
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
        let mut short = encode_infer_request(1, &Tensor::from_vec(vec![1.0; 6], &[2, 3]).unwrap());
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
}
