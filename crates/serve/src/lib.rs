//! `quq-serve`: an event-loop TCP inference server with dynamic batching
//! over the QUQ integer runtime.
//!
//! The offline stack evaluates datasets; this crate serves individual
//! requests:
//!
//! * a **length-prefixed TCP protocol** ([`protocol`], version 4) — image
//!   tensor in, logits + top-1 out — where every request carries a `u32`
//!   id that its response echoes, so one connection can pipeline many
//!   requests and take the answers out of order, an optional model
//!   name (empty = the default model) routing it through the registry,
//!   and SLO metadata: a priority [`Class`] (`interactive`/`batch`), an
//!   optional relative deadline, and a tenant id;
//! * a **readiness-driven front end** (`reactor`): a few epoll-based
//!   reactor threads own *all* client sockets, keeping one
//!   [`FrameDecoder`] per connection so a request that trickles in over
//!   many reads (a slow client) is reassembled byte-for-byte instead of
//!   desyncing the stream, and a connection whose outgoing backlog
//!   reaches [`ServeConfig::write_high_water`] stops being *read* until
//!   the client drains its responses, so a never-reading pipelined
//!   client cannot grow server memory;
//! * an **SLO-aware scheduler** ([`sched`]) as the bounded admission
//!   queue: interactive strictly ahead of batch, round-robin across
//!   tenants within a class, per-tenant token-bucket quotas
//!   ([`ServeConfig::tenant_rate`]), class-aware shedding (batch before
//!   interactive, over-quota tenants first — an arriving better-standing
//!   request *displaces* a worse-standing one at capacity),
//!   work-conserving batching (a request that finds the workers idle
//!   ships at once; the `max_wait` window opens only under load), and
//!   deadline-aware flushing that ships a partial batch early when the
//!   oldest admitted deadline approaches instead of waiting out the
//!   window;
//! * **shadow/canary routing** on the registry: a configurable fraction
//!   of default-model traffic is mirrored to a candidate model *after*
//!   the primary replies are sent, top-1 agreement is tallied in
//!   `shadow.agree`/`shadow.disagree` counters, and the admin `SHADOW`
//!   message ([`Client::shadow_set`], [`Client::shadow_promote`],
//!   [`Client::shadow_abort`], [`Client::shadow_status`]) arms, promotes,
//!   or aborts the canary live;
//! * a **worker shard** ([`server`]) where each worker runs whole batches
//!   through [`VitModel::forward_batch`](quq_vit::VitModel::forward_batch)
//!   on a backend built by a shared [`BackendProvider`] — integer workers
//!   share one weight-decode cache, so batching amortizes QUB decode
//!   exactly as the paper's accelerator amortizes its on-chip weight
//!   buffer;
//! * **graceful shutdown**: new connections refused, every admitted
//!   request completed and its response flushed, all threads joined;
//! * a **multi-model registry** ([`registry`]) over the `quq-store`
//!   artifact format: [`server::artifact_state`] cold-starts a served
//!   model from a QUQM file without synthesis or calibration; the admin
//!   `LOAD`/`UNLOAD`/`LIST` messages ([`Client::load`],
//!   [`Client::unload`], [`Client::list`], or [`Server::admin`] in
//!   process) register, drop, and inspect named models live, and refuse
//!   with a typed [`ServeError`]; a `LOAD` of the empty name hot-swaps the default
//!   — in-flight requests finish on the old model. Residency is
//!   bounded by [`ServeConfig::max_resident_bytes`]: LRU models are
//!   evicted past the budget and lazily — bit-identically — reloaded
//!   from their artifact on the next request.
//!
//! Batching and pipelining change *when* requests are computed, never
//! *what*: the batched forward is bit-identical to per-image forwards, so
//! a client cannot tell (except by latency) how its request was batched
//! or which reactor carried it.
//!
//! ```no_run
//! use std::sync::Arc;
//! use quq_serve::{Client, Fp32Provider, ServeConfig, Server};
//! use quq_vit::{ModelConfig, VitModel};
//!
//! let model = Arc::new(VitModel::synthesize(ModelConfig::test_config(), 42));
//! let server = Server::start(
//!     Arc::clone(&model),
//!     Arc::new(Fp32Provider),
//!     ServeConfig::default(),
//!     "127.0.0.1:0", // ephemeral port
//! )?;
//! let mut client = Client::connect(server.local_addr())?;
//!
//! // One at a time…
//! let reply = client.infer(&model.config().dummy_image(0.3))?;
//!
//! // …or pipelined: several in flight, matched to answers by id.
//! let a = client.send_infer(&model.config().dummy_image(0.1))?;
//! let b = client.send_infer(&model.config().dummy_image(0.2))?;
//! let (first_id, _resp) = client.recv_response()?;
//! assert!(first_id == a || first_id == b);
//! let _ = client.recv_response()?;
//! server.shutdown(); // drains, then joins
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
pub mod error;
pub mod framing;
pub mod poller;
pub mod protocol;
pub(crate) mod reactor;
pub mod registry;
pub mod sched;
pub mod server;
pub mod sys;

pub use client::{Client, ClientBuilder};
pub use error::ServeError;
pub use framing::{FrameDecoder, WriteBuf};
pub use protocol::{
    AdminOp, Class, InferOptions, InferResponse, ModelEntry, RegistrySnapshot, Request, ShadowCmd,
    ShadowReport,
};
pub use registry::DEFAULT_MODEL;
pub use sched::{Admission, Admitted, Batch, PushError, SchedConfig, Scheduler};
pub use server::{
    artifact_state, state_from_artifact, BackendProvider, Fp32Provider, ModelState, ServeConfig,
    Server,
};
