//! The readiness-driven event-loop front end: one (or a few) reactor
//! threads own *all* client sockets behind an epoll [`Poller`].
//!
//! Every connection owns a [`FrameDecoder`](crate::framing::FrameDecoder)
//! that keeps partial bytes across readiness events, so no timeout can
//! shear a frame (see [`crate::framing`]).
//!
//! ## Shape
//!
//! ```text
//!                 ┌────────────── reactor thread ──────────────┐
//! accept ─▶ conns │ epoll wait ─▶ read ─▶ FrameDecoder ─▶ push │──▶ Scheduler
//!                 │     ▲                                      │      │
//!                 │   waker ◀── completions (id-tagged) ◀──────│◀─ workers
//!                 │     └──▶ WriteBuf ─▶ non-blocking write    │  forward_batch
//!                 └────────────────────────────────────────────┘
//! ```
//!
//! Each frame is decoded once, by
//! [`Request::decode`](crate::protocol::Request::decode). Requests carry
//! an id, so one connection may keep many in flight and receive responses
//! out of order — whichever micro-batch finishes first replies first.
//! INFER requests enter the bounded SLO-aware
//! [`Scheduler`](crate::sched::Scheduler): admission control (shed with
//! `OVERLOADED`, or displace a lower-standing queued request),
//! class/tenant-fair micro-batching, drain on shutdown. Admin requests run
//! through the one admin executor the in-process
//! [`Server::admin`](crate::Server::admin) also runs.
//!
//! ## Write-backlog backpressure
//!
//! Responses queue on a per-connection [`WriteBuf`]; a pipelining client
//! that never reads its responses would grow that buffer without bound.
//! Once a connection's backlog crosses
//! [`ServeConfig::write_high_water`](crate::ServeConfig::write_high_water)
//! the reactor drops the connection's read interest (and stops decoding
//! buffered frames) until the backlog drains below half the mark; frames
//! that finished decoding while paused are dispatched on unpause.
//!
//! Workers never touch sockets: they return id-free response bodies
//! through a completion channel; the reactor tags each body with its
//! request id and queues it on the owning connection's buffered
//! non-blocking writer.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use quq_obs::SiteKey;

use crate::error::ServeError;
use crate::framing::{FrameDecoder, WriteBuf};
use crate::poller::{Event, Interest, Poller, Waker};
use crate::protocol::{request_id, tag_response, AdminOp, InferResponse, Request};
use crate::registry::{resolve_name, Admit};
use crate::sched::PushError;
use crate::server::{admin, answer_displaced, check_shape, flow_label, Job, Reply, Shared};

/// Metrics site for LOAD, which runs on a side thread rather than a
/// backend worker.
const ADMIN_SITE: &str = "admin";

/// Poller token of the (reactor-0-owned) listener.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the reactor's waker eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Cap on socket reads per connection per tick (× 16 KiB chunks), so one
/// firehose client cannot starve its siblings; level-triggered epoll
/// re-reports whatever is left.
const MAX_READS_PER_TICK: usize = 16;

/// How long a finalizing reactor keeps trying to flush buffered replies
/// to slow readers before giving up and closing.
const FINAL_FLUSH_DEADLINE: Duration = Duration::from_secs(5);

/// One finished request travelling back from a worker (or a LOAD
/// thread) to the reactor that owns its connection.
pub(crate) struct Completion {
    /// Token of the owning connection.
    pub token: u64,
    /// The request id to tag the response with.
    pub id: u32,
    /// Response body (status byte onward, id-free).
    pub body: Vec<u8>,
    /// Admission timestamp, for the `serve.e2e` histogram.
    pub t0: Instant,
    /// Metrics site (the provider name at admission).
    pub site: &'static str,
    /// `class:tenant` site for the per-flow `serve.e2e` record; empty
    /// for admin completions.
    pub flow: String,
}

/// Cloneable sender half of a reactor's completion channel; every send
/// wakes the reactor (coalesced by [`Waker`]).
#[derive(Clone)]
pub(crate) struct CompletionSender {
    tx: mpsc::Sender<Completion>,
    waker: Arc<Waker>,
}

impl CompletionSender {
    pub(crate) fn send(&self, c: Completion) {
        // A reactor that already exited makes this a no-op; nothing to do.
        let _ = self.tx.send(c);
        self.waker.wake();
    }
}

/// Per-connection state machine: stateful frame decode in, buffered
/// frame flush out, and enough accounting to close exactly when the last
/// in-flight response has been delivered.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: WriteBuf,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Requests admitted (or loading) whose response has not yet come
    /// back from a worker.
    inflight: usize,
    /// The peer shut its write side; serve what's in flight, then close.
    peer_closed: bool,
    /// Protocol-fatal or draining: flush `out`, then close.
    close_after_flush: bool,
    /// Reads are paused: `out` crossed the write-backlog high-water mark
    /// (a pipelining client that never reads its responses). Cleared — and
    /// already-decoded frames dispatched — once the backlog drains below
    /// the low-water mark.
    paused: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: WriteBuf::new(),
            interest: Interest::READ,
            inflight: 0,
            peer_closed: false,
            close_after_flush: false,
            paused: false,
        }
    }

    /// Queues `response` for request `id`.
    fn reply(&mut self, id: u32, response: &InferResponse) {
        self.out
            .enqueue_frame(&tag_response(id, &response.encode()));
    }
}

/// Everything the [`Server`](crate::Server) needs to keep about a spawned
/// reactor: how to hand it sockets and how to wake it.
pub(crate) struct ReactorHandle {
    pub inject: mpsc::Sender<TcpStream>,
    pub waker: Arc<Waker>,
}

/// One reactor thread's state. Reactor 0 additionally owns the listener
/// and deals accepted sockets round-robin across all reactors.
pub(crate) struct Reactor {
    index: usize,
    poller: Poller,
    waker: Arc<Waker>,
    shared: Arc<Shared>,
    listener: Option<TcpListener>,
    comp_tx: CompletionSender,
    comp_rx: mpsc::Receiver<Completion>,
    inject_rx: mpsc::Receiver<TcpStream>,
    /// Socket-dealing targets (reactor 0 only; includes a self slot).
    peers: Vec<(mpsc::Sender<TcpStream>, Arc<Waker>)>,
    next_peer: usize,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// When finalization was first observed (flush deadline anchor).
    finalize_since: Option<Instant>,
}

impl Reactor {
    /// Builds the poller/waker/channel plumbing for reactor `index`.
    /// Returns the reactor (to be moved into its thread) and the handle
    /// the server keeps.
    pub(crate) fn new(index: usize, shared: Arc<Shared>) -> io::Result<(Reactor, ReactorHandle)> {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, TOKEN_WAKER)?;
        let (comp_tx_raw, comp_rx) = mpsc::channel();
        let (inject_tx, inject_rx) = mpsc::channel();
        let completions = CompletionSender {
            tx: comp_tx_raw,
            waker: Arc::clone(&waker),
        };
        let reactor = Reactor {
            index,
            poller,
            waker: Arc::clone(&waker),
            shared,
            listener: None,
            comp_tx: completions,
            comp_rx,
            inject_rx,
            peers: Vec::new(),
            next_peer: 0,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            finalize_since: None,
        };
        let handle = ReactorHandle {
            inject: inject_tx,
            waker,
        };
        Ok((reactor, handle))
    }

    /// Gives reactor 0 the listener and the full dealing table.
    pub(crate) fn adopt_listener(
        &mut self,
        listener: TcpListener,
        peers: Vec<(mpsc::Sender<TcpStream>, Arc<Waker>)>,
    ) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.poller
            .register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        self.listener = Some(listener);
        self.peers = peers;
        Ok(())
    }

    /// The event loop. Runs until shutdown has been finalized and every
    /// deliverable reply has been flushed (or the flush deadline passes).
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut touched: Vec<u64> = Vec::new();
        loop {
            let finalizing = self.shared.finalize.load(Ordering::SeqCst);
            if finalizing && self.finalize_since.is_none() {
                self.finalize_since = Some(Instant::now());
            }
            let timeout = self.finalize_since.map(|_| Duration::from_millis(20));
            if self.poller.wait(&mut events, timeout).is_err() {
                return; // poller itself failed: nothing recoverable
            }

            touched.clear();
            let mut accept_ready = false;
            let mut woken = false;
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => woken = true,
                    token => {
                        self.conn_event(token, ev);
                        touched.push(token);
                    }
                }
            }
            if woken {
                self.waker.clear();
            }
            if accept_ready {
                self.accept_ready(&mut touched);
            }
            // Channels are drained every tick: wakeups coalesce, so one
            // event may cover many messages (or a message may arrive with
            // a socket event already pending).
            while let Ok(stream) = self.inject_rx.try_recv() {
                if let Some(token) = self.add_conn(stream) {
                    touched.push(token);
                }
            }
            while let Ok(c) = self.comp_rx.try_recv() {
                touched.push(c.token);
                self.complete(c);
            }

            // Shutdown begins: close the listener so the OS refuses new
            // connections from here on.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                if let Some(l) = self.listener.take() {
                    self.poller.deregister(l.as_raw_fd());
                }
            }

            touched.sort_unstable();
            touched.dedup();
            for &token in &touched {
                self.sweep(token);
            }

            if let Some(since) = self.finalize_since {
                // Workers have exited and the completion channel has been
                // drained into the write buffers; leave once every reply
                // has been flushed, or stop humouring slow readers.
                let all_flushed = self
                    .conns
                    .values()
                    .all(|c| c.out.is_empty() && c.inflight == 0);
                if all_flushed || since.elapsed() > FINAL_FLUSH_DEADLINE {
                    return;
                }
            }
        }
    }

    /// Accepts until the listener would block, dealing sockets
    /// round-robin across reactors.
    fn accept_ready(&mut self, touched: &mut Vec<u64>) {
        loop {
            let accepted = match self.listener.as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    quq_obs::add("serve.conns_opened", 1);
                    let slot = if self.peers.is_empty() {
                        self.index
                    } else {
                        let s = self.next_peer % self.peers.len();
                        self.next_peer = self.next_peer.wrapping_add(1);
                        s
                    };
                    if slot == self.index {
                        if let Some(token) = self.add_conn(stream) {
                            touched.push(token);
                        }
                    } else {
                        let (tx, waker) = &self.peers[slot];
                        if tx.send(stream).is_ok() {
                            waker.wake();
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Transient accept failures (e.g. EMFILE, ECONNABORTED):
                // drop this readiness round; level-triggering retries.
                Err(_) => return,
            }
        }
    }

    /// Registers a freshly accepted socket as a connection.
    fn add_conn(&mut self, stream: TcpStream) -> Option<u64> {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return None;
        }
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return None;
        }
        self.conns.insert(token, Conn::new(stream));
        Some(token)
    }

    /// Handles readiness on one connection: drain readable bytes through
    /// the frame decoder, dispatching every complete frame. (Flushing and
    /// closing happen in [`Reactor::sweep`] once the tick's work is in.)
    fn conn_event(&mut self, token: u64, ev: &Event) {
        let mut fatal = false;
        if ev.readable {
            for _ in 0..MAX_READS_PER_TICK {
                let n = {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return; // already closed this tick
                    };
                    if conn.close_after_flush || conn.peer_closed || conn.paused {
                        break;
                    }
                    match conn.decoder.read_from(&mut conn.stream) {
                        Ok(n) => {
                            if n == 0 {
                                conn.peer_closed = true;
                            }
                            n
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            fatal = true;
                            break;
                        }
                    }
                };
                // Dispatch every frame the new bytes completed — including
                // frames that were fully buffered when the peer half-closed
                // (a pipelining client may send its burst and immediately
                // shut write).
                if self.drain_decoded(token) {
                    fatal = true;
                    break;
                }
                if n == 0 {
                    break;
                }
            }
        }
        if fatal {
            self.close(token);
            return;
        }
        if ev.closed {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.peer_closed = true;
            }
        }
    }

    /// Dispatches every frame already sitting decoded in `token`'s
    /// [`FrameDecoder`], pausing (and leaving the rest buffered) if the
    /// connection's write backlog crosses the high-water mark. Called
    /// from the read path *and* on unpause — frames buffered while paused
    /// would otherwise never be dispatched, since no further socket
    /// readability event fires for bytes that were already read.
    ///
    /// Returns `true` on a fatal framing error (hostile length prefix).
    fn drain_decoded(&mut self, token: u64) -> bool {
        let shared = Arc::clone(&self.shared);
        let comp = self.comp_tx.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        loop {
            if conn.close_after_flush {
                return false;
            }
            if conn.out.len() >= shared.write_high_water {
                if !conn.paused {
                    conn.paused = true;
                    shared.write_pauses.fetch_add(1, Ordering::Relaxed);
                    quq_obs::add("serve.write_pauses", 1);
                }
                return false;
            }
            match conn.decoder.next_frame() {
                Ok(Some(frame)) => {
                    handle_frame(&shared, &comp, token, conn, &frame);
                    shared.note_backlog(conn.out.len());
                }
                Ok(None) => return false,
                // Hostile length prefix: the stream is unrecoverable.
                Err(_) => return true,
            }
        }
    }

    /// Delivers one worker completion to its connection.
    fn complete(&mut self, c: Completion) {
        let dt = c.t0.elapsed().as_nanos() as u64;
        quq_obs::record_at("serve.e2e", || SiteKey::global(c.site), dt);
        if !c.flow.is_empty() {
            // Second record under the `class:tenant` site, so per-flow
            // latency is attributable without losing the per-provider view.
            quq_obs::record_at("serve.e2e", || SiteKey::global(c.flow.clone()), dt);
        }
        if let Some(conn) = self.conns.get_mut(&c.token) {
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.out.enqueue_frame(&tag_response(c.id, &c.body));
            self.shared.note_backlog(conn.out.len());
        }
        // A vanished connection simply discards the reply — the client is
        // gone; the work was already done.
    }

    /// Post-event bookkeeping for one connection: opportunistic flush,
    /// close-when-done, and poller interest reconciliation.
    fn sweep(&mut self, token: u64) {
        let flush_failed = match self.conns.get_mut(&token) {
            None => return,
            Some(conn) if !conn.out.is_empty() => conn.out.flush_to(&mut conn.stream).is_err(),
            Some(_) => false,
        };
        if flush_failed {
            self.close(token);
            return;
        }
        // Backlog hysteresis. Pause reads when completions alone pushed
        // the backlog over the high-water mark; unpause once the flush
        // drained it to the low-water mark (half of high). On unpause,
        // frames that finished decoding while paused must be dispatched
        // here — no readability event will ever re-announce them.
        let high = self.shared.write_high_water;
        let mut resumed = false;
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.paused {
                if conn.out.len() <= high / 2 {
                    conn.paused = false;
                    resumed = true;
                }
            } else if conn.out.len() >= high {
                conn.paused = true;
                self.shared.write_pauses.fetch_add(1, Ordering::Relaxed);
                quq_obs::add("serve.write_pauses", 1);
            }
        }
        if resumed && self.drain_decoded(token) {
            self.close(token);
            return;
        }
        let mut done = false;
        let mut modify: Option<(std::os::fd::RawFd, Interest)> = None;
        if let Some(conn) = self.conns.get_mut(&token) {
            let done_writing = conn.out.is_empty();
            // Both arms require inflight == 0: a close_after_flush marked
            // connection (e.g. answered DRAINING) may still be owed
            // replies to requests admitted *before* the drain began —
            // closing on an empty buffer alone would drop them.
            if done_writing && conn.inflight == 0 && (conn.close_after_flush || conn.peer_closed) {
                done = true;
            } else {
                let want = Interest {
                    readable: !conn.close_after_flush && !conn.peer_closed && !conn.paused,
                    writable: !done_writing,
                };
                if want != conn.interest {
                    conn.interest = want;
                    modify = Some((conn.stream.as_raw_fd(), want));
                }
            }
        }
        if done {
            self.close(token);
        } else if let Some((fd, want)) = modify {
            let _ = self.poller.modify(fd, token, want);
        }
    }

    /// Deregisters and drops a connection.
    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(conn.stream.as_raw_fd());
            quq_obs::add("serve.conns_closed", 1);
        }
    }
}

/// Dispatches one frame on `conn`. The frame is decoded once; a frame
/// that does not decode is answered ERROR here, tagged with its id (0 if
/// it has none). INFER goes to admission, LOAD to a side thread (artifact
/// loads must never stall the reactor), and the other admin operations
/// are answered inline. Every reply is tagged with the request's id.
fn handle_frame(
    shared: &Arc<Shared>,
    comp: &CompletionSender,
    token: u64,
    conn: &mut Conn,
    frame: &[u8],
) {
    let t0 = Instant::now();
    let (id, request) = match Request::decode(frame) {
        Ok(decoded) => decoded,
        Err(e) => return conn.reply(request_id(frame), &InferResponse::Error(e.to_string())),
    };
    match request {
        Request::Infer { meta, model, image } => {
            let name = resolve_name(&model);
            let site = match shared.registry.admit(name) {
                Admit::Unknown => Err(ServeError::UnknownModel(name.to_string())),
                // Validate the shape up front so one malformed request
                // can never fail a whole batch inside the worker.
                Admit::Resident(state) => {
                    check_shape(&state, &image).map(|()| state.provider.name())
                }
                // Evicted model: a worker lazily reloads it and validates
                // the shape there.
                Admit::Cold => Ok("cold-start"),
            };
            let site = match site {
                Ok(site) => site,
                Err(e) => return conn.reply(id, &e.into()),
            };
            let flow = flow_label(meta.class, &meta.tenant);
            let deadline = (meta.deadline_us > 0)
                .then(|| t0 + Duration::from_micros(u64::from(meta.deadline_us)));
            let job = Job {
                model: name.to_string(),
                image,
                reply: Reply::new(comp.clone(), token, id, t0, site, flow),
            };
            match shared.queue.push(job, meta.class, &meta.tenant, deadline) {
                Ok(admission) => {
                    conn.inflight += 1;
                    quq_obs::add("serve.accepted", 1);
                    quq_obs::record_at(
                        "serve.queue_depth",
                        || SiteKey::global(site),
                        admission.depth as u64,
                    );
                    // A displaced lower-standing request is answered
                    // OVERLOADED through its own Reply, which routes the
                    // completion back to whichever reactor/connection owns
                    // it (and decrements that connection's inflight).
                    if let Some(victim) = admission.displaced {
                        answer_displaced(victim);
                    }
                }
                Err(PushError::Full(job)) => {
                    // The front end answers; the bounced job's Reply must
                    // not ALSO answer as it drops.
                    job.reply.forget();
                    quq_obs::add("serve.shed", 1);
                    conn.reply(id, &InferResponse::Overloaded);
                }
                Err(PushError::Draining(job)) => {
                    job.reply.forget();
                    conn.reply(id, &InferResponse::Draining);
                    conn.close_after_flush = true;
                }
            }
        }
        Request::Admin(op @ AdminOp::Load { .. }) => {
            // The artifact open/verify/load can take tens of milliseconds
            // (or seconds for a big model) — never stall the reactor for
            // it. A one-off thread does the load and swap, then answers
            // through the normal completion path. The artifact is fully
            // loaded before the registry entry is touched, so inference
            // keeps flowing on the old model (the empty name is the
            // default) and a corrupt artifact leaves it serving.
            conn.inflight += 1;
            let shared = Arc::clone(shared);
            let comp = comp.clone();
            std::thread::Builder::new()
                .name("quq-serve-load".into())
                .spawn(move || {
                    // Built first, so a load that panics still answers.
                    let reply = Reply::new(comp, token, id, t0, ADMIN_SITE, String::new());
                    let response = admin(&shared, op).unwrap_or_else(InferResponse::from);
                    reply.send(response.encode());
                })
                .expect("spawn load thread");
        }
        // UNLOAD, LIST and SHADOW touch registry metadata and counters
        // only (PROMOTE copies one registry entry): answered inline.
        Request::Admin(op) => {
            conn.reply(id, &admin(shared, op).unwrap_or_else(InferResponse::from))
        }
    }
}
