//! A blocking client for the serve protocol, used by the benchmark, the
//! tests, and as the README example.
//!
//! The client keeps a [`FrameDecoder`] per connection, so a response that
//! arrives in dribs and drabs (or one that lands *after* a read timeout
//! fired) never desyncs the stream: partial bytes stay buffered and the
//! next read resumes exactly where the last one stopped.
//!
//! Every request carries a `u32` id and every response echoes it, which
//! buys three things:
//!
//! * **Timeout safety** — when [`Client::infer`] times out, the request's
//!   id is remembered as *stale*; if its response shows up later it is
//!   recognized and discarded instead of being returned as the answer to
//!   the *next* call (the classic off-by-one-response desync). The stale
//!   set is bounded ([`STALE_CAP`], FIFO eviction), so a long-lived
//!   client hammered by timeouts cannot leak memory through it.
//! * **Pipelining** — [`Client::send_infer`] / [`Client::recv_response`]
//!   let one connection keep many requests in flight and take responses
//!   in whatever order the server finishes them, matched by id.
//! * **Protocol integrity** — a response whose id was never sent (and is
//!   not stale) poisons the client: the stream can no longer be trusted
//!   to pair answers with questions, and every later call fails fast
//!   instead of silently returning someone else's logits.
//!
//! Multi-model servers are addressed with [`Client::infer_model`] (empty
//! name = the default model) and administered with [`Client::load`],
//! [`Client::unload`], and [`Client::list`]. Requests with SLO metadata
//! (priority class, deadline, tenant) go through [`Client::infer_with`],
//! and shadow/canary routing is administered with
//! [`Client::shadow_set`] / [`Client::shadow_promote`] /
//! [`Client::shadow_abort`] / [`Client::shadow_status`].
//!
//! The per-request receive timeout is configurable at construction via
//! [`Client::builder`] (or later via [`Client::set_timeout`]); by default
//! reads block indefinitely.

use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use quq_tensor::Tensor;

use crate::framing::FrameDecoder;
use crate::protocol::{
    decode_response, infer_payload, write_frame, AdminOp, InferOptions, InferResponse, Request,
    ShadowCmd,
};

/// Most stale (timed-out) request ids remembered at once. Beyond this the
/// oldest are forgotten — their late responses would then poison the
/// client instead of being silently discarded, which is the safe failure:
/// a bounded set can never become an unbounded leak.
pub const STALE_CAP: usize = 1024;

/// Configures and connects a [`Client`] — currently just the per-request
/// receive timeout, previously hard-coded by callers after `connect`.
///
/// ```no_run
/// use std::time::Duration;
/// use quq_serve::Client;
///
/// let client = Client::builder()
///     .timeout(Duration::from_secs(2))
///     .connect("127.0.0.1:7878")?;
/// # let _ = client;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct ClientBuilder {
    timeout: Option<Duration>,
}

impl ClientBuilder {
    /// Bounds how long each response read waits. Unset = block forever.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Connects with the configured options.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(self, addr: impl ToSocketAddrs) -> io::Result<Client> {
        let mut client = Client::connect(addr)?;
        client.set_timeout(self.timeout)?;
        Ok(client)
    }
}

/// A blocking connection to a [`crate::Server`].
///
/// The simple calls ([`Client::infer`], [`Client::load`]) put one
/// request in flight at a time; the [`Client::send_infer`] /
/// [`Client::recv_response`] pair pipelines many.
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_id: u32,
    /// Ids sent whose responses have not yet been taken.
    inflight: HashSet<u32>,
    /// Ids of requests that timed out: their late responses are discarded
    /// on sight rather than mistaken for a newer call's answer. Bounded
    /// by [`STALE_CAP`]; `stale_order` drives FIFO eviction.
    stale: HashSet<u32>,
    stale_order: VecDeque<u32>,
    /// Set on unrecoverable transport/protocol errors; every later call
    /// fails fast instead of reading garbage.
    poisoned: bool,
}

impl Client {
    /// Starts configuring a connection (receive timeout, …).
    #[must_use]
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            next_id: 1,
            inflight: HashSet::new(),
            stale: HashSet::new(),
            stale_order: VecDeque::new(),
            poisoned: false,
        })
    }

    /// Bounds how long response reads wait. A timeout expiring is
    /// *recoverable*: the connection stays usable and the late response
    /// is discarded when it eventually arrives.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn alloc_id(&mut self) -> u32 {
        let id = self.next_id;
        // Wrap past 0: id 0 is what request_id() reports for unparseable
        // frames, so never hand it out.
        self.next_id = self.next_id.checked_add(1).unwrap_or(1);
        id
    }

    fn check_usable(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "client poisoned by an earlier protocol error; reconnect",
            ));
        }
        Ok(())
    }

    /// Remembers a timed-out id, evicting the oldest beyond [`STALE_CAP`].
    fn mark_stale(&mut self, id: u32) {
        if self.stale.insert(id) {
            self.stale_order.push_back(id);
            while self.stale_order.len() > STALE_CAP {
                if let Some(evicted) = self.stale_order.pop_front() {
                    self.stale.remove(&evicted);
                }
            }
        }
    }

    /// Whether a read timeout (not a fatal error) interrupted the call.
    fn is_timeout(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }

    /// Allocates an id, encodes the request with it, sends it, and tracks
    /// it as in flight. All request paths funnel through here. A request
    /// that cannot be encoded (a field too long for its length prefix) is
    /// refused before anything is sent, and the connection stays usable.
    fn send_request(&mut self, build: impl FnOnce(u32) -> io::Result<Vec<u8>>) -> io::Result<u32> {
        self.check_usable()?;
        let id = self.alloc_id();
        let payload = build(id)?;
        if let Err(e) = write_frame(&mut self.stream, &payload) {
            self.poisoned = true;
            return Err(e);
        }
        self.inflight.insert(id);
        Ok(id)
    }

    /// Sends one admin operation and waits for its response.
    fn admin(&mut self, op: AdminOp) -> io::Result<InferResponse> {
        let request = Request::Admin(op);
        let id = self.send_request(|id| request.encode(id))?;
        self.wait_for(id)
    }

    /// Sends one image and waits for *its* verdict (matched by id).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a read timeout returns
    /// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`] and
    /// leaves the connection usable — the late response will be discarded.
    /// Other errors poison the client. Server-side conditions (overload,
    /// drain, backend failure) are `Ok` variants of [`InferResponse`].
    pub fn infer(&mut self, image: &Tensor) -> io::Result<InferResponse> {
        let id = self.send_infer(image)?;
        self.wait_for(id)
    }

    /// Like [`Client::infer`], against the named model (empty = default).
    ///
    /// # Errors
    ///
    /// As for [`Client::infer`].
    pub fn infer_model(&mut self, model: &str, image: &Tensor) -> io::Result<InferResponse> {
        let id = self.send_infer_model(model, image)?;
        self.wait_for(id)
    }

    /// Like [`Client::infer_model`], with explicit SLO metadata: priority
    /// class, optional relative deadline, and tenant id
    /// ([`InferOptions`]). A request whose deadline expires before a
    /// worker picks it up answers [`InferResponse::DeadlineExceeded`]
    /// without being computed.
    ///
    /// # Errors
    ///
    /// As for [`Client::infer`].
    pub fn infer_with(
        &mut self,
        model: &str,
        image: &Tensor,
        opts: &InferOptions,
    ) -> io::Result<InferResponse> {
        let id = self.send_infer_with(model, image, opts)?;
        self.wait_for(id)
    }

    /// Arms shadow routing: mirror `fraction` (0.0–1.0) of default-model
    /// traffic to candidate model `name`, tallying top-1 agreement.
    /// Returns [`InferResponse::Shadow`] with the reset counters.
    ///
    /// # Errors
    ///
    /// As for [`Client::infer`]; a fraction outside `[0, 1]` is
    /// [`io::ErrorKind::InvalidInput`].
    pub fn shadow_set(&mut self, name: &str, fraction: f64) -> io::Result<InferResponse> {
        self.admin(AdminOp::Shadow(ShadowCmd::set(name, fraction)?))
    }

    /// Promotes the armed shadow candidate to be the default model and
    /// disarms mirroring. Returns the final [`InferResponse::Shadow`]
    /// report, or [`InferResponse::Error`] if no shadow is armed.
    ///
    /// # Errors
    ///
    /// As for [`Client::infer`].
    pub fn shadow_promote(&mut self) -> io::Result<InferResponse> {
        self.admin(AdminOp::Shadow(ShadowCmd::Promote))
    }

    /// Disarms shadow routing without promoting. Returns the final
    /// [`InferResponse::Shadow`] report.
    ///
    /// # Errors
    ///
    /// As for [`Client::infer`].
    pub fn shadow_abort(&mut self) -> io::Result<InferResponse> {
        self.admin(AdminOp::Shadow(ShadowCmd::Abort))
    }

    /// Fetches the current shadow report ([`InferResponse::Shadow`])
    /// without changing anything.
    ///
    /// # Errors
    ///
    /// As for [`Client::infer`].
    pub fn shadow_status(&mut self) -> io::Result<InferResponse> {
        self.admin(AdminOp::Shadow(ShadowCmd::Status))
    }

    /// Asks the server to register and load model `name` from the QUQM
    /// artifact at `path` (on the server's filesystem); the empty name
    /// hot-swaps the default model. Returns [`InferResponse::Reloaded`]
    /// on success and [`InferResponse::Error`] when the artifact is
    /// rejected — a failed load leaves the served model untouched.
    ///
    /// # Errors
    ///
    /// As for [`Client::infer`]; a name over 255 bytes or a path over
    /// 65,535 bytes is [`io::ErrorKind::InvalidInput`], refused before
    /// anything is sent.
    pub fn load(&mut self, name: &str, path: &str) -> io::Result<InferResponse> {
        self.admin(AdminOp::Load {
            name: name.to_string(),
            path: path.to_string(),
        })
    }

    /// Asks the server to drop model `name` from its registry. Returns
    /// [`InferResponse::Unloaded`] on success and
    /// [`InferResponse::Error`] for unknown names.
    ///
    /// # Errors
    ///
    /// As for [`Client::infer`].
    pub fn unload(&mut self, name: &str) -> io::Result<InferResponse> {
        self.admin(AdminOp::Unload {
            name: name.to_string(),
        })
    }

    /// Fetches the server's model registry snapshot
    /// ([`InferResponse::ModelList`]).
    ///
    /// # Errors
    ///
    /// As for [`Client::infer`].
    pub fn list(&mut self) -> io::Result<InferResponse> {
        self.admin(AdminOp::List)
    }

    /// Pipelining: sends an infer request without waiting and returns its
    /// id. Pair with [`Client::recv_response`]; many may be in flight.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (which poison the client).
    pub fn send_infer(&mut self, image: &Tensor) -> io::Result<u32> {
        self.send_infer_with("", image, &InferOptions::default())
    }

    /// Pipelining: like [`Client::send_infer`], against a named model.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (which poison the client).
    pub fn send_infer_model(&mut self, model: &str, image: &Tensor) -> io::Result<u32> {
        self.send_infer_with(model, image, &InferOptions::default())
    }

    /// Pipelining: like [`Client::infer_with`] without waiting.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (which poison the client); a model name
    /// or tenant over 255 bytes is [`io::ErrorKind::InvalidInput`],
    /// refused before anything is sent.
    pub fn send_infer_with(
        &mut self,
        model: &str,
        image: &Tensor,
        opts: &InferOptions,
    ) -> io::Result<u32> {
        self.send_request(|id| infer_payload(id, model, image, opts))
    }

    /// Pipelining: blocks for the next response in *arrival* order —
    /// which may not be send order — and returns `(id, response)`.
    /// Responses to timed-out requests are silently discarded.
    ///
    /// # Errors
    ///
    /// As for [`Client::infer`]; additionally poisons on a response whose
    /// id was never sent (neither in flight nor stale).
    pub fn recv_response(&mut self) -> io::Result<(u32, InferResponse)> {
        self.check_usable()?;
        loop {
            let (id, resp) = self.next_decoded()?;
            if self.stale.remove(&id) {
                continue; // late answer to a timed-out request
            }
            if !self.inflight.remove(&id) {
                // A response nothing asked for: the stream can no longer
                // be trusted to pair answers with questions.
                self.poisoned = true;
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response for unknown request id {id}"),
                ));
            }
            return Ok((id, resp));
        }
    }

    /// Blocks until the response for `id` arrives, discarding stale
    /// frames. A timeout marks `id` stale and stays recoverable.
    fn wait_for(&mut self, id: u32) -> io::Result<InferResponse> {
        loop {
            let (rid, resp) = match self.next_decoded() {
                Ok(ok) => ok,
                Err(e) => {
                    if Self::is_timeout(&e) {
                        self.inflight.remove(&id);
                        self.mark_stale(id);
                    }
                    return Err(e);
                }
            };
            if rid == id {
                self.inflight.remove(&id);
                return Ok(resp);
            }
            if !self.stale.remove(&rid) {
                // A response nothing asked for: the stream can no longer
                // be trusted to pair answers with questions.
                self.poisoned = true;
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response for unknown request id {rid}"),
                ));
            }
        }
    }

    /// Reads (buffering partial bytes across timeouts) until one whole
    /// frame decodes.
    fn next_decoded(&mut self) -> io::Result<(u32, InferResponse)> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    return decode_response(&frame).inspect_err(|_| {
                        self.poisoned = true;
                    });
                }
                Ok(None) => {}
                Err(e) => {
                    self.poisoned = true;
                    return Err(e);
                }
            }
            match self.decoder.read_from(&mut self.stream) {
                Ok(0) => {
                    self.poisoned = true;
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed before replying",
                    ));
                }
                Ok(_) => {}
                Err(e) if Self::is_timeout(&e) => return Err(e),
                Err(e) => {
                    self.poisoned = true;
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_ok_response, tag_response};
    use std::net::TcpListener;

    /// A listener whose accepted socket is parked so the connection stays
    /// open (the peer never replies) until `done` is signalled.
    fn silent_server() -> (
        std::net::SocketAddr,
        std::sync::mpsc::Sender<()>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (done, wait) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let _conn = listener.accept();
            let _ = wait.recv(); // hold the socket open until signalled
        });
        (addr, done, handle)
    }

    #[test]
    fn stale_set_is_bounded_with_fifo_eviction() {
        let (addr, done, srv) = silent_server();
        let mut client = Client::connect(addr).expect("connect");
        let total = (3 * STALE_CAP) as u32;
        for id in 1..=total {
            client.mark_stale(id);
        }
        assert!(
            client.stale.len() <= STALE_CAP,
            "stale set leaked: {} ids",
            client.stale.len()
        );
        assert!(client.stale_order.len() <= STALE_CAP);
        // Newest ids survive; the oldest were evicted first.
        assert!(client.stale.contains(&total));
        assert!(client.stale.contains(&(total - STALE_CAP as u32 + 1)));
        assert!(!client.stale.contains(&1));
        assert!(!client.stale.contains(&(total - STALE_CAP as u32)));
        drop(client);
        drop(done);
        let _ = srv.join();
    }

    #[test]
    fn timed_out_requests_feed_the_bounded_stale_set() {
        let (addr, done, srv) = silent_server();
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_timeout(Some(Duration::from_millis(10)))
            .expect("timeout");
        let image = Tensor::zeros(&[1, 2, 2]);
        for _ in 0..3 {
            let err = client.infer(&image).expect_err("server never replies");
            assert!(Client::is_timeout(&err), "unexpected error: {err}");
        }
        assert_eq!(client.stale.len(), 3);
        assert!(client.inflight.is_empty(), "timed-out ids left in flight");
        // Still usable: timeouts are recoverable.
        assert!(client.check_usable().is_ok());
        drop(client);
        drop(done);
        let _ = srv.join();
    }

    #[test]
    fn an_over_long_load_path_is_refused_before_sending_and_keeps_the_client() {
        let (addr, done, srv) = silent_server();
        let mut client = Client::builder()
            .timeout(Duration::from_secs(5))
            .connect(addr)
            .expect("connect");
        // 70,000 bytes do not fit LOAD's u16 path length: a wrapped prefix
        // would send a frame the server can only answer with an error.
        let err = client
            .load("b", &"p".repeat(70_000))
            .expect_err("a path over 65,535 bytes cannot be encoded");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(client.inflight.is_empty(), "nothing was sent");
        assert!(client.check_usable().is_ok(), "the client is not poisoned");
        drop(client);
        drop(done);
        let _ = srv.join();
    }

    #[test]
    fn unknown_response_id_poisons_the_client() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let srv = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            // Consume the request, then answer with an id nothing sent.
            let mut dec = FrameDecoder::new();
            while dec.next_frame().expect("framed").is_none() {
                assert!(dec.read_from(&mut stream).expect("read") > 0);
            }
            let body = encode_ok_response(&[0.5, 0.25]);
            write_frame(&mut stream, &tag_response(0xDEAD_BEEF, &body)).expect("write");
            // Hold the socket open until the client is done asserting.
            let _ = dec.read_from(&mut stream);
        });
        let mut client = Client::connect(addr).expect("connect");
        let image = Tensor::zeros(&[1, 2, 2]);
        let _id = client.send_infer(&image).expect("send");
        let err = client
            .recv_response()
            .expect_err("forged response id must not be delivered");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Poisoned: every later call fails fast.
        let err = client.infer(&image).expect_err("poisoned client must fail");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        drop(client);
        let _ = srv.join();
    }
}
