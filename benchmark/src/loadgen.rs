//! The in-process load generator: one thread per connection, at most two
//! connections, so on a two-core host it measures the server and not the
//! scheduler underneath it.
//!
//! * [`closed_loop`] keeps a fixed number of requests in flight per
//!   connection through the library's own [`Client`].
//! * [`open_loop`] sends on a seeded schedule whatever the server does, and
//!   times every request from the moment it was *due*, so a stall is charged
//!   to the requests queued behind it. It reports how late it ran.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use quq_serve::poller::{Interest, Poller};
use quq_serve::protocol::{decode_response, encode_infer_request_with, write_frame};
use quq_serve::{Class, Client, FrameDecoder, InferOptions, InferResponse};
use quq_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::Oracle;
use crate::trace::{Tracer, REQUEST};
use crate::window::{Op, Window};

/// What a generator thread needs to judge and record a reply.
pub struct Target<'a> {
    pub addr: SocketAddr,
    /// The run's image pool; `oracle` holds the reference for each.
    pub images: &'a [Tensor],
    pub oracle: &'a Oracle,
    pub tracer: &'a Tracer,
}

impl Target<'_> {
    /// The `n`-th input of the run: its index in the pool, and the image.
    fn nth(&self, n: usize) -> (usize, &Tensor) {
        let index = n % self.images.len();
        (index, &self.images[index])
    }
}

/// The `trace` id of a served request: connection index and wire id.
fn trace_id(conn: usize, id: u32) -> u64 {
    (conn as u64) << 32 | u64::from(id)
}

/// What one connection's thread knows and collects; the tallies are
/// merged into one [`Window`] after the join.
struct Tally {
    /// When the window started.
    t0: Instant,
    conn: usize,
    flow: u8,
    /// Client-side latency limit; `None` = no limit.
    limit: Option<Duration>,
    ops: Vec<Op>,
    send_lag_ms: Vec<f64>,
    shed: u64,
    deadline: u64,
    error: Option<String>,
}

fn merge(window_ns: u64, tallies: Vec<Tally>, paced: bool) -> Window {
    let mut w = Window {
        window_ns,
        images_per_op: 1.0,
        paced,
        ..Window::default()
    };
    let (mut shed, mut deadline) = (0u64, 0u64);
    for t in tallies {
        w.ops.extend(t.ops);
        w.send_lag_ms.extend(t.send_lag_ms);
        shed += t.shed;
        deadline += t.deadline;
        w.error = w.error.or(t.error);
    }
    w.counts = vec![("shed", shed as f64), ("deadline", deadline as f64)];
    w
}

/// One request in flight.
struct Pending {
    /// Pool index of the image sent.
    index: usize,
    /// Issue time (closed loop) or due time (open loop).
    from: Instant,
}

impl Tally {
    fn new(t0: Instant, conn: usize, flow: u8, limit: Option<Duration>) -> Tally {
        Tally {
            t0,
            conn,
            flow,
            limit,
            ops: Vec::new(),
            send_lag_ms: Vec::new(),
            shed: 0,
            deadline: 0,
            error: None,
        }
    }

    fn since_start(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Judges one reply and records it as an operation.
    fn reply(
        &mut self,
        target: &Target<'_>,
        id: u32,
        pending: &Pending,
        resp: &InferResponse,
        arrived: Instant,
    ) {
        let (ok, refused) = match resp {
            InferResponse::Ok { logits, .. } => {
                (target.oracle.matches(pending.index, logits), false)
            }
            InferResponse::Overloaded => {
                self.shed += 1;
                (false, true)
            }
            InferResponse::DeadlineExceeded => {
                self.deadline += 1;
                (false, true)
            }
            _ => (false, false),
        };
        let latency = arrived.saturating_duration_since(pending.from);
        self.ops.push(Op {
            end_ns: self.since_start(arrived),
            at_ns: self.since_start(pending.from),
            latency_ms: latency.as_secs_f64() * 1e3,
            flow: self.flow,
            ok,
            refused,
            in_slo: ok && self.limit.is_none_or(|l| latency <= l),
        });
        let (span, trace) = (target.tracer.next_id(), trace_id(self.conn, id));
        target
            .tracer
            .record(span, 0, trace, REQUEST, pending.from, arrived);
    }

    /// A transport failure: everything still in flight failed.
    fn abort(&mut self, inflight: &HashMap<u32, Pending>, why: std::io::Error) {
        let now = Instant::now();
        for pending in inflight.values() {
            self.ops.push(Op {
                end_ns: self.since_start(now),
                at_ns: self.since_start(pending.from),
                latency_ms: now.saturating_duration_since(pending.from).as_secs_f64() * 1e3,
                flow: self.flow,
                ok: false,
                refused: false,
                in_slo: false,
            });
        }
        self.error = Some(format!("connection {}: {why}", self.conn));
    }
}

/// Closed loop: `conns` connections, each keeping `depth` requests in
/// flight until `window` has passed, then draining. Connection `c` sends
/// inputs `c, c + conns, …` of the run.
pub fn closed_loop(target: &Target<'_>, conns: usize, depth: usize, window: Duration) -> Window {
    let t0 = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| scope.spawn(move || closed_conn(target, t0, conn, conns, depth, window)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    merge(window.as_nanos() as u64, tallies, false)
}

fn closed_conn(
    target: &Target<'_>,
    t0: Instant,
    conn: usize,
    conns: usize,
    depth: usize,
    window: Duration,
) -> Tally {
    let mut tally = Tally::new(t0, conn, 0, None);
    let mut inflight: HashMap<u32, Pending> = HashMap::new();
    let mut run = || -> io::Result<()> {
        let mut client = Client::connect(target.addr)?;
        let mut next = conn;
        loop {
            while inflight.len() < depth && t0.elapsed() < window {
                let (index, image) = target.nth(next);
                next += conns;
                let from = Instant::now();
                let id = client.send_infer(image)?;
                inflight.insert(id, Pending { index, from });
            }
            if inflight.is_empty() {
                return Ok(());
            }
            let (id, resp) = client.recv_response()?;
            let arrived = Instant::now();
            let pending = inflight.remove(&id).expect("client only returns sent ids");
            tally.reply(target, id, &pending, &resp, arrived);
        }
    };
    if let Err(e) = run() {
        tally.abort(&inflight, e);
    }
    tally
}

/// One open-loop connection's traffic.
#[derive(Debug, Clone)]
pub struct Flow {
    pub class: Class,
    pub tenant: &'static str,
    /// Server-side deadline carried on the wire.
    pub deadline: Option<Duration>,
    /// Client-side latency limit, from due time; `None` = no limit.
    pub limit: Option<Duration>,
    pub per_second: f64,
}

/// Arrival offsets of a Poisson process of `per_second` over `window`,
/// conditioned on its count: exactly `round(rate × window)` arrivals,
/// placed independently and uniformly, sorted. Every seed therefore offers
/// the same number of requests, and the same seed the same schedule.
pub fn poisson_schedule(seed: u64, per_second: f64, window: Duration) -> Vec<Duration> {
    let n = (per_second * window.as_secs_f64()).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at: Vec<Duration> = (0..n).map(|_| window.mul_f64(rng.gen::<f64>())).collect();
    at.sort_unstable();
    at
}

/// Below this wait the thread sleeps on the clock instead of in `epoll`,
/// whose millisecond timeout would overshoot the due time.
const POLL_FLOOR: Duration = Duration::from_micros(1500);

/// Longest a drained schedule waits for its last replies.
const DRAIN_GUARD: Duration = Duration::from_secs(10);

/// Open loop: one connection per flow, each sending on its own seeded
/// schedule for `window`, then waiting for the replies still out. Flow 0
/// is the window's primary flow.
pub fn open_loop(target: &Target<'_>, flows: &[Flow], seed: u64, window: Duration) -> Window {
    // Both threads are parked on their first due time before any is due.
    let t0 = Instant::now() + Duration::from_millis(20);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = flows
            .iter()
            .enumerate()
            .map(|(conn, flow)| {
                let schedule =
                    poisson_schedule(seed ^ ((conn as u64 + 1) << 32), flow.per_second, window);
                scope.spawn(move || open_conn(target, t0, conn, flows.len(), flow, &schedule))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread"))
            .collect()
    });
    merge(window.as_nanos() as u64, tallies, true)
}

fn open_conn(
    target: &Target<'_>,
    t0: Instant,
    conn: usize,
    conns: usize,
    flow: &Flow,
    schedule: &[Duration],
) -> Tally {
    let mut tally = Tally::new(t0, conn, conn as u8, flow.limit);
    let mut inflight: HashMap<u32, Pending> = HashMap::new();
    let opts = InferOptions {
        class: flow.class,
        deadline: flow.deadline,
        tenant: flow.tenant.to_string(),
    };
    let mut run = || -> io::Result<()> {
        let mut stream = TcpStream::connect(target.addr)?;
        stream.set_nodelay(true)?;
        // The socket stays blocking: writes always complete, and a read is
        // only issued after epoll reported bytes, so it never waits.
        let poller = Poller::new()?;
        poller.register(stream.as_raw_fd(), 0, Interest::READ)?;
        let mut decoder = FrameDecoder::new();
        let mut events = Vec::new();
        let mut next = 0usize;
        loop {
            while next < schedule.len() && t0 + schedule[next] <= Instant::now() {
                let due = t0 + schedule[next];
                let id = next as u32 + 1;
                let (index, image) = target.nth(conn + next * conns);
                let sent = Instant::now();
                let request = encode_infer_request_with(id, "", image, &opts);
                write_frame(&mut stream, &request)?;
                let lag = sent.saturating_duration_since(due);
                tally.send_lag_ms.push(lag.as_secs_f64() * 1e3);
                inflight.insert(id, Pending { index, from: due });
                next += 1;
            }
            let wait = match schedule.get(next) {
                Some(&at) => (t0 + at).saturating_duration_since(Instant::now()),
                None if inflight.is_empty() => return Ok(()),
                None => DRAIN_GUARD,
            };
            if wait < POLL_FLOOR {
                std::thread::sleep(wait);
                continue;
            }
            poller.wait(&mut events, Some(wait - Duration::from_millis(1)))?;
            if events.is_empty() {
                if next == schedule.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "replies still out after the drain guard",
                    ));
                }
                continue;
            }
            if decoder.read_from(&mut stream)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let arrived = Instant::now();
            while let Some(frame) = decoder.next_frame()? {
                let (id, resp) = decode_response(&frame)?;
                let pending = inflight.remove(&id).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "reply to an id never sent")
                })?;
                tally.reply(target, id, &pending, &resp, arrived);
            }
        }
    };
    if let Err(e) = run() {
        tally.abort(&inflight, e);
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let w = Duration::from_secs(25);
        let a = poisson_schedule(7, 10.0, w);
        assert_eq!(a, poisson_schedule(7, 10.0, w));
        assert_ne!(a, poisson_schedule(8, 10.0, w));
    }

    #[test]
    fn the_schedule_is_sorted_inside_the_window_with_an_exact_count() {
        let w = Duration::from_secs(25);
        for seed in 0..20 {
            let s = poisson_schedule(seed, 10.0, w);
            assert_eq!(s.len(), 250);
            assert!(s.windows(2).all(|p| p[0] <= p[1]));
            assert!(s.iter().all(|&t| t < w));
        }
    }

    #[test]
    fn gaps_look_exponential() {
        // For a Poisson process the share of gaps longer than the mean gap
        // is e^-1 ≈ 0.37; an evenly spaced schedule would give 0 or 1.
        let w = Duration::from_secs(1000);
        let s = poisson_schedule(3, 10.0, w);
        let mean = w.as_secs_f64() / s.len() as f64;
        let long = s
            .windows(2)
            .filter(|p| (p[1] - p[0]).as_secs_f64() > mean)
            .count();
        let share = long as f64 / (s.len() - 1) as f64;
        assert!((share - 0.368).abs() < 0.03, "share {share}");
    }
}
