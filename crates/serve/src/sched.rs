//! The SLO-aware request scheduler: priority classes, per-tenant fair
//! queuing, token-bucket quotas, and deadline-aware batch flushing.
//!
//! [`Scheduler`] is the server's bounded admission queue: the single
//! synchronization point between the front end (producers) and the
//! inference workers (consumers). It never blocks a push and never
//! buffers beyond its capacity, and it makes four policy decisions:
//!
//! * **Class ordering** — every request carries a [`Class`]:
//!   `interactive` requests are *strictly* dequeued before `batch`
//!   requests. Batch traffic only runs when no interactive work is queued.
//! * **Per-tenant fairness** — within a class, tenants are served
//!   round-robin: each visit of the lane's ring takes one request from
//!   the tenant at its front, which rejoins the back while it stays
//!   backlogged. One hot tenant cannot starve its siblings: every
//!   backlogged tenant makes one request of progress per rotation.
//! * **Token-bucket quotas** — each tenant has a bucket refilled at
//!   [`SchedConfig::tenant_rate`] requests/second up to
//!   [`SchedConfig::tenant_burst`]. An empty bucket does not reject the
//!   request outright; it marks it *over-quota*, which controls who sheds
//!   first under pressure.
//! * **Class-aware shedding** — at capacity, an incoming request may
//!   *displace* a queued one of strictly lower standing. Shed order
//!   (first to go → last): over-quota batch, in-quota batch, over-quota
//!   interactive, in-quota interactive. Within the chosen category the
//!   victim is the *newest* request of the tenant with the longest queue
//!   (the hog pays first). [`Scheduler::push`] returns the displaced
//!   request so the caller can answer it `OVERLOADED` — exactly once,
//!   through its own reply route.
//!
//! ## Work-conserving batch formation
//!
//! [`Scheduler::next_batch`] waits indefinitely for the first request,
//! then decides whether to hold a partial batch open for more. The
//! batching window opens only under load: for `max_wait` after a consumer
//! comes back from a batch of more than one request. The replies it just
//! sent are what make closed-loop clients send their next requests, and
//! those should share one batch. Even then the window holds only while
//! every other consumer is busy. A request that finds the consumers idle
//! — none has come back from a multi-request batch within `max_wait`, or
//! a second one is waiting — ships at once, so no worker sits idle while
//! a request waits for company. A saturated server still runs full
//! batches; a trickle of requests, or one client sending one request at
//! a time, pays no batching delay.
//!
//! An open window is cut short by a full batch, by draining, or by a
//! queued deadline: the batch ships at `deadline − deadline_slack`, so
//! the request still makes it through compute. A request whose deadline
//! has *already* passed at pickup is returned in [`Batch::expired`]
//! instead of [`Batch::jobs`]; the worker answers it with a DEADLINE
//! reply and spends no compute on it.
//!
//! ## Observability
//!
//! `serve.queue_wait` (admission → pickup, per `class:tenant` site),
//! `sched.idle_ship` (batches shipped at once because no window was
//! open), `sched.deadline_flush`, `sched.deadline_expired` (counted by
//! the worker), `sched.displaced`, and `sched.quota_shed` (over-quota
//! request shed, whether displaced or refused at the door).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use quq_obs::SiteKey;

use crate::protocol::Class;

/// Tenant name requests fall back to when they carry none.
pub const ANON_TENANT: &str = "anon";

/// Why a [`Scheduler::push`] was refused; the item comes back to the
/// caller either way.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — shed the request (backpressure).
    Full(T),
    /// The queue is draining for shutdown — no new admissions.
    Draining(T),
}

/// Most per-tenant token buckets tracked at once: beyond this, buckets
/// that have refilled to their burst and have no queued requests are
/// pruned, so a hostile client inventing tenant names cannot grow server
/// memory.
const MAX_TENANT_BUCKETS: usize = 1024;

/// Scheduler policy knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Bounded queue capacity across all classes and tenants.
    pub capacity: usize,
    /// Token-bucket refill per tenant, in requests/second. 0 disables
    /// quotas (no request is ever marked over-quota).
    pub tenant_rate: f64,
    /// Token-bucket capacity (burst size). 0 defaults to
    /// `tenant_rate.max(1.0)`.
    pub tenant_burst: f64,
    /// Flush a partial batch this long *before* the earliest queued
    /// deadline, so the request clears compute in time.
    pub deadline_slack: Duration,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            tenant_rate: 0.0,
            tenant_burst: 0.0,
            deadline_slack: Duration::from_millis(1),
        }
    }
}

/// One queued request plus the scheduling metadata stamped at admission.
pub struct Admitted<T> {
    /// The caller's payload (the server queues its `Job` here).
    pub item: T,
    /// Priority class carried on the wire.
    pub class: Class,
    /// Tenant the request was accounted to (interned).
    pub tenant: Arc<str>,
    /// Absolute deadline, if the request carried one.
    pub deadline: Option<Instant>,
    /// The tenant's token bucket was empty at admission: first to shed.
    pub over_quota: bool,
    /// When the request entered the queue (drives `serve.queue_wait`).
    pub enqueued_at: Instant,
}

/// Shed standing: higher ranks shed first. Class dominates (batch before
/// interactive); quota standing breaks ties within a class.
fn shed_rank(class: Class, over_quota: bool) -> u8 {
    (class as u8) * 2 + u8::from(over_quota)
}

/// What a successful [`Scheduler::push`] reports.
pub struct Admission<T> {
    /// Queue depth right after this admission.
    pub depth: usize,
    /// A queued lower-standing request displaced to make room. The caller
    /// owns it now and must answer it (`OVERLOADED`) exactly once.
    pub displaced: Option<Admitted<T>>,
}

/// One picked-up batch.
pub struct Batch<T> {
    /// Requests to compute, in dequeue (class, then round-robin) order.
    pub jobs: Vec<Admitted<T>>,
    /// Requests whose deadline had already passed at pickup: answer with
    /// DEADLINE, spend no compute.
    pub expired: Vec<Admitted<T>>,
}

/// One class lane: per-tenant FIFOs plus the visiting ring. The map
/// holds exactly the tenants with a non-empty queue; `ring` holds the
/// same names in visiting order.
struct Lane<T> {
    tenants: BTreeMap<Arc<str>, VecDeque<Admitted<T>>>,
    ring: VecDeque<Arc<str>>,
}

impl<T> Lane<T> {
    fn new() -> Self {
        Lane {
            tenants: BTreeMap::new(),
            ring: VecDeque::new(),
        }
    }

    /// Drops `tenant` from the lane if its queue is empty.
    fn prune_if_empty(&mut self, tenant: &Arc<str>) {
        if self.tenants.get(tenant).is_some_and(VecDeque::is_empty) {
            self.tenants.remove(tenant);
            self.ring.retain(|t| t != tenant);
        }
    }
}

struct Bucket {
    tokens: f64,
    refilled: Instant,
}

struct State<T> {
    /// `lanes[0]` = interactive, `lanes[1]` = batch.
    lanes: [Lane<T>; 2],
    buckets: HashMap<Arc<str>, Bucket>,
    len: usize,
    draining: bool,
    /// Consumers inside `next_batch`: idle workers.
    waiting: usize,
    /// Requests in the batch handed out last.
    last_batch: usize,
    /// When the batching window opened: a consumer came back from a batch
    /// of more than one request. `None` while the pool is idle or serving
    /// one request at a time.
    window_from: Option<Instant>,
}

/// The SLO-aware admission queue (see module docs). Any number of
/// producers call `push`, any number of consumers call `next_batch`; a
/// request is delivered to exactly one consumer or returned to exactly
/// one caller, never both.
pub struct Scheduler<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    cfg: SchedConfig,
}

impl<T> Scheduler<T> {
    /// Builds a scheduler with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.capacity` is zero.
    pub fn new(cfg: SchedConfig) -> Self {
        assert!(cfg.capacity > 0, "scheduler capacity must be positive");
        Scheduler {
            state: Mutex::new(State {
                lanes: [Lane::new(), Lane::new()],
                buckets: HashMap::new(),
                len: 0,
                draining: false,
                waiting: 0,
                last_batch: 0,
                window_from: None,
            }),
            available: Condvar::new(),
            cfg,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits one request, or sheds. At capacity the request displaces a
    /// queued request of strictly worse shed standing if one exists (the
    /// victim comes back in [`Admission::displaced`]); otherwise the
    /// incoming request itself is refused with [`PushError::Full`]. After
    /// [`Scheduler::drain`] every push is refused with
    /// [`PushError::Draining`].
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] / [`PushError::Draining`] return the item to
    /// the caller, which still owns answering it.
    pub fn push(
        &self,
        item: T,
        class: Class,
        tenant: &str,
        deadline: Option<Instant>,
    ) -> Result<Admission<T>, PushError<T>> {
        let now = Instant::now();
        let mut st = self.lock();
        if st.draining {
            return Err(PushError::Draining(item));
        }
        let tenant: Arc<str> = Arc::from(if tenant.is_empty() {
            ANON_TENANT
        } else {
            tenant
        });
        let over_quota = self.take_token(&mut st, &tenant, now);
        let mut displaced = None;
        if st.len >= self.cfg.capacity {
            match find_victim(&mut st, shed_rank(class, over_quota)) {
                Some(victim) => {
                    if victim.over_quota {
                        quq_obs::add("sched.quota_shed", 1);
                    }
                    quq_obs::add("sched.displaced", 1);
                    displaced = Some(victim);
                }
                None => {
                    if over_quota {
                        quq_obs::add("sched.quota_shed", 1);
                    }
                    return Err(PushError::Full(item));
                }
            }
        }
        enqueue(
            &mut st,
            Admitted {
                item,
                class,
                tenant,
                deadline,
                over_quota,
                enqueued_at: now,
            },
        );
        let depth = st.len;
        drop(st);
        self.available.notify_one();
        Ok(Admission { depth, displaced })
    }

    /// Refills and debits `tenant`'s token bucket; `true` means the
    /// bucket was empty (the request is over-quota).
    fn take_token(&self, st: &mut State<T>, tenant: &Arc<str>, now: Instant) -> bool {
        if self.cfg.tenant_rate <= 0.0 {
            return false;
        }
        let burst = if self.cfg.tenant_burst > 0.0 {
            self.cfg.tenant_burst
        } else {
            self.cfg.tenant_rate.max(1.0)
        };
        if st.buckets.len() >= MAX_TENANT_BUCKETS && !st.buckets.contains_key(tenant) {
            // Prune buckets that carry no state worth keeping: refilled by
            // now (a new bucket starts full) and nothing queued under that
            // tenant.
            let State { lanes, buckets, .. } = &mut *st;
            let rate = self.cfg.tenant_rate;
            buckets.retain(|t, b| {
                let dt = now.saturating_duration_since(b.refilled).as_secs_f64();
                b.tokens + dt * rate < burst || lanes.iter().any(|l| l.tenants.contains_key(t))
            });
        }
        let b = st.buckets.entry(Arc::clone(tenant)).or_insert(Bucket {
            tokens: burst,
            refilled: now,
        });
        let dt = now.saturating_duration_since(b.refilled).as_secs_f64();
        b.tokens = (b.tokens + dt * self.cfg.tenant_rate).min(burst);
        b.refilled = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            false
        } else {
            true
        }
    }

    /// Blocks for the next batch: interactive requests first, round-robin
    /// across tenants within a class. A consumer calls this again once it has
    /// run the batch it took; coming back from a batch of more than one
    /// request opens the batching window (see the module docs). A partial
    /// batch ships at once when no window is open, and otherwise at
    /// `max_batch` requests, `max_wait` after the window opened, or
    /// `deadline − slack` of the most urgent queued request — whichever
    /// comes first. Returns `None` once draining *and* empty.
    pub fn next_batch(&self, max_batch: usize, max_wait: Duration) -> Option<Batch<T>> {
        assert!(max_batch > 0, "max_batch must be positive");
        let mut st = self.lock();
        st.window_from = (st.last_batch > 1).then(Instant::now);
        st.waiting += 1;
        loop {
            // Phase 1: wait (indefinitely) for the first request.
            while st.len == 0 {
                if st.draining {
                    st.waiting -= 1;
                    return None;
                }
                st = self
                    .available
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // Phase 2: the batching window, open only under load and cut
            // short by any queued deadline approaching. A second idle
            // consumer or draining flushes immediately.
            let now = Instant::now();
            let window_end = st.window_from.map_or(now, |t| t + max_wait);
            let idle = now >= window_end || st.waiting > 1;
            let mut deadline_cut = false;
            while !idle && st.len < max_batch && !st.draining {
                let now = Instant::now();
                if now >= window_end {
                    break;
                }
                let mut due = window_end;
                if let Some(d) = earliest_deadline(&st) {
                    let early = d.checked_sub(self.cfg.deadline_slack).unwrap_or(now);
                    if now >= early {
                        deadline_cut = true;
                        break;
                    }
                    due = due.min(early);
                }
                let (guard, _timeout) = self
                    .available
                    .wait_timeout(st, due - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
            // Collect: expired requests first (no compute), then round-robin.
            let now = Instant::now();
            let expired = remove_expired(&mut st, now);
            let jobs = collect(&mut st, max_batch);
            if jobs.is_empty() && expired.is_empty() {
                continue; // a racing consumer took everything; re-wait
            }
            st.last_batch = jobs.len();
            st.waiting -= 1;
            if st.len > 0 {
                // Leftovers (batch was full): hand them to another consumer.
                self.available.notify_one();
            }
            drop(st);
            if deadline_cut {
                quq_obs::add("sched.deadline_flush", 1);
            }
            if idle && !jobs.is_empty() {
                quq_obs::add("sched.idle_ship", 1);
            }
            for a in &jobs {
                quq_obs::record_at(
                    "serve.queue_wait",
                    || SiteKey::global(format!("{}:{}", a.class, a.tenant)),
                    now.saturating_duration_since(a.enqueued_at).as_nanos() as u64,
                );
            }
            return Some(Batch { jobs, expired });
        }
    }

    /// Starts draining: every later push is refused; consumers flush the
    /// remaining requests immediately and then get `None`.
    pub fn drain(&self) {
        let mut st = self.lock();
        st.draining = true;
        drop(st);
        self.available.notify_all();
    }

    /// Requests currently queued (all classes and tenants).
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`Scheduler::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }
}

fn enqueue<T>(st: &mut State<T>, a: Admitted<T>) {
    let lane = &mut st.lanes[a.class as usize];
    let tenant = Arc::clone(&a.tenant);
    let q = lane.tenants.entry(Arc::clone(&tenant)).or_default();
    if q.is_empty() {
        lane.ring.push_back(tenant);
    }
    q.push_back(a);
    st.len += 1;
}

/// Finds and removes the most-sheddable queued request with rank strictly
/// greater than `incoming_rank`: worst rank first, the longest-queued
/// tenant within it, that tenant's newest matching request.
fn find_victim<T>(st: &mut State<T>, incoming_rank: u8) -> Option<Admitted<T>> {
    for rank in ((incoming_rank + 1)..=3).rev() {
        let class = (rank / 2) as usize;
        let want_over = rank % 2 == 1;
        let lane = &mut st.lanes[class];
        let tenant = lane
            .tenants
            .iter()
            .filter(|(_, q)| q.iter().any(|a| a.over_quota == want_over))
            .max_by_key(|(_, q)| q.len())
            .map(|(t, _)| Arc::clone(t));
        if let Some(tenant) = tenant {
            let q = lane.tenants.get_mut(&tenant).expect("tenant just found");
            let idx = q
                .iter()
                .rposition(|a| a.over_quota == want_over)
                .expect("matching item just found");
            let victim = q.remove(idx).expect("index in bounds");
            lane.prune_if_empty(&tenant);
            st.len -= 1;
            return Some(victim);
        }
    }
    None
}

/// Earliest deadline among all queued requests, if any carries one.
fn earliest_deadline<T>(st: &State<T>) -> Option<Instant> {
    st.lanes
        .iter()
        .flat_map(|l| l.tenants.values())
        .flat_map(|q| q.iter())
        .filter_map(|a| a.deadline)
        .min()
}

/// Removes every queued request whose deadline has already passed.
fn remove_expired<T>(st: &mut State<T>, now: Instant) -> Vec<Admitted<T>> {
    let mut out = Vec::new();
    for lane in st.lanes.iter_mut() {
        let tenants: Vec<Arc<str>> = lane.tenants.keys().cloned().collect();
        for tenant in tenants {
            if let Some(q) = lane.tenants.get_mut(&tenant) {
                let mut i = 0;
                while i < q.len() {
                    if q[i].deadline.is_some_and(|d| d <= now) {
                        out.push(q.remove(i).expect("index in bounds"));
                    } else {
                        i += 1;
                    }
                }
            }
            lane.prune_if_empty(&tenant);
        }
    }
    st.len -= out.len();
    out
}

/// Round-robin collection: the interactive lane drains fully ahead of
/// batch; within a lane, each ring visit takes one request from the tenant
/// at the front, which rejoins the back while it stays backlogged.
fn collect<T>(st: &mut State<T>, max_batch: usize) -> Vec<Admitted<T>> {
    let mut out = Vec::new();
    for lane in st.lanes.iter_mut() {
        while out.len() < max_batch {
            let Some(tenant) = lane.ring.pop_front() else {
                break;
            };
            let Some(q) = lane.tenants.get_mut(&tenant) else {
                continue;
            };
            if let Some(a) = q.pop_front() {
                st.len -= 1;
                out.push(a);
            }
            if q.is_empty() {
                lane.tenants.remove(&tenant);
            } else {
                lane.ring.push_back(tenant);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sched(capacity: usize) -> Scheduler<u32> {
        Scheduler::new(SchedConfig {
            capacity,
            ..SchedConfig::default()
        })
    }

    fn jobs_of(b: Batch<u32>) -> Vec<u32> {
        assert!(b.expired.is_empty(), "unexpected expirations");
        b.jobs.into_iter().map(|a| a.item).collect()
    }

    /// Hands out a batch of two, so the consumer's next `next_batch` call
    /// comes back from a multi-request batch and opens the window.
    fn open_window(q: &Scheduler<u32>) {
        q.push(0, Class::Batch, "warm", None).unwrap();
        q.push(0, Class::Batch, "warm", None).unwrap();
        assert_eq!(jobs_of(q.next_batch(8, Duration::ZERO).unwrap()).len(), 2);
    }

    #[test]
    fn an_idle_consumer_ships_a_lone_request_at_once() {
        // No consumer has come back from a multi-request batch, so no
        // window is open: a 10 s max_wait must not hold the request, nor
        // the next one after a batch of one.
        let q = sched(16);
        let t0 = Instant::now();
        for i in 0..2 {
            q.push(i, Class::Interactive, "a", None).unwrap();
            assert_eq!(
                jobs_of(q.next_batch(8, Duration::from_secs(10)).unwrap()),
                [i]
            );
        }
        let waited = t0.elapsed();
        assert!(
            waited < Duration::from_secs(5),
            "an idle consumer held the batch open: waited {waited:?}"
        );
    }

    #[test]
    fn a_consumer_back_from_a_batch_holds_the_window_until_it_fills() {
        // Coming back from a batch of two is load: the requests that
        // replies provoke should share one batch, not ship one by one.
        let q = sched(16);
        open_window(&q);
        q.push(1, Class::Interactive, "a", None).unwrap();
        std::thread::scope(|s| {
            let consumer = s.spawn(|| jobs_of(q.next_batch(8, Duration::from_secs(10)).unwrap()));
            // The consumer has seen the lone request and is holding it.
            let t0 = Instant::now();
            while q.lock().waiting == 0 {
                assert!(
                    t0.elapsed() < Duration::from_secs(30),
                    "the window shipped early"
                );
                std::thread::yield_now();
            }
            for i in 2..=8 {
                q.push(i, Class::Interactive, "a", None).unwrap();
            }
            let got = consumer.join().unwrap();
            assert_eq!(got, (1..=8).collect::<Vec<_>>(), "the window shipped early");
        });
    }

    #[test]
    fn interactive_is_dequeued_strictly_before_batch() {
        let q = sched(16);
        q.push(1, Class::Batch, "a", None).unwrap();
        q.push(2, Class::Batch, "a", None).unwrap();
        q.push(3, Class::Interactive, "a", None).unwrap();
        q.push(4, Class::Interactive, "b", None).unwrap();
        let got = jobs_of(q.next_batch(4, Duration::ZERO).unwrap());
        assert_eq!(got.len(), 4);
        assert_eq!(&got[..2], &[3, 4], "interactive requests lead the batch");
        assert_eq!(&got[2..], &[1, 2], "batch requests fill the remainder");
    }

    #[test]
    fn drr_alternates_tenants_within_a_class() {
        let q = sched(16);
        // Tenant a floods; tenant b trickles. Round-robin must interleave
        // them instead of serving a's backlog first.
        for i in 0..6 {
            q.push(100 + i, Class::Interactive, "a", None).unwrap();
        }
        q.push(200, Class::Interactive, "b", None).unwrap();
        q.push(201, Class::Interactive, "b", None).unwrap();
        let got = jobs_of(q.next_batch(4, Duration::ZERO).unwrap());
        assert_eq!(got, vec![100, 200, 101, 201], "strict alternation");
        // b's queue is empty now; a drains alone.
        let got = jobs_of(q.next_batch(4, Duration::ZERO).unwrap());
        assert_eq!(got, vec![102, 103, 104, 105]);
    }

    #[test]
    fn token_bucket_marks_over_quota_after_the_burst() {
        let q = Scheduler::new(SchedConfig {
            capacity: 16,
            tenant_rate: 1.0, // 1 req/s: no meaningful refill within the test
            tenant_burst: 2.0,
            ..SchedConfig::default()
        });
        for i in 0..4 {
            q.push(i, Class::Batch, "hog", None).unwrap();
        }
        let batch = q.next_batch(4, Duration::ZERO).unwrap();
        let over: Vec<bool> = batch.jobs.iter().map(|a| a.over_quota).collect();
        assert_eq!(
            over,
            vec![false, false, true, true],
            "burst of 2, then over"
        );
    }

    #[test]
    fn a_second_idle_consumer_ships_without_waiting_for_the_window() {
        // The window is open, but another consumer is idle too: holding
        // the request would leave a worker idle while it waits.
        let q = sched(16);
        open_window(&q);
        let consume = || q.next_batch(8, Duration::from_secs(10)).map(jobs_of);
        std::thread::scope(|s| {
            let first = s.spawn(consume);
            let t0 = Instant::now();
            while q.lock().waiting == 0 {
                assert!(t0.elapsed() < Duration::from_secs(30), "no idle consumer");
                std::thread::yield_now();
            }
            q.push(1, Class::Interactive, "a", None).unwrap();
            let second = s.spawn(consume);
            let t0 = Instant::now();
            while !q.is_empty() && t0.elapsed() < Duration::from_secs(5) {
                std::thread::yield_now();
            }
            let waited = t0.elapsed();
            q.drain();
            let got: Vec<Vec<u32>> = [first, second]
                .into_iter()
                .filter_map(|h| h.join().unwrap())
                .collect();
            assert_eq!(got, [vec![1]], "delivered exactly once");
            assert!(
                waited < Duration::from_secs(5),
                "a request waited {waited:?} beside an idle consumer"
            );
        });
    }

    #[test]
    fn invented_tenant_names_do_not_grow_the_bucket_table() {
        // Every push debits its bucket, so no stored bucket is ever full;
        // a refilled one must still be pruned. At a million tokens per
        // second the first buckets have refilled long before the table
        // reaches its cap.
        let q = Scheduler::new(SchedConfig {
            capacity: 4,
            tenant_rate: 1e6,
            tenant_burst: 1.0,
            ..SchedConfig::default()
        });
        for i in 0..=MAX_TENANT_BUCKETS {
            let _ = q.push(0, Class::Batch, &format!("t{i}"), None);
        }
        let buckets = q.lock().buckets.len();
        assert!(
            buckets < MAX_TENANT_BUCKETS,
            "{buckets} buckets kept after {} tenant names",
            MAX_TENANT_BUCKETS + 1
        );
    }

    #[test]
    fn interactive_displaces_over_quota_batch_at_capacity() {
        let q = Scheduler::new(SchedConfig {
            capacity: 3,
            tenant_rate: 1.0,
            tenant_burst: 2.0,
            ..SchedConfig::default()
        });
        for i in 0..3 {
            q.push(i, Class::Batch, "hog", None).unwrap();
        }
        // Queue full. An interactive request from a compliant tenant must
        // displace the hog's newest over-quota request, not be refused.
        let adm = q.push(99, Class::Interactive, "well", None).unwrap();
        let victim = adm.displaced.expect("an over-quota batch job is displaced");
        assert_eq!(victim.item, 2, "the newest over-quota request sheds");
        assert!(victim.over_quota);
        assert_eq!(adm.depth, 3, "depth unchanged by displacement");
        let got = jobs_of(q.next_batch(4, Duration::ZERO).unwrap());
        assert_eq!(got, vec![99, 0, 1]);
    }

    #[test]
    fn equal_or_better_standing_is_refused_not_displaced() {
        let q = sched(2);
        q.push(1, Class::Interactive, "a", None).unwrap();
        q.push(2, Class::Interactive, "b", None).unwrap();
        // Same rank (interactive, in-quota): shed the incoming, keep the
        // queued — displacement requires strictly worse standing.
        match q.push(3, Class::Interactive, "c", None) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            _ => panic!("expected Full"),
        }
        // Batch never displaces interactive.
        match q.push(4, Class::Batch, "c", None) {
            Err(PushError::Full(item)) => assert_eq!(item, 4),
            _ => panic!("expected Full"),
        }
    }

    #[test]
    fn deadline_flushes_a_partial_batch_early() {
        // Half the deadline as slack: a wake-up that comes late by less
        // than 30 ms still ships the request before it expires.
        let q = Scheduler::new(SchedConfig {
            capacity: 16,
            deadline_slack: Duration::from_millis(30),
            ..SchedConfig::default()
        });
        open_window(&q);
        let deadline = Instant::now() + Duration::from_millis(60);
        q.push(7, Class::Interactive, "a", Some(deadline)).unwrap();
        let t0 = Instant::now();
        // The open window of 10 s would hold a lone request that long;
        // the deadline cuts it to ~30 ms.
        let batch = q.next_batch(8, Duration::from_secs(10)).unwrap();
        let waited = t0.elapsed();
        assert_eq!(batch.jobs.len(), 1);
        assert!(batch.expired.is_empty());
        assert!(
            waited < Duration::from_secs(5),
            "deadline did not cut the batch window: waited {waited:?}"
        );
    }

    #[test]
    fn already_expired_requests_are_separated_from_compute() {
        let q = sched(16);
        let past = Instant::now() - Duration::from_millis(1);
        q.push(1, Class::Interactive, "a", Some(past)).unwrap();
        q.push(2, Class::Interactive, "a", None).unwrap();
        let batch = q.next_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch.expired.len(), 1);
        assert_eq!(batch.expired[0].item, 1);
        assert_eq!(batch.jobs.len(), 1);
        assert_eq!(batch.jobs[0].item, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_refuses_pushes_and_flushes_consumers() {
        let q = sched(16);
        q.push(1, Class::Batch, "a", None).unwrap();
        q.drain();
        match q.push(9, Class::Interactive, "a", None) {
            Err(PushError::Draining(item)) => assert_eq!(item, 9),
            _ => panic!("expected Draining"),
        }
        // The queued request still flushes (immediately: no window while
        // draining), then consumers get None.
        let got = jobs_of(q.next_batch(8, Duration::from_secs(10)).unwrap());
        assert_eq!(got, vec![1]);
        assert!(q.next_batch(8, Duration::from_secs(10)).is_none());
    }

    #[test]
    fn concurrent_producers_and_consumers_deliver_exactly_once() {
        let q = Arc::new(sched(64));
        let delivered = Arc::new(AtomicUsize::new(0));
        let shed = Arc::new(AtomicUsize::new(0));
        const PER_PRODUCER: usize = 500;
        const PRODUCERS: usize = 4;
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                let delivered = Arc::clone(&delivered);
                std::thread::spawn(move || {
                    while let Some(batch) = q.next_batch(8, Duration::from_micros(200)) {
                        delivered
                            .fetch_add(batch.jobs.len() + batch.expired.len(), Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                let shed = Arc::clone(&shed);
                std::thread::spawn(move || {
                    let tenant = format!("t{p}");
                    for i in 0..PER_PRODUCER {
                        let class = if i % 3 == 0 {
                            Class::Interactive
                        } else {
                            Class::Batch
                        };
                        match q.push(i as u32, class, &tenant, None) {
                            Ok(adm) => {
                                if adm.displaced.is_some() {
                                    shed.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            Err(PushError::Full(_)) => {
                                shed.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(PushError::Draining(_)) => panic!("drained early"),
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.drain();
        for c in consumers {
            c.join().unwrap();
        }
        assert_eq!(
            delivered.load(Ordering::SeqCst) + shed.load(Ordering::SeqCst),
            PRODUCERS * PER_PRODUCER,
            "every request delivered to a consumer or returned to its producer, never both"
        );
    }
}
