//! Std-only work-stealing thread pool behind every parallel hot path.
//!
//! The paper's workloads — calibration sweeps, per-image evaluation, and the
//! GEMMs every "green" op reduces to — are embarrassingly parallel across
//! rows/images/sites. This module provides the one primitive they all share:
//! [`parallel_for`], a blocking index-range fan-out executed on a global
//! pool of persistent workers.
//!
//! **Scheduling.** Each call splits `0..n` into one contiguous *span* per
//! thread. A thread pops `grain`-sized chunks from the front of its own
//! span; when its span runs dry it *steals the back half* of the fullest
//! remaining span. Stealing halves keeps contention logarithmic in the
//! number of chunks and load-balances uneven per-chunk cost (e.g. early-exit
//! rows) without any cross-chunk ordering constraints.
//!
//! **Determinism.** Chunks are disjoint index ranges and the closure is
//! required to confine its writes to its own range, so results are
//! *bit-identical for every thread count* — which thread runs a chunk can
//! never matter. `QUQ_THREADS=1` additionally forces fully inline execution
//! (no pool threads at all), the reference mode the test suite compares
//! against.
//!
//! **Nesting.** A `parallel_for` issued from inside a pool worker (e.g. a
//! parallel GEMM under a parallel evaluation loop) runs inline on that
//! worker: the outer fan-out already owns every thread, and blocking a
//! worker on an inner fan-out could deadlock the pool.
//!
//! Thread count comes from the `QUQ_THREADS` environment variable (read
//! once, at first use), defaulting to [`std::thread::available_parallelism`].

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Locks `m`, recovering the guard even if another thread panicked while
/// holding it. Every mutex in this module protects state that stays
/// consistent across a panic (span bounds are updated before user code
/// runs; job lists and flags are plain values), so poisoning carries no
/// information here — propagating it would only cascade one task's panic
/// into unrelated jobs on the shared pool.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Set on pool workers and inside [`run_serial`]: forces inline runs.
    static FORCE_INLINE: Cell<bool> = const { Cell::new(false) };
}

/// Type-erased pointer to the caller's chunk closure. The submitting call
/// blocks until every chunk completes, so the pointee outlives all uses.
struct RawFunc(*const (dyn Fn(Range<usize>) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and the submitter
// keeps it alive for the whole job; the raw pointer is only dereferenced
// while the job is live.
unsafe impl Send for RawFunc {}
// SAFETY: `&RawFunc` only lends the pointer out for shared calls of a
// `Sync` closure, under the same liveness guarantee as `Send` above.
unsafe impl Sync for RawFunc {}

/// One fan-out: spans of unclaimed indices plus completion bookkeeping.
struct Job {
    /// Per-thread spans of unclaimed work, `(start, end)`.
    spans: Vec<Mutex<(usize, usize)>>,
    /// Preferred chunk size popped per claim.
    grain: usize,
    /// Indices not yet completed; 0 means the job is finished.
    pending: AtomicUsize,
    /// Payload of the first chunk panic (the submitter re-raises it).
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
    func: RawFunc,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Claims the next chunk: own span first, then steal the back half of
    /// the fullest span. Returns `None` when no unclaimed work remains.
    fn claim(&self, home: usize) -> Option<Range<usize>> {
        {
            let mut span = lock_unpoisoned(&self.spans[home]);
            if span.0 < span.1 {
                let start = span.0;
                let end = span.1.min(start + self.grain);
                span.0 = end;
                quq_obs::add("pool.chunks", 1);
                return Some(start..end);
            }
        }
        // Own span is dry: steal from the fullest victim.
        loop {
            let victim = self
                .spans
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != home)
                .max_by_key(|(_, s)| {
                    let s = lock_unpoisoned(s);
                    s.1.saturating_sub(s.0)
                })?;
            let mut span = lock_unpoisoned(victim.1);
            let len = span.1.saturating_sub(span.0);
            if len == 0 {
                drop(span);
                // The fullest span drained between scan and lock; rescan,
                // and stop once every span reads empty.
                if self.spans.iter().all(|s| {
                    let s = lock_unpoisoned(s);
                    s.0 >= s.1
                }) {
                    return None;
                }
                continue;
            }
            // Take the back half (at least one grain) directly as a chunk
            // source: pop one grain now, park the rest in the home span.
            let take = (len / 2).max(self.grain.min(len));
            let stolen_start = span.1 - take;
            let stolen_end = span.1;
            span.1 = stolen_start;
            drop(span);
            let chunk_end = stolen_end.min(stolen_start + self.grain);
            if chunk_end < stolen_end {
                let mut home_span = lock_unpoisoned(&self.spans[home]);
                debug_assert!(
                    home_span.0 >= home_span.1,
                    "home span must be dry before install"
                );
                *home_span = (chunk_end, stolen_end);
            }
            quq_obs::add("pool.steals", 1);
            quq_obs::add("pool.chunks", 1);
            return Some(stolen_start..chunk_end);
        }
    }

    /// Runs chunks until no unclaimed work remains.
    fn work(&self, home: usize) {
        while let Some(chunk) = self.claim(home) {
            let len = chunk.len();
            // SAFETY: the submitter blocks until `pending` hits zero, so the
            // closure behind the raw pointer is still alive here.
            let func = unsafe { &*self.func.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(chunk))) {
                // Keep the first payload; the submitter re-raises it so the
                // original panic (message and all) surfaces at the
                // `parallel_for` call site instead of wedging the pool.
                let mut slot = lock_unpoisoned(&self.panic_payload);
                slot.get_or_insert(payload);
            }
            if self.pending.fetch_sub(len, Ordering::SeqCst) == len {
                let mut done = lock_unpoisoned(&self.done);
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Whether any span still holds unclaimed indices.
    fn has_work(&self) -> bool {
        self.spans.iter().any(|s| {
            let s = lock_unpoisoned(s);
            s.0 < s.1
        })
    }
}

/// Shared state between the pool's workers and submitting threads.
struct Shared {
    /// Jobs with (potentially) unclaimed work.
    jobs: Mutex<Vec<Arc<Job>>>,
    jobs_cv: Condvar,
    /// Set by [`ThreadPool::shutdown`]: workers exit once no job has
    /// unclaimed work, and later submissions run inline.
    shutdown: AtomicBool,
}

/// The process-wide pool: `threads` participants (workers + submitter).
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
    /// Worker join handles, taken exactly once by [`ThreadPool::shutdown`].
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ThreadPool {
    fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            jobs: Mutex::new(Vec::new()),
            jobs_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        // The submitting thread is participant 0; spawn the rest.
        let mut workers = Vec::with_capacity(threads.saturating_sub(1));
        for worker in 1..threads {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("quq-pool-{worker}"))
                    .spawn(move || worker_loop(&shared, worker))
                    .expect("spawn pool worker"),
            );
        }
        Self {
            shared,
            threads,
            workers: Mutex::new(workers),
        }
    }

    /// The configured number of participants (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether [`ThreadPool::shutdown`] has run: the pool then executes
    /// every submission inline on the caller.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Drains and joins the pool's workers. In-flight jobs complete first
    /// (workers only exit once no job holds unclaimed work, and a
    /// submitting thread always finishes its own job), subsequent
    /// [`parallel_for`] calls run inline on the caller — same results, no
    /// pool threads — and the call blocks until every worker thread has
    /// exited. Idempotent and safe to call from any thread.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.jobs_cv.notify_all();
        let handles = std::mem::take(&mut *lock_unpoisoned(&self.workers));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Runs `f` over disjoint chunks covering `0..n`, blocking until all
    /// chunks complete. Falls back to one inline call for serial
    /// configurations, nested calls, trivially small `n`, and shut-down
    /// pools.
    fn scope(&self, n: usize, grain: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        if n == 0 {
            return;
        }
        let grain = grain.max(1);
        let inline =
            self.threads == 1 || n <= grain || FORCE_INLINE.with(Cell::get) || self.is_shut_down();
        if inline {
            f(0..n);
            return;
        }
        let spans = split_spans(n, self.threads);
        // SAFETY: erases the borrow's lifetime; this call blocks until
        // `pending` reaches zero, so no worker touches `f` after return.
        let func = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(Range<usize>) + Sync + '_),
                *const (dyn Fn(Range<usize>) + Sync + 'static),
            >(f)
        };
        let job = Arc::new(Job {
            spans: spans.into_iter().map(Mutex::new).collect(),
            grain,
            pending: AtomicUsize::new(n),
            panic_payload: Mutex::new(None),
            func: RawFunc(func),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut jobs = lock_unpoisoned(&self.shared.jobs);
            jobs.push(Arc::clone(&job));
            quq_obs::add("pool.jobs", 1);
            quq_obs::record("pool.queue_depth", jobs.len() as u64);
            self.shared.jobs_cv.notify_all();
        }
        // Participate as thread 0 (nested calls from here run inline).
        FORCE_INLINE.with(|flag| flag.set(true));
        job.work(0);
        FORCE_INLINE.with(|flag| flag.set(false));
        // Wait for chunks still in flight on workers.
        let mut done = lock_unpoisoned(&job.done);
        while !*done {
            done = match job.done_cv.wait(done) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        drop(done);
        // Retire the job so workers stop scanning it.
        let mut jobs = lock_unpoisoned(&self.shared.jobs);
        jobs.retain(|j| !Arc::ptr_eq(j, &job));
        drop(jobs);
        // Re-raise the first chunk panic at the submitting call site. The
        // pool itself stays healthy: spans are drained, the job is retired,
        // and no mutex poisoning leaks into later jobs.
        let payload = lock_unpoisoned(&job.panic_payload).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Splits `0..n` into `threads` contiguous spans of near-equal length.
fn split_spans(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let per = n / threads;
    let extra = n % threads;
    let mut spans = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = per + usize::from(t < extra);
        spans.push((start, start + len));
        start += len;
    }
    spans
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, home: usize) {
    FORCE_INLINE.with(|flag| flag.set(true));
    loop {
        let job = {
            let mut jobs = lock_unpoisoned(&shared.jobs);
            loop {
                if let Some(job) = jobs.iter().find(|j| j.has_work()) {
                    break Some(Arc::clone(job));
                }
                // Exit only at a drained point: every unclaimed chunk of
                // every job has an owner, so nothing is abandoned.
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                jobs = match shared.jobs_cv.wait(jobs) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        match job {
            Some(job) => job.work(home % job.spans.len()),
            None => return,
        }
    }
}

/// Returns the global pool, building it on first use from `QUQ_THREADS`
/// (default: available parallelism).
pub fn global() -> &'static ThreadPool {
    global_cell().get_or_init(|| ThreadPool::new(configured_threads()))
}

/// Thread count the pool will use: `QUQ_THREADS` if set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn configured_threads() -> usize {
    std::env::var("QUQ_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The number of pool participants (≥ 1); 1 means fully serial execution.
pub fn num_threads() -> usize {
    global().threads()
}

/// Drains and joins the global pool's workers (see
/// [`ThreadPool::shutdown`]): in-flight `parallel_for` calls complete,
/// worker threads exit and are joined, and later calls run inline on the
/// caller with identical results. Call before process exit when a clean
/// thread ledger matters (e.g. the serving binary's graceful drain).
/// Idempotent; only shuts the pool down if it was ever built.
pub fn shutdown_global() {
    if let Some(pool) = global_if_built() {
        pool.shutdown();
    }
}

/// The global pool if some call already built it (never forces a build —
/// shutting down a pool nobody used would spawn threads just to join them).
fn global_if_built() -> Option<&'static ThreadPool> {
    global_cell().get()
}

fn global_cell() -> &'static OnceLock<ThreadPool> {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    &POOL
}

/// Runs `f` on disjoint subranges covering `0..n`, in parallel when the
/// pool has more than one thread. `f` must confine its effects to the range
/// it is handed; under that contract results are bit-identical for every
/// thread count.
///
/// # Panics
///
/// Panics when any chunk panics.
pub fn parallel_for(n: usize, grain: usize, f: impl Fn(Range<usize>) + Sync) {
    global().scope(n, grain, &f);
}

/// [`parallel_for`] with an automatic grain: ~4 chunks per thread, so
/// stealing can still balance uneven chunks without drowning in claims.
pub fn parallel_for_auto(n: usize, f: impl Fn(Range<usize>) + Sync) {
    let grain = (n / (num_threads() * 4)).max(1);
    parallel_for(n, grain, f);
}

/// Splits `out` into `grain`-sized consecutive pieces and calls
/// `f(first_index, piece)` for each, in parallel. The disjoint `&mut`
/// pieces make this the safe way to fill an output buffer from the pool.
///
/// # Panics
///
/// Panics when any chunk panics.
pub fn parallel_chunks_mut<T: Send>(
    out: &mut [T],
    grain: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = out.len();
    let grain = grain.max(1);
    let base = out.as_mut_ptr() as usize;
    parallel_for(len, grain, |range| {
        // SAFETY: `range.start <= len`: inside `out` or one past its end.
        let start = unsafe { (base as *mut T).add(range.start) };
        // SAFETY: `parallel_for` hands out disjoint ranges of `0..len`, so
        // each reconstructed slice is exclusively owned by this chunk.
        let chunk = unsafe { std::slice::from_raw_parts_mut(start, range.len()) };
        f(range.start, chunk);
    });
}

/// Row-aligned variant of [`parallel_chunks_mut`] for matrix outputs:
/// splits `out` (a row-major `rows × cols` buffer) into blocks of whole
/// rows and calls `f(first_row, block)` for each block in parallel.
///
/// # Panics
///
/// Panics when `out.len()` is not a multiple of `cols`, or when any chunk
/// panics.
pub fn parallel_rows_mut<T: Send>(
    out: &mut [T],
    cols: usize,
    grain_rows: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert_eq!(out.len() % cols.max(1), 0, "buffer must be whole rows");
    let rows = out.len().checked_div(cols).unwrap_or(0);
    let base = out.as_mut_ptr() as usize;
    parallel_for(rows, grain_rows.max(1), |range| {
        // SAFETY: `range.start <= rows`: inside `out` or one past its end.
        let start = unsafe { (base as *mut T).add(range.start * cols) };
        // SAFETY: `parallel_for` hands out disjoint row ranges, so each
        // reconstructed block of rows is exclusively owned by this chunk.
        let block = unsafe { std::slice::from_raw_parts_mut(start, range.len() * cols) };
        f(range.start, block);
    });
}

/// Runs `f` with all pool parallelism disabled on this thread: every
/// `parallel_for` inside executes inline, in index order. This is the
/// serial reference mode benchmarks and determinism tests compare against.
pub fn run_serial<R>(f: impl FnOnce() -> R) -> R {
    let previous = FORCE_INLINE.with(|flag| flag.replace(true));
    let result = f();
    FORCE_INLINE.with(|flag| flag.set(previous));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_partition_the_range() {
        for n in [0usize, 1, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 8] {
                let spans = split_spans(n, threads);
                assert_eq!(spans.len(), threads);
                let mut next = 0;
                for (s, e) in spans {
                    assert_eq!(s, next);
                    assert!(e >= s);
                    next = e;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 64, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_chunks_mut_fills_disjoint_pieces() {
        let mut out = vec![0usize; 5000];
        parallel_chunks_mut(&mut out, 37, |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = start + off;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn parallel_rows_mut_hands_out_whole_rows() {
        let cols = 7;
        let rows = 123;
        let mut out = vec![0usize; rows * cols];
        parallel_rows_mut(&mut out, cols, 5, |first_row, block| {
            assert_eq!(block.len() % cols, 0, "block must be whole rows");
            for (off, slot) in block.iter_mut().enumerate() {
                *slot = first_row * cols + off;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn nested_parallel_for_runs_inline_without_deadlock() {
        let total = AtomicUsize::new(0);
        parallel_for(64, 4, |outer| {
            for _ in outer {
                parallel_for(16, 4, |inner| {
                    total.fetch_add(inner.len(), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 64 * 16);
    }

    #[test]
    fn run_serial_forces_inline_execution() {
        // Inline execution visits chunks in index order on one thread.
        let order = Mutex::new(Vec::new());
        run_serial(|| {
            parallel_for(100, 10, |range| {
                order.lock().unwrap().push(range.start);
            });
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order, vec![0]);
    }

    #[test]
    fn concurrent_submitters_do_not_interfere() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let sum = AtomicUsize::new(0);
                    parallel_for(1000, 16, |range| {
                        sum.fetch_add(range.sum::<usize>(), Ordering::SeqCst);
                    });
                    assert_eq!(sum.load(Ordering::SeqCst), 1000 * 999 / 2);
                });
            }
        });
    }

    #[test]
    fn empty_range_is_a_no_op() {
        parallel_for(0, 8, |_| panic!("must not run"));
    }

    /// A panicking chunk must surface its original payload at the submitting
    /// call site and must not wedge the pool: pre-fix, the submitter raised a
    /// generic "a parallel chunk panicked" assert and every later lock on a
    /// poisoned mutex cascaded the failure into unrelated jobs.
    #[test]
    fn panicking_chunk_surfaces_payload_and_pool_survives() {
        // A private 2-thread pool forces the pooled (non-inline) path even
        // on single-core hosts and keeps panic fallout away from the global
        // pool other tests share.
        let pool = ThreadPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(64, 4, &|range: Range<usize>| {
                if range.contains(&17) {
                    panic!("boom-42");
                }
            });
        }));
        let payload = caught.expect_err("chunk panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("payload must be the original panic message");
        assert_eq!(msg, "boom-42");
        // The same pool still runs jobs to completion afterwards.
        let sum = AtomicUsize::new(0);
        pool.scope(1000, 16, &|range: Range<usize>| {
            sum.fetch_add(range.sum::<usize>(), Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 1000 * 999 / 2);
    }

    /// The inline path (serial config) must also deliver the original
    /// payload.
    #[test]
    fn inline_panic_keeps_original_payload() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_serial(|| parallel_for(8, 2, |_| panic!("inline-boom")));
        }));
        let payload = caught.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"inline-boom"));
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
        assert!(num_threads() >= 1);
    }

    /// `shutdown` must complete in-flight work, join every worker, and be
    /// idempotent; afterwards submissions still run correctly (inline).
    #[test]
    fn shutdown_joins_workers_and_keeps_results_correct() {
        let pool = ThreadPool::new(3);
        let before = AtomicUsize::new(0);
        pool.scope(1000, 8, &|range: Range<usize>| {
            before.fetch_add(range.len(), Ordering::SeqCst);
        });
        assert_eq!(before.load(Ordering::SeqCst), 1000);
        assert!(!pool.is_shut_down());
        pool.shutdown();
        assert!(pool.is_shut_down());
        assert!(
            lock_unpoisoned(&pool.workers).is_empty(),
            "handles must be consumed by join"
        );
        // Same semantics after shutdown: every index visited exactly once.
        let after = AtomicUsize::new(0);
        pool.scope(1000, 8, &|range: Range<usize>| {
            after.fetch_add(range.len(), Ordering::SeqCst);
        });
        assert_eq!(after.load(Ordering::SeqCst), 1000);
        pool.shutdown(); // idempotent
    }

    /// A shutdown racing an active job must let the job finish: workers
    /// only exit at drained points and the submitter completes its own
    /// spans, so no chunk is ever abandoned.
    #[test]
    fn shutdown_during_active_job_drains_it() {
        let pool = Arc::new(ThreadPool::new(4));
        let visited = Arc::new(AtomicUsize::new(0));
        let submitter = {
            let pool = Arc::clone(&pool);
            let visited = Arc::clone(&visited);
            std::thread::spawn(move || {
                pool.scope(512, 2, &|range: Range<usize>| {
                    // Slow chunks so the shutdown lands mid-job.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    visited.fetch_add(range.len(), Ordering::SeqCst);
                });
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(1));
        pool.shutdown();
        submitter.join().expect("submitter");
        assert_eq!(visited.load(Ordering::SeqCst), 512);
    }

    #[test]
    fn shutdown_global_is_safe_to_call() {
        // Only exercises the entry point's plumbing on a private cell —
        // shutting the real global pool here would serialize the rest of
        // the in-process test suite.
        assert!(global_cell().get().is_some() || global_if_built().is_none());
    }
}
