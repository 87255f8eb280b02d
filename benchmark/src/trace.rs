//! The traced run's spans, recorded from outside the program: around each
//! `Backend` trait call ([`TracedBackend`]), around each batch the server's
//! worker runs ([`TracedProvider`]), and around each client request.
//!
//! Spans stay in memory until the run ends and are then written as one
//! JSON object per line. Spans inside the program are a later issue.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use quq_serve::BackendProvider;
use quq_tensor::Tensor;
use quq_vit::backend::{Backend, OpSite, Result};

/// One timed interval. `parent` is the id of the span that caused it (0 =
/// none); `trace` ties the spans of one request (served) or one batch
/// (offline) together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink shared by every thread of a traced run. It starts
/// switched off: until [`Tracer::set_enabled`] a wrapped call costs one
/// relaxed load, which is how the traced run takes its untraced baseline
/// on the same server.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds of `t` since this tracer was created.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent has ended.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a previously reserved `id` (dropped
    /// while the tracer is off).
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        trace: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled() {
            return;
        }
        let span = Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        // Every span is pushed fully formed, so a poisoned lock still
        // guards a consistent vector.
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Times `f` as a span and returns its result; `f` receives the span's
    /// id (0 while the tracer is off).
    pub fn timed<T>(
        &self,
        parent: u64,
        trace: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled() {
            return f(0);
        }
        let id = self.next_id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, trace, name, start, Instant::now());
        out
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Writes `spans` to `path`, one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Span name of the forward pass that parents the `op.*` spans.
pub const FORWARD: &str = "forward";
/// Span name of one client request, send (or due time) to reply.
pub const REQUEST: &str = "request";

/// Wraps a backend and records one span per trait call, all children of
/// one forward span. Inputs and outputs pass through untouched.
pub struct TracedBackend<'t, B: Backend> {
    inner: B,
    tracer: &'t Tracer,
    parent: u64,
    trace: u64,
}

impl<'t, B: Backend> TracedBackend<'t, B> {
    pub fn new(inner: B, tracer: &'t Tracer, parent: u64, trace: u64) -> Self {
        Self {
            inner,
            tracer,
            parent,
            trace,
        }
    }

    fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut B) -> T) -> T {
        let (tracer, parent, trace) = (self.tracer, self.parent, self.trace);
        let inner = &mut self.inner;
        tracer.timed(parent, trace, name, |_| f(inner))
    }
}

impl<B: Backend> Backend for TracedBackend<'_, B> {
    fn linear(
        &mut self,
        site: OpSite,
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
    ) -> Result<Tensor> {
        self.op("op.linear", |be| be.linear(site, x, w, b))
    }

    fn matmul(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.op("op.matmul", |be| be.matmul(site, a, b))
    }

    fn matmul_nt(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.op("op.matmul_nt", |be| be.matmul_nt(site, a, b))
    }

    fn softmax(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        self.op("op.softmax", |be| be.softmax(site, x))
    }

    fn gelu(&mut self, site: OpSite, x: &Tensor) -> Result<Tensor> {
        self.op("op.gelu", |be| be.gelu(site, x))
    }

    fn layer_norm(&mut self, site: OpSite, x: &Tensor, g: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.op("op.layer_norm", |be| be.layer_norm(site, x, g, b))
    }

    fn add(&mut self, site: OpSite, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.op("op.add", |be| be.add(site, a, b))
    }
}

/// Hands the server's worker a [`TracedBackend`] around whatever the inner
/// provider builds, inside one forward span per batch. The provider cannot
/// see request ids, so a served forward span's `trace` is the batch's
/// sequence number on this server.
pub struct TracedProvider {
    inner: Arc<dyn BackendProvider>,
    tracer: Arc<Tracer>,
    batches: AtomicU64,
}

impl TracedProvider {
    pub fn new(inner: Arc<dyn BackendProvider>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            batches: AtomicU64::new(0),
        }
    }
}

impl BackendProvider for TracedProvider {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn with_backend(&self, work: &mut dyn FnMut(&mut dyn Backend)) {
        let batch = self.batches.fetch_add(1, Ordering::Relaxed);
        self.tracer.timed(0, batch, FORWARD, |forward| {
            self.inner.with_backend(&mut |be| {
                work(&mut TracedBackend::new(be, &self.tracer, forward, batch));
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 90),
            span(4, 3, 60, 70),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 20 - 40);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 40 - 10);
        assert_eq!(own[&4], 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        let spans = [
            span(1, 0, 100, 200),
            span(2, 1, 110, 150),
            span(3, 1, 140, 160), // overlaps span 2 by 10
            span(4, 1, 190, 250), // runs past the parent's end
        ];
        let own = self_times(&spans);
        // Covered: 110..160 and 190..200.
        assert_eq!(own[&1], 100 - 50 - 10);
    }

    #[test]
    fn traced_backend_is_transparent_and_parents_its_ops() {
        use quq_vit::backend::{Fp32Backend, OpKind};
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let site = OpSite::global(OpKind::Head);
        let want = Fp32Backend::new().linear(site, &x, &w, None).unwrap();
        let got = tracer.timed(0, 9, FORWARD, |forward| {
            TracedBackend::new(Fp32Backend::new(), &tracer, forward, 9)
                .linear(site, &x, &w, None)
                .unwrap()
        });
        assert_eq!(got.data(), want.data());
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        let (op, fwd) = (&spans[0], &spans[1]);
        assert_eq!((op.name, fwd.name), ("op.linear", FORWARD));
        assert_eq!(op.parent, fwd.id);
        assert_eq!((op.trace, fwd.trace), (9, 9));
        assert!(fwd.start_ns <= op.start_ns && op.end_ns <= fwd.end_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-trace");
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &[span(1, 0, 5, 9), span(2, 1, 6, 7)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            text,
            "{\"id\": 1, \"parent\": 0, \"trace\": 0, \"name\": \"t\", \"start_ns\": 5, \"end_ns\": 9}\n\
             {\"id\": 2, \"parent\": 1, \"trace\": 0, \"name\": \"t\", \"start_ns\": 6, \"end_ns\": 7}\n"
        );
    }
}
