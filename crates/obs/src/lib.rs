//! Std-only observability for the QUQ runtime.
//!
//! Every layer of the inference stack — the work-stealing pool, the GEMM
//! kernels, the QUB decode path, the weight-decode cache, the integer SFUs
//! and the model forward pass — reports into one process-wide registry of
//! named metrics:
//!
//! * [`Counter`] — a monotonic atomic `u64` (cache hits, steal counts,
//!   MACs, bytes);
//! * [`Histogram`] — a log2-bucketed value distribution with exact count
//!   and sum, used for span latencies in nanoseconds;
//! * [`Span`] — an RAII timer recording its elapsed time into a histogram
//!   on drop.
//!
//! Metrics are keyed by a static name plus an optional [`SiteKey`]
//! (operation label + block index), mirroring the per-layer `OpSite`
//! addressing of the ViT forward pass without depending on any higher
//! crate.
//!
//! **Cost model.** Recording is gated on one process-wide flag read with a
//! single relaxed atomic load ([`enabled`]). While disabled — the default —
//! every hot-path helper ([`add`], [`record`], [`span`], …) is a no-op that
//! neither locks, allocates, nor reads the clock, so instrumented code pays
//! one branch. While enabled, recording takes a registry lock per event;
//! callers only enable it for measurement runs. Instrumentation never
//! touches computed values, so results are bit-identical with metrics on or
//! off (asserted by `quq-accel`'s counters test).
//!
//! **Export.** [`snapshot`] captures every metric; [`Snapshot::delta_since`]
//! subtracts an earlier capture to scope a measurement window, and
//! [`Snapshot::to_json`] renders the machine-readable form `quq-serve
//! --metrics-json` writes.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

pub mod report;

/// Number of log2 buckets a [`Histogram`] holds (`u64` value range).
pub const HIST_BUCKETS: usize = 65;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the global recorder on or off. Off (the default) makes every
/// recording helper a no-op; already-registered metrics keep their values.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the global recorder is on (one relaxed atomic load — the entire
/// disabled-path cost of the instrumentation).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Recovers a registry lock even if a panicking thread poisoned it — the
/// registry holds only atomics, so its state is always consistent.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Identifies a per-layer metric site: an operation label plus the global
/// block index it occurs in (`None` for model-level sites). This mirrors
/// the ViT `OpSite` addressing without depending on the model crate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteKey {
    /// Global block index, or `None` for stem/head-level operations.
    pub block: Option<usize>,
    /// Operation label (e.g. `"Qkv"`, `"Softmax"`).
    pub op: Cow<'static, str>,
}

impl SiteKey {
    /// Model-level site (no block index).
    pub fn global(op: impl Into<Cow<'static, str>>) -> Self {
        Self {
            block: None,
            op: op.into(),
        }
    }

    /// Site inside block `block`.
    pub fn in_block(block: usize, op: impl Into<Cow<'static, str>>) -> Self {
        Self {
            block: Some(block),
            op: op.into(),
        }
    }

    /// Human-readable label: `block3.Qkv` or `Head`.
    pub fn label(&self) -> String {
        match self.block {
            Some(b) => format!("block{b}.{}", self.op),
            None => self.op.to_string(),
        }
    }
}

/// A monotonic atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed distribution of `u64` values with exact count and sum.
///
/// Bucket `0` counts the value `0`; bucket `i ≥ 1` counts values in
/// `[2^{i−1}, 2^i)`. Latency spans record nanoseconds, so bucket `i`
/// roughly means "took about `2^i` ns".
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The log2 bucket index a value falls into.
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

type MetricKey = (&'static str, Option<SiteKey>);

/// The process-wide metric registry. Metrics are created on first use and
/// live for the process lifetime, so handles never dangle and snapshot
/// deltas are always well-defined.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    hists: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Returns (registering on first use) the site-less counter `name`.
pub fn counter(name: &'static str) -> Arc<Counter> {
    counter_entry(name, None)
}

/// Returns (registering on first use) the counter `name` at `site`.
pub fn counter_at(name: &'static str, site: SiteKey) -> Arc<Counter> {
    counter_entry(name, Some(site))
}

fn counter_entry(name: &'static str, site: Option<SiteKey>) -> Arc<Counter> {
    let mut map = lock_unpoisoned(&registry().counters);
    Arc::clone(map.entry((name, site)).or_default())
}

/// Returns (registering on first use) the site-less histogram `name`.
pub fn histogram(name: &'static str) -> Arc<Histogram> {
    histogram_entry(name, None)
}

/// Returns (registering on first use) the histogram `name` at `site`.
pub fn histogram_at(name: &'static str, site: SiteKey) -> Arc<Histogram> {
    histogram_entry(name, Some(site))
}

fn histogram_entry(name: &'static str, site: Option<SiteKey>) -> Arc<Histogram> {
    let mut map = lock_unpoisoned(&registry().hists);
    Arc::clone(map.entry((name, site)).or_default())
}

/// Adds `n` to counter `name` — no-op while the recorder is disabled.
#[inline]
pub fn add(name: &'static str, n: u64) {
    if enabled() {
        counter(name).add(n);
    }
}

/// Adds `n` to counter `name` at `site` — no-op while disabled. The site is
/// built lazily so the disabled path never allocates.
#[inline]
pub fn add_at(name: &'static str, site: impl FnOnce() -> SiteKey, n: u64) {
    if enabled() {
        counter_at(name, site()).add(n);
    }
}

/// Records `value` into histogram `name` — no-op while disabled.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if enabled() {
        histogram(name).record(value);
    }
}

/// Records `value` into histogram `name` at `site` — no-op while disabled.
/// The site is built lazily so the disabled path never allocates.
#[inline]
pub fn record_at(name: &'static str, site: impl FnOnce() -> SiteKey, value: u64) {
    if enabled() {
        histogram_at(name, site()).record(value);
    }
}

/// An RAII timer: records its elapsed nanoseconds into the histogram it was
/// opened against when dropped. A span opened while the recorder is
/// disabled holds no clock reading and records nothing.
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    name: &'static str,
    site: Option<SiteKey>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let nanos = t0.elapsed().as_nanos() as u64;
            histogram_entry(self.name, self.site.take()).record(nanos);
        }
    }
}

/// Opens a latency span recording into the site-less histogram `name`.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        start: enabled().then(Instant::now),
        name,
        site: None,
    }
}

/// Opens a latency span at `site`. The site is built lazily so the disabled
/// path never allocates.
#[inline]
pub fn span_at(name: &'static str, site: impl FnOnce() -> SiteKey) -> Span {
    let start = enabled().then(Instant::now);
    Span {
        site: start.is_some().then(site),
        start,
        name,
    }
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnap {
    /// Metric name.
    pub name: String,
    /// Site label (`block3.Qkv`), if the counter is site-scoped.
    pub site: Option<String>,
    /// Counter value.
    pub value: u64,
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnap {
    /// Metric name.
    pub name: String,
    /// Site label, if the histogram is site-scoped.
    pub site: Option<String>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (nanoseconds for latency spans).
    pub sum: u64,
    /// Per-log2-bucket observation counts.
    pub buckets: Vec<u64>,
}

impl HistSnap {
    /// Approximate `q`-quantile from the log2 buckets: the upper bound of
    /// the bucket containing the `q`-th observation (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        u64::MAX
    }
}

/// A consistent-enough capture of every registered metric. Counters and
/// histograms are read without stopping writers, so a snapshot taken during
/// a run is approximate; taken at a quiescent point it is exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All registered counters, in (name, site) order.
    pub counters: Vec<CounterSnap>,
    /// All registered histograms, in (name, site) order.
    pub hists: Vec<HistSnap>,
}

/// Captures every registered metric.
pub fn snapshot() -> Snapshot {
    let counters = lock_unpoisoned(&registry().counters)
        .iter()
        .map(|((name, site), c)| CounterSnap {
            name: (*name).to_string(),
            site: site.as_ref().map(SiteKey::label),
            value: c.get(),
        })
        .collect();
    let hists = lock_unpoisoned(&registry().hists)
        .iter()
        .map(|((name, site), h)| HistSnap {
            name: (*name).to_string(),
            site: site.as_ref().map(SiteKey::label),
            count: h.count(),
            sum: h.sum(),
            buckets: h.bucket_counts(),
        })
        .collect();
    Snapshot { counters, hists }
}

impl Snapshot {
    /// Subtracts `earlier` from `self` key-by-key (saturating), scoping the
    /// metrics to the window between the two captures. Metrics absent from
    /// `earlier` (registered later) pass through unchanged.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let prev_c: BTreeMap<(&str, Option<&str>), u64> = earlier
            .counters
            .iter()
            .map(|c| ((c.name.as_str(), c.site.as_deref()), c.value))
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|c| CounterSnap {
                name: c.name.clone(),
                site: c.site.clone(),
                value: c.value.saturating_sub(
                    prev_c
                        .get(&(c.name.as_str(), c.site.as_deref()))
                        .copied()
                        .unwrap_or(0),
                ),
            })
            .collect();
        let prev_h: BTreeMap<(&str, Option<&str>), &HistSnap> = earlier
            .hists
            .iter()
            .map(|h| ((h.name.as_str(), h.site.as_deref()), h))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|h| {
                let prev = prev_h.get(&(h.name.as_str(), h.site.as_deref()));
                HistSnap {
                    name: h.name.clone(),
                    site: h.site.clone(),
                    count: h.count.saturating_sub(prev.map_or(0, |p| p.count)),
                    sum: h.sum.saturating_sub(prev.map_or(0, |p| p.sum)),
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| {
                            b.saturating_sub(prev.and_then(|p| p.buckets.get(i)).map_or(0, |&v| v))
                        })
                        .collect(),
                }
            })
            .collect();
        Snapshot { counters, hists }
    }

    /// Total of counter `name` across all sites.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Summed histogram value (nanoseconds for spans) of `name` across all
    /// sites.
    pub fn hist_sum(&self, name: &str) -> u64 {
        self.hists
            .iter()
            .filter(|h| h.name == name)
            .map(|h| h.sum)
            .sum()
    }

    /// The site labels under which histogram `name` has observations.
    pub fn hist_sites(&self, name: &str) -> Vec<String> {
        self.hists
            .iter()
            .filter(|h| h.name == name && h.count > 0)
            .filter_map(|h| h.site.clone())
            .collect()
    }

    /// Renders the snapshot as JSON: counters as `{name, site?, value}`,
    /// histograms as `{name, site?, count, sum, p50, p99}` (quantiles are
    /// log2-bucket upper bounds). Zero-valued entries are skipped to keep
    /// embedded reports small.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": [");
        let mut first = true;
        for c in self.counters.iter().filter(|c| c.value > 0) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("{{\"name\": {}", json_string(&c.name)));
            if let Some(site) = &c.site {
                out.push_str(&format!(", \"site\": {}", json_string(site)));
            }
            out.push_str(&format!(", \"value\": {}}}", c.value));
        }
        out.push_str("], \"histograms\": [");
        let mut first = true;
        for h in self.hists.iter().filter(|h| h.count > 0) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("{{\"name\": {}", json_string(&h.name)));
            if let Some(site) = &h.site {
                out.push_str(&format!(", \"site\": {}", json_string(site)));
            }
            out.push_str(&format!(
                ", \"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}}}",
                h.count,
                h.sum,
                h.quantile(0.5),
                h.quantile(0.99)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global recorder flag.
    fn flag_guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        lock_unpoisoned(&GUARD)
    }

    #[test]
    fn bucket_of_is_log2_with_zero_bucket() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_counts_sum_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        let snap = HistSnap {
            name: "t".into(),
            site: None,
            count: h.count(),
            sum: h.sum(),
            buckets: h.bucket_counts(),
        };
        // p50 falls in the bucket holding the 3rd observation (value 2).
        assert_eq!(snap.quantile(0.5), 4);
        // p99 falls in the bucket of the largest value (1000 < 1024).
        assert_eq!(snap.quantile(0.99), 1024);
        assert_eq!(snap.quantile(0.0), 0);
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let _g = flag_guard();
        set_enabled(false);
        let before = counter("test.disabled").get();
        add("test.disabled", 5);
        record("test.disabled.hist", 7);
        let s = span("test.disabled.span");
        assert!(s.start.is_none());
        drop(s);
        assert_eq!(counter("test.disabled").get(), before);
        assert_eq!(histogram("test.disabled.hist").count(), 0);
        assert_eq!(histogram("test.disabled.span").count(), 0);
    }

    #[test]
    fn enabled_recorder_counts_and_times() {
        let _g = flag_guard();
        set_enabled(true);
        add("test.enabled", 2);
        add("test.enabled", 3);
        {
            let _s = span_at("test.enabled.span", || SiteKey::in_block(4, "Qkv"));
        }
        set_enabled(false);
        assert_eq!(counter("test.enabled").get(), 5);
        let h = histogram_at("test.enabled.span", SiteKey::in_block(4, "Qkv"));
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn site_labels_match_op_site_display() {
        assert_eq!(SiteKey::in_block(3, "Qkv").label(), "block3.Qkv");
        assert_eq!(SiteKey::global("Head").label(), "Head");
    }

    #[test]
    fn snapshot_delta_scopes_a_window() {
        let _g = flag_guard();
        set_enabled(true);
        counter("test.delta").add(10);
        histogram("test.delta.h").record(100);
        let first = snapshot();
        counter("test.delta").add(7);
        histogram("test.delta.h").record(200);
        let delta = snapshot().delta_since(&first);
        set_enabled(false);
        assert_eq!(delta.counter_total("test.delta"), 7);
        let h = delta.hists.iter().find(|h| h.name == "test.delta.h");
        assert_eq!(h.map(|h| (h.count, h.sum)), Some((1, 200)));
    }

    #[test]
    fn json_export_is_well_formed() {
        let snap = Snapshot {
            counters: vec![
                CounterSnap {
                    name: "a\"b".into(),
                    site: None,
                    value: 3,
                },
                CounterSnap {
                    name: "zero".into(),
                    site: None,
                    value: 0,
                },
            ],
            hists: vec![HistSnap {
                name: "h".into(),
                site: Some("block0.Qkv".into()),
                count: 2,
                sum: 300,
                buckets: {
                    let mut b = vec![0u64; HIST_BUCKETS];
                    b[8] = 2;
                    b
                },
            }],
        };
        let json = snap.to_json();
        assert!(json.contains("\"a\\\"b\""), "{json}");
        assert!(!json.contains("zero"), "zero-valued entries skipped");
        assert!(json.contains("\"site\": \"block0.Qkv\""), "{json}");
        // Balanced braces/brackets as a cheap well-formedness probe.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "{json}"
            );
        }
    }

    #[test]
    fn counter_registry_returns_same_instance() {
        let a = counter("test.same");
        let b = counter("test.same");
        assert!(Arc::ptr_eq(&a, &b));
        let c = counter_at("test.same", SiteKey::global("X"));
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
