//! Human-readable reports over metric [`Snapshot`] deltas.
//!
//! The per-op breakdowns that used to be duplicated between
//! `examples/integer_inference.rs` and the throughput benchmark live here
//! once: total GEMM span time, the slowest op sites, and a short text
//! summary of cache and SFU activity. Every consumer of a measurement
//! window (`throughput`, `loadgen`, the integer-inference example) formats
//! it the same way.

use crate::Snapshot;
use std::fmt::Write as _;

/// Summed GEMM span time (seconds) in a metrics window: every `linear`,
/// `matmul`, and `matmul_nt` dispatched through an observing backend.
pub fn gemm_seconds(delta: &Snapshot) -> f64 {
    let nanos =
        delta.hist_sum("op.linear") + delta.hist_sum("op.matmul") + delta.hist_sum("op.matmul_nt");
    nanos as f64 * 1e-9
}

/// One row of [`slowest_sites`]: an op histogram aggregated per site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRow {
    /// Metric name (`op.linear`, `op.softmax`, …).
    pub name: String,
    /// Site label (`block3.Qkv`, `Head`, …); `None` for un-sited spans.
    pub site: Option<String>,
    /// Total span time in nanoseconds.
    pub sum_nanos: u64,
}

/// The `limit` slowest `op.*` sites by total span time, descending.
pub fn slowest_sites(delta: &Snapshot, limit: usize) -> Vec<SiteRow> {
    let mut rows: Vec<SiteRow> = delta
        .hists
        .iter()
        .filter(|h| h.name.starts_with("op.") && h.count > 0)
        .map(|h| SiteRow {
            name: h.name.clone(),
            site: h.site.clone(),
            sum_nanos: h.sum,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.sum_nanos
            .cmp(&a.sum_nanos)
            .then_with(|| a.site.cmp(&b.site))
            .then_with(|| a.name.cmp(&b.name))
    });
    rows.truncate(limit);
    rows
}

/// Renders [`slowest_sites`] as the aligned table the example and the bench
/// bins print, one row per line, `indent` prepended to each.
pub fn slowest_sites_table(delta: &Snapshot, limit: usize, indent: &str) -> String {
    let mut out = String::new();
    for row in slowest_sites(delta, limit) {
        let _ = writeln!(
            out,
            "{indent}{:>22}  {:<14} {:.4}s",
            row.site.as_deref().unwrap_or("-"),
            row.name,
            row.sum_nanos as f64 * 1e-9
        );
    }
    out
}

/// Renders the standard measurement-window summary: GEMM totals, weight
/// decode-cache hit/miss, and SFU kernel time. Each line starts with
/// `indent`.
pub fn window_summary(delta: &Snapshot, indent: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{indent}GEMM: {:.3}s across ops ({} MACs, {} bytes moved)",
        gemm_seconds(delta),
        delta.counter_total("gemm.macs"),
        delta.counter_total("gemm.bytes"),
    );
    let _ = writeln!(
        out,
        "{indent}weight-decode cache: {} hits / {} misses",
        delta.counter_total("cache.weight_qub.hit"),
        delta.counter_total("cache.weight_qub.miss"),
    );
    let _ = writeln!(
        out,
        "{indent}SFU: softmax {:.3}s, gelu {:.3}s, layer_norm {:.3}s",
        delta.hist_sum("sfu.softmax") as f64 * 1e-9,
        delta.hist_sum("sfu.gelu") as f64 * 1e-9,
        delta.hist_sum("sfu.layer_norm") as f64 * 1e-9,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistSnap, Snapshot};

    fn hist(name: &str, site: Option<&str>, sum: u64) -> HistSnap {
        HistSnap {
            name: name.to_string(),
            site: site.map(str::to_string),
            count: 1,
            sum,
            buckets: vec![],
        }
    }

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![
                crate::CounterSnap {
                    name: "cache.weight_qub.hit".to_string(),
                    site: None,
                    value: 41,
                },
                crate::CounterSnap {
                    name: "cache.weight_qub.miss".to_string(),
                    site: None,
                    value: 3,
                },
            ],
            hists: vec![
                hist("op.linear", Some("block0.Qkv"), 5_000_000_000),
                hist("op.linear", Some("block1.Fc1"), 2_000_000_000),
                hist("op.softmax", Some("block0.Softmax"), 3_000_000_000),
                hist("op.matmul_nt", Some("block0.QkMatmul"), 1_000_000_000),
                hist("sfu.softmax", None, 500),
            ],
        }
    }

    #[test]
    fn gemm_seconds_sums_only_gemm_ops() {
        let s = sample();
        // linear 5+2, matmul_nt 1; softmax excluded.
        assert!((gemm_seconds(&s) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn slowest_sites_sorted_and_limited() {
        let rows = slowest_sites(&sample(), 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].site.as_deref(), Some("block0.Qkv"));
        assert_eq!(rows[1].site.as_deref(), Some("block0.Softmax"));
        // Non-op histograms never appear.
        assert!(slowest_sites(&sample(), 10)
            .iter()
            .all(|r| r.name.starts_with("op.")));
    }

    #[test]
    fn tables_render_one_line_per_row() {
        let table = slowest_sites_table(&sample(), 3, "  ");
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("block0.Qkv"));
        let summary = window_summary(&sample(), "  ");
        assert_eq!(summary.lines().count(), 3);
        assert!(summary.contains("GEMM: 8.000s"));
        assert!(summary.contains("weight-decode cache: 41 hits / 3 misses"));
    }
}
