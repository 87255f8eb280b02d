//! The benchmark's own arithmetic: medians, tail percentiles that refuse
//! to be read from too few samples, and per-slice rates.

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty. Sorts a copy, so callers keep their sample order.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank `p`-th percentile (`0 < p < 1`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "percentile must be inside (0, 1)");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).max(1);
    v.get(rank - 1).copied().unwrap_or(0.0)
}

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// [`percentile`] for a tail, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it — a p95 read from 60 samples is three samples'
/// worth of noise, not a tail.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    (n >= rank + MIN_BEYOND).then(|| percentile(values, p))
}

/// Per-slice completion rates (completions per second) of a window that
/// started at 0 and was cut into `slices` equal parts of `window_ns`.
///
/// Slice edges snap to completions: a slice ends at the last completion at
/// or before its nominal end, so a slice of back-to-back 200 ms operations
/// counts whole operations over the time they really took instead of
/// gaining or losing one at the edge. `completions_ns` must be sorted;
/// completions after `window_ns` (the drain) are ignored. Slices that saw
/// no completion are left out.
pub fn slice_rates(completions_ns: &[u64], window_ns: u64, slices: usize) -> Vec<f64> {
    let mut rates = Vec::with_capacity(slices);
    let (mut edge_ns, mut edge_idx) = (0u64, 0usize);
    for s in 1..=slices {
        let nominal = window_ns / slices as u64 * s as u64;
        let idx = completions_ns.partition_point(|&t| t <= nominal);
        if idx > edge_idx {
            let end_ns = completions_ns[idx - 1];
            if end_ns > edge_ns {
                rates.push((idx - edge_idx) as f64 / ((end_ns - edge_ns) as f64 * 1e-9));
            }
            edge_ns = end_ns;
            edge_idx = idx;
        }
    }
    rates
}

/// Distance between the first and third quartile as a share of the median
/// — the spread the benchmark contract bounds. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |q: usize| {
        let pos = q as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
        assert_eq!(tail_percentile(&v, 0.5), Some(100.0));
    }

    #[test]
    fn tail_percentile_refuses_fewer_than_ten_beyond() {
        // 199 samples leave nine beyond the 95th percentile's rank (190).
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), None);
        assert_eq!(tail_percentile(&[], 0.95), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
    }

    #[test]
    fn slice_rates_snap_to_completions() {
        // Back-to-back 300 ms operations in a 2 s window cut in two: the
        // nominal 1 s edge falls inside the fourth operation.
        let ms = 1_000_000u64;
        let done: Vec<u64> = (1..=6).map(|i| i * 300 * ms).collect();
        let rates = slice_rates(&done, 2000 * ms, 2);
        assert_eq!(rates.len(), 2);
        for r in rates {
            assert!((r - 1.0 / 0.3).abs() < 1e-9, "rate {r}");
        }
    }

    #[test]
    fn slice_rates_ignore_the_drain_and_empty_slices() {
        let s = 1_000_000_000u64;
        // Nothing completes in the second or third slice; the completion
        // after the window belongs to the drain.
        let rates = slice_rates(&[s / 2, s, 5 * s], 3 * s, 3);
        assert_eq!(rates, vec![2.0]);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }
}
