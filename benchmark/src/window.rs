//! What one timed window produced, and the end-to-end numbers read off it.
//!
//! A window is cut into one-second slices whose edges snap to completions;
//! each slice has a rate and, per flow, a median latency.
//!
//! * A saturated loop (offline, closed loops, store) turns the host's speed
//!   straight into its numbers, and the host this was built on runs each
//!   vCPU at one of two speeds 1.6x apart for seconds to minutes at a time.
//!   The median of the slices is whichever speed prevailed: over ten seeds
//!   it moved by up to 31% (quartile distance over median), more than any
//!   bound the driver accepts. So the gated rate is the best slice's and
//!   the gated latency the lowest slice median: the program with the host
//!   out of the way. A stall of the program's own that recurs within a
//!   second is in every slice and so in both; a rarer one is not, and shows
//!   in [`Window::median_img_per_s`] and [`Window::slice_spread`].
//! * The open loop is paced: its worker is idle most of the time and its
//!   latency barely follows the host. Its rate is read over the whole
//!   window and its latency is the median of the slice medians.
//!
//! A tail percentile is taken over the pooled samples and only with ten
//! samples beyond it. `README.md` has the measurements.

use crate::stats;

const SLICE_NS: u64 = 1_000_000_000;

/// One operation of a window: a request, an offline batch or a store
/// cycle. Times are nanoseconds since the window started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// When the operation completed.
    pub end_ns: u64,
    /// When it was due (open loop) or issued (everything else).
    pub at_ns: u64,
    /// What the user waited: due time to reply on the open loop, issue to
    /// completion elsewhere.
    pub latency_ms: f64,
    /// 0 is the workload's primary flow, the one `lat_p50_ms` and
    /// `slo_ok_frac` describe.
    pub flow: u8,
    /// The operation returned an answer and the oracle accepted it.
    pub ok: bool,
    /// Not `ok` because the server declined it (OVERLOADED, DEADLINE): a
    /// failed operation, but not a wrong output.
    pub refused: bool,
    /// `ok`, and inside the workload's latency limit if it has one.
    pub in_slo: bool,
}

/// A timed window's raw outcome.
#[derive(Debug, Default)]
pub struct Window {
    pub window_ns: u64,
    pub ops: Vec<Op>,
    /// Images one operation carries (8 for an offline batch).
    pub images_per_op: f64,
    /// Open loop only: the offered load sets the rate, so the window is
    /// read whole instead of at its best slice.
    pub paced: bool,
    /// Open loop only: how late each request left, in ms.
    pub send_lag_ms: Vec<f64>,
    /// Named sample series a workload adds (store: per-cycle timings).
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// Named exact counts a workload adds.
    pub counts: Vec<(&'static str, f64)>,
    /// A generator-side failure (socket error, poisoned stream).
    pub error: Option<String>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|op| !op.ok).count() as u64
    }

    /// Operations that failed without the server declining them: a wrong
    /// bit in the output, an error reply, a broken connection.
    pub fn wrong(&self) -> u64 {
        self.ops.iter().filter(|op| !op.ok && !op.refused).count() as u64
    }

    pub fn series(&self, name: &str) -> &[f64] {
        self.series
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn slices(&self) -> u64 {
        (self.window_ns / SLICE_NS).max(1)
    }

    /// Sorted completion times of the operations that succeeded.
    fn completions(&self) -> Vec<u64> {
        let mut done: Vec<u64> = self
            .ops
            .iter()
            .filter(|op| op.ok)
            .map(|op| op.end_ns)
            .collect();
        done.sort_unstable();
        done
    }

    /// Image rate (img/s) of each slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        stats::slice_rates(&self.completions(), self.window_ns, self.slices() as usize)
            .into_iter()
            .map(|r| r * self.images_per_op)
            .collect()
    }

    /// Images completed per second: in the best slice, or on the open loop
    /// the good replies over the time they took.
    pub fn img_per_s(&self) -> f64 {
        if self.paced {
            let done = self.completions();
            return match done.last() {
                Some(&last) if last > 0 => {
                    done.len() as f64 * self.images_per_op / (last as f64 * 1e-9)
                }
                _ => 0.0,
            };
        }
        self.slice_rates().into_iter().fold(0.0, f64::max)
    }

    /// The median of the per-slice rates: what the window sustained, host
    /// spells included.
    pub fn median_img_per_s(&self) -> f64 {
        stats::median(&self.slice_rates())
    }

    /// Highest over lowest per-slice rate: 1 on an undisturbed run.
    pub fn slice_spread(&self) -> f64 {
        let rates = self.slice_rates();
        let best = rates.iter().copied().fold(0.0, f64::max);
        let worst = rates.iter().copied().fold(f64::MAX, f64::min);
        if rates.is_empty() || worst <= 0.0 {
            0.0
        } else {
            best / worst
        }
    }

    /// The good operations of `flow` that were issued (or due) inside the
    /// window, not in its drain.
    fn timed(&self, flow: u8) -> impl Iterator<Item = &Op> {
        self.ops
            .iter()
            .filter(move |op| op.flow == flow && op.ok && op.at_ns < self.window_ns)
    }

    /// Latencies (ms) of the good operations of `flow`.
    pub fn latencies(&self, flow: u8) -> Vec<f64> {
        self.timed(flow).map(|op| op.latency_ms).collect()
    }

    /// Median latency of `flow` in each slice that has a sample, an
    /// operation belonging to the slice it was issued (or due) in.
    fn slice_medians(&self, flow: u8) -> Vec<f64> {
        let slices = self.slices();
        let mut per_slice = vec![Vec::new(); slices as usize];
        for op in self.timed(flow) {
            let slice = u128::from(op.at_ns) * u128::from(slices) / u128::from(self.window_ns);
            per_slice[slice as usize].push(op.latency_ms);
        }
        per_slice
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| stats::median(s))
            .collect()
    }

    /// The median of the slice medians of `flow`; 0 with no sample.
    pub fn median_lat_ms(&self, flow: u8) -> f64 {
        stats::median(&self.slice_medians(flow))
    }

    /// Median latency of `flow`: in the slice where it was lowest, or on
    /// the open loop the median of the slice medians. 0 with no sample.
    pub fn lat_p50_ms(&self, flow: u8) -> f64 {
        if self.paced {
            return self.median_lat_ms(flow);
        }
        self.slice_medians(flow)
            .into_iter()
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Tail percentile over the pooled samples of `flow`; `None` with
    /// fewer than ten samples beyond it.
    pub fn lat_tail_ms(&self, flow: u8, p: f64) -> Option<f64> {
        stats::tail_percentile(&self.latencies(flow), p)
    }

    /// How late the open-loop generator ran at its 95th percentile
    /// (nearest rank; a self-check on the generator, so it is read from
    /// however many requests the window sent).
    pub fn send_lag_p95_ms(&self) -> f64 {
        stats::percentile(&self.send_lag_ms, 0.95)
    }

    pub fn send_lag_max_ms(&self) -> f64 {
        self.send_lag_ms.iter().copied().fold(0.0, f64::max)
    }

    /// Primary-flow operations answered correctly and inside the latency
    /// limit, over primary-flow operations attempted.
    pub fn slo_ok_frac(&self) -> f64 {
        let sent = self.ops.iter().filter(|op| op.flow == 0).count();
        let good = self
            .ops
            .iter()
            .filter(|op| op.flow == 0 && op.in_slo)
            .count();
        good as f64 / sent.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(end_ms: u64, latency_ms: f64, ok: bool) -> Op {
        Op {
            end_ns: end_ms * 1_000_000,
            at_ns: end_ms * 1_000_000,
            latency_ms,
            flow: 0,
            ok,
            refused: false,
            in_slo: ok,
        }
    }

    #[test]
    fn a_failed_operation_counts_against_rate_and_slo() {
        let w = Window {
            window_ns: 3_000_000_000,
            ops: vec![
                op(500, 500.0, true),
                op(1500, 1000.0, false),
                op(2500, 1000.0, true),
            ],
            images_per_op: 8.0,
            ..Window::default()
        };
        assert_eq!((w.attempted(), w.failed(), w.wrong()), (3, 1, 1));
        assert!((w.slo_ok_frac() - 2.0 / 3.0).abs() < 1e-12);
        // The middle slice completed nothing and is left out; the first
        // did a batch of 8 in 0.5 s, the last one in 2 s.
        assert_eq!(w.slice_rates(), vec![16.0, 4.0]);
    }

    #[test]
    fn the_rate_is_the_best_seconds_and_the_median_and_spread_say_the_rest() {
        // Second 1: four operations; second 2 (disturbed): one; second 3: two.
        let ends = [250, 500, 750, 1000, 2000, 2500, 3000];
        let w = Window {
            window_ns: 3_000_000_000,
            ops: ends.iter().map(|&e| op(e, 1.0, true)).collect(),
            images_per_op: 1.0,
            ..Window::default()
        };
        assert_eq!(w.slice_rates(), vec![4.0, 1.0, 2.0]);
        assert_eq!(w.img_per_s(), 4.0);
        assert_eq!(w.median_img_per_s(), 2.0);
        assert_eq!(w.slice_spread(), 4.0);
    }

    #[test]
    fn paced_rate_is_good_replies_over_elapsed() {
        let w = Window {
            window_ns: 2_000_000_000,
            ops: vec![op(500, 5.0, true), op(1000, 5.0, true), op(2500, 5.0, true)],
            images_per_op: 1.0,
            paced: true,
            ..Window::default()
        };
        assert!((w.img_per_s() - 3.0 / 2.5).abs() < 1e-12);
        // The third operation was issued after the window closed, so its
        // latency is left out.
        assert_eq!(w.latencies(0).len(), 2);
    }

    #[test]
    fn p50_is_read_off_the_slice_medians_of_good_operations() {
        // Three 1 s slices with medians 20, 2 and 200.
        let mut ops = Vec::new();
        for (slice, base) in [(0u64, 10.0), (1, 1.0), (2, 100.0)] {
            for k in 1..=3u64 {
                ops.push(op(slice * 1000 + k * 100, base * k as f64, true));
            }
        }
        ops.push(op(150, 0.001, false)); // a failure is not a fast request
        let mut w = Window {
            window_ns: 3_000_000_000,
            ops,
            images_per_op: 1.0,
            ..Window::default()
        };
        assert_eq!(w.lat_p50_ms(0), 2.0);
        assert_eq!(w.median_lat_ms(0), 20.0);
        assert_eq!(w.lat_p50_ms(1), 0.0);
        assert_eq!(w.lat_tail_ms(0, 0.95), None);
        w.paced = true;
        assert_eq!(w.lat_p50_ms(0), 20.0);
    }
}
