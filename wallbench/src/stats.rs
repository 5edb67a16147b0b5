//! Latency percentiles, per-second window series and process counters.

use ringbft_obs::Histogram;

/// Histogram resolution for latencies: 2^-9 ≈ 0.2 % relative error, fine
/// enough that a percentile moves with the run instead of sticking to one
/// bucket boundary.
const SUB_BITS: u32 = 10;

/// An empty latency histogram (nanosecond samples).
pub fn hist() -> Histogram {
    Histogram::with_sub_bits(SUB_BITS)
}

/// The `q` quantile of a nanosecond histogram, in milliseconds.
pub fn quantile_ms(h: &Histogram, q: f64) -> f64 {
    h.value_at_quantile(q) as f64 / 1e6
}

/// One row of the per-second series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRow {
    /// Completions in the window divided by its width.
    pub tps: f64,
    /// Median latency of those completions.
    pub p50_ms: f64,
    /// 99th-percentile latency of those completions.
    pub p99_ms: f64,
}

/// Completions bucketed by the window their reply quorum fell in:
/// `[start + i·width, start + (i+1)·width)` for `i < n`. Completions
/// outside the span are ignored.
pub struct Windows {
    start_ns: u64,
    width_ns: u64,
    bins: Vec<Histogram>,
}

impl Windows {
    /// `n` windows of `width_ns` starting at `start_ns`.
    pub fn new(start_ns: u64, width_ns: u64, n: usize) -> Windows {
        assert!(width_ns > 0, "window width must be positive");
        Windows {
            start_ns,
            width_ns,
            bins: (0..n).map(|_| hist()).collect(),
        }
    }

    /// Records a completion at `done_ns` with latency `latency_ns`.
    pub fn record(&mut self, done_ns: u64, latency_ns: u64) {
        let Some(off) = done_ns.checked_sub(self.start_ns) else {
            return;
        };
        if let Some(bin) = self.bins.get_mut((off / self.width_ns) as usize) {
            bin.record(latency_ns);
        }
    }

    /// The series, one row per window.
    pub fn rows(&self) -> Vec<WindowRow> {
        let secs = self.width_ns as f64 / 1e9;
        self.bins
            .iter()
            .map(|h| WindowRow {
                tps: h.count() as f64 / secs,
                p50_ms: quantile_ms(h, 0.50),
                p99_ms: quantile_ms(h, 0.99),
            })
            .collect()
    }

    /// Last window's throughput over the first's (0 when the first is
    /// empty): below 1 means the run decayed.
    pub fn tps_ratio(&self) -> f64 {
        match (self.bins.first(), self.bins.last()) {
            (Some(a), Some(b)) if a.count() > 0 => b.count() as f64 / a.count() as f64,
            _ => 0.0,
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths); `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// This process's user + system CPU time in seconds, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = &stat[stat.rfind(')').expect("stat comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    // SAFETY: sysconf has no preconditions; it only reads a constant.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    ticks as f64 / hz.max(1) as f64
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn windows_bucket_by_completion_and_compute_percentiles() {
        // Two 1-s windows from t = 10 s. Window 0 gets latencies
        // 1..=100 ms, window 1 gets 10 ms ×50; one completion before and
        // one after the span are ignored.
        let mut w = Windows::new(10_000 * MS, 1_000 * MS, 2);
        for i in 1..=100u64 {
            w.record(10_000 * MS + i * 5 * MS, i * MS);
        }
        for _ in 0..50 {
            w.record(11_500 * MS, 10 * MS);
        }
        w.record(9_999 * MS, 1);
        w.record(12_000 * MS, 1);
        let rows = w.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tps, 100.0);
        assert_eq!(rows[1].tps, 50.0);
        // Hand-computed: the median of 1..=100 ms is the 50th sample
        // (50 ms), the 99th percentile the 99th (99 ms); the histogram
        // may be off by its relative error bound.
        let tol = |want: f64, got: f64| (got - want).abs() <= want * 2.0 / 512.0;
        assert!(tol(50.0, rows[0].p50_ms), "p50 {}", rows[0].p50_ms);
        assert!(tol(99.0, rows[0].p99_ms), "p99 {}", rows[0].p99_ms);
        assert!(tol(10.0, rows[1].p50_ms) && tol(10.0, rows[1].p99_ms));
        assert_eq!(w.tps_ratio(), 0.5);
    }

    #[test]
    fn empty_first_window_gives_zero_ratio() {
        let w = Windows::new(0, MS, 3);
        assert_eq!(w.tps_ratio(), 0.0);
        assert_eq!(w.rows()[2].tps, 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(process_cpu_s() >= 0.0);
        assert!(rss_peak_mb() > 0.0);
    }
}
