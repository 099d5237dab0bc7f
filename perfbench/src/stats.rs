//! Order statistics and the sub-window collector the end-to-end metrics
//! are read from.
//!
//! A timed run is cut into equal wall-clock sub-windows. Each sub-window
//! yields its own served rate and latency percentiles, and a run reports
//! the median over its sub-windows, so one descheduled stretch moves a
//! run's figures by at most one sub-window's worth.

use std::time::Duration;

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it. Reorders `samples`.
/// Returns `None` for an empty slice.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    let (_, v, _) = samples.select_nth_unstable(idx);
    Some(*v)
}

/// Median of `values` (mean of the middle two for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// One closed sub-window.
#[derive(Debug, Clone, Copy)]
pub struct WindowStat {
    /// Packets served per wall second.
    pub pps: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
}

/// Collects served counts and latency samples, closing a sub-window
/// every `width` of wall time.
#[derive(Debug)]
pub struct Windows {
    width: Duration,
    opened: Duration,
    served: u64,
    lat_ns: Vec<u64>,
    closed: Vec<WindowStat>,
}

impl Windows {
    /// A collector whose first sub-window opens at `start` (time since
    /// the run's origin).
    pub fn new(width: Duration, start: Duration) -> Self {
        Self {
            width,
            opened: start,
            served: 0,
            lat_ns: Vec::with_capacity(1 << 16),
            closed: Vec::new(),
        }
    }

    /// Records one served packet and its submit→transmit latency.
    #[inline]
    pub fn record(&mut self, latency_ns: u64) {
        self.served += 1;
        self.lat_ns.push(latency_ns);
    }

    /// Records `n` served packets without a latency sample.
    #[inline]
    pub fn count(&mut self, n: u64) {
        self.served += n;
    }

    /// Records one latency sample without counting a packet.
    #[inline]
    pub fn sample(&mut self, latency_ns: u64) {
        self.lat_ns.push(latency_ns);
    }

    /// Leaves `d` of wall time out of the current sub-window (untimed
    /// work such as rebuilding the system under test).
    pub fn exclude(&mut self, d: Duration) {
        self.opened += d;
    }

    /// Closes the current sub-window if `now` has passed its end.
    /// Returns `true` when a sub-window closed.
    pub fn tick(&mut self, now: Duration) -> bool {
        if now < self.opened + self.width {
            return false;
        }
        self.close(now);
        true
    }

    fn close(&mut self, now: Duration) {
        let secs = (now - self.opened).as_secs_f64();
        let p50 = percentile(&mut self.lat_ns, 50.0).unwrap_or(0);
        let p99 = percentile(&mut self.lat_ns, 99.0).unwrap_or(0);
        self.closed.push(WindowStat {
            pps: self.served as f64 / secs,
            p50_us: p50 as f64 / 1e3,
            p99_us: p99 as f64 / 1e3,
            samples: self.lat_ns.len(),
        });
        self.opened = now;
        self.served = 0;
        self.lat_ns.clear();
    }

    /// The closed sub-windows (a partly filled one is discarded).
    pub fn finish(self) -> Vec<WindowStat> {
        self.closed
    }
}

/// Per-run summary: medians over the sub-windows.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median served packets per second.
    pub pps: f64,
    /// Quartiles of the sub-window served rates (how much the host's
    /// interference spread them).
    pub pps_quartiles: [f64; 3],
    /// Median of the sub-window p50 latencies, microseconds.
    pub p50_us: f64,
    /// Median of the sub-window p99 latencies, microseconds.
    pub p99_us: f64,
    /// Sub-windows summarised.
    pub windows: usize,
    /// Latency samples across all sub-windows.
    pub samples: usize,
}

impl Summary {
    /// Summarises closed sub-windows; `None` if there are none.
    pub fn of(windows: &[WindowStat]) -> Option<Self> {
        let col = |f: fn(&WindowStat) -> f64| windows.iter().map(f).collect::<Vec<_>>();
        let mut rates: Vec<u64> = windows.iter().map(|w| w.pps as u64).collect();
        let mut q = |p| percentile(&mut rates, p).map(|v| v as f64);
        Some(Self {
            pps_quartiles: [q(25.0)?, q(50.0)?, q(75.0)?],
            pps: median(&col(|w| w.pps))?,
            p50_us: median(&col(|w| w.p50_us))?,
            p99_us: median(&col(|w| w.p99_us))?,
            windows: windows.len(),
            samples: windows.iter().map(|w| w.samples).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), Some(50));
        assert_eq!(percentile(&mut s, 99.0), Some(99));
        assert_eq!(percentile(&mut s, 100.0), Some(100));
        assert_eq!(
            percentile(&mut s, 0.0),
            Some(1),
            "rank clamps to the minimum"
        );
        let mut odd = vec![7, 1, 3];
        assert_eq!(percentile(&mut odd, 50.0), Some(3));
        let mut one = vec![42];
        assert_eq!(percentile(&mut one, 99.0), Some(42));
        // 1000 samples: p99 is the 990th smallest, so ten lie beyond it.
        let mut k: Vec<u64> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        assert_eq!(percentile(&mut k, 99.0), Some(989));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windows_close_on_width_and_summarise_by_median() {
        let ms = Duration::from_millis;
        let mut w = Windows::new(ms(100), ms(0));
        for i in 0..10u64 {
            w.record(1_000 * (i + 1));
        }
        assert!(!w.tick(ms(99)));
        assert!(w.tick(ms(100)));
        for _ in 0..30 {
            w.record(5_000);
        }
        assert!(w.tick(ms(300)));
        w.record(9_999); // partial window: discarded
        let closed = w.finish();
        assert_eq!(closed.len(), 2);
        assert!((closed[0].pps - 100.0).abs() < 1e-9);
        assert_eq!(closed[0].p50_us, 5.0);
        assert_eq!(closed[0].p99_us, 10.0);
        assert!((closed[1].pps - 150.0).abs() < 1e-9);
        let s = Summary::of(&closed).expect("two windows");
        assert!((s.pps - 125.0).abs() < 1e-9);
        assert_eq!(s.samples, 40);
    }
}
