//! Spans around the calls into each layer, and the per-layer waterfall.
//!
//! A workload's loop is written once, generic over `const TRACED: bool`.
//! With tracing off every [`Span`] is a zero-sized no-op and the loop
//! reads the clock only where the end-to-end latency needs it; with
//! tracing on each span reads the clock at its start and end and adds
//! the interval to its layer's [`Acc`]. Spans are aggregated in memory
//! and reported when the run ends.

use std::time::Instant;

/// Accumulated self time of one layer boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    /// Nanoseconds spent inside the spanned calls.
    pub ns: u64,
    /// Spans closed.
    pub spans: u64,
}

impl Acc {
    /// Mean nanoseconds per `unit` (packets, calls, …); 0 when `units` is 0.
    pub fn per(&self, units: u64) -> f64 {
        if units == 0 {
            0.0
        } else {
            self.ns as f64 / units as f64
        }
    }
}

/// An open span: the start instant when traced, nothing otherwise.
#[derive(Debug, Clone, Copy)]
pub struct Span<const TRACED: bool>(Option<Instant>);

impl<const TRACED: bool> Span<TRACED> {
    /// Opens a span (reads the clock only when traced).
    #[inline(always)]
    pub fn open() -> Self {
        Self(if TRACED { Some(Instant::now()) } else { None })
    }

    /// Closes the span into `acc`.
    #[inline(always)]
    pub fn close(self, acc: &mut Acc) {
        if let Some(t) = self.0 {
            acc.ns += t.elapsed().as_nanos() as u64;
            acc.spans += 1;
        }
    }
}

/// One waterfall row: a layer's self time per packet.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Metric name of the layer's self time.
    pub name: &'static str,
    /// Self nanoseconds per packet.
    pub ns_per_pkt: f64,
}

impl Stage {
    /// A row.
    pub fn new(name: &'static str, ns_per_pkt: f64) -> Self {
        Self { name, ns_per_pkt }
    }
}

/// Self times per packet along the path, plus the explicit residue that
/// reconciles them with the untraced end-to-end time per packet.
#[derive(Debug, Clone)]
pub struct Waterfall {
    /// Stages in path order.
    pub stages: Vec<Stage>,
    /// Untraced wall nanoseconds per served packet.
    pub e2e_ns_per_pkt: f64,
}

impl Waterfall {
    /// Sum of the timed self times, ns per packet.
    pub fn self_ns_per_pkt(&self) -> f64 {
        self.stages.iter().map(|s| s.ns_per_pkt).sum()
    }

    /// The untimed remainder: end-to-end time per packet minus the timed
    /// self times. It holds the benchmark's own bookkeeping, loop
    /// overhead and (negatively) the clock reads tracing adds to the
    /// self times; it is never folded into a layer.
    pub fn residue_ns_per_pkt(&self) -> f64 {
        self.e2e_ns_per_pkt - self.self_ns_per_pkt()
    }

    /// Checks that the self times plus the residue give back the
    /// end-to-end time per packet (within floating-point rounding).
    pub fn reconciles(&self) -> bool {
        let total = self.self_ns_per_pkt() + self.residue_ns_per_pkt();
        (total - self.e2e_ns_per_pkt).abs() <= 1e-6 * self.e2e_ns_per_pkt.abs().max(1.0)
    }
}

/// Percentage by which tracing slowed the served rate.
pub fn overhead_pct(untraced_pps: f64, traced_pps: f64) -> f64 {
    if traced_pps <= 0.0 {
        return 0.0;
    }
    (untraced_pps / traced_pps - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_spans_record_nothing() {
        let mut acc = Acc::default();
        Span::<false>::open().close(&mut acc);
        assert_eq!(acc.spans, 0);
        assert_eq!(acc.ns, 0);
        assert_eq!(
            std::mem::size_of::<Span<false>>(),
            std::mem::size_of::<Span<true>>()
        );
    }

    #[test]
    fn traced_spans_accumulate() {
        let mut acc = Acc::default();
        for _ in 0..3 {
            let s = Span::<true>::open();
            std::hint::black_box((0..1000u64).sum::<u64>());
            s.close(&mut acc);
        }
        assert_eq!(acc.spans, 3);
        assert!(acc.per(3) >= 0.0);
        assert_eq!(Acc::default().per(0), 0.0);
    }

    #[test]
    fn self_times_plus_residue_reconcile_to_e2e() {
        let w = Waterfall {
            stages: vec![
                Stage::new("a", 40.5),
                Stage::new("b", 60.25),
                Stage::new("c", 12.0),
            ],
            e2e_ns_per_pkt: 150.0,
        };
        assert!((w.self_ns_per_pkt() - 112.75).abs() < 1e-12);
        assert!((w.residue_ns_per_pkt() - 37.25).abs() < 1e-12);
        assert!(w.reconciles());
        // Tracing can inflate self times past the untraced e2e time: the
        // residue then goes negative and still reconciles.
        let over = Waterfall {
            stages: vec![Stage::new("a", 170.0)],
            e2e_ns_per_pkt: 150.0,
        };
        assert!((over.residue_ns_per_pkt() + 20.0).abs() < 1e-12);
        assert!(over.reconciles());
    }

    #[test]
    fn overhead_is_relative_to_the_traced_rate() {
        assert!((overhead_pct(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(100.0, 0.0), 0.0);
    }
}
