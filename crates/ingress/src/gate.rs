//! The edge admission gate: [`ss_overload::Gate`] over a RED backlog of
//! decoded arrivals.
//!
//! Packets decoded from SUBMIT frames pass the window-aware token buckets,
//! then RED over the edge backlog proposes sheds that the QoS shedder
//! vetoes for protected (0/y-window) streams. The backlog is served at the
//! embedder's pace via [`ss_overload::Gate::pop_backlog`] /
//! [`ss_overload::Gate::mark_served`]; in the real server the popped
//! arrivals feed the endsystem SPSC ring. The backlog depth drives the
//! gate's hysteresis pressure, and [`ss_overload::Gate::reply_code`] turns
//! the level into the SUBMIT_ACK backpressure byte, which throttles
//! well-behaved clients *before* RED starts shedding.

use ss_overload::{BacklogItem, Gate};

pub use ss_overload::GateVerdict as EdgeVerdict;

/// The edge gate: its backlog holds the admitted arrivals themselves.
pub type EdgeGate = Gate<IngressArrival>;

/// One admitted arrival as handed to the endsystem ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressArrival {
    /// Destination stream slot.
    pub slot: u32,
    /// 16-bit wrapping arrival tag from the wire.
    pub tag: u16,
}

impl BacklogItem for IngressArrival {
    type Arrival = Self;
    // lint:hot-path
    #[inline]
    fn split(arrival: Self) -> (usize, Self) {
        (arrival.slot as usize, arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_overload::RedConfig;
    use ss_types::WindowConstraint;

    fn gate(windows: &[WindowConstraint], capacity: usize) -> EdgeGate {
        EdgeGate::new(windows, 1000, 2000, RedConfig::classic(capacity), 7)
    }

    fn arr(slot: u32, tag: u16) -> IngressArrival {
        IngressArrival { slot, tag }
    }

    /// Every offered packet is served, still backlogged, or ledgered.
    fn conserves(g: &EdgeGate) -> bool {
        g.conserves(g.served_total(), g.backlog_len() as u64)
    }

    #[test]
    fn conserves_under_saturation() {
        let mut g = gate(
            &[WindowConstraint::new(0, 1), WindowConstraint::new(3, 4)],
            16,
        );
        for t in 0..2000u32 {
            g.offer(arr(t % 2, t as u16));
            if t % 3 == 0 {
                if let Some(a) = g.pop_backlog() {
                    g.mark_served(a.slot as usize);
                }
            }
            g.tick();
            assert!(conserves(&g), "conservation at every step");
        }
        assert!(g.ledger().total() > 0, "2x load must lose something");
        assert!(g.served_total() > 0);
    }

    #[test]
    fn pressure_rises_and_reply_code_tracks() {
        let mut g = gate(&[WindowConstraint::new(3, 4)], 16);
        assert_eq!(g.reply_code(), 0);
        for t in 0..200u32 {
            g.offer(arr(0, t as u16));
            g.tick();
        }
        assert!(g.reply_code() >= 1, "sustained backlog raises pressure");
        assert_eq!(
            g.shared_pressure().level().as_u8(),
            g.reply_code(),
            "shared handle mirrors the reply code"
        );
    }

    #[test]
    fn drain_write_off_empties_backlog_exactly() {
        let mut g = gate(&[WindowConstraint::new(3, 4)], 64);
        let mut admitted = 0u64;
        for t in 0..40u32 {
            if g.offer(arr(0, t as u16)) == EdgeVerdict::Admitted {
                admitted += 1;
            }
            g.tick();
        }
        let backlog = g.backlog_len() as u64;
        assert_eq!(backlog, admitted, "nothing served yet");
        let off = g.drain_write_off();
        assert_eq!(off, backlog);
        assert_eq!(g.ledger().drain, off);
        assert_eq!(g.backlog_len(), 0);
        g.write_off_late(5);
        assert_eq!(g.ledger().drain, off + 5);
        assert!(conserves(&g));
    }

    #[test]
    fn red_average_decays_across_idle_ticks() {
        // A tolerant slot with effectively unlimited admission: only RED
        // can refuse it.
        let mut g = EdgeGate::new(
            &[WindowConstraint::new(3, 4)],
            1_000_000,
            2_000_000,
            RedConfig::classic(16),
            7,
        );
        // Hold the backlog between max_th (12) and capacity until the
        // EWMA climbs past max_th and RED proposes drops.
        for t in 0..2000u32 {
            g.offer(arr(0, t as u16));
            while g.backlog_len() > 14 {
                if let Some(a) = g.pop_backlog() {
                    g.mark_served(a.slot as usize);
                }
            }
            g.tick();
        }
        assert!(g.ledger().shed > 0, "setup: RED must be proposing drops");
        while let Some(a) = g.pop_backlog() {
            g.mark_served(a.slot as usize);
        }
        // A long idle period: the average must decay per (1-w)^m instead
        // of forced-dropping the first arrival into a freshly idle queue.
        for _ in 0..2000 {
            g.tick();
        }
        assert_eq!(g.offer(arr(0, 0)), EdgeVerdict::Admitted);
    }
}
