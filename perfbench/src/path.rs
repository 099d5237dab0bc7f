//! The endsystem end of the path, shared by `edge_loopback` and
//! `fabric_inproc`: delivered arrivals go into a `ShardedScheduler`, one
//! decision cycle runs per arrival, and every winner is handed to the
//! `TransmissionEngine`.

use crate::check::{fold, Forge, TagLedger, Violation};
use crate::stats::Windows;
use crate::trace::{Acc, Span};
use ss_core::{FabricConfig, FabricConfigKind, LatePolicy, ScheduledPacket, StreamState};
use ss_endsystem::TransmissionEngine;
use ss_ingress::IngressArrival;
use ss_sharded::ShardedScheduler;
use ss_types::{PacketSize, WindowConstraint, Wrap16};
use std::time::Instant;

/// Link rate of the transmission engine: 10 Gb/s.
const LINK_BYTES_PER_S: u64 = 1_250_000_000;
/// Every packet is a minimum-size frame.
const SIZE: PacketSize = PacketSize::ETH_MIN;
/// Most decision cycles run back to back before an idle check.
const MAX_IDLE_DRAIN: u64 = 1 << 20;

/// Self times of the endsystem layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct TailSpans {
    /// `ShardedScheduler::push_arrival`.
    pub arrival: Acc,
    /// `ShardedScheduler::decision_cycle`.
    pub decision: Acc,
    /// `TransmissionEngine::transmit`.
    pub transmit: Acc,
}

/// Scheduler, transmission engine and the checks on what they emit.
pub struct Tail {
    sched: ShardedScheduler,
    te: TransmissionEngine,
    /// Exactly-once ledger of every packet on the path.
    pub ledger: TagLedger,
    protected: Vec<bool>,
    origin: Instant,
    last_ns: u64,
    queued: u64,
    out: Vec<Option<ScheduledPacket>>,
    submit_ns: Vec<u64>,
    forge: Forge,
    /// Winner-sequence fingerprint.
    pub fingerprint: u64,
    /// Packets transmitted.
    pub served: u64,
    /// Decision cycles run.
    pub decisions: u64,
    /// Decision cycles that returned no winner.
    pub idle: u64,
    /// Packets of protected (0/y) streams transmitted.
    pub protected_served: u64,
    /// … of which met their deadline.
    pub protected_met: u64,
    /// Self times.
    pub spans: TailSpans,
}

impl Tail {
    /// A DWCS winner-only scheduler of `windows.len()` slots over
    /// `shards` shards, slot `g` with request period `periods[g]`.
    pub fn new(
        windows: &[WindowConstraint],
        periods: &[u64],
        shards: usize,
        origin: Instant,
        forge: Forge,
    ) -> Result<Self, Violation> {
        let slots = windows.len();
        let config = FabricConfig::dwcs(slots, FabricConfigKind::WinnerOnly);
        let mut sched = ShardedScheduler::new(config, shards).map_err(failed)?;
        for (g, (&window, &period)) in windows.iter().zip(periods).enumerate() {
            let state = StreamState {
                request_period: period,
                original_window: window,
                static_prio: (g % 8) as u8,
                late_policy: LatePolicy::ServeLate,
            };
            sched
                .load_stream(g, state, (g + 1) as u64)
                .map_err(failed)?;
        }
        Ok(Self {
            sched,
            te: TransmissionEngine::new(slots, LINK_BYTES_PER_S, 1_000_000_000, 1 << 16),
            ledger: TagLedger::new(slots),
            protected: windows.iter().map(|w| w.num == 0).collect(),
            origin,
            last_ns: 0,
            queued: 0,
            out: Vec::with_capacity(64),
            submit_ns: Vec::with_capacity(64),
            forge,
            fingerprint: 0,
            served: 0,
            decisions: 0,
            idle: 0,
            protected_served: 0,
            protected_met: 0,
            spans: TailSpans::default(),
        })
    }

    /// Nanoseconds since the run origin.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time since the run origin.
    #[inline]
    pub fn origin_elapsed(&self) -> std::time::Duration {
        self.origin.elapsed()
    }

    /// Delivers `arrivals`, runs one decision cycle per arrival and
    /// transmits the winners; each winner's submit→transmit latency goes
    /// to `win`.
    pub fn run<const TRACED: bool>(
        &mut self,
        arrivals: &[IngressArrival],
        win: &mut Windows,
    ) -> Result<(), Violation> {
        for a in arrivals {
            self.ledger.deliver(a.slot as usize, a.tag)?;
        }
        if self.forge == Forge::DuplicateTag {
            if let Some(a) = arrivals.first() {
                self.ledger.deliver(a.slot as usize, a.tag)?;
            }
        }
        let mut pushed = arrivals;
        if self.forge == Forge::ConservationBreak && !arrivals.is_empty() {
            // Lose one delivered packet without any ledger site.
            self.forge = Forge::None;
            pushed = &arrivals[1..];
        }

        let s = Span::<TRACED>::open();
        for a in pushed {
            let at = Wrap16(self.sched.now() as u16);
            self.sched
                .push_arrival(a.slot as usize, at)
                .map_err(failed)?;
        }
        s.close(&mut self.spans.arrival);
        self.queued += pushed.len() as u64;
        self.decide::<TRACED>(arrivals.len() as u64, win)
    }

    /// Runs decision cycles until the scheduler is empty.
    pub fn drain(&mut self, win: &mut Windows) -> Result<(), Violation> {
        let mut cycles = 0;
        while self.queued > 0 {
            let n = self.queued.min(32);
            self.decide::<false>(n, win)?;
            cycles += n;
            if cycles > MAX_IDLE_DRAIN {
                return Err(failed(format!("{} packets never scheduled", self.queued)));
            }
        }
        Ok(())
    }

    fn decide<const TRACED: bool>(&mut self, n: u64, win: &mut Windows) -> Result<(), Violation> {
        self.out.clear();
        let s = Span::<TRACED>::open();
        for _ in 0..n {
            let p = self.sched.decision_cycle();
            self.out.push(p);
        }
        s.close(&mut self.spans.decision);
        self.decisions += n;

        self.submit_ns.clear();
        for p in self.out.iter().flatten() {
            let at = self.ledger.transmit(p.slot.index())?;
            self.submit_ns.push(at);
        }
        let ready = self.last_ns;
        let s = Span::<TRACED>::open();
        for (p, &at) in self.out.iter().flatten().zip(&self.submit_ns) {
            std::hint::black_box(self.te.transmit(p.slot.index(), SIZE, ready, at));
        }
        s.close(&mut self.spans.transmit);

        let now = self.now_ns();
        self.last_ns = now;
        for (p, &at) in self.out.iter().flatten().zip(&self.submit_ns) {
            let slot = p.slot.index();
            win.record(now.saturating_sub(at));
            self.fingerprint = fold(self.fingerprint, slot, p.met);
            if self.protected[slot] {
                self.protected_served += 1;
                self.protected_met += u64::from(p.met);
            }
        }
        let served = self.submit_ns.len() as u64;
        self.served += served;
        self.queued -= served;
        self.idle += n - served;
        Ok(())
    }

    /// Protected packets that met their deadline, ‰ (1000 when the
    /// workload has no protected stream).
    pub fn protected_met_permille(&self) -> f64 {
        if self.protected_served == 0 {
            1000.0
        } else {
            self.protected_met as f64 * 1000.0 / self.protected_served as f64
        }
    }
}

/// Wraps a layer error as a failed operation.
pub fn failed(e: impl std::fmt::Display) -> Violation {
    Violation::Failed {
        what: e.to_string(),
    }
}
