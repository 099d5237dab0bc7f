//! The overload gate: admission, QoS-aware shedding and backpressure in
//! front of a backlog — the endsystem's Queue Manager, a cluster node's
//! sharded fabric, or the TCP edge's buffer.
//!
//! The paper's endsystem (§4.2) assumes offered load fits the fabric's
//! service rate; this is the control plane for when it does not. One body
//! composes this crate's state machines into one decision point:
//!
//! ```text
//!   arrival ──► token-bucket admission ──► shed proposal ──► QoS veto ──► backlog
//!                    │ (window-aware          │ RED verdict, or       │ sheddable → shed
//!                    │  refill squeeze)       │ Overloaded pressure   │ protected → admit
//!                    ▼                        │ without RED           ▼
//!               LossSite::Admission           ▼                  LossSite::Shed
//! ```
//!
//! * **Admission** rejects before any buffering: per-stream token buckets
//!   whose refill is squeezed under pressure, loss-tolerant streams first
//!   ([`AdmissionController`]).
//! * **The shed proposal.** With a [`RedConfig`], RED's EWMA-driven
//!   verdicts over the gate's backlog propose drops as occupancy climbs.
//!   At the edge the backlog holds the arrivals themselves; in the
//!   endsystem it is a zero-sized mirror of the fabric's backlog. Without
//!   one, the gate proposes a shed while the pressure level is
//!   [`PressureLevel::Overloaded`] (the cluster node's rule).
//! * **The veto.** [`QosShedder`] obeys a proposal only for streams whose
//!   `x/y` window constraints are currently satisfied; a protected
//!   stream's arrival is admitted anyway (through
//!   [`RedQueue::push_unchecked`] when there is a RED backlog). A 0/y
//!   window has zero headroom, so a fully protected stream is never shed.
//! * **Pressure** closes the loop: occupancy feeds the hysteresis signal,
//!   published through a [`SharedPressure`] — only when the level changes
//!   — that producer threads, `ss-traffic` generators and the edge's
//!   reply byte ([`Gate::reply_code`]) throttle on.
//!
//! Every refusal lands in the gate's [`LossLedger`] at exactly one site,
//! so [`Gate::conserves`] holds exactly; the overload soaks assert it per
//! seed.

use crate::bucket::{AdmissionController, StreamClass};
use crate::ledger::{LossLedger, LossSite};
use crate::pressure::{PressureConfig, PressureLevel, PressureSignal, SharedPressure};
use crate::red::{RedConfig, RedQueue, RedVerdict};
use crate::shed::QosShedder;
use ss_types::WindowConstraint;
use std::sync::Arc;

/// Full protection, ‰: a 0/y window's mandatory fraction.
pub const FULLY_PROTECTED: u16 = 1000;

/// What a gate's backlog keeps of an arrival, and which stream the
/// arrival is for.
pub trait BacklogItem: Copy {
    /// What [`Gate::offer`] takes.
    type Arrival;
    /// The arrival's stream index and the backlog entry it becomes.
    fn split(arrival: Self::Arrival) -> (usize, Self);
}

/// The zero-sized mirror: arrivals are bare stream indices.
impl BacklogItem for () {
    type Arrival = usize;
    #[inline]
    fn split(stream: usize) -> (usize, ()) {
        (stream, ())
    }
}

/// What the gate decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateVerdict {
    /// Entered the backlog: it passed admission and either no shed was
    /// proposed or the QoS veto overruled the proposal.
    Admitted,
    /// Rejected by the token bucket, never buffered
    /// ([`LossSite::Admission`]).
    RejectedAdmission,
    /// Shed: the stream had loss headroom, or the backlog was physically
    /// full ([`LossSite::Shed`]).
    Shed,
}

/// *Why* the gate reached its verdict. The discriminants match
/// `ss_telemetry::span::detail::GATE_*`, so [`GateReason::code`] is the
/// lifecycle trace event's detail byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum GateReason {
    /// Token bucket passed and no shed was proposed.
    Admitted = 0,
    /// The per-stream token bucket refused admission.
    AdmissionReject = 1,
    /// RED early-drop picked this (sheddable) arrival.
    RedEarly = 2,
    /// RED forced-drop above the max threshold (sheddable stream, or the
    /// backlog was at hard capacity when the veto tried to admit).
    RedForced = 3,
    /// The RED backlog was physically full: tail drop.
    TailDrop = 4,
    /// A shed was proposed for a protected (zero-headroom) stream; the
    /// QoS veto admitted it.
    VetoReadmit = 5,
    /// Overloaded pressure proposed shedding this (sheddable) arrival, in
    /// a gate without RED.
    PressureShed = 6,
}

impl GateReason {
    /// The stable trace-event detail code for this reason.
    #[inline]
    #[must_use]
    pub const fn code(self) -> u8 {
        self as u8
    }
}

/// Gate construction parameters.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Per-stream token-bucket classes (admission).
    pub classes: Vec<StreamClass>,
    /// Per-stream DWCS window constraints (shed policy).
    pub windows: Vec<WindowConstraint>,
    /// RED curve over the backlog; `None` proposes sheds on Overloaded
    /// pressure instead.
    pub red: Option<RedConfig>,
    /// Backpressure hysteresis thresholds.
    pub pressure: PressureConfig,
    /// Seed for RED's deterministic drop draws.
    pub red_seed: u64,
}

impl GateConfig {
    /// A uniform-rate gate for `windows.len()` streams: every bucket
    /// refills `rate_mtok` millitokens per tick with `burst_mtok` depth,
    /// and each stream's protection (squeeze tier and sheddability) is
    /// derived from its window constraint.
    pub fn from_windows(
        windows: &[WindowConstraint],
        rate_mtok: u32,
        burst_mtok: u32,
        red: impl Into<Option<RedConfig>>,
        red_seed: u64,
    ) -> Self {
        Self {
            classes: windows
                .iter()
                .map(|&w| StreamClass::from_window(rate_mtok, burst_mtok, w))
                .collect(),
            windows: windows.to_vec(),
            red: red.into(),
            pressure: PressureConfig::default(),
            red_seed,
        }
    }
}

/// The composed overload gate, one per backlog. Single-owner (`&mut`),
/// which also makes its verdict sequence a pure function of the offered
/// sequence.
#[derive(Debug)]
pub struct Gate<T = ()> {
    admission: AdmissionController,
    shedder: QosShedder,
    /// The RED-managed backlog: exactly the admitted arrivals not yet
    /// served or written off.
    red: Option<RedQueue<T>>,
    pressure: PressureSignal,
    shared: Arc<SharedPressure>,
    /// Last level written to `shared`: ticks republish only on change,
    /// keeping the per-tick path free of the cross-core store.
    last_published: PressureLevel,
    ledger: LossLedger,
    offered: u64,
    admitted: u64,
    /// Shed proposals overruled because the stream was protected.
    vetoes: u64,
    served: u64,
    served_per_slot: Vec<u64>,
}

impl Gate {
    /// Builds a gate whose backlog is a zero-sized mirror (or none, with
    /// `config.red == None`).
    ///
    /// # Panics
    /// Panics if `classes` and `windows` disagree on stream count, or on
    /// an invalid RED/pressure configuration.
    pub fn from_config(config: GateConfig) -> Self {
        Self::build(config)
    }
}

impl<T: BacklogItem> Gate<T> {
    /// Builds a gate for `windows` with uniform `rate_mtok`/`burst_mtok`
    /// buckets (see [`GateConfig::from_windows`]); `red` curves the
    /// backlog, which draws its early-drop randomness from `seed`.
    pub fn new(
        windows: &[WindowConstraint],
        rate_mtok: u32,
        burst_mtok: u32,
        red: impl Into<Option<RedConfig>>,
        seed: u64,
    ) -> Self {
        Self::build(GateConfig::from_windows(
            windows, rate_mtok, burst_mtok, red, seed,
        ))
    }

    fn build(config: GateConfig) -> Self {
        assert_eq!(
            config.classes.len(),
            config.windows.len(),
            "one class and one window per stream"
        );
        Self {
            admission: AdmissionController::new(config.classes),
            shedder: QosShedder::new(&config.windows),
            red: config.red.map(|red| RedQueue::new(red, config.red_seed)),
            pressure: PressureSignal::new(config.pressure),
            shared: Arc::new(SharedPressure::new()),
            last_published: PressureLevel::Nominal,
            ledger: LossLedger::new(),
            offered: 0,
            admitted: 0,
            vetoes: 0,
            served: 0,
            served_per_slot: vec![0; config.windows.len()],
        }
    }

    /// Offers one arrival. On [`GateVerdict::Admitted`] it is in the
    /// gate's backlog (behind a mirror, the caller deposits it in the
    /// real one); on any other verdict it is already in the
    /// [`LossLedger`]. Hot path: no allocation in steady state, no panic.
    // lint:hot-path
    #[inline]
    pub fn offer(&mut self, arrival: T::Arrival) -> GateVerdict {
        self.offer_traced(arrival).0
    }

    /// [`Gate::offer`] plus the *reason* behind the verdict, for
    /// lifecycle tracing. Same hot-path contract.
    // lint:hot-path
    #[inline]
    pub fn offer_traced(&mut self, arrival: T::Arrival) -> (GateVerdict, GateReason) {
        self.offered += 1;
        let (stream, item) = T::split(arrival);
        if !self.admission.try_admit(stream) {
            self.ledger.record(LossSite::Admission);
            return (GateVerdict::RejectedAdmission, GateReason::AdmissionReject);
        }
        let proposal = match &mut self.red {
            Some(red) => match red.offer(item) {
                RedVerdict::Enqueued => None,
                RedVerdict::EarlyDrop => Some(GateReason::RedEarly),
                RedVerdict::ForcedDrop => Some(GateReason::RedForced),
                // Physically full: policy cannot help.
                RedVerdict::TailDrop => return self.shed(stream, GateReason::TailDrop),
            },
            None if self.pressure.level() == PressureLevel::Overloaded => {
                Some(GateReason::PressureShed)
            }
            None => None,
        };
        let Some(reason) = proposal else {
            self.admitted += 1;
            return (GateVerdict::Admitted, GateReason::Admitted);
        };
        if self.shedder.sheddable(stream) {
            return self.shed(stream, reason);
        }
        // Protected stream: veto the proposal and admit; only the RED
        // backlog's hard capacity can still refuse it.
        let room = match &mut self.red {
            Some(red) => red.push_unchecked(item),
            None => true,
        };
        if room {
            self.vetoes += 1;
            self.admitted += 1;
            (GateVerdict::Admitted, GateReason::VetoReadmit)
        } else {
            self.shed(stream, GateReason::RedForced)
        }
    }

    // lint:hot-path
    #[inline]
    fn shed(&mut self, stream: usize, reason: GateReason) -> (GateVerdict, GateReason) {
        self.shedder.record_shed(stream);
        self.ledger.record(LossSite::Shed);
        (GateVerdict::Shed, reason)
    }

    /// Pops the oldest backlogged arrival. The caller then
    /// [`Gate::mark_served`]s it or [`Gate::mark_ring_loss`]es it. Hot
    /// path.
    // lint:hot-path
    #[inline]
    pub fn pop_backlog(&mut self) -> Option<T> {
        self.red.as_mut()?.pop()
    }

    /// Accounts one served packet of `stream` (advances its loss window).
    /// Hot path.
    // lint:hot-path
    #[inline]
    pub fn mark_served(&mut self, stream: usize) {
        self.served += 1;
        self.shedder.record_served(stream);
        if let Some(c) = self.served_per_slot.get_mut(stream) {
            *c += 1;
        }
    }

    /// One queued packet of `stream` left the backlog's owner, served:
    /// [`Gate::pop_backlog`] then [`Gate::mark_served`]. Hot path.
    // lint:hot-path
    #[inline]
    pub fn served(&mut self, stream: usize) {
        let _ = self.pop_backlog();
        self.mark_served(stream);
    }

    /// A queued packet expired in the backlog's owner (a `Drop`-policy
    /// deadline miss): it leaves the backlog and is recorded at
    /// [`LossSite::Shed`]. Hot path.
    // lint:hot-path
    #[inline]
    pub fn expire(&mut self) {
        let _ = self.pop_backlog();
        self.ledger.record(LossSite::Shed);
    }

    /// Accounts an admitted arrival lost at a ring before service. Hot
    /// path.
    // lint:hot-path
    #[inline]
    pub fn mark_ring_loss(&mut self) {
        self.ledger.record(LossSite::Ring);
    }

    /// Accounts `n` arrivals lost to failed shards. Hot path.
    // lint:hot-path
    #[inline]
    pub fn mark_shard_loss(&mut self, n: u64) {
        self.ledger.record_n(LossSite::Shard, n);
    }

    /// One control tick over the gate's own backlog: see
    /// [`Gate::tick_at`]. Hot path.
    // lint:hot-path
    #[inline]
    pub fn tick(&mut self) -> PressureLevel {
        let capacity = self.red.as_ref().map_or(0, RedQueue::capacity);
        self.tick_at(self.backlog_len(), capacity)
    }

    /// One control tick with `occupied` of `capacity` observed: advances
    /// the pressure signal, publishes a changed level, refills admission
    /// at that level and advances RED's idle clock (counted only while
    /// the backlog is empty). Hot path.
    // lint:hot-path
    #[inline]
    pub fn tick_at(&mut self, occupied: usize, capacity: usize) -> PressureLevel {
        let level = self.pressure.observe(occupied, capacity);
        if level != self.last_published {
            // `SharedPressure::new` starts Nominal, matching
            // `last_published`, so the steady state needs no store.
            self.shared.publish(level);
            self.last_published = level;
        }
        self.admission.tick(level);
        if let Some(red) = &mut self.red {
            red.idle_tick();
        }
        level
    }

    /// The backpressure byte for the edge's replies: the current pressure
    /// level (0 nominal, 1 elevated, 2 overloaded). Hot path.
    // lint:hot-path
    #[inline]
    pub fn reply_code(&self) -> u8 {
        self.pressure.level().as_u8()
    }

    /// Writes off the entire backlog at [`LossSite::Drain`] (the graceful
    /// drain's flush) and returns the count.
    pub fn drain_write_off(&mut self) -> u64 {
        let mut n = 0u64;
        while self.pop_backlog().is_some() {
            n += 1;
        }
        self.ledger.record_n(LossSite::Drain, n);
        n
    }

    /// Accounts `n` arrivals that came after the drain cutoff and were
    /// written off without being offered.
    pub fn write_off_late(&mut self, n: u64) {
        self.offered += n;
        self.ledger.record_n(LossSite::Drain, n);
    }

    /// Sabotage hook for the cluster's violation-path test: forges a shed
    /// on the first fully protected stream (or stream 0), which must trip
    /// the protected-floor invariant.
    pub fn force_protected_shed(&mut self) {
        let streams = self.served_per_slot.len();
        let victim = (0..streams)
            .find(|&s| self.protection(s) >= FULLY_PROTECTED)
            .unwrap_or(0);
        self.shedder.record_shed(victim);
    }

    /// The shareable pressure handle (lock-free reads from any thread).
    pub fn shared_pressure(&self) -> Arc<SharedPressure> {
        Arc::clone(&self.shared)
    }

    /// Current pressure level.
    pub fn level(&self) -> PressureLevel {
        self.pressure.level()
    }

    /// Pressure-level transitions so far (hysteresis audit).
    pub fn pressure_transitions(&self) -> u64 {
        self.pressure.transitions()
    }

    /// The loss ledger (exact by-site partition of every refusal).
    pub fn ledger(&self) -> &LossLedger {
        &self.ledger
    }

    /// Arrivals offered so far (including late write-offs).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Arrivals admitted into the backlog.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Shed proposals vetoed for protected streams.
    pub fn vetoes(&self) -> u64 {
        self.vetoes
    }

    /// Packets served out of the backlog so far.
    pub fn served_total(&self) -> u64 {
        self.served
    }

    /// Served counts per stream.
    pub fn served_per_slot(&self) -> &[u64] {
        &self.served_per_slot
    }

    /// Current backlog depth (0 without RED).
    pub fn backlog_len(&self) -> usize {
        self.red.as_ref().map_or(0, RedQueue::len)
    }

    /// Streams managed.
    pub fn slots(&self) -> usize {
        self.served_per_slot.len()
    }

    /// Packets shed from `stream` so far.
    pub fn shed_for(&self, stream: usize) -> u64 {
        self.shedder.shed(stream)
    }

    /// Protection (‰) of `stream`.
    pub fn protection(&self, stream: usize) -> u16 {
        self.admission.class(stream).map_or(0, |c| c.protection)
    }

    /// The conservation identity: every offered packet was `transmitted`,
    /// is `still_queued` in the caller's backlog, or is at exactly one
    /// ledger site; and the gate's backlog agrees with the caller's.
    pub fn conserves(&self, transmitted: u64, still_queued: u64) -> bool {
        self.offered == transmitted + still_queued + self.ledger.total()
            && self.backlog_len() as u64 == still_queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wc(num: u8, den: u8) -> WindowConstraint {
        WindowConstraint { num, den }
    }

    /// Two loss-tolerant streams (3/4) and one tight stream (0/1 → fully
    /// protected), generous buckets, small RED band so drops start early.
    fn gate() -> Gate {
        let windows = [wc(3, 4), wc(3, 4), wc(0, 1)];
        Gate::from_config(GateConfig::from_windows(
            &windows,
            1_000,
            4_000,
            RedConfig {
                min_th: 4.0,
                max_th: 12.0,
                max_p: 0.5,
                weight: 0.5,
                capacity: 32,
            },
            7,
        ))
    }

    #[test]
    fn uncongested_arrivals_all_admit() {
        let mut g = gate();
        for i in 0..12 {
            let s = i % 3;
            assert_eq!(g.offer(s), GateVerdict::Admitted);
            g.served(s); // drain immediately: occupancy never builds
            g.tick_at(0, 64);
        }
        assert_eq!(g.ledger().total(), 0);
        assert!(g.conserves(12, 0));
    }

    /// An arrival on the backlog-holding rows: a stream and a tag.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Pkt {
        slot: u32,
        tag: u16,
    }

    impl BacklogItem for Pkt {
        type Arrival = Pkt;
        fn split(p: Pkt) -> (usize, Pkt) {
            (p.slot as usize, p)
        }
    }

    /// What one input row of `protected_stream_is_never_shed` produced.
    struct Protected {
        streams: usize,
        protected: usize,
        shed: Vec<u64>,
        admitted: Vec<u64>,
        vetoes: u64,
        ledger_shed: u64,
        conserves: bool,
    }

    /// The RED-mirror row: 3/4, 3/4, 0/1 behind the small RED band; far
    /// more offered than served, the mirror held inside the RED band
    /// (above max_th, below hard capacity) so the policy path decides
    /// every drop, never the tail-drop backstop.
    fn red_mirror_row() -> Protected {
        let mut g = gate();
        let (mut shed, mut admitted) = (vec![0; 3], vec![0; 3]);
        for i in 0..300 {
            let s = i % 3;
            match g.offer(s) {
                GateVerdict::Admitted => admitted[s] += 1,
                GateVerdict::Shed => shed[s] += 1,
                GateVerdict::RejectedAdmission => {}
            }
            while g.backlog_len() > 16 {
                g.served(s);
            }
            g.tick_at(g.backlog_len(), 32);
        }
        let conserves = g.conserves(g.served_total(), g.backlog_len() as u64);
        Protected {
            streams: 3,
            protected: 2,
            shed,
            admitted,
            vetoes: g.vetoes(),
            ledger_shed: g.ledger().shed,
            conserves,
        }
    }

    /// The RED-backlog row: 0/1 and 3/4 with effectively unlimited
    /// admission, so pressure lands on RED and the shedder; the backlog is
    /// held just under capacity so the RED average sits in the early-drop
    /// region while serving keeps the tolerant window regaining headroom.
    fn red_backlog_row() -> Protected {
        let windows = [wc(0, 1), wc(3, 4)];
        let mut g = Gate::<Pkt>::new(&windows, 1_000_000, 2_000_000, RedConfig::classic(8), 7);
        let (mut shed, mut admitted) = (vec![0; 2], vec![0; 2]);
        for t in 0..20_000u32 {
            let s = (t % 2) as usize;
            match g.offer(Pkt {
                slot: s as u32,
                tag: t as u16,
            }) {
                GateVerdict::Admitted => admitted[s] += 1,
                GateVerdict::Shed => shed[s] += 1,
                GateVerdict::RejectedAdmission => {}
            }
            while g.backlog_len() > 6 {
                match g.pop_backlog() {
                    Some(a) => g.mark_served(a.slot as usize),
                    None => break,
                }
            }
            g.tick();
        }
        let conserves = g.conserves(g.served_total(), g.backlog_len() as u64);
        Protected {
            streams: 2,
            protected: 0,
            shed,
            admitted,
            vetoes: g.vetoes(),
            ledger_shed: g.ledger().shed,
            conserves,
        }
    }

    /// The pressure-only row: 0/1 and 3/4 at one token per tick each, a
    /// saturated backlog holding the pressure at Overloaded.
    fn pressure_only_row() -> Protected {
        let mut g: Gate = Gate::new(&[wc(0, 1), wc(3, 4)], 1000, 2000, None, 0);
        let (mut shed, mut admitted) = (vec![0; 2], vec![0; 2]);
        for _ in 0..2000 {
            for s in 0..2 {
                match g.offer(s) {
                    GateVerdict::Admitted => admitted[s] += 1,
                    GateVerdict::Shed => shed[s] += 1,
                    GateVerdict::RejectedAdmission => {}
                }
            }
            g.tick_at(100, 100);
        }
        // Without RED the gate keeps no backlog: admitted arrivals left.
        let conserves = g.conserves(g.admitted(), 0);
        Protected {
            streams: 2,
            protected: 0,
            shed,
            admitted,
            vetoes: g.vetoes(),
            ledger_shed: g.ledger().shed,
            conserves,
        }
    }

    #[test]
    fn protected_stream_is_never_shed() {
        let rows = [
            ("RED mirror", red_mirror_row()),
            ("RED backlog", red_backlog_row()),
            ("pressure only", pressure_only_row()),
        ];
        for (name, o) in rows {
            let tolerant = (0..o.streams).filter(|&s| s != o.protected);
            let tolerant_shed: u64 = tolerant.clone().map(|s| o.shed[s]).sum();
            assert!(tolerant_shed > 0, "{name}: tolerant streams get shed");
            assert_eq!(
                o.shed[o.protected], 0,
                "{name}: protected stream is never shed"
            );
            assert_eq!(
                o.ledger_shed, tolerant_shed,
                "{name}: every shed was a tolerant stream's"
            );
            assert!(
                o.vetoes > 0,
                "{name}: protected arrivals rode through on vetoes"
            );
            for s in tolerant {
                assert!(
                    o.admitted[o.protected] > o.admitted[s],
                    "{name}: protection shows in admit counts"
                );
            }
            assert!(o.conserves, "{name}: conservation");
        }
    }

    #[test]
    fn admission_squeeze_under_pressure() {
        // Tight buckets: 1 token per tick, burst 1. Under Overloaded
        // pressure the tolerant streams' refill is right-shifted to 0
        // every tick (1 >> 3), so only the protected stream keeps flowing.
        let windows = [wc(3, 4), wc(0, 1)];
        let mut g = Gate::from_config(GateConfig::from_windows(
            &windows,
            1_000,
            1_000,
            RedConfig::classic(1024),
            1,
        ));
        // Force Overloaded: saturate occupancy past the rise threshold and
        // past the dwell.
        for _ in 0..64 {
            g.tick_at(1000, 1000);
        }
        assert_eq!(g.level(), PressureLevel::Overloaded);
        let mut ok = [0u64; 2];
        for _ in 0..100 {
            for (s, count) in ok.iter_mut().enumerate() {
                if g.offer(s) == GateVerdict::Admitted {
                    *count += 1;
                    g.served(s);
                }
            }
            g.tick_at(1000, 1000);
        }
        assert!(
            ok[1] >= 90,
            "protected stream keeps its refill under pressure: {ok:?}"
        );
        assert!(
            ok[0] <= ok[1] / 4,
            "tolerant stream squeezed to a trickle: {ok:?}"
        );
        assert_eq!(
            g.ledger().admission,
            g.offered() - g.admitted(),
            "all refusals here are admission-site"
        );
    }

    #[test]
    fn ledger_partitions_every_refusal() {
        let mut g = gate();
        let mut verdicts = [0u64; 3];
        for i in 0..500 {
            match g.offer(i % 3) {
                GateVerdict::Admitted => verdicts[0] += 1,
                GateVerdict::RejectedAdmission => verdicts[1] += 1,
                GateVerdict::Shed => verdicts[2] += 1,
            }
            g.tick_at(g.backlog_len(), 32);
        }
        assert_eq!(g.offered(), 500);
        assert_eq!(g.admitted(), verdicts[0]);
        assert_eq!(g.ledger().admission, verdicts[1]);
        assert_eq!(g.ledger().shed, verdicts[2]);
        assert!(g.conserves(0, g.admitted()), "nothing transmitted yet");
    }

    #[test]
    fn traced_reasons_refine_the_verdicts() {
        let mut g = gate();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..500 {
            let (verdict, reason) = g.offer_traced(i % 3);
            // Every reason is consistent with its verdict.
            match verdict {
                GateVerdict::Admitted => assert!(matches!(
                    reason,
                    GateReason::Admitted | GateReason::VetoReadmit
                )),
                GateVerdict::RejectedAdmission => {
                    assert_eq!(reason, GateReason::AdmissionReject);
                }
                GateVerdict::Shed => assert!(matches!(
                    reason,
                    GateReason::RedEarly | GateReason::RedForced | GateReason::TailDrop
                )),
            }
            seen.insert(reason.code());
            g.tick_at(g.backlog_len(), 32);
        }
        assert!(
            seen.contains(&GateReason::Admitted.code())
                && seen.contains(&GateReason::AdmissionReject.code()),
            "drive loop exercised multiple decision points: {seen:?}"
        );
    }

    #[test]
    fn pressure_reaches_remote_throttlers() {
        let mut g = gate();
        let remote = g.shared_pressure();
        assert_eq!(remote.level(), PressureLevel::Nominal);
        for _ in 0..64 {
            g.tick_at(950, 1000);
        }
        assert_eq!(remote.level(), PressureLevel::Overloaded);
        assert!(SharedPressure::holdback_per_4(remote.level()) > 0);
        for _ in 0..64 {
            g.tick_at(0, 1000);
        }
        assert_eq!(remote.level(), PressureLevel::Nominal);
        assert_eq!(SharedPressure::holdback_per_4(remote.level()), 0);
    }

    /// A gate without RED, as a cluster node runs it.
    fn pressure_gate(windows: &[WindowConstraint]) -> Gate {
        Gate::new(windows, 1000, 2000, None, 0)
    }

    #[test]
    fn losses_partition_exactly() {
        let mut g = pressure_gate(&[WindowConstraint::new(0, 1), WindowConstraint::new(3, 4)]);
        let mut admitted = 0u64;
        let offered = 600u64;
        for t in 0..offered {
            let slot = (t % 2) as usize;
            if g.offer(slot) == GateVerdict::Admitted {
                admitted += 1;
            }
            // Saturated fabric: full occupancy drives the gate to
            // Overloaded and keeps it there.
            g.tick_at(100, 100);
        }
        assert_eq!(
            admitted + g.ledger().total(),
            offered,
            "every offer is admitted or ledgered"
        );
        assert!(g.ledger().total() > 0, "2-slot demand at 1×/slot sheds");
    }

    #[test]
    fn nominal_pressure_admits_within_rate() {
        let mut g = pressure_gate(&[WindowConstraint::new(0, 1)]);
        let mut admitted = 0;
        for _ in 0..100 {
            g.tick_at(0, 100);
            if g.offer(0) == GateVerdict::Admitted {
                admitted += 1;
            }
        }
        assert!(admitted >= 99, "1×-rate stream passes untouched");
        assert_eq!(g.ledger().shed, 0);
    }

    #[test]
    fn forced_protected_shed_is_visible() {
        let mut g = pressure_gate(&[WindowConstraint::new(0, 1), WindowConstraint::new(1, 2)]);
        assert_eq!(g.shed_for(0), 0);
        g.force_protected_shed();
        assert_eq!(g.shed_for(0), 1, "the sabotage lands on the protected slot");
    }
}
