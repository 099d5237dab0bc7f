//! The multi-threaded endsystem pipeline over the SPSC rings.
//!
//! Three threads mirror the paper's concurrency design (§4.2, "concurrency
//! between packet queuing, scheduling and transmission"): a **producer**
//! pushes arrivals into an SPSC ring, a **scheduler** drains it into the
//! fabric and pushes each decision's winners into a second SPSC ring, and
//! a **transmitter** consumes them and accounts per-stream service.
//!
//! No locks anywhere on the data path — only the two rings. [`run_threaded`]
//! is the one driver; its [`ThreadedOptions`] engage, independently and at
//! run time, an overload gate (which also paces the producer), a fault
//! injector, lifecycle spans and registry telemetry. Loss is classified by
//! site and conserved exactly: `total + lost` equals the offered load.

use crate::faults::EndsystemFaults;
use crate::spsc::{spsc_ring, Consumer, Producer, RingStats};
use ss_core::{DecisionWatchdog, Fabric, FabricConfig, LatePolicy, StreamState, WatchdogVerdict};
use ss_overload::{Gate, GateConfig, GateVerdict, LossLedger, LossSite, SharedPressure};
use ss_types::{Error, Result, Wrap16};
use std::time::Instant;

#[cfg(feature = "telemetry")]
use ss_telemetry::span::detail::{self, DECISION_BATCHED, DECISION_SCALAR, SHED_SHARD};
#[cfg(feature = "telemetry")]
use ss_telemetry::{SharedFlightRecorder, SpanRecorder, Stage, TraceTag};
#[cfg(feature = "faults")]
use std::sync::Arc;

/// An arrival message on the producer → scheduler ring.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalMsg {
    /// Destination slot.
    pub slot: usize,
    /// 16-bit arrival tag.
    pub tag: Wrap16,
    /// The packet's lifecycle trace tag (read on a traced run only).
    pub trace: TraceWord,
}

/// A lifecycle trace tag on the rings: zero-sized without `telemetry`.
#[cfg(feature = "telemetry")]
pub type TraceWord = u64;
/// A lifecycle trace tag on the rings (zero-sized without `telemetry`).
#[cfg(not(feature = "telemetry"))]
pub type TraceWord = ();

/// What a threaded run engages beyond the plain pipeline (default: none).
#[derive(Clone, Default)]
#[non_exhaustive]
pub struct ThreadedOptions {
    /// Overload gate in front of the fabric, on the scheduler thread; the
    /// producer holds back on its published pressure.
    pub gate: Option<GateConfig>,
    /// Fault injector on the fabric and the producer's ring seam, credited
    /// with every packet lost to a fault and every watchdog trip.
    #[cfg(feature = "faults")]
    pub faults: Option<(Arc<ss_faults::FaultInjector>, ss_faults::RetryPolicy)>,
    /// Lifecycle spans: `(span_capacity, flight_capacity)` events per
    /// thread's track and in the always-on flight recorder.
    #[cfg(feature = "telemetry")]
    pub trace: Option<(usize, usize)>,
    /// Registry the fabric publishes into, with its trace capacity; ring
    /// and pipeline statistics (`ss_endsystem_*`) follow after the run.
    #[cfg(feature = "telemetry")]
    pub telemetry: Option<(ss_telemetry::Registry, usize)>,
}

/// Results of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Packets transmitted per slot.
    pub per_slot: Vec<u64>,
    /// Total packets through the pipeline.
    pub total: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// End-to-end packets/second.
    pub pps: f64,
    /// Producer → scheduler arrival-ring statistics.
    pub arr_ring: RingStats,
    /// Scheduler → transmitter winner-ID-ring statistics.
    pub id_ring: RingStats,
    /// Packets lost: dropped at an overflowing arrival ring, refused by
    /// the gate, expired under `LatePolicy::Drop`, or abandoned with a
    /// stuck fabric. Equals `loss.total()`.
    pub lost: u64,
    /// The same loss, classified by the one site that consumed each packet.
    pub loss: LossLedger,
    /// The gate's accounting, when a gate ran.
    pub gate: Option<GateCounters>,
    /// The lifecycle artifacts, when tracing ran.
    #[cfg(feature = "telemetry")]
    pub trace: Option<TraceArtifacts>,
    /// Per-stream QoS, when the fabric published into a registry.
    #[cfg(feature = "telemetry")]
    pub qos: Option<ss_telemetry::QosSet>,
}

/// A gated run's gate accounting (its refusals are in the report's loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateCounters {
    /// Arrivals offered to the gate by the scheduler thread.
    pub offered: u64,
    /// Arrivals the gate admitted into the fabric.
    pub admitted: u64,
    /// RED drop proposals vetoed for protected streams.
    pub vetoes: u64,
    /// Pressure-level transitions over the run.
    pub pressure_transitions: u64,
    /// Producer pacing pauses taken in response to published pressure.
    pub holdbacks: u64,
}

/// The lifecycle artifacts of a traced run.
#[cfg(feature = "telemetry")]
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Drained span tracks: producer, scheduler, transmitter.
    pub tracks: Vec<ss_telemetry::TrackDump>,
    /// The automatic flight dump of a watchdog trip; `None` when healthy.
    pub flight_dump: Option<ss_telemetry::FlightDump>,
    /// Watchdog trips observed by the scheduler thread.
    pub watchdog_trips: u64,
    /// Timestamp scale for the events' `tsc` fields.
    pub ticks_per_us: f64,
}

/// A winner on the scheduler → transmitter ring: slot and trace tag.
type Winner = (u8, TraceWord);

/// Capacity of each SPSC ring, and of the scheduler's drain batch.
const RING_CAPACITY: usize = 4096;

/// Unproductive-with-backlog decision cycles before the fabric is declared
/// stuck: well above a transient injected wedge (8 cycles by default).
const SCHEDULER_STALL_THRESHOLD: u32 = 64;

/// Runs the three-thread pipeline: `arrivals_per_slot` packets per slot
/// are scheduled by a fabric built from `config` and `states`, and drained
/// by the transmitter on the calling thread.
///
/// # Panics
/// Panics if `states.len() != config.slots`.
pub fn run_threaded(
    config: FabricConfig,
    states: Vec<StreamState>,
    arrivals_per_slot: u64,
    opts: ThreadedOptions,
) -> Result<ThreadedReport> {
    assert_eq!(states.len(), config.slots, "one StreamState per slot");
    let slots = config.slots;
    let drop_late = states.iter().any(|s| s.late_policy == LatePolicy::Drop);
    let mut fabric = Fabric::new(config)?;
    for (i, st) in states.into_iter().enumerate() {
        let period = st.request_period;
        fabric.load_stream(i, st, period)?;
    }
    #[cfg_attr(not(feature = "faults"), allow(unused_mut))]
    let mut faults = EndsystemFaults::new();
    #[cfg(feature = "faults")]
    if let Some((inj, policy)) = &opts.faults {
        faults.attach(inj.clone(), *policy);
        fabric.attach_faults(inj.clone());
    }
    #[cfg(feature = "telemetry")]
    if let Some((registry, capacity)) = &opts.telemetry {
        fabric.attach_telemetry(registry, 0, *capacity);
    }
    let gate = opts.gate.map(Gate::from_config);
    let pressure = gate.as_ref().map(Gate::shared_pressure);
    #[cfg(feature = "telemetry")]
    let recorders = opts
        .trace
        .map(|(span, flight)| (SpanRecorder::new(span), SharedFlightRecorder::new(flight)));
    #[cfg(feature = "telemetry")]
    let mut prod_spans = Spans::mint(&recorders, "producer", 0);
    let sched = Scheduler {
        fabric,
        gate,
        dropped: drop_late.then(|| vec![0; slots]),
        loss: LossLedger::new(),
        watchdog: DecisionWatchdog::new(SCHEDULER_STALL_THRESHOLD, 1),
        #[cfg(feature = "telemetry")]
        spans: Spans::mint(&recorders, "scheduler", slots),
    };
    #[cfg(feature = "telemetry")]
    let mut tx_spans = Spans::mint(&recorders, "transmitter", 0);

    let (mut arr_tx, arr_rx) = spsc_ring::<ArrivalMsg>(RING_CAPACITY);
    let (id_tx, mut id_rx) = spsc_ring::<Winner>(RING_CAPACITY);
    let start = Instant::now();

    let producer = std::thread::spawn(move || {
        let mut loss = LossLedger::new();
        let mut holdbacks = 0u64;
        for q in 0..arrivals_per_slot {
            for slot in 0..slots {
                if let Some(pressure) = &pressure {
                    // Hierarchical backpressure: hold back 0, 1 or 3 of
                    // every 4 arrivals per level — a yield, not a drop.
                    let hb = SharedPressure::holdback_per_4(pressure.level()) as u64;
                    if (q * slots as u64 + slot as u64) % 4 < hb {
                        holdbacks += 1;
                        std::thread::yield_now();
                    }
                }
                let (tag, trace) = (Wrap16::from_wide(q), TraceWord::default());
                let mut msg = ArrivalMsg { slot, tag, trace };
                #[cfg(feature = "telemetry")]
                prod_spans.admit(&mut msg, q);
                // One fault sample per full-ring episode, not per spin.
                let mut fresh_episode = true;
                let pushed = loop {
                    #[cfg(feature = "telemetry")]
                    prod_spans.stamp();
                    match arr_tx.push(msg) {
                        Ok(()) => break true,
                        // Injected overflow burst on a full ring: drop the
                        // packet instead of spinning against the spike.
                        Err(_) if fresh_episode && faults.ring_overflows() => break false,
                        Err(back) => {
                            fresh_episode = false;
                            msg = back;
                            std::hint::spin_loop();
                        }
                    }
                };
                if !pushed {
                    loss.record(LossSite::Ring);
                }
                #[cfg(feature = "telemetry")]
                prod_spans.enqueued(msg.trace, slot, pushed);
            }
        }
        (loss, holdbacks) // dropping arr_tx disconnects the ring
    });

    let scheduler = std::thread::spawn(move || sched.run(arr_rx, id_tx));

    // The transmitter stops at the expected count or when the winner ring
    // disconnects (a stuck fabric was abandoned), so loss never hangs it.
    let mut per_slot = vec![0u64; slots];
    let expected = arrivals_per_slot * slots as u64;
    let mut got = 0u64;
    while got < expected {
        match id_rx.pop() {
            Some((id, _trace)) => {
                per_slot[id as usize] += 1;
                got += 1;
                #[cfg(feature = "telemetry")]
                tx_spans.record(_trace, 0, Stage::Service, 0, id.into());
            }
            None if id_rx.is_disconnected() && id_rx.is_empty() => break,
            None => std::hint::spin_loop(),
        }
    }
    #[cfg(feature = "telemetry")]
    drop(tx_spans); // flushes the track for the report to drain

    let (mut loss, holdbacks) = joined(producer, "producer")?;
    #[cfg_attr(not(feature = "telemetry"), allow(unused_mut))]
    let (mut sched, arr_ring) = joined(scheduler, "scheduler")?;
    let wall_seconds = start.elapsed().as_secs_f64();
    let total: u64 = per_slot.iter().sum();
    loss.merge(&sched.loss);
    // Ring and shard loss is to faults; expiries (shed site) and the
    // gate's refusals are policy.
    #[cfg(feature = "faults")]
    if let Some((inj, _)) = &opts.faults {
        use std::sync::atomic::Ordering;
        let (stats, lost, trips) = (inj.stats(), loss.ring + loss.shard, sched.watchdog.trips());
        stats.lost_packets.fetch_add(lost, Ordering::Relaxed);
        stats.detected.fetch_add(trips, Ordering::Relaxed);
    }
    let gate = sched.gate.as_ref().map(|g| {
        loss.merge(g.ledger());
        GateCounters {
            offered: g.offered(),
            admitted: g.admitted(),
            vetoes: g.vetoes(),
            pressure_transitions: g.pressure_transitions(),
            holdbacks,
        }
    });
    let report = ThreadedReport {
        per_slot,
        total,
        wall_seconds,
        pps: total as f64 / wall_seconds,
        arr_ring,
        id_ring: id_rx.stats(),
        lost: loss.total(),
        loss,
        gate,
        #[cfg(feature = "telemetry")]
        trace: recorders.map(|(spans, flight)| TraceArtifacts {
            tracks: spans.drain(),
            flight_dump: flight.take_last_dump(),
            watchdog_trips: sched.watchdog.trips(),
            ticks_per_us: ss_telemetry::clock::ticks_per_us(),
        }),
        // Drains the fabric's locally batched observations into the registry.
        #[cfg(feature = "telemetry")]
        qos: opts.telemetry.as_ref().map(|_| {
            sched.fabric.flush_telemetry();
            sched.fabric.qos_snapshot()
        }),
    };
    #[cfg(feature = "telemetry")]
    if let Some((registry, _)) = &opts.telemetry {
        publish(registry, &report);
    }
    Ok(report)
}

/// Joins a pipeline thread, surfacing a panic as degraded mode.
fn joined<T>(handle: std::thread::JoinHandle<T>, role: &str) -> Result<T> {
    handle.join().map_err(|_| Error::DegradedMode {
        reason: format!("endsystem {role} thread panicked"),
    })
}

/// The scheduler thread's state.
struct Scheduler {
    fabric: Fabric,
    gate: Option<Gate>,
    /// Per-slot fabric drop counters at the last sweep, when some stream
    /// drops late packets: a delta is expiries leaving the backlog, each
    /// recorded once at the shed site.
    dropped: Option<Vec<u64>>,
    /// Ring- and shard-site loss, and expiries on an ungated run; the
    /// gate's refusals and expiries are in its ledger.
    loss: LossLedger,
    watchdog: DecisionWatchdog,
    #[cfg(feature = "telemetry")]
    spans: Spans,
}

impl Scheduler {
    /// Runs until the producer disconnected and the backlog drained or was
    /// abandoned; returns itself and the arrival ring's final statistics.
    fn run(mut self, mut rx: Consumer<ArrivalMsg>, mut ids: Producer<Winner>) -> (Self, RingStats) {
        let slots = self.fabric.config().slots;
        let mut pending = 0u64;
        // Reusable batch buffers and `decision_cycle_into`: the
        // steady-state loop never touches the heap.
        let mut arr_batch: Vec<(usize, Wrap16)> = Vec::with_capacity(RING_CAPACITY);
        #[cfg(feature = "telemetry")]
        let mut batch_traces: Vec<u64> = Vec::with_capacity(RING_CAPACITY);
        loop {
            arr_batch.clear();
            #[cfg(feature = "telemetry")]
            batch_traces.clear();
            while arr_batch.len() < arr_batch.capacity() {
                let Some(msg) = rx.pop() else { break };
                // Slots are validated here — a corrupt message is counted
                // as lost, so `push_arrivals` below cannot fail.
                if msg.slot >= slots {
                    self.loss.record(LossSite::Ring);
                    #[cfg(feature = "telemetry")]
                    self.spans
                        .record(msg.trace, 0, Stage::Shed, detail::SHED_RING, 0);
                } else if self.admit(&msg) {
                    arr_batch.push((msg.slot, msg.tag));
                    #[cfg(feature = "telemetry")]
                    batch_traces.push(msg.trace);
                }
            }
            match self.fabric.push_arrivals(&arr_batch) {
                Ok(()) => {
                    pending += arr_batch.len() as u64;
                    #[cfg(feature = "telemetry")]
                    self.spans
                        .deposit(self.fabric.decision_count(), &arr_batch, &batch_traces);
                }
                // Unreachable after validation; counted rather than panicked.
                Err(_) => self.loss.record_n(LossSite::Ring, arr_batch.len() as u64),
            }
            if let Some(gate) = &mut self.gate {
                // One control tick per sweep: ring occupancy plus fabric
                // backlog drive the pressure signal.
                let occupied = rx.len() + pending.min(RING_CAPACITY as u64) as usize;
                gate.tick_at(occupied, 2 * RING_CAPACITY);
            }
            if pending == 0 {
                if rx.is_disconnected() && rx.is_empty() {
                    break;
                }
                std::hint::spin_loop();
                continue;
            }
            let produced = self.fabric.decision_cycle_into().len() as u64;
            pending -= produced;
            #[cfg(feature = "telemetry")]
            let cycle = self.fabric.decision_count();
            for p in self.fabric.last_block() {
                let slot = p.slot.index();
                let mut id: Winner = (p.slot.raw(), TraceWord::default());
                #[cfg(feature = "telemetry")]
                self.spans.win(&mut id, cycle, self.fabric.is_batched());
                if let Some(gate) = &mut self.gate {
                    gate.served(slot);
                }
                while let Err(back) = ids.push(id) {
                    id = back;
                    std::hint::spin_loop();
                }
            }
            if let Some(seen_dropped) = &mut self.dropped {
                for (slot, seen) in seen_dropped.iter_mut().enumerate() {
                    let dropped = self.fabric.slot_counters(slot).map_or(*seen, |c| c.dropped);
                    while *seen < dropped {
                        *seen += 1;
                        pending = pending.saturating_sub(1);
                        match &mut self.gate {
                            Some(gate) => gate.expire(),
                            None => self.loss.record(LossSite::Shed),
                        }
                        #[cfg(feature = "telemetry")]
                        self.spans.expire(slot, cycle);
                    }
                }
            }
            if self.watchdog.observe(produced > 0, pending > 0) == WatchdogVerdict::Stuck {
                // A crashed card or chained wedges: write the backlog and
                // the still-ringed arrivals off to the dead scheduling path
                // (one site per packet), draining the producer dry.
                #[cfg(feature = "telemetry")]
                self.spans.trip(cycle, self.watchdog.trips());
                self.loss.record_n(LossSite::Shard, pending);
                loop {
                    match rx.pop() {
                        Some(_msg) => {
                            self.loss.record(LossSite::Shard);
                            #[cfg(feature = "telemetry")]
                            self.spans.msg(&_msg, cycle, Stage::Shed, SHED_SHARD);
                        }
                        None if rx.is_disconnected() && rx.is_empty() => break,
                        None => std::hint::spin_loop(),
                    }
                }
                break;
            }
        }
        #[cfg(feature = "telemetry")]
        drop(self.spans.on.take()); // flushes the track for the report
        let arr_ring = rx.stats(); // final: the producer has disconnected
        (self, arr_ring)
    }

    /// Runs `msg` through the gate, if any: `false` means refused.
    fn admit(&mut self, msg: &ArrivalMsg) -> bool {
        #[cfg(feature = "telemetry")]
        self.spans.msg(msg, 0, Stage::RingDequeue, 0);
        let Some(gate) = &mut self.gate else {
            return true;
        };
        let (verdict, _reason) = gate.offer_traced(msg.slot);
        let admitted = verdict == GateVerdict::Admitted;
        #[cfg(feature = "telemetry")]
        self.spans
            .verdict(msg, admitted, _reason.code(), self.fabric.decision_count());
        admitted
    }
}

/// One pipeline thread's lifecycle-span hooks: its track and the shared
/// flight recorder, or nothing on an untraced run.
#[cfg(feature = "telemetry")]
struct Spans {
    on: Option<(ss_telemetry::TrackRecorder, SharedFlightRecorder)>,
    /// Deposited-but-unserved tags, FIFO per slot: the fabric serves each
    /// slot in order, so the front tag is the next win's (or expiry's).
    admitted: Vec<std::collections::VecDeque<u64>>,
    /// The producer's last push-attempt timestamp.
    stamped: u64,
}

#[cfg(feature = "telemetry")]
type Recorders = Option<(SpanRecorder, SharedFlightRecorder)>;

#[cfg(feature = "telemetry")]
impl Spans {
    /// Mints the `name` track when the run is traced.
    fn mint(recorders: &Recorders, name: &str, slots: usize) -> Self {
        let on = recorders
            .as_ref()
            .map(|(spans, flight)| (spans.track(name), flight.clone()));
        let admitted = vec![std::collections::VecDeque::new(); slots];
        Self {
            on,
            admitted,
            stamped: 0,
        }
    }

    /// Records one stage crossing on this thread's track (`arg`: the slot).
    fn record(&mut self, tag: u64, cycle: u64, stage: Stage, detail: u8, arg: usize) {
        if let Some((track, _)) = &mut self.on {
            track.record(tag, cycle, stage, detail, arg as u32);
        }
    }

    /// Records one stage crossing of the packet `msg` carries.
    fn msg(&mut self, msg: &ArrivalMsg, cycle: u64, stage: Stage, detail: u8) {
        self.record(msg.trace, cycle, stage, detail, msg.slot);
    }

    /// Records one stage crossing on the track and in the flight recorder.
    fn record_flight(&mut self, tag: u64, cycle: u64, stage: Stage, detail: u8, arg: usize) {
        if let Some((track, flight)) = &mut self.on {
            let arg = arg as u32;
            track.record(tag, cycle, stage, detail, arg);
            let (tsc, track) = (ss_telemetry::clock::now_tsc(), track.id());
            flight.record(ss_telemetry::StageEvent {
                tag,
                tsc,
                cycle,
                track,
                stage,
                detail,
                arg,
            });
        }
    }

    /// Mints `msg`'s trace tag (arrival `q` on its slot) and records its
    /// admission.
    fn admit(&mut self, msg: &mut ArrivalMsg, q: u64) {
        msg.trace = TraceTag::new(0, msg.slot as u16, q as u32).0;
        self.msg(msg, 0, Stage::Admitted, 0);
    }

    /// Stamps a push attempt. Taken before the push, the stamp can never
    /// postdate the consumer's dequeue of the same packet.
    fn stamp(&mut self) {
        self.stamped = self.on.as_ref().map_or(0, |(track, _)| track.stamp());
    }

    /// Records the ring enqueue, or the terminal Shed of a burst drop, at
    /// the last push attempt's stamp.
    fn enqueued(&mut self, tag: u64, slot: usize, pushed: bool) {
        let (stage, detail) = match pushed {
            true => (Stage::RingEnqueue, 0),
            false => (Stage::Shed, detail::SHED_RING),
        };
        if let Some((track, _)) = &mut self.on {
            track.record_at(self.stamped, tag, 0, stage, detail, slot as u32);
        }
    }

    /// Records the gate's verdict; a refusal also gets a terminal Shed.
    fn verdict(&mut self, msg: &ArrivalMsg, admitted: bool, reason: u8, cycle: u64) {
        self.msg(msg, 0, Stage::GateVerdict, reason);
        if !admitted {
            self.record_flight(msg.trace, cycle, Stage::Shed, reason, msg.slot);
        }
    }

    /// Records the arrivals just deposited and queues their tags for wins.
    fn deposit(&mut self, cycle: u64, batch: &[(usize, Wrap16)], traces: &[u64]) {
        if self.on.is_some() {
            for (&(slot, _), &tag) in batch.iter().zip(traces) {
                self.record(tag, cycle, Stage::FabricArrival, 0, slot);
                self.admitted[slot].push_back(tag);
            }
        }
    }

    /// Records the decision win `id` carries and fills in its trace tag.
    fn win(&mut self, id: &mut Winner, cycle: u64, batched: bool) {
        let slot = usize::from(id.0);
        let arm = [DECISION_SCALAR, DECISION_BATCHED][usize::from(batched)];
        let tag = self.admitted[slot].pop_front();
        id.1 = tag.unwrap_or(TraceTag::CONTROL.0);
        self.record_flight(id.1, cycle, Stage::DecisionWin, arm, slot);
    }

    /// A `Drop`-policy expiry consumed `slot`'s head packet: terminal Shed.
    fn expire(&mut self, slot: usize, cycle: u64) {
        if let Some(tag) = self.admitted[slot].pop_front() {
            self.record(tag, cycle, Stage::Shed, detail::SHED_EXPIRED, slot);
        }
    }

    /// The watchdog tripped: record it, shed every written-off deposited
    /// packet, and take the automatic flight dump.
    fn trip(&mut self, cycle: u64, trips: u64) {
        let (tag, trips) = (TraceTag::CONTROL.0, trips as usize);
        self.record_flight(tag, cycle, Stage::WatchdogTrip, 0, trips);
        for slot in 0..self.admitted.len() {
            while let Some(tag) = self.admitted[slot].pop_front() {
                self.record(tag, cycle, Stage::Shed, SHED_SHARD, slot);
            }
        }
        if let Some((_, flight)) = &self.on {
            flight.auto_dump(ss_telemetry::DumpReason::WatchdogTrip, cycle);
        }
    }
}

/// Publishes the run's ring and pipeline statistics (`ss_endsystem_*`).
#[cfg(feature = "telemetry")]
fn publish(registry: &ss_telemetry::Registry, report: &ThreadedReport) {
    const PUSHES: &str = "Successful SPSC ring enqueues";
    const REJECTIONS: &str = "SPSC ring enqueues rejected by a full ring (backpressure)";
    const HIGH_WATER: &str = "Producer-observed SPSC ring occupancy high-water mark";
    const PACKETS: &str = "Packets through the threaded pipeline";
    const PPS: &str = "End-to-end packets per second of the last threaded run";
    for (ring, stats) in [("arrivals", &report.arr_ring), ("ids", &report.id_ring)] {
        let l: &[(&str, &str)] = &[("ring", ring)];
        registry
            .counter_labeled("ss_endsystem_ring_pushes_total", l, PUSHES)
            .add(stats.pushes);
        registry
            .counter_labeled("ss_endsystem_ring_rejections_total", l, REJECTIONS)
            .add(stats.rejections);
        let high_water = registry.gauge_labeled("ss_endsystem_ring_high_water", l, HIGH_WATER);
        high_water.fetch_max(stats.high_water as i64);
    }
    registry
        .counter("ss_endsystem_packets_total", PACKETS)
        .add(report.total);
    registry
        .gauge("ss_endsystem_pps", PPS)
        .set(report.pps as i64);
}

/// Convenience: an EDF fabric of `slots` always-backlogged streams
/// (request period = slot count, staggered first deadlines), run through
/// the plain threaded pipeline. Used by the examples and benches.
pub fn run_threaded_edf(
    slots: usize,
    kind: ss_hwsim::FabricConfigKind,
    arrivals_per_slot: u64,
) -> Result<ThreadedReport> {
    let (config, states) = (FabricConfig::edf(slots, kind), edf_states(slots));
    run_threaded(
        config,
        states,
        arrivals_per_slot,
        ThreadedOptions::default(),
    )
}

/// `slots` always-backlogged EDF streams with request period = slot count.
fn edf_states(slots: usize) -> Vec<StreamState> {
    (0..slots)
        .map(|_| StreamState {
            request_period: slots as u64,
            original_window: ss_types::WindowConstraint::ZERO,
            static_prio: 0,
            late_policy: LatePolicy::ServeLate,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_hwsim::FabricConfigKind;

    #[test]
    fn threaded_pipeline_conserves_packets() {
        let report = run_threaded_edf(4, FabricConfigKind::WinnerOnly, 2_000).unwrap();
        assert_eq!(report.total, 8_000);
        for (slot, &count) in report.per_slot.iter().enumerate() {
            assert_eq!(count, 2_000, "slot {slot}");
        }
        assert!(report.pps > 0.0);
        // Transmission conservation, now visible end to end: every arrival
        // entered the arrival ring and every winner ID left the ID ring.
        assert_eq!(report.arr_ring.pushes, 8_000);
        assert_eq!(report.id_ring.pushes, 8_000);
        assert!(report.arr_ring.high_water <= report.arr_ring.capacity);
        assert!(report.id_ring.high_water >= 1);
        assert_eq!(report.lost, 0, "fault-free run loses nothing");
        assert_eq!(report.loss.total(), 0, "ledger agrees: no loss anywhere");
    }

    #[cfg(feature = "faults")]
    #[test]
    fn quiet_injector_run_matches_fault_free() {
        use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
        use std::sync::Arc;
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states = edf_states(4);
        let inj = Arc::new(FaultInjector::new(11, FaultConfig::quiet()));
        let opts = ThreadedOptions {
            faults: Some((inj.clone(), RetryPolicy::default())),
            ..ThreadedOptions::default()
        };
        let report = run_threaded(config, states, 1_000, opts).unwrap();
        assert_eq!(report.total, 4_000);
        assert_eq!(report.lost, 0);
        assert_eq!(inj.stats().snapshot().total_injected(), 0);
        assert_eq!(inj.stats().snapshot().lost_packets, 0);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn stuck_fabric_trips_watchdog_and_bounds_loss() {
        use ss_faults::{FaultConfig, FaultInjector, FaultSite, RetryPolicy};
        use std::sync::atomic::Ordering;
        use std::sync::Arc;
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states = edf_states(4);
        // Every decision cycle wedges, and wedges chain: the fabric never
        // produces again, so the scheduler's watchdog must trip instead of
        // the run hanging or panicking.
        let inj = Arc::new(FaultInjector::new(
            13,
            FaultConfig {
                decision_rate_ppm: 1_000_000,
                ..FaultConfig::quiet()
            },
        ));
        let opts = ThreadedOptions {
            faults: Some((inj.clone(), RetryPolicy::default())),
            ..ThreadedOptions::default()
        };
        let report = run_threaded(config, states, 500, opts).unwrap();
        assert!(report.lost > 0, "watchdog abandoned the backlog");
        assert_eq!(
            report.total + report.lost,
            2_000,
            "every arrival is either transmitted or counted lost"
        );
        let stats = inj.stats();
        assert!(stats.detected.load(Ordering::Relaxed) >= 1, "trip detected");
        assert_eq!(
            stats.lost_packets.load(Ordering::Relaxed),
            report.lost,
            "injector ledger matches the report"
        );
        assert!(stats.injected(FaultSite::DecisionCycle) >= 1);
        // Site classification: every packet the watchdog wrote off belongs
        // to the dead scheduling path, none to the rings — and the
        // partition sums exactly to the scalar.
        assert_eq!(report.loss.total(), report.lost, "partition is exact");
        assert_eq!(report.loss.shard, report.lost, "all loss at the shard site");
        assert_eq!(report.loss.ring, 0);
        assert_eq!(report.loss.admission, 0);
        assert_eq!(report.loss.shed, 0);
    }

    #[cfg(feature = "faults")]
    #[test]
    fn ring_burst_loss_classified_at_ring_site() {
        use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
        use std::sync::Arc;
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states = edf_states(4);
        // Only SPSC overflow bursts are armed: any loss must be classified
        // at the ring site, and the by-site partition must equal the scalar
        // exactly (the double-count this ledger was introduced to rule out).
        let inj = Arc::new(FaultInjector::new(
            21,
            FaultConfig {
                spsc_rate_ppm: 400_000,
                ..FaultConfig::quiet()
            },
        ));
        let opts = ThreadedOptions {
            faults: Some((inj, RetryPolicy::default())),
            ..ThreadedOptions::default()
        };
        let report = run_threaded(config, states, 2_000, opts).unwrap();
        assert_eq!(
            report.total + report.lost,
            8_000,
            "transmitted + lost covers every arrival exactly once"
        );
        assert_eq!(report.loss.total(), report.lost, "partition is exact");
        assert_eq!(report.loss.ring, report.lost, "only ring-site loss armed");
        assert_eq!(report.loss.shard, 0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn instrumented_run_publishes_metrics_and_qos() {
        use ss_telemetry::{MetricValue, Registry};
        let registry = Registry::new();
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states = edf_states(4);
        let opts = ThreadedOptions {
            telemetry: Some((registry.clone(), 128)),
            ..ThreadedOptions::default()
        };
        let report = run_threaded(config, states, 500, opts).unwrap();
        let qos = report.qos.clone().expect("registry attached");
        assert_eq!(report.total, 2_000);
        assert_eq!(qos.streams.len(), 4);
        let qos_serviced: u64 = qos.streams.iter().map(|s| s.serviced).sum();
        assert_eq!(qos_serviced, 2_000);
        assert!(qos.service_fairness() > 0.9, "EDF round-robins equally");
        let snap = registry.snapshot();
        let pushes: u64 = snap
            .metrics
            .iter()
            .filter(|m| m.name == "ss_endsystem_ring_pushes_total")
            .map(|m| match m.value {
                MetricValue::Counter(c) => c,
                _ => panic!("counter expected"),
            })
            .sum();
        assert_eq!(pushes, 4_000, "both rings carried every packet");
        assert!(snap
            .metrics
            .iter()
            .any(|m| m.name == "ss_fabric_decision_cycles_total"));
        assert!(snap
            .to_prometheus()
            .contains("ss_endsystem_ring_high_water"));
    }

    #[test]
    fn overload_run_with_headroom_loses_nothing() {
        use ss_overload::RedConfig;
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states = edf_states(4);
        let windows = vec![ss_types::WindowConstraint::ZERO; 4];
        // Generous buckets + a RED band far above any real occupancy: the
        // gate must be transparent when there is headroom.
        let gate = GateConfig::from_windows(
            &windows,
            1_000_000,
            4_000_000,
            RedConfig::classic(1 << 20),
            3,
        );
        let opts = ThreadedOptions {
            gate: Some(gate),
            ..ThreadedOptions::default()
        };
        let run = run_threaded(config, states, 2_000, opts).unwrap();
        let gate = run.gate.expect("gate ran");
        assert_eq!(run.total, 8_000);
        assert_eq!(run.lost, 0, "no loss with headroom");
        assert_eq!(gate.offered, 8_000);
        assert_eq!(gate.admitted, 8_000);
        assert_eq!(run.loss.total(), 0);
    }

    #[test]
    fn overload_run_conserves_under_starved_admission() {
        use ss_overload::{RedConfig, StreamClass};
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let states = edf_states(4);
        // Buckets refill a fraction of a token per scheduler sweep: most
        // arrivals must be refused at admission — classified, conserved,
        // and panic-free.
        let mut gate = GateConfig::from_windows(
            &[ss_types::WindowConstraint { num: 3, den: 4 }; 4],
            1_000_000,
            4_000_000,
            RedConfig::classic(1 << 20),
            5,
        );
        gate.classes = (0..4)
            .map(|_| StreamClass {
                rate_mtok: 10,
                burst_mtok: 2_000,
                protection: 0,
            })
            .collect();
        let opts = ThreadedOptions {
            gate: Some(gate),
            ..ThreadedOptions::default()
        };
        let run = run_threaded(config, states, 2_000, opts).unwrap();
        assert_eq!(run.gate.expect("gate ran").offered, 8_000);
        assert!(run.loss.admission > 0, "starved buckets refuse");
        assert_eq!(
            run.total + run.lost,
            8_000,
            "transmitted + classified loss covers every arrival"
        );
        assert_eq!(run.loss.total(), run.lost, "partition exact");
    }

    #[test]
    fn drop_policy_expiries_are_conserved() {
        use ss_overload::RedConfig;
        // Four 1/2-window streams at twice the fabric's service rate: the
        // backlog outgrows every deadline and `Drop` expires packets.
        let states = vec![
            StreamState {
                request_period: 2,
                original_window: ss_types::WindowConstraint { num: 1, den: 2 },
                static_prio: 0,
                late_policy: LatePolicy::Drop,
            };
            4
        ];
        let windows = vec![ss_types::WindowConstraint { num: 1, den: 2 }; 4];
        // Ungated, and behind a transparent gate whose mirror must follow
        // the expiries out of the backlog.
        let gates = [
            None,
            Some(GateConfig::from_windows(
                &windows,
                1_000_000,
                4_000_000,
                RedConfig::classic(1 << 20),
                3,
            )),
        ];
        for gate in gates {
            let gated = gate.is_some();
            let opts = ThreadedOptions {
                gate,
                ..ThreadedOptions::default()
            };
            let config = FabricConfig::dwcs(4, FabricConfigKind::WinnerOnly);
            let run = run_threaded(config, states.clone(), 2_000, opts).unwrap();
            assert!(run.loss.shed > 0, "gated {gated}: expiries happened");
            assert_eq!(
                run.total + run.lost,
                8_000,
                "gated {gated}: transmitted + classified loss covers every arrival"
            );
            assert_eq!(run.loss.total(), run.lost, "gated {gated}: partition exact");
        }
    }

    #[test]
    fn block_mode_also_conserves() {
        let report = run_threaded_edf(8, FabricConfigKind::Base, 500).unwrap();
        assert_eq!(report.total, 4_000);
        for &count in &report.per_slot {
            assert_eq!(count, 500);
        }
    }

    #[test]
    fn two_slot_minimal_run() {
        let report = run_threaded_edf(2, FabricConfigKind::WinnerOnly, 100).unwrap();
        assert_eq!(report.total, 200);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn traced_run_covers_full_lifecycle() {
        use ss_telemetry::span::detail;
        use ss_telemetry::{stitch, validate_causal, validate_perfetto_schema, Stage};
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let opts = ThreadedOptions {
            trace: Some((1 << 15, 256)),
            ..ThreadedOptions::default()
        };
        let report = run_threaded(config, edf_states(4), 500, opts).unwrap();
        let run = report.trace.expect("traced");
        assert_eq!(report.total, 2_000);
        assert_eq!(report.lost, 0);
        assert_eq!(run.watchdog_trips, 0);
        assert!(run.flight_dump.is_none(), "healthy run: no automatic dump");
        assert_eq!(run.tracks.len(), 3, "producer, scheduler, transmitter");
        for t in &run.tracks {
            assert_eq!(t.dropped, 0, "track {} overflowed", t.name);
        }
        let events = stitch(&run.tracks);
        // Every arrival crosses every stage exactly once: admission and
        // enqueue on the producer, dequeue/deposit/win on the scheduler,
        // service on the transmitter.
        for (stage, want) in [
            (Stage::Admitted, 2_000),
            (Stage::RingEnqueue, 2_000),
            (Stage::RingDequeue, 2_000),
            (Stage::FabricArrival, 2_000),
            (Stage::DecisionWin, 2_000),
            (Stage::Service, 2_000),
        ] {
            let got = events.iter().filter(|e| e.stage == stage).count();
            assert_eq!(got, want, "stage {}", stage.name());
        }
        assert!(events
            .iter()
            .filter(|e| e.stage == Stage::DecisionWin)
            .all(|e| e.detail == detail::DECISION_SCALAR));
        validate_causal(&events).expect("lifecycle order holds per tag");
        let json = ss_telemetry::perfetto_json(&run.tracks, run.ticks_per_us);
        validate_perfetto_schema(&json).expect("trace-event schema");
        assert!(run.ticks_per_us > 0.0);
    }

    #[cfg(all(feature = "telemetry", feature = "faults"))]
    #[test]
    fn traced_stuck_run_auto_dumps_flight() {
        use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
        use ss_telemetry::{stitch, validate_causal, DumpReason, Stage};
        use std::sync::Arc;
        let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
        let inj = Arc::new(FaultInjector::new(
            13,
            FaultConfig {
                decision_rate_ppm: 1_000_000,
                ..FaultConfig::quiet()
            },
        ));
        let opts = ThreadedOptions {
            trace: Some((1 << 15, 512)),
            faults: Some((inj, RetryPolicy::default())),
            ..ThreadedOptions::default()
        };
        let report = run_threaded(config, edf_states(4), 500, opts).unwrap();
        let run = report.trace.expect("traced");
        assert!(run.watchdog_trips >= 1, "chained wedge trips the watchdog");
        assert_eq!(report.total + report.lost, 2_000, "conserved");
        let dump = run.flight_dump.expect("watchdog trip dumps the recorder");
        assert_eq!(dump.reason, DumpReason::WatchdogTrip);
        assert!(!dump.events.is_empty(), "dump holds recent events");
        let round = ss_telemetry::FlightDump::from_json(&dump.to_json()).unwrap();
        assert_eq!(round.reason, dump.reason);
        assert_eq!(round.events.len(), dump.events.len());
        let events = stitch(&run.tracks);
        assert!(events.iter().any(|e| e.stage == Stage::WatchdogTrip));
        // Written-off packets get a terminal Shed, and the order still holds.
        assert!(events.iter().any(|e| e.stage == Stage::Shed));
        validate_causal(&events).expect("causal even through the trip");
    }

    /// A traced run with ring-overflow bursts on a wedged fabric credits
    /// the injector's ledger exactly as an untraced faulted run does.
    #[cfg(all(feature = "telemetry", feature = "faults"))]
    #[test]
    fn traced_faulted_run_credits_injector_ledger() {
        use ss_faults::{FaultConfig, FaultInjector, RetryPolicy};
        use std::sync::atomic::Ordering;
        use std::sync::Arc;
        let config = FabricConfig::edf(8, FabricConfigKind::WinnerOnly);
        let inj = Arc::new(FaultInjector::new(
            17,
            FaultConfig {
                decision_rate_ppm: 1_000_000,
                spsc_rate_ppm: 1_000_000,
                ..FaultConfig::quiet()
            },
        ));
        let opts = ThreadedOptions {
            trace: Some((1 << 16, 256)),
            faults: Some((inj.clone(), RetryPolicy::default())),
            ..ThreadedOptions::default()
        };
        let report = run_threaded(config, edf_states(8), 2_000, opts).unwrap();
        assert!(report.trace.expect("traced").watchdog_trips >= 1);
        assert_eq!(report.total + report.lost, 16_000, "conserved");
        assert_eq!(report.loss.total(), report.lost, "partition is exact");
        assert_eq!(report.loss.ring + report.loss.shard, report.lost);
        let stats = inj.stats();
        assert_eq!(
            stats.lost_packets.load(Ordering::Relaxed),
            report.lost,
            "injector ledger matches the report"
        );
        assert!(stats.detected.load(Ordering::Relaxed) >= 1, "trip detected");
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn traced_gate_records_verdicts_and_shed_reasons() {
        use ss_overload::{RedConfig, StreamClass};
        use ss_telemetry::span::detail;
        use ss_telemetry::{stitch, validate_causal, Stage};
        let mut gate = GateConfig::from_windows(
            &[ss_types::WindowConstraint { num: 3, den: 4 }; 4],
            1_000_000,
            4_000_000,
            RedConfig::classic(1 << 20),
            5,
        );
        // Starved buckets: most arrivals are refused at admission, so the
        // trace must carry both admit and refuse verdicts with reasons.
        gate.classes = (0..4)
            .map(|_| StreamClass {
                rate_mtok: 10,
                burst_mtok: 2_000,
                protection: 0,
            })
            .collect();
        let gated = ThreadedOptions {
            gate: Some(gate),
            trace: Some((1 << 16, 256)),
            ..ThreadedOptions::default()
        };
        #[allow(unused_mut)]
        let mut inputs = vec![gated.clone()];
        // Gate, faults and tracing all on: ring bursts and decision wedges
        // behind the starved gate.
        #[cfg(feature = "faults")]
        inputs.push(ThreadedOptions {
            faults: Some((
                std::sync::Arc::new(ss_faults::FaultInjector::new(
                    0xC0FF_EE00,
                    ss_faults::FaultConfig {
                        spsc_rate_ppm: 10_000,
                        decision_rate_ppm: 3_000,
                        ..ss_faults::FaultConfig::quiet()
                    },
                )),
                ss_faults::RetryPolicy::default(),
            )),
            ..gated
        });
        for (i, opts) in inputs.into_iter().enumerate() {
            let faulted = i > 0;
            let config = FabricConfig::edf(4, FabricConfigKind::WinnerOnly);
            let run = run_threaded(config, edf_states(4), 2_000, opts).unwrap();
            assert_eq!(run.total + run.lost, 8_000, "conserved");
            assert!(run.loss.admission > 0, "starved buckets refuse");
            assert_eq!(run.loss.total(), run.lost, "partition is exact");
            assert_eq!(
                run.loss.admission + run.loss.shed + run.loss.ring + run.loss.shard,
                run.lost,
                "admission, shed, ring and shard partition the loss"
            );
            let events = stitch(&run.trace.expect("traced").tracks);
            let verdicts: Vec<_> = events
                .iter()
                .filter(|e| e.stage == Stage::GateVerdict)
                .collect();
            let dequeued = events
                .iter()
                .filter(|e| e.stage == Stage::RingDequeue)
                .count();
            assert_eq!(verdicts.len(), dequeued, "one verdict per dequeued arrival");
            if !faulted {
                assert_eq!(verdicts.len(), 8_000, "one verdict per dequeued arrival");
            }
            assert!(verdicts.iter().any(|e| e.detail == detail::GATE_ADMITTED));
            assert!(verdicts
                .iter()
                .any(|e| e.detail == detail::GATE_ADMISSION_REJECT));
            let refused = events
                .iter()
                .filter(|e| e.stage == Stage::Shed && e.detail == detail::GATE_ADMISSION_REJECT)
                .count() as u64;
            assert_eq!(refused, run.loss.admission, "shed trail matches ledger");
            validate_causal(&events).expect("gate verdicts rank after dequeue");
        }
    }
}
