//! `edge_loopback`: the whole path from a TCP socket to the
//! transmission engine.
//!
//! One 127.0.0.1 connection carries pipelined SUBMIT frames of 32
//! minimum-size entries to an `IngressServer` in `EdgeMode::Ring` with 8
//! tolerant (3/4) slots and ample tokens. The client is closed-loop: it
//! keeps `IN_FLIGHT` unacked batches outstanding, tracked by the
//! cumulative `acked_seq`. The benchmark's own thread is both the client
//! and the ring consumer; it feeds a 1-shard WR `ShardedScheduler` and a
//! `TransmissionEngine`. Busy threads: this one and the server's reader
//! (`run.py` pins the process to one CPU, so the two share it).

use crate::check::{conserve, Forge, Violation};
use crate::inputs::{periods, weights, SlotStream};
use crate::path::{failed, Tail};
use crate::stats::{percentile, Windows};
use crate::trace::{overhead_pct, Acc, Span, Stage, Waterfall};
use crate::{set_up, timed, Layers, Outcome, RunSpec, Step};
use ss_endsystem::Consumer;
use ss_faults::{FaultConfig, FaultInjector};
use ss_ingress::frame::{encode_goodbye, encode_hello, encode_register, encode_submit};
use ss_ingress::{
    DrainReport, EdgeMode, Frame, FrameDecoder, IngressArrival, IngressConfig, IngressServer,
};
use ss_types::WindowConstraint;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SLOTS: usize = 8;
const BATCH: usize = 32;
/// Unacked SUBMIT batches the client keeps outstanding.
const IN_FLIGHT: u64 = 4;
const RING: usize = 8192;
/// Closed-loop steps run during set-up before the timed window.
const WARMUP_STEPS: u64 = 2_000;
/// A reply slower than this fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Default, Clone, Copy)]
struct ClientSpans {
    /// SUBMIT encode plus `write_all`, one span per batch.
    submit_write: Acc,
    /// Time blocked in `read` waiting for acks.
    blocked: Acc,
    /// `Consumer::pop` on the server's ring.
    pop: Acc,
}

/// A server reply, copied out of the decoder's buffer.
enum Reply {
    HelloAck,
    RegisterAck { accepted: bool },
    SubmitAck { acked_seq: u64, rejected: u32 },
    Other,
}

struct Edge {
    server: Option<IngressServer>,
    sock: TcpStream,
    cons: Consumer<IngressArrival>,
    tail: Tail,
    slots: SlotStream,
    entries: Vec<(u32, u16)>,
    wbuf: Vec<u8>,
    rbuf: Box<[u8]>,
    dec: FrameDecoder,
    sent: u64,
    acked: u64,
    rejected: u64,
    /// Write instants of the unacked batches, oldest first.
    write_ns: VecDeque<u64>,
    chunk: Vec<IngressArrival>,
    spans: ClientSpans,
    rtt_ns: Vec<u64>,
    /// ∫ unacked batches dt, in batch·ns (traced only).
    inflight_area: u128,
    inflight_since: u64,
    /// Most arrivals found waiting in the ring (traced only).
    high_water: usize,
}

impl Edge {
    fn connect(seed: u64, origin: Instant, forge: Forge) -> Result<Self, Violation> {
        let w = weights(seed, SLOTS);
        let windows = vec![WindowConstraint::new(3, 4); SLOTS];
        let cfg = IngressConfig {
            service_per_batch: 2 * BATCH,
            edge_capacity: 4096,
            rate_mtok: 1_000_000,
            burst_mtok: 64_000_000,
            red_seed: seed,
            ..IngressConfig::default()
        };
        let injector = Arc::new(FaultInjector::new(seed, FaultConfig::quiet()));
        let mut server = IngressServer::start(
            cfg,
            &windows,
            EdgeMode::Ring { capacity: RING },
            injector,
            None,
        )
        .map_err(failed)?;
        let cons = server
            .take_consumer()
            .ok_or_else(|| failed("ring mode server has no consumer"))?;
        let sock = TcpStream::connect(server.addr()).map_err(failed)?;
        sock.set_nodelay(true).map_err(failed)?;
        sock.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(failed)?;
        let mut e = Self {
            server: Some(server),
            sock,
            cons,
            tail: Tail::new(&windows, &periods(&w), 1, origin, forge)?,
            slots: SlotStream::new(seed, &w),
            entries: Vec::with_capacity(BATCH),
            wbuf: Vec::with_capacity(512),
            rbuf: vec![0u8; 4096].into_boxed_slice(),
            dec: FrameDecoder::new(16 * 1024),
            sent: 0,
            acked: 0,
            rejected: 0,
            write_ns: VecDeque::with_capacity(IN_FLIGHT as usize),
            chunk: Vec::with_capacity(BATCH),
            spans: ClientSpans::default(),
            rtt_ns: Vec::new(),
            inflight_area: 0,
            inflight_since: 0,
            high_water: 0,
        };
        e.wbuf.clear();
        encode_hello(&mut e.wbuf, seed);
        e.sock.write_all(&e.wbuf).map_err(failed)?;
        match e.read_reply()? {
            Reply::HelloAck => {}
            _ => return Err(failed("no HELLO_ACK")),
        }
        e.wbuf.clear();
        for slot in 0..SLOTS as u32 {
            encode_register(&mut e.wbuf, slot, 1);
        }
        e.sock.write_all(&e.wbuf).map_err(failed)?;
        for _ in 0..SLOTS {
            match e.read_reply()? {
                Reply::RegisterAck { accepted: true } => {}
                _ => return Err(failed("stream registration refused")),
            }
        }
        Ok(e)
    }

    fn next_reply(&mut self) -> Result<Option<Reply>, Violation> {
        Ok(self.dec.next().map_err(failed)?.map(|f| match f {
            Frame::HelloAck { .. } => Reply::HelloAck,
            Frame::RegisterAck { accepted, .. } => Reply::RegisterAck { accepted },
            Frame::SubmitAck {
                acked_seq,
                rejected,
                ..
            } => Reply::SubmitAck {
                acked_seq,
                rejected,
            },
            _ => Reply::Other,
        }))
    }

    fn read_more(&mut self) -> Result<(), Violation> {
        let n = self.sock.read(&mut self.rbuf).map_err(failed)?;
        if n == 0 {
            return Err(failed("server closed the connection"));
        }
        self.dec.push(&self.rbuf[..n]).map_err(failed)
    }

    fn read_reply(&mut self) -> Result<Reply, Violation> {
        loop {
            if let Some(r) = self.next_reply()? {
                return Ok(r);
            }
            self.read_more()?;
        }
    }

    fn note_inflight(&mut self, now: u64) {
        let d = now.saturating_sub(self.inflight_since);
        self.inflight_area += u128::from(self.sent - self.acked) * u128::from(d);
        self.inflight_since = now;
    }

    fn submit<const TRACED: bool>(&mut self) -> Result<(), Violation> {
        let t = self.tail.now_ns();
        let slots = &mut self.slots;
        self.tail
            .ledger
            .submit_batch(BATCH, t, || slots.next_slot(), &mut self.entries);
        if TRACED {
            self.note_inflight(t);
        }
        self.sent += 1;
        let s = Span::<TRACED>::open();
        self.wbuf.clear();
        encode_submit(&mut self.wbuf, self.sent, &self.entries);
        self.sock.write_all(&self.wbuf).map_err(failed)?;
        s.close(&mut self.spans.submit_write);
        self.write_ns.push_back(t);
        Ok(())
    }

    /// Blocks until at least one SUBMIT_ACK has arrived and consumes
    /// every ack already received.
    fn await_acks<const TRACED: bool>(&mut self) -> Result<(), Violation> {
        let mut got = false;
        loop {
            while let Some(r) = self.next_reply()? {
                let Reply::SubmitAck {
                    acked_seq,
                    rejected,
                } = r
                else {
                    return Err(failed("unexpected reply to SUBMIT"));
                };
                if acked_seq <= self.acked || acked_seq > self.sent {
                    return Err(failed(format!(
                        "ack {acked_seq} outside ({}, {}]",
                        self.acked, self.sent
                    )));
                }
                let now = if TRACED { self.tail.now_ns() } else { 0 };
                if TRACED {
                    self.note_inflight(now);
                }
                while self.acked < acked_seq {
                    self.acked += 1;
                    let w = self.write_ns.pop_front().unwrap_or(now);
                    if TRACED {
                        self.rtt_ns.push(now.saturating_sub(w));
                    }
                }
                self.rejected += u64::from(rejected);
                got = true;
            }
            if got {
                return Ok(());
            }
            let s = Span::<TRACED>::open();
            self.read_more()?;
            s.close(&mut self.spans.blocked);
        }
    }

    /// Pops the ring in chunks of one batch and runs each through the
    /// scheduler and the transmission engine.
    fn consume<const TRACED: bool>(&mut self, win: &mut Windows) -> Result<(), Violation> {
        if TRACED {
            self.high_water = self.high_water.max(self.cons.len());
        }
        loop {
            let s = Span::<TRACED>::open();
            self.chunk.clear();
            while self.chunk.len() < BATCH {
                match self.cons.pop() {
                    Some(a) => self.chunk.push(a),
                    None => break,
                }
            }
            s.close(&mut self.spans.pop);
            if self.chunk.is_empty() {
                return Ok(());
            }
            self.tail.run::<TRACED>(&self.chunk, win)?;
        }
    }

    /// Stops submitting, drains everything in flight, closes the
    /// connection, shuts the server down and applies every end-of-run
    /// gate.
    fn finish(mut self) -> Result<Settled, Violation> {
        let mut scratch = Windows::new(Duration::MAX, Duration::ZERO);
        while self.acked < self.sent {
            self.await_acks::<false>()?;
        }
        self.consume::<false>(&mut scratch)?;
        self.tail.drain(&mut scratch)?;
        self.wbuf.clear();
        encode_goodbye(&mut self.wbuf);
        self.sock.write_all(&self.wbuf).map_err(failed)?;
        let server = self
            .server
            .take()
            .ok_or_else(|| failed("server already shut down"))?;
        let report: DrainReport = server.shutdown();
        if report.timed_out || !report.conserved {
            return Err(failed(format!(
                "drain report: timed_out {}, conserved {}",
                report.timed_out, report.conserved
            )));
        }
        let offered = self.tail.ledger.submitted_total();
        if report.totals.offered != offered {
            return Err(Violation::Conservation {
                at: "client→server",
                offered,
                accounted: report.totals.offered,
            });
        }
        conserve(
            "server→transmit",
            offered,
            self.tail.served,
            &report.totals.loss,
            0,
        )?;
        self.tail.ledger.settle()?;
        Ok(Settled {
            offered,
            served: self.tail.served,
            rejected: self.rejected,
            high_water: self.high_water,
            protected_met_permille: self.tail.protected_met_permille(),
        })
    }
}

/// What a checked shutdown reports.
struct Settled {
    offered: u64,
    served: u64,
    rejected: u64,
    high_water: usize,
    protected_met_permille: f64,
}

impl Step for Edge {
    const WINDOW: Duration = Duration::from_millis(25);

    /// One closed-loop round: refill the window, wait for acks, then
    /// consume what the server pushed into the ring.
    fn step<const TRACED: bool>(&mut self, win: &mut Windows) -> Result<(), Violation> {
        while self.sent - self.acked < IN_FLIGHT {
            self.submit::<TRACED>()?;
        }
        self.await_acks::<TRACED>()?;
        self.consume::<TRACED>(win)
    }

    fn clock(&self) -> Duration {
        self.tail.origin_elapsed()
    }
}

fn setup(seed: u64, origin: Instant, forge: Forge) -> Result<Edge, Violation> {
    let mut e = Edge::connect(seed, origin, forge)?;
    let mut scratch = Windows::new(Duration::MAX, Duration::ZERO);
    for _ in 0..WARMUP_STEPS {
        e.step::<false>(&mut scratch)?;
    }
    Ok(e)
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Result<Outcome, Violation> {
    let origin = Instant::now();
    let (mut e, setup_s) = set_up(
        || setup(spec.seed, origin, spec.forge),
        |e| e.finish().map(drop),
    )?;

    // Spans record only in traced windows, so they hold the traced
    // window alone; the packet counters are differenced.
    let (base, traced) = if spec.trace {
        let (base, _) = timed::<_, false>(&mut e, spec.seconds / 2.0)?;
        let before = (e.tail.served, e.tail.decisions, e.tail.idle);
        e.inflight_since = e.tail.now_ns();
        let (traced, wall) = timed::<_, true>(&mut e, spec.seconds / 2.0)?;
        (base, Some((traced, wall, before)))
    } else {
        (timed::<_, false>(&mut e, spec.seconds)?.0, None)
    };

    let mut l = Layers::default();
    if let Some((traced, wall, (served0, decisions0, idle0))) = traced {
        let wall_ns = wall.as_nanos() as f64;
        let pkts = e.tail.served - served0;
        let decisions = e.tail.decisions - decisions0;
        let (c, t) = (e.spans, e.tail.spans);
        l.submit_write_ns = c.submit_write.per(c.submit_write.spans);
        l.ack_rtt_us = percentile(&mut e.rtt_ns, 50.0).unwrap_or(0) as f64 / 1e3;
        l.inflight_batches = e.inflight_area as f64 / wall_ns;
        l.client_blocked_ratio = c.blocked.ns as f64 / wall_ns;
        l.spsc_hop = c.pop.per(pkts);
        l.sched_arrival = t.arrival.per(pkts);
        l.decision_ns = t.decision.per(decisions);
        l.idle_ratio = (e.tail.idle - idle0) as f64 / decisions as f64;
        l.transmit = t.transmit.per(pkts);
        l.waterfall = Some(Waterfall {
            stages: vec![
                Stage::new(
                    "ingress.client.submit_write_ns_per_pkt",
                    c.submit_write.per(pkts),
                ),
                Stage::new("bench.client_blocked_ns_per_pkt", c.blocked.per(pkts)),
                Stage::new("endsystem.spsc.pop_ns_per_pkt", l.spsc_hop),
                Stage::new("sharded.arrival_ns_per_pkt", l.sched_arrival),
                Stage::new("sharded.decision_ns_per_pkt", t.decision.per(pkts)),
                Stage::new("endsystem.transmission.transmit_ns_per_pkt", l.transmit),
            ],
            e2e_ns_per_pkt: 1e9 / base.pps,
        });
        l.trace_overhead_pct = overhead_pct(base.pps, traced.pps);
    }
    let end = e.finish()?;
    l.spsc_high_water = end.high_water as f64;
    Ok(Outcome {
        summary: base,
        setup_s,
        attempted: end.offered,
        // Refused entries are the only way a packet can fail here.
        failed: end.rejected.max(end.offered - end.served),
        delivered_permille: end.served as f64 * 1000.0 / end.offered as f64,
        protected_met_permille: end.protected_met_permille,
        fingerprint: 0,
        busy_threads: 2,
        transport: "loopback",
        layers: spec.trace.then_some(l),
    })
}
