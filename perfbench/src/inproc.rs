//! `fabric_inproc`: the edge path without the socket, on one thread.
//!
//! Each frame of 32 seeded arrivals is encoded as a SUBMIT, decoded by a
//! `FrameDecoder`, offered to an `EdgeGate`, served from its backlog into
//! an SPSC ring, popped, and scheduled by a 32-slot, 4-shard DWCS
//! `ShardedScheduler` (32 decision cycles per frame: load 1.0×) whose
//! winners go to the `TransmissionEngine`.

use crate::check::{conserve, same_fingerprint, Forge, Violation};
use crate::inputs::{mixed_windows, periods, weights, SlotStream};
use crate::path::{failed, Tail};
use crate::stats::Windows;
use crate::trace::{overhead_pct, Acc, Span, Stage, Waterfall};
use crate::{set_up, timed, Layers, Outcome, RunSpec, Step, SETUPS};
use ss_endsystem::{spsc_ring, Consumer, Producer, RedConfig};
use ss_ingress::frame::encode_submit;
use ss_ingress::{EdgeGate, EdgeVerdict, Frame, FrameDecoder, IngressArrival};
use std::time::{Duration, Instant};

const SLOTS: usize = 32;
const SHARDS: usize = 4;
const BATCH: usize = 32;
/// Backlog entries served into the ring per frame (the server's
/// `service_per_batch`), above the batch size so the backlog empties.
const SERVICE: usize = 2 * BATCH;
const RING: usize = 256;
/// Frames run during set-up before the timed window.
const WARMUP_FRAMES: u64 = 4_000;

#[derive(Debug, Default, Clone, Copy)]
struct FrontSpans {
    encode: Acc,
    decode: Acc,
    offer: Acc,
    serve: Acc,
    hop: Acc,
}

struct Inproc {
    slots: SlotStream,
    buf: Vec<u8>,
    dec: FrameDecoder,
    gate: EdgeGate,
    prod: Producer<IngressArrival>,
    cons: Consumer<IngressArrival>,
    tail: Tail,
    seq: u64,
    entries: Vec<(u32, u16)>,
    decoded: Vec<IngressArrival>,
    served: Vec<IngressArrival>,
    pushed: Vec<bool>,
    popped: Vec<IngressArrival>,
    admitted: u64,
    /// Most arrivals found waiting in the ring (traced only).
    high_water: usize,
    spans: FrontSpans,
}

impl Inproc {
    fn new(seed: u64, origin: Instant, forge: Forge) -> Result<Self, Violation> {
        let w = weights(seed, SLOTS);
        let windows = mixed_windows(SLOTS);
        let (prod, cons) = spsc_ring(RING);
        Ok(Self {
            slots: SlotStream::new(seed, &w),
            buf: Vec::with_capacity(1024),
            dec: FrameDecoder::new(4096),
            gate: EdgeGate::new(
                &windows,
                1_000_000,
                64_000_000,
                RedConfig::classic(4096),
                seed,
            ),
            prod,
            cons,
            tail: Tail::new(&windows, &periods(&w), SHARDS, origin, forge)?,
            seq: 0,
            entries: Vec::with_capacity(BATCH),
            decoded: Vec::with_capacity(BATCH),
            served: Vec::with_capacity(SERVICE),
            pushed: Vec::with_capacity(SERVICE),
            popped: Vec::with_capacity(RING),
            admitted: 0,
            high_water: 0,
            spans: FrontSpans::default(),
        })
    }

    fn frame<const TRACED: bool>(&mut self, win: &mut Windows) -> Result<(), Violation> {
        let t_submit = self.tail.now_ns();
        let slots = &mut self.slots;
        self.tail
            .ledger
            .submit_batch(BATCH, t_submit, || slots.next_slot(), &mut self.entries);
        self.seq += 1;

        let s = Span::<TRACED>::open();
        self.buf.clear();
        encode_submit(&mut self.buf, self.seq, &self.entries);
        s.close(&mut self.spans.encode);

        let s = Span::<TRACED>::open();
        self.decoded.clear();
        self.dec.push(&self.buf).map_err(failed)?;
        match self.dec.next().map_err(failed)? {
            Some(Frame::Submit(view)) => self.decoded.extend(view.iter().map(|e| IngressArrival {
                slot: e.slot,
                tag: e.tag,
            })),
            other => return Err(failed(format!("expected a SUBMIT, decoded {other:?}"))),
        }
        s.close(&mut self.spans.decode);

        let s = Span::<TRACED>::open();
        for &a in &self.decoded {
            if self.gate.offer(a) == EdgeVerdict::Admitted {
                self.admitted += 1;
            }
        }
        s.close(&mut self.spans.offer);

        // The server's service step, split at the ring so the gate and
        // the hop are timed apart: pop the backlog, push into the ring,
        // then settle the gate's accounting and tick it.
        let s = Span::<TRACED>::open();
        self.served.clear();
        while self.served.len() < SERVICE {
            let Some(a) = self.gate.pop_backlog() else {
                break;
            };
            self.served.push(a);
        }
        s.close(&mut self.spans.serve);

        let s = Span::<TRACED>::open();
        self.pushed.clear();
        for &a in &self.served {
            self.pushed.push(self.prod.push(a).is_ok());
        }
        s.close(&mut self.spans.hop);

        let s = Span::<TRACED>::open();
        for (a, &ok) in self.served.iter().zip(&self.pushed) {
            if ok {
                self.gate.mark_served(a.slot as usize);
            } else {
                self.gate.mark_ring_loss();
            }
        }
        self.gate.tick();
        s.close(&mut self.spans.serve);

        if TRACED {
            self.high_water = self.high_water.max(self.cons.len());
        }
        let s = Span::<TRACED>::open();
        self.popped.clear();
        while let Some(a) = self.cons.pop() {
            self.popped.push(a);
        }
        s.close(&mut self.spans.hop);

        self.tail.run::<TRACED>(&self.popped, win)
    }

    /// Drains the path and applies every end-of-run gate.
    fn settle(&mut self, win: &mut Windows) -> Result<(), Violation> {
        self.tail.drain(win)?;
        let offered = self.tail.ledger.submitted_total();
        if self.gate.offered() != offered {
            return Err(Violation::Conservation {
                at: "client→gate",
                offered,
                accounted: self.gate.offered(),
            });
        }
        let queued = self.gate.backlog_len() as u64 + self.cons.len() as u64;
        conserve(
            "gate→transmit",
            offered,
            self.tail.served,
            self.gate.ledger(),
            queued,
        )?;
        self.tail.ledger.settle()
    }
}

/// Set-up: build the path and run the warm-up frames. Returns the path
/// and the warm-up's winner fingerprint.
fn setup(seed: u64, origin: Instant, forge: Forge) -> Result<(Inproc, u64), Violation> {
    let mut p = Inproc::new(seed, origin, forge)?;
    let mut scratch = Windows::new(Duration::MAX, Duration::ZERO);
    for _ in 0..WARMUP_FRAMES {
        p.frame::<false>(&mut scratch)?;
    }
    p.tail.drain(&mut scratch)?;
    let print = p.tail.fingerprint;
    Ok((p, print))
}

impl Step for Inproc {
    const WINDOW: Duration = Duration::from_millis(25);

    fn step<const TRACED: bool>(&mut self, win: &mut Windows) -> Result<(), Violation> {
        self.frame::<TRACED>(win)
    }

    fn clock(&self) -> Duration {
        self.tail.origin_elapsed()
    }
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Result<Outcome, Violation> {
    let origin = Instant::now();
    let mut prints = Vec::with_capacity(SETUPS);
    let ((mut p, print), setup_s) = set_up(
        || setup(spec.seed, origin, spec.forge),
        |(_, print)| {
            prints.push(print);
            Ok(())
        },
    )?;
    prints.push(print);
    same_fingerprint(&prints)?;

    // Spans record only in traced windows, so they hold the traced
    // window alone; the packet counters are differenced.
    let (base, layers) = if spec.trace {
        let (base, _) = timed::<_, false>(&mut p, spec.seconds / 2.0)?;
        let (served0, decisions0, idle0) = (p.tail.served, p.tail.decisions, p.tail.idle);
        let (offered0, admitted0) = (p.gate.offered(), p.admitted);
        let (traced, _) = timed::<_, true>(&mut p, spec.seconds / 2.0)?;
        let pkts = p.tail.served - served0;
        let decisions = p.tail.decisions - decisions0;
        let (f, t) = (p.spans, p.tail.spans);
        let l = Layers {
            frame_encode: f.encode.per(pkts),
            frame_decode: f.decode.per(pkts),
            gate_offer: f.offer.per(pkts),
            gate_serve: f.serve.per(pkts),
            gate_admit_ratio: (p.admitted - admitted0) as f64
                / (p.gate.offered() - offered0) as f64,
            spsc_hop: f.hop.per(pkts),
            spsc_high_water: p.high_water as f64,
            sched_arrival: t.arrival.per(pkts),
            decision_ns: t.decision.per(decisions),
            idle_ratio: (p.tail.idle - idle0) as f64 / decisions as f64,
            transmit: t.transmit.per(pkts),
            trace_overhead_pct: overhead_pct(base.pps, traced.pps),
            waterfall: Some(Waterfall {
                stages: vec![
                    Stage::new("ingress.frame.encode_ns_per_pkt", f.encode.per(pkts)),
                    Stage::new("ingress.frame.decode_ns_per_pkt", f.decode.per(pkts)),
                    Stage::new("ingress.gate.offer_ns_per_pkt", f.offer.per(pkts)),
                    Stage::new("ingress.gate.serve_ns_per_pkt", f.serve.per(pkts)),
                    Stage::new("endsystem.spsc.hop_ns_per_pkt", f.hop.per(pkts)),
                    Stage::new("sharded.arrival_ns_per_pkt", t.arrival.per(pkts)),
                    Stage::new("sharded.decision_ns_per_pkt", t.decision.per(pkts)),
                    Stage::new(
                        "endsystem.transmission.transmit_ns_per_pkt",
                        t.transmit.per(pkts),
                    ),
                ],
                e2e_ns_per_pkt: 1e9 / base.pps,
            }),
            ..Layers::default()
        };
        (base, Some(l))
    } else {
        (timed::<_, false>(&mut p, spec.seconds)?.0, None)
    };

    let mut scratch = Windows::new(Duration::MAX, Duration::ZERO);
    p.settle(&mut scratch)?;
    let offered = p.tail.ledger.submitted_total();
    Ok(Outcome {
        summary: base,
        setup_s,
        attempted: offered,
        failed: offered - p.tail.served,
        delivered_permille: p.tail.served as f64 * 1000.0 / offered as f64,
        protected_met_permille: p.tail.protected_met_permille(),
        fingerprint: prints[0],
        busy_threads: 1,
        transport: "in-process",
        layers,
    })
}
