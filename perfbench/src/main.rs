//! The repository benchmark.
//!
//! ```text
//! ss-perfbench --workload <edge_loopback|fabric_inproc|cluster_overload>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the layers through their public entry points, checks what they
//! produce, and prints one JSON line of provenance followed by one JSON
//! line of metrics: the end-to-end metrics with `--trace 0`, the
//! per-layer waterfall with `--trace 1`. Any failed correctness gate
//! exits non-zero without printing metrics. `perfbench/run.py` builds
//! this binary and adds the process's peak RSS.

mod check;
mod cluster;
mod edge;
mod inproc;
mod inputs;
mod path;
mod stats;
mod trace;

use check::{Forge, Violation};
use stats::{Summary, Windows};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Waterfall;

/// Set-ups per run; `setup_s` is their median, and the last one is kept
/// for the timed window.
pub const SETUPS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Input seed.
    pub seed: u64,
    /// Timed wall seconds (split in half between untraced and traced
    /// windows when tracing).
    pub seconds: f64,
    /// Per-layer run.
    pub trace: bool,
    /// Planted defect (tests only).
    pub forge: Forge,
}

impl RunSpec {
    /// A real (unforged) run.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            seed,
            seconds,
            trace,
            forge: Forge::None,
        }
    }
}

/// Per-layer figures; a figure a workload does not exercise stays 0.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub submit_write_ns: f64,
    pub ack_rtt_us: f64,
    pub inflight_batches: f64,
    pub client_blocked_ratio: f64,
    pub frame_encode: f64,
    pub frame_decode: f64,
    pub gate_offer: f64,
    pub gate_serve: f64,
    pub gate_admit_ratio: f64,
    pub spsc_hop: f64,
    pub spsc_high_water: f64,
    pub sched_arrival: f64,
    pub decision_ns: f64,
    pub idle_ratio: f64,
    pub transmit: f64,
    pub tick_us: f64,
    pub decisions_per_tick: f64,
    pub ledger_permille: [f64; 5],
    pub egress_drop_permille: f64,
    pub trace_overhead_pct: f64,
    pub waterfall: Option<Waterfall>,
}

/// A finished, checked run.
#[derive(Debug)]
pub struct Outcome {
    /// Untraced end-to-end summary.
    pub summary: Summary,
    /// Median set-up time.
    pub setup_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Offered packets not lost at any ledger site, ‰.
    pub delivered_permille: f64,
    /// Protected-stream packets that met their deadline, ‰.
    pub protected_met_permille: f64,
    /// Winner-sequence (or cluster) fingerprint of the set-up horizon.
    pub fingerprint: u64,
    /// Threads kept busy by the run.
    pub busy_threads: u32,
    /// `loopback` or `in-process`.
    pub transport: &'static str,
    /// Traced figures.
    pub layers: Option<Layers>,
}

/// One unit of a workload's timed loop.
pub trait Step {
    /// Sub-window width: short, so that a stall the host imposes spoils
    /// few sub-windows, yet long enough for a thousand distinct latency
    /// stamps (one per transmitted batch or tick), so that ten lie beyond
    /// the p99.
    const WINDOW: Duration;
    /// Runs one step, recording served packets and latencies in `win`.
    fn step<const TRACED: bool>(&mut self, win: &mut Windows) -> Result<(), Violation>;
    /// Time since the run origin.
    fn clock(&self) -> Duration;
}

/// Runs `w` for `seconds` of wall time cut into sub-windows of
/// `W::WINDOW`; returns the summary and the wall time taken.
pub fn timed<W: Step, const TRACED: bool>(
    w: &mut W,
    seconds: f64,
) -> Result<(Summary, Duration), Violation> {
    let start = w.clock();
    let end = start + Duration::from_secs_f64(seconds);
    let mut win = Windows::new(W::WINDOW, start);
    loop {
        w.step::<TRACED>(&mut win)?;
        let now = w.clock();
        win.tick(now);
        if now >= end {
            let summary =
                Summary::of(&win.finish()).ok_or_else(|| path::failed("no sub-window"))?;
            return Ok((summary, now - start));
        }
    }
}

/// Runs `setup` `SETUPS` times, timing each; every result but the last
/// goes to `discard`. Returns the last result and the median set-up time
/// in seconds.
pub fn set_up<T>(
    mut setup: impl FnMut() -> Result<T, Violation>,
    mut discard: impl FnMut(T) -> Result<(), Violation>,
) -> Result<(T, f64), Violation> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            discard(prev)?;
        }
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    let last = last.ok_or_else(|| path::failed("no set-up ran"))?;
    Ok((last, stats::median(&secs).unwrap_or(0.0)))
}

/// Runs the named workload.
pub fn run(workload: &str, spec: &RunSpec) -> Result<Outcome, Violation> {
    match workload {
        "edge_loopback" => edge::run(spec),
        "fabric_inproc" => inproc::run(spec),
        "cluster_overload" => cluster::run(spec),
        other => Err(path::failed(format!("unknown workload {other:?}"))),
    }
}

/// The metrics line: the end-to-end metrics of an untraced run, or the
/// per-layer metrics of a traced one.
pub fn metrics_json(o: &Outcome) -> String {
    let s = &o.summary;
    let rows: Vec<(&str, f64, &str)> = match &o.layers {
        None => vec![
            ("served_pps", s.pps, "1/s"),
            ("e2e_p50_us", s.p50_us, "us"),
            ("delivered_permille", o.delivered_permille, "permille"),
            (
                "protected_met_permille",
                o.protected_met_permille,
                "permille",
            ),
            ("setup_s", o.setup_s, "s"),
        ],
        Some(l) => {
            let (e2e, residue) = l
                .waterfall
                .as_ref()
                .map_or((0.0, 0.0), |w| (w.e2e_ns_per_pkt, w.residue_ns_per_pkt()));
            let g = l.ledger_permille;
            vec![
                // Per-layer rather than end-to-end: under host preemption
                // the p99 does not repeat within a tenth from run to run.
                ("e2e_p99_us", s.p99_us, "us"),
                ("ingress.client.submit_write_ns", l.submit_write_ns, "ns"),
                ("ingress.server.ack_rtt_us", l.ack_rtt_us, "us"),
                (
                    "ingress.server.inflight_batches",
                    l.inflight_batches,
                    "count",
                ),
                (
                    "bench.client_blocked_ratio",
                    l.client_blocked_ratio,
                    "ratio",
                ),
                ("ingress.frame.encode_ns_per_pkt", l.frame_encode, "ns"),
                ("ingress.frame.decode_ns_per_pkt", l.frame_decode, "ns"),
                ("ingress.gate.offer_ns_per_pkt", l.gate_offer, "ns"),
                ("ingress.gate.serve_ns_per_pkt", l.gate_serve, "ns"),
                ("ingress.gate.admit_ratio", l.gate_admit_ratio, "ratio"),
                ("endsystem.spsc.hop_ns_per_pkt", l.spsc_hop, "ns"),
                ("endsystem.spsc.high_water", l.spsc_high_water, "count"),
                ("sharded.arrival_ns_per_pkt", l.sched_arrival, "ns"),
                ("sharded.decision_ns", l.decision_ns, "ns"),
                ("sharded.idle_ratio", l.idle_ratio, "ratio"),
                (
                    "endsystem.transmission.transmit_ns_per_pkt",
                    l.transmit,
                    "ns",
                ),
                ("cluster.sim.tick_us", l.tick_us, "us"),
                ("cluster.decisions_per_tick", l.decisions_per_tick, "count"),
                ("overload.ledger.admission_permille", g[0], "permille"),
                ("overload.ledger.shed_permille", g[1], "permille"),
                ("overload.ledger.ring_permille", g[2], "permille"),
                ("overload.ledger.shard_permille", g[3], "permille"),
                ("overload.ledger.drain_permille", g[4], "permille"),
                (
                    "cluster.egress_drop_permille",
                    l.egress_drop_permille,
                    "permille",
                ),
                ("e2e_ns_per_pkt", e2e, "ns"),
                ("residue_ns_per_pkt", residue, "ns"),
                ("trace_overhead_pct", l.trace_overhead_pct, "%"),
            ]
        }
    };
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// The provenance line: what produced the numbers.
fn provenance_json(workload: &str, spec: &RunSpec, o: &Outcome) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut waterfall = String::from("[");
    if let Some(w) = o.layers.as_ref().and_then(|l| l.waterfall.as_ref()) {
        for (i, s) in w.stages.iter().enumerate() {
            if i > 0 {
                waterfall.push_str(", ");
            }
            let _ = write!(waterfall, "[\"{}\", {}]", s.name, s.ns_per_pkt);
        }
    }
    waterfall.push(']');
    format!(
        "{{\"provenance\": {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"transport\": \"{}\", \"busy_threads\": {}, \"cores_visible\": {cores}, \
         \"profile\": \"{profile}\", \"features\": [], \"setups\": {SETUPS}, \
         \"sub_windows\": {}, \"sub_window_pps_quartiles\": [{}, {}, {}], \
         \"latency_samples\": {}, \"fingerprint\": \"{:#018x}\", \
         \"waterfall_ns_per_pkt\": {waterfall}}}}}",
        spec.seed,
        spec.seconds,
        u8::from(spec.trace),
        o.transport,
        o.busy_threads,
        o.summary.windows,
        o.summary.pps_quartiles[0],
        o.summary.pps_quartiles[1],
        o.summary.pps_quartiles[2],
        o.summary.samples,
        o.fingerprint,
    )
}

fn parse_args() -> Result<(String, RunSpec), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = RunSpec::new(
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace,
    );
    Ok((workload, spec))
}

fn main() {
    let (workload, spec) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ss-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&workload, &spec) {
        Ok(o) => {
            if let Some(w) = o.layers.as_ref().and_then(|l| l.waterfall.as_ref()) {
                if !w.reconciles() {
                    eprintln!("ss-perfbench: waterfall does not reconcile");
                    std::process::exit(1);
                }
            }
            println!("{}", provenance_json(&workload, &spec, &o));
            println!("{}", metrics_json(&o));
        }
        Err(v) => {
            eprintln!("ss-perfbench: {workload}: correctness gate failed: {v}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [&str; 3] = ["edge_loopback", "fabric_inproc", "cluster_overload"];

    fn tiny(trace: bool, forge: Forge) -> RunSpec {
        RunSpec {
            forge,
            ..RunSpec::new(7, 0.2, trace)
        }
    }

    #[test]
    fn tiny_runs_pass_every_gate_and_print_every_metric() {
        for w in WORKLOADS {
            let o = run(w, &tiny(false, Forge::None)).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(o.summary.pps > 0.0, "{w}");
            assert!(o.setup_s > 0.0, "{w}");
            assert_eq!(o.failed, 0, "{w}");
            let line = metrics_json(&o);
            for m in [
                "served_pps",
                "e2e_p50_us",
                "delivered_permille",
                "protected_met_permille",
                "setup_s",
            ] {
                assert!(line.contains(&format!("\"{m}\"")), "{w} lacks {m}");
            }
        }
    }

    #[test]
    fn traced_tiny_runs_reconcile() {
        for w in WORKLOADS {
            let o = run(w, &tiny(true, Forge::None)).unwrap_or_else(|e| panic!("{w}: {e}"));
            let l = o.layers.as_ref().expect("traced run has layers");
            let wf = l.waterfall.as_ref().expect("traced run has a waterfall");
            assert!(wf.reconciles(), "{w}");
            assert!(
                wf.stages.iter().all(|s| s.ns_per_pkt > 0.0),
                "{w}: {:?}",
                wf.stages
            );
            let line = metrics_json(&o);
            assert!(line.contains("\"residue_ns_per_pkt\""), "{w}");
            assert!(line.contains("\"e2e_p99_us\""), "{w}");
            assert!(line.contains("\"trace_overhead_pct\""), "{w}");
        }
    }

    #[test]
    fn forged_conservation_break_is_caught() {
        for w in WORKLOADS {
            match run(w, &tiny(false, Forge::ConservationBreak)) {
                Err(Violation::Conservation { .. }) => {}
                // The cluster's own invariant engine sees the planted
                // phantom packet first.
                Err(Violation::Failed { what }) if w == "cluster_overload" => {
                    assert!(what.contains("conservation"), "{what}");
                }
                other => panic!("{w}: forged loss not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn forged_duplicate_tag_is_caught() {
        // The cluster simulator carries no per-packet tags; its replay
        // gate is the episode fingerprint.
        for w in ["edge_loopback", "fabric_inproc"] {
            match run(w, &tiny(false, Forge::DuplicateTag)) {
                Err(Violation::TagOrder { .. }) | Err(Violation::Phantom { .. }) => {}
                other => panic!("{w}: forged duplicate not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn metrics_line_is_the_result_object() {
        let o = Outcome {
            summary: Summary {
                pps: 1.5,
                pps_quartiles: [1.0, 1.5, 2.0],
                p50_us: 2.0,
                p99_us: 3.0,
                windows: 2,
                samples: 10,
            },
            setup_s: 0.25,
            attempted: 10,
            failed: 0,
            delivered_permille: 1000.0,
            protected_met_permille: 999.5,
            fingerprint: 1,
            busy_threads: 1,
            transport: "in-process",
            layers: None,
        };
        assert_eq!(
            metrics_json(&o),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"served_pps\": {\"value\": 1.5, \"unit\": \"1/s\"}, \
             \"e2e_p50_us\": {\"value\": 2, \"unit\": \"us\"}, \
             \"delivered_permille\": {\"value\": 1000, \"unit\": \"permille\"}, \
             \"protected_met_permille\": {\"value\": 999.5, \"unit\": \"permille\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
