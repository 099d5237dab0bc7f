//! The ingress tax: loopback TCP submit path vs the bare in-process edge
//! gate, packets per second.
//!
//! Both columns judge identical packet streams through the same
//! [`EdgeGate`] composition (token-bucket admission → RED backlog →
//! serve). The in-process column calls the gate directly; the loopback
//! column pays the full network path on top — frame encode, a real
//! 127.0.0.1 socket round trip per batch, the reader thread's decode and
//! core-mutex serialization, and the SUBMIT_ACK reply. The ratio between
//! them is the "ingress tax", the price of moving the edge out of
//! process.
//!
//! Both columns run with faults quiet, every stream tolerant (3/4
//! windows), ample admission tokens, and full service per batch, so the
//! measurement isolates mechanism cost from shed policy: every packet is
//! admitted and served, and conservation is asserted on the loopback
//! server's final report.
//!
//! Emits `BENCH_ingress.json` at the workspace root: median pps per
//! column across passes, the tax ratio, and the throughput floors. The
//! floors only fail the process under `SS_BENCH_ENFORCE=1` — untuned CI
//! containers report without gating.

use serde::Serialize;
use ss_bench::{banner, fmt_rate};
use ss_ingress::{
    ClientConfig, EdgeGate, EdgeMode, FaultConfig, FaultInjector, IngressArrival, IngressClient,
    IngressConfig, IngressServer,
};
use ss_overload::RedConfig;
use ss_types::WindowConstraint;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SLOTS: usize = 8;
/// Packets per SUBMIT batch — matches the chaos soak's frame shape.
const BATCH: usize = 32;
/// In-process batches per pass (~640k packets: long enough that the
/// per-pass timer noise is well under the floor margins).
const IN_PROCESS_BATCHES: u64 = 20_000;
/// Loopback batches per pass (~48k packets ≈ 48k socket round trips).
const LOOPBACK_BATCHES: u64 = 1_500;
/// Warmup batches before the loopback timer starts (connection setup,
/// first-touch allocations, TCP slow start).
const LOOPBACK_WARMUP: u64 = 50;
/// Independent passes per column; the report takes the median.
const REPS: usize = 5;

/// Conservative absolute floors (packets/s) for untuned CI hardware —
/// regressions of the mechanism (an accidental alloc in the decode loop,
/// a sleep on the reply path) land far below these.
const IN_PROCESS_FLOOR_PPS: f64 = 500_000.0;
const LOOPBACK_FLOOR_PPS: f64 = 15_000.0;

/// Every stream tolerant: nothing is protected, nothing sheds, the
/// columns measure mechanism cost only.
fn windows() -> Vec<WindowConstraint> {
    (0..SLOTS).map(|_| WindowConstraint::new(3, 4)).collect()
}

/// One in-process pass: offer a batch, serve the whole backlog, tick.
fn in_process_pps() -> f64 {
    let w = windows();
    let mut gate = EdgeGate::new(&w, 1_000_000, 2_000_000, RedConfig::classic(256), 0xB54C);
    let mut tag = 0u16;
    let start = Instant::now();
    for _ in 0..IN_PROCESS_BATCHES {
        for j in 0..BATCH {
            tag = tag.wrapping_add(1);
            black_box(gate.offer(IngressArrival {
                slot: (j % SLOTS) as u32,
                tag,
            }));
        }
        while let Some(a) = gate.pop_backlog() {
            gate.mark_served(a.slot as usize);
        }
        gate.tick();
    }
    let elapsed = start.elapsed().as_secs_f64();
    black_box(gate.served_total());
    (IN_PROCESS_BATCHES * BATCH as u64) as f64 / elapsed
}

/// One loopback pass: the same packet stream through a real socket.
/// Returns (pps, conserved).
fn loopback_pps() -> (f64, bool) {
    let w = windows();
    let cfg = IngressConfig {
        // Serve every batch fully so the backlog never grows and the
        // loopback column measures the path, not a shed policy.
        service_per_batch: BATCH * 2,
        edge_capacity: 256,
        rate_mtok: 1_000_000,
        burst_mtok: 2_000_000,
        read_poll: Duration::from_millis(5),
        ..IngressConfig::default()
    };
    let injector = Arc::new(FaultInjector::new(1, FaultConfig::quiet()));
    let server = IngressServer::start(cfg, &w, EdgeMode::Deterministic, injector.clone(), None)
        .expect("bench server start");
    let mut client = IngressClient::connect(server.addr(), ClientConfig::new(0xBE4C, 1), injector)
        .expect("bench client connect");
    for s in 0..SLOTS as u32 {
        client.register(s, 1).expect("register");
    }

    let mut tag = 0u16;
    let mut entries: Vec<(u32, u16)> = Vec::with_capacity(BATCH);
    let batch = |tag: &mut u16, entries: &mut Vec<(u32, u16)>| {
        entries.clear();
        for j in 0..BATCH {
            *tag = tag.wrapping_add(1);
            entries.push(((j % SLOTS) as u32, *tag));
        }
    };
    for _ in 0..LOOPBACK_WARMUP {
        batch(&mut tag, &mut entries);
        client.submit(&entries).expect("warmup submit");
    }
    let start = Instant::now();
    for _ in 0..LOOPBACK_BATCHES {
        batch(&mut tag, &mut entries);
        client.submit(&entries).expect("submit");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let _ = client.drain();
    client.goodbye();
    let report = server.shutdown();
    (
        (LOOPBACK_BATCHES * BATCH as u64) as f64 / elapsed,
        report.conserved && !report.timed_out,
    )
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    samples[samples.len() / 2]
}

#[derive(Debug, Serialize)]
struct Report {
    slots: usize,
    batch: usize,
    reps: usize,
    in_process_batches: u64,
    loopback_batches: u64,
    /// Median packets/s judged by the bare edge gate in process.
    in_process_pps: f64,
    /// Median packets/s through the loopback TCP path.
    loopback_pps: f64,
    /// in_process / loopback — how many times slower the socket path is.
    ingress_tax: f64,
    /// Loopback server conservation held on every pass.
    conserved: bool,
    in_process_floor_pps: f64,
    loopback_floor_pps: f64,
    floors_met: bool,
}

fn main() {
    banner(
        "ingress-tax",
        "Loopback TCP submit path vs the in-process edge gate",
    );

    let mut in_proc: Vec<f64> = Vec::with_capacity(REPS);
    let mut loopback: Vec<f64> = Vec::with_capacity(REPS);
    let mut conserved = true;
    for rep in 0..REPS {
        let ip = in_process_pps();
        let (lb, ok) = loopback_pps();
        conserved &= ok;
        println!(
            "  pass {}: in-process {}/s  loopback {}/s",
            rep + 1,
            fmt_rate(ip),
            fmt_rate(lb)
        );
        in_proc.push(ip);
        loopback.push(lb);
    }
    let ip = median(&mut in_proc);
    let lb = median(&mut loopback);
    let floors_met = ip >= IN_PROCESS_FLOOR_PPS && lb >= LOOPBACK_FLOOR_PPS && conserved;
    println!(
        "  median: in-process {}/s  loopback {}/s  tax {:.1}x  conserved {}",
        fmt_rate(ip),
        fmt_rate(lb),
        ip / lb,
        conserved
    );

    let report = Report {
        slots: SLOTS,
        batch: BATCH,
        reps: REPS,
        in_process_batches: IN_PROCESS_BATCHES,
        loopback_batches: LOOPBACK_BATCHES,
        in_process_pps: ip,
        loopback_pps: lb,
        ingress_tax: ip / lb,
        conserved,
        in_process_floor_pps: IN_PROCESS_FLOOR_PPS,
        loopback_floor_pps: LOOPBACK_FLOOR_PPS,
        floors_met,
    };
    // The trajectory artifact lives at the workspace root like the other
    // BENCH_*.json files, not under results/.
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_ingress.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write BENCH_ingress.json");
    println!("  → {}", path.display());

    // Floors gate only under SS_BENCH_ENFORCE=1 — untuned CI containers
    // report without failing.
    let enforce = std::env::var_os("SS_BENCH_ENFORCE").is_some_and(|v| v == "1");
    if enforce && !floors_met {
        eprintln!(
            "ingress floors violated: in-process {ip:.0} (floor {IN_PROCESS_FLOOR_PPS:.0}), \
             loopback {lb:.0} (floor {LOOPBACK_FLOOR_PPS:.0}), conserved {conserved}"
        );
        std::process::exit(1);
    }
}
