//! `cluster_overload`: `ClusterSim` at 2× load with light faults.
//!
//! 8 nodes × 4 shards × 8 slots under `steady:rate=2000`, otherwise the
//! `ClusterConfig::new` defaults. Here the admission gates run on their
//! shed path and the invariant engine sweeps every tick.
//!
//! Light faults crash shards for good, so a cluster loses capacity as it
//! ages, and how much it loses depends on a few rare crash draws. To keep
//! the timed load stationary and its loss figure representative, the run
//! is a sequence of episodes of `EPISODE_TICKS` ticks, each a fresh
//! `ClusterSim`, cycling through `EPISODE_SEEDS` seeds derived from
//! `--seed`. Every replayed episode must reproduce the fingerprint of the
//! first episode of its seed; the rebuilds between episodes are left out
//! of the timed window, and the quality figures are summed over the
//! first complete episode of each seed.

use crate::check::{conserve, same_fingerprint, Forge, Violation};
use crate::path::failed;
use crate::stats::Windows;
use crate::trace::{overhead_pct, Acc, Span, Stage, Waterfall};
use crate::{set_up, timed, Layers, Outcome, RunSpec, Step, SETUPS};
use ss_cluster::{
    ClusterConfig, ClusterSim, FaultProfile, RunReport, Sabotage, SabotageKind, ScenarioSpec,
};
use ss_faults::rng::mix;
use std::time::{Duration, Instant};

const NODES: usize = 8;
const SHARDS: usize = 4;
const SLOTS: usize = 8;
/// Ticks run during set-up; the set-up fingerprints cover this horizon.
const WARMUP_TICKS: u64 = 5_000;
/// Ticks per episode.
const EPISODE_TICKS: u64 = 50_000;
/// Distinct episode seeds a run cycles through.
const EPISODE_SEEDS: u64 = 16;

/// The seed of episode `e` of a run seeded `seed`.
fn episode_seed(seed: u64, e: u64) -> u64 {
    mix(seed ^ mix(e % EPISODE_SEEDS + 1))
}

fn config(seed: u64, forge: Forge) -> Result<ClusterConfig, Violation> {
    let scenario = ScenarioSpec::parse("steady:rate=2000").map_err(failed)?;
    let mut cfg = ClusterConfig::new(seed, scenario, NODES, SHARDS, SLOTS);
    cfg.faults = FaultProfile::Light;
    cfg.ticks = EPISODE_TICKS;
    if forge == Forge::ConservationBreak {
        cfg.sabotage = Some(Sabotage {
            kind: SabotageKind::Phantom,
            node: 0,
            tick: WARMUP_TICKS / 2,
        });
    }
    Ok(cfg)
}

/// Checks a cluster: no invariant violation, node conservation
/// (offered = transmitted + Σ ledger sites + live backlog) and egress
/// conservation. Returns its report.
fn check(sim: &ClusterSim) -> Result<RunReport, Violation> {
    if let Some(v) = sim.violations().first() {
        return Err(failed(format!(
            "invariant {} violated at tick {} on node {}",
            v.invariant.name(),
            v.tick,
            v.node
        )));
    }
    let r = sim.report();
    let backlog: u64 = (0..NODES).map(|i| sim.node(i).recomputed_backlog()).sum();
    conserve(
        "cluster nodes",
        r.offered,
        r.transmitted,
        &r.ledger,
        backlog,
    )?;
    let egress = r.egressed + r.egress_queued + r.egress_dropped;
    if egress != r.transmitted {
        return Err(Violation::Conservation {
            at: "cluster egress",
            offered: r.transmitted,
            accounted: egress,
        });
    }
    Ok(r)
}

struct Cluster {
    seed: u64,
    forge: Forge,
    /// Episodes started so far (the current one included).
    episodes: u64,
    sim: ClusterSim,
    origin: Instant,
    last: Duration,
    /// Winners transmitted by the current episode so far.
    transmitted: u64,
    /// Ticks stepped in timed windows.
    ticks: u64,
    /// The first complete episode of each seed; replays must match it.
    firsts: Vec<RunReport>,
    tick_span: Acc,
}

impl Cluster {
    /// Winners transmitted so far across the nodes.
    fn transmitted_now(&self) -> u64 {
        (0..NODES).map(|i| self.sim.node(i).transmitted()).sum()
    }

    /// Checks the finished episode against the first one of its seed
    /// and starts the next episode.
    fn next_episode(&mut self) -> Result<(), Violation> {
        let r = check(&self.sim)?;
        let k = ((self.episodes - 1) % EPISODE_SEEDS) as usize;
        match self.firsts.get(k) {
            None => self.firsts.push(r),
            Some(first) => same_fingerprint(&[first.fingerprint, r.fingerprint])?,
        }
        let cfg = config(episode_seed(self.seed, self.episodes), self.forge)?;
        self.sim = ClusterSim::new(cfg).map_err(failed)?;
        self.episodes += 1;
        self.transmitted = 0;
        Ok(())
    }
}

impl Step for Cluster {
    const WINDOW: Duration = Duration::from_millis(5);

    /// One tick; its wall time is the latency sample.
    fn step<const TRACED: bool>(&mut self, win: &mut Windows) -> Result<(), Violation> {
        if self.sim.tick() == EPISODE_TICKS {
            let t = self.origin.elapsed();
            self.next_episode()?;
            let rebuild = self.origin.elapsed() - t;
            win.exclude(rebuild);
            self.last += rebuild;
        }
        let s = Span::<TRACED>::open();
        let ran = self.sim.run_chunk(1);
        s.close(&mut self.tick_span);
        if ran != 1 {
            return Err(failed("the cluster halted"));
        }
        self.ticks += 1;
        let now = self.origin.elapsed();
        win.sample((now - self.last).as_nanos() as u64);
        self.last = now;
        let t = self.transmitted_now();
        win.count(t - self.transmitted);
        self.transmitted = t;
        Ok(())
    }

    fn clock(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// Set-up: build the cluster and run the warm-up ticks. Returns the
/// cluster and its fingerprint at the warm-up horizon.
fn setup(seed: u64, origin: Instant, forge: Forge) -> Result<(Cluster, u64), Violation> {
    let mut sim = ClusterSim::new(config(episode_seed(seed, 0), forge)?).map_err(failed)?;
    sim.run_chunk(WARMUP_TICKS);
    let r = check(&sim)?;
    let c = Cluster {
        seed,
        forge,
        episodes: 1,
        sim,
        origin,
        last: origin.elapsed(),
        transmitted: r.transmitted,
        ticks: 0,
        firsts: Vec::new(),
        tick_span: Acc::default(),
    };
    Ok((c, r.fingerprint))
}

/// Runs the workload.
pub fn run(spec: &RunSpec) -> Result<Outcome, Violation> {
    let origin = Instant::now();
    let mut prints = Vec::with_capacity(SETUPS);
    let ((mut c, print), setup_s) = set_up(
        || setup(spec.seed, origin, spec.forge),
        |(_, print)| {
            prints.push(print);
            Ok(())
        },
    )?;
    prints.push(print);
    same_fingerprint(&prints)?;

    c.last = c.origin.elapsed();
    let (base, traced) = if spec.trace {
        let (base, _) = timed::<_, false>(&mut c, spec.seconds / 2.0)?;
        let ticks0 = c.ticks;
        let (traced, _) = timed::<_, true>(&mut c, spec.seconds / 2.0)?;
        (base, Some((traced, c.ticks - ticks0)))
    } else {
        (timed::<_, false>(&mut c, spec.seconds)?.0, None)
    };
    // Finish the current episode, and any seed not yet run, untimed.
    loop {
        let rest = EPISODE_TICKS - c.sim.tick();
        if c.sim.run_chunk(rest) != rest {
            return Err(failed("the cluster halted"));
        }
        c.next_episode()?;
        if c.firsts.len() as u64 == EPISODE_SEEDS {
            break;
        }
    }
    let r = sum_reports(&c.firsts);

    let layers = traced.map(|(traced, ticks)| {
        let per = |n: u64| n as f64 * 1000.0 / r.offered as f64;
        let g = &r.ledger;
        let tick_ns = c.tick_span.per(ticks);
        let decisions_per_tick = r.transmitted as f64 / r.ticks_run as f64;
        Layers {
            tick_us: tick_ns / 1e3,
            decisions_per_tick,
            ledger_permille: [
                per(g.admission),
                per(g.shed),
                per(g.ring),
                per(g.shard),
                per(g.drain),
            ],
            egress_drop_permille: r.egress_dropped as f64 * 1000.0 / r.transmitted as f64,
            trace_overhead_pct: overhead_pct(base.pps, traced.pps),
            waterfall: Some(Waterfall {
                stages: vec![Stage::new(
                    "cluster.sim.tick_ns_per_pkt",
                    tick_ns / decisions_per_tick,
                )],
                e2e_ns_per_pkt: 1e9 / base.pps,
            }),
            ..Layers::default()
        }
    });
    Ok(Outcome {
        summary: base,
        setup_s,
        attempted: c.ticks,
        failed: 0,
        delivered_permille: 1000.0 - r.ledger.total() as f64 * 1000.0 / r.offered as f64,
        protected_met_permille: if r.protected_serviced == 0 {
            1000.0
        } else {
            r.protected_met as f64 * 1000.0 / r.protected_serviced as f64
        },
        fingerprint: prints[0],
        busy_threads: 1,
        transport: "in-process",
        layers,
    })
}

/// The episodes' reports summed into one (counts only).
fn sum_reports(reports: &[RunReport]) -> RunReport {
    let mut sum = reports[0].clone();
    for r in &reports[1..] {
        sum.ticks_run += r.ticks_run;
        sum.offered += r.offered;
        sum.transmitted += r.transmitted;
        sum.egressed += r.egressed;
        sum.egress_queued += r.egress_queued;
        sum.egress_dropped += r.egress_dropped;
        sum.ledger.merge(&r.ledger);
        sum.protected_serviced += r.protected_serviced;
        sum.protected_met += r.protected_met;
    }
    sum
}
