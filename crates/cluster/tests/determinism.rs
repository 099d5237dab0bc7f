//! Acceptance: a pinned-seed cluster run with ≥4 endsystems, faults and
//! overload enabled, replays bit-identically — same winner sequences,
//! same loss-ledger partition, same fingerprint — across invocations.

use ss_cluster::{ClusterConfig, ClusterSim, FaultProfile, RunReport, ScenarioSpec, Winner};

fn pinned_config() -> ClusterConfig {
    // 2× sustained overload with a flash crowd to 4×, chaos faults:
    // crashes, stalls, ring bursts and overload bursts all exercised.
    let scenario =
        ScenarioSpec::parse("flash-crowd:rate=2000,peak=4000,at=1000,width=1500").expect("spec");
    let mut config = ClusterConfig::new(0xDEC1_5105_0AC3_D001, scenario, 6, 4, 8);
    config.ticks = 4_000;
    config.faults = FaultProfile::Chaos;
    config.record_winners = true;
    config
}

fn run() -> (RunReport, Vec<Vec<Winner>>) {
    let mut sim = ClusterSim::new(pinned_config()).expect("cluster builds");
    let report = sim.run();
    let winners = (0..6)
        .map(|i| sim.node(i).winners().expect("recording on").to_vec())
        .collect();
    (report, winners)
}

#[test]
fn pinned_seed_replays_bit_identically() {
    let (a, wa) = run();
    let (b, wb) = run();

    assert!(
        a.violations.is_empty(),
        "chaos at 2–4× overload stays invariant-clean: {:?}",
        a.violations
    );
    assert_eq!(a.fingerprint, b.fingerprint, "cluster fingerprint replays");
    assert_eq!(a.node_fingerprints, b.node_fingerprints);
    assert_eq!(wa, wb, "full winner sequences replay");

    // The ledger partition replays site by site, not just in total.
    assert_eq!(a.ledger.admission, b.ledger.admission);
    assert_eq!(a.ledger.ring, b.ledger.ring);
    assert_eq!(a.ledger.shed, b.ledger.shed);
    assert_eq!(a.ledger.shard, b.ledger.shard);

    assert_eq!(a.offered, b.offered);
    assert_eq!(a.transmitted, b.transmitted);
    assert_eq!(a.egressed, b.egressed);
    assert_eq!(a.egress_dropped, b.egress_dropped);
    assert_eq!(a.shard_crashes, b.shard_crashes);
}

#[test]
fn the_run_actually_exercises_the_hard_paths() {
    // Guard against the acceptance run degenerating into a quiet one:
    // the chaos profile must actually crash shards, the overload scenario
    // must actually shed, and the ¾-subscribed linecard must actually
    // drop — otherwise the determinism assertions above prove nothing.
    let (report, _) = run();
    assert!(report.shard_crashes > 0, "chaos crashed at least one shard");
    assert!(report.ledger.shed > 0, "2–4× overload shed admitted work");
    assert!(report.ledger.admission > 0, "admission rejected work");
    assert!(report.egress_dropped > 0, "the linecard queue overflowed");
    assert!(
        report.protected_met_permille() == 1000,
        "the protected floor held through all of it: {}‰",
        report.protected_met_permille()
    );
    assert!(report.transmitted > 10_000, "the fabrics kept deciding");
}

#[test]
fn distinct_seeds_diverge() {
    let (a, _) = run();
    let mut config = pinned_config();
    config.seed ^= 1;
    let mut sim = ClusterSim::new(config).expect("cluster builds");
    let b = sim.run();
    assert_ne!(
        a.fingerprint, b.fingerprint,
        "the fingerprint is sensitive to the seed"
    );
}
