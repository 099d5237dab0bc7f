//! Property tests: scenario generators respect their configured aggregate
//! rates and class mixes for any spec.

use proptest::prelude::*;
use ss_cluster::{Scenario, ScenarioSpec};

fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    (0u8..5, 200u32..3000, 1u32..3, 64u64..512, 0u32..900).prop_map(
        |(kind, rate, peak_mul, phase, skew)| {
            let s = match kind {
                0 => format!("steady:rate={rate}"),
                1 => format!(
                    "flash-crowd:rate={rate},peak={},at={phase},width={phase}",
                    rate * (1 + peak_mul)
                ),
                2 => format!(
                    "diurnal:rate={rate},peak={},at={}",
                    rate * (1 + peak_mul),
                    phase * 2
                ),
                3 => format!("elephant-mice:rate={rate},skew={skew}"),
                _ => format!("wimax:rate={rate}"),
            };
            ScenarioSpec::parse(&s).expect("generated spec parses")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sampler's realized aggregate rate tracks the configured
    /// intensity integral: over a long horizon, arrivals/tick ≈ the mean
    /// of `intensity_permille` within Bernoulli noise.
    #[test]
    fn aggregate_rate_matches_the_spec(spec in arb_spec(), seed in any::<u64>(), node in 0usize..8) {
        let slots = 8;
        let scenario = Scenario::new(spec, slots);
        let ticks = 4_096u64;
        let mut counts = vec![0u32; slots];
        let mut total = 0u64;
        let mut expected_micro = 0u64;
        for tick in 0..ticks {
            total += u64::from(scenario.sample_arrivals(seed, node, tick, &mut counts));
            expected_micro += u64::from(scenario.intensity_permille(tick)) * 1_000;
        }
        let expected = expected_micro / 1_000_000;
        // 4096 Bernoulli-ish draws: allow 15% + a small absolute floor.
        let slack = expected / 7 + 32;
        prop_assert!(
            total + slack >= expected && total <= expected + slack,
            "realized {} vs expected {} (±{})", total, expected, slack
        );
    }

    /// Per-slot arrival shares follow the scenario's class weights: a slot
    /// with twice the weight draws about twice the arrivals.
    #[test]
    fn class_mix_follows_the_weights(spec in arb_spec(), seed in any::<u64>()) {
        let slots = 8;
        let scenario = Scenario::new(spec, slots);
        let mut counts = vec![0u32; slots];
        let mut sums = vec![0u64; slots];
        for tick in 0..8_192u64 {
            scenario.sample_arrivals(seed, 0, tick, &mut counts);
            for (sum, &c) in sums.iter_mut().zip(counts.iter()) {
                *sum += u64::from(c);
            }
        }
        let total: u64 = sums.iter().sum();
        prop_assume!(total > 1_000);
        for (s, &c) in sums.iter().enumerate() {
            let realized_permille = c * 1000 / total;
            let want = u64::from(scenario.weights()[s]);
            let slack = want / 4 + 25;
            prop_assert!(
                realized_permille + slack >= want && realized_permille <= want + slack,
                "slot {}: realized {}‰ vs weight {}‰ (±{})",
                s, realized_permille, want, slack
            );
        }
    }

    /// Sampling is a pure function of `(seed, node, tick)`: recomputing
    /// any tick reproduces it exactly, independent of visit order.
    #[test]
    fn sampling_is_order_independent(spec in arb_spec(), seed in any::<u64>()) {
        let scenario = Scenario::new(spec, 8);
        let mut scratch = vec![0u32; 8];
        let mut forward = vec![0u64; 8];
        let mut backward = vec![0u64; 8];
        for tick in 0..256u64 {
            scenario.sample_arrivals(seed, 3, tick, &mut scratch);
            for (sum, &c) in forward.iter_mut().zip(scratch.iter()) {
                *sum += u64::from(c);
            }
        }
        for tick in (0..256u64).rev() {
            scenario.sample_arrivals(seed, 3, tick, &mut scratch);
            for (sum, &c) in backward.iter_mut().zip(scratch.iter()) {
                *sum += u64::from(c);
            }
        }
        prop_assert_eq!(forward, backward);
    }
}
