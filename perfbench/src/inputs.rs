//! Seeded input generation. Everything a workload feeds the layers is
//! derived here from `--seed`; the layers see only the generated inputs.

use ss_faults::SplitMix64;
use ss_types::WindowConstraint;

/// Length of the precomputed slot sequence a run cycles through.
const POOL: usize = 1 << 16;

/// Per-slot arrival weights in `1..=8`, drawn from the seed.
pub fn weights(seed: u64, slots: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
    (0..slots).map(|_| 1 + rng.below(8) as u32).collect()
}

/// DWCS request period per slot: the slot's deadline spacing, so that
/// slot `i`'s share of decisions `1 / period_i` is at least its share of
/// the weighted arrivals.
pub fn periods(weights: &[u32]) -> Vec<u64> {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    weights
        .iter()
        .map(|&w| (total / u64::from(w)).max(1))
        .collect()
}

/// The `fabric_inproc` window mix: every fourth slot is a protected 0/y
/// stream, the others tolerate 1/4, 2/4 or 3/4 losses.
pub fn mixed_windows(slots: usize) -> Vec<WindowConstraint> {
    (0..slots)
        .map(|s| match s % 4 {
            0 => WindowConstraint::new(0, 4),
            1 => WindowConstraint::new(1, 4),
            2 => WindowConstraint::new(2, 4),
            _ => WindowConstraint::new(3, 4),
        })
        .collect()
}

/// An endless, seeded sequence of destination slots, distributed by
/// per-slot weights. The sequence is drawn once, before timing, and
/// cycled.
#[derive(Debug, Clone)]
pub struct SlotStream {
    pool: Vec<u32>,
    at: usize,
}

impl SlotStream {
    /// Draws the sequence for `weights` from `seed`.
    pub fn new(seed: u64, weights: &[u32]) -> Self {
        let mut cum = Vec::with_capacity(weights.len());
        let mut total = 0u64;
        for &w in weights {
            total += u64::from(w);
            cum.push(total);
        }
        let mut rng = SplitMix64::new(seed);
        let pool = (0..POOL)
            .map(|_| {
                let r = rng.below(total);
                cum.partition_point(|&c| c <= r) as u32
            })
            .collect();
        Self { pool, at: 0 }
    }

    /// The next destination slot.
    #[inline]
    pub fn next_slot(&mut self) -> u32 {
        let s = self.pool[self.at];
        self.at = (self.at + 1) & (POOL - 1);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let w = weights(9, 8);
        assert_eq!(w, weights(9, 8));
        assert_ne!(w, weights(10, 8));
        let mut a = SlotStream::new(9, &w);
        let mut b = SlotStream::new(9, &w);
        for _ in 0..1000 {
            assert_eq!(a.next_slot(), b.next_slot());
        }
    }

    #[test]
    fn slots_follow_the_weights() {
        let w = [1, 3];
        let mut s = SlotStream::new(1, &w);
        let ones = (0..POOL).filter(|_| s.next_slot() == 1).count();
        let share = ones as f64 / POOL as f64;
        assert!((share - 0.75).abs() < 0.02, "share {share}");
    }

    #[test]
    fn periods_cover_the_arrival_shares() {
        let w = [1, 3, 4];
        let p = periods(&w);
        assert_eq!(p, vec![8, 2, 2]);
        let w = weights(3, 32);
        let load: f64 = periods(&w).iter().map(|&p| 1.0 / p as f64).sum();
        assert!(load >= 1.0, "decision shares cover the arrivals");
    }
}
