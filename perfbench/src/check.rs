//! Correctness gates: exactly-once tag delivery, loss conservation and
//! the winner-sequence fingerprint.

use ss_overload::LossLedger;
use std::collections::VecDeque;
use std::fmt;

/// A correctness gate that failed. Any of these makes the run exit
/// non-zero without printing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A slot delivered a tag out of sequence (a duplicate or a gap).
    TagOrder {
        /// Slot.
        slot: usize,
        /// Tag expected next.
        expected: u16,
        /// Tag delivered.
        got: u16,
    },
    /// A packet was delivered that was never submitted.
    Phantom {
        /// Slot.
        slot: usize,
    },
    /// A packet was transmitted that was never delivered.
    PhantomTransmit {
        /// Slot.
        slot: usize,
    },
    /// Packets submitted but never transmitted at the end of the run.
    Undelivered {
        /// Slot.
        slot: usize,
        /// Packets missing.
        missing: u64,
    },
    /// offered ≠ served + Σ ledger sites (+ still queued).
    Conservation {
        /// Where the identity was checked.
        at: &'static str,
        /// Packets offered.
        offered: u64,
        /// Packets served plus every loss site plus the queued remainder.
        accounted: u64,
    },
    /// Two runs of one seed produced different fingerprints.
    Fingerprint {
        /// First fingerprint.
        first: u64,
        /// Differing fingerprint.
        other: u64,
    },
    /// A layer refused an operation the workload is sized never to fail.
    Failed {
        /// What failed.
        what: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TagOrder {
                slot,
                expected,
                got,
            } => write!(f, "slot {slot}: tag {got} delivered, {expected} expected"),
            Violation::Phantom { slot } => write!(f, "slot {slot}: delivery never submitted"),
            Violation::PhantomTransmit { slot } => {
                write!(f, "slot {slot}: transmit never delivered")
            }
            Violation::Undelivered { slot, missing } => {
                write!(f, "slot {slot}: {missing} packets never transmitted")
            }
            Violation::Conservation {
                at,
                offered,
                accounted,
            } => write!(f, "{at}: offered {offered} != accounted {accounted}"),
            Violation::Fingerprint { first, other } => {
                write!(f, "fingerprint {first:#018x} != {other:#018x} for one seed")
            }
            Violation::Failed { what } => write!(f, "operation failed: {what}"),
        }
    }
}

impl std::error::Error for Violation {}

/// A deliberate defect planted by the benchmark's own tests to show the
/// gates catch it. Real runs use [`Forge::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Forge {
    /// No defect.
    #[default]
    None,
    /// Lose one delivered packet without recording it at any ledger site.
    ConservationBreak,
    /// Deliver one packet's tag twice.
    DuplicateTag,
}

/// Per-slot exactly-once ledger from submit through delivery (ring pop)
/// to transmit. Each slot's tags are its own packet sequence numbers,
/// wrapping at 2^16; every layer on the path is FIFO per slot, so a
/// delivered tag must be exactly the next one expected.
#[derive(Debug)]
pub struct TagLedger {
    submitted: Vec<u64>,
    delivered: Vec<u64>,
    transmitted: Vec<u64>,
    /// Submit instants (ns since the run origin) of packets not yet
    /// transmitted, per slot.
    pending: Vec<VecDeque<u64>>,
}

impl TagLedger {
    /// A ledger for `slots` slots.
    pub fn new(slots: usize) -> Self {
        Self {
            submitted: vec![0; slots],
            delivered: vec![0; slots],
            transmitted: vec![0; slots],
            pending: (0..slots).map(|_| VecDeque::with_capacity(256)).collect(),
        }
    }

    /// Assigns the next tag of `slot`, submitted at `at_ns`.
    #[inline]
    pub fn submit(&mut self, slot: usize, at_ns: u64) -> u16 {
        let tag = self.submitted[slot] as u16;
        self.submitted[slot] += 1;
        self.pending[slot].push_back(at_ns);
        tag
    }

    /// Submits `n` packets at `at_ns` to the slots `next_slot` draws,
    /// replacing `out` with their `(slot, tag)` entries.
    pub fn submit_batch(
        &mut self,
        n: usize,
        at_ns: u64,
        mut next_slot: impl FnMut() -> u32,
        out: &mut Vec<(u32, u16)>,
    ) {
        out.clear();
        for _ in 0..n {
            let slot = next_slot();
            out.push((slot, self.submit(slot as usize, at_ns)));
        }
    }

    /// Checks one delivered tag.
    #[inline]
    pub fn deliver(&mut self, slot: usize, tag: u16) -> Result<(), Violation> {
        let Some(&d) = self.delivered.get(slot) else {
            return Err(Violation::Phantom { slot });
        };
        if d >= self.submitted[slot] {
            return Err(Violation::Phantom { slot });
        }
        if tag != d as u16 {
            return Err(Violation::TagOrder {
                slot,
                expected: d as u16,
                got: tag,
            });
        }
        self.delivered[slot] = d + 1;
        Ok(())
    }

    /// Records one transmit from `slot`; returns its submit instant.
    #[inline]
    pub fn transmit(&mut self, slot: usize) -> Result<u64, Violation> {
        if self.transmitted[slot] >= self.delivered[slot] {
            return Err(Violation::PhantomTransmit { slot });
        }
        self.transmitted[slot] += 1;
        self.pending[slot]
            .pop_front()
            .ok_or(Violation::PhantomTransmit { slot })
    }

    /// Packets submitted so far.
    pub fn submitted_total(&self) -> u64 {
        self.submitted.iter().sum()
    }

    /// End-of-run gate: every submitted packet was delivered and
    /// transmitted exactly once.
    pub fn settle(&self) -> Result<(), Violation> {
        for slot in 0..self.submitted.len() {
            let missing = self.submitted[slot] - self.transmitted[slot];
            if missing != 0 || self.delivered[slot] != self.submitted[slot] {
                return Err(Violation::Undelivered { slot, missing });
            }
        }
        Ok(())
    }
}

/// Checks `offered == served + Σ ledger sites + queued`.
pub fn conserve(
    at: &'static str,
    offered: u64,
    served: u64,
    ledger: &LossLedger,
    queued: u64,
) -> Result<(), Violation> {
    let accounted = served + ledger.total() + queued;
    if accounted == offered {
        Ok(())
    } else {
        Err(Violation::Conservation {
            at,
            offered,
            accounted,
        })
    }
}

/// Checks that every fingerprint equals the first.
pub fn same_fingerprint(prints: &[u64]) -> Result<(), Violation> {
    match prints.iter().find(|&&p| p != prints[0]) {
        None => Ok(()),
        Some(&other) => Err(Violation::Fingerprint {
            first: prints[0],
            other,
        }),
    }
}

/// Folds one winner into a running winner-sequence fingerprint.
#[inline]
pub fn fold(acc: u64, slot: usize, met: bool) -> u64 {
    ss_faults::rng::mix(acc ^ ((slot as u64) << 1) ^ u64::from(met))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_overload::LossSite;

    #[test]
    fn exactly_once_in_order_passes() {
        let mut l = TagLedger::new(2);
        let a = l.submit(0, 10);
        let b = l.submit(0, 20);
        let c = l.submit(1, 30);
        l.deliver(0, a).unwrap();
        l.deliver(1, c).unwrap();
        l.deliver(0, b).unwrap();
        assert_eq!(l.transmit(1), Ok(30));
        assert_eq!(l.transmit(0), Ok(10));
        assert_eq!(l.transmit(0), Ok(20));
        l.settle().unwrap();
    }

    #[test]
    fn duplicate_tag_is_caught() {
        let mut l = TagLedger::new(1);
        let a = l.submit(0, 0);
        let _b = l.submit(0, 0);
        l.deliver(0, a).unwrap();
        assert_eq!(
            l.deliver(0, a),
            Err(Violation::TagOrder {
                slot: 0,
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn phantom_and_missing_packets_are_caught() {
        let mut l = TagLedger::new(1);
        assert_eq!(l.deliver(0, 0), Err(Violation::Phantom { slot: 0 }));
        assert_eq!(l.deliver(5, 0), Err(Violation::Phantom { slot: 5 }));
        let a = l.submit(0, 0);
        assert_eq!(l.transmit(0), Err(Violation::PhantomTransmit { slot: 0 }));
        l.deliver(0, a).unwrap();
        assert_eq!(
            l.settle(),
            Err(Violation::Undelivered {
                slot: 0,
                missing: 1
            })
        );
    }

    #[test]
    fn tags_wrap_at_sixteen_bits() {
        let mut l = TagLedger::new(1);
        for i in 0..70_000u64 {
            let t = l.submit(0, i);
            l.deliver(0, t).unwrap();
            l.transmit(0).unwrap();
        }
        l.settle().unwrap();
    }

    #[test]
    fn conservation_counts_every_site() {
        let mut ledger = LossLedger::new();
        ledger.record_n(LossSite::Shed, 3);
        ledger.record(LossSite::Admission);
        assert!(conserve("t", 10, 5, &ledger, 1).is_ok());
        assert!(conserve("t", 11, 5, &ledger, 1).is_err());
    }

    #[test]
    fn fingerprints_must_match() {
        assert!(same_fingerprint(&[7, 7, 7]).is_ok());
        assert_eq!(
            same_fingerprint(&[7, 7, 8]),
            Err(Violation::Fingerprint { first: 7, other: 8 })
        );
        assert_ne!(fold(0, 1, true), fold(0, 1, false));
    }
}
