//! The ShareStreams overload-control plane.
//!
//! The paper's endsystem realization (host Stream processor → SPSC rings →
//! Queue Manager → PCI → decision fabric) assumes offered load fits the
//! fabric's service rate of one decision per packet-time. This crate is
//! what happens when it doesn't: a per-stream / per-shard control plane
//! that decides whether to **admit**, **delay**, or **shed** work, and
//! propagates backpressure end to end instead of dropping silently.
//!
//! Six cooperating pieces, each usable on its own, and one composition:
//!
//! * [`AdmissionController`] — per-stream token buckets whose refill is
//!   *window-constraint aware*: a stream with a tight DWCS loss tolerance
//!   `x/y` (high mandatory fraction `(y-x)/y`) keeps its full refill rate
//!   under pressure, while loss-tolerant streams are squeezed first — so
//!   tight-window streams get shed *last*.
//! * [`PressureSignal`] / [`SharedPressure`] — hierarchical backpressure:
//!   SPSC ring high-water marks and fabric backlog feed a three-level
//!   signal with hysteresis (distinct rise/fall thresholds plus a minimum
//!   dwell), so the signal never oscillates cycle-to-cycle. The shared
//!   atomic form crosses the producer/scheduler thread boundary.
//! * [`QosShedder`] — chooses shed victims among streams whose window
//!   constraints are *currently satisfied* (loss headroom left in the
//!   sliding `x/y` window), maximizing Table-3 deadlines-met under
//!   overload.
//! * [`RedQueue`] — classic Random Early Detection (the paper's §5.2
//!   DRR + RED comparison point), whose Early/Forced verdicts double as
//!   shed *proposals*.
//! * [`CircuitBreaker`] — per-shard overload breaker, distinct from crash
//!   handling: trips on sustained latency/backlog, sheds the shard's new
//!   load while survivors keep full service, and half-opens on recovery.
//! * [`DegradationLadder`] — the facade's rung sequence full QoS →
//!   shed-optional-streams → FCFS drain, with watchdog + pressure driven
//!   entry/exit and per-rung dwell hysteresis.
//!
//! [`Gate`] composes admission, a shed proposal (RED, or Overloaded
//! pressure), the QoS veto, the ledger and pressure publication into the
//! one per-arrival decision point the endsystem, the cluster nodes and
//! the TCP edge all run.
//!
//! Loss is never silent: every rejection is classified by site in a
//! [`LossLedger`] whose partition (admission / ring / shed / shard /
//! drain) must sum *exactly* to total loss — the chaos soak asserts it.
//!
//! Everything here is deterministic (RED draws from a seeded RNG),
//! integer-only on the hot paths apart from RED's EWMA, and
//! allocation-free after construction (`try_admit`, `pick_victim`,
//! `observe`, `record` are registered with the ss-lint hot-path-purity
//! gate and covered by `tests/zero_alloc.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod bucket;
pub mod gate;
pub mod ladder;
pub mod ledger;
pub mod pressure;
pub mod red;
pub mod shed;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use bucket::{AdmissionController, StreamClass};
pub use gate::{BacklogItem, Gate, GateConfig, GateReason, GateVerdict, FULLY_PROTECTED};
pub use ladder::{DegradationLadder, LadderConfig, Rung};
pub use ledger::{LossLedger, LossSite};
pub use pressure::{PressureConfig, PressureLevel, PressureSignal, SharedPressure};
pub use red::{early_drop_probability, RedConfig, RedQueue, RedVerdict};
pub use shed::QosShedder;
