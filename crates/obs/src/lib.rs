//! Observability layer for the eTrain reproduction.
//!
//! The paper's evaluation lives or dies on per-event energy accounting:
//! every heartbeat, tail re-use, and piggyback burst must be attributable
//! to a joule figure (PAPER.md §IV). Endpoint aggregates such as
//! `RunReport` answer *what* a run cost; this crate answers *why*, through
//! two cooperating facilities:
//!
//! 1. **Structured event journal** ([`Event`], [`EventRecord`],
//!    [`Journal`]) — a time-stamped, sequence-numbered record of every
//!    decision the system makes: heartbeats firing, tails being re-used,
//!    piggyback decisions with their Lyapunov drift terms and Θ
//!    comparison, RRC transitions, shed/forced-flush actions, health
//!    ladder transitions, and retry attempts. A `RunGrid` worker tags its
//!    run's journal with the job index ([`Journal::set_run`]) and renders
//!    it; the grid joins those lines in job order, which is the same bytes
//!    as [`Journal::merge`] by `(run, time, seq)`, so a serial and a
//!    parallel execution of the same grid produce byte-identical JSON
//!    Lines output. [`Journal::to_jsonl`] writes
//!    that output (`etrain-journal-v1`) with a hand-written encoder: it
//!    does not go through the serde shim, though it matches the shim's
//!    rendering byte for byte. Its scalars come from [`json`], which the
//!    core's and the daemon's state fingerprints and WAL reader share.
//! 2. **Metrics registry** ([`MetricsRegistry`], [`MetricsSnapshot`]) —
//!    typed counters, gauges, and histograms (energy per RRC state, tail
//!    utilization, queue depth, decision counts) snapshotted into
//!    `RunReport`.
//!
//! Everything here is simulated-time and deterministic; nothing reads a
//! wall clock. Where the time goes is measured from outside, by the
//! repository's `benchmark/` package. The crate keeps no process-wide
//! state: what a run records lives in its own [`Journal`] and
//! [`MetricsSnapshot`], so parallel workers share nothing while they
//! record.
//!
//! The whole layer is **zero-cost when off**: the [`ObsMode`] a caller
//! sets (`Scenario::obs`, `RunGrid::obs`, `repro_all --journal`) defaults
//! to [`ObsMode::Off`], in which case no events are allocated and
//! simulation output is bit-for-bit identical to a build without this
//! crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod event;
mod fnv;
pub mod json;
mod metrics;
mod mode;
mod ryu;

pub use event::{Event, EventRecord, Journal};
pub use fnv::Fnv1a;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use mode::ObsMode;
