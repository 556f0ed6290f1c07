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
//!    ladder transitions, and retry attempts. Journals from parallel
//!    `RunGrid` workers merge deterministically by `(run, time, seq)`, so
//!    a serial and a parallel execution of the same grid produce
//!    byte-identical JSON Lines output. [`Journal::to_jsonl`] writes
//!    that output (`etrain-journal-v1`) with a hand-written encoder: it
//!    does not go through the serde shim, though it matches the shim's
//!    rendering byte for byte. Its scalars come from [`json`], which the
//!    core's and the daemon's state fingerprints and WAL reader share.
//! 2. **Metrics registry** ([`MetricsRegistry`], [`MetricsSnapshot`]) —
//!    typed counters, gauges, and histograms (energy per RRC state, tail
//!    utilization, queue depth, decision counts) snapshotted into
//!    `RunReport` and `BENCH_repro.json`.
//!
//! A third module, [`durable`], is the one place the checksummed on-disk
//! frame format is written and read: the daemon's write-ahead log, its
//! fault hook and the chaos harness's damaged tails all go through
//! [`FrameWriter`] and [`scan_frames`].
//!
//! Everything here is simulated-time and deterministic; nothing reads a
//! wall clock. Where the time goes is measured from outside, by the
//! repository's `benchmark/` package.
//!
//! The whole layer is **zero-cost when off**: the [`ObsMode`] a caller
//! sets (`Scenario::obs`, `RunGrid::obs`, `repro_all --journal`) defaults
//! to [`ObsMode::Off`], in which case no events are allocated and
//! simulation output is bit-for-bit identical to a build without this
//! crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod durable;
mod event;
mod fnv;
pub mod json;
mod metrics;
mod mode;

pub use durable::{
    scan_frames, AppendFault, FrameScan, FrameWriter, TailStatus, FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES, WAL_MAGIC,
};
pub use event::{Event, EventRecord, Journal};
pub use fnv::Fnv1a;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use mode::ObsMode;

use std::sync::atomic::{AtomicU64, Ordering};

static EVENTS_RECORDED: AtomicU64 = AtomicU64::new(0);
static JOURNALS_MERGED: AtomicU64 = AtomicU64::new(0);
static SNAPSHOTS_TAKEN: AtomicU64 = AtomicU64::new(0);

/// Process-wide observability tallies, mirroring `oracle::counters()`.
///
/// These are *reporting* counters for `BENCH_repro.json` summaries — they
/// are monotone across a process lifetime (modulo [`reset_counters`]) and
/// deliberately carry no per-run detail; per-run detail lives in the
/// [`Journal`] and [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsCounters {
    /// Events pushed into any [`Journal`] in this process.
    pub events_recorded: u64,
    /// Journal merge operations performed (one per grid run).
    pub journals_merged: u64,
    /// Metrics snapshots taken from a [`MetricsRegistry`].
    pub snapshots_taken: u64,
}

/// Reads the process-wide observability tallies.
pub fn counters() -> ObsCounters {
    ObsCounters {
        events_recorded: EVENTS_RECORDED.load(Ordering::Relaxed),
        journals_merged: JOURNALS_MERGED.load(Ordering::Relaxed),
        snapshots_taken: SNAPSHOTS_TAKEN.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide observability tallies to zero (test hygiene).
pub fn reset_counters() {
    EVENTS_RECORDED.store(0, Ordering::Relaxed);
    JOURNALS_MERGED.store(0, Ordering::Relaxed);
    SNAPSHOTS_TAKEN.store(0, Ordering::Relaxed);
}

pub(crate) fn bump_events(n: u64) {
    EVENTS_RECORDED.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn bump_merges() {
    JOURNALS_MERGED.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn bump_snapshots() {
    SNAPSHOTS_TAKEN.fetch_add(1, Ordering::Relaxed);
}
