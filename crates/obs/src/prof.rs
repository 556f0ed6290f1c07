//! Per-phase wall-clock profiling spans.
//!
//! Profiling answers "where does the harness spend its time", not "what
//! did the simulation decide" — so, unlike the journal and metrics
//! (which are deterministic simulated-time quantities), these spans read
//! the wall clock. To keep determinism intact, wall-clock readings
//! **never** flow into a `RunReport`, journal, or headline: they
//! accumulate in a process-wide atomics registry that is only ever
//! rendered as a flame-style text summary by `repro_all`.
//!
//! When profiling is disabled (the default), [`Span::enter`] is a single
//! relaxed atomic load and no clock is read.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A profiled phase of the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One full engine run, from `Engine::new` until the engine is
    /// finished or dropped.
    EngineRun,
    /// `Scheduler::on_slot` calls (the per-slot piggyback decision).
    SchedulerSlot,
    /// `Scheduler::on_arrival` calls.
    SchedulerArrival,
    /// `Scheduler::on_tx_failure` calls (retry re-queueing).
    SchedulerRetry,
    /// Event-kernel batch skips over quiescent slot boundaries.
    EngineSkip,
}

const PHASE_COUNT: usize = 5;

impl Phase {
    fn index(self) -> usize {
        match self {
            Phase::EngineRun => 0,
            Phase::SchedulerSlot => 1,
            Phase::SchedulerArrival => 2,
            Phase::SchedulerRetry => 3,
            Phase::EngineSkip => 4,
        }
    }

    /// Stable display name of the phase.
    pub fn name(self) -> &'static str {
        match self {
            Phase::EngineRun => "engine.run",
            Phase::SchedulerSlot => "scheduler.on_slot",
            Phase::SchedulerArrival => "scheduler.on_arrival",
            Phase::SchedulerRetry => "scheduler.on_tx_failure",
            Phase::EngineSkip => "engine.batch_skip",
        }
    }
}

const ALL_PHASES: [Phase; PHASE_COUNT] = [
    Phase::EngineRun,
    Phase::SchedulerSlot,
    Phase::SchedulerArrival,
    Phase::SchedulerRetry,
    Phase::EngineSkip,
];

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: [AtomicU64; PHASE_COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static NANOS: [AtomicU64; PHASE_COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Turns span collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being collected.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes all accumulated calls and durations.
pub fn reset() {
    for i in 0..PHASE_COUNT {
        CALLS[i].store(0, Ordering::Relaxed);
        NANOS[i].store(0, Ordering::Relaxed);
    }
}

/// An RAII span: construct with [`Span::enter`] at the top of a phase;
/// the elapsed wall time is accumulated when it drops. A no-op (no clock
/// read) when profiling is disabled.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    active: Option<(Phase, Instant)>,
}

impl Span {
    /// Starts timing `phase` if profiling is enabled.
    pub fn enter(phase: Phase) -> Self {
        let active = if enabled() {
            Some((phase, Instant::now()))
        } else {
            None
        };
        Span { active }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((phase, started)) = self.active.take() {
            let nanos = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let i = phase.index();
            CALLS[i].fetch_add(1, Ordering::Relaxed);
            NANOS[i].fetch_add(nanos, Ordering::Relaxed);
        }
    }
}

/// Accumulated totals for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// The phase these totals belong to.
    pub phase: Phase,
    /// Completed spans.
    pub calls: u64,
    /// Total wall time across those spans, in nanoseconds.
    pub nanos: u64,
}

/// Reads the accumulated totals for every phase, in fixed order.
pub fn stats() -> Vec<PhaseStat> {
    ALL_PHASES
        .iter()
        .map(|&phase| PhaseStat {
            phase,
            calls: CALLS[phase.index()].load(Ordering::Relaxed),
            nanos: NANOS[phase.index()].load(Ordering::Relaxed),
        })
        .collect()
}

/// Renders a flame-style text summary: scheduler phases indented under
/// the engine phase, each with call count, total time, and share of the
/// engine total.
pub fn flame_summary() -> String {
    let stats = stats();
    let engine = stats[Phase::EngineRun.index()];
    let engine_nanos = engine.nanos.max(1);
    let mut out = String::from("phase profile (wall clock; never feeds results)\n");
    let line = |out: &mut String, indent: &str, s: PhaseStat| {
        let ms = s.nanos as f64 / 1e6;
        let pct = 100.0 * s.nanos as f64 / engine_nanos as f64;
        out.push_str(&format!(
            "{indent}{:<28} {:>10} calls {:>12.3} ms {:>6.1}%\n",
            s.phase.name(),
            s.calls,
            ms,
            pct
        ));
    };
    line(&mut out, "", engine);
    for &phase in &[
        Phase::SchedulerSlot,
        Phase::SchedulerArrival,
        Phase::SchedulerRetry,
        Phase::EngineSkip,
    ] {
        line(&mut out, "  ", stats[phase.index()]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Profiling state is process-wide; keep everything in one test so
    // parallel test threads cannot interleave enable/reset.
    #[test]
    fn spans_accumulate_only_when_enabled() {
        reset();
        set_enabled(false);
        drop(Span::enter(Phase::EngineRun));
        assert_eq!(stats()[0].calls, 0);

        set_enabled(true);
        {
            let _engine = Span::enter(Phase::EngineRun);
            let _slot = Span::enter(Phase::SchedulerSlot);
        }
        set_enabled(false);

        let collected = stats();
        assert_eq!(collected[Phase::EngineRun.index()].calls, 1);
        assert_eq!(collected[Phase::SchedulerSlot.index()].calls, 1);

        let summary = flame_summary();
        assert!(summary.contains("engine.run"));
        assert!(summary.contains("scheduler.on_slot"));

        reset();
        assert_eq!(stats()[0].calls, 0);
    }
}
