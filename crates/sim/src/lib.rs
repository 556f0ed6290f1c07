//! # etrain-sim — the trace-driven device simulator
//!
//! The eTrain paper evaluates on two substrates: trace-driven simulation
//! (Sec. VI-A to VI-C) and controlled experiments on instrumented phones
//! with a Monsoon power monitor (Sec. VI-D). This crate is the reproduction
//! of both: a discrete-event simulation of one smartphone's cellular
//! interface that
//!
//! - replays packet arrivals (synthetic Poisson traces or replayed user
//!   traces) into a pluggable [`Scheduler`](etrain_sched::Scheduler);
//! - transmits heartbeats of the configured train apps at their exact
//!   departure times, never rescheduling them (all compared algorithms
//!   leave heartbeats untouched — paper Sec. VI-A);
//! - serializes released transmissions through a FIFO `Q_TX` over a
//!   time-varying bandwidth trace;
//! - drives the [`Radio`](etrain_radio::Radio) RRC state machine and
//!   integrates transmission, tail and idle energy exactly;
//! - reports the paper's three metrics: **total energy consumption**,
//!   **normalized delay** (average per-packet scheduling delay) and
//!   **deadline violation ratio**.
//!
//! [`Scenario`] is the entry point; [`sweep`] adds the parameter sweeps
//! behind the paper's figures (Θ sweeps, E-D panels, delay-matched
//! comparisons).
//!
//! # Example
//!
//! ```
//! use etrain_sim::{Scenario, SchedulerKind};
//!
//! let etrain = Scenario::paper_default()
//!     .duration_secs(1800)
//!     .scheduler(SchedulerKind::ETrain { theta: 0.2, k: None })
//!     .seed(7)
//!     .run();
//! let baseline = Scenario::paper_default()
//!     .duration_secs(1800)
//!     .scheduler(SchedulerKind::Baseline)
//!     .seed(7)
//!     .run();
//! assert!(etrain.extra_energy_j < baseline.extra_energy_j);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod engine;
pub mod fuzz;
mod metrics;
pub mod oracle;
mod replicate;
mod report;
pub mod runner;
mod scenario;
pub mod sweep;

pub use compare::Comparison;
pub use engine::{AbandonedPacket, CompletedPacket, Engine, EngineKind, EngineOutput};
pub use fuzz::{conformance_kinds, CasePlan, TrainSet};
pub use metrics::{AppReport, RunReport};
pub use oracle::{
    audit_scheduler_ordering, OracleMode, OracleOutcome, OracleViolation, OrderingAudit,
};
pub use replicate::{replicate, Percentiles, ReplicatedReport, Stat};
pub use report::{fmt_f, Table};
pub use runner::{resolve_workers, run_pool, RunError, RunGrid, RunSpec, TraceCache};
pub use scenario::{BandwidthSource, Scenario, ScenarioError, SchedulerKind, TraceBundle};

// Re-exported so fault-injection experiments can be described with this
// crate alone.
pub use etrain_sched::{RetryDecision, RetryPolicy};
pub use etrain_trace::faults::{FaultPlan, FaultWindow};

// Re-exported so overload/degradation experiments can be described with
// this crate alone.
pub use etrain_sched::{
    AdmissionConfig, HealthConfig, HealthState, HealthTransition, ShedPolicy, TransitionCause,
};

// Re-exported so observability consumers (journaled runs, metrics
// snapshots) can be described with this crate alone.
pub use etrain_obs::{Event, EventRecord, Journal, MetricsRegistry, MetricsSnapshot, ObsMode};
