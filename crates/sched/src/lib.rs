//! # etrain-sched — delay-cost models and transmission schedulers
//!
//! This crate implements the paper's scheduling layer:
//!
//! - [`CostProfile`] — the three delay-cost profile functions of paper
//!   Fig. 6 (f1 for Mail, f2 for Weibo, f3 for Cloud) plus the machinery to
//!   evaluate the instantaneous cost `P_i(t)` of pending queues;
//! - [`ETrainScheduler`] — the paper's online transmission strategy
//!   (Algorithm 1): a Lyapunov drift-maximizing greedy selection gated by
//!   the cost bound Θ and opened up to `k` packets when a heartbeat departs;
//! - [`BaselineScheduler`] — transmit-on-arrival (the paper's "default
//!   baseline strategy");
//! - [`PerEsScheduler`] and [`ETimeScheduler`] — reimplementations of the
//!   two Lyapunov-based comparators (PerES and eTime, refs. 15/16), which time
//!   transmissions by *predicted bandwidth* instead of heartbeats;
//! - [`Scheduler`] — the common driving interface used by the simulator and
//!   the live eTrain system, including the [`Scheduler::on_tx_failure`]
//!   feedback hook through which failed transmissions are re-admitted;
//! - [`RetryPolicy`] — exponential backoff with jitter, bounded attempts and
//!   deadline-aware give-up, shared by the simulator's fault layer and the
//!   live core's retry state machine;
//! - [`GuardedScheduler`] — eTrain wrapped in the Healthy → Degraded →
//!   Fallback degradation ladder with bounded admission and load shedding
//!   ([`AdmissionConfig`]/[`ShedPolicy`]), so the system provably falls
//!   back to no-piggyback behaviour instead of misbehaving.
//!
//! # Example
//!
//! ```
//! use etrain_sched::{AppProfile, CostProfile, ETrainConfig, ETrainScheduler, Scheduler, SlotContext};
//! use etrain_trace::packets::Packet;
//! use etrain_trace::CargoAppId;
//!
//! # fn main() -> Result<(), etrain_sched::SchedulerError> {
//! let profiles = vec![AppProfile::new("Mail", CostProfile::mail(60.0))];
//! let mut sched = ETrainScheduler::new(ETrainConfig::default(), profiles);
//!
//! // A packet arrives; eTrain defers it (no immediate release).
//! let pkt = Packet { id: 0, app: CargoAppId(0), arrival_s: 5.0, size_bytes: 5_000 };
//! assert!(sched.on_arrival(pkt, 5.0)?.is_empty());
//!
//! // A heartbeat departs at t = 30: the packet piggybacks.
//! let ctx = SlotContext { now_s: 30.0, heartbeat_departing: true,
//!                         predicted_bandwidth_bps: 500_000.0, trains_alive: true };
//! let released = sched.on_slot(&ctx);
//! assert_eq!(released.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The daemon's `HB` and `TICK` requests run `ETrainScheduler::on_slot`, so
// the scheduling path must not panic on `unwrap`/`expect` either. Tests
// (and doctests, which compile as separate crates) are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod admission;
mod api;
mod baseline;
mod cost;
mod etime;
mod etrain;
mod health;
mod offline;
mod peres;
mod queue;
mod retry;

/// The `validate` of every config here: the message of the first
/// `(holds, message)` check that does not hold.
fn first_failure(checks: &[(bool, &str)]) -> Result<(), String> {
    match checks.iter().find(|(holds, _)| !holds) {
        Some((_, message)) => Err((*message).to_owned()),
        None => Ok(()),
    }
}

pub use admission::{AdmissionConfig, Room, ShedPolicy};
pub use api::{Scheduler, SchedulerError, SlotContext};
pub use baseline::BaselineScheduler;
pub use cost::CostProfile;
pub use etime::{ETimeConfig, ETimeScheduler};
pub use etrain::{ETrainConfig, ETrainScheduler};
pub use health::{
    audit_transitions, GuardedScheduler, HealthConfig, HealthState, HealthTransition,
    TransitionCause,
};
pub use offline::{OfflineProblem, OfflineRelease, OfflineSchedule};
pub use peres::{PerEsConfig, PerEsScheduler};
pub use queue::{AppProfile, WaitingQueues};
pub use retry::{RetryDecision, RetryPolicy};
