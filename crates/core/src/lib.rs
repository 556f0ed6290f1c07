//! # etrain-core — the eTrain system runtime
//!
//! This crate is the reproduction of the paper's Sec. V: the eTrain
//! *system* that runs on a phone, as opposed to the scheduling *algorithm*
//! (in `etrain-sched`) or the evaluation *testbed* (in `etrain-sim`). It
//! maps the Android architecture onto one deterministic core, which the
//! durable `etrain-svcd` daemon (in `etrain-svc`) serves over TCP:
//!
//! | Paper (Android)                              | This workspace                                  |
//! |----------------------------------------------|-------------------------------------------------|
//! | Xposed hook on train apps' heartbeat code    | [`ETrainCore::on_heartbeat`] (daemon: `HB`)     |
//! | Heartbeat Monitor module                     | [`ETrainCore`] + `etrain-hb`                    |
//! | eTrain Scheduler module (Algorithm 1)        | [`ETrainCore`] + `etrain-sched`                 |
//! | eTrain Broadcast (`BroadcastReceiver` IPC)   | the decisions a call returns (daemon: reply)    |
//! | Cargo app registration with profile          | [`ETrainCore::register_cargo`] (daemon: `REGCARGO`) |
//! | Transmit request with meta-data              | [`TransmitRequest`]                             |
//! | Transmission decision delivered to cargo app | [`TransmitDecision`]                            |
//!
//! [`ETrainCore`] is deterministic and synchronous ("sans-IO"): feed it
//! heartbeats, requests and clock ticks, each with an explicit timestamp,
//! and get back decisions. All the system logic lives here and is
//! directly unit-testable. Nothing pushes decisions to subscribers and
//! nothing runs a clock: a caller gets each decision back from the call
//! that released it, and `etrain-svcd` writes it into its reply to the
//! `HB`, `TICK` or `SUBMIT` line that released it, taking time from its
//! clients.
//!
//! # Example (deterministic core)
//!
//! ```
//! use etrain_core::{CoreConfig, ETrainCore, TransmitRequest};
//! use etrain_sched::{AppProfile, CostProfile};
//!
//! # fn main() -> Result<(), etrain_core::CoreError> {
//! let mut core = ETrainCore::new(CoreConfig::default());
//! let train = core.register_train("WeChat");
//! let mail = core.register_cargo(AppProfile::new("Mail", CostProfile::mail(60.0)));
//!
//! // The Xposed hook fires on each heartbeat; requests queue in between.
//! core.on_heartbeat(train, 0.0)?;
//! let admission = core.submit(mail, TransmitRequest::upload(5_000), 5.0)?;
//! let id = admission.id().expect("unbounded admission always admits");
//! assert!(core.tick(6.0)?.is_empty()); // deferred: cost below Θ, no train yet
//!
//! let decisions = core.on_heartbeat(train, 270.0)?; // next train departs
//! assert_eq!(decisions.len(), 1);
//! assert_eq!(decisions[0].request, id);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Overload-control hardening: user-reachable runtime paths must not panic
// on `unwrap`/`expect`; failures surface as typed `CoreError`s or degrade
// gracefully. Tests (and doctests, which compile as separate crates) are
// exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod command;
mod core_impl;
mod error;
pub mod json;
mod request;

pub use command::{CommandOutcome, CoreCommand};
pub use core_impl::{CoreConfig, CoreStats, ETrainCore};
pub use error::CoreError;
pub use request::{
    Admission, Direction, RequestId, RetryVerdict, TransmitDecision, TransmitRequest, TxResult,
};

// The retry policy is configured through `CoreConfig::retry`; re-exported
// so embedders don't need a direct `etrain-sched` dependency for it. The
// admission types configure `CoreConfig::admission` the same way.
pub use etrain_sched::{AdmissionConfig, RetryPolicy, ShedPolicy};

// Re-exported so journaling consumers ([`ETrainCore::enable_journal`])
// can inspect recorded events with this crate alone.
pub use etrain_obs::{Event, EventRecord, Journal};
