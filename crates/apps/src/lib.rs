//! # etrain-apps — the paper's cargo applications
//!
//! The paper evaluates eTrain with three cargo apps it built (Sec. V-5):
//! **Luna Weibo** (a full-featured third-party Weibo client with 100+
//! users), **eTrain Mail** (an e-mail client) and **eTrain Cloud** (a
//! cloud-storage app). This crate models them:
//!
//! - [`CargoAppModel`] — each app's registration profile (delay-cost
//!   function) plus its request-size model, used both for synthetic
//!   workloads and for mapping user-trace records to transmit requests;
//! - [`replay`] — the paper's controlled-experiment methodology
//!   ("We implemented workload generating functionality that replays the
//!   user traces", Sec. VI-D): drive a recorded app-use trace through the
//!   deterministic [`ETrainCore`](etrain_core::ETrainCore) or convert it
//!   to a packet trace for the simulator;
//! - [`freshness`] — push-vs-poll content freshness: the fetch traces of
//!   both strategies from one content-update process, and their staleness.
//!
//! # Example
//!
//! ```
//! use etrain_apps::{replay, CargoAppModel};
//! use etrain_core::CoreConfig;
//! use etrain_trace::heartbeats::TrainAppSpec;
//! use etrain_trace::user::{generate_app_use, Activeness};
//!
//! let trace = generate_app_use(1, Activeness::Active, 42).normalized_to(600.0);
//! let outcome = replay::replay_through_core(
//!     &trace,
//!     &CargoAppModel::weibo(),
//!     &TrainAppSpec::paper_trio(),
//!     CoreConfig::default(),
//! )
//! .expect("a generated trace starts at 0 s");
//! // Every upload is eventually decided (trains keep coming).
//! assert_eq!(outcome.undelivered, 0);
//! assert!(outcome.piggyback_ratio > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod freshness;
mod model;
pub mod replay;

pub use model::{CargoAppModel, CargoKind};
