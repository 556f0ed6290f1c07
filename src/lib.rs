//! # eTrain — heartbeat-piggybacked mobile data transmission
//!
//! Umbrella crate for the reproduction of *eTrain: Making Wasted Energy
//! Useful by Utilizing Heartbeats for Mobile Data Transmissions* (ICDCS
//! 2015). It re-exports every subsystem crate so downstream users can depend
//! on a single crate:
//!
//! - [`radio`] — the 3G UMTS RRC radio state machine and tail-energy model;
//! - [`trace`] — workload, bandwidth, heartbeat and user-trace generators;
//! - [`hb`] — the heartbeat monitor (cycle detection and prediction);
//! - [`sched`] — delay-cost profiles and the scheduling algorithms
//!   (eTrain Algorithm 1, Baseline, PerES, eTime);
//! - [`sim`] — the trace-driven device simulator and experiment sweeps;
//! - [`core`] — the eTrain system: a deterministic core that joins the
//!   heartbeat monitor and the scheduler and returns decisions to its caller;
//! - [`apps`] — the Mail / Weibo / Cloud cargo-app models and trace replay;
//! - [`svc`] — the durable daemon: write-ahead journal, crash recovery,
//!   and the `etrain-svcd` line-protocol server.
//!
//! # Quick start
//!
//! ```
//! use etrain::sim::{Scenario, SchedulerKind};
//!
//! // Three IM train apps, three cargo apps, a 2-hour simulated run.
//! let report = Scenario::paper_default()
//!     .duration_secs(7200)
//!     .scheduler(SchedulerKind::ETrain { theta: 0.2, k: None })
//!     .seed(7)
//!     .run();
//! assert!(report.total_energy_j > 0.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use etrain_apps as apps;
pub use etrain_core as core;
pub use etrain_hb as hb;
pub use etrain_radio as radio;
pub use etrain_sched as sched;
pub use etrain_sim as sim;
pub use etrain_svc as svc;
pub use etrain_trace as trace;
