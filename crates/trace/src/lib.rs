//! # etrain-trace — workload, bandwidth, heartbeat and user-trace substrates
//!
//! The eTrain paper evaluates against four kinds of input data, none of which
//! ship with the paper. This crate synthesizes statistically equivalent
//! replacements (the substitutions are documented in the repository's
//! `DESIGN.md`):
//!
//! - [`heartbeats`] — heartbeat processes of the measured IM "train apps"
//!   (QQ 300 s / 378 B, WeChat 270 s / 74 B, WhatsApp 240 s / 66 B, NetEase's
//!   doubling 60→480 s cycle, RenRen 300 s, iOS/APNS 1800 s — paper Table 1
//!   and Fig. 3);
//! - [`packets`] — Poisson cargo-app packet arrivals with truncated-normal
//!   sizes (paper Sec. VI-A "synthesized packet trace");
//! - [`bandwidth`] — a regime-switching synthetic 3G uplink bandwidth trace
//!   standing in for the paper's 2-hour Wuhan bus/campus drive trace;
//! - [`user`] — user behaviour records `(user id, behavior, time, size)`
//!   for active / moderate / inactive users (paper Sec. VI-D-4, Fig. 11).
//!
//! Supporting modules: [`rng`] (seeded distributions) and [`io`] (CSV/JSON
//! persistence so traces can be saved, inspected and replayed).
//!
//! # Example
//!
//! ```
//! use etrain_trace::heartbeats::TrainAppSpec;
//! use etrain_trace::packets::CargoWorkload;
//!
//! // The paper's three train apps over one hour:
//! let trains = TrainAppSpec::paper_trio();
//! let beats = etrain_trace::heartbeats::synthesize(&trains, 3600.0, 42);
//! assert!(beats.len() > 3600 / 300 * 3 - 3);
//!
//! // The paper's three cargo apps at total rate λ = 0.08 pkt/s:
//! let workload = CargoWorkload::paper_default(0.08);
//! let packets = workload.generate(3600.0, 42);
//! assert!(!packets.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bandwidth;
pub mod capture;
pub mod diurnal;
pub mod faults;
pub mod heartbeats;
pub mod io;
pub mod packets;
pub mod rng;
pub mod summary;
pub mod user;

mod ids;

pub use ids::{CargoAppId, TrainAppId};
