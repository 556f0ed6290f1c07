//! # etrain-radio — 3G UMTS RRC radio and tail-energy substrate
//!
//! This crate reproduces the radio model the eTrain paper measures on a
//! Samsung Galaxy S4 over a TD-SCDMA (UMTS family) network (paper Sec. II-C,
//! Fig. 4). The paper's entire evaluation derives from this model, so it is
//! the bottom-most substrate of the reproduction.
//!
//! ## The model
//!
//! The radio resource control (RRC) layer keeps the interface in one of three
//! power states:
//!
//! - **IDLE** — baseline power, no dedicated channel;
//! - **DCH** (Dedicated Channel) — high power, used while transmitting and
//!   for δ_D seconds afterwards;
//! - **FACH** (Forward Access Channel) — moderate power, held for δ_F
//!   seconds after DCH before demoting back to IDLE.
//!
//! The period after a transmission ends until the radio demotes to IDLE is
//! the **tail** (length `T_tail = δ_D + δ_F`); its energy is wasted unless a
//! subsequent transmission re-uses it. With the paper's parameters
//! (p̃_D = 700 mW, p̃_F = 450 mW, δ_D = 10 s, δ_F = 7.5 s) a full tail costs
//! 700·10 + 450·7.5 mJ ≈ 10.375 J — the paper reports ≈ 10.91 J measured.
//!
//! ## What the crate provides
//!
//! - [`RadioParams`] — validated parameter set with the paper's defaults;
//! - [`tail_energy_j`] — the closed-form `E_tail(Δ)` from the paper;
//! - [`Timeline`] — an offline state timeline built from a set of
//!   transmissions, with exact piecewise energy integration;
//! - [`PowerTrace`] — a sampled power trace (the software analogue of the
//!   Monsoon power monitor the paper captures at 0.1 s resolution);
//! - [`Radio`] — an online state machine for event-driven simulation,
//!   accounting energy incrementally.
//!
//! The analytic model and the timeline integrator are independent
//! implementations cross-checked by property tests.
//!
//! ## Example
//!
//! ```
//! use etrain_radio::{RadioParams, Timeline, Transmission, tail_energy_j};
//!
//! let params = RadioParams::galaxy_s4_3g();
//! // A lone transmission pays the full tail:
//! assert!((tail_energy_j(&params, 60.0) - params.full_tail_energy_j()).abs() < 1e-9);
//!
//! // Two transmissions 5 s apart share a tail:
//! let timeline = Timeline::from_transmissions(
//!     &params,
//!     &[Transmission::new(0.0, 0.2), Transmission::new(5.2, 0.2)],
//!     60.0,
//! );
//! assert!(timeline.extra_energy_j() < 2.0 * params.full_tail_energy_j());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod battery;
mod error;
mod online;
mod params;
mod power;
mod tail;
mod timeline;

pub use battery::Battery;
pub use error::RadioError;
pub use online::Radio;
pub use params::{RadioParams, RadioParamsBuilder};
pub use power::PowerTrace;
pub use tail::{analytic_extra_energy_j, merge_busy_periods, tail_energy_j};
pub use timeline::{
    audit_segments, RrcState, StateSegment, Timeline, TimelineAuditError, Transmission,
};
