//! # etrain-fleet — population-scale simulation
//!
//! The paper's evaluation runs one device at a time; its headline claims
//! are about *populations* ("for a fleet of a million handsets, the
//! reclaimed tail energy is ..."). This crate closes that gap: one
//! invocation simulates 10⁵–10⁶ devices and reports population-level
//! energy aggregates, at a cost of roughly half a millisecond per device.
//!
//! What makes a million devices tractable in one process:
//!
//! - **Lazy trace synthesis** — each device's upload packets and
//!   heartbeats are generated straight into per-shard reusable buffers
//!   (`upload_packets_into` / `synthesize_into`), bit-identical to the
//!   materializing single-device pipeline but without per-device trace
//!   allocation.
//! - **Struct-of-arrays results** — per-device outputs land in
//!   [`FleetColumns`]: seven dense columns, ~37 bytes/device, instead of
//!   a million `RunReport`s.
//! - **Deterministic sharding** — the device range is partitioned
//!   contiguously, shards run on `etrain_sim::run_pool` (the worker pool
//!   `RunGrid` uses), which returns their columns in shard order for
//!   concatenation; the result is bit-for-bit identical to a serial run,
//!   for any worker count and shard size.
//! - **Pure per-device seeding** — every device's class and seed derive
//!   from `(fleet seed, device index)` alone, so a fleet of N is exactly
//!   N independent single-device runs (the conformance tier asserts
//!   this, report for report).
//!
//! The entry points: [`FleetConfig::paper_default`] describes the run,
//! [`run_fleet`] executes it into [`FleetColumns`] plus the device-order
//! [`FleetTally`], and [`FleetColumns::class_tally`] /
//! [`FleetColumns::class_extra_energies`] break it down per behavior
//! class. The slow reference path is a plain `etrain_sim::RunGrid` with
//! one job per device,
//! `RunSpec::new(label, config.reference_scenario(&config.device_spec(d)))`
//! ([`FleetConfig::reference_scenario`]); journaling that grid gives the
//! device-ordered fleet journal.
//!
//! # Example
//!
//! ```
//! use etrain_fleet::{run_fleet, FleetConfig};
//!
//! let result = run_fleet(&FleetConfig::paper_default(30).seed(7));
//! assert_eq!(result.fleet.devices, 30);
//! assert!(result.fleet.extra_energy_j > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod columns;
pub mod population;
pub mod runner;

pub use columns::{FleetColumns, FleetTally};
pub use population::{class_label, device_seed, ClassMix, DeviceSpec, FleetConfig};
pub use runner::{run_fleet, FleetResult};
