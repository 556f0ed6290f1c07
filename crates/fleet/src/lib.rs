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
//!   `RunGrid` uses), and outputs are reassembled by shard index; the
//!   result is bit-for-bit identical to a serial run, for any worker
//!   count and shard size.
//! - **Pure per-device seeding** — every device's class and seed derive
//!   from `(fleet seed, device index)` alone, so a fleet of N is exactly
//!   N independent single-device runs (the conformance tier asserts
//!   this, report for report).
//!
//! The entry points: [`FleetConfig::paper_default`] describes the run,
//! [`run_fleet`] executes it, [`FleetResult::snapshot`] turns it into the
//! serializable population summary. The slow reference path is a plain
//! `etrain_sim::RunGrid` with one job per device,
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

pub mod columns;
pub mod population;
pub mod runner;

pub use columns::FleetColumns;
pub use population::{class_label, device_seed, ClassMix, DeviceSpec, FleetConfig};
pub use runner::{run_fleet, FleetResult};

// Re-exported so fleet experiments can be described with this crate alone.
pub use etrain_obs::{ClassSnapshot, FleetSnapshot, FleetTally};

/// The environment variable overriding experiment fleet sizes
/// (`ETRAIN_FLEET_SIZE`), read strictly by [`try_fleet_size_from_env`].
pub const FLEET_SIZE_ENV: &str = "ETRAIN_FLEET_SIZE";

/// Parses an `ETRAIN_FLEET_SIZE` value strictly: `Ok(None)` when unset or
/// empty, `Ok(Some(n))` for a positive integer device count, and `Err`
/// (with a human-readable reason) for anything else — including `0`,
/// which would otherwise silently mean "not set".
///
/// # Errors
///
/// Returns the reason the value is unusable, prefixed with the variable
/// name, mirroring `try_jobs_from_env` in the sim crate.
///
/// # Examples
///
/// ```
/// use etrain_fleet::try_fleet_size_from_env;
///
/// assert_eq!(try_fleet_size_from_env(None), Ok(None));
/// assert_eq!(try_fleet_size_from_env(Some("250000")), Ok(Some(250_000)));
/// assert!(try_fleet_size_from_env(Some("0")).is_err());
/// assert!(try_fleet_size_from_env(Some("a million")).is_err());
/// ```
pub fn try_fleet_size_from_env(value: Option<&str>) -> Result<Option<u64>, String> {
    let raw = match value {
        None => return Ok(None),
        Some(raw) => raw.trim(),
    };
    if raw.is_empty() {
        return Ok(None);
    }
    match raw.parse::<u64>() {
        Ok(0) => Err(format!(
            "{FLEET_SIZE_ENV}={raw:?}: fleet size must be >= 1 device"
        )),
        Ok(devices) => Ok(Some(devices)),
        Err(_) => Err(format!(
            "{FLEET_SIZE_ENV}={raw:?}: expected a positive integer device count"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_size_parser_is_strict() {
        assert_eq!(try_fleet_size_from_env(None), Ok(None));
        assert_eq!(try_fleet_size_from_env(Some("")), Ok(None));
        assert_eq!(try_fleet_size_from_env(Some("  ")), Ok(None));
        assert_eq!(try_fleet_size_from_env(Some(" 42 ")), Ok(Some(42)));
        assert!(try_fleet_size_from_env(Some("0")).is_err());
        assert!(try_fleet_size_from_env(Some("-3")).is_err());
        assert!(try_fleet_size_from_env(Some("1e6")).is_err());
    }
}
