//! The fleet runner: shards the device range across worker threads,
//! runs every device through the allocation-lean direct engine path, and
//! reassembles per-shard columns into one device-ordered result.
//!
//! Determinism contract: the columns (and therefore every aggregate
//! derived from them) are bit-for-bit identical for any worker count and
//! any shard size, because
//!
//! 1. every device's traces derive from `(fleet seed, device index)`
//!    alone (see [`crate::population`]);
//! 2. shards partition the device range contiguously, so concatenating
//!    shard outputs by shard index restores global device order;
//! 3. all aggregates are folded over the reassembled columns in row
//!    order — never from per-shard partial sums, whose floating-point
//!    association would depend on the partition.
//!
//! Only `wall_s` / `devices_per_s` vary between runs; they are
//! measurements, not simulation outputs, and are excluded from every
//! equivalence check.

use std::ops::Range;
use std::time::Instant;

use etrain_radio::RadioParams;
use etrain_sched::RetryPolicy;
use etrain_sim::{resolve_workers, run_pool, Engine, RunReport};
use etrain_trace::bandwidth::BandwidthTrace;
use etrain_trace::faults::FaultPlan;
use etrain_trace::heartbeats::{synthesize_into, Heartbeat, TrainAppSpec};
use etrain_trace::packets::Packet;

use crate::columns::{FleetColumns, FleetTally};
use crate::population::FleetConfig;

/// The outcome of one fleet run: the device-ordered column store, the
/// canonical fleet tally, and the run's throughput measurements.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// The scheduler's display form (with knob values).
    pub scheduler: String,
    /// Per-device results in device order.
    pub columns: FleetColumns,
    /// Device-order fold over all columns (see [`FleetColumns::tally`]).
    pub fleet: FleetTally,
    /// How many shards the device range was split into.
    pub shards: usize,
    /// How many worker threads executed them.
    pub workers: usize,
    /// Wall-clock duration of the run, seconds (measurement — varies
    /// between runs; never part of an equivalence check).
    pub wall_s: f64,
    /// Devices simulated per wall-clock second (the throughput headline).
    pub devices_per_s: f64,
}

/// Runs one shard of the device range through the direct engine path.
///
/// The per-shard arena: one packet buffer, one heartbeat buffer, one
/// bandwidth trace, one radio parameter set — reused across every device
/// in the shard. Trace synthesis lands in the reused buffers through the
/// `*_into` generators, so steady-state per-device cost is the engine run
/// plus the scheduler box, not a fresh trace materialization.
fn run_shard(config: &FleetConfig, devices: Range<u64>) -> FleetColumns {
    let trains = TrainAppSpec::paper_trio();
    let radio = RadioParams::galaxy_s4_3g();
    let bandwidth = BandwidthTrace::constant(config.bandwidth_bps);
    let faults = FaultPlan::none();
    let retry = RetryPolicy::default();
    let profiles = config.profiles();
    let horizon_s = config.session_secs as f64;
    let mut packets: Vec<Packet> = Vec::new();
    let mut heartbeats: Vec<Heartbeat> = Vec::new();
    let mut columns =
        FleetColumns::with_capacity(devices.end.saturating_sub(devices.start) as usize);
    for device in devices {
        let spec = config.device_spec(device);
        config.device_packets_into(&spec, &mut packets);
        synthesize_into(
            &trains,
            horizon_s,
            spec.seed.wrapping_add(1),
            &mut heartbeats,
        );
        let mut scheduler = config.scheduler.build(profiles.clone());
        scheduler.set_reference_decisions(config.reference_cost);
        let output = Engine::new(
            scheduler.as_mut(),
            &packets,
            &heartbeats,
            &bandwidth,
            &radio,
            horizon_s,
            &faults,
            &retry,
            None,
        )
        .with_kind(config.engine)
        .run();
        let report = RunReport::from_engine(scheduler.name(), &output, &profiles);
        columns.push_report(spec.class, &report);
    }
    columns
}

/// Splits `0..devices` into contiguous shards of at most `shard_devices`.
fn shard_ranges(devices: u64, shard_devices: usize) -> Vec<Range<u64>> {
    let step = shard_devices.max(1) as u64;
    let mut ranges = Vec::with_capacity(devices.div_ceil(step) as usize);
    let mut start = 0;
    while start < devices {
        let end = (start + step).min(devices);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Runs the whole fleet: shards the device range, executes shards across
/// worker threads, reassembles columns in shard-index order, and folds
/// the canonical tally in device order.
///
/// # Panics
///
/// Panics if [`FleetConfig::validate`] rejects the config.
pub fn run_fleet(config: &FleetConfig) -> FleetResult {
    if let Err(reason) = config.validate() {
        panic!("invalid fleet config: {reason}");
    }
    let start = Instant::now();
    let shards = shard_ranges(config.devices, config.shard_devices);
    let workers = resolve_workers(config.jobs, shards.len());
    let parts = run_pool(&shards, workers, |range| run_shard(config, range.clone()));
    let mut columns = FleetColumns::with_capacity(config.devices as usize);
    for mut part in parts {
        columns.append(&mut part);
    }
    let fleet = columns.tally();
    let wall_s = start.elapsed().as_secs_f64();
    let devices_per_s = if wall_s > 0.0 {
        config.devices as f64 / wall_s
    } else {
        0.0
    };
    FleetResult {
        scheduler: config.scheduler.to_string(),
        columns,
        fleet,
        shards: shards.len(),
        workers,
        wall_s,
        devices_per_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_the_fleet_contiguously() {
        assert_eq!(shard_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(shard_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(shard_ranges(3, 100), vec![0..3]);
        assert!(shard_ranges(0, 4).is_empty());
        // A zero shard size is treated as one device per shard.
        assert_eq!(shard_ranges(2, 0), vec![0..1, 1..2]);
    }

    #[test]
    fn fleet_result_reports_its_wall_time_and_device_rate() {
        let result = run_fleet(&FleetConfig::paper_default(40).seed(3).shard_devices(16));
        assert_eq!(result.shards, 3);
        assert!(result.workers >= 1 && result.workers <= 3);
        assert!(result.wall_s > 0.0, "wall {}", result.wall_s);
        assert_eq!(result.devices_per_s, 40.0 / result.wall_s);
        assert!(result.fleet.mean_extra_j() > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid fleet config: fleet must have at least one device")]
    fn an_empty_fleet_is_refused_before_any_work() {
        run_fleet(&FleetConfig::paper_default(0));
    }

    #[test]
    fn sharded_columns_reassemble_in_device_order() {
        let config = FleetConfig::paper_default(5).seed(9).shard_devices(2);
        let result = run_fleet(&config);
        assert_eq!(result.shards, 3);
        assert_eq!(result.columns.len(), 5);
        // One shard over the whole range is the unsharded reference.
        assert_eq!(result.columns, run_shard(&config, 0..5));
        let mut tail = run_shard(&config, 2..5);
        let mut head = run_shard(&config, 0..2);
        head.append(&mut tail);
        assert_eq!(result.columns, head);
    }
}
