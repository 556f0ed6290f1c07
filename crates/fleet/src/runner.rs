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

use etrain_obs::{ClassSnapshot, FleetSnapshot, FleetTally};
use etrain_radio::RadioParams;
use etrain_sched::RetryPolicy;
use etrain_sim::{resolve_workers, run_pool, Engine, Percentiles, RunReport};
use etrain_trace::bandwidth::BandwidthTrace;
use etrain_trace::faults::FaultPlan;
use etrain_trace::heartbeats::{synthesize_into, Heartbeat, TrainAppSpec};
use etrain_trace::packets::Packet;
use etrain_trace::user::Activeness;

use crate::columns::FleetColumns;
use crate::population::{class_label, FleetConfig};

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

impl FleetResult {
    /// Builds the serializable population snapshot: the fleet tally plus
    /// a per-class breakdown with nearest-rank extra-energy percentiles.
    /// Classes with zero devices keep empty tallies and zero percentiles
    /// so the snapshot shape is fixed.
    pub fn snapshot(&self) -> FleetSnapshot {
        let classes = Activeness::all()
            .iter()
            .map(|&class| {
                let tally = self.columns.class_tally(class);
                let mut samples = self.columns.class_extra_energies(class);
                let percentiles = if samples.is_empty() {
                    Percentiles {
                        p50: 0.0,
                        p95: 0.0,
                        p99: 0.0,
                    }
                } else {
                    Percentiles::from_samples_mut(&mut samples)
                };
                ClassSnapshot {
                    class: class_label(class).to_owned(),
                    mean_extra_j: tally.mean_extra_j(),
                    p50_extra_j: percentiles.p50,
                    p95_extra_j: percentiles.p95,
                    p99_extra_j: percentiles.p99,
                    tally,
                }
            })
            .collect();
        FleetSnapshot {
            scheduler: self.scheduler.clone(),
            devices: self.fleet.devices,
            shards: self.shards as u64,
            workers: self.workers as u64,
            wall_s: self.wall_s,
            devices_per_s: self.devices_per_s,
            fleet: self.fleet,
            classes,
        }
    }
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
    let mut parts: Vec<Option<FleetColumns>> = shards.iter().map(|_| None).collect();
    run_pool(
        &shards,
        workers,
        |range| run_shard(config, range.clone()),
        |index, columns| parts[index] = Some(columns),
    );
    let mut columns = FleetColumns::with_capacity(config.devices as usize);
    for part in &mut parts {
        columns.append(part.as_mut().expect("every shard returns columns"));
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
