//! `fleet`: the population simulator at the paper's Fig. 11 operating
//! point (eTrain Θ = 20, k = 20, 600 s sessions), one `run_fleet` call per
//! batch of devices on 2 workers.
//!
//! It has no oracle, journal or WAL, so it is the workload on which oracle,
//! observability and service changes must show no change.

use std::ops::Range;
use std::time::Instant;

use etrain_fleet::{run_fleet, FleetColumns, FleetConfig, FleetResult, FleetTally};
use etrain_radio::RadioParams;
use etrain_sched::{RetryPolicy, Scheduler};
use etrain_sim::RunReport;
use etrain_trace::bandwidth::BandwidthTrace;
use etrain_trace::faults::FaultPlan;
use etrain_trace::heartbeats::{synthesize_into, TrainAppSpec};

use crate::calib::{self, Pairs};
use crate::ledger::{pool, Ledger};
use crate::timed::{self, EngineInputs, TimedScheduler};
use crate::{batch_seed, median, Outcome, Params, MIN_WINDOWS, WORKERS};

/// Devices per timed batch: 8 shards of the default 4096 devices.
const DEVICES: u64 = 32_768;
/// Devices per set-up warm-up batch: 4 shards, so that one slow worker
/// does not set the batch's time alone.
const WARMUP_DEVICES: u64 = 16_384;
/// Set-ups per run.
const SETUPS: usize = 7;
/// Devices per batch re-run through their reference scenario.
const CHECKED: u64 = 64;

fn config(devices: u64, seed: u64) -> FleetConfig {
    FleetConfig::paper_default(devices).seed(seed).jobs(WORKERS)
}

/// Runs the workload (see the module docs).
pub fn run(params: &Params) -> Outcome {
    let (devices, warmup) = if params.check {
        (10_000, 2_000)
    } else {
        (DEVICES, WARMUP_DEVICES)
    };
    let mut outcome = Outcome::default();
    for setup in 0..params.setups(SETUPS) {
        let seed = batch_seed(params.seed, u64::MAX - setup as u64);
        let (warm, timing) = calib::timed(|| run_fleet(&config(warmup, seed)));
        std::hint::black_box(warm.fleet);
        outcome.setups.push(timing);
    }
    let epoch = Instant::now();
    let mut ledger = Ledger::new(epoch);
    let mut pairs = Pairs::default();
    let mut shard_spread = Vec::new();
    let mut batch = 0u64;
    while outcome.windows.len() < MIN_WINDOWS
        || outcome.timed_s() + pairs.traced_wall_s() < params.seconds
    {
        let cfg = config(devices, batch_seed(params.seed, batch));
        let (result, timing) = calib::timed(|| run_fleet(&cfg));
        outcome.batch(devices, timing);
        outcome.attempted += devices;
        check_against_reference(&cfg, &result, &mut outcome);
        if params.trace {
            let ((columns, tally, part, job_ns), replica_timing) =
                calib::timed(|| replica(&cfg, epoch));
            pairs.add(timing, replica_timing);
            if columns != result.columns || tally != result.fleet {
                outcome.fail(
                    devices,
                    format!("traced replica of batch {batch} differs from run_fleet"),
                );
            }
            shard_spread.push(job_ns.iter().copied().fold(0.0, f64::max) / median(&job_ns));
            ledger.absorb(part);
        }
        batch += 1;
    }
    outcome.detail.push(("batches", batch as f64));
    outcome.detail.push(("devices_per_batch", devices as f64));
    if params.trace {
        outcome.trace_overhead = pairs.overhead();
        outcome
            .detail
            .push(("fleet.shard_max_over_median", median(&shard_spread)));
        outcome.ledger = Some(ledger);
    }
    outcome
}

/// Re-runs `CHECKED` devices at a fixed stride through their single-device
/// reference scenario; each must equal its row of the fleet's columns.
fn check_against_reference(cfg: &FleetConfig, result: &FleetResult, outcome: &mut Outcome) {
    if result.fleet.devices != cfg.devices || result.columns.len() as u64 != cfg.devices {
        outcome.fail(
            cfg.devices,
            format!(
                "fleet of {} devices returned {}",
                cfg.devices, result.fleet.devices
            ),
        );
        return;
    }
    let stride = (cfg.devices / CHECKED).max(1);
    for device in (0..cfg.devices)
        .step_by(stride as usize)
        .take(CHECKED as usize)
    {
        let spec = cfg.device_spec(device);
        let mut expected = FleetColumns::with_capacity(1);
        expected.push_report(spec.class, &cfg.reference_scenario(&spec).run());
        let row = device as usize;
        let columns = &result.columns;
        let same = columns.class[row] == expected.class[0]
            && columns.extra_energy_j[row].to_bits() == expected.extra_energy_j[0].to_bits()
            && columns.total_energy_j[row].to_bits() == expected.total_energy_j[0].to_bits()
            && columns.normalized_delay_s[row].to_bits()
                == expected.normalized_delay_s[0].to_bits()
            && columns.packets_completed[row] == expected.packets_completed[0]
            && columns.packets_unfinished[row] == expected.packets_unfinished[0]
            && columns.heartbeats_sent[row] == expected.heartbeats_sent[0];
        if !same {
            outcome.fail(
                1,
                format!(
                    "device {device} (seed {}) differs from its reference scenario",
                    cfg.seed
                ),
            );
        }
    }
}

/// `run_fleet`'s shard loop, replayed call for call with each layer's calls
/// timed: the same shards on the same number of workers, reassembled in
/// shard order.
fn replica(cfg: &FleetConfig, epoch: Instant) -> (FleetColumns, FleetTally, Ledger, Vec<f64>) {
    let step = cfg.shard_devices as u64;
    let shards: Vec<Range<u64>> = (0..cfg.devices.div_ceil(step))
        .map(|i| i * step..((i + 1) * step).min(cfg.devices))
        .collect();
    let pooled = pool(shards.len(), WORKERS, epoch, |i, ledger| {
        shard(cfg, shards[i].clone(), ledger)
    });
    let mut ledger = pooled.ledger;
    let (columns, tally) = ledger.serial("fleet.reassembly", || {
        let mut columns = FleetColumns::with_capacity(cfg.devices as usize);
        for mut part in pooled.results {
            columns.append(&mut part);
        }
        let tally = columns.tally();
        (columns, tally)
    });
    (columns, tally, ledger, pooled.job_ns)
}

fn shard(cfg: &FleetConfig, devices: Range<u64>, ledger: &mut Ledger) -> FleetColumns {
    let trains = TrainAppSpec::paper_trio();
    let radio = RadioParams::galaxy_s4_3g();
    let bandwidth = BandwidthTrace::constant(cfg.bandwidth_bps);
    let faults = FaultPlan::none();
    let retry = RetryPolicy::default();
    let profiles = cfg.profiles();
    let horizon_s = cfg.session_secs as f64;
    let mut packets = Vec::new();
    let mut heartbeats = Vec::new();
    let mut columns = FleetColumns::with_capacity((devices.end - devices.start) as usize);
    for device in devices {
        let spec = cfg.device_spec(device);
        ledger.time("trace.packets", "device", || {
            cfg.device_packets_into(&spec, &mut packets)
        });
        ledger.time("trace.heartbeats", "device", || {
            synthesize_into(
                &trains,
                horizon_s,
                spec.seed.wrapping_add(1),
                &mut heartbeats,
            )
        });
        let mut scheduler = ledger.time("sched.build", "device", || {
            let mut scheduler = TimedScheduler::new(cfg.scheduler.build(profiles.clone()));
            scheduler.set_reference_decisions(cfg.reference_cost);
            scheduler
        });
        let output = timed::engine_run(
            ledger,
            &mut scheduler,
            &EngineInputs {
                packets: &packets,
                heartbeats: &heartbeats,
                bandwidth: &bandwidth,
                radio: &radio,
                horizon_s,
                faults: &faults,
                retry: &retry,
                kind: cfg.engine,
            },
        );
        let report = ledger.time("sim.report", "device", || {
            RunReport::from_engine(scheduler.name(), &output, &profiles)
        });
        ledger.time("fleet.columns", "device", || {
            columns.push_report(spec.class, &report)
        });
    }
    columns
}
