//! Fleet determinism tiers.
//!
//! Quick tier (always on): serial-vs-sharded bit identity, fleet ≡ N
//! independent single-device runs, and byte-identical journaled reruns.
//! Heavy tier (`--ignored`, run by the CI conformance job): the same
//! serial-vs-sharded identity at 100k devices — the scale the throughput
//! experiment ships.
//!
//! The N independent runs are a plain `RunGrid` with one job per device,
//! each the device's full single-device reference scenario.

use etrain_fleet::{run_fleet, ClassMix, FleetConfig};
use etrain_obs::ObsMode;
use etrain_sim::{RunGrid, RunSpec};
use etrain_trace::user::Activeness;

/// One grid job per device: the scenario the fleet's direct engine path
/// must reproduce for that device, in device order.
fn reference_grid(config: &FleetConfig) -> RunGrid {
    RunGrid::from_specs(
        (0..config.devices)
            .map(|device| {
                RunSpec::new(
                    format!("device={device}"),
                    config.reference_scenario(&config.device_spec(device)),
                )
            })
            .collect(),
    )
}

/// Column-by-column bit equality (f64 columns compared through bits so a
/// NaN disagreement cannot silently pass, as it would under `==`).
fn assert_columns_bit_identical(a: &etrain_fleet::FleetColumns, b: &etrain_fleet::FleetColumns) {
    assert_eq!(a.len(), b.len(), "row counts differ");
    assert_eq!(a.class, b.class);
    assert_eq!(a.packets_completed, b.packets_completed);
    assert_eq!(a.packets_unfinished, b.packets_unfinished);
    assert_eq!(a.heartbeats_sent, b.heartbeats_sent);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.extra_energy_j), bits(&b.extra_energy_j));
    assert_eq!(bits(&a.total_energy_j), bits(&b.total_energy_j));
    assert_eq!(bits(&a.normalized_delay_s), bits(&b.normalized_delay_s));
}

#[test]
fn serial_and_sharded_fleets_are_bit_identical() {
    let devices = 100;
    let serial = run_fleet(
        &FleetConfig::paper_default(devices)
            .seed(11)
            .shard_devices(devices as usize)
            .jobs(1),
    );
    let sharded = run_fleet(
        &FleetConfig::paper_default(devices)
            .seed(11)
            .shard_devices(7)
            .jobs(4),
    );
    assert_eq!(serial.shards, 1);
    assert_eq!(sharded.shards, 15);
    assert_columns_bit_identical(&serial.columns, &sharded.columns);
    assert_eq!(
        serial.fleet.extra_energy_j.to_bits(),
        sharded.fleet.extra_energy_j.to_bits(),
        "canonical tally must be partition-independent"
    );
    assert_eq!(serial.fleet, sharded.fleet);
}

#[test]
fn fleet_of_n_equals_n_independent_single_device_runs() {
    let configs = [
        FleetConfig::paper_default(60)
            .seed(3)
            .shard_devices(13)
            .jobs(3),
        FleetConfig::paper_default(40)
            .seed(5)
            .mix(ClassMix::uniform())
            .shard_devices(7)
            .jobs(2),
    ];
    for config in configs {
        assert_fleet_matches_independent_runs(&config);
    }
}

fn assert_fleet_matches_independent_runs(config: &FleetConfig) {
    let fleet = run_fleet(config);
    let independent = reference_grid(config).jobs(2).try_run().unwrap();
    assert_eq!(fleet.columns.len(), independent.len());
    for (i, report) in independent.iter().enumerate() {
        assert_eq!(
            fleet.columns.extra_energy_j[i].to_bits(),
            report.extra_energy_j.to_bits(),
            "device {i}: fleet fast path diverged from its reference scenario"
        );
        assert_eq!(
            fleet.columns.total_energy_j[i].to_bits(),
            report.total_energy_j.to_bits()
        );
        assert_eq!(
            fleet.columns.normalized_delay_s[i].to_bits(),
            report.normalized_delay_s.to_bits()
        );
        assert_eq!(
            fleet.columns.packets_completed[i] as usize,
            report.packets_completed
        );
        assert_eq!(
            fleet.columns.packets_unfinished[i] as usize,
            report.packets_unfinished
        );
        assert_eq!(
            fleet.columns.heartbeats_sent[i] as usize,
            report.heartbeats_sent
        );
    }
}

#[test]
fn fleet_is_reproducible_across_invocations_and_mixes_matter() {
    let a = run_fleet(&FleetConfig::paper_default(40).seed(5));
    let b = run_fleet(&FleetConfig::paper_default(40).seed(5));
    assert_columns_bit_identical(&a.columns, &b.columns);
    let uniform = run_fleet(
        &FleetConfig::paper_default(40)
            .seed(5)
            .mix(ClassMix::uniform()),
    );
    // A uniform mix has far more active users than the paper skew, so it
    // must upload more and burn more extra energy in aggregate.
    assert!(uniform.fleet.extra_energy_j > a.fleet.extra_energy_j);
}

#[test]
fn journaled_fleet_reruns_are_byte_identical() {
    let config = FleetConfig::paper_default(8).seed(2);
    // Run `r` of the merged journal is device `r`, for any worker count.
    let journaled = |jobs: usize| {
        reference_grid(&config)
            .obs(ObsMode::Jsonl)
            .jobs(jobs)
            .try_run_journaled()
            .expect("reference scenarios are valid")
    };
    let (reports_a, journal_a) = journaled(1);
    let (reports_b, journal_b) = journaled(3);
    assert_eq!(reports_a, reports_b);
    let jsonl_a = journal_a.to_jsonl();
    assert!(!jsonl_a.is_empty(), "journaled fleet must record events");
    assert_eq!(jsonl_a, journal_b.to_jsonl());
    // Journaled reports agree with the unjournaled fast path (obs is
    // zero-cost when on vs off by the obs crate's contract).
    let fleet = run_fleet(&config.clone().jobs(1));
    for (i, report) in reports_a.iter().enumerate() {
        assert_eq!(
            fleet.columns.extra_energy_j[i].to_bits(),
            report.extra_energy_j.to_bits()
        );
    }
}

#[test]
fn class_tallies_partition_a_real_fleet() {
    let result = run_fleet(&FleetConfig::paper_default(50).seed(9));
    assert_eq!(result.fleet, result.columns.tally());
    assert_eq!(result.fleet.devices, 50);
    let classes: Vec<_> = Activeness::all()
        .iter()
        .map(|&class| result.columns.class_tally(class))
        .collect();
    let sum = |field: fn(&etrain_fleet::FleetTally) -> u64| classes.iter().map(field).sum::<u64>();
    assert_eq!(sum(|t| t.devices), result.fleet.devices);
    assert_eq!(sum(|t| t.packets_completed), result.fleet.packets_completed);
    assert_eq!(sum(|t| t.heartbeats_sent), result.fleet.heartbeats_sent);
    for (class, tally) in Activeness::all().iter().zip(&classes) {
        let samples = result.columns.class_extra_energies(*class);
        assert_eq!(samples.len() as u64, tally.devices, "{class:?}");
        for x in samples {
            assert!(
                tally.min_extra_j <= x && x <= tally.max_extra_j,
                "{class:?}"
            );
            assert!(result.fleet.min_extra_j <= x && x <= result.fleet.max_extra_j);
        }
    }
}

/// The throughput experiment's quick-tier scale, serial vs sharded —
/// heavy, so it rides the CI conformance job's `--ignored` pass.
#[test]
#[ignore = "heavy: 2x 100k-device fleets; run via --ignored (CI conformance job)"]
fn serial_and_sharded_fleets_agree_at_one_hundred_thousand_devices() {
    let devices = 100_000;
    let sharded = run_fleet(&FleetConfig::paper_default(devices).seed(1));
    assert_eq!(sharded.fleet.devices, devices);
    let serial = run_fleet(
        &FleetConfig::paper_default(devices)
            .seed(1)
            .shard_devices(devices as usize)
            .jobs(1),
    );
    assert_columns_bit_identical(&serial.columns, &sharded.columns);
    assert_eq!(serial.fleet, sharded.fleet);
}
