//! Integration tests for the extension features: capture analysis,
//! replication, diurnal workloads, and raw engine output.

use etrain::hb::{identify_heartbeat_flows, IdentifyConfig};
use etrain::radio::{Battery, RadioParams};
use etrain::sim::{replicate, BandwidthSource, Scenario, SchedulerKind};
use etrain::trace::capture::{synthesize_capture, CaptureConfig};
use etrain::trace::diurnal::{generate_diurnal, DiurnalProfile, DAY_S};
use etrain::trace::packets::CargoWorkload;

#[test]
fn capture_pipeline_recovers_table1_from_raw_packets() {
    let capture = synthesize_capture(&CaptureConfig::default(), 77);
    let flows = identify_heartbeat_flows(&capture, &IdentifyConfig::default());
    let mut cycles: Vec<f64> = flows.iter().map(|f| f.cycle_s.round()).collect();
    cycles.sort_by(f64::total_cmp);
    assert_eq!(cycles, vec![240.0, 270.0, 300.0]);
}

#[test]
fn replication_narrows_the_comparison() {
    let seeds: Vec<u64> = (0..4).collect();
    let baseline = replicate(
        &Scenario::paper_default()
            .duration_secs(1200)
            .scheduler(SchedulerKind::Baseline),
        &seeds,
    )
    .unwrap();
    let etrain = replicate(
        &Scenario::paper_default()
            .duration_secs(1200)
            .scheduler(SchedulerKind::ETrain {
                theta: 2.0,
                k: None,
            }),
        &seeds,
    )
    .unwrap();
    // The gap must exceed the combined spread — a statistically meaningful
    // win, not a lucky seed.
    let gap = baseline.extra_energy_j.mean - etrain.extra_energy_j.mean;
    assert!(gap > baseline.extra_energy_j.std_dev + etrain.extra_energy_j.std_dev);
}

#[test]
fn diurnal_day_simulation_is_consistent() {
    let packets = generate_diurnal(
        &CargoWorkload::paper_default(0.02),
        DiurnalProfile::evening_heavy(),
        0.0,
        DAY_S,
        3,
    );
    let generated = packets.len();
    let report = Scenario::paper_default()
        .duration_secs(DAY_S as u64)
        .packets(packets)
        .bandwidth(BandwidthSource::Constant(500_000.0))
        .scheduler(SchedulerKind::ETrain {
            theta: 2.0,
            k: None,
        })
        .seed(3)
        .run();
    assert_eq!(
        report.packets_completed + report.packets_unfinished,
        generated
    );
    // A full day of 3 IM apps: ~970 heartbeats.
    assert!(report.heartbeats_sent > 900);
}

#[test]
fn raw_output_exposes_a_power_monitor_view() {
    let scenario = Scenario::paper_default()
        .duration_secs(900)
        .bandwidth(BandwidthSource::Constant(500_000.0))
        .scheduler(SchedulerKind::ETrain {
            theta: 1.0,
            k: None,
        })
        .seed(5);
    let (report, output, _) = scenario
        .try_run_journaled_on(&scenario.generate_traces())
        .expect("valid scenario");
    // The sampled power trace, less the idle floor, integrates to the
    // reported energy.
    let trace = output.timeline().sample(0.1);
    let idle_j = RadioParams::galaxy_s4_3g().idle_mw() * trace.duration_s() / 1000.0;
    let sampled_extra = trace.energy_j() - idle_j;
    assert!(
        (sampled_extra - report.extra_energy_j).abs() / report.extra_energy_j < 0.02,
        "sampled {sampled_extra} vs reported {}",
        report.extra_energy_j
    );
    // And the battery framing is available for any report.
    let battery = Battery::paper_reference();
    assert!(battery.fraction_of_capacity(report.extra_energy_j) < 1.0);
}
