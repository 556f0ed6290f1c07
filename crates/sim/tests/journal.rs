//! Integration tests for the observability layer: deterministic journal
//! merging across worker counts, and conformance of the metrics
//! registry's energy decomposition against the report's energy ledger.

use etrain_sim::{Event, ObsMode, RunGrid, RunSpec, Scenario, SchedulerKind};
use proptest::prelude::*;

fn journaled_grid(jobs: usize) -> RunGrid {
    let base = Scenario::paper_default().duration_secs(900).seed(3);
    RunGrid::from_specs(
        [0.0_f64, 0.5, 1.0, 2.0]
            .iter()
            .map(|&theta| {
                RunSpec::with_knob(
                    format!("Θ={theta}"),
                    theta,
                    base.clone()
                        .scheduler(SchedulerKind::ETrain { theta, k: None }),
                )
            })
            .collect(),
    )
    .obs(ObsMode::Jsonl)
    .jobs(jobs)
}

#[test]
fn merged_journal_is_byte_identical_serial_vs_parallel() {
    let (serial_reports, serial_journal) = journaled_grid(1).try_run_journaled().unwrap();
    let (parallel_reports, parallel_journal) = journaled_grid(4).try_run_journaled().unwrap();
    assert_eq!(serial_reports, parallel_reports);
    assert!(!serial_journal.is_empty());
    assert_eq!(
        serial_journal.to_jsonl(),
        parallel_journal.to_jsonl(),
        "merged journal must not depend on worker count"
    );
}

#[test]
fn merged_journal_tags_records_with_job_indices() {
    let grid = journaled_grid(2);
    let (reports, journal) = grid.try_run_journaled().unwrap();
    let runs: Vec<usize> = journal.records().iter().map(|r| r.run).collect();
    // Concatenated in job-index order: run tags are non-decreasing and
    // cover every job.
    assert!(runs.windows(2).all(|w| w[0] <= w[1]), "{runs:?}");
    assert_eq!(*runs.last().unwrap(), reports.len() - 1);
    // Per-run heartbeat events agree with the per-run report counter.
    for (index, report) in reports.iter().enumerate() {
        let fired = journal
            .records()
            .iter()
            .filter(|r| r.run == index && matches!(r.event, Event::HeartbeatFired { .. }))
            .count();
        assert_eq!(fired, report.heartbeats_sent, "run {index}");
    }
}

#[test]
fn journaled_run_report_matches_plain_run_modulo_metrics() {
    let scenario = Scenario::paper_default().duration_secs(900).seed(5);
    let plain = scenario.clone().obs(ObsMode::Off).run();
    let traces = scenario.generate_traces();
    let (mut journaled, _, journal) = scenario
        .clone()
        .obs(ObsMode::Jsonl)
        .try_run_journaled_on(&traces)
        .unwrap();
    assert!(journal.is_some());
    assert!(journaled.metrics.is_some());
    journaled.metrics = None;
    assert_eq!(plain, journaled, "observability must not perturb results");
    // And with observability off, no journal and no metrics at all.
    let (report, _, no_journal) = scenario
        .obs(ObsMode::Off)
        .try_run_journaled_on(&traces)
        .unwrap();
    assert!(no_journal.is_none());
    assert!(report.metrics.is_none());
}

#[test]
fn metrics_energy_gauges_sum_to_the_report_total() {
    let scenario = Scenario::paper_default()
        .duration_secs(900)
        .seed(7)
        .obs(ObsMode::Jsonl);
    let (report, _, _) = scenario
        .try_run_journaled_on(&scenario.generate_traces())
        .unwrap();
    let metrics = report.metrics.expect("metrics recorded");
    let total = metrics.energy_total_j().expect("all gauges set");
    assert!(
        (total - report.total_energy_j).abs() <= 1e-6 * report.total_energy_j.max(1.0),
        "per-state decomposition {total} != ledger {}",
        report.total_energy_j
    );
    assert_eq!(metrics.heartbeats, report.heartbeats_sent as u64);
    assert_eq!(metrics.retries, report.retries as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The per-RRC-state energy gauges must decompose the run's total
    /// energy exactly, for any scheduler knob and workload seed — the
    /// same identity the oracle's ledger invariant audits, reached
    /// through the observability path instead.
    #[test]
    fn energy_decomposition_holds_across_knobs(
        seed in 0u64..64,
        theta in prop_oneof![Just(0.0), Just(0.2), Just(1.0), Just(5.0)],
        lambda in prop_oneof![Just(0.02), Just(0.08), Just(0.2)],
    ) {
        let scenario = Scenario::paper_default()
            .duration_secs(600)
            .seed(seed)
            .lambda(lambda)
            .scheduler(SchedulerKind::ETrain { theta, k: None })
            .obs(ObsMode::Jsonl);
        let (report, _, journal) = scenario
            .try_run_journaled_on(&scenario.generate_traces())
            .unwrap();
        let metrics = report.metrics.expect("metrics recorded");
        let total = metrics.energy_total_j().expect("all gauges set");
        prop_assert!(
            (total - report.total_energy_j).abs()
                <= 1e-6 * report.total_energy_j.max(1.0),
            "decomposition {} != ledger {}", total, report.total_energy_j
        );
        // The journal's summed per-event view agrees with the counters.
        let journal = journal.expect("journal recorded");
        let fired = journal
            .records()
            .iter()
            .filter(|r| matches!(r.event, Event::HeartbeatFired { .. }))
            .count();
        prop_assert_eq!(fired, report.heartbeats_sent);
    }
}
