//! Seeded chaos scenario: the degradation ladder under compound faults.
//!
//! One deterministic run drives the guarded scheduler through the whole
//! ladder — an injected oracle alarm demotes it, a train-death window
//! drops it to Fallback, and the post-fault heartbeat stream earns the
//! promotions back — while the strict simulation oracle audits every
//! invariant. The run must also honour the paper's safety claim in its
//! weakest state: total energy stays at or below the no-piggyback
//! baseline on the same traces.
//!
//! When `ETRAIN_CHAOS_LOG` is set, the transition log is written there as
//! JSON (the CI chaos job uploads it as an artifact).

use etrain_sim::oracle::OracleMode;
use etrain_sim::{
    AdmissionConfig, FaultPlan, HealthConfig, HealthState, RunGrid, RunReport, Scenario,
    SchedulerKind, TransitionCause,
};

/// The chaos scenario: paper workload, long horizon, and a fault plan
/// layering loss, an injected oracle alarm and a train-death window.
fn chaos_scenario() -> Scenario {
    Scenario::paper_default()
        .oracle(OracleMode::Strict)
        .duration_secs(7_200)
        .seed(42)
        .faults(
            FaultPlan::seeded(42)
                .with_loss(0.05)
                .with_oracle_alarm(150.0)
                .with_train_death(1_800.0, 2_400.0),
        )
}

fn guarded_kind() -> SchedulerKind {
    SchedulerKind::Guarded {
        theta: 0.2,
        k: None,
        health: HealthConfig::default(),
        admission: AdmissionConfig::unbounded(),
    }
}

fn run_chaos() -> (RunReport, RunReport) {
    let reports = RunGrid::over_schedulers(
        &chaos_scenario(),
        &[SchedulerKind::Baseline, guarded_kind()],
    )
    .try_run()
    .expect("chaos run passes the strict oracle");
    let mut it = reports.into_iter();
    let baseline = it.next().expect("baseline report");
    let guarded = it.next().expect("guarded report");
    (baseline, guarded)
}

#[test]
fn ladder_walks_down_to_fallback_and_back_under_chaos() {
    let (baseline, guarded) = run_chaos();
    let events = &guarded.health_events;
    assert!(!events.is_empty(), "chaos run must exercise the ladder");

    // Timestamps are ordered and inside the horizon, and consecutive
    // transitions chain (each leaves the state the previous one entered).
    assert!(
        events.windows(2).all(|w| w[0].at_s <= w[1].at_s),
        "transitions out of order: {events:?}"
    );
    assert!(events.iter().all(|t| (0.0..=7_200.0).contains(&t.at_s)));
    assert!(
        events.windows(2).all(|w| w[0].to == w[1].from),
        "transition chain broken: {events:?}"
    );

    // The injected alarm demotes (Healthy -> Degraded) at the first slot
    // boundary at or after t = 150 s.
    let alarm = events
        .iter()
        .find(|t| t.cause == TransitionCause::OracleViolation)
        .expect("injected oracle alarm recorded");
    assert!(alarm.at_s >= 150.0, "alarm delivered at {}", alarm.at_s);

    // Sustained loss trips the consecutive-tx-failure demotion at least
    // once over the horizon.
    assert!(
        events
            .iter()
            .any(|t| matches!(t.cause, TransitionCause::RepeatedTxFailures { .. })),
        "loss never tripped the failure threshold: {events:?}"
    );

    // The train-death window drops the ladder to Fallback...
    let death = events
        .iter()
        .find(|t| t.cause == TransitionCause::TrainDeath && (1_800.0..=2_400.0).contains(&t.at_s))
        .expect("train-death window recorded");
    assert_eq!(death.to, HealthState::Fallback);

    // ... and clean heartbeats after the window earn promotions back.
    let recovery = events
        .iter()
        .find(|t| matches!(t.cause, TransitionCause::Recovered { .. }) && t.at_s > death.at_s)
        .expect("ladder recovers after the death window");
    assert!(recovery.at_s > 2_400.0, "recovery only once trains restart");
    assert!(
        events
            .iter()
            .any(|t| matches!(t.cause, TransitionCause::Recovered { .. })
                && t.to == HealthState::Healthy),
        "ladder climbs all the way back to Healthy: {events:?}"
    );

    // Safety claim, chaos edition: even spending part of the run in
    // Fallback (= baseline semantics), guarded eTrain never consumes more
    // than the no-piggyback baseline on the same traces and faults.
    assert!(
        guarded.total_energy_j <= baseline.total_energy_j + 1e-6,
        "guarded {} J > baseline {} J",
        guarded.total_energy_j,
        baseline.total_energy_j
    );
    assert!(guarded.oracle.as_ref().is_some_and(|o| o.is_clean()));
    assert!(baseline.oracle.as_ref().is_some_and(|o| o.is_clean()));

    // CI artifact: the degradation event log as JSON.
    if let Ok(path) = std::env::var("ETRAIN_CHAOS_LOG") {
        let json = serde_json::to_string_pretty(events).expect("events serialize");
        std::fs::write(&path, json).expect("chaos log path is writable");
    }
}

#[test]
fn chaos_run_is_deterministic_across_worker_counts() {
    let serial = RunGrid::over_schedulers(
        &chaos_scenario(),
        &[SchedulerKind::Baseline, guarded_kind()],
    )
    .jobs(1)
    .try_run()
    .unwrap();
    let parallel = RunGrid::over_schedulers(
        &chaos_scenario(),
        &[SchedulerKind::Baseline, guarded_kind()],
    )
    .jobs(2)
    .try_run()
    .unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn fault_free_guarded_run_stays_healthy_until_the_trace_ends() {
    let report = Scenario::paper_default()
        .oracle(OracleMode::Strict)
        .duration_secs(3_600)
        .seed(42)
        .scheduler(guarded_kind())
        .try_run()
        .expect("fault-free guarded run is clean");
    // The only permitted transition is the end-of-trace watchdog flush:
    // after the final heartbeat there will never be another train, so the
    // engine reports `trains_alive = false` and the ladder (correctly)
    // stops deferring. No failures, no alarms, nothing shed.
    assert!(
        report.health_events.len() <= 1,
        "fault-free run transitioned mid-trace: {:?}",
        report.health_events
    );
    if let Some(event) = report.health_events.first() {
        assert_eq!(event.cause, TransitionCause::TrainDeath);
        assert_eq!(event.to, HealthState::Fallback);
        assert!(event.at_s > 3_000.0, "flush only at end of trace");
    }
    assert_eq!(report.packets_shed, 0);
    assert_eq!(report.forced_flushes, 0);
}
