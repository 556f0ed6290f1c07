//! Differential conformance suite: seeded random workloads pushed through
//! every scheduler, audited by the simulation oracle in `Strict` mode, and
//! checked for bit-for-bit determinism between serial and parallel
//! execution.
//!
//! The quick tier (`conformance_quick_*`) runs in the default test pass;
//! the exhaustive ≥200-scenario sweep is `#[ignore]`d and executed by the
//! CI `conformance` job (`cargo test -q -- --ignored`).

use etrain_sim::oracle::{self, OracleMode, OracleViolation};
use etrain_sim::{
    audit_scheduler_ordering, conformance_kinds, AdmissionConfig, CasePlan, EngineKind,
    EngineOutput, FaultPlan, HealthConfig, Journal, ObsMode, RunGrid, RunReport, Scenario,
    SchedulerKind,
};
use etrain_trace::faults::hash_unit;
use etrain_trace::heartbeats::Heartbeat;
use etrain_trace::packets::Packet;
use etrain_trace::{CargoAppId, TrainAppId};

/// Deterministic scenario generator, shared with the chaos campaign: every
/// knob a pure function of the seed (see [`CasePlan::from_seed`]), so a
/// failing seed reproduces exactly.
fn random_scenario(seed: u64, with_faults: bool) -> Scenario {
    CasePlan::from_seed(seed, with_faults).scenario()
}

/// Runs one random scenario through every scheduler twice — serial and
/// on the worker pool — in `Strict` oracle mode, and demands bit-for-bit
/// identical reports.
fn assert_strict_and_deterministic(seed: u64, with_faults: bool) {
    let base = random_scenario(seed, with_faults);
    let serial = RunGrid::over_schedulers(&base, &conformance_kinds())
        .oracle(OracleMode::Strict)
        .jobs(1)
        .try_run()
        .unwrap_or_else(|e| {
            panic!("strict oracle failed (seed {seed}, faults {with_faults}): {e}")
        });
    let parallel = RunGrid::over_schedulers(&base, &conformance_kinds())
        .oracle(OracleMode::Strict)
        .jobs(4)
        .try_run()
        .unwrap_or_else(|e| {
            panic!("strict oracle failed (seed {seed}, faults {with_faults}): {e}")
        });
    assert_eq!(
        serial, parallel,
        "parallel execution diverged from serial (seed {seed}, faults {with_faults})"
    );
    for report in &serial {
        let outcome = report
            .oracle
            .as_ref()
            .expect("strict mode attaches outcome");
        assert!(outcome.is_clean());
        assert!(outcome.checks > 0);
    }
}

/// Quick tier: 8 seeds × {fault-free, faulty} × 5 schedulers × {serial,
/// pool} = 160 audited runs in the default test pass.
#[test]
fn conformance_quick_strict_and_deterministic() {
    for seed in 0..8 {
        assert_strict_and_deterministic(seed, false);
        assert_strict_and_deterministic(seed, true);
    }
}

/// Exhaustive tier for the CI conformance job: 25 seeds × {fault-free,
/// faulty} × 5 schedulers = 250 strict-audited scenarios (500 engine runs
/// counting the serial/parallel comparison).
#[test]
#[ignore = "exhaustive sweep; run with `cargo test -- --ignored` (CI conformance job)"]
fn conformance_full_strict_and_deterministic() {
    for seed in 0..25 {
        assert_strict_and_deterministic(seed, false);
        assert_strict_and_deterministic(seed, true);
    }
}

/// Runs one generated workload under both engine kernels — same traces,
/// same scheduler, `Strict` oracle, JSONL journal — and demands
/// bit-for-bit identical reports and journals; then the same without a
/// journal, adding eTrain operating points with long horizons. This is
/// the event kernel's conformance contract: batched slot retirement is an
/// optimization the outputs must not be able to see.
fn assert_kernels_interchangeable(seed: u64, with_faults: bool) {
    let base = random_scenario(seed, with_faults)
        .oracle(OracleMode::Strict)
        .obs(ObsMode::Jsonl);
    for kind in conformance_kinds() {
        let scenario = base.clone().scheduler(kind);
        let traces = scenario.generate_traces();
        let run = |engine: EngineKind| {
            scenario
                .clone()
                .engine(engine)
                .try_run_journaled_on(&traces)
                .unwrap_or_else(|e| {
                    panic!(
                        "{engine} kernel failed strict run \
                         (seed {seed}, faults {with_faults}, scheduler {kind:?}): {e}"
                    )
                })
        };
        let (slot_report, _, slot_journal) = run(EngineKind::Slot);
        let (event_report, _, event_journal) = run(EngineKind::Event);

        assert_eq!(
            slot_report, event_report,
            "kernels diverged (seed {seed}, faults {with_faults}, scheduler {kind:?})"
        );
        // Belt and suspenders: byte-identical serialized artifacts, the
        // form checkpoints and BENCH_repro.json actually persist.
        assert_eq!(
            serde_json::to_string(&slot_report).expect("report serializes"),
            serde_json::to_string(&event_report).expect("report serializes"),
            "serialized reports diverged (seed {seed}, faults {with_faults}, scheduler {kind:?})"
        );
        assert_eq!(
            slot_journal.as_ref().map(Journal::to_jsonl),
            event_journal.as_ref().map(Journal::to_jsonl),
            "journals diverged (seed {seed}, faults {with_faults}, scheduler {kind:?})"
        );
        let outcome = slot_report
            .oracle
            .as_ref()
            .expect("strict mode attaches outcome");
        assert!(outcome.is_clean(), "oracle violations under seed {seed}");
    }
    for kind in conformance_kinds().into_iter().chain(horizon_kinds()) {
        let scenario = base.clone().scheduler(kind);
        assert_kernels_agree_unjournaled(
            &format!("seed {seed}, faults {with_faults}, scheduler {kind:?}"),
            &scenario,
        );
    }
}

/// eTrain operating points whose queues stay below Θ for many slots, so
/// the event kernel's horizons span long runs of deferrals.
fn horizon_kinds() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::ETrain {
            theta: 20.0,
            k: Some(20),
        },
        SchedulerKind::ETrain {
            theta: 2.0,
            k: None,
        },
        SchedulerKind::Guarded {
            theta: 20.0,
            k: Some(20),
            health: HealthConfig::default(),
            admission: AdmissionConfig::unbounded(),
        },
    ]
}

/// Runs `scenario` with observability off — the only mode in which the
/// event kernel skips slots over a non-empty eTrain queue — under both
/// kernels on the same traces, and demands the same report, the same
/// slot count and the same transmissions.
fn assert_kernels_agree_unjournaled(input: &str, scenario: &Scenario) {
    let scenario = scenario.clone().obs(ObsMode::Off);
    let traces = scenario.generate_traces();
    let run = |engine: EngineKind| {
        scenario
            .clone()
            .engine(engine)
            .try_run_journaled_on(&traces)
            .unwrap_or_else(|e| panic!("{engine} kernel failed unjournaled run ({input}): {e}"))
    };
    let (slot_report, slot_output, _) = run(EngineKind::Slot);
    let (event_report, event_output, _) = run(EngineKind::Event);
    assert_eq!(
        slot_report, event_report,
        "kernels diverged unjournaled ({input})"
    );
    assert_eq!(
        slot_output.steps_run, event_output.steps_run,
        "slot counts diverged unjournaled ({input})"
    );
    assert_eq!(
        slot_output.transmissions, event_output.transmissions,
        "transmissions diverged unjournaled ({input})"
    );
}

/// Quick differential tier: 6 seeds × {fault-free, faulty} × 5 schedulers
/// × 2 kernels = 120 journaled strict runs in the default test pass, and
/// 6 × 2 × 8 schedulers × 2 kernels = 192 unjournaled ones.
#[test]
fn conformance_quick_kernels_interchangeable() {
    for seed in 0..6 {
        assert_kernels_interchangeable(seed, false);
        assert_kernels_interchangeable(seed, true);
    }
}

/// Exhaustive differential tier for the CI conformance job: 25 seeds ×
/// {fault-free, faulty} × 5 schedulers × 2 kernels = 500 journaled
/// strict runs, and 800 unjournaled ones over 8 schedulers.
#[test]
#[ignore = "exhaustive sweep; run with `cargo test -- --ignored` (CI conformance job)"]
fn conformance_full_kernels_interchangeable() {
    for seed in 0..25 {
        assert_kernels_interchangeable(seed, false);
        assert_kernels_interchangeable(seed, true);
    }
}

/// A small instance for the scheduler-ordering audit: sparse Weibo-style
/// packets (≤ 7, inside the exact offline solver's range) and a steady
/// heartbeat train.
fn sparse_instance(seed: u64) -> (Vec<Packet>, Vec<Heartbeat>) {
    let n = 3 + (hash_unit(seed, 100, 0) * 4.0) as usize;
    let mut arrivals: Vec<f64> = (0..n)
        .map(|i| hash_unit(seed, 101, i as u64) * 400.0)
        .collect();
    arrivals.sort_by(f64::total_cmp);
    let packets = arrivals
        .iter()
        .enumerate()
        .map(|(i, &arrival_s)| Packet {
            id: i as u64,
            app: CargoAppId(1),
            arrival_s,
            size_bytes: 2_000 + (hash_unit(seed, 102, i as u64) * 6_000.0) as u64,
        })
        .collect();
    let heartbeats = (1..10)
        .map(|i| Heartbeat {
            train: TrainAppId(0),
            time_s: i as f64 * 60.0 + hash_unit(seed, 103, i) * 20.0,
            size_bytes: 100,
        })
        .collect();
    (packets, heartbeats)
}

/// Invariant 4: on controlled fault-free instances, online eTrain's extra
/// energy sits between the exact offline optimum (with discretization
/// slack) and the no-piggyback baseline.
#[test]
fn conformance_scheduler_ordering_holds_on_sparse_instances() {
    let profiles = etrain_sched::AppProfile::paper_trio(600.0);
    for seed in 0..6 {
        let (packets, heartbeats) = sparse_instance(seed);
        let audit = audit_scheduler_ordering(
            packets,
            heartbeats,
            profiles.clone(),
            450_000.0,
            600.0,
            50.0,
        )
        .unwrap_or_else(|v| panic!("ordering violated (seed {seed}): {v}"));
        assert!(audit.offline_exact, "instance should be exactly solvable");
        assert!(audit.baseline_extra_j.is_finite() && audit.baseline_extra_j > 0.0);
        assert!(audit.etrain_extra_j <= audit.baseline_extra_j + 1e-6);
    }
}

/// A clean reference run plus its input traces, for corruption tests.
fn reference_run() -> (EngineOutput, Vec<Packet>, Vec<Heartbeat>) {
    let scenario = Scenario::paper_default()
        .oracle(OracleMode::Off)
        .duration_secs(900)
        .seed(7);
    let traces = scenario.generate_traces();
    let (_, output, _) = scenario
        .try_run_journaled_on(&traces)
        .expect("reference scenario is valid");
    (output, traces.packets.to_vec(), traces.heartbeats.to_vec())
}

fn violations_of(
    output: &EngineOutput,
    packets: &[Packet],
    heartbeats: &[Heartbeat],
) -> Vec<OracleViolation> {
    oracle::audit_engine(output, packets, heartbeats, &FaultPlan::none()).violations
}

#[test]
fn oracle_accepts_the_reference_run() {
    let (output, packets, heartbeats) = reference_run();
    let outcome = oracle::audit_engine(&output, &packets, &heartbeats, &FaultPlan::none());
    assert!(outcome.is_clean(), "violations: {:?}", outcome.violations);
    assert!(outcome.checks > 100, "audit actually checked things");
    assert!(!output.completed.is_empty(), "reference run moved packets");
}

#[test]
fn oracle_catches_tampered_tail_energy() {
    let (mut output, packets, heartbeats) = reference_run();
    output.tail_energy_j += 1.0;
    let violations = violations_of(&output, &packets, &heartbeats);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::EnergyImbalance { .. })),
        "expected EnergyImbalance, got {violations:?}"
    );
}

#[test]
fn oracle_catches_truncated_transmission_log() {
    // Shortening a logged transmission is the engine-level analogue of a
    // truncated DCH tail: the rebuilt timeline loses busy time and tail,
    // so it no longer balances against the online ledger.
    let (mut output, packets, heartbeats) = reference_run();
    let last = output.transmissions.last_mut().expect("has transmissions");
    last.duration_s *= 0.5;
    let violations = violations_of(&output, &packets, &heartbeats);
    // Depending on where the truncated transmission sits, the imbalance
    // surfaces as a ledger mismatch or — when the freed time is absorbed
    // by a same-power DCH tail — as a busy-time mismatch.
    assert!(
        violations.iter().any(|v| matches!(
            v,
            OracleViolation::EnergyImbalance { .. } | OracleViolation::MetricsMismatch { .. }
        )),
        "expected EnergyImbalance or busy-time MetricsMismatch, got {violations:?}"
    );
}

#[test]
fn oracle_catches_dropped_completion() {
    let (mut output, packets, heartbeats) = reference_run();
    output.completed.pop().expect("has completions");
    let violations = violations_of(&output, &packets, &heartbeats);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::PacketConservation { .. })),
        "expected PacketConservation, got {violations:?}"
    );
}

#[test]
fn oracle_catches_duplicated_completion() {
    let (mut output, packets, heartbeats) = reference_run();
    let dup = *output.completed.first().expect("has completions");
    output.completed.push(dup);
    let violations = violations_of(&output, &packets, &heartbeats);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::DuplicateTerminalState { .. })),
        "expected DuplicateTerminalState, got {violations:?}"
    );
}

#[test]
fn oracle_catches_overlapping_transmissions() {
    let (mut output, packets, heartbeats) = reference_run();
    let first = *output.transmissions.first().expect("has transmissions");
    output.transmissions.push(first);
    let violations = violations_of(&output, &packets, &heartbeats);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::OverlappingTransmissions { .. })),
        "expected OverlappingTransmissions, got {violations:?}"
    );
}

#[test]
fn oracle_catches_fault_artifacts_without_a_lossy_plan() {
    let (mut output, packets, heartbeats) = reference_run();
    output.retries = 3;
    let violations = violations_of(&output, &packets, &heartbeats);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::UnexpectedFaultArtifact { .. })),
        "expected UnexpectedFaultArtifact, got {violations:?}"
    );
}

#[test]
fn oracle_catches_corrupted_heartbeat_count() {
    let (mut output, packets, heartbeats) = reference_run();
    output.heartbeats_sent += 1;
    let violations = violations_of(&output, &packets, &heartbeats);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, OracleViolation::HeartbeatCount { .. })),
        "expected HeartbeatCount, got {violations:?}"
    );
}

/// The reference run's report and raw output, for report-level audits.
fn reference_report() -> (RunReport, EngineOutput, Scenario) {
    let scenario = Scenario::paper_default()
        .oracle(OracleMode::Off)
        .duration_secs(900)
        .seed(7);
    let (report, output, _) = scenario
        .try_run_journaled_on(&scenario.generate_traces())
        .expect("reference scenario is valid");
    (report, output, scenario)
}

#[test]
fn report_audit_accepts_the_reference_report() {
    let (report, output, scenario) = reference_report();
    let outcome = oracle::audit_report(&report, &output, scenario.profiles_ref());
    assert!(outcome.is_clean(), "violations: {:?}", outcome.violations);
}

#[test]
fn report_audit_catches_a_tampered_delay() {
    let (mut report, output, scenario) = reference_report();
    report.normalized_delay_s += 1.0;
    let violations = oracle::audit_report(&report, &output, scenario.profiles_ref()).violations;
    assert!(
        matches!(&violations[..], [OracleViolation::MetricsMismatch { metric, .. }] if metric == "normalized_delay_s"),
        "{violations:?}"
    );
}

#[test]
fn report_audit_catches_a_non_finite_energy() {
    let (mut report, output, scenario) = reference_report();
    report.idle_energy_j = f64::NAN;
    let violations = oracle::audit_report(&report, &output, scenario.profiles_ref()).violations;
    assert!(violations
        .iter()
        .any(|v| matches!(v, OracleViolation::NonFiniteQuantity { .. })));
}

/// The metric names of the report audit's mismatches, in audit order.
fn mismatched_metrics(
    report: &RunReport,
    output: &EngineOutput,
    scenario: &Scenario,
) -> Vec<String> {
    oracle::audit_report(report, output, scenario.profiles_ref())
        .violations
        .into_iter()
        .map(|v| match v {
            OracleViolation::MetricsMismatch { metric, .. } => metric,
            other => panic!("expected a metrics mismatch, got {other:?}"),
        })
        .collect()
}

#[test]
fn report_audit_names_each_tampered_count() {
    type Tamper = fn(&mut RunReport);
    let tampers: [(&str, Tamper); 8] = [
        ("packets_completed", |r| r.packets_completed += 1),
        ("packets_unfinished", |r| r.packets_unfinished += 1),
        ("packets_abandoned", |r| r.packets_abandoned += 1),
        ("heartbeats_sent", |r| r.heartbeats_sent += 1),
        ("retries", |r| r.retries += 1),
        ("promotions", |r| r.promotions += 1),
        ("packets_shed", |r| r.packets_shed += 1),
        ("forced_flushes", |r| r.forced_flushes += 1),
    ];
    let (report, output, scenario) = reference_report();
    for (name, tamper) in tampers {
        let mut tampered = report.clone();
        tamper(&mut tampered);
        assert_eq!(
            mismatched_metrics(&tampered, &output, &scenario),
            [name],
            "tampering {name}"
        );
    }
}

#[test]
fn report_audit_catches_an_energy_that_breaks_the_sums() {
    let (report, output, scenario) = reference_report();
    // Extra energy no longer equals transmission + tail, and the total no
    // longer equals extra + idle.
    let mut extra = report.clone();
    extra.extra_energy_j += 1.0;
    assert_eq!(
        mismatched_metrics(&extra, &output, &scenario),
        ["extra_energy_j", "total_energy_j"]
    );
    // Idle energy only enters the total.
    let mut idle = report;
    idle.idle_energy_j += 1.0;
    assert_eq!(
        mismatched_metrics(&idle, &output, &scenario),
        ["total_energy_j"]
    );
}

#[test]
fn report_audit_catches_a_per_app_row_that_loses_packets() {
    let (mut report, output, scenario) = reference_report();
    let busiest = report
        .per_app
        .iter_mut()
        .max_by_key(|app| app.packets)
        .expect("the reference run has apps");
    assert!(busiest.packets > 0);
    busiest.packets -= 1;
    assert_eq!(
        mismatched_metrics(&report, &output, &scenario),
        ["per_app_packets"]
    );
}

#[test]
fn report_audit_catches_a_negative_energy_and_a_ratio_above_one() {
    let (report, output, scenario) = reference_report();
    let mut negative = report.clone();
    negative.tail_energy_j = -1.0;
    let violations = oracle::audit_report(&negative, &output, scenario.profiles_ref()).violations;
    assert!(
        violations.iter().any(|v| matches!(
            v,
            OracleViolation::NonFiniteQuantity { field, value }
                if field == "tail_energy_j" && *value == -1.0
        )),
        "{violations:?}"
    );

    let mut ratio = report;
    ratio.deadline_violation_ratio = 1.5;
    let violations = oracle::audit_report(&ratio, &output, scenario.profiles_ref()).violations;
    assert!(
        violations.iter().any(|v| matches!(
            v,
            OracleViolation::NonFiniteQuantity { field, .. }
                if field == "deadline_violation_ratio outside [0, 1]"
        )),
        "{violations:?}"
    );
}

#[test]
fn strict_mode_passes_a_clean_run_and_attaches_its_outcome() {
    // A run cannot be handed a tampered output (it runs the engine
    // itself), so the violation path is unit-tested on the gate in
    // `scenario.rs`; here a clean run must succeed under Strict and carry
    // its clean outcome.
    let report = Scenario::paper_default()
        .oracle(OracleMode::Strict)
        .duration_secs(600)
        .seed(11)
        .try_run()
        .expect("clean run passes strict oracle");
    let outcome = report.oracle.expect("strict attaches outcome");
    assert_eq!(outcome.mode, OracleMode::Strict);
    assert!(outcome.is_clean());
    assert!(outcome.checks > 0);
}

#[test]
fn off_mode_attaches_no_outcome() {
    let report = Scenario::paper_default()
        .oracle(OracleMode::Off)
        .duration_secs(600)
        .seed(11)
        .run();
    assert!(report.oracle.is_none());
}

#[test]
fn empty_workload_passes_strict_oracle_end_to_end() {
    let report = Scenario::paper_default()
        .oracle(OracleMode::Strict)
        .duration_secs(600)
        .packets(vec![])
        .heartbeats(vec![])
        .try_run()
        .expect("empty workload is a valid degenerate run");
    assert_eq!(report.packets_completed, 0);
    assert_eq!(report.heartbeats_sent, 0);
    assert_eq!(report.extra_energy_j, 0.0);
    assert_eq!(report.tail_fraction(), 0.0);
    assert_eq!(report.abandonment_ratio, 0.0);
    assert_eq!(report.normalized_delay_s, 0.0);
    assert_eq!(report.deadline_violation_ratio, 0.0);
    assert!(report.oracle.expect("outcome attached").is_clean());
}
