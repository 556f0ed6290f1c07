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
    audit_scheduler_ordering, conformance_kinds, CasePlan, EngineKind, EngineOutput, FaultPlan,
    Journal, ObsMode, RunGrid, Scenario,
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
/// bit-for-bit identical reports and journals. This is the event kernel's
/// conformance contract: batched slot retirement is an optimization the
/// outputs must not be able to see.
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
}

/// Quick differential tier: 6 seeds × {fault-free, faulty} × 5 schedulers
/// × 2 kernels = 120 journaled strict runs in the default test pass.
#[test]
fn conformance_quick_kernels_interchangeable() {
    for seed in 0..6 {
        assert_kernels_interchangeable(seed, false);
        assert_kernels_interchangeable(seed, true);
    }
}

/// Exhaustive differential tier for the CI conformance job: 25 seeds ×
/// {fault-free, faulty} × 5 schedulers × 2 kernels = 500 journaled
/// strict runs.
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

#[test]
fn strict_mode_surfaces_violations_as_scenario_errors() {
    // Drive the checked engine entry point directly with a tampered
    // output is impossible (it runs the engine itself), so exercise the
    // Strict plumbing on a clean run: it must succeed, attach a clean
    // outcome, and count checks in the process-wide tallies.
    let before = oracle::counters();
    let report = Scenario::paper_default()
        .oracle(OracleMode::Strict)
        .duration_secs(600)
        .seed(11)
        .try_run()
        .expect("clean run passes strict oracle");
    let outcome = report.oracle.expect("strict attaches outcome");
    assert_eq!(outcome.mode, OracleMode::Strict);
    assert!(outcome.is_clean());
    let after = oracle::counters();
    assert!(after.checks >= before.checks + outcome.checks);
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
