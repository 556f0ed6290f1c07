//! Decision-path equivalence suite: the cached hot path of the hot-path
//! campaign (`ETrainScheduler::select` scratch reuse, O(1) counters,
//! Θ-gate early exit, pooled timelines, batched integration) must be
//! *bit-for-bit* invisible in every output the simulator can produce.
//!
//! Every seeded scenario runs twice — once on the cached decision path
//! and once with the retained from-scratch reference recompute
//! (`Scenario::reference_cost`) — across all five schedulers, both engine
//! kernels, fault-free and faulty plans, with the strict oracle on and
//! the structured journal exported. The benchmark grid's paper-default
//! operating points, overload included, run the same comparison. Reports,
//! their serialized JSON, and the merged journals must match byte for
//! byte.
//!
//! The quick tier runs in the default test pass; the exhaustive sweep is
//! `#[ignore]`d and executed by the CI `conformance` job
//! (`cargo test -q -- --ignored`).

use etrain_sim::oracle::OracleMode;
use etrain_sim::{
    conformance_kinds, CasePlan, EngineKind, Journal, ObsMode, Scenario, SchedulerKind,
};

/// Runs one workload on both decision paths — across every scheduler in
/// `kinds` and both engine kernels — and demands byte-identical reports
/// and journals. `input` names the workload in failure messages.
fn assert_decision_paths_equivalent(input: &str, base: Scenario, kinds: &[SchedulerKind]) {
    let base = base.oracle(OracleMode::Strict).obs(ObsMode::Jsonl);
    for &kind in kinds {
        let scenario = base.clone().scheduler(kind);
        let traces = scenario.generate_traces();
        for engine in [EngineKind::Slot, EngineKind::Event] {
            let run = |reference: bool| {
                scenario
                    .clone()
                    .engine(engine)
                    .reference_cost(reference)
                    .try_run_journaled_on(&traces)
                    .unwrap_or_else(|e| {
                        panic!(
                            "strict run failed ({input}, scheduler {kind:?}, \
                             engine {engine}, reference {reference}): {e}"
                        )
                    })
            };
            let (cached_report, _, cached_journal) = run(false);
            let (reference_report, _, reference_journal) = run(true);

            assert_eq!(
                cached_report, reference_report,
                "decision paths diverged ({input}, scheduler {kind:?}, engine {engine})"
            );
            // Byte-identical persisted artifacts: the serialized report
            // (what BENCH_repro.json and checkpoints store) and the
            // merged journal export (what `ETRAIN_OBS=jsonl` writes).
            assert_eq!(
                serde_json::to_string(&cached_report).expect("report serializes"),
                serde_json::to_string(&reference_report).expect("report serializes"),
                "serialized reports diverged ({input}, scheduler {kind:?}, engine {engine})"
            );
            assert_eq!(
                cached_journal.as_ref().map(Journal::to_jsonl),
                reference_journal.as_ref().map(Journal::to_jsonl),
                "journals diverged ({input}, scheduler {kind:?}, engine {engine})"
            );
            assert!(
                cached_journal.is_some(),
                "jsonl obs mode must produce a journal"
            );
            let outcome = cached_report
                .oracle
                .as_ref()
                .expect("strict mode attaches outcome");
            assert!(outcome.is_clean(), "oracle violations ({input})");
        }
    }
}

/// One seeded workload from the generator shared with conformance and
/// chaos (every knob a pure function of the seed, so a failing seed
/// reproduces exactly), under all five schedulers.
fn assert_seed_equivalent(seed: u64, with_faults: bool) {
    assert_decision_paths_equivalent(
        &format!("seed {seed}, faults {with_faults}"),
        CasePlan::from_seed(seed, with_faults).scenario(),
        &conformance_kinds(),
    );
}

/// Quick tier: 4 seeds × {fault-free, faulty} × 5 schedulers × 2 kernels
/// × 2 decision paths = 160 journaled strict runs in the default pass.
#[test]
fn equivalence_quick_decision_paths_are_interchangeable() {
    for seed in 0..4 {
        assert_seed_equivalent(seed, false);
        assert_seed_equivalent(seed, true);
    }
}

/// The benchmark grid's operating points: paper-default scenarios at the
/// lightest arrival rate and at the 4× overload rate, under eTrain with
/// Θ ∈ {0.2, 20} and k ∈ {∞, 20}. Deep overload queues are where the
/// cached decision path does the most work: 2 rates × 4 schedulers × 2
/// kernels × 2 decision paths = 32 journaled strict runs.
#[test]
fn equivalence_benchmark_grid_points_are_interchangeable() {
    let kinds: Vec<SchedulerKind> = [0.2, 20.0]
        .into_iter()
        .flat_map(|theta| [None, Some(20)].map(|k| SchedulerKind::ETrain { theta, k }))
        .collect();
    for lambda in [0.04, 0.32] {
        assert_decision_paths_equivalent(
            &format!("paper default, λ {lambda}"),
            Scenario::paper_default().lambda(lambda),
            &kinds,
        );
    }
}

/// Exhaustive tier for the CI conformance job: 20 seeds × {fault-free,
/// faulty} × 5 schedulers × 2 kernels × 2 decision paths = 800 journaled
/// strict runs.
#[test]
#[ignore = "exhaustive sweep; run with `cargo test -- --ignored` (CI conformance job)"]
fn equivalence_full_decision_paths_are_interchangeable() {
    for seed in 0..20 {
        assert_seed_equivalent(seed, false);
        assert_seed_equivalent(seed, true);
    }
}

/// `Scenario::paper_default` runs the event kernel on the cached decision
/// path; the slot kernel and the reference recompute run only when a
/// caller selects them, as this suite does.
#[test]
fn paper_default_runs_the_event_kernel_on_the_cached_path() {
    let scenario = Scenario::paper_default();
    assert_eq!(scenario.engine_kind(), EngineKind::Event);
    assert!(!scenario.reference_cost_enabled());
}
