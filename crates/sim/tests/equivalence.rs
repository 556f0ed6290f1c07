//! Decision-path equivalence suite: the cached hot path of the hot-path
//! campaign (`ETrainScheduler::select` scratch reuse, O(1) counters,
//! Θ-gate early exit, batched integration) must be *bit-for-bit*
//! invisible in every output the simulator can produce.
//!
//! Every seeded scenario runs twice — once on the cached decision path
//! and once with the retained from-scratch reference recompute
//! (`Scenario::reference_cost`) — across all five schedulers, both engine
//! kernels, fault-free and faulty plans, with the strict oracle on and
//! the structured journal exported. The benchmark grid's paper-default
//! operating points, overload included, and a heartbeats-only standby
//! run, where nearly every slot is batch-skipped, run the same
//! comparison. Reports, their serialized JSON, and the merged journals
//! must match byte for byte, between the two paths and between the two
//! kernels.
//!
//! The quick tier runs in the default test pass; the exhaustive sweep is
//! `#[ignore]`d and executed by the CI `conformance` job
//! (`cargo test -q -- --ignored`).

use etrain_sched::{AppProfile, CostProfile, ETrainConfig, ETrainScheduler, Scheduler};
use etrain_sim::oracle::OracleMode;
use etrain_sim::{
    conformance_kinds, AdmissionConfig, BandwidthSource, CasePlan, EngineKind, FaultPlan,
    HealthConfig, Journal, ObsMode, Scenario, SchedulerKind, TraceBundle,
};
use etrain_trace::heartbeats::{Heartbeat, TrainAppSpec};
use etrain_trace::packets::{CargoWorkload, Packet};
use etrain_trace::{CargoAppId, TrainAppId};

/// Runs one workload on both decision paths — across every scheduler in
/// `kinds` and both engine kernels — and demands byte-identical reports
/// and journals, between the paths and between the kernels. `input`
/// names the workload in failure messages.
fn assert_decision_paths_equivalent(input: &str, base: Scenario, kinds: &[SchedulerKind]) {
    let base = base.oracle(OracleMode::Strict).obs(ObsMode::Jsonl);
    for &kind in kinds {
        let scenario = base.clone().scheduler(kind);
        let traces = scenario.generate_traces();
        let mut slot_kernel = None;
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
            // merged journal export (what `repro_all --journal` writes).
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

            let cached = (
                cached_report,
                cached_journal.as_ref().map(Journal::to_jsonl),
            );
            match &slot_kernel {
                None => slot_kernel = Some(cached),
                Some(slot) => assert!(
                    *slot == cached,
                    "kernels diverged ({input}, scheduler {kind:?})"
                ),
            }
        }
        assert_unjournaled_runs_agree(input, &scenario, &traces);
    }
}

/// The same comparison with observability off, the only mode in which the
/// event kernel skips slots over a non-empty eTrain queue: both kernels
/// on both decision paths must produce the same report, step the same
/// number of slots and make the same transmissions.
fn assert_unjournaled_runs_agree(input: &str, scenario: &Scenario, traces: &TraceBundle) {
    let kind = scenario.scheduler_kind();
    let mut first = None;
    for engine in [EngineKind::Slot, EngineKind::Event] {
        for reference in [false, true] {
            let (report, output, journal) = scenario
                .clone()
                .obs(ObsMode::Off)
                .engine(engine)
                .reference_cost(reference)
                .try_run_journaled_on(traces)
                .unwrap_or_else(|e| {
                    panic!(
                        "unjournaled run failed ({input}, scheduler {kind:?}, \
                         engine {engine}, reference {reference}): {e}"
                    )
                });
            assert!(journal.is_none(), "obs off must produce no journal");
            let run = (report, output.steps_run, output.transmissions);
            match &first {
                None => first = Some(run),
                Some(first) => assert!(
                    *first == run,
                    "unjournaled runs diverged ({input}, scheduler {kind:?}, \
                     engine {engine}, reference {reference})"
                ),
            }
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

/// Standby: an hour of the paper trio's heartbeats with no cargo traffic
/// on a constant 450 kbps link (seed 1), the event kernel's best case —
/// almost every slot boundary is quiescent and retired in a batch, so the
/// slot ≡ event comparison covers long skips between heartbeats. 2
/// schedulers × 2 kernels × 2 decision paths = 8 journaled strict runs.
#[test]
fn equivalence_standby_heartbeats_are_interchangeable() {
    let standby = Scenario::paper_default()
        .duration_secs(3600)
        .trains(TrainAppSpec::paper_trio())
        .workload(CargoWorkload::new(Vec::new()))
        .bandwidth(BandwidthSource::Constant(450_000.0))
        .seed(1);
    let etrain = standby.scheduler_kind();
    assert_decision_paths_equivalent(
        "standby heartbeats",
        standby,
        &[SchedulerKind::Baseline, etrain],
    );
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
            theta: 50.0,
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

/// A deep queue at a low rate: one train with a 30-minute cycle leaves a
/// λ = 0.02 workload to pile up behind a high Θ, so each horizon covers
/// hundreds of slots and ends at a breach found by the search.
#[test]
fn equivalence_deep_queue_at_low_rate_is_interchangeable() {
    let deep = Scenario::paper_default()
        .duration_secs(7200)
        .trains(vec![TrainAppSpec::fixed("Sparse", 1800.0, 300, 900.0)])
        .lambda(0.02)
        .bandwidth(BandwidthSource::Constant(450_000.0))
        .seed(3);
    assert_decision_paths_equivalent("deep queue, λ 0.02", deep, &horizon_kinds());
}

/// Hand-placed packets (off the slot grid) and heartbeats for the Θ-edge
/// inputs below: no heartbeat departs before `first_heartbeat_s`, so the
/// queue only ages until Θ or that heartbeat releases something.
fn edge_scenario(first_heartbeat_s: f64) -> (Scenario, Vec<Packet>) {
    let packets: Vec<Packet> = [(3.25, 1), (17.5, 2), (40.125, 1), (77.75, 2), (130.375, 0)]
        .iter()
        .enumerate()
        .map(|(id, &(arrival_s, app))| Packet {
            id: id as u64,
            app: CargoAppId(app),
            arrival_s,
            size_bytes: 4_000,
        })
        .collect();
    let heartbeats: Vec<Heartbeat> = [first_heartbeat_s, 1500.0, 1790.0]
        .iter()
        .map(|&time_s| Heartbeat {
            train: TrainAppId(0),
            time_s,
            size_bytes: 300,
        })
        .collect();
    let scenario = Scenario::paper_default()
        .duration_secs(1800)
        .packets(packets.clone())
        .heartbeats(heartbeats)
        .bandwidth(BandwidthSource::Constant(450_000.0));
    (scenario, packets)
}

/// `P(t)` at the slot starting at `at_s`, over the packets that arrived
/// before it, as the scenario's eTrain would compute it.
fn reachable_sum(scenario: &Scenario, packets: &[Packet], at_s: f64) -> f64 {
    let config = ETrainConfig {
        theta: 1e18,
        k: None,
        slot_s: 1.0,
    };
    let mut etrain = ETrainScheduler::new(config, scenario.profiles_ref().to_vec());
    for p in packets.iter().filter(|p| p.arrival_s < at_s) {
        etrain.on_arrival(*p, p.arrival_s).expect("registered app");
    }
    etrain.total_cost(at_s)
}

/// Θ set to a sum the queue reaches exactly at one slot, and to the next
/// float above it: the first breach lands on that slot or right after it,
/// deep inside a horizon, and one slot of error either way shows.
#[test]
fn equivalence_theta_at_a_reachable_sum_is_interchangeable() {
    let (scenario, packets) = edge_scenario(1000.0);
    let at_s = 400.0;
    let sum = reachable_sum(&scenario, &packets, at_s);
    for theta in [sum, sum.next_up()] {
        let kind = SchedulerKind::ETrain { theta, k: Some(2) };
        let scenario = scenario.clone().scheduler(kind).obs(ObsMode::Off);
        let (_, output, _) = scenario
            .try_run_journaled_on(&scenario.generate_traces())
            .expect("valid scenario");
        let first_release = output
            .completed
            .iter()
            .map(|c| c.release_s)
            .fold(f64::INFINITY, f64::min);
        let expected = if theta == sum { at_s } else { at_s + 1.0 };
        assert_eq!(
            first_release, expected,
            "Θ = {theta} breaches at {expected}"
        );
        assert_decision_paths_equivalent(&format!("Θ = {theta}"), scenario, &[kind]);
    }
}

/// Θ first reached on a heartbeat-flagged slot, with the heartbeat at the
/// slot's start and inside it: the horizon must end right before it.
#[test]
fn equivalence_breach_on_a_heartbeat_slot_is_interchangeable() {
    for heartbeat_s in [600.0, 600.25] {
        let (scenario, packets) = edge_scenario(heartbeat_s);
        let theta = reachable_sum(&scenario, &packets, 600.0);
        let kinds = [
            SchedulerKind::ETrain { theta, k: Some(2) },
            SchedulerKind::Guarded {
                theta,
                k: Some(2),
                health: HealthConfig::default(),
                admission: AdmissionConfig::unbounded(),
            },
        ];
        assert_decision_paths_equivalent(
            &format!("breach on the heartbeat slot at {heartbeat_s}"),
            scenario,
            &kinds,
        );
    }
}

/// Deadlines off the slot grid (`0.9·d + 0.123456789`), so no kink of a
/// cost profile falls on a slot time, under transfer loss, a train death
/// window and an oracle alarm that demotes the guarded scheduler.
#[test]
fn equivalence_off_grid_deadlines_under_faults_are_interchangeable() {
    let off_grid = |d: f64| 0.9 * d + 0.123456789;
    let profiles = vec![
        AppProfile::new("Mail", CostProfile::mail(off_grid(300.0))),
        AppProfile::new("Weibo", CostProfile::weibo(off_grid(120.0))),
        AppProfile::new("Cloud", CostProfile::cloud(off_grid(600.0))),
    ];
    let faults = FaultPlan::seeded(11)
        .with_loss(0.2)
        .with_train_death(1800.0, 2100.0)
        .with_oracle_alarm(1234.5);
    let scenario = Scenario::paper_default()
        .duration_secs(3600)
        .profiles(profiles)
        .lambda(0.05)
        .faults(faults)
        .seed(9);
    let mut kinds = horizon_kinds();
    kinds.extend(conformance_kinds());
    assert_decision_paths_equivalent("off-grid deadlines under faults", scenario, &kinds);
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
