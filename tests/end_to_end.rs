//! Cross-crate integration tests: trace generation → scheduling →
//! transmission engine → radio energy accounting → metrics.

use etrain::apps::{replay, CargoAppModel};
use etrain::core::{CoreConfig, TransmitRequest};
use etrain::radio::RadioParams;
use etrain::sched::{AppProfile, CostProfile};
use etrain::sim::{BandwidthSource, RunGrid, Scenario, SchedulerKind};
use etrain::trace::heartbeats::TrainAppSpec;
use etrain::trace::packets::CargoWorkload;
use etrain::trace::user::{generate_app_use, Activeness};

#[test]
fn paper_default_pipeline_produces_consistent_report() {
    let report = Scenario::paper_default()
        .duration_secs(3600)
        .scheduler(SchedulerKind::ETrain {
            theta: 1.0,
            k: None,
        })
        .seed(3)
        .run();

    // Energy identities.
    assert!(report.extra_energy_j > 0.0);
    assert!(
        (report.extra_energy_j - report.transmission_energy_j - report.tail_energy_j).abs() < 1e-9
    );
    assert!((report.total_energy_j - report.extra_energy_j - report.idle_energy_j).abs() < 1e-9);
    // One hour of the paper trio: 12 (QQ) + 14 (WeChat) + 15 (WhatsApp).
    assert_eq!(report.heartbeats_sent, 41);
    // Metrics sanity.
    assert!(report.deadline_violation_ratio >= 0.0 && report.deadline_violation_ratio <= 1.0);
    assert!(report.normalized_delay_s >= 0.0);
    assert!(report.busy_time_s > 0.0 && report.busy_time_s < 3600.0);
    // Per-app reports cover all completed packets.
    let per_app_total: usize = report.per_app.iter().map(|a| a.packets).sum();
    assert_eq!(per_app_total, report.packets_completed);
}

#[test]
fn etrain_beats_baseline_on_every_seed() {
    for seed in 0..5 {
        let base = Scenario::paper_default().duration_secs(2400).seed(seed);
        let baseline = base.clone().scheduler(SchedulerKind::Baseline).run();
        let etrain = base
            .scheduler(SchedulerKind::ETrain {
                theta: 2.0,
                k: None,
            })
            .run();
        assert!(
            etrain.extra_energy_j < baseline.extra_energy_j,
            "seed {seed}: eTrain {} J vs baseline {} J",
            etrain.extra_energy_j,
            baseline.extra_energy_j
        );
    }
}

#[test]
fn heartbeat_energy_matches_radio_model() {
    // One lone QQ app in standby: every heartbeat pays one full tail plus
    // its (tiny) transmission energy.
    let report = Scenario::paper_default()
        .duration_secs(3600)
        .trains(vec![TrainAppSpec::qq()])
        .workload(CargoWorkload::new(Vec::new()))
        .bandwidth(BandwidthSource::Constant(450_000.0))
        .scheduler(SchedulerKind::Baseline)
        .seed(0)
        .run();
    let full_tail = RadioParams::galaxy_s4_3g().full_tail_energy_j();
    assert_eq!(report.heartbeats_sent, 12);
    assert!((report.tail_energy_j - 12.0 * full_tail).abs() < 0.5);
    assert!(report.transmission_energy_j < 1.0);
}

#[test]
fn reports_are_bitwise_reproducible() {
    let make = || {
        Scenario::paper_default()
            .duration_secs(1800)
            .scheduler(SchedulerKind::PerEs { omega: 0.3 })
            .seed(11)
            .run()
    };
    assert_eq!(make(), make());
}

#[test]
fn generated_traces_fed_back_as_overrides_reproduce_the_run() {
    // A scenario's own packets and heartbeats, handed back through the
    // trace overrides, must give the very report of the run that
    // generates them, for every scheduler and on the synthetic channel.
    let base = Scenario::paper_default().duration_secs(1800).seed(5);
    let traces = base.generate_traces();
    let kinds = [
        SchedulerKind::Baseline,
        SchedulerKind::ETrain {
            theta: 1.0,
            k: None,
        },
        SchedulerKind::ETrain {
            theta: 0.2,
            k: Some(20),
        },
        SchedulerKind::PerEs { omega: 0.5 },
        SchedulerKind::ETime { v_bytes: 20_000.0 },
    ];
    for kind in kinds {
        let generated = base.clone().scheduler(kind).run();
        let replayed = base
            .clone()
            .scheduler(kind)
            .packets(traces.packets.to_vec())
            .heartbeats(traces.heartbeats.to_vec())
            .run();
        assert!(generated.packets_completed > 0, "{kind}");
        assert_eq!(generated, replayed, "{kind}");
    }
}

#[test]
fn a_scheduler_comparison_runs_every_contender_on_one_workload() {
    // The paper's Sec. VI-C comparison: the same packets, heartbeats and
    // channel for every contender; only the scheduler differs.
    let base = Scenario::paper_default().duration_secs(1800).seed(7);
    let kinds = [
        SchedulerKind::Baseline,
        SchedulerKind::ETrain {
            theta: 2.0,
            k: None,
        },
        SchedulerKind::PerEs { omega: 0.5 },
        SchedulerKind::ETime { v_bytes: 20_000.0 },
    ];
    let reports = RunGrid::over_schedulers(&base, &kinds).try_run().unwrap();
    let names: Vec<&str> = reports.iter().map(|r| r.scheduler.as_str()).collect();
    assert_eq!(names, ["Baseline", "eTrain", "PerES", "eTime"]);
    let baseline = &reports[0];
    for report in &reports[1..] {
        assert_eq!(report.heartbeats_sent, baseline.heartbeats_sent);
        assert_eq!(
            report.packets_completed + report.packets_unfinished,
            baseline.packets_completed + baseline.packets_unfinished,
            "{}",
            report.scheduler
        );
        assert!(
            report.extra_energy_j < baseline.extra_energy_j,
            "{} spent {} J, the baseline {} J",
            report.scheduler,
            report.extra_energy_j,
            baseline.extra_energy_j
        );
    }
}

#[test]
fn trace_overrides_take_the_place_of_the_seeded_traces() {
    // Another seed's packets and heartbeats, handed to a scenario, replace
    // what its own seed would generate: the run equals the other seed's.
    let on_seed = |seed| {
        Scenario::paper_default()
            .duration_secs(1200)
            .bandwidth(BandwidthSource::Constant(500_000.0))
            .seed(seed)
    };
    let donor = on_seed(5).generate_traces();
    let borrowed = on_seed(6)
        .packets(donor.packets.to_vec())
        .heartbeats(donor.heartbeats.to_vec())
        .run();
    assert_eq!(borrowed, on_seed(5).run());
    assert_ne!(borrowed, on_seed(6).run());
}

#[test]
fn umbrella_crate_reexports_compose() {
    // The umbrella crate's modules interoperate without importing the
    // underlying crates directly.
    let params = etrain::radio::RadioParams::galaxy_s4_3g();
    let profile = etrain::sched::AppProfile::new("X", etrain::sched::CostProfile::weibo(60.0));
    let mut core = etrain::core::ETrainCore::new(etrain::core::CoreConfig::default());
    let app = core.register_cargo(profile);
    let _train = core.register_train("QQ");
    let id = core
        .submit(app, etrain::core::TransmitRequest::upload(100), 0.0)
        .expect("registered")
        .id()
        .expect("unbounded admission admits");
    assert_eq!(id, etrain::core::RequestId(0));
    assert!(params.tail_time_s() > 0.0);
}

#[test]
fn degenerate_empty_workload_is_well_defined_under_strict_oracle() {
    // A device with no cargo and no trains spends the whole horizon idle.
    // Every ratio metric must degrade to exactly 0.0 (never NaN), and the
    // run must satisfy the simulation oracle's invariants end to end.
    let report = Scenario::paper_default()
        .oracle(etrain::sim::OracleMode::Strict)
        .duration_secs(900)
        .packets(vec![])
        .heartbeats(vec![])
        .try_run()
        .expect("empty workload is a valid degenerate scenario");
    assert_eq!(report.packets_completed, 0);
    assert_eq!(report.heartbeats_sent, 0);
    assert_eq!(report.extra_energy_j, 0.0);
    assert_eq!(report.busy_time_s, 0.0);
    assert_eq!(report.tail_fraction(), 0.0);
    assert_eq!(report.abandonment_ratio, 0.0);
    assert_eq!(report.normalized_delay_s, 0.0);
    assert_eq!(report.deadline_violation_ratio, 0.0);
    // Only the idle baseline remains.
    assert!((report.total_energy_j - report.idle_energy_j).abs() < 1e-12);
    let outcome = report.oracle.expect("strict mode attaches the audit");
    assert!(outcome.is_clean());
    assert!(outcome.checks > 0);
}

#[test]
fn without_cargo_every_scheduler_spends_the_same_energy() {
    let base = Scenario::paper_default()
        .duration_secs(3600)
        .packets(Vec::new())
        .seed(3);
    let baseline = base.clone().scheduler(SchedulerKind::Baseline).run();
    let etrain = base
        .scheduler(SchedulerKind::ETrain {
            theta: 1.0,
            k: None,
        })
        .run();
    assert_eq!(etrain.total_energy_j, baseline.total_energy_j);
    assert_eq!(etrain.heartbeats_sent, baseline.heartbeats_sent);
}

/// Kill-mid-submit crash consistency on the durable service: a run is
/// killed cold right after a submit is acknowledged (drop without
/// checkpoint or drain — the WAL's crash model), restarted, and the
/// journal replay must bring back every admitted request exactly once:
/// nothing lost, nothing double-applied.
#[test]
fn durable_service_survives_kill_mid_submit_without_loss_or_double_apply() {
    use etrain::core::CommandOutcome;
    use etrain::core::CoreCommand;
    use etrain::svc::{DurableService, SvcCommand, SvcHealthConfig, SvcOutcome, WalConfig};
    use etrain::trace::{CargoAppId, TrainAppId};

    let dir = std::env::temp_dir().join(format!("etrain-live-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = WalConfig::new(&dir);
    cfg.fsync = false;

    let core_cfg = CoreConfig {
        theta: 1e6, // only heartbeats release
        ..CoreConfig::default()
    };
    let (mut service, _) =
        DurableService::open(cfg.clone(), core_cfg, SvcHealthConfig::default()).unwrap();
    service
        .apply(SvcCommand::Core(CoreCommand::RegisterTrain {
            name: "QQ".into(),
        }))
        .unwrap();
    service
        .apply(SvcCommand::Core(CoreCommand::RegisterCargo {
            profile: AppProfile::new("Mail", CostProfile::mail(300.0)),
        }))
        .unwrap();
    let submit = |now_s| SvcCommand::SubmitIdem {
        client_id: "req-1".to_string(),
        app: CargoAppId(0),
        request: TransmitRequest::upload(4_096),
        now_s,
    };
    let admitted = service.apply(submit(1.0)).unwrap();
    let id = match admitted {
        SvcOutcome::Submitted { admission } => admission.id().expect("admitted"),
        other => panic!("expected a fresh submission, got {other:?}"),
    };
    // The kill: the submit is journaled and acked, nothing else is —
    // no checkpoint, no drain.
    drop(service);

    let (mut service, recovery) =
        DurableService::open(cfg, core_cfg, SvcHealthConfig::default()).unwrap();
    assert_eq!(recovery.replayed, 3);
    assert_eq!(recovery.replay_errors, 0);

    // Not lost: the pending request rides the next heartbeat.
    let outcome = service
        .apply(SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(0),
            now_s: 2.0,
        }))
        .unwrap();
    let decisions = match outcome {
        SvcOutcome::Core(CommandOutcome::Decisions { decisions }) => decisions,
        other => panic!("expected decisions, got {other:?}"),
    };
    assert_eq!(decisions.len(), 1, "the admitted request must survive");
    assert_eq!(decisions[0].request, id);

    // Not double-applied: the client's retry of the acked submit is a
    // duplicate answered from the recovered dedup table, and exactly
    // one admission is on the books.
    let retry = service.apply(submit(3.0)).unwrap();
    assert!(
        matches!(retry, SvcOutcome::Duplicate { admission } if admission.id() == Some(id)),
        "retry must dedup to the original admission"
    );
    assert_eq!(service.state().stats().submitted, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_pipeline_through_live_core_matches_counts() {
    // The apps-crate replay drives the same deterministic core the
    // daemon serves; verify the full pipeline on a real trace.
    let trace = generate_app_use(3, Activeness::Active, 21).normalized_to(600.0);
    let outcome = replay::replay_through_core(
        &trace,
        &CargoAppModel::weibo().with_deadline(30.0),
        &TrainAppSpec::paper_trio(),
        CoreConfig {
            theta: 20.0,
            k: Some(20),
            slot_s: 1.0,
            startup_grace_s: 600.0,
            ..CoreConfig::default()
        },
    )
    .expect("a generated trace starts at 0 s");
    assert_eq!(outcome.undelivered, 0);
    assert_eq!(outcome.decisions.len(), trace.upload_count());
    // Decisions must respect causality.
    for d in &outcome.decisions {
        assert!(d.delay_s() >= 0.0);
    }
    // Deep batching: a large share rides heartbeats at Θ = 20.
    assert!(outcome.piggyback_ratio > 0.3, "{}", outcome.piggyback_ratio);
}

#[test]
fn both_replay_paths_see_the_same_uploads() {
    // The core replay and the simulator conversion of one user trace must
    // carry the same uploads: the core decides each once, and the packet
    // trace holds each once, with the same sizes.
    let trace = generate_app_use(5, Activeness::Moderate, 8).normalized_to(600.0);
    let outcome = replay::replay_through_core(
        &trace,
        &CargoAppModel::weibo(),
        &TrainAppSpec::paper_trio(),
        CoreConfig::default(),
    )
    .expect("a generated trace starts at 0 s");
    let mut decided: Vec<u64> = outcome.decisions.iter().map(|d| d.size_bytes).collect();
    let mut converted: Vec<u64> = replay::to_packets(&trace, etrain::trace::CargoAppId(0))
        .iter()
        .map(|p| p.size_bytes)
        .collect();
    decided.sort_unstable();
    converted.sort_unstable();
    assert!(!converted.is_empty());
    assert_eq!(decided, converted);
}
