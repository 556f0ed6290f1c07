//! Pins the persisted FNV-1a fingerprints to literal values.
//!
//! Three digests outlive the process that computes them: the engine state
//! in an `EngineSnapshot`, and the core and service states in WAL
//! checkpoints. A checkpoint written by one build must verify under the
//! next, so any change to how these values are hashed is a format break. Each test builds a fixed state and asserts
//! its fingerprint equals the value the current format produces.

use etrain::core::{CoreCommand, CoreConfig, ETrainCore, TransmitRequest};
use etrain::radio::RadioParams;
use etrain::sched::{AppProfile, CostProfile, RetryPolicy};
use etrain::sim::{Engine, EngineKind, Scenario, SchedulerKind};
use etrain::svc::{ServiceState, SvcCommand, SvcHealthConfig};
use etrain::trace::faults::FaultPlan;
use etrain::trace::{CargoAppId, TrainAppId};

fn config() -> CoreConfig {
    CoreConfig {
        theta: 5.0,
        ..CoreConfig::default()
    }
}

#[test]
fn engine_snapshot_fingerprint_is_pinned() {
    let scenario = Scenario::paper_default().duration_secs(1800).seed(7);
    let traces = scenario.generate_traces();
    let radio = RadioParams::galaxy_s4_3g();
    let faults = FaultPlan::none();
    let retry = RetryPolicy::default();
    let fingerprint_after = |kind: EngineKind, steps: usize| {
        let mut scheduler = SchedulerKind::ETrain {
            theta: 2.0,
            k: None,
        }
        .build(scenario.profiles_ref().to_vec());
        let mut engine = Engine::new(
            scheduler.as_mut(),
            &traces.packets,
            &traces.heartbeats,
            &traces.bandwidth,
            &radio,
            1800.0,
            &faults,
            &retry,
            None,
        )
        .with_kind(kind);
        for _ in 0..steps {
            engine.step();
        }
        engine.snapshot().fingerprint
    };
    assert_eq!(
        fingerprint_after(EngineKind::Event, 0),
        0x68e3_4791_1698_e1a4
    );
    assert_eq!(
        fingerprint_after(EngineKind::Event, 40),
        0xcd9b_bc85_cd21_4f3c
    );
    assert_eq!(
        fingerprint_after(EngineKind::Slot, 40),
        0x35d9_2218_c0e4_a4f2
    );
}

#[test]
fn core_and_service_fingerprints_are_pinned() {
    let mut core = ETrainCore::new(config());
    assert_eq!(core.fingerprint(), 0x2fc9_94cd_b43a_9fab);
    core.register_train("WeChat");
    core.register_cargo(AppProfile::new("Mail", CostProfile::mail(300.0)));
    core.submit(CargoAppId(0), TransmitRequest::upload(4_000), 1.0)
        .unwrap();
    core.submit(CargoAppId(0), TransmitRequest::upload(9_000), 2.5)
        .unwrap();
    core.on_heartbeat(TrainAppId(0), 3.0).unwrap();
    assert_eq!(core.fingerprint(), 0x7eba_4138_36f5_b96c);

    let mut state = ServiceState::new(config(), SvcHealthConfig::default());
    assert_eq!(state.fingerprint(), 0xa21e_cd12_ce1b_6502);
    for command in [
        SvcCommand::Core(CoreCommand::RegisterTrain {
            name: "WeChat".into(),
        }),
        SvcCommand::Core(CoreCommand::RegisterCargo {
            profile: AppProfile::new("Mail", CostProfile::mail(300.0)),
        }),
        SvcCommand::SubmitIdem {
            client_id: "c-1".into(),
            app: CargoAppId(0),
            request: TransmitRequest::upload(4_000),
            now_s: 1.0,
        },
        SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(0),
            now_s: 2.0,
        }),
    ] {
        state.apply(&command).unwrap();
    }
    assert_eq!(state.fingerprint(), 0x7acf_8ac4_0a56_2f6f);
}
