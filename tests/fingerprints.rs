//! Pins the persisted FNV-1a fingerprints to literal values.
//!
//! Two digests outlive the process that computes them: the core and
//! service states in WAL checkpoints. A checkpoint written by one build
//! must verify under the next, so any change to how these values are
//! hashed is a format break. The test builds fixed states and asserts
//! their fingerprints equal the values the current format produces.

use etrain::core::{CoreCommand, CoreConfig, ETrainCore, TransmitRequest};
use etrain::sched::{AppProfile, CostProfile};
use etrain::svc::{ServiceState, SvcCommand, SvcHealthConfig};
use etrain::trace::{CargoAppId, TrainAppId};

fn config() -> CoreConfig {
    CoreConfig {
        theta: 5.0,
        ..CoreConfig::default()
    }
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
