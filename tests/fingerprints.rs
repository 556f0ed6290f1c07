//! Pins the persisted FNV-1a fingerprints to literal values.
//!
//! Two digests outlive the process that computes them: the core and
//! service states in WAL checkpoints. A checkpoint written by one build
//! must verify under the next, so any change to how these values are
//! hashed is a format break. The tests build fixed states and assert
//! their fingerprints equal the values the format produced when pinned,
//! and check that the hand-written JSON writers the per-request sections
//! hash write exactly the serde shim's bytes.

use etrain::core::{
    json, Admission, AdmissionConfig, CoreCommand, CoreConfig, ETrainCore, RequestId, ShedPolicy,
    TransmitDecision, TransmitRequest, TxResult,
};
use etrain::sched::{AppProfile, CostProfile, HealthState};
use etrain::svc::{ServiceState, SvcCommand, SvcHealthConfig, SvcOutcome};
use etrain::trace::packets::Packet;
use etrain::trace::{CargoAppId, TrainAppId};
use etrain_obs::json::push_u64_or_null;
use proptest::prelude::*;

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

/// The three bounded-admission policies, each over a queue of 2.
fn bounded(policy: ShedPolicy) -> CoreConfig {
    CoreConfig {
        theta: 5.0,
        admission: AdmissionConfig::unbounded()
            .with_global_capacity(2)
            .with_policy(policy),
        ..CoreConfig::default()
    }
}

fn idem(client_id: &str, app: usize, request: TransmitRequest, now_s: f64) -> SvcCommand {
    SvcCommand::SubmitIdem {
        client_id: client_id.into(),
        app: CargoAppId(app),
        request,
        now_s,
    }
}

fn report(request: u64, now_s: f64) -> SvcCommand {
    SvcCommand::Core(CoreCommand::ReportResult {
        request: RequestId(request),
        result: TxResult::Failed,
        now_s,
    })
}

/// A script that walks every per-request section of the fingerprint: a
/// queue overflow under the bounded policy, a per-request deadline,
/// piggybacked decisions awaiting their results, failed reports that
/// leave backoffs and attempt counts and demote the health rung, a
/// decision stashed while every train is dead, and timestamps that are
/// not whole (`1e-7`, `0.1`, `123456.789`, `2^53 + 2`).
fn per_request_script() -> Vec<SvcCommand> {
    let beyond_2_53 = 9_007_199_254_740_994.0;
    vec![
        SvcCommand::Core(CoreCommand::RegisterTrain {
            name: "WeChat".into(),
        }),
        SvcCommand::Core(CoreCommand::RegisterCargo {
            profile: AppProfile::new("Mail", CostProfile::mail(300.0)),
        }),
        SvcCommand::Core(CoreCommand::RegisterCargo {
            profile: AppProfile::new("Weibo", CostProfile::weibo(120.0)),
        }),
        idem(
            "c-1",
            0,
            TransmitRequest::upload(4_000).with_deadline(250.5),
            1e-7,
        ),
        idem("c-\"2\\", 1, TransmitRequest::download(9_000), 0.1),
        idem("c-3\u{e9}", 0, TransmitRequest::upload(1), 0.1),
        SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(0),
            now_s: 0.1,
        }),
        report(0, 0.2),
        report(1, 0.3),
        report(2, 0.4),
        SvcCommand::Core(CoreCommand::Submit {
            app: CargoAppId(1),
            request: TransmitRequest::upload(700).with_deadline(1e-7),
            now_s: 1.5,
        }),
        idem("c-4", 0, TransmitRequest::upload(333), 123_456.789),
        SvcCommand::Core(CoreCommand::Tick { now_s: 123_456.789 }),
        idem("c-5", 1, TransmitRequest::upload(5), beyond_2_53),
        SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(0),
            now_s: beyond_2_53,
        }),
        report(3, beyond_2_53),
    ]
}

/// What one step of [`per_request_script`] left behind.
#[derive(Debug, Default, Clone, Copy)]
struct Reached {
    evicted: bool,
    flushed: bool,
    rejected: bool,
    stashed: bool,
    backing_off: bool,
    degraded: bool,
}

fn run_per_request_script(policy: ShedPolicy) -> (Vec<u64>, Reached) {
    let mut state = ServiceState::new(bounded(policy), SvcHealthConfig::default());
    let mut reached = Reached::default();
    let mut prints = Vec::new();
    for command in per_request_script() {
        let (pending, decided) = (
            state.core().pending_requests(),
            state.core().stats().decided,
        );
        if let Ok(SvcOutcome::Submitted { admission }) = state.apply(&command) {
            // A submission released on arrival is decided at once and goes
            // straight to the awaiting set, through the stash.
            reached.stashed |= state.core().pending_requests() == pending
                && state.core().stats().decided == decided + 1;
            match admission {
                Admission::AdmittedWithEviction { .. } => reached.evicted = true,
                Admission::AdmittedWithFlush { .. } => reached.flushed = true,
                Admission::Rejected => reached.rejected = true,
                Admission::Admitted { .. } => {}
            }
        }
        // A scheduled retry waits out its backoff first.
        reached.backing_off |= state.core().stats().retries > 0;
        reached.degraded |= state.health() != HealthState::Healthy;
        prints.push(state.fingerprint());
    }
    (prints, reached)
}

/// Service fingerprints after every step of [`per_request_script`], per
/// shed policy, as the format produced them when first pinned.
const PER_REQUEST_PINS: [(ShedPolicy, [u64; 16]); 3] = [
    (
        ShedPolicy::DropLowestValue,
        [
            0x3e97_d4d9_a5db_9e21,
            0x2012_2bbf_1e65_f583,
            0xea63_00fc_792e_f9bf,
            0x8ab9_5e54_1558_2709,
            0xbe01_b0ea_d083_9e80,
            0x032a_ca4a_8cbd_30fc,
            0xbb84_79ca_24fb_ddf6,
            0x63a0_3d33_bc4f_0667,
            0x43c9_f0de_9381_4094,
            0xfa12_29cf_ea65_4325,
            0xb1d6_cd9b_a593_755d,
            0x3773_a40c_9a84_2bbe,
            0x45f5_f359_6a94_c236,
            0x22d6_32da_6026_ac1c,
            0x5b57_9ac5_7d34_68b5,
            0x01fc_0531_6cc7_b141,
        ],
    ),
    (
        ShedPolicy::ForceFlushOldest,
        [
            0x75da_90e4_0845_e6d9,
            0x39fb_8519_1711_8468,
            0x11ab_ffa4_0103_51d1,
            0xca3f_7da5_dbda_7cad,
            0x304f_e038_429c_82ef,
            0x2260_e049_a6ff_3084,
            0xdb86_e7e6_ffdd_3cb7,
            0x1fa1_a12c_da98_1400,
            0xb471_9bb5_a42f_5580,
            0x0c68_94ce_fa72_e15d,
            0xa956_9739_2d34_7700,
            0x23cb_8586_120d_e5b4,
            0x48b1_ac2b_01a2_aa03,
            0x1b68_bda2_1edc_1900,
            0x99b9_2b47_5e09_2089,
            0x2b1f_5b5a_8787_2c38,
        ],
    ),
    (
        ShedPolicy::RejectNew,
        [
            0xd0d6_d11f_28f4_cdb0,
            0xf40a_b5f7_30b1_c320,
            0xfe74_f34c_c03f_4365,
            0xbb03_ee3f_d0be_94b9,
            0x0bff_6e34_5ff1_1620,
            0xb488_0d04_bda7_27ad,
            0x3137_38e8_23e7_9dbc,
            0xc75b_4ea3_5b77_5004,
            0x0ed5_abef_2f6b_e4d3,
            0xb21c_aa2a_ef16_9353,
            0x2d36_2189_8e22_70de,
            0x8306_f521_d663_bb42,
            0x3525_075f_5c3e_2ffa,
            0x149c_bd14_9003_ff1c,
            0x3c23_04de_0f6d_8039,
            0x4673_d7e9_ca06_d4f6,
        ],
    ),
];

#[test]
fn every_per_request_section_is_pinned() {
    let mut actual = Vec::new();
    for (policy, _) in PER_REQUEST_PINS {
        let (prints, reached) = run_per_request_script(policy);
        match policy {
            ShedPolicy::DropLowestValue => assert!(reached.evicted, "{reached:?}"),
            ShedPolicy::ForceFlushOldest => assert!(reached.flushed, "{reached:?}"),
            ShedPolicy::RejectNew => assert!(reached.rejected, "{reached:?}"),
        }
        assert!(
            reached.stashed && reached.backing_off && reached.degraded,
            "{policy}: {reached:?}"
        );
        actual.push((policy, prints));
    }
    let table: Vec<String> = actual
        .iter()
        .map(|(policy, prints)| {
            let hex: Vec<String> = prints.iter().map(|p| format!("0x{p:016x}")).collect();
            format!("({policy:?}, [{}])", hex.join(", "))
        })
        .collect();
    for ((policy, want), (_, got)) in PER_REQUEST_PINS.iter().zip(&actual) {
        assert_eq!(
            &want[..],
            &got[..],
            "{policy}; actual table:\n{}",
            table.join(",\n")
        );
    }
}

/// Any `f64` bit pattern, with the values persisted times take weighted
/// in: whole seconds, milliseconds, and the awkward ones.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(f64::from_bits),
        (0u64..1 << 53).prop_map(|n| n as f64),
        (0u64..1_000_000_000).prop_map(|ms| ms as f64 / 1000.0),
        prop_oneof![
            Just(0.1),
            Just(1e-7),
            Just(-0.0),
            Just(9_007_199_254_740_994.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
        ],
    ]
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..=u64::MAX, 0u64..1_000]
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), arb_u64().prop_map(Some)]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (arb_u64(), 0usize..=usize::MAX, arb_f64(), arb_u64()).prop_map(
        |(id, app, arrival_s, size_bytes)| Packet {
            id,
            app: CargoAppId(app),
            arrival_s,
            size_bytes,
        },
    )
}

fn arb_decision() -> impl Strategy<Value = TransmitDecision> {
    (
        arb_u64(),
        0usize..64,
        arb_u64(),
        arb_f64(),
        arb_f64(),
        prop_oneof![Just(None), (0usize..=usize::MAX).prop_map(Some)],
    )
        .prop_map(
            |(request, app, size_bytes, decided_at_s, submitted_at_s, train)| TransmitDecision {
                request: RequestId(request),
                app: CargoAppId(app),
                size_bytes,
                decided_at_s,
                submitted_at_s,
                piggybacked_on: train.map(TrainAppId),
            },
        )
}

fn arb_admission() -> impl Strategy<Value = Admission> {
    prop_oneof![
        arb_u64().prop_map(|id| Admission::Admitted { id: RequestId(id) }),
        (arb_u64(), arb_u64()).prop_map(|(id, evicted)| Admission::AdmittedWithEviction {
            id: RequestId(id),
            evicted: RequestId(evicted),
        }),
        (arb_u64(), arb_decision()).prop_map(|(id, flushed)| Admission::AdmittedWithFlush {
            id: RequestId(id),
            flushed,
        }),
        Just(Admission::Rejected),
    ]
}

fn written(write: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    write(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// The fingerprints hash these writers' bytes where they used to hash
    /// `serde_json::to_string`'s; the two must never differ.
    #[test]
    fn fingerprint_writers_write_what_serde_writes(
        admission in arb_admission(),
        packet in arb_packet(),
        id in arb_u64(),
        maybe in arb_opt_u64(),
    ) {
        prop_assert_eq!(
            written(|out| json::write_admission(out, &admission)),
            serde_json::to_string(&admission).unwrap()
        );
        prop_assert_eq!(
            written(|out| json::write_packet(out, &packet)),
            serde_json::to_string(&packet).unwrap()
        );
        prop_assert_eq!(
            written(|out| json::write_request_id(out, RequestId(id))),
            serde_json::to_string(&RequestId(id)).unwrap()
        );
        prop_assert_eq!(
            written(|out| push_u64_or_null(out, maybe)),
            serde_json::to_string(&maybe).unwrap()
        );
    }
}
