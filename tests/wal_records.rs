//! Properties of the daemon's hand-written WAL record reader.
//!
//! A restart decodes most records with `etrain_svc::decode_canonical`
//! and sends the rest to `serde_json::from_str`. That split must be
//! invisible: whatever the reader returns, serde returns too, and it must
//! take every per-request command back from its own serialized bytes.
//! Damage (truncation, flipped bits, replaced bytes) must never make the
//! two disagree.

use etrain::core::{CoreCommand, Direction, RequestId, TransmitRequest, TxResult};
use etrain::sched::{AppProfile, CostProfile};
use etrain::svc::{decode_canonical, SvcCommand};
use etrain::trace::{CargoAppId, TrainAppId};
use proptest::prelude::*;

fn arb_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(f64::from_bits),
        (0u64..1 << 53).prop_map(|n| n as f64),
        (0u64..1_000_000_000).prop_map(|ms| ms as f64 / 1000.0),
        prop_oneof![
            Just(0.1),
            Just(1e-7),
            Just(-0.0),
            Just(123_456.789),
            Just(9_007_199_254_740_994.0),
            Just(f64::NAN),
            Just(f64::NEG_INFINITY),
        ],
    ]
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..=u64::MAX, 0u64..1_000]
}

/// Client ids and names drawn from plain, escaped, control and
/// multi-byte characters.
fn arb_text() -> impl Strategy<Value = String> {
    const CHARS: [char; 16] = [
        'a', 'Z', '0', '-', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é',
        '雪', '🚂',
    ];
    prop::collection::vec(0usize..CHARS.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

fn arb_request() -> impl Strategy<Value = TransmitRequest> {
    (
        arb_u64(),
        prop::bool::weighted(0.5),
        prop_oneof![Just(None), arb_time().prop_map(Some)],
    )
        .prop_map(|(size_bytes, up, deadline_s)| TransmitRequest {
            size_bytes,
            direction: if up {
                Direction::Upload
            } else {
                Direction::Download
            },
            deadline_s,
        })
}

fn arb_core() -> impl Strategy<Value = CoreCommand> {
    prop_oneof![
        arb_text().prop_map(|name| CoreCommand::RegisterTrain { name }),
        (arb_text(), 1.0f64..1_000.0).prop_map(|(name, deadline)| {
            CoreCommand::RegisterCargo {
                profile: AppProfile::new(name, CostProfile::weibo(deadline)),
            }
        }),
        (0usize..=usize::MAX, arb_request(), arb_time()).prop_map(|(app, request, now_s)| {
            CoreCommand::Submit {
                app: CargoAppId(app),
                request,
                now_s,
            }
        }),
        (0usize..=usize::MAX, arb_time()).prop_map(|(train, now_s)| CoreCommand::Heartbeat {
            train: TrainAppId(train),
            now_s,
        }),
        arb_time().prop_map(|now_s| CoreCommand::Tick { now_s }),
        (arb_u64(), prop::bool::weighted(0.5), arb_time()).prop_map(|(request, ok, now_s)| {
            CoreCommand::ReportResult {
                request: RequestId(request),
                result: if ok {
                    TxResult::Delivered
                } else {
                    TxResult::Failed
                },
                now_s,
            }
        }),
        arb_u64().prop_map(|request| CoreCommand::Cancel {
            request: RequestId(request),
        }),
        arb_u64().prop_map(|request| CoreCommand::CancelBackoff {
            request: RequestId(request),
        }),
        Just(CoreCommand::Drain),
    ]
}

fn arb_command() -> impl Strategy<Value = SvcCommand> {
    prop_oneof![
        arb_core().prop_map(SvcCommand::Core),
        (arb_text(), 0usize..=usize::MAX, arb_request(), arb_time()).prop_map(
            |(client_id, app, request, now_s)| SvcCommand::SubmitIdem {
                client_id,
                app: CargoAppId(app),
                request,
                now_s,
            }
        ),
    ]
}

/// What the serde shim makes of `bytes`, as recovery would ask it.
fn serde_decode(bytes: &[u8]) -> Option<SvcCommand> {
    serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()
}

/// Whether every time and deadline in `command` survives JSON, which
/// spells `inf` and `NaN` as `null`.
fn times_are_finite(command: &SvcCommand) -> bool {
    let (now_s, request) = match command {
        SvcCommand::SubmitIdem { request, now_s, .. }
        | SvcCommand::Core(CoreCommand::Submit { request, now_s, .. }) => {
            (Some(*now_s), Some(*request))
        }
        SvcCommand::Core(core) => (core.time_s(), None),
    };
    now_s.is_none_or(f64::is_finite)
        && request
            .and_then(|r| r.deadline_s)
            .is_none_or(f64::is_finite)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    #[test]
    fn the_reader_agrees_with_serde_or_declines(
        command in arb_command(),
        cut in 0usize..512,
        at in 0usize..512,
        byte in 0u8..=255,
    ) {
        let json = serde_json::to_string(&command).unwrap();
        let bytes = json.as_bytes();
        let fast = decode_canonical(bytes);
        if fast.is_some() {
            prop_assert_eq!(&fast, &serde_decode(bytes), "{}", json);
        }
        let registration = matches!(
            command.kind(),
            "register_train" | "register_cargo"
        );
        if !registration && times_are_finite(&command) {
            prop_assert_eq!(fast.as_ref(), Some(&command), "{}", json);
        }

        let truncated = &bytes[..cut.min(bytes.len())];
        if let Some(fast) = decode_canonical(truncated) {
            prop_assert_eq!(Some(fast), serde_decode(truncated));
        }
        for mutated in [
            {
                let mut m = bytes.to_vec();
                let i = at % m.len();
                m[i] = byte;
                m
            },
            {
                let mut m = bytes.to_vec();
                let i = at % m.len();
                m[i] ^= 1 << (byte % 8);
                m
            },
            {
                let mut m = bytes.to_vec();
                m.insert(at % (m.len() + 1), byte);
                m
            },
            {
                let mut m = bytes.to_vec();
                m.remove(at % m.len());
                m
            },
        ] {
            if let Some(fast) = decode_canonical(&mutated) {
                prop_assert_eq!(
                    Some(fast),
                    serde_decode(&mutated),
                    "{}",
                    String::from_utf8_lossy(&mutated)
                );
            }
        }
    }
}
