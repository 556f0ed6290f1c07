//! Pins `Journal::to_jsonl`'s hand-written encoder to the serde rendering
//! of the same records: for random journals holding every `Event` variant,
//! the JSON Lines output equals `serde_json::to_string` of each record,
//! one per line.
//!
//! Floats are drawn from raw bit patterns and a list of edge values
//! (subnormals, `-0.0`, `f64::MAX`, NaN, ±∞, exact rounding ties, 2^53
//! and its neighbours, 1e21 and 1e300, 17-significant-digit values),
//! integers at 0, at random and at their `MAX`, and strings from quotes,
//! backslashes, C0 controls and non-ASCII text.

use etrain_obs::{Event, Journal};
use proptest::prelude::*;

fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(f64::from_bits),
        // Subnormals of either sign.
        (1u64..1 << 52, prop::bool::weighted(0.5))
            .prop_map(|(bits, negative)| f64::from_bits(bits | u64::from(negative) << 63)),
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::MAX),
            Just(f64::MIN),
            Just(f64::MIN_POSITIVE),
            Just(5e-324),
            // Exact ties between two shortest candidates, which round up:
            // 1658206780088562.25 and 233115890514796.125.
            Just(f64::from_bits(0x4317_9085_685d_83c9)),
            Just(f64::from_bits(0x42ea_8090_bb0f_6d84)),
            // 2^53 and the floats one ulp either side of it.
            Just(9_007_199_254_740_991.0),
            Just(9_007_199_254_740_992.0),
            Just(9_007_199_254_740_994.0),
            // Large powers of ten, which never take exponent form.
            Just(1e21),
            Just(1e300),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
        ],
        // Everyday magnitudes, mostly 16 or 17 significant digits.
        0.0f64..1e6,
        // Integral values of either sign, which print with an added `.0`,
        // up to and including ±2^53.
        (-(1i64 << 53)..=1 << 53).prop_map(|n| n as f64),
    ]
}

fn u64_value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), 0..=u64::MAX, Just(u64::MAX)]
}

fn usize_value() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0), 0..=usize::MAX, Just(usize::MAX)]
}

fn u32_value() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), 0..=u32::MAX, Just(u32::MAX)]
}

fn text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        Just('"'),
        Just('\\'),
        (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        prop_oneof![
            Just('\u{7f}'),
            Just('é'),
            Just('Θ'),
            Just('≥'),
            Just('\u{2028}'),
            Just('😀'),
        ],
    ];
    prop::collection::vec(ch, 0..12).prop_map(|chars| chars.into_iter().collect())
}

/// One event of each variant, in declaration order.
fn every_variant() -> impl Strategy<Value = Vec<Event>> {
    let first = (
        u64_value().prop_map(|size_bytes| Event::HeartbeatFired { size_bytes }),
        (text(), u64_value()).prop_map(|(from_state, size_bytes)| Event::TailReuse {
            from_state,
            size_bytes,
        }),
        (
            (float(), float(), prop::bool::weighted(0.5)),
            (usize_value(), u64_value()),
            (prop::bool::weighted(0.5), usize_value(), usize_value()),
        )
            .prop_map(
                |(
                    (total_cost, theta, heartbeat_departing),
                    (queued, queued_bytes),
                    (bounded, k, released),
                )| Event::PiggybackDecision {
                    total_cost,
                    theta,
                    heartbeat_departing,
                    queued,
                    queued_bytes,
                    budget_k: bounded.then_some(k),
                    released,
                },
            ),
        (text(), text()).prop_map(|(from, to)| Event::RrcTransition { from, to }),
    );
    let second = (
        (u64_value(), usize_value()).prop_map(|(packet_id, app)| Event::Shed { packet_id, app }),
        (u64_value(), usize_value())
            .prop_map(|(packet_id, app)| Event::ForcedFlush { packet_id, app }),
        (text(), text(), text()).prop_map(|(from, to, cause)| Event::HealthTransition {
            from,
            to,
            cause,
        }),
        (u64_value(), u32_value(), prop::bool::weighted(0.5)).prop_map(
            |(packet_id, attempt, abandoned)| Event::RetryAttempt {
                packet_id,
                attempt,
                abandoned,
            },
        ),
    );
    (first, second).prop_map(|((a, b, c, d), (e, f, g, h))| vec![a, b, c, d, e, f, g, h])
}

/// The serde rendering of `journal`: each record through
/// `serde_json::to_string`, each line ended by `\n`.
fn serde_rendering(journal: &Journal) -> String {
    journal
        .records()
        .iter()
        .map(|record| serde_json::to_string(record).unwrap() + "\n")
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_record_encodes_as_its_serde_rendering(
        events in every_variant(),
        times in prop::collection::vec(float(), 8),
    ) {
        let mut journal = Journal::new();
        for (time_s, event) in times.into_iter().zip(events) {
            journal.push(time_s, event);
        }
        prop_assert_eq!(journal.to_jsonl(), serde_rendering(&journal));
    }

    #[test]
    fn merged_journals_encode_as_their_serde_rendering(
        parts in prop::collection::vec(
            (every_variant(), prop::collection::vec(0.0f64..1e6, 8), 0usize..=8),
            1..6,
        ),
    ) {
        // `merge` sorts each part by time, so times here are finite.
        let parts = parts
            .into_iter()
            .map(|(events, times, keep)| {
                let mut part = Journal::new();
                for (time_s, event) in times.into_iter().zip(events).take(keep) {
                    part.push(time_s, event);
                }
                part
            })
            .collect();
        let merged = Journal::merge(parts);
        prop_assert_eq!(merged.to_jsonl(), serde_rendering(&merged));
    }
}

#[test]
fn every_control_character_escapes_as_serde_does() {
    let cause: String = (0u32..0x20).filter_map(char::from_u32).collect();
    let mut journal = Journal::new();
    journal.push(
        1.0,
        Event::HealthTransition {
            from: "\"quoted\" \\ back".into(),
            to: "Θ ≥ 3 é 😀 \u{7f}".into(),
            cause,
        },
    );
    assert_eq!(journal.to_jsonl(), serde_rendering(&journal));
}
