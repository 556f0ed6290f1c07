//! Pins `Journal::to_jsonl`'s hand-written encoder to the serde rendering
//! of the same records: for random journals holding every `Event` variant,
//! the JSON Lines output equals `serde_json::to_string` of each record,
//! one per line.
//!
//! Floats are drawn from raw bit patterns and a list of edge values
//! (subnormals, `-0.0`, `f64::MAX`, NaN, ±∞, exact rounding ties, 2^53
//! and its neighbours, 1e21 and 1e300, 17-significant-digit values),
//! integers at 0, at random and at their `MAX`, strings from quotes,
//! backslashes, C0 controls and non-ASCII text, and RRC state names from
//! all three.
//!
//! A decision's tail (`theta` through `released`) is rendered once and
//! reused while it repeats, so one more test walks consecutive decisions
//! that change one tail field at a time.

use etrain_obs::{Event, EventRecord, Journal, RrcStateName};
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

fn state() -> impl Strategy<Value = RrcStateName> {
    prop_oneof![
        Just(RrcStateName::Idle),
        Just(RrcStateName::Fach),
        Just(RrcStateName::Dch),
    ]
}

/// One event of each variant, in declaration order.
fn every_variant() -> impl Strategy<Value = Vec<Event>> {
    let first = (
        u64_value().prop_map(|size_bytes| Event::HeartbeatFired { size_bytes }),
        (state(), u64_value()).prop_map(|(from_state, size_bytes)| Event::TailReuse {
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
        (state(), state()).prop_map(|(from, to)| Event::RrcTransition { from, to }),
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

/// A decision with the given tail and a `total_cost` of its own.
#[allow(clippy::too_many_arguments)]
fn decision(
    total_cost: f64,
    theta: f64,
    heartbeat_departing: bool,
    queued: usize,
    queued_bytes: u64,
    budget_k: Option<usize>,
    released: usize,
) -> Event {
    Event::PiggybackDecision {
        total_cost,
        theta,
        heartbeat_departing,
        queued,
        queued_bytes,
        budget_k,
        released,
    }
}

#[test]
fn a_reused_decision_tail_changes_with_each_of_its_fields() {
    // Each step changes exactly one tail field of the decision before it,
    // and repeats it once so the reused bytes are written too.
    let tails = [
        (0.2, false, 3, 900, Some(0), 0),
        (-0.0, false, 3, 900, Some(0), 0),
        (0.0, false, 3, 900, Some(0), 0),
        (f64::NAN, false, 3, 900, Some(0), 0),
        (0.2, false, 3, 900, Some(0), 0),
        (0.2, true, 3, 900, Some(0), 0),
        (0.2, false, 3, 900, Some(0), 0),
        (0.2, false, 4, 900, Some(0), 0),
        (0.2, false, 4, 1_200, Some(0), 0),
        (0.2, false, 4, 1_200, None, 0),
        (0.2, false, 4, 1_200, Some(20), 0),
        (0.2, false, 4, 1_200, Some(20), 4),
    ];
    let mut parts = Vec::new();
    for half in tails.chunks(6) {
        let mut part = Journal::new();
        for (i, &(theta, departing, queued, bytes, k, released)) in half.iter().enumerate() {
            for repeat in 0..2 {
                let time_s = (2 * i + repeat) as f64;
                part.push(
                    time_s,
                    decision(0.01 * time_s, theta, departing, queued, bytes, k, released),
                );
            }
        }
        parts.push(part);
    }
    // `merge` tags the second half with run 1 mid-stream.
    let merged = Journal::merge(parts);
    let text = merged.to_jsonl();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2 * tails.len());
    for (line, record) in lines.iter().zip(merged.records()) {
        assert_eq!(*line, serde_json::to_string(record).unwrap());
    }
    assert_eq!(merged.records()[12].run, 1);
    assert!(lines[2].contains(r#""theta":-0.0,"#), "{}", lines[2]);
    assert!(lines[4].contains(r#""theta":0.0,"#), "{}", lines[4]);
    assert!(lines[6].contains(r#""theta":null,"#), "{}", lines[6]);

    // A decision after another event still takes its tail from the last
    // decision.
    let mut journal = Journal::new();
    journal.push(1.0, decision(0.5, 0.2, false, 1, 10, Some(0), 0));
    journal.push(1.0, Event::HeartbeatFired { size_bytes: 74 });
    journal.push(2.0, decision(0.7, 0.2, false, 1, 10, Some(0), 0));
    journal.push(3.0, decision(0.9, 0.2, true, 1, 10, None, 1));
    let expected: Vec<String> = journal
        .records()
        .iter()
        .map(|r: &EventRecord| serde_json::to_string(r).unwrap() + "\n")
        .collect();
    assert_eq!(journal.to_jsonl(), expected.concat());
}
