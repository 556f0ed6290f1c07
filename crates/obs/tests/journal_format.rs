//! Pins the `etrain-journal-v1` format: the encoding byte for byte, and
//! the field table's required and optional keys.
//!
//! `golden/journal_v1.jsonl` is written by hand from the format's field
//! table (DESIGN.md §14.4), not generated by the encoder. It holds a merged
//! journal with one record of each `Event` variant, spread over runs 0, 2
//! and 3 (run 1 is an empty part), with values chosen to exercise the
//! number formatter: integral floats, 17-significant-digit floats, the
//! smallest subnormal and the largest finite `f64`, and `u64::MAX` ids.
//! Any encoder must reproduce these bytes exactly.

use etrain_obs::{Event, EventRecord, Journal, RrcStateName};

const FIXTURE: &str = include_str!("golden/journal_v1.jsonl");

/// The journal the fixture encodes.
fn journal() -> Journal {
    let mut run0 = Journal::new();
    run0.push(
        0.0,
        Event::HeartbeatFired {
            size_bytes: u64::MAX,
        },
    );
    run0.push(
        20.0,
        Event::TailReuse {
            from_state: RrcStateName::Dch,
            size_bytes: 74,
        },
    );
    run0.push(
        1234.5678901234567,
        Event::PiggybackDecision {
            total_cost: 0.1 + 0.2,
            theta: 1e-7,
            heartbeat_departing: true,
            queued: 3,
            queued_bytes: u64::MAX,
            budget_k: None,
            released: 3,
        },
    );
    run0.push(
        1e15,
        Event::RrcTransition {
            from: RrcStateName::Dch,
            to: RrcStateName::Fach,
        },
    );

    let mut run2 = Journal::new();
    run2.push(
        5e-324,
        Event::Shed {
            packet_id: u64::MAX,
            app: 2,
        },
    );
    run2.push(
        2.0 / 3.0,
        Event::HealthTransition {
            from: "healthy".into(),
            to: "degraded".into(),
            cause: "watchdog: \"no heartbeat\"\t≥ 3 Θ".into(),
        },
    );
    run2.push(
        f64::MAX,
        Event::ForcedFlush {
            packet_id: 0,
            app: 0,
        },
    );

    let mut run3 = Journal::new();
    run3.push(
        1e21,
        Event::RetryAttempt {
            packet_id: u64::MAX,
            attempt: u32::MAX,
            abandoned: true,
        },
    );

    Journal::merge(vec![run0, Journal::new(), run2, run3])
}

#[test]
fn to_jsonl_reproduces_the_v1_fixture_byte_for_byte() {
    let journal = journal();
    assert_eq!(journal.counts_by_kind().len(), 8, "one record per kind");
    assert_eq!(journal.to_jsonl(), FIXTURE);
}

#[test]
fn v1_fixture_parses_back_to_the_same_records() {
    let parsed: Vec<EventRecord> = FIXTURE
        .lines()
        .map(|line| serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();
    assert_eq!(parsed, journal().records());
}

#[test]
fn v1_budget_k_may_be_omitted_and_reads_as_unbounded() {
    let line = FIXTURE
        .lines()
        .find(|line| line.contains("PiggybackDecision"))
        .expect("the fixture holds a decision");
    let omitted = line.replace("\"budget_k\":null,", "");
    assert_ne!(omitted, line);
    let record: EventRecord = serde_json::from_str(&omitted).unwrap();
    assert!(matches!(
        record.event,
        Event::PiggybackDecision { budget_k: None, .. }
    ));
}

#[test]
fn v1_record_missing_a_required_field_is_rejected() {
    let line = FIXTURE
        .lines()
        .find(|line| line.contains("RetryAttempt"))
        .expect("the fixture holds a retry");
    for field in ["\"run\":3,", "\"attempt\":4294967295,"] {
        let broken = line.replace(field, "");
        assert_ne!(broken, line, "{field}");
        assert!(
            serde_json::from_str::<EventRecord>(&broken).is_err(),
            "parsed without {field}"
        );
    }
}

#[test]
fn v1_non_finite_floats_encode_as_null() {
    let mut journal = Journal::new();
    journal.push(
        f64::NAN,
        Event::PiggybackDecision {
            total_cost: f64::INFINITY,
            theta: f64::NEG_INFINITY,
            heartbeat_departing: false,
            queued: 0,
            queued_bytes: 0,
            budget_k: Some(0),
            released: 0,
        },
    );
    assert_eq!(
        journal.to_jsonl(),
        "{\"run\":0,\"seq\":0,\"time_s\":null,\"event\":{\"PiggybackDecision\":\
         {\"total_cost\":null,\"theta\":null,\"heartbeat_departing\":false,\"queued\":0,\
         \"queued_bytes\":0,\"budget_k\":0,\"released\":0}}}\n"
    );
}
