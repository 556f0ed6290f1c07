//! Pins the reply bytes of every line-protocol verb.
//!
//! Each row is one request line and the exact reply the daemon sends
//! for it, newline excluded. The rows run in order against one service,
//! so later replies (the verdicts, `DRAIN`, the fingerprints) depend on
//! everything before them. The values were captured when the table was
//! written; a reply that changes here changes what every client parses.

use std::path::PathBuf;
use std::sync::Mutex;

use etrain_core::{AdmissionConfig, CoreConfig, ShedPolicy};
use etrain_svc::{execute_line, DurableService, SvcHealthConfig, WalConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "etrain-protocol-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `rows` in order against a fresh service over `core`, checking
/// each reply.
fn check(tag: &str, core: CoreConfig, rows: &[(&str, &str)]) {
    let dir = tmp_dir(tag);
    let mut wal = WalConfig::new(&dir);
    wal.fsync = false;
    let (service, _) =
        DurableService::open(wal, core, SvcHealthConfig::default()).expect("journal opens");
    let service = Mutex::new(service);
    for (line, expected) in rows {
        assert_eq!(execute_line(line, &service), *expected, "{line}");
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_verb_replies_with_its_pinned_bytes() {
    // The daemon's own configuration: Θ = 0.2, k = ∞, unbounded queues.
    check(
        "verbs",
        CoreConfig::default(),
        &[
            ("PING", "OK PONG"),
            ("REGTRAIN WeChat", "OK TRAIN 0"),
            ("REGCARGO Mail mail 300", "OK CARGO 0"),
            ("REGCARGO Weibo weibo 120", "OK CARGO 1"),
            ("HB 0 0", "OK DECISIONS 0"),
            ("SUBMIT c-1 0 up 5000 5", "OK SUBMITTED 0"),
            ("SUBMIT c-1 0 up 5000 6", "OK DUP SUBMITTED 0"),
            ("SUBMIT c-2 1 down 800 6", "OK SUBMITTED 1"),
            ("SUBMIT c-3 0 up 100 7 20", "OK SUBMITTED 2"),
            ("SUBMIT c-4 0 up 300 8", "OK SUBMITTED 3"),
            ("TICK 9", "OK DECISIONS 0"),
            ("CANCEL 3", "OK CANCELLED true"),
            ("CANCEL 3", "OK CANCELLED false"),
            ("TICK 26", "OK DECISIONS 1 2@0:100"),
            ("HB 0 270", "OK DECISIONS 2 0@0:5000 1@1:800"),
            ("REPORT 0 ok 271", "OK VERDICT DELIVERED"),
            ("REPORT 1 fail 271", "OK VERDICT RETRY 272.9366903615183"),
            ("REPORT 2 fail 272", "OK VERDICT ABANDONED"),
            ("DRAIN", "OK DECISIONS 1 1@1:800"),
            ("STATS", "OK STATS {\"submitted\":4,\"decided\":4,\"piggybacked\":2,\"cancelled\":1,\"heartbeats\":2,\"delivered\":1,\"retries\":1,\"abandoned\":1,\"watchdog_flushes\":0,\"shed\":0,\"forced_flushes\":0}"),
            ("HEALTH", "OK HEALTH healthy transitions=0 records=17"),
            ("FPRINT", "OK FPRINT 419d3509a8a919f8"),
            ("CHECKPOINT", "OK CHECKPOINT records=17 fingerprint=419d3509a8a919f8"),
        ],
    );
}

#[test]
fn every_shed_reply_is_pinned() {
    for (policy, second) in [
        (ShedPolicy::RejectNew, "OK REJECTED"),
        (ShedPolicy::DropLowestValue, "OK SUBMITTED 1 EVICTED 0"),
        (ShedPolicy::ForceFlushOldest, "OK SUBMITTED 1 FLUSHED 0"),
    ] {
        let core = CoreConfig {
            admission: AdmissionConfig::unbounded()
                .with_global_capacity(1)
                .with_policy(policy),
            ..CoreConfig::default()
        };
        check(
            "shed",
            core,
            &[
                ("REGTRAIN WeChat", "OK TRAIN 0"),
                ("REGCARGO Mail mail 300", "OK CARGO 0"),
                ("SUBMIT c-1 0 up 100 1", "OK SUBMITTED 0"),
                ("SUBMIT c-2 0 up 200 2", second),
            ],
        );
    }
}

/// Opens a fresh service over `CoreConfig::default()` and returns it
/// with its journal directory.
fn open(tag: &str) -> (Mutex<DurableService>, PathBuf) {
    let dir = tmp_dir(tag);
    let mut wal = WalConfig::new(&dir);
    wal.fsync = false;
    let (service, _) = DurableService::open(wal, CoreConfig::default(), SvcHealthConfig::default())
        .expect("journal opens");
    (Mutex::new(service), dir)
}

/// The `records=` count from a `HEALTH` reply.
fn records(service: &Mutex<DurableService>) -> String {
    let health = execute_line("HEALTH", service);
    health
        .rsplit_once("records=")
        .map(|(_, n)| n.to_string())
        .unwrap_or(health)
}

#[test]
fn every_malformed_line_names_its_fault() {
    // Each row pins the whole reply after `ERR bad request: `.
    let (service, dir) = open("malformed");
    for (line, message) in [
        ("", "empty request"),
        ("NONSENSE", "unrecognized request \"NONSENSE\""),
        ("REGTRAIN", "unrecognized request \"REGTRAIN\""),
        ("REGTRAIN a b", "unrecognized request \"REGTRAIN a b\""),
        (
            "REGCARGO X granite 30",
            "unknown profile \"granite\" (expected mail, weibo, or cloud)",
        ),
        ("REGCARGO X mail soon", "deadline \"soon\" is not a number"),
        (
            "SUBMIT a b up 1 2",
            "app \"b\" is not a non-negative integer",
        ),
        (
            "SUBMIT a 0 sideways 1 2",
            "unknown direction \"sideways\" (expected up or down)",
        ),
        (
            "SUBMIT a 0 up -1 2",
            "size \"-1\" is not a non-negative integer",
        ),
        ("SUBMIT a 0 up 1 soon", "time \"soon\" is not a number"),
        (
            "SUBMIT a 0 up 1 2 soon",
            "deadline \"soon\" is not a number",
        ),
        (
            "SUBMIT a 0 up 1 2 3 4",
            "unrecognized request \"SUBMIT a 0 up 1 2 3 4\"",
        ),
        ("HB x 1", "train \"x\" is not a non-negative integer"),
        ("HB 0 soon", "time \"soon\" is not a number"),
        ("TICK soon", "time \"soon\" is not a number"),
        (
            "REPORT x ok 1",
            "request \"x\" is not a non-negative integer",
        ),
        (
            "REPORT 0 maybe 1",
            "unknown result \"maybe\" (expected ok or fail)",
        ),
        ("CANCEL -1", "request \"-1\" is not a non-negative integer"),
    ] {
        assert_eq!(
            execute_line(line, &service),
            format!("ERR bad request: {message}"),
            "{line:?}"
        );
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_line_touches_neither_the_journal_nor_the_state() {
    let (service, dir) = open("untouched");
    let before = (records(&service), execute_line("FPRINT", &service));
    for line in [
        "NONSENSE",
        "REGCARGO X granite 30",
        "SUBMIT a 0 sideways 1 2",
        "HB 0 soon",
        "REPORT 0 maybe 1",
        "CANCEL -1",
    ] {
        assert!(execute_line(line, &service).starts_with("ERR "), "{line}");
    }
    assert_eq!(before.0, "0");
    assert_eq!(
        (records(&service), execute_line("FPRINT", &service)),
        before
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verbs_that_take_no_arguments_refuse_them() {
    let (service, dir) = open("nullary");
    for line in [
        "PING now",
        "STATS x",
        "HEALTH 1",
        "FPRINT x",
        "CHECKPOINT 1",
        "DRAIN 1",
    ] {
        assert_eq!(
            execute_line(line, &service),
            format!("ERR bad request: unrecognized request {line:?}")
        );
    }
    assert_eq!(records(&service), "0");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cargo_deadline_must_be_finite_and_positive() {
    let (service, dir) = open("deadline");
    for deadline in ["0", "-0", "-3", "inf", "-inf", "NaN"] {
        assert_eq!(
            execute_line(&format!("REGCARGO X mail {deadline}"), &service),
            format!("ERR bad request: deadline {deadline:?} must be positive")
        );
    }
    assert_eq!(execute_line("REGCARGO X mail 1e-3", &service), "OK CARGO 0");
    assert_eq!(records(&service), "1");
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verbs_and_keywords_ignore_case_and_extra_spaces() {
    check(
        "case",
        CoreConfig::default(),
        &[
            ("ping", "OK PONG"),
            ("regtrain QQ", "OK TRAIN 0"),
            ("RegCargo Mail MAIL 300", "OK CARGO 0"),
            ("submit c-1 0 UP 10 1", "OK SUBMITTED 0"),
            ("  SUBMIT   c-2 0   Down 7 2  ", "OK SUBMITTED 1"),
            ("hb 0 3", "OK DECISIONS 2 0@0:10 1@0:7"),
            ("report 0 OK 4", "OK VERDICT DELIVERED"),
            ("Report 1 FAIL 4", "OK VERDICT RETRY 5.936690361518277"),
        ],
    );
}

#[test]
fn a_resubmitted_client_id_answers_its_first_admission() {
    // The retry's body differs from the first SUBMIT; only the first one
    // is queued, and the retry adds nothing to the counters.
    check(
        "dup",
        CoreConfig::default(),
        &[
            ("REGTRAIN WeChat", "OK TRAIN 0"),
            ("REGCARGO Mail mail 300", "OK CARGO 0"),
            ("SUBMIT c-1 0 up 10 1", "OK SUBMITTED 0"),
            ("SUBMIT c-1 0 down 99 2 50", "OK DUP SUBMITTED 0"),
            ("HB 0 3", "OK DECISIONS 1 0@0:10"),
            ("SUBMIT c-1 0 up 10 4", "OK DUP SUBMITTED 0"),
            ("DRAIN", "OK DECISIONS 0"),
            ("STATS", "OK STATS {\"submitted\":1,\"decided\":1,\"piggybacked\":1,\"cancelled\":0,\"heartbeats\":1,\"delivered\":0,\"retries\":0,\"abandoned\":0,\"watchdog_flushes\":0,\"shed\":0,\"forced_flushes\":0}"),
        ],
    );
}

#[test]
fn core_rejections_are_journaled_and_replay_to_the_same_state() {
    let (service, dir) = open("rejected");
    for (line, expected) in [
        (
            "HB 9 1",
            "ERR core rejected command: train app train#9 is not registered",
        ),
        (
            "SUBMIT c-1 4 up 10 1",
            "ERR core rejected command: cargo app cargo#4 is not registered",
        ),
        (
            "REPORT 5 ok 1",
            "ERR core rejected command: request req#5 is not awaiting a transmission result",
        ),
        ("CANCEL 7", "OK CANCELLED false"),
        ("REGTRAIN WeChat", "OK TRAIN 0"),
        ("HB 0 10", "OK DECISIONS 0"),
        (
            "TICK 5",
            "ERR core rejected command: time went backwards: system is at 10 s, got 5 s",
        ),
    ] {
        assert_eq!(execute_line(line, &service), expected, "{line}");
    }
    // Every row reached the core, so every row is a record.
    assert_eq!(records(&service), "7");
    let live = execute_line("FPRINT", &service);
    drop(service);

    let mut wal = WalConfig::new(&dir);
    wal.fsync = false;
    let (reopened, report) =
        DurableService::open(wal, CoreConfig::default(), SvcHealthConfig::default())
            .expect("journal reopens");
    assert_eq!((report.replayed, report.replay_errors), (7, 4));
    let reopened = Mutex::new(reopened);
    assert_eq!(execute_line("FPRINT", &reopened), live);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
