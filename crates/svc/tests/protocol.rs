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
