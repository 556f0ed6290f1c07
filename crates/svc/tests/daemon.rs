//! Process-level crash tests of `etrain-svcd`: the one harness that
//! kills the real daemon.
//!
//! Each test spawns the binary cargo builds for this crate, drives it
//! over the TCP line protocol with the seeded script of
//! [`etrain_svc::script`], crashes it, restarts it against the same WAL
//! directory, and compares the recovered fingerprint with a never-killed
//! in-process [`ServiceState`] fed the same commands. The crashes are
//! SIGKILLs between acked commands; mid-append faults armed through
//! `ETRAIN_WAL_FAULT` (a torn frame, a short header, a flipped checksum),
//! after which the daemon dies unacked and recovery must truncate the
//! damage; and a SIGKILL of a restart that is still recovering. Every
//! seed and kill point is fixed here: the harness reads no environment.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use etrain_core::CoreConfig;
use etrain_svc::script::script;
use etrain_svc::{
    AppendFault, DurableService, ServiceState, SvcError, SvcHealthConfig, WalConfig, WalFault,
    FAULT_EXIT_CODE, WAL_ENV, WAL_FAULT_ENV,
};

fn tmp_dir(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "etrain-daemon-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The daemon on `wal_dir`, bound to a free port, with its stdout piped
/// and the fault hook armed with `fault` or cleared.
fn daemon_command(wal_dir: &Path, fault: Option<&str>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_etrain-svcd"));
    cmd.env(WAL_ENV, wal_dir)
        .env("ETRAIN_SVC_ADDR", "127.0.0.1:0")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    match fault {
        Some(spec) => cmd.env(WAL_FAULT_ENV, spec),
        None => cmd.env_remove(WAL_FAULT_ENV),
    };
    cmd
}

/// A running daemon plus one protocol connection to it.
struct Daemon {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    recovered_line: String,
}

impl Daemon {
    /// Starts the daemon and connects once it prints `READY`.
    fn spawn(wal_dir: &Path, fault: Option<&str>) -> Daemon {
        let mut child = daemon_command(wal_dir, fault)
            .spawn()
            .expect("spawn etrain-svcd");
        let stdout = child.stdout.take().expect("captured stdout");
        let mut lines = BufReader::new(stdout);
        let mut recovered_line = String::new();
        lines
            .read_line(&mut recovered_line)
            .expect("RECOVERED line");
        assert!(
            recovered_line.starts_with("RECOVERED "),
            "unexpected first line: {recovered_line:?}"
        );
        let mut ready = String::new();
        lines.read_line(&mut ready).expect("READY line");
        let addr = ready
            .trim()
            .strip_prefix("READY ")
            .unwrap_or_else(|| panic!("unexpected second line: {ready:?}"))
            .to_string();
        let writer = TcpStream::connect(&addr).expect("connect to daemon");
        writer
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Daemon {
            child,
            reader,
            writer,
            recovered_line: recovered_line.trim().to_string(),
        }
    }

    /// Sends one request line and waits for the acknowledging response.
    fn roundtrip(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        response.trim().to_string()
    }

    /// Sends a request expected to kill the daemon (armed fault hook):
    /// the connection drops without a response.
    fn send_expecting_crash(&mut self, line: &str) {
        let _ = self.writer.write_all(format!("{line}\n").as_bytes());
        let mut response = String::new();
        // EOF or reset either way: the daemon died before answering.
        let got = self.reader.read_line(&mut response).unwrap_or(0);
        assert_eq!(got, 0, "daemon answered {response:?} instead of crashing");
    }

    fn fingerprint(&mut self) -> u64 {
        let response = self.roundtrip("FPRINT");
        let hex = response
            .strip_prefix("OK FPRINT ")
            .unwrap_or_else(|| panic!("unexpected FPRINT response: {response}"));
        u64::from_str_radix(hex, 16).expect("fingerprint hex")
    }

    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL daemon");
        let _ = self.child.wait();
    }

    fn wait_exit_code(mut self) -> i32 {
        let status = self.child.wait().expect("wait for daemon");
        status.code().unwrap_or(-1)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn reference() -> ServiceState {
    ServiceState::new(CoreConfig::default(), SvcHealthConfig::default())
}

#[test]
fn daemon_survives_seeded_kills_bit_for_bit() {
    let steps = script(17, 52);
    let wal_dir = tmp_dir("kills");
    let mut reference = reference();
    let mut applied = 0usize;
    let mut daemon = Daemon::spawn(&wal_dir, None);
    // Seven SIGKILLs spread evenly over the 52 seeded steps, each right
    // after the ack of step `k·52/8` arrives.
    for kill_no in 1..=7 {
        let kill_at = kill_no * 52 / 8;
        while applied < kill_at {
            let step = &steps[applied];
            let response = daemon.roundtrip(&step.line);
            assert!(
                response.starts_with("OK") || response.starts_with("ERR core rejected"),
                "step {applied} ({}) -> {response}",
                step.line
            );
            let _ = reference.apply(&step.command);
            applied += 1;
        }
        let live_fp = daemon.fingerprint();
        assert_eq!(
            live_fp,
            reference.fingerprint(),
            "kill {kill_no}: live daemon diverged from reference at step {applied}"
        );
        daemon.sigkill();

        daemon = Daemon::spawn(&wal_dir, None);
        assert_eq!(
            daemon.fingerprint(),
            reference.fingerprint(),
            "kill {kill_no}: recovered daemon diverged from reference at step {applied}"
        );
    }
    // Finish the script after the last restart and compare once more.
    while applied < steps.len() {
        let step = &steps[applied];
        let _ = daemon.roundtrip(&step.line);
        let _ = reference.apply(&step.command);
        applied += 1;
    }
    assert_eq!(daemon.fingerprint(), reference.fingerprint());
    daemon.sigkill();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn duplicate_submit_after_kill_is_not_double_applied() {
    let wal_dir = tmp_dir("dup");
    let mut daemon = Daemon::spawn(&wal_dir, None);
    assert_eq!(daemon.roundtrip("REGTRAIN WeChat"), "OK TRAIN 0");
    assert_eq!(daemon.roundtrip("REGCARGO Mail mail 300"), "OK CARGO 0");
    assert_eq!(
        daemon.roundtrip("SUBMIT once 0 up 4096 1.0"),
        "OK SUBMITTED 0"
    );
    daemon.sigkill();

    // The ack arrived before the kill, so the submit is durable: the
    // retry must be answered from the recovered dedup table, not
    // admitted a second time.
    let mut daemon = Daemon::spawn(&wal_dir, None);
    assert_eq!(
        daemon.roundtrip("SUBMIT once 0 up 4096 2.0"),
        "OK DUP SUBMITTED 0"
    );
    let stats = daemon.roundtrip("STATS");
    assert!(
        stats.contains("\"submitted\":1") || stats.contains("\"submitted\": 1"),
        "exactly one admission expected: {stats}"
    );
    daemon.sigkill();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn armed_fault_hook_tears_tail_and_recovery_truncates() {
    let wal_dir = tmp_dir("fault");
    // Records: 0 REGTRAIN, 1 REGCARGO, 2 first SUBMIT; the fault fires
    // on record 3 — the second SUBMIT's append is torn mid-payload and
    // the daemon must die with the dedicated exit code.
    let mut daemon = Daemon::spawn(&wal_dir, Some("torn@3"));
    assert_eq!(daemon.roundtrip("REGTRAIN WeChat"), "OK TRAIN 0");
    assert_eq!(daemon.roundtrip("REGCARGO Mail mail 300"), "OK CARGO 0");
    assert_eq!(daemon.roundtrip("SUBMIT a 0 up 1000 1.0"), "OK SUBMITTED 0");
    daemon.send_expecting_crash("SUBMIT b 0 up 2000 2.0");
    assert_eq!(daemon.wait_exit_code(), FAULT_EXIT_CODE);

    // Restart without the fault: recovery truncates the torn frame and
    // keeps the three acked records.
    let mut daemon = Daemon::spawn(&wal_dir, None);
    let recovered = daemon.recovered_line.clone();
    assert!(
        recovered.contains("records=3") && !recovered.contains("truncated_bytes=0"),
        "expected 3 records and a truncated tail: {recovered}"
    );
    // The torn submit was never acked and never applied; resending it
    // is a fresh admission, not a duplicate.
    assert_eq!(daemon.roundtrip("SUBMIT b 0 up 2000 2.0"), "OK SUBMITTED 1");
    daemon.sigkill();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Arms `kind@at_record` on a fresh journal and sends seeded script
/// steps until the hook fires. Records and script steps are 1:1, so the
/// first `at_record` steps are acked and the next one dies mid-append,
/// unacked. A clean restart must truncate the damage, recover exactly the
/// acked prefix, and take the faulted command afresh when it is resent.
fn mid_append_fault_recovers_the_acked_prefix(kind: &str, at_record: usize, seed: u64) {
    let steps = script(seed, at_record);
    let spec = format!("{kind}@{at_record}");
    let wal_dir = tmp_dir(kind);
    let mut reference = reference();
    let mut daemon = Daemon::spawn(&wal_dir, Some(&spec));
    for step in &steps[..at_record] {
        let response = daemon.roundtrip(&step.line);
        assert!(
            response.starts_with("OK") || response.starts_with("ERR core rejected"),
            "{spec}: {} -> {response}",
            step.line
        );
        let _ = reference.apply(&step.command);
    }
    let faulted = &steps[at_record];
    daemon.send_expecting_crash(&faulted.line);
    assert_eq!(daemon.wait_exit_code(), FAULT_EXIT_CODE, "{spec}");

    let mut daemon = Daemon::spawn(&wal_dir, None);
    let recovered = daemon.recovered_line.clone();
    assert!(
        recovered.contains(&format!("records={at_record} "))
            && !recovered.contains("truncated_bytes=0"),
        "{spec}: expected {at_record} records and a truncated tail: {recovered}"
    );
    assert_eq!(daemon.fingerprint(), reference.fingerprint(), "{spec}");
    let response = daemon.roundtrip(&faulted.line);
    if faulted.line.starts_with("SUBMIT ") {
        assert!(
            response.starts_with("OK SUBMITTED"),
            "{spec}: the unacked submit was a fresh admission, not {response}"
        );
    }
    let _ = reference.apply(&faulted.command);
    assert_eq!(daemon.fingerprint(), reference.fingerprint(), "{spec}");
    daemon.sigkill();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn a_torn_payload_at_record_5_recovers_the_acked_prefix() {
    mid_append_fault_recovers_the_acked_prefix("torn", 5, 17);
}

#[test]
fn a_short_header_at_record_7_recovers_the_acked_prefix() {
    mid_append_fault_recovers_the_acked_prefix("short", 7, 18);
}

#[test]
fn a_flipped_checksum_at_record_9_recovers_the_acked_prefix() {
    mid_append_fault_recovers_the_acked_prefix("crc", 9, 19);
}

/// Copies the files of `from` into a fresh directory `to`.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("copy directory");
    for entry in std::fs::read_dir(from).expect("journal directory") {
        let entry = entry.expect("directory entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy segment");
    }
}

#[test]
fn a_kill_during_recovery_restarts_to_the_reference() {
    // 12,000 steps journaled in process, in 64 KiB segments, the last one
    // torn by the fault hook: a restart spends several milliseconds
    // scanning and replaying them, then truncates the torn tail.
    let steps = script(17, 12_000);
    let (torn, acked) = steps.split_last().expect("a non-empty script");
    let wal_dir = tmp_dir("recovery-kill");
    let mut wal = WalConfig::new(&wal_dir);
    wal.fsync = false;
    wal.segment_bytes = 64 * 1024;
    wal.fault = Some(WalFault {
        at_record: acked.len() as u64,
        kind: AppendFault::TornPayload,
    });
    let (mut service, _) =
        DurableService::open(wal, CoreConfig::default(), SvcHealthConfig::default())
            .expect("journal opens");
    for step in acked {
        let _ = service.apply(step.command.clone());
    }
    let reference_fingerprint = service.fingerprint();
    assert!(matches!(
        service.apply(torn.command.clone()),
        Err(SvcError::FaultInjected { .. })
    ));
    drop(service);

    // Time a restart on a copy, so the kill lands before `READY` whatever
    // the build's speed, then SIGKILL a restart of the original at 37.9%
    // of that time.
    let copy = tmp_dir("recovery-kill-copy");
    copy_dir(&wal_dir, &copy);
    let started = Instant::now();
    Daemon::spawn(&copy, None).sigkill();
    let delay = started.elapsed().mul_f64(0.379);
    let _ = std::fs::remove_dir_all(&copy);

    let mut child = daemon_command(&wal_dir, None)
        .spawn()
        .expect("spawn etrain-svcd");
    std::thread::sleep(delay);
    child.kill().expect("SIGKILL daemon");
    let _ = child.wait();
    let mut printed = String::new();
    let _ = child
        .stdout
        .take()
        .expect("captured stdout")
        .read_to_string(&mut printed);
    let landed = if printed.contains("READY ") {
        "after READY"
    } else if printed.contains("RECOVERED ") {
        "after RECOVERED"
    } else {
        "during recovery"
    };

    // Wherever the kill landed, a clean restart reaches the state before
    // the torn record.
    let mut daemon = Daemon::spawn(&wal_dir, None);
    assert_eq!(
        daemon.fingerprint(),
        reference_fingerprint,
        "killed {landed}, {:.1} ms into a restart",
        delay.as_secs_f64() * 1000.0
    );
    daemon.sigkill();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn invalid_env_knobs_exit_2() {
    for (key, value) in [
        ("ETRAIN_SVC_ADDR", "not-an-addr"),
        (WAL_FAULT_ENV, "maybe@later"),
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_etrain-svcd"))
            .env(WAL_ENV, tmp_dir("env"))
            .env("ETRAIN_SVC_ADDR", "127.0.0.1:0")
            .env(key, value)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("run etrain-svcd");
        assert_eq!(status.code(), Some(2), "{key}={value}");
    }
}
