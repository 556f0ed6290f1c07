//! Process-level crash tests of `etrain-svcd`: the one harness that
//! kills the real daemon.
//!
//! Each test spawns the binary cargo builds for this crate, drives it
//! over the TCP line protocol with the seeded script of
//! [`etrain_svc::script`], crashes it, restarts it against the same WAL
//! directory, and compares the recovered fingerprint with a never-killed
//! in-process [`ServiceState`] fed the same commands. The crashes are
//! SIGKILLs between acked commands; SIGKILLs mid-append, made on disk by
//! appending the unacked command's damaged frame (a torn payload, a short
//! header, a flipped checksum) to the journal of a killed daemon, which
//! recovery must truncate; a SIGKILL of a restart that is still
//! recovering; and a real append failing under a file size limit, after
//! which the daemon refuses to journal until it is restarted. Every seed
//! and kill point is fixed here: the harness reads no environment.

use std::fs::OpenOptions;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use etrain_core::{CoreConfig, TransmitRequest};
use etrain_svc::script::script;
use etrain_svc::{
    write_frame, DurableService, ServiceState, SvcCommand, SvcHealthConfig, WalConfig,
    FRAME_HEADER_BYTES,
};
use etrain_trace::CargoAppId;

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

/// The daemon on `wal_dir`, bound to a free port, with its stdout piped.
fn daemon_command(wal_dir: &Path) -> Command {
    daemon_env(Command::new(env!("CARGO_BIN_EXE_etrain-svcd")), wal_dir)
}

/// `cmd`, which runs the daemon, set up as [`daemon_command`] describes.
fn daemon_env(mut cmd: Command, wal_dir: &Path) -> Command {
    cmd.env("ETRAIN_WAL", wal_dir)
        .env("ETRAIN_SVC_ADDR", "127.0.0.1:0")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    cmd
}

/// The daemon on `wal_dir` run through `sh -c`, after `setup` has set the
/// shell's limits and signal dispositions, which the daemon inherits.
fn daemon_under(setup: &str, wal_dir: &Path) -> Command {
    let mut shell = Command::new("sh");
    shell.args([
        "-c",
        &format!("{setup}; exec \"$0\""),
        env!("CARGO_BIN_EXE_etrain-svcd"),
    ]);
    daemon_env(shell, wal_dir)
}

/// What a crash mid-append leaves of a command's frame.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// The header and the first half of the payload (rounded down).
    TornPayload,
    /// The first 4 header bytes, the length field, alone.
    ShortHeader,
    /// The whole frame with its checksum bitwise inverted.
    FlipChecksum,
}

/// Appends `command`'s frame with `damage` done to it to the last segment
/// in `wal_dir`: the journal of a daemon killed while appending `command`.
fn damage_last_segment(wal_dir: &Path, command: &SvcCommand, damage: Damage) {
    let payload = serde_json::to_string(command).expect("a command serializes");
    let mut frame = Vec::new();
    write_frame(&mut frame, payload.as_bytes()).expect("a Vec takes every write");
    match damage {
        Damage::TornPayload => frame.truncate(FRAME_HEADER_BYTES + payload.len() / 2),
        Damage::ShortHeader => frame.truncate(4),
        Damage::FlipChecksum => {
            for b in &mut frame[4..FRAME_HEADER_BYTES] {
                *b = !*b;
            }
        }
    }
    let last = std::fs::read_dir(wal_dir)
        .expect("journal directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "seg"))
        .max()
        .expect("a segment");
    OpenOptions::new()
        .append(true)
        .open(last)
        .expect("open the last segment")
        .write_all(&frame)
        .expect("append the damage");
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
    fn spawn(wal_dir: &Path) -> Daemon {
        Daemon::start(daemon_command(wal_dir))
    }

    /// Runs `cmd`, a [`daemon_command`] or a wrapper of one, and
    /// connects once it prints `READY`.
    fn start(mut cmd: Command) -> Daemon {
        let mut child = cmd.spawn().expect("spawn etrain-svcd");
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
    let mut daemon = Daemon::spawn(&wal_dir);
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

        daemon = Daemon::spawn(&wal_dir);
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
    let mut daemon = Daemon::spawn(&wal_dir);
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
    let mut daemon = Daemon::spawn(&wal_dir);
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
fn a_torn_submit_after_a_kill_is_truncated_and_admitted_when_resent() {
    let wal_dir = tmp_dir("torn");
    // Records: 0 REGTRAIN, 1 REGCARGO, 2 first SUBMIT. The kill lands
    // mid-append of record 3, the second SUBMIT, tearing its payload.
    let mut daemon = Daemon::spawn(&wal_dir);
    assert_eq!(daemon.roundtrip("REGTRAIN WeChat"), "OK TRAIN 0");
    assert_eq!(daemon.roundtrip("REGCARGO Mail mail 300"), "OK CARGO 0");
    assert_eq!(daemon.roundtrip("SUBMIT a 0 up 1000 1.0"), "OK SUBMITTED 0");
    daemon.sigkill();
    let second = SvcCommand::SubmitIdem {
        client_id: "b".into(),
        app: CargoAppId(0),
        request: TransmitRequest::upload(2000),
        now_s: 2.0,
    };
    damage_last_segment(&wal_dir, &second, Damage::TornPayload);

    // Recovery truncates the torn frame and keeps the three acked records.
    let mut daemon = Daemon::spawn(&wal_dir);
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

/// Sends the first `at_record` seeded script steps, all acked, then
/// SIGKILLs the daemon mid-append of the next one: its frame, with
/// `damage` done to it, ends the journal. Records and script steps are
/// 1:1. A restart must truncate the damage, recover exactly the acked
/// prefix, and take the unacked command afresh when it is resent.
fn mid_append_kill_recovers_the_acked_prefix(damage: Damage, at_record: usize, seed: u64) {
    let steps = script(seed, at_record);
    let spec = format!("{damage:?} at record {at_record}");
    let wal_dir = tmp_dir("mid-append");
    let mut reference = reference();
    let mut daemon = Daemon::spawn(&wal_dir);
    for step in &steps[..at_record] {
        let response = daemon.roundtrip(&step.line);
        assert!(
            response.starts_with("OK") || response.starts_with("ERR core rejected"),
            "{spec}: {} -> {response}",
            step.line
        );
        let _ = reference.apply(&step.command);
    }
    daemon.sigkill();
    let unacked = &steps[at_record];
    damage_last_segment(&wal_dir, &unacked.command, damage);

    let mut daemon = Daemon::spawn(&wal_dir);
    let recovered = daemon.recovered_line.clone();
    assert!(
        recovered.contains(&format!("records={at_record} "))
            && !recovered.contains("truncated_bytes=0"),
        "{spec}: expected {at_record} records and a truncated tail: {recovered}"
    );
    assert_eq!(daemon.fingerprint(), reference.fingerprint(), "{spec}");
    let response = daemon.roundtrip(&unacked.line);
    if unacked.line.starts_with("SUBMIT ") {
        assert!(
            response.starts_with("OK SUBMITTED"),
            "{spec}: the unacked submit was a fresh admission, not {response}"
        );
    }
    let _ = reference.apply(&unacked.command);
    assert_eq!(daemon.fingerprint(), reference.fingerprint(), "{spec}");
    daemon.sigkill();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn a_torn_payload_at_record_5_recovers_the_acked_prefix() {
    mid_append_kill_recovers_the_acked_prefix(Damage::TornPayload, 5, 17);
}

#[test]
fn a_short_header_at_record_7_recovers_the_acked_prefix() {
    mid_append_kill_recovers_the_acked_prefix(Damage::ShortHeader, 7, 18);
}

#[test]
fn a_flipped_checksum_at_record_9_recovers_the_acked_prefix() {
    mid_append_kill_recovers_the_acked_prefix(Damage::FlipChecksum, 9, 19);
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
    // 12,000 steps journaled in process, in 64 KiB segments, and the
    // next one's frame torn at the end, as a kill mid-append leaves it: a
    // restart spends several milliseconds scanning and replaying them,
    // then truncates the torn tail.
    let steps = script(17, 12_000);
    let (torn, acked) = steps.split_last().expect("a non-empty script");
    let wal_dir = tmp_dir("recovery-kill");
    let mut wal = WalConfig::new(&wal_dir);
    wal.fsync = false;
    wal.segment_bytes = 64 * 1024;
    let (mut service, _) =
        DurableService::open(wal, CoreConfig::default(), SvcHealthConfig::default())
            .expect("journal opens");
    for step in acked {
        let _ = service.apply(step.command.clone());
    }
    let reference_fingerprint = service.fingerprint();
    drop(service);
    damage_last_segment(&wal_dir, &torn.command, Damage::TornPayload);

    // Time a restart on a copy, so the kill lands before `READY` whatever
    // the build's speed, then SIGKILL a restart of the original at 37.9%
    // of that time.
    let copy = tmp_dir("recovery-kill-copy");
    copy_dir(&wal_dir, &copy);
    let started = Instant::now();
    Daemon::spawn(&copy).sigkill();
    let delay = started.elapsed().mul_f64(0.379);
    let _ = std::fs::remove_dir_all(&copy);

    let mut child = daemon_command(&wal_dir).spawn().expect("spawn etrain-svcd");
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
    let mut daemon = Daemon::spawn(&wal_dir);
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
    let regular_file = tmp_dir("env-file");
    std::fs::write(&regular_file, b"not a journal directory").expect("write a regular file");
    let regular_file = regular_file.to_str().expect("a Unicode temp path");
    for (key, value) in [
        ("ETRAIN_SVC_ADDR", "not-an-addr"),
        ("ETRAIN_WAL", regular_file),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_etrain-svcd"))
            .env("ETRAIN_WAL", tmp_dir("env"))
            .env("ETRAIN_SVC_ADDR", "127.0.0.1:0")
            .env(key, value)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .expect("run etrain-svcd");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{key}={value}: {stderr}");
        assert!(stderr.contains(key), "{key}={value}: {stderr}");
    }
    let _ = std::fs::remove_file(regular_file);
}

#[test]
fn running_out_of_file_descriptors_does_not_end_the_daemon() {
    // Under a limit of 16 descriptors the daemon serves about ten
    // connections; `accept` then fails with EMFILE until one closes.
    let wal_dir = tmp_dir("nofile");
    let mut daemon = Daemon::start(daemon_under("ulimit -n 16", &wal_dir));

    let addr = daemon.writer.peer_addr().expect("daemon address");
    let connect = || {
        let client = TcpStream::connect(addr).expect("connect to daemon");
        client
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("read timeout");
        client
    };
    // Connections are served until one is left waiting in the backlog,
    // while the daemon's accept fails and is retried.
    let mut held = Vec::new();
    loop {
        assert!(held.len() < 16, "the descriptor limit never bit");
        let mut client = connect();
        client.write_all(b"PING\n").expect("send PING");
        let mut reply = String::new();
        let _ = BufReader::new(&client).read_line(&mut reply);
        held.push(client);
        if reply != "OK PONG\n" {
            break;
        }
    }
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        daemon.child.try_wait().expect("poll the daemon").is_none(),
        "the daemon exited when accept failed, with {} connections open",
        held.len()
    );

    // Freed descriptors let the daemon accept again.
    drop(held);
    let mut client = connect();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    client.write_all(b"PING\nQUIT\n").expect("send PING");
    let mut reply = String::new();
    BufReader::new(&client)
        .read_line(&mut reply)
        .expect("read PING reply");
    assert_eq!(reply, "OK PONG\n");
    assert_eq!(daemon.roundtrip("PING"), "OK PONG");
    daemon.sigkill();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

#[test]
fn a_failed_append_stops_the_journal_until_a_restart_recovers_the_acked_prefix() {
    // Under a 4-block file size limit, with SIGXFSZ ignored, the write
    // that crosses the limit is cut short there and the next one fails
    // with EFBIG: that append tears the segment's tail and gets `ERR`.
    let steps = script(23, 60);
    let wal_dir = tmp_dir("fsize");
    let stderr_dir = tmp_dir("fsize-stderr");
    std::fs::create_dir_all(&stderr_dir).expect("stderr directory");
    let stderr_path = stderr_dir.join("etrain-svcd.stderr");
    let mut cmd = daemon_under("ulimit -S -f 4; trap '' XFSZ", &wal_dir);
    cmd.stderr(std::fs::File::create(&stderr_path).expect("stderr file"));
    let mut daemon = Daemon::start(cmd);
    let mut reference = reference();
    let mut acked = 0;
    let mut steps = steps.iter();
    let failed = loop {
        let step = steps.next().expect("the file size limit never bit");
        let response = daemon.roundtrip(&step.line);
        if response.starts_with("ERR WAL I/O error") {
            break step;
        }
        assert!(
            response.starts_with("OK") || response.starts_with("ERR core rejected"),
            "{} -> {response}",
            step.line
        );
        let _ = reference.apply(&step.command);
        acked += 1;
    };

    // Every later journaling line is refused, and nothing more is written.
    let segment = wal_dir.join("wal-000000.seg");
    let size = std::fs::metadata(&segment).expect("the segment").len();
    let refusal = format!("ERR WAL stopped by a failed write at record {acked}; ");
    for step in steps.take(10).chain([failed]) {
        let response = daemon.roundtrip(&step.line);
        assert!(
            response.starts_with(&refusal),
            "{} -> {response}",
            step.line
        );
    }
    let response = daemon.roundtrip("CHECKPOINT");
    assert!(response.starts_with(&refusal), "CHECKPOINT -> {response}");
    assert_eq!(
        std::fs::metadata(&segment).expect("the segment").len(),
        size
    );
    // The read-only verbs still answer, from the acked state.
    assert_eq!(daemon.roundtrip("PING"), "OK PONG");
    assert_eq!(daemon.fingerprint(), reference.fingerprint());
    let health = daemon.roundtrip("HEALTH");
    assert!(
        health.ends_with(&format!(" records={acked} wal=stopped@{acked}")),
        "{health}"
    );
    daemon.sigkill();
    // The append that stopped the journal is reported once on stderr;
    // the refusals after it are not.
    let stderr = std::fs::read_to_string(&stderr_path).expect("the daemon's stderr");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{stderr}");
    assert!(
        lines[0].starts_with(&format!("etrain-svcd: journal stopped at record {acked}: ")),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&stderr_dir);

    // A restart without the limit truncates the torn tail, recovers the
    // acked prefix, and takes the failed command afresh.
    let mut daemon = Daemon::spawn(&wal_dir);
    let recovered = daemon.recovered_line.clone();
    assert!(
        recovered.contains(&format!("records={acked} "))
            && !recovered.contains("truncated_bytes=0"),
        "expected {acked} records and a truncated tail: {recovered}"
    );
    assert_eq!(daemon.fingerprint(), reference.fingerprint());
    let health = daemon.roundtrip("HEALTH");
    assert!(health.ends_with(&format!(" records={acked}")), "{health}");
    let response = daemon.roundtrip(&failed.line);
    assert!(
        response.starts_with("OK SUBMITTED"),
        "{} -> {response}",
        failed.line
    );
    let _ = reference.apply(&failed.command);
    assert_eq!(daemon.fingerprint(), reference.fingerprint());
    daemon.sigkill();
    let _ = std::fs::remove_dir_all(&wal_dir);
}
