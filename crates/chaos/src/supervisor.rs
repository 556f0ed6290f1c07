//! Process-level crash supervision of the durable daemon, plus the WAL
//! corruption oracle self-test.
//!
//! The supervisor ([`run_supervisor`]) spawns the real `etrain-svcd`
//! binary, drives it over the TCP line protocol with the deterministic
//! script of [`etrain_svc::script`], SIGKILLs it at seeded points,
//! restarts it against the same WAL directory, and asserts the recovered
//! fingerprint is bit-for-bit identical to a never-killed in-process
//! reference fed the same commands. Fault trials additionally arm the
//! `ETRAIN_WAL_FAULT` hook so the daemon dies *mid-append* — a torn
//! frame, a short header, a flipped checksum — and recovery must
//! truncate the damage rather than crash or replay garbage. The
//! recovery-kill trial ([`run_recovery_kill_trial`]) SIGKILLs a restart
//! before it is ready, while it scans and replays a torn journal.
//!
//! The self-test ([`run_wal_selftest`]) closes the loop from the other
//! side: it damages WAL segment files directly ([`WalCorruption`]) and
//! proves the checksum path *detects* each damage class — the recovery
//! report shows truncated bytes, and the surviving prefix still replays
//! to the reference fingerprint.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use etrain_core::CoreConfig;
use etrain_obs::{AppendFault, FrameWriter};
use etrain_svc::script::{script, ScriptStep};
use etrain_svc::{DurableService, ServiceState, SvcError, SvcHealthConfig, WalConfig, WalFault};
use serde::{Deserialize, Serialize};

/// Locates the `etrain-svcd` binary: the `ETRAIN_SVCD_BIN` override if
/// set, otherwise a sibling of the current executable (test binaries
/// live in `target/<profile>/deps`, the daemon one directory up).
/// Returns `None` when nothing exists at either location — callers
/// should then skip process-level trials rather than fail.
pub fn daemon_binary() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("ETRAIN_SVCD_BIN") {
        let path = PathBuf::from(path);
        return path.exists().then_some(path);
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    let candidate = dir.join("etrain-svcd");
    candidate.exists().then_some(candidate)
}

/// One supervised crash/recover trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupervisorTrial {
    /// `sigkill@N` (killed after N acked steps) or `fault:<spec>`.
    pub kind: String,
    /// Steps acknowledged before the crash.
    pub acked_steps: usize,
    /// The recovered daemon's state fingerprint.
    pub recovered_fingerprint: u64,
    /// The never-killed reference's fingerprint over the same steps.
    pub reference_fingerprint: u64,
    /// Whether the two match — the zero-loss, bit-for-bit oracle.
    pub identical: bool,
    /// Wall-clock from daemon spawn to its `READY` line on restart.
    pub recovery_ms: f64,
    /// The restarted daemon's `RECOVERED` summary line.
    pub recovered_line: String,
}

/// The supervisor campaign's result, serializable as a CI artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupervisorReport {
    /// The script seed.
    pub seed: u64,
    /// Every crash/recover trial, in execution order.
    pub trials: Vec<SupervisorTrial>,
    /// Harness-level failures (daemon would not spawn, protocol desync).
    pub errors: Vec<String>,
}

impl SupervisorReport {
    /// Trials whose recovered state matched the reference bit-for-bit.
    pub fn identical_count(&self) -> usize {
        self.trials.iter().filter(|t| t.identical).count()
    }

    /// Clean = no harness errors and every trial identical.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && self.identical_count() == self.trials.len()
    }

    /// The slowest observed recovery, in milliseconds.
    pub fn max_recovery_ms(&self) -> f64 {
        self.trials
            .iter()
            .map(|t| t.recovery_ms)
            .fold(0.0, f64::max)
    }
}

struct DaemonHandle {
    child: Child,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    recovered_line: String,
    startup: Duration,
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts the daemon on `wal_dir` with its stdout captured.
fn start_daemon(bin: &Path, wal_dir: &Path, fault: Option<&str>) -> Result<Child, String> {
    let mut cmd = Command::new(bin);
    cmd.env("ETRAIN_WAL", wal_dir)
        .env("ETRAIN_SVC_ADDR", "127.0.0.1:0")
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    match fault {
        Some(spec) => cmd.env("ETRAIN_WAL_FAULT", spec),
        None => cmd.env_remove("ETRAIN_WAL_FAULT"),
    };
    cmd.spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))
}

fn spawn_daemon(bin: &Path, wal_dir: &Path, fault: Option<&str>) -> Result<DaemonHandle, String> {
    let started = Instant::now();
    let mut child = start_daemon(bin, wal_dir, fault)?;
    let stdout = child.stdout.take().ok_or("no captured stdout")?;
    let mut lines = BufReader::new(stdout);
    let mut recovered_line = String::new();
    lines
        .read_line(&mut recovered_line)
        .map_err(|e| format!("read RECOVERED line: {e}"))?;
    if !recovered_line.starts_with("RECOVERED ") {
        let _ = child.kill();
        return Err(format!("unexpected first line {recovered_line:?}"));
    }
    let mut ready = String::new();
    lines
        .read_line(&mut ready)
        .map_err(|e| format!("read READY line: {e}"))?;
    let addr = ready
        .trim()
        .strip_prefix("READY ")
        .ok_or_else(|| format!("unexpected second line {ready:?}"))?
        .to_string();
    let startup = started.elapsed();
    let writer = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    writer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
    Ok(DaemonHandle {
        child,
        reader,
        writer,
        recovered_line: recovered_line.trim().to_string(),
        startup,
    })
}

impl DaemonHandle {
    /// Sends one line; `Ok(None)` means the daemon died before
    /// answering (the expected shape of a fault-hook crash).
    fn roundtrip(&mut self, line: &str) -> Result<Option<String>, String> {
        if self
            .writer
            .write_all(format!("{line}\n").as_bytes())
            .is_err()
        {
            return Ok(None);
        }
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(response.trim().to_string())),
            Err(_) => Ok(None),
        }
    }

    fn fingerprint(&mut self) -> Result<u64, String> {
        let response = self
            .roundtrip("FPRINT")?
            .ok_or("daemon died answering FPRINT")?;
        let hex = response
            .strip_prefix("OK FPRINT ")
            .ok_or_else(|| format!("unexpected FPRINT response {response:?}"))?;
        u64::from_str_radix(hex, 16).map_err(|e| format!("fingerprint {hex:?}: {e}"))
    }

    fn sigkill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn wait_exit_code(mut self) -> Option<i32> {
        self.child.wait().ok().and_then(|status| status.code())
    }
}

/// Drives `steps[from..to]` into the daemon, applying each to the
/// reference in lockstep, and returns the number actually acked.
fn drive(
    daemon: &mut DaemonHandle,
    reference: &mut ServiceState,
    steps: &[ScriptStep],
    from: usize,
    to: usize,
) -> Result<usize, String> {
    for (i, step) in steps.iter().enumerate().take(to).skip(from) {
        match daemon.roundtrip(&step.line)? {
            Some(_ack) => {
                let _ = reference.apply(&step.command);
            }
            None => return Err(format!("daemon died unexpectedly at step {i}")),
        }
    }
    Ok(to)
}

/// Runs the SIGKILL leg of the supervisor campaign: one WAL directory,
/// one reference, kills at every point in `kill_points` (acked-step
/// counts, ascending), a restart-and-compare after each.
///
/// # Errors
///
/// Returns harness-level failures (spawn, protocol desync); oracle
/// divergence is reported per-trial, not as an error.
pub fn run_sigkill_trials(
    bin: &Path,
    wal_dir: &Path,
    seed: u64,
    steps_total: usize,
    kill_points: &[usize],
) -> Result<Vec<SupervisorTrial>, String> {
    let steps = script(seed, steps_total);
    let mut reference = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
    let mut trials = Vec::new();
    let mut applied = 0usize;
    let mut daemon = spawn_daemon(bin, wal_dir, None)?;
    for &kill_at in kill_points {
        let kill_at = kill_at.min(steps.len());
        applied = drive(&mut daemon, &mut reference, &steps, applied, kill_at)?;
        daemon.sigkill();

        let mut restarted = spawn_daemon(bin, wal_dir, None)?;
        let recovered_fingerprint = restarted.fingerprint()?;
        let reference_fingerprint = reference.fingerprint();
        trials.push(SupervisorTrial {
            kind: format!("sigkill@{applied}"),
            acked_steps: applied,
            recovered_fingerprint,
            reference_fingerprint,
            identical: recovered_fingerprint == reference_fingerprint,
            recovery_ms: restarted.startup.as_secs_f64() * 1000.0,
            recovered_line: restarted.recovered_line.clone(),
        });
        daemon = restarted;
    }
    daemon.sigkill();
    Ok(trials)
}

/// Runs one mid-append fault trial: a fresh WAL directory, the fault
/// hook armed at record `at_record`, the script driven until the hook
/// fires (the daemon must die with [`etrain_svc::FAULT_EXIT_CODE`]),
/// then a clean restart whose recovered state must match the reference
/// over exactly the acked prefix — the torn record was never
/// acknowledged, so zero-loss does not cover it.
///
/// # Errors
///
/// Returns harness-level failures; divergence is reported in the trial.
pub fn run_fault_trial(
    bin: &Path,
    wal_dir: &Path,
    seed: u64,
    fault_spec: &str,
    at_record: usize,
) -> Result<SupervisorTrial, String> {
    let steps = script(seed, at_record + 4);
    let mut reference = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
    let mut daemon = spawn_daemon(bin, wal_dir, Some(fault_spec))?;
    // Records and script steps are 1:1 (no duplicates in the script),
    // so steps 0..at_record ack cleanly and step at_record trips the
    // hook mid-append.
    for step in steps.iter().take(at_record) {
        match daemon.roundtrip(&step.line)? {
            Some(_) => {
                let _ = reference.apply(&step.command);
            }
            None => return Err("daemon died before the armed record".into()),
        }
    }
    if daemon.roundtrip(&steps[at_record].line)?.is_some() {
        return Err(format!("daemon answered the faulted append ({fault_spec})"));
    }
    let code = daemon.wait_exit_code();
    if code != Some(etrain_svc::FAULT_EXIT_CODE) {
        return Err(format!(
            "daemon exited {code:?}, expected {}",
            etrain_svc::FAULT_EXIT_CODE
        ));
    }

    let mut restarted = spawn_daemon(bin, wal_dir, None)?;
    let recovered_fingerprint = restarted.fingerprint()?;
    let reference_fingerprint = reference.fingerprint();
    let trial = SupervisorTrial {
        kind: format!("fault:{fault_spec}"),
        acked_steps: at_record,
        recovered_fingerprint,
        reference_fingerprint,
        identical: recovered_fingerprint == reference_fingerprint,
        recovery_ms: restarted.startup.as_secs_f64() * 1000.0,
        recovered_line: restarted.recovered_line.clone(),
    };
    restarted.sigkill();
    Ok(trial)
}

/// Script steps journaled for [`run_recovery_kill_trial`]: enough that a
/// restart spends several milliseconds scanning and replaying them.
pub const RECOVERY_KILL_STEPS: usize = 12_000;

/// Runs one kill-during-recovery trial. It journals `steps` script steps
/// in process into a fresh `wal_dir`, in 64 KiB segments, and arms the
/// fault hook on the last one so the journal ends in a torn tail. It then
/// starts the daemon on that journal and SIGKILLs it after a seeded share
/// of the time a restart of a copy took to `READY`. A clean restart must
/// reach the fingerprint of the state before the torn record, wherever
/// the kill landed: in the scan and replay, after the repair of the
/// tail, or (on a slow run) after `READY`. The trial's kind names the
/// delay and where the kill landed.
///
/// # Errors
///
/// Returns harness-level failures; divergence is reported in the trial.
pub fn run_recovery_kill_trial(
    bin: &Path,
    wal_dir: &Path,
    seed: u64,
    steps: usize,
) -> Result<SupervisorTrial, String> {
    let steps = script(seed, steps);
    let Some((torn, acked)) = steps.split_last() else {
        return Err("an empty script has no record to tear".into());
    };
    let mut cfg = WalConfig::new(wal_dir);
    cfg.fsync = false;
    cfg.segment_bytes = 64 * 1024;
    cfg.fault = Some(WalFault {
        at_record: acked.len() as u64,
        kind: AppendFault::TornPayload,
    });
    let (mut service, _) =
        DurableService::open(cfg, CoreConfig::default(), SvcHealthConfig::default())
            .map_err(|e| format!("open the journal: {e}"))?;
    for step in acked {
        let _ = service.apply(step.command.clone());
    }
    let reference_fingerprint = service.fingerprint();
    match service.apply(torn.command.clone()) {
        Err(SvcError::FaultInjected { .. }) => {}
        other => return Err(format!("the armed record was not torn: {other:?}")),
    }
    drop(service);

    // Time a restart on a copy, so the kill lands before `READY`
    // whatever the build's speed.
    let copy = wal_dir.with_extension("copy");
    copy_dir(wal_dir, &copy).map_err(|e| format!("copy the journal: {e}"))?;
    let timed = spawn_daemon(bin, &copy, None);
    let _ = std::fs::remove_dir_all(&copy);
    let ready = timed?.startup;
    let share = (splitmix(seed) % 1000) as f64 / 1000.0;
    let delay = ready.mul_f64(share);

    let mut child = start_daemon(bin, wal_dir, None)?;
    std::thread::sleep(delay);
    let _ = child.kill();
    let _ = child.wait();
    let mut printed = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        let _ = stdout.read_to_string(&mut printed);
    }
    let landed = if printed.contains("READY ") {
        "after-ready"
    } else if printed.contains("RECOVERED ") {
        "before-ready"
    } else {
        "in-recovery"
    };

    let mut restarted = spawn_daemon(bin, wal_dir, None)?;
    let recovered_fingerprint = restarted.fingerprint()?;
    let trial = SupervisorTrial {
        kind: format!(
            "recovery-kill@{:.1}ms:{landed}",
            delay.as_secs_f64() * 1000.0
        ),
        acked_steps: acked.len(),
        recovered_fingerprint,
        reference_fingerprint,
        identical: recovered_fingerprint == reference_fingerprint,
        recovery_ms: restarted.startup.as_secs_f64() * 1000.0,
        recovered_line: restarted.recovered_line.clone(),
    };
    restarted.sigkill();
    Ok(trial)
}

/// The splitmix64 finalizer: a seeded value with every bit mixed.
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Copies the files of `from` into a fresh directory `to`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Runs the full supervisor campaign: SIGKILL trials at `kills` evenly
/// spread points over a `steps_total`-step script, then one mid-append
/// fault trial per damage kind (torn payload, short header, flipped
/// checksum). `scratch` must be a writable directory; every trial uses
/// a fresh subdirectory under it.
pub fn run_supervisor(bin: &Path, scratch: &Path, seed: u64, kills: usize) -> SupervisorReport {
    let steps_total = (kills.max(1)) * 6 + 10;
    let kill_points: Vec<usize> = (1..=kills).map(|k| k * steps_total / (kills + 1)).collect();
    let mut report = SupervisorReport {
        seed,
        trials: Vec::new(),
        errors: Vec::new(),
    };
    let sigkill_dir = scratch.join(format!("svc-sigkill-{seed}"));
    let _ = std::fs::remove_dir_all(&sigkill_dir);
    match run_sigkill_trials(bin, &sigkill_dir, seed, steps_total, &kill_points) {
        Ok(trials) => report.trials.extend(trials),
        Err(e) => report.errors.push(format!("sigkill leg: {e}")),
    }
    let _ = std::fs::remove_dir_all(&sigkill_dir);

    for (i, kind) in ["torn", "short", "crc"].iter().enumerate() {
        // Arm each fault a few records into the stream, offset per kind
        // so the trials damage different script positions.
        let at_record = 5 + 2 * i;
        let spec = format!("{kind}@{at_record}");
        let fault_dir = scratch.join(format!("svc-fault-{seed}-{kind}"));
        let _ = std::fs::remove_dir_all(&fault_dir);
        match run_fault_trial(
            bin,
            &fault_dir,
            seed.wrapping_add(i as u64),
            &spec,
            at_record,
        ) {
            Ok(trial) => report.trials.push(trial),
            Err(e) => report.errors.push(format!("fault {spec}: {e}")),
        }
        let _ = std::fs::remove_dir_all(&fault_dir);
    }
    report
}

/// A deliberate on-disk damage to a WAL directory, used to prove the
/// checksum path detects real corruption classes — the durable
/// counterpart of the engine-output [`Corruption`](crate::Corruption)
/// self-test tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalCorruption {
    /// A torn write: a frame header promising more payload than was
    /// ever written lands at the tail (SIGKILL mid-`write`).
    TornTail,
    /// A truncated segment: the file loses its last few bytes, cutting
    /// into the final frame (filesystem rollback after power loss).
    TruncatedSegment,
    /// A flipped payload byte in the last frame: length intact, CRC
    /// provably wrong (bit rot, torn sector rewrite).
    FlippedChecksum,
}

impl WalCorruption {
    /// Every corruption, for the self-test sweep.
    pub fn all() -> [WalCorruption; 3] {
        [
            WalCorruption::TornTail,
            WalCorruption::TruncatedSegment,
            WalCorruption::FlippedChecksum,
        ]
    }

    /// Applies the damage to the last WAL segment under `dir`. Returns
    /// `false` when there is nothing suitable to damage.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn apply(&self, dir: &Path) -> std::io::Result<bool> {
        let Some(segment) = last_segment(dir)? else {
            return Ok(false);
        };
        let mut bytes = Vec::new();
        std::fs::File::open(&segment)?.read_to_end(&mut bytes)?;
        match self {
            WalCorruption::TornTail => {
                // Header claims 80 payload bytes; only 40 follow.
                let file = std::fs::OpenOptions::new().append(true).open(&segment)?;
                FrameWriter::resume(file, 0, bytes.len() as u64)
                    .append_faulty(&[0xab; 80], AppendFault::TornPayload)?;
                Ok(true)
            }
            WalCorruption::TruncatedSegment => {
                if bytes.len() < etrain_obs::WAL_MAGIC.len() + 6 {
                    return Ok(false);
                }
                let file = std::fs::OpenOptions::new().write(true).open(&segment)?;
                file.set_len(bytes.len() as u64 - 5)?;
                Ok(true)
            }
            WalCorruption::FlippedChecksum => {
                if bytes.len() <= etrain_obs::WAL_MAGIC.len() {
                    return Ok(false);
                }
                let last = bytes.len() - 1;
                bytes[last] ^= 0x40;
                std::fs::write(&segment, &bytes)?;
                Ok(true)
            }
        }
    }
}

impl std::fmt::Display for WalCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            WalCorruption::TornTail => "TornTail",
            WalCorruption::TruncatedSegment => "TruncatedSegment",
            WalCorruption::FlippedChecksum => "FlippedChecksum",
        };
        f.write_str(name)
    }
}

fn last_segment(dir: &Path) -> std::io::Result<Option<PathBuf>> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == "seg")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    segments.sort();
    Ok(segments.pop())
}

/// One WAL corruption self-test verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalSelfTest {
    /// The damage class.
    pub corruption: String,
    /// Whether recovery reported the damage (truncated bytes or a
    /// non-clean tail) instead of replaying it.
    pub detected: bool,
    /// Bytes recovery truncated away.
    pub truncated_bytes: u64,
    /// Checksum-verified records lost to the damage (never acked ones
    /// only — the zero-loss bar is on the surviving prefix).
    pub records_lost: u64,
    /// Whether the recovered state matches an in-process reference
    /// replay of exactly the surviving record prefix.
    pub prefix_matches: bool,
}

/// Builds a real WAL under `scratch` (seeded script, small segments so
/// rotation happens), damages it with each [`WalCorruption`], recovers,
/// and reports whether the checksum path caught the damage and the
/// surviving prefix still replays bit-for-bit.
///
/// # Panics
///
/// Panics only on scratch-directory I/O failures.
pub fn run_wal_selftest(seed: u64, steps: usize, scratch: &Path) -> Vec<WalSelfTest> {
    let script = script(seed, steps);
    let mut results = Vec::new();
    for corruption in WalCorruption::all() {
        let dir = scratch.join(format!("wal-selftest-{seed}-{corruption}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = false;
        cfg.segment_bytes = 2048; // force rotation: recovery walks several segments
        let (mut service, _) = DurableService::open(
            cfg.clone(),
            CoreConfig::default(),
            SvcHealthConfig::default(),
        )
        .expect("fresh WAL opens");
        for step in &script {
            let _ = service.apply(step.command.clone());
        }
        let records_before = service.records();
        drop(service);

        let applied = corruption.apply(&dir).expect("damage applies");
        assert!(
            applied,
            "{corruption}: nothing to damage in {}",
            dir.display()
        );

        let (recovered, summary) =
            DurableService::open(cfg, CoreConfig::default(), SvcHealthConfig::default())
                .expect("recovery survives damage");
        let records_after = summary.wal.records;
        let detected = summary.wal.truncated_bytes > 0;

        // Replay the surviving prefix in process and compare.
        let mut reference = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
        for step in script.iter().take(records_after as usize) {
            let _ = reference.apply(&step.command);
        }
        results.push(WalSelfTest {
            corruption: corruption.to_string(),
            detected,
            truncated_bytes: summary.wal.truncated_bytes,
            records_lost: records_before - records_after,
            prefix_matches: recovered.fingerprint() == reference.fingerprint(),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "etrain-supervisor-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn wal_corruptions_are_detected_and_prefix_survives() {
        let dir = scratch("selftest");
        let results = run_wal_selftest(11, 40, &dir);
        assert_eq!(results.len(), WalCorruption::all().len());
        for result in &results {
            assert!(result.detected, "{result:?} escaped the checksum path");
            assert!(result.prefix_matches, "{result:?} diverged on replay");
            // Damage hits at most the final record: checksummed frames
            // before it must all survive.
            assert!(result.records_lost <= 1, "{result:?} lost history");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_appends_a_header_and_half_its_payload() {
        let dir = scratch("torn-tail");
        let segment = dir.join("wal-000000.seg");
        let mut writer = FrameWriter::create(Vec::new()).unwrap();
        writer.append(b"first").unwrap();
        writer.append(b"second").unwrap();
        std::fs::write(&segment, writer.into_inner()).unwrap();
        let before = std::fs::read(&segment).unwrap();

        assert!(WalCorruption::TornTail.apply(&dir).unwrap());
        let after = std::fs::read(&segment).unwrap();
        assert_eq!(&after[..before.len()], &before[..], "prefix untouched");
        assert_eq!(
            after.len(),
            before.len() + etrain_obs::FRAME_HEADER_BYTES + 40
        );
        let scan = etrain_obs::durable::scan_frames(&after);
        assert_eq!(
            scan.tail,
            etrain_obs::durable::TailStatus::Torn {
                valid_bytes: before.len() as u64
            }
        );
        let payloads: Vec<&[u8]> = scan.frames.iter().map(|r| &after[r.clone()]).collect();
        assert_eq!(payloads, vec![&b"first"[..], b"second"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruptions_find_nothing_to_damage_without_a_segment() {
        let dir = scratch("no-segment");
        std::fs::write(dir.join("notes.txt"), b"not a segment").unwrap();
        for corruption in WalCorruption::all() {
            assert!(!corruption.apply(&dir).unwrap(), "{corruption}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_campaign_is_clean_when_daemon_is_available() {
        let Some(bin) = daemon_binary() else {
            eprintln!("etrain-svcd not built; skipping process-level supervisor test");
            return;
        };
        let dir = scratch("supervisor");
        let report = run_supervisor(&bin, &dir, 5, 5);
        assert!(
            report.is_clean(),
            "supervisor found divergence: {:#?}",
            report
        );
        assert!(
            report.trials.len() >= 5 + 3,
            "{} trials",
            report.trials.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_kill_during_recovery_restarts_to_the_reference() {
        let Some(bin) = daemon_binary() else {
            eprintln!("etrain-svcd not built; skipping the recovery-kill trial");
            return;
        };
        let dir = scratch("recovery-kill");
        let trial = run_recovery_kill_trial(&bin, &dir.join("wal"), 3, 2_000).unwrap();
        assert!(trial.identical, "{trial:#?}");
        assert_eq!(trial.acked_steps, 3 + 2_000 - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = SupervisorReport {
            seed: 3,
            trials: vec![SupervisorTrial {
                kind: "sigkill@7".into(),
                acked_steps: 7,
                recovered_fingerprint: 0xabc,
                reference_fingerprint: 0xabc,
                identical: true,
                recovery_ms: 12.5,
                recovered_line: "RECOVERED records=7".into(),
            }],
            errors: vec![],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: SupervisorReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.is_clean());
        assert_eq!(back.identical_count(), 1);
        assert!((back.max_recovery_ms() - 12.5).abs() < 1e-9);
    }
}
