//! The write-ahead log: segmented, checksummed, crash-truncating.
//!
//! On disk a WAL is a directory of segments `wal-000000.seg`,
//! `wal-000001.seg`, … in the framed format of [`etrain_obs::durable`]
//! (magic + `[len | crc32 | payload]` frames), each payload one
//! JSON-serialized [`SvcCommand`], read back by the `record` module.
//! Appends go to the highest segment; a segment that crosses
//! [`WalConfig::segment_bytes`] is closed and a new one started, so no
//! single file grows without bound and recovery I/O is localized.
//!
//! Recovery ([`recover`]) scans every segment in order, keeps
//! exactly the prefix of frames whose checksums verify, and *repairs the
//! directory in place*: a torn or corrupt tail is truncated back to the
//! last valid frame, a segment with no valid magic is set aside as
//! `.bad`, and any segments after the first damaged one are set aside
//! too (they were written after the damage point and cannot be trusted
//! to be causally consistent). Damage is therefore survived, reported,
//! and never replayed. The scan yields one verified segment's commands
//! at a time, so `DurableService::open` replays a segment while the next
//! one is read.
//!
//! The fault hook ([`WalFault`], env `ETRAIN_WAL_FAULT=torn@N|short@N|crc@N`)
//! makes the writer damage its own tail at a chosen record index — the
//! deterministic stand-in for SIGKILL landing mid-`write` that the chaos
//! harness kills processes with.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use etrain_obs::durable::{scan_frames, AppendFault, FrameWriter, TailStatus};
use serde::{Deserialize, Serialize};

use crate::error::SvcError;
use crate::record::decode;
use crate::state::SvcCommand;

/// Environment variable naming the WAL directory.
pub const WAL_ENV: &str = "ETRAIN_WAL";

/// Environment variable arming the append fault hook
/// (`torn@N`, `short@N`, or `crc@N`).
pub const WAL_FAULT_ENV: &str = "ETRAIN_WAL_FAULT";

/// An armed append fault: damage the frame of record `at_record`
/// (zero-based over the WAL's lifetime) instead of writing it cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalFault {
    /// Zero-based record index the hook fires on.
    pub at_record: u64,
    /// What damage to inject (a torn append keeps half the payload).
    pub kind: AppendFault,
}

impl WalFault {
    /// Parses the `ETRAIN_WAL_FAULT` syntax: `torn@N`, `short@N`, or
    /// `crc@N`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind_s, at_s) = spec
            .trim()
            .split_once('@')
            .ok_or_else(|| format!("fault spec {spec:?} is not of the form kind@record"))?;
        let kind = match kind_s.to_ascii_lowercase().as_str() {
            "torn" => AppendFault::TornPayload,
            "short" => AppendFault::ShortHeader,
            "crc" => AppendFault::FlipChecksum,
            other => {
                return Err(format!(
                    "unknown fault kind {other:?} (expected torn, short, or crc)"
                ))
            }
        };
        let at_record: u64 = at_s
            .parse()
            .map_err(|_| format!("fault record index {at_s:?} is not a non-negative integer"))?;
        Ok(WalFault { at_record, kind })
    }

    /// Strict [`WAL_FAULT_ENV`] reader: `Ok(None)` when unset or empty,
    /// the parsed fault otherwise, `Err` for a malformed value.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed spec.
    pub fn try_from_env() -> Result<Option<Self>, String> {
        match std::env::var(WAL_FAULT_ENV) {
            Err(_) => Ok(None),
            Ok(raw) if raw.trim().is_empty() => Ok(None),
            Ok(raw) => WalFault::parse(&raw)
                .map(Some)
                .map_err(|e| format!("invalid {WAL_FAULT_ENV}: {e}")),
        }
    }
}

/// Configuration of a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segments (created if absent).
    pub dir: PathBuf,
    /// Rotation threshold: a segment that reaches this many bytes is
    /// closed and a fresh one started.
    pub segment_bytes: u64,
    /// Whether to `sync_data` the segment after every append. The
    /// daemon keeps this on; in-process harnesses may trade durability
    /// for speed.
    pub fsync: bool,
    /// The armed fault hook, if any.
    pub fault: Option<WalFault>,
}

impl WalConfig {
    /// A config rooted at `dir` with 1 MiB segments, fsync on, no fault.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 1024 * 1024,
            fsync: true,
            fault: None,
        }
    }
}

/// Result of one append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Append {
    /// The record is durably framed.
    Ok,
    /// The fault hook fired: the tail is damaged and the process must
    /// now crash.
    FaultInjected,
}

/// What recovery found and repaired in a WAL directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecoveryReport {
    /// Segments that contributed replayable records.
    pub segments: usize,
    /// Records recovered (every one checksum-verified).
    pub records: u64,
    /// Damaged tail bytes truncated away.
    pub truncated_bytes: u64,
    /// Segments set aside as `.bad` (unreadable magic, or written after
    /// a damaged segment).
    pub segments_set_aside: usize,
    /// Tail verdict of the last contributing segment.
    pub tail: TailStatus,
    /// Payloads that verified but did not decode as commands.
    pub undecodable: u64,
}

/// The outcome of scanning a WAL directory: the replayable command
/// stream plus what the writer needs to resume appending.
#[derive(Debug)]
pub struct WalRecovery {
    /// The recovered commands, in append order.
    pub commands: Vec<SvcCommand>,
    /// What was found and repaired.
    pub report: WalRecoveryReport,
    /// The segment index appends should continue in (the last surviving
    /// segment, or 0 for an empty directory).
    resume_segment: u64,
    /// Frames and bytes already in that segment (`None` if it must be
    /// created).
    resume_state: Option<(u64, u64)>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.seg"))
}

fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    if !dir.exists() {
        return Ok(segments);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(idx) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((idx, entry.path()));
        }
    }
    segments.sort_by_key(|(idx, _)| *idx);
    Ok(segments)
}

fn set_aside(path: &Path) -> std::io::Result<()> {
    let mut bad = path.as_os_str().to_owned();
    bad.push(".bad");
    std::fs::rename(path, PathBuf::from(bad))
}

/// Scans (and repairs) the WAL directory, returning the verified command
/// stream. Damage never fails recovery: torn and corrupt tails are
/// truncated to the last valid frame, unreadable segments are set aside.
///
/// # Errors
///
/// Only genuine I/O failures (permissions, disappearing files) and
/// [`SvcError::UndecodableRecord`] — a payload whose checksum verified
/// but that is not a serialized command, meaning the directory was not
/// written by this service.
pub fn recover(dir: &Path) -> Result<WalRecovery, SvcError> {
    let mut scan = Scan::new(dir)?;
    let mut commands = Vec::new();
    while scan.next_segment(&mut commands)? {}
    Ok(scan.finish(commands))
}

/// The scan behind [`recover`], one segment at a time, so that a caller
/// can replay a segment's commands while the next one is read and
/// verified.
pub(crate) struct Scan {
    segments: std::vec::IntoIter<(u64, PathBuf)>,
    report: WalRecoveryReport,
    resume_segment: u64,
    resume_state: Option<(u64, u64)>,
    damage_seen: bool,
}

impl Scan {
    /// Lists the segments of `dir` (none if it does not exist).
    pub(crate) fn new(dir: &Path) -> Result<Self, SvcError> {
        Ok(Scan {
            segments: list_segments(dir)?.into_iter(),
            report: WalRecoveryReport {
                segments: 0,
                records: 0,
                truncated_bytes: 0,
                segments_set_aside: 0,
                tail: TailStatus::Clean,
                undecodable: 0,
            },
            resume_segment: 0,
            resume_state: None,
            damage_seen: false,
        })
    }

    /// Verifies, repairs and decodes the next segment that contributes
    /// records, appending its commands to `commands`. Returns `false`
    /// once every segment has been scanned or set aside.
    pub(crate) fn next_segment(
        &mut self,
        commands: &mut Vec<SvcCommand>,
    ) -> Result<bool, SvcError> {
        for (index, path) in self.segments.by_ref() {
            if self.damage_seen {
                // Everything after the first damaged segment postdates the
                // damage point; set it aside rather than replay a stream
                // with a causal hole in the middle.
                set_aside(&path)?;
                self.report.segments_set_aside += 1;
                continue;
            }
            let bytes = std::fs::read(&path)?;
            let scan = scan_frames(&bytes);
            match scan.tail {
                TailStatus::BadMagic => {
                    set_aside(&path)?;
                    self.report.segments_set_aside += 1;
                    self.report.tail = TailStatus::BadMagic;
                    self.damage_seen = true;
                    continue;
                }
                TailStatus::Clean => {}
                TailStatus::Torn { valid_bytes } | TailStatus::Corrupt { valid_bytes } => {
                    self.report.truncated_bytes += bytes.len() as u64 - valid_bytes;
                    let file = OpenOptions::new().write(true).open(&path)?;
                    file.set_len(valid_bytes)?;
                    file.sync_data()?;
                    self.damage_seen = true;
                }
            }
            self.report.tail = scan.tail;
            self.report.segments += 1;
            self.resume_segment = index;
            self.resume_state = Some((scan.frames.len() as u64, scan.valid_bytes()));
            commands.reserve(scan.frames.len());
            for frame in &scan.frames {
                let command = decode(&bytes[frame.clone()]).ok_or(SvcError::UndecodableRecord {
                    index: self.report.records,
                })?;
                commands.push(command);
                self.report.records += 1;
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// What the scan found, with `commands` as the recovered stream.
    pub(crate) fn finish(self, commands: Vec<SvcCommand>) -> WalRecovery {
        WalRecovery {
            commands,
            report: self.report,
            resume_segment: self.resume_segment,
            resume_state: self.resume_state,
        }
    }
}

/// The append handle over a recovered (or fresh) WAL directory.
#[derive(Debug)]
pub struct Wal {
    cfg: WalConfig,
    writer: FrameWriter<File>,
    segment_index: u64,
    /// Records ever appended across all segments (continues the
    /// recovered count, so the fault hook's `at_record` is an absolute
    /// index into the journal's lifetime).
    records: u64,
}

impl Wal {
    /// Opens the WAL for appending after [`recover`], resuming the last
    /// surviving segment (or creating `wal-000000.seg` in a fresh
    /// directory).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-open failures.
    pub fn open(cfg: WalConfig, recovery: &WalRecovery) -> Result<Self, SvcError> {
        std::fs::create_dir_all(&cfg.dir)?;
        let (writer, segment_index) = match recovery.resume_state {
            Some((frames, valid_bytes)) => {
                let path = segment_path(&cfg.dir, recovery.resume_segment);
                let file = OpenOptions::new().append(true).open(path)?;
                (
                    FrameWriter::resume(file, frames, valid_bytes),
                    recovery.resume_segment,
                )
            }
            None => {
                let path = segment_path(&cfg.dir, 0);
                let file = OpenOptions::new().create(true).append(true).open(path)?;
                (FrameWriter::create(file)?, 0)
            }
        };
        Ok(Wal {
            cfg,
            writer,
            segment_index,
            records: recovery.report.records,
        })
    }

    /// Appends one command, rotating the segment first if the current
    /// one is at the size threshold. When the armed fault hook matches
    /// this record index, the frame is damaged on purpose and
    /// [`Append::FaultInjected`] returned — the caller must then crash
    /// without applying the command.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; after an I/O error the tail must be
    /// assumed torn (recovery handles exactly that).
    pub fn append(&mut self, command: &SvcCommand) -> Result<Append, SvcError> {
        let payload = serde_json::to_string(command)
            .map_err(|e| SvcError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))?;
        if self.writer.bytes() >= self.cfg.segment_bytes && self.writer.frames() > 0 {
            self.rotate()?;
        }
        if let Some(fault) = self.cfg.fault {
            if fault.at_record == self.records {
                self.writer.append_faulty(payload.as_bytes(), fault.kind)?;
                self.sync()?;
                return Ok(Append::FaultInjected);
            }
        }
        self.writer.append(payload.as_bytes())?;
        if self.cfg.fsync {
            self.sync()?;
        }
        self.records += 1;
        Ok(Append::Ok)
    }

    fn rotate(&mut self) -> Result<(), SvcError> {
        self.writer.flush()?;
        self.writer.get_mut().sync_data()?;
        self.segment_index += 1;
        let path = segment_path(&self.cfg.dir, self.segment_index);
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(path)?;
        self.writer = FrameWriter::create(file)?;
        Ok(())
    }

    /// Flushes and `sync_data`s the current segment.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn sync(&mut self) -> Result<(), SvcError> {
        self.writer.flush()?;
        self.writer.get_mut().sync_data()?;
        Ok(())
    }

    /// Records durably appended over the WAL's lifetime.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The segment currently being appended to.
    pub fn segment_index(&self) -> u64 {
        self.segment_index
    }
}

/// The last clean checkpoint: how many journal records it covers and the
/// state fingerprint after applying exactly that prefix.
///
/// Checkpoints are *verification* artifacts, not snapshots: recovery
/// always replays the full journal, then checks that the state it passed
/// through at `records` matches `fingerprint`. A mismatch means the
/// verified-checksum prefix is inconsistent with history, and recovery
/// refuses to proceed silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Journal records covered.
    pub records: u64,
    /// [`crate::ServiceState::fingerprint`] after that prefix.
    pub fingerprint: u64,
}

const CHECKPOINT_FILE: &str = "checkpoint.json";

/// Atomically writes the checkpoint (tmp + rename, synced).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_checkpoint(dir: &Path, checkpoint: Checkpoint) -> Result<(), SvcError> {
    std::fs::create_dir_all(dir)?;
    let json = serde_json::to_string(&checkpoint)
        .map_err(|e| SvcError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))?;
    let tmp = dir.join("checkpoint.json.tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
    Ok(())
}

/// Reads the last checkpoint, if one exists and parses. An unparseable
/// checkpoint is treated as absent (the rename is atomic, so this only
/// happens under external interference; recovery then simply has nothing
/// to verify against).
pub fn read_checkpoint(dir: &Path) -> Option<Checkpoint> {
    let raw = std::fs::read_to_string(dir.join(CHECKPOINT_FILE)).ok()?;
    serde_json::from_str(&raw).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use etrain_core::CoreCommand;

    fn tmp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("etrain-wal-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tick(now_s: f64) -> SvcCommand {
        SvcCommand::Core(CoreCommand::Tick { now_s })
    }

    fn open_fresh(dir: &Path, cfg: WalConfig) -> Wal {
        let recovery = recover(dir).unwrap();
        Wal::open(cfg, &recovery).unwrap()
    }

    #[test]
    fn append_and_recover_round_trips() {
        let dir = tmp_dir("roundtrip");
        let mut wal = open_fresh(&dir, WalConfig::new(&dir));
        for i in 0..5 {
            assert_eq!(wal.append(&tick(i as f64)).unwrap(), Append::Ok);
        }
        drop(wal);
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.report.records, 5);
        assert!(recovery.report.tail.is_clean());
        assert_eq!(recovery.commands.len(), 5);
        assert_eq!(recovery.commands[3], tick(3.0));
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let dir = tmp_dir("rotate");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 64; // force rotation every couple of records
        let mut wal = open_fresh(&dir, cfg);
        for i in 0..20 {
            wal.append(&tick(i as f64)).unwrap();
        }
        assert!(wal.segment_index() >= 2, "expected multiple segments");
        drop(wal);
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.report.records, 20);
        assert!(recovery.report.segments >= 3);
        let times: Vec<f64> = recovery
            .commands
            .iter()
            .map(|c| match c {
                SvcCommand::Core(CoreCommand::Tick { now_s }) => *now_s,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(times, (0..20).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn recovery_resumes_appends_in_place() {
        let dir = tmp_dir("resume");
        let mut wal = open_fresh(&dir, WalConfig::new(&dir));
        wal.append(&tick(0.0)).unwrap();
        drop(wal);
        let recovery = recover(&dir).unwrap();
        let mut wal = Wal::open(WalConfig::new(&dir), &recovery).unwrap();
        assert_eq!(wal.records(), 1);
        wal.append(&tick(1.0)).unwrap();
        drop(wal);
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.report.records, 2);
        assert_eq!(recovery.report.segments, 1, "no spurious new segment");
    }

    #[test]
    fn fault_hook_damages_tail_and_recovery_truncates_it() {
        for (kind, expect_torn) in [
            (AppendFault::TornPayload, true),
            (AppendFault::ShortHeader, true),
            (AppendFault::FlipChecksum, false),
        ] {
            let dir = tmp_dir("fault");
            let mut cfg = WalConfig::new(&dir);
            cfg.fault = Some(WalFault { at_record: 2, kind });
            let mut wal = open_fresh(&dir, cfg);
            wal.append(&tick(0.0)).unwrap();
            wal.append(&tick(1.0)).unwrap();
            assert_eq!(wal.append(&tick(2.0)).unwrap(), Append::FaultInjected);
            drop(wal); // the simulated crash
            let recovery = recover(&dir).unwrap();
            assert_eq!(
                recovery.report.records, 2,
                "{kind:?}: damaged record must not replay"
            );
            assert!(recovery.report.truncated_bytes > 0, "{kind:?}");
            match recovery.report.tail {
                TailStatus::Torn { .. } => assert!(expect_torn, "{kind:?}"),
                TailStatus::Corrupt { .. } => assert!(!expect_torn, "{kind:?}"),
                other => panic!("{kind:?}: unexpected tail {other:?}"),
            }
            // After truncation the directory is clean again and appends
            // continue from the repaired tail.
            let mut wal = Wal::open(WalConfig::new(&dir), &recovery).unwrap();
            wal.append(&tick(2.0)).unwrap();
            drop(wal);
            let again = recover(&dir).unwrap();
            assert_eq!(again.report.records, 3);
            assert!(again.report.tail.is_clean());
            assert_eq!(again.report.truncated_bytes, 0);
        }
    }

    #[test]
    fn fault_hook_fires_only_on_its_record_index() {
        let dir = tmp_dir("fault-index");
        let mut cfg = WalConfig::new(&dir);
        cfg.fault = Some(WalFault::parse("crc@3").unwrap());
        let mut wal = open_fresh(&dir, cfg);
        for i in 0..3 {
            assert_eq!(wal.append(&tick(i as f64)).unwrap(), Append::Ok, "{i}");
        }
        assert_eq!(wal.append(&tick(3.0)).unwrap(), Append::FaultInjected);
        assert_eq!(wal.records(), 3, "the damaged record is not counted");
        drop(wal);
        assert_eq!(recover(&dir).unwrap().report.records, 3);
    }

    #[test]
    fn torn_fault_leaves_a_header_and_half_the_record() {
        let dir = tmp_dir("fault-torn");
        let mut cfg = WalConfig::new(&dir);
        cfg.fault = Some(WalFault::parse("torn@1").unwrap());
        let mut wal = open_fresh(&dir, cfg);
        wal.append(&tick(0.0)).unwrap();
        assert_eq!(wal.append(&tick(1.0)).unwrap(), Append::FaultInjected);
        drop(wal);
        let payload_len = serde_json::to_string(&tick(1.0)).unwrap().len();
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.report.records, 1);
        assert_eq!(
            recovery.report.truncated_bytes,
            (etrain_obs::durable::FRAME_HEADER_BYTES + payload_len / 2) as u64
        );
        assert!(matches!(recovery.report.tail, TailStatus::Torn { .. }));
    }

    #[test]
    fn bad_magic_segment_is_set_aside() {
        let dir = tmp_dir("badmagic");
        let mut wal = open_fresh(&dir, WalConfig::new(&dir));
        wal.append(&tick(0.0)).unwrap();
        drop(wal);
        std::fs::write(dir.join("wal-000001.seg"), b"garbage not a segment").unwrap();
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.report.records, 1, "good prefix survives");
        assert_eq!(recovery.report.segments_set_aside, 1);
        assert!(dir.join("wal-000001.seg.bad").exists());
    }

    #[test]
    fn segments_after_damage_are_set_aside() {
        let dir = tmp_dir("afterdamage");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 64;
        let mut wal = open_fresh(&dir, cfg);
        for i in 0..10 {
            wal.append(&tick(i as f64)).unwrap();
        }
        assert!(wal.segment_index() >= 2);
        drop(wal);
        // Corrupt the middle segment's tail byte.
        let victim = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let recovery = recover(&dir).unwrap();
        assert!(recovery.report.records < 10);
        assert!(recovery.report.segments_set_aside >= 1);
        assert!(recovery.report.truncated_bytes > 0);
        // The stream is still a causally consistent prefix.
        let times: Vec<f64> = recovery
            .commands
            .iter()
            .map(|c| match c {
                SvcCommand::Core(CoreCommand::Tick { now_s }) => *now_s,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expect: Vec<f64> = (0..times.len()).map(|i| i as f64).collect();
        assert_eq!(times, expect);
    }

    #[test]
    fn checkpoint_round_trips_and_survives_garbage() {
        let dir = tmp_dir("ckpt");
        assert_eq!(read_checkpoint(&dir), None);
        let ckpt = Checkpoint {
            records: 17,
            fingerprint: 0xDEAD_BEEF_0123_4567,
        };
        write_checkpoint(&dir, ckpt).unwrap();
        assert_eq!(read_checkpoint(&dir), Some(ckpt));
        std::fs::write(dir.join("checkpoint.json"), b"{not json").unwrap();
        assert_eq!(read_checkpoint(&dir), None);
    }

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(
            WalFault::parse("torn@7").unwrap(),
            WalFault {
                at_record: 7,
                kind: AppendFault::TornPayload
            }
        );
        assert_eq!(
            WalFault::parse(" CRC@0 ").unwrap().kind,
            AppendFault::FlipChecksum
        );
        assert_eq!(
            WalFault::parse("short@12").unwrap().kind,
            AppendFault::ShortHeader
        );
        assert!(WalFault::parse("torn").is_err());
        assert!(WalFault::parse("melt@3").is_err());
        assert!(WalFault::parse("torn@x").is_err());
    }
}
