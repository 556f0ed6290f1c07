//! The write-ahead log: segmented, checksummed, crash-truncating.
//!
//! On disk a WAL is a directory of segments `wal-000000.seg`,
//! `wal-000001.seg`, … in the framed format of the `frame` submodule
//! (magic + `[len | crc32 | payload]` frames, written by [`write_frame`]
//! and read by [`scan_frames`]), each payload one JSON-serialized
//! [`SvcCommand`], read back by the `record` module.
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
//! The fault hook ([`WalFault`], which `etrain-svcd` arms from
//! `ETRAIN_WAL_FAULT=torn@N|short@N|crc@N`) makes the writer damage its
//! own tail at a chosen record index — the deterministic stand-in for a
//! SIGKILL landing mid-`write`, which the daemon's process tests use to
//! reach the one crash window that kill timing cannot hit reliably.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::error::SvcError;
use crate::record::decode;
use crate::state::SvcCommand;

mod frame;

pub use frame::{scan_frames, write_frame, AppendFault, TailStatus, FRAME_HEADER_BYTES, WAL_MAGIC};

/// An armed append fault: damage the frame of record `at_record`
/// (zero-based over the WAL's lifetime) instead of writing it cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalFault {
    /// Zero-based record index the hook fires on.
    pub at_record: u64,
    /// What damage to inject (a torn append keeps half the payload).
    pub kind: AppendFault,
}

impl WalFault {
    /// Parses a fault spec: `torn@N`, `short@N`, or `crc@N`.
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
    /// Bytes already in that segment (`None` if it must be created).
    resume_bytes: Option<u64>,
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
    resume_bytes: Option<u64>,
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
            resume_bytes: None,
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
            self.resume_bytes = Some(scan.valid_bytes());
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
            resume_bytes: self.resume_bytes,
        }
    }
}

/// The append handle over a recovered (or fresh) WAL directory.
#[derive(Debug)]
pub struct Wal {
    cfg: WalConfig,
    /// The segment being appended to, opened in append mode.
    file: File,
    /// Bytes in that segment: magic, frames and any damaged tail written.
    bytes: u64,
    segment_index: u64,
    /// Records ever appended across all segments (continues the
    /// recovered count, so the fault hook's `at_record` is an absolute
    /// index into the journal's lifetime).
    records: u64,
}

/// Creates segment `index` under `dir`, which must not exist yet, and
/// writes its magic.
fn create_segment(dir: &Path, index: u64) -> std::io::Result<File> {
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(segment_path(dir, index))?;
    file.write_all(&WAL_MAGIC)?;
    Ok(file)
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
        let (file, bytes, segment_index) = match recovery.resume_bytes {
            Some(valid_bytes) => {
                let path = segment_path(&cfg.dir, recovery.resume_segment);
                let file = OpenOptions::new().append(true).open(path)?;
                (file, valid_bytes, recovery.resume_segment)
            }
            None => (create_segment(&cfg.dir, 0)?, WAL_MAGIC.len() as u64, 0),
        };
        Ok(Wal {
            cfg,
            file,
            bytes,
            segment_index,
            records: recovery.report.records,
        })
    }

    /// Appends one command, rotating the segment first if the current
    /// one is at the size threshold.
    ///
    /// # Errors
    ///
    /// [`SvcError::FaultInjected`] when the armed fault hook matches this
    /// record index: the frame was damaged on purpose, and the caller
    /// must crash without applying the command. I/O failures otherwise;
    /// after an I/O error the tail must be assumed torn (recovery handles
    /// exactly that).
    pub fn append(&mut self, command: &SvcCommand) -> Result<(), SvcError> {
        let payload = serde_json::to_string(command)
            .map_err(|e| SvcError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))?;
        // A segment holding no frame yet is never closed, however small
        // the threshold.
        if self.bytes >= self.cfg.segment_bytes && self.bytes > WAL_MAGIC.len() as u64 {
            self.rotate()?;
        }
        let fault = self
            .cfg
            .fault
            .filter(|fault| fault.at_record == self.records)
            .map(|fault| fault.kind);
        self.bytes += write_frame(&mut self.file, payload.as_bytes(), fault)?;
        if fault.is_some() {
            self.sync()?;
            return Err(SvcError::FaultInjected {
                at_record: self.records,
            });
        }
        if self.cfg.fsync {
            self.sync()?;
        }
        self.records += 1;
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), SvcError> {
        self.sync()?;
        self.segment_index += 1;
        self.file = create_segment(&self.cfg.dir, self.segment_index)?;
        self.bytes = WAL_MAGIC.len() as u64;
        Ok(())
    }

    /// `sync_data`s the current segment.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn sync(&mut self) -> Result<(), SvcError> {
        self.file.sync_data()?;
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
    use crate::test_dir::tmp_dir;
    use etrain_core::CoreCommand;

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
            wal.append(&tick(i as f64)).unwrap();
        }
        drop(wal);
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.report.records, 5);
        assert_eq!(recovery.report.tail, TailStatus::Clean);
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
            assert!(matches!(
                wal.append(&tick(2.0)),
                Err(SvcError::FaultInjected { at_record: 2 })
            ));
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
            assert_eq!(again.report.tail, TailStatus::Clean);
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
            wal.append(&tick(i as f64)).unwrap();
        }
        assert!(matches!(
            wal.append(&tick(3.0)),
            Err(SvcError::FaultInjected { at_record: 3 })
        ));
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
        assert!(matches!(
            wal.append(&tick(1.0)),
            Err(SvcError::FaultInjected { at_record: 1 })
        ));
        drop(wal);
        let payload_len = serde_json::to_string(&tick(1.0)).unwrap().len();
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.report.records, 1);
        assert_eq!(
            recovery.report.truncated_bytes,
            (FRAME_HEADER_BYTES + payload_len / 2) as u64
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

    #[test]
    fn a_tiny_threshold_still_puts_one_record_in_every_segment() {
        let dir = tmp_dir("tiny");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 1; // below the magic alone
        let mut wal = open_fresh(&dir, cfg);
        for i in 0..5 {
            wal.append(&tick(i as f64)).unwrap();
        }
        assert_eq!(wal.segment_index(), 4);
        drop(wal);
        for index in 0..5 {
            let bytes = std::fs::read(segment_path(&dir, index)).unwrap();
            assert_eq!(scan_frames(&bytes).frames.len(), 1, "segment {index}");
        }
        assert!(!segment_path(&dir, 5).exists(), "no empty segment after");
        let recovery = recover(&dir).unwrap();
        assert_eq!((recovery.report.segments, recovery.report.records), (5, 5));
    }

    #[test]
    fn a_segment_zero_that_was_not_resumed_is_never_written_twice() {
        let dir = tmp_dir("stale");
        let stale = recover(&dir).unwrap();
        let mut wal = Wal::open(WalConfig::new(&dir), &stale).unwrap();
        wal.append(&tick(0.0)).unwrap();
        drop(wal);
        // Opening with a recovery from before segment 0 existed would
        // write a second magic into it; the open is refused instead.
        match Wal::open(WalConfig::new(&dir), &stale) {
            Err(SvcError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists),
            other => panic!("expected AlreadyExists, got {other:?}"),
        }
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.commands, vec![tick(0.0)]);
        assert_eq!(recovery.report.tail, TailStatus::Clean);
    }

    #[test]
    fn a_missing_directory_recovers_empty_and_opens_fresh() {
        let root = tmp_dir("missing");
        let dir = root.join("not-yet");
        let recovery = recover(&dir).unwrap();
        assert!(recovery.commands.is_empty());
        assert_eq!((recovery.report.segments, recovery.report.records), (0, 0));
        assert_eq!(recovery.report.tail, TailStatus::Clean);
        let mut wal = Wal::open(WalConfig::new(&dir), &recovery).unwrap();
        assert_eq!((wal.records(), wal.segment_index()), (0, 0));
        wal.append(&tick(2.0)).unwrap();
        drop(wal);
        assert_eq!(recover(&dir).unwrap().commands, vec![tick(2.0)]);
    }

    #[test]
    fn a_verified_payload_that_is_no_command_fails_recovery() {
        let dir = tmp_dir("foreign");
        let mut bytes = WAL_MAGIC.to_vec();
        for payload in [
            serde_json::to_string(&tick(0.0)).unwrap().as_bytes(),
            serde_json::to_string(&tick(1.0)).unwrap().as_bytes(),
            &b"{\"Nap\":{}}"[..],
        ] {
            write_frame(&mut bytes, payload, None).unwrap();
        }
        std::fs::write(segment_path(&dir, 0), &bytes).unwrap();
        match recover(&dir) {
            Err(SvcError::UndecodableRecord { index }) => assert_eq!(index, 2),
            other => panic!("expected an undecodable record, got {other:?}"),
        }
        // Nothing was truncated or set aside on the way.
        assert_eq!(std::fs::read(segment_path(&dir, 0)).unwrap(), bytes);
    }

    #[test]
    fn the_last_checkpoint_written_is_the_one_read() {
        let dir = tmp_dir("ckpt-twice");
        for records in [3, 9] {
            let ckpt = Checkpoint {
                records,
                fingerprint: records * 1_000,
            };
            write_checkpoint(&dir, ckpt).unwrap();
            assert_eq!(read_checkpoint(&dir), Some(ckpt));
        }
        assert!(!dir.join("checkpoint.json.tmp").exists());
        // A checkpoint file is not a segment: recovery ignores it.
        assert_eq!(recover(&dir).unwrap().report.segments, 0);
    }
}
