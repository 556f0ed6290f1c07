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
//! The writer is fail-stop. Once a segment write, `sync_data` or
//! rotation fails, the tail may be torn, and recovery cuts away
//! everything behind the first damage; so the [`Wal`] refuses every
//! later append and sync with [`SvcError::WalFailed`] instead of
//! acknowledging records that the next recovery would lose.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::error::SvcError;
use crate::record::decode;
use crate::state::SvcCommand;

mod frame;

pub use frame::{scan_frames, write_frame, TailStatus, FRAME_HEADER_BYTES, WAL_MAGIC};

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
}

impl WalConfig {
    /// A config rooted at `dir` with 1 MiB segments and fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 1024 * 1024,
            fsync: true,
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
    /// recovered count, so it is an absolute index into the journal's
    /// lifetime).
    records: u64,
    /// The index of the record whose write, sync or rotation failed, once
    /// one has: from then on nothing more is written.
    failed_at: Option<u64>,
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
            failed_at: None,
        })
    }

    /// Appends one command, rotating the segment first if the current
    /// one is at the size threshold.
    ///
    /// # Errors
    ///
    /// [`SvcError::WalFailed`], touching nothing, once an earlier write,
    /// sync or rotation has failed. Otherwise the I/O error of a failing
    /// write, sync or rotation, which stops the WAL: the tail may now be
    /// torn, and recovery truncates at that damage, so a record written
    /// behind it would be lost however it was acknowledged. A command
    /// that does not serialize is refused before any byte is written and
    /// does not stop it.
    pub fn append(&mut self, command: &SvcCommand) -> Result<(), SvcError> {
        self.check_running()?;
        let payload = serde_json::to_string(command)
            .map_err(|e| SvcError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))?;
        let written = self.write(payload.as_bytes());
        self.stop_on_error(written)?;
        self.records += 1;
        Ok(())
    }

    /// Writes one frame of `payload`, after a rotation if one is due, and
    /// syncs it if the config asks to.
    fn write(&mut self, payload: &[u8]) -> std::io::Result<()> {
        // A segment holding no frame yet is never closed, however small
        // the threshold.
        if self.bytes >= self.cfg.segment_bytes && self.bytes > WAL_MAGIC.len() as u64 {
            self.rotate()?;
        }
        self.bytes += write_frame(&mut self.file, payload)?;
        if self.cfg.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Closes the current segment and starts the next; the segment index
    /// moves only once the new segment exists.
    fn rotate(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        let next = self.segment_index + 1;
        self.file = create_segment(&self.cfg.dir, next)?;
        self.segment_index = next;
        self.bytes = WAL_MAGIC.len() as u64;
        Ok(())
    }

    /// `sync_data`s the current segment.
    ///
    /// # Errors
    ///
    /// [`SvcError::WalFailed`] once an earlier write, sync or rotation
    /// has failed; otherwise the I/O error of a failing sync, which stops
    /// the WAL as a failed append does.
    pub fn sync(&mut self) -> Result<(), SvcError> {
        self.check_running()?;
        let synced = self.file.sync_data();
        self.stop_on_error(synced)
    }

    fn check_running(&self) -> Result<(), SvcError> {
        match self.failed_at {
            Some(at_record) => Err(SvcError::WalFailed { at_record }),
            None => Ok(()),
        }
    }

    /// Stops the WAL at the current record if `result` is an error.
    fn stop_on_error(&mut self, result: std::io::Result<()>) -> Result<(), SvcError> {
        result.map_err(|e| {
            self.failed_at = Some(self.records);
            SvcError::Io(e)
        })
    }

    /// Records durably appended over the WAL's lifetime.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The index of the record whose write, sync or rotation failed and
    /// stopped the WAL, or `None` while it is running.
    pub fn stopped_at(&self) -> Option<u64> {
        self.failed_at
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

/// The frame of `command` with `damage` done to it, appended to segment
/// `index` of `dir`: what a crash mid-append, or damage after it, leaves.
#[cfg(test)]
pub(crate) fn damage_segment(dir: &Path, index: u64, damage: Damage, command: &SvcCommand) {
    let payload = serde_json::to_string(command).expect("a command serializes");
    let mut segment = OpenOptions::new()
        .append(true)
        .open(segment_path(dir, index))
        .expect("the segment exists");
    segment
        .write_all(&damage.frame(payload.as_bytes()))
        .expect("the damage is written");
}

#[cfg(test)]
pub(crate) use frame::Damage;

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
    fn damage_on_disk_is_truncated_and_appends_resume_after_it() {
        for (damage, expect_torn) in [
            (Damage::TornPayload, true),
            (Damage::ShortHeader, true),
            (Damage::FlipChecksum, false),
        ] {
            let dir = tmp_dir("damage");
            let mut wal = open_fresh(&dir, WalConfig::new(&dir));
            wal.append(&tick(0.0)).unwrap();
            wal.append(&tick(1.0)).unwrap();
            drop(wal); // the crash
            damage_segment(&dir, 0, damage, &tick(2.0));
            let recovery = recover(&dir).unwrap();
            assert_eq!(
                recovery.report.records, 2,
                "{damage:?}: damaged record must not replay"
            );
            assert!(recovery.report.truncated_bytes > 0, "{damage:?}");
            match recovery.report.tail {
                TailStatus::Torn { .. } => assert!(expect_torn, "{damage:?}"),
                TailStatus::Corrupt { .. } => assert!(!expect_torn, "{damage:?}"),
                other => panic!("{damage:?}: unexpected tail {other:?}"),
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
    fn a_failed_rotation_stops_the_wal_at_its_record_index() {
        let dir = tmp_dir("failed-rotation");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 1; // every append after the first rotates
        let mut wal = open_fresh(&dir, cfg);
        // An entry already at segment 3's path: creating it fails.
        std::fs::write(segment_path(&dir, 3), b"not a segment").unwrap();
        for i in 0..3 {
            wal.append(&tick(i as f64)).unwrap();
        }
        match wal.append(&tick(3.0)) {
            Err(SvcError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::AlreadyExists),
            other => panic!("expected the rotation's AlreadyExists, got {other:?}"),
        }
        assert_eq!(wal.records(), 3, "the failed record is not counted");
        assert_eq!(
            wal.segment_index(),
            2,
            "the index names a segment that exists"
        );
        let last = std::fs::read(segment_path(&dir, 2)).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                wal.append(&tick(4.0)),
                Err(SvcError::WalFailed { at_record: 3 })
            ));
            assert!(matches!(
                wal.sync(),
                Err(SvcError::WalFailed { at_record: 3 })
            ));
        }
        assert_eq!(wal.records(), 3);
        assert_eq!(std::fs::read(segment_path(&dir, 2)).unwrap(), last);
        assert!(!segment_path(&dir, 4).exists(), "nothing written after");
        drop(wal);
        let recovery = recover(&dir).unwrap();
        let acked: Vec<SvcCommand> = (0..3).map(|i| tick(i as f64)).collect();
        assert_eq!(recovery.commands, acked);
        assert_eq!(recovery.report.segments_set_aside, 1);
    }

    #[test]
    fn torn_fault_leaves_a_header_and_half_the_record() {
        let dir = tmp_dir("torn");
        let mut wal = open_fresh(&dir, WalConfig::new(&dir));
        wal.append(&tick(0.0)).unwrap();
        drop(wal);
        damage_segment(&dir, 0, Damage::TornPayload, &tick(1.0));
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
            write_frame(&mut bytes, payload).unwrap();
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
