//! The durable service: write-ahead journal in front of the replayable
//! state.
//!
//! Ordering discipline (the whole point of the crate):
//!
//! 0. **Finite numbers** — a command whose time or deadline is `inf` or
//!    `NaN` is refused ([`SvcError::NonFiniteTime`]), and so is a cost
//!    profile with such a parameter ([`SvcError::NonFiniteProfile`]):
//!    JSON cannot spell them, so the record would replay differently or
//!    not decode at all.
//! 1. **Dedup check** — an idempotent submission whose `client_id` is
//!    already in the table is answered from it, with no append and no
//!    state change.
//! 2. **Append** — the command is framed, checksummed, and (by default)
//!    fsynced *before* it takes effect.
//! 3. **Apply** — the command mutates the [`ServiceState`].
//!
//! A crash between 2 and 3 is harmless: replay applies the journaled
//! command, so the recovered daemon is *ahead* of what the client heard,
//! never behind — and the idempotent submit path lets the client resend
//! safely to find out what happened. A crash *during* 2 leaves a torn
//! tail that recovery truncates; the command never happened, matching
//! the client's timeout.

use std::path::PathBuf;
use std::sync::mpsc::sync_channel;

use etrain_core::CoreConfig;

use crate::error::SvcError;
use crate::state::{ServiceState, SvcCommand, SvcHealthConfig, SvcOutcome};
use crate::wal::{
    read_checkpoint, write_checkpoint, Append, Checkpoint, Scan, Wal, WalConfig, WalRecovery,
    WalRecoveryReport,
};

/// What recovery found, repaired, and verified when opening the service.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySummary {
    /// The WAL scan-and-repair report.
    pub wal: WalRecoveryReport,
    /// Journal records replayed into the state (including ones that
    /// deterministically errored and therefore changed nothing).
    pub replayed: u64,
    /// Replayed commands that errored (deterministically, exactly as
    /// they did pre-crash).
    pub replay_errors: u64,
    /// Records covered by the checkpoint that was verified, if any.
    pub checkpoint_verified: Option<u64>,
    /// The state fingerprint after full replay.
    pub fingerprint: u64,
}

/// [`ServiceState`] behind a write-ahead log.
#[derive(Debug)]
pub struct DurableService {
    wal: Wal,
    wal_dir: PathBuf,
    state: ServiceState,
}

impl DurableService {
    /// Opens (or creates) the service at `wal.dir`: scans and repairs
    /// the journal, replays it into a fresh state, verifies the replay
    /// against the last clean checkpoint, and resumes appending.
    ///
    /// The scan runs on a second thread, a couple of segments ahead of
    /// the replay at most, so reading, checksumming and decoding overlap
    /// applying, and only those segments' decoded commands are held at
    /// once. The outcome is that of [`recover`] followed by the replay: a
    /// scan error wins over a checkpoint error found before it.
    ///
    /// # Errors
    ///
    /// I/O failures, an undecodable verified record, or a checkpoint
    /// whose fingerprint the replay contradicts
    /// ([`SvcError::CheckpointMismatch`] /
    /// [`SvcError::CheckpointAhead`]).
    ///
    /// [`recover`]: crate::recover
    pub fn open(
        wal: WalConfig,
        core: CoreConfig,
        health: SvcHealthConfig,
    ) -> Result<(Self, RecoverySummary), SvcError> {
        std::fs::create_dir_all(&wal.dir)?;
        let mut replay = Replay::new(ServiceState::new(core, health), read_checkpoint(&wal.dir));
        let dir = &wal.dir;
        let recovery = std::thread::scope(|scope| {
            let (segments, received) = sync_channel(SEGMENTS_AHEAD);
            let scanner = scope.spawn(move || -> Result<WalRecovery, SvcError> {
                let mut scan = Scan::new(dir)?;
                loop {
                    let mut commands = Vec::new();
                    // A closed channel means the replay panicked.
                    if !scan.next_segment(&mut commands)? || segments.send(commands).is_err() {
                        return Ok(scan.finish(Vec::new()));
                    }
                }
            });
            for commands in received {
                replay.feed(&commands);
            }
            scanner
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })?;
        let (state, summary) = replay.finish(recovery.report.clone())?;
        let wal_dir = wal.dir.clone();
        let wal = Wal::open(wal, &recovery)?;
        Ok((
            DurableService {
                wal,
                wal_dir,
                state,
            },
            summary,
        ))
    }

    /// Journals, then applies, one command (the write-ahead discipline
    /// described at module level). Idempotent submissions short-circuit
    /// on the dedup table without touching the journal.
    ///
    /// # Errors
    ///
    /// [`SvcError::NonFiniteTime`] for a time or deadline that is `inf`
    /// or `NaN`, and [`SvcError::NonFiniteProfile`] for such a cost
    /// profile parameter (both refused before the append, so nothing is
    /// journaled),
    /// [`SvcError::FaultInjected`] when the armed fault hook fired (the
    /// state was *not* mutated; the caller must crash), I/O failures,
    /// and deterministic core rejections (which *are* journaled — replay
    /// repeats them identically).
    pub fn apply(&mut self, command: SvcCommand) -> Result<SvcOutcome, SvcError> {
        if let Some(refusal) = command.non_finite() {
            return Err(refusal);
        }
        if let SvcCommand::SubmitIdem { client_id, .. } = &command {
            if let Some(admission) = self.state.cached_submission(client_id) {
                return Ok(SvcOutcome::Duplicate { admission });
            }
        }
        match self.wal.append(&command)? {
            Append::Ok => {}
            Append::FaultInjected => {
                return Err(SvcError::FaultInjected {
                    at_record: self.wal.records(),
                })
            }
        }
        self.state.apply(&command)
    }

    /// Writes a clean checkpoint covering everything journaled so far:
    /// `(records, fingerprint)` atomically replacing the previous one.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn checkpoint(&mut self) -> Result<Checkpoint, SvcError> {
        self.wal.sync()?;
        let checkpoint = Checkpoint {
            records: self.wal.records(),
            fingerprint: self.state.fingerprint(),
        };
        write_checkpoint(&self.wal_dir, checkpoint)?;
        Ok(checkpoint)
    }

    /// The replayable state (read-only; mutations go through
    /// [`DurableService::apply`]).
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// Journal records durably appended over the service's lifetime.
    pub fn records(&self) -> u64 {
        self.wal.records()
    }

    /// The state fingerprint (see [`ServiceState::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.state.fingerprint()
    }
}

/// Segments the scan may read ahead of the replay in
/// [`DurableService::open`].
const SEGMENTS_AHEAD: usize = 2;

/// The replay side of [`DurableService::open`]: applies the scanned
/// commands in order and checks the checkpoint once exactly the records
/// it covers have been applied.
struct Replay {
    state: ServiceState,
    /// Records the checkpoint covers.
    covered: Option<u64>,
    /// The checkpoint while the replay has not reached it.
    ahead: Option<Checkpoint>,
    /// The fingerprint the checkpoint was verified with.
    verified: Option<u64>,
    /// A checkpoint mismatch; later commands are counted, not applied.
    mismatch: Option<SvcError>,
    scanned: u64,
    applied: u64,
    errors: u64,
}

impl Replay {
    fn new(state: ServiceState, checkpoint: Option<Checkpoint>) -> Self {
        Replay {
            state,
            covered: checkpoint.map(|ckpt| ckpt.records),
            ahead: checkpoint,
            verified: None,
            mismatch: None,
            scanned: 0,
            applied: 0,
            errors: 0,
        }
    }

    /// Applies the next `commands` of the journal, stopping at the
    /// checkpoint to check it. Replayed commands error exactly as they
    /// did live; the errors are counted.
    fn feed(&mut self, mut commands: &[SvcCommand]) {
        self.scanned += commands.len() as u64;
        while self.mismatch.is_none() {
            let due = self.ahead.map(|ckpt| ckpt.records - self.applied);
            if due == Some(0) {
                self.check();
                continue;
            }
            if commands.is_empty() {
                return;
            }
            let len = commands.len() as u64;
            let take = due.map_or(len, |due| due.min(len));
            let (now, later) = commands.split_at(take as usize);
            for command in now {
                if self.state.apply(command).is_err() {
                    self.errors += 1;
                }
            }
            self.applied += take;
            commands = later;
        }
    }

    fn check(&mut self) {
        let Some(ckpt) = self.ahead.take() else {
            return;
        };
        let actual = self.state.fingerprint();
        if actual == ckpt.fingerprint {
            self.verified = Some(actual);
        } else {
            self.mismatch = Some(SvcError::CheckpointMismatch {
                records: ckpt.records,
                expected: ckpt.fingerprint,
                actual,
            });
        }
    }

    /// The replayed state and its summary, once the scan has ended with
    /// `wal`.
    fn finish(
        mut self,
        wal: WalRecoveryReport,
    ) -> Result<(ServiceState, RecoverySummary), SvcError> {
        // A checkpoint that covers the whole journal is due only now
        // when the journal is empty.
        self.feed(&[]);
        if let Some(mismatch) = self.mismatch {
            return Err(mismatch);
        }
        if let Some(ckpt) = self.ahead {
            return Err(SvcError::CheckpointAhead {
                records: ckpt.records,
                replayed: self.scanned,
            });
        }
        let fingerprint = match self.verified {
            Some(fingerprint) if self.covered == Some(self.applied) => fingerprint,
            _ => self.state.fingerprint(),
        };
        let summary = RecoverySummary {
            wal,
            replayed: self.scanned,
            replay_errors: self.errors,
            checkpoint_verified: self.covered,
            fingerprint,
        };
        Ok((self.state, summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{AppendFault, WalFault};
    use etrain_core::{CoreCommand, TransmitRequest};
    use etrain_sched::{AppProfile, CostProfile};
    use etrain_trace::{CargoAppId, TrainAppId};
    use std::path::Path;

    fn tmp_dir(tag: &str) -> PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("etrain-svc-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fast_core() -> CoreConfig {
        CoreConfig {
            theta: 5.0,
            ..CoreConfig::default()
        }
    }

    fn open(dir: &Path) -> (DurableService, RecoverySummary) {
        let mut cfg = WalConfig::new(dir);
        cfg.fsync = false; // tests don't need real durability
        DurableService::open(cfg, fast_core(), SvcHealthConfig::default()).unwrap()
    }

    fn register(svc: &mut DurableService) {
        svc.apply(SvcCommand::Core(CoreCommand::RegisterTrain {
            name: "WeChat".into(),
        }))
        .unwrap();
        svc.apply(SvcCommand::Core(CoreCommand::RegisterCargo {
            profile: AppProfile::new("Mail", CostProfile::mail(300.0)),
        }))
        .unwrap();
    }

    /// An idempotent upload for the Mail app `register` adds.
    fn submit(client_id: &str, bytes: u64, now_s: f64) -> SvcCommand {
        SvcCommand::SubmitIdem {
            client_id: client_id.into(),
            app: CargoAppId(0),
            request: TransmitRequest::upload(bytes),
            now_s,
        }
    }

    #[test]
    fn crash_and_recover_is_bit_for_bit() {
        let dir = tmp_dir("recover");
        let (mut svc, summary) = open(&dir);
        assert_eq!(summary.replayed, 0);
        register(&mut svc);
        svc.apply(submit("c-1", 2_000, 1.0)).unwrap();
        svc.apply(SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(0),
            now_s: 5.0,
        }))
        .unwrap();
        let live_fp = svc.fingerprint();
        let live_records = svc.records();
        drop(svc); // SIGKILL stand-in

        let (recovered, summary) = open(&dir);
        assert_eq!(summary.replayed, live_records);
        assert_eq!(summary.replay_errors, 0);
        assert_eq!(recovered.fingerprint(), live_fp);
        assert_eq!(summary.fingerprint, live_fp);
    }

    #[test]
    fn checkpoint_is_verified_on_recovery() {
        let dir = tmp_dir("ckpt");
        let (mut svc, _) = open(&dir);
        register(&mut svc);
        let ckpt = svc.checkpoint().unwrap();
        svc.apply(SvcCommand::Core(CoreCommand::Tick { now_s: 1.0 }))
            .unwrap();
        drop(svc);
        let (_, summary) = open(&dir);
        assert_eq!(summary.checkpoint_verified, Some(ckpt.records));
        assert_eq!(summary.replayed, ckpt.records + 1);
    }

    #[test]
    fn a_checkpoint_at_the_end_of_the_journal_verifies_on_reopen() {
        // Over an empty journal and over a non-empty one.
        for registered in [false, true] {
            let dir = tmp_dir("ckptend");
            let (mut svc, _) = open(&dir);
            if registered {
                register(&mut svc);
            }
            let ckpt = svc.checkpoint().unwrap();
            let live = svc.fingerprint();
            drop(svc);
            let (reopened, summary) = open(&dir);
            assert_eq!(summary.checkpoint_verified, Some(ckpt.records));
            assert_eq!(summary.replayed, ckpt.records);
            assert_eq!(summary.fingerprint, live);
            assert_eq!(reopened.fingerprint(), live);
        }
    }

    #[test]
    fn corrupted_history_fails_checkpoint_verification() {
        let dir = tmp_dir("ckptbad");
        let (mut svc, _) = open(&dir);
        register(&mut svc);
        svc.checkpoint().unwrap();
        drop(svc);
        // Forge a checkpoint claiming a different past.
        write_checkpoint(
            &dir,
            Checkpoint {
                records: 2,
                fingerprint: 0x1234,
            },
        )
        .unwrap();
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = false;
        let err = DurableService::open(cfg, fast_core(), SvcHealthConfig::default()).unwrap_err();
        assert!(matches!(err, SvcError::CheckpointMismatch { .. }), "{err}");
    }

    #[test]
    fn checkpoint_ahead_of_journal_is_rejected() {
        let dir = tmp_dir("ckptahead");
        let (mut svc, _) = open(&dir);
        register(&mut svc);
        drop(svc);
        write_checkpoint(
            &dir,
            Checkpoint {
                records: 99,
                fingerprint: 0,
            },
        )
        .unwrap();
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = false;
        let err = DurableService::open(cfg, fast_core(), SvcHealthConfig::default()).unwrap_err();
        assert!(matches!(err, SvcError::CheckpointAhead { .. }), "{err}");
    }

    #[test]
    fn duplicate_submit_survives_crash_without_double_apply() {
        let dir = tmp_dir("dup");
        let (mut svc, _) = open(&dir);
        register(&mut svc);
        let first = svc.apply(submit("key", 1_000, 1.0)).unwrap();
        let SvcOutcome::Submitted { admission } = first else {
            panic!("{first:?}")
        };
        let id = admission.id().unwrap();
        drop(svc);
        // The client never heard the answer; after restart it resends.
        let (mut svc, _) = open(&dir);
        let dup = svc.apply(submit("key", 1_000, 2.0)).unwrap();
        let SvcOutcome::Duplicate { admission } = dup else {
            panic!("resend after recovery must hit the dedup table: {dup:?}")
        };
        assert_eq!(admission.id(), Some(id));
        assert_eq!(svc.state().stats().submitted, 1, "no double apply");
        // And the duplicate wrote nothing: a third open replays the same
        // record count.
        let records = svc.records();
        drop(svc);
        let (_, summary) = open(&dir);
        assert_eq!(summary.replayed, records);
    }

    #[test]
    fn fault_injection_crashes_before_apply_and_recovery_truncates() {
        let dir = tmp_dir("fault");
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = false;
        cfg.fault = Some(WalFault {
            at_record: 2,
            kind: AppendFault::TornPayload,
        });
        let (mut svc, _) =
            DurableService::open(cfg, fast_core(), SvcHealthConfig::default()).unwrap();
        register(&mut svc);
        let fp_before = svc.fingerprint();
        let err = svc
            .apply(SvcCommand::Core(CoreCommand::Tick { now_s: 1.0 }))
            .unwrap_err();
        assert!(matches!(err, SvcError::FaultInjected { .. }), "{err}");
        assert_eq!(svc.fingerprint(), fp_before, "faulted append never applies");
        drop(svc); // crash
        let (recovered, summary) = open(&dir);
        assert_eq!(summary.replayed, 2, "only the clean prefix replays");
        assert!(summary.wal.truncated_bytes > 0);
        assert_eq!(recovered.fingerprint(), fp_before);
    }

    #[test]
    fn deterministic_errors_replay_identically() {
        let dir = tmp_dir("errs");
        let (mut svc, _) = open(&dir);
        register(&mut svc);
        // Unknown train: journaled, rejected, state unchanged.
        let err = svc.apply(SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(7),
            now_s: 1.0,
        }));
        assert!(err.is_err());
        let fp = svc.fingerprint();
        drop(svc);
        let (recovered, summary) = open(&dir);
        assert_eq!(summary.replay_errors, 1);
        assert_eq!(recovered.fingerprint(), fp);
    }
}
