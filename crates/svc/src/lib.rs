//! # etrain-svc — the eTrain core as a durable daemon
//!
//! Everything below `etrain-svc` is deterministic and sans-IO: the core
//! consumes explicitly timestamped commands and its state is a pure
//! function of the command stream. This crate is the thin durable shell
//! that turns that property into crash safety:
//!
//! * **Write-ahead journal** ([`Wal`]): every admission, flush decision,
//!   health transition, and heartbeat registration is serialized, framed
//!   with a length and CRC-32 ([`write_frame`]), and fsynced *before* it
//!   is applied. Segments rotate at a size threshold; recovery scans them,
//!   truncates a torn/corrupt tail to the last valid frame, sets aside
//!   unreadable segments, and replays the survivors through
//!   [`ServiceState::apply`] to land on bit-for-bit the pre-crash state.
//!   A time, deadline or cost profile parameter that is `inf` or `NaN`
//!   is refused before the append ([`SvcError::NonFiniteTime`],
//!   [`SvcError::NonFiniteProfile`]): JSON has no spelling for it.
//! * **Restart cost**: recovery is a scan, a decode, a replay and one
//!   fingerprint, and none of them builds a serde `Value` tree for a
//!   per-request record. Frames are checksummed with a slicing-by-8
//!   CRC-32 and decoded in place; [`decode_canonical`] reads the
//!   per-request verbs straight from the segment bytes and leaves the
//!   rest (registrations, records from other builds) to `serde_json`.
//!   The fingerprint writes each pending, awaiting and deduplicated
//!   entry's JSON by hand. Both byte formats are pinned: the record
//!   format by `tests/golden/wal_v1.jsonl`, the fingerprints by the
//!   workspace's `tests/fingerprints.rs`.
//! * **Checkpoints** ([`Checkpoint`]): `{records, fingerprint}` pairs —
//!   not snapshots. Recovery always replays the full journal and checks
//!   the FNV-1a state fingerprint at the checkpointed prefix, turning
//!   silent divergence into a hard [`SvcError::CheckpointMismatch`].
//! * **Idempotent submit**: clients attach a request id; duplicates are
//!   answered from the WAL-rebuilt dedup table without a second append,
//!   so a client that crashed between send and ack can safely resend.
//! * **Line-protocol server** ([`Server`]): a std-TCP front end with
//!   per-connection timeouts and a bounded connection count. `SUBMIT`
//!   replies carry the core's typed `Admission`; `etrain-svcd` opens the
//!   core with `CoreConfig::default()`, whose admission is unbounded, so
//!   its queue is unbounded too and no reply is ever `EVICTED`, `FLUSHED`
//!   or `REJECTED`.
//! * **Fault hook** ([`WalFault`], `ETRAIN_WAL_FAULT`): deterministic
//!   torn/short/corrupt append injection so the daemon's process tests
//!   can prove the recovery path detects and truncates damaged tails.
//!   The frame format itself ([`write_frame`], [`scan_frames`],
//!   [`WAL_MAGIC`]) is public so the tests can write and read segment
//!   bytes directly.
//!
//! The write-ahead discipline means a crash can leave the journal
//! *ahead* of what any client observed (an appended-but-unacked
//! command), never behind: replay applies it, and the idempotent submit
//! path resolves the client's ambiguity. That one-sided error bar is
//! what the chaos campaign's zero-loss oracle checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The daemon's request, WAL and recovery paths must not panic on
// `unwrap`/`expect`; failures surface as typed `SvcError`s. Tests (and
// doctests, which compile as separate crates) are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod error;
mod record;
pub mod script;
mod server;
mod service;
mod state;
mod wal;

pub use error::SvcError;
pub use record::decode_canonical;
pub use server::{
    execute_line, try_addr_from_env, Server, ServerConfig, FAULT_EXIT_CODE, SVC_ADDR_ENV,
};
pub use service::{DurableService, RecoverySummary};
pub use state::{ServiceState, SvcCommand, SvcHealthConfig, SvcOutcome};
pub use wal::{
    read_checkpoint, recover, scan_frames, write_checkpoint, write_frame, Append, AppendFault,
    Checkpoint, TailStatus, Wal, WalConfig, WalFault, WalRecovery, WalRecoveryReport,
    FRAME_HEADER_BYTES, WAL_ENV, WAL_FAULT_ENV, WAL_MAGIC,
};

/// Strict `ETRAIN_WAL` reader: `Ok(None)` when unset or empty, the
/// journal directory otherwise, `Err` when the value names an existing
/// non-directory.
///
/// # Errors
///
/// Returns a description of the unusable path.
pub fn try_wal_dir_from_env() -> Result<Option<std::path::PathBuf>, String> {
    match std::env::var(WAL_ENV) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => {
            let path = std::path::PathBuf::from(raw.trim());
            if path.exists() && !path.is_dir() {
                Err(format!(
                    "invalid {WAL_ENV} {:?} (exists but is not a directory)",
                    path.display().to_string()
                ))
            } else {
                Ok(Some(path))
            }
        }
    }
}
