//! # etrain-svc — the eTrain core as a durable daemon
//!
//! Everything below `etrain-svc` is deterministic and sans-IO: the core
//! consumes explicitly timestamped commands and its state is a pure
//! function of the command stream. This crate is the thin durable shell
//! that turns that property into crash safety:
//!
//! * **Write-ahead journal** ([`Wal`]): every admission, flush decision,
//!   health transition, and heartbeat registration is serialized (via
//!   `etrain-obs`'s checksummed frame format) and fsynced *before* it is
//!   applied. Segments rotate at a size threshold; recovery scans them,
//!   truncates a torn/corrupt tail to the last valid frame, sets aside
//!   unreadable segments, and replays the survivors through
//!   [`ServiceState::apply`] to land on bit-for-bit the pre-crash state.
//! * **Checkpoints** ([`Checkpoint`]): `{records, fingerprint}` pairs —
//!   not snapshots. Recovery always replays the full journal and checks
//!   the FNV-1a state fingerprint at the checkpointed prefix, turning
//!   silent divergence into a hard [`SvcError::CheckpointMismatch`].
//! * **Idempotent submit**: clients attach a request id; duplicates are
//!   answered from the WAL-rebuilt dedup table without a second append,
//!   so a client that crashed between send and ack can safely resend.
//! * **Line-protocol server** ([`Server`]): a std-TCP front end with
//!   per-connection timeouts and a bounded connection count, feeding the
//!   existing `AdmissionConfig` shed policies.
//! * **Fault hook** ([`WalFault`], `ETRAIN_WAL_FAULT`): deterministic
//!   torn/short/corrupt append injection so the chaos supervisor can
//!   prove the recovery path detects and truncates damaged tails.
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
pub mod script;
mod server;
mod service;
mod state;
mod wal;

pub use error::SvcError;
pub use server::{
    execute_line, try_addr_from_env, Server, ServerConfig, FAULT_EXIT_CODE, SVC_ADDR_ENV,
};
pub use service::{DurableService, RecoverySummary};
pub use state::{AdmissionSummary, ServiceState, SvcCommand, SvcHealthConfig, SvcOutcome};
pub use wal::{
    read_checkpoint, recover, write_checkpoint, Append, Checkpoint, FaultKind, Wal, WalConfig,
    WalFault, WalRecovery, WalRecoveryReport, WAL_ENV, WAL_FAULT_ENV,
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
