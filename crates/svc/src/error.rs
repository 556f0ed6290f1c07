//! Typed errors of the durable service runtime.

use etrain_core::CoreError;

/// Everything that can go wrong in the durable service layer.
#[derive(Debug)]
pub enum SvcError {
    /// The deterministic core rejected the command (unknown app,
    /// non-monotone timestamp, unknown request). The command was still
    /// journaled — replay hits the same deterministic error and the
    /// same (at most clock-advancing) mutation.
    Core(CoreError),
    /// A write-ahead-log I/O operation failed.
    Io(std::io::Error),
    /// A protocol line did not parse as a request. It was refused before
    /// the journal append, so it changed nothing.
    BadRequest(String),
    /// The WAL fault hook fired on this append: the log tail is now
    /// damaged by construction and the process must crash (the daemon
    /// exits; in-process harnesses drop the service), exactly like a
    /// SIGKILL mid-`write`.
    FaultInjected {
        /// The record index the fault hook targeted.
        at_record: u64,
    },
    /// After replaying the journal prefix the checkpoint covers, the
    /// reconstructed state's fingerprint did not match the checkpoint's.
    /// The verified-checksum prefix itself is inconsistent — recovery
    /// must not proceed silently.
    CheckpointMismatch {
        /// Records the checkpoint claims to cover.
        records: u64,
        /// Fingerprint the checkpoint recorded.
        expected: u64,
        /// Fingerprint the replayed state produced.
        actual: u64,
    },
    /// The checkpoint covers more records than the journal holds — the
    /// journal lost durable, checkpointed history (e.g. a deleted
    /// segment), which zero-loss recovery cannot paper over.
    CheckpointAhead {
        /// Records the checkpoint claims to cover.
        records: u64,
        /// Records the journal actually replayed.
        replayed: u64,
    },
    /// The command carried a time or deadline that is not a finite
    /// number. It was refused before the journal append, so it changed
    /// nothing: JSON has no spelling for `inf` or `NaN` (the serde shim
    /// writes `null`), and a record holding one would replay differently
    /// or not at all.
    NonFiniteTime {
        /// Which value: `"time"` or `"deadline"`.
        field: &'static str,
        /// The value supplied.
        value: f64,
    },
    /// A registered cost profile carried a deadline, ceiling or steepness
    /// that is not a finite number. Refused before the journal append,
    /// like [`SvcError::NonFiniteTime`] and for the same reason.
    NonFiniteProfile {
        /// Which parameter: `"deadline"`, `"ceiling"` or `"steepness"`.
        field: &'static str,
        /// The value supplied.
        value: f64,
    },
    /// A journaled payload passed its checksum but did not decode as a
    /// command — the journal was written by something other than this
    /// service version.
    UndecodableRecord {
        /// Zero-based index of the offending record.
        index: u64,
    },
}

impl std::fmt::Display for SvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcError::Core(e) => write!(f, "core rejected command: {e}"),
            SvcError::Io(e) => write!(f, "WAL I/O error: {e}"),
            SvcError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            SvcError::FaultInjected { at_record } => {
                write!(f, "WAL fault hook fired at record {at_record}; crashing")
            }
            SvcError::CheckpointMismatch {
                records,
                expected,
                actual,
            } => write!(
                f,
                "checkpoint over {records} records expected fingerprint \
                 {expected:016x} but replay produced {actual:016x}"
            ),
            SvcError::CheckpointAhead { records, replayed } => write!(
                f,
                "checkpoint covers {records} records but the journal only \
                 replayed {replayed}"
            ),
            SvcError::NonFiniteTime { field, value } => {
                write!(f, "{field} {value} is not a finite number")
            }
            SvcError::NonFiniteProfile { field, value } => {
                write!(f, "cost profile {field} {value} is not a finite number")
            }
            SvcError::UndecodableRecord { index } => {
                write!(f, "journal record {index} verified but did not decode")
            }
        }
    }
}

impl std::error::Error for SvcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SvcError::Core(e) => Some(e),
            SvcError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for SvcError {
    fn from(e: CoreError) -> Self {
        SvcError::Core(e)
    }
}

impl From<std::io::Error> for SvcError {
    fn from(e: std::io::Error) -> Self {
        SvcError::Io(e)
    }
}
