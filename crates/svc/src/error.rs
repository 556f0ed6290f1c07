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
    /// An earlier write, sync or segment rotation of the journal failed,
    /// so its tail may be torn and it takes no more appends or syncs:
    /// recovery truncates at the first damage, so a record written behind
    /// it would be lost. The command was neither journaled nor applied. A
    /// restart (reopening the service) truncates the damage and resumes.
    WalFailed {
        /// Records the journal held when it stopped: the index of the
        /// record whose append failed.
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
            SvcError::WalFailed { at_record } => write!(
                f,
                "WAL stopped by a failed write at record {at_record}; a restart recovers it"
            ),
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

#[cfg(test)]
mod tests {
    use std::error::Error;

    use super::*;

    #[test]
    fn core_and_io_errors_convert_and_keep_their_source() {
        let core: SvcError = CoreError::TimeWentBackwards {
            now_s: 5.0,
            supplied_s: 4.0,
        }
        .into();
        assert!(matches!(core, SvcError::Core(_)));
        assert!(core.to_string().starts_with("core rejected command: "));
        assert!(core.source().is_some());

        let io: SvcError = std::io::Error::other("disk gone").into();
        assert!(matches!(io, SvcError::Io(_)));
        assert_eq!(io.to_string(), "WAL I/O error: disk gone");
        assert_eq!(io.source().unwrap().to_string(), "disk gone");
    }

    #[test]
    fn errors_raised_by_the_service_itself_have_no_source() {
        let own = [
            SvcError::BadRequest("PING now".into()),
            SvcError::WalFailed { at_record: 3 },
            SvcError::CheckpointAhead {
                records: 9,
                replayed: 4,
            },
            SvcError::NonFiniteTime {
                field: "time",
                value: f64::NAN,
            },
            SvcError::UndecodableRecord { index: 0 },
        ];
        for err in own {
            assert!(err.source().is_none(), "{err}");
        }
    }

    #[test]
    fn a_checkpoint_mismatch_renders_both_fingerprints_as_16_hex_digits() {
        let err = SvcError::CheckpointMismatch {
            records: 12,
            expected: 0xab,
            actual: 0x1_0000_0000,
        };
        assert_eq!(
            err.to_string(),
            "checkpoint over 12 records expected fingerprint 00000000000000ab \
             but replay produced 0000000100000000"
        );
    }

    #[test]
    fn refusals_name_what_was_refused() {
        let cases = [
            (
                SvcError::BadRequest("empty request".into()),
                "bad request: empty request",
            ),
            (
                SvcError::WalFailed { at_record: 7 },
                "WAL stopped by a failed write at record 7; a restart recovers it",
            ),
            (
                SvcError::CheckpointAhead {
                    records: 9,
                    replayed: 4,
                },
                "checkpoint covers 9 records but the journal only replayed 4",
            ),
            (
                SvcError::NonFiniteTime {
                    field: "deadline",
                    value: f64::INFINITY,
                },
                "deadline inf is not a finite number",
            ),
            (
                SvcError::NonFiniteProfile {
                    field: "steepness",
                    value: f64::NEG_INFINITY,
                },
                "cost profile steepness -inf is not a finite number",
            ),
            (
                SvcError::UndecodableRecord { index: 41 },
                "journal record 41 verified but did not decode",
            ),
        ];
        for (err, text) in cases {
            assert_eq!(err.to_string(), text);
        }
    }
}
