use etrain_trace::{CargoAppId, TrainAppId};

use crate::request::RequestId;

/// Error produced by the eTrain system runtime.
///
/// Marked `#[non_exhaustive]`: the failure taxonomy grows as the runtime
/// gains subsystems (the retry layer added [`CoreError::UnknownRequest`]),
/// so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A request referenced a cargo app that never registered.
    UnknownCargoApp {
        /// The unknown app id.
        app: CargoAppId,
    },
    /// A heartbeat referenced a train app that never registered.
    UnknownTrainApp {
        /// The unknown train id.
        train: TrainAppId,
    },
    /// A result was reported for a request the core is not awaiting: never
    /// issued, already closed, or reported twice.
    UnknownRequest {
        /// The unknown or already-settled request id.
        request: RequestId,
    },
    /// Time went backwards (the system clock is monotone).
    TimeWentBackwards {
        /// The current system time in seconds.
        now_s: f64,
        /// The earlier timestamp that was supplied.
        supplied_s: f64,
    },
    /// A timestamp was NaN or infinite.
    NonFiniteTime {
        /// The timestamp that was supplied.
        supplied_s: f64,
    },
    /// A [`CoreConfig`](crate::CoreConfig) failed
    /// [`CoreConfig::validate`](crate::CoreConfig::validate).
    InvalidConfig {
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::UnknownCargoApp { app } => {
                write!(f, "cargo app {app} is not registered")
            }
            CoreError::UnknownTrainApp { train } => {
                write!(f, "train app {train} is not registered")
            }
            CoreError::UnknownRequest { request } => {
                write!(f, "request {request} is not awaiting a transmission result")
            }
            CoreError::TimeWentBackwards { now_s, supplied_s } => write!(
                f,
                "time went backwards: system is at {now_s} s, got {supplied_s} s"
            ),
            CoreError::NonFiniteTime { supplied_s } => {
                write!(f, "timestamp must be finite, got {supplied_s} s")
            }
            CoreError::InvalidConfig { reason } => write!(f, "invalid core config: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_name_the_offending_id_or_time() {
        let cases = [
            (CoreError::UnknownCargoApp { app: CargoAppId(4) }, "4"),
            (
                CoreError::UnknownTrainApp {
                    train: TrainAppId(5),
                },
                "5",
            ),
            (
                CoreError::UnknownRequest {
                    request: RequestId(6),
                },
                "req#6",
            ),
            (
                CoreError::TimeWentBackwards {
                    now_s: 9.0,
                    supplied_s: 8.5,
                },
                "8.5",
            ),
            (
                CoreError::NonFiniteTime {
                    supplied_s: f64::NAN,
                },
                "NaN",
            ),
            (
                CoreError::InvalidConfig {
                    reason: "k must be at least 1".into(),
                },
                "k must be at least 1",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
