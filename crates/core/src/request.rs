//! Request and decision types exchanged between cargo apps and eTrain.

use etrain_trace::{CargoAppId, TrainAppId};
use serde::{Deserialize, Serialize};

/// Unique identifier of a submitted transmit request.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Transfer direction of a request. Downloads cover the paper's prefetching
/// use case ("when a cargo app ... wants to download some data (mainly for
/// prefetching purpose)", Sec. V-4); both directions wake the radio, so the
/// scheduler treats them identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Send data to a server.
    Upload,
    /// Fetch/prefetch data from a server.
    Download,
}

/// The meta-data a cargo app submits with a transmission request
/// (paper Sec. V-4: "contains meta-data about the transmission, e.g., size
/// of the data packet and its deadline for delivery").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransmitRequest {
    /// Payload size in bytes.
    pub size_bytes: u64,
    /// Transfer direction.
    pub direction: Direction,
    /// Optional per-request deadline override in seconds (falls back to
    /// the app profile's deadline when `None`).
    pub deadline_s: Option<f64>,
}

impl TransmitRequest {
    /// Creates an upload request of `size_bytes` with no deadline override.
    pub fn upload(size_bytes: u64) -> Self {
        TransmitRequest {
            size_bytes,
            direction: Direction::Upload,
            deadline_s: None,
        }
    }

    /// Creates a download/prefetch request of `size_bytes`.
    pub fn download(size_bytes: u64) -> Self {
        TransmitRequest {
            size_bytes,
            direction: Direction::Download,
            deadline_s: None,
        }
    }

    /// Sets a per-request deadline, returning the modified request.
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }
}

/// A transmission decision for a cargo app ("eTrain also delivers the
/// transmission decisions (about when and which packet should be
/// transmitted) ... using the broadcast module", Sec. V-4). The core
/// returns it from the call that released it; `etrain-svcd` writes it
/// into that call's reply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransmitDecision {
    /// The request to transmit now.
    pub request: RequestId,
    /// The cargo app that owns the request.
    pub app: CargoAppId,
    /// Payload size in bytes (echoed so the transport layer needs no
    /// lookup).
    pub size_bytes: u64,
    /// When the decision was made, in seconds since system start.
    pub decided_at_s: f64,
    /// When the request was submitted, in seconds since system start.
    pub submitted_at_s: f64,
    /// The train whose heartbeat this decision piggybacks on, if the
    /// decision was made at a heartbeat.
    pub piggybacked_on: Option<TrainAppId>,
}

impl TransmitDecision {
    /// The request's scheduling delay: decision time − submission time.
    pub fn delay_s(&self) -> f64 {
        self.decided_at_s - self.submitted_at_s
    }
}

/// Outcome of submitting a transmission request under bounded admission
/// (see [`crate::CoreConfig::admission`]). With the default unbounded
/// configuration every submission is [`Admission::Admitted`]; once a queue
/// capacity is configured, the active shed policy decides how an overflow
/// is resolved and that resolution is reported here, typed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Admission {
    /// The request was admitted; a [`TransmitDecision`] will follow from a
    /// later tick or heartbeat.
    Admitted {
        /// Id of the newly admitted request.
        id: RequestId,
    },
    /// The queue was full; the drop-lowest-value policy shed the queued
    /// request whose current delay cost was cheapest to make room.
    AdmittedWithEviction {
        /// Id of the newly admitted request.
        id: RequestId,
        /// The previously queued request that was shed (it will never
        /// receive a decision).
        evicted: RequestId,
    },
    /// The queue was full; the force-flush-oldest policy released the
    /// oldest queued request for immediate transmission to make room.
    AdmittedWithFlush {
        /// Id of the newly admitted request.
        id: RequestId,
        /// The early-release decision for the flushed request. It must be
        /// acted on (transmitted) like any other decision.
        flushed: TransmitDecision,
    },
    /// The queue was full and the reject-new policy dropped this request;
    /// no id was issued. Resubmit after backing off.
    Rejected,
}

impl Admission {
    /// The id of the admitted request, or `None` when it was rejected.
    pub fn id(&self) -> Option<RequestId> {
        match self {
            Admission::Admitted { id }
            | Admission::AdmittedWithEviction { id, .. }
            | Admission::AdmittedWithFlush { id, .. } => Some(*id),
            Admission::Rejected => None,
        }
    }
}

/// Outcome of a transmission attempt, reported back by the cargo app (or
/// the transport layer acting on its behalf) after acting on a
/// [`TransmitDecision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TxResult {
    /// The transfer completed; the request is closed.
    Delivered,
    /// The transfer failed mid-flight (radio lost the channel, server
    /// reset, …); the energy is spent and the core decides whether to
    /// retry.
    Failed,
}

/// The core's verdict on a reported [`TxResult::Failed`] (or
/// acknowledgement of a [`TxResult::Delivered`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryVerdict {
    /// The delivery was recorded; nothing further happens.
    Delivered,
    /// The request re-enters the scheduler after a backoff; a fresh
    /// [`TransmitDecision`] will be issued at or after `resume_at_s`.
    RetryScheduled {
        /// Earliest time the request is re-offered to the scheduler, in
        /// seconds.
        resume_at_s: f64,
    },
    /// The retry policy gave up (attempts exhausted or deadline-aware
    /// give-up); the request is closed without delivery.
    Abandoned,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders() {
        let up = TransmitRequest::upload(100).with_deadline(30.0);
        assert_eq!(up.direction, Direction::Upload);
        assert_eq!(up.deadline_s, Some(30.0));
        let down = TransmitRequest::download(5);
        assert_eq!(down.direction, Direction::Download);
        assert_eq!(down.deadline_s, None);
    }

    #[test]
    fn decision_delay() {
        let d = TransmitDecision {
            request: RequestId(1),
            app: CargoAppId(0),
            size_bytes: 10,
            decided_at_s: 42.0,
            submitted_at_s: 40.0,
            piggybacked_on: Some(TrainAppId(2)),
        };
        assert_eq!(d.delay_s(), 2.0);
        assert_eq!(RequestId(1).to_string(), "req#1");
    }

    #[test]
    fn only_a_rejection_carries_no_id() {
        let flushed = TransmitDecision {
            request: RequestId(3),
            app: CargoAppId(0),
            size_bytes: 1,
            decided_at_s: 1.0,
            submitted_at_s: 0.0,
            piggybacked_on: None,
        };
        let (id, evicted) = (RequestId(7), RequestId(2));
        for admitted in [
            Admission::Admitted { id },
            Admission::AdmittedWithEviction { id, evicted },
            Admission::AdmittedWithFlush { id, flushed },
        ] {
            assert_eq!(admitted.id(), Some(id));
        }
        assert_eq!(Admission::Rejected.id(), None);
    }
}
