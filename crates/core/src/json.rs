//! Canonical JSON of the per-request values the state fingerprints hash.
//!
//! [`ETrainCore::fingerprint`](crate::ETrainCore::fingerprint) and the
//! daemon's service fingerprint hash one JSON rendering per pending,
//! awaiting, backing-off and deduplicated request. Checkpoints on disk
//! store those hashes, so the rendering is a persisted format: it must
//! stay exactly what `serde_json::to_string` writes for the same value.
//! These writers produce those bytes directly, from the scalars in
//! [`etrain_obs::json`], without building a `Value` tree per entry.

use etrain_obs::json::{push_f64, push_u64, push_u64_or_null};
use etrain_trace::packets::Packet;

use crate::request::{Admission, RequestId, TransmitDecision};

/// Appends a [`RequestId`] as serde renders the newtype: its number.
pub fn write_request_id(out: &mut String, id: RequestId) {
    push_u64(out, id.0);
}

/// Appends a [`Packet`] object.
pub fn write_packet(out: &mut String, packet: &Packet) {
    out.push_str("{\"id\":");
    push_u64(out, packet.id);
    out.push_str(",\"app\":");
    push_u64(out, packet.app.0 as u64);
    out.push_str(",\"arrival_s\":");
    push_f64(out, packet.arrival_s);
    out.push_str(",\"size_bytes\":");
    push_u64(out, packet.size_bytes);
    out.push('}');
}

/// Appends a [`TransmitDecision`] object.
pub fn write_decision(out: &mut String, decision: &TransmitDecision) {
    out.push_str("{\"request\":");
    write_request_id(out, decision.request);
    out.push_str(",\"app\":");
    push_u64(out, decision.app.0 as u64);
    out.push_str(",\"size_bytes\":");
    push_u64(out, decision.size_bytes);
    out.push_str(",\"decided_at_s\":");
    push_f64(out, decision.decided_at_s);
    out.push_str(",\"submitted_at_s\":");
    push_f64(out, decision.submitted_at_s);
    out.push_str(",\"piggybacked_on\":");
    push_u64_or_null(out, decision.piggybacked_on.map(|t| t.0 as u64));
    out.push('}');
}

/// Appends an [`Admission`] in serde's externally tagged form: the unit
/// variant as a string, the others as a one-entry object.
pub fn write_admission(out: &mut String, admission: &Admission) {
    match admission {
        Admission::Admitted { id } => {
            out.push_str("{\"Admitted\":{\"id\":");
            write_request_id(out, *id);
        }
        Admission::AdmittedWithEviction { id, evicted } => {
            out.push_str("{\"AdmittedWithEviction\":{\"id\":");
            write_request_id(out, *id);
            out.push_str(",\"evicted\":");
            write_request_id(out, *evicted);
        }
        Admission::AdmittedWithFlush { id, flushed } => {
            out.push_str("{\"AdmittedWithFlush\":{\"id\":");
            write_request_id(out, *id);
            out.push_str(",\"flushed\":");
            write_decision(out, flushed);
        }
        Admission::Rejected => {
            out.push_str("\"Rejected\"");
            return;
        }
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use etrain_trace::{CargoAppId, TrainAppId};

    use super::*;

    fn written(write: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        write(&mut out);
        out
    }

    fn decision(piggybacked_on: Option<TrainAppId>) -> TransmitDecision {
        TransmitDecision {
            request: RequestId(7),
            app: CargoAppId(2),
            size_bytes: 1_500,
            decided_at_s: 12.0,
            submitted_at_s: 3.25,
            piggybacked_on,
        }
    }

    /// Checkpoints hash these bytes, so they are pinned literally, not
    /// only against the serde rendering.
    #[test]
    fn decisions_and_packets_have_pinned_bytes() {
        assert_eq!(
            written(|out| write_decision(out, &decision(Some(TrainAppId(1))))),
            r#"{"request":7,"app":2,"size_bytes":1500,"decided_at_s":12.0,"submitted_at_s":3.25,"piggybacked_on":1}"#
        );
        assert_eq!(
            written(|out| write_decision(out, &decision(None))),
            r#"{"request":7,"app":2,"size_bytes":1500,"decided_at_s":12.0,"submitted_at_s":3.25,"piggybacked_on":null}"#
        );
        let packet = Packet {
            id: 9,
            app: CargoAppId(0),
            arrival_s: -0.5,
            size_bytes: 1,
        };
        assert_eq!(
            written(|out| write_packet(out, &packet)),
            r#"{"id":9,"app":0,"arrival_s":-0.5,"size_bytes":1}"#
        );
    }

    #[test]
    fn each_admission_variant_has_pinned_bytes() {
        let (id, evicted) = (RequestId(4), RequestId(u64::MAX));
        let cases = [
            (
                Admission::Admitted { id },
                r#"{"Admitted":{"id":4}}"#.to_owned(),
            ),
            (
                Admission::AdmittedWithEviction { id, evicted },
                r#"{"AdmittedWithEviction":{"id":4,"evicted":18446744073709551615}}"#.to_owned(),
            ),
            (
                Admission::AdmittedWithFlush {
                    id,
                    flushed: decision(None),
                },
                format!(
                    r#"{{"AdmittedWithFlush":{{"id":4,"flushed":{}}}}}"#,
                    written(|out| write_decision(out, &decision(None)))
                ),
            ),
            (Admission::Rejected, r#""Rejected""#.to_owned()),
        ];
        for (admission, bytes) in cases {
            assert_eq!(written(|out| write_admission(out, &admission)), bytes);
        }
    }
}
