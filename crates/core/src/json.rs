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
