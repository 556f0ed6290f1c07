//! The structured event taxonomy and the journal that accumulates it.

use serde::{Deserialize, Serialize};

use crate::json::{push_bool, push_f64, push_str, push_u64};

/// One observable decision or state change in the eTrain system.
///
/// Every variant corresponds to a decision point named in the paper's
/// evaluation: heartbeats firing (§III-A), tails being re-used for cargo
/// (§III-B), the Lyapunov piggyback decision with its Θ comparison
/// (Algorithm 1), RRC state transitions (§II), overload shedding and
/// health-ladder transitions (post-paper hardening), and retry attempts
/// under fault injection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// An IM heartbeat departed (the "train" the cargo rides).
    HeartbeatFired {
        /// Heartbeat payload size in bytes.
        size_bytes: u64,
    },
    /// A transmission started while the radio was already out of IDLE,
    /// re-using a promotion or tail instead of paying a fresh one.
    TailReuse {
        /// RRC state the radio was in when the transmission started
        /// (`"dch"` or `"fach"`).
        from_state: String,
        /// Bytes of the transmission that re-used the tail.
        size_bytes: u64,
    },
    /// One invocation of the Lyapunov piggyback rule (Algorithm 1).
    PiggybackDecision {
        /// Aggregate delay cost `P(t)` of the waiting queues at decision
        /// time — the left-hand side of the Θ comparison.
        total_cost: f64,
        /// The cost bound Θ the scheduler compared against.
        theta: f64,
        /// Whether a heartbeat departed this slot (piggyback opportunity).
        heartbeat_departing: bool,
        /// Packets waiting across all queues before selection.
        queued: usize,
        /// Bytes waiting across all queues before selection.
        queued_bytes: u64,
        /// Burst budget applied: `Some(k)` caps the burst, `None` is
        /// unbounded, `Some(0)` marks a pure deferral (cost below Θ with
        /// no departing heartbeat, so no selection was opened).
        budget_k: Option<usize>,
        /// Packets actually released this slot.
        released: usize,
    },
    /// The radio moved between RRC states (derived from the audited
    /// timeline, so promotions and tail decays both appear).
    RrcTransition {
        /// State being left (`"idle"`, `"fach"`, or `"dch"`).
        from: String,
        /// State being entered.
        to: String,
    },
    /// Admission control shed a packet (it was dropped, not transmitted).
    Shed {
        /// Identifier of the shed packet.
        packet_id: u64,
        /// Cargo app the packet belonged to.
        app: usize,
    },
    /// Admission control force-flushed a packet (released immediately to
    /// make room — transmitted, not lost).
    ForcedFlush {
        /// Identifier of the flushed packet.
        packet_id: u64,
        /// Cargo app the packet belonged to.
        app: usize,
    },
    /// The degraded-mode health ladder changed state.
    HealthTransition {
        /// State being left (`"healthy"`, `"degraded"`, `"critical"`).
        from: String,
        /// State being entered.
        to: String,
        /// Human-readable trigger (e.g. `"consecutive-failures"`).
        cause: String,
    },
    /// A transmission attempt failed and was retried or abandoned.
    RetryAttempt {
        /// Identifier of the affected packet.
        packet_id: u64,
        /// Failed attempts so far for this packet.
        attempt: u32,
        /// `true` once the retry policy gave up on the packet.
        abandoned: bool,
    },
}

impl Event {
    /// Stable machine-readable name of the variant, used for grouping in
    /// the `explain` experiment and journal summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::HeartbeatFired { .. } => "heartbeat_fired",
            Event::TailReuse { .. } => "tail_reuse",
            Event::PiggybackDecision { .. } => "piggyback_decision",
            Event::RrcTransition { .. } => "rrc_transition",
            Event::Shed { .. } => "shed",
            Event::ForcedFlush { .. } => "forced_flush",
            Event::HealthTransition { .. } => "health_transition",
            Event::RetryAttempt { .. } => "retry_attempt",
        }
    }
}

/// An [`Event`] stamped with its run index, per-run sequence number, and
/// simulated time.
///
/// `run` is the job index inside a `RunGrid` (0 for standalone runs);
/// `seq` orders events that share a timestamp. Together `(run, time_s,
/// seq)` is a total order, which is what makes parallel journal merging
/// deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Grid job index this event came from (0 outside a grid).
    pub run: usize,
    /// Per-run sequence number, dense from 0 after canonicalization.
    pub seq: u64,
    /// Simulated time of the event in seconds.
    pub time_s: f64,
    /// The event itself.
    pub event: Event,
}

impl EventRecord {
    /// Appends the record as one `etrain-journal-v1` object (DESIGN.md
    /// §14.4), without a line terminator: the bytes the serde shim would
    /// render, written directly instead of through a `Value` tree.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"run\":");
        push_u64(out, self.run as u64);
        out.push_str(",\"seq\":");
        push_u64(out, self.seq);
        out.push_str(",\"time_s\":");
        push_f64(out, self.time_s);
        out.push_str(",\"event\":{");
        match &self.event {
            Event::HeartbeatFired { size_bytes } => {
                out.push_str("\"HeartbeatFired\":{\"size_bytes\":");
                push_u64(out, *size_bytes);
            }
            Event::TailReuse {
                from_state,
                size_bytes,
            } => {
                out.push_str("\"TailReuse\":{\"from_state\":");
                push_str(out, from_state);
                out.push_str(",\"size_bytes\":");
                push_u64(out, *size_bytes);
            }
            Event::PiggybackDecision {
                total_cost,
                theta,
                heartbeat_departing,
                queued,
                queued_bytes,
                budget_k,
                released,
            } => {
                out.push_str("\"PiggybackDecision\":{\"total_cost\":");
                push_f64(out, *total_cost);
                out.push_str(",\"theta\":");
                push_f64(out, *theta);
                out.push_str(",\"heartbeat_departing\":");
                push_bool(out, *heartbeat_departing);
                out.push_str(",\"queued\":");
                push_u64(out, *queued as u64);
                out.push_str(",\"queued_bytes\":");
                push_u64(out, *queued_bytes);
                out.push_str(",\"budget_k\":");
                match budget_k {
                    Some(k) => push_u64(out, *k as u64),
                    None => out.push_str("null"),
                }
                out.push_str(",\"released\":");
                push_u64(out, *released as u64);
            }
            Event::RrcTransition { from, to } => {
                out.push_str("\"RrcTransition\":{\"from\":");
                push_str(out, from);
                out.push_str(",\"to\":");
                push_str(out, to);
            }
            Event::Shed { packet_id, app } => {
                out.push_str("\"Shed\":{\"packet_id\":");
                push_u64(out, *packet_id);
                out.push_str(",\"app\":");
                push_u64(out, *app as u64);
            }
            Event::ForcedFlush { packet_id, app } => {
                out.push_str("\"ForcedFlush\":{\"packet_id\":");
                push_u64(out, *packet_id);
                out.push_str(",\"app\":");
                push_u64(out, *app as u64);
            }
            Event::HealthTransition { from, to, cause } => {
                out.push_str("\"HealthTransition\":{\"from\":");
                push_str(out, from);
                out.push_str(",\"to\":");
                push_str(out, to);
                out.push_str(",\"cause\":");
                push_str(out, cause);
            }
            Event::RetryAttempt {
                packet_id,
                attempt,
                abandoned,
            } => {
                out.push_str("\"RetryAttempt\":{\"packet_id\":");
                push_u64(out, *packet_id);
                out.push_str(",\"attempt\":");
                push_u64(out, u64::from(*attempt));
                out.push_str(",\"abandoned\":");
                push_bool(out, *abandoned);
            }
        }
        out.push_str("}}}");
    }
}

/// A bounded-growth, append-only journal of [`EventRecord`]s for one run.
///
/// Events are pushed in engine order; [`Journal::canonicalize`] stable-
/// sorts by time and renumbers `seq` so late-appended derived events
/// (e.g. RRC transitions reconstructed from the timeline) interleave at
/// their chronological position. [`Journal::merge`] combines per-worker
/// journals from a parallel grid into one deterministic stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Journal {
    next_seq: u64,
    records: Vec<EventRecord>,
}

impl Journal {
    /// An empty journal for run index 0.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends an event at simulated time `time_s`, assigning the next
    /// sequence number.
    pub fn push(&mut self, time_s: f64, event: Event) {
        self.records.push(EventRecord {
            run: 0,
            seq: self.next_seq,
            time_s,
            event,
        });
        self.next_seq += 1;
    }

    /// The records in their current order.
    pub fn records(&self) -> &[EventRecord] {
        &self.records
    }

    /// Number of records in the journal.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Stable-sorts records by simulated time and renumbers `seq` densely
    /// from 0, so equal-time events keep their causal push order and the
    /// sequence number becomes the chronological index.
    pub fn canonicalize(&mut self) {
        self.records.sort_by(|a, b| {
            a.time_s
                .partial_cmp(&b.time_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for (i, record) in self.records.iter_mut().enumerate() {
            record.seq = i as u64;
        }
        self.next_seq = self.records.len() as u64;
    }

    /// Merges per-run journals (in grid job-index order) into one stream.
    ///
    /// Each part is re-tagged with its index as the run id and
    /// canonicalized, then the parts are concatenated. Because the input
    /// order is the job-index order — not the completion order — a serial
    /// and a parallel execution of the same grid yield byte-identical
    /// merged journals.
    pub fn merge(parts: Vec<Journal>) -> Journal {
        let mut merged = Journal::new();
        for (run, mut part) in parts.into_iter().enumerate() {
            part.canonicalize();
            for mut record in part.records {
                record.run = run;
                merged.records.push(record);
            }
        }
        merged.next_seq = 0;
        merged
    }

    /// Counts records per [`Event::kind`], in first-appearance order.
    pub fn counts_by_kind(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for record in &self.records {
            let kind = record.event.kind();
            match counts.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => counts.push((kind, 1)),
            }
        }
        counts
    }

    /// Renders the journal as JSON Lines: one [`EventRecord`] object per
    /// line, in record order, in the `etrain-journal-v1` encoding.
    pub fn to_jsonl(&self) -> String {
        // Each record is written into one reused line buffer and then
        // copied out, so `out` starts at the first line's length and
        // doubles from there. Pre-sizing `out`, or writing into it
        // directly (doubling from 8 bytes), both raised peak RSS: the
        // allocator's sliding mmap threshold keeps later, smaller buffers
        // on the heap.
        let mut out = String::new();
        let mut line = String::new();
        for record in &self.records {
            line.clear();
            record.write_json(&mut line);
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb() -> Event {
        Event::HeartbeatFired { size_bytes: 120 }
    }

    #[test]
    fn push_assigns_dense_seq() {
        let mut journal = Journal::new();
        journal.push(1.0, hb());
        journal.push(2.0, hb());
        assert_eq!(journal.len(), 2);
        assert_eq!(journal.records()[0].seq, 0);
        assert_eq!(journal.records()[1].seq, 1);
        assert_eq!(journal.records()[1].run, 0);
    }

    #[test]
    fn canonicalize_interleaves_late_events_by_time() {
        let mut journal = Journal::new();
        journal.push(5.0, hb());
        journal.push(
            1.0,
            Event::RrcTransition {
                from: "idle".into(),
                to: "dch".into(),
            },
        );
        journal.canonicalize();
        assert_eq!(journal.records()[0].time_s, 1.0);
        assert_eq!(journal.records()[0].seq, 0);
        assert_eq!(journal.records()[1].time_s, 5.0);
        assert_eq!(journal.records()[1].seq, 1);
    }

    #[test]
    fn merge_orders_by_job_index_and_retags_runs() {
        let mut a = Journal::new();
        a.push(3.0, hb());
        let mut b = Journal::new();
        b.push(1.0, hb());
        let merged = Journal::merge(vec![a, b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.records()[0].run, 0);
        assert_eq!(merged.records()[0].time_s, 3.0);
        assert_eq!(merged.records()[1].run, 1);
        assert_eq!(merged.records()[1].time_s, 1.0);
    }

    #[test]
    fn jsonl_round_trips_through_serde() {
        let mut journal = Journal::new();
        journal.push(
            10.0,
            Event::PiggybackDecision {
                total_cost: 4.5,
                theta: 4.0,
                heartbeat_departing: true,
                queued: 3,
                queued_bytes: 900,
                budget_k: Some(2),
                released: 2,
            },
        );
        let jsonl = journal.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        let back: EventRecord = serde_json::from_str(jsonl.trim()).unwrap();
        assert_eq!(&back, &journal.records()[0]);
    }

    #[test]
    fn jsonl_is_one_serialized_record_per_line_in_record_order() {
        let mut journal = Journal::new();
        journal.push(2.0, hb());
        journal.push(
            1.0,
            Event::Shed {
                packet_id: 4,
                app: 2,
            },
        );
        journal.push(
            3.0,
            Event::HealthTransition {
                from: "healthy".into(),
                to: "degraded".into(),
                cause: "consecutive-failures".into(),
            },
        );
        let jsonl = journal.to_jsonl();
        assert!(jsonl.ends_with('\n'));
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), journal.len());
        for (line, record) in lines.iter().zip(journal.records()) {
            assert_eq!(*line, serde_json::to_string(record).unwrap());
        }
        assert_eq!(Journal::new().to_jsonl(), "");
    }

    #[test]
    fn write_json_matches_serde_at_the_largest_run_and_seq() {
        // `push` and `merge` only hand out small run and seq numbers.
        let record = EventRecord {
            run: usize::MAX,
            seq: u64::MAX,
            time_s: -0.0,
            event: hb(),
        };
        let mut line = String::new();
        record.write_json(&mut line);
        assert_eq!(line, serde_json::to_string(&record).unwrap());
    }

    #[test]
    fn canonicalize_keeps_push_order_among_equal_times() {
        let mut journal = Journal::new();
        journal.push(2.0, hb());
        for packet_id in 0..3 {
            journal.push(
                1.0,
                Event::RetryAttempt {
                    packet_id,
                    attempt: 1,
                    abandoned: false,
                },
            );
        }
        journal.canonicalize();
        let order: Vec<Option<u64>> = journal
            .records()
            .iter()
            .map(|r| match r.event {
                Event::RetryAttempt { packet_id, .. } => Some(packet_id),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![Some(0), Some(1), Some(2), None]);
        let seqs: Vec<u64> = journal.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn merge_keeps_run_indices_across_empty_parts() {
        let mut last = Journal::new();
        last.push(0.5, hb());
        let merged = Journal::merge(vec![Journal::new(), Journal::new(), last]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.records()[0].run, 2);
        assert!(Journal::merge(Vec::new()).is_empty());
    }

    #[test]
    fn every_event_variant_has_its_own_kind() {
        let events = [
            hb(),
            Event::TailReuse {
                from_state: "fach".into(),
                size_bytes: 10,
            },
            Event::PiggybackDecision {
                total_cost: 0.0,
                theta: 1.0,
                heartbeat_departing: false,
                queued: 0,
                queued_bytes: 0,
                budget_k: None,
                released: 0,
            },
            Event::RrcTransition {
                from: "idle".into(),
                to: "dch".into(),
            },
            Event::Shed {
                packet_id: 1,
                app: 0,
            },
            Event::ForcedFlush {
                packet_id: 1,
                app: 0,
            },
            Event::HealthTransition {
                from: "healthy".into(),
                to: "critical".into(),
                cause: "x".into(),
            },
            Event::RetryAttempt {
                packet_id: 1,
                attempt: 3,
                abandoned: true,
            },
        ];
        let mut kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
        for event in &events {
            let json = serde_json::to_string(event).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, event);
        }
    }

    #[test]
    fn counts_by_kind_groups_in_first_appearance_order() {
        let mut journal = Journal::new();
        journal.push(1.0, hb());
        journal.push(
            2.0,
            Event::RetryAttempt {
                packet_id: 7,
                attempt: 1,
                abandoned: false,
            },
        );
        journal.push(3.0, hb());
        assert_eq!(
            journal.counts_by_kind(),
            vec![("heartbeat_fired", 2), ("retry_attempt", 1)]
        );
    }
}
