//! The structured event taxonomy and the journal that accumulates it.

use serde::{Deserialize, FromValueError, Serialize, Value};

use crate::json::{push_bool, push_f64, push_str, push_u64, push_u64_or_null};

/// An RRC state as the journal names it: `"idle"`, `"fach"` or `"dch"`.
///
/// `Copy`, so recording a tail reuse or a state transition allocates
/// nothing; it serializes as the same lowercase string a `String` field
/// held before, and deserializes from nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrcStateName {
    /// `"idle"`.
    Idle,
    /// `"fach"`.
    Fach,
    /// `"dch"`.
    Dch,
}

impl RrcStateName {
    /// The journal spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            RrcStateName::Idle => "idle",
            RrcStateName::Fach => "fach",
            RrcStateName::Dch => "dch",
        }
    }
}

impl Serialize for RrcStateName {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_owned())
    }
}

impl Deserialize for RrcStateName {
    fn from_value(value: &Value) -> Result<Self, FromValueError> {
        match value.as_str() {
            Some("idle") => Ok(RrcStateName::Idle),
            Some("fach") => Ok(RrcStateName::Fach),
            Some("dch") => Ok(RrcStateName::Dch),
            _ => Err(FromValueError::expected(
                "\"idle\", \"fach\" or \"dch\"",
                value,
            )),
        }
    }
}

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
        from_state: RrcStateName,
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
        from: RrcStateName,
        /// State being entered.
        to: RrcStateName,
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
/// seq)` is a total order, so a grid's journal lines are the same bytes
/// whether [`Journal::merge`] concatenates its runs or each worker renders
/// its own run, tagged with its job index, and the lines are joined in job
/// order.
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
    /// render, written directly instead of through a `Value` tree. A
    /// decision's tail comes from `tail`, which re-renders it only when
    /// it differs from the last decision's.
    fn write_json(&self, out: &mut Vec<u8>, tail: &mut DecisionTail) {
        out.extend_from_slice(b"{\"run\":");
        push_u64(out, self.run as u64);
        out.extend_from_slice(b",\"seq\":");
        push_u64(out, self.seq);
        out.extend_from_slice(b",\"time_s\":");
        push_f64(out, self.time_s);
        out.extend_from_slice(b",\"event\":{");
        match &self.event {
            Event::HeartbeatFired { size_bytes } => {
                out.extend_from_slice(b"\"HeartbeatFired\":{\"size_bytes\":");
                push_u64(out, *size_bytes);
            }
            Event::TailReuse {
                from_state,
                size_bytes,
            } => {
                out.extend_from_slice(b"\"TailReuse\":{\"from_state\":");
                push_str(out, from_state.as_str());
                out.extend_from_slice(b",\"size_bytes\":");
                push_u64(out, *size_bytes);
            }
            &Event::PiggybackDecision {
                total_cost,
                theta,
                heartbeat_departing,
                queued,
                queued_bytes,
                budget_k,
                released,
            } => {
                out.extend_from_slice(b"\"PiggybackDecision\":{\"total_cost\":");
                push_f64(out, total_cost);
                out.extend_from_slice(tail.render(TailFields {
                    theta_bits: theta.to_bits(),
                    heartbeat_departing,
                    queued,
                    queued_bytes,
                    budget_k,
                    released,
                }));
                // The tail closes the record.
                return;
            }
            Event::RrcTransition { from, to } => {
                out.extend_from_slice(b"\"RrcTransition\":{\"from\":");
                push_str(out, from.as_str());
                out.extend_from_slice(b",\"to\":");
                push_str(out, to.as_str());
            }
            Event::Shed { packet_id, app } => {
                out.extend_from_slice(b"\"Shed\":{\"packet_id\":");
                push_u64(out, *packet_id);
                out.extend_from_slice(b",\"app\":");
                push_u64(out, *app as u64);
            }
            Event::ForcedFlush { packet_id, app } => {
                out.extend_from_slice(b"\"ForcedFlush\":{\"packet_id\":");
                push_u64(out, *packet_id);
                out.extend_from_slice(b",\"app\":");
                push_u64(out, *app as u64);
            }
            Event::HealthTransition { from, to, cause } => {
                out.extend_from_slice(b"\"HealthTransition\":{\"from\":");
                push_str(out, from);
                out.extend_from_slice(b",\"to\":");
                push_str(out, to);
                out.extend_from_slice(b",\"cause\":");
                push_str(out, cause);
            }
            Event::RetryAttempt {
                packet_id,
                attempt,
                abandoned,
            } => {
                out.extend_from_slice(b"\"RetryAttempt\":{\"packet_id\":");
                push_u64(out, *packet_id);
                out.extend_from_slice(b",\"attempt\":");
                push_u64(out, u64::from(*attempt));
                out.extend_from_slice(b",\"abandoned\":");
                push_bool(out, *abandoned);
            }
        }
        out.extend_from_slice(b"}}}");
    }
}

/// The fields of a `PiggybackDecision` after `total_cost`. Between queue
/// changes consecutive decisions differ only in `seq`, `time_s` and
/// `total_cost`, so these repeat. `theta` is kept as its bits: `-0.0`,
/// `0.0` and each NaN are then different keys, as their spellings may be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TailFields {
    theta_bits: u64,
    heartbeat_departing: bool,
    queued: usize,
    queued_bytes: u64,
    budget_k: Option<usize>,
    released: usize,
}

/// The rendered tail of the last decision encoded: its bytes from
/// `,"theta":` through the record's closing braces.
#[derive(Debug, Default)]
struct DecisionTail {
    fields: Option<TailFields>,
    bytes: Vec<u8>,
}

impl DecisionTail {
    /// The tail bytes for `fields`, rendered only when they differ from
    /// the last decision's.
    fn render(&mut self, fields: TailFields) -> &[u8] {
        if self.fields != Some(fields) {
            let out = &mut self.bytes;
            out.clear();
            out.extend_from_slice(b",\"theta\":");
            push_f64(out, f64::from_bits(fields.theta_bits));
            out.extend_from_slice(b",\"heartbeat_departing\":");
            push_bool(out, fields.heartbeat_departing);
            out.extend_from_slice(b",\"queued\":");
            push_u64(out, fields.queued as u64);
            out.extend_from_slice(b",\"queued_bytes\":");
            push_u64(out, fields.queued_bytes);
            out.extend_from_slice(b",\"budget_k\":");
            push_u64_or_null(out, fields.budget_k.map(|k| k as u64));
            out.extend_from_slice(b",\"released\":");
            push_u64(out, fields.released as u64);
            out.extend_from_slice(b"}}}");
            self.fields = Some(fields);
        }
        &self.bytes
    }
}

/// A bounded-growth, append-only journal of [`EventRecord`]s for one run.
///
/// Events are pushed in engine order; [`Journal::canonicalize`] stable-
/// sorts by time and renumbers `seq` so late-appended derived events
/// (e.g. RRC transitions reconstructed from the timeline) interleave at
/// their chronological position. [`Journal::set_run`] tags a run's
/// records with its grid job index, and [`Journal::merge`] combines
/// per-run journals into one deterministic stream: the reference a grid's
/// per-worker rendering (`RunGrid::try_run_journaled`) must reproduce.
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

    /// Appends `(time_s, event)` pairs in order, as [`Journal::push`]
    /// would one by one.
    pub fn push_all(&mut self, events: impl IntoIterator<Item = (f64, Event)>) {
        for (time_s, event) in events {
            self.push(time_s, event);
        }
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

    /// Tags every record with `run`, the job index of the grid run this
    /// journal belongs to.
    pub fn set_run(&mut self, run: usize) {
        for record in &mut self.records {
            record.run = run;
        }
    }

    /// Merges per-run journals (in grid job-index order) into one stream.
    ///
    /// Each part is canonicalized and tagged with its index as the run id
    /// ([`Journal::set_run`]), then the parts are concatenated. Because
    /// the input order is the job-index order — not the completion order —
    /// a serial and a parallel execution of the same grid yield
    /// byte-identical merged journals. A grid renders each run's part on
    /// the worker that ran it instead; this is the reference those lines
    /// must equal byte for byte.
    pub fn merge(parts: Vec<Journal>) -> Journal {
        let mut merged = Journal::new();
        for (run, mut part) in parts.into_iter().enumerate() {
            part.canonicalize();
            part.set_run(run);
            merged.records.extend(part.records);
        }
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
        let mut line = Vec::new();
        let mut tail = DecisionTail::default();
        for record in &self.records {
            line.clear();
            record.write_json(&mut line, &mut tail);
            // Every writer appends whole UTF-8, so the check always passes.
            out.push_str(std::str::from_utf8(&line).unwrap_or_default());
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
                from: RrcStateName::Idle,
                to: RrcStateName::Dch,
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
        let mut line = Vec::new();
        record.write_json(&mut line, &mut DecisionTail::default());
        assert_eq!(line, serde_json::to_string(&record).unwrap().into_bytes());
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
    fn set_run_tags_every_record_and_keeps_its_place() {
        let mut journal = Journal::new();
        journal.push(2.0, hb());
        journal.push(1.0, hb());
        journal.set_run(7);
        let tags: Vec<(usize, u64, f64)> = journal
            .records()
            .iter()
            .map(|r| (r.run, r.seq, r.time_s))
            .collect();
        assert_eq!(tags, vec![(7, 0, 2.0), (7, 1, 1.0)]);
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
                from_state: RrcStateName::Fach,
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
                from: RrcStateName::Idle,
                to: RrcStateName::Dch,
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
    fn state_names_serialize_as_their_lowercase_strings_and_nothing_else() {
        for (state, text) in [
            (RrcStateName::Idle, "\"idle\""),
            (RrcStateName::Fach, "\"fach\""),
            (RrcStateName::Dch, "\"dch\""),
        ] {
            assert_eq!(serde_json::to_string(&state).unwrap(), text);
            assert_eq!(serde_json::from_str::<RrcStateName>(text).unwrap(), state);
        }
        for wrong in ["\"Idle\"", "\"DCH\"", "\"\"", "0", "null"] {
            assert!(
                serde_json::from_str::<RrcStateName>(wrong).is_err(),
                "{wrong}"
            );
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
