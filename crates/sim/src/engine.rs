//! The discrete-event simulation core.
//!
//! Event types, in tie-break priority order at equal timestamps:
//!
//! 1. **TxComplete** — the in-flight transmission finishes, freeing the
//!    radio;
//! 2. **Slot** — a scheduler slot boundary (every
//!    [`Scheduler::slot_s`](etrain_sched::Scheduler::slot_s) seconds);
//!    running the slot *before* same-instant arrivals implements the
//!    paper's convention that packets arriving within slot `t` become
//!    visible at slot `t+1`;
//! 3. **Heartbeat** — a train app transmits a keep-alive; heartbeats jump
//!    the transmission queue (their daemons transmit directly, unmanaged);
//! 4. **Arrival** — a cargo packet arrives and is offered to the scheduler.
//!
//! The slot context's `heartbeat_departing` flag is true when a heartbeat
//! falls inside `[t, t + slot)`, reproducing Algorithm 1's
//! `t = t_s(h)` trigger at 1-second slots. `predicted_bandwidth_bps` is the
//! *previous* slot's bandwidth — the noisy estimate available to PerES and
//! eTime. `trains_alive` is ground truth from the heartbeat trace (the live
//! system in `etrain-core` uses the `etrain-hb` monitor instead).
//!
//! The loop itself lives in [`Engine`], a stepwise form of the same
//! machine: [`Engine::step`] processes exactly one event, [`Engine::snapshot`]
//! captures a versioned, fingerprinted mid-run checkpoint at any step
//! boundary, and [`Engine::restore`] rebuilds the engine at that point by
//! deterministic replay (verifying the fingerprint). [`Engine::run`]
//! drives a fresh engine to the horizon; it is the one batch entry point,
//! and `Scenario` and the fleet runner both go through it.
//!
//! Two kernels ([`EngineKind`]) can drive the machine. The default
//! *event* kernel consumes maximal runs of provably inert slot boundaries
//! in a single step, advancing simulated time in jumps across standby
//! stretches. The skip is gated on the scheduler's quiescence certificate
//! ([`Scheduler::slot_quiescent`](etrain_sched::Scheduler::slot_quiescent))
//! plus per-boundary checks that nothing observable lands on the skipped
//! slot. The *slot* kernel visits every boundary; it stays only as the
//! differential reference, selected explicitly with
//! [`Engine::with_kind`]. The two produce bit-for-bit identical outputs,
//! journals, and oracle ledgers, which the conformance suite enforces.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};

use etrain_obs::{Event, Fnv1a, Journal};
use etrain_radio::{PowerTrace, Radio, RadioParams, Timeline, Transmission};
use etrain_sched::{HealthTransition, RetryDecision, RetryPolicy, Scheduler, SlotContext};
use etrain_trace::bandwidth::BandwidthTrace;
use etrain_trace::faults::{hash_unit, FaultPlan};
use etrain_trace::heartbeats::Heartbeat;
use etrain_trace::packets::Packet;
use serde::{Deserialize, Serialize};

/// Salt decorrelating retry-jitter draws from the fault plan's loss coins.
const JITTER_SALT: u64 = 0x6a69_7474_6572_5f75;

/// Which kernel advances simulated time inside [`Engine`].
///
/// Both kinds are the *same* state machine over the same event taxonomy;
/// the event kernel merely consumes maximal runs of provably inert slot
/// boundaries in one [`Engine::step`] (see
/// [`Scheduler::slot_quiescent`]), bumping the per-slot counters exactly
/// as the slot kernel would. Outputs, journals and oracle ledgers are
/// bit-for-bit identical across kinds; only wall-clock time differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Process every slot boundary individually (the differential
    /// reference the conformance and equivalence suites compare against).
    Slot,
    /// Batch-skip quiescent slot boundaries (the default kernel).
    #[default]
    Event,
}

// Serialized as the same lowercase spelling `Display` uses, so snapshots
// and configs read naturally.
impl Serialize for EngineKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

impl Deserialize for EngineKind {
    fn from_value(value: &serde::Value) -> Result<Self, serde::FromValueError> {
        let raw = value
            .as_str()
            .ok_or_else(|| serde::FromValueError::expected("string", value))?;
        raw.parse().map_err(serde::FromValueError::new)
    }

    /// A missing `engine` field means the artifact predates the event
    /// kernel, which makes it a slot-kernel run.
    fn absent() -> Option<Self> {
        Some(EngineKind::Slot)
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "slot" => Ok(EngineKind::Slot),
            "event" => Ok(EngineKind::Event),
            other => Err(format!(
                "unknown engine kernel {other:?} (expected slot or event)"
            )),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Slot => write!(f, "slot"),
            EngineKind::Event => write!(f, "event"),
        }
    }
}

/// A cargo packet that completed transmission, with its full timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedPacket {
    /// The transmitted packet.
    pub packet: Packet,
    /// When the scheduler released it to `Q_TX`, in seconds.
    pub release_s: f64,
    /// When its transmission began, in seconds.
    pub tx_start_s: f64,
    /// When its transmission finished, in seconds.
    pub tx_end_s: f64,
}

impl CompletedPacket {
    /// The scheduling delay the paper measures: release − arrival.
    pub fn scheduling_delay_s(&self) -> f64 {
        self.release_s - self.packet.arrival_s
    }
}

/// A cargo packet the retry layer gave up on: its attempts were exhausted
/// or its age crossed the policy's deadline-aware give-up threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbandonedPacket {
    /// The packet that was abandoned.
    pub packet: Packet,
    /// When the final failed attempt ended, in seconds.
    pub abandoned_at_s: f64,
    /// Transfer attempts made (all failed).
    pub attempts: u32,
}

/// Raw output of one engine run, consumed by
/// [`RunReport`](crate::RunReport).
#[derive(Debug, Clone)]
pub struct EngineOutput {
    /// Completed cargo packets in completion order.
    pub completed: Vec<CompletedPacket>,
    /// Packets released by the scheduler but not finished by the horizon.
    pub in_flight: Vec<Packet>,
    /// Packets the retry layer abandoned (terminal state).
    pub abandoned: Vec<AbandonedPacket>,
    /// Retry attempts scheduled after failed transfers.
    pub retries: usize,
    /// Energy burned by transfer attempts that failed, in joules — already
    /// included in `transmission_energy_j`, broken out here because it is
    /// the fault layer's direct waste.
    pub wasted_retry_energy_j: f64,
    /// Packets still deferred inside the scheduler at the horizon.
    pub still_deferred: usize,
    /// Packets shed by admission control (terminal state: never released).
    pub shed: Vec<Packet>,
    /// Packets released early by the force-flush-oldest shed policy (these
    /// were transmitted; the count is bookkeeping, not a terminal state).
    pub forced_flushes: usize,
    /// Degradation-ladder transitions the scheduler recorded, in time
    /// order; empty for non-degrading schedulers.
    pub health_events: Vec<HealthTransition>,
    /// Heartbeats transmitted.
    pub heartbeats_sent: usize,
    /// Transmission energy above idle, in joules.
    pub transmission_energy_j: f64,
    /// Tail energy above idle, in joules.
    pub tail_energy_j: f64,
    /// Idle baseline energy over the horizon, in joules.
    pub idle_energy_j: f64,
    /// Cumulative radio busy time, in seconds.
    pub busy_time_s: f64,
    /// IDLE→DCH state promotions (signaling events).
    pub promotions: usize,
    /// The simulated horizon, in seconds.
    pub horizon_s: f64,
    /// Every radio busy interval of the run (heartbeats and cargo alike),
    /// in start order — the raw material for power-trace reconstruction.
    pub transmissions: Vec<Transmission>,
    /// The radio parameters the run used.
    pub radio_params: RadioParams,
    /// Discrete events the engine processed to produce this output — the
    /// coordinate [`EngineSnapshot`]s and the kill/resume harness use.
    pub events_processed: u64,
    /// Slot boundaries the run stepped through (kernel-neutral name: the
    /// event kernel retires many per step, but counts each one).
    pub steps_run: u64,
}

impl EngineOutput {
    /// Rebuilds the run's RRC state timeline — the offline view of what
    /// the radio did, suitable for exact re-integration or plotting.
    pub fn timeline(&self) -> Timeline {
        Timeline::from_transmissions(&self.radio_params, &self.transmissions, self.horizon_s)
    }

    /// Samples the run's device power every `dt_s` seconds — the software
    /// analogue of the paper's Monsoon power-monitor capture (Sec. VI-D
    /// samples at 0.1 s).
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not strictly positive.
    pub fn power_trace(&self, dt_s: f64) -> PowerTrace {
        self.timeline().sample(dt_s)
    }
}

#[derive(Debug, Clone, Copy)]
enum TxItem {
    Heartbeat(Heartbeat),
    Packet { packet: Packet, release_s: f64 },
}

impl TxItem {
    fn size_bytes(&self) -> u64 {
        match self {
            TxItem::Heartbeat(hb) => hb.size_bytes,
            TxItem::Packet { packet, .. } => packet.size_bytes,
        }
    }
}

/// The fate of a cargo transfer attempt that just ended. Burned energy
/// stays burned; a retried packet keeps its original arrival time so
/// φ_u(t − t_a) keeps growing.
enum TxFate {
    Delivered,
    Retry { due_s: f64 },
    Abandon { attempts: u32 },
}

// Event priorities at equal time (lower runs first).
const PRIO_TX_COMPLETE: u8 = 0;
const PRIO_SLOT: u8 = 1;
const PRIO_HEARTBEAT: u8 = 2;
const PRIO_ARRIVAL: u8 = 3;
const PRIO_RETRY: u8 = 4;

/// Version tag written into every [`EngineSnapshot`]; bumped whenever the
/// fingerprint's field coverage or encoding changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A durable mid-run capture of the engine's progress, taken at a step
/// boundary via [`Engine::snapshot`] and consumed by [`Engine::restore`].
///
/// The simulation is deterministic end to end, so the snapshot does not
/// serialize the full mutable state (the scheduler behind the trait object
/// could not be anyway); it records *how far* the run got —
/// `events_processed` — plus an FNV-1a fingerprint over every observable
/// piece of engine, radio and scheduler state. Restoring replays the run
/// to the same event count on freshly built inputs and verifies the
/// fingerprint, which catches divergent inputs and nondeterminism between
/// the snapshotting process and the resuming one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineSnapshot {
    /// Snapshot format version ([`SNAPSHOT_VERSION`] at write time).
    pub version: u32,
    /// Simulated time of the last processed event, in seconds.
    pub taken_at_s: f64,
    /// Events the engine had processed when the snapshot was taken.
    pub events_processed: u64,
    /// Slot boundaries the engine had run (accepted under the historic
    /// `slots_run` name when deserializing older snapshots).
    pub steps_run: u64,
    /// Records in the attached journal at snapshot time (0 when
    /// unjournaled) — the durable journal prefix a resume merges with.
    pub journal_events: usize,
    /// The kernel that took the snapshot. Replay must use the same kind:
    /// the event kernel retires whole slot batches per step, so only a
    /// same-kind replay lands exactly on `events_processed`. Older
    /// snapshots (which predate the field) default to
    /// [`EngineKind::Slot`].
    pub engine: EngineKind,
    /// FNV-1a fingerprint of the engine's observable mutable state.
    pub fingerprint: u64,
}

// Hand-written (not derived) so older snapshots keep parsing: `steps_run`
// falls back to the historic `slots_run` key, and a missing `engine`
// defaults to the slot kernel.
impl Serialize for EngineSnapshot {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("version".to_string(), self.version.to_value()),
            ("taken_at_s".to_string(), self.taken_at_s.to_value()),
            (
                "events_processed".to_string(),
                self.events_processed.to_value(),
            ),
            ("steps_run".to_string(), self.steps_run.to_value()),
            ("journal_events".to_string(), self.journal_events.to_value()),
            ("engine".to_string(), self.engine.to_value()),
            ("fingerprint".to_string(), self.fingerprint.to_value()),
        ])
    }
}

impl Deserialize for EngineSnapshot {
    fn from_value(value: &serde::Value) -> Result<Self, serde::FromValueError> {
        let entries = value
            .as_object()
            .ok_or_else(|| serde::FromValueError::expected("object", value))?;
        let lookup = |name: &str| entries.iter().find(|(key, _)| key == name).map(|(_, v)| v);
        let steps_run = match lookup("steps_run").or_else(|| lookup("slots_run")) {
            Some(v) => u64::from_value(v)?,
            None => return Err(serde::FromValueError::missing_field("steps_run")),
        };
        let engine = match lookup("engine") {
            Some(v) => EngineKind::from_value(v)?,
            None => EngineKind::Slot,
        };
        Ok(EngineSnapshot {
            version: serde::__field(entries, "version")?,
            taken_at_s: serde::__field(entries, "taken_at_s")?,
            events_processed: serde::__field(entries, "events_processed")?,
            steps_run,
            journal_events: serde::__field(entries, "journal_events")?,
            engine,
            fingerprint: serde::__field(entries, "fingerprint")?,
        })
    }
}

/// Why [`Engine::restore`] refused a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written by a different format version.
    VersionMismatch {
        /// The version this build writes and reads.
        expected: u32,
        /// The version found in the snapshot.
        found: u32,
    },
    /// The inputs ran out of events before reaching the snapshot's
    /// `events_processed` — the snapshot is from different inputs.
    ReplayExhausted {
        /// The snapshot's event count.
        wanted: u64,
        /// Where replay actually stopped.
        reached: u64,
    },
    /// Replay reached the event count but the state fingerprint differs —
    /// the inputs changed or the simulation is nondeterministic.
    FingerprintMismatch {
        /// The snapshot's fingerprint.
        expected: u64,
        /// The replayed engine's fingerprint.
        found: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::VersionMismatch { expected, found } => write!(
                f,
                "snapshot version {found} is not this build's version {expected}"
            ),
            SnapshotError::ReplayExhausted { wanted, reached } => write!(
                f,
                "inputs exhausted at event {reached} before the snapshot's event {wanted}"
            ),
            SnapshotError::FingerprintMismatch { expected, found } => write!(
                f,
                "state fingerprint {found:#018x} does not match the snapshot's {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The discrete-event loop as a stepwise state machine.
///
/// [`Engine::new`] validates the inputs and applies the fault plan's
/// heartbeat filtering; each [`Engine::step`] processes exactly one event
/// (returning `false` once no event at or before the horizon remains);
/// [`Engine::finish`] performs the horizon finalization and produces the
/// [`EngineOutput`]. [`Engine::run`] drives step-to-exhaustion plus
/// finish.
///
/// Between steps the engine can be checkpointed ([`Engine::snapshot`]) and
/// later rebuilt at the same point ([`Engine::restore`]); see
/// [`EngineSnapshot`] for the replay-based restore semantics.
pub struct Engine<'a> {
    scheduler: &'a mut dyn Scheduler,
    packets: &'a [Packet],
    heartbeats: Cow<'a, [Heartbeat]>,
    bandwidth: &'a BandwidthTrace,
    radio_params: &'a RadioParams,
    horizon_s: f64,
    plan: &'a FaultPlan,
    retry: &'a RetryPolicy,
    journal: Option<&'a mut Journal>,

    kind: EngineKind,
    radio: Radio,
    slot_s: f64,
    txq: VecDeque<TxItem>,
    in_flight: Option<(TxItem, f64, f64)>, // (item, start, end)
    completed: Vec<CompletedPacket>,
    abandoned: Vec<AbandonedPacket>,
    transmissions: Vec<Transmission>,
    heartbeats_sent: usize,
    arrival_idx: usize,
    hb_idx: usize,
    next_slot_s: f64,
    // Retry state: packets awaiting their backed-off re-offer, keyed by
    // due time, and each packet's failed-attempt count.
    retryq: Vec<(f64, Packet)>,
    failed_attempts: HashMap<u64, u32>,
    retries: usize,
    wasted_retry_energy_j: f64,
    // Injected oracle alarms, delivered at the first slot boundary at or
    // after each alarm time (empty for the common fault-free run).
    alarms: Vec<f64>,
    alarm_idx: usize,
    events_processed: u64,
    steps_run: u64,
    last_event_s: f64,
}

impl<'a> Engine<'a> {
    /// Builds an engine over the given inputs, ready to step from t = 0.
    ///
    /// `packets` and `heartbeats` must be sorted by time (the generators
    /// in `etrain-trace` produce sorted traces). The run covers
    /// `[0, horizon_s]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_s` is not strictly positive, `retry` fails
    /// [`RetryPolicy::validate`], or an input trace is unsorted.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        scheduler: &'a mut dyn Scheduler,
        packets: &'a [Packet],
        heartbeats: &'a [Heartbeat],
        bandwidth: &'a BandwidthTrace,
        radio_params: &'a RadioParams,
        horizon_s: f64,
        plan: &'a FaultPlan,
        retry: &'a RetryPolicy,
        journal: Option<&'a mut Journal>,
    ) -> Engine<'a> {
        if journal.is_some() {
            scheduler.set_obs_enabled(true);
        }
        assert!(horizon_s > 0.0, "horizon must be positive");
        if let Err(why) = retry.validate() {
            panic!("invalid retry policy: {why}");
        }
        assert!(
            packets.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
            "packet trace must be sorted by arrival time"
        );
        assert!(
            heartbeats.windows(2).all(|w| w[0].time_s <= w[1].time_s),
            "heartbeat trace must be sorted by time"
        );

        // Heartbeats dropped by the plan (or inside a death window) never
        // depart. A no-op plan leaves the slice untouched.
        let heartbeats: Cow<'a, [Heartbeat]> = if plan.is_noop() {
            Cow::Borrowed(heartbeats)
        } else {
            Cow::Owned(plan.apply_to_heartbeats(heartbeats))
        };

        let radio = Radio::new(radio_params.clone());
        let slot_s = scheduler.slot_s();
        let mut alarms = plan.oracle_alarms.clone();
        alarms.sort_by(f64::total_cmp);

        Engine {
            scheduler,
            packets,
            heartbeats,
            bandwidth,
            radio_params,
            horizon_s,
            plan,
            retry,
            journal,
            kind: EngineKind::default(),
            radio,
            slot_s,
            txq: VecDeque::new(),
            in_flight: None,
            completed: Vec::new(),
            abandoned: Vec::new(),
            transmissions: Vec::new(),
            heartbeats_sent: 0,
            arrival_idx: 0,
            hb_idx: 0,
            next_slot_s: 0.0,
            retryq: Vec::new(),
            failed_attempts: HashMap::new(),
            retries: 0,
            wasted_retry_energy_j: 0.0,
            alarms,
            alarm_idx: 0,
            events_processed: 0,
            steps_run: 0,
            last_event_s: 0.0,
        }
    }

    /// Selects the kernel that advances simulated time (the default is
    /// [`EngineKind::Event`]). Call before the first [`Engine::step`]:
    /// switching kernels mid-run would shift the step boundaries
    /// snapshots are addressed by.
    pub fn with_kind(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// The kernel this engine runs under.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Slot boundaries run so far.
    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Simulated time of the last processed event, in seconds (0 before
    /// the first step).
    pub fn now_s(&self) -> f64 {
        self.last_event_s
    }

    /// Records currently in the attached journal (0 when unjournaled).
    pub fn journal_events(&self) -> usize {
        self.journal.as_deref().map_or(0, Journal::len)
    }

    /// Attaches a journal mid-run, enabling scheduler observability from
    /// this point on — the resume path uses this so a restored engine
    /// journals only post-snapshot events (the pre-snapshot prefix is the
    /// durable journal persisted alongside the snapshot).
    pub fn attach_journal(&mut self, journal: &'a mut Journal) {
        self.scheduler.set_obs_enabled(true);
        self.journal = Some(journal);
    }

    /// The earliest pending event, as `(time, priority)`.
    fn next_event(&self) -> Option<(f64, u8)> {
        let mut next: Option<(f64, u8)> = None;
        let consider = |t: f64, prio: u8, next: &mut Option<(f64, u8)>| {
            let better = match next {
                None => true,
                Some((bt, bp)) => t < *bt || (t == *bt && prio < *bp),
            };
            if better {
                *next = Some((t, prio));
            }
        };
        if let Some((_, _, end)) = self.in_flight {
            consider(end, PRIO_TX_COMPLETE, &mut next);
        }
        consider(self.next_slot_s, PRIO_SLOT, &mut next);
        if self.hb_idx < self.heartbeats.len() {
            consider(
                self.heartbeats[self.hb_idx].time_s,
                PRIO_HEARTBEAT,
                &mut next,
            );
        }
        if self.arrival_idx < self.packets.len() {
            consider(
                self.packets[self.arrival_idx].arrival_s,
                PRIO_ARRIVAL,
                &mut next,
            );
        }
        if let Some(due) = self.retryq.iter().map(|(due, _)| *due).reduce(f64::min) {
            consider(due, PRIO_RETRY, &mut next);
        }
        next
    }

    /// Settles a cargo transfer attempt that ended at `end`.
    fn settle_attempt(&mut self, packet: &Packet, start: f64, end: f64) -> TxFate {
        let attempt = self.failed_attempts.get(&packet.id).copied().unwrap_or(0) + 1;
        if !self.plan.loses_transmission(packet.id, attempt) {
            return TxFate::Delivered;
        }
        self.wasted_retry_energy_j += (end - start) * self.radio_params.dch_extra_mw() / 1000.0;
        self.failed_attempts.insert(packet.id, attempt);
        let jitter = hash_unit(self.plan.seed ^ JITTER_SALT, packet.id, u64::from(attempt));
        match self.retry.decide(attempt, end, packet.arrival_s, jitter) {
            RetryDecision::RetryAfter(delay) => TxFate::Retry { due_s: end + delay },
            RetryDecision::Abandon => TxFate::Abandon { attempts: attempt },
        }
    }

    /// Event-kernel fast path: retires a maximal run of *inert* slot
    /// boundaries starting at `t` in one step, advancing every per-event
    /// counter exactly as the slot kernel would. Returns whether at least
    /// one slot was retired; `false` means the slot at `t` must be
    /// processed by the normal path (which always makes progress, so the
    /// two paths cannot livelock).
    ///
    /// A slot is inert when the scheduler certifies quiescence
    /// ([`Scheduler::slot_quiescent`]) *and* nothing observable touches
    /// it: no heartbeat departs within it (so `heartbeat_departing` is
    /// false and no heartbeat event precedes it), no alarm is due, no
    /// arrival, retry or transmission completion lands at or before it,
    /// and the train-liveness flag matches the value the certificate was
    /// issued for. Quiescent slots release nothing and buffer no obs
    /// events, so skipping them changes neither the output, the journal,
    /// nor the state fingerprint. The certificate holds across the whole
    /// batch because the skipped slots are, by definition, no-ops: only
    /// an arrival, retry, or heartbeat-flagged slot can invalidate it,
    /// and each of those ends the batch.
    fn batch_skip_slots(&mut self, t: f64) -> bool {
        if self.alarm_idx < self.alarms.len() && self.alarms[self.alarm_idx] <= t {
            return false;
        }
        let trains_alive = self.hb_idx < self.heartbeats.len() && !self.plan.trains_dead_at(t);
        if !self.scheduler.slot_quiescent(trains_alive) {
            return false;
        }
        // None of these can change while slots are skipped (the batch
        // processes no event that could touch them), so every stop
        // condition of the form `blocker <= s` collapses into one
        // precomputed exclusive bound and the loop body stays minimal:
        //   - TxComplete outranks the slot at equal time, and any earlier
        //     completion must run first (`end <= s` blocks);
        //   - arrivals, retries and oracle alarms at or before the slot
        //     block it (conservative at equality for the alarm/arrival
        //     tie-breaks: processing that slot normally is identical);
        //   - a liveness flip would be a real state change for the
        //     scheduler, and the certificate only covers the issued
        //     `trains_alive` value, so the batch must stop at the next
        //     death-window boundary (where `trains_dead_at` can change).
        let mut stop = f64::INFINITY;
        let mut bound = |b: Option<f64>| {
            if let Some(b) = b {
                stop = stop.min(b);
            }
        };
        bound(self.in_flight.map(|(_, _, end)| end));
        bound(self.packets.get(self.arrival_idx).map(|p| p.arrival_s));
        bound(self.retryq.iter().map(|(due, _)| *due).reduce(f64::min));
        bound(self.alarms.get(self.alarm_idx).copied());
        if self.hb_idx < self.heartbeats.len() {
            bound(self.plan.next_train_death_boundary(t));
        }
        let next_heartbeat = self.heartbeats.get(self.hb_idx).map(|hb| hb.time_s);
        let mut s = t;
        let mut skipped = 0u64;
        loop {
            let blocked = s > self.horizon_s
                || s >= stop
                // A heartbeat inside [s, s + slot) flags the slot; one
                // before s is an event that precedes it. Kept in exact
                // `hb < s + slot` form — folding it into `stop` would
                // need an `hb - slot` subtraction whose rounding could
                // disagree with the slot kernel's own comparison.
                || next_heartbeat.is_some_and(|hb| hb < s + self.slot_s);
            if blocked {
                break;
            }
            // Accumulate the boundary by repeated addition — bit-exact
            // with the slot kernel's own float accumulation.
            self.next_slot_s += self.slot_s;
            self.last_event_s = s;
            skipped += 1;
            s = self.next_slot_s;
        }
        self.steps_run += skipped;
        self.events_processed += skipped;
        skipped > 0
    }

    /// Processes exactly one event; returns `false` — consuming nothing —
    /// once no event at or before the horizon remains.
    pub fn step(&mut self) -> bool {
        let Some((t, prio)) = self.next_event() else {
            return false;
        };
        if t > self.horizon_s {
            return false;
        }

        match prio {
            PRIO_TX_COMPLETE => {
                let (item, start, end) = self
                    .in_flight
                    .take()
                    .expect("tx-complete implies in-flight");
                self.radio.end_transmission(end);
                if let TxItem::Packet { packet, release_s } = item {
                    match self.settle_attempt(&packet, start, end) {
                        TxFate::Delivered => self.completed.push(CompletedPacket {
                            packet,
                            release_s,
                            tx_start_s: start,
                            tx_end_s: end,
                        }),
                        TxFate::Retry { due_s } => {
                            self.retries += 1;
                            if let Some(j) = self.journal.as_deref_mut() {
                                j.push(
                                    end,
                                    Event::RetryAttempt {
                                        packet_id: packet.id,
                                        attempt: self
                                            .failed_attempts
                                            .get(&packet.id)
                                            .copied()
                                            .unwrap_or(0),
                                        abandoned: false,
                                    },
                                );
                            }
                            self.retryq.push((due_s, packet));
                        }
                        TxFate::Abandon { attempts } => {
                            if let Some(j) = self.journal.as_deref_mut() {
                                j.push(
                                    end,
                                    Event::RetryAttempt {
                                        packet_id: packet.id,
                                        attempt: attempts,
                                        abandoned: true,
                                    },
                                );
                            }
                            self.abandoned.push(AbandonedPacket {
                                packet,
                                abandoned_at_s: end,
                                attempts,
                            })
                        }
                    }
                }
            }
            PRIO_SLOT => {
                if self.kind == EngineKind::Event && self.batch_skip_slots(t) {
                    // The batch already advanced every per-event counter
                    // for each retired slot, and quiescent slots cannot
                    // have queued work for the transmission starter below.
                    return true;
                }
                while self.alarm_idx < self.alarms.len() && self.alarms[self.alarm_idx] <= t {
                    self.scheduler.on_oracle_violation(t);
                    self.alarm_idx += 1;
                }
                let heartbeat_departing = self.heartbeats[self.hb_idx..]
                    .iter()
                    .take_while(|hb| hb.time_s < t + self.slot_s)
                    .any(|hb| hb.time_s >= t);
                let trains_alive =
                    self.hb_idx < self.heartbeats.len() && !self.plan.trains_dead_at(t);
                let ctx = SlotContext {
                    now_s: t,
                    heartbeat_departing,
                    predicted_bandwidth_bps: self
                        .bandwidth
                        .bandwidth_at((t - self.slot_s).max(0.0)),
                    trains_alive,
                };
                let released = self.scheduler.on_slot(&ctx);
                if let Some(j) = self.journal.as_deref_mut() {
                    for (time_s, event) in self.scheduler.take_obs_events() {
                        j.push(time_s, event);
                    }
                }
                for packet in released {
                    self.txq.push_back(TxItem::Packet {
                        packet,
                        release_s: t,
                    });
                }
                self.next_slot_s += self.slot_s;
                self.steps_run += 1;
            }
            PRIO_HEARTBEAT => {
                let hb = self.heartbeats[self.hb_idx];
                self.hb_idx += 1;
                self.heartbeats_sent += 1;
                if let Some(j) = self.journal.as_deref_mut() {
                    j.push(
                        t,
                        Event::HeartbeatFired {
                            size_bytes: hb.size_bytes,
                        },
                    );
                }
                // Heartbeats are sent by their own daemons: front of queue.
                self.txq.push_front(TxItem::Heartbeat(hb));
            }
            PRIO_ARRIVAL => {
                let packet = self.packets[self.arrival_idx];
                self.arrival_idx += 1;
                let released = self
                    .scheduler
                    .on_arrival(packet, t)
                    .expect("workload apps are registered with the scheduler");
                if let Some(j) = self.journal.as_deref_mut() {
                    for (time_s, event) in self.scheduler.take_obs_events() {
                        j.push(time_s, event);
                    }
                }
                for packet in released {
                    self.txq.push_back(TxItem::Packet {
                        packet,
                        release_s: t,
                    });
                }
            }
            PRIO_RETRY => {
                // Pop the earliest-due retry (first of equals — insertion
                // order keeps this deterministic) and re-offer it through
                // the scheduler's failure-feedback hook.
                let idx = self
                    .retryq
                    .iter()
                    .enumerate()
                    .min_by(|(_, (a, _)), (_, (b, _))| a.total_cmp(b))
                    .map(|(i, _)| i)
                    .expect("retry event implies non-empty retry queue");
                let (_, packet) = self.retryq.remove(idx);
                let released = self
                    .scheduler
                    .on_tx_failure(packet, t)
                    .expect("retried packets belong to registered apps");
                if let Some(j) = self.journal.as_deref_mut() {
                    for (time_s, event) in self.scheduler.take_obs_events() {
                        j.push(time_s, event);
                    }
                }
                for packet in released {
                    self.txq.push_back(TxItem::Packet {
                        packet,
                        release_s: t,
                    });
                }
            }
            _ => unreachable!("unknown event priority"),
        }

        // Start the next transmission if the radio is free. Data flows
        // only after any RRC state promotion completes (IDLE→DCH or
        // FACH→DCH signaling — 0 s with the paper's defaults, non-zero in
        // the fast-dormancy ablation); the radio is busy throughout.
        if self.in_flight.is_none() {
            if let Some(item) = self.txq.pop_front() {
                let promotion_s = match self.radio.state() {
                    etrain_radio::RrcState::Idle => self.radio_params.promotion_idle_to_dch_s(),
                    etrain_radio::RrcState::Fach => self.radio_params.promotion_fach_to_dch_s(),
                    etrain_radio::RrcState::Dch => 0.0,
                };
                if let Some(j) = self.journal.as_deref_mut() {
                    // Starting out of IDLE means the transmission re-used a
                    // promotion or tail some earlier transmission paid for.
                    let from_state = match self.radio.state() {
                        etrain_radio::RrcState::Idle => None,
                        etrain_radio::RrcState::Fach => Some("fach"),
                        etrain_radio::RrcState::Dch => Some("dch"),
                    };
                    if let Some(from_state) = from_state {
                        j.push(
                            t,
                            Event::TailReuse {
                                from_state: from_state.to_string(),
                                size_bytes: item.size_bytes(),
                            },
                        );
                    }
                }
                let duration = promotion_s
                    + self
                        .plan
                        .transfer_time_s(self.bandwidth, t + promotion_s, item.size_bytes());
                self.radio.start_transmission(t);
                self.transmissions.push(Transmission::new(t, duration));
                self.in_flight = Some((item, t, t + duration));
            }
        }

        self.events_processed += 1;
        self.last_event_s = t;
        true
    }

    /// Finalizes the run at the horizon and produces the output.
    ///
    /// Call after [`Engine::step`] returns `false`; calling earlier
    /// truncates the run at the current step boundary (everything still
    /// queued counts as unfinished).
    pub fn finish(mut self) -> EngineOutput {
        // Let the in-flight transmission finish if it ends exactly at the
        // horizon boundary; otherwise count it as unfinished. A boundary
        // completion still flips its loss coin: a lost final attempt whose
        // retry falls past the horizon counts as unfinished, not completed.
        let mut in_flight_unfinished = Vec::new();
        if let Some((item, start, end)) = self.in_flight.take() {
            if end <= self.horizon_s {
                self.radio.end_transmission(end);
                if let TxItem::Packet { packet, release_s } = item {
                    match self.settle_attempt(&packet, start, end) {
                        TxFate::Delivered => self.completed.push(CompletedPacket {
                            packet,
                            release_s,
                            tx_start_s: start,
                            tx_end_s: end,
                        }),
                        TxFate::Retry { .. } => {
                            self.retries += 1;
                            if let Some(j) = self.journal.as_deref_mut() {
                                j.push(
                                    end,
                                    Event::RetryAttempt {
                                        packet_id: packet.id,
                                        attempt: self
                                            .failed_attempts
                                            .get(&packet.id)
                                            .copied()
                                            .unwrap_or(0),
                                        abandoned: false,
                                    },
                                );
                            }
                            in_flight_unfinished.push(packet);
                        }
                        TxFate::Abandon { attempts } => {
                            if let Some(j) = self.journal.as_deref_mut() {
                                j.push(
                                    end,
                                    Event::RetryAttempt {
                                        packet_id: packet.id,
                                        attempt: attempts,
                                        abandoned: true,
                                    },
                                );
                            }
                            self.abandoned.push(AbandonedPacket {
                                packet,
                                abandoned_at_s: end,
                                attempts,
                            })
                        }
                    }
                }
            } else if let TxItem::Packet { packet, .. } = item {
                in_flight_unfinished.push(packet);
            }
        }
        self.radio.advance_to(self.horizon_s);
        for item in std::mem::take(&mut self.txq) {
            if let TxItem::Packet { packet, .. } = item {
                in_flight_unfinished.push(packet);
            }
        }
        // Retries still backing off at the horizon were released but never
        // re-delivered: unfinished.
        for (_, packet) in std::mem::take(&mut self.retryq) {
            in_flight_unfinished.push(packet);
        }

        EngineOutput {
            completed: std::mem::take(&mut self.completed),
            in_flight: in_flight_unfinished,
            abandoned: std::mem::take(&mut self.abandoned),
            retries: self.retries,
            wasted_retry_energy_j: self.wasted_retry_energy_j,
            still_deferred: self.scheduler.pending(),
            shed: self.scheduler.take_shed(),
            forced_flushes: self.scheduler.forced_flushes(),
            health_events: self.scheduler.health_transitions(),
            heartbeats_sent: self.heartbeats_sent,
            transmission_energy_j: self.radio.transmission_energy_j(),
            tail_energy_j: self.radio.tail_energy_j(),
            idle_energy_j: self.radio_params.idle_mw() / 1000.0 * self.horizon_s,
            busy_time_s: self.radio.busy_time_s(),
            promotions: self.radio.promotions(),
            horizon_s: self.horizon_s,
            transmissions: std::mem::take(&mut self.transmissions),
            radio_params: self.radio_params.clone(),
            events_processed: self.events_processed,
            steps_run: self.steps_run,
        }
    }

    /// Steps to exhaustion and finalizes: the one batch entry point.
    pub fn run(mut self) -> EngineOutput {
        while self.step() {}
        self.finish()
    }

    /// Captures a versioned, fingerprinted checkpoint of the run at the
    /// current step boundary. Cheap relative to a run (one hashing pass
    /// over the engine's state), serializable, and consumed by
    /// [`Engine::restore`].
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            version: SNAPSHOT_VERSION,
            taken_at_s: self.last_event_s,
            events_processed: self.events_processed,
            steps_run: self.steps_run,
            journal_events: self.journal_events(),
            engine: self.kind,
            fingerprint: self.fingerprint(),
        }
    }

    /// FNV-1a over every observable piece of mutable run state: engine
    /// counters and queues, terminal records, radio accounting, and the
    /// scheduler's non-consuming observables.
    fn fingerprint(&self) -> u64 {
        let mut f = Fnv1a::new();
        f.write_u64(self.events_processed);
        f.write_u64(self.steps_run);
        f.write_f64(self.last_event_s);
        f.write_f64(self.next_slot_s);
        // The kernel kind participates in the replay coordinate system
        // (batch boundaries differ across kinds), but only event-kernel
        // runs are tagged so every pre-existing slot-kernel fingerprint
        // stays valid.
        if self.kind != EngineKind::Slot {
            f.write_u64(self.kind as u64);
        }
        f.write_u64(self.arrival_idx as u64);
        f.write_u64(self.hb_idx as u64);
        f.write_u64(self.alarm_idx as u64);
        f.write_u64(self.heartbeats_sent as u64);
        f.write_u64(self.retries as u64);
        f.write_f64(self.wasted_retry_energy_j);

        let item = |f: &mut Fnv1a, item: &TxItem| match item {
            TxItem::Heartbeat(hb) => {
                f.write_u64(0);
                f.write_f64(hb.time_s);
                f.write_u64(hb.size_bytes);
            }
            TxItem::Packet { packet, release_s } => {
                f.write_u64(1);
                f.write_u64(packet.id);
                f.write_f64(packet.arrival_s);
                f.write_u64(packet.size_bytes);
                f.write_f64(*release_s);
            }
        };
        f.write_u64(self.txq.len() as u64);
        for queued in &self.txq {
            item(&mut f, queued);
        }
        match &self.in_flight {
            None => f.write_u64(0),
            Some((flying, start, end)) => {
                f.write_u64(1);
                item(&mut f, flying);
                f.write_f64(*start);
                f.write_f64(*end);
            }
        }
        f.write_u64(self.retryq.len() as u64);
        for (due, packet) in &self.retryq {
            f.write_f64(*due);
            f.write_u64(packet.id);
        }
        let mut attempts: Vec<(u64, u32)> =
            self.failed_attempts.iter().map(|(k, v)| (*k, *v)).collect();
        attempts.sort_unstable_by_key(|(id, _)| *id);
        f.write_u64(attempts.len() as u64);
        for (id, count) in attempts {
            f.write_u64(id);
            f.write_u64(u64::from(count));
        }

        f.write_u64(self.completed.len() as u64);
        for c in &self.completed {
            f.write_u64(c.packet.id);
            f.write_f64(c.release_s);
            f.write_f64(c.tx_start_s);
            f.write_f64(c.tx_end_s);
        }
        f.write_u64(self.abandoned.len() as u64);
        for a in &self.abandoned {
            f.write_u64(a.packet.id);
            f.write_f64(a.abandoned_at_s);
            f.write_u64(u64::from(a.attempts));
        }
        f.write_u64(self.transmissions.len() as u64);
        for tx in &self.transmissions {
            f.write_f64(tx.start_s);
            f.write_f64(tx.duration_s);
        }

        f.write_u64(match self.radio.state() {
            etrain_radio::RrcState::Idle => 0,
            etrain_radio::RrcState::Fach => 1,
            etrain_radio::RrcState::Dch => 2,
        });
        f.write_f64(self.radio.now_s());
        f.write_f64(self.radio.busy_time_s());
        f.write_f64(self.radio.transmission_energy_j());
        f.write_f64(self.radio.tail_energy_j());
        f.write_u64(self.radio.promotions() as u64);

        f.write_u64(self.scheduler.pending() as u64);
        f.write_u64(self.scheduler.pending_bytes());
        f.write_u64(self.scheduler.forced_flushes() as u64);
        f.write_u64(self.scheduler.health_transitions().len() as u64);
        f.finish()
    }

    /// Rebuilds an engine at a snapshot's step boundary by deterministic
    /// replay over freshly built inputs: steps a new engine (unjournaled)
    /// to the snapshot's `events_processed`, then verifies the state
    /// fingerprint. The scheduler must be freshly built from the same
    /// configuration the snapshotting run used. Replay runs under the
    /// snapshot's own kernel kind, so event-kernel batch boundaries are
    /// reproduced exactly and the replay lands on — never overshoots —
    /// the recorded event count.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::VersionMismatch`] for a foreign snapshot format,
    /// [`SnapshotError::ReplayExhausted`] when the inputs end early, and
    /// [`SnapshotError::FingerprintMismatch`] when replay reaches the
    /// event count in a different state — each means the snapshot does not
    /// belong to these inputs (or the simulation lost determinism).
    ///
    /// # Panics
    ///
    /// Panics as [`Engine::new`] does on invalid inputs.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        scheduler: &'a mut dyn Scheduler,
        packets: &'a [Packet],
        heartbeats: &'a [Heartbeat],
        bandwidth: &'a BandwidthTrace,
        radio_params: &'a RadioParams,
        horizon_s: f64,
        plan: &'a FaultPlan,
        retry: &'a RetryPolicy,
        snapshot: &EngineSnapshot,
    ) -> Result<Engine<'a>, SnapshotError> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found: snapshot.version,
            });
        }
        let mut engine = Engine::new(
            scheduler,
            packets,
            heartbeats,
            bandwidth,
            radio_params,
            horizon_s,
            plan,
            retry,
            None,
        )
        .with_kind(snapshot.engine);
        while engine.events_processed < snapshot.events_processed {
            if !engine.step() {
                return Err(SnapshotError::ReplayExhausted {
                    wanted: snapshot.events_processed,
                    reached: engine.events_processed,
                });
            }
        }
        let found = engine.fingerprint();
        if found != snapshot.fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                expected: snapshot.fingerprint,
                found,
            });
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etrain_sched::{AppProfile, BaselineScheduler, ETrainConfig, ETrainScheduler};
    use etrain_trace::heartbeats::{synthesize, TrainAppSpec};
    use etrain_trace::packets::CargoWorkload;
    use etrain_trace::CargoAppId;

    fn mk_packets(times: &[f64]) -> Vec<Packet> {
        times
            .iter()
            .enumerate()
            .map(|(i, &t)| Packet {
                id: i as u64,
                app: CargoAppId(0),
                arrival_s: t,
                size_bytes: 5_000,
            })
            .collect()
    }

    fn profiles() -> Vec<AppProfile> {
        AppProfile::paper_trio(60.0)
    }

    /// One engine run to the horizon under a fault plan and retry policy.
    #[allow(clippy::too_many_arguments)]
    fn run_faulted(
        scheduler: &mut dyn Scheduler,
        packets: &[Packet],
        heartbeats: &[Heartbeat],
        bandwidth: &BandwidthTrace,
        radio_params: &RadioParams,
        horizon_s: f64,
        plan: &FaultPlan,
        retry: &RetryPolicy,
    ) -> EngineOutput {
        Engine::new(
            scheduler,
            packets,
            heartbeats,
            bandwidth,
            radio_params,
            horizon_s,
            plan,
            retry,
            None,
        )
        .run()
    }

    /// [`run_faulted`] with no faults and the default retry policy.
    fn run_clean(
        scheduler: &mut dyn Scheduler,
        packets: &[Packet],
        heartbeats: &[Heartbeat],
        bandwidth: &BandwidthTrace,
        radio_params: &RadioParams,
        horizon_s: f64,
    ) -> EngineOutput {
        run_faulted(
            scheduler,
            packets,
            heartbeats,
            bandwidth,
            radio_params,
            horizon_s,
            &FaultPlan::none(),
            &RetryPolicy::default(),
        )
    }

    #[test]
    fn baseline_transmits_everything_with_zero_delay() {
        let packets = mk_packets(&[10.0, 50.0, 90.0]);
        let mut sched = BaselineScheduler::new(profiles());
        let out = run_clean(
            &mut sched,
            &packets,
            &[],
            &BandwidthTrace::constant(1_000_000.0),
            &RadioParams::galaxy_s4_3g(),
            200.0,
        );
        assert_eq!(out.completed.len(), 3);
        assert_eq!(out.still_deferred, 0);
        for c in &out.completed {
            assert!(c.scheduling_delay_s().abs() < 1e-9);
        }
        // Three isolated transmissions: three full tails.
        let full_tail = RadioParams::galaxy_s4_3g().full_tail_energy_j();
        assert!((out.tail_energy_j - 3.0 * full_tail).abs() < 0.1);
    }

    #[test]
    fn etrain_defers_to_heartbeat() {
        let packets = mk_packets(&[10.0]);
        let heartbeats = synthesize(&[TrainAppSpec::fixed("T", 100.0, 300, 50.0)], 400.0, 1);
        let mut sched = ETrainScheduler::new(
            ETrainConfig {
                theta: 10.0, // high gate: only heartbeats release
                k: None,
                slot_s: 1.0,
            },
            profiles(),
        );
        let out = run_clean(
            &mut sched,
            &packets,
            &heartbeats,
            &BandwidthTrace::constant(1_000_000.0),
            &RadioParams::galaxy_s4_3g(),
            400.0,
        );
        assert_eq!(out.completed.len(), 1);
        let delay = out.completed[0].scheduling_delay_s();
        // Arrived at 10, first heartbeat at 50 → delay ≈ 40 s.
        assert!((delay - 40.0).abs() < 1.5, "delay {delay}");
    }

    #[test]
    fn piggybacking_saves_energy_vs_baseline() {
        let workload = CargoWorkload::paper_default(0.08);
        let packets = workload.generate(3600.0, 11);
        let heartbeats = synthesize(&TrainAppSpec::paper_trio(), 3600.0, 11);
        let bandwidth = BandwidthTrace::constant(800_000.0);
        let radio = RadioParams::galaxy_s4_3g();

        let mut base = BaselineScheduler::new(profiles());
        let out_base = run_clean(&mut base, &packets, &heartbeats, &bandwidth, &radio, 3600.0);

        let mut etr = ETrainScheduler::new(
            ETrainConfig {
                theta: 0.5,
                k: None,
                slot_s: 1.0,
            },
            profiles(),
        );
        let out_etr = run_clean(&mut etr, &packets, &heartbeats, &bandwidth, &radio, 3600.0);

        let base_total = out_base.transmission_energy_j + out_base.tail_energy_j;
        let etr_total = out_etr.transmission_energy_j + out_etr.tail_energy_j;
        assert!(
            etr_total < base_total,
            "eTrain {etr_total} J should beat baseline {base_total} J"
        );
        // Both transmit every heartbeat.
        assert_eq!(out_base.heartbeats_sent, heartbeats.len());
        assert_eq!(out_etr.heartbeats_sent, heartbeats.len());
    }

    #[test]
    fn conservation_across_engine() {
        let workload = CargoWorkload::paper_default(0.10);
        let packets = workload.generate(1800.0, 3);
        let heartbeats = synthesize(&TrainAppSpec::paper_trio(), 1800.0, 3);
        let mut sched = ETrainScheduler::new(ETrainConfig::default(), profiles());
        let out = run_clean(
            &mut sched,
            &packets,
            &heartbeats,
            &BandwidthTrace::constant(500_000.0),
            &RadioParams::galaxy_s4_3g(),
            1800.0,
        );
        assert_eq!(
            out.completed.len() + out.in_flight.len() + out.still_deferred,
            packets.len(),
            "every packet is completed, in flight, or deferred"
        );
        // No duplicates.
        let mut ids: Vec<u64> = out.completed.iter().map(|c| c.packet.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.completed.len());
    }

    #[test]
    fn no_packets_no_energy_above_heartbeats() {
        let heartbeats = synthesize(&[TrainAppSpec::qq()], 3600.0, 1);
        let mut sched = BaselineScheduler::new(profiles());
        let out = run_clean(
            &mut sched,
            &[],
            &heartbeats,
            &BandwidthTrace::constant(500_000.0),
            &RadioParams::galaxy_s4_3g(),
            3600.0,
        );
        assert_eq!(out.completed.len(), 0);
        assert_eq!(out.heartbeats_sent, 12);
        // 12 isolated QQ heartbeats: 12 full tails (300 s apart).
        let expected = 12.0 * RadioParams::galaxy_s4_3g().full_tail_energy_j();
        assert!(
            (out.tail_energy_j - expected).abs() < 0.2,
            "{}",
            out.tail_energy_j
        );
    }

    #[test]
    fn horizon_truncates_unfinished_work() {
        // One enormous packet on a slow link cannot finish.
        let packets = vec![Packet {
            id: 0,
            app: CargoAppId(2),
            arrival_s: 5.0,
            size_bytes: 10_000_000,
        }];
        let mut sched = BaselineScheduler::new(profiles());
        let out = run_clean(
            &mut sched,
            &packets,
            &[],
            &BandwidthTrace::constant(8_000.0),
            &RadioParams::galaxy_s4_3g(),
            60.0,
        );
        assert!(out.completed.is_empty());
        assert_eq!(out.in_flight.len(), 1);
        // Busy from t=5 to the horizon.
        assert!((out.busy_time_s - 55.0).abs() < 1e-6);
    }

    #[test]
    fn promotion_delay_stretches_transmissions_from_idle() {
        // 2 s IDLE→DCH promotion: a lone packet's completion shifts by 2 s
        // and the radio stays busy through the promotion.
        let params = RadioParams::builder()
            .promotion_idle_to_dch_s(2.0)
            .build()
            .unwrap();
        let packets = mk_packets(&[10.0]);
        let mut sched = BaselineScheduler::new(profiles());
        let out = run_clean(
            &mut sched,
            &packets,
            &[],
            &BandwidthTrace::constant(1_000_000.0),
            &params,
            100.0,
        );
        assert_eq!(out.completed.len(), 1);
        let expected_transfer = 5_000.0 * 8.0 / 1_000_000.0;
        assert!(
            (out.completed[0].tx_end_s - (10.0 + 2.0 + expected_transfer)).abs() < 1e-9,
            "end {}",
            out.completed[0].tx_end_s
        );
        assert!((out.busy_time_s - (2.0 + expected_transfer)).abs() < 1e-9);
    }

    #[test]
    fn back_to_back_transmissions_skip_the_promotion() {
        // The second packet starts while the radio is still in the DCH
        // tail: no promotion penalty.
        let params = RadioParams::builder()
            .promotion_idle_to_dch_s(2.0)
            .build()
            .unwrap();
        let packets = mk_packets(&[10.0, 12.0]);
        let mut sched = BaselineScheduler::new(profiles());
        let out = run_clean(
            &mut sched,
            &packets,
            &[],
            &BandwidthTrace::constant(1_000_000.0),
            &params,
            100.0,
        );
        let transfer = 5_000.0 * 8.0 / 1_000_000.0;
        // One promotion (first packet) + two transfers.
        assert!((out.busy_time_s - (2.0 + 2.0 * transfer)).abs() < 1e-9);
        assert_eq!(out.promotions, 1);
    }

    #[test]
    fn timeline_reconstruction_matches_online_accounting() {
        // The offline timeline rebuilt from the engine's transmission log
        // must integrate to exactly the energy the online radio accrued —
        // a cross-check between two independent accounting paths.
        let workload = CargoWorkload::paper_default(0.08);
        let packets = workload.generate(1200.0, 9);
        let heartbeats = synthesize(&TrainAppSpec::paper_trio(), 1200.0, 9);
        let mut sched = ETrainScheduler::new(ETrainConfig::default(), profiles());
        let out = run_clean(
            &mut sched,
            &packets,
            &heartbeats,
            &BandwidthTrace::constant(500_000.0),
            &RadioParams::galaxy_s4_3g(),
            1200.0,
        );
        let timeline_energy = out.timeline().extra_energy_j();
        let online_energy = out.transmission_energy_j + out.tail_energy_j;
        assert!(
            (timeline_energy - online_energy).abs() < 1e-6,
            "timeline {timeline_energy} vs online {online_energy}"
        );
        // And the sampled power trace approximates the same total.
        let sampled = out.power_trace(0.1).energy_above_j(20.0);
        assert!((sampled - online_energy).abs() / online_energy < 0.02);
    }

    #[test]
    fn lost_attempt_burns_energy_and_retried_packet_keeps_arrival() {
        // One packet, first attempt always lost, second always delivered.
        let packets = mk_packets(&[10.0]);
        let plan = {
            let mut seed = 0u64;
            // Find a fault seed whose coin loses attempt 1 but not 2.
            loop {
                let p = FaultPlan::seeded(seed).with_loss(0.5);
                if p.loses_transmission(0, 1) && !p.loses_transmission(0, 2) {
                    break p;
                }
                seed += 1;
            }
        };
        let mut sched = BaselineScheduler::new(profiles());
        let out = run_faulted(
            &mut sched,
            &packets,
            &[],
            &BandwidthTrace::constant(1_000_000.0),
            &RadioParams::galaxy_s4_3g(),
            400.0,
            &plan,
            &RetryPolicy {
                jitter_frac: 0.0,
                ..RetryPolicy::default()
            },
        );
        assert_eq!(out.retries, 1);
        assert_eq!(out.completed.len(), 1);
        assert!(out.abandoned.is_empty());
        let c = &out.completed[0];
        // The re-delivery kept the original arrival: scheduling delay is
        // release − arrival ≈ the 2 s backoff, not zero.
        assert!((c.packet.arrival_s - 10.0).abs() < 1e-9);
        assert!(
            c.scheduling_delay_s() > 1.9,
            "delay {} should include the backoff",
            c.scheduling_delay_s()
        );
        // The failed attempt's energy is charged and broken out.
        assert!(out.wasted_retry_energy_j > 0.0);
        assert!(out.wasted_retry_energy_j < out.transmission_energy_j);
    }

    #[test]
    fn conservation_holds_under_heavy_faults() {
        let workload = CargoWorkload::paper_default(0.10);
        let packets = workload.generate(1800.0, 3);
        let heartbeats = synthesize(&TrainAppSpec::paper_trio(), 1800.0, 3);
        let plan = FaultPlan::seeded(8)
            .with_loss(0.5)
            .with_heartbeat_drops(0.2)
            .with_outage(200.0, 400.0)
            .with_train_death(900.0, 1200.0);
        let mut sched = ETrainScheduler::new(ETrainConfig::default(), profiles());
        let out = run_faulted(
            &mut sched,
            &packets,
            &heartbeats,
            &BandwidthTrace::constant(500_000.0),
            &RadioParams::galaxy_s4_3g(),
            1800.0,
            &plan,
            &RetryPolicy::default(),
        );
        assert_eq!(
            out.completed.len() + out.abandoned.len() + out.in_flight.len() + out.still_deferred,
            packets.len(),
            "every packet is completed, abandoned, in flight, or deferred"
        );
        // No packet appears in two terminal states.
        let mut ids: Vec<u64> = out
            .completed
            .iter()
            .map(|c| c.packet.id)
            .chain(out.abandoned.iter().map(|a| a.packet.id))
            .chain(out.in_flight.iter().map(|p| p.id))
            .collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "no duplicate terminal states");
        assert!(
            out.heartbeats_sent < heartbeats.len(),
            "drops + death window bite"
        );
    }

    #[test]
    #[should_panic(expected = "invalid retry policy")]
    fn invalid_retry_policy_rejected() {
        let mut sched = BaselineScheduler::new(profiles());
        let _ = run_faulted(
            &mut sched,
            &[],
            &[],
            &BandwidthTrace::constant(1e6),
            &RadioParams::galaxy_s4_3g(),
            100.0,
            &FaultPlan::none(),
            &RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_packets_rejected() {
        let packets = mk_packets(&[50.0, 10.0]);
        let mut sched = BaselineScheduler::new(profiles());
        let _ = run_clean(
            &mut sched,
            &packets,
            &[],
            &BandwidthTrace::constant(1e6),
            &RadioParams::galaxy_s4_3g(),
            100.0,
        );
    }

    // ---- snapshot/restore ----

    struct Inputs {
        packets: Vec<Packet>,
        heartbeats: Vec<Heartbeat>,
        bandwidth: BandwidthTrace,
        radio: RadioParams,
        plan: FaultPlan,
        retry: RetryPolicy,
        horizon_s: f64,
    }

    fn faulted_inputs() -> Inputs {
        Inputs {
            packets: CargoWorkload::paper_default(0.10).generate(900.0, 5),
            heartbeats: synthesize(&TrainAppSpec::paper_trio(), 900.0, 5),
            bandwidth: BandwidthTrace::constant(400_000.0),
            radio: RadioParams::galaxy_s4_3g(),
            plan: FaultPlan::seeded(17)
                .with_loss(0.3)
                .with_outage(200.0, 260.0),
            retry: RetryPolicy::default(),
            horizon_s: 900.0,
        }
    }

    fn sched() -> ETrainScheduler {
        ETrainScheduler::new(ETrainConfig::default(), profiles())
    }

    fn output_eq(a: &EngineOutput, b: &EngineOutput) {
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.in_flight, b.in_flight);
        assert_eq!(a.abandoned, b.abandoned);
        assert_eq!(a.retries, b.retries);
        assert_eq!(
            a.wasted_retry_energy_j.to_bits(),
            b.wasted_retry_energy_j.to_bits()
        );
        assert_eq!(
            a.transmission_energy_j.to_bits(),
            b.transmission_energy_j.to_bits()
        );
        assert_eq!(a.tail_energy_j.to_bits(), b.tail_energy_j.to_bits());
        assert_eq!(a.busy_time_s.to_bits(), b.busy_time_s.to_bits());
        assert_eq!(a.promotions, b.promotions);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.steps_run, b.steps_run);
        assert_eq!(a.transmissions.len(), b.transmissions.len());
    }

    #[test]
    fn stepwise_engine_matches_batch_run() {
        let inputs = faulted_inputs();
        let mut s1 = sched();
        let batch = run_faulted(
            &mut s1,
            &inputs.packets,
            &inputs.heartbeats,
            &inputs.bandwidth,
            &inputs.radio,
            inputs.horizon_s,
            &inputs.plan,
            &inputs.retry,
        );
        let mut s2 = sched();
        let mut eng = Engine::new(
            &mut s2,
            &inputs.packets,
            &inputs.heartbeats,
            &inputs.bandwidth,
            &inputs.radio,
            inputs.horizon_s,
            &inputs.plan,
            &inputs.retry,
            None,
        );
        while eng.step() {}
        let stepped = eng.finish();
        output_eq(&batch, &stepped);
    }

    #[test]
    fn snapshot_restore_resumes_bit_for_bit() {
        let inputs = faulted_inputs();
        let mut s1 = sched();
        let full = run_faulted(
            &mut s1,
            &inputs.packets,
            &inputs.heartbeats,
            &inputs.bandwidth,
            &inputs.radio,
            inputs.horizon_s,
            &inputs.plan,
            &inputs.retry,
        );

        // Run to roughly one third, snapshot, serialize it durably, and
        // resume on a freshly built scheduler.
        let mut s2 = sched();
        let mut eng = Engine::new(
            &mut s2,
            &inputs.packets,
            &inputs.heartbeats,
            &inputs.bandwidth,
            &inputs.radio,
            inputs.horizon_s,
            &inputs.plan,
            &inputs.retry,
            None,
        );
        let stop = full.events_processed / 3;
        while eng.events_processed() < stop && eng.step() {}
        let snap = eng.snapshot();
        drop(eng);
        let json = serde_json::to_string(&snap).unwrap();
        let snap: EngineSnapshot = serde_json::from_str(&json).unwrap();

        let mut s3 = sched();
        let eng = Engine::restore(
            &mut s3,
            &inputs.packets,
            &inputs.heartbeats,
            &inputs.bandwidth,
            &inputs.radio,
            inputs.horizon_s,
            &inputs.plan,
            &inputs.retry,
            &snap,
        )
        .expect("snapshot restores on identical inputs");
        let resumed = eng.run();
        output_eq(&full, &resumed);
    }

    #[test]
    fn restore_rejects_foreign_snapshot() {
        let inputs = faulted_inputs();
        let mut s1 = sched();
        let mut eng = Engine::new(
            &mut s1,
            &inputs.packets,
            &inputs.heartbeats,
            &inputs.bandwidth,
            &inputs.radio,
            inputs.horizon_s,
            &inputs.plan,
            &inputs.retry,
            None,
        );
        for _ in 0..200 {
            eng.step();
        }
        let snap = eng.snapshot();
        drop(eng);

        // Different fault seed → different replayed state.
        let other_plan = FaultPlan::seeded(99)
            .with_loss(0.3)
            .with_outage(200.0, 260.0);
        let mut s2 = sched();
        let err = Engine::restore(
            &mut s2,
            &inputs.packets,
            &inputs.heartbeats,
            &inputs.bandwidth,
            &inputs.radio,
            inputs.horizon_s,
            &other_plan,
            &inputs.retry,
            &snap,
        )
        .err()
        .expect("foreign snapshot must be rejected");
        assert!(
            matches!(
                err,
                SnapshotError::FingerprintMismatch { .. } | SnapshotError::ReplayExhausted { .. }
            ),
            "{err}"
        );

        // Wrong version is rejected before any replay happens.
        let stale = EngineSnapshot {
            version: SNAPSHOT_VERSION + 1,
            ..snap
        };
        let mut s3 = sched();
        let err = Engine::restore(
            &mut s3,
            &inputs.packets,
            &inputs.heartbeats,
            &inputs.bandwidth,
            &inputs.radio,
            inputs.horizon_s,
            &inputs.plan,
            &inputs.retry,
            &stale,
        )
        .err()
        .expect("stale version must be rejected");
        assert_eq!(
            err,
            SnapshotError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found: SNAPSHOT_VERSION + 1,
            }
        );
    }

    // ---- event kernel ----

    #[test]
    fn engine_kind_parses_its_two_names() {
        assert_eq!("slot".parse::<EngineKind>().unwrap(), EngineKind::Slot);
        assert_eq!("Event".parse::<EngineKind>().unwrap(), EngineKind::Event);
        assert_eq!(" EVENT ".parse::<EngineKind>().unwrap(), EngineKind::Event);
        for junk in ["slots", "on", "off", "1", "0", "true"] {
            assert!(junk.parse::<EngineKind>().is_err(), "{junk:?}");
        }
    }

    #[test]
    fn engine_kind_default_is_event() {
        assert_eq!(EngineKind::default(), EngineKind::Event);
        let mut sched = BaselineScheduler::new(profiles());
        let (plan, retry) = (FaultPlan::none(), RetryPolicy::default());
        let bandwidth = BandwidthTrace::constant(1e6);
        let radio = RadioParams::galaxy_s4_3g();
        let engine = Engine::new(
            &mut sched,
            &[],
            &[],
            &bandwidth,
            &radio,
            10.0,
            &plan,
            &retry,
            None,
        );
        assert_eq!(engine.kind(), EngineKind::Event);
    }

    #[test]
    fn engine_kind_display_round_trips() {
        for kind in [EngineKind::Slot, EngineKind::Event] {
            assert_eq!(kind.to_string().parse::<EngineKind>().unwrap(), kind);
        }
    }

    fn run_with_kind(inputs: &Inputs, kind: EngineKind) -> EngineOutput {
        let mut s = sched();
        Engine::new(
            &mut s,
            &inputs.packets,
            &inputs.heartbeats,
            &inputs.bandwidth,
            &inputs.radio,
            inputs.horizon_s,
            &inputs.plan,
            &inputs.retry,
            None,
        )
        .with_kind(kind)
        .run()
    }

    #[test]
    fn event_kernel_matches_slot_kernel_on_faulted_inputs() {
        let inputs = faulted_inputs();
        let slot = run_with_kind(&inputs, EngineKind::Slot);
        let event = run_with_kind(&inputs, EngineKind::Event);
        output_eq(&slot, &event);
    }

    #[test]
    fn event_kernel_batches_quiescent_slots_into_fewer_steps() {
        // A sparse standby run: three packets in an hour leave long
        // quiescent stretches the event kernel must retire in bulk.
        let packets = mk_packets(&[10.0, 1000.0, 2500.0]);
        let heartbeats = synthesize(&[TrainAppSpec::qq()], 3600.0, 1);
        let bandwidth = BandwidthTrace::constant(500_000.0);
        let radio = RadioParams::galaxy_s4_3g();
        let plan = FaultPlan::none();
        let retry = RetryPolicy::default();

        let calls = |kind: EngineKind| {
            let mut s = BaselineScheduler::new(profiles());
            let mut eng = Engine::new(
                &mut s,
                &packets,
                &heartbeats,
                &bandwidth,
                &radio,
                3600.0,
                &plan,
                &retry,
                None,
            )
            .with_kind(kind);
            let mut steps = 0u64;
            while eng.step() {
                steps += 1;
            }
            (steps, eng.finish())
        };
        let (slot_calls, slot_out) = calls(EngineKind::Slot);
        let (event_calls, event_out) = calls(EngineKind::Event);
        output_eq(&slot_out, &event_out);
        assert_eq!(slot_calls, slot_out.events_processed);
        assert!(
            event_calls * 10 < slot_calls,
            "event kernel made {event_calls} step calls vs {slot_calls} — batching is broken"
        );
    }

    #[test]
    fn event_kernel_snapshot_restores_bit_for_bit() {
        let inputs = faulted_inputs();
        let full = run_with_kind(&inputs, EngineKind::Event);

        let mut s1 = sched();
        let mut eng = Engine::new(
            &mut s1,
            &inputs.packets,
            &inputs.heartbeats,
            &inputs.bandwidth,
            &inputs.radio,
            inputs.horizon_s,
            &inputs.plan,
            &inputs.retry,
            None,
        )
        .with_kind(EngineKind::Event);
        let stop = full.events_processed / 3;
        while eng.events_processed() < stop && eng.step() {}
        let snap = eng.snapshot();
        drop(eng);
        assert_eq!(snap.engine, EngineKind::Event);
        let json = serde_json::to_string(&snap).unwrap();
        let snap: EngineSnapshot = serde_json::from_str(&json).unwrap();

        let mut s2 = sched();
        let eng = Engine::restore(
            &mut s2,
            &inputs.packets,
            &inputs.heartbeats,
            &inputs.bandwidth,
            &inputs.radio,
            inputs.horizon_s,
            &inputs.plan,
            &inputs.retry,
            &snap,
        )
        .expect("event-kernel snapshot restores on identical inputs");
        assert_eq!(eng.kind(), EngineKind::Event);
        let resumed = eng.run();
        output_eq(&full, &resumed);
    }

    #[test]
    fn legacy_snapshot_json_defaults_to_slot_kernel() {
        // Pre-event-kernel snapshots used the `slots_run` field name and
        // had no `engine` field; both must still deserialize.
        let json = r#"{"version":1,"taken_at_s":4.5,"events_processed":12,
                       "slots_run":4,"journal_events":0,"fingerprint":99}"#;
        let snap: EngineSnapshot = serde_json::from_str(json).unwrap();
        assert_eq!(snap.steps_run, 4);
        assert_eq!(snap.engine, EngineKind::Slot);
    }
}
