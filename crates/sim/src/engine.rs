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
//! 4. **Arrival** — a cargo packet arrives and is offered to the scheduler;
//! 5. **Retry** — a failed transfer's packet is re-offered after its
//!    backoff.
//!
//! The slot context's `heartbeat_departing` flag is true when a heartbeat
//! falls inside `[t, t + slot)`, reproducing Algorithm 1's
//! `t = t_s(h)` trigger at 1-second slots. `predicted_bandwidth_bps` is the
//! *previous* slot's bandwidth — the noisy estimate available to PerES and
//! eTime. `trains_alive` is ground truth from the heartbeat trace (the live
//! system in `etrain-core` uses the `etrain-hb` monitor instead).
//!
//! The loop itself lives in [`Engine`]: each step processes exactly one
//! event, and [`Engine::run`] steps a fresh engine to the horizon and
//! finalizes it. It is the one entry point; `Scenario` and the fleet
//! runner both go through it.
//!
//! Two kernels ([`EngineKind`]) can drive the machine. The default
//! *event* kernel consumes maximal runs of provably inert slot boundaries
//! in a single step, advancing simulated time in jumps across standby
//! stretches and across the slots where eTrain defers. The skip is gated
//! on the scheduler's certificates
//! ([`Scheduler::slot_quiescent`](etrain_sched::Scheduler::slot_quiescent)
//! and the horizon probe
//! [`Scheduler::quiet_through`](etrain_sched::Scheduler::quiet_through))
//! plus per-boundary checks that nothing observable lands on the skipped
//! slot. The *slot* kernel visits every boundary; it stays only as the
//! differential reference, selected explicitly with
//! [`Engine::with_kind`]. The two produce bit-for-bit identical outputs,
//! journals, and oracle ledgers, which the conformance and equivalence
//! suites enforce.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};

use etrain_obs::{Event, Journal};
use etrain_radio::{Radio, RadioParams, Timeline, Transmission};
use etrain_sched::{
    HealthTransition, RetryDecision, RetryPolicy, Scheduler, SchedulerError, SlotContext,
};
use etrain_trace::bandwidth::BandwidthTrace;
use etrain_trace::faults::{hash_unit, FaultPlan};
use etrain_trace::heartbeats::Heartbeat;
use etrain_trace::packets::Packet;
use serde::{Deserialize, Serialize};

use crate::scenario::state_name;

/// Salt decorrelating retry-jitter draws from the fault plan's loss coins.
const JITTER_SALT: u64 = 0x6a69_7474_6572_5f75;

/// Which kernel advances simulated time inside [`Engine`].
///
/// Both kinds are the *same* state machine over the same event taxonomy;
/// the event kernel merely consumes maximal runs of provably inert slot
/// boundaries in one step (see [`Scheduler::slot_quiescent`] and
/// [`Scheduler::quiet_through`]), bumping
/// the per-slot counters exactly as the slot kernel would. Outputs,
/// journals and oracle ledgers are bit-for-bit identical across kinds;
/// only wall-clock time differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Process every slot boundary individually (the differential
    /// reference the conformance and equivalence suites compare against).
    Slot,
    /// Batch-skip quiescent slot boundaries (the default kernel).
    #[default]
    Event,
}

// Serialized as the same lowercase spelling `Display` uses, so repro
// artifacts read naturally.
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
    /// Packets shed by admission control, then packets the scheduler
    /// refused because their app has no registered profile (terminal
    /// state: never released).
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
    /// Discrete events the engine processed to produce this output; each
    /// slot boundary the event kernel retires in a batch counts as one,
    /// so the count is identical across kernels.
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

/// The next event [`Engine::step`] processes, carrying what it consumes.
/// Declared in tie-break order: at equal times, an earlier variant runs
/// first.
#[derive(Debug, Clone, Copy)]
enum Next {
    /// The in-flight transmission finishes.
    TxComplete { item: TxItem, start: f64, end: f64 },
    /// A scheduler slot boundary.
    Slot,
    /// The heartbeat at `hb_idx` departs.
    Heartbeat(Heartbeat),
    /// The packet at `arrival_idx` arrives.
    Arrival(Packet),
    /// The earliest-due retry, at `idx` in the retry queue.
    Retry { idx: usize, packet: Packet },
}

/// The discrete-event loop as a stepwise state machine.
///
/// [`Engine::new`] validates the inputs and applies the fault plan's
/// heartbeat filtering; [`Engine::run`] processes one event per step until
/// no event at or before the horizon remains, then performs the horizon
/// finalization and produces the [`EngineOutput`].
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
    // Packets the scheduler refused (`SchedulerError::UnknownApp`).
    refused: Vec<Packet>,
    retries: usize,
    wasted_retry_energy_j: f64,
    // Injected oracle alarms, delivered at the first slot boundary at or
    // after each alarm time (empty for the common fault-free run).
    alarms: Vec<f64>,
    alarm_idx: usize,
    // The event kernel asks the scheduler for a horizon only at slots
    // after this time (see `batch_skip_slots`).
    no_probe_through_s: f64,
    events_processed: u64,
    steps_run: u64,
}

impl<'a> Engine<'a> {
    /// Builds an engine over the given inputs, ready to step from t = 0.
    ///
    /// `packets` and `heartbeats` must be sorted by time (the generators
    /// in `etrain-trace` produce sorted traces). The run covers
    /// `[0, horizon_s]`. A packet the scheduler refuses (its app is not
    /// registered) is never released: it ends in [`EngineOutput::shed`].
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
            refused: Vec::new(),
            retries: 0,
            wasted_retry_energy_j: 0.0,
            alarms,
            alarm_idx: 0,
            no_probe_through_s: f64::NEG_INFINITY,
            events_processed: 0,
            steps_run: 0,
        }
    }

    /// Selects the kernel that advances simulated time (the default is
    /// [`EngineKind::Event`]).
    pub fn with_kind(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// The earliest pending event and its time. A slot boundary is always
    /// pending, so there always is one.
    fn next_event(&self) -> (f64, Next) {
        // Candidates are offered in tie-break order, so a strict `<` keeps
        // the earlier variant at equal times.
        let mut next = (self.next_slot_s, Next::Slot);
        if let Some((item, start, end)) = self.in_flight {
            if end <= next.0 {
                next = (end, Next::TxComplete { item, start, end });
            }
        }
        let mut consider = |t: f64, event: Next| {
            if t < next.0 {
                next = (t, event);
            }
        };
        if let Some(hb) = self.heartbeats.get(self.hb_idx) {
            consider(hb.time_s, Next::Heartbeat(*hb));
        }
        if let Some(packet) = self.packets.get(self.arrival_idx) {
            consider(packet.arrival_s, Next::Arrival(*packet));
        }
        // The earliest-due retry, first of equals: insertion order keeps
        // the choice deterministic.
        let earliest = self
            .retryq
            .iter()
            .enumerate()
            .min_by(|(_, (a, _)), (_, (b, _))| a.total_cmp(b));
        if let Some((idx, &(due, packet))) = earliest {
            consider(due, Next::Retry { idx, packet });
        }
        next
    }

    /// Settles a transfer that ended at `end`: the radio leaves DCH, and a
    /// cargo packet is completed, queued for a retry, or abandoned. Burned
    /// energy stays burned; a retried packet keeps its original arrival
    /// time so φ_u(t − t_a) keeps growing.
    fn settle(&mut self, item: TxItem, start: f64, end: f64) {
        self.radio.end_transmission(end);
        let TxItem::Packet { packet, release_s } = item else {
            return;
        };
        let attempt = self.failed_attempts.get(&packet.id).copied().unwrap_or(0) + 1;
        if !self.plan.loses_transmission(packet.id, attempt) {
            self.completed.push(CompletedPacket {
                packet,
                release_s,
                tx_start_s: start,
                tx_end_s: end,
            });
            return;
        }
        self.wasted_retry_energy_j += (end - start) * self.radio_params.dch_extra_mw() / 1000.0;
        self.failed_attempts.insert(packet.id, attempt);
        let jitter = hash_unit(self.plan.seed ^ JITTER_SALT, packet.id, u64::from(attempt));
        let due_s = match self.retry.decide(attempt, end, packet.arrival_s, jitter) {
            RetryDecision::RetryAfter(delay) => Some(end + delay),
            RetryDecision::Abandon => None,
        };
        if let Some(j) = self.journal.as_deref_mut() {
            j.push(
                end,
                Event::RetryAttempt {
                    packet_id: packet.id,
                    attempt,
                    abandoned: due_s.is_none(),
                },
            );
        }
        match due_s {
            Some(due_s) => {
                self.retries += 1;
                self.retryq.push((due_s, packet));
            }
            None => self.abandoned.push(AbandonedPacket {
                packet,
                abandoned_at_s: end,
                attempts: attempt,
            }),
        }
    }

    /// Event-kernel fast path: retires a maximal run of *inert* slot
    /// boundaries starting at `t` in one step, advancing every per-event
    /// counter exactly as the slot kernel would. Returns whether at least
    /// one slot was retired; `false` means the slot at `t` must be
    /// processed by the normal path (which always makes progress, so the
    /// two paths cannot livelock).
    ///
    /// A slot is *unblocked* when nothing observable touches it: no
    /// heartbeat departs within it (so `heartbeat_departing` is false and
    /// no heartbeat event precedes it), no alarm is due, no arrival, retry
    /// or transmission completion lands at or before it, and the
    /// train-liveness flag matches the value at `t`. The walk below finds
    /// the run of unblocked slots from `t`. Nothing in that run can change
    /// the scheduler's queue, so the scheduler can vouch for all of it:
    ///
    /// - [`Scheduler::slot_quiescent`] vouches for every slot at once;
    /// - otherwise [`Scheduler::quiet_through`] is asked for the last
    ///   slot, and if that one would act, a galloping search finds the
    ///   first slot that would. Quietness at a slot implies it at every
    ///   earlier one (the method's contract; for eTrain, `P(t)` never
    ///   falls over a fixed queue), so the slots before it are retired
    ///   and it is left to the normal path.
    ///
    /// A probe costs about what stepping one slot costs, and skipping a
    /// probe only means stepping, which is always exact. So there is no
    /// probe in journaled runs (every deferral over a non-empty queue is
    /// journaled), on a run of one slot, at a slot a failed search has
    /// already shown to act, or on the slot right after one that released
    /// (`no_probe_through_s`).
    fn batch_skip_slots(&mut self, t: f64) -> bool {
        if self.alarm_idx < self.alarms.len() && self.alarms[self.alarm_idx] <= t {
            return false;
        }
        let trains_alive = self.hb_idx < self.heartbeats.len() && !self.plan.trains_dead_at(t);
        let quiescent = self.scheduler.slot_quiescent(trains_alive);
        if !quiescent && (self.journal.is_some() || t <= self.no_probe_through_s) {
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
        // Slot times accumulate by repeated addition, here and in the
        // search below — bit-exact with the slot kernel's own float
        // accumulation, never `t + k·slot_s`.
        let mut s = t;
        let mut last = t;
        let mut unblocked = 0u64;
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
            last = s;
            s += self.slot_s;
            unblocked += 1;
        }
        let (mut skipped, mut end) = (unblocked, s);
        if !quiescent && unblocked > 0 {
            if unblocked == 1 {
                return false;
            }
            if !self.scheduler.quiet_through(last, trains_alive) {
                // Every slot from the first loud one through `last` would
                // act: leave them unprobed until a release changes that.
                self.no_probe_through_s = last;
                // Galloping search for the first loud slot: every slot
                // before `lo` is quiet, the one at `hi` is not.
                let (mut lo, mut s_lo, mut hi) = (0u64, t, unblocked - 1);
                let (mut width, mut galloping) = (1u64, true);
                while lo < hi {
                    let mid = if galloping {
                        (lo + width - 1).min(hi - 1)
                    } else {
                        lo + (hi - lo) / 2
                    };
                    let mut s_mid = s_lo;
                    for _ in lo..mid {
                        s_mid += self.slot_s;
                    }
                    if self.scheduler.quiet_through(s_mid, trains_alive) {
                        lo = mid + 1;
                        s_lo = s_mid + self.slot_s;
                        width *= 2;
                    } else {
                        hi = mid;
                        galloping = false;
                    }
                }
                (skipped, end) = (lo, s_lo);
            }
        }
        self.next_slot_s = end;
        self.steps_run += skipped;
        self.events_processed += skipped;
        skipped > 0
    }

    /// Moves the events the scheduler buffered into the journal, if any.
    fn drain_obs_events(&mut self) {
        if let Some(j) = self.journal.as_deref_mut() {
            self.scheduler.drain_obs_events_into(j);
        }
    }

    /// Takes the scheduler's answer to offering `packet` at `t`: queues
    /// what it released, or keeps a packet it refused as shed, so the
    /// packet is never released.
    fn enqueue_offered(
        &mut self,
        packet: Packet,
        offered: Result<Vec<Packet>, SchedulerError>,
        t: f64,
    ) {
        match offered {
            Ok(released) => self.enqueue_released(released, t),
            Err(SchedulerError::UnknownApp { .. }) => self.refused.push(packet),
        }
    }

    /// Appends the packets the scheduler released at `t` to `Q_TX`.
    fn enqueue_released(&mut self, released: Vec<Packet>, t: f64) {
        for packet in released {
            self.txq.push_back(TxItem::Packet {
                packet,
                release_s: t,
            });
        }
    }

    /// Processes exactly one event; returns `false` — consuming nothing —
    /// once no event at or before the horizon remains.
    fn step(&mut self) -> bool {
        let (t, event) = self.next_event();
        if t > self.horizon_s {
            return false;
        }

        match event {
            Next::TxComplete { item, start, end } => {
                self.in_flight = None;
                self.settle(item, start, end);
            }
            Next::Slot => {
                if self.kind == EngineKind::Event && self.batch_skip_slots(t) {
                    // The batch already advanced every per-event counter
                    // for each retired slot, and retired slots release
                    // nothing, so the transmission starter below has no
                    // new work.
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
                self.drain_obs_events();
                self.next_slot_s += self.slot_s;
                self.steps_run += 1;
                if !released.is_empty() {
                    // The next slot most likely acts too: step it unprobed.
                    self.no_probe_through_s = self.next_slot_s;
                }
                self.enqueue_released(released, t);
            }
            Next::Heartbeat(hb) => {
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
            Next::Arrival(packet) => {
                self.arrival_idx += 1;
                let offered = self.scheduler.on_arrival(packet, t);
                self.drain_obs_events();
                self.enqueue_offered(packet, offered, t);
            }
            Next::Retry { idx, packet } => {
                // Re-offer the packet through the scheduler's
                // failure-feedback hook.
                self.retryq.remove(idx);
                let offered = self.scheduler.on_tx_failure(packet, t);
                self.drain_obs_events();
                self.enqueue_offered(packet, offered, t);
            }
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
                    let from_state = self.radio.state();
                    if from_state != etrain_radio::RrcState::Idle {
                        j.push(
                            t,
                            Event::TailReuse {
                                from_state: state_name(from_state),
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
        true
    }

    /// Finalizes the run at the horizon and produces the output; call once
    /// [`step`](Self::step) returns `false`.
    fn finish(mut self) -> EngineOutput {
        // A transfer still in flight ends past the horizon: `step` runs
        // every event at or before it, a completion exactly at the
        // boundary included (and settles it, loss coin and all).
        let mut in_flight_unfinished = Vec::new();
        if let Some((TxItem::Packet { packet, .. }, _, _)) = self.in_flight.take() {
            in_flight_unfinished.push(packet);
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
            shed: {
                let mut shed = self.scheduler.take_shed();
                shed.append(&mut self.refused);
                shed
            },
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
    fn lost_transfer_ending_at_the_horizon_is_settled() {
        let packets = mk_packets(&[5.0]);
        let bandwidth = BandwidthTrace::constant(1_000_000.0);
        let radio = RadioParams::galaxy_s4_3g();
        let mut sched = BaselineScheduler::new(profiles());
        let clean = run_clean(&mut sched, &packets, &[], &bandwidth, &radio, 60.0);
        // The horizon falls exactly on the end of the only transfer.
        let end = clean.completed[0].tx_end_s;
        let plan = FaultPlan::none().with_loss(1.0);
        let last_chance = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        for (retry, abandoned) in [(RetryPolicy::default(), false), (last_chance, true)] {
            for kind in [EngineKind::Slot, EngineKind::Event] {
                let mut sched = BaselineScheduler::new(profiles());
                let mut journal = Journal::new();
                let out = Engine::new(
                    &mut sched,
                    &packets,
                    &[],
                    &bandwidth,
                    &radio,
                    end,
                    &plan,
                    &retry,
                    Some(&mut journal),
                )
                .with_kind(kind)
                .run();
                assert!(out.completed.is_empty(), "{kind}: the attempt was lost");
                if abandoned {
                    assert!(out.in_flight.is_empty(), "{kind}");
                    assert_eq!(out.abandoned.len(), 1, "{kind}");
                    assert_eq!(out.abandoned[0].abandoned_at_s, end, "{kind}");
                    assert_eq!(out.retries, 0, "{kind}");
                } else {
                    // The retry is due past the horizon: unfinished.
                    assert_eq!(out.in_flight, packets, "{kind}");
                    assert!(out.abandoned.is_empty(), "{kind}");
                    assert_eq!(out.retries, 1, "{kind}");
                }
                let attempts: Vec<(f64, &Event)> = journal
                    .records()
                    .iter()
                    .filter(|r| matches!(r.event, Event::RetryAttempt { .. }))
                    .map(|r| (r.time_s, &r.event))
                    .collect();
                let expected = Event::RetryAttempt {
                    packet_id: 0,
                    attempt: 1,
                    abandoned,
                };
                assert_eq!(attempts, vec![(end, &expected)], "{kind}");
            }
        }
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
        // And the sampled power trace approximates the same total above
        // the 20 mW idle floor.
        let trace = out.timeline().sample(0.1);
        let sampled = trace.energy_j() - 20.0 * trace.duration_s() / 1000.0;
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

    #[test]
    fn a_packet_the_scheduler_refuses_is_shed_and_never_released() {
        let mut packets = mk_packets(&[10.0, 20.0, 30.0]);
        packets[1].app = CargoAppId(9);
        for kind in [EngineKind::Slot, EngineKind::Event] {
            let mut sched = BaselineScheduler::new(profiles());
            let out = Engine::new(
                &mut sched,
                &packets,
                &[],
                &BandwidthTrace::constant(1e6),
                &RadioParams::galaxy_s4_3g(),
                100.0,
                &FaultPlan::none(),
                &RetryPolicy::default(),
                None,
            )
            .with_kind(kind)
            .run();
            assert_eq!(out.shed, vec![packets[1]], "{kind}");
            let done: Vec<u64> = out.completed.iter().map(|c| c.packet.id).collect();
            assert_eq!(done, [0, 2], "{kind}");
            // The report indexes profiles only by completed packets.
            let report = crate::RunReport::from_engine(sched.name(), &out, &profiles());
            assert_eq!(report.packets_shed, 1, "{kind}");
        }
    }

    // ---- stepwise vs batch ----

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
        // A journaled engine driven one step at a time must reproduce
        // `run` under either kernel: the same output and the same journal
        // bytes.
        let inputs = faulted_inputs();
        for kind in [EngineKind::Slot, EngineKind::Event] {
            let journaled = |stepwise: bool| {
                let mut s = sched();
                let mut journal = Journal::new();
                let mut eng = Engine::new(
                    &mut s,
                    &inputs.packets,
                    &inputs.heartbeats,
                    &inputs.bandwidth,
                    &inputs.radio,
                    inputs.horizon_s,
                    &inputs.plan,
                    &inputs.retry,
                    Some(&mut journal),
                )
                .with_kind(kind);
                let output = if stepwise {
                    while eng.step() {}
                    eng.finish()
                } else {
                    eng.run()
                };
                (output, journal.to_jsonl())
            };
            let (batch, batch_jsonl) = journaled(false);
            let (stepped, stepped_jsonl) = journaled(true);
            output_eq(&batch, &stepped);
            assert!(!batch_jsonl.is_empty(), "{kind}: the run journals events");
            assert_eq!(batch_jsonl, stepped_jsonl, "{kind}: journals diverged");
        }
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
        assert_eq!(engine.kind, EngineKind::Event);
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
    /// eTrain behind a wrapper that forwards every call the event kernel
    /// makes, horizon included, and logs each `on_slot` call as
    /// `(now_s, heartbeat_departing, released)`.
    #[derive(Debug)]
    struct SlotLog {
        inner: ETrainScheduler,
        calls: Vec<(f64, bool, usize)>,
    }

    impl Scheduler for SlotLog {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn on_arrival(
            &mut self,
            packet: Packet,
            now_s: f64,
        ) -> Result<Vec<Packet>, etrain_sched::SchedulerError> {
            self.inner.on_arrival(packet, now_s)
        }

        fn on_slot(&mut self, ctx: &SlotContext) -> Vec<Packet> {
            let released = self.inner.on_slot(ctx);
            self.calls
                .push((ctx.now_s, ctx.heartbeat_departing, released.len()));
            released
        }

        fn slot_s(&self) -> f64 {
            self.inner.slot_s()
        }

        fn slot_quiescent(&self, trains_alive: bool) -> bool {
            self.inner.slot_quiescent(trains_alive)
        }

        fn quiet_through(&self, at_s: f64, trains_alive: bool) -> bool {
            self.inner.quiet_through(at_s, trains_alive)
        }

        fn pending(&self) -> usize {
            self.inner.pending()
        }

        fn pending_bytes(&self) -> u64 {
            self.inner.pending_bytes()
        }
    }

    #[test]
    fn horizons_step_only_heartbeat_breach_and_event_slots() {
        // Cloud packets pile up between heartbeats 600 s apart, so at
        // Θ = 20 the queue defers for hundreds of slots at a time and
        // breaches Θ between heartbeats.
        let packets: Vec<Packet> = (0..40)
            .map(|i| Packet {
                id: i,
                app: CargoAppId(2),
                arrival_s: 10.3 + 37.7 * i as f64,
                size_bytes: 5_000,
            })
            .collect();
        let heartbeats = synthesize(&[TrainAppSpec::fixed("T", 600.0, 300, 450.0)], 1800.0, 1);
        let bandwidth = BandwidthTrace::constant(1_000_000.0);
        let radio = RadioParams::galaxy_s4_3g();
        let (plan, retry) = (FaultPlan::none(), RetryPolicy::default());
        let etrain = || {
            let config = ETrainConfig {
                theta: 20.0,
                k: Some(20),
                slot_s: 1.0,
            };
            ETrainScheduler::new(config, profiles())
        };
        let mut logged = SlotLog {
            inner: etrain(),
            calls: Vec::new(),
        };
        let event = Engine::new(
            &mut logged,
            &packets,
            &heartbeats,
            &bandwidth,
            &radio,
            1800.0,
            &plan,
            &retry,
            None,
        )
        .run();
        let mut reference = etrain();
        let slot = Engine::new(
            &mut reference,
            &packets,
            &heartbeats,
            &bandwidth,
            &radio,
            1800.0,
            &plan,
            &retry,
            None,
        )
        .with_kind(EngineKind::Slot)
        .run();
        output_eq(&slot, &event);

        // Arrivals, heartbeats and transfer ends: a slot is stepped when
        // one lands on it or ends its run of skippable slots early.
        let events: Vec<f64> = packets
            .iter()
            .map(|p| p.arrival_s)
            .chain(heartbeats.iter().map(|hb| hb.time_s))
            .chain(event.transmissions.iter().map(|tx| tx.end_s()))
            .collect();
        let mut after_release = false;
        for &(now_s, heartbeat, released) in &logged.calls {
            let next_to_event = events.iter().any(|&e| now_s <= e && e < now_s + 2.0);
            assert!(
                heartbeat || released > 0 || after_release || next_to_event,
                "on_slot ran at {now_s}, a deferral no event explains"
            );
            after_release = released > 0;
        }
        let breaches = logged
            .calls
            .iter()
            .filter(|&&(_, heartbeat, released)| !heartbeat && released > 0)
            .count();
        assert!(breaches > 0, "the queue must breach Θ between heartbeats");
        assert!(
            logged.calls.len() * 10 < slot.steps_run as usize,
            "{} on_slot calls for {} slots",
            logged.calls.len(),
            slot.steps_run
        );
    }
}
