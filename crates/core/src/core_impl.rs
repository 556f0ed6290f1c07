//! The deterministic (sans-IO) eTrain core: Heartbeat Monitor + Scheduler
//! wired together, driven by explicit timestamps.

use std::collections::{BTreeMap, BTreeSet};

use etrain_hb::{HeartbeatMonitor, TrainStatus};
use etrain_obs::json::{push_u64, push_u64_or_null};
use etrain_obs::{Event, Fnv1a, Journal};
use etrain_sched::{
    AdmissionConfig, AppProfile, ETrainConfig, ETrainScheduler, RetryDecision, RetryPolicy, Room,
    Scheduler, SlotContext,
};
use etrain_trace::faults::hash_unit;
use etrain_trace::packets::Packet;
use etrain_trace::{CargoAppId, TrainAppId};

use crate::error::CoreError;
use crate::json::{write_packet, write_request_id};
use crate::request::{
    Admission, RequestId, RetryVerdict, TransmitDecision, TransmitRequest, TxResult,
};

/// Seed for the core's retry-jitter draws. Fixed: the live core has no
/// fault plan to inherit a seed from, and determinism matters more than
/// cross-deployment variety.
const RETRY_JITTER_SEED: u64 = 0x6574_7261_696e_5f63;

/// Configuration of the deterministic core.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoreConfig {
    /// The delay-cost bound Θ of Algorithm 1.
    pub theta: f64,
    /// Packets piggybacked per heartbeat; `None` = the paper's k = ∞.
    pub k: Option<usize>,
    /// Scheduler slot length in seconds.
    pub slot_s: f64,
    /// Grace period after a train registers during which it counts as
    /// alive even before its first observed heartbeat, in seconds.
    pub startup_grace_s: f64,
    /// Retry policy applied to requests whose transmissions fail (see
    /// [`ETrainCore::report_result`]). A request with a per-request
    /// deadline uses that deadline as its give-up age instead of the
    /// policy's `give_up_age_s`.
    pub retry: RetryPolicy,
    /// Bounded-admission configuration: queue capacities and the shed
    /// policy applied when they are reached. Unbounded by default (no
    /// behavior change); see [`crate::Admission`] for the typed outcomes
    /// [`ETrainCore::submit`] reports under pressure.
    pub admission: AdmissionConfig,
}

impl Default for CoreConfig {
    /// Θ = 0.2, k = ∞, 1 s slots (the paper's deployed settings), a
    /// 10-minute startup grace, and the default retry policy.
    fn default() -> Self {
        CoreConfig {
            theta: 0.2,
            k: None,
            slot_s: 1.0,
            startup_grace_s: 600.0,
            retry: RetryPolicy::default(),
            admission: AdmissionConfig::unbounded(),
        }
    }
}

impl CoreConfig {
    fn scheduler_config(&self) -> ETrainConfig {
        ETrainConfig {
            theta: self.theta,
            k: self.k,
            slot_s: self.slot_s,
        }
    }

    /// Checks the scheduler knobs [`ETrainCore::new`] asserts on, with
    /// [`ETrainConfig::validate`]; the error names the first violation.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.scheduler_config()
            .validate()
            .map_err(|reason| CoreError::InvalidConfig { reason })
    }
}

/// Cumulative counters of a running eTrain core — the operational
/// statistics a deployment dashboard would chart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CoreStats {
    /// Requests submitted since startup.
    pub submitted: usize,
    /// Decisions issued since startup.
    pub decided: usize,
    /// Decisions that piggybacked on a heartbeat.
    pub piggybacked: usize,
    /// Requests cancelled before a decision.
    pub cancelled: usize,
    /// Heartbeats observed across all train apps.
    pub heartbeats: usize,
    /// Transmissions reported delivered via
    /// [`ETrainCore::report_result`].
    pub delivered: usize,
    /// Retries scheduled after reported failures.
    pub retries: usize,
    /// Requests the retry policy gave up on.
    pub abandoned: usize,
    /// Times the watchdog saw every train die and flushed the scheduler
    /// (paper Sec. V-3: the core stops deferring so cargo apps never wait
    /// indefinitely; piggybacking resumes when a train restarts).
    pub watchdog_flushes: usize,
    /// Requests shed by bounded admission: rejected at submission or
    /// evicted from the queue by the drop-lowest-value policy. Shed
    /// requests never receive a decision.
    pub shed: usize,
    /// Queued requests released early by the force-flush-oldest policy to
    /// make room for a new submission (these *are* transmitted; the count
    /// is bookkeeping, not loss).
    pub forced_flushes: usize,
}

/// What the core keeps of a request besides its packet. A request's id
/// is its packet's id: both are issued together, from one counter.
#[derive(Debug, Clone, Copy)]
struct PendingRequest {
    app: CargoAppId,
    submitted_at_s: f64,
    deadline_override_s: Option<f64>,
}

/// The requests waiting for a first decision, by id, plus the ids of
/// those carrying a per-request deadline override. The one `insert` and
/// the one `remove` keep the two in step, so each slot's override scan
/// walks only the requests that can need it.
#[derive(Debug, Default)]
struct PendingRequests {
    by_id: BTreeMap<u64, PendingRequest>,
    with_deadline: BTreeSet<u64>,
}

impl PendingRequests {
    fn insert(&mut self, id: u64, meta: PendingRequest) {
        if meta.deadline_override_s.is_some() {
            self.with_deadline.insert(id);
        }
        self.by_id.insert(id, meta);
    }

    fn remove(&mut self, id: u64) -> Option<PendingRequest> {
        self.with_deadline.remove(&id);
        self.by_id.remove(&id)
    }

    fn get(&self, id: u64) -> Option<&PendingRequest> {
        self.by_id.get(&id)
    }

    fn len(&self) -> usize {
        self.by_id.len()
    }

    /// The requests whose own deadline would pass by waiting one more
    /// slot of `slot_s` after `now_s`, in id order.
    fn due(&self, now_s: f64, slot_s: f64) -> Vec<(u64, CargoAppId)> {
        self.with_deadline
            .iter()
            .filter_map(|id| Some((*id, self.by_id.get(id)?)))
            .filter(|(_, meta)| {
                meta.deadline_override_s
                    .is_some_and(|deadline| now_s + slot_s - meta.submitted_at_s >= deadline)
            })
            .map(|(id, meta)| (id, meta.app))
            .collect()
    }
}

/// A decided request whose transmission outcome has not been reported yet.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    packet: Packet,
    meta: PendingRequest,
}

/// A failed request waiting out its backoff before re-entering the
/// scheduler.
#[derive(Debug, Clone, Copy)]
struct Backoff {
    resume_at_s: f64,
    packet: Packet,
    meta: PendingRequest,
}

#[derive(Debug, Clone)]
struct TrainRecord {
    name: String,
    registered_at_s: f64,
}

/// The deterministic eTrain system core.
///
/// Drive it with four calls, all carrying explicit timestamps (monotone
/// non-decreasing):
///
/// - [`ETrainCore::register_train`] / [`ETrainCore::register_cargo`] —
///   app registration (cargo apps register their delay-cost profile);
/// - [`ETrainCore::on_heartbeat`] — a train app transmitted a heartbeat
///   (the Xposed-hook trigger); runs a heartbeat slot of Algorithm 1 and
///   returns the piggybacking decisions;
/// - [`ETrainCore::submit`] — a cargo app requests a transmission;
/// - [`ETrainCore::tick`] — a regular scheduler slot.
///
/// See the [crate documentation](crate) for a complete example.
///
/// Per-request state lives in maps ordered by request id, so every scan
/// of it (the deadline-override release, the fingerprint) runs in id
/// order, the same on every replay of the same commands.
#[derive(Debug)]
pub struct ETrainCore {
    config: CoreConfig,
    scheduler: ETrainScheduler,
    monitor: HeartbeatMonitor,
    trains: Vec<TrainRecord>,
    pending: PendingRequests,
    stashed_decisions: Vec<TransmitDecision>,
    awaiting: BTreeMap<RequestId, InFlight>,
    backoffs: Vec<Backoff>,
    failed_attempts: BTreeMap<u64, u32>,
    was_alive: bool,
    stats: CoreStats,
    next_packet_id: u64,
    now_s: f64,
    journal: Option<Journal>,
}

impl ETrainCore {
    /// Creates a core with no registered apps.
    ///
    /// # Panics
    ///
    /// Panics if [`CoreConfig::validate`] rejects `config`.
    pub fn new(config: CoreConfig) -> Self {
        ETrainCore {
            scheduler: ETrainScheduler::new(config.scheduler_config(), Vec::new()),
            config,
            monitor: HeartbeatMonitor::new(),
            trains: Vec::new(),
            pending: PendingRequests::default(),
            stashed_decisions: Vec::new(),
            awaiting: BTreeMap::new(),
            backoffs: Vec::new(),
            failed_attempts: BTreeMap::new(),
            was_alive: false,
            stats: CoreStats::default(),
            next_packet_id: 0,
            now_s: 0.0,
            journal: None,
        }
    }

    /// Starts recording a structured event journal of every decision point
    /// the core passes through (heartbeats, piggyback decisions, sheds,
    /// forced flushes, retries, watchdog liveness transitions). Idempotent;
    /// see [`ETrainCore::take_journal`] to collect what was recorded. With
    /// journaling off (the default) the core takes its exact unjournaled
    /// code path — no buffering, no overhead.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Journal::new());
            self.scheduler.set_obs_enabled(true);
        }
    }

    /// Stops journaling and returns the canonicalized journal recorded
    /// since [`ETrainCore::enable_journal`] — `None` if journaling was
    /// never enabled.
    pub fn take_journal(&mut self) -> Option<Journal> {
        self.scheduler.set_obs_enabled(false);
        let mut journal = self.journal.take()?;
        journal.canonicalize();
        Some(journal)
    }

    /// Whether the core is currently recording an event journal.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Appends an event to the journal, if one is being recorded.
    fn record(&mut self, time_s: f64, event: Event) {
        if let Some(journal) = self.journal.as_mut() {
            journal.push(time_s, event);
        }
    }

    /// Moves the scheduler's buffered decision events into the journal
    /// (no-op with journaling off: the scheduler buffers nothing then).
    fn drain_scheduler_events(&mut self) {
        if let Some(journal) = self.journal.as_mut() {
            self.scheduler.drain_obs_events_into(journal);
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// The current system time in seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Number of requests waiting for a transmission decision.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative operational counters since startup.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Registers a train app. Heartbeats must reference the returned id.
    pub fn register_train(&mut self, name: impl Into<String>) -> TrainAppId {
        let id = TrainAppId(self.trains.len());
        self.trains.push(TrainRecord {
            name: name.into(),
            registered_at_s: self.now_s,
        });
        id
    }

    /// Registers a cargo app with its delay-cost profile, as Android apps
    /// do when subscribing to eTrain's service (paper Sec. V-3).
    ///
    /// Pending requests of previously registered apps are preserved; see
    /// [`ETrainScheduler::add_app`] for what else registration changes.
    pub fn register_cargo(&mut self, profile: AppProfile) -> CargoAppId {
        let id = CargoAppId(self.scheduler.profiles().len());
        self.scheduler.add_app(profile);
        id
    }

    /// Submits a transmission request for `app` at time `now_s`, returning
    /// the typed [`Admission`] outcome. Decisions for admitted requests
    /// are delivered from [`ETrainCore::tick`] /
    /// [`ETrainCore::on_heartbeat`].
    ///
    /// With the default unbounded [`CoreConfig::admission`] every
    /// submission is [`Admission::Admitted`]. Once a capacity is
    /// configured, an overflowing submission is resolved by the shed
    /// policy: rejected outright, admitted at the expense of the
    /// cheapest-cost queued request, or admitted after force-flushing the
    /// oldest queued request for immediate transmission.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownCargoApp`] for unregistered apps,
    /// [`CoreError::TimeWentBackwards`] if `now_s` precedes the system
    /// clock and [`CoreError::NonFiniteTime`] if it is NaN or infinite.
    pub fn submit(
        &mut self,
        app: CargoAppId,
        request: TransmitRequest,
        now_s: f64,
    ) -> Result<Admission, CoreError> {
        self.advance_clock(now_s)?;
        if app.index() >= self.scheduler.profiles().len() {
            return Err(CoreError::UnknownCargoApp { app });
        }
        self.stats.submitted += 1;

        // Bounded admission: when a queue capacity is reached the shed
        // policy decides who pays before the new packet may enter.
        let mut evicted: Option<RequestId> = None;
        let mut flushed: Option<TransmitDecision> = None;
        match self
            .config
            .admission
            .make_room(&mut self.scheduler, app, now_s)
        {
            Room::Free => {}
            Room::Full => {
                self.stats.shed += 1;
                // The rejected submission never becomes a packet; the
                // journal carries the id it would have received.
                self.record(
                    now_s,
                    Event::Shed {
                        packet_id: self.next_packet_id,
                        app: app.index(),
                    },
                );
                return Ok(Admission::Rejected);
            }
            Room::Evicted(victim) => {
                let meta = self.pending.remove(victim.id);
                debug_assert!(meta.is_some(), "evicted packet has pending metadata");
                self.stats.shed += 1;
                self.record(
                    now_s,
                    Event::Shed {
                        packet_id: victim.id,
                        app: victim.app.index(),
                    },
                );
                evicted = meta.map(|_| RequestId(victim.id));
            }
            Room::Flushed(victim) => {
                self.stats.forced_flushes += 1;
                self.record(
                    now_s,
                    Event::ForcedFlush {
                        packet_id: victim.id,
                        app: victim.app.index(),
                    },
                );
                flushed = self.decision_for(victim, now_s, None);
            }
        }

        let packet_id = self.next_packet_id;
        self.next_packet_id += 1;
        let id = RequestId(packet_id);

        let packet = Packet {
            id: packet_id,
            app,
            arrival_s: now_s,
            size_bytes: request.size_bytes,
        };
        self.pending.insert(
            packet_id,
            PendingRequest {
                app,
                submitted_at_s: now_s,
                deadline_override_s: request.deadline_s,
            },
        );
        let released = self
            .scheduler
            .on_arrival(packet, now_s)
            .map_err(|_| CoreError::UnknownCargoApp { app })?;
        self.drain_scheduler_events();
        // eTrain always defers on arrival, but honor the trait contract:
        // anything released immediately is stashed for the next tick.
        let stashed: Vec<TransmitDecision> = released
            .into_iter()
            .filter_map(|p| self.decision_for(p, now_s, None))
            .collect();
        self.stashed_decisions.extend(stashed);
        Ok(match (evicted, flushed) {
            (Some(victim), _) => Admission::AdmittedWithEviction {
                id,
                evicted: victim,
            },
            (None, Some(decision)) => Admission::AdmittedWithFlush {
                id,
                flushed: decision,
            },
            (None, None) => Admission::Admitted { id },
        })
    }

    /// Notifies the core that `train` transmitted a heartbeat at `now_s`
    /// (the paper's Xposed trigger) and runs a heartbeat slot of
    /// Algorithm 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTrainApp`] for unregistered trains,
    /// [`CoreError::TimeWentBackwards`] for non-monotone timestamps and
    /// [`CoreError::NonFiniteTime`] for non-finite ones.
    pub fn on_heartbeat(
        &mut self,
        train: TrainAppId,
        now_s: f64,
    ) -> Result<Vec<TransmitDecision>, CoreError> {
        self.advance_clock(now_s)?;
        if train.index() >= self.trains.len() {
            return Err(CoreError::UnknownTrainApp { train });
        }
        self.monitor.observe(train, now_s);
        self.stats.heartbeats += 1;
        // The core is *notified* of the heartbeat, it does not transmit
        // it, so the payload size is unknown at this layer.
        self.record(now_s, Event::HeartbeatFired { size_bytes: 0 });
        Ok(self.run_slot(now_s, Some(train)))
    }

    /// Runs a regular scheduler slot at `now_s` and returns the decisions.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TimeWentBackwards`] for non-monotone
    /// timestamps and [`CoreError::NonFiniteTime`] for non-finite ones.
    pub fn tick(&mut self, now_s: f64) -> Result<Vec<TransmitDecision>, CoreError> {
        self.advance_clock(now_s)?;
        Ok(self.run_slot(now_s, None))
    }

    /// Cancels a pending request (the user deleted a queued post, or the
    /// data became stale before any train departed). Returns `true` if the
    /// request was still pending and is now withdrawn, `false` if it was
    /// already decided or never existed — cancellation after a decision is
    /// a no-op because the cargo app may already be transmitting.
    pub fn cancel(&mut self, request: RequestId) -> bool {
        let Some(meta) = self.pending.get(request.0) else {
            return false;
        };
        // A pending request is always in its app's queue: a release
        // decides it, and deciding takes it out of `pending`.
        if self.scheduler.force_release(meta.app, request.0).is_none() {
            debug_assert!(false, "pending request is queued");
            return false;
        }
        self.pending.remove(request.0);
        self.stats.cancelled += 1;
        true
    }

    /// Cancels a request waiting out a retry backoff (the user gave up on
    /// the failing transfer). Returns `true` if the request was backing
    /// off and is now withdrawn. Note [`ETrainCore::cancel`] covers
    /// requests still pending a first decision; this covers the
    /// failed-and-backing-off state.
    pub fn cancel_backoff(&mut self, request: RequestId) -> bool {
        let Some(pos) = self.backoffs.iter().position(|b| b.packet.id == request.0) else {
            return false;
        };
        let b = self.backoffs.remove(pos);
        self.failed_attempts.remove(&b.packet.id);
        self.stats.cancelled += 1;
        true
    }

    /// Reports the outcome of a decided transmission. Cargo apps (or the
    /// transport layer acting for them) call this after acting on a
    /// [`TransmitDecision`]:
    ///
    /// - [`TxResult::Delivered`] closes the request;
    /// - [`TxResult::Failed`] runs the retry state machine: the request
    ///   either re-enters the scheduler after an exponential backoff with
    ///   jitter — keeping its *original* submission time, so its delay
    ///   cost keeps growing — or is abandoned when attempts are exhausted
    ///   or its age would pass the give-up threshold (the per-request
    ///   deadline when one was set, the policy's `give_up_age_s`
    ///   otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRequest`] if `request` is not awaiting
    /// a result (never decided, already closed, or reported twice),
    /// [`CoreError::TimeWentBackwards`] for non-monotone timestamps and
    /// [`CoreError::NonFiniteTime`] for non-finite ones.
    pub fn report_result(
        &mut self,
        request: RequestId,
        result: TxResult,
        now_s: f64,
    ) -> Result<RetryVerdict, CoreError> {
        self.advance_clock(now_s)?;
        let inflight = self
            .awaiting
            .remove(&request)
            .ok_or(CoreError::UnknownRequest { request })?;
        match result {
            TxResult::Delivered => {
                self.stats.delivered += 1;
                self.failed_attempts.remove(&inflight.packet.id);
                Ok(RetryVerdict::Delivered)
            }
            TxResult::Failed => {
                let attempts = self
                    .failed_attempts
                    .get(&inflight.packet.id)
                    .copied()
                    .unwrap_or(0)
                    + 1;
                self.failed_attempts.insert(inflight.packet.id, attempts);
                // Deadline-aware give-up: a per-request deadline replaces
                // the policy's default patience.
                let policy = RetryPolicy {
                    give_up_age_s: inflight
                        .meta
                        .deadline_override_s
                        .unwrap_or(self.config.retry.give_up_age_s),
                    ..self.config.retry
                };
                let jitter = hash_unit(RETRY_JITTER_SEED, inflight.packet.id, u64::from(attempts));
                match policy.decide(attempts, now_s, inflight.meta.submitted_at_s, jitter) {
                    RetryDecision::RetryAfter(delay) => {
                        self.stats.retries += 1;
                        self.record(
                            now_s,
                            Event::RetryAttempt {
                                packet_id: inflight.packet.id,
                                attempt: attempts,
                                abandoned: false,
                            },
                        );
                        self.backoffs.push(Backoff {
                            resume_at_s: now_s + delay,
                            packet: inflight.packet,
                            meta: inflight.meta,
                        });
                        Ok(RetryVerdict::RetryScheduled {
                            resume_at_s: now_s + delay,
                        })
                    }
                    RetryDecision::Abandon => {
                        self.stats.abandoned += 1;
                        self.record(
                            now_s,
                            Event::RetryAttempt {
                                packet_id: inflight.packet.id,
                                attempt: attempts,
                                abandoned: true,
                            },
                        );
                        self.failed_attempts.remove(&inflight.packet.id);
                        Ok(RetryVerdict::Abandoned)
                    }
                }
            }
        }
    }

    /// Whether the scheduler currently considers any train app alive.
    pub fn trains_alive(&self, now_s: f64) -> bool {
        self.trains.iter().enumerate().any(|(idx, record)| {
            match self.monitor.status(TrainAppId(idx), now_s) {
                TrainStatus::Alive => true,
                TrainStatus::Dead => false,
                TrainStatus::Undetermined => {
                    now_s - record.registered_at_s <= self.config.startup_grace_s
                }
            }
        })
    }

    fn advance_clock(&mut self, now_s: f64) -> Result<(), CoreError> {
        if !now_s.is_finite() {
            return Err(CoreError::NonFiniteTime { supplied_s: now_s });
        }
        if now_s < self.now_s {
            return Err(CoreError::TimeWentBackwards {
                now_s: self.now_s,
                supplied_s: now_s,
            });
        }
        self.now_s = now_s;
        Ok(())
    }

    fn run_slot(&mut self, now_s: f64, heartbeat: Option<TrainAppId>) -> Vec<TransmitDecision> {
        let mut decisions = std::mem::take(&mut self.stashed_decisions);

        // Watchdog (paper Sec. V-3): count alive→dead transitions. The
        // scheduler itself stops deferring once the slot context reports
        // no live trains, so the flush is observable as released packets;
        // the counter makes it visible in `CoreStats`. A dead→alive
        // transition (train restart) resumes piggybacking automatically.
        let alive = self.trains_alive(now_s);
        if self.was_alive != alive {
            if !alive {
                self.stats.watchdog_flushes += 1;
            }
            self.record(
                now_s,
                Event::HealthTransition {
                    from: if alive { "dead" } else { "alive" }.to_string(),
                    to: if alive { "alive" } else { "dead" }.to_string(),
                    cause: "train-liveness watchdog".to_string(),
                },
            );
        }
        self.was_alive = alive;

        // Re-admit failed requests whose backoff has elapsed, through the
        // scheduler's failure-feedback hook (original arrival preserved).
        if !self.backoffs.is_empty() {
            let mut due: Vec<Backoff> = Vec::new();
            self.backoffs.retain(|b| {
                if b.resume_at_s <= now_s {
                    due.push(*b);
                    false
                } else {
                    true
                }
            });
            due.sort_by(|a, b| a.resume_at_s.total_cmp(&b.resume_at_s));
            for b in due {
                self.pending.insert(b.packet.id, b.meta);
                // The app was registered when the packet was first
                // admitted; an unknown-app error here is an invariant
                // break. Rather than panic (or lose the request), fall
                // back to releasing it immediately.
                let released = match self.scheduler.on_tx_failure(b.packet, now_s) {
                    Ok(released) => released,
                    Err(_) => vec![b.packet],
                };
                decisions.extend(
                    released
                        .into_iter()
                        .filter_map(|p| self.decision_for(p, now_s, None)),
                );
            }
            self.drain_scheduler_events();
        }

        // Per-request deadline overrides: force-release anything that would
        // violate its own deadline by waiting one more slot, in id order.
        for (packet_id, app) in self.pending.due(now_s, self.config.slot_s) {
            if let Some(p) = self.scheduler.force_release(app, packet_id) {
                decisions.extend(self.decision_for(p, now_s, None));
            }
        }

        let ctx = SlotContext {
            now_s,
            heartbeat_departing: heartbeat.is_some(),
            predicted_bandwidth_bps: 0.0, // Algorithm 1 is channel-oblivious
            // Still the watchdog's value: nothing since then touched the
            // monitor or the clock.
            trains_alive: alive,
        };
        let slot_released = self.scheduler.on_slot(&ctx);
        self.drain_scheduler_events();
        let released: Vec<TransmitDecision> = slot_released
            .into_iter()
            .filter_map(|p| self.decision_for(p, now_s, heartbeat))
            .collect();
        decisions.extend(released);
        decisions
    }

    fn decision_for(
        &mut self,
        packet: Packet,
        now_s: f64,
        piggybacked_on: Option<TrainAppId>,
    ) -> Option<TransmitDecision> {
        // A released packet without pending metadata is an internal
        // invariant break (it can only mean double release); drop it
        // rather than panic on a user-reachable path.
        let Some(meta) = self.pending.remove(packet.id) else {
            debug_assert!(false, "released packet has pending metadata");
            return None;
        };
        self.stats.decided += 1;
        if piggybacked_on.is_some() {
            self.stats.piggybacked += 1;
        }
        // Track the decided request until its outcome is reported, so a
        // failure can be retried with its original submission metadata.
        let request = RequestId(packet.id);
        self.awaiting.insert(request, InFlight { packet, meta });
        Some(TransmitDecision {
            request,
            app: packet.app,
            size_bytes: packet.size_bytes,
            decided_at_s: now_s,
            submitted_at_s: meta.submitted_at_s,
            piggybacked_on,
        })
    }

    /// Drains every request the core still holds — stashed decisions,
    /// scheduler-queued packets (oldest first) and retry backoffs — into
    /// immediate [`TransmitDecision`]s, so a shutdown can surface in-flight
    /// work instead of silently dropping it. The drained decisions enter
    /// the awaiting set like any other; outcomes may still be reported.
    pub fn drain(&mut self) -> Vec<TransmitDecision> {
        let now_s = self.now_s;
        let mut out = std::mem::take(&mut self.stashed_decisions);
        let queued = self.scheduler.drain_pending();
        out.extend(
            queued
                .into_iter()
                .filter_map(|p| self.decision_for(p, now_s, None)),
        );
        let mut backoffs = std::mem::take(&mut self.backoffs);
        backoffs.sort_by(|a, b| {
            a.resume_at_s
                .total_cmp(&b.resume_at_s)
                .then(a.packet.id.cmp(&b.packet.id))
        });
        for b in backoffs {
            self.failed_attempts.remove(&b.packet.id);
            self.pending.insert(b.packet.id, b.meta);
            out.extend(self.decision_for(b.packet, now_s, None));
        }
        out
    }

    /// A deterministic FNV-1a fingerprint of the core's complete mutable
    /// state: configuration, registered apps, pending/awaiting/backing-off
    /// requests (in id order), retry attempt counts, cumulative stats, the
    /// id counter, the clock, and train liveness. Two cores that processed
    /// the same command stream (see [`ETrainCore::apply`]) fingerprint
    /// identically; recovery uses this to prove a replayed core matches the
    /// pre-crash one bit for bit, and checkpoints store it to validate the
    /// journal they summarize.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        // The O(apps) sections go through the serde shim; the per-request
        // loops below write the same JSON by hand into one reused buffer.
        mix_serde(&mut hash, &self.config);
        mix_serde(&mut hash, &self.scheduler.profiles());
        for train in &self.trains {
            mix_serde(&mut hash, &train.name);
            mix_serde(&mut hash, &train.registered_at_s.to_bits());
        }
        let mut buf = String::new();
        for (&packet_id, meta) in &self.pending.by_id {
            // The format hashes the id twice: once as the packet's, once as
            // the request's.
            mix(&mut hash, &mut buf, |out| push_u64(out, packet_id));
            mix(&mut hash, &mut buf, |out| push_u64(out, packet_id));
            mix(&mut hash, &mut buf, |out| {
                push_u64(out, meta.submitted_at_s.to_bits());
            });
            mix(&mut hash, &mut buf, |out| {
                push_u64_or_null(out, meta.deadline_override_s.map(f64::to_bits));
            });
        }
        for (&request, inflight) in &self.awaiting {
            mix(&mut hash, &mut buf, |out| write_request_id(out, request));
            mix(&mut hash, &mut buf, |out| {
                write_packet(out, &inflight.packet)
            });
            mix(&mut hash, &mut buf, |out| {
                push_u64(out, inflight.meta.submitted_at_s.to_bits());
            });
        }
        let mut backoffs: Vec<&Backoff> = self.backoffs.iter().collect();
        backoffs.sort_by(|a, b| {
            a.packet
                .id
                .cmp(&b.packet.id)
                .then(a.resume_at_s.total_cmp(&b.resume_at_s))
        });
        for b in backoffs {
            mix(&mut hash, &mut buf, |out| write_packet(out, &b.packet));
            mix(&mut hash, &mut buf, |out| {
                push_u64(out, b.resume_at_s.to_bits())
            });
        }
        // One field: the pairs as a JSON array of 2-arrays.
        mix(&mut hash, &mut buf, |out| {
            out.push('[');
            for (i, (packet_id, count)) in self.failed_attempts.iter().enumerate() {
                out.push_str(if i == 0 { "[" } else { ",[" });
                push_u64(out, *packet_id);
                out.push(',');
                push_u64(out, u64::from(*count));
                out.push(']');
            }
            out.push(']');
        });
        mix_serde(&mut hash, &self.stashed_decisions);
        mix_serde(&mut hash, &self.stats);
        mix_serde(&mut hash, &self.was_alive);
        // Twice, like the ids above: the packet and request counters.
        mix_serde(&mut hash, &self.next_packet_id);
        mix_serde(&mut hash, &self.next_packet_id);
        mix_serde(&mut hash, &self.now_s.to_bits());
        hash.finish()
    }
}

/// Hashes the JSON `write` appends to the cleared `buf`, as one field.
fn mix(hash: &mut Fnv1a, buf: &mut String, write: impl FnOnce(&mut String)) {
    buf.clear();
    write(buf);
    hash.field(buf.as_bytes());
}

/// Hashes `value`'s serde rendering as one field. Plain data serializes
/// infallibly; a serializer error would be a wiring bug, so it degrades
/// to a marker rather than panic on a user-reachable path.
fn mix_serde<T: serde::Serialize>(hash: &mut Fnv1a, value: &T) {
    match serde_json::to_string(value) {
        Ok(json) => hash.field(json.as_bytes()),
        Err(_) => hash.field(b"<unserializable>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etrain_sched::{CostProfile, ShedPolicy};

    fn core() -> (ETrainCore, TrainAppId, CargoAppId) {
        let mut core = ETrainCore::new(CoreConfig {
            theta: 5.0, // high gate: only heartbeats release in tests
            ..CoreConfig::default()
        });
        let train = core.register_train("WeChat");
        let cargo = core.register_cargo(AppProfile::new("Mail", CostProfile::mail(300.0)));
        (core, train, cargo)
    }

    #[test]
    fn request_rides_the_next_train() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        let id = core
            .submit(cargo, TransmitRequest::upload(5_000), 10.0)
            .unwrap()
            .id()
            .unwrap();
        assert!(core.tick(11.0).unwrap().is_empty());
        assert_eq!(core.pending_requests(), 1);

        let decisions = core.on_heartbeat(train, 270.0).unwrap();
        assert_eq!(decisions.len(), 1);
        let d = decisions[0];
        assert_eq!(d.request, id);
        assert_eq!(d.piggybacked_on, Some(train));
        assert_eq!(d.delay_s(), 260.0);
        assert_eq!(core.pending_requests(), 0);
    }

    #[test]
    fn one_heartbeat_releases_the_queues_of_every_cargo_app() {
        let mut core = ETrainCore::new(CoreConfig {
            theta: 1e6, // only heartbeats release
            ..CoreConfig::default()
        });
        let train = core.register_train("QQ");
        let apps = [
            core.register_cargo(AppProfile::new("Mail", CostProfile::mail(300.0))),
            core.register_cargo(AppProfile::new("Weibo", CostProfile::weibo(120.0))),
            core.register_cargo(AppProfile::new("Cloud", CostProfile::cloud(600.0))),
        ];
        let requests = [
            TransmitRequest::upload(5_000),
            TransmitRequest::upload(2_000),
            TransmitRequest::download(100_000),
        ];
        let mut ids = Vec::new();
        for (i, (&app, request)) in apps.iter().zip(requests).enumerate() {
            let admission = core.submit(app, request, 1.0 + i as f64).unwrap();
            ids.push(admission.id().unwrap());
        }
        assert!(core.tick(4.0).unwrap().is_empty());

        let decisions = core.on_heartbeat(train, 5.0).unwrap();
        assert_eq!(decisions.len(), 3, "all three apps ride the same heartbeat");
        for (app, id) in apps.iter().zip(ids) {
            let d = decisions.iter().find(|d| d.request == id).unwrap();
            assert_eq!(d.app, *app);
            assert_eq!(d.piggybacked_on, Some(train));
        }
        assert_eq!(core.pending_requests(), 0);
    }

    #[test]
    fn each_submit_heartbeat_round_releases_its_own_request() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        for round in 0..3u64 {
            let departure = 270.0 * (round + 1) as f64;
            let size_bytes = 1_000 + round;
            let request = TransmitRequest::upload(size_bytes);
            let admission = core.submit(cargo, request, departure - 260.0).unwrap();
            let id = admission.id().unwrap();
            let decisions = core.on_heartbeat(train, departure).unwrap();
            assert_eq!(decisions.len(), 1, "round {round}");
            assert_eq!(decisions[0].request, id);
            assert_eq!(decisions[0].size_bytes, size_bytes);
            assert_eq!(decisions[0].piggybacked_on, Some(train));
        }
        assert_eq!(core.stats().decided, 3);
    }

    #[test]
    fn a_tick_releases_a_request_whose_cost_breaches_theta() {
        let mut core = ETrainCore::new(CoreConfig::default()); // Θ = 0.2
        let train = core.register_train("WeChat");
        let weibo = core.register_cargo(AppProfile::new("Weibo", CostProfile::weibo(120.0)));
        core.on_heartbeat(train, 0.0).unwrap();
        core.submit(weibo, TransmitRequest::upload(800), 1.0)
            .unwrap();
        assert!(core.tick(2.0).unwrap().is_empty(), "cost still below Θ");
        let decisions = core.tick(60.0).unwrap();
        assert_eq!(decisions.len(), 1, "released between heartbeats");
        assert_eq!(decisions[0].piggybacked_on, None);
        assert_eq!(decisions[0].decided_at_s, 60.0);
    }

    #[test]
    fn a_bounded_burst_spreads_a_backlog_over_successive_trains() {
        let mut core = ETrainCore::new(CoreConfig {
            theta: 1e6, // only heartbeats release
            k: Some(1),
            ..CoreConfig::default()
        });
        let train = core.register_train("QQ");
        let cloud = core.register_cargo(AppProfile::new("Cloud", CostProfile::cloud(600.0)));
        for i in 0..3 {
            core.submit(cloud, TransmitRequest::upload(100_000), 1.0 + i as f64)
                .unwrap();
        }
        for (round, t) in [270.0, 540.0, 810.0].into_iter().enumerate() {
            assert_eq!(core.on_heartbeat(train, t).unwrap().len(), 1, "k = 1");
            assert_eq!(core.pending_requests(), 2 - round);
        }
    }

    #[test]
    fn unknown_apps_are_rejected() {
        let (mut core, _, _) = core();
        let err = core
            .submit(CargoAppId(7), TransmitRequest::upload(1), 0.0)
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownCargoApp { .. }));
        let err = core.on_heartbeat(TrainAppId(7), 0.0).unwrap_err();
        assert!(matches!(err, CoreError::UnknownTrainApp { .. }));
    }

    #[test]
    fn time_must_be_monotone() {
        let (mut core, _, cargo) = core();
        core.submit(cargo, TransmitRequest::upload(1), 50.0)
            .unwrap();
        let err = core
            .submit(cargo, TransmitRequest::upload(1), 10.0)
            .unwrap_err();
        assert!(matches!(err, CoreError::TimeWentBackwards { .. }));
    }

    #[test]
    fn a_nan_time_is_refused_and_the_clock_stays_monotone() {
        let (mut core, _, cargo) = core();
        core.tick(10.0).unwrap();
        let err = core
            .submit(cargo, TransmitRequest::upload(1), f64::NAN)
            .unwrap_err();
        assert!(
            matches!(err, CoreError::NonFiniteTime { supplied_s } if supplied_s.is_nan()),
            "{err:?}"
        );
        assert_eq!(core.now_s(), 10.0);
        let err = core.tick(5.0).unwrap_err();
        assert_eq!(
            err,
            CoreError::TimeWentBackwards {
                now_s: 10.0,
                supplied_s: 5.0
            }
        );
        assert_eq!(core.now_s(), 10.0);
        for time_s in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                core.tick(time_s),
                Err(CoreError::NonFiniteTime { supplied_s: time_s })
            );
        }
    }

    #[test]
    fn per_request_deadline_override_forces_release() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        core.submit(cargo, TransmitRequest::upload(100).with_deadline(20.0), 5.0)
            .unwrap();
        assert!(core.tick(10.0).unwrap().is_empty());
        // At t=24 the next slot would pass the 20 s override (5 + 20 = 25).
        let decisions = core.tick(24.0).unwrap();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].piggybacked_on, None);
    }

    #[test]
    fn dead_trains_flush_pending_requests() {
        let (mut core, train, cargo) = core();
        // Teach the monitor a 100 s cycle.
        for j in 0..4 {
            core.on_heartbeat(train, j as f64 * 100.0).unwrap();
        }
        core.submit(cargo, TransmitRequest::upload(100), 350.0)
            .unwrap();
        // The train dies (no heartbeat for >2.5 cycles): requests flush.
        let decisions = core.tick(900.0).unwrap();
        assert_eq!(decisions.len(), 1);
        assert!(!core.trains_alive(900.0));
    }

    #[test]
    fn startup_grace_keeps_unobserved_trains_alive() {
        let (core, _, _) = core();
        assert!(core.trains_alive(100.0)); // within grace
        assert!(!core.trains_alive(10_000.0)); // grace expired, never seen
    }

    #[test]
    fn no_trains_registered_means_immediate_release() {
        let mut core = ETrainCore::new(CoreConfig::default());
        let cargo = core.register_cargo(AppProfile::new("Mail", CostProfile::mail(300.0)));
        core.submit(cargo, TransmitRequest::upload(100), 1.0)
            .unwrap();
        let decisions = core.tick(2.0).unwrap();
        assert_eq!(
            decisions.len(),
            1,
            "no trains: the scheduler must not defer"
        );
    }

    #[test]
    fn late_cargo_registration_preserves_pending_requests() {
        let (mut core, train, cargo0) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        let id0 = core
            .submit(cargo0, TransmitRequest::upload(100), 5.0)
            .unwrap()
            .id()
            .unwrap();
        // Second cargo app registers while a request is pending.
        let cargo1 = core.register_cargo(AppProfile::new("Weibo", CostProfile::weibo(120.0)));
        let id1 = core
            .submit(cargo1, TransmitRequest::upload(200), 6.0)
            .unwrap()
            .id()
            .unwrap();
        let decisions = core.on_heartbeat(train, 270.0).unwrap();
        let mut ids: Vec<RequestId> = decisions.iter().map(|d| d.request).collect();
        ids.sort();
        assert_eq!(ids, vec![id0, id1]);
    }

    #[test]
    fn registration_puts_a_retried_packet_back_in_arrival_order() {
        // Mail costs nothing before its deadline, so with k = 1 every
        // candidate gains the same and a heartbeat takes the head of the
        // queue. A retry re-enters at the back; registering another app
        // puts each queue back in (arrival, id) order.
        let mut core = ETrainCore::new(CoreConfig {
            theta: 5.0,
            k: Some(1),
            ..CoreConfig::default()
        });
        let train = core.register_train("WeChat");
        let mail = core.register_cargo(AppProfile::new("Mail", CostProfile::mail(300.0)));
        core.on_heartbeat(train, 0.0).unwrap();
        let retried = core
            .submit(mail, TransmitRequest::upload(100), 1.0)
            .unwrap()
            .id()
            .unwrap();
        assert_eq!(core.on_heartbeat(train, 2.0).unwrap().len(), 1);
        core.report_result(retried, TxResult::Failed, 3.0).unwrap();
        core.submit(mail, TransmitRequest::upload(200), 4.0)
            .unwrap();
        assert!(core.tick(10.0).unwrap().is_empty());
        assert_eq!(core.backoffs.len(), 0, "the retry is queued again");
        core.register_cargo(AppProfile::new("Weibo", CostProfile::weibo(120.0)));
        let decisions = core.on_heartbeat(train, 20.0).unwrap();
        let riding: Vec<(RequestId, f64)> = decisions
            .iter()
            .map(|d| (d.request, d.submitted_at_s))
            .collect();
        assert_eq!(riding, [(retried, 1.0)]);
    }

    #[test]
    fn registration_restarts_deferral_while_every_train_is_dead() {
        // With every train dead the scheduler passes arrivals straight
        // through; a registration clears that latch, so the next arrival
        // waits for the next slot, which flushes it.
        let (mut core, train, mail) = core();
        for j in 0..4 {
            core.on_heartbeat(train, j as f64 * 100.0).unwrap();
        }
        assert!(core.tick(900.0).unwrap().is_empty());
        assert!(!core.trains_alive(900.0));
        core.register_cargo(AppProfile::new("Weibo", CostProfile::weibo(120.0)));
        core.submit(mail, TransmitRequest::upload(100), 901.0)
            .unwrap();
        let decisions = core.tick(950.0).unwrap();
        let decided: Vec<(RequestId, f64)> = decisions
            .iter()
            .map(|d| (d.request, d.decided_at_s))
            .collect();
        assert_eq!(decided, [(RequestId(0), 950.0)]);
    }

    #[test]
    fn cancel_withdraws_pending_requests_only() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        let keep = core
            .submit(cargo, TransmitRequest::upload(100), 5.0)
            .unwrap()
            .id()
            .unwrap();
        let drop = core
            .submit(cargo, TransmitRequest::upload(200), 6.0)
            .unwrap()
            .id()
            .unwrap();

        assert!(core.cancel(drop), "pending request can be cancelled");
        assert!(!core.cancel(drop), "second cancel is a no-op");
        assert_eq!(core.pending_requests(), 1);

        let decisions = core.on_heartbeat(train, 270.0).unwrap();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].request, keep);
        assert!(!core.cancel(keep), "decided request cannot be cancelled");
    }

    #[test]
    fn a_rejected_call_changes_nothing() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 10.0).unwrap();
        core.submit(cargo, TransmitRequest::upload(100), 11.0)
            .unwrap();
        let before = core.fingerprint();
        // Each call below is refused; none may move a counter or a queue,
        // since a journal replays the refusals too. The unknown ids come
        // at the current time, as a refused call still sets the clock.
        for now_s in [5.0, 11.0] {
            assert!(core
                .submit(CargoAppId(9), TransmitRequest::upload(1), now_s)
                .is_err());
            assert!(core.on_heartbeat(TrainAppId(9), now_s).is_err());
            assert!(core
                .report_result(RequestId(0), TxResult::Delivered, now_s)
                .is_err());
        }
        assert!(core.tick(5.0).is_err());
        assert!(core.on_heartbeat(train, 5.0).is_err());
        assert!(core.submit(cargo, TransmitRequest::upload(1), 5.0).is_err());
        assert!(!core.cancel(RequestId(42)));
        assert!(!core.cancel_backoff(RequestId(0)));
        assert_eq!(core.fingerprint(), before);
        assert_eq!(core.now_s(), 11.0);
        assert_eq!(core.pending_requests(), 1);
        assert_eq!((core.stats().submitted, core.stats().heartbeats), (1, 1));
    }

    #[test]
    fn a_repeated_timestamp_is_not_time_going_backwards() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        core.submit(cargo, TransmitRequest::upload(1), 30.0)
            .unwrap();
        assert!(core.tick(30.0).unwrap().is_empty());
        core.submit(cargo, TransmitRequest::upload(2), 30.0)
            .unwrap();
        let decisions = core.on_heartbeat(train, 30.0).unwrap();
        assert_eq!(decisions.len(), 2);
        assert!(decisions.iter().all(|d| d.decided_at_s == 30.0));
        assert_eq!(core.now_s(), 30.0);
    }

    #[test]
    fn any_registered_train_carries_the_queue() {
        let (mut core, wechat, cargo) = core();
        let qq = core.register_train("QQ");
        core.on_heartbeat(wechat, 0.0).unwrap();
        core.on_heartbeat(qq, 1.0).unwrap();
        let id = core
            .submit(cargo, TransmitRequest::upload(700), 2.0)
            .unwrap()
            .id()
            .unwrap();
        let decisions = core.on_heartbeat(qq, 90.0).unwrap();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].request, id);
        assert_eq!(decisions[0].piggybacked_on, Some(qq));
        assert!(core.on_heartbeat(wechat, 100.0).unwrap().is_empty());
        assert_eq!(core.stats().heartbeats, 4);
    }

    #[test]
    fn draining_twice_releases_each_request_once() {
        let (mut core, train, cargo) = core();
        assert!(core.drain().is_empty(), "nothing held yet");
        core.on_heartbeat(train, 0.0).unwrap();
        let ids: Vec<RequestId> = (0..3)
            .map(|i| {
                core.submit(cargo, TransmitRequest::upload(10 + i), 1.0 + i as f64)
                    .unwrap()
                    .id()
                    .unwrap()
            })
            .collect();
        let first: Vec<RequestId> = core.drain().iter().map(|d| d.request).collect();
        assert_eq!(first, ids);
        assert!(core.drain().is_empty());
        assert_eq!(core.pending_requests(), 0);
        assert_eq!(core.stats().decided, 3);
    }

    #[test]
    fn stats_track_the_request_lifecycle() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        core.submit(cargo, TransmitRequest::upload(1), 1.0).unwrap();
        let victim = core
            .submit(cargo, TransmitRequest::upload(2), 2.0)
            .unwrap()
            .id()
            .unwrap();
        assert!(core.cancel(victim));
        core.on_heartbeat(train, 270.0).unwrap();

        let stats = core.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.decided, 1);
        assert_eq!(stats.piggybacked, 1);
        assert_eq!(stats.heartbeats, 2);
    }

    #[test]
    fn failed_transmission_retries_with_backoff_and_preserves_submission() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        let id = core
            .submit(cargo, TransmitRequest::upload(1_000), 10.0)
            .unwrap()
            .id()
            .unwrap();
        let decisions = core.on_heartbeat(train, 270.0).unwrap();
        assert_eq!(decisions.len(), 1);
        assert_eq!(core.awaiting.len(), 1);

        // The transfer fails: a backed-off retry is scheduled.
        let verdict = core.report_result(id, TxResult::Failed, 271.0).unwrap();
        let RetryVerdict::RetryScheduled { resume_at_s } = verdict else {
            panic!("expected a retry, got {verdict:?}");
        };
        assert!(
            resume_at_s > 271.0 && resume_at_s < 275.0,
            "~2 s base backoff, got resume at {resume_at_s}"
        );
        assert_eq!(core.backoffs.len(), 1);
        assert_eq!(core.awaiting.len(), 0);

        // Before the backoff elapses nothing re-enters the scheduler.
        assert!(core.tick(271.2).unwrap().is_empty());
        assert_eq!(core.backoffs.len(), 1);

        // After it elapses the request is re-admitted (and defers again —
        // Θ is high in this fixture — until the next train).
        assert!(core.tick(resume_at_s + 0.1).unwrap().is_empty());
        assert_eq!(core.backoffs.len(), 0);
        assert_eq!(core.pending_requests(), 1);
        let decisions = core.on_heartbeat(train, 540.0).unwrap();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].request, id);
        assert_eq!(
            decisions[0].submitted_at_s, 10.0,
            "retry keeps the original submission time"
        );

        // Second attempt succeeds.
        let verdict = core.report_result(id, TxResult::Delivered, 541.0).unwrap();
        assert_eq!(verdict, RetryVerdict::Delivered);
        let stats = core.stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.abandoned, 0);
        assert_eq!(stats.decided, 2, "two decisions for the same request");
    }

    #[test]
    fn exhausted_attempts_abandon_the_request() {
        let mut core = ETrainCore::new(CoreConfig {
            theta: 5.0,
            retry: etrain_sched::RetryPolicy {
                max_attempts: 2,
                ..etrain_sched::RetryPolicy::default()
            },
            ..CoreConfig::default()
        });
        let train = core.register_train("WeChat");
        let cargo = core.register_cargo(AppProfile::new("Mail", CostProfile::mail(300.0)));
        core.on_heartbeat(train, 0.0).unwrap();
        let id = core
            .submit(cargo, TransmitRequest::upload(1_000), 10.0)
            .unwrap()
            .id()
            .unwrap();

        let d = core.on_heartbeat(train, 270.0).unwrap();
        assert_eq!(d.len(), 1);
        let RetryVerdict::RetryScheduled { resume_at_s } =
            core.report_result(id, TxResult::Failed, 271.0).unwrap()
        else {
            panic!("first failure should retry");
        };
        core.tick(resume_at_s + 0.1).unwrap();
        let d = core.on_heartbeat(train, 540.0).unwrap();
        assert_eq!(d.len(), 1);

        // Second failure hits max_attempts = 2: abandoned.
        let verdict = core.report_result(id, TxResult::Failed, 541.0).unwrap();
        assert_eq!(verdict, RetryVerdict::Abandoned);
        assert_eq!(core.stats().abandoned, 1);
        assert_eq!(core.backoffs.len(), 0);
        assert_eq!(core.pending_requests(), 0);
    }

    #[test]
    fn per_request_deadline_bounds_retrying() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        let id = core
            .submit(cargo, TransmitRequest::upload(100).with_deadline(20.0), 5.0)
            .unwrap()
            .id()
            .unwrap();
        // The deadline override force-releases at ~24 s.
        let decisions = core.tick(24.0).unwrap();
        assert_eq!(decisions.len(), 1);
        // Failing at 25: age at next attempt ≈ 25 + 2 − 5 = 22 > 20 —
        // deadline-aware give-up, no retry.
        let verdict = core.report_result(id, TxResult::Failed, 25.0).unwrap();
        assert_eq!(verdict, RetryVerdict::Abandoned);
        assert_eq!(core.stats().abandoned, 1);
    }

    #[test]
    fn report_result_rejects_unknown_and_double_reports() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        let err = core
            .report_result(RequestId(99), TxResult::Delivered, 1.0)
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownRequest { .. }));
        assert!(err.to_string().contains("req#99"));

        let id = core
            .submit(cargo, TransmitRequest::upload(1), 2.0)
            .unwrap()
            .id()
            .unwrap();
        core.on_heartbeat(train, 270.0).unwrap();
        core.report_result(id, TxResult::Delivered, 271.0).unwrap();
        let err = core
            .report_result(id, TxResult::Delivered, 272.0)
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownRequest { .. }));
    }

    #[test]
    fn cancel_backoff_withdraws_a_failing_request() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        let id = core
            .submit(cargo, TransmitRequest::upload(1_000), 10.0)
            .unwrap()
            .id()
            .unwrap();
        core.on_heartbeat(train, 270.0).unwrap();
        core.report_result(id, TxResult::Failed, 271.0).unwrap();
        assert_eq!(core.backoffs.len(), 1);
        assert!(core.cancel_backoff(id));
        assert!(!core.cancel_backoff(id), "second cancel is a no-op");
        assert_eq!(core.backoffs.len(), 0);
        assert_eq!(core.stats().cancelled, 1);
        // The request never comes back.
        assert!(core.tick(400.0).unwrap().is_empty());
        assert!(core.on_heartbeat(train, 540.0).unwrap().is_empty());
    }

    #[test]
    fn watchdog_counts_train_death_transitions() {
        let (mut core, train, cargo) = core();
        // Teach the monitor a 100 s cycle.
        for j in 0..4 {
            core.on_heartbeat(train, j as f64 * 100.0).unwrap();
        }
        core.tick(350.0).unwrap();
        core.submit(cargo, TransmitRequest::upload(100), 360.0)
            .unwrap();
        // All trains dead: the flush releases the pending request and the
        // watchdog records one transition.
        let decisions = core.tick(900.0).unwrap();
        assert_eq!(decisions.len(), 1);
        assert_eq!(core.stats().watchdog_flushes, 1);
        // A restarted train revives piggybacking; a later death counts
        // again.
        core.on_heartbeat(train, 1000.0).unwrap();
        assert!(core.trains_alive(1000.0));
        core.tick(3000.0).unwrap();
        assert_eq!(core.stats().watchdog_flushes, 2);
    }

    fn bounded_core(policy: ShedPolicy, cap: usize) -> (ETrainCore, TrainAppId, CargoAppId) {
        let mut core = ETrainCore::new(CoreConfig {
            theta: 1e9, // defer everything: queue pressure builds
            admission: AdmissionConfig::unbounded()
                .with_global_capacity(cap)
                .with_policy(policy),
            ..CoreConfig::default()
        });
        let train = core.register_train("WeChat");
        // Weibo's f2 cost grows strictly with age (Mail's f1 is zero
        // before its deadline), so value-based eviction is observable.
        let cargo = core.register_cargo(AppProfile::new("Weibo", CostProfile::weibo(120.0)));
        (core, train, cargo)
    }

    #[test]
    fn each_deadline_override_releases_at_its_own_deadline() {
        // Θ = 1e9 and a single heartbeat: nothing but a request's own
        // deadline releases it after t = 2. Capacity 5 forces an eviction.
        let (mut core, train, cargo) = bounded_core(ShedPolicy::DropLowestValue, 5);
        let with = |deadline_s| TransmitRequest::upload(100).with_deadline(deadline_s);
        let id = |admission: Admission| admission.id().unwrap();

        // R rides the one heartbeat, fails, and backs off with its override.
        let retried = id(core.submit(cargo, with(60.0), 1.0).unwrap());
        let ridden = core.on_heartbeat(train, 2.0).unwrap();
        assert_eq!(
            ridden.iter().map(|d| d.request).collect::<Vec<_>>(),
            [retried]
        );
        let verdict = core.report_result(retried, TxResult::Failed, 2.5).unwrap();
        assert!(matches!(verdict, RetryVerdict::RetryScheduled { .. }));

        let a = id(core.submit(cargo, with(30.0), 3.0).unwrap());
        core.submit(cargo, TransmitRequest::upload(100), 4.0)
            .unwrap();
        let c = id(core.submit(cargo, with(20.0), 5.0).unwrap());
        let cancelled = id(core.submit(cargo, with(10.0), 6.0).unwrap());
        assert!(core.cancel(cancelled));
        // The backoff elapses: R is pending again, with its override.
        assert!(core.tick(7.0).unwrap().is_empty());
        assert_eq!(core.backoffs.len(), 0);
        let doomed = id(core.submit(cargo, with(15.0), 8.0).unwrap());
        // Full: the youngest, cheapest request (the 15 s one) is evicted.
        let admission = core
            .submit(cargo, TransmitRequest::upload(100), 9.0)
            .unwrap();
        let Admission::AdmittedWithEviction { evicted, .. } = admission else {
            panic!("expected an eviction, got {admission:?}");
        };
        assert_eq!(evicted, doomed);

        let mut released = Vec::new();
        for t in 10..=70 {
            for decision in core.tick(f64::from(t)).unwrap() {
                assert_eq!(decision.piggybacked_on, None);
                released.push((decision.request, t));
            }
        }
        // Each at the last slot before submission + deadline; neither the
        // cancelled nor the evicted request, nor a plain one, is released.
        assert_eq!(released, [(c, 24), (a, 32), (retried, 60)]);
        assert_eq!(core.pending_requests(), 2);
        assert!(core.pending.with_deadline.is_empty());
    }

    #[test]
    fn reject_new_sheds_overflowing_submissions() {
        let (mut core, train, cargo) = bounded_core(ShedPolicy::RejectNew, 2);
        core.on_heartbeat(train, 0.0).unwrap();
        for i in 0..2 {
            let a = core
                .submit(cargo, TransmitRequest::upload(100), i as f64 + 1.0)
                .unwrap();
            assert!(matches!(a, Admission::Admitted { .. }));
        }
        let a = core
            .submit(cargo, TransmitRequest::upload(100), 3.0)
            .unwrap();
        assert_eq!(a, Admission::Rejected);
        assert_eq!(a.id(), None);
        assert_eq!(core.pending_requests(), 2, "capacity is never exceeded");
        let stats = core.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.forced_flushes, 0);
    }

    #[test]
    fn drop_lowest_value_evicts_to_admit() {
        let (mut core, train, cargo) = bounded_core(ShedPolicy::DropLowestValue, 2);
        core.on_heartbeat(train, 0.0).unwrap();
        let first = core
            .submit(cargo, TransmitRequest::upload(100), 1.0)
            .unwrap()
            .id()
            .unwrap();
        core.submit(cargo, TransmitRequest::upload(100), 5.0)
            .unwrap();
        // Same app and profile: the youngest queued packet (the second)
        // has the cheapest delay cost, so it is the eviction victim.
        let a = core
            .submit(cargo, TransmitRequest::upload(100), 9.0)
            .unwrap();
        let Admission::AdmittedWithEviction { id, evicted } = a else {
            panic!("expected an eviction, got {a:?}");
        };
        assert_ne!(evicted, first, "the oldest (highest-cost) request survives");
        assert_eq!(core.pending_requests(), 2);
        assert_eq!(core.stats().shed, 1);
        // The evicted request never resurfaces; the survivors both ride
        // the next train.
        let decisions = core.on_heartbeat(train, 270.0).unwrap();
        let mut riding: Vec<RequestId> = decisions.iter().map(|d| d.request).collect();
        riding.sort();
        assert_eq!(riding, vec![first, id]);
    }

    #[test]
    fn force_flush_oldest_releases_early_to_admit() {
        let (mut core, train, cargo) = bounded_core(ShedPolicy::ForceFlushOldest, 2);
        core.on_heartbeat(train, 0.0).unwrap();
        let oldest = core
            .submit(cargo, TransmitRequest::upload(100), 1.0)
            .unwrap()
            .id()
            .unwrap();
        core.submit(cargo, TransmitRequest::upload(100), 2.0)
            .unwrap();
        let a = core
            .submit(cargo, TransmitRequest::upload(100), 3.0)
            .unwrap();
        let Admission::AdmittedWithFlush { id, flushed } = a else {
            panic!("expected a forced flush, got {a:?}");
        };
        assert_eq!(flushed.request, oldest, "the oldest request is flushed");
        assert_eq!(
            flushed.piggybacked_on, None,
            "an early flush rides no train"
        );
        assert_ne!(id, oldest);
        assert_eq!(core.pending_requests(), 2);
        let stats = core.stats();
        assert_eq!(stats.shed, 0, "a forced flush transmits; nothing is lost");
        assert_eq!(stats.forced_flushes, 1);
        assert_eq!(stats.decided, 1);
        // The flushed decision is awaiting a result like any other.
        assert_eq!(core.awaiting.len(), 1);
        assert_eq!(
            core.report_result(oldest, TxResult::Delivered, 4.0)
                .unwrap(),
            RetryVerdict::Delivered
        );
    }

    #[test]
    fn per_app_capacity_binds_independently() {
        let mut core = ETrainCore::new(CoreConfig {
            theta: 1e9,
            admission: AdmissionConfig::unbounded()
                .with_per_app_capacity(1)
                .with_policy(ShedPolicy::RejectNew),
            ..CoreConfig::default()
        });
        let train = core.register_train("WeChat");
        let mail = core.register_cargo(AppProfile::new("Mail", CostProfile::mail(300.0)));
        let weibo = core.register_cargo(AppProfile::new("Weibo", CostProfile::weibo(120.0)));
        core.on_heartbeat(train, 0.0).unwrap();
        assert!(core
            .submit(mail, TransmitRequest::upload(1), 1.0)
            .unwrap()
            .id()
            .is_some());
        assert_eq!(
            core.submit(mail, TransmitRequest::upload(1), 2.0).unwrap(),
            Admission::Rejected,
            "mail is at its per-app cap"
        );
        assert!(
            core.submit(weibo, TransmitRequest::upload(1), 3.0)
                .unwrap()
                .id()
                .is_some(),
            "weibo has its own budget"
        );
    }

    #[test]
    fn drain_surfaces_queued_stashed_and_backing_off_requests() {
        let (mut core, train, cargo) = core();
        core.on_heartbeat(train, 0.0).unwrap();
        let queued = core
            .submit(cargo, TransmitRequest::upload(100), 1.0)
            .unwrap()
            .id()
            .unwrap();
        let failing = core
            .submit(cargo, TransmitRequest::upload(200), 2.0)
            .unwrap()
            .id()
            .unwrap();
        // Decide the second request and fail it so it sits in backoff.
        let decisions = core.on_heartbeat(train, 270.0).unwrap();
        assert_eq!(decisions.len(), 2);
        core.report_result(failing, TxResult::Failed, 271.0)
            .unwrap();
        assert_eq!(core.backoffs.len(), 1);
        // Re-queue another request that will still be waiting.
        assert_eq!(
            core.report_result(queued, TxResult::Delivered, 272.0)
                .unwrap(),
            RetryVerdict::Delivered
        );
        let waiting = core
            .submit(cargo, TransmitRequest::upload(300), 273.0)
            .unwrap()
            .id()
            .unwrap();

        let mut drained: Vec<RequestId> = core.drain().iter().map(|d| d.request).collect();
        drained.sort();
        assert_eq!(drained, vec![failing, waiting]);
        assert_eq!(core.pending_requests(), 0);
        assert_eq!(core.backoffs.len(), 0);
        assert!(core.drain().is_empty(), "drain is idempotent");
    }

    #[test]
    fn journal_captures_the_request_lifecycle() {
        let (mut core, train, cargo) = core();
        assert!(!core.journal_enabled());
        core.enable_journal();
        core.enable_journal(); // idempotent
        assert!(core.journal_enabled());

        core.on_heartbeat(train, 0.0).unwrap();
        let id = core
            .submit(cargo, TransmitRequest::upload(1_000), 10.0)
            .unwrap()
            .id()
            .unwrap();
        assert!(core.tick(11.0).unwrap().is_empty());
        let decisions = core.on_heartbeat(train, 270.0).unwrap();
        assert_eq!(decisions.len(), 1);
        core.report_result(id, TxResult::Failed, 271.0).unwrap();

        let journal = core.take_journal().expect("journal was enabled");
        assert!(!core.journal_enabled());
        assert!(core.take_journal().is_none(), "take is terminal");
        let kinds: Vec<&str> = journal.counts_by_kind().iter().map(|(k, _)| *k).collect();
        assert!(kinds.contains(&"heartbeat_fired"), "{kinds:?}");
        assert!(kinds.contains(&"piggyback_decision"), "{kinds:?}");
        assert!(kinds.contains(&"retry_attempt"), "{kinds:?}");
        // Records are canonicalized: times never decrease.
        let times: Vec<f64> = journal.records().iter().map(|r| r.time_s).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn journal_records_shed_and_flush_decisions() {
        let (mut core, train, cargo) = bounded_core(ShedPolicy::RejectNew, 1);
        core.enable_journal();
        core.on_heartbeat(train, 0.0).unwrap();
        core.submit(cargo, TransmitRequest::upload(1), 1.0).unwrap();
        assert_eq!(
            core.submit(cargo, TransmitRequest::upload(1), 2.0).unwrap(),
            Admission::Rejected
        );
        let journal = core.take_journal().unwrap();
        assert!(journal
            .records()
            .iter()
            .any(|r| matches!(r.event, Event::Shed { .. })));

        let (mut core, _, cargo) = bounded_core(ShedPolicy::ForceFlushOldest, 1);
        core.enable_journal();
        core.submit(cargo, TransmitRequest::upload(1), 1.0).unwrap();
        core.submit(cargo, TransmitRequest::upload(1), 2.0).unwrap();
        let journal = core.take_journal().unwrap();
        assert!(journal
            .records()
            .iter()
            .any(|r| matches!(r.event, Event::ForcedFlush { packet_id: 0, .. })));
    }

    #[test]
    fn zero_capacity_rejects_every_submission_under_every_policy() {
        for policy in [
            ShedPolicy::RejectNew,
            ShedPolicy::DropLowestValue,
            ShedPolicy::ForceFlushOldest,
        ] {
            // A struct literal bypasses the builder's zero-capacity assert:
            // every arrival trips the bound with nothing queued to give up.
            let mut core = ETrainCore::new(CoreConfig {
                admission: AdmissionConfig {
                    global_capacity: Some(0),
                    per_app_capacity: None,
                    policy,
                },
                ..CoreConfig::default()
            });
            let cargo = core.register_cargo(AppProfile::new("Mail", CostProfile::mail(300.0)));
            core.enable_journal();
            for i in 0..3 {
                let a = core
                    .submit(cargo, TransmitRequest::upload(100), i as f64)
                    .unwrap();
                assert_eq!(a, Admission::Rejected, "{policy}");
            }
            let stats = core.stats();
            assert_eq!((stats.submitted, stats.shed), (3, 3), "{policy}");
            assert_eq!(stats.forced_flushes, 0, "{policy}");
            assert_eq!(core.pending_requests(), 0, "{policy}");
            // No packet id is ever issued, so each rejection journals the
            // id the request would have received: the first one.
            let journal = core.take_journal().unwrap();
            let shed: Vec<&Event> = journal.records().iter().map(|r| &r.event).collect();
            let expected = Event::Shed {
                packet_id: 0,
                app: cargo.index(),
            };
            assert_eq!(shed, vec![&expected; 3], "{policy}");
        }
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = CoreConfig {
            theta: 3.5,
            k: Some(12),
            slot_s: 0.5,
            startup_grace_s: 120.0,
            retry: RetryPolicy {
                give_up_age_s: 270.0,
                ..RetryPolicy::default()
            },
            admission: AdmissionConfig::unbounded()
                .with_global_capacity(64)
                .with_policy(ShedPolicy::DropLowestValue),
        };
        let json = serde_json::to_string(&config).unwrap();
        let back: CoreConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
    }
}
