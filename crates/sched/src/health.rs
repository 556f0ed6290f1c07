//! The degraded-mode ladder: Healthy → Degraded → Fallback.
//!
//! The paper's safety argument (Sec. IV) is that eTrain can never do worse
//! than transmit-on-arrival, because deferral is bounded by each app's
//! delay-cost profile. That argument assumes the scheduler itself is
//! behaving. When it demonstrably is not — repeated transmission failures,
//! a simulation-oracle alarm, or the watchdog reporting every train app
//! dead — the safest reaction is to *stop being clever*:
//!
//! - **Healthy**: full Algorithm 1 with the configured burst limit `k`;
//! - **Degraded**: Algorithm 1 with the burst limit halved (bounded by
//!   [`HealthConfig::degraded_k`] when the base `k` is the paper's ∞), so
//!   a misbehaving run defers less data per heartbeat;
//! - **Fallback**: immediate send — every arrival and every deferred
//!   packet is released at once, which is exactly the no-piggyback
//!   baseline and therefore provably never worse than it.
//!
//! Recovery is stepwise: after [`HealthConfig::clean_heartbeats`]
//! heartbeats with no intervening failure, the ladder re-promotes one
//! state. Every transition is recorded as a typed, timestamped
//! [`HealthTransition`] that flows into the run report.

use etrain_trace::packets::Packet;
use serde::{Deserialize, Serialize};

use crate::admission::{AdmissionConfig, Room};
use crate::api::{Scheduler, SchedulerError, SlotContext};
use crate::etrain::{ETrainConfig, ETrainScheduler};
use crate::queue::AppProfile;

/// The three rungs of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthState {
    /// Full eTrain behaviour.
    Healthy,
    /// eTrain with the piggyback burst limit halved.
    Degraded,
    /// Immediate send (no-piggyback baseline semantics).
    Fallback,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded => write!(f, "degraded"),
            HealthState::Fallback => write!(f, "fallback"),
        }
    }
}

/// What drove a ladder transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransitionCause {
    /// `failures` consecutive transmission failures crossed the threshold.
    RepeatedTxFailures {
        /// The consecutive-failure count that tripped the demotion.
        failures: usize,
    },
    /// The simulation oracle (or an external monitor) raised a violation.
    OracleViolation,
    /// The watchdog observed every train app dead.
    TrainDeath,
    /// `clean_heartbeats` consecutive clean heartbeats earned a promotion.
    Recovered {
        /// The clean-heartbeat count that earned the promotion.
        clean_heartbeats: usize,
    },
}

impl std::fmt::Display for TransitionCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransitionCause::RepeatedTxFailures { failures } => {
                write!(f, "{failures} consecutive tx failures")
            }
            TransitionCause::OracleViolation => write!(f, "oracle violation"),
            TransitionCause::TrainDeath => write!(f, "all train apps dead"),
            TransitionCause::Recovered { clean_heartbeats } => {
                write!(f, "{clean_heartbeats} clean heartbeats")
            }
        }
    }
}

/// One typed, timestamped ladder transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthTransition {
    /// Simulation time of the transition, in seconds.
    pub at_s: f64,
    /// The state left.
    pub from: HealthState,
    /// The state entered.
    pub to: HealthState,
    /// What drove it.
    pub cause: TransitionCause,
}

impl std::fmt::Display for HealthTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={:.1}s {} -> {} ({})",
            self.at_s, self.from, self.to, self.cause
        )
    }
}

/// The rung index of a state on the ladder (Healthy = 0 … Fallback = 2).
fn rung(state: HealthState) -> i32 {
    match state {
        HealthState::Healthy => 0,
        HealthState::Degraded => 1,
        HealthState::Fallback => 2,
    }
}

/// Audits a recorded transition log against the ladder's structural
/// invariants, returning one human-readable anomaly per violation (empty
/// for a clean log). A healthy [`GuardedScheduler`] can never produce an
/// anomalous log, so any finding signals a ladder bug — the chaos
/// campaign runs this over every guarded run it sweeps.
///
/// Checked invariants:
///
/// - timestamps are finite, non-negative, and non-decreasing;
/// - the log chains: each transition leaves the state the previous one
///   entered, and the first leaves `Healthy` (every run starts there);
/// - no transition is a self-loop;
/// - every step moves exactly one rung, except the
///   [`TransitionCause::TrainDeath`] watchdog, which may drop straight
///   from any rung to `Fallback` (and only to `Fallback`);
/// - [`TransitionCause::Recovered`] appears only on promotions, every
///   other cause only on demotions.
pub fn audit_transitions(transitions: &[HealthTransition]) -> Vec<String> {
    let mut anomalies = Vec::new();
    let mut expected_from = HealthState::Healthy;
    let mut last_at_s = f64::NEG_INFINITY;
    for (i, t) in transitions.iter().enumerate() {
        if !t.at_s.is_finite() || t.at_s < 0.0 {
            anomalies.push(format!("#{i}: non-finite or negative timestamp ({t})"));
        } else if t.at_s < last_at_s {
            anomalies.push(format!(
                "#{i}: timestamp moves backwards ({} < {last_at_s}) ({t})",
                t.at_s
            ));
        }
        if t.from != expected_from {
            anomalies.push(format!(
                "#{i}: broken chain — leaves {} but the ladder was in {expected_from} ({t})",
                t.from
            ));
        }
        let step = rung(t.to) - rung(t.from);
        let watchdog_drop =
            matches!(t.cause, TransitionCause::TrainDeath) && t.to == HealthState::Fallback;
        if step == 0 {
            anomalies.push(format!("#{i}: self-transition ({t})"));
        } else if step.abs() > 1 && !watchdog_drop {
            anomalies.push(format!("#{i}: skips a rung ({t})"));
        }
        let is_promotion = step < 0;
        let cause_is_recovery = matches!(t.cause, TransitionCause::Recovered { .. });
        if is_promotion && !cause_is_recovery {
            anomalies.push(format!("#{i}: promotion with a demotion cause ({t})"));
        }
        if step > 0 && cause_is_recovery {
            anomalies.push(format!("#{i}: demotion attributed to recovery ({t})"));
        }
        expected_from = t.to;
        last_at_s = last_at_s.max(t.at_s);
    }
    anomalies
}

/// Tuning of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Consecutive transmission failures that demote one rung.
    pub failure_threshold: usize,
    /// Consecutive clean heartbeats that promote one rung.
    pub clean_heartbeats: usize,
    /// The degraded-mode burst limit when the base `k` is unbounded
    /// (halving ∞ is still ∞, so Degraded needs a finite cap).
    pub degraded_k: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            failure_threshold: 3,
            clean_heartbeats: 5,
            degraded_k: 2,
        }
    }
}

impl HealthConfig {
    /// Checks invariants on a config deserialized from JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.failure_threshold == 0 {
            return Err("failure threshold must be at least 1".into());
        }
        if self.clean_heartbeats == 0 {
            return Err("clean-heartbeat threshold must be at least 1".into());
        }
        if self.degraded_k == 0 {
            return Err("degraded k must be at least 1".into());
        }
        Ok(())
    }

    /// The burst limit applied in the Degraded state for a base limit
    /// `base_k`: half of it (minimum 1), or [`HealthConfig::degraded_k`]
    /// when the base is unbounded.
    pub fn degraded_budget(&self, base_k: Option<usize>) -> usize {
        match base_k {
            Some(k) => (k / 2).max(1),
            None => self.degraded_k.max(1),
        }
    }
}

/// [`ETrainScheduler`] wrapped in the degradation ladder plus bounded
/// admission.
///
/// In `Healthy` it is bit-for-bit the inner eTrain scheduler (with
/// unbounded admission and no faults, a guarded run equals a plain eTrain
/// run). Demotions are driven by [`Scheduler::on_tx_failure`] streaks,
/// [`Scheduler::on_oracle_violation`] alarms, and the watchdog condition
/// `!trains_alive`; promotions by clean-heartbeat streaks.
#[derive(Debug)]
pub struct GuardedScheduler {
    inner: ETrainScheduler,
    health: HealthConfig,
    admission: AdmissionConfig,
    state: HealthState,
    /// The configured (Healthy) burst limit, restored on full recovery.
    base_k: Option<usize>,
    consecutive_failures: usize,
    clean_streak: usize,
    transitions: Vec<HealthTransition>,
    shed: Vec<Packet>,
    forced_flushes: usize,
    /// Whether to buffer structured events for the journal.
    obs_enabled: bool,
    /// Buffered `(time_s, event)` pairs awaiting a driver drain.
    obs_events: Vec<(f64, etrain_obs::Event)>,
}

impl GuardedScheduler {
    /// Wraps an eTrain configuration in the ladder, with unbounded
    /// admission.
    ///
    /// # Panics
    ///
    /// Panics if `config` or `health` is invalid.
    pub fn new(config: ETrainConfig, health: HealthConfig, profiles: Vec<AppProfile>) -> Self {
        if let Err(msg) = health.validate() {
            panic!("invalid health config: {msg}");
        }
        let base_k = config.k;
        GuardedScheduler {
            inner: ETrainScheduler::new(config, profiles),
            health,
            admission: AdmissionConfig::unbounded(),
            state: HealthState::Healthy,
            base_k,
            consecutive_failures: 0,
            clean_streak: 0,
            transitions: Vec::new(),
            shed: Vec::new(),
            forced_flushes: 0,
            obs_enabled: false,
            obs_events: Vec::new(),
        }
    }

    /// Adds bounded admission on top of the ladder.
    ///
    /// # Panics
    ///
    /// Panics if the admission config is invalid (zero capacity).
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        if let Err(msg) = admission.validate() {
            panic!("invalid admission config: {msg}");
        }
        self.admission = admission;
        self
    }

    /// The current ladder state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The transitions recorded so far, in time order.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    /// Packets currently deferred for one app (for auditing the per-app
    /// admission bound).
    pub fn pending_for(&self, app: etrain_trace::CargoAppId) -> usize {
        self.inner.pending_for(app)
    }

    fn transition(&mut self, at_s: f64, to: HealthState, cause: TransitionCause) {
        if to == self.state {
            return;
        }
        self.transitions.push(HealthTransition {
            at_s,
            from: self.state,
            to,
            cause,
        });
        if self.obs_enabled {
            self.obs_events.push((
                at_s,
                etrain_obs::Event::HealthTransition {
                    from: self.state.to_string(),
                    to: to.to_string(),
                    cause: cause.to_string(),
                },
            ));
        }
        self.state = to;
        self.clean_streak = 0;
        match to {
            HealthState::Healthy => {
                self.consecutive_failures = 0;
                self.inner.set_k(self.base_k);
            }
            HealthState::Degraded => {
                self.inner
                    .set_k(Some(self.health.degraded_budget(self.base_k)));
            }
            // Fallback drains everything regardless of k; keep the
            // degraded budget so a partial promotion lands in a sane spot.
            HealthState::Fallback => {
                self.inner
                    .set_k(Some(self.health.degraded_budget(self.base_k)));
            }
        }
    }

    fn demote_one(&mut self, at_s: f64, cause: TransitionCause) {
        let next = match self.state {
            HealthState::Healthy => HealthState::Degraded,
            HealthState::Degraded | HealthState::Fallback => HealthState::Fallback,
        };
        self.transition(at_s, next, cause);
    }

    /// Applies admission control for an arrival; returns any packet that
    /// must be released immediately (force-flush-oldest), or an error for
    /// unknown apps. A `true` second element means the arrival itself was
    /// shed and must not be enqueued.
    fn admit(
        &mut self,
        packet: &Packet,
        now_s: f64,
    ) -> Result<(Vec<Packet>, bool), SchedulerError> {
        if packet.app.index() >= self.inner.profiles().len() {
            return Err(SchedulerError::UnknownApp { app: packet.app });
        }
        match self.admission.make_room(&mut self.inner, packet.app, now_s) {
            Room::Free => Ok((Vec::new(), false)),
            Room::Full => {
                self.record_shed(now_s, packet);
                self.shed.push(*packet);
                Ok((Vec::new(), true))
            }
            Room::Evicted(victim) => {
                self.record_shed(now_s, &victim);
                self.shed.push(victim);
                Ok((Vec::new(), false))
            }
            Room::Flushed(oldest) => {
                self.forced_flushes += 1;
                if self.obs_enabled {
                    self.obs_events.push((
                        now_s,
                        etrain_obs::Event::ForcedFlush {
                            packet_id: oldest.id,
                            app: oldest.app.index(),
                        },
                    ));
                }
                Ok((vec![oldest], false))
            }
        }
    }

    fn record_shed(&mut self, now_s: f64, victim: &Packet) {
        if self.obs_enabled {
            self.obs_events.push((
                now_s,
                etrain_obs::Event::Shed {
                    packet_id: victim.id,
                    app: victim.app.index(),
                },
            ));
        }
    }
}

impl Scheduler for GuardedScheduler {
    fn name(&self) -> &'static str {
        "eTrain (guarded)"
    }

    fn on_arrival(&mut self, packet: Packet, now_s: f64) -> Result<Vec<Packet>, SchedulerError> {
        let (mut released, rejected) = self.admit(&packet, now_s)?;
        if rejected {
            return Ok(released);
        }
        released.extend(self.inner.on_arrival(packet, now_s)?);
        if self.state == HealthState::Fallback {
            // Immediate-send semantics: nothing stays deferred.
            released.extend(self.inner.drain_pending());
        }
        if self.obs_enabled {
            self.obs_events.extend(self.inner.take_obs_events());
        }
        Ok(released)
    }

    fn on_slot(&mut self, ctx: &SlotContext) -> Vec<Packet> {
        // Watchdog: every train app dead is an immediate drop to Fallback
        // (paper Sec. V-3 — stop deferring to avoid indefinite waiting).
        if !ctx.trains_alive && self.state != HealthState::Fallback {
            self.transition(
                ctx.now_s,
                HealthState::Fallback,
                TransitionCause::TrainDeath,
            );
        }
        // Clean-heartbeat recovery, one rung at a time.
        if ctx.trains_alive && ctx.heartbeat_departing && self.state != HealthState::Healthy {
            self.clean_streak += 1;
            if self.clean_streak >= self.health.clean_heartbeats {
                let streak = self.clean_streak;
                let next = match self.state {
                    HealthState::Fallback => HealthState::Degraded,
                    HealthState::Degraded | HealthState::Healthy => HealthState::Healthy,
                };
                self.transition(
                    ctx.now_s,
                    next,
                    TransitionCause::Recovered {
                        clean_heartbeats: streak,
                    },
                );
            }
        }
        let mut released = self.inner.on_slot(ctx);
        if self.state == HealthState::Fallback {
            released.extend(self.inner.drain_pending());
        }
        if self.obs_enabled {
            self.obs_events.extend(self.inner.take_obs_events());
        }
        released
    }

    fn on_tx_failure(&mut self, packet: Packet, now_s: f64) -> Result<Vec<Packet>, SchedulerError> {
        self.clean_streak = 0;
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.health.failure_threshold {
            let failures = self.consecutive_failures;
            self.consecutive_failures = 0;
            self.demote_one(now_s, TransitionCause::RepeatedTxFailures { failures });
        }
        // Re-admit through the normal arrival path (admission included:
        // under overload a retried packet competes like any other).
        self.on_arrival(packet, now_s)
    }

    fn on_oracle_violation(&mut self, now_s: f64) {
        self.clean_streak = 0;
        self.demote_one(now_s, TransitionCause::OracleViolation);
    }

    fn health_transitions(&self) -> Vec<HealthTransition> {
        self.transitions.clone()
    }

    fn take_shed(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.shed)
    }

    fn set_obs_enabled(&mut self, enabled: bool) {
        self.obs_enabled = enabled;
        self.inner.set_obs_enabled(enabled);
        if !enabled {
            self.obs_events.clear();
        }
    }

    fn set_reference_decisions(&mut self, reference: bool) {
        self.inner.set_reference_decisions(reference);
    }

    fn take_obs_events(&mut self) -> Vec<(f64, etrain_obs::Event)> {
        // Catch any inner events not yet folded in (e.g. when the driver
        // drains between calls), then hand over the causally ordered
        // buffer.
        let stragglers = self.inner.take_obs_events();
        self.obs_events.extend(stragglers);
        std::mem::take(&mut self.obs_events)
    }

    fn forced_flushes(&self) -> usize {
        self.forced_flushes
    }

    fn slot_s(&self) -> f64 {
        self.inner.slot_s()
    }

    fn slot_quiescent(&self, trains_alive: bool) -> bool {
        // A dead-trains slot outside Fallback triggers the watchdog
        // demotion (a recorded transition), so it is never inert; the
        // clean-heartbeat recovery branch only fires on heartbeat slots,
        // which the event kernel never skips.
        (trains_alive || self.state == HealthState::Fallback)
            && self.inner.slot_quiescent(trains_alive)
    }

    fn quiet_through(&self, at_s: f64, trains_alive: bool) -> bool {
        // Fallback drains the inner queue on every call, so only an empty
        // one is quiet there; outside it, the same watchdog rule as
        // `slot_quiescent` wraps the inner horizon.
        if self.state == HealthState::Fallback {
            return self.slot_quiescent(trains_alive);
        }
        trains_alive && self.inner.quiet_through(at_s, trains_alive)
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn pending_bytes(&self) -> u64 {
        self.inner.pending_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::ShedPolicy;
    use etrain_trace::CargoAppId;

    fn packet(id: u64, app: usize, arrival_s: f64) -> Packet {
        Packet {
            id,
            app: CargoAppId(app),
            arrival_s,
            size_bytes: 1_000,
        }
    }

    fn ctx(now_s: f64, heartbeat: bool, trains_alive: bool) -> SlotContext {
        SlotContext {
            now_s,
            heartbeat_departing: heartbeat,
            predicted_bandwidth_bps: 500_000.0,
            trains_alive,
        }
    }

    fn guarded(k: Option<usize>) -> GuardedScheduler {
        GuardedScheduler::new(
            ETrainConfig {
                theta: 10.0,
                k,
                slot_s: 1.0,
            },
            HealthConfig::default(),
            AppProfile::paper_trio(30.0),
        )
    }

    fn step(
        at_s: f64,
        from: HealthState,
        to: HealthState,
        cause: TransitionCause,
    ) -> HealthTransition {
        HealthTransition {
            at_s,
            from,
            to,
            cause,
        }
    }

    #[test]
    fn audit_accepts_a_legal_demote_recover_cycle() {
        let log = [
            step(
                10.0,
                HealthState::Healthy,
                HealthState::Degraded,
                TransitionCause::RepeatedTxFailures { failures: 3 },
            ),
            step(
                20.0,
                HealthState::Degraded,
                HealthState::Fallback,
                TransitionCause::TrainDeath,
            ),
            step(
                90.0,
                HealthState::Fallback,
                HealthState::Degraded,
                TransitionCause::Recovered {
                    clean_heartbeats: 5,
                },
            ),
            step(
                150.0,
                HealthState::Degraded,
                HealthState::Healthy,
                TransitionCause::Recovered {
                    clean_heartbeats: 5,
                },
            ),
        ];
        assert!(audit_transitions(&log).is_empty());
        assert!(audit_transitions(&[]).is_empty());
    }

    #[test]
    fn audit_flags_each_structural_violation() {
        let demote = TransitionCause::OracleViolation;
        let recover = TransitionCause::Recovered {
            clean_heartbeats: 5,
        };
        // Rung skip — except the train-death watchdog, which is the one
        // cause allowed to drop straight to Fallback.
        let skip = [step(
            1.0,
            HealthState::Healthy,
            HealthState::Fallback,
            demote,
        )];
        assert!(audit_transitions(&skip)[0].contains("skips a rung"));
        let watchdog = [step(
            1.0,
            HealthState::Healthy,
            HealthState::Fallback,
            TransitionCause::TrainDeath,
        )];
        assert!(audit_transitions(&watchdog).is_empty());
        // Self-loop.
        let looped = [step(
            1.0,
            HealthState::Healthy,
            HealthState::Healthy,
            demote,
        )];
        assert!(audit_transitions(&looped)[0].contains("self-transition"));
        // Broken chain: second transition leaves a state never entered.
        let broken = [
            step(1.0, HealthState::Healthy, HealthState::Degraded, demote),
            step(2.0, HealthState::Fallback, HealthState::Degraded, recover),
        ];
        assert!(audit_transitions(&broken)
            .iter()
            .any(|a| a.contains("broken chain")));
        // First transition not from Healthy.
        let cold = [step(
            1.0,
            HealthState::Degraded,
            HealthState::Fallback,
            demote,
        )];
        assert!(audit_transitions(&cold)[0].contains("broken chain"));
        // Time reversal.
        let reversed = [
            step(5.0, HealthState::Healthy, HealthState::Degraded, demote),
            step(2.0, HealthState::Degraded, HealthState::Fallback, demote),
        ];
        assert!(audit_transitions(&reversed)
            .iter()
            .any(|a| a.contains("moves backwards")));
        // Non-finite timestamp.
        let nan = [step(
            f64::NAN,
            HealthState::Healthy,
            HealthState::Degraded,
            demote,
        )];
        assert!(audit_transitions(&nan)[0].contains("non-finite"));
        // Cause/direction mismatches.
        let bad_promote = [
            step(1.0, HealthState::Healthy, HealthState::Degraded, demote),
            step(2.0, HealthState::Degraded, HealthState::Healthy, demote),
        ];
        assert!(audit_transitions(&bad_promote)
            .iter()
            .any(|a| a.contains("promotion with a demotion cause")));
        let bad_demote = [step(
            1.0,
            HealthState::Healthy,
            HealthState::Degraded,
            recover,
        )];
        assert!(audit_transitions(&bad_demote)[0].contains("demotion attributed to recovery"));
    }

    #[test]
    fn audit_accepts_real_guarded_scheduler_logs() {
        // Drive an actual ladder through demotions and a recovery and
        // audit the log it produced.
        let mut g = guarded(None);
        for i in 0..6 {
            g.on_tx_failure(packet(i, 1, 0.0), i as f64).unwrap();
        }
        assert_eq!(g.state(), HealthState::Fallback);
        for i in 0..12 {
            let _ = g.on_slot(&ctx(10.0 + i as f64, true, true));
        }
        assert!(!g.transitions().is_empty());
        assert!(audit_transitions(g.transitions()).is_empty());
    }

    #[test]
    fn healthy_defers_like_etrain() {
        let mut g = guarded(None);
        assert!(g.on_arrival(packet(0, 1, 0.0), 0.0).unwrap().is_empty());
        assert!(g.on_slot(&ctx(1.0, false, true)).is_empty());
        assert_eq!(g.pending(), 1);
        assert_eq!(g.state(), HealthState::Healthy);
        assert!(g.transitions().is_empty());
    }

    #[test]
    fn failure_streak_demotes_stepwise() {
        let mut g = guarded(Some(8));
        for i in 0..3 {
            g.on_tx_failure(packet(i, 0, 0.0), 5.0 + i as f64).unwrap();
        }
        assert_eq!(g.state(), HealthState::Degraded);
        for i in 3..6 {
            g.on_tx_failure(packet(i, 0, 0.0), 5.0 + i as f64).unwrap();
        }
        assert_eq!(g.state(), HealthState::Fallback);
        let causes: Vec<_> = g.transitions().iter().map(|t| t.cause).collect();
        assert_eq!(
            causes,
            vec![
                TransitionCause::RepeatedTxFailures { failures: 3 },
                TransitionCause::RepeatedTxFailures { failures: 3 },
            ]
        );
    }

    #[test]
    fn degraded_halves_burst_limit() {
        let mut g = guarded(Some(8));
        for i in 0..3 {
            g.on_tx_failure(packet(100 + i, 0, 0.0), 1.0).unwrap();
        }
        assert_eq!(g.state(), HealthState::Degraded);
        // Fallback packets from on_tx_failure already drained; queue fresh.
        let drained = g.on_slot(&ctx(2.0, true, true));
        drop(drained);
        for i in 0..6 {
            g.on_arrival(packet(i, 1, 3.0), 3.0).unwrap();
        }
        let released = g.on_slot(&ctx(4.0, true, true));
        assert_eq!(released.len(), 4, "k halved from 8 to 4");
    }

    #[test]
    fn unbounded_k_degrades_to_cap() {
        let cfg = HealthConfig::default();
        assert_eq!(cfg.degraded_budget(None), 2);
        assert_eq!(cfg.degraded_budget(Some(8)), 4);
        assert_eq!(cfg.degraded_budget(Some(1)), 1);
    }

    #[test]
    fn fallback_sends_immediately() {
        let mut g = guarded(None);
        for i in 0..6 {
            g.on_tx_failure(packet(100 + i, 0, 0.0), 1.0).unwrap();
        }
        assert_eq!(g.state(), HealthState::Fallback);
        let released = g.on_arrival(packet(0, 1, 2.0), 2.0).unwrap();
        assert_eq!(released.len(), 1, "fallback releases on arrival");
        assert_eq!(g.pending(), 0);
    }

    #[test]
    fn train_death_drops_to_fallback_and_recovers() {
        let mut g = guarded(None);
        g.on_arrival(packet(0, 1, 0.0), 0.0).unwrap();
        let released = g.on_slot(&ctx(1.0, false, false));
        assert_eq!(released.len(), 1, "watchdog flushes the backlog");
        assert_eq!(g.state(), HealthState::Fallback);
        assert_eq!(g.transitions()[0].cause, TransitionCause::TrainDeath);

        // 5 clean heartbeats -> Degraded, 5 more -> Healthy.
        for i in 0..5 {
            g.on_slot(&ctx(10.0 + i as f64, true, true));
        }
        assert_eq!(g.state(), HealthState::Degraded);
        for i in 0..5 {
            g.on_slot(&ctx(20.0 + i as f64, true, true));
        }
        assert_eq!(g.state(), HealthState::Healthy);
        assert_eq!(g.transitions().len(), 3);
        let at: Vec<f64> = g.transitions().iter().map(|t| t.at_s).collect();
        assert!(at.windows(2).all(|w| w[0] <= w[1]), "timestamps ordered");
    }

    #[test]
    fn oracle_violation_demotes_immediately() {
        let mut g = guarded(None);
        g.on_oracle_violation(7.0);
        assert_eq!(g.state(), HealthState::Degraded);
        g.on_oracle_violation(8.0);
        assert_eq!(g.state(), HealthState::Fallback);
        assert_eq!(g.transitions().len(), 2);
        assert_eq!(g.transitions()[1].cause, TransitionCause::OracleViolation);
    }

    #[test]
    fn failures_reset_clean_streak() {
        let mut g = guarded(None);
        g.on_oracle_violation(1.0);
        for i in 0..4 {
            g.on_slot(&ctx(2.0 + i as f64, true, true));
        }
        g.on_tx_failure(packet(0, 0, 0.0), 6.5).unwrap();
        for i in 0..4 {
            g.on_slot(&ctx(7.0 + i as f64, true, true));
        }
        assert_eq!(g.state(), HealthState::Degraded, "streak restarted");
        g.on_slot(&ctx(11.0, true, true));
        assert_eq!(g.state(), HealthState::Healthy);
    }

    #[test]
    fn reject_new_sheds_arrivals_at_capacity() {
        let mut g = guarded(None).with_admission(
            AdmissionConfig::unbounded()
                .with_global_capacity(2)
                .with_policy(ShedPolicy::RejectNew),
        );
        for i in 0..5 {
            g.on_arrival(packet(i, 1, 0.0), 0.0).unwrap();
        }
        assert_eq!(g.pending(), 2);
        let shed = g.take_shed();
        assert_eq!(shed.iter().map(|p| p.id).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert!(g.take_shed().is_empty());
    }

    #[test]
    fn drop_lowest_value_keeps_costliest() {
        let mut g = guarded(None).with_admission(
            AdmissionConfig::unbounded()
                .with_global_capacity(2)
                .with_policy(ShedPolicy::DropLowestValue),
        );
        // Mail (app 0) is free before its deadline; Weibo (app 1) accrues
        // cost immediately. At capacity the Mail packet is the victim.
        g.on_arrival(packet(0, 0, 0.0), 0.0).unwrap();
        g.on_arrival(packet(1, 1, 0.0), 0.0).unwrap();
        g.on_arrival(packet(2, 1, 10.0), 10.0).unwrap();
        assert_eq!(g.pending(), 2);
        let shed = g.take_shed();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, 0);
    }

    #[test]
    fn force_flush_oldest_releases_instead_of_dropping() {
        let mut g = guarded(None).with_admission(
            AdmissionConfig::unbounded()
                .with_per_app_capacity(2)
                .with_policy(ShedPolicy::ForceFlushOldest),
        );
        g.on_arrival(packet(0, 1, 0.0), 0.0).unwrap();
        g.on_arrival(packet(1, 1, 1.0), 1.0).unwrap();
        let released = g.on_arrival(packet(2, 1, 2.0), 2.0).unwrap();
        assert_eq!(released.len(), 1, "oldest flushed, not shed");
        assert_eq!(released[0].id, 0);
        assert_eq!(g.forced_flushes(), 1);
        assert!(g.take_shed().is_empty());
        assert_eq!(g.pending(), 2);
    }

    #[test]
    fn per_app_capacity_is_independent() {
        let mut g = guarded(None).with_admission(
            AdmissionConfig::unbounded()
                .with_per_app_capacity(1)
                .with_policy(ShedPolicy::RejectNew),
        );
        g.on_arrival(packet(0, 0, 0.0), 0.0).unwrap();
        g.on_arrival(packet(1, 1, 0.0), 0.0).unwrap();
        assert_eq!(g.pending(), 2, "different apps both admitted");
        g.on_arrival(packet(2, 0, 1.0), 1.0).unwrap();
        assert_eq!(g.take_shed().len(), 1);
    }

    #[test]
    fn unknown_app_is_an_error_not_a_shed() {
        let mut g = guarded(None).with_admission(
            AdmissionConfig::unbounded()
                .with_global_capacity(1)
                .with_policy(ShedPolicy::RejectNew),
        );
        let err = g.on_arrival(packet(0, 99, 0.0), 0.0).unwrap_err();
        assert!(matches!(err, SchedulerError::UnknownApp { .. }));
        assert!(g.take_shed().is_empty());
    }

    #[test]
    fn obs_events_cover_shed_flush_and_transitions() {
        let mut g = guarded(None).with_admission(
            AdmissionConfig::unbounded()
                .with_global_capacity(1)
                .with_policy(ShedPolicy::RejectNew),
        );
        g.set_obs_enabled(true);
        g.on_arrival(packet(0, 1, 0.0), 0.0).unwrap();
        g.on_arrival(packet(1, 1, 0.5), 0.5).unwrap(); // shed: at capacity
        g.on_oracle_violation(1.0); // healthy -> degraded
        let _ = g.on_slot(&ctx(2.0, true, true));
        let kinds: Vec<&'static str> = g.take_obs_events().iter().map(|(_, e)| e.kind()).collect();
        assert!(kinds.contains(&"shed"), "{kinds:?}");
        assert!(kinds.contains(&"health_transition"), "{kinds:?}");
        assert!(kinds.contains(&"piggyback_decision"), "{kinds:?}");
        // Causal order: the shed (t=0.5) precedes the transition (t=1.0).
        let shed_pos = kinds.iter().position(|k| *k == "shed").unwrap();
        let trans_pos = kinds
            .iter()
            .position(|k| *k == "health_transition")
            .unwrap();
        assert!(shed_pos < trans_pos);
    }

    #[test]
    fn forced_flush_emits_event() {
        let mut g = guarded(None).with_admission(
            AdmissionConfig::unbounded()
                .with_global_capacity(1)
                .with_policy(ShedPolicy::ForceFlushOldest),
        );
        g.set_obs_enabled(true);
        g.on_arrival(packet(0, 1, 0.0), 0.0).unwrap();
        let released = g.on_arrival(packet(1, 1, 1.0), 1.0).unwrap();
        assert_eq!(released.len(), 1);
        let events = g.take_obs_events();
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e, etrain_obs::Event::ForcedFlush { packet_id: 0, .. })));
    }

    #[test]
    fn transition_display_is_readable() {
        let t = HealthTransition {
            at_s: 42.0,
            from: HealthState::Healthy,
            to: HealthState::Degraded,
            cause: TransitionCause::RepeatedTxFailures { failures: 3 },
        };
        assert_eq!(
            t.to_string(),
            "t=42.0s healthy -> degraded (3 consecutive tx failures)"
        );
        let json = serde_json::to_string(&t).unwrap();
        let back: HealthTransition = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
