//! The eTrain online transmission strategy (paper Sec. IV, Algorithm 1).
//!
//! At every 1-second slot the scheduler evaluates the total instantaneous
//! delay cost `P(t)` of all waiting queues. If `P(t) ≥ Θ` **or** a heartbeat
//! departs at this slot, it opens a selection budget `K(t)` — `k` packets on
//! heartbeat slots (piggybacking on the tail the heartbeat is about to pay
//! for anyway), a single packet otherwise — and greedily picks the packets
//! that maximize the negative Lyapunov drift:
//!
//! ```text
//! max  Σ_i [ P̄_i(t) · Σ_{u∈Q*_i} ϕ_u(t)  −  (Σ_{u∈Q*_i} ϕ_u(t))² / 2 ]
//! ```
//!
//! The greedy step (paper Eq. 9) adds, per iteration, the packet `u` of app
//! `i` maximizing `(P̄_i(t) − Σ_{q∈Q*_i} ϕ_q(t)) · ϕ_u(t) − ϕ_u(t)²/2`.
//!
//! The paper's deployed configuration sets `k = ∞` ([`ETrainConfig::k`] =
//! `None`): on a heartbeat slot the whole backlog piggybacks.

use etrain_trace::packets::Packet;
use etrain_trace::CargoAppId;
use serde::{Deserialize, Serialize};

use crate::api::{Scheduler, SchedulerError, SlotContext};
use crate::queue::{AppProfile, WaitingQueues};

/// Configuration of [`ETrainScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ETrainConfig {
    /// The delay-cost bound Θ: below it (and without a heartbeat) nothing
    /// is scheduled, letting cargo accumulate for the next train.
    pub theta: f64,
    /// Maximum packets piggybacked per heartbeat slot; `None` means the
    /// paper's deployed `k = ∞`.
    pub k: Option<usize>,
    /// Slot length in seconds (the paper uses 1 s).
    pub slot_s: f64,
}

impl Default for ETrainConfig {
    /// The paper's controlled-experiment defaults: Θ = 0.2, k = ∞, 1 s
    /// slots (Sec. VI-D-4).
    fn default() -> Self {
        ETrainConfig {
            theta: 0.2,
            k: None,
            slot_s: 1.0,
        }
    }
}

impl ETrainConfig {
    /// Checks Θ finite and non-negative, a positive slot and `k` at
    /// least 1 (or `None`); the error names the first violation.
    pub fn validate(&self) -> Result<(), String> {
        crate::first_failure(&[
            (
                self.theta.is_finite() && self.theta >= 0.0,
                "theta must be finite and non-negative",
            ),
            (self.slot_s > 0.0, "slot length must be positive"),
            (
                self.k != Some(0),
                "k must be at least 1 (or None for infinity)",
            ),
        ])
    }
}

/// The eTrain scheduler: Algorithm 1 of the paper.
///
/// See the module-level documentation for the algorithm; see
/// [`ETrainConfig`] for tuning. Construction requires the registered cargo
/// app profiles, mirroring the Android implementation where apps register
/// their delay-cost profile with the eTrain service.
#[derive(Debug)]
pub struct ETrainScheduler {
    config: ETrainConfig,
    queues: WaitingQueues,
    /// Latched from the last slot's `trains_alive`: while `true` the
    /// scheduler is stopped (paper Sec. V-3) and arrivals pass straight
    /// through instead of waiting up to a full slot for the next drain.
    trains_dead: bool,
    /// Whether to buffer structured events for the journal (off by
    /// default — the zero-cost path allocates nothing).
    obs_enabled: bool,
    /// Buffered `(time_s, event)` pairs awaiting a driver drain.
    obs_events: Vec<(f64, etrain_obs::Event)>,
    /// When `true`, `on_slot` takes the retained from-scratch reference
    /// decision path instead of the cached one (the equivalence harness;
    /// see [`ETrainScheduler::set_reference_decisions`]).
    reference_decisions: bool,
    /// Persistent scratch buffers for the cached greedy selection,
    /// reused across slots so steady-state decisions allocate nothing.
    scratch: SelectScratch,
    /// Whether every registered profile passes
    /// [`CostProfile::is_nondecreasing`](crate::CostProfile::is_nondecreasing),
    /// so that `P(t)` over a fixed queue never falls as `t` grows.
    /// [`Scheduler::quiet_through`] certifies a non-empty queue only then.
    costs_nondecreasing: bool,
}

/// Reusable selection-round storage. The cached values are valid for one
/// `select` call only (ϕ depends on `now_s`); the *capacity* is what
/// persists across slots.
#[derive(Debug, Default)]
struct SelectScratch {
    /// `P̄_i(t)` per app, rebuilt each round in the same per-queue
    /// accumulation order as `WaitingQueues::speculative_backlog`.
    p_bar: Vec<f64>,
    /// `Σ_{q ∈ Q*_i} ϕ_q(t)` per app, grown as packets are selected.
    selected_sum: Vec<f64>,
    /// `ϕ_u(t)` per candidate in candidate order — app ascending, queue
    /// position ascending — exactly the reference scan order. Kept as a
    /// bare lane (struct-of-arrays) so the greedy round streams 8-byte
    /// floats instead of a wide tuple stride.
    phi: Vec<f64>,
    /// One-past-the-end candidate index per app: app `i`'s candidates are
    /// `phi[app_end[i-1]..app_end[i]]` (from 0 for app 0). Replaces a
    /// per-candidate app lane and lets each greedy round hoist
    /// `P̄_i − Σϕ` out of the inner scan.
    app_end: Vec<usize>,
    /// Parallel to `phi`: the candidate's packet id (enough to remove it
    /// from the live queue on selection — the full `Packet` stays there).
    id: Vec<u64>,
    /// Parallel to `phi`: whether the packet was already selected (the
    /// reference path removes it from the live queue instead).
    taken: Vec<bool>,
}

impl ETrainScheduler {
    /// Creates a scheduler for the registered app profiles.
    ///
    /// # Panics
    ///
    /// Panics if [`ETrainConfig::validate`] rejects the configuration.
    pub fn new(config: ETrainConfig, profiles: Vec<AppProfile>) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid eTrain config: {msg}");
        }
        let costs_nondecreasing = profiles.iter().all(|p| p.cost.is_nondecreasing());
        ETrainScheduler {
            config,
            costs_nondecreasing,
            queues: WaitingQueues::new(profiles),
            trains_dead: false,
            obs_enabled: false,
            obs_events: Vec::new(),
            reference_decisions: false,
            scratch: SelectScratch::default(),
        }
    }

    /// Buffers a [`PiggybackDecision`](etrain_obs::Event::PiggybackDecision)
    /// if event recording is on. `budget_k` follows the journal
    /// convention: `Some(0)` marks a pure deferral, `None` an unbounded
    /// burst.
    #[allow(clippy::too_many_arguments)]
    fn record_decision(
        &mut self,
        now_s: f64,
        total_cost: f64,
        heartbeat_departing: bool,
        queued: usize,
        queued_bytes: u64,
        budget_k: Option<usize>,
        released: usize,
    ) {
        if !self.obs_enabled || (queued == 0 && !heartbeat_departing) {
            return;
        }
        self.obs_events.push((
            now_s,
            etrain_obs::Event::PiggybackDecision {
                total_cost,
                theta: self.config.theta,
                heartbeat_departing,
                queued,
                queued_bytes,
                budget_k,
                released,
            },
        ));
    }

    /// Registers one more cargo app, as a cargo app subscribes to the
    /// running eTrain service (paper Sec. V-3). Its queue is appended, so
    /// its id is the number of apps registered before it. Queued packets
    /// stay, each queue put in (arrival, id) order, and the stopped
    /// latch clears: like a fresh scheduler, this one defers arrivals
    /// until a slot reports every train dead again.
    pub fn add_app(&mut self, profile: AppProfile) {
        self.costs_nondecreasing &= profile.cost.is_nondecreasing();
        self.queues.add_app(profile);
        self.trains_dead = false;
    }

    /// The active configuration.
    pub fn config(&self) -> &ETrainConfig {
        &self.config
    }

    /// Overrides the piggyback burst limit `k` at run time. The degraded
    /// mode of [`GuardedScheduler`](crate::GuardedScheduler) uses this to
    /// halve the burst limit without rebuilding the queues.
    ///
    /// # Panics
    ///
    /// Panics on `Some(0)`.
    pub fn set_k(&mut self, k: Option<usize>) {
        assert!(k != Some(0), "k must be at least 1 (or None for infinity)");
        self.config.k = k;
    }

    /// The registered cargo app profiles.
    pub fn profiles(&self) -> &[AppProfile] {
        self.queues.profiles()
    }

    /// Whether the retained from-scratch reference decision path is
    /// active.
    pub fn reference_decisions(&self) -> bool {
        self.reference_decisions
    }

    /// Packets currently deferred for one app.
    pub fn pending_for(&self, app: CargoAppId) -> usize {
        if app.index() < self.queues.app_count() {
            self.queues.app_queue(app).len()
        } else {
            0
        }
    }

    /// Drains every deferred packet in arrival order, bypassing
    /// Algorithm 1 (the fallback immediate-send mode and the system
    /// shutdown path use this).
    pub fn drain_pending(&mut self) -> Vec<Packet> {
        self.queues.drain_all()
    }

    /// The waiting queues, for [`AdmissionConfig::make_room`]'s victim
    /// choice.
    ///
    /// [`AdmissionConfig::make_room`]: crate::AdmissionConfig::make_room
    pub(crate) fn queues_mut(&mut self) -> &mut WaitingQueues {
        &mut self.queues
    }

    /// The current total instantaneous cost `P(t)` (paper Eq. 6).
    pub fn total_cost(&self, now_s: f64) -> f64 {
        self.queues.total_cost(now_s)
    }

    /// Forcibly removes one pending packet from its waiting queue,
    /// bypassing Algorithm 1. The eTrain system runtime uses this to honor
    /// per-request deadline overrides (a request whose own deadline is
    /// about to pass is released regardless of Θ and heartbeats).
    pub fn force_release(&mut self, app: CargoAppId, packet_id: u64) -> Option<Packet> {
        self.queues.remove(app, packet_id)
    }

    /// Greedy drift-maximizing selection of up to `budget` packets
    /// (paper Eq. 9) — the cached hot path.
    ///
    /// Bit-for-bit identical to [`ETrainScheduler::select_reference`]:
    /// `ϕ_u(t)` is a pure function of `(profile, arrival, now, slot)`, so
    /// snapshotting every candidate's ϕ once (in the reference scan order)
    /// and marking selections with a flag reproduces the reference's
    /// per-round recompute exactly — same candidate order, same gain
    /// arithmetic, same `>`-only tie-break, same `selected_sum` updates —
    /// at O(n + k·n) comparisons instead of O(k·n) ϕ evaluations, with
    /// zero allocations beyond the returned `Vec`.
    fn select(&mut self, now_s: f64, budget: Option<usize>) -> Vec<Packet> {
        let slot = self.config.slot_s;
        // With an unbounded budget every queued packet is selected — the
        // greedy order is irrelevant, so short-circuit (k = ∞ fast path).
        let Some(budget) = budget else {
            return self.queues.drain_all();
        };
        if self.queues.is_empty() {
            return Vec::new();
        }

        let app_count = self.queues.app_count();
        let scratch = &mut self.scratch;
        scratch.p_bar.clear();
        scratch.selected_sum.clear();
        scratch.phi.clear();
        scratch.app_end.clear();
        scratch.id.clear();
        scratch.taken.clear();
        // P̄_i(t) is fixed for the whole selection round; accumulate it in
        // the same per-queue order as `speculative_backlog` while the
        // candidate snapshot is taken.
        for i in 0..app_count {
            let app = CargoAppId(i);
            let mut backlog = 0.0f64;
            for packet in self.queues.app_queue(app) {
                let phi = self.queues.speculative_cost(packet, now_s, slot);
                backlog += phi;
                scratch.phi.push(phi);
                scratch.id.push(packet.id);
            }
            scratch.p_bar.push(backlog);
            scratch.selected_sum.push(0.0);
            scratch.app_end.push(scratch.phi.len());
        }
        scratch.taken.resize(scratch.phi.len(), false);

        let candidates = scratch.phi.len();
        let mut selected: Vec<Packet> = Vec::with_capacity(budget.min(candidates));
        while selected.len() < budget && selected.len() < candidates {
            // Find (i, u) maximizing the marginal drift gain, scanning
            // candidates in the same order as the reference's live-queue
            // rescan (app ascending, queue position ascending).
            // `P̄_i − Σ_{q∈Q*_i} ϕ_q` is constant within a round, so it is
            // hoisted per app instead of re-read per candidate.
            let mut best: Option<(f64, usize)> = None;
            let mut start = 0usize;
            for i in 0..app_count {
                let end = scratch.app_end[i];
                let unselected = scratch.p_bar[i] - scratch.selected_sum[i];
                let lanes = scratch.phi[start..end]
                    .iter()
                    .zip(&scratch.taken[start..end]);
                for (offset, (&phi, &taken)) in lanes.enumerate() {
                    if taken {
                        continue;
                    }
                    let gain = unselected * phi - phi * phi / 2.0;
                    let better = match &best {
                        None => true,
                        Some((best_gain, _)) => gain > *best_gain,
                    };
                    if better {
                        best = Some((gain, start + offset));
                    }
                }
                start = end;
            }
            let Some((_, idx)) = best else { break };
            let app_i = scratch.app_end.partition_point(|&end| end <= idx);
            let phi = scratch.phi[idx];
            scratch.taken[idx] = true;
            scratch.selected_sum[app_i] += phi;
            let Some(removed) = self.queues.remove(CargoAppId(app_i), scratch.id[idx]) else {
                break;
            };
            selected.push(removed);
        }
        selected
    }

    /// The retained from-scratch greedy selection (the pre-campaign code
    /// path): `P̄_i` rebuilt into fresh `Vec`s every call and `ϕ_u`
    /// recomputed on every greedy round. Kept verbatim as the equivalence
    /// oracle for [`ETrainScheduler::select`].
    fn select_reference(&mut self, now_s: f64, budget: Option<usize>) -> Vec<Packet> {
        let slot = self.config.slot_s;
        // With an unbounded budget every queued packet is selected — the
        // greedy order is irrelevant, so short-circuit (k = ∞ fast path).
        let Some(budget) = budget else {
            return self.queues.drain_all();
        };

        // P̄_i(t) is fixed for the whole selection round.
        let app_count = self.queues.app_count();
        let p_bar: Vec<f64> = (0..app_count)
            .map(|i| self.queues.speculative_backlog(CargoAppId(i), now_s, slot))
            .collect();
        // Σ_{q ∈ Q*_i} ϕ_q(t) grows as packets are selected.
        let mut selected_sum = vec![0.0f64; app_count];
        let mut selected: Vec<Packet> = Vec::new();

        while selected.len() < budget && !self.queues.is_empty() {
            // Find (i, u) maximizing the marginal drift gain.
            let mut best: Option<(f64, Packet)> = None;
            for i in 0..app_count {
                let app = CargoAppId(i);
                for packet in self.queues.app_queue(app) {
                    let phi = self.queues.speculative_cost(packet, now_s, slot);
                    let gain = (p_bar[i] - selected_sum[i]) * phi - phi * phi / 2.0;
                    let better = match &best {
                        None => true,
                        Some((best_gain, _)) => gain > *best_gain,
                    };
                    if better {
                        best = Some((gain, *packet));
                    }
                }
            }
            let Some((_, packet)) = best else { break };
            selected_sum[packet.app.index()] += self.queues.speculative_cost(&packet, now_s, slot);
            let Some(removed) = self.queues.remove(packet.app, packet.id) else {
                break;
            };
            selected.push(removed);
        }
        selected
    }

    /// The retained from-scratch slot decision (the pre-campaign code
    /// path): O(n) queue recounts, an unconditional full `P(t)` sum, and
    /// [`ETrainScheduler::select_reference`]. Dispatched to when
    /// [`ETrainScheduler::set_reference_decisions`] selects the reference
    /// path.
    fn on_slot_reference(&mut self, ctx: &SlotContext) -> Vec<Packet> {
        // Paper Sec. V-3: with no train app alive, stop deferring so cargo
        // apps never wait indefinitely. The latch clears as soon as a slot
        // observes a live train again (restart recovery).
        self.trains_dead = !ctx.trains_alive;
        let queued = self.queues.recount_len();
        let queued_bytes = self.queues.recount_bytes();
        if !ctx.trains_alive {
            let released = self.queues.drain_all();
            self.record_decision(
                ctx.now_s,
                0.0,
                ctx.heartbeat_departing,
                queued,
                queued_bytes,
                None,
                released.len(),
            );
            return released;
        }
        let total = self.queues.total_cost(ctx.now_s);
        if total < self.config.theta && !ctx.heartbeat_departing {
            self.record_decision(ctx.now_s, total, false, queued, queued_bytes, Some(0), 0);
            return Vec::new();
        }
        let budget = if ctx.heartbeat_departing {
            self.config.k
        } else {
            Some(1)
        };
        let released = self.select_reference(ctx.now_s, budget);
        self.record_decision(
            ctx.now_s,
            total,
            ctx.heartbeat_departing,
            queued,
            queued_bytes,
            budget,
            released.len(),
        );
        released
    }
}

impl Scheduler for ETrainScheduler {
    fn name(&self) -> &'static str {
        "eTrain"
    }

    fn on_arrival(&mut self, packet: Packet, _now_s: f64) -> Result<Vec<Packet>, SchedulerError> {
        // While the scheduler is stopped (all trains dead) arrivals are
        // released immediately rather than parked until the next slot.
        if self.trains_dead {
            // Still validate the app id against the registered profiles.
            self.queues.push(packet)?;
            return Ok(self.queues.drain_all());
        }
        self.queues.push(packet)?;
        Ok(Vec::new())
    }

    fn on_slot(&mut self, ctx: &SlotContext) -> Vec<Packet> {
        if self.reference_decisions {
            return self.on_slot_reference(ctx);
        }
        // Paper Sec. V-3: with no train app alive, stop deferring so cargo
        // apps never wait indefinitely. The latch clears as soon as a slot
        // observes a live train again (restart recovery).
        self.trains_dead = !ctx.trains_alive;
        // O(1) cached counters (integer-exact, so identical to the
        // reference recounts).
        let queued = self.queues.len();
        let queued_bytes = self.queues.total_bytes();
        if !ctx.trains_alive {
            let released = self.queues.drain_all();
            self.record_decision(
                ctx.now_s,
                0.0,
                ctx.heartbeat_departing,
                queued,
                queued_bytes,
                None,
                released.len(),
            );
            return released;
        }
        // The journal event carries the exact `P(t)`, so the full sum is
        // only owed when events are on; otherwise the Θ gate needs just a
        // boolean, and `total_cost_breaches` answers it with a bit-exact
        // partial-sum early exit.
        let total = if self.obs_enabled {
            Some(self.queues.total_cost(ctx.now_s))
        } else {
            None
        };
        let deferral = !ctx.heartbeat_departing
            && match total {
                Some(total) => total < self.config.theta,
                None => !self
                    .queues
                    .total_cost_breaches(ctx.now_s, self.config.theta),
            };
        if deferral {
            self.record_decision(
                ctx.now_s,
                total.unwrap_or(0.0),
                false,
                queued,
                queued_bytes,
                Some(0),
                0,
            );
            return Vec::new();
        }
        let budget = if ctx.heartbeat_departing {
            self.config.k
        } else {
            Some(1)
        };
        let released = self.select(ctx.now_s, budget);
        self.record_decision(
            ctx.now_s,
            total.unwrap_or(0.0),
            ctx.heartbeat_departing,
            queued,
            queued_bytes,
            budget,
            released.len(),
        );
        released
    }

    fn slot_s(&self) -> f64 {
        self.config.slot_s
    }

    fn slot_quiescent(&self, trains_alive: bool) -> bool {
        // With nothing queued, a heartbeat-free slot selects nothing (for
        // any Θ, including Θ = 0: the greedy select over empty queues is
        // empty) and the decision recorder skips `queued == 0` deferrals.
        // The liveness latch must already match the slot's value, or
        // `on_slot` would flip it — a real state change.
        self.queues.is_empty() && self.trains_dead != trains_alive
    }

    fn quiet_through(&self, at_s: f64, trains_alive: bool) -> bool {
        // A heartbeat-free slot with live trains defers while `P(t) < Θ`
        // and, with events off, then changes nothing. Over a fixed queue
        // `P(t)` is a float sum, in a fixed order, of terms that never
        // fall as `t` grows (each profile is non-decreasing, and rounded
        // subtraction and addition are monotone), so a deferral at `at_s`
        // implies one at every earlier slot. Journaled runs record every
        // deferral, so they are never quiet over a non-empty queue.
        self.trains_dead != trains_alive
            && (self.queues.is_empty()
                || (trains_alive
                    && !self.obs_enabled
                    && self.costs_nondecreasing
                    && !self.queues.total_cost_breaches(at_s, self.config.theta)))
    }

    fn set_obs_enabled(&mut self, enabled: bool) {
        self.obs_enabled = enabled;
        if !enabled {
            self.obs_events.clear();
        }
    }

    fn set_reference_decisions(&mut self, reference: bool) {
        self.reference_decisions = reference;
    }

    fn take_obs_events(&mut self) -> Vec<(f64, etrain_obs::Event)> {
        std::mem::take(&mut self.obs_events)
    }

    fn pending(&self) -> usize {
        self.queues.len()
    }

    fn pending_bytes(&self) -> u64 {
        self.queues.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostProfile;

    fn packet(id: u64, app: usize, arrival_s: f64) -> Packet {
        Packet {
            id,
            app: CargoAppId(app),
            arrival_s,
            size_bytes: 1_000,
        }
    }

    fn ctx(now_s: f64, heartbeat: bool) -> SlotContext {
        SlotContext {
            now_s,
            heartbeat_departing: heartbeat,
            predicted_bandwidth_bps: 500_000.0,
            trains_alive: true,
        }
    }

    fn scheduler(theta: f64, k: Option<usize>) -> ETrainScheduler {
        ETrainScheduler::new(
            ETrainConfig {
                theta,
                k,
                slot_s: 1.0,
            },
            AppProfile::paper_trio(30.0),
        )
    }

    #[test]
    fn defers_below_theta_without_heartbeat() {
        let mut s = scheduler(1.0, None);
        s.on_arrival(packet(0, 1, 0.0), 0.0).unwrap();
        // Weibo cost at t=5 is 5/30 ≈ 0.17 < Θ=1.
        assert!(s.on_slot(&ctx(5.0, false)).is_empty());
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn heartbeat_overrides_theta_gate() {
        let mut s = scheduler(10.0, None);
        s.on_arrival(packet(0, 1, 0.0), 0.0).unwrap();
        let released = s.on_slot(&ctx(1.0, true));
        assert_eq!(released.len(), 1);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn cost_breach_releases_one_packet_per_slot() {
        let mut s = scheduler(0.5, None);
        for i in 0..3 {
            s.on_arrival(packet(i, 1, 0.0), 0.0).unwrap();
        }
        // At t=10 each Weibo packet costs 1/3 → total 1.0 ≥ Θ.
        let released = s.on_slot(&ctx(10.0, false));
        assert_eq!(released.len(), 1, "non-heartbeat slots release K=1");
        assert_eq!(s.pending(), 2);
    }

    #[test]
    fn k_bounds_heartbeat_release() {
        let mut s = scheduler(0.2, Some(2));
        for i in 0..5 {
            s.on_arrival(packet(i, 1, 0.0), 0.0).unwrap();
        }
        let released = s.on_slot(&ctx(10.0, true));
        assert_eq!(released.len(), 2);
        assert_eq!(s.pending(), 3);
    }

    #[test]
    fn k_infinity_flushes_backlog_on_heartbeat() {
        let mut s = scheduler(0.2, None);
        for i in 0..7 {
            s.on_arrival(packet(i, i as usize % 3, 0.0), 0.0).unwrap();
        }
        let released = s.on_slot(&ctx(10.0, true));
        assert_eq!(released.len(), 7);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn greedy_prefers_higher_speculative_cost() {
        // Two Weibo packets with different ages: the older one (higher
        // φ_u) must be selected first.
        let mut s = scheduler(0.0, Some(1));
        s.on_arrival(packet(0, 1, 0.0), 0.0).unwrap(); // age 20 at t=20
        s.on_arrival(packet(1, 1, 15.0), 15.0).unwrap(); // age 5 at t=20
        let released = s.on_slot(&ctx(20.0, true));
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].id, 0);
    }

    #[test]
    fn greedy_balances_across_apps() {
        // One old Mail packet (still free: f1 = 0 before deadline) vs a
        // young Cloud packet (f3 grows immediately): the Cloud packet wins.
        let mut s = ETrainScheduler::new(
            ETrainConfig {
                theta: 0.0,
                k: Some(1),
                slot_s: 1.0,
            },
            vec![
                AppProfile::new("Mail", CostProfile::mail(120.0)),
                AppProfile::new("Cloud", CostProfile::cloud(30.0)),
            ],
        );
        s.on_arrival(packet(0, 0, 0.0), 0.0).unwrap();
        s.on_arrival(packet(1, 1, 10.0), 10.0).unwrap();
        let released = s.on_slot(&ctx(20.0, true));
        assert_eq!(released[0].id, 1);
    }

    #[test]
    fn dead_trains_flush_everything() {
        let mut s = scheduler(100.0, Some(1));
        for i in 0..4 {
            s.on_arrival(packet(i, 0, 0.0), 0.0).unwrap();
        }
        let mut dead_ctx = ctx(5.0, false);
        dead_ctx.trains_alive = false;
        let released = s.on_slot(&dead_ctx);
        assert_eq!(released.len(), 4);
    }

    #[test]
    fn empty_queues_release_nothing_even_on_heartbeat() {
        let mut s = scheduler(0.0, None);
        assert!(s.on_slot(&ctx(5.0, true)).is_empty());
    }

    #[test]
    fn packets_never_duplicated_or_lost() {
        let mut s = scheduler(0.1, Some(3));
        let mut seen = std::collections::HashSet::new();
        for i in 0..20 {
            s.on_arrival(packet(i, (i % 3) as usize, i as f64), i as f64)
                .unwrap();
        }
        let mut released = Vec::new();
        for slot in 20..200 {
            let heartbeat = slot % 30 == 0;
            released.extend(s.on_slot(&ctx(slot as f64, heartbeat)));
        }
        for p in &released {
            assert!(seen.insert(p.id), "packet {} released twice", p.id);
        }
        assert_eq!(released.len() + s.pending(), 20);
        assert_eq!(released.len(), 20, "all packets eventually released");
    }

    #[test]
    fn unknown_app_is_reported() {
        let mut s = scheduler(0.1, None);
        let err = s.on_arrival(packet(0, 99, 0.0), 0.0).unwrap_err();
        assert!(matches!(err, SchedulerError::UnknownApp { .. }));
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        let _ = scheduler(0.1, Some(0));
    }

    #[test]
    fn reference_and_cached_paths_release_identically() {
        // A mixed drive — bounded k, heartbeats, Θ breaches, obs on —
        // must produce identical releases, identical queues, and
        // identical journal events on both decision paths.
        let mut cached = scheduler(0.4, Some(3));
        let mut reference = scheduler(0.4, Some(3));
        reference.set_reference_decisions(true);
        assert!(reference.reference_decisions());
        cached.set_obs_enabled(true);
        reference.set_obs_enabled(true);
        for i in 0..40u64 {
            let p = packet(i, (i % 3) as usize, i as f64 * 1.7);
            cached.on_arrival(p, p.arrival_s).unwrap();
            reference.on_arrival(p, p.arrival_s).unwrap();
        }
        for slot in 0..240u64 {
            let heartbeat = slot % 31 == 0;
            let c = cached.on_slot(&ctx(slot as f64, heartbeat));
            let r = reference.on_slot(&ctx(slot as f64, heartbeat));
            assert_eq!(c, r, "slot {slot} diverged");
        }
        assert_eq!(cached.pending(), reference.pending());
        assert_eq!(cached.pending_bytes(), reference.pending_bytes());
        let ce = cached.take_obs_events();
        let re = reference.take_obs_events();
        assert_eq!(ce.len(), re.len());
        for ((ct, cev), (rt, rev)) in ce.iter().zip(&re) {
            assert_eq!(ct, rt);
            assert_eq!(format!("{cev:?}"), format!("{rev:?}"));
        }
    }

    #[test]
    fn both_decision_paths_keep_the_backlog_under_fed_back_failures() {
        // Every released packet fails and is re-admitted, so the backlog
        // must hold steady while Θ = 0.2 breaches on every slot; the
        // cached path's early exit and the reference recompute must pick
        // the same packets in the same order throughout.
        fn loaded(reference: bool) -> ETrainScheduler {
            let mut s = scheduler(0.2, Some(8));
            s.set_reference_decisions(reference);
            for i in 0..64u64 {
                let p = packet(i, (i % 3) as usize, i as f64 * 0.01);
                s.on_arrival(p, p.arrival_s).unwrap();
            }
            s
        }
        let mut cached = loaded(false);
        let mut reference = loaded(true);
        let mut released = 0;
        for slot in 0..50u64 {
            let now_s = 600.0 + slot as f64;
            let heartbeat = slot % 16 == 0;
            let c = cached.on_slot(&ctx(now_s, heartbeat));
            let r = reference.on_slot(&ctx(now_s, heartbeat));
            assert_eq!(c, r, "slot {slot} diverged");
            assert!(!c.is_empty(), "slot {slot}: a Θ breach must release");
            released += c.len();
            for p in c {
                cached.on_tx_failure(p, now_s).unwrap();
            }
            for p in r {
                reference.on_tx_failure(p, now_s).unwrap();
            }
            assert_eq!(cached.pending(), 64);
            assert_eq!(reference.pending(), 64);
        }
        assert!(released > 50, "heartbeat slots release a k-burst");
        assert_eq!(cached.pending_bytes(), reference.pending_bytes());
    }

    #[test]
    fn obs_events_buffer_decisions_only_when_enabled() {
        let mut s = scheduler(10.0, None);
        s.on_arrival(packet(0, 1, 0.0), 0.0).unwrap();
        let _ = s.on_slot(&ctx(1.0, false));
        assert!(
            s.take_obs_events().is_empty(),
            "disabled scheduler must buffer nothing"
        );

        s.set_obs_enabled(true);
        let _ = s.on_slot(&ctx(2.0, false)); // deferral: cost < Θ
        let _ = s.on_slot(&ctx(3.0, true)); // heartbeat: releases backlog
        let events = s.take_obs_events();
        assert_eq!(events.len(), 2);
        match &events[0].1 {
            etrain_obs::Event::PiggybackDecision {
                budget_k,
                released,
                queued,
                ..
            } => {
                assert_eq!(*budget_k, Some(0), "deferral marker");
                assert_eq!(*released, 0);
                assert_eq!(*queued, 1);
            }
            other => panic!("unexpected event {other:?}"),
        }
        match &events[1].1 {
            etrain_obs::Event::PiggybackDecision {
                heartbeat_departing,
                released,
                ..
            } => {
                assert!(*heartbeat_departing);
                assert_eq!(*released, 1);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(s.take_obs_events().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn set_k_rebounds_the_next_heartbeat_burst() {
        let mut s = scheduler(0.2, None);
        for i in 0..5 {
            s.on_arrival(packet(i, 1, 0.0), 0.0).unwrap();
        }
        s.set_k(Some(2));
        assert_eq!(s.on_slot(&ctx(10.0, true)).len(), 2);
        s.set_k(None);
        assert_eq!(s.on_slot(&ctx(11.0, true)).len(), 3);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn set_k_rejects_zero() {
        scheduler(0.2, None).set_k(Some(0));
    }

    #[test]
    fn quiet_through_certifies_deferrals_up_to_the_first_breach() {
        let mut s = scheduler(1.0, None);
        assert!(s.quiet_through(1e9, true), "an empty queue is always quiet");
        s.on_arrival(packet(0, 1, 0.0), 0.0).unwrap();
        let _ = s.on_slot(&ctx(1.0, false));
        // Weibo with a 30 s deadline: P(t) = t/30 reaches Θ = 1 at t = 30.
        assert!(s.quiet_through(29.0, true));
        assert!(!s.quiet_through(30.0, true), "P(30) = Θ breaches");
        assert!(!s.quiet_through(31.0, true));
        assert!(!s.quiet_through(29.0, false), "dead trains drain the queue");
        s.set_obs_enabled(true);
        assert!(!s.quiet_through(29.0, true), "journaled deferrals record");
        s.set_obs_enabled(false);

        // A profile whose cost may fall with delay voids the certificate.
        let mut dipping = ETrainScheduler::new(
            ETrainConfig {
                theta: 1.0,
                k: None,
                slot_s: 1.0,
            },
            vec![AppProfile::new(
                "Dip",
                CostProfile::LinearThenSteep {
                    deadline_s: 30.0,
                    steepness: -1.0,
                },
            )],
        );
        dipping.on_arrival(packet(0, 0, 0.0), 0.0).unwrap();
        assert!(!dipping.quiet_through(2.0, true));
    }

    #[test]
    fn an_added_app_gets_the_next_id_and_the_queues_are_reordered() {
        let mut s = ETrainScheduler::new(
            ETrainConfig {
                theta: 10.0,
                k: None,
                slot_s: 1.0,
            },
            vec![AppProfile::new("Mail", CostProfile::mail(300.0))],
        );
        assert!(s.on_slot(&ctx(1.0, false)).is_empty());
        // Train death latches immediate release; a retry re-enters last.
        assert!(s
            .on_slot(&SlotContext {
                trains_alive: false,
                ..ctx(2.0, false)
            })
            .is_empty());
        s.add_app(AppProfile::new("Weibo", CostProfile::weibo(120.0)));
        assert_eq!(s.profiles().len(), 2);
        assert!(s.on_arrival(packet(2, 0, 3.0), 3.0).unwrap().is_empty());
        assert!(s.on_tx_failure(packet(1, 0, 1.0), 4.0).unwrap().is_empty());
        assert!(s.on_arrival(packet(3, 1, 4.0), 4.0).unwrap().is_empty());
        s.add_app(AppProfile::new("Cloud", CostProfile::cloud(600.0)));
        let order: Vec<u64> = s
            .queues
            .app_queue(CargoAppId(0))
            .iter()
            .map(|p| p.id)
            .collect();
        assert_eq!(order, [1, 2]);
        assert_eq!(s.pending_for(CargoAppId(1)), 1);
        assert_eq!(s.pending_for(CargoAppId(2)), 0);
        // A profile whose cost may fall with delay voids the certificate.
        assert!(s.quiet_through(5.0, true));
        s.add_app(AppProfile::new(
            "Dip",
            CostProfile::LinearThenSteep {
                deadline_s: 30.0,
                steepness: -1.0,
            },
        ));
        assert!(!s.quiet_through(5.0, true));
    }

    #[test]
    fn force_release_removes_only_the_named_packet() {
        let mut s = scheduler(10.0, None);
        s.on_arrival(packet(0, 1, 0.0), 0.0).unwrap();
        s.on_arrival(packet(1, 1, 0.0), 0.0).unwrap();
        assert_eq!(s.force_release(CargoAppId(1), 1).map(|p| p.id), Some(1));
        assert_eq!(s.force_release(CargoAppId(1), 1), None, "already released");
        assert_eq!(s.force_release(CargoAppId(0), 0), None, "wrong app");
        assert_eq!(s.pending(), 1);
    }
}
