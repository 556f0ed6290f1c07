//! Per-app waiting queues and instantaneous-cost bookkeeping.

use std::collections::VecDeque;

use etrain_trace::packets::Packet;
use etrain_trace::CargoAppId;
use serde::{Deserialize, Serialize};

use crate::api::SchedulerError;
use crate::cost::CostProfile;

/// The registration profile of a cargo app: its name and delay-cost
/// function (the paper's "cargo app's profile, which is obtained when the
/// cargo app registers for eTrain's services", Sec. V-3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Human-readable app name.
    pub name: String,
    /// The app's delay-cost profile `φ`.
    pub cost: CostProfile,
}

impl AppProfile {
    /// Creates a profile.
    pub fn new(name: impl Into<String>, cost: CostProfile) -> Self {
        AppProfile {
            name: name.into(),
            cost,
        }
    }

    /// The paper's three cargo apps with their evaluation profiles:
    /// Mail f1, Weibo f2, Cloud f3, all sharing `deadline_s` (used by the
    /// deadline-sweep experiments, Fig. 10(c)).
    pub fn paper_trio(deadline_s: f64) -> Vec<AppProfile> {
        vec![
            AppProfile::new("Mail", CostProfile::mail(deadline_s)),
            AppProfile::new("Weibo", CostProfile::weibo(deadline_s)),
            AppProfile::new("Cloud", CostProfile::cloud(deadline_s)),
        ]
    }

    /// The simulation defaults: per-app deadlines reflecting each app's
    /// delay tolerance (e-mail 300 s, microblog posts 120 s, cloud sync
    /// 600 s — the paper's premise is that these apps tolerate
    /// minutes-scale deferral). The paper does not publish its simulation
    /// deadlines; these values put the Θ-sweep delay range in the paper's
    /// reported 18–70 s band (see EXPERIMENTS.md).
    pub fn paper_defaults() -> Vec<AppProfile> {
        vec![
            AppProfile::new("Mail", CostProfile::mail(300.0)),
            AppProfile::new("Weibo", CostProfile::weibo(120.0)),
            AppProfile::new("Cloud", CostProfile::cloud(600.0)),
        ]
    }
}

/// The set of per-app waiting queues `Q_i` of paper Sec. IV, with the cost
/// evaluations `P_i(t)`, `P(t)` and the speculative cost `φ_u(t)` used by
/// the Lyapunov schedulers.
#[derive(Debug, Clone)]
pub struct WaitingQueues {
    profiles: Vec<AppProfile>,
    queues: Vec<VecDeque<Packet>>,
    /// Cached Σ_i |Q_i|, maintained on every mutation so the per-slot
    /// `len`/`is_empty` probes (engine fingerprints, quiescence
    /// certificates) are O(1) instead of O(apps).
    cached_len: usize,
    /// Cached Σ queued bytes, maintained alongside [`WaitingQueues::cached_len`].
    cached_bytes: u64,
}

impl WaitingQueues {
    /// Creates empty queues for the given app profiles; app `i`'s queue is
    /// `Q_i`.
    pub fn new(profiles: Vec<AppProfile>) -> Self {
        let queues = profiles.iter().map(|_| VecDeque::new()).collect();
        WaitingQueues {
            profiles,
            queues,
            cached_len: 0,
            cached_bytes: 0,
        }
    }

    /// The registered app profiles.
    pub fn profiles(&self) -> &[AppProfile] {
        &self.profiles
    }

    /// Registers one more app with an empty queue, and puts every existing
    /// queue in (arrival, id) order: a retry re-enters at the back of its
    /// queue with its original arrival time.
    pub(crate) fn add_app(&mut self, profile: AppProfile) {
        for queue in &mut self.queues {
            queue
                .make_contiguous()
                .sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        }
        self.profiles.push(profile);
        self.queues.push(VecDeque::new());
    }

    /// Number of registered apps.
    pub fn app_count(&self) -> usize {
        self.profiles.len()
    }

    /// Enqueues an arriving packet into its app's queue.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulerError::UnknownApp`] if the packet's app id was
    /// never registered.
    pub fn push(&mut self, packet: Packet) -> Result<(), SchedulerError> {
        let idx = packet.app.index();
        let queue = self
            .queues
            .get_mut(idx)
            .ok_or(SchedulerError::UnknownApp { app: packet.app })?;
        queue.push_back(packet);
        self.cached_len += 1;
        self.cached_bytes += packet.size_bytes;
        Ok(())
    }

    /// Total queued packets across all apps (O(1): cached counter).
    pub fn len(&self) -> usize {
        self.cached_len
    }

    /// Whether all queues are empty (O(1): cached counter).
    pub fn is_empty(&self) -> bool {
        self.cached_len == 0
    }

    /// Total queued bytes across all apps (O(1): cached counter).
    pub fn total_bytes(&self) -> u64 {
        self.cached_bytes
    }

    /// Recounts the queued packets from scratch, ignoring the cached
    /// counter. Retained as the from-scratch reference for the cached
    /// `len` (equivalence tests and the reference decision path).
    pub fn recount_len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Recounts the queued bytes from scratch, ignoring the cached
    /// counter (see [`WaitingQueues::recount_len`]).
    pub fn recount_bytes(&self) -> u64 {
        self.queues
            .iter()
            .flat_map(|q| q.iter())
            .map(|p| p.size_bytes)
            .sum()
    }

    /// Packets pending for app `i`.
    pub fn app_queue(&self, app: CargoAppId) -> &VecDeque<Packet> {
        &self.queues[app.index()]
    }

    /// Iterates over all pending packets with their app profiles.
    pub fn iter(&self) -> impl Iterator<Item = (&AppProfile, &Packet)> {
        self.profiles
            .iter()
            .zip(&self.queues)
            .flat_map(|(profile, queue)| queue.iter().map(move |p| (profile, p)))
    }

    /// The instantaneous cost of app `i`:
    /// `P_i(t) = Σ_{u ∈ Q_i} φ_u(t − t_a(u))`.
    pub fn app_cost(&self, app: CargoAppId, now_s: f64) -> f64 {
        let profile = &self.profiles[app.index()];
        self.queues[app.index()]
            .iter()
            .map(|p| profile.cost.cost(now_s - p.arrival_s))
            .sum()
    }

    /// The total instantaneous cost `P(t) = Σ_i P_i(t)` (paper Eq. 6).
    pub fn total_cost(&self, now_s: f64) -> f64 {
        (0..self.profiles.len())
            .map(|i| self.app_cost(CargoAppId(i), now_s))
            .sum()
    }

    /// Whether `P(t) ≥ theta`, with a partial-sum early exit.
    ///
    /// Exactly `!(self.total_cost(now_s) < theta)`, bit-for-bit: the
    /// partial sums follow the same nested per-app accumulation order as
    /// [`WaitingQueues::total_cost`], delay costs are non-negative so the
    /// float prefix sums are monotone non-decreasing (rounding is
    /// monotone), and every comparison is the negation of the reference
    /// `< theta` test — a prefix crossing Θ certifies the full sum does
    /// too, and an uninterrupted scan reproduces the reference total.
    // The negated `<` is the contract: the Θ gate defers only while
    // `cost < theta`, so a NaN on either side must read as a breach —
    // `>=` would silently flip that.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn total_cost_breaches(&self, now_s: f64, theta: f64) -> bool {
        let mut total = 0.0f64;
        for (profile, queue) in self.profiles.iter().zip(&self.queues) {
            let mut app_sum = 0.0f64;
            for p in queue {
                app_sum += profile.cost.cost(now_s - p.arrival_s);
                if !(total + app_sum < theta) {
                    return true;
                }
            }
            total += app_sum;
            if !(total < theta) {
                return true;
            }
        }
        !(total < theta)
    }

    /// The speculative cost of a pending packet: its cost one slot from now
    /// if it is *not* selected, `φ_u(t + slot − t_a(u))` (paper's
    /// `ϕ_u(t)` with a configurable slot length).
    pub fn speculative_cost(&self, packet: &Packet, now_s: f64, slot_s: f64) -> f64 {
        let profile = &self.profiles[packet.app.index()];
        profile.cost.cost(now_s + slot_s - packet.arrival_s)
    }

    /// The per-app speculative backlog
    /// `P̄_i(t) = Σ_{u ∈ Q_i} ϕ_u(t)` used by the drift objective.
    pub fn speculative_backlog(&self, app: CargoAppId, now_s: f64, slot_s: f64) -> f64 {
        self.queues[app.index()]
            .iter()
            .map(|p| self.speculative_cost(p, now_s, slot_s))
            .sum()
    }

    /// Removes and returns the specific packet (by id) from app `app`'s
    /// queue, or `None` if it is not pending.
    pub fn remove(&mut self, app: CargoAppId, packet_id: u64) -> Option<Packet> {
        let queue = self.queues.get_mut(app.index())?;
        let pos = queue.iter().position(|p| p.id == packet_id)?;
        let removed = queue.remove(pos);
        if let Some(packet) = &removed {
            self.cached_len -= 1;
            self.cached_bytes -= packet.size_bytes;
        }
        removed
    }

    /// Drains every pending packet, in arrival order across apps.
    pub fn drain_all(&mut self) -> Vec<Packet> {
        let mut out: Vec<Packet> = self.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
        out.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        self.cached_len = 0;
        self.cached_bytes = 0;
        out
    }

    /// Removes and returns the oldest pending packet (earliest arrival,
    /// ties broken by packet id), or `None` when every queue is empty.
    /// Used by the force-flush-oldest shed policy.
    pub fn pop_oldest(&mut self) -> Option<Packet> {
        let victim = self
            .queues
            .iter()
            .flat_map(|q| q.iter())
            .copied()
            .min_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)))?;
        self.remove(victim.app, victim.id)
    }

    /// [`WaitingQueues::pop_oldest`] restricted to one app's queue: when
    /// the *per-app* capacity is the bound that tripped, the victim must
    /// come from the violating app or the bound would not be restored.
    pub fn pop_oldest_in(&mut self, app: CargoAppId) -> Option<Packet> {
        let victim = self
            .queues
            .get(app.index())?
            .iter()
            .copied()
            .min_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)))?;
        self.remove(victim.app, victim.id)
    }

    /// [`WaitingQueues::evict_lowest_value`] restricted to one app's queue
    /// (per-app capacity enforcement, like [`WaitingQueues::pop_oldest_in`]).
    pub fn evict_lowest_value_in(&mut self, app: CargoAppId, now_s: f64) -> Option<Packet> {
        let profile = self.profiles.get(app.index())?;
        let victim = self
            .queues
            .get(app.index())?
            .iter()
            .map(|p| (profile.cost.cost(now_s - p.arrival_s), *p))
            .min_by(|(ca, a), (cb, b)| {
                ca.total_cmp(cb)
                    .then(a.arrival_s.total_cmp(&b.arrival_s))
                    .then(a.id.cmp(&b.id))
            })
            .map(|(_, p)| p)?;
        self.remove(victim.app, victim.id)
    }

    /// Removes and returns the pending packet with the lowest
    /// instantaneous delay cost `φ_u(t − t_a)` — the cheapest packet to
    /// lose (ties broken by arrival, then id). Used by the
    /// drop-lowest-value shed policy.
    pub fn evict_lowest_value(&mut self, now_s: f64) -> Option<Packet> {
        let victim = self
            .iter()
            .map(|(profile, p)| (profile.cost.cost(now_s - p.arrival_s), *p))
            .min_by(|(ca, a), (cb, b)| {
                ca.total_cmp(cb)
                    .then(a.arrival_s.total_cmp(&b.arrival_s))
                    .then(a.id.cmp(&b.id))
            })
            .map(|(_, p)| p)?;
        self.remove(victim.app, victim.id)
    }

    /// Drains the packets whose deadline would be violated by waiting one
    /// more slot (used by deadline-aware schedulers).
    pub fn drain_deadline_critical(&mut self, now_s: f64, slot_s: f64) -> Vec<Packet> {
        let mut out = Vec::new();
        for (profile, queue) in self.profiles.iter().zip(&mut self.queues) {
            let deadline = profile.cost.deadline_s();
            queue.retain(|p| {
                let critical = now_s + slot_s - p.arrival_s >= deadline;
                if critical {
                    out.push(*p);
                }
                !critical
            });
        }
        self.cached_len -= out.len();
        self.cached_bytes -= out.iter().map(|p| p.size_bytes).sum::<u64>();
        out.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(id: u64, app: usize, arrival_s: f64, size: u64) -> Packet {
        Packet {
            id,
            app: CargoAppId(app),
            arrival_s,
            size_bytes: size,
        }
    }

    fn queues() -> WaitingQueues {
        WaitingQueues::new(AppProfile::paper_trio(30.0))
    }

    #[test]
    fn push_and_count() {
        let mut q = queues();
        assert!(q.is_empty());
        q.push(packet(0, 0, 1.0, 100)).unwrap();
        q.push(packet(1, 2, 2.0, 200)).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_bytes(), 300);
        assert_eq!(q.app_queue(CargoAppId(0)).len(), 1);
        assert_eq!(q.app_queue(CargoAppId(1)).len(), 0);
    }

    #[test]
    fn unknown_app_rejected() {
        let mut q = queues();
        let err = q.push(packet(0, 9, 0.0, 1)).unwrap_err();
        assert!(matches!(err, SchedulerError::UnknownApp { app } if app == CargoAppId(9)));
    }

    #[test]
    fn costs_match_profiles() {
        let mut q = queues();
        // Weibo (f2, deadline 30): delay 15 → 0.5.
        q.push(packet(0, 1, 0.0, 100)).unwrap();
        assert!((q.app_cost(CargoAppId(1), 15.0) - 0.5).abs() < 1e-12);
        // Mail (f1): free before deadline.
        q.push(packet(1, 0, 0.0, 100)).unwrap();
        assert_eq!(q.app_cost(CargoAppId(0), 15.0), 0.0);
        assert!((q.total_cost(15.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn speculative_cost_looks_one_slot_ahead() {
        let q0 = queues();
        let p = packet(0, 1, 0.0, 100);
        // At t=29 with slot 1 s the Weibo packet would hit its deadline.
        assert!((q0.speculative_cost(&p, 29.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((q0.speculative_cost(&p, 30.0, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn speculative_backlog_sums_queue() {
        let mut q = queues();
        q.push(packet(0, 1, 0.0, 100)).unwrap();
        q.push(packet(1, 1, 10.0, 100)).unwrap();
        let expected = CostProfile::weibo(30.0).cost(16.0) + CostProfile::weibo(30.0).cost(6.0);
        assert!((q.speculative_backlog(CargoAppId(1), 15.0, 1.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn remove_specific_packet() {
        let mut q = queues();
        q.push(packet(0, 0, 1.0, 100)).unwrap();
        q.push(packet(1, 0, 2.0, 100)).unwrap();
        let removed = q.remove(CargoAppId(0), 0).unwrap();
        assert_eq!(removed.id, 0);
        assert_eq!(q.len(), 1);
        assert!(q.remove(CargoAppId(0), 0).is_none());
        assert!(q.remove(CargoAppId(2), 5).is_none());
    }

    #[test]
    fn drain_all_orders_by_arrival() {
        let mut q = queues();
        q.push(packet(0, 0, 5.0, 100)).unwrap();
        q.push(packet(1, 2, 1.0, 100)).unwrap();
        q.push(packet(2, 1, 3.0, 100)).unwrap();
        let drained = q.drain_all();
        let ids: Vec<u64> = drained.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![1, 2, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_deadline_critical_picks_only_expiring() {
        let mut q = queues();
        q.push(packet(0, 1, 0.0, 100)).unwrap(); // deadline at 30
        q.push(packet(1, 1, 20.0, 100)).unwrap(); // deadline at 50
        let critical = q.drain_deadline_critical(29.5, 1.0);
        assert_eq!(critical.len(), 1);
        assert_eq!(critical[0].id, 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_oldest_respects_arrival_then_id() {
        let mut q = queues();
        q.push(packet(5, 0, 3.0, 100)).unwrap();
        q.push(packet(1, 2, 3.0, 100)).unwrap();
        q.push(packet(9, 1, 1.0, 100)).unwrap();
        assert_eq!(q.pop_oldest().unwrap().id, 9);
        assert_eq!(q.pop_oldest().unwrap().id, 1, "tie broken by id");
        assert_eq!(q.pop_oldest().unwrap().id, 5);
        assert!(q.pop_oldest().is_none());
    }

    #[test]
    fn evict_lowest_value_drops_cheapest_cost() {
        let mut q = queues();
        // At t=20: Mail (f1) is free before its 30 s deadline (cost 0),
        // Weibo (f2) at age 15 costs 0.5 — Mail is the cheapest to lose.
        q.push(packet(0, 1, 5.0, 100)).unwrap();
        q.push(packet(1, 0, 5.0, 100)).unwrap();
        let victim = q.evict_lowest_value(20.0).unwrap();
        assert_eq!(victim.id, 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.evict_lowest_value(20.0).unwrap().id, 0);
        assert!(q.evict_lowest_value(20.0).is_none());
    }

    #[test]
    fn cached_counters_match_recount_across_mutations() {
        let mut q = queues();
        let check = |q: &WaitingQueues| {
            assert_eq!(q.len(), q.recount_len());
            assert_eq!(q.total_bytes(), q.recount_bytes());
            assert_eq!(q.is_empty(), q.recount_len() == 0);
        };
        for i in 0..30u64 {
            q.push(packet(i, (i % 3) as usize, i as f64 * 0.7, 100 + i))
                .unwrap();
            check(&q);
        }
        // Every mutation path must keep the counters in sync.
        q.remove(CargoAppId(1), 1).unwrap();
        check(&q);
        assert!(q.remove(CargoAppId(1), 999).is_none());
        check(&q);
        q.pop_oldest().unwrap();
        check(&q);
        q.pop_oldest_in(CargoAppId(2)).unwrap();
        check(&q);
        q.evict_lowest_value(40.0).unwrap();
        check(&q);
        q.evict_lowest_value_in(CargoAppId(0), 40.0).unwrap();
        check(&q);
        let critical = q.drain_deadline_critical(35.0, 1.0);
        assert!(!critical.is_empty());
        check(&q);
        q.drain_all();
        check(&q);
        assert!(q.is_empty());
    }

    #[test]
    fn iter_pairs_profiles_with_packets() {
        let mut q = queues();
        q.push(packet(0, 2, 0.0, 100)).unwrap();
        let pairs: Vec<_> = q.iter().collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0.name, "Cloud");
    }

    #[test]
    fn app_count_is_the_number_of_registered_profiles() {
        assert_eq!(queues().app_count(), 3);
        assert_eq!(WaitingQueues::new(Vec::new()).app_count(), 0);
    }

    #[test]
    fn cost_breach_agrees_with_the_total_and_reads_nan_as_a_breach() {
        let mut q = queues();
        q.push(packet(0, 1, 0.0, 100)).unwrap();
        q.push(packet(1, 2, 0.0, 100)).unwrap();
        for (now_s, theta) in [(0.0, 0.1), (15.0, 0.1), (15.0, 10.0), (60.0, 1.0)] {
            let reference = q.total_cost(now_s) >= theta;
            assert_eq!(q.total_cost_breaches(now_s, theta), reference);
        }
        assert!(q.total_cost_breaches(15.0, f64::NAN));
    }
}
