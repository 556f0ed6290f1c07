//! Fault injection: seeded, serializable descriptions of channel and
//! train-app misbehaviour.
//!
//! The paper's evaluation assumes a cooperative world — every scheduled
//! transmission lands, every heartbeat departs, the train apps never die.
//! Real IM infrastructure is lossier: uploads fail mid-transfer, keepalives
//! get eaten by NAT boxes, and the user force-stops WeChat. A [`FaultPlan`]
//! captures that misbehaviour as data so any experiment can be re-run under
//! identical faults:
//!
//! - **bandwidth outages** — windows where the channel carries nothing, on
//!   top of whatever the [`BandwidthTrace`] says;
//! - **per-transmission loss** — each transfer attempt independently fails
//!   with probability `loss_probability`, *after* burning its energy;
//! - **heartbeat drops** — individual train departures that never happen;
//! - **train deaths** — windows in which every train app is down, the
//!   condition of paper Sec. V-3 ("when no train app is running, eTrain
//!   will stop its scheduler to avoid cargo apps' indefinite waiting").
//!
//! All stochastic decisions are pure functions of `(plan.seed, identity)`,
//! so a plan is deterministic, composable with any bandwidth source, and
//! round-trips through serde.

use crate::bandwidth::BandwidthTrace;
use crate::heartbeats::Heartbeat;
use serde::{Deserialize, Serialize};

/// A half-open time window `[start_s, end_s)` during which a fault holds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// Window start, seconds (inclusive).
    pub start_s: f64,
    /// Window end, seconds (exclusive).
    pub end_s: f64,
}

impl FaultWindow {
    /// A validated window; panics on `start_s < 0`, `end_s <= start_s`, or
    /// non-finite endpoints.
    pub fn new(start_s: f64, end_s: f64) -> Self {
        assert!(
            start_s.is_finite() && end_s.is_finite(),
            "fault window endpoints must be finite"
        );
        assert!(start_s >= 0.0, "fault window must start at t >= 0");
        assert!(end_s > start_s, "fault window must have positive length");
        FaultWindow { start_s, end_s }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_s && t < self.end_s
    }
}

/// A seeded, serializable fault schedule, composable with any bandwidth
/// source. `FaultPlan::none()` is the identity: injecting it reproduces a
/// fault-free run bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for all stochastic fault decisions (loss, drops).
    pub seed: u64,
    /// Probability in `[0, 1]` that any single transfer attempt fails.
    pub loss_probability: f64,
    /// Probability in `[0, 1]` that any single heartbeat never departs.
    pub heartbeat_drop_probability: f64,
    /// Windows during which the channel carries no data at all.
    pub outages: Vec<FaultWindow>,
    /// Windows during which every train app is dead (no heartbeats, and
    /// liveness monitors see silence); each window's end is a restart.
    pub train_deaths: Vec<FaultWindow>,
    /// Times at which an oracle-violation alarm is injected: the engine
    /// delivers each to [`Scheduler::on_oracle_violation`] at the first
    /// slot boundary at or after the alarm time, exercising the
    /// degradation ladder without corrupting the run itself.
    ///
    /// [`Scheduler::on_oracle_violation`]: https://docs.rs/etrain-sched
    pub oracle_alarms: Vec<f64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The fault-free plan. Guaranteed to be a strict no-op: every query
    /// short-circuits before touching floating point, so a run with
    /// `FaultPlan::none()` is bit-for-bit identical to one with no fault
    /// layer at all.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            loss_probability: 0.0,
            heartbeat_drop_probability: 0.0,
            outages: Vec::new(),
            train_deaths: Vec::new(),
            oracle_alarms: Vec::new(),
        }
    }

    /// A plan with the given seed and no faults; use the builder methods to
    /// add them.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the per-attempt transmission loss probability (`[0, 1]`).
    pub fn with_loss(mut self, probability: f64) -> Self {
        assert!(
            probability.is_finite() && (0.0..=1.0).contains(&probability),
            "loss probability must be in [0, 1]"
        );
        self.loss_probability = probability;
        self
    }

    /// Sets the per-heartbeat drop probability (`[0, 1]`).
    pub fn with_heartbeat_drops(mut self, probability: f64) -> Self {
        assert!(
            probability.is_finite() && (0.0..=1.0).contains(&probability),
            "heartbeat drop probability must be in [0, 1]"
        );
        self.heartbeat_drop_probability = probability;
        self
    }

    /// Adds a bandwidth outage window.
    pub fn with_outage(mut self, start_s: f64, end_s: f64) -> Self {
        self.outages.push(FaultWindow::new(start_s, end_s));
        self
    }

    /// Adds a train-death window: all train apps die at `start_s` and
    /// restart at `end_s`.
    pub fn with_train_death(mut self, start_s: f64, end_s: f64) -> Self {
        self.train_deaths.push(FaultWindow::new(start_s, end_s));
        self
    }

    /// Injects an oracle-violation alarm at `at_s`; the engine delivers it
    /// to the scheduler at the first slot boundary at or after that time.
    pub fn with_oracle_alarm(mut self, at_s: f64) -> Self {
        assert!(
            at_s.is_finite() && at_s >= 0.0,
            "oracle alarm time must be finite and non-negative"
        );
        self.oracle_alarms.push(at_s);
        self
    }

    /// Adds periodic outages: every `period_s` seconds starting at
    /// `first_start_s`, the channel goes dark for `duration_s` seconds,
    /// until `horizon_s`. Handy for duty-cycle sweeps.
    pub fn with_periodic_outages(
        mut self,
        first_start_s: f64,
        duration_s: f64,
        period_s: f64,
        horizon_s: f64,
    ) -> Self {
        assert!(period_s > duration_s, "outage period must exceed duration");
        assert!(duration_s > 0.0, "outage duration must be positive");
        let mut start = first_start_s;
        while start < horizon_s {
            self.outages
                .push(FaultWindow::new(start, (start + duration_s).min(horizon_s)));
            start += period_s;
        }
        self
    }

    /// Checks a plan's invariants — useful for plans deserialized from
    /// JSON, which bypass the builder's asserts.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("loss_probability", self.loss_probability),
            (
                "heartbeat_drop_probability",
                self.heartbeat_drop_probability,
            ),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        for (name, windows) in [
            ("outages", &self.outages),
            ("train_deaths", &self.train_deaths),
        ] {
            for w in windows.iter() {
                if !(w.start_s.is_finite() && w.end_s.is_finite() && w.start_s >= 0.0) {
                    return Err(format!("{name} window {w:?} has invalid endpoints"));
                }
                if w.end_s <= w.start_s {
                    return Err(format!("{name} window {w:?} has non-positive length"));
                }
            }
        }
        for &t in &self.oracle_alarms {
            if !(t.is_finite() && t >= 0.0) {
                return Err(format!(
                    "oracle alarm time must be finite and non-negative, got {t}"
                ));
            }
        }
        Ok(())
    }

    /// Whether the plan injects nothing — the fast path the simulator uses
    /// to keep fault-free runs bit-for-bit identical to the seed engine.
    pub fn is_noop(&self) -> bool {
        self.loss_probability <= 0.0
            && self.heartbeat_drop_probability <= 0.0
            && self.outages.is_empty()
            && self.train_deaths.is_empty()
            && self.oracle_alarms.is_empty()
    }

    /// Whether the transfer attempt `attempt` (1-based) of packet
    /// `packet_id` is lost. Deterministic in `(seed, packet_id, attempt)`.
    pub fn loses_transmission(&self, packet_id: u64, attempt: u32) -> bool {
        if self.loss_probability <= 0.0 {
            return false;
        }
        hash_unit(self.seed, packet_id, u64::from(attempt)) < self.loss_probability
    }

    /// Whether the `index`-th heartbeat of the run is dropped (never
    /// departs). Deterministic in `(seed, index)`.
    pub fn drops_heartbeat(&self, index: u64) -> bool {
        if self.heartbeat_drop_probability <= 0.0 {
            return false;
        }
        hash_unit(self.seed, 0x4845_4152_5442_4541, index) < self.heartbeat_drop_probability
    }

    /// Whether all train apps are dead at time `t`.
    pub fn trains_dead_at(&self, t: f64) -> bool {
        self.train_deaths.iter().any(|w| w.contains(t))
    }

    /// The next time strictly after `t` at which
    /// [`FaultPlan::trains_dead_at`] can change value: the earliest
    /// death-window start or end past `t` (windows are half-open, so
    /// those are the only candidates). `None` means liveness is constant
    /// from `t` onward. Lets callers that poll liveness on a fine grid —
    /// the event kernel's quiescent-slot batching — hoist the per-sample
    /// window scan out of their hot loop.
    pub fn next_train_death_boundary(&self, t: f64) -> Option<f64> {
        self.train_deaths
            .iter()
            .flat_map(|w| [w.start_s, w.end_s])
            .filter(|&b| b > t)
            .reduce(f64::min)
    }

    /// Applies heartbeat drops and train-death windows to a departure
    /// schedule: beats inside a death window or selected by the drop coin
    /// vanish. Drop decisions are indexed by position in `heartbeats`, so
    /// the same plan over the same schedule removes the same beats.
    pub fn apply_to_heartbeats(&self, heartbeats: &[Heartbeat]) -> Vec<Heartbeat> {
        heartbeats
            .iter()
            .enumerate()
            .filter(|(i, hb)| !self.trains_dead_at(hb.time_s) && !self.drops_heartbeat(*i as u64))
            .map(|(_, hb)| *hb)
            .collect()
    }

    /// Transfer time for `size_bytes` starting at `start_s` over `trace`,
    /// with outage windows carrying zero bits. Without outages this is
    /// exactly `trace.transfer_time_s` (same arithmetic, bit-for-bit).
    pub fn transfer_time_s(&self, trace: &BandwidthTrace, start_s: f64, size_bytes: u64) -> f64 {
        if self.outages.is_empty() {
            return trace.transfer_time_s(start_s, size_bytes);
        }
        let mut remaining_bits = size_bytes as f64 * 8.0;
        if remaining_bits <= 0.0 {
            return 0.0;
        }
        let mut t = start_s.max(0.0);
        // Walk the outage windows in time order, transferring over the gaps.
        let mut windows: Vec<FaultWindow> = self.outages.clone();
        windows.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        for w in &windows {
            if w.end_s <= t {
                continue;
            }
            if w.start_s > t {
                // Clear air until the window opens: does the transfer finish?
                let capacity = trace.bits_transferred(t, w.start_s);
                if remaining_bits <= capacity {
                    return t - start_s.max(0.0) + trace.transfer_time_for_bits(t, remaining_bits);
                }
                remaining_bits -= capacity;
            }
            // Stalled until the outage lifts.
            t = w.end_s;
        }
        t - start_s.max(0.0) + trace.transfer_time_for_bits(t, remaining_bits)
    }
}

/// A deterministic hash of `(seed, a, b)` mapped to a uniform `f64` in
/// `[0, 1)`. This is the single source of randomness for fault decisions
/// (and for retry jitter in `etrain-core`), so identical plans make
/// identical choices regardless of evaluation order.
pub fn hash_unit(seed: u64, a: u64, b: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(a)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(b);
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    // Top 53 bits → uniform in [0, 1).
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heartbeats::{synthesize, TrainAppSpec};
    use crate::TrainAppId;

    fn flat_trace(bps: f64) -> BandwidthTrace {
        BandwidthTrace::new(1.0, vec![bps; 100])
    }

    #[test]
    fn none_is_noop_and_loses_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_noop());
        for id in 0..100 {
            assert!(!plan.loses_transmission(id, 1));
            assert!(!plan.drops_heartbeat(id));
        }
        assert!(!plan.trains_dead_at(12.5));
        assert!(plan.outages.is_empty());
    }

    #[test]
    fn next_train_death_boundary_walks_every_liveness_edge() {
        let plan = FaultPlan::none()
            .with_train_death(100.0, 200.0)
            .with_train_death(150.0, 400.0);
        // Boundaries are window starts and ends, strictly after `t`.
        assert_eq!(plan.next_train_death_boundary(0.0), Some(100.0));
        assert_eq!(plan.next_train_death_boundary(100.0), Some(150.0));
        assert_eq!(plan.next_train_death_boundary(150.0), Some(200.0));
        assert_eq!(plan.next_train_death_boundary(200.0), Some(400.0));
        assert_eq!(plan.next_train_death_boundary(400.0), None);
        assert_eq!(FaultPlan::none().next_train_death_boundary(0.0), None);
        // Liveness is constant on every open interval between
        // consecutive boundaries — the property the event kernel's
        // batching leans on.
        let mut t = 0.0;
        while let Some(next) = plan.next_train_death_boundary(t) {
            let mid = (t + next) / 2.0;
            assert_eq!(
                plan.trains_dead_at(t),
                plan.trains_dead_at(mid),
                "liveness changed inside ({t}, {next})"
            );
            t = next;
        }
    }

    #[test]
    fn noop_transfer_time_matches_trace_exactly() {
        let plan = FaultPlan::seeded(7);
        let trace = crate::bandwidth::wuhan_drive_synthetic(3);
        for &(start, size) in &[(0.0, 1_000u64), (13.7, 250_000), (7199.0, 4_096)] {
            let a = plan.transfer_time_s(&trace, start, size);
            let b = trace.transfer_time_s(start, size);
            assert_eq!(a.to_bits(), b.to_bits(), "bit-for-bit at ({start}, {size})");
        }
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let plan = FaultPlan::seeded(42).with_loss(0.3);
        let lost = (0..10_000)
            .filter(|&id| plan.loses_transmission(id, 1))
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "empirical loss rate {rate}");
    }

    #[test]
    fn loss_is_deterministic_and_attempt_sensitive() {
        let plan = FaultPlan::seeded(9).with_loss(0.5);
        for id in 0..50 {
            for attempt in 1..4 {
                assert_eq!(
                    plan.loses_transmission(id, attempt),
                    plan.loses_transmission(id, attempt)
                );
            }
        }
        // Different attempts of the same packet flip independent coins.
        let flips: Vec<bool> = (1..20).map(|a| plan.loses_transmission(3, a)).collect();
        assert!(flips.iter().any(|&b| b) && flips.iter().any(|&b| !b));
    }

    #[test]
    fn outage_stalls_transfer() {
        let plan = FaultPlan::seeded(1).with_outage(5.0, 15.0);
        let trace = flat_trace(8_000.0); // 1 KB/s
                                         // 2 KB starting at t=4: 1 s clear air (1 KB), 10 s outage, 1 s more.
        let t = plan.transfer_time_s(&trace, 4.0, 2_000);
        assert!((t - 12.0).abs() < 1e-9, "got {t}");
        // Entirely before the outage: unaffected.
        let t2 = plan.transfer_time_s(&trace, 0.0, 2_000);
        assert!((t2 - 2.0).abs() < 1e-9, "got {t2}");
        // Starting inside the outage: waits for it to lift.
        let t3 = plan.transfer_time_s(&trace, 10.0, 1_000);
        assert!((t3 - 6.0).abs() < 1e-9, "got {t3}");
    }

    #[test]
    fn overlapping_and_unsorted_outages_compose() {
        let plan = FaultPlan::seeded(1)
            .with_outage(20.0, 30.0)
            .with_outage(5.0, 12.0)
            .with_outage(10.0, 15.0);
        let trace = flat_trace(8_000.0);
        // 8 KB from t=0: 5 s air (5 KB), merged stall to 15, 3 KB in 3 s.
        let t = plan.transfer_time_s(&trace, 0.0, 8_000);
        assert!((t - 18.0).abs() < 1e-9, "got {t}");
        // 12 KB from t=0: 5 s air, stall to 15, 5 s air, stall to 30, 2 s.
        let t2 = plan.transfer_time_s(&trace, 0.0, 12_000);
        assert!((t2 - 32.0).abs() < 1e-9, "got {t2}");
    }

    #[test]
    fn bits_transferred_inverts_transfer_time() {
        let trace = crate::bandwidth::wuhan_drive_synthetic(11);
        for &(start, size) in &[(3.2, 40_000u64), (100.0, 1_000_000)] {
            let dt = trace.transfer_time_s(start, size);
            let bits = trace.bits_transferred(start, start + dt);
            assert!(
                (bits - size as f64 * 8.0).abs() < 1.0,
                "expected {} bits, got {bits}",
                size as f64 * 8.0
            );
        }
        assert_eq!(trace.bits_transferred(5.0, 5.0), 0.0);
        assert_eq!(trace.bits_transferred(9.0, 3.0), 0.0);
    }

    #[test]
    fn heartbeat_filtering_respects_death_windows_and_drops() {
        let specs = vec![TrainAppSpec {
            name: "t".into(),
            pattern: crate::heartbeats::CyclePattern::Fixed { cycle_s: 10.0 },
            heartbeat_size_bytes: 100,
            phase_s: 0.0,
            jitter_s: 0.0,
        }];
        let beats = synthesize(&specs, 100.0, 5);
        let n = beats.len();
        assert!(n >= 9);

        let death = FaultPlan::seeded(0).with_train_death(25.0, 55.0);
        let kept = death.apply_to_heartbeats(&beats);
        assert!(kept.len() < n);
        assert!(kept.iter().all(|hb| !death.trains_dead_at(hb.time_s)));

        let drops = FaultPlan::seeded(3).with_heartbeat_drops(1.0);
        assert!(drops.apply_to_heartbeats(&beats).is_empty());

        let none = FaultPlan::none();
        assert_eq!(none.apply_to_heartbeats(&beats), beats);
        let _ = TrainAppId(0);
    }

    #[test]
    fn periodic_outages_cover_the_horizon() {
        let plan = FaultPlan::seeded(0).with_periodic_outages(10.0, 5.0, 60.0, 200.0);
        assert_eq!(plan.outages.len(), 4);
        let in_outage = |t| plan.outages.iter().any(|w| w.contains(t));
        assert!(in_outage(12.0));
        assert!(!in_outage(16.0));
        assert!(in_outage(131.0));
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan::seeded(99)
            .with_loss(0.25)
            .with_heartbeat_drops(0.05)
            .with_outage(10.0, 20.0)
            .with_train_death(500.0, 900.0);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // Decisions survive the round trip too.
        for id in 0..32 {
            assert_eq!(
                plan.loses_transmission(id, 2),
                back.loses_transmission(id, 2)
            );
        }
    }

    #[test]
    fn oracle_alarms_break_noop_and_round_trip() {
        let plan = FaultPlan::seeded(1).with_oracle_alarm(30.0);
        assert!(!plan.is_noop());
        assert!(plan.validate().is_ok());
        // The alarm schedule survives a serde round trip.
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        // Invalid alarm times are caught by validate.
        let mut bad = FaultPlan::none();
        bad.oracle_alarms.push(f64::NAN);
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "alarm time")]
    fn negative_alarm_time_panics() {
        let _ = FaultPlan::none().with_oracle_alarm(-1.0);
    }

    #[test]
    fn hash_unit_is_uniformish() {
        let mean = (0..10_000).map(|i| hash_unit(1, i, 0)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((0..100).all(|i| {
            let u = hash_unit(2, i, i);
            (0.0..1.0).contains(&u)
        }));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_panics() {
        let _ = FaultPlan::none().with_loss(1.5);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn inverted_window_panics() {
        let _ = FaultWindow::new(10.0, 10.0);
    }
}
