//! Reimplementation of **PerES** [15], one of the paper's two comparison
//! algorithms (Sec. VI-A "Benchmark").
//!
//! The eTrain paper characterizes PerES as: Lyapunov-optimization based,
//! deadline-aware, operating on 1-second slots, with a *dynamic* tradeoff
//! parameter `V` that converges according to a user performance cost bound
//! `Ω` — and critically, relying on accurate estimation of instantaneous
//! wireless bandwidth to time transmissions when the channel is good.
//!
//! The reimplementation follows that characterization with a per-app
//! queue-backlog threshold weighted by the predicted channel quality: app
//! `i` flushes its pending request queue when
//!
//! ```text
//! Q_i(t) bytes  ≥  V(t) · B_ref / B̂(t)
//! ```
//!
//! (`B_ref` = running mean of the bandwidth estimates, so a
//! better-than-average predicted channel lowers the threshold), plus a hard
//! deadline guard: packets about to violate their profile deadline are
//! released unconditionally — this is what makes PerES deadline-aware where
//! eTime is not. `V(t)` adapts multiplicatively toward the cost bound `Ω`:
//! if the time-averaged queue delay-cost exceeds `Ω`, `V` decreases
//! (favoring performance); otherwise it increases (favoring energy).
//!
//! Because each app maintains and flushes its own queue on 1-second slots,
//! PerES batches less aggressively than eTime's global 60-second decision —
//! reproducing the paper's finding that eTime outperforms PerES on energy —
//! while its deadline guard keeps its violation ratio near zero.
//! `B̂(t)` is the previous slot's bandwidth, so PerES mistimes transmissions
//! whenever the channel decorrelates quickly — the weakness the eTrain
//! paper exploits in its comparison.

use etrain_trace::packets::Packet;
use etrain_trace::CargoAppId;
use serde::{Deserialize, Serialize};

use crate::api::{Scheduler, SchedulerError, SlotContext};
use crate::queue::{AppProfile, WaitingQueues};

/// Configuration of [`PerEsScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerEsConfig {
    /// The user performance cost bound Ω the dynamic `V` converges to.
    pub omega: f64,
    /// Initial value of the tradeoff parameter `V`, in bytes of per-app
    /// backlog required to flush on an average channel.
    pub v_init_bytes: f64,
    /// Lower clamp for `V`, in bytes.
    pub v_min_bytes: f64,
    /// Upper clamp for `V`, in bytes.
    pub v_max_bytes: f64,
    /// Seconds between `V` adaptation steps.
    pub adapt_period_s: f64,
    /// Slot length in seconds (the paper drives PerES at 1 s).
    pub slot_s: f64,
}

impl Default for PerEsConfig {
    fn default() -> Self {
        PerEsConfig {
            omega: 0.5,
            v_init_bytes: 20_000.0,
            v_min_bytes: 500.0,
            v_max_bytes: 2_000_000.0,
            adapt_period_s: 60.0,
            slot_s: 1.0,
        }
    }
}

impl PerEsConfig {
    /// Checks positive `v_init_bytes`, `slot_s` and `adapt_period_s`, and
    /// `v_min_bytes <= v_max_bytes`; the error names the first violation.
    pub fn validate(&self) -> Result<(), String> {
        crate::first_failure(&[
            (self.v_init_bytes > 0.0, "v_init_bytes must be positive"),
            (self.slot_s > 0.0, "slot length must be positive"),
            (self.adapt_period_s > 0.0, "adapt period must be positive"),
            (
                self.v_min_bytes <= self.v_max_bytes,
                "v_min_bytes must not exceed v_max_bytes",
            ),
        ])
    }
}

/// The PerES scheduler (see the module-level documentation above).
#[derive(Debug)]
pub struct PerEsScheduler {
    config: PerEsConfig,
    queues: WaitingQueues,
    v_bytes: f64,
    cost_accum: f64,
    cost_slots: u64,
    last_adapt_s: f64,
    bw_sum: f64,
    bw_count: u64,
}

impl PerEsScheduler {
    /// Creates a PerES scheduler for the registered app profiles.
    ///
    /// # Panics
    ///
    /// Panics if [`PerEsConfig::validate`] rejects the configuration.
    pub fn new(config: PerEsConfig, profiles: Vec<AppProfile>) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid PerES config: {msg}");
        }
        PerEsScheduler {
            v_bytes: config
                .v_init_bytes
                .clamp(config.v_min_bytes, config.v_max_bytes),
            config,
            queues: WaitingQueues::new(profiles),
            cost_accum: 0.0,
            cost_slots: 0,
            last_adapt_s: 0.0,
            bw_sum: 0.0,
            bw_count: 0,
        }
    }

    /// The current value of the dynamic tradeoff parameter `V`, in bytes.
    pub fn v_bytes(&self) -> f64 {
        self.v_bytes
    }

    fn adapt_v(&mut self, now_s: f64) {
        if now_s - self.last_adapt_s < self.config.adapt_period_s || self.cost_slots == 0 {
            return;
        }
        let avg_cost = self.cost_accum / self.cost_slots as f64;
        if avg_cost > self.config.omega {
            self.v_bytes *= 0.8; // above the bound: transmit more eagerly
        } else {
            self.v_bytes *= 1.25; // under the bound: spend the slack on energy
        }
        self.v_bytes = self
            .v_bytes
            .clamp(self.config.v_min_bytes, self.config.v_max_bytes);
        self.cost_accum = 0.0;
        self.cost_slots = 0;
        self.last_adapt_s = now_s;
    }
}

impl Scheduler for PerEsScheduler {
    fn name(&self) -> &'static str {
        "PerES"
    }

    fn on_arrival(&mut self, packet: Packet, _now_s: f64) -> Result<Vec<Packet>, SchedulerError> {
        self.queues.push(packet)?;
        Ok(Vec::new())
    }

    fn on_slot(&mut self, ctx: &SlotContext) -> Vec<Packet> {
        let now = ctx.now_s;
        self.cost_accum += self.queues.total_cost(now);
        self.cost_slots += 1;
        self.adapt_v(now);

        let bw = ctx.predicted_bandwidth_bps.max(1.0);
        self.bw_sum += bw;
        self.bw_count += 1;
        let b_ref = self.bw_sum / self.bw_count as f64;

        // Deadline guard first: PerES is deadline-aware.
        let mut released = self.queues.drain_deadline_critical(now, self.config.slot_s);

        let threshold_bytes = self.v_bytes * b_ref / bw;
        let app_count = self.queues.app_count();
        for i in 0..app_count {
            let app = CargoAppId(i);
            let backlog: u64 = self
                .queues
                .app_queue(app)
                .iter()
                .map(|p| p.size_bytes)
                .sum();
            if backlog as f64 >= threshold_bytes && backlog > 0 {
                let ids: Vec<u64> = self.queues.app_queue(app).iter().map(|p| p.id).collect();
                for id in ids {
                    released.extend(self.queues.remove(app, id));
                }
            }
        }
        released
    }

    fn slot_s(&self) -> f64 {
        self.config.slot_s
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

    fn packet(id: u64, app: usize, arrival_s: f64, size: u64) -> Packet {
        Packet {
            id,
            app: CargoAppId(app),
            arrival_s,
            size_bytes: size,
        }
    }

    fn ctx(now_s: f64, bw: f64) -> SlotContext {
        SlotContext {
            now_s,
            heartbeat_departing: false,
            predicted_bandwidth_bps: bw,
            trains_alive: true,
        }
    }

    fn scheduler(omega: f64, v_init_bytes: f64) -> PerEsScheduler {
        PerEsScheduler::new(
            PerEsConfig {
                omega,
                v_init_bytes,
                ..PerEsConfig::default()
            },
            AppProfile::paper_trio(30.0),
        )
    }

    #[test]
    fn small_backlog_is_deferred() {
        let mut s = scheduler(0.5, 100_000.0);
        s.on_arrival(packet(0, 1, 0.0, 2_000), 0.0).unwrap();
        assert!(s.on_slot(&ctx(1.0, 500_000.0)).is_empty());
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn app_backlog_above_v_flushes_that_app_only() {
        let mut s = scheduler(0.5, 10_000.0);
        for i in 0..6 {
            s.on_arrival(packet(i, 1, 0.0, 2_000), 0.0).unwrap(); // 12 kB Weibo
        }
        s.on_arrival(packet(10, 0, 0.0, 2_000), 0.0).unwrap(); // 2 kB Mail
        let released = s.on_slot(&ctx(1.0, 500_000.0));
        assert_eq!(released.len(), 6);
        assert!(released.iter().all(|p| p.app == CargoAppId(1)));
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn deadline_violations_release_unconditionally() {
        let mut s = scheduler(0.5, f64::MAX / 1e9);
        s.on_arrival(packet(0, 1, 0.0, 100), 0.0).unwrap();
        // Just before the 30 s Weibo deadline.
        let released = s.on_slot(&ctx(29.5, 1_000.0));
        assert_eq!(released.len(), 1, "deadline guard must fire");
    }

    #[test]
    fn better_predicted_bandwidth_lowers_threshold() {
        let mk = || {
            let mut s = scheduler(0.5, 10_000.0);
            s.on_arrival(packet(0, 2, 0.0, 6_000), 0.0).unwrap();
            // Seed the reference bandwidth with average slots.
            s.bw_sum = 500_000.0 * 5.0;
            s.bw_count = 5;
            s
        };
        // 6 kB < 10 kB on an average channel: wait.
        assert!(mk().on_slot(&ctx(1.0, 500_000.0)).is_empty());
        // On a 2× channel the threshold halves to 5 kB: flush.
        assert_eq!(mk().on_slot(&ctx(1.0, 1_000_000.0)).len(), 1);
    }

    #[test]
    fn v_adapts_down_under_cost_pressure() {
        let mut s = scheduler(0.01, 100_000.0);
        for i in 0..5 {
            s.on_arrival(packet(i, 1, 0.0, 100), 0.0).unwrap();
        }
        let v0 = s.v_bytes();
        for slot in 0..200 {
            let _ = s.on_slot(&ctx(slot as f64, 1_000.0));
            if s.pending() == 0 {
                s.on_arrival(packet(1000 + slot, 1, slot as f64, 100), slot as f64)
                    .unwrap();
            }
        }
        assert!(s.v_bytes() < v0, "V should fall: {} -> {}", v0, s.v_bytes());
    }

    #[test]
    fn v_rises_when_under_bound() {
        let mut s = scheduler(1_000.0, 10_000.0);
        let v0 = s.v_bytes();
        for slot in 0..200 {
            let _ = s.on_slot(&ctx(slot as f64, 500_000.0));
        }
        assert!(s.v_bytes() > v0, "V should rise: {} -> {}", v0, s.v_bytes());
    }

    #[test]
    fn conservation_no_loss_no_duplication() {
        let mut s = scheduler(0.5, 20_000.0);
        for i in 0..30 {
            s.on_arrival(packet(i, (i % 3) as usize, i as f64, 2_000), i as f64)
                .unwrap();
        }
        let mut out = Vec::new();
        for slot in 30..400 {
            out.extend(s.on_slot(&ctx(slot as f64, 500_000.0)));
        }
        let mut ids: Vec<u64> = out.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.len(), "no duplicates");
        assert_eq!(out.len() + s.pending(), 30, "no losses");
    }

    #[test]
    fn flushes_preserve_fifo_order_within_app() {
        let mut s = scheduler(0.5, 3_000.0);
        s.on_arrival(packet(0, 1, 0.0, 2_000), 0.0).unwrap();
        s.on_arrival(packet(1, 1, 1.0, 2_000), 1.0).unwrap();
        let released = s.on_slot(&ctx(2.0, 500_000.0));
        let ids: Vec<u64> = released.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
