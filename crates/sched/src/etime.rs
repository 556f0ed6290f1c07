//! Reimplementation of **eTime** [16], the paper's second comparison
//! algorithm (Sec. VI-A "Benchmark").
//!
//! The eTrain paper characterizes eTime as: Lyapunov-based, *not*
//! deadline-aware, driven on 60-second slots with a static tradeoff
//! parameter `V`, and timing transmissions to moments when the (predicted)
//! channel is good. Multi-interface selection from the original paper is
//! restricted to the cellular interface, as the eTrain paper does.
//!
//! The reimplementation makes one all-or-nothing decision per slot: the
//! whole backlog is flushed when the queue pressure outweighs the V-weighted
//! relative energy price of the current channel,
//!
//! ```text
//! transmit  ⇔  Q_bytes(t) ≥ V · B_ref / B̂(t)
//! ```
//!
//! where `B_ref` is a running mean of the observed bandwidth estimates
//! (so the threshold is `V` bytes on an average channel, smaller on a good
//! channel, larger on a bad one). Sweeping `V` traces the energy–delay
//! curve of Fig. 8(a).

use etrain_trace::packets::Packet;
use serde::{Deserialize, Serialize};

use crate::api::{Scheduler, SchedulerError, SlotContext};
use crate::queue::{AppProfile, WaitingQueues};

/// Configuration of [`ETimeScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ETimeConfig {
    /// The static tradeoff parameter `V` in bytes: the backlog needed to
    /// trigger a flush on an average channel.
    pub v_bytes: f64,
    /// Slot length in seconds (the paper drives eTime at 60 s).
    pub slot_s: f64,
}

impl Default for ETimeConfig {
    fn default() -> Self {
        ETimeConfig {
            v_bytes: 50_000.0,
            slot_s: 60.0,
        }
    }
}

impl ETimeConfig {
    /// Checks `v_bytes >= 0` and a positive slot; the error names the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        crate::first_failure(&[
            (self.v_bytes >= 0.0, "v_bytes must be non-negative"),
            (self.slot_s > 0.0, "slot length must be positive"),
        ])
    }
}

/// The eTime scheduler (see the module-level documentation above).
#[derive(Debug)]
pub struct ETimeScheduler {
    config: ETimeConfig,
    queues: WaitingQueues,
    bw_sum: f64,
    bw_count: u64,
}

impl ETimeScheduler {
    /// Creates an eTime scheduler for the registered app profiles.
    ///
    /// # Panics
    ///
    /// Panics if [`ETimeConfig::validate`] rejects the configuration.
    pub fn new(config: ETimeConfig, profiles: Vec<AppProfile>) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid eTime config: {msg}");
        }
        ETimeScheduler {
            config,
            queues: WaitingQueues::new(profiles),
            bw_sum: 0.0,
            bw_count: 0,
        }
    }
}

impl Scheduler for ETimeScheduler {
    fn name(&self) -> &'static str {
        "eTime"
    }

    fn on_arrival(&mut self, packet: Packet, _now_s: f64) -> Result<Vec<Packet>, SchedulerError> {
        self.queues.push(packet)?;
        Ok(Vec::new())
    }

    fn on_slot(&mut self, ctx: &SlotContext) -> Vec<Packet> {
        let bw = ctx.predicted_bandwidth_bps.max(1.0);
        self.bw_sum += bw;
        self.bw_count += 1;
        let b_ref = self.bw_sum / self.bw_count as f64;

        let backlog = self.queues.total_bytes() as f64;
        if backlog <= 0.0 {
            return Vec::new();
        }
        let threshold = self.config.v_bytes * b_ref / bw;
        if backlog >= threshold {
            self.queues.drain_all()
        } else {
            Vec::new()
        }
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
    use etrain_trace::CargoAppId;

    fn packet(id: u64, size: u64) -> Packet {
        Packet {
            id,
            app: CargoAppId(1),
            arrival_s: 0.0,
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

    fn scheduler(v_bytes: f64) -> ETimeScheduler {
        ETimeScheduler::new(
            ETimeConfig {
                v_bytes,
                slot_s: 60.0,
            },
            AppProfile::paper_trio(30.0),
        )
    }

    #[test]
    fn small_backlog_waits() {
        let mut s = scheduler(100_000.0);
        s.on_arrival(packet(0, 2_000), 0.0).unwrap();
        assert!(s.on_slot(&ctx(60.0, 500_000.0)).is_empty());
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn large_backlog_flushes_all() {
        let mut s = scheduler(100_000.0);
        for i in 0..3 {
            s.on_arrival(packet(i, 50_000), 0.0).unwrap();
        }
        let released = s.on_slot(&ctx(60.0, 500_000.0));
        assert_eq!(released.len(), 3);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn good_channel_lowers_the_threshold() {
        // 40 kB backlog, V = 100 kB. On an average channel it waits; when
        // the predicted channel is 4× the average, the threshold drops to
        // 25 kB and it flushes.
        let mut s = scheduler(100_000.0);
        s.on_arrival(packet(0, 40_000), 0.0).unwrap();
        // Build the reference mean with a few average slots.
        for slot in 1..=5 {
            assert!(s.on_slot(&ctx(slot as f64 * 60.0, 500_000.0)).is_empty());
        }
        let released = s.on_slot(&ctx(360.0, 2_000_000.0));
        assert_eq!(released.len(), 1);
    }

    #[test]
    fn bad_channel_raises_the_threshold() {
        let mut s = scheduler(50_000.0);
        s.on_arrival(packet(0, 60_000), 0.0).unwrap();
        for slot in 1..=5 {
            let _ = s.on_slot(&ctx(slot as f64 * 60.0, 500_000.0));
        }
        assert_eq!(s.pending(), 0, "60 kB ≥ 50 kB threshold on average channel");

        let mut s = scheduler(50_000.0);
        s.on_arrival(packet(0, 60_000), 0.0).unwrap();
        // Seed the reference with average slots but packet still queued?
        // Threshold on a 10× worse channel becomes 500 kB — it waits.
        s.bw_sum = 500_000.0 * 5.0;
        s.bw_count = 5;
        assert!(s.on_slot(&ctx(60.0, 50_000.0)).is_empty());
    }

    #[test]
    fn not_deadline_aware() {
        // A packet far past its deadline still waits if the backlog is
        // small — the behaviour the paper criticizes.
        let mut s = scheduler(1_000_000.0);
        s.on_arrival(packet(0, 500), 0.0).unwrap();
        assert!(s.on_slot(&ctx(6_000.0, 500_000.0)).is_empty());
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn zero_v_transmits_everything_each_slot() {
        let mut s = scheduler(0.0);
        s.on_arrival(packet(0, 10), 0.0).unwrap();
        assert_eq!(s.on_slot(&ctx(60.0, 500_000.0)).len(), 1);
    }

    #[test]
    fn slot_length_is_sixty_seconds() {
        assert_eq!(scheduler(1.0).slot_s(), 60.0);
    }
}
