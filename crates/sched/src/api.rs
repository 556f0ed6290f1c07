//! The common scheduler interface, driven by the simulation engine
//! (`etrain-sim`) and by the eTrain core that the daemon runs
//! (`etrain-core`).

use etrain_trace::packets::Packet;
use etrain_trace::CargoAppId;

/// Error produced by scheduler operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerError {
    /// A packet referenced a cargo app that was never registered.
    UnknownApp {
        /// The unknown app id.
        app: CargoAppId,
    },
}

impl std::fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerError::UnknownApp { app } => {
                write!(f, "packet references unregistered cargo app {app}")
            }
        }
    }
}

impl std::error::Error for SchedulerError {}

/// Everything a scheduler may observe at a slot boundary.
///
/// The fields deliberately mirror what each algorithm is *allowed* to know
/// in the paper's comparison:
///
/// - eTrain reads `heartbeat_departing` (from the Heartbeat Monitor) and
///   `trains_alive`, and ignores bandwidth — the paper argues channel
///   obliviousness is an advantage (Sec. IV);
/// - PerES and eTime read `predicted_bandwidth_bps` — a *noisy* estimate
///   (the simulator supplies the previous slot's average), modelling the
///   difficulty of instantaneous channel prediction;
/// - the baseline reads nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotContext {
    /// The slot's start time in seconds.
    pub now_s: f64,
    /// Whether at least one train-app heartbeat departs at this slot.
    pub heartbeat_departing: bool,
    /// The (noisy) bandwidth estimate available to prediction-based
    /// schedulers, in bits per second.
    pub predicted_bandwidth_bps: f64,
    /// Whether any train app is still alive. When false, eTrain stops
    /// deferring to avoid indefinite waiting (paper Sec. V-3).
    pub trains_alive: bool,
}

/// A transmission scheduler: decides *when* queued cargo packets are
/// released to the FIFO transmission queue `Q_TX`.
///
/// Driving contract (upheld by `etrain-sim` and `etrain-core`):
///
/// 1. [`Scheduler::on_arrival`] is called once per packet, at its arrival
///    time; the return value is any packets to transmit immediately.
/// 2. [`Scheduler::on_slot`] is called at slot boundaries spaced
///    [`Scheduler::slot_s`] apart, with time monotonically increasing
///    across calls; the return value joins `Q_TX` in order. A caller may
///    leave out a boundary the scheduler has certified inert
///    ([`Scheduler::slot_quiescent`], [`Scheduler::quiet_through`]), since
///    the call would have been a no-op.
/// 3. A packet is returned exactly once (schedulers own their queues).
pub trait Scheduler: std::fmt::Debug + Send {
    /// The scheduler's display name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Offers an arriving packet. Returns packets to release immediately
    /// (the baseline strategy); deferring schedulers enqueue and return
    /// nothing.
    ///
    /// # Errors
    ///
    /// Implementations return [`SchedulerError::UnknownApp`] for packets of
    /// unregistered apps.
    fn on_arrival(&mut self, packet: Packet, now_s: f64) -> Result<Vec<Packet>, SchedulerError>;

    /// Slot boundary at `ctx.now_s`: returns the packets selected for
    /// transmission in this slot.
    fn on_slot(&mut self, ctx: &SlotContext) -> Vec<Packet>;

    /// Failure feedback: `packet` was released for transmission but the
    /// transfer failed, and the retry layer has decided to try again. The
    /// scheduler re-admits it — crucially keeping the packet's *original*
    /// `arrival_s`, so its delay cost φ_u(t − t_a) keeps growing and
    /// Algorithm 1's greedy rule prioritises it correctly on re-decision.
    ///
    /// The default delegates to [`Scheduler::on_arrival`], which is correct
    /// for every built-in scheduler: each treats the re-offered packet as a
    /// queued packet with its historical arrival time.
    ///
    /// # Errors
    ///
    /// Implementations return [`SchedulerError::UnknownApp`] for packets of
    /// unregistered apps.
    fn on_tx_failure(&mut self, packet: Packet, now_s: f64) -> Result<Vec<Packet>, SchedulerError> {
        self.on_arrival(packet, now_s)
    }

    /// The slot length this scheduler operates on, in seconds (1 s for
    /// eTrain and PerES, 60 s for eTime — paper Sec. VI-A).
    fn slot_s(&self) -> f64 {
        1.0
    }

    /// Whether a slot call with `heartbeat_departing = false` and the
    /// given `trains_alive` would be a **complete no-op** right now: no
    /// packets released, no internal state changed, no observability
    /// events buffered — for *any* `now_s` and bandwidth estimate. The
    /// event kernel uses this certificate to skip inert slot boundaries
    /// in bulk; a scheduler that over-claims quiescence breaks the
    /// slot/event differential guarantee, so the default is the always
    /// safe `false` (never skip).
    ///
    /// Implementations must only consult state that slot calls could
    /// change: if `slot_quiescent` returns `true`, it must keep returning
    /// `true` (for the same `trains_alive`) until an arrival, retry, or
    /// heartbeat-flagged slot intervenes.
    fn slot_quiescent(&self, _trains_alive: bool) -> bool {
        false
    }

    /// Whether every heartbeat-free slot call from now through the slot at
    /// `at_s`, with the given `trains_alive`, would be a complete no-op in
    /// the sense of [`Scheduler::slot_quiescent`]. The event kernel asks
    /// this for the last slot before the next arrival, retry, heartbeat or
    /// other blocker, and retires every slot up to it when the answer is
    /// `true`.
    ///
    /// `true` for some `at_s` must imply `true` for every earlier slot
    /// time while no arrival, retry or heartbeat-flagged slot intervenes:
    /// the kernel relies on that to search for the first slot that is not
    /// a no-op. The default answers [`Scheduler::slot_quiescent`], which
    /// holds for all times alike.
    fn quiet_through(&self, _at_s: f64, trains_alive: bool) -> bool {
        self.slot_quiescent(trains_alive)
    }

    /// Alarm feedback: an invariant monitor (the simulation oracle, or an
    /// external health check) observed a violation at `now_s`. Resilient
    /// schedulers demote themselves; the default ignores the alarm, which
    /// is correct for the paper's unguarded algorithms.
    fn on_oracle_violation(&mut self, _now_s: f64) {}

    /// The degradation-ladder transitions recorded so far, in time order.
    /// Non-degrading schedulers report none.
    fn health_transitions(&self) -> Vec<crate::health::HealthTransition> {
        Vec::new()
    }

    /// Drains the packets this scheduler shed under admission control
    /// (each is a terminal outcome: the packet was never, and will never
    /// be, released). Non-shedding schedulers return none.
    fn take_shed(&mut self) -> Vec<Packet> {
        Vec::new()
    }

    /// Packets released early by the force-flush-oldest shed policy
    /// (these packets *are* transmitted; the count is bookkeeping).
    fn forced_flushes(&self) -> usize {
        0
    }

    /// Selects between the cached hot decision path (`false`, the
    /// default) and a retained from-scratch reference recompute (`true`)
    /// where a scheduler keeps both. The two paths are bit-for-bit
    /// interchangeable; the reference exists as the equivalence oracle.
    /// The default ignores the request, which is correct for schedulers
    /// with a single path.
    fn set_reference_decisions(&mut self, _reference: bool) {}

    /// Turns structured-event buffering on or off. While enabled, the
    /// scheduler buffers one [`etrain_obs::Event`] per observable decision
    /// for the driver to drain via [`Scheduler::take_obs_events`]. The
    /// default ignores the request, which is correct for schedulers that
    /// emit nothing.
    fn set_obs_enabled(&mut self, _enabled: bool) {}

    /// Drains the `(time_s, event)` pairs buffered since the last drain,
    /// in decision order. Drivers call this after every `on_arrival` /
    /// `on_slot` / `on_tx_failure` so events land in the journal in
    /// causal order. Non-instrumented schedulers return none.
    fn take_obs_events(&mut self) -> Vec<(f64, etrain_obs::Event)> {
        Vec::new()
    }

    /// Number of packets currently deferred.
    fn pending(&self) -> usize;

    /// Total bytes currently deferred.
    fn pending_bytes(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let err = SchedulerError::UnknownApp { app: CargoAppId(3) };
        assert_eq!(
            err.to_string(),
            "packet references unregistered cargo app cargo#3"
        );
    }

    /// A scheduler that implements only the required methods: it holds
    /// every packet until a heartbeat slot.
    #[derive(Debug, Default)]
    struct Hold {
        queue: Vec<Packet>,
        arrivals: Vec<f64>,
    }

    impl Scheduler for Hold {
        fn name(&self) -> &'static str {
            "Hold"
        }

        fn on_arrival(
            &mut self,
            packet: Packet,
            now_s: f64,
        ) -> Result<Vec<Packet>, SchedulerError> {
            if packet.app != CargoAppId(0) {
                return Err(SchedulerError::UnknownApp { app: packet.app });
            }
            self.arrivals.push(now_s);
            self.queue.push(packet);
            Ok(Vec::new())
        }

        fn on_slot(&mut self, ctx: &SlotContext) -> Vec<Packet> {
            if ctx.heartbeat_departing {
                std::mem::take(&mut self.queue)
            } else {
                Vec::new()
            }
        }

        fn pending(&self) -> usize {
            self.queue.len()
        }

        fn pending_bytes(&self) -> u64 {
            self.queue.iter().map(|p| p.size_bytes).sum()
        }
    }

    fn packet(app: usize) -> Packet {
        Packet {
            id: 1,
            app: CargoAppId(app),
            arrival_s: 2.0,
            size_bytes: 300,
        }
    }

    #[test]
    fn a_failed_transmission_is_offered_again_as_an_arrival_by_default() {
        let mut s = Hold::default();
        assert_eq!(s.on_tx_failure(packet(0), 9.0), Ok(Vec::new()));
        assert_eq!(s.arrivals, [9.0]);
        assert_eq!((s.pending(), s.pending_bytes()), (1, 300));
        assert_eq!(
            s.on_tx_failure(packet(4), 10.0),
            Err(SchedulerError::UnknownApp { app: CargoAppId(4) })
        );
    }

    #[test]
    fn by_default_no_slot_is_quiescent_at_any_time() {
        let s = Hold::default();
        for trains_alive in [false, true] {
            assert!(!s.slot_quiescent(trains_alive));
            for at_s in [0.0, 1.0, 1e9] {
                assert!(!s.quiet_through(at_s, trains_alive));
            }
        }
    }

    #[test]
    fn by_default_a_scheduler_reports_no_health_shedding_flushes_or_events() {
        let mut s = Hold::default();
        s.set_obs_enabled(true);
        s.set_reference_decisions(true);
        s.on_oracle_violation(5.0);
        s.on_arrival(packet(0), 1.0).unwrap();
        assert_eq!(s.slot_s(), 1.0);
        assert!(s.health_transitions().is_empty());
        assert!(s.take_shed().is_empty());
        assert_eq!(s.forced_flushes(), 0);
        assert!(s.take_obs_events().is_empty());
        assert_eq!(s.pending(), 1, "the alarm changed nothing");
    }
}
