//! Bounded admission control and load shedding.
//!
//! The paper's evaluation never overloads eTrain: arrivals are gentle
//! enough that the waiting queues `Q_i` stay small. A deployed scheduler
//! facing "heavy traffic from millions of users" (ROADMAP north star)
//! cannot assume that — an unbounded queue under sustained overload grows
//! without limit, and every queued packet's delay cost keeps climbing
//! toward its deadline. [`AdmissionConfig`] bounds the backlog and
//! [`ShedPolicy`] decides what gives way when the bound is hit:
//!
//! - **reject-new** — the arriving packet is shed (never enqueued);
//! - **drop-lowest-value** — the queued packet with the lowest
//!   instantaneous delay cost is shed to make room;
//! - **force-flush-oldest** — the oldest queued packet is released for
//!   immediate transmission (not lost, just no longer deferred).
//!
//! [`AdmissionConfig::make_room`] is the one place that checks the bounds
//! and picks the victim. Both the live runtime (`etrain-core`) and the
//! simulator's [`GuardedScheduler`](crate::GuardedScheduler) call it and
//! keep only their own bookkeeping (journal event, counter, typed
//! outcome), so an overload policy tuned in simulation carries over
//! verbatim.

use etrain_trace::packets::Packet;
use etrain_trace::CargoAppId;
use serde::{Deserialize, Serialize};

use crate::api::Scheduler;
use crate::etrain::ETrainScheduler;

/// What to do with an arrival that would push a waiting queue past its
/// configured capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ShedPolicy {
    /// Shed the arriving packet; the existing backlog is untouched.
    #[default]
    RejectNew,
    /// Shed the queued packet with the lowest instantaneous delay cost
    /// (the cheapest one to lose), then admit the arrival.
    DropLowestValue,
    /// Release the oldest queued packet for immediate transmission (a
    /// forced flush — it is transmitted, not lost), then admit the
    /// arrival.
    ForceFlushOldest,
}

impl std::fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedPolicy::RejectNew => write!(f, "reject-new"),
            ShedPolicy::DropLowestValue => write!(f, "drop-lowest-value"),
            ShedPolicy::ForceFlushOldest => write!(f, "force-flush-oldest"),
        }
    }
}

/// What [`AdmissionConfig::make_room`] did so an arrival may enter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Room {
    /// No bound trips; the arrival enters as is.
    Free,
    /// A bound trips and nothing gives way: the arrival is shed. This is
    /// reject-new, or an evicting policy that found no victim.
    Full,
    /// Drop-lowest-value shed this queued packet; the arrival enters.
    Evicted(Packet),
    /// Force-flush-oldest released this queued packet for immediate
    /// transmission; the arrival enters.
    Flushed(Packet),
}

/// Queue-capacity bounds plus the policy applied when they are hit.
///
/// The default is unbounded (no capacity, policy irrelevant), which
/// reproduces the paper's behaviour bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct AdmissionConfig {
    /// Maximum packets deferred across all apps; `None` is unbounded.
    pub global_capacity: Option<usize>,
    /// Maximum packets deferred per cargo app; `None` is unbounded.
    pub per_app_capacity: Option<usize>,
    /// What gives way when a capacity is hit.
    pub policy: ShedPolicy,
}

impl AdmissionConfig {
    /// No bounds at all — every submission is admitted (the paper's
    /// implicit configuration).
    pub fn unbounded() -> Self {
        AdmissionConfig::default()
    }

    /// Bounds the total deferred backlog across all apps.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity (a queue that can hold nothing cannot
    /// defer anything, which is the baseline scheduler, not admission
    /// control).
    pub fn with_global_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "global capacity must be at least 1");
        self.global_capacity = Some(capacity);
        self
    }

    /// Bounds the deferred backlog of each cargo app independently.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity.
    pub fn with_per_app_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "per-app capacity must be at least 1");
        self.per_app_capacity = Some(capacity);
        self
    }

    /// Selects the shed policy applied at capacity.
    pub fn with_policy(mut self, policy: ShedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Whether no capacity is configured (admission always succeeds).
    pub fn is_unbounded(&self) -> bool {
        self.global_capacity.is_none() && self.per_app_capacity.is_none()
    }

    /// Whether admitting one more packet, given the current global and
    /// per-app backlog sizes, would exceed a configured capacity.
    fn would_overflow(&self, global_pending: usize, app_pending: usize) -> bool {
        self.global_capacity.is_some_and(|c| global_pending >= c)
            || self.per_app_capacity.is_some_and(|c| app_pending >= c)
    }

    /// Whether the *per-app* bound specifically is the one that trips for
    /// a backlog of `app_pending`.
    fn app_overflow(&self, app_pending: usize) -> bool {
        self.per_app_capacity.is_some_and(|c| app_pending >= c)
    }

    /// Makes room in `scheduler`'s waiting queues for one arrival of
    /// `app` at `now_s`, applying the shed policy when a bound trips.
    ///
    /// When the per-app bound tripped, the victim comes from the violating
    /// app: a global victim would admit the arrival with that bound still
    /// exceeded.
    pub fn make_room(&self, scheduler: &mut ETrainScheduler, app: CargoAppId, now_s: f64) -> Room {
        let app_pending = scheduler.pending_for(app);
        if !self.would_overflow(scheduler.pending(), app_pending) {
            return Room::Free;
        }
        let scoped = self.app_overflow(app_pending);
        let queues = scheduler.queues_mut();
        match self.policy {
            ShedPolicy::RejectNew => Room::Full,
            ShedPolicy::DropLowestValue => {
                let victim = if scoped {
                    queues.evict_lowest_value_in(app, now_s)
                } else {
                    queues.evict_lowest_value(now_s)
                };
                victim.map_or(Room::Full, Room::Evicted)
            }
            ShedPolicy::ForceFlushOldest => {
                let oldest = if scoped {
                    queues.pop_oldest_in(app)
                } else {
                    queues.pop_oldest()
                };
                oldest.map_or(Room::Full, Room::Flushed)
            }
        }
    }

    /// Checks invariants on a config deserialized from JSON (which
    /// bypasses the builder panics).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.global_capacity == Some(0) {
            return Err("global capacity must be at least 1".into());
        }
        if self.per_app_capacity == Some(0) {
            return Err("per-app capacity must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbounded_and_never_overflows() {
        let cfg = AdmissionConfig::default();
        assert!(cfg.is_unbounded());
        assert!(!cfg.would_overflow(usize::MAX, usize::MAX));
        assert_eq!(cfg.policy, ShedPolicy::RejectNew);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn global_capacity_trips_at_bound() {
        let cfg = AdmissionConfig::unbounded().with_global_capacity(3);
        assert!(!cfg.would_overflow(2, 2));
        assert!(cfg.would_overflow(3, 0));
        assert!(!cfg.is_unbounded());
    }

    #[test]
    fn per_app_capacity_trips_independently() {
        let cfg = AdmissionConfig::unbounded().with_per_app_capacity(2);
        assert!(!cfg.would_overflow(100, 1));
        assert!(cfg.would_overflow(0, 2));
    }

    #[test]
    fn either_bound_trips() {
        let cfg = AdmissionConfig::unbounded()
            .with_global_capacity(10)
            .with_per_app_capacity(4);
        assert!(cfg.would_overflow(10, 0));
        assert!(cfg.would_overflow(5, 4));
        assert!(!cfg.would_overflow(9, 3));
    }

    #[test]
    fn zero_capacities_rejected() {
        let bad = AdmissionConfig {
            global_capacity: Some(0),
            ..AdmissionConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = AdmissionConfig {
            per_app_capacity: Some(0),
            ..AdmissionConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_global_capacity_panics() {
        let _ = AdmissionConfig::unbounded().with_global_capacity(0);
    }

    #[test]
    #[should_panic(expected = "per-app capacity must be at least 1")]
    fn zero_per_app_capacity_panics() {
        let _ = AdmissionConfig::unbounded().with_per_app_capacity(0);
    }

    #[test]
    fn policy_display_and_serde() {
        assert_eq!(ShedPolicy::RejectNew.to_string(), "reject-new");
        assert_eq!(ShedPolicy::DropLowestValue.to_string(), "drop-lowest-value");
        assert_eq!(
            ShedPolicy::ForceFlushOldest.to_string(),
            "force-flush-oldest"
        );
        let cfg = AdmissionConfig::unbounded()
            .with_global_capacity(5)
            .with_policy(ShedPolicy::DropLowestValue);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: AdmissionConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn app_overflow_ignores_the_global_bound() {
        let cfg = AdmissionConfig::unbounded()
            .with_global_capacity(2)
            .with_per_app_capacity(5);
        assert!(cfg.would_overflow(2, 0));
        assert!(
            !cfg.app_overflow(4),
            "the global bound tripped, not the app's"
        );
        assert!(cfg.app_overflow(5));
        assert!(!AdmissionConfig::unbounded().app_overflow(usize::MAX));
    }
}
