//! Retry policy: exponential backoff with jitter, bounded attempts, and
//! deadline-aware give-up.
//!
//! When a released transmission fails (see `etrain-trace::faults`), the
//! energy it burned is already spent — blindly re-transmitting a packet
//! that keeps failing turns the paper's energy savings negative. The
//! [`RetryPolicy`] bounds that waste: delays grow exponentially per
//! attempt (capped), a jitter fraction decorrelates retry storms, and a
//! packet whose *age* (time since original arrival) would exceed
//! `give_up_age_s` by its next attempt is abandoned instead — an explicit
//! terminal state the metrics layer reports as `packets_abandoned`.

use serde::{Deserialize, Serialize};

/// What to do with a packet after a failed transfer attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryDecision {
    /// Try again after waiting this many seconds.
    RetryAfter(f64),
    /// Stop retrying: the packet enters the `abandoned` terminal state.
    Abandon,
}

/// Exponential backoff with jitter, bounded attempts, and deadline-aware
/// give-up.
///
/// The undelayed backoff before attempt `n + 1` (after `n` failures) is
/// `min(base_backoff_s * backoff_factor^(n-1), max_backoff_s)`; jitter
/// scales it by `1 + jitter_frac * (u - 0.5)` for a uniform `u` in
/// `[0, 1)` supplied by the caller (the simulator derives `u` from the
/// fault plan's seed so runs stay deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Backoff before the second attempt, in seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied per further failed attempt (≥ 1).
    pub backoff_factor: f64,
    /// Upper bound on any single backoff delay, in seconds.
    pub max_backoff_s: f64,
    /// Fraction of the delay randomized by jitter, in `[0, 1]`.
    pub jitter_frac: f64,
    /// Failed attempts after which the packet is abandoned.
    pub max_attempts: u32,
    /// A packet older than this (since original arrival) at its *next*
    /// attempt is abandoned rather than retried.
    pub give_up_age_s: f64,
}

impl Default for RetryPolicy {
    /// 2 s base doubling to a 60 s cap, ±5% jitter, six attempts, ten
    /// minutes of patience.
    fn default() -> Self {
        RetryPolicy {
            base_backoff_s: 2.0,
            backoff_factor: 2.0,
            max_backoff_s: 60.0,
            jitter_frac: 0.1,
            max_attempts: 6,
            give_up_age_s: 600.0,
        }
    }
}

impl RetryPolicy {
    /// Checks the policy's invariants, returning a description of the
    /// first violation.
    ///
    /// # Errors
    ///
    /// Returns `Err` when any field is non-finite or out of range.
    pub fn validate(&self) -> Result<(), String> {
        let finite_at_least = |value: f64, floor: f64| value.is_finite() && value >= floor;
        crate::first_failure(&[
            (
                self.base_backoff_s.is_finite() && self.base_backoff_s > 0.0,
                "base_backoff_s must be positive and finite",
            ),
            (
                finite_at_least(self.backoff_factor, 1.0),
                "backoff_factor must be >= 1",
            ),
            (
                finite_at_least(self.max_backoff_s, self.base_backoff_s),
                "max_backoff_s must be >= base_backoff_s",
            ),
            (
                self.jitter_frac.is_finite() && (0.0..=1.0).contains(&self.jitter_frac),
                "jitter_frac must be in [0, 1]",
            ),
            (self.max_attempts > 0, "max_attempts must be at least 1"),
            (
                self.give_up_age_s.is_finite() && self.give_up_age_s > 0.0,
                "give_up_age_s must be positive and finite",
            ),
        ])
    }

    /// The undelayed (jitter-free) backoff after `failed_attempts` ≥ 1
    /// failures: `min(base * factor^(n-1), max)`. Monotone non-decreasing
    /// in `failed_attempts` and bounded by `max_backoff_s`.
    pub fn backoff_s(&self, failed_attempts: u32) -> f64 {
        debug_assert!(failed_attempts >= 1);
        // Clamp the exponent before the i32 cast: attempt counts past
        // 2^31 would wrap negative and collapse the delay to ~0. The
        // clamped power overflows to +inf at worst, which min() absorbs.
        let exp = failed_attempts.saturating_sub(1).min(i32::MAX as u32) as i32;
        (self.base_backoff_s * self.backoff_factor.powi(exp)).min(self.max_backoff_s)
    }

    /// The jittered backoff: `backoff_s(n) * (1 + jitter_frac * (u - 0.5))`
    /// for `jitter_unit` = `u` uniform in `[0, 1)`.
    pub fn jittered_backoff_s(&self, failed_attempts: u32, jitter_unit: f64) -> f64 {
        debug_assert!((0.0..1.0).contains(&jitter_unit) || self.jitter_frac == 0.0);
        self.backoff_s(failed_attempts) * (1.0 + self.jitter_frac * (jitter_unit - 0.5))
    }

    /// Decides the fate of a packet that just failed its
    /// `failed_attempts`-th attempt at `now_s`, having originally arrived
    /// at `arrival_s`. Abandons when attempts are exhausted or when the
    /// packet's age at its next attempt would exceed `give_up_age_s`
    /// (deadline-aware give-up); otherwise schedules a jittered retry.
    pub fn decide(
        &self,
        failed_attempts: u32,
        now_s: f64,
        arrival_s: f64,
        jitter_unit: f64,
    ) -> RetryDecision {
        if failed_attempts >= self.max_attempts {
            return RetryDecision::Abandon;
        }
        let delay = self.jittered_backoff_s(failed_attempts, jitter_unit);
        if now_s + delay - arrival_s > self.give_up_age_s {
            return RetryDecision::Abandon;
        }
        RetryDecision::RetryAfter(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        RetryPolicy::default().validate().unwrap();
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let policy = RetryPolicy::default();
        let mut prev = 0.0;
        for n in 1..20 {
            let d = policy.backoff_s(n);
            assert!(d >= prev, "monotone at attempt {n}");
            assert!(d <= policy.max_backoff_s);
            prev = d;
        }
        assert_eq!(policy.backoff_s(1), 2.0);
        assert_eq!(policy.backoff_s(2), 4.0);
        assert_eq!(policy.backoff_s(10), 60.0);
    }

    #[test]
    fn jitter_stays_within_band() {
        let policy = RetryPolicy::default();
        for i in 0..100 {
            let u = i as f64 / 100.0;
            let d = policy.jittered_backoff_s(3, u);
            let base = policy.backoff_s(3);
            assert!(
                d >= base * 0.95 && d <= base * 1.05,
                "got {d} for base {base}"
            );
        }
        let no_jitter = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(no_jitter.jittered_backoff_s(3, 0.9), no_jitter.backoff_s(3));
    }

    #[test]
    fn decide_abandons_on_exhausted_attempts() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.decide(6, 10.0, 0.0, 0.5), RetryDecision::Abandon);
        assert!(matches!(
            policy.decide(1, 10.0, 0.0, 0.5),
            RetryDecision::RetryAfter(_)
        ));
    }

    #[test]
    fn decide_abandons_past_give_up_age() {
        let policy = RetryPolicy {
            give_up_age_s: 100.0,
            ..RetryPolicy::default()
        };
        // Age at next attempt would be 99 + 2 = 101 > 100.
        assert_eq!(policy.decide(1, 99.0, 0.0, 0.5), RetryDecision::Abandon);
        // Age 50 + 2 = 52: fine.
        assert!(matches!(
            policy.decide(1, 50.0, 0.0, 0.5),
            RetryDecision::RetryAfter(_)
        ));
    }

    #[test]
    fn validate_rejects_bad_fields() {
        let bad = |f: fn(&mut RetryPolicy)| {
            let mut p = RetryPolicy::default();
            f(&mut p);
            p.validate().unwrap_err()
        };
        assert!(bad(|p| p.base_backoff_s = 0.0).contains("base_backoff_s"));
        assert!(bad(|p| p.backoff_factor = 0.5).contains("backoff_factor"));
        assert!(bad(|p| p.max_backoff_s = 0.1).contains("max_backoff_s"));
        assert!(bad(|p| p.jitter_frac = 2.0).contains("jitter_frac"));
        assert!(bad(|p| p.max_attempts = 0).contains("max_attempts"));
        assert!(bad(|p| p.give_up_age_s = f64::NAN).contains("give_up_age_s"));
    }

    #[test]
    fn serde_round_trip() {
        let policy = RetryPolicy {
            give_up_age_s: 270.0,
            ..RetryPolicy::default()
        };
        let json = serde_json::to_string(&policy).unwrap();
        let back: RetryPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(policy, back);
    }
}
