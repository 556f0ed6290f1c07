//! Typed metrics: counters, gauges, histograms, and the snapshot that
//! lands in `RunReport` / `BENCH_repro.json`.
//!
//! # Absent vs. zero
//!
//! A metric that was never observed is **absent**, not zero: a run with
//! no transmissions has no tail-utilization ratio (dividing by zero
//! transmissions), which is different from a run whose transmissions all
//! missed the tail (utilization `0.0`). Snapshot fields that can be
//! undefined are therefore `Option`s, `None` is *omitted* from the JSON
//! encoding entirely (the skip-if-absent convention), and readers treat a
//! missing key as "not measured", never as `0.0`. Counters, by contrast,
//! are always well-defined and serialize even when zero.

use serde::{Deserialize, Serialize, Value};

/// A monotonically increasing event count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A point-in-time measured quantity.
///
/// A gauge distinguishes "never set" from "set to zero" — see the
/// module-level *absent vs. zero* convention.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Gauge {
    value: Option<f64>,
}

impl Gauge {
    /// Overwrites the gauge with a measurement.
    pub fn set(&mut self, value: f64) {
        self.value = Some(value);
    }

    /// The last measurement, or `None` if never set.
    pub fn get(&self) -> Option<f64> {
        self.value
    }
}

/// A fixed-bound histogram over `f64` observations.
///
/// Bucket `i` counts observations `<= bounds[i]`; one implicit overflow
/// bucket counts the rest. Bounds are chosen at construction and never
/// rebalanced, so two runs with the same bounds are directly comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// A histogram with the given ascending upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; buckets],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations, or `None` when nothing was observed
    /// (absent, not zero).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Largest observation, or `None` when nothing was observed.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

/// The live registry an instrumented run fills in; call
/// [`MetricsRegistry::snapshot`] at the end of the run to freeze it into
/// a serializable [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    /// Heartbeats that departed.
    pub heartbeats: Counter,
    /// Transmissions that started (cargo bursts and heartbeats alike).
    pub tx_starts: Counter,
    /// Transmissions that started while the radio was out of IDLE.
    pub tail_reuses: Counter,
    /// Piggyback decisions evaluated.
    pub decisions: Counter,
    /// Packets released by piggyback decisions.
    pub releases: Counter,
    /// Retry attempts (including the final abandoning one).
    pub retries: Counter,
    /// Packets shed by admission control.
    pub sheds: Counter,
    /// Packets force-flushed by admission control.
    pub forced_flushes: Counter,
    /// Health-ladder transitions.
    pub health_transitions: Counter,
    /// RRC state transitions on the audited timeline.
    pub rrc_transitions: Counter,
    /// Energy attributed to time spent in IDLE, in joules.
    pub energy_idle_j: Gauge,
    /// Energy attributed to time spent in FACH, in joules.
    pub energy_fach_j: Gauge,
    /// Energy attributed to time spent in DCH, in joules.
    pub energy_dch_j: Gauge,
    /// Queue depth observed at each piggyback decision.
    pub queue_depth: Histogram,
}

impl MetricsRegistry {
    /// A registry with the standard queue-depth buckets.
    pub fn new() -> Self {
        MetricsRegistry {
            heartbeats: Counter::default(),
            tx_starts: Counter::default(),
            tail_reuses: Counter::default(),
            decisions: Counter::default(),
            releases: Counter::default(),
            retries: Counter::default(),
            sheds: Counter::default(),
            forced_flushes: Counter::default(),
            health_transitions: Counter::default(),
            rrc_transitions: Counter::default(),
            energy_idle_j: Gauge::default(),
            energy_fach_j: Gauge::default(),
            energy_dch_j: Gauge::default(),
            queue_depth: Histogram::with_bounds(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
        }
    }

    /// Freezes the registry into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            heartbeats: self.heartbeats.get(),
            tx_starts: self.tx_starts.get(),
            tail_reuses: self.tail_reuses.get(),
            decisions: self.decisions.get(),
            releases: self.releases.get(),
            retries: self.retries.get(),
            sheds: self.sheds.get(),
            forced_flushes: self.forced_flushes.get(),
            health_transitions: self.health_transitions.get(),
            rrc_transitions: self.rrc_transitions.get(),
            energy_idle_j: self.energy_idle_j.get(),
            energy_fach_j: self.energy_fach_j.get(),
            energy_dch_j: self.energy_dch_j.get(),
            tail_utilization: if self.tx_starts.get() == 0 {
                None
            } else {
                Some(self.tail_reuses.get() as f64 / self.tx_starts.get() as f64)
            },
            mean_queue_depth: self.queue_depth.mean(),
            max_queue_depth: self.queue_depth.max(),
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// A frozen, serializable view of a [`MetricsRegistry`].
///
/// Counters always serialize (zero is meaningful for them); `Option`
/// fields are **omitted** from the JSON object when `None`, per the
/// module-level *absent vs. zero* convention, and deserialize back to
/// `None` when the key is missing.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct MetricsSnapshot {
    /// Heartbeats that departed.
    pub heartbeats: u64,
    /// Transmissions that started.
    pub tx_starts: u64,
    /// Transmissions that re-used a tail (started out of IDLE).
    pub tail_reuses: u64,
    /// Piggyback decisions evaluated.
    pub decisions: u64,
    /// Packets released by piggyback decisions.
    pub releases: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Packets shed.
    pub sheds: u64,
    /// Packets force-flushed.
    pub forced_flushes: u64,
    /// Health-ladder transitions.
    pub health_transitions: u64,
    /// RRC state transitions.
    pub rrc_transitions: u64,
    /// Energy attributed to IDLE time, joules; absent if not measured.
    pub energy_idle_j: Option<f64>,
    /// Energy attributed to FACH time, joules; absent if not measured.
    pub energy_fach_j: Option<f64>,
    /// Energy attributed to DCH time, joules; absent if not measured.
    pub energy_dch_j: Option<f64>,
    /// `tail_reuses / tx_starts`; absent when nothing was transmitted.
    pub tail_utilization: Option<f64>,
    /// Mean queue depth at decision time; absent without decisions.
    pub mean_queue_depth: Option<f64>,
    /// Max queue depth at decision time; absent without decisions.
    pub max_queue_depth: Option<f64>,
}

impl MetricsSnapshot {
    /// Sum of the per-RRC-state energy gauges, or `None` if none of them
    /// was measured. Cross-checked against `RunReport::total_energy_j` by
    /// the conformance tests.
    pub fn energy_total_j(&self) -> Option<f64> {
        match (self.energy_idle_j, self.energy_fach_j, self.energy_dch_j) {
            (None, None, None) => None,
            (idle, fach, dch) => {
                Some(idle.unwrap_or(0.0) + fach.unwrap_or(0.0) + dch.unwrap_or(0.0))
            }
        }
    }
}

// Hand-written so that `None` fields are omitted from the object rather
// than encoded as `null` (the vendored serde_derive has no
// `skip_serializing_if`); pairs with the derived `Deserialize`, which
// maps missing keys back to `None`.
impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = vec![
            ("heartbeats".into(), self.heartbeats.to_value()),
            ("tx_starts".into(), self.tx_starts.to_value()),
            ("tail_reuses".into(), self.tail_reuses.to_value()),
            ("decisions".into(), self.decisions.to_value()),
            ("releases".into(), self.releases.to_value()),
            ("retries".into(), self.retries.to_value()),
            ("sheds".into(), self.sheds.to_value()),
            ("forced_flushes".into(), self.forced_flushes.to_value()),
            (
                "health_transitions".into(),
                self.health_transitions.to_value(),
            ),
            ("rrc_transitions".into(), self.rrc_transitions.to_value()),
        ];
        let optional: [(&str, Option<f64>); 6] = [
            ("energy_idle_j", self.energy_idle_j),
            ("energy_fach_j", self.energy_fach_j),
            ("energy_dch_j", self.energy_dch_j),
            ("tail_utilization", self.tail_utilization),
            ("mean_queue_depth", self.mean_queue_depth),
            ("max_queue_depth", self.max_queue_depth),
        ];
        for (name, value) in optional {
            if let Some(v) = value {
                entries.push((name.into(), v.to_value()));
            }
        }
        Value::Object(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::default();
        assert_eq!(g.get(), None);
        g.set(0.0);
        assert_eq!(g.get(), Some(0.0));
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::with_bounds(vec![1.0, 10.0]);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.bucket_counts(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert!((h.mean().unwrap() - 55.5 / 3.0).abs() < 1e-12);
        assert_eq!(h.max(), Some(50.0));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_panic() {
        let _ = Histogram::with_bounds(vec![2.0, 1.0]);
    }

    #[test]
    fn snapshot_absent_fields_are_omitted_not_zero() {
        let registry = MetricsRegistry::new();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.tail_utilization, None);
        assert_eq!(snapshot.mean_queue_depth, None);
        let json = serde_json::to_string(&snapshot).unwrap();
        assert!(json.contains("\"heartbeats\":0"), "{json}");
        assert!(!json.contains("tail_utilization"), "{json}");
        assert!(!json.contains("energy_idle_j"), "{json}");
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn snapshot_present_fields_round_trip() {
        let mut registry = MetricsRegistry::new();
        registry.tx_starts.add(4);
        registry.tail_reuses.add(3);
        registry.energy_idle_j.set(1.5);
        registry.energy_fach_j.set(0.0);
        registry.energy_dch_j.set(2.5);
        registry.queue_depth.observe(2.0);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.tail_utilization, Some(0.75));
        assert_eq!(snapshot.energy_total_j(), Some(4.0));
        let json = serde_json::to_string(&snapshot).unwrap();
        assert!(json.contains("\"energy_fach_j\":0"), "{json}");
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
    }

    #[test]
    fn energy_total_absent_when_unmeasured() {
        let snapshot = MetricsRegistry::new().snapshot();
        assert_eq!(snapshot.energy_total_j(), None);
    }

    #[test]
    fn an_observation_on_a_bound_lands_in_that_bound_bucket() {
        let mut h = Histogram::with_bounds(vec![1.0, 10.0]);
        h.observe(1.0);
        h.observe(10.0);
        h.observe(10.5);
        assert_eq!(h.bucket_counts(), &[1, 1, 1]);
        assert_eq!(h.bounds(), &[1.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "at least one bound")]
    fn empty_bounds_panic() {
        let _ = Histogram::with_bounds(Vec::new());
    }
}
