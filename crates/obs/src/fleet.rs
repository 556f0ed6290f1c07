//! Aggregated fleet metrics: the mergeable per-shard tallies and the
//! serializable population snapshot.
//!
//! A fleet run shards 10⁵–10⁶ devices across workers. Determinism is the
//! non-negotiable part: floating-point addition is association-sensitive,
//! so summing within shards and then merging the partial sums would give a
//! result that depends on the shard partition. The fleet runner therefore
//! does **not** build its canonical tally from per-shard partials —
//! workers return per-device *columns*, the coordinator reassembles them
//! by shard index, and [`FleetTally`] is folded serially over the
//! reassembled columns in device order. That fold is identical for 1 and
//! N workers by construction (the journal merge in this crate achieves
//! serial/parallel identity the same way: canonical order first, fold
//! second).
//!
//! [`FleetTally::merge`] still exists for aggregation where the partition
//! *is* the definition — e.g. summing fixed per-class tallies into a fleet
//! overview for display. Its integer fields and extrema are exact under
//! any partition; its `f64` sums are exact only over the partial sums it
//! is given.
//!
//! The percentile fields of [`ClassSnapshot`] are *not* mergeable — they
//! are computed once, at the end, from the fleet's column store (see the
//! fleet crate); this module only defines the serializable shape.

use serde::{Deserialize, Serialize};

/// Mergeable aggregate of one set of devices (a shard, a class, or the
/// whole fleet): pure sums, counts and extrema, folded in device order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetTally {
    /// Devices folded into this tally.
    pub devices: u64,
    /// Cargo packets completed across those devices.
    pub packets_completed: u64,
    /// Cargo packets unfinished at each device's horizon.
    pub packets_unfinished: u64,
    /// Heartbeats transmitted across those devices.
    pub heartbeats_sent: u64,
    /// Sum of per-device radio energy above idle (transmission + tail), J.
    pub extra_energy_j: f64,
    /// Sum of per-device total energy (extra + idle baseline), J.
    pub total_energy_j: f64,
    /// Sum of per-device normalized delays, in seconds (divide by
    /// `devices` for the population mean of the per-device means).
    pub delay_sum_s: f64,
    /// Smallest per-device extra energy seen, J (`+∞` when empty).
    pub min_extra_j: f64,
    /// Largest per-device extra energy seen, J (`-∞` when empty).
    pub max_extra_j: f64,
}

impl FleetTally {
    /// The empty tally (identity of [`FleetTally::merge`]).
    pub fn empty() -> FleetTally {
        FleetTally {
            devices: 0,
            packets_completed: 0,
            packets_unfinished: 0,
            heartbeats_sent: 0,
            extra_energy_j: 0.0,
            total_energy_j: 0.0,
            delay_sum_s: 0.0,
            min_extra_j: f64::INFINITY,
            max_extra_j: f64::NEG_INFINITY,
        }
    }

    /// Folds one device's results into the tally.
    #[allow(clippy::too_many_arguments)]
    pub fn absorb_device(
        &mut self,
        extra_energy_j: f64,
        total_energy_j: f64,
        normalized_delay_s: f64,
        packets_completed: u64,
        packets_unfinished: u64,
        heartbeats_sent: u64,
    ) {
        self.devices += 1;
        self.packets_completed += packets_completed;
        self.packets_unfinished += packets_unfinished;
        self.heartbeats_sent += heartbeats_sent;
        self.extra_energy_j += extra_energy_j;
        self.total_energy_j += total_energy_j;
        self.delay_sum_s += normalized_delay_s;
        self.min_extra_j = self.min_extra_j.min(extra_energy_j);
        self.max_extra_j = self.max_extra_j.max(extra_energy_j);
    }

    /// Merges `other` into `self`: counts, extrema and partial sums
    /// combine exactly, but the `f64` sums inherit the association of the
    /// partition — merging shard partials is *not* bit-identical to a
    /// serial device-order fold. Canonical fleet tallies are therefore
    /// folded from reassembled columns (see module docs); `merge` is for
    /// aggregation over a fixed, meaningful partition such as per-class
    /// tallies.
    pub fn merge(&mut self, other: &FleetTally) {
        self.devices += other.devices;
        self.packets_completed += other.packets_completed;
        self.packets_unfinished += other.packets_unfinished;
        self.heartbeats_sent += other.heartbeats_sent;
        self.extra_energy_j += other.extra_energy_j;
        self.total_energy_j += other.total_energy_j;
        self.delay_sum_s += other.delay_sum_s;
        self.min_extra_j = self.min_extra_j.min(other.min_extra_j);
        self.max_extra_j = self.max_extra_j.max(other.max_extra_j);
    }

    /// Population mean of per-device extra energy, J (0 when empty).
    pub fn mean_extra_j(&self) -> f64 {
        if self.devices > 0 {
            self.extra_energy_j / self.devices as f64
        } else {
            0.0
        }
    }

    /// Population mean of per-device normalized delay, s (0 when empty).
    pub fn mean_delay_s(&self) -> f64 {
        if self.devices > 0 {
            self.delay_sum_s / self.devices as f64
        } else {
            0.0
        }
    }
}

impl Default for FleetTally {
    fn default() -> Self {
        FleetTally::empty()
    }
}

/// One behavior class's slice of a fleet snapshot: its tally plus the
/// percentile distribution of per-device extra energy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSnapshot {
    /// The behavior class label (`active`, `moderate`, `inactive`).
    pub class: String,
    /// The class's mergeable aggregate.
    pub tally: FleetTally,
    /// Mean per-device extra energy, J.
    pub mean_extra_j: f64,
    /// Median per-device extra energy, J.
    pub p50_extra_j: f64,
    /// 95th-percentile per-device extra energy, J.
    pub p95_extra_j: f64,
    /// 99th-percentile per-device extra energy, J.
    pub p99_extra_j: f64,
}

/// The serializable summary of one whole fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// The scheduler the fleet ran (display form, with knob values).
    pub scheduler: String,
    /// Devices simulated.
    pub devices: u64,
    /// Shards the population was split into.
    pub shards: u64,
    /// Worker threads that executed the shards.
    pub workers: u64,
    /// Wall-clock seconds for the whole fleet.
    pub wall_s: f64,
    /// The headline: devices simulated per wall-clock second.
    pub devices_per_s: f64,
    /// Fleet-wide aggregate (shard-order merge of all shard tallies).
    pub fleet: FleetTally,
    /// Per-class breakdown, in [`Activeness::all`] order
    /// (active, moderate, inactive); classes with zero devices are kept
    /// with empty tallies so the shape is fixed.
    ///
    /// [`Activeness::all`]: https://docs.rs/etrain-trace
    pub classes: Vec<ClassSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally_of(devices: &[(f64, f64, f64)]) -> FleetTally {
        let mut t = FleetTally::empty();
        for &(extra, total, delay) in devices {
            t.absorb_device(extra, total, delay, 3, 1, 7);
        }
        t
    }

    #[test]
    fn merge_is_exact_on_counts_extrema_and_partial_sums() {
        let devices: Vec<(f64, f64, f64)> = (0..100)
            .map(|i| {
                let x = f64::from(i);
                (x * 0.1 + 0.01, x * 0.2 + 5.0, x * 0.001)
            })
            .collect();
        let serial = tally_of(&devices);
        let mut merged = FleetTally::empty();
        let mut partial_extra = 0.0f64;
        for shard in devices.chunks(7) {
            let t = tally_of(shard);
            partial_extra += t.extra_energy_j;
            merged.merge(&t);
        }
        // Counts and extrema are partition-independent.
        assert_eq!(serial.devices, merged.devices);
        assert_eq!(serial.packets_completed, merged.packets_completed);
        assert_eq!(serial.heartbeats_sent, merged.heartbeats_sent);
        assert_eq!(serial.min_extra_j, merged.min_extra_j);
        assert_eq!(serial.max_extra_j, merged.max_extra_j);
        // The f64 sums are exact over the partials merge was given — the
        // association of the partition, not the device-order fold. (This
        // is exactly why the fleet runner folds its canonical tally over
        // reassembled columns instead of merging shard tallies.)
        assert_eq!(partial_extra.to_bits(), merged.extra_energy_j.to_bits());
        assert!((serial.extra_energy_j - merged.extra_energy_j).abs() < 1e-9);
    }

    #[test]
    fn empty_tally_is_merge_identity_and_safe_means() {
        let mut t = tally_of(&[(2.0, 10.0, 0.5)]);
        let before = t;
        t.merge(&FleetTally::empty());
        assert_eq!(t, before);
        let empty = FleetTally::empty();
        assert_eq!(empty.mean_extra_j(), 0.0);
        assert_eq!(empty.mean_delay_s(), 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = FleetSnapshot {
            scheduler: "eTrain(Θ=20, k=20)".to_owned(),
            devices: 100,
            shards: 4,
            workers: 2,
            wall_s: 0.5,
            devices_per_s: 200.0,
            fleet: tally_of(&[(1.0, 2.0, 0.1), (3.0, 4.0, 0.2)]),
            classes: vec![ClassSnapshot {
                class: "active".to_owned(),
                tally: tally_of(&[(1.0, 2.0, 0.1)]),
                mean_extra_j: 1.0,
                p50_extra_j: 1.0,
                p95_extra_j: 1.0,
                p99_extra_j: 1.0,
            }],
        };
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: FleetSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
    }
}
