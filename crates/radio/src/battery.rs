//! Battery accounting: joules → battery-life terms.
//!
//! The paper frames tail waste in battery terms (Sec. II-D): "Given a
//! battery capacity of 1700 mAh with voltage 3.7 V, if the battery life is
//! 10 hours, the smartphone will spend at least 6 % of its battery
//! capacity on sending heartbeats of only one app." This module provides
//! that conversion so experiment reports can speak the same language.

use serde::{Deserialize, Serialize};

/// A battery described by capacity and nominal voltage.
///
/// # Examples
///
/// ```
/// use etrain_radio::Battery;
///
/// // The paper's reference battery: 1700 mAh at 3.7 V ≈ 22.6 kJ.
/// let battery = Battery::paper_reference();
/// assert!((battery.capacity_j() - 22_644.0).abs() < 1.0);
///
/// // One WeChat-like app sends >12 heartbeats/h; over 10 h that is
/// // ≥ 120 tails ≈ 1245 J ≈ 5.5 % of the battery — the paper's "at
/// // least 6 %" claim.
/// let fraction = battery.fraction_of_capacity(120.0 * 10.375);
/// assert!(fraction > 0.05 && fraction < 0.07);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity_mah: f64,
    voltage_v: f64,
}

impl Battery {
    /// Creates a battery of `capacity_mah` milliamp-hours at `voltage_v`
    /// volts.
    ///
    /// # Panics
    ///
    /// Panics if either value is not strictly positive.
    pub fn new(capacity_mah: f64, voltage_v: f64) -> Self {
        assert!(capacity_mah > 0.0, "capacity must be positive");
        assert!(voltage_v > 0.0, "voltage must be positive");
        Battery {
            capacity_mah,
            voltage_v,
        }
    }

    /// The paper's reference battery: 1700 mAh at 3.7 V (Sec. II-D).
    pub fn paper_reference() -> Self {
        Battery::new(1700.0, 3.7)
    }

    /// Rated capacity in milliamp-hours.
    pub fn capacity_mah(&self) -> f64 {
        self.capacity_mah
    }

    /// Nominal voltage in volts.
    pub fn voltage_v(&self) -> f64 {
        self.voltage_v
    }

    /// Total energy content in joules (`mAh · 3.6 · V`).
    pub fn capacity_j(&self) -> f64 {
        self.capacity_mah * 3.6 * self.voltage_v
    }

    /// The fraction of the battery consumed by `energy_j` joules, in
    /// `[0, ∞)` (can exceed 1 for energy beyond one charge).
    pub fn fraction_of_capacity(&self, energy_j: f64) -> f64 {
        energy_j / self.capacity_j()
    }

    /// How long `energy_j` would power the phone at the given average
    /// standby power, expressed in hours — the "hours of standby time"
    /// equivalence the paper uses for Fig. 1(a) ("roughly 10 hours of
    /// standby time").
    ///
    /// # Panics
    ///
    /// Panics if `standby_mw` is not strictly positive.
    pub fn standby_hours_equivalent(&self, energy_j: f64, standby_mw: f64) -> f64 {
        assert!(standby_mw > 0.0, "standby power must be positive");
        energy_j / (standby_mw / 1000.0) / 3600.0
    }
}

impl Default for Battery {
    fn default() -> Self {
        Battery::paper_reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_capacity_matches_paper_arithmetic() {
        let b = Battery::paper_reference();
        // 1700 mAh · 3.6 · 3.7 V = 22 644 J.
        assert!((b.capacity_j() - 22_644.0).abs() < 1e-9);
    }

    #[test]
    fn fig1a_standby_equivalence() {
        // Paper Fig. 1(a): ~2000 J of heartbeats "corresponds to roughly
        // 10 hours of standby time". That implies a ~55 mW standby draw.
        let b = Battery::paper_reference();
        let hours = b.standby_hours_equivalent(2000.0, 55.0);
        assert!((hours - 10.1).abs() < 0.2, "hours {hours}");
    }

    #[test]
    fn heartbeat_battery_share() {
        // Sec. II-D: one app, >12 heartbeats/h, 10 h battery life → ≥ 6 %.
        let b = Battery::paper_reference();
        let heartbeat_energy = 12.0 * 10.0 * 10.91; // paper's measured tail
        assert!(b.fraction_of_capacity(heartbeat_energy) >= 0.055);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Battery::new(0.0, 3.7);
    }
}
