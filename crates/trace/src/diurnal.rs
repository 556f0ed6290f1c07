//! Diurnal (time-of-day) workload modulation.
//!
//! The paper's 2-hour traces are stationary, but its motivating scenario —
//! apps idling in a pocket all day — is not: users post at lunch and in
//! the evening, and barely at 4 AM. Day-scale experiments (battery-life
//! projections, overnight standby studies) need a non-homogeneous arrival
//! process. This module provides a sinusoidal day profile and a thinning
//! sampler that modulates any [`CargoWorkload`].

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::packets::{CargoWorkload, Packet};
use crate::rng::{exponential, seeded};
use crate::CargoAppId;

/// Seconds in a day.
pub const DAY_S: f64 = 86_400.0;

/// A sinusoidal day-activity profile.
///
/// The instantaneous rate multiplier is
/// `1 + amplitude · cos(2π (t − peak) / day)`, so activity peaks at
/// `peak_hour` and bottoms out twelve hours away. `amplitude = 0` is the
/// stationary process; `amplitude = 1` silences the trough entirely.
///
/// # Examples
///
/// ```
/// use etrain_trace::diurnal::DiurnalProfile;
///
/// let p = DiurnalProfile::new(20.0, 0.8); // peaks at 8 PM
/// assert!((p.rate_multiplier(20.0 * 3600.0) - 1.8).abs() < 1e-9);
/// assert!((p.rate_multiplier(8.0 * 3600.0) - 0.2).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalProfile {
    peak_hour: f64,
    amplitude: f64,
}

impl DiurnalProfile {
    /// Creates a profile peaking at `peak_hour` (0–24) with the given
    /// `amplitude` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `peak_hour` is outside `[0, 24]` or `amplitude` outside
    /// `[0, 1]`.
    pub fn new(peak_hour: f64, amplitude: f64) -> Self {
        assert!(
            (0.0..=24.0).contains(&peak_hour),
            "peak hour must be within a day"
        );
        assert!(
            (0.0..=1.0).contains(&amplitude),
            "amplitude must be in [0, 1]"
        );
        DiurnalProfile {
            peak_hour,
            amplitude,
        }
    }

    /// A typical evening-heavy consumer profile: peak 8 PM, 80 % swing.
    pub fn evening_heavy() -> Self {
        DiurnalProfile::new(20.0, 0.8)
    }

    /// The instantaneous rate multiplier at `t_s` seconds since midnight
    /// (periodic beyond one day), in `[1 − amplitude, 1 + amplitude]`.
    pub fn rate_multiplier(&self, t_s: f64) -> f64 {
        let phase = (t_s - self.peak_hour * 3600.0) / DAY_S * std::f64::consts::TAU;
        1.0 + self.amplitude * phase.cos()
    }

    /// The peak multiplier (used as the thinning envelope).
    pub fn peak_multiplier(&self) -> f64 {
        1.0 + self.amplitude
    }
}

/// Generates a diurnally modulated packet trace from `workload` over
/// `[0, horizon_s)` starting at `start_hour` o'clock, via thinning: each
/// app's arrivals are drawn at its peak rate and kept with probability
/// `multiplier(t) / peak`.
///
/// Ids are dense in arrival order, like
/// [`CargoWorkload::generate`].
///
/// # Examples
///
/// ```
/// use etrain_trace::diurnal::{generate_diurnal, DiurnalProfile};
/// use etrain_trace::packets::CargoWorkload;
///
/// let workload = CargoWorkload::paper_default(0.08);
/// let packets = generate_diurnal(&workload, DiurnalProfile::evening_heavy(),
///                                0.0, 86_400.0, 7);
/// assert!(!packets.is_empty());
/// ```
pub fn generate_diurnal(
    workload: &CargoWorkload,
    profile: DiurnalProfile,
    start_hour: f64,
    horizon_s: f64,
    seed: u64,
) -> Vec<Packet> {
    let mut rng = seeded(seed);
    let peak = profile.peak_multiplier();
    let offset_s = start_hour * 3600.0;
    let mut packets = Vec::new();
    for (i, spec) in workload.specs().iter().enumerate() {
        // Thinning: sample at the envelope rate, accept proportionally.
        let envelope_interarrival = spec.mean_interarrival_s / peak;
        let mut t = exponential(&mut rng, envelope_interarrival);
        while t < horizon_s {
            let accept = profile.rate_multiplier(offset_s + t) / peak;
            if rng.gen_bool(accept.clamp(0.0, 1.0)) {
                packets.push(Packet {
                    id: 0,
                    app: CargoAppId(i),
                    arrival_s: t,
                    size_bytes: spec.size.sample(&mut rng).round().max(1.0) as u64,
                });
            }
            t += exponential(&mut rng, envelope_interarrival);
        }
    }
    packets.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    for (i, p) in packets.iter_mut().enumerate() {
        p.id = i as u64;
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_spans_the_advertised_range() {
        let p = DiurnalProfile::new(12.0, 0.5);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for h in 0..24 {
            let m = p.rate_multiplier(h as f64 * 3600.0);
            lo = lo.min(m);
            hi = hi.max(m);
        }
        assert!((lo - 0.5).abs() < 0.01);
        assert!((hi - 1.5).abs() < 0.01);
    }

    #[test]
    fn zero_amplitude_matches_stationary_rate() {
        let workload = CargoWorkload::paper_default(0.08);
        let flat = DiurnalProfile::new(12.0, 0.0);
        let packets = generate_diurnal(&workload, flat, 0.0, 50_000.0, 3);
        let expected = 0.08 * 50_000.0;
        let n = packets.len() as f64;
        assert!(
            (n - expected).abs() / expected < 0.1,
            "{n} vs expected {expected}"
        );
    }

    #[test]
    fn peak_hours_carry_more_traffic_than_trough_hours() {
        let workload = CargoWorkload::paper_default(0.08);
        let profile = DiurnalProfile::evening_heavy();
        let packets = generate_diurnal(&workload, profile, 0.0, DAY_S, 5);
        let count_in = |from_h: f64, to_h: f64| {
            packets
                .iter()
                .filter(|p| p.arrival_s >= from_h * 3600.0 && p.arrival_s < to_h * 3600.0)
                .count()
        };
        let evening = count_in(18.0, 22.0);
        let early = count_in(6.0, 10.0);
        assert!(
            evening > 2 * early,
            "evening {evening} should dwarf early morning {early}"
        );
    }

    #[test]
    fn output_is_sorted_with_dense_ids() {
        let workload = CargoWorkload::paper_default(0.08);
        let packets = generate_diurnal(&workload, DiurnalProfile::evening_heavy(), 9.0, 7200.0, 6);
        assert!(packets.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.id, i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "amplitude must be in")]
    fn excessive_amplitude_rejected() {
        let _ = DiurnalProfile::new(12.0, 1.5);
    }

    #[test]
    fn peak_multiplier_bounds_the_rate_and_is_reached_at_the_peak_hour() {
        let p = DiurnalProfile::evening_heavy();
        assert_eq!(p.peak_multiplier(), 1.8);
        assert!((p.rate_multiplier(20.0 * 3600.0) - p.peak_multiplier()).abs() < 1e-12);
        for minute in 0..(24 * 60) {
            assert!(p.rate_multiplier(minute as f64 * 60.0) <= p.peak_multiplier());
        }
    }

    #[test]
    fn the_multiplier_repeats_every_day_and_bottoms_out_twelve_hours_after_the_peak() {
        let profile = DiurnalProfile::new(6.0, 0.5);
        for t_s in [0.0, 3_600.0, 50_000.0] {
            let today = profile.rate_multiplier(t_s);
            let tomorrow = profile.rate_multiplier(t_s + DAY_S);
            assert!((today - tomorrow).abs() < 1e-12, "{today} vs {tomorrow}");
        }
        assert!((profile.rate_multiplier(6.0 * 3_600.0) - 1.5).abs() < 1e-12);
        assert!((profile.rate_multiplier(18.0 * 3_600.0) - 0.5).abs() < 1e-12);
    }
}
