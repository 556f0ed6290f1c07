//! Cellular uplink bandwidth traces.
//!
//! The paper drives its simulations with a real 2-hour 3G uplink trace
//! collected on December 8th 2014 while riding a bus through downtown Wuhan
//! and then walking around a university campus, sampled at 1 Hz (Sec. VI-A).
//! That trace is not published, so [`wuhan_drive_synthetic`] generates a
//! statistically comparable replacement: a log-space AR(1) process with two
//! regimes — a bus/downtown regime (lower mean, higher variance, deep fades)
//! followed by a campus-walk regime (higher mean, lower variance).

use serde::{Deserialize, Serialize};

use crate::rng::{seeded, standard_normal};

/// A uniformly sampled uplink bandwidth trace (bits per second).
///
/// Sample `i` is the average bandwidth over `[i·dt, (i+1)·dt)`. Queries
/// beyond the end of the trace return the last sample, so a simulation may
/// run slightly past the trace without panicking.
///
/// # Examples
///
/// ```
/// use etrain_trace::bandwidth::BandwidthTrace;
///
/// let trace = BandwidthTrace::new(1.0, vec![8_000.0, 16_000.0]);
/// assert_eq!(trace.bandwidth_at(0.5), 8_000.0);
/// assert_eq!(trace.bandwidth_at(99.0), 16_000.0);
/// // 1000 bytes at 8 kbps = 1 s, so a transfer starting at 0 finishes at 1.
/// assert!((trace.transfer_time_s(0.0, 1_000) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthTrace {
    dt_s: f64,
    samples_bps: Vec<f64>,
}

impl BandwidthTrace {
    /// Creates a trace with sampling interval `dt_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not strictly positive, if `samples_bps` is empty,
    /// or if any sample is non-positive or non-finite (a zero-bandwidth
    /// sample would make transfer times infinite; model outages as very low
    /// bandwidth instead).
    pub fn new(dt_s: f64, samples_bps: Vec<f64>) -> Self {
        assert!(dt_s > 0.0, "sampling interval must be positive");
        assert!(!samples_bps.is_empty(), "bandwidth trace must not be empty");
        assert!(
            samples_bps.iter().all(|&b| b.is_finite() && b > 0.0),
            "bandwidth samples must be positive and finite"
        );
        BandwidthTrace { dt_s, samples_bps }
    }

    /// Creates a constant-bandwidth trace of one sample (useful in tests
    /// and analytic comparisons).
    pub fn constant(bps: f64) -> Self {
        BandwidthTrace::new(1.0, vec![bps])
    }

    /// Sampling interval in seconds.
    pub fn dt_s(&self) -> f64 {
        self.dt_s
    }

    /// The raw samples in bits per second.
    pub fn samples_bps(&self) -> &[f64] {
        &self.samples_bps
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_bps.len()
    }

    /// Whether the trace is empty (never true — construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.samples_bps.is_empty()
    }

    /// Duration covered by the trace in seconds.
    pub fn duration_s(&self) -> f64 {
        self.dt_s * self.samples_bps.len() as f64
    }

    /// Bandwidth at time `t_s` (last sample beyond the end, first sample for
    /// negative times).
    pub fn bandwidth_at(&self, t_s: f64) -> f64 {
        let idx = if t_s <= 0.0 {
            0
        } else {
            ((t_s / self.dt_s) as usize).min(self.samples_bps.len() - 1)
        };
        self.samples_bps[idx]
    }

    /// Mean bandwidth in bits per second.
    pub fn mean_bps(&self) -> f64 {
        self.samples_bps.iter().sum::<f64>() / self.samples_bps.len() as f64
    }

    /// Time needed to push `size_bytes` bytes starting at `start_s`,
    /// integrating the piecewise-constant bandwidth, in seconds.
    ///
    /// Beyond the end of the trace the last sample's bandwidth applies
    /// indefinitely.
    pub fn transfer_time_s(&self, start_s: f64, size_bytes: u64) -> f64 {
        self.transfer_time_for_bits(start_s, size_bytes as f64 * 8.0)
    }

    /// Time needed to push `bits` bits starting at `start_s` — the
    /// fractional-precision core of [`BandwidthTrace::transfer_time_s`],
    /// used by the fault layer to resume transfers interrupted by outages.
    pub fn transfer_time_for_bits(&self, start_s: f64, bits: f64) -> f64 {
        let mut remaining_bits = bits;
        if remaining_bits <= 0.0 {
            return 0.0;
        }
        let mut t = start_s.max(0.0);
        loop {
            let idx = (t / self.dt_s) as usize;
            if idx >= self.samples_bps.len() - 1 {
                // Constant extrapolation past the trace end.
                let bps = self.samples_bps[self.samples_bps.len() - 1];
                return t - start_s.max(0.0) + remaining_bits / bps;
            }
            let sample_end = (idx as f64 + 1.0) * self.dt_s;
            let bps = self.samples_bps[idx];
            let capacity = bps * (sample_end - t);
            if remaining_bits <= capacity {
                return t - start_s.max(0.0) + remaining_bits / bps;
            }
            remaining_bits -= capacity;
            t = sample_end;
        }
    }

    /// Bits that flow through the channel over `[start_s, end_s)` —
    /// the inverse of [`BandwidthTrace::transfer_time_for_bits`]. Negative
    /// times clamp to zero; an empty or inverted interval carries no bits.
    pub fn bits_transferred(&self, start_s: f64, end_s: f64) -> f64 {
        let mut t = start_s.max(0.0);
        if end_s <= t {
            return 0.0;
        }
        let mut bits = 0.0;
        loop {
            let idx = (t / self.dt_s) as usize;
            if idx >= self.samples_bps.len() - 1 {
                let bps = self.samples_bps[self.samples_bps.len() - 1];
                return bits + bps * (end_s - t);
            }
            let sample_end = (idx as f64 + 1.0) * self.dt_s;
            let bps = self.samples_bps[idx];
            if end_s <= sample_end {
                return bits + bps * (end_s - t);
            }
            bits += bps * (sample_end - t);
            t = sample_end;
        }
    }
}

/// One regime of the synthetic bandwidth generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegimeSpec {
    /// Regime length in seconds.
    pub duration_s: f64,
    /// Median bandwidth (the AR process mean in log space maps to the
    /// median in linear space) in bits per second.
    pub median_bps: f64,
    /// Standard deviation of the stationary log-bandwidth process.
    pub sigma_log: f64,
    /// AR(1) coefficient in `[0, 1)`; higher values give slower fading.
    pub ar_coeff: f64,
}

/// Generates a bandwidth trace from a sequence of AR(1) log-normal regimes
/// at 1 Hz.
///
/// # Panics
///
/// Panics if `regimes` is empty or contains invalid parameters
/// (non-positive duration/median, `ar_coeff` outside `[0, 1)`).
pub fn generate_regimes(regimes: &[RegimeSpec], seed: u64) -> BandwidthTrace {
    assert!(!regimes.is_empty(), "at least one regime is required");
    let mut rng = seeded(seed);
    let mut samples = Vec::new();
    // Start the AR state at the first regime's median.
    let mut x = regimes[0].median_bps.ln();
    for regime in regimes {
        assert!(regime.duration_s > 0.0, "regime duration must be positive");
        assert!(regime.median_bps > 0.0, "regime median must be positive");
        assert!(
            (0.0..1.0).contains(&regime.ar_coeff),
            "AR coefficient must lie in [0, 1)"
        );
        let mu = regime.median_bps.ln();
        // Innovation variance that yields the requested stationary sigma.
        let innovation = regime.sigma_log * (1.0 - regime.ar_coeff * regime.ar_coeff).sqrt();
        let n = regime.duration_s.round() as usize;
        for _ in 0..n {
            x = mu + regime.ar_coeff * (x - mu) + innovation * standard_normal(&mut rng);
            // Floor at 8 kbps: even deep fades keep the link barely alive.
            samples.push(x.exp().max(8_000.0));
        }
    }
    BandwidthTrace::new(1.0, samples)
}

/// The reproduction's stand-in for the paper's 2-hour Wuhan drive trace:
/// one hour of bus/downtown conditions followed by one hour of campus-walk
/// conditions, 7200 one-second uplink samples.
///
/// # Examples
///
/// ```
/// use etrain_trace::bandwidth::wuhan_drive_synthetic;
///
/// let trace = wuhan_drive_synthetic(42);
/// assert_eq!(trace.len(), 7200);
/// assert!(trace.mean_bps() > 100_000.0);
/// ```
pub fn wuhan_drive_synthetic(seed: u64) -> BandwidthTrace {
    generate_regimes(
        &[
            RegimeSpec {
                duration_s: 3600.0,
                median_bps: 450_000.0,
                sigma_log: 0.65,
                ar_coeff: 0.97,
            },
            RegimeSpec {
                duration_s: 3600.0,
                median_bps: 1_100_000.0,
                sigma_log: 0.30,
                ar_coeff: 0.93,
            },
        ],
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_lookup_clamps_both_ends() {
        let t = BandwidthTrace::new(2.0, vec![10.0, 20.0, 30.0]);
        assert_eq!(t.bandwidth_at(-5.0), 10.0);
        assert_eq!(t.bandwidth_at(3.0), 20.0);
        assert_eq!(t.bandwidth_at(100.0), 30.0);
        assert_eq!(t.duration_s(), 6.0);
    }

    #[test]
    fn transfer_time_spans_samples() {
        // 1 s at 8 kbps moves 1000 B; next sample is twice as fast.
        let t = BandwidthTrace::new(1.0, vec![8_000.0, 16_000.0]);
        // 2000 bytes: 1000 in the first second, 1000 in the next 0.5 s.
        assert!((t.transfer_time_s(0.0, 2_000) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_extrapolates_past_end() {
        let t = BandwidthTrace::new(1.0, vec![8_000.0]);
        // 10 kB at 1 kB/s = 10 s, even though the trace is 1 s long, and
        // from any start, before the trace or far past it.
        for start_s in [-5.0, 0.0, 0.5, 1e6] {
            assert!(
                (t.transfer_time_s(start_s, 10_000) - 10.0).abs() < 1e-9,
                "from {start_s}"
            );
        }
    }

    #[test]
    fn transfer_time_zero_bytes_is_zero() {
        let t = BandwidthTrace::constant(100_000.0);
        assert_eq!(t.transfer_time_s(5.0, 0), 0.0);
    }

    #[test]
    fn transfer_time_mid_sample_start() {
        let t = BandwidthTrace::new(1.0, vec![8_000.0, 80_000.0]);
        // Start at 0.5: 0.5 s * 1000 B/s = 500 B, then 500 B at 10 kB/s.
        assert!((t.transfer_time_s(0.5, 1_000) - 0.55).abs() < 1e-9);
    }

    #[test]
    fn synthetic_trace_has_expected_shape() {
        let trace = wuhan_drive_synthetic(1);
        assert_eq!(trace.len(), 7200);
        let first_half: f64 = trace.samples_bps()[..3600].iter().sum::<f64>() / 3600.0;
        let second_half: f64 = trace.samples_bps()[3600..].iter().sum::<f64>() / 3600.0;
        assert!(
            second_half > first_half,
            "campus regime ({second_half}) should outpace bus regime ({first_half})"
        );
        assert!(trace.samples_bps().iter().all(|&b| b >= 8_000.0));
    }

    #[test]
    fn synthetic_trace_is_deterministic_per_seed() {
        assert_eq!(wuhan_drive_synthetic(5), wuhan_drive_synthetic(5));
        assert_ne!(wuhan_drive_synthetic(5), wuhan_drive_synthetic(6));
    }

    #[test]
    fn bus_regime_is_more_variable() {
        let trace = wuhan_drive_synthetic(3);
        let cv = |s: &[f64]| {
            let mean = s.iter().sum::<f64>() / s.len() as f64;
            let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / s.len() as f64;
            var.sqrt() / mean
        };
        let bus = cv(&trace.samples_bps()[..3600]);
        let campus = cv(&trace.samples_bps()[3600..]);
        assert!(
            bus > campus,
            "bus CV {bus} should exceed campus CV {campus}"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth trace must not be empty")]
    fn empty_trace_rejected() {
        let _ = BandwidthTrace::new(1.0, vec![]);
    }

    #[test]
    #[should_panic(expected = "bandwidth samples must be positive")]
    fn zero_sample_rejected() {
        let _ = BandwidthTrace::new(1.0, vec![1_000.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "AR coefficient")]
    fn bad_ar_coefficient_rejected() {
        let _ = generate_regimes(
            &[RegimeSpec {
                duration_s: 10.0,
                median_bps: 1_000.0,
                sigma_log: 0.1,
                ar_coeff: 1.5,
            }],
            1,
        );
    }

    #[test]
    fn statistics_of_a_stepped_trace() {
        let trace = BandwidthTrace::new(1.0, vec![100.0, 300.0, 200.0]);
        assert_eq!(trace.mean_bps(), 200.0);
        assert_eq!(trace.duration_s(), 3.0);
        assert_eq!(trace.bandwidth_at(1.5), 300.0);
    }

    #[test]
    fn transfer_time_for_bits_is_the_fractional_core_of_transfer_time_s() {
        let trace = wuhan_drive_synthetic(2);
        for (start_s, bytes) in [(0.0, 1u64), (17.3, 4_096), (3_599.9, 250_000)] {
            assert_eq!(
                trace.transfer_time_for_bits(start_s, bytes as f64 * 8.0),
                trace.transfer_time_s(start_s, bytes)
            );
        }
        // Fractions of a byte: 4 bits at 8 bit/s take half a second.
        let slow = BandwidthTrace::constant(8.0);
        assert!((slow.transfer_time_for_bits(0.0, 4.0) - 0.5).abs() < 1e-12);
    }
}
