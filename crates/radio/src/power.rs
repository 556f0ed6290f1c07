use serde::{Deserialize, Serialize};

/// A uniformly sampled device power trace, mirroring the capture produced by
/// the paper's Monsoon power monitor + PowerTool setup (Sec. VI-D, Fig. 9):
/// the monitor supplies constant 3.7 V and samples current every 0.1 s, from
/// which energy is integrated.
///
/// Samples are absolute device power in milliwatts; sample `i` covers the
/// interval `[i·dt, (i+1)·dt)`.
///
/// # Examples
///
/// ```
/// use etrain_radio::PowerTrace;
///
/// let trace = PowerTrace::new(0.5, vec![100.0, 100.0, 300.0, 300.0]);
/// assert_eq!(trace.duration_s(), 2.0);
/// assert!((trace.energy_j() - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    dt_s: f64,
    samples_mw: Vec<f64>,
}

impl PowerTrace {
    /// Creates a trace with sampling interval `dt_s` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not strictly positive.
    pub fn new(dt_s: f64, samples_mw: Vec<f64>) -> Self {
        assert!(dt_s > 0.0, "sampling interval must be positive");
        PowerTrace { dt_s, samples_mw }
    }

    /// Sampling interval in seconds.
    pub fn dt_s(&self) -> f64 {
        self.dt_s
    }

    /// The power samples in milliwatts.
    pub fn samples_mw(&self) -> &[f64] {
        &self.samples_mw
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_mw.len()
    }

    /// Whether the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples_mw.is_empty()
    }

    /// Total duration covered by the trace in seconds.
    pub fn duration_s(&self) -> f64 {
        self.dt_s * self.samples_mw.len() as f64
    }

    /// Integrated energy (rectangle rule) in joules.
    pub fn energy_j(&self) -> f64 {
        self.samples_mw.iter().sum::<f64>() * self.dt_s / 1000.0
    }

    /// Iterates over `(time_s, power_mw)` pairs, one per sample.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.samples_mw
            .iter()
            .enumerate()
            .map(move |(i, &p)| (i as f64 * self.dt_s, p))
    }

    /// Downsamples the trace by averaging blocks of `factor` samples
    /// (useful for plotting long captures). Each bucket keeps its mean
    /// power, so total energy is kept when `factor` divides the sample
    /// count; a shorter last block is averaged over its own samples.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn downsample(&self, factor: usize) -> PowerTrace {
        assert!(factor > 0, "downsample factor must be positive");
        let samples = self
            .samples_mw
            .chunks(factor)
            .map(|chunk| chunk.iter().sum::<f64>() / chunk.len() as f64)
            .collect();
        PowerTrace::new(self.dt_s * factor as f64, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_integration() {
        let trace = PowerTrace::new(0.1, vec![1000.0; 10]); // 1 W for 1 s
        assert!((trace.energy_j() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_statistics() {
        let trace = PowerTrace::new(0.1, vec![]);
        assert!(trace.is_empty());
        assert_eq!(trace.energy_j(), 0.0);
        assert_eq!(trace.duration_s(), 0.0);
    }

    #[test]
    fn iter_yields_timestamps() {
        let trace = PowerTrace::new(0.5, vec![1.0, 2.0]);
        let pairs: Vec<_> = trace.iter().collect();
        assert_eq!(pairs, vec![(0.0, 1.0), (0.5, 2.0)]);
    }

    #[test]
    fn downsample_preserves_energy() {
        let trace = PowerTrace::new(0.1, (0..100).map(|i| i as f64).collect());
        let down = trace.downsample(10);
        assert_eq!(down.len(), 10);
        assert!((down.energy_j() - trace.energy_j()).abs() < 1e-9);
        assert_eq!(trace.downsample(1), trace);
    }

    #[test]
    #[should_panic(expected = "sampling interval must be positive")]
    fn zero_dt_panics() {
        let _ = PowerTrace::new(0.0, vec![]);
    }

    #[test]
    fn downsample_averages_a_partial_last_block() {
        let trace = PowerTrace::new(0.5, vec![100.0, 300.0, 50.0]);
        let down = trace.downsample(2);
        assert_eq!(down.dt_s(), 1.0);
        // The last bucket holds one sample; its mean is that sample.
        assert_eq!(down.samples_mw(), [200.0, 50.0]);
    }
}
