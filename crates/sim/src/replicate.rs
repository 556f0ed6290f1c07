//! Replication across seeds: mean ± deviation statistics for every metric,
//! so experiment conclusions do not rest on a single random draw.

use serde::{Deserialize, Serialize};

use crate::metrics::RunReport;
use crate::runner::{RunError, RunGrid};
use crate::scenario::Scenario;

/// Mean and sample standard deviation of one metric across replications.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stat {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single replication).
    pub std_dev: f64,
}

impl Stat {
    /// Mean and sample standard deviation of `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice — a mean of zero samples is not a number,
    /// and silently returning NaN here has historically poisoned every
    /// downstream aggregate.
    pub fn from_samples(samples: &[f64]) -> Stat {
        assert!(
            !samples.is_empty(),
            "Stat::from_samples requires at least one sample"
        );
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Stat {
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// Renders as `mean ± std` with one decimal.
    pub fn display(&self) -> String {
        format!("{:.1} ± {:.1}", self.mean, self.std_dev)
    }
}

/// The p50/p95/p99 of one metric across a sample population — the
/// distribution view fleet experiments report next to [`Stat`]'s mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// The median (nearest-rank 50th percentile).
    pub p50: f64,
    /// The nearest-rank 95th percentile.
    pub p95: f64,
    /// The nearest-rank 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `samples`, computed **in place** via
    /// `select_nth_unstable` — three expected-O(n) selections, no sorted
    /// clone. `Stat::from_samples`-style hardening for huge populations:
    /// percentiles over 10⁶ per-device energies cost three partitions of
    /// one existing buffer, not an 8 MB copy plus an O(n log n) sort.
    ///
    /// `samples` is reordered (partially partitioned) on return; callers
    /// that need the original order must not — by design — pay for a
    /// defensive clone here, they clone at the call site where the cost is
    /// visible.
    ///
    /// Nearest-rank definition: percentile `p` is the `⌈p/100 · n⌉`-th
    /// smallest sample (1-indexed), so every reported value is an actual
    /// sample and `p100` would be the maximum.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice, exactly like [`Stat::from_samples`] — a
    /// percentile of zero samples is not a number.
    ///
    /// # Examples
    ///
    /// ```
    /// use etrain_sim::Percentiles;
    ///
    /// let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
    /// let p = Percentiles::from_samples_mut(&mut samples);
    /// assert_eq!((p.p50, p.p95, p.p99), (50.0, 95.0, 99.0));
    /// ```
    pub fn from_samples_mut(samples: &mut [f64]) -> Percentiles {
        assert!(
            !samples.is_empty(),
            "Percentiles::from_samples_mut requires at least one sample"
        );
        let mut at = |p: f64| -> f64 {
            let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
            let index = rank.clamp(1, samples.len()) - 1;
            *samples
                .select_nth_unstable_by(index, |a, b| a.total_cmp(b))
                .1
        };
        Percentiles {
            p50: at(50.0),
            p95: at(95.0),
            p99: at(99.0),
        }
    }
}

/// Aggregate of several seeded runs of the same scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedReport {
    /// The scheduler name (identical across replications).
    pub scheduler: String,
    /// Number of replications.
    pub replications: usize,
    /// Radio energy above idle, in joules.
    pub extra_energy_j: Stat,
    /// Normalized delay, in seconds.
    pub normalized_delay_s: Stat,
    /// Deadline violation ratio.
    pub deadline_violation_ratio: Stat,
    /// The individual reports, in seed order.
    pub runs: Vec<RunReport>,
}

/// Runs `scenario` once per seed — concurrently, through the
/// deterministic [`RunGrid`] — and aggregates the paper's three metrics.
/// `runs` is in seed order regardless of worker count.
///
/// # Errors
///
/// Returns the lowest-seed-index run that failed, as [`RunGrid::try_run`]
/// does.
///
/// # Panics
///
/// Panics if `seeds` is empty.
///
/// # Examples
///
/// ```
/// use etrain_sim::{replicate, Scenario, SchedulerKind};
///
/// let base = Scenario::paper_default()
///     .duration_secs(900)
///     .scheduler(SchedulerKind::ETrain { theta: 2.0, k: None });
/// let agg = replicate(&base, &[1, 2, 3])?;
/// assert_eq!(agg.replications, 3);
/// assert!(agg.extra_energy_j.mean > 0.0);
/// # Ok::<(), etrain_sim::RunError>(())
/// ```
pub fn replicate(scenario: &Scenario, seeds: &[u64]) -> Result<ReplicatedReport, RunError> {
    assert!(!seeds.is_empty(), "at least one seed is required");
    let runs: Vec<RunReport> = RunGrid::over_seeds(scenario, seeds).try_run()?;
    let pick = |f: fn(&RunReport) -> f64| -> Stat {
        Stat::from_samples(&runs.iter().map(f).collect::<Vec<_>>())
    };
    Ok(ReplicatedReport {
        scheduler: runs[0].scheduler.clone(),
        replications: runs.len(),
        extra_energy_j: pick(|r| r.extra_energy_j),
        normalized_delay_s: pick(|r| r.normalized_delay_s),
        deadline_violation_ratio: pick(|r| r.deadline_violation_ratio),
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SchedulerKind;

    #[test]
    fn statistics_are_correct_for_known_samples() {
        let stat = Stat::from_samples(&[1.0, 2.0, 3.0]);
        assert!((stat.mean - 2.0).abs() < 1e-12);
        assert!((stat.std_dev - 1.0).abs() < 1e-12);
        assert_eq!(stat.display(), "2.0 ± 1.0");
    }

    #[test]
    fn single_sample_has_zero_deviation() {
        let stat = Stat::from_samples(&[5.0]);
        assert_eq!(stat.std_dev, 0.0);
    }

    #[test]
    fn replication_aggregates_distinct_seeds() {
        let base = Scenario::paper_default()
            .duration_secs(600)
            .scheduler(SchedulerKind::Baseline);
        let agg = replicate(&base, &[1, 2, 3, 4]).unwrap();
        assert_eq!(agg.replications, 4);
        assert_eq!(agg.runs.len(), 4);
        // Different seeds produce different energies → non-zero deviation.
        assert!(agg.extra_energy_j.std_dev > 0.0);
        // Baseline delay is 0 in every replication.
        assert_eq!(agg.normalized_delay_s.mean, 0.0);
        assert_eq!(agg.normalized_delay_s.std_dev, 0.0);
    }

    #[test]
    fn etrain_beats_baseline_in_expectation() {
        let seeds = [1, 2, 3, 4, 5];
        let baseline = replicate(
            &Scenario::paper_default()
                .duration_secs(1200)
                .scheduler(SchedulerKind::Baseline),
            &seeds,
        )
        .unwrap();
        let etrain = replicate(
            &Scenario::paper_default()
                .duration_secs(1200)
                .scheduler(SchedulerKind::ETrain {
                    theta: 2.0,
                    k: None,
                }),
            &seeds,
        )
        .unwrap();
        assert!(
            etrain.extra_energy_j.mean + etrain.extra_energy_j.std_dev
                < baseline.extra_energy_j.mean,
            "eTrain {} ± {} vs baseline {}",
            etrain.extra_energy_j.mean,
            etrain.extra_energy_j.std_dev,
            baseline.extra_energy_j.mean
        );
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_rejected() {
        let _ = replicate(&Scenario::paper_default(), &[]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_sample_slice_rejected() {
        let _ = Stat::from_samples(&[]);
    }

    #[test]
    fn percentiles_match_sorted_nearest_rank() {
        // Compare the in-place selection against the obvious sorted-copy
        // definition on a deliberately shuffled population.
        let mut samples: Vec<f64> = (0..10_007)
            .map(|i| f64::from((i * 7919) % 10_007))
            .collect();
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let expect = |p: f64| {
            let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        let got = Percentiles::from_samples_mut(&mut samples);
        assert_eq!(got.p50.to_bits(), expect(50.0).to_bits());
        assert_eq!(got.p95.to_bits(), expect(95.0).to_bits());
        assert_eq!(got.p99.to_bits(), expect(99.0).to_bits());
    }

    #[test]
    fn percentiles_of_one_sample_are_that_sample() {
        let p = Percentiles::from_samples_mut(&mut [3.5]);
        assert_eq!((p.p50, p.p95, p.p99), (3.5, 3.5, 3.5));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn percentiles_reject_empty_slice() {
        let _ = Percentiles::from_samples_mut(&mut []);
    }

    #[test]
    fn replication_is_identical_serial_and_parallel() {
        let base = Scenario::paper_default()
            .duration_secs(600)
            .scheduler(SchedulerKind::Baseline);
        let parallel = replicate(&base, &[1, 2, 3]).unwrap();
        let serial: Vec<RunReport> = [1u64, 2, 3]
            .iter()
            .map(|&seed| base.clone().seed(seed).run())
            .collect();
        assert_eq!(parallel.runs, serial);
    }
}
