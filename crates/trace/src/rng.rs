//! Seeded random distributions used by every trace generator.
//!
//! Only `rand`'s core uniform generator is used; the exponential,
//! normal and truncated-normal distributions needed by the paper's workload
//! model are implemented here (Box–Muller + inversion), avoiding an extra
//! `rand_distr` dependency.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Creates the deterministic RNG used throughout the workspace.
///
/// # Examples
///
/// ```
/// use rand::Rng;
///
/// let mut a = etrain_trace::rng::seeded(7);
/// let mut b = etrain_trace::rng::seeded(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples an exponential variate with the given mean via inversion.
///
/// Used for Poisson inter-arrival times (paper Sec. VI-A: cargo packet
/// arrivals follow independent Poisson processes).
///
/// # Panics
///
/// Panics if `mean` is not strictly positive.
pub fn exponential(rng: &mut impl Rng, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -mean * u.ln()
}

/// Samples a standard normal variate via the Box–Muller transform.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A normal distribution truncated from below, matching the paper's packet
/// size model ("drawn from truncated Normal Distribution with mean and
/// minimum ...", Sec. VI-A).
///
/// The paper specifies only the mean and the minimum; the standard deviation
/// defaults to `(mean - min) / 2` so that roughly 95 % of the untruncated
/// mass lies above the minimum.
///
/// # Examples
///
/// ```
/// use etrain_trace::rng::{seeded, TruncatedNormal};
///
/// // The paper's eTrain Mail size model: mean 5 KB, minimum 1 KB.
/// let sizes = TruncatedNormal::from_mean_min(5_000.0, 1_000.0);
/// let mut rng = seeded(1);
/// for _ in 0..100 {
///     assert!(sizes.sample(&mut rng) >= 1_000.0);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TruncatedNormal {
    mean: f64,
    std_dev: f64,
    min: f64,
}

impl TruncatedNormal {
    /// Creates a distribution with explicit mean, standard deviation and
    /// lower bound.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative, if any parameter is non-finite, or
    /// if `min > mean` (the truncation would reject most of the mass and the
    /// effective mean would drift far from `mean`).
    pub fn new(mean: f64, std_dev: f64, min: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && min.is_finite(),
            "truncated normal parameters must be finite"
        );
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        assert!(min <= mean, "minimum must not exceed the mean");
        TruncatedNormal { mean, std_dev, min }
    }

    /// Creates a distribution from the paper's `(mean, minimum)` pairs with
    /// the default `std_dev = (mean - min) / 2`.
    pub fn from_mean_min(mean: f64, min: f64) -> Self {
        TruncatedNormal::new(mean, (mean - min) / 2.0, min)
    }

    /// The (untruncated) mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// The lower truncation bound.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Draws one sample (rejection from the underlying normal; the
    /// acceptance rate is ≥ 95 % for [`TruncatedNormal::from_mean_min`]
    /// parameterizations, with a clamping fallback after 64 rejections).
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        for _ in 0..64 {
            let x = self.mean + self.std_dev * standard_normal(rng);
            if x >= self.min {
                return x;
            }
        }
        self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_converges() {
        let mut rng = seeded(42);
        let n = 20_000;
        let mean = 12.5;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() / mean < 0.05,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn truncated_normal_respects_minimum_and_mean() {
        let dist = TruncatedNormal::from_mean_min(5_000.0, 1_000.0);
        let mut rng = seeded(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x >= 1_000.0));
        let mean = samples.iter().sum::<f64>() / n as f64;
        // Truncation pushes the mean slightly up; stay within 5 %.
        assert!((mean - 5_000.0).abs() / 5_000.0 < 0.05, "mean {mean}");
    }

    #[test]
    fn truncated_normal_zero_std_is_constant() {
        let dist = TruncatedNormal::new(10.0, 0.0, 5.0);
        let mut rng = seeded(9);
        assert_eq!(dist.sample(&mut rng), 10.0);
    }

    #[test]
    #[should_panic(expected = "minimum must not exceed the mean")]
    fn truncated_normal_rejects_min_above_mean() {
        let _ = TruncatedNormal::new(1.0, 1.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "exponential mean must be positive")]
    fn exponential_rejects_zero_mean() {
        let mut rng = seeded(1);
        let _ = exponential(&mut rng, 0.0);
    }

    #[test]
    fn determinism_across_identical_seeds() {
        let dist = TruncatedNormal::from_mean_min(2_000.0, 100.0);
        let mut a = seeded(11);
        let mut b = seeded(11);
        for _ in 0..100 {
            assert_eq!(dist.sample(&mut a), dist.sample(&mut b));
        }
    }

    #[test]
    fn the_paper_parameterization_puts_the_minimum_two_deviations_below_the_mean() {
        let sizes = TruncatedNormal::from_mean_min(5_000.0, 1_000.0);
        assert_eq!(
            (sizes.mean(), sizes.std_dev(), sizes.min()),
            (5_000.0, 2_000.0, 1_000.0)
        );
        // A minimum equal to the mean leaves a point mass.
        let point = TruncatedNormal::from_mean_min(300.0, 300.0);
        assert_eq!(point.std_dev(), 0.0);
        assert_eq!(point.sample(&mut seeded(1)), 300.0);
    }
}
