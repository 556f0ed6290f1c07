//! Epoch-folding period estimation — an independent second opinion on the
//! heartbeat cycle.
//!
//! The primary [`CycleDetector`](crate::CycleDetector) estimates the cycle
//! from the *median gap*, which is cheap and online but can be fooled by
//! missing observations (a dropped heartbeat doubles one gap). Epoch
//! folding scores candidate periods by how tightly the observations
//! cluster when folded modulo the candidate — dropped beats do not hurt
//! it, because the surviving beats still land on the same phase. The two
//! estimators cross-check each other in tests and in the Table 1
//! reproduction.

/// Scores one candidate period: the mean circular deviation (seconds) of
/// the folded observations from their circular mean phase. Lower = better.
fn fold_score(times_s: &[f64], period_s: f64) -> f64 {
    // Circular mean via unit vectors.
    let tau = std::f64::consts::TAU;
    let (mut sx, mut sy) = (0.0f64, 0.0f64);
    for &t in times_s {
        let phase = (t / period_s).fract() * tau;
        sx += phase.cos();
        sy += phase.sin();
    }
    let mean_phase = sy.atan2(sx);
    let mut dev = 0.0;
    for &t in times_s {
        let phase = (t / period_s).fract() * tau;
        let mut d = (phase - mean_phase).abs() % tau;
        if d > tau / 2.0 {
            d = tau - d;
        }
        dev += d / tau * period_s;
    }
    dev / times_s.len() as f64
}

/// Estimates the dominant period of a point process by epoch folding.
///
/// Candidate periods are the observed inter-event gaps (and their halves,
/// to catch a missed beat making one gap look doubled); the candidate with
/// the lowest folded deviation wins, refined by a local golden-section
/// polish. Returns `None` for fewer than 3 observations or when even the
/// best candidate leaves more than 20 % of the period as scatter (no
/// periodicity).
///
/// # Examples
///
/// ```
/// use etrain_hb::estimate_period;
///
/// let times: Vec<f64> = (0..8).map(|i| 5.0 + i as f64 * 270.0).collect();
/// let period = estimate_period(&times).expect("clearly periodic");
/// assert!((period - 270.0).abs() < 1.0);
///
/// // A dropped beat does not fool the folding estimator:
/// let mut with_gap = times.clone();
/// with_gap.remove(3);
/// let period = estimate_period(&with_gap).expect("still periodic");
/// assert!((period - 270.0).abs() < 1.0);
/// ```
pub fn estimate_period(times_s: &[f64]) -> Option<f64> {
    if times_s.len() < 3 {
        return None;
    }
    let mut sorted = times_s.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let gaps: Vec<f64> = sorted
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|&g| g > 1e-6)
        .collect();
    if gaps.is_empty() {
        return None;
    }

    // Candidates: every distinct gap and its half (missed-beat recovery).
    let mut candidates: Vec<f64> = Vec::new();
    for &g in &gaps {
        candidates.push(g);
        candidates.push(g / 2.0);
    }
    candidates.retain(|&c| c > 1e-3);

    // Folding alone is ambiguous under subharmonics: if p is the true
    // period, every p/k also folds perfectly. Disambiguate with coverage:
    // a true period p implies about span/p + 1 events; a subharmonic p/k
    // implies k times as many, so its coverage collapses toward 1/k.
    // Among candidates that fold tightly, pick the one whose implied
    // event count best matches the observed count. Count distinct times,
    // as the gaps do: a repeated timestamp is one beat seen twice, and
    // counting it again would halve the chosen period.
    let (Some(first), Some(last)) = (sorted.first(), sorted.last()) else {
        return None;
    };
    let span = last - first;
    let n = (gaps.len() + 1) as f64;
    let coverage = |p: f64| n / (span / p + 1.0);
    let tight: Vec<f64> = candidates
        .iter()
        .copied()
        .filter(|&c| fold_score(&sorted, c) <= c * 0.05 && coverage(c) <= 1.1)
        .collect();
    let best = match tight.into_iter().min_by(|&a, &b| {
        (coverage(a) - 1.0)
            .abs()
            .total_cmp(&(coverage(b) - 1.0).abs())
    }) {
        Some(chosen) => (chosen, fold_score(&sorted, chosen)),
        None => candidates
            .iter()
            .copied()
            .map(|c| (c, fold_score(&sorted, c)))
            .min_by(|a, b| a.1.total_cmp(&b.1))?,
    };

    // Local refinement around the best candidate (golden-section search on
    // the fold score over ±5 %).
    let (mut lo, mut hi) = (best.0 * 0.95, best.0 * 1.05);
    const PHI: f64 = 0.618_033_988_749_894_8;
    for _ in 0..40 {
        let a = hi - (hi - lo) * PHI;
        let b = lo + (hi - lo) * PHI;
        if fold_score(&sorted, a) < fold_score(&sorted, b) {
            hi = b;
        } else {
            lo = a;
        }
    }
    let refined = (lo + hi) / 2.0;
    let score = fold_score(&sorted, refined);
    if score > refined * 0.2 {
        return None; // too scattered to call periodic
    }
    Some(refined)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn periodic(phase: f64, period: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| phase + i as f64 * period).collect()
    }

    #[test]
    fn exact_period_recovered() {
        for period in [60.0, 240.0, 300.0, 1800.0] {
            let estimated = estimate_period(&periodic(17.0, period, 10)).unwrap();
            assert!(
                (estimated - period).abs() / period < 0.01,
                "period {period}: estimated {estimated}"
            );
        }
    }

    #[test]
    fn survives_missing_beats() {
        let mut times = periodic(0.0, 300.0, 12);
        times.remove(5);
        times.remove(7);
        let estimated = estimate_period(&times).unwrap();
        assert!((estimated - 300.0).abs() < 3.0, "estimated {estimated}");
    }

    #[test]
    fn survives_jitter() {
        let mut rng = etrain_trace::rng::seeded(3);
        use rand::Rng;
        let times: Vec<f64> = (0..15)
            .map(|i| i as f64 * 270.0 + rng.gen_range(-4.0..4.0))
            .collect();
        let estimated = estimate_period(&times).unwrap();
        assert!((estimated - 270.0).abs() < 8.0, "estimated {estimated}");
    }

    #[test]
    fn too_few_observations_is_none() {
        assert_eq!(estimate_period(&[0.0, 300.0]), None);
        assert_eq!(estimate_period(&[]), None);
    }

    #[test]
    fn aperiodic_input_is_rejected() {
        // Strongly aperiodic times (exponentially growing gaps).
        let times: Vec<f64> = (0..10).map(|i| 1.7f64.powi(i) * 13.0).collect();
        // Either None, or whatever period is claimed must fold poorly
        // enough that we never assert exactness — accept None only.
        if let Some(p) = estimate_period(&times) {
            // If a period is claimed, it must at least fold tightly.
            assert!(fold_score(&times, p) <= p * 0.2);
        }
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut times = periodic(0.0, 240.0, 10);
        times.reverse();
        let estimated = estimate_period(&times).unwrap();
        assert!((estimated - 240.0).abs() < 1.0);
    }

    #[test]
    fn simultaneous_observations_have_no_period() {
        assert_eq!(estimate_period(&[5.0, 5.0, 5.0, 5.0]), None);
        assert_eq!(estimate_period(&[5.0, 5.0, 5.0 + 1e-9]), None);
    }

    #[test]
    fn the_period_does_not_depend_on_the_phase() {
        let base = estimate_period(&periodic(0.0, 300.0, 10)).unwrap();
        for phase in [17.0, 299.0, 86_400.0] {
            let shifted = estimate_period(&periodic(phase, 300.0, 10)).unwrap();
            assert!(
                (shifted - base).abs() < 1e-6,
                "phase {phase}: {shifted} vs {base}"
            );
        }
    }

    #[test]
    fn repeated_timestamps_do_not_halve_the_period() {
        let mut times = periodic(0.0, 240.0, 8);
        let clean = estimate_period(&times).unwrap();
        times.extend([480.0, 480.0, 960.0]);
        let repeated = estimate_period(&times).unwrap();
        assert!((clean - 240.0).abs() < 1e-6, "{clean}");
        assert!((repeated - 240.0).abs() < 1e-6, "{repeated}");
    }
}
