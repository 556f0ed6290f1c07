//! Per-app heartbeat cycle detection and prediction.

/// The cycle law a [`CycleDetector`] inferred from observed heartbeats.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectedPattern {
    /// A stable constant cycle (all measured IM apps — paper Table 1).
    Fixed {
        /// Estimated cycle length in seconds (median of observed gaps).
        cycle_s: f64,
        /// Fraction of gaps within tolerance of the estimate, in `[0, 1]`.
        confidence: f64,
    },
    /// An adaptive cycle that steps through increasing levels (the NetEase
    /// news app doubles after every 6 beats — paper Fig. 3(d)).
    Adaptive {
        /// The cycle levels observed so far, in seconds, ascending.
        levels_s: Vec<f64>,
        /// The level currently in force, in seconds.
        current_level_s: f64,
        /// Estimated number of beats sent per level (0 if undetermined).
        beats_per_level: usize,
    },
    /// Not enough observations, or the gaps fit no supported law.
    Unknown,
}

/// Relative tolerance used to decide whether two gaps belong to the same
/// cycle level (covers transmission jitter and scheduling noise).
const GAP_TOLERANCE: f64 = 0.08;

/// Minimum number of observations before any pattern is reported.
const MIN_OBSERVATIONS: usize = 3;

/// Observations a detector keeps (more than 5 hours of WeChat
/// heartbeats); older ones are dropped.
const MAX_HISTORY: usize = 64;

/// Detects a single train app's heartbeat cycle from raw transmission
/// timestamps — the simulation-side substitute for the paper's Xposed hook.
///
/// The detector keeps a bounded history and re-estimates on demand:
///
/// - if the observed gaps agree (within a relative tolerance) the pattern
///   is [`DetectedPattern::Fixed`] with the *median* gap — medians make the
///   estimate robust to outliers from delayed heartbeats;
/// - if the gaps form non-decreasing plateaus the pattern is
///   [`DetectedPattern::Adaptive`] and the run length of completed plateaus
///   estimates `beats_per_level`;
/// - otherwise it is [`DetectedPattern::Unknown`] and prediction falls back
///   to the last observed gap.
#[derive(Debug, Clone)]
pub struct CycleDetector {
    times_s: Vec<f64>,
}

impl Default for CycleDetector {
    fn default() -> Self {
        CycleDetector::new()
    }
}

impl CycleDetector {
    /// Creates a detector with no observations.
    pub fn new() -> Self {
        CycleDetector {
            times_s: Vec::new(),
        }
    }

    /// Records a heartbeat transmission at `time_s`.
    ///
    /// Out-of-order observations (earlier than the last recorded one) are
    /// inserted in order; duplicates within 1 ms are ignored.
    pub fn observe(&mut self, time_s: f64) {
        match self
            .times_s
            .binary_search_by(|probe| probe.total_cmp(&time_s))
        {
            Ok(_) => {}
            Err(pos) => {
                let dup_before = pos > 0 && (time_s - self.times_s[pos - 1]).abs() < 1e-3;
                let dup_after =
                    pos < self.times_s.len() && (self.times_s[pos] - time_s).abs() < 1e-3;
                if !dup_before && !dup_after {
                    self.times_s.insert(pos, time_s);
                }
            }
        }
        if self.times_s.len() > MAX_HISTORY {
            let excess = self.times_s.len() - MAX_HISTORY;
            self.times_s.drain(..excess);
        }
    }

    /// Timestamp of the most recent observation, if any.
    pub fn last_observation_s(&self) -> Option<f64> {
        self.times_s.last().copied()
    }

    /// The gaps between consecutive observations, in seconds.
    pub fn gaps_s(&self) -> Vec<f64> {
        self.times_s.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Infers the cycle pattern from the recorded observations.
    pub fn detect(&self) -> DetectedPattern {
        if self.times_s.len() < MIN_OBSERVATIONS {
            return DetectedPattern::Unknown;
        }
        let gaps = self.gaps_s();
        let median = median(&gaps);
        if median <= 0.0 {
            return DetectedPattern::Unknown;
        }
        let within = gaps
            .iter()
            .filter(|&&g| (g - median).abs() / median <= GAP_TOLERANCE)
            .count();
        let confidence = within as f64 / gaps.len() as f64;
        // A single delayed heartbeat perturbs *two* adjacent gaps, so even
        // one outlier in six gaps leaves only 2/3 agreement; accept a
        // strict majority.
        if confidence >= 0.6 {
            return DetectedPattern::Fixed {
                cycle_s: median,
                confidence,
            };
        }
        if let Some(adaptive) = self.detect_adaptive(&gaps) {
            return adaptive;
        }
        DetectedPattern::Unknown
    }

    /// Detects non-decreasing plateau structure (adaptive cycles).
    fn detect_adaptive(&self, gaps: &[f64]) -> Option<DetectedPattern> {
        if gaps.len() < 3 {
            return None;
        }
        // Split the gap sequence into runs of equal level.
        let mut runs: Vec<(f64, usize)> = Vec::new(); // (level estimate, count)
        for &gap in gaps {
            match runs.last_mut() {
                Some((level, count)) if (gap - *level).abs() / *level <= GAP_TOLERANCE => {
                    // Refine the level estimate with a running mean.
                    *level = (*level * *count as f64 + gap) / (*count as f64 + 1.0);
                    *count += 1;
                }
                _ => runs.push((gap, 1)),
            }
        }
        if runs.len() < 2 {
            return None;
        }
        // Levels must strictly increase to qualify as adaptive.
        if !runs
            .windows(2)
            .all(|w| w[1].0 > w[0].0 * (1.0 + GAP_TOLERANCE))
        {
            return None;
        }
        // Completed runs (all but the last) estimate beats per level.
        // The count of gaps within one level understates beats by nothing:
        // a level of b beats produces b gaps at that level except the first
        // level, which produces b-1 gaps (its first beat has no predecessor).
        let completed: Vec<usize> = runs[..runs.len() - 1].iter().map(|&(_, c)| c).collect();
        let beats_per_level = mode(&completed).unwrap_or(0);
        Some(DetectedPattern::Adaptive {
            levels_s: runs.iter().map(|&(level, _)| level).collect(),
            current_level_s: runs.last().map(|&(level, _)| level).unwrap_or(0.0),
            beats_per_level,
        })
    }

    /// Predicts the next heartbeat departure time, if at least two
    /// observations exist.
    ///
    /// Fixed patterns extrapolate from the last observation by the detected
    /// cycle; adaptive and unknown patterns extrapolate by the last observed
    /// gap (conservative: the true adaptive gap is never shorter, so the
    /// prediction never *misses* a train — it at worst announces one early).
    pub fn predict_next(&self) -> Option<f64> {
        let last = self.last_observation_s()?;
        let &last_gap = self.gaps_s().last()?;
        let step = match self.detect() {
            DetectedPattern::Fixed { cycle_s, .. } => cycle_s,
            DetectedPattern::Adaptive {
                current_level_s, ..
            } => current_level_s,
            DetectedPattern::Unknown => last_gap,
        };
        Some(last + step)
    }

    /// Predicts all departures in `(after_s, until_s]`.
    ///
    /// Fixed cycles are rolled forward; adaptive and unknown patterns
    /// repeat their current step (the scheduler re-predicts after every
    /// real observation, so the error never compounds).
    pub fn predict_until(&self, after_s: f64, until_s: f64) -> Vec<f64> {
        let Some(mut next) = self.predict_next() else {
            return Vec::new();
        };
        let step = match self.detect() {
            DetectedPattern::Fixed { cycle_s, .. } => cycle_s,
            DetectedPattern::Adaptive {
                current_level_s, ..
            } => current_level_s,
            DetectedPattern::Unknown => match self.gaps_s().last() {
                Some(&gap) => gap,
                None => return Vec::new(),
            },
        };
        if step <= 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        while next <= until_s {
            if next > after_s {
                out.push(next);
            }
            next += step;
        }
        out
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

fn mode(values: &[usize]) -> Option<usize> {
    let mut counts = std::collections::HashMap::new();
    for &v in values {
        *counts.entry(v).or_insert(0usize) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(value, count)| (count, value))
        .map(|(value, _)| value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(times: &[f64]) -> CycleDetector {
        let mut d = CycleDetector::new();
        for &t in times {
            d.observe(t);
        }
        d
    }

    #[test]
    fn too_few_observations_is_unknown() {
        assert_eq!(feed(&[0.0, 300.0]).detect(), DetectedPattern::Unknown);
    }

    #[test]
    fn fixed_cycle_detected_exactly() {
        let d = feed(&[0.0, 300.0, 600.0, 900.0, 1200.0]);
        match d.detect() {
            DetectedPattern::Fixed {
                cycle_s,
                confidence,
            } => {
                assert!((cycle_s - 300.0).abs() < 1e-9);
                assert_eq!(confidence, 1.0);
            }
            other => panic!("expected fixed, got {other:?}"),
        }
    }

    #[test]
    fn fixed_cycle_robust_to_jitter() {
        // ±5 s jitter on a 270 s cycle.
        let d = feed(&[0.0, 272.0, 538.0, 812.0, 1079.0, 1351.0]);
        match d.detect() {
            DetectedPattern::Fixed { cycle_s, .. } => {
                assert!((cycle_s - 270.0).abs() < 10.0, "estimated {cycle_s}");
            }
            other => panic!("expected fixed, got {other:?}"),
        }
    }

    #[test]
    fn fixed_cycle_robust_to_one_outlier() {
        // One heartbeat delayed by a minute; median survives.
        let d = feed(&[0.0, 300.0, 660.0, 900.0, 1200.0, 1500.0, 1800.0]);
        match d.detect() {
            DetectedPattern::Fixed {
                cycle_s,
                confidence,
            } => {
                assert!((cycle_s - 300.0).abs() < 15.0);
                assert!(confidence < 1.0);
            }
            other => panic!("expected fixed, got {other:?}"),
        }
    }

    #[test]
    fn netease_doubling_detected_as_adaptive() {
        // 60 s × 6 beats, then 120 s × 6, then 240 s...
        let mut times = Vec::new();
        let mut t = 0.0;
        for level in 0..3 {
            let cycle = 60.0 * 2f64.powi(level);
            for _ in 0..6 {
                times.push(t);
                t += cycle;
            }
        }
        let d = feed(&times);
        match d.detect() {
            DetectedPattern::Adaptive {
                levels_s,
                current_level_s,
                beats_per_level,
            } => {
                assert!(levels_s.len() >= 2);
                assert!((levels_s[0] - 60.0).abs() < 5.0);
                assert!((current_level_s - 240.0).abs() < 15.0);
                assert_eq!(beats_per_level, 6);
            }
            other => panic!("expected adaptive, got {other:?}"),
        }
    }

    #[test]
    fn random_gaps_are_unknown() {
        let d = feed(&[0.0, 17.0, 300.0, 310.0, 800.0]);
        assert_eq!(d.detect(), DetectedPattern::Unknown);
    }

    #[test]
    fn decreasing_gaps_are_not_adaptive() {
        let d = feed(&[0.0, 480.0, 720.0, 840.0, 900.0]);
        assert_eq!(d.detect(), DetectedPattern::Unknown);
    }

    #[test]
    fn prediction_extrapolates_fixed_cycle() {
        let d = feed(&[10.0, 310.0, 610.0, 910.0]);
        assert!((d.predict_next().unwrap() - 1210.0).abs() < 1.0);
        let horizon = d.predict_until(910.0, 2000.0);
        assert_eq!(horizon.len(), 3); // 1210, 1510, 1810
        assert!((horizon[2] - 1810.0).abs() < 1.0);
    }

    #[test]
    fn prediction_for_adaptive_uses_current_level() {
        let mut times = Vec::new();
        let mut t = 0.0;
        for level in 0..2 {
            let cycle = 60.0 * 2f64.powi(level);
            for _ in 0..6 {
                times.push(t);
                t += cycle;
            }
        }
        let d = feed(&times);
        let last = *times.last().unwrap();
        let next = d.predict_next().unwrap();
        assert!((next - (last + 120.0)).abs() < 10.0);
    }

    #[test]
    fn prediction_without_observations_is_none() {
        let d = CycleDetector::new();
        assert_eq!(d.predict_next(), None);
        assert!(d.predict_until(0.0, 1000.0).is_empty());
    }

    #[test]
    fn out_of_order_and_duplicate_observations() {
        let mut d = CycleDetector::new();
        d.observe(600.0);
        d.observe(0.0);
        d.observe(300.0);
        d.observe(300.0); // exact duplicate
        d.observe(300.0005); // within 1 ms
        assert_eq!(d.gaps_s(), vec![300.0, 300.0]);
    }

    #[test]
    fn history_is_bounded() {
        let mut d = CycleDetector::new();
        for i in 0..100 {
            d.observe(i as f64 * 240.0);
        }
        assert_eq!(d.gaps_s().len(), MAX_HISTORY - 1);
        assert_eq!(d.last_observation_s(), Some(99.0 * 240.0));
    }

    #[test]
    fn median_and_mode_helpers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mode(&[6, 6, 5]), Some(6));
        assert_eq!(mode(&[]), None);
    }

    #[test]
    fn bounded_history_relearns_a_lengthened_cycle() {
        let mut d = CycleDetector::new();
        for i in 0..MAX_HISTORY {
            d.observe(i as f64 * 270.0);
        }
        let last = d.last_observation_s().unwrap();
        for i in 1..=MAX_HISTORY {
            d.observe(last + i as f64 * 540.0); // the cycle doubles
        }
        match d.detect() {
            DetectedPattern::Fixed { cycle_s, .. } => assert!((cycle_s - 540.0).abs() < 1e-9),
            other => panic!("expected the new 540 s cycle, got {other:?}"),
        }
    }
}
