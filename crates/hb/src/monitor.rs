//! The multi-app heartbeat monitor: one [`CycleDetector`] per train app
//! plus liveness tracking.

use std::collections::BTreeMap;

use etrain_trace::TrainAppId;

use crate::detect::{CycleDetector, DetectedPattern};

/// Liveness status of a train app as judged by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainStatus {
    /// Heartbeats are arriving on schedule.
    Alive,
    /// The app has missed enough expected heartbeats to be presumed dead
    /// (its daemon was killed, or the app was uninstalled).
    Dead,
    /// Not enough observations to judge.
    Undetermined,
}

/// How many multiples of the expected cycle may elapse without a heartbeat
/// before the train app is presumed dead.
const LIVENESS_GRACE_FACTOR: f64 = 2.5;

/// The Heartbeat Monitor module of eTrain (paper Sec. V-2), adapted for
/// observation-based operation: it ingests heartbeat transmission events per
/// train app, learns each app's cycle and exposes the union of predicted
/// "train departure times" that the scheduler piggybacks on.
///
/// # Examples
///
/// ```
/// use etrain_hb::HeartbeatMonitor;
/// use etrain_trace::TrainAppId;
///
/// let mut monitor = HeartbeatMonitor::new();
/// for j in 0..5 {
///     monitor.observe(TrainAppId(0), j as f64 * 300.0);
/// }
/// let next = monitor.next_departure(1200.0).unwrap();
/// assert_eq!(next.0, TrainAppId(0));
/// assert!((next.1 - 1500.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HeartbeatMonitor {
    detectors: BTreeMap<TrainAppId, CycleDetector>,
}

impl HeartbeatMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        HeartbeatMonitor {
            detectors: BTreeMap::new(),
        }
    }

    /// Records a heartbeat of `train` at `time_s`. Unknown train apps are
    /// registered implicitly, mirroring the Android implementation where the
    /// Xposed hook fires for whatever app sends a heartbeat.
    pub fn observe(&mut self, train: TrainAppId, time_s: f64) {
        self.detectors.entry(train).or_default().observe(time_s);
    }

    /// Removes a train app (e.g. the user uninstalled it).
    pub fn remove(&mut self, train: TrainAppId) -> bool {
        self.detectors.remove(&train).is_some()
    }

    /// The train apps the monitor has seen, in id order.
    pub fn trains(&self) -> Vec<TrainAppId> {
        self.detectors.keys().copied().collect()
    }

    /// The per-app detector, if the app has been observed.
    pub fn detector(&self, train: TrainAppId) -> Option<&CycleDetector> {
        self.detectors.get(&train)
    }

    /// The detected pattern of `train` ([`DetectedPattern::Unknown`] if the
    /// app is unknown).
    pub fn pattern(&self, train: TrainAppId) -> DetectedPattern {
        self.detectors
            .get(&train)
            .map_or(DetectedPattern::Unknown, CycleDetector::detect)
    }

    /// Judges whether `train` is still alive at time `now_s`.
    ///
    /// An app is presumed dead once `LIVENESS_GRACE_FACTOR` times its
    /// expected cycle has passed without a heartbeat.
    pub fn status(&self, train: TrainAppId, now_s: f64) -> TrainStatus {
        let Some(detector) = self.detectors.get(&train) else {
            return TrainStatus::Undetermined;
        };
        let Some(last) = detector.last_observation_s() else {
            return TrainStatus::Undetermined;
        };
        let expected_cycle = match detector.detect() {
            DetectedPattern::Fixed { cycle_s, .. } => cycle_s,
            DetectedPattern::Adaptive {
                current_level_s, ..
            } => current_level_s,
            DetectedPattern::Unknown => return TrainStatus::Undetermined,
        };
        if now_s - last > LIVENESS_GRACE_FACTOR * expected_cycle {
            TrainStatus::Dead
        } else {
            TrainStatus::Alive
        }
    }

    /// The earliest predicted departure strictly after `now_s` across all
    /// live train apps, with the app that produces it.
    pub fn next_departure(&self, now_s: f64) -> Option<(TrainAppId, f64)> {
        self.detectors
            .iter()
            .filter(|&(&train, _)| self.status(train, now_s) != TrainStatus::Dead)
            .filter_map(|(&train, detector)| {
                let mut next = detector.predict_next()?;
                // Roll forward past `now_s` using the detector's horizon
                // prediction (handles a monitor queried long after the last
                // observation).
                if next <= now_s {
                    next = *detector
                        .predict_until(
                            now_s,
                            now_s + 4.0 * (next - detector.last_observation_s()?).max(1.0),
                        )
                        .first()?;
                }
                Some((train, next))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// All predicted departures in `(after_s, until_s]`, merged across live
    /// train apps and time-sorted. This is the set `H` of paper Sec. III-C
    /// restricted to the lookahead window.
    pub fn departures_between(&self, after_s: f64, until_s: f64) -> Vec<(TrainAppId, f64)> {
        let mut out: Vec<(TrainAppId, f64)> = self
            .detectors
            .iter()
            .filter(|&(&train, _)| self.status(train, after_s) != TrainStatus::Dead)
            .flat_map(|(&train, detector)| {
                detector
                    .predict_until(after_s, until_s)
                    .into_iter()
                    .map(move |t| (train, t))
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fed_monitor() -> HeartbeatMonitor {
        let mut m = HeartbeatMonitor::new();
        // QQ-like 300 s and WhatsApp-like 240 s.
        for j in 0..5 {
            m.observe(TrainAppId(0), j as f64 * 300.0);
            m.observe(TrainAppId(1), 20.0 + j as f64 * 240.0);
        }
        m
    }

    #[test]
    fn implicit_registration_and_listing() {
        let m = fed_monitor();
        assert_eq!(m.trains(), vec![TrainAppId(0), TrainAppId(1)]);
        assert!(m.detector(TrainAppId(0)).is_some());
        assert!(m.detector(TrainAppId(9)).is_none());
    }

    #[test]
    fn next_departure_picks_earliest_across_apps() {
        let m = fed_monitor();
        // After t=1200: QQ next at 1500, WhatsApp (last 980) next at 1220.
        let (train, t) = m.next_departure(1200.0).unwrap();
        assert_eq!(train, TrainAppId(1));
        assert!((t - 1220.0).abs() < 1.0);
    }

    #[test]
    fn departures_between_merges_and_sorts() {
        let m = fed_monitor();
        let deps = m.departures_between(1200.0, 2000.0);
        assert!(!deps.is_empty());
        assert!(deps.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(deps.iter().any(|&(train, _)| train == TrainAppId(0)));
        assert!(deps.iter().any(|&(train, _)| train == TrainAppId(1)));
    }

    #[test]
    fn liveness_transitions_to_dead() {
        let m = fed_monitor();
        assert_eq!(m.status(TrainAppId(0), 1300.0), TrainStatus::Alive);
        // 2.5 × 300 s after the last heartbeat at 1200 s.
        assert_eq!(m.status(TrainAppId(0), 2000.0), TrainStatus::Dead);
        assert_eq!(m.status(TrainAppId(7), 0.0), TrainStatus::Undetermined);
    }

    #[test]
    fn dead_trains_are_excluded_from_predictions() {
        let mut m = HeartbeatMonitor::new();
        for j in 0..5 {
            m.observe(TrainAppId(0), j as f64 * 300.0); // dies after 1200
            m.observe(TrainAppId(1), j as f64 * 240.0 + 5000.0); // active later
        }
        let deps = m.departures_between(6000.0, 7000.0);
        assert!(deps.iter().all(|&(train, _)| train == TrainAppId(1)));
    }

    #[test]
    fn remove_unregisters() {
        let mut m = fed_monitor();
        assert!(m.remove(TrainAppId(0)));
        assert!(!m.remove(TrainAppId(0)));
        assert_eq!(m.trains(), vec![TrainAppId(1)]);
    }

    #[test]
    fn undetermined_with_single_observation() {
        let mut m = HeartbeatMonitor::new();
        m.observe(TrainAppId(0), 100.0);
        assert_eq!(m.status(TrainAppId(0), 200.0), TrainStatus::Undetermined);
        assert_eq!(m.next_departure(200.0), None);
    }

    #[test]
    fn next_departure_skips_a_dead_train() {
        let mut m = HeartbeatMonitor::new();
        for j in 0..5 {
            m.observe(TrainAppId(0), j as f64 * 300.0); // last beat at 1200
            m.observe(TrainAppId(1), 3_000.0 + j as f64 * 600.0); // last at 5400
        }
        // Train 0 is overdue by far more than its grace and would
        // otherwise predict the earlier departure.
        assert_eq!(m.status(TrainAppId(0), 5_500.0), TrainStatus::Dead);
        let (train, at) = m.next_departure(5_500.0).unwrap();
        assert_eq!(train, TrainAppId(1));
        assert!((at - 6_000.0).abs() < 1.0, "{at}");
    }

    #[test]
    fn liveness_lasts_two_and_a_half_cycles() {
        let m = fed_monitor();
        // Train 0 beats every 300 s, last at 1200 s: dead after 1950 s.
        assert_eq!(m.status(TrainAppId(0), 1_949.0), TrainStatus::Alive);
        assert_eq!(m.status(TrainAppId(0), 1_951.0), TrainStatus::Dead);
    }

    #[test]
    fn an_unseen_train_has_no_pattern_and_no_prediction() {
        let m = fed_monitor();
        assert_eq!(m.pattern(TrainAppId(5)), DetectedPattern::Unknown);
        assert_eq!(m.status(TrainAppId(5), 1_300.0), TrainStatus::Undetermined);
        assert!(m
            .departures_between(1_200.0, 5_000.0)
            .iter()
            .all(|&(train, _)| train != TrainAppId(5)));
        assert!(matches!(
            m.pattern(TrainAppId(0)),
            DetectedPattern::Fixed { .. }
        ));
        assert!(HeartbeatMonitor::new().next_departure(0.0).is_none());
    }
}
