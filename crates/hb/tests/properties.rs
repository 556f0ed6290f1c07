//! Property tests for the heartbeat monitor: the detector must recover
//! cycles under bounded jitter and never predict departures in the past.

use etrain_hb::{CycleDetector, DetectedPattern, HeartbeatMonitor};
use etrain_trace::TrainAppId;
use proptest::prelude::*;

proptest! {
    /// A fixed cycle with bounded jitter is detected within the jitter
    /// bound, for any cycle in the measured range and any phase.
    #[test]
    fn fixed_cycle_recovered_under_jitter(
        cycle in 60.0f64..1800.0,
        phase in 0.0f64..300.0,
        jitter_frac in 0.0f64..0.04,
        seed in 0u64..1000,
        n in 5usize..30,
    ) {
        let jitter = cycle * jitter_frac;
        let mut rng = etrain_trace::rng::seeded(seed);
        let mut detector = CycleDetector::new();
        for i in 0..n {
            use rand::Rng;
            let noise = if jitter > 0.0 { rng.gen_range(-jitter..=jitter) } else { 0.0 };
            detector.observe(phase + i as f64 * cycle + noise);
        }
        match detector.detect() {
            DetectedPattern::Fixed { cycle_s, confidence } => {
                prop_assert!((cycle_s - cycle).abs() <= 2.0 * jitter + 1e-6,
                    "estimated {cycle_s} vs true {cycle} (jitter {jitter})");
                prop_assert!(confidence > 0.5);
            }
            other => prop_assert!(false, "expected fixed cycle, got {other:?}"),
        }
    }

    /// Predictions are always strictly in the future of the query time.
    #[test]
    fn predictions_are_in_the_future(
        cycle in 60.0f64..600.0,
        n in 3usize..20,
        query_offset in 0.0f64..2000.0,
    ) {
        let mut monitor = HeartbeatMonitor::new();
        for i in 0..n {
            monitor.observe(TrainAppId(0), i as f64 * cycle);
        }
        let last = (n - 1) as f64 * cycle;
        let query = last + query_offset.min(cycle * 2.0); // stay within liveness
        // Walking from prediction to prediction keeps moving forward.
        let mut now = query;
        for _ in 0..10 {
            let Some((_, when)) = monitor.next_departure(now) else { break };
            prop_assert!(when > now, "predicted {when} <= query {now}");
            now = when;
        }
    }

    /// Doubling cycles are never misclassified as fixed once at least two
    /// full levels have been observed.
    #[test]
    fn doubling_not_misread_as_fixed(
        initial in 30.0f64..120.0,
        beats_per_level in 3u32..8,
    ) {
        let mut detector = CycleDetector::new();
        let mut t = 0.0;
        for level in 0..3 {
            let cycle = initial * 2f64.powi(level);
            for _ in 0..beats_per_level {
                detector.observe(t);
                t += cycle;
            }
        }
        match detector.detect() {
            DetectedPattern::Fixed { .. } =>
                prop_assert!(false, "doubling misdetected as fixed"),
            DetectedPattern::Adaptive { levels_s, .. } =>
                prop_assert!(levels_s.len() >= 2),
            DetectedPattern::Unknown => {} // acceptable: never wrongly fixed
        }
    }

    /// Observation order does not matter: shuffled input produces the same
    /// detection as sorted input.
    #[test]
    fn detection_is_order_invariant(
        cycle in 100.0f64..400.0,
        n in 4usize..15,
        seed in 0u64..100,
    ) {
        use rand::seq::SliceRandom;
        let times: Vec<f64> = (0..n).map(|i| i as f64 * cycle).collect();
        let mut shuffled = times.clone();
        shuffled.shuffle(&mut etrain_trace::rng::seeded(seed));

        let mut sorted_det = CycleDetector::new();
        let mut shuffled_det = CycleDetector::new();
        for &t in &times {
            sorted_det.observe(t);
        }
        for &t in &shuffled {
            shuffled_det.observe(t);
        }
        prop_assert_eq!(sorted_det.detect(), shuffled_det.detect());
    }
}

proptest! {
    /// The two independent estimators — median-gap detection and epoch
    /// folding — agree on fixed cycles under bounded jitter.
    #[test]
    fn median_and_folding_estimators_agree(
        cycle in 60.0f64..900.0,
        phase in 0.0f64..100.0,
        seed in 0u64..300,
        n in 6usize..25,
    ) {
        use rand::Rng;
        let jitter = cycle * 0.01;
        let mut rng = etrain_trace::rng::seeded(seed);
        let times: Vec<f64> = (0..n)
            .map(|i| phase + i as f64 * cycle + rng.gen_range(-jitter..=jitter))
            .collect();

        let mut detector = CycleDetector::new();
        for &t in &times {
            detector.observe(t);
        }
        let median = match detector.detect() {
            DetectedPattern::Fixed { cycle_s, .. } => cycle_s,
            other => return Err(TestCaseError::fail(format!("median detector: {other:?}"))),
        };
        let folded = etrain_hb::estimate_period(&times)
            .ok_or_else(|| TestCaseError::fail("folding found no period"))?;
        prop_assert!(
            (median - folded).abs() <= cycle * 0.03,
            "median {median} vs folded {folded} (true {cycle})"
        );
    }
}
