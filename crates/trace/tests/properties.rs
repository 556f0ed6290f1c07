//! Property tests for the trace substrates: generator statistics and
//! sorted outputs.

use etrain_trace::bandwidth::{generate_regimes, BandwidthTrace, RegimeSpec};
use etrain_trace::heartbeats::{synthesize, CyclePattern, TrainAppSpec};
use etrain_trace::packets::{CargoAppSpec, CargoWorkload};
use etrain_trace::rng::TruncatedNormal;
use proptest::prelude::*;

proptest! {
    /// Any workload's generated trace is sorted, densely numbered, within
    /// the horizon, and respects per-app size minimums.
    #[test]
    fn packet_traces_are_well_formed(
        interarrivals in prop::collection::vec(5.0f64..500.0, 1..5),
        horizon in 100.0f64..5000.0,
        seed in 0u64..500,
    ) {
        let workload = CargoWorkload::new(
            interarrivals.iter().enumerate().map(|(i, &gap)| {
                CargoAppSpec::new(
                    format!("a{i}"),
                    gap,
                    TruncatedNormal::from_mean_min(10_000.0, 1_000.0),
                )
            }).collect(),
        );
        let packets = workload.generate(horizon, seed);
        for w in packets.windows(2) {
            prop_assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        for (i, p) in packets.iter().enumerate() {
            prop_assert_eq!(p.id, i as u64);
            prop_assert!(p.arrival_s >= 0.0 && p.arrival_s < horizon);
            prop_assert!(p.size_bytes >= 1_000);
            prop_assert!(p.app.index() < interarrivals.len());
        }
    }

    /// Heartbeat synthesis emits each app's count within one beat of the
    /// ideal `horizon / cycle` for fixed cycles.
    #[test]
    fn heartbeat_counts_match_cycles(
        cycle in 60.0f64..900.0,
        phase in 0.0f64..60.0,
        horizon in 1000.0f64..20_000.0,
    ) {
        let spec = TrainAppSpec::fixed("t", cycle, 100, phase);
        let beats = synthesize(&[spec], horizon, 1);
        let ideal = ((horizon - phase) / cycle).ceil() as usize;
        prop_assert!(beats.len() == ideal || beats.len() + 1 == ideal,
            "got {} beats, ideal {}", beats.len(), ideal);
        for w in beats.windows(2) {
            prop_assert!((w[1].time_s - w[0].time_s - cycle).abs() < 1e-9);
        }
    }

    /// Doubling patterns always produce non-decreasing gaps bounded by
    /// `max_s`.
    #[test]
    fn doubling_gaps_monotone_and_capped(
        initial in 10.0f64..120.0,
        beats in 2u32..10,
        factor_levels in 1u32..6,
    ) {
        let max_s = initial * 2f64.powi(factor_levels as i32);
        let pattern = CyclePattern::Doubling {
            initial_s: initial,
            beats_per_level: beats,
            max_s,
        };
        let times = pattern.departure_times(0.0, initial * 500.0);
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        for w in gaps.windows(2) {
            prop_assert!(w[1] + 1e-9 >= w[0], "gaps decreased");
        }
        for g in gaps {
            prop_assert!(g <= max_s + 1e-9);
        }
    }

    /// Bandwidth generation: requested duration honored, all samples at or
    /// above the fade floor, and transfer time inversely bounded by min/max
    /// bandwidth.
    #[test]
    fn bandwidth_traces_are_physical(
        duration in 60.0f64..2000.0,
        median in 50_000.0f64..2_000_000.0,
        sigma in 0.05f64..1.0,
        ar in 0.0f64..0.99,
        seed in 0u64..500,
        size in 1_000u64..1_000_000,
    ) {
        let trace = generate_regimes(&[RegimeSpec {
            duration_s: duration,
            median_bps: median,
            sigma_log: sigma,
            ar_coeff: ar,
        }], seed);
        prop_assert_eq!(trace.len(), duration.round() as usize);
        let samples = trace.samples_bps();
        let min_bps = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max_bps = samples.iter().copied().fold(0.0, f64::max);
        prop_assert!(min_bps >= 8_000.0);

        let t = trace.transfer_time_s(0.0, size);
        let bits = size as f64 * 8.0;
        prop_assert!(t >= bits / max_bps - 1e-6);
        prop_assert!(t <= bits / min_bps + 1e-6);
    }

    /// `transfer_time_s` is additive: sending `a + b` bytes takes exactly
    /// as long as sending `a`, then `b` from where that left off.
    #[test]
    fn transfer_time_is_additive(
        a in 1_000u64..500_000,
        b in 1_000u64..500_000,
        start in 0.0f64..100.0,
        seed in 0u64..100,
    ) {
        let trace = generate_regimes(&[RegimeSpec {
            duration_s: 500.0,
            median_bps: 400_000.0,
            sigma_log: 0.5,
            ar_coeff: 0.9,
        }], seed);
        let whole = trace.transfer_time_s(start, a + b);
        let first = trace.transfer_time_s(start, a);
        let second = trace.transfer_time_s(start + first, b);
        prop_assert!((whole - (first + second)).abs() < 1e-6,
            "whole {whole} vs split {}", first + second);
    }
}

#[test]
fn constant_trace_transfer_time_is_exact() {
    let trace = BandwidthTrace::constant(1_000_000.0);
    // 125 kB at 1 Mbps = 1 s.
    assert!((trace.transfer_time_s(3.0, 125_000) - 1.0).abs() < 1e-9);
}
