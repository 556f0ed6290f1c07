//! Property-based tests for the radio substrate: the analytic tail-energy
//! model, the offline timeline integrator, and the online state machine are
//! three independent implementations of the same physics and must agree.

use etrain_radio::{
    analytic_extra_energy_j, merge_busy_periods, tail_energy_j, Radio, RadioParams, RrcState,
    Timeline, Transmission,
};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = RadioParams> {
    (
        0.0f64..100.0, // idle
        0.0f64..800.0, // fach extra
        0.0f64..800.0, // dch extra over fach
        0.1f64..30.0,  // delta dch
        0.1f64..30.0,  // delta fach
    )
        .prop_map(|(idle, fach_extra, dch_extra, dd, df)| {
            RadioParams::builder()
                .idle_mw(idle)
                .fach_mw(idle + fach_extra)
                .dch_mw(idle + fach_extra + dch_extra)
                .delta_dch_s(dd)
                .delta_fach_s(df)
                .build()
                .expect("generated parameters are ordered and finite")
        })
}

fn arb_transmissions() -> impl Strategy<Value = Vec<Transmission>> {
    prop::collection::vec((0.0f64..3000.0, 0.01f64..20.0), 0..40).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(start, dur)| Transmission::new(start, dur))
            .collect()
    })
}

proptest! {
    /// E_tail is non-negative, monotone non-decreasing in the gap, and
    /// bounded by the full-tail energy.
    #[test]
    fn tail_energy_monotone_and_bounded(
        params in arb_params(),
        a in -10.0f64..100.0,
        b in -10.0f64..100.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let e_lo = tail_energy_j(&params, lo);
        let e_hi = tail_energy_j(&params, hi);
        prop_assert!(e_lo >= 0.0);
        prop_assert!(e_lo <= e_hi + 1e-9);
        prop_assert!(e_hi <= params.full_tail_energy_j() + 1e-9);
    }

    /// E_tail is Lipschitz-continuous with constant p̃_D (no jumps at the
    /// piecewise breakpoints).
    #[test]
    fn tail_energy_lipschitz(
        params in arb_params(),
        x in -5.0f64..100.0,
        dx in 0.0f64..5.0,
    ) {
        let e0 = tail_energy_j(&params, x);
        let e1 = tail_energy_j(&params, x + dx);
        let max_slope = params.dch_extra_mw() / 1000.0;
        prop_assert!((e1 - e0).abs() <= max_slope * dx + 1e-9);
    }

    /// The timeline integrator and the analytic gap model agree on every
    /// schedule, including overlapping transmissions.
    #[test]
    fn timeline_matches_analytic(
        params in arb_params(),
        txs in arb_transmissions(),
    ) {
        let horizon = 4000.0;
        let timeline = Timeline::from_transmissions(&params, &txs, horizon);
        let analytic = analytic_extra_energy_j(&params, &txs, horizon);
        prop_assert!(
            (timeline.extra_energy_j() - analytic).abs() < 1e-6,
            "timeline {} vs analytic {}", timeline.extra_energy_j(), analytic
        );
    }

    /// The online state machine agrees with the offline timeline when driven
    /// with a disjoint schedule.
    #[test]
    fn online_matches_timeline(
        params in arb_params(),
        raw in prop::collection::vec((0.1f64..60.0, 0.01f64..5.0), 0..30),
    ) {
        // Build a strictly ordered, disjoint schedule from (gap, duration)
        // pairs so the online API's monotone-time contract holds.
        let mut txs = Vec::with_capacity(raw.len());
        let mut t = 0.0;
        for (gap, dur) in raw {
            t += gap;
            txs.push(Transmission::new(t, dur));
            t += dur;
        }
        let horizon = t + 200.0;
        let mut radio = Radio::new(params.clone());
        for tx in &txs {
            radio.start_transmission(tx.start_s);
            radio.end_transmission(tx.end_s());
        }
        radio.advance_to(horizon);
        let timeline = Timeline::from_transmissions(&params, &txs, horizon);
        prop_assert!(
            (radio.extra_energy_j() - timeline.extra_energy_j()).abs() < 1e-6,
            "online {} vs timeline {}", radio.extra_energy_j(), timeline.extra_energy_j()
        );
    }

    /// Timeline segments always partition [0, horizon].
    #[test]
    fn timeline_partitions_horizon(
        params in arb_params(),
        txs in arb_transmissions(),
    ) {
        let horizon = 4000.0;
        let timeline = Timeline::from_transmissions(&params, &txs, horizon);
        let segs = timeline.segments();
        prop_assert!(!segs.is_empty());
        prop_assert!((segs[0].start_s - 0.0).abs() < 1e-9);
        prop_assert!((segs[segs.len() - 1].end_s - horizon).abs() < 1e-9);
        for w in segs.windows(2) {
            prop_assert!((w[0].end_s - w[1].start_s).abs() < 1e-9);
            prop_assert!(w[0].duration_s() > 0.0);
        }
    }

    /// Deferring-and-aggregating a set of *disjoint* transmissions onto one
    /// back-to-back burst never costs more energy than the spread-out
    /// schedule — the core premise of eTrain. (Disjointness matters: two
    /// overlapping intervals merge into less busy time than their serial
    /// aggregation, so the property is stated for non-overlapping
    /// schedules, which is what a single radio produces anyway.)
    #[test]
    fn aggregation_never_increases_tail_energy(
        params in arb_params(),
        gaps in prop::collection::vec(0.0f64..120.0, 1..15),
        dur in 0.01f64..2.0,
    ) {
        let horizon = 4000.0;
        // Build a disjoint scattered schedule: consecutive starts separated
        // by at least one duration.
        let mut scattered = Vec::with_capacity(gaps.len());
        let mut t = 0.0;
        for gap in &gaps {
            scattered.push(Transmission::new(t, dur));
            t += dur + gap;
        }
        // Aggregate all packets back-to-back at the last start time.
        let anchor = scattered.last().expect("non-empty").start_s;
        let aggregated: Vec<Transmission> = (0..scattered.len())
            .map(|i| Transmission::new(anchor + i as f64 * dur, dur))
            .collect();
        let e_scattered = analytic_extra_energy_j(&params, &scattered, horizon);
        let e_aggregated = analytic_extra_energy_j(&params, &aggregated, horizon);
        prop_assert!(e_aggregated <= e_scattered + 1e-6,
            "aggregated {e_aggregated} > scattered {e_scattered}");
    }

    /// Time spent across the three states always sums to the horizon.
    #[test]
    fn time_in_state_sums_to_horizon(
        params in arb_params(),
        txs in arb_transmissions(),
    ) {
        let horizon = 4000.0;
        let timeline = Timeline::from_transmissions(&params, &txs, horizon);
        let total = timeline.time_in_state_s(RrcState::Idle)
            + timeline.time_in_state_s(RrcState::Fach)
            + timeline.time_in_state_s(RrcState::Dch);
        prop_assert!(
            (total - horizon).abs() < 1e-6,
            "state times sum to {total}, horizon {horizon}"
        );
    }

    /// Transmission::validate accepts exactly the finite, non-negative
    /// timings and rejects every negative or non-finite corruption.
    #[test]
    fn transmission_validate_rejects_bad_inputs(
        start in 0.0f64..3000.0,
        dur in 0.0f64..20.0,
        which in 0usize..5,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-9, -5.0][which];
        prop_assert!(Transmission::new(start, dur).validate().is_ok());
        prop_assert!(Transmission::new(bad, dur).validate().is_err());
        prop_assert!(Transmission::new(start, bad).validate().is_err());
        prop_assert!(Transmission::new(bad, bad).validate().is_err());
    }

    /// The independent audit accepts every timeline the constructor builds,
    /// for arbitrary (unsorted, overlapping) valid transmission sets.
    #[test]
    fn audit_accepts_constructed_timelines(
        params in arb_params(),
        txs in arb_transmissions(),
    ) {
        let timeline = Timeline::from_transmissions(&params, &txs, 4000.0);
        let audit = timeline.audit(&txs);
        prop_assert!(audit.is_ok(), "audit rejected a valid timeline: {:?}", audit);
    }

    /// Merged busy periods are exactly the union of the (horizon-clipped)
    /// transmissions: sorted, strictly separated, inside `[0, horizon)`,
    /// every transmission inside one period, and every period bounded by
    /// a transmission's start and a transmission's clipped end. The
    /// forced edge cases cover a transmission clipped to zero length at
    /// the horizon, one entirely past it, and a back-to-back pair that
    /// must merge into one period.
    #[test]
    fn merged_busy_periods_are_the_union_of_transmissions(
        mut txs in arb_transmissions(),
        horizon in 1.0f64..4000.0,
    ) {
        txs.push(Transmission::new(horizon, 5.0));
        txs.push(Transmission::new(horizon + 1.0, 1.0));
        txs.push(Transmission::new(0.25, 0.25));
        txs.push(Transmission::new(0.5, 0.25));
        let merged = merge_busy_periods(&txs, horizon);
        prop_assert!(!merged.is_empty(), "the back-to-back pair is inside every horizon");
        for &(start, end) in &merged {
            prop_assert!(0.0 <= start && start < end && end <= horizon);
            prop_assert!(txs.iter().any(|t| t.start_s == start));
            prop_assert!(txs.iter().any(|t| (t.start_s + t.duration_s).min(horizon) == end));
        }
        for w in merged.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "periods {:?} and {:?} touch", w[0], w[1]);
        }
        for t in txs.iter().filter(|t| t.start_s < horizon) {
            let end = (t.start_s + t.duration_s).min(horizon);
            let holders = merged
                .iter()
                .filter(|&&(s, e)| s <= t.start_s && end <= e)
                .count();
            prop_assert_eq!(holders, 1, "transmission {:?} not in exactly one period", t);
        }
    }

    /// The timeline depends only on the set of transmissions, not on the
    /// order they are listed in: reversed and rotated schedules build
    /// identical segments and bit-identical energy integrals.
    #[test]
    fn timeline_is_independent_of_transmission_order(
        params in arb_params(),
        mut txs in arb_transmissions(),
        horizon in 1.0f64..4000.0,
        rotate in 0usize..64,
    ) {
        txs.push(Transmission::new(horizon, 5.0));
        txs.push(Transmission::new(0.25, 0.25));
        txs.push(Transmission::new(0.5, 0.25));
        let fresh = Timeline::from_transmissions(&params, &txs, horizon);
        let mut reordered = txs.clone();
        reordered.reverse();
        let len = reordered.len();
        reordered.rotate_left(rotate % len);
        let other = Timeline::from_transmissions(&params, &reordered, horizon);
        prop_assert_eq!(&other, &fresh);
        prop_assert_eq!(
            other.extra_energy_j().to_bits(),
            fresh.extra_energy_j().to_bits()
        );
        prop_assert_eq!(other.time_in_states_s(), fresh.time_in_states_s());
        prop_assert!(other.audit(&reordered).is_ok());
    }

    /// The linear-walk batch sampler agrees bit-for-bit with per-sample
    /// state lookups.
    #[test]
    fn sample_into_matches_per_sample_lookup(
        params in arb_params(),
        txs in arb_transmissions(),
        dt in 0.05f64..10.0,
    ) {
        let timeline = Timeline::from_transmissions(&params, &txs, 500.0);
        let mut buf = Vec::new();
        timeline.sample_into(dt, &mut buf);
        let trace = timeline.sample(dt);
        prop_assert_eq!(&buf, trace.samples_mw());
        for (i, &got) in buf.iter().enumerate() {
            let want = timeline.state_at(i as f64 * dt).power_mw(timeline.params());
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// state_at is consistent with the segment list.
    #[test]
    fn state_at_matches_segments(
        params in arb_params(),
        txs in arb_transmissions(),
        probe in 0.0f64..3999.0,
    ) {
        let timeline = Timeline::from_transmissions(&params, &txs, 4000.0);
        let by_lookup = timeline.state_at(probe);
        let by_scan = timeline
            .segments()
            .iter()
            .find(|seg| probe >= seg.start_s && probe < seg.end_s)
            .map(|seg| seg.state)
            .unwrap_or(RrcState::Idle);
        prop_assert_eq!(by_lookup, by_scan);
    }
}
