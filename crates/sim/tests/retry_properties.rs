//! Property tests for the fault-injection and retry layer: packet
//! conservation under arbitrary fault plans, bounded/monotone backoff,
//! and determinism of faulted runs.

use etrain_sim::{FaultPlan, RetryPolicy, Scenario, SchedulerKind};
use etrain_trace::packets::CargoWorkload;
use proptest::prelude::*;

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..1_000_000,
        0.0f64..0.9,
        0.0f64..0.4,
        (prop::bool::weighted(0.5), 50.0f64..400.0, 10.0f64..200.0),
        (prop::bool::weighted(0.5), 100.0f64..500.0, 20.0f64..300.0),
    )
        .prop_map(|(seed, loss, hb_drop, outage, death)| {
            let mut plan = FaultPlan::seeded(seed)
                .with_loss(loss)
                .with_heartbeat_drops(hb_drop);
            if outage.0 {
                plan = plan.with_outage(outage.1, outage.1 + outage.2);
            }
            if death.0 {
                plan = plan.with_train_death(death.1, death.1 + death.2);
            }
            plan
        })
}

fn arb_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Baseline),
        (0.0f64..8.0).prop_map(|theta| SchedulerKind::ETrain { theta, k: None }),
    ]
}

fn arb_retry() -> impl Strategy<Value = RetryPolicy> {
    (
        0.5f64..10.0,
        1.1f64..3.0,
        0.0f64..0.5,
        1u32..8,
        60.0f64..1200.0,
    )
        .prop_map(|(base, factor, jitter, attempts, give_up)| RetryPolicy {
            base_backoff_s: base,
            backoff_factor: factor,
            max_backoff_s: 120.0,
            jitter_frac: jitter,
            max_attempts: attempts,
            give_up_age_s: give_up,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: under any fault plan, every generated packet ends in
    /// exactly one terminal state and no packet is duplicated.
    #[test]
    fn packets_conserved_under_arbitrary_faults(
        plan in arb_fault_plan(),
        kind in arb_scheduler(),
        retry in arb_retry(),
        seed in 1u64..1000,
    ) {
        let scenario = Scenario::paper_default()
            .duration_secs(900)
            .seed(seed)
            .scheduler(kind)
            .faults(plan)
            .retry_policy(retry);
        let (report, output, _) = scenario
            .try_run_journaled_on(&scenario.generate_traces())
            .expect("valid scenario");

        let generated = CargoWorkload::paper_default(0.08).generate(900.0, seed).len();
        prop_assert_eq!(
            report.packets_completed + report.packets_abandoned + report.packets_unfinished,
            generated,
            "terminal states must partition the workload"
        );

        let mut ids: Vec<u64> = output
            .completed
            .iter()
            .map(|c| c.packet.id)
            .chain(output.abandoned.iter().map(|a| a.packet.id))
            .collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "a packet reached two terminal states");
    }

    /// Backoff delays are bounded by `max_backoff_s` and monotone in the
    /// attempt count; jitter perturbs by at most `jitter_frac / 2`.
    #[test]
    fn backoff_bounded_and_monotone(
        retry in arb_retry(),
        attempt in 1u32..20,
        unit in 0.0f64..1.0,
    ) {
        let d = retry.backoff_s(attempt);
        prop_assert!(d <= retry.max_backoff_s + 1e-9);
        prop_assert!(d >= retry.base_backoff_s - 1e-9);
        prop_assert!(retry.backoff_s(attempt + 1) >= d - 1e-9, "backoff must not shrink");

        let jittered = retry.jittered_backoff_s(attempt, unit);
        let half = retry.jitter_frac / 2.0;
        prop_assert!(jittered >= d * (1.0 - half) - 1e-9);
        prop_assert!(jittered <= d * (1.0 + half) + 1e-9);
    }

    /// Determinism: the same scenario seed and fault plan produce the same
    /// report, field for field.
    #[test]
    fn identical_seeds_give_identical_reports(
        plan in arb_fault_plan(),
        kind in arb_scheduler(),
        seed in 1u64..1000,
    ) {
        let scenario = Scenario::paper_default()
            .duration_secs(600)
            .seed(seed)
            .scheduler(kind)
            .faults(plan);
        prop_assert_eq!(scenario.run(), scenario.run());
    }
}
