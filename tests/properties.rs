//! Workspace-level property tests: invariants that must hold across the
//! whole pipeline for arbitrary workloads and configurations.

use etrain::sim::{BandwidthSource, Scenario, SchedulerKind};
use etrain::trace::packets::{CargoAppSpec, CargoWorkload};
use etrain::trace::rng::TruncatedNormal;
use proptest::prelude::*;

fn arb_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Baseline),
        (
            0.0f64..6.0,
            prop_oneof![Just(None), (1usize..32).prop_map(Some)]
        )
            .prop_map(|(theta, k)| SchedulerKind::ETrain { theta, k }),
        (0.02f64..4.0).prop_map(|omega| SchedulerKind::PerEs { omega }),
        (1_000.0f64..200_000.0).prop_map(|v_bytes| SchedulerKind::ETime { v_bytes }),
    ]
}

fn arb_workload() -> impl Strategy<Value = CargoWorkload> {
    prop::collection::vec((10.0f64..200.0, 500.0f64..50_000.0), 1..4).prop_map(|specs| {
        CargoWorkload::new(
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (interarrival, mean_size))| {
                    CargoAppSpec::new(
                        format!("app{i}"),
                        interarrival,
                        TruncatedNormal::from_mean_min(mean_size, mean_size / 10.0),
                    )
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No packet is ever lost or duplicated, energy components are
    /// non-negative and consistent, and ratios stay in range — for every
    /// scheduler and workload.
    #[test]
    fn pipeline_invariants(
        kind in arb_scheduler(),
        workload in arb_workload(),
        seed in 0u64..1000,
    ) {
        // Profiles must cover the workload's apps; reuse the paper trio
        // truncated/extended to the workload size.
        let mut profiles = etrain::sched::AppProfile::paper_defaults();
        profiles.truncate(workload.len().max(1));
        while profiles.len() < workload.len() {
            profiles.push(etrain::sched::AppProfile::new(
                format!("extra{}", profiles.len()),
                etrain::sched::CostProfile::weibo(120.0),
            ));
        }
        let generated = workload.generate(900.0, seed).len();
        let report = Scenario::paper_default()
            .duration_secs(900)
            .workload(workload)
            .profiles(profiles)
            .scheduler(kind)
            .seed(seed)
            .run();

        prop_assert_eq!(report.packets_completed + report.packets_unfinished, generated);
        prop_assert!(report.transmission_energy_j >= 0.0);
        prop_assert!(report.tail_energy_j >= 0.0);
        prop_assert!((report.extra_energy_j
            - report.transmission_energy_j
            - report.tail_energy_j).abs() < 1e-6);
        prop_assert!((0.0..=1.0).contains(&report.deadline_violation_ratio));
        prop_assert!(report.normalized_delay_s >= 0.0);
        prop_assert!(report.busy_time_s >= 0.0 && report.busy_time_s <= 900.0 + 1e-6);
    }

    /// The baseline never defers: its normalized delay is always ~0 and it
    /// never leaves packets in a queue (only in-flight work may remain).
    #[test]
    fn baseline_has_zero_scheduling_delay(seed in 0u64..1000) {
        let report = Scenario::paper_default()
            .duration_secs(600)
            .scheduler(SchedulerKind::Baseline)
            .seed(seed)
            .run();
        prop_assert!(report.normalized_delay_s < 1e-9);
    }

    /// Raising Θ with everything else fixed never increases energy
    /// (more deferral can only merge more tails) — checked on a
    /// constant-bandwidth channel where transfer times cannot shift.
    #[test]
    fn theta_monotonicity_on_constant_channel(seed in 0u64..200) {
        let base = Scenario::paper_default()
            .duration_secs(1200)
            .bandwidth(BandwidthSource::Constant(500_000.0))
            .seed(seed);
        let low = base.clone()
            .scheduler(SchedulerKind::ETrain { theta: 0.5, k: None })
            .run();
        let high = base
            .scheduler(SchedulerKind::ETrain { theta: 8.0, k: None })
            .run();
        // Allow a small tolerance: deferral can push work past the horizon
        // boundary, truncating different amounts of tail.
        prop_assert!(
            high.extra_energy_j <= low.extra_energy_j * 1.05 + 5.0,
            "theta 8 used {} J vs theta 0.5 {} J (seed {})",
            high.extra_energy_j, low.extra_energy_j, seed
        );
    }

    /// The same (scenario, seed) is always bitwise reproducible.
    #[test]
    fn determinism(kind in arb_scheduler(), seed in 0u64..100) {
        let make = || Scenario::paper_default()
            .duration_secs(600)
            .scheduler(kind)
            .seed(seed)
            .run();
        prop_assert_eq!(make(), make());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The capture classifier finds every planted heartbeat flow (recall 1)
    /// without false positives (precision 1) across capture shapes.
    #[test]
    fn capture_classifier_is_exact(
        burst_interarrival in 60.0f64..400.0,
        noise_rate in 0.0f64..0.1,
        seed in 0u64..500,
    ) {
        use etrain::hb::identify_heartbeat_flows;
        use etrain::trace::capture::{synthesize_capture, CaptureConfig};
        use etrain::trace::heartbeats::TrainAppSpec;

        let capture = synthesize_capture(&CaptureConfig {
            trains: TrainAppSpec::paper_trio(),
            burst_interarrival_s: burst_interarrival,
            burst_len_max: 40,
            noise_rate,
            duration_s: 3600.0,
        }, seed);
        let flows = identify_heartbeat_flows(&capture, &Default::default());
        let mut found: Vec<_> = flows.iter().map(|f| f.flow).collect();
        found.sort();
        let mut truth: Vec<_> = capture.truth.iter().map(|(k, _)| *k).collect();
        truth.sort();
        prop_assert_eq!(found, truth);
    }

    /// Bounded admission in the live core: for any shed policy, capacity
    /// and interleaving of heartbeats, the deferred backlog never exceeds
    /// the global capacity and every submission is accounted for exactly
    /// once — still pending, decided, or shed (request conservation).
    #[test]
    fn core_admission_bounds_backlog_and_conserves_requests(
        policy in prop_oneof![
            Just(etrain::sched::ShedPolicy::RejectNew),
            Just(etrain::sched::ShedPolicy::DropLowestValue),
            Just(etrain::sched::ShedPolicy::ForceFlushOldest),
        ],
        global_cap in 1usize..8,
        per_app_cap in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
        ops in prop::collection::vec(
            (0usize..3, 1_000u64..50_000, 0.0f64..5.0, prop::bool::weighted(0.15)),
            1..60,
        ),
    ) {
        use etrain::core::{AdmissionConfig, CoreConfig, ETrainCore, TransmitRequest};
        use etrain::sched::AppProfile;

        let mut admission = AdmissionConfig::unbounded()
            .with_global_capacity(global_cap)
            .with_policy(policy);
        if let Some(cap) = per_app_cap {
            admission = admission.with_per_app_capacity(cap);
        }
        let mut core = ETrainCore::new(CoreConfig {
            theta: 1e9, // defer everything, so the queues actually fill
            admission,
            ..CoreConfig::default()
        });
        let train = core.register_train("WeChat");
        let apps: Vec<_> = AppProfile::paper_defaults()
            .into_iter()
            .map(|p| core.register_cargo(p))
            .collect();

        let mut now = 0.0;
        for (app_idx, size, dt, heartbeat) in ops {
            now += dt;
            if heartbeat {
                core.on_heartbeat(train, now).unwrap();
            }
            core.submit(apps[app_idx], TransmitRequest::upload(size), now).unwrap();
            prop_assert!(
                core.pending_requests() <= global_cap,
                "backlog {} exceeds global capacity {global_cap}",
                core.pending_requests()
            );
            let stats = core.stats();
            prop_assert_eq!(
                stats.submitted,
                core.pending_requests() + stats.decided + stats.shed,
                "conservation broken: {:?}", stats
            );
        }
    }

    /// The same bounds at the scheduler layer, where the per-app backlog
    /// is observable: the guarded scheduler never exceeds either capacity
    /// no matter the policy, and conserves packets (admitted arrivals are
    /// pending, released, or shed — never lost or duplicated).
    #[test]
    fn guarded_admission_bounds_every_app_and_conserves_packets(
        policy in prop_oneof![
            Just(etrain::sched::ShedPolicy::RejectNew),
            Just(etrain::sched::ShedPolicy::DropLowestValue),
            Just(etrain::sched::ShedPolicy::ForceFlushOldest),
        ],
        global_cap in prop_oneof![Just(None), (1usize..8).prop_map(Some)],
        per_app_cap in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
        arrivals in prop::collection::vec((0usize..3, 500u64..20_000, 0.0f64..5.0), 1..60),
    ) {
        use etrain::sched::{
            AdmissionConfig, AppProfile, ETrainConfig, GuardedScheduler, HealthConfig,
            Scheduler,
        };
        use etrain::trace::packets::Packet;
        use etrain::trace::CargoAppId;

        let mut admission = AdmissionConfig::unbounded().with_policy(policy);
        if let Some(cap) = global_cap {
            admission = admission.with_global_capacity(cap);
        }
        if let Some(cap) = per_app_cap {
            admission = admission.with_per_app_capacity(cap);
        }
        let mut sched = GuardedScheduler::new(
            ETrainConfig { theta: 1e9, k: None, slot_s: 1.0 },
            HealthConfig::default(),
            AppProfile::paper_defaults(),
        )
        .with_admission(admission);

        let mut now = 0.0;
        let mut released = 0usize;
        let mut shed = 0usize;
        for (i, (app_idx, size, dt)) in arrivals.iter().enumerate() {
            now += dt;
            let packet = Packet {
                id: i as u64,
                app: CargoAppId(*app_idx),
                arrival_s: now,
                size_bytes: *size,
            };
            released += sched.on_arrival(packet, now).unwrap().len();
            shed += sched.take_shed().len();

            if let Some(cap) = global_cap {
                prop_assert!(sched.pending() <= cap, "global backlog over {cap}");
            }
            if let Some(cap) = per_app_cap {
                for app in 0..3 {
                    prop_assert!(
                        sched.pending_for(CargoAppId(app)) <= cap,
                        "app {app} backlog {} over per-app capacity {cap}",
                        sched.pending_for(CargoAppId(app))
                    );
                }
            }
            prop_assert_eq!(
                i + 1,
                sched.pending() + released + shed,
                "packet conservation broken after arrival {i}"
            );
        }
    }

    /// Diurnal generation respects the horizon, sorting and app bounds for
    /// arbitrary profiles.
    #[test]
    fn diurnal_traces_are_well_formed(
        peak in 0.0f64..24.0,
        amplitude in 0.0f64..1.0,
        start in 0.0f64..24.0,
        seed in 0u64..300,
    ) {
        use etrain::trace::diurnal::{generate_diurnal, DiurnalProfile};
        use etrain::trace::packets::CargoWorkload;

        let packets = generate_diurnal(
            &CargoWorkload::paper_default(0.08),
            DiurnalProfile::new(peak, amplitude),
            start,
            7200.0,
            seed,
        );
        for w in packets.windows(2) {
            prop_assert!(w[0].arrival_s <= w[1].arrival_s);
        }
        for (i, p) in packets.iter().enumerate() {
            prop_assert_eq!(p.id, i as u64);
            prop_assert!(p.arrival_s >= 0.0 && p.arrival_s < 7200.0);
            prop_assert!(p.app.index() < 3);
        }
    }
}
