//! Property tests for the scheduling layer: conservation, causality and
//! bound-respect for every algorithm under arbitrary arrival sequences.

use etrain_sched::{
    AppProfile, BaselineScheduler, CostProfile, ETimeConfig, ETimeScheduler, ETrainConfig,
    ETrainScheduler, PerEsConfig, PerEsScheduler, Scheduler, SlotContext,
};
use etrain_trace::packets::Packet;
use etrain_trace::CargoAppId;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Algo {
    Baseline,
    ETrain { theta: f64, k: Option<usize> },
    PerEs { omega: f64 },
    ETime { v_bytes: f64 },
}

fn build(algo: Algo) -> Box<dyn Scheduler> {
    let profiles = AppProfile::paper_trio(45.0);
    match algo {
        Algo::Baseline => Box::new(BaselineScheduler::new(profiles)),
        Algo::ETrain { theta, k } => Box::new(ETrainScheduler::new(
            ETrainConfig {
                theta,
                k,
                slot_s: 1.0,
            },
            profiles,
        )),
        Algo::PerEs { omega } => Box::new(PerEsScheduler::new(
            PerEsConfig {
                omega,
                ..PerEsConfig::default()
            },
            profiles,
        )),
        Algo::ETime { v_bytes } => Box::new(ETimeScheduler::new(
            ETimeConfig {
                v_bytes,
                slot_s: 60.0,
            },
            profiles,
        )),
    }
}

fn arb_algo() -> impl Strategy<Value = Algo> {
    prop_oneof![
        Just(Algo::Baseline),
        (
            0.0f64..8.0,
            prop_oneof![Just(None), (1usize..16).prop_map(Some)]
        )
            .prop_map(|(theta, k)| Algo::ETrain { theta, k }),
        (0.01f64..5.0).prop_map(|omega| Algo::PerEs { omega }),
        (0.0f64..100_000.0).prop_map(|v_bytes| Algo::ETime { v_bytes }),
    ]
}

/// (inter-arrival gap, app index, size) triples.
fn arb_arrivals() -> impl Strategy<Value = Vec<(f64, usize, u64)>> {
    prop::collection::vec((0.1f64..40.0, 0usize..3, 100u64..50_000), 0..50)
}

/// Slot schedule: which slots carry a heartbeat.
fn arb_heartbeat_slots() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(prop::bool::weighted(0.05), 600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation and causality: every packet is released exactly once
    /// or still pending; no release precedes its arrival slot.
    #[test]
    fn conservation_and_causality(
        algo in arb_algo(),
        arrivals in arb_arrivals(),
        hb_slots in arb_heartbeat_slots(),
    ) {
        let mut sched = build(algo);
        let slot_s = sched.slot_s();

        // Materialize packets.
        let mut packets = Vec::new();
        let mut t = 0.0;
        for (i, (gap, app, size)) in arrivals.iter().enumerate() {
            t += gap;
            packets.push(Packet {
                id: i as u64,
                app: CargoAppId(*app),
                arrival_s: t,
                size_bytes: *size,
            });
        }

        let horizon = 600.0;
        let mut released: Vec<(f64, Packet)> = Vec::new();
        let mut next = 0usize;
        let mut slot_t = 0.0;
        let mut slot_idx = 0usize;
        while slot_t < horizon {
            while next < packets.len() && packets[next].arrival_s <= slot_t {
                let p = packets[next];
                for r in sched.on_arrival(p, p.arrival_s).expect("registered app") {
                    released.push((p.arrival_s, r));
                }
                next += 1;
            }
            let ctx = SlotContext {
                now_s: slot_t,
                heartbeat_departing: hb_slots.get(slot_idx).copied().unwrap_or(false),
                predicted_bandwidth_bps: 400_000.0,
                trains_alive: true,
            };
            for r in sched.on_slot(&ctx) {
                released.push((slot_t, r));
            }
            slot_t += slot_s;
            slot_idx += 1;
        }

        // No duplicates.
        let mut ids: Vec<u64> = released.iter().map(|(_, p)| p.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "duplicate release");

        // Conservation: released + pending = offered (`next` counts the
        // packets actually handed to the scheduler).
        prop_assert_eq!(released.len() + sched.pending(), next);

        // Causality: release time >= arrival time.
        for (when, p) in &released {
            prop_assert!(*when + 1e-9 >= p.arrival_s,
                "packet {} released at {} before arrival {}", p.id, when, p.arrival_s);
        }

        // pending_bytes is consistent with pending count (both zero together).
        prop_assert_eq!(sched.pending() == 0, sched.pending_bytes() == 0);
    }

    /// eTrain's piggyback bound: a heartbeat slot releases at most k
    /// packets; a non-heartbeat slot at most 1.
    #[test]
    fn etrain_respects_k_bound(
        k in 1usize..8,
        n_packets in 1usize..30,
    ) {
        let mut sched = ETrainScheduler::new(
            ETrainConfig { theta: 0.0, k: Some(k), slot_s: 1.0 },
            AppProfile::paper_trio(45.0),
        );
        for i in 0..n_packets {
            let p = Packet {
                id: i as u64,
                app: CargoAppId(i % 3),
                arrival_s: 0.0,
                size_bytes: 1_000,
            };
            sched.on_arrival(p, 0.0).expect("registered app");
        }
        let hb_ctx = SlotContext {
            now_s: 10.0,
            heartbeat_departing: true,
            predicted_bandwidth_bps: 1e6,
            trains_alive: true,
        };
        prop_assert!(sched.on_slot(&hb_ctx).len() <= k);
        let plain_ctx = SlotContext { now_s: 11.0, heartbeat_departing: false, ..hb_ctx };
        prop_assert!(sched.on_slot(&plain_ctx).len() <= 1);
    }

    /// Instantaneous cost P(t) is monotone in time while the queue is
    /// untouched (costs only age upward).
    #[test]
    fn queue_cost_monotone_in_time(
        ages in prop::collection::vec(0.0f64..200.0, 1..10),
        probe in 0.0f64..500.0,
    ) {
        let mut sched = ETrainScheduler::new(
            // Astronomically high Θ: the gate never opens, the queue only ages.
            ETrainConfig { theta: 1e18, k: None, slot_s: 1.0 },
            AppProfile::paper_trio(45.0),
        );
        for (i, age) in ages.iter().enumerate() {
            let p = Packet {
                id: i as u64,
                app: CargoAppId(i % 3),
                arrival_s: *age,
                size_bytes: 1_000,
            };
            sched.on_arrival(p, *age).expect("registered app");
        }
        let t0 = 200.0 + probe;
        prop_assert!(sched.total_cost(t0 + 10.0) >= sched.total_cost(t0) - 1e-9);
    }
}

proptest! {
    /// Backoff extremes: even when `backoff_factor^(n-1)` overflows f64 to
    /// infinity, the undelayed backoff clamps to `max_backoff_s` and stays
    /// finite and monotone for every attempt count up to `u32::MAX`.
    #[test]
    fn retry_backoff_clamps_under_overflow(
        base in 0.001f64..1e6,
        factor in 1.0f64..1e6,
        cap_mult in 1.0f64..1e3,
        attempts in prop::collection::vec(1u32..=u32::MAX, 1..16),
    ) {
        let policy = etrain_sched::RetryPolicy {
            base_backoff_s: base,
            backoff_factor: factor,
            max_backoff_s: base * cap_mult,
            ..etrain_sched::RetryPolicy::default()
        };
        prop_assert!(policy.validate().is_ok());
        for &n in &attempts {
            // factor^(n-1) reaches inf long before n = u32::MAX for any
            // factor > 1; the min() against the cap must absorb that.
            let d = policy.backoff_s(n);
            prop_assert!(d.is_finite(), "attempt {n}: got {d}");
            prop_assert!(d <= policy.max_backoff_s + 1e-12, "attempt {n}: {d}");
            prop_assert!(d >= 0.0);
            if n < u32::MAX {
                prop_assert!(policy.backoff_s(n + 1) >= d - 1e-12, "monotone at {n}");
            }
        }
    }

    /// Deadline-aware give-up: whenever `decide` schedules a retry, the
    /// packet's age at that retry is within `give_up_age_s` — the policy
    /// never schedules an attempt past its own deadline, for any jitter,
    /// age and backoff geometry (including overflowing factors).
    #[test]
    fn retry_never_schedules_past_the_deadline(
        base in 0.001f64..1e4,
        factor in 1.0f64..1e6,
        cap_mult in 1.0f64..1e3,
        jitter in 0.0f64..=1.0,
        give_up in 0.1f64..1e6,
        failed in 1u32..=u32::MAX,
        now in 0.0f64..1e6,
        arrival_back in 0.0f64..1e6,
        unit in 0.0f64..1.0,
    ) {
        let policy = etrain_sched::RetryPolicy {
            base_backoff_s: base,
            backoff_factor: factor,
            max_backoff_s: base * cap_mult,
            jitter_frac: jitter,
            max_attempts: u32::MAX,
            give_up_age_s: give_up,
        };
        prop_assert!(policy.validate().is_ok());
        let arrival = now - arrival_back;
        match policy.decide(failed, now, arrival, unit) {
            etrain_sched::RetryDecision::RetryAfter(delay) => {
                prop_assert!(delay.is_finite() && delay >= 0.0, "delay {delay}");
                let age_at_retry = now + delay - arrival;
                prop_assert!(
                    age_at_retry <= give_up + 1e-9,
                    "age {age_at_retry} exceeds give-up {give_up}"
                );
            }
            etrain_sched::RetryDecision::Abandon => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The float evidence behind `CostProfile::is_nondecreasing`: stepping
    /// the delay up by one ulp, from a few ulps below each profile's kink
    /// to a few above it, never lowers the cost.
    #[test]
    fn cost_never_dips_across_a_kink(
        deadline_s in 1e-3f64..1e6,
        steepness in 0.0f64..10.0,
        ceiling in 0.0f64..10.0,
    ) {
        let profiles = [
            CostProfile::mail(deadline_s),
            CostProfile::weibo(deadline_s),
            CostProfile::cloud(deadline_s),
            CostProfile::LinearThenSteep { deadline_s, steepness },
            CostProfile::LinearThenConstant { deadline_s, ceiling },
        ];
        for p in profiles {
            prop_assert!(p.is_nondecreasing(), "{p:?}");
            let mut d = deadline_s;
            for _ in 0..16 {
                d = d.next_down();
            }
            for _ in 0..32 {
                let up = d.next_up();
                prop_assert!(p.cost(up) >= p.cost(d), "{p:?} dips from {d} to {up}");
                d = up;
            }
        }
    }
}
