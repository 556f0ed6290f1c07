//! Push-vs-poll content freshness — why the heartbeat infrastructure
//! exists at all, quantified.
//!
//! The heartbeats eTrain exploits keep a push channel alive: when content
//! changes, the server notifies the phone over the already-open connection
//! (a notification that, by construction, arrives together with heartbeat
//! traffic on an already-promoted radio) and the app fetches immediately —
//! the fetch rides the same radio session. The alternative is polling:
//! fetch every `T` seconds whether or not anything changed, paying a
//! radio wake-up per poll and still serving content up to `T` seconds
//! stale.
//!
//! This module generates the fetch traces for both strategies from one
//! underlying content-update process, so the simulator can price them on
//! the same radio, and computes the staleness metric the energy numbers
//! trade against.

use etrain_trace::heartbeats::Heartbeat;
use etrain_trace::packets::Packet;
use etrain_trace::rng::{exponential, seeded};
use etrain_trace::CargoAppId;

/// One content update appearing on the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentUpdate {
    /// When the update became available, in seconds.
    pub available_s: f64,
}

/// Generates a Poisson content-update process with the given mean
/// inter-update time over `[0, horizon_s)`.
///
/// # Panics
///
/// Panics if `mean_interval_s` is not strictly positive.
pub fn generate_updates(mean_interval_s: f64, horizon_s: f64, seed: u64) -> Vec<ContentUpdate> {
    assert!(mean_interval_s > 0.0, "update interval must be positive");
    let mut rng = seeded(seed);
    let mut updates = Vec::new();
    let mut t = exponential(&mut rng, mean_interval_s);
    while t < horizon_s {
        updates.push(ContentUpdate { available_s: t });
        t += exponential(&mut rng, mean_interval_s);
    }
    updates
}

/// A fetch schedule with its freshness outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchPlan {
    /// The fetch transmissions as simulator packets for `app`.
    pub packets: Vec<Packet>,
    /// Mean staleness: how long updates waited before being fetched, in
    /// seconds (0 when there were no updates).
    pub mean_staleness_s: f64,
    /// Fetches that brought nothing new (polls between updates).
    pub empty_fetches: usize,
}

/// Polling: fetch every `period_s` (first poll at `phase_s`) regardless of
/// updates. Every poll costs a transmission; updates wait for the next
/// poll tick. The phase matters: a poll timer harmonically locked to some
/// app's heartbeat grid would accidentally share its tails, which no real
/// polling app arranges — pass a phase that breaks the lock.
pub fn plan_polling(
    updates: &[ContentUpdate],
    period_s: f64,
    phase_s: f64,
    fetch_bytes: u64,
    horizon_s: f64,
    app: CargoAppId,
) -> FetchPlan {
    assert!(period_s > 0.0, "poll period must be positive");
    assert!(phase_s >= 0.0, "poll phase must be non-negative");
    let mut packets = Vec::new();
    let mut t = phase_s + period_s;
    let mut id = 0;
    while t < horizon_s {
        packets.push(Packet {
            id,
            app,
            arrival_s: t,
            size_bytes: fetch_bytes,
        });
        id += 1;
        t += period_s;
    }
    let next_poll_after = |time_s: f64| -> f64 {
        let k = ((time_s - phase_s) / period_s).floor().max(0.0);
        phase_s + (k + 1.0) * period_s
    };
    let staleness: Vec<f64> = updates
        .iter()
        .filter_map(|u| {
            let next_poll = next_poll_after(u.available_s);
            (next_poll < horizon_s).then_some(next_poll - u.available_s)
        })
        .collect();
    let polls_with_news: std::collections::BTreeSet<u64> = updates
        .iter()
        .map(|u| next_poll_after(u.available_s))
        .filter(|&next_poll| next_poll < horizon_s)
        .map(|next_poll| next_poll.round() as u64)
        .collect();
    FetchPlan {
        empty_fetches: packets.len().saturating_sub(polls_with_news.len()),
        mean_staleness_s: mean(&staleness),
        packets,
    }
}

/// Push-based fetching: the server's notification arrives on the next
/// heartbeat after the update (the push channel shares the keep-alive
/// connection), and the fetch departs immediately — aligned with the
/// heartbeat's radio session by construction. No update, no fetch.
pub fn plan_push_fetch(
    updates: &[ContentUpdate],
    heartbeats: &[Heartbeat],
    fetch_bytes: u64,
    horizon_s: f64,
    app: CargoAppId,
) -> FetchPlan {
    let mut packets = Vec::new();
    let mut staleness = Vec::new();
    for (id, update) in updates.iter().enumerate() {
        let Some(hb) = heartbeats
            .iter()
            .find(|hb| hb.time_s >= update.available_s && hb.time_s < horizon_s)
        else {
            continue; // no heartbeat before the horizon: never fetched
        };
        packets.push(Packet {
            id: id as u64,
            app,
            arrival_s: hb.time_s,
            size_bytes: fetch_bytes,
        });
        staleness.push(hb.time_s - update.available_s);
    }
    // Re-number densely (some updates may have been dropped).
    for (i, p) in packets.iter_mut().enumerate() {
        p.id = i as u64;
    }
    FetchPlan {
        mean_staleness_s: mean(&staleness),
        empty_fetches: 0,
        packets,
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etrain_trace::heartbeats::{synthesize, TrainAppSpec};

    fn updates() -> Vec<ContentUpdate> {
        generate_updates(300.0, 7200.0, 4)
    }

    #[test]
    fn update_process_matches_rate() {
        let u = generate_updates(100.0, 100_000.0, 1);
        let n = u.len() as f64;
        assert!((n - 1000.0).abs() / 1000.0 < 0.1, "{n} updates");
        assert!(u.windows(2).all(|w| w[0].available_s <= w[1].available_s));
    }

    #[test]
    fn polling_fetches_on_schedule_and_measures_staleness() {
        let updates = vec![
            ContentUpdate { available_s: 50.0 },
            ContentUpdate { available_s: 260.0 },
        ];
        let plan = plan_polling(&updates, 120.0, 0.0, 20_000, 1000.0, CargoAppId(0));
        // Polls at 120, 240, ..., 960.
        assert_eq!(plan.packets.len(), 8);
        // Update at 50 waits until 120 (70 s); update at 260 until 360 (100 s).
        assert!((plan.mean_staleness_s - 85.0).abs() < 1e-9);
        // 8 polls, 2 carried news.
        assert_eq!(plan.empty_fetches, 6);
    }

    #[test]
    fn push_fetch_rides_the_next_heartbeat() {
        let heartbeats = synthesize(&[TrainAppSpec::qq()], 1000.0, 1); // 0,300,600,900
        let updates = vec![ContentUpdate { available_s: 50.0 }];
        let plan = plan_push_fetch(&updates, &heartbeats, 20_000, 1000.0, CargoAppId(0));
        assert_eq!(plan.packets.len(), 1);
        assert_eq!(plan.packets[0].arrival_s, 300.0);
        assert_eq!(plan.mean_staleness_s, 250.0);
        assert_eq!(plan.empty_fetches, 0);
    }

    #[test]
    fn push_never_fetches_without_updates() {
        let heartbeats = synthesize(&TrainAppSpec::paper_trio(), 7200.0, 1);
        let plan = plan_push_fetch(&[], &heartbeats, 20_000, 7200.0, CargoAppId(0));
        assert!(plan.packets.is_empty());
        assert_eq!(plan.mean_staleness_s, 0.0);
    }

    #[test]
    fn denser_heartbeats_reduce_push_staleness() {
        let sparse = synthesize(&[TrainAppSpec::qq()], 7200.0, 1);
        let dense = synthesize(&TrainAppSpec::paper_trio(), 7200.0, 1);
        let u = updates();
        let s1 = plan_push_fetch(&u, &sparse, 20_000, 7200.0, CargoAppId(0)).mean_staleness_s;
        let s2 = plan_push_fetch(&u, &dense, 20_000, 7200.0, CargoAppId(0)).mean_staleness_s;
        assert!(s2 < s1, "dense {s2} vs sparse {s1}");
    }

    #[test]
    fn faster_polling_is_fresher_but_busier() {
        let u = updates();
        let fast = plan_polling(&u, 60.0, 13.0, 20_000, 7200.0, CargoAppId(0));
        let slow = plan_polling(&u, 600.0, 13.0, 20_000, 7200.0, CargoAppId(0));
        assert!(fast.mean_staleness_s < slow.mean_staleness_s);
        assert!(fast.packets.len() > slow.packets.len());
    }

    #[test]
    fn push_drops_updates_no_heartbeat_reaches_and_renumbers() {
        let heartbeats = synthesize(&[TrainAppSpec::qq()], 1000.0, 1); // 0,300,600,900
        let updates = [50.0, 320.0, 950.0].map(|available_s| ContentUpdate { available_s });
        let plan = plan_push_fetch(&updates, &heartbeats, 5_000, 1000.0, CargoAppId(2));
        let fetched: Vec<(u64, f64)> = plan.packets.iter().map(|p| (p.id, p.arrival_s)).collect();
        // The update at 950 s has no heartbeat left before the horizon.
        assert_eq!(fetched, [(0, 300.0), (1, 600.0)]);
        assert!(plan
            .packets
            .iter()
            .all(|p| p.app == CargoAppId(2) && p.size_bytes == 5_000));
        assert_eq!(plan.mean_staleness_s, (250.0 + 280.0) / 2.0);
    }

    #[test]
    fn updates_between_two_polls_share_one_fetch() {
        let updates = [10.0, 20.0, 30.0].map(|available_s| ContentUpdate { available_s });
        let plan = plan_polling(&updates, 120.0, 0.0, 20_000, 1000.0, CargoAppId(0));
        // All three wait for the poll at 120 s.
        assert!((plan.mean_staleness_s - 100.0).abs() < 1e-9);
        assert_eq!(plan.packets.len(), 8);
        assert_eq!(plan.empty_fetches, 7, "one poll of eight carried news");
        let ids: Vec<u64> = plan.packets.iter().map(|p| p.id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn an_update_after_the_last_poll_leaves_every_poll_empty() {
        let updates = [ContentUpdate { available_s: 990.0 }];
        let plan = plan_polling(&updates, 120.0, 0.0, 20_000, 1000.0, CargoAppId(0));
        // Polls at 120, ..., 960; the update's poll would be at 1080 s.
        assert_eq!(plan.packets.len(), 8);
        assert_eq!(plan.empty_fetches, 8);
        assert_eq!(plan.mean_staleness_s, 0.0);
    }
}
