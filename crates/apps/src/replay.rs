//! User-trace replay: the paper's controlled-experiment methodology.
//!
//! The paper records user behaviour as `(User ID, Behavior type, Time,
//! Packet Size)` tuples and replays them on instrumented phones with and
//! without eTrain (Sec. VI-D). This module provides both replay paths of
//! the reproduction:
//!
//! - [`replay_through_core`] — drive a trace through the
//!   [`ETrainCore`] (heartbeats from train-app specs, 1-second
//!   ticks, requests from upload records) and collect the decisions;
//! - [`to_packets`] — convert a trace to a simulator packet trace, so the
//!   energy of the replay can be measured by `etrain-sim` (used by the
//!   Fig. 11 reproduction).

use etrain_core::{CoreConfig, CoreError, ETrainCore, TransmitDecision, TransmitRequest};
use etrain_trace::heartbeats::TrainAppSpec;
use etrain_trace::packets::Packet;
use etrain_trace::user::{AppUseTrace, BehaviorType};
use etrain_trace::CargoAppId;

use crate::model::CargoAppModel;

/// Outcome of replaying one app-use trace through the core.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Decisions in the order they were made.
    pub decisions: Vec<TransmitDecision>,
    /// Upload records still undecided when the trace ended.
    pub undelivered: usize,
    /// Mean scheduling delay over decided requests, in seconds.
    pub mean_delay_s: f64,
    /// Fraction of decided requests that piggybacked on a heartbeat.
    pub piggyback_ratio: f64,
    /// Heartbeats that departed during the replay.
    pub heartbeats: usize,
}

/// Replays `trace` through a fresh [`ETrainCore`]: the trace's upload
/// records become transmit requests of a cargo app registered with
/// `model`'s profile; `trains` supply the heartbeat departures; the core
/// ticks every second for `trace.duration_s`, plus a final drain tick after
/// the last train of the horizon.
///
/// Browse records carry no uplink data and are skipped, matching the
/// paper's replay ("replays the user traces ... record the energy
/// consumption").
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] when `config` fails
/// [`CoreConfig::validate`] (a `k` of `Some(0)`, say).
/// Returns the core's [`CoreError::TimeWentBackwards`] when an upload
/// record or a train departure comes before the core's clock, which starts
/// at 0 s (a record with a negative `time_s`, say).
/// Returns [`CoreError::NonFiniteTime`] for a record whose `time_s` is NaN
/// or infinite.
pub fn replay_through_core(
    trace: &AppUseTrace,
    model: &CargoAppModel,
    trains: &[TrainAppSpec],
    config: CoreConfig,
) -> Result<ReplayOutcome, CoreError> {
    config.validate()?;
    let mut core = ETrainCore::new(config);
    let train_ids: Vec<_> = trains
        .iter()
        .map(|spec| core.register_train(spec.name.clone()))
        .collect();
    let app = core.register_cargo(model.profile.clone());

    // Merge heartbeat departures and upload submissions into one ordered
    // event list, then drive the core with 1 s ticks in between.
    let horizon = trace.duration_s;
    let mut events: Vec<(f64, Event)> = Vec::new();
    for (spec, &id) in trains.iter().zip(&train_ids) {
        for t in spec.pattern.departure_times(spec.phase_s, horizon) {
            events.push((t, Event::Heartbeat(id)));
        }
    }
    for record in &trace.records {
        if record.behavior == BehaviorType::Upload {
            events.push((record.time_s, Event::Upload(record.size_bytes)));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut decisions = Vec::new();
    let mut submitted = 0usize;
    let mut next_tick = 0.0f64;
    for (t, event) in events {
        while next_tick < t {
            decisions.extend(core.tick(next_tick)?);
            next_tick += 1.0;
        }
        match event {
            Event::Heartbeat(id) => decisions.extend(core.on_heartbeat(id, t)?),
            Event::Upload(size) => {
                submitted += 1;
                core.submit(app, TransmitRequest::upload(size.max(1)), t)?;
            }
        }
    }
    while next_tick <= horizon {
        decisions.extend(core.tick(next_tick)?);
        next_tick += 1.0;
    }

    // Final drain: an upload that arrived after the horizon's last train
    // (and below Θ) would otherwise be stranded at trace end. Ride it on
    // the next departures past the horizon, as a live deployment would.
    let mut drained_heartbeats = 0usize;
    let mut t_cursor = horizon;
    while core.pending_requests() > 0 && !trains.is_empty() && drained_heartbeats < 64 {
        let mut next: Option<(f64, etrain_trace::TrainAppId)> = None;
        for (spec, &id) in trains.iter().zip(&train_ids) {
            let upcoming = spec
                .pattern
                .departure_times(spec.phase_s, t_cursor + 7200.0)
                .into_iter()
                .find(|&t| t > t_cursor);
            if let Some(t) = upcoming {
                if next.is_none_or(|(best, _)| t < best) {
                    next = Some((t, id));
                }
            }
        }
        let Some((t, id)) = next else { break };
        decisions.extend(core.on_heartbeat(id, t)?);
        drained_heartbeats += 1;
        t_cursor = t;
    }

    let decided = decisions.len();
    let mean_delay_s = if decided > 0 {
        decisions.iter().map(TransmitDecision::delay_s).sum::<f64>() / decided as f64
    } else {
        0.0
    };
    let piggybacked = decisions
        .iter()
        .filter(|d| d.piggybacked_on.is_some())
        .count();
    let heartbeats = trains
        .iter()
        .map(|spec| spec.pattern.departure_times(spec.phase_s, horizon).len())
        .sum::<usize>()
        + drained_heartbeats;
    Ok(ReplayOutcome {
        piggyback_ratio: if decided > 0 {
            piggybacked as f64 / decided as f64
        } else {
            0.0
        },
        undelivered: submitted - decided,
        mean_delay_s,
        decisions,
        heartbeats,
    })
}

enum Event {
    Heartbeat(etrain_trace::TrainAppId),
    Upload(u64),
}

/// Converts a user trace's upload records into a simulator packet trace
/// for cargo app `app` (ids dense from 0, sorted by time).
pub fn to_packets(trace: &AppUseTrace, app: CargoAppId) -> Vec<Packet> {
    let mut packets: Vec<Packet> = trace
        .records
        .iter()
        .filter(|r| r.behavior == BehaviorType::Upload)
        .map(|r| Packet {
            id: 0,
            app,
            arrival_s: r.time_s,
            size_bytes: r.size_bytes.max(1),
        })
        .collect();
    packets.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    for (i, p) in packets.iter_mut().enumerate() {
        p.id = i as u64;
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use etrain_trace::user::{generate_app_use, Activeness, UserBehaviorRecord};

    fn trace() -> AppUseTrace {
        generate_app_use(1, Activeness::Moderate, 9).normalized_to(600.0)
    }

    #[test]
    fn replay_decides_every_upload() {
        let outcome = replay_through_core(
            &trace(),
            &CargoAppModel::weibo(),
            &TrainAppSpec::paper_trio(),
            CoreConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.undelivered, 0);
        assert_eq!(
            outcome.decisions.len(),
            trace().upload_count(),
            "every upload gets a decision"
        );
        assert!(outcome.heartbeats >= 6, "600 s of the paper trio");
    }

    #[test]
    fn high_theta_replay_piggybacks_mostly() {
        let config = CoreConfig {
            theta: 50.0,
            ..CoreConfig::default()
        };
        let outcome = replay_through_core(
            &trace(),
            &CargoAppModel::weibo(),
            &TrainAppSpec::paper_trio(),
            config,
        )
        .unwrap();
        assert_eq!(outcome.undelivered, 0);
        assert!(
            outcome.piggyback_ratio > 0.9,
            "with a high gate, almost everything rides trains (got {})",
            outcome.piggyback_ratio
        );
        assert!(outcome.mean_delay_s > 5.0);
    }

    #[test]
    fn no_trains_degenerates_to_immediate() {
        let outcome = replay_through_core(
            &trace(),
            &CargoAppModel::weibo(),
            &[],
            CoreConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.undelivered, 0);
        assert_eq!(outcome.piggyback_ratio, 0.0);
        assert!(outcome.mean_delay_s < 2.0);
        assert_eq!(outcome.heartbeats, 0);
    }

    #[test]
    fn to_packets_keeps_only_uploads() {
        let t = trace();
        let packets = to_packets(&t, CargoAppId(1));
        assert_eq!(packets.len(), t.upload_count());
        assert!(packets.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        for (i, p) in packets.iter().enumerate() {
            assert_eq!(p.id, i as u64);
            assert_eq!(p.app, CargoAppId(1));
            assert!(p.size_bytes >= 1);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let run = || {
            replay_through_core(
                &trace(),
                &CargoAppModel::weibo(),
                &TrainAppSpec::paper_trio(),
                CoreConfig::default(),
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn an_upload_before_the_core_clock_is_an_error_not_a_panic() {
        let mut early = trace();
        let mut upload = *early
            .records
            .iter()
            .find(|r| r.behavior == BehaviorType::Upload)
            .unwrap();
        upload.time_s = -5.0;
        early.records.insert(0, upload);
        let err = replay_through_core(
            &early,
            &CargoAppModel::weibo(),
            &TrainAppSpec::paper_trio(),
            CoreConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::TimeWentBackwards {
                now_s: 0.0,
                supplied_s: -5.0
            }
        );
    }

    #[test]
    fn an_upload_at_a_nan_time_is_an_error() {
        let mut odd = trace();
        let mut upload = *odd
            .records
            .iter()
            .find(|r| r.behavior == BehaviorType::Upload)
            .unwrap();
        upload.time_s = f64::NAN;
        odd.records.push(upload);
        let err = replay_through_core(
            &odd,
            &CargoAppModel::weibo(),
            &TrainAppSpec::paper_trio(),
            CoreConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::NonFiniteTime { supplied_s } if supplied_s.is_nan()),
            "{err:?}"
        );
    }

    #[test]
    fn a_config_the_core_would_panic_on_is_an_error() {
        for config in [
            CoreConfig {
                k: Some(0),
                ..CoreConfig::default()
            },
            CoreConfig {
                theta: f64::NAN,
                ..CoreConfig::default()
            },
            CoreConfig {
                slot_s: 0.0,
                ..CoreConfig::default()
            },
        ] {
            let err = replay_through_core(
                &trace(),
                &CargoAppModel::weibo(),
                &TrainAppSpec::paper_trio(),
                config,
            )
            .unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidConfig { .. }),
                "{config:?}: {err:?}"
            );
        }
    }

    /// A hand-made trace of `duration_s` seconds with the given records.
    fn handmade(duration_s: f64, records: &[(BehaviorType, f64, u64)]) -> AppUseTrace {
        AppUseTrace {
            user_id: 0,
            activeness: Activeness::Moderate,
            records: records
                .iter()
                .map(|&(behavior, time_s, size_bytes)| UserBehaviorRecord {
                    user_id: 0,
                    behavior,
                    time_s,
                    size_bytes,
                })
                .collect(),
            duration_s,
        }
    }

    #[test]
    fn a_train_departing_before_the_core_clock_is_an_error_not_a_panic() {
        let early_train = TrainAppSpec::qq().with_phase(-10.0);
        let err = replay_through_core(
            &trace(),
            &CargoAppModel::weibo(),
            &[early_train],
            CoreConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::TimeWentBackwards { supplied_s, .. } if supplied_s == -10.0),
            "{err}"
        );
    }

    #[test]
    fn browse_records_replay_to_no_requests() {
        let browsing = handmade(
            600.0,
            &[
                (BehaviorType::Browse, 5.0, 0),
                (BehaviorType::Browse, 90.0, 0),
            ],
        );
        let outcome = replay_through_core(
            &browsing,
            &CargoAppModel::weibo(),
            &[TrainAppSpec::qq()],
            CoreConfig::default(),
        )
        .unwrap();
        assert!(outcome.decisions.is_empty());
        assert_eq!(outcome.undelivered, 0);
        assert_eq!((outcome.mean_delay_s, outcome.piggyback_ratio), (0.0, 0.0));
        // QQ departs at 0 s and 300 s within the 600 s horizon.
        assert_eq!(outcome.heartbeats, 2);
    }

    #[test]
    fn an_upload_after_the_last_train_rides_the_next_departure_past_the_horizon() {
        let late = handmade(600.0, &[(BehaviorType::Upload, 590.0, 400)]);
        let outcome = replay_through_core(
            &late,
            &CargoAppModel::mail(),
            &[TrainAppSpec::qq()],
            CoreConfig {
                theta: 1e9,
                ..CoreConfig::default()
            },
        )
        .unwrap();
        assert_eq!(outcome.undelivered, 0);
        let [decision] = outcome.decisions.as_slice() else {
            panic!("{:?}", outcome.decisions);
        };
        assert_eq!(decision.decided_at_s, 900.0);
        assert_eq!(decision.size_bytes, 400);
        assert!(decision.piggybacked_on.is_some());
        assert_eq!(outcome.piggyback_ratio, 1.0);
        assert_eq!(outcome.mean_delay_s, 310.0);
        // Two departures inside the horizon plus the one drained past it.
        assert_eq!(outcome.heartbeats, 3);
    }

    #[test]
    fn a_zero_byte_upload_is_sent_as_one_byte() {
        let empty = handmade(600.0, &[(BehaviorType::Upload, 10.0, 0)]);
        let outcome =
            replay_through_core(&empty, &CargoAppModel::weibo(), &[], CoreConfig::default())
                .unwrap();
        assert_eq!(outcome.decisions.len(), 1);
        assert_eq!(outcome.decisions[0].size_bytes, 1);
        assert_eq!(to_packets(&empty, CargoAppId(0))[0].size_bytes, 1);
    }
}
