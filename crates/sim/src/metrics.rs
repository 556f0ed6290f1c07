//! The paper's evaluation metrics, computed from an [`EngineOutput`].
//!
//! Paper Sec. VI-A investigates three metrics: (1) total energy
//! consumption, (2) normalized delay (average scheduling delay per data
//! packet), and (3) deadline violation ratio (fraction of packets that
//! violate their app's deadline).

use etrain_sched::{AppProfile, HealthTransition};
use serde::{Deserialize, Serialize};

use crate::engine::EngineOutput;
use crate::oracle::OracleOutcome;

/// Per-cargo-app breakdown of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppReport {
    /// App name from its profile.
    pub name: String,
    /// Packets transmitted.
    pub packets: usize,
    /// Bytes transmitted.
    pub bytes: u64,
    /// Mean scheduling delay in seconds (0 when no packet completed).
    pub mean_delay_s: f64,
    /// Fraction of this app's packets that violated its deadline.
    pub violation_ratio: f64,
}

/// The full report of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Display name of the scheduler that produced the run.
    pub scheduler: String,
    /// Simulated horizon in seconds.
    pub horizon_s: f64,
    /// Radio energy above idle: transmission + tail, in joules. This is
    /// the quantity the paper's energy plots track.
    pub extra_energy_j: f64,
    /// Energy spent actively transmitting, in joules.
    pub transmission_energy_j: f64,
    /// Energy spent in DCH/FACH tails, in joules.
    pub tail_energy_j: f64,
    /// Idle-baseline energy over the horizon, in joules.
    pub idle_energy_j: f64,
    /// Total device energy (extra + idle), in joules.
    pub total_energy_j: f64,
    /// Heartbeats transmitted.
    pub heartbeats_sent: usize,
    /// Cargo packets transmitted.
    pub packets_completed: usize,
    /// Cargo packets unfinished at the horizon (in flight or still
    /// deferred).
    pub packets_unfinished: usize,
    /// Cargo packets the retry layer abandoned (attempts exhausted or
    /// deadline-aware give-up).
    pub packets_abandoned: usize,
    /// Fraction of settled-or-unfinished packets that were abandoned:
    /// `abandoned / (completed + abandoned + unfinished)`, 0 for an empty
    /// run.
    pub abandonment_ratio: f64,
    /// Retry attempts scheduled after failed transfers.
    pub retries: usize,
    /// Energy burned by failed transfer attempts, in joules (a subset of
    /// `transmission_energy_j`).
    pub wasted_retry_energy_j: f64,
    /// The paper's normalized delay: mean scheduling delay per completed
    /// packet, in seconds.
    pub normalized_delay_s: f64,
    /// The paper's deadline violation ratio over completed packets.
    pub deadline_violation_ratio: f64,
    /// Cumulative radio busy time in seconds.
    pub busy_time_s: f64,
    /// Slot boundaries the run stepped through, identical across kernels
    /// ([`EngineKind`](crate::EngineKind)).
    pub steps_run: u64,
    /// IDLE→DCH state promotions (signaling events; fast dormancy trades
    /// tail energy for more of these).
    pub promotions: usize,
    /// Packets shed by admission control (terminal state: never
    /// transmitted, never completed).
    pub packets_shed: usize,
    /// Packets released early by the force-flush-oldest shed policy (these
    /// packets were transmitted; this is a bookkeeping count).
    pub forced_flushes: usize,
    /// Degradation-ladder transitions recorded during the run, in time
    /// order; empty for non-degrading schedulers.
    pub health_events: Vec<HealthTransition>,
    /// Per-app breakdown.
    pub per_app: Vec<AppReport>,
    /// Outcome of the simulation oracle's audit of this run; `None` when
    /// the run executed with [`OracleMode::Off`](crate::OracleMode::Off).
    pub oracle: Option<OracleOutcome>,
    /// Observability metrics snapshot (energy per RRC state, tail
    /// utilization, decision counts); `None` when the run executed with
    /// [`ObsMode::Off`](etrain_obs::ObsMode::Off). Inside the snapshot,
    /// undefined ratios are *absent*, not zero — see
    /// [`etrain_obs::MetricsSnapshot`].
    pub metrics: Option<etrain_obs::MetricsSnapshot>,
}

impl RunReport {
    /// Builds the report from raw engine output and the app profiles the
    /// scheduler was constructed with.
    pub fn from_engine(
        scheduler: impl Into<String>,
        output: &EngineOutput,
        profiles: &[AppProfile],
    ) -> Self {
        let mut per_app: Vec<AppReport> = profiles
            .iter()
            .map(|p| AppReport {
                name: p.name.clone(),
                packets: 0,
                bytes: 0,
                mean_delay_s: 0.0,
                violation_ratio: 0.0,
            })
            .collect();
        let mut delay_sums = vec![0.0f64; profiles.len()];
        let mut violations = vec![0usize; profiles.len()];

        for c in &output.completed {
            let idx = c.packet.app.index();
            let delay = c.scheduling_delay_s();
            per_app[idx].packets += 1;
            per_app[idx].bytes += c.packet.size_bytes;
            delay_sums[idx] += delay;
            if delay >= profiles[idx].cost.deadline_s() {
                violations[idx] += 1;
            }
        }
        for (idx, report) in per_app.iter_mut().enumerate() {
            if report.packets > 0 {
                report.mean_delay_s = delay_sums[idx] / report.packets as f64;
                report.violation_ratio = violations[idx] as f64 / report.packets as f64;
            }
        }

        let packets_completed = output.completed.len();
        let normalized_delay_s = if packets_completed > 0 {
            delay_sums.iter().sum::<f64>() / packets_completed as f64
        } else {
            0.0
        };
        let deadline_violation_ratio = if packets_completed > 0 {
            violations.iter().sum::<usize>() as f64 / packets_completed as f64
        } else {
            0.0
        };
        let extra = output.transmission_energy_j + output.tail_energy_j;
        let packets_unfinished = output.in_flight.len() + output.still_deferred;
        let packets_abandoned = output.abandoned.len();
        let settled = packets_completed + packets_abandoned + packets_unfinished;
        let abandonment_ratio = if settled > 0 {
            packets_abandoned as f64 / settled as f64
        } else {
            0.0
        };

        RunReport {
            scheduler: scheduler.into(),
            horizon_s: output.horizon_s,
            extra_energy_j: extra,
            transmission_energy_j: output.transmission_energy_j,
            tail_energy_j: output.tail_energy_j,
            idle_energy_j: output.idle_energy_j,
            total_energy_j: extra + output.idle_energy_j,
            heartbeats_sent: output.heartbeats_sent,
            packets_completed,
            packets_unfinished,
            packets_abandoned,
            abandonment_ratio,
            retries: output.retries,
            wasted_retry_energy_j: output.wasted_retry_energy_j,
            normalized_delay_s,
            deadline_violation_ratio,
            busy_time_s: output.busy_time_s,
            steps_run: output.steps_run,
            promotions: output.promotions,
            packets_shed: output.shed.len(),
            forced_flushes: output.forced_flushes,
            health_events: output.health_events.clone(),
            per_app,
            oracle: None,
            metrics: None,
        }
    }

    /// The fraction of extra energy spent in tails (the waste eTrain
    /// targets), in `[0, 1]`. Degenerate runs (empty workload, zero extra
    /// energy) report `0.0`, never NaN.
    pub fn tail_fraction(&self) -> f64 {
        if self.extra_energy_j.is_finite() && self.extra_energy_j > 0.0 {
            (self.tail_energy_j / self.extra_energy_j).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CompletedPacket;
    use etrain_trace::packets::Packet;
    use etrain_trace::CargoAppId;

    fn completed(app: usize, arrival: f64, release: f64) -> CompletedPacket {
        CompletedPacket {
            packet: Packet {
                id: 0,
                app: CargoAppId(app),
                arrival_s: arrival,
                size_bytes: 1_000,
            },
            release_s: release,
            tx_start_s: release,
            tx_end_s: release + 0.1,
        }
    }

    fn output(completed_packets: Vec<CompletedPacket>) -> EngineOutput {
        EngineOutput {
            completed: completed_packets,
            in_flight: Vec::new(),
            abandoned: Vec::new(),
            retries: 0,
            wasted_retry_energy_j: 0.0,
            still_deferred: 0,
            shed: Vec::new(),
            forced_flushes: 0,
            health_events: Vec::new(),
            heartbeats_sent: 5,
            transmission_energy_j: 2.0,
            tail_energy_j: 8.0,
            idle_energy_j: 10.0,
            busy_time_s: 3.0,
            promotions: 4,
            horizon_s: 100.0,
            transmissions: Vec::new(),
            radio_params: etrain_radio::RadioParams::galaxy_s4_3g(),
            events_processed: 0,
            steps_run: 0,
        }
    }

    #[test]
    fn metrics_aggregate_correctly() {
        // Weibo deadline is 30 s; one packet waits 40 s (violation), the
        // other 10 s.
        let out = output(vec![completed(1, 0.0, 40.0), completed(1, 0.0, 10.0)]);
        let report = RunReport::from_engine("Test", &out, &AppProfile::paper_trio(30.0));
        assert_eq!(report.packets_completed, 2);
        assert!((report.normalized_delay_s - 25.0).abs() < 1e-12);
        assert!((report.deadline_violation_ratio - 0.5).abs() < 1e-12);
        assert!((report.extra_energy_j - 10.0).abs() < 1e-12);
        assert!((report.total_energy_j - 20.0).abs() < 1e-12);
        assert!((report.tail_fraction() - 0.8).abs() < 1e-12);
        assert_eq!(report.per_app[1].packets, 2);
        assert_eq!(report.per_app[0].packets, 0);
    }

    #[test]
    fn empty_run_yields_zero_metrics() {
        let report = RunReport::from_engine("Test", &output(vec![]), &AppProfile::paper_trio(30.0));
        assert_eq!(report.packets_completed, 0);
        assert_eq!(report.normalized_delay_s, 0.0);
        assert_eq!(report.deadline_violation_ratio, 0.0);
    }

    #[test]
    fn ratio_metrics_never_nan_on_zero_energy() {
        // A run with no radio activity at all: every ratio must degrade to
        // exactly 0.0, not NaN.
        let mut out = output(vec![]);
        out.transmission_energy_j = 0.0;
        out.tail_energy_j = 0.0;
        out.busy_time_s = 0.0;
        out.heartbeats_sent = 0;
        out.promotions = 0;
        let report = RunReport::from_engine("Test", &out, &AppProfile::paper_trio(30.0));
        assert_eq!(report.extra_energy_j, 0.0);
        assert_eq!(report.tail_fraction(), 0.0);
        assert_eq!(report.abandonment_ratio, 0.0);
        assert_eq!(report.normalized_delay_s, 0.0);
        assert_eq!(report.deadline_violation_ratio, 0.0);
        assert!(report.tail_fraction().is_finite());
        assert!(report.oracle.is_none());
    }

    #[test]
    fn abandonment_ratio_counts_all_terminal_states() {
        let mut out = output(vec![completed(0, 0.0, 5.0)]);
        out.abandoned.push(crate::engine::AbandonedPacket {
            packet: Packet {
                id: 9,
                app: CargoAppId(1),
                arrival_s: 0.0,
                size_bytes: 1_000,
            },
            abandoned_at_s: 50.0,
            attempts: 6,
        });
        out.retries = 7;
        out.wasted_retry_energy_j = 1.5;
        out.still_deferred = 2;
        let report = RunReport::from_engine("Test", &out, &AppProfile::paper_trio(30.0));
        assert_eq!(report.packets_abandoned, 1);
        assert_eq!(report.retries, 7);
        assert_eq!(report.wasted_retry_energy_j, 1.5);
        // 1 abandoned of (1 completed + 1 abandoned + 2 unfinished).
        assert!((report.abandonment_ratio - 0.25).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut out = output(vec![completed(1, 0.0, 10.0)]);
        out.steps_run = 42;
        let report = RunReport::from_engine("Test", &out, &AppProfile::paper_trio(30.0));
        assert_eq!(report.steps_run, 42);

        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn per_app_violation_ratios_are_independent() {
        // Mail deadline 30 (f1): 35 s delay violates; Cloud 10 s does not.
        let out = output(vec![completed(0, 0.0, 35.0), completed(2, 0.0, 10.0)]);
        let report = RunReport::from_engine("Test", &out, &AppProfile::paper_trio(30.0));
        assert_eq!(report.per_app[0].violation_ratio, 1.0);
        assert_eq!(report.per_app[2].violation_ratio, 0.0);
        assert_eq!(report.deadline_violation_ratio, 0.5);
    }

    #[test]
    fn a_report_without_its_step_counter_is_refused() {
        // Reports once wrote the counter as `slots_run`, or not at all;
        // nothing writes either shape now, and the reader takes neither.
        let report = RunReport::from_engine(
            "Test",
            &output(vec![completed(1, 0.0, 10.0)]),
            &AppProfile::paper_trio(30.0),
        );
        let json = serde_json::to_string(&report).unwrap();
        let field = format!(",\"steps_run\":{}", report.steps_run);
        assert!(json.contains(&field), "{json}");
        let renamed = json.replace("\"steps_run\"", "\"slots_run\"");
        let missing = json.replace(&field, "");
        for legacy in [renamed, missing] {
            assert!(
                serde_json::from_str::<RunReport>(&legacy).is_err(),
                "{legacy}"
            );
        }
    }
}
