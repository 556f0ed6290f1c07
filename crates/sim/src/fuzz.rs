//! Serializable scenario plans for fuzzing and conformance testing.
//!
//! A [`CasePlan`] is the conformance suite's random-scenario generator
//! promoted into a value: every knob is a plain serializable field, and
//! [`CasePlan::from_seed`] derives each one as a pure function of the seed
//! (the exact derivation the differential conformance suite has always
//! used, so existing seeds keep reproducing the same scenarios).
//! [`CasePlan::scenario`] materializes the plan into a runnable
//! [`Scenario`].
//!
//! Because the plan is data rather than code, the chaos campaign can
//! serialize a failing case into a repro artifact and the shrinker can
//! delta-debug it — dropping packets, fault windows, and trains, halving
//! the horizon — while re-materializing a scenario after every edit.

use etrain_sched::RetryPolicy;
use etrain_trace::faults::{hash_unit, FaultPlan};
use etrain_trace::heartbeats::{Heartbeat, TrainAppSpec};
use etrain_trace::packets::Packet;
use serde::{Deserialize, Serialize};

use crate::scenario::{BandwidthSource, Scenario, SchedulerKind};

/// All compared algorithms, with the knob values the paper's comparison
/// figures use, plus the guarded (degradation-ladder) eTrain variant —
/// the axis both the conformance suite and the chaos campaign sweep.
pub fn conformance_kinds() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Baseline,
        SchedulerKind::ETrain {
            theta: 0.2,
            k: None,
        },
        SchedulerKind::PerEs { omega: 0.2 },
        SchedulerKind::ETime { v_bytes: 30_000.0 },
        SchedulerKind::Guarded {
            theta: 0.2,
            k: None,
            health: etrain_sched::HealthConfig::default(),
            admission: etrain_sched::AdmissionConfig::unbounded(),
        },
    ]
}

/// Which train apps a plan runs, as serializable data (the
/// [`TrainAppSpec`] lists are derivable, so only the choice is stored).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainSet {
    /// No train apps: heartbeat-free, eTrain cannot piggyback.
    Empty,
    /// WeChat alone.
    Wechat,
    /// The paper's QQ + WeChat + WhatsApp trio.
    PaperTrio,
}

impl TrainSet {
    /// The train-app specs this choice stands for.
    pub fn specs(&self) -> Vec<TrainAppSpec> {
        match self {
            TrainSet::Empty => vec![],
            TrainSet::Wechat => vec![TrainAppSpec::wechat()],
            TrainSet::PaperTrio => TrainAppSpec::paper_trio(),
        }
    }
}

/// A fully serializable scenario description: the conformance generator's
/// output as data. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CasePlan {
    /// The workload/bandwidth seed.
    pub seed: u64,
    /// Simulated duration in whole seconds.
    pub horizon_s: u64,
    /// Total cargo arrival rate in pkt/s (ignored when
    /// `packets` pins an explicit trace).
    pub lambda: f64,
    /// The train apps (ignored when `heartbeats` pins an explicit trace).
    pub trains: TrainSet,
    /// `Some(bps)` pins a constant-bandwidth channel; `None` uses the
    /// synthetic drive trace.
    pub constant_bandwidth_bps: Option<f64>,
    /// The injected faults; `None` is a fault-free run.
    pub faults: Option<FaultPlan>,
    /// A non-default retry policy, if the case needs one.
    pub retry: Option<RetryPolicy>,
    /// An explicit packet trace (set by the shrinker to freeze and then
    /// thin the workload).
    pub packets: Option<Vec<Packet>>,
    /// An explicit heartbeat trace (set by the shrinker likewise).
    pub heartbeats: Option<Vec<Heartbeat>>,
}

impl CasePlan {
    /// Derives every knob as a pure function of `seed` — the conformance
    /// suite's exact generator, so a failing seed reproduces precisely.
    pub fn from_seed(seed: u64, with_faults: bool) -> CasePlan {
        let u = |salt: u64| hash_unit(seed, salt, 0xc04f);
        let horizon_s = 600 + (u(1) * 1200.0) as u64;
        let lambda = 0.01 + u(2) * 0.12;
        let trains = match (u(3) * 3.0) as usize {
            0 => TrainSet::Empty,
            1 => TrainSet::Wechat,
            _ => TrainSet::PaperTrio,
        };
        let constant_bandwidth_bps = (u(9) < 0.4).then(|| 200_000.0 + u(10) * 600_000.0);
        let faults = with_faults.then(|| {
            let h = horizon_s as f64;
            let mut plan = FaultPlan::seeded(seed ^ 0xfa11)
                .with_loss(0.05 + u(4) * 0.25)
                .with_heartbeat_drops(u(5) * 0.2);
            if u(6) < 0.5 {
                plan = plan.with_outage(h * 0.3, h * 0.3 + 30.0 + u(7) * 60.0);
            }
            if u(8) < 0.3 {
                plan = plan.with_train_death(h * 0.6, h * 0.7);
            }
            plan
        });
        CasePlan {
            seed,
            horizon_s,
            lambda,
            trains,
            constant_bandwidth_bps,
            faults,
            retry: None,
            packets: None,
            heartbeats: None,
        }
    }

    /// Materializes the plan into a runnable scenario (oracle mode `Off`;
    /// callers pick their own audit mode).
    pub fn scenario(&self) -> Scenario {
        let mut scenario = Scenario::paper_default()
            .duration_secs(self.horizon_s)
            .seed(self.seed)
            .lambda(self.lambda)
            .trains(self.trains.specs());
        if let Some(bps) = self.constant_bandwidth_bps {
            scenario = scenario.bandwidth(BandwidthSource::Constant(bps));
        }
        if let Some(faults) = &self.faults {
            scenario = scenario.faults(faults.clone());
        }
        if let Some(retry) = &self.retry {
            scenario = scenario.retry_policy(*retry);
        }
        if let Some(packets) = &self.packets {
            scenario = scenario.packets(packets.clone());
        }
        if let Some(heartbeats) = &self.heartbeats {
            scenario = scenario.heartbeats(heartbeats.clone());
        }
        scenario
    }

    /// Freezes the plan's generated traces into explicit `packets` /
    /// `heartbeats` lists — the first shrinking move, turning the implicit
    /// workload into data the shrinker can thin element by element. A
    /// frozen plan materializes the identical scenario inputs.
    pub fn materialize_traces(&mut self) {
        let traces = self.scenario().generate_traces();
        self.packets = Some(traces.packets.to_vec());
        self.heartbeats = Some(traces.heartbeats.to_vec());
    }

    /// The case's discrete event count — packets + heartbeats + fault
    /// windows + injected alarms — the size the shrinker minimizes and the
    /// "repro ≤ N events" acceptance bar measures.
    pub fn event_count(&self) -> usize {
        let traces = self.scenario().generate_traces();
        let fault_events = self.faults.as_ref().map_or(0, |plan| {
            plan.outages.len() + plan.train_deaths.len() + plan.oracle_alarms.len()
        });
        traces.packets.len() + traces.heartbeats.len() + fault_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_varied() {
        let a = CasePlan::from_seed(3, true);
        let b = CasePlan::from_seed(3, true);
        assert_eq!(a, b);
        // Across a small seed range, every train-set choice appears.
        let sets: Vec<TrainSet> = (0..32)
            .map(|s| CasePlan::from_seed(s, false).trains)
            .collect();
        assert!(sets.contains(&TrainSet::Empty));
        assert!(sets.contains(&TrainSet::Wechat));
        assert!(sets.contains(&TrainSet::PaperTrio));
    }

    #[test]
    fn materialized_plan_reproduces_the_generated_run() {
        let plan = CasePlan::from_seed(5, true);
        let direct = plan.scenario().run();
        let mut frozen = plan.clone();
        frozen.materialize_traces();
        assert_eq!(direct, frozen.scenario().run());
    }

    #[test]
    fn plans_round_trip_through_json() {
        let mut plan = CasePlan::from_seed(9, true);
        plan.materialize_traces();
        let json = serde_json::to_string(&plan).unwrap();
        let back: CasePlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        assert_eq!(plan.scenario().run(), back.scenario().run());
    }

    #[test]
    fn event_count_tracks_traces_and_faults() {
        let plan = CasePlan::from_seed(2, true);
        let traces = plan.scenario().generate_traces();
        let base = traces.packets.len() + traces.heartbeats.len();
        assert!(plan.event_count() >= base);
        let no_faults = CasePlan {
            faults: None,
            ..plan.clone()
        };
        assert_eq!(no_faults.event_count(), base);
    }
}
