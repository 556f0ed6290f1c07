//! `TimedScheduler`: a `Scheduler` wrapper that times decision calls from
//! outside the scheduler. This is the one file of the benchmark that knows
//! the `Scheduler` trait's method list.
//!
//! Every method is forwarded. A method left to its trait default would
//! silently change the run: the event kernel would stop skipping
//! (`slot_quiescent`), journaling would lose the scheduler's events
//! (`take_obs_events`), and so on. The tests below hold the wrapper to
//! bit-identical reports and journals for every `SchedulerKind`.
//!
//! `on_slot` and `on_arrival` run millions of times per workload, so only
//! a fixed 1-in-64 sample of them (by call index) reads the clock; the
//! sampled time is scaled by the exact call count. [`engine_run`] books
//! that estimate to the `sched` layer and the rest of the engine run to
//! `sim`.

use std::sync::OnceLock;
use std::time::Instant;

use etrain_obs::Event;
use etrain_radio::RadioParams;
use etrain_sched::{HealthTransition, RetryPolicy, Scheduler, SchedulerError, SlotContext};
use etrain_sim::{Engine, EngineKind, EngineOutput};
use etrain_trace::bandwidth::BandwidthTrace;
use etrain_trace::faults::FaultPlan;
use etrain_trace::heartbeats::Heartbeat;
use etrain_trace::packets::Packet;

use crate::ledger::Ledger;

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// Exact call count plus the timed sample of one scheduler method.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CallStats {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Wall time of the timed calls, ns.
    pub sampled_ns: u64,
}

/// What timing an empty call costs, ns: two clock reads. Subtracted from
/// every timed call, since a decision can take less time than the reads.
fn clock_cost_ns() -> f64 {
    static COST: OnceLock<f64> = OnceLock::new();
    *COST.get_or_init(|| {
        let samples: Vec<f64> = (0..10_001)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(());
                start.elapsed().as_nanos() as f64
            })
            .collect();
        crate::median(&samples)
    })
}

impl CallStats {
    /// Total time of all calls, estimated from the sample, ns.
    pub fn estimated_ns(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let per_call = (self.sampled_ns as f64 / self.sampled as f64 - clock_cost_ns()).max(0.0);
        per_call * self.calls as f64
    }

    fn time<T>(&mut self, every: u64, call: impl FnOnce() -> T) -> T {
        let timed = self.calls.is_multiple_of(every);
        self.calls += 1;
        if !timed {
            return call();
        }
        let start = Instant::now();
        let out = call();
        self.sampled_ns += start.elapsed().as_nanos() as u64;
        self.sampled += 1;
        out
    }
}

/// What a [`TimedScheduler`] measured over one run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SchedTiming {
    /// `on_arrival` calls.
    pub arrival: CallStats,
    /// `on_slot` calls.
    pub slot: CallStats,
    /// `on_tx_failure` calls (rare; every one is timed).
    pub tx_failure: CallStats,
    /// `on_slot` calls that released at least one packet.
    pub slot_releases: u64,
}

impl SchedTiming {
    /// Estimated time inside the scheduler's decision calls, ns.
    pub fn decision_ns(&self) -> f64 {
        self.arrival.estimated_ns() + self.slot.estimated_ns() + self.tx_failure.estimated_ns()
    }
}

/// A scheduler whose decision calls are timed (see the module docs).
#[derive(Debug)]
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    timing: SchedTiming,
}

impl TimedScheduler {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        TimedScheduler {
            inner,
            timing: SchedTiming::default(),
        }
    }

    /// What was measured so far.
    pub fn timing(&self) -> SchedTiming {
        self.timing
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_arrival(&mut self, packet: Packet, now_s: f64) -> Result<Vec<Packet>, SchedulerError> {
        let inner = &mut self.inner;
        self.timing
            .arrival
            .time(SAMPLE_EVERY, || inner.on_arrival(packet, now_s))
    }

    fn on_slot(&mut self, ctx: &SlotContext) -> Vec<Packet> {
        let inner = &mut self.inner;
        let released = self.timing.slot.time(SAMPLE_EVERY, || inner.on_slot(ctx));
        if !released.is_empty() {
            self.timing.slot_releases += 1;
        }
        released
    }

    fn on_tx_failure(&mut self, packet: Packet, now_s: f64) -> Result<Vec<Packet>, SchedulerError> {
        let inner = &mut self.inner;
        self.timing
            .tx_failure
            .time(1, || inner.on_tx_failure(packet, now_s))
    }

    fn slot_s(&self) -> f64 {
        self.inner.slot_s()
    }

    fn slot_quiescent(&self, trains_alive: bool) -> bool {
        self.inner.slot_quiescent(trains_alive)
    }

    fn on_oracle_violation(&mut self, now_s: f64) {
        self.inner.on_oracle_violation(now_s);
    }

    fn health_transitions(&self) -> Vec<HealthTransition> {
        self.inner.health_transitions()
    }

    fn take_shed(&mut self) -> Vec<Packet> {
        self.inner.take_shed()
    }

    fn forced_flushes(&self) -> usize {
        self.inner.forced_flushes()
    }

    fn set_reference_decisions(&mut self, reference: bool) {
        self.inner.set_reference_decisions(reference);
    }

    fn set_obs_enabled(&mut self, enabled: bool) {
        self.inner.set_obs_enabled(enabled);
    }

    fn take_obs_events(&mut self) -> Vec<(f64, Event)> {
        self.inner.take_obs_events()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn pending_bytes(&self) -> u64 {
        self.inner.pending_bytes()
    }
}

/// The inputs of one engine run, as `Engine::new` takes them.
pub struct EngineInputs<'a> {
    pub packets: &'a [Packet],
    pub heartbeats: &'a [Heartbeat],
    pub bandwidth: &'a BandwidthTrace,
    pub radio: &'a RadioParams,
    pub horizon_s: f64,
    pub faults: &'a FaultPlan,
    pub retry: &'a RetryPolicy,
    pub kind: EngineKind,
}

/// Runs one engine to completion over a timed scheduler, booking the
/// scheduler's estimated time to `sched.*` and the rest of the run to
/// `sim.engine`.
pub fn engine_run(
    ledger: &mut Ledger,
    scheduler: &mut TimedScheduler,
    inputs: &EngineInputs,
) -> EngineOutput {
    let start = Instant::now();
    let output = Engine::new(
        scheduler,
        inputs.packets,
        inputs.heartbeats,
        inputs.bandwidth,
        inputs.radio,
        inputs.horizon_s,
        inputs.faults,
        inputs.retry,
        None,
    )
    .with_kind(inputs.kind)
    .run();
    let end = Instant::now();
    let timing = scheduler.timing();
    ledger.add(
        "sched.on_slot",
        timing.slot.calls,
        timing.slot.estimated_ns(),
    );
    ledger.add(
        "sched.on_arrival",
        timing.arrival.calls,
        timing.arrival.estimated_ns(),
    );
    ledger.add(
        "sched.on_tx_failure",
        timing.tx_failure.calls,
        timing.tx_failure.estimated_ns(),
    );
    ledger.count("sched.on_slot.releases", timing.slot_releases);
    ledger.count("sim.steps", output.steps_run);
    ledger.count("sim.events", output.events_processed);
    ledger.record("sim.engine", "run", start, end);
    ledger.add("sim.engine", 0, -timing.decision_ns());
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use etrain_obs::Journal;
    use etrain_sim::{
        AdmissionConfig, Engine, EngineKind, FaultPlan, HealthConfig, RetryPolicy, RunReport,
        Scenario, SchedulerKind, ShedPolicy,
    };

    fn every_kind() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Baseline,
            SchedulerKind::ETrain {
                theta: 0.2,
                k: None,
            },
            SchedulerKind::ETrain {
                theta: 20.0,
                k: Some(20),
            },
            SchedulerKind::PerEs { omega: 0.5 },
            SchedulerKind::ETime { v_bytes: 20_000.0 },
            SchedulerKind::Guarded {
                theta: 0.2,
                k: None,
                health: HealthConfig::default(),
                admission: AdmissionConfig::unbounded()
                    .with_global_capacity(8)
                    .with_policy(ShedPolicy::DropLowestValue),
            },
        ]
    }

    /// One engine run, wrapped or not, journaled, over lossy traces so the
    /// retry path (`on_tx_failure`) runs too.
    fn run(kind: SchedulerKind, engine: EngineKind, wrap: bool) -> (RunReport, String) {
        let scenario = Scenario::paper_default()
            .duration_secs(1800)
            .lambda(0.32)
            .seed(5);
        let traces = scenario.generate_traces();
        let profiles = scenario.profiles_ref().to_vec();
        let plan = FaultPlan::seeded(3).with_loss(0.2);
        let retry = RetryPolicy::default();
        let radio = etrain_radio::RadioParams::galaxy_s4_3g();
        let inner = kind.build(profiles.clone());
        let mut timed;
        let mut plain;
        let scheduler: &mut dyn Scheduler = if wrap {
            timed = TimedScheduler::new(inner);
            &mut timed
        } else {
            plain = inner;
            plain.as_mut()
        };
        let mut journal = Journal::new();
        let output = Engine::new(
            scheduler,
            &traces.packets,
            &traces.heartbeats,
            &traces.bandwidth,
            &radio,
            1800.0,
            &plan,
            &retry,
            Some(&mut journal),
        )
        .with_kind(engine)
        .run();
        journal.canonicalize();
        let report = RunReport::from_engine(kind.name(), &output, &profiles);
        (report, journal.to_jsonl())
    }

    #[test]
    fn wrapping_changes_no_report_or_journal() {
        for kind in every_kind() {
            for engine in [EngineKind::Slot, EngineKind::Event] {
                let (plain_report, plain_jsonl) = run(kind, engine, false);
                let (timed_report, timed_jsonl) = run(kind, engine, true);
                assert_eq!(plain_report, timed_report, "{kind} on {engine}");
                assert_eq!(plain_jsonl, timed_jsonl, "{kind} on {engine}");
                assert!(!plain_jsonl.is_empty(), "{kind} journaled nothing");
            }
        }
    }

    #[test]
    fn one_call_in_sample_every_is_timed() {
        let kind = SchedulerKind::ETrain {
            theta: 0.2,
            k: None,
        };
        let mut timed =
            TimedScheduler::new(kind.build(Scenario::paper_default().profiles_ref().to_vec()));
        let ctx = SlotContext {
            now_s: 0.0,
            heartbeat_departing: false,
            predicted_bandwidth_bps: 1e6,
            trains_alive: true,
        };
        for i in 0..(3 * SAMPLE_EVERY + 1) {
            timed.on_slot(&SlotContext {
                now_s: i as f64,
                ..ctx
            });
        }
        let slot = timed.timing().slot;
        assert_eq!(slot.calls, 3 * SAMPLE_EVERY + 1);
        assert_eq!(slot.sampled, 4, "calls 0, 64, 128 and 192");
    }
}
