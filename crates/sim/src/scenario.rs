//! Scenario builder: a declarative description of one experiment run.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use etrain_obs::{Event, Journal, MetricsRegistry, ObsMode, RrcStateName};
use etrain_radio::{RadioParams, RrcState, Timeline};
use etrain_sched::{
    AdmissionConfig, AppProfile, BaselineScheduler, ETimeConfig, ETimeScheduler, ETrainConfig,
    ETrainScheduler, GuardedScheduler, HealthConfig, PerEsConfig, PerEsScheduler, RetryPolicy,
    Scheduler,
};
use etrain_trace::bandwidth::{wuhan_drive_synthetic, BandwidthTrace};
use etrain_trace::faults::FaultPlan;
use etrain_trace::heartbeats::{synthesize, Heartbeat, TrainAppSpec};
use etrain_trace::packets::{CargoWorkload, Packet};
use serde::{Deserialize, Serialize};

use crate::engine::{Engine, EngineKind, EngineOutput};
use crate::metrics::RunReport;
use crate::oracle::{self, OracleMode, OracleOutcome, OracleViolation};

/// A scenario that cannot run, detected by [`Scenario::validate`] before
/// any simulation work starts.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The horizon is zero, negative, or non-finite.
    InvalidDuration {
        /// The offending horizon, in seconds.
        horizon_s: f64,
    },
    /// An app of the workload has an arrival rate that is not positive
    /// and finite (a [`Scenario::lambda`] that is not, say).
    InvalidWorkload {
        /// What is wrong with it.
        reason: String,
    },
    /// The bandwidth source cannot supply a usable trace.
    InvalidBandwidth {
        /// What is wrong with it.
        reason: String,
    },
    /// The fault plan violates an invariant (see `FaultPlan::validate`).
    InvalidFaultPlan {
        /// What is wrong with it.
        reason: String,
    },
    /// The retry policy violates an invariant (see `RetryPolicy::validate`).
    InvalidRetryPolicy {
        /// What is wrong with it.
        reason: String,
    },
    /// The scheduler kind's configuration violates an invariant (zero
    /// capacity, zero ladder threshold, ...).
    InvalidScheduler {
        /// What is wrong with it.
        reason: String,
    },
    /// An explicit packet or heartbeat trace ([`Scenario::packets`],
    /// [`Scenario::heartbeats`]) is unsorted, has a time that is negative
    /// or non-finite, or has a packet of an app with no registered profile.
    InvalidTrace {
        /// What is wrong with it.
        reason: String,
    },
    /// The run executed but the simulation oracle (in
    /// [`OracleMode::Strict`]) found a violated invariant.
    OracleViolation {
        /// The first violated invariant.
        violation: OracleViolation,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::InvalidDuration { horizon_s } => {
                write!(
                    f,
                    "scenario duration must be positive and finite, got {horizon_s} s"
                )
            }
            ScenarioError::InvalidWorkload { reason } => write!(
                f,
                "invalid workload: {reason}; every app's rate must be positive and finite"
            ),
            ScenarioError::InvalidBandwidth { reason } => {
                write!(f, "invalid bandwidth source: {reason}")
            }
            ScenarioError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            ScenarioError::InvalidRetryPolicy { reason } => {
                write!(f, "invalid retry policy: {reason}")
            }
            ScenarioError::InvalidScheduler { reason } => {
                write!(f, "invalid scheduler config: {reason}")
            }
            ScenarioError::InvalidTrace { reason } => {
                write!(f, "invalid trace override: {reason}")
            }
            ScenarioError::OracleViolation { violation } => {
                write!(f, "oracle violation: {violation}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which scheduling algorithm a scenario runs.
///
/// Serializes with its knob values (externally tagged), and displays as a
/// self-describing label (`eTrain(Θ=0.2, k=∞)`), so run specs and reports
/// carry the full algorithm configuration, not just a name.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Transmit on arrival (the paper's default baseline).
    Baseline,
    /// The eTrain online strategy (Algorithm 1).
    ETrain {
        /// The delay-cost bound Θ.
        theta: f64,
        /// Packets per heartbeat; `None` is the paper's k = ∞.
        k: Option<usize>,
    },
    /// The PerES comparator with the given cost bound Ω.
    PerEs {
        /// The performance cost bound Ω its dynamic V converges to.
        omega: f64,
    },
    /// The eTime comparator with the given static tradeoff V (bytes).
    ETime {
        /// Backlog threshold on an average channel, in bytes.
        v_bytes: f64,
    },
    /// eTrain wrapped in the Healthy → Degraded → Fallback degradation
    /// ladder with bounded admission.
    Guarded {
        /// The delay-cost bound Θ.
        theta: f64,
        /// Packets per heartbeat; `None` is the paper's k = ∞.
        k: Option<usize>,
        /// The ladder's thresholds.
        health: HealthConfig,
        /// Queue bounds and shed policy (unbounded for ladder-only runs).
        admission: AdmissionConfig,
    },
}

fn etrain_config(theta: f64, k: Option<usize>) -> ETrainConfig {
    ETrainConfig {
        theta,
        k,
        slot_s: 1.0,
    }
}

fn peres_config(omega: f64) -> PerEsConfig {
    PerEsConfig {
        omega,
        ..PerEsConfig::default()
    }
}

fn etime_config(v_bytes: f64) -> ETimeConfig {
    ETimeConfig {
        v_bytes,
        slot_s: 60.0,
    }
}

impl SchedulerKind {
    /// Builds the scheduler for the given registered app profiles.
    ///
    /// # Panics
    ///
    /// Panics if [`SchedulerKind::validate`] rejects the kind.
    pub fn build(&self, profiles: Vec<AppProfile>) -> Box<dyn Scheduler> {
        match *self {
            SchedulerKind::Baseline => Box::new(BaselineScheduler::new(profiles)),
            SchedulerKind::ETrain { theta, k } => {
                Box::new(ETrainScheduler::new(etrain_config(theta, k), profiles))
            }
            SchedulerKind::PerEs { omega } => {
                Box::new(PerEsScheduler::new(peres_config(omega), profiles))
            }
            SchedulerKind::ETime { v_bytes } => {
                Box::new(ETimeScheduler::new(etime_config(v_bytes), profiles))
            }
            SchedulerKind::Guarded {
                theta,
                k,
                health,
                admission,
            } => Box::new(
                GuardedScheduler::new(etrain_config(theta, k), health, profiles)
                    .with_admission(admission),
            ),
        }
    }

    /// Checks the kind's knobs with the predicates its scheduler's
    /// constructor asserts through, so a kind that passes builds without
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SchedulerKind::Baseline => Ok(()),
            SchedulerKind::ETrain { theta, k } => etrain_config(theta, k).validate(),
            SchedulerKind::PerEs { omega } => peres_config(omega).validate(),
            SchedulerKind::ETime { v_bytes } => etime_config(v_bytes).validate(),
            SchedulerKind::Guarded {
                theta,
                k,
                health,
                admission,
            } => {
                etrain_config(theta, k).validate()?;
                health.validate()?;
                admission.validate()
            }
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Baseline => "Baseline",
            SchedulerKind::ETrain { .. } => "eTrain",
            SchedulerKind::PerEs { .. } => "PerES",
            SchedulerKind::ETime { .. } => "eTime",
            SchedulerKind::Guarded { .. } => "eTrain (guarded)",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerKind::Baseline => write!(f, "Baseline"),
            SchedulerKind::ETrain { theta, k } => match k {
                Some(k) => write!(f, "eTrain(Θ={theta}, k={k})"),
                None => write!(f, "eTrain(Θ={theta}, k=∞)"),
            },
            SchedulerKind::PerEs { omega } => write!(f, "PerES(Ω={omega})"),
            SchedulerKind::ETime { v_bytes } => write!(f, "eTime(V={v_bytes} B)"),
            SchedulerKind::Guarded {
                theta,
                k,
                admission,
                ..
            } => {
                match k {
                    Some(k) => write!(f, "eTrain-guarded(Θ={theta}, k={k}")?,
                    None => write!(f, "eTrain-guarded(Θ={theta}, k=∞")?,
                }
                if !admission.is_unbounded() {
                    write!(f, ", {}", admission.policy)?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Where a scenario's bandwidth trace comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum BandwidthSource {
    /// The synthetic Wuhan drive trace (regime-switching AR process),
    /// seeded independently of the workload seed.
    SyntheticDrive,
    /// A constant bandwidth in bits per second (analytic comparisons).
    Constant(f64),
    /// An explicit trace.
    Trace(BandwidthTrace),
}

/// The generated inputs of one run — packet arrivals, heartbeat departures
/// and the bandwidth trace — behind `Arc`s so many runs over the same
/// workload + seed (a Θ sweep, a scheduler comparison) share one
/// synthesis instead of regenerating per point.
///
/// Produced by [`Scenario::generate_traces`] and cached across a grid by
/// the runner's trace cache (see [`crate::runner::TraceCache`]); consumed
/// by [`Scenario::try_run_journaled_on`].
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Cargo packet arrivals, in arrival order.
    pub packets: Arc<Vec<Packet>>,
    /// Train-app heartbeat departures, in departure order.
    pub heartbeats: Arc<Vec<Heartbeat>>,
    /// The time-varying channel the transmissions ride.
    pub bandwidth: Arc<BandwidthTrace>,
}

/// A complete experiment description with builder-style configuration.
///
/// [`Scenario::paper_default`] reproduces the paper's simulation setup
/// (Sec. VI-A): train apps QQ + WeChat + WhatsApp, cargo apps Mail +
/// Weibo + Cloud at total rate λ = 0.08 pkt/s, the synthetic drive
/// bandwidth trace, Galaxy S4 3G radio parameters, 7200-second horizon.
///
/// # Examples
///
/// ```
/// use etrain_sim::{Scenario, SchedulerKind};
///
/// let report = Scenario::paper_default()
///     .duration_secs(600)
///     .lambda(0.04)
///     .scheduler(SchedulerKind::Baseline)
///     .seed(1)
///     .run();
/// assert_eq!(report.scheduler, "Baseline");
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    trains: Vec<TrainAppSpec>,
    workload: CargoWorkload,
    packets_override: Option<Vec<Packet>>,
    heartbeats_override: Option<Vec<Heartbeat>>,
    profiles: Vec<AppProfile>,
    radio: RadioParams,
    bandwidth: BandwidthSource,
    horizon_s: f64,
    scheduler: SchedulerKind,
    seed: u64,
    faults: FaultPlan,
    retry: RetryPolicy,
    oracle: OracleMode,
    obs: ObsMode,
    engine: EngineKind,
    reference_cost: bool,
}

impl Scenario {
    /// The paper's reference simulation setup (see the type docs).
    pub fn paper_default() -> Self {
        Scenario {
            trains: TrainAppSpec::paper_trio(),
            workload: CargoWorkload::paper_default(0.08),
            packets_override: None,
            heartbeats_override: None,
            profiles: AppProfile::paper_defaults(),
            radio: RadioParams::galaxy_s4_3g(),
            bandwidth: BandwidthSource::SyntheticDrive,
            horizon_s: 7200.0,
            scheduler: SchedulerKind::ETrain {
                theta: 0.2,
                k: None,
            },
            seed: 0,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            oracle: OracleMode::Off,
            obs: ObsMode::Off,
            engine: EngineKind::default(),
            reference_cost: false,
        }
    }

    /// Sets the simulated duration in seconds.
    pub fn duration_secs(mut self, secs: u64) -> Self {
        self.horizon_s = secs as f64;
        self
    }

    /// Sets the scheduling algorithm.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Sets the workload/bandwidth seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the train apps (e.g. 0–3 trains for Fig. 10(a)).
    pub fn trains(mut self, trains: Vec<TrainAppSpec>) -> Self {
        self.trains = trains;
        self
    }

    /// Replaces the cargo workload.
    pub fn workload(mut self, workload: CargoWorkload) -> Self {
        self.workload = workload;
        self
    }

    /// Scales the paper workload to total arrival rate `lambda` (pkt/s),
    /// preserving the 5 : 2 : 10 app proportion (Fig. 8(b)).
    /// A `lambda` that is not positive and finite fails
    /// [`Scenario::validate`] with [`ScenarioError::InvalidWorkload`].
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.workload = CargoWorkload::paper_scaled(lambda);
        self
    }

    /// Uses an explicit packet trace instead of generating one (trace
    /// replay; the trace's app ids must match the registered profiles).
    pub fn packets(mut self, packets: Vec<Packet>) -> Self {
        self.packets_override = Some(packets);
        self
    }

    /// Uses an explicit heartbeat trace instead of synthesizing one.
    pub fn heartbeats(mut self, heartbeats: Vec<Heartbeat>) -> Self {
        self.heartbeats_override = Some(heartbeats);
        self
    }

    /// Replaces the cargo app profiles (delay-cost functions).
    pub fn profiles(mut self, profiles: Vec<AppProfile>) -> Self {
        self.profiles = profiles;
        self
    }

    /// Applies one shared deadline to every registered profile
    /// (the Fig. 10(c) deadline sweep).
    pub fn shared_deadline(mut self, deadline_s: f64) -> Self {
        for p in &mut self.profiles {
            p.cost = p.cost.with_deadline(deadline_s);
        }
        self
    }

    /// Replaces the radio parameter set.
    pub fn radio(mut self, radio: RadioParams) -> Self {
        self.radio = radio;
        self
    }

    /// Replaces the bandwidth source.
    pub fn bandwidth(mut self, bandwidth: BandwidthSource) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Injects a fault plan: channel outages, transmission loss, heartbeat
    /// drops and train deaths. `FaultPlan::none()` (the default) is a
    /// strict no-op — the run is bit-for-bit identical to a fault-free one.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the retry policy applied to transmissions the fault plan
    /// fails.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the simulation-oracle mode for this scenario's runs
    /// ([`Scenario::paper_default`] starts from `Off`).
    pub fn oracle(mut self, mode: OracleMode) -> Self {
        self.oracle = mode;
        self
    }

    /// The simulation-oracle mode this scenario runs under.
    pub fn oracle_mode(&self) -> OracleMode {
        self.oracle
    }

    /// Sets the observability mode for this scenario's runs
    /// ([`Scenario::paper_default`] starts from `Off`). With observability
    /// off the run takes the exact bit-for-bit code path it always did;
    /// any enabled mode makes [`Scenario::try_run_journaled_on`] return a
    /// structured event journal and fills
    /// [`RunReport::metrics`](crate::RunReport::metrics).
    ///
    /// # Examples
    ///
    /// ```
    /// use etrain_sim::{ObsMode, Scenario};
    ///
    /// let scenario = Scenario::paper_default()
    ///     .duration_secs(600)
    ///     .obs(ObsMode::Jsonl)
    ///     .seed(1);
    /// let (report, _output, journal) = scenario
    ///     .try_run_journaled_on(&scenario.generate_traces())
    ///     .expect("valid scenario");
    /// let journal = journal.expect("journaling was enabled");
    /// assert!(!journal.is_empty());
    /// assert!(report.metrics.is_some());
    /// ```
    pub fn obs(mut self, mode: ObsMode) -> Self {
        self.obs = mode;
        self
    }

    /// Sets the simulation kernel for this scenario's runs.
    /// [`Scenario::paper_default`] uses [`EngineKind::Event`];
    /// [`EngineKind::Slot`] is the differential reference the conformance
    /// and equivalence suites select here. Both kernels produce
    /// bit-for-bit identical reports, journals and oracle ledgers; the
    /// event kernel merely skips quiescent slot boundaries in bulk, so
    /// sparse standby scenarios run much faster.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// The simulation kernel this scenario runs under.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine
    }

    /// Makes the eTrain scheduler use its retained reference decision path
    /// (full per-slot cost recomputation, allocation-per-decision) instead
    /// of the cached hot path. [`Scenario::paper_default`] uses the cached
    /// path. Both paths are bit-for-bit equivalent; the reference path is
    /// the ground truth the equivalence test suite compares the hot path
    /// against.
    pub fn reference_cost(mut self, reference: bool) -> Self {
        self.reference_cost = reference;
        self
    }

    /// Whether this scenario's schedulers run their reference decision
    /// path.
    pub fn reference_cost_enabled(&self) -> bool {
        self.reference_cost
    }

    /// The scheduler this scenario runs.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.scheduler
    }

    /// The registered app profiles.
    pub fn profiles_ref(&self) -> &[AppProfile] {
        &self.profiles
    }

    /// Checks the scenario's inputs without running it.
    ///
    /// # Errors
    ///
    /// Returns the first problem found: non-positive duration, an app
    /// rate that is not positive and finite, unusable bandwidth source, an
    /// invalid fault plan, retry policy, scheduler kind or explicit trace.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if !(self.horizon_s.is_finite() && self.horizon_s > 0.0) {
            return Err(ScenarioError::InvalidDuration {
                horizon_s: self.horizon_s,
            });
        }
        let specs = self.workload.specs();
        let bad_app = specs
            .iter()
            .find(|s| !(s.rate().is_finite() && s.rate() > 0.0));
        if let (Some(spec), None) = (bad_app, &self.packets_override) {
            return Err(ScenarioError::InvalidWorkload {
                reason: format!("{} arrives at {} pkt/s", spec.name, spec.rate()),
            });
        }
        if let BandwidthSource::Constant(bps) = &self.bandwidth {
            if !(bps.is_finite() && *bps > 0.0) {
                return Err(ScenarioError::InvalidBandwidth {
                    reason: format!(
                        "constant bandwidth must be positive and finite, got {bps} bps"
                    ),
                });
            }
        }
        self.faults
            .validate()
            .map_err(|reason| ScenarioError::InvalidFaultPlan { reason })?;
        self.retry
            .validate()
            .map_err(|reason| ScenarioError::InvalidRetryPolicy { reason })?;
        self.scheduler
            .validate()
            .map_err(|reason| ScenarioError::InvalidScheduler { reason })?;
        if let Some(packets) = &self.packets_override {
            check_trace("packet", packets.iter().map(|p| p.arrival_s))?;
            if let Some(p) = packets
                .iter()
                .find(|p| p.app.index() >= self.profiles.len())
            {
                return Err(ScenarioError::InvalidTrace {
                    reason: format!(
                        "packet {} belongs to {}, which has no registered profile",
                        p.id, p.app
                    ),
                });
            }
        }
        if let Some(heartbeats) = &self.heartbeats_override {
            check_trace("heartbeat", heartbeats.iter().map(|hb| hb.time_s))?;
        }
        Ok(())
    }

    /// [`Scenario::try_run`] for callers that treat an invalid scenario or
    /// a strict-oracle violation as a bug: tests, examples and the
    /// repository benchmark.
    ///
    /// # Panics
    ///
    /// Panics with the [`ScenarioError`] that [`Scenario::try_run`] returns.
    // The repository benchmark (`benchmark/src/fleet.rs`) calls this, so it
    // stays, the one panicking entry point left in this crate, and goes
    // with benchmark v2, which should call `try_run`.
    #[allow(clippy::expect_used)]
    pub fn run(&self) -> RunReport {
        self.try_run().expect("invalid scenario")
    }

    /// Validates the scenario, generates its traces and runs
    /// [`Scenario::try_run_journaled_on`] on them.
    ///
    /// # Errors
    ///
    /// Returns what [`Scenario::validate`] returns, or, under
    /// [`OracleMode::Strict`], the first oracle violation.
    pub fn try_run(&self) -> Result<RunReport, ScenarioError> {
        self.validate()?;
        let (report, _, _) = self.try_run_journaled_on(&self.generate_traces())?;
        Ok(report)
    }

    /// A key identifying exactly the inputs that [`Scenario::generate_traces`]
    /// reads: the train specs, cargo workload, any explicit trace
    /// overrides, the bandwidth source, the horizon and the seed. Two
    /// scenarios with equal keys generate bit-identical [`TraceBundle`]s,
    /// so a cache may serve one bundle to both. Scheduler, profiles,
    /// radio, faults and retry policy deliberately do not contribute —
    /// sweeping those knobs reuses the traces.
    pub fn trace_key(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        // `{:?}` on f64 prints the shortest round-trip representation, so
        // the rendered tuple is injective over the generation inputs.
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            self.trains,
            self.workload,
            self.packets_override,
            self.heartbeats_override,
            self.bandwidth,
            self.horizon_s.to_bits(),
            self.seed,
        )
        .hash(&mut hasher);
        hasher.finish()
    }

    /// Synthesizes (or clones, for explicit overrides) the packet,
    /// heartbeat and bandwidth traces this scenario runs on. Deterministic
    /// in the scenario's [`Scenario::trace_key`] inputs.
    pub fn generate_traces(&self) -> TraceBundle {
        self.generate_traces_sharing(|seed| Arc::new(wuhan_drive_synthetic(seed)))
    }

    /// The seed [`Scenario::generate_traces_sharing`] synthesizes this
    /// scenario's drive trace from, if its bandwidth is the synthetic
    /// drive. The trace depends on nothing else, so scenarios that differ
    /// in workload or horizon but share this seed share the trace.
    pub(crate) fn drive_seed(&self) -> Option<u64> {
        matches!(self.bandwidth, BandwidthSource::SyntheticDrive).then(|| self.seed.wrapping_add(2))
    }

    /// [`Scenario::generate_traces`], with the synthetic drive trace taken
    /// from `drive`, which must answer `wuhan_drive_synthetic(seed)` for
    /// the [`Scenario::drive_seed`] it is given.
    pub(crate) fn generate_traces_sharing(
        &self,
        drive: impl FnOnce(u64) -> Arc<BandwidthTrace>,
    ) -> TraceBundle {
        let packets = match &self.packets_override {
            Some(p) => p.clone(),
            None => self.workload.generate(self.horizon_s, self.seed),
        };
        let heartbeats = match &self.heartbeats_override {
            Some(h) => h.clone(),
            None => synthesize(&self.trains, self.horizon_s, self.seed.wrapping_add(1)),
        };
        let bandwidth = match &self.bandwidth {
            BandwidthSource::SyntheticDrive => drive(self.seed.wrapping_add(2)),
            BandwidthSource::Constant(bps) => Arc::new(BandwidthTrace::constant(*bps)),
            BandwidthSource::Trace(trace) => Arc::new(trace.clone()),
        };
        TraceBundle {
            packets: Arc::new(packets),
            heartbeats: Arc::new(heartbeats),
            bandwidth,
        }
    }

    /// Runs the scenario on pre-generated traces (validating first) and
    /// returns the metrics report, the raw engine output (per-packet
    /// completions, the transmission log, the reconstructable power trace)
    /// and — when the scenario's [`ObsMode`] is enabled — the run's
    /// structured event journal, also filling
    /// [`RunReport::metrics`](crate::RunReport::metrics) with a
    /// [`MetricsRegistry`] snapshot. The caller is responsible for passing
    /// a bundle generated from a scenario with the same
    /// [`Scenario::trace_key`]; [`Scenario::generate_traces`] and the
    /// runner's trace cache uphold this.
    ///
    /// The journal is canonicalized ((time, seq)-ordered with densely
    /// renumbered sequence numbers), so two runs of the same scenario
    /// produce byte-identical [`Journal::to_jsonl`] output. RRC state
    /// transitions are reconstructed from the run's offline
    /// [`Timeline`] and merged into the event stream. With observability
    /// off the journal is `None` and the run carries no instrumentation
    /// overhead.
    ///
    /// # Errors
    ///
    /// Returns what [`Scenario::validate`] returns, or, under
    /// [`OracleMode::Strict`], the first oracle violation.
    pub fn try_run_journaled_on(
        &self,
        traces: &TraceBundle,
    ) -> Result<(RunReport, EngineOutput, Option<Journal>), ScenarioError> {
        self.validate()?;
        let mut scheduler = self.scheduler.build(self.profiles.clone());
        scheduler.set_reference_decisions(self.reference_cost);
        let mut journal = if self.obs.is_enabled() {
            Some(Journal::new())
        } else {
            None
        };
        let output = Engine::new(
            scheduler.as_mut(),
            &traces.packets,
            &traces.heartbeats,
            &traces.bandwidth,
            &self.radio,
            self.horizon_s,
            &self.faults,
            &self.retry,
            journal.as_mut(),
        )
        .with_kind(self.engine)
        .run();
        let mut report = RunReport::from_engine(scheduler.name(), &output, &self.profiles);
        if let Some(journal) = journal.as_mut() {
            let timeline = output.timeline();
            append_rrc_transitions(journal, &timeline);
            journal.canonicalize();
            report.metrics = Some(collect_metrics(&output, &timeline, &self.radio, journal));
        }
        if self.oracle.is_enabled() {
            report.oracle = Some(strict_gate(oracle::audit_run(
                &report,
                &output,
                &traces.packets,
                &traces.heartbeats,
                &self.faults,
                &self.profiles,
                self.oracle,
            ))?);
        }
        Ok((report, output, journal))
    }
}

/// Checks that an explicit trace's times are finite, not negative and in
/// order, as the engine replays them.
fn check_trace(what: &str, times: impl Iterator<Item = f64>) -> Result<(), ScenarioError> {
    let mut last = 0.0;
    for (index, time_s) in times.enumerate() {
        if !(time_s.is_finite() && time_s >= last) {
            let problem = if time_s.is_finite() && time_s >= 0.0 {
                "is earlier than the one before it"
            } else {
                "is negative or non-finite"
            };
            return Err(ScenarioError::InvalidTrace {
                reason: format!("{what} #{index} at {time_s} s {problem}"),
            });
        }
        last = time_s;
    }
    Ok(())
}

/// Passes an audit outcome through, unless it was audited under
/// [`OracleMode::Strict`] and found a violation: then the first violation
/// fails the run.
fn strict_gate(outcome: OracleOutcome) -> Result<OracleOutcome, ScenarioError> {
    match outcome.violations.first() {
        Some(first) if outcome.mode == OracleMode::Strict => Err(ScenarioError::OracleViolation {
            violation: first.clone(),
        }),
        _ => Ok(outcome),
    }
}

/// The journal's name for an RRC state.
pub(crate) fn state_name(state: RrcState) -> RrcStateName {
    match state {
        RrcState::Idle => RrcStateName::Idle,
        RrcState::Fach => RrcStateName::Fach,
        RrcState::Dch => RrcStateName::Dch,
    }
}

/// Reconstructs `Event::RrcTransition` events from the offline timeline
/// and appends them to the journal (the caller canonicalizes afterwards,
/// interleaving them with the online events by time).
fn append_rrc_transitions(journal: &mut Journal, timeline: &Timeline) {
    for pair in timeline.segments().windows(2) {
        if pair[0].state != pair[1].state {
            journal.push(
                pair[1].start_s,
                Event::RrcTransition {
                    from: state_name(pair[0].state),
                    to: state_name(pair[1].state),
                },
            );
        }
    }
}

/// Builds the run's metrics snapshot from the engine output, the offline
/// timeline and the canonicalized journal.
///
/// The three per-state energy gauges decompose the run's *total* energy:
/// each gauge is (baseline idle draw + that state's extra draw) × time in
/// state, so across the horizon the gauges sum to
/// [`RunReport::total_energy_j`](crate::RunReport::total_energy_j)
/// exactly (the same identity the oracle's energy-ledger invariant
/// audits).
fn collect_metrics(
    output: &EngineOutput,
    timeline: &Timeline,
    radio: &RadioParams,
    journal: &Journal,
) -> etrain_obs::MetricsSnapshot {
    let mut reg = MetricsRegistry::new();
    reg.heartbeats.add(output.heartbeats_sent as u64);
    reg.tx_starts.add(output.transmissions.len() as u64);
    reg.retries.add(output.retries as u64);
    reg.sheds.add(output.shed.len() as u64);
    reg.forced_flushes.add(output.forced_flushes as u64);
    reg.health_transitions
        .add(output.health_events.len() as u64);
    for record in journal.records() {
        match &record.event {
            Event::TailReuse { .. } => reg.tail_reuses.inc(),
            Event::PiggybackDecision {
                queued, released, ..
            } => {
                reg.decisions.inc();
                reg.releases.add(*released as u64);
                if *queued > 0 {
                    reg.queue_depth.observe(*queued as f64);
                }
            }
            Event::RrcTransition { .. } => reg.rrc_transitions.inc(),
            _ => {}
        }
    }
    let idle_mw = radio.idle_mw();
    // One batched pass over the segments; bit-identical to three
    // per-state `time_in_state_s` scans.
    let [idle_s, fach_s, dch_s] = timeline.time_in_states_s();
    reg.energy_idle_j.set(idle_mw * idle_s / 1000.0);
    reg.energy_fach_j
        .set((idle_mw + radio.fach_extra_mw()) * fach_s / 1000.0);
    reg.energy_dch_j
        .set((idle_mw + radio.dch_extra_mw()) * dch_s / 1000.0);
    reg.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_reproducible() {
        let a = Scenario::paper_default().duration_secs(900).seed(3).run();
        let b = Scenario::paper_default().duration_secs(900).seed(3).run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::paper_default().duration_secs(900).seed(3).run();
        let b = Scenario::paper_default().duration_secs(900).seed(4).run();
        assert_ne!(a, b);
    }

    #[test]
    fn scheduler_kinds_build_and_run() {
        for kind in [
            SchedulerKind::Baseline,
            SchedulerKind::ETrain {
                theta: 0.2,
                k: Some(20),
            },
            SchedulerKind::PerEs { omega: 0.5 },
            SchedulerKind::ETime { v_bytes: 50_000.0 },
        ] {
            let report = Scenario::paper_default()
                .duration_secs(600)
                .scheduler(kind)
                .seed(1)
                .run();
            assert_eq!(report.scheduler, kind.name());
            assert!(report.extra_energy_j > 0.0, "{}", kind.name());
        }
    }

    #[test]
    fn no_trains_means_no_heartbeats() {
        let report = Scenario::paper_default()
            .duration_secs(600)
            .trains(Vec::new())
            .scheduler(SchedulerKind::ETrain {
                theta: 0.2,
                k: None,
            })
            .seed(1)
            .run();
        assert_eq!(report.heartbeats_sent, 0);
        // With no trains alive, eTrain stops deferring: delay collapses.
        assert!(report.normalized_delay_s < 2.0);
    }

    #[test]
    fn shared_deadline_applies_to_all_profiles() {
        let s = Scenario::paper_default().shared_deadline(15.0);
        for p in s.profiles_ref() {
            assert_eq!(p.cost.deadline_s(), 15.0);
        }
    }

    #[test]
    fn constant_bandwidth_source() {
        let report = Scenario::paper_default()
            .duration_secs(600)
            .bandwidth(BandwidthSource::Constant(1_000_000.0))
            .seed(2)
            .run();
        assert!(report.busy_time_s > 0.0);
    }

    #[test]
    fn zero_fault_plan_is_bit_for_bit_identical_on_every_scheduler() {
        // The fault layer must be strictly additive: a fault-free plan —
        // even with a non-zero seed — reproduces the default run exactly,
        // for every scheduler kind.
        for kind in [
            SchedulerKind::Baseline,
            SchedulerKind::ETrain {
                theta: 0.2,
                k: None,
            },
            SchedulerKind::PerEs { omega: 0.5 },
            SchedulerKind::ETime { v_bytes: 50_000.0 },
        ] {
            let base = Scenario::paper_default()
                .duration_secs(1200)
                .scheduler(kind)
                .seed(7);
            let plain = base.clone().run();
            let faulted = base
                .faults(FaultPlan::seeded(123_456))
                .retry_policy(RetryPolicy::default())
                .run();
            assert_eq!(plain, faulted, "fault layer leaked into {}", kind.name());
        }
    }

    #[test]
    fn lossy_channel_produces_retries_and_wasted_energy() {
        let report = Scenario::paper_default()
            .duration_secs(1800)
            .scheduler(SchedulerKind::Baseline)
            .seed(5)
            .faults(FaultPlan::seeded(1).with_loss(0.3))
            .run();
        assert!(report.retries > 0, "30% loss must trigger retries");
        assert!(report.wasted_retry_energy_j > 0.0);
        assert!(report.wasted_retry_energy_j < report.transmission_energy_j);
    }

    #[test]
    fn impossible_loss_abandons_everything_released() {
        // Every attempt fails: nothing completes, everything released is
        // eventually abandoned (or still backing off at the horizon).
        let report = Scenario::paper_default()
            .duration_secs(1800)
            .scheduler(SchedulerKind::Baseline)
            .seed(5)
            .faults(FaultPlan::seeded(1).with_loss(1.0))
            .run();
        assert_eq!(report.packets_completed, 0);
        assert!(report.packets_abandoned > 0);
        assert!(report.abandonment_ratio > 0.5);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            Scenario::paper_default()
                .duration_secs(1500)
                .seed(9)
                .faults(
                    FaultPlan::seeded(4)
                        .with_loss(0.2)
                        .with_outage(300.0, 420.0)
                        .with_train_death(600.0, 900.0),
                )
                .run()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn train_death_window_suppresses_heartbeats() {
        let dead_all_run = Scenario::paper_default()
            .duration_secs(900)
            .seed(2)
            .faults(FaultPlan::seeded(0).with_train_death(0.0, 900.0))
            .run();
        assert_eq!(dead_all_run.heartbeats_sent, 0);
        // eTrain stops deferring when no train is alive: delay collapses.
        assert!(dead_all_run.normalized_delay_s < 2.0);
    }

    #[test]
    fn trace_key_ignores_run_knobs_and_tracks_trace_inputs() {
        let base = Scenario::paper_default().duration_secs(900).seed(3);
        let key = base.trace_key();
        // Scheduler, profiles, faults and retry do not feed the traces.
        assert_eq!(
            key,
            base.clone()
                .scheduler(SchedulerKind::Baseline)
                .shared_deadline(15.0)
                .faults(FaultPlan::seeded(9).with_loss(0.5))
                .trace_key()
        );
        // Seed, horizon, workload and bandwidth do.
        assert_ne!(key, base.clone().seed(4).trace_key());
        assert_ne!(key, base.clone().duration_secs(901).trace_key());
        assert_ne!(key, base.clone().lambda(0.05).trace_key());
        assert_ne!(
            key,
            base.clone()
                .bandwidth(BandwidthSource::Constant(1e6))
                .trace_key()
        );
    }

    #[test]
    fn shared_trace_bundle_reproduces_the_direct_run() {
        // One bundle, four schedulers: each run on the shared bundle must
        // be bit-for-bit identical to the self-generating path.
        let base = Scenario::paper_default().duration_secs(900).seed(11);
        let traces = base.generate_traces();
        for kind in [
            SchedulerKind::Baseline,
            SchedulerKind::ETrain {
                theta: 0.2,
                k: Some(20),
            },
            SchedulerKind::PerEs { omega: 0.5 },
            SchedulerKind::ETime { v_bytes: 50_000.0 },
        ] {
            let scenario = base.clone().scheduler(kind);
            let direct = scenario.run();
            let (shared, _, _) = scenario.try_run_journaled_on(&traces).unwrap();
            assert_eq!(direct, shared, "bundle run diverged for {kind}");
        }
    }

    #[test]
    fn scheduler_kind_display_is_self_describing() {
        assert_eq!(SchedulerKind::Baseline.to_string(), "Baseline");
        assert_eq!(
            SchedulerKind::ETrain {
                theta: 0.2,
                k: None
            }
            .to_string(),
            "eTrain(Θ=0.2, k=∞)"
        );
        assert_eq!(
            SchedulerKind::ETrain {
                theta: 1.5,
                k: Some(20)
            }
            .to_string(),
            "eTrain(Θ=1.5, k=20)"
        );
        assert_eq!(
            SchedulerKind::PerEs { omega: 0.5 }.to_string(),
            "PerES(Ω=0.5)"
        );
        assert_eq!(
            SchedulerKind::ETime { v_bytes: 50_000.0 }.to_string(),
            "eTime(V=50000 B)"
        );
    }

    #[test]
    fn scheduler_kind_serializes_with_knobs() {
        let json = serde_json::to_string(&SchedulerKind::ETrain {
            theta: 0.2,
            k: Some(20),
        })
        .unwrap();
        assert!(json.contains("ETrain"), "{json}");
        assert!(json.contains("theta"), "{json}");
        assert!(json.contains("0.2"), "{json}");
        let json = serde_json::to_string(&SchedulerKind::Baseline).unwrap();
        assert!(json.contains("Baseline"), "{json}");
    }

    #[test]
    fn validation_catches_bad_inputs() {
        let ok = Scenario::paper_default();
        assert_eq!(ok.validate(), Ok(()));

        let err = Scenario::paper_default().duration_secs(0).try_run();
        assert!(matches!(err, Err(ScenarioError::InvalidDuration { .. })));

        let err = Scenario::paper_default()
            .bandwidth(BandwidthSource::Constant(0.0))
            .try_run();
        assert!(matches!(err, Err(ScenarioError::InvalidBandwidth { .. })));

        let mut bad_plan = FaultPlan::none();
        bad_plan.loss_probability = 2.0;
        let err = Scenario::paper_default().faults(bad_plan).try_run();
        assert!(matches!(err, Err(ScenarioError::InvalidFaultPlan { .. })));

        let bad_retry = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let err = Scenario::paper_default().retry_policy(bad_retry).try_run();
        assert!(matches!(err, Err(ScenarioError::InvalidRetryPolicy { .. })));
        // Errors render readably.
        assert!(err.unwrap_err().to_string().contains("max_attempts"));
    }

    #[test]
    fn every_knob_a_constructor_asserts_on_is_a_scenario_error() {
        let guarded = |k: Option<usize>, health: HealthConfig, admission: AdmissionConfig| {
            SchedulerKind::Guarded {
                theta: 0.2,
                k,
                health,
                admission,
            }
        };
        let zero_threshold = HealthConfig {
            failure_threshold: 0,
            ..HealthConfig::default()
        };
        let zero_capacity = AdmissionConfig {
            global_capacity: Some(0),
            ..AdmissionConfig::unbounded()
        };
        let unbounded = AdmissionConfig::unbounded;
        let kinds = [
            (
                SchedulerKind::ETrain {
                    theta: 0.2,
                    k: Some(0),
                },
                "k must be at least 1",
            ),
            (
                SchedulerKind::ETrain {
                    theta: -1.0,
                    k: None,
                },
                "theta must be finite",
            ),
            (
                SchedulerKind::ETrain {
                    theta: f64::NAN,
                    k: None,
                },
                "theta must be finite",
            ),
            (SchedulerKind::ETime { v_bytes: -1.0 }, "v_bytes"),
            (SchedulerKind::ETime { v_bytes: f64::NAN }, "v_bytes"),
            (
                guarded(Some(0), HealthConfig::default(), unbounded()),
                "k must be at least 1",
            ),
            (
                guarded(None, zero_threshold, unbounded()),
                "failure threshold",
            ),
            (
                guarded(None, HealthConfig::default(), zero_capacity),
                "global capacity",
            ),
        ];
        for (kind, needle) in kinds {
            let err = Scenario::paper_default()
                .duration_secs(600)
                .scheduler(kind)
                .try_run()
                .unwrap_err();
            assert!(
                matches!(&err, ScenarioError::InvalidScheduler { reason } if reason.contains(needle)),
                "{kind}: {err}"
            );
            assert_eq!(kind.validate().map_err(|_| ()), Err(()), "{kind}");
        }
        for lambda in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Scenario::paper_default()
                .duration_secs(600)
                .lambda(lambda)
                .try_run()
                .unwrap_err();
            assert!(
                matches!(err, ScenarioError::InvalidWorkload { .. }),
                "λ={lambda}: {err}"
            );
        }
        // A valid λ builds the workload `CargoWorkload::paper_default` does.
        let scaled = Scenario::paper_default().lambda(0.04);
        let reference = Scenario::paper_default().workload(CargoWorkload::paper_default(0.04));
        assert_eq!(scaled.trace_key(), reference.trace_key());
    }

    #[test]
    fn validation_rejects_trace_overrides_the_engine_cannot_replay() {
        let hb = |time_s: f64| Heartbeat {
            train: etrain_trace::TrainAppId(0),
            time_s,
            size_bytes: 100,
        };
        let packet = |id: u64, app: usize, arrival_s: f64| Packet {
            id,
            app: etrain_trace::CargoAppId(app),
            arrival_s,
            size_bytes: 1_000,
        };
        let base = || Scenario::paper_default().duration_secs(600).seed(1);
        let cases = [
            (
                "unsorted heartbeats",
                base().heartbeats(vec![hb(300.0), hb(10.0)]),
                "heartbeat #1 at 10 s is earlier than the one before it",
            ),
            (
                "a heartbeat before 0 s",
                base().heartbeats(vec![hb(-50.0), hb(10.0)]),
                "heartbeat #0 at -50 s is negative or non-finite",
            ),
            (
                "a heartbeat at NaN",
                base().heartbeats(vec![hb(10.0), hb(f64::NAN)]),
                "heartbeat #1 at NaN s is negative or non-finite",
            ),
            (
                "a packet of an unregistered app",
                base().packets(vec![packet(0, 0, 5.0), packet(1, 9, 10.0)]),
                "packet 1 belongs to cargo#9, which has no registered profile",
            ),
            (
                "unsorted packets",
                base().packets(vec![packet(0, 0, 50.0), packet(1, 1, 10.0)]),
                "packet #1 at 10 s is earlier than the one before it",
            ),
            (
                "a packet at infinity",
                base().packets(vec![packet(0, 0, f64::INFINITY)]),
                "packet #0 at inf s is negative or non-finite",
            ),
        ];
        for (what, scenario, reason) in cases {
            match scenario.try_run() {
                Err(err @ ScenarioError::InvalidTrace { .. }) => {
                    assert!(err.to_string().contains(reason), "{what}: {err}");
                }
                other => panic!("{what}: {other:?}"),
            }
        }
        // Sorted overrides at and after 0 s, of registered apps, run.
        let ok = base()
            .heartbeats(vec![hb(0.0), hb(10.0), hb(10.0)])
            .packets(vec![packet(0, 0, 0.0), packet(1, 2, 0.0)]);
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn oracle_and_obs_knobs_read_back() {
        let s = Scenario::paper_default()
            .duration_secs(120)
            .oracle(OracleMode::Strict)
            .obs(ObsMode::Jsonl);
        assert_eq!(s.oracle_mode(), OracleMode::Strict);
        // The obs mode reads back through the run: a journal and metrics.
        let (report, _, journal) = s.try_run_journaled_on(&s.generate_traces()).unwrap();
        assert!(journal.is_some());
        assert!(report.metrics.is_some());
        assert!(report.oracle.is_some());
    }

    #[test]
    fn strict_gate_turns_a_violation_into_a_scenario_error() {
        let report = Scenario::paper_default()
            .oracle(OracleMode::Strict)
            .duration_secs(600)
            .seed(11)
            .try_run()
            .expect("a clean run passes the strict oracle");
        let clean = report.oracle.expect("an audited run carries its outcome");
        assert_eq!(strict_gate(clean.clone()), Ok(clean.clone()));

        let violation = OracleViolation::UnknownPacket { packet_id: 7 };
        let mut tampered = clean;
        tampered.violations = vec![
            violation.clone(),
            OracleViolation::UnknownPacket { packet_id: 8 },
        ];
        assert_eq!(
            strict_gate(tampered.clone()),
            Err(ScenarioError::OracleViolation {
                violation: violation.clone()
            })
        );
        // Record keeps the violations on the report instead.
        tampered.mode = OracleMode::Record;
        assert_eq!(strict_gate(tampered.clone()), Ok(tampered));
    }
}
