//! The replayable service state: deterministic core + dedup table +
//! health rung, all a pure function of the journaled command stream.
//!
//! The dedup table caches the core's own [`Admission`] per client id, so a
//! resend is answered from the table without re-entering the core, and the
//! fingerprint hashes each entry's JSON, written by
//! [`etrain_core::json::write_admission`].
//!
//! Everything the daemon must survive a crash with lives here, and every
//! mutation enters through [`ServiceState::apply`] with a serializable
//! [`SvcCommand`]. Recovery therefore *is* replay: feed the journal back
//! through `apply` and the pending queues, the idempotency table, and the
//! health ladder come back bit-for-bit — verified by
//! [`ServiceState::fingerprint`] against the last clean checkpoint.

use std::collections::BTreeMap;

use etrain_core::json::write_admission;
use etrain_core::{
    Admission, CommandOutcome, CoreCommand, CoreConfig, CoreStats, ETrainCore, TransmitRequest,
    TxResult,
};
use etrain_sched::{
    audit_transitions, CostProfile, HealthState, HealthTransition, TransitionCause,
};
use etrain_trace::CargoAppId;
use serde::{Deserialize, Serialize};

use crate::error::SvcError;

/// One journaled mutation of the service.
///
/// Most traffic wraps a [`CoreCommand`] unchanged; the service adds
/// exactly one verb of its own — idempotent submission keyed by a
/// client-supplied id, so a client that crashed between sending and
/// hearing the answer can safely resend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SvcCommand {
    /// A core mutation, applied verbatim.
    Core(CoreCommand),
    /// An idempotent submission. The first occurrence of `client_id`
    /// submits and caches the admission outcome; the service never
    /// journals a duplicate (the dedup check happens *before* the
    /// write-ahead append), so on replay each `client_id` appears at
    /// most once.
    SubmitIdem {
        /// Client-chosen request key, unique per logical submission.
        client_id: String,
        /// The submitting cargo app.
        app: CargoAppId,
        /// The request metadata.
        request: TransmitRequest,
        /// Submission time in seconds.
        now_s: f64,
    },
}

impl SvcCommand {
    /// Stable machine-readable name of the command, for logs.
    pub fn kind(&self) -> &'static str {
        match self {
            SvcCommand::Core(c) => c.kind(),
            SvcCommand::SubmitIdem { .. } => "submit_idem",
        }
    }

    /// The error refusing the first number the command carries that is
    /// not finite: a time or deadline, or a registered cost profile's
    /// parameter. JSON has no spelling for `inf` or `NaN`.
    pub(crate) fn non_finite(&self) -> Option<SvcError> {
        if let SvcCommand::Core(CoreCommand::RegisterCargo { profile }) = self {
            let shape = match profile.cost {
                CostProfile::DeadlineLinear { .. } => None,
                CostProfile::LinearThenConstant { ceiling, .. } => Some(("ceiling", ceiling)),
                CostProfile::LinearThenSteep { steepness, .. } => Some(("steepness", steepness)),
            };
            return [Some(("deadline", profile.cost.deadline_s())), shape]
                .into_iter()
                .flatten()
                .find(|(_, value)| !value.is_finite())
                .map(|(field, value)| SvcError::NonFiniteProfile { field, value });
        }
        let (now_s, request) = match self {
            SvcCommand::SubmitIdem { request, now_s, .. }
            | SvcCommand::Core(CoreCommand::Submit { request, now_s, .. }) => {
                (Some(*now_s), Some(request))
            }
            SvcCommand::Core(command) => (command.time_s(), None),
        };
        [
            ("time", now_s),
            ("deadline", request.and_then(|r| r.deadline_s)),
        ]
        .into_iter()
        .find_map(|(field, value)| Some((field, value.filter(|v| !v.is_finite())?)))
        .map(|(field, value)| SvcError::NonFiniteTime { field, value })
    }
}

/// What applying one [`SvcCommand`] produced.
#[derive(Debug, Clone, PartialEq)]
pub enum SvcOutcome {
    /// A wrapped core command's outcome.
    Core(CommandOutcome),
    /// A first-time idempotent submission.
    Submitted {
        /// The admission outcome, as cached in the dedup table.
        admission: Admission,
    },
    /// A duplicate idempotent submission, answered from the table with
    /// no state change and no journal append.
    Duplicate {
        /// The originally cached outcome.
        admission: Admission,
    },
}

/// Tuning of the service-level health rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SvcHealthConfig {
    /// Consecutive failed transmission reports that demote one rung.
    pub failure_threshold: usize,
    /// Consecutive heartbeats without an intervening failure that
    /// promote one rung.
    pub clean_heartbeats: usize,
}

impl Default for SvcHealthConfig {
    fn default() -> Self {
        SvcHealthConfig {
            failure_threshold: 3,
            clean_heartbeats: 5,
        }
    }
}

/// The service's replayable state.
///
/// The health rung here deliberately mirrors `GuardedScheduler`'s ladder
/// (same states, same causes, same audit) but is driven purely by the
/// command stream — failed `ReportResult`s demote, clean `Heartbeat`s
/// promote — so that a recovered daemon lands on the same rung as the
/// crashed one without any out-of-band signal. It stays a separate copy
/// on purpose: a delivered report clears the failure streak here, where
/// the simulator's ladder clears it on reaching Healthy.
#[derive(Debug)]
pub struct ServiceState {
    core: ETrainCore,
    health_cfg: SvcHealthConfig,
    dedup: BTreeMap<String, Admission>,
    health: HealthState,
    transitions: Vec<HealthTransition>,
    failure_streak: usize,
    clean_streak: usize,
    applied: u64,
}

impl ServiceState {
    /// A fresh state over a fresh core.
    pub fn new(config: CoreConfig, health: SvcHealthConfig) -> Self {
        ServiceState {
            core: ETrainCore::new(config),
            health_cfg: health,
            dedup: BTreeMap::new(),
            health: HealthState::Healthy,
            transitions: Vec::new(),
            failure_streak: 0,
            clean_streak: 0,
            applied: 0,
        }
    }

    /// Applies one command. Deterministic: the same command sequence
    /// from the same initial state always produces the same final state
    /// — including erroring commands, which mutate (at most the core
    /// clock) and error identically on the live path and on replay.
    ///
    /// # Errors
    ///
    /// Propagates core rejections ([`SvcError::Core`]).
    pub fn apply(&mut self, command: &SvcCommand) -> Result<SvcOutcome, SvcError> {
        let outcome = match command {
            SvcCommand::Core(core_cmd) => {
                let outcome = self.core.apply(core_cmd)?;
                self.update_health(core_cmd);
                SvcOutcome::Core(outcome)
            }
            SvcCommand::SubmitIdem {
                client_id,
                app,
                request,
                now_s,
            } => {
                if let Some(cached) = self.dedup.get(client_id) {
                    // Replay safety: the journal never holds a duplicate,
                    // but apply() stays total over arbitrary streams.
                    return Ok(SvcOutcome::Duplicate { admission: *cached });
                }
                let admission = self.core.submit(*app, *request, *now_s)?;
                self.dedup.insert(client_id.clone(), admission);
                SvcOutcome::Submitted { admission }
            }
        };
        self.applied += 1;
        Ok(outcome)
    }

    /// Answers an idempotent submission from the dedup table, if this
    /// `client_id` was already applied. The durable service consults
    /// this *before* journaling, so duplicates cost no append.
    pub fn cached_submission(&self, client_id: &str) -> Option<Admission> {
        self.dedup.get(client_id).copied()
    }

    fn update_health(&mut self, command: &CoreCommand) {
        match command {
            CoreCommand::ReportResult {
                result: TxResult::Failed,
                now_s,
                ..
            } => {
                self.clean_streak = 0;
                self.failure_streak += 1;
                if self.failure_streak >= self.health_cfg.failure_threshold {
                    let failures = self.failure_streak;
                    self.failure_streak = 0;
                    let next = match self.health {
                        HealthState::Healthy => Some(HealthState::Degraded),
                        HealthState::Degraded => Some(HealthState::Fallback),
                        HealthState::Fallback => None,
                    };
                    if let Some(next) = next {
                        self.transition(
                            *now_s,
                            next,
                            TransitionCause::RepeatedTxFailures { failures },
                        );
                    }
                }
            }
            CoreCommand::ReportResult {
                result: TxResult::Delivered,
                ..
            } => {
                self.failure_streak = 0;
            }
            CoreCommand::Heartbeat { now_s, .. } if self.health != HealthState::Healthy => {
                self.clean_streak += 1;
                if self.clean_streak >= self.health_cfg.clean_heartbeats {
                    let streak = self.clean_streak;
                    self.clean_streak = 0;
                    let next = match self.health {
                        HealthState::Fallback => HealthState::Degraded,
                        HealthState::Degraded | HealthState::Healthy => HealthState::Healthy,
                    };
                    self.transition(
                        *now_s,
                        next,
                        TransitionCause::Recovered {
                            clean_heartbeats: streak,
                        },
                    );
                }
            }
            _ => {}
        }
    }

    fn transition(&mut self, at_s: f64, to: HealthState, cause: TransitionCause) {
        if to == self.health {
            return;
        }
        self.transitions.push(HealthTransition {
            at_s,
            from: self.health,
            to,
            cause,
        });
        self.health = to;
    }

    /// The current health rung.
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// The recorded rung transitions, in time order. Always passes
    /// [`audit_transitions`]; [`ServiceState::audit`] re-checks.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    /// Runs the structural ladder audit over the recorded transitions.
    pub fn audit(&self) -> Vec<String> {
        audit_transitions(&self.transitions)
    }

    /// Commands applied since construction (erroring commands excluded).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The underlying core's cumulative statistics.
    pub fn stats(&self) -> CoreStats {
        self.core.stats()
    }

    /// Direct read access to the deterministic core.
    pub fn core(&self) -> &ETrainCore {
        &self.core
    }

    /// Number of distinct idempotency keys recorded.
    pub fn dedup_len(&self) -> usize {
        self.dedup.len()
    }

    /// A deterministic FNV-1a fingerprint over the *entire* recoverable
    /// state: the core fingerprint, the dedup table (in key order), the
    /// health rung with both streak counters, every recorded transition,
    /// and the applied-command count. Two states that applied the same
    /// command stream fingerprint identically; this is the value
    /// checkpoints record and crash recovery verifies.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = etrain_obs::Fnv1a::new();
        hash.field(&self.core.fingerprint().to_le_bytes());
        let mut json = String::new();
        for (key, admission) in &self.dedup {
            hash.field(key.as_bytes());
            json.clear();
            write_admission(&mut json, admission);
            hash.field(json.as_bytes());
        }
        hash.field(self.health.to_string().as_bytes());
        hash.field(&(self.failure_streak as u64).to_le_bytes());
        hash.field(&(self.clean_streak as u64).to_le_bytes());
        for t in &self.transitions {
            hash.field(t.to_string().as_bytes());
        }
        hash.field(&self.applied.to_le_bytes());
        hash.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etrain_core::{RequestId, TransmitRequest};
    use etrain_sched::{AppProfile, CostProfile};
    use etrain_trace::TrainAppId;

    fn fast_config() -> CoreConfig {
        CoreConfig {
            theta: 5.0,
            ..CoreConfig::default()
        }
    }

    fn state() -> ServiceState {
        ServiceState::new(fast_config(), SvcHealthConfig::default())
    }

    fn setup(s: &mut ServiceState) {
        s.apply(&SvcCommand::Core(CoreCommand::RegisterTrain {
            name: "WeChat".into(),
        }))
        .unwrap();
        s.apply(&SvcCommand::Core(CoreCommand::RegisterCargo {
            profile: AppProfile::new("Mail", CostProfile::mail(300.0)),
        }))
        .unwrap();
    }

    fn submit(id: &str, now_s: f64) -> SvcCommand {
        SvcCommand::SubmitIdem {
            client_id: id.into(),
            app: CargoAppId(0),
            request: TransmitRequest::upload(4_000),
            now_s,
        }
    }

    #[test]
    fn idempotent_submit_caches_and_replays_from_table() {
        let mut s = state();
        setup(&mut s);
        let first = s.apply(&submit("c-1", 1.0)).unwrap();
        let SvcOutcome::Submitted { admission } = first else {
            panic!("expected first-time submission, got {first:?}");
        };
        let id = admission.id().unwrap();
        let before = s.fingerprint();
        let dup = s.apply(&submit("c-1", 2.0)).unwrap();
        let SvcOutcome::Duplicate { admission: cached } = dup else {
            panic!("expected duplicate, got {dup:?}");
        };
        assert_eq!(cached.id(), Some(id));
        assert_eq!(s.fingerprint(), before, "a duplicate must not change state");
        assert_eq!(s.dedup_len(), 1);
    }

    #[test]
    fn failure_streak_walks_the_ladder_and_heartbeats_recover_it() {
        let mut s = state();
        setup(&mut s);
        // Admit and decide enough requests to have things to fail.
        let mut now = 0.0;
        let mut req_ids = Vec::new();
        for i in 0..6 {
            now += 1.0;
            let out = s.apply(&submit(&format!("c-{i}"), now)).unwrap();
            let SvcOutcome::Submitted { admission } = out else {
                panic!()
            };
            req_ids.push(admission.id().unwrap());
        }
        now += 1.0;
        s.apply(&SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(0),
            now_s: now,
        }))
        .unwrap();
        // Three consecutive failures demote to Degraded, three more to
        // Fallback.
        for id in req_ids.iter().take(6) {
            now += 1.0;
            let _ = s.apply(&SvcCommand::Core(CoreCommand::ReportResult {
                request: *id,
                result: TxResult::Failed,
                now_s: now,
            }));
        }
        assert_eq!(s.health(), HealthState::Fallback);
        // Ten clean heartbeats climb back to Healthy.
        for _ in 0..10 {
            now += 1.0;
            s.apply(&SvcCommand::Core(CoreCommand::Heartbeat {
                train: TrainAppId(0),
                now_s: now,
            }))
            .unwrap();
        }
        assert_eq!(s.health(), HealthState::Healthy);
        assert_eq!(s.transitions().len(), 4);
        assert!(s.audit().is_empty(), "{:?}", s.audit());
    }

    #[test]
    fn replay_reconstructs_fingerprint_bit_for_bit() {
        let mut live = state();
        setup(&mut live);
        let mut log = vec![
            SvcCommand::Core(CoreCommand::RegisterTrain {
                name: "WeChat".into(),
            }),
            SvcCommand::Core(CoreCommand::RegisterCargo {
                profile: AppProfile::new("Mail", CostProfile::mail(300.0)),
            }),
        ];
        for (i, now) in [(0, 1.0), (1, 2.0), (2, 3.0)] {
            let cmd = submit(&format!("k-{i}"), now);
            live.apply(&cmd).unwrap();
            log.push(cmd);
        }
        let hb = SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(0),
            now_s: 10.0,
        });
        live.apply(&hb).unwrap();
        log.push(hb);

        let mut replayed = state();
        for cmd in &log {
            replayed.apply(cmd).unwrap();
        }
        assert_eq!(replayed.fingerprint(), live.fingerprint());
        assert_eq!(replayed.applied(), live.applied());
        assert_eq!(replayed.stats(), live.stats());
    }

    #[test]
    fn erroring_commands_replay_deterministically() {
        // An unknown-train heartbeat errors but still advances the core
        // clock (validation happens after advance_clock) — what matters
        // for recovery is that replay mutates and errors *identically*.
        let mut live = state();
        setup(&mut live);
        let bad = SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(9),
            now_s: 1.0,
        });
        assert!(live.apply(&bad).is_err());

        let mut replayed = state();
        setup(&mut replayed);
        assert!(replayed.apply(&bad).is_err());
        assert_eq!(replayed.fingerprint(), live.fingerprint());

        // A time-went-backwards rejection fails before any mutation, so
        // it really does leave the state untouched.
        let before = live.fingerprint();
        let stale = SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(0),
            now_s: -1.0,
        });
        assert!(live.apply(&stale).is_err());
        assert_eq!(live.fingerprint(), before);
    }

    #[test]
    fn commands_round_trip_through_json() {
        let cmds = [
            submit("abc", 3.5),
            SvcCommand::Core(CoreCommand::Tick { now_s: 9.0 }),
        ];
        for cmd in &cmds {
            let json = serde_json::to_string(cmd).unwrap();
            let back: SvcCommand = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, cmd, "{json}");
        }
        assert_eq!(cmds[0].kind(), "submit_idem");
        assert_eq!(cmds[1].kind(), "tick");
    }

    #[test]
    fn cached_submission_answers_only_applied_client_ids() {
        let mut s = state();
        setup(&mut s);
        assert!(s.cached_submission("c-1").is_none());
        s.apply(&submit("c-1", 1.0)).unwrap();
        let cached = s.cached_submission("c-1").and_then(|a| a.id());
        assert_eq!(cached.map(|id| id.0), Some(0));
        assert!(s.cached_submission("c-2").is_none());
    }

    #[test]
    fn applied_counts_only_commands_that_succeed() {
        let mut s = state();
        setup(&mut s);
        assert_eq!(s.applied(), 2);
        let unknown = CoreCommand::Heartbeat {
            train: TrainAppId(9),
            now_s: 1.0,
        };
        assert!(s.apply(&SvcCommand::Core(unknown)).is_err());
        assert_eq!(s.applied(), 2);
    }

    /// Submits `n` requests and lets one heartbeat decide them all,
    /// returning their ids and the time reached.
    fn decided(s: &mut ServiceState, n: usize) -> (Vec<RequestId>, f64) {
        let mut ids = Vec::new();
        for i in 0..n {
            let out = s.apply(&submit(&format!("d-{i}"), 1.0 + i as f64)).unwrap();
            ids.push(out_id(&out));
        }
        let now_s = 1.0 + n as f64;
        s.apply(&heartbeat(now_s)).unwrap();
        (ids, now_s)
    }

    fn out_id(out: &SvcOutcome) -> RequestId {
        match out {
            SvcOutcome::Submitted { admission } => admission.id().unwrap(),
            other => panic!("expected a first-time submission, got {other:?}"),
        }
    }

    fn heartbeat(now_s: f64) -> SvcCommand {
        SvcCommand::Core(CoreCommand::Heartbeat {
            train: TrainAppId(0),
            now_s,
        })
    }

    fn report(request: RequestId, result: TxResult, now_s: f64) -> SvcCommand {
        SvcCommand::Core(CoreCommand::ReportResult {
            request,
            result,
            now_s,
        })
    }

    #[test]
    fn a_delivery_between_failures_restarts_the_streak() {
        let mut s = state();
        setup(&mut s);
        let (ids, mut now) = decided(&mut s, 9);
        // Two failures, a delivery, two failures, a delivery, ...: the
        // threshold of three consecutive failures is never reached.
        for (i, id) in ids.into_iter().enumerate() {
            now += 1.0;
            let result = if i % 3 == 2 {
                TxResult::Delivered
            } else {
                TxResult::Failed
            };
            s.apply(&report(id, result, now)).unwrap();
        }
        assert_eq!(s.health(), HealthState::Healthy);
        assert!(s.transitions().is_empty());
    }

    #[test]
    fn the_ladder_bottoms_out_at_fallback() {
        let mut s = state();
        setup(&mut s);
        let (ids, mut now) = decided(&mut s, 12);
        for id in ids {
            now += 1.0;
            s.apply(&report(id, TxResult::Failed, now)).unwrap();
        }
        assert_eq!(s.health(), HealthState::Fallback);
        let rungs: Vec<(HealthState, HealthState)> =
            s.transitions().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            rungs,
            [
                (HealthState::Healthy, HealthState::Degraded),
                (HealthState::Degraded, HealthState::Fallback),
            ]
        );
        assert!(s.audit().is_empty(), "{:?}", s.audit());
    }

    #[test]
    fn heartbeats_while_healthy_bank_no_clean_streak() {
        let mut s = state();
        setup(&mut s);
        let (ids, mut now) = decided(&mut s, 3);
        for _ in 0..20 {
            now += 1.0;
            s.apply(&heartbeat(now)).unwrap();
        }
        assert!(s.transitions().is_empty());
        for id in ids {
            now += 1.0;
            s.apply(&report(id, TxResult::Failed, now)).unwrap();
        }
        assert_eq!(s.health(), HealthState::Degraded);
        // The twenty healthy heartbeats do not count towards recovery:
        // it takes the full five after the demotion.
        for _ in 0..4 {
            now += 1.0;
            s.apply(&heartbeat(now)).unwrap();
        }
        assert_eq!(s.health(), HealthState::Degraded);
        now += 1.0;
        s.apply(&heartbeat(now)).unwrap();
        assert_eq!(s.health(), HealthState::Healthy);
        assert_eq!(s.transitions().len(), 2);
    }

    #[test]
    fn a_refused_idempotent_submit_is_not_cached() {
        let mut s = ServiceState::new(fast_config(), SvcHealthConfig::default());
        let early = submit("c-1", 1.0);
        assert!(matches!(s.apply(&early), Err(SvcError::Core(_))));
        assert!(s.cached_submission("c-1").is_none());
        assert_eq!(s.dedup_len(), 0);
        // Once the app exists, the same key submits for the first time.
        s.apply(&SvcCommand::Core(CoreCommand::RegisterCargo {
            profile: AppProfile::new("Mail", CostProfile::mail(300.0)),
        }))
        .unwrap();
        let later = submit("c-1", 2.0);
        assert!(matches!(
            s.apply(&later).unwrap(),
            SvcOutcome::Submitted { .. }
        ));
        assert_eq!(s.dedup_len(), 1);
    }

    #[test]
    fn the_fingerprint_covers_the_idempotency_keys() {
        let mut a = state();
        let mut b = state();
        setup(&mut a);
        setup(&mut b);
        a.apply(&submit("alpha", 1.0)).unwrap();
        b.apply(&submit("bravo", 1.0)).unwrap();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.core().fingerprint(), b.core().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
