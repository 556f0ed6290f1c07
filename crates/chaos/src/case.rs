//! One chaos case: a serializable scenario plan, the scheduler it runs
//! under, and an optional post-run corruption for oracle self-testing.
//!
//! A [`ChaosCase`] is the unit the campaign sweeps, the shrinker
//! minimizes, and a repro artifact replays, and [`ChaosCase::run`] is the
//! one place any of them runs and judges it. Running one yields either
//! `None` (clean) or a [`CaseFailure`] — an oracle violation, a panic, a
//! scenario that refuses to validate, or a health-ladder anomaly.

use etrain_sim::oracle::{self, OracleMode, OracleViolation};
use etrain_sim::{CasePlan, EngineKind, EngineOutput, FaultPlan, ScenarioError, SchedulerKind};
use serde::{Deserialize, Serialize};

/// A deliberate post-run corruption of the engine output, used to prove
/// the oracle actually catches broken runs (the campaign's self-test
/// tier). Each variant mirrors a plausible engine bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Corruption {
    /// Inflate the tail-energy ledger by a joule.
    TamperTailEnergy,
    /// Halve the duration of the last logged transmission (a truncated
    /// DCH tail).
    TruncateTransmission,
    /// Drop the last completion record (a lost packet).
    DropCompletion,
    /// Record the first completion twice (a double terminal state).
    DuplicateCompletion,
    /// Log the first busy interval twice (overlapping radio activity).
    DuplicateTransmission,
    /// Claim retries happened in a run whose fault plan is a no-op.
    PhantomRetry,
    /// Report one more heartbeat than the run transmitted.
    InflateHeartbeatCount,
    /// Swap the first two transmissions out of time order (an event
    /// kernel that retired slot events in the wrong sequence).
    SwapTransmissions,
}

impl Corruption {
    /// Every corruption, for the self-test sweep.
    pub fn all() -> [Corruption; 8] {
        [
            Corruption::TamperTailEnergy,
            Corruption::TruncateTransmission,
            Corruption::DropCompletion,
            Corruption::DuplicateCompletion,
            Corruption::DuplicateTransmission,
            Corruption::PhantomRetry,
            Corruption::InflateHeartbeatCount,
            Corruption::SwapTransmissions,
        ]
    }

    /// Applies the corruption in place. Returns `false` when the output
    /// has nothing to corrupt (no completions to drop, say) — the case
    /// then counts as clean, which is what lets the shrinker find the
    /// smallest run that still *has* the corrupted artifact.
    pub fn apply(&self, output: &mut EngineOutput) -> bool {
        match self {
            Corruption::TamperTailEnergy => output.tail_energy_j += 1.0,
            Corruption::PhantomRetry => output.retries += 3,
            Corruption::InflateHeartbeatCount => output.heartbeats_sent += 1,
            Corruption::DropCompletion => return output.completed.pop().is_some(),
            Corruption::TruncateTransmission => match output.transmissions.last_mut() {
                Some(last) => last.duration_s *= 0.5,
                None => return false,
            },
            Corruption::DuplicateCompletion => match output.completed.first().copied() {
                Some(first) => output.completed.push(first),
                None => return false,
            },
            Corruption::DuplicateTransmission => match output.transmissions.first().copied() {
                Some(first) => output.transmissions.push(first),
                None => return false,
            },
            Corruption::SwapTransmissions if output.transmissions.len() < 2 => return false,
            Corruption::SwapTransmissions => output.transmissions.swap(0, 1),
        }
        true
    }
}

/// The variant name of an oracle violation (how its derived `Debug`
/// output starts), used as the failure signature the shrinker preserves
/// ([`OracleViolation`] carries payload data, so its `Display` output is
/// too specific to survive shrinking).
pub fn violation_name(violation: &OracleViolation) -> String {
    let debug = format!("{violation:?}");
    debug
        .split([' ', '{', '('])
        .next()
        .unwrap_or_default()
        .to_owned()
}

/// Why a chaos case failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CaseFailure {
    /// The oracle flagged the run.
    OracleViolations {
        /// Variant names of every violation, in audit order.
        kinds: Vec<String>,
        /// The violations rendered for humans.
        rendered: Vec<String>,
    },
    /// The run panicked.
    Panicked {
        /// The panic payload, stringified.
        payload: String,
    },
    /// The scenario failed validation (a generator or shrinker bug).
    InvalidScenario {
        /// The validation error, rendered.
        reason: String,
    },
    /// The degradation ladder's transition log violated its structural
    /// invariants (see `etrain_sched::audit_transitions`).
    HealthAnomalies {
        /// One description per anomaly.
        anomalies: Vec<String>,
    },
}

impl CaseFailure {
    /// A compact signature of the failure class: what the shrinker must
    /// preserve and what a repro artifact pins.
    pub fn signature(&self) -> String {
        match self {
            CaseFailure::OracleViolations { kinds, .. } => {
                format!("oracle:{}", kinds.first().map_or("?", String::as_str))
            }
            CaseFailure::Panicked { .. } => "panic".to_string(),
            CaseFailure::InvalidScenario { .. } => "invalid-scenario".to_string(),
            CaseFailure::HealthAnomalies { .. } => "health".to_string(),
        }
    }

    /// Whether `candidate` reproduces the same failure class as `self` —
    /// for oracle failures, any overlapping violation variant counts
    /// (shrinking can legitimately shift which related invariant trips
    /// first, e.g. a ledger imbalance surfacing as a busy-time mismatch).
    pub fn matches(&self, candidate: &CaseFailure) -> bool {
        match (self, candidate) {
            (
                CaseFailure::OracleViolations { kinds: a, .. },
                CaseFailure::OracleViolations { kinds: b, .. },
            ) => a.iter().any(|k| b.contains(k)),
            (CaseFailure::Panicked { .. }, CaseFailure::Panicked { .. })
            | (CaseFailure::InvalidScenario { .. }, CaseFailure::InvalidScenario { .. })
            | (CaseFailure::HealthAnomalies { .. }, CaseFailure::HealthAnomalies { .. }) => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaseFailure::OracleViolations { rendered, .. } => {
                write!(f, "oracle violations: {}", rendered.join("; "))
            }
            CaseFailure::Panicked { payload } => write!(f, "panicked: {payload}"),
            CaseFailure::InvalidScenario { reason } => write!(f, "invalid scenario: {reason}"),
            CaseFailure::HealthAnomalies { anomalies } => {
                write!(f, "health-ladder anomalies: {}", anomalies.join("; "))
            }
        }
    }
}

/// One chaos case: a plan, a scheduler, an engine kernel, and an
/// optional corruption.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCase {
    /// The serializable scenario description.
    pub plan: CasePlan,
    /// The scheduler under test.
    pub kind: SchedulerKind,
    /// The engine kernel the case runs under.
    pub engine: EngineKind,
    /// A post-run corruption, for oracle self-tests; `None` for the
    /// campaign's real sweep.
    pub corruption: Option<Corruption>,
}

impl ChaosCase {
    /// The campaign's case for `seed`: the conformance generator's plan
    /// (faults on odd seeds), the scheduler rotated through the
    /// conformance kinds, the kernel alternating by seed parity, no
    /// corruption.
    pub fn from_seed(seed: u64) -> ChaosCase {
        let kinds = etrain_sim::conformance_kinds();
        ChaosCase {
            plan: CasePlan::from_seed(seed, seed % 2 == 1),
            kind: kinds[(seed % kinds.len() as u64) as usize],
            engine: engine_for_seed(seed),
            corruption: None,
        }
    }

    /// A short label for grids and findings.
    pub fn label(&self) -> String {
        format!("seed={} {}", self.plan.seed, self.kind)
    }

    /// Runs the case end to end and judges it: the engine under
    /// [`OracleMode::Record`], so the clean run's full audit (engine and
    /// report) reports every violation; then the optional corruption,
    /// whose output is checked with [`oracle::audit_engine`]; then the
    /// health-ladder audit. A panic anywhere in building or running the
    /// scenario is caught and becomes [`CaseFailure::Panicked`]. `None`
    /// means clean.
    pub fn run(&self) -> Option<CaseFailure> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> Result<_, ScenarioError> {
                let scenario = self
                    .plan
                    .scenario()
                    .scheduler(self.kind)
                    .engine(self.engine)
                    .oracle(OracleMode::Record);
                scenario.validate()?;
                let traces = scenario.generate_traces();
                let (report, output, _) = scenario.try_run_journaled_on(&traces)?;
                Ok((report, output, traces))
            },
        ));
        let (report, mut output, traces) = match outcome {
            Ok(Ok(run)) => run,
            Ok(Err(error)) => {
                return Some(CaseFailure::InvalidScenario {
                    reason: error.to_string(),
                })
            }
            Err(payload) => {
                return Some(CaseFailure::Panicked {
                    payload: etrain_sim::runner::panic_payload_string(payload.as_ref()),
                })
            }
        };
        if let Some(audit) = &report.oracle {
            if let Some(failure) = oracle_failure(&audit.violations) {
                return Some(failure);
            }
        }
        if let Some(corruption) = self.corruption {
            if !corruption.apply(&mut output) {
                return None;
            }
            let faults = self.plan.faults.clone().unwrap_or_else(FaultPlan::none);
            let audit = oracle::audit_engine(&output, &traces.packets, &traces.heartbeats, &faults);
            if let Some(failure) = oracle_failure(&audit.violations) {
                return Some(failure);
            }
        }
        let anomalies = etrain_sched::audit_transitions(&report.health_events);
        (!anomalies.is_empty()).then_some(CaseFailure::HealthAnomalies { anomalies })
    }
}

/// The campaign's kernel for `seed`: [`EngineKind::Slot`] on even seeds,
/// [`EngineKind::Event`] on odd ones, so a sweep runs both.
pub(crate) fn engine_for_seed(seed: u64) -> EngineKind {
    if seed.is_multiple_of(2) {
        EngineKind::Slot
    } else {
        EngineKind::Event
    }
}

/// Every violation of an audit as one failure; `None` when there is none.
fn oracle_failure(violations: &[OracleViolation]) -> Option<CaseFailure> {
    (!violations.is_empty()).then(|| CaseFailure::OracleViolations {
        kinds: violations.iter().map(violation_name).collect(),
        rendered: violations.iter().map(ToString::to_string).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cases_run_clean() {
        for seed in 0..4 {
            let case = ChaosCase::from_seed(seed);
            assert_eq!(case.run(), None, "seed {seed} should be clean");
        }
    }

    #[test]
    fn every_corruption_is_caught_on_a_busy_run() {
        let mut base = ChaosCase::from_seed(6);
        base.plan.faults = None;
        base.kind = SchedulerKind::Baseline;
        assert_eq!(base.run(), None, "uncorrupted reference must be clean");
        for corruption in Corruption::all() {
            let case = ChaosCase {
                corruption: Some(corruption),
                ..base.clone()
            };
            let failure = case
                .run()
                .unwrap_or_else(|| panic!("{corruption:?} escaped the oracle"));
            assert!(
                matches!(failure, CaseFailure::OracleViolations { .. }),
                "{corruption:?} produced {failure:?}"
            );
        }
    }

    #[test]
    fn campaign_cases_alternate_kernels_by_seed_parity() {
        assert_eq!(ChaosCase::from_seed(0).engine, EngineKind::Slot);
        assert_eq!(ChaosCase::from_seed(1).engine, EngineKind::Event);
        assert_eq!(ChaosCase::from_seed(2).engine, EngineKind::Slot);
    }

    #[test]
    fn event_ordering_corruption_is_caught_under_the_event_kernel() {
        let mut base = ChaosCase::from_seed(6);
        base.plan.faults = None;
        base.kind = SchedulerKind::Baseline;
        base.engine = EngineKind::Event;
        assert_eq!(base.run(), None, "uncorrupted reference must be clean");
        let case = ChaosCase {
            corruption: Some(Corruption::SwapTransmissions),
            ..base
        };
        let failure = case
            .run()
            .expect("swapped transmissions escaped the oracle");
        match failure {
            CaseFailure::OracleViolations { kinds, .. } => {
                assert!(
                    kinds.iter().any(|k| k == "OverlappingTransmissions"),
                    "unexpected violations: {kinds:?}"
                );
            }
            other => panic!("expected oracle violations, got {other:?}"),
        }
    }

    #[test]
    fn cases_round_trip_through_json() {
        let mut case = ChaosCase::from_seed(11);
        case.corruption = Some(Corruption::DropCompletion);
        let json = serde_json::to_string(&case).unwrap();
        let back: ChaosCase = serde_json::from_str(&json).unwrap();
        assert_eq!(case, back);
    }

    #[test]
    fn signatures_and_matching_behave() {
        let oracle_a = CaseFailure::OracleViolations {
            kinds: vec!["EnergyImbalance".into(), "MetricsMismatch".into()],
            rendered: vec![],
        };
        let oracle_b = CaseFailure::OracleViolations {
            kinds: vec!["MetricsMismatch".into()],
            rendered: vec![],
        };
        let panic = CaseFailure::Panicked {
            payload: "boom".into(),
        };
        assert_eq!(oracle_a.signature(), "oracle:EnergyImbalance");
        assert!(oracle_a.matches(&oracle_b));
        assert!(!oracle_b.matches(&panic));
        assert!(panic.matches(&CaseFailure::Panicked {
            payload: "other".into()
        }));
    }

    #[test]
    fn violation_names_ignore_the_payload() {
        let a = OracleViolation::HeartbeatCount {
            expected: 3,
            sent: 2,
        };
        let b = OracleViolation::HeartbeatCount {
            expected: 40,
            sent: 41,
        };
        assert_eq!(violation_name(&a), "HeartbeatCount");
        assert_eq!(violation_name(&a), violation_name(&b));
        let other = OracleViolation::UnknownPacket { packet_id: 3 };
        assert_eq!(violation_name(&other), "UnknownPacket");
    }

    #[test]
    fn a_case_without_its_engine_is_refused() {
        // Cases written before the kernel was recorded had no `engine`
        // field; `chaos` always writes it, and the reader requires it.
        let case = ChaosCase::from_seed(4);
        let json = serde_json::to_string(&case).unwrap();
        let field = format!(
            ",\"engine\":{}",
            serde_json::to_string(&case.engine).unwrap()
        );
        assert!(json.contains(&field), "{json}");
        let legacy = json.replace(&field, "");
        assert!(
            serde_json::from_str::<ChaosCase>(&legacy).is_err(),
            "{legacy}"
        );
    }

    #[test]
    fn each_failure_class_has_its_own_signature_and_text() {
        let failures = [
            CaseFailure::OracleViolations {
                kinds: vec![],
                rendered: vec!["a".into(), "b".into()],
            },
            CaseFailure::Panicked {
                payload: "boom".into(),
            },
            CaseFailure::InvalidScenario {
                reason: "bad".into(),
            },
            CaseFailure::HealthAnomalies {
                anomalies: vec!["x".into(), "y".into()],
            },
        ];
        let signatures: Vec<String> = failures.iter().map(CaseFailure::signature).collect();
        assert_eq!(
            signatures,
            ["oracle:?", "panic", "invalid-scenario", "health"]
        );
        let texts: Vec<String> = failures.iter().map(ToString::to_string).collect();
        assert_eq!(
            texts,
            [
                "oracle violations: a; b",
                "panicked: boom",
                "invalid scenario: bad",
                "health-ladder anomalies: x; y",
            ]
        );
        for (i, a) in failures.iter().enumerate() {
            for (j, b) in failures.iter().enumerate() {
                // An oracle failure with no kinds shares none with anyone.
                let same_class = i == j && i != 0;
                assert_eq!(a.matches(b), same_class, "{a} vs {b}");
            }
        }
    }
}
