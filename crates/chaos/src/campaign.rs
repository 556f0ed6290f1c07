//! The seeded campaign driver: many chaos cases swept through the grid
//! runner under the strict oracle, every failure collected.
//!
//! The campaign reuses the production execution path on purpose — cases
//! become [`RunSpec`]s and run through [`RunGrid::run_each`] on the
//! worker pool, so panics are isolated per job, strict-mode oracle
//! violations surface as typed errors, and every failing job is reported,
//! not just the first. Health-ladder logs are audited from the completed
//! reports afterwards.

use etrain_sim::oracle::OracleMode;
use etrain_sim::{RunError, RunGrid, RunSpec, ScenarioError};
use serde::{Deserialize, Serialize};

use crate::case::{violation_name, CaseFailure, ChaosCase};

/// A failing case paired with why it failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// The case that failed (replayable as-is).
    pub case: ChaosCase,
    /// What went wrong.
    pub failure: CaseFailure,
}

/// The outcome of one campaign sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Cases swept.
    pub cases_run: usize,
    /// Every failure, in grid order.
    pub findings: Vec<Finding>,
}

impl CampaignReport {
    /// `true` when no case failed.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Builds the campaign's case list: `count` consecutive seeds starting at
/// `start_seed`, faults on odd seeds, scheduler rotated per seed, engine
/// kernel alternating by seed parity. `quick` caps each horizon at 600 s
/// so wide sweeps stay cheap.
pub fn campaign_cases(start_seed: u64, count: u64, quick: bool) -> Vec<ChaosCase> {
    (start_seed..start_seed.saturating_add(count))
        .map(|seed| {
            let mut case = ChaosCase::from_seed(seed);
            if quick {
                case.plan.horizon_s = case.plan.horizon_s.min(600);
            }
            case
        })
        .collect()
}

/// Sweeps `cases` through the grid runner in [`OracleMode::Strict`] on
/// `jobs` workers, collecting every oracle violation, panic, invalid
/// scenario, and health-ladder anomaly.
pub fn run_campaign(cases: &[ChaosCase], jobs: usize) -> CampaignReport {
    // Scenario construction can itself assert on degenerate knobs, so
    // build each spec under isolation; a case whose scenario cannot even
    // be built becomes a panic finding instead of tearing down the sweep.
    let mut findings = Vec::new();
    let mut case_of_spec = Vec::with_capacity(cases.len());
    let mut specs = Vec::with_capacity(cases.len());
    for (index, case) in cases.iter().enumerate() {
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case.plan
                .scenario()
                .scheduler(case.kind)
                .engine(case.engine)
        }));
        match built {
            Ok(scenario) => {
                case_of_spec.push(index);
                specs.push(RunSpec::new(case.label(), scenario));
            }
            Err(payload) => findings.push(Finding {
                case: case.clone(),
                failure: CaseFailure::Panicked {
                    payload: crate::case::panic_payload(&payload),
                },
            }),
        }
    }
    let grid = RunGrid::from_specs(specs)
        .oracle(OracleMode::Strict)
        .jobs(jobs);
    let outcomes = grid.run_each();

    for error in outcomes.iter().filter_map(|o| o.as_ref().err()) {
        let failure = match error {
            RunError::Scenario {
                error: ScenarioError::OracleViolation { violation },
                ..
            } => CaseFailure::OracleViolations {
                kinds: vec![violation_name(violation).to_string()],
                rendered: vec![violation.to_string()],
            },
            RunError::Scenario { error, .. } => CaseFailure::InvalidScenario {
                reason: error.to_string(),
            },
            RunError::Panicked { payload, .. } => CaseFailure::Panicked {
                payload: payload.clone(),
            },
        };
        findings.push(Finding {
            case: cases[case_of_spec[error.index()]].clone(),
            failure,
        });
    }
    for (index, report) in outcomes.iter().enumerate() {
        let Ok(report) = report else { continue };
        let anomalies = etrain_sched::audit_transitions(&report.health_events);
        if !anomalies.is_empty() {
            findings.push(Finding {
                case: cases[case_of_spec[index]].clone(),
                failure: CaseFailure::HealthAnomalies { anomalies },
            });
        }
    }
    CampaignReport {
        cases_run: cases.len(),
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_campaign_sweeps_clean() {
        let cases = campaign_cases(0, 6, true);
        assert_eq!(cases.len(), 6);
        let report = run_campaign(&cases, 2);
        assert_eq!(report.cases_run, 6);
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.findings
        );
    }

    #[test]
    fn quick_mode_caps_horizons() {
        for case in campaign_cases(0, 16, true) {
            assert!(case.plan.horizon_s <= 600);
        }
        // The generator's range reaches past the quick cap, so the cap
        // must actually bind somewhere in a small seed window.
        assert!(campaign_cases(0, 16, false)
            .iter()
            .any(|c| c.plan.horizon_s > 600));
    }

    #[test]
    fn broken_cases_surface_as_findings_not_crashes() {
        use etrain_sim::{FaultPlan, FaultWindow};
        let mut cases = campaign_cases(0, 3, true);
        // Seed 1: a fault plan that fails validation (reversed window).
        let mut faults = FaultPlan::none();
        faults.outages.push(FaultWindow {
            start_s: 10.0,
            end_s: 5.0,
        });
        cases[1].plan.faults = Some(faults);
        // Seed 2: a knob the scenario builder asserts on outright.
        cases[2].plan.lambda = f64::NAN;
        let report = run_campaign(&cases, 1);
        assert_eq!(report.cases_run, 3);
        assert_eq!(report.findings.len(), 2, "findings: {:?}", report.findings);
        let failure_for = |seed: u64| {
            &report
                .findings
                .iter()
                .find(|f| f.case.plan.seed == seed)
                .unwrap_or_else(|| panic!("no finding for seed {seed}"))
                .failure
        };
        assert!(matches!(
            failure_for(1),
            CaseFailure::InvalidScenario { .. }
        ));
        assert!(matches!(failure_for(2), CaseFailure::Panicked { .. }));
    }
}
