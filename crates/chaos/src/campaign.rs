//! The seeded campaign, the oracle self-test, and the [`Verdict`] that
//! names what either found. The campaign runs every case through
//! [`ChaosCase::run`] on the worker pool ([`run_pool`]), so it judges a
//! case exactly as the shrinker and a replayed repro do.

use etrain_sim::{run_pool, CasePlan, SchedulerKind};
use serde::{Deserialize, Serialize};

use crate::case::{engine_for_seed, CaseFailure, ChaosCase, Corruption};
use crate::shrink::{shrink, ReproCase};

/// The largest repro, in events, a self-test corruption may shrink to.
pub const MAX_REPRO_EVENTS: usize = 10;

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
    /// Every failure, in case order.
    pub findings: Vec<Finding>,
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

/// Runs every case through [`ChaosCase::run`] on `jobs` workers and
/// collects the failing ones, in case order.
pub fn run_campaign(cases: &[ChaosCase], jobs: usize) -> CampaignReport {
    let failures = run_pool(cases, jobs, ChaosCase::run);
    let findings = cases
        .iter()
        .zip(failures)
        .filter_map(|(case, failure)| {
            failure.map(|failure| Finding {
                case: case.clone(),
                failure,
            })
        })
        .collect();
    CampaignReport {
        cases_run: cases.len(),
        findings,
    }
}

/// One corruption of the self-test and the repro it shrank to.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTestResult {
    /// The injected corruption.
    pub corruption: Corruption,
    /// The minimal repro; `None` when the oracle missed the corruption.
    pub repro: Option<ReproCase>,
}

/// The oracle self-test: each [`Corruption`] injected into the fault-free
/// Baseline run of `seed`'s plan, its horizon capped at `horizon_cap_s`,
/// on the campaign's kernel for `seed`, then shrunk. Results come in
/// [`Corruption::all`] order.
pub fn self_test(seed: u64, horizon_cap_s: u64) -> Vec<SelfTestResult> {
    let mut plan = CasePlan::from_seed(seed, false);
    plan.horizon_s = plan.horizon_s.min(horizon_cap_s);
    Corruption::all()
        .into_iter()
        .map(|corruption| SelfTestResult {
            corruption,
            repro: shrink(&ChaosCase {
                plan: plan.clone(),
                kind: SchedulerKind::Baseline,
                engine: engine_for_seed(seed),
                corruption: Some(corruption),
            }),
        })
        .collect()
}

/// What one chaos run concludes from its campaign and its self-test.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The campaign sweep.
    pub campaign: CampaignReport,
    /// The self-test, as [`self_test`] returns it.
    pub self_test: Vec<SelfTestResult>,
}

impl Verdict {
    /// Every problem, described: each campaign finding, then each
    /// self-test corruption the oracle missed or whose repro is larger
    /// than [`MAX_REPRO_EVENTS`]. Empty means clean.
    pub fn problems(&self) -> Vec<String> {
        let findings = self.campaign.findings.iter().map(|finding| {
            format!(
                "campaign finding {}: {}",
                finding.case.label(),
                finding.failure
            )
        });
        let self_test = self.self_test.iter().filter_map(|result| {
            let corruption = result.corruption;
            match &result.repro {
                None => Some(format!("self-test {corruption:?}: not caught")),
                Some(repro) if repro.events > MAX_REPRO_EVENTS => Some(format!(
                    "self-test {corruption:?}: repro has {} events, more than {MAX_REPRO_EVENTS}",
                    repro.events
                )),
                Some(_) => None,
            }
        });
        findings.chain(self_test).collect()
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
            report.findings.is_empty(),
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
        let mut cases = campaign_cases(0, 5, true);
        // Seed 1: a fault plan that fails validation (reversed window).
        let mut faults = FaultPlan::none();
        faults.outages.push(FaultWindow {
            start_s: 10.0,
            end_s: 5.0,
        });
        cases[1].plan.faults = Some(faults);
        // Seeds 2-4: knobs a constructor asserts on, which validation
        // now refuses first.
        cases[2].plan.lambda = f64::NAN;
        cases[3].kind = SchedulerKind::ETrain {
            theta: 0.2,
            k: Some(0),
        };
        cases[4].kind = SchedulerKind::ETime { v_bytes: -1.0 };
        let report = run_campaign(&cases, 1);
        assert_eq!(report.cases_run, 5);
        let seeds: Vec<u64> = report.findings.iter().map(|f| f.case.plan.seed).collect();
        assert_eq!(seeds, [1, 2, 3, 4], "findings: {:?}", report.findings);
        for finding in &report.findings {
            assert!(
                matches!(finding.failure, CaseFailure::InvalidScenario { .. }),
                "{finding:?}"
            );
        }
        // The pool gives the same findings in the same order (compared as
        // text: the NaN λ is not equal to itself).
        assert_eq!(
            format!("{:?}", run_campaign(&cases, 3)),
            format!("{report:?}")
        );
    }

    #[test]
    fn a_campaign_finding_fails_the_verdict_and_is_named() {
        let mut cases = campaign_cases(0, 2, true);
        cases[1].corruption = Some(Corruption::TamperTailEnergy);
        let verdict = Verdict {
            campaign: run_campaign(&cases, 1),
            self_test: self_test(6, 600),
        };
        let problems = verdict.problems();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].starts_with(&format!("campaign finding {}: ", cases[1].label()))
                && problems[0].contains("energy"),
            "{problems:?}"
        );
        let clean = Verdict {
            campaign: run_campaign(&cases[..1], 1),
            ..verdict.clone()
        };
        assert_eq!(clean.problems(), Vec::<String>::new());
        // A self-test that misses a corruption, or shrinks one too little,
        // fails too.
        let mut missed = clean.clone();
        missed.self_test[0].repro = None;
        if let Some(repro) = missed.self_test[7].repro.as_mut() {
            repro.events = MAX_REPRO_EVENTS + 1;
        }
        assert_eq!(
            missed.problems(),
            [
                "self-test TamperTailEnergy: not caught",
                "self-test SwapTransmissions: repro has 11 events, more than 10"
            ]
        );
    }
}
