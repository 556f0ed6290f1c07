//! Robustness: the deterministic chaos campaign in experiment form.
//!
//! Two tiers, both seeded and reproducible:
//!
//! 1. **Campaign** — randomized scenario plans × fault plans × scheduler
//!    kinds swept through the grid runner under the strict oracle; every
//!    violation, panic, and health-ladder anomaly is a finding (the
//!    expected count is zero).
//! 2. **Oracle self-test** — deliberate post-run corruptions that the
//!    oracle must catch, each delta-debugged down to a minimal repro (the
//!    acceptance bar is ≤ 10 events).
//!
//! The standalone `chaos` binary runs the same machinery at nightly
//! scale with date-derived seeds and writes repro artifacts; this
//! experiment keeps a smoke-sized slice of it in the default suite.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_chaos::{campaign_cases, run_campaign, shrink, ChaosCase, Corruption};
use etrain_sim::{CasePlan, EngineKind, SchedulerKind, Table};

/// Runs the chaos experiment.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    // Tier 1: the campaign. Jobs = 1 because the repro suite already
    // parallelizes across experiments.
    let case_count = if settings.quick { 16 } else { 80 };
    let cases = campaign_cases(0, case_count, settings.quick);
    let campaign = run_campaign(&cases, 1);
    let mut campaign_table = Table::new(
        "Chaos campaign — seeded scenarios × faults × schedulers, strict oracle",
        &["cases", "findings"],
    );
    campaign_table.push_row_strings(vec![
        campaign.cases_run.to_string(),
        campaign.findings.len().to_string(),
    ]);

    // Tier 2: oracle self-test with shrinking.
    let mut plan = CasePlan::from_seed(6, false);
    plan.horizon_s = plan.horizon_s.min(if settings.quick { 600 } else { 900 });
    let mut selftest_table = Table::new(
        "Oracle self-test — injected corruptions, shrunk to minimal repros",
        &["corruption", "caught", "repro_events", "signature"],
    );
    let mut max_repro_events = 0usize;
    let mut caught = 0usize;
    for corruption in Corruption::all() {
        let case = ChaosCase {
            plan: plan.clone(),
            kind: SchedulerKind::Baseline,
            engine: EngineKind::Slot,
            corruption: Some(corruption),
        };
        match shrink(&case) {
            Some(repro) => {
                caught += 1;
                max_repro_events = max_repro_events.max(repro.events);
                selftest_table.push_row_strings(vec![
                    format!("{corruption:?}"),
                    "yes".to_owned(),
                    repro.events.to_string(),
                    repro.signature,
                ]);
            }
            None => selftest_table.push_row_strings(vec![
                format!("{corruption:?}"),
                "NO".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
            ]),
        }
    }

    Ok(
        ExperimentResult::from_tables(vec![campaign_table, selftest_table])
            .headline(
                "chaos_campaign_findings",
                campaign.findings.len() as f64,
                "count",
            )
            .headline(
                "chaos_selftest_caught",
                caught as f64,
                format!("of {}", Corruption::all().len()),
            )
            .headline(
                "chaos_selftest_max_repro_events",
                max_repro_events as f64,
                "events",
            ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_experiment_is_clean_in_quick_mode() {
        let result = run(Settings::quick()).unwrap();
        let headline = |metric: &str| {
            result
                .headlines
                .iter()
                .find(|h| h.metric == metric)
                .unwrap_or_else(|| panic!("missing headline {metric}"))
                .value
        };
        assert_eq!(headline("chaos_campaign_findings"), 0.0);
        assert_eq!(
            headline("chaos_selftest_caught"),
            Corruption::all().len() as f64
        );
        assert!(headline("chaos_selftest_max_repro_events") <= 10.0);
    }
}
