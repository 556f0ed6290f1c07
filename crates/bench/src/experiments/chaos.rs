//! Robustness: the deterministic chaos campaign in experiment form.
//!
//! Two tiers, both seeded and reproducible:
//!
//! 1. **Campaign** — randomized scenario plans × fault plans × scheduler
//!    kinds, each judged by `ChaosCase::run`; every failure is a finding.
//! 2. **Oracle self-test** — deliberate post-run corruptions that the
//!    oracle must catch, each delta-debugged down to a minimal repro.
//!
//! The first problem the [`Verdict`] names fails
//! the experiment ([`ExperimentError::Chaos`]). The `chaos` binary runs
//! the same machinery at nightly scale and writes repro artifacts; this
//! experiment keeps a smoke-sized slice of it in the default suite.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_chaos::{campaign_cases, run_campaign, self_test, Corruption, Verdict};
use etrain_sim::Table;

/// Runs the chaos experiment.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    // Jobs = 1 because the repro suite already parallelizes across
    // experiments.
    let case_count = if settings.quick { 16 } else { 80 };
    let verdict = Verdict {
        campaign: run_campaign(&campaign_cases(0, case_count, settings.quick), 1),
        self_test: self_test(6, if settings.quick { 600 } else { 900 }),
    };
    if let Some(problem) = verdict.problems().into_iter().next() {
        return Err(ExperimentError::Chaos(problem));
    }

    let mut campaign_table = Table::new(
        "Chaos campaign — seeded scenarios × faults × schedulers, strict oracle",
        &["cases", "findings"],
    );
    campaign_table.push_row_strings(vec![
        verdict.campaign.cases_run.to_string(),
        verdict.campaign.findings.len().to_string(),
    ]);
    let mut selftest_table = Table::new(
        "Oracle self-test — injected corruptions, shrunk to minimal repros",
        &["corruption", "caught", "repro_events", "signature"],
    );
    let mut max_repro_events = 0usize;
    for result in &verdict.self_test {
        // A clean verdict has a repro for every corruption.
        if let Some(repro) = &result.repro {
            max_repro_events = max_repro_events.max(repro.events);
            selftest_table.push_row_strings(vec![
                format!("{:?}", result.corruption),
                "yes".to_owned(),
                repro.events.to_string(),
                repro.signature.clone(),
            ]);
        }
    }

    Ok(
        ExperimentResult::from_tables(vec![campaign_table, selftest_table])
            .headline(
                "chaos_campaign_findings",
                verdict.campaign.findings.len() as f64,
                "count",
            )
            .headline(
                "chaos_selftest_caught",
                verdict.self_test.len() as f64,
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
