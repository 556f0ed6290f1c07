//! Extension: journal-driven energy explanation of one paper-default run.
//!
//! Every other experiment reports *aggregate* outcomes (total joules,
//! mean delay). This one runs a single paper-default scenario with the
//! observability layer forced on and decomposes where the energy went —
//! event by event: how many scheduler decisions fired, how many deferred
//! below Θ, how many packets rode a heartbeat, how often a release reused
//! a live FACH/DCH tail, and how the total energy ledger splits across
//! RRC states. The per-state decomposition must re-add to the report's
//! total energy; its accounted share is the experiment's headline (≈100).
//!
//! The raw JSONL journal behind the tables is exported by `repro_all`
//! (as `BENCH_explain.jsonl`) when it runs with `--journal`.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_radio::RrcState;
use etrain_sim::{Event, ObsMode, Scenario, Table};

use super::{j, pct, s};

/// The journaled scenario this experiment decomposes: the paper-default
/// setup under `settings`' oracle mode, journaled whatever `settings.obs`
/// says, since the journal is what the tables are built from.
fn scenario(settings: Settings) -> Scenario {
    settings
        .paper_default()
        .duration_secs(if settings.quick { 2400 } else { 7200 })
        .seed(7)
        .obs(ObsMode::Jsonl)
}

/// Runs the explanation. The result keeps the journal when `settings`
/// ask for journaling.
///
/// # Errors
///
/// Returns the scenario's validation or strict-oracle error.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let scenario = scenario(settings);
    let (report, output, journal) = scenario.try_run_journaled_on(&scenario.generate_traces())?;
    let (Some(journal), Some(metrics)) = (journal, report.metrics.clone()) else {
        return Err(ExperimentError::Setup(
            "the journaled run returned no journal or no metrics".to_owned(),
        ));
    };

    // Decision decomposition from the event stream.
    let mut decisions = 0usize;
    let mut deferrals = 0usize;
    let mut released = 0usize;
    let mut heartbeat_released = 0usize;
    for record in journal.records() {
        if let Event::PiggybackDecision {
            heartbeat_departing,
            budget_k,
            released: n,
            ..
        } = &record.event
        {
            decisions += 1;
            if *n == 0 && *budget_k == Some(0) {
                deferrals += 1;
            }
            released += n;
            if *heartbeat_departing {
                heartbeat_released += n;
            }
        }
    }

    let mut events = Table::new("explain — event journal summary", &["event", "count"]);
    for (kind, count) in journal.counts_by_kind() {
        events.push_row_strings(vec![kind.to_owned(), count.to_string()]);
    }

    let mut decisions_table = Table::new(
        "explain — scheduler decision decomposition",
        &["quantity", "count"],
    );
    for (label, count) in [
        ("slot decisions with queued work", decisions),
        ("deferred below theta", deferrals),
        ("packets released", released),
        ("released on a heartbeat", heartbeat_released),
        (
            "transmissions reusing a live tail",
            metrics.tail_reuses as usize,
        ),
        ("heartbeats fired", metrics.heartbeats as usize),
    ] {
        decisions_table.push_row_strings(vec![label.to_owned(), count.to_string()]);
    }

    // Per-RRC-state energy ledger, re-added against the report total.
    let timeline = output.timeline();
    let gauges = [
        ("IDLE", RrcState::Idle, metrics.energy_idle_j),
        ("FACH", RrcState::Fach, metrics.energy_fach_j),
        ("DCH", RrcState::Dch, metrics.energy_dch_j),
    ];
    let decomposed: f64 = gauges.iter().filter_map(|(_, _, g)| *g).sum();
    let mut energy = Table::new(
        "explain — energy ledger by RRC state",
        &["state", "time_s", "energy_j", "share"],
    );
    for (label, state, gauge) in gauges {
        let joules = gauge.unwrap_or(0.0);
        energy.push_row_strings(vec![
            label.to_owned(),
            s(timeline.time_in_state_s(state)),
            j(joules),
            pct(joules / decomposed),
        ]);
    }
    energy.push_row_strings(vec![
        "total (decomposed)".to_owned(),
        s(report.horizon_s),
        j(decomposed),
        pct(decomposed / report.total_energy_j),
    ]);
    energy.push_row_strings(vec![
        "total (report ledger)".to_owned(),
        s(report.horizon_s),
        j(report.total_energy_j),
        "-".to_owned(),
    ]);

    let accounted_pct = 100.0 * decomposed / report.total_energy_j;
    let mut result = ExperimentResult::from_tables(vec![events, decisions_table, energy])
        .headline("energy_accounted_pct", round1(accounted_pct), "%")
        .headline("journal_events", journal.len() as f64, "count")
        .headline(
            "tail_utilization_pct",
            round1(100.0 * metrics.tail_utilization.unwrap_or(0.0)),
            "%",
        );
    if settings.obs.is_enabled() {
        result.journal = Some(journal);
    }
    Ok(result)
}

fn round1(value: f64) -> f64 {
    (value * 10.0).round() / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_decomposition_accounts_for_the_full_ledger() {
        let result = run(Settings {
            obs: ObsMode::Jsonl,
            ..Settings::quick()
        })
        .unwrap();
        let accounted = result
            .headlines
            .iter()
            .find(|h| h.metric == "energy_accounted_pct")
            .expect("headline present");
        assert!(
            (accounted.value - 100.0).abs() < 0.1,
            "decomposition must re-add to the total: {}",
            accounted.value
        );
        // The exported journal is non-trivial and one-JSON-object-per-line.
        let jsonl = result.journal.expect("journaling asked for").to_jsonl();
        assert!(jsonl.lines().count() > 100);
        assert!(jsonl.lines().all(|l| l.starts_with('{')));
    }
}
