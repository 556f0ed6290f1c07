//! Extension: push-based fetching vs polling — the energy value of the
//! heartbeat infrastructure itself.
//!
//! The paper takes heartbeats as given ("heartbeats are indispensable")
//! and recycles their tails. This extension quantifies the other side of
//! that bargain: given content updating on the server (Poisson, one
//! update per five minutes), compare keeping fresh by *polling* every `T`
//! seconds against *push-fetching* over the heartbeat connection (the
//! notification arrives with a heartbeat, the fetch rides the same radio
//! session). Push is simultaneously fresher than slow polling and cheaper
//! than fast polling — the quantified justification for the always-on
//! connection eTrain builds upon.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_apps::freshness::{generate_updates, plan_polling, plan_push_fetch};
use etrain_sched::{AppProfile, CostProfile};
use etrain_sim::{BandwidthSource, SchedulerKind, Table};
use etrain_trace::heartbeats::{synthesize, TrainAppSpec};
use etrain_trace::packets::Packet;
use etrain_trace::CargoAppId;

use super::{j, s};

const FETCH_BYTES: u64 = 20_000;

/// Runs the push-vs-poll comparison.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let horizon = if settings.quick { 3600.0 } else { 7200.0 };
    let updates = generate_updates(300.0, horizon, 17);
    let heartbeats = synthesize(&TrainAppSpec::paper_trio(), horizon, 17);

    let energy_of = |packets: Vec<Packet>| -> Result<f64, ExperimentError> {
        settings
            .paper_default()
            .duration_secs(horizon as u64)
            .profiles(vec![AppProfile::new("News", CostProfile::weibo(600.0))])
            .packets(packets)
            .heartbeats(heartbeats.clone())
            .bandwidth(BandwidthSource::Constant(450_000.0))
            .scheduler(SchedulerKind::Baseline) // fetches go out on arrival
            .seed(17)
            .try_run()
            .map(|report| report.extra_energy_j)
            .map_err(ExperimentError::from)
    };

    // Heartbeat-only floor: the connection's fixed cost, paid by every row.
    let floor = energy_of(Vec::new())?;

    let mut table = Table::new(
        format!(
            "Extension — push vs poll ({} updates in {:.0} min, 20 kB fetches)",
            updates.len(),
            horizon / 60.0
        ),
        &[
            "strategy",
            "fetches",
            "empty_fetches",
            "fetch_energy_j",
            "staleness_s",
        ],
    );
    // Non-harmonic poll periods with a 13 s phase, so no poll timer
    // accidentally locks onto a heartbeat grid (240/270/300 s).
    for period in [75.0, 150.0, 330.0, 690.0] {
        let plan = plan_polling(&updates, period, 13.0, FETCH_BYTES, horizon, CargoAppId(0));
        table.push_row_strings(vec![
            format!("poll every {period:.0} s"),
            plan.packets.len().to_string(),
            plan.empty_fetches.to_string(),
            j(energy_of(plan.packets)? - floor),
            s(plan.mean_staleness_s),
        ]);
    }
    let push = plan_push_fetch(&updates, &heartbeats, FETCH_BYTES, horizon, CargoAppId(0));
    table.push_row_strings(vec![
        "push over heartbeats".to_owned(),
        push.packets.len().to_string(),
        push.empty_fetches.to_string(),
        j(energy_of(push.packets)? - floor),
        s(push.mean_staleness_s),
    ]);
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "push_fetch_energy_j",
        0,
        -1,
        "fetch_energy_j",
        "J",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<String>> {
        run(Settings::quick()).unwrap().tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| r.split(',').map(str::to_owned).collect())
            .collect()
    }

    #[test]
    fn no_poll_rate_pareto_dominates_push() {
        // Push may lose on one axis (fast polls are fresher, slow polls
        // can be cheap), but no poll rate beats it on energy *and*
        // staleness together.
        let rows = rows();
        let push = rows.last().unwrap();
        let (push_energy, push_staleness): (f64, f64) =
            (push[3].parse().unwrap(), push[4].parse().unwrap());
        for row in &rows[..rows.len() - 1] {
            let energy: f64 = row[3].parse().unwrap();
            let staleness: f64 = row[4].parse().unwrap();
            let dominates = energy <= push_energy && staleness <= push_staleness;
            assert!(!dominates, "{} dominates push", row[0]);
        }
    }

    #[test]
    fn push_beats_the_comparably_fresh_poll_on_energy() {
        // The poll rate with staleness closest to push must cost more.
        let rows = rows();
        let push = rows.last().unwrap();
        let (push_energy, push_staleness): (f64, f64) =
            (push[3].parse().unwrap(), push[4].parse().unwrap());
        let closest = rows[..rows.len() - 1]
            .iter()
            .min_by(|a, b| {
                let da = (a[4].parse::<f64>().unwrap() - push_staleness).abs();
                let db = (b[4].parse::<f64>().unwrap() - push_staleness).abs();
                da.total_cmp(&db)
            })
            .unwrap();
        let poll_energy: f64 = closest[3].parse().unwrap();
        assert!(
            push_energy < poll_energy,
            "push {push_energy} J vs comparably fresh {} ({poll_energy} J)",
            closest[0]
        );
    }

    #[test]
    fn push_never_fetches_empty() {
        let rows = rows();
        assert_eq!(rows.last().unwrap()[2], "0");
    }
}
