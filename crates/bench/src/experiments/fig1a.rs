//! Fig. 1(a): overall power consumption of a standby smartphone over four
//! hours with 0–3 IM apps running in 3G.
//!
//! Paper observation: with all three apps (QQ + WeChat + WhatsApp) the
//! phone spends nearly 87 % of its standby energy (≈ 2000 J) on heartbeat
//! transmissions.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::{BandwidthSource, RunGrid, RunSpec, SchedulerKind, Table};
use etrain_trace::heartbeats::TrainAppSpec;
use etrain_trace::packets::CargoWorkload;

use super::{j, pct};

/// Runs the Fig. 1(a) reproduction.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let horizon = if settings.quick { 3600 } else { 4 * 3600 };
    let all_trains = TrainAppSpec::paper_trio();

    let mut table = Table::new(
        format!("Fig. 1(a) — standby energy over {} h, 3G", horizon / 3600),
        &[
            "im_apps",
            "heartbeats",
            "hb_energy_j",
            "standby_energy_j",
            "total_j",
            "hb_share",
        ],
    );
    // One grid job per train-app count, run concurrently.
    let grid = RunGrid::from_specs(
        (0..=all_trains.len())
            .map(|n| {
                RunSpec::new(
                    format!("trains={n}"),
                    settings
                        .paper_default()
                        .duration_secs(horizon)
                        .trains(all_trains[..n].to_vec())
                        .workload(CargoWorkload::new(Vec::new())) // display off, no cargo
                        .bandwidth(BandwidthSource::Constant(450_000.0))
                        .scheduler(SchedulerKind::Baseline)
                        .seed(1),
                )
            })
            .collect(),
    );
    for (n, report) in grid.try_run()?.iter().enumerate() {
        let hb = report.extra_energy_j;
        let idle = report.idle_energy_j;
        table.push_row_strings(vec![
            n.to_string(),
            report.heartbeats_sent.to_string(),
            j(hb),
            j(idle),
            j(hb + idle),
            pct(hb / (hb + idle).max(f64::MIN_POSITIVE)),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "hb_share_3_trains",
        0,
        -1,
        "hb_share",
        "%",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_apps_dominate_standby_budget() {
        let tables = run(Settings::quick()).unwrap().tables;
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 4); // 0..=3 apps
        let csv = tables[0].to_csv();
        let last = csv.lines().last().unwrap();
        let share: f64 = last
            .rsplit(',')
            .next()
            .unwrap()
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(
            share > 75.0,
            "heartbeats should dominate standby energy, got {share}%"
        );
    }
}
