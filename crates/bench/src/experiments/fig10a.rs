//! Fig. 10(a): controlled experiment — impact of the number of train apps.
//!
//! Paper methodology: run the three cargo apps with 0 ("NULL"), 1, 2 and 3
//! train apps; report (red) the energy of heartbeats alone, (blue) the
//! additional energy of the cargo transmissions under eTrain, and (green)
//! the average packet delay. Paper results: cargo-only saving ≈ 45 %
//! regardless of the number of trains; total saving 12–33 %; delay with 3
//! trains is half the delay with 1 train; with no trains all packets go
//! out on arrival (zero delay).

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::{RunGrid, RunSpec, SchedulerKind, Table};
use etrain_trace::heartbeats::TrainAppSpec;
use etrain_trace::packets::CargoWorkload;

use super::{j, paper_base, pct, s};

/// Runs the Fig. 10(a) reproduction.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let all_trains = TrainAppSpec::paper_trio();
    let etrain = SchedulerKind::ETrain {
        theta: 2.0,
        k: None,
    };

    let mut table = Table::new(
        "Fig. 10(a) — impact of train apps (Θ = 2, k = ∞)",
        &[
            "trains",
            "hb_energy_j",
            "cargo_energy_j",
            "total_j",
            "delay_s",
            "cargo_saving",
            "total_saving",
        ],
    );

    // Three grid jobs per train count (heartbeats-only reference, eTrain,
    // baseline), run concurrently; the n = 0 row has no heartbeat job.
    let mut grid = RunGrid::new();
    for n in 0..=all_trains.len() {
        let scenario = base.clone().trains(all_trains[..n].to_vec());
        if n > 0 {
            grid.push(RunSpec::new(
                format!("hb-only/trains={n}"),
                scenario
                    .clone()
                    .workload(CargoWorkload::new(Vec::new()))
                    .scheduler(SchedulerKind::Baseline),
            ));
        }
        grid.push(RunSpec::new(
            format!("etrain/trains={n}"),
            scenario.clone().scheduler(etrain),
        ));
        grid.push(RunSpec::new(
            format!("baseline/trains={n}"),
            scenario.scheduler(SchedulerKind::Baseline),
        ));
    }
    let reports = grid.try_run()?;
    let mut next = reports.iter();
    let mut take = |what: &str| {
        next.next()
            .ok_or_else(|| ExperimentError::Setup(format!("the grid has no {what} report")))
    };

    for n in 0..=all_trains.len() {
        let hb_energy = if n == 0 {
            0.0
        } else {
            take("hb-only")?.extra_energy_j
        };
        let report = take("etrain")?;
        let cargo_energy = report.extra_energy_j - hb_energy;

        // The same trains + cargo under the baseline, for the saving columns.
        let baseline = take("baseline")?;
        let baseline_cargo = baseline.extra_energy_j - hb_energy;

        table.push_row_strings(vec![
            if n == 0 {
                "NULL".to_owned()
            } else {
                n.to_string()
            },
            j(hb_energy),
            j(cargo_energy),
            j(report.extra_energy_j),
            s(report.normalized_delay_s),
            pct(1.0 - cargo_energy / baseline_cargo.max(f64::MIN_POSITIVE)),
            pct(1.0 - report.extra_energy_j / baseline.extra_energy_j),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "total_saving_3_trains",
        0,
        -1,
        "total_saving",
        "%",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(quick: bool) -> Vec<Vec<String>> {
        run(Settings {
            quick,
            ..Settings::default()
        })
        .unwrap()
        .tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| r.split(',').map(str::to_owned).collect())
            .collect()
    }

    #[test]
    fn null_case_has_zero_delay() {
        let rows = rows(true);
        let delay: f64 = rows[0][4].parse().unwrap();
        assert!(delay < 2.0, "NULL delay should be ~0, got {delay}");
    }

    #[test]
    fn more_trains_reduce_delay() {
        let rows = rows(true);
        let d1: f64 = rows[1][4].parse().unwrap();
        let d3: f64 = rows[3][4].parse().unwrap();
        assert!(
            d3 < d1 * 0.8,
            "3 trains ({d3} s) should cut delay well below 1 train ({d1} s)"
        );
    }

    #[test]
    fn cargo_saving_is_substantial_with_three_trains() {
        // Short quick-mode horizons starve the 1-train case of trains, so
        // only the 3-train row (the paper's headline) is asserted here;
        // the full-length run in EXPERIMENTS.md covers every row.
        let rows = rows(true);
        let saving: f64 = rows[3][5].trim_end_matches('%').parse().unwrap();
        assert!(saving > 20.0, "3-train cargo saving {saving}% too small");
    }
}
