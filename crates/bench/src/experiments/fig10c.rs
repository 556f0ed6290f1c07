//! Fig. 10(c): controlled experiment — impact of the delay-cost deadline.
//!
//! Paper setup: all three cargo apps share one deadline, swept from 10 s
//! to 180 s. Paper result: adapting the deadline traces an energy–delay
//! tradeoff similar to Θ's — a larger deadline lets packets wait for more
//! piggybacking opportunities and saves more energy.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::sweep::deadline_sweep;
use etrain_sim::{SchedulerKind, Table};

use super::{j, paper_base, pct, s};

/// Runs the Fig. 10(c) reproduction.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings).scheduler(SchedulerKind::ETrain {
        theta: 0.2,
        k: None,
    });
    let deadlines: &[f64] = if settings.quick {
        &[10.0, 60.0, 180.0]
    } else {
        &[10.0, 30.0, 60.0, 90.0, 120.0, 150.0, 180.0]
    };
    let sweep = deadline_sweep(&base, deadlines)?;
    let first_energy = sweep[0].1.extra_energy_j;

    let mut table = Table::new(
        "Fig. 10(c) — shared deadline sweep (Θ = 0.2, k = ∞)",
        &["deadline_s", "energy_j", "delay_s", "violation", "vs_10s"],
    );
    for (deadline, report) in &sweep {
        table.push_row_strings(vec![
            format!("{deadline:.0}"),
            j(report.extra_energy_j),
            s(report.normalized_delay_s),
            pct(report.deadline_violation_ratio),
            pct(1.0 - report.extra_energy_j / first_energy),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "saving_at_180s_deadline",
        0,
        -1,
        "vs_10s",
        "%",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_deadline_saves_energy() {
        let tables = run(Settings::quick()).unwrap().tables;
        let rows: Vec<Vec<String>> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| r.split(',').map(str::to_owned).collect())
            .collect();
        let e_small: f64 = rows[0][1].parse().unwrap();
        let e_large: f64 = rows.last().unwrap()[1].parse().unwrap();
        assert!(
            e_large < e_small,
            "180 s deadline ({e_large} J) should beat 10 s ({e_small} J)"
        );
    }
}
