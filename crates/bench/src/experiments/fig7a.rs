//! Fig. 7(a): impact of the cost bound Θ on energy and delay.
//!
//! Paper setup: k = 20, λ = 0.08 pkt/s, 2-hour simulation, Θ swept from 0
//! to 3 in steps of 0.2. Paper result: energy falls from >1000 J to
//! ≈ 600 J (≈ 40 % reduction) while average delay grows from 18 s to 70 s
//! — larger delay buys more energy saving.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::sweep::{lin_space, theta_sweep};
use etrain_sim::Table;

use super::{j, paper_base, pct, s};

/// Runs the Fig. 7(a) reproduction.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let thetas = if settings.quick {
        lin_space(0.0, 3.0, 4)
    } else {
        lin_space(0.0, 3.0, 16) // step 0.2
    };
    let sweep = theta_sweep(&base, &thetas, Some(20))?;

    let baseline_energy = sweep
        .first()
        .map(|(_, r)| r.extra_energy_j)
        .unwrap_or(f64::NAN);
    let mut table = Table::new(
        "Fig. 7(a) — Θ sweep (k = 20, λ = 0.08)",
        &["theta", "energy_j", "delay_s", "violation", "vs_theta0"],
    );
    for (theta, report) in &sweep {
        table.push_row_strings(vec![
            format!("{theta:.1}"),
            j(report.extra_energy_j),
            s(report.normalized_delay_s),
            pct(report.deadline_violation_ratio),
            pct(1.0 - report.extra_energy_j / baseline_energy),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table])
        .headline_cell("energy_at_max_theta", 0, -1, "energy_j", "J")
        .headline_cell("saving_at_max_theta", 0, -1, "vs_theta0", "%"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_trades_delay_for_energy() {
        let tables = run(Settings::quick()).unwrap().tables;
        let rows: Vec<Vec<String>> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| r.split(',').map(str::to_owned).collect())
            .collect();
        let first_e: f64 = rows[0][1].parse().unwrap();
        let last_e: f64 = rows.last().unwrap()[1].parse().unwrap();
        let first_d: f64 = rows[0][2].parse().unwrap();
        let last_d: f64 = rows.last().unwrap()[2].parse().unwrap();
        assert!(last_e < first_e, "energy must fall with Θ");
        assert!(last_d > first_d, "delay must rise with Θ");
    }
}
