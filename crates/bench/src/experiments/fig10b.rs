//! Fig. 10(b): controlled experiment — impact of the cost bound Θ.
//!
//! Paper setup: 3 cargo + 3 train apps on the device for 2 hours, Θ swept
//! from 0.1 to 0.5. Paper result: energy drops from >1200 J to ≈ 850 J
//! (≈ 30 % reduction) while the average delay grows from 48 s to 62 s
//! (≈ 30 % increase) — the user picks their point on the tradeoff.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::sweep::{lin_space, theta_sweep};
use etrain_sim::Table;

use super::{j, paper_base, pct, s};

/// Runs the Fig. 10(b) reproduction.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let thetas = if settings.quick {
        lin_space(0.1, 0.5, 3)
    } else {
        lin_space(0.1, 0.5, 5)
    };
    let sweep = theta_sweep(&base, &thetas, None)?;
    let first_energy = sweep[0].1.extra_energy_j;
    let first_delay = sweep[0].1.normalized_delay_s;

    let mut table = Table::new(
        "Fig. 10(b) — Θ sweep, controlled experiment (k = ∞)",
        &[
            "theta",
            "energy_j",
            "delay_s",
            "energy_change",
            "delay_change",
        ],
    );
    for (theta, report) in &sweep {
        table.push_row_strings(vec![
            format!("{theta:.1}"),
            j(report.extra_energy_j),
            s(report.normalized_delay_s),
            pct(report.extra_energy_j / first_energy - 1.0),
            pct(report.normalized_delay_s / first_delay.max(f64::MIN_POSITIVE) - 1.0),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "energy_change_at_max_theta",
        0,
        -1,
        "energy_change",
        "%",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_reduces_energy_and_raises_delay() {
        let tables = run(Settings::quick()).unwrap().tables;
        let rows: Vec<Vec<String>> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| r.split(',').map(str::to_owned).collect())
            .collect();
        let e0: f64 = rows[0][1].parse().unwrap();
        let e_last: f64 = rows.last().unwrap()[1].parse().unwrap();
        let d0: f64 = rows[0][2].parse().unwrap();
        let d_last: f64 = rows.last().unwrap()[2].parse().unwrap();
        assert!(e_last < e0);
        assert!(d_last > d0);
    }
}
