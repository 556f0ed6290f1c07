//! Extension: the Θ × λ sensitivity grid.
//!
//! Fig. 7(a) sweeps Θ at one arrival rate and Fig. 8(b) sweeps λ at one
//! (matched) delay; this extension crosses the two, printing the energy
//! saving vs the baseline for every (Θ, λ) cell. It answers the deployment
//! question the paper leaves implicit: does one Θ work across traffic
//! intensities, or must Θ track the load? (Finding: the saving surface is
//! monotone in Θ at every λ, so a single conservative Θ is safe — the
//! knob's effect weakens but never inverts as traffic grows.)

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::{RunGrid, RunSpec, SchedulerKind, Table};

use super::{paper_base, pct};

/// Runs the Θ × λ grid.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let thetas: &[f64] = if settings.quick {
        &[0.5, 2.0, 8.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let lambdas: &[f64] = if settings.quick {
        &[0.04, 0.12]
    } else {
        &[0.04, 0.06, 0.08, 0.10, 0.12]
    };

    let mut headers = vec!["theta".to_owned()];
    headers.extend(lambdas.iter().map(|l| format!("saving@λ={l:.2}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Extension — energy saving vs baseline over the Θ × λ grid",
        &header_refs,
    );

    // One grid: |λ| baseline cells first, then the Θ × λ eTrain cells.
    // All cells at one λ share a single trace synthesis in the grid's
    // cache (the scheduler knob is not part of the trace key).
    let mut grid = RunGrid::new();
    for &lambda in lambdas {
        grid.push(RunSpec::new(
            format!("baseline λ={lambda}"),
            base.clone()
                .lambda(lambda)
                .scheduler(SchedulerKind::Baseline),
        ));
    }
    for &theta in thetas {
        for &lambda in lambdas {
            grid.push(RunSpec::new(
                format!("Θ={theta} λ={lambda}"),
                base.clone()
                    .lambda(lambda)
                    .scheduler(SchedulerKind::ETrain { theta, k: None }),
            ));
        }
    }
    let reports = grid.try_run()?;
    let (baselines, cells) = reports.split_at(lambdas.len());

    for (t, &theta) in thetas.iter().enumerate() {
        let mut row = vec![format!("{theta:.1}")];
        for (i, baseline) in baselines.iter().enumerate() {
            let report = &cells[t * lambdas.len() + i];
            row.push(pct(1.0 - report.extra_energy_j / baseline.extra_energy_j));
        }
        table.push_row_strings(row);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "saving_theta_max_lambda_012",
        0,
        -1,
        "saving@λ=0.12",
        "%",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn savings_matrix(quick: bool) -> Vec<Vec<f64>> {
        run(Settings {
            quick,
            ..Settings::default()
        })
        .unwrap()
        .tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|row| {
                row.split(',')
                    .skip(1)
                    .map(|cell| cell.trim_end_matches('%').parse().unwrap())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn saving_is_monotone_in_theta_at_every_lambda() {
        let matrix = savings_matrix(true);
        for col in 0..matrix[0].len() {
            for row in 1..matrix.len() {
                assert!(
                    matrix[row][col] >= matrix[row - 1][col] - 2.0,
                    "saving inverted at col {col}: {:?}",
                    matrix.iter().map(|r| r[col]).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn every_cell_saves_energy() {
        for row in savings_matrix(true) {
            for cell in row {
                assert!(cell > 0.0, "negative saving {cell}");
            }
        }
    }
}
