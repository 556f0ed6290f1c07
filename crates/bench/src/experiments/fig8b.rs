//! Fig. 8(b): total energy at a matched normalized delay of ≈ 55 s under
//! arrival rates λ ∈ {0.04, 0.06, 0.08, 0.10, 0.12} pkt/s.
//!
//! Paper methodology: for each λ, tune each algorithm's knob (Θ for
//! eTrain, Ω for PerES, V for eTime) so the normalized delay lands at
//! 55 s, then compare energy and deadline violation ratio. Paper results:
//! the baseline's energy flattens near λ = 0.10 (tails start overlapping);
//! eTrain saves 628–1650 J vs the baseline; eTime outperforms PerES.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::sweep::{log_space, match_delay};
use etrain_sim::{SchedulerKind, Table};

use super::{j, paper_base, pct, s};

const TARGET_DELAY_S: f64 = 55.0;

/// Runs the Fig. 8(b) reproduction.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let lambdas: &[f64] = if settings.quick {
        &[0.04, 0.08, 0.12]
    } else {
        &[0.04, 0.06, 0.08, 0.10, 0.12]
    };
    let n = if settings.quick { 4 } else { 8 };

    let mut table = Table::new(
        format!("Fig. 8(b) — energy at matched delay ≈ {TARGET_DELAY_S} s"),
        &[
            "lambda",
            "algorithm",
            "energy_j",
            "delay_s",
            "violation",
            "saving_vs_baseline_j",
        ],
    );
    for &lambda in lambdas {
        let scenario = base.clone().lambda(lambda);
        let baseline = scenario
            .clone()
            .scheduler(SchedulerKind::Baseline)
            .try_run()?;
        table.push_row_strings(vec![
            format!("{lambda:.2}"),
            "Baseline".to_owned(),
            j(baseline.extra_energy_j),
            s(baseline.normalized_delay_s),
            pct(baseline.deadline_violation_ratio),
            "-".to_owned(),
        ]);

        let matched: Vec<(&str, Option<(f64, etrain_sim::RunReport)>)> = vec![
            (
                "eTrain",
                match_delay(
                    &scenario,
                    &log_space(0.5, 20.0, n),
                    |theta| SchedulerKind::ETrain { theta, k: None },
                    TARGET_DELAY_S,
                )?,
            ),
            (
                "PerES",
                match_delay(
                    &scenario,
                    &log_space(0.02, 2.0, n),
                    |omega| SchedulerKind::PerEs { omega },
                    TARGET_DELAY_S,
                )?,
            ),
            (
                "eTime",
                match_delay(
                    &scenario,
                    &log_space(5_000.0, 120_000.0, n),
                    |v_bytes| SchedulerKind::ETime { v_bytes },
                    TARGET_DELAY_S,
                )?,
            ),
        ];
        for (name, result) in matched {
            let Some((_, report)) = result else {
                return Err(ExperimentError::Setup(format!("{name}: empty knob scan")));
            };
            table.push_row_strings(vec![
                format!("{lambda:.2}"),
                name.to_owned(),
                j(report.extra_energy_j),
                s(report.normalized_delay_s),
                pct(report.deadline_violation_ratio),
                j(baseline.extra_energy_j - report.extra_energy_j),
            ]);
        }
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "etrain_saving_at_max_lambda_j",
        0,
        -3,
        "saving_vs_baseline_j",
        "J",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etrain_saves_most_at_every_lambda() {
        let tables = run(Settings::quick()).unwrap().tables;
        let csv = tables[0].to_csv();
        let mut by_lambda: std::collections::BTreeMap<String, Vec<(String, f64)>> =
            Default::default();
        for row in csv.lines().skip(1) {
            let cells: Vec<&str> = row.split(',').collect();
            by_lambda
                .entry(cells[0].to_owned())
                .or_default()
                .push((cells[1].to_owned(), cells[2].parse().unwrap()));
        }
        for (lambda, entries) in by_lambda {
            let energy = |name: &str| -> f64 { entries.iter().find(|(n, _)| n == name).unwrap().1 };
            assert!(
                energy("eTrain") < energy("Baseline"),
                "λ={lambda}: eTrain must beat baseline"
            );
            assert!(
                energy("eTrain") < energy("PerES"),
                "λ={lambda}: eTrain must beat PerES"
            );
        }
    }
}
