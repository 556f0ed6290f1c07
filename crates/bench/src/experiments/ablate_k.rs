//! Ablation: finite piggyback bounds vs the paper's deployed `k = ∞`.
//!
//! The paper argues (Sec. IV) that larger `k` strictly helps and deploys
//! `k = ∞`. This ablation quantifies the residual-backlog cost of small
//! `k` at a fixed Θ.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::{SchedulerKind, Table};

use super::{j, paper_base, pct, s};

/// Runs the k ablation.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let theta = 2.0;
    let ks: &[Option<usize>] = if settings.quick {
        &[Some(1), Some(4), None]
    } else {
        &[Some(1), Some(2), Some(4), Some(8), Some(16), Some(32), None]
    };

    let mut table = Table::new(
        "Ablation — piggyback bound k at Θ = 2",
        &["k", "energy_j", "delay_s", "violation"],
    );
    for &k in ks {
        let report = base
            .clone()
            .scheduler(SchedulerKind::ETrain { theta, k })
            .try_run()?;
        table.push_row_strings(vec![
            k.map_or("inf".to_owned(), |v| v.to_string()),
            j(report.extra_energy_j),
            s(report.normalized_delay_s),
            pct(report.deadline_violation_ratio),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "delay_at_k_inf",
        0,
        -1,
        "delay_s",
        "s",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_k_never_delays_more_than_k1() {
        let tables = run(Settings::quick()).unwrap().tables;
        let rows: Vec<Vec<String>> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| r.split(',').map(str::to_owned).collect())
            .collect();
        let d_k1: f64 = rows[0][2].parse().unwrap();
        let d_inf: f64 = rows.last().unwrap()[2].parse().unwrap();
        assert!(d_inf <= d_k1 + 1.0, "k=∞ delay {d_inf} vs k=1 {d_k1}");
    }
}
