//! Ablation: sensitivity to heartbeat jitter.
//!
//! The paper's measurements found heartbeat cycles deterministic
//! (Sec. II-B) and the scheduler assumes it can ride them exactly. This
//! ablation perturbs every heartbeat departure by a uniform ±jitter and
//! measures how eTrain's energy/delay degrade. Because the scheduler is
//! notified of *actual* departures (the Xposed hook fires when the
//! heartbeat really leaves), moderate jitter should barely matter — the
//! result quantifies that robustness.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::{SchedulerKind, Table};
use etrain_trace::heartbeats::TrainAppSpec;

use super::{j, paper_base, s};

/// Runs the jitter ablation.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let jitters: &[f64] = if settings.quick {
        &[0.0, 10.0]
    } else {
        &[0.0, 2.0, 10.0, 30.0, 60.0]
    };

    let mut table = Table::new(
        "Ablation — heartbeat jitter (Θ = 2, k = ∞)",
        &["jitter_s", "energy_j", "delay_s", "heartbeats"],
    );
    for &jitter in jitters {
        let trains: Vec<TrainAppSpec> = TrainAppSpec::paper_trio()
            .into_iter()
            .map(|spec| spec.with_jitter(jitter))
            .collect();
        let report = base
            .clone()
            .trains(trains)
            .scheduler(SchedulerKind::ETrain {
                theta: 2.0,
                k: None,
            })
            .try_run()?;
        table.push_row_strings(vec![
            format!("{jitter:.0}"),
            j(report.extra_energy_j),
            s(report.normalized_delay_s),
            report.heartbeats_sent.to_string(),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "energy_at_max_jitter",
        0,
        -1,
        "energy_j",
        "J",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moderate_jitter_changes_little() {
        let tables = run(Settings::quick()).unwrap().tables;
        let energies: Vec<f64> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| r.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        let spread = (energies[1] - energies[0]).abs() / energies[0];
        assert!(
            spread < 0.15,
            "10 s jitter should move energy <15 %, got {:.1}%",
            spread * 100.0
        );
    }
}
