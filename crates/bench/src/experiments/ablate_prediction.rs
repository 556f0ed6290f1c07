//! Ablation: oracle bandwidth for the prediction-based comparators.
//!
//! PerES and eTime time their transmissions by a bandwidth estimate; the
//! paper argues accurate instantaneous prediction is impractical and makes
//! eTrain channel-oblivious by design (Sec. IV). This ablation replaces
//! the stochastic drive trace with a constant-bandwidth channel of the
//! same mean — on a constant channel the previous-slot estimate is *exact*,
//! so the gap between the two columns isolates how much each algorithm
//! loses to prediction error. eTrain's loss should be the smallest.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::{BandwidthSource, SchedulerKind, Table};
use etrain_trace::bandwidth::wuhan_drive_synthetic;

use super::{j, paper_base, pct, s};

/// Runs the prediction ablation.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    // Constant channel with the drive trace's mean: prediction is perfect.
    let mean_bps = wuhan_drive_synthetic(9).mean_bps();

    let algorithms = [
        SchedulerKind::ETrain {
            theta: 2.0,
            k: None,
        },
        SchedulerKind::PerEs { omega: 0.2 },
        SchedulerKind::ETime { v_bytes: 30_000.0 },
    ];
    let mut table = Table::new(
        "Ablation — stochastic channel vs oracle (constant, same mean)",
        &[
            "algorithm",
            "stochastic_j",
            "oracle_j",
            "delta_j",
            "stochastic_delay_s",
            "oracle_delay_s",
            "loss_to_prediction",
        ],
    );
    for kind in algorithms {
        let stochastic = base.clone().scheduler(kind).try_run()?;
        let oracle = base
            .clone()
            .scheduler(kind)
            .bandwidth(BandwidthSource::Constant(mean_bps))
            .try_run()?;
        let delta = stochastic.extra_energy_j - oracle.extra_energy_j;
        table.push_row_strings(vec![
            kind.name().to_owned(),
            j(stochastic.extra_energy_j),
            j(oracle.extra_energy_j),
            j(delta),
            s(stochastic.normalized_delay_s),
            s(oracle.normalized_delay_s),
            pct(delta / oracle.extra_energy_j.max(f64::MIN_POSITIVE)),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "etrain_loss_to_prediction",
        0,
        0,
        "loss_to_prediction",
        "%",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_all_three_algorithms() {
        let tables = run(Settings::quick()).unwrap().tables;
        let csv = tables[0].to_csv();
        for name in ["eTrain", "PerES", "eTime"] {
            assert!(csv.contains(name), "{name} missing");
        }
    }
}
