//! Ablation: how much of eTrain's benefit is the 3G tail.
//!
//! eTrain's entire saving comes from re-using the 17.5 s 3G tail. On a
//! WiFi-like radio with sub-second tails there is almost nothing to
//! re-use, so eTrain's advantage over the baseline should nearly vanish —
//! confirming the mechanism rather than some artifact.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_radio::RadioParams;
use etrain_sim::{SchedulerKind, Table};

use super::{j, paper_base, pct};

/// Runs the radio ablation.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let radios = [
        ("3G (Galaxy S4)", RadioParams::galaxy_s4_3g()),
        ("WiFi-like short tail", RadioParams::wifi_like()),
    ];
    let mut table = Table::new(
        "Ablation — radio tail length (Θ = 2, k = ∞)",
        &["radio", "baseline_j", "etrain_j", "saving"],
    );
    for (name, params) in radios {
        let baseline = base
            .clone()
            .radio(params.clone())
            .scheduler(SchedulerKind::Baseline)
            .try_run()?;
        let etrain = base
            .clone()
            .radio(params)
            .scheduler(SchedulerKind::ETrain {
                theta: 2.0,
                k: None,
            })
            .try_run()?;
        table.push_row_strings(vec![
            name.to_owned(),
            j(baseline.extra_energy_j),
            j(etrain.extra_energy_j),
            pct(1.0 - etrain.extra_energy_j / baseline.extra_energy_j),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "wifi_like_saving",
        0,
        -1,
        "saving",
        "%",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saving_shrinks_with_short_tails() {
        let tables = run(Settings::quick()).unwrap().tables;
        let savings: Vec<f64> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| {
                r.rsplit(',')
                    .next()
                    .unwrap()
                    .trim_end_matches('%')
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(
            savings[1] < savings[0],
            "WiFi saving {} should be below 3G saving {}",
            savings[1],
            savings[0]
        );
    }
}
