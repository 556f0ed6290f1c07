//! Ablation: eTrain vs **fast dormancy**, the alternative tail-energy
//! technique of the paper's related work (Sec. VII).
//!
//! Fast dormancy demotes the radio to IDLE right after each transmission,
//! shortening or eliminating the tail — but every subsequent transmission
//! then pays an IDLE→DCH promotion (signaling latency, network load, and
//! the very overhead the tail exists to amortize). eTrain keeps the tail
//! mechanism intact and instead fills the tails with useful data.
//!
//! This ablation compares, on the same workload: the normal 3G baseline,
//! a fast-dormancy baseline (tails cut to 1 s), and eTrain on the normal
//! radio — reporting both energy and the promotion count.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_radio::RadioParams;
use etrain_sim::{SchedulerKind, Table};

use super::{j, paper_base, s};

/// Runs the fast-dormancy ablation.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    // Fast dormancy cuts the tail to 1 s but every transmission from IDLE
    // then pays a 2 s DCH promotion — the paper's Sec. VII argument made
    // concrete (promotion signaling + latency).
    let fast_dormancy = RadioParams::builder()
        .delta_dch_s(0.5)
        .delta_fach_s(0.5)
        .promotion_idle_to_dch_s(2.0)
        .build()
        .map_err(|error| ExperimentError::Setup(format!("fast-dormancy radio: {error}")))?;

    let rows = [
        (
            "Baseline / normal 3G",
            RadioParams::galaxy_s4_3g(),
            SchedulerKind::Baseline,
        ),
        (
            "Baseline / fast dormancy",
            fast_dormancy,
            SchedulerKind::Baseline,
        ),
        (
            "eTrain / normal 3G",
            RadioParams::galaxy_s4_3g(),
            SchedulerKind::ETrain {
                theta: 2.0,
                k: None,
            },
        ),
    ];

    let mut table = Table::new(
        "Ablation — eTrain vs fast dormancy (2 s promotion from IDLE)",
        &[
            "configuration",
            "energy_j",
            "promotions",
            "promo_time_s",
            "delay_s",
        ],
    );
    for (name, radio, kind) in rows {
        let promo_s = radio.promotion_idle_to_dch_s();
        let report = base.clone().radio(radio).scheduler(kind).try_run()?;
        table.push_row_strings(vec![
            name.to_owned(),
            j(report.extra_energy_j),
            report.promotions.to_string(),
            s(report.promotions as f64 * promo_s),
            s(report.normalized_delay_s),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "etrain_energy_j",
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
    fn fast_dormancy_saves_energy_but_multiplies_promotions() {
        let tables = run(Settings::quick()).unwrap().tables;
        let rows: Vec<Vec<String>> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| r.split(',').map(str::to_owned).collect())
            .collect();
        let normal_promotions: f64 = rows[0][2].parse().unwrap();
        let fd_promotions: f64 = rows[1][2].parse().unwrap();
        let fd_energy: f64 = rows[1][1].parse().unwrap();
        let normal_energy: f64 = rows[0][1].parse().unwrap();
        assert!(fd_energy < normal_energy, "fast dormancy cuts tail energy");
        assert!(
            fd_promotions > 1.5 * normal_promotions,
            "fast dormancy must multiply promotions: {fd_promotions} vs {normal_promotions}"
        );
        // eTrain keeps promotions low (batching) while saving energy.
        let etrain_promotions: f64 = rows[2][2].parse().unwrap();
        assert!(etrain_promotions <= normal_promotions);
    }
}
