//! Extension: a full-day, diurnally modulated battery projection.
//!
//! The paper evaluates 2-hour windows; a user cares about a day. This
//! experiment simulates 24 hours of the three IM train apps with an
//! evening-heavy cargo workload (peak 8 PM, 80 % swing), replicated over
//! several seeds, and converts the energy difference into the battery
//! terms of paper Sec. II-D (1700 mAh @ 3.7 V): what fraction of a charge
//! eTrain returns to the user per day, on 3G and on an LTE-DRX radio.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_radio::{Battery, RadioParams};
use etrain_sim::{replicate, SchedulerKind, Table};
use etrain_trace::diurnal::{generate_diurnal, DiurnalProfile, DAY_S};
use etrain_trace::packets::CargoWorkload;

use super::pct;

/// Runs the day-scale battery projection.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let horizon = if settings.quick { DAY_S / 4.0 } else { DAY_S };
    let seeds: &[u64] = if settings.quick {
        &[1, 2]
    } else {
        &[1, 2, 3, 4, 5]
    };
    let battery = Battery::paper_reference();

    let mut table = Table::new(
        format!(
            "Extension — {}-hour diurnal battery projection",
            (horizon / 3600.0) as u64
        ),
        &[
            "radio",
            "baseline_j",
            "etrain_j",
            "saved_j",
            "battery_saved",
            "delay_s",
        ],
    );
    for (name, radio) in [
        ("3G (Galaxy S4)", RadioParams::galaxy_s4_3g()),
        ("LTE DRX", RadioParams::lte_drx()),
    ] {
        // Same diurnal packet trace per seed for both schedulers.
        let packets = generate_diurnal(
            &CargoWorkload::paper_default(0.04),
            DiurnalProfile::evening_heavy(),
            0.0,
            horizon,
            99,
        );
        let base_scenario = settings
            .paper_default()
            .duration_secs(horizon as u64)
            .packets(packets)
            .radio(radio);
        let baseline = replicate(
            &base_scenario.clone().scheduler(SchedulerKind::Baseline),
            seeds,
        )?;
        let etrain = replicate(
            &base_scenario.scheduler(SchedulerKind::ETrain {
                theta: 2.0,
                k: None,
            }),
            seeds,
        )?;
        let saved = baseline.extra_energy_j.mean - etrain.extra_energy_j.mean;
        table.push_row_strings(vec![
            name.to_owned(),
            baseline.extra_energy_j.display(),
            etrain.extra_energy_j.display(),
            format!("{saved:.1}"),
            pct(battery.fraction_of_capacity(saved)),
            etrain.normalized_delay_s.display(),
        ]);
    }
    Ok(
        ExperimentResult::from_tables(vec![table]).headline_cell(
            "saved_j_3g",
            0,
            0,
            "saved_j",
            "J",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_scale_savings_are_positive_on_both_radios() {
        let tables = run(Settings::quick()).unwrap().tables;
        for row in tables[0].to_csv().lines().skip(1) {
            let cells: Vec<&str> = row.split(',').collect();
            let saved: f64 = cells[3].parse().unwrap();
            assert!(saved > 0.0, "no saving on {row}");
        }
    }

    #[test]
    fn lte_saves_fewer_joules_than_3g() {
        let tables = run(Settings::quick()).unwrap().tables;
        let saved: Vec<f64> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| r.split(',').nth(3).unwrap().parse().unwrap())
            .collect();
        assert!(
            saved[1] < saved[0],
            "LTE ({}) should save fewer joules than 3G ({})",
            saved[1],
            saved[0]
        );
    }
}
