//! Fleet savings: population-level energy reclaimed by eTrain.
//!
//! Two fleets over the *same* device population (same fleet seed, same
//! class mix, same traces — the packets and heartbeats of device `d`
//! depend only on `(fleet seed, d)`): one running the transmit-on-arrival
//! baseline, one running eTrain at the Fig. 11 operating point
//! (Θ = 20, k = 20, Weibo with a 30 s deadline, 600 s sessions). The
//! difference of per-device means is therefore a paired comparison, not
//! two random draws.
//!
//! The projection headline scales the per-app-use saving to the paper's
//! motivating population: `saved_mj_per_million_user_day` assumes
//! [`APP_USES_PER_DAY`] app uses per device per day and a million
//! devices, reported in megajoules. Fully deterministic — this experiment
//! is part of the golden snapshot.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_fleet::{class_label, run_fleet, FleetConfig, FleetResult};
use etrain_sim::SchedulerKind;
use etrain_trace::user::Activeness;

use super::{j, pct, s};

/// App uses per device per day assumed by the million-device projection:
/// one 600-second session per waking-plus-standby hour, matching the
/// always-on IM usage the paper's user study measures.
pub const APP_USES_PER_DAY: f64 = 24.0;

/// Runs the paired baseline/eTrain fleets and tabulates the savings.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let devices = if settings.quick { 300 } else { 30_000 };
    let base_config = FleetConfig::paper_default(devices).seed(42);
    let baseline = run_fleet(&base_config.clone().scheduler(SchedulerKind::Baseline));
    let etrain = run_fleet(&base_config);

    let mut table = etrain_sim::Table::new(
        format!(
            "Fleet savings — {} devices, paired baseline vs {} (per app use)",
            devices, etrain.scheduler
        ),
        &[
            "class",
            "devices",
            "baseline_mean_j",
            "etrain_mean_j",
            "saving",
            "etrain_p95_j",
            "etrain_mean_delay_s",
        ],
    );
    let saving_of = |b: f64, e: f64| if b > 0.0 { (b - e) / b } else { 0.0 };
    let class_row = |class: Activeness, b: &FleetResult, e: &FleetResult| {
        let bt = b.columns.class_tally(class);
        let et = e.columns.class_tally(class);
        let mut samples = e.columns.class_extra_energies(class);
        let p95 = if samples.is_empty() {
            0.0
        } else {
            etrain_sim::Percentiles::from_samples_mut(&mut samples).p95
        };
        vec![
            class_label(class).to_owned(),
            bt.devices.to_string(),
            j(bt.mean_extra_j()),
            j(et.mean_extra_j()),
            pct(saving_of(bt.mean_extra_j(), et.mean_extra_j())),
            j(p95),
            s(et.mean_delay_s()),
        ]
    };
    for class in Activeness::all() {
        table.push_row_strings(class_row(class, &baseline, &etrain));
    }
    let fleet_saving = saving_of(baseline.fleet.mean_extra_j(), etrain.fleet.mean_extra_j());
    let fleet_p95 = {
        let mut samples = etrain.columns.extra_energy_j.clone();
        etrain_sim::Percentiles::from_samples_mut(&mut samples).p95
    };
    table.push_row_strings(vec![
        "fleet".to_owned(),
        baseline.fleet.devices.to_string(),
        j(baseline.fleet.mean_extra_j()),
        j(etrain.fleet.mean_extra_j()),
        pct(fleet_saving),
        j(fleet_p95),
        s(etrain.fleet.mean_delay_s()),
    ]);

    let saved_j_per_use = baseline.fleet.mean_extra_j() - etrain.fleet.mean_extra_j();
    Ok(ExperimentResult::from_tables(vec![table])
        .headline("fleet_saving_pct", fleet_saving * 100.0, "%")
        .headline("fleet_mean_saved_j_per_use", saved_j_per_use, "J")
        .headline(
            // saved J/use × uses/day × 10⁶ devices, in MJ: the ×10⁶ and
            // the J→MJ conversion cancel.
            "fleet_saved_mj_per_million_user_day",
            saved_j_per_use * APP_USES_PER_DAY,
            "MJ",
        )
        .headline(
            "fleet_etrain_mean_delay_s",
            etrain.fleet.mean_delay_s(),
            "s",
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_fleets_show_a_positive_saving() {
        let result = run(Settings::quick()).unwrap();
        assert_eq!(result.tables.len(), 1);
        assert_eq!(
            result.tables[0].len(),
            4,
            "three classes plus the fleet row"
        );
        let saving = result
            .headlines
            .iter()
            .find(|h| h.metric == "fleet_saving_pct")
            .expect("saving headline")
            .value;
        assert!(
            saving > 0.0 && saving < 100.0,
            "eTrain must reclaim energy at fleet scale, got {saving}%"
        );
        let projected = result
            .headlines
            .iter()
            .find(|h| h.metric == "fleet_saved_mj_per_million_user_day")
            .expect("projection headline")
            .value;
        assert!(projected > 0.0);
    }
}
