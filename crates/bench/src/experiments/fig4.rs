//! Fig. 4: instantaneous power level at different RRC states for one
//! heartbeat transmission over the 3G interface.
//!
//! Paper result: IDLE before the transmission; promotion to DCH on start;
//! DCH lingering for δ_D = 10 s after the end; FACH for δ_F = 7.5 s; then
//! back to IDLE. The tail is `T_tail = 17.5 s`.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_radio::{RadioParams, Timeline, Transmission};
use etrain_sim::Table;

use super::s;

/// Runs the Fig. 4 reproduction.
pub fn run(_: Settings) -> Result<ExperimentResult, ExperimentError> {
    let params = RadioParams::galaxy_s4_3g();
    // One WeChat-sized heartbeat at t = 5 s on a 450 kbps uplink.
    let tx = Transmission::new(5.0, 74.0 * 8.0 / 450_000.0);
    let timeline = Timeline::from_transmissions(&params, &[tx], 30.0);

    let mut states = Table::new(
        "Fig. 4 — RRC state walk of one heartbeat",
        &["from_s", "to_s", "state", "power_mw"],
    );
    for seg in timeline.segments() {
        states.push_row_strings(vec![
            s(seg.start_s),
            s(seg.end_s),
            seg.state.to_string(),
            format!("{:.0}", seg.state.power_mw(&params)),
        ]);
    }

    let mut trace = Table::new(
        "Fig. 4 — sampled power (0.5 s, mW)",
        &["time_s", "power_mw"],
    );
    for (t, p) in timeline.sample(0.5).iter() {
        trace.push_row_strings(vec![s(t), format!("{p:.0}")]);
    }

    let mut constants = Table::new("Fig. 4 — model constants", &["parameter", "value"]);
    constants.push_row(&["p_DCH − p_idle", "700 mW"]);
    constants.push_row(&["p_FACH − p_idle", "450 mW"]);
    constants.push_row_strings(vec![
        "delta_DCH".into(),
        format!("{} s", params.delta_dch_s()),
    ]);
    constants.push_row_strings(vec![
        "delta_FACH".into(),
        format!("{} s", params.delta_fach_s()),
    ]);
    constants.push_row_strings(vec!["T_tail".into(), format!("{} s", params.tail_time_s())]);
    constants.push_row_strings(vec![
        "full tail energy".into(),
        format!(
            "{:.2} J (paper measures ~10.91 J)",
            params.full_tail_energy_j()
        ),
    ]);
    Ok(
        ExperimentResult::from_tables(vec![states, trace, constants]).headline_cell(
            "tail_end_s",
            0,
            2,
            "to_s",
            "s",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_walk_is_idle_dch_fach_idle() {
        let tables = run(Settings::default()).unwrap().tables;
        let states: Vec<String> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|row| row.split(',').nth(2).unwrap().to_owned())
            .collect();
        assert_eq!(states, vec!["IDLE", "DCH", "FACH", "IDLE"]);
    }

    #[test]
    fn tail_lengths_match_paper() {
        let tables = run(Settings::default()).unwrap().tables;
        let csv = tables[0].to_csv();
        let rows: Vec<Vec<String>> = csv
            .lines()
            .skip(1)
            .map(|r| r.split(',').map(str::to_owned).collect())
            .collect();
        let dch: f64 = rows[1][1].parse::<f64>().unwrap() - rows[1][0].parse::<f64>().unwrap();
        let fach: f64 = rows[2][1].parse::<f64>().unwrap() - rows[2][0].parse::<f64>().unwrap();
        assert!((dch - 10.0).abs() < 0.1, "DCH {dch}");
        assert!((fach - 7.5).abs() < 0.01, "FACH {fach}");
    }
}
