//! Fig. 2: the motivating toy example — five scattered 5 KB e-mails within
//! one heartbeat cycle, without and with eTrain.
//!
//! Paper observation: deferring and aggregating the five transmissions
//! onto the second heartbeat saves ≈ 40 % of the transmission energy; the
//! power trace shows the scattered tails collapsing into one.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_radio::{RadioParams, Timeline, Transmission};
use etrain_sim::Table;

use super::{j, pct, s};

const EMAIL_BYTES: f64 = 5_000.0;
const BANDWIDTH_BPS: f64 = 450_000.0;

/// Runs the Fig. 2 reproduction.
pub fn run(_: Settings) -> Result<ExperimentResult, ExperimentError> {
    let params = RadioParams::galaxy_s4_3g();
    let horizon = 330.0;
    let email_tx_s = EMAIL_BYTES * 8.0 / BANDWIDTH_BPS;
    let hb_tx_s = 74.0 * 8.0 / BANDWIDTH_BPS; // WeChat-sized heartbeat

    // Without eTrain: heartbeats at 0 and 300, e-mails scattered between.
    let mut without = vec![
        Transmission::new(0.0, hb_tx_s),
        Transmission::new(300.0, hb_tx_s),
    ];
    for i in 0..5 {
        without.push(Transmission::new(30.0 + 60.0 * i as f64, email_tx_s));
    }

    // With eTrain: the five e-mails piggyback right after the second
    // heartbeat, back to back.
    let mut with = vec![
        Transmission::new(0.0, hb_tx_s),
        Transmission::new(300.0, hb_tx_s),
    ];
    for i in 0..5 {
        with.push(Transmission::new(
            300.0 + hb_tx_s + i as f64 * email_tx_s,
            email_tx_s,
        ));
    }

    let tl_without = Timeline::from_transmissions(&params, &without, horizon);
    let tl_with = Timeline::from_transmissions(&params, &with, horizon);
    let e_without = tl_without.extra_energy_j();
    let e_with = tl_with.extra_energy_j();

    let mut summary = Table::new(
        "Fig. 2 — one heartbeat cycle, five 5 KB e-mails",
        &["schedule", "transmissions", "extra_energy_j", "saving"],
    );
    summary.push_row_strings(vec![
        "without eTrain (scattered)".to_owned(),
        without.len().to_string(),
        j(e_without),
        "-".to_owned(),
    ]);
    summary.push_row_strings(vec![
        "with eTrain (piggybacked)".to_owned(),
        with.len().to_string(),
        j(e_with),
        pct((e_without - e_with) / e_without),
    ]);

    // The power traces of the two schedules, downsampled to 5 s buckets.
    let mut trace = Table::new(
        "Fig. 2 — power trace (5 s buckets, mW)",
        &["time_s", "without_etrain_mw", "with_etrain_mw"],
    );
    let p_without = tl_without.sample(0.1).downsample(50);
    let p_with = tl_with.sample(0.1).downsample(50);
    for ((t, a), (_, b)) in p_without.iter().zip(p_with.iter()) {
        trace.push_row_strings(vec![s(t), format!("{a:.0}"), format!("{b:.0}")]);
    }
    Ok(
        ExperimentResult::from_tables(vec![summary, trace]).headline_cell(
            "toy_saving",
            0,
            -1,
            "saving",
            "%",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piggybacking_saves_substantial_energy() {
        let tables = run(Settings::default()).unwrap().tables;
        let csv = tables[0].to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let energy = |row: &str| -> f64 { row.split(',').nth(2).unwrap().parse().unwrap() };
        let without = energy(rows[0]);
        let with = energy(rows[1]);
        // Paper shows ≈ 40 % in its measured toy; the model, with widely
        // scattered e-mails, saves even more.
        assert!(
            with < 0.6 * without,
            "piggybacking should save >40 %: {with} vs {without}"
        );
    }
}
