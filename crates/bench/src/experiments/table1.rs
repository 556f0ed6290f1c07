//! Table 1: heartbeat cycles of popular apps across devices.
//!
//! Paper result: on Android each app runs its own cycle (WeChat 270 s,
//! WhatsApp 240 s, QQ 300 s, RenRen 300 s, NetEase 60–480 s adaptive); on
//! iOS every app shares the 1800 s APNS connection. The reproduction
//! synthesizes each device's heartbeat stream (with ±2 s jitter standing
//! in for measurement noise) and reports what the cycle detector recovers
//! — the observational equivalent of the paper's Wireshark analysis.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_hb::{DetectedPattern, HeartbeatMonitor};
use etrain_sim::Table;
use etrain_trace::heartbeats::TrainAppSpec;
use etrain_trace::TrainAppId;

/// Runs the Table 1 reproduction.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let horizon = if settings.quick {
        3.0 * 3600.0
    } else {
        8.0 * 3600.0
    };
    let android_devices = [
        "HTC Sensation Z710e",
        "Samsung Note II",
        "Samsung GALAXY S IV",
    ];
    let apps = [
        TrainAppSpec::wechat(),
        TrainAppSpec::whatsapp(),
        TrainAppSpec::qq(),
        TrainAppSpec::renren(),
        TrainAppSpec::netease(),
    ];

    let mut table = Table::new(
        "Table 1 — detected heartbeat cycles",
        &["device", "WeChat", "WhatsApp", "QQ", "RenRen", "NetEase"],
    );
    for (d, device) in android_devices.iter().enumerate() {
        let mut row = vec![(*device).to_owned()];
        for (a, app) in apps.iter().enumerate() {
            let spec = app.clone().with_jitter(2.0);
            row.push(detect(&spec, horizon, (d * 10 + a) as u64));
        }
        table.push_row_strings(row);
    }
    // iOS: one shared APNS stream for every app.
    let apns = detect(
        &TrainAppSpec::ios_apns().with_jitter(2.0),
        12.0 * 3600.0,
        99,
    );
    let mut row = vec!["iPhone 4 / iPhone 5 (APNS)".to_owned()];
    for _ in 0..apps.len() {
        row.push(apns.clone());
    }
    table.push_row_strings(row);
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "wechat_cycle_s",
        0,
        0,
        "WeChat",
        "s",
    ))
}

fn detect(spec: &TrainAppSpec, horizon: f64, seed: u64) -> String {
    let mut rng = etrain_trace::rng::seeded(seed);
    let beats = spec.generate(TrainAppId(0), horizon, &mut rng);
    let mut monitor = HeartbeatMonitor::new();
    for hb in &beats {
        monitor.observe(TrainAppId(0), hb.time_s);
    }
    match monitor.pattern(TrainAppId(0)) {
        DetectedPattern::Fixed { cycle_s, .. } => format!("{cycle_s:.0}s"),
        DetectedPattern::Adaptive { levels_s, .. } => format!(
            "{:.0}-{:.0}s",
            levels_s.first().copied().unwrap_or(0.0),
            levels_s.last().copied().unwrap_or(0.0)
        ),
        DetectedPattern::Unknown => "?".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seconds(cell: &str) -> f64 {
        cell.trim_end_matches('s')
            .parse()
            .expect("fixed-cycle cell")
    }

    #[test]
    fn android_cycles_match_paper() {
        // Jitter stands in for measurement noise, so allow ±3 s on the
        // detected medians.
        let tables = run(Settings::quick()).unwrap().tables;
        let csv = tables[0].to_csv();
        let first_android = csv.lines().nth(1).unwrap();
        let cells: Vec<&str> = first_android.split(',').collect();
        assert!(
            (seconds(cells[1]) - 270.0).abs() <= 3.0,
            "WeChat {}",
            cells[1]
        );
        assert!(
            (seconds(cells[2]) - 240.0).abs() <= 3.0,
            "WhatsApp {}",
            cells[2]
        );
        assert!((seconds(cells[3]) - 300.0).abs() <= 3.0, "QQ {}", cells[3]);
        assert!(
            (seconds(cells[4]) - 300.0).abs() <= 3.0,
            "RenRen {}",
            cells[4]
        );
        assert!(cells[5].contains('-'), "NetEase adaptive: {}", cells[5]);
    }

    #[test]
    fn ios_shares_one_long_cycle() {
        let tables = run(Settings::quick()).unwrap().tables;
        let csv = tables[0].to_csv();
        let ios = csv.lines().last().unwrap();
        let cell = ios.split(',').nth(1).unwrap();
        assert!((seconds(cell) - 1800.0).abs() <= 5.0, "{ios}");
    }
}
