//! Extension: the paper's Sec. II-B measurement study, end to end.
//!
//! The paper captured raw traffic with Wireshark on five phones and
//! analyzed it offline to find each app's heartbeat cycle (producing
//! Table 1 and Fig. 3). This experiment runs the automated version of
//! that pipeline: synthesize a realistic capture (heartbeat flows buried
//! in foreground bursts and background noise), run the flow classifier,
//! and compare against the capture's ground truth — reporting precision,
//! recall and per-flow cycle error.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_hb::{identify_heartbeat_flows, IdentifyConfig};
use etrain_sim::Table;
use etrain_trace::capture::{synthesize_capture, synthesize_ios_capture, CaptureConfig};
use etrain_trace::heartbeats::{CyclePattern, TrainAppSpec};

use super::s;

/// Runs the capture-study experiment.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let duration = if settings.quick { 3600.0 } else { 2.0 * 3600.0 };
    let mut per_flow = Table::new(
        "Capture study — identified heartbeat flows (Android, 3 IM apps)",
        &[
            "app",
            "true_cycle_s",
            "detected_s",
            "folded_s",
            "beats",
            "mean_size_b",
        ],
    );
    let config = CaptureConfig {
        duration_s: duration,
        ..CaptureConfig::default()
    };
    let capture = synthesize_capture(&config, 23);
    let flows = identify_heartbeat_flows(&capture, &IdentifyConfig::default());

    let mut hits = 0usize;
    for flow in &flows {
        let truth = capture.truth.iter().find(|(key, _)| *key == flow.flow);
        let (name, true_cycle) = match truth {
            Some((_, name)) => {
                hits += 1;
                let Some(spec) = config.trains.iter().find(|t| t.name == *name) else {
                    return Err(ExperimentError::Setup(format!(
                        "the capture's truth names {name}, which is not a configured train"
                    )));
                };
                let cycle = match spec.pattern {
                    CyclePattern::Fixed { cycle_s } => cycle_s,
                    _ => f64::NAN,
                };
                (name.clone(), cycle)
            }
            None => ("FALSE POSITIVE".to_owned(), f64::NAN),
        };
        per_flow.push_row_strings(vec![
            name,
            s(true_cycle),
            s(flow.cycle_s),
            flow.folded_cycle_s.map_or("-".to_owned(), s),
            flow.beats.to_string(),
            format!("{:.0}", flow.mean_size_bytes),
        ]);
    }

    let mut summary = Table::new("Capture study — classifier quality", &["metric", "value"]);
    let precision = if flows.is_empty() {
        1.0
    } else {
        hits as f64 / flows.len() as f64
    };
    let recall = hits as f64 / capture.truth.len() as f64;
    summary.push_row_strings(vec!["precision".into(), format!("{precision:.2}")]);
    summary.push_row_strings(vec!["recall".into(), format!("{recall:.2}")]);
    summary.push_row_strings(vec![
        "capture packets".into(),
        capture.packets.len().to_string(),
    ]);

    // iOS: every app shares one APNS connection — one 1800 s flow.
    let ios = synthesize_ios_capture(8.0 * 3600.0, 24);
    let ios_flows = identify_heartbeat_flows(&ios, &IdentifyConfig::default());
    summary.push_row_strings(vec![
        "iOS flows found (expect 1 @ 1800 s)".into(),
        ios_flows
            .iter()
            .map(|f| format!("{:.0}s", f.cycle_s))
            .collect::<Vec<_>>()
            .join(" "),
    ]);

    // RenRen + NetEase on a separate device (Fig. 3(d) apps).
    let sns = synthesize_capture(
        &CaptureConfig {
            trains: vec![TrainAppSpec::renren(), TrainAppSpec::netease()],
            duration_s: duration,
            ..CaptureConfig::default()
        },
        25,
    );
    let sns_flows = identify_heartbeat_flows(&sns, &IdentifyConfig::default());
    summary.push_row_strings(vec![
        "SNS device flows (expect 300 s + adaptive)".into(),
        sns_flows
            .iter()
            .map(|f| format!("{:.0}s", f.cycle_s))
            .collect::<Vec<_>>()
            .join(" "),
    ]);

    Ok(
        ExperimentResult::from_tables(vec![per_flow, summary]).headline_cell(
            "precision",
            1,
            0,
            "value",
            "ratio",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_precision_and_recall_on_default_capture() {
        let tables = run(Settings::quick()).unwrap().tables;
        let csv = tables[1].to_csv();
        let value = |metric: &str| -> f64 {
            csv.lines()
                .find(|l| l.starts_with(metric))
                .and_then(|l| l.rsplit(',').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::NAN)
        };
        assert_eq!(value("precision"), 1.0);
        assert_eq!(value("recall"), 1.0);
    }

    #[test]
    fn no_false_positive_rows() {
        let tables = run(Settings::quick()).unwrap().tables;
        assert!(!tables[0].to_csv().contains("FALSE POSITIVE"));
    }
}
