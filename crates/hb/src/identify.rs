//! Offline capture analysis: find the heartbeat flows in a raw packet
//! capture — the paper's Wireshark methodology (Sec. II-B), automated.
//!
//! The analyzer groups packets by flow, keeps the phone-originated
//! ("outbound") packets of each flow, and classifies a flow as a heartbeat
//! flow when
//!
//! 1. it is **long-lived** (spans most of the capture),
//! 2. its outbound packets are **small** (keep-alives, not data), and
//! 3. its outbound timestamps are **periodic** — judged by the same
//!    [`CycleDetector`] the live monitor uses, cross-checked by epoch
//!    folding ([`estimate_period`]).

use etrain_trace::capture::{Capture, CapturedPacket, FlowKey, PacketDirection};

use crate::detect::{CycleDetector, DetectedPattern};
use crate::fold::estimate_period;

/// One flow the analyzer classified as carrying heartbeats.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatFlow {
    /// The flow.
    pub flow: FlowKey,
    /// Detected cycle in seconds (median-gap estimate).
    pub cycle_s: f64,
    /// Independent epoch-folding estimate, if the folding analysis also
    /// found periodicity.
    pub folded_cycle_s: Option<f64>,
    /// Outbound keep-alives observed.
    pub beats: usize,
    /// Mean keep-alive size in bytes.
    pub mean_size_bytes: f64,
}

/// Analyzer thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdentifyConfig {
    /// Minimum fraction of the capture a flow must span to count as
    /// long-lived.
    pub min_span_fraction: f64,
    /// Maximum mean outbound packet size for a keep-alive flow, in bytes.
    pub max_mean_size_bytes: f64,
    /// Minimum outbound packets needed to attempt detection.
    pub min_beats: usize,
}

impl Default for IdentifyConfig {
    /// `min_beats` defaults to 5: two gaps (three packets) can look even
    /// by pure chance, and sparse background traffic (periodic-ish DNS or
    /// NTP retries) produces exactly such flows; four consistent gaps is
    /// the minimum credible evidence of a keep-alive timer.
    fn default() -> Self {
        IdentifyConfig {
            min_span_fraction: 0.5,
            max_mean_size_bytes: 600.0,
            min_beats: 5,
        }
    }
}

/// Scans a capture and returns the flows classified as heartbeat flows,
/// sorted by flow key.
///
/// # Examples
///
/// ```
/// use etrain_hb::identify_heartbeat_flows;
/// use etrain_trace::capture::{synthesize_capture, CaptureConfig};
///
/// let capture = synthesize_capture(&CaptureConfig::default(), 7);
/// let flows = identify_heartbeat_flows(&capture, &Default::default());
/// // The paper trio: three heartbeat flows, cycles 300/270/240 s.
/// assert_eq!(flows.len(), 3);
/// let mut cycles: Vec<f64> = flows.iter().map(|f| f.cycle_s.round()).collect();
/// cycles.sort_by(f64::total_cmp);
/// assert_eq!(cycles, vec![240.0, 270.0, 300.0]);
/// ```
pub fn identify_heartbeat_flows(capture: &Capture, config: &IdentifyConfig) -> Vec<HeartbeatFlow> {
    let mut flows: std::collections::BTreeMap<FlowKey, Vec<&CapturedPacket>> =
        std::collections::BTreeMap::new();
    for packet in &capture.packets {
        if packet.direction == PacketDirection::Outbound {
            flows.entry(packet.flow).or_default().push(packet);
        }
    }

    let mut result = Vec::new();
    for (flow, packets) in flows {
        if packets.len() < config.min_beats {
            continue;
        }
        let (Some(first), Some(last)) = (packets.first(), packets.last()) else {
            continue;
        };
        if (last.time_s - first.time_s) < config.min_span_fraction * capture.duration_s {
            continue;
        }
        let mean_size = packets.iter().map(|p| p.length as f64).sum::<f64>() / packets.len() as f64;
        if mean_size > config.max_mean_size_bytes {
            continue;
        }
        let mut detector = CycleDetector::new();
        for p in &packets {
            detector.observe(p.time_s);
        }
        let times: Vec<f64> = packets.iter().map(|p| p.time_s).collect();
        let folded = estimate_period(&times);
        let cycle_s = match detector.detect() {
            // Fixed-cycle claims need a second opinion: with only a few
            // observations, random background flows (DNS, NTP retries) can
            // produce coincidentally even gaps. Epoch folding must
            // corroborate the median-gap estimate within 10 %.
            DetectedPattern::Fixed { cycle_s, .. } => match folded {
                Some(f) if (f - cycle_s).abs() <= 0.1 * cycle_s => cycle_s,
                _ => continue,
            },
            // Adaptive cycles require monotone increasing plateaus, a
            // structure random traffic essentially never produces; folding
            // (a single-period method) cannot corroborate these.
            DetectedPattern::Adaptive {
                current_level_s, ..
            } => current_level_s,
            DetectedPattern::Unknown => continue,
        };
        result.push(HeartbeatFlow {
            flow,
            cycle_s,
            folded_cycle_s: folded,
            beats: packets.len(),
            mean_size_bytes: mean_size,
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use etrain_trace::capture::{synthesize_capture, synthesize_ios_capture, CaptureConfig};

    #[test]
    fn finds_exactly_the_ground_truth_flows() {
        let capture = synthesize_capture(&CaptureConfig::default(), 11);
        let flows = identify_heartbeat_flows(&capture, &Default::default());
        let mut found: Vec<FlowKey> = flows.iter().map(|f| f.flow).collect();
        found.sort();
        let mut truth: Vec<FlowKey> = capture.truth.iter().map(|(f, _)| *f).collect();
        truth.sort();
        assert_eq!(found, truth, "precision and recall must both be 1");
    }

    #[test]
    fn cycles_match_ground_truth() {
        let capture = synthesize_capture(&CaptureConfig::default(), 12);
        let flows = identify_heartbeat_flows(&capture, &Default::default());
        let mut cycles: Vec<f64> = flows.iter().map(|f| f.cycle_s.round()).collect();
        cycles.sort_by(f64::total_cmp);
        assert_eq!(cycles, vec![240.0, 270.0, 300.0]);
        // Both estimators agree per flow.
        for f in &flows {
            let folded = f.folded_cycle_s.expect("strictly periodic flow");
            assert!((folded - f.cycle_s).abs() < 3.0, "{f:?}");
        }
    }

    #[test]
    fn data_bursts_are_not_misclassified() {
        // A capture with aggressive foreground traffic and no trains.
        let capture = synthesize_capture(
            &CaptureConfig {
                trains: Vec::new(),
                burst_interarrival_s: 30.0,
                burst_len_max: 60,
                noise_rate: 0.1,
                duration_s: 3600.0,
            },
            13,
        );
        let flows = identify_heartbeat_flows(&capture, &Default::default());
        assert!(flows.is_empty(), "false positives: {flows:?}");
    }

    #[test]
    fn ios_capture_yields_single_1800s_flow() {
        let capture = synthesize_ios_capture(8.0 * 3600.0, 14);
        let flows = identify_heartbeat_flows(&capture, &Default::default());
        assert_eq!(flows.len(), 1);
        assert!((flows[0].cycle_s - 1800.0).abs() < 5.0);
    }

    #[test]
    fn short_lived_flows_are_skipped() {
        let mut capture = synthesize_capture(&CaptureConfig::default(), 15);
        // Truncate the capture's metadata so every flow looks short-lived.
        capture.duration_s *= 10.0;
        let flows = identify_heartbeat_flows(&capture, &Default::default());
        assert!(flows.is_empty());
    }
}
