//! Trace persistence: CSV for the tabular trace formats and JSON for
//! specifications and whole traces.
//!
//! The CSV formats mirror the shapes of the paper's data: bandwidth traces
//! are `(time_s, bps)` rows at fixed cadence, packet traces are
//! `(id, app, arrival_s, size_bytes)`, heartbeat traces are
//! `(train, time_s, size_bytes)`, and user traces are the paper's 4-tuple
//! `(user_id, behavior, time_s, size_bytes)`.
//!
//! All readers and writers are generic over [`std::io::Read`] /
//! [`std::io::Write`] taken by value; pass `&mut reader` to keep ownership.

use std::io::{BufRead, BufReader, Read, Write};

use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::bandwidth::BandwidthTrace;
use crate::heartbeats::Heartbeat;
use crate::ids::{CargoAppId, TrainAppId};
use crate::packets::Packet;
use crate::user::{BehaviorType, UserBehaviorRecord};

/// Error produced by trace readers and writers.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A CSV line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Parse { line, message } => {
                write!(f, "trace parse failed at line {line}: {message}")
            }
            TraceIoError::Json(e) => write!(f, "trace json failed: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Json(e) => Some(e),
            TraceIoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<serde_json::Error> for TraceIoError {
    fn from(e: serde_json::Error) -> Self {
        TraceIoError::Json(e)
    }
}

/// Serializes any serde-serializable value as pretty JSON.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O or serialization failure.
pub fn write_json<T: Serialize, W: Write>(value: &T, mut writer: W) -> Result<(), TraceIoError> {
    let text = serde_json::to_string_pretty(value)?;
    writer.write_all(text.as_bytes())?;
    Ok(())
}

/// Deserializes a value previously written with [`write_json`].
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O or deserialization failure.
pub fn read_json<T: DeserializeOwned, R: Read>(mut reader: R) -> Result<T, TraceIoError> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    Ok(serde_json::from_str(&text)?)
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    name: &str,
) -> Result<T, TraceIoError> {
    let raw = field.ok_or_else(|| TraceIoError::Parse {
        line,
        message: format!("missing field `{name}`"),
    })?;
    raw.trim().parse().map_err(|_| TraceIoError::Parse {
        line,
        message: format!("invalid `{name}`: {raw:?}"),
    })
}

/// Writes a bandwidth trace as `time_s,bps` rows with a header.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure.
pub fn write_bandwidth_csv<W: Write>(
    trace: &BandwidthTrace,
    mut writer: W,
) -> Result<(), TraceIoError> {
    writeln!(writer, "time_s,bps")?;
    for (i, &bps) in trace.samples_bps().iter().enumerate() {
        writeln!(writer, "{},{}", i as f64 * trace.dt_s(), bps)?;
    }
    Ok(())
}

/// Reads a bandwidth trace written by [`write_bandwidth_csv`]. The cadence
/// is inferred from the first two rows (1 s for single-row traces).
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure, malformed rows, a sample
/// that is not positive and finite, a cadence that is not, or an empty
/// trace.
pub fn read_bandwidth_csv<R: Read>(reader: R) -> Result<BandwidthTrace, TraceIoError> {
    let mut times = Vec::new();
    let mut samples = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        if idx == 0 || line.trim().is_empty() {
            continue; // header
        }
        let mut fields = line.split(',');
        let t: f64 = parse_field(fields.next(), idx + 1, "time_s")?;
        let bps: f64 = parse_field(fields.next(), idx + 1, "bps")?;
        if !(bps.is_finite() && bps > 0.0) {
            return Err(TraceIoError::Parse {
                line: idx + 1,
                message: format!("`bps` must be positive and finite, got {bps}"),
            });
        }
        times.push(t);
        samples.push(bps);
    }
    if samples.is_empty() {
        return Err(TraceIoError::Parse {
            line: 0,
            message: "bandwidth trace is empty".to_owned(),
        });
    }
    let dt = if times.len() >= 2 {
        times[1] - times[0]
    } else {
        1.0
    };
    if !(dt.is_finite() && dt > 0.0) {
        return Err(TraceIoError::Parse {
            line: 3,
            message: format!("the first two `time_s` values must increase, got a step of {dt}"),
        });
    }
    Ok(BandwidthTrace::new(dt, samples))
}

/// Writes a packet trace as `id,app,arrival_s,size_bytes` rows.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure.
pub fn write_packets_csv<W: Write>(packets: &[Packet], mut writer: W) -> Result<(), TraceIoError> {
    writeln!(writer, "id,app,arrival_s,size_bytes")?;
    for p in packets {
        writeln!(
            writer,
            "{},{},{},{}",
            p.id,
            p.app.index(),
            p.arrival_s,
            p.size_bytes
        )?;
    }
    Ok(())
}

/// Reads a packet trace written by [`write_packets_csv`].
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure or malformed rows.
pub fn read_packets_csv<R: Read>(reader: R) -> Result<Vec<Packet>, TraceIoError> {
    let mut packets = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        if idx == 0 || line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        packets.push(Packet {
            id: parse_field(fields.next(), idx + 1, "id")?,
            app: CargoAppId(parse_field(fields.next(), idx + 1, "app")?),
            arrival_s: parse_field(fields.next(), idx + 1, "arrival_s")?,
            size_bytes: parse_field(fields.next(), idx + 1, "size_bytes")?,
        });
    }
    Ok(packets)
}

/// Writes a heartbeat trace as `train,time_s,size_bytes` rows.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure.
pub fn write_heartbeats_csv<W: Write>(
    heartbeats: &[Heartbeat],
    mut writer: W,
) -> Result<(), TraceIoError> {
    writeln!(writer, "train,time_s,size_bytes")?;
    for hb in heartbeats {
        writeln!(
            writer,
            "{},{},{}",
            hb.train.index(),
            hb.time_s,
            hb.size_bytes
        )?;
    }
    Ok(())
}

/// Reads a heartbeat trace written by [`write_heartbeats_csv`].
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure or malformed rows.
pub fn read_heartbeats_csv<R: Read>(reader: R) -> Result<Vec<Heartbeat>, TraceIoError> {
    let mut heartbeats = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        if idx == 0 || line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        heartbeats.push(Heartbeat {
            train: TrainAppId(parse_field(fields.next(), idx + 1, "train")?),
            time_s: parse_field(fields.next(), idx + 1, "time_s")?,
            size_bytes: parse_field(fields.next(), idx + 1, "size_bytes")?,
        });
    }
    Ok(heartbeats)
}

/// Writes user behaviour records in the paper's 4-tuple format:
/// `user_id,behavior,time_s,size_bytes`.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure.
pub fn write_user_csv<W: Write>(
    records: &[UserBehaviorRecord],
    mut writer: W,
) -> Result<(), TraceIoError> {
    writeln!(writer, "user_id,behavior,time_s,size_bytes")?;
    for r in records {
        writeln!(
            writer,
            "{},{},{},{}",
            r.user_id, r.behavior, r.time_s, r.size_bytes
        )?;
    }
    Ok(())
}

/// Reads user behaviour records written by [`write_user_csv`].
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure, malformed rows, or unknown
/// behavior names.
pub fn read_user_csv<R: Read>(reader: R) -> Result<Vec<UserBehaviorRecord>, TraceIoError> {
    let mut records = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        if idx == 0 || line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let user_id = parse_field(fields.next(), idx + 1, "user_id")?;
        let behavior_raw = fields.next().ok_or_else(|| TraceIoError::Parse {
            line: idx + 1,
            message: "missing field `behavior`".to_owned(),
        })?;
        let behavior = match behavior_raw.trim() {
            "upload" => BehaviorType::Upload,
            "browse" => BehaviorType::Browse,
            other => {
                return Err(TraceIoError::Parse {
                    line: idx + 1,
                    message: format!("unknown behavior {other:?}"),
                })
            }
        };
        records.push(UserBehaviorRecord {
            user_id,
            behavior,
            time_s: parse_field(fields.next(), idx + 1, "time_s")?,
            size_bytes: parse_field(fields.next(), idx + 1, "size_bytes")?,
        });
    }
    Ok(records)
}

/// Writes a packet capture as `time_s,local_port,remote_port,direction,length`
/// rows (ground-truth flow labels are not part of the capture format, as in
/// a real `.pcap`).
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure.
pub fn write_capture_csv<W: Write>(
    packets: &[crate::capture::CapturedPacket],
    mut writer: W,
) -> Result<(), TraceIoError> {
    writeln!(writer, "time_s,local_port,remote_port,direction,length")?;
    for p in packets {
        let direction = match p.direction {
            crate::capture::PacketDirection::Outbound => "out",
            crate::capture::PacketDirection::Inbound => "in",
        };
        writeln!(
            writer,
            "{},{},{},{},{}",
            p.time_s, p.flow.local_port, p.flow.remote_port, direction, p.length
        )?;
    }
    Ok(())
}

/// Reads a capture written by [`write_capture_csv`].
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure, malformed rows, or unknown
/// direction names.
pub fn read_capture_csv<R: Read>(
    reader: R,
) -> Result<Vec<crate::capture::CapturedPacket>, TraceIoError> {
    use crate::capture::{CapturedPacket, FlowKey, PacketDirection};
    let mut packets = Vec::new();
    for (idx, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        if idx == 0 || line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let time_s = parse_field(fields.next(), idx + 1, "time_s")?;
        let local_port = parse_field(fields.next(), idx + 1, "local_port")?;
        let remote_port = parse_field(fields.next(), idx + 1, "remote_port")?;
        let direction_raw = fields.next().ok_or_else(|| TraceIoError::Parse {
            line: idx + 1,
            message: "missing field `direction`".to_owned(),
        })?;
        let direction = match direction_raw.trim() {
            "out" => PacketDirection::Outbound,
            "in" => PacketDirection::Inbound,
            other => {
                return Err(TraceIoError::Parse {
                    line: idx + 1,
                    message: format!("unknown direction {other:?}"),
                })
            }
        };
        packets.push(CapturedPacket {
            time_s,
            flow: FlowKey {
                local_port,
                remote_port,
            },
            direction,
            length: parse_field(fields.next(), idx + 1, "length")?,
        });
    }
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::wuhan_drive_synthetic;
    use crate::heartbeats::{synthesize, TrainAppSpec};
    use crate::packets::CargoWorkload;
    use crate::user::{generate_app_use, Activeness};

    #[test]
    fn bandwidth_csv_roundtrip() {
        let trace = wuhan_drive_synthetic(1);
        let mut buf = Vec::new();
        write_bandwidth_csv(&trace, &mut buf).unwrap();
        let back = read_bandwidth_csv(buf.as_slice()).unwrap();
        assert_eq!(back.len(), trace.len());
        assert_eq!(back.dt_s(), trace.dt_s());
        for (a, b) in trace.samples_bps().iter().zip(back.samples_bps()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn packets_csv_roundtrip() {
        let packets = CargoWorkload::paper_default(0.08).generate(600.0, 2);
        let mut buf = Vec::new();
        write_packets_csv(&packets, &mut buf).unwrap();
        let back = read_packets_csv(buf.as_slice()).unwrap();
        assert_eq!(packets, back);
    }

    #[test]
    fn heartbeats_csv_roundtrip() {
        let beats = synthesize(&TrainAppSpec::paper_trio(), 1800.0, 3);
        let mut buf = Vec::new();
        write_heartbeats_csv(&beats, &mut buf).unwrap();
        let back = read_heartbeats_csv(buf.as_slice()).unwrap();
        assert_eq!(beats, back);
    }

    #[test]
    fn user_csv_roundtrip() {
        let trace = generate_app_use(7, Activeness::Moderate, 5);
        let mut buf = Vec::new();
        write_user_csv(&trace.records, &mut buf).unwrap();
        let back = read_user_csv(buf.as_slice()).unwrap();
        assert_eq!(trace.records, back);
    }

    #[test]
    fn json_roundtrip_for_specs() {
        let specs = TrainAppSpec::paper_trio();
        let mut buf = Vec::new();
        write_json(&specs, &mut buf).unwrap();
        let back: Vec<TrainAppSpec> = read_json(buf.as_slice()).unwrap();
        assert_eq!(specs, back);
    }

    #[test]
    fn malformed_csv_reports_line() {
        let data = "id,app,arrival_s,size_bytes\n0,0,notanumber,10\n";
        let err = read_packets_csv(data.as_bytes()).unwrap_err();
        match err {
            TraceIoError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("arrival_s"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_behavior_rejected() {
        let data = "user_id,behavior,time_s,size_bytes\n1,teleport,0.0,10\n";
        let err = read_user_csv(data.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("teleport"));
    }

    #[test]
    fn empty_bandwidth_csv_rejected() {
        let err = read_bandwidth_csv("time_s,bps\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn capture_csv_roundtrip() {
        use crate::capture::{synthesize_capture, CaptureConfig};
        let capture = synthesize_capture(
            &CaptureConfig {
                duration_s: 900.0,
                ..CaptureConfig::default()
            },
            6,
        );
        let mut buf = Vec::new();
        write_capture_csv(&capture.packets, &mut buf).unwrap();
        let back = read_capture_csv(buf.as_slice()).unwrap();
        assert_eq!(capture.packets, back);
    }

    #[test]
    fn capture_csv_rejects_unknown_direction() {
        let data = "time_s,local_port,remote_port,direction,length\n1.0,1,2,sideways,3\n";
        let err = read_capture_csv(data.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("sideways"));
    }

    /// The line and message of a parse error, or a panic for any other
    /// outcome.
    fn parse_error<T: std::fmt::Debug>(result: Result<T, TraceIoError>) -> (usize, String) {
        match result {
            Err(TraceIoError::Parse { line, message }) => (line, message),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn a_short_row_names_the_missing_field_and_its_line() {
        assert_eq!(
            parse_error(read_packets_csv(
                "id,app,arrival_s,size_bytes\n0,0,1.5\n".as_bytes()
            )),
            (2, "missing field `size_bytes`".to_owned())
        );
        assert_eq!(
            parse_error(read_heartbeats_csv(
                "train,time_s,size_bytes\n0\n".as_bytes()
            )),
            (2, "missing field `time_s`".to_owned())
        );
        assert_eq!(
            parse_error(read_user_csv(
                "user_id,behavior,time_s,size_bytes\n7\n".as_bytes()
            )),
            (2, "missing field `behavior`".to_owned())
        );
        assert_eq!(
            parse_error(read_capture_csv(
                "time_s,local_port,remote_port,direction,length\n1.0,1,2\n".as_bytes()
            )),
            (2, "missing field `direction`".to_owned())
        );
    }

    #[test]
    fn blank_lines_are_skipped_but_keep_their_line_numbers() {
        let data = "train,time_s,size_bytes\n0,1.0,74\n\n   \n1,2.0,74\n1,soon,74\n";
        assert_eq!(
            parse_error(read_heartbeats_csv(data.as_bytes())),
            (6, "invalid `time_s`: \"soon\"".to_owned())
        );
        let ok = "train,time_s,size_bytes\n\n0,1.0,74\n\n1,2.0,80\n";
        let beats = read_heartbeats_csv(ok.as_bytes()).unwrap();
        assert_eq!(beats.len(), 2);
        assert_eq!((beats[1].train, beats[1].size_bytes), (TrainAppId(1), 80));
    }

    #[test]
    fn fields_may_carry_spaces_around_them() {
        let packets =
            read_packets_csv("id,app,arrival_s,size_bytes\n 4 , 2 , 2.5 , 100 \n".as_bytes())
                .unwrap();
        assert_eq!(
            packets,
            vec![Packet {
                id: 4,
                app: CargoAppId(2),
                arrival_s: 2.5,
                size_bytes: 100,
            }]
        );
        let records =
            read_user_csv("user_id,behavior,time_s,size_bytes\n1, browse ,3.0,0\n".as_bytes())
                .unwrap();
        assert_eq!(records[0].behavior, BehaviorType::Browse);
    }

    #[test]
    fn a_single_row_bandwidth_trace_steps_one_second() {
        let trace = read_bandwidth_csv("time_s,bps\n0,250000\n".as_bytes()).unwrap();
        assert_eq!(trace.dt_s(), 1.0);
        assert_eq!(trace.samples_bps(), &[250_000.0]);
        let trace = read_bandwidth_csv("time_s,bps\n10,1\n10.5,2\n".as_bytes()).unwrap();
        assert_eq!(trace.dt_s(), 0.5);
    }

    #[test]
    fn an_unusable_bandwidth_trace_is_an_error_not_a_panic() {
        for (data, line) in [
            ("time_s,bps\n0,100\n0,200\n", 3),
            ("time_s,bps\n5,100\n4,200\n", 3),
            ("time_s,bps\n0,100\n1,0\n", 3),
            ("time_s,bps\n0,-5\n", 2),
            ("time_s,bps\n0,NaN\n", 2),
            ("time_s,bps\n0,100\n1,100\n2,inf\n", 4),
        ] {
            let (at, message) = parse_error(read_bandwidth_csv(data.as_bytes()));
            assert_eq!(at, line, "{data:?}: {message}");
        }
    }

    #[test]
    fn only_io_and_json_errors_carry_a_source() {
        use std::error::Error;
        let json = read_json::<Vec<TrainAppSpec>, _>("[{".as_bytes()).unwrap_err();
        assert!(matches!(json, TraceIoError::Json(_)));
        assert!(json.source().is_some());
        assert!(json.to_string().starts_with("trace json failed: "));
        let parse = read_packets_csv("h\nx\n".as_bytes()).unwrap_err();
        assert!(parse.source().is_none());
        assert_eq!(
            parse.to_string(),
            "trace parse failed at line 2: invalid `id`: \"x\""
        );
        let io = TraceIoError::from(std::io::Error::other("disk"));
        assert!(io.source().is_some());
        assert_eq!(io.to_string(), "trace i/o failed: disk");
    }
}
