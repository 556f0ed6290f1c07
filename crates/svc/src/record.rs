//! Reading WAL records back.
//!
//! Every record is one [`SvcCommand`] written by `serde_json::to_string`,
//! and a restart decodes all of them. Nearly all are the few verbs a
//! client sends per request, which [`decode_canonical`] reads straight
//! from the segment bytes without the serde shim's `Value` tree.
//! [`decode`] sends whatever it declines to `serde_json::from_str`, so
//! the set of journals that open, and the command each record decodes
//! to, are those of the serde shim alone.

use etrain_core::{CoreCommand, Direction, RequestId, TransmitRequest, TxResult};
use etrain_obs::json::Reader;
use etrain_trace::{CargoAppId, TrainAppId};

use crate::state::SvcCommand;

/// Decodes one WAL record: the hand-written reader first, the serde shim
/// for what it declines. `None` when neither decodes it.
pub(crate) fn decode(payload: &[u8]) -> Option<SvcCommand> {
    decode_canonical(payload).or_else(|| {
        std::str::from_utf8(payload)
            .ok()
            .and_then(|text| serde_json::from_str(text).ok())
    })
}

/// Decodes a per-request WAL record written in the canonical form, or
/// answers `None`.
///
/// The per-request verbs are `SubmitIdem` and the core's `Submit`,
/// `Heartbeat`, `Tick`, `ReportResult`, `Cancel`, `CancelBackoff` and
/// `Drain`, spelled exactly as `serde_json::to_string` writes them.
/// Registrations and any other spelling (whitespace, an integer time,
/// a missing or extra field, `null`) are declined; recovery hands those
/// to `serde_json::from_str`. Whatever it returns is exactly what
/// `serde_json::from_str` returns for the same bytes; for a per-request
/// command's own `serde_json::to_string` bytes it always returns the
/// command.
///
/// # Examples
///
/// ```
/// use etrain_core::CoreCommand;
/// use etrain_svc::{decode_canonical, SvcCommand};
///
/// let tick = SvcCommand::Core(CoreCommand::Tick { now_s: 2.5 });
/// let line = serde_json::to_string(&tick).unwrap();
/// assert_eq!(decode_canonical(line.as_bytes()), Some(tick));
/// // Valid JSON, but an integer where the float belongs: declined.
/// assert_eq!(decode_canonical(br#"{"Core":{"Tick":{"now_s":2}}}"#), None);
/// ```
pub fn decode_canonical(payload: &[u8]) -> Option<SvcCommand> {
    let mut r = Reader::new(payload);
    let command = if r.eat(br#"{"SubmitIdem":{"client_id":"#) {
        let client_id = r.string()?;
        r.expect(br#","app":"#)?;
        let app = CargoAppId(usize_of(&mut r)?);
        r.expect(br#","request":"#)?;
        let request = request(&mut r)?;
        r.expect(br#","now_s":"#)?;
        let now_s = r.f64()?;
        r.expect(b"}}")?;
        SvcCommand::SubmitIdem {
            client_id,
            app,
            request,
            now_s,
        }
    } else if r.eat(br#"{"Core":"#) {
        let command = core(&mut r)?;
        r.expect(b"}")?;
        SvcCommand::Core(command)
    } else {
        return None;
    };
    r.is_at_end().then_some(command)
}

/// The per-request [`CoreCommand`]s.
fn core(r: &mut Reader<'_>) -> Option<CoreCommand> {
    let command = if r.eat(br#"{"Submit":{"app":"#) {
        let app = CargoAppId(usize_of(r)?);
        r.expect(br#","request":"#)?;
        let request = request(r)?;
        r.expect(br#","now_s":"#)?;
        CoreCommand::Submit {
            app,
            request,
            now_s: r.f64()?,
        }
    } else if r.eat(br#"{"Heartbeat":{"train":"#) {
        let train = TrainAppId(usize_of(r)?);
        r.expect(br#","now_s":"#)?;
        CoreCommand::Heartbeat {
            train,
            now_s: r.f64()?,
        }
    } else if r.eat(br#"{"Tick":{"now_s":"#) {
        CoreCommand::Tick { now_s: r.f64()? }
    } else if r.eat(br#"{"ReportResult":{"request":"#) {
        let request = RequestId(r.u64()?);
        let result = if r.eat(br#","result":"Delivered""#) {
            TxResult::Delivered
        } else if r.eat(br#","result":"Failed""#) {
            TxResult::Failed
        } else {
            return None;
        };
        r.expect(br#","now_s":"#)?;
        CoreCommand::ReportResult {
            request,
            result,
            now_s: r.f64()?,
        }
    } else if r.eat(br#"{"Cancel":{"request":"#) {
        CoreCommand::Cancel {
            request: RequestId(r.u64()?),
        }
    } else if r.eat(br#"{"CancelBackoff":{"request":"#) {
        CoreCommand::CancelBackoff {
            request: RequestId(r.u64()?),
        }
    } else if r.eat(br#""Drain""#) {
        return Some(CoreCommand::Drain);
    } else {
        return None;
    };
    r.expect(b"}}")?;
    Some(command)
}

/// A [`TransmitRequest`] object.
fn request(r: &mut Reader<'_>) -> Option<TransmitRequest> {
    r.expect(br#"{"size_bytes":"#)?;
    let size_bytes = r.u64()?;
    let direction = if r.eat(br#","direction":"Upload""#) {
        Direction::Upload
    } else if r.eat(br#","direction":"Download""#) {
        Direction::Download
    } else {
        return None;
    };
    r.expect(br#","deadline_s":"#)?;
    let deadline_s = if r.eat(b"null") { None } else { Some(r.f64()?) };
    r.expect(b"}")?;
    Some(TransmitRequest {
        size_bytes,
        direction,
        deadline_s,
    })
}

/// An app or train index.
fn usize_of(r: &mut Reader<'_>) -> Option<usize> {
    usize::try_from(r.u64()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use etrain_sched::{AppProfile, CostProfile};

    fn per_request_commands() -> Vec<SvcCommand> {
        let request = TransmitRequest::download(9_000).with_deadline(0.1);
        vec![
            SvcCommand::SubmitIdem {
                client_id: "b7-0-12-3".into(),
                app: CargoAppId(1),
                request: TransmitRequest::upload(4_000),
                now_s: 12.0,
            },
            SvcCommand::SubmitIdem {
                client_id: "q\"\\\u{1}\t\u{7f}é".into(),
                app: CargoAppId(0),
                request,
                now_s: 123_456.789,
            },
            SvcCommand::Core(CoreCommand::Submit {
                app: CargoAppId(2),
                request,
                now_s: 9_007_199_254_740_994.0,
            }),
            SvcCommand::Core(CoreCommand::Heartbeat {
                train: TrainAppId(3),
                now_s: 1e-7,
            }),
            SvcCommand::Core(CoreCommand::Tick { now_s: -0.0 }),
            SvcCommand::Core(CoreCommand::ReportResult {
                request: RequestId(u64::MAX),
                result: TxResult::Delivered,
                now_s: 5.0,
            }),
            SvcCommand::Core(CoreCommand::ReportResult {
                request: RequestId(0),
                result: TxResult::Failed,
                now_s: 5.5,
            }),
            SvcCommand::Core(CoreCommand::Cancel {
                request: RequestId(7),
            }),
            SvcCommand::Core(CoreCommand::CancelBackoff {
                request: RequestId(8),
            }),
            SvcCommand::Core(CoreCommand::Drain),
        ]
    }

    #[test]
    fn per_request_records_decode_without_the_shim() {
        for command in per_request_commands() {
            let json = serde_json::to_string(&command).unwrap();
            assert_eq!(decode_canonical(json.as_bytes()), Some(command), "{json}");
        }
    }

    #[test]
    fn what_the_reader_declines_goes_to_the_shim() {
        let registration = SvcCommand::Core(CoreCommand::RegisterCargo {
            profile: AppProfile::new("Mail", CostProfile::mail(300.0)),
        });
        let json = serde_json::to_string(&registration).unwrap();
        assert_eq!(decode_canonical(json.as_bytes()), None);
        assert_eq!(decode(json.as_bytes()), Some(registration));
        for (spelled, meant) in [
            (r#"{"Core":{"Tick":{"now_s":3}}}"#, Some(3.0)),
            (r#"{"Core":{"Tick":{"now_s":3.0,"extra":1}}}"#, Some(3.0)),
            (r#"{"Core": {"Tick":{"now_s":3.0}}}"#, Some(3.0)),
            (r#"{"Core":{"Tick":{"now_s":null}}}"#, None),
            (r#"{"Core":{"Tick":{}}}"#, None),
        ] {
            assert_eq!(decode_canonical(spelled.as_bytes()), None, "{spelled}");
            let decoded = decode(spelled.as_bytes());
            assert_eq!(
                decoded,
                meant.map(|now_s| SvcCommand::Core(CoreCommand::Tick { now_s })),
                "{spelled}"
            );
        }
        let old_build = r#"{"SubmitIdem":{"client_id":"x","app":0,"request":{"size_bytes":1,"direction":"Upload"},"now_s":1.0}}"#;
        assert_eq!(decode_canonical(old_build.as_bytes()), None);
        assert!(decode(old_build.as_bytes()).is_some());
    }

    #[test]
    fn damaged_records_decode_as_the_shim_says() {
        for command in per_request_commands() {
            let json = serde_json::to_string(&command).unwrap();
            let bytes = json.as_bytes();
            for cut in 0..bytes.len() {
                assert_eq!(decode_canonical(&bytes[..cut]), None, "{json} cut at {cut}");
            }
            for at in 0..bytes.len() {
                for flip in [0x01u8, 0x20, 0x80] {
                    let mut mutated = bytes.to_vec();
                    mutated[at] ^= flip;
                    if let Some(fast) = decode_canonical(&mutated) {
                        let text = std::str::from_utf8(&mutated).unwrap();
                        let slow: SvcCommand = serde_json::from_str(text).unwrap();
                        assert_eq!(fast, slow, "{text}");
                    }
                }
            }
        }
    }
}
