//! Deterministic protocol scripts for crash harnesses.
//!
//! A [`ScriptStep`] carries the same mutation twice: as the protocol
//! `line` a harness sends the real daemon, and as the [`SvcCommand`] an
//! in-process reference [`ServiceState`](crate::ServiceState) applies.
//! Both sides are pure functions of the seed, which is what lets the
//! daemon's process tests compare a SIGKILLed-and-recovered daemon
//! against a never-killed reference fingerprint-for-fingerprint.
//!
//! The generator is intentionally self-contained (a splitmix64 walk, no
//! RNG dependency) so the exact same scripts are reproducible from any
//! crate that depends on `etrain-svc`.

use etrain_core::{CoreCommand, RequestId, TransmitRequest, TxResult};
use etrain_sched::{AppProfile, CostProfile};
use etrain_trace::{CargoAppId, TrainAppId};

use crate::state::SvcCommand;

/// One scripted mutation, in both wire and in-process form.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptStep {
    /// The line-protocol request (no trailing newline).
    pub line: String,
    /// The identical mutation as a command for a reference state.
    pub command: SvcCommand,
}

/// A tiny deterministic generator (splitmix64) so scripts need no RNG
/// crate and are stable across the workspace.
struct Splitmix(u64);

impl Splitmix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Uniform in `[lo, hi)` with millisecond granularity — coarse
    /// enough that the decimal rendering in a protocol line round-trips
    /// exactly through `f64` parsing.
    fn seconds(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 1000.0) as u64;
        lo + self.below(steps.max(1)) as f64 / 1000.0
    }
}

/// The fixed prologue every script starts with: one train app and the
/// Mail/Weibo cargo pair.
fn prologue() -> Vec<ScriptStep> {
    vec![
        ScriptStep {
            line: "REGTRAIN WeChat".into(),
            command: SvcCommand::Core(CoreCommand::RegisterTrain {
                name: "WeChat".into(),
            }),
        },
        ScriptStep {
            line: "REGCARGO Mail mail 300".into(),
            command: SvcCommand::Core(CoreCommand::RegisterCargo {
                profile: AppProfile::new("Mail", CostProfile::mail(300.0)),
            }),
        },
        ScriptStep {
            line: "REGCARGO Weibo weibo 120".into(),
            command: SvcCommand::Core(CoreCommand::RegisterCargo {
                profile: AppProfile::new("Weibo", CostProfile::weibo(120.0)),
            }),
        },
    ]
}

/// Generates the deterministic script for `seed`: the prologue plus
/// `steps` seeded mutations — idempotent submits, heartbeats, ticks, and
/// transmission reports (some of which deterministically error on both
/// sides; crash harnesses rely on errors replaying identically too).
pub fn script(seed: u64, steps: usize) -> Vec<ScriptStep> {
    let mut rng = Splitmix(seed.wrapping_mul(2).wrapping_add(1));
    let mut now_s = 0.0f64;
    let mut out = prologue();
    for i in 0..steps {
        now_s += rng.seconds(1.0, 30.0);
        let step = match rng.below(10) {
            0..=4 => {
                let app = rng.below(2) as usize;
                let size = 500 + rng.below(19_500);
                ScriptStep {
                    line: format!("SUBMIT c-{seed}-{i} {app} up {size} {now_s}"),
                    command: SvcCommand::SubmitIdem {
                        client_id: format!("c-{seed}-{i}"),
                        app: CargoAppId(app),
                        request: TransmitRequest::upload(size),
                        now_s,
                    },
                }
            }
            5 | 6 => ScriptStep {
                line: format!("HB 0 {now_s}"),
                command: SvcCommand::Core(CoreCommand::Heartbeat {
                    train: TrainAppId(0),
                    now_s,
                }),
            },
            7 | 8 => ScriptStep {
                line: format!("TICK {now_s}"),
                command: SvcCommand::Core(CoreCommand::Tick { now_s }),
            },
            _ => {
                // A report against a low request id: sometimes in
                // flight, sometimes a deterministic UnknownRequest
                // rejection — identical on daemon and reference.
                let id = rng.below(4);
                let delivered = rng.below(10) < 7;
                ScriptStep {
                    line: format!(
                        "REPORT {id} {} {now_s}",
                        if delivered { "ok" } else { "fail" }
                    ),
                    command: SvcCommand::Core(CoreCommand::ReportResult {
                        request: RequestId(id),
                        result: if delivered {
                            TxResult::Delivered
                        } else {
                            TxResult::Failed
                        },
                        now_s,
                    }),
                }
            }
        };
        out.push(step);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ServiceState, SvcHealthConfig};
    use etrain_core::CoreConfig;

    #[test]
    fn scripts_are_deterministic_and_seed_sensitive() {
        assert_eq!(script(7, 30), script(7, 30));
        assert_ne!(script(7, 30), script(8, 30));
    }

    #[test]
    fn script_timestamps_are_monotone_and_round_trip_via_display() {
        let steps = script(3, 50);
        let mut last = f64::NEG_INFINITY;
        for step in &steps {
            let t = match &step.command {
                SvcCommand::Core(c) => c.time_s(),
                SvcCommand::SubmitIdem { now_s, .. } => Some(*now_s),
            };
            if let Some(t) = t {
                assert!(t >= last, "time went backwards in script");
                last = t;
                let rendered = format!("{t}");
                let parsed: f64 = rendered.parse().unwrap();
                assert_eq!(parsed.to_bits(), t.to_bits(), "{rendered}");
            }
        }
    }

    #[test]
    fn scripts_apply_cleanly_enough_to_exercise_state() {
        let mut state = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
        let mut ok = 0usize;
        for step in script(1, 60) {
            if state.apply(&step.command).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 30, "only {ok} commands applied cleanly");
        assert!(state.applied() > 30);
    }
}
