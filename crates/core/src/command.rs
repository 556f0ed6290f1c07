//! Command sourcing for the deterministic core: every state-changing
//! entry point of [`ETrainCore`] expressed as a serializable value.
//!
//! The live service (`etrain-svc`) persists a [`CoreCommand`] to its
//! write-ahead log *before* applying it, and recovery replays the logged
//! stream through [`ETrainCore::apply`] into a fresh core. Because the
//! core is sans-IO and driven entirely by explicit timestamps, replaying
//! the same command sequence reconstructs the same state bit for bit.

use etrain_sched::AppProfile;
use etrain_trace::{CargoAppId, TrainAppId};
use serde::{Deserialize, Serialize};

use crate::core_impl::ETrainCore;
use crate::error::CoreError;
use crate::request::{
    Admission, RequestId, RetryVerdict, TransmitDecision, TransmitRequest, TxResult,
};

/// One state-changing call into [`ETrainCore`], as replayable data.
///
/// The variants map one-to-one onto the core's public mutating API;
/// [`ETrainCore::apply`] dispatches them. Commands serialize through
/// serde (the same machinery as the `etrain-obs` event journal), which is
/// what the `etrain-svc` write-ahead log stores on disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoreCommand {
    /// [`ETrainCore::register_train`].
    RegisterTrain {
        /// The train app's name.
        name: String,
    },
    /// [`ETrainCore::register_cargo`].
    RegisterCargo {
        /// The cargo app's delay-cost profile.
        profile: AppProfile,
    },
    /// [`ETrainCore::submit`].
    Submit {
        /// The submitting cargo app.
        app: CargoAppId,
        /// The request metadata.
        request: TransmitRequest,
        /// Submission time in seconds.
        now_s: f64,
    },
    /// [`ETrainCore::on_heartbeat`].
    Heartbeat {
        /// The train whose heartbeat departed.
        train: TrainAppId,
        /// Departure time in seconds.
        now_s: f64,
    },
    /// [`ETrainCore::tick`].
    Tick {
        /// Slot time in seconds.
        now_s: f64,
    },
    /// [`ETrainCore::report_result`].
    ReportResult {
        /// The decided request being reported.
        request: RequestId,
        /// The transmission outcome.
        result: TxResult,
        /// Report time in seconds.
        now_s: f64,
    },
    /// [`ETrainCore::cancel`].
    Cancel {
        /// The pending request to withdraw.
        request: RequestId,
    },
    /// [`ETrainCore::cancel_backoff`].
    CancelBackoff {
        /// The backing-off request to withdraw.
        request: RequestId,
    },
    /// [`ETrainCore::drain`].
    Drain,
}

impl CoreCommand {
    /// The explicit timestamp the command carries, if any (registration,
    /// cancellation and drain act at the core's current clock).
    pub fn time_s(&self) -> Option<f64> {
        match self {
            CoreCommand::Submit { now_s, .. }
            | CoreCommand::Heartbeat { now_s, .. }
            | CoreCommand::Tick { now_s }
            | CoreCommand::ReportResult { now_s, .. } => Some(*now_s),
            CoreCommand::RegisterTrain { .. }
            | CoreCommand::RegisterCargo { .. }
            | CoreCommand::Cancel { .. }
            | CoreCommand::CancelBackoff { .. }
            | CoreCommand::Drain => None,
        }
    }

    /// Stable machine-readable name of the variant, for logs and labels.
    pub fn kind(&self) -> &'static str {
        match self {
            CoreCommand::RegisterTrain { .. } => "register_train",
            CoreCommand::RegisterCargo { .. } => "register_cargo",
            CoreCommand::Submit { .. } => "submit",
            CoreCommand::Heartbeat { .. } => "heartbeat",
            CoreCommand::Tick { .. } => "tick",
            CoreCommand::ReportResult { .. } => "report_result",
            CoreCommand::Cancel { .. } => "cancel",
            CoreCommand::CancelBackoff { .. } => "cancel_backoff",
            CoreCommand::Drain => "drain",
        }
    }
}

/// What applying one [`CoreCommand`] produced — the union of the return
/// types of the core's mutating API.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandOutcome {
    /// A train registered.
    TrainRegistered {
        /// Its id.
        train: TrainAppId,
    },
    /// A cargo app registered.
    CargoRegistered {
        /// Its id.
        app: CargoAppId,
    },
    /// A submission resolved to a typed admission outcome.
    Admitted {
        /// The admission outcome.
        admission: Admission,
    },
    /// A heartbeat or tick slot ran.
    Decisions {
        /// The decisions the slot released, in release order.
        decisions: Vec<TransmitDecision>,
    },
    /// A transmission outcome was reported.
    Verdict {
        /// The retry verdict.
        verdict: RetryVerdict,
    },
    /// A cancellation resolved.
    Cancelled {
        /// Whether the request was actually withdrawn.
        withdrawn: bool,
    },
    /// The core drained all held requests.
    Drained {
        /// The immediate decisions for everything that was held.
        decisions: Vec<TransmitDecision>,
    },
}

impl ETrainCore {
    /// Applies one replayable [`CoreCommand`], dispatching to the
    /// corresponding public method. Recovery replays a logged command
    /// stream through this; the live service routes every mutation
    /// through it too, so the log and the in-memory state can never
    /// diverge structurally.
    ///
    /// # Errors
    ///
    /// Exactly the errors of the underlying method (unknown apps,
    /// non-monotone timestamps, unknown requests).
    pub fn apply(&mut self, command: &CoreCommand) -> Result<CommandOutcome, CoreError> {
        match command {
            CoreCommand::RegisterTrain { name } => Ok(CommandOutcome::TrainRegistered {
                train: self.register_train(name.clone()),
            }),
            CoreCommand::RegisterCargo { profile } => Ok(CommandOutcome::CargoRegistered {
                app: self.register_cargo(profile.clone()),
            }),
            CoreCommand::Submit {
                app,
                request,
                now_s,
            } => Ok(CommandOutcome::Admitted {
                admission: self.submit(*app, *request, *now_s)?,
            }),
            CoreCommand::Heartbeat { train, now_s } => Ok(CommandOutcome::Decisions {
                decisions: self.on_heartbeat(*train, *now_s)?,
            }),
            CoreCommand::Tick { now_s } => Ok(CommandOutcome::Decisions {
                decisions: self.tick(*now_s)?,
            }),
            CoreCommand::ReportResult {
                request,
                result,
                now_s,
            } => Ok(CommandOutcome::Verdict {
                verdict: self.report_result(*request, *result, *now_s)?,
            }),
            CoreCommand::Cancel { request } => Ok(CommandOutcome::Cancelled {
                withdrawn: self.cancel(*request),
            }),
            CoreCommand::CancelBackoff { request } => Ok(CommandOutcome::Cancelled {
                withdrawn: self.cancel_backoff(*request),
            }),
            CoreCommand::Drain => Ok(CommandOutcome::Drained {
                decisions: self.drain(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_impl::CoreConfig;
    use etrain_sched::CostProfile;

    fn commands() -> Vec<CoreCommand> {
        vec![
            CoreCommand::RegisterTrain {
                name: "WeChat".into(),
            },
            CoreCommand::RegisterCargo {
                profile: AppProfile::new("Mail", CostProfile::mail(300.0)),
            },
            CoreCommand::Heartbeat {
                train: TrainAppId(0),
                now_s: 0.0,
            },
            CoreCommand::Submit {
                app: CargoAppId(0),
                request: TransmitRequest::upload(5_000),
                now_s: 10.0,
            },
            CoreCommand::Tick { now_s: 11.0 },
            CoreCommand::Heartbeat {
                train: TrainAppId(0),
                now_s: 270.0,
            },
            CoreCommand::ReportResult {
                request: RequestId(0),
                result: TxResult::Failed,
                now_s: 271.0,
            },
            CoreCommand::Drain,
        ]
    }

    fn theta_config() -> CoreConfig {
        CoreConfig {
            theta: 5.0,
            ..CoreConfig::default()
        }
    }

    #[test]
    fn apply_matches_direct_calls() {
        let mut direct = ETrainCore::new(theta_config());
        let train = direct.register_train("WeChat");
        let app = direct.register_cargo(AppProfile::new("Mail", CostProfile::mail(300.0)));
        direct.on_heartbeat(train, 0.0).unwrap();
        direct
            .submit(app, TransmitRequest::upload(5_000), 10.0)
            .unwrap();
        direct.tick(11.0).unwrap();
        direct.on_heartbeat(train, 270.0).unwrap();
        direct
            .report_result(RequestId(0), TxResult::Failed, 271.0)
            .unwrap();
        direct.drain();

        let mut replayed = ETrainCore::new(theta_config());
        for command in commands() {
            replayed.apply(&command).unwrap();
        }
        assert_eq!(replayed.stats(), direct.stats());
        assert_eq!(replayed.fingerprint(), direct.fingerprint());
    }

    #[test]
    fn replay_is_deterministic_and_fingerprint_sensitive() {
        let run = |cmds: &[CoreCommand]| {
            let mut core = ETrainCore::new(theta_config());
            for command in cmds {
                core.apply(command).unwrap();
            }
            core.fingerprint()
        };
        let all = commands();
        assert_eq!(run(&all), run(&all), "replay must be deterministic");
        let shorter = &all[..all.len() - 2];
        assert_ne!(
            run(&all),
            run(shorter),
            "dropping commands must change the fingerprint"
        );
    }

    /// Eight Mail requests submitted at the same instant, after a train
    /// and a Mail app register and a first heartbeat.
    fn equal_time_submits(deadline_s: Option<f64>) -> Vec<CoreCommand> {
        let mut commands = commands()[..3].to_vec();
        for size_bytes in 1..=8 {
            let request = TransmitRequest::upload(size_bytes);
            commands.push(CoreCommand::Submit {
                app: CargoAppId(0),
                request: match deadline_s {
                    Some(deadline_s) => request.with_deadline(deadline_s),
                    None => request,
                },
                now_s: 1.0,
            });
        }
        commands
    }

    #[test]
    fn two_cores_fed_one_stream_agree_on_every_output() {
        let released = |outcome: &CommandOutcome| -> Vec<u64> {
            let CommandOutcome::Decisions { decisions } = outcome else {
                panic!("a slot runs: {outcome:?}");
            };
            decisions.iter().map(|d| d.request.0).collect()
        };
        // All eight reach their own deadline in one tick.
        let mut deadlines = equal_time_submits(Some(20.0));
        deadlines.push(CoreCommand::Tick { now_s: 20.0 });
        // With k = 2, a late registration and then a heartbeat that can
        // take only two of eight equal-cost requests.
        let mut capped = equal_time_submits(None);
        capped.push(CoreCommand::RegisterCargo {
            profile: AppProfile::new("Weibo", CostProfile::weibo(120.0)),
        });
        capped.push(CoreCommand::Heartbeat {
            train: TrainAppId(0),
            now_s: 2.0,
        });
        let k2 = CoreConfig {
            k: Some(2),
            ..theta_config()
        };
        for (config, stream, last) in [
            (theta_config(), deadlines, (0..8).collect::<Vec<u64>>()),
            (k2, capped, vec![0, 1]),
        ] {
            let run = || {
                let mut core = ETrainCore::new(config);
                let outcomes: Vec<CommandOutcome> = stream
                    .iter()
                    .map(|command| core.apply(command).unwrap())
                    .collect();
                (outcomes, core.fingerprint())
            };
            let (outcomes, fingerprint) = run();
            assert_eq!(outcomes.last().map(released), Some(last));
            for _ in 0..3 {
                assert_eq!(run(), (outcomes.clone(), fingerprint));
            }
        }
    }

    #[test]
    fn commands_round_trip_through_json() {
        for command in commands() {
            let json = serde_json::to_string(&command).unwrap();
            let back: CoreCommand = serde_json::from_str(&json).unwrap();
            assert_eq!(back, command, "{json}");
        }
    }

    #[test]
    fn times_and_kinds_are_exposed() {
        let all = commands();
        assert_eq!(all[0].time_s(), None);
        assert_eq!(all[3].time_s(), Some(10.0));
        assert_eq!(all[3].kind(), "submit");
        assert_eq!(all[7].kind(), "drain");
    }

    #[test]
    fn apply_propagates_core_errors() {
        let mut core = ETrainCore::new(theta_config());
        let err = core
            .apply(&CoreCommand::Heartbeat {
                train: TrainAppId(3),
                now_s: 0.0,
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownTrainApp { .. }));
    }
}
