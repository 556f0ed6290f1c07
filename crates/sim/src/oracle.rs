//! The simulation oracle: run-time invariant checking over engine output.
//!
//! The paper's headline claims rest on physics invariants (every
//! transmission is followed by a δ_D DCH tail and δ_F FACH tail;
//! piggybacked cargo adds no new tail) and on ordering claims (the online
//! Lyapunov scheduler tracks the offline optimum and dominates the
//! no-piggyback baseline on fault-free traces). A regression in
//! `Timeline::from_transmissions` or a scheduler would silently reshape
//! every figure. The oracle makes those properties checkable on *every*
//! run:
//!
//! 1. **Energy ledger conservation** — the offline timeline rebuilt from
//!    the transmission log integrates to the online radio's
//!    transmission + tail ledger; segment energies agree with the
//!    closed-form analytic model; the transmit ledger equals
//!    busy-time × p̃_D; the idle baseline equals idle-power × horizon.
//! 2. **RRC legality** — timeline segments are contiguous,
//!    non-overlapping, cover exactly `[0, horizon]`, and only demote
//!    DCH→FACH→IDLE after exactly δ_D/δ_F of inactivity (delegated to
//!    [`etrain_radio::audit_segments`], an independent re-derivation).
//! 3. **Packet conservation** — every generated packet is completed,
//!    abandoned, in flight or still deferred *exactly once*; completions
//!    respect causality (arrival ≤ release ≤ tx start < tx end ≤
//!    horizon); abandonments and retries occur only under a lossy
//!    [`FaultPlan`].
//! 4. **Metrics consistency** — the [`RunReport`] derived from the output
//!    matches an independent re-computation of every ratio and
//!    aggregate, and no metric is NaN/∞.
//!
//! The scheduler-ordering claim (eTrain between the offline bound and the
//! baseline) needs *extra runs*, so it is not part of the per-run audit;
//! [`audit_scheduler_ordering`] packages it for the conformance suite and
//! controlled experiments.
//!
//! # Modes
//!
//! [`OracleMode`] threads through [`crate::Scenario`] /
//! [`crate::RunGrid`] and the checked engine entry points:
//!
//! - `Off` — no auditing at all (zero overhead, the default);
//! - `Record` — audit every run and attach the [`OracleOutcome`] to the
//!   report;
//! - `Strict` — like `Record`, but a violation turns the run into a typed
//!   error ([`ScenarioError::OracleViolation`](crate::ScenarioError)).
//!
//! Every run starts `Off`; a caller opts in per scenario or per grid.
//! The bench registry's paper-default scenarios run `Strict`, so a
//! violation in any of them fails its experiment. The oracle keeps no
//! state between runs: each outcome lives only in its report, and
//! nothing reads the mode from the environment.

use std::collections::HashMap;

use etrain_radio::merge_busy_periods;
use etrain_sched::{AppProfile, OfflineProblem};
use etrain_trace::faults::FaultPlan;
use etrain_trace::heartbeats::Heartbeat;
use etrain_trace::packets::Packet;
use serde::{Deserialize, Serialize};

use crate::engine::EngineOutput;
use crate::metrics::RunReport;
use crate::scenario::{BandwidthSource, Scenario, SchedulerKind};

/// How much auditing a run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OracleMode {
    /// No auditing; zero overhead. The default.
    #[default]
    Off,
    /// Audit every run and attach the outcome to the report; violations
    /// are recorded, not fatal.
    Record,
    /// Audit every run; any violation fails the run with a typed error.
    Strict,
}

impl OracleMode {
    /// Whether this mode audits at all.
    pub fn is_enabled(self) -> bool {
        self != OracleMode::Off
    }
}

impl std::fmt::Display for OracleMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OracleMode::Off => "off",
            OracleMode::Record => "record",
            OracleMode::Strict => "strict",
        })
    }
}

/// One violated invariant, with enough context to diagnose it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OracleViolation {
    /// The offline timeline's extra energy disagrees with the online
    /// radio's transmission + tail ledger.
    EnergyImbalance {
        /// Extra energy integrated from the rebuilt timeline, in joules.
        timeline_j: f64,
        /// `transmission_energy_j + tail_energy_j` from the online radio.
        ledger_j: f64,
        /// The tolerance that was exceeded, in joules.
        tolerance_j: f64,
    },
    /// The transmit-energy ledger disagrees with busy-time × p̃_D.
    TransmitEnergyMismatch {
        /// `transmission_energy_j` from the online radio.
        ledger_j: f64,
        /// `busy_time_s × dch_extra_mw / 1000`.
        busy_derived_j: f64,
        /// The tolerance that was exceeded, in joules.
        tolerance_j: f64,
    },
    /// An energy or time field is NaN, infinite, or negative.
    NonFiniteQuantity {
        /// Which field.
        field: String,
        /// Its value.
        value: f64,
    },
    /// The rebuilt RRC timeline violates the demotion rules (wrapped
    /// [`etrain_radio::TimelineAuditError`], rendered).
    IllegalTimeline {
        /// Human-readable description of the radio-layer audit failure.
        detail: String,
    },
    /// Two logged transmissions overlap — a single radio cannot do that.
    OverlappingTransmissions {
        /// Index of the earlier transmission.
        index: usize,
        /// Its end time, in seconds.
        end_s: f64,
        /// The next transmission's start, in seconds.
        next_start_s: f64,
    },
    /// Terminal packet states do not add up to the generated trace.
    PacketConservation {
        /// Packets in the input trace.
        generated: usize,
        /// Completed packets.
        completed: usize,
        /// Abandoned packets.
        abandoned: usize,
        /// Packets in flight at the horizon.
        in_flight: usize,
        /// Packets still deferred inside the scheduler.
        still_deferred: usize,
        /// Packets shed by admission control.
        shed: usize,
    },
    /// A packet reached more than one terminal state.
    DuplicateTerminalState {
        /// The packet id.
        packet_id: u64,
    },
    /// A terminal state references a packet the input trace never
    /// generated.
    UnknownPacket {
        /// The packet id.
        packet_id: u64,
    },
    /// A completed packet's timing is acausal (release before arrival,
    /// transmission before release, end before start, or past the
    /// horizon).
    CausalityViolation {
        /// The packet id.
        packet_id: u64,
        /// Its arrival time, in seconds.
        arrival_s: f64,
        /// Its (final) release time, in seconds.
        release_s: f64,
        /// Its transmission start, in seconds.
        tx_start_s: f64,
        /// Its transmission end, in seconds.
        tx_end_s: f64,
    },
    /// Retries, abandonments or wasted retry energy appeared although the
    /// fault plan cannot lose transmissions.
    UnexpectedFaultArtifact {
        /// What appeared.
        detail: String,
    },
    /// `heartbeats_sent` disagrees with the plan-filtered heartbeat trace.
    HeartbeatCount {
        /// Heartbeats the filtered trace says should depart.
        expected: usize,
        /// Heartbeats the engine reported sending.
        sent: usize,
    },
    /// The transmission log's length is outside its accounting bracket.
    TransmissionCount {
        /// Transmissions logged.
        logged: usize,
        /// Lower bound: completed + abandoned + retried attempts.
        lower: usize,
        /// Upper bound: lower + heartbeats sent + packets in flight.
        upper: usize,
    },
    /// A report metric disagrees with its independent re-computation.
    MetricsMismatch {
        /// Which metric.
        metric: String,
        /// The value in the report.
        reported: f64,
        /// The value the oracle recomputed.
        recomputed: f64,
    },
    /// An online scheduler's energy fell outside its ordering bounds.
    SchedulerOrdering {
        /// Display name of the scheduler that broke the bound.
        scheduler: String,
        /// Its extra energy, in joules.
        extra_energy_j: f64,
        /// The bound it violated, in joules.
        bound_j: f64,
        /// `"above-baseline"` or `"below-offline"`.
        relation: String,
    },
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleViolation::EnergyImbalance {
                timeline_j,
                ledger_j,
                tolerance_j,
            } => write!(
                f,
                "energy ledger imbalance: timeline {timeline_j} J vs online ledger {ledger_j} J (tolerance {tolerance_j} J)"
            ),
            OracleViolation::TransmitEnergyMismatch {
                ledger_j,
                busy_derived_j,
                tolerance_j,
            } => write!(
                f,
                "transmit energy {ledger_j} J disagrees with busy-time derivation {busy_derived_j} J (tolerance {tolerance_j} J)"
            ),
            OracleViolation::NonFiniteQuantity { field, value } => {
                write!(f, "{field} is not a finite non-negative number: {value}")
            }
            OracleViolation::IllegalTimeline { detail } => {
                write!(f, "illegal RRC timeline: {detail}")
            }
            OracleViolation::OverlappingTransmissions {
                index,
                end_s,
                next_start_s,
            } => write!(
                f,
                "transmission #{index} ends at {end_s} s after its successor starts at {next_start_s} s"
            ),
            OracleViolation::PacketConservation {
                generated,
                completed,
                abandoned,
                in_flight,
                still_deferred,
                shed,
            } => write!(
                f,
                "packet conservation broken: {generated} generated vs {completed} completed + {abandoned} abandoned + {in_flight} in flight + {still_deferred} deferred + {shed} shed"
            ),
            OracleViolation::DuplicateTerminalState { packet_id } => {
                write!(f, "packet {packet_id} reached two terminal states")
            }
            OracleViolation::UnknownPacket { packet_id } => {
                write!(f, "packet {packet_id} was never generated")
            }
            OracleViolation::CausalityViolation {
                packet_id,
                arrival_s,
                release_s,
                tx_start_s,
                tx_end_s,
            } => write!(
                f,
                "packet {packet_id} timing is acausal: arrival {arrival_s} s, release {release_s} s, tx [{tx_start_s}, {tx_end_s}] s"
            ),
            OracleViolation::UnexpectedFaultArtifact { detail } => {
                write!(f, "fault artifact without a lossy fault plan: {detail}")
            }
            OracleViolation::HeartbeatCount { expected, sent } => write!(
                f,
                "heartbeat count mismatch: trace expects {expected}, engine sent {sent}"
            ),
            OracleViolation::TransmissionCount {
                logged,
                lower,
                upper,
            } => write!(
                f,
                "transmission log length {logged} outside accounting bracket [{lower}, {upper}]"
            ),
            OracleViolation::MetricsMismatch {
                metric,
                reported,
                recomputed,
            } => write!(
                f,
                "metric {metric} reported as {reported} but recomputes to {recomputed}"
            ),
            OracleViolation::SchedulerOrdering {
                scheduler,
                extra_energy_j,
                bound_j,
                relation,
            } => write!(
                f,
                "{scheduler} extra energy {extra_energy_j} J is {relation} bound {bound_j} J"
            ),
        }
    }
}

impl std::error::Error for OracleViolation {}

/// The result of auditing one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleOutcome {
    /// The mode the audit ran under.
    pub mode: OracleMode,
    /// Individual invariant checks performed.
    pub checks: u64,
    /// Violations found (empty for a clean run).
    pub violations: Vec<OracleViolation>,
}

impl OracleOutcome {
    /// Whether the audit found no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-event float budget for energy comparisons: the online radio and
/// the offline timeline accumulate independently, one rounding step per
/// accounting event.
fn energy_tolerance_j(events: usize) -> f64 {
    1e-9 * (1.0 + events as f64)
}

/// Small helper carrying the growing outcome.
struct Audit {
    checks: u64,
    violations: Vec<OracleViolation>,
}

impl Audit {
    fn new() -> Self {
        Audit {
            checks: 0,
            violations: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, violation: impl FnOnce() -> OracleViolation) {
        self.checks += 1;
        if !ok {
            self.violations.push(violation());
        }
    }

    fn finish(self, mode: OracleMode) -> OracleOutcome {
        OracleOutcome {
            mode,
            checks: self.checks,
            violations: self.violations,
        }
    }
}

/// Audits the engine-level invariants (energy ledger, RRC legality,
/// packet conservation) of one run.
///
/// `packets` and `heartbeats` are the *input* traces the engine ran on
/// (pre fault filtering); `plan` is the fault plan it ran under. The
/// returned outcome carries `mode = Record`; callers re-tag it.
pub fn audit_engine(
    output: &EngineOutput,
    packets: &[Packet],
    heartbeats: &[Heartbeat],
    plan: &FaultPlan,
) -> OracleOutcome {
    let mut audit = Audit::new();
    audit_energy(&mut audit, output);
    audit_rrc(&mut audit, output);
    audit_packets(&mut audit, output, packets, plan);
    audit_heartbeats(&mut audit, output, heartbeats, plan);
    audit.finish(OracleMode::Record)
}

/// Invariant 1: the energy ledger balances across three independent
/// accounting paths (online radio, offline timeline, analytic model).
fn audit_energy(audit: &mut Audit, output: &EngineOutput) {
    for (field, value) in [
        ("transmission_energy_j", output.transmission_energy_j),
        ("tail_energy_j", output.tail_energy_j),
        ("idle_energy_j", output.idle_energy_j),
        ("wasted_retry_energy_j", output.wasted_retry_energy_j),
        ("busy_time_s", output.busy_time_s),
        ("horizon_s", output.horizon_s),
    ] {
        audit.check(value.is_finite() && value >= 0.0, || {
            OracleViolation::NonFiniteQuantity {
                field: field.to_string(),
                value,
            }
        });
    }

    let tol = energy_tolerance_j(output.transmissions.len());
    let ledger_j = output.transmission_energy_j + output.tail_energy_j;
    let timeline_j = output.timeline().extra_energy_j();
    audit.check((timeline_j - ledger_j).abs() <= tol, || {
        OracleViolation::EnergyImbalance {
            timeline_j,
            ledger_j,
            tolerance_j: tol,
        }
    });

    let busy_derived_j = output.busy_time_s * output.radio_params.dch_extra_mw() / 1000.0;
    audit.check(
        (output.transmission_energy_j - busy_derived_j).abs() <= tol,
        || OracleViolation::TransmitEnergyMismatch {
            ledger_j: output.transmission_energy_j,
            busy_derived_j,
            tolerance_j: tol,
        },
    );

    let idle_expected_j = output.radio_params.idle_mw() / 1000.0 * output.horizon_s;
    audit.check(
        (output.idle_energy_j - idle_expected_j).abs() <= tol,
        || OracleViolation::MetricsMismatch {
            metric: "idle_energy_j".to_string(),
            reported: output.idle_energy_j,
            recomputed: idle_expected_j,
        },
    );

    audit.check(
        output.wasted_retry_energy_j <= output.transmission_energy_j + tol,
        || OracleViolation::NonFiniteQuantity {
            field: "wasted_retry_energy_j above transmission_energy_j".to_string(),
            value: output.wasted_retry_energy_j,
        },
    );

    // Busy time equals the merged busy periods of the log.
    let merged = merge_busy_periods(&output.transmissions, output.horizon_s);
    let merged_busy_s: f64 = merged.iter().map(|&(s, e)| e - s).sum();
    audit.check((output.busy_time_s - merged_busy_s).abs() <= tol, || {
        OracleViolation::MetricsMismatch {
            metric: "busy_time_s".to_string(),
            reported: output.busy_time_s,
            recomputed: merged_busy_s,
        }
    });
}

/// Invariant 2: the rebuilt timeline obeys the RRC demotion rules and the
/// transmission log is a legal single-radio schedule.
fn audit_rrc(audit: &mut Audit, output: &EngineOutput) {
    let timeline = output.timeline();
    match timeline.audit(&output.transmissions) {
        Ok(radio_checks) => audit.checks += radio_checks as u64,
        Err(err) => {
            audit.checks += 1;
            audit.violations.push(OracleViolation::IllegalTimeline {
                detail: err.to_string(),
            });
        }
    }

    for (index, pair) in output.transmissions.windows(2).enumerate() {
        let end_s = pair[0].end_s();
        let next_start_s = pair[1].start_s;
        audit.check(end_s <= next_start_s + 1e-9, || {
            OracleViolation::OverlappingTransmissions {
                index,
                end_s,
                next_start_s,
            }
        });
    }
}

/// Invariant 3: packet conservation, uniqueness of terminal states, and
/// causality of completions; fault artifacts only under a lossy plan.
fn audit_packets(audit: &mut Audit, output: &EngineOutput, packets: &[Packet], plan: &FaultPlan) {
    // Multiset accounting: every generated packet id must be consumed by
    // exactly one terminal state, and the leftover must match the
    // scheduler's deferred count.
    let mut remaining: HashMap<u64, usize> = HashMap::new();
    for p in packets {
        *remaining.entry(p.id).or_insert(0) += 1;
    }
    let terminal_ids = output
        .completed
        .iter()
        .map(|c| c.packet.id)
        .chain(output.abandoned.iter().map(|a| a.packet.id))
        .chain(output.in_flight.iter().map(|p| p.id))
        .chain(output.shed.iter().map(|p| p.id));
    for id in terminal_ids {
        match remaining.get_mut(&id) {
            Some(n) if *n > 0 => {
                *n -= 1;
                audit.checks += 1;
            }
            Some(_) => audit.check(false, || OracleViolation::DuplicateTerminalState {
                packet_id: id,
            }),
            None => audit.check(false, || OracleViolation::UnknownPacket { packet_id: id }),
        }
    }
    let leftover: usize = remaining.values().sum();
    audit.check(
        leftover == output.still_deferred
            && output.completed.len()
                + output.abandoned.len()
                + output.in_flight.len()
                + output.still_deferred
                + output.shed.len()
                == packets.len(),
        || OracleViolation::PacketConservation {
            generated: packets.len(),
            completed: output.completed.len(),
            abandoned: output.abandoned.len(),
            in_flight: output.in_flight.len(),
            still_deferred: output.still_deferred,
            shed: output.shed.len(),
        },
    );

    // Causality of every completion.
    let tol = 1e-9;
    for c in &output.completed {
        let ok = c.packet.arrival_s.is_finite()
            && c.release_s.is_finite()
            && c.tx_start_s.is_finite()
            && c.tx_end_s.is_finite()
            && c.packet.arrival_s <= c.release_s + tol
            && c.release_s <= c.tx_start_s + tol
            && c.tx_start_s < c.tx_end_s
            && c.tx_end_s <= output.horizon_s + tol;
        audit.check(ok, || OracleViolation::CausalityViolation {
            packet_id: c.packet.id,
            arrival_s: c.packet.arrival_s,
            release_s: c.release_s,
            tx_start_s: c.tx_start_s,
            tx_end_s: c.tx_end_s,
        });
    }
    for a in &output.abandoned {
        let ok = a.attempts >= 1
            && a.abandoned_at_s.is_finite()
            && a.packet.arrival_s <= a.abandoned_at_s + tol
            && a.abandoned_at_s <= output.horizon_s + tol;
        audit.check(ok, || OracleViolation::CausalityViolation {
            packet_id: a.packet.id,
            arrival_s: a.packet.arrival_s,
            release_s: f64::NAN,
            tx_start_s: f64::NAN,
            tx_end_s: a.abandoned_at_s,
        });
    }

    // Fault artifacts require a plan that can actually lose transfers.
    if plan.loss_probability <= 0.0 {
        audit.check(output.abandoned.is_empty(), || {
            OracleViolation::UnexpectedFaultArtifact {
                detail: format!("{} abandonments", output.abandoned.len()),
            }
        });
        audit.check(output.retries == 0, || {
            OracleViolation::UnexpectedFaultArtifact {
                detail: format!("{} retries", output.retries),
            }
        });
        audit.check(output.wasted_retry_energy_j == 0.0, || {
            OracleViolation::UnexpectedFaultArtifact {
                detail: format!("{} J wasted retry energy", output.wasted_retry_energy_j),
            }
        });
    }

    // Transmission log length sits inside its accounting bracket: every
    // settled cargo attempt logged one transmission; heartbeats and the
    // final in-flight packet account for the rest.
    let lower = output.completed.len() + output.abandoned.len() + output.retries;
    let upper = lower + output.heartbeats_sent + output.in_flight.len();
    let logged = output.transmissions.len();
    audit.check(logged >= lower && logged <= upper, || {
        OracleViolation::TransmissionCount {
            logged,
            lower,
            upper,
        }
    });
}

/// Heartbeat conservation: the engine sends exactly the plan-filtered
/// heartbeats that fall inside the horizon.
fn audit_heartbeats(
    audit: &mut Audit,
    output: &EngineOutput,
    heartbeats: &[Heartbeat],
    plan: &FaultPlan,
) {
    let filtered: Vec<Heartbeat>;
    let surviving: &[Heartbeat] = if plan.is_noop() {
        heartbeats
    } else {
        filtered = plan.apply_to_heartbeats(heartbeats);
        &filtered
    };
    let expected = surviving
        .iter()
        .filter(|hb| hb.time_s <= output.horizon_s)
        .count();
    audit.check(expected == output.heartbeats_sent, || {
        OracleViolation::HeartbeatCount {
            expected,
            sent: output.heartbeats_sent,
        }
    });
}

/// Invariant 4 (report level): every aggregate in the [`RunReport`]
/// matches an independent re-computation from the raw output.
pub fn audit_report(
    report: &RunReport,
    output: &EngineOutput,
    profiles: &[AppProfile],
) -> OracleOutcome {
    let mut audit = Audit::new();

    // Finiteness of every float the report carries.
    for (field, value) in [
        ("extra_energy_j", report.extra_energy_j),
        ("transmission_energy_j", report.transmission_energy_j),
        ("tail_energy_j", report.tail_energy_j),
        ("idle_energy_j", report.idle_energy_j),
        ("total_energy_j", report.total_energy_j),
        ("abandonment_ratio", report.abandonment_ratio),
        ("wasted_retry_energy_j", report.wasted_retry_energy_j),
        ("normalized_delay_s", report.normalized_delay_s),
        ("deadline_violation_ratio", report.deadline_violation_ratio),
        ("busy_time_s", report.busy_time_s),
        ("tail_fraction", report.tail_fraction()),
    ] {
        audit.check(value.is_finite() && value >= 0.0, || {
            OracleViolation::NonFiniteQuantity {
                field: field.to_string(),
                value,
            }
        });
    }

    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()));
    let metric = |audit: &mut Audit, name: &str, reported: f64, recomputed: f64| {
        audit.check(close(reported, recomputed), || {
            OracleViolation::MetricsMismatch {
                metric: name.to_string(),
                reported,
                recomputed,
            }
        });
    };

    metric(
        &mut audit,
        "extra_energy_j",
        report.extra_energy_j,
        output.transmission_energy_j + output.tail_energy_j,
    );
    metric(
        &mut audit,
        "total_energy_j",
        report.total_energy_j,
        report.extra_energy_j + report.idle_energy_j,
    );

    // Independent delay/violation recomputation, in completion order
    // (from_engine aggregates per app first).
    let mut delay_sum = 0.0f64;
    let mut violations = 0usize;
    for c in &output.completed {
        let delay = c.scheduling_delay_s();
        delay_sum += delay;
        if delay >= profiles[c.packet.app.index()].cost.deadline_s() {
            violations += 1;
        }
    }
    let n = output.completed.len();
    let recomputed_delay = if n > 0 { delay_sum / n as f64 } else { 0.0 };
    let recomputed_violation = if n > 0 {
        violations as f64 / n as f64
    } else {
        0.0
    };
    metric(
        &mut audit,
        "normalized_delay_s",
        report.normalized_delay_s,
        recomputed_delay,
    );
    metric(
        &mut audit,
        "deadline_violation_ratio",
        report.deadline_violation_ratio,
        recomputed_violation,
    );

    let settled = n + output.abandoned.len() + output.in_flight.len() + output.still_deferred;
    let recomputed_abandonment = if settled > 0 {
        output.abandoned.len() as f64 / settled as f64
    } else {
        0.0
    };
    metric(
        &mut audit,
        "abandonment_ratio",
        report.abandonment_ratio,
        recomputed_abandonment,
    );

    // Counts carried over verbatim.
    for (name, reported, expected) in [
        ("packets_completed", report.packets_completed, n),
        (
            "packets_unfinished",
            report.packets_unfinished,
            output.in_flight.len() + output.still_deferred,
        ),
        (
            "packets_abandoned",
            report.packets_abandoned,
            output.abandoned.len(),
        ),
        (
            "heartbeats_sent",
            report.heartbeats_sent,
            output.heartbeats_sent,
        ),
        ("retries", report.retries, output.retries),
        ("promotions", report.promotions, output.promotions),
        ("packets_shed", report.packets_shed, output.shed.len()),
        (
            "forced_flushes",
            report.forced_flushes,
            output.forced_flushes,
        ),
        (
            "health_events",
            report.health_events.len(),
            output.health_events.len(),
        ),
        (
            "per_app_packets",
            report.per_app.iter().map(|a| a.packets).sum::<usize>(),
            n,
        ),
    ] {
        metric(&mut audit, name, reported as f64, expected as f64);
    }

    // Ratios live in [0, 1].
    for (name, value) in [
        ("abandonment_ratio", report.abandonment_ratio),
        ("deadline_violation_ratio", report.deadline_violation_ratio),
        ("tail_fraction", report.tail_fraction()),
    ] {
        audit.check((0.0..=1.0).contains(&value), || {
            OracleViolation::NonFiniteQuantity {
                field: format!("{name} outside [0, 1]"),
                value,
            }
        });
    }

    audit.finish(OracleMode::Record)
}

/// Full per-run audit: engine invariants plus report consistency, tagged
/// with `mode`.
#[allow(clippy::too_many_arguments)]
pub fn audit_run(
    report: &RunReport,
    output: &EngineOutput,
    packets: &[Packet],
    heartbeats: &[Heartbeat],
    plan: &FaultPlan,
    profiles: &[AppProfile],
    mode: OracleMode,
) -> OracleOutcome {
    let engine = audit_engine(output, packets, heartbeats, plan);
    let rep = audit_report(report, output, profiles);
    OracleOutcome {
        mode,
        checks: engine.checks + rep.checks,
        violations: engine
            .violations
            .into_iter()
            .chain(rep.violations)
            .collect(),
    }
}

/// Result of a scheduler-ordering audit on one controlled instance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OrderingAudit {
    /// The no-piggyback baseline's extra energy, in joules.
    pub baseline_extra_j: f64,
    /// Online eTrain's extra energy, in joules.
    pub etrain_extra_j: f64,
    /// The offline schedule's objective (extra energy), in joules.
    pub offline_bound_j: f64,
    /// Whether the offline bound is the exact candidate-grid optimum
    /// (instances over 10 packets fall back to the greedy heuristic,
    /// which is not a lower bound).
    pub offline_exact: bool,
}

/// Checks the paper's ordering claim on one controlled instance: online
/// eTrain's extra energy must not exceed the no-piggyback baseline's, and
/// must not fall below the exact offline optimum (minus discretization
/// slack — the online engine schedules on 1 s slots while the offline
/// grid releases exactly at arrivals/heartbeats, so up to 2 % slack in
/// that direction is legitimate, matching the `offline_gap` experiment).
///
/// The instance must use a constant-bandwidth channel and a fault-free
/// plan — the ordering claim is only stated there — and should carry at
/// least one train so piggybacking is possible. Callers (the conformance
/// suite) construct such instances deliberately; this is not a per-run
/// invariant because it requires two extra simulations and an offline
/// solve.
///
/// # Errors
///
/// Returns the first [`OracleViolation::SchedulerOrdering`] found.
#[allow(clippy::result_large_err)]
pub fn audit_scheduler_ordering(
    packets: Vec<Packet>,
    heartbeats: Vec<Heartbeat>,
    profiles: Vec<AppProfile>,
    bandwidth_bps: f64,
    horizon_s: f64,
    theta: f64,
) -> Result<OrderingAudit, OracleViolation> {
    let base = Scenario::paper_default()
        .oracle(OracleMode::Off)
        .duration_secs(horizon_s as u64)
        .profiles(profiles.clone())
        .packets(packets.clone())
        .heartbeats(heartbeats.clone())
        .bandwidth(BandwidthSource::Constant(bandwidth_bps));

    let baseline = base
        .clone()
        .scheduler(SchedulerKind::Baseline)
        .run()
        .extra_energy_j;
    let etrain = base
        .scheduler(SchedulerKind::ETrain { theta, k: None })
        .run()
        .extra_energy_j;

    let problem = OfflineProblem {
        packets,
        heartbeats,
        profiles,
        radio: etrain_radio::RadioParams::galaxy_s4_3g(),
        bandwidth_bps,
        horizon_s,
        cost_budget: f64::MAX,
    };
    let (offline, exact) = problem.solve_best();

    if etrain > baseline + 1e-6 {
        return Err(OracleViolation::SchedulerOrdering {
            scheduler: "eTrain".to_string(),
            extra_energy_j: etrain,
            bound_j: baseline,
            relation: "above-baseline".to_string(),
        });
    }
    if exact && etrain < offline.energy_j * 0.98 - 1e-6 {
        return Err(OracleViolation::SchedulerOrdering {
            scheduler: "eTrain".to_string(),
            extra_energy_j: etrain,
            bound_j: offline.energy_j,
            relation: "below-offline".to_string(),
        });
    }
    Ok(OrderingAudit {
        baseline_extra_j: baseline,
        etrain_extra_j: etrain,
        offline_bound_j: offline.energy_j,
        offline_exact: exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_display_and_default() {
        assert_eq!(OracleMode::Off.to_string(), "off");
        assert_eq!(OracleMode::Record.to_string(), "record");
        assert_eq!(OracleMode::Strict.to_string(), "strict");
        assert_eq!(OracleMode::default(), OracleMode::Off);
        assert!(!OracleMode::Off.is_enabled());
        assert!(OracleMode::Record.is_enabled());
    }

    #[test]
    fn violations_render_human_readable() {
        let v = OracleViolation::EnergyImbalance {
            timeline_j: 10.0,
            ledger_j: 11.0,
            tolerance_j: 1e-6,
        };
        assert!(v.to_string().contains("imbalance"), "{v}");
        let v = OracleViolation::SchedulerOrdering {
            scheduler: "eTrain".to_string(),
            extra_energy_j: 5.0,
            bound_j: 4.0,
            relation: "above-baseline".to_string(),
        };
        assert!(v.to_string().contains("above-baseline"), "{v}");
    }

    #[test]
    fn outcome_serde_roundtrip() {
        let outcome = OracleOutcome {
            mode: OracleMode::Strict,
            checks: 42,
            violations: vec![OracleViolation::HeartbeatCount {
                expected: 3,
                sent: 2,
            }],
        };
        let json = serde_json::to_string(&outcome).unwrap();
        let back: OracleOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(outcome, back);
    }
}
