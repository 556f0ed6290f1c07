//! # etrain-chaos — deterministic chaos campaign for the eTrain simulator
//!
//! FoundationDB-style simulation testing for the reproduction: every run
//! is a pure function of its seed, so chaos here means *seeded breadth*,
//! not nondeterminism. The crate has three pillars:
//!
//! - [`run_campaign`] — a seeded campaign driver: randomized scenario
//!   plans ([`ChaosCase`], built on the conformance generator's
//!   [`CasePlan`](etrain_sim::CasePlan)) crossed with fault plans and
//!   scheduler kinds, swept through the production grid runner under the
//!   strict oracle, collecting every oracle violation, panic, and
//!   health-ladder anomaly as [`Finding`]s;
//! - [`shrink`] — an automatic shrinker that delta-debugs a failing case
//!   (dropping packets, heartbeats and fault windows, halving the
//!   horizon, simplifying knobs) while re-running after every edit,
//!   emitting a minimal serialized [`ReproCase`] replayable via the
//!   `chaos --repro <file>` bench binary;
//! - [`run_supervisor`] — a *process-level* crash harness: it spawns the
//!   real `etrain-svcd` daemon, SIGKILLs it at seeded points (including
//!   mid-append via the `ETRAIN_WAL_FAULT` hook), restarts it, and
//!   asserts the WAL-recovered state matches a never-killed in-process
//!   reference fingerprint-for-fingerprint ([`run_recovery_kill_trial`]
//!   kills a restart while it is still recovering), with [`run_wal_selftest`]
//!   proving the WAL checksum path detects torn, truncated, and
//!   bit-flipped segment tails ([`WalCorruption`]).
//!
//! The oracle itself is self-tested through [`Corruption`]: deliberate
//! post-run output corruptions that the audit must catch — and that the
//! shrinker must reduce to a handful of events.
//!
//! # Example
//!
//! ```
//! use etrain_chaos::{campaign_cases, run_campaign};
//!
//! let cases = campaign_cases(0, 4, true);
//! let report = run_campaign(&cases, 2);
//! assert!(report.is_clean(), "findings: {:?}", report.findings);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod case;
mod shrink;
mod supervisor;

pub use campaign::{campaign_cases, run_campaign, CampaignReport, Finding};
pub use case::{violation_name, CaseFailure, ChaosCase, Corruption};
pub use shrink::{shrink, ReproCase};
pub use supervisor::{
    daemon_binary, run_fault_trial, run_recovery_kill_trial, run_sigkill_trials, run_supervisor,
    run_wal_selftest, SupervisorReport, SupervisorTrial, WalCorruption, WalSelfTest,
    RECOVERY_KILL_STEPS,
};
