//! # etrain-chaos — deterministic chaos campaign for the eTrain simulator
//!
//! FoundationDB-style simulation testing for the reproduction: every run
//! is a pure function of its seed, so chaos here means *seeded breadth*,
//! not nondeterminism. One runner, [`ChaosCase::run`], runs and judges
//! every case (full oracle audit, health-ladder audit, caught panics):
//!
//! - [`run_campaign`] — randomized scenario plans ([`ChaosCase`], built
//!   on the conformance generator's [`CasePlan`](etrain_sim::CasePlan))
//!   crossed with fault plans and scheduler kinds, run on the worker
//!   pool, every failure a [`Finding`];
//! - [`shrink`] — delta-debugs a failing case (dropping packets,
//!   heartbeats and fault windows, halving the horizon, simplifying
//!   knobs) to a minimal serialized [`ReproCase`], replayable via the
//!   `chaos --repro <file>` bench binary;
//! - [`self_test`] — every [`Corruption`] of a run's output must be caught
//!   and shrunk to at most [`MAX_REPRO_EVENTS`] events. A [`Verdict`]
//!   names every problem of a campaign and a self-test.
//!
//! [`daemon_binary`] locates a built `etrain-svcd` for the repository
//! benchmark.
//!
//! # Example
//!
//! ```
//! use etrain_chaos::{campaign_cases, run_campaign};
//!
//! let cases = campaign_cases(0, 4, true);
//! let report = run_campaign(&cases, 2);
//! assert!(report.findings.is_empty(), "findings: {:?}", report.findings);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod campaign;
mod case;
mod shrink;

pub use campaign::{
    campaign_cases, run_campaign, self_test, CampaignReport, Finding, SelfTestResult, Verdict,
    MAX_REPRO_EVENTS,
};
pub use case::{violation_name, CaseFailure, ChaosCase, Corruption};
pub use shrink::{shrink, ReproCase};

use std::path::PathBuf;

/// Locates the `etrain-svcd` binary: the `ETRAIN_SVCD_BIN` override if
/// set, otherwise a sibling of the current executable (test binaries
/// live in `target/<profile>/deps`, the daemon one directory up).
/// Returns `None` when nothing exists at either location. The repository
/// benchmark's `daemon` and `daemon_recovery` workloads find the daemon
/// through it; the daemon's own process tests spawn the binary cargo
/// builds for them instead.
pub fn daemon_binary() -> Option<PathBuf> {
    if let Ok(path) = std::env::var("ETRAIN_SVCD_BIN") {
        let path = PathBuf::from(path);
        return path.exists().then_some(path);
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    let candidate = dir.join("etrain-svcd");
    candidate.exists().then_some(candidate)
}
