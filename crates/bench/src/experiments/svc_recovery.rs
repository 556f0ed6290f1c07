//! Infrastructure: durable-service crash recovery.
//!
//! Three tiers, mirroring the chaos experiment's shape but aimed at the
//! `etrain-svc` write-ahead journal rather than the simulator:
//!
//! 1. **In-process crash/recover** — a [`DurableService`] is fed the
//!    deterministic harness script, dropped cold at seeded points
//!    (nothing between append and apply survives a drop — exactly the
//!    WAL's crash model), reopened, and compared fingerprint-for-
//!    fingerprint against a never-dropped [`ServiceState`] reference.
//!    Recovery wall-clock is the headline latency.
//! 2. **WAL corruption self-test** — torn-tail, truncated-segment, and
//!    flipped-checksum damage applied to real segment files must be
//!    detected and truncated by recovery, with the surviving prefix
//!    still replaying bit-for-bit (`etrain_chaos::run_wal_selftest`).
//! 3. **Process-level supervision** — when the `etrain-svcd` binary is
//!    built, the chaos supervisor SIGKILLs the real daemon at seeded
//!    points (including mid-append via the fault hook) and verifies
//!    zero-loss recovery; skipped (and reported as such) otherwise.
//!
//! The zero-loss acceptance bar: every trial in every tier recovers a
//! state bit-for-bit identical to the reference over the acknowledged
//! prefix — `svc_recovery_divergent` must be 0.

use std::path::PathBuf;
use std::time::Instant;

use crate::{ExperimentResult, Settings};
use etrain_chaos::{daemon_binary, run_supervisor, run_wal_selftest};
use etrain_core::CoreConfig;
use etrain_sim::Table;
use etrain_svc::script::script;
use etrain_svc::{DurableService, ServiceState, SvcHealthConfig, WalConfig};

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("etrain-svc-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

struct InProcessTrial {
    kill_at: usize,
    identical: bool,
    recovery_ms: f64,
    records: u64,
}

/// Progressive drop/reopen trials over one WAL directory: apply up to
/// each kill point, drop the service cold, reopen, compare.
fn inprocess_trials(seed: u64, steps_total: usize, kill_points: &[usize]) -> Vec<InProcessTrial> {
    let dir = scratch(&format!("inproc-{seed}"));
    let mut cfg = WalConfig::new(&dir);
    cfg.fsync = false;
    cfg.segment_bytes = 4096; // several rotations per run
    let steps = script(seed, steps_total);
    let mut reference = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
    let mut trials = Vec::new();
    let mut applied = 0usize;
    let (mut service, _) = DurableService::open(
        cfg.clone(),
        CoreConfig::default(),
        SvcHealthConfig::default(),
    )
    .expect("fresh WAL opens");
    for &kill_at in kill_points {
        let kill_at = kill_at.min(steps.len());
        while applied < kill_at {
            let step = &steps[applied];
            let _ = service.apply(step.command.clone());
            let _ = reference.apply(&step.command);
            applied += 1;
        }
        drop(service); // the crash: no checkpoint, no drain, no goodbye
        let reopened_at = Instant::now();
        let (recovered, summary) = DurableService::open(
            cfg.clone(),
            CoreConfig::default(),
            SvcHealthConfig::default(),
        )
        .expect("recovery succeeds");
        trials.push(InProcessTrial {
            kill_at,
            identical: recovered.fingerprint() == reference.fingerprint(),
            recovery_ms: reopened_at.elapsed().as_secs_f64() * 1000.0,
            records: summary.wal.records,
        });
        service = recovered;
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    trials
}

/// Runs the svc_recovery experiment.
pub fn run(settings: Settings) -> ExperimentResult {
    // Tier 1: in-process crash/recover.
    let steps_total = if settings.quick { 60 } else { 240 };
    let kill_count = if settings.quick { 6 } else { 16 };
    let kill_points: Vec<usize> = (1..=kill_count)
        .map(|k| k * steps_total / (kill_count + 1))
        .collect();
    let trials = inprocess_trials(17, steps_total, &kill_points);
    let mut trial_table = Table::new(
        "In-process crash/recover — drop cold at seeded points, reopen, compare",
        &["kill_at", "records", "identical", "recovery_ms"],
    );
    let mut divergent = 0usize;
    let mut max_recovery_ms = 0.0f64;
    for trial in &trials {
        if !trial.identical {
            divergent += 1;
        }
        max_recovery_ms = max_recovery_ms.max(trial.recovery_ms);
        trial_table.push_row_strings(vec![
            trial.kill_at.to_string(),
            trial.records.to_string(),
            if trial.identical { "yes" } else { "NO" }.to_string(),
            format!("{:.2}", trial.recovery_ms),
        ]);
    }

    // Tier 2: WAL corruption self-test.
    let selftest_dir = scratch("selftest");
    let selftest = run_wal_selftest(17, if settings.quick { 40 } else { 120 }, &selftest_dir);
    let _ = std::fs::remove_dir_all(&selftest_dir);
    let mut selftest_table = Table::new(
        "WAL corruption self-test — damaged segment tails must be detected",
        &[
            "corruption",
            "detected",
            "truncated_bytes",
            "prefix_matches",
        ],
    );
    let mut caught = 0usize;
    for result in &selftest {
        if result.detected && result.prefix_matches {
            caught += 1;
        }
        selftest_table.push_row_strings(vec![
            result.corruption.clone(),
            if result.detected { "yes" } else { "NO" }.to_string(),
            result.truncated_bytes.to_string(),
            if result.prefix_matches { "yes" } else { "NO" }.to_string(),
        ]);
    }

    // Tier 3: process-level supervision, when the daemon binary exists.
    let mut supervisor_table = Table::new(
        "Process supervision — SIGKILL + mid-append faults against the real daemon",
        &["trial", "acked", "identical", "recovery_ms"],
    );
    let mut process_trials = 0usize;
    let mut process_divergent = 0usize;
    match daemon_binary() {
        Some(bin) => {
            let dir = scratch("supervisor");
            let report = run_supervisor(&bin, &dir, 17, if settings.quick { 5 } else { 10 });
            let _ = std::fs::remove_dir_all(&dir);
            process_trials = report.trials.len();
            for trial in &report.trials {
                if !trial.identical {
                    process_divergent += 1;
                }
                max_recovery_ms = max_recovery_ms.max(trial.recovery_ms);
                supervisor_table.push_row_strings(vec![
                    trial.kind.clone(),
                    trial.acked_steps.to_string(),
                    if trial.identical { "yes" } else { "NO" }.to_string(),
                    format!("{:.2}", trial.recovery_ms),
                ]);
            }
            for error in &report.errors {
                process_divergent += 1;
                supervisor_table.push_row_strings(vec![
                    format!("harness error: {error}"),
                    "-".into(),
                    "NO".into(),
                    "-".into(),
                ]);
            }
        }
        None => {
            supervisor_table.push_row_strings(vec![
                "skipped: etrain-svcd not built (cargo build -p etrain-svc)".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
    }

    ExperimentResult::from_tables(vec![trial_table, selftest_table, supervisor_table])
        .headline(
            "svc_recovery_divergent",
            (divergent + process_divergent) as f64,
            "trials",
        )
        .headline("svc_recovery_max_ms", max_recovery_ms, "ms")
        .headline(
            "svc_wal_corruptions_caught",
            caught as f64,
            format!("of {}", selftest.len()),
        )
        .headline("svc_process_trials", process_trials as f64, "count")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svc_recovery_is_zero_loss_in_quick_mode() {
        let result = run(Settings::quick());
        let headline = |metric: &str| {
            result
                .headlines
                .iter()
                .find(|h| h.metric == metric)
                .unwrap_or_else(|| panic!("missing headline {metric}"))
                .value
        };
        assert_eq!(headline("svc_recovery_divergent"), 0.0);
        assert_eq!(headline("svc_wal_corruptions_caught"), 3.0);
        assert!(headline("svc_recovery_max_ms") > 0.0);
    }
}
