//! `svc_smoke` — the durable daemon's kill/restart smoke loop.
//!
//! Spawns the real `etrain-svcd` (which must be built first:
//! `cargo build -p etrain-svc`), SIGKILLs it at seeded points, arms
//! mid-append WAL faults, kills one restart while it is still recovering
//! a torn journal, restarts after every crash, and verifies the
//! recovered state matches a never-killed reference bit-for-bit. Also
//! runs the WAL corruption self-test. Writes the combined report as
//! JSON and exits nonzero on any divergence — CI's `svc-smoke` job
//! uploads the report as an artifact.
//!
//! ```text
//! svc_smoke [--kills N] [--seed S] [--out PATH]
//! ```

use std::path::PathBuf;

use etrain_chaos::{
    daemon_binary, run_recovery_kill_trial, run_supervisor, run_wal_selftest, SupervisorReport,
    WalSelfTest, RECOVERY_KILL_STEPS,
};
use serde::Serialize;

/// The artifact CI uploads: the supervisor campaign plus the WAL
/// corruption self-test, in one JSON document.
#[derive(Serialize)]
struct SmokeReport {
    supervisor: SupervisorReport,
    wal_selftest: Vec<WalSelfTest>,
}

fn main() {
    let mut kills = 7usize;
    let mut seed = 17u64;
    let mut out = PathBuf::from("svc-recovery-report.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("svc_smoke: {what} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--kills" => {
                kills = value("--kills").parse().unwrap_or_else(|_| {
                    eprintln!("svc_smoke: --kills must be a positive integer");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("svc_smoke: --seed must be a non-negative integer");
                    std::process::exit(2);
                })
            }
            "--out" => out = PathBuf::from(value("--out")),
            other => {
                eprintln!("svc_smoke: unknown argument {other:?}");
                eprintln!("usage: svc_smoke [--kills N] [--seed S] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let Some(bin) = daemon_binary() else {
        eprintln!(
            "svc_smoke: etrain-svcd not found — build it first \
             (cargo build -p etrain-svc) or set ETRAIN_SVCD_BIN"
        );
        std::process::exit(2);
    };

    let scratch = std::env::temp_dir().join(format!("etrain-svc-smoke-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&scratch);
    println!(
        "svc_smoke: daemon {} seed {seed} kills {kills}",
        bin.display()
    );
    let mut supervisor = run_supervisor(&bin, &scratch, seed, kills);
    match run_recovery_kill_trial(
        &bin,
        &scratch.join("svc-recovery-kill"),
        seed,
        RECOVERY_KILL_STEPS,
    ) {
        Ok(trial) => supervisor.trials.push(trial),
        Err(e) => supervisor.errors.push(format!("recovery kill: {e}")),
    }
    let selftest = run_wal_selftest(seed, 60, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);

    for trial in &supervisor.trials {
        println!(
            "  {:<16} acked={:<4} identical={} recovery={:.2}ms  {}",
            trial.kind, trial.acked_steps, trial.identical, trial.recovery_ms, trial.recovered_line
        );
    }
    for error in &supervisor.errors {
        println!("  HARNESS ERROR: {error}");
    }
    let selftest_clean = selftest.iter().all(|t| t.detected && t.prefix_matches);
    for t in &selftest {
        println!(
            "  wal-selftest {:<18} detected={} truncated={}B prefix_matches={}",
            t.corruption, t.detected, t.truncated_bytes, t.prefix_matches
        );
    }

    let clean = supervisor.is_clean() && selftest_clean;
    println!(
        "svc_smoke: {} trials, {} identical, max recovery {:.2} ms -> {}",
        supervisor.trials.len(),
        supervisor.identical_count(),
        supervisor.max_recovery_ms(),
        out.display()
    );

    let report = SmokeReport {
        supervisor,
        wal_selftest: selftest,
    };
    let rendered = serde_json::to_string_pretty(&report)
        .unwrap_or_else(|e| format!("{{\"error\":\"render: {e}\"}}"));
    if let Err(e) = std::fs::write(&out, rendered) {
        eprintln!("svc_smoke: writing {}: {e}", out.display());
        std::process::exit(1);
    }

    if !clean {
        eprintln!("svc_smoke: FAILED — recovered state diverged or corruption escaped");
        std::process::exit(1);
    }
}
