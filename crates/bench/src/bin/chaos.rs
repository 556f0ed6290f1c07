//! The chaos campaign driver: seeded scenario fuzzing under the strict
//! oracle, automatic shrinking of failures into repro artifacts, and the
//! injected-corruption oracle self-test, which always runs.
//!
//! Flags:
//! - `--seeds N` — campaign width: N consecutive seeds (default 100);
//! - `--start-seed S` — first seed (default 0; CI passes a date-derived
//!   value so every night sweeps fresh cases);
//! - `--quick` — cap scenario horizons at 600 s for fast wide sweeps;
//! - `--jobs N` — campaign worker count, a positive integer (default:
//!   the machine's available parallelism);
//! - `--out DIR` — where repro artifacts and the JSON report go
//!   (default `BENCH_chaos_repros`);
//! - `--repro FILE` — replay a repro artifact instead of running the
//!   campaign; exits 0 iff the recorded failure reproduces.
//!
//! Any other argument, or a numeric flag whose value does not parse,
//! prints the usage and exits with status 2. Nothing is read from the
//! environment: the campaign pins its own oracle mode.
//!
//! Every campaign finding is shrunk to a minimal [`ReproCase`] and
//! written to `<out>/repro_seed<seed>.json`; the machine-readable
//! summary (campaign, self-test) lands in `<out>/chaos_report.json`.
//! The exit code is non-zero when either tier found a problem, so CI can
//! gate on it directly.

use std::num::NonZeroUsize;

use etrain_chaos::{campaign_cases, run_campaign, shrink, ChaosCase, Corruption, ReproCase};
use etrain_sim::{CasePlan, EngineKind, SchedulerKind};

const USAGE: &str = "usage: chaos [--seeds N] [--start-seed S] [--quick] [--jobs N] [--out DIR]
       chaos --repro FILE";

/// Prints `problem` and the usage, and exits with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("error: {problem}\n{USAGE}");
    std::process::exit(2);
}

/// The parsed value of a numeric `flag`; exits with status 2 when it does
/// not parse.
fn numeric_flag<T>(args: &[String], flag: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    etrain_bench::parse_flag(args, flag).unwrap_or_else(|problem| usage_error(&problem))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Err(problem) = etrain_bench::check_flags(
        &args,
        &["--seeds", "--start-seed", "--jobs", "--out", "--repro"],
        &["--quick"],
    ) {
        usage_error(&problem);
    }
    let seeds: u64 = numeric_flag(&args, "--seeds").unwrap_or(100);
    let start_seed: u64 = numeric_flag(&args, "--start-seed").unwrap_or(0);
    let jobs = numeric_flag(&args, "--jobs").map(NonZeroUsize::get);

    if let Some(path) = etrain_bench::flag_value(&args, "--repro") {
        std::process::exit(replay(&path));
    }

    let quick = args.iter().any(|a| a == "--quick");
    let out_dir =
        etrain_bench::flag_value(&args, "--out").unwrap_or_else(|| "BENCH_chaos_repros".to_owned());
    std::fs::create_dir_all(&out_dir).expect("creating the output directory");

    let mut problems = 0usize;

    // Tier 1: the campaign.
    let cases = campaign_cases(start_seed, seeds, quick);
    let jobs = etrain_sim::resolve_workers(jobs, cases.len());
    eprintln!(
        "# campaign: {seeds} seeds from {start_seed} on {jobs} worker(s){}",
        if quick { " (quick)" } else { "" }
    );
    let campaign = run_campaign(&cases, jobs);
    println!(
        "campaign: {} cases, {} finding(s)",
        campaign.cases_run,
        campaign.findings.len()
    );
    for finding in &campaign.findings {
        problems += 1;
        println!("  FINDING {}: {}", finding.case.label(), finding.failure);
        match shrink(&finding.case) {
            Some(repro) => {
                let path = format!("{out_dir}/repro_seed{}.json", finding.case.plan.seed);
                std::fs::write(&path, repro.to_json()).expect("writing the repro artifact");
                println!(
                    "    shrunk to {} events ({}); wrote {path}",
                    repro.events, repro.signature
                );
            }
            None => println!("    (failure did not reproduce under the shrinker)"),
        }
    }

    // Tier 2: the injected-corruption self-test.
    let mut plan = CasePlan::from_seed(start_seed.wrapping_add(6), false);
    plan.horizon_s = plan.horizon_s.min(900);
    let mut rows = Vec::new();
    for corruption in Corruption::all() {
        let case = ChaosCase {
            plan: plan.clone(),
            kind: SchedulerKind::Baseline,
            // Follow the campaign's parity convention so nightly
            // self-tests exercise both kernels as the start seed
            // advances.
            engine: if plan.seed.is_multiple_of(2) {
                EngineKind::Slot
            } else {
                EngineKind::Event
            },
            corruption: Some(corruption),
        };
        match shrink(&case) {
            Some(repro) => {
                let ok = repro.events <= 10;
                if !ok {
                    problems += 1;
                }
                let path = format!("{out_dir}/selftest_{corruption:?}.json");
                std::fs::write(&path, repro.to_json()).expect("writing the repro artifact");
                println!(
                    "self-test {corruption:?}: caught, shrunk to {} events ({}), wrote {path}{}",
                    repro.events,
                    repro.signature,
                    if ok { "" } else { " — TOO LARGE" }
                );
                rows.push(format!(
                    "{{\"corruption\":\"{corruption:?}\",\"caught\":true,\"events\":{}}}",
                    repro.events
                ));
            }
            None => {
                problems += 1;
                println!("self-test {corruption:?}: NOT CAUGHT");
                rows.push(format!(
                    "{{\"corruption\":\"{corruption:?}\",\"caught\":false}}"
                ));
            }
        }
    }

    let report_path = format!("{out_dir}/chaos_report.json");
    let report = format!(
        "{{\"campaign\":{},\"self_test\":[{}]}}",
        serde_json::to_string(&campaign).expect("campaign reports serialize"),
        rows.join(",")
    );
    std::fs::write(&report_path, report).expect("writing the chaos report");
    eprintln!("# wrote {report_path}");

    if problems > 0 {
        eprintln!("# {problems} problem(s) found");
        std::process::exit(1);
    }
    eprintln!("# clean");
}

/// Replays a repro artifact; returns the process exit code.
fn replay(path: &str) -> i32 {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(error) => {
            eprintln!("error: cannot read {path}: {error}");
            return 2;
        }
    };
    let repro = match ReproCase::from_json(&raw) {
        Ok(repro) => repro,
        Err(error) => {
            eprintln!("error: {error}");
            return 2;
        }
    };
    println!(
        "replaying {} ({} events, expecting {})",
        repro.case.label(),
        repro.events,
        repro.signature
    );
    match repro.replay() {
        Ok(failure) => {
            println!("reproduced: {failure}");
            0
        }
        Err(divergence) => {
            eprintln!("error: {divergence}");
            1
        }
    }
}
