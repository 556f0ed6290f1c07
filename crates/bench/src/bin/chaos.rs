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
//! Any other argument, a valued flag with no value (given last, or
//! followed by another `--` flag), or a numeric flag whose value does not
//! parse, prints the usage and exits with status 2. Nothing is read from the
//! environment: the campaign pins its own oracle mode.
//!
//! Every campaign finding is shrunk to a minimal [`ReproCase`] and
//! written to `<out>/repro_seed<seed>.json`; every self-test repro
//! ([`self_test`] on seed `S + 6`, horizons capped at 900 s) to
//! `<out>/selftest_<corruption>.json`; the machine-readable summary
//! (campaign, self-test) lands in `<out>/chaos_report.json`. The exit
//! code is non-zero when the [`Verdict`] names a problem in either tier,
//! so CI can gate on it directly.

use std::num::NonZeroUsize;

use etrain_chaos::{
    campaign_cases, run_campaign, self_test, shrink, ReproCase, Verdict, MAX_REPRO_EVENTS,
};

const USAGE: &str = "usage: chaos [--seeds N] [--start-seed S] [--quick] [--jobs N] [--out DIR]
       chaos --repro FILE";

/// Prints `problem` and the usage, and exits with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("error: {problem}\n{USAGE}");
    std::process::exit(2);
}

/// The parsed value of a numeric `flag`; exits with status 2 when it does
/// not parse.
fn numeric_flag<T>(flags: &etrain_bench::Flags, flag: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    flags
        .parse(flag)
        .unwrap_or_else(|problem| usage_error(&problem))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flags = etrain_bench::check_flags(
        &args,
        &["--seeds", "--start-seed", "--jobs", "--out", "--repro"],
        &["--quick"],
    )
    .unwrap_or_else(|problem| usage_error(&problem));
    let seeds: u64 = numeric_flag(&flags, "--seeds").unwrap_or(100);
    let start_seed: u64 = numeric_flag(&flags, "--start-seed").unwrap_or(0);
    let jobs = numeric_flag(&flags, "--jobs").map(NonZeroUsize::get);

    if let Some(path) = flags.value("--repro") {
        std::process::exit(replay(path));
    }

    let quick = flags.has("--quick");
    let out_dir = flags.value("--out").unwrap_or("BENCH_chaos_repros");
    std::fs::create_dir_all(out_dir).expect("creating the output directory");

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
        println!("  FINDING {}: {}", finding.case.label(), finding.failure);
        match shrink(&finding.case) {
            Some(repro) => {
                let path = format!("{out_dir}/repro_seed{}.json", finding.case.plan.seed);
                write_repro(&path, &repro);
                println!(
                    "    shrunk to {} events ({}); wrote {path}",
                    repro.events, repro.signature
                );
            }
            None => println!("    (failure did not reproduce under the shrinker)"),
        }
    }

    // Tier 2: the injected-corruption self-test, on the start seed's
    // kernel parity so nightly runs exercise both kernels.
    let self_test = self_test(start_seed.wrapping_add(6), 900);
    let mut rows = Vec::new();
    for result in &self_test {
        let corruption = result.corruption;
        match &result.repro {
            Some(repro) => {
                let path = format!("{out_dir}/selftest_{corruption:?}.json");
                write_repro(&path, repro);
                println!(
                    "self-test {corruption:?}: caught, shrunk to {} events ({}), wrote {path}{}",
                    repro.events,
                    repro.signature,
                    if repro.events <= MAX_REPRO_EVENTS {
                        ""
                    } else {
                        " — TOO LARGE"
                    }
                );
                rows.push(format!(
                    "{{\"corruption\":\"{corruption:?}\",\"caught\":true,\"events\":{}}}",
                    repro.events
                ));
            }
            None => {
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

    let problems = Verdict {
        campaign,
        self_test,
    }
    .problems();
    if !problems.is_empty() {
        for problem in &problems {
            eprintln!("# problem: {problem}");
        }
        eprintln!("# {} problem(s) found", problems.len());
        std::process::exit(1);
    }
    eprintln!("# clean");
}

/// Writes one repro artifact as pretty JSON.
fn write_repro(path: &str, repro: &ReproCase) {
    let json = repro.to_json().expect("repro cases serialize");
    std::fs::write(path, json).expect("writing the repro artifact");
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
