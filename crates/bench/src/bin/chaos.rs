//! The chaos campaign driver: seeded scenario fuzzing under the strict
//! oracle, automatic shrinking of failures into repro artifacts, oracle
//! self-tests, and kill/resume crash-consistency trials.
//!
//! Flags:
//! - `--seeds N` — campaign width: N consecutive seeds (default 100);
//! - `--start-seed S` — first seed (default 0; CI passes a date-derived
//!   value so every night sweeps fresh cases);
//! - `--quick` — cap scenario horizons at 600 s for fast wide sweeps;
//! - `--kill-resume N` — number of kill/resume trials (default 100);
//! - `--self-test` / `--no-self-test` — force the injected-corruption
//!   self-test on/off (default: on);
//! - `--jobs N` — campaign worker count (default: `ETRAIN_JOBS`, then
//!   the machine's available parallelism);
//! - `--out DIR` — where repro artifacts and the JSON report go
//!   (default `BENCH_chaos_repros`);
//! - `--repro FILE` — replay a repro artifact instead of running the
//!   campaign; exits 0 iff the recorded failure reproduces.
//!
//! Every campaign finding is shrunk to a minimal [`ReproCase`] and
//! written to `<out>/repro_seed<seed>.json`; the machine-readable
//! summary (campaign, self-test, kill/resume) lands in
//! `<out>/chaos_report.json`. The exit code is non-zero when any tier
//! found a problem, so CI can gate on it directly.

use etrain_chaos::{
    campaign_cases, run_campaign, run_kill_resume, shrink, ChaosCase, Corruption, ReproCase,
};
use etrain_sim::{CasePlan, EngineKind, SchedulerKind};

fn numeric_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    etrain_bench::flag_value(args, flag).map(|raw| {
        raw.parse()
            .unwrap_or_else(|_| panic!("{flag} {raw:?}: expected a number"))
    })
}

fn main() {
    etrain_bench::validate_env_knobs();
    let args: Vec<String> = std::env::args().collect();

    if let Some(path) = etrain_bench::flag_value(&args, "--repro") {
        std::process::exit(replay(&path));
    }

    let seeds: u64 = numeric_flag(&args, "--seeds").unwrap_or(100);
    let start_seed: u64 = numeric_flag(&args, "--start-seed").unwrap_or(0);
    let killres_trials: usize = numeric_flag(&args, "--kill-resume").unwrap_or(100);
    let quick = args.iter().any(|a| a == "--quick");
    let self_test = !args.iter().any(|a| a == "--no-self-test");
    let out_dir =
        etrain_bench::flag_value(&args, "--out").unwrap_or_else(|| "BENCH_chaos_repros".to_owned());
    std::fs::create_dir_all(&out_dir).expect("creating the output directory");

    let mut problems = 0usize;
    let mut report_sections: Vec<String> = Vec::new();

    // Tier 1: the campaign.
    let cases = campaign_cases(start_seed, seeds, quick);
    let jobs = etrain_sim::resolve_workers(numeric_flag(&args, "--jobs"), cases.len());
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
    report_sections.push(format!(
        "\"campaign\":{}",
        serde_json::to_string(&campaign).expect("campaign reports serialize")
    ));

    // Tier 2: the injected-corruption self-test.
    if self_test {
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
        report_sections.push(format!("\"self_test\":[{}]", rows.join(",")));
    }

    // Tier 3: kill/resume crash consistency. Trials are spread over
    // seeds at 4 trials per seed.
    let killres_seeds: Vec<u64> = (0..killres_trials.div_ceil(4) as u64)
        .map(|i| start_seed.wrapping_add(i))
        .collect();
    let killres = run_kill_resume(&killres_seeds, 4);
    let divergent = killres.trials.len() - killres.identical_count();
    problems += divergent;
    println!(
        "kill/resume: {} trials, {} identical, {} divergent",
        killres.trials.len(),
        killres.identical_count(),
        divergent
    );
    for trial in killres.trials.iter().filter(|t| !t.identical) {
        println!(
            "  DIVERGED seed={} kind={} kill={} cadence={}: {}",
            trial.seed,
            trial.kind,
            trial.kill_after_events,
            trial.cadence_slots,
            trial.detail.as_deref().unwrap_or("?")
        );
    }
    report_sections.push(format!(
        "\"kill_resume\":{}",
        serde_json::to_string(&killres).expect("kill/resume reports serialize")
    ));

    let report_path = format!("{out_dir}/chaos_report.json");
    std::fs::write(&report_path, format!("{{{}}}", report_sections.join(",")))
        .expect("writing the chaos report");
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
