//! Runs every reproduction experiment concurrently across a worker pool
//! and prints all tables in paper (registry) order, then writes the
//! machine-readable `BENCH_repro.json` with per-experiment wall-clock and
//! headline metrics.
//!
//! Flags:
//! - `--only NAME[,NAME...]` — run just the named experiments (see
//!   `etrain_bench::registry`); an unknown name exits with status 2. A
//!   partial run writes no JSON report or artifact;
//! - `--quick` — reduced horizons/sweeps for a CI-speed smoke run;
//! - `--csv DIR` — also write each table as `DIR/<experiment>_<index>.csv`
//!   for plotting;
//! - `--jobs N` — worker count (default: `ETRAIN_JOBS` env, then the
//!   machine's available parallelism);
//! - `--json PATH` — where to write the report (default
//!   `BENCH_repro.json`); `--no-json` skips it.
//!
//! Every simulated run is audited by the simulation oracle: unless the
//! `ETRAIN_ORACLE` environment variable is already set, the suite runs in
//! `record` mode and writes the check/violation tallies into the report.
//! `ETRAIN_ORACLE=strict` turns any violation into a hard failure.
//!
//! `ETRAIN_OBS=jsonl` additionally journals every scenario the suite runs
//! and exports the `explain` experiment's raw journal as
//! `BENCH_explain.jsonl`. Observability never changes the numbers —
//! headlines are bit-for-bit identical either way.

use std::time::Instant;

/// The experiments `--only` names, in registry order; exits with status 2
/// on an empty list or an unknown name.
fn select(list: &str) -> Vec<etrain_bench::Experiment> {
    let names: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .collect();
    let unknown: Vec<&str> = names
        .iter()
        .copied()
        .filter(|name| etrain_bench::find(name).is_none())
        .collect();
    if names.is_empty() || !unknown.is_empty() {
        let known: Vec<&str> = etrain_bench::registry().iter().map(|e| e.name).collect();
        eprintln!(
            "error: --only: unknown experiment(s) {unknown:?}; known: {}",
            known.join(", ")
        );
        std::process::exit(2);
    }
    etrain_bench::registry()
        .into_iter()
        .filter(|e| names.contains(&e.name))
        .collect()
}

fn main() {
    etrain_bench::validate_env_knobs();
    let args: Vec<String> = std::env::args().collect();
    if std::env::var(etrain_sim::ORACLE_ENV).is_err() {
        // Default the whole suite to record-mode auditing. Set before any
        // experiment runs; single-threaded at this point.
        std::env::set_var(etrain_sim::ORACLE_ENV, "record");
    }
    let quick = args.iter().any(|a| a == "--quick");
    let only = etrain_bench::flag_value(&args, "--only");
    // A partial run must never overwrite the full report.
    let no_json = only.is_some() || args.iter().any(|a| a == "--no-json");
    let csv_dir = etrain_bench::flag_value(&args, "--csv");
    let jobs = etrain_bench::flag_value(&args, "--jobs").map(|v| {
        v.parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .expect("--jobs needs a positive integer")
    });
    let json_path =
        etrain_bench::flag_value(&args, "--json").unwrap_or_else(|| "BENCH_repro.json".to_owned());

    let registry = match &only {
        Some(list) => select(list),
        None => etrain_bench::registry(),
    };
    let jobs = etrain_sim::resolve_workers(jobs, registry.len());
    eprintln!(
        "# running {} experiments on {} worker(s){}",
        registry.len(),
        jobs,
        if quick { " (quick mode)" } else { "" }
    );
    let started = Instant::now();
    let runs = etrain_bench::run_experiments(&registry, quick, Some(jobs));
    let total_s = started.elapsed().as_secs_f64();

    for run in &runs {
        println!("# {} — {}", run.record.name, run.record.description);
        for table in &run.result.tables {
            println!("{table}");
        }
        for headline in &run.record.headlines {
            println!(
                "# headline {} = {} {}",
                headline.metric, headline.value, headline.unit
            );
        }
        println!("# wall-clock: {:.2} s", run.record.wall_s);
        println!();
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("creating the --csv directory");
        for run in &runs {
            for (index, table) in run.result.tables.iter().enumerate() {
                let path = format!("{dir}/{}_{index}.csv", run.record.name);
                std::fs::write(&path, table.to_csv()).expect("writing the CSV file");
                eprintln!("# wrote {path}");
            }
        }
    }
    let serial_s: f64 = runs.iter().map(|r| r.record.wall_s).sum();
    eprintln!(
        "# suite wall-clock: {total_s:.2} s across {jobs} worker(s) \
         (sum of experiment times: {serial_s:.2} s)"
    );
    let oracle = etrain_bench::oracle_summary();
    eprintln!(
        "# oracle: mode {} — {} checks, {} violation(s)",
        oracle.mode, oracle.checks, oracle.violations
    );
    let obs = etrain_bench::obs_summary();
    eprintln!(
        "# obs: mode {} — {} event(s) recorded, {} journal merge(s), {} snapshot(s)",
        obs.mode, obs.events_recorded, obs.journals_merged, obs.snapshots_taken
    );

    if !no_json {
        std::fs::write(&json_path, etrain_bench::repro_report_json(&runs))
            .expect("writing the JSON report");
        eprintln!("# wrote {json_path}");
        if etrain_obs::ObsMode::from_env().is_enabled() {
            let jsonl = etrain_bench::experiments::explain::run_with_journal(quick).jsonl;
            std::fs::write("BENCH_explain.jsonl", jsonl).expect("writing the explain journal");
            eprintln!("# wrote BENCH_explain.jsonl");
        }
    }
    assert_eq!(
        oracle.violations, 0,
        "the simulation oracle found violated invariants"
    );
}
