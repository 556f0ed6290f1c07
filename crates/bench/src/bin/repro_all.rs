//! Runs every reproduction experiment concurrently across a worker pool
//! and prints all tables in paper (registry) order, then writes the
//! machine-readable `BENCH_repro.json` with per-experiment wall-clock and
//! headline metrics.
//!
//! Flags:
//! - `--only NAME[,NAME...]` — run just the named experiments (see
//!   `etrain_bench::registry`); an unknown name exits with status 2. A
//!   partial run writes no JSON report;
//! - `--quick` — reduced horizons/sweeps for a CI-speed smoke run;
//! - `--csv DIR` — also write each table as `DIR/<experiment>_<index>.csv`
//!   for plotting;
//! - `--jobs N` — worker count, a positive integer (default: the
//!   machine's available parallelism);
//! - `--json PATH` — where to write the report (default
//!   `BENCH_repro.json`); `--no-json` skips it;
//! - `--journal` — journal every scenario the suite runs and, when
//!   `explain` ran (also under `--only`), export its raw journal as
//!   `BENCH_explain.jsonl` in the working directory, unless `--no-json`
//!   is given. The file holds only `explain`'s own deterministic run, so
//!   a partial run writes the same bytes as a full one. Observability
//!   never changes the numbers: headlines are bit-for-bit identical
//!   either way.
//!
//! Any other argument, or a `--jobs` value that is not a positive
//! integer, prints the usage and exits with status 2. Nothing is read
//! from the environment: the flags are the whole input.
//!
//! Every paper-default scenario is audited by the simulation oracle in
//! `strict` mode: a violated invariant fails its experiment, and the
//! run exits non-zero before it writes a report.

use std::num::NonZeroUsize;
use std::time::Instant;

use etrain_sim::ObsMode;

const USAGE: &str = "usage: repro_all [--only NAME[,NAME...]] [--quick] [--csv DIR] [--jobs N] \
     [--json PATH | --no-json] [--journal]";

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

/// Prints `problem` and the usage, and exits with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("error: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Err(problem) = etrain_bench::check_flags(
        &args,
        &["--only", "--csv", "--jobs", "--json"],
        &["--quick", "--no-json", "--journal"],
    ) {
        usage_error(&problem);
    }
    let jobs = etrain_bench::parse_flag::<NonZeroUsize>(&args, "--jobs")
        .unwrap_or_else(|problem| usage_error(&problem))
        .map(NonZeroUsize::get);
    let quick = args.iter().any(|a| a == "--quick");
    let settings = etrain_bench::Settings {
        quick,
        obs: if args.iter().any(|a| a == "--journal") {
            ObsMode::Jsonl
        } else {
            ObsMode::Off
        },
    };
    let only = etrain_bench::flag_value(&args, "--only");
    let no_json = args.iter().any(|a| a == "--no-json");
    // A partial run must never overwrite the full report.
    let write_report = !no_json && only.is_none();
    let csv_dir = etrain_bench::flag_value(&args, "--csv");
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
    let runs = etrain_bench::run_experiments(&registry, settings, Some(jobs));
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

    if write_report {
        std::fs::write(&json_path, etrain_bench::repro_report_json(&runs))
            .expect("writing the JSON report");
        eprintln!("# wrote {json_path}");
    }
    // `explain` kept the journal of its run when `--journal` asked for it.
    if let Some(journal) = runs.iter().find_map(|run| run.result.journal.as_ref()) {
        if !no_json {
            std::fs::write("BENCH_explain.jsonl", journal.to_jsonl())
                .expect("writing the explain journal");
            eprintln!("# wrote BENCH_explain.jsonl");
        }
    }
}
