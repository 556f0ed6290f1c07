//! Runs every reproduction experiment concurrently across a worker pool
//! and prints the tables in paper (registry) order, then writes the
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
//! Any other argument, a valued flag with no value (given last, or
//! followed by another `--` flag), or a `--jobs` value that is not a
//! positive integer, prints the usage and exits with status 2. Nothing is
//! read from the environment: the flags are the whole input.
//!
//! Every paper-default scenario is audited by the simulation oracle in
//! `strict` mode: a violated invariant fails its experiment, and so does
//! a scenario that does not validate. One failed experiment stops no
//! other: the run prints the tables of every experiment that passed,
//! writes their records (and the explain journal, if `explain` passed),
//! names each failed experiment with its error on stderr (a strict-oracle
//! failure names the first violation), and exits with status 1.

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
    let flags = etrain_bench::check_flags(
        &args,
        &["--only", "--csv", "--jobs", "--json"],
        &["--quick", "--no-json", "--journal"],
    )
    .unwrap_or_else(|problem| usage_error(&problem));
    let jobs = flags
        .parse::<NonZeroUsize>("--jobs")
        .unwrap_or_else(|problem| usage_error(&problem))
        .map(NonZeroUsize::get);
    let quick = flags.has("--quick");
    let settings = etrain_bench::Settings {
        quick,
        obs: if flags.has("--journal") {
            ObsMode::Jsonl
        } else {
            ObsMode::Off
        },
    };
    let only = flags.value("--only");
    let no_json = flags.has("--no-json");
    // A partial run must never overwrite the full report.
    let write_report = !no_json && only.is_none();
    let csv_dir = flags.value("--csv");
    let json_path = flags.value("--json").unwrap_or("BENCH_repro.json");

    let registry = match only {
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

    let passed: Vec<(&etrain_bench::ReproRun, &etrain_bench::ExperimentResult)> = runs
        .iter()
        .filter_map(|run| Some((run, run.result.as_ref().ok()?)))
        .collect();
    for (run, result) in &passed {
        println!("# {} — {}", run.name, run.description);
        for table in &result.tables {
            println!("{table}");
        }
        for headline in &result.headlines {
            println!(
                "# headline {} = {} {}",
                headline.metric, headline.value, headline.unit
            );
        }
        println!("# wall-clock: {:.2} s", run.wall_s);
        println!();
    }
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).expect("creating the --csv directory");
        for (run, result) in &passed {
            for (index, table) in result.tables.iter().enumerate() {
                let path = format!("{dir}/{}_{index}.csv", run.name);
                std::fs::write(&path, table.to_csv()).expect("writing the CSV file");
                eprintln!("# wrote {path}");
            }
        }
    }
    let serial_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    eprintln!(
        "# suite wall-clock: {total_s:.2} s across {jobs} worker(s) \
         (sum of experiment times: {serial_s:.2} s)"
    );

    if write_report {
        let json = etrain_bench::repro_report_json(&runs).expect("report records serialize");
        std::fs::write(json_path, json).expect("writing the JSON report");
        eprintln!("# wrote {json_path}");
    }
    // `explain` kept the journal of its run when `--journal` asked for it.
    if let Some(journal) = passed
        .iter()
        .find_map(|(_, result)| result.journal.as_ref())
    {
        if !no_json {
            std::fs::write("BENCH_explain.jsonl", journal.to_jsonl())
                .expect("writing the explain journal");
            eprintln!("# wrote BENCH_explain.jsonl");
        }
    }

    let mut failed = 0;
    for run in &runs {
        if let Err(error) = &run.result {
            failed += 1;
            eprintln!("error: {} failed: {error}", run.name);
        }
    }
    if failed > 0 {
        eprintln!("# {failed} of {} experiment(s) failed", runs.len());
        std::process::exit(1);
    }
}
