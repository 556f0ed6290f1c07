//! `etrain` — command-line interface to the reproduction.
//!
//! ```text
//! etrain simulate   [--duration 7200] [--scheduler etrain|baseline|peres|etime]
//!                   [--theta 2.0] [--k inf|N] [--omega 0.5] [--v-bytes 20000]
//!                   [--lambda 0.08] [--deadline SECS] [--seed 7] [--json]
//! etrain sweep-theta [--from 0] [--to 3] [--steps 16] [--k inf|N] [--duration 7200]
//! etrain gen-traces  [--out DIR] [--duration 7200] [--seed 7]
//! etrain replay-user [--category active|moderate|inactive] [--theta 20] [--seed 42]
//! etrain compare     [--duration 7200] [--lambda 0.08] [--seed 7]
//! ```
//!
//! The per-figure reproductions live in the `etrain-bench` crate
//! (`cargo run -p etrain-bench --bin repro_all -- --only fig7a`).

use std::collections::BTreeMap;
use std::process::ExitCode;

use etrain::apps::{replay, CargoAppModel};
use etrain::core::CoreConfig;
use etrain::sim::sweep::{lin_space, theta_sweep};
use etrain::sim::{Comparison, Scenario, SchedulerKind, Table};
use etrain::trace::heartbeats::{synthesize, TrainAppSpec};
use etrain::trace::user::{generate_app_use, Activeness};
use etrain::trace::{bandwidth, io, packets};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  etrain simulate    [--duration S] [--scheduler NAME] [--theta F] [--k inf|N]
                     [--omega F] [--v-bytes F] [--lambda F] [--deadline S]
                     [--seed N] [--json]
  etrain sweep-theta [--from F] [--to F] [--steps N] [--k inf|N] [--duration S]
  etrain gen-traces  [--out DIR] [--duration S] [--seed N]
  etrain replay-user [--category NAME] [--theta F] [--seed N]
  etrain compare     [--duration S] [--lambda F] [--theta F] [--omega F]
                     [--v-bytes F] [--seed N]";

/// Parsed `--key value` flags following the subcommand.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {raw:?}")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

/// Splits `args` into flag pairs and boolean switches.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    const SWITCHES: &[&str] = &["json"];
    let mut flags = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {arg:?}"))?;
        if SWITCHES.contains(&key) {
            flags.switches.push(key.to_owned());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            flags.values.insert(key.to_owned(), value.clone());
            i += 2;
        }
    }
    Ok(flags)
}

fn parse_k(flags: &Flags) -> Result<Option<usize>, String> {
    match flags.get("k") {
        None | Some("inf") => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value for --k: {raw:?}")),
    }
}

fn parse_scheduler(flags: &Flags) -> Result<SchedulerKind, String> {
    let name = flags.get("scheduler").unwrap_or("etrain");
    match name {
        "baseline" => Ok(SchedulerKind::Baseline),
        "etrain" => Ok(SchedulerKind::ETrain {
            theta: flags.parse("theta", 2.0)?,
            k: parse_k(flags)?,
        }),
        "peres" => Ok(SchedulerKind::PerEs {
            omega: flags.parse("omega", 0.5)?,
        }),
        "etime" => Ok(SchedulerKind::ETime {
            v_bytes: flags.parse("v-bytes", 20_000.0)?,
        }),
        other => Err(format!(
            "unknown scheduler {other:?} (expected baseline|etrain|peres|etime)"
        )),
    }
}

fn scenario_from(flags: &Flags) -> Result<Scenario, String> {
    let mut scenario = Scenario::paper_default()
        .duration_secs(flags.parse("duration", 7200u64)?)
        .lambda(flags.parse("lambda", 0.08)?)
        .seed(flags.parse("seed", 7u64)?);
    if let Some(deadline) = flags.get("deadline") {
        let deadline: f64 = deadline
            .parse()
            .map_err(|_| format!("invalid value for --deadline: {deadline:?}"))?;
        scenario = scenario.shared_deadline(deadline);
    }
    Ok(scenario)
}

fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| "missing subcommand".to_owned())?;
    let flags = parse_flags(rest)?;
    match command.as_str() {
        "simulate" => cmd_simulate(&flags),
        "sweep-theta" => cmd_sweep_theta(&flags),
        "gen-traces" => cmd_gen_traces(&flags),
        "replay-user" => cmd_replay_user(&flags),
        "compare" => cmd_compare(&flags),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let scenario = scenario_from(flags)?.scheduler(parse_scheduler(flags)?);
    let report = scenario.run();
    if flags.has("json") {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("serializing report: {e}"))?;
        println!("{json}");
        return Ok(());
    }
    let mut table = Table::new(
        format!("{} — {} s simulated", report.scheduler, report.horizon_s),
        &["metric", "value"],
    );
    table.push_row_strings(vec![
        "radio energy (J)".into(),
        format!("{:.1}", report.extra_energy_j),
    ]);
    table.push_row_strings(vec![
        "  transmitting (J)".into(),
        format!("{:.1}", report.transmission_energy_j),
    ]);
    table.push_row_strings(vec![
        "  tails (J)".into(),
        format!("{:.1}", report.tail_energy_j),
    ]);
    table.push_row_strings(vec![
        "heartbeats".into(),
        report.heartbeats_sent.to_string(),
    ]);
    table.push_row_strings(vec![
        "packets completed".into(),
        report.packets_completed.to_string(),
    ]);
    table.push_row_strings(vec![
        "packets unfinished".into(),
        report.packets_unfinished.to_string(),
    ]);
    table.push_row_strings(vec![
        "normalized delay (s)".into(),
        format!("{:.1}", report.normalized_delay_s),
    ]);
    table.push_row_strings(vec![
        "deadline violations".into(),
        format!("{:.1}%", report.deadline_violation_ratio * 100.0),
    ]);
    table.push_row_strings(vec![
        "radio promotions".into(),
        report.promotions.to_string(),
    ]);
    println!("{table}");
    Ok(())
}

fn cmd_sweep_theta(flags: &Flags) -> Result<(), String> {
    let from: f64 = flags.parse("from", 0.0)?;
    let to: f64 = flags.parse("to", 3.0)?;
    let steps: usize = flags.parse("steps", 16usize)?;
    if steps < 2 {
        return Err("--steps must be at least 2".to_owned());
    }
    if from > to {
        return Err("--from must not exceed --to".to_owned());
    }
    let base = scenario_from(flags)?;
    let k = parse_k(flags)?;
    let mut table = Table::new(
        "Θ sweep",
        &["theta", "energy_j", "delay_s", "violation_pct"],
    );
    for (theta, report) in theta_sweep(&base, &lin_space(from, to, steps), k) {
        table.push_row_strings(vec![
            format!("{theta:.2}"),
            format!("{:.1}", report.extra_energy_j),
            format!("{:.1}", report.normalized_delay_s),
            format!("{:.1}", report.deadline_violation_ratio * 100.0),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn cmd_gen_traces(flags: &Flags) -> Result<(), String> {
    let out = flags.get("out").unwrap_or("traces").to_owned();
    let duration: f64 = flags.parse("duration", 7200.0)?;
    let seed: u64 = flags.parse("seed", 7u64)?;
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {out}: {e}"))?;

    let write = |name: &str, body: &dyn Fn(&mut Vec<u8>) -> Result<(), io::TraceIoError>| {
        let mut buf = Vec::new();
        body(&mut buf).map_err(|e| format!("{name}: {e}"))?;
        let path = format!("{out}/{name}");
        std::fs::write(&path, buf).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
        Ok::<(), String>(())
    };

    let bw = bandwidth::wuhan_drive_synthetic(seed);
    write("bandwidth.csv", &|w| io::write_bandwidth_csv(&bw, w))?;
    let pkts = packets::CargoWorkload::paper_default(0.08).generate(duration, seed);
    write("packets.csv", &|w| io::write_packets_csv(&pkts, w))?;

    // Describe what was generated, like a measurement study would.
    let ps = etrain::trace::summary::summarize_packets(&pkts);
    println!(
        "  packets: {} ({} B total, {:.3} pkt/s, sizes p10/p50/p90 = {}/{}/{} B)",
        ps.count,
        ps.total_bytes,
        ps.rate_pps,
        ps.size_percentiles[0],
        ps.size_percentiles[1],
        ps.size_percentiles[2],
    );
    let bs = etrain::trace::summary::summarize_bandwidth(&bw);
    println!(
        "  bandwidth: mean {:.0} kbps, p10/p50/p90 = {:.0}/{:.0}/{:.0} kbps, CV {:.2}",
        bs.mean_bps / 1000.0,
        bs.percentiles_bps[0] / 1000.0,
        bs.percentiles_bps[1] / 1000.0,
        bs.percentiles_bps[2] / 1000.0,
        bs.coefficient_of_variation,
    );
    let beats = synthesize(&TrainAppSpec::paper_trio(), duration, seed);
    write("heartbeats.csv", &|w| io::write_heartbeats_csv(&beats, w))?;
    let users: Vec<_> = etrain::trace::user::generate_cohort(5, seed)
        .into_iter()
        .flat_map(|t| t.records)
        .collect();
    write("users.csv", &|w| io::write_user_csv(&users, w))?;
    Ok(())
}

fn cmd_replay_user(flags: &Flags) -> Result<(), String> {
    let category = match flags.get("category").unwrap_or("active") {
        "active" => Activeness::Active,
        "moderate" => Activeness::Moderate,
        "inactive" => Activeness::Inactive,
        other => return Err(format!("unknown category {other:?}")),
    };
    let seed: u64 = flags.parse("seed", 42u64)?;
    let theta: f64 = flags.parse("theta", 20.0)?;
    let trace = generate_app_use(0, category, seed).normalized_to(600.0);
    let outcome = replay::replay_through_core(
        &trace,
        &CargoAppModel::weibo().with_deadline(30.0),
        &TrainAppSpec::paper_trio(),
        CoreConfig {
            theta,
            k: Some(20),
            slot_s: 1.0,
            startup_grace_s: 600.0,
            ..CoreConfig::default()
        },
    );
    let mut table = Table::new(
        format!("{category} user, 10-minute app use (Θ = {theta})"),
        &["metric", "value"],
    );
    table.push_row_strings(vec!["uploads".into(), outcome.decisions.len().to_string()]);
    table.push_row_strings(vec!["undelivered".into(), outcome.undelivered.to_string()]);
    table.push_row_strings(vec![
        "piggybacked".into(),
        format!("{:.1}%", outcome.piggyback_ratio * 100.0),
    ]);
    table.push_row_strings(vec![
        "mean delay (s)".into(),
        format!("{:.1}", outcome.mean_delay_s),
    ]);
    table.push_row_strings(vec!["heartbeats".into(), outcome.heartbeats.to_string()]);
    println!("{table}");
    Ok(())
}

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    let base = scenario_from(flags)?;
    let contenders = vec![
        SchedulerKind::Baseline,
        SchedulerKind::ETrain {
            theta: flags.parse("theta", 2.0)?,
            k: parse_k(flags)?,
        },
        SchedulerKind::PerEs {
            omega: flags.parse("omega", 0.5)?,
        },
        SchedulerKind::ETime {
            v_bytes: flags.parse("v-bytes", 20_000.0)?,
        },
    ];
    let comparison = Comparison::run(&base, &contenders);
    println!(
        "{}",
        comparison.to_table("scheduler comparison (same workload/channel)")
    );
    if let Some(best) = comparison.most_efficient() {
        println!(
            "most efficient: {} ({:.1} J)",
            best.scheduler, best.extra_energy_j
        );
    }
    let front: Vec<String> = comparison
        .pareto_front()
        .iter()
        .map(|r| r.scheduler.clone())
        .collect();
    println!("(energy, violation) Pareto front: {}", front.join(", "));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let flags = parse_flags(&args(&["--theta", "1.5", "--json", "--seed", "9"])).unwrap();
        assert_eq!(flags.get("theta"), Some("1.5"));
        assert_eq!(flags.parse("seed", 0u64).unwrap(), 9);
        assert!(flags.has("json"));
        assert!(!flags.has("csv"));
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse_flags(&args(&["--theta"])).unwrap_err();
        assert!(err.contains("needs a value"));
    }

    #[test]
    fn non_flag_is_an_error() {
        let err = parse_flags(&args(&["theta", "1.5"])).unwrap_err();
        assert!(err.contains("expected a --flag"));
    }

    #[test]
    fn k_parses_inf_and_numbers() {
        let flags = parse_flags(&args(&["--k", "inf"])).unwrap();
        assert_eq!(parse_k(&flags).unwrap(), None);
        let flags = parse_flags(&args(&["--k", "8"])).unwrap();
        assert_eq!(parse_k(&flags).unwrap(), Some(8));
        let flags = parse_flags(&args(&["--k", "soon"])).unwrap();
        assert!(parse_k(&flags).is_err());
    }

    #[test]
    fn scheduler_selection() {
        let flags = parse_flags(&args(&["--scheduler", "etime", "--v-bytes", "9000"])).unwrap();
        assert_eq!(
            parse_scheduler(&flags).unwrap(),
            SchedulerKind::ETime { v_bytes: 9000.0 }
        );
        let flags = parse_flags(&args(&["--scheduler", "warp"])).unwrap();
        assert!(parse_scheduler(&flags).is_err());
    }

    #[test]
    fn unknown_subcommand_is_reported() {
        let err = run(&args(&["fly"])).unwrap_err();
        assert!(err.contains("unknown subcommand"));
    }

    #[test]
    fn simulate_smoke() {
        run(&args(&[
            "simulate",
            "--duration",
            "600",
            "--scheduler",
            "baseline",
            "--seed",
            "1",
        ]))
        .expect("simulate runs");
    }

    #[test]
    fn compare_smoke() {
        run(&args(&["compare", "--duration", "600", "--seed", "2"])).expect("compare runs");
    }

    #[test]
    fn replay_user_smoke() {
        run(&args(&[
            "replay-user",
            "--category",
            "inactive",
            "--seed",
            "3",
        ]))
        .expect("replay runs");
    }
}
