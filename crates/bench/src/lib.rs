//! # etrain-bench — per-figure/table reproduction harness
//!
//! One experiment module per table and figure of the paper's evaluation,
//! each printing the same rows/series the paper reports. Every experiment
//! is a library function (so integration tests can smoke-run it) listed
//! in [`registry`], and the `repro_all` binary runs any subset of them:
//!
//! ```text
//! cargo run -p etrain-bench --release --bin repro_all -- --only fig7a
//! cargo run -p etrain-bench --release --bin repro_all -- --only fig7a,fig4 --quick
//! cargo run -p etrain-bench --release --bin repro_all      # everything
//! ```
//!
//! `--quick` shrinks horizons/sweeps for CI-speed smoke runs; the shapes
//! remain, the absolute numbers lose precision. That tier and the
//! observability mode reach every experiment as one [`Settings`] value:
//! no experiment reads the environment. The simulation oracle audits
//! every paper-default scenario strictly, so a violated invariant fails
//! its experiment with an [`ExperimentError`] naming the first violation
//! instead of reaching a table.
//!
//! Every experiment returns an [`ExperimentResult`]: the printable tables
//! plus the headline metrics that `repro_all` collects — concurrently,
//! across a worker pool — into the machine-readable `BENCH_repro.json`.
//! [`run_experiments`] returns each experiment's outcome, so one failing
//! experiment neither stops nor hides the others.
//!
//! The mapping from experiment name to paper artifact lives in
//! `DESIGN.md`; measured-vs-paper numbers are recorded in
//! `EXPERIMENTS.md`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod experiments;

use std::time::Instant;

use etrain_sim::{Journal, ObsMode, OracleMode, RunError, Scenario, ScenarioError, Table};
use serde::{Deserialize, Serialize};

/// What an experiment's `run` is told: the fidelity tier, and the
/// observability mode of the paper-default scenarios it builds.
/// `repro_all` runs every experiment under one value; experiments that
/// pin a mode of their own (`explain` journals, `robustness` runs the
/// chaos campaign, the fleet runs neither the oracle nor the journal)
/// keep it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Settings {
    /// Reduced horizons and sweeps for a CI-speed smoke run.
    pub quick: bool,
    /// The observability mode of every paper-default scenario.
    pub obs: ObsMode,
}

impl Settings {
    /// The quick tier, with journaling off.
    pub fn quick() -> Self {
        Settings {
            quick: true,
            ..Settings::default()
        }
    }

    /// [`Scenario::paper_default`] under the strict oracle and these
    /// settings' observability mode: a violated invariant fails the run
    /// with [`etrain_sim::ScenarioError::OracleViolation`].
    pub fn paper_default(self) -> Scenario {
        Scenario::paper_default()
            .oracle(OracleMode::Strict)
            .obs(self.obs)
    }
}

/// One headline metric of an experiment — the single number (per axis of
/// interest) a reader checks first, extracted for machine-readable
/// reproduction logs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Headline {
    /// What the number is (`hb_share_3_trains`, `toy_saving`, ...).
    pub metric: String,
    /// The value, unit-normalized (percent columns are parsed to their
    /// numeric percentage, `12.3% → 12.3`).
    pub value: f64,
    /// The unit the value is in (`J`, `s`, `%`, `count`, ...).
    pub unit: String,
}

/// The structured outcome of one experiment run: the printable tables and
/// the headline metrics distilled from them.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The tables, in print order.
    pub tables: Vec<Table>,
    /// Headline metrics, in declaration order.
    pub headlines: Vec<Headline>,
    /// The event journal behind the tables, kept when the settings ask
    /// for journaling: `explain` keeps its run's, which `repro_all
    /// --journal` writes as `BENCH_explain.jsonl`.
    pub journal: Option<Journal>,
}

impl ExperimentResult {
    /// Wraps already-built tables with no headlines (yet).
    pub fn from_tables(tables: Vec<Table>) -> Self {
        ExperimentResult {
            tables,
            headlines: Vec::new(),
            journal: None,
        }
    }

    /// Adds an explicit headline metric.
    pub fn headline(
        mut self,
        metric: impl Into<String>,
        value: f64,
        unit: impl Into<String>,
    ) -> Self {
        self.headlines.push(Headline {
            metric: metric.into(),
            value,
            unit: unit.into(),
        });
        self
    }

    /// Extracts a headline from a cell of an already-built table: data row
    /// `row` (negative indexes from the end) of the column named `column`
    /// in table `table`. Trailing `%`/`s` unit suffixes are stripped
    /// before parsing.
    ///
    /// A missing table/row/column skips the headline (experiments may
    /// legitimately produce fewer rows in quick mode); a cell that is
    /// present but not numeric panics — that is a wiring bug.
    ///
    /// # Panics
    ///
    /// Panics if the addressed cell exists but does not parse as a number.
    pub fn headline_cell(
        self,
        metric: &str,
        table: usize,
        row: isize,
        column: &str,
        unit: &str,
    ) -> Self {
        let Some(cell) = self.tables.get(table).and_then(|t| t.cell(row, column)) else {
            return self;
        };
        let value: f64 = cell
            .trim()
            .trim_end_matches(['%', 's'])
            .parse()
            .unwrap_or_else(|_| panic!("headline `{metric}`: cell `{cell}` is not numeric"));
        self.headline(metric, value, unit)
    }
}

/// Why an experiment produced no result.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// One of its scenarios failed validation or the strict oracle.
    Scenario(ScenarioError),
    /// A job of one of its grids (a sweep point, a seed, a scheduler)
    /// failed.
    Run(RunError),
    /// An input the experiment fixes itself broke an assumption the
    /// experiment builds on.
    Setup(String),
    /// The chaos campaign or the oracle self-test found a problem (the
    /// first one its verdict names).
    Chaos(String),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Scenario(error) => write!(f, "{error}"),
            ExperimentError::Run(error) => write!(f, "{error}"),
            ExperimentError::Setup(reason) => write!(f, "experiment setup: {reason}"),
            ExperimentError::Chaos(problem) => write!(f, "chaos: {problem}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Scenario(error) => Some(error),
            ExperimentError::Run(error) => Some(error),
            ExperimentError::Setup(_) | ExperimentError::Chaos(_) => None,
        }
    }
}

impl From<ScenarioError> for ExperimentError {
    fn from(error: ScenarioError) -> Self {
        ExperimentError::Scenario(error)
    }
}

impl From<RunError> for ExperimentError {
    fn from(error: RunError) -> Self {
        ExperimentError::Run(error)
    }
}

/// An experiment that reproduces one paper artifact.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Short name (`fig7a`, `table1`, ...), as `repro_all --only` takes it.
    pub name: &'static str,
    /// The paper artifact it reproduces.
    pub description: &'static str,
    /// Runs the experiment under the given settings.
    pub run: fn(Settings) -> Result<ExperimentResult, ExperimentError>,
}

/// All experiments in paper order, followed by the ablations.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig1a",
            description: "Fig. 1(a): 4-hour standby energy vs number of IM apps",
            run: experiments::fig1a::run,
        },
        Experiment {
            name: "fig1b",
            description: "Fig. 1(b): heartbeat size and timing of three IM apps",
            run: experiments::fig1b::run,
        },
        Experiment {
            name: "fig2",
            description: "Fig. 2: piggybacking toy example (five 5 KB e-mails)",
            run: experiments::fig2::run,
        },
        Experiment {
            name: "fig3",
            description: "Fig. 3: heartbeat cycles with data traffic; NetEase doubling",
            run: experiments::fig3::run,
        },
        Experiment {
            name: "table1",
            description: "Table 1: detected heartbeat cycles per app and device",
            run: experiments::table1::run,
        },
        Experiment {
            name: "fig4",
            description: "Fig. 4: instantaneous power across RRC states for one heartbeat",
            run: experiments::fig4::run,
        },
        Experiment {
            name: "fig6",
            description: "Fig. 6: delay-cost profile functions f1, f2, f3",
            run: experiments::fig6::run,
        },
        Experiment {
            name: "fig7a",
            description: "Fig. 7(a): impact of the cost bound Θ",
            run: experiments::fig7a::run,
        },
        Experiment {
            name: "fig7b",
            description: "Fig. 7(b): E-D panel for k = 2..16",
            run: experiments::fig7b::run,
        },
        Experiment {
            name: "fig8a",
            description: "Fig. 8(a): E-D panel, eTrain vs PerES vs eTime vs baseline",
            run: experiments::fig8a::run,
        },
        Experiment {
            name: "fig8b",
            description: "Fig. 8(b): energy vs arrival rate λ at matched delay",
            run: experiments::fig8b::run,
        },
        Experiment {
            name: "fig10a",
            description: "Fig. 10(a): controlled experiment, impact of train apps",
            run: experiments::fig10a::run,
        },
        Experiment {
            name: "fig10b",
            description: "Fig. 10(b): controlled experiment, impact of Θ",
            run: experiments::fig10b::run,
        },
        Experiment {
            name: "fig10c",
            description: "Fig. 10(c): controlled experiment, impact of the deadline",
            run: experiments::fig10c::run,
        },
        Experiment {
            name: "fig11",
            description: "Fig. 11: energy saving by user activeness",
            run: experiments::fig11::run,
        },
        Experiment {
            name: "ablate_k",
            description: "Ablation: finite k vs the paper's deployed k = infinity",
            run: experiments::ablate_k::run,
        },
        Experiment {
            name: "ablate_jitter",
            description: "Ablation: heartbeat jitter sensitivity",
            run: experiments::ablate_jitter::run,
        },
        Experiment {
            name: "ablate_prediction",
            description: "Ablation: oracle bandwidth for PerES/eTime",
            run: experiments::ablate_prediction::run,
        },
        Experiment {
            name: "ablate_radio",
            description: "Ablation: 3G long tails vs WiFi-like short tails",
            run: experiments::ablate_radio::run,
        },
        Experiment {
            name: "ablate_dormancy",
            description: "Ablation: eTrain vs fast dormancy (promotion cost)",
            run: experiments::ablate_dormancy::run,
        },
        Experiment {
            name: "ablate_faults",
            description:
                "Ablation: lossy channel and outages (retries, wasted joules, abandonment)",
            run: experiments::ablate_faults::run,
        },
        Experiment {
            name: "ablate_overload",
            description: "Ablation: overload control (arrival rate sweep across shed policies)",
            run: experiments::ablate_overload::run,
        },
        Experiment {
            name: "offline_gap",
            description: "Extension: online eTrain vs the Sec. III offline optimum",
            run: experiments::offline_gap::run,
        },
        Experiment {
            name: "capture_study",
            description: "Extension: Sec. II-B capture analysis (Wireshark methodology)",
            run: experiments::capture_study::run,
        },
        Experiment {
            name: "ext_day",
            description: "Extension: 24-hour diurnal battery projection (3G vs LTE DRX)",
            run: experiments::ext_day::run,
        },
        Experiment {
            name: "ext_grid",
            description: "Extension: energy-saving surface over the Theta x lambda grid",
            run: experiments::ext_grid::run,
        },
        Experiment {
            name: "ext_push_poll",
            description: "Extension: push-fetch over heartbeats vs polling",
            run: experiments::ext_push_poll::run,
        },
        Experiment {
            name: "explain",
            description: "Extension: journal-driven event-by-event energy ledger decomposition",
            run: experiments::explain::run,
        },
        Experiment {
            name: "robustness",
            description: "Robustness: chaos campaign and oracle self-test with shrinking",
            run: experiments::chaos::run,
        },
        Experiment {
            name: "fleet_savings",
            description:
                "Fleet: paired baseline/eTrain population savings and the million-user projection",
            run: experiments::fleet_savings::run,
        },
    ]
}

/// Looks up an experiment by name.
pub fn find(name: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.name == name)
}

/// Everything `repro_all` records about one passing experiment — the
/// machine-readable row of `BENCH_repro.json`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReproRecord {
    /// The experiment name.
    pub name: String,
    /// The paper artifact it reproduces.
    pub description: String,
    /// Whether the run was in quick (reduced-fidelity) mode.
    pub quick: bool,
    /// Wall-clock seconds the experiment took on its worker.
    pub wall_s: f64,
    /// Number of tables produced.
    pub tables: usize,
    /// The experiment's headline metrics.
    pub headlines: Vec<Headline>,
}

/// One experiment that [`run_experiments`] ran: which one, how long it
/// took, and its result or its error.
#[derive(Debug, Clone)]
pub struct ReproRun {
    /// The experiment name.
    pub name: &'static str,
    /// The paper artifact it reproduces.
    pub description: &'static str,
    /// Whether the run was in quick (reduced-fidelity) mode.
    pub quick: bool,
    /// Wall-clock seconds the experiment took on its worker.
    pub wall_s: f64,
    /// The tables and headlines, or why there are none.
    pub result: Result<ExperimentResult, ExperimentError>,
}

impl ReproRun {
    /// The report row of a passing run; `None` for a failed one.
    pub fn record(&self) -> Option<ReproRecord> {
        let result = self.result.as_ref().ok()?;
        Some(ReproRecord {
            name: self.name.to_owned(),
            description: self.description.to_owned(),
            quick: self.quick,
            wall_s: self.wall_s,
            tables: result.tables.len(),
            headlines: result.headlines.clone(),
        })
    }
}

/// A bench binary's arguments, checked by [`check_flags`]: the value of
/// each valued flag given, and each switch given.
#[derive(Debug, Default)]
pub struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// The value given after `flag`, if the flag is given (its first
    /// value, if it is given twice).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value.as_str())
    }

    /// The value given after `flag`, parsed as a `T`, if the flag is given.
    ///
    /// # Errors
    ///
    /// Names the flag, the value and why it does not parse.
    pub fn parse<T>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.value(flag)
            .map(|raw| {
                raw.parse()
                    .map_err(|error| format!("{flag} {raw:?}: {error}"))
            })
            .transpose()
    }

    /// Whether the switch `name` is given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|given| given == name)
    }
}

/// Checks a bench binary's `args` (program name first) against the flags
/// it knows, in one pass, so a typo or a retired flag aborts the run
/// instead of being silently ignored. Each of `valued` takes the argument
/// after it as its value; each of `switches` stands alone.
///
/// # Errors
///
/// Names the first argument that is neither, or a valued flag with no
/// value: given last, or followed by another `--` flag.
pub fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            match rest.next() {
                Some(value) if !value.starts_with("--") => {
                    flags.values.push((arg.clone(), value.clone()));
                }
                _ => return Err(format!("{arg} needs a value")),
            }
        } else if switches.contains(&arg.as_str()) {
            flags.switches.push(arg.clone());
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(flags)
}

/// Runs `experiments` on [`etrain_sim::run_pool`] and returns each one's
/// outcome **in input order**, regardless of which worker finished first:
/// a failing experiment neither stops nor hides the others. `jobs`
/// overrides the worker count; `None` uses the machine's available
/// parallelism ([`etrain_sim::resolve_workers`]). Experiment `run`
/// functions are deterministic, so the output is bit-for-bit identical to
/// a serial loop.
///
/// # Panics
///
/// Panics if an experiment panics (a wiring bug, such as a headline cell
/// that is not numeric); an error an experiment returns is its outcome.
pub fn run_experiments(
    experiments: &[Experiment],
    settings: Settings,
    jobs: Option<usize>,
) -> Vec<ReproRun> {
    etrain_sim::run_pool(
        experiments,
        etrain_sim::resolve_workers(jobs, experiments.len()),
        |experiment| run_timed(experiment, settings),
    )
}

fn run_timed(experiment: &Experiment, settings: Settings) -> ReproRun {
    let started = Instant::now();
    let result = (experiment.run)(settings);
    ReproRun {
        name: experiment.name,
        description: experiment.description,
        quick: settings.quick,
        wall_s: started.elapsed().as_secs_f64(),
        result,
    }
}

/// The body of `BENCH_repro.json`: one record per passing experiment in
/// registry order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReproReport {
    /// Per-experiment records.
    pub experiments: Vec<ReproRecord>,
}

/// Serializes the records of the passing runs as the pretty-printed JSON
/// body of `BENCH_repro.json`; failed runs have no record.
///
/// # Errors
///
/// Returns the serializer's error.
pub fn repro_report_json(runs: &[ReproRun]) -> Result<String, serde_json::Error> {
    let report = ReproReport {
        experiments: runs.iter().filter_map(ReproRun::record).collect(),
    };
    serde_json::to_string_pretty(&report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_table() -> Table {
        let mut t = Table::new("toy", &["knob", "energy_j", "saving"]);
        t.push_row(&["0.5", "812.5", "10.0%"]);
        t.push_row(&["2.0", "640.0", "21.2%"]);
        t
    }

    #[test]
    fn headline_cell_parses_units_and_signed_rows() {
        let result = ExperimentResult::from_tables(vec![toy_table()])
            .headline_cell("last_energy", 0, -1, "energy_j", "J")
            .headline_cell("first_saving", 0, 0, "saving", "%");
        assert_eq!(
            result.headlines,
            vec![
                Headline {
                    metric: "last_energy".into(),
                    value: 640.0,
                    unit: "J".into()
                },
                Headline {
                    metric: "first_saving".into(),
                    value: 10.0,
                    unit: "%".into()
                },
            ]
        );
    }

    #[test]
    fn headline_cell_skips_missing_cells() {
        let result = ExperimentResult::from_tables(vec![toy_table()])
            .headline_cell("gone", 0, 5, "energy_j", "J")
            .headline_cell("no_table", 3, 0, "energy_j", "J")
            .headline_cell("no_column", 0, 0, "missing", "J");
        assert!(result.headlines.is_empty());
    }

    #[test]
    #[should_panic(expected = "not numeric")]
    fn headline_cell_rejects_non_numeric_cells() {
        let mut t = Table::new("t", &["name"]);
        t.push_row(&["Baseline"]);
        let _ = ExperimentResult::from_tables(vec![t]).headline_cell("x", 0, 0, "name", "");
    }

    #[test]
    fn settings_reach_the_paper_default_scenarios() {
        // Whether a short run of the scenario returns a journal.
        let journals = |scenario: Scenario| {
            let scenario = scenario.duration_secs(60);
            let (_, _, journal) = scenario
                .try_run_journaled_on(&scenario.generate_traces())
                .unwrap();
            journal.is_some()
        };
        let off = Settings::quick().paper_default();
        assert_eq!(off.oracle_mode(), OracleMode::Strict);
        assert!(!journals(off));
        let settings = Settings {
            quick: true,
            obs: ObsMode::Jsonl,
        };
        for scenario in [settings.paper_default(), experiments::paper_base(settings)] {
            assert_eq!(scenario.oracle_mode(), OracleMode::Strict);
            assert!(journals(scenario));
        }
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let registry = registry();
        let mut names: Vec<&str> = registry.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry.len(), "duplicate experiment names");
        assert!(find("fig7a").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn registry_holds_only_the_30_deterministic_experiments() {
        let registry = registry();
        assert_eq!(registry.len(), 30);
        // Wall-clock time is measured by the repo benchmark, never by a
        // registry experiment, so no speedup, throughput or restart-timing
        // entry remains.
        for gone in [
            "engine_speedup",
            "hotpath_speedup",
            "fleet_throughput",
            "svc_recovery",
        ] {
            assert!(find(gone).is_none(), "{gone} is back in the registry");
        }
        assert_eq!(registry.last().map(|e| e.name), Some("fleet_savings"));
    }

    /// `line` split on whitespace, after a program name.
    fn args(line: &str) -> Vec<String> {
        std::iter::once("bench")
            .chain(line.split_whitespace())
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn flag_value_returns_the_argument_after_the_flag() {
        let flags = check_flags(
            &args("--only fig2,fig4 --quick --csv out --only fig6"),
            &["--only", "--csv", "--json"],
            &["--quick", "--journal"],
        )
        .unwrap();
        assert_eq!(flags.value("--only"), Some("fig2,fig4"), "the first wins");
        assert_eq!(flags.value("--csv"), Some("out"));
        assert_eq!(flags.value("--json"), None);
        assert!(flags.has("--quick"));
        assert!(!flags.has("--journal"));
    }

    #[test]
    fn check_flags_rejects_unknown_and_valueless_flags() {
        let check =
            |line: &str| check_flags(&args(line), &["--seeds", "--out"], &["--quick"]).map(|_| ());
        assert_eq!(check(""), Ok(()));
        assert_eq!(check("--seeds 100 --quick --out dir"), Ok(()));
        assert_eq!(check("--out -"), Ok(()));
        assert_eq!(
            check("--seeds 100 --self-test"),
            Err("unknown argument \"--self-test\"".to_string())
        );
        assert_eq!(
            check("--sedds 24"),
            Err("unknown argument \"--sedds\"".to_string())
        );
        assert_eq!(
            check("--quick 24"),
            Err("unknown argument \"24\"".to_string())
        );
        assert_eq!(
            check("--quick --seeds"),
            Err("--seeds needs a value".to_string())
        );
    }

    #[test]
    fn check_flags_rejects_a_flag_in_place_of_a_value() {
        let check = |line: &str| {
            check_flags(
                &args(line),
                &["--only", "--csv", "--json"],
                &["--quick", "--no-json"],
            )
            .map(|_| ())
        };
        for (line, flag) in [
            ("--json --only", "--json"),
            ("--csv --json out.json", "--csv"),
            ("--only --quick", "--only"),
            ("--only fig2 --csv --no-json", "--csv"),
        ] {
            assert_eq!(check(line), Err(format!("{flag} needs a value")), "{line}");
        }
    }

    #[test]
    fn parse_flag_names_the_flag_and_value_it_cannot_parse() {
        let flags = check_flags(
            &args("--seeds abc --jobs 0 --start-seed 7"),
            &["--seeds", "--jobs", "--start-seed"],
            &["--quick"],
        )
        .unwrap();
        assert_eq!(flags.parse::<u64>("--start-seed"), Ok(Some(7)));
        assert_eq!(flags.parse::<u64>("--quick"), Ok(None));
        let seeds = flags.parse::<u64>("--seeds").unwrap_err();
        assert!(seeds.starts_with("--seeds \"abc\": "), "{seeds}");
        let jobs = flags.parse::<std::num::NonZeroUsize>("--jobs").unwrap_err();
        assert!(jobs.starts_with("--jobs \"0\": "), "{jobs}");
    }

    #[test]
    fn json_report_has_one_record_per_run() {
        let cheap = [
            find("fig2").expect("registered"),
            find("fig6").expect("registered"),
        ];
        let runs = run_experiments(&cheap, Settings::quick(), Some(1));
        let json = repro_report_json(&runs).unwrap();
        // One top-level key and nothing else: the report carries no
        // tallies, trajectory or timing baseline beside the per-run
        // `wall_s`.
        assert!(json.starts_with("{\n  \"experiments\": ["), "{json}");
        assert_eq!(json.matches("\n  \"").count(), 1, "{json}");
        assert!(!json.contains("trajectory"));
        let fig2 = json.find("\"fig2\"").expect("fig2 record");
        let fig6 = json.find("\"fig6\"").expect("fig6 record");
        assert!(fig2 < fig6);
        assert_eq!(json.matches("\"wall_s\"").count(), 2);
    }

    #[test]
    fn concurrent_runs_preserve_registry_order_and_match_serial() {
        // Three cheap, pure-model experiments exercise the pool without
        // simulating hours of radio time.
        let cheap: Vec<Experiment> = ["fig2", "fig4", "fig6"]
            .iter()
            .map(|name| find(name).expect("registered"))
            .collect();
        let serial = run_experiments(&cheap, Settings::quick(), Some(1));
        let parallel = run_experiments(&cheap, Settings::quick(), Some(3));
        let names: Vec<&str> = parallel.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["fig2", "fig4", "fig6"]);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.result, b.result, "{} diverged", a.name);
            assert!(b.wall_s >= 0.0);
            assert!(b.quick);
            let record = b.record().expect("a passing run has a record");
            assert_eq!(Ok(record.tables), b.result.as_ref().map(|r| r.tables.len()));
        }
    }

    #[test]
    fn json_report_carries_names_and_headlines() {
        let cheap = [find("fig6").expect("registered")];
        let runs = run_experiments(&cheap, Settings::quick(), Some(1));
        let json = repro_report_json(&runs).unwrap();
        assert!(json.contains("\"fig6\""));
        assert!(json.contains("wall_s"));
        assert!(json.contains("f3_at_3x_deadline"));
    }

    #[test]
    fn a_failing_experiment_is_named_and_the_passing_records_are_kept() {
        let no_horizon = Experiment {
            name: "no_horizon",
            description: "a paper-default scenario with a zero horizon",
            run: |settings| {
                let report = settings.paper_default().duration_secs(0).try_run()?;
                Ok(ExperimentResult::from_tables(Vec::new()).headline(
                    "energy_j",
                    report.extra_energy_j,
                    "J",
                ))
            },
        };
        let experiments = [find("fig6").expect("registered"), no_horizon];
        for jobs in [1, 2] {
            let runs = run_experiments(&experiments, Settings::quick(), Some(jobs));
            let names: Vec<&str> = runs.iter().map(|r| r.name).collect();
            assert_eq!(names, ["fig6", "no_horizon"], "jobs={jobs}");
            assert!(runs[0].result.is_ok(), "jobs={jobs}");
            let error = runs[1].result.as_ref().unwrap_err();
            assert!(
                matches!(
                    error,
                    ExperimentError::Scenario(ScenarioError::InvalidDuration { .. })
                ),
                "jobs={jobs}: {error:?}"
            );
            assert!(error.to_string().contains("duration"), "{error}");
            assert_eq!(runs[1].record(), None, "jobs={jobs}");
            let json = repro_report_json(&runs).unwrap();
            assert!(json.contains("\"fig6\""), "{json}");
            assert!(!json.contains("no_horizon"), "{json}");
        }
    }
}
