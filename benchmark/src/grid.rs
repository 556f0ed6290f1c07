//! `paper_grid` and `journal_grid`: grids of paper-default scenarios run
//! through `RunGrid` on 2 workers.
//!
//! Both sweep the same six schedulers over λ ∈ {0.04, 0.08, 0.12, 0.32}:
//! the paper's range plus an overload rate 4× its middle one, where the
//! decision path works on deep queues. `paper_grid` audits every run with
//! the oracle. `journal_grid` also journals every run as JSON Lines, the
//! path CI and `explain` use, so the per-run difference between the two is
//! the cost of observability.

use std::time::Instant;

use etrain_obs::{Journal, ObsMode};
use etrain_radio::RadioParams;
use etrain_sched::{RetryPolicy, Scheduler};
use etrain_sim::{
    oracle, OracleMode, RunGrid, RunReport, RunSpec, Scenario, SchedulerKind, TraceCache,
};
use etrain_trace::faults::FaultPlan;

use crate::calib::{self, Pairs};
use crate::ledger::{pool, Ledger};
use crate::timed::{self, EngineInputs, TimedScheduler};
use crate::{batch_seed, hash_bytes, Outcome, Params, MIN_WINDOWS, WORKERS};

const SCHEDULERS: [SchedulerKind; 6] = [
    SchedulerKind::Baseline,
    SchedulerKind::ETrain {
        theta: 0.2,
        k: None,
    },
    SchedulerKind::ETrain {
        theta: 2.0,
        k: None,
    },
    SchedulerKind::ETrain {
        theta: 20.0,
        k: Some(20),
    },
    SchedulerKind::PerEs { omega: 0.5 },
    SchedulerKind::ETime { v_bytes: 20_000.0 },
];

const LAMBDAS: [f64; 4] = [0.04, 0.08, 0.12, 0.32];

/// Runs per seed: every scheduler at every λ.
const RUNS_PER_SEED: usize = SCHEDULERS.len() * LAMBDAS.len();

/// Seeds per `paper_grid` batch; its trace cache holds 4 bundles per seed.
const PAPER_SEEDS: u64 = 32;
/// Seeds per `paper_grid` set-up warm-up.
const WARMUP_SEEDS: u64 = 8;
/// Set-ups per run.
const SETUPS: usize = 7;

/// `Scenario::paper_default`'s horizon, which the traced replica passes to
/// the engine itself along with the paper's radio, no faults and the
/// default retry policy. A change to any of them shows up as a replica
/// that no longer matches `RunGrid`.
const HORIZON_S: f64 = 7200.0;

fn specs(seeds: &[u64]) -> Vec<RunSpec> {
    let mut specs = Vec::with_capacity(seeds.len() * RUNS_PER_SEED);
    for &seed in seeds {
        for lambda in LAMBDAS {
            for kind in SCHEDULERS {
                specs.push(RunSpec::new(
                    format!("seed={seed} λ={lambda} {kind}"),
                    Scenario::paper_default()
                        .lambda(lambda)
                        .seed(seed)
                        .scheduler(kind),
                ));
            }
        }
    }
    specs
}

fn seeds(params: &Params, batch: u64, count: u64) -> Vec<u64> {
    (0..count)
        .map(|i| batch_seed(params.seed, batch.wrapping_mul(count).wrapping_add(i)))
        .collect()
}

/// What a grid batch produced: its reports and, for a journaled grid, the
/// hash of its JSON Lines (0 otherwise).
type Batch = (Vec<RunReport>, u64);

fn grid(specs: Vec<RunSpec>, journaled: bool, jobs: usize) -> RunGrid {
    let grid = RunGrid::from_specs(specs).jobs(jobs);
    let grid = if journaled {
        grid.obs(ObsMode::Jsonl)
    } else {
        grid
    };
    grid.oracle(OracleMode::Record)
}

/// Runs a grid; a journaled grid's JSON Lines are rendered, hashed and
/// dropped.
fn execute(grid: &RunGrid, journaled: bool) -> Result<Batch, String> {
    if journaled {
        let (reports, journal) = grid.try_run_journaled().map_err(|e| e.to_string())?;
        Ok((reports, hash_bytes(journal.to_jsonl().as_bytes())))
    } else {
        Ok((grid.try_run().map_err(|e| e.to_string())?, 0))
    }
}

/// Counts the runs whose oracle audit is missing or found violations.
fn audit(reports: &[RunReport], outcome: &mut Outcome) {
    for report in reports {
        match &report.oracle {
            Some(audit) if audit.is_clean() => {}
            Some(audit) => outcome.fail(1, format!("oracle violation: {}", audit.violations[0])),
            None => outcome.fail(1, "run was not audited".to_owned()),
        }
    }
}

/// Runs `paper_grid` (see the module docs).
pub fn run_paper(params: &Params) -> Outcome {
    run(params, false)
}

/// Runs `journal_grid` (see the module docs).
pub fn run_journal(params: &Params) -> Outcome {
    run(params, true)
}

fn run(params: &Params, journaled: bool) -> Outcome {
    let (per_batch, warm_seeds) = match (journaled, params.check) {
        (true, _) => (1, 1),
        (false, true) => (2, 1),
        (false, false) => (PAPER_SEEDS, WARMUP_SEEDS),
    };
    let mut outcome = Outcome::default();
    for setup in 0..params.setups(SETUPS) {
        let warm = grid(
            specs(&seeds(params, u64::MAX - setup as u64, warm_seeds)),
            journaled,
            WORKERS,
        );
        let (result, timing) = calib::timed(|| execute(&warm, journaled));
        std::hint::black_box(result.map(|(_, hash)| hash).unwrap_or(0));
        outcome.setups.push(timing);
    }
    let epoch = Instant::now();
    let mut ledger = Ledger::new(epoch);
    let mut pairs = Pairs::default();
    let mut batch = 0u64;
    while outcome.windows.len() < MIN_WINDOWS
        || outcome.timed_s() + pairs.traced_wall_s() < params.seconds
    {
        let grid = grid(specs(&seeds(params, batch, per_batch)), journaled, WORKERS);
        let runs = grid.len() as u64;
        let (result, timing) = calib::timed(|| execute(&grid, journaled));
        outcome.attempted += runs;
        let (reports, hash) = match result {
            Ok(done) => done,
            Err(error) => {
                outcome.fail(runs, format!("batch {batch}: {error}"));
                break;
            }
        };
        outcome.batch(runs, timing);
        audit(&reports, &mut outcome);
        if batch == 0 {
            // A journaled batch is one seed, so its hash is the first
            // seed's too.
            let first = RunGrid::from_specs(grid.specs()[..RUNS_PER_SEED].to_vec()).jobs(1);
            if execute(&first, journaled) != Ok((reports[..RUNS_PER_SEED].to_vec(), hash)) {
                outcome.fail(
                    RUNS_PER_SEED as u64,
                    "first seed's runs differ from their jobs(1) rerun".to_owned(),
                );
            }
        }
        if params.trace {
            let ((replayed, part), replica_timing) = calib::timed(|| {
                if journaled {
                    journal_replica(grid.specs(), epoch)
                } else {
                    paper_replica(grid.specs(), epoch)
                }
            });
            pairs.add(timing, replica_timing);
            if replayed != (reports, hash) {
                outcome.fail(
                    runs,
                    format!("traced replica of batch {batch} differs from RunGrid"),
                );
            }
            ledger.absorb(part);
        }
        batch += 1;
    }
    outcome.detail.push(("batches", batch as f64));
    outcome.detail.push((
        "runs_per_batch",
        (per_batch as usize * RUNS_PER_SEED) as f64,
    ));
    if params.trace {
        outcome.trace_overhead = pairs.overhead();
        outcome.ledger = Some(ledger);
    }
    outcome
}

/// `RunGrid::try_run` over `specs`, replayed call for call with each
/// layer's calls timed: trace synthesis through a fresh `TraceCache`, then
/// the same engine run, report and oracle audit `Scenario` performs.
fn paper_replica(specs: &[RunSpec], epoch: Instant) -> (Batch, Ledger) {
    let cache = TraceCache::new();
    let radio = RadioParams::galaxy_s4_3g();
    let faults = FaultPlan::none();
    let retry = RetryPolicy::default();
    let pooled = pool(specs.len(), WORKERS, epoch, |i, ledger| {
        let scenario = &specs[i].scenario;
        let traces = ledger.time("trace.generate", "run", || cache.get_or_generate(scenario));
        ledger.count("trace.cache.calls", 1);
        let profiles = scenario.profiles_ref();
        let mut scheduler = ledger.time("sched.build", "run", || {
            let mut scheduler =
                TimedScheduler::new(scenario.scheduler_kind().build(profiles.to_vec()));
            scheduler.set_reference_decisions(scenario.reference_cost_enabled());
            scheduler
        });
        let output = timed::engine_run(
            ledger,
            &mut scheduler,
            &EngineInputs {
                packets: &traces.packets,
                heartbeats: &traces.heartbeats,
                bandwidth: &traces.bandwidth,
                radio: &radio,
                horizon_s: HORIZON_S,
                faults: &faults,
                retry: &retry,
                kind: scenario.engine_kind(),
            },
        );
        let mut report = ledger.time("sim.report", "run", || {
            RunReport::from_engine(scheduler.name(), &output, profiles)
        });
        let audit = ledger.time("oracle.audit", "run", || {
            oracle::audit_run(
                &report,
                &output,
                &traces.packets,
                &traces.heartbeats,
                &faults,
                profiles,
                scenario.oracle_mode(),
            )
        });
        ledger.count("oracle.violations", audit.violations.len() as u64);
        report.oracle = Some(audit);
        // The timeline rebuild and power integration happen inside the
        // audit; timing them again on a sample shows their own cost.
        if i % 16 == 0 {
            let segments = ledger.side("radio.timeline", || {
                let timeline = output.timeline();
                std::hint::black_box((timeline.extra_energy_j(), timeline.time_in_states_s()));
                timeline.segments().len()
            });
            ledger.count("radio.timeline.segments", segments as u64);
        }
        report
    });
    let mut ledger = pooled.ledger;
    ledger.count("trace.cache.generated", cache.len() as u64);
    ((pooled.results, 0), ledger)
}

/// `RunGrid::try_run_journaled` plus the JSON Lines encoding, replayed
/// call for call with each call timed.
fn journal_replica(specs: &[RunSpec], epoch: Instant) -> (Batch, Ledger) {
    let cache = TraceCache::new();
    let pooled = pool(specs.len(), WORKERS, epoch, |i, ledger| {
        let scenario = &specs[i].scenario;
        let traces = ledger.time("trace.generate", "run", || cache.get_or_generate(scenario));
        ledger.count("trace.cache.calls", 1);
        let (report, _output, journal) = ledger
            .time("sim.run_journaled", "run", || {
                scenario.try_run_journaled_on(&traces)
            })
            .expect("paper-default scenarios are valid");
        (report, journal.unwrap_or_default())
    });
    let mut ledger = pooled.ledger;
    ledger.count("trace.cache.generated", cache.len() as u64);
    let (reports, journals): (Vec<RunReport>, Vec<Journal>) = pooled.results.into_iter().unzip();
    let events: u64 = journals.iter().map(|j| j.len() as u64).sum();
    let merged = ledger.serial("obs.merge", || Journal::merge(journals));
    let jsonl = ledger.serial("obs.encode", || merged.to_jsonl());
    ledger.count("obs.events", events);
    ledger.count("obs.jsonl_bytes", jsonl.len() as u64);
    ((reports, hash_bytes(jsonl.as_bytes())), ledger)
}
