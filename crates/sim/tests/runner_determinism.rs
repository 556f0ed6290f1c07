//! The runner's core guarantee, checked end to end: a [`RunGrid`] executed
//! on a worker pool produces **bit-for-bit identical** reports to the
//! fully serial `jobs = 1` path — across every scheduler kind, with and
//! without fault injection, and independent of the worker count.

use etrain_sim::{replicate, FaultPlan, RunGrid, RunReport, RunSpec, Scenario, SchedulerKind};

fn all_kinds() -> [SchedulerKind; 4] {
    [
        SchedulerKind::Baseline,
        SchedulerKind::ETrain {
            theta: 0.2,
            k: Some(20),
        },
        SchedulerKind::PerEs { omega: 0.5 },
        SchedulerKind::ETime { v_bytes: 50_000.0 },
    ]
}

fn non_trivial_faults() -> FaultPlan {
    FaultPlan::seeded(42)
        .with_loss(0.25)
        .with_outage(200.0, 320.0)
        .with_train_death(400.0, 700.0)
}

/// A grid crossing all four schedulers with three seeds each.
fn full_grid(base: &Scenario) -> RunGrid {
    let mut grid = RunGrid::new();
    for kind in all_kinds() {
        for seed in [1u64, 2, 3] {
            grid.push(RunSpec::new(
                format!("{kind}/seed={seed}"),
                base.clone().scheduler(kind).seed(seed),
            ));
        }
    }
    grid
}

fn rebuild(base: &Scenario, jobs: usize) -> Vec<RunReport> {
    full_grid(base).jobs(jobs).try_run().unwrap()
}

#[test]
fn parallel_equals_serial_without_faults() {
    let base = Scenario::paper_default().duration_secs(900);
    let serial = rebuild(&base, 1);
    for jobs in [2, 4, 8] {
        assert_eq!(serial, rebuild(&base, jobs), "jobs={jobs} diverged");
    }
}

#[test]
fn parallel_equals_serial_with_non_trivial_faults() {
    let base = Scenario::paper_default()
        .duration_secs(900)
        .faults(non_trivial_faults());
    let serial = rebuild(&base, 1);
    for jobs in [2, 4, 8] {
        assert_eq!(
            serial,
            rebuild(&base, jobs),
            "jobs={jobs} diverged under faults"
        );
    }
}

#[test]
fn grid_matches_direct_scenario_runs() {
    // The grid (trace cache included) must reproduce what Scenario::run
    // computes on its own, job by job.
    let base = Scenario::paper_default()
        .duration_secs(900)
        .faults(non_trivial_faults());
    let grid = full_grid(&base).jobs(4);
    let reports = grid.try_run().unwrap();
    for (spec, report) in grid.specs().iter().zip(&reports) {
        assert_eq!(&spec.scenario.run(), report, "{} diverged", spec.label);
    }
}

#[test]
fn comparison_and_replication_are_worker_count_invariant() {
    // A scheduler comparison and a replication run on the default worker
    // count (machine dependent); their output must equal explicit serial
    // runs.
    let base = Scenario::paper_default().duration_secs(900).seed(6);
    let comparison = RunGrid::over_schedulers(&base, &all_kinds())
        .try_run()
        .unwrap();
    for (kind, report) in all_kinds().iter().zip(&comparison) {
        assert_eq!(&base.clone().scheduler(*kind).run(), report);
    }

    let replicated = replicate(&base, &[4, 5, 6]).unwrap();
    for (seed, report) in [4u64, 5, 6].iter().zip(&replicated.runs) {
        assert_eq!(&base.clone().seed(*seed).run(), report);
    }
}
