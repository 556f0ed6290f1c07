//! Ablation: robustness under channel faults.
//!
//! The paper evaluates eTrain on clean traces; real cellular channels
//! lose transfers mid-flight and go dark in coverage holes. This ablation
//! sweeps a per-transmission loss probability and a periodic-outage duty
//! cycle over both eTrain and the transmit-on-arrival baseline, reporting
//! the fault-era metrics (retries, wasted retry joules, abandonment) next
//! to the paper's energy/delay numbers. The interesting question: does
//! piggybacking stay ahead of the baseline when attempts can fail — i.e.
//! is the energy saving robust, or an artifact of a lossless channel?

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::{FaultPlan, RetryPolicy, Scenario, ScenarioError, SchedulerKind, Table};

use super::{j, paper_base, pct, s};

/// Periodic outage: `duty` fraction of every 600-second period is dark.
fn with_outage_duty(plan: FaultPlan, duty: f64, horizon_s: f64) -> FaultPlan {
    if duty <= 0.0 {
        return plan;
    }
    let period_s = 600.0;
    plan.with_periodic_outages(120.0, duty * period_s, period_s, horizon_s)
}

fn scheduler_name(kind: &SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Baseline => "baseline",
        SchedulerKind::ETrain { .. } => "etrain",
        _ => "other",
    }
}

/// Runs the fault ablation.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let horizon_s = if settings.quick { 2400.0 } else { 7200.0 };
    let losses: &[f64] = if settings.quick {
        &[0.0, 0.1, 0.3]
    } else {
        &[0.0, 0.05, 0.1, 0.2, 0.3]
    };
    let duties: &[f64] = if settings.quick {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.1, 0.2]
    };
    let schedulers = [
        SchedulerKind::ETrain {
            theta: 2.0,
            k: None,
        },
        SchedulerKind::Baseline,
    ];

    let mut table = Table::new(
        "Ablation — channel faults (loss × outage duty, Θ = 2, k = ∞)",
        &[
            "loss",
            "outage_duty",
            "scheduler",
            "energy_j",
            "delay_s",
            "violations",
            "retries",
            "wasted_retry_j",
            "abandoned",
        ],
    );
    for &loss in losses {
        for &duty in duties {
            for kind in &schedulers {
                let plan =
                    with_outage_duty(FaultPlan::seeded(0xFA_17).with_loss(loss), duty, horizon_s);
                let report = run_one(base.clone(), *kind, plan)?;
                table.push_row_strings(vec![
                    format!("{loss:.2}"),
                    format!("{duty:.2}"),
                    scheduler_name(kind).to_owned(),
                    j(report.extra_energy_j),
                    s(report.normalized_delay_s),
                    pct(report.deadline_violation_ratio),
                    report.retries.to_string(),
                    j(report.wasted_retry_energy_j),
                    pct(report.abandonment_ratio),
                ]);
            }
        }
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "worst_case_retries",
        0,
        -1,
        "retries",
        "count",
    ))
}

fn run_one(
    base: Scenario,
    kind: SchedulerKind,
    plan: FaultPlan,
) -> Result<etrain_sim::RunReport, ScenarioError> {
    base.scheduler(kind)
        .faults(plan)
        .retry_policy(RetryPolicy::default())
        .try_run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_cost_energy_and_trigger_retries() {
        let tables = run(Settings::quick()).unwrap().tables;
        let csv = tables[0].to_csv();
        let rows: Vec<Vec<&str>> = csv
            .lines()
            .skip(1)
            .map(|r| r.split(',').collect())
            .collect();
        // The lossless rows report zero retries and zero wasted joules.
        for row in rows.iter().filter(|r| r[0] == "0.00" && r[1] == "0.00") {
            assert_eq!(row[6], "0", "lossless run retried: {row:?}");
            assert_eq!(row[7], "0.0", "lossless run wasted energy: {row:?}");
        }
        // The highest loss rate produces retries and wasted energy for
        // both schedulers.
        for row in rows.iter().filter(|r| r[0] == "0.30" && r[1] == "0.00") {
            let retries: usize = row[6].parse().unwrap();
            let wasted: f64 = row[7].parse().unwrap();
            assert!(retries > 0, "lossy run never retried: {row:?}");
            assert!(wasted > 0.0, "lossy retries should burn energy: {row:?}");
        }
    }
}
