//! Ablation: overload control and graceful degradation.
//!
//! The paper's workloads never stress the waiting queues; a deployed
//! scheduler facing heavy traffic must bound them. This ablation drives
//! the guarded eTrain scheduler far past the paper's arrival rate
//! (λ = 0.08 up to 16×) with a bounded backlog, and compares the three
//! shed policies against the unbounded control. The questions: how much
//! load does each policy shed before the queue bound, what does a forced
//! flush cost in energy, and does the deferral win survive overload?

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::{AdmissionConfig, HealthConfig, SchedulerKind, ShedPolicy, Table};

use super::{j, paper_base, pct, s};

/// The guarded scheduler with the paper's knobs and the given bounds.
fn guarded(admission: AdmissionConfig) -> SchedulerKind {
    SchedulerKind::Guarded {
        theta: 2.0,
        k: None,
        health: HealthConfig::default(),
        admission,
    }
}

fn policy_label(policy: Option<ShedPolicy>) -> String {
    match policy {
        None => "unbounded".to_owned(),
        Some(p) => p.to_string(),
    }
}

/// Runs the overload ablation.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let capacity = 32;
    let lambdas: &[f64] = if settings.quick {
        &[0.08, 0.64, 1.28]
    } else {
        &[0.08, 0.16, 0.32, 0.64, 1.28]
    };
    let policies: [Option<ShedPolicy>; 4] = [
        None,
        Some(ShedPolicy::RejectNew),
        Some(ShedPolicy::DropLowestValue),
        Some(ShedPolicy::ForceFlushOldest),
    ];

    let mut table = Table::new(
        "Ablation — overload (arrival rate × shed policy, global capacity 32, Θ = 2)",
        &[
            "lambda",
            "policy",
            "energy_j",
            "delay_s",
            "violations",
            "shed",
            "forced_flushes",
            "completed",
        ],
    );
    for &lambda in lambdas {
        for policy in policies {
            let admission = match policy {
                None => AdmissionConfig::unbounded(),
                Some(p) => AdmissionConfig::unbounded()
                    .with_global_capacity(capacity)
                    .with_policy(p),
            };
            let report = base
                .clone()
                .lambda(lambda)
                .scheduler(guarded(admission))
                .try_run()?;
            table.push_row_strings(vec![
                format!("{lambda:.2}"),
                policy_label(policy),
                j(report.extra_energy_j),
                s(report.normalized_delay_s),
                pct(report.deadline_violation_ratio),
                report.packets_shed.to_string(),
                report.forced_flushes.to_string(),
                report.packets_completed.to_string(),
            ]);
        }
    }

    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "overload_forced_flushes_max_lambda",
        0,
        -1,
        "forced_flushes",
        "count",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_sheds_only_when_bounded() {
        let tables = run(Settings::quick()).unwrap().tables;
        let csv = tables[0].to_csv();
        let rows: Vec<Vec<&str>> = csv
            .lines()
            .skip(1)
            .map(|r| r.split(',').collect())
            .collect();
        // The unbounded control never sheds or force-flushes.
        for row in rows.iter().filter(|r| r[1] == "unbounded") {
            assert_eq!(row[5], "0", "unbounded run shed: {row:?}");
            assert_eq!(row[6], "0", "unbounded run flushed: {row:?}");
        }
        // At the highest overload, reject-new and drop-lowest-value shed,
        // while force-flush-oldest converts pressure into early sends.
        let overloaded: Vec<_> = rows.iter().filter(|r| r[0] == "1.28").collect();
        for row in &overloaded {
            match row[1] {
                "reject-new" | "drop-lowest-value" => {
                    let shed: usize = row[5].parse().unwrap();
                    assert!(shed > 0, "overloaded run never shed: {row:?}");
                }
                "force-flush-oldest" => {
                    let flushes: usize = row[6].parse().unwrap();
                    assert!(flushes > 0, "overload never forced a flush: {row:?}");
                }
                _ => {}
            }
        }
    }
}
