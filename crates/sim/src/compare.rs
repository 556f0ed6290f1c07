//! Side-by-side scheduler comparison on one scenario — the programmatic
//! form of the paper's Sec. VI-C "comparative analysis".

use crate::metrics::RunReport;
use crate::report::Table;
use crate::runner::RunGrid;
use crate::scenario::{Scenario, SchedulerKind};

/// The outcome of comparing several schedulers on the same inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One report per contender, in input order.
    pub reports: Vec<RunReport>,
}

impl Comparison {
    /// Runs every contender on `base` (same workload, heartbeats, channel
    /// and horizon — only the scheduler differs). Contenders run
    /// concurrently on the deterministic [`RunGrid`], sharing one trace
    /// synthesis; reports stay in input order.
    pub fn run(base: &Scenario, contenders: &[SchedulerKind]) -> Comparison {
        Comparison {
            reports: RunGrid::over_schedulers(base, contenders).run(),
        }
    }

    /// The report with the lowest radio energy.
    pub fn most_efficient(&self) -> Option<&RunReport> {
        self.reports
            .iter()
            .min_by(|a, b| a.extra_energy_j.total_cmp(&b.extra_energy_j))
    }

    /// The subset of reports on the (energy, violation-ratio) Pareto front
    /// — the paper's combined criterion: a report is dominated if another
    /// is at least as good on both axes and strictly better on one.
    pub fn pareto_front(&self) -> Vec<&RunReport> {
        self.reports
            .iter()
            .filter(|candidate| {
                !self.reports.iter().any(|other| {
                    let as_good = other.extra_energy_j <= candidate.extra_energy_j
                        && other.deadline_violation_ratio <= candidate.deadline_violation_ratio;
                    let strictly_better = other.extra_energy_j < candidate.extra_energy_j
                        || other.deadline_violation_ratio < candidate.deadline_violation_ratio;
                    as_good && strictly_better
                })
            })
            .collect()
    }

    /// Renders the comparison as a table (one row per contender).
    pub fn to_table(&self, title: impl Into<String>) -> Table {
        let mut table = Table::new(
            title,
            &[
                "algorithm",
                "energy_j",
                "tail_j",
                "delay_s",
                "violation_pct",
                "promotions",
            ],
        );
        for r in &self.reports {
            table.push_row_strings(vec![
                r.scheduler.clone(),
                format!("{:.1}", r.extra_energy_j),
                format!("{:.1}", r.tail_energy_j),
                format!("{:.1}", r.normalized_delay_s),
                format!("{:.1}", r.deadline_violation_ratio * 100.0),
                r.promotions.to_string(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contenders() -> Vec<SchedulerKind> {
        vec![
            SchedulerKind::Baseline,
            SchedulerKind::ETrain {
                theta: 2.0,
                k: None,
            },
            SchedulerKind::ETime { v_bytes: 20_000.0 },
        ]
    }

    fn comparison() -> Comparison {
        Comparison::run(
            &Scenario::paper_default().duration_secs(1200).seed(4),
            &contenders(),
        )
    }

    #[test]
    fn one_report_per_contender_in_order() {
        let c = comparison();
        let names: Vec<&str> = c.reports.iter().map(|r| r.scheduler.as_str()).collect();
        assert_eq!(names, vec!["Baseline", "eTrain", "eTime"]);
    }

    #[test]
    fn the_most_efficient_is_not_the_baseline() {
        let c = comparison();
        assert_ne!(c.most_efficient().unwrap().scheduler, "Baseline");
    }

    #[test]
    fn pareto_front_contains_the_extremes_and_drops_dominated() {
        let c = comparison();
        let front = c.pareto_front();
        assert!(!front.is_empty());
        // The most efficient report can never be dominated.
        let best = c.most_efficient().unwrap();
        assert!(front.iter().any(|r| r.scheduler == best.scheduler));
        // Every front member must not be dominated by any report.
        for member in &front {
            for other in &c.reports {
                let dominates = other.extra_energy_j < member.extra_energy_j
                    && other.deadline_violation_ratio <= member.deadline_violation_ratio;
                assert!(
                    !dominates,
                    "{} dominated by {}",
                    member.scheduler, other.scheduler
                );
            }
        }
    }

    #[test]
    fn table_has_all_rows() {
        let c = comparison();
        let table = c.to_table("cmp");
        assert_eq!(table.len(), 3);
        assert!(table.to_csv().contains("eTrain"));
    }

    #[test]
    fn empty_contender_list_is_fine() {
        let c = Comparison::run(&Scenario::paper_default().duration_secs(600), &[]);
        assert!(c.reports.is_empty());
        assert!(c.most_efficient().is_none());
        assert!(c.pareto_front().is_empty());
    }

    #[test]
    fn pareto_front_keeps_ties_and_drops_a_report_no_better_anywhere() {
        let template = comparison().reports.remove(0);
        let report = |name: &str, energy: f64, violation: f64| RunReport {
            scheduler: name.to_string(),
            extra_energy_j: energy,
            deadline_violation_ratio: violation,
            ..template.clone()
        };
        let c = Comparison {
            reports: vec![
                report("a", 10.0, 0.5),
                report("twin-of-a", 10.0, 0.5),
                report("b", 20.0, 0.1),
                // As good as `a` on violations, worse on energy.
                report("weak", 12.0, 0.5),
                // As good as `b` on energy, worse on violations.
                report("weaker", 20.0, 0.2),
            ],
        };
        let front: Vec<&str> = c
            .pareto_front()
            .iter()
            .map(|r| r.scheduler.as_str())
            .collect();
        assert_eq!(front, ["a", "twin-of-a", "b"]);
        // The first of equally efficient reports is the most efficient.
        assert_eq!(c.most_efficient().unwrap().scheduler, "a");
    }
}
