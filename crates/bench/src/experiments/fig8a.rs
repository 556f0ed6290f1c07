//! Fig. 8(a): the E-D panel comparing eTrain, PerES, eTime and the
//! baseline at λ = 0.08.
//!
//! Paper result: eTrain's curve dominates — at any normalized delay it
//! spends the least energy; eTime sits between eTrain and PerES; the
//! baseline is a single point at zero delay and maximum energy.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::sweep::{ed_curve, log_space};
use etrain_sim::{SchedulerKind, Table};

use super::{j, paper_base, s};

/// Runs the Fig. 8(a) reproduction.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let n = if settings.quick { 3 } else { 8 };

    let mut table = Table::new(
        "Fig. 8(a) — E-D panel at λ = 0.08 (knob traces each curve)",
        &["algorithm", "knob", "energy_j", "delay_s"],
    );

    let baseline = base.clone().scheduler(SchedulerKind::Baseline).try_run()?;
    table.push_row_strings(vec![
        "Baseline".to_owned(),
        "-".to_owned(),
        j(baseline.extra_energy_j),
        s(baseline.normalized_delay_s),
    ]);

    for p in ed_curve(&base, &log_space(0.25, 12.0, n), |theta| {
        SchedulerKind::ETrain { theta, k: None }
    })? {
        table.push_row_strings(vec![
            "eTrain".to_owned(),
            format!("Θ={:.2}", p.knob),
            j(p.energy_j),
            s(p.delay_s),
        ]);
    }
    for p in ed_curve(&base, &log_space(0.02, 2.0, n), |omega| {
        SchedulerKind::PerEs { omega }
    })? {
        table.push_row_strings(vec![
            "PerES".to_owned(),
            format!("Ω={:.2}", p.knob),
            j(p.energy_j),
            s(p.delay_s),
        ]);
    }
    for p in ed_curve(&base, &log_space(5_000.0, 200_000.0, n), |v_bytes| {
        SchedulerKind::ETime { v_bytes }
    })? {
        table.push_row_strings(vec![
            "eTime".to_owned(),
            format!("V={:.0}B", p.knob),
            j(p.energy_j),
            s(p.delay_s),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "baseline_energy_j",
        0,
        0,
        "energy_j",
        "J",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(table: &Table, algo: &str) -> Vec<(f64, f64)> {
        table
            .to_csv()
            .lines()
            .skip(1)
            .filter(|r| r.starts_with(algo))
            .map(|r| {
                let cells: Vec<&str> = r.split(',').collect();
                (cells[3].parse().unwrap(), cells[2].parse().unwrap())
            })
            .collect()
    }

    fn near(points: &[(f64, f64)], probe: f64) -> f64 {
        points
            .iter()
            .min_by(|a, b| (a.0 - probe).abs().total_cmp(&(b.0 - probe).abs()))
            .map(|p| p.1)
            .unwrap()
    }

    #[test]
    fn etrain_beats_peres_and_baseline_quick() {
        // Quick-mode grids are too sparse for the full four-way ordering
        // (see the ignored full-fidelity test below), but eTrain must
        // already dominate PerES and the baseline.
        let tables = run(Settings::quick()).unwrap().tables;
        let t = &tables[0];
        let probe = 55.0;
        let etrain = near(&curve(t, "eTrain"), probe);
        let peres = near(&curve(t, "PerES"), probe);
        let baseline = curve(t, "Baseline")[0].1;
        assert!(
            etrain < peres && peres < baseline,
            "ordering violated: eTrain {etrain}, PerES {peres}, baseline {baseline}"
        );
    }

    /// Full-fidelity orderings at the 2-hour horizon. Slow in debug
    /// builds; run with `cargo test -p etrain-bench --release -- --ignored`.
    ///
    /// The reproduced panel confirms: eTrain < PerES < baseline and
    /// eTime < PerES at matched delay. eTrain vs eTime is the one place
    /// our curves deviate from the paper at the reference rate λ = 0.08 —
    /// see EXPERIMENTS.md for the quantified discussion (eTime wins a few
    /// percent of energy there but violates 5–7 % of deadlines where
    /// eTrain violates ≈ 1 %).
    #[test]
    #[ignore = "full-fidelity run; execute in release mode"]
    fn full_ordering_at_matched_delay() {
        let tables = run(Settings::default()).unwrap().tables;
        let t = &tables[0];
        let probe = 55.0;
        let etrain = near(&curve(t, "eTrain"), probe);
        let peres = near(&curve(t, "PerES"), probe);
        let etime = near(&curve(t, "eTime"), probe);
        let baseline = curve(t, "Baseline")[0].1;
        assert!(
            etrain < peres && peres < baseline && etime < peres,
            "ordering violated: eTrain {etrain}, eTime {etime}, PerES {peres}, baseline {baseline}"
        );
    }
}
