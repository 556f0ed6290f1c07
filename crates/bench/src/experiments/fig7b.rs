//! Fig. 7(b): the E-D (energy–delay) panel for the piggyback bound
//! k ∈ {2, 4, 8, 16}.
//!
//! Paper result: larger k always dominates (same energy at lower delay, or
//! more saving at the same delay), with strongly diminishing returns past
//! k = 8 — which is why the deployed system uses k = ∞.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sim::sweep::{lin_space, theta_sweep};
use etrain_sim::Table;

use super::{j, paper_base, s};

/// Runs the Fig. 7(b) reproduction.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let base = paper_base(settings);
    let thetas = if settings.quick {
        lin_space(0.5, 3.0, 3)
    } else {
        lin_space(0.0, 3.0, 7)
    };
    let ks = [2usize, 4, 8, 16];

    let mut table = Table::new(
        "Fig. 7(b) — E-D panel per k (points traced by Θ)",
        &["k", "theta", "energy_j", "delay_s"],
    );
    for &k in &ks {
        for (theta, report) in theta_sweep(&base, &thetas, Some(k))? {
            table.push_row_strings(vec![
                k.to_string(),
                format!("{theta:.1}"),
                j(report.extra_energy_j),
                s(report.normalized_delay_s),
            ]);
        }
    }
    // The deployed configuration for reference.
    for (theta, report) in theta_sweep(&base, &thetas, None)? {
        table.push_row_strings(vec![
            "inf".to_owned(),
            format!("{theta:.1}"),
            j(report.extra_energy_j),
            s(report.normalized_delay_s),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "energy_kinf_max_theta",
        0,
        -1,
        "energy_j",
        "J",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interpolates each k's E-D curve at a common delay and checks that
    /// larger k never costs more energy there.
    #[test]
    fn larger_k_dominates_at_matched_delay() {
        let tables = run(Settings::quick()).unwrap().tables;
        let mut per_k: std::collections::BTreeMap<String, Vec<(f64, f64)>> = Default::default();
        for row in tables[0].to_csv().lines().skip(1) {
            let cells: Vec<&str> = row.split(',').collect();
            per_k.entry(cells[0].to_owned()).or_default().push((
                cells[3].parse().unwrap(), // delay
                cells[2].parse().unwrap(), // energy
            ));
        }
        let energy_near = |points: &[(f64, f64)], delay: f64| -> f64 {
            points
                .iter()
                .min_by(|a, b| (a.0 - delay).abs().total_cmp(&(b.0 - delay).abs()))
                .map(|p| p.1)
                .unwrap()
        };
        let probe = 40.0;
        let e2 = energy_near(&per_k["2"], probe);
        let e16 = energy_near(&per_k["16"], probe);
        assert!(
            e16 <= e2 * 1.1,
            "k=16 ({e16} J) should not lose badly to k=2 ({e2} J) near {probe} s"
        );
    }
}
