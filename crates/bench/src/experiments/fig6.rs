//! Fig. 6: the delay-cost profile functions of the three cargo apps.
//!
//! f1 (Mail): 0 before the deadline, `d/deadline − 1` after.
//! f2 (Weibo): `d/deadline` before the deadline, constant 2 after.
//! f3 (Cloud): `d/deadline` before, `3·d/deadline − 2` after.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_sched::CostProfile;
use etrain_sim::Table;

/// Runs the Fig. 6 reproduction: the three profiles over d ∈ [0, 3D] in
/// units of the deadline.
pub fn run(_: Settings) -> Result<ExperimentResult, ExperimentError> {
    let deadline = 60.0;
    let f1 = CostProfile::mail(deadline);
    let f2 = CostProfile::weibo(deadline);
    let f3 = CostProfile::cloud(deadline);

    let mut table = Table::new(
        "Fig. 6 — delay cost profiles (deadline = 60 s)",
        &["d_over_deadline", "f1_mail", "f2_weibo", "f3_cloud"],
    );
    for step in 0..=12 {
        let d = deadline * step as f64 / 4.0; // 0, D/4, ..., 3D
        table.push_row_strings(vec![
            format!("{:.2}", d / deadline),
            format!("{:.3}", f1.cost(d)),
            format!("{:.3}", f2.cost(d)),
            format!("{:.3}", f3.cost(d)),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "f3_at_3x_deadline",
        0,
        -1,
        "f3_cloud",
        "cost",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_values_at_landmarks() {
        let tables = run(Settings::default()).unwrap().tables;
        let rows: Vec<Vec<f64>> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| r.split(',').map(|c| c.parse().unwrap()).collect())
            .collect();
        // At d = deadline (row 4): f1 = 0, f2 = 1, f3 = 1.
        assert_eq!(rows[4][1], 0.0);
        assert_eq!(rows[4][2], 1.0);
        assert_eq!(rows[4][3], 1.0);
        // At d = 2·deadline (row 8): f1 = 1, f2 = 2, f3 = 4.
        assert_eq!(rows[8][1], 1.0);
        assert_eq!(rows[8][2], 2.0);
        assert_eq!(rows[8][3], 4.0);
    }
}
