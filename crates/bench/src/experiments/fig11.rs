//! Fig. 11: energy saved by user activeness.
//!
//! Paper methodology: 10-minute Luna Weibo app-use traces, categorized as
//! active (>20 uploads per use), moderate (10–20) and inactive (<10), are
//! replayed with and without eTrain (Θ = 0.2, k = 20, Weibo deadline 30 s,
//! 3 train apps). Paper results: eTrain saves 227.9 J (23.1 %) for active
//! users, 134.5 J (19.4 %) for moderate, 63.2 J (13.3 %) for inactive —
//! more uploads mean more cargo to piggyback.

use crate::{ExperimentError, ExperimentResult, Settings};
use etrain_apps::replay::to_packets;
use etrain_sched::{AppProfile, CostProfile};
use etrain_sim::{BandwidthSource, SchedulerKind, Table};
use etrain_trace::user::{generate_app_use, Activeness};
use etrain_trace::CargoAppId;

use super::{j, pct};

/// Runs the Fig. 11 reproduction.
pub fn run(settings: Settings) -> Result<ExperimentResult, ExperimentError> {
    let users_per_category = if settings.quick { 3 } else { 10 };
    // The paper states "Θ = k = 20 (maximum number of packets allowed to
    // piggyback); and the deadline for Weibo is 30 seconds" — we take
    // Θ = 20 and k = 20 literally. With the tight 30 s deadline this is a
    // deep-batching operating point: the cost gate stays open across
    // consecutive slots, so leaks drain in bursts that share one tail.
    let theta = 20.0;
    let profiles = vec![AppProfile::new("Weibo", CostProfile::weibo(30.0))];

    let mut table = Table::new(
        "Fig. 11 — energy saved by user activeness (10-minute app uses)",
        &[
            "category",
            "users",
            "uploads_avg",
            "without_etrain_j",
            "with_etrain_j",
            "saved_j",
            "saved",
        ],
    );
    for category in Activeness::all() {
        let mut base_total = 0.0;
        let mut etrain_total = 0.0;
        let mut uploads = 0usize;
        for user in 0..users_per_category {
            let trace = generate_app_use(user, category, 42).normalized_to(600.0);
            uploads += trace.upload_count();
            let packets = to_packets(&trace, CargoAppId(0));
            let scenario = settings
                .paper_default()
                .duration_secs(600)
                .profiles(profiles.clone())
                .packets(packets)
                .bandwidth(BandwidthSource::Constant(450_000.0))
                .seed(u64::from(user));
            base_total += scenario
                .clone()
                .scheduler(SchedulerKind::Baseline)
                .try_run()?
                .extra_energy_j;
            etrain_total += scenario
                .scheduler(SchedulerKind::ETrain { theta, k: Some(20) })
                .try_run()?
                .extra_energy_j;
        }
        let n = f64::from(users_per_category);
        table.push_row_strings(vec![
            category.to_string(),
            users_per_category.to_string(),
            format!("{:.1}", uploads as f64 / n),
            j(base_total / n),
            j(etrain_total / n),
            j((base_total - etrain_total) / n),
            pct(1.0 - etrain_total / base_total),
        ]);
    }
    Ok(ExperimentResult::from_tables(vec![table]).headline_cell(
        "active_user_saved_j",
        0,
        0,
        "saved_j",
        "J",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_active_users_save_more_joules() {
        let tables = run(Settings::quick()).unwrap().tables;
        let saved: Vec<f64> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|r| r.split(',').nth(5).unwrap().parse().unwrap())
            .collect();
        assert_eq!(saved.len(), 3);
        assert!(
            saved.iter().all(|&s| s > 0.0),
            "all savings positive: {saved:?}"
        );
        assert!(
            saved[0] > saved[2],
            "active users must save more joules than inactive: {saved:?}"
        );
    }

    #[test]
    fn etrain_never_costs_more() {
        let tables = run(Settings::quick()).unwrap().tables;
        for row in tables[0].to_csv().lines().skip(1) {
            let cells: Vec<&str> = row.split(',').collect();
            let without: f64 = cells[3].parse().unwrap();
            let with: f64 = cells[4].parse().unwrap();
            assert!(with <= without, "{row}");
        }
    }
}
