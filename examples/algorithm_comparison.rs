//! Head-to-head comparison of the four scheduling strategies the paper
//! evaluates (Sec. VI-C): Baseline, eTrain (Algorithm 1), PerES and eTime,
//! on the same 2-hour workload and bandwidth trace.
//!
//! ```text
//! cargo run --release --example algorithm_comparison
//! ```

use etrain::sim::{Scenario, SchedulerKind, Table};

fn main() {
    let base = Scenario::paper_default().duration_secs(7200).seed(17);

    let contenders = [
        SchedulerKind::Baseline,
        SchedulerKind::ETrain {
            theta: 4.0,
            k: None,
        },
        SchedulerKind::PerEs { omega: 0.5 },
        SchedulerKind::ETime { v_bytes: 20_000.0 },
    ];

    let mut table = Table::new(
        "2-hour comparison at lambda = 0.08 pkt/s",
        &[
            "algorithm",
            "energy_j",
            "tail_j",
            "delay_s",
            "violations",
            "tail_share",
        ],
    );
    for kind in contenders {
        let r = base.clone().scheduler(kind).run();
        table.push_row_strings(vec![
            r.scheduler.clone(),
            format!("{:.1}", r.extra_energy_j),
            format!("{:.1}", r.tail_energy_j),
            format!("{:.1}", r.normalized_delay_s),
            format!("{:.1}%", r.deadline_violation_ratio * 100.0),
            format!("{:.0}%", r.tail_fraction() * 100.0),
        ]);
    }
    println!("{table}");
    println!(
        "Note: each algorithm's knob shifts its energy-delay point; run\n\
         `cargo run -p etrain-bench --release --bin repro_all -- --only fig8a`\n\
         for full E-D curves."
    );
}
