//! Replay generated Luna-Weibo user traces through the *live* eTrain core,
//! per activeness category — the paper's controlled-experiment pipeline
//! (Sec. VI-D-4) in miniature.
//!
//! ```text
//! cargo run --release --example user_replay
//! ```

use etrain::apps::{replay, CargoAppModel};
use etrain::core::{CoreConfig, CoreError};
use etrain::trace::heartbeats::TrainAppSpec;
use etrain::trace::user::{generate_app_use, Activeness};

fn main() -> Result<(), CoreError> {
    let trains = TrainAppSpec::paper_trio();
    let weibo = CargoAppModel::weibo().with_deadline(30.0);
    let config = CoreConfig {
        theta: 20.0, // the paper's Fig. 11 operating point
        k: Some(20),
        slot_s: 1.0,
        startup_grace_s: 600.0,
        ..CoreConfig::default()
    };

    println!("=== 10-minute app-use replays through the live eTrain core ===\n");
    for category in Activeness::all() {
        let mut uploads = 0;
        let mut stranded = 0;
        let mut piggy = 0.0;
        let mut delay = 0.0;
        let users = 5;
        for user in 0..users {
            let trace = generate_app_use(user, category, 7).normalized_to(600.0);
            let outcome = replay::replay_through_core(&trace, &weibo, &trains, config)?;
            uploads += outcome.decisions.len();
            // Uploads arriving after the window's last train would ride the
            // *next* heartbeat, beyond the 10-minute measurement window.
            stranded += outcome.undelivered;
            piggy += outcome.piggyback_ratio;
            delay += outcome.mean_delay_s;
        }
        let n = f64::from(users);
        println!(
            "{category:<9} users: {:>5.1} uploads/use, {:>4.1}% piggybacked, {:>5.1}s mean delay, {} awaiting next train",
            uploads as f64 / n,
            piggy / n * 100.0,
            delay / n,
            stranded,
        );
    }
    println!(
        "\nActive users generate more cargo per app use, so more of their\n\
         traffic rides heartbeat tails — the mechanism behind Fig. 11."
    );
    Ok(())
}
