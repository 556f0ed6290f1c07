//! # etrain-hb — the Heartbeat Monitor
//!
//! On Android, eTrain locates the heartbeat-sending code of each train app
//! with an Xposed hook on `AlarmManager`/`BroadcastReceiver` and is notified
//! at the exact moment a heartbeat leaves the device (paper Sec. V-2). That
//! mechanism cannot exist in a simulation, so this crate implements the same
//! capability from the observable side: given the *timestamps* of a train
//! app's transmissions, it
//!
//! 1. **detects** the app's heartbeat cycle (fixed cycles like WeChat's
//!    270 s, or adaptive doubling cycles like NetEase's 60→480 s — paper
//!    Table 1 / Fig. 3), robust to bounded jitter;
//! 2. **predicts** future "train departure times"
//!    `t_s(h_{i,j}) = t_s(h_{i,0}) + cycle_i × j` (paper Sec. III-C), which
//!    is what the scheduler consumes;
//! 3. **tracks liveness**, so the scheduler stops deferring packets when a
//!    train app dies ("In case when no train app is running, eTrain will
//!    stop its scheduler to avoid cargo apps' indefinite waiting", Sec. V-3).
//!
//! # Example
//!
//! ```
//! use etrain_hb::{CycleDetector, DetectedPattern};
//!
//! let mut detector = CycleDetector::new();
//! for i in 0..6 {
//!     detector.observe(10.0 + i as f64 * 270.0); // WeChat-like
//! }
//! match detector.detect() {
//!     DetectedPattern::Fixed { cycle_s, .. } => assert!((cycle_s - 270.0).abs() < 1.0),
//!     other => panic!("expected fixed cycle, got {other:?}"),
//! }
//! assert!((detector.predict_next().unwrap() - (10.0 + 6.0 * 270.0)).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod detect;
mod fold;
mod identify;
mod monitor;

pub use detect::{CycleDetector, DetectedPattern};
pub use fold::estimate_period;
pub use identify::{identify_heartbeat_flows, HeartbeatFlow, IdentifyConfig};
pub use monitor::{HeartbeatMonitor, TrainStatus};
