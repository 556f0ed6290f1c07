//! User behaviour traces.
//!
//! The paper records the behaviour of 100+ Luna Weibo users as 4-tuples
//! `(User ID, Behavior type, Time, Packet Size)` and classifies users by
//! activeness (Sec. VI-D-4): *active* users produce more than 20 upload
//! events per "app use", *moderate* users 10–20, *inactive* users fewer than
//! 10. Most app uses last 5–10 minutes; for Fig. 11 all traces are
//! normalized to exactly 10 minutes (longer traces truncated, shorter ones
//! extended).
//!
//! Those traces are proprietary, so this module generates statistically
//! equivalent ones: sessions of 5–10 minutes with the per-category upload
//! counts, a mix of small text posts and occasional picture posts, plus
//! browse events that do not upload data.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::packets::Packet;
use crate::rng::{seeded, TruncatedNormal};
use crate::CargoAppId;

/// User activeness category (paper Sec. VI-D-4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activeness {
    /// More than 20 upload events per app use.
    Active,
    /// Between 10 and 20 upload events per app use.
    Moderate,
    /// Fewer than 10 upload events per app use.
    Inactive,
}

impl Activeness {
    /// The inclusive range of upload events per app use for this category.
    pub fn upload_range(self) -> (u32, u32) {
        match self {
            Activeness::Active => (21, 40),
            Activeness::Moderate => (10, 20),
            Activeness::Inactive => (2, 9),
        }
    }

    /// All categories, in the order the paper reports them.
    pub fn all() -> [Activeness; 3] {
        [
            Activeness::Active,
            Activeness::Moderate,
            Activeness::Inactive,
        ]
    }
}

impl std::fmt::Display for Activeness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Activeness::Active => "active",
            Activeness::Moderate => "moderate",
            Activeness::Inactive => "inactive",
        };
        f.write_str(name)
    }
}

/// Behaviour type recorded in a user trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BehaviorType {
    /// The user posted content (generates an uplink packet).
    Upload,
    /// The user browsed the timeline (no uplink data; kept in the trace for
    /// fidelity with the paper's record format).
    Browse,
}

impl std::fmt::Display for BehaviorType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BehaviorType::Upload => "upload",
            BehaviorType::Browse => "browse",
        };
        f.write_str(name)
    }
}

/// One record of the paper's 4-tuple trace format.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserBehaviorRecord {
    /// The user the record belongs to.
    pub user_id: u32,
    /// What the user did.
    pub behavior: BehaviorType,
    /// Event time within the app use, in seconds.
    pub time_s: f64,
    /// Uplink packet size in bytes (0 for browse events).
    pub size_bytes: u64,
}

/// One "app use": a contiguous period during which the user actively uses
/// the app.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppUseTrace {
    /// The user's id.
    pub user_id: u32,
    /// The user's activeness category.
    pub activeness: Activeness,
    /// Time-sorted behaviour records.
    pub records: Vec<UserBehaviorRecord>,
    /// Length of the app use in seconds.
    pub duration_s: f64,
}

impl AppUseTrace {
    /// Number of upload events in the trace.
    pub fn upload_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.behavior == BehaviorType::Upload)
            .count()
    }

    /// Normalizes the trace to exactly `target_s` seconds the way the paper
    /// prepares Fig. 11 inputs: records beyond the target are dropped, and
    /// shorter traces keep their records with the duration extended (the
    /// paper fills the gap with synthetic heartbeats, which the replay layer
    /// adds).
    pub fn normalized_to(mut self, target_s: f64) -> AppUseTrace {
        self.records.retain(|r| r.time_s < target_s);
        self.duration_s = target_s;
        self
    }
}

/// Generates one app use for `user_id` in the given activeness category.
///
/// Sessions last 5–10 minutes. Upload events are uniformly spread over the
/// session; ~15 % of uploads are picture posts (mean 80 KB, min 10 KB), the
/// rest are text posts (mean 2 KB, min 100 B — the Luna Weibo size model).
/// Browse events are added at roughly one per 20 s.
///
/// # Examples
///
/// ```
/// use etrain_trace::user::{generate_app_use, Activeness};
///
/// let trace = generate_app_use(3, Activeness::Active, 42);
/// assert!(trace.upload_count() > 20);
/// assert!(trace.duration_s >= 300.0 && trace.duration_s <= 600.0);
/// ```
pub fn generate_app_use(user_id: u32, activeness: Activeness, seed: u64) -> AppUseTrace {
    let mut rng = seeded(seed ^ u64::from(user_id).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let duration_s = rng.gen_range(300.0..=600.0);
    let (lo, hi) = activeness.upload_range();
    let uploads = rng.gen_range(lo..=hi);
    let text = TruncatedNormal::from_mean_min(2_000.0, 100.0);
    let picture = TruncatedNormal::from_mean_min(80_000.0, 10_000.0);

    let mut records = Vec::new();
    for _ in 0..uploads {
        let is_picture = rng.gen_bool(0.15);
        let size = if is_picture {
            picture.sample(&mut rng)
        } else {
            text.sample(&mut rng)
        };
        records.push(UserBehaviorRecord {
            user_id,
            behavior: BehaviorType::Upload,
            time_s: rng.gen_range(0.0..duration_s),
            size_bytes: size.round().max(1.0) as u64,
        });
    }
    let browses = (duration_s / 20.0) as u32;
    for _ in 0..browses {
        records.push(UserBehaviorRecord {
            user_id,
            behavior: BehaviorType::Browse,
            time_s: rng.gen_range(0.0..duration_s),
            size_bytes: 0,
        });
    }
    records.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    AppUseTrace {
        user_id,
        activeness,
        records,
        duration_s,
    }
}

/// Lazy per-class packet synthesis: streams the upload packets of one
/// synthetic app use straight into `out`, skipping the [`AppUseTrace`]
/// materialization entirely.
///
/// Produces **bit-for-bit** the packets of the reference pipeline
///
/// ```text
/// generate_app_use(user_id, activeness, seed)
///     .normalized_to(target_s)            // drop records past the target
///   → keep uploads, sort by arrival, assign dense ids   (replay layer)
/// ```
///
/// because [`generate_app_use`] draws every upload record *before* any
/// browse record — skipping browse generation consumes no shared RNG
/// state — and both pipelines order tied arrivals by draw order (stable
/// sorts). The fleet simulator calls this once per device into a reusable
/// per-worker scratch buffer, so simulating 10⁶ devices never builds 10⁶
/// record vectors.
///
/// `out` is cleared first; on return it is sorted by `arrival_s` with ids
/// dense from 0, ready for the simulator.
///
/// # Examples
///
/// ```
/// use etrain_trace::user::{upload_packets_into, Activeness};
/// use etrain_trace::CargoAppId;
///
/// let mut scratch = Vec::new();
/// upload_packets_into(3, Activeness::Active, 42, 600.0, CargoAppId(0), &mut scratch);
/// assert!(scratch.len() > 20);
/// assert!(scratch.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
/// ```
pub fn upload_packets_into(
    user_id: u32,
    activeness: Activeness,
    seed: u64,
    target_s: f64,
    app: CargoAppId,
    out: &mut Vec<Packet>,
) {
    let mut rng = seeded(seed ^ u64::from(user_id).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let duration_s = rng.gen_range(300.0..=600.0);
    let (lo, hi) = activeness.upload_range();
    let uploads = rng.gen_range(lo..=hi);
    let text = TruncatedNormal::from_mean_min(2_000.0, 100.0);
    let picture = TruncatedNormal::from_mean_min(80_000.0, 10_000.0);

    out.clear();
    for _ in 0..uploads {
        let is_picture = rng.gen_bool(0.15);
        let size = if is_picture {
            picture.sample(&mut rng)
        } else {
            text.sample(&mut rng)
        };
        let time_s = rng.gen_range(0.0..duration_s);
        // normalized_to() truncation, applied at draw time.
        if time_s < target_s {
            out.push(Packet {
                id: 0,
                app,
                arrival_s: time_s,
                size_bytes: (size.round().max(1.0) as u64).max(1),
            });
        }
    }
    out.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
    for (i, p) in out.iter_mut().enumerate() {
        p.id = i as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_counts_match_categories() {
        for (seed, category) in [
            (1, Activeness::Active),
            (2, Activeness::Moderate),
            (3, Activeness::Inactive),
        ] {
            for user in 0..20 {
                let trace = generate_app_use(user, category, seed);
                let (lo, hi) = category.upload_range();
                let n = trace.upload_count() as u32;
                assert!(
                    n >= lo && n <= hi,
                    "{category} user {user} has {n} uploads, expected {lo}..={hi}"
                );
            }
        }
    }

    #[test]
    fn categories_are_ordered_by_activity() {
        // Averaged over a cohort, active users upload more than moderate,
        // who upload more than inactive.
        let mean_uploads = |cat| {
            (0..30)
                .map(|u| generate_app_use(u, cat, 99).upload_count())
                .sum::<usize>() as f64
                / 30.0
        };
        let a = mean_uploads(Activeness::Active);
        let m = mean_uploads(Activeness::Moderate);
        let i = mean_uploads(Activeness::Inactive);
        assert!(a > m && m > i, "a={a} m={m} i={i}");
    }

    #[test]
    fn records_are_sorted_and_in_session() {
        let trace = generate_app_use(0, Activeness::Active, 5);
        assert!(trace.records.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        assert!(trace
            .records
            .iter()
            .all(|r| r.time_s >= 0.0 && r.time_s < trace.duration_s));
    }

    #[test]
    fn browse_events_carry_no_bytes() {
        let trace = generate_app_use(1, Activeness::Moderate, 8);
        for r in &trace.records {
            match r.behavior {
                BehaviorType::Browse => assert_eq!(r.size_bytes, 0),
                BehaviorType::Upload => assert!(r.size_bytes >= 100),
            }
        }
    }

    #[test]
    fn normalization_truncates_and_extends() {
        let trace = generate_app_use(2, Activeness::Active, 13);
        let normalized = trace.clone().normalized_to(600.0);
        assert_eq!(normalized.duration_s, 600.0);
        assert!(normalized.records.iter().all(|r| r.time_s < 600.0));
        let short = trace.normalized_to(100.0);
        assert_eq!(short.duration_s, 100.0);
        assert!(short.records.iter().all(|r| r.time_s < 100.0));
    }

    #[test]
    fn lazy_upload_packets_match_materialized_pipeline_bitwise() {
        // Reference pipeline: materialize the full trace, normalize,
        // filter uploads, sort, assign dense ids — exactly what the replay
        // layer's `to_packets(generate_app_use(..).normalized_to(..))`
        // does (re-stated here because the replay layer lives upstack).
        let reference = |user: u32, cat: Activeness, seed: u64, target: f64| -> Vec<Packet> {
            let trace = generate_app_use(user, cat, seed).normalized_to(target);
            let mut packets: Vec<Packet> = trace
                .records
                .iter()
                .filter(|r| r.behavior == BehaviorType::Upload)
                .map(|r| Packet {
                    id: 0,
                    app: CargoAppId(0),
                    arrival_s: r.time_s,
                    size_bytes: r.size_bytes.max(1),
                })
                .collect();
            packets.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
            for (i, p) in packets.iter_mut().enumerate() {
                p.id = i as u64;
            }
            packets
        };
        let mut scratch = Vec::new();
        for cat in Activeness::all() {
            for (user, seed, target) in [(0u32, 42u64, 600.0), (17, 7, 600.0), (3, 99, 450.0)] {
                upload_packets_into(user, cat, seed, target, CargoAppId(0), &mut scratch);
                let expected = reference(user, cat, seed, target);
                assert_eq!(scratch.len(), expected.len(), "{cat} user {user}");
                for (a, b) in scratch.iter().zip(&expected) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.app, b.app);
                    assert_eq!(a.arrival_s.to_bits(), b.arrival_s.to_bits());
                    assert_eq!(a.size_bytes, b.size_bytes);
                }
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Activeness::Active.to_string(), "active");
        assert_eq!(BehaviorType::Upload.to_string(), "upload");
    }

    #[test]
    fn upload_count_counts_the_upload_records_only() {
        let record = |behavior, size_bytes| UserBehaviorRecord {
            user_id: 0,
            behavior,
            time_s: 1.0,
            size_bytes,
        };
        let trace = AppUseTrace {
            user_id: 0,
            activeness: Activeness::Moderate,
            records: vec![
                record(BehaviorType::Upload, 100),
                record(BehaviorType::Browse, 7),
                record(BehaviorType::Upload, 250),
            ],
            duration_s: 60.0,
        };
        assert_eq!(trace.upload_count(), 2);
    }

    #[test]
    fn normalization_drops_a_record_at_the_target_time() {
        let record = |time_s| UserBehaviorRecord {
            user_id: 0,
            behavior: BehaviorType::Upload,
            time_s,
            size_bytes: 10,
        };
        let trace = AppUseTrace {
            user_id: 0,
            activeness: Activeness::Inactive,
            records: vec![record(10.0), record(99.9), record(100.0)],
            duration_s: 400.0,
        };
        let cut = trace.normalized_to(100.0);
        let times: Vec<f64> = cut.records.iter().map(|r| r.time_s).collect();
        assert_eq!(times, [10.0, 99.9]);
        assert_eq!(cut.duration_s, 100.0);
    }
}
