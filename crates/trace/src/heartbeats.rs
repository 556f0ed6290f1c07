//! Heartbeat processes of IM "train apps".
//!
//! Reproduces the measurement results of paper Sec. II-B (Table 1, Fig. 3):
//! Android IM apps send keep-alive heartbeats on stable per-app cycles
//! (QQ 300 s, WeChat 270 s, WhatsApp 240 s, RenRen 300 s), the NetEase news
//! app starts at 60 s and doubles its cycle after every 6 beats up to 480 s,
//! and all iOS apps share one 1800 s APNS connection.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ids::TrainAppId;
use crate::rng::seeded;

/// The cycle law of a train app's heartbeat daemon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CyclePattern {
    /// A constant heartbeat cycle (all measured IM apps — Table 1).
    Fixed {
        /// The cycle length in seconds.
        cycle_s: f64,
    },
    /// A cycle that doubles after every `beats_per_level` heartbeats until
    /// reaching `max_s` (the NetEase news app — Fig. 3(d)).
    Doubling {
        /// Initial cycle in seconds.
        initial_s: f64,
        /// Number of heartbeats sent at each cycle length before doubling.
        beats_per_level: u32,
        /// Cycle ceiling in seconds.
        max_s: f64,
    },
}

impl CyclePattern {
    /// The gap that follows the `beat_index`-th heartbeat (0-based), in
    /// seconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use etrain_trace::heartbeats::CyclePattern;
    ///
    /// let netease = CyclePattern::Doubling { initial_s: 60.0, beats_per_level: 6, max_s: 480.0 };
    /// assert_eq!(netease.cycle_after(0), 60.0);
    /// assert_eq!(netease.cycle_after(6), 120.0);
    /// assert_eq!(netease.cycle_after(100), 480.0);
    /// ```
    pub fn cycle_after(&self, beat_index: usize) -> f64 {
        match *self {
            CyclePattern::Fixed { cycle_s } => cycle_s,
            CyclePattern::Doubling {
                initial_s,
                beats_per_level,
                max_s,
            } => {
                let level = beat_index / beats_per_level.max(1) as usize;
                // Guard the exponent: past level 60 the cycle has long hit max_s.
                let factor = 2f64.powi(level.min(60) as i32);
                (initial_s * factor).min(max_s)
            }
        }
    }

    /// Ideal (jitter-free) departure times over `[0, horizon_s)`, starting
    /// at `phase_s`.
    pub fn departure_times(&self, phase_s: f64, horizon_s: f64) -> Vec<f64> {
        let mut times = Vec::new();
        let mut t = phase_s;
        let mut idx = 0;
        while t < horizon_s {
            times.push(t);
            t += self.cycle_after(idx);
            idx += 1;
        }
        times
    }
}

/// One heartbeat transmission event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// The train app that sent the heartbeat.
    pub train: TrainAppId,
    /// Departure time in seconds.
    pub time_s: f64,
    /// Heartbeat packet size in bytes.
    pub size_bytes: u64,
}

/// Specification of a train app's heartbeat behaviour.
///
/// The presets reproduce the paper's measured apps; `jitter_s` adds a
/// uniform ±jitter to each departure (0 by default — the paper found the
/// cycles deterministic; ablations use non-zero jitter).
///
/// # Examples
///
/// ```
/// use etrain_trace::heartbeats::TrainAppSpec;
///
/// let qq = TrainAppSpec::qq();
/// assert_eq!(qq.name, "QQ");
/// assert_eq!(qq.heartbeat_size_bytes, 378);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainAppSpec {
    /// Human-readable app name.
    pub name: String,
    /// The heartbeat cycle law.
    pub pattern: CyclePattern,
    /// Size of one heartbeat packet in bytes.
    pub heartbeat_size_bytes: u64,
    /// Time of the first heartbeat in seconds.
    pub phase_s: f64,
    /// Uniform jitter half-width applied to each departure, in seconds.
    pub jitter_s: f64,
}

impl TrainAppSpec {
    /// Creates a fixed-cycle spec.
    pub fn fixed(name: impl Into<String>, cycle_s: f64, size_bytes: u64, phase_s: f64) -> Self {
        TrainAppSpec {
            name: name.into(),
            pattern: CyclePattern::Fixed { cycle_s },
            heartbeat_size_bytes: size_bytes,
            phase_s,
            jitter_s: 0.0,
        }
    }

    /// Mobile QQ: 300 s cycle, 378 B heartbeats (Table 1 / Sec. VI-A).
    pub fn qq() -> Self {
        TrainAppSpec::fixed("QQ", 300.0, 378, 0.0)
    }

    /// WeChat: 270 s cycle, 74 B heartbeats.
    pub fn wechat() -> Self {
        TrainAppSpec::fixed("WeChat", 270.0, 74, 10.0)
    }

    /// WhatsApp: 240 s cycle, 66 B heartbeats.
    pub fn whatsapp() -> Self {
        TrainAppSpec::fixed("WhatsApp", 240.0, 66, 20.0)
    }

    /// RenRen SNS: constant 300 s cycle (Fig. 3(d)).
    pub fn renren() -> Self {
        TrainAppSpec::fixed("RenRen", 300.0, 150, 30.0)
    }

    /// NetEase news: 60 s initial cycle doubling after every 6 beats up to
    /// 480 s (Fig. 3(d)).
    pub fn netease() -> Self {
        TrainAppSpec {
            name: "NetEase".to_owned(),
            pattern: CyclePattern::Doubling {
                initial_s: 60.0,
                beats_per_level: 6,
                max_s: 480.0,
            },
            heartbeat_size_bytes: 120,
            phase_s: 5.0,
            jitter_s: 0.0,
        }
    }

    /// The shared iOS APNS connection: one 1800 s heartbeat stream for all
    /// apps on the device (Table 1, iPhone rows).
    pub fn ios_apns() -> Self {
        TrainAppSpec::fixed("APNS", 1800.0, 200, 0.0)
    }

    /// The paper's simulation trio (Sec. VI-A): QQ + WeChat + WhatsApp.
    pub fn paper_trio() -> Vec<TrainAppSpec> {
        vec![
            TrainAppSpec::qq(),
            TrainAppSpec::wechat(),
            TrainAppSpec::whatsapp(),
        ]
    }

    /// Sets the jitter half-width, returning the modified spec (used by the
    /// jitter ablation).
    pub fn with_jitter(mut self, jitter_s: f64) -> Self {
        self.jitter_s = jitter_s;
        self
    }

    /// Sets the phase (first departure time), returning the modified spec.
    pub fn with_phase(mut self, phase_s: f64) -> Self {
        self.phase_s = phase_s;
        self
    }

    /// Generates this app's heartbeats over `[0, horizon_s)` as
    /// [`TrainAppId`] `id`.
    pub fn generate(&self, id: TrainAppId, horizon_s: f64, rng: &mut impl Rng) -> Vec<Heartbeat> {
        let mut out = Vec::new();
        self.generate_into(id, horizon_s, rng, &mut out);
        out
    }

    /// [`TrainAppSpec::generate`] into a caller-owned buffer: appends this
    /// app's heartbeats to `out` without allocating a fresh `Vec` per
    /// call. Consumes exactly the same RNG draws as the allocating form,
    /// so the two are bit-for-bit interchangeable — the fleet simulator
    /// leans on this to synthesize per-device traces into reusable
    /// per-worker scratch buffers.
    pub fn generate_into(
        &self,
        id: TrainAppId,
        horizon_s: f64,
        rng: &mut impl Rng,
        out: &mut Vec<Heartbeat>,
    ) {
        for t in self.pattern.departure_times(self.phase_s, horizon_s) {
            let jitter = if self.jitter_s > 0.0 {
                rng.gen_range(-self.jitter_s..=self.jitter_s)
            } else {
                0.0
            };
            let hb = Heartbeat {
                train: id,
                time_s: (t + jitter).max(0.0),
                size_bytes: self.heartbeat_size_bytes,
            };
            if hb.time_s < horizon_s {
                out.push(hb);
            }
        }
    }
}

/// Synthesizes the merged, time-sorted heartbeat stream of several train
/// apps — the "train departure times" the scheduler consumes.
///
/// # Examples
///
/// ```
/// use etrain_trace::heartbeats::{synthesize, TrainAppSpec};
///
/// let beats = synthesize(&TrainAppSpec::paper_trio(), 3600.0, 1);
/// // 12 + 14 + 15 heartbeats in one hour.
/// assert_eq!(beats.len(), 12 + 14 + 15);
/// assert!(beats.windows(2).all(|w| w[0].time_s <= w[1].time_s));
/// ```
pub fn synthesize(specs: &[TrainAppSpec], horizon_s: f64, seed: u64) -> Vec<Heartbeat> {
    let mut all = Vec::new();
    synthesize_into(specs, horizon_s, seed, &mut all);
    all
}

/// [`synthesize`] into a caller-owned buffer: clears `out` and fills it
/// with the merged, time-sorted heartbeat stream, bit-for-bit identical to
/// the allocating form (same seeding, same RNG draw order across specs,
/// same sort). Lets a population simulator synthesize one device's
/// heartbeats after another into the same scratch `Vec` — no per-device
/// trace materialization.
///
/// # Examples
///
/// ```
/// use etrain_trace::heartbeats::{synthesize, synthesize_into, TrainAppSpec};
///
/// let mut scratch = Vec::new();
/// synthesize_into(&TrainAppSpec::paper_trio(), 3600.0, 1, &mut scratch);
/// assert_eq!(scratch, synthesize(&TrainAppSpec::paper_trio(), 3600.0, 1));
/// ```
pub fn synthesize_into(
    specs: &[TrainAppSpec],
    horizon_s: f64,
    seed: u64,
    out: &mut Vec<Heartbeat>,
) {
    let mut rng = seeded(seed);
    out.clear();
    for (i, spec) in specs.iter().enumerate() {
        spec.generate_into(TrainAppId(i), horizon_s, &mut rng, out);
    }
    out.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_cycle_departures_are_periodic() {
        let times = CyclePattern::Fixed { cycle_s: 300.0 }.departure_times(0.0, 1500.0);
        assert_eq!(times, vec![0.0, 300.0, 600.0, 900.0, 1200.0]);
    }

    #[test]
    fn doubling_matches_netease_measurement() {
        // 60 s × 6 beats, then 120 s × 6, ... capped at 480 s.
        let p = CyclePattern::Doubling {
            initial_s: 60.0,
            beats_per_level: 6,
            max_s: 480.0,
        };
        assert_eq!(p.cycle_after(5), 60.0);
        assert_eq!(p.cycle_after(6), 120.0);
        assert_eq!(p.cycle_after(12), 240.0);
        assert_eq!(p.cycle_after(18), 480.0);
        assert_eq!(p.cycle_after(24), 480.0); // capped
        assert_eq!(p.cycle_after(10_000), 480.0); // no overflow
    }

    #[test]
    fn doubling_departure_times_monotone_increasing_gaps() {
        let p = CyclePattern::Doubling {
            initial_s: 60.0,
            beats_per_level: 6,
            max_s: 480.0,
        };
        let times = p.departure_times(0.0, 7200.0);
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(gaps.first().copied(), Some(60.0));
        assert_eq!(gaps.last().copied(), Some(480.0));
    }

    #[test]
    fn phase_offsets_first_departure() {
        let pattern = CyclePattern::Fixed { cycle_s: 100.0 };
        assert_eq!(
            pattern.departure_times(25.0, 300.0),
            vec![25.0, 125.0, 225.0]
        );
        // The horizon is exclusive, and a phase past it yields nothing.
        assert_eq!(pattern.departure_times(25.0, 225.0), vec![25.0, 125.0]);
        assert!(pattern.departure_times(400.0, 300.0).is_empty());
    }

    #[test]
    fn paper_trio_sizes_and_cycles() {
        let trio = TrainAppSpec::paper_trio();
        let cycles: Vec<f64> = trio
            .iter()
            .map(|s| match s.pattern {
                CyclePattern::Fixed { cycle_s } => cycle_s,
                _ => panic!("trio is fixed-cycle"),
            })
            .collect();
        assert_eq!(cycles, vec![300.0, 270.0, 240.0]);
        let sizes: Vec<u64> = trio.iter().map(|s| s.heartbeat_size_bytes).collect();
        assert_eq!(sizes, vec![378, 74, 66]);
    }

    #[test]
    fn jitter_perturbs_but_preserves_count() {
        let spec = TrainAppSpec::qq().with_jitter(2.0);
        let mut rng = seeded(5);
        let beats = spec.generate(TrainAppId(0), 3600.0, &mut rng);
        assert_eq!(beats.len(), 12);
        let ideal = CyclePattern::Fixed { cycle_s: 300.0 }.departure_times(0.0, 3600.0);
        let mut any_moved = false;
        for (hb, t) in beats.iter().zip(ideal) {
            assert!((hb.time_s - t).abs() <= 2.0 + 1e-12);
            if (hb.time_s - t).abs() > 1e-9 {
                any_moved = true;
            }
        }
        assert!(any_moved);
    }

    #[test]
    fn synthesize_merges_and_sorts() {
        let beats = synthesize(&TrainAppSpec::paper_trio(), 1800.0, 1);
        assert!(beats.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        // All three apps contribute.
        for i in 0..3 {
            assert!(beats.iter().any(|h| h.train == TrainAppId(i)));
        }
    }

    #[test]
    fn synthesize_into_matches_allocating_form_bitwise() {
        // Jitter makes the RNG draw order observable: the buffer form must
        // consume draws in exactly the same sequence as the allocating one.
        let specs: Vec<TrainAppSpec> = TrainAppSpec::paper_trio()
            .into_iter()
            .map(|s| s.with_jitter(3.0))
            .collect();
        let mut scratch = vec![Heartbeat {
            train: TrainAppId(9),
            time_s: -1.0,
            size_bytes: 0,
        }]; // stale content must be cleared, not merged
        for seed in [0u64, 7, 991] {
            synthesize_into(&specs, 2700.0, seed, &mut scratch);
            let fresh = synthesize(&specs, 2700.0, seed);
            assert_eq!(scratch.len(), fresh.len());
            for (a, b) in scratch.iter().zip(&fresh) {
                assert_eq!(a.train, b.train);
                assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
                assert_eq!(a.size_bytes, b.size_bytes);
            }
        }
    }

    #[test]
    fn empty_specs_produce_no_heartbeats() {
        assert!(synthesize(&[], 3600.0, 1).is_empty());
    }

    #[test]
    fn zero_horizon_produces_no_heartbeats() {
        assert!(synthesize(&TrainAppSpec::paper_trio(), 0.0, 1).is_empty());
    }

    #[test]
    fn table1_presets_carry_their_measured_cycles() {
        for (spec, cycle_s) in [
            (TrainAppSpec::wechat(), 270.0),
            (TrainAppSpec::whatsapp(), 240.0),
            (TrainAppSpec::renren(), 300.0),
            (TrainAppSpec::ios_apns(), 1800.0),
        ] {
            assert_eq!(
                spec.pattern,
                CyclePattern::Fixed { cycle_s },
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn with_phase_moves_the_first_departure_only() {
        let spec = TrainAppSpec::qq().with_phase(42.0);
        let beats = spec.generate(TrainAppId(0), 1000.0, &mut seeded(1));
        let times: Vec<f64> = beats.iter().map(|h| h.time_s).collect();
        assert_eq!(times, vec![42.0, 342.0, 642.0, 942.0]);
    }

    #[test]
    fn generate_into_appends_to_what_the_buffer_holds() {
        let spec = TrainAppSpec::wechat();
        let mut out = spec.generate(TrainAppId(0), 600.0, &mut seeded(1));
        let before = out.len();
        spec.generate_into(TrainAppId(1), 600.0, &mut seeded(1), &mut out);
        assert_eq!(out.len(), 2 * before);
        assert!(out[before..].iter().all(|h| h.train == TrainAppId(1)));
    }

    #[test]
    fn the_measured_non_trio_apps_match_their_figures() {
        let renren = TrainAppSpec::renren();
        assert_eq!(renren.pattern, CyclePattern::Fixed { cycle_s: 300.0 });
        assert_eq!((renren.heartbeat_size_bytes, renren.phase_s), (150, 30.0));
        let apns = TrainAppSpec::ios_apns();
        assert_eq!(apns.pattern, CyclePattern::Fixed { cycle_s: 1_800.0 });
        assert_eq!(apns.name, "APNS");
        assert_eq!(
            TrainAppSpec::netease().pattern,
            CyclePattern::Doubling {
                initial_s: 60.0,
                beats_per_level: 6,
                max_s: 480.0,
            }
        );
    }
}
