//! The fleet's population model: which behavior class each device belongs
//! to, how its private seed is derived, and the full [`FleetConfig`] that
//! pins one fleet run down to the bit.
//!
//! Everything here is a pure function of `(fleet seed, device index)` —
//! never of the shard a device lands in or the worker that runs it. That
//! is the whole determinism story: a device's class, seed, packets and
//! heartbeats are identical whether the fleet runs on 1 thread or 16,
//! sharded by 64 devices or 64k.

use etrain_sched::{AppProfile, CostProfile};
use etrain_sim::{BandwidthSource, EngineKind, Scenario, SchedulerKind};
use etrain_trace::packets::Packet;
use etrain_trace::user::{upload_packets_into, Activeness};
use etrain_trace::CargoAppId;
use serde::{Deserialize, Serialize};

/// The display label of one behavior class (`active` / `moderate` /
/// `inactive`), used in fleet tables.
pub fn class_label(class: Activeness) -> &'static str {
    match class {
        Activeness::Active => "active",
        Activeness::Moderate => "moderate",
        Activeness::Inactive => "inactive",
    }
}

/// Integer class weights assigning each device a behavior class by its
/// index, round-robin over a repeating cycle of length
/// `active + moderate + inactive`.
///
/// Device `d` gets the class at position `d mod cycle`: the first
/// `active` positions are [`Activeness::Active`], the next `moderate`
/// are [`Activeness::Moderate`], the rest [`Activeness::Inactive`]. A
/// pure function of the device index — shard- and worker-independent —
/// that realizes the weights exactly (not just in expectation) in every
/// aligned window of `cycle` devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassMix {
    /// Devices per cycle in the paper's *active* class (21–40 uploads
    /// per app use).
    pub active: u32,
    /// Devices per cycle in the *moderate* class (10–20 uploads).
    pub moderate: u32,
    /// Devices per cycle in the *inactive* class (2–9 uploads).
    pub inactive: u32,
}

impl ClassMix {
    /// The fleet default: an inactive-heavy population (1 active :
    /// 2 moderate : 7 inactive per 10 devices), matching the long-tailed
    /// activity distributions of the paper's user study — most users post
    /// rarely, a small minority posts constantly.
    pub fn paper_skew() -> ClassMix {
        ClassMix {
            active: 1,
            moderate: 2,
            inactive: 7,
        }
    }

    /// One device of each class per cycle of three.
    pub fn uniform() -> ClassMix {
        ClassMix {
            active: 1,
            moderate: 1,
            inactive: 1,
        }
    }

    /// The cycle length (`active + moderate + inactive`).
    pub fn cycle(&self) -> u64 {
        u64::from(self.active) + u64::from(self.moderate) + u64::from(self.inactive)
    }

    /// The behavior class of device `device` — a pure function of the
    /// index, independent of sharding.
    ///
    /// # Panics
    ///
    /// Panics if all three weights are zero (an empty cycle assigns no
    /// class to anyone); [`FleetConfig::validate`] rejects that earlier
    /// with a better message.
    pub fn class_of(&self, device: u64) -> Activeness {
        let cycle = self.cycle();
        assert!(cycle > 0, "class mix must have at least one nonzero weight");
        let r = device % cycle;
        if r < u64::from(self.active) {
            Activeness::Active
        } else if r < u64::from(self.active) + u64::from(self.moderate) {
            Activeness::Moderate
        } else {
            Activeness::Inactive
        }
    }
}

impl Default for ClassMix {
    fn default() -> Self {
        ClassMix::paper_skew()
    }
}

/// SplitMix64's output mix — the standard stateless bijection used to
/// spread consecutive integers into decorrelated 64-bit seeds.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The private seed of device `device` under fleet seed `fleet_seed`.
///
/// Two SplitMix64 rounds over `(fleet_seed, device)` so that neighboring
/// device indices and neighboring fleet seeds both produce decorrelated
/// streams. Pure and shard-independent; the fleet-of-N ≡ N-independent-
/// runs equivalence rests on every consumer deriving per-device
/// randomness from this one value.
pub fn device_seed(fleet_seed: u64, device: u64) -> u64 {
    splitmix64(fleet_seed ^ splitmix64(device))
}

/// One device of the population, fully resolved: its index, behavior
/// class and private seed. Everything a worker needs to synthesize the
/// device's traces and run it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// The device's index in `0..devices`.
    pub device: u64,
    /// Its behavior class.
    pub class: Activeness,
    /// Its private seed (see [`device_seed`]).
    pub seed: u64,
}

/// A complete description of one fleet run.
///
/// [`FleetConfig::paper_default`] pins the paper's Fig. 11 operating
/// point: eTrain with Θ = 20, k = 20, a single Weibo cargo app with a
/// 30-second deadline, 600-second app-use sessions, and a constant
/// 450 kbit/s channel — the configuration the per-user energy-saving
/// figure was produced with, scaled from 100 users to 10⁵–10⁶ devices.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// How many devices to simulate.
    pub devices: u64,
    /// The fleet seed every per-device seed derives from.
    pub seed: u64,
    /// The scheduler every device runs.
    pub scheduler: SchedulerKind,
    /// The class weights of the population.
    pub mix: ClassMix,
    /// Each device's session (horizon) length, in seconds.
    pub session_secs: u64,
    /// The constant channel bandwidth, in bits per second.
    pub bandwidth_bps: f64,
    /// Which simulation kernel devices run on (default
    /// [`EngineKind::Event`], the faster of the two bit-identical
    /// kernels).
    pub engine: EngineKind,
    /// Devices per shard (the unit of work handed to a worker).
    pub shard_devices: usize,
    /// Worker-thread override; `None` uses the machine's available
    /// parallelism.
    pub jobs: Option<usize>,
    /// Route scheduler decisions through the reference cost path instead
    /// of the cached hot path (default `false`; both paths are
    /// decision-identical).
    pub reference_cost: bool,
}

impl FleetConfig {
    /// The Fig. 11 operating point over `devices` devices (see the type
    /// docs), on the cached decision path like
    /// [`Scenario::paper_default`]. The oracle and observability knobs are
    /// deliberately *not* read — fleet workers run with both off, and
    /// journaled fleet tiers opt in explicitly.
    pub fn paper_default(devices: u64) -> FleetConfig {
        FleetConfig {
            devices,
            seed: 0,
            scheduler: SchedulerKind::ETrain {
                theta: 20.0,
                k: Some(20),
            },
            mix: ClassMix::paper_skew(),
            session_secs: 600,
            bandwidth_bps: 450_000.0,
            engine: EngineKind::Event,
            shard_devices: 4096,
            jobs: None,
            reference_cost: false,
        }
    }

    /// Sets the fleet seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scheduler every device runs.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Sets the class mix.
    pub fn mix(mut self, mix: ClassMix) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the shard size (devices per unit of work).
    pub fn shard_devices(mut self, shard_devices: usize) -> Self {
        self.shard_devices = shard_devices;
        self
    }

    /// Overrides the worker-thread count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// The cargo-app profiles every device schedules against: the single
    /// Weibo app with its 30-second deadline, as in Fig. 11.
    pub fn profiles(&self) -> Vec<AppProfile> {
        vec![AppProfile::new("Weibo", CostProfile::weibo(30.0))]
    }

    /// Resolves device `device` to its [`DeviceSpec`].
    pub fn device_spec(&self, device: u64) -> DeviceSpec {
        DeviceSpec {
            device,
            class: self.mix.class_of(device),
            seed: device_seed(self.seed, device),
        }
    }

    /// The device's upload packets, synthesized into `out` (cleared
    /// first) through the lazy per-class generator — bit-identical to
    /// materializing the device's full app-use trace and running it
    /// through `normalized_to` + `to_packets`.
    pub fn device_packets_into(&self, spec: &DeviceSpec, out: &mut Vec<Packet>) {
        upload_packets_into(
            spec.device as u32,
            spec.class,
            spec.seed,
            self.session_secs as f64,
            CargoAppId(0),
            out,
        );
    }

    /// The single-device [`Scenario`] that device `spec` is defined to be
    /// equivalent to — the conformance reference for the fleet runner's
    /// direct engine path. Oracle and observability are off, so the
    /// report is exactly what the fleet's allocation-lean path produces.
    pub fn reference_scenario(&self, spec: &DeviceSpec) -> Scenario {
        let mut packets = Vec::new();
        self.device_packets_into(spec, &mut packets);
        Scenario::paper_default()
            .duration_secs(self.session_secs)
            .profiles(self.profiles())
            .packets(packets)
            .bandwidth(BandwidthSource::Constant(self.bandwidth_bps))
            .scheduler(self.scheduler)
            .seed(spec.seed)
            .engine(self.engine)
            .reference_cost(self.reference_cost)
    }

    /// Checks the config's invariants before any work starts.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the fleet is empty, the class
    /// mix has no nonzero weight, the shard size is zero, the session is
    /// empty, the bandwidth is non-positive/non-finite, or the scheduler
    /// kind fails [`SchedulerKind::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("fleet must have at least one device".to_owned());
        }
        if self.mix.cycle() == 0 {
            return Err("class mix must have at least one nonzero weight".to_owned());
        }
        if self.shard_devices == 0 {
            return Err("shard size must be at least one device".to_owned());
        }
        if self.session_secs == 0 {
            return Err("session must be at least one second".to_owned());
        }
        if !(self.bandwidth_bps.is_finite() && self.bandwidth_bps > 0.0) {
            return Err(format!(
                "bandwidth must be positive and finite, got {} bps",
                self.bandwidth_bps
            ));
        }
        self.scheduler.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_mix_realizes_weights_exactly_per_cycle() {
        let mix = ClassMix::paper_skew();
        let cycle = mix.cycle();
        assert_eq!(cycle, 10);
        for window in 0..3u64 {
            let mut counts = [0u32; 3];
            for d in window * cycle..(window + 1) * cycle {
                match mix.class_of(d) {
                    Activeness::Active => counts[0] += 1,
                    Activeness::Moderate => counts[1] += 1,
                    Activeness::Inactive => counts[2] += 1,
                }
            }
            assert_eq!(counts, [1, 2, 7]);
        }
    }

    #[test]
    fn device_seeds_are_decorrelated_and_stable() {
        let a = device_seed(0, 0);
        let b = device_seed(0, 1);
        let c = device_seed(1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable across calls (pure function).
        assert_eq!(a, device_seed(0, 0));
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        assert!(FleetConfig::paper_default(0).validate().is_err());
        assert!(FleetConfig::paper_default(1).validate().is_ok());
        let mut c = FleetConfig::paper_default(1);
        c.mix = ClassMix {
            active: 0,
            moderate: 0,
            inactive: 0,
        };
        assert!(c.validate().is_err());
        let mut c = FleetConfig::paper_default(1);
        c.shard_devices = 0;
        assert!(c.validate().is_err());
        let mut c = FleetConfig::paper_default(1);
        c.bandwidth_bps = 0.0;
        assert!(c.validate().is_err());
        let c = FleetConfig::paper_default(1).scheduler(SchedulerKind::ETrain {
            theta: 0.2,
            k: Some(0),
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn reference_scenario_is_reproducible_per_device() {
        let config = FleetConfig::paper_default(4);
        let spec = config.device_spec(3);
        let a = config.reference_scenario(&spec).run();
        let b = config.reference_scenario(&spec).run();
        assert_eq!(a, b);
    }

    #[test]
    fn class_labels_name_each_activeness() {
        assert_eq!(class_label(Activeness::Active), "active");
        assert_eq!(class_label(Activeness::Moderate), "moderate");
        assert_eq!(class_label(Activeness::Inactive), "inactive");
    }

    #[test]
    fn uniform_mix_cycles_through_the_three_classes() {
        let mix = ClassMix::uniform();
        let classes: Vec<Activeness> = (3..6).map(|d| mix.class_of(d)).collect();
        use Activeness::*;
        assert_eq!(classes, [Active, Moderate, Inactive]);
    }

    #[test]
    fn device_spec_is_the_mix_class_and_the_device_seed() {
        let config = FleetConfig::paper_default(100).seed(9);
        let spec = config.device_spec(17);
        assert_eq!(spec.class, ClassMix::paper_skew().class_of(17));
        assert_eq!(spec.seed, device_seed(9, 17));
    }

    #[test]
    fn device_packets_into_replaces_what_the_buffer_held() {
        let config = FleetConfig::paper_default(4);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        config.device_packets_into(&config.device_spec(0), &mut a);
        config.device_packets_into(&config.device_spec(1), &mut b);
        config.device_packets_into(&config.device_spec(0), &mut b);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }
}
