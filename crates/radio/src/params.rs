use serde::{Deserialize, Serialize};

use crate::error::RadioError;

/// Validated parameter set describing a cellular radio's power states.
///
/// All powers are absolute device powers in milliwatts; the paper works with
/// powers *relative* to idle (p̃ = p − p_idle), which are exposed through
/// [`RadioParams::dch_extra_mw`] and [`RadioParams::fach_extra_mw`].
///
/// The default parameter sets reproduce the paper's measurements:
///
/// - [`RadioParams::galaxy_s4_3g`] — Fig. 4 / Sec. VI-A: p̃_D = 700 mW,
///   p̃_F = 450 mW, δ_D = 10 s, δ_F = 7.5 s;
/// - [`RadioParams::wifi_like`] — a short-tail profile used for contrast in
///   ablations (WiFi tails are an order of magnitude shorter).
///
/// # Examples
///
/// ```
/// use etrain_radio::RadioParams;
///
/// let p = RadioParams::galaxy_s4_3g();
/// assert_eq!(p.tail_time_s(), 17.5);
/// // One full tail wastes about 10.4 J, matching the paper's ~10.91 J.
/// assert!((p.full_tail_energy_j() - 10.375).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RadioParams {
    idle_mw: f64,
    dch_mw: f64,
    fach_mw: f64,
    delta_dch_s: f64,
    delta_fach_s: f64,
    promotion_idle_to_dch_s: f64,
    promotion_fach_to_dch_s: f64,
}

impl RadioParams {
    /// The paper's Samsung Galaxy S4 / TD-SCDMA 3G parameters (Fig. 4 and
    /// the "other simulation settings" of Sec. VI-A).
    ///
    /// Idle power is set to 20 mW, consistent with the paper's Fig. 1(a)
    /// where heartbeats account for ≈ 87 % of a 4-hour standby budget.
    pub fn galaxy_s4_3g() -> Self {
        RadioParams {
            idle_mw: 20.0,
            dch_mw: 720.0,
            fach_mw: 470.0,
            delta_dch_s: 10.0,
            delta_fach_s: 7.5,
            promotion_idle_to_dch_s: 0.0,
            promotion_fach_to_dch_s: 0.0,
        }
    }

    /// A short-tail profile (WiFi-like) used by ablation experiments to show
    /// how eTrain's benefit shrinks when tails are cheap.
    pub fn wifi_like() -> Self {
        RadioParams {
            idle_mw: 20.0,
            dch_mw: 420.0,
            fach_mw: 120.0,
            delta_dch_s: 0.5,
            delta_fach_s: 0.5,
            promotion_idle_to_dch_s: 0.0,
            promotion_fach_to_dch_s: 0.0,
        }
    }

    /// An LTE-style profile approximating DRX (Discontinuous Reception)
    /// with the model's two tail phases: ≈ 1 s of continuous reception at
    /// high power after a transfer, then ≈ 10 s of short/long DRX cycling
    /// at a low duty-cycled average before RRC-idle. LTE was the paper's
    /// stated future platform; this preset lets the experiments ask
    /// whether heartbeat piggybacking still pays off there.
    pub fn lte_drx() -> Self {
        RadioParams {
            idle_mw: 15.0,
            dch_mw: 1_015.0,    // ≈ 1 W while active/continuous reception
            fach_mw: 135.0,     // DRX duty-cycled average
            delta_dch_s: 1.0,   // continuous-reception inactivity timer
            delta_fach_s: 10.0, // DRX phase before RRC-idle
            promotion_idle_to_dch_s: 0.0,
            promotion_fach_to_dch_s: 0.0,
        }
    }

    /// Starts building a custom parameter set from the Galaxy S4 defaults.
    pub fn builder() -> RadioParamsBuilder {
        RadioParamsBuilder::new()
    }

    /// Absolute idle (baseline) power in milliwatts.
    pub fn idle_mw(&self) -> f64 {
        self.idle_mw
    }

    /// Absolute DCH power in milliwatts.
    pub fn dch_mw(&self) -> f64 {
        self.dch_mw
    }

    /// Absolute FACH power in milliwatts.
    pub fn fach_mw(&self) -> f64 {
        self.fach_mw
    }

    /// DCH power above idle (the paper's p̃_D) in milliwatts.
    pub fn dch_extra_mw(&self) -> f64 {
        self.dch_mw - self.idle_mw
    }

    /// FACH power above idle (the paper's p̃_F) in milliwatts.
    pub fn fach_extra_mw(&self) -> f64 {
        self.fach_mw - self.idle_mw
    }

    /// Time the radio lingers in DCH after a transmission ends (δ_D), in
    /// seconds.
    pub fn delta_dch_s(&self) -> f64 {
        self.delta_dch_s
    }

    /// Time the radio lingers in FACH before demoting to IDLE (δ_F), in
    /// seconds.
    pub fn delta_fach_s(&self) -> f64 {
        self.delta_fach_s
    }

    /// Total tail time `T_tail = δ_D + δ_F` in seconds.
    pub fn tail_time_s(&self) -> f64 {
        self.delta_dch_s + self.delta_fach_s
    }

    /// Extra energy (above idle) of one complete, un-reused tail, in joules.
    pub fn full_tail_energy_j(&self) -> f64 {
        (self.dch_extra_mw() * self.delta_dch_s + self.fach_extra_mw() * self.delta_fach_s) / 1000.0
    }

    /// Promotion latency from IDLE to DCH in seconds (0 in the paper's
    /// energy model; configurable for ablations).
    pub fn promotion_idle_to_dch_s(&self) -> f64 {
        self.promotion_idle_to_dch_s
    }

    /// Promotion latency from FACH to DCH in seconds.
    pub fn promotion_fach_to_dch_s(&self) -> f64 {
        self.promotion_fach_to_dch_s
    }
}

impl Default for RadioParams {
    fn default() -> Self {
        RadioParams::galaxy_s4_3g()
    }
}

/// Builder for [`RadioParams`], seeded with the Galaxy S4 3G defaults.
///
/// # Examples
///
/// ```
/// use etrain_radio::RadioParams;
///
/// let p = RadioParams::builder()
///     .dch_mw(800.0)
///     .delta_dch_s(6.0)
///     .build()?;
/// assert_eq!(p.delta_dch_s(), 6.0);
/// # Ok::<(), etrain_radio::RadioError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RadioParamsBuilder {
    params: RadioParams,
}

impl RadioParamsBuilder {
    /// Creates a builder seeded with [`RadioParams::galaxy_s4_3g`].
    pub fn new() -> Self {
        RadioParamsBuilder {
            params: RadioParams::galaxy_s4_3g(),
        }
    }

    /// Sets the absolute idle power in milliwatts.
    pub fn idle_mw(&mut self, value: f64) -> &mut Self {
        self.params.idle_mw = value;
        self
    }

    /// Sets the absolute DCH power in milliwatts.
    pub fn dch_mw(&mut self, value: f64) -> &mut Self {
        self.params.dch_mw = value;
        self
    }

    /// Sets the absolute FACH power in milliwatts.
    pub fn fach_mw(&mut self, value: f64) -> &mut Self {
        self.params.fach_mw = value;
        self
    }

    /// Sets the DCH lingering time δ_D in seconds.
    pub fn delta_dch_s(&mut self, value: f64) -> &mut Self {
        self.params.delta_dch_s = value;
        self
    }

    /// Sets the FACH lingering time δ_F in seconds.
    pub fn delta_fach_s(&mut self, value: f64) -> &mut Self {
        self.params.delta_fach_s = value;
        self
    }

    /// Sets the IDLE→DCH promotion latency in seconds.
    pub fn promotion_idle_to_dch_s(&mut self, value: f64) -> &mut Self {
        self.params.promotion_idle_to_dch_s = value;
        self
    }

    /// Sets the FACH→DCH promotion latency in seconds.
    pub fn promotion_fach_to_dch_s(&mut self, value: f64) -> &mut Self {
        self.params.promotion_fach_to_dch_s = value;
        self
    }

    /// Validates and produces the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`RadioError`] if any power or duration is negative or not
    /// finite, or if the ordering `idle <= fach <= dch` does not hold.
    pub fn build(&self) -> Result<RadioParams, RadioError> {
        let p = &self.params;
        for (name, value) in [
            ("idle_mw", p.idle_mw),
            ("dch_mw", p.dch_mw),
            ("fach_mw", p.fach_mw),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(RadioError::InvalidPower {
                    name,
                    value_mw: value,
                });
            }
        }
        for (name, value) in [
            ("delta_dch_s", p.delta_dch_s),
            ("delta_fach_s", p.delta_fach_s),
            ("promotion_idle_to_dch_s", p.promotion_idle_to_dch_s),
            ("promotion_fach_to_dch_s", p.promotion_fach_to_dch_s),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(RadioError::InvalidDuration {
                    name,
                    value_s: value,
                });
            }
        }
        if !(p.idle_mw <= p.fach_mw && p.fach_mw <= p.dch_mw) {
            return Err(RadioError::PowerOrdering {
                idle_mw: p.idle_mw,
                fach_mw: p.fach_mw,
                dch_mw: p.dch_mw,
            });
        }
        Ok(self.params.clone())
    }
}

impl Default for RadioParamsBuilder {
    fn default() -> Self {
        RadioParamsBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn galaxy_s4_matches_paper_constants() {
        let p = RadioParams::galaxy_s4_3g();
        assert_eq!(p.dch_extra_mw(), 700.0);
        assert_eq!(p.fach_extra_mw(), 450.0);
        assert_eq!(p.delta_dch_s(), 10.0);
        assert_eq!(p.delta_fach_s(), 7.5);
        assert_eq!(p.tail_time_s(), 17.5);
    }

    #[test]
    fn full_tail_energy_close_to_measured() {
        // Paper Sec. II-D: a tail costs about 10.91 J in 3G; the model's
        // piecewise-constant version is 10.375 J.
        let p = RadioParams::galaxy_s4_3g();
        assert!((p.full_tail_energy_j() - 10.375).abs() < 1e-12);
        assert!((p.full_tail_energy_j() - 10.91).abs() < 1.0);
    }

    #[test]
    fn builder_roundtrip_and_defaults() {
        let p = RadioParams::builder().build().unwrap();
        assert_eq!(p, RadioParams::galaxy_s4_3g());
        assert_eq!(RadioParams::default(), RadioParams::galaxy_s4_3g());
    }

    #[test]
    fn builder_rejects_negative_power() {
        let err = RadioParams::builder().dch_mw(-1.0).build().unwrap_err();
        assert!(matches!(
            err,
            RadioError::InvalidPower { name: "dch_mw", .. }
        ));
    }

    #[test]
    fn builder_rejects_nan_duration() {
        let err = RadioParams::builder()
            .delta_fach_s(f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            RadioError::InvalidDuration {
                name: "delta_fach_s",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_bad_ordering() {
        let err = RadioParams::builder()
            .fach_mw(900.0) // above DCH's 720 mW
            .build()
            .unwrap_err();
        assert!(matches!(err, RadioError::PowerOrdering { .. }));
        let display = err.to_string();
        assert!(display.contains("power ordering violated"));
    }

    #[test]
    fn wifi_like_has_short_tail() {
        let p = RadioParams::wifi_like();
        assert!(p.tail_time_s() < 2.0);
        assert!(p.full_tail_energy_j() < 1.0);
    }

    #[test]
    fn lte_tail_is_cheaper_than_3g_but_not_free() {
        let lte = RadioParams::lte_drx();
        let umts = RadioParams::galaxy_s4_3g();
        assert!(lte.full_tail_energy_j() < umts.full_tail_energy_j() / 3.0);
        assert!(lte.full_tail_energy_j() > 1.0);
        // Ordering constraint still holds (builder-level invariant).
        assert!(lte.idle_mw() <= lte.fach_mw() && lte.fach_mw() <= lte.dch_mw());
    }

    #[test]
    fn serde_roundtrip() {
        let p = RadioParams::galaxy_s4_3g();
        let json = serde_json::to_string(&p).unwrap();
        let back: RadioParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn builder_sets_and_validates_promotion_latencies() {
        let p = RadioParams::builder()
            .promotion_idle_to_dch_s(2.0)
            .promotion_fach_to_dch_s(1.5)
            .build()
            .unwrap();
        assert_eq!(p.promotion_idle_to_dch_s(), 2.0);
        assert_eq!(p.promotion_fach_to_dch_s(), 1.5);
        let err = RadioParams::builder()
            .promotion_fach_to_dch_s(-1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, RadioError::InvalidDuration { .. }));
    }
}
