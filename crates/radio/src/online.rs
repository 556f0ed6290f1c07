use crate::params::RadioParams;
use crate::tail::tail_energy_j;
use crate::timeline::RrcState;

/// Online RRC state machine with incremental energy accounting.
///
/// [`Radio`] is the event-driven counterpart of [`Timeline`]: a simulator
/// drives it forward with [`Radio::advance_to`] and brackets busy periods
/// with [`Radio::start_transmission`] / [`Radio::end_transmission`]. Energy
/// above idle is accrued continuously and split into *transmission* energy
/// (accrued while busy) and *tail* energy (accrued while lingering in DCH or
/// FACH after a transmission) — the two components the paper's evaluation
/// reports separately.
///
/// Property tests in this crate assert that driving a [`Radio`] with a
/// transmission schedule yields the same total as
/// [`Timeline::extra_energy_j`].
///
/// [`Timeline`]: crate::Timeline
/// [`Timeline::extra_energy_j`]: crate::Timeline::extra_energy_j
///
/// # Examples
///
/// ```
/// use etrain_radio::{Radio, RadioParams, RrcState};
///
/// let mut radio = Radio::new(RadioParams::galaxy_s4_3g());
/// radio.start_transmission(10.0);
/// radio.end_transmission(11.0);
/// radio.advance_to(100.0);
/// assert_eq!(radio.state(), RrcState::Idle);
/// // 1 s of busy DCH plus one full wasted tail:
/// let expected = 0.7 + radio.params().full_tail_energy_j();
/// assert!((radio.extra_energy_j() - expected).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Radio {
    params: RadioParams,
    now_s: f64,
    busy: bool,
    last_tx_end_s: Option<f64>,
    transmission_energy_j: f64,
    tail_energy_j: f64,
    busy_time_s: f64,
    promotions: usize,
}

impl Radio {
    /// Creates an idle radio at time 0.
    pub fn new(params: RadioParams) -> Self {
        Radio {
            params,
            now_s: 0.0,
            busy: false,
            last_tx_end_s: None,
            transmission_energy_j: 0.0,
            tail_energy_j: 0.0,
            busy_time_s: 0.0,
            promotions: 0,
        }
    }

    /// The radio's parameter set.
    pub fn params(&self) -> &RadioParams {
        &self.params
    }

    /// Current simulation time in seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Whether a transmission is in progress.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Current RRC state.
    pub fn state(&self) -> RrcState {
        if self.busy {
            return RrcState::Dch;
        }
        match self.last_tx_end_s {
            None => RrcState::Idle,
            Some(end) => {
                let elapsed = self.now_s - end;
                if elapsed < self.params.delta_dch_s() {
                    RrcState::Dch
                } else if elapsed < self.params.tail_time_s() {
                    RrcState::Fach
                } else {
                    RrcState::Idle
                }
            }
        }
    }

    /// Advances the clock to `t_s`, accruing energy for the elapsed span.
    ///
    /// # Panics
    ///
    /// Panics if `t_s` is earlier than the current time or not finite
    /// (time must be monotone in an event-driven simulation).
    pub fn advance_to(&mut self, t_s: f64) {
        assert!(t_s.is_finite(), "time must be finite");
        assert!(
            t_s >= self.now_s - 1e-12,
            "time must not go backwards: {} -> {}",
            self.now_s,
            t_s
        );
        let t_s = t_s.max(self.now_s);
        if self.busy {
            let dt = t_s - self.now_s;
            self.transmission_energy_j += self.params.dch_extra_mw() / 1000.0 * dt;
            self.busy_time_s += dt;
        } else if let Some(end) = self.last_tx_end_s {
            // Cumulative tail energy from the end of the last transmission:
            // E_tail(Δ) is exactly the integral of the tail power profile.
            let before = tail_energy_j(&self.params, self.now_s - end);
            let after = tail_energy_j(&self.params, t_s - end);
            self.tail_energy_j += after - before;
        }
        self.now_s = t_s;
    }

    /// Marks the start of a transmission at `t_s` (advancing the clock).
    ///
    /// Starting while already busy is allowed and is a no-op besides the
    /// clock advance: overlapping logical transfers share the channel.
    ///
    /// # Panics
    ///
    /// Panics if `t_s` is earlier than the current time.
    pub fn start_transmission(&mut self, t_s: f64) {
        self.advance_to(t_s);
        if !self.busy && self.state() == RrcState::Idle {
            // IDLE→DCH state promotion: the signaling event fast dormancy
            // multiplies (paper Sec. VII) and the tail exists to avoid.
            self.promotions += 1;
        }
        self.busy = true;
    }

    /// Marks the end of the in-progress transmission at `t_s`.
    ///
    /// # Panics
    ///
    /// Panics if the radio is not busy, or if `t_s` is earlier than the
    /// current time.
    pub fn end_transmission(&mut self, t_s: f64) {
        assert!(self.busy, "end_transmission called while not transmitting");
        self.advance_to(t_s);
        self.busy = false;
        self.last_tx_end_s = Some(self.now_s);
    }

    /// Extra energy above idle accrued while transmitting, in joules.
    pub fn transmission_energy_j(&self) -> f64 {
        self.transmission_energy_j
    }

    /// Extra energy above idle accrued in tails, in joules.
    pub fn tail_energy_j(&self) -> f64 {
        self.tail_energy_j
    }

    /// Total extra energy above idle, in joules.
    pub fn extra_energy_j(&self) -> f64 {
        self.transmission_energy_j + self.tail_energy_j
    }

    /// Total energy including the idle baseline since time 0, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.extra_energy_j() + self.params.idle_mw() / 1000.0 * self.now_s
    }

    /// Cumulative time spent transmitting, in seconds.
    pub fn busy_time_s(&self) -> f64 {
        self.busy_time_s
    }

    /// Number of IDLE→DCH state promotions so far. Each promotion is a
    /// signaling event with real latency on a 3G network; the tail
    /// mechanism exists to bound this count, and "fast dormancy" trades
    /// tail energy for more promotions (paper Sec. VII).
    pub fn promotions(&self) -> usize {
        self.promotions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{Timeline, Transmission};

    fn params() -> RadioParams {
        RadioParams::galaxy_s4_3g()
    }

    #[test]
    fn fresh_radio_is_idle_and_free() {
        let mut radio = Radio::new(params());
        radio.advance_to(1000.0);
        assert_eq!(radio.state(), RrcState::Idle);
        assert_eq!(radio.extra_energy_j(), 0.0);
        assert!((radio.total_energy_j() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn state_walks_through_tail_phases() {
        let mut radio = Radio::new(params());
        radio.start_transmission(0.0);
        assert_eq!(radio.state(), RrcState::Dch);
        radio.end_transmission(1.0);
        radio.advance_to(5.0);
        assert_eq!(radio.state(), RrcState::Dch);
        radio.advance_to(13.0);
        assert_eq!(radio.state(), RrcState::Fach);
        radio.advance_to(19.0);
        assert_eq!(radio.state(), RrcState::Idle);
    }

    #[test]
    fn energy_split_between_transmission_and_tail() {
        let mut radio = Radio::new(params());
        radio.start_transmission(0.0);
        radio.end_transmission(2.0);
        radio.advance_to(100.0);
        assert!((radio.transmission_energy_j() - 1.4).abs() < 1e-9);
        assert!((radio.tail_energy_j() - params().full_tail_energy_j()).abs() < 1e-9);
        assert!((radio.busy_time_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reused_tail_accrues_partial_energy() {
        let mut radio = Radio::new(params());
        radio.start_transmission(0.0);
        radio.end_transmission(1.0);
        // Second transmission 4 s later: only 4 s of DCH tail paid.
        radio.start_transmission(5.0);
        radio.end_transmission(6.0);
        radio.advance_to(200.0);
        let expected_tail = 0.7 * 4.0 + params().full_tail_energy_j();
        assert!((radio.tail_energy_j() - expected_tail).abs() < 1e-9);
    }

    #[test]
    fn online_matches_offline_timeline() {
        let p = params();
        let txs = [
            Transmission::new(2.0, 0.5),
            Transmission::new(8.0, 1.5),
            Transmission::new(40.0, 0.2),
            Transmission::new(52.0, 0.3),
        ];
        let horizon = 300.0;
        let mut radio = Radio::new(p.clone());
        for tx in &txs {
            radio.start_transmission(tx.start_s);
            radio.end_transmission(tx.end_s());
        }
        radio.advance_to(horizon);
        let timeline = Timeline::from_transmissions(&p, &txs, horizon);
        assert!(
            (radio.extra_energy_j() - timeline.extra_energy_j()).abs() < 1e-9,
            "online {} vs offline {}",
            radio.extra_energy_j(),
            timeline.extra_energy_j()
        );
    }

    #[test]
    fn overlapping_start_is_tolerated() {
        let mut radio = Radio::new(params());
        radio.start_transmission(0.0);
        radio.start_transmission(0.5); // logical overlap
        radio.end_transmission(1.0);
        radio.advance_to(50.0);
        assert!((radio.transmission_energy_j() - 0.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time must not go backwards")]
    fn time_travel_panics() {
        let mut radio = Radio::new(params());
        radio.advance_to(10.0);
        radio.advance_to(5.0);
    }

    #[test]
    #[should_panic(expected = "not transmitting")]
    fn end_without_start_panics() {
        let mut radio = Radio::new(params());
        radio.end_transmission(1.0);
    }

    #[test]
    fn is_busy_brackets_a_transmission() {
        let mut radio = Radio::new(params());
        assert!(!radio.is_busy());
        radio.start_transmission(5.0);
        assert!(radio.is_busy());
        radio.end_transmission(6.0);
        assert!(!radio.is_busy());
        assert_eq!(radio.state(), RrcState::Dch, "the tail is not busy time");
    }
}
