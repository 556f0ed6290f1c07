use serde::{Deserialize, Serialize};

use crate::error::RadioError;
use crate::params::RadioParams;
use crate::power::PowerTrace;
use crate::tail::{busy_extra_energy_j, merge_busy_periods};

/// RRC power state of the cellular interface (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RrcState {
    /// Low-power idle state (no channel allocated).
    Idle,
    /// Moderate-power Forward Access Channel state.
    Fach,
    /// High-power Dedicated Channel state (transmitting, or DCH tail).
    Dch,
}

impl RrcState {
    /// Absolute device power of this state in milliwatts.
    pub fn power_mw(self, params: &RadioParams) -> f64 {
        match self {
            RrcState::Idle => params.idle_mw(),
            RrcState::Fach => params.fach_mw(),
            RrcState::Dch => params.dch_mw(),
        }
    }

    /// Power above idle in milliwatts (0 for [`RrcState::Idle`]).
    pub fn extra_power_mw(self, params: &RadioParams) -> f64 {
        self.power_mw(params) - params.idle_mw()
    }
}

impl std::fmt::Display for RrcState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RrcState::Idle => "IDLE",
            RrcState::Fach => "FACH",
            RrcState::Dch => "DCH",
        };
        f.write_str(name)
    }
}

/// One data or heartbeat transmission occupying the radio.
///
/// `start_s` is when the transmission begins (seconds since the start of the
/// scenario) and `duration_s` how long it keeps the radio busy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transmission {
    /// Start time in seconds.
    pub start_s: f64,
    /// Busy duration in seconds.
    pub duration_s: f64,
}

impl Transmission {
    /// Creates a transmission starting at `start_s` lasting `duration_s`.
    pub fn new(start_s: f64, duration_s: f64) -> Self {
        Transmission {
            start_s,
            duration_s,
        }
    }

    /// End time of the transmission in seconds.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.duration_s
    }

    /// Validates that the transmission has finite, non-negative timing.
    ///
    /// # Errors
    ///
    /// Returns [`RadioError::InvalidTransmission`] on negative or non-finite
    /// start/duration.
    pub fn validate(&self) -> Result<(), RadioError> {
        if !self.start_s.is_finite()
            || !self.duration_s.is_finite()
            || self.start_s < 0.0
            || self.duration_s < 0.0
        {
            return Err(RadioError::InvalidTransmission {
                start_s: self.start_s,
                duration_s: self.duration_s,
            });
        }
        Ok(())
    }
}

/// A maximal interval during which the radio stays in one state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StateSegment {
    /// Segment start time in seconds.
    pub start_s: f64,
    /// Segment end time in seconds.
    pub end_s: f64,
    /// The state held throughout the segment.
    pub state: RrcState,
}

impl StateSegment {
    /// Length of the segment in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Offline RRC state timeline over `[0, horizon_s]` derived from a set of
/// transmissions.
///
/// The timeline applies the demotion rules of the paper's Fig. 4: the radio
/// is in DCH while busy and for δ_D afterwards, in FACH for the following
/// δ_F, then IDLE — unless another transmission re-promotes it. It is the
/// reproduction's stand-in for the Monsoon power-monitor capture: exact
/// piecewise energy integration plus sampled [`PowerTrace`] export.
///
/// # Examples
///
/// ```
/// use etrain_radio::{RadioParams, RrcState, Timeline, Transmission};
///
/// let p = RadioParams::galaxy_s4_3g();
/// let tl = Timeline::from_transmissions(&p, &[Transmission::new(10.0, 2.0)], 60.0);
/// assert_eq!(tl.state_at(5.0), RrcState::Idle);
/// assert_eq!(tl.state_at(11.0), RrcState::Dch);
/// assert_eq!(tl.state_at(25.0), RrcState::Fach); // 13 s after tx end
/// assert_eq!(tl.state_at(40.0), RrcState::Idle);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    params: RadioParams,
    horizon_s: f64,
    segments: Vec<StateSegment>,
}

impl Timeline {
    /// Builds the timeline for `transmissions` over `[0, horizon_s]`.
    ///
    /// Transmissions may be unsorted and overlapping; they are merged into
    /// busy periods first. Transmissions at or beyond the horizon are
    /// ignored; one straddling the horizon is clipped.
    pub fn from_transmissions(
        params: &RadioParams,
        transmissions: &[Transmission],
        horizon_s: f64,
    ) -> Self {
        Timeline::from_busy(
            params,
            &merge_busy_periods(transmissions, horizon_s),
            horizon_s,
        )
    }

    /// The timeline over busy periods already merged by
    /// [`merge_busy_periods`].
    fn from_busy(params: &RadioParams, busy: &[(f64, f64)], horizon_s: f64) -> Self {
        Timeline {
            params: params.clone(),
            horizon_s,
            segments: build_segments(params, busy, horizon_s),
        }
    }

    /// The parameter set the timeline was built with.
    pub fn params(&self) -> &RadioParams {
        &self.params
    }

    /// The horizon (scenario length) in seconds.
    pub fn horizon_s(&self) -> f64 {
        self.horizon_s
    }

    /// The state segments in chronological order, covering `[0, horizon_s]`
    /// without gaps.
    pub fn segments(&self) -> &[StateSegment] {
        &self.segments
    }

    /// State held at time `t` (the state of the segment containing `t`;
    /// boundaries resolve to the later segment).
    pub fn state_at(&self, t_s: f64) -> RrcState {
        let idx = self
            .segments
            .partition_point(|seg| seg.end_s <= t_s)
            .min(self.segments.len().saturating_sub(1));
        self.segments.get(idx).map_or(RrcState::Idle, |s| s.state)
    }

    /// Exact extra energy above idle over the whole horizon, in joules.
    pub fn extra_energy_j(&self) -> f64 {
        self.segments
            .iter()
            .map(|seg| seg.state.extra_power_mw(&self.params) / 1000.0 * seg.duration_s())
            .sum()
    }

    /// Exact total energy including the idle baseline, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.extra_energy_j() + self.params.idle_mw() / 1000.0 * self.horizon_s
    }

    /// Total time spent in `state`, in seconds.
    pub fn time_in_state_s(&self, state: RrcState) -> f64 {
        self.segments
            .iter()
            .filter(|seg| seg.state == state)
            .map(StateSegment::duration_s)
            .sum()
    }

    /// Time spent in every state — `[Idle, Fach, Dch]` — in one pass over
    /// the segments: the batched counterpart of three
    /// [`Timeline::time_in_state_s`] calls. Bit-for-bit identical, because
    /// each state's durations accumulate in the same segment order as the
    /// per-state filter.
    pub fn time_in_states_s(&self) -> [f64; 3] {
        let mut totals = [0.0f64; 3];
        for seg in &self.segments {
            let slot = match seg.state {
                RrcState::Idle => 0,
                RrcState::Fach => 1,
                RrcState::Dch => 2,
            };
            totals[slot] += seg.duration_s();
        }
        totals
    }

    /// Samples the absolute device power every `dt_s` seconds, producing the
    /// software analogue of a power-monitor capture.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not strictly positive.
    pub fn sample(&self, dt_s: f64) -> PowerTrace {
        let mut samples = Vec::new();
        self.sample_into(dt_s, &mut samples);
        PowerTrace::new(dt_s, samples)
    }

    /// [`Timeline::sample`] into a caller-owned buffer (cleared first), so
    /// repeated sampling reuses the allocation. One linear walk over the
    /// segments — O(segments + samples) instead of the per-sample binary
    /// search's O(samples · log segments) — and bit-for-bit identical to
    /// per-sample [`Timeline::state_at`] lookups: the walk advances on the
    /// same `end_s <= t` boundary predicate, clamps to the final segment,
    /// and evaluates each probe at the same `i as f64 * dt_s` instant.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not strictly positive.
    pub fn sample_into(&self, dt_s: f64, samples_mw: &mut Vec<f64>) {
        assert!(dt_s > 0.0, "sampling interval must be positive");
        samples_mw.clear();
        let n = (self.horizon_s / dt_s).ceil() as usize;
        samples_mw.reserve(n);
        let params = &self.params;
        let segs = self.segments.as_slice();
        let mut idx = 0usize;
        // `power_mw` is a pure function of `(state, params)`, so memoizing
        // it per segment (instead of recomputing per sample) emits the
        // exact same f64 for every sample. `next_end` keeps the advance
        // predicate in a register: it equals `segs[idx].end_s` while a
        // later segment exists and `∞` on the final (clamping) segment, so
        // `next_end <= t` is exactly the walk's
        // `idx + 1 < len && segs[idx].end_s <= t` gate.
        let mut current_mw = segs
            .first()
            .map_or(RrcState::Idle, |s| s.state)
            .power_mw(params);
        let mut next_end = if segs.len() > 1 {
            segs[0].end_s
        } else {
            f64::INFINITY
        };
        samples_mw.extend((0..n).map(|i| {
            let t = i as f64 * dt_s;
            if next_end <= t {
                while idx + 1 < segs.len() && segs[idx].end_s <= t {
                    idx += 1;
                }
                current_mw = segs[idx].state.power_mw(params);
                next_end = if idx + 1 < segs.len() {
                    segs[idx].end_s
                } else {
                    f64::INFINITY
                };
            }
            current_mw
        }));
    }

    /// Builds the timeline for `transmissions` and audits it against them,
    /// merging the busy periods once for both: the construction and
    /// [`audit_segments`]' re-derivation read the same
    /// [`merge_busy_periods`] list, which is returned for callers that
    /// check it too. The audit also checks that [`Timeline::state_at`]
    /// agrees with the segment containing each segment's midpoint, and
    /// counts its individual checks.
    ///
    /// The audit is the first [`TimelineAuditError`] found, if any.
    pub fn audited(
        params: &RadioParams,
        transmissions: &[Transmission],
        horizon_s: f64,
    ) -> (Self, Vec<(f64, f64)>, Result<usize, TimelineAuditError>) {
        let busy = merge_busy_periods(transmissions, horizon_s);
        let timeline = Timeline::from_busy(params, &busy, horizon_s);
        let audit = audit_merged(params, &timeline.segments, transmissions, &busy, horizon_s)
            .and_then(|checks| timeline.audit_lookups(checks));
        (timeline, busy, audit)
    }

    /// Adds one check per segment that [`Timeline::state_at`] at its
    /// midpoint returns its state.
    fn audit_lookups(&self, mut checks: usize) -> Result<usize, TimelineAuditError> {
        for (index, seg) in self.segments.iter().enumerate() {
            let mid = 0.5 * (seg.start_s + seg.end_s);
            let looked_up = self.state_at(mid);
            checks += 1;
            if looked_up != seg.state {
                return Err(TimelineAuditError::LookupMismatch {
                    index,
                    at_s: mid,
                    segment_state: seg.state,
                    lookup_state: looked_up,
                });
            }
        }
        Ok(checks)
    }
}

/// Appends one segment, skipping empty spans and merging into the
/// previous segment when the state matches across an (effectively) shared
/// boundary. Merging *during* construction produces exactly the list the
/// old two-phase build-then-merge produced: the same non-empty segment
/// sequence is folded left-to-right under the same
/// `state == state && |last.end − start| < 1e-12` rule.
fn push_segment(segments: &mut Vec<StateSegment>, start: f64, end: f64, state: RrcState) {
    if end <= start {
        return;
    }
    if let Some(last) = segments.last_mut() {
        if last.state == state && (last.end_s - start).abs() < 1e-12 {
            last.end_s = end;
            return;
        }
    }
    segments.push(StateSegment {
        start_s: start,
        end_s: end,
        state,
    });
}

/// Builds the merged segment list for pre-merged busy periods.
fn build_segments(params: &RadioParams, busy: &[(f64, f64)], horizon_s: f64) -> Vec<StateSegment> {
    // Each busy period adds at most four segments (IDLE, DCH, FACH, IDLE).
    let mut segments = Vec::with_capacity(4 * busy.len() + 1);
    let mut cursor = 0.0;
    let dd = params.delta_dch_s();
    let df = params.delta_fach_s();
    for (idx, &(start, end)) in busy.iter().enumerate() {
        push_segment(&mut segments, cursor, start, RrcState::Idle);
        // Busy period itself is DCH.
        push_segment(&mut segments, start, end, RrcState::Dch);
        let next_start = busy
            .get(idx + 1)
            .map_or(horizon_s, |&(next_start, _)| next_start);
        let dch_tail_end = (end + dd).min(next_start).min(horizon_s);
        push_segment(&mut segments, end, dch_tail_end, RrcState::Dch);
        let fach_end = (end + dd + df).min(next_start).min(horizon_s);
        push_segment(&mut segments, dch_tail_end, fach_end, RrcState::Fach);
        push_segment(
            &mut segments,
            fach_end,
            next_start.min(horizon_s),
            RrcState::Idle,
        );
        cursor = next_start;
    }
    push_segment(&mut segments, cursor, horizon_s, RrcState::Idle);
    segments
}

/// A violation found while auditing a state timeline.
///
/// Produced by [`audit_segments`] / [`Timeline::audited`]; the simulation
/// oracle in `etrain-sim` wraps these into its own violation type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TimelineAuditError {
    /// A logged transmission has negative or non-finite timing.
    BadTransmission {
        /// Index into the transmission log.
        index: usize,
        /// Start time of the offending transmission.
        start_s: f64,
        /// Duration of the offending transmission.
        duration_s: f64,
    },
    /// A segment has non-positive or non-finite duration.
    EmptySegment {
        /// Index into the segment list.
        index: usize,
        /// Segment start time.
        start_s: f64,
        /// Segment end time.
        end_s: f64,
    },
    /// The first segment does not start at t = 0, or the last does not end
    /// at the horizon, or adjacent segments leave a gap/overlap.
    CoverageGap {
        /// Index of the segment whose start is misplaced (0 for a bad
        /// first-segment start; `segments.len()` for a bad final end).
        index: usize,
        /// Where the previous segment ended (or 0.0 / horizon for the ends).
        expected_s: f64,
        /// Where this segment actually starts (or ends, for the final check).
        actual_s: f64,
    },
    /// A segment holds a state the RRC demotion rules do not allow at that
    /// time (e.g. a DCH tail truncated before δ_D elapsed).
    IllegalState {
        /// Index of the offending segment.
        index: usize,
        /// Probe time at which the states disagree.
        at_s: f64,
        /// State required by the demotion rules at `at_s`.
        expected: RrcState,
        /// State the segment claims.
        actual: RrcState,
    },
    /// Segment energy integration disagrees with the independent analytic
    /// tail model.
    EnergyMismatch {
        /// Extra energy summed over the segments, in joules.
        segment_sum_j: f64,
        /// Extra energy from [`analytic_extra_energy_j`](crate::analytic_extra_energy_j), in joules.
        analytic_j: f64,
        /// Tolerance that was exceeded, in joules.
        tolerance_j: f64,
    },
    /// `Timeline::state_at` disagrees with the segment containing the probe.
    LookupMismatch {
        /// Index of the probed segment.
        index: usize,
        /// Probe time.
        at_s: f64,
        /// State of the segment containing the probe.
        segment_state: RrcState,
        /// State `state_at` returned.
        lookup_state: RrcState,
    },
}

impl std::fmt::Display for TimelineAuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimelineAuditError::BadTransmission {
                index,
                start_s,
                duration_s,
            } => write!(
                f,
                "transmission #{index} has invalid timing (start {start_s} s, duration {duration_s} s)"
            ),
            TimelineAuditError::EmptySegment {
                index,
                start_s,
                end_s,
            } => write!(
                f,
                "segment #{index} is empty or inverted ([{start_s}, {end_s}] s)"
            ),
            TimelineAuditError::CoverageGap {
                index,
                expected_s,
                actual_s,
            } => write!(
                f,
                "segment #{index} breaks coverage: expected boundary at {expected_s} s, found {actual_s} s"
            ),
            TimelineAuditError::IllegalState {
                index,
                at_s,
                expected,
                actual,
            } => write!(
                f,
                "segment #{index} holds {actual} at {at_s} s where the demotion rules require {expected}"
            ),
            TimelineAuditError::EnergyMismatch {
                segment_sum_j,
                analytic_j,
                tolerance_j,
            } => write!(
                f,
                "segment energy {segment_sum_j} J disagrees with analytic model {analytic_j} J (tolerance {tolerance_j} J)"
            ),
            TimelineAuditError::LookupMismatch {
                index,
                at_s,
                segment_state,
                lookup_state,
            } => write!(
                f,
                "state_at({at_s}) returned {lookup_state} but segment #{index} holds {segment_state}"
            ),
        }
    }
}

impl std::error::Error for TimelineAuditError {}

/// Boundary tolerance for segment contiguity checks, in seconds.
const AUDIT_BOUNDARY_TOL_S: f64 = 1e-9;

/// State required by the RRC demotion rules at time `t`, derived directly
/// from the merged busy periods (independent of segment construction).
///
/// `next` is a cursor, the index of the first busy period that starts
/// after the previous probe. It steps forward or backward on the same
/// `start <= t` predicate that `busy.partition_point` bisects, so it stops
/// where that would for probes in any order, and a segment list's
/// ascending probes cost O(1) each instead of a binary search.
fn required_state(params: &RadioParams, busy: &[(f64, f64)], next: &mut usize, t: f64) -> RrcState {
    let started = |idx: usize| busy[idx].0 <= t;
    while *next < busy.len() && started(*next) {
        *next += 1;
    }
    while *next > 0 && !started(*next - 1) {
        *next -= 1;
    }
    if *next == 0 {
        return RrcState::Idle;
    }
    let (_, end) = busy[*next - 1];
    if t < end {
        return RrcState::Dch;
    }
    let gap = t - end;
    if gap < params.delta_dch_s() {
        RrcState::Dch
    } else if gap < params.delta_dch_s() + params.delta_fach_s() {
        RrcState::Fach
    } else {
        RrcState::Idle
    }
}

/// Audits a segment list against the transmissions that produced it,
/// re-deriving the legal RRC state from first principles.
///
/// Checks, in order: every transmission validates; segments are non-empty,
/// contiguous, non-overlapping and cover exactly `[0, horizon_s]`; each
/// segment's state matches the demotion rules (DCH while busy and for δ_D
/// after, FACH for the following δ_F, IDLE otherwise) at probes near its
/// start, middle and end; and the piecewise segment energy agrees with the
/// independent [`analytic_extra_energy_j`](crate::analytic_extra_energy_j)
/// closed form. Returns the number of individual checks performed. The
/// busy periods are merged once, and every probe and the closed form
/// read that one list.
///
/// The function is deliberately *not* implemented in terms of
/// [`Timeline::from_transmissions`] — it exists to catch regressions there.
///
/// # Errors
///
/// Returns the first [`TimelineAuditError`] encountered.
pub fn audit_segments(
    params: &RadioParams,
    segments: &[StateSegment],
    transmissions: &[Transmission],
    horizon_s: f64,
) -> Result<usize, TimelineAuditError> {
    let busy = merge_busy_periods(transmissions, horizon_s);
    audit_merged(params, segments, transmissions, &busy, horizon_s)
}

/// [`audit_segments`] with `busy` already merged from `transmissions` by
/// [`merge_busy_periods`].
fn audit_merged(
    params: &RadioParams,
    segments: &[StateSegment],
    transmissions: &[Transmission],
    busy: &[(f64, f64)],
    horizon_s: f64,
) -> Result<usize, TimelineAuditError> {
    let mut checks = 0usize;
    for (index, tx) in transmissions.iter().enumerate() {
        checks += 1;
        if tx.validate().is_err() {
            return Err(TimelineAuditError::BadTransmission {
                index,
                start_s: tx.start_s,
                duration_s: tx.duration_s,
            });
        }
    }

    if horizon_s <= 0.0 {
        return Ok(checks);
    }

    // Coverage: [0, horizon] partitioned without gaps or overlaps.
    let mut cursor = 0.0;
    for (index, seg) in segments.iter().enumerate() {
        checks += 2;
        if !seg.start_s.is_finite() || !seg.end_s.is_finite() || seg.end_s <= seg.start_s {
            return Err(TimelineAuditError::EmptySegment {
                index,
                start_s: seg.start_s,
                end_s: seg.end_s,
            });
        }
        if (seg.start_s - cursor).abs() > AUDIT_BOUNDARY_TOL_S {
            return Err(TimelineAuditError::CoverageGap {
                index,
                expected_s: cursor,
                actual_s: seg.start_s,
            });
        }
        cursor = seg.end_s;
    }
    checks += 1;
    if (cursor - horizon_s).abs() > AUDIT_BOUNDARY_TOL_S {
        return Err(TimelineAuditError::CoverageGap {
            index: segments.len(),
            expected_s: horizon_s,
            actual_s: cursor,
        });
    }

    // Legality: probe each segment near its start, middle and end against
    // the state the demotion rules require there.
    let mut next = 0;
    for (index, seg) in segments.iter().enumerate() {
        let eps = (seg.duration_s() * 0.25).min(1e-6);
        for t in [
            seg.start_s + eps,
            0.5 * (seg.start_s + seg.end_s),
            seg.end_s - eps,
        ] {
            checks += 1;
            let expected = required_state(params, busy, &mut next, t);
            if expected != seg.state {
                return Err(TimelineAuditError::IllegalState {
                    index,
                    at_s: t,
                    expected,
                    actual: seg.state,
                });
            }
        }
    }

    // Energy: piecewise segment integration vs the closed-form tail model.
    let segment_sum_j: f64 = segments
        .iter()
        .map(|seg| seg.state.extra_power_mw(params) / 1000.0 * seg.duration_s())
        .sum();
    let analytic_j = busy_extra_energy_j(params, busy, horizon_s);
    let tolerance_j = 1e-9 * (1.0 + busy.len() as f64);
    checks += 1;
    if (segment_sum_j - analytic_j).abs() > tolerance_j {
        return Err(TimelineAuditError::EnergyMismatch {
            segment_sum_j,
            analytic_j,
            tolerance_j,
        });
    }

    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tail::analytic_extra_energy_j;

    fn params() -> RadioParams {
        RadioParams::galaxy_s4_3g()
    }

    #[test]
    fn empty_schedule_is_all_idle() {
        let tl = Timeline::from_transmissions(&params(), &[], 100.0);
        assert_eq!(tl.segments().len(), 1);
        assert_eq!(tl.state_at(50.0), RrcState::Idle);
        assert_eq!(tl.extra_energy_j(), 0.0);
        assert!((tl.total_energy_j() - 2.0).abs() < 1e-9); // 20 mW * 100 s
    }

    #[test]
    fn lone_transmission_walks_through_all_states() {
        let tl = Timeline::from_transmissions(&params(), &[Transmission::new(10.0, 2.0)], 100.0);
        assert_eq!(tl.state_at(0.0), RrcState::Idle);
        assert_eq!(tl.state_at(10.5), RrcState::Dch); // busy
        assert_eq!(tl.state_at(15.0), RrcState::Dch); // DCH tail (ends 22.0)
        assert_eq!(tl.state_at(23.0), RrcState::Fach); // FACH tail (ends 29.5)
        assert_eq!(tl.state_at(30.0), RrcState::Idle);
    }

    #[test]
    fn transmissions_at_or_past_the_horizon_change_nothing() {
        let lone = [Transmission::new(10.0, 2.0)];
        let with_late = [
            Transmission::new(100.0, 5.0),
            Transmission::new(10.0, 2.0),
            Transmission::new(150.0, 1.0),
        ];
        assert_eq!(
            Timeline::from_transmissions(&params(), &with_late, 100.0),
            Timeline::from_transmissions(&params(), &lone, 100.0)
        );
    }

    #[test]
    fn back_to_back_transmissions_share_one_dch_segment() {
        let pair = [Transmission::new(10.0, 2.0), Transmission::new(12.0, 3.0)];
        let tl = Timeline::from_transmissions(&params(), &pair, 100.0);
        let states: Vec<RrcState> = tl.segments().iter().map(|s| s.state).collect();
        assert_eq!(
            states,
            vec![
                RrcState::Idle,
                RrcState::Dch,
                RrcState::Fach,
                RrcState::Idle
            ]
        );
        assert_eq!(tl.segments()[1].start_s, 10.0);
        assert_eq!(tl.segments()[1].end_s, 25.0); // 15 s busy end + 10 s DCH tail
        assert_eq!(
            tl,
            Timeline::from_transmissions(&params(), &[Transmission::new(10.0, 5.0)], 100.0)
        );
    }

    #[test]
    fn segments_cover_horizon_without_gaps() {
        let tl = Timeline::from_transmissions(
            &params(),
            &[Transmission::new(5.0, 1.0), Transmission::new(30.0, 0.5)],
            120.0,
        );
        let segs = tl.segments();
        assert_eq!(segs.first().unwrap().start_s, 0.0);
        assert_eq!(segs.last().unwrap().end_s, 120.0);
        for w in segs.windows(2) {
            assert!((w[0].end_s - w[1].start_s).abs() < 1e-12);
        }
    }

    #[test]
    fn timeline_energy_matches_analytic_model() {
        let p = params();
        let txs = [
            Transmission::new(3.0, 0.4),
            Transmission::new(9.0, 1.0), // reuses tail of first
            Transmission::new(100.0, 2.0),
            Transmission::new(114.0, 0.1), // lands in FACH phase
        ];
        let tl = Timeline::from_transmissions(&p, &txs, 500.0);
        let analytic = analytic_extra_energy_j(&p, &txs, 500.0);
        assert!(
            (tl.extra_energy_j() - analytic).abs() < 1e-9,
            "timeline {} vs analytic {}",
            tl.extra_energy_j(),
            analytic
        );
    }

    #[test]
    fn reused_tail_costs_less_than_two_full_tails() {
        let p = params();
        let shared = Timeline::from_transmissions(
            &p,
            &[Transmission::new(0.0, 0.2), Transmission::new(3.0, 0.2)],
            100.0,
        );
        let separate = Timeline::from_transmissions(
            &p,
            &[Transmission::new(0.0, 0.2), Transmission::new(50.0, 0.2)],
            100.0,
        );
        assert!(shared.extra_energy_j() < separate.extra_energy_j());
    }

    #[test]
    fn time_in_state_accounts_for_everything() {
        let tl = Timeline::from_transmissions(&params(), &[Transmission::new(10.0, 2.0)], 100.0);
        let total = tl.time_in_state_s(RrcState::Idle)
            + tl.time_in_state_s(RrcState::Fach)
            + tl.time_in_state_s(RrcState::Dch);
        assert!((total - 100.0).abs() < 1e-9);
        // 2 s busy + 10 s DCH tail.
        assert!((tl.time_in_state_s(RrcState::Dch) - 12.0).abs() < 1e-9);
        assert!((tl.time_in_state_s(RrcState::Fach) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn sampled_trace_energy_approximates_exact() {
        let p = params();
        let tl = Timeline::from_transmissions(
            &p,
            &[Transmission::new(7.0, 1.3), Transmission::new(40.0, 0.7)],
            200.0,
        );
        let trace = tl.sample(0.1);
        let exact = tl.total_energy_j();
        assert!(
            (trace.energy_j() - exact).abs() / exact < 0.01,
            "sampled {} vs exact {}",
            trace.energy_j(),
            exact
        );
    }

    #[test]
    fn empty_segment_power_integral_is_zero_not_nan() {
        // A zero-length horizon yields a timeline with *no* segments: every
        // integral must be 0 and every ratio NaN-guarded, never NaN/∞.
        let tl = Timeline::from_transmissions(&params(), &[], 0.0);
        assert!(tl.segments().is_empty());
        assert_eq!(tl.extra_energy_j(), 0.0);
        assert_eq!(tl.total_energy_j(), 0.0);
        assert_eq!(tl.time_in_states_s(), [0.0; 3]);
        let trace = tl.sample(0.1);
        assert!(trace.is_empty());
        assert_eq!(trace.energy_j(), 0.0);
        assert_eq!(tl.state_at(0.0), RrcState::Idle);
    }

    #[test]
    fn batched_state_times_match_per_state_sums() {
        let tl = Timeline::from_transmissions(
            &params(),
            &[Transmission::new(5.0, 1.0), Transmission::new(30.0, 0.5)],
            120.0,
        );
        let [idle, fach, dch] = tl.time_in_states_s();
        assert_eq!(idle, tl.time_in_state_s(RrcState::Idle));
        assert_eq!(fach, tl.time_in_state_s(RrcState::Fach));
        assert_eq!(dch, tl.time_in_state_s(RrcState::Dch));
    }

    #[test]
    fn sample_into_matches_state_at_lookups() {
        let tl = Timeline::from_transmissions(
            &params(),
            &[Transmission::new(7.0, 1.3), Transmission::new(40.0, 0.7)],
            200.0,
        );
        let mut buf = vec![999.0; 4]; // pre-dirtied: must be cleared
        tl.sample_into(0.7, &mut buf);
        let n = (200.0f64 / 0.7).ceil() as usize;
        assert_eq!(buf.len(), n);
        for (i, &got) in buf.iter().enumerate() {
            let want = tl.state_at(i as f64 * 0.7).power_mw(tl.params());
            assert_eq!(got.to_bits(), want.to_bits(), "sample {i}");
        }
    }

    #[test]
    fn transmission_validation() {
        assert!(Transmission::new(0.0, 1.0).validate().is_ok());
        assert!(Transmission::new(-1.0, 1.0).validate().is_err());
        assert!(Transmission::new(0.0, f64::INFINITY).validate().is_err());
    }

    #[test]
    fn state_display_names() {
        assert_eq!(RrcState::Idle.to_string(), "IDLE");
        assert_eq!(RrcState::Fach.to_string(), "FACH");
        assert_eq!(RrcState::Dch.to_string(), "DCH");
    }

    #[test]
    fn audit_accepts_well_formed_timelines() {
        let p = params();
        let txs = [
            Transmission::new(3.0, 0.4),
            Transmission::new(9.0, 1.0),
            Transmission::new(100.0, 2.0),
            Transmission::new(114.0, 0.1),
        ];
        let (tl, busy, audit) = Timeline::audited(&p, &txs, 500.0);
        let checks = audit.expect("well-formed timeline must pass");
        assert!(checks > tl.segments().len());
        assert_eq!(tl, Timeline::from_transmissions(&p, &txs, 500.0));
        assert_eq!(busy, merge_busy_periods(&txs, 500.0));

        assert!(Timeline::audited(&p, &[], 100.0).2.is_ok());
    }

    #[test]
    fn audit_catches_truncated_dch_tail() {
        let p = params();
        let txs = [Transmission::new(10.0, 2.0)];
        let tl = Timeline::from_transmissions(&p, &txs, 100.0);
        // Corrupt: cut the DCH tail short by 3 s, extending FACH to cover.
        let mut segments = tl.segments().to_vec();
        let dch = segments
            .iter()
            .position(|s| s.state == RrcState::Dch)
            .unwrap();
        segments[dch].end_s -= 3.0;
        segments[dch + 1].start_s -= 3.0;
        let err = audit_segments(&p, &segments, &txs, 100.0).unwrap_err();
        assert!(
            matches!(
                err,
                TimelineAuditError::IllegalState {
                    expected: RrcState::Dch,
                    actual: RrcState::Fach,
                    ..
                }
            ),
            "unexpected audit error: {err}"
        );
    }

    #[test]
    fn audit_catches_coverage_gap_and_empty_segment() {
        let p = params();
        let txs = [Transmission::new(10.0, 2.0)];
        let tl = Timeline::from_transmissions(&p, &txs, 100.0);

        let mut dropped = tl.segments().to_vec();
        dropped.remove(1);
        assert!(matches!(
            audit_segments(&p, &dropped, &txs, 100.0).unwrap_err(),
            TimelineAuditError::CoverageGap { .. }
        ));

        let mut inverted = tl.segments().to_vec();
        inverted[0].end_s = inverted[0].start_s;
        assert!(matches!(
            audit_segments(&p, &inverted, &txs, 100.0).unwrap_err(),
            TimelineAuditError::EmptySegment { index: 0, .. }
        ));
    }

    #[test]
    fn required_state_cursor_matches_a_binary_search_in_any_probe_order() {
        let p = params();
        let txs = [
            Transmission::new(3.0, 0.4),
            Transmission::new(9.0, 1.0),
            Transmission::new(40.0, 2.0),
            Transmission::new(41.0, 5.0),
            Transmission::new(100.0, 0.1),
        ];
        let busy = merge_busy_periods(&txs, 200.0);
        let searched = |t: f64| {
            let mut idx = busy.partition_point(|&(start, _)| start <= t);
            let state = required_state(&p, &busy, &mut idx, t);
            (idx, state)
        };
        let mut probes: Vec<f64> = (0..400).map(|i| i as f64 * 0.5 - 1.0).collect();
        probes.extend([
            3.0,
            9.0,
            40.0,
            100.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]);
        // Ascending, descending, then interleaved from both ends.
        let mut orders = vec![probes.clone()];
        orders.push(probes.iter().rev().copied().collect());
        orders.push(
            (0..probes.len())
                .map(|i| {
                    probes[if i % 2 == 0 {
                        i / 2
                    } else {
                        probes.len() - 1 - i / 2
                    }]
                })
                .collect(),
        );
        for order in orders {
            let mut next = 0;
            for t in order {
                let state = required_state(&p, &busy, &mut next, t);
                assert_eq!((next, state), searched(t), "probe {t}");
            }
        }
    }

    #[test]
    fn audit_catches_invalid_transmission_log() {
        let p = params();
        let txs = [Transmission::new(10.0, f64::NAN)];
        assert!(matches!(
            Timeline::audited(&p, &txs, 100.0).2.unwrap_err(),
            TimelineAuditError::BadTransmission { index: 0, .. }
        ));
    }

    #[test]
    fn audit_errors_render_human_readable() {
        let err = TimelineAuditError::IllegalState {
            index: 2,
            at_s: 15.0,
            expected: RrcState::Dch,
            actual: RrcState::Fach,
        };
        let text = err.to_string();
        assert!(text.contains("segment #2"), "{text}");
        assert!(text.contains("FACH"), "{text}");
    }

    #[test]
    fn extra_power_is_the_excess_over_idle() {
        let p = RadioParams::lte_drx();
        assert_eq!(RrcState::Idle.extra_power_mw(&p), 0.0);
        assert_eq!(RrcState::Fach.extra_power_mw(&p), 120.0);
        assert_eq!(RrcState::Dch.extra_power_mw(&p), 1_000.0);
    }

    #[test]
    fn aggregation_also_wins_on_the_lte_preset() {
        let lte = RadioParams::lte_drx();
        let extra = |starts: [f64; 3]| {
            let txs = starts.map(|t| Transmission::new(t, 0.5));
            Timeline::from_transmissions(&lte, &txs, 300.0).extra_energy_j()
        };
        let scattered = extra([0.0, 60.0, 120.0]);
        let aggregated = extra([120.0, 120.5, 121.0]);
        assert!(aggregated < scattered, "{aggregated} vs {scattered}");
    }

    #[test]
    fn moving_a_lone_transfer_in_time_costs_nothing_extra() {
        let p = params();
        let extra_at = |t: f64| {
            Timeline::from_transmissions(&p, &[Transmission::new(t, 0.5)], 200.0).extra_energy_j()
        };
        assert!((extra_at(10.0) - extra_at(90.0)).abs() < 1e-9);
    }
}
