use crate::params::RadioParams;
use crate::timeline::Transmission;

/// Closed-form tail-energy wastage `E_tail(Δ)` from the paper (Sec. III-A).
///
/// `gap_s` is the interval Δ between the end of one transmission and the
/// start of the next. The returned energy (joules, above idle) covers the
/// four cases of the paper's piecewise definition:
///
/// 1. `Δ ≤ 0` — the next transmission starts before this one ends: no tail;
/// 2. `0 < Δ ≤ δ_D` — re-used while still in DCH: `p̃_D·Δ`;
/// 3. `δ_D < Δ ≤ T_tail` — re-used in FACH: `p̃_D·δ_D + p̃_F·(Δ − δ_D)`;
/// 4. `Δ > T_tail` — full tail wasted: `p̃_D·δ_D + p̃_F·δ_F`.
///
/// # Examples
///
/// ```
/// use etrain_radio::{tail_energy_j, RadioParams};
///
/// let p = RadioParams::galaxy_s4_3g();
/// assert_eq!(tail_energy_j(&p, -1.0), 0.0);
/// assert!(tail_energy_j(&p, 5.0) < tail_energy_j(&p, 12.0));
/// assert_eq!(tail_energy_j(&p, 100.0), p.full_tail_energy_j());
/// ```
pub fn tail_energy_j(params: &RadioParams, gap_s: f64) -> f64 {
    let pd = params.dch_extra_mw() / 1000.0;
    let pf = params.fach_extra_mw() / 1000.0;
    let dd = params.delta_dch_s();
    let df = params.delta_fach_s();
    if gap_s <= 0.0 {
        0.0
    } else if gap_s <= dd {
        pd * gap_s
    } else if gap_s <= dd + df {
        pd * dd + pf * (gap_s - dd)
    } else {
        pd * dd + pf * df
    }
}

/// Analytic extra energy (above idle, joules) of a whole transmission
/// schedule: active DCH energy during the busy periods plus the tail energy
/// of every inter-transmission gap.
///
/// Overlapping or back-to-back transmissions are merged into busy periods
/// first, mirroring what the radio actually does. The last busy period's
/// tail is charged in full only if it fits before `horizon_s`; otherwise it
/// is truncated at the horizon (matching a measurement that stops sampling).
///
/// This is the closed-form counterpart of
/// [`Timeline::extra_energy_j`](crate::Timeline::extra_energy_j); property
/// tests assert the two agree.
///
/// # Examples
///
/// ```
/// use etrain_radio::{analytic_extra_energy_j, RadioParams, Transmission};
///
/// let p = RadioParams::galaxy_s4_3g();
/// let lone = analytic_extra_energy_j(&p, &[Transmission::new(0.0, 1.0)], 100.0);
/// let expected = 0.7 * 1.0 + p.full_tail_energy_j();
/// assert!((lone - expected).abs() < 1e-9);
/// ```
pub fn analytic_extra_energy_j(
    params: &RadioParams,
    transmissions: &[Transmission],
    horizon_s: f64,
) -> f64 {
    busy_extra_energy_j(
        params,
        &merge_busy_periods(transmissions, horizon_s),
        horizon_s,
    )
}

/// [`analytic_extra_energy_j`] over busy periods already merged by
/// [`merge_busy_periods`], so an audit that holds the merge does not
/// repeat it.
pub(crate) fn busy_extra_energy_j(
    params: &RadioParams,
    busy: &[(f64, f64)],
    horizon_s: f64,
) -> f64 {
    let pd = params.dch_extra_mw() / 1000.0;
    let mut energy = 0.0;
    for (idx, &(start, end)) in busy.iter().enumerate() {
        energy += pd * (end - start);
        let gap_end = busy
            .get(idx + 1)
            .map_or(horizon_s, |&(next_start, _)| next_start);
        energy += tail_energy_j(params, gap_end - end);
    }
    energy
}

/// Merges transmissions into disjoint, sorted busy periods clipped to
/// `[0, horizon_s]`.
///
/// Every derivation from a transmission log starts here: the timeline's
/// segments, the closed form, and the audit's required states.
/// [`crate::Timeline::audited`] merges once and returns the list, so the
/// simulation oracle checks busy time against the same merge.
pub fn merge_busy_periods(transmissions: &[Transmission], horizon_s: f64) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(transmissions.len());
    out.extend(
        transmissions
            .iter()
            .map(|t| (t.start_s, (t.start_s + t.duration_s).min(horizon_s)))
            .filter(|&(s, e)| e > s && s < horizon_s),
    );
    out.sort_by(|a, b| a.0.total_cmp(&b.0));
    // In-place merge: `write` trails the scan and compacts overlapping
    // intervals; `write - 1` is always the last merged interval, exactly
    // like `merged.last_mut()` in the reference formulation.
    let mut write = 0usize;
    for read in 0..out.len() {
        let (start, end) = out[read];
        if write > 0 && start <= out[write - 1].1 {
            let last = &mut out[write - 1];
            last.1 = last.1.max(end);
        } else {
            out[write] = (start, end);
            write += 1;
        }
    }
    out.truncate(write);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RadioParams {
        RadioParams::galaxy_s4_3g()
    }

    #[test]
    fn tail_energy_zero_for_nonpositive_gap() {
        assert_eq!(tail_energy_j(&params(), 0.0), 0.0);
        assert_eq!(tail_energy_j(&params(), -5.0), 0.0);
    }

    #[test]
    fn tail_energy_within_dch_phase() {
        // 4 s into the tail, still in DCH: 0.7 W * 4 s = 2.8 J.
        assert!((tail_energy_j(&params(), 4.0) - 2.8).abs() < 1e-12);
    }

    #[test]
    fn tail_energy_within_fach_phase() {
        // 12 s: full DCH (7 J) + 2 s FACH (0.9 J).
        assert!((tail_energy_j(&params(), 12.0) - 7.9).abs() < 1e-12);
    }

    #[test]
    fn tail_energy_saturates_at_full_tail() {
        let p = params();
        assert_eq!(tail_energy_j(&p, 17.5), p.full_tail_energy_j());
        assert_eq!(tail_energy_j(&p, 1e6), p.full_tail_energy_j());
    }

    #[test]
    fn tail_energy_is_continuous_at_breakpoints() {
        let p = params();
        let eps = 1e-9;
        for bp in [0.0, p.delta_dch_s(), p.tail_time_s()] {
            let below = tail_energy_j(&p, bp - eps);
            let above = tail_energy_j(&p, bp + eps);
            assert!((below - above).abs() < 1e-6, "discontinuity at {bp}");
        }
    }

    #[test]
    fn merge_handles_overlap_and_order() {
        let txs = [
            Transmission::new(10.0, 5.0),
            Transmission::new(0.0, 2.0),
            Transmission::new(12.0, 1.0), // inside the 10..15 busy period
            Transmission::new(15.0, 1.0), // back-to-back extension
        ];
        let merged = merge_busy_periods(&txs, 100.0);
        assert_eq!(merged, vec![(0.0, 2.0), (10.0, 16.0)]);
    }

    #[test]
    fn merge_clips_to_horizon() {
        let txs = [Transmission::new(90.0, 20.0), Transmission::new(200.0, 1.0)];
        let merged = merge_busy_periods(&txs, 100.0);
        assert_eq!(merged, vec![(90.0, 100.0)]);
    }

    #[test]
    fn merge_drops_empty_and_out_of_horizon_transmissions() {
        let txs = [
            Transmission::new(5.0, 0.0),   // zero length
            Transmission::new(100.0, 3.0), // starts exactly at the horizon
            Transmission::new(150.0, 1.0), // entirely past it
            Transmission::new(40.0, 2.0),
        ];
        assert_eq!(merge_busy_periods(&txs, 100.0), vec![(40.0, 42.0)]);
        assert!(merge_busy_periods(&[], 100.0).is_empty());
    }

    #[test]
    fn merge_collapses_nested_and_chained_overlaps() {
        // A chain whose links each overlap only the next one, listed out
        // of order, plus a transmission nested inside the first link: the
        // in-place compaction must extend the last kept period each time.
        let txs = [
            Transmission::new(24.0, 6.0),
            Transmission::new(20.0, 5.0),
            Transmission::new(21.0, 1.0),
            Transmission::new(29.0, 4.0),
            Transmission::new(33.5, 1.0),
        ];
        assert_eq!(
            merge_busy_periods(&txs, 100.0),
            vec![(20.0, 33.0), (33.5, 34.5)]
        );
    }

    #[test]
    fn analytic_energy_two_close_transmissions_share_tail() {
        let p = params();
        // Gap of 5 s: second transmission reuses the DCH tail.
        let e = analytic_extra_energy_j(
            &p,
            &[Transmission::new(0.0, 1.0), Transmission::new(6.0, 1.0)],
            1000.0,
        );
        let expected = 0.7 * 2.0 + tail_energy_j(&p, 5.0) + p.full_tail_energy_j();
        assert!((e - expected).abs() < 1e-9);
    }

    #[test]
    fn analytic_energy_empty_schedule_is_zero() {
        assert_eq!(analytic_extra_energy_j(&params(), &[], 1000.0), 0.0);
    }

    #[test]
    fn analytic_energy_truncates_final_tail_at_horizon() {
        let p = params();
        // Transmission ends at 1.0, horizon at 6.0: only 5 s of DCH tail fit.
        let e = analytic_extra_energy_j(&p, &[Transmission::new(0.0, 1.0)], 6.0);
        let expected = 0.7 * 1.0 + tail_energy_j(&p, 5.0);
        assert!((e - expected).abs() < 1e-9);
    }
}
