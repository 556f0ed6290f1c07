//! Parameter sweeps behind the paper's figures: Θ sweeps (Fig. 7(a),
//! Fig. 10(b)), E-D panels (Fig. 7(b), Fig. 8(a)), λ sweeps at matched
//! delay (Fig. 8(b)) and deadline sweeps (Fig. 10(c)).
//!
//! Every sweep is a thin wrapper over the deterministic parallel
//! [`RunGrid`]: points run concurrently (sharing one trace synthesis per
//! workload + seed) yet the returned vectors are bit-for-bit identical to
//! running each point serially in order. A sweep returns what
//! [`RunGrid::try_run`] returns: the lowest-index point that failed
//! validation or the strict oracle, if any.

use crate::metrics::RunReport;
use crate::runner::{RunError, RunGrid, RunSpec};
use crate::scenario::{Scenario, SchedulerKind};

/// One point on an energy–delay (E-D) panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdPoint {
    /// The knob value that produced the point (Θ, V, Ω, ...).
    pub knob: f64,
    /// Radio energy above idle, in joules.
    pub energy_j: f64,
    /// Normalized delay, in seconds.
    pub delay_s: f64,
}

impl From<(f64, &RunReport)> for EdPoint {
    fn from((knob, report): (f64, &RunReport)) -> Self {
        EdPoint {
            knob,
            energy_j: report.extra_energy_j,
            delay_s: report.normalized_delay_s,
        }
    }
}

/// One grid job per knob value, scenarios derived from `base` by `bind`.
fn knob_grid(
    base: &Scenario,
    knob_values: &[f64],
    bind: impl Fn(f64, Scenario) -> Scenario,
) -> RunGrid {
    RunGrid::from_specs(
        knob_values
            .iter()
            .map(|&knob| RunSpec::with_knob(format!("knob={knob}"), knob, bind(knob, base.clone())))
            .collect(),
    )
}

/// Runs `base` once per Θ value with the eTrain scheduler (Fig. 7(a)).
///
/// # Errors
///
/// Returns the first failing point, as [`RunGrid::try_run`] does.
pub fn theta_sweep(
    base: &Scenario,
    thetas: &[f64],
    k: Option<usize>,
) -> Result<Vec<(f64, RunReport)>, RunError> {
    let grid = knob_grid(base, thetas, |theta, s| {
        s.scheduler(SchedulerKind::ETrain { theta, k })
    });
    Ok(thetas.iter().copied().zip(grid.try_run()?).collect())
}

/// Runs `base` once per shared deadline value (Fig. 10(c)).
///
/// # Errors
///
/// Returns the first failing point, as [`RunGrid::try_run`] does.
pub fn deadline_sweep(
    base: &Scenario,
    deadlines_s: &[f64],
) -> Result<Vec<(f64, RunReport)>, RunError> {
    let grid = knob_grid(base, deadlines_s, |d, s| s.shared_deadline(d));
    Ok(deadlines_s.iter().copied().zip(grid.try_run()?).collect())
}

/// Traces one algorithm's E-D curve by sweeping its knob: each knob value
/// is mapped to a [`SchedulerKind`] by `make` and run on `base`.
///
/// # Errors
///
/// Returns the first failing point, as [`RunGrid::try_run`] does.
pub fn ed_curve(
    base: &Scenario,
    knob_values: &[f64],
    make: impl Fn(f64) -> SchedulerKind,
) -> Result<Vec<EdPoint>, RunError> {
    let grid = knob_grid(base, knob_values, |knob, s| s.scheduler(make(knob)));
    Ok(knob_values
        .iter()
        .zip(grid.try_run()?)
        .map(|(&knob, report)| EdPoint::from((knob, &report)))
        .collect())
}

/// Picks the knob value whose run's normalized delay lands closest to
/// `target_delay_s`, returning that run (the paper's Fig. 8(b) methodology:
/// "with the same normalized delay as 55 seconds ... by picking the right
/// value of Ω, V and Θ").
///
/// Returns `Ok(None)` if `knob_values` is empty.
///
/// # Errors
///
/// Returns the first failing point, as [`RunGrid::try_run`] does.
pub fn match_delay(
    base: &Scenario,
    knob_values: &[f64],
    make: impl Fn(f64) -> SchedulerKind,
    target_delay_s: f64,
) -> Result<Option<(f64, RunReport)>, RunError> {
    let grid = knob_grid(base, knob_values, |knob, s| s.scheduler(make(knob)));
    Ok(knob_values
        .iter()
        .copied()
        .zip(grid.try_run()?)
        .min_by(|a, b| {
            let da = (a.1.normalized_delay_s - target_delay_s).abs();
            let db = (b.1.normalized_delay_s - target_delay_s).abs();
            da.total_cmp(&db)
        }))
}

/// Log-spaced values in `[lo, hi]` (inclusive), used for knob scans.
///
/// # Panics
///
/// Panics if `lo` or `hi` is not strictly positive, `lo > hi`, or
/// `n < 2`.
pub fn log_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > 0.0, "log spacing needs positive bounds");
    assert!(lo <= hi, "lower bound must not exceed upper bound");
    assert!(n >= 2, "need at least two points");
    let (ln_lo, ln_hi) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (ln_lo + (ln_hi - ln_lo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Linearly spaced values in `[lo, hi]` (inclusive).
///
/// # Panics
///
/// Panics if `n < 2` or `lo > hi`.
pub fn lin_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2, "need at least two points");
    assert!(lo <= hi, "lower bound must not exceed upper bound");
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_base() -> Scenario {
        Scenario::paper_default().duration_secs(900).seed(5)
    }

    #[test]
    fn theta_sweep_produces_one_report_per_theta() {
        let sweep = theta_sweep(&quick_base(), &[0.0, 1.0], None).unwrap();
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0].0, 0.0);
        assert_eq!(sweep[1].0, 1.0);
    }

    #[test]
    fn larger_theta_never_reduces_delay() {
        let sweep = theta_sweep(&quick_base(), &[0.0, 2.0], None).unwrap();
        assert!(
            sweep[1].1.normalized_delay_s >= sweep[0].1.normalized_delay_s - 1.0,
            "Θ=2 delay {} vs Θ=0 delay {}",
            sweep[1].1.normalized_delay_s,
            sweep[0].1.normalized_delay_s
        );
    }

    #[test]
    fn ed_curve_tracks_knob() {
        let points = ed_curve(&quick_base(), &[10_000.0, 500_000.0], |v| {
            SchedulerKind::ETime { v_bytes: v }
        })
        .unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[0].knob < points[1].knob);
    }

    #[test]
    fn match_delay_picks_closest() {
        let result = match_delay(
            &quick_base(),
            &[0.0, 0.5, 1.5],
            |theta| SchedulerKind::ETrain { theta, k: None },
            30.0,
        )
        .unwrap();
        let (_, report) = result.expect("non-empty knob list");
        // The chosen report must be at least as close as every other knob.
        for theta in [0.0, 0.5, 1.5] {
            let other = quick_base()
                .scheduler(SchedulerKind::ETrain { theta, k: None })
                .run();
            assert!(
                (report.normalized_delay_s - 30.0).abs()
                    <= (other.normalized_delay_s - 30.0).abs() + 1e-9
            );
        }
    }

    #[test]
    fn match_delay_empty_is_none() {
        let result = match_delay(
            &quick_base(),
            &[],
            |theta| SchedulerKind::ETrain { theta, k: None },
            30.0,
        );
        assert_eq!(result, Ok(None));
    }

    #[test]
    fn spacing_helpers() {
        let lin = lin_space(0.0, 3.0, 4);
        assert_eq!(lin, vec![0.0, 1.0, 2.0, 3.0]);
        let log = log_space(1.0, 100.0, 3);
        assert!((log[0] - 1.0).abs() < 1e-9);
        assert!((log[1] - 10.0).abs() < 1e-9);
        assert!((log[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive bounds")]
    fn log_space_rejects_zero() {
        let _ = log_space(0.0, 1.0, 3);
    }

    #[test]
    fn a_failing_point_is_the_sweeps_error() {
        let err = theta_sweep(&quick_base().duration_secs(0), &[0.0, 1.0], None).unwrap_err();
        assert!(
            matches!(
                &err,
                RunError::Scenario { index: 0, label, .. } if label == "knob=0"
            ),
            "{err:?}"
        );
    }

    #[test]
    fn deadline_sweep_runs_each_shared_deadline() {
        let sweep = deadline_sweep(&quick_base(), &[10.0, 120.0]).unwrap();
        let deadlines: Vec<f64> = sweep.iter().map(|(d, _)| *d).collect();
        assert_eq!(deadlines, [10.0, 120.0]);
        assert_eq!(sweep[1].1, quick_base().shared_deadline(120.0).run());
    }
}
