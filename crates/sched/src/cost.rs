//! Delay-cost profile functions (paper Sec. VI-A, Fig. 6).
//!
//! Each cargo app registers a profile `φ_u(d)` mapping a packet's queueing
//! delay `d` to a user-experience cost. The paper uses three shapes,
//! inspired by PerES [15]:
//!
//! - **f1 (Mail)** — free before the deadline, then linear:
//!   `f1(d) = d/deadline − 1` for `d ≥ deadline`;
//! - **f2 (Weibo)** — linear before the deadline, constant after:
//!   `f2(d) = d/deadline` for `d ≤ deadline`, else `2`;
//! - **f3 (Cloud)** — linear before the deadline, three times steeper after:
//!   `f3(d) = d/deadline` for `d ≤ deadline`, else `3·d/deadline − 2`.

use serde::{Deserialize, Serialize};

/// A delay-cost profile function `φ(d)`.
///
/// All variants are parameterized by a deadline in seconds. The generic
/// variants allow the ablation experiments to explore other shapes while the
/// three constructors reproduce the paper's profiles exactly.
///
/// # Examples
///
/// ```
/// use etrain_sched::CostProfile;
///
/// let mail = CostProfile::mail(60.0);
/// assert_eq!(mail.cost(30.0), 0.0);          // free before deadline
/// assert_eq!(mail.cost(120.0), 1.0);         // d/deadline − 1
///
/// let weibo = CostProfile::weibo(30.0);
/// assert_eq!(weibo.cost(15.0), 0.5);         // d/deadline
/// assert_eq!(weibo.cost(300.0), 2.0);        // capped
///
/// let cloud = CostProfile::cloud(60.0);
/// assert_eq!(cloud.cost(120.0), 4.0);        // 3·d/deadline − 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CostProfile {
    /// f1: zero before the deadline, `d/deadline − 1` after.
    DeadlineLinear {
        /// The deadline in seconds.
        deadline_s: f64,
    },
    /// f2: `d/deadline` before the deadline, a constant ceiling after.
    LinearThenConstant {
        /// The deadline in seconds.
        deadline_s: f64,
        /// The cost held after the deadline (paper: 2).
        ceiling: f64,
    },
    /// f3: `d/deadline` before the deadline,
    /// `steepness·d/deadline − (steepness − 1)` after.
    LinearThenSteep {
        /// The deadline in seconds.
        deadline_s: f64,
        /// The post-deadline slope multiplier (paper: 3).
        steepness: f64,
    },
}

impl CostProfile {
    /// The eTrain Mail profile f1 with the given deadline.
    ///
    /// # Panics
    ///
    /// Panics if `deadline_s` is not strictly positive.
    pub fn mail(deadline_s: f64) -> Self {
        assert!(deadline_s > 0.0, "deadline must be positive");
        CostProfile::DeadlineLinear { deadline_s }
    }

    /// The Luna Weibo profile f2 with the given deadline (ceiling 2).
    ///
    /// # Panics
    ///
    /// Panics if `deadline_s` is not strictly positive.
    pub fn weibo(deadline_s: f64) -> Self {
        assert!(deadline_s > 0.0, "deadline must be positive");
        CostProfile::LinearThenConstant {
            deadline_s,
            ceiling: 2.0,
        }
    }

    /// The eTrain Cloud profile f3 with the given deadline (steepness 3).
    ///
    /// # Panics
    ///
    /// Panics if `deadline_s` is not strictly positive.
    pub fn cloud(deadline_s: f64) -> Self {
        assert!(deadline_s > 0.0, "deadline must be positive");
        CostProfile::LinearThenSteep {
            deadline_s,
            steepness: 3.0,
        }
    }

    /// Evaluates `φ(d)` for a delay of `delay_s` seconds (clamped at 0 for
    /// negative delays).
    pub fn cost(&self, delay_s: f64) -> f64 {
        let d = delay_s.max(0.0);
        match *self {
            CostProfile::DeadlineLinear { deadline_s } => {
                if d < deadline_s {
                    0.0
                } else {
                    d / deadline_s - 1.0
                }
            }
            CostProfile::LinearThenConstant {
                deadline_s,
                ceiling,
            } => {
                if d <= deadline_s {
                    (d / deadline_s).min(ceiling)
                } else {
                    ceiling
                }
            }
            CostProfile::LinearThenSteep {
                deadline_s,
                steepness,
            } => {
                if d <= deadline_s {
                    d / deadline_s
                } else {
                    steepness * d / deadline_s - (steepness - 1.0)
                }
            }
        }
    }

    /// Whether [`CostProfile::cost`] is provably non-decreasing in the
    /// delay, float rounding included.
    ///
    /// Within one branch every formula is a chain of monotone rounded
    /// operations once the deadline is finite and positive and the
    /// parameters are finite (a non-negative `steepness` for
    /// `LinearThenSteep`). What is left is the step between branches.
    /// Mail's `d / deadline_s - 1.0` starts at `0.0` exactly, and Weibo's
    /// `min(…, ceiling)` can only rise to `ceiling`. Cloud's steep branch
    /// is checked with the very expressions [`CostProfile::cost`]
    /// evaluates: at the first float delay past the deadline it must not
    /// fall below `deadline_s / deadline_s`, the most the linear branch
    /// reaches. Evaluated at the deadline itself instead, that check would
    /// fail for about one deadline in twelve at steepness 3 (0.7 is one)
    /// through rounding alone.
    ///
    /// The event kernel skips slots over a non-empty eTrain queue only
    /// when every registered profile passes.
    pub fn is_nondecreasing(&self) -> bool {
        let deadline_s = self.deadline_s();
        if !(deadline_s.is_finite() && deadline_s > 0.0) {
            return false;
        }
        match *self {
            CostProfile::DeadlineLinear { .. } => true,
            CostProfile::LinearThenConstant { ceiling, .. } => ceiling.is_finite(),
            CostProfile::LinearThenSteep { steepness, .. } => {
                // The last delay on the linear branch and the first past it.
                let (linear_d, steep_d) = (deadline_s, deadline_s.next_up());
                steepness.is_finite()
                    && steepness >= 0.0
                    && steepness * steep_d / deadline_s - (steepness - 1.0) >= linear_d / deadline_s
            }
        }
    }

    /// The profile's deadline in seconds.
    pub fn deadline_s(&self) -> f64 {
        match *self {
            CostProfile::DeadlineLinear { deadline_s }
            | CostProfile::LinearThenConstant { deadline_s, .. }
            | CostProfile::LinearThenSteep { deadline_s, .. } => deadline_s,
        }
    }

    /// Returns the same profile shape with a different deadline (used by
    /// the Fig. 10(c) deadline sweep).
    ///
    /// # Panics
    ///
    /// Panics if `deadline_s` is not strictly positive.
    pub fn with_deadline(self, deadline_s: f64) -> Self {
        assert!(deadline_s > 0.0, "deadline must be positive");
        match self {
            CostProfile::DeadlineLinear { .. } => CostProfile::DeadlineLinear { deadline_s },
            CostProfile::LinearThenConstant { ceiling, .. } => CostProfile::LinearThenConstant {
                deadline_s,
                ceiling,
            },
            CostProfile::LinearThenSteep { steepness, .. } => CostProfile::LinearThenSteep {
                deadline_s,
                steepness,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mail_profile_matches_paper() {
        let f1 = CostProfile::mail(60.0);
        assert_eq!(f1.cost(0.0), 0.0);
        assert_eq!(f1.cost(59.9), 0.0);
        assert_eq!(f1.cost(60.0), 0.0); // d/deadline − 1 at the deadline
        assert_eq!(f1.cost(90.0), 0.5);
        assert_eq!(f1.cost(180.0), 2.0);
    }

    #[test]
    fn weibo_profile_matches_paper() {
        let f2 = CostProfile::weibo(30.0);
        assert_eq!(f2.cost(0.0), 0.0);
        assert_eq!(f2.cost(30.0), 1.0);
        assert_eq!(f2.cost(31.0), 2.0);
        assert_eq!(f2.cost(1e9), 2.0);
    }

    #[test]
    fn cloud_profile_matches_paper() {
        let f3 = CostProfile::cloud(60.0);
        assert_eq!(f3.cost(30.0), 0.5);
        assert_eq!(f3.cost(60.0), 1.0);
        // Continuity at the deadline, then 3× slope.
        assert!((f3.cost(60.0 + 1e-9) - 1.0).abs() < 1e-6);
        assert_eq!(f3.cost(120.0), 4.0);
    }

    #[test]
    fn all_profiles_monotone_nondecreasing() {
        let profiles = [
            CostProfile::mail(45.0),
            CostProfile::weibo(45.0),
            CostProfile::cloud(45.0),
        ];
        for p in profiles {
            let mut prev = 0.0;
            for i in 0..400 {
                let c = p.cost(i as f64);
                assert!(c >= prev - 1e-12, "{p:?} decreased at {i}");
                prev = c;
            }
        }
    }

    #[test]
    fn shipped_profiles_are_nondecreasing() {
        for deadline in [1e-3, 0.7, 30.0, 45.0, 60.0, 120.0, 300.0, 600.0, 1e9] {
            for p in [
                CostProfile::mail(deadline),
                CostProfile::weibo(deadline),
                CostProfile::cloud(deadline),
            ] {
                assert!(p.is_nondecreasing(), "{p:?}");
            }
        }
        for p in crate::AppProfile::paper_defaults() {
            assert!(p.cost.is_nondecreasing(), "{p:?}");
        }
    }

    #[test]
    fn profiles_that_may_dip_are_not_certified() {
        let unproven = [
            CostProfile::DeadlineLinear {
                deadline_s: f64::INFINITY,
            },
            CostProfile::DeadlineLinear { deadline_s: 0.0 },
            CostProfile::DeadlineLinear {
                deadline_s: f64::NAN,
            },
            CostProfile::LinearThenConstant {
                deadline_s: 30.0,
                ceiling: f64::NAN,
            },
            // A falling post-deadline slope.
            CostProfile::LinearThenSteep {
                deadline_s: 30.0,
                steepness: -1.0,
            },
            CostProfile::LinearThenSteep {
                deadline_s: 30.0,
                steepness: f64::INFINITY,
            },
        ];
        for p in unproven {
            assert!(!p.is_nondecreasing(), "{p:?}");
        }
        // A flat or gentler post-deadline slope still never dips below
        // the value at the deadline.
        for steepness in [0.0, 0.5, 1.0] {
            let p = CostProfile::LinearThenSteep {
                deadline_s: 30.0,
                steepness,
            };
            assert!(p.is_nondecreasing(), "{p:?}");
        }
    }

    #[test]
    fn negative_delay_clamps_to_zero_cost() {
        assert_eq!(CostProfile::weibo(30.0).cost(-5.0), 0.0);
        assert_eq!(CostProfile::cloud(30.0).cost(-5.0), 0.0);
    }

    #[test]
    fn with_deadline_preserves_shape() {
        let f3 = CostProfile::cloud(60.0).with_deadline(10.0);
        assert_eq!(f3.deadline_s(), 10.0);
        assert_eq!(f3.cost(20.0), 4.0); // 3·2 − 2
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_rejected() {
        let _ = CostProfile::mail(0.0);
    }
}
