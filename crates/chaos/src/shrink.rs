//! Automatic shrinking: delta-debugging a failing chaos case down to a
//! minimal, serializable repro.
//!
//! The shrinker first freezes the plan's generated traces into explicit
//! packet/heartbeat lists ([`CasePlan::materialize_traces`]), then loops
//! over reduction passes until a fixpoint: halving the horizon (dropping
//! events past it), ddmin over packets and heartbeats, deleting fault
//! windows and alarms, zeroing fault probabilities, and simplifying knobs
//! (retry policy off, bandwidth pinned constant). Every candidate is
//! re-run end to end; a reduction is kept only if the failure class
//! survives ([`CaseFailure::matches`]). The result is a [`ReproCase`] —
//! the minimal case, its failure, and the signature a replay must
//! reproduce — serialized as JSON for `chaos --repro <file>`.

use serde::{Deserialize, Serialize};

use crate::case::{CaseFailure, ChaosCase};

/// A minimal failing case, ready to serialize into a repro artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReproCase {
    /// The shrunk case.
    pub case: ChaosCase,
    /// The failure the shrunk case produces.
    pub failure: CaseFailure,
    /// The failure signature a replay must reproduce
    /// (see [`CaseFailure::signature`]).
    pub signature: String,
    /// The shrunk case's discrete event count (packets + heartbeats +
    /// fault windows + alarms).
    pub events: usize,
}

impl ReproCase {
    /// Serializes the repro as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("repro cases serialize infallibly")
    }

    /// Parses a repro artifact.
    ///
    /// # Errors
    ///
    /// Returns the parse error, rendered, when `json` is not a repro.
    pub fn from_json(json: &str) -> Result<ReproCase, String> {
        serde_json::from_str(json).map_err(|e| format!("not a repro artifact: {e}"))
    }

    /// Re-runs the case and checks the recorded failure class reproduces.
    ///
    /// # Errors
    ///
    /// Returns a description of the divergence when the case now runs
    /// clean or fails differently.
    pub fn replay(&self) -> Result<CaseFailure, String> {
        match self.case.run() {
            Some(failure) if self.failure.matches(&failure) => Ok(failure),
            Some(failure) => Err(format!(
                "failure changed: expected {}, got {}",
                self.signature,
                failure.signature()
            )),
            None => Err(format!(
                "case runs clean; expected {} ({})",
                self.signature, self.failure
            )),
        }
    }
}

/// Shrinks `case` to a minimal reproduction of its failure. Returns
/// `None` when the case does not fail in the first place.
pub fn shrink(case: &ChaosCase) -> Option<ReproCase> {
    let original = case.run()?;
    let fails = |candidate: &ChaosCase| {
        candidate
            .run()
            .is_some_and(|failure| original.matches(&failure))
    };

    let mut best = case.clone();
    // Freeze the implicit workload into explicit lists so the ddmin
    // passes below have elements to delete.
    let mut frozen = best.clone();
    frozen.plan.materialize_traces();
    if fails(&frozen) {
        best = frozen;
    }

    loop {
        let before = best.plan.event_count();

        // Halve the horizon while the failure survives, discarding
        // events the shorter run can never see (an event past the
        // horizon would otherwise trip packet conservation).
        while best.plan.horizon_s >= 120 {
            let mut candidate = best.clone();
            candidate.plan.horizon_s /= 2;
            clamp_to_horizon(&mut candidate);
            if fails(&candidate) {
                best = candidate;
            } else {
                break;
            }
        }

        // ddmin the explicit traces.
        if let Some(packets) = best.plan.packets.clone() {
            best.plan.packets = Some(ddmin(packets, |kept| {
                let mut candidate = best.clone();
                candidate.plan.packets = Some(kept.to_vec());
                fails(&candidate)
            }));
        }
        if let Some(heartbeats) = best.plan.heartbeats.clone() {
            best.plan.heartbeats = Some(ddmin(heartbeats, |kept| {
                let mut candidate = best.clone();
                candidate.plan.heartbeats = Some(kept.to_vec());
                fails(&candidate)
            }));
        }

        // Simplify the fault plan: all of it, then piece by piece.
        if best.plan.faults.is_some() {
            let mut candidate = best.clone();
            candidate.plan.faults = None;
            if fails(&candidate) {
                best = candidate;
            } else {
                for edit in FAULT_EDITS {
                    let mut candidate = best.clone();
                    if let Some(faults) = candidate.plan.faults.as_mut() {
                        if !edit(faults) {
                            continue;
                        }
                    }
                    if fails(&candidate) {
                        best = candidate;
                    }
                }
            }
        }

        // Simplify remaining knobs.
        if best.plan.retry.is_some() {
            let mut candidate = best.clone();
            candidate.plan.retry = None;
            if fails(&candidate) {
                best = candidate;
            }
        }
        if best.plan.constant_bandwidth_bps.is_none() {
            let mut candidate = best.clone();
            candidate.plan.constant_bandwidth_bps = Some(400_000.0);
            if fails(&candidate) {
                best = candidate;
            }
        }

        if best.plan.event_count() >= before {
            break;
        }
    }

    let failure = best.run().expect("every kept reduction still fails");
    let signature = failure.signature();
    let events = best.plan.event_count();
    Some(ReproCase {
        case: best,
        failure,
        signature,
        events,
    })
}

/// In-place fault-plan reductions; each returns `false` when it has
/// nothing to remove.
const FAULT_EDITS: &[fn(&mut etrain_sim::FaultPlan) -> bool] = &[
    |f| {
        let had = !f.outages.is_empty();
        f.outages.clear();
        had
    },
    |f| {
        let had = !f.train_deaths.is_empty();
        f.train_deaths.clear();
        had
    },
    |f| {
        let had = !f.oracle_alarms.is_empty();
        f.oracle_alarms.clear();
        had
    },
    |f| {
        let had = f.loss_probability > 0.0;
        f.loss_probability = 0.0;
        had
    },
    |f| {
        let had = f.heartbeat_drop_probability > 0.0;
        f.heartbeat_drop_probability = 0.0;
        had
    },
];

/// Drops explicit events the shrunk horizon can never see.
fn clamp_to_horizon(case: &mut ChaosCase) {
    let horizon = case.plan.horizon_s as f64;
    if let Some(packets) = case.plan.packets.as_mut() {
        packets.retain(|p| p.arrival_s < horizon);
    }
    if let Some(heartbeats) = case.plan.heartbeats.as_mut() {
        heartbeats.retain(|h| h.time_s < horizon);
    }
    if let Some(faults) = case.plan.faults.as_mut() {
        faults.outages.retain(|w| w.start_s < horizon);
        faults.train_deaths.retain(|w| w.start_s < horizon);
        faults.oracle_alarms.retain(|&t| t < horizon);
    }
}

/// Zeller's ddmin over a list: removes chunks at coarse granularity
/// first, refining toward single elements, keeping any candidate for
/// which `still_fails` holds. `items` must itself be failing.
fn ddmin<T: Clone>(items: Vec<T>, mut still_fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current = items;
    if current.is_empty() {
        return current;
    }
    if still_fails(&[]) {
        return Vec::new();
    }
    let mut chunks = 2usize;
    while current.len() >= 2 {
        let chunk_len = current.len().div_ceil(chunks);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk_len).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if still_fails(&candidate) {
                current = candidate;
                chunks = chunks.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunk_len <= 1 {
                break;
            }
            chunks = (chunks * 2).min(current.len());
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::Corruption;
    use etrain_sim::{CasePlan, EngineKind, SchedulerKind};

    #[test]
    fn ddmin_minimizes_against_a_known_predicate() {
        // Failing iff the list contains both 3 and 7: the minimum is
        // exactly {3, 7}.
        let items: Vec<u32> = (0..32).collect();
        let reduced = ddmin(items, |kept| kept.contains(&3) && kept.contains(&7));
        assert_eq!(reduced, vec![3, 7]);
        // Failing unconditionally: shrinks to nothing.
        assert!(ddmin((0..8).collect::<Vec<u32>>(), |_| true).is_empty());
    }

    #[test]
    fn a_clean_case_does_not_shrink() {
        let case = ChaosCase::from_seed(0);
        assert!(shrink(&case).is_none());
    }

    #[test]
    fn every_corruption_shrinks_to_a_tiny_repro_that_replays() {
        let mut plan = CasePlan::from_seed(6, false);
        plan.horizon_s = plan.horizon_s.min(900);
        for corruption in Corruption::all() {
            let case = ChaosCase {
                plan: plan.clone(),
                kind: SchedulerKind::Baseline,
                engine: EngineKind::Slot,
                corruption: Some(corruption),
            };
            let repro = shrink(&case)
                .unwrap_or_else(|| panic!("{corruption:?} escaped the oracle entirely"));
            assert!(
                repro.events <= 10,
                "{corruption:?} shrank only to {} events",
                repro.events
            );
            assert!(
                repro.events <= case.event_count(),
                "shrinking must not grow the case"
            );
            let replayed = repro.replay().expect("minimal case replays");
            assert_eq!(replayed, repro.failure);
            // And the artifact itself round-trips and still replays.
            let back = ReproCase::from_json(&repro.to_json()).unwrap();
            assert_eq!(back, repro);
            back.replay().expect("parsed artifact replays");
        }
    }

    #[test]
    fn replay_rejects_a_case_that_no_longer_fails() {
        let clean = ChaosCase::from_seed(0);
        let repro = ReproCase {
            failure: CaseFailure::Panicked {
                payload: "boom".into(),
            },
            signature: "panic".into(),
            events: clean.event_count(),
            case: clean,
        };
        let err = repro.replay().unwrap_err();
        assert!(err.contains("runs clean"), "got: {err}");
    }

    #[test]
    fn a_file_that_is_not_a_repro_is_refused() {
        let case = ChaosCase::from_seed(2);
        let repro = ReproCase {
            failure: CaseFailure::Panicked {
                payload: "boom".into(),
            },
            signature: "panic".into(),
            events: case.event_count(),
            case,
        };
        assert_eq!(ReproCase::from_json(&repro.to_json()), Ok(repro.clone()));
        let case_only = serde_json::to_string(&repro.case).unwrap();
        for text in ["", "{}", "[]", case_only.as_str()] {
            let err = ReproCase::from_json(text).unwrap_err();
            assert!(err.starts_with("not a repro artifact: "), "{text:?}: {err}");
        }
    }
}
