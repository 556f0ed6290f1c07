//! Deterministic parallel execution of scenario grids.
//!
//! Every experiment layer above the simulator — Θ sweeps, E-D curves,
//! seed replication, scheduler comparisons, the bench harness — is a grid
//! of independent [`Scenario`] runs. [`RunGrid`] executes such a grid on
//! [`run_pool`], the scoped worker pool the fleet runner and `repro_all`
//! share, and guarantees the result is **bit-for-bit identical** to
//! serial execution:
//!
//! - each job is an independent, deterministic function of its
//!   [`RunSpec`] (the engine holds no global state, and per-run RNG
//!   streams are derived from the scenario seed);
//! - jobs complete out of order, but results are re-assembled in
//!   job-index order before they are returned;
//! - trace synthesis is shared through a [`TraceCache`] keyed by
//!   [`Scenario::trace_key`], which never changes what is generated —
//!   only how often.
//!
//! The pool is sized by [`resolve_workers`]: the [`RunGrid::jobs`]
//! builder, else the `ETRAIN_JOBS` environment variable, else
//! `std::thread::available_parallelism`. `jobs = 1` degenerates to fully
//! in-line serial execution (no threads spawned at all).
//!
//! # Robustness
//!
//! Every job runs under [`std::panic::catch_unwind`]: a panicking job
//! becomes a [`RunError::Panicked`] entry (carrying the panic payload)
//! instead of killing the worker pool, and every other job still
//! completes. Long grids can additionally checkpoint completed reports
//! into a [`GridCheckpoint`] (see [`RunGrid::run_with_checkpoints`]) and
//! resume after a crash; resumed jobs are bit-for-bit identical to a
//! fresh run because each job is a pure function of its spec.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use etrain_obs::{Fnv1a, Journal, ObsMode};

use crate::metrics::RunReport;
use crate::oracle::OracleMode;
use crate::scenario::{Scenario, ScenarioError, SchedulerKind, TraceBundle};

/// The environment variable that overrides the worker-pool size.
pub const JOBS_ENV: &str = "ETRAIN_JOBS";

/// One job of a grid: a scenario plus the labelling that ties its report
/// back to the experiment axis that produced it.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Human-readable job label (`"Θ=0.2"`, `"seed=7"`, a scheduler
    /// display name, ...). Used in error messages and result tables.
    pub label: String,
    /// The swept knob value, when the grid has a numeric axis.
    pub knob: Option<f64>,
    /// The full scenario to run.
    pub scenario: Scenario,
}

impl RunSpec {
    /// A job with a label and no numeric knob.
    pub fn new(label: impl Into<String>, scenario: Scenario) -> Self {
        RunSpec {
            label: label.into(),
            knob: None,
            scenario,
        }
    }

    /// A job on a numeric axis (Θ, λ, deadline, seed, ...).
    pub fn with_knob(label: impl Into<String>, knob: f64, scenario: Scenario) -> Self {
        RunSpec {
            label: label.into(),
            knob: Some(knob),
            scenario,
        }
    }
}

/// A grid job that could not produce a report: its scenario failed
/// validation, or it panicked and was isolated by the pool.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The job's scenario failed [`Scenario::validate`].
    Scenario {
        /// Index of the failing job in the grid.
        index: usize,
        /// The failing job's label.
        label: String,
        /// Why the scenario cannot run.
        error: ScenarioError,
    },
    /// The job panicked mid-run. The pool caught the unwind, so every
    /// other job still completed; only this entry is lost.
    Panicked {
        /// Index of the panicking job in the grid.
        index: usize,
        /// The panicking job's label.
        label: String,
        /// The panic payload, stringified.
        payload: String,
    },
    /// A resume checkpoint does not belong to this grid: its job count or
    /// shape fingerprint disagrees with the grid it was handed to.
    /// Nothing has run when this is returned — the caller kept a stale or
    /// foreign checkpoint file.
    CheckpointMismatch {
        /// The grid's own value (job count or fingerprint), rendered.
        expected: String,
        /// The checkpoint's value, rendered.
        found: String,
    },
}

impl RunError {
    /// Index of the failing job in the grid (`usize::MAX` for errors that
    /// concern the whole grid rather than one job, like a rejected resume
    /// checkpoint).
    pub fn index(&self) -> usize {
        match self {
            RunError::Scenario { index, .. } | RunError::Panicked { index, .. } => *index,
            RunError::CheckpointMismatch { .. } => usize::MAX,
        }
    }

    /// The failing job's label.
    pub fn label(&self) -> &str {
        match self {
            RunError::Scenario { label, .. } | RunError::Panicked { label, .. } => label,
            RunError::CheckpointMismatch { .. } => "resume checkpoint",
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Scenario {
                index,
                label,
                error,
            } => write!(f, "grid job #{index} ({label}): {error}"),
            RunError::Panicked {
                index,
                label,
                payload,
            } => write!(f, "grid job #{index} ({label}) panicked: {payload}"),
            RunError::CheckpointMismatch { expected, found } => write!(
                f,
                "resume checkpoint is from a different grid: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Scenario { error, .. } => Some(error),
            RunError::Panicked { .. } | RunError::CheckpointMismatch { .. } => None,
        }
    }
}

/// What one grid job produces: its report plus, when the job's scenario
/// has observability on, its journal.
type JobOutput = (RunReport, Option<Journal>);

/// A job failure before attribution to a grid index.
#[derive(Debug)]
enum JobError {
    Scenario(ScenarioError),
    Panicked(String),
}

impl JobError {
    fn into_run_error(self, index: usize, label: String) -> RunError {
        match self {
            JobError::Scenario(error) => RunError::Scenario {
                index,
                label,
                error,
            },
            JobError::Panicked(payload) => RunError::Panicked {
                index,
                label,
                payload,
            },
        }
    }
}

/// A resumable snapshot of a grid's completed jobs, produced by
/// [`RunGrid::run_with_checkpoints`]. Serializable, so a long grid can
/// persist it periodically and survive a process crash: resuming skips
/// every completed job and — because each job is a pure function of its
/// spec — yields reports bit-for-bit identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GridCheckpoint {
    /// Binds the checkpoint to the grid shape it was taken from (job
    /// labels, knobs, trace keys and schedulers); resuming with a
    /// mismatched grid is rejected.
    fingerprint: u64,
    /// One slot per grid job; `Some` holds the completed report.
    slots: Vec<Option<RunReport>>,
}

impl GridCheckpoint {
    /// Number of jobs in the checkpointed grid.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the checkpointed grid has no jobs at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of jobs with a completed report.
    pub fn completed(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether every job has completed.
    pub fn is_complete(&self) -> bool {
        self.slots.iter().all(|s| s.is_some())
    }

    /// Indices of the completed jobs, ascending.
    pub fn completed_indices(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }

    /// The completed report of job `index`, if any.
    pub fn report(&self, index: usize) -> Option<&RunReport> {
        self.slots.get(index).and_then(Option::as_ref)
    }

    /// Consumes a complete checkpoint into its reports in job order;
    /// `None` while any job is still pending.
    pub fn into_reports(self) -> Option<Vec<RunReport>> {
        self.slots.into_iter().collect()
    }
}

/// A concurrent trace-artifact cache: [`TraceBundle`]s keyed by
/// [`Scenario::trace_key`].
///
/// Generation happens outside the lock, so two workers may briefly
/// synthesize the same key concurrently; the first insert wins and —
/// because generation is deterministic — both candidates are
/// bit-identical, so the race never affects results.
#[derive(Debug, Default)]
pub struct TraceCache {
    entries: Mutex<HashMap<u64, TraceBundle>>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// Returns the bundle for `scenario`'s trace key, generating and
    /// memoizing it on first use.
    pub fn get_or_generate(&self, scenario: &Scenario) -> TraceBundle {
        let key = scenario.trace_key();
        if let Some(bundle) = self.lock().get(&key) {
            return bundle.clone();
        }
        let fresh = scenario.generate_traces();
        self.lock().entry(key).or_insert(fresh).clone()
    }

    /// Number of distinct trace keys generated so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TraceBundle>> {
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A batch of scenario jobs executed with deterministic output order.
///
/// # Examples
///
/// ```
/// use etrain_sim::{RunGrid, RunSpec, Scenario, SchedulerKind};
///
/// let base = Scenario::paper_default().duration_secs(600).seed(1);
/// let grid = RunGrid::from_specs(
///     [0.0_f64, 1.0, 2.0]
///         .iter()
///         .map(|&theta| {
///             RunSpec::with_knob(
///                 format!("Θ={theta}"),
///                 theta,
///                 base.clone()
///                     .scheduler(SchedulerKind::ETrain { theta, k: None }),
///             )
///         })
///         .collect(),
/// );
/// let reports = grid.run();
/// assert_eq!(reports.len(), 3);
/// // Results are in job order no matter how many workers ran them.
/// assert_eq!(reports, grid.jobs(1).run());
/// ```
#[derive(Debug)]
pub struct RunGrid {
    specs: Vec<RunSpec>,
    jobs: Option<usize>,
}

impl RunGrid {
    /// An empty grid.
    pub fn new() -> Self {
        RunGrid {
            specs: Vec::new(),
            jobs: None,
        }
    }

    /// A grid over the given jobs.
    pub fn from_specs(specs: Vec<RunSpec>) -> Self {
        RunGrid { specs, jobs: None }
    }

    /// One job per scheduler kind on a shared base scenario (the
    /// comparison shape).
    pub fn over_schedulers(base: &Scenario, kinds: &[SchedulerKind]) -> Self {
        RunGrid::from_specs(
            kinds
                .iter()
                .map(|&kind| RunSpec::new(kind.to_string(), base.clone().scheduler(kind)))
                .collect(),
        )
    }

    /// One job per seed on a shared base scenario (the replication shape).
    pub fn over_seeds(base: &Scenario, seeds: &[u64]) -> Self {
        RunGrid::from_specs(
            seeds
                .iter()
                .map(|&seed| {
                    RunSpec::with_knob(format!("seed={seed}"), seed as f64, base.clone().seed(seed))
                })
                .collect(),
        )
    }

    /// Appends a job.
    pub fn push(&mut self, spec: RunSpec) {
        self.specs.push(spec);
    }

    /// Builder: appends a job.
    pub fn spec(mut self, spec: RunSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Builder: overrides the worker count (`1` forces in-line serial
    /// execution). Takes precedence over `ETRAIN_JOBS` and the detected
    /// parallelism (see [`resolve_workers`]); `0` is treated as `1`.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Builder: sets the simulation-oracle mode on every job in the grid
    /// (see [`Scenario::oracle`]). Apply after all specs are pushed.
    pub fn oracle(mut self, mode: OracleMode) -> Self {
        for spec in &mut self.specs {
            spec.scenario = spec.scenario.clone().oracle(mode);
        }
        self
    }

    /// Builder: sets the observability mode on every job in the grid (see
    /// [`Scenario::obs`]). Apply after all specs are pushed.
    pub fn obs(mut self, mode: ObsMode) -> Self {
        for spec in &mut self.specs {
            spec.scenario = spec.scenario.clone().obs(mode);
        }
        self
    }

    /// Number of jobs in the grid.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the grid has no jobs.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The job specs, in job order.
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }

    /// Runs every job and returns the reports in job-index order.
    ///
    /// # Panics
    ///
    /// Panics if any job fails validation or panics itself (see
    /// [`RunGrid::try_run`] for the fallible form).
    pub fn run(&self) -> Vec<RunReport> {
        self.try_run().expect("invalid grid job")
    }

    /// Fallible [`RunGrid::run`]: returns the lowest-index failure, if
    /// any — regardless of worker count or completion order.
    ///
    /// # Errors
    ///
    /// Returns the first (by job index) scenario-validation failure or
    /// isolated job panic. Every other job still ran to completion first.
    pub fn try_run(&self) -> Result<Vec<RunReport>, RunError> {
        let outputs = self.run_all(&TraceCache::new())?;
        Ok(outputs.into_iter().map(|(report, _)| report).collect())
    }

    /// [`RunGrid::try_run`] that additionally returns the grid's merged
    /// event journal, built with [`Journal::merge`].
    ///
    /// The merge is **deterministic**: per-run journals are collected into
    /// job-index slots (not completion order) and concatenated in index
    /// order, with each record's `run` field retagged to its job index —
    /// so the merged journal is byte-for-byte identical no matter how many
    /// workers ran the grid. Jobs whose scenario has observability off
    /// contribute an empty journal, keeping run indices aligned with job
    /// indices.
    ///
    /// # Errors
    ///
    /// Returns what [`RunGrid::try_run`] returns.
    pub fn try_run_journaled(&self) -> Result<(Vec<RunReport>, Journal), RunError> {
        let (reports, journals): (Vec<RunReport>, Vec<Journal>) = self
            .run_all(&TraceCache::new())?
            .into_iter()
            .map(|(report, journal)| (report, journal.unwrap_or_default()))
            .unzip();
        Ok((reports, Journal::merge(journals)))
    }

    /// Runs every job against `cache` and reassembles the outputs in
    /// job-index order, failing with the lowest-index failure.
    fn run_all(&self, cache: &TraceCache) -> Result<Vec<JobOutput>, RunError> {
        let mut slots: Vec<Option<Result<JobOutput, JobError>>> =
            (0..self.specs.len()).map(|_| None).collect();
        let todo: Vec<usize> = (0..self.specs.len()).collect();
        self.execute(cache, &todo, |index, outcome| slots[index] = Some(outcome));
        slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.expect("every job reports exactly once")
                    .map_err(|error| error.into_run_error(index, self.specs[index].label.clone()))
            })
            .collect()
    }

    /// A deterministic identity for the grid's *shape*: job count plus
    /// each job's label, knob, trace key and scheduler. Used to bind a
    /// [`GridCheckpoint`] to the grid it was taken from. (FNV-1a rather
    /// than [`std::hash::DefaultHasher`], so the value is stable across
    /// processes — checkpoints outlive the process.)
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        hash.field(&(self.specs.len() as u64).to_le_bytes());
        for spec in &self.specs {
            hash.field(spec.label.as_bytes());
            hash.field(&spec.knob.unwrap_or(f64::NAN).to_bits().to_le_bytes());
            hash.field(&spec.scenario.trace_key().to_le_bytes());
            hash.field(spec.scenario.scheduler_kind().to_string().as_bytes());
        }
        hash.finish()
    }

    /// Runs the grid with periodic crash-recovery checkpoints.
    ///
    /// Starts from `resume_from` when given (jobs already completed there
    /// are skipped, not re-run), executes the remaining jobs, and calls
    /// `persist` with the current checkpoint after every `checkpoint_every`
    /// newly completed jobs *and* once more at the end. A typical caller
    /// serializes the checkpoint to disk in `persist`; after a crash it
    /// deserializes the latest snapshot and passes it back as
    /// `resume_from`.
    ///
    /// Because each job is a pure function of its spec, the reports of a
    /// resumed grid are bit-for-bit identical to an uninterrupted run.
    /// Only successful reports are checkpointed: jobs that failed
    /// validation or panicked are reported in the returned error list and
    /// retried on resume.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::CheckpointMismatch`] — without running any job
    /// — if `resume_from` was taken from a different grid (length or
    /// [`RunGrid::fingerprint`] mismatch).
    pub fn run_with_checkpoints<F: FnMut(&GridCheckpoint)>(
        &self,
        resume_from: Option<GridCheckpoint>,
        checkpoint_every: usize,
        mut persist: F,
    ) -> Result<(GridCheckpoint, Vec<RunError>), RunError> {
        let fingerprint = self.fingerprint();
        let mut checkpoint = match resume_from {
            Some(cp) => {
                if cp.slots.len() != self.specs.len() {
                    return Err(RunError::CheckpointMismatch {
                        expected: format!("{} jobs", self.specs.len()),
                        found: format!("{} jobs", cp.slots.len()),
                    });
                }
                if cp.fingerprint != fingerprint {
                    return Err(RunError::CheckpointMismatch {
                        expected: format!("fingerprint {fingerprint:#018x}"),
                        found: format!("fingerprint {:#018x}", cp.fingerprint),
                    });
                }
                cp
            }
            None => GridCheckpoint {
                fingerprint,
                slots: (0..self.specs.len()).map(|_| None).collect(),
            },
        };
        let todo: Vec<usize> = checkpoint
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        let every = checkpoint_every.max(1);
        let cache = TraceCache::new();
        let mut errors = Vec::new();
        let mut fresh = 0usize;
        self.execute(&cache, &todo, |index, outcome| match outcome {
            Ok((report, _)) => {
                checkpoint.slots[index] = Some(report);
                fresh += 1;
                if fresh.is_multiple_of(every) {
                    persist(&checkpoint);
                }
            }
            Err(error) => {
                errors.push(error.into_run_error(index, self.specs[index].label.clone()));
            }
        });
        errors.sort_by_key(RunError::index);
        persist(&checkpoint);
        Ok((checkpoint, errors))
    }

    /// Shared execution path: runs [`run_job`] on the jobs at `todo` on
    /// [`run_pool`], invoking `on_result` on the calling thread as each job
    /// completes (out of index order under the pool — callers that need
    /// order re-assemble by index).
    fn execute<F>(&self, cache: &TraceCache, todo: &[usize], mut on_result: F)
    where
        F: FnMut(usize, Result<JobOutput, JobError>),
    {
        run_pool(
            todo,
            resolve_workers(self.jobs, todo.len()),
            |&index| run_job(&self.specs[index], cache),
            |slot, outcome| on_result(todo[slot], outcome),
        );
    }
}

impl Default for RunGrid {
    fn default() -> Self {
        RunGrid::new()
    }
}

/// Runs one job through [`Scenario::try_run_journaled_on`] on traces from
/// the shared cache, validating first so an invalid scenario never reaches
/// trace synthesis.
///
/// An unwinding job becomes [`JobError::Panicked`] instead of tearing down
/// the worker (and, under `std::thread::scope`, the whole grid).
/// `AssertUnwindSafe` is sound here because a panicking job's only shared
/// state is the [`TraceCache`], which is itself poison-tolerant and only
/// ever holds fully generated bundles.
fn run_job(spec: &RunSpec, cache: &TraceCache) -> Result<JobOutput, JobError> {
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<JobOutput, ScenarioError> {
            spec.scenario.validate()?;
            let traces = cache.get_or_generate(&spec.scenario);
            let (report, _, journal) = spec.scenario.try_run_journaled_on(&traces)?;
            Ok((report, journal))
        },
    ));
    match unwound {
        Ok(Ok(output)) => Ok(output),
        Ok(Err(error)) => Err(JobError::Scenario(error)),
        Err(payload) => Err(JobError::Panicked(panic_payload_string(payload.as_ref()))),
    }
}

/// Best-effort stringification of a caught panic payload (`panic!` with a
/// literal yields `&str`, with formatting yields `String`).
fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Parses an `ETRAIN_JOBS` value strictly: `Ok(None)` when unset or empty,
/// `Ok(Some(n))` for a positive integer, and `Err` (with a human-readable
/// reason) for anything else, including `0`.
pub fn try_jobs_from_env(value: Option<&str>) -> Result<Option<usize>, String> {
    let raw = match value {
        None => return Ok(None),
        Some(raw) => raw.trim(),
    };
    if raw.is_empty() {
        return Ok(None);
    }
    match raw.parse::<usize>() {
        Ok(0) => Err(format!("{JOBS_ENV}={raw:?}: worker count must be >= 1")),
        Ok(jobs) => Ok(Some(jobs)),
        Err(_) => Err(format!(
            "{JOBS_ENV}={raw:?}: expected a positive integer worker count"
        )),
    }
}

/// The worker count for a pool over `items` jobs: `explicit` if given,
/// else `ETRAIN_JOBS`, else the machine's available parallelism — clamped
/// to `1..=items`, so no worker ever idles from the start.
///
/// An unusable `ETRAIN_JOBS` value is ignored with a one-time warning on
/// stderr, so a typo like `ETRAIN_JOBS=fuor` doesn't quietly run on every
/// core. Binaries that want to fail fast check [`try_jobs_from_env`] first.
pub fn resolve_workers(explicit: Option<usize>, items: usize) -> usize {
    workers_for(explicit, std::env::var(JOBS_ENV).ok().as_deref(), items)
}

/// [`resolve_workers`] over an explicit `ETRAIN_JOBS` value.
fn workers_for(explicit: Option<usize>, env: Option<&str>, items: usize) -> usize {
    explicit
        .or_else(|| {
            try_jobs_from_env(env).unwrap_or_else(|reason| {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| eprintln!("warning: ignoring {reason}"));
                None
            })
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, items.max(1))
}

/// Runs `job` on every item across up to `workers` scoped threads, calling
/// `on_result(index, result)` on the calling thread as each job finishes.
///
/// Workers take items in index order, but results arrive in completion
/// order, so callers that need index order reassemble by `index`. Because
/// `on_result` runs while the workers are still busy, a caller can act on
/// results mid-run (the grid checkpoints this way). With one worker, or at
/// most one item, every job runs in line, in index order, and no thread is
/// spawned.
///
/// # Panics
///
/// Panics if a job panics. In line, the job's panic propagates as is;
/// under the pool it stops only its worker, the other workers finish the
/// remaining items, and then the calling thread panics.
pub fn run_pool<T, R, F, C>(items: &[T], workers: usize, job: F, mut on_result: C)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    C: FnMut(usize, R),
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        for (index, item) in items.iter().enumerate() {
            on_result(index, job(item));
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let (result_tx, result_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let result_tx = result_tx.clone();
            let (next, job) = (&next, &job);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    return;
                };
                if result_tx.send((index, job(item))).is_err() {
                    return;
                }
            });
        }
        // The iterator ends when the last worker drops its sender.
        drop(result_tx);
        for (index, result) in result_rx {
            on_result(index, result);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::BandwidthSource;
    use etrain_trace::packets::Packet;
    use etrain_trace::CargoAppId;

    fn theta_grid(jobs: usize) -> RunGrid {
        let base = Scenario::paper_default().duration_secs(600).seed(3);
        RunGrid::from_specs(
            [0.0_f64, 0.5, 1.0, 2.0]
                .iter()
                .map(|&theta| {
                    RunSpec::with_knob(
                        format!("Θ={theta}"),
                        theta,
                        base.clone()
                            .scheduler(SchedulerKind::ETrain { theta, k: None }),
                    )
                })
                .collect(),
        )
        .jobs(jobs)
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = theta_grid(1).run();
        let parallel = theta_grid(4).run();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn results_are_in_job_index_order() {
        let grid = theta_grid(3);
        let reports = grid.run();
        for (spec, report) in grid.specs().iter().zip(&reports) {
            assert_eq!(report.scheduler, "eTrain", "{}", spec.label);
        }
        // Direct per-spec runs agree position by position.
        for (spec, report) in grid.specs().iter().zip(&reports) {
            assert_eq!(&spec.scenario.run(), report);
        }
    }

    #[test]
    fn grid_over_one_seed_generates_traces_once() {
        let cache = TraceCache::new();
        let grid = theta_grid(2);
        grid.run_all(&cache).unwrap();
        assert_eq!(cache.len(), 1, "same workload+seed must share one bundle");
    }

    #[test]
    fn distinct_seeds_get_distinct_bundles() {
        let cache = TraceCache::new();
        let base = Scenario::paper_default().duration_secs(600);
        RunGrid::over_seeds(&base, &[1, 2, 3])
            .jobs(2)
            .run_all(&cache)
            .unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn over_schedulers_labels_with_display() {
        let base = Scenario::paper_default().duration_secs(600).seed(2);
        let grid = RunGrid::over_schedulers(
            &base,
            &[
                SchedulerKind::Baseline,
                SchedulerKind::ETime { v_bytes: 20_000.0 },
            ],
        );
        assert_eq!(grid.specs()[0].label, "Baseline");
        assert_eq!(grid.specs()[1].label, "eTime(V=20000 B)");
        let reports = grid.run();
        assert_eq!(reports[0].scheduler, "Baseline");
        assert_eq!(reports[1].scheduler, "eTime");
    }

    #[test]
    fn invalid_job_reports_lowest_index_regardless_of_jobs() {
        for jobs in [1, 4] {
            let base = Scenario::paper_default().duration_secs(600).seed(1);
            let grid = RunGrid::new()
                .spec(RunSpec::new("ok", base.clone()))
                .spec(RunSpec::new(
                    "bad-bandwidth",
                    base.clone().bandwidth(BandwidthSource::Constant(0.0)),
                ))
                .spec(RunSpec::new("bad-duration", base.clone().duration_secs(0)))
                .jobs(jobs);
            let err = grid.try_run().unwrap_err();
            assert!(matches!(err, RunError::Scenario { .. }), "jobs={jobs}");
            assert_eq!(err.index(), 1, "jobs={jobs}");
            assert_eq!(err.label(), "bad-bandwidth");
            assert!(err.to_string().contains("grid job #1"));
        }
    }

    /// A spec that passes `validate()` but panics inside the engine: its
    /// explicit packet trace references an unregistered app index.
    fn panicking_spec(label: &str) -> RunSpec {
        RunSpec::new(
            label,
            Scenario::paper_default()
                .duration_secs(600)
                .seed(5)
                .packets(vec![Packet {
                    id: 0,
                    app: CargoAppId(99),
                    arrival_s: 10.0,
                    size_bytes: 1_000,
                }]),
        )
    }

    #[test]
    fn panicking_job_is_isolated_and_reported() {
        let mut survivors = Vec::new();
        for jobs in [1, 4] {
            let base = Scenario::paper_default().duration_secs(600).seed(3);
            let grid = RunGrid::new()
                .spec(RunSpec::new("ok-0", base.clone()))
                .spec(panicking_spec("boom"))
                .spec(RunSpec::new("ok-2", base.clone().seed(4)))
                .jobs(jobs);
            let err = grid.try_run().unwrap_err();
            assert!(matches!(err, RunError::Panicked { .. }), "jobs={jobs}");
            assert_eq!(err.index(), 1, "jobs={jobs}");
            assert_eq!(err.label(), "boom");
            assert!(err.to_string().contains("panicked"), "jobs={jobs}");

            // The pool survived: both healthy jobs still completed.
            let (checkpoint, errors) = grid.run_with_checkpoints(None, 1, |_| {}).unwrap();
            assert_eq!(checkpoint.completed_indices(), vec![0, 2], "jobs={jobs}");
            assert_eq!(errors.len(), 1, "jobs={jobs}");
            assert!(matches!(
                &errors[0],
                RunError::Panicked { index: 1, payload, .. }
                    if payload.contains("registered with the scheduler")
            ));
            survivors.push(checkpoint);
        }
        // Surviving reports are bit-for-bit identical serial vs pool.
        assert_eq!(survivors[0], survivors[1]);
    }

    #[test]
    fn checkpoint_resume_is_bit_for_bit_identical() {
        let uninterrupted = theta_grid(1).run();

        // Take a mid-flight snapshot (as a crash would leave on disk)...
        let mut snapshot: Option<GridCheckpoint> = None;
        let (full, errors) = theta_grid(2)
            .run_with_checkpoints(None, 1, |cp| {
                if snapshot.is_none() && !cp.is_complete() {
                    snapshot = Some(cp.clone());
                }
            })
            .unwrap();
        assert!(errors.is_empty());
        assert!(full.is_complete());

        // ... and resume from it on an identically shaped grid.
        let snapshot = snapshot.expect("mid-flight checkpoint captured");
        assert!(snapshot.completed() < snapshot.len());
        let (resumed, errors) = theta_grid(2)
            .run_with_checkpoints(Some(snapshot), 8, |_| {})
            .unwrap();
        assert!(errors.is_empty());
        assert_eq!(resumed, full);
        assert_eq!(resumed.into_reports().expect("complete"), uninterrupted);
    }

    #[test]
    fn persist_fires_every_n_and_at_end() {
        let mut completions = Vec::new();
        let (checkpoint, errors) = theta_grid(1)
            .run_with_checkpoints(None, 2, |cp| completions.push(cp.completed()))
            .unwrap();
        assert!(errors.is_empty());
        assert!(checkpoint.is_complete());
        assert_eq!(completions, vec![2, 4, 4], "every 2 jobs, plus final");
    }

    #[test]
    fn resuming_with_foreign_checkpoint_is_rejected() {
        let (checkpoint, _) = theta_grid(1).run_with_checkpoints(None, 8, |_| {}).unwrap();
        let other = RunGrid::from_specs(
            (0..4u64)
                .map(|i| {
                    RunSpec::new(
                        format!("job-{i}"),
                        Scenario::paper_default().duration_secs(600).seed(50 + i),
                    )
                })
                .collect(),
        );
        let err = other
            .run_with_checkpoints(Some(checkpoint), 8, |_| {})
            .unwrap_err();
        assert!(matches!(err, RunError::CheckpointMismatch { .. }));
        assert_eq!(err.index(), usize::MAX);
        assert_eq!(err.label(), "resume checkpoint");
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn resuming_with_wrong_length_checkpoint_is_rejected() {
        let (checkpoint, _) = theta_grid(1).run_with_checkpoints(None, 8, |_| {}).unwrap();
        let shorter = RunGrid::from_specs(theta_grid(1).specs()[..2].to_vec());
        let err = shorter
            .run_with_checkpoints(Some(checkpoint), 8, |_| {})
            .unwrap_err();
        assert!(
            matches!(
                &err,
                RunError::CheckpointMismatch { expected, found }
                    if expected == "2 jobs" && found == "4 jobs"
            ),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let (checkpoint, errors) = theta_grid(2).run_with_checkpoints(None, 4, |_| {}).unwrap();
        assert!(errors.is_empty());
        let json = serde_json::to_string(&checkpoint).expect("serializes");
        let back: GridCheckpoint = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, checkpoint);
    }

    #[test]
    fn checkpoint_json_holds_only_the_fingerprint_and_slots() {
        let (checkpoint, _) = theta_grid(1).run_with_checkpoints(None, 4, |_| {}).unwrap();
        let json = serde_json::to_string_pretty(&checkpoint).expect("serializes");
        assert!(json.starts_with("{\n  \"fingerprint\": "), "{json}");
        assert!(json.contains("\n  \"slots\": ["), "{json}");
        assert_eq!(json.matches("\n  \"").count(), 2, "{json}");
        assert!(!json.contains("partials"));
    }

    /// A `theta_grid` checkpoint as written by an earlier release: job 0
    /// completed, plus a `partials` list (a since-removed field holding
    /// mid-run engine snapshots) with an entry for job 2.
    const LEGACY_CHECKPOINT_WITH_PARTIALS: &str = r#"{
  "fingerprint": 13386736302214130832,
  "slots": [
    {
      "scheduler": "eTrain",
      "horizon_s": 600.0,
      "extra_energy_j": 294.9560100338319,
      "transmission_energy_j": 9.09990570568423,
      "tail_energy_j": 285.85610432814764,
      "idle_energy_j": 12.0,
      "total_energy_j": 306.9560100338319,
      "heartbeats_sent": 8,
      "packets_completed": 40,
      "packets_unfinished": 0,
      "packets_abandoned": 0,
      "abandonment_ratio": 0.0,
      "retries": 0,
      "wasted_retry_energy_j": 0.0,
      "normalized_delay_s": 0.41420558188351253,
      "deadline_violation_ratio": 0.0,
      "busy_time_s": 12.999865293834622,
      "steps_run": 601,
      "promotions": 11,
      "packets_shed": 0,
      "forced_flushes": 0,
      "health_events": [],
      "per_app": [
        {
          "name": "Mail",
          "packets": 8,
          "bytes": 46611,
          "mean_delay_s": 0.3071929562509652,
          "violation_ratio": 0.0
        },
        {
          "name": "Weibo",
          "packets": 24,
          "bytes": 55217,
          "mean_delay_s": 0.47471941259633293,
          "violation_ratio": 0.0
        },
        {
          "name": "Cloud",
          "packets": 8,
          "bytes": 987515,
          "mean_delay_s": 0.3396767153775988,
          "violation_ratio": 0.0
        }
      ],
      "oracle": null,
      "metrics": null
    },
    null,
    null,
    null
  ],
  "partials": [
    null,
    null,
    {
      "version": 1,
      "taken_at_s": 12.0,
      "events_processed": 34,
      "steps_run": 5,
      "journal_events": 0,
      "engine": "event",
      "fingerprint": 65261
    },
    null
  ]
}"#;

    #[test]
    fn legacy_checkpoint_with_partials_key_loads_and_resumes() {
        // The fixture was written with the oracle and journal off; pin
        // them so an ambient `ETRAIN_ORACLE`/`ETRAIN_OBS` cannot differ.
        let grid = || theta_grid(1).oracle(OracleMode::Off).obs(ObsMode::Off);
        let legacy: GridCheckpoint =
            serde_json::from_str(LEGACY_CHECKPOINT_WITH_PARTIALS).expect("legacy format loads");
        assert_eq!(legacy.completed_indices(), vec![0]);
        let (resumed, errors) = grid()
            .run_with_checkpoints(Some(legacy), 8, |_| {})
            .unwrap();
        assert!(errors.is_empty());
        assert_eq!(resumed.into_reports().expect("complete"), grid().run());
    }

    #[test]
    fn empty_grid_runs_to_empty() {
        assert!(RunGrid::new().run().is_empty());
    }

    #[test]
    fn pool_results_reassemble_in_index_order() {
        let items: Vec<u64> = (0..50).collect();
        for workers in [1, 2, 7] {
            let mut slots = vec![None; items.len()];
            run_pool(&items, workers, |&x| x * x, |i, r| slots[i] = Some(r));
            let squares: Vec<u64> = slots.into_iter().map(Option::unwrap).collect();
            assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_reports_each_index_exactly_once_when_jobs_finish_out_of_order() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<usize> = (0..12).collect();
        for workers in [1, 2, 7] {
            // Under a pool, job 0 holds until another job's result has been
            // delivered, so results are guaranteed to arrive out of order.
            let delivered = AtomicBool::new(false);
            let mut seen = vec![0usize; items.len()];
            let mut order = Vec::new();
            run_pool(
                &items,
                workers,
                |&i| {
                    while i == 0 && workers > 1 && !delivered.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    i * 10
                },
                |i, r| {
                    assert_eq!(r, i * 10, "workers={workers}");
                    seen[i] += 1;
                    order.push(i);
                    delivered.store(true, Ordering::SeqCst);
                },
            );
            assert!(seen.iter().all(|&n| n == 1), "workers={workers}: {seen:?}");
            let in_order = order.windows(2).all(|w| w[0] < w[1]);
            assert_eq!(in_order, workers == 1, "workers={workers}: {order:?}");
        }
    }

    #[test]
    fn workers_are_clamped_to_the_item_count() {
        assert_eq!(resolve_workers(Some(64), 3), 3);
        assert_eq!(resolve_workers(Some(64), 0), 1);
        // The pool clamps too: 64 requested workers over 3 items still
        // run all 3 at once (each job waits for the other two) and return.
        let items = [0usize, 1, 2];
        let barrier = std::sync::Barrier::new(items.len());
        let mut sum = 0;
        run_pool(
            &items,
            64,
            |&i| {
                barrier.wait();
                i
            },
            |_, i| sum += i,
        );
        assert_eq!(sum, 3);
        run_pool(&[] as &[u8], 4, |_| unreachable!(), |_, ()| unreachable!());
    }

    #[test]
    fn worker_count_resolution_table() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // (explicit, ETRAIN_JOBS, items) -> workers
        let cases: [(Option<usize>, Option<&str>, usize, usize); 12] = [
            (Some(3), Some("8"), 10, 3), // explicit beats the env
            (Some(64), None, 4, 4),      // clamped to the item count
            (Some(0), None, 4, 1),       // never fewer than one
            (Some(5), None, 0, 1),       // empty grids get one
            (None, Some("4"), 10, 4),    // env when no override
            (None, Some(" 8 "), 10, 8),  // env is trimmed
            (None, Some("16"), 2, 2),    // env clamped too
            (None, None, 1000, cores.min(1000)),
            (None, Some(""), 1000, cores.min(1000)),
            (None, Some("0"), 1000, cores.min(1000)), // bad values fall back
            (None, Some("zero"), 1000, cores.min(1000)),
            (None, Some("fuor"), 1, 1),
        ];
        for (explicit, env, items, want) in cases {
            assert_eq!(
                workers_for(explicit, env, items),
                want,
                "explicit={explicit:?} env={env:?} items={items}"
            );
        }
    }

    #[test]
    fn strict_jobs_parsing_rejects_zero_and_junk() {
        assert_eq!(try_jobs_from_env(None), Ok(None));
        assert_eq!(try_jobs_from_env(Some("  ")), Ok(None));
        assert_eq!(try_jobs_from_env(Some("4")), Ok(Some(4)));
        let zero = try_jobs_from_env(Some("0")).unwrap_err();
        assert!(zero.contains(">= 1"), "{zero}");
        let junk = try_jobs_from_env(Some("fuor")).unwrap_err();
        assert!(junk.contains("positive integer"), "{junk}");
        assert!(junk.contains(JOBS_ENV), "{junk}");
    }
}
