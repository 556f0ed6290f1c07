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
//! - jobs complete out of order, but the pool hands their results to the
//!   calling thread in job-index order, each as soon as every earlier one
//!   is in;
//! - trace synthesis is shared through a [`TraceCache`] keyed by
//!   [`Scenario::trace_key`], which never changes what is generated —
//!   only how often.
//!
//! The pool is sized by [`resolve_workers`]: the [`RunGrid::jobs`]
//! builder, else `std::thread::available_parallelism`. `jobs = 1`
//! degenerates to fully in-line serial execution (no threads spawned at
//! all).
//!
//! # Robustness
//!
//! Every job runs under [`std::panic::catch_unwind`]: a panicking job
//! becomes a [`RunError::Panicked`] entry (carrying the panic payload)
//! instead of killing the worker pool, and every other job still
//! completes. [`RunGrid::try_run`] returns the lowest-index failure.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use etrain_obs::{Journal, ObsMode};
use etrain_trace::bandwidth::{wuhan_drive_synthetic, BandwidthTrace};

use crate::metrics::RunReport;
use crate::oracle::OracleMode;
use crate::scenario::{Scenario, ScenarioError, SchedulerKind, TraceBundle};

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
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Scenario { error, .. } => Some(error),
            RunError::Panicked { .. } => None,
        }
    }
}

/// What one grid job produces: its report plus, when the job's scenario
/// has observability on, its journal.
type JobOutput = (RunReport, Option<Journal>);

/// A journaled grid's event journal as `etrain-journal-v1` JSON Lines
/// (DESIGN.md §14.4): each run's canonical records, tagged with its job
/// index, runs in job order. These are the bytes [`Journal::to_jsonl`]
/// renders for [`Journal::merge`] of the per-run journals, at any worker
/// count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalLines {
    text: String,
}

impl JournalLines {
    /// The lines, each ending in `\n`.
    pub fn to_jsonl(&self) -> &str {
        &self.text
    }

    /// Whether no run recorded an event.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

/// A concurrent trace-artifact cache: [`TraceBundle`]s keyed by
/// [`Scenario::trace_key`].
///
/// Each key is generated once. Its first caller synthesizes the bundle
/// outside the cache lock, in a once-cell of that key; a caller of the same
/// key meanwhile waits for it instead of generating a second copy. Keys
/// whose scenarios draw the synthetic drive trace from the same seed share
/// one `Arc<BandwidthTrace>`, the bulk of a synthesis, generated once the
/// same way.
///
/// A cache made with [`TraceCache::new`] holds every bundle until it is
/// dropped. A grid's own cache knows how many of its jobs take each key,
/// and drops a bundle when the last of them has taken it, and a drive trace
/// when the last key of its seed has been generated, so a grid over many
/// seeds holds only the traces of the jobs still to start.
#[derive(Debug, Default)]
pub struct TraceCache {
    bundles: Mutex<OnceCells<TraceBundle>>,
    drives: Mutex<OnceCells<Arc<BandwidthTrace>>>,
    /// Distinct keys generated so far.
    generated: AtomicUsize,
}

/// Once-cells by key, each dropped from the map at its last counted take.
#[derive(Debug)]
struct OnceCells<T> {
    cells: HashMap<u64, Arc<OnceLock<T>>>,
    /// The takes each key has left; a key absent here is never dropped.
    takes_left: HashMap<u64, usize>,
}

impl<T> Default for OnceCells<T> {
    fn default() -> Self {
        OnceCells {
            cells: HashMap::new(),
            takes_left: HashMap::new(),
        }
    }
}

impl<T> OnceCells<T> {
    /// The cell for `key`, counted as one take: the last take moves it out
    /// of the map, so the value lives only as long as its takers hold it.
    fn take(&mut self, key: u64) -> Arc<OnceLock<T>> {
        let last = self.takes_left.get_mut(&key).is_some_and(|left| {
            *left -= 1;
            *left == 0
        });
        if last {
            self.takes_left.remove(&key);
            self.cells.remove(&key).unwrap_or_default()
        } else {
            Arc::clone(self.cells.entry(key).or_default())
        }
    }
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// An empty cache for jobs with these trace keys and drive seeds
    /// ([`Scenario::drive_seed`]), one take per job.
    fn for_jobs(jobs: impl IntoIterator<Item = (u64, Option<u64>)>) -> Self {
        let mut bundles = OnceCells::default();
        let mut drives = OnceCells::default();
        for (key, drive_seed) in jobs {
            let takes = bundles.takes_left.entry(key).or_insert(0);
            *takes += 1;
            // A drive trace is taken once per distinct key of its seed.
            if let (1, Some(seed)) = (*takes, drive_seed) {
                *drives.takes_left.entry(seed).or_insert(0) += 1;
            }
        }
        TraceCache {
            bundles: Mutex::new(bundles),
            drives: Mutex::new(drives),
            generated: AtomicUsize::new(0),
        }
    }

    /// Returns the bundle for `scenario`'s trace key, generating and
    /// memoizing it on first use.
    pub fn get_or_generate(&self, scenario: &Scenario) -> TraceBundle {
        self.fetch(scenario.trace_key(), scenario)
    }

    /// [`TraceCache::get_or_generate`] for `scenario`'s already computed
    /// trace `key`.
    fn fetch(&self, key: u64, scenario: &Scenario) -> TraceBundle {
        let cell = lock(&self.bundles).take(key);
        let bundle = cell.get_or_init(|| {
            self.generated.fetch_add(1, Ordering::Relaxed);
            scenario.generate_traces_sharing(|seed| {
                let drive = lock(&self.drives).take(seed);
                let trace = drive.get_or_init(|| Arc::new(wuhan_drive_synthetic(seed)));
                Arc::clone(trace)
            })
        });
        bundle.clone()
    }

    /// Number of distinct trace keys generated so far.
    pub fn len(&self) -> usize {
        self.generated.load(Ordering::Relaxed)
    }

    /// Whether nothing has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Locks `mutex`, ignoring poison: a cell map is never left half-updated.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
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
/// let reports = grid.try_run()?;
/// assert_eq!(reports.len(), 3);
/// // Results are in job order no matter how many workers ran them.
/// assert_eq!(reports, grid.jobs(1).try_run()?);
/// # Ok::<(), etrain_sim::RunError>(())
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

    /// Builder: overrides the worker count (`1` forces in-line serial
    /// execution). Takes precedence over the detected parallelism (see
    /// [`resolve_workers`]); `0` is treated as `1`.
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

    /// Runs every job and returns the reports in job-index order, or the
    /// lowest-index failure, if any — regardless of worker count or
    /// completion order.
    ///
    /// # Errors
    ///
    /// Returns the first (by job index) scenario-validation failure or
    /// isolated job panic. Every other job still ran to completion first.
    pub fn try_run(&self) -> Result<Vec<RunReport>, RunError> {
        let mut reports = Vec::with_capacity(self.len());
        self.run_all(|_, (report, _)| report, |report| reports.push(report))
            .0?;
        Ok(reports)
    }

    /// [`RunGrid::try_run`] that additionally returns the grid's event
    /// journal as JSON Lines.
    ///
    /// Each worker tags the journal of the run it just finished with the
    /// job index and renders it, and the calling thread appends each run's
    /// lines as soon as every earlier job's are in. The lines are
    /// therefore in job-index order (not completion order) and
    /// byte-for-byte identical no matter how many workers ran the grid.
    /// Jobs whose scenario has observability off contribute no lines but
    /// keep their job index, so run tags stay aligned with job indices.
    ///
    /// # Errors
    ///
    /// Returns what [`RunGrid::try_run`] returns.
    pub fn try_run_journaled(&self) -> Result<(Vec<RunReport>, JournalLines), RunError> {
        let mut reports = Vec::with_capacity(self.len());
        let mut text = String::new();
        self.run_all(
            |index, (report, journal)| {
                let lines = journal.map_or_else(String::new, |mut journal| {
                    journal.set_run(index);
                    journal.to_jsonl()
                });
                (report, lines)
            },
            |(report, lines)| {
                reports.push(report);
                text.push_str(&lines);
            },
        )
        .0?;
        Ok((reports, JournalLines { text }))
    }

    /// The one execution path: runs every job on the worker pool against
    /// a trace cache that drops each bundle once its last job has taken
    /// it. On the worker, `finish` turns the output of job `index` into
    /// what the calling thread receives; `deliver` receives those in
    /// job-index order up to the first failure, which is returned, with
    /// the cache, once every job has run.
    fn run_all<R: Send>(
        &self,
        finish: impl Fn(usize, JobOutput) -> R + Sync,
        mut deliver: impl FnMut(R),
    ) -> (Result<(), RunError>, TraceCache) {
        let keys: Vec<u64> = self
            .specs
            .iter()
            .map(|spec| spec.scenario.trace_key())
            .collect();
        let cache = TraceCache::for_jobs(
            keys.iter()
                .zip(&self.specs)
                .map(|(&key, spec)| (key, spec.scenario.drive_seed())),
        );
        let indices: Vec<usize> = (0..self.specs.len()).collect();
        let mut failure = None;
        stream_pool(
            &indices,
            resolve_workers(self.jobs, indices.len()),
            |&index| {
                run_job(index, &self.specs[index], keys[index], &cache)
                    .map(|output| finish(index, output))
            },
            |outcome| match outcome {
                Ok(output) if failure.is_none() => deliver(output),
                Ok(_) => {}
                Err(error) => {
                    failure.get_or_insert(error);
                }
            },
        );
        (failure.map_or(Ok(()), Err), cache)
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
fn run_job(
    index: usize,
    spec: &RunSpec,
    key: u64,
    cache: &TraceCache,
) -> Result<JobOutput, RunError> {
    isolate(index, &spec.label, || {
        spec.scenario.validate()?;
        let traces = cache.fetch(key, &spec.scenario);
        let (report, _, journal) = spec.scenario.try_run_journaled_on(&traces)?;
        Ok((report, journal))
    })
}

/// Runs grid job `index` (labelled `label`), tagging its error as
/// [`RunError::Scenario`] and turning an unwind into
/// [`RunError::Panicked`] instead of tearing down the worker (and, under
/// `std::thread::scope`, the whole grid).
///
/// `AssertUnwindSafe` is sound here because a panicking job's only shared
/// state is the [`TraceCache`], which is itself poison-tolerant and only
/// ever holds fully generated bundles.
fn isolate<T>(
    index: usize,
    label: &str,
    job: impl FnOnce() -> Result<T, ScenarioError>,
) -> Result<T, RunError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
        Ok(Ok(output)) => Ok(output),
        Ok(Err(error)) => Err(RunError::Scenario {
            index,
            label: label.to_owned(),
            error,
        }),
        Err(payload) => Err(RunError::Panicked {
            index,
            label: label.to_owned(),
            payload: panic_payload_string(payload.as_ref()),
        }),
    }
}

/// Best-effort stringification of a caught panic payload (`panic!` with a
/// literal yields `&str`, with formatting yields `String`).
pub fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// The worker count for a pool over `items` jobs: `explicit` if given,
/// else the machine's available parallelism — clamped to `1..=items`, so
/// no worker ever idles from the start.
pub fn resolve_workers(explicit: Option<usize>, items: usize) -> usize {
    explicit
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, items.max(1))
}

/// Runs `job` on every item across up to `workers` scoped threads and
/// returns the results in item order: the stream of results the worker
/// pool hands the calling thread, collected.
///
/// Workers take items in index order and finish them in any order. With
/// one worker, or at most one item, every job runs in line, in index
/// order, and no thread is spawned.
///
/// # Panics
///
/// Panics if a job panics. In line, the job's panic propagates as is;
/// under the pool it stops only its worker, the other workers finish the
/// remaining items, and then the calling thread panics.
pub fn run_pool<T, R, F>(items: &[T], workers: usize, job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    stream_pool(items, workers, job, |result| results.push(result));
    results
}

/// The worker pool behind [`run_pool`]: hands each result to `deliver`
/// on the calling thread, in item order, as soon as it and every earlier
/// result are in.
///
/// Each worker sends its results to the calling thread, which holds a
/// result that arrives ahead of an earlier one until that one is
/// delivered.
///
/// # Panics
///
/// As [`run_pool`]; no result after the panicking item is delivered.
fn stream_pool<T, R, F>(items: &[T], workers: usize, job: F, mut deliver: impl FnMut(R))
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        items.iter().map(job).for_each(deliver);
        return;
    }
    let next = AtomicUsize::new(0);
    let (send, receive) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, job, send) = (&next, &job, send.clone());
                scope.spawn(move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else {
                        return;
                    };
                    // Fails only if the calling thread is unwinding.
                    if send.send((index, job(item))).is_err() {
                        return;
                    }
                })
            })
            .collect();
        drop(send);
        let mut early = BTreeMap::new();
        let mut due = 0;
        // The channel closes once every worker is done, a panicked one
        // included, so the survivors finish their items before a panic
        // is re-raised below.
        for (index, result) in receive {
            early.insert(index, result);
            while let Some(result) = early.remove(&due) {
                deliver(result);
                due += 1;
            }
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::BandwidthSource;

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

    /// Runs every job of `grid`, which must all succeed, and returns the
    /// grid's trace cache.
    fn cache_after_run(grid: &RunGrid) -> TraceCache {
        let (outcome, cache) = grid.run_all(|_, _| (), |()| {});
        assert_eq!(outcome, Ok(()));
        cache
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = theta_grid(1).try_run().unwrap();
        let parallel = theta_grid(4).try_run().unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn results_are_in_job_index_order() {
        let grid = theta_grid(3);
        let reports = grid.try_run().unwrap();
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
        let cache = cache_after_run(&theta_grid(2));
        assert_eq!(cache.len(), 1, "same workload+seed must share one bundle");
    }

    #[test]
    fn distinct_seeds_get_distinct_bundles() {
        let base = Scenario::paper_default().duration_secs(600);
        let cache = cache_after_run(&RunGrid::over_seeds(&base, &[1, 2, 3]).jobs(2));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn a_finished_grid_holds_no_bundle_and_generated_each_key_once() {
        let base = Scenario::paper_default().duration_secs(600);
        // Two seeds shared by three schedulers each, plus one seed alone.
        let specs: Vec<RunSpec> = [1, 2]
            .iter()
            .flat_map(|&seed| {
                RunGrid::over_schedulers(
                    &base.clone().seed(seed),
                    &[
                        SchedulerKind::Baseline,
                        SchedulerKind::ETrain {
                            theta: 0.2,
                            k: None,
                        },
                        SchedulerKind::PerEs { omega: 0.2 },
                    ],
                )
                .specs
            })
            .chain(RunGrid::over_seeds(&base, &[3]).specs)
            .collect();
        for jobs in [1, 3] {
            let cache = cache_after_run(&RunGrid::from_specs(specs.clone()).jobs(jobs));
            assert_eq!(cache.len(), 3, "each key generated once ({jobs} workers)");
            let bundles = lock(&cache.bundles);
            assert!(bundles.cells.is_empty(), "{jobs} workers");
            assert!(bundles.takes_left.is_empty(), "{jobs} workers");
            let drives = lock(&cache.drives);
            assert!(drives.cells.is_empty(), "{jobs} workers");
            assert!(drives.takes_left.is_empty(), "{jobs} workers");
        }
    }

    #[test]
    fn keys_of_one_seed_share_its_drive_trace() {
        let base = Scenario::paper_default().duration_secs(600).seed(4);
        let cache = TraceCache::new();
        let bundles: Vec<TraceBundle> = [0.04, 0.08, 0.16]
            .iter()
            .map(|&lambda| cache.get_or_generate(&base.clone().lambda(lambda)))
            .collect();
        assert_eq!(cache.len(), 3);
        for bundle in &bundles[1..] {
            assert!(Arc::ptr_eq(&bundle.bandwidth, &bundles[0].bandwidth));
            assert!(!Arc::ptr_eq(&bundle.packets, &bundles[0].packets));
        }
        // The shared trace is the one the scenario generates alone.
        assert_eq!(*bundles[0].bandwidth, *base.generate_traces().bandwidth);
        let other_seed = cache.get_or_generate(&base.clone().seed(5));
        assert!(!Arc::ptr_eq(&other_seed.bandwidth, &bundles[0].bandwidth));
    }

    #[test]
    fn concurrent_callers_of_one_key_wait_for_a_single_synthesis() {
        let cache = TraceCache::new();
        let scenario = Scenario::paper_default().duration_secs(600).seed(6);
        let start = std::sync::Barrier::new(4);
        let bundles: Vec<TraceBundle> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.get_or_generate(&scenario)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1, "one synthesis for four callers");
        for bundle in &bundles[1..] {
            assert!(Arc::ptr_eq(&bundle.packets, &bundles[0].packets));
        }
    }

    #[test]
    fn an_open_ended_cache_keeps_every_bundle() {
        let cache = TraceCache::new();
        let base = Scenario::paper_default().duration_secs(600);
        for seed in [1, 2, 1] {
            cache.get_or_generate(&base.clone().seed(seed));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(lock(&cache.bundles).cells.len(), 2);
        assert_eq!(lock(&cache.drives).cells.len(), 2);
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
        let reports = grid.try_run().unwrap();
        assert_eq!(reports[0].scheduler, "Baseline");
        assert_eq!(reports[1].scheduler, "eTime");
    }

    #[test]
    fn invalid_job_reports_lowest_index_regardless_of_jobs() {
        for jobs in [1, 4] {
            let base = Scenario::paper_default().duration_secs(600).seed(1);
            let grid = RunGrid::from_specs(vec![
                RunSpec::new("ok", base.clone()),
                RunSpec::new(
                    "bad-bandwidth",
                    base.clone().bandwidth(BandwidthSource::Constant(0.0)),
                ),
                RunSpec::new("bad-duration", base.clone().duration_secs(0)),
            ])
            .jobs(jobs);
            let err = grid.try_run().unwrap_err();
            assert!(
                matches!(&err, RunError::Scenario { index: 1, label, .. } if label == "bad-bandwidth"),
                "jobs={jobs}: {err:?}"
            );
            assert!(err.to_string().contains("grid job #1"));
        }
    }

    #[test]
    fn panicking_job_is_isolated_and_reported() {
        let err = isolate::<()>(1, "boom", || panic!("job {} blew up", 1)).unwrap_err();
        assert!(
            matches!(&err, RunError::Panicked { index: 1, label, payload }
                if label == "boom" && payload == "job 1 blew up"),
            "{err:?}"
        );
        assert!(err.to_string().contains("panicked"), "{err}");
        assert_eq!(isolate(2, "ok", || Ok(7)), Ok(7));
        let err = isolate::<()>(3, "bad", || {
            Err(ScenarioError::InvalidDuration { horizon_s: 0.0 })
        })
        .unwrap_err();
        assert!(
            matches!(&err, RunError::Scenario { index: 3, label, .. } if label == "bad"),
            "{err:?}"
        );
    }

    #[test]
    fn every_failing_job_is_reported_in_index_order() {
        let base = Scenario::paper_default().duration_secs(600).seed(3);
        let grid = RunGrid::from_specs(vec![
            RunSpec::new("ok-0", base.clone()),
            RunSpec::new("boom", base.clone().seed(5)),
            RunSpec::new("ok-2", base.clone().seed(4)),
            RunSpec::new("bad-duration", base.clone().duration_secs(0)),
            RunSpec::new("ok-4", base.clone().seed(6)),
        ]);
        let indices: Vec<usize> = (0..grid.len()).collect();
        let mut survivors = Vec::new();
        for jobs in [1, 2] {
            // Job 1 panics mid-run; the pool isolates it like a grid job.
            let outcomes = run_pool(&indices, jobs, |&index| {
                let spec = &grid.specs()[index];
                isolate(index, &spec.label, || {
                    if index == 1 {
                        panic!("job {index} blew up");
                    }
                    spec.scenario.try_run()
                })
            });
            assert_eq!(outcomes.len(), 5, "jobs={jobs}");
            let errors: Vec<&RunError> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
            assert_eq!(errors.len(), 2, "jobs={jobs}: {errors:?}");
            assert!(
                matches!(
                    errors[0],
                    RunError::Panicked { index: 1, payload, .. } if payload == "job 1 blew up"
                ),
                "jobs={jobs}: {:?}",
                errors[0]
            );
            assert!(
                matches!(
                    errors[1],
                    RunError::Scenario { index: 3, label, .. } if label == "bad-duration"
                ),
                "jobs={jobs}: {:?}",
                errors[1]
            );
            // The grid itself reports its one failing job.
            let err = RunGrid::from_specs(grid.specs().to_vec())
                .jobs(jobs)
                .try_run()
                .unwrap_err();
            assert!(
                matches!(err, RunError::Scenario { index: 3, .. }),
                "jobs={jobs}: {err:?}"
            );
            let ok: Vec<(usize, RunReport)> = outcomes
                .into_iter()
                .enumerate()
                .filter_map(|(i, o)| o.ok().map(|report| (i, report)))
                .collect();
            assert_eq!(
                ok.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                vec![0, 2, 4],
                "jobs={jobs}"
            );
            survivors.push(ok);
        }
        // Surviving reports are bit-for-bit identical serial vs pool.
        assert_eq!(survivors[0], survivors[1]);
    }

    #[test]
    fn journaled_run_reports_the_lowest_index_error() {
        for jobs in [1, 3] {
            let base = Scenario::paper_default().duration_secs(600).seed(3);
            let grid = RunGrid::from_specs(vec![
                RunSpec::new("ok-0", base.clone()),
                RunSpec::new("bad-duration", base.clone().duration_secs(0)),
                RunSpec::new(
                    "bad-bandwidth",
                    base.clone().bandwidth(BandwidthSource::Constant(0.0)),
                ),
            ])
            .jobs(jobs);
            let err = grid.try_run_journaled().unwrap_err();
            assert!(
                matches!(&err, RunError::Scenario { index: 1, label, .. } if label == "bad-duration"),
                "jobs={jobs}: {err:?}"
            );
            assert_eq!(grid.try_run().unwrap_err(), err, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_grid_runs_to_empty() {
        assert_eq!(RunGrid::new().try_run(), Ok(Vec::new()));
        assert_eq!(
            RunGrid::new()
                .try_run_journaled()
                .map(|(reports, _)| reports),
            Ok(Vec::new())
        );
    }

    #[test]
    fn pool_reraises_a_worker_panic_after_the_survivors_finish() {
        let items: Vec<usize> = (0..20).collect();
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pool(&items, 3, |&i| {
                if i == 5 {
                    panic!("job {i} failed");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                i
            })
        }))
        .unwrap_err();
        // The panicking worker stops; the other two drain every other item
        // before the calling thread re-raises the job's own payload.
        assert_eq!(finished.load(Ordering::SeqCst), items.len() - 1);
        assert_eq!(panic_payload_string(caught.as_ref()), "job 5 failed");
    }

    #[test]
    fn inline_pool_stops_at_the_panicking_job() {
        let ran = Mutex::new(Vec::new());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pool(&[0usize, 1, 2, 3], 1, |&i| {
                ran.lock().unwrap().push(i);
                if i == 2 {
                    panic!("in-line boom");
                }
                i
            })
        }))
        .unwrap_err();
        assert_eq!(ran.into_inner().unwrap(), vec![0, 1, 2]);
        assert_eq!(panic_payload_string(caught.as_ref()), "in-line boom");
    }

    #[test]
    fn panic_payloads_are_stringified() {
        let literal: Box<dyn std::any::Any + Send> = Box::new("literal");
        let formatted: Box<dyn std::any::Any + Send> = Box::new(format!("job {}", 7));
        let opaque: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        assert_eq!(panic_payload_string(literal.as_ref()), "literal");
        assert_eq!(panic_payload_string(formatted.as_ref()), "job 7");
        assert_eq!(
            panic_payload_string(opaque.as_ref()),
            "opaque panic payload"
        );
    }

    #[test]
    fn pool_results_reassemble_in_index_order() {
        let items: Vec<u64> = (0..50).collect();
        for workers in [1, 2, 7] {
            let squares = run_pool(&items, workers, |&x| x * x);
            assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_reports_each_index_exactly_once_when_jobs_finish_out_of_order() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<usize> = (0..12).collect();
        for workers in [1, 2, 7] {
            // Under a pool, job 0 holds until another job has finished, so
            // jobs are guaranteed to finish out of order.
            let other_finished = AtomicBool::new(false);
            let finish_order = Mutex::new(Vec::new());
            let results = run_pool(&items, workers, |&i| {
                while i == 0 && workers > 1 && !other_finished.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                finish_order.lock().unwrap().push(i);
                other_finished.store(true, Ordering::SeqCst);
                i * 10
            });
            assert_eq!(
                results,
                items.iter().map(|i| i * 10).collect::<Vec<_>>(),
                "workers={workers}"
            );
            let order = finish_order.into_inner().unwrap();
            let in_order = order.windows(2).all(|w| w[0] < w[1]);
            assert_eq!(in_order, workers == 1, "workers={workers}: {order:?}");
        }
    }

    #[test]
    fn pool_streams_results_in_item_order_when_later_items_finish_first() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let items: Vec<usize> = (0..8).collect();
        let last = items.len() - 1;
        for workers in [2, 3] {
            let finished = AtomicUsize::new(0);
            let delivered = AtomicUsize::new(0);
            let streamed = AtomicBool::new(false);
            let finish_order = Mutex::new(Vec::new());
            let mut delivery_order = Vec::new();
            stream_pool(
                &items,
                workers,
                |&i| {
                    // Item 0 finishes after every item but the last.
                    while i == 0 && finished.load(Ordering::SeqCst) < last - 1 {
                        std::thread::yield_now();
                    }
                    // The last item waits, for a while, until every
                    // earlier result has reached the calling thread.
                    if i == last {
                        let start = Instant::now();
                        while delivered.load(Ordering::SeqCst) < last
                            && start.elapsed() < Duration::from_secs(10)
                        {
                            std::thread::yield_now();
                        }
                        streamed.store(delivered.load(Ordering::SeqCst) == last, Ordering::SeqCst);
                    }
                    finish_order.lock().unwrap().push(i);
                    finished.fetch_add(1, Ordering::SeqCst);
                    i * 10
                },
                |result| {
                    delivery_order.push(result / 10);
                    delivered.fetch_add(1, Ordering::SeqCst);
                },
            );
            let finish_order = finish_order.into_inner().unwrap();
            let zero_at = finish_order.iter().position(|&i| i == 0);
            assert_eq!(
                zero_at,
                Some(last - 1),
                "workers={workers}: {finish_order:?}"
            );
            assert_eq!(delivery_order, items, "workers={workers}");
            assert!(
                streamed.load(Ordering::SeqCst),
                "workers={workers}: results were held until the pool finished"
            );
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
        let results = run_pool(&items, 64, |&i| {
            barrier.wait();
            i
        });
        assert_eq!(results, vec![0, 1, 2]);
        let none: Vec<()> = run_pool(&[] as &[u8], 4, |_| unreachable!());
        assert!(none.is_empty());
    }

    #[test]
    fn worker_count_resolution_table() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // (explicit, items) -> workers
        let cases: [(Option<usize>, usize, usize); 6] = [
            (Some(3), 10, 3), // the explicit count
            (Some(64), 4, 4), // clamped to the item count
            (Some(0), 4, 1),  // never fewer than one
            (Some(5), 0, 1),  // empty grids get one
            (None, 1000, cores.min(1000)),
            (None, 1, 1),
        ];
        for (explicit, items, want) in cases {
            assert_eq!(
                resolve_workers(explicit, items),
                want,
                "explicit={explicit:?} items={items}"
            );
        }
    }
}
