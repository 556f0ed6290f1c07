//! The layer ledger of a traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A span name is `<layer>.<call>`, so `svc.wal.append` belongs to layer
//! `svc.wal`. Spans aggregate in memory per name (calls and total time),
//! plus a bounded raw sample of individual spans, and are written out when
//! the run ends.
//!
//! Each layer's share is its spans' total time over the live time of the
//! threads that did the traced work: both workers while a pool runs, the
//! one main thread during serial phases. `accounted_share` sums the shares,
//! so a value well below 1 means time the ledger does not explain.
//! Side spans, measurements the workload itself does not make, are kept
//! out of the shares.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Raw spans kept per ledger; the rest are only aggregated.
const RAW_SAMPLE: usize = 256;

/// Calls and total time of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotal {
    /// Calls made.
    pub calls: u64,
    /// Their total wall time, ns (estimated where calls were sampled).
    pub ns: f64,
}

/// One span of the raw sample, in ns since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSpan {
    /// The span name.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// The enclosing unit of work: `device`, `run`, `request`, `restart`,
    /// or `serial` for the main thread's phases.
    pub parent: &'static str,
}

/// Spans, counts and thread time of one traced run (see the module docs).
#[derive(Debug, Clone)]
pub struct Ledger {
    epoch: Instant,
    spans: BTreeMap<&'static str, SpanTotal>,
    side: BTreeMap<&'static str, SpanTotal>,
    counts: BTreeMap<&'static str, u64>,
    sample: Vec<RawSpan>,
    thread_ns: f64,
}

impl Ledger {
    /// An empty ledger whose raw spans are stamped relative to `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Ledger {
            epoch,
            spans: BTreeMap::new(),
            side: BTreeMap::new(),
            counts: BTreeMap::new(),
            sample: Vec::new(),
            thread_ns: 0.0,
        }
    }

    fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Times `call` as one span `name` inside unit `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = call();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Times `call` as a span on the main thread between pools: the span
    /// also counts as live thread time.
    pub fn serial<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.record(name, "serial", start, end);
        self.thread_ns += end.duration_since(start).as_nanos() as f64;
        out
    }

    /// Times a side measurement: reported, but kept out of the shares.
    pub fn side<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.add_side(name, start.elapsed().as_nanos() as f64);
        out
    }

    /// Adds one call of `ns` to side measurement `name`.
    pub fn add_side(&mut self, name: &'static str, ns: f64) {
        let total = self.side.entry(name).or_default();
        total.calls += 1;
        total.ns += ns;
    }

    /// Records one span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.add(name, 1, end.duration_since(start).as_nanos() as f64);
        if self.sample.len() < RAW_SAMPLE {
            self.sample.push(RawSpan {
                name,
                start_ns: self.stamp(start),
                end_ns: self.stamp(end),
                parent,
            });
        }
    }

    /// Adds `calls` calls totalling `ns` to span `name` (a negative `ns`
    /// moves time out of a span, e.g. from an engine run to the scheduler
    /// calls made inside it).
    pub fn add(&mut self, name: &'static str, calls: u64, ns: f64) {
        let total = self.spans.entry(name).or_default();
        total.calls += calls;
        total.ns += ns;
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Adds live thread time that the spans should explain.
    pub fn add_thread_ns(&mut self, ns: f64) {
        self.thread_ns += ns;
    }

    /// Folds `other` into this ledger.
    pub fn absorb(&mut self, other: Ledger) {
        for (name, total) in other.spans {
            self.add(name, total.calls, total.ns);
        }
        for (name, total) in other.side {
            let mine = self.side.entry(name).or_default();
            mine.calls += total.calls;
            mine.ns += total.ns;
        }
        for (name, n) in other.counts {
            self.count(name, n);
        }
        let room = RAW_SAMPLE.saturating_sub(self.sample.len());
        self.sample.extend(other.sample.into_iter().take(room));
        self.thread_ns += other.thread_ns;
    }

    /// The aggregated spans, by name.
    pub fn spans(&self) -> &BTreeMap<&'static str, SpanTotal> {
        &self.spans
    }

    /// The side measurements, by name.
    pub fn side_spans(&self) -> &BTreeMap<&'static str, SpanTotal> {
        &self.side
    }

    /// The counters, by name.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Counter `name`, 0 when never counted.
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The raw span sample.
    pub fn sample(&self) -> &[RawSpan] {
        &self.sample
    }

    /// Live thread time the shares divide by, ns.
    pub fn thread_ns(&self) -> f64 {
        self.thread_ns
    }

    /// Total time of the spans of `layer`, ns.
    pub fn layer_ns(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(name, _)| layer_of(name) == layer)
            .fold(0.0, |sum, (_, total)| sum + total.ns)
    }

    /// `layer`'s share of the live thread time.
    pub fn share(&self, layer: &str) -> f64 {
        ratio(self.layer_ns(layer), self.thread_ns)
    }

    /// All layers' shares together.
    pub fn accounted_share(&self) -> f64 {
        ratio(
            self.spans.values().fold(0.0, |sum, t| sum + t.ns),
            self.thread_ns,
        )
    }
}

/// The layer of span `name`: everything before its last `.`.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What [`pool`] returns: the results in index order, the workers' merged
/// ledger, and each job's wall time in ns.
pub struct Pooled<T> {
    /// `job(i)` for every index, in index order.
    pub results: Vec<T>,
    /// The workers' spans, with their live time as thread time.
    pub ledger: Ledger,
    /// Wall time of each job, ns, in index order.
    pub job_ns: Vec<f64>,
}

/// Runs `job(i)` for every `i` in `0..jobs` on `workers` scoped threads that
/// take indices in order, the way `RunGrid` and `run_fleet` hand out work.
pub fn pool<T: Send>(
    jobs: usize,
    workers: usize,
    epoch: Instant,
    job: impl Fn(usize, &mut Ledger) -> T + Sync,
) -> Pooled<T> {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T, f64)>> = Mutex::new(Vec::with_capacity(jobs));
    let ledgers: Mutex<Vec<Ledger>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, jobs.max(1)) {
            scope.spawn(|| {
                let born = Instant::now();
                let mut ledger = Ledger::new(epoch);
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    if index >= jobs {
                        break;
                    }
                    let start = Instant::now();
                    let out = job(index, &mut ledger);
                    mine.push((index, out, start.elapsed().as_nanos() as f64));
                }
                ledger.add_thread_ns(born.elapsed().as_nanos() as f64);
                done.lock().expect("no worker panicked").extend(mine);
                ledgers.lock().expect("no worker panicked").push(ledger);
            });
        }
    });
    let mut done = done.into_inner().expect("no worker panicked");
    done.sort_by_key(|(index, _, _)| *index);
    let mut ledger = Ledger::new(epoch);
    for part in ledgers.into_inner().expect("no worker panicked") {
        ledger.absorb(part);
    }
    let mut results = Vec::with_capacity(jobs);
    let mut job_ns = Vec::with_capacity(jobs);
    for (_, out, ns) in done {
        results.push(out);
        job_ns.push(ns);
    }
    Pooled {
        results,
        ledger,
        job_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_are_named_before_the_last_dot() {
        assert_eq!(layer_of("svc.wal.append"), "svc.wal");
        assert_eq!(layer_of("trace.packets"), "trace");
        assert_eq!(layer_of("bare"), "bare");
    }

    #[test]
    fn pool_returns_results_in_index_order_and_counts_thread_time() {
        let pooled = pool(50, 2, Instant::now(), |i, ledger| {
            ledger.time("sim.job", "run", || std::hint::black_box(i * 2))
        });
        assert_eq!(pooled.results, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(pooled.ledger.spans()["sim.job"].calls, 50);
        assert!(pooled.ledger.thread_ns() >= pooled.ledger.layer_ns("sim"));
        assert!(pooled.ledger.accounted_share() <= 1.0);
    }
}
