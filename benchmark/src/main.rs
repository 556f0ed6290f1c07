//! The repository benchmark: five workloads over the eTrain workspace, each
//! timed end to end with tracing off, plus a traced run that splits the same
//! work into a per-layer ledger. See `README.md` for the workloads, the
//! metrics and the results format.
//!
//! ```text
//! etrain-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! etrain-benchmark --check
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it is the full `etrain-benchmark-v1` document.

mod calib;
mod daemon;
mod fleet;
mod grid;
mod ledger;
mod timed;

use std::time::Instant;

use calib::Timing;
use ledger::Ledger;

/// Worker threads of the simulation workloads and client connections of
/// the daemon workloads. Fixed here, never read from the environment: the
/// benchmark machine has 2 cores.
pub const WORKERS: usize = 2;

/// The fewest windows a run measures, so that each median has samples.
pub const MIN_WINDOWS: usize = 4;

/// The workloads, in the order `--check` runs them.
const WORKLOADS: [&str; 5] = [
    "fleet",
    "paper_grid",
    "journal_grid",
    "daemon",
    "daemon_recovery",
];

/// End-to-end metrics: (name, unit). Reported with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit). Reported by the traced run.
pub const PER_LAYER: [(&str, &str); 14] = [
    ("accounted_share", "ratio"),
    ("trace_overhead", "ratio"),
    ("trace.share", "ratio"),
    ("sched.share", "ratio"),
    ("sim.share", "ratio"),
    ("oracle.share", "ratio"),
    ("obs.share", "ratio"),
    ("fleet.share", "ratio"),
    ("svc.protocol.share", "ratio"),
    ("svc.wal.share", "ratio"),
    ("svc.apply.share", "ratio"),
    ("trace.cache_hit_ratio", "ratio"),
    ("sim.skip_ratio", "ratio"),
    ("sched.release_ratio", "ratio"),
];

/// How one invocation runs a workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Drives every generated input.
    pub seed: u64,
    /// How long the timed phase measures, s.
    pub seconds: f64,
    /// Run the traced replica alongside the measured work.
    pub trace: bool,
    /// The small `--check` tier.
    pub check: bool,
}

impl Params {
    /// Set-ups to time: a workload's `count`, or one in the check tier.
    /// `setup_s` is their median.
    pub fn setups(&self, count: usize) -> usize {
        if self.check {
            1
        } else {
            count
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Each set-up: inputs, prefill and warm-up.
    pub setups: Vec<Timing>,
    /// Each window of the untraced timed phase (a batch, a load round or a
    /// restart) with the units of work it did: devices, runs, requests or
    /// restarts.
    pub windows: Vec<(u64, Timing)>,
    /// Each operation of the untraced timed phase whose latency is
    /// reported.
    pub ops: Vec<Timing>,
    /// Peak resident memory of the process doing the work, MB.
    pub peak_rss_mb: f64,
    /// Devices, runs, requests or restarts attempted.
    pub attempted: u64,
    /// How many of them failed a check.
    pub failed: u64,
    /// What went wrong, for the report.
    pub problems: Vec<String>,
    /// Workload-specific numbers for the results document.
    pub detail: Vec<(&'static str, f64)>,
    /// The traced replica's ledger, in traced runs.
    pub ledger: Option<Ledger>,
    /// Wall time per unit of the traced replica over that of the untraced
    /// work, minus 1, in traced runs.
    pub trace_overhead: f64,
}

impl Outcome {
    /// Records one batch of a batch workload: a window whose time is also
    /// the latency reported. Reads this process's peak memory after the
    /// first batch: after a fixed amount of work, so that a faster program,
    /// which fits more batches into a run, is not charged for what its
    /// extra batches leave in the allocator, and so that the allocator's
    /// history over many batches adds no noise.
    pub fn batch(&mut self, units: u64, timing: Timing) {
        self.windows.push((units, timing));
        self.ops.push(timing);
        if self.windows.len() == 1 {
            self.peak_rss_mb = peak_rss_mb(None);
        }
    }

    /// Units of work in the untraced timed phase.
    pub fn units(&self) -> u64 {
        self.windows.iter().map(|(units, _)| units).sum()
    }

    /// Wall time of the untraced timed phase, s.
    pub fn timed_s(&self) -> f64 {
        self.windows.iter().fold(0.0, |sum, (_, t)| sum + t.wall_s)
    }

    /// Records a failed check of `count` attempted items.
    pub fn fail(&mut self, count: u64, problem: String) {
        self.failed += count;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The end-to-end metrics, in [`END_TO_END`] order, at the nominal
    /// speed (or as measured, raw).
    pub fn end_to_end(&self, raw: bool) -> Vec<f64> {
        let pick = |t: &Timing| if raw { t.wall_s } else { t.scaled_s };
        let setups: Vec<f64> = self.setups.iter().map(pick).collect();
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|(units, t)| ledger::ratio(*units as f64, pick(t)))
            .collect();
        let ops: Vec<f64> = self.ops.iter().map(|t| pick(t) * 1e3).collect();
        vec![
            median(&setups),
            median(&rates),
            median(&ops),
            self.peak_rss_mb,
        ]
    }

    /// The per-layer metrics, in [`PER_LAYER`] order (all 0 untraced).
    pub fn per_layer(&self) -> Vec<f64> {
        let Some(ledger) = &self.ledger else {
            return vec![0.0; PER_LAYER.len()];
        };
        let count = |name| ledger.counter(name) as f64;
        let on_slot = ledger
            .spans()
            .get("sched.on_slot")
            .map_or(0.0, |t| t.calls as f64);
        let mut values = vec![ledger.accounted_share(), self.trace_overhead];
        for (name, _) in &PER_LAYER[2..11] {
            values.push(ledger.share(name.trim_end_matches(".share")));
        }
        let calls = count("trace.cache.calls");
        values.push(ledger::ratio(calls - count("trace.cache.generated"), calls));
        // Slot boundaries the event kernel retired without an `on_slot` call.
        let steps = count("sim.steps");
        values.push(ledger::ratio(steps - on_slot, steps));
        values.push(ledger::ratio(count("sched.on_slot.releases"), on_slot));
        values
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The nearest-rank `q` quantile of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// SplitMix64's output mix: spreads consecutive integers into unrelated
/// 64-bit values, for deriving per-batch seeds from the run seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of batch `batch` of a run seeded `seed` (set-up batches use
/// indices from the top of the range, so they never repeat a timed batch).
pub fn batch_seed(seed: u64, batch: u64) -> u64 {
    mix(seed ^ mix(batch))
}

/// A fast 64-bit hash of `bytes`, for comparing large outputs.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks are 8 bytes"));
        hash = (hash ^ word)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }
    for &byte in words.remainder() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(hash)
}

/// Peak resident memory (`VmHWM`) of process `pid`, or of this process, MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A working directory inside the build directory the benchmark runs from,
/// removed when dropped.
pub struct WorkDir(pub std::path::PathBuf);

impl WorkDir {
    /// A fresh, empty directory named `name`.
    pub fn new(name: &str) -> WorkDir {
        let exe = std::env::current_exe().expect("the running binary has a path");
        let root = exe
            .parent()
            .expect("the binary lives in a directory")
            .join("benchmark-work")
            .join(std::process::id().to_string());
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("the build directory is writable");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(root) = self.0.parent() {
            // Succeeds only once the run's last directory is gone.
            let _ = std::fs::remove_dir(root);
            if let Some(base) = root.parent() {
                let _ = std::fs::remove_dir(base);
            }
        }
    }
}

fn run_workload(name: &str, params: &Params) -> Result<Outcome, String> {
    match name {
        "fleet" => Ok(fleet::run(params)),
        "paper_grid" => Ok(grid::run_paper(params)),
        "journal_grid" => Ok(grid::run_journal(params)),
        "daemon" => daemon::run_load(params),
        "daemon_recovery" => daemon::run_recovery(params),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(names: &[(&str, &str)], values: &[f64]) -> String {
    let fields: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), value)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The result object: the last line of standard output.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        metrics_json(&PER_LAYER, &outcome.per_layer())
    } else {
        metrics_json(&END_TO_END, &outcome.end_to_end(false))
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                line.strip_prefix("model name")
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The `etrain-benchmark-v1` document (see `README.md` for its fields).
fn document(workload: &str, params: &Params, outcome: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut fields = vec![
        format!("\"format\":{}", json_str("etrain-benchmark-v1")),
        format!("\"workload\":{}", json_str(workload)),
        format!("\"seed\":{}", params.seed),
        format!("\"seconds\":{}", json_num(params.seconds)),
        format!("\"trace\":{}", params.trace),
        format!("\"check\":{}", params.check),
        format!(
            "\"env\":{{\"nproc\":{nproc},\"cpu_model\":{},\"workers\":{WORKERS}}}",
            json_str(&cpu_model())
        ),
        format!("\"correct\":{}", outcome.correct()),
        format!("\"attempted\":{}", outcome.attempted),
        format!("\"failed\":{}", outcome.failed),
        format!(
            "\"problems\":[{}]",
            outcome
                .problems
                .iter()
                .map(|p| json_str(p))
                .collect::<Vec<_>>()
                .join(",")
        ),
        format!(
            "\"end_to_end\":{}",
            metrics_json(&END_TO_END, &outcome.end_to_end(false))
        ),
        format!(
            "\"end_to_end_raw\":{}",
            metrics_json(&END_TO_END, &outcome.end_to_end(true))
        ),
        format!(
            "\"windows\":{{\"count\":{},\"units\":{},\"wall_s\":{},\"ops\":{}}}",
            outcome.windows.len(),
            outcome.units(),
            json_num(outcome.timed_s()),
            outcome.ops.len()
        ),
        format!(
            "\"detail\":{{{}}}",
            outcome
                .detail
                .iter()
                .map(|(name, value)| format!("{}:{}", json_str(name), json_num(*value)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ];
    if let Some(ledger) = &outcome.ledger {
        fields.push(format!(
            "\"per_layer\":{}",
            metrics_json(&PER_LAYER, &outcome.per_layer())
        ));
        let spans = |map: &std::collections::BTreeMap<&'static str, ledger::SpanTotal>| {
            map.iter()
                .map(|(name, t)| {
                    format!(
                        "{{\"name\":{},\"layer\":{},\"calls\":{},\"total_ns\":{},\"ns_per_call\":{}}}",
                        json_str(name),
                        json_str(ledger::layer_of(name)),
                        t.calls,
                        json_num(t.ns),
                        json_num(ledger::ratio(t.ns, t.calls as f64))
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let counts = ledger
            .counts()
            .iter()
            .map(|(name, n)| format!("{}:{n}", json_str(name)))
            .collect::<Vec<_>>()
            .join(",");
        let sample = ledger
            .sample()
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    json_str(s.name),
                    s.start_ns,
                    s.end_ns,
                    json_str(s.parent)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        fields.push(format!(
            "\"ledger\":{{\"thread_ns\":{},\"spans\":[{}],\"side\":[{}],\"counts\":{{{}}},\"sample\":[{}]}}",
            json_num(ledger.thread_ns()),
            spans(ledger.spans()),
            spans(ledger.side_spans()),
            counts,
            sample
        ));
    }
    format!("{{{}}}", fields.join(","))
}

/// A human-readable summary for standard error.
fn summary(workload: &str, params: &Params, outcome: &Outcome) -> String {
    let mut out = format!(
        "{workload}: seed {} seconds {} trace {} -> correct {} attempted {} failed {}\n",
        params.seed,
        params.seconds,
        params.trace,
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for problem in &outcome.problems {
        out.push_str(&format!("  problem: {problem}\n"));
    }
    for (((name, unit), value), raw) in END_TO_END
        .iter()
        .zip(outcome.end_to_end(false))
        .zip(outcome.end_to_end(true))
    {
        out.push_str(&format!(
            "  {name:<24} {value:>14.4} {unit:<6} (as measured {raw:.4})\n"
        ));
    }
    for (name, value) in &outcome.detail {
        out.push_str(&format!("  {name:<40} {value:>14.4}\n"));
    }
    if let Some(ledger) = &outcome.ledger {
        for ((name, unit), value) in PER_LAYER.iter().zip(outcome.per_layer()) {
            out.push_str(&format!("  {name:<24} {value:>14.4} {unit}\n"));
        }
        out.push_str(&format!(
            "  {:<28} {:>12} {:>14} {:>12}\n",
            "span", "calls", "total ms", "ns/call"
        ));
        for (kind, map) in [("", ledger.spans()), ("side ", ledger.side_spans())] {
            for (name, t) in map {
                out.push_str(&format!(
                    "  {:<28} {:>12} {:>14.3} {:>12.0}\n",
                    format!("{kind}{name}"),
                    t.calls,
                    t.ns / 1e6,
                    ledger::ratio(t.ns, t.calls as f64)
                ));
            }
        }
    }
    out
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_owned())?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds takes a positive number".to_owned())?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--check" => parsed.check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.check == parsed.workload.is_some() {
        return Err("give either --workload <name> or --check".to_owned());
    }
    Ok(parsed)
}

/// Variables the benchmark refuses to run under: any `ETRAIN_*` knob
/// would change what the workloads measure. Only the daemon's path may be
/// given.
fn environment_knobs() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("ETRAIN_") && key != "ETRAIN_SVCD_BIN")
        .collect()
}

/// The `--check` tier: every workload, small, traced, with both metric
/// sets compared against `BENCHMARK.json`.
fn check() -> bool {
    let listed = Listed::load();
    let mut ok = true;
    for (index, workload) in WORKLOADS.iter().enumerate() {
        let params = Params {
            seed: index as u64 + 1,
            seconds: 0.5,
            trace: true,
            check: true,
        };
        let started = Instant::now();
        match run_workload(workload, &params) {
            Ok(outcome) => {
                eprint!("{}", summary(workload, &params, &outcome));
                let problems = listed.mismatches(&outcome);
                for problem in &problems {
                    eprintln!("  BENCHMARK.json: {problem}");
                }
                ok &= outcome.correct() && problems.is_empty();
            }
            Err(reason) => {
                eprintln!("{workload}: {reason}");
                ok = false;
            }
        }
        eprintln!("  ({:.1} s)", started.elapsed().as_secs_f64());
    }
    ok
}

/// The metric lists of `BENCHMARK.json`, compiled in.
#[derive(Debug, serde::Deserialize)]
struct Listed {
    end_to_end: Vec<ListedMetric>,
    per_layer: Vec<ListedMetric>,
}

#[derive(Debug, serde::Deserialize)]
struct ListedMetric {
    name: String,
    unit: String,
}

impl Listed {
    fn load() -> Listed {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    /// Where the metrics an outcome emits differ from the listed ones.
    fn mismatches(&self, outcome: &Outcome) -> Vec<String> {
        let mut problems = Vec::new();
        for (listed, emitted, values) in [
            (&self.end_to_end, &END_TO_END[..], outcome.end_to_end(false)),
            (&self.per_layer, &PER_LAYER[..], outcome.per_layer()),
        ] {
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            if listed != emitted {
                problems.push(format!(
                    "emits {emitted:?} but BENCHMARK.json lists {listed:?}"
                ));
            }
            for ((name, _), value) in emitted.iter().zip(values) {
                if !value.is_finite() {
                    problems.push(format!("{name} is {value}"));
                }
            }
        }
        for ((name, _), value) in END_TO_END.iter().zip(outcome.end_to_end(false)) {
            if value <= 0.0 {
                problems.push(format!(
                    "{name} is {value}, but end-to-end metrics are never 0"
                ));
            }
        }
        problems
    }
}

fn main() {
    let knobs = environment_knobs();
    if !knobs.is_empty() {
        eprintln!("etrain-benchmark: refusing to run with {knobs:?} set; unset them first");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("etrain-benchmark: {reason}");
            std::process::exit(2);
        }
    };
    if args.check {
        std::process::exit(if check() { 0 } else { 1 });
    }
    let workload = args.workload.expect("parse_args requires a workload");
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        check: false,
    };
    calib::settle();
    let outcome = match run_workload(&workload, &params) {
        Ok(outcome) => outcome,
        Err(reason) => {
            eprintln!("etrain-benchmark: {workload}: {reason}");
            std::process::exit(1);
        }
    };
    eprint!("{}", summary(&workload, &params, &outcome));
    println!("{}", document(&workload, &params, &outcome));
    println!("{}", result_line(&outcome, params.trace));
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_listed_in_benchmark_json() {
        let file = Listed::load();
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(name), "{name}");
        }
        let listed: Vec<&str> = file
            .end_to_end
            .iter()
            .chain(&file.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let emitted: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(listed, emitted);
    }

    #[test]
    fn check_tier_emits_every_benchmark_metric() {
        let listed = Listed::load();
        for workload in ["fleet", "paper_grid", "journal_grid"] {
            let params = Params {
                seed: 3,
                seconds: 0.2,
                trace: true,
                check: true,
            };
            let outcome = run_workload(workload, &params).expect("known workload");
            assert!(outcome.correct(), "{workload}: {:?}", outcome.problems);
            assert_eq!(
                listed.mismatches(&outcome),
                Vec::<String>::new(),
                "{workload}"
            );
            let accounted = outcome.per_layer()[0];
            assert!(
                accounted > 0.5 && accounted < 1.1,
                "{workload}: accounted_share {accounted}"
            );
        }
    }

    #[test]
    fn a_missing_metric_fails_the_check() {
        let mut listed = Listed::load();
        listed.per_layer.pop();
        let outcome = Outcome {
            setups: vec![Timing::unscaled(1.0)],
            windows: vec![(1, Timing::unscaled(1.0))],
            ops: vec![Timing::unscaled(1.0)],
            peak_rss_mb: 1.0,
            ..Outcome::default()
        };
        assert_eq!(listed.mismatches(&outcome).len(), 1);
    }

    #[test]
    fn arguments_parse_as_documented() {
        let args: Vec<String> = [
            "--workload",
            "fleet",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = parse_args(&args).expect("valid");
        assert_eq!(parsed.workload.as_deref(), Some("fleet"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (9, 10.0, true));
        assert!(parse_args(&["--trace".to_owned(), "2".to_owned()]).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(quantile(&values, 0.99), 5.0);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
