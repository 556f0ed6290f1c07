//! CI performance gate: compares a freshly produced `BENCH_repro.json`
//! against a committed baseline and fails (exit 1) when any experiment —
//! or the suite total — regressed past the allowed factor, or when a
//! baseline experiment is missing from the fresh report.
//!
//! ```text
//! cargo run -p etrain-bench --release --bin repro_all -- --quick --json fresh.json
//! cargo run -p etrain-bench --release --bin perf_gate -- \
//!     --baseline BENCH_repro.json --current fresh.json [--factor 2.0]
//! ```
//!
//! Baselines under the noise floor (50 ms) never trip the gate, and a
//! missing baseline file passes with a note — the first run on a fresh
//! checkout must not fail before a baseline exists.

/// Per-experiment baselines under this many seconds never trip the gate.
const FLOOR_S: f64 = 0.05;

fn main() {
    etrain_bench::validate_env_knobs();
    let args: Vec<String> = std::env::args().collect();
    let baseline_path = etrain_bench::flag_value(&args, "--baseline")
        .unwrap_or_else(|| "BENCH_repro.json".to_owned());
    let current_path = etrain_bench::flag_value(&args, "--current")
        .expect("--current <fresh BENCH_repro.json> is required");
    let factor: f64 = etrain_bench::flag_value(&args, "--factor")
        .map(|v| v.parse().expect("--factor needs a number"))
        .unwrap_or(2.0);
    assert!(
        factor.is_finite() && factor > 0.0,
        "--factor must be positive"
    );

    let Ok(baseline_json) = std::fs::read_to_string(&baseline_path) else {
        println!("# perf_gate: no baseline at {baseline_path}; passing (first run)");
        return;
    };
    let current_json = std::fs::read_to_string(&current_path)
        .unwrap_or_else(|e| panic!("reading {current_path}: {e}"));

    let baseline = etrain_bench::load_experiment_walls(&baseline_json);
    let current = etrain_bench::load_experiment_walls(&current_json);
    assert!(
        !current.is_empty(),
        "{current_path} carries no experiment records — not a repro_all report?"
    );
    if baseline.is_empty() {
        println!("# perf_gate: baseline {baseline_path} has no experiment records; passing");
        return;
    }

    let base_total: f64 = baseline.iter().map(|e| e.wall_s).sum();
    let cur_total: f64 = current.iter().map(|e| e.wall_s).sum();
    println!(
        "# perf_gate: {} baseline vs {} current experiments; \
         totals {base_total:.2} s -> {cur_total:.2} s (allowed factor {factor})",
        baseline.len(),
        current.len()
    );
    let regressions = etrain_bench::perf_regressions(&baseline, &current, factor, FLOOR_S);
    if regressions.is_empty() {
        println!("# perf_gate: OK");
        return;
    }
    for r in &regressions {
        match r.current_s {
            Some(current_s) => eprintln!(
                "error: {} regressed {:.3} s -> {current_s:.3} s ({:.2}x, allowed {factor}x)",
                r.name,
                r.baseline_s,
                current_s / r.baseline_s
            ),
            None => eprintln!(
                "error: {} is in the baseline but missing from {current_path}",
                r.name
            ),
        }
    }
    std::process::exit(1);
}
