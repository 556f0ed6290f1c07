//! Golden-snapshot test: the quick-mode headline metrics of every
//! registry experiment, compared bit-for-bit (relative tolerance 1e-9)
//! against the committed fixture.
//!
//! The simulator is deterministic, so any drift in these numbers means a
//! behavioural change somewhere in the stack — radio physics, trace
//! synthesis, a scheduler, the engine — and must be either fixed or
//! consciously accepted by regenerating the fixture:
//!
//! ```text
//! ETRAIN_UPDATE_GOLDEN=1 cargo test -p etrain-bench --test golden
//! ```

use etrain_bench::{registry, run_experiments, Headline};
use serde::{Deserialize, Serialize};

/// The per-experiment snapshot stored in the fixture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenExperiment {
    name: String,
    headlines: Vec<Headline>,
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("quick_headlines.json")
}

fn current_snapshot() -> Vec<GoldenExperiment> {
    // svc_recovery's headlines depend on wall-clock and on whether the
    // daemon binary happens to be built; its zero-divergence gate is
    // asserted inside the experiment and by the svc and chaos suites, so
    // filtering it out *before* running keeps this test's coverage intact.
    let registry: Vec<_> = registry()
        .into_iter()
        .filter(|e| e.name != "svc_recovery")
        .collect();
    run_experiments(&registry, true, None)
        .into_iter()
        .map(|run| GoldenExperiment {
            name: run.record.name,
            headlines: run.record.headlines,
        })
        .collect()
}

#[test]
fn quick_headlines_match_golden_snapshot() {
    let current = current_snapshot();
    let path = fixture_path();

    if std::env::var("ETRAIN_UPDATE_GOLDEN").is_ok() {
        let json = serde_json::to_string_pretty(&current).expect("snapshot serializes");
        std::fs::create_dir_all(path.parent().expect("fixture has a parent"))
            .expect("creating the fixture directory");
        std::fs::write(&path, json).expect("writing the fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }

    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with ETRAIN_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let golden: Vec<GoldenExperiment> = serde_json::from_str(&raw).expect("fixture parses");

    assert_eq!(
        golden.iter().map(|g| g.name.as_str()).collect::<Vec<_>>(),
        current.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
        "experiment registry changed; regenerate the fixture"
    );
    for (g, c) in golden.iter().zip(&current) {
        assert_eq!(
            g.headlines.len(),
            c.headlines.len(),
            "{}: headline count changed; regenerate the fixture",
            g.name
        );
        for (gh, ch) in g.headlines.iter().zip(&c.headlines) {
            assert_eq!(gh.metric, ch.metric, "{}: headline metric renamed", g.name);
            assert_eq!(gh.unit, ch.unit, "{}: headline unit changed", g.name);
            let tol = 1e-9 * (1.0 + gh.value.abs().max(ch.value.abs()));
            assert!(
                (gh.value - ch.value).abs() <= tol,
                "{}: headline {} drifted from {} to {} (tolerance {tol})",
                g.name,
                gh.metric,
                gh.value,
                ch.value
            );
        }
    }
}
