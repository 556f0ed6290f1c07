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

use etrain_bench::{find, registry, run_experiments, Headline, Settings};
use etrain_sim::ObsMode;
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
    run_experiments(&registry(), Settings::quick(), None)
        .into_iter()
        .map(|run| {
            let record = run
                .record()
                .unwrap_or_else(|| panic!("{} failed: {:?}", run.name, run.result));
            GoldenExperiment {
                name: record.name,
                headlines: record.headlines,
            }
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

/// Journaling every scenario (`repro_all --journal`) must not move a
/// number. Three quick experiments cover a paper-base sweep, the lossy
/// channel's retry path and a parallel grid; each gives the same
/// headlines, bit for bit, with observability on and off.
#[test]
fn journaling_changes_no_headline() {
    let experiments: Vec<_> = ["fig7a", "ablate_faults", "ext_grid"]
        .iter()
        .map(|name| find(name).expect("registered"))
        .collect();
    let journaled = Settings {
        obs: ObsMode::Jsonl,
        ..Settings::quick()
    };
    let off = run_experiments(&experiments, Settings::quick(), None);
    let on = run_experiments(&experiments, journaled, None);
    for (plain, logged) in off.iter().zip(&on) {
        let headlines = |run: &etrain_bench::ReproRun| {
            run.record()
                .unwrap_or_else(|| panic!("{} failed: {:?}", run.name, run.result))
                .headlines
        };
        assert!(!headlines(plain).is_empty(), "{}", plain.name);
        assert_eq!(
            headlines(plain),
            headlines(logged),
            "{}: journaling moved a headline",
            plain.name
        );
    }
}
