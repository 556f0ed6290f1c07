//! Command-line contract of the bench binaries: a flag they do not know,
//! or a numeric flag whose value does not parse, aborts with the usage
//! text and exit status 2 before any work starts, so a typo or a retired
//! flag in a script fails loudly; and the flags are the whole input, so
//! nothing in the caller's environment moves a number.

use std::process::{Command, Output};

fn run(binary: &str, args: &[&str]) -> Output {
    Command::new(binary)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {binary}: {e}"))
}

fn assert_usage_error(output: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(output.stdout.is_empty(), "no work may start");
}

#[test]
fn chaos_rejects_an_unknown_flag_with_usage_and_status_2() {
    let output = run(
        env!("CARGO_BIN_EXE_chaos"),
        &["--seeds", "1", "--no-self-test"],
    );
    assert_usage_error(&output, "unknown argument \"--no-self-test\"");
}

#[test]
fn chaos_rejects_a_valued_flag_without_its_value() {
    // A flag in the value's place is no value either.
    for (args, message) in [
        (&["--quick", "--seeds"][..], "--seeds needs a value"),
        (&["--out", "--repro"][..], "--out needs a value"),
        (&["--repro", "--out", "dir"][..], "--repro needs a value"),
    ] {
        let output = run(env!("CARGO_BIN_EXE_chaos"), args);
        assert_usage_error(&output, message);
    }
}

#[test]
fn chaos_rejects_malformed_numeric_values_with_usage_and_status_2() {
    for (args, message) in [
        (["--seeds", "abc"], "--seeds \"abc\""),
        (["--start-seed", "-1"], "--start-seed \"-1\""),
        (["--jobs", "0"], "--jobs \"0\""),
    ] {
        let output = run(env!("CARGO_BIN_EXE_chaos"), &args);
        assert_usage_error(&output, message);
    }
}

#[test]
fn repro_all_rejects_a_jobs_value_that_is_not_a_positive_integer() {
    for value in ["0", "x", "-2"] {
        let output = run(
            env!("CARGO_BIN_EXE_repro_all"),
            &["--only", "fig2", "--no-json", "--jobs", value],
        );
        assert_usage_error(&output, &format!("--jobs \"{value}\""));
    }
}

#[test]
fn repro_all_rejects_an_unknown_flag_with_usage_and_status_2() {
    for (args, message) in [
        (
            &["--only", "fig2", "--quikc"][..],
            "unknown argument \"--quikc\"",
        ),
        // A valued flag followed by another flag has no value.
        (&["--json", "--only"][..], "--json needs a value"),
        (&["--csv", "--json"][..], "--csv needs a value"),
        (&["--only", "fig2", "--csv"][..], "--csv needs a value"),
    ] {
        let output = run(env!("CARGO_BIN_EXE_repro_all"), args);
        assert_usage_error(&output, message);
    }
}

#[test]
fn repro_all_rejects_an_unknown_experiment_name() {
    let output = run(env!("CARGO_BIN_EXE_repro_all"), &["--only", "fig2,fig99"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("\"fig99\""), "{stderr}");
    assert!(output.stdout.is_empty(), "no experiment may run");
}

/// The `# headline` lines of a `repro_all` run's stdout.
fn headlines(output: &Output) -> Vec<String> {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|line| line.starts_with("# headline"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn repro_all_ignores_the_retired_environment_knobs() {
    let args = ["--only", "table1", "--quick", "--no-json"];
    let retired = [
        ("ETRAIN_ORACLE", "stric"),
        ("ETRAIN_OBS", "jsnol"),
        ("ETRAIN_JOBS", "0"),
        ("ETRAIN_FLEET_SIZE", "0"),
    ];
    let mut clean = Command::new(env!("CARGO_BIN_EXE_repro_all"));
    clean.args(args);
    for (name, _) in retired {
        clean.env_remove(name);
    }
    let clean = clean.output().expect("spawning repro_all");
    let junk = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .args(args)
        .envs(retired)
        .output()
        .expect("spawning repro_all");
    for output in [&clean, &junk] {
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{stderr}");
    }
    assert!(!headlines(&clean).is_empty());
    assert_eq!(headlines(&clean), headlines(&junk));
}

#[test]
fn repro_all_journal_switch_journals_without_moving_a_headline() {
    let run_fig7a = |extra: &[&str]| {
        let mut args = vec!["--only", "fig7a", "--quick", "--no-json"];
        args.extend_from_slice(extra);
        run(env!("CARGO_BIN_EXE_repro_all"), &args)
    };
    let plain = run_fig7a(&[]);
    let journaled = run_fig7a(&["--journal"]);
    for output in [&plain, &journaled] {
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{stderr}");
    }
    assert!(!headlines(&plain).is_empty());
    assert_eq!(headlines(&plain), headlines(&journaled));
}

/// A fresh, empty directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("etrain-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("creating a temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn repro_all_journal_switch_writes_the_explain_journal_from_a_partial_run() {
    let explain_journal = |extra: &[&str]| {
        let dir = TempDir::new(&format!("journal{}", extra.len()));
        let mut args = vec!["--only", "explain", "--quick"];
        args.extend_from_slice(extra);
        let output = Command::new(env!("CARGO_BIN_EXE_repro_all"))
            .args(&args)
            .current_dir(&dir.0)
            .output()
            .expect("spawning repro_all");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{stderr}");
        assert!(
            !dir.0.join("BENCH_repro.json").exists(),
            "a partial run writes no report"
        );
        std::fs::read_to_string(dir.0.join("BENCH_explain.jsonl")).ok()
    };
    assert_eq!(explain_journal(&[]), None, "no journal without --journal");
    assert_eq!(
        explain_journal(&["--journal", "--no-json"]),
        None,
        "--no-json suppresses the journal"
    );
    let journal = explain_journal(&["--journal"]).expect("--journal writes the journal");
    assert!(!journal.is_empty());
    for line in journal.lines() {
        serde_json::from_str::<etrain_obs::EventRecord>(line)
            .unwrap_or_else(|e| panic!("not an etrain-journal-v1 record ({e}): {line}"));
    }
}
