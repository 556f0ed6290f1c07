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
    let output = run(env!("CARGO_BIN_EXE_chaos"), &["--quick", "--seeds"]);
    assert_usage_error(&output, "--seeds needs a value");
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
    let output = run(
        env!("CARGO_BIN_EXE_repro_all"),
        &["--only", "fig2", "--quikc"],
    );
    assert_usage_error(&output, "unknown argument \"--quikc\"");
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
