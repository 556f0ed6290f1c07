//! Command-line contract of the bench binaries: a flag they do not know
//! aborts with the usage text and exit status 2 before any work starts,
//! so a typo or a retired flag in a script fails loudly.

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
