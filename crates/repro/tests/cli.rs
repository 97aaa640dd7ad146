//! The `ppp-repro` binary's contract as seen from a shell: exit codes,
//! the first line of stderr on a usage error, and the `--out` files.
//!
//! Every case spawns the built binary, so these pin what a script or a
//! CI step observes, whatever the parser looks like inside.

use std::path::Path;
use std::process::{Command, Output};

/// Runs the binary with `args` in `dir` (chaos and drive drop flight
/// dumps relative to the working directory).
fn repro_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppp-repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn ppp-repro")
}

fn repro(args: &[&str]) -> Output {
    let scratch = ppp_obs::Scratch::new("cli").expect("scratch dir");
    repro_in(scratch.path(), args)
}

fn first_stderr_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .next()
        .unwrap_or("")
        .to_owned()
}

/// Asserts a usage failure: exit 2 and `error: {message}` first on
/// stderr, with nothing on stdout.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: exit code");
    assert_eq!(
        first_stderr_line(&out),
        format!("error: {message}"),
        "{args:?}: first stderr line"
    );
    assert!(out.stdout.is_empty(), "{args:?}: stdout must stay empty");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert_eq!(out.status.code(), Some(0));
        assert!(
            first_stderr_line(&out).starts_with("usage: ppp-repro"),
            "{flag}: {}",
            first_stderr_line(&out)
        );
    }
}

#[test]
fn unknown_flags_and_reports_are_usage_errors() {
    assert_usage_error(&["--bogus"], "unknown flag --bogus");
    assert_usage_error(&["lint", "--bogus"], "unknown flag --bogus");
    assert_usage_error(&["bogus"], "unknown report bogus");
    assert_usage_error(&["table1", "bogus"], "unknown report bogus");
}

#[test]
fn unknown_benchmarks_are_usage_errors_under_every_subcommand() {
    for sub in [
        "inspect", "trace", "lint", "validate", "chaos", "drift", "predict", "bench", "jit",
        "drive",
    ] {
        assert_usage_error(&[sub, "nosuch"], "unknown benchmark \"nosuch\"");
    }
    assert_usage_error(&["jit", "mcf,nosuch"], "unknown benchmark \"nosuch\"");
}

#[test]
fn bad_flag_values_are_usage_errors() {
    assert_usage_error(&["--format", "yaml"], "unknown format \"yaml\"");
    assert_usage_error(&["lint", "--format", "yaml"], "unknown format \"yaml\"");
    assert_usage_error(&["--shards", "0"], "--shards needs a positive integer");
    assert_usage_error(
        &["drive", "--repeats", "0"],
        "--repeats needs a positive integer",
    );
    assert_usage_error(&["--scale", "abc"], "--scale needs a number");
    assert_usage_error(&["chaos", "--seed", "x"], "--seed needs an integer");
}

#[test]
fn a_flag_missing_its_value_is_a_usage_error() {
    assert_usage_error(&["--seed"], "--seed needs an integer");
    assert_usage_error(&["predict", "--out"], "--out needs a file path");
    assert_usage_error(&["inspect"], "inspect needs a benchmark name");
    assert_usage_error(&["top"], "top needs host:port");
}

#[test]
fn predict_out_file_holds_exactly_its_json_stdout() {
    let scratch = ppp_obs::Scratch::new("cli-predict").expect("scratch dir");
    let file = scratch.path().join("P.json");
    let out = repro_in(
        scratch.path(),
        &[
            "predict",
            "mcf",
            "--quick",
            "--seed",
            "701",
            "--format",
            "json",
            "--out",
            file.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{}", first_stderr_line(&out));
    let written = std::fs::read(&file).expect("--out file written");
    assert!(written.starts_with(b"{"), "a JSON document");
    assert_eq!(
        written, out.stdout,
        "--out holds exactly what stdout printed"
    );
}

/// Runs `args` in `dir` and returns stdout, asserting exit 0.
fn stdout_of(dir: &Path, args: &[&str]) -> Vec<u8> {
    let out = repro_in(dir, args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: {}",
        first_stderr_line(&out)
    );
    out.stdout
}

#[test]
fn every_document_subcommand_writes_its_json_to_out() {
    let scratch = ppp_obs::Scratch::new("cli-out").expect("scratch dir");
    let dir = scratch.path();
    for sub in ["chaos", "lint", "validate"] {
        let file = dir.join(format!("{sub}.json"));
        let path = file.to_str().unwrap();
        let tiny = [sub, "mcf", "--scale", "0.02"];
        let json = stdout_of(
            dir,
            &[&tiny[..], &["--format", "json", "--out", path]].concat(),
        );
        assert_eq!(std::fs::read(&file).expect("--out written"), json, "{sub}");
        // Under text format stdout gets the table; --out still gets JSON.
        std::fs::remove_file(&file).unwrap();
        let text = stdout_of(dir, &[&tiny[..], &["--out", path]].concat());
        assert_ne!(text, json, "{sub}: text on stdout");
        assert_eq!(std::fs::read(&file).expect("--out written"), json, "{sub}");
    }
}

#[test]
fn bench_compare_keeps_the_fresh_baseline_in_out() {
    let scratch = ppp_obs::Scratch::new("cli-bench").expect("scratch dir");
    let dir = scratch.path();
    let tiny = ["bench", "mcf", "--scale", "0.02"];
    stdout_of(dir, &[&tiny[..], &["--out", "OLD.json"]].concat());
    let verdict = stdout_of(
        dir,
        &[
            &tiny[..],
            &[
                "--compare",
                "OLD.json",
                "--threshold",
                "0",
                "--out",
                "NEW.json",
            ],
        ]
        .concat(),
    );
    assert!(String::from_utf8_lossy(&verdict).starts_with("no regressions"));
    let load = |name: &str| {
        let doc = std::fs::read_to_string(dir.join(name)).expect("baseline written");
        ppp_repro::baseline_from_json(&doc).expect("a baseline artifact")
    };
    let (old, new) = (load("OLD.json"), load("NEW.json"));
    assert_eq!(new.benchmarks.len(), 1);
    assert!(ppp_repro::compare_baselines(&old, &new, 0.0)
        .expect("comparable")
        .is_empty());
}

/// Each line names one small benchmark and scale, so a binary that
/// ignored the refused flag would still finish fast.
#[test]
fn flags_a_subcommand_does_not_read_are_refused() {
    for (line, message) in [
        (
            "lint mcf --quick --tcp --kill-after 3 --seed 5",
            "lint does not read --tcp",
        ),
        (
            "validate mcf --scale 0.02 --seed 5",
            "validate does not read --seed",
        ),
        (
            "--seed 5 --scale 0.02 fig12",
            "reports does not read --seed",
        ),
        (
            "chaos mcf --scale 0.02 --no-ablations",
            "chaos does not read --no-ablations",
        ),
        (
            "top 127.0.0.1:1 --once --quick",
            "top does not read --quick",
        ),
        (
            "lint mcf --scale 0.02 --workers 2",
            "lint does not read --workers",
        ),
        (
            "bench mcf --scale 0.02 --against NEW.json",
            "--against needs --compare",
        ),
    ] {
        assert_usage_error(&line.split(' ').collect::<Vec<_>>(), message);
    }
}

#[test]
fn a_second_subcommand_is_refused() {
    assert_usage_error(
        &["inspect", "mcf", "lint", "mcf", "--quick"],
        "one subcommand at a time: inspect and lint",
    );
    assert_usage_error(
        &["table1", "chaos", "mcf", "--scale", "0.02"],
        "one subcommand at a time: reports and chaos",
    );
}
