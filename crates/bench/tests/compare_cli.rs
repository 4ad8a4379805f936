//! End-to-end tests for `tables compare` — the perf regression gate.
//!
//! Each test writes a pair of golden `uds-bench-v1` documents, runs the
//! real binary on them, and asserts on the exit code and the stream
//! routing: exit 0 = gate passes, 1 = regression or lost coverage,
//! 2 = usage error; `--json -` owns stdout while the human delta table
//! moves to stderr.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes `text` under a per-test subdirectory of the target tmpdir
/// and returns the path.
fn fixture(test: &str, name: &str, text: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    fs::create_dir_all(&dir).expect("create fixture dir");
    let path = dir.join(name);
    fs::write(&path, text).expect("write fixture");
    path
}

/// Runs `tables compare` with the given extra args.
fn compare(old: &PathBuf, new: &PathBuf, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("compare")
        .arg(old)
        .arg(new)
        .args(extra)
        .output()
        .expect("run tables compare")
}

/// A one-row fig19-like document: one timed engine and one static
/// metric, fingerprinted with `score`.
fn doc(seconds: f64, score: f64, ops: u64) -> String {
    format!(
        r#"{{"schema":"uds-bench-v1","figure":"fig19","vectors":500,
           "calibration":{{"score":{score},"alu_mops":215.0,"mem_mops":23.0,
                           "cores":1,"profile":"release","word_bits":32,"timing_reps":3}},
           "rows":[{{"circuit":"c432",
                     "parallel":{{"min_s":{seconds},"median_s":{seconds},
                                  "trimmed_mean_s":{seconds},"reps":3,
                                  "vectors_per_s":{vps}}},
                     "word_ops":{ops}}}]}}"#,
        vps = 500.0 / seconds,
    )
}

#[test]
fn identical_documents_exit_zero() {
    let old = fixture("identical", "old.json", &doc(0.05, 1.0, 160));
    let new = fixture("identical", "new.json", &doc(0.05, 1.0, 160));
    let out = compare(&old, &new, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Without a `-` stream flag, the human table owns stdout — the
    // same contract as every other tables subcommand.
    assert!(stdout.contains("gate: PASS"), "{stdout}");
    assert!(stdout.contains("unchanged"), "{stdout}");
}

#[test]
fn injected_regression_exits_one_and_streams_json() {
    let old = fixture("regression", "old.json", &doc(0.05, 1.0, 160));
    // 2x slower at the same calibration: a genuine regression.
    let new = fixture("regression", "new.json", &doc(0.10, 1.0, 160));
    let out = compare(&old, &new, &["--tolerance", "10", "--json", "-"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gate: FAIL"), "{stderr}");
    assert!(stderr.contains("regressed"), "{stderr}");
    // `--json -` claims stdout for exactly one parseable document.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.trim_start().starts_with('{'),
        "stdout carries the JSON report: {stdout}"
    );
    assert!(
        stdout.contains("\"schema\":\"uds-bench-compare-v1\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"gate\":\"fail\""), "{stdout}");
}

#[test]
fn noise_within_tolerance_exits_zero() {
    let old = fixture("noise", "old.json", &doc(0.050, 1.0, 160));
    let new = fixture("noise", "new.json", &doc(0.054, 1.0, 160)); // ~7.4% slower
    let out = compare(&old, &new, &["--tolerance", "10"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn calibration_ratio_normalizes_a_faster_host() {
    let old = fixture("calib", "old.json", &doc(0.06, 1.0, 160));
    // The new host fingerprints 2x faster and the run was 2x faster:
    // normalized throughput is unchanged.
    let new = fixture("calib", "new.json", &doc(0.03, 2.0, 160));
    let out = compare(&old, &new, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("calibration ratio 2.000"), "{stdout}");
    // Same 2x host, raw time unimproved → normalized throughput
    // halved → regression.
    let lazy = fixture("calib", "lazy.json", &doc(0.06, 2.0, 160));
    let out = compare(&old, &lazy, &[]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn missing_rows_fail_and_new_rows_pass() {
    let two = r#"{"schema":"uds-bench-v1","figure":"fig21","rows":[
        {"circuit":"c432","shifts":160},{"circuit":"c499","shifts":200}]}"#;
    let one = r#"{"schema":"uds-bench-v1","figure":"fig21","rows":[
        {"circuit":"c432","shifts":160}]}"#;
    let two_p = fixture("coverage", "two.json", two);
    let one_p = fixture("coverage", "one.json", one);
    let shrunk = compare(&two_p, &one_p, &[]);
    assert_eq!(shrunk.status.code(), Some(1), "lost coverage fails");
    assert!(String::from_utf8_lossy(&shrunk.stdout).contains("missing"));
    let grown = compare(&one_p, &two_p, &[]);
    assert_eq!(grown.status.code(), Some(0), "new coverage passes");
}

#[test]
fn schema_mismatch_is_a_usage_error() {
    let good = fixture("schema", "good.json", &doc(0.05, 1.0, 160));
    let bad = fixture(
        "schema",
        "bad.json",
        &doc(0.05, 1.0, 160).replace("uds-bench-v1", "uds-bench-v2"),
    );
    let out = compare(&good, &bad, &[]);
    assert_eq!(out.status.code(), Some(2), "schema drift is usage-class");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema mismatch"), "{stderr}");
}

#[test]
fn unreadable_input_and_stray_tolerance_are_usage_errors() {
    let good = fixture("usage", "good.json", &doc(0.05, 1.0, 160));
    let absent = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("usage/absent.json");
    let out = compare(&good, &absent, &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // One positional short of a comparison.
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["compare", good.to_str().unwrap()])
        .output()
        .expect("run tables compare");
    assert_eq!(out.status.code(), Some(2));

    // --tolerance outside `compare` is rejected, not ignored.
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["fig21", "--tolerance", "10"])
        .output()
        .expect("run tables");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn delta_report_file_lands_next_to_the_cwd() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("delta_file");
    fs::create_dir_all(&dir).expect("create cwd");
    let old = fixture("delta_file", "old.json", &doc(0.05, 1.0, 160));
    let new = fixture("delta_file", "new.json", &doc(0.05, 1.0, 161));
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .current_dir(&dir)
        .arg("compare")
        .arg(&old)
        .arg(&new)
        .arg("--json")
        .output()
        .expect("run tables compare");
    // The static word_ops cell drifted: deterministic metrics carry
    // zero tolerance.
    assert_eq!(out.status.code(), Some(1));
    let report = fs::read_to_string(dir.join("DELTA_fig19.json")).expect("delta file");
    assert!(report.contains("\"gate\":\"fail\""), "{report}");
    assert!(report.contains("word_ops"), "{report}");
}

/// `tables codesize | head -1`: the reader closes the pipe before the
/// first line. The run must stop quietly with exit 0, as `udsim` does,
/// not panic in `println!` — except that `compare` keeps its verdict.
#[test]
fn a_closed_pipe_ends_tables_quietly() {
    use std::process::Stdio;
    let old = fixture("closed_pipe", "old.json", &doc(0.05, 1.0, 160));
    let new = fixture("closed_pipe", "new.json", &doc(0.05, 1.0, 161));
    let (old, new) = (old.to_str().unwrap(), new.to_str().unwrap());
    for (args, code) in [
        (&["codesize"][..], 0),
        (&["compare", old, new][..], 1),
        (&["compare", old, new, "--json", "-"][..], 1),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_tables"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run tables");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("tables exits");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(!err.contains("error:"), "{args:?}: {err}");
    }
}
