//! End-to-end contract of the runtime-observability surface: `udsim
//! profile`, the `--trace` Chrome-timeline export, the `--progress`
//! NDJSON heartbeat stream, and the one-flag-owns-stdout rule they all
//! share.

use std::path::PathBuf;
use std::process::{Command, Output};

use unit_delay_sim::core::telemetry::json::Json;
use unit_delay_sim::core::{ACTIVITY_SCHEMA, PROGRESS_SCHEMA};

fn udsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_udsim"))
        .args(args)
        .output()
        .expect("udsim binary runs")
}

fn fixture(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir exists");
    let path = dir.join(name);
    // Tests running in parallel share fixture names: write aside and
    // rename, so a reader never sees a half-written file.
    let staged = dir.join(format!("{name}.{:?}", std::thread::current().id()));
    std::fs::write(&staged, contents).expect("fixture written");
    std::fs::rename(&staged, &path).expect("fixture moved into place");
    path
}

const C17: &str = "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
                   10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
                   22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

/// Runs `profile … --json -` and returns the parsed activity report.
fn profile_doc(extra: &[&str]) -> Json {
    let path = fixture("prof17.bench", C17);
    let mut args = vec!["profile", path.to_str().unwrap(), "--vectors", "64"];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--json", "-"]);
    let out = udsim(&args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    Json::parse(stdout.trim_end()).expect("stdout is exactly one JSON document")
}

#[test]
fn profile_emits_a_schema_versioned_activity_report() {
    let doc = profile_doc(&[]);
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(ACTIVITY_SCHEMA)
    );
    assert_eq!(doc.get("vectors").and_then(Json::as_u64), Some(64));
    let total = doc.get("total_toggles").and_then(Json::as_u64).unwrap();
    assert!(total > 0, "64 random vectors must toggle something");
    let factor = doc.get("activity_factor").and_then(Json::as_f64).unwrap();
    assert!(factor > 0.0 && factor < 1.0, "{factor}");
    // Slot 0 never toggles: inputs change "at" time 0 by definition.
    let per_slot = doc.get("toggles_by_time").unwrap().as_arr().unwrap();
    assert_eq!(per_slot[0].as_u64(), Some(0));
    let hot = doc.get("hot_nets").unwrap().as_arr().unwrap();
    assert!(!hot.is_empty());
    assert!(hot[0].get("toggles").and_then(Json::as_u64).unwrap() > 0);
}

#[test]
fn profile_totals_are_engine_and_jobs_invariant() {
    let baseline = profile_doc(&[]);
    let expected = baseline.get("total_toggles").and_then(Json::as_u64);
    for extra in [
        &["--engine", "event-driven"][..],
        &["--engine", "pc-set"][..],
        &["--word", "32"][..],
        &["--jobs", "3"][..],
    ] {
        let doc = profile_doc(extra);
        assert_eq!(
            doc.get("total_toggles").and_then(Json::as_u64),
            expected,
            "{extra:?}: toggle counts are a circuit invariant, not an \
             engine/word/jobs artifact"
        );
    }
}

#[test]
fn an_empty_batch_profiles_like_an_empty_sequential_run() {
    // `--jobs` over zero vectors has no shards to merge; it must still
    // answer with the sequential run's empty report (exit 0, no panic).
    let sequential = profile_doc(&["--vectors", "0"]);
    let batch = profile_doc(&["--vectors", "0", "--jobs", "2"]);
    assert_eq!(batch.get("vectors").and_then(Json::as_u64), Some(0));
    for key in [
        "nets",
        "depth",
        "vectors",
        "total_toggles",
        "activity_factor",
        "hot_nets",
        "toggles_by_level",
        "toggles_by_time",
        "unobserved_nets",
    ] {
        assert_eq!(batch.get(key), sequential.get(key), "{key}");
    }
}

#[test]
fn simulate_trace_writes_per_shard_timelines_on_distinct_threads() {
    let bench = fixture("trace17.bench", C17);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let trace = dir.join("trace17.json");
    let out = udsim(&[
        "simulate",
        bench.to_str().unwrap(),
        "--vectors",
        "64",
        "--jobs",
        "2",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let doc = Json::parse(text.trim_end()).expect("Chrome trace parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let mut shard_tids: Vec<u64> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("batch.shard."))
        })
        .filter_map(|e| e.get("tid").and_then(Json::as_u64))
        .collect();
    shard_tids.sort_unstable();
    assert_eq!(shard_tids, vec![1, 2], "one timeline row per shard");
}

#[test]
fn progress_streams_parseable_heartbeats_to_stdout() {
    let bench = fixture("prog17.bench", C17);
    let out = udsim(&[
        "simulate",
        bench.to_str().unwrap(),
        "--vectors",
        "200",
        "--jobs",
        "2",
        "--progress",
        "-",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let beats: Vec<Json> = stdout
        .lines()
        .map(|line| Json::parse(line).expect("every line is one JSON record"))
        .collect();
    assert!(beats.len() >= 2, "at least one heartbeat per shard");
    for beat in &beats {
        assert_eq!(
            beat.get("schema").and_then(Json::as_str),
            Some(PROGRESS_SCHEMA)
        );
        assert!(beat.get("vectors_per_sec").and_then(Json::as_f64).is_some());
    }
    // Each shard's final heartbeat reports completion.
    for shard in 0..2u64 {
        let last = beats
            .iter()
            .rfind(|b| b.get("shard").and_then(Json::as_u64) == Some(shard))
            .expect("shard reported");
        assert_eq!(last.get("finished"), Some(&Json::Bool(true)));
        assert_eq!(last.get("done"), last.get("total"));
    }
}

#[test]
fn short_batches_still_emit_a_final_heartbeat() {
    // A batch this small finishes well inside one heartbeat interval;
    // the completion record must arrive anyway — even for zero vectors.
    for vectors in ["0", "1"] {
        let bench = fixture("short17.bench", C17);
        let out = udsim(&[
            "simulate",
            bench.to_str().unwrap(),
            "--vectors",
            vectors,
            "--jobs",
            "2",
            "--progress",
            "-",
            "--progress-interval",
            "60000",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let beats: Vec<Json> = stdout
            .lines()
            .map(|line| Json::parse(line).expect("heartbeat parses"))
            .collect();
        assert!(!beats.is_empty(), "--vectors {vectors} was silent");
        assert!(
            beats
                .iter()
                .any(|b| b.get("finished") == Some(&Json::Bool(true))),
            "--vectors {vectors} never announced completion: {stdout}"
        );
    }
}

#[test]
fn progress_interval_zero_reports_every_vector() {
    let bench = fixture("eager17.bench", C17);
    let out = udsim(&[
        "simulate",
        bench.to_str().unwrap(),
        "--vectors",
        "40",
        "--jobs",
        "2",
        "--progress",
        "-",
        "--progress-interval",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    // 40 vectors + 2 final records, each a valid heartbeat.
    assert_eq!(stdout.lines().count(), 42, "{stdout}");
    for line in stdout.lines() {
        let beat = Json::parse(line).expect("heartbeat parses");
        assert_eq!(
            beat.get("schema").and_then(Json::as_str),
            Some(PROGRESS_SCHEMA)
        );
    }
}

#[test]
fn progress_interval_requires_progress() {
    let bench = fixture("lonely17.bench", C17);
    let out = udsim(&[
        "simulate",
        bench.to_str().unwrap(),
        "--jobs",
        "2",
        "--progress-interval",
        "50",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--progress-interval"), "{err}");
}

#[test]
fn two_stream_flags_cannot_both_claim_stdout() {
    let bench = fixture("clash17.bench", C17);
    let out = udsim(&[
        "simulate",
        bench.to_str().unwrap(),
        "--jobs",
        "2",
        "--stats",
        "-",
        "--progress",
        "-",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--stats"), "{err}");
    assert!(err.contains("--progress"), "{err}");
}

#[test]
fn progress_without_jobs_streams_the_one_shard() {
    // Without --jobs the run is one inline shard, and it reports like
    // any shard of a --jobs run: shard 0, ending in one final record.
    let bench = fixture("nojobs17.bench", C17);
    for command in ["simulate", "profile"] {
        let out = udsim(&[
            command,
            bench.to_str().unwrap(),
            "--vectors",
            "300",
            "--progress",
            "-",
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{command}: {err}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let beats: Vec<Json> = stdout
            .lines()
            .map(|line| Json::parse(line).expect("every line is one JSON record"))
            .collect();
        assert!(!beats.is_empty(), "{command} sent no heartbeat");
        for beat in &beats {
            assert_eq!(
                beat.get("schema").and_then(Json::as_str),
                Some(PROGRESS_SCHEMA)
            );
            assert_eq!(beat.get("shard").and_then(Json::as_u64), Some(0));
        }
        let finished = |b: &Json| b.get("finished") == Some(&Json::Bool(true));
        assert_eq!(beats.iter().filter(|b| finished(b)).count(), 1, "{stdout}");
        let last = beats.last().expect("at least one heartbeat");
        assert!(finished(last), "{command}: {stdout}");
        assert_eq!(last.get("done").and_then(Json::as_u64), Some(300));
        // The human output moved to stderr.
        let human = if command == "simulate" {
            "-> "
        } else {
            "toggles"
        };
        assert!(err.contains(human), "{command}: {err}");
    }
}

#[test]
fn human_profile_summary_moves_to_stderr_when_json_owns_stdout() {
    let bench = fixture("human17.bench", C17);
    let out = udsim(&[
        "profile",
        bench.to_str().unwrap(),
        "--vectors",
        "8",
        "--json",
        "-",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(Json::parse(stdout.trim_end()).is_ok(), "pure JSON stdout");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("toggles"),
        "human summary still appears, on stderr: {err}"
    );
}
