//! End-to-end contract of `udsim --stats`: the JSON report is
//! well-formed, carries the documented schema (DESIGN.md §11), and is
//! deterministic — two runs with the same circuit and seed produce
//! byte-identical reports once the wall-clock fields are stripped.

use std::path::PathBuf;
use std::process::{Command, Output};

use unit_delay_sim::core::telemetry::json::Json;
use unit_delay_sim::core::telemetry::{SCHEMA, TIMING_KEYS};
use unit_delay_sim::core::WordWidth;
use unit_delay_sim::netlist::bench_format;
use unit_delay_sim::netlist::generators::iscas::Iscas85;
use unit_delay_sim::parallel::{Optimization, ParallelSim};

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

/// Runs `simulate --stats -` and returns the parsed stdout document.
fn stats_doc(extra: &[&str]) -> Json {
    let path = fixture("stats17.bench", C17);
    let mut args = vec!["simulate", path.to_str().unwrap(), "--stats", "-"];
    args.extend_from_slice(extra);
    let out = udsim(&args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stats JSON is UTF-8");
    Json::parse(&stdout).expect("stats output parses as JSON")
}

#[test]
fn report_carries_schema_spans_counters_and_gauges() {
    let doc = stats_doc(&["--vectors", "8"]);
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));

    // The span tree covers the pipeline: parse, compile (with the
    // compiler's own phases nested inside), simulate.
    let spans = doc.get("spans").unwrap().as_arr().unwrap();
    let names: Vec<&str> = spans
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    for phase in ["parse", "compile", "simulate", "static-metrics"] {
        assert!(
            names.contains(&phase),
            "missing span `{phase}` in {names:?}"
        );
    }
    let compile = &spans[names.iter().position(|&n| n == "compile").unwrap()];
    let children = compile.get("children").unwrap().as_arr().unwrap();
    assert!(
        !children.is_empty(),
        "compile span should nest the compiler's phases"
    );

    // Runtime counters and the paper's static metrics.
    let counters = doc.get("counters").unwrap();
    assert_eq!(counters.get("run.vectors").unwrap().as_u64(), Some(8));
    let gauges = doc.get("gauges").unwrap();
    for gauge in [
        "pcset.set_size.max",
        "pcset.set_size.total",
        "pcset.zero_insertions",
        "parallel.none.word_ops",
        "parallel.pt-trim.shifts_eliminated",
        "parallel.pt-trim.words_trimmed",
        "parallel.cb.shifts_retained",
        "parallel.pt-trim.arena_words",
        "parallel.pt-trim.lane_arena_words",
        "batch.block_len",
    ] {
        assert!(
            gauges.get(gauge).and_then(Json::as_u64).is_some(),
            "missing gauge `{gauge}`"
        );
    }

    // Labels identify the run.
    let labels = doc.get("labels").unwrap();
    assert_eq!(labels.get("circuit").unwrap().as_str(), Some("stats17"));
    assert_eq!(labels.get("command").unwrap().as_str(), Some("simulate"));
    assert!(labels.get("engine").is_some());

    // Build facts: the constant-1 gauge plus who/what built the binary.
    assert_eq!(gauges.get("build_info").unwrap().as_u64(), Some(1));
    assert_eq!(
        labels.get("build.version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    let default_bits = WordWidth::default().bits().to_string();
    assert_eq!(
        labels.get("build.word_bits").unwrap().as_str(),
        Some(default_bits.as_str())
    );
    assert!(
        matches!(
            labels.get("build.profile").unwrap().as_str(),
            Some("debug" | "release")
        ),
        "{labels:?}"
    );
    assert!(
        matches!(
            labels.get("build.block_isa").unwrap().as_str(),
            Some("x86-64-v4" | "x86-64-v3" | "baseline")
        ),
        "{labels:?}"
    );
}

#[test]
fn same_seed_runs_are_identical_modulo_timing() {
    let args = ["--vectors", "16", "--seed", "7"];
    let a = stats_doc(&args).without_keys(TIMING_KEYS);
    let b = stats_doc(&args).without_keys(TIMING_KEYS);
    assert_eq!(
        a.render(),
        b.render(),
        "same circuit + same seed must reproduce every metric exactly"
    );
}

#[test]
fn different_seeds_still_share_static_metrics() {
    let a = stats_doc(&["--seed", "1"]);
    let b = stats_doc(&["--seed", "2"]);
    // Static compile metrics depend only on the circuit.
    assert_eq!(
        a.get("gauges").unwrap().render(),
        b.get("gauges").unwrap().render()
    );
}

#[test]
fn stats_to_stdout_moves_human_output_to_stderr() {
    let path = fixture("stats17b.bench", C17);
    let out = udsim(&[
        "simulate",
        path.to_str().unwrap(),
        "--stats",
        "-",
        "--vectors",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.trim_start().starts_with('{'),
        "stdout must be pure JSON, got: {stdout}"
    );
    assert!(
        stderr.contains("# vector ->"),
        "per-vector output must move to stderr: {stderr}"
    );
}

#[test]
fn stats_to_file_keeps_stdout_human() {
    let path = fixture("stats17c.bench", C17);
    let stats_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out.json");
    let out = udsim(&[
        "simulate",
        path.to_str().unwrap(),
        "--stats",
        stats_path.to_str().unwrap(),
        "--vectors",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# vector ->"), "{stdout}");
    let written = std::fs::read_to_string(&stats_path).expect("stats file written");
    let doc = Json::parse(&written).expect("file parses");
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
}

#[test]
fn guarded_run_records_fallbacks_in_counters() {
    // A 70-deep buffer chain with a one-word field budget: the
    // unoptimized parallel engine cannot fit at either word width, so
    // the chain degrades and the report must say so.
    let mut text = String::from("INPUT(a)\n");
    let mut prev = "a".to_owned();
    for i in 0..70 {
        text.push_str(&format!("b{i} = BUF({prev})\n"));
        prev = format!("b{i}");
    }
    text.push_str(&format!("OUTPUT({prev})\n"));
    let path = fixture("statschain.bench", &text);
    let out = udsim(&[
        "simulate",
        path.to_str().unwrap(),
        "--stats",
        "-",
        "--fallback",
        "--engine",
        "parallel",
        "--budget",
        "field-words=1",
        "--vectors",
        "3",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let counters = doc.get("counters").unwrap();
    assert!(
        counters.get("guard.fallbacks").and_then(Json::as_u64) >= Some(1),
        "fallback must be counted: {}",
        counters.render()
    );
    assert!(
        counters.get("guard.budget_trips").and_then(Json::as_u64) >= Some(1),
        "budget trip must be counted: {}",
        counters.render()
    );
    assert_eq!(counters.get("run.vectors").unwrap().as_u64(), Some(3));
}

#[test]
fn codegen_stats_reports_compile_metrics() {
    let path = fixture("stats17d.bench", C17);
    let out = udsim(&[
        "codegen",
        path.to_str().unwrap(),
        "--technique",
        "parallel",
        "--opt",
        "pt-trim",
        "--stats",
        "-",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc = Json::parse(&stdout).expect("codegen --stats - emits pure JSON on stdout");
    assert_eq!(
        doc.get("labels").unwrap().get("command").unwrap().as_str(),
        Some("codegen")
    );
    assert!(doc
        .get("gauges")
        .unwrap()
        .get("parallel.pt-trim.word_ops")
        .is_some());
    // The generated C moved to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("#include"), "{stderr}");
}

#[test]
fn block_len_gauge_says_whether_the_run_went_in_blocks() {
    let block_len = |doc: &Json| {
        doc.get("gauges")
            .unwrap()
            .get("batch.block_len")
            .and_then(Json::as_u64)
    };
    assert_eq!(block_len(&stats_doc(&["--vectors", "8"])), Some(64));
    assert_eq!(
        block_len(&stats_doc(&[
            "--vectors",
            "8",
            "--word",
            "32",
            "--engine",
            "parallel"
        ])),
        Some(64)
    );
    assert_eq!(
        block_len(&stats_doc(&["--vectors", "8", "--engine", "pc-set"])),
        Some(64)
    );
    assert_eq!(
        block_len(&stats_doc(&["--vectors", "8", "--engine", "event-driven"])),
        Some(1)
    );
    // c6288's 64-lane arena outgrows the budget: one vector per pass.
    let netlist = Iscas85::C6288.build();
    let path = fixture("blockc6288.bench", &bench_format::write(&netlist));
    let out = udsim(&[
        "simulate",
        path.to_str().unwrap(),
        "--vectors",
        "2",
        "--stats",
        "-",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(block_len(&doc), Some(1));
}

#[test]
fn word_op_gauges_describe_the_width_that_ran() {
    // c6288's fields span several words at either width, so the
    // pt+trim program's word-op count depends on the width; the gauge
    // must be the count of the program the run compiled.
    let netlist = Iscas85::C6288.build();
    let path = fixture("statsc6288.bench", &bench_format::write(&netlist));
    let netlist = bench_format::parse(&std::fs::read_to_string(&path).unwrap(), "c6288").unwrap();
    let run = |word: &str| -> (String, u64) {
        let out = udsim(&[
            "simulate",
            path.to_str().unwrap(),
            "--word",
            word,
            "--vectors",
            "1",
            "--stats",
            "-",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap();
        let bits = doc.get("labels").unwrap().get("build.word_bits").unwrap();
        let ops = doc.get("gauges").unwrap().get("parallel.pt-trim.word_ops");
        (
            bits.as_str().unwrap().to_owned(),
            ops.and_then(Json::as_u64).expect("pt-trim word_ops gauge"),
        )
    };
    let w32 = ParallelSim::<u32>::compile(&netlist, Optimization::PathTracingTrimming)
        .unwrap()
        .stats()
        .word_ops as u64;
    let w64 = ParallelSim::<u64>::compile(&netlist, Optimization::PathTracingTrimming)
        .unwrap()
        .stats()
        .word_ops as u64;
    assert_ne!(w32, w64);
    assert_eq!(run("32"), ("32".to_owned(), w32));
    assert_eq!(run("64"), ("64".to_owned(), w64));
}
