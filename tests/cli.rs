//! End-to-end tests of the `udsim` binary: every failure class must
//! exit with its documented code and say something useful on stderr.
//! Exit codes are part of the CLI's contract (scripts route on them),
//! so these tests pin them: 0 success, 2 usage, 3 parse/read,
//! 4 structural, 5 budget, 6 panic, 7 mismatch.

use std::path::PathBuf;
use std::process::{Command, Output};

fn udsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_udsim"))
        .args(args)
        .output()
        .expect("udsim binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Writes a fixture under the target-scoped temp dir and returns its path.
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

#[test]
fn success_exits_zero() {
    let path = fixture("ok.bench", C17);
    let out = udsim(&["simulate", path.to_str().unwrap(), "--vectors", "2"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

/// `--opt` takes every optimization key, cycle breaking with
/// trimming included, and rejects anything else as a usage error.
#[test]
fn codegen_opt_takes_every_optimization_key() {
    let path = fixture("opt.bench", C17);
    let path = path.to_str().unwrap();
    let out = udsim(&["codegen", path, "--opt", "cb-trim"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(!out.stdout.is_empty());
    let out = udsim(&["codegen", path, "--opt", "frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("unknown optimization"),
        "{}",
        stderr(&out)
    );
}

/// `stats` reports the runtime's 64-bit programs beside the paper's
/// 32-bit ones, and splits the shifted presentations by the path that
/// runs them.
#[test]
fn stats_reports_both_word_widths_and_the_presentation_paths() {
    let circuit = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/c432.bench");
    let out = udsim(&["stats", circuit]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    let parallel: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("parallel ("))
        .collect();
    assert_eq!(parallel.len(), 4, "{text}");
    for (line, prefix) in parallel.iter().zip([
        "parallel (unoptimized, 64-bit words): ",
        "parallel (unoptimized, 32-bit words): ",
        "parallel (path-tracing+trimming, 64-bit words): ",
        "parallel (path-tracing+trimming, 32-bit words): ",
    ]) {
        assert!(line.starts_with(prefix), "{line}");
        assert!(line.contains(" decoded + "), "{line}");
    }
    // c432's 1-word fields: every path-tracing presentation is decoded.
    assert!(
        parallel[2].contains(" 0 funnel presentations") && !parallel[2].contains(" 0 decoded"),
        "{}",
        parallel[2]
    );
}

#[test]
fn missing_file_exits_with_parse_code_and_names_the_file() {
    let out = udsim(&["simulate", "definitely-not-here.bench"]);
    assert_eq!(out.status.code(), Some(3));
    let err = stderr(&out);
    assert!(err.contains("definitely-not-here.bench"), "{err}");
}

#[test]
fn malformed_bench_exits_with_parse_code_and_a_span() {
    let path = fixture("garbage.bench", "INPUT(a)\nwhat even is this\n");
    let out = udsim(&["simulate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let err = stderr(&out);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn cyclic_netlist_exits_with_structural_code() {
    let path = fixture(
        "cycle.bench",
        "INPUT(a)\nOUTPUT(y)\ny = AND(x, a)\nx = AND(y, a)\n",
    );
    let out = udsim(&["simulate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("cycle") || err.contains("Cycle"), "{err}");
}

#[test]
fn sequential_netlist_exits_with_structural_code() {
    let path = fixture("seq.bench", "INPUT(d)\nOUTPUT(q)\nq = DFF(d)\n");
    let out = udsim(&["simulate", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
}

#[test]
fn unknown_engine_exits_with_usage_code_and_lists_engines() {
    let path = fixture("ok2.bench", C17);
    let out = udsim(&["simulate", path.to_str().unwrap(), "--engine", "warp-drive"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("warp-drive"), "{err}");
    assert!(err.contains("pc-set"), "should list valid engines: {err}");
}

#[test]
fn exhausted_budget_exits_with_budget_code() {
    let path = fixture("ok3.bench", C17);
    let out = udsim(&["simulate", path.to_str().unwrap(), "--budget", "depth=1"]);
    assert_eq!(out.status.code(), Some(5), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("budget exceeded"), "{err}");
    assert!(err.contains("depth"), "{err}");
}

#[test]
fn exhausted_budget_with_fallback_still_exits_budget_when_nothing_fits() {
    // depth=1 rejects every engine in the chain, including the
    // event-driven baseline — the chain exhausts with the budget class.
    let path = fixture("ok4.bench", C17);
    let out = udsim(&[
        "simulate",
        path.to_str().unwrap(),
        "--fallback",
        "--budget",
        "depth=1",
    ]);
    assert_eq!(out.status.code(), Some(5), "{}", stderr(&out));
}

#[test]
fn fallback_degrades_and_reports_on_stderr() {
    // A 70-deep buffer chain with a one-word field budget: the
    // unoptimized parallel engine cannot fit at either word width, path
    // tracing can. Asking for `parallel` with --fallback must degrade,
    // succeed, and say so.
    let mut text = String::from("INPUT(a)\n");
    let mut prev = "a".to_owned();
    for i in 0..70 {
        text.push_str(&format!("b{i} = BUF({prev})\n"));
        prev = format!("b{i}");
    }
    text.push_str(&format!("OUTPUT({prev})\n"));
    let path = fixture("chain.bench", &text);
    let out = udsim(&[
        "simulate",
        path.to_str().unwrap(),
        "--fallback",
        "--engine",
        "parallel",
        "--budget",
        "field-words=1",
        "--crosscheck",
        "--vectors",
        "3",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("fallback: parallel abandoned"), "{err}");
    assert_eq!(
        crosscheck_lines(&out),
        [format!(
            "cross-check: parallel+pt+trim {ORACLE_LINE} 3 vectors"
        )]
    );
}

/// The one line every `--crosscheck` run ends with.
const ORACLE_LINE: &str = "agrees with the event-driven baseline over";

/// The `cross-check:` lines of a run's stderr.
fn crosscheck_lines(output: &Output) -> Vec<String> {
    stderr(output)
        .lines()
        .filter(|line| line.starts_with("cross-check:"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn crosscheck_alone_checks_every_row_against_the_baseline() {
    let path = fixture("ok5.bench", C17);
    let out = udsim(&["simulate", path.to_str().unwrap(), "--crosscheck"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        crosscheck_lines(&out),
        [format!(
            "cross-check: parallel+pt+trim {ORACLE_LINE} 16 vectors"
        )]
    );
}

#[test]
fn bad_budget_spec_is_a_usage_error() {
    let path = fixture("ok6.bench", C17);
    for spec in [
        "depth",
        "depth=abc",
        "frobs=3",
        "memory=999999999999999999G",
    ] {
        let out = udsim(&["simulate", path.to_str().unwrap(), "--budget", spec]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "spec `{spec}`: {}",
            stderr(&out)
        );
    }
}

#[test]
fn budget_spec_accepts_production_and_suffixed_memory() {
    let path = fixture("ok7.bench", C17);
    for spec in [
        "production",
        "memory=256M,depth=4096",
        "gates=1000,inputs=64",
    ] {
        let out = udsim(&[
            "simulate",
            path.to_str().unwrap(),
            "--budget",
            spec,
            "--vectors",
            "1",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "spec `{spec}`: {}",
            stderr(&out)
        );
    }
}

#[test]
fn unwritable_stats_path_exits_with_usage_code() {
    let path = fixture("ok8.bench", C17);
    let out = udsim(&[
        "simulate",
        path.to_str().unwrap(),
        "--vectors",
        "1",
        "--stats",
        "/nonexistent-dir-for-udsim-test/out.json",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("out.json"), "should name the path: {err}");
}

#[test]
fn batch_output_is_byte_identical_to_sequential() {
    let path = fixture("batch.bench", C17);
    let sequential = udsim(&["simulate", path.to_str().unwrap(), "--vectors", "20"]);
    assert_eq!(sequential.status.code(), Some(0), "{}", stderr(&sequential));
    let batched = udsim(&[
        "simulate",
        path.to_str().unwrap(),
        "--vectors",
        "20",
        "--jobs",
        "3",
    ]);
    assert_eq!(batched.status.code(), Some(0), "{}", stderr(&batched));
    assert_eq!(
        sequential.stdout, batched.stdout,
        "--jobs 3 must not change a single output byte"
    );
    assert!(stderr(&batched).contains("shard"), "{}", stderr(&batched));
}

#[test]
fn batch_crosscheck_passes_and_reports() {
    // 8195 vectors cross three of the batch runner's windows; the check
    // sees every row and leaves stdout alone.
    let path = fixture("batch2.bench", C17);
    let args = [
        "simulate",
        path.to_str().unwrap(),
        "--vectors",
        "8195",
        "--jobs",
        "3",
    ];
    let plain = udsim(&args);
    assert_eq!(plain.status.code(), Some(0), "{}", stderr(&plain));
    assert!(crosscheck_lines(&plain).is_empty(), "{}", stderr(&plain));
    let checked = udsim(&[&args[..], &["--crosscheck"]].concat());
    assert_eq!(checked.status.code(), Some(0), "{}", stderr(&checked));
    assert_eq!(
        crosscheck_lines(&checked),
        [format!(
            "cross-check: parallel+pt+trim {ORACLE_LINE} 8195 vectors"
        )]
    );
    assert!(
        plain.stdout == checked.stdout,
        "--crosscheck must not change a single output byte"
    );
}

#[test]
fn batch_with_vcd_is_a_usage_error() {
    let path = fixture("batch3.bench", C17);
    let vcd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("batch3.vcd");
    let out = udsim(&[
        "simulate",
        path.to_str().unwrap(),
        "--jobs",
        "2",
        "--vcd",
        vcd.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--vcd"), "{}", stderr(&out));
}

/// The VCD `udsim simulate examples/c432.bench --vectors N` writes, as
/// the event-driven baseline sees the same seeded stimulus.
fn reference_vcd(vectors: usize) -> Vec<u8> {
    use unit_delay_sim::core::vcd::VcdRecorder;
    use unit_delay_sim::core::vectors::RandomVectors;
    use unit_delay_sim::core::{TracedEventSim, UnitDelaySimulator};

    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/c432.bench"))
        .expect("c432 example present");
    let nl = unit_delay_sim::netlist::bench_format::parse(&text, "c432").expect("c432 parses");
    let mut sim = TracedEventSim::new(&nl).expect("combinational");
    let mut vcd = Vec::new();
    let mut recorder = VcdRecorder::new(&nl, nl.primary_outputs().to_vec(), &mut vcd);
    for inputs in RandomVectors::new(nl.primary_inputs().len(), 1990).take(vectors) {
        sim.simulate_vector(&inputs);
        recorder.record(&sim);
    }
    recorder.finish().expect("a Vec takes every write");
    vcd
}

#[test]
fn vcd_files_match_the_event_driven_baseline() {
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/c432.bench");
    let expected = reference_vcd(4097);
    for (name, flags) in [
        ("default", &[][..]),
        ("pc-set", &["--engine", "pc-set"][..]),
        ("word32", &["--word", "32"][..]),
    ] {
        let vcd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("c432-{name}.vcd"));
        let mut args = vec!["simulate", bench, "--vectors", "4097"];
        args.extend_from_slice(flags);
        args.extend_from_slice(&["--vcd", vcd.to_str().unwrap()]);
        let out = udsim(&args);
        assert_eq!(out.status.code(), Some(0), "{name}: {}", stderr(&out));
        let written = std::fs::read(&vcd).expect("VCD written");
        assert!(
            written == expected,
            "{name}: VCD differs from the baseline's"
        );
    }
}

#[test]
fn unwritable_vcd_path_exits_before_any_row() {
    let path = fixture("vcd-nodir.bench", C17);
    let out = udsim(&[
        "simulate",
        path.to_str().unwrap(),
        "--vectors",
        "4",
        "--vcd",
        "/nonexistent-dir-for-udsim-test/out.vcd",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "rows printed before the failure");
    assert!(stderr(&out).contains("out.vcd"), "{}", stderr(&out));
}

#[test]
fn zero_jobs_is_a_usage_error() {
    let path = fixture("batch4.bench", C17);
    let out = udsim(&["simulate", path.to_str().unwrap(), "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn bad_word_width_is_a_usage_error() {
    let path = fixture("batch5.bench", C17);
    let out = udsim(&["simulate", path.to_str().unwrap(), "--word", "48"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("48"), "{err}");
}

/// `simulate`, `profile` and `hotspots` parse their shared run flags
/// through one parser: each bad input fails the same way on all three,
/// and each subcommand still rejects the flags it does not take.
#[test]
fn shared_run_flags_fail_the_same_way_on_every_run_subcommand() {
    let path = fixture("shared17.bench", C17);
    let file = path.to_str().unwrap();
    let engines = "event-driven, pc-set, parallel, parallel+trim, parallel+pt, \
                   parallel+pt+trim, parallel+cb, native";
    let shared: [(&[&str], String); 8] = [
        (
            &[file, "--jobs", "0"],
            "--jobs: worker count must be at least 1".to_owned(),
        ),
        (
            &[file, "--jobs", "100000"],
            "--jobs: worker count is capped at 256".to_owned(),
        ),
        (
            &[file, "--word", "48"],
            "--word: `48` is not 32 or 64".to_owned(),
        ),
        (
            &[file, "--vectors", "x"],
            "--vectors: invalid digit found in string".to_owned(),
        ),
        (
            &[file, "--seed", "x"],
            "--seed: invalid digit found in string".to_owned(),
        ),
        (
            &[file, "--engine", "bogus"],
            format!("unknown engine `bogus` (expected one of: {engines})"),
        ),
        (&["--vectors", "4"], "missing FILE.bench".to_owned()),
        (
            &[file, "second.bench"],
            "unexpected argument `second.bench`".to_owned(),
        ),
    ];
    let mut cases: Vec<(Vec<&str>, String)> = Vec::new();
    for command in ["simulate", "profile", "hotspots"] {
        for (args, message) in &shared {
            let mut argv = vec![command];
            argv.extend_from_slice(args);
            cases.push((argv, message.clone()));
        }
    }
    cases.push((
        vec!["hotspots", file, "--progress", "-"],
        "unexpected argument `--progress`".to_owned(),
    ));
    cases.push((
        vec!["profile", file, "--budget", "production"],
        "unexpected argument `--budget`".to_owned(),
    ));
    for (argv, message) in cases {
        let out = udsim(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {}", stderr(&out));
        assert_eq!(stderr(&out), format!("udsim: {message}\n"), "{argv:?}");
    }
}

#[test]
fn engines_subcommand_lists_every_engine() {
    let out = udsim(&["engines"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for name in ["event-driven", "pc-set", "parallel", "parallel+pt+trim"] {
        assert!(stdout.contains(name), "{stdout}");
    }
}

#[test]
fn unknown_command_exits_with_usage_code() {
    let out = udsim(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"), "{}", stderr(&out));
}

/// `udsim simulate … | head`: the reader closes the pipe long before
/// the run ends. Both row paths, and every other subcommand that prints
/// to stdout, must stop quietly with exit 0.
#[test]
fn a_closed_pipe_ends_the_run_quietly() {
    use std::io::Read as _;
    use std::process::Stdio;
    let circuit = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/c432.bench");
    let rows = ["simulate", circuit, "--vectors", "100000"];
    for args in [
        &rows[..],
        &[&rows[..], &["--jobs", "2"]].concat(),
        &["stats", circuit],
        &["codegen", circuit],
        &["codegen", circuit, "--technique", "pc-set"],
        &["profile", circuit],
        &["hotspots", circuit],
        &["cone", circuit, "n17_0"],
        &["engines"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_udsim"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("udsim binary runs");
        let mut reader = child.stdout.take().expect("piped stdout");
        if args[0] == "simulate" {
            let mut first = [0u8; 64];
            reader.read_exact(&mut first).expect("the header arrives");
            assert!(first.starts_with(b"# c432"), "{args:?}");
        }
        // The read end is dropped here: before the first byte of the
        // short reports, with megabytes of rows to go for `simulate`.
        drop(reader);
        let out = child.wait_with_output().expect("udsim exits");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

/// A write failure other than a closed pipe is a one-line usage error.
#[cfg(target_os = "linux")]
#[test]
fn a_full_device_is_a_usage_error() {
    let path = fixture("full.bench", C17);
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    let out = Command::new(env!("CARGO_BIN_EXE_udsim"))
        .args(["simulate", path.to_str().unwrap(), "--vectors", "4"])
        .stdout(full)
        .output()
        .expect("udsim binary runs");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("writing output"), "{err}");
}
