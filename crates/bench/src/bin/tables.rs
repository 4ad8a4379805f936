//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run --release -p uds-bench --bin tables -- all
//! cargo run --release -p uds-bench --bin tables -- fig19 --vectors 5000
//! cargo run --release -p uds-bench --bin tables -- fig21 --json
//! cargo run --release -p uds-bench --bin tables -- fig19 --quick --json - | jq .
//! ```
//!
//! Subcommands: `fig19`, `fig20`, `fig21`, `fig22`, `fig23`, `fig24`,
//! `zero-delay`, `codesize`, `parallel`, `native`, `hotspots`, `all`,
//! and `compare OLD NEW [--tolerance PCT]`. Options: `--vectors N`
//! (default 5000, as in the paper), `--quick` (500 vectors), and
//! `--json` (additionally write each table as `BENCH_<name>.json` in
//! the current directory, schema `uds-bench-v1`). `--json -` streams
//! the JSON documents to stdout instead — the rendered tables then move
//! to stderr, the same stdout contract as `udsim --stats -`. `parallel`
//! is the multi-core scaling sweep: the batch runner at jobs = 1/2/4/8
//! against the single-thread parallel+pt+trim baseline. `native` times
//! the emitted C compiled with the system `cc` and `dlopen`-loaded
//! against the in-process parallel+pt+trim interpreter — the paper's
//! actual deployment model; it prints a visible SKIP (and writes no
//! JSON) when no C compiler is on `PATH`. `hotspots` runs the per-level
//! execution profiler (DESIGN.md §19) on both compiled techniques. Its
//! per-level `self_ns` is apportioned, not clocked per level: the level
//! timer reads the clock once per batch of word ops and splits each
//! interval across levels by word-op weight. The gate watches the
//! profiled-run throughput and the static totals; the per-level
//! breakdown rides along un-gated.
//!
//! `compare` is the perf regression gate (DESIGN.md §16): it matches
//! two `uds-bench-v1` documents cell by cell, normalizes throughput by
//! their calibration scores, and exits 1 when any cell regressed
//! beyond the tolerance (default 10%) or went missing — 0 otherwise,
//! 2 on malformed or mismatched inputs. With `--json` the delta report
//! lands in `DELTA_<figure>.json` (schema `uds-bench-compare-v1`);
//! `--json -` streams it to stdout.
//!
//! Timed cells show the minimum of [`runner::TIMING_REPS`] repetitions
//! after a warmup pass, each repeating the pass for at least
//! [`runner::MIN_REP_SECONDS`] and reporting seconds per pass; the
//! JSON carries min, the median the compare
//! gate reads, and derived vectors/sec. When `--json` is active the
//! run is fingerprinted with the host's [`uds_core::calibrate`] score
//! so baselines recorded on different machines stay comparable. Static
//! columns come from the compilers' telemetry gauges. Fig. 19 carries
//! the measured activity factor (toggles / (nets × depth × vectors)) —
//! the event-driven baseline's work scales with it, the compiled
//! techniques' does not, so it contextualizes each circuit's speedup.

use std::cell::{Cell, RefCell};
use std::env;
use std::fs;
use std::io::{self, BufWriter, Write as _};

use uds_bench::compare::{self, DEFAULT_TOLERANCE_PCT};
use uds_bench::paper;
use uds_bench::runner::{self, suite, Timing};
use uds_bench::table::{ratio, seconds, Table};
use uds_core::telemetry::json::Json;
use uds_core::{is_closed_pipe, write_text, Engine, StreamContract};
use uds_netlist::generators::iscas::Iscas85;
use uds_parallel::Optimization;

/// Where `--json` documents go.
#[derive(Clone, Copy, PartialEq, Eq)]
enum JsonDest {
    /// `BENCH_<name>.json` files in the current directory.
    Files,
    /// Streamed to stdout (`--json -`); tables move to stderr.
    Stdout,
}

/// This invocation's output routing: rendered tables through the shared
/// buffered human sink, JSON documents to files or stdout.
struct Output {
    human: RefCell<BufWriter<Box<dyn io::Write>>>,
    /// The exit code when a reader closes the pipe: 0, or a gate's
    /// verdict once it is known, so `compare … | head` still fails a
    /// regression.
    closed_pipe_exit: Cell<i32>,
    json: Option<JsonDest>,
    /// The machine fingerprint stamped into every document this run
    /// writes (measured once, before any figure, so the score is not
    /// polluted by a warm bench loop). `None` when `--json` is off.
    calibration: Option<Json>,
}

impl Output {
    /// Prints one table line through the stdout contract, flushed so a
    /// long run shows each table as its figure finishes.
    fn line(&self, text: impl std::fmt::Display) {
        let mut human = self.human.borrow_mut();
        if let Err(e) = writeln!(human, "{text}").and_then(|()| human.flush()) {
            self.write_failed("output", &e);
            std::process::exit(2);
        }
    }

    /// Emits a figure's rows as one `uds-bench-v1` document, when
    /// `--json` was given.
    fn write_json(&self, name: &str, vectors: Option<usize>, rows: Vec<Json>) {
        let Some(dest) = self.json else { return };
        let mut doc = vec![
            ("schema".to_owned(), Json::Str("uds-bench-v1".to_owned())),
            ("figure".to_owned(), Json::Str(name.to_owned())),
        ];
        if let Some(vectors) = vectors {
            doc.push(("vectors".to_owned(), Json::UInt(vectors as u64)));
        }
        if let Some(calibration) = &self.calibration {
            doc.push(("calibration".to_owned(), calibration.clone()));
        }
        doc.push(("rows".to_owned(), Json::Arr(rows)));
        let mut rendered = Json::Obj(doc).render();
        rendered.push('\n');
        let path = match dest {
            JsonDest::Stdout => "-".to_owned(),
            JsonDest::Files => format!("BENCH_{name}.json"),
        };
        if let Err(e) = write_text(&path, &rendered) {
            self.write_failed(&path, &e);
        }
    }

    /// Reports a failed write of `what`. A closed pipe (`tables fig21 |
    /// head -1`) ends the run quietly, as in `udsim`, with
    /// `closed_pipe_exit`.
    fn write_failed(&self, what: &str, err: &io::Error) {
        if is_closed_pipe(err) {
            std::process::exit(self.closed_pipe_exit.get());
        }
        eprintln!("error: writing {what}: {err}");
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut vectors = 5000usize;
    let mut command = String::from("all");
    let mut json: Option<JsonDest> = None;
    let mut tolerance: Option<f64> = None;
    let mut compare_paths: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--vectors" => {
                vectors = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--vectors needs a number"));
            }
            "--quick" => vectors = 500,
            "--tolerance" => {
                tolerance = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                        .unwrap_or_else(|| usage("--tolerance needs a non-negative percentage")),
                );
            }
            "--json" => {
                // `--json -` streams to stdout; bare `--json` keeps the
                // historical per-figure files.
                json = Some(if iter.peek().map(|a| a.as_str()) == Some("-") {
                    iter.next();
                    JsonDest::Stdout
                } else {
                    JsonDest::Files
                });
            }
            "fig19" | "fig20" | "fig21" | "fig22" | "fig23" | "fig24" | "zero-delay"
            | "codesize" | "parallel" | "native" | "hotspots" | "all" | "compare" => {
                command = arg.clone();
            }
            other if command == "compare" && !other.starts_with('-') => {
                compare_paths.push(other.to_owned());
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if command == "compare" && compare_paths.len() != 2 {
        usage("compare needs exactly two documents: compare OLD NEW");
    }
    if command != "compare" && tolerance.is_some() {
        usage("--tolerance only applies to `compare`");
    }

    // The same stdout contract as udsim's stream flags: `--json -`
    // claims stdout and the rendered tables move to stderr.
    let mut contract = StreamContract::new();
    if json == Some(JsonDest::Stdout) {
        contract.claim("--json", "-").unwrap_or_else(|e| usage(&e));
    }
    // The fingerprint is measured once, up front, on a quiet machine
    // state — never needed by `compare`, which reads the fingerprints
    // already recorded in its input documents.
    let calibration = (json.is_some() && command != "compare").then(runner::fingerprint);
    let out = Output {
        human: RefCell::new(contract.human().writer()),
        closed_pipe_exit: Cell::new(0),
        json,
        calibration,
    };
    if let Some(calibration) = &out.calibration {
        out.line(format!(
            "calibration: score {:.3} ({})",
            calibration
                .get("score")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            calibration
                .get("profile")
                .and_then(Json::as_str)
                .unwrap_or("?"),
        ));
    }

    if command == "compare" {
        run_compare(
            &compare_paths[0],
            &compare_paths[1],
            tolerance.unwrap_or(DEFAULT_TOLERANCE_PCT),
            &out,
        );
    }

    match command.as_str() {
        "fig19" => fig19(vectors, &out),
        "fig20" => fig20(vectors, &out),
        "fig21" => fig21(&out),
        "fig22" => fig22(&out),
        "fig23" => fig23(vectors, &out),
        "fig24" => fig24(vectors, &out),
        "zero-delay" => zero_delay(vectors, &out),
        "codesize" => codesize(&out),
        "parallel" => parallel_scaling(vectors, &out),
        "native" => native(vectors, &out),
        "hotspots" => hotspots(vectors, &out),
        "all" => {
            fig19(vectors, &out);
            zero_delay(vectors, &out);
            fig20(vectors, &out);
            fig21(&out);
            fig22(&out);
            fig23(vectors, &out);
            fig24(vectors, &out);
            codesize(&out);
            parallel_scaling(vectors, &out);
            native(vectors, &out);
            hotspots(vectors, &out);
        }
        _ => unreachable!("validated above"),
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: tables [fig19|fig20|fig21|fig22|fig23|fig24|zero-delay|codesize|parallel|native|hotspots|all] \
         [--vectors N | --quick] [--json [-]]\n\
         \x20      tables compare OLD.json NEW.json [--tolerance PCT] [--json [-]]"
    );
    std::process::exit(2);
}

/// The `compare` subcommand: parse OLD and NEW, classify every cell,
/// render the delta, and exit with the gate verdict.
///
/// Exit codes: 0 = gate passes, 1 = regressed/missing cells,
/// 2 = unreadable, malformed, or mismatched documents.
fn run_compare(old_path: &str, new_path: &str, tolerance: f64, out: &Output) -> ! {
    let read = |path: &str| {
        fs::read_to_string(path).unwrap_or_else(|e| usage(&format!("cannot read `{path}`: {e}")))
    };
    let report = compare::compare_rendered(&read(old_path), &read(new_path), tolerance)
        .unwrap_or_else(|e| usage(&e.0));
    let verdict = if report.gate_passes() { 0 } else { 1 };
    out.closed_pipe_exit.set(verdict);
    out.line(report.render_table());
    if let Some(dest) = out.json {
        let mut rendered = report.to_json().render();
        rendered.push('\n');
        let path = match dest {
            JsonDest::Stdout => "-".to_owned(),
            JsonDest::Files => format!("DELTA_{}.json", report.figure),
        };
        if let Err(e) = write_text(&path, &rendered) {
            out.write_failed(&path, &e);
        }
    }
    std::process::exit(verdict);
}

/// Table cell for a timing: the minimum repetition, in seconds.
fn best(timing: Timing) -> String {
    seconds(timing.min_s)
}

/// JSON value for a timing: the raw statistics plus derived
/// throughput. `median_s` is the statistic `compare` gates on.
fn timing_json(timing: Timing, vectors: usize) -> Json {
    Json::obj([
        ("min_s", Json::Float(timing.min_s)),
        ("median_s", Json::Float(timing.median_s)),
        ("reps", Json::UInt(timing.reps as u64)),
        (
            "vectors_per_s",
            Json::Float(vectors as f64 / timing.median_s.max(1e-12)),
        ),
    ])
}

fn fig19(vectors: usize, out: &Output) {
    out.line(format!(
        "\n== Fig. 19: simulation time, {vectors} random vectors (measured s | paper s) =="
    ));
    out.line(
        "== activity = measured toggles/(nets*depth*vectors); event-driven work scales with it ==",
    );
    let mut table = Table::new(&[
        "circuit",
        "activity",
        "interp-3v",
        "interp-2v",
        "pc-set",
        "pc-set block",
        "parallel",
        "pc speedup",
        "par speedup",
        "paper pc",
        "paper par",
    ]);
    let mut rows = Vec::new();
    let (mut pc_total, mut par_total) = (0.0, 0.0);
    for (circuit, nl) in suite() {
        let m = runner::fig19(&nl, vectors);
        let activity = runner::activity_factor(&nl, vectors);
        let p = paper::fig19(circuit);
        pc_total += m.interpreted_3v.min_s / m.pc_set.min_s.max(1e-9);
        par_total += m.interpreted_3v.min_s / m.parallel.min_s.max(1e-9);
        table.row(vec![
            circuit.to_string(),
            format!("{activity:.4}"),
            best(m.interpreted_3v),
            best(m.interpreted_2v),
            best(m.pc_set),
            best(m.pc_set_block),
            best(m.parallel),
            ratio(m.interpreted_3v.min_s, m.pc_set.min_s),
            ratio(m.interpreted_3v.min_s, m.parallel.min_s),
            ratio(p.interpreted_3v, p.pc_set),
            ratio(p.interpreted_3v, p.parallel),
        ]);
        rows.push(Json::obj([
            ("circuit", Json::Str(circuit.to_string())),
            ("activity_factor", Json::Float(activity)),
            ("interpreted_3v", timing_json(m.interpreted_3v, vectors)),
            ("interpreted_2v", timing_json(m.interpreted_2v, vectors)),
            ("pc_set", timing_json(m.pc_set, vectors)),
            ("pc_set_block", timing_json(m.pc_set_block, vectors)),
            ("parallel", timing_json(m.parallel, vectors)),
            ("paper_interpreted_3v_s", Json::Float(p.interpreted_3v)),
            ("paper_pc_set_s", Json::Float(p.pc_set)),
            ("paper_parallel_s", Json::Float(p.parallel)),
        ]));
    }
    out.line(Table::render(&table));
    out.line(format!(
        "average speedup vs interpreted 3v: pc-set {:.1}x (paper ~{:.0}x), parallel {:.1}x (paper ~{:.0}x)",
        pc_total / 10.0,
        paper::claims::PC_SET_SPEEDUP,
        par_total / 10.0,
        paper::claims::PARALLEL_SPEEDUP
    ));
    out.write_json("fig19", Some(vectors), rows);
}

fn fig20(vectors: usize, out: &Output) {
    out.line(format!(
        "\n== Fig. 20: bit-field trimming, {vectors} vectors =="
    ));
    out.line("== op gain = generated-statement reduction (the faithful 1990 proxy) ==");
    let mut table = Table::new(&[
        "circuit",
        "levels(words)",
        "parallel",
        "trimming",
        "time gain",
        "op gain",
        "paper gain",
    ]);
    let mut rows = Vec::new();
    for (circuit, nl) in suite() {
        let (levels, words) = runner::levels_and_words(&nl);
        let unopt = runner::time_parallel(&nl, Optimization::None, vectors);
        let trimmed = runner::time_parallel(&nl, Optimization::Trimming, vectors);
        let unopt_ops = runner::word_ops(&nl, Optimization::None);
        let trimmed_ops = runner::word_ops(&nl, Optimization::Trimming);
        let p = paper::fig20(circuit);
        table.row(vec![
            circuit.to_string(),
            format!("{levels}({words})"),
            best(unopt),
            best(trimmed),
            percent_gain(unopt.min_s, trimmed.min_s),
            percent_gain(unopt_ops as f64, trimmed_ops as f64),
            percent_gain(p.parallel, p.trimming),
        ]);
        rows.push(Json::obj([
            ("circuit", Json::Str(circuit.to_string())),
            ("levels", Json::UInt(levels.into())),
            ("field_words", Json::UInt(words.into())),
            ("unoptimized", timing_json(unopt, vectors)),
            ("trimming", timing_json(trimmed, vectors)),
            ("unoptimized_word_ops", Json::UInt(unopt_ops as u64)),
            ("trimming_word_ops", Json::UInt(trimmed_ops as u64)),
        ]));
    }
    out.line(Table::render(&table));
    out.write_json("fig20", Some(vectors), rows);
}

fn fig21(out: &Output) {
    out.line("\n== Fig. 21: retained shifts (measured | paper) ==");
    let mut table = Table::new(&[
        "circuit",
        "unopt",
        "path-tracing",
        "cycle-breaking",
        "paper unopt",
        "paper pt",
        "paper cb",
    ]);
    let mut rows = Vec::new();
    for (circuit, nl) in suite() {
        let a = runner::shift_analysis(&nl);
        let p = paper::fig21(circuit);
        table.row(vec![
            circuit.to_string(),
            a.unoptimized_shifts.to_string(),
            a.path_tracing_shifts.to_string(),
            a.cycle_breaking_shifts.to_string(),
            p.unoptimized.to_string(),
            p.path_tracing.to_string(),
            p.cycle_breaking.to_string(),
        ]);
        rows.push(Json::obj([
            ("circuit", Json::Str(circuit.to_string())),
            (
                "unoptimized_shifts",
                Json::UInt(a.unoptimized_shifts as u64),
            ),
            (
                "path_tracing_shifts",
                Json::UInt(a.path_tracing_shifts as u64),
            ),
            (
                "cycle_breaking_shifts",
                Json::UInt(a.cycle_breaking_shifts as u64),
            ),
            ("paper_unoptimized", Json::UInt(p.unoptimized as u64)),
            ("paper_path_tracing", Json::UInt(p.path_tracing as u64)),
            ("paper_cycle_breaking", Json::UInt(p.cycle_breaking as u64)),
        ]));
    }
    out.line(Table::render(&table));
    out.write_json("fig21", None, rows);
}

fn fig22(out: &Output) {
    out.line("\n== Fig. 22: bit-field widths in bits (the paper's rows did not survive; ==");
    out.line("==          expected shape: path-tracing <= unoptimized << cycle-breaking) ==");
    let mut table = Table::new(&["circuit", "unopt", "path-tracing", "cycle-breaking"]);
    let mut rows = Vec::new();
    for (circuit, nl) in suite() {
        let a = runner::shift_analysis(&nl);
        table.row(vec![
            circuit.to_string(),
            a.unoptimized_width.to_string(),
            a.path_tracing_width.to_string(),
            a.cycle_breaking_width.to_string(),
        ]);
        rows.push(Json::obj([
            ("circuit", Json::Str(circuit.to_string())),
            ("unoptimized_width", Json::UInt(a.unoptimized_width.into())),
            (
                "path_tracing_width",
                Json::UInt(a.path_tracing_width.into()),
            ),
            (
                "cycle_breaking_width",
                Json::UInt(a.cycle_breaking_width.into()),
            ),
        ]));
    }
    out.line(Table::render(&table));
    out.write_json("fig22", None, rows);
}

fn fig23(vectors: usize, out: &Output) {
    out.line(format!(
        "\n== Fig. 23: shift elimination, {vectors} vectors =="
    ));
    out.line(
        "== (paper: path-tracing gains 24%..84%; cycle-breaking loses on all but the smallest) ==",
    );
    let mut table = Table::new(&[
        "circuit",
        "unopt",
        "path-tracing",
        "cycle-breaking",
        "pt time gain",
        "pt op gain",
        "cb op gain",
    ]);
    let mut rows = Vec::new();
    for (circuit, nl) in suite() {
        let unopt = runner::time_parallel(&nl, Optimization::None, vectors);
        let pt = runner::time_parallel(&nl, Optimization::PathTracing, vectors);
        let cb = runner::time_parallel(&nl, Optimization::CycleBreaking, vectors);
        let unopt_ops = runner::word_ops(&nl, Optimization::None) as f64;
        let pt_ops = runner::word_ops(&nl, Optimization::PathTracing) as f64;
        let cb_ops = runner::word_ops(&nl, Optimization::CycleBreaking) as f64;
        table.row(vec![
            circuit.to_string(),
            best(unopt),
            best(pt),
            best(cb),
            percent_gain(unopt.min_s, pt.min_s),
            percent_gain(unopt_ops, pt_ops),
            percent_gain(unopt_ops, cb_ops),
        ]);
        rows.push(Json::obj([
            ("circuit", Json::Str(circuit.to_string())),
            ("unoptimized", timing_json(unopt, vectors)),
            ("path_tracing", timing_json(pt, vectors)),
            ("cycle_breaking", timing_json(cb, vectors)),
            ("unoptimized_word_ops", Json::UInt(unopt_ops as u64)),
            ("path_tracing_word_ops", Json::UInt(pt_ops as u64)),
            ("cycle_breaking_word_ops", Json::UInt(cb_ops as u64)),
        ]));
    }
    out.line(Table::render(&table));
    out.write_json("fig23", Some(vectors), rows);
}

fn fig24(vectors: usize, out: &Output) {
    out.line(format!(
        "\n== Fig. 24: shift elimination + trimming, {vectors} vectors =="
    ));
    let mut table = Table::new(&[
        "circuit",
        "unopt",
        "path-tracing",
        "with trimming",
        "time gain",
        "op gain",
        "paper gain",
    ]);
    let mut rows = Vec::new();
    let mut gain_total = 0.0;
    for (circuit, nl) in suite() {
        let unopt = runner::time_parallel(&nl, Optimization::None, vectors);
        let pt = runner::time_parallel(&nl, Optimization::PathTracing, vectors);
        let both = runner::time_parallel(&nl, Optimization::PathTracingTrimming, vectors);
        let unopt_ops = runner::word_ops(&nl, Optimization::None) as f64;
        let both_ops = runner::word_ops(&nl, Optimization::PathTracingTrimming) as f64;
        let p = paper::fig24(circuit);
        gain_total += 1.0 - both_ops / unopt_ops;
        table.row(vec![
            circuit.to_string(),
            best(unopt),
            best(pt),
            best(both),
            percent_gain(unopt.min_s, both.min_s),
            percent_gain(unopt_ops, both_ops),
            percent_gain(p.unoptimized, p.with_trimming),
        ]);
        rows.push(Json::obj([
            ("circuit", Json::Str(circuit.to_string())),
            ("unoptimized", timing_json(unopt, vectors)),
            ("path_tracing", timing_json(pt, vectors)),
            ("path_tracing_trimming", timing_json(both, vectors)),
            ("unoptimized_word_ops", Json::UInt(unopt_ops as u64)),
            (
                "path_tracing_trimming_word_ops",
                Json::UInt(both_ops as u64),
            ),
        ]));
    }
    out.line(Table::render(&table));
    out.line(format!(
        "average op-count improvement: {:.0}% (paper runtime improvement: {:.0}%)",
        100.0 * gain_total / 10.0,
        100.0 * paper::claims::SHIFT_ELIM_TRIM_AVG_IMPROVEMENT
    ));
    out.write_json("fig24", Some(vectors), rows);
}

fn zero_delay(vectors: usize, out: &Output) {
    out.line(format!(
        "\n== §5 aside: zero-delay compiled vs interpreted, {vectors} vectors =="
    ));
    let mut table = Table::new(&["circuit", "interpreted", "compiled", "speedup"]);
    let mut rows = Vec::new();
    let mut total = 0.0;
    for (circuit, nl) in suite() {
        let m = runner::zero_delay(&nl, vectors);
        total += m.interpreted.min_s / m.compiled.min_s.max(1e-9);
        table.row(vec![
            circuit.to_string(),
            best(m.interpreted),
            best(m.compiled),
            ratio(m.interpreted.min_s, m.compiled.min_s),
        ]);
        rows.push(Json::obj([
            ("circuit", Json::Str(circuit.to_string())),
            ("interpreted", timing_json(m.interpreted, vectors)),
            ("compiled", timing_json(m.compiled, vectors)),
        ]));
    }
    out.line(Table::render(&table));
    out.line(format!(
        "average speedup: {:.1}x (paper: ~{:.0}x — theirs compares compiled C to a full\n\
         interpreter; our \"interpreted\" levelized loop is already fairly tight)",
        total / 10.0,
        paper::claims::ZERO_DELAY_SPEEDUP
    ));
    out.write_json("zero-delay", Some(vectors), rows);
}

fn codesize(out: &Output) {
    out.line(
        "\n== generated-code size (lines of emitted C; §3: \"over 100,000 lines for c6288\") ==",
    );
    let mut table = Table::new(&["circuit", "pc-set", "parallel", "parallel+pt"]);
    let mut rows = Vec::new();
    for circuit in [Iscas85::C432, Iscas85::C1908, Iscas85::C6288] {
        let nl = circuit.build();
        let pc = uds_pcset::PcSetSimulator::compile(&nl).expect("combinational");
        let par = uds_parallel::ParallelSimulator::compile(&nl, Optimization::None)
            .expect("combinational");
        let pt = uds_parallel::ParallelSimulator::compile(&nl, Optimization::PathTracing)
            .expect("combinational");
        let pc_lines = uds_pcset::codegen_c::line_count(&nl, &pc).expect("matching netlist");
        let par_lines = uds_parallel::codegen_c::line_count(&nl, &par).expect("matching netlist");
        let pt_lines = uds_parallel::codegen_c::line_count(&nl, &pt).expect("matching netlist");
        table.row(vec![
            circuit.to_string(),
            pc_lines.to_string(),
            par_lines.to_string(),
            pt_lines.to_string(),
        ]);
        rows.push(Json::obj([
            ("circuit", Json::Str(circuit.to_string())),
            ("pc_set_lines", Json::UInt(pc_lines as u64)),
            ("parallel_lines", Json::UInt(par_lines as u64)),
            ("parallel_pt_lines", Json::UInt(pt_lines as u64)),
        ]));
    }
    out.line(Table::render(&table));
    out.write_json("codesize", None, rows);
}

fn native(vectors: usize, out: &Output) {
    out.line(format!(
        "\n== native engine: emitted C via system cc + dlopen, vs in-process parallel+pt+trim, \
         {vectors} vectors =="
    ));
    out.line("== (the paper's deployment model: the generated C *is* the simulator) ==");
    if !uds_core::compiler_available() {
        out.line(
            "SKIP: no C compiler on PATH (set $UDS_CC to override) — native table not measured",
        );
        return;
    }
    let mut table = Table::new(&["circuit", "parallel+pt+trim", "native", "native speedup"]);
    let mut rows = Vec::new();
    for (circuit, nl) in suite() {
        let interp = runner::time_parallel(&nl, Optimization::PathTracingTrimming, vectors);
        let native = runner::time_native(&nl, vectors).expect("compiler probed above");
        table.row(vec![
            circuit.to_string(),
            best(interp),
            best(native),
            ratio(interp.min_s, native.min_s),
        ]);
        rows.push(Json::obj([
            ("circuit", Json::Str(circuit.to_string())),
            ("parallel_pt_trim", timing_json(interp, vectors)),
            ("native", timing_json(native, vectors)),
        ]));
    }
    out.line(Table::render(&table));
    out.write_json("native", Some(vectors), rows);
}

/// Shard counts the multi-core sweep measures.
const JOBS_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn parallel_scaling(vectors: usize, out: &Output) {
    out.line(format!(
        "\n== multi-core scaling: batch runner, parallel+pt+trim, {vectors} vectors =="
    ));
    out.line("== (seq = single-thread loop; jobs=N shards the stream over N workers, ==");
    out.line("==  each zero-delay-seeded at its boundary; outputs stay bit-identical) ==");
    let mut table = Table::new(&[
        "circuit",
        "seq",
        "jobs=1",
        "jobs=2",
        "jobs=4",
        "jobs=8",
        "speedup@4",
        "speedup@8",
    ]);
    let mut rows = Vec::new();
    for circuit in [Iscas85::C432, Iscas85::C1355, Iscas85::C6288] {
        let nl = circuit.build();
        let stimulus = runner::stimulus(&nl, vectors);
        let sequential = runner::time_parallel(&nl, Optimization::PathTracingTrimming, vectors);
        let batched: Vec<Timing> = JOBS_SWEEP
            .iter()
            .map(|&jobs| runner::time_batch(&nl, &stimulus, jobs))
            .collect();
        table.row(vec![
            circuit.to_string(),
            best(sequential),
            best(batched[0]),
            best(batched[1]),
            best(batched[2]),
            best(batched[3]),
            ratio(sequential.min_s, batched[2].min_s),
            ratio(sequential.min_s, batched[3].min_s),
        ]);
        rows.push(Json::obj([
            ("circuit", Json::Str(circuit.to_string())),
            ("sequential", timing_json(sequential, vectors)),
            (
                "batched",
                Json::Arr(
                    JOBS_SWEEP
                        .iter()
                        .zip(&batched)
                        .map(|(&jobs, &timing)| {
                            Json::obj([
                                ("jobs", Json::UInt(jobs as u64)),
                                ("timing", timing_json(timing, vectors)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    out.line(Table::render(&table));
    out.write_json("parallel", Some(vectors), rows);
}

/// The engines the hotspot figure profiles: both compiled techniques,
/// at the optimization level each ships under by default.
const HOTSPOT_ENGINES: [(&str, Engine); 2] = [
    ("pc_set", Engine::PcSet),
    ("parallel_pt_trim", Engine::ParallelPathTracingTrimming),
];

fn hotspots(vectors: usize, out: &Output) {
    out.line(format!(
        "\n== hotspots: per-level self-time beside the static cost model, {vectors} vectors =="
    ));
    out.line("== (per-level self_ns is apportioned by word-op weight from clock reads ==");
    out.line("==  taken once per batch of word ops, not clocked per level) ==");
    let mut table = Table::new(&[
        "circuit",
        "engine",
        "profiled",
        "attributed",
        "levels",
        "hottest",
    ]);
    let mut rows = Vec::new();
    for circuit in [Iscas85::C432, Iscas85::C1908, Iscas85::C6288] {
        let nl = circuit.build();
        let mut members = vec![("circuit".to_owned(), Json::Str(circuit.to_string()))];
        for (label, engine) in HOTSPOT_ENGINES {
            let (report, timing) = runner::hotspot_profile(&nl, engine, vectors);
            let attributed = report.measured.total_self_ns();
            let static_profile = report
                .static_profile
                .as_ref()
                .expect("compiled engines carry a static cost model");
            // Gate levels only: level 0 is per-vector setup, which the
            // static model prices differently from the sweep body.
            let gate_levels = 1..report
                .measured
                .levels
                .len()
                .min(static_profile.levels.len());
            let hottest = report
                .measured
                .levels
                .iter()
                .enumerate()
                .max_by_key(|(_, cost)| cost.self_ns)
                .map_or(0, |(level, _)| level);
            table.row(vec![
                circuit.to_string(),
                label.to_owned(),
                best(timing),
                format!(
                    "{:.0}%",
                    100.0 * attributed as f64 / report.span_ns.max(1) as f64
                ),
                report.measured.levels.len().to_string(),
                format!("level_{hottest}"),
            ]);
            let level_rows: Vec<Json> = gate_levels
                .map(|l| {
                    Json::obj([
                        ("level", Json::UInt(l as u64)),
                        ("self_ns", Json::UInt(report.measured.levels[l].self_ns)),
                        ("word_ops", Json::UInt(report.measured.levels[l].word_ops)),
                        (
                            "static_word_ops",
                            Json::UInt(static_profile.levels[l].word_ops),
                        ),
                    ])
                })
                .collect();
            // Gate-watched cells: the profiled-run timing (a timer-
            // overhead regression shows up as lost throughput) and the
            // deterministic static totals. The per-level nanoseconds
            // are too noisy to gate exactly, so they ride inside
            // `<label>_profile`, a shape `compare` ignores additively.
            members.push((format!("{label}_profiled"), timing_json(timing, vectors)));
            members.push((
                format!("{label}_static_word_ops"),
                Json::UInt(static_profile.total().word_ops),
            ));
            members.push((
                format!("{label}_levels"),
                Json::UInt(report.measured.levels.len() as u64),
            ));
            members.push((
                format!("{label}_profile"),
                Json::obj([
                    (
                        "self_ns_source",
                        Json::Str(
                            "apportioned by word-op weight, not clocked per level".to_owned(),
                        ),
                    ),
                    ("span_ns", Json::UInt(report.span_ns)),
                    ("attributed_ns", Json::UInt(attributed)),
                    ("levels", Json::Arr(level_rows)),
                ]),
            ));
        }
        rows.push(Json::Obj(members));
    }
    out.line(Table::render(&table));
    out.line(
        "(attributed = share of the profiled span the level timer assigned to levels; \
         the rest is guard bookkeeping credited to level 0)",
    );
    out.write_json("hotspots", Some(vectors), rows);
}

fn percent_gain(before: f64, after: f64) -> String {
    if before <= 0.0 {
        "-".to_owned()
    } else {
        format!("{:+.0}%", 100.0 * (1.0 - after / before))
    }
}
