//! `uds-benchmark` — the repository's end-to-end benchmark.
//!
//! ```text
//! uds-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! uds-benchmark run     --seed N [--seconds S] [--out SET.json]
//! uds-benchmark trace   --seed N [--seconds S]
//! uds-benchmark compare BEFORE.json AFTER.json
//! ```
//!
//! Run from the repository root. The first form measures one workload
//! and prints, as the last line of stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`); the
//! line before it is the full `{"report": ...}` with sample counts and
//! notes. `run` measures every workload over several rounds and writes a
//! set file; `trace` runs every workload's ledger and reports the
//! tracing overhead; `compare` judges one set against another. See
//! README.md.

mod compare;
mod host;
mod ledger;
mod metrics;
mod oracle;
mod proc;
mod serve_mix;
mod stream;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use uds_core::telemetry::json::Json;
use uds_netlist::{bench_format, Netlist};

use crate::metrics::{Measured, END_TO_END, PER_LAYER};

/// The benchmark's workloads (README.md says why each was chosen).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    StreamC432,
    StreamC6288,
    NativeC1908,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StreamC432,
        Workload::StreamC6288,
        Workload::NativeC1908,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamC432 => "stream-c432",
            Workload::StreamC6288 => "stream-c6288",
            Workload::NativeC1908 => "native-c1908",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The circuit the workload's CLI runs and its layers are traced on.
    pub fn circuit(self) -> &'static str {
        match self {
            Workload::StreamC432 | Workload::ServeMix => "c432",
            Workload::StreamC6288 => "c6288",
            Workload::NativeC1908 => "c1908",
        }
    }

    /// Vectors per CLI run (per request for `serve-mix`): about 0.15 s of
    /// work on a quiet 2-core host, short next to the host's slow
    /// episodes, long next to the command's set-up.
    pub fn vectors(self) -> usize {
        match self {
            Workload::StreamC432 => 50_000,
            Workload::StreamC6288 => 2_000,
            Workload::NativeC1908 => 25_000,
            Workload::ServeMix => serve_mix::VECTORS,
        }
    }

    /// Timed CLI runs in a measurement of `seconds`: a fixed count, so the
    /// number of samples does not depend on the speed being measured,
    /// sized so that the measurement takes about `seconds` on a quiet
    /// 2-core host (a run with its probe and set-up takes about 0.25 s;
    /// `native-c1908`'s cold `cc` set-ups take about 12 s first).
    pub fn reps(self, seconds: f64) -> usize {
        let timed = match self {
            Workload::NativeC1908 => seconds - 12.0,
            _ => seconds,
        };
        ((timed * 4.0).round() as usize).max(stream::MIN_REPS)
    }

    pub fn native(self) -> bool {
        self == Workload::NativeC1908
    }
}

/// Where a run reads its inputs and keeps its temporary files.
pub struct Ctx {
    pub root: PathBuf,
    pub udsim: PathBuf,
    /// Per-process scratch directory, removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    pub fn circuit_path(&self, name: &str) -> PathBuf {
        self.root
            .join("benchmark")
            .join("circuits")
            .join(format!("{name}.bench"))
    }

    pub fn circuit_text(&self, name: &str) -> Result<String, String> {
        let path = self.circuit_path(name);
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn netlist(&self, name: &str) -> Result<Netlist, String> {
        bench_format::parse(&self.circuit_text(name)?, name).map_err(|e| format!("{name}: {e}"))
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// What a measurement produced: metrics, the operations it checked, and
/// the first few failures.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; a failure is recorded and `None`
    /// returned.
    pub fn tally<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(error);
                }
                None
            }
        }
    }

    fn report(
        &self,
        workload: Workload,
        seed: u64,
        traced: bool,
        trace_file: Option<&Path>,
    ) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::Str(m.name.to_owned())),
                    ("unit", Json::Str(m.unit.to_owned())),
                    ("value", Json::Float(m.value)),
                    ("samples", Json::UInt(m.samples as u64)),
                ])
            })
            .collect();
        let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        let mut members = vec![
            ("workload".to_owned(), Json::Str(workload.name().to_owned())),
            ("seed".to_owned(), Json::UInt(seed)),
            ("trace".to_owned(), Json::Bool(traced)),
            ("attempted".to_owned(), Json::UInt(self.attempted)),
            ("failed".to_owned(), Json::UInt(self.failed)),
            ("errors".to_owned(), strings(&self.errors)),
            ("notes".to_owned(), strings(&self.notes)),
            ("metrics".to_owned(), Json::Arr(metrics)),
        ];
        if let Some(path) = trace_file {
            members.push((
                "trace_file".to_owned(),
                Json::Str(path.display().to_string()),
            ));
        }
        Json::Obj(members)
    }

    /// The result line: the metrics named in `names`. Only a run with
    /// failures may lack one (every sample it needed failed).
    fn result(&self, names: &[(&str, &str)]) -> Result<Json, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in names {
            match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => metrics.push((
                    name.to_owned(),
                    Json::obj([
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(unit.to_owned())),
                    ]),
                )),
                None if self.failed > 0 => {}
                None => return Err(format!("metric {name} was not measured")),
            }
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

/// SplitMix64: the harness's own deterministic stream for schedules and
/// derived seeds.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parsed command-line options; every subcommand takes a subset.
struct Options {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: None,
        seconds: 20.0,
        trace: false,
        out: None,
        files: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => options.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if options.seconds.is_nan() || options.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => options.out = Some(PathBuf::from(value()?)),
            other if !other.starts_with('-') => options.files.push(PathBuf::from(other)),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(options)
}

/// The repository root: the current directory, which must hold this
/// benchmark and the workspace it measures.
fn root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    for needed in ["Cargo.toml", "benchmark/Cargo.toml", "benchmark/circuits"] {
        if !root.join(needed).exists() {
            return Err(format!(
                "{} has no {needed}; run from the repository root",
                root.display()
            ));
        }
    }
    Ok(root)
}

fn out_dir(root: &Path) -> Result<PathBuf, String> {
    let dir = root.join("benchmark").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Measures one workload and prints its report and result lines.
fn measure_one(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<bool, String> {
    let root = root()?;
    let out = out_dir(&root)?;
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    let tmp = scratch.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    // Every child (cargo, `udsim`, the `cc` it runs) inherits this, so
    // their temporary files stay inside the checkout too.
    std::env::set_var("TMPDIR", &tmp);
    let mut ctx = Ctx {
        root,
        udsim: PathBuf::new(),
        scratch,
    };
    ctx.udsim = proc::build_udsim(&ctx.root)?;
    let (mut outcome, trace_file) = if traced {
        let mut spans = ledger::Spans::new();
        let outcome = ledger::trace(&ctx, workload, seed, seconds, &mut spans)?;
        let path = out.join(format!("trace-{}-{seed}.json", workload.name()));
        let pid = Workload::ALL
            .iter()
            .position(|&w| w == workload)
            .unwrap_or(0) as u64
            + 1;
        ledger::write_trace(&path, spans.events(pid, workload.name()))?;
        (outcome, Some(path))
    } else if workload == Workload::ServeMix {
        (serve_mix::measure(&ctx, seed, seconds)?, None)
    } else {
        (stream::measure(&ctx, workload, seed, seconds), None)
    };
    drop(ctx);
    // The harness's own high-water mark bounds the floor a child's
    // ru_maxrss inherits at exec (see proc::Exit).
    let own = proc::read_status_kib("self", "VmHWM").map_err(|e| e.to_string())?;
    outcome
        .notes
        .push(format!("harness VmHWM = {:.1} MiB", own as f64 / 1024.0));

    eprintln!(
        "{} (seed {seed}{}):",
        workload.name(),
        if traced { ", traced" } else { "" }
    );
    for m in &outcome.metrics {
        eprintln!(
            "  {:<34} {:>16.4} {:<9} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for error in &outcome.errors {
        eprintln!("  FAILED: {error}");
    }
    let names: Vec<(&str, &str)> = if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|s| (s.name, s.unit)).collect()
    };
    let result = outcome.result(&names)?;
    let report = Json::obj([(
        "report",
        outcome.report(workload, seed, traced, trace_file.as_deref()),
    )]);
    println!("{}", report.render());
    println!("{}", result.render());
    Ok(outcome.failed == 0)
}

/// Runs this binary on one workload and returns its report.
fn child_report(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .find_map(|doc| doc.get("report").cloned())
        .ok_or_else(|| format!("{} printed no report ({})", workload.name(), output.status))
}

fn metric_value(report: &Json, name: &str) -> Option<f64> {
    report
        .get("metrics")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
        .get("value")?
        .as_f64()
}

/// Rounds of a `run` set: enough for a median and quartiles per
/// workload, few enough that a set takes minutes.
const ROUNDS: u64 = 5;

/// `run`: every workload, [`ROUNDS`] times round-robin (round `r` uses
/// seed `seed + r`), into one set file.
fn run_set(options: &Options) -> Result<bool, String> {
    let seed = options.seed.ok_or("run needs --seed")?;
    let root = root()?;
    let path = match &options.out {
        Some(path) => path.clone(),
        None => out_dir(&root)?.join(format!("set-{seed}.json")),
    };
    let score_before = uds_core::calibrate().score;
    let mut reports: Vec<Vec<Json>> = vec![Vec::new(); Workload::ALL.len()];
    for round in 0..ROUNDS {
        for (w, workload) in Workload::ALL.iter().enumerate() {
            reports[w].push(child_report(
                *workload,
                seed + round,
                options.seconds,
                false,
            )?);
        }
    }
    let score_after = uds_core::calibrate().score;
    let mut clean = true;
    let workloads = Workload::ALL
        .iter()
        .zip(&reports)
        .map(|(workload, reports)| {
            let sum = |key: &str| {
                reports
                    .iter()
                    .filter_map(|r| r.get(key)?.as_u64())
                    .sum::<u64>()
            };
            clean &= sum("failed") == 0;
            let metrics = END_TO_END
                .iter()
                .chain(&metrics::REPORTED)
                .filter_map(|spec| {
                    let values: Vec<f64> = reports
                        .iter()
                        .filter_map(|r| metric_value(r, spec.name))
                        .collect();
                    (values.len() == reports.len()).then(|| {
                        Json::obj([
                            ("name", Json::Str(spec.name.to_owned())),
                            ("unit", Json::Str(spec.unit.to_owned())),
                            (
                                "values",
                                Json::Arr(values.into_iter().map(Json::Float).collect()),
                            ),
                        ])
                    })
                })
                .collect();
            Json::obj([
                ("name", Json::Str(workload.name().to_owned())),
                ("attempted", Json::UInt(sum("attempted"))),
                ("failed", Json::UInt(sum("failed"))),
                ("metrics", Json::Arr(metrics)),
            ])
        })
        .collect();
    let set = Json::obj([
        ("schema", Json::Str(compare::SET_SCHEMA.to_owned())),
        ("seed", Json::UInt(seed)),
        ("rounds", Json::UInt(ROUNDS)),
        ("seconds", Json::Float(options.seconds)),
        (
            "host",
            Json::obj([
                (
                    "nproc",
                    Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
                ),
                ("calibration_score_before", Json::Float(score_before)),
                ("calibration_score_after", Json::Float(score_after)),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
    ]);
    std::fs::write(&path, set.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    print_set(&set);
    Ok(clean)
}

fn print_set(set: &Json) {
    for w in set.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = w.get("name").and_then(Json::as_str).unwrap_or_default();
        let failed = w.get("failed").and_then(Json::as_u64).unwrap_or(0);
        let attempted = w.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        println!("{name}: error_rate {failed}/{attempted}");
        for m in w.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
            let values: Vec<f64> = m
                .get("values")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            println!(
                "  {:<22} median {:>14.4} {:<9} spread {:>6.2}% over {} runs",
                m.get("name").and_then(Json::as_str).unwrap_or_default(),
                metrics::median(&values),
                m.get("unit").and_then(Json::as_str).unwrap_or_default(),
                metrics::relative_spread(&values) * 100.0,
                values.len()
            );
        }
    }
}

/// `trace`: every workload untraced, then traced; prints the tracing
/// overhead and merges the Chrome traces into one file.
fn trace_all(options: &Options) -> Result<bool, String> {
    let seed = options.seed.ok_or("trace needs --seed")?;
    let out = out_dir(&root()?)?;
    let mut events = Vec::new();
    let mut clean = true;
    for workload in Workload::ALL {
        let plain = child_report(workload, seed, options.seconds, false)?;
        let traced = child_report(workload, seed, options.seconds, true)?;
        for r in [&plain, &traced] {
            clean &= r.get("failed").and_then(Json::as_u64) == Some(0);
        }
        let untraced = metric_value(&plain, "vectors_per_s").unwrap_or(f64::NAN);
        let command = metric_value(&traced, "command.vectors_per_s").unwrap_or(f64::NAN);
        println!(
            "{}: traced command {command:.1} vectors/s vs untraced {untraced:.1} (tracing overhead {:+.2}%)",
            workload.name(),
            (untraced / command - 1.0) * 100.0
        );
        for m in traced.get("metrics").and_then(Json::as_arr).unwrap_or(&[]) {
            println!(
                "  {:<34} {:>14.3} {}",
                m.get("name").and_then(Json::as_str).unwrap_or_default(),
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit").and_then(Json::as_str).unwrap_or_default()
            );
        }
        for note in traced.get("notes").and_then(Json::as_arr).unwrap_or(&[]) {
            println!("  {}", note.as_str().unwrap_or_default());
        }
        let file = traced
            .get("trace_file")
            .and_then(Json::as_str)
            .ok_or("traced run wrote no trace")?;
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        events.extend(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .cloned(),
        );
    }
    let path = out.join(format!("trace-{seed}.json"));
    ledger::write_trace(&path, events)?;
    println!("wrote {}", path.display());
    Ok(clean)
}

fn compare_sets(options: &Options) -> Result<bool, String> {
    let [before, after] = options.files.as_slice() else {
        return Err("compare needs BEFORE.json AFTER.json".to_owned());
    };
    let load = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let verdicts = compare::compare(&load(before)?, &load(after)?)?;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  class",
        "workload", "metric", "before", "after", "worse", "spreadA", "spreadB", "bound"
    );
    for v in &verdicts {
        println!(
            "{:<14} {:<20} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
            v.workload,
            v.metric,
            v.before,
            v.after,
            v.worse_by * 100.0,
            v.spread_before * 100.0,
            v.spread_after * 100.0,
            v.bound * 100.0,
            v.class.name()
        );
    }
    Ok(verdicts
        .iter()
        .all(|v| v.class != compare::Class::Regressed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (c, &args[1..]),
        _ => ("measure", &args[..]),
    };
    let result = parse_options(rest).and_then(|options| match command {
        "run" => run_set(&options),
        "trace" => trace_all(&options),
        "compare" => compare_sets(&options),
        _ => {
            let workload = options.workload.ok_or("missing --workload")?;
            let seed = options.seed.ok_or("missing --seed")?;
            measure_one(workload, seed, options.seconds, options.trace)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("uds-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
