//! `udsim` — command-line front end for the compiled unit-delay
//! simulators.
//!
//! ```text
//! udsim simulate FILE.bench [--engine NAME] [--vectors N] [--seed S] [--vcd OUT.vcd]
//!                           [--jobs N] [--word 32|64] [--fallback] [--budget SPEC]
//!                           [--crosscheck] [--stats OUT.json] [--trace OUT.json]
//!                           [--progress OUT.ndjson] [--progress-interval MS]
//! udsim profile  FILE.bench [--engine NAME] [--vectors N] [--seed S] [--jobs N]
//!                           [--word 32|64] [--top K] [--json OUT.json] [--trace OUT.json]
//!                           [--progress OUT.ndjson] [--progress-interval MS]
//! udsim hotspots FILE.bench [--engine NAME] [--vectors N] [--seed S] [--jobs N]
//!                           [--word 32|64] [--json OUT.json] [--folded OUT.folded]
//! udsim stats    FILE.bench
//! udsim codegen  FILE.bench [--technique pc-set|parallel] [--opt none|trim|pt|pt-trim|cb|cb-trim]
//!                           [--stats OUT.json]
//! udsim cone     FILE.bench OUTPUT_NET [...]   # fan-in cone as .bench on stdout
//! udsim serve    [--addr HOST:PORT] [--cache N] [--allow-quit] [--reqlog OUT.ndjson]
//!                [--stats OUT.json] [--trace OUT.json] [--budget SPEC] [--word 32|64]
//!                [--jobs N] [--workers N] [--queue N] [--read-timeout-ms MS]
//!                [--idle-timeout-ms MS] [--keep-alive-max N] [--request-timeout-ms MS]
//!                [--rate-limit R] [--max-jobs N] [--job-ttl-s S] [--hotspots]
//! udsim loadgen  [--addr HOST:PORT] [--bench FILE.bench] [--vectors N] [--seed S] [--jobs N]
//!                [--path P] [--concurrency N] [--rate R] [--duration-ms MS] [--json OUT.json]
//! udsim engines
//! ```
//!
//! `FILE.bench` is an ISCAS-85/89 `.bench` netlist (`-` reads stdin).
//! Sequential netlists are cut at their flip-flops automatically for
//! `stats`; `simulate` and `codegen` require combinational input.
//!
//! `--budget SPEC` caps compiler resources: a comma-separated list of
//! `depth=N`, `gates=N`, `inputs=N`, `field-words=N`, `memory=N[K|M|G]`,
//! `deadline-ms=N`, or the single word `production` for the stock
//! untrusted-input budget. `--fallback` degrades down the engine chain
//! (`parallel+pt+trim → parallel → pc-set → event-driven`) instead of
//! failing. `--crosscheck`, with any engine, chain or `--jobs`, steps
//! the event-driven baseline beside the run and checks every row before
//! it is printed: a row that differs exits 7, and a run that agrees
//! ends with one `cross-check:` line on stderr. It checks the primary
//! outputs the CLI prints; internal nets and histories are the test
//! suites' to check.
//!
//! `--vcd OUT.vcd` writes the outputs' unit-delay waveforms as VCD while
//! the run streams, in bounded memory; it needs a run without `--jobs`.
//! `--vcd -` writes the VCD to stdout and moves the rows to stderr.
//! `--jobs N` shards the vector stream across N worker threads, each
//! owning its own engine; a zero-delay prepass seeds every shard so the
//! printed rows are byte-identical to a sequential run for any N. The
//! parallel engines pack their bit-fields into 64-bit words by default;
//! `--word 32` runs the paper's 32-bit machine model instead. Rows are
//! the same at either width.
//!
//! `--stats OUT.json` writes the telemetry report (span tree, runtime
//! counters, and the paper's static compile metrics; schema
//! `uds-telemetry-v1`, DESIGN.md §11) to `OUT.json`. `--stats -`
//! writes the JSON to stdout and moves the human-readable output to
//! stderr, so `udsim simulate c.bench --stats - | jq .` works.
//!
//! `udsim serve` runs the simulation daemon (DESIGN.md §14–15):
//! circuits POSTed to `/simulate` compile once into an LRU cache of
//! engine prototypes and every later request forks the cached
//! artifact; live telemetry scrapes at `GET /metrics` in the
//! Prometheus text format; `/healthz` and `/readyz` answer liveness
//! and readiness probes. Connections are HTTP/1.1 keep-alive, served
//! by a bounded pool of `--workers` threads behind a `--queue`-deep
//! admission queue: a full queue sheds with `429` + `Retry-After`,
//! `--rate-limit` token-buckets work-bearing requests per peer IP,
//! and `--request-timeout-ms` cancels an overlong simulation
//! cooperatively, answering `504` with the partial-work count. `POST
//! /jobs` submits the same body asynchronously (`GET /jobs/:id` for
//! progress, `/jobs/:id/result` for paged rows, `DELETE` to cancel),
//! bounded by `--max-jobs` and `--job-ttl-s`. The daemon drains
//! gracefully on SIGTERM/SIGINT (or `POST /quitquitquit` with
//! `--allow-quit`), then writes the final `--stats` snapshot.
//! `--reqlog` streams one `uds-reqlog-v1` NDJSON line per request,
//! carrying a `trace_id` (the sanitized `x-uds-trace-id` request
//! header, else generated — always echoed on the response) and a
//! `phase_ms` breakdown holding only the phases that actually ran;
//! `serve --trace` streams each finished request's span tree live as
//! Chrome `trace_event` JSON. `--hotspots` turns on per-level
//! sampling of `/simulate` requests: `GET /debug/hotspots?window_s=S`
//! aggregates a bounded ring of recent per-request level profiles and
//! `/metrics` grows `uds_hotspot_level_self_ns{engine,level}` gauges
//! for the hottest levels, so a hot daemon can be profiled under live
//! traffic without a restart.
//!
//! `udsim loadgen` applies closed- or open-loop load to a running
//! daemon and reports per-status counts and latency percentiles as
//! `uds-loadgen-v1` JSON (`--json`) — the tool that turns overload
//! behavior into a CI assertion.
//!
//! ## Exit codes
//!
//! Failures exit with the [`FailureClass`] code so scripts can route on
//! them: 2 usage, 3 parse/read, 4 structural (cycle, uncut flip-flop),
//! 5 budget exceeded, 6 contained engine panic, 7 cross-check mismatch,
//! 8 native toolchain unavailable or failed.
//! 0 is success; 1 is an internal error (a bug in udsim itself — e.g.
//! an uncontained panic unwinding out of `main`), never produced by
//! bad input.
//!
//! `--engine native` compiles the emitted C with the system C compiler
//! (`cc`, or `$UDS_CC`) at runtime and loads it with `dlopen`; it
//! always runs at the head of the guarded degradation chain, so a
//! missing compiler falls back to the interpreted engines (exit 0,
//! fallback counted in `--stats`) rather than failing the run.

// SimError is large but cold; see guard.rs.
#![allow(clippy::result_large_err)]

use std::io::{self, BufWriter, Read as _, Write as _};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unit_delay_sim::core::crosscheck::RowCheck;
use unit_delay_sim::core::guard::EngineFactory;
use unit_delay_sim::core::telemetry::json::Json;
use unit_delay_sim::core::vcd::VcdRecorder;
use unit_delay_sim::core::vectors::RandomVectors;
use unit_delay_sim::core::{
    chain_for, discard, install_signal_handlers, is_closed_pipe, measure_perf, open_sink,
    record_build_info, record_perf_class, render_chrome_trace, run_loadgen, run_stream, write_text,
    ActivityProfiler, BatchProbe, DefaultEngineFactory, Engine, FailureClass, GuardedSimulator,
    HumanOut, LoadgenConfig, NdjsonProgress, RunControl, ServeConfig, SimError, SimServer,
    StreamContract, Telemetry, WordWidth, MAX_JOBS,
};
use unit_delay_sim::netlist::stats::CircuitStats;
use unit_delay_sim::netlist::{levelize, Probe, ResourceLimits};
use unit_delay_sim::parallel::{self, Optimization, ParallelSimulator, ParallelSimulator64};
use unit_delay_sim::pcset::{self, PcSetSimulator};
use unit_delay_sim::prelude::{bench_format, Netlist};

/// A CLI failure: the message for stderr plus the process exit code.
struct CliError {
    message: String,
    code: u8,
}

impl CliError {
    /// The reader of the human stream went away (`udsim simulate … |
    /// head`): the run ends quietly with exit 0, as `cat` would.
    fn closed_pipe() -> Self {
        CliError {
            message: String::new(),
            code: 0,
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: FailureClass::Usage.exit_code() as u8,
        }
    }

    fn class(message: impl Into<String>, class: FailureClass) -> Self {
        CliError {
            message: message.into(),
            code: class.exit_code() as u8,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::usage(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::usage(message)
    }
}

impl From<SimError> for CliError {
    fn from(err: SimError) -> Self {
        CliError::class(err.to_string(), err.class())
    }
}

/// Why a streamed run stopped early: the simulation failed, or writing
/// or checking its rows did.
enum Stop {
    Sim(SimError),
    Cli(CliError),
}

impl From<SimError> for Stop {
    fn from(err: SimError) -> Self {
        Stop::Sim(err)
    }
}

impl From<CliError> for Stop {
    fn from(err: CliError) -> Self {
        Stop::Cli(err)
    }
}

/// A simulation failure on `nl`, named after the circuit.
fn on_circuit(nl: &Netlist) -> impl Fn(SimError) -> CliError + '_ {
    |err| CliError::from(err.with_circuit(nl.name()))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) if err.code == 0 => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("udsim: {}", err.message);
            ExitCode::from(err.code)
        }
    }
}

fn run() -> Result<(), CliError> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let rest: Vec<String> = args.collect();
    let subcommand: fn(&[String]) -> Result<(), CliError> = match command.as_str() {
        "simulate" => simulate,
        "profile" => profile,
        "hotspots" => hotspots,
        "stats" => stats,
        "codegen" => codegen,
        "cone" => cone,
        "serve" => serve,
        "loadgen" => loadgen,
        "engines" => engines,
        "--help" | "-h" | "help" => return print_usage(),
        other => {
            return Err(CliError::usage(format!(
                "unknown command `{other}`\n{}",
                usage()
            )))
        }
    };
    // `--help` after a known subcommand asks for the usage too.
    if rest
        .iter()
        .any(|arg| matches!(arg.as_str(), "--help" | "-h"))
    {
        return print_usage();
    }
    subcommand(&rest)
}

fn print_usage() -> Result<(), CliError> {
    let mut out = Out::stdout();
    out.line(usage())?;
    out.flush()
}

/// `udsim engines`: every valid `--engine` name.
fn engines(_: &[String]) -> Result<(), CliError> {
    // `native` is not in `Engine::ALL` (it is a compilation strategy
    // over the parallel technique, not an interpreted engine), but it
    // is a valid `--engine` name, so list it.
    let mut out = Out::stdout();
    out.line(Engine::Native)?;
    for engine in Engine::ALL {
        out.line(engine)?;
    }
    out.flush()
}

fn usage() -> String {
    "usage:\n  udsim simulate FILE.bench [--engine NAME] [--vectors N] [--seed S] [--vcd OUT.vcd]\n                  \
     [--jobs N] [--word 32|64] [--fallback] [--budget SPEC] [--crosscheck] [--stats OUT.json]\n                  \
     [--trace OUT.json] [--progress OUT.ndjson] [--progress-interval MS]\n  \
     udsim profile FILE.bench [--engine NAME] [--vectors N] [--seed S] [--jobs N] [--word 32|64]\n                 \
     [--top K] [--json OUT.json] [--trace OUT.json] [--progress OUT.ndjson]\n                 \
     [--progress-interval MS]\n  \
     udsim hotspots FILE.bench [--engine NAME] [--vectors N] [--seed S] [--jobs N] [--word 32|64]\n                  \
     [--json OUT.json] [--folded OUT.folded]\n  \
     udsim stats FILE.bench\n  \
     udsim codegen FILE.bench [--technique pc-set|parallel] [--opt none|trim|pt|pt-trim|cb|cb-trim]\n                 \
     [--stats OUT.json]\n  \
     udsim cone FILE.bench OUTPUT_NET [...]\n  \
     udsim serve [--addr HOST:PORT] [--cache N] [--allow-quit] [--reqlog OUT.ndjson]\n              \
     [--stats OUT.json] [--trace OUT.json] [--budget SPEC] [--word 32|64] [--jobs N]\n              \
     [--workers N] [--queue N] [--read-timeout-ms MS] [--idle-timeout-ms MS]\n              \
     [--keep-alive-max N] [--request-timeout-ms MS] [--rate-limit R] [--max-jobs N]\n              \
     [--job-ttl-s S] [--hotspots]\n  \
     udsim loadgen [--addr HOST:PORT] [--bench FILE.bench] [--vectors N] [--seed S] [--jobs N]\n                \
     [--path P] [--concurrency N] [--rate R] [--duration-ms MS] [--json OUT.json]\n  \
     udsim engines\n\n\
     SPEC: production | depth=N,gates=N,inputs=N,field-words=N,memory=N[K|M|G],deadline-ms=N\n\
     (field-words counts arena words of the run's --word width).\n\
     --word packs the parallel engines' bit-fields into 64-bit words (the default) or 32-bit\n\
     words, the paper's machine model; rows are the same at either width.\n\
     stream flags (--stats, --trace, --progress, --json, --reqlog) accept `-` for stdout; at\n\
     most one per invocation may claim it, and human output then moves to stderr.\n\
     --trace exports the telemetry span tree as Chrome trace_event JSON (load in Perfetto);\n\
     hotspots attributes simulate self-time to netlist levels (level 0 = per-vector setup):\n\
     --json writes the uds-hotspot-v1 report, --folded writes collapsed-stack lines\n\
     (`engine;level_K NANOS`) for flamegraph tools; both accept `-` under the shared contract.\n\
     --progress streams per-shard NDJSON heartbeats (one shard without --jobs), at least\n\
     --progress-interval ms apart (default 100).\n\
     serve answers POST /simulate, POST /jobs (+ GET/DELETE /jobs/:id), GET /metrics\n\
     (Prometheus), GET /healthz, GET /readyz; --cache N keeps N compiled prototypes resident\n\
     (default 64, 0 disables); --workers sizes the pool (0 = cores); a full --queue sheds 429;\n\
     serve --trace streams each finished request's span tree live (trace ids honor the\n\
     x-uds-trace-id request header and are echoed on every response); serve --hotspots\n\
     samples per-request level profiles into GET /debug/hotspots?window_s=S and tops up\n\
     /metrics with uds_hotspot_level_self_ns gauges.\n\
     loadgen is closed-loop unless --rate sets open-loop arrivals; --bench makes the fleet\n\
     POST real work, otherwise it GETs --path (default /healthz).\n\n\
     --vcd writes the outputs' unit-delay waveforms as VCD while the run streams, in bounded\n\
     memory; it needs the sequential run (no --jobs). --vcd - writes it to stdout.\n\
     --crosscheck checks every printed row against the event-driven baseline (any engine,\n\
     chain or --jobs); a row that differs exits 7.\n\
     --engine native compiles the emitted C (cc, or $UDS_CC) and dlopens it; without a C\n\
     compiler the run degrades to the interpreted chain (exit 0, fallback in --stats).\n\n\
     exit codes: 0 ok, 2 usage, 3 parse, 4 structural, 5 budget, 6 engine panic,\n\
     7 cross-check mismatch, 8 native toolchain; 1 is an internal error (a udsim bug),\n\
     never bad input"
        .to_owned()
}

fn load(path: &str) -> Result<Netlist, CliError> {
    let read_failed =
        |e: std::io::Error| CliError::class(format!("reading {path}: {e}"), FailureClass::Parse);
    let text = if path == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(read_failed)?;
        buffer
    } else {
        std::fs::read_to_string(path).map_err(read_failed)?
    };
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    bench_format::parse(&text, name)
        .map_err(|e| CliError::class(format!("{path}: {e}"), FailureClass::Parse))
}

fn parse_engine(name: &str) -> Result<Engine, CliError> {
    Engine::parse(name).ok_or_else(|| {
        let mut names: Vec<String> = Engine::ALL.iter().map(|e| e.to_string()).collect();
        names.push(Engine::Native.to_string());
        CliError::usage(format!(
            "unknown engine `{name}` (expected one of: {})",
            names.join(", ")
        ))
    })
}

/// Parses a `--budget` spec (see [`usage`]) into [`ResourceLimits`].
fn parse_budget(spec: &str) -> Result<ResourceLimits, CliError> {
    if spec == "production" {
        return Ok(ResourceLimits::production());
    }
    let mut limits = ResourceLimits::unlimited();
    for item in spec.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let (key, value) = item
            .split_once('=')
            .ok_or_else(|| CliError::usage(format!("--budget: `{item}` is not `key=value`")))?;
        let parse_u64 = |v: &str| -> Result<u64, CliError> {
            v.parse()
                .map_err(|e| CliError::usage(format!("--budget {key}: {e}")))
        };
        match key {
            "depth" => {
                limits.max_depth = Some(parse_u64(value)?.try_into().map_err(|_| {
                    CliError::usage(format!("--budget depth: `{value}` exceeds u32"))
                })?)
            }
            "gates" => limits.max_gates = Some(parse_u64(value)?),
            "inputs" => limits.max_inputs = Some(parse_u64(value)?),
            "field-words" => {
                limits.max_field_words = Some(parse_u64(value)?.try_into().map_err(|_| {
                    CliError::usage(format!("--budget field-words: `{value}` exceeds u32"))
                })?)
            }
            "memory" => limits.max_memory_bytes = Some(parse_memory(value)?),
            "deadline-ms" => {
                limits.deadline = Some(Instant::now() + Duration::from_millis(parse_u64(value)?))
            }
            other => {
                return Err(CliError::usage(format!(
                    "--budget: unknown key `{other}` (expected depth, gates, inputs, field-words, memory, deadline-ms)"
                )))
            }
        }
    }
    Ok(limits)
}

/// Parses a byte count with an optional K/M/G (binary) suffix.
fn parse_memory(value: &str) -> Result<u64, CliError> {
    let (digits, shift) = match value.as_bytes().last() {
        Some(b'K' | b'k') => (&value[..value.len() - 1], 10),
        Some(b'M' | b'm') => (&value[..value.len() - 1], 20),
        Some(b'G' | b'g') => (&value[..value.len() - 1], 30),
        _ => (value, 0),
    };
    let base: u64 = digits
        .parse()
        .map_err(|e| CliError::usage(format!("--budget memory: {e}")))?;
    base.checked_shl(shift)
        .filter(|_| base.leading_zeros() >= shift)
        .ok_or_else(|| CliError::usage(format!("--budget memory: `{value}` overflows u64")))
}

fn simulate(args: &[String]) -> Result<(), CliError> {
    let mut vcd_path: Option<String> = None;
    let mut stats_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut progress = ProgressFlags::default();
    let mut fallback = false;
    let mut crosscheck = false;
    let mut limits = ResourceLimits::unlimited();
    let run = RunOptions::parse(args, 16, |flag, rest| {
        match flag {
            "--vcd" => vcd_path = Some(stream_path(flag, rest)?),
            "--stats" => stats_path = Some(stream_path(flag, rest)?),
            "--trace" => trace_path = Some(stream_path(flag, rest)?),
            "--fallback" => fallback = true,
            "--crosscheck" => crosscheck = true,
            "--budget" => limits = parse_budget(rest.next().ok_or("--budget needs a spec")?)?,
            _ => return progress.parse(flag, rest),
        }
        Ok(true)
    })?;
    progress.check()?;
    // The stream flags share stdout under one contract: at most one `-`,
    // and any `-` moves the human output to stderr.
    let human = stream_contract(&[
        ("--vcd", vcd_path.as_deref()),
        ("--stats", stats_path.as_deref()),
        ("--trace", trace_path.as_deref()),
        ("--progress", progress.path.as_deref()),
    ])?;
    let telemetry = (stats_path.is_some() || trace_path.is_some()).then(Telemetry::new);
    let nl = run.load("simulate", telemetry.as_ref())?;

    if run.jobs.is_some() && vcd_path.is_some() {
        return Err(CliError::usage(
            "--vcd needs the sequential waveform and cannot be combined with --jobs",
        ));
    }
    let progress = progress.sink()?;
    let factory = Box::new(DefaultEngineFactory::with_word(run.word));
    let chain = chain_for(run.engine, fallback);
    let guard = build_guard(&nl, limits, &chain, factory, telemetry.as_ref())?;
    if let Some(t) = &telemetry {
        t.label("engine", guard.active_engine().to_string());
        if let Some(jobs) = run.jobs {
            t.label("jobs", jobs.to_string());
        }
    }
    let seen_fallbacks = report_new_fallbacks(&guard, 0);
    // `--crosscheck` checks every printed row, in order, against the
    // event-driven baseline.
    let mut check = crosscheck
        .then(|| RowCheck::new(&nl, guard.active_simulator().engine_name()))
        .transpose()
        .map_err(|e| on_circuit(&nl)(e.into()))?;
    // The VCD file is opened before the first row and written as it streams.
    let mut recorder = match &vcd_path {
        Some(path) => {
            let sink = BufWriter::new(open_sink(path).map_err(open_error(path))?);
            Some(VcdRecorder::new(&nl, nl.primary_outputs().to_vec(), sink))
        }
        None => None,
    };
    let mut out = Out::new(&human);
    out.header(&nl, guard.active_engine())?;
    let jobs = run.jobs.unwrap_or(1);
    let control = RunControl {
        jobs,
        telemetry: telemetry.as_ref(),
        progress: progress.as_ref().map(|p| p as &dyn BatchProbe),
        cancel: None,
    };
    let mut shards = {
        let _span = telemetry.as_ref().map(|t| t.span("simulate"));
        run_stream(
            &nl,
            guard,
            run.stimulus(&nl),
            run.vectors,
            control,
            || recorder.take(),
            |index, inputs, row| -> Result<(), Stop> {
                if let Some(check) = &mut check {
                    check.row(inputs, row).map_err(SimError::from)?;
                }
                out.row(index, inputs, row)?;
                Ok(())
            },
        )
        .map_err(|stop| match stop {
            Stop::Sim(err) => on_circuit(&nl)(err),
            Stop::Cli(err) => err,
        })?
    };
    out.flush()?;
    if let Some(t) = &telemetry {
        t.add("run.vectors", run.vectors as u64);
        // A shard may have degraded mid-run; record who survived.
        let survivor = &shards[shards.len() - 1].report;
        t.label("engine", survivor.engine.to_string());
        for shard in &shards {
            for (name, value) in shard.guard.run_counters() {
                t.add(name, value);
            }
        }
    }
    let agreed = |engine: Engine| {
        if let Some(check) = &check {
            eprintln!(
                "cross-check: {engine} agrees with the event-driven baseline over {} vectors",
                check.vectors()
            );
        }
    };
    if run.jobs.is_some() {
        for shard in shards.iter().map(|shard| &shard.report) {
            eprintln!(
                "shard {}: {} vectors on {} ({} fallback{}, {:.1} ms)",
                shard.index,
                shard.vectors,
                shard.engine,
                shard.fallbacks,
                if shard.fallbacks == 1 { "" } else { "s" },
                shard.wall_ns as f64 / 1e6
            );
        }
        agreed(shards[shards.len() - 1].report.engine);
    } else {
        // One inline shard, run by the guard built above.
        let shard = shards.remove(0);
        let guarded = shard.guard;
        report_new_fallbacks(&guarded, seen_fallbacks);
        agreed(guarded.active_engine());
        let fired = guarded.fallbacks().len();
        eprintln!(
            "engine: {} ({fired} fallback{} fired)",
            guarded.active_engine(),
            if fired == 1 { "" } else { "s" }
        );
        if let (Some(path), Some(recorder)) = (&vcd_path, shard.step) {
            recorder.finish().map_err(write_error(path))?;
            if path != "-" {
                eprintln!("wrote {path}");
            }
        }
    }

    if let Some(telemetry) = &telemetry {
        if let Some(path) = &stats_path {
            collect_static_metrics(&nl, &limits, run.word, telemetry);
            write_stats(path, telemetry)?;
        }
        if let Some(path) = &trace_path {
            write_trace(path, telemetry)?;
        }
    }
    Ok(())
}

/// Applies the shared stdout contract to this invocation's stream
/// flags and returns the routed human-output sink.
fn stream_contract(flags: &[(&str, Option<&str>)]) -> Result<HumanOut, CliError> {
    let mut contract = StreamContract::new();
    for &(flag, dest) in flags {
        if let Some(dest) = dest {
            contract.claim(flag, dest).map_err(CliError::usage)?;
        }
    }
    Ok(contract.human())
}

/// The value iterator every subcommand's flag loop walks.
type Args<'a> = std::slice::Iter<'a, String>;

/// The run flags `simulate`, `profile` and `hotspots` share: FILE,
/// `--engine`, `--vectors`, `--seed`, `--jobs` and `--word`.
struct RunOptions {
    file: String,
    engine: Option<Engine>,
    vectors: usize,
    seed: u64,
    jobs: Option<usize>,
    word: WordWidth,
}

impl RunOptions {
    /// Parses `args`, running `vectors` vectors unless `--vectors` says
    /// otherwise. Every other flag goes to `extra(flag, rest)`, which
    /// takes its value from `rest` and answers `Ok(false)` for a flag
    /// the subcommand does not know.
    fn parse(
        args: &[String],
        vectors: usize,
        mut extra: impl FnMut(&str, &mut Args<'_>) -> Result<bool, CliError>,
    ) -> Result<Self, CliError> {
        let mut file = None;
        let mut run = RunOptions {
            file: String::new(),
            engine: None,
            vectors,
            seed: 1990,
            jobs: None,
            word: WordWidth::default(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            match arg.as_str() {
                "--engine" => {
                    run.engine = Some(parse_engine(rest.next().ok_or("--engine needs a value")?)?)
                }
                "--vectors" => run.vectors = number_value("--vectors", &mut rest)?,
                "--seed" => run.seed = number_value("--seed", &mut rest)?,
                "--jobs" => run.jobs = Some(jobs_value(&mut rest)?),
                "--word" => run.word = word_value(&mut rest)?,
                other if file.is_none() && (other == "-" || !other.starts_with('-')) => {
                    file = Some(other.to_owned());
                }
                other => {
                    if !extra(other, &mut rest)? {
                        return Err(CliError::usage(format!("unexpected argument `{other}`")));
                    }
                }
            }
        }
        run.file = file.ok_or("missing FILE.bench")?;
        Ok(run)
    }

    /// The engine to run when no chain is asked for.
    fn engine(&self) -> Engine {
        self.engine.unwrap_or(GuardedSimulator::DEFAULT_CHAIN[0])
    }

    /// Loads FILE (under a `parse` span) and labels the trace with the
    /// run's identity.
    fn load(&self, command: &str, telemetry: Option<&Telemetry>) -> Result<Arc<Netlist>, CliError> {
        let nl = {
            let _span = telemetry.map(|t| t.span("parse"));
            load(&self.file)?
        };
        if let Some(t) = telemetry {
            t.label("command", command);
            t.label("circuit", nl.name());
            t.label("seed", self.seed.to_string());
            t.label("vectors", self.vectors.to_string());
            record_build_info(t, self.word.bits());
        }
        Ok(Arc::new(nl))
    }

    /// The seeded random stimulus over `nl`'s primary inputs.
    fn stimulus(&self, nl: &Netlist) -> impl Iterator<Item = Vec<bool>> {
        RandomVectors::new(nl.primary_inputs().len(), self.seed).take(self.vectors)
    }
}

/// Builds the guarded engine chain over `nl` (under a `compile` span).
/// The guard shares `nl` rather than copying it.
fn build_guard(
    nl: &Arc<Netlist>,
    limits: ResourceLimits,
    chain: &[Engine],
    factory: Box<dyn EngineFactory>,
    telemetry: Option<&Telemetry>,
) -> Result<GuardedSimulator, CliError> {
    let _span = telemetry.map(|t| t.span("compile"));
    let probe: &dyn Probe = match telemetry {
        Some(t) => t,
        None => &unit_delay_sim::netlist::NoopProbe,
    };
    GuardedSimulator::with_probe(
        Arc::clone(nl),
        limits,
        chain,
        factory,
        probe,
        telemetry.cloned(),
    )
    .map_err(on_circuit(nl))
}

/// Parses the value of a numeric flag.
fn number_value<T: std::str::FromStr>(flag: &str, rest: &mut Args<'_>) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    let value = rest
        .next()
        .ok_or_else(|| CliError::usage(format!("{flag} needs a value")))?;
    value
        .parse()
        .map_err(|e| CliError::usage(format!("{flag}: {e}")))
}

/// Parses a per-second rate. Any `u64` is accepted; a rate beyond
/// `u32::MAX` is as good as unlimited and saturates there.
fn rate_value(flag: &str, rest: &mut Args<'_>) -> Result<u32, CliError> {
    let rate: u64 = number_value(flag, rest)?;
    Ok(u32::try_from(rate).unwrap_or(u32::MAX))
}

/// Parses the value of `--jobs`: a worker count from 1 to [`MAX_JOBS`].
fn jobs_value(rest: &mut Args<'_>) -> Result<usize, CliError> {
    let value = rest.next().ok_or("--jobs needs a worker count")?;
    match value.parse() {
        Ok(0) => Err(CliError::usage("--jobs: worker count must be at least 1")),
        Ok(jobs) if jobs > MAX_JOBS => Err(CliError::usage(format!(
            "--jobs: worker count is capped at {MAX_JOBS}"
        ))),
        Ok(jobs) => Ok(jobs),
        Err(e) => Err(CliError::usage(format!("--jobs: {e}"))),
    }
}

/// Parses the value of `--word`: 32 or 64.
fn word_value(rest: &mut Args<'_>) -> Result<WordWidth, CliError> {
    let value = rest.next().ok_or("--word needs a width (32 or 64)")?;
    WordWidth::parse(value)
        .ok_or_else(|| CliError::usage(format!("--word: `{value}` is not 32 or 64")))
}

/// Takes the destination of a stream flag (a path, or `-` for stdout).
fn stream_path(flag: &str, rest: &mut Args<'_>) -> Result<String, CliError> {
    rest.next()
        .cloned()
        .ok_or_else(|| CliError::usage(format!("{flag} needs a path (or `-`)")))
}

/// `--progress` and `--progress-interval`: the per-shard heartbeat
/// stream of `simulate` and `profile`, with or without `--jobs`.
#[derive(Default)]
struct ProgressFlags {
    path: Option<String>,
    interval: Option<Duration>,
}

impl ProgressFlags {
    /// Takes `flag` and its value if it is a progress flag.
    fn parse(&mut self, flag: &str, rest: &mut Args<'_>) -> Result<bool, CliError> {
        match flag {
            "--progress" => self.path = Some(stream_path(flag, rest)?),
            // In milliseconds; 0 = every heartbeat.
            "--progress-interval" => {
                self.interval = Some(Duration::from_millis(number_value(flag, rest)?));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Rejects a progress flag that could not take effect.
    fn check(&self) -> Result<(), CliError> {
        if self.interval.is_some() && self.path.is_none() {
            return Err(CliError::usage(
                "--progress-interval paces the --progress stream and requires it",
            ));
        }
        Ok(())
    }

    /// Opens the NDJSON sink, if requested, paced at the interval
    /// (default ~100 ms).
    fn sink(&self) -> Result<Option<NdjsonProgress>, CliError> {
        self.path
            .as_deref()
            .map(|dest| {
                open_sink(dest)
                    .map(|out| match self.interval {
                        Some(interval) => NdjsonProgress::with_interval(out, interval),
                        None => NdjsonProgress::new(out),
                    })
                    .map_err(open_error(dest))
            })
            .transpose()
    }
}

/// Best-effort pass compiling the techniques the run did not already
/// cover, so the report always carries the paper's full static-metric
/// set (PC-set sizes and zero insertions, words trimmed, shifts
/// retained/eliminated per optimization). Each is compiled at the
/// run's word width, so the word-op gauges it rewrites still describe
/// the engine that ran. Engines the budget rejects simply leave their
/// gauges absent.
fn collect_static_metrics(
    nl: &Netlist,
    limits: &ResourceLimits,
    word: WordWidth,
    telemetry: &Telemetry,
) {
    let _span = telemetry.span("static-metrics");
    let factory = DefaultEngineFactory::with_word(word);
    for engine in Engine::ALL {
        if engine != Engine::EventDriven {
            let _ = factory.build(nl, engine, limits, telemetry);
        }
    }
}

/// Renders the telemetry report to `path` (`-` = stdout).
fn write_stats(path: &str, telemetry: &Telemetry) -> Result<(), CliError> {
    write_text(path, &telemetry.snapshot().render_json()).map_err(write_error(path))
}

/// Writes `document` and a newline to `path` (`-` = stdout).
fn write_json(path: &str, document: &Json) -> Result<(), CliError> {
    write_text(path, &format!("{}\n", document.render())).map_err(write_error(path))
}

/// Renders the telemetry span tree as Chrome trace_event JSON to
/// `path` (`-` = stdout). Load the file in Perfetto / chrome://tracing.
fn write_trace(path: &str, telemetry: &Telemetry) -> Result<(), CliError> {
    write_text(path, &render_chrome_trace(&telemetry.snapshot())).map_err(write_error(path))
}

/// Everything udsim prints on its human stream (stdout, or stderr when
/// a machine stream owns stdout), written through one buffer over the
/// unlocked stream. A closed pipe ends the run quietly and any other
/// write failure is a one-line usage error (see [`write_error`]); the
/// caller's final [`Out::flush`] surfaces a failure the buffer held
/// back. Callers flush before printing to stderr themselves, so a
/// terminal shows lines in the order they were produced; an early
/// return flushes on drop.
struct Out {
    out: BufWriter<Box<dyn io::Write>>,
    /// `simulate`'s reused row buffer.
    line: Vec<u8>,
}

impl Out {
    fn new(human: &HumanOut) -> Self {
        Out {
            out: human.writer(),
            line: Vec::new(),
        }
    }

    /// Output for a command with no machine stream: stdout.
    fn stdout() -> Self {
        Out::new(&HumanOut { to_stderr: false })
    }

    /// One line of text.
    fn line(&mut self, text: impl std::fmt::Display) -> Result<(), CliError> {
        writeln!(self.out, "{text}").map_err(write_error("output"))
    }

    /// Text as is, with no newline added.
    fn text(&mut self, text: &str) -> Result<(), CliError> {
        self.out
            .write_all(text.as_bytes())
            .map_err(write_error("output"))
    }

    /// `simulate`'s two header lines.
    fn header(&mut self, nl: &Netlist, engine: Engine) -> Result<(), CliError> {
        let names: Vec<&str> = nl
            .primary_outputs()
            .iter()
            .map(|&n| nl.net_name(n))
            .collect();
        self.line(format_args!(
            "# {}: {} gates, {} inputs, {} outputs, engine {engine}\n# vector -> {}",
            nl.name(),
            nl.gate_count(),
            nl.primary_inputs().len(),
            nl.primary_outputs().len(),
            names.join(" ")
        ))
    }

    /// One `simulate` row: `{index:>6} {inputs} -> {outputs}`, encoded
    /// into the reused byte buffer.
    fn row(&mut self, index: usize, vector: &[bool], finals: &[bool]) -> Result<(), CliError> {
        let bit = |&b: &bool| b'0' + u8::from(b);
        let line = &mut self.line;
        line.clear();
        let _ = write!(line, "{index:>6} ");
        line.extend(vector.iter().map(bit));
        line.extend_from_slice(b" -> ");
        line.extend(finals.iter().map(bit));
        line.push(b'\n');
        self.out.write_all(line).map_err(write_error("output"))
    }

    fn flush(&mut self) -> Result<(), CliError> {
        self.out.flush().map_err(write_error("output"))
    }
}

/// Maps a failure to open `dest` to a usage error.
fn open_error(dest: &str) -> impl Fn(io::Error) -> CliError + '_ {
    move |err| CliError::usage(format!("opening {dest}: {err}"))
}

/// Maps a failure to write `what`: a closed pipe ends the run quietly;
/// any other failure is a usage-class error.
fn write_error(what: &str) -> impl Fn(io::Error) -> CliError + '_ {
    move |err| {
        if is_closed_pipe(&err) {
            CliError::closed_pipe()
        } else {
            CliError::usage(format!("writing {what}: {err}"))
        }
    }
}

/// `udsim profile`: simulates a random stream with every net monitored
/// and reports toggle activity — total toggles, the activity factor
/// (toggles / (nets × depth × vectors)), the hottest nets, and per-level
/// / per-time histograms. The profile is a pure function of circuit and
/// stimulus: byte-identical across engines, word widths and `--jobs`.
fn profile(args: &[String]) -> Result<(), CliError> {
    let mut top = 10usize;
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut progress = ProgressFlags::default();
    let run = RunOptions::parse(args, 256, |flag, rest| {
        match flag {
            "--top" => top = number_value(flag, rest)?,
            "--json" => json_path = Some(stream_path(flag, rest)?),
            "--trace" => trace_path = Some(stream_path(flag, rest)?),
            _ => return progress.parse(flag, rest),
        }
        Ok(true)
    })?;
    progress.check()?;
    let mut out = Out::new(&stream_contract(&[
        ("--json", json_path.as_deref()),
        ("--trace", trace_path.as_deref()),
        ("--progress", progress.path.as_deref()),
    ])?);
    let telemetry = trace_path.as_ref().map(|_| Telemetry::new());
    let nl = run.load("profile", telemetry.as_ref())?;
    let levels = levelize(&nl)
        .map_err(|e| CliError::class(format!("{}: {e}", run.file), FailureClass::Structural))?;
    let engine = run.engine();
    if let Some(t) = &telemetry {
        t.label("engine", engine.to_string());
    }
    // The monitoring factory keeps every net observable, whichever
    // engine measures — that is what makes the totals engine-exact.
    let factory = Box::new(DefaultEngineFactory {
        word: run.word,
        monitor_all: true,
    });
    let prototype = build_guard(
        &nl,
        ResourceLimits::unlimited(),
        &[engine],
        factory,
        telemetry.as_ref(),
    )?;
    let progress = progress.sink()?;
    let control = RunControl {
        jobs: run.jobs.unwrap_or(1),
        telemetry: telemetry.as_ref(),
        progress: progress.as_ref().map(|p| p as &dyn BatchProbe),
        cancel: None,
    };
    let shards = {
        let _span = telemetry.as_ref().map(|t| t.span("simulate"));
        run_stream(
            &nl,
            prototype,
            run.stimulus(&nl),
            run.vectors,
            control,
            || ActivityProfiler::for_netlist(&nl, &levels),
            discard,
        )
        .map_err(on_circuit(&nl))?
    };
    let mut profiler = ActivityProfiler::for_netlist(&nl, &levels);
    for shard in &shards {
        profiler.merge(&shard.step);
    }

    let mut report = profiler.report(&nl, &levels, top);
    report.label("engine", engine.to_string());
    report.label("word", run.word.bits().to_string());
    report.label("jobs", run.jobs.unwrap_or(1).to_string());
    report.label("seed", run.seed.to_string());

    out.line(format_args!(
        "# {}: {} nets, depth {}, {} vectors on {engine}",
        nl.name(),
        report.nets,
        report.depth,
        report.vectors
    ))?;
    out.line(format_args!(
        "total toggles:   {}  (activity factor {:.6})",
        report.total_toggles, report.activity_factor
    ))?;
    if report.unobserved_nets > 0 {
        out.line(format_args!("unobserved nets: {}", report.unobserved_nets))?;
    }
    out.line(format_args!("hottest {} nets:", report.hot_nets.len()))?;
    for hot in &report.hot_nets {
        out.line(format_args!(
            "  {:>10} toggles  level {:>3}  {}",
            hot.toggles, hot.level, hot.net
        ))?;
    }

    out.flush()?;
    if let Some(path) = &json_path {
        write_json(path, &report.to_json())?;
    }
    if let (Some(path), Some(telemetry)) = (&trace_path, &telemetry) {
        write_trace(path, telemetry)?;
    }
    Ok(())
}

/// `udsim hotspots`: runs a random stream with per-level profiling on
/// and reports where the simulate loop's time goes — self-time, word
/// ops, and gate evaluations per netlist level, with the engine's
/// static per-level instruction counts alongside. `--json` writes the
/// `uds-hotspot-v1` document; `--folded` writes collapsed-stack lines
/// (`engine;level_K NANOS`) that flamegraph tools ingest directly.
fn hotspots(args: &[String]) -> Result<(), CliError> {
    let mut json_path: Option<String> = None;
    let mut folded_path: Option<String> = None;
    let run = RunOptions::parse(args, 256, |flag, rest| {
        match flag {
            "--json" => json_path = Some(stream_path(flag, rest)?),
            "--folded" => folded_path = Some(stream_path(flag, rest)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let mut out = Out::new(&stream_contract(&[
        ("--json", json_path.as_deref()),
        ("--folded", folded_path.as_deref()),
    ])?);
    let nl = run.load("hotspots", None)?;
    let factory = Box::new(DefaultEngineFactory::with_word(run.word));
    let prototype = build_guard(
        &nl,
        ResourceLimits::unlimited(),
        &[run.engine()],
        factory,
        None,
    )?;
    let report = unit_delay_sim::core::hotspot::collect(
        &nl,
        &prototype,
        run.stimulus(&nl),
        run.vectors,
        run.jobs.unwrap_or(1),
        run.word.bits(),
    )
    .map_err(on_circuit(&nl))?;

    let total = report.measured.total();
    out.line(format_args!(
        "# {}: {} vectors on {} (word {}, jobs {})",
        nl.name(),
        report.vectors,
        report.engine,
        report.word_bits,
        report.jobs
    ))?;
    out.line(format_args!(
        "simulate span: {:.3} ms, attributed {:.3} ms ({:.1}%)",
        report.span_ns as f64 / 1e6,
        total.self_ns as f64 / 1e6,
        if report.span_ns > 0 {
            total.self_ns as f64 / report.span_ns as f64 * 100.0
        } else {
            0.0
        }
    ))?;
    out.line("level  self_ms  share  word_ops  gate_evals")?;
    for (level, cost) in report.measured.levels.iter().enumerate() {
        if cost.self_ns == 0 && cost.word_ops == 0 && cost.gate_evals == 0 {
            continue;
        }
        out.line(format_args!(
            "{level:>5}  {:>7.3}  {:>4.1}%  {:>8}  {:>10}",
            cost.self_ns as f64 / 1e6,
            if total.self_ns > 0 {
                cost.self_ns as f64 / total.self_ns as f64 * 100.0
            } else {
                0.0
            },
            cost.word_ops,
            cost.gate_evals
        ))?;
    }

    out.flush()?;
    if let Some(path) = &json_path {
        write_json(path, &report.to_json())?;
    }
    if let Some(path) = &folded_path {
        write_text(path, &report.render_folded()).map_err(write_error(path))?;
    }
    Ok(())
}

/// Reports fallbacks fired since `seen` to stderr; returns the new count.
fn report_new_fallbacks(guarded: &GuardedSimulator, seen: usize) -> usize {
    let fired = guarded.fallbacks();
    for fallback in &fired[seen..] {
        eprintln!(
            "fallback: {} abandoned ({}): {}",
            fallback.from,
            fallback.error.class(),
            fallback.error
        );
    }
    fired.len()
}

fn stats(args: &[String]) -> Result<(), CliError> {
    let file = args.first().ok_or("missing FILE.bench")?;
    let nl = load(file)?;
    let mut out = Out::stdout();
    let combinational = if nl.is_sequential() {
        let cut = unit_delay_sim::netlist::sequential::cut_flip_flops(&nl)
            .map_err(|e| CliError::class(e.to_string(), FailureClass::Structural))?;
        out.line(format_args!(
            "sequential circuit: {} flip-flops cut",
            cut.state_bits()
        ))?;
        cut.combinational
    } else {
        nl
    };
    let stats = CircuitStats::compute(&combinational)
        .map_err(|e| CliError::class(e.to_string(), FailureClass::Structural))?;
    out.line(stats)?;

    let pcset = PcSetSimulator::compile(&combinational)
        .map_err(|e| CliError::class(e.to_string(), FailureClass::Structural))?;
    let program = pcset.stats();
    out.line(format_args!(
        "pc-set: {} variables, {} gate simulations, {} retention copies",
        program.variables, program.gate_simulations, program.retention_copies
    ))?;
    // The runtime's 64-bit programs first, then the paper's 32-bit ones.
    for optimization in [Optimization::None, Optimization::PathTracingTrimming] {
        let programs = [
            ParallelSimulator64::compile(&combinational, optimization)
                .map(|sim| (sim.word_bits(), sim.stats())),
            ParallelSimulator::compile(&combinational, optimization)
                .map(|sim| (sim.word_bits(), sim.stats())),
        ];
        for program in programs {
            let (bits, s) =
                program.map_err(|e| CliError::class(e.to_string(), FailureClass::Structural))?;
            out.line(format_args!(
                "parallel ({optimization}, {bits}-bit words): {} word ops, {} retained shifts, \
                 {} fused + {} decoded + {} funnel presentations, {} arena words",
                s.word_ops,
                s.retained_shifts,
                s.fused_presentations,
                s.decoded_presentations,
                s.funnel_presentations,
                s.arena_words
            ))?;
        }
    }
    out.flush()
}

fn cone(args: &[String]) -> Result<(), CliError> {
    let file = args.first().ok_or("missing FILE.bench")?;
    let roots = &args[1..];
    if roots.is_empty() {
        return Err(CliError::usage("missing OUTPUT_NET name(s)"));
    }
    let nl = load(file)?;
    let root_ids: Vec<_> = roots
        .iter()
        .map(|name| {
            nl.find_net(name)
                .ok_or_else(|| CliError::usage(format!("no net named `{name}` in {file}")))
        })
        .collect::<Result<_, _>>()?;
    let cone = unit_delay_sim::netlist::cone::extract(&nl, &root_ids);
    eprintln!(
        "# cone of {}: {} of {} gates",
        roots.join(", "),
        cone.netlist.gate_count(),
        nl.gate_count()
    );
    let mut out = Out::stdout();
    out.text(&bench_format::write(&cone.netlist))?;
    out.flush()
}

/// `udsim serve`: the long-running simulation daemon. Binds `--addr`
/// (`:0` picks an ephemeral port, announced on stderr), serves until a
/// shutdown signal or `/quitquitquit`, drains in-flight requests, and
/// only then writes the final `--stats` snapshot — so the snapshot is
/// the complete story of the daemon's lifetime.
fn serve(args: &[String]) -> Result<(), CliError> {
    let mut addr = "127.0.0.1:1990".to_owned();
    let mut cache_capacity = 64usize;
    let mut allow_quit = false;
    let mut reqlog_path: Option<String> = None;
    let mut stats_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut word = WordWidth::default();
    let mut jobs = 1usize;
    let mut limits = ResourceLimits::production();
    let mut config = ServeConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        match flag {
            "--addr" => addr = iter.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--cache" => cache_capacity = number_value(flag, &mut iter)?,
            "--allow-quit" => allow_quit = true,
            "--reqlog" => reqlog_path = Some(stream_path(flag, &mut iter)?),
            "--stats" => stats_path = Some(stream_path(flag, &mut iter)?),
            "--trace" => trace_path = Some(stream_path(flag, &mut iter)?),
            "--budget" => limits = parse_budget(iter.next().ok_or("--budget needs a spec")?)?,
            "--word" => word = word_value(&mut iter)?,
            "--jobs" => jobs = jobs_value(&mut iter)?,
            "--workers" => config.workers = number_value(flag, &mut iter)?,
            "--queue" => config.queue_depth = number_value::<usize>(flag, &mut iter)?.max(1),
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(number_value(flag, &mut iter)?);
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = Duration::from_millis(number_value(flag, &mut iter)?);
            }
            "--keep-alive-max" => {
                config.keep_alive_max = number_value::<u64>(flag, &mut iter)?.max(1);
            }
            "--request-timeout-ms" => {
                let ms = number_value(flag, &mut iter)?;
                config.request_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--rate-limit" => config.rate_limit_per_s = rate_value(flag, &mut iter)?,
            "--max-jobs" => config.max_jobs = number_value::<usize>(flag, &mut iter)?.max(1),
            "--job-ttl-s" => config.job_ttl = Duration::from_secs(number_value(flag, &mut iter)?),
            "--hotspots" => config.hotspots = true,
            other => return Err(CliError::usage(format!("unexpected argument `{other}`"))),
        }
    }
    // The daemon's own narration always goes to stderr; stdout belongs
    // to whichever stream flag claims it. The contract still enforces
    // the at-most-one-`-` rule between --reqlog, --stats, and --trace.
    stream_contract(&[
        ("--reqlog", reqlog_path.as_deref()),
        ("--stats", stats_path.as_deref()),
        ("--trace", trace_path.as_deref()),
    ])?;
    let telemetry = Telemetry::new();
    telemetry.label("command", "serve");
    record_build_info(&telemetry, word.bits());
    let reqlog = reqlog_path
        .as_deref()
        .map(|dest| open_sink(dest).map_err(open_error(dest)))
        .transpose()?;
    let config = ServeConfig {
        cache_capacity,
        allow_quit,
        limits,
        default_word: word,
        default_jobs: jobs,
        ..config
    };
    install_signal_handlers()
        .map_err(|e| CliError::usage(format!("installing signal handlers: {e}")))?;
    let mut server = SimServer::bind(&*addr, config, telemetry.clone(), reqlog)
        .map_err(|e| CliError::usage(format!("binding {addr}: {e}")))?;
    if let Some(dest) = trace_path.as_deref() {
        let sink = open_sink(dest).map_err(open_error(dest))?;
        server.set_trace(sink);
    }
    let local = server
        .local_addr()
        .map_err(|e| CliError::usage(format!("binding {addr}: {e}")))?;
    eprintln!("udsim: listening on http://{local}");
    // Self-report the host's perf class before serving: calibrate the
    // machine and warm up on a canonical netlist, then publish the
    // result as the `uds_perf_class` gauge family and a build_info
    // label. Early connections simply wait in the accept backlog, so
    // `/metrics` carries the class from the first served request on.
    // The announcement above must stay the first stderr line — probes
    // and tests read it to learn the bound port.
    let perf = measure_perf();
    record_perf_class(&telemetry, &perf);
    eprintln!(
        "udsim: perf class {} (score {:.3}, warmup {:.0} vectors/s)",
        perf.class.name(),
        perf.calibration.score,
        perf.warmup_vectors_per_s
    );
    server
        .run()
        .map_err(|e| CliError::usage(format!("serving on {local}: {e}")))?;
    if let Some(path) = &stats_path {
        write_stats(path, &telemetry)?;
    }
    eprintln!("udsim: drained, goodbye");
    Ok(())
}

/// `udsim loadgen`: drive a running daemon with a client fleet and
/// report per-status counts plus latency percentiles
/// (`uds-loadgen-v1`). Closed loop by default; `--rate` switches to
/// paced open-loop arrivals. `--bench` turns the campaign into real
/// `POST /simulate` work (random stimulus built client-side);
/// otherwise it probes `GET /healthz`-style read paths.
fn loadgen(args: &[String]) -> Result<(), CliError> {
    let mut config = LoadgenConfig::default();
    let mut bench_path: Option<String> = None;
    let mut path_override: Option<String> = None;
    let mut vectors = 16u64;
    let mut seed = 1990u64;
    let mut jobs: Option<u64> = None;
    let mut json_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        match flag {
            "--addr" => config.addr = iter.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--path" => {
                path_override = Some(iter.next().ok_or("--path needs a request path")?.clone())
            }
            "--bench" => bench_path = Some(iter.next().ok_or("--bench needs FILE.bench")?.clone()),
            "--vectors" => vectors = number_value(flag, &mut iter)?,
            "--seed" => seed = number_value(flag, &mut iter)?,
            "--jobs" => jobs = Some(number_value(flag, &mut iter)?),
            "--concurrency" => {
                config.concurrency = number_value::<usize>(flag, &mut iter)?.max(1);
            }
            "--rate" => config.rate_per_s = rate_value(flag, &mut iter)?,
            "--duration-ms" => {
                config.duration = Duration::from_millis(number_value(flag, &mut iter)?);
            }
            "--json" => json_path = Some(stream_path(flag, &mut iter)?),
            other => return Err(CliError::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let mut out = Out::new(&stream_contract(&[("--json", json_path.as_deref())])?);

    if let Some(bench) = &bench_path {
        // Validate the netlist client-side (a typo'd path should fail
        // here, not as a storm of 400s), then ship the raw text.
        let nl = load(bench)?;
        let text = if bench == "-" {
            return Err(CliError::usage("--bench cannot read stdin for loadgen"));
        } else {
            std::fs::read_to_string(bench).map_err(|e| {
                CliError::class(format!("reading {bench}: {e}"), FailureClass::Parse)
            })?
        };
        let mut members = vec![
            ("bench".to_owned(), Json::Str(text)),
            ("name".to_owned(), Json::Str(nl.name().to_owned())),
            (
                "random".to_owned(),
                Json::obj([("count", Json::UInt(vectors)), ("seed", Json::UInt(seed))]),
            ),
        ];
        if let Some(jobs) = jobs {
            members.push(("jobs".to_owned(), Json::UInt(jobs)));
        }
        config.body = Json::Obj(members).render();
        config.method = "POST".to_owned();
        config.path = path_override.unwrap_or_else(|| "/simulate".to_owned());
    } else if let Some(path) = path_override {
        config.path = path;
    }

    let report = run_loadgen(&config);
    out.line(format_args!(
        "{} loop: {} requests, {} transport errors in {:.2}s ({:.1} req/s)",
        report.mode,
        report.requests,
        report.errors,
        report.elapsed.as_secs_f64(),
        report.throughput_per_s()
    ))?;
    for (status, count) in &report.status_counts {
        out.line(format_args!("  {status}: {count}"))?;
    }
    out.line(format_args!(
        "  latency p50 {:.2}ms  p90 {:.2}ms  p99 {:.2}ms  max {:.2}ms",
        report.latency_ns["p50"] as f64 / 1e6,
        report.latency_ns["p90"] as f64 / 1e6,
        report.latency_ns["p99"] as f64 / 1e6,
        report.latency_ns["max"] as f64 / 1e6,
    ))?;
    if let Some(server) = &report.server {
        let class = server
            .perf_class_name
            .as_deref()
            .unwrap_or("unknown")
            .to_owned();
        out.line(format_args!("  server perf class: {class}"))?;
        for sample in &server.engine_vectors_per_s {
            out.line(format_args!(
                "  server {} w{}: {:.0} vectors/s (rolling)",
                sample.engine, sample.word_bits, sample.vectors_per_s
            ))?;
        }
    }
    out.flush()?;
    if let Some(dest) = &json_path {
        write_json(dest, &report.to_json())?;
    }
    Ok(())
}

fn codegen(args: &[String]) -> Result<(), CliError> {
    let mut file = None;
    let mut technique = "parallel".to_owned();
    let mut optimization = Optimization::None;
    let mut stats_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--technique" => {
                technique = iter.next().ok_or("--technique needs a value")?.clone();
            }
            "--opt" => {
                let key = iter.next().ok_or("--opt needs a value")?;
                optimization = Optimization::ALL
                    .into_iter()
                    .find(|opt| opt.key() == key)
                    .ok_or_else(|| CliError::usage(format!("unknown optimization `{key}`")))?;
            }
            "--stats" => stats_path = Some(stream_path(arg, &mut iter)?),
            other if file.is_none() && (other == "-" || !other.starts_with('-')) => {
                file = Some(other.to_owned());
            }
            other => return Err(CliError::usage(format!("unexpected argument `{other}`"))),
        }
    }
    let file = file.ok_or("missing FILE.bench")?;
    let telemetry = stats_path.as_ref().map(|_| Telemetry::new());
    // With `--stats -` the JSON owns stdout; the generated C moves to
    // stderr.
    let mut out = Out::new(&stream_contract(&[("--stats", stats_path.as_deref())])?);
    let nl = {
        let _span = telemetry.as_ref().map(|t| t.span("parse"));
        load(&file)?
    };
    if let Some(t) = &telemetry {
        t.label("command", "codegen");
        t.label("circuit", nl.name());
        t.label("technique", technique.clone());
        // The emitted C is the paper's: 32-bit words.
        record_build_info(t, WordWidth::W32.bits());
    }
    let noop = unit_delay_sim::netlist::NoopProbe;
    let probe: &dyn Probe = telemetry.as_ref().map_or(&noop, |t| t as &dyn Probe);
    let limits = ResourceLimits::unlimited();
    let emitted = {
        let _span = telemetry.as_ref().map(|t| t.span("compile"));
        match technique.as_str() {
            "pc-set" | "pcset" => {
                let sim = PcSetSimulator::compile_probed(&nl, nl.primary_outputs(), &limits, probe)
                    .map_err(|e| CliError::class(e.to_string(), FailureClass::Structural))?;
                pcset::codegen_c::emit(&nl, &sim)
                    .map_err(|e| CliError::class(e.to_string(), FailureClass::Structural))?
            }
            "parallel" => {
                let sim =
                    ParallelSimulator::compile_probed(&nl, optimization, false, &limits, probe)
                        .map_err(|e| CliError::class(e.to_string(), FailureClass::Structural))?;
                parallel::codegen_c::emit(&nl, &sim)
                    .map_err(|e| CliError::class(e.to_string(), FailureClass::Structural))?
            }
            other => return Err(CliError::usage(format!("unknown technique `{other}`"))),
        }
    };
    out.text(&emitted)?;
    out.flush()?;
    if let (Some(path), Some(telemetry)) = (stats_path, telemetry) {
        write_stats(&path, &telemetry)?;
    }
    Ok(())
}
