//! The traced run: a per-layer ledger, built outside-in.
//!
//! Each layer on the path a vector takes — engine `simulate_vector` →
//! `GuardedSimulator` → `run_batch` → CLI or `POST /simulate` — is timed
//! by calling its public function in-process on the workload's circuit.
//! Passes are interleaved (engine, guard, batch, stimulus, and the
//! rest, then the workload's own command, repeated for [`ROUNDS`]
//! rounds) so host drift hits every layer alike, and each layer is
//! reduced to its median. A layer's self time is its median minus the
//! median of the layer it wraps; the front end's self time is what the
//! command's process costs beyond the layers inside it. `serve-mix`
//! runs its daemon once after the rounds, its timed window closing half
//! of `--seconds` after the daemon's set-up began.
//!
//! Engines are timed through the `Box<dyn UnitDelaySimulator>` that
//! `uds_core` builds — the code the guard runs — never through the
//! generic engine types, which would be compiled into this crate.
//!
//! Every pass is a span (name, start, end, parent) kept in memory and
//! written at exit as Chrome `traceEvents` JSON.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use uds_core::telemetry::json::Json;
use uds_core::vectors::RandomVectors;
use uds_core::{
    build_engine_with_limits_probed_word, build_native, build_simulator, build_simulator_with_word,
    chain_preferring, measure_perf, netlist_hash, run_batch, CacheKey, DefaultEngineFactory,
    Engine, EngineCache, GuardedSimulator, Telemetry, UnitDelaySimulator, WordWidth,
};
use uds_netlist::{bench_format, Netlist, NoopProbe, ResourceLimits};

use crate::host;
use crate::metrics::{median, self_time, Measured, PER_LAYER};
use crate::proc::read_status_kib;
use crate::serve_mix::{self, Checked, Kind, Mix, HOT, VECTORS};
use crate::stream::Cli;
use crate::{Ctx, Outcome, Workload};

/// Interleaved rounds each layer is timed over. On a shared 2-core host
/// one pass can read 20% slow; nine short rounds keep the median steady.
const ROUNDS: usize = 9;
/// Each repeated small call (a parse, a fork, a lookup) is timed over
/// at least this much work per round.
const CALL_BUDGET: Duration = Duration::from_millis(30);
/// The guard loop whose resident-set growth gives the replay log's
/// bytes per vector stops after this many vectors or this long.
const RETAINED_VECTORS: usize = 1_000_000;
const RETAINED_BUDGET: Duration = Duration::from_millis(1500);
/// The serve daemon's default cache capacity, used for insert timing.
const CACHE_CAPACITY: usize = 64;

/// Spans kept in memory while the traced run executes.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

struct Span {
    name: String,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    /// Timeline lane: 0 for the harness's own passes, 1.. for the
    /// serve client connections, whose requests overlap.
    lane: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) {
        let now = Instant::now();
        self.spans.push(Span {
            name: name.into(),
            start: now,
            end: now,
            parent: self.open.last().copied(),
            lane: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span; returns its duration.
    pub fn exit(&mut self) -> Duration {
        let id = self.open.pop().expect("exit matches an enter");
        let span = &mut self.spans[id];
        span.end = Instant::now();
        span.end - span.start
    }

    /// Times `work` as one span.
    pub fn time<T>(&mut self, name: impl Into<String>, work: impl FnOnce() -> T) -> (T, Duration) {
        self.enter(name);
        let out = work();
        (out, self.exit())
    }

    /// Records a finished interval under the innermost open span.
    pub fn record(&mut self, name: impl Into<String>, start: Instant, end: Instant, lane: u64) {
        self.spans.push(Span {
            name: name.into(),
            start,
            end,
            parent: self.open.last().copied(),
            lane,
        });
    }

    /// The spans as Chrome trace events under process id `pid`.
    pub fn events(&self, pid: u64, workload: &str) -> Vec<Json> {
        let us = |at: Instant| at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut events = vec![Json::obj([
            ("name", Json::Str("process_name".to_owned())),
            ("ph", Json::Str("M".to_owned())),
            ("pid", Json::UInt(pid)),
            (
                "args",
                Json::obj([("name", Json::Str(workload.to_owned()))]),
            ),
        ])];
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(Json::Null, |p| Json::UInt(p as u64));
            events.push(Json::obj([
                ("name", Json::Str(span.name.clone())),
                ("cat", Json::Str("layer".to_owned())),
                ("ph", Json::Str("X".to_owned())),
                ("ts", Json::Float(us(span.start))),
                ("dur", Json::Float(us(span.end) - us(span.start))),
                ("pid", Json::UInt(pid)),
                ("tid", Json::UInt(span.lane)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::UInt(id as u64)),
                        ("parent", parent),
                        ("workload", Json::Str(workload.to_owned())),
                    ]),
                ),
            ]));
        }
        events
    }
}

/// Writes Chrome `traceEvents` JSON.
pub fn write_trace(path: &Path, events: Vec<Json>) -> Result<(), String> {
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_owned())),
    ]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Mean seconds per call of `call` (which returns the part of its work
/// to count), over at least `min_calls` calls and [`CALL_BUDGET`].
fn per_call(
    min_calls: usize,
    mut call: impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    let started = Instant::now();
    let (mut calls, mut counted) = (0usize, Duration::ZERO);
    while calls < min_calls || started.elapsed() < CALL_BUDGET {
        counted += call()?;
        calls += 1;
    }
    Ok(counted.as_secs_f64() / calls as f64)
}

/// Runs `work` and times it.
fn clocked<T>(work: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = work();
    (out, start.elapsed())
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Vectors per engine pass: about 0.25 s of work, so the cold start of
/// a pass (caches refilled after the previous layer) stays small.
fn pass_vectors(circuit: &str) -> usize {
    match circuit {
        "c432" => 100_000,
        "c1908" => 10_000,
        _ => 4_000,
    }
}

/// The guard the front end builds: chain, budget and word width as
/// `udsim simulate --jobs 1` (or, for `serve-mix`, `udsim serve`) does.
fn front_end_guard(
    netlist: &Netlist,
    chain: &[Engine],
    limits: ResourceLimits,
) -> Result<GuardedSimulator, String> {
    let factory = Box::new(DefaultEngineFactory::with_word(WordWidth::W32));
    let guard = GuardedSimulator::with_factory(netlist, limits, chain, factory).map_err(text)?;
    if guard.active_engine() != chain[0] {
        return Err(format!(
            "{} did not build: {:?}",
            chain[0],
            guard.fallbacks()
        ));
    }
    Ok(guard)
}

fn workload_chain(workload: Workload) -> (Vec<Engine>, ResourceLimits) {
    match workload {
        Workload::ServeMix => (
            GuardedSimulator::DEFAULT_CHAIN.to_vec(),
            ResourceLimits::production(),
        ),
        Workload::NativeC1908 => (
            chain_preferring(Some(Engine::Native)),
            ResourceLimits::unlimited(),
        ),
        _ => (
            vec![Engine::ParallelPathTracingTrimming],
            ResourceLimits::unlimited(),
        ),
    }
}

/// `VmRSS` growth per vector over a guard loop fed on the fly: what the
/// guard retains per vector (its replay log).
fn retained_bytes_per_vector(
    mut guard: GuardedSimulator,
    width: usize,
    seed: u64,
) -> Result<f64, String> {
    let mut vectors = RandomVectors::new(width, seed);
    let before = read_status_kib("self", "VmRSS").map_err(text)?;
    let start = Instant::now();
    let mut n = 0usize;
    while n < RETAINED_VECTORS
        && !(n.is_multiple_of(4096) && n > 0 && start.elapsed() >= RETAINED_BUDGET)
    {
        let vector = vectors.next().expect("the stimulus stream is endless");
        guard.simulate_vector(&vector).map_err(text)?;
        n += 1;
    }
    let after = read_status_kib("self", "VmRSS").map_err(text)?;
    Ok((after as f64 - before as f64) * 1024.0 / n as f64)
}

/// Per-layer samples, one per round.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, layer: &'static str, value: f64) {
        self.0.entry(layer).or_default().push(value);
    }

    fn get(&self, layer: &str) -> &[f64] {
        self.0.get(layer).map_or(&[], Vec::as_slice)
    }

    fn median(&self, layer: &str) -> f64 {
        median(self.get(layer))
    }
}

/// One hot request class of `serve-mix`, rebuilt in-process: the
/// cached prototype, a request body, and the cost samples of answering
/// it as `udsim serve` does.
struct ServedClass<'a> {
    netlist: &'a Netlist,
    body: &'a str,
    cache: EngineCache,
    key: CacheKey,
    samples: Samples,
}

impl<'a> ServedClass<'a> {
    fn new(netlist: &'a Netlist, body: &'a str, engine: Option<Engine>) -> Result<Self, String> {
        let chain = match engine {
            Some(Engine::Native) => chain_preferring(Some(Engine::Native)),
            Some(engine) => vec![engine],
            None => GuardedSimulator::DEFAULT_CHAIN.to_vec(),
        };
        let prototype = front_end_guard(netlist, &chain, ResourceLimits::production())?;
        let cache = EngineCache::new(CACHE_CAPACITY, Telemetry::new());
        let key = CacheKey {
            netlist_hash: netlist_hash(netlist),
            engine,
            word: WordWidth::W32,
        };
        cache.insert(key, prototype);
        Ok(ServedClass {
            netlist,
            body,
            cache,
            key,
            samples: Samples::default(),
        })
    }

    /// One round: body and bench parse plus stimulus (what the daemon's
    /// request parser does), the cache lookup that forks the prototype,
    /// and the jobs=1 guard loop that produces the rows.
    fn round(&mut self, spans: &mut Spans) -> Result<(), String> {
        let (body, cache, key) = (self.body, &self.cache, &self.key);
        let outputs = self.netlist.primary_outputs().to_vec();
        let (parsed, _) = spans.time("serve.parse", || {
            let mut stimulus = Vec::new();
            per_call(3, || {
                let (parsed, took) = clocked(|| -> Result<Vec<Vec<bool>>, String> {
                    let doc = Json::parse(body).map_err(text)?;
                    let bench = doc.get("bench").and_then(Json::as_str).unwrap_or_default();
                    let name = doc.get("name").and_then(Json::as_str).unwrap_or_default();
                    let nl = bench_format::parse(bench, name).map_err(text)?;
                    let random = doc.get("random");
                    let seed = random.and_then(|r| r.get("seed")).and_then(Json::as_u64);
                    Ok(
                        RandomVectors::new(nl.primary_inputs().len(), seed.unwrap_or(0))
                            .take(VECTORS)
                            .collect(),
                    )
                });
                stimulus = parsed?;
                Ok(took)
            })
            .map(|secs| (secs, stimulus))
        });
        let (parse, stimulus) = parsed?;
        self.samples.push("parse", parse * 1e6);
        let (lookup, _) = spans.time("serve.cache_lookup", || {
            per_call(3, || {
                let (fork, took) = clocked(|| cache.lookup(key));
                fork.map(|_| took)
                    .ok_or_else(|| "cache lookup missed".to_owned())
            })
        });
        self.samples.push("lookup", lookup? * 1e6);
        let (simulate, _) = spans.time("serve.simulate", || {
            per_call(3, || {
                let mut guard = cache.lookup(key).ok_or("cache lookup missed")?;
                let (rows, took) = clocked(|| -> Result<Vec<Vec<bool>>, String> {
                    let mut rows = Vec::with_capacity(stimulus.len());
                    for vector in &stimulus {
                        guard.simulate_vector(vector).map_err(text)?;
                        rows.push(outputs.iter().map(|&po| guard.final_value(po)).collect());
                    }
                    Ok(rows)
                });
                rows.map(|_| took)
            })
        });
        self.samples.push("simulate", simulate? * 1e6);
        Ok(())
    }

    /// Microseconds of a hit the in-process layers account for.
    fn in_process_us(&self) -> f64 {
        ["parse", "lookup", "simulate"]
            .iter()
            .map(|layer| self.samples.median(layer))
            .sum()
    }
}

fn engine_of(name: Option<&str>) -> Result<Option<Engine>, String> {
    name.map(|n| Engine::parse(n).ok_or_else(|| format!("unknown engine {n}")))
        .transpose()
}

/// Runs the traced ledger for `workload`.
pub fn trace(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let circuit = workload.circuit();
    let bench = ctx.circuit_text(circuit)?;
    let netlist = ctx.netlist(circuit)?;
    let width = netlist.primary_inputs().len();
    let unlimited = ResourceLimits::unlimited();
    let (chain, limits) = workload_chain(workload);
    let mut samples = Samples::default();
    let mut outcome = Outcome::default();
    let mut notes = Vec::new();

    // The cold native build comes first: it fills the artifact cache the
    // native guard and the native CLI runs below then hit.
    let native_cache = ctx.scratch.join("native-trace");
    std::env::set_var("UDS_NATIVE_CACHE", &native_cache);
    let (native, cold) = spans.time("native.build_cold", || {
        build_native(
            &netlist,
            Engine::ParallelPathTracingTrimming,
            WordWidth::W32,
            &unlimited,
            &NoopProbe,
        )
        .map_err(text)
    });
    let mut native = native?;
    samples.push("native.build_cold_ms", cold.as_secs_f64() * 1e3);

    let guard = front_end_guard(&netlist, &chain, limits)?;
    let (retained, _) = spans.time("guard.retained", || {
        retained_bytes_per_vector(guard, width, seed)
    });
    samples.push("guard.retained_bytes_per_vector", retained?);

    let telemetry = Telemetry::new();
    build_engine_with_limits_probed_word(
        &netlist,
        Engine::ParallelPathTracingTrimming,
        &unlimited,
        &telemetry,
        WordWidth::W32,
    )
    .map_err(text)?;
    let word_ops = telemetry
        .gauge_value("parallel.pt-trim.word_ops")
        .ok_or("the compiler reported no word-op gauge")?;
    samples.push("parallel.word_ops_per_vector", word_ops as f64);

    let prototype = front_end_guard(&netlist, &chain, limits)?;
    let mut parallel = build_simulator_with_word(
        &netlist,
        Engine::ParallelPathTracingTrimming,
        WordWidth::W32,
    )
    .map_err(text)?;
    let mut pcset = build_simulator(&netlist, Engine::PcSet).map_err(text)?;
    let n = pass_vectors(circuit);
    let stimulus: Vec<Vec<bool>> = RandomVectors::new(width, seed).take(n).collect();
    let pcset_stimulus = &stimulus[..n / 4];
    let body = serve_mix::body(&bench, circuit, seed, None);
    let mut served = ServedClass::new(&netlist, &body, None)?;
    let full_cache = EngineCache::new(CACHE_CAPACITY, Telemetry::new());
    let mut next_key = 0u64;
    let mut fresh_key = || {
        next_key += 1;
        CacheKey {
            netlist_hash: next_key,
            engine: None,
            word: WordWidth::W32,
        }
    };
    for _ in 0..CACHE_CAPACITY {
        full_cache.insert(fresh_key(), prototype.fork());
    }
    // The stream workloads' own command: a checked warm-up now, then
    // one set-up probe and one full run per round.
    let mut cli = (workload != Workload::ServeMix).then(|| Cli::new(ctx, workload, seed));
    if let Some(cli) = &mut cli {
        spans.time("cli.warm-up", || cli.full_run(&native_cache, &mut outcome));
    }
    let (mut command_setup, mut command_walls, mut scaled_walls) =
        (Vec::new(), Vec::new(), Vec::new());

    let engine_pass = |sim: &mut Box<dyn UnitDelaySimulator>, vectors: &[Vec<bool>]| {
        for vector in vectors {
            sim.simulate_vector(vector);
        }
    };
    let per_vector = |d: Duration, n: usize| d.as_secs_f64() * 1e9 / n as f64;
    // One untimed pass of each engine first: the first touches of an
    // arena and its code read slow.
    spans.time("warm-up", || {
        engine_pass(&mut parallel, &stimulus);
        engine_pass(&mut pcset, pcset_stimulus);
        engine_pass(&mut native, &stimulus);
    });
    for round in 0..ROUNDS {
        spans.enter(format!("round {round}"));
        let (secs, _) = spans.time("netlist.parse", || {
            per_call(3, || {
                let (nl, took) = clocked(|| bench_format::parse(&bench, circuit));
                nl.map(|_| took).map_err(text)
            })
        });
        samples.push("netlist.parse_us", secs? * 1e6);
        let (secs, _) = spans.time("parallel.build", || {
            per_call(1, || {
                let (sim, took) = clocked(|| {
                    build_simulator_with_word(
                        &netlist,
                        Engine::ParallelPathTracingTrimming,
                        WordWidth::W32,
                    )
                });
                sim.map(|_| took).map_err(text)
            })
        });
        samples.push("parallel.build_ms", secs? * 1e3);
        let (secs, _) = spans.time("pcset.build", || {
            per_call(1, || {
                let (sim, took) = clocked(|| build_simulator(&netlist, Engine::PcSet));
                sim.map(|_| took).map_err(text)
            })
        });
        samples.push("pcset.build_ms", secs? * 1e3);

        let (_, d) = spans.time("parallel.simulate", || {
            engine_pass(&mut parallel, &stimulus)
        });
        samples.push("parallel.simulate_ns_per_vector", per_vector(d, n));
        let (_, d) = spans.time("pcset.simulate", || engine_pass(&mut pcset, pcset_stimulus));
        samples.push(
            "pcset.simulate_ns_per_vector",
            per_vector(d, pcset_stimulus.len()),
        );
        let (_, d) = spans.time("native.simulate", || engine_pass(&mut native, &stimulus));
        samples.push("native.simulate_ns_per_vector", per_vector(d, n));
        let mut guard = prototype.fork();
        let (run, d) = spans.time("guard.simulate", || -> Result<(), String> {
            for vector in &stimulus {
                guard.simulate_vector(vector).map_err(text)?;
            }
            Ok(())
        });
        run?;
        drop(guard);
        samples.push("guard.simulate_ns_per_vector", per_vector(d, n));
        let (out, d) = spans.time("batch.run", || {
            run_batch(&netlist, &prototype, &stimulus, 1, None).map_err(text)
        });
        drop(out?);
        samples.push("batch.run_ns_per_vector", per_vector(d, n));
        let (generated, d) = spans.time("vectors.generate", || {
            RandomVectors::new(width, seed).take(n).collect::<Vec<_>>()
        });
        drop(generated);
        samples.push("vectors.generate_ns_per_vector", per_vector(d, n));

        let (secs, _) = spans.time("batch.fork", || {
            per_call(3, || Ok(clocked(|| prototype.fork()).1))
        });
        samples.push("batch.fork_us", secs? * 1e6);
        let (secs, _) = spans.time("serve.body_parse", || {
            per_call(3, || {
                let (doc, took) = clocked(|| Json::parse(&body));
                doc.map(|_| took).map_err(text)
            })
        });
        samples.push("serve.body_parse_us", secs? * 1e6);
        let (secs, _) = spans.time("cache.insert", || {
            per_call(3, || {
                let (key, fork) = (fresh_key(), prototype.fork());
                Ok(clocked(|| full_cache.insert(key, fork)).1)
            })
        });
        samples.push("cache.insert_us", secs? * 1e6);
        served.round(spans)?;
        let (secs, _) = spans.time("perf.measure", || {
            per_call(1, || Ok(clocked(measure_perf).1))
        });
        samples.push("perf.measure_s", secs?);
        if let Some(cli) = &mut cli {
            let (wall, _) = spans.time("cli.setup", || cli.setup(&native_cache, &mut outcome));
            command_setup.extend(wall);
            let (probe, _) = spans.time("host.probe", host::probe);
            let (exit, _) = spans.time("cli.run", || cli.full_run(&native_cache, &mut outcome));
            if let Some(exit) = exit {
                let wall = exit.wall.as_secs_f64();
                command_walls.push(wall);
                scaled_walls.push(wall * host::scale(probe));
            }
        }
        spans.exit();
    }
    samples.push("cache.lookup_hit_us", served.samples.median("lookup"));
    samples.push("serve.simulate_us", served.samples.median("simulate"));

    let engine_layer = if workload.native() {
        "native.simulate_ns_per_vector"
    } else {
        "parallel.simulate_ns_per_vector"
    };
    let guard_self = self_time(
        samples.get("guard.simulate_ns_per_vector"),
        samples.get(engine_layer),
    );
    let batch_self = self_time(
        samples.get("batch.run_ns_per_vector"),
        samples.get("guard.simulate_ns_per_vector"),
    );
    samples.push("guard.self_ns_per_vector", guard_self);
    samples.push("batch.self_ns_per_vector", batch_self);

    let (frontend, command) = match &cli {
        None => serve_front_end(ctx, seed, seconds, spans, &mut outcome, &mut notes)?,
        Some(_) if command_walls.is_empty() || command_setup.is_empty() => {
            return Err(format!("every {} command run failed", workload.name()));
        }
        Some(cli) => {
            let vectors = cli.vectors() as f64;
            let wall = median(&command_walls);
            let cli_ns = (wall - median(&command_setup)) * 1e9 / vectors;
            let frontend = cli_ns
                - samples.median("batch.run_ns_per_vector")
                - samples.median("vectors.generate_ns_per_vector");
            notes.push(format!(
                "cli.self_ns_per_vector = {frontend:.1} ns of the CLI's {cli_ns:.1} ns/vector ({:+.1}%; at least -5% expected)",
                frontend / cli_ns * 100.0
            ));
            // The same estimator as the untraced `vectors_per_s`.
            (
                frontend,
                Measured::new(
                    "command.vectors_per_s",
                    "vectors/s",
                    vectors / median(&scaled_walls),
                    scaled_walls.len(),
                ),
            )
        }
    };
    samples.push("frontend.self_ns_per_vector", frontend);

    for (name, unit) in PER_LAYER {
        let values = samples.get(name);
        if values.is_empty() {
            return Err(format!("layer {name} was not measured"));
        }
        outcome
            .metrics
            .push(Measured::new(name, unit, median(values), values.len()));
    }
    outcome.metrics.push(command);
    outcome.notes = notes;
    Ok(outcome)
}

/// Runs the serve mix once and rebuilds its hot classes in-process.
/// Returns the front end's self time per vector — each class's median
/// client latency on a cache hit minus what its in-process layers
/// account for, weighted by the class's share of the mix — and the
/// command's `vectors_per_s`.
fn serve_front_end(
    ctx: &Ctx,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    outcome: &mut Outcome,
    notes: &mut Vec<String>,
) -> Result<(f64, Measured), String> {
    let mix = Mix::new(ctx, seed)?;
    spans.enter("command serve-mix");
    let closes = Instant::now() + Duration::from_secs_f64(seconds / 2.0);
    let run = serve_mix::run(ctx, &mix, closes, outcome)?;
    for r in &run.requests {
        spans.record("POST /simulate", r.start, r.end, 1 + r.conn as u64);
    }
    spans.exit();
    let in_window: Vec<&Checked> = run.in_window().collect();
    // The same estimator as the untraced `vectors_per_s`.
    let command = Measured::new(
        "command.vectors_per_s",
        "vectors/s",
        run.vectors_per_s(),
        run.slices.len(),
    );
    let latencies: Vec<f64> = in_window.iter().map(|r| r.latency_ms()).collect();
    let p50_us = median(&latencies) * 1e3;
    let hits = in_window
        .iter()
        .filter(|r| r.cache.as_deref() == Some("hit"))
        .count();
    notes.push(format!(
        "cache.hit_ratio = {:.4} ({hits} hits of {} requests completed in the window)",
        hits as f64 / in_window.len() as f64,
        in_window.len()
    ));

    // The daemon's artifact cache holds the native classes' objects.
    std::env::set_var("UDS_NATIVE_CACHE", ctx.scratch.join("serve-native"));
    let mut classes = Vec::new();
    for (class, h) in HOT.iter().enumerate() {
        let served = ServedClass::new(
            &mix.netlists[h.circuit],
            mix.hot_body(class),
            engine_of(h.engine)?,
        )?;
        classes.push(served);
    }
    for round in 0..ROUNDS {
        spans.enter(format!("serve round {round}"));
        for (class, served) in classes.iter_mut().enumerate() {
            spans.enter(HOT[class].label());
            served.round(spans)?;
            spans.exit();
        }
        spans.exit();
    }
    let total: usize = HOT.iter().map(|h| h.per_block).sum();
    let mut weighted_us = 0.0;
    for (class, served) in classes.iter().enumerate() {
        let hit_ms: Vec<f64> = in_window
            .iter()
            .filter(|r| r.cache.as_deref() == Some("hit"))
            .filter(|r| mix.spec(r.index).kind == Kind::Hot(class))
            .map(|r| r.latency_ms())
            .collect();
        if hit_ms.is_empty() {
            return Err(format!(
                "no {} hit completed in the window",
                HOT[class].label()
            ));
        }
        let overhead_us = median(&hit_ms) * 1e3 - served.in_process_us();
        weighted_us += overhead_us * HOT[class].per_block as f64 / total as f64;
        notes.push(format!(
            "serve.overhead_us {:<14} = {overhead_us:>9.1} us of a {:>9.1} us median hit ({} hits; in-process parse {:.1}, lookup {:.1}, simulate {:.1})",
            HOT[class].label(),
            median(&hit_ms) * 1e3,
            hit_ms.len(),
            served.samples.median("parse"),
            served.samples.median("lookup"),
            served.samples.median("simulate"),
        ));
    }
    notes.push(format!(
        "serve.overhead_us (mix-weighted) = {weighted_us:.1} us against a {p50_us:.1} us median latency ({:+.1}%; at least -5% expected)",
        weighted_us / p50_us * 100.0
    ));
    Ok((weighted_us * 1e3 / VECTORS as f64, command))
}
