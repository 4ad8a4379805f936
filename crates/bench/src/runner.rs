//! Measurement code behind the `tables` binary.
//!
//! Methodology mirrors §5 of the paper: each circuit is driven with
//! seeded random vectors; reported times exclude circuit compilation and
//! stimulus generation (the paper excludes reading vectors, printing
//! output, and compiling circuit descriptions). Each measurement runs
//! one untimed warmup pass (page faults, cache and branch-predictor
//! warming) and then [`TIMING_REPS`] timed repetitions of at least
//! [`MIN_REP_SECONDS`] each (short passes repeat inside a repetition,
//! and a sample is seconds per pass), reporting the
//! minimum and the median — min is the least noise-inflated estimate
//! of the true cost, and the median, which ignores one interference
//! spike without letting the optimistic minimum hide a real slowdown,
//! is the statistic the `tables compare` regression gate reads
//! (DESIGN.md §16).
//!
//! Static metrics (word operations, retained shifts, levels/words) are
//! sourced from the compilers' own telemetry gauges (DESIGN.md §11)
//! rather than recomputed here, so the tables and `--stats` reports can
//! never disagree.

use std::time::Instant;

use uds_core::telemetry::json::Json;
use uds_core::vectors::RandomVectors;
use uds_core::{
    run_batch, ActivityProfiler, DefaultEngineFactory, Engine, GuardedSimulator, Telemetry,
    WordWidth,
};
use uds_eventsim::zero_delay::{ZeroDelayCompiled, ZeroDelayInterpreted};
use uds_eventsim::ConventionalEventDriven;
use uds_netlist::generators::iscas::Iscas85;
use uds_netlist::{Logic3, Netlist, ResourceLimits};
use uds_parallel::{Optimization, ParallelSimulator};
use uds_pcset::PcSetSimulator;

/// Stimulus seed used everywhere, so every engine sees the same stream.
pub const STIMULUS_SEED: u64 = 0x5EED_1990;

/// Arena word width of every engine the figures build: the paper's
/// 32-bit machine model, whatever [`WordWidth::default`] the runtime
/// uses. The fingerprint reports it as `word_bits`, and `tables
/// compare` keys cells by it, so the committed `BENCH_*.json` stay
/// comparable.
pub const BENCH_WORD: WordWidth = WordWidth::W32;

/// Timed repetitions per measurement (after one untimed warmup pass).
pub const TIMING_REPS: usize = 3;

/// The host fingerprint stamped into every figure document: the core
/// calibration plus the two constants the bench layer owns (arena word
/// width [`BENCH_WORD`], [`TIMING_REPS`]).
pub fn fingerprint() -> Json {
    let calibration = uds_core::calibrate();
    let Json::Obj(mut members) = calibration.to_json() else {
        unreachable!("Calibration::to_json returns an object");
    };
    members.push((
        "word_bits".to_owned(),
        Json::UInt(u64::from(BENCH_WORD.bits())),
    ));
    members.push(("timing_reps".to_owned(), Json::UInt(TIMING_REPS as u64)));
    Json::Obj(members)
}

/// One timing measurement over [`TIMING_REPS`] repetitions.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Timing {
    /// Fastest repetition — the best estimate of the true cost.
    pub min_s: f64,
    /// Median repetition — the statistic `tables compare` gates on.
    pub median_s: f64,
    /// Repetitions behind the statistics above.
    pub reps: usize,
}

impl Timing {
    /// Folds raw per-repetition samples into the reported statistics.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn from_samples(mut samples: Vec<f64>) -> Timing {
        assert!(!samples.is_empty(), "at least one timing sample");
        samples.sort_by(f64::total_cmp);
        let reps = samples.len();
        Timing {
            min_s: samples[0],
            median_s: samples[reps / 2],
            reps,
        }
    }
}

/// Pre-generates `vectors` random input vectors for `netlist`.
pub fn stimulus(netlist: &Netlist, vectors: usize) -> Vec<Vec<bool>> {
    RandomVectors::new(netlist.primary_inputs().len(), STIMULUS_SEED)
        .take(vectors)
        .collect()
}

/// Shortest timed repetition: a repetition repeats its pass until it
/// has run this long, so a busy moment of the host is a small part of
/// any sample even for a pass of a few milliseconds.
pub const MIN_REP_SECONDS: f64 = 0.05;

/// Runs `pass` once untimed (warmup), then [`TIMING_REPS`] timed
/// repetitions, each of as many passes as it takes to reach
/// [`MIN_REP_SECONDS`]. Samples are seconds per pass.
pub fn time_passes(mut pass: impl FnMut()) -> Timing {
    pass();
    let samples: Vec<f64> = (0..TIMING_REPS)
        .map(|_| {
            let start = Instant::now();
            let mut passes = 0u32;
            loop {
                pass();
                passes += 1;
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed >= MIN_REP_SECONDS {
                    break elapsed / f64::from(passes);
                }
            }
        })
        .collect();
    Timing::from_samples(samples)
}

/// Times `run` over all of `stimulus` (warmup + repetitions).
pub fn time_over(stimulus: &[Vec<bool>], mut run: impl FnMut(&[bool])) -> Timing {
    time_passes(|| {
        for vector in stimulus {
            run(vector);
        }
    })
}

/// Measured timings for one circuit under the four Fig. 19 techniques,
/// plus the PC-set engine stepping the same stream in blocks of
/// [`BLOCK`](uds_core::BLOCK) vectors (`pc_set` is the paper's measure:
/// one vector per pass).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Fig19Measurement {
    pub interpreted_3v: Timing,
    pub interpreted_2v: Timing,
    pub pc_set: Timing,
    pub pc_set_block: Timing,
    pub parallel: Timing,
}

/// Runs the Fig. 19 comparison on one circuit.
pub fn fig19(netlist: &Netlist, vectors: usize) -> Fig19Measurement {
    let stimulus = stimulus(netlist, vectors);
    let stimulus_3v: Vec<Vec<Logic3>> = stimulus
        .iter()
        .map(|v| v.iter().map(|&b| Logic3::from_bool(b)).collect())
        .collect();

    // The interpreted baselines use the *conventional* engine — timing
    // wheel, linked event records, per-pin activation — the cost model
    // of the simulators the paper compares against (DESIGN.md §4).
    let mut e3 = ConventionalEventDriven::<Logic3>::new(netlist).expect("combinational");
    let interpreted_3v = time_passes(|| {
        for vector in &stimulus_3v {
            e3.simulate_vector(vector);
        }
    });

    let mut e2 = ConventionalEventDriven::<bool>::new(netlist).expect("combinational");
    let interpreted_2v = time_over(&stimulus, |v| {
        e2.simulate_vector(v);
    });

    let mut pc = PcSetSimulator::compile(netlist).expect("combinational");
    let pc_set = time_over(&stimulus, |v| pc.simulate_vector(v));
    let blocks: Vec<Vec<&[bool]>> = stimulus
        .chunks(uds_core::BLOCK)
        .map(|block| block.iter().map(Vec::as_slice).collect())
        .collect();
    let outputs = netlist.primary_outputs();
    let mut finals = vec![0u64; outputs.len()];
    let pc_set_block = time_passes(|| {
        for block in &blocks {
            pc.simulate_block(block, outputs, &mut finals);
        }
    });

    let mut par = ParallelSimulator::compile(netlist, Optimization::None).expect("combinational");
    let parallel = time_over(&stimulus, |v| par.simulate_vector(v));

    Fig19Measurement {
        interpreted_3v,
        interpreted_2v,
        pc_set,
        pc_set_block,
        parallel,
    }
}

/// Measured timing for one parallel-technique optimization level.
pub fn time_parallel(netlist: &Netlist, optimization: Optimization, vectors: usize) -> Timing {
    let stimulus = stimulus(netlist, vectors);
    let mut sim = ParallelSimulator::compile(netlist, optimization).expect("combinational");
    time_over(&stimulus, |v| sim.simulate_vector(v))
}

/// Measured timing for the native engine: the emitted parallel
/// (pt+trim) C compiled with the system C compiler and `dlopen`-loaded
/// (DESIGN.md — the paper's actual deployment model, where the
/// generated C *is* the simulator). Returns `None` when no C compiler
/// is on `PATH`, so sweeps print a visible skip instead of failing.
/// Compilation (both the Rust-side netlist compile and the `cc` run)
/// happens outside the clock, like every other engine's compile.
pub fn time_native(netlist: &Netlist, vectors: usize) -> Option<Timing> {
    if !uds_core::compiler_available() {
        return None;
    }
    let stimulus = stimulus(netlist, vectors);
    let mut sim = uds_core::build_simulator_with_word(netlist, Engine::Native, BENCH_WORD)
        .expect("native engine builds when a C compiler is present");
    Some(time_over(&stimulus, |v| {
        sim.simulate_vector(v);
    }))
}

/// Compiles `netlist` at `optimization` with a fresh telemetry registry
/// attached and returns the registry (holding the compile gauges).
pub fn parallel_telemetry(netlist: &Netlist, optimization: Optimization) -> Telemetry {
    let telemetry = Telemetry::new();
    ParallelSimulator::compile_probed(
        netlist,
        optimization,
        false,
        &ResourceLimits::unlimited(),
        &telemetry,
    )
    .expect("combinational");
    telemetry
}

/// Reads a gauge the compiler is contractually required to set.
fn gauge(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry
        .gauge_value(name)
        .unwrap_or_else(|| panic!("compiler did not record gauge `{name}`"))
}

/// Straight-line word operations per vector for one optimization level —
/// the generated-code-size proxy, read from the compiler's
/// `parallel.<opt>.word_ops` telemetry gauge. On the paper's 1990 scalar
/// CPU, runtime was proportional to this statement count; the op-count
/// reduction is therefore the faithful reproduction of Figs. 20, 23 and
/// 24, while wall-clock on a modern out-of-order core compresses per-op
/// differences (see EXPERIMENTS.md).
pub fn word_ops(netlist: &Netlist, optimization: Optimization) -> usize {
    let telemetry = parallel_telemetry(netlist, optimization);
    gauge(
        &telemetry,
        &format!("parallel.{}.word_ops", optimization.key()),
    ) as usize
}

/// Fig. 20 static columns: levels (= depth + 1) and words per field,
/// from the `parallel.levels` / `parallel.field_words` gauges.
pub fn levels_and_words(netlist: &Netlist) -> (u32, u32) {
    let telemetry = parallel_telemetry(netlist, Optimization::None);
    (
        gauge(&telemetry, "parallel.levels") as u32,
        gauge(&telemetry, "parallel.field_words") as u32,
    )
}

/// Fig. 21/22 static analysis for one circuit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShiftAnalysis {
    /// Shifts in the unoptimized code: one per gate.
    pub unoptimized_shifts: usize,
    pub path_tracing_shifts: usize,
    pub cycle_breaking_shifts: usize,
    /// Maximum bit-field width (bits): unoptimized = levels.
    pub unoptimized_width: u32,
    pub path_tracing_width: u32,
    pub cycle_breaking_width: u32,
}

/// Runs both shift-elimination analyses on one circuit, reading the
/// results from the compilers' telemetry gauges.
pub fn shift_analysis(netlist: &Netlist) -> ShiftAnalysis {
    let telemetry = Telemetry::new();
    for optimization in [
        Optimization::None,
        Optimization::PathTracing,
        Optimization::CycleBreaking,
    ] {
        ParallelSimulator::compile_probed(
            netlist,
            optimization,
            false,
            &ResourceLimits::unlimited(),
            &telemetry,
        )
        .expect("combinational");
    }
    ShiftAnalysis {
        unoptimized_shifts: gauge(&telemetry, "parallel.none.shifts_retained") as usize,
        path_tracing_shifts: gauge(&telemetry, "parallel.pt.shifts_retained") as usize,
        cycle_breaking_shifts: gauge(&telemetry, "parallel.cb.shifts_retained") as usize,
        unoptimized_width: gauge(&telemetry, "parallel.none.max_width_bits") as u32,
        path_tracing_width: gauge(&telemetry, "parallel.pt.max_width_bits") as u32,
        cycle_breaking_width: gauge(&telemetry, "parallel.cb.max_width_bits") as u32,
    }
}

/// Times the batch runner at `jobs` workers over a pre-generated
/// stimulus: each pass forks a guarded parallel+pt+trim engine per
/// shard (zero-delay-seeded) and runs the whole stream. Compilation
/// happens once, outside the clock; the per-pass fork + prepass +
/// simulate + assemble *is* the measured multi-core cost.
pub fn time_batch(netlist: &Netlist, stimulus: &[Vec<bool>], jobs: usize) -> Timing {
    let prototype = GuardedSimulator::with_factory(
        netlist,
        ResourceLimits::unlimited(),
        &[Engine::ParallelPathTracingTrimming],
        Box::new(DefaultEngineFactory::with_word(BENCH_WORD)),
    )
    .expect("combinational");
    time_passes(|| {
        run_batch(netlist, &prototype, stimulus, jobs, None).expect("batch run succeeds");
    })
}

/// Measured activity factor of one circuit under the bench stimulus:
/// total toggles / (nets × depth × vectors), profiled word-parallel
/// from a monitoring parallel+pt+trim engine's bit-fields. The
/// event-driven technique's per-vector cost is proportional to this
/// fraction while the compiled techniques' cost is fixed, so it is the
/// context column for the Fig. 19 compiled-vs-interpreted comparison:
/// the lower the activity, the more work the event queue avoids and
/// the smaller the compiled speedup.
pub fn activity_factor(netlist: &Netlist, vectors: usize) -> f64 {
    let stimulus = stimulus(netlist, vectors);
    let levels = uds_netlist::levelize(netlist).expect("combinational");
    let mut sim =
        ParallelSimulator::compile_monitoring_all(netlist, Optimization::PathTracingTrimming)
            .expect("combinational");
    let mut profiler = ActivityProfiler::for_netlist(netlist, &levels);
    for vector in &stimulus {
        sim.simulate_vector(vector);
        profiler.record_vector(&sim);
    }
    profiler.activity_factor()
}

/// Profiled per-level measurement for one engine: one untimed warmup,
/// then [`TIMING_REPS`] fully profiled repetitions of the whole
/// stimulus. The [`Timing`] is built from each repetition's profiled
/// span (so the compare gate watches the *profiled* throughput — a
/// timer-overhead regression shows up here), and the returned report is
/// the last repetition's merged per-level breakdown with the engine's
/// static cost model alongside.
pub fn hotspot_profile(
    netlist: &Netlist,
    engine: Engine,
    vectors: usize,
) -> (uds_core::hotspot::HotspotReport, Timing) {
    let stimulus = stimulus(netlist, vectors);
    let guard = GuardedSimulator::with_factory(
        netlist,
        ResourceLimits::unlimited(),
        &[engine],
        Box::new(DefaultEngineFactory::with_word(BENCH_WORD)),
    )
    .expect("combinational");
    let word_bits = BENCH_WORD.bits();
    let run = || {
        uds_core::hotspot::collect(netlist, &guard, &stimulus, stimulus.len(), 1, word_bits)
            .expect("profiled run succeeds")
    };
    let mut last = run(); // warmup
    let samples: Vec<f64> = (0..TIMING_REPS)
        .map(|_| {
            last = run();
            last.span_ns as f64 / 1e9
        })
        .collect();
    (last, Timing::from_samples(samples))
}

/// Zero-delay comparison (the §5 aside): seconds for interpreted vs
/// compiled levelized zero-delay simulation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ZeroDelayMeasurement {
    pub interpreted: Timing,
    pub compiled: Timing,
}

/// Runs the zero-delay comparison on one circuit.
pub fn zero_delay(netlist: &Netlist, vectors: usize) -> ZeroDelayMeasurement {
    let stimulus = stimulus(netlist, vectors);
    let mut interp = ZeroDelayInterpreted::new(netlist).expect("combinational");
    let interpreted = time_over(&stimulus, |v| interp.simulate_vector(v));
    let mut comp = ZeroDelayCompiled::compile(netlist).expect("combinational");
    let compiled = time_over(&stimulus, |v| comp.simulate_vector(v));
    ZeroDelayMeasurement {
        interpreted,
        compiled,
    }
}

/// The circuits a bench sweep covers, with their built netlists.
pub fn suite() -> Vec<(Iscas85, Netlist)> {
    Iscas85::ALL
        .iter()
        .map(|&circuit| (circuit, circuit.build()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_reports_the_papers_word_whatever_the_runtime_default() {
        let doc = fingerprint();
        assert_eq!(doc.get("word_bits").and_then(Json::as_u64), Some(32));
    }

    #[test]
    fn fig19_measures_all_four_techniques() {
        let nl = Iscas85::C432.build();
        let m = fig19(&nl, 20);
        for timing in [
            m.interpreted_3v,
            m.interpreted_2v,
            m.pc_set,
            m.pc_set_block,
            m.parallel,
        ] {
            assert!(timing.min_s >= 0.0);
            assert!(
                timing.median_s >= timing.min_s,
                "median cannot undercut the minimum"
            );
            assert_eq!(timing.reps, TIMING_REPS);
        }
    }

    #[test]
    fn timing_statistics_from_samples() {
        // The median ignores the 0.1 outlier; min is the fastest rep.
        let t = Timing::from_samples(vec![0.03, 0.01, 0.1, 0.02, 0.04]);
        assert_eq!((t.min_s, t.median_s, t.reps), (0.01, 0.03, 5));
        let t = Timing::from_samples(vec![3.0, 1.0, 2.0]);
        assert_eq!((t.min_s, t.median_s, t.reps), (1.0, 2.0, 3));
    }

    #[test]
    fn levels_and_words_match_calibration() {
        for (circuit, nl) in suite() {
            let (levels, words) = levels_and_words(&nl);
            if circuit != Iscas85::C6288 {
                assert_eq!(levels, circuit.target().depth + 1, "{circuit}");
            }
            assert_eq!(words as usize, circuit.target().words, "{circuit}");
        }
    }

    #[test]
    fn shift_analysis_orders_hold_on_c432() {
        let nl = Iscas85::C432.build();
        let analysis = shift_analysis(&nl);
        assert_eq!(analysis.unoptimized_shifts, 160);
        assert!(analysis.path_tracing_shifts < analysis.unoptimized_shifts);
        assert!(analysis.path_tracing_width <= analysis.unoptimized_width);
        assert!(analysis.cycle_breaking_width > analysis.path_tracing_width);
    }

    #[test]
    fn time_batch_measures_a_sharded_run() {
        let nl = Iscas85::C432.build();
        let stimulus = stimulus(&nl, 24);
        let timing = time_batch(&nl, &stimulus, 2);
        assert!(timing.min_s >= 0.0);
        assert!(timing.median_s >= timing.min_s);
    }

    #[test]
    fn activity_factor_is_in_the_unit_interval_and_deterministic() {
        let nl = Iscas85::C432.build();
        let a = activity_factor(&nl, 50);
        assert!(a > 0.0 && a < 1.0, "c432 under random stimulus: {a}");
        assert_eq!(a, activity_factor(&nl, 50), "same stimulus, same factor");
    }

    #[test]
    fn short_passes_repeat_to_the_minimum_repetition_time() {
        // Only lower bounds on time are asserted: a loaded host makes
        // every pass and repetition longer, never shorter.
        let pass = std::time::Duration::from_millis(5);
        let mut calls = 0u32;
        let mut warmed: Option<Instant> = None;
        let timing = time_passes(|| {
            calls += 1;
            std::thread::sleep(pass);
            warmed.get_or_insert_with(Instant::now);
        });
        let timed_s = warmed.expect("the warmup pass ran").elapsed().as_secs_f64();
        let timed_passes = f64::from(calls - 1);
        // Every repetition lasts at least MIN_REP_SECONDS.
        assert!(
            timed_s >= TIMING_REPS as f64 * MIN_REP_SECONDS,
            "{timed_s} s over {TIMING_REPS} repetitions"
        );
        // Each sample is its repetition's time per pass: no shorter than
        // one pass, and the samples times their passes fit the time.
        assert!(timing.min_s >= pass.as_secs_f64(), "per pass: {timing:?}");
        assert!(
            timing.min_s * timed_passes <= timed_s,
            "per pass, not per repetition: {timing:?} over {timed_passes} passes in {timed_s} s"
        );
    }

    #[test]
    fn stimulus_is_deterministic() {
        let nl = Iscas85::C432.build();
        assert_eq!(stimulus(&nl, 5), stimulus(&nl, 5));
    }
}
