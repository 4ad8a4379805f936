//! Exactness contract of the batch runner: sharded execution must be
//! byte-identical to sequential for every engine, shard count, and
//! word width — including while chaos faults knock engines over
//! mid-shard. Seeded and dependency-free (stimulus comes from
//! [`RandomVectors`]).

use std::sync::Arc;

use uds_core::chaos::{ChaosFactory, Fault, FaultPlan};
use uds_core::guard::EngineFactory;
use uds_core::vectors::RandomVectors;
use uds_core::{
    build_native_monitoring, compiler_available, discard, run_batch, run_stream, ActivityProfiler,
    DefaultEngineFactory, Engine, GuardedSimulator, RunControl, SimError, Telemetry,
    TracedEventSim, UnitDelaySimulator, WordWidth, WINDOW,
};
use uds_eventsim::zero_delay::stable_states;
use uds_netlist::generators::iscas::Iscas85;
use uds_netlist::generators::random::{layered, LayeredConfig};
use uds_netlist::{levelize, Netlist, NoopProbe, Probe, ResourceLimits};

/// A circuit deep enough that 32-bit parallel fields span two words and
/// retention (each vector starting from the last one's settled state)
/// actually matters.
fn circuit() -> Netlist {
    let mut config = LayeredConfig::new("batch-prop", 220, 40);
    config.primary_inputs = 8;
    config.seed = 0xBA7C;
    config.locality = 0.4;
    config.xor_fraction = 0.25;
    layered(&config).unwrap()
}

fn stimulus(nl: &Netlist, vectors: usize) -> Vec<Vec<bool>> {
    RandomVectors::new(nl.primary_inputs().len(), 0x5EED_1990)
        .take(vectors)
        .collect()
}

/// Primary-output rows from a plain sequential run of `chain`.
fn sequential_rows(
    nl: &Netlist,
    chain: &[Engine],
    word: WordWidth,
    vectors: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    let factory = Box::new(DefaultEngineFactory::with_word(word));
    let mut guard =
        GuardedSimulator::with_factory(nl, ResourceLimits::production(), chain, factory).unwrap();
    vectors
        .iter()
        .map(|v| {
            guard.simulate_vector(v).unwrap();
            nl.primary_outputs()
                .iter()
                .map(|&po| guard.final_value(po))
                .collect()
        })
        .collect()
}

/// Stream lengths around the runner's window boundaries, each with the
/// job counts that split them.
fn window_cases() -> Vec<(usize, &'static [usize])> {
    let mut cases: Vec<(usize, &'static [usize])> = vec![(40, &[1, 2, 7])];
    for len in [0, 1, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 3] {
        cases.push((len, &[1, 2, 3]));
    }
    cases
}

#[test]
fn batch_is_byte_identical_for_every_engine_job_count_and_width() {
    let nl = circuit();
    let vectors = stimulus(&nl, 2 * WINDOW + 3);
    for engine in [
        Engine::ParallelPathTracingTrimming,
        Engine::Parallel,
        Engine::PcSet,
        Engine::EventDriven,
    ] {
        let chain = [engine];
        for word in [WordWidth::W32, WordWidth::W64] {
            let expected = sequential_rows(&nl, &chain, word, &vectors);
            for (len, jobs) in window_cases() {
                for &jobs in jobs {
                    let factory = Box::new(DefaultEngineFactory::with_word(word));
                    let prototype = GuardedSimulator::with_factory(
                        &nl,
                        ResourceLimits::production(),
                        &chain,
                        factory,
                    )
                    .unwrap();
                    let out = run_batch(&nl, &prototype, &vectors[..len], jobs, None).unwrap();
                    assert!(
                        out.rows == expected[..len],
                        "{engine} diverged at word={word} jobs={jobs} len={len}"
                    );
                    assert_eq!(out.shards.len(), jobs.min(len));
                }
            }
        }
    }
}

#[test]
fn batch_stays_exact_while_chaos_panics_an_engine_in_every_shard() {
    let nl = circuit();
    // The expected answers come from an unsabotaged sequential run.
    // The lead engine panics at its third vector — in *each* shard,
    // since fault coordinates are engine-local. Every worker must
    // degrade independently and still produce the exact rows.
    let plan = FaultPlan::single(
        "panic-mid-shard",
        Fault::RunPanicAt {
            engine: Engine::ParallelPathTracingTrimming,
            vector: 2,
        },
    );
    // The last case spans three windows: each shard's guard, and the
    // fallback it took in the first, carries through the later ones.
    for (len, jobs) in [(30, 1usize), (30, 2), (30, 7), (2 * WINDOW + 3, 3)] {
        let vectors = stimulus(&nl, len);
        let expected = sequential_rows(
            &nl,
            &GuardedSimulator::DEFAULT_CHAIN,
            WordWidth::W32,
            &vectors,
        );
        let telemetry = Telemetry::new();
        let prototype = GuardedSimulator::with_probe(
            Arc::new(nl.clone()),
            ResourceLimits::production(),
            &GuardedSimulator::DEFAULT_CHAIN,
            Box::new(ChaosFactory::new(plan.clone())),
            &telemetry,
            Some(telemetry.clone()),
        )
        .unwrap();
        let out = run_batch(&nl, &prototype, &vectors, jobs, Some(&telemetry)).unwrap();
        assert_eq!(out.rows, expected, "jobs={jobs} len={len}");
        for shard in &out.shards {
            assert!(
                shard.fallbacks > 0,
                "jobs={jobs}: shard {} never hit its injected panic",
                shard.index
            );
            assert_ne!(
                shard.engine,
                Engine::ParallelPathTracingTrimming,
                "jobs={jobs}"
            );
        }
        assert_eq!(
            telemetry.counter("batch.shard_fallbacks"),
            out.shards.iter().map(|s| s.fallbacks as u64).sum::<u64>()
        );
    }
}

#[test]
fn forked_guards_inherit_the_prototype_seed() {
    // Seeding the prototype then batching a *suffix* of the stream must
    // equal the corresponding suffix of the sequential run — the fork
    // carries the seed into shard 0, the prepass covers the rest.
    let nl = circuit();
    let vectors = stimulus(&nl, 20);
    let expected = sequential_rows(
        &nl,
        &GuardedSimulator::DEFAULT_CHAIN,
        WordWidth::W32,
        &vectors,
    );
    let settled = uds_eventsim::zero_delay::stable_states(&nl, [vectors[9].as_slice()])
        .unwrap()
        .remove(0);
    let factory = Box::new(DefaultEngineFactory::default());
    let mut prototype = GuardedSimulator::with_factory(
        &nl,
        ResourceLimits::production(),
        &GuardedSimulator::DEFAULT_CHAIN,
        factory,
    )
    .unwrap();
    prototype.seed_stable(&settled);
    let out = run_batch(&nl, &prototype, &vectors[10..], 3, None).unwrap();
    assert_eq!(out.rows.as_slice(), &expected[10..]);
}

#[test]
fn a_seeded_engine_reproduces_the_sequential_waveforms_exactly() {
    // The guard's checkpoint rests on this: an engine seeded with the
    // zero-delay state of vector k-1 runs vector k exactly as the
    // engine that ran the whole stream does — settled values *and*
    // every waveform it keeps.
    let nl = circuit();
    let vectors = stimulus(&nl, 39);
    let settled = stable_states(&nl, vectors.iter().map(Vec::as_slice)).unwrap();
    let limits = ResourceLimits::production();
    for word in [WordWidth::W32, WordWidth::W64] {
        let factories: [(&str, Box<dyn EngineFactory>); 2] = [
            ("default", Box::new(DefaultEngineFactory::with_word(word))),
            (
                "monitoring",
                Box::new(DefaultEngineFactory {
                    word,
                    monitor_all: true,
                }),
            ),
        ];
        for (factory_name, factory) in &factories {
            for engine in Engine::ALL {
                let fresh = factory.build(&nl, engine, &limits, &NoopProbe).unwrap();
                let mut sequential = fresh.clone_box();
                sequential.simulate_vector(&vectors[0]);
                for k in 1..vectors.len() {
                    sequential.simulate_vector(&vectors[k]);
                    let mut seeded = fresh.clone_box();
                    seeded.seed_stable(&settled[k - 1]);
                    seeded.simulate_vector(&vectors[k]);
                    for net in nl.net_ids() {
                        let at = || {
                            format!(
                                "{engine} {factory_name} word={word} vector {k} net {}",
                                nl.net_name(net)
                            )
                        };
                        assert_eq!(
                            seeded.final_value(net),
                            sequential.final_value(net),
                            "{}",
                            at()
                        );
                        assert_eq!(seeded.history(net), sequential.history(net), "{}", at());
                    }
                }
            }
        }
    }
}

#[test]
fn a_fork_taken_mid_run_degrades_from_the_state_it_was_forked_in() {
    // The prototype runs five vectors; a fork of it runs the sixth, on
    // which the lead engine panics. The replacement must start from the
    // fork's checkpoint, not from power-up, so every waveform it keeps
    // matches the baseline run over all six vectors.
    let nl = circuit();
    let vectors = stimulus(&nl, 6);
    let plan = FaultPlan::single(
        "panic-after-fork",
        Fault::RunPanicAt {
            engine: Engine::ParallelPathTracingTrimming,
            vector: 5,
        },
    );
    let mut prototype = GuardedSimulator::with_factory(
        &nl,
        ResourceLimits::production(),
        &GuardedSimulator::DEFAULT_CHAIN,
        Box::new(ChaosFactory::new(plan)),
    )
    .unwrap();
    for vector in &vectors[..5] {
        prototype.simulate_vector(vector).unwrap();
    }
    let mut fork = prototype.fork();
    assert_eq!(fork.simulate_vector(&vectors[5]).unwrap(), Engine::Parallel);
    let mut baseline = TracedEventSim::new(&nl).unwrap();
    for vector in &vectors {
        baseline.simulate_vector(vector);
    }
    let mut compared = 0;
    let mut differing = Vec::new();
    for net in nl.net_ids() {
        assert_eq!(fork.final_value(net), baseline.final_value(net));
        if let Some(history) = fork.history(net) {
            compared += 1;
            if Some(history) != baseline.history(net) {
                differing.push(nl.net_name(net).to_owned());
            }
        }
    }
    assert!(compared > 0, "the replacement keeps no waveform to compare");
    assert!(
        differing.is_empty(),
        "{} of {compared} net histories differ from the baseline: {differing:?}",
        differing.len()
    );
}

#[test]
fn every_window_seeds_every_shard_from_the_vector_before_it() {
    // Settled rows are history-free, so only the transients can show a
    // shard that started a window from the wrong state. Toggle counts
    // are made of transients: over three windows they must match the
    // sequential run's exactly.
    let nl = circuit();
    let levels = levelize(&nl).unwrap();
    let vectors = stimulus(&nl, 2 * WINDOW + 3);
    let monitored = || {
        let factory = Box::new(DefaultEngineFactory {
            word: WordWidth::W32,
            monitor_all: true,
        });
        let chain = [Engine::ParallelPathTracingTrimming];
        GuardedSimulator::with_factory(&nl, ResourceLimits::production(), &chain, factory).unwrap()
    };
    let profile = |jobs: usize| {
        let control = RunControl {
            jobs,
            ..RunControl::default()
        };
        let shards = run_stream(
            &nl,
            monitored(),
            &vectors,
            vectors.len(),
            control,
            || ActivityProfiler::for_netlist(&nl, &levels),
            discard,
        )
        .unwrap();
        let mut merged = ActivityProfiler::for_netlist(&nl, &levels);
        for shard in &shards {
            merged.merge(&shard.step);
        }
        merged
    };
    let sequential = profile(1);
    for jobs in [2, 3] {
        let sharded = profile(jobs);
        assert_eq!(sharded.per_slot(), sequential.per_slot(), "jobs={jobs}");
        for net in nl.net_ids() {
            assert_eq!(
                sharded.net_toggles(net),
                sequential.net_toggles(net),
                "jobs={jobs}: net {}",
                nl.net_name(net)
            );
        }
    }
}

/// Why a run stopped: a simulation error, or the sink refusing a row.
#[derive(Debug, PartialEq)]
enum Stopped {
    Sim(String),
    Sink(usize),
}

impl From<SimError> for Stopped {
    fn from(err: SimError) -> Self {
        Stopped::Sim(err.to_string())
    }
}

#[test]
fn a_sink_error_stops_the_run_as_it_is() {
    let nl = circuit();
    let vectors = stimulus(&nl, 10);
    for jobs in [1, 2] {
        let prototype = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let control = RunControl {
            jobs,
            ..RunControl::default()
        };
        let mut seen = 0;
        let sink = |index: usize, _: &[bool], _: &[bool]| {
            seen += 1;
            match index {
                4 => Err(Stopped::Sink(index)),
                _ => Ok(()),
            }
        };
        let err = run_stream(&nl, prototype, &vectors, 10, control, || (), sink);
        assert_eq!(err.err(), Some(Stopped::Sink(4)));
        assert_eq!(seen, 5, "jobs={jobs}: no row after the failing one");
    }
}

#[test]
fn telemetry_stays_one_span_per_shard_over_many_windows() {
    let nl = circuit();
    let vectors = stimulus(&nl, 2 * WINDOW + 3);
    let telemetry = Telemetry::new();
    let prototype = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
    run_batch(&nl, &prototype, &vectors, 2, Some(&telemetry)).unwrap();
    let report = telemetry.snapshot();
    let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
    let count = |name: &str| names.iter().filter(|&&n| n == name).count();
    assert_eq!(count("batch.prepass"), 1, "{names:?}");
    assert_eq!(count("batch.shard.0"), 1, "{names:?}");
    assert_eq!(count("batch.shard.1"), 1, "{names:?}");
    assert_eq!(
        telemetry.gauge_value("batch.vectors_per_shard"),
        Some(WINDOW as u64 + 2)
    );
}

/// Builds every chain entry as the all-nets-monitored native engine of
/// one flavor, so a guard over it keeps every net's history.
#[derive(Clone, Copy)]
struct NativeFlavor {
    flavor: Engine,
    word: WordWidth,
}

impl EngineFactory for NativeFlavor {
    fn build(
        &self,
        netlist: &Netlist,
        _engine: Engine,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        build_native_monitoring(netlist, self.flavor, self.word, limits, probe)
    }

    fn clone_box(&self) -> Box<dyn EngineFactory> {
        Box::new(*self)
    }
}

#[test]
fn native_forks_run_concurrently_on_one_loaded_object() {
    // Forks of one native guard share one loaded kernel and nothing
    // else: each call runs on its own fork's arena, with no lock. Two
    // threads with different stimulus, released together, must each
    // match the event-driven baseline row for row and history for
    // history. The PC-set stream is always 64-bit, so it runs once.
    if !compiler_available() {
        eprintln!("SKIP native_forks_run_concurrently_on_one_loaded_object: no C compiler on PATH");
        return;
    }
    for nl in [circuit(), Iscas85::C432.build()] {
        let width = nl.primary_inputs().len();
        let prefix: Vec<Vec<bool>> = RandomVectors::new(width, 0x0F0F).take(8).collect();
        for (flavor, word) in [
            (Engine::ParallelPathTracingTrimming, WordWidth::W32),
            (Engine::ParallelPathTracingTrimming, WordWidth::W64),
            (Engine::PcSet, WordWidth::W64),
        ] {
            let case = format!("{} {flavor} w{}", nl.name(), word.bits());
            let factory = Box::new(NativeFlavor { flavor, word });
            let mut prototype = GuardedSimulator::with_factory(
                &nl,
                ResourceLimits::production(),
                &[Engine::Native],
                factory,
            )
            .unwrap();
            // Fork mid-run, so the forks start from a retained state.
            for vector in &prefix {
                prototype.simulate_vector(vector).unwrap();
            }
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for seed in [0xA11CE, 0xB0B] {
                    let (mut fork, nl, prefix, barrier, case) =
                        (prototype.fork(), &nl, &prefix, &barrier, &case);
                    scope.spawn(move || {
                        let mut baseline = TracedEventSim::new(nl).unwrap();
                        for vector in prefix {
                            UnitDelaySimulator::simulate_vector(&mut baseline, vector);
                        }
                        barrier.wait();
                        for (index, vector) in RandomVectors::new(width, seed).take(300).enumerate()
                        {
                            fork.simulate_vector(&vector).unwrap();
                            UnitDelaySimulator::simulate_vector(&mut baseline, &vector);
                            assert_eq!(fork.active_engine(), Engine::Native, "{case}");
                            for net in nl.net_ids() {
                                let history = fork.history(net);
                                assert!(history.is_some(), "{case}: every net is monitored");
                                assert_eq!(
                                    history,
                                    baseline.history(net),
                                    "{case} seed {seed:#x}: vector {index}, net {}",
                                    nl.net_name(net)
                                );
                                assert_eq!(fork.final_value(net), baseline.final_value(net));
                            }
                        }
                    });
                }
            });
        }
    }
}
