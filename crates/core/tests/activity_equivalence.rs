//! S3 property: toggle counts are an engine-, word-width-, and
//! jobs-invariant of the circuit.
//!
//! The parallel engine counts toggles word-parallel over its bit-fields
//! (`popcount(f ^ (f >> 1))`, trimming/alignment-aware); every other
//! engine derives them from complete histories. On random layered
//! netlists those must agree toggle-for-toggle with the transitions of
//! the sequential reference waveforms — per net, per time slot, for
//! both 32- and 64-bit words, and with the batch runner at any shard
//! count.

use std::sync::Arc;
use uds_core::vectors::RandomVectors;

use uds_core::{
    discard, run_stream, ActivityProfiler, DefaultEngineFactory, Engine, GuardedSimulator,
    RunControl, Telemetry, UnitDelaySimulator, WordWidth,
};
use uds_netlist::generators::random::{layered, LayeredConfig};
use uds_netlist::{levelize, Netlist, ResourceLimits};

/// The randomized corpus: varied depth, gate mix, and locality so
/// trimming and shift elimination all have something to chew on.
fn corpus() -> Vec<Netlist> {
    let mut configs = [
        LayeredConfig::new("act-a", 60, 6),
        LayeredConfig::new("act-b", 200, 33),
        LayeredConfig::new("act-c", 120, 17),
    ];
    configs[1].xor_fraction = 0.4;
    configs[1].seed = 0xA11CE;
    configs[2].locality = 0.9;
    configs[2].inverter_fraction = 0.3;
    configs[2].seed = 0xB0B;
    configs
        .iter()
        .map(|c| layered(c).expect("satisfiable config"))
        .collect()
}

/// A sim for `engine` at `word` with every net observable.
fn monitored(netlist: &Netlist, engine: Engine, word: WordWidth) -> GuardedSimulator {
    GuardedSimulator::with_factory(
        netlist,
        ResourceLimits::unlimited(),
        &[engine],
        Box::new(DefaultEngineFactory {
            word,
            monitor_all: true,
        }),
    )
    .expect("combinational netlist compiles on every engine")
}

fn stimulus(netlist: &Netlist, vectors: usize) -> Vec<Vec<bool>> {
    RandomVectors::new(netlist.primary_inputs().len(), 0xD5EED)
        .take(vectors)
        .collect()
}

/// Toggle times of `net` re-derived from the history, independently of
/// `for_each_toggle`'s own default implementation.
fn history_toggles(sim: &dyn UnitDelaySimulator, net: uds_netlist::NetId) -> Vec<u32> {
    let history = sim.history(net).expect("monitored net has a history");
    assert_eq!(history.len() as u32, sim.depth() + 1);
    (1..history.len())
        .filter(|&t| history[t] != history[t - 1])
        .map(|t| t as u32)
        .collect()
}

/// Per-vector, per-net: the word-parallel toggle visitor must report
/// exactly the transitions visible in the same engine's own waveform —
/// and the profiler totals must be identical across every engine and
/// word width.
#[test]
fn toggle_counts_are_engine_and_word_width_invariant() {
    for netlist in corpus() {
        let levels = levelize(&netlist).expect("combinational");
        let stimulus = stimulus(&netlist, 12);
        let mut reference: Option<(ActivityProfiler, String)> = None;
        for engine in Engine::ALL {
            for word in [WordWidth::W32, WordWidth::W64] {
                let mut sim = monitored(&netlist, engine, word);
                let mut profiler = ActivityProfiler::for_netlist(&netlist, &levels);
                for vector in &stimulus {
                    sim.simulate_vector(vector).expect("in-budget");
                    let active = sim.active_simulator();
                    for net in netlist.net_ids() {
                        let mut visited = Vec::new();
                        let count = active
                            .for_each_toggle(net, &mut |t| visited.push(t))
                            .expect("monitored build observes every net");
                        assert_eq!(count as usize, visited.len());
                        // Visit order is unspecified (shift-eliminated
                        // fields are not time-monotone); the *set* of
                        // toggle times is the invariant.
                        visited.sort_unstable();
                        assert_eq!(
                            visited,
                            history_toggles(active, net),
                            "{engine} w{} {}: net {net:?} toggle times disagree \
                             with this engine's own waveform",
                            word.bits(),
                            netlist.name(),
                        );
                    }
                    profiler.record_vector(active);
                }
                assert_eq!(profiler.unobserved_nets(), 0);
                match &reference {
                    None => reference = Some((profiler, format!("{engine}/w{}", word.bits()))),
                    Some((reference, from)) => {
                        assert_eq!(
                            reference.total_toggles(),
                            profiler.total_toggles(),
                            "{}: {engine} w{} total disagrees with {from}",
                            netlist.name(),
                            word.bits(),
                        );
                        assert_eq!(reference.per_slot(), profiler.per_slot());
                        for net in netlist.net_ids() {
                            assert_eq!(reference.net_toggles(net), profiler.net_toggles(net));
                        }
                    }
                }
            }
        }
    }
}

/// The event-driven baseline's own toggle counter (incremented per
/// committed event at time >= 1) agrees with the profiler built from
/// its waveforms.
#[test]
fn eventsim_toggle_counter_matches_profiled_toggles() {
    for netlist in corpus() {
        let levels = levelize(&netlist).expect("combinational");
        let mut sim = monitored(&netlist, Engine::EventDriven, WordWidth::default());
        let mut profiler = ActivityProfiler::for_netlist(&netlist, &levels);
        for vector in &stimulus(&netlist, 12) {
            sim.simulate_vector(vector).expect("in-budget");
            profiler.record_vector(sim.active_simulator());
        }
        let counters = sim.active_simulator().run_counters();
        let counted = counters
            .iter()
            .find(|(name, _)| *name == "eventsim.toggles")
            .expect("event-driven engine exports eventsim.toggles")
            .1;
        assert_eq!(
            counted,
            profiler.total_toggles(),
            "{}: the engine's committed-event count must equal the \
             waveform-derived toggle count",
            netlist.name(),
        );
    }
}

/// Sharding the stream over workers never changes what toggles: the
/// merged batch profile equals the sequential one, for every jobs
/// value, because each shard is seeded with the zero-delay settled
/// state at its boundary.
#[test]
fn batch_sharding_preserves_toggle_counts() {
    let netlist = &corpus()[1];
    let levels = levelize(netlist).expect("combinational");
    let stimulus = stimulus(netlist, 40);

    let mut sequential = monitored(netlist, Engine::ParallelPathTracingTrimming, WordWidth::W64);
    let mut expected = ActivityProfiler::for_netlist(netlist, &levels);
    for vector in &stimulus {
        sequential.simulate_vector(vector).expect("in-budget");
        expected.record_vector(sequential.active_simulator());
    }

    for jobs in [1, 2, 3, 5] {
        let telemetry = Telemetry::new();
        let prototype = GuardedSimulator::with_probe(
            Arc::new(netlist.clone()),
            ResourceLimits::unlimited(),
            &[Engine::ParallelPathTracingTrimming],
            Box::new(DefaultEngineFactory {
                word: WordWidth::W64,
                monitor_all: true,
            }),
            &telemetry,
            Some(telemetry.clone()),
        )
        .expect("compiles");
        let control = RunControl {
            jobs,
            telemetry: Some(&telemetry),
            ..RunControl::default()
        };
        let shards = run_stream(
            netlist,
            prototype,
            &stimulus,
            stimulus.len(),
            control,
            || ActivityProfiler::for_netlist(netlist, &levels),
            discard,
        )
        .expect("batch succeeds");
        let mut merged = ActivityProfiler::for_netlist(netlist, &levels);
        for shard in &shards {
            merged.merge(&shard.step);
        }
        assert_eq!(merged.vectors(), expected.vectors());
        assert_eq!(
            merged.total_toggles(),
            expected.total_toggles(),
            "jobs={jobs} changed the total toggle count"
        );
        assert_eq!(merged.per_slot(), expected.per_slot(), "jobs={jobs}");
        for net in netlist.net_ids() {
            assert_eq!(
                merged.net_toggles(net),
                expected.net_toggles(net),
                "jobs={jobs}: net {net:?}"
            );
        }
    }
}
