//! The block paths against the event-driven oracle, history by
//! history: a stream fed to `simulate_block` — vector `k` of a block on
//! bit lane `k` of the PC-set engine, on word lane `k` of the parallel
//! technique's lane arena — must give every vector the waveform of
//! every net that [`TracedEventSim`] records running the vectors one by
//! one. The parallel engines run every optimization at both word
//! widths.
//!
//! Settled rows — what `--crosscheck` compares — do not depend on
//! retained state, so a retention bug leaves them intact; the histories
//! checked here do depend on it. A block exposes only its last vector's
//! history, so vector `s + j` of a block starting at `s` is checked as
//! the last vector of the block's first `j + 1` lanes, run from a copy
//! of the block's starting state. Lane `j` sees only its own inputs and
//! the carry from lane `j - 1`, so that prefix computes it exactly as
//! the whole block does.

// SimError is large but cold; see guard.rs.
#![allow(clippy::result_large_err)]

use uds_core::chaos::{ChaosFactory, Fault, FaultPlan};
use uds_core::vectors::RandomVectors;
use uds_core::{
    crosscheck, run_stream, Engine, FailureClass, GuardedSimulator, RunControl, SimError,
    TracedEventSim, UnitDelaySimulator, WordWidth, BLOCK,
};
use uds_eventsim::zero_delay::stable_states;
use uds_netlist::{bench_format, NetId, Netlist, ResourceLimits};
use uds_parallel::{Optimization, ParallelSim, Word};
use uds_pcset::PcSetSimulator;

fn c432() -> Netlist {
    bench_format::parse(include_str!("../../../examples/c432.bench"), "c432").unwrap()
}

fn stimulus(nl: &Netlist, len: usize, seed: u64) -> Vec<Vec<bool>> {
    RandomVectors::new(nl.primary_inputs().len(), seed)
        .take(len)
        .collect()
}

fn parallel<W: Word>(nl: &Netlist, optimization: Optimization) -> Box<dyn UnitDelaySimulator> {
    Box::new(ParallelSim::<W>::compile_monitoring_all(nl, optimization).unwrap())
}

/// Every block engine, each monitoring every net, with a label: the
/// PC-set engine, then every parallel optimization at 32 and 64 bits.
fn block_engines(nl: &Netlist) -> Vec<(String, Box<dyn UnitDelaySimulator>)> {
    let monitored: Vec<NetId> = nl.net_ids().collect();
    let pc_set = PcSetSimulator::compile_with_monitors(nl, &monitored).unwrap();
    let mut engines: Vec<(String, Box<dyn UnitDelaySimulator>)> =
        vec![("pc-set".to_owned(), Box::new(pc_set))];
    for optimization in Optimization::ALL {
        engines.push((
            format!("{optimization} w32"),
            parallel::<u32>(nl, optimization),
        ));
        engines.push((
            format!("{optimization} w64"),
            parallel::<u64>(nl, optimization),
        ));
    }
    for (label, engine) in &engines {
        assert_eq!(engine.block_len(), BLOCK, "{label}: c432 runs in blocks");
    }
    engines
}

/// The programs whose blocks run in groups of 8 lanes: c1908's
/// unoptimized and trimmed programs, each monitoring every net, at both
/// widths. They write every field in their init block, so their packed
/// 64-lane rows outgrow the lane budget and their 8-lane rows fit.
fn eight_lane_engines(nl: &Netlist) -> Vec<(String, Box<dyn UnitDelaySimulator>)> {
    fn eight_lane<W: Word>(
        nl: &Netlist,
        optimization: Optimization,
    ) -> (String, Box<dyn UnitDelaySimulator>) {
        let sim = ParallelSim::<W>::compile_monitoring_all(nl, optimization).unwrap();
        let label = format!("{} {optimization} w{}", nl.name(), W::BITS);
        assert_eq!((sim.block_len(), sim.block_lanes()), (BLOCK, 8), "{label}");
        (label, Box::new(sim))
    }
    let mut engines = Vec::new();
    for optimization in [Optimization::None, Optimization::Trimming] {
        engines.push(eight_lane::<u32>(nl, optimization));
        engines.push(eight_lane::<u64>(nl, optimization));
    }
    engines
}

fn c1908() -> Netlist {
    uds_netlist::generators::iscas::Iscas85::C1908.build()
}

/// Feeds `vectors` to a copy of `engine` in blocks of `lengths`
/// (cycled; 0 is one `simulate_vector` call), from `seed` when given,
/// and checks every vector against the oracle: the block's packed
/// output words, and — every vector's with `prefixes`, else each
/// block's last — every net's final value and history.
fn check_stream(
    nl: &Netlist,
    (label, engine): &(String, Box<dyn UnitDelaySimulator>),
    vectors: &[Vec<bool>],
    lengths: &[usize],
    seed: Option<&[bool]>,
    prefixes: bool,
) {
    let mut engine = engine.clone_box();
    let mut oracle = TracedEventSim::new(nl).unwrap();
    if let Some(state) = seed {
        engine.seed_stable(state);
        oracle.seed_stable(state);
    }
    let outputs = nl.primary_outputs();
    let mut finals = vec![0u64; outputs.len()];
    let mut start = 0;
    for &len in lengths.iter().cycle() {
        if start == vectors.len() {
            break;
        }
        if len == 0 {
            engine.simulate_vector(&vectors[start]);
            oracle.simulate_vector(&vectors[start]);
            crosscheck::compare(nl, start, &oracle, engine.as_ref()).unwrap();
            start += 1;
            continue;
        }
        let block: Vec<&[bool]> = vectors[start..vectors.len().min(start + len)]
            .iter()
            .map(Vec::as_slice)
            .collect();
        let mut expected = vec![0u64; outputs.len()];
        for lanes in 1..=block.len() {
            oracle.simulate_vector(block[lanes - 1]);
            for (word, &po) in expected.iter_mut().zip(outputs) {
                *word |= u64::from(oracle.final_value(po)) << (lanes - 1);
            }
            if prefixes {
                let mut prefix = engine.clone_box();
                prefix.simulate_block(&block[..lanes], outputs, &mut finals);
                let at = start + lanes - 1;
                if let Err(mismatch) = crosscheck::compare(nl, at, &oracle, prefix.as_ref()) {
                    panic!("{label}: {mismatch}");
                }
            }
        }
        engine.simulate_block(&block, outputs, &mut finals);
        assert_eq!(finals, expected, "{label}: block at vector {start}");
        let last = start + block.len() - 1;
        if let Err(mismatch) = crosscheck::compare(nl, last, &oracle, engine.as_ref()) {
            panic!("{label}: {mismatch}");
        }
        start += block.len();
    }
}

#[test]
fn streams_at_block_edges_match_the_oracle_on_every_history() {
    let nl = c432();
    for engine in &block_engines(&nl) {
        for len in [1, 63, 64, 65] {
            let vectors = stimulus(&nl, len, len as u64);
            check_stream(&nl, engine, &vectors, &[BLOCK], None, true);
        }
    }
}

/// Streams that end inside, at and just past an 8-lane group's edge,
/// every vector's history checked.
#[test]
fn eight_lane_streams_at_group_edges_match_the_oracle_on_every_history() {
    let nl = c1908();
    for engine in &eight_lane_engines(&nl) {
        for len in [2, 7, 8, 9, 15, 64, 65] {
            let vectors = stimulus(&nl, len, len as u64);
            check_stream(&nl, engine, &vectors, &[BLOCK], None, true);
        }
    }
}

#[test]
fn ragged_blocks_match_the_oracle_on_every_history() {
    let nl = c432();
    for engine in &block_engines(&nl) {
        let vectors = stimulus(&nl, 300, 7);
        check_stream(&nl, engine, &vectors, &[1, 63, 64, 2, 17, 40], None, true);
    }
}

/// Every vector's history on the PC-set engine; each block's last
/// vector's on the parallel engines, c432's and c1908's 8-lane
/// programs, whose every prefix the shorter streams check.
#[test]
fn a_4097_vector_stream_matches_the_oracle_on_every_history() {
    let nl = c432();
    let vectors = stimulus(&nl, 4097, 1990);
    for engine in &block_engines(&nl) {
        let prefixes = engine.0 == "pc-set";
        check_stream(&nl, engine, &vectors, &[BLOCK], None, prefixes);
    }
    // One 8-lane program per width keeps the oracle's time in bounds.
    let nl = c1908();
    let vectors = stimulus(&nl, 4097, 1990);
    let engines = eight_lane_engines(&nl);
    let one_per_width: Vec<_> = engines
        .iter()
        .filter(|(label, _)| label.ends_with("unoptimized w32") || label.ends_with("trimming w64"))
        .collect();
    assert_eq!(one_per_width.len(), 2);
    for engine in one_per_width {
        check_stream(&nl, engine, &vectors, &[BLOCK], None, false);
    }
}

#[test]
fn blocks_after_seed_stable_start_from_the_seed() {
    let nl = c432();
    let vectors = stimulus(&nl, 130, 11);
    let before = stimulus(&nl, 1, 12);
    let seed = stable_states(&nl, [before[0].as_slice()])
        .unwrap()
        .pop()
        .unwrap();
    for engine in &block_engines(&nl) {
        check_stream(&nl, engine, &vectors, &[BLOCK], Some(&seed), true);
    }
}

#[test]
fn blocks_mixed_with_single_vectors_match_the_oracle() {
    let nl = c432();
    let vectors = stimulus(&nl, 200, 13);
    for engine in &block_engines(&nl) {
        check_stream(&nl, engine, &vectors, &[0, 5, 0, 0, 64, 0, 30], None, true);
    }
}

/// The oracle's primary-output rows for `vectors`, run one by one.
fn oracle_rows(nl: &Netlist, vectors: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let mut oracle = TracedEventSim::new(nl).unwrap();
    vectors
        .iter()
        .map(|vector| {
            oracle.simulate_vector(vector);
            let outputs = nl.primary_outputs();
            outputs.iter().map(|&po| oracle.final_value(po)).collect()
        })
        .collect()
}

/// Runs `vectors` through `guard` with `run_stream`, collecting rows.
fn stream_rows(
    nl: &Netlist,
    guard: GuardedSimulator,
    vectors: &[Vec<bool>],
    jobs: usize,
) -> (Vec<Vec<bool>>, GuardedSimulator) {
    let mut rows = Vec::new();
    let control = RunControl {
        jobs,
        ..RunControl::default()
    };
    let mut shards = run_stream(
        nl,
        guard,
        vectors,
        vectors.len(),
        control,
        || (),
        |_, _, row| {
            rows.push(row.to_vec());
            Ok::<_, SimError>(())
        },
    )
    .unwrap();
    (rows, shards.pop().unwrap().guard)
}

#[test]
fn guarded_pc_set_rows_match_the_oracle_at_block_edges() {
    let nl = c432();
    for len in [1, 63, 64, 65, 4097] {
        let vectors = stimulus(&nl, len, 3);
        let expected = oracle_rows(&nl, &vectors);
        for jobs in [1, 2] {
            let guard = GuardedSimulator::with_factory(
                &nl,
                ResourceLimits::production(),
                &[Engine::PcSet],
                Box::new(uds_core::DefaultEngineFactory::default()),
            )
            .unwrap();
            let (rows, _) = stream_rows(&nl, guard, &vectors, jobs);
            assert_eq!(rows, expected, "{len} vectors, jobs {jobs}");
        }
    }
}

/// The parallel engines [`Engine`] names: every optimization but
/// cycle breaking with trimming, which only the direct checks above
/// reach.
const PARALLEL_ENGINES: [Engine; 5] = [
    Engine::Parallel,
    Engine::ParallelTrimming,
    Engine::ParallelPathTracing,
    Engine::ParallelPathTracingTrimming,
    Engine::ParallelCycleBreaking,
];

#[test]
fn guarded_parallel_rows_match_the_oracle_at_block_edges() {
    let nl = c432();
    for len in [1, 63, 64, 65, 4097] {
        let vectors = stimulus(&nl, len, 3);
        let expected = oracle_rows(&nl, &vectors);
        for engine in PARALLEL_ENGINES {
            for word in [WordWidth::W32, WordWidth::W64] {
                for jobs in [1, 2] {
                    let guard = GuardedSimulator::with_factory(
                        &nl,
                        ResourceLimits::production(),
                        &[engine],
                        Box::new(uds_core::DefaultEngineFactory::with_word(word)),
                    )
                    .unwrap();
                    assert_eq!(guard.block_len(), BLOCK, "{engine} w{word}");
                    let (rows, _) = stream_rows(&nl, guard, &vectors, jobs);
                    assert_eq!(
                        rows, expected,
                        "{engine} w{word}: {len} vectors, jobs {jobs}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_panic_inside_a_block_degrades_and_reruns_the_block_bit_exactly() {
    let nl = c432();
    let vectors = stimulus(&nl, 300, 5);
    let expected = oracle_rows(&nl, &vectors);
    // Vector 100 sits inside the block of vectors 64..128: the failing
    // engine's whole block is re-run by the next one, from the
    // checkpoint at vector 63. Once pc-set fails over to the baseline;
    // then each parallel engine fails over to pc-set, and takes over
    // from a failing pc-set, re-running the block on its lane arena.
    let mut chains = vec![([Engine::PcSet, Engine::EventDriven], WordWidth::W64)];
    for engine in PARALLEL_ENGINES {
        for word in [WordWidth::W32, WordWidth::W64] {
            chains.push(([engine, Engine::PcSet], word));
            chains.push(([Engine::PcSet, engine], word));
        }
    }
    for (chain, word) in chains {
        let plan = FaultPlan::single(
            "panic in a block",
            Fault::RunPanicAt {
                engine: chain[0],
                vector: 100,
            },
        );
        let guard = GuardedSimulator::with_factory(
            &nl,
            ResourceLimits::production(),
            &chain,
            Box::new(ChaosFactory::with_word(plan, word)),
        )
        .unwrap();
        let (rows, guard) = stream_rows(&nl, guard, &vectors, 1);
        assert_eq!(rows, expected, "{chain:?} w{word}");
        assert_eq!(guard.active_engine(), chain[1]);
        let fired = guard.fallbacks();
        assert_eq!(fired.len(), 1, "{chain:?}");
        assert_eq!(fired[0].error.class(), FailureClass::Panic);
        assert!(
            fired[0].error.to_string().contains("vector 100"),
            "{}",
            fired[0].error
        );
        // The survivor's waveforms are the oracle's for the last vector.
        let mut oracle = TracedEventSim::new(&nl).unwrap();
        for vector in &vectors {
            oracle.simulate_vector(vector);
        }
        crosscheck::compare(&nl, vectors.len() - 1, &oracle, guard.active_simulator()).unwrap();
    }
}
