//! The PC-set block path against the event-driven oracle, history by
//! history: a stream fed to [`PcSetSimulator::simulate_block`] (vector
//! `k` of a block on bit lane `k`) must give every vector the waveform
//! of every monitored net that [`TracedEventSim`] records running the
//! vectors one by one.
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
    TracedEventSim, UnitDelaySimulator, BLOCK,
};
use uds_eventsim::zero_delay::stable_states;
use uds_netlist::{bench_format, NetId, Netlist, ResourceLimits};
use uds_pcset::PcSetSimulator;

fn c432() -> Netlist {
    bench_format::parse(include_str!("../../../examples/c432.bench"), "c432").unwrap()
}

fn stimulus(nl: &Netlist, len: usize, seed: u64) -> Vec<Vec<bool>> {
    RandomVectors::new(nl.primary_inputs().len(), seed)
        .take(len)
        .collect()
}

/// Feeds `vectors` to a PC-set engine monitoring every net, in blocks
/// of `lengths` (cycled; 0 is one `simulate_vector` call), from `seed`
/// when given, and checks every vector against the oracle: every net's
/// final value and history, and the block's packed output words.
fn check_stream(nl: &Netlist, vectors: &[Vec<bool>], lengths: &[usize], seed: Option<&[bool]>) {
    let monitored: Vec<NetId> = nl.net_ids().collect();
    let mut engine = PcSetSimulator::compile_with_monitors(nl, &monitored).unwrap();
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
            crosscheck::compare(nl, start, &oracle, &engine).unwrap();
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
            let mut prefix = engine.clone();
            prefix.simulate_block(&block[..lanes], outputs, &mut finals);
            crosscheck::compare(nl, start + lanes - 1, &oracle, &prefix).unwrap();
        }
        engine.simulate_block(&block, outputs, &mut finals);
        assert_eq!(finals, expected, "block at vector {start}");
        crosscheck::compare(nl, start + block.len() - 1, &oracle, &engine).unwrap();
        start += block.len();
    }
}

#[test]
fn streams_at_block_edges_match_the_oracle_on_every_history() {
    let nl = c432();
    for len in [1, 63, 64, 65] {
        check_stream(&nl, &stimulus(&nl, len, len as u64), &[BLOCK], None);
    }
}

#[test]
fn ragged_blocks_match_the_oracle_on_every_history() {
    let nl = c432();
    check_stream(&nl, &stimulus(&nl, 300, 7), &[1, 63, 64, 2, 17, 40], None);
}

#[test]
fn a_4097_vector_stream_matches_the_oracle_on_every_history() {
    let nl = c432();
    check_stream(&nl, &stimulus(&nl, 4097, 1990), &[BLOCK], None);
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
    check_stream(&nl, &vectors, &[BLOCK], Some(&seed));
}

#[test]
fn blocks_mixed_with_single_vectors_match_the_oracle() {
    let nl = c432();
    check_stream(&nl, &stimulus(&nl, 200, 13), &[0, 5, 0, 0, 64, 0, 30], None);
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

#[test]
fn a_panic_inside_a_block_degrades_and_reruns_the_block_bit_exactly() {
    let nl = c432();
    let vectors = stimulus(&nl, 300, 5);
    let expected = oracle_rows(&nl, &vectors);
    // Vector 100 sits inside the block of vectors 64..128: the failing
    // engine's whole block is re-run by the next one, from the
    // checkpoint at vector 63. Once pc-set fails over to the baseline,
    // once it takes over from a failing parallel engine.
    for chain in [
        [Engine::PcSet, Engine::EventDriven],
        [Engine::ParallelPathTracingTrimming, Engine::PcSet],
    ] {
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
            Box::new(ChaosFactory::new(plan)),
        )
        .unwrap();
        let (rows, guard) = stream_rows(&nl, guard, &vectors, 1);
        assert_eq!(rows, expected, "{chain:?}");
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
