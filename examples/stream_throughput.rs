//! Blocks: one pass of a compiled program carries up to 64 consecutive
//! vectors of one stream, on both techniques.
//!
//! The PC-set method (paper §2/§6) carries them in the bits of its
//! state words: vector `k` rides bit lane `k`. The parallel technique
//! (§3) has already spent each word's bits on time, so it carries them
//! in more words instead: a lane-major arena holds one word per vector
//! for every slot, and each op is dispatched once per row of lanes: 64
//! vectors per pass, or 8 per pass, group after group, where 64-lane
//! rows would outgrow the lane budget. In a block, lane `k` starts from
//! the settled values of vector `k - 1`, so every vector sees exactly
//! the history it would see run alone.
//!
//! This times one stream a vector per pass and in blocks of 64 on the
//! PC-set engine and on the parallel technique's default program
//! (path tracing with trimming, 64-bit words), then checks every
//! vector's primary-output history on the block path.
//!
//! It prints which instance of the lane pass this CPU runs (x86-64-v4,
//! x86-64-v3 or baseline) and, per circuit, the pt+trim program's
//! liveness-packed lane arena: its rows, lanes per row and size, and
//! whether it runs in blocks.
//!
//! Run with: `cargo run --release --example stream_throughput`, or add
//! `.bench` files to time those instead of the c880 stand-in.

use std::time::Instant;

use unit_delay_sim::core::vectors::RandomVectors;
use unit_delay_sim::core::BLOCK;
use unit_delay_sim::netlist::generators::iscas::Iscas85;
use unit_delay_sim::parallel::ParallelSimulator64;
use unit_delay_sim::prelude::*;

/// The best of three timings of `run` on fresh copies of `compiled`.
fn best_of_three(
    compiled: &dyn UnitDelaySimulator,
    mut run: impl FnMut(&mut dyn UnitDelaySimulator),
) -> f64 {
    (0..3)
        .map(|_| {
            let mut sim = compiled.clone_box();
            let start = Instant::now();
            run(sim.as_mut());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times `engine` on `vectors` both ways and checks every vector's
/// output history on the block path against one vector per pass.
fn time_engine(nl: &Netlist, engine: Engine, vectors: &[Vec<bool>]) -> Result<(), String> {
    let outputs = nl.primary_outputs();
    let blocks: Vec<Vec<&[bool]>> = vectors
        .chunks(BLOCK)
        .map(|block| block.iter().map(Vec::as_slice).collect())
        .collect();
    let compiled = build_simulator(nl, engine).map_err(|e| e.to_string())?;
    let mut finals = vec![0u64; outputs.len()];

    let per_vector = best_of_three(compiled.as_ref(), |sim| {
        for vector in vectors {
            sim.simulate_vector(vector);
        }
    });
    let blocked = best_of_three(compiled.as_ref(), |sim| {
        for block in &blocks {
            sim.simulate_block(block, outputs, &mut finals);
        }
    });

    // Vector `s + j` of a block starting at `s` is the last vector of
    // the block's first `j + 1` lanes, so running that prefix from the
    // block's starting state exposes its history.
    let mut reference = compiled.clone_box();
    let mut sim = compiled;
    let mut index = 0;
    for block in &blocks {
        for lanes in 1..=block.len() {
            reference.simulate_vector(block[lanes - 1]);
            let mut prefix = sim.clone_box();
            prefix.simulate_block(&block[..lanes], outputs, &mut finals);
            for &po in outputs {
                if prefix.history(po) != reference.history(po) {
                    return Err(format!(
                        "{engine}: vector {index}, output {}",
                        nl.net_name(po)
                    ));
                }
            }
            index += 1;
        }
        sim.simulate_block(block, outputs, &mut finals);
        for (&po, &word) in outputs.iter().zip(&finals) {
            if word >> (block.len() - 1) & 1 != u64::from(reference.final_value(po)) {
                return Err(format!("{engine}: block final of {}", nl.net_name(po)));
            }
        }
    }

    let ns = |seconds: f64| seconds * 1e9 / vectors.len() as f64;
    println!(
        "  {engine:<17} one vector per pass {:>7.0} ns/vector, blocks of {} {:>7.0} ns/vector ({:.1}x)",
        ns(per_vector),
        sim.block_len(),
        ns(blocked),
        per_vector / blocked
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let netlists = if paths.is_empty() {
        vec![Iscas85::C880.build()]
    } else {
        let read = |path: &String| -> Result<Netlist, Box<dyn std::error::Error>> {
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|stem| stem.to_str())
                .unwrap_or("circuit");
            Ok(bench_format::parse(&std::fs::read_to_string(path)?, name)?)
        };
        paths.iter().map(read).collect::<Result<_, _>>()?
    };
    println!(
        "parallel blocks run the {} instance of the lane pass",
        unit_delay_sim::parallel::block_isa()
    );
    for nl in &netlists {
        let vectors: Vec<Vec<bool>> = RandomVectors::new(nl.primary_inputs().len(), 1990)
            .take(4096)
            .collect();
        let parallel = ParallelSimulator64::compile(nl, Optimization::PathTracingTrimming)?;
        let rows = parallel.stats().lane_arena_words;
        let lane_arena = match parallel.block_lanes() {
            1 => format!(
                "{rows} rows, {} KiB even at 8 lanes: one vector per pass",
                rows * 8 * 8 / 1024
            ),
            lanes => format!(
                "{rows} rows of {lanes} lanes, {} KiB: runs in blocks",
                rows * lanes * 8 / 1024
            ),
        };
        println!(
            "{}: one stream of {} vectors; pt+trim lane arena {lane_arena}",
            nl.name(),
            vectors.len()
        );
        time_engine(nl, Engine::PcSet, &vectors)?;
        time_engine(nl, Engine::ParallelPathTracingTrimming, &vectors)?;
    }
    println!("every vector's output history agrees on both paths");
    Ok(())
}
