//! The PC-set method's data-parallel edge (paper §3/§6): every state
//! word has 64 bit lanes, so one pass over the compiled program can
//! carry 64 consecutive vectors of one stream — the "bit-parallel
//! simulation of multiple input vectors" the paper notes the parallel
//! technique cannot do (its word dimension is already spent on time).
//! In a block, lane `k` retains the settled values of lane `k - 1`, so
//! every vector sees exactly the history it would see run alone.
//!
//! This times one stream run a vector per pass and in blocks of 64,
//! then checks every vector's primary-output history on both paths.
//!
//! Run with: `cargo run --release --example stream_throughput`

use std::time::Instant;

use unit_delay_sim::core::vectors::RandomVectors;
use unit_delay_sim::core::BLOCK;
use unit_delay_sim::netlist::generators::iscas::Iscas85;
use unit_delay_sim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nl = Iscas85::C880.build();
    let outputs = nl.primary_outputs();
    let vectors: Vec<Vec<bool>> = RandomVectors::new(nl.primary_inputs().len(), 1990)
        .take(4096)
        .collect();
    let blocks: Vec<Vec<&[bool]>> = vectors
        .chunks(BLOCK)
        .map(|block| block.iter().map(Vec::as_slice).collect())
        .collect();
    let compiled = PcSetSimulator::compile(&nl)?;

    let mut sim = compiled.clone();
    let start = Instant::now();
    for vector in &vectors {
        sim.simulate_vector(vector);
    }
    let per_vector = start.elapsed().as_secs_f64();

    let mut sim = compiled.clone();
    let mut finals = vec![0u64; outputs.len()];
    let start = Instant::now();
    for block in &blocks {
        sim.simulate_block(block, outputs, &mut finals);
    }
    let blocked = start.elapsed().as_secs_f64();

    // Vector `s + j` of a block starting at `s` is the last vector of
    // the block's first `j + 1` lanes, so running that prefix from the
    // block's starting state exposes its history.
    let mut reference = compiled.clone();
    let mut sim = compiled;
    let mut index = 0;
    for block in &blocks {
        for lanes in 1..=block.len() {
            reference.simulate_vector(block[lanes - 1]);
            let mut prefix = sim.clone();
            prefix.simulate_block(&block[..lanes], outputs, &mut finals);
            for &po in outputs {
                assert_eq!(
                    prefix.history(po),
                    reference.history(po),
                    "vector {index}, output {}",
                    nl.net_name(po)
                );
            }
            index += 1;
        }
        sim.simulate_block(block, outputs, &mut finals);
        for (&po, &word) in outputs.iter().zip(&finals) {
            assert_eq!(
                word >> (block.len() - 1) & 1 != 0,
                reference.final_value(po)
            );
        }
    }

    let rate = |seconds: f64| vectors.len() as f64 / seconds;
    println!("{}: one stream of {} vectors", nl.name(), vectors.len());
    println!(
        "  one vector per pass: {per_vector:.4} s ({:.0} vectors/s)",
        rate(per_vector)
    );
    println!(
        "  {BLOCK} vectors per pass: {blocked:.4} s ({:.0} vectors/s)",
        rate(blocked)
    );
    println!(
        "  speedup:             {:.1}x (a block costs a settle sweep plus one pass)",
        per_vector / blocked
    );
    println!("  every vector's output history agrees on both paths");
    Ok(())
}
