//! Hazard hunting with the parallel technique: one compiled pass yields
//! the unit-delay history of every net the program keeps a field for,
//! so glitch detection is a post-processing scan (the analysis §3 of
//! the paper sketches with comparison fields). Without monitoring, path
//! tracing keeps no history for some internal nets; the scan counts
//! them and the totals below cover only the nets it could read.
//!
//! Run with: `cargo run --release --example hazard_hunt`

use unit_delay_sim::core::hazard::{self, Activity};
use unit_delay_sim::core::vectors::RandomVectors;
use unit_delay_sim::netlist::generators::alu::alu;
use unit_delay_sim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-bit ALU: the select lines fan out everywhere, so operation
    // switches race against data paths — fertile ground for hazards.
    let nl = alu(8)?;
    let mut sim = ParallelSimulator::compile(&nl, Optimization::PathTracingTrimming)?;

    let mut static_hazards = 0usize;
    let mut dynamic_hazards = 0usize;
    let mut worst: Option<(usize, hazard::Hazard)> = None;
    let (mut examined, mut unreadable) = (0usize, 0usize);

    let vectors = 2_000;
    for (index, vector) in RandomVectors::new(nl.primary_inputs().len(), 0xA10)
        .take(vectors)
        .enumerate()
    {
        sim.simulate_vector(&vector);
        let scan = hazard::scan(&nl, &sim);
        // The same nets are readable after every vector.
        (examined, unreadable) = (scan.examined, scan.unreadable);
        for found in scan.hazards {
            match found.activity {
                Activity::StaticHazard => static_hazards += 1,
                Activity::DynamicHazard => dynamic_hazards += 1,
                _ => {}
            }
            let is_worse = worst
                .as_ref()
                .map(|(_, w)| found.toggles > w.toggles)
                .unwrap_or(true);
            if is_worse {
                worst = Some((index, found));
            }
        }
    }

    println!("scanned {vectors} random vectors on `{}`:", nl.name());
    println!(
        "  nets scanned per vector:    {examined} of {} ({unreadable} keep no history)",
        nl.net_count()
    );
    println!("  static hazards (pulses):    {static_hazards}");
    println!("  dynamic hazards (stutters): {dynamic_hazards}");
    if let Some((vector_index, hazard)) = worst {
        let bits: String = hazard
            .history
            .iter()
            .map(|&b| char::from(b'0' + b as u8))
            .collect();
        println!(
            "  busiest net: {} on vector {vector_index}: {bits}",
            nl.net_name(hazard.net),
        );
    }
    Ok(())
}
