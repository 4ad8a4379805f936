//! Simulating a synchronous sequential circuit by cutting it at its
//! flip-flops (§1 of the paper): a 4-bit counter built from DFFs and a
//! half-adder chain, clocked for 20 cycles on a compiled simulator.
//!
//! Run with: `cargo run --example sequential_counter`

use unit_delay_sim::core::sequential::SequentialSimulator;
use unit_delay_sim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // q' = q + en (4-bit increment when en is high): next[i] =
    // q[i] XOR carry[i], carry[0] = en, carry[i+1] = q[i] AND carry[i].
    let bits = 4;
    let mut b = NetlistBuilder::named("counter4");
    let en = b.input("en");
    let q: Vec<NetId> = (0..bits)
        .map(|i| b.get_or_create_net(&format!("q{i}")))
        .collect();
    let mut carry = en;
    for (i, &qi) in q.iter().enumerate() {
        let next = b.gate(GateKind::Xor, &[qi, carry], format!("d{i}"))?;
        b.gate_onto(GateKind::Dff, &[next], qi)?;
        if i + 1 < bits {
            carry = b.gate(GateKind::And, &[qi, carry], format!("c{i}"))?;
        }
        b.output(qi);
    }
    let nl = b.finish()?;
    assert!(nl.is_sequential());

    // Cut at the flip-flops (their outputs become pseudo inputs, their
    // inputs pseudo outputs) and compile the combinational remainder;
    // each clock cycle is one compiled vector with every D fed back
    // into its Q.
    let mut sim = SequentialSimulator::new(&nl, Engine::ParallelPathTracingTrimming)?;
    println!(
        "cut `{}`: {} state bits, combinational depth {}",
        nl.name(),
        sim.state_bits(),
        levelize(&sim.cut().combinational)?.depth
    );

    println!("cycle  en  count");
    for cycle in 0..20 {
        let en_bit = cycle < 12; // stop counting after 12 cycles
        sim.clock(&[en_bit]);
        let count: u32 = q
            .iter()
            .enumerate()
            .map(|(i, &net)| (sim.output_bit(net) as u32) << i)
            .sum();
        println!("{cycle:>5}  {:>2}  {count:>5}", en_bit as u8);
        let expected = (cycle + 1).min(12) % 16;
        assert_eq!(count, expected as u32);
    }
    println!("counter matched the architectural model for all 20 cycles");
    Ok(())
}
