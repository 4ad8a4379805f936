//! Workspace-level integration: every engine, every circuit family, one
//! invariant — identical unit-delay behavior everywhere.

use unit_delay_sim::core::crosscheck;
use unit_delay_sim::core::vectors::{Exhaustive, RandomVectors, WalkingOnes};
use unit_delay_sim::core::{build_simulator_with_word, WordWidth};
use unit_delay_sim::netlist::generators::adders::{ripple_carry_adder, AdderStyle};
use unit_delay_sim::netlist::generators::alu::alu;
use unit_delay_sim::netlist::generators::comparator::comparator;
use unit_delay_sim::netlist::generators::iscas::{c17, Iscas85};
use unit_delay_sim::netlist::generators::multiplier::array_multiplier;
use unit_delay_sim::netlist::generators::random::{layered, LayeredConfig};
use unit_delay_sim::netlist::generators::shifter::{barrel_shifter, priority_encoder};
use unit_delay_sim::netlist::generators::trees::{decoder, mux_tree};
use unit_delay_sim::prelude::*;

const PARALLEL_ENGINES: [Engine; 5] = [
    Engine::Parallel,
    Engine::ParallelTrimming,
    Engine::ParallelPathTracing,
    Engine::ParallelPathTracingTrimming,
    Engine::ParallelCycleBreaking,
];

/// Every interpreted engine at both arena word widths: the paper's
/// 32-bit words and the 64-bit runtime default.
fn all_engines(nl: &Netlist) -> Vec<Box<dyn UnitDelaySimulator>> {
    [WordWidth::W32, WordWidth::W64]
        .into_iter()
        .flat_map(|word| {
            Engine::ALL.map(|e| build_simulator_with_word(nl, e, word).expect("engine builds"))
        })
        .collect()
}

#[test]
fn c17_exhaustive_pairs() {
    // Every consecutive pair of the 32 patterns, in both orders.
    let nl = c17();
    let mut sims = all_engines(&nl);
    let stimulus: Vec<Vec<bool>> = Exhaustive::new(5)
        .chain(Exhaustive::new(5).skip(1))
        .collect();
    crosscheck::run(&nl, &mut sims, stimulus).unwrap();
}

#[test]
fn ripple_adder_walking_and_random() {
    let nl = ripple_carry_adder(8, AdderStyle::NativeXor).unwrap();
    let width = nl.primary_inputs().len();
    let mut sims = all_engines(&nl);
    let stimulus: Vec<Vec<bool>> = WalkingOnes::new(width)
        .take(2 * width)
        .chain(RandomVectors::new(width, 3).take(60))
        .collect();
    crosscheck::run(&nl, &mut sims, stimulus).unwrap();
}

#[test]
fn multiplier_random() {
    let nl = array_multiplier(6, 6, AdderStyle::ExpandedXor).unwrap();
    let mut sims = all_engines(&nl);
    crosscheck::run(&nl, &mut sims, RandomVectors::new(12, 4).take(60)).unwrap();
}

#[test]
fn alu_and_comparator_and_mux() {
    for nl in [
        alu(6).unwrap(),
        comparator(6).unwrap(),
        mux_tree(4).unwrap(),
        decoder(4).unwrap(),
        barrel_shifter(3).unwrap(),
        priority_encoder(8).unwrap(),
    ] {
        let width = nl.primary_inputs().len();
        let mut sims = all_engines(&nl);
        crosscheck::run(&nl, &mut sims, RandomVectors::new(width, 5).take(50))
            .unwrap_or_else(|e| panic!("{}: {e}", nl.name()));
    }
}

#[test]
fn c432_standin_all_engines() {
    let nl = Iscas85::C432.build();
    let width = nl.primary_inputs().len();
    let mut sims = all_engines(&nl);
    crosscheck::run(&nl, &mut sims, RandomVectors::new(width, 6).take(15)).unwrap();
}

#[test]
fn c1908_standin_two_word_fields() {
    // Depth 40: 2-word fields at 32 bits, one word at 64.
    let nl = Iscas85::C1908.build();
    let width = nl.primary_inputs().len();
    let mut sims = all_engines(&nl);
    crosscheck::run(&nl, &mut sims, RandomVectors::new(width, 7).take(6)).unwrap();
}

#[test]
fn c6288_standin_four_word_fields() {
    // The deepest circuit: 4-word bit-fields at the paper's 32-bit
    // words, the multiplier stand-in.
    let nl = Iscas85::C6288.build();
    let width = nl.primary_inputs().len();
    let mut sims: Vec<Box<dyn UnitDelaySimulator>> = [
        Engine::EventDriven,
        Engine::PcSet,
        Engine::Parallel,
        Engine::ParallelTrimming,
        Engine::ParallelPathTracingTrimming,
    ]
    .into_iter()
    .map(|e| build_simulator_with_word(&nl, e, WordWidth::W32).unwrap())
    .collect();
    crosscheck::run(&nl, &mut sims, RandomVectors::new(width, 8).take(4)).unwrap();
}

#[test]
fn c6288_standin_cycle_breaking_and_64_bit_words() {
    // The deep-field shift kernels on the multiplier: cycle breaking's
    // left shifts and output re-alignments at 32 bits, and every
    // parallel mode's 2-word fields at 64 bits.
    let nl = Iscas85::C6288.build();
    let width = nl.primary_inputs().len();
    let mut sims = vec![
        build_simulator(&nl, Engine::EventDriven).unwrap(),
        build_simulator_with_word(&nl, Engine::ParallelCycleBreaking, WordWidth::W32).unwrap(),
    ];
    for engine in PARALLEL_ENGINES {
        sims.push(build_simulator_with_word(&nl, engine, WordWidth::W64).unwrap());
    }
    crosscheck::run(&nl, &mut sims, RandomVectors::new(width, 11).take(3)).unwrap();
}

#[test]
fn layered_depth_129_five_word_fields_every_parallel_mode() {
    // 130 time steps: 5-word fields at 32 bits, so shifted presentations
    // run the generic (more than 4 words) funnel; 3 words at 64 bits.
    let mut config = LayeredConfig::new("deep129", 400, 129);
    config.primary_inputs = 12;
    config.xor_fraction = 0.3;
    config.inverter_fraction = 0.15;
    let nl = layered(&config).unwrap();
    assert_eq!(levelize(&nl).unwrap().depth, 129);
    let width = nl.primary_inputs().len();
    let mut sims = vec![build_simulator(&nl, Engine::EventDriven).unwrap()];
    for word in [WordWidth::W32, WordWidth::W64] {
        for engine in PARALLEL_ENGINES {
            sims.push(build_simulator_with_word(&nl, engine, word).unwrap());
        }
    }
    crosscheck::run(&nl, &mut sims, RandomVectors::new(width, 12).take(12)).unwrap();
}

#[test]
fn zero_delay_simulators_agree_with_final_values() {
    use unit_delay_sim::eventsim::zero_delay::{ZeroDelayCompiled, ZeroDelayInterpreted};
    let nl = Iscas85::C499.build();
    let width = nl.primary_inputs().len();
    let mut unit = build_simulator(&nl, Engine::ParallelPathTracingTrimming).unwrap();
    let mut interp = ZeroDelayInterpreted::new(&nl).unwrap();
    let mut compiled = ZeroDelayCompiled::compile(&nl).unwrap();
    for vector in RandomVectors::new(width, 9).take(30) {
        unit.simulate_vector(&vector);
        interp.simulate_vector(&vector);
        compiled.simulate_vector(&vector);
        for &po in nl.primary_outputs() {
            assert_eq!(unit.final_value(po), interp.value(po));
            assert_eq!(unit.final_value(po), compiled.value(po));
        }
    }
}

#[test]
fn cone_extraction_preserves_behavior_under_all_engines() {
    use unit_delay_sim::netlist::cone;
    let nl = Iscas85::C880.build();
    let root = nl.primary_outputs()[3];
    let cone = cone::extract(&nl, &[root]);
    let cone_root = cone.to_cone(root).unwrap();

    let mut full = build_simulator(&nl, Engine::EventDriven).unwrap();
    let mut sims = all_engines(&cone.netlist);

    // Drive both with consistent assignments: cone inputs are a subset
    // of the full circuit's inputs, matched by name.
    let full_width = nl.primary_inputs().len();
    for vector in RandomVectors::new(full_width, 77).take(20) {
        full.simulate_vector(&vector);
        let cone_vector: Vec<bool> = cone
            .netlist
            .primary_inputs()
            .iter()
            .map(|&pi| {
                let name = cone.netlist.net_name(pi);
                let original = nl
                    .find_net(name)
                    .expect("cone inputs exist in the full circuit");
                let position = nl
                    .primary_inputs()
                    .iter()
                    .position(|&n| n == original)
                    .expect("cone inputs are primary inputs");
                vector[position]
            })
            .collect();
        for sim in &mut sims {
            sim.simulate_vector(&cone_vector);
            assert_eq!(
                sim.final_value(cone_root),
                full.final_value(root),
                "{} diverged on the cone",
                sim.engine_name()
            );
        }
    }
}

#[test]
fn bench_format_round_trip_preserves_behavior() {
    let nl = Iscas85::C432.build();
    let text = bench_format::write(&nl);
    let reparsed = bench_format::parse(&text, "c432").unwrap();
    let width = nl.primary_inputs().len();
    let mut a = build_simulator(&nl, Engine::ParallelPathTracingTrimming).unwrap();
    let mut b = build_simulator(&reparsed, Engine::ParallelPathTracingTrimming).unwrap();
    for vector in RandomVectors::new(width, 10).take(10) {
        a.simulate_vector(&vector);
        b.simulate_vector(&vector);
        for (&pa, &pb) in nl.primary_outputs().iter().zip(reparsed.primary_outputs()) {
            assert_eq!(a.final_value(pa), b.final_value(pb));
        }
    }
}
