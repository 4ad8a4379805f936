//! The comparison-field hazard test on raw bit-fields must agree with
//! the net's reconstructed history — at most one transition at times
//! `0..=depth` — for every net, optimization and word width, on random
//! circuits and vectors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uds_netlist::generators::random::{layered, LayeredConfig};
use uds_netlist::{GateKind, NetId, Netlist, NetlistBuilder};
use uds_parallel::{Optimization, ParallelSim, ParallelSimulator, Word};

/// Transitions of a history, counted pair by pair.
fn history_transitions(history: &[bool]) -> usize {
    (1..history.len())
        .filter(|&t| history[t] != history[t - 1])
        .count()
}

fn random_circuit(seed: u64) -> Netlist {
    let mut config = LayeredConfig::new("hz", 180, 40);
    config.seed = seed;
    config.xor_fraction = 0.4;
    config.primary_inputs = 8;
    layered(&config).unwrap()
}

fn check_against_history<W: Word>(nl: &Netlist, seed: u64) {
    for optimization in Optimization::ALL {
        let mut monitored = ParallelSim::<W>::compile_monitoring_all(nl, optimization).unwrap();
        let mut outputs_only = ParallelSim::<W>::compile(nl, optimization).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4A2);
        for _ in 0..6 {
            let inputs: Vec<bool> = (0..8).map(|_| rng.gen()).collect();
            monitored.simulate_vector(&inputs);
            outputs_only.simulate_vector(&inputs);
            for net in nl.net_ids() {
                let history = monitored.history(net).expect("monitoring all nets");
                assert_eq!(
                    monitored.is_hazard_free(net),
                    Some(history_transitions(&history) <= 1),
                    "{optimization} w{}: net {net} history {history:?}",
                    W::BITS,
                );
                // Unmonitored nets whose field starts at their minlevel
                // have no history, and then no verdict either.
                assert_eq!(
                    outputs_only.is_hazard_free(net).is_none(),
                    outputs_only.history(net).is_none(),
                    "{optimization} w{}: net {net}",
                    W::BITS,
                );
            }
        }
    }
}

#[test]
fn field_hazard_test_matches_the_history_on_every_net() {
    for seed in 0..5u64 {
        let nl = random_circuit(seed);
        check_against_history::<u32>(&nl, seed);
        check_against_history::<u64>(&nl, seed);
    }
}

fn and_not(a_name: &str) -> (Netlist, NetId) {
    let mut b = NetlistBuilder::new();
    let a = b.input(a_name);
    let na = b.gate(GateKind::Not, &[a], "na").unwrap();
    let y = b.gate(GateKind::And, &[a, na], "y").unwrap();
    b.output(y);
    (b.finish().unwrap(), y)
}

#[test]
fn classic_static_hazard_is_detected_under_every_optimization() {
    // y = AND(a, NOT a) pulses 0 → 1 → 0 on a rising a. Path tracing
    // aligns y's field at its minlevel 1, so the rise is the step from
    // the pre-field value into bit 0.
    let (nl, y) = and_not("a");
    for optimization in Optimization::ALL {
        let mut sim = ParallelSimulator::compile(&nl, optimization).unwrap();
        sim.simulate_vector(&[false]);
        assert_eq!(sim.is_hazard_free(y), Some(true), "{optimization}");
        sim.simulate_vector(&[true]);
        assert_eq!(sim.history(y), Some(vec![false, true, false]));
        assert_eq!(sim.is_hazard_free(y), Some(false), "{optimization}");
    }
}

#[test]
fn a_clean_edge_is_hazard_free() {
    let mut b = NetlistBuilder::new();
    let a = b.input("a");
    let y = b.gate(GateKind::Buf, &[a], "y").unwrap();
    b.output(y);
    let nl = b.finish().unwrap();
    for optimization in Optimization::ALL {
        let mut sim = ParallelSimulator::compile(&nl, optimization).unwrap();
        sim.simulate_vector(&[false]);
        assert_eq!(sim.for_each_toggle_in_field(y, &mut |_| {}), Some(0));
        sim.simulate_vector(&[true]);
        assert_eq!(sim.for_each_toggle_in_field(y, &mut |_| {}), Some(1));
        assert_eq!(sim.is_hazard_free(y), Some(true), "{optimization}");
    }
}
