//! Property-based tests for PC-set algebra, the PC-set algorithm's
//! invariants, and the compiled simulator's agreement with a zero-delay
//! oracle on randomized circuits.

use proptest::prelude::*;

use uds_netlist::generators::random::{layered, LayeredConfig};
use uds_netlist::{levelize, Netlist};
use uds_pcset::{zero_insert, PcSet, PcSetSimulator, PcSets};

fn times_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..200, 0..12)
}

fn small_circuit_strategy() -> impl Strategy<Value = (Netlist, u64)> {
    (
        1u32..=15,
        0usize..=80,
        1usize..=12,
        any::<u64>(),
        0.0f64..=1.0,
    )
        .prop_map(|(depth, extra, pis, seed, locality)| {
            let mut config = LayeredConfig::new("prop", depth as usize + extra, depth);
            config.primary_inputs = pis;
            config.primary_outputs = 4;
            config.seed = seed;
            config.locality = locality;
            config.xor_fraction = 0.3;
            (layered(&config).expect("valid config"), seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn union_is_commutative_associative_idempotent(
        a in times_strategy(), b in times_strategy(), c in times_strategy()
    ) {
        let (a, b, c) = (PcSet::from_times(a), PcSet::from_times(b), PcSet::from_times(c));
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert_eq!(a.union(&PcSet::new()), a);
    }

    #[test]
    fn increment_shifts_every_element(a in times_strategy()) {
        let set = PcSet::from_times(a);
        let inc = set.incremented();
        prop_assert_eq!(inc.len(), set.len());
        for (&x, &y) in set.times().iter().zip(inc.times()) {
            prop_assert_eq!(y, x + 1);
        }
    }

    #[test]
    fn largest_below_matches_naive(a in times_strategy(), probe in 0u32..220) {
        let set = PcSet::from_times(a.clone());
        let naive = a.iter().copied().filter(|&t| t < probe).max();
        prop_assert_eq!(set.largest_below(probe), naive);
        let naive_le = a.iter().copied().filter(|&t| t <= probe).max();
        prop_assert_eq!(set.largest_at_or_below(probe), naive_le);
    }

    #[test]
    fn pc_sets_bound_by_levels((nl, _) in small_circuit_strategy()) {
        let sets = PcSets::compute(&nl).unwrap();
        let levels = levelize(&nl).unwrap();
        for net in nl.net_ids() {
            let set = &sets.net[net];
            prop_assert_eq!(set.min().unwrap(), levels.net_minlevel[net]);
            prop_assert_eq!(set.max().unwrap(), levels.net_level[net]);
            prop_assert!(
                set.len() as u32 <= levels.net_level[net] - levels.net_minlevel[net] + 1
            );
        }
    }

    #[test]
    fn gate_sets_are_incremented_unions((nl, _) in small_circuit_strategy()) {
        let sets = PcSets::compute(&nl).unwrap();
        for gid in nl.gate_ids() {
            let gate = nl.gate(gid);
            let mut union = PcSet::new();
            for &input in &gate.inputs {
                union = union.union(&sets.net[input]);
            }
            prop_assert_eq!(sets.gate[gid.index()].clone(), union.incremented());
        }
    }

    #[test]
    fn zero_insertion_is_idempotent((nl, _) in small_circuit_strategy()) {
        let mut sets = PcSets::compute(&nl).unwrap();
        let monitored: Vec<_> = nl.primary_outputs().to_vec();
        zero_insert::insert_zeros(&nl, &mut sets, &monitored);
        let after_once = sets.clone();
        let second = zero_insert::insert_zeros(&nl, &mut sets, &monitored);
        prop_assert_eq!(sets, after_once);
        prop_assert_eq!(second.retained_count(), 0);
    }

    #[test]
    fn final_values_match_zero_delay_oracle(
        (nl, seed) in small_circuit_strategy(),
        vector_count in 1usize..6,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut sim = PcSetSimulator::compile(&nl).unwrap();
        let levels = levelize(&nl).unwrap();
        for _ in 0..vector_count {
            let inputs: Vec<bool> =
                (0..nl.primary_inputs().len()).map(|_| rng.gen()).collect();
            sim.simulate_vector(&inputs);
            // Zero-delay settle (independent oracle).
            let mut value = vec![false; nl.net_count()];
            for (&pi, &b) in nl.primary_inputs().iter().zip(&inputs) {
                value[pi] = b;
            }
            for &gid in &levels.topo_gates {
                let gate = nl.gate(gid);
                let bits: Vec<bool> = gate.inputs.iter().map(|&n| value[n]).collect();
                value[gate.output] = gate.kind.eval_bits(&bits);
            }
            for net in nl.net_ids() {
                prop_assert_eq!(sim.final_value(net), value[net], "net {}", net);
            }
        }
    }

    #[test]
    fn blocks_match_sequential_simulation(
        (nl, seed) in small_circuit_strategy(),
        lengths in prop::collection::vec(1usize..=64, 1..5),
        all_monitored in any::<bool>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1234);
        let width = nl.primary_inputs().len();
        let vectors: Vec<Vec<bool>> = (0..lengths.iter().sum::<usize>())
            .map(|_| (0..width).map(|_| rng.gen()).collect())
            .collect();
        let monitored: Vec<_> = if all_monitored {
            nl.net_ids().collect()
        } else {
            nl.primary_outputs().to_vec()
        };
        let outputs = nl.primary_outputs();
        let mut blocked = PcSetSimulator::compile_with_monitors(&nl, &monitored).unwrap();
        let mut sequential = blocked.clone();
        let mut finals = vec![0u64; outputs.len()];
        let mut start = 0;
        for &len in &lengths {
            let block: Vec<&[bool]> = vectors[start..start + len].iter().map(Vec::as_slice).collect();
            // Lane j's history is the last one of the block's first j + 1
            // lanes run from the same state.
            for lanes in 1..=len {
                sequential.simulate_vector(block[lanes - 1]);
                let mut prefix = blocked.clone();
                prefix.simulate_block(&block[..lanes], outputs, &mut finals);
                for &net in &monitored {
                    prop_assert_eq!(
                        prefix.history(net),
                        sequential.history(net),
                        "vector {}, net {}", start + lanes - 1, net
                    );
                }
            }
            blocked.simulate_block(&block, outputs, &mut finals);
            for net in nl.net_ids() {
                prop_assert_eq!(blocked.final_value(net), sequential.final_value(net));
            }
            start += len;
        }
    }
}
