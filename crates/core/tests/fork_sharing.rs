//! Forks of one compiled prototype share its netlist and compiled
//! program and own only their run state (arena, retained values,
//! checkpoint). Several forks stepped in interleaved order, each on its
//! own stimulus, must each stay bit-exact against the event-driven
//! oracle on every engine family and word width: nothing one fork runs
//! may leak into another through what they share.

use std::sync::Arc;

use uds_core::guard::EngineFactory;
use uds_core::vectors::RandomVectors;
use uds_core::{
    build_native, compiler_available, DefaultEngineFactory, Engine, GuardedSimulator, SimError,
    TracedEventSim, UnitDelaySimulator, WordWidth,
};
use uds_netlist::generators::iscas::{c17, Iscas85};
use uds_netlist::{Netlist, Probe, ResourceLimits};

const FORKS: u64 = 3;
const PREFIX: usize = 5;
const VECTORS: usize = 150;

/// Builds every chain entry as the native engine of one flavor.
#[derive(Clone, Copy)]
struct Native {
    flavor: Engine,
    word: WordWidth,
}

impl EngineFactory for Native {
    fn build(
        &self,
        netlist: &Netlist,
        _engine: Engine,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        build_native(netlist, self.flavor, self.word, limits, probe)
    }

    fn clone_box(&self) -> Box<dyn EngineFactory> {
        Box::new(*self)
    }
}

/// Advances `prototype` by a prefix, forks it [`FORKS`] times, and
/// steps the forks round-robin, each on its own stimulus beside its own
/// oracle, checking every primary output's row and history.
fn check_interleaved_forks(netlist: &Netlist, mut prototype: GuardedSimulator, case: &str) {
    let engine = prototype.active_engine();
    let width = netlist.primary_inputs().len();
    let prefix: Vec<Vec<bool>> = RandomVectors::new(width, 0x9E37).take(PREFIX).collect();
    for vector in &prefix {
        prototype.simulate_vector(vector).unwrap();
    }
    let mut forks: Vec<_> = (0..FORKS)
        .map(|k| {
            let fork = prototype.fork();
            assert!(
                Arc::ptr_eq(fork.netlist(), prototype.netlist()),
                "{case}: a fork shares its prototype's netlist"
            );
            let mut oracle = TracedEventSim::new(netlist).unwrap();
            for vector in &prefix {
                UnitDelaySimulator::simulate_vector(&mut oracle, vector);
            }
            (fork, oracle, RandomVectors::new(width, 0xF0 + k))
        })
        .collect();
    for index in 0..VECTORS {
        for (k, (fork, oracle, stimulus)) in forks.iter_mut().enumerate() {
            let vector = stimulus.next().expect("endless stimulus");
            assert_eq!(fork.simulate_vector(&vector).unwrap(), engine, "{case}");
            UnitDelaySimulator::simulate_vector(oracle, &vector);
            for &po in netlist.primary_outputs() {
                assert_eq!(
                    fork.final_value(po),
                    oracle.final_value(po),
                    "{case}: fork {k}, vector {index}, output {}",
                    netlist.net_name(po)
                );
                assert_eq!(
                    fork.history(po),
                    oracle.history(po),
                    "{case}: fork {k}, vector {index}, output {}",
                    netlist.net_name(po)
                );
            }
        }
    }
}

fn circuits() -> [Netlist; 2] {
    [c17(), Iscas85::C432.build()]
}

#[test]
fn interleaved_forks_stay_exact_on_interpreted_engines() {
    for netlist in circuits() {
        for engine in [
            Engine::ParallelPathTracingTrimming,
            Engine::Parallel,
            Engine::PcSet,
        ] {
            for word in [WordWidth::W32, WordWidth::W64] {
                let case = format!("{} {engine} w{}", netlist.name(), word.bits());
                let prototype = GuardedSimulator::with_factory(
                    &netlist,
                    ResourceLimits::production(),
                    &[engine],
                    Box::new(DefaultEngineFactory::with_word(word)),
                )
                .unwrap();
                check_interleaved_forks(&netlist, prototype, &case);
            }
        }
    }
}

#[test]
fn interleaved_forks_stay_exact_on_native_engines() {
    if !compiler_available() {
        eprintln!("SKIP interleaved_forks_stay_exact_on_native_engines: no C compiler on PATH");
        return;
    }
    for netlist in circuits() {
        for (flavor, word) in [
            (Engine::ParallelPathTracingTrimming, WordWidth::W32),
            (Engine::ParallelPathTracingTrimming, WordWidth::W64),
            (Engine::PcSet, WordWidth::W64),
        ] {
            let case = format!("{} native {flavor} w{}", netlist.name(), word.bits());
            let prototype = GuardedSimulator::with_factory(
                &netlist,
                ResourceLimits::production(),
                &[Engine::Native],
                Box::new(Native { flavor, word }),
            )
            .unwrap();
            check_interleaved_forks(&netlist, prototype, &case);
        }
    }
}
