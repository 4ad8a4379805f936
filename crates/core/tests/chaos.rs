//! The chaos suite: for every fault plan in the matrix, against every
//! engine, the outcome is either a typed [`SimError`] or a fallback
//! result that bit-exactly matches the event-driven baseline under
//! [`uds_core::crosscheck`] — never a silent divergence.
//!
//! The faults are injected deterministically through a
//! [`ChaosFactory`]; the guarded layer must contain each one.

use std::sync::Arc;

use uds_core::chaos::{truncate_bench, ChaosFactory, Fault, FaultPlan};
use uds_core::{
    crosscheck, Engine, FailureClass, GuardedSimulator, SimError, SimErrorKind, Telemetry,
    TracedEventSim, UnitDelaySimulator,
};
use uds_netlist::bench_format;
use uds_netlist::generators::iscas::c17;
use uds_netlist::ResourceLimits;

const VECTORS: usize = 24;

/// Deterministic 5-bit stimulus (c17 has 5 primary inputs).
fn stimulus() -> Vec<Vec<bool>> {
    (0..VECTORS as u32)
        .map(|k| {
            let pattern = k.wrapping_mul(0x9E37_79B9) >> 11;
            (0..5).map(|i| pattern >> i & 1 != 0).collect()
        })
        .collect()
}

/// The chain that actually exposes `engine` to the fault, with the
/// baseline as backstop (except when the baseline itself is the
/// target).
fn chain_for(engine: Engine) -> Vec<Engine> {
    if engine == Engine::EventDriven {
        vec![Engine::EventDriven]
    } else {
        vec![engine, Engine::EventDriven]
    }
}

/// What a plan's execution amounted to.
#[derive(Debug)]
enum Outcome {
    /// A typed error surfaced (at build, run, or cross-check).
    Typed(SimError),
    /// Every vector ran and the survivor matched the baseline
    /// bit-exactly; the payload is how many fallbacks fired.
    Verified { fallbacks: usize },
}

/// Runs one plan against one engine chain, with the event-driven
/// baseline stepped beside the guard and compared with its active
/// engine after every vector, and classifies the outcome. This *is* the
/// invariant: any path that neither errors in a typed way nor survives
/// cross-checking panics the test.
fn run_plan(plan: &FaultPlan, chain: &[Engine]) -> Outcome {
    let nl = c17();
    let factory = Box::new(ChaosFactory::new(plan.clone()));
    let mut guarded =
        match GuardedSimulator::with_factory(&nl, ResourceLimits::production(), chain, factory) {
            Ok(guarded) => guarded,
            Err(err) => return Outcome::Typed(err),
        };
    let mut stim = stimulus();
    plan.poison_stimulus(&mut stim);
    let mut baseline = TracedEventSim::new(&nl).unwrap();
    for (index, vector) in stim.iter().enumerate() {
        if let Err(err) = guarded.simulate_vector(vector) {
            return Outcome::Typed(err);
        }
        baseline.simulate_vector(vector);
        if let Err(mismatch) =
            crosscheck::compare(&nl, index, &baseline, guarded.active_simulator())
        {
            return Outcome::Typed(mismatch.into());
        }
    }
    assert_eq!(guarded.vectors_run(), VECTORS);
    Outcome::Verified {
        fallbacks: guarded.fallbacks().len(),
    }
}

#[test]
fn compile_phase_panic_degrades_or_errors_for_every_engine() {
    for engine in Engine::ALL {
        let plan = FaultPlan::single(
            format!("compile-panic:{engine}"),
            Fault::CompilePhasePanic {
                engine,
                phase: "codegen",
            },
        );
        match run_plan(&plan, &chain_for(engine)) {
            Outcome::Verified { fallbacks } => {
                assert_ne!(engine, Engine::EventDriven);
                assert_eq!(fallbacks, 1, "{engine}: the sabotaged build must fire");
            }
            Outcome::Typed(err) => {
                assert_eq!(engine, Engine::EventDriven, "only the backstop may die");
                assert_eq!(err.class(), FailureClass::Panic, "{err}");
                assert!(err.to_string().contains("codegen"), "{err}");
            }
        }
    }
}

#[test]
fn compile_budget_trip_degrades_or_errors_for_every_engine() {
    for engine in Engine::ALL {
        let plan = FaultPlan::single(
            format!("compile-budget:{engine}"),
            Fault::CompileBudget { engine },
        );
        match run_plan(&plan, &chain_for(engine)) {
            Outcome::Verified { fallbacks } => {
                assert_ne!(engine, Engine::EventDriven);
                assert_eq!(fallbacks, 1, "{engine}");
            }
            Outcome::Typed(err) => {
                assert_eq!(engine, Engine::EventDriven);
                assert_eq!(err.class(), FailureClass::Budget, "{err}");
            }
        }
    }
}

#[test]
fn chaos_factory_forwards_the_compile_probe_to_the_survivor() {
    // The sabotaged head of the default chain trips its budget; the
    // engine that takes over must still report its static metrics into
    // the probe the guard was built with.
    let nl = c17();
    let plan = FaultPlan::single(
        "compile-budget:parallel+pt+trim",
        Fault::CompileBudget {
            engine: Engine::ParallelPathTracingTrimming,
        },
    );
    let telemetry = Telemetry::new();
    let guarded = GuardedSimulator::with_probe(
        Arc::new(nl),
        ResourceLimits::production(),
        &GuardedSimulator::DEFAULT_CHAIN,
        Box::new(ChaosFactory::new(plan)),
        &telemetry,
        Some(telemetry.clone()),
    )
    .unwrap();
    assert_eq!(guarded.active_engine(), Engine::Parallel);
    assert_eq!(telemetry.counter("guard.budget_trips"), 1);
    assert!(
        telemetry.gauge_value("parallel.none.word_ops").is_some(),
        "the survivor's compile gauges must reach the probe"
    );
}

#[test]
fn run_panic_mid_batch_degrades_or_errors_for_every_engine() {
    for engine in Engine::ALL {
        let plan = FaultPlan::single(
            format!("run-panic:{engine}"),
            Fault::RunPanicAt { engine, vector: 3 },
        );
        match run_plan(&plan, &chain_for(engine)) {
            Outcome::Verified { fallbacks } => {
                assert_ne!(engine, Engine::EventDriven);
                assert_eq!(
                    fallbacks, 1,
                    "{engine}: the mid-run panic must fire a fallback"
                );
            }
            Outcome::Typed(err) => {
                assert_eq!(engine, Engine::EventDriven);
                assert_eq!(err.class(), FailureClass::Panic, "{err}");
                match &err.kind {
                    SimErrorKind::ChainExhausted(errors) => assert!(!errors.is_empty()),
                    other => panic!("expected chain exhaustion, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn silent_corruption_is_always_caught_by_crosscheck() {
    // The deadliest fault: the engine lies without failing. No fallback
    // fires — the *only* line of defense is the baseline cross-check,
    // and it must convict every engine.
    for engine in Engine::ALL {
        let plan = FaultPlan::single(
            format!("corrupt:{engine}"),
            Fault::SilentCorruptionFrom { engine, vector: 2 },
        );
        match run_plan(&plan, &chain_for(engine)) {
            Outcome::Typed(err) => {
                assert_eq!(err.class(), FailureClass::Mismatch, "{engine}: {err}");
            }
            Outcome::Verified { .. } => {
                panic!("{engine}: corrupted outputs passed cross-check — silent wrongness")
            }
        }
    }
}

#[test]
fn poisoned_stimulus_still_verifies_bit_exactly() {
    // A flipped input bit reaches every engine identically, so the
    // guarded result must still match the baseline fed the same poison.
    for engine in Engine::ALL {
        let plan = FaultPlan::single(
            format!("poison:{engine}"),
            Fault::PoisonInput { vector: 1, bit: 0 },
        );
        match run_plan(&plan, &chain_for(engine)) {
            Outcome::Verified { fallbacks } => assert_eq!(fallbacks, 0, "{engine}"),
            Outcome::Typed(err) => panic!("{engine}: poisoned input must not error: {err}"),
        }
    }
}

#[test]
fn combined_faults_compose_without_silent_divergence() {
    // Budget-reject the first engine, panic the second mid-run, poison
    // the stimulus: the survivor (pc-set) must still verify.
    let plan = FaultPlan {
        name: "combined".into(),
        faults: vec![
            Fault::CompileBudget {
                engine: Engine::ParallelPathTracingTrimming,
            },
            Fault::RunPanicAt {
                engine: Engine::Parallel,
                vector: 5,
            },
            Fault::PoisonInput { vector: 0, bit: 3 },
        ],
    };
    match run_plan(&plan, &GuardedSimulator::DEFAULT_CHAIN) {
        Outcome::Verified { fallbacks } => assert_eq!(fallbacks, 2),
        Outcome::Typed(err) => panic!("survivor must verify: {err}"),
    }
}

#[test]
fn truncated_bench_input_never_panics_the_parser() {
    let text = bench_format::write(&c17());
    for keep in 0..text.len() {
        let cut = truncate_bench(&text, keep);
        match bench_format::parse(cut, "c17-truncated") {
            // A truncation landing on a statement boundary can still be
            // a well-formed (smaller) circuit; that is success, and it
            // must then simulate under guard without issue.
            Ok(nl) => {
                let limits = ResourceLimits::production();
                let width = nl.primary_inputs().len();
                let mut guarded = GuardedSimulator::new(&nl, limits).unwrap();
                let mut baseline = TracedEventSim::new(&nl).unwrap();
                let inputs = vec![true; width];
                guarded.simulate_vector(&inputs).unwrap();
                baseline.simulate_vector(&inputs);
                crosscheck::compare(&nl, 0, &baseline, guarded.active_simulator()).unwrap();
            }
            // Otherwise: a typed, spanned error — never a panic.
            Err(err) => {
                let _ = err.to_string();
            }
        }
    }
}
