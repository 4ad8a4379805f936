//! Library-level integration of the telemetry registry with the
//! engines and the guarded execution layer: compile phases and paper
//! metrics land in one registry, degradations are counted, and the
//! JSON report is deterministic modulo wall-clock.

use std::sync::Arc;
use uds_core::telemetry::json::Json;
use uds_core::telemetry::TIMING_KEYS;

use uds_core::guard::EngineFactory;
use uds_core::{
    crosscheck, DefaultEngineFactory, Engine, GuardedSimulator, Telemetry, TracedEventSim,
    UnitDelaySimulator,
};
use uds_netlist::generators::iscas::c17;
use uds_netlist::{GateKind, NetlistBuilder, ResourceLimits};

/// A chain of `n` buffers: depth n, trivially correct, deep enough to
/// defeat small word budgets.
fn buffer_chain(n: usize) -> uds_netlist::Netlist {
    let mut b = NetlistBuilder::new();
    let mut prev = b.input("a");
    for i in 0..n {
        prev = b.gate(GateKind::Buf, &[prev], format!("b{i}")).unwrap();
    }
    b.output(prev);
    b.finish().unwrap()
}

#[test]
fn probed_build_records_compile_phases_and_gauges() {
    let nl = c17();
    let telemetry = Telemetry::new();
    {
        let _span = telemetry.span("compile");
        DefaultEngineFactory::default()
            .build(
                &nl,
                Engine::ParallelPathTracingTrimming,
                &ResourceLimits::unlimited(),
                &telemetry,
            )
            .unwrap();
    }
    let report = telemetry.snapshot();
    let compile = report.find_span("compile").expect("compile span recorded");
    let children: Vec<&str> = compile.children.iter().map(|c| c.name.as_str()).collect();
    assert!(
        children.contains(&"parallel.codegen"),
        "compiler phases nest under the caller's span: {children:?}"
    );
    assert!(report.gauges.contains_key("parallel.pt-trim.word_ops"));
    assert!(report
        .gauges
        .contains_key("parallel.pt-trim.shifts_eliminated"));
}

#[test]
fn guarded_degradation_is_counted() {
    // A one-word budget rejects the unoptimized parallel engine on a
    // 70-deep chain (more than one word at either width); pc-set takes
    // over and the registry must show both the fallback and its budget
    // classification.
    let nl = buffer_chain(70);
    let limits = ResourceLimits {
        max_field_words: Some(1),
        ..ResourceLimits::unlimited()
    };
    let telemetry = Telemetry::new();
    let chain = [Engine::Parallel, Engine::PcSet, Engine::EventDriven];
    let mut guarded = GuardedSimulator::with_probe(
        Arc::new(nl.clone()),
        limits,
        &chain,
        Box::new(DefaultEngineFactory::default()),
        &telemetry,
        Some(telemetry.clone()),
    )
    .unwrap();
    assert_eq!(guarded.active_engine(), Engine::PcSet);
    assert_eq!(telemetry.counter("guard.fallbacks"), 1);
    assert_eq!(telemetry.counter("guard.budget_trips"), 1);
    // The survivor's compile metrics made it into the same registry.
    assert!(telemetry.gauge_value("pcset.variables").is_some());
    let mut baseline = TracedEventSim::new(&nl).unwrap();
    for (index, inputs) in [[true], [false], [true]].iter().enumerate() {
        guarded.simulate_vector(inputs).unwrap();
        baseline.simulate_vector(inputs);
        crosscheck::compare(&nl, index, &baseline, guarded.active_simulator()).unwrap();
    }
}

#[test]
fn event_driven_engine_reports_run_counters() {
    let nl = c17();
    let mut sim = DefaultEngineFactory::default()
        .build(
            &nl,
            Engine::EventDriven,
            &ResourceLimits::unlimited(),
            &Telemetry::new(),
        )
        .unwrap();
    assert_eq!(
        sim.run_counters(),
        vec![
            ("eventsim.events", 0),
            ("eventsim.toggles", 0),
            ("eventsim.gate_evaluations", 0)
        ]
    );
    for pattern in 0u32..8 {
        let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
        sim.simulate_vector(&inputs);
    }
    let counters = sim.run_counters();
    let counter = |name: &str| counters.iter().find(|(n, _)| *n == name).unwrap().1;
    let events = counter("eventsim.events");
    let toggles = counter("eventsim.toggles");
    let evals = counter("eventsim.gate_evaluations");
    assert!(events > 0, "8 varied vectors must produce events");
    assert!(evals > 0, "events on gate inputs must trigger evaluations");
    assert!(toggles > 0, "varied vectors must toggle nets");
    assert!(
        toggles <= events,
        "toggles are the committed events at time >= 1"
    );
}

#[test]
fn counters_saturate_instead_of_wrapping() {
    let telemetry = Telemetry::new();
    telemetry.add("overflow.prone", u64::MAX - 1);
    telemetry.add("overflow.prone", 5);
    assert_eq!(
        telemetry.counter("overflow.prone"),
        u64::MAX,
        "a counter at the ceiling must pin there, not wrap to 3"
    );
    telemetry.add("overflow.prone", 1);
    assert_eq!(telemetry.counter("overflow.prone"), u64::MAX);
}

#[test]
fn gauge_reregistration_under_a_new_value_is_surfaced() {
    use uds_core::telemetry::GAUGE_CONFLICTS;

    let telemetry = Telemetry::new();
    telemetry.set_gauge("parallel.word_ops", 100);
    // Re-registering the same value is idempotent, not a conflict.
    telemetry.set_gauge("parallel.word_ops", 100);
    assert_eq!(telemetry.counter(GAUGE_CONFLICTS), 0);
    // A different value wins (last write), but the disagreement is
    // counted so a report with conflicting producers is detectable.
    telemetry.set_gauge("parallel.word_ops", 200);
    assert_eq!(telemetry.gauge_value("parallel.word_ops"), Some(200));
    assert_eq!(telemetry.counter(GAUGE_CONFLICTS), 1);
    telemetry.set_gauge("parallel.word_ops", 300);
    assert_eq!(telemetry.counter(GAUGE_CONFLICTS), 2);
    // The warning counter itself appears in the snapshot.
    let report = telemetry.snapshot();
    assert_eq!(report.counters.get(GAUGE_CONFLICTS), Some(&2));
}

#[test]
fn compiled_engines_have_no_run_counters() {
    let nl = c17();
    for engine in [Engine::PcSet, Engine::ParallelPathTracingTrimming] {
        let mut sim = DefaultEngineFactory::default()
            .build(&nl, engine, &ResourceLimits::unlimited(), &Telemetry::new())
            .unwrap();
        sim.simulate_vector(&[true; 5]);
        assert!(
            sim.run_counters().is_empty(),
            "{engine:?}: compiled loops do no bookkeeping"
        );
    }
}

#[test]
fn report_is_deterministic_modulo_wall_clock() {
    let build = || {
        let nl = c17();
        let telemetry = Telemetry::new();
        let mut sim = {
            let _span = telemetry.span("compile");
            DefaultEngineFactory::default()
                .build(&nl, Engine::PcSet, &ResourceLimits::unlimited(), &telemetry)
                .unwrap()
        };
        {
            let _span = telemetry.span("simulate");
            for pattern in 0u32..16 {
                let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
                sim.simulate_vector(&inputs);
                telemetry.add("run.vectors", 1);
            }
        }
        telemetry.snapshot().render_json()
    };
    let (a, b) = (build(), build());
    assert_ne!(a, b, "wall-clock fields should differ between runs");
    let strip = |s: &str| Json::parse(s).unwrap().without_keys(TIMING_KEYS).render();
    assert_eq!(strip(&a), strip(&b));
}
