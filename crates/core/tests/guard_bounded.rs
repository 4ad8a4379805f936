//! The guard's state is bounded by the circuit, not the stream: a
//! million-vector c17 stream whose lead engine panics on the very last
//! vector degrades in O(1) — the replacement runs only the failed
//! vector — and the process's resident set stays flat throughout.
//!
//! This is its own test binary so no other test shares the resident
//! set it measures.

use uds_core::chaos::{ChaosFactory, Fault, FaultPlan};
use uds_core::vectors::RandomVectors;
use uds_core::{Engine, GuardedSimulator, TracedEventSim, UnitDelaySimulator};
use uds_eventsim::zero_delay::{stable_states, ZeroDelayCompiled};
use uds_netlist::generators::iscas::c17;
use uds_netlist::ResourceLimits;

const VECTORS: usize = 1_000_000;

/// The process's resident set (`VmRSS`) in KiB.
#[cfg(target_os = "linux")]
fn vm_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable")
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmRSS")
}

#[test]
fn a_million_vector_stream_degrades_on_its_last_vector_in_constant_memory() {
    let nl = c17();
    let width = nl.primary_inputs().len();
    let plan = FaultPlan::single(
        "panic-on-last-vector",
        Fault::RunPanicAt {
            engine: Engine::ParallelPathTracingTrimming,
            vector: VECTORS - 1,
        },
    );
    let mut guarded = GuardedSimulator::with_factory(
        &nl,
        ResourceLimits::production(),
        &[Engine::ParallelPathTracingTrimming, Engine::EventDriven],
        Box::new(ChaosFactory::new(plan)),
    )
    .unwrap();
    let mut oracle = ZeroDelayCompiled::compile(&nl).unwrap();
    let (mut previous, mut last) = (vec![false; width], vec![false; width]);
    // The injected panic is expected. Reporting it would, under
    // RUST_BACKTRACE, symbolize a backtrace and charge tens of MiB of
    // debug info to the resident set being measured.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload().downcast_ref::<String>();
        if !payload.is_some_and(|message| message.starts_with("injected fault")) {
            report(info);
        }
    }));

    #[cfg(target_os = "linux")]
    let rss_before = vm_rss_kib();
    for (index, vector) in RandomVectors::new(width, 0x00B0_0DED)
        .take(VECTORS)
        .enumerate()
    {
        guarded.simulate_vector(&vector).unwrap();
        oracle.simulate_vector(&vector);
        for &po in nl.primary_outputs() {
            assert_eq!(guarded.final_value(po), oracle.value(po), "vector {index}");
        }
        std::mem::swap(&mut previous, &mut last);
        last.copy_from_slice(&vector);
    }
    #[cfg(target_os = "linux")]
    {
        let grown_kib = vm_rss_kib().saturating_sub(rss_before);
        assert!(
            grown_kib < 8 * 1024,
            "VmRSS grew {grown_kib} KiB over {VECTORS} vectors"
        );
    }

    assert_eq!(guarded.vectors_run(), VECTORS);
    assert_eq!(guarded.fallbacks().len(), 1);
    assert_eq!(guarded.active_engine(), Engine::EventDriven);
    // The replacement's counters equal those of a baseline seeded with
    // the checkpoint and run on the last vector alone: it took over
    // after exactly one vector, not after replaying the stream.
    let mut reference = TracedEventSim::new(&nl).unwrap();
    reference.seed_stable(&stable_states(&nl, [previous.as_slice()]).unwrap()[0]);
    reference.simulate_vector(&last);
    assert!(reference.run_counters().iter().any(|&(_, n)| n > 0));
    assert_eq!(guarded.run_counters(), reference.run_counters());
}
