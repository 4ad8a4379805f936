//! A sharded run's memory is bounded by its window, not the stream: a
//! million-vector c17 stream through the streaming runner at two jobs,
//! into a sink that keeps nothing, leaves the process's resident set
//! flat.
//!
//! This is its own test binary so no other test shares the resident
//! set it measures.

use uds_core::vectors::RandomVectors;
use uds_core::{discard, run_stream, GuardedSimulator, RunControl};
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
fn a_million_vector_sharded_stream_runs_in_constant_memory() {
    let nl = c17();
    let prototype = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
    let stimulus = RandomVectors::new(nl.primary_inputs().len(), 0x00B0_0DED);
    let control = RunControl {
        jobs: 2,
        ..RunControl::default()
    };
    #[cfg(target_os = "linux")]
    let rss_before = vm_rss_kib();
    let shards = run_stream(&nl, prototype, stimulus, VECTORS, control, || (), discard).unwrap();
    #[cfg(target_os = "linux")]
    {
        let grown_kib = vm_rss_kib().saturating_sub(rss_before);
        assert!(
            grown_kib < 8 * 1024,
            "VmRSS grew {grown_kib} KiB over {VECTORS} vectors"
        );
    }

    let per_shard: Vec<usize> = shards.iter().map(|s| s.report.vectors).collect();
    assert_eq!(per_shard, [VECTORS / 2, VECTORS / 2]);
}
