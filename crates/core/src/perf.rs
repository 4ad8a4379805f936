//! Machine perf calibration and the self-reported perf class.
//!
//! The bench tables and the committed `BENCH_*.json` baselines are
//! wall-clock measurements, so they are only comparable across runs if
//! the *machine* is comparable. This module produces a small,
//! deterministic-workload fingerprint of the host — a single-threaded
//! ALU microbenchmark (dependent xorshift rounds, pure register
//! pressure) and a memory microbenchmark (a pointer chase over an
//! 8 MiB Sattolo cycle, pure latency pressure) — folded into one
//! [`Calibration::score`] (geometric mean of both, normalized so the
//! reference CI container scores ≈ 1.0).
//!
//! Two consumers:
//!
//! * the `tables` binary embeds the fingerprint in every
//!   `uds-bench-v1` document, and `tables compare` divides the two
//!   scores out of the throughput delta so a faster replay machine
//!   does not masquerade as a perf win (DESIGN.md §16);
//! * `udsim serve` runs [`measure_perf`] once at startup — the same
//!   microcalibration plus a canonical-netlist warmup (c432 under the
//!   parallel+pt+trim engine) — and [`record_perf_class`] exports the
//!   result as the `uds_perf_class` gauge family in `/metrics` and as
//!   a `build.perf_class` label on `build_info`, so a deployed daemon
//!   self-reports which hardware class it landed on and fleet
//!   dashboards can spot slow hosts without external context.
//!
//! The workload is deterministic; only the clock readings vary by
//! host. Total cost is ~100–200 ms, paid once per process.

use std::hint::black_box;
use std::time::Instant;

use uds_netlist::generators::iscas::Iscas85;

use crate::telemetry::json::Json;
use crate::telemetry::Telemetry;
use crate::{build_simulator, Engine};

/// Dependent xorshift64 rounds per ALU measurement pass. Scaled down
/// in debug builds — a debug fingerprint is never comparable anyway
/// (the `profile` field says so), but test daemons must still start
/// quickly.
const ALU_ROUNDS: u64 = if cfg!(debug_assertions) {
    1 << 20
} else {
    1 << 24
};

/// Entries in the pointer-chase cycle (`u32` each → 8 MiB, past any
/// reasonable L2, so the chase prices the L3/DRAM hierarchy).
const CHASE_ENTRIES: usize = 1 << 21;

/// Dependent loads per memory measurement pass.
const CHASE_STEPS: usize = if cfg!(debug_assertions) {
    1 << 16
} else {
    1 << 19
};

/// Reference throughputs: the scores measured on the project's CI
/// container, so [`Calibration::score`] ≈ 1.0 there by construction.
/// A faster host scores > 1, a throttled one < 1.
const ALU_REF_MROUNDS: f64 = 240.0;
const MEM_REF_MLOADS: f64 = 26.0;

/// Vectors timed by the serve-startup warmup (after engine warmup).
const WARMUP_VECTORS: usize = if cfg!(debug_assertions) { 200 } else { 2000 };

/// The host fingerprint attached to bench documents and exported by
/// the daemon.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Calibration {
    /// Million dependent xorshift64 rounds per second (ALU latency).
    pub alu_mops: f64,
    /// Million dependent pointer-chase loads per second (memory
    /// latency).
    pub mem_mops: f64,
    /// Geometric mean of both throughputs over their reference values
    /// — the single number `tables compare` normalizes by.
    pub score: f64,
    /// Cores the host offers (`available_parallelism`).
    pub cores: usize,
    /// Build profile of the measuring binary: timing a debug build
    /// against a release baseline is never comparable, and the compare
    /// gate rejects it outright.
    pub profile: &'static str,
}

impl Calibration {
    /// The fingerprint as a JSON object (embedded under `calibration`
    /// in `uds-bench-v1` documents; the bench layer appends
    /// `word_bits` and `timing_reps` from its `BENCH_WORD` and
    /// `TIMING_REPS` constants).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("score", Json::Float(self.score)),
            ("alu_mops", Json::Float(self.alu_mops)),
            ("mem_mops", Json::Float(self.mem_mops)),
            ("cores", Json::UInt(self.cores as u64)),
            ("profile", Json::Str(self.profile.to_owned())),
        ])
    }
}

/// Discrete hardware classes derived from [`Calibration::score`] —
/// coarse on purpose, so dashboards can aggregate a fleet by class
/// without bucketing floats themselves.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum PerfClass {
    /// Far below reference (heavy throttling, debug build, emulation).
    Degraded,
    /// Noticeably below the reference container.
    Slow,
    /// Within the reference band.
    Baseline,
    /// Meaningfully above reference.
    Fast,
}

impl PerfClass {
    /// Classifies a calibration score.
    pub fn from_score(score: f64) -> PerfClass {
        if score >= 1.5 {
            PerfClass::Fast
        } else if score >= 0.6 {
            PerfClass::Baseline
        } else if score >= 0.25 {
            PerfClass::Slow
        } else {
            PerfClass::Degraded
        }
    }

    /// Stable label (exported as the `build.perf_class` label).
    pub fn name(self) -> &'static str {
        match self {
            PerfClass::Degraded => "degraded",
            PerfClass::Slow => "slow",
            PerfClass::Baseline => "baseline",
            PerfClass::Fast => "fast",
        }
    }

    /// Stable numeric encoding (the `uds_perf_class` gauge value):
    /// 0 degraded, 1 slow, 2 baseline, 3 fast — ordered, so
    /// `min by (class)` over a fleet is meaningful.
    pub fn as_u64(self) -> u64 {
        match self {
            PerfClass::Degraded => 0,
            PerfClass::Slow => 1,
            PerfClass::Baseline => 2,
            PerfClass::Fast => 3,
        }
    }
}

/// What `udsim serve` measures at startup.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PerfReport {
    /// The machine fingerprint.
    pub calibration: Calibration,
    /// Canonical-netlist warmup throughput: c432 vectors/second under
    /// the parallel+pt+trim engine — the daemon's own hot path, so the
    /// number is in the same unit operators reason about.
    pub warmup_vectors_per_s: f64,
    /// The class [`Calibration::score`] maps to.
    pub class: PerfClass,
}

/// One timed ALU pass: `rounds` dependent xorshift64 rounds.
fn alu_pass(rounds: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Builds the chase cycle: a Sattolo single-cycle permutation from a
/// deterministic xorshift stream, so every index is visited and the
/// hardware prefetcher gets nothing exploitable.
fn build_chase(entries: usize) -> Vec<u32> {
    let mut chase: Vec<u32> = (0..entries as u32).collect();
    let mut rng = 0x1990_5EEDu64 | 1;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for i in (1..entries).rev() {
        let j = (next() % i as u64) as usize;
        chase.swap(i, j);
    }
    chase
}

/// One timed memory pass: `steps` dependent loads along the cycle.
fn mem_pass(chase: &[u32], steps: usize) -> u32 {
    let mut i = 0u32;
    for _ in 0..steps {
        i = chase[i as usize];
    }
    i
}

/// Times `pass` twice after one warmup at an eighth of the scale and
/// keeps the faster run — the least noise-inflated estimate, matching
/// the bench runner's min-of-reps convention.
fn best_of_two(mut pass: impl FnMut() -> f64) -> f64 {
    let a = pass();
    let b = pass();
    a.min(b)
}

/// Runs the single-threaded microcalibration. Deterministic workload;
/// ~100 ms wall clock.
pub fn calibrate() -> Calibration {
    black_box(alu_pass(ALU_ROUNDS / 8)); // warmup
    let alu_s = best_of_two(|| {
        let start = Instant::now();
        black_box(alu_pass(black_box(ALU_ROUNDS)));
        start.elapsed().as_secs_f64()
    });

    let chase = build_chase(CHASE_ENTRIES);
    black_box(mem_pass(&chase, CHASE_STEPS / 8)); // warmup
    let mem_s = best_of_two(|| {
        let start = Instant::now();
        black_box(mem_pass(black_box(&chase), black_box(CHASE_STEPS)));
        start.elapsed().as_secs_f64()
    });

    let alu_mops = ALU_ROUNDS as f64 / alu_s.max(1e-9) / 1e6;
    let mem_mops = CHASE_STEPS as f64 / mem_s.max(1e-9) / 1e6;
    let score = ((alu_mops / ALU_REF_MROUNDS) * (mem_mops / MEM_REF_MLOADS)).sqrt();
    Calibration {
        alu_mops,
        mem_mops,
        score,
        cores: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    }
}

/// The full serve-startup measurement: microcalibration plus the
/// canonical-netlist warmup (which also pre-faults the allocator and
/// warms the code paths the first real request would otherwise pay
/// for).
pub fn measure_perf() -> PerfReport {
    let calibration = calibrate();
    let nl = Iscas85::C432.build();
    let mut sim = build_simulator(&nl, Engine::ParallelPathTracingTrimming)
        .expect("canonical warmup circuit compiles");
    let inputs = nl.primary_inputs().len();
    let mut rng = 0xCA11_B7A7u64 | 1;
    let mut vector = vec![false; inputs];
    let mut fill = |vector: &mut Vec<bool>| {
        for slot in vector.iter_mut() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            *slot = rng & 1 == 1;
        }
    };
    for _ in 0..WARMUP_VECTORS / 10 {
        fill(&mut vector);
        sim.simulate_vector(&vector);
    }
    let start = Instant::now();
    for _ in 0..WARMUP_VECTORS {
        fill(&mut vector);
        sim.simulate_vector(&vector);
    }
    let warmup_vectors_per_s = WARMUP_VECTORS as f64 / start.elapsed().as_secs_f64().max(1e-9);
    PerfReport {
        calibration,
        warmup_vectors_per_s,
        class: PerfClass::from_score(calibration.score),
    }
}

/// Exports a [`PerfReport`] as the `perf_class` gauge family plus the
/// `build.perf_class` label:
///
/// | telemetry name | `/metrics` name | meaning |
/// |---|---|---|
/// | `perf_class` | `uds_perf_class` | class code (0–3) |
/// | `perf_class.score_milli` | `uds_perf_class_score_milli` | calibration score × 1000 |
/// | `perf_class.alu_mops` | `uds_perf_class_alu_mops` | ALU rounds, M/s |
/// | `perf_class.mem_mops` | `uds_perf_class_mem_mops` | chase loads, M/s |
/// | `perf_class.warmup_vectors_per_s` | `uds_perf_class_warmup_vectors_per_s` | c432 warmup throughput |
/// | `perf_class.cores` | `uds_perf_class_cores` | available cores |
///
/// Recorded as level gauges (measurements, not deterministic metrics —
/// re-recording must not trip the gauge-conflict counter).
pub fn record_perf_class(telemetry: &Telemetry, report: &PerfReport) {
    let rounded = |v: f64| v.round().max(0.0) as u64;
    telemetry.set_level("perf_class", report.class.as_u64());
    telemetry.set_level(
        "perf_class.score_milli",
        rounded(report.calibration.score * 1000.0),
    );
    telemetry.set_level("perf_class.alu_mops", rounded(report.calibration.alu_mops));
    telemetry.set_level("perf_class.mem_mops", rounded(report.calibration.mem_mops));
    telemetry.set_level(
        "perf_class.warmup_vectors_per_s",
        rounded(report.warmup_vectors_per_s),
    );
    telemetry.set_level("perf_class.cores", report.calibration.cores as u64);
    telemetry.label("build.perf_class", report.class.name());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::GAUGE_CONFLICTS;

    #[test]
    fn chase_is_a_single_cycle() {
        let chase = build_chase(64);
        let mut seen = [false; 64];
        let mut i = 0u32;
        for _ in 0..64 {
            assert!(!seen[i as usize], "revisited {i} before closing the cycle");
            seen[i as usize] = true;
            i = chase[i as usize];
        }
        assert_eq!(i, 0, "the permutation closes into one cycle");
        assert!(seen.iter().all(|&s| s), "every entry visited");
    }

    #[test]
    fn class_thresholds_are_ordered_and_stable() {
        assert_eq!(PerfClass::from_score(2.0), PerfClass::Fast);
        assert_eq!(PerfClass::from_score(1.0), PerfClass::Baseline);
        assert_eq!(PerfClass::from_score(0.3), PerfClass::Slow);
        assert_eq!(PerfClass::from_score(0.01), PerfClass::Degraded);
        assert!(PerfClass::Degraded < PerfClass::Slow);
        assert!(PerfClass::Slow < PerfClass::Baseline);
        assert!(PerfClass::Baseline < PerfClass::Fast);
        let classes = [
            PerfClass::Degraded,
            PerfClass::Slow,
            PerfClass::Baseline,
            PerfClass::Fast,
        ];
        for (i, class) in classes.iter().enumerate() {
            assert_eq!(class.as_u64(), i as u64, "numeric encodings are 0..=3");
        }
        assert_eq!(PerfClass::Fast.name(), "fast");
        assert_eq!(PerfClass::Degraded.name(), "degraded");
    }

    #[test]
    fn record_exports_the_gauge_family_and_label() {
        let telemetry = Telemetry::new();
        let report = PerfReport {
            calibration: Calibration {
                alu_mops: 310.5,
                mem_mops: 14.2,
                score: 1.08,
                cores: 4,
                profile: "release",
            },
            warmup_vectors_per_s: 123_456.7,
            class: PerfClass::Baseline,
        };
        record_perf_class(&telemetry, &report);
        assert_eq!(telemetry.gauge_value("perf_class"), Some(2));
        assert_eq!(telemetry.gauge_value("perf_class.score_milli"), Some(1080));
        assert_eq!(telemetry.gauge_value("perf_class.alu_mops"), Some(311));
        assert_eq!(telemetry.gauge_value("perf_class.cores"), Some(4));
        assert_eq!(
            telemetry.gauge_value("perf_class.warmup_vectors_per_s"),
            Some(123_457)
        );
        let report2 = telemetry.snapshot();
        assert_eq!(report2.labels["build.perf_class"], "baseline");
        // Re-recording a (possibly different) measurement is not a
        // gauge conflict: these are levels.
        record_perf_class(
            &telemetry,
            &PerfReport {
                warmup_vectors_per_s: 9.0,
                ..report
            },
        );
        assert_eq!(telemetry.counter(GAUGE_CONFLICTS), 0);
    }

    #[test]
    fn calibration_json_carries_the_fingerprint() {
        let calibration = Calibration {
            alu_mops: 300.0,
            mem_mops: 12.0,
            score: 1.0,
            cores: 2,
            profile: "release",
        };
        let doc = calibration.to_json();
        assert_eq!(doc.get("score").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("cores").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("profile").unwrap().as_str(), Some("release"));
    }
}
