//! Machine perf calibration.
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
//! Two consumers compare its score:
//!
//! * the `tables` binary embeds the fingerprint in every
//!   `uds-bench-v1` document, and `tables compare` divides the two
//!   scores out of the throughput delta so a faster replay machine
//!   does not masquerade as a perf win (DESIGN.md §16);
//! * the end-to-end benchmark (`benchmark/`) scores the host before
//!   and after its runs.
//!
//! A running daemon does not calibrate: it reports host speed through
//! what it measures on real traffic, the rolling
//! `uds_engine_vectors_per_s` gauge.
//!
//! The workload is deterministic; only the clock readings vary by
//! host. Total cost is ~100–150 ms per call.

use std::hint::black_box;
use std::time::Instant;

use crate::telemetry::json::Json;

/// Dependent xorshift64 rounds per ALU measurement pass. Scaled down
/// in debug builds — a debug fingerprint is never comparable anyway
/// (the `profile` field says so), but debug test runs must still
/// finish quickly.
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

/// The host fingerprint attached to bench documents.
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

#[cfg(test)]
mod tests {
    use super::*;

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
