//! The hot-path execution profiler: per-level self-time attribution.
//!
//! The compiled techniques turn a netlist into a straight-line program
//! ordered by level; the obvious profiling question — *which levels
//! cost what?* — is exactly the question partitioning heuristics need
//! answered. This module attributes the simulate loop's wall time and
//! work counts to netlist levels (level 0 is per-vector setup, levels
//! `1..=depth` are gate levels) using the engines' chunked
//! [`LevelTimer`](uds_netlist::LevelTimer) hooks, and pairs the
//! measurement with each engine's *static* per-level cost model. The
//! timer reads the clock once per batch of word ops and apportions each
//! interval across levels by word-op weight, so per-level self-time
//! follows the static counts within a batch; only the batch totals are
//! clocked.
//!
//! Three consumers share the model here: the `udsim hotspots` command
//! (JSON + collapsed-stack "folded" output any flamegraph tool
//! ingests), the serve daemon's `/debug/hotspots` window over a
//! bounded ring of per-request profiles, and the bench suite's
//! `tables hotspots` figure.
//!
//! # Attribution contract
//!
//! Every nanosecond spent inside a profiled `simulate_vector_leveled`
//! call lands in *some* level, so per-level self-times sum to the time
//! inside profiled calls. [`collect`] measures its span as the sum of
//! per-shard wall clocks — not the enclosing wall time — so the
//! contract holds under `jobs > 1` as well: each shard of the streaming
//! runner owns its profile, and the profiles merge levelwise.

// SimError deliberately carries full context; see guard.rs.
#![allow(clippy::result_large_err)]

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use uds_netlist::{LevelProfile, Netlist};

use crate::batch::{discard, run_stream, RunControl, Step};
use crate::error::SimError;
use crate::telemetry::json::Json;
use crate::{Engine, GuardedSimulator};

/// Schema tag of [`HotspotReport::to_json`] and the serve daemon's
/// `/debug/hotspots` document.
pub const HOTSPOT_SCHEMA: &str = "uds-hotspot-v1";

/// A measured per-level cost breakdown for one engine over one vector
/// stream, with the engine's static cost model alongside when it has
/// one.
#[derive(Clone, Debug)]
pub struct HotspotReport {
    /// The engine that ran the vectors (post-degradation).
    pub engine: Engine,
    /// Parallel arena word width (32/64); other engines report the
    /// width they were configured with, which they ignore.
    pub word_bits: u32,
    /// Vectors simulated.
    pub vectors: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Total wall time inside profiled calls: the sum of per-shard
    /// simulate walls, *not* the enclosing elapsed time — under
    /// `jobs > 1` this is what per-level self-times sum toward.
    pub span_ns: u64,
    /// Measured per-level costs, merged across shards.
    pub measured: LevelProfile,
    /// The engine's compile-time per-level cost model, when it has one.
    pub static_profile: Option<LevelProfile>,
}

impl HotspotReport {
    /// The report as a JSON document (`uds-hotspot-v1`): run context,
    /// per-level measured costs with static counts inline, and totals.
    pub fn to_json(&self) -> Json {
        let static_levels = self
            .static_profile
            .as_ref()
            .map(|p| p.levels.as_slice())
            .unwrap_or(&[]);
        let levels: Vec<Json> = self
            .measured
            .levels
            .iter()
            .enumerate()
            .map(|(level, cost)| {
                let mut members = vec![
                    ("level".to_owned(), Json::UInt(level as u64)),
                    ("self_ns".to_owned(), Json::UInt(cost.self_ns)),
                    ("word_ops".to_owned(), Json::UInt(cost.word_ops)),
                    ("gate_evals".to_owned(), Json::UInt(cost.gate_evals)),
                    (
                        "bytes_touched_est".to_owned(),
                        Json::UInt(cost.bytes_touched_est),
                    ),
                ];
                if let Some(stat) = static_levels.get(level) {
                    members.push(("static_word_ops".to_owned(), Json::UInt(stat.word_ops)));
                    members.push(("static_gate_evals".to_owned(), Json::UInt(stat.gate_evals)));
                }
                Json::Obj(members)
            })
            .collect();
        let total = self.measured.total();
        Json::obj([
            ("schema", Json::Str(HOTSPOT_SCHEMA.to_owned())),
            ("engine", Json::Str(self.engine.to_string())),
            ("word_bits", Json::UInt(u64::from(self.word_bits))),
            ("vectors", Json::UInt(self.vectors as u64)),
            ("jobs", Json::UInt(self.jobs as u64)),
            ("span_ns", Json::UInt(self.span_ns)),
            ("levels", Json::Arr(levels)),
            (
                "totals",
                Json::obj([
                    ("self_ns", Json::UInt(total.self_ns)),
                    ("word_ops", Json::UInt(total.word_ops)),
                    ("gate_evals", Json::UInt(total.gate_evals)),
                    ("bytes_touched_est", Json::UInt(total.bytes_touched_est)),
                ]),
            ),
        ])
    }

    /// The report as collapsed-stack ("folded") lines — the format
    /// `flamegraph.pl` and every compatible viewer ingest: one line per
    /// level, `engine;level_K N` where `N` is the level's self-time in
    /// nanoseconds. Levels that accumulated no time are omitted, so
    /// every emitted count is positive.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for (level, cost) in self.measured.levels.iter().enumerate() {
            if cost.self_ns > 0 {
                out.push_str(&format!(
                    "{};level_{} {}\n",
                    self.engine, level, cost.self_ns
                ));
            }
        }
        out
    }
}

/// The leveled step of the streaming runner: every vector runs through
/// [`GuardedSimulator::simulate_vector_leveled`] into `profile`, and
/// `span_ns` adds up the wall time of those calls — the span the
/// per-level self-times sum toward.
#[derive(Clone, Debug, Default)]
pub struct LeveledStep {
    /// Per-level costs of the shard's vectors.
    pub profile: LevelProfile,
    /// Wall time inside the profiled calls.
    pub span_ns: u64,
}

impl Step for LeveledStep {
    fn step(&mut self, guard: &mut GuardedSimulator, inputs: &[bool]) -> Result<(), SimError> {
        let clock = Instant::now();
        guard.simulate_vector_leveled(inputs, &mut self.profile)?;
        let elapsed = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.span_ns = self.span_ns.saturating_add(elapsed);
        Ok(())
    }
}

/// Simulates the first `len` vectors of `stimulus` through a fork of
/// `prototype` across `jobs` shards, with a [`LeveledStep`] in every
/// shard, and returns the merged per-level breakdown. The span is the
/// sum of the shards' profiled-call walls, so per-level self-times sum
/// within timer granularity of it at any job count.
///
/// # Errors
///
/// As [`run_stream`].
pub fn collect<V: AsRef<[bool]> + Sync>(
    netlist: &Netlist,
    prototype: &GuardedSimulator,
    stimulus: impl IntoIterator<Item = V>,
    len: usize,
    jobs: usize,
    word_bits: u32,
) -> Result<HotspotReport, SimError> {
    let control = RunControl {
        jobs,
        ..RunControl::default()
    };
    let shards = run_stream(
        netlist,
        prototype.fork(),
        stimulus,
        len,
        control,
        LeveledStep::default,
        discard,
    )?;
    let mut measured = LevelProfile::default();
    for shard in &shards {
        measured.merge(&shard.step.profile);
    }
    Ok(HotspotReport {
        // Degradations are per-shard; report the last shard's engine.
        engine: shards[shards.len() - 1].report.engine,
        word_bits,
        vectors: shards.iter().map(|s| s.report.vectors).sum(),
        jobs: shards.len(),
        span_ns: shards.iter().map(|s| s.step.span_ns).sum(),
        measured,
        static_profile: prototype.level_static_profile(),
    })
}

/// One profiled request, as the serve daemon's sampling ring stores it.
#[derive(Clone, Debug)]
pub struct HotspotSample {
    /// When the request finished (monotonic).
    pub at: Instant,
    /// The engine that ran it.
    pub engine: Engine,
    /// Per-level breakdown for the request's whole vector stream.
    pub profile: LevelProfile,
    /// Wall time of the profiled simulate phase.
    pub span_ns: u64,
    /// Vectors in the request.
    pub vectors: u64,
}

/// Per-engine aggregation over a time window of the ring.
#[derive(Clone, Debug, Default)]
pub struct HotspotWindow {
    /// Samples that fell inside the window.
    pub samples: usize,
    /// Total profiled simulate time inside the window.
    pub span_ns: u64,
    /// Total vectors inside the window.
    pub vectors: u64,
    /// Merged per-level profiles, one entry per engine seen, in
    /// first-seen order.
    pub engines: Vec<(Engine, LevelProfile)>,
}

impl HotspotWindow {
    /// The `(engine, level, self_ns)` triples with the largest
    /// self-times, descending, at most `k` of them — the `/metrics`
    /// gauge set.
    pub fn top_levels(&self, k: usize) -> Vec<(Engine, usize, u64)> {
        let mut all: Vec<(Engine, usize, u64)> = self
            .engines
            .iter()
            .flat_map(|(engine, profile)| {
                profile
                    .levels
                    .iter()
                    .enumerate()
                    .filter(|(_, cost)| cost.self_ns > 0)
                    .map(|(level, cost)| (*engine, level, cost.self_ns))
            })
            .collect();
        all.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }
}

/// A bounded ring of recent per-request level profiles. The serve
/// daemon pushes one [`HotspotSample`] per profiled simulate; readers
/// aggregate a trailing window. Memory is bounded by `capacity ×
/// (depth + 1)` level slots regardless of traffic.
#[derive(Debug)]
pub struct HotspotRing {
    samples: VecDeque<HotspotSample>,
    capacity: usize,
}

impl HotspotRing {
    /// A ring keeping at most `capacity` samples (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        HotspotRing {
            samples: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Appends a sample, evicting the oldest past capacity.
    pub fn push(&mut self, sample: HotspotSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no sample has ever been pushed (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Aggregates every sample younger than `within` relative to `now`,
    /// merged per engine. An empty window is a valid, empty summary.
    pub fn window(&self, now: Instant, within: Duration) -> HotspotWindow {
        let mut out = HotspotWindow::default();
        for sample in &self.samples {
            if now.saturating_duration_since(sample.at) > within {
                continue;
            }
            out.samples += 1;
            out.span_ns = out.span_ns.saturating_add(sample.span_ns);
            out.vectors = out.vectors.saturating_add(sample.vectors);
            match out.engines.iter_mut().find(|(e, _)| *e == sample.engine) {
                Some((_, merged)) => merged.merge(&sample.profile),
                None => out.engines.push((sample.engine, sample.profile.clone())),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uds_netlist::generators::iscas::c17;
    use uds_netlist::ResourceLimits;

    fn patterns(n: usize, width: usize) -> Vec<Vec<bool>> {
        (0..n)
            .map(|i| (0..width).map(|b| (i >> b) & 1 != 0).collect())
            .collect()
    }

    #[test]
    fn collect_attributes_all_levels_and_sums_to_span() {
        let nl = c17();
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let vectors = patterns(64, 5);
        let report = collect(&nl, &guard, &vectors, vectors.len(), 1, 32).unwrap();
        assert_eq!(report.vectors, 64);
        assert_eq!(report.measured.vectors, 64);
        // c17 has depth 3: levels 0..=3 must exist.
        assert!(report.measured.levels.len() >= 4);
        let total = report.measured.total_self_ns();
        assert!(total > 0);
        assert!(
            total <= report.span_ns,
            "self-time {total} cannot exceed the span {}",
            report.span_ns
        );
    }

    #[test]
    fn collect_merges_across_jobs() {
        let nl = c17();
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let vectors = patterns(64, 5);
        let report = collect(&nl, &guard, &vectors, vectors.len(), 2, 32).unwrap();
        assert_eq!(report.jobs, 2);
        assert_eq!(report.measured.vectors, 64);
        assert!(report.measured.total_self_ns() <= report.span_ns);
    }

    #[test]
    fn folded_lines_are_engine_level_count() {
        let nl = c17();
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let report = collect(&nl, &guard, patterns(32, 5), 32, 1, 32).unwrap();
        let folded = report.render_folded();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack then count");
            let engine_and_level: Vec<&str> = stack.split(';').collect();
            assert_eq!(engine_and_level.len(), 2, "{line}");
            assert_eq!(engine_and_level[0], report.engine.to_string());
            assert!(engine_and_level[1].starts_with("level_"), "{line}");
            assert!(count.parse::<u64>().unwrap() > 0, "{line}");
        }
    }

    #[test]
    fn empty_stream_is_a_valid_empty_report() {
        let nl = c17();
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let report = collect(&nl, &guard, Vec::<Vec<bool>>::new(), 0, 4, 32).unwrap();
        assert_eq!(report.vectors, 0);
        assert_eq!(report.span_ns, 0);
        assert!(report.render_folded().is_empty());
        assert_eq!(
            report.to_json().get("schema").and_then(Json::as_str),
            Some(HOTSPOT_SCHEMA)
        );
    }

    #[test]
    fn json_carries_static_counts_for_compiled_engines() {
        let nl = c17();
        let guard = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let report = collect(&nl, &guard, patterns(8, 5), 8, 1, 32).unwrap();
        assert!(report.static_profile.is_some(), "pt+trim has a cost model");
        let json = report.to_json();
        let levels = json.get("levels").and_then(Json::as_arr).unwrap();
        assert!(levels.iter().any(|l| l.get("static_word_ops").is_some()));
    }

    #[test]
    fn ring_is_bounded_and_windowed() {
        let mut ring = HotspotRing::new(4);
        assert!(ring.is_empty());
        let t0 = Instant::now();
        for i in 0..10u64 {
            let mut profile = LevelProfile::default();
            profile.ensure_level(1);
            profile.levels[1].self_ns = 100;
            ring.push(HotspotSample {
                at: t0,
                engine: Engine::PcSet,
                profile,
                span_ns: 120,
                vectors: i,
            });
        }
        assert_eq!(ring.len(), 4);
        let window = ring.window(t0, Duration::from_secs(60));
        assert_eq!(window.samples, 4);
        assert_eq!(window.span_ns, 480);
        assert_eq!(window.engines.len(), 1);
        assert_eq!(window.engines[0].1.levels[1].self_ns, 400);
        let top = window.top_levels(5);
        assert_eq!(top, vec![(Engine::PcSet, 1, 400)]);
        // A zero-width window excludes everything but stays valid.
        let empty = ring.window(t0 + Duration::from_secs(120), Duration::from_secs(1));
        assert_eq!(empty.samples, 0);
        assert!(empty.top_levels(5).is_empty());
    }
}
