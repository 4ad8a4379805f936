//! The engine-agnostic simulator trait and constructors.

// SimError deliberately carries full context and only travels on cold
// failure paths; see guard.rs for the same trade.
#![allow(clippy::result_large_err)]

use std::fmt;

use uds_eventsim::EventDrivenUnitDelay;
use uds_netlist::{
    levelize, LevelProfile, LevelSink, LevelTimer, LevelizeError, NetId, Netlist, NoopProbe, Probe,
    ResourceLimits, Unprofiled,
};
use uds_parallel::{Optimization, ParallelSim, Word};
use uds_pcset::PcSetSimulator;

use crate::guard::{DefaultEngineFactory, EngineFactory};
use crate::waveform::for_each_transition;
use crate::SimError;

/// The most vectors one [`UnitDelaySimulator::simulate_block`] takes:
/// one per bit of its `u64` finals words.
pub const BLOCK: usize = 64;

/// ORs `value(outputs[o])` into bit `lane` of `finals[o]` for every
/// output: one row of a block, packed.
pub(crate) fn pack_lane(
    finals: &mut [u64],
    lane: usize,
    outputs: &[NetId],
    value: impl Fn(NetId) -> bool,
) {
    for (word, &net) in finals.iter_mut().zip(outputs) {
        *word |= u64::from(value(net)) << lane;
    }
}

/// A unit-delay simulator: feed vectors, read back settled values and
/// (where supported) complete time histories.
///
/// Implemented by the PC-set simulator, every optimization level of the
/// parallel technique, and the traced event-driven baseline, so
/// comparison harnesses and examples can be written once.
///
/// Engines are `Send` and cloneable (via [`Self::clone_box`]) so the
/// batch runner can hand each worker thread its own copy of a compiled
/// engine without recompiling per shard.
pub trait UnitDelaySimulator: Send {
    /// Short engine name for reports (e.g. `"pc-set"`).
    fn engine_name(&self) -> &'static str;

    /// Simulates one input vector (parallel to the primary inputs).
    ///
    /// # Panics
    ///
    /// Implementations panic if the vector length does not match the
    /// primary-input count.
    fn simulate_vector(&mut self, inputs: &[bool]);

    /// Simulates at most [`BLOCK`] consecutive vectors, leaving the
    /// engine exactly as running them one by one would: bit `k` of
    /// `finals[o]` is the settled value of `outputs[o]` after
    /// `vectors[k]`, and every readback answers for the last vector.
    /// The default runs [`Self::simulate_vector`] per vector; the PC-set
    /// engine runs the block on its 64 bit lanes, the parallel engines
    /// on the 64 word lanes of a lane-major arena.
    ///
    /// # Panics
    ///
    /// Implementations panic if a vector length does not match the
    /// primary-input count, on more than [`BLOCK`] vectors, or when
    /// `finals` and `outputs` differ in length.
    fn simulate_block(&mut self, vectors: &[&[bool]], outputs: &[NetId], finals: &mut [u64]) {
        assert!(
            vectors.len() <= BLOCK,
            "a block holds at most {BLOCK} vectors"
        );
        assert_eq!(finals.len(), outputs.len(), "one finals word per output");
        finals.fill(0);
        for (lane, inputs) in vectors.iter().enumerate() {
            self.simulate_vector(inputs);
            pack_lane(finals, lane, outputs, |net| self.final_value(net));
        }
    }

    /// The vectors a streaming caller should hand
    /// [`Self::simulate_block`] at a time: [`BLOCK`] for an engine whose
    /// block is one pass of its program — the PC-set engine, and a
    /// parallel engine whose 64-lane arena fits its fixed budget (not
    /// c6288's) — and 1 for an engine that steps vector by vector, where
    /// a longer block saves nothing and would only space out the
    /// caller's cancellation and deadline checks.
    fn block_len(&self) -> usize {
        1
    }

    /// The settled value of any net for the last vector.
    fn final_value(&self, net: NetId) -> bool;

    /// The complete history of `net` at times `0..=depth()` for the
    /// last vector, or `None` when the engine did not track it for this
    /// net.
    fn history(&self, net: NetId) -> Option<Vec<bool>>;

    /// Circuit depth (histories have `depth() + 1` entries).
    fn depth(&self) -> u32;

    /// Replaces the engine's state with an arbitrary stable state
    /// (`stable` is parallel to the netlist's nets), as if every vector
    /// leading to that state had already been simulated. The batch
    /// runner uses this to seed each shard with the zero-delay settled
    /// state of the vector preceding it.
    ///
    /// # Panics
    ///
    /// Implementations panic if `stable.len()` differs from the net
    /// count.
    fn seed_stable(&mut self, stable: &[bool]);

    /// Clones the engine behind the trait object, preserving its
    /// compiled program and current state.
    fn clone_box(&self) -> Box<dyn UnitDelaySimulator>;

    /// Engine-specific runtime counters accumulated since construction
    /// (e.g. events processed by the event-driven baseline), as
    /// `(name, value)` pairs ready for a telemetry registry. Compiled
    /// engines do no bookkeeping during simulation — their loop *is*
    /// straight-line code — so the default is empty.
    fn run_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Simulates one input vector while attributing wall time and work
    /// counts to netlist levels in `profile` (level 0 is per-vector
    /// setup, levels `1..=depth()` are gate levels). The default times
    /// the whole vector into level 0, so every engine satisfies the
    /// attribution contract — all time spent inside the call lands in
    /// *some* level — even without fine-grained hooks. Engines with a
    /// level-segmented execution stream override this with chunked
    /// per-level timing (see `uds_netlist::LevelTimer`).
    ///
    /// This is a separate entry point, not a flag on
    /// [`Self::simulate_vector`]: with profiling off the hot loop is
    /// byte-for-byte the code it was before profiling existed.
    ///
    /// # Panics
    ///
    /// Implementations panic if the vector length does not match the
    /// primary-input count.
    fn simulate_vector_leveled(&mut self, inputs: &[bool], profile: &mut LevelProfile) {
        let mut timer = LevelTimer::new(profile);
        self.simulate_vector(inputs);
        timer.segment(0, 0, 0, 0);
    }

    /// The engine's *static* per-level cost model — instruction/word-op
    /// counts fixed at compile time — or `None` for engines without
    /// one (the hotspot report shows it beside the measured profile).
    /// `vectors` is 0 in the returned profile.
    fn level_static_profile(&self) -> Option<LevelProfile> {
        None
    }

    /// Visits every toggle of `net` for the last vector — each time `t`
    /// in `1..=depth()` where the net's value differs from its value at
    /// `t - 1` — and returns the toggle count, or `None` exactly when
    /// [`UnitDelaySimulator::history`] returns `None`. The default
    /// derives toggles from the history; the parallel engine overrides
    /// it with a word-parallel popcount over its bit-fields. Visit
    /// order is unspecified: shift-eliminated fields do not map bit
    /// positions to times monotonically.
    fn for_each_toggle(&self, net: NetId, visit: &mut dyn FnMut(u32)) -> Option<u32> {
        Some(for_each_transition(&self.history(net)?, visit))
    }
}

impl UnitDelaySimulator for PcSetSimulator {
    fn engine_name(&self) -> &'static str {
        "pc-set"
    }

    fn simulate_vector(&mut self, inputs: &[bool]) {
        PcSetSimulator::simulate_vector(self, inputs);
    }

    fn simulate_block(&mut self, vectors: &[&[bool]], outputs: &[NetId], finals: &mut [u64]) {
        PcSetSimulator::simulate_block(self, vectors, outputs, finals);
    }

    fn block_len(&self) -> usize {
        BLOCK
    }

    fn final_value(&self, net: NetId) -> bool {
        PcSetSimulator::final_value(self, net)
    }

    fn history(&self, net: NetId) -> Option<Vec<bool>> {
        PcSetSimulator::history(self, net)
    }

    fn depth(&self) -> u32 {
        PcSetSimulator::depth(self)
    }

    fn seed_stable(&mut self, stable: &[bool]) {
        PcSetSimulator::seed_stable(self, stable);
    }

    fn clone_box(&self) -> Box<dyn UnitDelaySimulator> {
        Box::new(self.clone())
    }

    fn simulate_vector_leveled(&mut self, inputs: &[bool], profile: &mut LevelProfile) {
        PcSetSimulator::step(self, inputs, &mut LevelTimer::new(profile));
    }

    fn level_static_profile(&self) -> Option<LevelProfile> {
        Some(PcSetSimulator::level_static_profile(self))
    }
}

impl<W: Word> UnitDelaySimulator for ParallelSim<W> {
    fn engine_name(&self) -> &'static str {
        match self.optimization() {
            Optimization::None => "parallel",
            Optimization::Trimming => "parallel+trim",
            Optimization::PathTracing => "parallel+pt",
            Optimization::PathTracingTrimming => "parallel+pt+trim",
            Optimization::CycleBreaking => "parallel+cb",
            Optimization::CycleBreakingTrimming => "parallel+cb+trim",
        }
    }

    fn simulate_vector(&mut self, inputs: &[bool]) {
        ParallelSim::simulate_vector(self, inputs);
    }

    fn simulate_block(&mut self, vectors: &[&[bool]], outputs: &[NetId], finals: &mut [u64]) {
        ParallelSim::simulate_block(self, vectors, outputs, finals);
    }

    fn block_len(&self) -> usize {
        ParallelSim::block_len(self)
    }

    fn final_value(&self, net: NetId) -> bool {
        ParallelSim::final_value(self, net)
    }

    fn history(&self, net: NetId) -> Option<Vec<bool>> {
        ParallelSim::history(self, net)
    }

    fn depth(&self) -> u32 {
        ParallelSim::depth(self)
    }

    fn seed_stable(&mut self, stable: &[bool]) {
        ParallelSim::seed_stable(self, stable);
    }

    fn clone_box(&self) -> Box<dyn UnitDelaySimulator> {
        Box::new(self.clone())
    }

    fn for_each_toggle(&self, net: NetId, visit: &mut dyn FnMut(u32)) -> Option<u32> {
        ParallelSim::for_each_toggle_in_field(self, net, visit)
    }

    fn simulate_vector_leveled(&mut self, inputs: &[bool], profile: &mut LevelProfile) {
        ParallelSim::step(self, inputs, &mut LevelTimer::new(profile));
    }

    fn level_static_profile(&self) -> Option<LevelProfile> {
        Some(ParallelSim::level_static_profile(self))
    }
}

/// The interpreted event-driven baseline wrapped to record complete
/// waveforms, so it satisfies [`UnitDelaySimulator`] and can serve as
/// the reference in cross-checks.
#[derive(Clone, Debug)]
pub struct TracedEventSim {
    inner: EventDrivenUnitDelay<bool>,
    waveform: Vec<Vec<bool>>,
    depth: u32,
    total_events: u64,
    total_toggles: u64,
    total_gate_evaluations: u64,
}

impl TracedEventSim {
    /// Builds the traced baseline.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] for cyclic or sequential netlists.
    pub fn new(netlist: &Netlist) -> Result<Self, LevelizeError> {
        let depth = levelize(netlist)?.depth;
        let inner = EventDrivenUnitDelay::new(netlist)?;
        let waveform = inner
            .values()
            .iter()
            .map(|&v| vec![v; depth as usize + 1])
            .collect();
        Ok(TracedEventSim {
            inner,
            waveform,
            depth,
            total_events: 0,
            total_toggles: 0,
            total_gate_evaluations: 0,
        })
    }

    /// Event statistics of the most recent vector are available through
    /// the wrapped simulator.
    pub fn inner(&self) -> &EventDrivenUnitDelay<bool> {
        &self.inner
    }

    /// The one per-vector body: rewinds every waveform row to its
    /// settled value (per-vector setup, so level-0 work for a profiling
    /// `sink`), then records the event-driven step's changes into it.
    fn step<S: LevelSink>(&mut self, inputs: &[bool], sink: &mut S) {
        for row in &mut self.waveform {
            let last = *row.last().expect("rows are depth + 1 long");
            row.fill(last);
        }
        let waveform = &mut self.waveform;
        let stats = self.inner.step(inputs, sink, |t, net, v| {
            for slot in &mut waveform[net.index()][t as usize..] {
                *slot = v;
            }
        });
        self.total_events += stats.events as u64;
        self.total_toggles += stats.toggles as u64;
        self.total_gate_evaluations += stats.gate_evaluations as u64;
    }
}

impl UnitDelaySimulator for TracedEventSim {
    fn engine_name(&self) -> &'static str {
        "event-driven"
    }

    fn simulate_vector(&mut self, inputs: &[bool]) {
        self.step(inputs, &mut Unprofiled);
    }

    fn final_value(&self, net: NetId) -> bool {
        *self.waveform[net.index()]
            .last()
            .expect("rows are depth + 1 long")
    }

    fn history(&self, net: NetId) -> Option<Vec<bool>> {
        Some(self.waveform[net.index()].clone())
    }

    fn depth(&self) -> u32 {
        self.depth
    }

    fn seed_stable(&mut self, stable: &[bool]) {
        self.inner.seed_values(stable);
        for (row, &value) in self.waveform.iter_mut().zip(stable) {
            row.fill(value);
        }
    }

    fn clone_box(&self) -> Box<dyn UnitDelaySimulator> {
        Box::new(self.clone())
    }

    fn run_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("eventsim.events", self.total_events),
            ("eventsim.toggles", self.total_toggles),
            ("eventsim.gate_evaluations", self.total_gate_evaluations),
        ]
    }

    fn simulate_vector_leveled(&mut self, inputs: &[bool], profile: &mut LevelProfile) {
        self.step(inputs, &mut LevelTimer::new(profile));
    }
}

/// Every engine the workspace provides, constructible by name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Engine {
    /// Interpreted event-driven unit-delay (two-valued), traced.
    EventDriven,
    /// The PC-set method (§2).
    PcSet,
    /// The parallel technique, unoptimized (§3).
    Parallel,
    /// Parallel with bit-field trimming.
    ParallelTrimming,
    /// Parallel with path-tracing shift elimination.
    ParallelPathTracing,
    /// Parallel with path tracing and trimming.
    ParallelPathTracingTrimming,
    /// Parallel with cycle-breaking shift elimination.
    ParallelCycleBreaking,
    /// The emitted C, actually compiled: `cc` + `dlopen` at runtime,
    /// driving the parallel pt+trim program as machine code. Requires a
    /// C toolchain; run it in a [`GuardedSimulator`](crate::GuardedSimulator)
    /// chain (see [`crate::chain_preferring`]) so a missing compiler
    /// degrades to an interpreted engine instead of failing.
    Native,
}

impl Engine {
    /// All *interpreted* engines in comparison order. [`Engine::Native`]
    /// is deliberately absent: it needs a host C toolchain, so
    /// toolchain-free comparisons, property suites, and fallback chains
    /// iterate this list and opt into native explicitly.
    pub const ALL: [Engine; 7] = [
        Engine::EventDriven,
        Engine::PcSet,
        Engine::Parallel,
        Engine::ParallelTrimming,
        Engine::ParallelPathTracing,
        Engine::ParallelPathTracingTrimming,
        Engine::ParallelCycleBreaking,
    ];

    /// Parses an engine from its display name (`"pc-set"`, `"native"`,
    /// ...). The inverse of [`Engine`]'s `Display`, covering
    /// [`Engine::ALL`] plus [`Engine::Native`] — the single name table
    /// the CLI and the daemon both use.
    pub fn parse(name: &str) -> Option<Engine> {
        if name == "native" {
            return Some(Engine::Native);
        }
        Engine::ALL.into_iter().find(|e| e.to_string() == name)
    }

    /// The parallel-technique program this engine runs, or `None` for
    /// the event-driven baseline and the PC-set method.
    /// [`Engine::Native`] runs the pt+trim program as machine code.
    pub fn optimization(self) -> Option<Optimization> {
        Some(match self {
            Engine::EventDriven | Engine::PcSet => return None,
            Engine::Parallel => Optimization::None,
            Engine::ParallelTrimming => Optimization::Trimming,
            Engine::ParallelPathTracing => Optimization::PathTracing,
            Engine::ParallelPathTracingTrimming | Engine::Native => {
                Optimization::PathTracingTrimming
            }
            Engine::ParallelCycleBreaking => Optimization::CycleBreaking,
        })
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::EventDriven => "event-driven",
            Engine::PcSet => "pc-set",
            Engine::Parallel => "parallel",
            Engine::ParallelTrimming => "parallel+trim",
            Engine::ParallelPathTracing => "parallel+pt",
            Engine::ParallelPathTracingTrimming => "parallel+pt+trim",
            Engine::ParallelCycleBreaking => "parallel+cb",
            Engine::Native => "native",
        })
    }
}

/// Arena word width for the parallel technique. The paper's machine
/// model packs time steps into 32-bit words; 64-bit words halve the
/// word-op count of every multi-word field on deep circuits, so every
/// runtime build defaults to them (DESIGN.md §12). Output rows are the
/// same at either width. Other engines ignore the width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum WordWidth {
    /// 32-bit arena words, the paper's machine model (`--word 32`).
    W32,
    /// 64-bit arena words (the default).
    #[default]
    W64,
}

impl WordWidth {
    /// Bits per arena word.
    pub fn bits(self) -> u32 {
        match self {
            WordWidth::W32 => 32,
            WordWidth::W64 => 64,
        }
    }

    /// Parses `"32"` / `"64"`.
    pub fn parse(s: &str) -> Option<WordWidth> {
        match s {
            "32" => Some(WordWidth::W32),
            "64" => Some(WordWidth::W64),
            _ => None,
        }
    }
}

impl fmt::Display for WordWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bits())
    }
}

/// Builds any engine as a boxed [`UnitDelaySimulator`] with the default
/// arena word width ([`WordWidth::default`], 64 bits).
///
/// # Errors
///
/// Returns a [`SimError`] for cyclic or sequential netlists
/// ([`FailureClass::Structural`](crate::FailureClass::Structural)) and,
/// for [`Engine::Native`], a missing or failing C toolchain.
pub fn build_simulator(
    netlist: &Netlist,
    engine: Engine,
) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
    build_simulator_with_word(netlist, engine, WordWidth::default())
}

/// Builds any engine as a boxed [`UnitDelaySimulator`], unbudgeted and
/// unprobed. Parallel-family engines pack their bit-fields into words
/// of the requested width; other engines ignore it.
///
/// # Errors
///
/// As [`build_simulator`].
pub fn build_simulator_with_word(
    netlist: &Netlist,
    engine: Engine,
    word: WordWidth,
) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
    build_engine_with_limits_probed_word(
        netlist,
        engine,
        &ResourceLimits::unlimited(),
        &NoopProbe,
        word,
    )
}

/// Builds any engine under a resource budget at the given word width,
/// panic-contained, reporting compile phases and the paper's static
/// metrics (PC-set sizes, words trimmed, shifts retained/eliminated)
/// into `probe` — pass a [`Telemetry`](crate::telemetry::Telemetry) to
/// collect them. Budget violations surface as
/// [`SimErrorKind::Budget`](crate::SimErrorKind::Budget), panics as
/// [`SimErrorKind::EnginePanicked`](crate::SimErrorKind::EnginePanicked);
/// every error carries the engine. This is
/// [`DefaultEngineFactory::build`](crate::guard::EngineFactory::build)
/// without the factory.
pub fn build_engine_with_limits_probed_word(
    netlist: &Netlist,
    engine: Engine,
    limits: &ResourceLimits,
    probe: &dyn Probe,
    word: WordWidth,
) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
    DefaultEngineFactory::with_word(word).build(netlist, engine, limits, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uds_netlist::generators::iscas::c17;
    use uds_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn every_engine_builds_and_agrees_on_finals() {
        let nl = c17();
        let mut sims: Vec<Box<dyn UnitDelaySimulator>> = Engine::ALL
            .iter()
            .map(|&e| build_simulator(&nl, e).unwrap())
            .collect();
        for pattern in 0u32..32 {
            let inputs: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
            for sim in &mut sims {
                sim.simulate_vector(&inputs);
            }
            for &po in nl.primary_outputs() {
                let reference = sims[0].final_value(po);
                for sim in &sims[1..] {
                    assert_eq!(
                        sim.final_value(po),
                        reference,
                        "{} diverged on {pattern:05b}",
                        sim.engine_name()
                    );
                }
            }
        }
    }

    #[test]
    fn traced_event_sim_histories_reset_between_vectors() {
        // A buffer chain: history must show the *current* vector's edge,
        // not remnants of older ones.
        let mut b = NetlistBuilder::new();
        let a = b.input("a");
        let x = b.gate(GateKind::Buf, &[a], "x").unwrap();
        let y = b.gate(GateKind::Buf, &[x], "y").unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        let mut sim = TracedEventSim::new(&nl).unwrap();
        sim.simulate_vector(&[true]);
        assert_eq!(sim.history(y).unwrap(), vec![false, false, true]);
        sim.simulate_vector(&[true]);
        assert_eq!(
            sim.history(y).unwrap(),
            vec![true, true, true],
            "stable vector: flat history at the held value"
        );
        sim.simulate_vector(&[false]);
        assert_eq!(sim.history(y).unwrap(), vec![true, true, false]);
    }

    #[test]
    fn engines_report_consistent_depth() {
        let nl = c17();
        for engine in Engine::ALL {
            let sim = build_simulator(&nl, engine).unwrap();
            assert_eq!(sim.depth(), 3, "{engine}");
        }
    }

    #[test]
    fn cyclic_netlist_fails_to_build() {
        let mut b = NetlistBuilder::new();
        let a = b.input("A");
        let x = b.fresh_net();
        let y = b.fresh_net();
        b.gate_onto(GateKind::And, &[a, y], x).unwrap();
        b.gate_onto(GateKind::Not, &[x], y).unwrap();
        b.output(y);
        let nl = b.finish().unwrap();
        for engine in Engine::ALL {
            let err = build_simulator(&nl, engine)
                .err()
                .expect("a cyclic netlist cannot build");
            assert_eq!(
                err.class(),
                crate::FailureClass::Structural,
                "{engine}: {err}"
            );
            assert_eq!(err.engine, Some(engine));
        }
    }

    #[test]
    fn engine_display_round_trips_names() {
        let nl = c17();
        let limits = ResourceLimits::production();
        for engine in Engine::ALL {
            let sim = build_simulator(&nl, engine).unwrap();
            assert_eq!(sim.engine_name(), engine.to_string());
            for word in [WordWidth::W32, WordWidth::W64] {
                let sim = DefaultEngineFactory::with_word(word)
                    .build(&nl, engine, &limits, &NoopProbe)
                    .unwrap();
                assert_eq!(sim.engine_name(), engine.to_string(), "w{word}");
            }
        }
    }
}
