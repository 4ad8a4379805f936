//! Guarded execution: budget-enforced compilation, panic containment,
//! and graceful degradation across a chain of engines.
//!
//! The compiled techniques are the fast path; the interpreted
//! event-driven baseline is the robust one. [`GuardedSimulator`] runs
//! the fastest engine that fits a [`ResourceLimits`] budget and falls
//! back down [`GuardedSimulator::DEFAULT_CHAIN`] whenever an engine
//! fails to compile, blows its budget, or panics mid-run. The next
//! engine starts from a settled-state checkpoint — the zero-delay state
//! of the last vector run, which is all a combinational circuit retains
//! — so the guard holds O(1) state however long the stream. Every
//! fallback is recorded; nothing fails silently.
//!
//! Panics are contained with [`std::panic::catch_unwind`]: a buggy
//! engine surfaces as [`SimErrorKind::EnginePanicked`] instead of
//! killing the batch.

// SimError deliberately carries full context (phase, engine, circuit,
// cause chain) and only travels on cold failure paths, so clippy's
// Err-size heuristic trades the wrong way here.
#![allow(clippy::result_large_err)]

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use uds_eventsim::zero_delay::stable_states;
use uds_netlist::{NetId, Netlist, NoopProbe, Probe, ResourceLimits};
use uds_parallel::{Optimization, ParallelSim, Word};
use uds_pcset::PcSetSimulator;

use crate::error::{FailureClass, SimError, SimErrorKind, SimPhase};
use crate::telemetry::Telemetry;
use crate::{Engine, TracedEventSim, UnitDelaySimulator, WordWidth};

/// The typed error for a panic `engine` raised during `phase`. The
/// message is the payload's text (panics carry `&str` or `String`;
/// anything else gets a placeholder).
pub(crate) fn panicked(payload: Box<dyn Any + Send>, phase: SimPhase, engine: Engine) -> SimError {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    };
    SimError::new(SimErrorKind::EnginePanicked { message }, phase).with_engine(engine)
}

/// Builds engines for a [`GuardedSimulator`]. The default factory
/// compiles the real engines; the chaos harness substitutes faulty ones.
///
/// Factories are `Send` and cloneable so [`GuardedSimulator::fork`] can
/// hand each batch worker a guard that degrades the same way.
pub trait EngineFactory: Send {
    /// Builds `engine` under `limits`, panic-contained, reporting
    /// compile phases and static metrics into `probe`.
    fn build(
        &self,
        netlist: &Netlist,
        engine: Engine,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError>;

    /// Clones the factory behind the trait object.
    fn clone_box(&self) -> Box<dyn EngineFactory>;
}

/// The factory that compiles the workspace's real engines. Its
/// crate-private `compile` method is the one place an [`Engine`]
/// becomes a compiled program: [`EngineFactory::build`] and every
/// other builder —
/// [`build_simulator`](crate::build_simulator),
/// [`build_engine_with_limits_probed_word`](crate::build_engine_with_limits_probed_word),
/// [`build_native`](crate::build_native) — is a thin call into it.
#[derive(Clone, Copy, Debug, Default)]
pub struct DefaultEngineFactory {
    /// Arena word width for the parallel-family engines.
    pub word: WordWidth,
    /// Compile every engine with **all nets monitored**, so per-net
    /// histories — and therefore toggle streams — are available on
    /// every net regardless of which engine survives the chain. This is
    /// the activity profiler's setting: left off, path tracing prunes
    /// untracked fields, which is faster but leaves most nets
    /// unobservable.
    pub monitor_all: bool,
}

impl DefaultEngineFactory {
    /// A factory compiling parallel engines at the given word width,
    /// monitoring the primary outputs.
    pub fn with_word(word: WordWidth) -> Self {
        DefaultEngineFactory {
            word,
            monitor_all: false,
        }
    }

    /// Compiles `program`'s engine under `limits`, panic-contained;
    /// with `native` the program is emitted as C and run as machine
    /// code ([`Engine::Native`] itself names the pt+trim program).
    /// Every error carries the engine.
    pub(crate) fn compile(
        &self,
        netlist: &Netlist,
        program: Engine,
        native: bool,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        let engine = if native { Engine::Native } else { program };
        let build = || -> Result<Box<dyn UnitDelaySimulator>, SimError> {
            match program {
                Engine::EventDriven if native => Err(crate::native::toolchain_error(
                    "the event-driven baseline has no C emitter",
                )),
                Engine::EventDriven => {
                    // The baseline has no compiler, but the budget still
                    // applies: its waveform store is nets × (depth + 1).
                    // It traces every net already.
                    let levels = uds_netlist::levelize(netlist)?;
                    limits.check_depth(levels.depth)?;
                    limits.check_gates(netlist.gate_count())?;
                    limits.check_inputs(netlist.primary_inputs().len())?;
                    limits.check_memory(
                        (netlist.net_count() as u64).saturating_mul(u64::from(levels.depth) + 1),
                    )?;
                    limits.check_deadline()?;
                    Ok(Box::new(TracedEventSim::new(netlist)?))
                }
                Engine::PcSet => {
                    let all: Vec<NetId>;
                    let monitored = if self.monitor_all {
                        all = netlist.net_ids().collect();
                        &all
                    } else {
                        netlist.primary_outputs()
                    };
                    let twin = PcSetSimulator::compile_probed(netlist, monitored, limits, probe)?;
                    if native {
                        crate::native::wrap(netlist, twin, probe)
                    } else {
                        Ok(Box::new(twin))
                    }
                }
                _ => {
                    let optimization = program
                        .optimization()
                        .expect("every other engine runs a parallel program");
                    match self.word {
                        WordWidth::W32 => {
                            self.parallel::<u32>(netlist, optimization, native, limits, probe)
                        }
                        WordWidth::W64 => {
                            self.parallel::<u64>(netlist, optimization, native, limits, probe)
                        }
                    }
                }
            }
        };
        match panic::catch_unwind(AssertUnwindSafe(build)) {
            Ok(result) => result.map_err(|e| {
                if e.engine.is_none() {
                    e.with_engine(engine)
                } else {
                    e
                }
            }),
            Err(payload) => Err(panicked(payload, SimPhase::Compile, engine)),
        }
    }

    /// The parallel-family arm of [`DefaultEngineFactory::compile`] at
    /// one word width.
    fn parallel<W: Word>(
        &self,
        netlist: &Netlist,
        optimization: Optimization,
        native: bool,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        let twin = self.parallel_program::<W>(netlist, optimization, native, limits, probe)?;
        if native {
            crate::native::wrap(netlist, twin, probe)
        } else {
            Ok(Box::new(twin))
        }
    }

    /// The parallel program an engine runs. A native kernel's twin
    /// steps one vector per call, so it is compiled without a block
    /// plan rather than holding one it never runs.
    fn parallel_program<W: Word>(
        &self,
        netlist: &Netlist,
        optimization: Optimization,
        native: bool,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<ParallelSim<W>, uds_parallel::CompileError> {
        let compile = if native {
            ParallelSim::<W>::compile_stepping
        } else {
            ParallelSim::<W>::compile_probed
        };
        compile(netlist, optimization, self.monitor_all, limits, probe)
    }
}

impl EngineFactory for DefaultEngineFactory {
    fn build(
        &self,
        netlist: &Netlist,
        engine: Engine,
        limits: &ResourceLimits,
        probe: &dyn Probe,
    ) -> Result<Box<dyn UnitDelaySimulator>, SimError> {
        self.compile(netlist, engine, engine == Engine::Native, limits, probe)
    }

    fn clone_box(&self) -> Box<dyn EngineFactory> {
        Box::new(*self)
    }
}

/// The guarded degradation chain headed by `preferred`: the preferred
/// engine (when given) followed by [`GuardedSimulator::DEFAULT_CHAIN`]
/// minus duplicates. This is how [`Engine::Native`] — deliberately
/// absent from the default chain — joins it (see [`chain_for`]).
pub fn chain_preferring(preferred: Option<Engine>) -> Vec<Engine> {
    let mut chain = Vec::with_capacity(GuardedSimulator::DEFAULT_CHAIN.len() + 1);
    if let Some(engine) = preferred {
        chain.push(engine);
    }
    for engine in GuardedSimulator::DEFAULT_CHAIN {
        if Some(engine) != preferred {
            chain.push(engine);
        }
    }
    chain
}

/// The chain that serves a request for `requested`: with `fallback`,
/// or for [`Engine::Native`] (which a host without a C compiler must
/// survive), [`chain_preferring`]; otherwise the one engine requested,
/// or the head of [`GuardedSimulator::DEFAULT_CHAIN`].
pub fn chain_for(requested: Option<Engine>, fallback: bool) -> Vec<Engine> {
    if fallback || requested == Some(Engine::Native) {
        chain_preferring(requested)
    } else {
        vec![requested.unwrap_or(GuardedSimulator::DEFAULT_CHAIN[0])]
    }
}

/// A fallback that fired: the engine given up on and why.
#[derive(Debug)]
pub struct FiredFallback {
    /// The engine that failed.
    pub from: Engine,
    /// What went wrong with it.
    pub error: SimError,
}

/// A budget-enforced, panic-contained simulator with graceful
/// degradation down a chain of engines.
///
/// Construction tries each engine in the chain until one compiles
/// within budget. Runs are panic-contained: a mid-run panic triggers a
/// fallback, the next engine is restored to the `Checkpoint` and
/// re-runs the failed vector or block, so retained state (each vector's
/// dependence on the previous one) is preserved bit-exactly.
pub struct GuardedSimulator {
    /// Shared with every fork: a fork never copies the circuit.
    netlist: Arc<Netlist>,
    limits: ResourceLimits,
    chain: Vec<Engine>,
    position: usize,
    active: Box<dyn UnitDelaySimulator>,
    factory: Box<dyn EngineFactory>,
    fired: Vec<FiredFallback>,
    checkpoint: Checkpoint,
    telemetry: Option<Telemetry>,
}

/// The state a replacement engine must start from: the settled state
/// the active engine holds. For a combinational circuit that is the
/// zero-delay value of the last vector alone (DESIGN.md §12), so the
/// checkpoint keeps that vector, not the run.
#[derive(Clone)]
struct Checkpoint {
    /// Stable state applied by [`GuardedSimulator::seed_stable`];
    /// restored while no vector has run since.
    seed: Option<Vec<bool>>,
    /// The last vector run, in a buffer reused for every vector.
    last_inputs: Vec<bool>,
    /// Vectors run since construction or the last seed.
    vectors: usize,
}

impl Checkpoint {
    /// The stable state to seed a replacement engine with, or `None`
    /// for the power-up state a fresh engine already holds.
    fn settled_state(&self, netlist: &Netlist) -> Result<Option<Vec<bool>>, SimError> {
        if self.vectors == 0 {
            return Ok(self.seed.clone());
        }
        Ok(stable_states(netlist, [self.last_inputs.as_slice()])?.pop())
    }
}

/// Records one fallback into the registry: the degradation itself plus
/// its failure class (`guard.budget_trips`, `guard.engine_panics`).
fn note_fallback(telemetry: Option<&Telemetry>, error: &SimError) {
    let Some(telemetry) = telemetry else { return };
    telemetry.add("guard.fallbacks", 1);
    match error.class() {
        FailureClass::Budget => telemetry.add("guard.budget_trips", 1),
        FailureClass::Panic => telemetry.add("guard.engine_panics", 1),
        _ => {}
    }
}

impl std::fmt::Debug for GuardedSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardedSimulator")
            .field("chain", &self.chain)
            .field("active", &self.active_engine())
            .field("fallbacks_fired", &self.fired.len())
            .field("vectors_run", &self.checkpoint.vectors)
            .finish_non_exhaustive()
    }
}

impl GuardedSimulator {
    /// The default degradation order: fastest compiled engine first,
    /// the interpreted baseline as the engine of last resort.
    pub const DEFAULT_CHAIN: [Engine; 4] = [
        Engine::ParallelPathTracingTrimming,
        Engine::Parallel,
        Engine::PcSet,
        Engine::EventDriven,
    ];

    /// Builds with the default chain and factory.
    pub fn new(netlist: &Netlist, limits: ResourceLimits) -> Result<Self, SimError> {
        Self::with_factory(
            netlist,
            limits,
            &Self::DEFAULT_CHAIN,
            Box::new(DefaultEngineFactory::default()),
        )
    }

    /// Builds with an explicit chain (tried in order) and engine factory
    /// (the chaos harness injects faulty factories here).
    pub fn with_factory(
        netlist: &Netlist,
        limits: ResourceLimits,
        chain: &[Engine],
        factory: Box<dyn EngineFactory>,
    ) -> Result<Self, SimError> {
        Self::build(netlist, None, limits, chain, factory, &NoopProbe, None)
    }

    /// The general constructor: [`GuardedSimulator::with_factory`] that
    /// reports compile phases and static metrics into `probe`, and
    /// every degradation into `registry` when one is given — fallback
    /// counters, plus the compile probe of each replacement engine.
    /// The CLI passes one [`Telemetry`] as both. The probe may instead
    /// be request-scoped: the serve daemon passes one that routes
    /// compile phases into a per-request trace while forwarding
    /// counters to the shared registry, and no registry (it reads
    /// [`GuardedSimulator::fallbacks`] instead). The guard keeps
    /// `netlist` itself, so a cache can hand the same circuit to
    /// several compiles without copying it.
    pub fn with_probe(
        netlist: Arc<Netlist>,
        limits: ResourceLimits,
        chain: &[Engine],
        factory: Box<dyn EngineFactory>,
        probe: &dyn Probe,
        registry: Option<Telemetry>,
    ) -> Result<Self, SimError> {
        Self::build(
            &netlist,
            Some(Arc::clone(&netlist)),
            limits,
            chain,
            factory,
            probe,
            registry,
        )
    }

    /// `shared` is `netlist` behind an `Arc` when the caller has one;
    /// otherwise the guard copies `netlist` once an engine compiled, so
    /// the copy never coexists with the compiler's temporaries.
    fn build(
        netlist: &Netlist,
        shared: Option<Arc<Netlist>>,
        limits: ResourceLimits,
        chain: &[Engine],
        factory: Box<dyn EngineFactory>,
        probe: &dyn Probe,
        telemetry: Option<Telemetry>,
    ) -> Result<Self, SimError> {
        assert!(!chain.is_empty(), "fallback chain must name an engine");
        let mut fired = Vec::new();
        for (position, &engine) in chain.iter().enumerate() {
            match factory.build(netlist, engine, &limits, probe) {
                Ok(active) => {
                    return Ok(GuardedSimulator {
                        netlist: shared.unwrap_or_else(|| Arc::new(netlist.clone())),
                        limits,
                        chain: chain.to_vec(),
                        position,
                        active,
                        factory,
                        fired,
                        checkpoint: Checkpoint {
                            seed: None,
                            last_inputs: vec![false; netlist.primary_inputs().len()],
                            vectors: 0,
                        },
                        telemetry,
                    })
                }
                Err(error) => {
                    note_fallback(telemetry.as_ref(), &error);
                    fired.push(FiredFallback {
                        from: engine,
                        error,
                    });
                }
            }
        }
        Err(SimError::new(
            SimErrorKind::ChainExhausted(fired.into_iter().map(|f| f.error).collect()),
            SimPhase::Compile,
        ))
    }

    /// The engine currently executing vectors.
    pub fn active_engine(&self) -> Engine {
        self.chain[self.position]
    }

    /// Seeds the guard with a stable state (parallel to the netlist's
    /// nets), as if every vector leading there had been simulated. The
    /// checkpoint restarts from the seed, so a degradation before the
    /// next vector seeds the replacement engine the same way — results
    /// stay bit-exact across fallbacks. The batch runner seeds each
    /// shard with the zero-delay settled state of its boundary vector.
    pub fn seed_stable(&mut self, stable: &[bool]) {
        self.active.seed_stable(stable);
        self.checkpoint.seed = Some(stable.to_vec());
        self.checkpoint.vectors = 0;
    }

    /// A fresh guard sharing this one's netlist, budget, chain,
    /// factory, checkpoint and active engine, but no telemetry
    /// registry. The netlist and the engine's compiled program are
    /// shared, not copied: the fork owns only per-run state (arena,
    /// retained values, checkpoint). Workers report
    /// timings back to the coordinating thread instead of contending on
    /// a shared registry. Fallbacks already fired are not inherited;
    /// each fork degrades independently, from the state it was forked
    /// in.
    pub fn fork(&self) -> GuardedSimulator {
        GuardedSimulator {
            netlist: Arc::clone(&self.netlist),
            limits: self.limits,
            chain: self.chain.clone(),
            position: self.position,
            active: self.active.clone_box(),
            factory: self.factory.clone_box(),
            fired: Vec::new(),
            checkpoint: self.checkpoint.clone(),
            telemetry: None,
        }
    }

    /// The circuit this guard simulates, shared with every fork.
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// Every fallback that fired, in order (compile-time and run-time).
    pub fn fallbacks(&self) -> &[FiredFallback] {
        &self.fired
    }

    /// Number of vectors successfully simulated since construction or
    /// the last [`GuardedSimulator::seed_stable`].
    pub fn vectors_run(&self) -> usize {
        self.checkpoint.vectors
    }

    /// [`UnitDelaySimulator::block_len`] of the active engine: how many
    /// vectors to hand [`GuardedSimulator::simulate_block`] at a time.
    pub fn block_len(&self) -> usize {
        self.active.block_len()
    }

    /// The active engine as a trait object — for consumers like the VCD
    /// recorder that take any [`UnitDelaySimulator`].
    pub fn active_simulator(&self) -> &dyn UnitDelaySimulator {
        self.active.as_ref()
    }

    /// Runtime counters of the active engine (see
    /// [`UnitDelaySimulator::run_counters`]). Counts reset when a
    /// fallback replaces the engine: they cover only what the surviving
    /// engine ran, from the vector it took over on.
    pub fn run_counters(&self) -> Vec<(&'static str, u64)> {
        self.active.run_counters()
    }

    /// Simulates one vector, panic-contained. On an engine panic the
    /// chain degrades: the remaining engines are tried in order, each
    /// restored to the checkpoint before re-running the vector. Returns
    /// the engine that (finally) ran the vector.
    pub fn simulate_vector(&mut self, inputs: &[bool]) -> Result<Engine, SimError> {
        self.step(&[inputs], |sim, vectors| sim.simulate_vector(vectors[0]))
    }

    /// Simulates at most [`BLOCK`](crate::BLOCK) consecutive vectors
    /// through [`UnitDelaySimulator::simulate_block`] (bit `k` of
    /// `finals[o]` is `outputs[o]` after `vectors[k]`), guarded as one
    /// step: the deadline is checked once per block, and an engine panic
    /// anywhere in it degrades from the checkpoint taken before the
    /// block and re-runs the whole block. Returns the engine that ran
    /// it.
    ///
    /// # Panics
    ///
    /// On more than [`BLOCK`](crate::BLOCK) vectors, or when `finals`
    /// and `outputs` differ in length — before any engine runs, so a
    /// caller's mistake is never taken for an engine failure.
    pub fn simulate_block(
        &mut self,
        vectors: &[&[bool]],
        outputs: &[NetId],
        finals: &mut [u64],
    ) -> Result<Engine, SimError> {
        assert!(
            vectors.len() <= crate::BLOCK,
            "a block holds at most {} vectors",
            crate::BLOCK
        );
        assert_eq!(finals.len(), outputs.len(), "one finals word per output");
        self.step(vectors, |sim, vectors| {
            sim.simulate_block(vectors, outputs, finals);
        })
    }

    /// [`GuardedSimulator::simulate_vector`] with per-level time
    /// attribution into `profile` (see
    /// [`UnitDelaySimulator::simulate_vector_leveled`]). Panic
    /// containment and degradation work exactly as in the unprofiled
    /// path; a vector that degrades mid-flight leaves whatever partial
    /// timing the failed engine accumulated in `profile` — self-time is
    /// observability, not simulation state, so it is never rolled back.
    ///
    /// The guard's own per-vector bookkeeping (width/deadline checks,
    /// panic containment, the checkpoint update) happens between the
    /// engine's timer lifetimes, so this wrapper times the whole call
    /// and attributes the engine-unattributed remainder to level 0 —
    /// per-vector setup by definition — keeping the sum contract
    /// ("everything inside a profiled call lands in some level")
    /// honest for small circuits where bookkeeping is a visible slice.
    /// Returns the engine that ran the vector and the call's wall time
    /// in nanoseconds, the span `profile` was credited against: a
    /// caller adding up spans uses this one clock read rather than its
    /// own, whose extra edges no level would hold.
    pub fn simulate_vector_leveled(
        &mut self,
        inputs: &[bool],
        profile: &mut uds_netlist::LevelProfile,
    ) -> Result<(Engine, u64), SimError> {
        let call_clock = std::time::Instant::now();
        let attributed_before = profile.total_self_ns();
        let engine = self.step(&[inputs], |sim, vectors| {
            sim.simulate_vector_leveled(vectors[0], profile)
        })?;
        let call_ns = u64::try_from(call_clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let engine_ns = profile.total_self_ns() - attributed_before;
        profile.ensure_level(0);
        profile.levels[0].self_ns += call_ns.saturating_sub(engine_ns);
        Ok((engine, call_ns))
    }

    /// The step every entry point shares, for one vector or a block:
    /// checks each vector's width and the deadline, runs `run` on the
    /// active engine panic-contained (degrading and re-running all of
    /// `vectors` on a panic), then moves the checkpoint to the last
    /// vector — a copy into a reused buffer, no allocation.
    fn step(
        &mut self,
        vectors: &[&[bool]],
        mut run: impl FnMut(&mut dyn UnitDelaySimulator, &[&[bool]]),
    ) -> Result<Engine, SimError> {
        let expected = self.checkpoint.last_inputs.len();
        if let Some(got) = vectors.iter().map(|v| v.len()).find(|&got| got != expected) {
            return Err(
                SimError::new(SimErrorKind::VectorWidth { expected, got }, SimPhase::Run)
                    .with_engine(self.active_engine()),
            );
        }
        self.limits
            .check_deadline()
            .map_err(|e| SimError::new(SimErrorKind::Budget(e), SimPhase::Run))?;
        loop {
            let active = self.active.as_mut();
            match panic::catch_unwind(AssertUnwindSafe(|| run(active, vectors))) {
                Ok(()) => {
                    if let Some(last) = vectors.last() {
                        self.checkpoint.last_inputs.copy_from_slice(last);
                        self.checkpoint.vectors += vectors.len();
                    }
                    return Ok(self.active_engine());
                }
                Err(payload) => {
                    let error = panicked(payload, SimPhase::Run, self.active_engine());
                    self.degrade(error)?;
                }
            }
        }
    }

    /// The active engine's static per-level cost model, when it has one
    /// (see [`UnitDelaySimulator::level_static_profile`]).
    pub fn level_static_profile(&self) -> Option<uds_netlist::LevelProfile> {
        self.active.level_static_profile()
    }

    /// Abandons the active engine for the given reason and brings up
    /// the next one in the chain that can compile *and* take the
    /// checkpoint's settled state. Errors with
    /// [`SimErrorKind::ChainExhausted`] when no engine remains.
    fn degrade(&mut self, error: SimError) -> Result<(), SimError> {
        note_fallback(self.telemetry.as_ref(), &error);
        self.fired.push(FiredFallback {
            from: self.active_engine(),
            error,
        });
        let settled = self.checkpoint.settled_state(&self.netlist)?;
        let noop = NoopProbe;
        for position in self.position + 1..self.chain.len() {
            let engine = self.chain[position];
            let probe: &dyn Probe = match &self.telemetry {
                Some(t) => t,
                None => &noop,
            };
            let candidate = self
                .factory
                .build(&self.netlist, engine, &self.limits, probe)
                .and_then(|mut sim| match &settled {
                    None => Ok(sim),
                    Some(state) => panic::catch_unwind(AssertUnwindSafe(|| sim.seed_stable(state)))
                        .map(|()| sim)
                        .map_err(|payload| panicked(payload, SimPhase::Run, engine)),
                });
            match candidate {
                Ok(sim) => {
                    if let Some(telemetry) = &self.telemetry {
                        telemetry.add("guard.checkpoint_restores", 1);
                    }
                    self.active = sim;
                    self.position = position;
                    return Ok(());
                }
                Err(error) => {
                    note_fallback(self.telemetry.as_ref(), &error);
                    self.fired.push(FiredFallback {
                        from: engine,
                        error,
                    });
                }
            }
        }
        Err(SimError::new(
            SimErrorKind::ChainExhausted(self.fired.iter().map(|f| f.error.clone()).collect()),
            SimPhase::Run,
        ))
    }

    /// The settled value of a net for the last vector.
    pub fn final_value(&self, net: NetId) -> bool {
        self.active.final_value(net)
    }

    /// The history of a net for the last vector, where the active
    /// engine tracks it.
    pub fn history(&self, net: NetId) -> Option<Vec<bool>> {
        self.active.history(net)
    }

    /// Circuit depth.
    pub fn depth(&self) -> u32 {
        self.active.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosscheck;
    use crate::error::FailureClass;
    use uds_netlist::generators::iscas::c17;

    /// Runs `stimulus` through `guarded` with a fresh baseline stepped
    /// beside it, comparing the guard's active engine with the baseline
    /// after every vector, across any fallback.
    fn run_beside_baseline(guarded: &mut GuardedSimulator, stimulus: &[Vec<bool>]) {
        let netlist = Arc::clone(guarded.netlist());
        let mut baseline = TracedEventSim::new(&netlist).unwrap();
        for (index, inputs) in stimulus.iter().enumerate() {
            guarded.simulate_vector(inputs).unwrap();
            baseline.simulate_vector(inputs);
            crosscheck::compare(&netlist, index, &baseline, guarded.active_simulator()).unwrap();
        }
    }

    /// The native engine's twin never runs a block, so it holds no
    /// plan for one; the interpreted engine of the same program does.
    #[test]
    fn the_native_twin_holds_no_block_plan() {
        let nl = uds_netlist::generators::iscas::Iscas85::C432.build();
        let pt_trim = Optimization::PathTracingTrimming;
        let limits = ResourceLimits::production();
        for word in [WordWidth::W32, WordWidth::W64] {
            let factory = DefaultEngineFactory::with_word(word);
            let lanes = |native: bool| match word {
                WordWidth::W32 => factory
                    .parallel_program::<u32>(&nl, pt_trim, native, &limits, &NoopProbe)
                    .map(|sim| (sim.block_len(), sim.stats().lane_arena_words)),
                WordWidth::W64 => factory
                    .parallel_program::<u64>(&nl, pt_trim, native, &limits, &NoopProbe)
                    .map(|sim| (sim.block_len(), sim.stats().lane_arena_words)),
            };
            assert_eq!(lanes(true).unwrap(), (1, 0), "w{word}: the native twin");
            let (block_len, rows) = lanes(false).unwrap();
            assert_eq!(block_len, crate::BLOCK, "w{word}");
            assert!(rows > 0, "w{word}");
        }
    }

    #[test]
    fn prefers_the_fastest_engine_within_budget() {
        let nl = c17();
        let guarded = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        assert_eq!(guarded.active_engine(), Engine::ParallelPathTracingTrimming);
        assert!(guarded.fallbacks().is_empty());
    }

    /// A chain of `n` buffers: depth n, trivially correct, deep enough
    /// to defeat small word budgets.
    fn buffer_chain(n: usize) -> uds_netlist::Netlist {
        use uds_netlist::{GateKind, NetlistBuilder};
        let mut b = NetlistBuilder::new();
        let mut prev = b.input("a");
        for i in 0..n {
            prev = b.gate(GateKind::Buf, &[prev], format!("b{i}")).unwrap();
        }
        b.output(prev);
        b.finish().unwrap()
    }

    #[test]
    fn degrades_when_budget_rejects_compiled_engines() {
        // A one-word budget the unoptimized parallel engine cannot
        // satisfy on a circuit deeper than 63, at either word width
        // (uniform fields span the whole depth) — pc-set has no
        // bit-fields and takes over.
        let nl = buffer_chain(70);
        let limits = ResourceLimits {
            max_field_words: Some(1),
            ..ResourceLimits::unlimited()
        };
        let chain = [Engine::Parallel, Engine::PcSet, Engine::EventDriven];
        let factory = Box::new(DefaultEngineFactory::default());
        let mut guarded = GuardedSimulator::with_factory(&nl, limits, &chain, factory).unwrap();
        assert_eq!(guarded.active_engine(), Engine::PcSet);
        let fired: Vec<Engine> = guarded.fallbacks().iter().map(|f| f.from).collect();
        assert_eq!(fired, vec![Engine::Parallel]);
        for fallback in guarded.fallbacks() {
            assert_eq!(fallback.error.class(), FailureClass::Budget);
        }
        // The survivor still answers correctly.
        run_beside_baseline(&mut guarded, &[vec![true], vec![false], vec![true]]);
    }

    #[test]
    fn guarded_results_match_baseline() {
        let nl = c17();
        let mut guarded = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let stimulus: Vec<Vec<bool>> = (0u32..32)
            .map(|pattern| (0..5).map(|i| pattern >> i & 1 != 0).collect())
            .collect();
        run_beside_baseline(&mut guarded, &stimulus);
        assert_eq!(guarded.vectors_run(), 32);
    }

    #[test]
    fn wrong_vector_width_is_typed_not_a_panic() {
        let nl = c17();
        let mut guarded = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let err = guarded.simulate_vector(&[true]).unwrap_err();
        assert_eq!(err.class(), FailureClass::Usage);
        let mut finals = [0u64; 2];
        let block: [&[bool]; 2] = [&[true; 5], &[true]];
        let err = guarded
            .simulate_block(&block, nl.primary_outputs(), &mut finals)
            .unwrap_err();
        assert_eq!(err.class(), FailureClass::Usage);
        assert!(guarded.fallbacks().is_empty(), "no fallback on bad input");
        assert_eq!(guarded.vectors_run(), 0, "no vector of the block ran");
    }

    #[test]
    #[should_panic(expected = "a block holds at most 64 vectors")]
    fn an_oversized_block_panics_before_any_engine_runs() {
        let nl = c17();
        let mut guarded = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
        let vectors: [&[bool]; 65] = [&[false; 5]; 65];
        let mut finals = [0u64; 2];
        let _ = guarded.simulate_block(&vectors, nl.primary_outputs(), &mut finals);
    }

    #[test]
    fn chain_preferring_prepends_without_duplicates() {
        assert_eq!(chain_preferring(None), GuardedSimulator::DEFAULT_CHAIN);
        let native = chain_preferring(Some(Engine::Native));
        assert_eq!(native[0], Engine::Native);
        assert_eq!(native[1..], GuardedSimulator::DEFAULT_CHAIN);
        let already = chain_preferring(Some(Engine::ParallelPathTracingTrimming));
        assert_eq!(already, GuardedSimulator::DEFAULT_CHAIN);
    }

    #[test]
    fn chain_for_runs_one_engine_unless_asked_to_degrade() {
        let head = GuardedSimulator::DEFAULT_CHAIN[0];
        assert_eq!(chain_for(None, false), [head]);
        assert_eq!(chain_for(Some(Engine::PcSet), false), [Engine::PcSet]);
        assert_eq!(chain_for(None, true), GuardedSimulator::DEFAULT_CHAIN);
        assert_eq!(
            chain_for(Some(Engine::PcSet), true),
            chain_preferring(Some(Engine::PcSet))
        );
        for fallback in [false, true] {
            assert_eq!(
                chain_for(Some(Engine::Native), fallback),
                chain_preferring(Some(Engine::Native))
            );
        }
    }

    #[test]
    fn guarded_native_runs_or_degrades_bit_exactly() {
        // With a C toolchain the native engine heads the chain; without
        // one the toolchain failure is contained and an interpreted
        // engine takes over. Either way the answers cross-check.
        let _env = crate::native::env_lock();
        let nl = c17();
        let chain = chain_preferring(Some(Engine::Native));
        let factory = Box::new(DefaultEngineFactory::default());
        let mut guarded =
            GuardedSimulator::with_factory(&nl, ResourceLimits::production(), &chain, factory)
                .unwrap();
        if crate::native::compiler_available() {
            assert_eq!(guarded.active_engine(), Engine::Native);
            assert!(guarded.fallbacks().is_empty());
        } else {
            assert_eq!(
                guarded.fallbacks()[0].error.class(),
                FailureClass::Toolchain
            );
        }
        let stimulus: Vec<Vec<bool>> = (0u32..32)
            .map(|pattern| (0..5).map(|i| pattern >> i & 1 != 0).collect())
            .collect();
        run_beside_baseline(&mut guarded, &stimulus);
    }

    #[test]
    fn chain_exhaustion_reports_every_failure() {
        let nl = c17();
        let limits = ResourceLimits {
            max_depth: Some(1),
            ..ResourceLimits::unlimited()
        };
        let err = GuardedSimulator::new(&nl, limits).unwrap_err();
        assert_eq!(err.class(), FailureClass::Budget);
        match err.kind {
            SimErrorKind::ChainExhausted(errors) => {
                assert_eq!(errors.len(), GuardedSimulator::DEFAULT_CHAIN.len());
            }
            other => panic!("expected chain exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn monitoring_factory_makes_every_net_observable_on_every_engine() {
        let _env = crate::native::env_lock();
        let nl = c17();
        let limits = ResourceLimits::production();
        let mut engines = Engine::ALL.to_vec();
        if crate::native::compiler_available() {
            engines.push(Engine::Native);
        }
        for word in [WordWidth::W32, WordWidth::W64] {
            let factory = DefaultEngineFactory {
                word,
                monitor_all: true,
            };
            for &engine in &engines {
                let mut sim = factory.build(&nl, engine, &limits, &NoopProbe).unwrap();
                sim.simulate_vector(&[true, false, true, false, true]);
                for net in nl.net_ids() {
                    assert!(
                        sim.for_each_toggle(net, &mut |_| {}).is_some(),
                        "{engine} w{word}: net {} must expose a toggle stream",
                        nl.net_name(net)
                    );
                }
            }
        }
    }

    #[test]
    fn build_engine_contains_budget_errors_per_engine() {
        let nl = c17();
        let limits = ResourceLimits {
            max_gates: Some(1),
            ..ResourceLimits::unlimited()
        };
        for engine in Engine::ALL {
            let err = DefaultEngineFactory::default()
                .build(&nl, engine, &limits, &NoopProbe)
                .err()
                .expect("a one-gate budget rejects c17");
            assert_eq!(err.class(), FailureClass::Budget, "{engine}");
            assert_eq!(err.engine, Some(engine));
        }
    }
}
